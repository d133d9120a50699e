"""The three benchmark workloads: inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has finished.  A run repeats whole rounds of the
same operations, so the share of failed operations is the same in every run.
Inputs come from ``--seed``; the inputs that exercise known faults do not,
and their operations carry ``known_fault=True``.

An operation ends in one of three ways:

* ``ok``      the expected outcome (exit code or exception), checked content;
* ``failed``  another outcome than expected (wrong exit code, an exception
              where a result was due, a result where a rejection was due);
* ``wrong``   the expected outcome with content that disagrees with the
              oracle; this makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import channelrep as cr
import channelrep.cli
import oracle


@dataclass
class Result:
    seconds: float
    status: str  # "ok", "failed" or "wrong"
    message: str = ""
    code: int | None = None  # exit code of a CLI call
    maxrss_kib: int = 0  # peak RSS of a CLI call's process


@dataclass
class CliOp:
    label: str
    argv: list
    expect: int
    check: object = None  # callable(stdout, stderr) raising oracle.Mismatch
    output: str | None = None
    known_fault: bool = False  # fails today because of a known fault


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _encode(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _decode(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _lines(stdout: str) -> dict:
    return dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)


class CliWorkload:
    """Sequential ``python -m channelrep`` calls on files under ``tmp``."""

    warmup = 5  # leading ops of a round run once, untimed, before timing

    def __init__(self, seed: int, tmp: str):
        self.rng = np.random.default_rng([seed, self.salt])
        self.tmp = tmp
        self.readers: dict = {}
        self.ops: list[CliOp] = []
        self._n = 0

    def reader(self, dx, dy) -> oracle.Reader:
        if (dx, dy) not in self.readers:
            self.readers[dx, dy] = oracle.Reader(dx, dy)
        return self.readers[dx, dy]

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.tmp, f"{self._n:03d}-{stem}.json")

    # ---- inputs: (path, dx, dy, oracle Choi matrix)

    def choi_file(self, dx, dy, j) -> tuple:
        p = self.path(f"choi{dx}x{dy}")
        _write_json(p, {"kind": "choi", "dx": dx, "dy": dy, "data": _encode(j)})
        return p, dx, dy, j

    def random_choi_file(self, dx, dy, rank=None) -> tuple:
        rmin = -(-dx // dy)
        rank = rank or int(self.rng.integers(rmin, dx * dy + 1))
        j = cr.random_channel(dx, dy, rank, int(self.rng.integers(2**31))).matrix
        return self.choi_file(dx, dy, np.array(j))

    def kraus_file(self, dx, dy, rank) -> tuple:
        ops = oracle.random_kraus(self.rng, dx, dy, rank)
        p = self.path(f"kraus{dx}x{dy}")
        _write_json(p, {"kind": "kraus", "dx": dx, "dy": dy, "data": [_encode(k) for k in ops]})
        return p, dx, dy, oracle.choi_of_kraus(ops)

    def unitary_file(self, d) -> tuple:
        u = oracle.random_unitary(self.rng, d)
        p = self.path(f"unitary{d}")
        _write_json(p, {"kind": "unitary", "dx": d, "dy": d, "data": _encode(u)})
        return p, d, d, oracle.choi_of_unitary(u)

    def correlation_file(self, d, psd=True) -> tuple:
        a = oracle.random_correlation(self.rng, d, psd)
        p = self.path(f"correlation{d}")
        _write_json(p, {"kind": "correlation", "dx": d, "dy": d, "data": _encode(a)})
        return p, d, d, oracle.choi_of_schur(a)

    def vector_file(self, dx, dy) -> tuple:
        _, _, _, j = self.random_choi_file(dx, dy)
        p = self.path(f"vector{dx}x{dy}")
        _write_json(p, {"dx": dx, "dy": dy, "values": list(self.reader(dx, dy).coefficients(j))})
        return p, dx, dy, j

    def raw_file(self, stem, text) -> str:
        p = self.path(stem)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p

    # ---- operations

    def add(self, label, argv, expect=0, check=None, output=None, known_fault=False) -> None:
        self.ops.append(CliOp(label, [str(a) for a in argv], expect, check, output, known_fault))

    def represent(self, inp) -> None:
        path, dx, dy, j = inp
        out = self.path("out-vector")
        reader = self.reader(dx, dy)

        def verify(stdout, stderr):
            lines = _lines(stdout)
            oracle.close("dim_s", int(lines["dim_s"]), oracle.dim_s(dx, dy), 0)
            oracle.close("c0", float(lines["c0"]), math.sqrt(dx / dy), 1e-12)
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            oracle.close("dims", [doc["dx"], doc["dy"]], [dx, dy], 0)
            oracle.check_vector(j, np.array(doc["values"], dtype=float), reader, channel=True)

        self.add(f"represent {os.path.basename(path)}", ["represent", path, "--output", out],
                 check=verify, output=out)

    def combine(self, inp) -> None:
        path, dx, dy, j = inp
        out = self.path("out-choi")

        def verify(stdout, stderr):
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            oracle.close("dims", [doc["dx"], doc["dy"]], [dx, dy], 0)
            if doc["kind"] != "choi":
                raise oracle.Mismatch(f"combine wrote kind {doc['kind']!r}")
            j2 = _decode(doc["data"])
            oracle.check_in_s(j2, dx, dy)
            oracle.close("round trip", j2, j, 1e-12 * oracle.scale(j))

        self.add(f"combine {os.path.basename(path)}", ["combine", path, "--output", out],
                 check=verify, output=out)

    def check(self, inp, cp=True) -> None:
        path, dx, dy, j = inp
        min_eig = float(np.linalg.eigvalsh(j)[0])
        trace = float(np.trace(j).real)

        def verify(stdout, stderr):
            lines = _lines(stdout)
            want = {"cp": cp, "tp": True, "hp": True}
            got = {k: lines[k] == "true" for k in want}
            if got != want:
                raise oracle.Mismatch(f"check reported {got}, expected {want}")
            s = oracle.scale(j)
            oracle.close("min_eigenvalue", float(lines["min_eigenvalue"]), min_eig, 1e-12 * s)
            oracle.close("trace", float(lines["trace"]), trace, 1e-12 * s)
            oracle.close("pairing", float(lines["pairing"]), trace / dx, 1e-12 * s)

        self.add(f"check {os.path.basename(path)}", ["check", path], expect=0 if cp else 1, check=verify)

    def roundtrip(self, inp) -> None:
        path = inp[0]

        def verify(stdout, stderr):
            err = float(stdout.strip())
            if not 0.0 <= err <= 1e-12:
                raise oracle.Mismatch(f"roundtrip error {err:.3e} above 1e-12")

        self.add(f"roundtrip {os.path.basename(path)}", ["roundtrip", path], check=verify)

    def random(self, dx, dy, rank) -> None:
        out = self.path("out-random")

        def verify(stdout, stderr):
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            oracle.close("dims", [doc["dx"], doc["dy"]], [dx, dy], 0)
            oracle.check_channel(_decode(doc["data"]), dx, dy, rank)

        seed = int(self.rng.integers(2**31))
        self.add(f"random {dx}x{dy} rank {rank}",
                 ["random", "--dx", dx, "--dy", dy, "--rank", rank, "--seed", seed, "--output", out],
                 check=verify, output=out)

    def basis(self, dx, dy) -> None:
        out = self.path("out-basis")
        reader = self.reader(dx, dy)

        def verify(stdout, stderr):
            oracle.close("dim_s", int(_lines(stdout)["dim_s"]), oracle.dim_s(dx, dy), 0)
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            got = [tuple(e["label"]) for e in doc["elements"]]
            if got != reader.labels:
                raise oracle.Mismatch("basis labels differ from the documented order")
            # Element k read through the oracle must be the k-th unit vector:
            # this checks entries, normalisation and orthogonality at once.
            coeffs = np.stack([reader.coefficients(_decode(e["matrix"])) for e in doc["elements"]])
            oracle.close("basis elements", coeffs, np.eye(len(got)), 1e-12)

        self.add(f"basis {dx}x{dy}", ["basis", "--dx", dx, "--dy", dy, "--output", out],
                 check=verify, output=out)

    def rejected(self, label, argv, code, residual_of=None, known_fault=False) -> None:
        """A represent/combine input the CLI must refuse with ``code``."""

        def verify(stdout, stderr):
            if "Traceback" in stderr or not stderr.startswith(("error:", "residual_trace_norm")):
                raise oracle.Mismatch(f"unexpected diagnostics: {stderr[:200]!r}")
            if residual_of is not None:
                got = float(_lines(stderr)["residual_trace_norm"])
                want = oracle.residual_trace_norm(*residual_of)
                oracle.close("residual trace norm", got, want, 1e-9 * want + 1e-12)

        out = self.path("out-rejected")
        self.add(label, [*argv, "--output", out], expect=code, check=verify, output=out,
                 known_fault=known_fault)

    # ---- running

    def run(self, op: CliOp) -> Result:
        """One CLI call; ``wait4`` gives this child's own peak RSS."""
        if op.output and os.path.exists(op.output):
            os.remove(op.output)
        with tempfile.TemporaryFile("w+", dir=self.tmp) as out, \
                tempfile.TemporaryFile("w+", dir=self.tmp) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "channelrep", *op.argv],
                                    cwd=self.tmp, stdout=out, stderr=err)
            _, wstatus, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
            proc.returncode = code = os.waitstatus_to_exitcode(wstatus)
            out.seek(0)
            err.seek(0)
            status, message = self._judge(op, code, out.read(), err.read())
        return Result(dt, status, message, code=code, maxrss_kib=usage.ru_maxrss)

    @staticmethod
    def _judge(op: CliOp, code: int, stdout: str, stderr: str) -> tuple[str, str]:
        if code != op.expect:
            return "failed", f"{op.label}: exit {code}, expected {op.expect}"
        if op.output and op.expect == 0 and not os.path.exists(op.output):
            return "wrong", f"{op.label}: no output file"
        if op.output and op.expect != 0 and os.path.exists(op.output):
            return "wrong", f"{op.label}: output written for a refused input"
        try:
            if op.check:
                op.check(stdout, stderr)
        except (oracle.Mismatch, KeyError, ValueError, TypeError) as exc:
            return "wrong", f"{op.label}: {type(exc).__name__}: {exc}"
        return "ok", ""

    def main_in_process(self, op: CliOp) -> tuple[float, int]:
        """Run ``cli.main`` on the op's argv inside this process."""
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = channelrep.cli.main(op.argv)
        return time.perf_counter() - t0, code


class CliSmall(CliWorkload):
    """Start-up, import and argparse dominate; basis work takes microseconds."""

    salt = 1

    def build(self) -> None:
        rng = self.rng
        self.random(2, 3, 2)
        self.random(1, 3, 1)
        for inp in (self.random_choi_file(2, 3), self.random_choi_file(3, 2),
                    self.random_choi_file(1, 2), self.unitary_file(2),
                    self.correlation_file(3), self.kraus_file(2, 3, 2)):
            self.represent(inp)
        for dx, dy in ((3, 2), (1, 3), (2, 2)):
            self.combine(self.vector_file(dx, dy))
        self.check(self.random_choi_file(3, 3))
        self.check(self.unitary_file(3))
        self.check(self.kraus_file(3, 2, 3))
        self.check(self.correlation_file(3, psd=False), cp=False)
        self.roundtrip(self.random_choi_file(3, 3))
        self.roundtrip(self.unitary_file(2))
        self.roundtrip(self.correlation_file(3))
        self.basis(2, 3)
        self.basis(1, 2)

        _, dx, dy, j = self.random_choi_file(2, 2)
        j_out = j + 0.3 * np.kron(np.eye(dy), oracle.traceless_hermitian(rng, dx))
        p = self.choi_file(dx, dy, j_out)[0]
        self.rejected("represent outside S", ["represent", p], 3, residual_of=(j_out, dx, dy))
        p = self.raw_file("bad-json", '{"kind": "choi", "dx": 1, "dy": 1, "data": [[[1.0, 0.0]]')
        self.rejected("represent malformed JSON", ["represent", p], 2)
        p = self.raw_file("bad-kind", json.dumps({"kind": "lindblad", "dx": 2, "dy": 2, "data": []}))
        self.rejected("represent unknown kind", ["represent", p], 2)
        u = oracle.random_unitary(rng, 2) * 1.5
        p = self.raw_file("bad-unitary", json.dumps({"kind": "unitary", "dx": 2, "dy": 2, "data": _encode(u)}))
        self.rejected("represent non-unitary", ["represent", p], 2)
        # Known fault: fileio accepts bool as int, so this exits 0, not 2.
        p = self.raw_file("bool-vector", json.dumps({"dx": True, "dy": True, "values": [True]}))
        self.rejected("combine bool vector", ["combine", p], 2, known_fault=True)


class CliLarge(CliWorkload):
    """Every call rebuilds the dense basis and parses or writes Choi JSON."""

    salt = 2

    def build(self) -> None:
        for dx, dy in ((6, 6), (8, 8), (4, 8), (8, 4)):
            rmin = -(-dx // dy)
            self.represent(self.random_choi_file(dx, dy))
            self.represent(self.kraus_file(dx, dy, int(self.rng.integers(rmin, 4 + rmin))))
            self.combine(self.vector_file(dx, dy))
            if dx == dy:
                self.roundtrip(self.unitary_file(dx))
            else:
                self.roundtrip(self.kraus_file(dx, dy, int(self.rng.integers(rmin, 4 + rmin))))
            self.check(self.correlation_file(dx) if dx == 6 else self.random_choi_file(dx, dy))


@dataclass
class LibOp:
    label: str
    dx: int
    dy: int
    j: np.ndarray
    expect: str  # "channel", "scaled" (a channel times 1e8) or "outside"
    known_fault: bool = False  # fails today because of a known fault


class LibEncode:
    """One process, bases built once; represent -> combine -> check per op."""

    SIZES = ((4, 4), (6, 6), (8, 8), (4, 8), (8, 4))
    SCALE = 1e8
    warmup = None  # one whole round

    def __init__(self, seed: int, tmp: str):
        self.rng = np.random.default_rng([seed, 3])
        self.ops: list[LibOp] = []
        self.bases: dict = {}
        self.readers: dict = {}

    def build(self) -> None:
        for dx, dy in self.SIZES:
            self.bases[dx, dy] = cr.channel_basis(dx, dy)
            self.readers[dx, dy] = oracle.Reader(dx, dy)
        for dx, dy in self.SIZES:
            n, rmin = dx * dy, -(-dx // dy)
            ranks = [rmin, n, *sorted(self.rng.integers(rmin, n + 1, size=3))]
            for rank in ranks:
                j = cr.random_channel(dx, dy, int(rank), int(self.rng.integers(2**31))).matrix
                self.ops.append(LibOp(f"channel {dx}x{dy} rank {rank}", dx, dy, np.array(j), "channel"))
            j = cr.random_channel(dx, dy, n, int(self.rng.integers(2**31))).matrix
            h = oracle.traceless_hermitian(self.rng, dx)
            j_out = j + 0.1 * np.kron(np.eye(dy), h / np.linalg.norm(h))
            self.ops.append(LibOp(f"outside S {dx}x{dy}", dx, dy, j_out, "outside"))
        # Known fault: HERMITICITY_TOL is absolute, so represent rejects a
        # valid channel scaled by 1e8.  Fixed seeds: it fails on every run.
        for (dx, dy), seed in (((4, 4), 13), ((6, 6), 14)):
            j = cr.random_channel(dx, dy, dx * dy, seed).matrix * self.SCALE
            self.ops.append(LibOp(f"channel x1e8 {dx}x{dy}", dx, dy, np.array(j), "scaled",
                                  known_fault=True))
        # Check the program's label order against the documented one once.
        for size, basis in self.bases.items():
            if tuple(basis.labels) != tuple(self.readers[size].labels):
                raise oracle.Mismatch(f"basis labels {size} differ from the documented order")

    def run(self, op: LibOp) -> Result:
        basis = self.bases[op.dx, op.dy]
        t0 = time.perf_counter()
        try:
            v = cr.represent(basis, op.j)
        except cr.NotInSubspaceError as exc:
            dt = time.perf_counter() - t0
            if op.expect != "outside":
                return Result(dt, "failed", f"{op.label}: {exc}")
            want = oracle.residual_trace_norm(op.j, op.dx, op.dy)
            try:
                oracle.close("residual trace norm", exc.residual_trace_norm, want, 1e-9 * want + 1e-12)
            except oracle.Mismatch as mm:
                return Result(dt, "wrong", f"{op.label}: {mm}")
            return Result(dt, "ok")
        except cr.ChannelRepError as exc:
            return Result(time.perf_counter() - t0, "failed", f"{op.label}: {type(exc).__name__}: {exc}")
        if op.expect == "outside":
            return Result(time.perf_counter() - t0, "failed", f"{op.label}: accepted")
        j2 = cr.combine(basis, v)
        err = cr.trace_norm(op.j - j2.matrix)
        cp = cr.is_completely_positive(j2)
        tp = cr.is_trace_preserving(j2)
        dt = time.perf_counter() - t0
        try:
            s = oracle.scale(op.j)
            oracle.check_vector(op.j, v.values, self.readers[op.dx, op.dy], channel=op.expect == "channel")
            if op.expect == "scaled":
                oracle.close("c0", v.values[0], self.SCALE * math.sqrt(op.dx / op.dy), 1e-12 * s)
            oracle.check_in_s(j2.matrix, op.dx, op.dy)
            oracle.close("round trip", j2.matrix, op.j, 1e-12 * s)
            if not err <= 1e-12 * s:
                raise oracle.Mismatch(f"trace-norm round-trip error {err:.3e}")
            if (cp, tp) != (True, op.expect == "channel"):
                raise oracle.Mismatch(f"cp/tp reported {(cp, tp)}")
        except oracle.Mismatch as mm:
            return Result(dt, "wrong", f"{op.label}: {mm}")
        return Result(dt, "ok")


WORKLOADS = {"cli_small": CliSmall, "cli_large": CliLarge, "lib_encode": LibEncode}
