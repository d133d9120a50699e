"""Shared fixtures and independent brute-force oracles for the test suite."""

import atexit
import contextlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from functools import lru_cache

import numpy as np

import channelrep
from channelrep import channel_basis
from channelrep.channel_basis import helmert
from channelrep.linalg import _mirror_upper

SQRT2 = np.sqrt(2.0)



def console_env(src=None) -> dict:
    """The environment of this process, with ``src`` (by default the tree of
    the imported channelrep) first on the import path and one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(src or pathlib.Path(channelrep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _stamps(root: pathlib.Path) -> dict:
    """Each file under ``root`` with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


def written_by(call, cwd) -> tuple:
    """``call()``'s result, and the bytes of every file under ``cwd`` that
    it created or changed (new, or a changed size or mtime), by path
    relative to ``cwd``."""
    cwd = pathlib.Path(cwd)
    before = _stamps(cwd)
    result = call()
    return result, {p.relative_to(cwd).as_posix(): p.read_bytes()
                    for p, stamp in _stamps(cwd).items() if before.get(p) != stamp}


def fresh_console(argv, cwd, src=None) -> tuple:
    """``run_console`` in a fresh interpreter: ``python -m channelrep <argv>``."""
    proc, files = written_by(lambda: subprocess.run(
        [sys.executable, "-m", "channelrep", *argv], cwd=cwd, env=console_env(src),
        capture_output=True, text=True), cwd)
    return proc.returncode, proc.stdout, proc.stderr, files


# The server script imports what ``python -m channelrep`` imports before
# main (``-c`` would add linecache on Python 3.13), then reads requests, one
# JSON line ``[argv, cwd]`` each.  For each it forks a child, waits for it
# and answers with its exit code.  The child runs the console script in cwd,
# with cwd first on the import path and stdout and stderr in the files "1"
# and "2" of the directory ``sys.argv[1]``, then leaves the loop, so that
# the interpreter ends it as it ends ``python -m channelrep``: ``sys.exit``,
# a traceback, flushes and atexit.  The server exits at EOF of its requests.
_SERVER = r"""
import json, os, runpy, sys
import channelrep.cli

for line in sys.stdin.buffer:
    argv, cwd = json.loads(line)
    pid = os.fork()
    if pid == 0:
        os.chdir(cwd)
        sys.path[0] = cwd
        os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
        for fd in (1, 2):
            os.dup2(os.open(os.path.join(sys.argv[1], str(fd)), os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
        sys.argv = ["-m", *argv]
        runpy.run_module("channelrep", run_name="__main__", alter_sys=True)
        break
    os.write(1, b"%d\n" % os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


class ConsoleServer:
    """One warm interpreter under ``console_env(src)`` that runs console
    calls one at a time, each in a child forked from it."""

    def __init__(self, src=None):
        self.dir = tempfile.TemporaryDirectory(prefix="console-")
        script = pathlib.Path(self.dir.name, "server.py")
        script.write_text(_SERVER)
        with open(os.path.join(self.dir.name, "server"), "wb") as err:
            self.proc = subprocess.Popen([sys.executable, script, self.dir.name], cwd=self.dir.name,
                                         env=console_env(src), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err)

    def _read(self, name: str) -> str:
        return pathlib.Path(self.dir.name, name).read_text()

    def call(self, argv, cwd) -> tuple:
        """Exit code, stdout and stderr of the console script on ``argv`` in ``cwd``."""
        with contextlib.suppress(BrokenPipeError):  # a dead server: the read below says so
            self.proc.stdin.write(json.dumps([list(argv), os.path.abspath(cwd)]).encode() + b"\n")
            self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            stderr = self._read("server")
            self.close()
            raise RuntimeError(f"console server exited with {self.proc.returncode}: {stderr}")
        return int(answer), self._read("1"), self._read("2")

    def close(self) -> None:
        """End the server with EOF of its requests, reap it and remove its files."""
        if self.proc.returncode is None:
            try:
                self.proc.communicate(timeout=60)
            finally:  # a server that outlives its requests is killed, not waited for
                self.proc.kill()
                self.proc.wait()
                self.dir.cleanup()


_SERVERS = {}  # by tree, each closed at exit
atexit.register(lambda: [server.close() for server in _SERVERS.values()])


def run_console(argv, cwd, src=None) -> tuple:
    """Run ``python -m channelrep <argv>`` in ``cwd`` under ``console_env(src)``:
    its exit code, stdout, stderr and the files it wrote (``written_by``).
    The one place the tests and tools run the console script.  Each call is
    forked from one warm ``ConsoleServer`` per tree, started on first use;
    without ``os.fork`` each call starts a fresh interpreter."""
    if not hasattr(os, "fork"):
        return fresh_console(argv, cwd, src)
    server = _SERVERS.get(str(src))
    if server is None or server.proc.returncode is not None:
        server = _SERVERS[str(src)] = ConsoleServer(src)
    (code, stdout, stderr), files = written_by(lambda: server.call(argv, cwd), cwd)
    return code, stdout, stderr, files


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2

HADAMARD_CHOI = 0.5 * np.array(
    [
        [1, 1, 1, -1],
        [1, 1, 1, -1],
        [1, 1, 1, -1],
        [-1, -1, -1, 1],
    ],
    dtype=complex,
)

HADAMARD_COEFF_MULTISET = np.array(
    [1.0, 1.0, 0.70711, 0.70711, -0.70711, -0.70711] + [0.0] * 7
)

# Two-decimal correlation matrix fixture for the entrywise-product channel.
CORRELATION_2DP = np.array(
    [
        [1.0, 0.92 - 0.14j, 0.84 - 0.19j],
        [0.92 + 0.14j, 1.0, 0.81 + 0.06j],
        [0.84 + 0.19j, 0.81 - 0.06j, 1.0],
    ]
)


def _correlation_full() -> np.ndarray:
    # Higher-precision variant consistent with the five-decimal expected
    # coefficients below; rounds to CORRELATION_2DP at two decimals.
    a = np.eye(3, dtype=complex)
    a[0, 1] = (1.29553 - 0.20356j) / SQRT2
    a[0, 2] = (1.18231 - 0.26978j) / SQRT2
    a[1, 2] = (1.14206 + 0.08119j) / SQRT2
    a[1, 0] = np.conj(a[0, 1])
    a[2, 0] = np.conj(a[0, 2])
    a[2, 1] = np.conj(a[1, 2])
    return a


CORRELATION_FULL = _correlation_full()

SCHUR_COEFF_MULTISET = np.array(
    [
        1.0,
        0.70711,
        -0.70711,
        0.40825,
        0.40825,
        -0.8165,
        1.29553,
        -0.20356,
        1.18231,
        -0.26978,
        1.14206,
        0.08119,
    ]
    + [0.0] * 61
)

# File contents the loaders must refuse with FileFormatError (CLI exit 2):
# an integer beyond float range, bytes that are not UTF-8, and arrays nested
# deeper than the JSON decoder recurses.
_HUGE = b"1" + b"0" * 400
MALFORMED_FILES = {
    "huge matrix entry": b'{"kind": "choi", "dx": 1, "dy": 1, "data": [[[%s, 0]]]}' % _HUGE,
    "huge vector value": b'{"dx": 1, "dy": 1, "values": [%s]}' % _HUGE,
    "not utf-8": b"\xff\xfe{}",
    "deep nesting": b"[" * 100000 + b"]" * 100000,
    # Loads, but the Helmert profiles of combine overflow when mixing the values.
    "overflowing coefficients": b'{"dx": 1, "dy": 3, "values": [%s]}' % b", ".join([b"1.7e308"] * 9),
}


def _is_json_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _reference_matrix(rows):
    """One matrix decoded entry by entry, or None where it is refused."""
    if not isinstance(rows, list) or not rows:
        return None
    width, out = None, []
    for row in rows:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            return None
        width = len(row)
        decoded = []
        for entry in row:
            if not isinstance(entry, list) or len(entry) != 2 or not all(map(_is_json_number, entry)):
                return None
            try:
                decoded.append(complex(*entry))
            except OverflowError:
                return None
        out.append(decoded)
    m = np.array(out, dtype=complex)
    return m if np.isfinite(m).all() else None


def reference_load(doc: dict):
    """Reference decode of a parsed choi, kraus or vector document with valid dims.

    The per-entry rules the loaders followed before their decode was
    vectorised: every number checked and converted one by one, each Kraus
    operator decoded on its own and stacked.  Returns the array that
    ``load_matrix_file(...).data`` or ``load_vector_file(...).values`` must
    equal bit for bit, or None where the loader must refuse the document.
    """
    dx, dy = doc["dx"], doc["dy"]
    if "values" in doc:
        values = doc["values"]
        if not isinstance(values, list) or not all(map(_is_json_number, values)):
            return None
        if len(values) != dx * dx * dy * dy - dx * dx + 1:
            return None
        try:
            v = np.array(values, dtype=float)
        except OverflowError:
            return None
        return v if np.isfinite(v).all() else None
    data = doc["data"]
    if doc["kind"] == "choi":
        m = _reference_matrix(data)
        return m if m is not None and m.shape == (dx * dy, dx * dy) else None
    if not isinstance(data, list) or not data:
        return None
    mats = [_reference_matrix(k) for k in data]
    if any(k is None or k.shape != (dy, dx) for k in mats):
        return None
    return np.stack(mats)


def schur_choi_loop(a: np.ndarray) -> np.ndarray:
    """Expected Choi matrix of y -> a .* y, built entry by entry."""
    d = a.shape[0]
    j = np.zeros((d * d, d * d), dtype=complex)
    for p in range(d):
        for q in range(d):
            j[p * d + p, q * d + q] = a[p, q]
    return j


def choi_double_sum(ops, dx: int, dy: int) -> np.ndarray:
    """Brute-force Choi matrix: explicit double sum over matrix units."""
    ops = [np.asarray(k, dtype=complex) for k in ops]
    out = np.zeros((dy * dx, dy * dx), dtype=complex)
    for i in range(dx):
        for j in range(dx):
            unit = np.zeros((dx, dx), dtype=complex)
            unit[i, j] = 1.0
            phi = sum(k @ unit @ k.conj().T for k in ops)
            out += np.kron(phi, unit)
    return out


def apply_kraus(ops, x) -> np.ndarray:
    """Brute-force channel application sum_m K x K^dag."""
    return sum(np.asarray(k) @ x @ np.asarray(k).conj().T for k in ops)


def ptrace_first_loop(m, d1: int, d2: int) -> np.ndarray:
    """Brute-force partial trace over the first factor."""
    out = np.zeros((d2, d2), dtype=complex)
    for i in range(d2):
        for j in range(d2):
            for k in range(d1):
                out[i, j] += m[k * d2 + i, k * d2 + j]
    return out


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_hermitian(rng, d: int) -> np.ndarray:
    m = rand_complex(rng, (d, d))
    return (m + m.conj().T) / 2


def rand_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_complex(rng, (d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[np.newaxis, :]


def rand_kraus_ops(rng, dx: int, dy: int, rank: int):
    return [rand_complex(rng, (dy, dx)) for _ in range(rank)]


def feasible_triples(max_dim: int = 4, max_rank: int = 4):
    """All (dx, dy, rank) with rank <= dx*dy and rank*dy >= dx (TP isometry exists)."""
    return [
        (dx, dy, r)
        for dx in range(1, max_dim + 1)
        for dy in range(1, max_dim + 1)
        for r in range(1, max_rank + 1)
        if r <= dx * dy and r * dy >= dx
    ]


@lru_cache(maxsize=None)
def get_basis(dx: int, dy: int):
    return channel_basis(dx, dy)


def _diagonal_profiles(dy: int) -> list[np.ndarray]:
    """Traceless diagonal vectors (1,..,1,-k,0,..)/sqrt(k+k^2) for k=1..dy-1."""
    out = []
    for k in range(1, dy):
        v = np.zeros(dy)
        v[:k] = 1.0
        v[k] = -k
        out.append(v / np.sqrt(k + k * k))
    return out


@lru_cache(maxsize=None)
def dense_channel_basis(dx: int, dy: int) -> dict:
    """Reference channel basis, element by element: {label: dense n x n element}.

    The explicit Kronecker/positional construction, in basis order.  It is
    the reference that ``ChannelBasis.elements``, ``represent`` and
    ``combine`` are compared against; it costs O((dx*dy)^4) memory.
    """
    n = dx * dy
    sqrt2 = np.sqrt(2)
    elements = {("identity",): np.eye(n, dtype=complex) / np.sqrt(n)}
    for k, profile in enumerate(_diagonal_profiles(dy), start=1):
        d_y = np.diag(profile).astype(complex)
        for x in range(dx):
            proj = np.zeros((dx, dx), dtype=complex)
            proj[x, x] = 1.0
            elements[("diag_proj", k, x)] = np.kron(d_y, proj)
        for a in range(dx):
            for b in range(a + 1, dx):
                sym = np.zeros((dx, dx), dtype=complex)
                sym[a, b] = sym[b, a] = 1.0 / sqrt2
                elements[("diag_sym", k, a, b)] = np.kron(d_y, sym)
                antisym = np.zeros((dx, dx), dtype=complex)
                antisym[a, b] = 1j / sqrt2
                antisym[b, a] = -1j / sqrt2
                elements[("diag_antisym", k, a, b)] = np.kron(d_y, antisym)
    for y1 in range(dy):
        for y2 in range(y1 + 1, dy):
            for x1 in range(dx):
                for x2 in range(dx):
                    p, q = y1 * dx + x1, y2 * dx + x2
                    sym = np.zeros((n, n), dtype=complex)
                    sym[p, q] = sym[q, p] = 1.0 / sqrt2
                    elements[("pair_sym", y1, x1, y2, x2)] = sym
                    antisym = np.zeros((n, n), dtype=complex)
                    antisym[p, q] = 1j / sqrt2
                    antisym[q, p] = -1j / sqrt2
                    elements[("pair_antisym", y1, x1, y2, x2)] = antisym
    return elements


def dense_represent(dx: int, dy: int, m) -> np.ndarray:
    """Reference coefficients: Hilbert-Schmidt overlaps with every dense element."""
    stack = np.stack(list(dense_channel_basis(dx, dy).values()))
    return np.tensordot(stack.conj(), np.asarray(m, dtype=complex), axes=([1, 2], [0, 1])).real


def dense_combine(dx: int, dy: int, v) -> np.ndarray:
    """Reference reassembly: sum_k v[k] * element_k over the dense elements."""
    stack = np.stack(list(dense_channel_basis(dx, dy).values()))
    return np.tensordot(np.asarray(v, dtype=float), stack, axes=1)


@lru_cache(maxsize=None)
def _reference_tables(dx: int, dy: int):
    """Index tables of the flat float view of J, one position per entry.

    ``block`` (dy, dx^2) holds, per diagonal block J[y,:,y,:], the real
    diagonal, then [re, im] of each entry above it; ``pair`` the [re, im] of
    the entries of each block J[y1,:,y2,:], y1 < y2, in coefficient order.
    Real part of entry (r, c) at 2*(r*n + c), its imaginary part right after.
    """
    n = dx * dy
    u = np.arange(n * n, dtype=np.intp).reshape(dy, dx, dy, dx).swapaxes(1, 2)
    ys, (y1, y2), (a, b) = np.arange(dy), np.triu_indices(dy, 1), np.triu_indices(dx, 1)

    def re_im(p):
        return np.stack([2 * p, 2 * p + 1], axis=-1).reshape(p.shape[:-1] + (-1,))

    blocks = u[ys, ys]
    diag = 2 * np.diagonal(blocks, axis1=-2, axis2=-1)
    block = np.concatenate([diag, re_im(blocks[:, a, b])], axis=-1)
    on_diagonal = np.arange(dx * dx) < dx
    weight = np.where(on_diagonal, 1.0, SQRT2)
    return block, re_im(u[y1, y2].reshape(-1)), weight, 1.0 / weight, helmert(dy)[1:]


def reference_gather(basis, m):
    """The coefficients that ``represent`` reads, through per-entry index tables."""
    block, pair, weight, _, profiles = _reference_tables(basis.dx, basis.dy)
    batch, dx, dy = m.shape[:-2], basis.dx, basis.dy
    m = np.ascontiguousarray(m)
    f = m.reshape(batch + (-1,)).view(float)
    rows = f.take(block, axis=-1) * weight
    split = 1 + (dy - 1) * dx * dx
    values = np.empty(batch + (len(basis),))
    values[..., 0] = m.trace(axis1=-2, axis2=-1).real / np.sqrt(dx * dy)
    values[..., 1:split] = (profiles @ rows).reshape(batch + (-1,))
    np.multiply(f.take(pair, axis=-1), SQRT2, out=values[..., split:])
    return values


def reference_scatter(basis, values):
    """The block write of ``combine`` through per-entry index tables: the
    entries on and above the diagonal, then a mirror of the whole matrix."""
    block, pair, _, inv_weight, profiles = _reference_tables(basis.dx, basis.dy)
    batch, dx, dy = values.shape[:-1], basis.dx, basis.dy
    n, split = dx * dy, 1 + (dy - 1) * dx * dx
    coords = profiles.T @ values[..., 1:split].reshape(batch + (dy - 1, dx * dx))
    coords *= inv_weight
    f = np.zeros(batch + (2 * n * n,))
    f[..., block] = coords
    f[..., pair] = values[..., split:] * (1.0 / SQRT2)
    f[..., :: 2 * (n + 1)] += values[..., :1] / np.sqrt(n)
    return _mirror_upper(f.view(complex).reshape(batch + (n, n)))


def multiset_dev(got, expected) -> float:
    """Max componentwise deviation after sorting both value multisets."""
    got = np.sort(np.asarray(got, dtype=float))
    expected = np.sort(np.asarray(expected, dtype=float))
    assert got.shape == expected.shape
    return float(np.abs(got - expected).max())
