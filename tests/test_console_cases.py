"""Every console-script case in one table, run as ``python -m channelrep``.

Each row writes its inputs into a fresh directory and runs the console
script there through ``fixtures.run_console``.  It checks the exit code, and
stdout and stderr line by line against the row's ``lines`` and ``errors``.
Exactly one ``error:`` line comes on exit 2 or 3, and then nothing on
stdout and no file.  It then deletes what the call wrote and runs
``cli.main`` in process on the same argv, which must give the same code,
stdout, stderr and output bytes.  Last, the files the call wrote must be
exactly those the row's ``writes`` build with the library, byte for byte.

The module needs nothing from ``conftest.py``: the console runs whichever
``channelrep`` this module imported.  To check an installed package, run it
from outside the checkout, so that ``src`` is not on the path:

    python -m pytest -q --noconftest /path/to/checkout/tests/test_console_cases.py
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

import channelrep
from channelrep import (
    CoefficientVector,
    FileFormatError,
    ValidationError,
    channel_basis,
    combine,
    kron,
    random_channel,
    represent,
    schur_channel,
    subspace_dimension,
    unitary_channel,
)
from channelrep.cli import main
from channelrep.fileio import save_basis_file, save_matrix_file, save_vector_file

from fixtures import (
    CORRELATION_2DP,
    HADAMARD,
    MALFORMED_FILES,
    ConsoleServer,
    console_env,
    fresh_console,
    run_console,
    written_by,
)


# An input builder: a call that writes one file into the current directory.
Writer = Callable[[], None]


def _text(name: str, text) -> Writer:
    """A file of ``text``, a ``str`` or ``bytes``."""
    data = text.encode() if isinstance(text, str) else text
    return lambda: pathlib.Path(name).write_bytes(data)


def _json(name: str, doc: dict) -> Writer:
    return _text(name, json.dumps(doc))


def _choi_json(name: str, dx: int, dy: int, data: list) -> Writer:
    return _json(name, {"kind": "choi", "dx": dx, "dy": dy, "data": data})


def _matrix(name: str, kind: str, dx: int, dy: int, make: Callable[[], np.ndarray]) -> Writer:
    return lambda: save_matrix_file(name, kind, dx, dy, make())


def _channel(name: str, make: Callable) -> Writer:
    """The Choi file of ``make()``: for a random channel, what ``random`` writes."""
    return lambda: save_matrix_file(name, "choi", make().dx, make().dy, make().matrix)


def _vector(name: str, dx: int, dy: int, make: Callable[[], np.ndarray]) -> Writer:
    return lambda: save_vector_file(name, dx, dy, make())


def _represented(name: str, make: Callable) -> Writer:
    """What ``represent`` writes for the channel ``make()``."""
    return lambda: save_vector_file(name, make().dx, make().dy, _coefficients(make)())


def _combined(name: str, dx: int, dy: int, make: Callable[[], np.ndarray]) -> Writer:
    """What ``combine`` writes for the coefficients ``make()``."""
    return lambda: save_matrix_file(name, "choi", dx, dy, combine(channel_basis(dx, dy), make()).matrix)


def _coefficients(make: Callable) -> Callable[[], np.ndarray]:
    """What ``represent`` gives for the channel ``make()``."""
    return lambda: represent(channel_basis(make().dx, make().dy), make()).values


def _scaled():
    # A channel with its output rotated by U and scaled by 1e8.
    q = np.linalg.qr(np.random.default_rng(13).standard_normal((2, 2)) + 1j)[0]
    u = np.kron(q, np.eye(2))
    return 1e8 * (u @ random_channel(2, 2, 4, seed=14).matrix @ u.conj().T)


def _check(cp: str, tp: str) -> tuple:
    """The stdout lines of ``check`` on a Hermiticity-preserving map."""
    return f"cp {cp}", f"tp {tp}", "hp true", r"min_eigenvalue \S+", r"trace \S+", r"pairing \S+"


def _represent(dim_s: int, c0: str = r"\S+") -> tuple:
    """The stdout lines of ``represent``."""
    return f"dim_s {dim_s}", f"c0 {c0}"


RANDOM = partial(random_channel, 2, 2, 2, seed=1)
R = _channel("r.json", RANDOM)
V = _represented("v.json", RANDOM)
UNDERFLOW = _matrix("underflow.json", "choi", 2, 2, lambda: 1e-170 * RANDOM().matrix)
HAD = _matrix("had.json", "unitary", 2, 2, lambda: HADAMARD)
HAD_CHANNEL = partial(unitary_channel, HADAMARD)
SCHUR = _matrix("schur.json", "correlation", 3, 3, lambda: CORRELATION_2DP)
SEED_7 = partial(random_channel, 2, 3, 2, seed=7)
# The identity channel's Choi matrix, sum_ik |ii><kk|.
IDENTITY = _matrix("id.json", "choi", 2, 2, lambda: np.outer(np.eye(2), np.eye(2)))
OUTSIDE_S = _matrix("in.json", "choi", 2, 2, lambda: kron(np.eye(2), np.diag([1.0, -1.0])))
ZERO = _matrix("zero.json", "choi", 2, 2, lambda: np.zeros((4, 4)))
BROKEN = _text("in.json", "{broken")
HUGE = _matrix("huge.json", "choi", 2, 2, lambda: 1e200 * kron(np.eye(2), np.diag([1.0, -1.0])))

# A printed trace-norm error of at most 1e-12 (as "%.16e").
AT_MOST_1E_12 = r"\d\.\d{16}e-(1[3-9]|[2-9]\d|\d{3})|0\.0{16}e\+00"


def _error(message: str, then: str = "") -> str:
    """The pattern of the line ``error: <message>``, followed by the pattern ``then``."""
    return re.escape(f"error: {message}") + then


def _not_in_s(norm: float) -> tuple:
    """The stderr lines of exit 3."""
    return (re.escape(f"residual_trace_norm {norm!r}"),
            _error(f"matrix is not in the channel subspace (residual trace norm {norm:e})"))


CANNOT_WRITE = _error("cannot write missing/out.json: ", ".+")  # then the system's reason
INFINITE_NORM = _error("matrix has a non-finite Frobenius norm (inf)")
CANNOT_READ = _error("cannot read matrix file in.json: ", ".+")


class Case(NamedTuple):
    label: str
    argv: str  # split on spaces
    code: int
    inputs: tuple = ()  # Writers
    lines: tuple = ()  # regular expressions, matching the stdout lines one for one, in order
    writes: tuple = ()  # Writers, one for each file the call writes, of the same bytes
    errors: tuple = ()  # regular expressions, matching the stderr lines one for one, in order


CASES = [
    # The inputs the rows below build are what random and represent write.
    Case("random 2x2", "random --dx 2 --dy 2 --rank 2 --seed 1 --output r.json", 0, writes=(R,)),
    Case("roundtrip 2x2", "roundtrip r.json", 0, (R,), (AT_MOST_1E_12,)),
    Case("represent 2x2", "represent r.json --output v.json", 0, (R,), _represent(13), (V,)),
    Case("combine 2x2", "combine v.json --output c.json", 0, (V,),
         writes=(_combined("c.json", 2, 2, _coefficients(RANDOM)),)),
    Case("represent hadamard", "represent had.json --output out.json", 0, (HAD,), _represent(13),
         (_represented("out.json", HAD_CHANNEL),)),
    Case("combine hadamard", "combine v.json --output c.json", 0, (_represented("v.json", HAD_CHANNEL),),
         writes=(_combined("c.json", 2, 2, _coefficients(HAD_CHANNEL)),)),
    Case("represent identity", "represent id.json --output v.json", 0, (IDENTITY,), _represent(13, r"1\.0"),
         (_represented("v.json", partial(unitary_channel, np.eye(2))),)),
    Case("represent schur", "represent schur.json --output v.json", 0, (SCHUR,), _represent(73),
         (_represented("v.json", partial(schur_channel, CORRELATION_2DP)),)),
    Case("check hadamard", "check had.json", 0, (HAD,), _check("true", "true")),
    Case("roundtrip hadamard", "roundtrip had.json", 0, (HAD,), (AT_MOST_1E_12,)),
    Case("check schur", "check schur.json --tol 1e-6", 0, (SCHUR,), _check("true", "true")),
    Case("roundtrip schur", "roundtrip schur.json", 0, (SCHUR,), (AT_MOST_1E_12,)),
    Case("random 2x3 seed 7", "random --dx 2 --dy 3 --rank 2 --seed 7 --output out.json", 0,
         writes=(_channel("out.json", SEED_7),)),
    # c0 = sqrt(dx/dy) = 0.816496580927726...
    Case("represent 2x3 seed 7", "represent r.json --output v.json", 0, (_channel("r.json", SEED_7),),
         _represent(33, r"0\.81649658092772\d*"), (_represented("v.json", SEED_7),)),
    Case("check 2x3 seed 7", "check r.json", 0, (_channel("r.json", SEED_7),), _check("true", "true")),
    Case("check not cp 1x2", "check not_cp.json", 1,
         (_choi_json("not_cp.json", 1, 2, [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]),), _check("false", "false")),
    Case("check not cp diagonal", "check in.json", 1,
         (_matrix("in.json", "choi", 2, 2, lambda: np.diag([1.0, -1.0, 1.0, 1.0])),),
         _check("false", "false")),
    # s = 0: the zero matrix is in S, PSD and Hermitian, and round-trips with
    # error exactly 0; it is not TP.
    Case("check zero", "check zero.json", 1, (ZERO,), _check("true", "false")),
    Case("roundtrip zero", "roundtrip zero.json", 0, (ZERO,), (r"0\.0000000000000000e\+00",)),
    # Outside S: exit 3.
    Case("represent outside s 2x1", "represent outside_s.json --output x.json", 3,
         (_choi_json("outside_s.json", 2, 1, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]),), errors=_not_in_s(1.0)),
    Case("represent outside s 2x2", "represent in.json --output out.json", 3, (OUTSIDE_S,),
         errors=_not_in_s(4.0)),
    Case("roundtrip outside s 2x2", "roundtrip in.json", 3, (OUTSIDE_S,), errors=_not_in_s(4.0)),
    # check --tol is relative to ||J||_F, so CP and HP hold at 1e8; TP does not.
    Case("check scaled", "check scaled.json", 1, (_matrix("scaled.json", "choi", 2, 2, _scaled),),
         _check("true", "false")),
    # Below ||J||_F = 1 too: 1e-12 * diag(1, -1) is not CP.
    Case("check tiny", "check tiny.json", 1,
         (_choi_json("tiny.json", 1, 2, [[[1e-12, 0], [0, 0]], [[0, 0], [-1e-12, 0]]]),),
         _check("false", "false")),
    # Entries of about 1e-170 square to 0: ||J||_F and the residual bound are
    # summed again, scaled, so a channel still round-trips and is CP, and
    # diag(1, 0) is still outside S.
    Case("roundtrip underflow", "roundtrip underflow.json", 0, (UNDERFLOW,), (AT_MOST_1E_12,)),
    Case("check underflow", "check underflow.json", 1, (UNDERFLOW,), _check("true", "false")),
    Case("represent underflow outside s", "represent underflow_outside_s.json --output x.json", 3,
         (_choi_json("underflow_outside_s.json", 2, 1, [[[1e-170, 0], [0, 0]], [[0, 0], [0, 0]]]),),
         errors=_not_in_s(1e-170)),
    # The labeled basis dump.  The 1x1 dump is the README's example, byte for byte.
    Case("basis 1x1", "basis --dx 1 --dy 1 --output b.json", 0, (), ("dim_s 1",),
         (_text("b.json", '{"dx": 1, "dy": 1, "dim_s": 1, "elements": [{"label": ["identity"], '
                          '"matrix": [[[1.0, 0.0]]]}]}\n'),)),
]

# Vectors that combine writes as the library does.
CASES += [Case(f"combine {label}", "combine v.json --output out.json", 0, (_vector("v.json", 2, 2, values),),
               writes=(_combined("out.json", 2, 2, values),))
          for label, values in [("2x2 linspace", lambda: np.linspace(-1.0, 1.0, 13)),
                                ("zero", lambda: np.zeros(13)), ("first unit vector", lambda: np.eye(13)[0])]]
CASES += [Case(f"basis {dx}x{dy}", f"basis --dx {dx} --dy {dy} --output b.json", 0, (),
               (f"dim_s {subspace_dimension(dx, dy)}",),
               (partial(save_basis_file, "b.json", channel_basis(dx, dy)),)) for dx, dy in [(2, 2), (2, 3)]]

# Refused input: exit 2, with one error line, here (label, argv, inputs, error).
CASES += [Case(label, argv, 2, inputs, errors=(error,)) for label, argv, inputs, error in [
    ("represent malformed", "represent malformed.json --output x.json",
     (_text("malformed.json", '{"kind": "choi", "dx": 2\n'),),
     _error("cannot read matrix file malformed.json: ", ".+")),
    ("represent broken json", "represent in.json --output out.json", (BROKEN,), CANNOT_READ),
    ("check broken json", "check in.json", (BROKEN,), CANNOT_READ),
    ("roundtrip broken json", "roundtrip in.json", (BROKEN,), CANNOT_READ),
    ("random negative seed", "random --dx 2 --dy 2 --rank 2 --seed -1 --output x.json", (),
     _error("seed must be an integer >= 0, got -1")),
    ("random invalid rank", "random --dx 4 --dy 1 --rank 2 --seed 0 --output r.json", (),
     _error("kraus_rank 2 is too small: a trace-preserving map needs kraus_rank*dy >= dx (got 2*1 < 4)")),
    ("basis dx 0", "basis --dx 0 --dy 2 --output b.json", (),
     _error("dimensions must be positive integers, got (0, 2)")),
    # Data that is not nested exactly as its kind needs, or holds a leaf that
    # is not a JSON number, is refused by the decoder.
    ("represent bool kraus", "represent bool_kraus.json --output x.json",
     (_json("bool_kraus.json", {"kind": "kraus", "dx": 1, "dy": 1, "data": [[[[True, 0]]]]}),),
     _error("bool_kraus.json: data must contain only numbers")),
    ("check ragged", "check ragged.json", (_choi_json("ragged.json", 1, 2, [[[1, 0]], [[1, 0], [0, 0]]]),),
     _error("ragged.json: data must be a nonempty list of rows of [re, im] pairs")),
    ("combine nested values", "combine nested_v.json --output x.json",
     (_json("nested_v.json", {"dx": 1, "dy": 1, "values": [[1.0]]}),),
     _error("nested_v.json: values must be a list of numbers")),
    ("combine length mismatch", "combine v.json --output j.json",
     (_json("v.json", {"dx": 2, "dy": 2, "values": [0.0] * 12}),),
     _error("v.json: expected 13 values for dims (2, 2), got 12")),
    ("combine bool vector", "combine v.json --output j.json",
     (_json("v.json", {"dx": True, "dy": True, "values": [True]}),),
     _error("v.json: dx/dy must be positive integers")),
    # Entries of 1e200 are finite, but ||J||_F overflows: refused, not
    # accepted.  So is 1.5e308, where m + m^dag would overflow too.
    ("represent overflowing norm", "represent huge.json --output v.json", (HUGE,), INFINITE_NORM),
    ("roundtrip overflowing norm", "roundtrip huge.json", (HUGE,), INFINITE_NORM),
    ("check overflowing norm", "check huge.json",
     (_matrix("huge.json", "choi", 2, 2, lambda: 1.5e308 * unitary_channel(np.eye(2)).matrix),),
     INFINITE_NORM),
    # --tol 1e300 is finite, but tol * s with s = 1e10 is not: the message
    # names the user's --tol and s, not the product.
    ("check tol times scale overflow", "check big.json --tol 1e300",
     (_choi_json("big.json", 1, 1, [[[1e10, 0]]]),),
     _error("--tol 1e+300 times s = ||J||_F = 10000000000.0 overflows")),
    # Sizes above the 4 GiB limit are refused before anything is allocated,
    # and so are dims whose size in GiB is beyond float range.
    ("random above size limit", "random --dx 1000 --dy 1000 --rank 1 --seed 1 --output x.json", (),
     _error("dims (1000, 1000): the 1000000x1000000 Choi matrix would take about 14,901.2 GiB, "
            "above the size limit of 4 GiB")),
    ("basis above size limit", "basis --dx 100 --dy 100 --output b.json", (),
     _error("dims (100, 100): the basis dump of 99990001 10000x10000 elements would take about "
            "1,862,458,903.3 GiB, above the size limit of 4 GiB")),
    ("check huge dims", "check huge.json", (_choi_json("huge.json", 10**400, 1, [[[1, 0]]]),),
     _error(f"huge.json: dims ({10**400}, 1): the {10**400}x{10**400} Choi matrix would take "
            "at least 2^2631 GiB, above the size limit of 4 GiB")),
]]
# An output that cannot be written.
CASES += [Case(f"{argv.split()[0]} to missing dir", f"{argv} --output missing/out.json", 2, inputs,
               errors=(CANNOT_WRITE,))
          for argv, inputs in [("represent r.json", (R,)), ("combine v.json", (V,)),
                               ("random --dx 2 --dy 2 --rank 1 --seed 0", ()), ("basis --dx 2 --dy 2", ())]]
# File contents the loaders refuse, and the error line of each.
CASES += [Case(f"{command} {name}", f"{command} bad.json" + " --output out.json" * (command != "check"), 2,
               (_text("bad.json", MALFORMED_FILES[name]),), errors=(error,))
          for command, name, error in [
              ("represent", "huge matrix entry", _error("bad.json: non-finite data")),
              ("check", "huge matrix entry", _error("bad.json: non-finite data")),
              ("combine", "huge vector value", _error("bad.json: non-finite values")),
              ("combine", "overflowing coefficients", _error("Choi matrix contains non-finite entries")),
              ("represent", "not utf-8", _error("cannot read matrix file bad.json: ", ".+")),
              ("combine", "not utf-8", _error("cannot read vector file bad.json: ", ".+")),
              ("check", "deep nesting", _error("cannot read matrix file bad.json: ", ".+"))]]


def _every_subcommand(dx: int, dy: int, rank: int) -> list:
    size, channel = f"{dx}x{dy}", partial(random_channel, dx, dy, rank, seed=1)
    big_r, big_v = _channel("big_r.json", channel), _represented("big_v.json", channel)
    return [
        Case(f"random {size}", f"random --dx {dx} --dy {dy} --rank {rank} --seed 1 "
             "--output big_r.json", 0, writes=(big_r,)),
        Case(f"represent {size}", "represent big_r.json --output big_v.json", 0, (big_r,),
             _represent(subspace_dimension(dx, dy)), (big_v,)),
        Case(f"combine {size}", "combine big_v.json --output big_c.json", 0, (big_v,),
             writes=(_combined("big_c.json", dx, dy, _coefficients(channel)),)),
        Case(f"roundtrip {size}", "roundtrip big_r.json", 0, (big_r,), (AT_MOST_1E_12,)),
    ]


# Trivial input or output factor, and a size where every pair block is read
# and written whole: each subcommand exits 0.
CASES += [case for size in [(1, 3, 1), (3, 1, 3), (16, 16, 2)] for case in _every_subcommand(*size)]


def _match(patterns, text: str) -> None:
    """Each line of ``text`` fullmatches its pattern, one for one, in order."""
    lines = text.splitlines()
    assert len(lines) == len(patterns) and all(map(re.fullmatch, patterns, lines)), (patterns, lines)


@pytest.mark.parametrize("case", CASES, ids=[case.label for case in CASES])
def test_console_case(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for write in case.inputs:
        write()
    argv = case.argv.split()
    console = run_console(argv, tmp_path)
    code, stdout, stderr, written = console

    # The console script goes through entry_point; it must behave as main().
    for name in written:
        (tmp_path / name).unlink()
    code_main, files_main = written_by(lambda: main(argv), tmp_path)
    captured = capsys.readouterr()
    assert (code_main, captured.out, captured.err, files_main) == console, "console != main()"

    assert code == case.code, stderr
    _match(case.lines, stdout)
    _match(case.errors, stderr)
    # Exactly one error line on exit 2 or 3, and then nothing on stdout and no file.
    assert sum(line.startswith("error: ") for line in stderr.splitlines()) == (code >= 2)
    assert not (code >= 2 and (stdout or written))

    (tmp_path / "expected").mkdir()
    monkeypatch.chdir(tmp_path / "expected")
    _, expected = written_by(lambda: [write() for write in case.writes], tmp_path / "expected")
    assert written == expected, "the files differ from what the table builds"


@pytest.mark.parametrize("label", ["represent 2x2", "check not cp 1x2", "random negative seed",
                                   "represent outside s 2x2"])
def test_a_forked_call_gives_what_a_fresh_interpreter_gives(label, tmp_path, monkeypatch):
    (case,) = (case for case in CASES if case.label == label)
    monkeypatch.chdir(tmp_path)
    for write in case.inputs:
        write()
    fresh = fresh_console(case.argv.split(), tmp_path)
    for name in fresh[3]:
        (tmp_path / name).unlink()
    assert run_console(case.argv.split(), tmp_path) == fresh and fresh[0] == case.code


def test_the_server_has_imported_what_a_fresh_console_call_has(tmp_path):
    # A copy of the package whose console script prints the loaded modules.
    # An extra numpy.ma (which numpy 2 does not import) would change how
    # linalg._numbers reads arrays.
    src = tmp_path / "src"
    shutil.copytree(pathlib.Path(channelrep.__file__).parent, src / "channelrep",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (src / "channelrep" / "__main__.py").write_text(
        "import sys\n\nfrom .cli import entry_point\n\nprint(*sorted(sys.modules))\n")
    code, modules, stderr, _ = run_console([], tmp_path, src)
    assert (code, stderr) == (0, "")
    assert modules == fresh_console([], tmp_path, src)[1]
    assert not {"pytest", "hypothesis"} & set(modules.split())


def test_a_closed_or_dead_server_leaves_no_process(tmp_path):
    argv = ["basis", "--dx", "1", "--dy", "1", "--output", "b.json"]
    server = ConsoleServer()
    assert server.call(argv, tmp_path) == (0, "dim_s 1\n", "")
    server.close()  # EOF of its requests: it exits, and is reaped
    assert server.proc.returncode == 0 and server.proc.stdin.closed and server.proc.stdout.closed
    # A server that dies between two calls fails the next call with its stderr.
    server = ConsoleServer()
    assert server.call(argv, tmp_path)[0] == 0
    server.proc.stdin.write(b"not a request\n")
    with pytest.raises(RuntimeError, match="exited with 1: Traceback(.|\n)*JSONDecodeError"):
        server.call(argv, tmp_path)
    assert server.proc.stdin.closed


def test_import_in_a_fresh_interpreter():
    proc = subprocess.run([sys.executable, "-c", "import channelrep"], capture_output=True,
                          text=True, env=console_env())
    assert (proc.returncode, proc.stderr) == (0, "")


def test_non_numbers_are_refused_and_a_refused_write_leaves_no_file(tmp_path):
    with pytest.raises(ValidationError):
        CoefficientVector(1, 1, [True])
    with pytest.raises(FileFormatError):
        save_vector_file(tmp_path / "b.json", 1, 1, [True])
    assert not (tmp_path / "b.json").exists()


def test_star_import_exports_each_module():
    namespace = {}
    exec("from channelrep import *", namespace)
    assert {"represent", "combine", "ChannelRepError"} <= namespace.keys()
