"""Every console-script case in one table, run through ``python -m channelrep``.

Each row writes its inputs into a fresh directory, runs the console script
there and checks its exit code, the stdout lines it names and stderr (no
traceback; exactly one ``error:`` line on exit 2 or 3).  It then deletes what
the call wrote and runs ``cli.main`` in process on the same argv, which must
give the same code, stdout, stderr and output bytes.  Last, the files the
row's ``writes`` build must equal what the call wrote, byte for byte.

The module needs nothing from ``conftest.py``: the subprocess runs whichever
``channelrep`` this module imported.  To check an installed package, run it
from outside the checkout, so that ``src`` is not on the path:

    python -m pytest -q --noconftest /path/to/checkout/tests/test_console_cases.py
"""

import json
import pathlib
import re
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

from channelrep import (
    CoefficientVector,
    FileFormatError,
    ValidationError,
    channel_basis,
    kron,
    random_channel,
    represent,
    subspace_dimension,
)
from channelrep.cli import main
from channelrep.fileio import save_matrix_file, save_vector_file

from fixtures import HADAMARD, console_env, run_console, written_by


# An input builder: a call that writes one file into the current directory.
Writer = Callable[[], None]


def _text(name: str, text: str) -> Writer:
    return lambda: pathlib.Path(name).write_text(text)


def _json(name: str, doc: dict) -> Writer:
    return _text(name, json.dumps(doc))


def _choi_json(name: str, dx: int, dy: int, data: list) -> Writer:
    return _json(name, {"kind": "choi", "dx": dx, "dy": dy, "data": data})


def _matrix(name: str, kind: str, dx: int, dy: int, make: Callable[[], np.ndarray]) -> Writer:
    return lambda: save_matrix_file(name, kind, dx, dy, make())


def _channel(name: str, dx: int, dy: int, rank: int, scale: float = 1.0) -> Writer:
    """What ``channelrep random --seed 1`` writes, times ``scale``."""
    return _matrix(name, "choi", dx, dy, lambda: scale * random_channel(dx, dy, rank, seed=1).matrix)


def _vector(name: str, dx: int, dy: int, make: Callable[[], np.ndarray]) -> Writer:
    return lambda: save_vector_file(name, dx, dy, make())


def _represented(name: str, dx: int, dy: int, rank: int) -> Writer:
    """What ``channelrep represent`` writes for ``_channel(..., dx, dy, rank)``."""
    def values():
        return represent(channel_basis(dx, dy), random_channel(dx, dy, rank, seed=1)).values

    return _vector(name, dx, dy, values)


def _scaled():
    # A channel with its output rotated by U and scaled by 1e8.
    q = np.linalg.qr(np.random.default_rng(13).standard_normal((2, 2)) + 1j)[0]
    u = np.kron(q, np.eye(2))
    return 1e8 * (u @ random_channel(2, 2, 4, seed=14).matrix @ u.conj().T)


R = _channel("r.json", 2, 2, 2)
V = _represented("v.json", 2, 2, 2)
UNDERFLOW = _channel("underflow.json", 2, 2, 2, scale=1e-170)
HAD = _matrix("had.json", "unitary", 2, 2, lambda: HADAMARD)

# A printed trace-norm error of at most 1e-12 (as "%.16e").
AT_MOST_1E_12 = r"\d\.\d{16}e-(1[3-9]|[2-9]\d|\d{3})|0\.0{16}e\+00"


class Case(NamedTuple):
    label: str
    argv: str  # split on spaces
    code: int
    inputs: tuple = ()  # Writers
    lines: tuple = ()  # regular expressions, each matching a whole stdout line (as grep -x)
    writes: tuple = ()  # Writers, each writing the same bytes as the call wrote to its file


CASES = [
    # The inputs the rows below build are what random and represent write.
    Case("random 2x2", "random --dx 2 --dy 2 --rank 2 --seed 1 --output r.json", 0, writes=(R,)),
    Case("roundtrip 2x2", "roundtrip r.json", 0, (R,)),
    Case("represent 2x2", "represent r.json --output v.json", 0, (R,), ("dim_s 13",), (V,)),
    Case("combine 2x2", "combine v.json --output c.json", 0, (V,)),
    Case("represent hadamard", "represent had.json --output out.json", 0, (HAD,), ("dim_s 13",)),
    Case("combine 2x2 linspace", "combine v.json --output out.json", 0,
         (_vector("v.json", 2, 2, lambda: np.linspace(-1.0, 1.0, 13)),)),
    Case("check hadamard", "check had.json", 0, (HAD,), ("cp true", "tp true", "hp true")),
    Case("roundtrip hadamard", "roundtrip had.json", 0, (HAD,), (AT_MOST_1E_12,)),
    Case("random 2x3 seed 7", "random --dx 2 --dy 3 --rank 2 --seed 7 --output out.json", 0),
    Case("check not cp 1x2", "check not_cp.json", 1,
         (_choi_json("not_cp.json", 1, 2, [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]),),
         ("cp false",)),
    Case("check not cp diagonal", "check in.json", 1,
         (_matrix("in.json", "choi", 2, 2, lambda: np.diag([1.0, -1.0, 1.0, 1.0])),), ("cp false",)),
    # Refused input: exit 2.
    Case("represent malformed", "represent malformed.json --output x.json", 2,
         (_text("malformed.json", '{"kind": "choi", "dx": 2\n'),)),
    Case("represent broken json", "represent in.json --output out.json", 2,
         (_text("in.json", "{broken"),)),
    Case("random negative seed", "random --dx 2 --dy 2 --rank 2 --seed -1 --output x.json", 2),
    # Data that is not nested exactly as its kind needs, or holds a leaf that
    # is not a JSON number, is refused by the decoder.
    Case("represent bool kraus", "represent bool_kraus.json --output x.json", 2,
         (_json("bool_kraus.json", {"kind": "kraus", "dx": 1, "dy": 1, "data": [[[[True, 0]]]]}),)),
    Case("check ragged", "check ragged.json", 2,
         (_choi_json("ragged.json", 1, 2, [[[1, 0]], [[1, 0], [0, 0]]]),)),
    Case("combine nested values", "combine nested_v.json --output x.json", 2,
         (_json("nested_v.json", {"dx": 1, "dy": 1, "values": [[1.0]]}),)),
    Case("represent to missing dir", "represent r.json --output missing/v.json", 2, (R,)),
    # Outside S: exit 3.
    Case("represent outside s 2x1", "represent outside_s.json --output x.json", 3,
         (_choi_json("outside_s.json", 2, 1, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]),)),
    Case("represent outside s 2x2", "represent in.json --output out.json", 3,
         (_matrix("in.json", "choi", 2, 2, lambda: kron(np.eye(2), np.diag([1.0, -1.0]))),)),
    # check --tol is relative to ||J||_F, so CP and HP hold at 1e8; TP does not.
    Case("check scaled", "check scaled.json", 1, (_matrix("scaled.json", "choi", 2, 2, _scaled),),
         ("cp true", "tp false", "hp true")),
    # Below ||J||_F = 1 too: 1e-12 * diag(1, -1) is not CP.
    Case("check tiny", "check tiny.json", 1,
         (_choi_json("tiny.json", 1, 2, [[[1e-12, 0], [0, 0]], [[0, 0], [-1e-12, 0]]]),),
         ("cp false",)),
    # Entries of about 1e-170 square to 0: ||J||_F and the residual bound are
    # summed again, scaled, so a channel still round-trips and is CP, and
    # diag(1, 0) is still outside S.
    Case("roundtrip underflow", "roundtrip underflow.json", 0, (UNDERFLOW,)),
    Case("check underflow", "check underflow.json", 1, (UNDERFLOW,), ("cp true",)),
    Case("represent underflow outside s", "represent underflow_outside_s.json --output x.json", 3,
         (_choi_json("underflow_outside_s.json", 2, 1, [[[1e-170, 0], [0, 0]], [[0, 0], [0, 0]]]),)),
    # The labeled basis dump: 13 elements at 2x2; dims below 1 exit 2.  The
    # 1x1 dump is the README's example, byte for byte.
    Case("basis 1x1", "basis --dx 1 --dy 1 --output b.json", 0, (), ("dim_s 1",),
         (_text("b.json", '{"dx": 1, "dy": 1, "dim_s": 1, "elements": [{"label": ["identity"], '
                          '"matrix": [[[1.0, 0.0]]]}]}\n'),)),
    Case("basis 2x2", "basis --dx 2 --dy 2 --output b.json", 0, (), ("dim_s 13",)),
    Case("basis dx 0", "basis --dx 0 --dy 2 --output b.json", 2),
    # Sizes above the 4 GiB limit are refused before anything is allocated,
    # and so are dims whose size in GiB is beyond float range.
    Case("random above size limit", "random --dx 1000 --dy 1000 --rank 1 --seed 1 --output x.json", 2),
    Case("basis above size limit", "basis --dx 100 --dy 100 --output b.json", 2),
    Case("check huge dims", "check huge.json", 2,
         (_text("huge.json", '{"kind": "choi", "dx": 1' + "0" * 400 + ', "dy": 1, '
                             '"data": [[[1, 0]]]}'),)),
]


def _every_subcommand(dx: int, dy: int, rank: int) -> list:
    size, big_r = f"{dx}x{dy}", _channel("big_r.json", dx, dy, rank)
    big_v = _represented("big_v.json", dx, dy, rank)
    return [
        Case(f"random {size}", f"random --dx {dx} --dy {dy} --rank {rank} --seed 1 "
             "--output big_r.json", 0, writes=(big_r,)),
        Case(f"represent {size}", "represent big_r.json --output big_v.json", 0, (big_r,),
             (f"dim_s {subspace_dimension(dx, dy)}",), (big_v,)),
        Case(f"combine {size}", "combine big_v.json --output big_c.json", 0, (big_v,)),
        Case(f"roundtrip {size}", "roundtrip big_r.json", 0, (big_r,)),
    ]


# Trivial input or output factor, and a size where every pair block is read
# and written whole: each subcommand exits 0.
CASES += [case for size in [(1, 3, 1), (3, 1, 3), (16, 16, 2)] for case in _every_subcommand(*size)]


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
    lines = stdout.splitlines()
    for pattern in case.lines:
        assert any(re.fullmatch(pattern, line) for line in lines), (pattern, lines)
    assert "Traceback" not in stderr
    errors = [line for line in stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == (case.code >= 2), stderr

    (tmp_path / "expected").mkdir()
    monkeypatch.chdir(tmp_path / "expected")
    _, expected = written_by(lambda: [write() for write in case.writes], tmp_path / "expected")
    for name, data in expected.items():
        assert written[name] == data, f"{name} differs from what the table builds"


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
