import gc
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import channelrep
from channelrep import kron, unitary_channel
from channelrep.cli import _build_parser, main
from channelrep.fileio import load_matrix_file, load_vector_file, save_matrix_file, save_vector_file

from fixtures import (
    CORRELATION_2DP,
    HADAMARD,
    HADAMARD_CHOI,
    HADAMARD_COEFF_MULTISET,
    MALFORMED_FILES,
    multiset_dev,
)


def _hadamard_file(tmp_path):
    path = tmp_path / "had.json"
    save_matrix_file(path, "unitary", 2, 2, HADAMARD)
    return path


def test_represent_hadamard(tmp_path, capsys):
    inp = _hadamard_file(tmp_path)
    out = tmp_path / "v.json"
    assert main(["represent", str(inp), "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "dim_s 13" in stdout
    vf = load_vector_file(out)
    assert len(vf.values) == 13
    assert multiset_dev(vf.values, HADAMARD_COEFF_MULTISET) <= 1e-4


def test_represent_identity_choi(tmp_path, capsys):
    j = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for k in range(2):
            j[i * 2 + i, k * 2 + k] = 1.0
    inp = tmp_path / "id.json"
    save_matrix_file(inp, "choi", 2, 2, j)
    out = tmp_path / "v.json"
    assert main(["represent", str(inp), "--output", str(out)]) == 0
    vf = load_vector_file(out)
    assert vf.values[0] == pytest.approx(1.0, abs=1e-12)


def test_represent_schur(tmp_path):
    inp = tmp_path / "schur.json"
    save_matrix_file(inp, "correlation", 3, 3, CORRELATION_2DP)
    out = tmp_path / "v.json"
    assert main(["represent", str(inp), "--output", str(out)]) == 0
    vf = load_vector_file(out)
    assert len(vf.values) == 73
    assert int(np.sum(np.abs(vf.values) > 1e-9)) == 12


def test_represent_then_combine_recovers_choi(tmp_path):
    inp = _hadamard_file(tmp_path)
    vec = tmp_path / "v.json"
    rec = tmp_path / "rec.json"
    assert main(["represent", str(inp), "--output", str(vec)]) == 0
    assert main(["combine", str(vec), "--output", str(rec)]) == 0
    back = load_matrix_file(rec)
    assert back.kind == "choi"
    assert np.abs(back.data - HADAMARD_CHOI).max() <= 1e-12


def test_combine_zero_vector(tmp_path):
    vec = tmp_path / "v.json"
    save_vector_file(vec, 2, 2, np.zeros(13))
    out = tmp_path / "j.json"
    assert main(["combine", str(vec), "--output", str(out)]) == 0
    assert np.abs(load_matrix_file(out).data).max() == 0.0


def test_combine_first_unit_vector(tmp_path):
    vec = tmp_path / "v.json"
    e0 = np.zeros(13)
    e0[0] = 1.0
    save_vector_file(vec, 2, 2, e0)
    out = tmp_path / "j.json"
    assert main(["combine", str(vec), "--output", str(out)]) == 0
    assert np.abs(load_matrix_file(out).data - np.eye(4) / 2).max() <= 1e-15


def test_combine_length_mismatch_exit_2(tmp_path):
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"dx": 2, "dy": 2, "values": [0.0] * 12}))
    assert main(["combine", str(vec), "--output", str(tmp_path / "j.json")]) == 2


def test_combine_bool_vector_exit_2(tmp_path, capsys):
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"dx": True, "dy": True, "values": [True]}))
    out = tmp_path / "j.json"
    assert main(["combine", str(vec), "--output", str(out)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_check_hadamard(tmp_path, capsys):
    inp = _hadamard_file(tmp_path)
    assert main(["check", str(inp)]) == 0
    stdout = capsys.readouterr().out
    assert "cp true" in stdout
    assert "tp true" in stdout
    assert "hp true" in stdout
    assert "pairing" in stdout
    assert "min_eigenvalue" in stdout
    assert "trace" in stdout


def test_check_non_cp_exit_1(tmp_path, capsys):
    inp = tmp_path / "bad.json"
    save_matrix_file(inp, "choi", 2, 2, np.diag([1.0, -1.0, 1.0, 1.0]))
    assert main(["check", str(inp)]) == 1
    assert "cp false" in capsys.readouterr().out


def test_check_schur(tmp_path, capsys):
    inp = tmp_path / "schur.json"
    save_matrix_file(inp, "correlation", 3, 3, CORRELATION_2DP)
    assert main(["check", str(inp), "--tol", "1e-6"]) == 0
    stdout = capsys.readouterr().out
    assert "cp true" in stdout
    assert "tp true" in stdout


def test_roundtrip_hadamard(tmp_path, capsys):
    inp = _hadamard_file(tmp_path)
    assert main(["roundtrip", str(inp)]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed <= 1e-12


def test_roundtrip_schur(tmp_path, capsys):
    inp = tmp_path / "schur.json"
    save_matrix_file(inp, "correlation", 3, 3, CORRELATION_2DP)
    assert main(["roundtrip", str(inp)]) == 0
    assert float(capsys.readouterr().out.strip()) <= 1e-12


def test_roundtrip_not_in_subspace_exit_3(tmp_path, capsys):
    j = kron(np.eye(2), np.diag([1.0, -1.0]))
    inp = tmp_path / "perp.json"
    save_matrix_file(inp, "choi", 2, 2, j)
    assert main(["roundtrip", str(inp)]) == 3
    err = capsys.readouterr().err
    assert "residual_trace_norm" in err


def test_represent_not_in_subspace_exit_3(tmp_path):
    j = kron(np.eye(2), np.diag([1.0, -1.0]))
    inp = tmp_path / "perp.json"
    save_matrix_file(inp, "choi", 2, 2, j)
    assert main(["represent", str(inp), "--output", str(tmp_path / "v.json")]) == 3


@pytest.mark.parametrize("command", ["represent", "roundtrip"])
def test_overflowing_norm_exit_2(tmp_path, capsys, command):
    # Entries of 1e200 are finite, but ||J||_F overflows: refused, not accepted.
    inp = tmp_path / "huge.json"
    save_matrix_file(inp, "choi", 2, 2, 1e200 * kron(np.eye(2), np.diag([1.0, -1.0])))
    args = [command, str(inp)] + (["--output", str(tmp_path / "v.json")] if command == "represent" else [])
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "non-finite Frobenius norm" in captured.err
    assert not (tmp_path / "v.json").exists()


def test_check_overflowing_norm_exit_2(tmp_path, capsys):
    # Finite entries of 1.5e308: m + m^dag would overflow, and so does ||J||_F.
    inp = tmp_path / "huge.json"
    save_matrix_file(inp, "choi", 2, 2, 1.5e308 * unitary_channel(np.eye(2)).matrix)
    assert main(["check", str(inp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: matrix has a non-finite Frobenius norm (inf)" in captured.err


def test_parse_failure_exit_2(tmp_path, capsys):
    inp = tmp_path / "garbage.json"
    inp.write_text("{broken")
    assert main(["represent", str(inp), "--output", str(tmp_path / "v.json")]) == 2
    assert main(["check", str(inp)]) == 2
    assert main(["roundtrip", str(inp)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "dx,dy,expected_len", [(2, 2, 13), (1, 1, 1), (2, 3, 33)]
)
def test_basis_dump(tmp_path, dx, dy, expected_len):
    out = tmp_path / "basis.json"
    assert main(["basis", "--dx", str(dx), "--dy", str(dy), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim_s"] == expected_len
    assert len(doc["elements"]) == expected_len
    first = np.array(
        [[complex(re, im) for re, im in row] for row in doc["elements"][0]["matrix"]]
    )
    n = dx * dy
    assert np.abs(first - np.eye(n) / np.sqrt(n)).max() <= 1e-15
    assert doc["elements"][0]["label"] == ["identity"]


def test_basis_invalid_dims_exit_2(tmp_path, capsys):
    assert main(["basis", "--dx", "0", "--dy", "2", "--output", str(tmp_path / "b.json")]) == 2
    capsys.readouterr()


def test_random_deterministic_and_valid(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["random", "--dx", "2", "--dy", "3", "--rank", "2", "--seed", "7"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    assert main(["check", str(out1)]) == 0

    vec = tmp_path / "v.json"
    assert main(["represent", str(out1), "--output", str(vec)]) == 0
    vf = load_vector_file(vec)
    assert abs(vf.values[0] - np.sqrt(2 / 3)) <= 1e-10
    capsys.readouterr()


def test_random_invalid_rank_exit_2(tmp_path, capsys):
    code = main(
        ["random", "--dx", "4", "--dy", "1", "--rank", "2", "--seed", "0",
         "--output", str(tmp_path / "r.json")]
    )
    assert code == 2
    capsys.readouterr()


def _write_argv(tmp_path, command, out):
    """argv of ``command`` writing its result to ``out``."""
    if command == "represent":
        return ["represent", str(_hadamard_file(tmp_path)), "--output", out]
    if command == "combine":
        vec = tmp_path / "v.json"
        save_vector_file(vec, 2, 2, np.zeros(13))
        return ["combine", str(vec), "--output", out]
    if command == "random":
        return ["random", "--dx", "2", "--dy", "2", "--rank", "1", "--seed", "0", "--output", out]
    return ["basis", "--dx", "2", "--dy", "2", "--output", out]


@pytest.mark.parametrize("command", ["represent", "combine", "random", "basis"])
def test_unwritable_output_exit_2(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "out.json")
    assert main(_write_argv(tmp_path, command, out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "command,flag",
    [("represent", "--membership-tol"), ("roundtrip", "--membership-tol"), ("check", "--tol")],
)
def test_tolerance_flag_rejects_non_finite_or_negative(tmp_path, capsys, command, flag, value):
    j = kron(np.eye(2), np.diag([1.0, -1.0]))  # wholly outside S, and not CP
    inp = tmp_path / "perp.json"
    save_matrix_file(inp, "choi", 2, 2, j)
    argv = [command, str(inp), f"{flag}={value}"]
    if command == "represent":
        argv += ["--output", str(tmp_path / "v.json")]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert f"expected a finite number >= 0, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_tolerance_flags_accept_zero():
    parser = _build_parser()
    assert parser.parse_args(["check", "in.json", "--tol", "0"]).tol == 0.0
    args = parser.parse_args(["roundtrip", "in.json", "--membership-tol", "0"])
    assert args.membership_tol == 0.0


def _console_env():
    """The environment of this process, with this channelrep importable first."""
    env = dict(os.environ)
    src = str(pathlib.Path(channelrep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_invocation(tmp_path):
    inp = _hadamard_file(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "channelrep", "roundtrip", str(inp)],
        capture_output=True,
        text=True,
        env=_console_env(),
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) <= 1e-12


@pytest.mark.parametrize(
    "command,case",
    [
        ("represent", "huge matrix entry"),
        ("check", "huge matrix entry"),
        ("combine", "huge vector value"),
        ("represent", "not utf-8"),
        ("combine", "not utf-8"),
        ("check", "deep nesting"),
    ],
)
def test_malformed_file_exit_2(tmp_path, capsys, command, case):
    inp, out = tmp_path / "bad.json", tmp_path / "out.json"
    inp.write_bytes(MALFORMED_FILES[case])
    argv = [command, str(inp)] + ([] if command == "check" else ["--output", str(out)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def _parity_case(tmp_path, case):
    """(argv, output file or None) of one console-parity case."""
    out = tmp_path / "out.json"
    had = str(_hadamard_file(tmp_path))
    if case == "represent":
        return ["represent", had, "--output", str(out)], out
    if case == "combine":
        vec = tmp_path / "v.json"
        save_vector_file(vec, 2, 2, np.linspace(-1.0, 1.0, 13))
        return ["combine", str(vec), "--output", str(out)], out
    if case in ("check", "roundtrip"):
        return [case, had], None
    if case == "basis":
        return ["basis", "--dx", "2", "--dy", "2", "--output", str(out)], out
    if case == "random":
        return ["random", "--dx", "2", "--dy", "3", "--rank", "2", "--seed", "7",
                "--output", str(out)], out
    inp = tmp_path / "in.json"
    if case == "exit 1":
        save_matrix_file(inp, "choi", 2, 2, np.diag([1.0, -1.0, 1.0, 1.0]))
        return ["check", str(inp)], None
    if case == "exit 2":
        inp.write_text("{broken")
        return ["represent", str(inp), "--output", str(out)], out
    save_matrix_file(inp, "choi", 2, 2, kron(np.eye(2), np.diag([1.0, -1.0])))
    return ["represent", str(inp), "--output", str(out)], out


def _output_bytes(out):
    return out.read_bytes() if out is not None and out.exists() else None


@pytest.mark.parametrize(
    "case,code",
    [("represent", 0), ("combine", 0), ("check", 0), ("roundtrip", 0), ("basis", 0),
     ("random", 0), ("exit 1", 1), ("exit 2", 2), ("exit 3", 3)],
)
def test_console_matches_main(tmp_path, capsys, case, code):
    # ``python -m channelrep`` goes through entry_point; it must behave as main().
    argv, out = _parity_case(tmp_path, case)
    proc = subprocess.run([sys.executable, "-m", "channelrep", *argv], capture_output=True,
                          text=True, env=_console_env(), cwd=tmp_path)
    console_file = _output_bytes(out)
    if console_file is not None:
        out.unlink()
    assert main(argv) == proc.returncode == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (proc.stdout, proc.stderr)
    assert _output_bytes(out) == console_file


def test_only_entry_point_freezes_the_heap(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert main(["check", str(_hadamard_file(tmp_path))]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()
    # In a fresh interpreter importing the package freezes nothing; the
    # console entry point does, and atexit handlers still run after main().
    script = (
        "import atexit, gc, sys\n"
        "before = gc.get_freeze_count()\n"
        "import channelrep, channelrep.cli\n"
        "print('import froze', gc.get_freeze_count() != before)\n"
        "atexit.register(lambda: print('entry point froze', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['channelrep', 'check', sys.argv[1]]\n"
        "channelrep.cli.entry_point()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "had.json")],
                          capture_output=True, text=True, env=_console_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import froze False"
    assert lines[1] == "cp true"
    assert lines[-1] == "entry point froze True"
