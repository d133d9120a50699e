import json
import subprocess
import sys

import numpy as np
import pytest

from channelrep import kron
from channelrep.cli import _build_parser, main
from channelrep.fileio import load_matrix_file, load_vector_file, save_matrix_file, save_vector_file

from fixtures import (
    CORRELATION_2DP,
    HADAMARD,
    HADAMARD_CHOI,
    HADAMARD_COEFF_MULTISET,
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


def test_console_invocation(tmp_path):
    inp = _hadamard_file(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "channelrep", "roundtrip", str(inp)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) <= 1e-12
