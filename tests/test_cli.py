import collections
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelrep import (
    HERMITICITY_TOL,
    CoefficientVector,
    channel_basis,
    combine,
    hermiticity_defect,
    is_trace_preserving,
    kron,
    min_eigenvalue_hermitian,
    random_channel,
    subspace_dimension,
    unitary_channel,
)
from channelrep.cli import _build_parser, main
from channelrep.fileio import (
    load_matrix_file,
    load_vector_file,
    matrix_file_to_choi,
    save_matrix_file,
    save_vector_file,
)
from channelrep.linalg import _Hermitian, is_positive_semidefinite

from fixtures import (
    CORRELATION_2DP,
    HADAMARD,
    HADAMARD_CHOI,
    HADAMARD_COEFF_MULTISET,
    MALFORMED_FILES,
    console_env,
    multiset_dev,
    rand_complex,
    rand_hermitian,
    rand_unitary,
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


def test_combine_builds_one_coefficient_vector(tmp_path, monkeypatch):
    # The loader's vector is the one combine reads: no second one is checked.
    vec, out = tmp_path / "v.json", tmp_path / "j.json"
    save_vector_file(vec, 2, 3, np.linspace(-1.0, 1.0, subspace_dimension(2, 3)))

    def forbidden(self):
        raise AssertionError("a second CoefficientVector was built")

    monkeypatch.setattr(CoefficientVector, "__post_init__", forbidden)
    assert main(["combine", str(vec), "--output", str(out)]) == 0


@pytest.mark.parametrize("dx,dy,seed", [(1, 1, 0), (1, 3, 1), (3, 1, 2), (2, 3, 3), (4, 4, 4)])
def test_combine_writes_what_the_library_writes(tmp_path, dx, dy, seed):
    # The bytes of combining the vector's numbers as a plain array.
    rng = np.random.default_rng(seed)
    n = subspace_dimension(dx, dy)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-200, 200, n)
    values[rng.random(n) < 0.2] = -0.0
    vec, out, want = tmp_path / "v.json", tmp_path / "j.json", tmp_path / "want.json"
    save_vector_file(vec, dx, dy, values)
    j = combine(channel_basis(dx, dy), json.loads(vec.read_text())["values"])
    save_matrix_file(want, "choi", dx, dy, j.matrix)
    assert main(["combine", str(vec), "--output", str(out)]) == 0
    assert out.read_bytes() == want.read_bytes()


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


def test_check_schur(tmp_path, capsys):
    inp = tmp_path / "schur.json"
    save_matrix_file(inp, "correlation", 3, 3, CORRELATION_2DP)
    assert main(["check", str(inp), "--tol", "1e-6"]) == 0
    stdout = capsys.readouterr().out
    assert "cp true" in stdout
    assert "tp true" in stdout


def test_roundtrip_schur(tmp_path, capsys):
    inp = tmp_path / "schur.json"
    save_matrix_file(inp, "correlation", 3, 3, CORRELATION_2DP)
    assert main(["roundtrip", str(inp)]) == 0
    assert float(capsys.readouterr().out.strip()) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
def test_roundtrip_verdict_does_not_depend_on_units(tmp_path, capsys, scale):
    # A full-rank channel with its output rotated by U is Hermitian only to
    # rounding, so its round trip is off by about n * eps * ||J||; an
    # anti-Hermitian part of 1e-11 * ||J|| fails at every scale.
    rng = np.random.default_rng(13)
    u = np.kron(rand_unitary(rng, 2), np.eye(2))
    j = u @ random_channel(2, 2, 4, seed=14).matrix @ u.conj().T
    skew = rand_complex(rng, (4, 4))
    skew -= skew.conj().T
    inp = tmp_path / "j.json"
    for m, code in ((j, 0), (j + 1e-11 * skew / np.abs(skew).max(), 1)):
        save_matrix_file(inp, "choi", 2, 2, scale * m)
        assert main(["roundtrip", str(inp)]) == code
        assert float(capsys.readouterr().out) >= 0.0


def test_check_verdicts_do_not_depend_on_units(tmp_path, capsys):
    # The CP and HP lines of a channel and of the (not CP) transpose map,
    # both with their output rotated by U, so Hermitian only to rounding.
    # Absolute tolerances printed "cp false" and "hp false" for the channel
    # at 1e8.  TP is excepted: a scaled channel is not TP.
    rng = np.random.default_rng(13)
    u = np.kron(rand_unitary(rng, 2), np.eye(2))
    swap = np.eye(4)[[0, 2, 1, 3]]
    inp = tmp_path / "j.json"
    for j, want in ((random_channel(2, 2, 4, seed=14).matrix, "cp true"), (swap, "cp false")):
        lines = set()
        for scale in (1.0, 1e4, 1e8):
            save_matrix_file(inp, "choi", 2, 2, scale * (u @ j @ u.conj().T))
            main(["check", str(inp)])
            lines.add(tuple(capsys.readouterr().out.splitlines()[::2][:2]))
        assert lines == {(want, "hp true")}


@st.composite
def _scaled_inputs(draw):
    """(dx, dy, J, t): a channel, a channel plus a residual outside S, or an
    element of S that is usually not PSD, and a scale t in [1e-300, 1e8]."""
    kind = draw(st.sampled_from(["channel", "outside S", "in S"]))
    dx, dy = draw(st.integers(2 if kind == "outside S" else 1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_channel(dx, dy, dx * dy, seed=int(rng.integers(2**31))).matrix
    if kind == "outside S":
        h = rand_hermitian(rng, dx)
        h -= np.trace(h) / dx * np.eye(dx)
        m = m + 0.3 * kron(np.eye(dy), h / np.linalg.norm(h))
    elif kind == "in S":
        m = combine(channel_basis(dx, dy), rng.standard_normal(subspace_dimension(dx, dy))).matrix
    return dx, dy, m, 10.0 ** draw(st.floats(-300, 8))


def _verdicts(tmp, dx, dy, m) -> tuple:
    """The exit codes of represent and roundtrip on the Choi file of m, and
    the cp and hp lines that check prints for it."""
    inp = os.path.join(tmp, "j.json")
    save_matrix_file(inp, "choi", dx, dy, m)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        represented = main(["represent", inp, "--output", os.path.join(tmp, "v.json")])
        main(["check", inp])
        check_lines = stdout.getvalue().splitlines()
        roundtrip = main(["roundtrip", inp])
    cp, hp = (line for line in check_lines if line.startswith(("cp ", "hp ")))
    return represented, cp, hp, roundtrip


@settings(max_examples=40, deadline=None, database=None)
@given(_scaled_inputs())
def test_verdicts_do_not_depend_on_scale(case):
    # s = ||J||_F with no floor: below ||J||_F = 1 the verdicts of t * J
    # are those of J too.  TP is excepted: a scaled channel is not TP.
    dx, dy, m, t = case
    with tempfile.TemporaryDirectory() as tmp:
        assert _verdicts(tmp, dx, dy, t * m) == _verdicts(tmp, dx, dy, m)


def test_check_judges_a_tiny_matrix_by_its_own_norm(tmp_path, capsys):
    # 1e-12 * diag(1, -1) at dx = 1, dy = 2 is not CP at any scale; a
    # tolerance relative to max(1, ||J||_F) printed "cp true" for it.
    inp = tmp_path / "tiny.json"
    save_matrix_file(inp, "choi", 1, 2, 1e-12 * np.diag([1.0, -1.0]))
    assert main(["check", str(inp)]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == ["cp false", "tp false", "hp true"]


def test_zero_matrix_is_judged_exactly(tmp_path, capsys):
    # s = 0: the zero matrix is in S, is PSD and Hermitian, and round-trips
    # with error exactly 0; it is not TP.
    inp = tmp_path / "zero.json"
    save_matrix_file(inp, "choi", 2, 2, np.zeros((4, 4)))
    assert main(["check", str(inp)]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == ["cp true", "tp false", "hp true"]
    assert main(["roundtrip", str(inp)]) == 0
    assert capsys.readouterr().out == "0.0000000000000000e+00\n"


def test_roundtrip_not_in_subspace_exit_3(tmp_path, capsys):
    j = kron(np.eye(2), np.diag([1.0, -1.0]))
    inp = tmp_path / "perp.json"
    save_matrix_file(inp, "choi", 2, 2, j)
    assert main(["roundtrip", str(inp)]) == 3
    err = capsys.readouterr().err
    assert "residual_trace_norm" in err


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


def test_check_tol_times_scale_overflow_exit_2(tmp_path, capsys):
    # --tol 1e300 is finite, but tol * s with s = 1e10 is not: the message
    # names the user's --tol and s, not the product.
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps({"kind": "choi", "dx": 1, "dy": 1, "data": [[[1e10, 0]]]}))
    assert main(["check", str(inp), "--tol", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tol 1e+300 times s = ||J||_F = 10000000000.0 overflows\n"


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


def test_random_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["random", "--dx", "2", "--dy", "2", "--rank", "2", "--seed", "-1",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command,case",
    [
        ("represent", "huge matrix entry"),
        ("check", "huge matrix entry"),
        ("combine", "huge vector value"),
        ("combine", "overflowing coefficients"),
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
                          capture_output=True, text=True, env=console_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import froze False"
    assert lines[1] == "cp true"
    assert lines[-1] == "entry point froze True"


def test_not_cp_correlation_warns_on_one_stderr_line(tmp_path, capsys):
    # Eigenvalues -0.8, 1.9, 1.9 with unit diagonal: a valid correlation
    # file whose Schur map is not completely positive.
    u = np.ones(3) / np.sqrt(3)
    inp = tmp_path / "corr.json"
    save_matrix_file(inp, "correlation", 3, 3, 1.9 * np.eye(3) - 2.7 * np.outer(u, u))
    warning = (
        "warning: correlation matrix has min eigenvalue -8.000e-01; "
        "the resulting map is not completely positive\n"
    )
    # Twice in a row: the warning registry must not swallow the second one.
    for _ in range(2):
        assert main(["check", str(inp)]) == 1
        captured = capsys.readouterr()
        assert captured.err == warning
        assert captured.out.startswith("cp false\n")
        assert main(["represent", str(inp), "--output", str(tmp_path / "v.json")]) == 0
        assert capsys.readouterr().err == warning


@pytest.fixture
def calls(monkeypatch):
    """Counts, while the test runs, of Hermitian records built, comparisons
    of a matrix with its adjoint, ``eigvalsh``/``cholesky`` calls and norms
    taken (``vdot`` for the scale, ``np.linalg.norm`` anywhere)."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for module, attr in ((np.linalg, "eigvalsh"), (np.linalg, "cholesky"), (np.linalg, "norm"), (np, "vdot")):
        monkeypatch.setattr(module, attr, counting(attr, getattr(module, attr)))
    monkeypatch.setattr(_Hermitian, "__init__", counting("record", _Hermitian.__init__))
    monkeypatch.setattr(_Hermitian, "_compare", counting("compare", _Hermitian._compare))
    return counts


def _check_stdout_from_separate_analyses(j, tol=HERMITICITY_TOL):
    """What ``check`` printed when each predicate analysed J on its own."""
    m = j.matrix
    trace = float(np.trace(m).real)
    return (
        f"cp {str(hermiticity_defect(m) <= tol and is_positive_semidefinite(m, tol)).lower()}\n"
        f"tp {str(is_trace_preserving(j, tol)).lower()}\n"
        f"hp {str(hermiticity_defect(m) <= tol).lower()}\n"
        f"min_eigenvalue {min_eigenvalue_hermitian(m)!r}\n"
        f"trace {trace!r}\npairing {trace / j.dx!r}\n"
    )


_U3 = np.ones(3) / np.sqrt(3)


@pytest.mark.parametrize(
    "kind,data,records",
    [
        # Not PSD, so the Cholesky refuses and the eigenvalues decide.
        ("choi", np.diag([1.0, -1.0, 1.0, 1.0]), 1),
        ("choi", HADAMARD_CHOI, 1),
        # Eigenvalues -0.8, 1.9, 1.9: one record of the correlation matrix, one of J.
        ("correlation", 1.9 * np.eye(3) - 2.7 * np.outer(_U3, _U3), 2),
        ("correlation", CORRELATION_2DP, 2),
    ],
)
def test_check_analyses_each_matrix_once(tmp_path, capsys, calls, kind, data, records):
    d = int(np.sqrt(data.shape[0])) if kind == "choi" else data.shape[0]
    inp = tmp_path / "m.json"
    save_matrix_file(inp, kind, d, d, data)
    code = main(["check", str(inp)])
    assert code in (0, 1)
    stdout = capsys.readouterr().out
    assert calls["record"] == calls["compare"] == records
    assert calls["cholesky"] <= records and calls["eigvalsh"] <= records
    assert calls["vdot"] == 1 and calls["norm"] == 0  # ||J||_F, once
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert stdout == _check_stdout_from_separate_analyses(matrix_file_to_choi(load_matrix_file(inp)))


def test_roundtrip_takes_the_norm_of_j_once(tmp_path, capsys, calls):
    inp = tmp_path / "r.json"
    save_matrix_file(inp, "choi", 3, 2, random_channel(3, 2, 6, seed=500).matrix)
    assert main(["roundtrip", str(inp)]) == 0
    capsys.readouterr()
    assert calls["vdot"] == 1 and calls["norm"] == 0


def _numeric_leaves(node, found):
    """(container, key) of every number below ``node``, depth first."""
    items = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, value in items:
        if isinstance(value, (list, dict)):
            _numeric_leaves(value, found)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append((node, key))
    return found


def _encoded(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


_ODD_VALUES = ["x", True, None, [], {}, math.inf, math.nan, 10**400, -1, 0, 2.5, 1e308]


@st.composite
def _cli_inputs(draw):
    """A subcommand, mostly one that reads the drawn kind of file, and the
    text of a valid file of that kind mutated by one drawn edit (or none)."""
    dx, dy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["choi", "kraus", "unitary", "correlation", "vector"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "vector":
        doc = {"dx": dx, "dy": dy, "values": rng.standard_normal(subspace_dimension(dx, dy)).tolist()}
    elif kind == "choi":
        rank = draw(st.integers(-(-dx // dy), dx * dy))
        doc = {"dx": dx, "dy": dy, "data": _encoded(random_channel(dx, dy, rank, seed=int(rng.integers(2**31))).matrix)}
    elif kind == "kraus":
        doc = {"dx": dx, "dy": dy, "data": [_encoded(k) for k in rand_complex(rng, (2, dy, dx))]}
    elif kind == "unitary":
        doc = {"dx": dx, "dy": dx, "data": _encoded(rand_unitary(rng, dx))}
    else:
        a = rand_hermitian(rng, dx)
        np.fill_diagonal(a, 1.0)
        doc = {"dx": dx, "dy": dx, "data": _encoded(a)}
    if kind != "vector":
        doc = {"kind": kind, **doc}
    leaves = _numeric_leaves(doc, [])
    edit = draw(st.sampled_from(["none", "scale", "nudge", "odd value", "drop key", "dims", "kind", "truncate"]))
    if edit == "scale":
        factor = draw(st.sampled_from([-1.0, 1e-300, 1e8, 1e200, 1e307]))
        for node, key in leaves:
            node[key] *= factor
    elif edit == "nudge":  # leaves S, or Hermiticity, or unit norm
        node, key = draw(st.sampled_from(leaves))
        node[key] += draw(st.sampled_from([1e-13, 1e-6, 0.5, -3.0]))
    elif edit == "odd value":
        node, key = draw(st.sampled_from(leaves))
        node[key] = draw(st.sampled_from(_ODD_VALUES))
    elif edit == "drop key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif edit == "dims":
        doc[draw(st.sampled_from(["dx", "dy"]))] = draw(st.sampled_from([0, 1, 2, 4, -1, True, "2", 2.5]))
    elif edit == "kind":
        doc["kind"] = draw(st.sampled_from(["choi", "kraus", "unitary", "correlation", "vector", 3]))
    text = json.dumps(doc)
    if edit == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    fitting = ["combine"] if kind == "vector" else ["represent", "check", "roundtrip"]
    return draw(st.sampled_from(3 * fitting + ["represent", "combine", "check", "roundtrip"])), text


@settings(max_examples=150, deadline=None, database=None)
@given(_cli_inputs())
def test_cli_exit_codes_on_generated_input(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
        with open(inp, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, inp] + (["--output", out] if command in ("represent", "combine") else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if code in (2, 3) else 0), stderr.getvalue()
