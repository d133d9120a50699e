import warnings

import numpy as np
import pytest

import channelrep.choi
from channelrep import (
    ChoiMatrix,
    DimensionError,
    KrausSet,
    ValidationError,
    apply_channel,
    choi_from_kraus,
    hermiticity_defect,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
    min_eigenvalue_hermitian,
    random_channel,
    unitary_channel,
)
from channelrep.channels import schur_channel
from channelrep.linalg import is_positive_semidefinite

from fixtures import (
    CORRELATION_2DP,
    CORRELATION_FULL,
    HADAMARD,
    HADAMARD_CHOI,
    apply_kraus,
    choi_double_sum,
    feasible_triples,
    rand_complex,
    rand_kraus_ops,
    rand_unitary,
)


def test_choi_from_kraus_hadamard():
    j = choi_from_kraus(KrausSet(dx=2, dy=2, operators=[HADAMARD]))
    assert np.abs(j.matrix - HADAMARD_CHOI).max() <= 1e-12


def test_choi_from_kraus_identity_channel():
    d = 3
    j = choi_from_kraus(KrausSet(dx=d, dy=d, operators=[np.eye(d)]))
    expected = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            expected[i * d + i, k * d + k] = 1.0
    assert np.abs(j.matrix - expected).max() <= 1e-12


@pytest.mark.parametrize("dx,dy,rank", [(2, 2, 2), (3, 2, 3), (2, 4, 1), (4, 3, 3), (1, 3, 2)])
def test_choi_from_kraus_matches_double_sum(dx, dy, rank):
    rng = np.random.default_rng(300 + dx * 100 + dy * 10 + rank)
    ops = rand_kraus_ops(rng, dx, dy, rank)
    j = choi_from_kraus(KrausSet(dx=dx, dy=dy, operators=ops))
    assert np.abs(j.matrix - choi_double_sum(ops, dx, dy)).max() <= 1e-12


def test_choi_from_kraus_hermitian_and_psd():
    rng = np.random.default_rng(301)
    ops = rand_kraus_ops(rng, 3, 3, 2)
    j = choi_from_kraus(KrausSet(dx=3, dy=3, operators=ops))
    assert np.abs(j.matrix - j.matrix.conj().T).max() <= 1e-12
    assert is_hermiticity_preserving(j)
    assert min_eigenvalue_hermitian(j.matrix) >= -1e-12


def test_apply_identity_channel():
    d = 3
    j = choi_from_kraus(KrausSet(dx=d, dy=d, operators=[np.eye(d)]))
    rng = np.random.default_rng(302)
    x = rand_complex(rng, (d, d))
    assert np.abs(apply_channel(j, x) - x).max() <= 1e-12


def test_apply_hadamard_to_ket0():
    j = ChoiMatrix(dx=2, dy=2, matrix=HADAMARD_CHOI)
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    expected = 0.5 * np.ones((2, 2))
    assert np.abs(apply_channel(j, x) - expected).max() <= 1e-12


def test_apply_schur_is_entrywise_product():
    j = schur_channel(CORRELATION_2DP)
    rng = np.random.default_rng(303)
    y = rand_complex(rng, (3, 3))
    assert np.abs(apply_channel(j, y) - CORRELATION_2DP * y).max() <= 1e-12


@pytest.mark.parametrize("dx,dy,rank", [(2, 2, 2), (3, 2, 2), (2, 3, 3), (4, 4, 3)])
def test_apply_matches_kraus_sum(dx, dy, rank):
    rng = np.random.default_rng(304 + dx + 10 * dy + 100 * rank)
    ops = rand_kraus_ops(rng, dx, dy, rank)
    j = choi_from_kraus(KrausSet(dx=dx, dy=dy, operators=ops))
    for _ in range(5):
        x = rand_complex(rng, (dx, dx))
        assert np.abs(apply_channel(j, x) - apply_kraus(ops, x)).max() <= 1e-12


def test_apply_dimension_mismatch():
    j = ChoiMatrix(dx=2, dy=2, matrix=HADAMARD_CHOI)
    with pytest.raises(DimensionError):
        apply_channel(j, np.eye(3))


def test_choi_linear_in_channel_mixture():
    # Convex mixture of Kraus maps via sqrt-weighted concatenation.
    rng = np.random.default_rng(305)
    ops_a = rand_kraus_ops(rng, 3, 2, 2)
    ops_b = rand_kraus_ops(rng, 3, 2, 3)
    w = 0.3
    j_a = choi_from_kraus(KrausSet(dx=3, dy=2, operators=ops_a))
    j_b = choi_from_kraus(KrausSet(dx=3, dy=2, operators=ops_b))
    mixed_ops = [np.sqrt(w) * k for k in ops_a] + [np.sqrt(1 - w) * k for k in ops_b]
    j_mix = choi_from_kraus(KrausSet(dx=3, dy=2, operators=mixed_ops))
    assert np.abs(j_mix.matrix - (w * j_a.matrix + (1 - w) * j_b.matrix)).max() <= 1e-12


def test_cp_predicate():
    assert is_completely_positive(ChoiMatrix(dx=2, dy=2, matrix=HADAMARD_CHOI), tol=1e-10)
    bad = ChoiMatrix(dx=2, dy=2, matrix=np.diag([1.0, -1.0, 1.0, 1.0]))
    assert not is_completely_positive(bad, tol=1e-10)
    assert is_completely_positive(schur_channel(CORRELATION_2DP), tol=1e-10)


def test_cp_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    assert not is_completely_positive(ChoiMatrix(dx=2, dy=2, matrix=m), tol=1e-10)


def test_tp_predicate():
    assert is_trace_preserving(ChoiMatrix(dx=2, dy=2, matrix=HADAMARD_CHOI), tol=1e-10)
    assert not is_trace_preserving(ChoiMatrix(dx=2, dy=2, matrix=2 * HADAMARD_CHOI), tol=1e-10)


def test_tp_for_isometry_completion():
    # Any isometry sliced into Kraus blocks gives a TP map.
    rng = np.random.default_rng(306)
    dx, dy, rank = 3, 2, 4
    v = rand_unitary(rng, rank * dy)[:, :dx]
    ops = v.reshape(rank, dy, dx)
    j = choi_from_kraus(KrausSet(dx=dx, dy=dy, operators=ops))
    assert is_trace_preserving(j, tol=1e-10)


def test_hp_predicate():
    assert is_hermiticity_preserving(ChoiMatrix(dx=2, dy=2, matrix=HADAMARD_CHOI))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    assert not is_hermiticity_preserving(ChoiMatrix(dx=2, dy=2, matrix=m))


def test_cp_tp_implies_trace_dx():
    rng = np.random.default_rng(307)
    for dx, dy, rank in [(2, 2, 2), (3, 2, 3), (2, 4, 2)]:
        v = rand_unitary(rng, rank * dy)[:, :dx]
        j = choi_from_kraus(KrausSet(dx=dx, dy=dy, operators=v.reshape(rank, dy, dx)))
        assert abs(np.trace(j.matrix).real - dx) <= 1e-10


def test_kraus_set_shape_validation():
    with pytest.raises(DimensionError):
        KrausSet(dx=2, dy=2, operators=np.zeros((0, 2, 2)))
    with pytest.raises(DimensionError):
        KrausSet(dx=2, dy=3, operators=[np.eye(2)])
    with pytest.raises(DimensionError):
        KrausSet(dx=2, dy=2, operators=[np.eye(2), np.eye(3)])


def test_kraus_set_accepts_single_matrix():
    k = KrausSet(dx=2, dy=2, operators=np.eye(2))
    assert len(k) == 1


def test_choi_matrix_side_validation():
    with pytest.raises(DimensionError):
        ChoiMatrix(dx=2, dy=3, matrix=np.eye(4))


def test_choi_matrix_rejects_non_finite():
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        ChoiMatrix(dx=2, dy=2, matrix=m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_input_raises_validation_error(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValidationError):
        ChoiMatrix(dx=2, dy=2, matrix=m)
    ops = np.eye(2, dtype=complex)
    ops[0, 1] = bad
    with pytest.raises(ValidationError):
        KrausSet(dx=2, dy=2, operators=[ops])


def _eigenvalue_rule(j, tol):
    """The CP rule without the Cholesky shortcut."""
    return hermiticity_defect(j.matrix) <= tol and min_eigenvalue_hermitian(j.matrix) >= -tol


def _zero_pivot_channels():
    """Singular Choi matrices with exactly zero diagonal entries: a Cholesky
    factorisation without a shift meets an exact zero pivot and refuses."""
    yield unitary_channel(np.eye(3))
    yield unitary_channel(np.diag(np.exp(1j * np.array([0.3, 1.1]))))
    yield schur_channel(CORRELATION_2DP)
    yield schur_channel(CORRELATION_FULL)
    yield schur_channel(np.ones((3, 3)))


def _singular_channels():
    """Unitary, Schur and minimal-Kraus-rank random channels."""
    yield from _zero_pivot_channels()
    rng = np.random.default_rng(321)
    yield unitary_channel(HADAMARD)
    yield unitary_channel(rand_unitary(rng, 4))
    for i, (dx, dy) in enumerate([(2, 2), (3, 2), (2, 3), (4, 4), (8, 8), (8, 4), (4, 8)]):
        yield random_channel(dx, dy, -(-dx // dy), seed=330 + i)


def test_cp_accepts_singular_channels():
    for j in _singular_channels():
        assert is_completely_positive(j, tol=1e-10)


def test_cp_at_zero_tolerance_is_the_eigenvalue_rule():
    for j in _zero_pivot_channels():
        assert is_completely_positive(j, tol=0.0) == _eigenvalue_rule(j, 0.0)
        assert is_positive_semidefinite(j.matrix, 0.0) == (min_eigenvalue_hermitian(j.matrix) >= 0)
    # Elsewhere both rules judge rounding noise at tol = 0 (lambda_min is
    # 0 in exact arithmetic), so only the one-sided guarantee is portable.
    for j in _singular_channels():
        if _eigenvalue_rule(j, 0.0):
            assert is_completely_positive(j, tol=0.0)


def test_cp_verdict_equals_eigenvalue_rule_on_fixtures():
    chans = list(_singular_channels())
    chans += [random_channel(dx, dy, r, seed=340 + i) for i, (dx, dy, r) in enumerate(feasible_triples())]
    chans.append(ChoiMatrix(dx=2, dy=2, matrix=HADAMARD_CHOI))
    chans.append(ChoiMatrix(dx=2, dy=2, matrix=np.diag([1.0, -1.0, 1.0, 1.0])))
    chans.append(ChoiMatrix(dx=2, dy=2, matrix=HADAMARD_CHOI - 1e-9 * np.eye(4)))
    chans.append(ChoiMatrix(dx=2, dy=2, matrix=-HADAMARD_CHOI))
    for j in chans:
        for tol in (1e-10, 1e-6):
            assert is_completely_positive(j, tol=tol) == _eigenvalue_rule(j, tol)


def test_cp_on_exactly_hermitian_input_factors_j_itself(monkeypatch):
    def forbidden(*args):
        raise AssertionError("formed the Hermitian part of an exactly Hermitian J")

    chans = [ChoiMatrix(j.dx, j.dy, (j.matrix + j.matrix.conj().T) / 2) for j in _singular_channels()]
    monkeypatch.setattr(channelrep.choi, "_hermitian_part", forbidden)
    for j in chans:
        assert is_completely_positive(j, tol=1e-10)
    assert not is_completely_positive(ChoiMatrix(dx=2, dy=2, matrix=-HADAMARD_CHOI))


def test_cp_on_nearly_hermitian_input_is_the_eigenvalue_rule():
    rng = np.random.default_rng(350)
    for i, (dx, dy) in enumerate([(2, 2), (3, 2), (2, 3), (4, 4)]):
        j = random_channel(dx, dy, dx * dy, seed=351 + i).matrix
        skew = rand_complex(rng, j.shape)
        skew -= skew.conj().T
        for size in (1e-13, 1e-11, 1e-9):
            m = ChoiMatrix(dx=dx, dy=dy, matrix=j + size * skew)
            for shift in (0.0, -1e-8, -1e-3):
                m = ChoiMatrix(dx=dx, dy=dy, matrix=m.matrix + shift * np.eye(dx * dy))
                for tol in (1e-10, 1e-6):
                    assert is_completely_positive(m, tol=tol) == _eigenvalue_rule(m, tol)


def test_predicates_on_entries_near_the_largest_float():
    # m + m^dag would overflow; the predicates still answer without a warning.
    j = ChoiMatrix(dx=2, dy=2, matrix=1.5e308 * unitary_channel(np.eye(2)).matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_completely_positive(j)
        assert not is_trace_preserving(j)
        assert is_hermiticity_preserving(j)
        assert min_eigenvalue_hermitian(j.matrix) == pytest.approx(0.0, abs=1e-12 * 1.5e308)
