import tracemalloc
import warnings

import numpy as np
import pytest

from channelrep import (
    DimensionError,
    DomainError,
    NotCompletelyPositiveWarning,
    ValidationError,
    apply_channel,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
    random_channel,
    represent,
    schur_channel,
    unitary_channel,
    validate_correlation,
)

from fixtures import (
    CORRELATION_2DP,
    HADAMARD,
    HADAMARD_CHOI,
    get_basis,
    rand_complex,
    rand_unitary,
    schur_choi_loop,
)


def test_unitary_hadamard_choi():
    j = unitary_channel(HADAMARD)
    assert np.abs(j.matrix - HADAMARD_CHOI).max() <= 1e-12


def test_unitary_identity_channel():
    d = 3
    j = unitary_channel(np.eye(d))
    expected = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            expected[i * d + i, k * d + k] = 1.0
    assert np.abs(j.matrix - expected).max() <= 1e-12


def test_unitary_diagonal_phase():
    j = unitary_channel(np.diag([1.0, 1.0j]))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    expected[0, 3] = -1.0j
    expected[3, 0] = 1.0j
    expected[3, 3] = 1.0
    assert np.abs(j.matrix - expected).max() <= 1e-12


def test_unitary_rejects_non_unitary():
    with pytest.raises(ValidationError):
        unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        unitary_channel(np.ones((2, 3)))


def test_unitary_choi_is_rank_one_with_trace_dx():
    rng = np.random.default_rng(800)
    for d in (2, 3, 4):
        q, r = np.linalg.qr(rand_complex(rng, (d, d)))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[np.newaxis, :]
        j = unitary_channel(u)
        eigs = np.linalg.eigvalsh(j.matrix)
        assert abs(eigs[-1] - d) <= 1e-10
        assert np.abs(eigs[:-1]).max() <= 1e-10


def test_schur_choi_matches_entry_placement():
    j = schur_channel(CORRELATION_2DP)
    assert np.abs(j.matrix - schur_choi_loop(CORRELATION_2DP)).max() <= 1e-12
    assert j.matrix[0, 4] == pytest.approx(0.92 - 0.14j)
    assert j.matrix[0, 8] == pytest.approx(0.84 - 0.19j)
    assert j.matrix[4, 8] == pytest.approx(0.81 + 0.06j)


def test_schur_all_ones_is_identity_channel():
    d = 3
    j = schur_channel(np.ones((d, d)))
    assert np.abs(j.matrix - unitary_channel(np.eye(d)).matrix).max() <= 1e-12


def test_schur_identity_correlation_is_dephasing():
    d = 3
    j = schur_channel(np.eye(d))
    expected = np.zeros((d * d, d * d))
    for i in range(d):
        expected[i * d + i, i * d + i] = 1.0
    assert np.abs(j.matrix - expected).max() <= 1e-12


def test_schur_apply_entrywise():
    rng = np.random.default_rng(801)
    j = schur_channel(CORRELATION_2DP)
    y = rand_complex(rng, (3, 3))
    assert np.abs(apply_channel(j, y) - CORRELATION_2DP * y).max() <= 1e-12


def test_schur_always_tp():
    for a in (CORRELATION_2DP, np.eye(3), np.ones((3, 3))):
        assert is_trace_preserving(schur_channel(a), tol=1e-10)


def test_schur_cp_flag_matches_eigenvalue():
    psd = CORRELATION_2DP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = schur_channel(psd)
    assert is_completely_positive(j, tol=1e-10)

    non_psd = np.array([[1.0, 1.5], [1.5, 1.0]])
    with pytest.warns(NotCompletelyPositiveWarning):
        j = schur_channel(non_psd)
    assert not is_completely_positive(j, tol=1e-10)


def test_schur_non_psd_warning_text():
    non_psd = np.array([[1.0, 1.5], [1.5, 1.0]])
    with pytest.warns(NotCompletelyPositiveWarning) as record:
        j = schur_channel(non_psd)
    assert [str(w.message) for w in record] == [
        "correlation matrix has min eigenvalue -5.000e-01; "
        "the resulting map is not completely positive"
    ]
    assert not is_completely_positive(j, tol=1e-10)


def test_schur_warning_threshold_is_cp_tol():
    # eigenvalues 1 -+ c: the smallest is -1e-8 for c = 1 + 1e-8
    almost = np.array([[1.0, 1.0 + 1e-8], [1.0 + 1e-8, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        schur_channel(almost, cp_tol=1e-7)
    with pytest.warns(NotCompletelyPositiveWarning, match="min eigenvalue -1.000e-08"):
        schur_channel(almost, cp_tol=1e-9)


def test_schur_validation():
    with pytest.raises(ValidationError):
        schur_channel(np.diag([1.0, 2.0]))  # diagonal not 1
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = 0.5
    with pytest.raises(ValidationError):
        schur_channel(bad)  # not Hermitian


def test_random_channel_cp_tp_many_seeds():
    for seed in range(100):
        j = random_channel(3, 2, 4, seed)
        assert is_trace_preserving(j, tol=1e-10)
        assert is_completely_positive(j, tol=1e-10)


def test_random_channel_deterministic():
    a = random_channel(2, 3, 2, seed=1234)
    b = random_channel(2, 3, 2, seed=1234)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_channel(2, 3, 2, seed=1235)
    assert not np.array_equal(a.matrix, c.matrix)


def test_random_channel_rank_one_square_is_unitary_like():
    d = 3
    j = random_channel(d, d, 1, seed=99)
    eigs = np.linalg.eigvalsh(j.matrix)
    assert abs(np.trace(j.matrix).real - d) <= 1e-10
    assert abs(eigs[-1] - d) <= 1e-10
    assert np.abs(eigs[:-1]).max() <= 1e-10


def test_random_channel_first_coefficient():
    for seed in range(10):
        j = random_channel(2, 3, 2, seed)
        v = represent(get_basis(2, 3), j)
        assert abs(v.values[0] - np.sqrt(2 / 3)) <= 1e-10


def test_random_channel_parameter_validation():
    with pytest.raises(DomainError):
        random_channel(2, 2, 0, seed=0)
    with pytest.raises(DomainError):
        random_channel(2, 2, 5, seed=0)
    with pytest.raises(DomainError):
        random_channel(4, 1, 2, seed=0)  # rank*dy < dx cannot be TP
    with pytest.raises(DomainError):
        random_channel(0, 2, 1, seed=0)


@pytest.mark.parametrize(
    "rank,seed,match",
    [
        (True, 1, "kraus_rank must be an integer in \\[1, 4\\] for dims \\(2, 2\\), got True"),
        (2.0, 1, "kraus_rank must be an integer in .*, got 2.0"),
        ("2", 1, "kraus_rank must be an integer in .*, got '2'"),
        (2, 1.5, "seed must be an integer >= 0, got 1.5"),
        (2, True, "seed must be an integer >= 0, got True"),
        (2, -1, "seed must be an integer >= 0, got -1"),
        (2, np.int64(-1), "seed must be an integer >= 0, got "),
        # Longer than Python prints (4300 digits): named by the bit length.
        pytest.param(10**5000, 1, "kraus_rank .*, got <16610-bit integer>", id="huge rank"),
        pytest.param(1, -(10**5000), "seed .*, got <16610-bit integer>", id="huge seed"),
    ],
)
def test_random_channel_refuses_non_integer_rank_and_seed(rank, seed, match):
    with pytest.raises(DomainError, match=match):
        random_channel(2, 2, rank, seed)


def test_random_channel_takes_numpy_integers():
    want = random_channel(2, 3, 2, seed=7).matrix
    assert np.array_equal(random_channel(2, 3, np.int64(2), np.uint8(7)).matrix, want)


def test_constructors_refuse_an_empty_side():
    empty = np.zeros((0, 0))
    for construct in (unitary_channel, schur_channel, validate_correlation):
        with pytest.raises(DomainError, match="got \\(0, 0\\)"):
            construct(empty)


def test_constructors_are_hermiticity_preserving():
    assert is_hermiticity_preserving(unitary_channel(HADAMARD))
    assert is_hermiticity_preserving(schur_channel(CORRELATION_2DP))
    assert is_hermiticity_preserving(random_channel(3, 3, 2, seed=5))


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("construct", [validate_correlation, schur_channel])
def test_correlation_with_non_finite_entries_is_refused_without_warning(construct, entry):
    # inf == inf, so a comparison with the adjoint alone would call this
    # matrix exactly Hermitian; NaN would reach the PSD test and warn.
    a = np.array([[1.0, entry], [entry, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as exc_info:
            construct(a)
    assert str(exc_info.value) == "correlation matrix contains non-finite entries"


@pytest.mark.parametrize(
    "u", [[[np.nan]], [[np.inf, 0.0], [0.0, 1.0]]], ids=["nan-1x1", "inf-2x2"]
)
def test_unitary_with_non_finite_entries_is_refused_without_warning(u):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as exc_info:
            unitary_channel(np.array(u))
    assert str(exc_info.value) == "unitary matrix contains non-finite entries"


@pytest.mark.parametrize(
    "u",
    [[[1e200, 1e200], [1e200, -1e200]], [[1e300 * (1 + 1j), 0.0], [0.0, 1.0]]],
    ids=["inf-defect", "nan-defect"],
)
def test_unitary_whose_product_overflows_is_refused_without_warning(u):
    # u^dag u overflows: the defect is inf, or NaN where inf - inf is formed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="matrix is not unitary"):
            unitary_channel(np.array(u))


@pytest.mark.parametrize(
    "construct, bound",
    [
        (lambda: unitary_channel(rand_unitary(np.random.default_rng(3), 32)), 1.2),
        (lambda: random_channel(32, 32, 2, seed=3), 1.2),
        (lambda: schur_channel(np.eye(32)), 1.1),
    ],
    ids=["unitary", "random", "schur"],
)
def test_constructors_peak_near_one_choi_matrix(construct, bound):
    # At d = 32 the Choi matrix takes 16 MiB.  Mirroring in panels and
    # building J in place keep the peak near that one array, not two.
    tracemalloc.start()
    try:
        j = construct()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * j.matrix.nbytes
