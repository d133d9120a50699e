import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelrep import DimensionError, ValidationError
from channelrep.linalg import (
    _Hermitian,
    _mirror_upper,
    hermiticity_defect,
    hs_inner,
    is_hermitian,
    is_positive_semidefinite,
    kron,
    min_eigenvalue_hermitian,
    partial_trace_first,
    res,
    trace_norm,
)

from fixtures import (
    HADAMARD,
    HADAMARD_CHOI,
    ptrace_first_loop,
    rand_complex,
    rand_hermitian,
    rand_unitary,
)


def test_hs_inner_identity():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2 + 0j)


def test_hs_inner_normalized_diagonal():
    d = np.diag([1.0, -1.0]) / np.sqrt(2)
    assert hs_inner(d, d) == pytest.approx(1 + 0j)


def test_hs_inner_shape_mismatch():
    with pytest.raises(DimensionError):
        hs_inner(np.eye(2), np.eye(3))


def test_hs_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rand_complex(rng, (3, 3))
        b = rand_complex(rng, (3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


def test_hs_inner_self_is_squared_frobenius():
    rng = np.random.default_rng(12)
    a = rand_complex(rng, (4, 4))
    v = hs_inner(a, a)
    assert abs(v.imag) < 1e-12
    assert v.real == pytest.approx(np.linalg.norm(a, "fro") ** 2)
    assert v.real >= 0


def test_hs_inner_linear_in_second_argument():
    rng = np.random.default_rng(13)
    a, b, c = (rand_complex(rng, (3, 3)) for _ in range(3))
    alpha = 0.7 - 1.3j
    lhs = hs_inner(a, alpha * b + c)
    rhs = alpha * hs_inner(a, b) + hs_inner(a, c)
    assert lhs == pytest.approx(rhs)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    got = kron(np.diag([1.0, -1.0]), np.eye(2))
    assert np.array_equal(got, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_single_entry():
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    got = kron(e01, e01)
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0
    assert np.array_equal(got, expected)


def test_kron_index_formula():
    rng = np.random.default_rng(14)
    a = rand_complex(rng, (2, 3))
    b = rand_complex(rng, (3, 2))
    got = kron(a, b)
    for i in range(2):
        for j in range(3):
            for k in range(3):
                for l in range(2):
                    assert abs(got[i * 3 + k, j * 2 + l] - a[i, j] * b[k, l]) <= 1e-12


def test_partial_trace_identity():
    assert np.allclose(partial_trace_first(np.eye(4), 2, 2), 2 * np.eye(2))


def test_partial_trace_hadamard_choi_is_identity():
    got = partial_trace_first(HADAMARD_CHOI, 2, 2)
    assert np.abs(got - np.eye(2)).max() <= 1e-12


@pytest.mark.parametrize("da,db", [(2, 2), (3, 2), (2, 4), (4, 3)])
def test_partial_trace_of_kron(da, db):
    rng = np.random.default_rng(100 + da * 10 + db)
    a = rand_complex(rng, (da, da))
    b = rand_complex(rng, (db, db))
    got = partial_trace_first(kron(a, b), da, db)
    assert np.abs(got - np.trace(a) * b).max() <= 1e-12


def test_partial_trace_matches_loop():
    rng = np.random.default_rng(15)
    for d1, d2 in [(2, 3), (3, 3), (4, 2)]:
        m = rand_complex(rng, (d1 * d2, d1 * d2))
        assert np.abs(partial_trace_first(m, d1, d2) - ptrace_first_loop(m, d1, d2)).max() <= 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(16)
    m = rand_complex(rng, (6, 6))
    assert abs(np.trace(partial_trace_first(m, 2, 3)) - np.trace(m)) <= 1e-12


def test_partial_trace_side_mismatch():
    with pytest.raises(DimensionError):
        partial_trace_first(np.eye(5), 2, 2)


def test_trace_norm_zero():
    assert trace_norm(np.zeros((4, 4))) == 0.0


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([1.0, -2.0, 3.0])) == pytest.approx(6.0)


def test_trace_norm_hadamard_choi():
    assert trace_norm(HADAMARD_CHOI) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rand_complex(rng, (4, 4))
        b = rand_complex(rng, (4, 4))
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


@st.composite
def _exact_hermitian(draw):
    """(m + m^dag)/2 of a random complex m: equal to its conjugate transpose
    bit for bit, with rank and scale drawn."""
    n = draw(st.integers(1, 16))
    scale = 10.0 ** draw(st.integers(-3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rand_unitary(rng, n)
    lam = scale * rng.uniform(-1, 1, n)
    lam[: draw(st.integers(0, n))] = 0.0
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


@settings(max_examples=300, deadline=None, database=None)
@given(_exact_hermitian())
def test_trace_norm_of_hermitian_matches_svd(m):
    assert (m == m.conj().T).all()
    want = np.linalg.svd(m, compute_uv=False).sum()
    # Both sums carry the rounding of n values of a few eps * ||m||_2 each;
    # over 40k such matrices (n <= 16) the largest gap was 3 n eps ||m||_2.
    assert abs(trace_norm(m) - want) <= 8 * m.shape[0] * EPS * np.linalg.norm(m, 2)


def test_trace_norm_of_hermitian_skips_svd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("SVD ran on an exactly Hermitian matrix")

    h = rand_hermitian(np.random.default_rng(18), 6)
    want = trace_norm(h)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    assert trace_norm(h) == want
    assert trace_norm(np.diag([1.0, -2.0, 3.0])) == 6.0


def test_trace_norm_not_exactly_hermitian_is_svd_sum():
    rng = np.random.default_rng(19)
    h = rand_hermitian(rng, 5)
    h[1, 3] = np.nextafter(h[1, 3].real, np.inf) + 1j * h[1, 3].imag  # one ulp off
    stack = np.stack([rand_hermitian(rng, 4) for _ in range(3)])
    for m in (h, stack, rand_complex(rng, (3, 5))):
        assert trace_norm(m) == float(np.linalg.svd(m, compute_uv=False).sum())


def test_trace_norm_empty():
    assert trace_norm(np.zeros((0, 0))) == 0.0
    assert trace_norm(np.zeros((0, 3))) == 0.0


@pytest.mark.parametrize("m", [5, [1, 2], []])
def test_trace_norm_refuses_fewer_than_two_dimensions(m):
    with pytest.raises(DimensionError, match="expected a matrix"):
        trace_norm(m)


@pytest.mark.parametrize(
    "m",
    [
        [[np.nan]],  # not Hermitian (NaN != NaN): LAPACK's SVD gives up
        [[np.inf, 0], [0, 1]],  # exactly Hermitian: eigvalsh returns NaN
        [[np.inf, 1], [0, 1]],
        np.full((2, 3, 3), np.nan),
    ],
)
def test_trace_norm_refuses_non_finite_entries(m):
    with pytest.raises(ValidationError, match="non-finite"):
        trace_norm(m)


# LAPACK's eigvalsh and Cholesky do not refuse NaN: min_eigenvalue_hermitian
# once read 0.0 here and is_positive_semidefinite True, is_hermitian took an
# inf diagonal as Hermitian and hermiticity_defect gave nan.
PREDICATES = {
    "min_eigenvalue_hermitian": min_eigenvalue_hermitian,
    "is_positive_semidefinite": lambda m: is_positive_semidefinite(m, 1e-10),
    "is_hermitian": is_hermitian,
    "hermiticity_defect": hermiticity_defect,
}


@pytest.mark.parametrize("m", [[[np.nan, 0], [0, 1]], [[np.inf, 0], [0, 1]], [[1, -np.inf], [0, 1]]],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", PREDICATES)
def test_predicates_refuse_non_finite_entries(name, m):
    with pytest.raises(ValidationError, match="matrix contains non-finite entries"):
        PREDICATES[name](m)


def test_predicates_on_the_empty_matrix_are_unchanged():
    empty = np.zeros((0, 0))
    with pytest.raises(DimensionError, match="nonempty"):
        min_eigenvalue_hermitian(empty)
    assert is_positive_semidefinite(empty, 1e-10) is True and is_hermitian(empty) is True
    assert hermiticity_defect(empty) == 0.0


@pytest.mark.parametrize("m", [np.diag([1e308, 1e308]), [[1e308, 1], [0, 1e308]]])
def test_trace_norm_of_finite_entries_overflows_to_inf(m):
    assert trace_norm(m) == np.inf


def test_res_identity():
    assert np.array_equal(res(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))


def test_res_hadamard():
    expected = np.array([1, 1, 1, -1]) / np.sqrt(2)
    assert np.abs(res(HADAMARD) - expected).max() <= 1e-15


def test_res_outer_product_gives_choi():
    v = res(HADAMARD)
    assert np.abs(np.outer(v, v.conj()) - HADAMARD_CHOI).max() <= 1e-12


def test_res_row_major_order():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(res(a), np.array([1, 2, 3, 4], dtype=complex))


def test_res_linear():
    rng = np.random.default_rng(18)
    a = rand_complex(rng, (3, 3))
    b = rand_complex(rng, (3, 3))
    alpha = 1.5 - 0.5j
    assert np.abs(res(alpha * a + b) - (alpha * res(a) + res(b))).max() <= 1e-12


def test_min_eigenvalue_identity():
    assert min_eigenvalue_hermitian(np.eye(3)) == pytest.approx(1.0)


def test_min_eigenvalue_diagonal():
    assert min_eigenvalue_hermitian(np.diag([0.5, -0.5])) == pytest.approx(-0.5)


def test_min_eigenvalue_hadamard_choi():
    assert abs(min_eigenvalue_hermitian(HADAMARD_CHOI)) <= 1e-12


def test_min_eigenvalue_non_square():
    with pytest.raises(DimensionError):
        min_eigenvalue_hermitian(np.zeros((2, 3)))
    with pytest.raises(DimensionError, match="nonempty"):
        min_eigenvalue_hermitian(np.zeros((0, 0)))


def test_hermiticity_helpers():
    assert is_hermitian(np.eye(3))
    skew = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not is_hermitian(skew)
    assert hermiticity_defect(skew) == pytest.approx(1.0)


def test_hermiticity_defect_exact():
    h = rand_hermitian(np.random.default_rng(20), 5)
    assert hermiticity_defect(h) == 0.0
    assert hermiticity_defect(np.zeros((0, 0))) == 0.0
    off = h.copy()
    off[0, 2] = np.nextafter(h[0, 2].real, np.inf) + 1j * h[0, 2].imag
    assert hermiticity_defect(off) == np.nextafter(h[0, 2].real, np.inf) - h[0, 2].real
    assert hermiticity_defect(np.array([[0.0, 1j], [1j, 0.0]])) == 2.0  # equal real parts


EPS = np.finfo(float).eps


@st.composite
def _planted_hermitian(draw):
    """(H, tol) with H = U diag(lam) U^dag, U random unitary, ||H|| ~ scale.

    The first planted eigenvalue sits at -tol plus an offset in units of
    n * eps * scale: a few units (inside the rounding window, either side)
    or about 1e12 units (clearly PSD or clearly not).
    """
    n = draw(st.integers(1, 16))
    scale = 10.0 ** draw(st.integers(0, 8))
    tol = draw(st.sampled_from([0.0, 1e-10, 1e-6]))
    units = draw(st.one_of(st.floats(-4, 4), st.floats(-1, 1).map(lambda x: 1e12 * x)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(0, scale, n)
    lam[0] = -tol + units * n * EPS * scale
    u = rand_unitary(rng, n)
    return (u * lam) @ u.conj().T, tol


@settings(max_examples=300, deadline=None, database=None)
@given(_planted_hermitian())
def test_psd_test_follows_eigenvalue_rule(case):
    h, tol = case
    verdict = is_positive_semidefinite(h, tol)
    lam_min = min_eigenvalue_hermitian(h)
    if lam_min >= -tol:
        assert verdict
    if verdict != (lam_min >= -tol):
        # Rounding window: a Cholesky factorisation that succeeds proves
        # lambda_min(H) + tol >= -O(n * eps * ||H||); over 40k planted
        # cases (n <= 36, scale <= 1e8) the largest |lambda_min + tol| on
        # a disagreement was 0.2 * n * eps * ||H||_2.
        assert abs(lam_min + tol) <= h.shape[0] * EPS * np.linalg.norm(h, 2)


def test_psd_test_skips_eigenvalues_when_cholesky_succeeds(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigenvalue fallback ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert is_positive_semidefinite(HADAMARD_CHOI, 1e-10)
    assert is_positive_semidefinite(np.eye(5), 0.0)


def test_psd_test_refusal_decided_by_eigenvalues():
    singular = np.diag([1.0, 0.0, -1e-12])
    assert not is_positive_semidefinite(singular, 0.0)
    assert is_positive_semidefinite(singular, 1e-10)
    assert not is_positive_semidefinite(np.diag([1.0, -0.5]), 0.1)
    assert is_positive_semidefinite(np.diag([1.0, -0.5]), 0.5)


def test_psd_test_ignores_a_non_finite_factor():
    # Finite and far from PSD (lambda_min = -1.4e200), yet LAPACK's
    # Cholesky factorisation can report success with NaN in its factor.
    h = np.array([[1e-300, 1e200, 1e200j], [1e200, 1, 0], [-1e200j, 0, 1]])
    assert not is_positive_semidefinite(h, 1e-10)


def test_psd_test_uses_hermitian_part():
    m = np.array([[1.0, 4.0], [0.0, 1.0]], dtype=complex)  # H = [[1, 2], [2, 1]]
    assert not is_positive_semidefinite(m, 1e-10)
    assert is_positive_semidefinite(m.T @ m, 1e-10)


def test_hermitian_part_does_not_overflow():
    # m + m^dag overflows to inf above about 9e307; m/2 + m^dag/2 does not.
    m = 1e308 * np.array([[1.0, 0.5j], [-0.5j, 1.0]])  # eigenvalues 0.5e308, 1.5e308
    # Not exactly Hermitian, so its Hermitian part has to be formed.
    skewed = 1e308 * np.array([[1.0, 0.5j], [-0.25j, 1.0]])  # part: 0.375j off the diagonal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_Hermitian(m).part(), m)
        assert min_eigenvalue_hermitian(m) == pytest.approx(0.5e308, rel=1e-12)
        assert is_positive_semidefinite(m, 1e-10)
        assert not is_positive_semidefinite(-m, 1e-10)
        assert np.array_equal(_Hermitian(skewed).part(), skewed / 2 + skewed.conj().T / 2)
        assert min_eigenvalue_hermitian(skewed) == pytest.approx(0.625e308, rel=1e-12)
        assert is_positive_semidefinite(skewed, 1e-10)
        assert not is_positive_semidefinite(-skewed, 1e-10)


def test_hermitian_part_matches_sum_then_halve():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = rand_complex(rng, (6, 6)) * 10.0 ** rng.uniform(-300, 300, (6, 6))
        assert np.array_equal(_Hermitian(m).part(), (m + m.conj().T) / 2)


def test_psd_test_non_square():
    with pytest.raises(DimensionError):
        is_positive_semidefinite(np.zeros((2, 3)), 1e-10)


@pytest.mark.parametrize(
    "shape", [(1, 1), (2, 2), (63, 63), (64, 64), (65, 65), (200, 200), (3, 70, 70), (2, 2, 5, 5)]
)
def test_mirror_in_panels_equals_the_whole_matrix_mirror(shape):
    # Panels of 64 columns: a single one, an exact fit, a one-column tail,
    # several with a ragged tail, and stacks.
    m = rand_complex(np.random.default_rng(len(shape) * 1000 + shape[-1]), shape)
    n = shape[-1]
    want = m.copy()
    np.copyto(want, want.swapaxes(-1, -2).conj(), where=np.tri(n, k=-1, dtype=bool))
    want.reshape(shape[:-2] + (n * n,))[..., :: n + 1].imag = 0
    assert _mirror_upper(m).tobytes() == want.tobytes()
