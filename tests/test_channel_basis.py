import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelrep import (
    ChoiMatrix,
    CoefficientVector,
    DimensionError,
    DomainError,
    KrausSet,
    NotInSubspaceError,
    ValidationError,
    channel_basis,
    choi_from_kraus,
    combine,
    is_trace_preserving,
    kron,
    order_unit_pairing,
    random_channel,
    represent,
    schur_channel,
    sperp_basis,
    subspace_dimension,
    trace_norm,
    unitary_channel,
)
from channelrep.channel_basis import _gather, _scatter

from fixtures import (
    CORRELATION_FULL,
    HADAMARD,
    HADAMARD_CHOI,
    HADAMARD_COEFF_MULTISET,
    SCHUR_COEFF_MULTISET,
    dense_channel_basis,
    dense_combine,
    dense_represent,
    feasible_triples,
    get_basis,
    multiset_dev,
    ptrace_first_loop,
    rand_hermitian,
    rand_unitary,
)

# Shapes for comparisons against the dense reference: (d, d), (d, d+1),
# (d+1, d), and a trivial input or output factor.
REFERENCE_DIMS = [(2, 2), (3, 3), (2, 3), (3, 4), (3, 2), (4, 3), (1, 1), (1, 3), (3, 1)]


def test_subspace_dimension_examples():
    assert subspace_dimension(2, 2) == 13
    assert subspace_dimension(3, 3) == 73
    assert subspace_dimension(2, 3) == 33


@pytest.mark.parametrize("dx", range(1, 6))
@pytest.mark.parametrize("dy", range(1, 6))
def test_subspace_dimension_formula_and_count(dx, dy):
    expected = dx * dx * dy * dy - dx * dx + 1
    assert subspace_dimension(dx, dy) == expected
    assert len(get_basis(dx, dy)) == expected


def test_subspace_dimension_invalid():
    with pytest.raises(DomainError):
        subspace_dimension(0, 2)


def test_channel_basis_trivial():
    b = get_basis(1, 1)
    assert len(b) == 1
    assert np.array_equal(b.elements[0], np.array([[1.0 + 0j]]))


def test_element0_is_scaled_identity():
    for dx, dy in [(2, 2), (2, 3), (3, 3), (4, 2)]:
        b = get_basis(dx, dy)
        n = dx * dy
        assert np.abs(b.elements[0] - np.eye(n) / np.sqrt(n)).max() <= 1e-15


@pytest.mark.parametrize("dx,dy", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
def test_orthonormality(dx, dy):
    stack = get_basis(dx, dy).elements
    flat = stack.reshape(len(stack), -1)
    gram = flat.conj() @ flat.T
    assert np.abs(gram - np.eye(len(stack))).max() <= 1e-12


@pytest.mark.parametrize("dx,dy", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_elements_hermitian_and_perp_to_sperp(dx, dy):
    b = get_basis(dx, dy)
    sp = sperp_basis(dx, dy)
    for e in b.elements:
        assert np.abs(e - e.conj().T).max() <= 1e-15
    for w in sp:
        overlaps = np.tensordot(b.elements.conj(), w, axes=([1, 2], [0, 1]))
        assert np.abs(overlaps).max() <= 1e-12


def test_sperp_counts():
    assert sperp_basis(2, 2).shape[0] == 3
    assert sperp_basis(1, 5).shape[0] == 0
    assert sperp_basis(3, 2).shape[0] == 8


def test_sperp_elements_structure():
    sp = sperp_basis(2, 3)
    for w in sp:
        assert np.abs(w - w.conj().T).max() <= 1e-15
        # tracing the output factor leaves a traceless matrix
        reduced = np.einsum("abac->bc", w.reshape(3, 2, 3, 2))
        assert abs(np.trace(reduced)) <= 1e-12
        assert np.abs(reduced).max() > 0.1


def test_s_plus_sperp_reconstructs_hermitian():
    rng = np.random.default_rng(400)
    for dx, dy in [(2, 2), (2, 3), (3, 3)]:
        b = get_basis(dx, dy)
        sp = sperp_basis(dx, dy)
        n = dx * dy
        for _ in range(5):
            m = rand_hermitian(rng, n)
            rec = np.tensordot(
                np.tensordot(b.elements.conj(), m, axes=([1, 2], [0, 1])),
                b.elements,
                axes=1,
            )
            if len(sp):
                rec = rec + np.tensordot(
                    np.tensordot(sp.conj(), m, axes=([1, 2], [0, 1])), sp, axes=1
                )
            assert np.abs(rec - m).max() <= 1e-12


def test_labels():
    b = get_basis(2, 2)
    assert b.labels[0] == ("identity",)
    kinds = [label[0] for label in b.labels]
    assert kinds.count("diag_proj") == 2
    assert kinds.count("diag_sym") == 1
    assert kinds.count("diag_antisym") == 1
    assert kinds.count("pair_sym") == 4
    assert kinds.count("pair_antisym") == 4


def test_invalid_dims():
    with pytest.raises(DomainError):
        channel_basis(0, 2)
    with pytest.raises(DomainError):
        sperp_basis(2, 0)


def test_represent_hadamard_multiset():
    v = represent(get_basis(2, 2), unitary_channel(HADAMARD))
    assert len(v) == 13
    assert multiset_dev(v.values, HADAMARD_COEFF_MULTISET) <= 1e-4


def test_represent_schur_multiset():
    v = represent(get_basis(3, 3), schur_channel(CORRELATION_FULL))
    assert len(v) == 73
    assert multiset_dev(v.values, SCHUR_COEFF_MULTISET) <= 1e-4


def test_represent_accepts_bare_matrix():
    v = represent(get_basis(2, 2), HADAMARD_CHOI)
    assert multiset_dev(v.values, HADAMARD_COEFF_MULTISET) <= 1e-4


@pytest.mark.parametrize("d", [2, 3, 4])
def test_represent_identity_channel_first_coefficient(d):
    j = choi_from_kraus(KrausSet(dx=d, dy=d, operators=[np.eye(d)]))
    v = represent(get_basis(d, d), j)
    assert v.values[0] == pytest.approx(1.0, abs=1e-12)


def test_roundtrip_choi_to_vector_to_choi():
    count = 0
    for i, (dx, dy, rank) in enumerate(feasible_triples()):
        j = random_channel(dx, dy, rank, seed=500 + i)
        b = get_basis(dx, dy)
        rec = combine(b, represent(b, j))
        assert trace_norm(j.matrix - rec.matrix) <= 1e-12
        count += 1
    assert count > 30


def test_roundtrip_vector_to_choi_to_vector():
    rng = np.random.default_rng(401)
    for dx, dy in [(2, 2), (2, 3), (3, 2)]:
        b = get_basis(dx, dy)
        v = rng.standard_normal(len(b))
        back = represent(b, combine(b, v))
        assert np.abs(back.values - v).max() <= 1e-12


def test_fixed_first_coefficient():
    for i, (dx, dy, rank) in enumerate(feasible_triples(3, 3)):
        j = random_channel(dx, dy, rank, seed=600 + i)
        v = represent(get_basis(dx, dy), j)
        assert abs(v.values[0] - np.sqrt(dx / dy)) <= 1e-10


def test_order_unit_pairing_fixtures():
    assert order_unit_pairing(unitary_channel(HADAMARD)) == pytest.approx(1.0, abs=1e-10)
    assert order_unit_pairing(schur_channel(CORRELATION_FULL)) == pytest.approx(1.0, abs=1e-10)
    doubled = ChoiMatrix(dx=2, dy=2, matrix=2 * HADAMARD_CHOI)
    assert order_unit_pairing(doubled) == pytest.approx(2.0, abs=1e-10)


def test_pairing_one_on_psd_in_s_forces_tp():
    # Mix channels, rescale to unit pairing, and the result must be TP.
    j1 = random_channel(3, 2, 2, seed=700)
    j2 = random_channel(3, 2, 4, seed=701)
    mixed = 1.7 * (0.4 * j1.matrix + 0.6 * j2.matrix)
    j = ChoiMatrix(dx=3, dy=2, matrix=mixed)
    scale = order_unit_pairing(j)
    assert scale == pytest.approx(1.7, abs=1e-10)
    normalized = ChoiMatrix(dx=3, dy=2, matrix=mixed / scale)
    assert order_unit_pairing(normalized) == pytest.approx(1.0, abs=1e-10)
    assert is_trace_preserving(normalized, tol=1e-8)


def test_represent_rejects_sperp_direction():
    h = np.diag([1.0, -1.0])
    j = kron(np.eye(2), h)  # entirely inside the complement of S
    with pytest.raises(NotInSubspaceError) as exc_info:
        represent(get_basis(2, 2), j)
    assert exc_info.value.residual_trace_norm > 1.0


def test_represent_membership_boundary():
    # kron(b, h) with traceless h: in S iff trace(b) is zero.
    h = np.diag([1.0, -1.0])
    b_traceful = np.diag([1.0, 2.0])
    b_traceless = np.diag([1.0, -1.0])
    basis = get_basis(2, 2)
    with pytest.raises(NotInSubspaceError):
        represent(basis, kron(b_traceful, h))
    v = represent(basis, kron(b_traceless, h))
    rec = combine(basis, v)
    assert trace_norm(rec.matrix - kron(b_traceless, h)) <= 1e-12


def test_represent_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValidationError):
        represent(get_basis(2, 2), m)


def test_represent_dimension_mismatch():
    with pytest.raises(DimensionError):
        represent(get_basis(2, 2), np.eye(6))
    with pytest.raises(DimensionError):
        represent(get_basis(2, 2), unitary_channel(np.eye(3)))


def test_combine_zero_vector():
    b = get_basis(2, 2)
    j = combine(b, np.zeros(13))
    assert np.abs(j.matrix).max() == 0.0


def test_combine_first_unit_vector():
    b = get_basis(2, 2)
    e0 = np.zeros(13)
    e0[0] = 1.0
    j = combine(b, e0)
    assert np.abs(j.matrix - np.eye(4) / 2).max() <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_represent_rejects_non_finite(bad):
    m = np.asarray(HADAMARD_CHOI).copy()
    m[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite Frobenius norm"):
            represent(get_basis(2, 2), m)


def test_represent_rejects_overflowing_norm():
    # ||J||_F overflows to inf, which would make every tolerance inf.
    outside = 1e200 * kron(np.eye(2), np.diag([1.0, -1.0]))  # wholly outside S
    non_hermitian = np.zeros((4, 4), dtype=complex)
    non_hermitian[0, 1] = 1e200
    channel = ChoiMatrix(dx=2, dy=2, matrix=1e200 * HADAMARD_CHOI)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (outside, non_hermitian, channel):
            with pytest.raises(ValidationError, match="non-finite Frobenius norm"):
                represent(get_basis(2, 2), m)
        with pytest.raises(ValidationError, match="non-finite Frobenius norm"):
            order_unit_pairing(channel)


def test_non_finite_coefficients_raise_validation_error():
    values = np.zeros(13)
    values[3] = np.nan
    with pytest.raises(ValidationError):
        combine(get_basis(2, 2), values)
    with pytest.raises(ValidationError):
        CoefficientVector(dx=2, dy=2, values=values)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pairing_of_rotated_scaled_channel(seed):
    # A rotated full-rank channel times 1e8 has a Hermiticity defect of a
    # few 1e-9 from rounding: above HERMITICITY_TOL, far below 1e-10 * s.
    scale = 1e8
    v = np.kron(rand_unitary(np.random.default_rng(seed), 4), np.eye(4))
    m = scale * (v @ random_channel(4, 4, 16, seed=900 + seed).matrix @ v.conj().T)
    j = ChoiMatrix(dx=4, dy=4, matrix=m)
    assert represent(get_basis(4, 4), j).values[0] == pytest.approx(scale, rel=1e-12)
    assert order_unit_pairing(j) == pytest.approx(scale, rel=1e-12)


def test_combine_length_mismatch():
    with pytest.raises(DimensionError):
        combine(get_basis(2, 2), np.zeros(12))


def test_represent_combine_on_hadamard():
    b = get_basis(2, 2)
    j = unitary_channel(HADAMARD)
    rec = combine(b, represent(b, j))
    assert trace_norm(j.matrix - rec.matrix) <= 1e-12
    assert np.abs(rec.matrix - HADAMARD_CHOI).max() <= 1e-12


@pytest.mark.parametrize("dx", range(1, 6))
@pytest.mark.parametrize("dy", range(1, 6))
def test_elements_equal_dense_reference(dx, dy):
    ref = dense_channel_basis(dx, dy)
    b = channel_basis(dx, dy)
    assert b.labels == tuple(ref)
    assert np.array_equal(b.elements, np.stack(list(ref.values())))
    assert not b.elements.flags.writeable
    # Reading the whole stack at once (leading batch axis) inverts the write.
    assert np.abs(_gather(b, b.elements) - np.eye(len(b))).max() <= 1e-15


@pytest.mark.parametrize("dx,dy", REFERENCE_DIMS)
def test_represent_combine_match_dense_reference(dx, dy):
    rng = np.random.default_rng(410 + 10 * dx + dy)
    b = channel_basis(dx, dy)
    for i in range(3):
        j = random_channel(dx, dy, dx * dy, seed=420 + i).matrix
        v = rng.standard_normal(len(b))
        in_s = j + dense_combine(dx, dy, v)
        assert np.abs(represent(b, in_s).values - dense_represent(dx, dy, in_s)).max() <= 1e-12
        assert np.abs(combine(b, v).matrix - dense_combine(dx, dy, v)).max() <= 1e-12
    assert "elements" not in b.__dict__  # represent/combine never build the stack


@pytest.mark.parametrize("dx,dy", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_residual_matches_dense_projection(dx, dy):
    rng = np.random.default_rng(430)
    m = rand_hermitian(rng, dx * dy)
    with pytest.raises(NotInSubspaceError) as exc_info:
        represent(get_basis(dx, dy), m)
    dense_residual = trace_norm(m - dense_combine(dx, dy, dense_represent(dx, dy, m)))
    reduced = np.einsum("abac->bc", m.reshape(dy, dx, dy, dx))
    formula = trace_norm(reduced - np.trace(reduced) / dx * np.eye(dx))
    got = exc_info.value.residual_trace_norm
    assert got == pytest.approx(dense_residual, rel=1e-9)
    assert got == pytest.approx(formula, rel=1e-9)


def test_round_trip_16x16_bounded_memory():
    # The dense element stack alone would take about 68 GB at this size.
    j = random_channel(16, 16, 3, seed=440)
    tracemalloc.start()
    try:
        b = channel_basis(16, 16)
        rec = combine(b, represent(b, j))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert trace_norm(j.matrix - rec.matrix) <= 1e-12 * 16


@pytest.mark.parametrize("dx,dy", [d for d in REFERENCE_DIMS if d != (1, 1)])
def test_represent_non_contiguous_input(dx, dy):
    b = channel_basis(dx, dy)
    j = random_channel(dx, dy, dx * dy, seed=450).matrix
    # Every other column: its rows still flatten to one strided run of entries.
    wide = np.zeros((dx * dy, 2 * dx * dy), dtype=complex)
    wide[:, ::2] = j
    for m in [j.T.conj(), np.asfortranarray(j), wide[:, ::2]]:
        assert not m.flags.c_contiguous
        assert np.array_equal(represent(b, m).values, represent(b, m.copy(order="C")).values)


@pytest.mark.parametrize("dx,dy", REFERENCE_DIMS)
def test_batch_gather_scatter_equal_per_item(dx, dy):
    rng = np.random.default_rng(460)
    b, n = channel_basis(dx, dy), dx * dy
    ms = np.stack([rand_hermitian(rng, n) for _ in range(4)])
    vs = rng.standard_normal((4, len(b)))
    assert np.array_equal(_gather(b, ms), np.stack([_gather(b, m) for m in ms]))
    assert np.array_equal(_scatter(b, vs), np.stack([_scatter(b, v) for v in vs]))


def test_index_tables_built_once_per_basis():
    b = channel_basis(3, 2)
    j = random_channel(3, 2, 2, seed=470)
    assert "_tables" not in b.__dict__
    v = represent(b, j)
    tables = b.__dict__["_tables"]
    combine(b, represent(b, j))
    assert b.__dict__["_tables"] is tables
    assert "_tables" not in channel_basis(3, 2).__dict__  # held by the basis, not shared
    assert np.array_equal(represent(channel_basis(3, 2), j).values, v.values)


@st.composite
def _channels(draw):
    dx, dy = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rank = draw(st.integers(-(-dx // dy), dx * dy))
    return random_channel(dx, dy, rank, seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=25, deadline=None, database=None)
@given(_channels())
def test_scaled_channel_accepted(j):
    scale = 1e8
    v = represent(get_basis(j.dx, j.dy), j.matrix * scale)
    assert v.values[0] == pytest.approx(scale * np.sqrt(j.dx / j.dy), rel=1e-12)


@settings(max_examples=25, deadline=None, database=None)
@given(
    _channels().filter(lambda j: j.dx > 1),
    st.floats(1e-4, 1e4),
    st.sampled_from([1.0, 1e8]),
    st.integers(0, 2**31 - 1),
)
def test_sperp_direction_rejected_at_any_scale(j, t, scale, seed):
    h = rand_hermitian(np.random.default_rng(seed), j.dx)
    h -= np.trace(h) / j.dx * np.eye(j.dx)
    h /= np.linalg.norm(h)
    m = scale * (j.matrix + t * kron(np.eye(j.dy), h))
    with pytest.raises(NotInSubspaceError) as exc_info:
        represent(get_basis(j.dx, j.dy), m)
    want = scale * t * j.dy * trace_norm(h)
    assert exc_info.value.residual_trace_norm == pytest.approx(want, rel=1e-9)


# Residual shapes for the membership bound ||R||_1 <= sqrt(dx) ||R||_F.  On
# a traceless +-1 diagonal with even dx the two sides are equal, so a bound
# without its sqrt(dx) accepts residuals above the tolerance.
PLANTED = [(2, 2, "flat"), (4, 2, "flat"), (4, 3, "flat"), (2, 3, "random"), (3, 3, "random"), (4, 2, "random")]


def _planted(dx, dy, shape, scale):
    """(m, ||R||_1, s) for a channel plus a residual of the given shape."""
    rng = np.random.default_rng(480 + dx * dy)
    if shape == "flat":
        h = np.diag([1.0, -1.0] * (dx // 2))
    else:
        h = rand_hermitian(rng, dx)
        h -= np.trace(h) / dx * np.eye(dx)
    m = scale * (random_channel(dx, dy, dx * dy, seed=481).matrix + 1e-3 * kron(np.eye(dy), h))
    resid = ptrace_first_loop(m, dy, dx)
    resid -= np.trace(resid) / dx * np.eye(dx)
    return m, np.linalg.svd(resid, compute_uv=False).sum(), max(1.0, np.linalg.norm(m))


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("t", [0.5, 0.99, 1.01, 2.0])
@pytest.mark.parametrize("dx,dy,shape", PLANTED)
def test_membership_verdict_at_planted_residual(dx, dy, shape, t, scale):
    m, exact, s = _planted(dx, dy, shape, scale)
    tol = exact / (t * s)  # the residual sits at t * tol * s
    b = get_basis(dx, dy)
    if t <= 1:
        assert np.array_equal(represent(b, m, membership_tol=tol).values, _gather(b, m))
    else:
        with pytest.raises(NotInSubspaceError) as exc_info:
            represent(b, m, membership_tol=tol)
        assert exc_info.value.residual_trace_norm == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("t", [0.5, 0.99])
@pytest.mark.parametrize("dx,dy,shape", [p for p in PLANTED if p[2] == "flat"])
def test_membership_bound_accepts_without_trace_norm(monkeypatch, dx, dy, shape, t):
    def forbidden(m):
        raise AssertionError("trace norm computed on an accepted input")

    m, exact, s = _planted(dx, dy, shape, 1.0)
    # The package exports the function channel_basis under the module's name.
    module = importlib.import_module("channelrep.channel_basis")
    monkeypatch.setattr(module, "trace_norm", forbidden)
    represent(get_basis(dx, dy), m, membership_tol=exact / (t * s))


@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_combine_output_is_exactly_hermitian(dx, dy, seed):
    rng = np.random.default_rng(seed)
    b = get_basis(dx, dy)
    v = rng.standard_normal(len(b)) * 10.0 ** rng.uniform(-8, 8, len(b))
    j = combine(b, v).matrix
    assert np.array_equal(j, j.conj().T)
