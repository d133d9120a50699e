import collections
import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelrep import (
    ChannelBasis,
    ChoiMatrix,
    CoefficientVector,
    DimensionError,
    DomainError,
    KrausSet,
    NotInSubspaceError,
    ValidationError,
    apply_channel,
    channel_basis,
    choi_from_kraus,
    combine,
    hermiticity_defect,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
    kron,
    order_unit_pairing,
    partial_trace_first,
    random_channel,
    represent,
    schur_channel,
    sperp_basis,
    subspace_dimension,
    trace_norm,
    unitary_channel,
)
from channelrep import choi, linalg
from channelrep.channel_basis import _gather, _scatter
from channelrep.fileio import load_matrix_file, load_vector_file, save_matrix_file, save_vector_file
from channelrep.linalg import HERMITICITY_TOL, _Hermitian, _mirror_upper

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
    rand_complex,
    rand_hermitian,
    rand_unitary,
    reference_gather,
    reference_scatter,
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
    for dx in (True, 2.5):  # a bool is not a dimension, and a float is not rounded
        with pytest.raises(DomainError, match="dimensions must be positive integers"):
            channel_basis(dx, 2)
    with pytest.raises(DomainError):
        ChannelBasis(0, 2)


def test_numpy_integer_dims_are_dims():
    b = channel_basis(np.int64(2), np.int64(2))
    assert len(b) == 13
    assert len(represent(b, random_channel(2, 2, 1, seed=5))) == 13


def test_validated_values_are_not_checked_again(monkeypatch):
    # Once a basis, a Choi matrix and a coefficient vector are built, the
    # dims rule and the number rule of arrays do not run on them again.
    basis, j = channel_basis(2, 3), random_channel(2, 3, 2, seed=5)
    vectors = (represent(basis, j), CoefficientVector(2, 3, np.ones(len(basis))))
    counts = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for module in (linalg, choi):
        count(module, "_check_positive_dims")
    for module in (linalg, choi, importlib.import_module("channelrep.channel_basis")):
        count(module, "_numbers")
    assert is_trace_preserving(j)
    assert counts == {}
    assert len(basis) == 33
    v = represent(basis, j)
    for w in vectors:
        combine(basis, w)
    assert counts["_check_positive_dims"] == 0
    assert np.array_equal(v.values, vectors[0].values)


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
    with pytest.raises(ValidationError, match="coefficient vector contains non-finite entries"):
        combine(get_basis(2, 2), values)
    with pytest.raises(ValidationError):
        CoefficientVector(dx=2, dy=2, values=values)
    # Finite, but the Helmert profiles overflow when they mix them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite entries"):
            combine(get_basis(1, 3), np.full(9, 1.7e308))


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
    # A bare scalar keeps its shape: it is not a length-1 vector or a 1x1 matrix.
    for make in (lambda: combine(get_basis(1, 1), 5.0), lambda: CoefficientVector(1, 1, 5.0)):
        with pytest.raises(DimensionError, match=r"got shape \(\)$"):
            make()
    with pytest.raises(DimensionError, match=r"must be 1x1, got \(\)$"):
        ChoiMatrix(1, 1, 5.0)


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
    assert np.abs(_gather(b, b.elements)[0] - np.eye(len(b))).max() <= 1e-15


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
    assert "labels" not in b.__dict__  # nor the labels


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


# The tracemalloc peak of each call, as a multiple of J's bytes: the value
# measured at 32x32 and 8x32 plus 10% (combine, measured at 1.50, within 1.6).
CALL_PEAK_BOUNDS = {"represent on a ChoiMatrix": 1.13, "represent on an array": 1.24,
                    "combine": 1.6, "trace_norm": 1.24}


@pytest.mark.parametrize("dx,dy", [(32, 32), (8, 32)])
def test_call_peaks_near_one_choi_matrix(dx, dy):
    j = random_channel(dx, dy, 2, seed=460)
    b, array = channel_basis(dx, dy), np.array(j.matrix)
    v = represent(b, j)  # builds the basis layout before anything is traced
    calls = {"represent on a ChoiMatrix": lambda: represent(b, j),
             "represent on an array": lambda: represent(b, array),
             "combine": lambda: combine(b, v),
             "trace_norm": lambda: trace_norm(j.matrix)}
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / j.matrix.nbytes
        finally:
            tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items() if peak > CALL_PEAK_BOUNDS[name]} == {}


# The peaks of the other calls, measured + 10% as above; 0.1 for calls that
# allocate next to nothing.  The CP test holds a copy of J and its Cholesky
# factor, and the roundtrip path the difference and the copy eigvalsh makes of
# it: both at their floor with numpy.linalg.  The file calls, measured at 8x32
# only to keep the suite fast, hold the JSON text and its Python objects.
OTHER_CALL_PEAK_BOUNDS = {"is_completely_positive": 2.2, "roundtrip path": 2.34,
                          "is_trace_preserving": 0.1, "apply_channel": 0.1,
                          "load_matrix_file": 13.3, "save_matrix_file": 15.3,
                          "load_vector_file": 3.8, "save_vector_file": 7.9}


@pytest.mark.parametrize("dx,dy", [(32, 32), (8, 32)])
def test_peaks_of_the_other_calls(dx, dy, tmp_path):
    j = random_channel(dx, dy, 2, seed=460)  # its Hermitian record is fresh
    b, x = channel_basis(dx, dy), np.eye(dx)
    v = represent(b, j)
    choi, vec = tmp_path / "c.json", tmp_path / "v.json"
    calls = {"is_completely_positive": lambda: is_completely_positive(j),
             "roundtrip path": lambda: trace_norm(j.matrix - combine(b, v).matrix),
             "is_trace_preserving": lambda: is_trace_preserving(j),
             "apply_channel": lambda: apply_channel(j, x)}
    if (dx, dy) == (8, 32):
        save_matrix_file(choi, "choi", dx, dy, j.matrix)
        save_vector_file(vec, dx, dy, v.values)
        calls |= {"load_matrix_file": lambda: load_matrix_file(choi),
                  "save_matrix_file": lambda: save_matrix_file(choi, "choi", dx, dy, j.matrix),
                  "load_vector_file": lambda: load_vector_file(vec),
                  "save_vector_file": lambda: save_vector_file(vec, dx, dy, v.values)}
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / j.matrix.nbytes
        finally:
            tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items() if peak > OTHER_CALL_PEAK_BOUNDS[name]} == {}


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
    for batched, per_item in zip(_gather(b, ms), zip(*[_gather(b, m) for m in ms])):
        assert np.array_equal(batched, np.stack(per_item))
    assert np.array_equal(_scatter(b, vs), np.stack([_scatter(b, v) for v in vs]))


@pytest.mark.parametrize("d", [32, 64])
def test_channel_basis_holds_only_its_dims(d):
    # Nothing proportional to dim(S) is built until it is read.
    b = channel_basis(d, d)
    assert vars(b) == {"dx": d, "dy": d}
    assert len(b) == subspace_dimension(d, d)
    assert vars(b) == {"dx": d, "dy": d}


def test_block_layout_built_once_per_basis():
    b = channel_basis(3, 2)
    j = random_channel(3, 2, 2, seed=470)
    assert "_layout" not in vars(b)
    v = represent(b, j)
    layout = vars(b)["_layout"]
    combine(b, represent(b, j))
    assert vars(b)["_layout"] is layout
    assert "_layout" not in vars(channel_basis(3, 2))  # held by the basis, not shared
    assert np.array_equal(represent(channel_basis(3, 2), j).values, v.values)


def _arrays(x) -> list:
    """The numpy arrays in ``x``, looking inside tuples (a NamedTuple included)."""
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, tuple):
        return [a for item in x for a in _arrays(item)]
    return []


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


@pytest.mark.parametrize("t", [1.0, 1e-4, 1e-8, 1e-10, 1e-100, 1e-160, 1e-170, 1e-300])
def test_outside_s_rejected_below_unit_norm(t):
    # diag(1, 0) at dx = 2, dy = 1: its residual trace norm equals its trace
    # t.  Tolerances relative to max(1, ||J||_F) accepted it below t = 1e-8,
    # and norms summed from plain squares, which underflow, at t = 1e-170.
    with pytest.raises(NotInSubspaceError) as exc_info:
        represent(get_basis(2, 1), t * np.diag([1.0, 0.0]))
    assert exc_info.value.residual_trace_norm == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("t", [1.0, 1e-150, 1e-170, 1e-300])
def test_scale_is_the_norm_where_squares_underflow(t):
    m = random_channel(2, 3, 2, seed=3).matrix
    assert _Hermitian(t * m).scale() == pytest.approx(t * np.linalg.norm(m), rel=1e-14, abs=0)


def test_zero_matrix_is_in_s():
    # s = ||J||_F = 0, so every tolerance is 0: the zero matrix passes them
    # exactly, and its coefficients are all zero.
    assert _Hermitian(np.zeros((4, 4), dtype=complex)).scale() == 0.0
    assert not represent(get_basis(2, 2), np.zeros((4, 4))).values.any()


# Residual shapes for the membership bound ||R||_1 <= sqrt(dx) ||R||_F.  On
# a traceless +-1 diagonal with even dx the two sides are equal, so a bound
# without its sqrt(dx) accepts residuals above the tolerance.  A "skew"
# input also carries an anti-Hermitian part below HERMITICITY_TOL, which the
# residual of all of J contains.  In "pairs skew" the residual is
# c * sigma_x on pairs of rows, as small as the default tolerance, and the
# anti-Hermitian part (just under HERMITICITY_TOL) lowers its upper entries
# by about 1% of c: a read of the upper triangle alone would judge a
# residual below the one of all of J.
PLANTED = [
    (2, 2, "flat"), (4, 2, "flat"), (4, 3, "flat"), (2, 3, "random"), (3, 3, "random"), (4, 2, "random"),
    (2, 2, "flat skew"), (4, 3, "flat skew"), (3, 3, "random skew"), (4, 2, "random skew"),
    (2, 1, "pairs skew"), (2, 3, "pairs skew"), (4, 2, "pairs skew"),
]


def _planted(dx, dy, shape, scale):
    """(m, ||R||_1, s) for a channel plus a residual of the given shape; R is
    read from all of m, as the full-matrix rule does."""
    rng = np.random.default_rng(480 + dx * dy)
    size = 1e-3
    if shape.startswith("flat"):
        h = np.diag([1.0, -1.0] * (dx // 2))
    elif shape.startswith("pairs"):
        h, size = kron(np.eye(dx // 2), np.array([[0.0, 1.0], [1.0, 0.0]])), 1e-8
    else:
        h = rand_hermitian(rng, dx)
        h -= np.trace(h) / dx * np.eye(dx)
    m = scale * (random_channel(dx, dy, dx * dy, seed=481).matrix + size * kron(np.eye(dy), h))
    if shape.startswith("pairs"):  # lower each upper entry of h, raise its mirror
        a = 0.45 * HERMITICITY_TOL * np.linalg.norm(m)
        rows = np.flatnonzero(np.triu(kron(np.eye(dy), h)).any(axis=1))
        m[rows, rows + 1] -= a
        m[rows + 1, rows] += a
    elif shape.endswith("skew"):  # an anti-Hermitian part with max-abs entry 1e-12 * s
        k = rand_complex(rng, m.shape)
        skew = k - k.conj().T
        m = m + 1e-12 * np.linalg.norm(m) * skew / np.abs(skew).max()
    resid = ptrace_first_loop(m, dy, dx)
    resid -= np.trace(resid) / dx * np.eye(dx)
    return m, np.linalg.svd(resid, compute_uv=False).sum(), np.linalg.norm(m)


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("t", [0.5, 0.99, 1.005, 1.01, 2.0])
@pytest.mark.parametrize("dx,dy,shape", PLANTED)
def test_membership_verdict_at_planted_residual(dx, dy, shape, t, scale):
    m, exact, s = _planted(dx, dy, shape, scale)
    tol = exact / (t * s)  # the residual sits at t * tol * s
    b = get_basis(dx, dy)
    assert (hermiticity_defect(m) > 0) == shape.endswith("skew")
    if t <= 1:
        assert np.array_equal(represent(b, m, membership_tol=tol).values, _gather(b, m)[0])
    else:
        with pytest.raises(NotInSubspaceError) as exc_info:
            represent(b, m, membership_tol=tol)
        assert exc_info.value.residual_trace_norm == pytest.approx(exact, rel=1e-12)


@st.composite
def _planted_membership(draw):
    """(basis, m, residual by the full-matrix rule, s): a channel plus a
    planted residual t * (I_Y (x) h), t in [1e-10, 1e-1], at a scale in
    [1e-3, 1e8], exactly Hermitian or with an anti-Hermitian part of max-abs
    entry 0.4 * HERMITICITY_TOL * s."""
    dx, dy = draw(st.integers(2, 6)), draw(st.integers(1, 6))  # R = 0 when dx = 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = int(rng.integers(-(-dx // dy), dx * dy + 1))
    h = rand_hermitian(rng, dx)
    h -= np.trace(h) / dx * np.eye(dx)
    h /= np.linalg.norm(h)
    t, scale = 10.0 ** rng.uniform(-10, -1), 10.0 ** rng.uniform(-3, 8)
    m = scale * (random_channel(dx, dy, rank, int(rng.integers(2**31))).matrix
                 + t * kron(np.eye(dy), h))
    if draw(st.booleans()):
        k = rand_complex(rng, m.shape)
        skew = k - k.conj().T
        m = m + 0.4 * HERMITICITY_TOL * np.linalg.norm(m) * skew / np.abs(skew).max()
    # The full-matrix rule: Tr_Y J, minus its complex trace / dx on the diagonal.
    r = partial_trace_first(m, dy, dx)
    r.flat[:: dx + 1] -= np.trace(r) / dx
    return get_basis(dx, dy), m, trace_norm(r), _Hermitian(m).scale()


@settings(max_examples=60, deadline=None, database=None)
@given(_planted_membership(), st.sampled_from([0.3, 0.9, 0.98, 1.02, 1.1, 3.0]))
def test_membership_verdict_and_residual_equal_the_full_matrix_rule(planted, ratio):
    # The residual sits at ratio * tol * s: rejected exactly when ratio > 1,
    # and the reported residual is the full-matrix rule's, bit for bit.
    b, m, want, s = planted
    tol = want / (ratio * s)
    if ratio < 1:
        represent(b, m, membership_tol=tol)
    else:
        with pytest.raises(NotInSubspaceError) as exc_info:
            represent(b, m, membership_tol=tol)
        assert exc_info.value.residual_trace_norm == want


def test_near_hermitian_input_is_judged_by_its_whole_residual():
    # J - J^dag is 1.4e-10, under HERMITICITY_TOL * s = 1.414e-10.  The upper
    # triangle alone gives a residual of trace norm 1.410e-8, under the
    # tolerance 1e-8 * s = 1.414e-8; all of J gives 2c = 1.424e-8, above it.
    c, d = 7.12e-9, 7e-11
    m = np.array([[1.0, c - d], [c + d, 1.0]], dtype=complex)
    with pytest.raises(NotInSubspaceError) as exc_info:
        represent(get_basis(2, 1), m)
    assert exc_info.value.residual_trace_norm == pytest.approx(2 * c, rel=1e-6)


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


@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_constructed_choi_matrices_are_exactly_hermitian(dx, dy, seed):
    rng = np.random.default_rng(seed)
    kraus = KrausSet(dx=dx, dy=dy, operators=rand_complex(rng, (3, dy, dx)))
    rank = int(rng.integers(-(-dx // dy), dx * dy + 1))
    for j in (
        random_channel(dx, dy, rank, seed=seed),
        choi_from_kraus(kraus),
        unitary_channel(rand_unitary(rng, dx)),
    ):
        assert np.array_equal(j.matrix, j.matrix.conj().T)


@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_exact_mark_equals_the_comparison(dx, dy, seed):
    # These constructors mark the record of their output exact instead of
    # comparing J with J^dag; the comparison must agree with the mark.
    rng = np.random.default_rng(seed)
    b = get_basis(dx, dy)
    v = rng.standard_normal(len(b)) * 10.0 ** rng.uniform(-8, 8, len(b))
    for j in (
        combine(b, v),
        choi_from_kraus(KrausSet(dx=dx, dy=dy, operators=rand_complex(rng, (3, dy, dx)))),
        unitary_channel(rand_unitary(rng, dx)),
    ):
        marked = vars(j)["_hermitian"]
        assert marked.exact is True
        compared = _Hermitian(j.matrix)
        assert (compared.exact, compared.defect) == (True, 0.0) == (marked.exact, marked.defect)


def test_predicates_on_combine_output_make_no_comparison(monkeypatch):
    def forbidden(self):
        raise AssertionError("an exactly Hermitian Choi matrix compared with its adjoint")

    b = get_basis(3, 2)
    j = combine(b, represent(b, random_channel(3, 2, 2, seed=490)))
    monkeypatch.setattr(_Hermitian, "_compare", forbidden)
    assert is_completely_positive(j) and is_hermiticity_preserving(j)
    assert order_unit_pairing(j) == pytest.approx(1.0)
    assert np.array_equal(represent(b, j).values, _gather(b, j.matrix)[0])


@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_gather_reads_only_what_the_mirror_keeps(dx, dy, seed):
    # Mirroring changes entries below the diagonal and the imaginary parts
    # on it; the coefficients do not read them.  Tr_Y J, the second output,
    # reads both triangles of the diagonal blocks by design.
    rng = np.random.default_rng(seed)
    b, n = get_basis(dx, dy), dx * dy
    m = rand_hermitian(rng, n) + 1e-12 * rand_complex(rng, (n, n))
    mirrored = _mirror_upper(m.copy())
    assert np.array_equal(mirrored, mirrored.conj().T)
    assert _gather(b, m)[0].tobytes() == _gather(b, mirrored)[0].tobytes()


@settings(max_examples=50, deadline=None, database=None)
@given(_channels(), st.integers(0, 2**32 - 1))
def test_coefficients_keep_the_frobenius_norm(j, seed):
    # The basis is orthonormal, so ||v||_2 = ||J||_F (Parseval), both ways.
    b = get_basis(j.dx, j.dy)
    v = represent(b, j).values
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(j.matrix), rel=1e-12)
    w = np.random.default_rng(seed).standard_normal(len(b))
    assert np.linalg.norm(combine(b, w).matrix) == pytest.approx(np.linalg.norm(w), rel=1e-12)


@settings(max_examples=16, deadline=None, database=None)
@given(st.integers(1, 8), st.integers(1, 8))
def test_block_layout_bytes_grow_with_dx2_plus_dy2(dx, dy):
    # Indices and weights per block row and per block: none per Choi entry.
    b = channel_basis(dx, dy)
    size = sum(a.nbytes for a in _arrays(b._layout))
    assert 0 < size <= 8 * (8 * dx * dx + 8 * dy * dy)


def test_no_basis_array_grows_with_the_choi_matrix():
    d = 32
    b = channel_basis(d, d)
    j = combine(b, represent(b, random_channel(d, d, 1, seed=480)))
    assert "_layout" in vars(b)
    assert all(a.size < j.matrix.size for a in _arrays(tuple(vars(b).values())))


@st.composite
def _block_inputs(draw):
    """A basis with dx, dy <= 6, a batch shape, and matrices of that batch:
    random channels or non-Hermitian complex matrices."""
    dx, dy = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    batch = draw(st.sampled_from([(), (2,), (7,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = dx * dy
    if draw(st.booleans()):
        ranks = rng.integers(-(-dx // dy), n + 1, size=batch)
        seeds = rng.integers(2**31, size=batch)
        m = np.array([random_channel(dx, dy, int(r), int(s)).matrix
                      for r, s in zip(ranks.reshape(-1), seeds.reshape(-1))])
        m = m.reshape(batch + (n, n))
    else:
        m = rand_complex(rng, batch + (n, n))
    return get_basis(dx, dy), m, rng


def _assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_gather_equals_references(b, m):
    """Coefficients byte for byte as the table read; Tr_Y J equal to the
    per-entry loop, item by item."""
    values, reduced = _gather(b, m)
    _assert_same_bytes(values, reference_gather(b, m))
    items = m.reshape((-1,) + m.shape[-2:])
    loop = np.array([ptrace_first_loop(x, b.dy, b.dx) for x in items])
    assert reduced.shape == m.shape[:-2] + (2 * b.dx * b.dx,) and reduced.dtype == float
    assert np.array_equal(reduced.view(complex), loop.reshape(m.shape[:-2] + (-1,)))


@settings(max_examples=60, deadline=None, database=None)
@given(_block_inputs())
def test_block_read_and_write_equal_the_table_reference(inputs):
    b, m, rng = inputs
    _assert_gather_equals_references(b, m)
    shape = m.shape[:-2] + (len(b),)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    _assert_same_bytes(_scatter(b, v), reference_scatter(b, v))


@pytest.mark.parametrize("d", [16, 32])
def test_block_read_and_write_equal_the_table_reference_at_scale(d):
    rng = np.random.default_rng(d)
    b, n = channel_basis(d, d), d * d
    for m in (random_channel(d, d, 2, seed=d).matrix, rand_complex(rng, (n, n))):
        _assert_gather_equals_references(b, m)
    v = rng.standard_normal(len(b))
    _assert_same_bytes(_scatter(b, v), reference_scatter(b, v))


def test_pairing_rejects_overflowing_norm_before_hermiticity():
    # m - m^dag would overflow; the norm check comes first, with no warning.
    m = np.array([[0, 1.5e308], [-1.5e308, 0]], dtype=complex)
    with pytest.raises(ValidationError, match="non-finite Frobenius norm"):
        order_unit_pairing(ChoiMatrix(dx=1, dy=2, matrix=m))
