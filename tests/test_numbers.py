"""The number rule (``linalg._numbers``): the one way array values enter the package.

Every constructor, predicate and writer reads caller data by this rule, so
each refuses what the file loaders refuse, with a ``ChannelRepError``.
"""

import re

import numpy as np
import pytest

from channelrep import (
    ChoiMatrix,
    CoefficientVector,
    DimensionError,
    FileFormatError,
    KrausSet,
    ValidationError,
    apply_channel,
    channel_basis,
    combine,
    hs_inner,
    is_hermitian,
    kron,
    min_eigenvalue_hermitian,
    partial_trace_first,
    represent,
    res,
    schur_channel,
    trace_norm,
    unitary_channel,
    validate_correlation,
)
from channelrep.fileio import save_matrix_file, save_vector_file
from channelrep.linalg import _numbers

_ONE = unitary_channel(np.eye(1))

# (call, the data it is given): each reads its data by the rule.
_VALUE_CALLS = {
    "CoefficientVector": lambda d: CoefficientVector(1, 1, [d]),
    "ChoiMatrix": lambda d: ChoiMatrix(1, 1, [[d]]),
    "KrausSet": lambda d: KrausSet(1, 1, [[[d]]]),
    "apply_channel": lambda d: apply_channel(_ONE, [[d]]),
    "unitary_channel": lambda d: unitary_channel([[d]]),
    "schur_channel": lambda d: schur_channel([[d]]),
    "validate_correlation": lambda d: validate_correlation([[d]]),
    "represent": lambda d: represent(channel_basis(1, 1), [[d]]),
    "combine": lambda d: combine(channel_basis(1, 1), [d]),
    "trace_norm": lambda d: trace_norm([[d]]),
    "is_hermitian": lambda d: is_hermitian([[d]]),
    "min_eigenvalue_hermitian": lambda d: min_eigenvalue_hermitian([[d]]),
    "hs_inner": lambda d: hs_inner([[1.0]], [[d]]),
    "kron": lambda d: kron([[1.0]], [[d]]),
    "partial_trace_first": lambda d: partial_trace_first([[d]], 1, 1),
    "res": lambda d: res([[d]]),
}

_NOT_NUMBERS = [True, False, np.True_, "1", "1.5", "x", None, {}, object()]


def _leaf_id(leaf):
    # A bare object's repr names its heap address; elide it so the id is the same every run.
    return re.sub(r" at 0x[0-9a-f]+>$", " at 0x...>", repr(leaf))


@pytest.mark.parametrize("leaf", _NOT_NUMBERS, ids=_leaf_id)
@pytest.mark.parametrize("call", sorted(_VALUE_CALLS))
def test_values_that_are_not_numbers_are_refused(call, leaf):
    with pytest.raises(ValidationError, match="must contain only numbers$"):
        _VALUE_CALLS[call](leaf)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda d: CoefficientVector(1, 1, [d]), "coefficient vector must contain only numbers"),
        (lambda d: ChoiMatrix(1, 1, [[d]]), "Choi matrix must contain only numbers"),
        (lambda d: KrausSet(1, 1, [[[d]]]), "Kraus operators must contain only numbers"),
        (lambda d: apply_channel(_ONE, [[d]]), "input must contain only numbers"),
        (lambda d: trace_norm([[d]]), "matrix must contain only numbers"),
    ],
)
def test_none_is_not_a_number_and_the_message_names_the_data(make, message):
    # A None leaf was once refused as "non-finite": it is not a number at all.
    with pytest.raises(ValidationError) as exc_info:
        make(None)
    assert str(exc_info.value) == message


def test_a_complex_coefficient_is_refused():
    # Coefficients are real: a complex one is not silently cut to its real part.
    for values in ([1 + 0j], [np.complex128(1)], np.array([1 + 0j])):
        with pytest.raises(ValidationError, match="coefficient vector must contain only numbers"):
            CoefficientVector(1, 1, values)


@pytest.mark.parametrize("big", [10**400, -(10**400), 2**1024])
def test_integers_beyond_float_range_are_non_finite(big):
    with pytest.raises(ValidationError, match="^non-finite Choi matrix$"):
        ChoiMatrix(1, 1, [[big]])
    with pytest.raises(ValidationError, match="^non-finite coefficient vector$"):
        CoefficientVector(1, 1, [big])
    with pytest.raises(ValidationError, match="^non-finite matrix$"):
        trace_norm([[big]])


@pytest.mark.parametrize(
    "make",
    [
        lambda: KrausSet(2, 2, [np.eye(2), np.eye(3)]),
        lambda: KrausSet(2, 2, [[[1, 0], [0, 1]], [[1, 0], [0]]]),
        lambda: ChoiMatrix(1, 2, [[1, 0], [0]]),
        lambda: ChoiMatrix(1, 2, [[1, [0]], [0, 1]]),
        lambda: CoefficientVector(1, 2, [[1], [0, 0, 0]]),
        lambda: apply_channel(_ONE, [[1], []]),
        lambda: trace_norm([[1, 2], [3]]),
        lambda: represent(channel_basis(1, 2), [[1, 0], [0]]),
    ],
)
def test_ragged_data_is_a_dimension_error(make):
    with pytest.raises(DimensionError, match="^ragged "):
        make()


@pytest.mark.parametrize(
    "save, args, message",
    [
        (save_vector_file, (1, 1, [True]), "values must contain only numbers"),
        (save_vector_file, (1, 1, ["1"]), "values must contain only numbers"),
        (save_vector_file, (1, 1, [None]), "values must contain only numbers"),
        (save_vector_file, (1, 1, np.array([True])), "values must contain only numbers"),
        (save_vector_file, (1, 1, [10**400]), "non-finite values"),
        (save_vector_file, (1, 2, [[1], [0, 0, 0]]), "ragged values"),
        (save_matrix_file, ("choi", 1, 1, [["1"]]), "data must contain only numbers"),
        (save_matrix_file, ("choi", 1, 1, [[None]]), "data must contain only numbers"),
        (save_matrix_file, ("kraus", 1, 1, [[[True]]]), "data must contain only numbers"),
        (save_matrix_file, ("choi", 1, 1, [[10**400]]), "non-finite data"),
        (save_matrix_file, ("choi", 1, 2, [[1, 0], [0]]), "ragged data"),
        (save_vector_file, (1, 1, np.ma.array([1.0], mask=[True])), "values has masked entries"),
        (save_matrix_file, ("choi", 1, 1, np.ma.array([[1.0]], mask=[[True]])),
         "data has masked entries"),
    ],
)
def test_writers_refuse_what_is_not_a_number_and_write_nothing(tmp_path, save, args, message):
    path = tmp_path / "out.json"
    with pytest.raises(FileFormatError) as exc_info:
        save(path, *args)
    assert str(exc_info.value) == f"cannot write {path}: {message}"
    assert not path.exists()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda m: ChoiMatrix(1, 1, m), "Choi matrix has masked entries"),
        (lambda m: CoefficientVector(1, 1, m[0]), "coefficient vector has masked entries"),
    ],
    ids=["ChoiMatrix", "CoefficientVector"],
)
def test_masked_entries_are_refused(make, message):
    # A masked array, one nested in a list (numpy reads it as its data, the
    # hidden 5 included) and a masked scalar leaf.
    for data in (np.ma.array([[5.0]], mask=[[True]]), [np.ma.array([5.0], mask=[True])], [[np.ma.masked]]):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make(data)


def test_a_masked_array_is_read_as_its_data_only_when_nothing_is_masked():
    # trace_norm once read the hidden -7 and gave 8.0.
    m = np.ma.array([[1, 0], [0, -7]], mask=[[0, 0], [0, 1]])
    with pytest.raises(ValidationError, match="^matrix has masked entries$"):
        trace_norm(m)
    assert trace_norm(np.ma.array(m.data)) == 8.0
    assert ChoiMatrix(1, 1, np.ma.array([[5.0]], mask=[[False]])).matrix[0, 0] == 5.0


@pytest.mark.parametrize(
    "data",
    [
        [[1, 2.5], [np.int8(-3), np.float32(0.5)]],
        np.array([[1, 2], [3, 4]], dtype=np.int64),
        np.array([[1, 2], [3, 4]], dtype=np.uint8),
        np.array([[1, 2], [3, 4]], dtype=np.float32),
        np.array([[1, 2], [3, 4]], dtype=object),
        [[2**64, -(2**70)], [10**300, 0]],
    ],
    ids=["mixed-scalars", "int64", "uint8", "float32", "object", "huge-ints"],
)
def test_numbers_of_any_numeric_type_are_read_as_numpy_would(data):
    for dtype in (float, complex):
        got = _numbers(data, dtype)
        assert got.dtype == dtype
        assert got.tobytes() == np.array(np.array(data).tolist(), dtype=dtype).tobytes()


def test_complex_leaves_are_read_for_complex_data():
    got = _numbers([[1j, np.complex64(2 - 1j)], [3, 0.5]])
    assert got.tobytes() == np.array([[1j, 2 - 1j], [3, 0.5]]).tobytes()


def test_arrays_of_the_target_dtype_are_not_copied():
    # The hot path of represent and trace_norm: no copy and no pass over the data.
    m = np.arange(16, dtype=complex).reshape(4, 4)
    assert _numbers(m) is m
    v = np.arange(4, dtype=float)
    assert _numbers(v, float, "values") is v


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("order", ["C", "F"])
def test_value_objects_hold_their_own_c_ordered_copy(dtype, order):
    # The rule may hand back the caller's array; the constructors copy it.
    m = np.asarray(np.arange(4).reshape(2, 2) + np.eye(2), dtype=dtype, order=order)
    v = np.arange(4, dtype=dtype if dtype is float else np.int64)
    given = (m, v, m)
    held = (
        ChoiMatrix(1, 2, m).matrix,
        CoefficientVector(1, 2, v).values,
        KrausSet(2, 2, m).operators,
    )
    for mine, theirs in zip(given, held):
        assert not np.shares_memory(mine, theirs)
        assert theirs.flags.c_contiguous and not theirs.flags.writeable
        assert (theirs == mine).all()
