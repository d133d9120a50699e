import copy
import errno
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelrep import (
    ChannelBasis,
    ChannelRepError,
    ChoiMatrix,
    CoefficientVector,
    FileFormatError,
    KrausSet,
    channel_basis,
    choi_from_kraus,
    schur_channel,
    unitary_channel,
)
from channelrep.fileio import (
    load_matrix_file,
    load_vector_file,
    matrix_file_to_choi,
    save_basis_file,
    save_matrix_file,
    save_vector_file,
)

from fixtures import CORRELATION_2DP, HADAMARD, MALFORMED_FILES, _is_json_number, rand_complex
from fixtures import dense_channel_basis, reference_load


def test_choi_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(900)
    m = rand_complex(rng, (6, 6))
    path = tmp_path / "m.json"
    save_matrix_file(path, "choi", 2, 3, m)
    back = load_matrix_file(path)
    assert back.kind == "choi"
    assert (back.dx, back.dy) == (2, 3)
    assert np.array_equal(back.data, m)


def test_unitary_round_trip(tmp_path):
    path = tmp_path / "u.json"
    save_matrix_file(path, "unitary", 2, 2, HADAMARD)
    back = load_matrix_file(path)
    assert np.array_equal(back.data, HADAMARD)


def test_kraus_round_trip(tmp_path):
    rng = np.random.default_rng(901)
    ops = [rand_complex(rng, (3, 2)) for _ in range(2)]
    path = tmp_path / "k.json"
    save_matrix_file(path, "kraus", 2, 3, ops)
    back = load_matrix_file(path)
    assert back.data.shape == (2, 3, 2)
    assert np.array_equal(back.data, np.stack(ops))


def test_vector_round_trip(tmp_path):
    rng = np.random.default_rng(902)
    values = rng.standard_normal(13)
    path = tmp_path / "v.json"
    save_vector_file(path, 2, 2, values)
    back = load_vector_file(path)
    assert (back.dx, back.dy) == (2, 2)
    assert np.array_equal(back.values, values)


def test_vector_file_loads_as_a_read_only_coefficient_vector(tmp_path):
    path = tmp_path / "v.json"
    save_vector_file(path, 1, 2, [0.5, -0.0, 1e300, 5e-324])
    v = load_vector_file(path)
    assert type(v) is CoefficientVector
    assert not v.values.flags.writeable
    with pytest.raises(ValueError):
        v.values[0] = 1.0
    # The same value the public constructor would build from the file's numbers.
    want = CoefficientVector(dx=1, dy=2, values=[0.5, -0.0, 1e300, 5e-324])
    assert (type(v.dx), type(v.dy), v.dx, v.dy) == (int, int, want.dx, want.dy)
    assert v.values.dtype == want.values.dtype and v.values.flags.c_contiguous
    assert v.values.tobytes() == want.values.tobytes() and len(v) == 4


def test_save_is_canonical_and_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix_file(p1, "correlation", 3, 3, CORRELATION_2DP)
    save_matrix_file(p2, "correlation", 3, 3, CORRELATION_2DP)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert list(doc.keys()) == ["kind", "dx", "dy", "data"]


def test_matrix_file_to_choi_conversions(tmp_path):
    path = tmp_path / "f.json"

    save_matrix_file(path, "unitary", 2, 2, HADAMARD)
    j = matrix_file_to_choi(load_matrix_file(path))
    assert np.abs(j.matrix - unitary_channel(HADAMARD).matrix).max() <= 1e-15

    save_matrix_file(path, "correlation", 3, 3, CORRELATION_2DP)
    j = matrix_file_to_choi(load_matrix_file(path))
    assert np.abs(j.matrix - schur_channel(CORRELATION_2DP).matrix).max() <= 1e-15

    rng = np.random.default_rng(903)
    ops = [rand_complex(rng, (2, 2)) for _ in range(2)]
    save_matrix_file(path, "kraus", 2, 2, ops)
    j = matrix_file_to_choi(load_matrix_file(path))
    expected = choi_from_kraus(KrausSet(dx=2, dy=2, operators=ops))
    assert np.abs(j.matrix - expected.matrix).max() <= 1e-15

    save_matrix_file(path, "choi", 2, 2, np.eye(4))
    j = matrix_file_to_choi(load_matrix_file(path))
    assert np.array_equal(j.matrix, np.eye(4))


def _write(path, doc):
    path.write_text(json.dumps(doc))


def test_load_errors(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    _write(path, [1, 2, 3])
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    _write(path, {"kind": "nope", "dx": 2, "dy": 2, "data": []})
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    _write(path, {"kind": "choi", "dx": 2, "data": []})
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    _write(path, {"kind": "choi", "dx": 2, "dy": 0, "data": []})
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    # ragged rows
    _write(path, {"kind": "choi", "dx": 1, "dy": 2, "data": [[[1, 0]], [[1, 0], [0, 0]]]})
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    # entries not [re, im]
    _write(path, {"kind": "choi", "dx": 1, "dy": 1, "data": [[1.0]]})
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    # declared dims inconsistent with data
    _write(path, {"kind": "choi", "dx": 2, "dy": 2, "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    # unitary requires dx == dy
    _write(path, {"kind": "unitary", "dx": 2, "dy": 3, "data": [[[1, 0]]]})
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    # kraus with wrong operator shape
    _write(path, {"kind": "kraus", "dx": 2, "dy": 2, "data": [[[[1, 0]]]]})
    with pytest.raises(FileFormatError):
        load_matrix_file(path)

    with pytest.raises(FileFormatError):
        load_matrix_file(tmp_path / "missing.json")


def test_vector_load_errors(tmp_path):
    path = tmp_path / "v.json"

    _write(path, {"dx": 2, "dy": 2, "values": [0.0] * 12})
    with pytest.raises(FileFormatError):
        load_vector_file(path)

    _write(path, {"dx": 2, "dy": 2, "values": "nope"})
    with pytest.raises(FileFormatError):
        load_vector_file(path)

    _write(path, {"dy": 2, "values": [0.0] * 13})
    with pytest.raises(FileFormatError):
        load_vector_file(path)


@pytest.mark.parametrize(
    "loader,doc",
    [
        (load_vector_file, {"dx": True, "dy": True, "values": [True]}),
        (load_vector_file, {"dx": 1, "dy": 1, "values": [True]}),
        (load_matrix_file, {"kind": "choi", "dx": True, "dy": 1, "data": [[[1.0, 0.0]]]}),
        (load_matrix_file, {"kind": "choi", "dx": 1, "dy": 1, "data": [[[True, 0.0]]]}),
        (load_matrix_file, {"kind": "choi", "dx": 1, "dy": 1, "data": [[[1.0, False]]]}),
    ],
)
def test_booleans_are_not_numbers(tmp_path, loader, doc):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError):
        loader(path)


@pytest.mark.parametrize(
    "loader,case",
    [
        (load_matrix_file, "huge matrix entry"),
        (load_matrix_file, "not utf-8"),
        (load_matrix_file, "deep nesting"),
        (load_vector_file, "huge vector value"),
        (load_vector_file, "not utf-8"),
        (load_vector_file, "deep nesting"),
    ],
)
def test_malformed_input_is_file_format_error(tmp_path, loader, case):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED_FILES[case])
    with pytest.raises(FileFormatError):
        loader(path)


# The exact bytes of small files, pinned so that the encoder stays canonical:
# shortest round-trip floats, signed zeros, subnormals and huge values, and
# the same text for F-ordered, real-dtype and stacked input.
@pytest.mark.parametrize(
    "save,args,expected",
    [
        pytest.param(
            save_matrix_file,
            ("unitary", 2, 2, np.asfortranarray([[1.0, -0.0], [5e-324, 1e300]])),
            '{"kind": "unitary", "dx": 2, "dy": 2, "data": '
            '[[[1.0, 0.0], [-0.0, 0.0]], [[5e-324, 0.0], [1e+300, 0.0]]]}\n',
            id="unitary-real-F-order",
        ),
        pytest.param(
            save_matrix_file,
            ("choi", 1, 2, np.asfortranarray([[0.5 + 0.25j, -0.0 - 1j], [1j, 0.5]])),
            '{"kind": "choi", "dx": 1, "dy": 2, "data": '
            '[[[0.5, 0.25], [-0.0, -1.0]], [[0.0, 1.0], [0.5, 0.0]]]}\n',
            id="choi-complex-F-order",
        ),
        pytest.param(
            save_matrix_file,
            ("kraus", 1, 2, np.array([[[1.0 + 0j], [0.0]], [[-0.0], [1e300 - 5e-324j]]])),
            '{"kind": "kraus", "dx": 1, "dy": 2, "data": '
            '[[[[1.0, 0.0]], [[0.0, 0.0]]], [[[-0.0, 0.0]], [[1e+300, -5e-324]]]]}\n',
            id="kraus-stack",
        ),
        pytest.param(
            save_vector_file,
            (1, 2, [-0.0, 5e-324, 1e300, 0.1]),
            '{"dx": 1, "dy": 2, "values": [-0.0, 5e-324, 1e+300, 0.1]}\n',
            id="vector-special-floats",
        ),
        pytest.param(
            save_vector_file,
            (1, 2, np.arange(4)),
            '{"dx": 1, "dy": 2, "values": [0.0, 1.0, 2.0, 3.0]}\n',
            id="vector-integers",
        ),
        pytest.param(
            save_vector_file,
            (np.int64(1), np.uint8(2), [0.5] * 4),
            '{"dx": 1, "dy": 2, "values": [0.5, 0.5, 0.5, 0.5]}\n',
            id="vector-numpy-integer-dims",
        ),
        pytest.param(
            save_matrix_file,
            ("choi", np.int32(1), np.int64(1), [[2.0]]),
            '{"kind": "choi", "dx": 1, "dy": 1, "data": [[[2.0, 0.0]]]}\n',
            id="matrix-numpy-integer-dims",
        ),
        pytest.param(
            save_basis_file,
            (channel_basis(1, 1),),
            '{"dx": 1, "dy": 1, "dim_s": 1, "elements": '
            '[{"label": ["identity"], "matrix": [[[1.0, 0.0]]]}]}\n',
            id="basis-1x1",
        ),
        pytest.param(
            save_basis_file,
            (channel_basis(1, 2),),
            '{"dx": 1, "dy": 2, "dim_s": 4, "elements": [{"label": ["identity"], "matrix": '
            '[[[0.7071067811865475, 0.0], [0.0, 0.0]], [[0.0, -0.0], [0.7071067811865475, 0.0]]]}, '
            '{"label": ["diag_proj", 1, 0], "matrix": '
            '[[[0.7071067811865475, 0.0], [0.0, 0.0]], [[0.0, -0.0], [-0.7071067811865475, 0.0]]]}, '
            '{"label": ["pair_sym", 0, 0, 1, 0], "matrix": '
            '[[[0.0, 0.0], [0.7071067811865475, 0.0]], [[0.7071067811865475, -0.0], [0.0, 0.0]]]}, '
            '{"label": ["pair_antisym", 0, 0, 1, 0], "matrix": '
            '[[[0.0, 0.0], [0.0, 0.7071067811865475]], [[0.0, -0.7071067811865475], [0.0, 0.0]]]}]}\n',
            id="basis-1x2",
        ),
    ],
)
def test_writers_golden_bytes(tmp_path, save, args, expected):
    path = tmp_path / "out.json"
    save(path, *args)
    assert path.read_bytes() == expected.encode("ascii")
    # A basis dump builds the dense stack for the file alone.
    assert not any("elements" in vars(a) for a in args if isinstance(a, ChannelBasis))


@pytest.mark.parametrize("dx,dy", [(2, 2), (2, 3)])
def test_basis_file_holds_each_labeled_element_in_order(tmp_path, dx, dy):
    save_basis_file(tmp_path / "b.json", channel_basis(dx, dy))
    doc, ref = json.loads((tmp_path / "b.json").read_text()), dense_channel_basis(dx, dy)
    assert (doc["dx"], doc["dy"], doc["dim_s"]) == (dx, dy, len(ref))
    elements = [(tuple(e["label"]), (np.array(e["matrix"]) @ [1, 1j]).tolist()) for e in doc["elements"]]
    assert elements == [(label, m.tolist()) for label, m in ref.items()]


@pytest.mark.parametrize(
    "save, args, message",
    [
        (save_vector_file, (2, 2, [1.0]), "expected 13 values for dims (2, 2), got 1"),
        (save_vector_file, (2, 2, np.zeros((13, 1))), "values must be a list of numbers"),
        (save_matrix_file, ("choi", 2, 2, np.eye(3)), "matrix shape (3, 3) != declared (4, 4)"),
        (
            save_matrix_file,
            ("kraus", 2, 3, np.zeros((2, 2, 2))),
            "kraus operator shape (2, 2) != declared (3, 2)",
        ),
        (
            save_matrix_file,
            ("kraus", 2, 3, np.zeros((0, 3, 2))),
            "kraus data must be a nonempty list of matrices",
        ),
        (save_matrix_file, ("unitary", 2, 3, np.eye(2)), "kind 'unitary' requires dx == dy"),
        (save_matrix_file, ("choi", 0, 2, np.eye(1)), "dx/dy must be positive integers"),
        (save_matrix_file, ("choi", 1, 1, [[np.nan]]), "non-finite values"),
        (save_matrix_file, ("kraus", 2, 2, np.full((2, 2, 2), np.inf)), "non-finite values"),
        (save_vector_file, (1, 1, [np.nan]), "non-finite values"),
        (save_vector_file, (1.9, 1, [1.0]), "dx/dy must be positive integers"),
        (save_matrix_file, ("choi", True, 2.5, np.eye(2)), "dx/dy must be positive integers"),
        (
            save_matrix_file,
            ("lindblad", 2, 2, np.eye(4)),
            "kind must be one of ('choi', 'unitary', 'correlation', 'kraus'), got 'lindblad'",
        ),
    ],
)
def test_writers_refuse_what_loaders_refuse(tmp_path, save, args, message):
    path = tmp_path / "out.json"
    with pytest.raises(FileFormatError) as exc_info:
        save(path, *args)
    assert str(exc_info.value) == f"cannot write {path}: {message}"
    assert not path.exists()


@pytest.mark.parametrize(
    "save, args",
    [(save_matrix_file, ("choi", 1, 1, [[1.0]])), (save_vector_file, (1, 1, [1.0]))],
)
def test_writers_refuse_an_unwritable_path(tmp_path, save, args):
    path = tmp_path / "missing" / "out.json"
    with pytest.raises(FileFormatError) as exc_info:
        save(path, *args)
    assert str(exc_info.value) == f"cannot write {path}: {os.strerror(errno.ENOENT)}"


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2**53 + 1, 2**64, 10**308]),
)
_ODD_LEAVES = st.sampled_from(
    [10**400, -(10**400), 2**1024, math.inf, -math.inf, math.nan, True, False, None, "1", "", {}]
)


def _nodes(holder, key, found):
    """(container, key) of ``holder[key]`` and of everything below it."""
    found.append((holder, key))
    if isinstance(holder[key], list):
        for i in range(len(holder[key])):
            _nodes(holder[key], i, found)
    return found


@st.composite
def _documents(draw):
    """A choi, kraus or vector document with valid dims, its data built to
    the declared shape or to one with an axis one too short or too long,
    then given up to two edits: odd leaves (bools, null, strings, huge
    integers, non-finite floats), rows made shorter or longer, lists
    replaced by a number or by [], and nodes wrapped one level deeper."""
    kind = draw(st.sampled_from(["choi", "kraus", "vector"]))
    dx, dy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if kind == "vector":
        shape = [dx * dx * dy * dy - dx * dx + 1]
    elif kind == "choi":
        shape = [dx * dy, dx * dy, 2]
    else:
        shape = [draw(st.integers(1, 3)), dy, dx, 2]
    if draw(st.integers(0, 3)) == 0:
        axis = draw(st.integers(0, len(shape) - 1))
        shape[axis] = max(0, shape[axis] + draw(st.sampled_from([-1, 1])))

    def build(shape):
        return [build(shape[1:]) for _ in range(shape[0])] if shape else draw(_NUMBERS)

    field = "values" if kind == "vector" else "data"
    doc = {"dx": dx, "dy": dy, field: build(shape)}
    if kind != "vector":
        doc["kind"] = kind
    for _ in range(draw(st.integers(0, 2))):
        nodes = _nodes(doc, field, [])
        edit = draw(st.sampled_from(["odd leaf", "number", "empty", "deeper", "shorter", "longer"]))
        leaves = [(h, k) for h, k in nodes if not isinstance(h[k], list)]
        holder, key = draw(st.sampled_from(leaves if edit == "odd leaf" and leaves else nodes))
        node = holder[key]
        if edit == "odd leaf":
            holder[key] = draw(_ODD_LEAVES)
        elif edit == "number":
            holder[key] = draw(_NUMBERS)
        elif edit == "empty":
            holder[key] = []
        elif edit == "deeper":
            holder[key] = [node]
        elif isinstance(node, list) and node and edit == "shorter":
            node.pop()
        elif isinstance(node, list) and node:
            node.append(copy.deepcopy(node[-1]))
    return kind, json.dumps(doc)


@settings(max_examples=300, deadline=None, database=None)
@given(_documents())
def test_decode_matches_the_per_entry_reference(case):
    # The loader returns exactly the reference's array, bit for bit, or
    # refuses with FileFormatError exactly where the reference refuses.
    kind, text = case
    expected = reference_load(json.loads(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            got = load_vector_file(path).values if kind == "vector" else load_matrix_file(path).data
        except FileFormatError:
            assert expected is None, text
            return
    assert expected is not None, text
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes(), text


@st.composite
def _values(draw):
    """(kind, dx, dy, data): regular data of the shape a vector, a Choi
    matrix or a Kraus stack needs at dims (dx, dy), every leaf a number,
    then with up to two leaves replaced by odd ones."""
    kind = draw(st.sampled_from(["vector", "choi", "kraus"]))
    dx, dy = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    shape = {
        "vector": [dx * dx * dy * dy - dx * dx + 1],
        "choi": [dx * dy, dx * dy],
        "kraus": [draw(st.integers(1, 2)), dy, dx],
    }[kind]
    data = np.empty(shape, dtype=object)
    for index in np.ndindex(*shape):
        data[index] = draw(_NUMBERS)
    for _ in range(draw(st.integers(0, 2))):
        data[tuple(draw(st.integers(0, n - 1)) for n in shape)] = draw(_ODD_LEAVES)
    return kind, dx, dy, data.tolist()


def _leaves(data):
    return [x for row in data for x in _leaves(row)] if isinstance(data, list) else [data]


@settings(max_examples=300, deadline=None, database=None)
@given(_values())
def test_every_entry_point_reads_numbers_as_the_loaders_do(case):
    # The constructors and the writers refuse exactly the data whose leaves
    # the per-entry reference refuses: a leaf that is not a JSON number, an
    # integer beyond float range, NaN or inf.  What they accept is exactly
    # np.array(data, dtype), bit for bit.
    kind, dx, dy, data = case
    dtype = float if kind == "vector" else complex
    try:
        expected = np.array(data, dtype=dtype) if all(map(_is_json_number, _leaves(data))) else None
    except OverflowError:
        expected = None
    if expected is not None and not np.isfinite(expected).all():
        expected = None
    make, field = {
        "vector": (CoefficientVector, "values"),
        "choi": (ChoiMatrix, "matrix"),
        "kraus": (KrausSet, "operators"),
    }[kind]
    save, *head = (save_vector_file,) if kind == "vector" else (save_matrix_file, kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        if expected is None:
            with pytest.raises(ChannelRepError):
                make(dx, dy, data)
            with pytest.raises(FileFormatError):
                save(path, *head, dx, dy, data)
            assert not os.path.exists(path)
            return
        save(path, *head, dx, dy, data)
        written = load_vector_file(path).values if kind == "vector" else load_matrix_file(path).data
    for got in (getattr(make(dx, dy, data), field), written):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes(), data
