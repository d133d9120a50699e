import json

import numpy as np
import pytest

from channelrep import FileFormatError, choi_from_kraus, KrausSet, schur_channel, unitary_channel
from channelrep.fileio import (
    load_matrix_file,
    load_vector_file,
    matrix_file_to_choi,
    save_matrix_file,
    save_vector_file,
)

from fixtures import CORRELATION_2DP, HADAMARD, MALFORMED_FILES, rand_complex


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
    ],
)
def test_writers_golden_bytes(tmp_path, save, args, expected):
    path = tmp_path / "out.json"
    save(path, *args)
    assert path.read_bytes() == expected.encode("ascii")
