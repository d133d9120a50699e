"""JSON file formats: matrix files, coefficient-vector files and basis files.

Matrix files carry a ``kind`` ("choi", "unitary", "correlation" or "kraus"),
the dimensions ``dx``/``dy`` and the matrix data; every complex entry is a
two-element ``[re, im]`` pair so files are locale- and parser-proof.  Vector
files carry ``dx``/``dy`` and a flat list of reals whose length must equal
the channel-subspace dimension.  Basis files, which are written but never
read, carry ``dx``/``dy``, ``dim_s`` and the ``elements`` of the channel
basis in coefficient order, each a ``label`` and a ``matrix`` of
``[re, im]`` pairs.  Floats are serialized with shortest round-trip
precision, so load(save(x)) is value-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel_basis import ChannelBasis, CoefficientVector, _scatter, subspace_dimension
from .choi import ChoiMatrix, KrausSet, _built, check_dims, check_size, choi_from_kraus
from .channels import schur_channel, unitary_channel
from .errors import DimensionError, DomainError, FileFormatError, ValidationError, _SizeLimitError
from .linalg import _numbers

__all__ = [
    "MATRIX_KINDS",
    "MatrixFile",
    "load_matrix_file",
    "save_matrix_file",
    "load_vector_file",
    "save_vector_file",
    "save_basis_file",
    "matrix_file_to_choi",
]

MATRIX_KINDS = ("choi", "unitary", "correlation", "kraus")


@dataclass(frozen=True, eq=False)
class MatrixFile:
    """Parsed matrix file: one matrix, or a list of Kraus matrices."""

    kind: str
    dx: int
    dy: int
    data: np.ndarray  # (rows, cols) or (m, rows, cols) for kind == "kraus"


def _encode_matrix(m: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, read off a float view of the complex ``m``."""
    return np.ascontiguousarray(m).view(float).reshape(m.shape + (2,)).tolist()


# What ``_decode`` reads at each depth: the field, and the layout it must have.
_LAYOUTS = {
    1: ("values", "a list of numbers"),
    3: ("data", "a nonempty list of rows of [re, im] pairs"),
    4: ("data", "a nonempty list of matrices, each a list of rows of [re, im] pairs"),
}


def _file_numbers(data, dtype, where: str, field: str) -> np.ndarray:
    """``linalg._numbers`` on ``data``, the ``field`` of a file at ``where``,
    with each refusal a ``FileFormatError`` that names the field."""
    try:
        return _numbers(data, dtype, field)
    except (DimensionError, ValidationError) as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def _decode(data, where: str, depth: int) -> np.ndarray:
    """The numbers of a parsed JSON array ``data``, nested ``depth`` levels deep.

    Depth 1 is a vector file's ``values`` and gives a float array; depth 3
    (one matrix) and depth 4 (a Kraus stack) are ``data`` of ``[re, im]``
    pairs and give a complex array one level shallower.  One object-array
    conversion reads the whole structure: ragged rows, entries that are not
    pairs, empty matrices and data that is not a list come out with too few
    levels or a last axis other than 2.  The leaves are then read by the
    package's one number rule, ``linalg._numbers``: anything but a JSON
    number (``true``, ``false``, ``null``, a string) is refused, and so is an
    integer beyond float range.  Empty ``values`` decode, and the length
    check refuses them.  Every refusal is a ``FileFormatError``.
    """
    field, layout = _LAYOUTS[depth]
    malformed = FileFormatError(f"{where}: {field} must be {layout}")
    try:
        a = np.array(data, dtype=object)
    except ValueError:  # ragged lists that an older numpy will not hold as objects
        raise malformed from None
    if a.ndim != depth or (depth > 1 and a.shape[-1] != 2):
        raise malformed
    a = _file_numbers(a, float, where, field)
    if not np.isfinite(a).all():
        raise FileFormatError(f"{where}: non-finite {field}")
    return a if depth == 1 else a.view(complex)[..., 0]


def _require_dims(doc: dict, what: str) -> tuple[int, int]:
    """``doc``'s dx/dy under ``choi.check_dims``, as Python ints."""
    try:
        dx, dy = doc["dx"], doc["dy"]
        check_dims(dx, dy)
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{what}: missing dx/dy") from exc
    except _SizeLimitError as exc:  # its message names the dims and the size
        raise FileFormatError(f"{what}: {exc}") from exc
    except DomainError as exc:
        raise FileFormatError(f"{what}: dx/dy must be positive integers") from exc
    return int(dx), int(dy)


def _header(where: str, kind, doc: dict) -> tuple[int, int, tuple[int, int]]:
    """dx, dy and the shape of each matrix of a ``kind`` file whose fields are
    ``doc``: the kind is checked first, then the dims (``_require_dims``),
    then the shape rule of the kind."""
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"{where}: kind must be one of {MATRIX_KINDS}, got {kind!r}")
    dx, dy = _require_dims(doc, where)
    if kind == "choi":
        return dx, dy, (dy * dx, dy * dx)
    if kind == "kraus":
        return dx, dy, (dy, dx)
    # unitary and correlation matrices are square on a single space
    if dx != dy:
        raise FileFormatError(f"{where}: kind {kind!r} requires dx == dy")
    return dx, dy, (dx, dx)


def _check_data(where: str, kind: str, shape: tuple, m: np.ndarray) -> None:
    """The shape rule for a ``kind`` file's data ``m``, each matrix ``shape``:
    one matrix, or for "kraus" a nonempty stack ``(count, rows, cols)``."""
    what, got = "matrix", m.shape
    if kind == "kraus":
        if m.ndim != 3 or not len(m):
            raise FileFormatError(f"{where}: kraus data must be a nonempty list of matrices")
        what, got = "kraus operator", m.shape[1:]
    if got != shape:
        raise FileFormatError(f"{where}: {what} shape {got} != declared {shape}")


def _check_length(where: str, dx: int, dy: int, count: int) -> None:
    expected = subspace_dimension(dx, dy)
    if count != expected:
        raise FileFormatError(
            f"{where}: expected {expected} values for dims ({dx}, {dy}), got {count}"
        )


def _read_json(path, what: str) -> dict:
    """Parse the JSON object in ``path``.

    Any failure to read it is a ``FileFormatError``: a missing file, bytes that
    are not UTF-8 and malformed JSON (``ValueError``), arrays nested too deep
    for the decoder (``RecursionError``), or a top level that is not an object.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def load_matrix_file(path) -> MatrixFile:
    """Parse and validate a matrix file."""
    doc = _read_json(path, "matrix")
    kind = doc.get("kind")
    dx, dy, shape = _header(str(path), kind, doc)
    m = _decode(doc.get("data"), str(path), 4 if kind == "kraus" else 3)
    _check_data(str(path), kind, shape, m)
    return MatrixFile(kind=kind, dx=dx, dy=dy, data=m)


def _write_json(path, doc) -> None:
    """Write ``doc`` as one line of JSON.

    ``json.dumps`` encodes the whole document with the C encoder; ``json.dump``
    streams through the pure-Python one and takes about twice as long on an
    8x8 Choi file.  The text is written in one call once it is complete, so a
    document that fails to encode leaves the file untouched.  Any failure is a
    ``FileFormatError``, as in ``_read_json``: a NaN or inf value, which is not
    JSON and which the loaders refuse, and a path that cannot be opened for
    writing (``OSError``).
    """
    try:
        text = json.dumps(doc, allow_nan=False) + "\n"
    except ValueError:  # json's message for NaN and inf differs between versions
        raise FileFormatError(f"cannot write {path}: non-finite values") from None
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_matrix_file(path, kind: str, dx: int, dy: int, data) -> None:
    """Write a matrix file with canonical field order and full precision.

    What ``load_matrix_file`` would refuse raises ``FileFormatError`` and
    writes nothing: dims that ``check_dims`` refuses (they are never rounded
    or converted; numpy integers are written as JSON integers), data that
    ``linalg._numbers`` refuses (``bool``, strings, ``None``, integers beyond
    float range, ragged rows), a shape that does not match the dims, and NaN
    or inf entries.  So does a path that cannot be written.
    """
    where = f"cannot write {path}"
    dx, dy, shape = _header(where, kind, {"dx": dx, "dy": dy})
    m = _file_numbers(data, complex, where, "data")
    _check_data(where, kind, shape, m)
    _write_json(path, {"kind": kind, "dx": dx, "dy": dy, "data": _encode_matrix(m)})


def load_vector_file(path) -> CoefficientVector:
    """Parse and validate a coefficient-vector file.

    The ``CoefficientVector`` is built once, from the array the decoder just
    checked (finite, one level deep, of length dim(S)) and made read-only;
    nothing is copied or checked again.
    """
    doc = _read_json(path, "vector")
    dx, dy = _require_dims(doc, str(path))
    values = _decode(doc.get("values"), str(path), 1)
    _check_length(str(path), dx, dy, len(values))
    values.setflags(write=False)
    return _built(CoefficientVector, dx=dx, dy=dy, values=values)


def save_vector_file(path, dx: int, dy: int, values) -> None:
    """Write a coefficient-vector file with full precision.

    As for ``save_matrix_file``, what ``load_vector_file`` would refuse
    (bad dims, values that are not numbers, a length other than dim(S), NaN
    or inf values) and an unwritable path raise ``FileFormatError`` and
    write nothing.
    """
    where = f"cannot write {path}"
    dx, dy = _require_dims({"dx": dx, "dy": dy}, where)
    values = _file_numbers(values, float, where, "values")
    if values.ndim != 1:
        raise FileFormatError(f"{where}: values must be a list of numbers")
    _check_length(where, dx, dy, len(values))
    _write_json(path, {"dx": dx, "dy": dy, "values": values.tolist()})


# Peak bytes that writing a basis file takes per complex entry of its
# elements, measured at 4x4 to 6x6: the entry in the dense stack, its Python
# floats and lists, and its JSON text.
BASIS_DUMP_BYTES_PER_ENTRY = 200


def save_basis_file(path, basis: ChannelBasis) -> None:
    """Write ``basis`` as a basis file: its dims, dim(S) and every element
    with its label, in coefficient order.  An unwritable path raises
    ``FileFormatError``.  A dump whose estimated peak,
    ``BASIS_DUMP_BYTES_PER_ENTRY`` bytes for each of the dim(S) (dx*dy)^2
    entries, is above the size limit ``choi.MAX_ARRAY_BYTES`` raises
    ``DomainError`` before anything is built.  The dense stack is built for
    the dump alone: it is not kept on ``basis``."""
    n, dim = basis.dx * basis.dy, len(basis)
    what = f"the basis dump of {dim} {n}x{n} elements"
    check_size(basis.dx, basis.dy, what, BASIS_DUMP_BYTES_PER_ENTRY * dim * n * n)
    elements = [
        {"label": list(label), "matrix": _encode_matrix(element)}
        for label, element in zip(basis.labels, _scatter(basis, np.eye(dim)))
    ]
    _write_json(path, {"dx": basis.dx, "dy": basis.dy, "dim_s": len(basis), "elements": elements})


def matrix_file_to_choi(mf: MatrixFile) -> ChoiMatrix:
    """Convert any matrix-file kind to a Choi matrix."""
    if mf.kind == "choi":
        return ChoiMatrix(dx=mf.dx, dy=mf.dy, matrix=mf.data)
    if mf.kind == "unitary":
        return unitary_channel(mf.data)
    if mf.kind == "correlation":
        return schur_channel(mf.data)
    return choi_from_kraus(KrausSet(dx=mf.dx, dy=mf.dy, operators=mf.data))
