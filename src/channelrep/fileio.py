"""JSON file formats for matrices and coefficient vectors.

Matrix files carry a ``kind`` ("choi", "unitary", "correlation" or "kraus"),
the dimensions ``dx``/``dy`` and the matrix data; every complex entry is a
two-element ``[re, im]`` pair so files are locale- and parser-proof.  Vector
files carry ``dx``/``dy`` and a flat list of reals whose length must equal
the channel-subspace dimension.  Floats are serialized with shortest
round-trip precision, so load(save(x)) is value-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel_basis import subspace_dimension
from .choi import ChoiMatrix, KrausSet, check_dims, choi_from_kraus
from .channels import schur_channel, unitary_channel
from .errors import DomainError, FileFormatError

__all__ = [
    "MATRIX_KINDS",
    "MatrixFile",
    "VectorFile",
    "load_matrix_file",
    "save_matrix_file",
    "load_vector_file",
    "save_vector_file",
    "matrix_file_to_choi",
]

MATRIX_KINDS = ("choi", "unitary", "correlation", "kraus")


@dataclass(frozen=True)
class MatrixFile:
    """Parsed matrix file: one matrix, or a list of Kraus matrices."""

    kind: str
    dx: int
    dy: int
    data: np.ndarray  # (rows, cols) or (m, rows, cols) for kind == "kraus"


@dataclass(frozen=True)
class VectorFile:
    """Parsed coefficient-vector file."""

    dx: int
    dy: int
    values: np.ndarray


def _is_number(x) -> bool:
    """JSON number check; ``bool`` is an ``int`` subclass but not a number here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _encode_matrix(m: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, read off a float view of ``m``."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(m.shape + (2,)).tolist()


def _decode_matrix(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{what}: matrix data must be a nonempty list of rows")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise FileFormatError(f"{what}: ragged or malformed matrix rows")
        width = len(row)
        decoded = []
        for entry in row:
            if not isinstance(entry, list) or len(entry) != 2:
                raise FileFormatError(f"{what}: entries must be [re, im] pairs")
            re, im = entry
            if not _is_number(re) or not _is_number(im):
                raise FileFormatError(f"{what}: entry components must be numbers")
            try:
                decoded.append(complex(re, im))
            except OverflowError:  # an integer beyond float range, as non-finite as 1e400
                raise FileFormatError(f"{what}: non-finite entries") from None
        out.append(decoded)
    m = np.array(out, dtype=complex)
    if not np.isfinite(m).all():
        raise FileFormatError(f"{what}: non-finite entries")
    return m


def _require_dims(doc: dict, what: str) -> tuple[int, int]:
    """``doc``'s dx/dy under ``choi.check_dims``, as Python ints."""
    try:
        dx, dy = doc["dx"], doc["dy"]
        check_dims(dx, dy)
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{what}: missing dx/dy") from exc
    except DomainError as exc:
        raise FileFormatError(f"{what}: dx/dy must be positive integers") from exc
    return int(dx), int(dy)


def _declared_shape(where: str, kind: str, dx: int, dy: int) -> tuple[int, int]:
    """Shape of each matrix of a ``kind`` file for (dx, dy)."""
    if kind == "choi":
        return (dy * dx, dy * dx)
    if kind == "kraus":
        return (dy, dx)
    # unitary and correlation matrices are square on a single space
    if dx != dy:
        raise FileFormatError(f"{where}: kind {kind!r} requires dx == dy")
    return (dx, dx)


def _check_shape(where: str, what: str, shape: tuple, declared: tuple) -> None:
    if shape != declared:
        raise FileFormatError(f"{where}: {what} shape {shape} != declared {declared}")


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
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"{path}: kind must be one of {MATRIX_KINDS}, got {kind!r}")
    dx, dy = _require_dims(doc, str(path))
    shape = _declared_shape(str(path), kind, dx, dy)
    data = doc.get("data")
    if kind == "kraus":
        if not isinstance(data, list) or not data:
            raise FileFormatError(f"{path}: kraus data must be a nonempty list of matrices")
        mats = [_decode_matrix(m, str(path)) for m in data]
        for m in mats:
            _check_shape(str(path), "kraus operator", m.shape, shape)
        return MatrixFile(kind=kind, dx=dx, dy=dy, data=np.stack(mats))
    m = _decode_matrix(data, str(path))
    _check_shape(str(path), "matrix", m.shape, shape)
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
    or converted; numpy integers are written as JSON integers), a shape that
    does not match them, and NaN or inf entries.  So does a path that cannot
    be written.
    """
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"kind must be one of {MATRIX_KINDS}, got {kind!r}")
    where = f"cannot write {path}"
    dx, dy = _require_dims({"dx": dx, "dy": dy}, where)
    shape = _declared_shape(where, kind, dx, dy)
    m = np.asarray(data)
    if kind != "kraus":
        _check_shape(where, "matrix", m.shape, shape)
    elif m.ndim != 3 or not len(m):
        raise FileFormatError(f"{where}: kraus data must be a nonempty list of matrices")
    else:  # a Kraus stack (m, rows, cols) encodes as a list of m matrices
        _check_shape(where, "kraus operator", m.shape[1:], shape)
    _write_json(path, {"kind": kind, "dx": dx, "dy": dy, "data": _encode_matrix(m)})


def load_vector_file(path) -> VectorFile:
    """Parse and validate a coefficient-vector file."""
    doc = _read_json(path, "vector")
    dx, dy = _require_dims(doc, str(path))
    values = doc.get("values")
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise FileFormatError(f"{path}: values must be a list of numbers")
    _check_length(str(path), dx, dy, len(values))
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond float range, as non-finite as 1e400
        raise FileFormatError(f"{path}: non-finite values") from None
    if not np.isfinite(arr).all():
        raise FileFormatError(f"{path}: non-finite values")
    return VectorFile(dx=dx, dy=dy, values=arr)


def save_vector_file(path, dx: int, dy: int, values) -> None:
    """Write a coefficient-vector file with full precision.

    As for ``save_matrix_file``, what ``load_vector_file`` would refuse
    (bad dims, a length other than dim(S), NaN or inf values) and an
    unwritable path raise ``FileFormatError`` and write nothing.
    """
    where = f"cannot write {path}"
    dx, dy = _require_dims({"dx": dx, "dy": dy}, where)
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise FileFormatError(f"{where}: values must be a list of numbers")
    _check_length(where, dx, dy, len(values))
    _write_json(path, {"dx": dx, "dy": dy, "values": values.tolist()})


def matrix_file_to_choi(mf: MatrixFile) -> ChoiMatrix:
    """Convert any matrix-file kind to a Choi matrix."""
    if mf.kind == "choi":
        return ChoiMatrix(dx=mf.dx, dy=mf.dy, matrix=mf.data)
    if mf.kind == "unitary":
        return unitary_channel(mf.data)
    if mf.kind == "correlation":
        return schur_channel(mf.data)
    return choi_from_kraus(KrausSet(dx=mf.dx, dy=mf.dy, operators=mf.data))
