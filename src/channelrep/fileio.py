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
from .choi import ChoiMatrix, KrausSet, choi_from_kraus
from .channels import schur_channel, unitary_channel
from .errors import FileFormatError

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
    try:
        dx, dy = doc["dx"], doc["dy"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{what}: missing dx/dy") from exc
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in (dx, dy)):
        raise FileFormatError(f"{what}: dx/dy must be positive integers")
    return dx, dy


def _expected_shape(kind: str, dx: int, dy: int) -> tuple[int, int]:
    if kind == "choi":
        return (dy * dx, dy * dx)
    if kind == "kraus":
        return (dy, dx)
    # unitary and correlation matrices are square on a single space
    return (dx, dx)


def _read_json(path, what: str):
    """Parse the JSON document in ``path``.

    Any failure to read it is a ``FileFormatError``: a missing file, bytes that
    are not UTF-8 and malformed JSON (``ValueError``), or arrays nested too deep
    for the decoder (``RecursionError``).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"cannot read {what} file {path}: {exc}") from exc


def load_matrix_file(path) -> MatrixFile:
    """Parse and validate a matrix file."""
    doc = _read_json(path, "matrix")
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"{path}: kind must be one of {MATRIX_KINDS}, got {kind!r}")
    dx, dy = _require_dims(doc, str(path))
    if kind in ("unitary", "correlation") and dx != dy:
        raise FileFormatError(f"{path}: kind {kind!r} requires dx == dy")
    data = doc.get("data")
    shape = _expected_shape(kind, dx, dy)
    if kind == "kraus":
        if not isinstance(data, list) or not data:
            raise FileFormatError(f"{path}: kraus data must be a nonempty list of matrices")
        mats = [_decode_matrix(m, str(path)) for m in data]
        for m in mats:
            if m.shape != shape:
                raise FileFormatError(
                    f"{path}: kraus operator shape {m.shape} != declared {shape}"
                )
        return MatrixFile(kind=kind, dx=dx, dy=dy, data=np.stack(mats))
    m = _decode_matrix(data, str(path))
    if m.shape != shape:
        raise FileFormatError(f"{path}: matrix shape {m.shape} != declared {shape}")
    return MatrixFile(kind=kind, dx=dx, dy=dy, data=m)


def _write_json(path, doc) -> None:
    """Write ``doc`` as one line of JSON.

    ``json.dumps`` encodes the whole document with the C encoder; ``json.dump``
    streams through the pure-Python one and takes about twice as long on an
    8x8 Choi file.  The text is written in one call once it is complete, so a
    document that fails to encode leaves the file untouched.
    """
    text = json.dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_matrix_file(path, kind: str, dx: int, dy: int, data) -> None:
    """Write a matrix file with canonical field order and full precision."""
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"kind must be one of {MATRIX_KINDS}, got {kind!r}")
    # a Kraus stack (m, rows, cols) encodes as a list of m matrices
    payload = _encode_matrix(data)
    _write_json(path, {"kind": kind, "dx": int(dx), "dy": int(dy), "data": payload})


def load_vector_file(path) -> VectorFile:
    """Parse and validate a coefficient-vector file."""
    doc = _read_json(path, "vector")
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    dx, dy = _require_dims(doc, str(path))
    values = doc.get("values")
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise FileFormatError(f"{path}: values must be a list of numbers")
    expected = subspace_dimension(dx, dy)
    if len(values) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} values for dims ({dx}, {dy}), got {len(values)}"
        )
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond float range, as non-finite as 1e400
        raise FileFormatError(f"{path}: non-finite values") from None
    if not np.isfinite(arr).all():
        raise FileFormatError(f"{path}: non-finite values")
    return VectorFile(dx=dx, dy=dy, values=arr)


def save_vector_file(path, dx: int, dy: int, values) -> None:
    """Write a coefficient-vector file with full precision."""
    doc = {
        "dx": int(dx),
        "dy": int(dy),
        "values": np.asarray(values, dtype=float).tolist(),
    }
    _write_json(path, doc)


def matrix_file_to_choi(mf: MatrixFile) -> ChoiMatrix:
    """Convert any matrix-file kind to a Choi matrix."""
    if mf.kind == "choi":
        return ChoiMatrix(dx=mf.dx, dy=mf.dy, matrix=mf.data)
    if mf.kind == "unitary":
        return unitary_channel(mf.data)
    if mf.kind == "correlation":
        return schur_channel(mf.data)
    return choi_from_kraus(KrausSet(dx=mf.dx, dy=mf.dy, operators=mf.data))
