"""Choi matrices of linear maps and the CP/TP/HP predicates.

A map taking operators on the input space X (dimension ``dx``) to operators
on the output space Y (dimension ``dy``) is encoded by its Choi matrix

    J = sum_{i,j} Phi(|i><j|) (x) |i><j|

living on Y (x) X, with Y as the FIRST tensor factor.  Under the row-major
``res`` vectorization this makes J of a Kraus map equal
``sum_m res(K_m) res(K_m)^dag``.

The map itself is recovered as Phi(x) = Tr_X[ J (I (x) x^T) ], i.e. by
tracing out the second factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ValidationError, _SizeLimitError
from .linalg import (
    HERMITICITY_TOL,
    _Hermitian,
    _check_positive_dims,
    _check_tolerance,
    _mirror_upper,
    _numbers,
    _text,
    partial_trace_first,
)

__all__ = [
    "ChoiMatrix",
    "KrausSet",
    "choi_from_kraus",
    "apply_channel",
    "is_completely_positive",
    "is_trace_preserving",
    "is_hermiticity_preserving",
]


# The size limit: the most bytes that one array the package builds (a Choi
# matrix, the dense basis stack) or one basis dump may take.  Larger sizes
# are refused before anything is allocated.
MAX_ARRAY_BYTES = 2**32


def check_size(dx: int, dy: int, what: str, nbytes: int) -> None:
    """Raise ``DomainError`` naming the dims, ``what`` and its estimated size
    when ``nbytes`` is above ``MAX_ARRAY_BYTES``.  A size beyond float range
    is given as a power of two, from the integer's bit length."""
    if nbytes > MAX_ARRAY_BYTES:
        try:
            size = f"about {nbytes / 2**30:,.1f} GiB"
        except OverflowError:
            size = f"at least 2^{nbytes.bit_length() - 31} GiB"
        raise _SizeLimitError(
            f"dims ({_text(dx)}, {_text(dy)}): {what} would take {size}, "
            f"above the size limit of {MAX_ARRAY_BYTES / 2**30:g} GiB"
        )


def check_dims(dx: int, dy: int) -> None:
    """Raise ``DomainError`` unless both channel dimensions are integers >= 1
    whose complex Choi matrix, 16 (dx*dy)^2 bytes, fits the size limit.

    The one dimension rule of the package, ``linalg._check_positive_dims``,
    with the size limit.  Constructors, the basis, the file readers and the
    writers all apply it, before they allocate anything.
    """
    _check_positive_dims(dx, dy)
    n = dx * dy
    side = _text(n)
    check_size(dx, dy, f"the {side}x{side} Choi matrix", 16 * n * n)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """A Choi matrix of side dy*dx tagged with its (dx, dy) dimensions.

    The matrix is a read-only copy.  Its Hermitian record (``linalg._Hermitian``:
    the exact comparison with J^dag, the defect, the scale and the
    eigenvalues) is built on first use and kept, so the CP/HP predicates,
    ``represent``, ``order_unit_pairing`` and the CLI analyse J once.  The
    record holds no array besides the matrix itself and its eigenvalues.
    """

    dx: int
    dy: int
    matrix: np.ndarray

    def __post_init__(self):
        check_dims(self.dx, self.dy)
        m = _owned(self.matrix, _numbers(self.matrix, complex, "Choi matrix"))
        side = self.dx * self.dy
        if m.shape != (side, side):
            raise DimensionError(
                f"Choi matrix for dims ({self.dx}, {self.dy}) must be "
                f"{side}x{side}, got {m.shape}"
            )
        object.__setattr__(self, "matrix", _finite_read_only(m))

    @cached_property
    def _hermitian(self) -> _Hermitian:
        return _Hermitian(self.matrix)


def _owned(data, a: np.ndarray) -> np.ndarray:
    """``a``, the array ``_numbers`` read from ``data``, as a C-ordered array
    no one else holds: copied only when ``_numbers`` returned ``data`` itself
    or an array in another order."""
    return a.copy(order="C") if a is data else np.ascontiguousarray(a)


def _finite_read_only(a: np.ndarray, message="Choi matrix contains non-finite entries"):
    """``a``, a C-ordered array no one else holds, made read-only once all its
    entries are finite; ``ValidationError(message)`` otherwise.  The one
    finiteness rule of the arrays that value objects hold."""
    if not np.isfinite(a.view(float)).all():
        raise ValidationError(message)
    a.setflags(write=False)
    return a


def _built(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    Skips ``__post_init__``, so nothing is copied or checked again: only
    for arrays the package has just built, of the right shape and dtype.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _exact_choi(dx: int, dy: int, m: np.ndarray) -> ChoiMatrix:
    """ChoiMatrix wrapping ``m`` without a copy; the package built ``m``
    (C-ordered, side dx*dy) exactly Hermitian, so its record is marked exact
    instead of comparing J with J^dag.  The one place that refuses a
    package-built matrix with non-finite entries."""
    m = _finite_read_only(m)
    return _built(ChoiMatrix, dx=dx, dy=dy, matrix=m, _hermitian=_Hermitian(m, exact=True))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A nonempty collection of dy x dx Kraus operators."""

    dx: int
    dy: int
    operators: np.ndarray

    def __post_init__(self):
        check_dims(self.dx, self.dy)
        ops = _owned(self.operators, _numbers(self.operators, complex, "Kraus operators"))
        ops = ops[np.newaxis] if ops.ndim == 2 else ops
        if ops.ndim != 3 or ops.shape[0] == 0:
            raise DimensionError("operators must be a nonempty list of matrices")
        if ops.shape[1:] != (self.dy, self.dx):
            raise DimensionError(
                f"every Kraus operator must be {self.dy}x{self.dx}, "
                f"got shape {ops.shape[1:]}"
            )
        message = "Kraus operators contain non-finite entries"
        object.__setattr__(self, "operators", _finite_read_only(ops, message))

    def __len__(self) -> int:
        return self.operators.shape[0]


def choi_from_kraus(k: KrausSet) -> ChoiMatrix:
    """Choi matrix of the map x -> sum_m K_m x K_m^dag.

    Computed as sum_m res(K_m) res(K_m)^dag, which is positive semidefinite
    by construction.  The entries above the diagonal are kept and those below
    it are their conjugates, so the result equals its conjugate transpose
    exactly, not only to rounding.
    """
    vecs = k.operators.reshape(len(k), -1)  # row m is res(K_m)
    with np.errstate(over="ignore", invalid="ignore"):  # _exact_choi refuses the result
        return _exact_choi(k.dx, k.dy, _mirror_upper(vecs.T @ vecs.conj()))


def apply_channel(j: ChoiMatrix, x) -> np.ndarray:
    """Apply the map encoded by ``j`` to a dx x dx matrix."""
    x = _numbers(x, complex, "input")
    if x.shape != (j.dx, j.dx):
        raise DimensionError(f"input must be {j.dx}x{j.dx}, got {x.shape}")
    jr = j.matrix.reshape(j.dy, j.dx, j.dy, j.dx)
    return np.einsum("ajbk,jk->ab", jr, x)


def is_completely_positive(j: ChoiMatrix, tol: float = HERMITICITY_TOL) -> bool:
    """CP iff the Choi matrix is Hermitian and positive semidefinite within tol.

    Hermitian within tol means a max-abs defect of J - J^dag at most tol.
    Positive semidefinite within tol is decided by one Cholesky
    factorisation of H + tol*I, H the Hermitian part of J: if it succeeds,
    J is accepted; if it refuses, the eigenvalue rule lambda_min(H) >= -tol
    decides.  This never rejects what the eigenvalue rule accepts, and
    accepts what it rejects only when lambda_min(H) lies within rounding
    (about n * eps * ||H||) of -tol.  It reads J's cached record: a J equal
    to J^dag bit for bit is its own Hermitian part and is factored directly.
    """
    _check_tolerance(tol)
    h = j._hermitian
    return h.defect <= tol and h.is_psd(tol)


def is_trace_preserving(j: ChoiMatrix, tol: float = HERMITICITY_TOL) -> bool:
    """TP iff tracing out the output factor of the Choi matrix gives I_dx."""
    _check_tolerance(tol)
    reduced = partial_trace_first(j.matrix, j.dy, j.dx)
    reduced.flat[:: j.dx + 1] -= 1
    return bool(np.abs(reduced).max() <= tol)


def is_hermiticity_preserving(j: ChoiMatrix, tol: float = HERMITICITY_TOL) -> bool:
    """HP iff the Choi matrix is Hermitian within tol."""
    _check_tolerance(tol)
    return j._hermitian.defect <= tol
