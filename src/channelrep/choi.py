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

import numpy as np

from .errors import DimensionError, DomainError, ValidationError
from .linalg import (
    HERMITICITY_TOL,
    _hermitian_part,
    _shifted_cholesky_succeeds,
    hermiticity_defect,
    min_eigenvalue_hermitian,
    partial_trace_first,
    res,
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


def check_dims(dx: int, dy: int) -> None:
    """Raise ``DomainError`` unless both channel dimensions are positive."""
    if dx < 1 or dy < 1:
        raise DomainError(f"dimensions must be positive, got ({dx}, {dy})")


@dataclass(frozen=True)
class ChoiMatrix:
    """A Choi matrix of side dy*dx tagged with its (dx, dy) dimensions."""

    dx: int
    dy: int
    matrix: np.ndarray

    def __post_init__(self):
        check_dims(self.dx, self.dy)
        m = np.asarray(self.matrix, dtype=complex)
        side = self.dx * self.dy
        if m.shape != (side, side):
            raise DimensionError(
                f"Choi matrix for dims ({self.dx}, {self.dy}) must be "
                f"{side}x{side}, got {m.shape}"
            )
        if not np.isfinite(m).all():
            raise ValidationError("Choi matrix contains non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class KrausSet:
    """A nonempty collection of dy x dx Kraus operators."""

    dx: int
    dy: int
    operators: np.ndarray

    def __post_init__(self):
        check_dims(self.dx, self.dy)
        try:
            ops = np.asarray(self.operators, dtype=complex)
        except ValueError as exc:
            raise DimensionError(f"Kraus operators have inconsistent shapes: {exc}") from exc
        if ops.ndim == 2:
            ops = ops[np.newaxis]
        if ops.ndim != 3 or ops.shape[0] == 0:
            raise DimensionError("operators must be a nonempty list of matrices")
        if ops.shape[1:] != (self.dy, self.dx):
            raise DimensionError(
                f"every Kraus operator must be {self.dy}x{self.dx}, "
                f"got shape {ops.shape[1:]}"
            )
        if not np.isfinite(ops).all():
            raise ValidationError("Kraus operators contain non-finite entries")
        ops = ops.copy()
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    def __len__(self) -> int:
        return self.operators.shape[0]


def choi_from_kraus(k: KrausSet) -> ChoiMatrix:
    """Choi matrix of the map x -> sum_m K_m x K_m^dag.

    Computed as sum_m res(K_m) res(K_m)^dag, which is Hermitian and positive
    semidefinite by construction.
    """
    vecs = np.stack([res(op) for op in k.operators])
    j = vecs.T @ vecs.conj()
    return ChoiMatrix(dx=k.dx, dy=k.dy, matrix=j)


def apply_channel(j: ChoiMatrix, x) -> np.ndarray:
    """Apply the map encoded by ``j`` to a dx x dx matrix."""
    x = np.asarray(x, dtype=complex)
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
    (about n * eps * ||H||) of -tol.  J^dag is formed once; a J equal to it
    bit for bit is its own Hermitian part and is factored directly.
    """
    if tol < 0:
        raise DomainError("tolerance must be >= 0")
    m = j.matrix
    m_dag = m.conj().T
    if (m == m_dag).all():
        h = m.copy()  # J is its own Hermitian part
    elif np.abs(m - m_dag).max() > tol:
        return False
    else:
        h = _hermitian_part(m, m_dag)
    return _shifted_cholesky_succeeds(h, tol) or min_eigenvalue_hermitian(m) >= -tol


def is_trace_preserving(j: ChoiMatrix, tol: float = HERMITICITY_TOL) -> bool:
    """TP iff tracing out the output factor of the Choi matrix gives I_dx."""
    if tol < 0:
        raise DomainError("tolerance must be >= 0")
    reduced = partial_trace_first(j.matrix, j.dy, j.dx)
    reduced.flat[:: j.dx + 1] -= 1
    return bool(np.abs(reduced).max() <= tol)


def is_hermiticity_preserving(j: ChoiMatrix, tol: float = HERMITICITY_TOL) -> bool:
    """HP iff the Choi matrix is Hermitian within tol."""
    if tol < 0:
        raise DomainError("tolerance must be >= 0")
    return hermiticity_defect(j.matrix) <= tol
