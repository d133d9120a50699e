"""Orthonormal basis of the smallest subspace containing all channel Choi matrices.

Choi matrices of trace-preserving maps satisfy Tr_Y J = I_X, so every channel
lives inside the real subspace

    S = { J Hermitian on Y (x) X : Tr_Y J = c I_X, c real },

whose dimension is dx^2 dy^2 - dx^2 + 1.  Its orthogonal complement is spanned
by I_Y (x) H with H traceless Hermitian (``sperp_basis``).  Expanding a Choi
matrix in an orthonormal basis of S therefore gives a minimal real coefficient
vector for the channel, and the expansion is exactly invertible (``represent``
and ``combine``).

The canonical basis built by ``channel_basis`` consists of, in order:

* index 0: the scaled identity ``I/sqrt(dx*dy)``;
* for each traceless diagonal profile over the output factor (k = 1..dy-1,
  same diagonal family as ``hermitian_basis``), its Kronecker product with
  each element of the projector/sym/antisym basis of the input factor
  (projectors |x><x| first, then input index pairs a < b, symmetric before
  antisymmetric);
* for each pair of output indices y1 < y2 and each input index pair (x1, x2),
  the symmetric and antisymmetric matrix-pair elements supported on the
  positions (y1*dx + x1, y2*dx + x2).

All entries are exact (combinatorial values and 1/sqrt(2) factors), each
element is Hermitian, traceless apart from index 0, orthogonal to all of
``sperp_basis``, and the whole set is orthonormal.  It is NOT the set of
Kronecker products of two canonical Hermitian bases: products of traceless
diagonals on both factors are replaced by the finer diagonal-profile (x)
projector family.  Every element sits on a single pair of input indices,
so ``represent`` reads the coefficients off the Choi blocks J[y1,:,y2,:]
(Re/Im of the blocks above the diagonal, the diagonal blocks mixed by the
Helmert profiles) and ``combine`` writes them back; neither builds the
O((dx*dy)^4) element stack ``ChannelBasis.elements``.

Tolerances are relative to s = max(1, ||J||_F), so the verdict of
``represent`` does not depend on units: J is rejected as non-Hermitian when
its max-abs defect exceeds HERMITICITY_TOL * s, and as outside S when the
trace norm of its projection onto the complement, ||Tr_Y J - (tr J/dx) I||_1,
exceeds membership_tol * s.

The first coefficient of any CP+TP Choi matrix equals sqrt(dx/dy), and the
pairing <I/dx, J> (``order_unit_pairing``) equals 1 exactly on channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .choi import ChoiMatrix, check_dims
from .errors import DimensionError, NotInSubspaceError, ValidationError
from .hermitian_basis import block_coords, block_from_coords, from_re_im, helmert, re_im
from .hermitian_basis import hermitian_basis
from .linalg import HERMITICITY_TOL, hermiticity_defect, kron, partial_trace_first, trace_norm

__all__ = [
    "MEMBERSHIP_TOL",
    "ChannelBasis",
    "CoefficientVector",
    "subspace_dimension",
    "sperp_basis",
    "channel_basis",
    "represent",
    "combine",
    "order_unit_pairing",
]

# Trace-norm threshold, relative to max(1, ||J||_F), separating genuine
# non-membership in S (order-1 residuals) from floating-point dust.
MEMBERSHIP_TOL = 1e-8

Label = tuple


def subspace_dimension(dx: int, dy: int) -> int:
    """Dimension of S: dx^2 dy^2 - dx^2 + 1."""
    check_dims(dx, dy)
    return dx * dx * dy * dy - dx * dx + 1


@dataclass(frozen=True)
class ChannelBasis:
    """Ordered orthonormal basis of S for fixed (dx, dy).

    ``labels`` is the tuple of structural labels, one per element, in
    coefficient order.  Immutable and safe to share across threads;
    ``represent``/``combine`` are pure and may run concurrently over the
    same basis.
    """

    dx: int
    dy: int
    labels: tuple[Label, ...]

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def elements(self) -> np.ndarray:
        """Read-only dense stack of shape (dim(S), dx*dy, dx*dy), built on first use.

        Element k is ``combine`` of the k-th unit vector.  It takes
        O((dx*dy)^4) memory; ``represent`` and ``combine`` never need it.
        """
        stack = _scatter(self.dx, self.dy, np.eye(len(self)))
        stack.setflags(write=False)
        return stack


@dataclass(frozen=True)
class CoefficientVector:
    """Real expansion coefficients of a Choi matrix in a ChannelBasis."""

    dx: int
    dy: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = subspace_dimension(self.dx, self.dy)
        if vals.shape != (expected,):
            raise DimensionError(
                f"coefficient vector for dims ({self.dx}, {self.dy}) must have "
                f"length {expected}, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("coefficient vector contains non-finite entries")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def sperp_basis(dx: int, dy: int) -> np.ndarray:
    """Orthonormal basis of the complement of S: (I_Y/sqrt(dy)) (x) H.

    ``H`` runs over the traceless elements of ``hermitian_basis(dx)``; the
    result is a stack of exactly dx^2 - 1 Hermitian matrices (empty for
    dx = 1).  Tracing the output factor of any element yields a traceless
    matrix, never a multiple of the identity.
    """
    check_dims(dx, dy)
    stack = kron(np.eye(dy) / np.sqrt(dy), hermitian_basis(dx).elements[1:])
    stack.setflags(write=False)
    return stack


def channel_basis(dx: int, dy: int) -> ChannelBasis:
    """Construct the canonical orthonormal basis of S for dims (dx, dy)."""
    check_dims(dx, dy)
    labels: list[Label] = [("identity",)]
    for k in range(1, dy):
        labels += [("diag_proj", k, x) for x in range(dx)]
        for a, b in combinations(range(dx), 2):
            labels += [("diag_sym", k, a, b), ("diag_antisym", k, a, b)]
    for (y1, y2), (x1, x2) in product(combinations(range(dy), 2), product(range(dx), repeat=2)):
        labels += [("pair_sym", y1, x1, y2, x2), ("pair_antisym", y1, x1, y2, x2)]
    return ChannelBasis(dx=dx, dy=dy, labels=tuple(labels))


def _gather(dx: int, dy: int, m: np.ndarray) -> np.ndarray:
    """Coefficients (..., dim S) of Choi matrices (..., n, n), read from their blocks.

    For Hermitian input these are the overlaps <E_k, J> with the basis
    elements; entries below the diagonal are not read.
    """
    u = m.reshape(m.shape[:-2] + (dy, dx, dy, dx)).swapaxes(-3, -2)  # [.., y1, y2] = J[y1,:,y2,:]
    ys, (y1, y2), flat = np.arange(dy), np.triu_indices(dy, 1), m.shape[:-2] + (-1,)
    identity = np.trace(m, axis1=-2, axis2=-1).real[..., None] / np.sqrt(dx * dy)
    diag = helmert(dy)[1:] @ block_coords(u[..., ys, ys, :, :])
    pairs = re_im(u[..., y1, y2, :, :].reshape(flat))
    return np.concatenate([identity, diag.reshape(flat), pairs], axis=-1)


def _scatter(dx: int, dy: int, values: np.ndarray) -> np.ndarray:
    """Inverse of ``_gather``: Choi matrices (..., n, n) from coefficients (..., dim S)."""
    n, batch, split = dx * dy, values.shape[:-1], 1 + (dy - 1) * dx * dx
    ys, (y1, y2) = np.arange(dy), np.triu_indices(dy, 1)
    m = np.zeros(batch + (n, n), dtype=complex)
    u = m.reshape(batch + (dy, dx, dy, dx)).swapaxes(-3, -2)  # a view: writes land in m
    diag = values[..., 1:split].reshape(batch + (dy - 1, dx * dx))
    u[..., ys, ys, :, :] = block_from_coords(helmert(dy)[1:].T @ diag, dx)
    pairs = from_re_im(values[..., split:]).reshape(batch + (len(y1), dx, dx))
    u[..., y1, y2, :, :] = pairs
    u[..., y2, y1, :, :] = pairs.conj().swapaxes(-1, -2)
    m[..., np.arange(n), np.arange(n)] += values[..., :1] / np.sqrt(n)
    return m


def _coerce_choi(basis: ChannelBasis, j) -> np.ndarray:
    if isinstance(j, ChoiMatrix):
        if (j.dx, j.dy) != (basis.dx, basis.dy):
            raise DimensionError(
                f"Choi dims ({j.dx}, {j.dy}) do not match basis dims "
                f"({basis.dx}, {basis.dy})"
            )
        return j.matrix
    m = np.asarray(j, dtype=complex)
    n = basis.dx * basis.dy
    if m.shape != (n, n):
        raise DimensionError(f"expected a {n}x{n} matrix, got {m.shape}")
    return m


def represent(
    basis: ChannelBasis,
    j,
    membership_tol: float = MEMBERSHIP_TOL,
) -> CoefficientVector:
    """Expand a Choi matrix in the basis of S.

    Accepts a ``ChoiMatrix`` or a bare square array of side dx*dy.  The input
    must be Hermitian and must lie in S, under the scale-relative tolerances
    stated in the module docstring; ``NotInSubspaceError`` carries the
    residual trace norm of an input outside S.
    """
    m = _coerce_choi(basis, j)
    scale = max(1.0, float(np.linalg.norm(m)))
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL * scale:
        raise ValidationError(f"matrix is not Hermitian (max defect {defect:.3e})")
    reduced = partial_trace_first(m, basis.dy, basis.dx)
    resid_norm = trace_norm(reduced - np.trace(reduced) / basis.dx * np.eye(basis.dx))
    if resid_norm > membership_tol * scale:
        raise NotInSubspaceError(resid_norm)
    values = _gather(basis.dx, basis.dy, m)
    return CoefficientVector(dx=basis.dx, dy=basis.dy, values=values)


def combine(basis: ChannelBasis, v) -> ChoiMatrix:
    """Reassemble the Choi matrix sum_k v[k] * basis.elements[k].

    Exact linear combination, no projection; inverse of ``represent`` on S.
    The coefficients are written straight into the Choi blocks, so the
    element stack is never built.
    """
    if isinstance(v, CoefficientVector):
        if (v.dx, v.dy) != (basis.dx, basis.dy):
            raise DimensionError(
                f"vector dims ({v.dx}, {v.dy}) do not match basis dims "
                f"({basis.dx}, {basis.dy})"
            )
        values = v.values
    else:
        values = np.asarray(v, dtype=float)
        if values.shape != (len(basis),):
            raise DimensionError(
                f"expected {len(basis)} coefficients, got shape {values.shape}"
            )
    return ChoiMatrix(dx=basis.dx, dy=basis.dy, matrix=_scatter(basis.dx, basis.dy, values))


def order_unit_pairing(j: ChoiMatrix) -> float:
    """Pairing <I/dx, J> = trace(J)/dx; equals 1 for every CP+TP Choi matrix.

    Scaling is linear: the pairing of t*J is t.  Together with positive
    semidefiniteness and membership in S, pairing 1 already forces trace
    preservation, so the channel set is exactly the unit-pairing slice of
    the positive cone in S.
    """
    defect = hermiticity_defect(j.matrix)
    if defect > HERMITICITY_TOL:
        raise ValidationError(f"matrix is not Hermitian (max defect {defect:.3e})")
    return float(np.trace(j.matrix).real) / j.dx
