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
O((dx*dy)^4) element stack ``ChannelBasis.elements``.  Where each coefficient
is read or written is a fixed index pattern for given (dx, dy); each basis
builds its O((dx*dy)^2) index tables on first use and keeps them, so a call
is a few array operations on the flat float view of J.

Tolerances are relative to s = max(1, ||J||_F), so the verdicts of
``represent`` and ``order_unit_pairing`` do not depend on units: J is
rejected as non-Hermitian when its max-abs defect exceeds
HERMITICITY_TOL * s, and by ``represent`` as outside S when the trace norm
of its projection onto the complement, ||Tr_Y J - (tr J/dx) I||_1, exceeds
membership_tol * s.  Since that residual R is dx x dx, the bound
sqrt(dx) ||R||_F >= ||R||_1 accepts first; only when it does not is the
trace norm computed, and it decides and is reported.  A J whose norm is not
finite (NaN or inf entries, or entries so large that ||J||_F overflows) is
rejected before either check.

The first coefficient of any CP+TP Choi matrix equals sqrt(dx/dy), and the
pairing <I/dx, J> (``order_unit_pairing``) equals 1 exactly on channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .choi import ChoiMatrix, check_dims
from .errors import DimensionError, NotInSubspaceError, ValidationError
from .hermitian_basis import INV_SQRT2, SQRT2, helmert, hermitian_basis
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


class _Tables(NamedTuple):
    """Where each coefficient of a basis lives in the flat float view of J.

    Positions index ``J.reshape(-1).view(float)``: the real part of entry
    (r, c) sits at 2*(r*n + c) and its imaginary part right after it.
    """

    block: np.ndarray  # (dy, dx^2): per diagonal block, real diagonal, then [re, im] above it
    block_mirror: np.ndarray  # (dy, dx^2): the same entries of J^T
    pair: np.ndarray  # (2P,): [re, im] of the J[y1,:,y2,:] entries, y1 < y2
    pair_mirror: np.ndarray  # (2P,): the same entries of J^T
    weight: np.ndarray  # (dx^2,): 1 on a block's real diagonal, sqrt2 above it
    inv_weight: np.ndarray  # (dx^2,): 1 / weight
    mirror_weight: np.ndarray  # (dx^2,): inv_weight, negated on imaginary parts
    profiles: np.ndarray  # (dy-1, dy): Helmert rows 1.., which mix the diagonal blocks


def _float_positions(dx: int, dy: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(block, pair) float-view positions, in coefficient order, of the
    complex entries numbered by ``flat`` (n, n)."""
    u = flat.reshape(dy, dx, dy, dx).swapaxes(1, 2)  # [y1, y2] = J[y1,:,y2,:]
    ys, (y1, y2), (a, b) = np.arange(dy), np.triu_indices(dy, 1), np.triu_indices(dx, 1)

    def re_im(p):
        return np.stack([2 * p, 2 * p + 1], axis=-1).reshape(p.shape[:-1] + (-1,))

    blocks = u[ys, ys]
    diag = 2 * np.diagonal(blocks, axis1=-2, axis2=-1)
    return np.concatenate([diag, re_im(blocks[:, a, b])], axis=-1), re_im(u[y1, y2].reshape(-1))


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
        stack = _scatter(self, np.eye(len(self)))
        stack.setflags(write=False)
        return stack

    @cached_property
    def _tables(self) -> _Tables:
        """Index tables of ``represent``/``combine``, built on first use.

        2*(dx*dy)^2 intp positions, 16 bytes per Choi entry on 64-bit
        platforms, plus O(dx^2 + dy^2) weights.  Native-width positions let
        ``np.take`` and the fancy writes of ``_scatter`` use them uncast.
        """
        dx, dy, n = self.dx, self.dy, self.dx * self.dy
        flat = np.arange(n * n, dtype=np.intp).reshape(n, n)
        block, pair = _float_positions(dx, dy, flat)
        block_mirror, pair_mirror = _float_positions(dx, dy, flat.T)
        on_diagonal = np.arange(dx * dx) < dx
        inv_weight = np.where(on_diagonal, 1.0, INV_SQRT2)
        return _Tables(
            block=block,
            block_mirror=block_mirror,
            pair=pair,
            pair_mirror=pair_mirror,
            weight=np.where(on_diagonal, 1.0, SQRT2),
            inv_weight=inv_weight,
            mirror_weight=np.where(block[0] % 2, -inv_weight, inv_weight),
            profiles=helmert(dy)[1:],
        )


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
            raise ValidationError("coefficient vector contains non-finite entries")
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


def _gather(basis: ChannelBasis, m: np.ndarray) -> np.ndarray:
    """Coefficients (..., dim S) of Choi matrices (..., n, n), read from their blocks.

    For Hermitian input these are the overlaps <E_k, J> with the basis
    elements; entries below the diagonal are not read.
    """
    t, batch = basis._tables, m.shape[:-2]
    m = np.ascontiguousarray(m)
    f = m.reshape(batch + (-1,)).view(float)
    identity = np.trace(m, axis1=-2, axis2=-1).real[..., None] / np.sqrt(basis.dx * basis.dy)
    diag = t.profiles @ (np.take(f, t.block, axis=-1) * t.weight)
    pairs = SQRT2 * np.take(f, t.pair, axis=-1)
    return np.concatenate([identity, diag.reshape(batch + (-1,)), pairs], axis=-1)


def _scatter(basis: ChannelBasis, values: np.ndarray) -> np.ndarray:
    """Inverse of ``_gather``: Choi matrices (..., n, n) from coefficients (..., dim S)."""
    t, batch, dx, dy = basis._tables, values.shape[:-1], basis.dx, basis.dy
    n, split = dx * dy, 1 + (dy - 1) * dx * dx
    coords = t.profiles.T @ values[..., 1:split].reshape(batch + (dy - 1, dx * dx))
    pairs = values[..., split:] * INV_SQRT2
    f = np.zeros(batch + (2 * n * n,))
    f[..., t.block_mirror] = coords * t.mirror_weight
    f[..., t.block] = coords * t.inv_weight
    f[..., t.pair_mirror] = pairs.view(complex).conj().view(float)
    f[..., t.pair] = pairs
    f[..., :: 2 * (n + 1)] += values[..., :1] / np.sqrt(n)  # real parts of the diagonal
    return f.view(complex).reshape(batch + (n, n))


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


def _scale(m: np.ndarray) -> float:
    """s = max(1, ||m||_F), the scale that the tolerances of S are relative to.

    Raises ``ValidationError`` when the norm is not finite (a NaN or inf
    entry, or entries so large that it overflows): every tolerance would
    then be NaN or inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m))
    if not np.isfinite(norm):
        raise ValidationError(f"matrix has a non-finite Frobenius norm ({norm})")
    return max(1.0, norm)


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
    scale = _scale(m)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL * scale:
        raise ValidationError(f"matrix is not Hermitian (max defect {defect:.3e})")
    resid = partial_trace_first(m, basis.dy, basis.dx)
    resid.flat[:: basis.dx + 1] -= np.trace(resid) / basis.dx
    # ||R||_1 <= sqrt(rank R) ||R||_F, so the Frobenius bound accepts
    # without an eigen- or singular value decomposition.
    tol = membership_tol * scale
    if np.sqrt(basis.dx) * np.linalg.norm(resid) > tol:
        resid_norm = trace_norm(resid)
        if resid_norm > tol:
            raise NotInSubspaceError(resid_norm)
    values = _gather(basis, m)
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
    return ChoiMatrix(dx=basis.dx, dy=basis.dy, matrix=_scatter(basis, values))


def order_unit_pairing(j: ChoiMatrix) -> float:
    """Pairing <I/dx, J> = trace(J)/dx; equals 1 for every CP+TP Choi matrix.

    Scaling is linear: the pairing of t*J is t.  Together with positive
    semidefiniteness and membership in S, pairing 1 already forces trace
    preservation, so the channel set is exactly the unit-pairing slice of
    the positive cone in S.  J is rejected as non-Hermitian under the same
    scale-relative tolerance as in ``represent``.
    """
    defect = hermiticity_defect(j.matrix)
    if defect > HERMITICITY_TOL * _scale(j.matrix):
        raise ValidationError(f"matrix is not Hermitian (max defect {defect:.3e})")
    return float(np.trace(j.matrix).real) / j.dx
