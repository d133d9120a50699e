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
  the rows of the Helmert matrix ``helmert(dy)``), its Kronecker product with
  each element of the projector/sym/antisym basis of the input factor
  (projectors |x><x| first, then input index pairs a < b, symmetric before
  antisymmetric);
* for each pair of output indices y1 < y2 and each input index pair (x1, x2),
  the symmetric and antisymmetric matrix-pair elements supported on the
  positions (y1*dx + x1, y2*dx + x2).

For dx = 1 this is the canonical orthonormal basis of dy x dy Hermitian
matrices, which ``hermitian_basis`` and ``sperp_basis`` take from here.

All entries are exact (combinatorial values and 1/sqrt(2) factors), each
element is Hermitian, traceless apart from index 0, orthogonal to all of
``sperp_basis``, and the whole set is orthonormal.  It is NOT the set of
Kronecker products of two canonical Hermitian bases: products of traceless
diagonals on both factors are replaced by the finer diagonal-profile (x)
projector family.  Every element sits on a single pair of input indices,
so ``represent`` reads the coefficients off the Choi blocks J[y1,:,y2,:]
(Re/Im of the blocks above the diagonal, the diagonal blocks mixed by the
Helmert profiles) and ``combine`` writes them back; neither builds the
O((dx*dy)^4) element stack ``ChannelBasis.elements``.  Both work on J
viewed as (dy, dx, dy, dx): the pair blocks are read and written whole, each
lower one as the conjugate transpose of its upper one, and only the entries
of the dx x dx diagonal blocks are addressed one by one.  Where those sit is
a fixed pattern for given dx; each basis builds its O(dx^2 + dy^2) layout
(triangle indices, sqrt(2) weights and Helmert rows) on first use and keeps
it, so a call is a few array operations on views of J.

Tolerances are relative to s = ||J||_F, so the verdicts of ``represent``
and ``order_unit_pairing`` do not depend on units, whether ||J||_F is above
1 or below it: J is rejected as non-Hermitian when its max-abs defect exceeds
HERMITICITY_TOL * s, and by ``represent`` as outside S when the trace norm
of its projection onto the complement, the dx x dx residual
R = Tr_Y J - (tr J/dx) I, exceeds membership_tol * s.  Tr_Y J is the sum of
the whole diagonal blocks that the coefficients are mixed from, so R comes
out of the same read of J.  The bound ||R||_1 <= sqrt(dx) ||R||_F accepts
without a decomposition; only when it does not is the exact trace norm of
the same R computed, which decides and is reported on rejection.  A J whose
norm is not finite (NaN or inf entries, or entries so large that ||J||_F
overflows) is rejected before either check.  The defect, s and the
eigenvalues come from J's Hermitian record (``linalg._Hermitian``), which a
``ChoiMatrix`` keeps, so they are computed once per matrix.  The zero
matrix has s = 0, so every tolerance is 0 and it is judged exactly: it lies
in S.

The first coefficient of any CP+TP Choi matrix equals sqrt(dx/dy), and the
pairing <I/dx, J> (``order_unit_pairing``) equals 1 exactly on channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .choi import ChoiMatrix, _built, _exact_choi, _finite_read_only, _owned, check_dims, check_size
from .errors import DimensionError, NotInSubspaceError, ValidationError
from .linalg import (
    HERMITICITY_TOL,
    _Hermitian,
    _check_tolerance,
    _norm,
    _numbers,
    kron,
    trace_norm,
)

__all__ = [
    "MEMBERSHIP_TOL",
    "ChannelBasis",
    "CoefficientVector",
    "HermitianBasis",
    "hermitian_basis",
    "subspace_dimension",
    "sperp_basis",
    "channel_basis",
    "represent",
    "combine",
    "order_unit_pairing",
]

# Trace-norm threshold, relative to ||J||_F, separating genuine
# non-membership in S (order-1 residuals) from floating-point dust.
MEMBERSHIP_TOL = 1e-8

SQRT2 = np.sqrt(2)
# Multiplying by this rounded constant, never dividing by SQRT2, keeps the
# built elements entry-for-entry equal to the literal 1/sqrt(2) values.
INV_SQRT2 = 1.0 / SQRT2


def subspace_dimension(dx: int, dy: int) -> int:
    """Dimension of S: dx^2 dy^2 - dx^2 + 1, the length of ``channel_basis(dx, dy)``."""
    return len(ChannelBasis(dx, dy))


def helmert(d: int) -> np.ndarray:
    """Real orthogonal d x d Helmert matrix: row 0 is 1/sqrt(d), row k >= 1 is
    the traceless profile (1,..,1,-k,0,..,0)/sqrt(k + k^2) with k leading ones."""
    h = np.zeros((d, d))
    h[0] = 1.0 / np.sqrt(d)
    for k in range(1, d):
        h[k, :k] = 1.0
        h[k, k] = -k
        h[k] /= np.sqrt(k + k * k)
    return h


class _Layout(NamedTuple):
    """Where each coefficient of a basis lives in the blocks J[y1,:,y2,:].

    Indices address the float view of J reshaped to (..., dy, dx, dy, 2*dx),
    whose entry [y1, x1, y2, 2*x2 + p] is the real (p = 0) or imaginary
    (p = 1) part of J[y1, x1, y2, x2].  There are P = dy(dy-1)/2 pair blocks.
    A block row lists the entries of a diagonal block that its coefficients
    are mixed from: the real diagonal, then [re, im] of each entry above it.
    """

    blocks: tuple  # (y1, y2) of each diagonal block, then of each pair block (y1 < y2): dy + P each
    row: np.ndarray  # (dx^2,): the block row in a diagonal block's (dx, 2*dx) floats, flattened
    write: tuple  # (dy, 2, dx^2): per diagonal block, the block row, then each entry's mirror
    weight: np.ndarray  # (dx^2,): 1 on a block's real diagonal, sqrt2 above it
    inv_weight: np.ndarray  # (2, dx^2): 1 / weight, negated on the mirrored imaginary parts
    profiles: np.ndarray  # (dy-1, dy): Helmert rows 1.., which mix the diagonal blocks


@dataclass(frozen=True)
class ChannelBasis:
    """Ordered orthonormal basis of S for fixed (dx, dy).

    The basis is determined by (dx, dy) alone, so that is all it holds, as
    the Python ints ``check_dims`` returns; its length dim(S) is computed
    from them, and its ``labels``, dense ``elements`` and the O(dx^2 + dy^2)
    block layout of ``represent``/``combine`` are derived on first use and
    then kept.  Immutable and safe to share across threads;
    ``represent``/``combine`` are pure and may run concurrently over the
    same basis.
    """

    dx: int
    dy: int

    def __post_init__(self):
        dx, dy = check_dims(self.dx, self.dy)
        self.__dict__.update(dx=dx, dy=dy)

    def __len__(self) -> int:
        return self.dx * self.dx * self.dy * self.dy - self.dx * self.dx + 1

    @cached_property
    def labels(self) -> tuple[tuple, ...]:
        """Structural labels, one per element, in coefficient order."""
        dx, dy = self.dx, self.dy
        labels: list[tuple] = [("identity",)]
        for k in range(1, dy):
            labels += [("diag_proj", k, x) for x in range(dx)]
            for a, b in combinations(range(dx), 2):
                labels += [("diag_sym", k, a, b), ("diag_antisym", k, a, b)]
        for (y1, y2), (x1, x2) in product(combinations(range(dy), 2), product(range(dx), repeat=2)):
            labels += [("pair_sym", y1, x1, y2, x2), ("pair_antisym", y1, x1, y2, x2)]
        return tuple(labels)

    @cached_property
    def elements(self) -> np.ndarray:
        """Read-only dense stack of shape (dim(S), dx*dy, dx*dy), built on first use.

        Element k is ``combine`` of the k-th unit vector.  It takes
        16 dim(S) (dx*dy)^2 bytes, refused with ``DomainError`` above the
        size limit ``choi.MAX_ARRAY_BYTES``; ``represent`` and ``combine``
        never need it.
        """
        n, dim = self.dx * self.dy, len(self)
        check_size(self.dx, self.dy, f"the basis stack of {dim} {n}x{n} elements", 16 * dim * n * n)
        stack = _scatter(self, np.eye(dim))
        stack.setflags(write=False)
        return stack

    @cached_property
    def _layout(self) -> _Layout:
        """Block layout of ``represent``/``combine``, built on first use.

        O(dx^2 + dy^2) indices and weights: nothing grows with (dx*dy)^2.
        """
        dx, dy = self.dx, self.dy
        x, (a, b) = np.arange(dx), np.triu_indices(dx, 1)
        # Entry k of a block row is part[k] (0 real, 1 imaginary) of (x1, x2) =
        # rows[:, k]; its mirror below the diagonal is (x2, x1) = rows[::-1, k].
        rows = np.stack([np.concatenate([x, a.repeat(2)]), np.concatenate([x, b.repeat(2)])])
        part = np.concatenate([np.zeros(dx, dtype=np.intp), np.tile([0, 1], len(a))])
        cols = 2 * rows[::-1] + part
        y = np.arange(dy)[:, np.newaxis, np.newaxis]
        weight = np.where(rows[0] == rows[1], 1.0, SQRT2)
        return _Layout(
            blocks=tuple(np.hstack([np.diag_indices(dy), np.triu_indices(dy, 1)])),
            row=2 * dx * rows[0] + cols[0],
            write=(..., y, rows, y, cols),
            weight=weight,
            inv_weight=np.stack([1 / weight, np.where(part == 1, -1.0, 1.0) / weight]),
            profiles=helmert(dy)[1:],
        )


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Real expansion coefficients of a Choi matrix in a ChannelBasis."""

    dx: int
    dy: int
    values: np.ndarray

    def __post_init__(self):
        vals = _owned(self.values, _numbers(self.values, float, "coefficient vector"))
        basis = ChannelBasis(self.dx, self.dy)  # the dims rule, and dim(S) of its ints
        if vals.shape != (len(basis),):
            raise DimensionError(
                f"coefficient vector for dims ({basis.dx}, {basis.dy}) must have "
                f"length {len(basis)}, got shape {vals.shape}"
            )
        message = "coefficient vector contains non-finite entries"
        self.__dict__.update(dx=basis.dx, dy=basis.dy, values=_finite_read_only(vals, message))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """Ordered orthonormal basis of Herm(C^dim): a read-only (dim^2, dim, dim)
    ``elements`` stack and the parallel tuple of structural ``labels``."""

    dim: int
    elements: np.ndarray
    labels: tuple[tuple, ...]

    def __len__(self) -> int:
        return self.elements.shape[0]


def hermitian_basis(d: int) -> HermitianBasis:
    """The canonical orthonormal Hermitian basis for dimension ``d``.

    Its elements and labels are those of ``channel_basis(1, d)``, in the same
    order, with the labels renamed; for d = 1 the basis degenerates to the
    single matrix [[1]].
    """
    basis = channel_basis(1, d)
    elements = basis.elements  # refused above the size limit before any label is built
    # Every input index is 0 at dx = 1: ("diag_proj", k, 0) becomes
    # ("diagonal", k) and ("pair_sym", a, 0, b, 0) becomes ("sym", a, b).
    names = {"diag_proj": "diagonal", "pair_sym": "sym", "pair_antisym": "antisym"}
    labels = tuple((names.get(name, name), *rest[::2]) for name, *rest in basis.labels)
    return HermitianBasis(dim=basis.dy, elements=elements, labels=labels)


def sperp_basis(dx: int, dy: int) -> np.ndarray:
    """Orthonormal basis of the complement of S: (I_Y/sqrt(dy)) (x) H.

    ``H`` runs over the traceless elements of the dx x dx Hermitian basis;
    the result is a stack of exactly dx^2 - 1 Hermitian matrices (empty for
    dx = 1).  Tracing the output factor of any element yields a traceless
    matrix, never a multiple of the identity.  A stack of 16 (dx^2 - 1)
    (dx*dy)^2 bytes above the size limit raises ``DomainError`` up front.
    """
    dx, dy = check_dims(dx, dy)
    n, count = dx * dy, dx * dx - 1
    check_size(dx, dy, f"the complement stack of {count} {n}x{n} elements", 16 * count * n * n)
    stack = kron(np.eye(dy) / np.sqrt(dy), channel_basis(1, dx).elements[1:])
    stack.setflags(write=False)
    return stack


def channel_basis(dx: int, dy: int) -> ChannelBasis:
    """The canonical orthonormal basis of S for dims (dx, dy)."""
    return ChannelBasis(dx=dx, dy=dy)


def _gather(basis: ChannelBasis, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (..., dim S) and Tr_Y J of Choi matrices (..., n, n), both
    from one read of their blocks.

    For Hermitian input the coefficients are the overlaps <E_k, J> with the
    basis elements; entries below the diagonal do not enter them.  Tr_Y J is
    the sum over y of the whole diagonal blocks J[y,:,y,:], both triangles;
    it is returned as floats (..., 2 dx^2), the [re, im] of its entries in
    row-major order, which ``.view(complex)`` makes the dx x dx matrix.
    """
    t, batch, dx, dy = basis._layout, m.shape[:-2], basis.dx, basis.dy
    m = np.ascontiguousarray(m)
    f = m.view(float).reshape(batch + (dy, dx, dy, 2 * dx))
    y1, y2 = t.blocks
    blocks = f.swapaxes(-3, -2)[..., y1, y2, :, :].reshape(batch + (len(y1), -1))
    rows = blocks[..., :dy, :].take(t.row, axis=-1) * t.weight  # (..., dy, dx^2)
    split = 1 + (dy - 1) * dx * dx
    values = np.empty(batch + (len(basis),))
    values[..., 0] = m.trace(axis1=-2, axis2=-1).real / math.sqrt(dx * dy)
    np.matmul(t.profiles, rows, out=values[..., 1:split].reshape(batch + (dy - 1, dx * dx)))
    np.multiply(blocks[..., dy:, :].reshape(batch + (-1,)), SQRT2, out=values[..., split:])
    return values, blocks[..., :dy, :].sum(axis=-2)


def _scatter(basis: ChannelBasis, values: np.ndarray) -> np.ndarray:
    """Inverse of ``_gather``: Choi matrices (..., n, n) from coefficients (..., dim S).

    Each diagonal block is written with its conjugates below its diagonal,
    and each pair block above the diagonal with its conjugate transpose as
    the block below, so each output equals its conjugate transpose exactly.
    """
    t, batch, dx, dy = basis._layout, values.shape[:-1], basis.dx, basis.dy
    n, split = dx * dy, 1 + (dy - 1) * dx * dx
    coords = t.profiles.T @ values[..., 1:split].reshape(batch + (dy - 1, dx * dx))
    coords[..., :dx] += values[..., :1, np.newaxis] / math.sqrt(n)  # the identity element
    m = np.zeros(batch + (n, n), dtype=complex)
    f = m.view(float).reshape(batch + (dy, dx, dy, 2 * dx))
    f[t.write] = coords[..., np.newaxis, :] * t.inv_weight
    blocks = m.reshape(batch + (dy, dx, dy, dx)).swapaxes(-3, -2)
    upper = (values[..., split:] * INV_SQRT2).view(complex).reshape(batch + (-1, dx, dx))
    y1, y2 = (y[dy:] for y in t.blocks)
    blocks[..., y1, y2, :, :] = upper
    # Conjugated in place, so no second temporary sits beside ``upper``.
    blocks[..., y2, y1, :, :] = np.conjugate(upper, out=upper).swapaxes(-1, -2)
    return m


def _check_basis_dims(basis: ChannelBasis, what: str, dx: int, dy: int) -> None:
    if (dx, dy) != (basis.dx, basis.dy):
        raise DimensionError(
            f"{what} dims ({dx}, {dy}) do not match basis dims ({basis.dx}, {basis.dy})"
        )


def _coerce_choi(basis: ChannelBasis, j) -> _Hermitian:
    """The Hermitian record of J: the one a ``ChoiMatrix`` keeps, or a new
    one of a bare square array of side dx*dy."""
    if isinstance(j, ChoiMatrix):
        _check_basis_dims(basis, "Choi", j.dx, j.dy)
        return j._hermitian
    m = _numbers(j)
    n = basis.dx * basis.dy
    if m.shape != (n, n):
        raise DimensionError(f"expected a {n}x{n} matrix, got {m.shape}")
    return _Hermitian(np.ascontiguousarray(m))


def _hermitian_scale(h: _Hermitian) -> float:
    """The scale s of the record's matrix (a non-finite norm is refused
    first); the matrix is rejected as non-Hermitian above HERMITICITY_TOL * s."""
    scale = h.scale()
    if h.defect > HERMITICITY_TOL * scale:
        raise ValidationError(f"matrix is not Hermitian (max defect {h.defect:.3e})")
    return scale


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
    h = _coerce_choi(basis, j)
    tol = _check_tolerance(membership_tol) * _hermitian_scale(h)
    values, resid = _gather(basis, h.m)
    # R = Tr_Y J - (tr J/dx) I, formed once in the floats of Tr_Y J; the
    # complex trace is divided by dx.  ||R||_1 <= sqrt(dx) ||R||_F accepts
    # without a decomposition; only the exact trace norm of R rejects.
    r = resid.view(complex)
    diag = r[:: basis.dx + 1]
    diag -= diag.sum() / basis.dx
    if _norm(resid, resid @ resid, basis.dx) > tol:
        resid_norm = trace_norm(r.reshape(basis.dx, basis.dx))
        if resid_norm > tol:
            raise NotInSubspaceError(resid_norm)
    # Finite unchecked: s refused a non-finite ||J||_F, and each is at most sqrt(2) ||J||_F.
    values.setflags(write=False)
    return _built(CoefficientVector, dx=basis.dx, dy=basis.dy, values=values)


def combine(basis: ChannelBasis, v) -> ChoiMatrix:
    """Reassemble the Choi matrix sum_k v[k] * basis.elements[k].

    Exact linear combination, no projection; inverse of ``represent`` on S.
    The coefficients are written straight into the Choi blocks, so the
    element stack is never built.  The result is exactly Hermitian by
    construction, and its record says so without comparing.  A bare array
    is checked as a ``CoefficientVector`` of the basis dims.  Finite
    coefficients so large that the Helmert profiles overflow when mixing
    them raise ``ValidationError``.
    """
    if not isinstance(v, CoefficientVector):
        v = CoefficientVector(dx=basis.dx, dy=basis.dy, values=v)
    _check_basis_dims(basis, "vector", v.dx, v.dy)
    with np.errstate(over="ignore", invalid="ignore"):  # _exact_choi refuses the result
        return _exact_choi(basis.dx, basis.dy, _scatter(basis, v.values))


def order_unit_pairing(j: ChoiMatrix) -> float:
    """Pairing <I/dx, J> = trace(J)/dx; equals 1 for every CP+TP Choi matrix.

    Scaling is linear: the pairing of t*J is t.  Together with positive
    semidefiniteness and membership in S, pairing 1 already forces trace
    preservation, so the channel set is exactly the unit-pairing slice of
    the positive cone in S.  J is rejected as non-Hermitian under the same
    scale-relative tolerance as in ``represent``.
    """
    _hermitian_scale(j._hermitian)
    return float(np.trace(j.matrix).real) / j.dx
