"""Canonical orthonormal basis of the real space of d x d Hermitian matrices.

The basis contains d^2 matrices, constructed exactly (no orthogonalization):

* the scaled identity ``I/sqrt(d)``,
* for k = 1..d-1 the traceless diagonal matrix
  ``(|0><0| + ... + |k-1><k-1| - k |k><k|) / sqrt(k + k^2)``,
* for every index pair a < b the symmetric element
  ``(|a><b| + |b><a|) / sqrt(2)`` followed by the antisymmetric element
  ``(i|a><b| - i|b><a|) / sqrt(2)``.

Element 0 is always the scaled identity; ordering is fixed so that
coefficient vectors are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError

__all__ = ["HermitianBasis", "hermitian_basis"]

SQRT2 = np.sqrt(2)
# Multiplying by this rounded constant, never dividing by SQRT2, keeps the
# built elements entry-for-entry equal to the literal 1/sqrt(2) values.
INV_SQRT2 = 1.0 / SQRT2

Label = tuple


@dataclass(frozen=True)
class HermitianBasis:
    """Ordered orthonormal basis of Herm(C^dim).

    ``elements`` is a stack of shape (dim^2, dim, dim); ``labels`` is the
    parallel tuple of structural labels.  Immutable and safe to share
    across threads.
    """

    dim: int
    elements: np.ndarray
    labels: tuple[Label, ...]

    def __len__(self) -> int:
        return self.elements.shape[0]


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


def block_from_coords(c: np.ndarray, d: int) -> np.ndarray:
    """Hermitian (..., d, d) blocks from their coordinates (..., d^2) in the
    orthonormal projector/sym/antisym basis: the real diagonal, then
    sqrt2*Re and sqrt2*Im of each entry above it, row by row."""
    block = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
    a, b = np.triu_indices(d, 1)
    block[..., np.arange(d), np.arange(d)] = c[..., :d]
    block[..., a, b] = (c[..., d::2] + 1j * c[..., d + 1::2]) * INV_SQRT2
    block[..., b, a] = block[..., a, b].conj()
    return block


def hermitian_basis(d: int) -> HermitianBasis:
    """Build the canonical orthonormal Hermitian basis for dimension ``d``.

    For d = 1 the basis degenerates to the single matrix [[1]].
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    diagonals = [np.diag(row) for row in helmert(d)]
    stack = np.concatenate([diagonals, block_from_coords(np.eye(d * d)[d:], d)]).astype(complex)
    labels: list[Label] = [("identity",)] + [("diagonal", k) for k in range(1, d)]
    for a, b in combinations(range(d), 2):
        labels += [("sym", a, b), ("antisym", a, b)]
    stack.setflags(write=False)
    return HermitianBasis(dim=d, elements=stack, labels=tuple(labels))
