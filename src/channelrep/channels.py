"""Constructors for common channel families and a seeded random channel.

``random_channel`` uses numpy's PCG64 generator (``default_rng``), so a given
seed produces the same channel on every platform and run.
"""

from __future__ import annotations

import warnings

import numpy as np

from .choi import ChoiMatrix, KrausSet, _built, _exact_choi, check_dims
from .choi import choi_from_kraus
from .errors import DomainError, ValidationError
from .linalg import HERMITICITY_TOL, _Hermitian, _check_tolerance, _finite_square, _mirror_upper, res
from .linalg import _is_integer, _text

__all__ = [
    "NotCompletelyPositiveWarning",
    "validate_correlation",
    "unitary_channel",
    "schur_channel",
    "random_channel",
]


class NotCompletelyPositiveWarning(UserWarning):
    """The constructed map is valid but not completely positive."""


def unitary_channel(u) -> ChoiMatrix:
    """Choi matrix of x -> u x u^dag for a unitary u, via res(u) res(u)^dag.

    Like ``choi_from_kraus``, it equals its conjugate transpose exactly.
    A ``u`` with a NaN or inf entry is refused before anything is computed;
    one with entries so large that u^dag u overflows is refused as not
    unitary, without a ``RuntimeWarning``.
    """
    u = _finite_square(u, "unitary matrix")
    check_dims(*u.shape)
    d = u.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(u.conj().T @ u - np.eye(d)).max()
    if not defect <= HERMITICITY_TOL:  # a NaN defect is refused too
        raise ValidationError(f"matrix is not unitary (max |u^dag u - I| = {defect:.3e})")
    v = res(u)
    return _exact_choi(d, d, _mirror_upper(np.outer(v, v.conj())))


def _correlation_record(a, tol: float) -> _Hermitian:
    """The Hermitian record of ``a``, checked as ``validate_correlation`` states."""
    a = _finite_square(a, "correlation matrix")
    check_dims(*a.shape)
    h = _Hermitian(a)
    if h.defect > tol:
        raise ValidationError(f"correlation matrix is not Hermitian (defect {h.defect:.3e})")
    diag_defect = np.abs(np.diag(h.m) - 1.0).max()
    if diag_defect > tol:
        raise ValidationError(
            f"correlation matrix does not have unit diagonal (defect {diag_defect:.3e})"
        )
    return h


def validate_correlation(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Check that ``a`` is finite and Hermitian with unit diagonal; return it
    as complex."""
    return _correlation_record(a, _check_tolerance(tol)).m


def schur_channel(a, cp_tol: float = HERMITICITY_TOL) -> ChoiMatrix:
    """Choi matrix of the entrywise-product map y -> a .* y.

    ``a`` must be finite and Hermitian with unit diagonal; the channel is
    then always trace preserving.  It is completely positive exactly when
    ``a`` is positive semidefinite; if ``a`` is not positive semidefinite
    within ``cp_tol`` (the rule of ``is_completely_positive``) the
    construction still succeeds but a ``NotCompletelyPositiveWarning`` is
    emitted.  A NaN or inf entry is refused before the PSD test, so it
    raises no such warning.
    """
    h = _correlation_record(a, HERMITICITY_TOL)
    a, d = h.m, h.m.shape[0]
    if not h.is_psd(_check_tolerance(cp_tol)):
        warnings.warn(
            f"correlation matrix has min eigenvalue {h.lambda_min:.3e}; "
            "the resulting map is not completely positive",
            NotCompletelyPositiveWarning,
            stacklevel=2,
        )
    # J[x*d + x, x'*d + x'] = a[x, x']; every other entry is zero.  a is
    # finite, so J is, and its record compares J with J^dag on first use.
    j = np.zeros((d * d, d * d), dtype=complex)
    j[:: d + 1, :: d + 1] = a
    j.setflags(write=False)
    return _built(ChoiMatrix, dx=d, dy=d, matrix=j)


def random_channel(dx: int, dy: int, kraus_rank: int, seed: int) -> ChoiMatrix:
    """Seeded random CP+TP channel with the requested Kraus rank.

    Draws a (kraus_rank*dy) x dx standard complex Gaussian matrix,
    orthonormalizes its columns into an isometry (QR with the R diagonal
    phase-fixed to be real positive, for determinism), slices it into
    kraus_rank blocks of shape dy x dx and returns their Choi matrix.
    The isometry condition forces trace preservation.  ``kraus_rank`` and
    ``seed`` are integers under the rule of ``check_dims``, and ``seed >= 0``.
    """
    check_dims(dx, dy)
    if not _is_integer(kraus_rank) or not 1 <= kraus_rank <= dx * dy:
        raise DomainError(
            f"kraus_rank must be an integer in [1, {dx * dy}] for dims ({dx}, {dy}), "
            f"got {_text(kraus_rank, repr)}"
        )
    if not _is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {_text(seed, repr)}")
    if kraus_rank * dy < dx:
        raise DomainError(
            f"kraus_rank {kraus_rank} is too small: a trace-preserving map needs "
            f"kraus_rank*dy >= dx (got {kraus_rank}*{dy} < {dx})"
        )
    rng = np.random.default_rng(seed)
    shape = (kraus_rank * dy, dx)
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(g, mode="reduced")
    # g has full column rank (kraus_rank*dy >= dx, Gaussian entries), so no
    # diagonal entry of r is zero.
    diag = np.diagonal(r)
    kraus = (q * (diag / np.abs(diag))).reshape(kraus_rank, dy, dx)
    return choi_from_kraus(_built(KrausSet, dx=dx, dy=dy, operators=kraus))
