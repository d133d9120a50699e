"""Dense complex matrix primitives used by every other module.

All functions are pure and operate on plain ``numpy`` arrays of complex
dtype.  Vectorization is row-major throughout; tensor products put the
output (Y) factor first.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "HERMITICITY_TOL",
    "hs_inner",
    "kron",
    "partial_trace_first",
    "trace_norm",
    "res",
    "min_eigenvalue_hermitian",
    "is_positive_semidefinite",
    "hermiticity_defect",
    "is_hermitian",
]

# Max-abs-entry tolerance for treating a matrix as Hermitian: well above
# double-precision noise, well below any meaningful signal.
HERMITICITY_TOL = 1e-10


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product trace(a^dag b), conjugate-linear in ``a``."""
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def kron(a, b) -> np.ndarray:
    """Kronecker product with (a x b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    return np.kron(_as_complex(a), _as_complex(b))


def partial_trace_first(m, dim_first: int, dim_second: int) -> np.ndarray:
    """Trace out the first tensor factor of a square matrix on C^d1 x C^d2.

    Returns the dim_second x dim_second matrix R with
    R[i, j] = sum_k m[k*dim_second + i, k*dim_second + j].
    """
    m = _as_complex(m)
    side = dim_first * dim_second
    if m.shape != (side, side):
        raise DimensionError(
            f"expected a {side}x{side} matrix for dims ({dim_first}, {dim_second}), "
            f"got {m.shape}"
        )
    return np.einsum("abac->bc", m.reshape(dim_first, dim_second, dim_first, dim_second))


def trace_norm(m) -> float:
    """Trace norm (sum of singular values). Zero iff the matrix is zero."""
    m = _as_complex(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).sum())


def res(a) -> np.ndarray:
    """Row-major vectorization: res(a)[i*cols + j] = a[i, j].

    For any matrix u, the outer product res(u) res(u)^dag is the Choi matrix
    of the conjugation map x -> u x u^dag.
    """
    return _as_complex(a).reshape(-1)


def _hermitian_part(m) -> np.ndarray:
    """(m + m^dag)/2 as a new array."""
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    h = m + m.conj().T
    h *= 0.5
    return h


def min_eigenvalue_hermitian(m) -> float:
    """Smallest eigenvalue of the Hermitian part (m + m^dag)/2."""
    return float(np.linalg.eigvalsh(_hermitian_part(m))[0])


def is_positive_semidefinite(m, tol: float) -> bool:
    """True if the Hermitian part H = (m + m^dag)/2 has min eigenvalue >= -tol.

    A Cholesky factorisation of H + tol*I that succeeds with a finite
    factor accepts at once; otherwise ``min_eigenvalue_hermitian(m) >= -tol``
    decides.  So the answer is never False where the eigenvalue rule says
    True, and differs from it only when lambda_min(H) + tol is within
    rounding (about n * eps * ||H||) of zero.
    """
    h = _hermitian_part(m)
    h.flat[:: h.shape[0] + 1] += tol
    try:
        # LAPACK reports success with NaN in the factor when entries span a
        # huge range (1e-300 next to 1e200); a NaN or inf anywhere in it
        # reaches its diagonal.
        factored = bool(np.isfinite(np.linalg.cholesky(h).diagonal()).all())
    except np.linalg.LinAlgError:
        factored = False
    return factored or min_eigenvalue_hermitian(m) >= -tol


def hermiticity_defect(m) -> float:
    """Max-abs entry of m - m^dag."""
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def is_hermitian(m, tol: float = HERMITICITY_TOL) -> bool:
    """True if m equals m^dag within ``tol`` in max-abs-entry."""
    return hermiticity_defect(m) <= tol
