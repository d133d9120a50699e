"""Dense complex matrix primitives used by every other module.

All functions are pure and operate on plain ``numpy`` arrays of complex
dtype.  Every array a caller hands the package, here or in any other module,
is read by one rule, ``_numbers``.  Vectorization is row-major throughout; tensor products put the
output (Y) factor first.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

__all__ = [
    "HERMITICITY_TOL",
    "hs_inner",
    "kron",
    "partial_trace_first",
    "trace_norm",
    "res",
    "min_eigenvalue_hermitian",
    "hermiticity_defect",
    "is_hermitian",
]

# Max-abs-entry tolerance for treating a matrix as Hermitian: well above
# double-precision noise, well below any meaningful signal.
HERMITICITY_TOL = 1e-10


# The smallest normal float: a sum of squares below it may have underflowed.
_TINY = np.finfo(float).tiny


def _norm(a: np.ndarray, sumsq: float, weight: int = 1) -> float:
    """sqrt(weight * sumsq), where ``sumsq`` is the plain sum of |a|^2.

    Entries below about 1e-154 square to 0, so a sum below the normal range
    may have lost a nonzero ``a``: it is then summed again, with ``a`` scaled
    by its largest |entry|.  In the normal range this is ``sqrt`` alone.
    """
    if sumsq < _TINY and (big := np.abs(a).max(initial=0.0)) > 0:
        return float(big * math.sqrt(weight * np.square(np.abs(a) / big).sum()))
    return math.sqrt(weight * sumsq)


def _is_integer(v) -> bool:
    """The package's integer rule: Python or numpy integers qualify, ``bool``
    does not, and nothing is rounded or converted."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _text(v, form=format) -> str:
    """``form(v)`` (by default ``f"{v}"``), or for an integer longer than
    Python prints (its digit limit) its bit length: a message must not fail
    on the value it names."""
    try:
        return form(v)
    except ValueError:
        return f"<{v.bit_length()}-bit integer>"


def _check_positive_dims(d1, d2) -> None:
    """Raise ``DomainError`` unless both dims are integers >= 1 under
    ``_is_integer``: the package's dimension rule.  ``choi.check_dims`` adds
    the size limit for what it will build."""
    if not all(_is_integer(d) and d >= 1 for d in (d1, d2)):
        raise DomainError(f"dimensions must be positive integers, got ({_text(d1)}, {_text(d2)})")


# The leaf types ``_numbers`` reads for each target dtype; ``bool``, an ``int``
# subclass, is refused apart.
_LEAVES = {float: (int, float, np.integer, np.floating), complex: (int, float, complex, np.number)}


def _check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is a real Python or numpy number (not ``bool``)
    that is finite and >= 0; otherwise (NaN, integers beyond float range,
    strings, ``None``, complex numbers and arrays included) raise
    ``DomainError``.  Every public tolerance, and the CLI's tolerance flags,
    pass through here."""
    shown = None
    if not isinstance(tol, bool) and isinstance(tol, _LEAVES[float]):
        try:
            if 0 <= float(tol) < math.inf:
                return tol
        except OverflowError:  # an integer beyond float range, maybe too long to print
            shown = f"a {tol.bit_length()}-bit integer"
    raise DomainError(f"tolerance must be a finite number >= 0, got {shown or repr(tol)}")


def _masked(data, ma) -> bool:
    """Whether ``data`` is, or holds in lists and tuples at any depth, a masked
    array with a masked entry (``numpy.ma.masked`` included).  numpy reads a
    masked array inside a list as its data, hidden values and all.  Only
    lists that hold a list, a tuple or a masked array are looked into."""
    nested = (list, tuple, ma.MaskedArray)
    items = [data]
    while items:
        x = items.pop()
        if isinstance(x, ma.MaskedArray):
            if ma.is_masked(x):
                return True
        elif isinstance(x, (list, tuple)) and any(issubclass(t, nested) for t in set(map(type, x))):
            items.extend(x)
    return False


def _numbers(data, dtype=complex, what: str = "matrix") -> np.ndarray:
    """``data`` as an array of ``dtype`` (``float`` or ``complex``): the one
    rule for the values of every array a caller hands the package.

    A numpy array of integers or floats (or complex numbers, for a complex
    ``dtype``) passes on its dtype alone, and one of ``dtype`` itself is
    returned as is, not copied.  Anything else is read as an object array,
    each leaf of which must be an ``int``, a ``float``, a ``complex`` (for a
    complex ``dtype``) or a numpy number of those kinds: ``bool``,
    ``numpy.bool_``, strings, ``None`` and other objects raise
    ``ValidationError("{what} must contain only numbers")``, and an integer
    beyond float range raises ``ValidationError("non-finite {what}")``.  A
    masked array with a masked entry, at the top or nested in lists, raises
    ``ValidationError("{what} has masked entries")``; one without is read as
    its data.
    Ragged data, which numpy will not hold as objects or whose leaves are
    themselves lists or arrays, raises ``DimensionError``.  Finiteness is
    the caller's rule: NaN and inf pass.
    """
    if type(data) is np.ndarray and data.dtype.kind in ("iufc" if dtype is complex else "iuf"):
        return data if data.dtype == dtype else data.astype(dtype)
    # numpy does not import numpy.ma, and a CLI call should not pay for it: data
    # can hold a masked array only once something else has imported it.
    ma = sys.modules.get("numpy.ma")
    if ma is not None and _masked(data, ma):  # never read the values it hides
        raise ValidationError(f"{what} has masked entries")
    try:
        a = np.asarray(data, dtype=object)
    except ValueError:  # ragged lists that an older numpy will not hold as objects
        types = {list}
    else:
        types = set(map(type, a.reshape(-1)))
    if any(issubclass(t, (list, tuple, np.ndarray)) for t in types):  # a nested leaf
        raise DimensionError(f"ragged {what}")
    if bool in types or not all(issubclass(t, _LEAVES[dtype]) for t in types):
        raise ValidationError(f"{what} must contain only numbers")
    try:
        return a.astype(dtype)
    except OverflowError:  # an integer beyond float range, as non-finite as 1e400
        raise ValidationError(f"non-finite {what}") from None


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product trace(a^dag b), conjugate-linear in ``a``."""
    a, b = _numbers(a), _numbers(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def kron(a, b) -> np.ndarray:
    """Kronecker product with (a x b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    return np.kron(_numbers(a), _numbers(b))


def partial_trace_first(m, dim_first: int, dim_second: int) -> np.ndarray:
    """Trace out the first tensor factor of a square matrix on C^d1 x C^d2.

    Returns the dim_second x dim_second matrix R with
    R[i, j] = sum_k m[k*dim_second + i, k*dim_second + j].  Dims that are
    not integers >= 1 raise ``DomainError``, as in ``choi.check_dims``.
    """
    m = _numbers(m)
    _check_positive_dims(dim_first, dim_second)
    side = dim_first * dim_second
    if m.shape != (side, side):
        side = _text(side)
        raise DimensionError(
            f"expected a {side}x{side} matrix for dims ({_text(dim_first)}, {_text(dim_second)}), "
            f"got {m.shape}"
        )
    return np.einsum("abac->bc", m.reshape(dim_first, dim_second, dim_first, dim_second))


def trace_norm(m) -> float:
    """Trace norm (sum of singular values). Zero iff the matrix is zero.

    A square matrix that equals its conjugate transpose exactly has the
    absolute values of its eigenvalues as singular values, so it is summed
    from ``eigvalsh``; the two sums agree to rounding, about
    n * eps * ||m||_2.  Anything else (a stack, a non-square or a
    non-Hermitian matrix) is summed from its SVD.  Raises ``DimensionError``
    below two dimensions and ``ValidationError`` when an entry is NaN or
    inf; finite entries whose sum overflows give inf.
    """
    m = _numbers(m)
    if m.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    try:
        with np.errstate(over="ignore"):  # finite entries may sum to inf
            if m.ndim == 2 and m.shape[0] == m.shape[1] and (h := _Hermitian(m)).exact:
                total = float(np.abs(h.eigenvalues()).sum())
            else:
                total = float(np.linalg.svd(m, compute_uv=False).sum())
    except np.linalg.LinAlgError:  # LAPACK gives up on NaN and inf entries
        total = math.nan
    if math.isnan(total):
        raise ValidationError("trace norm of a matrix with non-finite entries")
    return total


def res(a) -> np.ndarray:
    """Row-major vectorization: res(a)[i*cols + j] = a[i, j].

    For any matrix u, the outer product res(u) res(u)^dag is the Choi matrix
    of the conjugation map x -> u x u^dag.
    """
    return _numbers(a).reshape(-1)


def _finite_square(m, what: str = "matrix") -> np.ndarray:
    """``m`` as a complex square matrix whose entries are all finite:
    ``DimensionError`` for another shape, ``ValidationError`` naming ``what``
    for a NaN or inf entry.  The rule of the predicates below and of the
    channel families' matrices."""
    m = _numbers(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} contains non-finite entries")
    return m


# Columns mirrored at a time by ``_mirror_upper``.
_PANEL = 64


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """Make the C-contiguous (..., n, n) array ``m`` exactly Hermitian in place.

    Each entry below the diagonal becomes the conjugate of its mirror above
    it, and the diagonal is made real; returns ``m``.  Only for matrices the
    package builds: input data is judged as given, never coerced.  It works
    in panels of ``_PANEL`` columns, so no temporary holds more than n by
    ``_PANEL`` entries: within a panel's diagonal block under a triangular
    mask, and below it as the conjugate transpose of the strip beside it.
    """
    n = m.shape[-1]
    lower = np.tri(_PANEL, k=-1, dtype=bool)
    for i in range(0, n, _PANEL):
        k = min(i + _PANEL, n)
        block = m[..., i:k, i:k]
        np.copyto(block, block.swapaxes(-1, -2).conj(), where=lower[: k - i, : k - i])
        m[..., k:, i:k] = m[..., i:k, k:].swapaxes(-1, -2).conj()
    m.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1].imag = 0
    return m


class _Hermitian:
    """What one exact comparison of a square complex array m with m^dag decides.

    ``exact`` is m == m^dag entry for entry; ``defect`` is the max-abs entry
    of m - m^dag, exactly 0.0 when ``exact``.  Both come from one comparison,
    made when the record is built; m^dag is not kept after it.  A matrix the
    package built exactly Hermitian by mirroring is recorded with
    ``exact=True`` and never compared.  The scale, the Hermitian part, its
    eigenvalues and the PSD verdict follow; the scale and the eigenvalues are
    computed at most once.  A ``ChoiMatrix`` caches its record, so the
    predicates, ``represent`` and the CLI share one analysis of J.
    """

    __slots__ = ("m", "exact", "defect", "_scale", "_eigenvalues")

    def __init__(self, m: np.ndarray, exact: bool = False):
        self.m = m
        self._scale = None
        self._eigenvalues = None
        self.exact, self.defect = (True, 0.0) if exact else self._compare()

    def _compare(self) -> tuple[bool, float]:
        """(exact, defect) of m, from one comparison with m^dag."""
        # Compared as float views of two C-ordered arrays: equal parts are
        # equal entries, and numpy compares floats faster than complex.
        m_dag = np.conjugate(self.m.T, order="C")
        exact = bool((np.ascontiguousarray(self.m).view(float) == m_dag.view(float)).all())
        # Entries near the float limit overflow in the difference and inf
        # entries give NaN: the defect says so without a RuntimeWarning, and
        # ``scale`` refuses such a matrix where a tolerance is relative to it.
        with np.errstate(over="ignore", invalid="ignore"):
            return exact, 0.0 if exact else float(np.abs(self.m - m_dag).max())

    def scale(self) -> float:
        """s = ||m||_F, the scale the package's tolerances are relative to.

        With no floor, a verdict does not depend on units below a norm of 1
        either, and the zero matrix is judged exactly; entries whose squares
        underflow still give their norm (``_norm``).  Raises
        ``ValidationError`` when the norm is not finite (a NaN or inf entry,
        or entries so large that it overflows): every tolerance would then be
        NaN or inf.
        """
        if self._scale is None:
            norm = _norm(self.m, np.vdot(self.m, self.m).real)
            if not math.isfinite(norm):
                raise ValidationError(f"matrix has a non-finite Frobenius norm ({norm})")
            self._scale = norm
        return self._scale

    def part(self) -> np.ndarray:
        """(m + m^dag)/2 as a new C-ordered array: a copy of m when ``exact``.

        Otherwise formed as m/2 + m^dag/2, which cannot overflow where
        m + m^dag would (finite entries above about 9e307), and equals
        (m + m^dag)/2 bit for bit unless an entry is subnormal.
        """
        if self.exact:
            return self.m.copy()
        h = np.multiply(self.m, 0.5, order="C")
        h += 0.5 * self.m.conj().T
        return h

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the Hermitian part, ascending; computed once."""
        if self._eigenvalues is None:
            self._eigenvalues = np.linalg.eigvalsh(self.m if self.exact else self.part())
        return self._eigenvalues

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues()[0])

    def is_psd(self, tol: float) -> bool:
        """The verdict of ``is_positive_semidefinite(m, tol)``."""
        h = self.part()
        h.reshape(-1)[:: h.shape[0] + 1] += tol  # the diagonal, in place
        try:
            # LAPACK reports success with NaN in the factor when entries span a
            # huge range (1e-300 next to 1e200); a NaN or inf anywhere in it
            # reaches its diagonal.
            if np.isfinite(np.linalg.cholesky(h).diagonal()).all():
                return True
        except np.linalg.LinAlgError:
            pass
        return self.lambda_min >= -tol


def min_eigenvalue_hermitian(m) -> float:
    """Smallest eigenvalue of the Hermitian part (m + m^dag)/2 of a nonempty
    finite square matrix."""
    m = _finite_square(m)
    if m.size == 0:
        raise DimensionError("expected a nonempty matrix, got shape (0, 0)")
    return _Hermitian(m).lambda_min


def is_positive_semidefinite(m, tol: float) -> bool:
    """True if the Hermitian part H = (m + m^dag)/2 has min eigenvalue >= -tol.

    A Cholesky factorisation of H + tol*I that succeeds with a finite
    factor accepts at once; otherwise ``min_eigenvalue_hermitian(m) >= -tol``
    decides.  So the answer is never False where the eigenvalue rule says
    True, and differs from it only when lambda_min(H) + tol is within
    rounding (about n * eps * ||H||) of zero.
    """
    return _Hermitian(_finite_square(m)).is_psd(_check_tolerance(tol))


def hermiticity_defect(m) -> float:
    """Max-abs entry of m - m^dag for a finite square matrix; exactly 0.0
    when m equals m^dag."""
    return _Hermitian(_finite_square(m)).defect


def is_hermitian(m, tol: float = HERMITICITY_TOL) -> bool:
    """True if m equals m^dag within ``tol`` in max-abs-entry."""
    return hermiticity_defect(m) <= _check_tolerance(tol)
