"""Shared fixtures and independent brute-force oracles for the test suite."""

from functools import lru_cache

import numpy as np

from channelrep import channel_basis

SQRT2 = np.sqrt(2.0)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2

HADAMARD_CHOI = 0.5 * np.array(
    [
        [1, 1, 1, -1],
        [1, 1, 1, -1],
        [1, 1, 1, -1],
        [-1, -1, -1, 1],
    ],
    dtype=complex,
)

HADAMARD_COEFF_MULTISET = np.array(
    [1.0, 1.0, 0.70711, 0.70711, -0.70711, -0.70711] + [0.0] * 7
)

# Two-decimal correlation matrix fixture for the entrywise-product channel.
CORRELATION_2DP = np.array(
    [
        [1.0, 0.92 - 0.14j, 0.84 - 0.19j],
        [0.92 + 0.14j, 1.0, 0.81 + 0.06j],
        [0.84 + 0.19j, 0.81 - 0.06j, 1.0],
    ]
)


def _correlation_full() -> np.ndarray:
    # Higher-precision variant consistent with the five-decimal expected
    # coefficients below; rounds to CORRELATION_2DP at two decimals.
    a = np.eye(3, dtype=complex)
    a[0, 1] = (1.29553 - 0.20356j) / SQRT2
    a[0, 2] = (1.18231 - 0.26978j) / SQRT2
    a[1, 2] = (1.14206 + 0.08119j) / SQRT2
    a[1, 0] = np.conj(a[0, 1])
    a[2, 0] = np.conj(a[0, 2])
    a[2, 1] = np.conj(a[1, 2])
    return a


CORRELATION_FULL = _correlation_full()

SCHUR_COEFF_MULTISET = np.array(
    [
        1.0,
        0.70711,
        -0.70711,
        0.40825,
        0.40825,
        -0.8165,
        1.29553,
        -0.20356,
        1.18231,
        -0.26978,
        1.14206,
        0.08119,
    ]
    + [0.0] * 61
)

# File contents the loaders must refuse with FileFormatError (CLI exit 2):
# an integer beyond float range, bytes that are not UTF-8, and arrays nested
# deeper than the JSON decoder recurses.
_HUGE = b"1" + b"0" * 400
MALFORMED_FILES = {
    "huge matrix entry": b'{"kind": "choi", "dx": 1, "dy": 1, "data": [[[%s, 0]]]}' % _HUGE,
    "huge vector value": b'{"dx": 1, "dy": 1, "values": [%s]}' % _HUGE,
    "not utf-8": b"\xff\xfe{}",
    "deep nesting": b"[" * 100000 + b"]" * 100000,
}


def schur_choi_loop(a: np.ndarray) -> np.ndarray:
    """Expected Choi matrix of y -> a .* y, built entry by entry."""
    d = a.shape[0]
    j = np.zeros((d * d, d * d), dtype=complex)
    for p in range(d):
        for q in range(d):
            j[p * d + p, q * d + q] = a[p, q]
    return j


def choi_double_sum(ops, dx: int, dy: int) -> np.ndarray:
    """Brute-force Choi matrix: explicit double sum over matrix units."""
    ops = [np.asarray(k, dtype=complex) for k in ops]
    out = np.zeros((dy * dx, dy * dx), dtype=complex)
    for i in range(dx):
        for j in range(dx):
            unit = np.zeros((dx, dx), dtype=complex)
            unit[i, j] = 1.0
            phi = sum(k @ unit @ k.conj().T for k in ops)
            out += np.kron(phi, unit)
    return out


def apply_kraus(ops, x) -> np.ndarray:
    """Brute-force channel application sum_m K x K^dag."""
    return sum(np.asarray(k) @ x @ np.asarray(k).conj().T for k in ops)


def ptrace_first_loop(m, d1: int, d2: int) -> np.ndarray:
    """Brute-force partial trace over the first factor."""
    out = np.zeros((d2, d2), dtype=complex)
    for i in range(d2):
        for j in range(d2):
            for k in range(d1):
                out[i, j] += m[k * d2 + i, k * d2 + j]
    return out


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_hermitian(rng, d: int) -> np.ndarray:
    m = rand_complex(rng, (d, d))
    return (m + m.conj().T) / 2


def rand_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_complex(rng, (d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[np.newaxis, :]


def rand_kraus_ops(rng, dx: int, dy: int, rank: int):
    return [rand_complex(rng, (dy, dx)) for _ in range(rank)]


def feasible_triples(max_dim: int = 4, max_rank: int = 4):
    """All (dx, dy, rank) with rank <= dx*dy and rank*dy >= dx (TP isometry exists)."""
    return [
        (dx, dy, r)
        for dx in range(1, max_dim + 1)
        for dy in range(1, max_dim + 1)
        for r in range(1, max_rank + 1)
        if r <= dx * dy and r * dy >= dx
    ]


@lru_cache(maxsize=None)
def get_basis(dx: int, dy: int):
    return channel_basis(dx, dy)


def _diagonal_profiles(dy: int) -> list[np.ndarray]:
    """Traceless diagonal vectors (1,..,1,-k,0,..)/sqrt(k+k^2) for k=1..dy-1."""
    out = []
    for k in range(1, dy):
        v = np.zeros(dy)
        v[:k] = 1.0
        v[k] = -k
        out.append(v / np.sqrt(k + k * k))
    return out


@lru_cache(maxsize=None)
def dense_channel_basis(dx: int, dy: int) -> dict:
    """Reference channel basis, element by element: {label: dense n x n element}.

    The explicit Kronecker/positional construction, in basis order.  It is
    the reference that ``ChannelBasis.elements``, ``represent`` and
    ``combine`` are compared against; it costs O((dx*dy)^4) memory.
    """
    n = dx * dy
    sqrt2 = np.sqrt(2)
    elements = {("identity",): np.eye(n, dtype=complex) / np.sqrt(n)}
    for k, profile in enumerate(_diagonal_profiles(dy), start=1):
        d_y = np.diag(profile).astype(complex)
        for x in range(dx):
            proj = np.zeros((dx, dx), dtype=complex)
            proj[x, x] = 1.0
            elements[("diag_proj", k, x)] = np.kron(d_y, proj)
        for a in range(dx):
            for b in range(a + 1, dx):
                sym = np.zeros((dx, dx), dtype=complex)
                sym[a, b] = sym[b, a] = 1.0 / sqrt2
                elements[("diag_sym", k, a, b)] = np.kron(d_y, sym)
                antisym = np.zeros((dx, dx), dtype=complex)
                antisym[a, b] = 1j / sqrt2
                antisym[b, a] = -1j / sqrt2
                elements[("diag_antisym", k, a, b)] = np.kron(d_y, antisym)
    for y1 in range(dy):
        for y2 in range(y1 + 1, dy):
            for x1 in range(dx):
                for x2 in range(dx):
                    p, q = y1 * dx + x1, y2 * dx + x2
                    sym = np.zeros((n, n), dtype=complex)
                    sym[p, q] = sym[q, p] = 1.0 / sqrt2
                    elements[("pair_sym", y1, x1, y2, x2)] = sym
                    antisym = np.zeros((n, n), dtype=complex)
                    antisym[p, q] = 1j / sqrt2
                    antisym[q, p] = -1j / sqrt2
                    elements[("pair_antisym", y1, x1, y2, x2)] = antisym
    return elements


def dense_represent(dx: int, dy: int, m) -> np.ndarray:
    """Reference coefficients: Hilbert-Schmidt overlaps with every dense element."""
    stack = np.stack(list(dense_channel_basis(dx, dy).values()))
    return np.tensordot(stack.conj(), np.asarray(m, dtype=complex), axes=([1, 2], [0, 1])).real


def dense_combine(dx: int, dy: int, v) -> np.ndarray:
    """Reference reassembly: sum_k v[k] * element_k over the dense elements."""
    stack = np.stack(list(dense_channel_basis(dx, dy).values()))
    return np.tensordot(np.asarray(v, dtype=float), stack, axes=1)


def multiset_dev(got, expected) -> float:
    """Max componentwise deviation after sorting both value multisets."""
    got = np.sort(np.asarray(got, dtype=float))
    expected = np.sort(np.asarray(expected, dtype=float))
    assert got.shape == expected.shape
    return float(np.abs(got - expected).max())
