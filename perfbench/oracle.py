"""Independent correctness oracle for the benchmark (numpy only).

Nothing here imports channelrep.  Coefficients are read straight from Choi
entries by basis label, as the channel-subspace basis is documented:

* ``identity``            tr J / sqrt(n)
* ``pair_sym``            sqrt2 * Re J[p, q]
* ``pair_antisym``        sqrt2 * Im J[p, q]
* ``diag_proj/sym/antisym``  the same reads on the diagonal output blocks,
  weighted by the traceless profile (1,..,1,-k,0,..)/sqrt(k+k^2)

with p = y1*dx + x1, q = y2*dx + x2 (output factor first).  The membership
residual of a matrix outside S is ||Tr_Y J - (tr J/dx) I||_1, a dx x dx SVD.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def dim_s(dx: int, dy: int) -> int:
    return dx * dx * dy * dy - dx * dx + 1


def labels(dx: int, dy: int) -> list[tuple]:
    """Canonical label order of the channel-subspace basis."""
    out: list[tuple] = [("identity",)]
    for k in range(1, dy):
        out += [("diag_proj", k, x) for x in range(dx)]
        for a in range(dx):
            for b in range(a + 1, dx):
                out += [("diag_sym", k, a, b), ("diag_antisym", k, a, b)]
    for y1 in range(dy):
        for y2 in range(y1 + 1, dy):
            for x1 in range(dx):
                for x2 in range(dx):
                    out += [("pair_sym", y1, x1, y2, x2), ("pair_antisym", y1, x1, y2, x2)]
    return out


def _profile(dy: int, k: int) -> np.ndarray:
    v = np.zeros(dy)
    v[:k] = 1.0
    v[k] = -k
    return v / math.sqrt(k + k * k)


class Reader:
    """Reads the coefficient vector of a Choi matrix entry by entry.

    Every coefficient is a weighted sum of Re or Im of a few Choi entries;
    the terms are precomputed once per (dx, dy) as flat index arrays.
    """

    def __init__(self, dx: int, dy: int):
        self.dx, self.dy, self.n = dx, dy, dx * dy
        self.labels = labels(dx, dy)
        terms = []  # (coefficient index, p, q, weight, use_imag)
        for idx, lab in enumerate(self.labels):
            kind = lab[0]
            if kind == "identity":
                terms += [(idx, i, i, 1.0 / math.sqrt(self.n), False) for i in range(self.n)]
            elif kind.startswith("diag_"):
                prof = _profile(dy, lab[1])
                a, b = (lab[2], lab[2]) if kind == "diag_proj" else (lab[2], lab[3])
                w = 1.0 if kind == "diag_proj" else SQRT2
                terms += [
                    (idx, y * dx + a, y * dx + b, w * prof[y], kind == "diag_antisym")
                    for y in range(dy)
                    if prof[y] != 0.0
                ]
            else:
                _, y1, x1, y2, x2 = lab
                terms.append((idx, y1 * dx + x1, y2 * dx + x2, SQRT2, kind == "pair_antisym"))
        k, p, q, w, im = zip(*terms)
        self._k = np.array(k)
        self._p = np.array(p)
        self._q = np.array(q)
        self._w = np.array(w)
        self._im = np.array(im)

    def coefficients(self, j: np.ndarray) -> np.ndarray:
        vals = j[self._p, self._q]
        parts = np.where(self._im, vals.imag, vals.real)
        return np.bincount(self._k, weights=self._w * parts, minlength=len(self.labels))


# ---- Choi matrices built from first principles (Y factor first, row-major vec)


def choi_of_kraus(ops) -> np.ndarray:
    vecs = np.stack([np.asarray(k, dtype=complex).reshape(-1) for k in ops])
    return np.einsum("mi,mj->ij", vecs, vecs.conj())


def choi_of_unitary(u) -> np.ndarray:
    return choi_of_kraus([u])


def choi_of_schur(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    j = np.zeros((d * d, d * d), dtype=complex)
    for r in range(d):
        for c in range(d):
            j[r * d + r, c * d + c] = a[r, c]
    return j


# ---- seeded raw inputs


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_kraus(rng: np.random.Generator, dx: int, dy: int, rank: int) -> np.ndarray:
    """Kraus operators of a random CP+TP map: blocks of a random isometry."""
    g = rng.standard_normal((rank * dy, dx)) + 1j * rng.standard_normal((rank * dy, dx))
    q, _ = np.linalg.qr(g)
    return q.reshape(rank, dy, dx)


def random_correlation(rng: np.random.Generator, d: int, psd: bool = True) -> np.ndarray:
    """Hermitian unit-diagonal matrix; a Gram matrix when ``psd`` is set."""
    if psd:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        a = g @ g.conj().T
    else:
        # Off-diagonal moduli near 1 with random phases: not PSD for d >= 3.
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi, (d, d)))
        a = 0.95 * np.triu(ph, 1)
        a = a + a.conj().T
    np.fill_diagonal(a, 1.0)
    return (a + a.conj().T) / 2


def traceless_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    return h - np.trace(h).real / d * np.eye(d)


# ---- properties


def partial_trace_y(j: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Tr_Y J for J on Y (x) X, Y first."""
    return np.einsum("yayb->ab", j.reshape(dy, dx, dy, dx))


def residual_trace_norm(j: np.ndarray, dx: int, dy: int) -> float:
    """Trace norm of the projection of J onto the complement of S."""
    r = partial_trace_y(j, dx, dy) - np.trace(j).real / dx * np.eye(dx)
    return float(np.linalg.svd(r, compute_uv=False).sum())


def scale(j: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(j)))


class Mismatch(AssertionError):
    """An output disagrees with the oracle or a property of the method."""


def close(name: str, got, want, tol: float) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
    if not err <= tol:
        raise Mismatch(f"{name}: off by {err:.3e} (tolerance {tol:.1e})")


def check_vector(j: np.ndarray, v: np.ndarray, reader: Reader, channel: bool) -> None:
    """v must be the oracle coefficient vector of j, with Parseval and c0."""
    s = scale(j)
    if v.shape != (len(reader.labels),):
        raise Mismatch(f"vector length {v.shape} != dim(S) {len(reader.labels)}")
    close("coefficients", v, reader.coefficients(j), 1e-12 * s)
    close("parseval", np.linalg.norm(v), np.linalg.norm(j), 1e-12 * s)
    if channel:
        close("c0", v[0], math.sqrt(reader.dx / reader.dy), 1e-12)
        close("pairing", np.trace(j).real / reader.dx, 1.0, 1e-12)


def check_in_s(j: np.ndarray, dx: int, dy: int) -> None:
    s = scale(j)
    close("hermiticity", j, j.conj().T, 1e-12 * s)
    ptr = partial_trace_y(j, dx, dy)
    close("membership", ptr, np.trace(j).real / dx * np.eye(dx), 1e-12 * s)


def check_channel(j: np.ndarray, dx: int, dy: int, rank: int | None = None) -> None:
    """j is a CP+TP Choi matrix (of Kraus rank at most ``rank``)."""
    check_in_s(j, dx, dy)
    close("trace preservation", partial_trace_y(j, dx, dy), np.eye(dx), 1e-12)
    eig = np.linalg.eigvalsh((j + j.conj().T) / 2)
    if eig[0] < -1e-10:
        raise Mismatch(f"not CP: min eigenvalue {eig[0]:.3e}")
    if rank is not None and int((eig > 1e-10).sum()) > rank:
        raise Mismatch(f"Kraus rank {(eig > 1e-10).sum()} > requested {rank}")
