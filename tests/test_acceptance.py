"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity and its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from channelrep import (
    NotInSubspaceError,
    choi_from_kraus,
    combine,
    hermitian_basis,
    kron,
    order_unit_pairing,
    random_channel,
    represent,
    schur_channel,
    sperp_basis,
    subspace_dimension,
    trace_norm,
    unitary_channel,
    KrausSet,
    apply_channel,
)
from channelrep.cli import main as cli_main
from channelrep.fileio import save_matrix_file

from fixtures import (
    CORRELATION_2DP,
    CORRELATION_FULL,
    HADAMARD,
    HADAMARD_CHOI,
    HADAMARD_COEFF_MULTISET,
    SCHUR_COEFF_MULTISET,
    apply_kraus,
    choi_double_sum,
    feasible_triples,
    get_basis,
    multiset_dev,
    rand_complex,
    rand_hermitian,
    rand_kraus_ops,
    schur_choi_loop,
)


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_hadamard_choi_reproduction():
    j = unitary_channel(HADAMARD)
    dev = float(np.abs(j.matrix - HADAMARD_CHOI).max())
    unitary_channel(HADAMARD)  # warm up before timing
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        unitary_channel(HADAMARD)
        times.append(time.perf_counter() - t0)
    runtime = min(times)
    ok = dev <= 1e-12 and runtime < 1e-3
    assert _report(1, ok, f"max entry dev {dev:.3e} (tol 1e-12), runtime {runtime * 1e3:.3f} ms (< 1 ms)")


def test_criterion_2_schur_choi_reproduction():
    j = schur_channel(CORRELATION_2DP)
    dev = float(np.abs(j.matrix - schur_choi_loop(CORRELATION_2DP)).max())
    spot = max(
        abs(j.matrix[0, 4] - (0.92 - 0.14j)),
        abs(j.matrix[4, 0] - (0.92 + 0.14j)),
        abs(j.matrix[0, 8] - (0.84 - 0.19j)),
        abs(j.matrix[8, 4] - (0.81 - 0.06j)),
        abs(j.matrix[0, 0] - 1.0),
    )
    off_support = j.matrix.copy()
    idx = [0, 4, 8]
    off_support[np.ix_(idx, idx)] = 0.0
    ok = dev <= 1e-12 and spot <= 1e-12 and np.abs(off_support).max() == 0.0
    assert _report(2, ok, f"max entry dev {dev:.3e} (tol 1e-12), displayed entries dev {spot:.3e}")


def test_criterion_3_vector_lengths():
    len22 = len(represent(get_basis(2, 2), unitary_channel(HADAMARD)))
    len33 = len(represent(get_basis(3, 3), schur_channel(CORRELATION_2DP)))
    formula_ok = all(
        subspace_dimension(dx, dy) == dx * dx * dy * dy - dx * dx + 1
        and len(get_basis(dx, dy)) == subspace_dimension(dx, dy)
        for dx in range(1, 6)
        for dy in range(1, 6)
    )
    ok = len22 == 13 and len33 == 73 and formula_ok
    assert _report(3, ok, f"lengths {len22}/{len33} (want 13/73), formula grid 1..5 ok={formula_ok}")


def test_criterion_4_coefficient_multisets():
    v_had = represent(get_basis(2, 2), unitary_channel(HADAMARD))
    dev_had = multiset_dev(v_had.values, HADAMARD_COEFF_MULTISET)
    v_schur = represent(get_basis(3, 3), schur_channel(CORRELATION_FULL))
    dev_schur = multiset_dev(v_schur.values, SCHUR_COEFF_MULTISET)
    ok = dev_had <= 1e-4 and dev_schur <= 1e-4
    assert _report(4, ok, f"multiset dev hadamard {dev_had:.3e}, schur {dev_schur:.3e} (tol 1e-4)")


def test_criterion_5_roundtrip_accuracy():
    t0 = time.perf_counter()
    worst = 0.0
    for name, j in (
        ("hadamard", unitary_channel(HADAMARD)),
        ("schur", schur_channel(CORRELATION_2DP)),
    ):
        b = get_basis(j.dx, j.dy)
        worst = max(worst, trace_norm(j.matrix - combine(b, represent(b, j)).matrix))
    triples = feasible_triples(4, 4)
    count = 0
    i = 0
    while count < 200:
        dx, dy, rank = triples[i % len(triples)]
        j = random_channel(dx, dy, rank, seed=1000 + i)
        b = get_basis(dx, dy)
        worst = max(worst, trace_norm(j.matrix - combine(b, represent(b, j)).matrix))
        count += 1
        i += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert _report(
        5, ok, f"worst trace-norm error {worst:.3e} over 202 channels (tol 1e-12), {elapsed:.2f} s (< 10 s)"
    )


def test_criterion_6_fixed_first_coefficient():
    triples = feasible_triples(4, 4)
    worst = 0.0
    for i in range(200):
        dx, dy, rank = triples[i % len(triples)]
        j = random_channel(dx, dy, rank, seed=2000 + i)
        v = represent(get_basis(dx, dy), j)
        worst = max(worst, abs(v.values[0] - np.sqrt(dx / dy)))
    ok = worst <= 1e-10
    assert _report(6, ok, f"worst |c0 - sqrt(dx/dy)| {worst:.3e} over 200 channels (tol 1e-10)")


def test_criterion_7_order_unit_pairing():
    worst = max(
        abs(order_unit_pairing(unitary_channel(HADAMARD)) - 1.0),
        abs(order_unit_pairing(schur_channel(CORRELATION_2DP)) - 1.0),
        abs(order_unit_pairing(schur_channel(CORRELATION_FULL)) - 1.0),
    )
    triples = feasible_triples(4, 4)
    for i in range(200):
        dx, dy, rank = triples[i % len(triples)]
        j = random_channel(dx, dy, rank, seed=3000 + i)
        worst = max(worst, abs(order_unit_pairing(j) - 1.0))
    ok = worst <= 1e-10
    assert _report(7, ok, f"worst |pairing - 1| {worst:.3e} (tol 1e-10)")


def test_criterion_8_orthogonality_suites():
    worst_hb = 0.0
    for d in range(1, 7):
        stack = hermitian_basis(d).elements
        flat = stack.reshape(len(stack), -1)
        gram = flat.conj() @ flat.T
        worst_hb = max(worst_hb, float(np.abs(gram - np.eye(len(stack))).max()))

    worst_perp = 0.0
    worst_on = 0.0
    for dx in range(1, 5):
        for dy in range(1, 5):
            b = get_basis(dx, dy)
            flat = b.elements.reshape(len(b), -1)
            gram = flat.conj() @ flat.T
            worst_on = max(worst_on, float(np.abs(gram - np.eye(len(b))).max()))
            sp = sperp_basis(dx, dy)
            if len(sp):
                overlaps = np.tensordot(b.elements.conj(), sp, axes=([1, 2], [1, 2]))
                worst_perp = max(worst_perp, float(np.abs(overlaps).max()))

    rng = np.random.default_rng(4000)
    worst_rec = 0.0
    dims = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
    for i in range(50):
        dx, dy = dims[i % len(dims)]
        b = get_basis(dx, dy)
        sp = sperp_basis(dx, dy)
        m = rand_hermitian(rng, dx * dy)
        rec = np.tensordot(
            np.tensordot(b.elements.conj(), m, axes=([1, 2], [0, 1])), b.elements, axes=1
        )
        if len(sp):
            rec = rec + np.tensordot(
                np.tensordot(sp.conj(), m, axes=([1, 2], [0, 1])), sp, axes=1
            )
        worst_rec = max(worst_rec, float(np.abs(rec - m).max()))

    ok = worst_hb <= 1e-12 and worst_on <= 1e-12 and worst_perp <= 1e-12 and worst_rec <= 1e-12
    assert _report(
        8,
        ok,
        f"hermitian-basis orth {worst_hb:.3e}, channel-basis orth {worst_on:.3e}, "
        f"S-perp overlap {worst_perp:.3e}, S+S-perp reconstruction {worst_rec:.3e} (tol 1e-12)",
    )


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(5000)
    worst_choi = 0.0
    worst_apply = 0.0
    for i in range(50):
        dx = int(rng.integers(1, 5))
        dy = int(rng.integers(1, 5))
        rank = int(rng.integers(1, 4))
        ops = rand_kraus_ops(rng, dx, dy, rank)
        j = choi_from_kraus(KrausSet(dx=dx, dy=dy, operators=ops))
        worst_choi = max(worst_choi, float(np.abs(j.matrix - choi_double_sum(ops, dx, dy)).max()))
        x = rand_complex(rng, (dx, dx))
        worst_apply = max(
            worst_apply, float(np.abs(apply_channel(j, x) - apply_kraus(ops, x)).max())
        )
    ok = worst_choi <= 1e-12 and worst_apply <= 1e-12
    assert _report(
        9, ok, f"choi vs double-sum {worst_choi:.3e}, apply vs kraus-sum {worst_apply:.3e} (tol 1e-12)"
    )


def test_criterion_10_negative_path(tmp_path):
    h = np.diag([1.0, -1.0])
    j = kron(np.eye(2), h)
    raised = False
    try:
        represent(get_basis(2, 2), j)
    except NotInSubspaceError:
        raised = True

    path = tmp_path / "perp.json"
    save_matrix_file(path, "choi", 2, 2, j)
    code = cli_main(["represent", str(path), "--output", str(tmp_path / "v.json")])
    ok = raised and code == 3
    assert _report(10, ok, f"library raised NotInSubspaceError={raised}, CLI exit code {code} (want 3)")


def test_criterion_11_channels_span_s():
    # Minimality: the vectors of dim S + 5 random channels of full Kraus rank
    # have rank dim S, so no coordinate is spare.  A basis of a larger space
    # that contains S would pass every orthonormality and round-trip test.
    details, ok = [], True
    for dx in range(1, 4):
        for dy in range(1, 4):
            dim_s = subspace_dimension(dx, dy)
            b = get_basis(dx, dy)
            vectors = np.array(
                [represent(b, random_channel(dx, dy, dx * dy, seed)).values for seed in range(dim_s + 5)]
            )
            rank = int(np.linalg.matrix_rank(vectors))
            ok &= rank == vectors.shape[1] == dim_s
            details.append(f"{dx}x{dy} {rank}/{vectors.shape[1]}/{dim_s}")
    assert _report(11, ok, f"rank/len(v)/dim S: {', '.join(details)}")
