"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single ``ACCEPTANCE <n> PASS`` line with the measured
numbers (visible with ``pytest -v -s`` or in captured output).  The random
Clifford ensemble (criteria 2-4) is built once per session.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from conftest import (
    assert_lattices_close,
    crossing_brackets,
    ensemble_specs,
    mirror_lattice,
    mirror_state,
    reference_state,
    stabilizer_entropy,
)
from infolattice import (
    StabilizerTableau,
    compute_lattice,
    fold,
    statevector_from_tableau,
    summarize,
    witness_long_range,
    witness_nonstabilizerness,
)
from infolattice.lattice import analyze
from infolattice.models import (
    TDopedCircuitSpec,
    cat_state,
    embed_qutrit_to_spins,
    potts_point,
    potts_sweep,
    t_doped_state,
)
from infolattice.pauli import SupportInterval
from infolattice.states import haar_random_state
from infolattice.tableau import random_clifford_circuit

LOG2_3 = math.log2(3)


@pytest.fixture(scope="module")
def clifford_ensemble():
    """200 seeded random Clifford circuits over L in {6, 8, 10, 12}."""
    tableaux = []
    for (L, layers, seed) in ensemble_specs(200):
        t = random_clifford_circuit(L, layers, seed).apply_to_tableau(
            StabilizerTableau.zero_state(L)
        )
        tableaux.append(t)
    return tableaux


def test_criterion_1_golden_lattices():
    start = time.perf_counter()
    golden = {
        "neel": [[1, 1, 1, 1], [0, 0, 0], [0, 0], [0]],
        "bell": [[1, 0, 0, 1], [0, 2, 0], [0, 0], [0]],
        "ghz": [[0, 0, 0, 0], [1, 1, 1], [0, 0], [1]],
    }
    worst = 0.0
    for name, expected in golden.items():
        lat = compute_lattice(reference_state(name, 4))
        for row, exp in zip(lat.rows, expected):
            worst = max(worst, float(np.max(np.abs(row - np.array(exp, dtype=float)))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: golden lattices, max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_stabilizer_integrality(clifford_ensemble):
    start = time.perf_counter()
    worst_int = 0.0
    worst_total = 0.0
    for t in clifford_ensemble:
        lat = t.integer_info_lattice()
        dev, _ = lat.max_integer_deviation()
        worst_int = max(worst_int, dev)
        worst_total = max(worst_total, abs(lat.total() - t.length))
        flag, _, _ = witness_nonstabilizerness(lat, tol=1e-6)
        assert not flag  # witness soundness: no false positives on Cliffords
        for _, _, v in lat.sites():
            assert -1e-8 <= v <= 2 + 1e-8
    elapsed = time.perf_counter() - start
    assert worst_int <= 1e-8
    assert worst_total <= 1e-8
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 2 PASS: 200 circuits integer within {worst_int:.2e}, "
        f"total within {worst_total:.2e}, zero witness false positives, {elapsed:.1f}s"
    )


def test_criterion_3_rank_entropy_oracle(clifford_ensemble):
    start = time.perf_counter()
    worst_site = 0.0
    for t in clifford_ensemble:
        dense = compute_lattice(statevector_from_tableau(t))
        exact = t.integer_info_lattice()
        for row_d, row_e in zip(dense.rows, exact.rows):
            worst_site = max(worst_site, float(np.max(np.abs(row_d - row_e))))
    assert worst_site <= 1e-8

    rng = np.random.default_rng(424242)
    worst_entropy = 0.0
    for k in range(100):
        t = clifford_ensemble[int(rng.integers(0, len(clifford_ensemble)))]
        a = int(rng.integers(0, t.length))
        b = int(rng.integers(a, t.length))
        iv = SupportInterval(a, b)
        psi = statevector_from_tableau(t)
        worst_entropy = max(
            worst_entropy,
            abs(stabilizer_entropy(t, iv) - psi.entropy_of_interval(iv)),
        )
    elapsed = time.perf_counter() - start
    assert worst_entropy <= 1e-10
    print(
        f"\nACCEPTANCE 3 PASS: lattice paths agree within {worst_site:.2e}, "
        f"entropies within {worst_entropy:.2e}, {elapsed:.1f}s"
    )


def test_criterion_4_mlgs_consistency(clifford_ensemble):
    start = time.perf_counter()
    for t in clifford_ensemble:
        lat = t.integer_info_lattice()
        counts = Counter((e.center, e.scale) for e in t.maximally_local_generating_set())
        for n, scale, v in lat.sites():
            assert counts.get((n, scale), 0) == round(v), (t.length, n, scale)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 4 PASS: MLGS multisets match integer lattices exactly, {elapsed:.1f}s")


def test_criterion_5_t_doped_detection():
    start = time.perf_counter()
    min_dev = math.inf
    max_gamma = 0.0
    for seed in range(20):
        spec = TDopedCircuitSpec(
            length=10,
            blocks=3,
            clifford_layers_per_block=10,
            t_gates_per_block=5,
            seed=seed,
        )
        lat = compute_lattice(t_doped_state(spec))
        flag, dev, _ = witness_nonstabilizerness(lat, tol=1e-3)
        assert flag, f"seed {seed} not detected"
        summary = summarize(lat)
        min_dev = min(min_dev, dev)
        max_gamma = max(max_gamma, summary.gamma)
    elapsed = time.perf_counter() - start
    assert min_dev > 1e-3
    assert max_gamma < 1e-3
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 5 PASS: 20 instances, min deviation {min_dev:.3f}, "
        f"max gamma {max_gamma:.2e}, {elapsed:.1f}s"
    )


def test_criterion_6_potts_ferromagnet():
    start = time.perf_counter()
    point, verdict = potts_point(12, 0.0)
    elapsed = time.perf_counter() - start
    assert abs(point.gamma - LOG2_3) <= 1e-6
    assert abs(point.gamma_folded - point.gamma) <= 1e-6
    assert verdict.long_range_witnessed
    assert verdict.origin == "global"
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 6 PASS: h=0 L=12 gamma={point.gamma:.9f}, "
        f"|gamma_folded-gamma|={abs(point.gamma_folded-point.gamma):.2e}, "
        f"origin={verdict.origin}, {elapsed:.1f}s"
    )


def test_criterion_7_potts_paramagnet():
    start = time.perf_counter()
    point, verdict = potts_point(12, 0.75)
    elapsed = time.perf_counter() - start
    assert point.gamma < 0.05
    assert not verdict.long_range_witnessed
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 7 PASS: h=0.75 L=12 gamma={point.gamma:.3e}, "
        f"witnessed={verdict.long_range_witnessed}, {elapsed:.1f}s"
    )


def test_criterion_8_potts_crossing():
    start = time.perf_counter()
    fields = [round(float(h), 10) for h in np.linspace(0.0, 0.8, 17)]
    rows = potts_sweep([8, 10, 12], fields)
    assert all(r.error is None for r in rows)
    window = (0.25, 0.45)
    for pair in [(8, 10), (8, 12), (10, 12)]:
        brackets = crossing_brackets(rows, *pair)
        inside = [
            (lo, hi) for lo, hi in brackets if lo >= window[0] and hi <= window[1]
        ]
        assert inside, f"no crossing of {pair} inside {window}: {brackets}"
    gamma = {(r.length, r.field): r.gamma for r in rows}
    flow_up = [gamma[(L, 0.2)] for L in (8, 10, 12)]
    assert flow_up == sorted(flow_up) and flow_up[-1] < LOG2_3 + 1e-6
    flow_down = [gamma[(L, 0.5)] for L in (8, 10, 12)]
    assert flow_down == sorted(flow_down, reverse=True) and flow_down[-1] > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(
        f"\nACCEPTANCE 8 PASS: crossings in {window}, flow at h=0.2 {flow_up}, "
        f"h=0.5 {flow_down}, {elapsed:.1f}s"
    )


def test_criterion_9_cat_state_q_law():
    results = {}
    # q = 2: qubit cat state
    _, summary2 = analyze(reference_state("ghz", 8))
    v2 = witness_long_range(summary2, tol=1e-6)
    results[2] = (summary2.gamma, 1.0, v2)
    # q = 3: embedded qutrit cat
    _, summary3 = analyze(embed_qutrit_to_spins(cat_state(3, 6)))
    v3 = witness_long_range(summary3, tol=1e-6)
    results[3] = (summary3.gamma, LOG2_3, v3)
    # q = 4 on dimension-4 sites
    _, summary4 = analyze(cat_state(4, 6))
    v4 = witness_long_range(summary4, tol=1e-6)
    results[4] = (summary4.gamma, 2.0, v4)

    for q, (gamma, expected, verdict) in results.items():
        assert abs(gamma - expected) <= 1e-8, (q, gamma)
        assert verdict.long_range_witnessed == (q == 3), q
    print(
        "\nACCEPTANCE 9 PASS: gamma(q) = "
        + ", ".join(f"q={q}: {g:.9f}" for q, (g, _, _) in sorted(results.items()))
        + "; witnessed only for q=3"
    )


def test_criterion_10_property_suite():
    rng = np.random.default_rng(1234)
    states = []
    for k in range(50):
        kind = k % 3
        if kind == 0:
            L = int(rng.integers(6, 11))
            states.append(haar_random_state((2,) * L, rng))
        elif kind == 1:
            L = int(rng.integers(6, 11))
            t = random_clifford_circuit(L, int(rng.integers(0, 13)), 9000 + k)
            states.append(
                statevector_from_tableau(t.apply_to_tableau(StabilizerTableau.zero_state(L)))
            )
        else:
            states.append(
                t_doped_state(
                    TDopedCircuitSpec(10, blocks=2, clifford_layers_per_block=5,
                                      t_gates_per_block=3, seed=700 + k)
                )
            )
    assert len(states) == 50

    for s in states:
        L = s.num_sites
        for k in range(L - 1):
            sa = s.entropy_of_interval(SupportInterval(0, k))
            sb = s.entropy_of_interval(SupportInterval(k + 1, L - 1))
            assert abs(sa - sb) <= 1e-9
        lat = compute_lattice(s)
        cap = 2 * max(math.log2(d) for d in s.dims)
        for _, _, v in lat.sites():
            assert -1e-8 <= v <= cap + 1e-8
        assert abs(lat.total() - compute_lattice(fold(s)).total()) <= 1e-8
        assert_lattices_close(compute_lattice(mirror_state(s)), mirror_lattice(lat), 1e-8)
    print("\nACCEPTANCE 10 PASS: 50 mixed-origin states satisfy all lattice properties")
