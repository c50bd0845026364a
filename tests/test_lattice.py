"""Information lattice: golden values, folding, summaries, invariants.

Derived expectations are computed from independent closed forms in the test
bodies: cat-state subsystem entropies equal log2(q) for every proper
nonempty interval (the reduced state is an equal mixture of q orthogonal
products), and binary entropies come from the two-outcome formula.
"""

import math

import numpy as np
import pytest

from conftest import (
    assert_lattices_close,
    edge_bell_state,
    mirror_lattice,
    mirror_state,
    reference_state,
)
from infolattice import (
    InfoLattice,
    PureState,
    analyze,
    compute_lattice,
    fold,
    gamma_folded,
    interleave,
    summarize,
)
from infolattice import lattice as lattice_module
from infolattice.errors import NumericalError
from infolattice.lattice import CLAMP_EPS, MIRROR_TOL, lattice_from_interval_info
from infolattice.models import (
    PottsSpec,
    cat_state,
    embed_qutrit_to_spins,
    symmetric_ground_state,
)
from infolattice.states import haar_random_state

SQ2 = 1 / np.sqrt(2)


def lattice_rows(lat: InfoLattice) -> list[list[float]]:
    return [[float(v) for v in row] for row in lat.rows]


class TestGoldenLattices:
    def test_neel(self):
        lat = compute_lattice(reference_state("neel", 4))
        expected = [[1, 1, 1, 1], [0, 0, 0], [0, 0], [0]]
        for row, exp in zip(lat.rows, expected):
            np.testing.assert_allclose(row, exp, atol=1e-10)

    def test_bell(self):
        lat = compute_lattice(reference_state("bell", 4))
        expected = [[1, 0, 0, 1], [0, 2, 0], [0, 0], [0]]
        for row, exp in zip(lat.rows, expected):
            np.testing.assert_allclose(row, exp, atol=1e-10)

    def test_ghz(self):
        lat = compute_lattice(reference_state("ghz", 4))
        expected = [[0, 0, 0, 0], [1, 1, 1], [0, 0], [1]]
        for row, exp in zip(lat.rows, expected):
            np.testing.assert_allclose(row, exp, atol=1e-10)


class TestCatLattices:
    @pytest.mark.parametrize("q,L", [(2, 6), (3, 5), (4, 5)])
    def test_cat_closed_form(self, q, L):
        # oracle: every proper interval of the cat reduces to an equal
        # mixture of q orthogonal basis products, so S = log2 q and
        # I(len) = len*log2(q... d) - log2 q; second differences leave
        # log2 q on the whole scale-1 row and at the apex
        state = cat_state(q, L)
        lgq = math.log2(q)
        lat = compute_lattice(state)
        np.testing.assert_allclose(lat.rows[0], 0.0, atol=1e-10)
        np.testing.assert_allclose(lat.rows[1], lgq, atol=1e-10)
        for scale in range(2, L - 1):
            np.testing.assert_allclose(lat.rows[scale], 0.0, atol=1e-10)
        np.testing.assert_allclose(lat.rows[L - 1], [lgq], atol=1e-10)

    def test_partial_entangled_pair(self):
        # Schmidt pair with weights cos^2, sin^2: single-site information is
        # 1 - H2 with the binary entropy computed independently here
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        amps = np.zeros(4, dtype=complex)
        amps[0b00], amps[0b11] = c, s
        lat = compute_lattice(PureState(amps, (2, 2)))
        h2 = -(c**2) * np.log2(c**2) - (s**2) * np.log2(s**2)
        np.testing.assert_allclose(lat.rows[0], 1 - h2, atol=1e-12)
        np.testing.assert_allclose(lat.rows[1], [2 * h2], atol=1e-12)


class TestSummarize:
    def test_ghz4(self):
        summary = summarize(compute_lattice(reference_state("ghz", 4)))
        assert summary.omega == pytest.approx(3.0, abs=1e-10)
        assert summary.gamma == pytest.approx(1.0, abs=1e-10)
        assert summary.gap is not None and (summary.gap.start, summary.gap.end) == (2, 2)
        assert not summary.localized  # interior window is only one scale wide
        assert summary.gamma_from_gap == pytest.approx(1.0, abs=1e-10)

    def test_neel4(self):
        summary = summarize(compute_lattice(reference_state("neel", 4)))
        assert summary.omega == pytest.approx(4.0, abs=1e-10)
        assert summary.gamma == pytest.approx(0.0, abs=1e-10)
        assert summary.localized  # purely short-range information

    def test_ghz8_localized(self):
        summary = summarize(compute_lattice(reference_state("ghz", 8)))
        assert summary.localized
        assert (summary.gap.start, summary.gap.end) == (2, 6)
        assert summary.gamma == pytest.approx(1.0, abs=1e-10)

    def test_total_information(self):
        summary = summarize(compute_lattice(reference_state("ghz", 6)))
        assert summary.total_information == pytest.approx(6.0, abs=1e-10)


class TestFold:
    def test_pairing_on_distinct_product(self):
        # oracle: fold of a product state is the kron over (v_k x v_{L-1-k})
        rng = np.random.default_rng(2)
        vs = []
        amps = np.array([1.0 + 0j])
        for _ in range(6):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            vs.append(v)
            amps = np.kron(amps, v)
        folded = fold(PureState(amps, (2,) * 6))
        expected = np.array([1.0 + 0j])
        for k in range(3):
            expected = np.kron(expected, np.kron(vs[k], vs[5 - k]))
        np.testing.assert_allclose(folded.amps, expected, atol=1e-14)
        assert folded.dims == (4, 4, 4)

    def test_odd_length_middle_site_last(self):
        rng = np.random.default_rng(3)
        vs = []
        amps = np.array([1.0 + 0j])
        for _ in range(5):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            vs.append(v)
            amps = np.kron(amps, v)
        folded = fold(PureState(amps, (2,) * 5))
        expected = np.kron(np.kron(vs[0], vs[4]), np.kron(vs[1], vs[3]))
        expected = np.kron(expected, vs[2])
        np.testing.assert_allclose(folded.amps, expected, atol=1e-14)
        assert folded.dims == (4, 4, 2)

    def test_product_state_stays_scale_zero(self):
        folded = fold(reference_state("neel", 6))
        lat = compute_lattice(folded)
        assert lat.rows[0].sum() == pytest.approx(lat.total(), abs=1e-10)

    def test_total_information_conserved(self):
        rng = np.random.default_rng(8)
        for L in (5, 6, 8):
            s = haar_random_state((2,) * L, rng)
            before = compute_lattice(s).total()
            after = compute_lattice(fold(s)).total()
            assert abs(before - after) < 1e-8

    def test_too_short(self):
        with pytest.raises(ValueError):
            fold(PureState([1, 0], (2,)))

    def test_analyze_fold_needs_two_sites(self):
        s = PureState([1, 0], (2,))
        with pytest.raises(ValueError):
            analyze(s)
        _, summary = analyze(s, with_fold=False)
        assert summary.gamma_folded is None


class TestGammaFolded:
    def test_ghz_cat_survives_folding(self):
        g = reference_state("ghz", 8)
        assert summarize(compute_lattice(g)).gamma == pytest.approx(1.0, abs=1e-10)
        assert gamma_folded(g) == pytest.approx(1.0, abs=1e-10)
        assert summarize(compute_lattice(fold(g))).gamma == pytest.approx(1.0, abs=1e-10)

    def test_edge_bell_pair_becomes_local(self):
        # apex carries both bits of the end-to-end pair; folding removes them
        e = edge_bell_state(8)
        lat = compute_lattice(e)
        np.testing.assert_allclose(lat.rows[7], [2.0], atol=1e-10)
        assert summarize(lat).gamma == pytest.approx(2.0, abs=1e-10)
        assert gamma_folded(e) == pytest.approx(0.0, abs=1e-10)
        folded_lat = compute_lattice(fold(e))
        assert summarize(folded_lat).gamma == pytest.approx(0.0, abs=1e-10)
        assert folded_lat.rows[0].sum() == pytest.approx(folded_lat.total(), abs=1e-10)

    def test_interleave_keeps_dims_and_norm(self):
        s = haar_random_state((2,) * 6, np.random.default_rng(1))
        r = interleave(s)
        assert r.dims == (2,) * 6
        assert abs(np.linalg.norm(r.amps) - 1) < 1e-12
        assert abs(compute_lattice(r).total() - compute_lattice(s).total()) < 1e-8


class TestInvariants:
    def _mixed_states(self, count: int):
        rng = np.random.default_rng(77)
        out = []
        for k in range(count):
            kind = k % 3
            if kind == 0:
                L = int(rng.integers(5, 9))
                out.append(haar_random_state((2,) * L, rng))
            elif kind == 1:
                from infolattice import StabilizerTableau, statevector_from_tableau
                from infolattice.tableau import random_clifford_circuit

                L = int(rng.integers(5, 9))
                t = random_clifford_circuit(L, int(rng.integers(0, 9)), 50 + k)
                out.append(
                    statevector_from_tableau(t.apply_to_tableau(StabilizerTableau.zero_state(L)))
                )
            else:
                from infolattice.models import TDopedCircuitSpec, t_doped_state

                out.append(
                    t_doped_state(
                        TDopedCircuitSpec(8, blocks=1, clifford_layers_per_block=4,
                                          t_gates_per_block=2, seed=k,
                                          entangling_layers=1)
                    )
                )
        return out

    def test_bounds_total_and_mirror(self):
        for s in self._mixed_states(12):
            lat = compute_lattice(s)
            cap = 2 * max(math.log2(d) for d in s.dims) + 1e-8
            for _, _, v in lat.sites():
                assert -1e-8 <= v <= cap
            assert abs(lat.total() - sum(math.log2(d) for d in s.dims)) < 1e-8
            assert_lattices_close(compute_lattice(mirror_state(s)), mirror_lattice(lat), 1e-8)


def second_differences_by_loop(log2_dims, info):
    """Double-loop oracle for ``lattice_from_interval_info``."""

    def at(left, scale):
        return 0.0 if scale < 0 else info[scale][left]

    L = len(log2_dims)
    rows = []
    for scale in range(L):
        row = np.empty(L - scale)
        for left in range(L - scale):
            v = (
                at(left, scale)
                - at(left, scale - 1)
                - at(left + 1, scale - 1)
                + at(left + 1, scale - 2)
            )
            row[left] = 0.0 if abs(v) < CLAMP_EPS else v
        rows.append(row)
    return rows


def test_second_differences_match_double_loop():
    rng = np.random.default_rng(33)
    # offsets put many second differences just inside and just outside the clamp
    offsets = CLAMP_EPS * np.array([0.0, -0.0, 0.3, -0.3, 0.99, -0.99, 1.0, -1.0, 1.01, 2.5, -2.5])
    for trial in range(120):
        L = int(rng.integers(1, 34))
        if trial % 3 == 0:  # integer rank tables, as the exact engine passes them
            info = [rng.integers(0, 4, size=L - l).tolist() for l in range(L)]
        else:
            info = [
                rng.integers(0, 4, size=L - l) + rng.choice(offsets, size=L - l) for l in range(L)
            ]
            if trial % 3 == 1:
                info = [row.tolist() for row in info]
        lat = lattice_from_interval_info((1.0,) * L, info)
        for got, want in zip(lat.rows, second_differences_by_loop((1.0,) * L, info), strict=True):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))  # sign of zero too


def max_integer_deviation_by_loop(lat):
    """Loop oracle for ``InfoLattice.max_integer_deviation``: the maximum and
    the first site in (scale, left) order within ``CLAMP_EPS`` of it, ``None``
    when every site is an integer."""
    devs = [((n, scale), abs(v - round(v))) for n, scale, v in lat.sites()]
    best = max((d for _, d in devs), default=0.0)
    if best == 0.0:
        return 0.0, None
    return best, next(where for where, d in devs if d >= best - CLAMP_EPS)


def random_lattice(rng, L, integer=False):
    rows = [rng.integers(-3, 4, size=L - l).astype(float) for l in range(L)]
    if not integer:
        # few distinct offsets, so the maximum deviation is often tied
        offsets = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 1e-13, 0.125])
        rows = [row + rng.choice(offsets, size=row.size) for row in rows]
    return InfoLattice((1.0,) * L, tuple(rows))


def test_max_integer_deviation_matches_loop():
    rng = np.random.default_rng(41)
    for trial in range(300):
        L = int(rng.integers(0, 25))
        lat = random_lattice(rng, L, integer=trial % 4 == 0)
        got = lat.max_integer_deviation()
        assert got == max_integer_deviation_by_loop(lat)
        if trial % 4 == 0:
            assert got == (0.0, None)


def test_max_integer_deviation_planted_ties():
    rng = np.random.default_rng(42)
    for _ in range(100):
        L = int(rng.integers(2, 20))
        lat = random_lattice(rng, L, integer=True)
        sites = [(scale, left) for scale in range(L) for left in range(L - scale)]
        picks = rng.choice(len(sites), size=min(3, len(sites)), replace=False)
        for k in picks:  # equal deviations of both signs at up to three sites
            scale, left = sites[int(k)]
            lat.rows[scale][left] += 0.375 if k % 2 else -0.375
        first = sites[int(min(picks))]
        assert lat.max_integer_deviation() == (0.375, (first[1] + first[0] / 2, first[0]))
        assert lat.max_integer_deviation() == max_integer_deviation_by_loop(lat)


def test_max_integer_deviation_near_ties_report_first_site():
    # mirror sites whose deviations differ only by rounding: the first one is
    # reported whichever carries the larger value
    rng = np.random.default_rng(43)
    for _ in range(100):
        L = int(rng.integers(2, 20))
        lat = random_lattice(rng, L, integer=True)
        sites = [(scale, left) for scale in range(L) for left in range(L - scale)]
        a, b = sorted(rng.choice(len(sites), size=2, replace=False).tolist())
        noise = rng.uniform(-0.9, 0.9) * CLAMP_EPS
        for k, dev in ((a, 0.25), (b, 0.25 + noise)):
            scale, left = sites[k]
            lat.rows[scale][left] += dev
        scale, left = sites[a]
        got = lat.max_integer_deviation()
        assert got[1] == (left + scale / 2, scale)
        assert got == max_integer_deviation_by_loop(lat)


def test_max_integer_deviation_below_clamp_reports_first_site():
    lat = InfoLattice((1.0,) * 3, (np.array([1.0, 1.0, 2e-13]), np.zeros(2), np.zeros(1)))
    assert lat.max_integer_deviation() == (2e-13, (0.0, 0))


def test_max_integer_deviation_rejects_non_finite_sites():
    for bad in (np.nan, np.inf):
        lat = InfoLattice((1.0, 1.0), (np.array([1.0, bad]), np.array([0.0])))
        with pytest.raises(NumericalError):
            lat.max_integer_deviation()


def potts_chain(n, field, embedded):
    gs, _ = symmetric_ground_state(PottsSpec(n, 1.0, field))
    return embed_qutrit_to_spins(gs) if embedded else gs


def symmetrized_haar(dims, seed):
    psi = haar_random_state(dims, np.random.default_rng(seed))
    return PureState(psi.amps + mirror_state(psi).amps, dims, normalize=True)


def ghz_plus_asymmetric(length, weight):
    rng = np.random.default_rng(length)
    v = reference_state("ghz", length).amps + weight * haar_random_state((2,) * length, rng).amps
    return PureState(v, (2,) * length, normalize=True)


SYMMETRIC = [
    *(
        pytest.param(potts_chain, (n, h, embedded), id=f"potts N={n} h={h} embedded={embedded}")
        for n in range(2, 7)
        for h in (0.0, 0.4, 0.8)
        for embedded in (False, True)
    ),
    *(pytest.param(cat_state, (q, L), id=f"cat q={q} L={L}") for q in (2, 3) for L in (2, 5, 6)),
    pytest.param(reference_state, ("neel", 5), id="neel L=5"),
    pytest.param(reference_state, ("ghz", 7), id="ghz L=7"),
    *(
        pytest.param(symmetrized_haar, (dims, 7), id=f"symmetrized haar {dims}")
        for dims in [(2, 3, 3, 2), (3, 2, 3), (2, 3, 2, 2, 3, 2), (3, 2, 2, 2, 3)]
    ),
]

ASYMMETRIC = [
    pytest.param(haar_random_state, ((2,) * 6, np.random.default_rng(3)), id="haar L=6"),
    pytest.param(reference_state, ("neel", 6), id="neel L=6"),
    # the amplitudes alone read as symmetric; the dims are not a palindrome
    pytest.param(PureState.computational, ((2, 3, 2, 3), (0, 0, 0, 0)), id="dims 2323"),
    pytest.param(ghz_plus_asymmetric, (6, 1e-9), id="ghz L=6 + 1e-9 asymmetric"),
]


def counted_lattice(monkeypatch, state):
    """``compute_lattice(state)`` and the number of interval entropies it took."""
    calls = []
    entropy = PureState.entropy_of_interval

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return entropy(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(PureState, "entropy_of_interval", counted)
        lat = compute_lattice(state)
    return lat, len(calls)


class TestMirrorShortcut:
    @pytest.mark.parametrize("make, args", SYMMETRIC)
    def test_symmetric_states_compute_half_and_match_full(self, monkeypatch, make, args):
        state = make(*args)
        L = state.num_sites
        assert state.mirror_distance() <= MIRROR_TOL
        lat, calls = counted_lattice(monkeypatch, state)
        assert calls == sum((L - 1 - scale) // 2 + 1 for scale in range(L))
        with monkeypatch.context() as m:
            m.setattr(lattice_module, "MIRROR_TOL", -1.0)  # forces every interval
            full, full_calls = counted_lattice(monkeypatch, state)
        assert full_calls == L * (L + 1) // 2
        for row, full_row in zip(lat.rows, full.rows, strict=True):
            assert np.max(np.abs(row - full_row)) <= 1e-12

    @pytest.mark.parametrize("make, args", ASYMMETRIC)
    def test_other_states_compute_every_interval(self, monkeypatch, make, args):
        state = make(*args)
        L = state.num_sites
        assert state.mirror_distance() > MIRROR_TOL
        _, calls = counted_lattice(monkeypatch, state)
        assert calls == L * (L + 1) // 2

    def test_mirror_distance(self):
        assert reference_state("ghz", 5).mirror_distance() == 0.0
        assert PureState.computational((2, 3), (0, 0)).mirror_distance() == math.inf
        assert reference_state("neel", 2).mirror_distance() == pytest.approx(math.sqrt(2))
        assert 1e-9 < ghz_plus_asymmetric(6, 1e-9).mirror_distance() < 1e-8
