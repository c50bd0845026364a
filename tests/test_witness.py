"""Witness logic: site integerness, long-range verdicts, origin classes."""

import math

import numpy as np
import pytest

from conftest import edge_bell_state, reference_state
from infolattice import (
    PureState,
    StabilizerTableau,
    analyze,
    compute_lattice,
    statevector_from_tableau,
    summarize,
    witness_long_range,
    witness_nonstabilizerness,
)
from infolattice.errors import ConfigurationError
from infolattice.models import (
    cat_state,
    embed_qutrit_to_spins,
)
from infolattice.states import haar_random_state
from infolattice.tableau import random_clifford_circuit


def ghz_middle_with_edge_bell() -> PureState:
    """Bell pair between the ends times a six-qubit cat on the interior."""
    outer = edge_bell_state(2).tensor()  # ends of the chain
    inner = reference_state("ghz", 6).amps  # sites 1..6
    amps = np.einsum("ab,m->amb", outer, inner).ravel()
    return PureState(amps, (2,) * 8)


class TestSiteWitness:
    def test_stabilizer_negative(self):
        t = random_clifford_circuit(8, 10, 3).apply_to_tableau(
            StabilizerTableau.zero_state(8)
        )
        lat = compute_lattice(statevector_from_tableau(t))
        flag, dev, _ = witness_nonstabilizerness(lat)
        assert not flag and dev < 1e-8

    def test_partial_pair_deviation(self):
        # deviation of the Schmidt pair equals 1 - H2(sin^2 pi/8), computed
        # here from the binary-entropy formula
        c2, s2 = np.cos(np.pi / 8) ** 2, np.sin(np.pi / 8) ** 2
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = np.sqrt(c2), np.sqrt(s2)
        lat = compute_lattice(PureState(amps, (2, 2)))
        h2 = -c2 * math.log2(c2) - s2 * math.log2(s2)
        flag, dev, site = witness_nonstabilizerness(lat)
        assert flag
        assert dev == pytest.approx(1 - h2, abs=1e-12)
        assert site is not None

    def test_bad_tolerance(self):
        lat = compute_lattice(reference_state("ghz", 4))
        for tol in (0.0, -1.0, 0.5, 7.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                witness_nonstabilizerness(lat, tol=tol)


class TestLongRangeWitness:
    def test_ghz_integer_gamma_not_witnessed(self):
        _, summary = analyze(reference_state("ghz", 8))
        verdict = witness_long_range(summary)
        assert verdict.localized
        assert verdict.gamma_is_integer
        assert not verdict.long_range_witnessed
        assert verdict.origin == "global"  # one integer bit of global origin

    def test_embedded_qutrit_cat_witnessed_global(self):
        state = embed_qutrit_to_spins(cat_state(3, 6))
        _, summary = analyze(state)
        verdict = witness_long_range(summary)
        assert verdict.localized
        assert verdict.long_range_witnessed
        assert verdict.gamma == pytest.approx(math.log2(3), abs=1e-8)
        assert verdict.origin == "global"
        assert verdict.has_nonstabilizerness

    def test_edge_bell_origin(self):
        _, summary = analyze(edge_bell_state(8))
        verdict = witness_long_range(summary)
        assert verdict.localized and verdict.gamma_is_integer
        assert not verdict.long_range_witnessed
        assert verdict.origin == "edge_to_edge"

    def test_mixed_origin(self):
        _, summary = analyze(ghz_middle_with_edge_bell())
        verdict = witness_long_range(summary)
        assert verdict.localized
        assert verdict.gamma == pytest.approx(3.0, abs=1e-8)
        assert summary.gamma_folded == pytest.approx(1.0, abs=1e-8)
        assert verdict.origin == "mixed"

    def test_abstains_when_not_localized(self):
        s = haar_random_state((2,) * 8, np.random.default_rng(12))
        _, summary = analyze(s)
        verdict = witness_long_range(summary)
        assert not summary.localized
        assert not verdict.long_range_witnessed
        assert verdict.origin == "not_applicable"

    def test_missing_fold_raises_when_needed(self):
        summary = summarize(compute_lattice(reference_state("ghz", 8)))
        with pytest.raises(ConfigurationError):
            witness_long_range(summary)
        verdict = witness_long_range(summary, require_origin=False)
        assert verdict.origin == "not_applicable"

    def test_tolerance_monotone(self):
        state = embed_qutrit_to_spins(cat_state(3, 6))
        _, summary = analyze(state)
        flags = [
            witness_long_range(summary, tol).long_range_witnessed
            for tol in (1e-8, 1e-4, 1e-1, 0.45)
        ]
        # raising tol may only flip true -> false
        assert flags == sorted(flags, reverse=True)

    @pytest.mark.xfail(
        strict=True,
        reason="sites of a qutrit stabilizer state are integers in units of log2 3, "
        "but the witnesses judge integrality in bits",
    )
    @pytest.mark.parametrize("length", [5, 6])
    def test_qutrit_cat_state_is_not_witnessed(self, length):
        verdict = witness_long_range(analyze(cat_state(3, length))[1])
        assert not verdict.long_range_witnessed

    def test_invariants(self):
        states = [
            reference_state("ghz", 8),
            embed_qutrit_to_spins(cat_state(3, 6)),
            edge_bell_state(8),
            ghz_middle_with_edge_bell(),
        ]
        for s in states:
            _, summary = analyze(s)
            v = witness_long_range(summary)
            if v.long_range_witnessed:
                assert v.localized and not v.gamma_is_integer
                assert v.has_nonstabilizerness
