"""Model factory: reference states, Potts chain, embedding, T-doped circuits."""

import math
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from infolattice import PureState, compute_lattice, summarize
from infolattice.errors import ConfigurationError
from infolattice.tableau import statevector_from_tableau
from infolattice.models import (
    CLOCK_Z,
    SHIFT_X,
    PottsSpec,
    SWEEP_CSV_COLUMNS,
    TDopedCircuitSpec,
    TRIPLET_ISOMETRY,
    cat_state,
    charge_operator,
    crossing_brackets,
    edge_bell_state,
    embed_qutrit_to_spins,
    potts_hamiltonian,
    potts_point,
    potts_sweep,
    reference_state,
    reference_tableau,
    symmetric_ground_state,
    symmetric_sector_isometry,
    t_doped_state,
)

SQ2 = 1 / np.sqrt(2)


def site_chain(n, ops):
    """Dense kron over n qutrits: ``ops[i]`` at site i, identity elsewhere."""
    return reduce(np.kron, [ops.get(i, np.eye(3)) for i in range(n)])


def dense_potts(n, coupling, field):
    """The module docstring's Hamiltonian, term by term with dense krons."""
    zd = CLOCK_Z.conj().T
    h = np.zeros((3**n, 3**n), dtype=complex)
    for i in range(n - 1):
        bond = site_chain(n, {i: zd, i + 1: CLOCK_Z}) + site_chain(n, {i: CLOCK_Z, i + 1: zd})
        h = h - (coupling / 3.0) * bond
    for i in range(n):
        x = site_chain(n, {i: SHIFT_X})
        h = h - field * (x.conj().T + x)
    return h


class TestReferenceStates:
    def test_neel(self):
        s = reference_state("neel", 4)
        assert np.argmax(np.abs(s.amps)) == 0b0101

    def test_bell(self):
        s = reference_state("bell", 4)
        expected = np.zeros(16, dtype=complex)
        expected[0b0101] = expected[0b0011] = SQ2
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)
        with pytest.raises(ConfigurationError):
            reference_state("bell", 6)

    def test_ghz(self):
        s = reference_state("ghz", 10)
        assert abs(s.amps[0] - SQ2) < 1e-15 and abs(s.amps[-1] - SQ2) < 1e-15

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            reference_state("w_state", 4)

    @pytest.mark.parametrize(
        "name,length",
        [(name, L) for name in ("neel", "ghz") for L in range(2, 13)] + [("bell", 4)],
    )
    def test_tableau_matches_dense(self, name, length):
        dense = reference_state(name, length)
        t = reference_tableau(name, length)
        overlap = np.vdot(dense.amps, statevector_from_tableau(t).amps)
        assert abs(abs(overlap) - 1.0) < 1e-12
        assert t.integer_info_lattice().allclose(compute_lattice(dense), atol=1e-9)

    @pytest.mark.parametrize(
        "name,length", [("neel", 0), ("ghz", 1), ("bell", 3), ("bell", 6), ("w_state", 4)]
    )
    def test_both_engines_reject_the_same_names_and_lengths(self, name, length):
        for build in (reference_state, reference_tableau):
            with pytest.raises(ConfigurationError):
                build(name, length)

    def test_cat_state(self):
        c = cat_state(3, 4)
        step = (3**4 - 1) // 2
        nz = np.nonzero(np.abs(c.amps) > 1e-12)[0]
        np.testing.assert_array_equal(nz, [0, step, 2 * step])


class TestPottsHamiltonian:
    def test_two_site_ferromagnet(self):
        # bond term has eigenvalue 2 on aligned pairs: ground energy -2J/3,
        # threefold degenerate (dense diagonalization as the oracle)
        h = potts_hamiltonian(PottsSpec(2, coupling=1.0, field=0.0)).toarray()
        evals = np.linalg.eigvalsh(h)
        assert evals[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert np.sum(np.abs(evals - evals[0]) < 1e-9) == 3

    def test_two_site_paramagnet(self):
        # X + Xd has top eigenvalue 2 on the uniform vector
        h = potts_hamiltonian(PottsSpec(2, coupling=0.0, field=0.7)).toarray()
        evals, vecs = np.linalg.eigh(h)
        assert evals[0] == pytest.approx(-4 * 0.7, abs=1e-12)
        uniform = np.ones(9) / 3.0
        assert abs(np.vdot(uniform, vecs[:, 0])) == pytest.approx(1.0, abs=1e-9)

    def test_hermitian(self):
        h = potts_hamiltonian(PottsSpec(3, 1.0, 0.4))
        assert (abs(h - h.conj().T) > 1e-12).nnz == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("j,field", [(1.0, 0.0), (1.0, 0.3), (0.7, 0.55), (0.0, 0.4)])
    def test_matches_dense_formula(self, n, j, field):
        h = potts_hamiltonian(PottsSpec(n, j, field))
        assert np.array_equal(h.toarray(), dense_potts(n, j, field))

    @pytest.mark.parametrize("n,j,field", [(2, 1.0, 0.3), (3, 0.5, 0.0), (4, 1.0, 1.2)])
    def test_charge_symmetry(self, n, j, field):
        h = potts_hamiltonian(PottsSpec(n, j, field))
        q = charge_operator(n)
        comm = h @ q - q @ h
        assert abs(comm).max() < 1e-12
        shift = site_chain(n, dict.fromkeys(range(n), SHIFT_X.real))
        assert np.array_equal(q.toarray(), shift)
        # sector columns: shift orbits, uniform weights, ordered by smallest member
        orbits = (np.eye(3**n) + shift + shift @ shift) != 0
        first = [b for b in range(3**n) if np.flatnonzero(orbits[:, b])[0] == b]
        p_ref = orbits[:, first] / np.sqrt(3.0)
        assert np.array_equal(symmetric_sector_isometry(n).toarray(), p_ref)

    def test_charge_is_order_three(self):
        q = charge_operator(3)
        assert abs((q @ q @ q) - sp.identity(27)).max() < 1e-15

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PottsSpec(1)
        with pytest.raises(ConfigurationError):
            PottsSpec(3, coupling=-1.0)
        with pytest.raises(ConfigurationError):
            PottsSpec(3, field=float("nan"))


class TestSymmetricSector:
    def test_isometry(self):
        for n in (2, 3, 4):
            p = symmetric_sector_isometry(n)
            assert p.shape == (3**n, 3 ** (n - 1))
            gram = (p.conj().T @ p).toarray()
            np.testing.assert_allclose(gram, np.eye(3 ** (n - 1)), atol=1e-14)
            q = charge_operator(n)
            np.testing.assert_allclose((q @ p - p).toarray(), 0.0, atol=1e-14)

    def test_ground_state_h0_is_cat(self):
        gs, energy = symmetric_ground_state(PottsSpec(4, 1.0, 0.0))
        cat = cat_state(3, 4)
        assert abs(abs(gs.overlap(cat)) - 1.0) < 1e-10
        assert energy == pytest.approx(-2.0, abs=1e-10)  # 3 bonds * (-2/3)

    def test_large_field_limit(self):
        gs, _ = symmetric_ground_state(PottsSpec(3, 1.0, 500.0))
        uniform = PureState(np.ones(27) / np.sqrt(27.0), (3, 3, 3))
        assert abs(abs(gs.overlap(uniform)) - 1.0) < 1e-4

    def test_sector_membership_and_residual(self):
        for field in (0.0, 0.2, 1.0 / 3.0, 0.9):
            gs, energy = symmetric_ground_state(PottsSpec(4, 1.0, field))
            h = potts_hamiltonian(PottsSpec(4, 1.0, field))
            assert np.linalg.norm(h @ gs.amps - energy * gs.amps) < 1e-9
            q = charge_operator(4)
            assert np.linalg.norm(q @ gs.amps - gs.amps) < 1e-9

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lowest_eigenpair_matches_full_eigh(self, n):
        # the default potts-sweep field grid, h = 0 included
        p = symmetric_sector_isometry(n)
        for field in np.linspace(0.0, 0.8, 17):
            spec = PottsSpec(n, 1.0, round(float(field), 10))
            gs, energy = symmetric_ground_state(spec)
            h_sym = p.conj().T @ potts_hamiltonian(spec) @ p
            energies, vectors = np.linalg.eigh(h_sym.toarray())
            v_full = p @ vectors[:, 0]
            assert abs(energy - energies[0]) <= 1e-12
            assert abs(abs(np.vdot(v_full, gs.amps)) - 1.0) <= 1e-12


class TestEmbedding:
    def test_basis_images(self):
        zero = PureState.computational((3,), (0,))
        np.testing.assert_allclose(
            embed_qutrit_to_spins(zero).amps, [1, 0, 0, 0], atol=1e-15
        )
        one = PureState.computational((3,), (1,))
        np.testing.assert_allclose(
            embed_qutrit_to_spins(one).amps, [0, SQ2, SQ2, 0], atol=1e-15
        )

    def test_isometry_preserves_overlaps(self, rng):
        for _ in range(10):
            a = rng.normal(size=9) + 1j * rng.normal(size=9)
            b = rng.normal(size=9) + 1j * rng.normal(size=9)
            sa = PureState(a, (3, 3), normalize=True)
            sb = PureState(b, (3, 3), normalize=True)
            lhs = embed_qutrit_to_spins(sa).overlap(embed_qutrit_to_spins(sb))
            assert abs(lhs - sa.overlap(sb)) < 1e-12

    def test_zero_singlet_weight(self, rng):
        s = PureState(rng.normal(size=27) + 1j * rng.normal(size=27), (3,) * 3, normalize=True)
        emb = embed_qutrit_to_spins(s)
        singlet = np.array([0, SQ2, -SQ2, 0])
        t = emb.amps.reshape(4, 4, 4)
        for axis in range(3):
            w = np.tensordot(singlet.conj(), t, axes=([0], [axis]))
            assert np.linalg.norm(w) < 1e-12

    def test_pair_boundary_rdm_of_cat(self):
        # direct contraction oracle: each single-qubit reduction of the
        # embedded cat mixes the up/down branches with the half triplet
        emb = embed_qutrit_to_spins(cat_state(3, 2))
        t = emb.amps.reshape(2, 2, 2, 2)
        rho = np.einsum("aijk,bijk->ab", t, t.conj())
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_requires_qutrits(self):
        with pytest.raises(ConfigurationError):
            embed_qutrit_to_spins(PureState.from_label("00"))


class TestTDoped:
    def test_deterministic(self):
        spec = TDopedCircuitSpec(10, seed=5)
        a, b = t_doped_state(spec), t_doped_state(spec)
        np.testing.assert_array_equal(a.amps, b.amps)
        c = t_doped_state(TDopedCircuitSpec(10, seed=6))
        assert np.max(np.abs(a.amps - c.amps)) > 1e-6

    def test_pure_clifford_block_is_integer(self):
        spec = TDopedCircuitSpec(10, t_gates_per_block=0, seed=2)
        lat = compute_lattice(t_doped_state(spec))
        dev, _ = lat.max_integer_deviation()
        assert dev < 1e-8

    def test_short_range_structure(self):
        spec = TDopedCircuitSpec(10, seed=0)
        summary = summarize(compute_lattice(t_doped_state(spec)))
        assert summary.gamma < 1e-3
        assert summary.localized
        assert summary.max_noninteger_deviation > 1e-3

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            TDopedCircuitSpec(10, clifford_layers_per_block=1)
        with pytest.raises(ConfigurationError):
            TDopedCircuitSpec(10, t_gates_per_block=1000)
        with pytest.raises(ConfigurationError):
            TDopedCircuitSpec(6)  # default entangler would reach the cutoff


class TestSweep:
    def test_single_point_h0(self):
        # L=8 already carries the noninteger large-scale total, but its gap is
        # a single scale wide; the witness needs the L=12 chain to fire
        point8, _ = potts_point(8, 0.0)
        assert point8.gamma == pytest.approx(math.log2(3), abs=1e-9)
        assert not point8.localized
        point12, verdict = potts_point(12, 0.0)
        assert point12.gamma == pytest.approx(math.log2(3), abs=1e-9)
        assert point12.long_range_witnessed and verdict.long_range_witnessed
        assert point12.origin == "global"

    def test_critical_point_gap_closes(self):
        # at the self-dual point h = J/3 information sits at every scale, so
        # the state is not localized and the witness abstains
        point, verdict = potts_point(12, 1.0 / 3.0)
        assert not point.localized
        assert not point.long_range_witnessed
        assert verdict.origin == "not_applicable"

    def test_error_rows_keep_sweeping(self):
        rows = potts_sweep([9, 8], [0.0])  # odd qubit length fails
        assert rows[0].error is not None and rows[0].gamma is None
        assert rows[1].error is None and rows[1].gamma is not None
        error_col = SWEEP_CSV_COLUMNS.index("error")
        assert rows[0].to_csv_row()[error_col] == rows[0].error
        assert rows[1].to_csv_row()[error_col] is None

    def test_qutrit_granularity(self):
        point, _ = potts_point(4, 0.0, granularity="qutrit")
        assert point.gamma == pytest.approx(math.log2(3), abs=1e-9)

    def test_csv_row_layout(self):
        point, _ = potts_point(8, 0.5)
        row = point.to_csv_row()
        assert len(row) == len(SWEEP_CSV_COLUMNS)
        assert row[0] == 8 and row[1] == 0.5

    def test_crossing_brackets(self):
        class R:
            def __init__(self, length, field, gamma):
                self.length, self.field, self.gamma = length, field, gamma
                self.error = None

        rows = [R(8, h, g) for h, g in [(0.0, 1.0), (0.5, 0.4), (1.0, 0.1)]]
        rows += [R(10, h, g) for h, g in [(0.0, 1.2), (0.5, 0.3), (1.0, 0.05)]]
        assert crossing_brackets(rows, 8, 10) == [(0.0, 0.5)]
