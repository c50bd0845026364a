"""Model factory: reference states, Potts chain, embedding, T-doped circuits."""

import hashlib
import math
from functools import reduce

import numpy as np
import pytest

from conftest import SHIFT_X, assert_lattices_close, crossing_brackets, reference_state
from infolattice import PureState, compute_lattice, summarize
from infolattice.errors import ConfigurationError, NumericalError
from infolattice import models
from infolattice.tableau import statevector_from_tableau
from infolattice.models import (
    CLOCK_Z,
    PottsOperator,
    PottsSpec,
    SWEEP_CSV_COLUMNS,
    TDopedCircuitSpec,
    TRIPLET_ISOMETRY,
    cat_state,
    charge_operator,
    embed_qutrit_to_spins,
    potts_hamiltonian,
    potts_point,
    potts_sweep,
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


def dense_operator(apply, dim):
    """Dense matrix of a linear map, column by column from its action on the
    basis vectors."""
    return np.column_stack([apply(e) for e in np.eye(dim)])


def apply_charge(n, v):
    """``Q @ v`` for the global shift, from its basis permutation."""
    qv = np.empty_like(v)
    qv[charge_operator(n)] = v
    return qv


def hamiltonian_matrix(spec):
    return dense_operator(potts_hamiltonian(spec).__matmul__, 3**spec.qutrits)


def charge_matrix(n):
    return dense_operator(lambda v: apply_charge(n, v), 3**n)


def isometry_matrix(n):
    cols = symmetric_sector_isometry(n)
    return dense_operator(lambda u: u[cols] / np.sqrt(3.0), 3 ** (n - 1))


class TestReferenceStates:
    def test_neel(self):
        s = statevector_from_tableau(reference_tableau("neel", 4))
        assert np.argmax(np.abs(s.amps)) == 0b0101

    def test_bell(self):
        s = statevector_from_tableau(reference_tableau("bell", 4))
        expected = np.zeros(16, dtype=complex)
        expected[0b0101] = expected[0b0011] = SQ2
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)
        with pytest.raises(ConfigurationError):
            reference_tableau("bell", 6)

    def test_ghz(self):
        s = statevector_from_tableau(reference_tableau("ghz", 10))
        assert abs(s.amps[0] - SQ2) < 1e-15 and abs(s.amps[-1] - SQ2) < 1e-15

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            reference_tableau("w_state", 4)

    @pytest.mark.parametrize(
        "name,length",
        [(name, L) for name in ("neel", "ghz") for L in range(2, 13)] + [("bell", 4)],
    )
    def test_tableau_matches_dense(self, name, length):
        dense = reference_state(name, length)
        t = reference_tableau(name, length)
        assert_lattices_close(t.integer_info_lattice(), compute_lattice(dense), 1e-9)

    @pytest.mark.parametrize(
        "name,length", [("neel", 0), ("ghz", 1), ("bell", 3), ("bell", 6), ("w_state", 4)]
    )
    def test_rejected_names_and_lengths(self, name, length):
        with pytest.raises(ConfigurationError):
            reference_tableau(name, length)

    def test_cat_state(self):
        c = cat_state(3, 4)
        step = (3**4 - 1) // 2
        nz = np.nonzero(np.abs(c.amps) > 1e-12)[0]
        np.testing.assert_array_equal(nz, [0, step, 2 * step])


class TestPottsHamiltonian:
    def test_two_site_ferromagnet(self):
        # bond term has eigenvalue 2 on aligned pairs: ground energy -2J/3,
        # threefold degenerate (dense diagonalization as the oracle)
        h = hamiltonian_matrix(PottsSpec(2, coupling=1.0, field=0.0))
        evals = np.linalg.eigvalsh(h)
        assert evals[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert np.sum(np.abs(evals - evals[0]) < 1e-9) == 3

    def test_two_site_paramagnet(self):
        # X + Xd has top eigenvalue 2 on the uniform vector
        h = hamiltonian_matrix(PottsSpec(2, coupling=0.0, field=0.7))
        evals, vecs = np.linalg.eigh(h)
        assert evals[0] == pytest.approx(-4 * 0.7, abs=1e-12)
        uniform = np.ones(9) / 3.0
        assert abs(np.vdot(uniform, vecs[:, 0])) == pytest.approx(1.0, abs=1e-9)

    def test_hermitian(self):
        h = hamiltonian_matrix(PottsSpec(3, 1.0, 0.4))
        assert np.abs(h - h.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("field", [0.0, 0.3, 2])
    def test_real_symmetric(self, field):
        op = potts_hamiltonian(PottsSpec(3, 1.0, field))
        assert op.diag.dtype == np.float64 and (op @ np.ones(27)).dtype == np.float64
        h = hamiltonian_matrix(PottsSpec(3, 1.0, field))
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("j,field", [(1.0, 0.0), (1.0, 0.3), (0.7, 0.55), (0.0, 0.4)])
    def test_matches_dense_formula(self, n, j, field):
        h = hamiltonian_matrix(PottsSpec(n, j, field))
        assert np.array_equal(h, dense_potts(n, j, field))

    @pytest.mark.parametrize("n,j,field", [(2, 1.0, 0.3), (3, 0.5, 0.0), (4, 1.0, 1.2)])
    def test_charge_symmetry(self, n, j, field):
        h = hamiltonian_matrix(PottsSpec(n, j, field))
        q = charge_matrix(n)
        comm = h @ q - q @ h
        assert abs(comm).max() < 1e-12
        shift = site_chain(n, dict.fromkeys(range(n), SHIFT_X.real))
        assert np.array_equal(q, shift)
        # sector columns: shift orbits, uniform weights, ordered by smallest member
        orbits = (np.eye(3**n) + shift + shift @ shift) != 0
        first = [b for b in range(3**n) if np.flatnonzero(orbits[:, b])[0] == b]
        p_ref = orbits[:, first] / np.sqrt(3.0)
        assert np.array_equal(isometry_matrix(n), p_ref)

    def test_charge_is_order_three(self):
        q = charge_matrix(3)
        assert abs((q @ q @ q) - np.eye(27)).max() < 1e-15

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PottsSpec(1)
        with pytest.raises(ConfigurationError):
            PottsSpec(3, coupling=-1.0)
        with pytest.raises(ConfigurationError):
            PottsSpec(3, field=float("nan"))
        with pytest.raises(ConfigurationError, match="both zero"):
            PottsSpec(3, coupling=0.0, field=0.0)


OPERATOR_BUILDERS = {
    "hamiltonian": lambda: potts_hamiltonian(PottsSpec(3, 1.0, 0.4)),
    "isometry": lambda: symmetric_sector_isometry(3),
    "charge": lambda: charge_operator(3),
}


def operator_arrays(op):
    return [op.diag, op.shifts] if isinstance(op, PottsOperator) else [op]


class TestPottsTables:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cached_tables_are_read_only(self, n):
        tables = models._tables(n)
        assert models._tables(n) is tables
        with pytest.raises(AttributeError):  # a named tuple
            tables.cols = tables.reps
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shift_tables_match_digit_arithmetic(self, n):
        tables = models._tables(n)
        weights = 3 ** np.arange(n - 1, -1, -1)
        digits = np.arange(3**n)[:, None] // weights % 3

        def shifted(sites, step):
            moved = digits.copy()
            moved[:, sites] = (moved[:, sites] + step) % 3
            return moved @ weights

        expected = [shifted([i], step) for i in range(n) for step in (1, 2)]
        assert np.array_equal(tables.shifts, expected)
        assert np.array_equal(tables.charge, shifted(list(range(n)), 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sector_columns_are_ranked_orbit_minima(self, n):
        tables = models._tables(n)
        orbits = np.stack([np.arange(3**n), tables.charge, tables.charge[tables.charge]])
        minima = np.unique(orbits.min(axis=0))
        assert np.array_equal(tables.reps, minima)
        assert np.array_equal(tables.cols[tables.reps], np.arange(3 ** (n - 1)))
        assert np.array_equal(tables.cols[orbits], np.broadcast_to(tables.cols, orbits.shape))
        assert np.array_equal(tables.sector_shifts, tables.cols[tables.shifts[:, tables.reps]])

    @pytest.mark.parametrize("build", OPERATOR_BUILDERS.values(), ids=OPERATOR_BUILDERS)
    def test_returned_operators_are_read_only(self, build):
        first = build()
        before = [table.copy() for table in operator_arrays(first)]
        for table in operator_arrays(first):
            with pytest.raises(ValueError):
                table[0] = 7
        if isinstance(first, PottsOperator):
            with pytest.raises(AttributeError):  # a frozen dataclass
                first.field = 7.0
        assert all(map(np.array_equal, before, operator_arrays(build())))

    def test_sweep_out_of_order_matches_fresh_points(self):
        fields = [0.0, 0.4]
        rows = potts_sweep([8, 6, 8], fields)
        fresh = []
        for length in (8, 6, 8):
            for field in fields:
                models._tables.cache_clear()
                fresh.append(potts_point(length, field)[0])
        assert rows == fresh


def sector_matrix(spec):
    """``P^T H P``, column by column from the actions of P, H and P^T."""
    n = spec.qutrits
    h = potts_hamiltonian(spec)
    cols = symmetric_sector_isometry(n)

    def project(u):
        hpu = h @ (u[cols] / np.sqrt(3.0))
        return np.bincount(cols, hpu, minlength=3 ** (n - 1)) / np.sqrt(3.0)

    return dense_operator(project, 3 ** (n - 1))


class TestSymmetricSector:
    def test_isometry(self):
        for n in (2, 3, 4):
            p = isometry_matrix(n)
            assert p.shape == (3**n, 3 ** (n - 1))
            gram = p.conj().T @ p
            np.testing.assert_allclose(gram, np.eye(3 ** (n - 1)), atol=1e-14)
            q = charge_matrix(n)
            np.testing.assert_allclose(q @ p - p, 0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("j,field", [(1.0, 0.0), (1.0, 0.3), (0.0, 0.4)])
    def test_sector_operator_is_projected_hamiltonian(self, n, j, field):
        # the solver's operator on the orbit representatives is P^T H P
        spec = PottsSpec(n, j, field)
        h = potts_hamiltonian(spec)
        tables = models._tables(n)
        sector = PottsOperator(h.diag[tables.reps], tables.sector_shifts, h.field)
        dense = dense_operator(sector.__matmul__, 3 ** (n - 1))
        np.testing.assert_allclose(dense, sector_matrix(spec), rtol=0, atol=1e-14)

    def test_ground_state_h0_is_cat(self):
        gs, energy = symmetric_ground_state(PottsSpec(4, 1.0, 0.0))
        cat = cat_state(3, 4)
        assert abs(abs(np.vdot(cat.amps, gs.amps)) - 1.0) < 1e-10
        assert energy == pytest.approx(-2.0, abs=1e-10)  # 3 bonds * (-2/3)

    def test_large_field_limit(self):
        gs, _ = symmetric_ground_state(PottsSpec(3, 1.0, 500.0))
        uniform = PureState(np.ones(27) / np.sqrt(27.0), (3, 3, 3))
        assert abs(abs(np.vdot(uniform.amps, gs.amps)) - 1.0) < 1e-4

    def test_sector_membership_and_residual(self):
        for field in (0.0, 0.2, 1.0 / 3.0, 0.9):
            gs, energy = symmetric_ground_state(PottsSpec(4, 1.0, field))
            h = potts_hamiltonian(PottsSpec(4, 1.0, field))
            assert np.linalg.norm(h @ gs.amps - energy * gs.amps) < 1e-9
            assert np.linalg.norm(apply_charge(4, gs.amps) - gs.amps) < 1e-9

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lowest_eigenpair_matches_full_eigh(self, n):
        # the default potts-sweep field grid, h = 0 included
        p = isometry_matrix(n)
        for field in np.linspace(0.0, 0.8, 17):
            spec = PottsSpec(n, 1.0, round(float(field), 10))
            gs, energy = symmetric_ground_state(spec)
            energies, vectors = np.linalg.eigh(sector_matrix(spec))
            v_full = p @ vectors[:, 0]
            assert abs(energy - energies[0]) <= 1e-12
            assert abs(abs(np.vdot(v_full, gs.amps)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sector_matrix_is_perron_frobenius(self, n):
        # why the uniform Lanczos start overlaps the ground state: no positive
        # off-diagonal entry, and a non-negative ground state
        for coupling in (1.0, 0.0):
            for field in np.linspace(0.0, 0.8, 17)[coupling == 0 :]:  # J = h = 0 is rejected
                spec = PottsSpec(n, coupling, round(float(field), 10))
                h_sym = sector_matrix(spec)
                assert not np.any(h_sym[~np.eye(len(h_sym), dtype=bool)] > 0)
                gs, _ = symmetric_ground_state(spec)
                assert gs.amps.min() >= -1e-12

    @pytest.mark.parametrize("field", [0.0, 0.3, 0.8])
    def test_lanczos_path_matches_dense_eigh(self, field):
        # the largest chain with a dense oracle here (729 sector states); the
        # solve is the same Lanczos call as for every other N
        import scipy.linalg as sla

        n = 7
        spec = PottsSpec(n, 1.0, field)
        gs, energy = symmetric_ground_state(spec)
        assert gs.amps.dtype == np.float64
        assert gs.amps[np.argmax(np.abs(gs.amps))] > 0
        h = potts_hamiltonian(spec)
        energies = sla.eigh(sector_matrix(spec), eigvals_only=True, subset_by_index=[0, 0])
        assert abs(energy - energies[0]) <= 1e-10
        assert np.linalg.norm(h @ gs.amps - energy * gs.amps) < 1e-9
        assert np.linalg.norm(apply_charge(n, gs.amps) - gs.amps) < 1e-9

    def test_step_bound_is_numerical_error(self, monkeypatch):
        # a real non-convergence: N = 4 needs more than three Lanczos steps
        monkeypatch.setattr(models, "LANCZOS_MAX_STEPS", 3)
        with pytest.raises(NumericalError, match="Lanczos did not converge"):
            symmetric_ground_state(PottsSpec(4, 1.0, 0.3))

    def test_wrong_eigenpair_is_numerical_error(self, monkeypatch):
        # the residual check catches a solver result that is no eigenpair
        solve = models._lanczos_lowest

        def off_by_one(op):
            energy, vector = solve(op)
            return energy + 1.0, vector

        monkeypatch.setattr(models, "_lanczos_lowest", off_by_one)
        with pytest.raises(NumericalError, match="eigen-residual"):
            symmetric_ground_state(PottsSpec(3, 1.0, 0.3))

    def test_residual_check_scales_with_the_couplings(self):
        # H(lambda J, lambda h) = lambda H(J, h): large couplings solve, and
        # the ground state depends on h / J alone
        strong_field, _ = symmetric_ground_state(PottsSpec(4, 1.0, 1e6))
        weak_coupling, _ = symmetric_ground_state(PottsSpec(4, 1e-6, 1.0))
        np.testing.assert_allclose(strong_field.amps, weak_coupling.amps, rtol=0, atol=1e-12)
        symmetric_ground_state(PottsSpec(4, 1e9, 0.3))

    def test_ground_state_is_real(self):
        gs, _ = symmetric_ground_state(PottsSpec(4, 1.0, 0.3))
        assert gs.amps.dtype == np.float64
        assert embed_qutrit_to_spins(gs).amps.dtype == np.float64


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
            lhs = np.vdot(embed_qutrit_to_spins(sb).amps, embed_qutrit_to_spins(sa).amps)
            assert abs(lhs - np.vdot(sb.amps, sa.amps)) < 1e-12

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


# SHA-256 of amps.tobytes() for perfbench's T-doped specs, by (L, seed):
# dense_lattice's L = 14 and 16 items at benchmark seeds 0 and 1, and cli_jobs'
# L = 13 spec at seeds 0 and 1.  perfbench's dense references carry this exact
# rounding, so the build must keep its bits; building T-doped states from
# their product structure (ROADMAP) changes them and re-records the digests.
T_DOPED_SHA256 = {
    (14, 9): "946a0899d1d5f12645006ce99b0d07308f79e2f35099d0b25244ab62f8d0924f",
    (14, 1009): "4bcf87f9edb117d281ba94ed30490b0404640f8aab2e758351c3e1e7ab46459d",
    (16, 15): "278e9db8733ca0b0edaf70eb8c09db466bee077a314a64064e430c6c4645a163",
    (16, 1015): "e27e15211ff31cfdda5baf9cf7260308998a5f70a631e96dbdad1e8f132f8c49",
    (13, 0): "0043edd6a49359dada6704d0d6c917a34dc392991a7bc1b3875a406e0fd2176d",
    (13, 1): "67be37386f300b0bb848ad37e07dd728de843b31afc1fcff2270f998eda29980",
}


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

    @pytest.mark.parametrize("length,seed", list(T_DOPED_SHA256))
    def test_amplitude_bytes_pinned(self, length, seed):
        amps = t_doped_state(TDopedCircuitSpec(length, seed=seed)).amps
        assert hashlib.sha256(amps.tobytes()).hexdigest() == T_DOPED_SHA256[length, seed]

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

    def test_error_rows_keep_sweeping(self, monkeypatch):
        solve = models.symmetric_ground_state

        def fails_at_n4(spec):
            if spec.qutrits == 4:
                raise NumericalError("Lanczos did not converge")
            return solve(spec)

        monkeypatch.setattr(models, "symmetric_ground_state", fails_at_n4)
        rows = potts_sweep([8, 6], [0.0])
        assert rows[0].error == "NumericalError: Lanczos did not converge"
        assert rows[0].gamma is None
        assert rows[1].error is None and rows[1].gamma is not None
        error_col = SWEEP_CSV_COLUMNS.index("error")
        assert rows[0].to_csv_row()[error_col] == rows[0].error
        assert rows[1].to_csv_row()[error_col] is None

    @pytest.mark.parametrize(
        "sizes,kwargs",
        [
            ([8, 7], {}),  # odd qubit length
            ([8], {"gap_threshold": math.nan}),
            ([8], {"tol": -1.0}),
            ([8], {"granularity": "spin"}),
        ],
    )
    def test_bad_configuration_raises_before_solving(self, monkeypatch, sizes, kwargs):
        def unreachable(spec):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(models, "symmetric_ground_state", unreachable)
        with pytest.raises(ConfigurationError):
            potts_sweep(sizes, [0.3], **kwargs)

    def test_only_numerical_failures_become_rows(self, monkeypatch):
        def buggy(spec):
            raise KeyError("a bug, not a numerical failure")

        monkeypatch.setattr(models, "symmetric_ground_state", buggy)
        with pytest.raises(KeyError):
            potts_sweep([8], [0.3])

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
