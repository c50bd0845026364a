"""Dense engine: gates, reductions, entropies, import/export."""

import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from conftest import dense_pauli, random_pauli
from infolattice.gates import gate_matrix
from infolattice.errors import (
    DimensionMismatchError,
    MemoryCapError,
    NumericalError,
)
from infolattice.lattice import fold
from infolattice.pauli import SupportInterval
from infolattice.states import (
    PureState,
    amplitudes_text,
    apply_pauli,
    entropy_bits,
    haar_random_state,
    load_amplitudes,
)

SQ2 = 1 / np.sqrt(2)


def kron_oracle(state: PureState, u: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    """Amplitudes after ``u`` on ``sites``: move the sites to the front in
    their given order, apply ``u`` (x) identity as a full matrix, move back."""
    rest = [s for s in range(state.num_sites) if s not in sites]
    order = list(sites) + rest
    full = np.kron(u, np.eye(math.prod(state.dims[s] for s in rest)))
    moved = full @ state.tensor().transpose(order).ravel()
    return moved.reshape([state.dims[s] for s in order]).transpose(np.argsort(order)).ravel()


@st.composite
def placements(draw):
    """A mixed qubit/qutrit chain and one to three distinct sites in any order."""
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=6)))
    count = draw(st.integers(1, min(3, len(dims))))
    sites = tuple(draw(st.permutations(range(len(dims))))[:count])
    return dims, sites


class TestConstruction:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0], (2,))
        PureState([1.0, 1.0], (2,), normalize=True)
        # abs(nan - 1) > tol is False, so NaN needs its own check
        for bad in (np.nan, np.inf, complex(0, np.nan)):
            for normalize in (False, True):
                with pytest.raises(ValueError):
                    PureState([bad, 0.0], (2,), normalize=normalize)

    def test_dims_validation(self):
        with pytest.raises(DimensionMismatchError):
            PureState([1, 0, 0], (2,))

    def test_labels_and_indexing(self):
        s = PureState.from_label("0101")
        assert np.argmax(np.abs(s.amps)) == 0b0101
        t = PureState.computational((3, 3), (2, 1))
        assert np.argmax(np.abs(t.amps)) == 2 * 3 + 1


class TestAmplitudeDtype:
    @pytest.mark.parametrize(
        "amps,dtype",
        [
            ([1.0, 0.0], np.float64),
            ([1, 0], np.float64),
            ([True, False], np.float64),
            (np.array([1, 0], dtype=np.float32), np.float64),
            (np.array([1, 0], dtype=np.complex64), np.complex128),
            ([1j, 0], np.complex128),
            (np.array([1.0, 0.0], dtype=complex), np.complex128),
        ],
    )
    def test_real_input_stays_real(self, amps, dtype):
        assert PureState(amps, (2,)).amps.dtype == dtype

    def test_complex_gate_promotes_a_real_state(self):
        plus = PureState([SQ2, SQ2], (2,))
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        out = plus.apply_unitary(t, 0)
        assert plus.amps.dtype == np.float64 and out.amps.dtype == np.complex128
        np.testing.assert_array_equal(
            out.amps, PureState(plus.amps.astype(complex), (2,)).apply_unitary(t, 0).amps
        )


class TestApplyUnitary:
    def test_t_gate_fixed_point(self):
        s = PureState.from_label("0")
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        np.testing.assert_allclose(s.apply_unitary(t, 0).amps, s.amps, atol=1e-15)

    def test_t_gate_on_plus(self):
        plus = PureState([SQ2, SQ2], (2,))
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        out = plus.apply_unitary(t, 0)
        np.testing.assert_allclose(
            out.amps, [SQ2, SQ2 * np.exp(1j * np.pi / 4)], atol=1e-15
        )

    def test_ghz_circuit_amplitudes(self):
        s = PureState.from_label("0000")
        s = s.apply_unitary(gate_matrix("H"), 0)
        for c in range(3):
            s = s.apply_unitary(gate_matrix("CNOT"), c, c + 1)
        expected = np.zeros(16, dtype=complex)
        expected[0] = expected[15] = SQ2
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)

    @pytest.mark.parametrize("label", ["0", "1"])
    @pytest.mark.parametrize(
        "u",
        [
            np.diag([1.0, 2.0]),
            # 1e-6 off unitary: within the default rtol of np.allclose
            np.diag([1 + 1e-6, 1.0]),
            np.diag([1.0, 1 + 1e-6]),
            np.diag([1.0, np.nan]),
        ],
        ids=["diag2", "diag0-1e-6", "diag1-1e-6", "nan"],
    )
    def test_non_unitary_rejected(self, label, u):
        with pytest.raises(ValueError, match="not unitary within 1e-10"):
            PureState.from_label(label).apply_unitary(u, 0)

    def test_bad_block_rejected(self):
        s = PureState.computational((2, 3), (0, 0))
        for sites in ((0,), (1,), (0, 1), (1, 0)):  # sides 2, 3, 6 and 6, never 4
            with pytest.raises(DimensionMismatchError):
                s.apply_unitary(np.eye(4), *sites)

    def test_out_of_range(self):
        s = PureState.from_label("00")
        for sites in ((5,), (-1,), (0, 2)):
            with pytest.raises(IndexError):
                s.apply_unitary(np.eye(2 ** len(sites)), *sites)

    def test_repeated_site_rejected(self):
        s = PureState.from_label("000")
        # a repeated site is refused before the side is compared: eye(4) would
        # match the product 2*2 of the two entries
        with pytest.raises(ValueError, match="not distinct") as info:
            s.apply_unitary(np.eye(4), 1, 1)
        assert info.type is ValueError

    def test_nonadjacent_two_qubit_gate(self):
        h, cnot = gate_matrix("H"), gate_matrix("CNOT")
        s = PureState.from_label("000").apply_unitary(h, 0).apply_unitary(cnot, 0, 2)
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = expected[0b101] = SQ2
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)
        # descending: the control is site 2, the first (most significant) site
        s = PureState.from_label("000").apply_unitary(h, 2).apply_unitary(cnot, 2, 0)
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(placements(), st.integers(0, 2**32 - 1))
    @example(((2, 3, 2, 3, 2), (4, 1)), 0)  # descending, non-adjacent, mixed
    @example(((3, 2, 2, 3), (3, 0, 2)), 1)
    def test_matches_kron_oracle(self, placement, seed):
        dims, sites = placement
        rng = np.random.default_rng(seed)
        state = haar_random_state(dims, rng)
        side = math.prod(dims[s] for s in sites)
        u = scipy.stats.unitary_group.rvs(side, random_state=rng) if side > 1 else np.eye(1)
        out = state.apply_unitary(u, *sites)
        assert out.dims == dims
        np.testing.assert_allclose(out.amps, kron_oracle(state, u, sites), atol=1e-13, rtol=0)


class TestReducedDensity:
    def ghz(self, L=4):
        amps = np.zeros(2**L, dtype=complex)
        amps[0] = amps[-1] = SQ2
        return PureState(amps, (2,) * L)

    def test_ghz_single_site(self):
        rdm = self.ghz().reduced_density(SupportInterval(0, 0))
        np.testing.assert_allclose(rdm, np.eye(2) / 2, atol=1e-15)

    def test_product_state_projector(self):
        s = PureState.from_label("0101")
        rdm = s.reduced_density(SupportInterval(1, 2))
        np.testing.assert_allclose(rdm @ rdm, rdm, atol=1e-14)
        assert abs(np.trace(rdm) - 1) < 1e-14

    def test_ghz_two_site(self):
        rdm = self.ghz().reduced_density(SupportInterval(0, 1))
        np.testing.assert_allclose(rdm, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_memory_cap(self):
        # side 2^13 = 8192 exceeds the fixed cap of 4096
        with pytest.raises(MemoryCapError):
            self.ghz(13).reduced_density(SupportInterval(0, 12))


class TestEntropy:
    def test_half_half(self):
        assert abs(entropy_bits(np.diag([0.5, 0.5])) - 1.0) < 1e-14

    def test_projector(self):
        assert entropy_bits(np.diag([1.0, 0.0])) == 0.0

    def test_qutrit_uniform(self):
        assert abs(entropy_bits(np.eye(3) / 3) - np.log2(3)) < 1e-14

    def test_tiny_negatives_clamped(self):
        s = entropy_bits(np.diag([1.0 + 1e-13, -1e-13]))
        assert s == 0.0

    def test_corrupted_spectrum(self):
        with pytest.raises(NumericalError):
            entropy_bits(np.diag([1.1, -0.1]))
        with pytest.raises(NumericalError):
            entropy_bits(np.diag([np.nan, 1.0]))  # lam > 0 would drop the NaN
        # states corrupted after construction, complex (einsum) and real (Gram
        # product): a NaN or an inf amplitude gives density matrices with
        # non-finite entries
        for s in (PureState.from_label("00"), PureState([1.0, 0.0, 0.0, 0.0], (2, 2))):
            for bad in ([np.nan, 0.0, 0.0, 1.0], [SQ2, np.inf, np.inf, SQ2]):
                s.amps[:] = bad
                for rdm in (s.reduced_density, s.complement_density):
                    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
                        rdm(SupportInterval(0, 0))

    def test_complement_density_checks(self):
        s = haar_random_state((2,) * 4, np.random.default_rng(8))
        iv = SupportInterval(1, 2)
        t = s.amps.reshape(2, 4, 2)
        rho = np.einsum("amc,bmd->acbd", t, t.conj()).reshape(4, 4)
        np.testing.assert_array_equal(s.complement_density(iv), 0.5 * (rho + rho.conj().T))
        s.amps[0] = np.nan  # corrupt a state that passed construction
        with pytest.raises(NumericalError):
            s.complement_density(iv)

    @pytest.mark.parametrize("method", ["reduced_density", "complement_density"])
    def test_non_hermitian_contraction_raises(self, monkeypatch, method):
        # one off-diagonal entry of the contraction skewed by 1e-9, trace intact
        einsum = np.einsum

        def skewed(*args, **kwargs):
            out = einsum(*args, **kwargs)
            out.flat[1] += 1e-9
            return out

        s = haar_random_state((2,) * 4, np.random.default_rng(8))
        monkeypatch.setattr(np, "einsum", skewed)
        with pytest.raises(NumericalError, match="not Hermitian"):
            getattr(s, method)(SupportInterval(1, 2))

    @staticmethod
    def einsum_densities(s, iv):
        """Hermitized einsum contractions of the interval and its complement."""
        a = math.prod(s.dims[: iv.left])
        c = math.prod(s.dims[iv.right + 1 :])
        t = s.amps.reshape(a, -1, c)
        rho = np.einsum("amc,anc->mn", t, t.conj())
        comp = np.einsum("amc,bmd->acbd", t, t.conj()).reshape(a * c, a * c)
        return 0.5 * (rho + rho.conj().T), 0.5 * (comp + comp.conj().T)

    @pytest.mark.parametrize(
        "dims", [(2,) * 6, (3,) * 4, (2, 3, 2, 3, 2), "fold"], ids=str
    )
    def test_gram_product_matches_einsum_on_real_states(self, dims):
        rng = np.random.default_rng(17)
        if dims == "fold":  # mixed dimensions (4, 4, 2) from folding
            s = fold(PureState(rng.normal(size=32), (2,) * 5, normalize=True))
        else:
            s = PureState(rng.normal(size=math.prod(dims)), dims, normalize=True)
        assert s.amps.dtype == np.float64
        for left in range(s.num_sites):
            for right in range(left, s.num_sites):
                iv = SupportInterval(left, right)
                rho, comp = self.einsum_densities(s, iv)
                np.testing.assert_allclose(s.reduced_density(iv), rho, rtol=0, atol=1e-14)
                np.testing.assert_allclose(s.complement_density(iv), comp, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dims", [(2,) * 6, (3,) * 4, (2, 3, 2, 3, 2)], ids=str)
    def test_complex_states_keep_the_einsum_bytes(self, dims):
        # the dense_lattice references record these exact values
        s = haar_random_state(dims, np.random.default_rng(18))
        for left in range(s.num_sites):
            for right in range(left, s.num_sites):
                iv = SupportInterval(left, right)
                rho, comp = self.einsum_densities(s, iv)
                np.testing.assert_array_equal(s.reduced_density(iv), rho)
                np.testing.assert_array_equal(s.complement_density(iv), comp)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(4)
        for L in (6, 8, 10):
            s = haar_random_state((2,) * L, rng)
            for k in range(L - 1):
                sa = s.entropy_of_interval(SupportInterval(0, k))
                sb = s.entropy_of_interval(SupportInterval(k + 1, L - 1))
                assert abs(sa - sb) < 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        s = haar_random_state((2,) * 6, rng)
        iv = SupportInterval(1, 3)
        base = s.entropy_of_interval(iv)
        u_in = scipy.stats.unitary_group.rvs(8, random_state=1)
        assert abs(s.apply_unitary(u_in, 1, 2, 3).entropy_of_interval(iv) - base) < 1e-9
        u_out = scipy.stats.unitary_group.rvs(4, random_state=2)
        assert abs(s.apply_unitary(u_out, 5, 0).entropy_of_interval(iv) - base) < 1e-9


class TestApplyPauli:
    def test_against_dense_matrix(self, rng):
        for _ in range(25):
            L = int(rng.integers(1, 6))
            p = random_pauli(rng, L)
            s = haar_random_state((2,) * L, rng)
            np.testing.assert_allclose(
                apply_pauli(s.amps, L, p), dense_pauli(p) @ s.amps, atol=1e-12
            )


class TestMirrorAndIO:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        s = haar_random_state((2, 3, 2), rng)
        path = tmp_path / "state.txt"
        path.write_text(amplitudes_text(s), encoding="ascii")
        back = load_amplitudes(str(path))
        assert back.dims == s.dims
        np.testing.assert_array_equal(back.amps, s.amps)  # repr roundtrip is exact

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0.0\n")
        with pytest.raises(ValueError):
            load_amplitudes(str(path))

    @pytest.mark.parametrize("row", ["0.5", "0.5 0.0 0.0", "0.5 zero"])
    def test_load_rejects_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"dims 2\n1.0 0.0\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ")):
            load_amplitudes(str(path))

    @pytest.mark.parametrize("header", ["dims 2 x", "dims", "dims 2 1", "dims 2.0"])
    def test_load_rejects_bad_dims_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n1.0 0.0\n0.0 0.0\n")
        message = re.escape(f"{path}:1: ") + ".*" + re.escape(repr(header))
        with pytest.raises(ValueError, match=message):
            load_amplitudes(str(path))

    @pytest.mark.parametrize("rows", ["1 0\n1 0\n", "nan 0\n0 0\n", "1 inf\n0 0\n"])
    def test_load_rejects_unnormalized_or_nonfinite_rows(self, tmp_path, rows):
        path = tmp_path / "bad.txt"
        path.write_text("dims 2\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}: state norm ")):
            load_amplitudes(str(path))

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_load_rejects_wrong_amplitude_count(self, tmp_path, rows):
        path = tmp_path / "bad.txt"
        path.write_text("dims 2 2\n1.0 0.0\n" + "0.0 0.0\n" * (rows - 1))
        message = re.escape(f"{path}: expected 4 ") + f".*got {rows}$"
        with pytest.raises(ValueError, match=message):
            load_amplitudes(str(path))
