"""Dense engine: gates, reductions, entropies, import/export."""

import re

import numpy as np
import pytest
import scipy.stats

from conftest import dense_pauli, random_pauli
from infolattice.errors import (
    DimensionMismatchError,
    MemoryCapError,
    NumericalError,
)
from infolattice.pauli import SupportInterval
from infolattice.states import (
    PureState,
    apply_pauli,
    entropy_bits,
    haar_random_state,
    load_amplitudes,
    save_amplitudes,
)

SQ2 = 1 / np.sqrt(2)


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

    def test_local_dim_mixed(self):
        s = PureState.computational((2, 4), (0, 0))
        with pytest.raises(ValueError):
            _ = s.local_dim


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
        s = s.apply_gate("H", 0)
        for c in range(3):
            s = s.apply_gate("CNOT", c, c + 1)
        expected = np.zeros(16, dtype=complex)
        expected[0] = expected[15] = SQ2
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)

    def test_non_unitary_rejected(self):
        s = PureState.from_label("00")
        with pytest.raises(ValueError):
            s.apply_unitary(np.array([[1, 0], [0, 2.0]]), 0)

    def test_bad_block_rejected(self):
        s = PureState.computational((2, 3), (0, 0))
        with pytest.raises(DimensionMismatchError):
            s.apply_unitary(np.eye(4), 0)  # 2*3 block, side 4 never matches

    def test_out_of_range(self):
        s = PureState.from_label("00")
        with pytest.raises(IndexError):
            s.apply_unitary(np.eye(2), 5)

    def test_nonadjacent_two_qubit_gate(self):
        s = PureState.from_label("000").apply_gate("H", 0).apply_gate("CNOT", 0, 2)
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = expected[0b101] = SQ2
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)


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
        # states corrupted after construction: a NaN or an inf amplitude
        # gives a reduced density matrix with non-finite entries
        for bad in ([np.nan, 0.0, 0.0, 1.0], [SQ2, np.inf, np.inf, SQ2]):
            s = PureState.from_label("00")
            s.amps[:] = bad
            with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
                s.reduced_density(SupportInterval(0, 0))

    def test_complement_density_checks(self):
        s = haar_random_state((2,) * 4, np.random.default_rng(8))
        iv = SupportInterval(1, 2)
        t = s.amps.reshape(2, 4, 2)
        rho = np.einsum("amc,bmd->acbd", t, t.conj()).reshape(4, 4)
        np.testing.assert_array_equal(s.complement_density(iv), 0.5 * (rho + rho.conj().T))
        s.amps[0] = np.nan  # corrupt a state that passed construction
        with pytest.raises(NumericalError):
            s.complement_density(iv)

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
        assert abs(s.apply_unitary(u_in, 1).entropy_of_interval(iv) - base) < 1e-9
        u_out = scipy.stats.unitary_group.rvs(4, random_state=2)
        assert abs(s.apply_unitary(u_out, 4).entropy_of_interval(iv) - base) < 1e-9


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
    def test_mirror(self):
        s = PureState.from_label("0110")
        m = s.mirror()
        assert np.argmax(np.abs(m.amps)) == 0b0110  # palindrome
        s2 = PureState.from_label("001")
        assert np.argmax(np.abs(s2.mirror().amps)) == 0b100

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        s = haar_random_state((2, 3, 2), rng)
        path = tmp_path / "state.txt"
        save_amplitudes(s, str(path))
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
