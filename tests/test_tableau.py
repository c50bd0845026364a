"""Stabilizer engine: gate conjugation, interval subgroups, integer lattice,
maximally local generating sets, and the dense bridge."""

import random
from collections import Counter

import numpy as np
import pytest

from conftest import (
    apply_brickwork_dense,
    dense_pauli,
    elementary_gates,
    ensemble_specs,
    multiply,
    random_pauli,
    reference_state,
    row_reduce,
    span,
    stabilizer_entropy,
    support_ends,
)
from infolattice import _kernels, gates
from infolattice.errors import (
    MemoryCapError,
    NonCliffordGateError,
    TableauConsistencyError,
)
from infolattice.models import reference_tableau
from infolattice.pauli import PauliString, SupportInterval
from infolattice.states import apply_pauli
from infolattice.tableau import (
    StabilizerTableau,
    brickwork_bonds,
    random_clifford_circuit,
    statevector_from_tableau,
)

P = PauliString.from_label

GATE_MATS = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


def embed_gate(name: str, qubits: tuple[int, ...], L: int) -> np.ndarray:
    """Independent dense embedding of a gate into an L-qubit operator."""
    dim = 1 << L
    if name in GATE_MATS:
        m = np.array([[1.0 + 0j]])
        for j in range(L):
            m = np.kron(m, GATE_MATS[name] if j == qubits[0] else np.eye(2))
        return m
    u = np.eye(dim, dtype=complex)
    if name == "CNOT":
        c, t = qubits
        out = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            cb = (b >> (L - 1 - c)) & 1
            b2 = b ^ (cb << (L - 1 - t))
            out[b2, b] = 1.0
        return out
    if name == "CZ":
        a, bq = qubits
        diag = np.ones(dim, dtype=complex)
        for b in range(dim):
            if ((b >> (L - 1 - a)) & 1) and ((b >> (L - 1 - bq)) & 1):
                diag[b] = -1.0
        return np.diag(diag)
    raise KeyError(name)


def ghz_tableau(L: int = 4) -> StabilizerTableau:
    cnots = [("CNOT", (c, c + 1)) for c in range(L - 1)]
    return StabilizerTableau.zero_state(L).apply_circuit([("H", (0,)), *cnots])


NEEL_GENS = [P("ZIII"), P("-IZII"), P("IIZI"), P("-IIIZ")]
BELL_GENS = [P("ZIII"), P("IXXI"), P("-IZZI"), P("-IIIZ")]


class TestCliffordConjugation:
    @pytest.mark.parametrize(
        "name,qubits",
        [("H", (0,)), ("H", (2,)), ("S", (1,)), ("X", (2,)), ("Z", (0,)),
         ("CNOT", (0, 1)), ("CNOT", (2, 0)), ("CZ", (1, 2)), ("CZ", (2, 0))],
    )
    def test_against_dense_conjugation(self, name, qubits, rng):
        L = 3
        u = embed_gate(name, qubits, L)
        for _ in range(25):
            p = random_pauli(rng, L, hermitian=True)
            t = StabilizerTableau(L, [p.x], [p.z], [p.phase_exp])
            out = t.apply_circuit([(name, qubits)]).generators[0]
            np.testing.assert_allclose(
                dense_pauli(out), u @ dense_pauli(p) @ u.conj().T, atol=1e-12
            )

    def test_h_maps_z_to_x(self):
        t = StabilizerTableau.zero_state(4).apply_circuit([("H", (0,))])
        assert t.generators[0].label() == "XIII"

    def test_s_maps_x_to_y(self):
        t = StabilizerTableau.zero_state(1).apply_circuit([("H", (0,)), ("S", (0,))])
        assert t.generators[0].label() == "Y"

    def test_gate_validation(self):
        t = StabilizerTableau.zero_state(3)
        with pytest.raises(NonCliffordGateError):
            t.apply_circuit([("T", (0,))])
        with pytest.raises(IndexError):
            t.apply_circuit([("H", (3,))])
        with pytest.raises(ValueError):
            t.apply_circuit([("CNOT", (1, 1))])

    @pytest.mark.parametrize(
        "circuit,error",
        [
            ([(-1, (0, 1))], ValueError),
            ([(gates.TWO_QUBIT_COUNT, (0, 1))], ValueError),
            ([(7, (2, 2))], ValueError),
            ([(7, (1, 3))], IndexError),
            ([(7, (-1, 0))], IndexError),
            ([(7, (0,))], ValueError),
            ([(True, (0, 1))], ValueError),
            # True == 1, so a dedup by value alone would drop the bool
            ([(1, (0, 1)), (True, (0, 1))], ValueError),
            ([(np.int64(5), (0, 1))], None),  # the same element as the int 5
        ],
    )
    def test_two_qubit_clifford_validation(self, circuit, error):
        t = StabilizerTableau.zero_state(3)
        circuit = [("H", (0,)), *circuit]
        if error is None:
            as_int = [(name if isinstance(name, str) else int(name), q) for name, q in circuit]
            assert t.apply_circuit(circuit) == t.apply_circuit(as_int)
            return
        with pytest.raises(error):
            t.apply_circuit(circuit)


def conjugate_rows(xs, zs, ph, name, qubits):
    """Per-row conjugation rules, in place: the oracle for bit-plane evolution."""
    n = len(xs)
    if name == "H":
        (q,) = qubits
        b = 1 << q
        for r in range(n):
            xq = xs[r] & b
            zq = zs[r] & b
            if xq and zq:
                ph[r] = (ph[r] + 2) % 4
            elif xq or zq:
                xs[r] ^= b
                zs[r] ^= b
    elif name == "S":
        (q,) = qubits
        b = 1 << q
        for r in range(n):
            xq = xs[r] & b
            if xq:
                if zs[r] & b:
                    ph[r] = (ph[r] + 2) % 4
                zs[r] ^= b
    elif name == "X":
        (q,) = qubits
        b = 1 << q
        for r in range(n):
            if zs[r] & b:
                ph[r] = (ph[r] + 2) % 4
    elif name == "Z":
        (q,) = qubits
        b = 1 << q
        for r in range(n):
            if xs[r] & b:
                ph[r] = (ph[r] + 2) % 4
    elif name == "CNOT":
        c, t = qubits
        bc, bt = 1 << c, 1 << t
        for r in range(n):
            xc = bool(xs[r] & bc)
            zt = bool(zs[r] & bt)
            if xc and zt and (bool(xs[r] & bt) == bool(zs[r] & bc)):
                ph[r] = (ph[r] + 2) % 4
            if xc:
                xs[r] ^= bt
            if zt:
                zs[r] ^= bc
    elif name == "CZ":
        a, b_ = qubits
        ba, bb = 1 << a, 1 << b_
        for r in range(n):
            xa = bool(xs[r] & ba)
            xb = bool(xs[r] & bb)
            if xa and xb and (bool(zs[r] & ba) != bool(zs[r] & bb)):
                ph[r] = (ph[r] + 2) % 4
            if xb:
                zs[r] ^= ba
            if xa:
                zs[r] ^= bb


class TestBitPlaneEvolution:
    @pytest.mark.parametrize("L", [1, 63, 64, 65, 130])
    def test_matches_per_row_rules(self, L):
        gen = random.Random(L)
        names = ["H", "S", "X", "Z"] + (["CNOT", "CZ"] if L > 1 else [])
        for n in (1, L, 2 * L + 1):  # a single row, a full tableau, more rows than sites
            xs = [gen.getrandbits(L) for _ in range(n)]
            zs = [gen.getrandbits(L) for _ in range(n)]
            ph = [gen.randrange(4) for _ in range(n)]  # odd phases ride along
            t = StabilizerTableau(L, xs, zs, ph)
            before = t.generators
            circuit = []
            for _ in range(300):
                name = gen.choice(names)
                qubits = tuple(gen.sample(range(L), 2 if name in ("CNOT", "CZ") else 1))
                circuit.append((name, qubits))
            ox, oz, op = list(xs), list(zs), list(ph)
            for name, qubits in circuit:
                conjugate_rows(ox, oz, op, name, qubits)
            out = t.apply_circuit(circuit)
            assert [(g.x, g.z, g.phase_exp) for g in out.generators] == list(zip(ox, oz, op))
            assert t.generators == before  # the input tableau is untouched

    @pytest.mark.parametrize("L", [2, 3, 8, 33, 63, 64, 65, 200])
    def test_two_qubit_cliffords_match_their_words(self, L):
        gen = random.Random(L)
        xs = [gen.getrandbits(L) for _ in range(L)]
        zs = [gen.getrandbits(L) for _ in range(L)]
        ph = [gen.randrange(4) for _ in range(L)]  # signs and odd phases ride along
        t = StabilizerTableau(L, xs, zs, ph)
        circuit = random_clifford_circuit(L, 12, L)
        assert circuit.apply_to_tableau(t) == t.apply_circuit(elementary_gates(circuit))


class TestGHZGroup:
    def test_circuit_reproduces_printed_group(self):
        t = ghz_tableau()
        printed = [P("XXXX"), P("ZZII"), P("IZZI"), P("IIZZ")]
        assert span(t.generators) == span(printed)
        assert span([*t.generators, P("ZIZI")]) == span(printed)

    def test_all_sixteen_elements_stabilize(self):
        t = ghz_tableau()
        psi = statevector_from_tableau(t)
        gens = t.generators
        for mask in range(16):
            g = PauliString(4, 0, 0)
            for k in range(4):
                if (mask >> k) & 1:
                    g = multiply(g, gens[k])
            from infolattice.states import apply_pauli

            np.testing.assert_allclose(
                apply_pauli(psi.amps, 4, g), psi.amps, atol=1e-12
            )

    def test_ten_largest_scale_elements(self):
        # the paper counts ten group elements with support on the whole chain
        t = ghz_tableau()
        gens = t.generators
        full = 0
        for mask in range(1, 16):
            g = PauliString(4, 0, 0)
            for k in range(4):
                if (mask >> k) & 1:
                    g = multiply(g, gens[k])
            if support_ends(g) == (0, 3):
                full += 1
        assert full == 10


class TestRestrictSubgroup:
    def test_ghz_intervals(self):
        t = ghz_tableau()
        gens, rank = t.restrict_subgroup(SupportInterval(0, 1))
        assert rank == 1
        assert span(gens) == span([P("ZZII")])
        _, rank02 = t.restrict_subgroup(SupportInterval(0, 2))
        assert rank02 == 2

    def test_product_state_intervals(self):
        t = StabilizerTableau.zero_state(6)
        for a in range(6):
            for b in range(a, 6):
                _, rank = t.restrict_subgroup(SupportInterval(a, b))
                assert rank == b - a + 1

    def test_rank_monotone_under_enlargement(self, rng):
        t = random_clifford_circuit(8, 6, 3).apply_to_tableau(
            StabilizerTableau.zero_state(8)
        )
        for left in range(8):
            prev = 0
            for right in range(left, 8):
                _, rank = t.restrict_subgroup(SupportInterval(left, right))
                assert rank >= prev
                prev = rank

    def test_restricted_generators_have_interval_support(self):
        t = random_clifford_circuit(10, 9, 17).apply_to_tableau(
            StabilizerTableau.zero_state(10)
        )
        iv = SupportInterval(3, 6)
        gens, rank = t.restrict_subgroup(iv)
        assert len(gens) == rank
        for g in gens:
            left, right = support_ends(g)
            assert left >= 3 and right <= 6


class TestStabilizerEntropy:
    def test_ghz_values(self):
        t = ghz_tableau()
        assert stabilizer_entropy(t, SupportInterval(0, 1)) == 1.0
        assert stabilizer_entropy(t, SupportInterval(0, 2)) == 1.0
        assert stabilizer_entropy(t, SupportInterval(0, 3)) == 0.0

    def test_dense_oracle_small_sample(self):
        for (L, layers, seed) in ensemble_specs(12):
            t = random_clifford_circuit(L, layers, seed).apply_to_tableau(
                StabilizerTableau.zero_state(L)
            )
            psi = statevector_from_tableau(t)
            rng = np.random.default_rng(seed)
            for _ in range(4):
                a = int(rng.integers(0, L))
                b = int(rng.integers(a, L))
                iv = SupportInterval(a, b)
                assert abs(
                    stabilizer_entropy(t, iv) - psi.entropy_of_interval(iv)
                ) < 1e-10


class TestIntegerLattice:
    def test_neel(self):
        t = StabilizerTableau.from_generators(NEEL_GENS)
        lat = t.integer_info_lattice()
        np.testing.assert_allclose(lat.rows[0], np.ones(4), atol=0)
        for scale in range(1, 4):
            np.testing.assert_allclose(lat.rows[scale], 0.0, atol=0)

    def test_ghz(self):
        lat = ghz_tableau().integer_info_lattice()
        np.testing.assert_allclose(lat.rows[0], 0.0, atol=0)
        np.testing.assert_allclose(lat.rows[1], np.ones(3), atol=0)
        np.testing.assert_allclose(lat.rows[2], 0.0, atol=0)
        np.testing.assert_allclose(lat.rows[3], [1.0], atol=0)

    def test_bell(self):
        lat = StabilizerTableau.from_generators(BELL_GENS).integer_info_lattice()
        np.testing.assert_allclose(lat.rows[0], [1, 0, 0, 1], atol=0)
        np.testing.assert_allclose(lat.rows[1], [0, 2, 0], atol=0)
        np.testing.assert_allclose(lat.rows[2], 0.0, atol=0)
        np.testing.assert_allclose(lat.rows[3], 0.0, atol=0)

    def test_total_is_chain_length(self):
        for (L, layers, seed) in ensemble_specs(8):
            t = random_clifford_circuit(L, layers, seed).apply_to_tableau(
                StabilizerTableau.zero_state(L)
            )
            assert t.integer_info_lattice().total() == L


class TestMLGS:
    def test_neel_exact(self):
        entries = StabilizerTableau.from_generators(NEEL_GENS).maximally_local_generating_set()
        got = [(e.generator.label(), e.center, e.scale) for e in entries]
        assert got == [
            ("ZIII", 0.0, 0),
            ("-IZII", 1.0, 0),
            ("IIZI", 2.0, 0),
            ("-IIIZ", 3.0, 0),
        ]

    def test_ghz_structure(self):
        entries = ghz_tableau().maximally_local_generating_set()
        sites = Counter((e.center, e.scale) for e in entries)
        assert sites == Counter({(0.5, 1): 1, (1.5, 1): 1, (2.5, 1): 1, (1.5, 3): 1})
        bonds = sorted(
            e.generator.label().lstrip("+-i") for e in entries if e.scale == 1
        )
        assert bonds == ["IIZZ", "IZZI", "ZZII"]

    def test_bell_structure(self):
        entries = StabilizerTableau.from_generators(BELL_GENS).maximally_local_generating_set()
        sites = Counter((e.center, e.scale) for e in entries)
        assert sites == Counter({(0.0, 0): 1, (3.0, 0): 1, (1.5, 1): 2})
        center = sorted(
            e.generator.label().lstrip("+-") for e in entries if e.scale == 1
        )
        assert set(center) <= {"IXXI", "IYYI", "IZZI"}
        edge = {e.generator.label() for e in entries if e.scale == 0}
        assert edge == {"ZIII", "-IIIZ"}

    def test_multiset_matches_integer_lattice(self):
        for (L, layers, seed) in ensemble_specs(16):
            t = random_clifford_circuit(L, layers, seed).apply_to_tableau(
                StabilizerTableau.zero_state(L)
            )
            lat = t.integer_info_lattice()
            counts = Counter(
                (e.center, e.scale) for e in t.maximally_local_generating_set()
            )
            for n, scale, v in lat.sites():
                assert counts.get((n, scale), 0) == round(v)

    def test_restrictions_reduce_only_the_interval(self, monkeypatch):
        # a deterministic complexity guard: every reduction the MLGS makes sees
        # at most b - a + 1 rows and exactly the interval's 2 (b - a + 1) columns
        t = random_clifford_circuit(64, 8, 64).apply_to_tableau(StabilizerTableau.zero_state(64))
        restrict, reduce = StabilizerTableau.restrict_subgroup, _kernels.reduce_pauli_rows
        current, calls = [], []

        def traced_restrict(self, interval):
            current.append(interval)
            try:
                return restrict(self, interval)
            finally:
                current.pop()

        def traced_reduce(xs, zs, ph, cols):
            calls.append((current[-1], len(xs), len(cols)))
            return reduce(xs, zs, ph, cols)

        monkeypatch.setattr(StabilizerTableau, "restrict_subgroup", traced_restrict)
        monkeypatch.setattr(_kernels, "reduce_pauli_rows", traced_reduce)
        assert len(t.maximally_local_generating_set()) == 64
        assert calls
        for interval, rows, cols in calls:
            assert rows <= interval.num_sites and cols == 2 * interval.num_sites

    def test_thousand_sites(self):
        t = random_clifford_circuit(1000, 4, 1000).apply_to_tableau(
            StabilizerTableau.zero_state(1000)
        )
        assert t.integer_info_lattice().total() == 1000
        assert len(t.maximally_local_generating_set()) == 1000

    def test_entries_are_group_members_and_independent(self):
        t = random_clifford_circuit(8, 11, 5).apply_to_tableau(
            StabilizerTableau.zero_state(8)
        )
        entries = t.maximally_local_generating_set()
        assert len(entries) == 8
        _, rank = row_reduce([e.generator for e in entries])
        assert rank == 8
        for e in entries:
            assert span([*t.generators, e.generator]) == span(t.generators)
            left, right = support_ends(e.generator)
            assert right - left == e.scale and (left + right) / 2 == e.center


class TestValidation:
    def test_anticommuting_generators_rejected(self):
        with pytest.raises(TableauConsistencyError):
            StabilizerTableau.from_generators([P("XI"), P("ZI")])

    def test_dependent_generators_rejected(self):
        with pytest.raises(TableauConsistencyError):
            StabilizerTableau.from_generators([P("ZI"), P("-ZI")])

    def test_wrong_count_rejected(self):
        with pytest.raises(TableauConsistencyError):
            StabilizerTableau.from_generators([P("ZII"), P("IZI")])

    def test_non_hermitian_rejected(self):
        with pytest.raises(TableauConsistencyError):
            StabilizerTableau.from_generators([P("+iZI"), P("IZ")])


class TestStatevectorBridge:
    def test_zero_state(self):
        psi = statevector_from_tableau(StabilizerTableau.zero_state(4))
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_allclose(psi.amps, expected, atol=1e-12)

    def test_ghz(self):
        psi = statevector_from_tableau(ghz_tableau())
        expected = np.zeros(16)
        expected[0] = expected[15] = 1 / np.sqrt(2)
        overlap = abs(np.vdot(expected, psi.amps))
        assert abs(overlap - 1.0) < 1e-12

    def test_neel(self):
        psi = statevector_from_tableau(StabilizerTableau.from_generators(NEEL_GENS))
        expected = np.zeros(16)
        expected[0b0101] = 1.0
        np.testing.assert_allclose(psi.amps, expected, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(MemoryCapError):
            statevector_from_tableau(StabilizerTableau.zero_state(24))

    @pytest.mark.parametrize(
        "name,length",
        [("neel", L) for L in range(1, 21)] + [("ghz", L) for L in range(2, 21)] + [("bell", 4)],
    )
    def test_named_references_bit_identical_to_oracle(self, name, length):
        psi = statevector_from_tableau(reference_tableau(name, length))
        expected = reference_state(name, length).amps
        assert psi.amps.dtype == expected.dtype and psi.amps.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("length", range(2, 13))
    def test_random_brickwork_amplitudes_are_exact(self, length):
        for layers, seed in [(1, 0), (3, 1), (length, 2), (length, 3)]:
            t = random_clifford_circuit(length, layers, seed).apply_to_tableau(
                StabilizerTableau.zero_state(length)
            )
            v = statevector_from_tableau(t).amps
            support = np.flatnonzero(v)
            size = support.size
            assert size & (size - 1) == 0  # a power of two
            c = 1.0 / np.sqrt(size)
            units = np.stack([v.real[support], v.imag[support]]) / c
            assert np.array_equal(np.abs(units).sum(axis=0), np.ones(size))
            assert set(units.ravel().tolist()) <= {-1.0, 0.0, 1.0}
            # zeros are +0.0; apply_pauli's complex sign factor can leave -0.0,
            # which adding +0.0 folds back
            planes = np.stack([v.real, v.imag])
            assert not np.signbit(planes[planes == 0]).any()
            for g in t.generators:
                assert (apply_pauli(v, length, g) + 0.0).tobytes() == v.tobytes()

    @pytest.mark.parametrize(
        "rows", [["ZI", "II"], ["ZII", "ZII", "III"], ["ZI", "-ZI"]], ids=str
    )
    def test_dependent_rows_rejected(self, rows):
        gens = [P(label) for label in rows]
        t = StabilizerTableau(
            gens[0].length, [g.x for g in gens], [g.z for g in gens], [g.phase_exp for g in gens]
        )
        with pytest.raises(TableauConsistencyError, match="no single stabilized state"):
            statevector_from_tableau(t)


class TestRandomCircuit:
    def test_zero_layers_identity(self):
        t0 = StabilizerTableau.zero_state(6)
        circ = random_clifford_circuit(6, 0, 1)
        assert circ.apply_to_tableau(t0) == t0

    def test_deterministic(self):
        a = random_clifford_circuit(8, 12, 42)
        b = random_clifford_circuit(8, 12, 42)
        assert a == b
        t = StabilizerTableau.zero_state(8)
        assert a.apply_to_tableau(t) == b.apply_to_tableau(t)
        c = random_clifford_circuit(8, 12, 43)
        assert c != a

    def test_brickwork_pattern(self):
        assert brickwork_bonds(6, 0) == [(0, 1), (2, 3), (4, 5)]
        assert brickwork_bonds(6, 1) == [(1, 2), (3, 4)]
        circ = random_clifford_circuit(6, 2, 0)
        assert [bond for bond, _ in circ.assignments[0]] == [(0, 1), (2, 3), (4, 5)]
        assert [bond for bond, _ in circ.assignments[1]] == [(1, 2), (3, 4)]

    def test_scrambled_ghz_example(self):
        # two brickwork layers on the ten-qubit cat state: integer lattice,
        # total 10, and (for this seed) one surviving large-scale bit
        from infolattice.lattice import summarize

        t = ghz_tableau(10)
        t2 = random_clifford_circuit(10, 2, 0).apply_to_tableau(t)
        lat = t2.integer_info_lattice()
        assert lat.total() == 10
        dev, _ = lat.max_integer_deviation()
        assert dev == 0.0
        assert summarize(lat).gamma == 1.0

    def test_dense_and_tableau_agree(self):
        circ = random_clifford_circuit(6, 3, 9)
        t = circ.apply_to_tableau(StabilizerTableau.zero_state(6))
        psi_t = statevector_from_tableau(t)
        from infolattice.states import PureState

        psi_d = apply_brickwork_dense(circ, PureState.from_label("0" * 6))
        assert abs(abs(np.vdot(psi_d.amps, psi_t.amps)) - 1.0) < 1e-10
