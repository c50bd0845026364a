"""Shared helpers: dense and elementary-gate oracles for brickwork circuits,
a dense oracle for Pauli strings, the dense named references, the site reflection, Pauli products, spans
and supports, gauge entropies, the Clifford word tables, the canonical
random-circuit ensemble, crossings of sweep curves, and the qutrit shift."""

from __future__ import annotations

import numpy as np
import pytest

from infolattice import _kernels, cliffords
from infolattice.errors import DimensionMismatchError
from infolattice.lattice import InfoLattice
from infolattice.models import cat_state
from infolattice.pauli import PauliString, SupportInterval
from infolattice.states import PureState
from infolattice.tableau import CliffordCircuit, StabilizerTableau

I2 = np.eye(2, dtype=complex)
PAULI_1Q = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# the qutrit shift X|k> = |k+1 mod 3>, as a dense oracle of the Potts field
SHIFT_X = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)


def dense_pauli(p: PauliString) -> np.ndarray:
    """Independent dense matrix of a signed Pauli string (site 0 = MSB)."""
    m = np.array([[1.0 + 0j]])
    for j in range(p.length):
        m = np.kron(m, PAULI_1Q["IXZY"[(p.x >> j & 1) + 2 * (p.z >> j & 1)]])
    return (1j ** p.phase_exp) * m


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product ``a * b`` with exact phase."""
    if a.length != b.length:
        raise DimensionMismatchError(f"Pauli strings act on {a.length} vs {b.length} sites")
    delta = _kernels.pauli_mul_phase(a.x, a.z, b.x, b.z)
    return PauliString(a.length, a.x ^ b.x, a.z ^ b.z, (a.phase_exp + b.phase_exp + delta) % 4)


def default_column_order(length: int) -> list[int]:
    """Site 0 X, site 0 Z, site 1 X, ... (column ``2*site + (0 for X, 1 for Z)``)."""
    return list(range(2 * length))


def row_reduce(generators) -> tuple[list[PauliString], int]:
    """Independent generating set of the (phaseless) span, eliminated in the
    fixed column order of ``default_column_order`` so that the basis is
    canonical for the span; phases ride along.  Returns ``(basis, rank)``."""
    gens = list(generators)
    if not gens:
        return [], 0
    length = gens[0].length
    xs, zs, ph = [g.x for g in gens], [g.z for g in gens], [g.phase_exp for g in gens]
    rank, _ = _kernels.reduce_pauli_rows(xs, zs, ph, default_column_order(length))
    return [PauliString(length, xs[k], zs[k], ph[k]) for k in range(rank)], rank


def span(strings) -> list[tuple[int, int]]:
    """Canonical phaseless basis of the group the strings generate."""
    return [(g.x, g.z) for g in row_reduce(list(strings))[0]]


def support_ends(p: PauliString) -> tuple[int, int] | None:
    """First and last nonidentity site of a string; None for the identity."""
    occ = p.x | p.z
    return ((occ & -occ).bit_length() - 1, occ.bit_length() - 1) if occ else None


def stabilizer_entropy(t: StabilizerTableau, interval: SupportInterval) -> float:
    """Subsystem entropy in bits: interval size minus the number of clipped
    gauge generators inside it (the interval subgroup's rank)."""
    a, b = interval.left, interval.right
    rank = sum(1 for left, right, *_ in t._clipped_gauge() if a <= left and right <= b)
    return float(interval.num_sites - rank)


def clifford_words(num_qubits: int) -> tuple[tuple, ...]:
    """Gate word of every element of the 1- or 2-qubit Clifford group, by index."""
    size = cliffords.group_size(num_qubits)
    return tuple(cliffords.clifford_word(num_qubits, k) for k in range(size))


def apply_brickwork_dense(circuit: CliffordCircuit, state: PureState) -> PureState:
    """Dense oracle for ``apply_to_tableau``: each two-qubit Clifford as a 4x4 unitary."""
    for layer in circuit.assignments:
        for (a, b), idx in layer:
            state = state.apply_unitary(cliffords.clifford_matrix(2, idx), a, b)
    return state


def elementary_gates(circuit: CliffordCircuit) -> list[tuple]:
    """Oracle for ``apply_to_tableau``: each two-qubit Clifford expanded into
    its enumeration word of elementary gates."""
    seq = []
    for layer in circuit.assignments:
        for (a, b), idx in layer:
            bond = {(0,): (a,), (1,): (b,), (0, 1): (a, b), (1, 0): (b, a)}
            seq += [(name, bond[qs]) for name, qs in cliffords.clifford_word(2, idx)]
    return seq


def mirror_state(state: PureState) -> PureState:
    """Site-reflected state (site j -> L-1-j)."""
    return PureState(state.tensor().T.ravel(), state.dims[::-1])


def mirror_lattice(lat: InfoLattice) -> InfoLattice:
    """Lattice of the site-reflected chain: every row read backwards."""
    return InfoLattice(lat.log2_dims[::-1], tuple(row[::-1].copy() for row in lat.rows))


def assert_lattices_close(a: InfoLattice, b: InfoLattice, atol: float) -> None:
    assert a.num_sites == b.num_sites
    for row_a, row_b in zip(a.rows, b.rows):
        np.testing.assert_allclose(row_a, row_b, atol=atol, rtol=0.0)


def reference_state(name: str, length: int) -> PureState:
    """Dense oracle of ``models.reference_tableau``: ``neel``, ``bell`` (L=4), ``ghz``."""
    if name == "neel":
        return PureState.from_label("".join(str(j % 2) for j in range(length)))
    if name == "bell":
        amps = np.zeros(16, dtype=complex)
        amps[0b0101] = amps[0b0011] = 1.0 / np.sqrt(2.0)
        return PureState(amps, (2, 2, 2, 2))
    assert name == "ghz"
    return cat_state(2, length)


def edge_bell_state(length: int) -> PureState:
    """Bell pair between the chain ends, product |0> elsewhere."""
    amps = np.zeros(2**length, dtype=complex)
    amps[0] = amps[(1 << (length - 1)) | 1] = 1 / np.sqrt(2)
    return PureState(amps, (2,) * length)


def random_pauli(rng: np.random.Generator, length: int, hermitian: bool = False) -> PauliString:
    x = int(rng.integers(0, 1 << length))
    z = int(rng.integers(0, 1 << length))
    phase = int(rng.integers(0, 2)) * 2 if hermitian else int(rng.integers(0, 4))
    return PauliString(length, x, z, phase)


def ensemble_specs(count: int = 200) -> list[tuple[int, int, int]]:
    """Canonical (L, layers, seed) triples for the random Clifford ensemble."""
    specs = []
    for i in range(count):
        L = (6, 8, 10, 12)[i % 4]
        layers = (i * 7) % 21
        specs.append((L, layers, 1000 + i))
    return specs


def crossing_brackets(rows, length_a: int, length_b: int) -> list[tuple[float, float]]:
    """Field intervals where the gamma curves of two sizes in a Potts sweep
    cross: ``(h_low, h_high)`` pairs from sign changes of the difference on
    the common grid."""
    curve = {}
    for r in rows:
        if r.gamma is not None:
            curve.setdefault(r.length, {})[r.field] = r.gamma
    if length_a not in curve or length_b not in curve:
        return []
    common = sorted(set(curve[length_a]) & set(curve[length_b]))
    diffs = [curve[length_a][h] - curve[length_b][h] for h in common]
    brackets = []
    for k in range(len(common) - 1):
        if diffs[k] == 0.0:
            brackets.append((common[k], common[k]))
        elif diffs[k] * diffs[k + 1] < 0:
            brackets.append((common[k], common[k + 1]))
    return brackets


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
