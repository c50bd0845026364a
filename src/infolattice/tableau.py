"""Stabilizer tableau engine: Clifford evolution, interval subgroups, the
exact integer information lattice, and maximally local generating sets.

A tableau holds L independent commuting Hermitian generators; |0...0> is
generated by {Z_0, ..., Z_{L-1}}.  Interval ranks come from the clipped
gauge (Nahum, Ruhman, Vijay & Haah, PRX 7, 031016): a generating set in
which at most two generators start, and at most two end, on any site, with
independent single-site operators there.  In that gauge the subgroup
supported on an interval is generated by the generators that lie inside it,
so one reduction per tableau yields every interval rank, and the entropy
|A| - rank(S_A) of any interval, for any chain length.  Explicit subgroup
generators of one interval (``restrict_subgroup``) eliminate exterior
symplectic columns first, so the rows whose pivots land in interior columns
generate exactly the subgroup supported on the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels, cliffords, gates
from .errors import (
    DimensionMismatchError,
    MemoryCapError,
    NonCliffordGateError,
    TableauConsistencyError,
)
from .lattice import InfoLattice, lattice_from_interval_info
from .pauli import PauliString, SupportInterval, default_column_order
from .states import PureState, apply_pauli


class StabilizerTableau:
    """L signed Pauli generators of a stabilizer group on L qubits."""

    __slots__ = ("length", "_xs", "_zs", "_ph")

    def __init__(self, length: int, xs: list[int], zs: list[int], ph: list[int]):
        self.length = length
        self._xs = xs
        self._zs = zs
        self._ph = ph

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero_state(cls, length: int) -> "StabilizerTableau":
        """Tableau of |0...0>: generators {Z_0, ..., Z_{L-1}}."""
        if length < 1:
            raise ValueError("need at least one qubit")
        return cls(length, [0] * length, [1 << j for j in range(length)], [0] * length)

    @classmethod
    def from_generators(
        cls, generators: Sequence[PauliString], validate: bool = True
    ) -> "StabilizerTableau":
        gens = list(generators)
        if not gens:
            raise ValueError("empty generator list")
        length = gens[0].length
        if validate:
            if len(gens) != length:
                raise TableauConsistencyError(
                    f"{len(gens)} generators for {length} qubits (need exactly L)"
                )
            for g in gens:
                if g.length != length:
                    raise DimensionMismatchError("generators of mixed length")
                if not g.is_hermitian:
                    raise TableauConsistencyError(f"non-Hermitian generator {g}")
            for i, a in enumerate(gens):
                for b in gens[i + 1 :]:
                    if not a.commutes_with(b):
                        raise TableauConsistencyError(
                            f"generators {a} and {b} anticommute"
                        )
            xs = [g.x for g in gens]
            zs = [g.z for g in gens]
            ph = [g.phase_exp for g in gens]
            rank, _ = _kernels.reduce_pauli_rows(xs, zs, ph, default_column_order(length))
            if rank != length:
                raise TableauConsistencyError(
                    f"generators span rank {rank} < {length}"
                )
        return cls(
            length, [g.x for g in gens], [g.z for g in gens], [g.phase_exp for g in gens]
        )

    # -- views ---------------------------------------------------------------

    @property
    def generators(self) -> tuple[PauliString, ...]:
        return tuple(
            PauliString(self.length, x, z, p)
            for x, z, p in zip(self._xs, self._zs, self._ph)
        )

    def labels(self) -> list[str]:
        return [g.label() for g in self.generators]

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau(
            self.length, list(self._xs), list(self._zs), list(self._ph)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerTableau):
            return NotImplemented
        return (
            self.length == other.length
            and self._xs == other._xs
            and self._zs == other._zs
            and self._ph == other._ph
        )

    def contains(self, p: PauliString) -> bool:
        """Phaseless membership of a string in the stabilizer group's span."""
        if p.length != self.length:
            raise DimensionMismatchError("string length does not match tableau")
        xs = list(self._xs) + [p.x]
        zs = list(self._zs) + [p.z]
        ph = list(self._ph) + [p.phase_exp]
        rank, _ = _kernels.reduce_pauli_rows(xs, zs, ph, default_column_order(self.length))
        return rank == self.length

    # -- Clifford evolution ---------------------------------------------------

    def _check_gate(self, name: str, qubits: tuple[int, ...]) -> None:
        if name not in gates.CLIFFORD_GATES:
            raise NonCliffordGateError(f"gate {name!r} not supported on tableaux")
        if len(qubits) != gates.CLIFFORD_GATES[name]:
            raise ValueError(f"gate {name} expects {gates.CLIFFORD_GATES[name]} qubits")
        for q in qubits:
            if not 0 <= q < self.length:
                raise IndexError(f"qubit {q} out of range (L={self.length})")
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise ValueError("two-qubit gate needs distinct qubits")

    def apply_clifford(self, name: str, *qubits: int) -> "StabilizerTableau":
        """New tableau with every generator conjugated by the gate."""
        self._check_gate(name, qubits)
        out = self.copy()
        gates.apply_gate_rows(out._xs, out._zs, out._ph, name, qubits)
        return out

    def apply_circuit(self, circuit: Iterable[gates.Gate]) -> "StabilizerTableau":
        out = self.copy()
        for name, qubits in circuit:
            out._check_gate(name, tuple(qubits))
            gates.apply_gate_rows(out._xs, out._zs, out._ph, name, tuple(qubits))
        return out

    # -- interval subgroups -----------------------------------------------------

    def _check_interval(self, interval: SupportInterval) -> None:
        if interval.right >= self.length:
            raise IndexError(f"interval {interval} exceeds L={self.length}")

    def restrict_subgroup(
        self, interval: SupportInterval
    ) -> tuple[list[PauliString], int]:
        """Generators of the stabilizer subgroup supported inside the interval.

        Returns ``(generators, rank)``; the generators are row-reduced and in
        deterministic order.
        """
        self._check_interval(interval)
        L = self.length
        exterior = [s for s in range(L) if not interval.contains(s)]
        cols = [2 * s + w for s in exterior for w in (0, 1)]
        cols += [2 * s + w for s in interval.sites() for w in (0, 1)]
        xs = list(self._xs)
        zs = list(self._zs)
        ph = list(self._ph)
        rank, pivots = _kernels.reduce_pauli_rows(xs, zs, ph, cols)
        n_ext_cols = 2 * len(exterior)
        inside = sum(1 for p in pivots if p >= n_ext_cols)
        gens = [
            PauliString(L, xs[k], zs[k], ph[k]) for k in range(rank - inside, rank)
        ]
        return gens, inside

    def _clipped_endpoints(self) -> list[tuple[int, int]]:
        """``(left, right)`` support endpoints of a clipped-gauge generating set.

        Works on phaseless copies of the rows.  Zero rows are dropped, so a
        dependent set (``from_generators(validate=False)``) yields one pair per
        independent generator of its span.
        """
        xs = list(self._xs)
        zs = list(self._zs)
        # step 1: echelon form on left endpoints, columns x0, z0, x1, z1, ...
        rank = 0
        for c in default_column_order(self.length):
            rows = zs if (c & 1) else xs
            bit = 1 << (c >> 1)
            pivot = next((r for r in range(rank, len(rows)) if rows[r] & bit), None)
            if pivot is None:
                continue
            xs[rank], xs[pivot] = xs[pivot], xs[rank]
            zs[rank], zs[pivot] = zs[pivot], zs[rank]
            for r in range(rank + 1, len(rows)):
                if rows[r] & bit:
                    xs[r] ^= xs[rank]
                    zs[r] ^= zs[rank]
            rank += 1
        del xs[rank:], zs[rank:]
        left = [((x | z) & -(x | z)).bit_length() - 1 for x, z in zip(xs, zs)]
        # step 2: clear right endpoints, sites from right to left.  A row is
        # only added into rows whose left endpoint is not larger than its own,
        # so left endpoints never move.
        for site in range(self.length - 1, -1, -1):
            bit = 1 << site
            ending = [k for k in range(rank) if (xs[k] | zs[k]).bit_length() == site + 1]
            for rows in (xs, zs):
                hits = [k for k in ending if rows[k] & bit]
                if not hits:
                    continue
                p = max(hits, key=left.__getitem__)
                for k in hits:
                    if k != p:
                        xs[k] ^= xs[p]
                        zs[k] ^= zs[p]
                ending.remove(p)
        return [(left[k], (xs[k] | zs[k]).bit_length() - 1) for k in range(rank)]

    def stabilizer_entropy(self, interval: SupportInterval) -> float:
        """Subsystem entropy in bits: interval size minus subgroup rank."""
        self._check_interval(interval)
        rank = sum(
            1
            for a, b in self._clipped_endpoints()
            if interval.contains(a) and interval.contains(b)
        )
        return float(interval.num_sites - rank)

    def interval_rank_table(self) -> list[list[int]]:
        """Subgroup ranks of all intervals, indexed ``[scale][left]``."""
        L = self.length
        counts = np.zeros((L, L), dtype=np.int64)
        for a, b in self._clipped_endpoints():
            counts[a, b] += 1
        # inside[a, b]: generators with a <= left and right <= b
        inside = counts[::-1].cumsum(axis=0)[::-1].cumsum(axis=1)
        return [np.diagonal(inside, scale).tolist() for scale in range(L)]

    def integer_info_lattice(self) -> InfoLattice:
        """Exact integer lattice from subgroup ranks (rank-difference form)."""
        ranks = self.interval_rank_table()
        return lattice_from_interval_info((1.0,) * self.length, ranks)

    # -- maximally local generating set -------------------------------------------

    def maximally_local_generating_set(self) -> list["MLGSEntry"]:
        """Scale-by-scale greedy independent generating set.

        Scales run from 0 upward; at each scale the intervals are scanned left
        to right and the interval subgroup's row-reduced generators are
        admitted while independent of everything admitted so far.  Each entry
        records the lattice site at which it was admitted.

        Only intervals with a nonzero integer lattice site are visited.  When
        [a, b] is reached, the admitted span already contains the subgroups of
        [a+1, b] and [a, b-1], so at most i(n, l) generators are admitted
        there; both the admitted counts and the lattice sum to L, so an
        interval with i = 0 admits nothing.
        """
        L = self.length
        entries: list[MLGSEntry] = []
        acc_x: list[int] = []
        acc_z: list[int] = []
        acc_piv: list[int] = []
        col_order = default_column_order(L)

        def admit(g: PauliString) -> bool:
            rx, rz = _kernels.reduce_vector_against(acc_x, acc_z, acc_piv, g.x, g.z)
            if rx == 0 and rz == 0:
                return False
            pivot_col = next(
                c
                for c in col_order
                if ((rz if (c & 1) else rx) >> (c >> 1)) & 1
            )
            bit = 1 << (pivot_col >> 1)
            for k in range(len(acc_x)):
                row_bits = acc_z[k] if (pivot_col & 1) else acc_x[k]
                if row_bits & bit:
                    acc_x[k] ^= rx
                    acc_z[k] ^= rz
            acc_x.append(rx)
            acc_z.append(rz)
            acc_piv.append(pivot_col)
            return True

        for scale, row in enumerate(self.integer_info_lattice().rows):
            for left in np.flatnonzero(row).tolist():
                gens, _ = self.restrict_subgroup(SupportInterval(left, left + scale))
                for g in gens:
                    if admit(g):
                        entries.append(MLGSEntry(g, left + scale / 2, scale))
        if len(entries) != L:
            raise TableauConsistencyError(
                f"maximally local set has {len(entries)} < {L} generators"
            )
        return entries


@dataclass(frozen=True)
class MLGSEntry:
    """A generator together with the lattice site at which it was admitted."""

    generator: PauliString
    center: float
    scale: int


def statevector_from_tableau(
    t: StabilizerTableau, max_sites: int = 20
) -> PureState:
    """Dense unit vector stabilized by all generators (up to global phase).

    Projects a fixed pseudorandom vector with (1+g)/2 for every generator and
    verifies g|psi> = |psi> to 1e-10.  Deterministic: the seed of the probe
    vector is fixed, and the global phase is fixed by making the largest
    amplitude real positive.
    """
    L = t.length
    if L > max_sites:
        raise MemoryCapError(f"dense bridge refused for L={L} > {max_sites}")
    dim = 1 << L
    gens = t.generators
    for attempt in range(8):
        rng = np.random.Generator(np.random.Philox(key=0x1F0_1A77, counter=attempt))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for g in gens:
            v = 0.5 * (v + apply_pauli(v, L, g))
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            v = v / norm
            k = int(np.argmax(np.abs(v)))
            v = v * (abs(v[k]) / v[k])
            for g in gens:
                if float(np.max(np.abs(apply_pauli(v, L, g) - v))) > 1e-10:
                    raise TableauConsistencyError(
                        f"projected vector not stabilized by {g}"
                    )
            return PureState(v, (2,) * L)
    raise TableauConsistencyError("projector sweep annihilated every probe vector")


@dataclass(frozen=True)
class CliffordCircuit:
    """Seeded brickwork circuit of uniform two-qubit Clifford gates.

    Layer k couples (0,1),(2,3),... for even k and (1,2),(3,4),... for odd k
    (open boundaries).  ``assignments[k]`` holds ``((a, b), index)`` pairs
    with ``index`` enumerating the two-qubit Clifford group.
    """

    length: int
    seed: int
    assignments: tuple[tuple[tuple[tuple[int, int], int], ...], ...]

    @property
    def num_layers(self) -> int:
        return len(self.assignments)

    def gate_sequence(self) -> list[gates.Gate]:
        """Elementary-gate expansion of the whole circuit."""
        seq: list[gates.Gate] = []
        for layer in self.assignments:
            for (a, b), idx in layer:
                mapping = {0: a, 1: b}
                for name, qubits in cliffords.clifford_word(2, idx):
                    seq.append((name, tuple(mapping[q] for q in qubits)))
        return seq

    def apply_to_tableau(self, t: StabilizerTableau) -> StabilizerTableau:
        if t.length != self.length:
            raise DimensionMismatchError("circuit and tableau lengths differ")
        return t.apply_circuit(self.gate_sequence())

    def apply_to_state(self, state: PureState) -> PureState:
        if state.num_sites != self.length:
            raise DimensionMismatchError("circuit and state lengths differ")
        out = state
        for layer in self.assignments:
            for (a, b), idx in layer:
                if b != a + 1:
                    raise ValueError("dense path expects adjacent bonds")
                out = out.apply_unitary(cliffords.clifford_matrix(2, idx), a)
        return out

    def __call__(self, t: StabilizerTableau) -> StabilizerTableau:
        return self.apply_to_tableau(t)


def brickwork_bonds(length: int, layer: int) -> list[tuple[int, int]]:
    start = 0 if layer % 2 == 0 else 1
    return [(a, a + 1) for a in range(start, length - 1, 2)]


def random_clifford_circuit(length: int, layers: int, seed: int) -> CliffordCircuit:
    """Uniformly sampled brickwork Clifford circuit, deterministic under seed."""
    if length < 2:
        raise ValueError("brickwork circuits need at least two qubits")
    if layers < 0:
        raise ValueError("negative layer count")
    rng = np.random.Generator(np.random.Philox(seed))
    assignments = []
    for k in range(layers):
        bonds = brickwork_bonds(length, k)
        idxs = cliffords.sample_indices(rng, 2, len(bonds))
        assignments.append(tuple(zip(bonds, idxs)))
    return CliffordCircuit(length, seed, tuple(assignments))
