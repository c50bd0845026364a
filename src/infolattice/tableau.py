"""Stabilizer tableau engine: Clifford evolution, interval subgroups, the
exact integer information lattice, and maximally local generating sets.

A tableau holds L independent commuting Hermitian generators; |0...0> is
generated by {Z_0, ..., Z_{L-1}}.  Tableaux are never mutated: evolution
returns a new one and runs on per-site X/Z bit planes of the rows (Aaronson
& Gottesman, quant-ph/0406196), a two-qubit Clifford in one step.  All else
comes from the clipped gauge (Nahum, Ruhman, Vijay & Haah, PRX 7, 031016),
cached per tableau: a signed generating set in which at most two generators
start, and at most two end, on any site, with independent single-site
operators there.  The subgroup supported on an interval is generated by the
gauge generators inside it, so interval entropies |A| - rank(S_A) and the
integer lattice follow by counting, and ``restrict_subgroup`` reduces only
those generators, over the interval's columns.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels, cliffords, gates
from .errors import DimensionMismatchError, MemoryCapError, TableauConsistencyError
from .lattice import InfoLattice
from .pauli import PauliString, SupportInterval, commutes
from .states import PureState, apply_pauli


class StabilizerTableau:
    """L signed Pauli generators of a stabilizer group on L qubits."""

    __slots__ = ("length", "_xs", "_zs", "_ph", "_gauge")

    def __init__(self, length: int, xs: list[int], zs: list[int], ph: list[int]):
        self.length = length
        # copied, because the cached gauge relies on tableaux never changing
        self._xs, self._zs, self._ph = list(xs), list(zs), list(ph)
        self._gauge: list[tuple[int, ...]] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero_state(cls, length: int) -> "StabilizerTableau":
        """Tableau of |0...0>: generators {Z_0, ..., Z_{L-1}}."""
        if length < 1:
            raise ValueError("need at least one qubit")
        return cls(length, [0] * length, [1 << j for j in range(length)], [0] * length)

    @classmethod
    def from_generators(cls, generators: Sequence[PauliString]) -> "StabilizerTableau":
        """Tableau of L independent, commuting, Hermitian generators; the rank
        check builds the clipped gauge that later queries reuse."""
        gens = list(generators)
        if not gens:
            raise ValueError("empty generator list")
        length = gens[0].length
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
                if not commutes(a, b):
                    raise TableauConsistencyError(
                        f"generators {a} and {b} anticommute"
                    )
        t = cls(length, [g.x for g in gens], [g.z for g in gens], [g.phase_exp for g in gens])
        rank = len(t._clipped_gauge())
        if rank != length:
            raise TableauConsistencyError(
                f"generators span rank {rank} < {length}"
            )
        return t

    # -- views ---------------------------------------------------------------

    @property
    def generators(self) -> tuple[PauliString, ...]:
        return tuple(
            PauliString(self.length, x, z, p)
            for x, z, p in zip(self._xs, self._zs, self._ph)
        )

    def labels(self) -> list[str]:
        return [g.label() for g in self.generators]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerTableau):
            return NotImplemented
        return (
            self.length == other.length
            and self._xs == other._xs
            and self._zs == other._zs
            and self._ph == other._ph
        )

    # -- Clifford evolution ---------------------------------------------------

    def apply_circuit(self, circuit: Iterable[gates.Gate]) -> "StabilizerTableau":
        """New tableau with every generator conjugated by each gate in turn.

        The rows are transposed once into per-site bit planes, so that a gate,
        also ``(k, (a, b))`` (element k of the two-qubit Clifford group on sites
        a, b), costs a few big-int operations instead of one update per row.
        Each distinct gate is checked once, before the first one is applied;
        a bool index is rejected even beside an equal int.
        """
        circuit = [(name, tuple(qubits)) for name, qubits in circuit]
        # True == 1 hashes alike, so the dedup would merge a bool index into an
        # equal int; any bool is checked (and rejected) in place of the rest
        bools = [gate for gate in circuit if gate[0] is True or gate[0] is False]
        gates.check_gates(bools or dict.fromkeys(circuit), self.length, gates.CLIFFORD_GATES)
        n = len(self._xs)
        xcols = _transpose(self._xs, self.length)
        zcols = _transpose(self._zs, self.length)
        odd, sign = _transpose(self._ph, 2)
        for name, qubits in circuit:
            if not isinstance(name, str):  # checked above: a two-qubit Clifford index
                pair_map = cliffords.pair_maps()[name]
                sign = gates.conjugate_pair(xcols, zcols, sign, pair_map, *qubits)
            else:
                sign = gates.conjugate_columns(xcols, zcols, sign, name, qubits)
        return StabilizerTableau(
            self.length, _transpose(xcols, n), _transpose(zcols, n), _transpose([odd, sign], n)
        )

    # -- interval subgroups -----------------------------------------------------

    def restrict_subgroup(
        self, interval: SupportInterval
    ) -> tuple[list[PauliString], int]:
        """Generators of the stabilizer subgroup supported inside the interval.

        Returns ``(generators, rank)``.  The generators are the fully reduced
        row echelon form of the subgroup in column order x_a, z_a, x_{a+1},
        ..., which is unique, and each carries the sign of its group element.
        The clipped-gauge generators inside the interval generate the
        subgroup, so only they are reduced, over the interval's columns.  If
        the span contains -I (possible for dependent constructor rows) signs are
        undefined; the rank and the Pauli letters still hold.
        """
        if interval.right >= self.length:
            raise IndexError(f"interval {interval} exceeds L={self.length}")
        gauge = self._clipped_gauge()
        a, b = interval.left, interval.right
        starting = gauge[bisect_left(gauge, (a,)) : bisect_left(gauge, (b + 1,))]
        rows = [r for r in starting if r[1] <= b]
        xs = [r[2] for r in rows]
        zs = [r[3] for r in rows]
        ph = [r[4] for r in rows]
        rank, _ = _kernels.reduce_pauli_rows(xs, zs, ph, list(range(2 * a, 2 * b + 2)))
        return [PauliString(self.length, xs[k], zs[k], ph[k]) for k in range(rank)], rank

    def _clipped_gauge(self) -> list[tuple[int, ...]]:
        """``(left, right, x, z, phase)`` of every clipped-gauge generator, sorted.

        Computed once per tableau by phase-exact row products.  Step 1 sweeps
        the sites left to right: of the rows starting at a site it keeps one
        with an X bit there and one with only a Z bit, and multiplies the
        others by these until they start further right.  Step 2 does the same
        for right endpoints, multiplying by the ending row with the largest
        left endpoint so that left endpoints never move.  Zero rows are
        dropped: a dependent set yields one generator per rank of its span.
        """
        if self._gauge is not None:
            return self._gauge
        xs, zs, ph = list(self._xs), list(self._zs), list(self._ph)

        def sweep(rows, sites, end, pick) -> dict[int, int]:
            # rows are bucketed by their endpoint; returns kept row -> site
            buckets: list[list[int]] = [[] for _ in range(self.length)]
            for k in rows:
                if xs[k] | zs[k]:
                    buckets[end(xs[k] | zs[k])].append(k)
            kept = {}
            for site in sites:
                bit = 1 << site
                pending = buckets[site]
                for plane in (xs, zs):
                    hits = [k for k in pending if plane[k] & bit]
                    if not hits:
                        continue
                    p = pick(hits)
                    kept[p] = site
                    pending.remove(p)
                    hits.remove(p)
                    for k in hits:
                        delta = _kernels.pauli_mul_phase(xs[k], zs[k], xs[p], zs[p])
                        ph[k] = (ph[k] + ph[p] + delta) % 4
                        xs[k] ^= xs[p]
                        zs[k] ^= zs[p]
                for k in pending:  # no longer touching the site
                    if xs[k] | zs[k]:
                        buckets[end(xs[k] | zs[k])].append(k)
            return kept

        L = self.length
        left = sweep(range(len(xs)), range(L), lambda o: (o & -o).bit_length() - 1, min)
        right = sweep(
            left,
            range(L - 1, -1, -1),
            lambda o: o.bit_length() - 1,
            lambda hits: max(hits, key=left.__getitem__),
        )
        self._gauge = sorted((left[k], right[k], xs[k], zs[k], ph[k]) for k in left)
        return self._gauge

    def integer_info_lattice(self) -> InfoLattice:
        """Exact integer lattice: the second difference of the interval ranks
        counts the gauge generators with support endpoints exactly [a, b]."""
        rows = [np.zeros(self.length - scale) for scale in range(self.length)]
        for a, b, *_ in self._clipped_gauge():
            rows[b - a][a] += 1
        return InfoLattice((1.0,) * self.length, tuple(rows))

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
        row_at: dict[int, int] = {}  # pivot column -> accumulated row

        def admit(g: PauliString, a: int, b: int) -> bool:
            # the accumulated rows are fully reduced, so only those with a
            # pivot column on g's sites [a, b] can cancel bits of g
            cols = [c for c in range(2 * a, 2 * b + 2) if c in row_at]
            rows = [row_at[c] for c in cols]
            rx, rz = _kernels.reduce_vector_against(
                [acc_x[k] for k in rows], [acc_z[k] for k in rows], cols, g.x, g.z
            )
            if rx == 0 and rz == 0:
                return False
            # pivot: the first set column in the order x0, z0, x1, z1, ...
            site = ((rx | rz) & -(rx | rz)).bit_length() - 1
            bit = 1 << site
            pivot_col = 2 * site + (0 if rx & bit else 1)
            plane = acc_z if pivot_col & 1 else acc_x
            for k in range(len(acc_x)):
                if plane[k] & bit:
                    acc_x[k] ^= rx
                    acc_z[k] ^= rz
            row_at[pivot_col] = len(acc_x)
            acc_x.append(rx)
            acc_z.append(rz)
            return True

        for scale, row in enumerate(self.integer_info_lattice().rows):
            for left in np.flatnonzero(row).tolist():
                gens, _ = self.restrict_subgroup(SupportInterval(left, left + scale))
                for g in gens:
                    if admit(g, left, left + scale):
                        entries.append(MLGSEntry(g, left + scale / 2, scale))
        if len(entries) != L:
            raise TableauConsistencyError(
                f"maximally local set has {len(entries)} < {L} generators"
            )
        return entries


def _transpose(words: list[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit r of output j (j < width) is bit j of ``words[r]``."""
    nbytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(w.to_bytes(nbytes, "little") for w in words), np.uint8)
    bits = np.unpackbits(packed.reshape(len(words), nbytes), axis=1, count=width, bitorder="little")
    planes = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(plane.tobytes(), "little") for plane in planes]


@dataclass(frozen=True)
class MLGSEntry:
    """A generator together with the lattice site at which it was admitted."""

    generator: PauliString
    center: float
    scale: int


# largest chain the dense bridge builds: 2^20 amplitudes, 16 MiB
MAX_DENSE_SITES = 20


def statevector_from_tableau(t: StabilizerTableau) -> PureState:
    """Dense unit vector stabilized by all generators, exact in every bit.

    Projects a fixed pseudorandom vector with (1+g)/2 for every generator.
    A stabilizer state's amplitudes are c * {0, +-1, +-i} with c = 2^(-k/2)
    (Dehaene & De Moor, PRA 68, 042318), so the result is snapped: the
    support is every amplitude above half the largest, the largest becomes c
    (which fixes the global phase) and every other one c times its nearest
    unit relative to it; zeros are +0.0.  The snapped vector is verified to
    satisfy g|psi> = |psi> to 1e-10.  Rows not of rank L (dependent rows) fix
    no single state and raise TableauConsistencyError before any projection.
    """
    L = t.length
    if L > MAX_DENSE_SITES:
        raise MemoryCapError(f"dense bridge refused for L={L} > {MAX_DENSE_SITES}")
    if len(t._clipped_gauge()) != L:
        raise TableauConsistencyError(f"rows not of rank {L}: no single stabilized state")
    dim = 1 << L
    gens = t.generators
    for attempt in range(8):
        rng = np.random.Generator(np.random.Philox(key=0x1F0_1A77, counter=attempt))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for g in gens:
            v = 0.5 * (v + apply_pauli(v, L, g))
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            mag = np.abs(v)
            k = int(np.argmax(mag))
            support = mag > 0.5 * mag[k]
            unit = np.where(support, v * (1.0 / v[k]), 0.0)  # v[k] itself becomes 1
            c = 1.0 / np.sqrt(np.count_nonzero(support))
            v = np.empty(dim, dtype=complex)
            v.real = np.rint(unit.real) * c + 0.0
            v.imag = np.rint(unit.imag) * c + 0.0
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
    assignments: tuple[tuple[tuple[tuple[int, int], int], ...], ...]

    def apply_to_tableau(self, t: StabilizerTableau) -> StabilizerTableau:
        if t.length != self.length:
            raise DimensionMismatchError("circuit and tableau lengths differ")
        return t.apply_circuit((idx, bond) for layer in self.assignments for bond, idx in layer)


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
    return CliffordCircuit(length, tuple(assignments))
