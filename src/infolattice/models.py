"""State factory: reference states, T-doped circuits, and the spin-1/2
three-state Potts chain with a symmetric-sector ground-state solver.

The Potts Hamiltonian on N qutrits (open boundaries) is

    H = -(J/3) * sum_{i<N} (Zd_i Z_{i+1} + Z_i Zd_{i+1}) - h * sum_i (Xd_i + X_i)

with the 3x3 clock matrix Z = diag(1, w, w^2), w = exp(2*pi*i/3), and the
shift X|k> = |k+1 mod 3>.  It commutes with the charge Q = prod_i X_i; the
symmetric ground state is the lowest state in the Q = +1 sector.  The qutrit
chain embeds into 2N spins-1/2 by mapping each qutrit onto the triplet of a
neighboring pair: |0> -> |00>, |1> -> (|01>+|10>)/sqrt(2), |2> -> |11>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import cliffords, gates
from .errors import ConfigurationError, NumericalError
from .lattice import (
    DEFAULT_GAP_THRESHOLD,
    analyze,
)
from .pauli import PauliString
from .states import PureState
from .tableau import StabilizerTableau, brickwork_bonds
from .witness import GROUND_STATE_TOL, LatticeVerdict, witness_long_range

if TYPE_CHECKING:
    import scipy.sparse as sp

OMEGA = np.exp(2j * np.pi / 3)

CLOCK_Z = np.diag([1.0, OMEGA, OMEGA**2]).astype(complex)
SHIFT_X = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)

# triplet embedding isometry: qutrit basis -> two-qubit pair (left qubit MSB)
TRIPLET_ISOMETRY = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 1.0],
    ],
    dtype=complex,
)


# ---------------------------------------------------------------------------
# reference states


def _reference_name(name: str, length: int) -> str:
    """Lower-cased name of a named reference, checked against its lengths."""
    name = name.lower()
    if name == "neel" and length < 1:
        raise ConfigurationError("neel needs L >= 1")
    if name == "bell" and length != 4:
        raise ConfigurationError("the bell reference state is defined for L = 4")
    if name == "ghz" and length < 2:
        raise ConfigurationError("ghz needs L >= 2")
    if name not in ("neel", "bell", "ghz"):
        raise ConfigurationError(f"unknown reference state {name!r}")
    return name


def reference_state(name: str, length: int) -> PureState:
    """Named qubit reference states: ``neel``, ``bell`` (L=4 only), ``ghz``."""
    name = _reference_name(name, length)
    if name == "neel":
        return PureState.from_label("".join(str(j % 2) for j in range(length)))
    if name == "bell":
        amps = np.zeros(16, dtype=complex)
        amps[0b0101] = amps[0b0011] = 1.0 / np.sqrt(2.0)
        return PureState(amps, (2, 2, 2, 2))
    amps = np.zeros(2**length, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(amps, (2,) * length)


def reference_tableau(name: str, length: int) -> StabilizerTableau:
    """The stabilizer tableau of :func:`reference_state` (same names and lengths).

    Its statevector agrees with ``reference_state`` only to rounding (about
    1e-16), so each engine keeps its own construction.
    """
    name = _reference_name(name, length)
    if name == "neel":
        return StabilizerTableau.from_generators(
            [PauliString.single(length, j, "Z", phase_exp=2 * (j % 2)) for j in range(length)]
        )
    if name == "bell":
        labels = ("ZIII", "IXXI", "-IZZI", "-IIIZ")
        return StabilizerTableau.from_generators([PauliString.from_label(s) for s in labels])
    t = StabilizerTableau.zero_state(length).apply_clifford("H", 0)
    for c in range(length - 1):
        t = t.apply_clifford("CNOT", c, c + 1)
    return t


def cat_state(branches: int, length: int, local_dim: Optional[int] = None) -> PureState:
    """q-fold cat state ``sum_k |k...k> / sqrt(q)`` on d-dimensional sites."""
    d = branches if local_dim is None else local_dim
    if branches > d:
        raise ConfigurationError("more branches than local levels")
    if length < 2:
        raise ConfigurationError("cat state needs at least two sites")
    amps = np.zeros(d**length, dtype=complex)
    step = (d**length - 1) // (d - 1)  # index of |k...k> is k * step
    for k in range(branches):
        amps[k * step] = 1.0 / np.sqrt(branches)
    return PureState(amps, (d,) * length)


def edge_bell_state(length: int) -> PureState:
    """Bell pair between the chain ends, product |0> elsewhere."""
    if length < 2:
        raise ConfigurationError("need at least two sites")
    amps = np.zeros(2**length, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[(1 << (length - 1)) | 1] = 1.0 / np.sqrt(2.0)
    return PureState(amps, (2,) * length)


# ---------------------------------------------------------------------------
# T-doped circuits


@dataclass(frozen=True)
class TDopedCircuitSpec:
    """Blocks of single-qubit Clifford layers with T insertions, closed by a
    two-layer brickwork entangler.

    Within each block, ``t_gates_per_block`` positions are drawn without
    replacement from (qubit, inter-layer slot) pairs; slot s means after the
    s-th Clifford layer of the block, so every T sits strictly between two
    Clifford layers.  The closing pair of uniform two-qubit brickwork layers
    spreads correlations over a few scales while its light cone keeps all
    information strictly below scale L/2, so the output is genuinely
    short-range (exactly zero large-scale information) yet carries noninteger
    local information from the T gates.
    """

    length: int
    blocks: int = 3
    clifford_layers_per_block: int = 10
    t_gates_per_block: int = 5
    seed: int = 0
    entangling_layers: int = 2

    def __post_init__(self) -> None:
        if self.length < 2:
            raise ConfigurationError("need at least two qubits")
        if self.clifford_layers_per_block < 2 and self.t_gates_per_block > 0:
            raise ConfigurationError("T slots need at least two Clifford layers")
        slots = self.length * max(0, self.clifford_layers_per_block - 1)
        if self.t_gates_per_block > slots:
            raise ConfigurationError("more T gates than available slots")
        if 2 * self.entangling_layers >= self.length // 2:
            raise ConfigurationError(
                "entangling depth would close the large-scale gap"
            )


def t_doped_state(spec: TDopedCircuitSpec) -> PureState:
    """Dense output state of the T-doped circuit; deterministic under seed."""
    L = spec.length
    rng = np.random.Generator(np.random.Philox(spec.seed))
    psi = PureState.from_label("0" * L)
    t_matrix = gates.MATRICES_1Q["T"]
    for _ in range(spec.blocks):
        slots = [(q, s) for s in range(1, spec.clifford_layers_per_block) for q in range(L)]
        t_at: dict[int, list[int]] = {}
        if spec.t_gates_per_block:
            picks = rng.choice(len(slots), size=spec.t_gates_per_block, replace=False)
            for j in (int(p) for p in picks):
                q, s = slots[j]
                t_at.setdefault(s, []).append(q)
        for layer in range(1, spec.clifford_layers_per_block + 1):
            for q in range(L):
                idx = int(rng.integers(0, cliffords.SINGLE_QUBIT_COUNT))
                psi = psi.apply_unitary(cliffords.clifford_matrix(1, idx), q)
            for q in sorted(t_at.get(layer, [])):
                psi = psi.apply_unitary(t_matrix, q)
    for k in range(spec.entangling_layers):
        for a, _ in brickwork_bonds(L, k):
            idx = int(rng.integers(0, cliffords.TWO_QUBIT_COUNT))
            psi = psi.apply_unitary(cliffords.clifford_matrix(2, idx), a)
    return psi


# ---------------------------------------------------------------------------
# Potts model


@dataclass(frozen=True)
class PottsSpec:
    """Qutrit count and couplings of the three-state Potts chain."""

    qutrits: int
    coupling: float = 1.0
    field: float = 0.0

    def __post_init__(self) -> None:
        if self.qutrits < 2:
            raise ConfigurationError("need at least two qutrits")
        for name, v in (("coupling", self.coupling), ("field", self.field)):
            if not math.isfinite(v) or v < 0:
                raise ConfigurationError(f"{name} must be finite and nonnegative")


def _digits(n: int) -> np.ndarray:
    """Qutrit digits of every basis index, site 0 most significant."""
    return np.arange(3**n)[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3


def _shifted(n: int, sites: Sequence[int], step: int = 1) -> np.ndarray:
    """Every basis index after adding ``step`` mod 3 to the digits at ``sites``."""
    digits = _digits(n)
    digits[:, sites] = (digits[:, sites] + step) % 3
    return digits @ 3 ** np.arange(n - 1, -1, -1)


def potts_hamiltonian(spec: PottsSpec) -> sp.csr_matrix:
    """Sparse Hermitian Hamiltonian on the full 3^N space, open boundaries.

    The clock terms are diagonal; X_i and Xd_i are the basis permutations
    that shift digit i by one and by two.
    """
    import scipy.sparse as sp  # scipy loads only for a Potts solve

    n = spec.qutrits
    dim = 3**n
    z = np.diag(CLOCK_Z)[_digits(n)]
    diag = np.zeros(dim, dtype=complex)
    for i in range(n - 1):
        bond = z[:, i].conj() * z[:, i + 1] + z[:, i] * z[:, i + 1].conj()
        diag = diag - (spec.coupling / 3.0) * bond
    shifts = [_shifted(n, [i], step) for i in range(n) for step in (1, 2)]
    rows = np.concatenate([np.arange(dim), *shifts])
    cols = np.tile(np.arange(dim), 2 * n + 1)
    data = np.concatenate([diag, np.full(2 * n * dim, -spec.field, dtype=complex)])
    h = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))
    h.eliminate_zeros()  # a zero coupling or field adds no stored entries
    return h


def charge_operator(n: int) -> sp.csr_matrix:
    """Global shift ``prod_i X_i`` as a sparse basis permutation."""
    import scipy.sparse as sp

    dim = 3**n
    rows = _shifted(n, range(n))
    return sp.csr_matrix((np.ones(dim), (rows, np.arange(dim))), shape=(dim, dim))


def symmetric_sector_isometry(n: int) -> sp.csr_matrix:
    """Isometry onto the charge-0 sector of ``prod_i X_i`` (dimension 3^{N-1}).

    Basis orbits under the global shift have size three; each orbit
    contributes the uniform combination of its members, in the column ranked
    by the orbit's smallest member.
    """
    import scipy.sparse as sp

    dim = 3**n
    smallest = np.minimum.reduce(
        [np.arange(dim), _shifted(n, range(n), 1), _shifted(n, range(n), 2)]
    )
    _, cols = np.unique(smallest, return_inverse=True)
    data = np.full(dim, 1.0 / np.sqrt(3.0))
    return sp.csr_matrix((data, (np.arange(dim), cols)), shape=(dim, dim // 3))


# largest accepted eigen-residual ||H v - E v|| of a computed ground state
GROUND_STATE_RESIDUAL_TOL = 1e-9


def symmetric_ground_state(spec: PottsSpec) -> tuple[PureState, float]:
    """Lowest eigenvector of H in the charge-0 sector, with its energy.

    Takes the lowest eigenpair of the sector-projected Hamiltonian (dense
    below ~1000 states, Lanczos above), lifts back to the full space, fixes
    the global phase, and verifies the eigen-residual and the sector
    membership.  Lanczos non-convergence raises NumericalError.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    n = spec.qutrits
    h = potts_hamiltonian(spec)
    p = symmetric_sector_isometry(n)
    h_sym = p.conj().T @ h @ p
    if n <= 6:
        dense = h_sym.toarray()
        if np.max(np.abs(dense - dense.conj().T)) > 1e-12:
            raise NumericalError("projected Hamiltonian lost hermiticity")
        energies, vectors = sla.eigh(dense, subset_by_index=[0, 0])
    else:
        try:
            energies, vectors = spla.eigsh(h_sym.tocsc(), k=1, which="SA", tol=0)
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(str(exc)) from exc
    energy = float(energies[0])
    v_sym = vectors[:, 0]
    v = p @ v_sym
    v = v / np.linalg.norm(v)
    k = int(np.argmax(np.abs(v)))
    v = v * (abs(v[k]) / v[k])
    residual = float(np.linalg.norm(h @ v - energy * v))
    if residual > GROUND_STATE_RESIDUAL_TOL:
        raise NumericalError(f"eigen-residual {residual} above {GROUND_STATE_RESIDUAL_TOL}")
    q = charge_operator(n)
    if float(np.linalg.norm(q @ v - v)) > 1e-9:
        raise NumericalError("ground state left the symmetric sector")
    return PureState(v, (3,) * n), energy


def embed_qutrit_to_spins(state: PureState) -> PureState:
    """Isometric embedding of a qutrit chain into pairs of spins-1/2."""
    if set(state.dims) != {3}:
        raise ConfigurationError("embedding expects a uniform qutrit chain")
    n = state.num_sites
    t = state.tensor()
    for axis in range(n):
        t = np.tensordot(TRIPLET_ISOMETRY, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    # each 4-dim axis splits into two qubit axes in place (left qubit first)
    return PureState(t.ravel(), (2,) * (2 * n))


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepPoint:
    """One Potts sweep result row."""

    length: int
    field: float
    gamma: Optional[float]
    gamma_folded: Optional[float]
    omega: Optional[float]
    localized: Optional[bool]
    long_range_witnessed: Optional[bool]
    origin: Optional[str] = None
    energy: Optional[float] = None
    error: Optional[str] = None

    def to_csv_row(self) -> list:
        row = self.to_dict()
        return [row[c] for c in SWEEP_CSV_COLUMNS]

    def to_dict(self) -> dict:
        return {
            "L": self.length,
            "h": self.field,
            "gamma": self.gamma,
            "gamma_folded": self.gamma_folded,
            "omega": self.omega,
            "localized": self.localized,
            "long_range_witnessed": self.long_range_witnessed,
            "origin": self.origin,
            "energy": self.energy,
            "error": self.error,
        }


SWEEP_CSV_COLUMNS = [
    "L",
    "h",
    "gamma",
    "gamma_folded",
    "omega",
    "localized",
    "long_range_witnessed",
    "error",
]


def potts_point_spec(
    length: int, field: float, coupling: float = 1.0, granularity: str = "qubit"
) -> PottsSpec:
    """Qutrit chain of a sweep point: N = L/2 for ``qubit``, N = L for ``qutrit``.

    Raises ConfigurationError for an unknown granularity, an odd qubit
    length, or couplings that :class:`PottsSpec` rejects.
    """
    if granularity not in ("qubit", "qutrit"):
        raise ConfigurationError(f"unknown granularity {granularity!r}")
    if granularity == "qubit" and length % 2:
        raise ConfigurationError("qubit chains have even length L = 2N")
    n = length // 2 if granularity == "qubit" else length
    return PottsSpec(n, coupling, field)


def potts_point(
    length: int,
    field: float,
    coupling: float = 1.0,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    tol: float = GROUND_STATE_TOL,
    granularity: str = "qubit",
) -> tuple[SweepPoint, LatticeVerdict]:
    """Ground state -> (embedded) chain -> lattice -> verdict for one point."""
    gs, energy = symmetric_ground_state(potts_point_spec(length, field, coupling, granularity))
    chain = embed_qutrit_to_spins(gs) if granularity == "qubit" else gs
    _, summary = analyze(chain, gap_threshold, with_fold=True)
    verdict = witness_long_range(summary, tol)
    point = SweepPoint(
        length=length,
        field=field,
        gamma=summary.gamma,
        gamma_folded=summary.gamma_folded,
        omega=summary.omega,
        localized=summary.localized,
        long_range_witnessed=verdict.long_range_witnessed,
        origin=verdict.origin,
        energy=energy,
    )
    return point, verdict


def potts_sweep(
    sizes: Sequence[int],
    fields: Sequence[float],
    coupling: float = 1.0,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    tol: float = GROUND_STATE_TOL,
    granularity: str = "qubit",
) -> list[SweepPoint]:
    """Sweep the field grid for each size; failures become error rows."""
    rows: list[SweepPoint] = []
    for length in sizes:
        for field in fields:
            try:
                point, _ = potts_point(
                    length, field, coupling, gap_threshold, tol, granularity
                )
            except Exception as exc:  # keep sweeping, record the failure
                point = SweepPoint(
                    length=length,
                    field=field,
                    gamma=None,
                    gamma_folded=None,
                    omega=None,
                    localized=None,
                    long_range_witnessed=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            rows.append(point)
    return rows


def crossing_brackets(
    rows: Sequence[SweepPoint], length_a: int, length_b: int
) -> list[tuple[float, float]]:
    """Field intervals where the gamma curves of two sizes cross.

    Returns (h_low, h_high) bracket pairs from sign changes of the difference
    on the common grid.
    """
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
