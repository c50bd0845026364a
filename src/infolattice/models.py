"""State factory: named reference tableaux, T-doped circuits, and the spin-1/2
three-state Potts chain with a symmetric-sector ground-state solver.

The Potts Hamiltonian on N qutrits (open boundaries) is

    H = -(J/3) * sum_{i<N} (Zd_i Z_{i+1} + Z_i Zd_{i+1}) - h * sum_i (Xd_i + X_i)

with the 3x3 clock matrix Z = diag(1, w, w^2), w = exp(2*pi*i/3), and the
shift X|k> = |k+1 mod 3>.  It commutes with the charge Q = prod_i X_i; the
symmetric ground state is the lowest state in the Q = +1 sector.  H is real
symmetric in the computational basis, so the Hamiltonian, the sector solve,
the ground state and its embedding all stay in float64.  H is kept as its
diagonal plus index tables of the 2N field permutations, the same form in
the full space and in the sector, and the sector solve is a Lanczos
iteration written in numpy, so the model needs nothing beyond numpy.  The
qutrit chain embeds into 2N spins-1/2 by mapping each qutrit onto the
triplet of a neighboring pair: |0> -> |00>, |1> -> (|01>+|10>)/sqrt(2),
|2> -> |11>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import cliffords, gates
from .errors import NUMERICAL_FAILURES, ConfigurationError, NumericalError
from .lattice import DEFAULT_GAP_THRESHOLD, analyze, check_gap_threshold
from .pauli import PauliString
from .states import PureState
from .tableau import StabilizerTableau, brickwork_bonds
from .witness import GROUND_STATE_TOL, LatticeVerdict, check_tolerance, witness_long_range

OMEGA = np.exp(2j * np.pi / 3)

CLOCK_Z = np.diag([1.0, OMEGA, OMEGA**2]).astype(complex)

# triplet embedding isometry: qutrit basis -> two-qubit pair (left qubit MSB)
TRIPLET_ISOMETRY = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 1.0],
    ],
)


# ---------------------------------------------------------------------------
# reference states


def reference_tableau(name: str, length: int) -> StabilizerTableau:
    """Stabilizer tableau of a named qubit reference: ``neel``, ``bell`` (L=4
    only), ``ghz``; ``tableau.statevector_from_tableau`` gives its exact
    dense state."""
    name = name.lower()
    if name == "neel" and length < 1:
        raise ConfigurationError("neel needs L >= 1")
    if name == "bell" and length != 4:
        raise ConfigurationError("the bell reference state is defined for L = 4")
    if name == "ghz" and length < 2:
        raise ConfigurationError("ghz needs L >= 2")
    if name not in ("neel", "bell", "ghz"):
        raise ConfigurationError(f"unknown reference state {name!r}")
    if name == "neel":
        return StabilizerTableau.from_generators(
            [PauliString.single(length, j, "Z", phase_exp=2 * (j % 2)) for j in range(length)]
        )
    if name == "bell":
        labels = ("ZIII", "IXXI", "-IZZI", "-IIIZ")
        return StabilizerTableau.from_generators([PauliString.from_label(s) for s in labels])
    cnots = [("CNOT", (c, c + 1)) for c in range(length - 1)]
    return StabilizerTableau.zero_state(length).apply_circuit([("H", (0,)), *cnots])


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
            psi = psi.apply_unitary(cliffords.clifford_matrix(2, idx), a, a + 1)
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
        if self.coupling == 0 and self.field == 0:
            raise ConfigurationError(
                "coupling and field are both zero: every state is a ground state"
            )


class _PottsTables(NamedTuple):
    """Index tables of the N-qutrit chain, all read-only arrays.

    ``bonds``: real part of ``conj(z_i) z_{i+1} + z_i conj(z_{i+1})`` on every
    basis index, one row per bond i (the imaginary part cancels exactly).
    ``shifts``: the field's permutations X_i and Xd_i, one row each.
    ``charge``: the global shift ``prod_i X_i``.  ``cols``: sector column of
    every basis index, the rank of the smallest member of its orbit under the
    global shift.  ``reps``: that smallest member of each column's orbit.
    ``sector_shifts``: the field's tables in the sector, ``cols[shifts[:, reps]]``.
    """

    bonds: np.ndarray
    shifts: np.ndarray
    charge: np.ndarray
    cols: np.ndarray
    reps: np.ndarray
    sector_shifts: np.ndarray


@functools.lru_cache(maxsize=4)
def _tables(n: int) -> _PottsTables:
    """The index tables of N qutrits, computed once per N and shared by every
    caller (the cache holds a few N at a time)."""
    index = np.arange(3**n)
    weights = 3 ** np.arange(n - 1, -1, -1)
    digits = index[:, None] // weights % 3  # site 0 most significant

    def shifted(sites: list[int], step: int) -> np.ndarray:
        # every index after adding step mod 3 to its digits at the sites
        d = digits[:, sites]
        return index + ((d + step) % 3 - d) @ weights[sites]

    z = np.diag(CLOCK_Z)[digits]
    bonds = np.array(
        [(z[:, i].conj() * z[:, i + 1] + z[:, i] * z[:, i + 1].conj()).real for i in range(n - 1)]
    )
    shifts = np.array([shifted([i], step) for i in range(n) for step in (1, 2)])
    every = list(range(n))
    charge = shifted(every, 1)
    _, cols = np.unique(np.minimum.reduce([index, charge, shifted(every, 2)]), return_inverse=True)
    reps = np.unique(cols, return_index=True)[1]
    tables = _PottsTables(bonds, shifts, charge, cols, reps, cols[shifts[:, reps]])
    for table in tables:
        table.setflags(write=False)
    return tables


@dataclass(frozen=True)
class PottsOperator:
    """Real symmetric operator ``H @ v = diag * v - field * v[shifts].sum(0)``.

    The Potts Hamiltonian has this form in the full space and in the
    charge-0 sector: the clock terms are diagonal, and each field term is a
    basis permutation, stored as one row of index table ``shifts``.  The set
    of permutations is closed under inversion, so gathering along them is
    the same as scattering.
    """

    diag: np.ndarray
    shifts: np.ndarray
    field: float

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.diag * v - self.field * np.take(v, self.shifts).sum(axis=0)


def potts_hamiltonian(spec: PottsSpec) -> PottsOperator:
    """Real symmetric (float64) Hamiltonian on the full 3^N space, open
    boundaries: the diagonal of the clock terms plus the index tables of the
    2N field permutations, so that ``H @ v = diag * v - h * v[shifts].sum(0)``.

    X_i and Xd_i are the basis permutations that shift digit i by one and by
    two.  Each bond term ``conj(z_i) z_j + z_i conj(z_j)`` has an imaginary
    part that cancels exactly, so keeping its real part loses nothing.  The
    tables are shared between calls of one N and, like the diagonal,
    read-only.
    """
    tables = _tables(spec.qutrits)
    diag = np.zeros(3**spec.qutrits)
    for bond in tables.bonds:
        diag = diag - (spec.coupling / 3.0) * bond
    diag.setflags(write=False)
    return PottsOperator(diag, tables.shifts, float(spec.field))


def charge_operator(n: int) -> np.ndarray:
    """Global shift ``Q = prod_i X_i`` as its basis permutation ``perm``:
    ``Q|b> = |perm[b]>``, so ``Q @ v`` is the vector ``w`` with ``w[perm] = v``."""
    return _tables(n).charge


def symmetric_sector_isometry(n: int) -> np.ndarray:
    """Isometry P onto the charge-0 sector of ``prod_i X_i`` (dimension
    3^{N-1}), as its orbit-column table ``cols``.

    Basis orbits under the global shift have size three; each orbit
    contributes the uniform combination of its members, in the column ranked
    by the orbit's smallest member.  So ``P[b, cols[b]] = 1/sqrt(3)`` is the
    only nonzero entry of row b, and ``P @ u = u[cols] / sqrt(3)``.
    """
    return _tables(n).cols


# largest accepted relative eigen-residual ||H v - E v|| / |E| of a ground
# state; H scales with the couplings, and |E| >= max(2hN, 2J(N-1)/3) > 0
GROUND_STATE_RESIDUAL_TOL = 1e-9
# Lanczos steps after which a ground-state solve counts as not converged
LANCZOS_MAX_STEPS = 300
# Lanczos steps between two convergence checks; each check is a dense
# eigensolve of the tridiagonal matrix, dearer than a step at small N
LANCZOS_CHECK_EVERY = 4


def _lanczos_lowest(op: PottsOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of ``op`` by Lanczos with full reorthogonalization,
    from the normalized uniform vector.

    A Ritz pair is accepted when its residual estimate ``beta_k |s_k|`` is at
    most ``eps * max(|theta|, eps**(2/3))``, ARPACK's test at ``tol=0``, or
    when the Krylov space is invariant.  That shows when the reorthogonalizing
    pass removes most of what the three-term recurrence left (Kahan's
    twice-is-enough test): the rest is rounding.  An invariant Krylov space
    holds the ground state's share of the start vector, so its lowest Ritz
    pair is exact.  Raises NumericalError when neither holds within
    LANCZOS_MAX_STEPS steps.
    """
    dim = op.diag.size
    eps = np.finfo(float).eps
    basis = np.empty((min(dim, 16), dim))
    alpha: list[float] = []
    beta: list[float] = []
    v = np.full(dim, 1.0 / math.sqrt(dim))
    for k in range(min(dim, LANCZOS_MAX_STEPS)):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[k] = v
        q = basis[: k + 1]
        # the three-term recurrence, then one Gram-Schmidt pass against every
        # Lanczos vector
        w = op @ v
        alpha.append(float(v @ w))
        w -= alpha[k] * v
        if k:
            w -= beta[k - 1] * q[k - 1]
        first = float(np.linalg.norm(w))
        w -= (q @ w) @ q
        b = float(np.linalg.norm(w))
        invariant = b <= 0.1 * first
        if invariant or (k + 1) % LANCZOS_CHECK_EVERY == 0:
            t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            thetas, s = np.linalg.eigh(t)
            theta = float(thetas[0])
            if invariant or b * abs(s[-1, 0]) <= eps * max(abs(theta), eps ** (2 / 3)):
                return theta, s[:, 0] @ q
        beta.append(b)
        v = w / b
    raise NumericalError(f"Lanczos did not converge in {LANCZOS_MAX_STEPS} steps")


def symmetric_ground_state(spec: PottsSpec) -> tuple[PureState, float]:
    """Lowest eigenvector of H in the charge-0 sector, with its energy.

    One Lanczos solve of the real symmetric sector operator from the uniform
    start vector, which overlaps the ground state: for J, h >= 0 the only
    off-diagonal entries of H are the field's ``-h`` shifts and the sector
    isometry is non-negative with disjoint column supports, so the sector
    matrix has no positive off-diagonal entry and, by Perron-Frobenius, a
    non-negative ground state.  The sector operator has H's own form on the
    orbit representatives ``reps``: diagonal ``diag[reps]`` and index tables
    ``cols[shifts[:, reps]]``.  The vector is lifted to the full space,
    signed so that its largest amplitude is positive, and checked for its
    eigen-residual and sector membership; it is real (float64).  A solve
    that does not converge raises NumericalError.
    """
    n = spec.qutrits
    h = potts_hamiltonian(spec)
    cols = symmetric_sector_isometry(n)
    tables = _tables(n)
    energy, u = _lanczos_lowest(PottsOperator(h.diag[tables.reps], tables.sector_shifts, h.field))
    v = u[cols] * (1.0 / np.sqrt(3.0))
    v = v / np.linalg.norm(v)
    v = v * np.sign(v[int(np.argmax(np.abs(v)))])
    residual = float(np.linalg.norm(h @ v - energy * v)) / abs(energy)
    if residual > GROUND_STATE_RESIDUAL_TOL:
        raise NumericalError(
            f"relative eigen-residual {residual} above {GROUND_STATE_RESIDUAL_TOL}"
        )
    if float(np.linalg.norm(v[charge_operator(n)] - v)) > 1e-9:
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
    gamma: Optional[float] = None
    gamma_folded: Optional[float] = None
    omega: Optional[float] = None
    localized: Optional[bool] = None
    long_range_witnessed: Optional[bool] = None
    origin: Optional[str] = None
    energy: Optional[float] = None
    error: Optional[str] = None

    def to_csv_row(self) -> list:
        row = self.to_dict()
        return [row[c] for c in SWEEP_CSV_COLUMNS]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["L"], d["h"] = d.pop("length"), d.pop("field")
        return d


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
    """Sweep the field grid for each size; numerical failures become error rows.

    The whole configuration is checked before the first (possibly long)
    solve; a bad one raises ConfigurationError.
    """
    check_gap_threshold(gap_threshold)
    check_tolerance(tol)
    for length in sizes:
        for field in fields:
            potts_point_spec(length, field, coupling, granularity)
    rows: list[SweepPoint] = []
    for length in sizes:
        for field in fields:
            try:
                point, _ = potts_point(
                    length, field, coupling, gap_threshold, tol, granularity
                )
            except NUMERICAL_FAILURES as exc:  # keep sweeping, record the failure
                point = SweepPoint(length, field, error=f"{type(exc).__name__}: {exc}")
            rows.append(point)
    return rows
