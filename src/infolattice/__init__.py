"""Information lattices of pure qudit-chain states.

Two engines compute the same object: an exact stabilizer-tableau path
(integer lattices from subgroup ranks) and a dense statevector path
(entropy-based lattices for arbitrary states, Clifford or not).  On top sit
scale summaries, the folding coarse-graining, and witnesses of
nonstabilizerness from noninteger local information.
"""

from .lattice import (
    DEFAULT_GAP_THRESHOLD,
    GapWindow,
    InfoLattice,
    LatticeSummary,
    analyze,
    compute_lattice,
    fold,
    gamma_folded,
    interleave,
    summarize,
)
from .pauli import PauliString, SupportInterval, commutes, multiply, row_reduce
from .states import (
    PureState,
    entropy_bits,
    load_amplitudes,
    save_amplitudes,
)
from .tableau import (
    CliffordCircuit,
    MLGSEntry,
    StabilizerTableau,
    random_clifford_circuit,
    statevector_from_tableau,
)
from .witness import (
    LatticeVerdict,
    witness_long_range,
    witness_nonstabilizerness,
)

__version__ = "0.1.0"

# the row-reduction kernel is pure Python; the name stays for run records
KERNEL_BACKEND = "pure"

__all__ = [
    "KERNEL_BACKEND",
    "DEFAULT_GAP_THRESHOLD",
    "GapWindow",
    "InfoLattice",
    "LatticeSummary",
    "LatticeVerdict",
    "MLGSEntry",
    "PauliString",
    "SupportInterval",
    "PureState",
    "StabilizerTableau",
    "CliffordCircuit",
    "analyze",
    "commutes",
    "compute_lattice",
    "entropy_bits",
    "fold",
    "gamma_folded",
    "interleave",
    "load_amplitudes",
    "multiply",
    "random_clifford_circuit",
    "row_reduce",
    "save_amplitudes",
    "statevector_from_tableau",
    "summarize",
    "witness_long_range",
    "witness_nonstabilizerness",
]
