"""Dense pure states on qudit chains: gates, partial traces, entropies.

Amplitude indexing is row-major over sites with site 0 the most significant
tensor factor, i.e. the basis label reads left to right like the ket.
Chains may mix local dimensions (needed after folding); most constructors
produce uniform-dimension chains.  Density matrices are plain Hermitized
arrays, checked for finiteness, unit trace and Hermiticity when built; no
side of one may exceed ``MAX_RDM_SIDE`` (MemoryCapError above it).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import gates
from .errors import DimensionMismatchError, MemoryCapError, NumericalError
from .pauli import PauliString, SupportInterval

NORM_ATOL = 1e-10
MAX_RDM_SIDE = 4096


class PureState:
    """Normalized dense state vector over a chain with per-site dimensions."""

    __slots__ = ("dims", "amps")

    def __init__(self, amps: Sequence[complex], dims: Sequence[int], *, normalize: bool = False):
        amps = np.asarray(amps, dtype=complex).ravel()
        dims = tuple(int(d) for d in dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"local dimensions must be >= 2, got {dims}")
        if math.prod(dims) != amps.size:
            raise DimensionMismatchError(
                f"amplitude count {amps.size} does not match dims {dims}"
            )
        norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm):
            # a NaN or inf amplitude makes the norm NaN or inf
            raise ValueError(f"state norm {norm} is not finite")
        if normalize:
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / norm
        elif abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        self.amps = amps
        self.dims = dims

    # -- constructors ------------------------------------------------------

    @classmethod
    def computational(cls, dims: Sequence[int], digits: Sequence[int]) -> "PureState":
        """Basis state |digits...> on a chain with the given dimensions."""
        dims = tuple(dims)
        if len(digits) != len(dims):
            raise DimensionMismatchError("one digit per site required")
        idx = 0
        for d, g in zip(dims, digits):
            if not 0 <= g < d:
                raise ValueError(f"digit {g} out of range for dimension {d}")
            idx = idx * d + g
        amps = np.zeros(math.prod(dims), dtype=complex)
        amps[idx] = 1.0
        return cls(amps, dims)

    @classmethod
    def from_label(cls, label: str, d: int = 2) -> "PureState":
        """Basis state from a digit string, e.g. ``"0101"``."""
        digits = [int(ch) for ch in label]
        return cls.computational((d,) * len(label), digits)

    # -- basic structure ----------------------------------------------------

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    @property
    def local_dim(self) -> int:
        """Uniform local dimension; raises on mixed-dimension chains."""
        d = set(self.dims)
        if len(d) != 1:
            raise ValueError(f"chain has mixed local dimensions {self.dims}")
        return d.pop()

    @property
    def log2_dims(self) -> tuple[float, ...]:
        return tuple(math.log2(d) for d in self.dims)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def overlap(self, other: "PureState") -> complex:
        if self.dims != other.dims:
            raise DimensionMismatchError("overlap of states with different dims")
        return complex(np.vdot(other.amps, self.amps))

    def mirror(self) -> "PureState":
        """Site-reflected state (site j -> L-1-j)."""
        t = self.tensor().transpose(tuple(reversed(range(self.num_sites))))
        return PureState(t.ravel(), tuple(reversed(self.dims)))

    # -- gates ---------------------------------------------------------------

    def apply_unitary(self, u: np.ndarray, first_site: int) -> "PureState":
        """Apply a unitary on contiguous sites starting at ``first_site``.

        The side of ``u`` must equal the product of the local dimensions it
        covers; unitarity is checked to 1e-10.
        """
        u = np.asarray(u, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("unitary must be a square matrix")
        side = u.shape[0]
        if not 0 <= first_site < self.num_sites:
            raise IndexError(f"site {first_site} out of range")
        block = 1
        last = first_site
        while block < side and last < self.num_sites:
            block *= self.dims[last]
            last += 1
        if block != side:
            raise DimensionMismatchError(
                f"matrix side {side} does not cover whole sites from {first_site}"
            )
        if not np.allclose(u @ u.conj().T, np.eye(side), atol=1e-10):
            raise ValueError("matrix is not unitary within 1e-10")
        a = math.prod(self.dims[:first_site])
        c = math.prod(self.dims[last:])
        t = self.amps.reshape(a, side, c)
        out = np.einsum("ij,ajc->aic", u, t)
        return PureState(out.ravel(), self.dims)

    def apply_gate(self, name: str, *qubits: int) -> "PureState":
        """Apply a named elementary gate (qubit chains only)."""
        gates.check_gates([(name, qubits)], self.num_sites, gates.GATE_ARITY)
        for q in qubits:
            if self.dims[q] != 2:
                raise DimensionMismatchError(f"gate {name} needs a qubit at site {q}")
        op = gates.gate_matrix(name).reshape((2,) * (2 * len(qubits)))
        return self._apply_axes(op, qubits)

    def _apply_axes(self, op: np.ndarray, axes: tuple[int, ...]) -> "PureState":
        """Contract an operator tensor (out-indices first) onto given site axes."""
        t = np.tensordot(op, self.tensor(), axes=(range(len(axes), 2 * len(axes)), axes))
        t = np.moveaxis(t, range(len(axes)), axes)
        return PureState(t.ravel(), self.dims)

    # -- reductions ----------------------------------------------------------

    def _split(self, interval: SupportInterval) -> tuple[int, int, int]:
        if interval.right >= self.num_sites:
            raise IndexError(f"interval {interval} exceeds chain of {self.num_sites} sites")
        a = math.prod(self.dims[: interval.left])
        m = math.prod(self.dims[interval.left : interval.right + 1])
        c = math.prod(self.dims[interval.right + 1 :])
        return a, m, c

    def reduced_density(self, interval: SupportInterval) -> np.ndarray:
        """Reduced density matrix of a contiguous interval."""
        a, m, c = self._split(interval)
        if m > MAX_RDM_SIDE:
            raise MemoryCapError(
                f"RDM side {m} exceeds cap {MAX_RDM_SIDE} for interval {interval}"
            )
        t = self.amps.reshape(a, m, c)
        rho = np.einsum("amc,anc->mn", t, t.conj())
        rho = 0.5 * (rho + rho.conj().T)
        _check_density(rho, "RDM")
        return rho

    def complement_density(self, interval: SupportInterval) -> np.ndarray:
        """Density matrix of the (possibly two-piece) complement of an interval."""
        a, m, c = self._split(interval)
        if a * c > MAX_RDM_SIDE:
            raise MemoryCapError(
                f"complement side {a * c} exceeds cap {MAX_RDM_SIDE} for interval {interval}"
            )
        t = self.amps.reshape(a, m, c)
        rho = np.einsum("amc,bmd->acbd", t, t.conj()).reshape(a * c, a * c)
        rho = 0.5 * (rho + rho.conj().T)
        _check_density(rho, "complement density matrix")
        return rho

    def entropy_of_interval(self, interval: SupportInterval) -> float:
        """Von Neumann entropy in bits, via the smaller of interval/complement.

        For a pure state both sides have equal entropy, so the cheaper
        contraction is used.
        """
        a, m, c = self._split(interval)
        if m <= a * c:
            return entropy_bits(self.reduced_density(interval))
        return entropy_bits(self.complement_density(interval))


def _check_density(m: np.ndarray, what: str) -> None:
    """Raise NumericalError unless ``m`` is finite, Hermitian and of unit trace."""
    # the trace and Hermiticity checks both come out False for NaN
    if not np.isfinite(m).all():
        raise NumericalError(f"{what} has non-finite entries")
    if abs(float(m.trace().real) - 1.0) > 1e-10:
        raise NumericalError(f"{what} trace {m.trace()} deviates from 1")
    if float(np.abs(m - m.conj().T).max()) > 1e-12:
        raise NumericalError(f"{what} is not Hermitian within 1e-12")


def entropy_bits(rho: np.ndarray) -> float:
    """Spectral von Neumann entropy in bits with clamping of tiny negatives."""
    # LAPACK may return finite garbage for a NaN matrix, e.g. [0, -0] for
    # diag(nan, 1), so the matrix itself is checked
    if not np.isfinite(rho).all():
        raise NumericalError("density matrix has non-finite entries")
    lam = np.linalg.eigvalsh(rho)
    if float(lam.min(initial=0.0)) < -1e-9:
        raise NumericalError(f"density matrix has eigenvalue {lam.min()} < -1e-9")
    lam = np.clip(lam, 0.0, None)
    nz = lam[lam > 0.0]
    # an eigenvalue 1+eps would otherwise yield a spuriously negative total
    return max(0.0, float(-(nz * np.log2(nz)).sum()))


def apply_pauli(amps: np.ndarray, num_sites: int, p: PauliString) -> np.ndarray:
    """Apply a signed Pauli string to a dense qubit amplitude vector."""
    if p.length != num_sites:
        raise DimensionMismatchError("Pauli length does not match chain")
    idx = np.arange(amps.size, dtype=np.uint64)
    xm = zm = 0
    for j in range(num_sites):
        shift = num_sites - 1 - j
        if (p.x >> j) & 1:
            xm |= 1 << shift
        if (p.z >> j) & 1:
            zm |= 1 << shift
    par = np.bitwise_count(idx & np.uint64(zm)) & 1
    glob = 1j ** ((p.phase_exp + (p.x & p.z).bit_count()) % 4)
    signed = amps * (glob * np.where(par, -1.0, 1.0))
    return signed[idx ^ np.uint64(xm)]


def haar_random_state(dims: Sequence[int], rng: np.random.Generator) -> PureState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    n = math.prod(dims)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState(v, dims, normalize=True)


def amplitudes_text(state: PureState) -> str:
    """Text format: header line with the dims, then one ``re im`` pair per row."""
    lines = ["dims " + " ".join(str(d) for d in state.dims)]
    lines += [f"{float(a.real)!r} {float(a.imag)!r}" for a in state.amps]
    return "\n".join(lines) + "\n"


def save_amplitudes(state: PureState, path: str) -> None:
    """Write ``amplitudes_text(state)`` to ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(amplitudes_text(state))


def load_amplitudes(path: str) -> PureState:
    """Read the format of :func:`amplitudes_text`; malformed, non-finite or
    unnormalized input raises ValueError naming the file and, where one is
    to blame, the line."""
    with open(path, encoding="ascii") as fh:
        first = fh.readline()
        header = first.split()
        if not header or header[0] != "dims":
            raise ValueError(f"{path}: missing 'dims' header")
        try:
            dims = [int(tok) for tok in header[1:]]
        except ValueError:
            dims = []
        if not dims or min(dims) < 2:
            msg = f"{path}:1: expected 'dims d1 d2 ...' (each d >= 2), got {first.strip()!r}"
            raise ValueError(msg)
        amps = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                re_s, im_s = line.split()
                amps.append(complex(float(re_s), float(im_s)))
            except ValueError:
                msg = f"{path}:{lineno}: expected 're im', got {line.strip()!r}"
                raise ValueError(msg) from None
    expected = math.prod(dims)
    if len(amps) != expected:
        msg = f"{path}: expected {expected} 're im' rows for {first.strip()!r}, got {len(amps)}"
        raise ValueError(msg)
    try:
        return PureState(np.array(amps), dims)
    except ValueError as exc:  # an unnormalized or non-finite file
        raise ValueError(f"{path}: {exc}") from None
