"""Signed Pauli strings in symplectic (bit-packed) form, and support intervals.

A string is ``i**phase_exp * W_0 x W_1 x ... x W_{L-1}`` with each ``W_j`` one
of the Hermitian matrices I, X, Y, Z selected by the bit pair
``(x_j, z_j)``: (0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z.  Bit ``j`` of
the packed integers ``x`` and ``z`` is the exponent on site ``j``.  Hermitian
strings therefore carry an even i-exponent (prefactor +1 or -1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatchError

_PHASE_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {"": 0, "+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
_BITS_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_CHAR_BITS = {v: k for k, v in _BITS_CHAR.items()}


@dataclass(frozen=True)
class SupportInterval:
    """Closed interval of sites ``[left, right]``; its scale is ``right - left``."""

    left: int
    right: int

    def __post_init__(self) -> None:
        if not (0 <= self.left <= self.right):
            raise ValueError(f"invalid interval [{self.left}, {self.right}]")

    @property
    def num_sites(self) -> int:
        return self.right - self.left + 1


@dataclass(frozen=True)
class PauliString:
    """Signed Pauli string on ``length`` sites with packed X/Z exponent bits."""

    length: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")
        mask = (1 << self.length) - 1
        if (self.x & ~mask) or (self.z & ~mask):
            raise ValueError("bit pattern exceeds string length")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def single(cls, length: int, site: int, kind: str, phase_exp: int = 0) -> "PauliString":
        """One nonidentity letter (X, Y or Z) at ``site``."""
        if not 0 <= site < length:
            raise IndexError(f"site {site} out of range for length {length}")
        xb, zb = _CHAR_BITS[kind.upper()]
        return cls(length, xb << site, zb << site, phase_exp)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse e.g. ``"XXXX"``, ``"-IZII"``, ``"+iXY"``, ``"-iZ"``."""
        s = label.strip()
        prefix = ""
        while s and s[0] in "+-i":
            prefix += s[0]
            s = s[1:]
        if prefix not in _PREFIX_PHASE:
            raise ValueError(f"bad phase prefix in {label!r}")
        phase = _PREFIX_PHASE[prefix]
        x = z = 0
        for j, ch in enumerate(s):
            try:
                xb, zb = _CHAR_BITS[ch.upper()]
            except KeyError:
                raise ValueError(f"bad Pauli letter {ch!r} in {label!r}") from None
            x |= xb << j
            z |= zb << j
        return cls(len(s), x, z, phase)

    # -- presentation ------------------------------------------------------

    def label(self) -> str:
        letters = "".join(
            _BITS_CHAR[((self.x >> j) & 1, (self.z >> j) & 1)] for j in range(self.length)
        )
        return _PHASE_PREFIX[self.phase_exp] + letters

    def __str__(self) -> str:
        return self.label()

    # -- structure ---------------------------------------------------------

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the symplectic inner product of the two strings is even."""
    if a.length != b.length:
        raise DimensionMismatchError(f"Pauli strings act on {a.length} vs {b.length} sites")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0
