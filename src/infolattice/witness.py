"""Verdicts from lattices: noninteger local information flags
nonstabilizerness; noninteger large-scale information in localized states
flags long-range nonstabilizerness, with the folded lattice classifying its
origin.

Both witnesses are one-sided: integer values never certify the absence of
nonstabilizerness, and the long-range witness abstains entirely on states
without an information gap.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .errors import ConfigurationError
from .lattice import InfoLattice, LatticeSummary

DEFAULT_TOL = 1e-6
GROUND_STATE_TOL = 1e-5

ORIGIN_GLOBAL = "global"
ORIGIN_EDGE = "edge_to_edge"
ORIGIN_MIXED = "mixed"
ORIGIN_NA = "not_applicable"


@dataclass(frozen=True)
class LatticeVerdict:
    """Witness outcome for one state."""

    has_nonstabilizerness: bool
    max_noninteger_deviation: float
    deviation_site: Optional[tuple[float, int]]
    localized: bool
    gamma: float
    gamma_is_integer: bool
    long_range_witnessed: bool
    origin: str
    tol: float
    gap_threshold: float

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.deviation_site is not None:
            n, scale = self.deviation_site
            d["deviation_site"] = {"n": n, "l": scale}
        return d

    def one_line(self) -> str:
        parts = [
            "nonstabilizer" if self.has_nonstabilizerness else "no nonstabilizerness detected",
            f"max deviation {self.max_noninteger_deviation:.3g}",
            "localized" if self.localized else "not localized",
            f"gamma {self.gamma:.6g}",
        ]
        if self.long_range_witnessed:
            parts.append(f"LONG-RANGE witnessed (origin {self.origin})")
        else:
            parts.append("long-range not witnessed")
        return "; ".join(parts)


def check_tolerance(tol: float) -> None:
    """Raise ConfigurationError unless ``0 < tol < 0.5``; NaN fails too.  No
    value lies farther than 0.5 from an integer, so a larger tol never fires."""
    if not 0 < tol < 0.5:
        raise ConfigurationError(f"tolerance must lie strictly between 0 and 0.5, got {tol!r}")


def witness_nonstabilizerness(
    lat: InfoLattice, tol: float = DEFAULT_TOL
) -> tuple[bool, float, Optional[tuple[float, int]]]:
    """Noninteger local information beyond ``tol`` anywhere on the lattice.

    Returns ``(flag, max deviation, site)`` with the site given as ``(n, l)``.
    """
    check_tolerance(tol)
    dev, site = lat.max_integer_deviation()
    return dev > tol, dev, site


def witness_long_range(
    summary: LatticeSummary,
    tol: float = DEFAULT_TOL,
    *,
    require_origin: bool = True,
) -> LatticeVerdict:
    """Full verdict from a lattice summary.

    Long-range nonstabilizerness is witnessed iff the state is localized and
    its large-scale information deviates from the nearest integer by more
    than ``tol``.  The origin classification (global vs edge-to-edge)
    compares the folded large-scale total and needs ``summary.gamma_folded``;
    if it is missing, a ``ConfigurationError`` is raised unless
    ``require_origin`` is false, in which case the origin is left
    unclassified as ``not_applicable``.
    """
    check_tolerance(tol)
    gamma = summary.gamma
    gamma_is_integer = abs(gamma - round(gamma)) <= tol
    long_range = summary.localized and not gamma_is_integer

    if not summary.localized or gamma <= tol:
        origin = ORIGIN_NA
    elif summary.gamma_folded is None:
        if require_origin:
            raise ConfigurationError(
                "origin classification needs gamma_folded; fold the state first"
            )
        origin = ORIGIN_NA
    else:
        gf = summary.gamma_folded
        if abs(gamma - gf) <= tol:
            origin = ORIGIN_GLOBAL
        elif gf <= tol:
            origin = ORIGIN_EDGE
        else:
            origin = ORIGIN_MIXED

    site_flag = summary.max_noninteger_deviation > tol
    return LatticeVerdict(
        has_nonstabilizerness=site_flag or long_range,
        max_noninteger_deviation=summary.max_noninteger_deviation,
        deviation_site=summary.deviation_site,
        localized=summary.localized,
        gamma=gamma,
        gamma_is_integer=gamma_is_integer,
        long_range_witnessed=long_range,
        origin=origin,
        tol=tol,
        gap_threshold=summary.gap_threshold,
    )
