"""The information lattice: local information per (position, scale), scale
sums, gap detection, and the folding coarse-graining.

At scale ``l`` the lattice has ``L - l`` sites centered at
``n = left + l/2`` for ``left = 0 .. L-1-l``; the site value is the second
difference of subsystem total informations, with intervals of negative scale
contributing zero information.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import NumericalError
from .pauli import SupportInterval
from .states import PureState

CLAMP_EPS = 1e-12
DEFAULT_GAP_THRESHOLD = 1e-3


@dataclass(frozen=True, eq=False)
class InfoLattice:
    """Map ``(n, l) -> i`` stored as one array row per scale."""

    log2_dims: tuple[float, ...]
    rows: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        L = len(self.log2_dims)
        if len(self.rows) != L or any(len(r) != L - l for l, r in enumerate(self.rows)):
            raise ValueError("lattice rows do not match chain length")

    @property
    def num_sites(self) -> int:
        return len(self.log2_dims)

    def value(self, n: float, scale: int) -> float:
        left = n - scale / 2
        k = int(round(left))
        if abs(left - k) > 1e-9 or not 0 <= k < self.num_sites - scale:
            raise KeyError(f"no lattice site at (n={n}, l={scale})")
        return float(self.rows[scale][k])

    def sites(self) -> Iterator[tuple[float, int, float]]:
        """Yield ``(n, l, i)`` for every lattice site, scale by scale."""
        for scale, row in enumerate(self.rows):
            for k, v in enumerate(row):
                yield (k + scale / 2, scale, float(v))

    def info_per_scale(self) -> np.ndarray:
        return np.array([float(row.sum()) for row in self.rows])

    def total(self) -> float:
        return float(sum(float(row.sum()) for row in self.rows))

    def mirrored(self) -> "InfoLattice":
        return InfoLattice(
            tuple(reversed(self.log2_dims)), tuple(row[::-1].copy() for row in self.rows)
        )

    def allclose(self, other: "InfoLattice", atol: float = 1e-8) -> bool:
        if self.num_sites != other.num_sites:
            return False
        return all(
            np.allclose(a, b, atol=atol, rtol=0.0) for a, b in zip(self.rows, other.rows)
        )

    def max_integer_deviation(self) -> tuple[float, Optional[tuple[float, int]]]:
        """Largest distance of any site value from its nearest integer.

        Returns the first maximum in (scale, left) order and its ``(n, l)``,
        or ``(0.0, None)`` when every site is an exact integer; a non-finite
        site raises NumericalError.
        """
        v = np.concatenate([np.zeros(0), *self.rows])
        if not np.isfinite(v).all():
            raise NumericalError("lattice has non-finite sites")
        dev = np.abs(v - np.round(v))
        if not dev.any():
            return 0.0, None
        k = int(np.argmax(dev))
        ends = np.cumsum([len(row) for row in self.rows])
        scale = int(np.searchsorted(ends, k, side="right"))
        left = k - int(ends[scale]) + len(self.rows[scale])
        return float(dev[k]), (left + scale / 2, scale)

    def to_records(self) -> list[dict]:
        return [{"n": n, "l": scale, "i": v} for n, scale, v in self.sites()]


def lattice_from_interval_info(
    log2_dims: Sequence[float], info: Sequence[Sequence[float]]
) -> InfoLattice:
    """Second-difference a table ``info[l][left]`` of interval informations."""
    L = len(log2_dims)
    # intervals of negative scale carry no information
    prev2 = np.zeros(L + 2)
    prev = np.zeros(L + 1)
    rows = []
    for scale in range(L):
        cur = np.asarray(info[scale], dtype=float)
        v = cur - prev[:-1] - prev[1:] + prev2[1:-1]
        rows.append(np.where(np.abs(v) < CLAMP_EPS, 0.0, v))
        prev2, prev = prev, cur
    return InfoLattice(tuple(log2_dims), tuple(rows))


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("INFOLATTICE_THREADS", "1")))
    except ValueError:
        return 1


def _interval_informations(
    state: PureState,
    intervals: Sequence[tuple[int, int]],
    threads: Optional[int],
) -> list[float]:
    """Information ``sum log2 d - S`` of each ``(left, scale)`` interval, in order.

    Each entropy comes from the cheaper of the interval and its complement;
    results are deterministic regardless of thread count.
    """
    threads = _default_threads() if threads is None else max(1, threads)

    def entropy(pair: tuple[int, int]) -> float:
        left, scale = pair
        return state.entropy_of_interval(SupportInterval(left, left + scale))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            entropies = list(pool.map(entropy, intervals))
    else:
        entropies = [entropy(p) for p in intervals]

    prefix = np.concatenate([[0.0], np.cumsum(state.log2_dims)])
    return [
        float(prefix[left + scale + 1] - prefix[left]) - s_val
        for (left, scale), s_val in zip(intervals, entropies)
    ]


def compute_lattice(state: PureState, *, threads: Optional[int] = None) -> InfoLattice:
    """Entropy-based information lattice of a pure state.

    Every contiguous interval's von Neumann entropy is computed once and
    combined by second differences.
    """
    L = state.num_sites
    intervals = [(left, scale) for scale in range(L) for left in range(L - scale)]
    flat = iter(_interval_informations(state, intervals, threads))
    info = [[next(flat) for _ in range(L - scale)] for scale in range(L)]
    return lattice_from_interval_info(state.log2_dims, info)


@dataclass(frozen=True)
class GapWindow:
    """Contiguous scales with information per scale below the threshold."""

    start: int
    end: int
    max_inside: float

    @property
    def width(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class LatticeSummary:
    """Scale-resolved digest of a lattice: I^l, small/large-scale totals, gap."""

    num_sites: int
    gap_threshold: float
    info_per_scale: tuple[float, ...]
    omega: float
    gamma: float
    total_information: float
    gap: Optional[GapWindow]
    localized: bool
    gamma_from_gap: float
    max_noninteger_deviation: float
    deviation_site: Optional[tuple[float, int]]
    gamma_folded: Optional[float] = None
    gamma_edge_estimate: Optional[float] = None

    def with_folded(self, gamma_folded: float) -> "LatticeSummary":
        return replace(
            self,
            gamma_folded=gamma_folded,
            gamma_edge_estimate=self.gamma - gamma_folded,
        )


def summarize(lat: InfoLattice, gap_threshold: float = DEFAULT_GAP_THRESHOLD) -> LatticeSummary:
    """Aggregate a lattice into per-scale information and gap diagnostics.

    The large-scale total sums scales ``l >= floor(L/2)``.  The reported gap
    is the widest window of scales below ``gap_threshold`` bounded on both
    sides by scales at or above it; a state counts as localized when such a
    window of width >= 2 exists or when the large-scale total itself lies
    below the threshold (purely short-range information).
    """
    I = lat.info_per_scale()
    L = lat.num_sites
    cut = L // 2
    omega = float(I[:cut].sum())
    gamma = float(I[cut:].sum())

    gap: Optional[GapWindow] = None
    has_wide_interior_gap = False
    run_start: Optional[int] = None
    for scale in range(L + 1):
        below = scale < L and I[scale] < gap_threshold
        if below and run_start is None:
            run_start = scale
        elif not below and run_start is not None:
            end = scale - 1
            interior = run_start > 0 and end < L - 1
            if interior:
                window = GapWindow(run_start, end, float(I[run_start : end + 1].max()))
                if gap is None or window.width > gap.width:
                    gap = window
                if window.width >= 2:
                    has_wide_interior_gap = True
            run_start = None

    localized = has_wide_interior_gap or gamma < gap_threshold
    gamma_from_gap = float(I[gap.start :].sum()) if gap is not None else gamma
    dev, site = lat.max_integer_deviation()
    return LatticeSummary(
        num_sites=L,
        gap_threshold=gap_threshold,
        info_per_scale=tuple(float(v) for v in I),
        omega=omega,
        gamma=gamma,
        total_information=float(I.sum()),
        gap=gap,
        localized=localized,
        gamma_from_gap=gamma_from_gap,
        max_noninteger_deviation=dev,
        deviation_site=site,
    )


def _fold_order(length: int) -> list[int]:
    order: list[int] = []
    for k in range(length // 2):
        order += [k, length - 1 - k]
    if length % 2:
        order.append(length // 2)
    return order


def fold(state: PureState) -> PureState:
    """Combine sites ``n`` and ``L-1-n`` into dimension-``d*d`` sites.

    The left partner is the more significant factor inside each folded site;
    for odd length the lone middle site becomes the last folded site with its
    original dimension.  Amplitudes are only permuted.
    """
    L = state.num_sites
    if L < 2:
        raise ValueError("folding needs at least two sites")
    half = L // 2
    folded = state.tensor().transpose(_fold_order(L)).ravel()
    dims = [state.dims[k] * state.dims[L - 1 - k] for k in range(half)]
    if L % 2:
        dims.append(state.dims[half])
    return PureState(folded, dims)


def interleave(state: PureState) -> PureState:
    """Reorder sites to (0, L-1, 1, L-2, ...) without merging them.

    Same locality change as :func:`fold` but at full site resolution: partner
    sites become neighbors, so edge-to-edge correlations turn local while
    global correlations stay at large scales.
    """
    L = state.num_sites
    if L < 2:
        raise ValueError("interleaving needs at least two sites")
    order = _fold_order(L)
    return PureState(
        state.tensor().transpose(order).ravel(), tuple(state.dims[o] for o in order)
    )


def gamma_folded(
    state: PureState,
    *,
    granularity: str = "site",
    threads: Optional[int] = None,
) -> float:
    """Large-scale information after the fold-in-half locality change.

    ``granularity="site"`` (default) evaluates the pair-interleaved chain at
    full site resolution with the usual ``floor(L/2)`` cutoff;
    ``granularity="pair"`` evaluates the merged dimension-``d*d`` chain with
    cutoff ``floor(L'/2)``.  Both turn edge-to-edge correlations local; the
    site-resolved version keeps odd scales distinguishable, which the
    desk-scale cat-state identities need.

    The large-scale total of the folded chain telescopes.  With ``L`` and
    ``c = floor(L/2)`` the length and cutoff of the folded chain and ``A_l``
    the sum of the interval informations ``I(l, left)`` over all lefts,

        gamma = sum log2 d - A_{c-1} + sum_{left=1}^{L-c} I(c-2, left),

    negative scales counting zero.  That takes at most ``L + 2`` interval
    entropies instead of the ``L(L+1)/2`` of the whole lattice.  It equals
    ``summarize(compute_lattice(chain)).gamma`` except that the per-site
    ``CLAMP_EPS`` clamp does not apply: the two differ by at most (sites at
    scales >= c) x 1e-12, and by at most 2.6e-14 on the default Potts
    sweep grid.
    """
    if granularity == "site":
        chain = interleave(state)
    elif granularity == "pair":
        chain = fold(state)
    else:
        raise ValueError(f"unknown folding granularity {granularity!r}")
    L = chain.num_sites
    cut = L // 2
    upper = [(left, cut - 1) for left in range(L - cut + 1)] if cut >= 1 else []
    lower = [(left, cut - 2) for left in range(1, L - cut + 1)] if cut >= 2 else []
    info = _interval_informations(chain, upper + lower, threads)
    a_upper, inner_lower = info[: len(upper)], info[len(upper) :]
    return math.fsum([*chain.log2_dims, *(-v for v in a_upper), *inner_lower])


def analyze(
    state: PureState,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    *,
    with_fold: bool = True,
    threads: Optional[int] = None,
) -> tuple[InfoLattice, LatticeSummary]:
    """Lattice plus summary, optionally with the folded large-scale total.

    The fold needs at least two sites; ``with_fold`` on a one-site state
    raises ValueError from :func:`gamma_folded`.
    """
    lat = compute_lattice(state, threads=threads)
    summary = summarize(lat, gap_threshold)
    if with_fold:
        summary = summary.with_folded(gamma_folded(state, threads=threads))
    return lat, summary
