"""Exact enumeration and statistics of maximal stable sets.

A stable set of a bipartite graph is determined by its intersection A with
one side: the companion on the other side must be everything not adjacent
to A, and the pair is maximal iff every vertex dropped from A keeps a
neighbour in that companion.  All counting therefore scans subsets of the
smaller side, the left on a tie.  The kernel takes the graph's rows as they
are stored, picks that side, transposes the rows itself when it is the
right, and hands the statistics back in graph orientation, so each entry
here is one cap check and one kernel call.  Only mss_stats, whose counts
the conjecture's verdict reads, asks the kernel for per-vertex counts.

Counts are exact integers and averages exact rationals: the quantities this
package checks are equalities and inequalities that must not be blurred by
rounding.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

# graphs chooses the kernel, compiled or pure Python, for the sampler and
# for the subset scans here alike, and defines DEFAULT_CAP, the cap of
# every scan, so that cli reads it without importing this module, and
# MAX_SCAN_SIDE, the limit of every cap, which setfamily shares.
from .graphs import (DEFAULT_CAP, KERNEL, MAX_SCAN_SIDE, BipartiteGraph,  # noqa: F401
                     CapExceeded, _impl, _slot_setters, _Value, fraction_text)


class StableSet(NamedTuple):
    """Vertex set split by side; each part is a bitmask over its side."""

    left: int
    right: int


@dataclass(frozen=True)  # perfbench/selftest.py corrupts one with dataclasses.replace
class MssStats:
    """Exact aggregate statistics of the maximal stable sets of one graph."""

    total: int
    left_hist: tuple
    left_vertex_counts: tuple
    right_vertex_counts: tuple

    def left_average(self) -> Fraction:
        return _mean_size(self.left_hist)

    def to_json_dict(self) -> dict:
        return {
            "total": str(self.total),
            "left_hist": list(self.left_hist),
            "left_vertex_counts": list(self.left_vertex_counts),
            "right_vertex_counts": list(self.right_vertex_counts),
        }


class ConjectureVerdict(_Value):
    """Outcome of the up-to-delta check on both bipartition classes.

    satisfied means both sides exhibit a vertex of containment fraction at
    most 1/2 + delta; edgeless graphs are vacuously satisfied and flagged.
    Immutable, and equal, hashed and printed by value.
    """

    __slots__ = ("delta", "left_witness", "right_witness", "satisfied", "vacuous")

    def __init__(self, delta: Fraction, left_witness: Optional[tuple],
                 right_witness: Optional[tuple], satisfied: bool, vacuous: bool = False):
        for set_field, value in zip(_VERDICT_SETTERS, (delta, left_witness, right_witness,
                                                       satisfied, vacuous)):
            set_field(self, value)

    def to_json_dict(self) -> dict:
        def wit(w):
            if w is None:
                return None
            v, frac = w
            return {"vertex": v, "fraction": fraction_text(frac)}

        return {
            "delta": fraction_text(self.delta),
            "left_witness": wit(self.left_witness),
            "right_witness": wit(self.right_witness),
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
        }


_VERDICT_SETTERS = _slot_setters(ConjectureVerdict)


def is_maximal_stable(g: BipartiteGraph, s: StableSet) -> bool:
    """True iff s is stable and every outside vertex has a neighbour in s."""
    left, right = s.left, s.right
    if not 0 <= left < (1 << g.m):
        raise IndexError("left part has vertices out of range")
    if not 0 <= right < (1 << g.n):
        raise IndexError("right part has vertices out of range")
    covered_right = 0
    for row in g.adj:
        if left & 1:
            if row & right:
                return False  # an edge inside s
            covered_right |= row
        elif not row & right:
            return False  # a left vertex outside s with no neighbour in s
        left >>= 1
    return not ((1 << g.n) - 1) & ~right & ~covered_right


def _check_cap(side: int, cap: int = DEFAULT_CAP):
    """The cap check and refusal text of every enumeration path.  The entries
    below call it only when the side may be over the cap: when both sides
    are over cap, or when cap is past MAX_SCAN_SIDE; a campaign's passing
    check is then one inline comparison per trial."""
    limit = min(cap, MAX_SCAN_SIDE)
    if side > limit:
        raise CapExceeded(f"scan side {side} exceeds the cap of {limit}")


def mss_stats(g: BipartiteGraph, cap: int = DEFAULT_CAP) -> MssStats:
    """Aggregate counts without storing sets; memory stays O(m + n).
    Refuses a scan side min(m, n) above cap."""
    if cap < g.m and cap < g.n or cap > MAX_SCAN_SIDE:
        _check_cap(min(g.m, g.n), cap)
    total, left_hist, _, lvc, rvc, _ = _impl.scan_stats(g.adj, g.m, g.n)
    # both kernels return Python ints, so no per-element conversion
    return MssStats(total=total, left_hist=tuple(left_hist),
                    left_vertex_counts=tuple(lvc), right_vertex_counts=tuple(rvc))


def left_hist(g: BipartiteGraph, cap: int = DEFAULT_CAP) -> list:
    """mss_stats(g, cap).left_hist as a list, from a scan that takes no
    per-vertex counts."""
    if cap < g.m and cap < g.n or cap > MAX_SCAN_SIDE:
        _check_cap(min(g.m, g.n), cap)
    return _impl.scan_stats(g.adj, g.m, g.n, -1, -1, 0)[1]


def left_avg(g: BipartiteGraph, cap: int = DEFAULT_CAP) -> Fraction:
    """Average size of the left part over all maximal stable sets, exact."""
    return _mean_size(left_hist(g, cap))


def _mean_size(hist) -> Fraction:
    """Σ k·h[k] / Σ h: the one formula of left_avg and MssStats.left_average."""
    return Fraction(sum(map(operator.mul, range(len(hist)), hist)), sum(hist))


def count_mss_with_sizes(g: BipartiteGraph, ell: int, r: int, cap: int = DEFAULT_CAP) -> int:
    """Exact number of maximal stable sets S with |S∩L| = ell and |S∩R| = r."""
    if cap < g.m and cap < g.n or cap > MAX_SCAN_SIDE:
        _check_cap(min(g.m, g.n), cap)
    return _impl.scan_stats(g.adj, g.m, g.n, ell, r, 0)[5]


def stab_at_least_count(g: BipartiteGraph, ell_star: int, r_star: int,
                        cap: int = DEFAULT_CAP) -> int:
    """Number of stable pairs (A, B), not necessarily maximal, with
    |A| >= ell_star on the left and |B| >= r_star on the right.

    The kernel scans the smaller side, the left on a tie, with its own
    threshold, and returns the histogram of the other side's free part; each
    free part of f vertices holds tails[f] sets B of the other threshold.
    """
    if not 0 <= ell_star <= g.m or not 0 <= r_star <= g.n:
        raise ValueError("thresholds out of range")
    if cap < g.m and cap < g.n or cap > MAX_SCAN_SIDE:
        _check_cap(min(g.m, g.n), cap)
    freq = _impl.scan_free_hist(g.adj, g.m, g.n, ell_star, r_star)
    lo_other = r_star if g.m <= g.n else ell_star
    return sum(map(operator.mul, freq, _binomial_tails(len(freq) - 1, lo_other)))


@functools.lru_cache(maxsize=256)
def _binomial_tails(t: int, lo: int) -> tuple:
    """tails[f] = number of subsets of an f-element set with >= lo elements,
    for f <= t, by tails[f + 1] = 2 tails[f] + C(f, lo - 1); a campaign asks
    for the same (t, lo) on every trial."""
    tails = [int(lo == 0)]
    for f in range(t):
        tails.append(2 * tails[-1] + (math.comb(f, lo - 1) if lo else 0))
    return tuple(tails)


def almost_unstable_vertex(stats: MssStats, side: str, delta) -> Optional[tuple]:
    """Vertex of minimal containment fraction if that fraction is at most
    1/2 + delta, else None.  Ties break towards the smallest index."""
    if side == "left":
        counts = stats.left_vertex_counts
    elif side == "right":
        counts = stats.right_vertex_counts
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    best_v = min(range(len(counts)), key=lambda v: (counts[v], v))
    frac = Fraction(counts[best_v], stats.total)
    if frac <= Fraction(1, 2) + _exact_delta(delta):
        return best_v, frac
    return None


def _exact_delta(delta) -> Fraction:
    """delta as an exact rational; a non-finite delta is refused."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    return Fraction(delta)


def conjecture_check(g: BipartiteGraph, delta=0, cap: int = DEFAULT_CAP) -> ConjectureVerdict:
    """Up-to-delta verdict for both sides from a single enumeration."""
    return verdict_from_stats(mss_stats(g, cap), delta)


def verdict_from_stats(stats: MssStats, delta=0) -> ConjectureVerdict:
    """Up-to-delta verdict from statistics already enumerated; vacuous, and
    trivially satisfied, iff the graph has a single MSS, (L, R): an edge uv
    gives two, (L, R∖N(L)) and (L∖N(R), R), so only an edgeless graph does."""
    delta = _exact_delta(delta)
    vacuous = stats.total == 1
    lw = almost_unstable_vertex(stats, "left", delta)
    rw = almost_unstable_vertex(stats, "right", delta)
    satisfied = vacuous or (lw is not None and rw is not None)
    return ConjectureVerdict(delta, lw, rw, satisfied, vacuous)


def count_left_at_least(hist, threshold) -> int:
    """Number of maximal stable sets with |A∩L| >= threshold in a left-size
    histogram; pass a Fraction for a threshold like m/3, which no float is."""
    # the sizes k >= threshold are those from its ceiling on
    return sum(hist[max(0, math.ceil(Fraction(threshold))):])


# no caller under src/: perfbench/tracing.py wraps it by name
def count_left_at_most(hist, threshold) -> int:
    """Number of maximal stable sets with |A∩L| <= threshold in a left-size histogram."""
    # the sizes k <= threshold are those up to its floor
    return sum(hist[:max(0, math.floor(Fraction(threshold)) + 1)])
