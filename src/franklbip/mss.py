"""Exact enumeration and statistics of maximal stable sets.

A stable set of a bipartite graph is determined by its intersection A with
one side: the companion on the other side must be everything not adjacent
to A, and the pair is maximal iff every vertex dropped from A keeps a
neighbour in that companion.  All counting therefore scans subsets of the
smaller side (swapping sides first when the right side is smaller) and maps
the statistics back.

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
        weighted = sum(k * c for k, c in enumerate(self.left_hist))
        return Fraction(weighted, self.total)

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


# the two orientations of a scan: each orders a (left, right) pair as (scan
# side, other side), and is its own inverse, so it maps a result back too
_KEEP, _SWAP = tuple, operator.itemgetter(1, 0)


def _scan_layout(g: BipartiteGraph, cap: int = DEFAULT_CAP):
    """Rows, sizes and orientation for scanning the smaller side, up to cap."""
    _check_cap(min(g.m, g.n), cap)
    if g.n < g.m:
        return g.columns(), g.n, g.m, _SWAP
    return g.adj, g.m, g.n, _KEEP


def _check_cap(side: int, cap: int = DEFAULT_CAP):
    """The cap check and refusal text of every enumeration path."""
    limit = min(cap, MAX_SCAN_SIDE)
    if side > limit:
        raise CapExceeded(f"scan side {side} exceeds the cap of {limit}")


def mss_stats(g: BipartiteGraph, cap: int = DEFAULT_CAP) -> MssStats:
    """Aggregate counts without storing sets; memory stays O(m + n).
    Refuses a scan side min(m, n) above cap."""
    orient, (total, k_hist, f_hist, scan_counts, other_counts, _) = _scan(g, cap)
    left_hist, _ = orient((k_hist, f_hist))
    lvc, rvc = orient((scan_counts, other_counts))
    # both kernels return Python ints, so no per-element conversion
    return MssStats(total=total, left_hist=tuple(left_hist),
                    left_vertex_counts=tuple(lvc), right_vertex_counts=tuple(rvc))


def count_mss_with_sizes(g: BipartiteGraph, ell: int, r: int, cap: int = DEFAULT_CAP) -> int:
    """Exact number of maximal stable sets S with |S∩L| = ell and |S∩R| = r."""
    _, (*_, sel_count) = _scan(g, cap, ell, r)
    return sel_count


def _scan(g: BipartiteGraph, cap: int, ell: int = -1, r: int = -1):
    """(orientation, the kernel's scan_stats tuple) for the smaller side; the
    tuple's last entry counts the sets with |S∩L| = ell and |S∩R| = r."""
    rows, s, t, orient = _scan_layout(g, cap)
    return orient, _impl.scan_stats(rows, s, t, *orient((ell, r)))


def stab_at_least_count(g: BipartiteGraph, ell_star: int, r_star: int,
                        cap: int = DEFAULT_CAP) -> int:
    """Number of stable pairs (A, B), not necessarily maximal, with
    |A| >= ell_star on the left and |B| >= r_star on the right.

    Scans the smaller side, with the thresholds swapped if that is the right.
    """
    if not 0 <= ell_star <= g.m or not 0 <= r_star <= g.n:
        raise ValueError("thresholds out of range")
    rows, s, t, orient = _scan_layout(g, cap)
    lo_scan, lo_other = orient((ell_star, r_star))
    freq = _impl.scan_free_hist(rows, s, t, lo_scan)
    tails = _binomial_tails(t, lo_other)
    return sum(freq[f] * tails[f] for f in range(t + 1))


@functools.lru_cache(maxsize=256)
def _binomial_tails(t: int, lo: int) -> tuple:
    """tails[f] = number of subsets of an f-element set with >= lo elements,
    for f <= t; a campaign asks for the same (t, lo) on every trial."""
    return tuple(sum(math.comb(f, j) for j in range(lo, f + 1)) for f in range(t + 1))


# no caller under src/: perfbench/tracing.py wraps it by name
def left_avg(g: BipartiteGraph) -> Fraction:
    """Average size of the left part over all maximal stable sets, exact."""
    return mss_stats(g).left_average()


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
    return verdict_from_stats(mss_stats(g, cap), g.edge_count() == 0, delta)


def verdict_from_stats(stats: MssStats, vacuous: bool, delta=0) -> ConjectureVerdict:
    """Up-to-delta verdict from statistics already enumerated; vacuous marks
    an edgeless graph, which satisfies the conjecture trivially."""
    delta = _exact_delta(delta)
    lw = almost_unstable_vertex(stats, "left", delta)
    rw = almost_unstable_vertex(stats, "right", delta)
    satisfied = vacuous or (lw is not None and rw is not None)
    return ConjectureVerdict(
        delta=delta,
        left_witness=lw,
        right_witness=rw,
        satisfied=satisfied,
        vacuous=vacuous,
    )


def count_left_at_least(stats: MssStats, threshold) -> int:
    """Number of maximal stable sets with |A∩L| >= threshold.

    Pass a Fraction for thresholds like m/3 that floats cannot represent.
    """
    thr = Fraction(threshold)
    return sum(c for k, c in enumerate(stats.left_hist) if k >= thr)


# no caller under src/: perfbench/tracing.py wraps it by name
def count_left_at_most(stats: MssStats, threshold) -> int:
    """Number of maximal stable sets with |A∩L| <= threshold."""
    thr = Fraction(threshold)
    return sum(c for k, c in enumerate(stats.left_hist) if k <= thr)
