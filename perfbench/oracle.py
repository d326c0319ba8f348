"""Independent output oracle for the benchmark.

Nothing here calls franklbip.  Graphs are re-drawn from the documented
sampling scheme (a Philox stream keyed by (root, stream), one uniform per
edge, row-major), and every exact statistic is rebuilt from the identity of
Bruhn, Charbit, Schaudt and Telle (arXiv:1212.4175): the maximal stable sets
of a bipartite graph correspond one-to-one with the members S of the union
closure of {empty} and {N(u) : u in L}.  The set for S has left part
{u : N(u) is a subset of S} and right part R minus S.  So the oracle shares
no code and no algorithm with the subset-scan kernels it checks.

Every check returns a list of mismatch strings; an empty list means the
output agrees with the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1


# --- inputs ------------------------------------------------------------------

def child_stream(stream: int, index: int) -> int:
    """Stream index of sub-stream `index`: shift left 32 bits, or in index."""
    return ((stream << 32) | index) & MASK64


def sample_bits(m: int, n: int, p: float, root: int, stream: int) -> np.ndarray:
    """Edge indicator matrix (m x n booleans) of the graph drawn from (root, stream)."""
    key = np.array([root & MASK64, stream & MASK64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.random((m, n)) < p


def rows_of(bits: np.ndarray) -> list:
    """Left adjacency rows as integers; bit v of row u is edge (u, v)."""
    weights = [1 << v for v in range(bits.shape[1])]
    return [sum(w for w, b in zip(weights, row) if b) for row in bits.tolist()]


def graph_text(bits: np.ndarray) -> str:
    m, n = bits.shape
    body = ["".join("1" if b else "0" for b in row) for row in bits.tolist()]
    return "\n".join([f"{m} {n}"] + body) + "\n"


# --- maximal stable sets via the union closure ----------------------------------

class ClosureStats:
    """Exact MSS statistics of one graph, rebuilt from the union closure."""

    def __init__(self, m: int, n: int, rows):
        if n > 63:
            raise ValueError("oracle packs the right side into 63 bits")
        rows = [int(r) for r in rows]
        closure = np.zeros(1, dtype=np.uint64)
        for row in rows:
            closure = np.union1d(closure, closure | np.uint64(row))
        self.m, self.n = m, n
        self.total = int(closure.size)
        left_size = np.zeros(closure.size, dtype=np.int64)
        lvc = []
        for row in rows:
            # u is in the left part of S's set iff N(u) lies inside S
            inside = (np.uint64(row) & ~closure) == 0
            lvc.append(int(np.count_nonzero(inside)))
            left_size += inside
        self.left_size = left_size
        self.right_size = n - np.bitwise_count(closure).astype(np.int64)
        self.left_hist = tuple(int(c) for c in np.bincount(left_size, minlength=m + 1))
        self.left_vertex_counts = tuple(lvc)
        # v is in the right part iff v is outside S
        self.right_vertex_counts = tuple(
            self.total - int(np.count_nonzero((closure >> np.uint64(v)) & np.uint64(1)))
            for v in range(n)
        )

    def left_average(self) -> Fraction:
        return Fraction(sum(k * c for k, c in enumerate(self.left_hist)), self.total)

    def count_with_sizes(self, ell: int, r: int) -> int:
        return int(np.count_nonzero((self.left_size == ell) & (self.right_size == r)))

    def witness(self, side: str, delta: Fraction):
        counts = self.left_vertex_counts if side == "left" else self.right_vertex_counts
        best = min(range(len(counts)), key=lambda v: (counts[v], v))
        frac = Fraction(counts[best], self.total)
        return (best, frac) if frac <= Fraction(1, 2) + delta else None


def check_mss_stats(stats, ref: ClosureStats) -> list:
    """Compare an object with MssStats' fields against the oracle."""
    errors = []
    for name in ("total", "left_hist", "left_vertex_counts", "right_vertex_counts"):
        got = getattr(stats, name)
        want = getattr(ref, name)
        if got != want:
            errors.append(f"{name}: got {got}, oracle {want}")
    return errors


# --- set families ----------------------------------------------------------------

def family_closure(masks) -> list:
    closure = set()
    for mask in masks:
        closure |= {mask | s for s in closure}
        closure.add(mask)
    return sorted(closure)


def frankl_summary(members):
    """(best element, frequency, satisfied) with ties towards the smallest element."""
    universe = 0
    for mask in members:
        universe |= mask
    best, best_count = None, -1
    for v in range(universe.bit_length()):
        if universe >> v & 1:
            count = sum(1 for mask in members if mask >> v & 1)
            if count > best_count:
                best, best_count = v, count
    return best, Fraction(best_count, len(members)), 2 * best_count >= len(members)


# --- campaigns -------------------------------------------------------------------

def check_sweep(reports, grid, trials: int, root: int, stream: int = 0) -> list:
    """Each averaging-campaign point against its re-drawn graphs."""
    errors = []
    if len(reports) != len(grid):
        return [f"sweep returned {len(reports)} rows for {len(grid)} points"]
    for idx, (rep, (m, n, p, delta)) in enumerate(zip(reports, grid)):
        where = f"point {idx} ({m},{n},{p})"
        if (rep.m, rep.n, rep.trials) != (m, n, trials) or rep.verdict != "informational":
            errors.append(f"{where}: header {(rep.m, rep.n, rep.trials, rep.verdict)}")
            continue
        point_stream = child_stream(stream, idx)
        threshold = (Fraction(1, 2) + Fraction(delta)) * m
        hits = 0
        total_avg = Fraction(0)
        for t in range(trials):
            bits = sample_bits(m, n, p, root, child_stream(point_stream, t))
            avg = ClosureStats(m, n, rows_of(bits)).left_average()
            total_avg += avg
            hits += avg <= threshold
        mean = total_avg / trials
        if rep.extra.get("mean_left_avg") != mean:
            errors.append(f"{where}: mean_left_avg {rep.extra.get('mean_left_avg')}, oracle {mean}")
        if rep.extra.get("hits") != hits or rep.measured != hits / trials:
            errors.append(f"{where}: hits {rep.extra.get('hits')}, oracle {hits}")
        if not rep.extra.get("regime"):
            errors.append(f"{where}: no regime tag")
    return errors


def expected_mss_with_sizes(m: int, n: int, p: float, a: int, b: int) -> float:
    """Expected number of maximal stable sets with a left and b right vertices.

    A fixed (A, B) of those sizes is maximal stable when it has none of its
    a*b edges, every other left vertex sees B and every other right vertex
    sees A: C(m,a) C(n,b) q^(ab) (1 - q^b)^(m-a) (1 - q^a)^(n-b), q = 1 - p.
    """
    q = 1.0 - p
    return (math.comb(m, a) * math.comb(n, b) * q ** (a * b)
            * (1.0 - q ** b) ** (m - a) * (1.0 - q ** a) ** (n - b))


def _stable_pairs_at_least(bits: np.ndarray, ell_star: int, r_star: int) -> int:
    """Stable pairs (A, B), not necessarily maximal, with |A| >= ell_star, |B| >= r_star."""
    m, n = bits.shape
    cover = np.zeros(1 << m, dtype=np.uint64)
    for u, row in enumerate(rows_of(bits)):
        half = 1 << u
        cover[half:2 * half] = cover[:half] | np.uint64(row)
    sizes = np.bitwise_count(np.arange(1 << m, dtype=np.uint64))
    free = n - np.bitwise_count(cover[sizes >= ell_star]).astype(np.int64)
    per_free = np.bincount(free, minlength=n + 1)
    return sum(int(c) * sum(math.comb(f, j) for j in range(r_star, f + 1))
               for f, c in enumerate(per_free.tolist()))


def _mssproba_event(bits, ell, r):
    a_part, rest = bits[:ell], bits[ell:]
    stable = not a_part[:, :r].any()
    return stable and rest[:, :r].any(axis=1).all() and a_part[:, r:].any(axis=0).all()


def _perfect_induced_matching(bits):
    return (bits.sum(axis=1) == 1).all() and (bits.sum(axis=0) == 1).all()


def check_lemma(report, lemma: str, params: dict, trials: int, root: int) -> list:
    """Recompute a registered check's measured value from its re-drawn graphs."""
    p = params["p"]
    m, n = (params["k"], params["k"]) if lemma == "indmatchings" else (params["m"], params["n"])
    hits = 0
    count_sum = 0
    if lemma == "superpoly.lower.bound":
        # a = floor(log_{1/q} n), b = floor(log_{1/q} m)
        scale = -math.log1p(-p)
        a, b = math.floor(math.log(n) / scale), math.floor(math.log(m) / scale)
        expectation = expected_mss_with_sizes(m, n, p, a, b)
        limit = 0.5 * expectation
        if (report.extra.get("a"), report.extra.get("b")) != (a, b):
            return [f"superpoly sizes {report.extra.get('a'), report.extra.get('b')}, oracle {(a, b)}"]
        if not math.isclose(report.extra.get("expectation", math.nan), expectation, rel_tol=1e-9):
            return [f"superpoly expectation {report.extra.get('expectation')}, oracle {expectation}"]
    for t in range(trials):
        bits = sample_bits(m, n, p, root, t)
        if lemma == "mssproba":
            hits += _mssproba_event(bits, params["ell"], params["r"])
        elif lemma == "constrightside":
            hits += bool(bits.all(axis=1).any())
        elif lemma == "indmatchings":
            hits += bool(_perfect_induced_matching(bits))
        elif lemma == "genupper":
            count_sum += _stable_pairs_at_least(bits, params["ell_star"], params["r_star"])
        elif lemma == "superpoly.lower.bound":
            hits += ClosureStats(m, n, rows_of(bits)).count_with_sizes(a, b) > limit
        else:
            raise ValueError(f"oracle has no rule for {lemma!r}")
    errors = []
    want = count_sum / trials if lemma == "genupper" else hits / trials
    if report.lemma_id != lemma or report.trials != trials:
        errors.append(f"{lemma}: header {(report.lemma_id, report.trials)}")
    if report.measured != want:
        errors.append(f"{lemma}: measured {report.measured!r}, oracle {want!r}")
    if lemma == "genupper":
        verdict = "consistent" if report.measured - report.claimed <= report.ci else "violated"
        if report.verdict != verdict:
            errors.append(f"genupper: verdict {report.verdict}, expected {verdict}")
    return errors
