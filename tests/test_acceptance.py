"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either computed by an independent oracle in
this file (exhaustive enumeration, brute force) or is a closed form whose
derivation is spot-checked against such an oracle.
"""

import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_force_mss, enumerate_mss, stab_tail_table, weighted_expectation
from franklbip import cli, mss, verify
from franklbip.bounds import (
    dominating_vertex_prob,
    expected_stab_at_least,
    genupper_bound,
    induced_matching_prob,
    pr_maximal_stable,
)
from franklbip.graphs import Seed, sample_bipartite, serialize_graph
from franklbip.mss import (
    StableSet,
    almost_unstable_vertex,
    conjecture_check,
    count_left_at_least,
    count_left_at_most,
    is_maximal_stable,
    mss_stats,
)
from franklbip.setfamily import SetFamily, frankl_check, union_closure

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_oracle_equivalence(corpus):
    mismatches = 0
    for g, _ in corpus:
        if sorted(enumerate_mss(g)) != brute_force_mss(g):
            mismatches += 1
    _report(1, mismatches == 0,
            f"enumerate_mss == brute_force_mss on {len(corpus)} graphs with m+n<=14 "
            f"({mismatches} mismatches)")


def test_criterion_02_maximality_probability_closed_form():
    failures = []

    def mc_check(m, n, p, ell, r, trials):
        claim = pr_maximal_stable(m, n, p, ell, r)
        fixed = StableSet((1 << ell) - 1, (1 << r) - 1)
        hits = 0
        for t in range(trials):
            if is_maximal_stable(g := sample_bipartite(m, n, p, Seed(202).child(t)), fixed):
                hits += 1
        radius = 4.0 * math.sqrt(claim * (1.0 - claim) / trials)
        freq = hits / trials
        if abs(freq - claim) > radius:
            failures.append((m, n, p, ell, r, freq, claim, radius))
        return freq, claim, radius

    trials = 100_000
    mc_check(6, 6, 0.5, 2, 2, trials)
    # the (2,2) formula value is pinned by exhaustive 16-configuration enumeration
    fixed = StableSet(0b01, 0b01)
    oracle = weighted_expectation(2, 2, 0.5,
                                  lambda g: 1.0 if is_maximal_stable(g, fixed) else 0.0)
    assert oracle == pytest.approx(0.125, abs=1e-12)
    assert pr_maximal_stable(2, 2, 0.5, 1, 1) == pytest.approx(0.125)
    mc_check(2, 2, 0.5, 1, 1, trials)
    _report(2, not failures,
            f"Monte Carlo frequencies within 4 sigma of the closed form at 10^5 "
            f"trials {failures or ''}")


def test_criterion_03_expectation_dominance():
    assert expected_stab_at_least(4, 2, 0.5, 2, 1) == pytest.approx(4.56640625)
    assert genupper_bound(4, 2, 0.5, 2, 1) == 16.0
    violations = 0
    pairs = 0
    for p in (0.2, 0.5, 0.8):
        q = 1.0 - p
        for m in range(1, 31):
            for n in range(1, 31):
                table = stab_tail_table(m, n, p)
                for lo in range(m + 1):
                    if n * q ** lo > 0.5:
                        continue
                    for ro in range(n + 1):
                        pairs += 1
                        if table[lo][ro] > genupper_bound(m, n, p, lo, ro):
                            violations += 1
    _report(3, violations == 0,
            f"exact double sum <= 2^(m+1)(n q^l*)^r* on all {pairs} in-hypothesis "
            f"grid points up to m,n=30 ({violations} exceptions)")


def test_criterion_05_averaging_identities(corpus):
    bad = []
    deltas = (Fraction(0), Fraction(1, 10))
    nus = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    for g, _ in corpus:
        stats = mss_stats(g)
        # double counting: per-vertex totals equal the histogram first moment
        if sum(stats.left_vertex_counts) != sum(
            k * c for k, c in enumerate(stats.left_hist)
        ):
            bad.append(("double-count", g))
            continue
        avg = stats.left_average()
        for delta in deltas:
            if avg <= (Fraction(1, 2) + delta) * g.m:
                if almost_unstable_vertex(stats, "left", delta) is None:
                    bad.append(("averaging-witness", g, delta))
        for delta in deltas:
            for nu in nus:
                large = count_left_at_least(stats.left_hist, (Fraction(1, 2) + delta) * g.m)
                small = count_left_at_most(stats.left_hist, (1 - nu) * Fraction(g.m, 2))
                if small >= Fraction(large, 1) / nu:
                    if avg > (Fraction(1, 2) + delta) * g.m:
                        bad.append(("small-vs-large", g, nu, delta))
    _report(5, not bad,
            f"double counting, low-average witness and small/large implications on "
            f"{len(corpus)} graphs ({len(bad)} exceptions)")


def test_criterion_06_matching_saturation():
    m, n, trials = 3, 4096, 50
    hits = 0
    for t in range(trials):
        g = sample_bipartite(m, n, 0.5, Seed(606).child(t))
        stats = mss_stats(g)
        if stats.total == 8 and stats.left_average() == Fraction(3, 2):
            hits += 1
    _report(6, hits >= 45,
            f"{hits}/{trials} samples at m=3, n=4096 have exactly 8 maximal stable "
            f"sets and left average 3/2 (need >= 45)")


def test_criterion_07_conjecture_frequency():
    trials = 500
    report = verify.run_conjecture_campaign(12, 12, 0.5, 0, trials, Seed(707))
    violations = report.extra["violations"]
    if violations:
        graphs = "\n".join(v["text"] for v in violations)
        pytest.fail(
            "up-to-0 check failed on sampled graphs, which would contradict known "
            f"results at this size; serialized graphs:\n{graphs}"
        )
    ok = report.measured == 1.0
    _report(7, ok,
            f"conjecture verdict satisfied on 100% of {trials - report.extra['vacuous']} "
            f"non-edgeless samples at (12, 12, 0.5, delta=0)")


def test_criterion_08_induced_matching_probability():
    trials = 100_000
    claim = induced_matching_prob(2, 0.5)
    assert claim == pytest.approx(0.125)
    report = verify.verify_lemma("indmatchings", {"k": 2, "p": 0.5}, trials, Seed(808))
    ok = abs(report.measured - claim) <= 4.0 * math.sqrt(claim * (1 - claim) / trials)
    _report(8, ok,
            f"2x2 block perfect-matching frequency {report.measured:.5f} within 4 sigma "
            f"of {claim}")


def test_criterion_09_dominating_vertex_probability():
    trials = 100_000
    claim = dominating_vertex_prob(6, 2, 0.5)
    assert claim == pytest.approx(0.822021484375)
    report = verify.verify_lemma("constrightside", {"m": 6, "n": 2, "p": 0.5},
                                 trials, Seed(909))
    ok = abs(report.measured - claim) <= 4.0 * math.sqrt(claim * (1 - claim) / trials)
    _report(9, ok,
            f"dominating-vertex frequency {report.measured:.5f} within 4 sigma of "
            f"{claim:.5f}")


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    grid = FIXTURE_DIR / "regime_grid.csv"
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    rc1 = cli.main(["sweep", str(grid), "--trials", "3", "--seed", "4242",
                    "--workers", "1", "-o", str(out1)])
    rc8 = cli.main(["sweep", str(grid), "--trials", "3", "--seed", "4242",
                    "--workers", "8", "-o", str(out8)])
    capsys.readouterr()
    identical = out1.read_bytes() == out8.read_bytes()
    regimes = {line.rsplit(",", 1)[1]
               for line in out1.read_text().strip().split("\n")[2:]}
    _report(10, rc1 == 0 and rc8 == 0 and identical and len(regimes) == 7,
            f"sweep over the regime fixture grid is byte-identical for 1 vs 8 workers "
            f"and exercises {len(regimes)} regimes")


def test_criterion_11_set_family_layer():
    rng = np.random.Generator(np.random.Philox(key=np.array([1111, 0], dtype=np.uint64)))
    families = 10_000
    bad = []
    for i in range(families):
        ground = 2 + int(rng.integers(0, 4))  # 2..5
        count = 1 + int(rng.integers(0, 4))
        gens = tuple(int(rng.integers(1, 1 << ground)) for _ in range(count))
        closed = union_closure(SetFamily(ground, gens))
        *_, ok = frankl_check(closed)
        if not ok:
            bad.append(gens)
    _report(11, not bad,
            f"frankl_check satisfied on all {families} seeded union closures with "
            f"ground size <= 5 ({len(bad)} exceptions)")
