import json
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_edge_configs, brute_force_mss, columns, strict_json, use_kernels
from franklbip import graphs, mss, verify
from franklbip.bounds import HypothesisViolation
from franklbip.graphs import BipartiteGraph, Seed, as_prob, sample_bipartite
from franklbip.mss import CapExceeded
from franklbip.verify import (
    Regime,
    classify_regime,
    reports_to_csv,
    reports_to_json,
    run_average_campaign,
    run_conjecture_campaign,
    sweep,
    verify_lemma,
    wilson_radius,
)

REGIME_GRID = [
    ((12, 3, 0.5), Regime.CONSTANT_RIGHT),
    ((256, 21, 0.65), Regime.LARGE_LEFT),
    ((22, 21, 0.9), Regime.BALANCED),
    ((64, 21, 0.65), Regime.HOEFFDING_BAND),
    ((20, 32, 0.5), Regime.ENTROPY_BAND),
    ((10, 64, 0.5), Regime.GIGANTIC_RIGHT),
    ((2, 300, 0.5), Regime.MATCHING_SATURATED),
]


class TestClassifier:
    def test_constant_right_wins_over_large_left(self):
        assert classify_regime(100, 10, 0.5) is Regime.CONSTANT_RIGHT

    def test_gigantic_right_by_log_comparison(self):
        assert classify_regime(20, 2 ** 40, 0.5, alpha=0.45) is Regime.GIGANTIC_RIGHT

    def test_matching_saturated(self):
        assert classify_regime(2, 2 ** 30, 0.5) is Regime.MATCHING_SATURATED

    @pytest.mark.parametrize("mnp,expected", REGIME_GRID)
    def test_fixture_grid_covers_every_tag(self, mnp, expected):
        m, n, p = mnp
        assert classify_regime(m, n, p) is expected

    def test_alpha_sets_gigantic_boundary(self):
        # log_2(n) = 10 reaches alpha * m = 9.8 at alpha = 0.49, log_2(n) = 9 does not
        assert classify_regime(20, 2 ** 10, 0.5, alpha=0.49) is Regime.GIGANTIC_RIGHT
        assert classify_regime(20, 2 ** 9, 0.5, alpha=0.49) is Regime.ENTROPY_BAND

    @pytest.mark.parametrize("m,n,p,expected", [
        # log_{1/q}(1000) is 3 = m/16 exactly at p = .9, and x is 2.9999999999999996
        (48, 1000, 0.9, Regime.ENTROPY_BAND),
        (48, 1001, 0.9, Regime.ENTROPY_BAND),
        (48, 999, 0.9, Regime.HOEFFDING_BAND),
        # q is 10^-16 for the shortest decimal of p, but 2^-53 for the float p,
        # so x is 1.0028 at n = 10^16 - 1 and 1.0000000000000002 at n = 10^16
        (1, 10 ** 16 - 1, 0.9999999999999999, Regime.GIGANTIC_RIGHT),
        (1, 10 ** 16, 0.9999999999999999, Regime.MATCHING_SATURATED),
    ], ids=["48-1000-power", "48-1001", "48-999", "near-one-below", "near-one-power"])
    def test_integer_edge_decided_by_exact_floor(self, m, n, p, expected):
        # ties go to the earlier band
        assert classify_regime(m, n, p) is expected

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            classify_regime(4, 4, 0.5, alpha=0.5)

    @given(
        st.integers(1, 10 ** 6),
        st.integers(1, 10 ** 9),
        st.floats(0.01, 0.99),
        st.floats(1 / 16, 0.4999),
    )
    @settings(max_examples=300, deadline=None)
    def test_total_and_single_valued(self, m, n, p, alpha):
        tag = classify_regime(m, n, p, alpha=alpha)
        assert isinstance(tag, Regime)

    def test_huge_n_stays_in_log_domain(self):
        assert classify_regime(3, 10 ** 500, 0.5) is Regime.MATCHING_SATURATED

    def test_n_past_float_range_reaches_balanced(self):
        # log_2(n) = 1100 is below m^(1/5) = 1585, so n^(1/5) decides, and
        # float(n) would overflow
        assert classify_regime(10 ** 16, 1 << 1100, 0.5) is Regime.BALANCED
        assert classify_regime(10 ** 16, (1 << 1024) - 1, 0.5) is Regime.BALANCED

    @pytest.mark.parametrize("lemma,message", [
        ("largeleftupper", "needs m >= q^(-n^(1/5))"),
        ("superpoly.lower.bound", "needs n <= q^(-m^(1/5))"),
    ], ids=["largeleftupper", "superpoly"])
    def test_hypotheses_take_n_past_float_range(self, lemma, message):
        with pytest.raises(HypothesisViolation, match=re.escape(message)):
            verify_lemma(lemma, {"m": 4, "n": 1 << 1100, "p": 0.5}, 1, Seed(0))


class TestAverageCampaign:
    def test_complete_fixture_hits_half_exactly(self):
        rep = run_average_campaign(5, 5, 1.0, 0.0, 8, Seed(1))
        assert rep.measured == 1.0
        assert rep.extra["mean_left_avg"] == Fraction(5, 2)

    def test_empty_fixture_never_passes_below_half_delta(self):
        rep = run_average_campaign(5, 5, 0.0, 0.1, 8, Seed(1))
        assert rep.measured == 0.0

    def test_reports_wilson_radius(self):
        rep = run_average_campaign(8, 8, 0.5, 0.1, 40, Seed(3))
        assert rep.verdict == verify.INFORMATIONAL
        assert 0 < rep.ci <= 1
        assert rep.ci == pytest.approx(wilson_radius(rep.extra["hits"], 40))

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            run_average_campaign(31, 31, 0.5, 0.0, 1, Seed(1))

    def test_brute_force_engine_gives_identical_report(self, monkeypatch):
        def brute_stats(g, cap):
            assert cap == mss.DEFAULT_CAP
            sets = brute_force_mss(g)
            hist = [0] * (g.m + 1)
            for s in sets:
                hist[s.left.bit_count()] += 1
            return mss.MssStats(
                total=len(sets),
                left_hist=tuple(hist),
                left_vertex_counts=tuple(
                    sum(1 for s in sets if s.left >> u & 1) for u in range(g.m)
                ),
                right_vertex_counts=tuple(
                    sum(1 for s in sets if s.right >> v & 1) for v in range(g.n)
                ),
            )

        fast = run_average_campaign(6, 6, 0.5, 0.05, 30, Seed(9))
        # the campaign reads each graph's left average alone
        monkeypatch.setattr(mss, "left_avg", lambda g, cap: brute_stats(g, cap).left_average())
        slow = run_average_campaign(6, 6, 0.5, 0.05, 30, Seed(9))
        assert fast == slow

    @given(st.data(), st.integers(1, 12),
           st.one_of(st.sampled_from([0.0, -0.2, 1e-9, -1e-9, 0.1, 0.5, 13.5, -13.5]),
                     st.floats(-30.0, 30.0)))
    def test_integer_fold_is_the_fraction_fold(self, data, m, delta):
        # the exact threshold (1/2 + delta) m is itself among the averages,
        # so the fold's <= is tested at equality
        threshold = (Fraction(1, 2) + Fraction(delta)) * m
        averages = data.draw(st.lists(st.one_of(st.fractions(0, m, max_denominator=10 ** 6),
                                                st.just(threshold)), min_size=1, max_size=40))
        _, summary = verify._CHECKS["average"].setup(m, m, as_prob(0.5), {"delta": delta})
        *_, extra = summary(iter(averages), len(averages))
        hits = sum(avg <= threshold for avg in averages)
        mean = sum(averages, Fraction(0)) / len(averages)
        assert extra == {"mean_left_avg": mean, "hits": hits}
        assert type(extra["mean_left_avg"]) is Fraction


def test_readme_lists_every_check():
    from conftest import ROOT

    section = (ROOT / "README.md").read_text().split("### Named checks\n", 1)[1]
    section = section.split("\n#", 1)[0]
    assert sorted(re.findall(r"^- `([^`]+)`", section, re.M)) == verify.known_lemmas()


class TestConjectureCampaign:
    def test_one_one_all_non_edgeless_satisfied(self):
        rep = run_conjecture_campaign(1, 1, 0.5, 0.0, 200, Seed(5))
        assert rep.measured == 1.0
        edgeless = sum(sample_bipartite(1, 1, 0.5, key).adj == (0,)
                       for key in Seed(5).children(200))
        assert rep.extra["vacuous"] == edgeless and 0 < edgeless < 200
        assert not rep.extra["violations"]

    def test_constant_right_sizes(self):
        rep = run_conjecture_campaign(12, 3, 0.5, 0.0, 60, Seed(6))
        assert rep.measured == 1.0
        assert rep.verdict == verify.INFORMATIONAL

    def test_vacuous_counting_at_p_zero(self):
        rep = run_conjecture_campaign(2, 2, 0.0, 0.0, 10, Seed(7))
        assert rep.extra["vacuous"] == 10
        assert math.isnan(rep.measured)

    def test_brute_force_engine_gives_identical_report(self, monkeypatch):
        def brute_check(g, delta, cap):
            assert cap == mss.DEFAULT_CAP
            sets = brute_force_mss(g)
            hist = [0] * (g.m + 1)
            for s in sets:
                hist[s.left.bit_count()] += 1
            stats = mss.MssStats(
                total=len(sets),
                left_hist=tuple(hist),
                left_vertex_counts=tuple(
                    sum(1 for s in sets if s.left >> u & 1) for u in range(g.m)
                ),
                right_vertex_counts=tuple(
                    sum(1 for s in sets if s.right >> v & 1) for v in range(g.n)
                ),
            )
            vacuous = g.edge_count() == 0
            lw = mss.almost_unstable_vertex(stats, "left", delta)
            rw = mss.almost_unstable_vertex(stats, "right", delta)
            return mss.ConjectureVerdict(
                delta=Fraction(delta), left_witness=lw, right_witness=rw,
                satisfied=vacuous or (lw is not None and rw is not None),
                vacuous=vacuous,
            )

        fast = run_conjecture_campaign(5, 5, 0.4, 0.0, 40, Seed(31))
        monkeypatch.setattr(mss, "conjecture_check", brute_check)
        slow = run_conjecture_campaign(5, 5, 0.4, 0.0, 40, Seed(31))
        assert fast == slow


def test_expected_total_identity_monte_carlo():
    # summing the fixed-set probability over all (l, r) classes with their
    # multiplicities gives the expected number of maximal stable sets
    from franklbip.bounds import pr_maximal_stable
    from franklbip.graphs import sample_bipartite

    m = n = 6
    p = 0.5
    expected_total = sum(
        math.comb(m, ell) * math.comb(n, r) * pr_maximal_stable(m, n, p, ell, r)
        for ell in range(m + 1)
        for r in range(n + 1)
    )
    trials = 3000
    total_sum = 0
    total_sq = 0
    for t in range(trials):
        tot = mss.mss_stats(sample_bipartite(m, n, p, Seed(29).child(t))).total
        total_sum += tot
        total_sq += tot * tot
    mean = total_sum / trials
    var = total_sq / trials - mean * mean
    assert abs(mean - expected_total) <= 4.0 * math.sqrt(var / trials)


def test_classifier_totality_over_seeded_tuples():
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
    for _ in range(10_000):
        m = int(rng.integers(1, 10 ** 6))
        n = int(rng.integers(1, 10 ** 9))
        p = float(rng.uniform(0.01, 0.99))
        alpha = float(rng.uniform(1 / 16, 0.4999))
        # exactly one tag, no overflow, for every tuple in the box
        assert isinstance(classify_regime(m, n, p, alpha=alpha), Regime)


# each entry point that takes a trial count
EVERY_TRIAL_RUNNER = pytest.mark.parametrize("run", [
    lambda trials: verify_lemma("mssproba", {"m": 4, "n": 4, "p": 0.5, "ell": 1, "r": 1},
                                trials, Seed(1)),
    lambda trials: run_average_campaign(3, 3, 0.5, 0.0, trials, Seed(1)),
    lambda trials: run_conjecture_campaign(3, 3, 0.5, 0.0, trials, Seed(1)),
    lambda trials: sweep([(3, 3, 0.5, 0.0), (40, 40, 0.5, 0.0)], trials, Seed(1)),
], ids=["verify_lemma", "average", "conjecture", "sweep"])


@pytest.mark.parametrize("trials", [0, -3])
@EVERY_TRIAL_RUNNER
def test_trials_below_one_refused_before_sampling(monkeypatch, run, trials):
    monkeypatch.setattr(verify, "sample_bipartite", None)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run(trials)


@EVERY_TRIAL_RUNNER
def test_trials_over_two_to_the_32_refused_before_sampling(monkeypatch, run):
    # trial 2^32 of point 0 would draw on the stream of trial 0 of point 1
    assert Seed(1).child(0).child(2 ** 32) == Seed(1).child(1).child(0)
    calls = []

    def counting_sampler(*args):
        calls.append(args)
        return sample_bipartite(*args)

    monkeypatch.setattr(verify, "sample_bipartite", counting_sampler)
    with pytest.raises(ValueError, match=r"trials must be <= 2\^32 = 4294967296"):
        run(2 ** 32 + 1)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_refused_before_sampling(monkeypatch, workers):
    monkeypatch.setattr(verify, "sample_bipartite", None)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        sweep([(3, 3, 0.5, 0.0)], 2, Seed(1), workers=workers)


def _sweep_point(side):
    """One sweep point of the given side, its error row raised again."""
    (rep,) = sweep([(side, side, 0.5, 0.0)], 1, Seed(1))
    if rep.verdict == verify.ERROR:
        kind, _, text = rep.extra["error"].partition(": ")
        assert kind == "CapExceeded"
        raise CapExceeded(text)


# every path that enumerates, each called with one square side at p = 1/2
CAP_PATHS = {
    "stats": lambda side: mss.mss_stats(sample_bipartite(side, side, 0.5, Seed(1))),
    "largeleftupper": lambda side: verify_lemma(
        "largeleftupper", {"m": side, "n": side, "p": 0.5}, 1, Seed(1), strict=False),
    "average": lambda side: run_average_campaign(side, side, 0.5, 0.0, 1, Seed(1)),
    "conjecture": lambda side: run_conjecture_campaign(side, side, 0.5, 0.0, 1, Seed(1)),
    "sweep": _sweep_point,
}


# one point per registered check, run with strict=False
ROW_POINTS = {
    "mssproba": {"m": 6, "n": 6, "p": 0.5, "ell": 2, "r": 2},
    "genupper": {"m": 8, "n": 2, "p": 0.5, "ell_star": 3, "r_star": 1},
    "indmatchings": {"k": 3, "p": 0.5},
    "constrightside": {"m": 6, "n": 2, "p": 0.5},
    "veryverylargeside": {"m": 3, "n": 24, "p": 0.5},
    "largeleftupper": {"m": 16, "n": 6, "p": 0.5},
    "squpperbound": {"m": 10, "n": 16, "p": 0.5},
    "superpoly.lower.bound": {"m": 12, "n": 12, "p": 0.9},
    "lem.hoeffding.exp": {"m": 4, "n": 100, "p": 0.9},
    "asymptotic.lower.bound": {"m": 4, "n": 100, "p": 0.9, "phi": 0.5},
    "average": {"m": 7, "n": 5, "p": 0.4, "delta": 0.05},
    "conjecture": {"m": 3, "n": 2, "p": 0.3, "delta": 0.1},
}
# every row but these three enumerates, and asks _scan_cap for its cap
NON_SCANNING_ROWS = ("mssproba", "indmatchings", "constrightside")
SCANNING_ROWS = [lemma for lemma in ROW_POINTS if lemma not in NON_SCANNING_ROWS]
# a smaller side of 31 for each row that scans; a' needs n >= m^log_{1/q}(m)
OVER_CAP_SIDES = {lemma: {"m": 31, "n": 31} for lemma in SCANNING_ROWS}
OVER_CAP_SIDES["genupper"] = {"m": 40, "n": 31}
OVER_CAP_SIDES["lem.hoeffding.exp"] = OVER_CAP_SIDES["asymptotic.lower.bound"] = {
    "m": 31, "n": 200}


def test_row_points_cover_every_check():
    assert sorted(ROW_POINTS) == verify.known_lemmas()


@pytest.mark.parametrize("lemma", ROW_POINTS)
def test_scans_flag_matches_the_event(monkeypatch, lemma):
    # one trial enumerates exactly when the row's setup asked for its cap
    calls, caps = [], []
    for name in ("scan_stats", "scan_free_hist"):
        real = getattr(mss._impl, name)
        monkeypatch.setattr(mss._impl, name,
                            lambda *args, _real=real: calls.append(args) or _real(*args))
    real_cap = verify._scan_cap
    monkeypatch.setattr(verify, "_scan_cap",
                        lambda *args: caps.append(args) or real_cap(*args))
    verify_lemma(lemma, dict(ROW_POINTS[lemma]), 1, Seed(1), strict=False)
    assert bool(calls) == bool(caps) == (lemma in SCANNING_ROWS)
    assert len(caps) <= 1


@pytest.mark.parametrize("lemma", SCANNING_ROWS)
def test_only_the_conjecture_scans_for_vertex_counts(monkeypatch, lemma):
    # every other row reads sizes alone, so its scans take counts = 0
    counts, real = [], mss._impl.scan_stats
    monkeypatch.setattr(mss._impl, "scan_stats",
                        lambda *args: counts.append(args[5] if len(args) > 5 else 1) or real(*args))
    verify_lemma(lemma, dict(ROW_POINTS[lemma]), 2, Seed(1), strict=False)
    # genupper scans free parts with scan_free_hist
    assert set(counts) == (set() if lemma == "genupper" else {int(lemma == "conjecture")})


class TestOneCap:
    """Every enumeration path applies mss's cap, with mss's refusal text."""

    @pytest.mark.parametrize("lemma", SCANNING_ROWS)
    def test_over_cap_row_refused_before_any_draw(self, monkeypatch, lemma):
        draws = []
        monkeypatch.setattr(verify, "sample_bipartite", lambda *args: draws.append(args))
        params = {**ROW_POINTS[lemma], **OVER_CAP_SIDES[lemma]}
        with pytest.raises(CapExceeded, match="^scan side 31 exceeds the cap of 30$"):
            verify_lemma(lemma, params, 3, Seed(1), strict=False)
        assert draws == []

    @pytest.mark.parametrize("lemma", ["largeleftupper", "squpperbound"])
    def test_closed_form_refuses_before_the_cap(self, monkeypatch, lemma):
        # m = 40 is over the cap, but float(n) at n = 2^1100 overflows first,
        # in the setup's closed form
        draws = []
        monkeypatch.setattr(verify, "sample_bipartite", lambda *args: draws.append(args))
        with pytest.raises(OverflowError):
            verify_lemma(lemma, {"m": 40, "n": 1 << 1100, "p": 0.5}, 3, Seed(1), strict=False)
        assert draws == []

    def test_delta_refuses_before_the_cap(self, monkeypatch):
        # the average row reads its threshold before it asks for its cap
        draws = []
        monkeypatch.setattr(verify, "sample_bipartite", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="^delta must be finite, got inf$"):
            run_average_campaign(31, 31, 0.5, math.inf, 3, Seed(1))
        assert draws == []

    def test_genupper_scans_the_smaller_side(self, kernel):
        # m = 40 is over the cap, but the scan walks the 3 right vertices
        params = {"m": 40, "n": 3, "p": 0.5, "ell_star": 3, "r_star": 1}
        rep = verify_lemma("genupper", params, 20, Seed(40))
        assert rep.verdict == verify.CONSISTENT
        g = graphs.sample_bipartite(40, 3, 0.5, Seed(41))
        cols = columns(g)
        # pairs (A, B): for each B with |B| >= 1, every A of >= 3 vertices off N(B)
        want = 0
        for b_mask in range(1, 8):
            free = 40 - sum(1 for u in range(40)
                            if any(b_mask >> v & 1 and cols[v] >> u & 1 for v in range(3)))
            want += sum(math.comb(free, j) for j in range(3, free + 1))
        assert mss.stab_at_least_count(g, 3, 1) == want

    @pytest.mark.parametrize("path", CAP_PATHS)
    def test_default_cap(self, kernel, path):
        cap = mss.DEFAULT_CAP
        CAP_PATHS[path](cap)
        with pytest.raises(CapExceeded) as exc:
            CAP_PATHS[path](cap + 1)
        assert str(exc.value) == f"scan side {cap + 1} exceeds the cap of {cap}"

    @pytest.mark.parametrize("lemma", SCANNING_ROWS)
    def test_caller_cap_reaches_the_event(self, monkeypatch, lemma):
        # a cap of 40 lets a smaller side of 31 through the runner and the event alike
        draws = []
        real = verify.sample_bipartite
        monkeypatch.setattr(verify, "sample_bipartite",
                            lambda *args: draws.append(args) or real(*args))
        params = {**ROW_POINTS[lemma], **OVER_CAP_SIDES[lemma], "cap": 40}
        if lemma == "genupper":
            params["r_star"] = 30  # the free-part scan visits 32 subsets, not 2^31
        rep = verify_lemma(lemma, params, 3, Seed(1), strict=False)
        assert (rep.lemma_id, rep.trials, len(draws)) == (lemma, 3, 3)

    @pytest.mark.parametrize("path", ["average", "conjecture", "sweep"])
    def test_over_cap_campaign_draws_nothing(self, monkeypatch, path):
        draws = []
        monkeypatch.setattr(verify, "sample_bipartite", lambda *args: draws.append(args))
        with pytest.raises(CapExceeded):
            CAP_PATHS[path](mss.DEFAULT_CAP + 1)
        assert draws == []


class TestVerifyLemma:
    def test_mssproba_consistent(self):
        rep = verify_lemma(
            "mssproba", {"m": 6, "n": 6, "p": 0.5, "ell": 2, "r": 2}, 4000, Seed(11)
        )
        assert rep.verdict == verify.CONSISTENT
        assert abs(rep.measured - rep.claimed) <= rep.ci

    def test_genupper_consistent_and_below_exact(self):
        rep = verify_lemma(
            "genupper",
            {"m": 8, "n": 2, "p": 0.5, "ell_star": 3, "r_star": 1},
            2000,
            Seed(12),
        )
        assert rep.verdict == verify.CONSISTENT
        assert rep.measured <= rep.extra["exact_expectation"] + rep.ci
        assert rep.extra["exact_expectation"] <= rep.claimed

    def test_unknown_lemma(self):
        with pytest.raises(verify.UnknownLemma):
            verify_lemma("nosuch", {}, 5, Seed(1))

    def test_missing_parameter(self):
        with pytest.raises(verify.MissingParameter):
            verify_lemma("mssproba", {"m": 4, "n": 4, "p": 0.5}, 5, Seed(1))

    def test_missing_parameter_comes_before_hypothesis(self):
        # without r_star, and outside the genupper hypothesis as well
        with pytest.raises(verify.MissingParameter, match="r_star"):
            verify_lemma("genupper", {"m": 4, "n": 3, "p": 0.5, "ell_star": 1}, 5, Seed(1))

    def test_genupper_reports_delta_as_float(self):
        rep = verify_lemma(
            "genupper",
            {"m": 8, "n": 2, "p": 0.5, "ell_star": 3, "r_star": 1, "delta": 0},
            5,
            Seed(12),
        )
        assert type(rep.delta) is float
        assert rep.csv_row().split(",")[4] == "0.0"

    def test_strict_hypothesis_refusal(self):
        with pytest.raises(HypothesisViolation):
            verify_lemma(
                "genupper",
                {"m": 4, "n": 3, "p": 0.5, "ell_star": 1, "r_star": 1},
                5,
                Seed(1),
            )

    @pytest.mark.parametrize("lemma,params", [
        ("lem.hoeffding.exp", {"m": 4, "n": 2, "p": 0.9}),
        ("asymptotic.lower.bound", {"m": 4, "n": 2, "p": 0.9, "phi": 0.5}),
    ], ids=["hoeffding", "asymptotic"])
    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "informational"])
    def test_undefined_a_prime_refused_in_both_modes(self, lemma, params, strict):
        # the event counts sets with a left side of a', so it cannot run without
        # one; in strict mode hoeffding's own hypothesis refuses first
        match = "a' undefined" if not strict or lemma == "asymptotic.lower.bound" else None
        with pytest.raises(HypothesisViolation, match=match):
            verify_lemma(lemma, params, 5, Seed(1), strict=strict)

    def test_a_prime_of_m_runs(self):
        # a' = m is the largest size a left part has, so the event reads it;
        # one more refuses, as test_exit_codes checks
        rep = verify_lemma("lem.hoeffding.exp", {"m": 4, "n": 300, "p": 0.5}, 2, Seed(0),
                           strict=False)
        assert (rep.extra["a_prime"], rep.verdict) == (4, verify.INFORMATIONAL)

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "informational"])
    def test_asymptotic_setup_refuses_undefined_a_prime(self, monkeypatch, strict):
        # log_{1/q}(2) = 0.30 lies in [m/16, m/2], so the hypothesis holds; but
        # n = 2 is below m^log_{1/q}(m), and the setup refuses in either mode
        params = {"m": 4, "n": 2, "p": 0.9, "phi": 0.5}
        verify._CHECKS["asymptotic.lower.bound"].hypothesis(4, 2, as_prob(0.9), params)
        draws = []
        monkeypatch.setattr(verify, "sample_bipartite", lambda *args: draws.append(args))
        text = "n is below m^log_{1/q}(m); a' undefined"
        with pytest.raises(HypothesisViolation, match=f"^{re.escape(text)}$"):
            verify_lemma("asymptotic.lower.bound", params, 5, Seed(1), strict=strict)
        assert draws == []

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "informational"])
    def test_squpperbound_refuses_alpha_out_of_range(self, monkeypatch, strict):
        # the hypothesis reads alpha, so it refuses an alpha of 5 in either
        # mode, with the text of regime and sweep; n <= q^(-alpha m) holds
        draws = []
        monkeypatch.setattr(verify, "sample_bipartite", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match=re.escape("alpha must lie in [1/16, 1/2), got 5.0")):
            verify_lemma("squpperbound", {"m": 10, "n": 16, "p": 0.5, "alpha": 5.0}, 3, Seed(1),
                         strict=strict)
        assert draws == []

    def test_informational_mode_runs_outside_hypothesis(self):
        rep = verify_lemma(
            "squpperbound", {"m": 4, "n": 3000, "p": 0.5}, 5, Seed(1), strict=False
        )
        assert rep.verdict == verify.INFORMATIONAL
        assert rep.extra["outside_hypothesis"] is True

    def test_indmatchings_consistent(self):
        rep = verify_lemma("indmatchings", {"k": 2, "p": 0.5}, 8000, Seed(13))
        assert rep.claimed == pytest.approx(0.125)
        assert rep.verdict == verify.CONSISTENT

    def test_constrightside_consistent(self):
        rep = verify_lemma("constrightside", {"m": 6, "n": 2, "p": 0.5}, 8000, Seed(14))
        assert rep.claimed == pytest.approx(0.822021484375)
        assert rep.verdict == verify.CONSISTENT

    def test_veryverylargeside_counts_saturated_totals(self):
        rep = verify_lemma("veryverylargeside", {"m": 3, "n": 512, "p": 0.5}, 25, Seed(15))
        assert rep.verdict == verify.INFORMATIONAL
        assert rep.measured >= 0.8

    def test_saturated_total_has_left_average_half(self, kernel):
        # veryverylargeside's event reads the total alone: on every graph up
        # to 3x4 and 4x3, a total of 2^m comes with a left average of m/2
        saturated = 0
        for m, n in ((m, n) for m in range(1, 5) for n in range(1, 5) if m * n <= 12):
            for g in all_edge_configs(m, n):
                stats = mss.mss_stats(g)
                if stats.total == 1 << m:
                    saturated += 1
                    assert stats.left_average() == Fraction(m, 2), g
        assert saturated == 318

    def test_largeleftupper_smoke(self):
        rep = verify_lemma("largeleftupper", {"m": 16, "n": 6, "p": 0.5}, 50, Seed(16))
        assert rep.verdict == verify.INFORMATIONAL
        assert 0.0 <= rep.measured <= 1.0

    def test_squpperbound_smoke(self):
        rep = verify_lemma("squpperbound", {"m": 10, "n": 16, "p": 0.5}, 50, Seed(17))
        assert rep.verdict == verify.INFORMATIONAL

    def test_superpoly_smoke(self):
        rep = verify_lemma("superpoly.lower.bound", {"m": 12, "n": 12, "p": 0.9}, 60, Seed(18))
        assert rep.verdict == verify.INFORMATIONAL
        assert rep.extra["a"] == 1 and rep.extra["b"] == 1

    def test_hoeffding_exp_smoke(self):
        rep = verify_lemma("lem.hoeffding.exp", {"m": 4, "n": 100, "p": 0.9}, 40, Seed(19))
        assert rep.verdict == verify.INFORMATIONAL
        assert rep.extra["a_prime"] == 1

    def test_hoeffding_exp_refuses_n_past_q_to_minus_m(self):
        # n = 2^129 passes n >= m^(2 log_2 m) = 2^98 but not n <= 2^128; a
        # check that let it through would refuse only at the cap, with
        # CapExceeded
        with pytest.raises(HypothesisViolation, match=re.escape("needs n <= q^(-m)")):
            verify_lemma("lem.hoeffding.exp", {"m": 128, "n": 1 << 129, "p": 0.5}, 1, Seed(0))

    @pytest.mark.parametrize("count,hit", [(1, False), (2, False), (3, True)])
    def test_superpoly_event_is_strictly_above_half_expectation(self, monkeypatch, count,
                                                                hit):
        # E/2 is 2: the event is count > E/2, so a count of exactly 2 misses
        monkeypatch.setattr(verify.bounds, "expected_small_mss", lambda *args: 4.0)
        monkeypatch.setattr(mss, "count_mss_with_sizes", lambda *args: count)
        event, _ = verify._CHECKS["superpoly.lower.bound"].setup(12, 12, as_prob(0.9), {})
        assert event(sample_bipartite(12, 12, 0.9, Seed(1))) is hit

    def test_largeleftupper_counts_left_parts_of_at_least_a_third(self):
        # one right vertex joined to 9 of 12 left vertices: the MSS are the
        # whole left side and that vertex with the other 3, whose left part is
        # m/4 < m/3; n^r_star is 1, so the event holds at m/3 but not at m/4
        g = BipartiteGraph(12, 1, (1,) * 9 + (0,) * 3)
        hist = mss.left_hist(g)
        assert [mss.count_left_at_least(hist, Fraction(12, k)) for k in (3, 4)] == [1, 2]
        event, _ = verify._CHECKS["largeleftupper"].setup(12, 1, as_prob(0.5), {})
        assert event(g) is True

    @pytest.mark.parametrize("radii,verdict", [(0.9, verify.CONSISTENT), (1.5, verify.VIOLATED)])
    def test_mean_at_most_allows_one_radius(self, radii, verdict):
        # 8 zeros and 8 twos: mean 1, variance 1 and radius CI_Z / 4 = 1; the
        # claimed bound sits `radii` radii below the mean
        summary = verify._mean_at_most(1.0 - radii, {})
        _, measured, ci, got, _ = summary(iter([0] * 8 + [2] * 8), 16)
        assert (measured, ci, got) == (1.0, verify.CI_Z / 4, verdict)

    def test_mean_at_most_radius_is_exact_for_large_counts(self):
        # counts 2^40 and 2^40 + 1 have variance 1/4, so the radius is
        # CI_Z / sqrt(32); E[X^2] - E[X]^2 in floats cancels to 0 here
        summary = verify._mean_at_most(0.0, {})
        _, _, ci, _, _ = summary(iter([1 << 40, (1 << 40) + 1] * 4), 8)
        assert ci == verify.CI_Z * math.sqrt(1 / 32)

    def test_hoeffding_exp_near_p_one(self):
        # c = exp(-(2/q + 1)) is 0.0 at p = .999, so the threshold is 0.0
        rep = verify_lemma("lem.hoeffding.exp", {"m": 4, "n": 100, "p": 0.999}, 10, Seed(19))
        assert rep.verdict == verify.INFORMATIONAL
        assert rep.extra["count_threshold"] == 0.0

    def test_numpy_integer_sides_give_int_report(self):
        params = {"m": np.int64(4), "n": np.int64(3), "p": 0.5, "ell": 1, "r": 1}
        rep = verify_lemma("mssproba", params, 20, Seed(2))
        assert type(rep.m) is int and type(rep.n) is int
        assert rep == verify_lemma("mssproba", {**params, "m": 4, "n": 3}, 20, Seed(2))
        assert strict_json(reports_to_json([rep]))["reports"][0]["m"] == 4

    def test_asymptotic_lower_smoke(self):
        rep = verify_lemma(
            "asymptotic.lower.bound", {"m": 4, "n": 100, "p": 0.9, "phi": 0.5}, 40, Seed(20)
        )
        assert rep.verdict == verify.INFORMATIONAL
        assert rep.extra["lam"] == pytest.approx(0.5)

class TestSweep:
    GRID3 = [(3, 3, 0.5, 0.0), (4, 2, 0.5, 0.1), (2, 4, 0.8, 0.0)]

    def test_reports_in_input_order(self):
        reps = sweep(self.GRID3, 5, Seed(42))
        assert [(r.m, r.n) for r in reps] == [(3, 3), (4, 2), (2, 4)]

    def test_same_seed_reruns_identical(self):
        a = reports_to_csv(sweep(self.GRID3, 5, Seed(42)), with_regime=True)
        b = reports_to_csv(sweep(self.GRID3, 5, Seed(42)), with_regime=True)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_own_their_extras(self, workers):
        reps = sweep(self.GRID3 * 3, 3, Seed(7), workers=workers)
        # each row's regime goes into that row's extra alone
        assert len({id(rep.extra) for rep in reps}) == len(reps)
        rows = json.loads(reports_to_json(reps))["reports"]
        assert [list(row)[-3:] for row in rows] == [["mean_left_avg", "hits", "regime"]] * 9

    def test_worker_count_does_not_change_bytes(self):
        a = reports_to_csv(sweep(self.GRID3, 5, Seed(42), workers=1), with_regime=True)
        b = reports_to_csv(sweep(self.GRID3, 5, Seed(42), workers=8), with_regime=True)
        assert a == b

    def test_numpy_integer_sides_give_int_rows(self):
        # a run row, a cap refusal and a degenerate p, each serialisable
        grid = [(np.int64(3), np.int64(4), 0.5, 0.0), (np.int64(31), np.int64(31), 0.5, 0.0),
                (np.int64(3), np.int64(4), 1.0, 0.0)]
        reps = sweep(grid, 3, Seed(5))
        assert [r.verdict for r in reps] == [verify.INFORMATIONAL, verify.ERROR, verify.ERROR]
        assert all(type(r.m) is int and type(r.n) is int for r in reps)
        plain = sweep([(int(m), int(n), p, d) for m, n, p, d in grid], 3, Seed(5))
        assert reports_to_json(reps) == reports_to_json(plain)
        assert len(strict_json(reports_to_json(reps))["reports"]) == 3

    def test_errors_become_rows(self):
        reps = sweep([(3, 3, 0.5, 0.0), (40, 40, 0.5, 0.0), (4, 4, 0.5, math.inf),
                      (4, 4, 0.5, math.nan)], 2, Seed(1))
        assert reps[0].verdict == verify.INFORMATIONAL
        assert reps[1].verdict == verify.ERROR
        assert "CapExceeded" in reps[1].extra["error"]
        assert [r.verdict for r in reps[2:]] == [verify.ERROR] * 2
        assert reps[2].extra["error"] == "ValueError: delta must be finite, got inf"
        assert reps[3].extra["error"] == "ValueError: delta must be finite, got nan"

    def test_degenerate_point_draws_nothing(self, monkeypatch):
        draws = []
        real = verify.sample_bipartite

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "sample_bipartite", counting)
        # the second point is over the cap as well; its degenerate p is reported
        reps = sweep([(3, 3, 1.0, 0.0), (40, 40, 0.0, 0.0)], 5, Seed(42))
        assert [r.verdict for r in reps] == [verify.ERROR, verify.ERROR]
        assert reps[0].extra["error"] == "ValueError: p=1.0 is degenerate; need 0 < p < 1"
        assert reps[1].extra["error"] == "ValueError: p=0.0 is degenerate; need 0 < p < 1"
        assert draws == []

    @pytest.mark.parametrize("alpha", [0.7, 0.5, 0.06])
    def test_bad_alpha_refused_before_any_draw(self, monkeypatch, alpha):
        draws = []
        real = verify.sample_bipartite

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "sample_bipartite", counting)
        with pytest.raises(ValueError, match=rf"alpha must lie in \[1/16, 1/2\), got {alpha}"):
            sweep([(12, 12, 0.5, 0.0), (10, 10, 0.3, 0.0)], 50, Seed(1), alpha=alpha)
        assert draws == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unexpected_errors_propagate(self, monkeypatch, workers):
        from test_golden import FIXTURE, SWEEP_GRID, SWEEP_SEED, SWEEP_TRIALS

        real_left_avg, faults = mss.left_avg, []

        def broken(g, cap):
            # the first call faults; the other points would run to the end
            if not faults:
                faults.append(g)
                raise RuntimeError("kernel fault")
            return real_left_avg(g, cap)

        started, running, lock = [], [0], threading.Lock()
        second = threading.Event()
        real = verify.run_average_campaign

        def counting(*args, **kwargs):
            with lock:
                first = not started
                started.append(args)
                running[0] += 1
                if len(started) == 2:
                    second.set()
            try:
                if first:
                    # with 2 workers, fault once the other thread runs a point
                    second.wait(timeout=10 if workers > 1 else 0)
                else:
                    time.sleep(0.05)  # still running when the first point raises
                return real(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(mss, "left_avg", broken)
        monkeypatch.setattr(verify, "run_average_campaign", counting)
        grid = self.GRID3 * 3
        with pytest.raises(RuntimeError, match="kernel fault"):
            sweep(grid, 2, Seed(1), workers=workers)
        # no thread started a point after the fault, and none still runs
        assert running == [0]
        assert len(started) <= workers
        monkeypatch.undo()
        # the pool outlives the error
        reps = sweep(SWEEP_GRID, SWEEP_TRIALS, Seed(SWEEP_SEED), workers=2)
        golden = json.loads(FIXTURE.read_text())["sweep"]
        assert reports_to_csv(reps, with_regime=True) == golden["csv"]

    def test_two_worker_sweeps_reuse_one_pool(self, monkeypatch):
        threads = set()
        real = verify.run_average_campaign

        def recording(*args, **kwargs):
            threads.add(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "run_average_campaign", recording)
        counts = []
        for _ in range(20):
            sweep(self.GRID3, 2, Seed(1), workers=2)
            counts.append(threading.active_count())
        assert counts == counts[:1] * 20
        # the calling thread and at most one pool thread ran every point
        assert len(threads - {threading.current_thread()}) <= 1

    def test_sweep_runs_while_every_pool_thread_is_busy(self):
        # the calling thread runs the points itself, and drops its helper
        # still queued behind the blocked tasks; the pools of 1 and 2 threads
        # are both blocked, whichever a 2-worker sweep takes its helpers from
        want = reports_to_csv(sweep(self.GRID3, 3, Seed(5)), with_regime=True)
        release, got = threading.Event(), []
        blockers = [verify._pool(size).submit(release.wait) for size in (1, 2, 2)]
        caller = threading.Thread(target=lambda: got.append(reports_to_csv(
            sweep(self.GRID3, 3, Seed(5), workers=2), with_regime=True)), daemon=True)
        try:
            caller.start()
            caller.join(timeout=60)
            assert not caller.is_alive(), "the sweep waited for a busy pool"
        finally:
            release.set()
            for blocker in blockers:
                blocker.result(timeout=60)
        assert got == [want]

    def test_concurrent_sweeps_share_the_pools(self):
        # callers on several threads submit to the same pools at once
        want = reports_to_csv(sweep(self.GRID3, 3, Seed(5)), with_regime=True)
        got = []

        def caller(workers):
            for _ in range(10):
                got.append(reports_to_csv(sweep(self.GRID3, 3, Seed(5), workers=workers),
                                          with_regime=True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(w,)) for w in (2, 8, 2, 8)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert got == [want] * 40

    def test_forked_child_sweeps_with_its_own_pool(self):
        want = reports_to_csv(sweep(self.GRID3, 5, Seed(42), workers=2), with_regime=True)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                signal.alarm(10)  # a child waiting on the pool it inherited dies here
                got = reports_to_csv(sweep(self.GRID3, 5, Seed(42), workers=2),
                                     with_regime=True)
                with os.fdopen(write_fd, "w") as fh:
                    fh.write(got)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            got = fh.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want

    def test_bytes_identical_across_kernels_and_workers(self, compiled_kernels, monkeypatch):
        from franklbip import _pykernels

        # mixed shapes: the n < m points scan the right side and map back
        grid = [(10, 8, 0.3, 0.0), (9, 12, 0.5, 0.1), (12, 12, 0.2, 0.0), (14, 6, 0.4, 0.05)]
        outputs = set()
        for impl in (compiled_kernels, _pykernels):
            # the sampler switches with the scan kernel, as FRANKLBIP_PURE_PYTHON does
            use_kernels(monkeypatch, impl)
            for workers in (1, 2, 8):
                reps = sweep(grid, 6, Seed(11), workers=workers)
                outputs.add((reports_to_csv(reps, with_regime=True), reports_to_json(reps)))
        assert len(outputs) == 1

    def test_regime_column_covers_all_tags(self):
        grid = [(m, n, p, 0.0) for (m, n, p), _ in REGIME_GRID]
        reps = sweep(grid, 2, Seed(7))
        tags = {r.extra["regime"] for r in reps}
        assert tags == {reg.value for reg in Regime}


class TestReportFormats:
    def test_csv_shape(self):
        reps = sweep([(3, 3, 0.5, 0.0)], 3, Seed(2))
        text = reports_to_csv(reps, config={"subcommand": "sweep", "seed": 2}, with_regime=True)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == verify.CSV_HEADER + ",regime"
        assert len(lines) == 2 + len(reps)

    def test_json_mirrors_csv_fields(self):
        reps = sweep([(3, 3, 0.5, 0.0)], 3, Seed(2))
        payload = json.loads(reports_to_json(reps, config={"seed": 2}))
        assert payload["config"] == {"seed": 2}
        row = payload["reports"][0]
        for key in ("lemma_id", "m", "n", "p", "delta", "trials", "claimed",
                    "measured", "ci", "verdict", "seed"):
            assert key in row
        # exact rationals serialize as strings
        assert isinstance(row["mean_left_avg"], str)

    def test_exact_rationals_are_num_over_den(self):
        # an integer k is written "k/1", as every other JSON writer writes it
        rep = verify.BoundReport("average", 2, 4, 0.8, 0.0, 5, 1.0, 1.0, 0.5,
                                 verify.INFORMATIONAL, 42,
                                 extra={"one": Fraction(1), "half": Fraction(1, 2), "hits": 5})
        row = rep.to_json_dict()
        assert (row["one"], row["half"], row["hits"]) == ("1/1", "1/2", 5)

    def test_json_is_strict(self):
        # error rows, an all-vacuous conjecture and an echoed delta of inf
        reps = sweep([(3, 3, 0.5, 0.0), (31, 31, 0.5, 0.0), (3, 3, 1.0, 0.0),
                      (4, 4, 0.5, math.inf), (4, 4, 0.5, math.nan)], 2, Seed(1), workers=2)
        vacuous = run_conjecture_campaign(2, 2, 0.0, 0.0, 4, Seed(7))
        mssproba = verify_lemma("mssproba", {"m": 4, "n": 4, "p": 0.5, "ell": 1, "r": 1,
                                             "delta": math.inf}, 4, Seed(1))
        rows = strict_json(reports_to_json(reps, config={"delta": math.inf}))
        assert rows["config"] == {"delta": None}
        assert [row["verdict"] for row in rows["reports"]] == [verify.INFORMATIONAL] + \
            [verify.ERROR] * 4
        for row in rows["reports"][1:]:
            assert (row["claimed"], row["measured"], row["ci"]) == (None, None, None)
        assert [row["delta"] for row in rows["reports"][3:]] == [None, None]
        assert strict_json(reports_to_json([vacuous]))["reports"][0]["measured"] is None
        assert strict_json(reports_to_json([mssproba]))["reports"][0]["delta"] is None
        # CSV keeps the repr of each float
        assert ",nan,nan,nan,error," in reports_to_csv(reps)


def _binomial_log_pmfs(claimed, trials):
    """log Bin(trials, claimed)(x) for x = 0..trials, with the binomial
    coefficients built up by their ratios rather than by lgamma."""
    log_comb, out = 0.0, []
    for x in range(trials + 1):
        out.append(log_comb + x * math.log(claimed) + (trials - x) * math.log1p(-claimed))
        log_comb += math.log(trials - x) - math.log(x + 1) if x < trials else 0.0
    return out


class TestFrequencyVerdict:
    """A frequency row is violated iff the exact two-sided binomial tail of
    its hit count is below ALPHA = 2 Phi(-4), so the chance that a true claim
    is called violated is at most ALPHA at every (claim, trial count)."""

    # ROADMAP item 10's rows: mssproba 6x6 at p = .5 with l = r = 3 and 8x8 at
    # p = .3 with l = r = 4, indmatchings k = 4 at p = .5, constrightside 6x6
    # at p = .5; then a fair coin and a claim near 1
    GRID = [(8.765533566474915e-04, trials) for trials in (50, 100, 200, 1000, 10 ** 4)] + [
        (3.695048952072664e-04, trials) for trials in (100, 1000, 10 ** 4)] + [
        (3.662109375e-04, trials) for trials in (50, 100, 1000)] + [
        (9.016329607402444e-02, trials) for trials in (100, 1000, 10 ** 4)] + [
        (0.5, 100), (0.5, 1000), (0.999, 2000)]

    @staticmethod
    def verdict(claimed, hits, trials):
        # the stream's sum is its hit count, so one value stands for them all
        return verify._frequency(claimed)(iter([hits]), trials)[3]

    def test_alpha_is_the_four_sigma_rate(self):
        assert verify.ALPHA == pytest.approx(6.334e-5, rel=1e-3)

    @pytest.mark.parametrize("claimed,trials", GRID)
    def test_false_alarm_rate_at_most_alpha(self, claimed, trials):
        pmfs = [math.exp(x) for x in _binomial_log_pmfs(claimed, trials)]
        alarms = sum(pmf for hits, pmf in enumerate(pmfs)
                     if self.verdict(claimed, hits, trials) == verify.VIOLATED)
        assert alarms <= verify.ALPHA

    def test_normal_band_failed_the_rate(self):
        # the 4-sigma band this rule replaces called mssproba's 6x6 row
        # violated at 50 trials with a chance of 4.3 %
        claimed, trials = self.GRID[0]
        band = verify.CI_Z * math.sqrt(claimed * (1 - claimed) / trials)
        alarms = sum(math.exp(log_pmf) for hits, log_pmf
                     in enumerate(_binomial_log_pmfs(claimed, trials))
                     if abs(hits / trials - claimed) > band)
        assert alarms == pytest.approx(0.043, abs=0.001)

    @pytest.mark.parametrize("num,den,trials", [(1, 2, 100), (1, 8, 1000)])
    def test_each_side_of_the_boundary(self, num, den, trials):
        # the exact tails in integers: Bin(trials, num/den) has mass
        # comb(trials, x) num^x (den - num)^(trials - x) / den^trials at x
        weights = [math.comb(trials, x) * num ** x * (den - num) ** (trials - x)
                   for x in range(trials + 1)]
        level = Fraction(verify.ALPHA) / 2 * den ** trials
        below = [x for x in range(trials + 1) if sum(weights[:x + 1]) < level]
        above = [x for x in range(trials + 1) if sum(weights[x:]) < level]
        low, high = max(below), min(above)
        for hits, want in ((low, verify.VIOLATED), (low + 1, verify.CONSISTENT),
                           (high - 1, verify.CONSISTENT), (high, verify.VIOLATED)):
            assert self.verdict(num / den, hits, trials) == want, hits

    @pytest.mark.parametrize("claimed,hits,verdict", [
        (0.0, 0, verify.CONSISTENT), (0.0, 1, verify.VIOLATED),
        (1.0, 20, verify.CONSISTENT), (1.0, 19, verify.VIOLATED)])
    def test_claims_of_zero_and_one(self, claimed, hits, verdict):
        assert self.verdict(claimed, hits, 20) == verdict

    def test_measured_and_ci_unchanged(self):
        claimed, measured, ci, _, extra = verify._frequency(0.25)(iter([True, False] * 5), 10)
        assert (claimed, measured, ci, extra) == (0.25, 0.5, 4.0 * math.sqrt(0.25 * 0.75 / 10), {})


@pytest.mark.parametrize("kernel,trials", [("compiled", 10 ** 5), ("python", 4000)],
                         indirect=["kernel"])
def test_campaign_runs_in_constant_memory(kernel, trials):
    # the summary folds the stream, so the trials of a sampler-only row stay
    # under a peak that the list of their values alone would pass.  The
    # twin's pure-Python Philox costs about 250 us a draw under tracemalloc,
    # so it runs fewer trials.
    limit, params = 16_000, {"m": 1, "n": 1, "p": 0.5}
    assert sys.getsizeof([False] * trials) > 2 * limit
    # an untraced campaign first fills the interpreter's free lists (2,000
    # tuples of each size), whose blocks a traced one would count as growth
    verify_lemma("constrightside", params, 3000, Seed(9))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = verify_lemma("constrightside", params, trials, Seed(9))
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.trials == trials and 0.45 < rep.measured < 0.55
    assert grown < limit
