import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import weighted_expectation
from franklbip import bounds, verify
from franklbip.bounds import (
    HypothesisViolation,
    RegimeParams,
    binary_entropy,
    binom_entropy_lower,
    binom_tail_exact,
    binom_tail_upper,
    chebyshev_bound,
    dominating_vertex_prob,
    exp_small_mss_lower,
    expected_small_mss,
    expected_stab_at_least,
    genupper_bound,
    induced_matching_prob,
    pair_expectation_B,
    pr_maximal_stable,
    regime_constants,
    stab_tail_table,
)
from franklbip.graphs import Seed, as_prob
from franklbip.mss import StableSet, is_maximal_stable


class TestTailInequalities:
    def test_chebyshev_quarter(self):
        assert chebyshev_bound(1, 2) == 0.25

    def test_chebyshev_zero_variance(self):
        assert chebyshev_bound(0, 3.7) == 0.0

    def test_chebyshev_spot(self):
        assert chebyshev_bound(9, 3 * 1.5) == pytest.approx(4 / 9)

    def test_chebyshev_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            chebyshev_bound(1, -1)


class TestMaximalStableProbability:
    def test_two_two_against_config_enumeration(self):
        # oracle: all 16 edge configurations, weighted, fixed S = {u0, v0}
        fixed = StableSet(0b01, 0b01)
        oracle = weighted_expectation(
            2, 2, 0.5, lambda g: 1.0 if is_maximal_stable(g, fixed) else 0.0
        )
        assert oracle == pytest.approx(0.125, abs=1e-12)
        assert pr_maximal_stable(2, 2, 0.5, 1, 1) == pytest.approx(0.125)

    def test_full_set_is_pure_power(self):
        assert pr_maximal_stable(3, 4, 0.5, 3, 4) == pytest.approx(0.5 ** 12)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_small_grid_against_config_enumeration(self, p):
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            for ell in range(m + 1):
                for r in range(n + 1):
                    fixed = StableSet((1 << ell) - 1, (1 << r) - 1)
                    oracle = weighted_expectation(
                        m, n, p, lambda g: 1.0 if is_maximal_stable(g, fixed) else 0.0
                    )
                    assert pr_maximal_stable(m, n, p, ell, r) == pytest.approx(
                        oracle, abs=1e-12
                    ), (m, n, p, ell, r)

    def test_log_space_agrees_with_direct(self):
        # tiny values force the exp-of-logs path; compare against explicit powers
        m, n, ell, r = 40, 3000, 30, 5
        q = 0.5
        direct = (
            q ** (ell * r) * (1 - q ** r) ** (m - ell) * (1 - q ** ell) ** (n - r)
        )
        assert pr_maximal_stable(m, n, 0.5, ell, r) == pytest.approx(direct, rel=1e-12)

    def test_range_and_degenerate_errors(self):
        with pytest.raises(ValueError):
            pr_maximal_stable(2, 2, 0.5, 3, 0)
        with pytest.raises(ValueError):
            pr_maximal_stable(2, 2, 1.0, 1, 1)


class TestExpectedStab:
    def test_hand_expanded_spot_value(self):
        assert expected_stab_at_least(4, 2, 0.5, 2, 1) == pytest.approx(4.56640625)

    def test_against_pair_enumeration_oracle(self):
        # oracle: count stable pairs per configuration, weighted by config
        def stab_count(g, lo, ro):
            c = 0
            for a_mask in range(1 << g.m):
                if a_mask.bit_count() < lo:
                    continue
                nb = 0
                for u in range(g.m):
                    if a_mask >> u & 1:
                        nb |= g.adj[u]
                free = ((1 << g.n) - 1) & ~nb
                for b_mask in range(1 << g.n):
                    if b_mask.bit_count() >= ro and b_mask & ~free == 0:
                        c += 1
            return c

        for m, n, p, lo, ro in [(4, 2, 0.5, 2, 1), (2, 3, 0.3, 0, 0), (3, 2, 0.8, 1, 2)]:
            oracle = weighted_expectation(m, n, p, lambda g: stab_count(g, lo, ro))
            assert expected_stab_at_least(m, n, p, lo, ro) == pytest.approx(
                oracle, rel=1e-10
            ), (m, n, p, lo, ro)

    def test_single_term_degenerate(self):
        assert expected_stab_at_least(3, 3, 0.5, 3, 3) == pytest.approx(0.5 ** 9)

    def test_tail_table_matches_per_pair_sums(self):
        table = stab_tail_table(7, 5, 0.3)
        for lo in range(8):
            for ro in range(6):
                assert table[lo][ro] == pytest.approx(
                    expected_stab_at_least(7, 5, 0.3, lo, ro), rel=1e-9
                )


class TestGenupper:
    def test_spot_dominates_exact(self):
        bound = genupper_bound(4, 2, 0.5, 2, 1)
        assert bound == 16.0
        assert expected_stab_at_least(4, 2, 0.5, 2, 1) <= bound

    def test_boundary_hypothesis_allowed(self):
        # n q^l* = 2 * 0.25 is exactly 1/2, inside the hypothesis
        assert genupper_bound(10, 2, 0.5, 2, 1) == 1024.0
        params = {"m": 10, "n": 2, "p": 0.5, "ell_star": 2, "r_star": 1}
        assert verify.verify_lemma("genupper", params, 1, Seed(0)).claimed == 1024.0

    def test_hypothesis_guard(self):
        # the formula gives its raw value; the genupper check refuses n q^l* > 1/2
        assert genupper_bound(4, 3, 0.5, 1, 1) == 48.0
        params = {"m": 4, "n": 3, "p": 0.5, "ell_star": 1, "r_star": 1}
        with pytest.raises(HypothesisViolation, match="n \\* q\\^ell_star = 1.5 > 1/2"):
            verify.verify_lemma("genupper", params, 1, Seed(0))

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_dominance_small_grid(self, p):
        q = 1.0 - p
        for m in range(1, 13):
            for n in range(1, 13):
                table = stab_tail_table(m, n, p)
                for lo in range(m + 1):
                    if n * q ** lo > 0.5:
                        continue
                    for ro in range(n + 1):
                        assert table[lo][ro] <= genupper_bound(m, n, p, lo, ro)


class TestSmallMssExpectation:
    def test_constant_at_half(self):
        rp = RegimeParams.from_mnp(64, 64, 0.5)
        assert math.exp(-5) == pytest.approx(0.0067379, abs=1e-7)
        val = exp_small_mss_lower(rp)
        assert val == pytest.approx(math.exp(-5) * math.comb(64, 6) * 6.0 ** -6, rel=1e-9)
        assert val == pytest.approx(10.83, abs=0.01)

    def test_b_zero_gives_c_times_comb(self):
        # 0^0 = 1: with b = 0 the bound is c * C(m, a)
        rp = RegimeParams.from_mnp(8, 40, 0.9)
        assert (rp.a, rp.b) == (1, 0)
        assert exp_small_mss_lower(rp) == regime_constants(0.9).small_mss_c * 8

    @pytest.mark.parametrize("p", [0.99, 0.997, 0.998, 0.999, 1 - 2 ** -20])
    def test_finite_near_p_one(self, p):
        # c = exp(-(2/q + 1)) underflows to 0 from p = .998 on
        val = exp_small_mss_lower(RegimeParams.from_mnp(8, 40, p))
        assert type(val) is float and math.isfinite(val) and val >= 0.0

    def test_comb_past_float_range(self):
        # C(2000, 230) is no float, but c * C(2000, 230) * 10^-10 is one
        rp = RegimeParams.from_mnp(2000, 2 ** 230, 0.5)
        assert (rp.a, rp.b) == (230, 10)
        with pytest.raises(OverflowError):
            float(math.comb(2000, 230))
        want = math.exp(-5 + math.log(math.comb(2000, 230)) - 10 * math.log(10))
        assert exp_small_mss_lower(rp) == pytest.approx(want, rel=1e-12)

    def test_one_formula_with_lem_hoeffding_exp(self):
        # the lem.hoeffding.exp threshold is the expression it had inline,
        # bit for bit, p = .9972-.9973 (subnormal c) included
        ps = [k / 10 for k in range(1, 10)] + [0.99, 0.999]
        ps += [0.9972 + k * 1e-5 for k in range(11)]
        for p in ps:
            prob = as_prob(p)
            c = regime_constants(prob).small_mss_c
            for m in range(1, 31):
                for b in range(12):
                    for a in range(m + 1):
                        old = c * math.comb(m, a) * (float(b) ** (-b) if b else 1.0)
                        got = bounds._small_mss_product(prob, m, a, b)
                        assert repr(got) == repr(old), (p, m, a, b)
        for p in (0.9, 0.9972, 0.99725, 0.9973):
            rp = RegimeParams.from_mnp(4, 100, p)
            _, summary = verify._CHECKS["lem.hoeffding.exp"].setup(4, 100, as_prob(p), {})
            assert summary([True])[4]["count_threshold"] == bounds._small_mss_product(
                as_prob(p), 4, rp.a_prime, rp.b)

    def test_precondition(self):
        # m far below log_{1/q}(n)
        rp = RegimeParams.from_mnp(2, 10 ** 6, 0.5)
        with pytest.raises(HypothesisViolation):
            exp_small_mss_lower(rp)

    def test_expected_small_mss_matches_config_enumeration(self):
        def count_ab(g, a, b):
            c = 0
            for a_mask in range(1 << g.m):
                if a_mask.bit_count() != a:
                    continue
                for b_mask in range(1 << g.n):
                    if b_mask.bit_count() == b and is_maximal_stable(
                        g, StableSet(a_mask, b_mask)
                    ):
                        c += 1
            return c

        oracle = weighted_expectation(3, 3, 0.5, lambda g: count_ab(g, 1, 1))
        assert expected_small_mss(3, 3, 0.5, 1, 1) == pytest.approx(oracle, rel=1e-10)


class TestPairExpectation:
    def test_coincident_pair_collapses(self):
        want = math.comb(6, 2) * math.comb(6, 2) * 0.5 ** 4
        assert pair_expectation_B(6, 6, 0.5, a=2, b=2, i=2, j=2) == pytest.approx(want)

    def test_disjoint_pair_spot(self):
        assert pair_expectation_B(6, 6, 0.5, a=2, b=2, i=0, j=0) == pytest.approx(8100 / 256)

    def test_against_config_enumeration(self):
        # expected ordered pairs of stable (2,1)-sets with overlap (i, j)
        def pair_count(g, i, j, a, b):
            sets = []
            for a_mask in range(1 << g.m):
                if a_mask.bit_count() != a:
                    continue
                nb = 0
                for u in range(g.m):
                    if a_mask >> u & 1:
                        nb |= g.adj[u]
                for b_mask in range(1 << g.n):
                    if b_mask.bit_count() == b and b_mask & nb == 0:
                        sets.append((a_mask, b_mask))
            count = 0
            for s in sets:
                for t in sets:
                    if (s[0] & t[0]).bit_count() == i and (s[1] & t[1]).bit_count() == j:
                        count += 1
            return count

        for i, j in [(0, 0), (1, 0), (2, 1), (1, 1)]:
            oracle = weighted_expectation(3, 3, 0.4, lambda g: pair_count(g, i, j, 2, 1))
            assert pair_expectation_B(3, 3, 0.4, 2, 1, i, j) == pytest.approx(
                oracle, rel=1e-9
            ), (i, j)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="need 0 <= i <= a, got i=3, a=2"):
            pair_expectation_B(6, 6, 0.5, a=2, b=2, i=3, j=0)
        with pytest.raises(ValueError, match="need 0 <= j <= b, got j=-1, b=2"):
            pair_expectation_B(6, 6, 0.5, a=2, b=2, i=0, j=-1)


class TestEntropy:
    def test_symmetry_point(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, kappa):
        assert binary_entropy(kappa) == pytest.approx(binary_entropy(1 - kappa), abs=1e-12)

    def test_strictly_increasing_below_half(self):
        xs = [i / 200 for i in range(1, 100)]
        vals = [binary_entropy(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)

    def test_endpoints_by_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestBinomialBounds:
    def test_entropy_lower_spot(self):
        assert binom_entropy_lower(10, 5) == pytest.approx(1024 / 11)
        assert binom_entropy_lower(10, 5) <= math.comb(10, 5)

    def test_entropy_lower_four_two(self):
        assert binom_entropy_lower(4, 2) == pytest.approx(16 / 5)
        assert binom_entropy_lower(4, 2) <= 6

    def test_entropy_lower_midpoint_formula(self):
        assert binom_entropy_lower(12, 6) == pytest.approx(2 ** 12 / 13)

    def test_entropy_lower_everywhere(self):
        for m in range(2, 61):
            for k in range(1, m):
                assert math.comb(m, k) >= binom_entropy_lower(m, k), (m, k)

    def test_tail_upper_spot(self):
        assert binom_tail_exact(10, Fraction(7, 10)) == 176
        assert binom_tail_upper(10, 0.7) == pytest.approx(
            2 ** (binary_entropy(0.3) * 10)
        )
        assert 176 <= binom_tail_upper(10, 0.7)

    def test_tail_upper_near_one_keeps_top_term(self):
        assert binom_tail_exact(12, Fraction(99, 100)) == 1
        assert binom_tail_upper(12, 0.99) >= 1.0

    def test_tail_dominance_sweep(self):
        for m in range(1, 31):
            for num in range(55, 100, 5):
                gamma = Fraction(num, 100)
                assert binom_tail_exact(m, gamma) <= binom_tail_upper(m, gamma), (m, gamma)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            binom_entropy_lower(5, 0)
        with pytest.raises(ValueError):
            binom_tail_upper(5, 0.5)


class TestInducedMatchingProb:
    def test_single_edge(self):
        assert induced_matching_prob(1, 0.37) == pytest.approx(0.37)

    def test_two_by_two(self):
        assert induced_matching_prob(2, 0.5) == pytest.approx(0.125)

    def test_three_by_three(self):
        assert induced_matching_prob(3, 0.5) == pytest.approx(0.01171875)

    def test_matches_config_enumeration(self):
        def is_perfect_matching(g):
            cols = [0] * g.n
            for u in range(g.m):
                if g.adj[u].bit_count() != 1:
                    return 0.0
                cols[g.adj[u].bit_length() - 1] += 1
            return 1.0 if all(c == 1 for c in cols) else 0.0

        for k, p in [(2, 0.5), (2, 0.3), (3, 0.6)]:
            oracle = weighted_expectation(k, k, p, is_perfect_matching)
            assert induced_matching_prob(k, p) == pytest.approx(oracle, rel=1e-10)


class TestRegimeConstants:
    def test_half(self):
        c = regime_constants(0.5)
        assert c.r_star == 4
        assert c.c_right == 25
        assert c.small_mss_c == pytest.approx(math.exp(-5))

    def test_point_nine(self):
        c = regime_constants(0.9)
        assert c.r_star == 2
        assert c.c_right == 20

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_c_right_floor(self, p):
        assert regime_constants(p).c_right >= 20


class TestDominatingVertex:
    def test_ten_two(self):
        assert dominating_vertex_prob(10, 2, 0.5) == pytest.approx(1 - 0.75 ** 10)

    def test_one_one_is_p(self):
        assert dominating_vertex_prob(1, 1, 0.37) == pytest.approx(0.37)

    def test_six_two_spot(self):
        assert dominating_vertex_prob(6, 2, 0.5) == pytest.approx(0.822021484375)

    def test_matches_config_enumeration(self):
        def has_dominating(g):
            full = (1 << g.n) - 1
            return 1.0 if any(row == full for row in g.adj) else 0.0

        for m, n, p in [(2, 2, 0.5), (3, 2, 0.3), (2, 3, 0.8)]:
            oracle = weighted_expectation(m, n, p, has_dominating)
            assert dominating_vertex_prob(m, n, p) == pytest.approx(oracle, rel=1e-10)

    def test_degenerate_edges(self):
        assert dominating_vertex_prob(4, 3, 1.0) == 1.0
        assert dominating_vertex_prob(4, 3, 0.0) == 0.0


class TestLogSpaceEvaluation:
    def test_forced_log_space_matches_direct(self):
        # cancelling huge factors forces the exp-of-logs path; the remaining
        # product is directly computable and must agree to 1e-12 relative
        big = bounds._pow_product([(2.0, 1200), (2.0, -1200), (0.7, 5)])
        assert big == pytest.approx(0.7 ** 5, rel=1e-12)

    def test_sub_cutoff_stays_direct(self):
        assert bounds._pow_product([(0.5, 3), (0.25, 2)]) == 0.5 ** 3 * 0.25 ** 2

    def test_zero_base_with_positive_exponent(self):
        assert bounds._pow_product([(0.0, 2), (0.5, 1)]) == 0.0

    def test_zero_exponent_ignores_base(self):
        assert bounds._pow_product([(0.0, 0), (0.5, 1)]) == 0.5


class TestRegimeParams:
    def test_derived_fields(self):
        rp = RegimeParams.from_mnp(64, 64, 0.5)
        assert rp.a == 6 and rp.b == 6
        assert rp.lam == pytest.approx(6 / 64)
        assert rp.a_prime is None  # 64 < 64^6

    def test_a_prime_defined_when_right_side_huge(self):
        rp = RegimeParams.from_mnp(4, 100, 0.9)
        # 4^log_10(4) ~ 2.3, so chunks of floor(100 / 2.3) = 43 -> a' = 1
        assert rp.a_prime == 1

    def test_rejects_degenerate_p(self):
        with pytest.raises(ValueError):
            RegimeParams.from_mnp(4, 4, 1.0)

    def test_n_past_float_range_takes_log_branch(self):
        # float() refuses these n; log_10(n / 4^log_10(4)) is 307.89 at
        # n = 2^1024, far from an integer, so a' is 307 on either side of it
        for n in ((1 << 1024) - 1, 1 << 1024, (1 << 1024) + 1):
            rp = RegimeParams.from_mnp(4, n, 0.9)
            assert (rp.a, rp.a_prime) == (308, 307)
        assert RegimeParams.from_mnp(4, 10 ** 400, 0.9).a_prime == 399

    @pytest.mark.parametrize("m,p,a_prime", [
        (4, 0.9, 307), (4, 0.5, 1020), (20, 0.5, 1005), (3, 0.3, 1980), (7, 0.75, 510),
    ])
    def test_largest_float_n_keeps_float_branch(self, m, p, a_prime):
        # a_prime as the float(n) != inf guard gave it, at the last ints that
        # float() converts; the limit is exactly where float() starts to refuse
        limit = bounds._FLOAT_INT_LIMIT
        assert float(limit - 1) == sys.float_info.max
        with pytest.raises(OverflowError):
            float(limit)
        for n in (limit - 1, int(sys.float_info.max)):
            assert RegimeParams.from_mnp(m, n, p).a_prime == a_prime

    def test_float_n_keeps_float_branch(self):
        for n in (1000.0, np.float64(1000.0), 1e300):
            assert RegimeParams.from_mnp(4, n, 0.9) == RegimeParams.from_mnp(4, int(n), 0.9)


# the public names with no caller under src/, each with the reason it stays
NO_CALLER = {
    **dict.fromkeys(("chebyshev_bound", "exp_small_mss_lower", "pair_expectation_B",
                     "stab_tail_table", "binom_entropy_lower", "binom_tail_upper",
                     "binom_tail_exact"), "test-only: a closed form checked by tests"),
    **dict.fromkeys(("left_avg", "count_left_at_most"),
                    "benchmark hook: perfbench/tracing.py wraps it by name"),
    "run_conjecture_campaign": "documented API: README, Python API",
}


def test_every_public_name_has_a_caller_or_a_reason():
    # every public top-level function and class of every module under src/
    # is read, as a name or an attribute, somewhere under src/, or is on
    # NO_CALLER; test-only helpers belong in conftest.py
    public, used = set(), set()
    for path in Path(bounds.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        public.update(node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unexplained = sorted(public - used - NO_CALLER.keys())
    assert not unexplained, f"no caller under src/: {unexplained}"
    # an entry that gains a caller, or whose name is gone, leaves the list
    stale = sorted(NO_CALLER.keys() - (public - used))
    assert not stale, f"on NO_CALLER but called or gone: {stale}"
