import ast
import decimal
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import stab_tail_table, weighted_expectation
from franklbip import bounds, verify
from franklbip.bounds import (
    HypothesisViolation,
    RegimeParams,
    binary_entropy,
    dominating_vertex_prob,
    expected_small_mss,
    expected_stab_at_least,
    genupper_bound,
    induced_matching_prob,
    pr_maximal_stable,
    regime_constants,
)
from franklbip.graphs import Seed, as_prob
from franklbip.mss import StableSet, is_maximal_stable


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
        assert math.exp(-5) == pytest.approx(0.0067379, abs=1e-7)
        val = bounds._small_mss_product(as_prob(0.5), 64, 6, 6)
        assert val == pytest.approx(math.exp(-5) * math.comb(64, 6) * 6.0 ** -6, rel=1e-9)
        assert val == pytest.approx(10.83, abs=0.01)

    def test_b_zero_gives_c_times_comb(self):
        # 0^0 = 1: with b = 0 the product is c * C(m, a)
        assert bounds._small_mss_product(as_prob(0.9), 8, 1, 0) == \
            regime_constants(0.9).small_mss_c * 8

    @pytest.mark.parametrize("p", [0.99, 0.997, 0.998, 0.999, 1 - 2 ** -20])
    def test_finite_near_p_one(self, p):
        # c = exp(-(2/q + 1)) underflows to 0 from p = .998 on
        rp = RegimeParams.from_mnp(8, 40, p)
        val = bounds._small_mss_product(as_prob(p), 8, rp.a, rp.b)
        assert type(val) is float and math.isfinite(val) and val >= 0.0

    def test_comb_past_float_range(self):
        # C(2000, 230) is no float, but c * C(2000, 230) * 10^-10 is one
        with pytest.raises(OverflowError):
            float(math.comb(2000, 230))
        want = math.exp(-5 + math.log(math.comb(2000, 230)) - 10 * math.log(10))
        assert bounds._small_mss_product(as_prob(0.5), 2000, 230, 10) == \
            pytest.approx(want, rel=1e-12)

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

    def test_underflowing_power_gives_positive_zero(self):
        # 0.5^2000 underflows to 0, so the probability is 0.0, not -0.0
        assert math.copysign(1.0, dominating_vertex_prob(10, 2000, 0.5)) == 1.0


@given(m=st.integers(1, 10 ** 6), n=st.integers(1, 10 ** 4), p=st.floats(1e-9, 1 - 1e-9),
       left=st.floats(0, 1), right=st.floats(0, 1), k=st.integers(1, 300))
@example(m=10, n=2000, p=0.5, left=0.5, right=0.5, k=10)
@settings(max_examples=200, deadline=None)
def test_probabilities_are_positive_floats_in_unit_interval(m, n, p, left, right, k):
    values = (pr_maximal_stable(m, n, p, round(left * m), round(right * n)),
              induced_matching_prob(k, p), dominating_vertex_prob(m, n, p))
    for value in values:
        assert type(value) is float and 0.0 <= value <= 1.0
        assert math.copysign(1.0, value) == 1.0


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
        # float() refuses these n, and the chunk is taken from the int n;
        # log_10(n / 4^log_10(4)) is 307.89 at n = 2^1024, far from an
        # integer, so a' is 307 on either side of it
        for n in ((1 << 1024) - 1, 1 << 1024, (1 << 1024) + 1):
            rp = RegimeParams.from_mnp(4, n, 0.9)
            assert (rp.a, rp.a_prime) == (308, 307)
        assert RegimeParams.from_mnp(4, 10 ** 400, 0.9).a_prime == 399

    @pytest.mark.parametrize("m,p,a_prime", [
        (4, 0.9, 307), (4, 0.5, 1019), (20, 0.5, 1005), (3, 0.3, 1980), (7, 0.75, 510),
    ])
    def test_largest_float_n_keeps_float_branch(self, m, p, a_prime):
        # a_prime at the last ints that float() converts, as the float
        # branch gave it, but at (4, 0.5): there n // 16 is just below
        # 2^1020, and the float floor said 1020; the limit is exactly where
        # float() starts to refuse
        limit = bounds._FLOAT_INT_LIMIT
        assert float(limit - 1) == sys.float_info.max
        with pytest.raises(OverflowError):
            float(limit)
        for n in (limit - 1, int(sys.float_info.max)):
            assert RegimeParams.from_mnp(m, n, p).a_prime == a_prime

    def test_float_n_keeps_float_branch(self):
        for n in (1000.0, np.float64(1000.0), 1e300):
            assert RegimeParams.from_mnp(4, n, 0.9) == RegimeParams.from_mnp(4, int(n), 0.9)

    @pytest.mark.parametrize("n,a_prime", [
        (16 * ((1 << 50) - 1) + 15, 49), (16 << 50, 50),
        ((1 << 1024) - 1, 1019), (1 << 1024, 1020), ((1 << 1024) + 1, 1020),
    ], ids=["2^54-1", "2^54", "2^1024-1", "2^1024", "2^1024+1"])
    def test_a_prime_exact_below_a_power_of_two(self, n, a_prime):
        # at p = 1/2 the split size 4^log_2(4) is 16, so a' is the bit length
        # of n // 16 less one; the float floor said 50 and 1020 just below
        assert a_prime == (n // 16).bit_length() - 1
        assert RegimeParams.from_mnp(4, n, 0.5).a_prime == a_prime

    @pytest.mark.parametrize("n,a_prime", [
        (1000, 3), (999, 2), (10 ** 20 - 1, 19), (10 ** 20, 20), (10 ** 120, 120),
    ], ids=["10^3", "999", "10^20-1", "10^20", "10^120"])
    def test_a_prime_reads_p_as_its_decimal(self, n, a_prime):
        # m = 1 makes the split size 1, so a' is floor(log_10(n)) at p = 0.9:
        # q is 1/10, not the float 1 - 0.9 just below it; the float floor
        # said 2 at 1000, 20 at 10^20 - 1 and 119 at 10^120
        assert RegimeParams.from_mnp(1, n, 0.9).a_prime == a_prime

    @pytest.mark.parametrize("m,n,p,a_prime", [
        (4, 100, 0.9, 1), (20, 1048576, 0.5, 1), (3, 10 ** 6, 0.3, 29), (7, 1 << 200, 0.75, 98),
        (16, 10 ** 9, 0.15, None), (2, 1000, 0.8, 4), (5, 12345678901234567890, 0.5, 58),
        (4, 10 ** 400, 0.9, 399),
        # K is about 2^(6.9e11), some 86 GB as an int, and is not written out
        (10 ** 300, 10 ** 6, 1e-6, None),
    ], ids=["4x100", "20x2^20", "3x10^6", "7x2^200", "16x10^9", "2x1000", "5x1.2e19",
            "4x10^400", "10^300x10^6"])
    def test_a_prime_kept_where_float_floor_is_right(self, m, n, p, a_prime):
        assert RegimeParams.from_mnp(m, n, p).a_prime == a_prime

    @pytest.mark.parametrize("m,n,p,field,value,oracle", [
        (4, (1 << 50) - 1, 0.5, "a", 49, lambda m, n: n.bit_length() - 1),
        ((1 << 50) - 1, 100, 0.5, "b", 49, lambda m, n: m.bit_length() - 1),
        (4, 10 ** 20 - 1, 0.9, "a", 19, lambda m, n: len(str(n)) - 1),
        (4, 10 ** 400, 0.9, "a", 400, lambda m, n: len(str(n)) - 1),
        # the split size is 2^1024 here, past e^700
        (1 << 32, (1 << 1100) - 1, 0.5, "a_prime", 75,
         lambda m, n: (n >> 1024).bit_length() - 1),
        # q is 10^-16, where 1 - p in floats is 2^-53, about 1.1e-16
        (1, 10 ** 5936 - 1, 0.9999999999999999, "a", 370,
         lambda m, n: next(a for a in range(n) if 10 ** (16 * a + 16) > n)),
    ], ids=["a@2^50-1", "b@2^50-1", "a@10^20-1", "a@10^400", "a_prime@2^1100-1",
            "a@10^5936-1,p=1-1e-16"])
    def test_floors_exact_on_and_below_powers(self, m, n, p, field, value, oracle):
        # one float floor or another said 50, 50, 20, 399 and 76 here
        assert oracle(m, n) == value
        assert getattr(RegimeParams.from_mnp(m, n, p), field) == value

    @pytest.mark.parametrize("m,n,p", [(4, 10 ** 6, 1e-20), (4, 10 ** 30, 1e-17)])
    def test_floors_exact_at_tiny_p(self, m, n, p):
        # log_{1/q}(n) is about 1.4e21 and 6.9e18, far past a float's precision
        with decimal.localcontext(prec=100):
            log_inv_q = -(1 - decimal.Decimal(repr(p))).ln()
            want = [int(decimal.Decimal(x).ln() / log_inv_q) for x in (n, m)]
        rp = RegimeParams.from_mnp(m, n, p)
        assert [rp.a, rp.b] == want

    def test_split_size_is_a_dyadic_power(self):
        # K = 2^(log_{1/q}(m) log2(m)) is 2^1024 at m = 2^32 and p = 1/2, so
        # a' is defined from n = 2^1024 on
        assert RegimeParams.from_mnp(1 << 32, (1 << 1024) - 1, 0.5).a_prime is None
        assert RegimeParams.from_mnp(1 << 32, 1 << 1024, 0.5).a_prime == 0

    @pytest.mark.parametrize("p", [0.5, 0.75, 0.9, 0.3, 0.15, 0.01, 0.001])
    def test_floor_log_against_fraction_powers(self, p):
        # chunks on and beside q^-a, which is exact at p = 0.5, 0.75 and 0.9;
        # past 64 bits the powers in q^a are cut to a bracket
        prob = bounds.as_prob(p)
        q = 1 - Fraction(str(p))
        for a in (0, 1, 2, 7, 50, 400, 3000):
            power = math.ceil(q ** -a)
            for chunk in (power - 1, power, power + 1):
                if chunk >= 1:
                    got = bounds._floor_log(chunk, q, prob.log_inv_q)
                    assert chunk * q ** got >= 1 > chunk * q ** (got + 1), (a, chunk)


@pytest.mark.parametrize("call,message", [
    (lambda: expected_stab_at_least(3, 3, 0.5, 4, 0), "thresholds out of range"),
    (lambda: genupper_bound(3, 3, 0.5, 0, 4), "thresholds out of range"),
    (lambda: RegimeParams.from_mnp(0, 4, 0.5), "need whole m, n >= 1, got (0, 4)"),
    (lambda: RegimeParams.from_mnp(4, 2.5, 0.5), "need whole m, n >= 1, got (4, 2.5)"),
    (lambda: expected_small_mss(3, 3, 0.5, 4, 0), "(a, b)=(4, 0) out of range for (3, 3)"),
    (lambda: induced_matching_prob(0, 0.5), "need k >= 1, got 0"),
], ids=["stab-at-least", "genupper", "from_mnp", "from_mnp-whole", "small-mss",
        "induced-matching"])
def test_range_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# the public names with no caller under src/, each with the reason it stays
NO_CALLER = {
    **dict.fromkeys(("left_avg", "count_left_at_most"),
                    "benchmark hook: perfbench/tracing.py wraps it by name"),
    "run_conjecture_campaign": "documented API: README, Python API",
    "union_closure": "benchmark hook: perfbench/tracing.py wraps it by name; the tests' "
                     "closure oracle",
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
