import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_edge_configs, brute_force_mss, complete_graph, empty_graph,
                      enumerate_mss, matching_graph, numpy_sample_rows, swap_sides)
from franklbip import _pykernels, mss
from franklbip import graphs as graph_module
from franklbip.graphs import BipartiteGraph, Seed, sample_bipartite
from franklbip.mss import (
    CapExceeded,
    StableSet,
    conjecture_check,
    count_left_at_least,
    count_left_at_most,
    count_mss_with_sizes,
    is_maximal_stable,
    left_avg,
    mss_stats,
    almost_unstable_vertex,
    stab_at_least_count,
    verdict_from_stats,
)
from franklbip.setfamily import SetFamily, union_closure


@st.composite
def graphs(draw, max_side=5):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    return BipartiteGraph(m, n, tuple(rows))


class TestIsMaximalStable:
    def test_everything_in_empty_graph(self):
        g = empty_graph(3, 2)
        assert is_maximal_stable(g, StableSet(0b111, 0b11))

    def test_complete_graph_sides(self):
        g = complete_graph(2, 2)
        assert is_maximal_stable(g, StableSet(0b11, 0))
        assert is_maximal_stable(g, StableSet(0, 0b11))
        assert not is_maximal_stable(g, StableSet(0b01, 0))  # u1 still addable

    def test_matching_mixed_set_by_exhaustion(self):
        # checked against the filter over all 16 subsets
        g = matching_graph(2)
        expected = set()
        for left in range(4):
            for right in range(4):
                s = StableSet(left, right)
                if is_maximal_stable(g, s):
                    expected.add(s)
        assert StableSet(0b01, 0b10) in expected
        assert expected == set(brute_force_mss(g))

    @staticmethod
    def small_graphs():
        for m in range(1, 4):
            for n in range(1, 4):
                yield from all_edge_configs(m, n)
        for m in range(1, 6):
            for n in range(1, 6):
                for i, p in enumerate((0.3, 0.5, 0.8)):
                    for trial in range(2):
                        yield sample_bipartite(m, n, p, Seed(57, m * n).child(2 * i + trial))

    def test_every_pair_against_brute_force(self):
        # every (left, right) mask of every graph up to 3x3 and of seeded samples
        # up to 5x5, against the subset filter
        for g in self.small_graphs():
            found = [StableSet(left, right) for left in range(1 << g.m)
                     for right in range(1 << g.n)
                     if is_maximal_stable(g, StableSet(left, right))]
            assert found == brute_force_mss(g), g

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            is_maximal_stable(matching_graph(2), StableSet(0b100, 0))
        with pytest.raises(IndexError, match="right"):
            is_maximal_stable(matching_graph(2), StableSet(0, 0b100))
        with pytest.raises(IndexError, match="right"):
            is_maximal_stable(matching_graph(2), StableSet(0b11, -1))
        # the left part is checked first
        with pytest.raises(IndexError, match="left"):
            is_maximal_stable(matching_graph(2), StableSet(-1, 0b100))


class TestEnumerate:
    def test_complete_graph_has_two(self):
        sets = sorted(enumerate_mss(complete_graph(3, 4)))
        assert sets == [StableSet(0, 0b1111), StableSet(0b111, 0)]

    def test_empty_graph_has_one(self):
        assert list(enumerate_mss(empty_graph(2, 3))) == [StableSet(0b11, 0b111)]

    def test_matching_two(self):
        assert sorted(enumerate_mss(matching_graph(2))) == brute_force_mss(matching_graph(2))

    def test_cap(self):
        # the default cap is a scan side of 30; the empty graph has one MSS
        with pytest.raises(CapExceeded, match="scan side 31 exceeds the cap of 30"):
            enumerate_mss(empty_graph(31, 31))

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence(self, g):
        assert sorted(enumerate_mss(g)) == brute_force_mss(g)


class TestStats:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matching_counts_are_binomial(self, k):
        st_ = mss_stats(matching_graph(k))
        assert st_.total == 2 ** k == len(brute_force_mss(matching_graph(k)))
        assert list(st_.left_hist) == [math.comb(k, i) for i in range(k + 1)]

    def test_k23(self):
        st_ = mss_stats(complete_graph(2, 3))
        assert st_.total == 2
        assert st_.left_hist == (1, 0, 1)

    def test_two_left_one_right_single_edge(self):
        # direct enumeration of the 8 subsets gives sets {u1, v0} and {u0, u1}
        g = BipartiteGraph(2, 1, (1, 0))
        st_ = mss_stats(g)
        assert st_.total == 2
        assert st_.left_vertex_counts == (1, 2)

    def test_json_dict(self):
        d = mss_stats(matching_graph(2)).to_json_dict()
        assert d["total"] == "4"
        assert d["left_hist"] == [1, 2, 1]

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_against_brute_force(self, g):
        st_ = mss_stats(g)
        sets = brute_force_mss(g)
        assert st_.total == len(sets)
        hist = [0] * (g.m + 1)
        for s in sets:
            hist[s.left.bit_count()] += 1
        assert list(st_.left_hist) == hist
        for u in range(g.m):
            assert st_.left_vertex_counts[u] == sum(1 for s in sets if s.left >> u & 1)
        for v in range(g.n):
            assert st_.right_vertex_counts[v] == sum(1 for s in sets if s.right >> v & 1)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_double_counting_identity(self, g):
        st_ = mss_stats(g)
        assert sum(st_.left_vertex_counts) == sum(k * c for k, c in enumerate(st_.left_hist))

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_side_symmetry(self, g):
        swapped = mss_stats(swap_sides(g))
        sets = brute_force_mss(g)
        right_hist = [0] * (g.n + 1)
        for s in sets:
            right_hist[s.right.bit_count()] += 1
        assert list(swapped.left_hist) == right_hist
        assert swapped.total == mss_stats(g).total

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_total_bounded_by_smaller_side(self, g):
        assert mss_stats(g).total <= 2 ** min(g.m, g.n)

    def test_joint_count(self):
        g = sample_bipartite(5, 6, 0.5, Seed(3, 1))
        sets = brute_force_mss(g)
        for ell, r in [(2, 2), (1, 3), (0, 6)]:
            want = sum(
                1 for s in sets if s.left.bit_count() == ell and s.right.bit_count() == r
            )
            assert count_mss_with_sizes(g, ell, r) == want


ROW_KINDS = ("random", "shared", "isolated", "complete", "circulant")


@st.composite
def tied_scan_rows(draw, widths, max_s=10):
    """(rows, s, t) whose degree sequences are full of ties.

    Each row is random, one row shared by all rows of that kind, empty
    (isolated), complete, or a rotation of one base row (so all rotations
    share a degree, and a side of only those is regular).  Bits above t may
    be set; both kernels must ignore them.
    """
    t = draw(widths)
    s = draw(st.integers(0, max_s))
    full = (1 << t) - 1
    shared = draw(st.integers(0, full))
    base = draw(st.integers(0, full))
    junk = draw(st.integers(0, 3)) << t
    rows = []
    for u in range(s):
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "random":
            row = draw(st.integers(0, full))
        elif kind == "circulant":
            r = u % t if t else 0
            row = ((base << r) | (base >> (t - r))) & full
        else:
            row = {"shared": shared, "isolated": 0, "complete": full}[kind]
        rows.append(row | junk)
    return rows, s, t


# the compiled walk has a one-word instance (t <= 64) and a multi-word one
ONE_WORD = st.integers(0, 64)
MULTI_WORD = st.sampled_from((64, 65, 130))


class TestCompiledKernel:
    """The C kernel against the pure-Python twin, which is the reference."""

    @staticmethod
    def assert_stats_agree(kernels, rows, s, t, other_sel=(1, 2)):
        ref = _pykernels.scan_stats(rows, s, t)
        assert tuple(kernels.scan_stats(rows, s, t)) == tuple(ref)
        # select the most common (k, f) too, so that sel_count is exercised
        common = (max(range(s + 1), key=ref[1].__getitem__),
                  max(range(t + 1), key=ref[2].__getitem__))
        for sel in (common, other_sel):
            assert tuple(kernels.scan_stats(rows, s, t, *sel)) == \
                tuple(_pykernels.scan_stats(rows, s, t, *sel))

    @classmethod
    def assert_agree(cls, kernels, g, lo_ks=(1,)):
        rows = list(g.adj)
        cls.assert_stats_agree(kernels, rows, g.m, g.n)
        for lo_k in lo_ks:
            assert kernels.scan_free_hist(rows, g.m, g.n, lo_k) == list(
                _pykernels.scan_free_hist(rows, g.m, g.n, lo_k))

    @given(tied_scan_rows(ONE_WORD), st.integers(-1, 11), st.integers(-1, 65))
    @settings(max_examples=200, deadline=None)
    def test_stats_agree_one_word(self, compiled_kernels, case, sel_k, sel_f):
        self.assert_stats_agree(compiled_kernels, *case, (sel_k, sel_f))

    @given(tied_scan_rows(MULTI_WORD), st.integers(-1, 11), st.integers(-1, 131))
    @settings(max_examples=100, deadline=None)
    def test_stats_agree_multi_word(self, compiled_kernels, case, sel_k, sel_f):
        self.assert_stats_agree(compiled_kernels, *case, (sel_k, sel_f))

    @given(st.data(), tied_scan_rows(st.one_of(ONE_WORD, MULTI_WORD)))
    @settings(max_examples=150, deadline=None)
    def test_permuting_rows_permutes_scan_counts(self, compiled_kernels, data, case):
        # the walk order is sorted by degree inside the kernel; this catches
        # scan_counts that are not mapped back to vertex order
        rows, s, t = case
        perm = data.draw(st.permutations(range(s)))
        for kernel in (compiled_kernels, _pykernels):
            before = kernel.scan_stats(rows, s, t, 1, 1)
            after = kernel.scan_stats([rows[u] for u in perm], s, t, 1, 1)
            assert list(after[3]) == [before[3][u] for u in perm]
            assert tuple(after[:3]) + tuple(after[4:]) == tuple(before[:3]) + tuple(before[4:])

    def test_kernel_twins_agree(self, compiled_kernels):
        for i in range(60):
            g = sample_bipartite(1 + i % 7, 1 + (i // 7) % 7, 0.45, Seed(77, i))
            self.assert_agree(compiled_kernels, g, lo_ks=(0, 1, g.m + 1))

    @pytest.mark.parametrize("m,n,p", [(8, 70, 0.4), (12, 130, 0.3), (3, 64, 0.5), (5, 65, 0.2)])
    def test_multi_word_other_side(self, compiled_kernels, m, n, p):
        self.assert_agree(compiled_kernels, sample_bipartite(m, n, p, Seed(78, n)), lo_ks=(0, 3))

    @pytest.mark.parametrize("m,n,p", [(62, 62, 0.95), (62, 70, 0.9)])
    def test_largest_scan_side(self, compiled_kernels, m, n, p):
        g = sample_bipartite(m, n, p, Seed(79, n))
        assert _pykernels.scan_stats(list(g.adj), m, n)[0] > 2
        # lo_k = m - 1 keeps the 2^62-leaf free-part walk to m + 1 leaves
        self.assert_agree(compiled_kernels, g, lo_ks=(m - 1, m))

    @pytest.mark.parametrize("rows,s,t", [([], 0, 5), ([], 0, 0), ([0, 0, 0], 3, 0)])
    def test_empty_sides(self, compiled_kernels, rows, s, t):
        for args in ((rows, s, t), (rows, s, t, 0, t), (rows, s, t, s, 0)):
            assert tuple(compiled_kernels.scan_stats(*args)) == tuple(
                _pykernels.scan_stats(*args))
        for lo_k in (0, s, s + 1):
            assert compiled_kernels.scan_free_hist(rows, s, t, lo_k) == list(
                _pykernels.scan_free_hist(rows, s, t, lo_k))

    def test_keyword_arguments(self, compiled_kernels):
        g = sample_bipartite(5, 6, 0.5, Seed(81))
        rows = list(g.adj)
        assert compiled_kernels.scan_stats(rows=rows, s=5, t=6, sel_k=2, sel_f=3) == \
            compiled_kernels.scan_stats(rows, 5, 6, 2, 3)
        assert compiled_kernels.scan_free_hist(rows=rows, s=5, t=6, lo_k=2) == \
            compiled_kernels.scan_free_hist(rows, 5, 6, 2)

    @pytest.mark.parametrize("fn", ["scan_stats", "scan_free_hist"])
    def test_refuses_bad_sides(self, compiled_kernels, fn):
        kernel = getattr(compiled_kernels, fn)
        with pytest.raises(ValueError, match="too large"):
            kernel([0] * 63, 63, 4)
        with pytest.raises(ValueError, match="row count"):
            kernel([0, 0], 3, 4)

    # a grandchild stream, as a sweep point's trial draws it, under a 64-bit
    # root, and the extreme keys
    SAMPLE_KEYS = (tuple(Seed(2 ** 64 - 3).child(5).child(11)), (0, 0),
                   (2 ** 64 - 1, 2 ** 64 - 1), (0, 2 ** 64 - 1))
    SAMPLE_NS = (1, 63, 64, 65, 130)
    SAMPLE_PS = (0.0, 1.0, 1e-9, 0.5, 1 - 2 ** -53)

    @pytest.mark.parametrize("p", SAMPLE_PS)
    @pytest.mark.parametrize("n", SAMPLE_NS)
    def test_sample_rows_match_twin(self, compiled_kernels, n, p):
        # numpy's Philox is the independent reference
        for key in self.SAMPLE_KEYS:
            args = (7, n, p, *key)
            rows = compiled_kernels.sample_rows(*args)
            assert rows == _pykernels.sample_rows(*args) == numpy_sample_rows(*args), key
            assert type(rows) is tuple and len(rows) == 7 and all(0 <= r < 1 << n for r in rows)

    @pytest.mark.parametrize("p", SAMPLE_PS)
    @pytest.mark.parametrize("n", SAMPLE_NS)
    def test_sample_rows_are_graph_rows(self, kernel, n, p):
        # sample_bipartite fills its graph with these rows unnormalised, which
        # holds only if each is already a plain int in [0, 2^n)
        for key in self.SAMPLE_KEYS:
            rows = graph_module._impl.sample_rows(7, n, p, *key)
            assert type(rows) is tuple and len(rows) == 7, key
            assert all(type(row) is int and 0 <= row < 1 << n for row in rows), key
            assert sample_bipartite(7, n, p, Seed(*key)) == BipartiteGraph(7, n, rows), key

    @pytest.mark.parametrize("m,n,p", [(0, 4, 0.5), (4, 0, 0.5), (4, 4, -0.1), (4, 4, math.nan)])
    def test_sample_rows_refusals(self, compiled_kernels, m, n, p):
        for kernel in (compiled_kernels, _pykernels):
            with pytest.raises(ValueError):
                kernel.sample_rows(m, n, p, 1, 2)
            # the sides and p are checked before the key
            with pytest.raises(ValueError):
                kernel.sample_rows(m, n, p, 1.5, -1)
            for key, error in ((1.5, TypeError), (np.uint64(1), TypeError), (-1, OverflowError),
                               (2 ** 64, OverflowError)):
                with pytest.raises(error):
                    kernel.sample_rows(4, 4, 0.5, key, 0)
                with pytest.raises(error):
                    kernel.sample_rows(4, 4, 0.5, 0, key)


class TestLeftAvg:
    def test_complete(self):
        assert left_avg(complete_graph(5, 2)) == Fraction(5, 2)

    def test_empty(self):
        assert left_avg(empty_graph(4, 2)) == 4

    def test_matching(self):
        assert left_avg(matching_graph(2)) == 1


class TestAlmostUnstable:
    def test_matching_left_vertex_at_half(self):
        st_ = mss_stats(matching_graph(2))
        v, frac = almost_unstable_vertex(st_, "left", 0)
        assert v == 0 and frac == Fraction(1, 2)

    def test_empty_graph_has_none(self):
        st_ = mss_stats(empty_graph(3, 2))
        assert almost_unstable_vertex(st_, "left", 0) is None

    def test_single_edge_two_left(self):
        g = BipartiteGraph(2, 1, (1, 0))
        v, frac = almost_unstable_vertex(mss_stats(g), "left", 0)
        assert v == 0 and frac == Fraction(1, 2)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            almost_unstable_vertex(mss_stats(matching_graph(2)), "middle", 0)


class TestConjectureCheck:
    def test_complete_satisfied_at_zero(self):
        verdict = conjecture_check(complete_graph(4, 3), 0)
        assert verdict.satisfied and not verdict.vacuous
        assert verdict.left_witness[1] == Fraction(1, 2)
        assert verdict.right_witness[1] == Fraction(1, 2)

    def test_single_edge_one_one(self):
        verdict = conjecture_check(BipartiteGraph(1, 1, (1,)), 0)
        assert verdict.satisfied
        assert verdict.left_witness[1] == Fraction(1, 2)

    def test_edgeless_is_vacuous(self):
        verdict = conjecture_check(empty_graph(2, 2), 0)
        assert verdict.vacuous and verdict.satisfied
        assert verdict.left_witness is None

    def test_json_dict(self):
        d = conjecture_check(matching_graph(2), 0).to_json_dict()
        assert d["delta"] == "0/1"
        assert d["left_witness"]["fraction"] == "1/2"
        assert d["satisfied"] is True

    def test_verdict_from_stats_matches(self, corpus):
        for g, _ in corpus[:120]:
            for delta in (0, Fraction(1, 10)):
                got = verdict_from_stats(mss_stats(g), g.edge_count() == 0, delta)
                assert got == conjecture_check(g, delta)


def test_conjecture_exhaustive_up_to_seven():
    checked = 0
    for m in range(1, 7):
        for n in range(1, 8 - m):
            for g in all_edge_configs(m, n):
                verdict = conjecture_check(g, 0)
                if g.edge_count() == 0:
                    assert verdict.vacuous
                else:
                    assert verdict.satisfied, serialize_fail(g)
                checked += 1
    assert checked > 6000


def serialize_fail(g):
    from franklbip.graphs import serialize_graph

    return f"violation would be a counterexample:\n{serialize_graph(g)}"


def brute_stab_at_least(g, ell_star, r_star):
    """Stable pairs (A, B) with |A| >= ell_star and |B| >= r_star, counted by
    trying every A and every B."""
    count = 0
    for a_mask in range(1 << g.m):
        if a_mask.bit_count() < ell_star:
            continue
        covered = 0
        for u in range(g.m):
            if a_mask >> u & 1:
                covered |= g.adj[u]
        count += sum(1 for b_mask in range(1 << g.n)
                     if b_mask.bit_count() >= r_star and b_mask & covered == 0)
    return count


class TestStabAtLeastCount:
    """stab_at_least_count against brute force and against the closed-form
    expectation, with the smaller side on the left, on the right and neither."""

    @pytest.mark.parametrize("m,n", [(3, 6), (5, 5), (7, 2), (6, 4), (1, 5), (4, 1)])
    @pytest.mark.parametrize("p", [0.3, 0.6])
    def test_matches_brute_force(self, kernel, m, n, p):
        g = sample_bipartite(m, n, p, Seed(1302, m * 16 + n))
        for ell_star in range(m + 1):
            for r_star in range(n + 1):
                assert stab_at_least_count(g, ell_star, r_star) == \
                    brute_stab_at_least(g, ell_star, r_star), (ell_star, r_star)

    @pytest.mark.parametrize("m,n,p", [(2, 6, 0.5), (3, 4, 0.3), (4, 3, 0.6), (6, 2, 0.5),
                                       (3, 3, 0.7)])
    def test_expectation_matches_closed_form(self, m, n, p):
        from conftest import weighted_expectation

        from franklbip.bounds import expected_stab_at_least

        pairs = [(ell_star, r_star) for ell_star in range(m + 1) for r_star in range(n + 1)]
        got = weighted_expectation(m, n, p, lambda g: np.array(
            [stab_at_least_count(g, *pair) for pair in pairs], dtype=float))
        for pair, value in zip(pairs, got):
            assert value == pytest.approx(expected_stab_at_least(m, n, p, *pair), rel=1e-9), pair

    def test_thresholds_out_of_range(self):
        g = sample_bipartite(3, 4, 0.5, Seed(1))
        for ell_star, r_star in ((4, 0), (0, 5), (-1, 0)):
            with pytest.raises(ValueError, match="thresholds out of range"):
                stab_at_least_count(g, ell_star, r_star)


class TestTailCounts:
    def test_matching_four_at_least_two(self):
        st_ = mss_stats(matching_graph(4))
        assert count_left_at_least(st_, 2) == math.comb(4, 2) + math.comb(4, 3) + 1

    def test_complete_five_three(self):
        st_ = mss_stats(complete_graph(5, 3))
        assert count_left_at_least(st_, Fraction(5, 2)) == 1

    def test_empty_graph(self):
        st_ = mss_stats(empty_graph(4, 2))
        assert count_left_at_least(st_, 2) == 1

    def test_at_most_complements(self):
        st_ = mss_stats(matching_graph(3))
        assert count_left_at_most(st_, 1) + count_left_at_least(st_, Fraction(3, 2)) == st_.total


class TestBruteForce:
    def test_complete_three_three(self):
        assert brute_force_mss(complete_graph(3, 3)) == [
            StableSet(0, 0b111),
            StableSet(0b111, 0),
        ]

    def test_empty_two_two(self):
        assert brute_force_mss(empty_graph(2, 2)) == [StableSet(0b11, 0b11)]

    def test_size_cap(self):
        with pytest.raises(CapExceeded):
            brute_force_mss(empty_graph(13, 13))


class TestAveragingLemmas:
    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_low_average_yields_witness(self, g):
        # executable form of the averaging implication
        st_ = mss_stats(g)
        for delta in (Fraction(0), Fraction(1, 10)):
            if st_.left_average() <= (Fraction(1, 2) + delta) * g.m:
                assert almost_unstable_vertex(st_, "left", delta) is not None

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_many_small_sets_force_low_average(self, g):
        st_ = mss_stats(g)
        m = g.m
        for nu, delta in ((Fraction(1, 2), Fraction(0)), (Fraction(1, 4), Fraction(1, 20))):
            large = count_left_at_least(st_, (Fraction(1, 2) + delta) * m)
            small = count_left_at_most(st_, (1 - nu) * Fraction(m, 2))
            if small >= large / nu:
                assert st_.left_average() <= (Fraction(1, 2) + delta) * m


# seeded sides up to 12, on both sides of the swap (the scan runs over the
# smaller side), and sparse, even and dense graphs
CLOSURE_GRAPHS = [(m, n, p) for m, n in ((12, 12), (12, 7), (5, 12), (9, 10), (11, 3), (1, 12),
                                         (12, 1)) for p in (0.3, 0.5, 0.8)]


class TestUnionClosureOracle:
    """mss_stats against setfamily alone.  The maximal stable sets are in
    bijection with the unions of left neighbourhoods N(A), the right part
    being R minus the union (arXiv:1212.4175); symmetrically, with the
    columns, the left part is L minus a union of right neighbourhoods."""

    @staticmethod
    def closure(neighbourhoods, ground):
        return union_closure(SetFamily(ground, (0, *neighbourhoods))).members

    @pytest.mark.parametrize("m,n,p", CLOSURE_GRAPHS)
    def test_counts_match_closure(self, kernel, m, n, p):
        g = sample_bipartite(m, n, p, Seed(1212, CLOSURE_GRAPHS.index((m, n, p))))
        stats = mss_stats(g)
        rows, cols = self.closure(g.adj, n), self.closure(g.columns(), m)
        assert stats.total == len(rows) == len(cols)
        assert list(stats.right_vertex_counts) == [
            stats.total - sum(s >> v & 1 for s in rows) for v in range(n)]
        assert list(stats.left_vertex_counts) == [
            stats.total - sum(s >> u & 1 for s in cols) for u in range(m)]
