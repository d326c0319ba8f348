import inspect
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ROOT, all_edge_configs, brute_force_mss, columns, complete_graph,
                      empty_graph, enumerate_mss, matching_graph, numpy_sample_rows, swap_sides)
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

# the classes graphs binds its sampler to
SAMPLER_CLASSES = (BipartiteGraph, graph_module.EdgeProbability, graph_module.ZeroSideError)


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
    be set; both kernels must ignore them.  The kernels take them as the rows
    of an s x t graph, so they scan the t side, transposed, when t < s.
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
            # both take the rows from any iterable
            assert tuple(compiled_kernels.scan_stats(iter(g.adj), g.m, g.n)) == \
                tuple(_pykernels.scan_stats(iter(g.adj), g.m, g.n))

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

    @staticmethod
    def refusals(compiled_kernels, fn, *args, **kwargs):
        """(type, text) of the error each kernel raises for this call, the
        compiled kernel's first."""
        out = []
        for kernel in (compiled_kernels, _pykernels):
            with pytest.raises((TypeError, ValueError)) as info:
                getattr(kernel, fn)(*args, **kwargs)
            out.append((info.type, str(info.value)))
        return out

    @pytest.mark.parametrize("fn", ["scan_stats", "scan_free_hist", "sample_graph", "sampler"])
    def test_signatures_match_twin(self, compiled_kernels, fn):
        assert inspect.signature(getattr(compiled_kernels, fn)) == \
            inspect.signature(getattr(_pykernels, fn))

    def test_keyword_arguments(self, compiled_kernels):
        # positional only: the twin's def has a "/", and CPython refuses a
        # keyword to the compiled entry, which takes none
        rows = list(sample_bipartite(5, 6, 0.5, Seed(81)).adj)
        for fn, extra in (("scan_stats", ("sel_left", "sel_right")),
                          ("scan_free_hist", ("lo_left", "lo_right"))):
            for args, kwargs in (((rows, 5, 6), {extra[0]: 2}),
                                 ((rows, 5, 6), {extra[1]: 3, extra[0]: 2}),
                                 ((), {"rows": rows, "m": 5, "n": 6, extra[0]: 2})):
                (compiled, text), (twin, _) = self.refusals(compiled_kernels, fn, *args, **kwargs)
                assert compiled is twin is TypeError, (fn, kwargs)
                assert "keyword argument" in text, (fn, kwargs)

    @pytest.mark.parametrize("fn,arity", [("scan_stats", 5), ("scan_free_hist", 5),
                                          ("sample_graph", 6)])
    def test_argument_counts_refused_alike(self, compiled_kernels, fn, arity):
        args = (BipartiteGraph, 2, 3, 0.5, 1, 2) if fn == "sample_graph" else ([0, 0], 2, 3, 1, 1)
        for count in (0, 1, 2, arity + 1, arity + 2):
            refusals = self.refusals(compiled_kernels, fn, *(args + (0, 0))[:count])
            for error, text in refusals:
                assert error is TypeError and fn in text, count

    @pytest.mark.parametrize("fn", ["scan_stats", "scan_free_hist"])
    def test_refuses_bad_sides(self, compiled_kernels, fn):
        for args, text in ((([0] * 63, 63, 700), "too large"), (([0] * 700, 700, 63), "too large"),
                           (([0] * 63, 63, 63), "too large"), (([0, 0], 3, 4), "row count"),
                           (([0, 0], 2, -1), "negative right side")):
            (compiled, message), twin = self.refusals(compiled_kernels, fn, *args)
            assert compiled is ValueError and text in message, args
            assert (compiled, message) == twin, args

    @pytest.mark.parametrize("m,n", [(62, 700), (700, 62)])
    def test_largest_scan_side_against_a_wide_other_side(self, compiled_kernels, m, n):
        # the 62 side is scanned either way; 700 x 62 transposes into 11 words
        g = sample_bipartite(m, n, 0.95, Seed(82))
        h = swap_sides(g)
        for kernel in (compiled_kernels, _pykernels):
            # (0, n) selects the one MSS made of the whole right side
            total, lh, rh, lc, rc, sel = kernel.scan_stats(g.adj, m, n, 0, n)
            assert total > 2 and sel == 1
            assert tuple(kernel.scan_stats(h.adj, n, m, n, 0)) == (total, rh, lh, rc, lc, sel)
            # thresholds one short of the scan side keep the walk to 63 leaves
            los = (61, 0) if m < n else (0, 61)
            freq = kernel.scan_free_hist(g.adj, m, n, *los)
            assert sum(freq) == 63
            assert kernel.scan_free_hist(h.adj, n, m, *los[::-1]) == freq
            assert (total, lh, rh, lc, rc, sel) == tuple(_pykernels.scan_stats(g.adj, m, n, 0, n))
            assert freq == _pykernels.scan_free_hist(g.adj, m, n, *los)

    def test_scans_leak_nothing(self, compiled_kernels):
        # rows of more than 256 bits are no cached small ints, so a reference
        # leaked on a row, on the rows or on a result grows the traced memory
        # by at least 28 bytes a call; 300 x 3 transposes onto the heap block
        wide = sample_bipartite(3, 300, 0.5, Seed(83)).adj
        tall = list(columns(BipartiteGraph(3, 300, wide)))
        calls = (("scan_stats", (wide, 3, 300, 1, 2), {}),
                 ("scan_free_hist", (tall, 300, 3, 0, 2), {}),
                 ("scan_stats", (iter(wide), 3, 300), {}),
                 ("scan_free_hist", (wide, 4, 300), {}),
                 ("scan_stats", (tall + [0.5], 301, 3), {}),
                 ("scan_free_hist", (wide, 3, 300), {"lo_left": 1}))

        def run(count):
            for t in range(count):
                fn, args, kwargs = calls[t % len(calls)]
                if type(args[0]) is not tuple and type(args[0]) is not list:
                    args = (iter(wide),) + args[1:]
                try:
                    getattr(compiled_kernels, fn)(*args, **kwargs)
                except (TypeError, ValueError):
                    pass

        held = (wide, tall, wide[0])
        run(120)
        refs = [sys.getrefcount(x) for x in held]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(24000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 20000
        assert [sys.getrefcount(x) for x in held] == refs

    # a grandchild stream, as a sweep point's trial draws it, under a 64-bit
    # root, and the extreme keys
    SAMPLE_KEYS = (tuple(Seed(2 ** 64 - 3).child(5).child(11)), (0, 0),
                   (2 ** 64 - 1, 2 ** 64 - 1), (0, 2 ** 64 - 1))
    # 256 and 257 bits: the last row the compiled sampler keeps on the stack
    # and the first it allocates
    SAMPLE_NS = (1, 63, 64, 65, 130, 256, 257)
    SAMPLE_PS = (0.0, 1.0, 1e-9, 0.5, 1 - 2 ** -53)

    @pytest.mark.parametrize("p", SAMPLE_PS)
    @pytest.mark.parametrize("n", SAMPLE_NS)
    def test_sample_rows_match_twin(self, compiled_kernels, n, p):
        # numpy's Philox is the independent reference
        for key in self.SAMPLE_KEYS:
            args = (BipartiteGraph, 7, n, p, *key)
            rows = compiled_kernels.sample_graph(*args).adj
            assert rows == _pykernels.sample_graph(*args).adj == numpy_sample_rows(7, n, p, *key)

    @pytest.mark.parametrize("p", SAMPLE_PS)
    @pytest.mark.parametrize("n", SAMPLE_NS)
    def test_sample_rows_are_graph_rows(self, kernel, n, p):
        # the compiled kernel sets the fields without the constructor, which
        # holds only if each row is already a plain int in [0, 2^n)
        for key in self.SAMPLE_KEYS:
            g = graph_module._impl.sample_graph(BipartiteGraph, 7, n, p, *key)
            assert type(g) is BipartiteGraph and (g.m, g.n) == (7, n), key
            assert type(g.adj) is tuple and len(g.adj) == 7, key
            assert all(type(row) is int and 0 <= row < 1 << n for row in g.adj), key
            assert g == BipartiteGraph(7, n, g.adj) == graph_module.sample_bipartite(
                7, n, p, Seed(*key)), key

    @pytest.mark.parametrize("m,n,p", [(0, 4, 0.5), (4, 0, 0.5), (4, 4, -0.1), (4, 4, math.nan)])
    def test_sample_rows_refusals(self, compiled_kernels, m, n, p):
        # the public sampler refuses on both kernels; of the draws, a side
        # below 1 is refused, before the keys, and a p below 0 or NaN draws
        # the empty graph
        samplers = self.samplers(compiled_kernels)
        for kernel, sample in zip((compiled_kernels, _pykernels), samplers):
            with pytest.raises(ValueError):
                sample(m, n, p, (1, 2))
            if m < 1 or n < 1:
                with pytest.raises(ValueError):
                    kernel.sample_graph(BipartiteGraph, m, n, p, 1, 2)
                with pytest.raises(ValueError):
                    kernel.sample_graph(BipartiteGraph, m, n, p, 1.5, -1)
            else:
                assert kernel.sample_graph(BipartiteGraph, m, n, p, 1, 2).adj == (0,) * m

    def test_sample_rows_keep_the_draw_safe(self, compiled_kernels):
        # the compiled draw reads the keys with CPython's own conversions;
        # the twin's is a plain draw, and the public sampler refuses these
        # keys on both kernels (test_samplers_refuse_alike)
        for key, error in ((1.5, TypeError), (np.uint64(1), TypeError), (-1, OverflowError),
                           (2 ** 64, OverflowError)):
            with pytest.raises(error):
                compiled_kernels.sample_graph(BipartiteGraph, 4, 4, 0.5, key, 0)
            with pytest.raises(error):
                compiled_kernels.sample_graph(BipartiteGraph, 4, 4, 0.5, 0, key)
        # a p above 1 draws the complete graph on both
        for kernel in (compiled_kernels, _pykernels):
            assert kernel.sample_graph(BipartiteGraph, 4, 4, 1.5, 1, 2).adj == (15,) * 4

    def test_sample_rows_take_positional_arguments_only(self, compiled_kernels):
        args = (BipartiteGraph, 2, 3, 0.5, 1)
        for kernel in (compiled_kernels, _pykernels):
            assert kernel.sample_graph(*args, 2) == _pykernels.sample_graph(*args, 2)
            with pytest.raises(TypeError):
                kernel.sample_graph(*args, stream=2)
            with pytest.raises(TypeError):
                kernel.sample_graph(cls=BipartiteGraph, m=2, n=3, p=0.5, root=1, stream=2)
            with pytest.raises(TypeError):
                kernel.sample_graph(*args, 2, 0)
            with pytest.raises(TypeError):
                kernel.sample_graph(*args)

    def test_source_compiles_without_warnings(self, tmp_path):
        # setup.py's -O3, where gcc runs the flow analyses behind its
        # array-bounds and uninitialised-use warnings
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        paths = sysconfig.get_paths()
        proc = subprocess.run(
            ["cc", "-Wall", "-Wextra", "-Werror", "-O3", f"-I{paths['include']}",
             f"-I{paths['platinclude']}", "-c", str(ROOT / "src" / "franklbip" / "_kernels.c"),
             "-o", str(tmp_path / "_kernels.o")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    # draws and scans across the word-count edges: rows on and past the
    # sampler's 256-bit stack buffer, one- and multi-word scans, transposed
    # scans, and the heap block a 300 x 3 transpose needs
    ASAN_CHILD = """
from franklbip import _kernels, graphs
for n in (1, 63, 64, 65, 256, 257, 300, 700):
    for m in (1, 3, 20, 62):
        g = graphs.sample_bipartite(m, n, 0.5, (1, n))
        assert g == _kernels.sample_graph(graphs.BipartiteGraph, m, n, 0.5, 1, n)
        lo = min(m, n) - 1
        _kernels.scan_free_hist(g.adj, m, n, lo, lo)
        top = g.adj[:3]
        _kernels.scan_free_hist(top, len(top), n)
        _kernels.scan_stats(top, len(top), n, 1, 1)
        if min(m, n) <= 20:
            _kernels.scan_stats(g.adj, m, n, 1, 1)
print(graphs.KERNEL)
"""

    def test_kernel_is_clean_under_address_sanitizer(self, tmp_path):
        # an out-of-bounds write that leaves every output intact, such as a
        # row one word past the sampler's stack buffer, shows only here
        cc = shutil.which("cc")
        if cc is None:
            pytest.skip("no C compiler on PATH")
        runtime = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                                 text=True).stdout.strip()
        if not os.path.isabs(runtime):
            pytest.skip("no AddressSanitizer runtime")
        package = tmp_path / "franklbip"
        shutil.copytree(ROOT / "src" / "franklbip", package,
                        ignore=shutil.ignore_patterns("*.so", "*.c", "__pycache__"))
        paths = sysconfig.get_paths()
        proc = subprocess.run(
            [cc, "-shared", "-fPIC", "-O1", "-fsanitize=address", f"-I{paths['include']}",
             f"-I{paths['platinclude']}", str(ROOT / "src" / "franklbip" / "_kernels.c"), "-o",
             str(package / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX")))],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
                   PYTHONPATH=str(tmp_path))
        env.pop("FRANKLBIP_PURE_PYTHON", None)
        proc = subprocess.run([sys.executable, "-c", self.ASAN_CHILD], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "compiled\n"), proc.stderr[-4000:]

    class Partial:
        __slots__ = ("m", "n")

    class ReadOnly:
        __slots__ = ("n", "adj")
        m = property(lambda self: 1)

    class Alien:
        # BipartiteGraph's own descriptors, which refuse any other instance
        m, n, adj = (BipartiteGraph.__dict__[name] for name in ("m", "n", "adj"))

    def test_sample_graph_needs_a_slotted_graph_class(self, compiled_kernels):
        classes = (5, "BipartiteGraph", object, int, tuple, self.Partial, self.ReadOnly,
                   self.Alien)
        for kernel in (compiled_kernels, _pykernels):
            for cls in classes:
                with pytest.raises(TypeError):
                    kernel.sample_graph(cls, 2, 3, 0.5, 1, 2)
        for cls, text in ((5, "'m', not 5"), (self.Partial, "'adj', not <class '.*Partial'>"),
                          (self.ReadOnly, "'m', not <class '.*ReadOnly'>")):
            with pytest.raises(TypeError, match=f"needs a class with a slot {text}"):
                compiled_kernels.sample_graph(cls, 2, 3, 0.5, 1, 2)

        class Sub(BipartiteGraph):
            pass

        for kernel in (compiled_kernels, _pykernels):
            g = kernel.sample_graph(Sub, 2, 3, 0.5, 1, 2)
            assert type(g) is Sub
            assert g._fields() == sample_bipartite(2, 3, 0.5, Seed(1, 2))._fields()

    def test_sample_graph_leaks_nothing(self, compiled_kernels):
        # m, n and the rows above 256 are no cached small ints, so a reference
        # leaked on any of them, on a draw or on a refused fill, grows the
        # traced memory by at least 28 bytes a call.  The bound sampler runs
        # beside sample_graph: tuple, Seed and generator seeds, a float p it
        # turns into an EdgeProbability, and two refusals.
        sample = compiled_kernels.sampler(*SAMPLER_CLASSES)
        prob, pair, seed = graph_module.EdgeProbability(0.5), (1, 2), Seed(3, 4)
        calls = (lambda t: compiled_kernels.sample_graph(BipartiteGraph, 257, 2, 0.5, 1, t),
                 lambda t: compiled_kernels.sample_graph(BipartiteGraph, 2, 300, 0.5, 1, t),
                 lambda t: compiled_kernels.sample_graph(self.Alien, 2, 300, 0.5, 1, t),
                 lambda t: sample(257, 2, prob, pair),
                 lambda t: sample(2, 300, prob, seed),
                 lambda t: sample(257, 2, prob, (key for key in (1, t))),
                 lambda t: sample(2, 300, 0.5, pair),
                 lambda t: sample(257, 0, prob, seed),
                 lambda t: sample(257, 2, prob, (1, 2, t)))

        def run(count):
            for t in range(count):
                try:
                    calls[t % len(calls)](t)
                except (TypeError, ValueError):
                    pass

        # the classes and the slot descriptors, held during each call, are no
        # allocation
        held = [*SAMPLER_CLASSES, prob, pair, seed,
                *(BipartiteGraph.__dict__[name] for name in BipartiteGraph.__slots__),
                graph_module.EdgeProbability.__dict__["p"]]
        run(100)
        refs = [sys.getrefcount(x) for x in held]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(24000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 20000
        assert [sys.getrefcount(x) for x in held] == refs

    @staticmethod
    def samplers(compiled_kernels):
        """Both kernels' samplers, bound as graphs binds sample_bipartite, the
        compiled one's first."""
        return [kernel.sampler(*SAMPLER_CLASSES) for kernel in (compiled_kernels, _pykernels)]

    def test_samplers_share_a_signature(self, compiled_kernels):
        compiled, twin = self.samplers(compiled_kernels)
        assert inspect.signature(compiled) == inspect.signature(twin)
        assert str(inspect.signature(compiled)) == "(m, n, prob, seed, /)"

    @pytest.mark.parametrize("seed", [lambda: (5, 7), lambda: Seed(5, 7), lambda: [5, 7],
                                      lambda: (key for key in (5, 7))],
                             ids=["tuple", "Seed", "list", "generator"])
    def test_samplers_draw_alike(self, compiled_kernels, seed):
        compiled, twin = self.samplers(compiled_kernels)
        for m, n, p in ((6, 2, 0.5), (3, 70, graph_module.EdgeProbability(0.3)),
                        (np.int64(4), True, 0.9), (2, 300, 1)):
            g = compiled(m, n, p, seed())
            assert type(g) is BipartiteGraph and (type(g.m), type(g.n)) == (int, int)
            want = _pykernels.sample_graph(BipartiteGraph, int(m), int(n),
                                           graph_module.as_prob(p).p, 5, 7)
            assert g == twin(m, n, p, seed()) == want

    # a call's arguments (a fresh tuple each time, since a generator seed is
    # spent by one call), its keywords and the error both samplers raise
    SAMPLER_REFUSALS = {
        "float-m": (lambda: (3.0, 4, 0.5, (1, 2)), {}, TypeError),
        "m-zero": (lambda: (0, 4, 0.5, (1, 2)), {}, graph_module.ZeroSideError),
        "n-zero": (lambda: (4, 0, 0.5, (1, 2)), {}, graph_module.ZeroSideError),
        "n-below-int64": (lambda: (4, -2 ** 70, 0.5, (1, 2)), {}, graph_module.ZeroSideError),
        "p-1.5": (lambda: (4, 4, 1.5, (1, 2)), {}, ValueError),
        # both draws take the sides as C ssize_t, so the sampler refuses a
        # larger side as a bad value, after p
        "m-2^64": (lambda: (2 ** 64, 2, 0.5, (1, 2)), {}, ValueError),
        "n-2^63": (lambda: (2, 2 ** 63, 0.5, (1, 2)), {}, ValueError),
        "m-2^64-p-1.5": (lambda: (2 ** 64, 2, 1.5, (1, 2)), {}, ValueError),
        "p-text": (lambda: (4, 4, "half", (1, 2)), {}, ValueError),
        "seed-3-tuple": (lambda: (4, 4, 0.5, (1, 2, 3)), {}, ValueError),
        "seed-1-list": (lambda: (4, 4, 0.5, [1]), {}, ValueError),
        "seed-3-generator": (lambda: (4, 4, 0.5, (key for key in (1, 2, 3))), {}, ValueError),
        "seed-int": (lambda: (4, 4, 0.5, 5), {}, TypeError),
        "key-2^64": (lambda: (4, 4, 0.5, (2 ** 64, 0)), {}, OverflowError),
        "key-negative": (lambda: (4, 4, 0.5, (1, -1)), {}, OverflowError),
        "key-float": (lambda: (4, 4, 0.5, (1, 2.0)), {}, TypeError),
        "keyword": (lambda: (4, 4, 0.5), {"seed": (1, 2)}, TypeError),
        "five-arguments": (lambda: (4, 4, 0.5, (1, 2), 0), {}, TypeError),
    }

    @pytest.mark.parametrize("make_args,kwargs,error", SAMPLER_REFUSALS.values(),
                             ids=SAMPLER_REFUSALS)
    def test_samplers_refuse_alike(self, compiled_kernels, make_args, kwargs, error):
        refusals = []
        for sample in self.samplers(compiled_kernels):
            with pytest.raises(Exception) as info:
                sample(*make_args(), **kwargs)
            refusals.append((info.type, str(info.value)))
        assert refusals[0][0] is error
        assert refusals[0] == refusals[1]

    @pytest.mark.parametrize("n", [1, 64, 65, 257])
    def test_compiled_sampler_draws_campaign_calls_itself(self, compiled_kernels, monkeypatch, n):
        # the cold path, bind_sampler's function, fails the test, so each
        # draw here comes from the compiled fast path, checked against numpy
        def bind_sampler(*bound):
            def cold_path(*args, **kwargs):
                pytest.fail(f"the cold path drew {args} {kwargs}")
            return cold_path

        monkeypatch.setattr(_pykernels, "bind_sampler", bind_sampler)
        sample = compiled_kernels.sampler(*SAMPLER_CLASSES)
        probs = [0.0, 1.0, 0.3, *map(graph_module.EdgeProbability, (0.0, 1.0, 0.7))]
        for m in (1, 3):
            for key in self.SAMPLE_KEYS:
                for prob in probs:
                    g = sample(m, n, prob, key)
                    assert type(g) is BipartiteGraph and (g.m, g.n) == (m, n)
                    assert g.adj == numpy_sample_rows(m, n, graph_module.as_prob(prob).p, *key)

    def test_compiled_sampler_needs_slotted_classes(self, compiled_kernels):
        prob_cls, error = SAMPLER_CLASSES[1:]
        for args, text in (((self.Partial, prob_cls, error), "slot 'adj'"),
                           ((BipartiteGraph, float, error), "slot 'p'"),
                           ((BipartiteGraph, prob_cls, 5), "needs an exception class")):
            with pytest.raises(TypeError, match=text):
                compiled_kernels.sampler(*args)


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
        g = graph_module.sample_bipartite(m, n, p, Seed(1302, m * 16 + n))
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
        g = graph_module.sample_bipartite(m, n, p, Seed(1212, CLOSURE_GRAPHS.index((m, n, p))))
        stats = mss_stats(g)
        rows, cols = self.closure(g.adj, n), self.closure(columns(g), m)
        assert stats.total == len(rows) == len(cols)
        assert list(stats.right_vertex_counts) == [
            stats.total - sum(s >> v & 1 for s in rows) for v in range(n)]
        assert list(stats.left_vertex_counts) == [
            stats.total - sum(s >> u & 1 for s in cols) for u in range(m)]
