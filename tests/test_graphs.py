import concurrent.futures
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklbip.graphs import (
    BipartiteGraph,
    EdgeProbability,
    GraphParseError,
    Seed,
    ZeroSideError,
    complete_graph,
    empty_graph,
    matching_graph,
    parse_graph,
    sample_bipartite,
    serialize_graph,
    swap_sides,
)


@st.composite
def graphs(draw, max_side=6):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    return BipartiteGraph(m, n, tuple(rows))


class TestSampling:
    def test_p_one_gives_complete_graph(self):
        g = sample_bipartite(3, 2, 1.0, Seed(99))
        assert g.edge_count() == 6
        assert g == complete_graph(3, 2)

    def test_p_zero_gives_empty_graph(self):
        g = sample_bipartite(3, 2, 0.0, Seed(99))
        assert g.edge_count() == 0

    def test_mean_edge_count_matches_binomial(self):
        # 36 fair coins per sample: mean 18, variance 9
        trials = 10_000
        total = sum(
            sample_bipartite(6, 6, 0.5, Seed(7, i)).edge_count() for i in range(trials)
        )
        mean = total / trials
        assert abs(mean - 18.0) <= 3 * 3.0 / math.sqrt(trials)

    def test_per_pair_edge_frequency(self):
        trials = 10_000
        p = 0.3
        counts = [[0] * 4 for _ in range(3)]
        for i in range(trials):
            g = sample_bipartite(3, 4, p, Seed(21, i))
            for u in range(3):
                for v in range(4):
                    counts[u][v] += g.adj[u] >> v & 1
        radius = 4 * math.sqrt(p * (1 - p) / trials)
        for u in range(3):
            for v in range(4):
                assert abs(counts[u][v] / trials - p) <= radius

    def test_determinism_same_seed(self):
        a = sample_bipartite(8, 8, 0.5, Seed(5, 3))
        b = sample_bipartite(8, 8, 0.5, Seed(5, 3))
        assert a == b

    def test_distinct_streams_differ(self):
        a = sample_bipartite(8, 8, 0.5, Seed(5, 0))
        b = sample_bipartite(8, 8, 0.5, Seed(5, 1))
        assert a != b

    def test_determinism_across_threads(self):
        seeds = [Seed(13, i) for i in range(64)]
        serial = [sample_bipartite(5, 5, 0.4, s) for s in seeds]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda s: sample_bipartite(5, 5, 0.4, s), seeds))
        assert serial == threaded

    def test_zero_side_rejected(self):
        with pytest.raises(ZeroSideError):
            sample_bipartite(0, 3, 0.5, Seed(1))
        with pytest.raises(ZeroSideError):
            sample_bipartite(3, 0, 0.5, Seed(1))


class TestEdgeProbability:
    def test_q_complement(self):
        assert EdgeProbability(0.3).q == 0.7

    def test_degenerate_flag(self):
        assert EdgeProbability(1.0).degenerate
        assert EdgeProbability(0.0).degenerate
        assert not EdgeProbability(0.5).degenerate
        assert EdgeProbability(0.5).require_interior() is not None
        with pytest.raises(ValueError):
            EdgeProbability(1.0).require_interior()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            EdgeProbability(1.5)
        with pytest.raises(ValueError):
            EdgeProbability(-0.1)


class TestSwapSides:
    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_involution(self, g):
        assert swap_sides(swap_sides(g)) == g

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_preserves_edge_count(self, g):
        assert swap_sides(g).edge_count() == g.edge_count()

    def test_complete_swaps_to_complete(self):
        assert swap_sides(complete_graph(3, 2)) == complete_graph(2, 3)

    def test_single_edge_with_isolated_vertex(self):
        # u1-v1 plus isolated u2, so m=2, n=1
        g = BipartiteGraph(2, 1, (1, 0))
        t = swap_sides(g)
        assert (t.m, t.n) == (1, 2)
        assert t.adj == (1,)


class TestTextFormat:
    def test_perfect_matching_parse(self):
        g = parse_graph("2 2\n10\n01\n")
        assert g == matching_graph(2)

    def test_star_parse(self):
        g = parse_graph("1 3\n111\n")
        assert g == complete_graph(1, 3)

    def test_round_trip_canonical(self):
        text = "2 3\n101\n010\n"
        assert serialize_graph(parse_graph(text)) == text

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_any_graph(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_malformed_header(self):
        with pytest.raises(GraphParseError, match="header"):
            parse_graph("2\n10\n01\n")
        with pytest.raises(GraphParseError, match="header"):
            parse_graph("two 2\n10\n01\n")

    def test_wrong_row_count(self):
        with pytest.raises(GraphParseError, match="rows"):
            parse_graph("3 2\n10\n01\n")

    def test_wrong_row_width(self):
        with pytest.raises(GraphParseError, match="width"):
            parse_graph("2 2\n101\n01\n")

    def test_illegal_character(self):
        with pytest.raises(GraphParseError, match="illegal"):
            parse_graph("2 2\n1x\n01\n")

    def test_zero_side_header(self):
        with pytest.raises(ZeroSideError):
            parse_graph("0 2\n")


class TestConstruction:
    def test_row_count_must_match(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, (1,))

    def test_bits_confined_to_right_side(self):
        with pytest.raises(ValueError):
            BipartiteGraph(1, 2, (4,))

    def test_json_dict(self):
        d = matching_graph(2).to_json_dict()
        assert d == {"m": 2, "n": 2, "rows": ["10", "01"]}

    def test_columns_transpose(self):
        g = BipartiteGraph(2, 3, (0b011, 0b100))
        assert g.columns() == (1, 1, 2)
