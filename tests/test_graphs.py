import concurrent.futures
import copy
import dataclasses
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, empty_graph, matching_graph, swap_sides
from franklbip import graphs as graph_module
from franklbip.graphs import (
    MASK64,
    BipartiteGraph,
    EdgeProbability,
    GraphParseError,
    Seed,
    ZeroSideError,
    parse_graph,
    sample_bipartite,
    serialize_graph,
)
from franklbip.mss import ConjectureVerdict
from franklbip.setfamily import SetFamily


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

    def test_numpy_integer_sides_stored_as_int(self, kernel):
        g = sample_bipartite(np.int64(3), np.int64(4), 0.5, Seed(1))
        assert g == BipartiteGraph(3, 4, graph_module._impl.sample_rows(3, 4, 0.5, 1, 0))
        assert type(g.m) is int and type(g.n) is int
        assert json.loads(json.dumps(g.to_json_dict()))["m"] == 3
        with pytest.raises(TypeError):
            sample_bipartite(3.0, 4, 0.5, Seed(1))

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

    @pytest.mark.parametrize("m,n,adj", [
        (1, 2, (1.9,)), (1, 2, ("3",)), (1, 2, (1.0,)), (2, 2, (1, None)),
        (1.0, 2, (1,)), (1, 2.0, (1,)), ("1", 2, (1,)), (1, "2", (1,)),
    ])
    def test_non_integer_input_refused(self, m, n, adj):
        with pytest.raises(TypeError):
            BipartiteGraph(m, n, adj)

    def test_bool_and_numpy_integers_accepted(self):
        g = BipartiteGraph(np.int64(2), np.uint8(2), (True, np.uint64(2)))
        assert g == BipartiteGraph(2, 2, (1, 2))
        assert [type(v) for v in (g.m, g.n, *g.adj)] == [int] * 4

    def test_json_dict(self):
        d = matching_graph(2).to_json_dict()
        assert d == {"m": 2, "n": 2, "rows": ["10", "01"]}

    def test_columns_transpose(self):
        g = BipartiteGraph(2, 3, (0b011, 0b100))
        assert g.columns() == (1, 1, 2)


class TestValueTypes:
    """EdgeProbability, Seed, BipartiteGraph, SetFamily and ConjectureVerdict
    behave as frozen dataclasses do: immutable, equal and hashed by value,
    printed field by field."""

    VALUES = [
        (lambda: EdgeProbability(0.25), ("p",)),
        (lambda: Seed(5, 3), ("root", "stream")),
        (lambda: BipartiteGraph(2, 3, (0b101, 0b010)), ("m", "n", "adj")),
        (lambda: SetFamily(3, (0b110, 0b001, 0b110)), ("ground_size", "members")),
        (lambda: ConjectureVerdict(Fraction(1, 10), (0, Fraction(1, 2)), None, False),
         ("delta", "left_witness", "right_witness", "satisfied", "vacuous")),
    ]
    IDS = ["prob", "seed", "graph", "family", "verdict"]

    @pytest.mark.parametrize("make,fields", VALUES, ids=IDS)
    def test_assignment_raises(self, make, fields):
        value = make()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == make()

    @pytest.mark.parametrize("make,fields", VALUES, ids=IDS)
    def test_equal_values_equal_and_hash_alike(self, make, fields):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert hash(a) == hash(tuple(getattr(a, name) for name in fields))

    @pytest.mark.parametrize("make,fields", VALUES, ids=IDS)
    def test_repr_matches_dataclass(self, make, fields):
        value = make()
        twin = dataclasses.make_dataclass(type(value).__name__, fields, frozen=True)
        assert repr(value) == repr(twin(*(getattr(value, name) for name in fields)))

    @pytest.mark.parametrize("make,fields", VALUES, ids=IDS)
    def test_copy_and_pickle_round_trip(self, make, fields):
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)

    def test_other_classes_not_equal(self):
        prob, seed, graph, family, verdict = (make() for make, _ in self.VALUES)
        assert prob != 0.25 and prob != (0.25,)
        assert graph != (2, 3, (0b101, 0b010))
        assert BipartiteGraph(1, 1, (1,)) != EdgeProbability(1.0)
        for value in (prob, graph, 5, "Seed(root=5, stream=3)"):
            assert seed != value
        # Seed is a tuple, so it equals the plain tuple of its fields
        assert seed == (5, 3)
        assert family != (3, (0b001, 0b110)) and family != verdict
        assert verdict != (Fraction(1, 10), (0, Fraction(1, 2)), None, False, False)

    def test_distinct_values_differ(self):
        assert EdgeProbability(0.25) != EdgeProbability(0.5)
        assert Seed(5, 3) != Seed(5, 4)
        assert BipartiteGraph(1, 2, (1,)) != BipartiteGraph(1, 2, (2,))

    def test_seed_masks_to_64_bits(self):
        assert Seed(-1) == Seed(MASK64, 0)
        assert Seed(1 << 64, -2) == Seed(0, MASK64 - 1)
        assert Seed((1 << 70) + 9, (3 << 64) + 4) == Seed(9, 4)
        assert Seed(5)._replace(stream=-1).stream == MASK64
        assert (Seed(-1).root, Seed(-1).stream) == (MASK64, 0)

    def test_seed_child_composes(self):
        assert Seed(7).child(3) == Seed(7, 3)
        assert Seed(7, 2).child(3) == Seed(7, (2 << 32) | 3)
        assert Seed(7).child(3).child(5) == Seed(7, (3 << 32) | 5)
        # the shifted stream keeps its low 64 bits
        assert Seed(7, MASK64).child(1) == Seed(7, (MASK64 << 32 | 1) & MASK64)
        assert type(Seed(7).child(1)) is Seed

    def test_probability_nan_refused(self):
        with pytest.raises(ValueError, match="outside"):
            EdgeProbability(float("nan"))

    def test_probability_stored_as_float(self):
        assert type(EdgeProbability(1).p) is float
        assert EdgeProbability(1) == EdgeProbability(1.0)

    def test_graph_rows_stored_as_int_tuple(self):
        g = BipartiteGraph(2, 2, [True, 2])
        assert g.adj == (1, 2) and type(g.adj) is tuple
        assert [type(row) for row in g.adj] == [int, int]
