from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import serialize_family
from franklbip.setfamily import (
    FamilyParseError,
    SetFamily,
    frankl_check,
    is_union_closed,
    parse_family,
    union_closure,
)


def brute_closure(generators):
    """Fixpoint oracle: repeat pairwise unions until nothing is new."""
    members = set(generators.members)
    while True:
        new = {a | b for a in members for b in members} - members
        if not new:
            return SetFamily(generators.ground_size, tuple(sorted(members)))
        members |= new


@st.composite
def families(draw, max_ground=5, max_gens=5):
    ground = draw(st.integers(1, max_ground))
    gens = draw(
        st.lists(st.integers(0, (1 << ground) - 1), min_size=1, max_size=max_gens)
    )
    return SetFamily(ground, tuple(gens))


class TestUnionClosure:
    def test_two_singletons_force_their_union(self):
        fam = SetFamily(2, (0b01, 0b10))
        assert union_closure(fam).members == (0b01, 0b10, 0b11)

    def test_closed_family_is_fixed_point(self):
        fam = SetFamily(2, (0b01, 0b10, 0b11))
        assert union_closure(fam) == fam

    def test_chain_of_three_pairs(self):
        # generators {1,2}, {2,3}, {3,4} on ground {1..4} (0-indexed here)
        fam = SetFamily(4, (0b0011, 0b0110, 0b1100))
        closed = union_closure(fam)
        assert closed == brute_closure(fam)
        assert closed.members == (0b0011, 0b0110, 0b0111, 0b1100, 0b1110, 0b1111)

    @given(families())
    @settings(max_examples=150, deadline=None)
    def test_matches_fixpoint_oracle(self, fam):
        assert union_closure(fam) == brute_closure(fam)

    @given(families())
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_extensive(self, fam):
        closed = union_closure(fam)
        assert union_closure(closed) == closed
        assert set(fam.members) <= set(closed.members)
        assert len(closed) <= 1 << fam.ground_size

    def test_ground_cap(self):
        with pytest.raises(ValueError):
            SetFamily(21, (1,))


class TestIsUnionClosed:
    def test_closure_output_closed(self):
        fam = union_closure(SetFamily(3, (0b001, 0b010, 0b100)))
        assert is_union_closed(fam)

    def test_two_singletons_not_closed(self):
        assert not is_union_closed(SetFamily(2, (0b01, 0b10)))

    @given(families())
    @settings(max_examples=100, deadline=None)
    def test_random_closures_closed(self, fam):
        assert is_union_closed(union_closure(fam))


class TestFranklCheck:
    def test_singletons_with_union(self):
        fam = SetFamily(2, (0b01, 0b10, 0b11))
        best, freq, ok = frankl_check(fam)
        assert best == 0
        assert freq == Fraction(2, 3)
        assert ok

    def test_power_set_minus_empty(self):
        fam = SetFamily(4, tuple(range(1, 16)))
        best, freq, ok = frankl_check(fam)
        assert freq == Fraction(8, 15)
        assert ok

    def test_tie_breaks_to_smallest_element(self):
        fam = SetFamily(2, (0b01, 0b10, 0b11))
        # element 0 and 1 both appear twice; smallest wins
        best, _, _ = frankl_check(fam)
        assert best == 0

    def test_rejects_not_union_closed(self):
        with pytest.raises(ValueError, match="union-closed"):
            frankl_check(SetFamily(2, (0b01, 0b10)))

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError, match="family is empty"):
            frankl_check(SetFamily(1, ()))

    def test_rejects_empty_set_family(self):
        with pytest.raises(ValueError, match="empty set"):
            frankl_check(SetFamily(1, (0,)))

    def test_seeded_generator_families_always_satisfy(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
        for i in range(1000):
            ground = 2 + int(rng.integers(0, 4))
            count = 1 + int(rng.integers(0, 4))
            gens = [int(rng.integers(1, 1 << ground)) for _ in range(count)]
            closed = union_closure(SetFamily(ground, tuple(gens)))
            _, _, ok = frankl_check(closed)
            assert ok, f"counterexample candidate: {closed}"


class TestFamilyText:
    def test_parse_basic(self):
        fam = parse_family("1\n2\n1,2\n")
        assert fam.members == (0b010, 0b100, 0b110)

    def test_parse_empty_set_dash(self):
        fam = parse_family("-\n0,1\n")
        assert fam.members == (0, 0b11)
        # no element is named, so the ground set is {0}
        assert parse_family("-\n") == SetFamily(1, (0,))

    def test_member_outside_ground_set(self):
        with pytest.raises(ValueError, match="member 4 has elements outside the ground set"):
            SetFamily(2, (1, 4))

    def test_round_trip(self):
        fam = union_closure(SetFamily(3, (0b101, 0b010)))
        assert parse_family(serialize_family(fam)) == fam

    def test_parse_errors(self):
        with pytest.raises(FamilyParseError):
            parse_family("1,x\n")
        with pytest.raises(FamilyParseError):
            parse_family("")
        with pytest.raises(FamilyParseError):
            parse_family("-1\n")
