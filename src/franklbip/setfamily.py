"""Set families and the element-frequency check of the union-closed sets
conjecture, counted by the MSS subset scan.

Families are sorted lists of bitmasks over a ground set of at most
MAX_SCAN_SIDE (62) elements.  By the graph formulation of Bruhn, Charbit,
Schaudt and Telle (arXiv:1212.4175), in the graph joining each element to
the nonempty members that hold it, the maximal stable sets are one to one
with the union closure of those members plus the empty set: the MSS whose
ground part is A stands for the member "ground minus A".  So one scan of
the ground set counts the closure and each element's frequency in it.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .graphs import MAX_SCAN_SIDE, FamilyParseError, _impl, _slot_setters, _Value


class SetFamily(_Value):
    """Deduplicated family of subsets of {0, ..., ground_size - 1}, its
    members sorted.  Immutable, and equal, hashed and printed by value.
    ground_size and each member are taken through operator.index, so a bool
    is stored as an int and a float or a string raises TypeError."""

    __slots__ = ("ground_size", "members")

    def __init__(self, ground_size: int, members: tuple):
        ground_size = operator.index(ground_size)
        if not 1 <= ground_size <= MAX_SCAN_SIDE:
            raise ValueError(f"ground size must be in [1, {MAX_SCAN_SIDE}], got {ground_size}")
        members = tuple(sorted(set(map(operator.index, members))))
        limit = 1 << ground_size
        for mask in members:
            if not 0 <= mask < limit:
                raise ValueError(f"member {mask} has elements outside the ground set")
        _set_ground_size(self, ground_size)
        _set_members(self, members)

    def __len__(self):
        return len(self.members)


_set_ground_size, _set_members = _slot_setters(SetFamily)


# no caller under src/: perfbench/tracing.py wraps it by name; the tests' oracle
def union_closure(generators: SetFamily) -> SetFamily:
    """Smallest union-closed superfamily of the generators."""
    seen = set(generators.members)
    work = list(generators.members)
    while work:
        mask = work.pop()
        for other in list(seen):
            union = mask | other
            if union not in seen:
                seen.add(union)
                work.append(union)
    return SetFamily(generators.ground_size, tuple(sorted(seen)))


def frankl_check(family: SetFamily, closure: bool = False):
    """(members, best_element, frequency, satisfied) for a union-closed
    family, or for the union closure of any family when closure is set.

    members is the size of the family checked, and frequency the exact share
    of them holding best_element, its most frequent element (ties go to the
    smallest); satisfied means that share is at least 1/2.  Without closure
    a family that is not union-closed is refused.  The families {} and
    {empty set} are excluded by the statement.
    """
    if not family.members:
        raise ValueError("family is empty")
    if family.members == (0,):
        raise ValueError("the family containing only the empty set is excluded")
    has_empty = family.members[0] == 0
    nonempty = family.members[has_empty:]
    # the graph joins each nonempty member, on the left, to its elements, on
    # the right: one MSS per member of the closure of the nonempty members,
    # and one for the empty set; outside[x] counts the MSS whose member lacks x
    total, _, _, _, outside, _ = _impl.scan_stats(nonempty, len(nonempty), family.ground_size)
    members = total - (not has_empty)
    if not closure and members != len(family.members):
        raise ValueError("family is not union-closed")
    best = min(range(family.ground_size), key=outside.__getitem__)
    count = total - outside[best]
    return members, best, Fraction(count, members), 2 * count >= members


def parse_family(text: str) -> SetFamily:
    """One set per line as comma-separated element indices; '-' is the empty
    set.  The ground size is max element + 1.  A negative element, or one at
    or above MAX_SCAN_SIDE, is a FamilyParseError naming its line."""
    masks = []
    max_elem = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "-":
            masks.append(0)
            continue
        mask = 0
        for piece in line.split(","):
            piece = piece.strip()
            try:
                v = int(piece)
            except ValueError:
                raise FamilyParseError(
                    f"line {lineno}: {piece!r} is not an element index"
                ) from None
            if v < 0:
                raise FamilyParseError(f"line {lineno}: negative element {v}")
            if v >= MAX_SCAN_SIDE:
                raise FamilyParseError(
                    f"line {lineno}: element {v} outside the ground cap [0, {MAX_SCAN_SIDE})"
                )
            max_elem = max(max_elem, v)
            mask |= 1 << v
        masks.append(mask)
    if not masks:
        raise FamilyParseError("no sets in input")
    return SetFamily(max(max_elem + 1, 1), tuple(masks))
