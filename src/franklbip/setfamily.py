"""Brute-force layer for the original set formulation: union closures and
element-frequency checks on small ground sets.

Families are sorted lists of bitmasks over a ground set of at most 20
elements; the closure is the fixed point of pairwise unions, computed with
a worklist.  This layer is an independent sanity check and is deliberately
not wired to the graph machinery; it takes only its parse error from
`graphs`, where cli finds it without importing this module.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import FamilyParseError, _slot_setters, _Value

GROUND_CAP = 20


class SetFamily(_Value):
    """Deduplicated family of subsets of {0, ..., ground_size - 1}, its
    members sorted.  Immutable, and equal, hashed and printed by value."""

    __slots__ = ("ground_size", "members")

    def __init__(self, ground_size: int, members: tuple):
        if not 1 <= ground_size <= GROUND_CAP:
            raise ValueError(
                f"ground size must be in [1, {GROUND_CAP}], got {ground_size}"
            )
        members = tuple(sorted(set(int(x) for x in members)))
        limit = 1 << ground_size
        for mask in members:
            if not 0 <= mask < limit:
                raise ValueError(f"member {mask} has elements outside the ground set")
        _set_ground_size(self, ground_size)
        _set_members(self, members)

    def __len__(self):
        return len(self.members)


_set_ground_size, _set_members = _slot_setters(SetFamily)


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


def is_union_closed(family: SetFamily) -> bool:
    members = set(family.members)
    items = family.members
    for i, a in enumerate(items):
        for b in items[i:]:
            if a | b not in members:
                return False
    return True


def frankl_check(family: SetFamily):
    """Most frequent ground element of a union-closed family.

    Returns (best_element, frequency, satisfied) where satisfied means the
    element lies in at least half of the members.  Ties break towards the
    smallest element.  The family {empty set} is excluded by the statement,
    as is the empty family.
    """
    if not is_union_closed(family):
        raise ValueError("family is not union-closed")
    if len(family.members) == 0:
        raise ValueError("family is empty")
    if family.members == (0,):
        raise ValueError("the family containing only the empty set is excluded")
    universe = 0
    for mask in family.members:
        universe |= mask
    best_elem = None
    best_count = -1
    elem = universe
    while elem:
        low = elem & -elem
        v = low.bit_length() - 1
        count = sum(1 for mask in family.members if mask >> v & 1)
        if count > best_count:
            best_elem, best_count = v, count
        elem ^= low
    frequency = Fraction(best_count, len(family.members))
    return best_elem, frequency, 2 * best_count >= len(family.members)


def parse_family(text: str) -> SetFamily:
    """One set per line as comma-separated element indices; '-' is the empty
    set.  The ground size is max element + 1.  A negative element, or one at
    or above GROUND_CAP, is a FamilyParseError naming its line."""
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
            if v >= GROUND_CAP:
                raise FamilyParseError(
                    f"line {lineno}: element {v} outside the ground cap [0, {GROUND_CAP})"
                )
            max_elem = max(max_elem, v)
            mask |= 1 << v
        masks.append(mask)
    if not masks:
        raise FamilyParseError("no sets in input")
    return SetFamily(max(max_elem + 1, 1), tuple(masks))
