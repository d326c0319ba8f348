"""Bipartite graphs with a fixed bipartition, and seeded random sampling.

A graph lives on vertex classes L (size m) and R (size n); adjacency is
stored from the left side only, one bitmask over R per left vertex.  The
subset scans take the rows as stored and transpose them in the kernel when
they scan the right side.

The value types `EdgeProbability`, `Seed` and `BipartiteGraph` are immutable
and compare, hash and print by value, as frozen dataclasses would.  A
campaign builds a graph for every trial, and Seed.children a plain (root,
stream) pair, so they are light instead: Seed is a tuple whose constructor
masks both fields to 64 bits, and the other two are slotted classes whose
constructors check every field.
`sample_bipartite` is the active kernel's sampler, bound once at import to
BipartiteGraph, EdgeProbability and ZeroSideError.  The compiled one is a
builtin: a campaign's call, with int sides, a (root, stream) tuple and an
EdgeProbability, is drawn in C, the fields set through the slot
descriptors, so it runs no Python frame; any other call goes to the twin's
function over the compiled draw.  That function makes every check of a
public draw, so both kernels refuse a bad call alike, text for text; the
kernels' own draws check only what keeps them safe.  `mss.ConjectureVerdict`
and `setfamily.SetFamily` are slotted classes on the same base, so those
modules need no `dataclasses` for them.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple
from itertools import repeat

from . import _pykernels

# The compiled kernels (_kernels.c) are built when a C compiler is available;
# without them, or with FRANKLBIP_PURE_PYTHON set, the pure-Python twins run.
# This one choice covers the sampler here and the subset scans in mss.
if os.environ.get("FRANKLBIP_PURE_PYTHON"):
    _impl = _pykernels
    KERNEL = "python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        KERNEL = "compiled"
    except ImportError:
        _impl = _pykernels
        KERNEL = "python"

MASK64 = (1 << 64) - 1
# A child stream is its parent's stream shifted left by 32 bits with the child
# index in the low 32, so an index of 2^32 or more would spill into the
# parent's bits: trial 2^32 of sweep point 0 would draw as trial 0 of point 1.
MAX_TRIALS = 1 << 32


class ZeroSideError(ValueError):
    """A bipartition class would be empty."""


class GraphParseError(ValueError):
    """Malformed graph text (bad header, row count, row width or character)."""


# The two defaults, the scan limit and three errors below belong to mss,
# bounds and setfamily, which re-export them under these names.  They are
# defined here so that cli can build its parser and map every error to its
# exit code while importing only the modules a subcommand runs.

DEFAULT_CAP = 30  # the largest scan side, min(m, n), of every scan
# both kernels refuse a scan side above 62 (the compiled counters are 64-bit),
# so no cap and no set family's ground set goes past it
MAX_SCAN_SIDE = _pykernels.MAX_SCAN_SIDE
DEFAULT_ALPHA = 0.45  # the alpha of the regime bands' alpha*m threshold


class CapExceeded(RuntimeError):
    """The requested scan side is larger than the cap."""


class HypothesisViolation(ValueError):
    """A bound was requested outside the hypothesis that makes it valid."""


class FamilyParseError(ValueError):
    """Malformed set-family text."""


def fraction_text(x) -> str:
    """An exact rational as every JSON output writes it: "num/den", so an
    integer k is "k/1"."""
    return f"{x.numerator}/{x.denominator}"


class _Value:
    """Base of the slotted value types: equality, hash and repr by the fields
    in __slots__, as a frozen dataclass has them.  Assigning or deleting an
    attribute raises; each field is set once through the slot's own
    descriptor, which _slot_setters returns, by __init__ or, for a graph the
    compiled sampler draws, by the sampler.  copy and pickle pass the fields
    to __init__ positionally, so a subclass's __init__ takes them in __slots__ order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the checking constructor
        return type(self), self._fields()


def _slot_setters(cls) -> tuple:
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class EdgeProbability(_Value):
    """Edge probability p together with its complement q = 1 - p.

    Every closed-form bound requires p strictly inside (0, 1).  The sampler
    alone also accepts p = 0 and p = 1, which produce the empty and the
    complete bipartite graph; those values are flagged `degenerate`.
    """

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not 0.0 <= float(p) <= 1.0:
            raise ValueError(f"edge probability outside [0, 1]: {p}")
        _set_p(self, float(p))

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def degenerate(self) -> bool:
        return self.p == 0.0 or self.p == 1.0

    @property
    def log_inv_q(self) -> float:
        """ln(1/q); the scale of every log_{1/q} threshold."""
        self.require_interior()
        # log1p keeps full precision for p near 0
        return -math.log1p(-self.p)

    def require_interior(self) -> "EdgeProbability":
        if self.degenerate:
            raise ValueError(f"p={self.p} is degenerate; need 0 < p < 1")
        return self


(_set_p,) = _slot_setters(EdgeProbability)


def as_prob(p) -> EdgeProbability:
    """Coerce a float (or an EdgeProbability) to EdgeProbability."""
    if isinstance(p, EdgeProbability):
        return p
    return EdgeProbability(p)


class Seed(namedtuple("_SeedFields", ("root", "stream"))):
    """Root key plus a stream index for derived sub-streams.

    Equal (root, stream) pairs reproduce identical draws, independent of
    execution order and thread count.  Both fields are taken modulo 2^64.
    `child(i)` shifts the stream index left by 32 bits and ors in `i`, so
    trial indices occupy the low bits and an enclosing sweep's point index
    the next 32.  `children(count)` yields the first count children as
    plain (root, stream) pairs, shifting the stream once for all of them.  A
    Seed is a tuple, so each pair equals the child Seed.
    """

    __slots__ = ()

    def __new__(cls, root: int, stream: int = 0):
        return tuple.__new__(cls, (int(root) & MASK64, int(stream) & MASK64))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; keep both on the masking constructor
        return cls(*iterable)

    def _shifted(self) -> int:
        """The stream of child 0: this stream shifted left by 32 bits, masked."""
        return self.stream << 32 & MASK64

    def child(self, index: int) -> "Seed":
        # root is masked already and the new stream is masked here
        return tuple.__new__(Seed, (self.root, (self._shifted() | int(index)) & MASK64))

    def children(self, count: int):
        """An iterator over the (root, stream) pairs equal to child(0), ...,
        child(count - 1).  A count above MAX_TRIALS raises ValueError at
        once, since child(2^32) would share its stream with a child of the
        next stream."""
        if count > MAX_TRIALS:
            raise ValueError(f"count must be <= 2^32 = {MAX_TRIALS}, got {count}")
        base = self._shifted()
        # base | i is base + i for i < 2^32
        return zip(repeat(self.root), range(base, base + count))


class BipartiteGraph(_Value):
    """Bipartite graph on classes L (m vertices) and R (n vertices).

    adj[u] has bit v set iff the edge (u, v) is present.  Both sides must be
    nonempty and no adjacency bit may lie at position >= n.  m, n and each
    row are taken through operator.index, so a bool or a numpy integer is
    stored as an int and a float or a string raises TypeError.  Instances are
    immutable and safe to share across threads.  The compiled sampler fills a
    graph that passes these checks by construction and sets its fields itself.
    """

    __slots__ = ("m", "n", "adj")

    def __init__(self, m: int, n: int, adj: tuple):
        m, n = operator.index(m), operator.index(n)
        if m < 1 or n < 1:
            raise ZeroSideError(_pykernels.zero_side_message(m, n))
        adj = tuple(map(operator.index, adj))
        if len(adj) != m:
            raise ValueError(f"expected {m} adjacency rows, got {len(adj)}")
        limit = 1 << n
        if min(adj) < 0 or max(adj) >= limit:
            u = next(u for u, row in enumerate(adj) if not 0 <= row < limit)
            raise ValueError(f"adjacency row {u} has bits outside the right side")
        _set_m(self, m)
        _set_n(self, n)
        _set_adj(self, adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "rows": [_row_text(row, self.n) for row in self.adj]}


_set_m, _set_n, _set_adj = _slot_setters(BipartiteGraph)


# sample_bipartite(m, n, prob, seed, /) draws G(m, n, p) from the stream of
# seed, a Seed or any (root, stream) pair of ints in [0, 2^64); its contract
# is the twin's, in _pykernels.bind_sampler, whose function makes every check
# on both kernels.  The compiled one reads p from an EdgeProbability's slot
# and fills the graph's slots itself.
sample_bipartite = _impl.sampler(BipartiteGraph, EdgeProbability, ZeroSideError)


def _row_text(row: int, n: int) -> str:
    """Row as n characters in {0,1}; character v is edge (u, v)."""
    return "".join("1" if row >> v & 1 else "0" for v in range(n))


def serialize_graph(g: BipartiteGraph) -> str:
    """Canonical text form: header "m n", then m rows of n characters in {0,1}."""
    return "\n".join([f"{g.m} {g.n}", *(_row_text(row, g.n) for row in g.adj)]) + "\n"


def parse_graph(text: str) -> BipartiteGraph:
    """Inverse of serialize_graph; raises GraphParseError on malformed input."""
    lines = text.splitlines()
    if not lines:
        raise GraphParseError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError(f"malformed header {lines[0]!r}; expected 'm n'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError(f"malformed header {lines[0]!r}; expected two integers") from None
    if m < 1 or n < 1:
        raise ZeroSideError(_pykernels.zero_side_message(m, n))
    body = [line for line in lines[1:] if line.strip() != ""]
    if len(body) != m:
        raise GraphParseError(f"expected {m} rows, got {len(body)}")
    rows = []
    for i, line in enumerate(body):
        line = line.strip()
        if len(line) != n:
            raise GraphParseError(f"row {i} has width {len(line)}, expected {n}")
        bad = set(line) - {"0", "1"}
        if bad:
            raise GraphParseError(f"row {i} has illegal characters {sorted(bad)}")
        rows.append(sum(1 << v for v, ch in enumerate(line) if ch == "1"))
    return BipartiteGraph(m, n, tuple(rows))
