"""Pure-Python kernels; compiled twins in _kernels.c.

Subset scans.  scan_stats and scan_free_hist take a graph as it is stored:
rows[u] is the neighbourhood of left vertex u as a bitmask over the n right
vertices, and bits at n and above are ignored.  Each scans the smaller side,
the left on a tie; when that is the right side it transposes the rows first,
and scan_stats maps its results back, so they read in graph orientation.
Both kernels take their arguments positionally only, and they refuse a
wrong call, a row count other than m, a negative n and a smaller side over
MAX_SCAN_SIDE with the same exception types; the side refusals share their
texts too.

Both walk the subsets A of the scan side depth-first, carrying the covered
set N(A) of the other side as a bitmask.  A pair (A, other \\ N(A)) is counted
when every scan-side vertex outside A keeps a neighbour in the free part.
Two prunes keep degenerate inputs cheap: a vertex left out is dead as soon
as its whole neighbourhood is covered (coverage only grows down the tree),
and growing the coverage re-checks all vertices already left out, so
accepted leaves need no final scan.  Both walk the scan side in the same
order, by descending degree within the t bits of the other side, ties in
vertex order, so they build the same tree.  The compiled walk counts once
per subtree (the include branch of u credits the leaves below it to u and to
the vertices u covers first); scan_stats here counts at every leaf, which
keeps it a plain reference for the counts.

Sampler.  sample_graph runs Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) step for step as the compiled twin
does: the same constants, the 256-bit counter bumped before each block of
four words, and edge (u, v) present iff (word >> 11) < p 2^53.  That is
numpy's Philox bit generator followed by random() < p, which the tests use
as an independent reference.  It returns cls(m, n, rows), checked by the
constructor, and it is a plain draw: it checks no argument itself.  The
compiled twin checks what keeps a C draw safe and the graph valid.  sampler
binds the graph class, the probability class and the zero-side error to the
sampler that graphs exports as sample_bipartite, the one call a campaign
makes per trial, and that function makes every check of a public draw.  The
compiled twin's is a builtin, so a campaign's draw runs no Python frame; it
hands every call it does not draw itself to bind_sampler's function over the
compiled sample_graph, so both refuse a bad call alike, with the same types
and texts.
"""

import operator
import sys

# the largest scan side: the compiled kernel's counters are 64-bit
MAX_SCAN_SIDE = 62
_MASK64 = (1 << 64) - 1
_MASK256 = (1 << 256) - 1
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B


def maximal_pairs(rows, s, t, leaf):
    """Call leaf(chosen, free) once per maximal pair (A, other \\ N(A)).

    rows[u] is the neighbourhood of scan-side vertex u as a bitmask over the
    other side (t bits).  chosen lists the vertex ids of A in walk order
    (descending degree, ties by id), not in increasing order, and is reused
    between calls, so a leaf that keeps it must copy it; free is the free
    part as a bitmask.
    """
    full = (1 << t) - 1
    order = sorted(range(s), key=lambda u: -(rows[u] & full).bit_count())
    chosen = []
    out = []

    def visit(i, nb):
        if i == s:
            leaf(chosen, full & ~nb)
            return
        u = order[i]
        row = rows[u]
        grown = nb | row
        alive = True
        if grown != nb:
            free = full & ~grown
            for w in out:
                if rows[w] & free == 0:
                    alive = False
                    break
        if alive:
            chosen.append(u)
            visit(i + 1, grown)
            chosen.pop()
        if row & ~nb & full:
            out.append(u)
            visit(i + 1, nb)
            out.pop()

    visit(0, 0)


def _scan_side(rows, m, n):
    """(rows, s, t, transposed): the s rows of the side both kernels scan,
    each masked to the t bits of the other side.  That is the left side
    unless the right is smaller, when the rows are transposed.  Refuses a
    row count, n and side as the compiled kernel does, in the same order."""
    m, n = operator.index(m), operator.index(n)
    rows = list(rows)  # any iterable, as the compiled kernel takes
    if len(rows) != m:
        raise ValueError("row count does not match the left side size")
    if n < 0:
        raise ValueError("negative right side size")
    if min(m, n) > MAX_SCAN_SIDE:
        raise ValueError("scan side too large for 64-bit counters")
    full = (1 << n) - 1
    if m <= n:
        return [row & full for row in rows], m, n, False
    cols = [0] * n
    for u, row in enumerate(rows):
        row &= full
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << u
            row ^= low
    return cols, n, m, True


def scan_stats(rows, m, n, sel_left=-1, sel_right=-1, /):
    """Exact maximal-stable-set statistics of the m x n graph with these rows.

    Returns (total, left_hist, right_hist, left_counts, right_counts,
    sel_count): the number of maximal stable sets S, the histograms of
    |S ∩ L| and |S ∩ R|, for each vertex the number of S holding it, and the
    number of S with (|S ∩ L|, |S ∩ R|) == (sel_left, sel_right).
    """
    rows, s, t, transposed = _scan_side(rows, m, n)
    sel_k, sel_f = (sel_right, sel_left) if transposed else (sel_left, sel_right)
    total = 0
    sel_count = 0
    k_hist = [0] * (s + 1)
    f_hist = [0] * (t + 1)
    scan_counts = [0] * s
    other_counts = [0] * t

    def leaf(chosen, free):
        nonlocal total, sel_count
        k = len(chosen)
        f = free.bit_count()
        total += 1
        k_hist[k] += 1
        f_hist[f] += 1
        for w in chosen:
            scan_counts[w] += 1
        while free:
            low = free & -free
            other_counts[low.bit_length() - 1] += 1
            free ^= low
        if k == sel_k and f == sel_f:
            sel_count += 1

    maximal_pairs(rows, s, t, leaf)
    if transposed:
        return total, f_hist, k_hist, other_counts, scan_counts, sel_count
    return total, k_hist, f_hist, scan_counts, other_counts, sel_count


def scan_free_hist(rows, m, n, lo_left=0, lo_right=0, /):
    """Histogram of the free-part sizes over every subset A of the scan side
    with at least lo_left vertices if that is the left side, lo_right if it
    is the right.

    The scan side is the smaller side, the left on a tie, and the free part
    is the set of other-side vertices with no neighbour in A, so the result
    has one entry more than the other side has vertices.  No maximality
    filter: every subset contributes, which is what counting stable (not
    necessarily maximal) pairs needs.
    """
    rows, s, t, transposed = _scan_side(rows, m, n)
    lo_k = lo_right if transposed else lo_left
    freq = [0] * (t + 1)

    def visit(u, nb, k):
        if k + (s - u) < lo_k:
            return
        if u == s:
            freq[t - nb.bit_count()] += 1
            return
        visit(u + 1, nb | rows[u], k + 1)
        visit(u + 1, nb, k)

    visit(0, 0, 0)
    return freq


def _philox_words(k0, k1):
    """The Philox4x64-10 words keyed by (k0, k1), counter starting at 0."""
    round_keys = []
    for _ in range(10):
        round_keys.append((k0, k1))
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 = (k1 + _PHILOX_W1) & _MASK64
    ctr = 0
    while True:
        ctr = (ctr + 1) & _MASK256
        c0, c1 = ctr & _MASK64, ctr >> 64 & _MASK64
        c2, c3 = ctr >> 128 & _MASK64, ctr >> 192
        for k0, k1 in round_keys:
            p0 = _PHILOX_M0 * c0
            p1 = _PHILOX_M1 * c2
            c0, c1, c2, c3 = (p1 >> 64 ^ c1 ^ k0, p1 & _MASK64,
                              p0 >> 64 ^ c3 ^ k1, p0 & _MASK64)
        yield c0
        yield c1
        yield c2
        yield c3


def sample_graph(cls, m, n, p, root, stream, /):
    """cls(m, n, rows) for one draw of G(m, n, p); rows are bitmasks over n.

    The stream is Philox4x64-10 keyed by (root, stream), two integers in
    [0, 2^64), with the counter starting at 0.  Its (u*n + v)-th word x decides
    the edge (u, v): present iff the double (x >> 11) 2^-53 is below p.  A
    plain draw for arguments the sampler has checked; like the compiled twin,
    it takes them positionally only.
    """
    # scaling both sides of random() < p by 2^53 is exact
    threshold = p * 9007199254740992.0
    words = _philox_words(root, stream)
    return cls(m, n, tuple(sum(1 << v for v in range(n) if next(words) >> 11 < threshold)
                           for _ in range(m)))


def sampler(graph_cls, prob_cls, zero_side_error, /):
    """sample_bipartite(m, n, prob, seed, /), bound to these classes."""
    return bind_sampler(graph_cls, prob_cls, zero_side_error, sample_graph)


def bind_sampler(graph_cls, prob_cls, zero_side_error, draw, /):
    """sampler's function with draw, a sample_graph, in place of this
    module's.  The compiled sampler hands the calls it does not draw itself
    to bind_sampler(..., _kernels.sample_graph)."""

    def sample_bipartite(m, n, prob, seed, /):
        """Draw G from the independent-edge model on sides of size m and n.

        Each of the m*n edges is present independently with probability p
        under the counter-based stream identified by `seed`, a Seed or any
        (root, stream) pair of ints in [0, 2^64), such as Seed.children
        yields; the draw for edge (u, v) is the (u*n + v)-th variate of that
        stream, so results are bit-identical across runs and thread counts.
        m and n are taken through operator.index, as the graph class takes
        them, and a side below 1 raises zero_side_error and one past
        sys.maxsize ValueError.  prob is a prob_cls or anything prob_cls
        takes.  A key that is not an int raises TypeError and one outside
        [0, 2^64) OverflowError.
        """
        m, n = operator.index(m), operator.index(n)
        if m < 1 or n < 1:
            raise zero_side_error(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        root, stream = seed
        p = (prob if isinstance(prob, prob_cls) else prob_cls(prob)).p
        # the compiled draw takes the sides as C ssize_t and the keys as words
        for name, side in (("m", m), ("n", n)):
            if side > sys.maxsize:
                raise ValueError(f"need {name} <= {sys.maxsize}, the largest side a draw takes")
        for key in (root, stream):
            if not isinstance(key, int):
                raise TypeError(f"key must be an int, not {type(key).__name__}")
            if not 0 <= key <= _MASK64:
                raise OverflowError(f"key {key} outside [0, 2^64)")
        return draw(graph_cls, m, n, p, root, stream)

    # from 3.11 a bad call's TypeError names the function by its code's
    # qualified name: make that "sample_bipartite", as for a module-level
    # function.  3.10 names it by co_name, which is that already.
    if sys.version_info >= (3, 11):
        sample_bipartite.__code__ = sample_bipartite.__code__.replace(
            co_qualname="sample_bipartite")
    sample_bipartite.__qualname__ = "sample_bipartite"
    return sample_bipartite
