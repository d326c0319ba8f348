/* Compiled kernels; pure-Python twins in _pykernels.py.
 *
 * Subset scans.  scan_stats and scan_free_hist take a graph as it is stored,
 * its m rows as ints over the n right vertices from any iterable, and scan
 * the smaller side, the left on a tie.  When that is the right side, the
 * rows are transposed here, so no caller builds the columns, and scan_stats
 * hands its results back in graph orientation.  Both share one call path,
 * scan(), and one context: a positional METH_FASTCALL call whose optional
 * ints are clamped to 64 bits, which no size reaches; one-word rows read
 * straight from the list or tuple; one zeroed block of words, on the stack
 * when it fits, as every one-word scan's does; the packing, the walk order,
 * and one walk with the interpreter lock released.  scan_free_hist's walk
 * is its own plain recursion over every subset that can reach its
 * threshold.  scan_stats's is the twin's walk, in the same order, with the
 * same prunes: coverage of the other side only grows down the tree, so a
 * left-out vertex whose neighbourhood is fully covered kills its subtree,
 * and re-checking left-out vertices whenever coverage grows makes accepted
 * leaves final without a closing scan.  The walk takes the scan side by
 * descending degree, ties in vertex order, so coverage grows fast near the
 * root; the sort happens here and scan_counts are mapped back to vertex
 * order.  Counts are taken once per subtree: each node returns its number of
 * leaves, and the include branch of u credits them to u and to each
 * other-side vertex u covers first.  A vertex is free at a leaf exactly when
 * no vertex of A covers it, so other_counts = total - covered, and leaves
 * only update the two size histograms.  A call with counts = 0 wants the
 * total, the histograms and sel_count alone: its walk credits nothing, and
 * it returns None for the two count lists.  Rows are packed into
 * W = word_count(t) words each, masked to the t bits of the other side.  One
 * walk body is compiled six times: with W = 1, where the coverage stays in a
 * register, or with W read at run time, each with and without the crediting
 * pass, and, on x86-64 under GCC or Clang, with W = 1 for AVX-512F, with and
 * without it.  The AVX-512 instances prune with one masked test per 8
 * left-out rows where the others test the rows one by one; the tree and its
 * order are the same.  Module init picks the one-word pair once, the
 * AVX-512 one when the CPU has AVX-512F, and exports its name as WALK,
 * "avx512f" or "scalar".  No walk touches a Python object.
 *
 * Sampler.  Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy
 * as 1, 2, 3", SC'11) run step for step as the twin's pure-Python Philox runs
 * it, which is also how numpy's Philox bit generator runs it, so a draw is
 * bit-identical to the twin's and to numpy's.  A draw takes O(m n) ns, so it
 * keeps the interpreter lock, a row of up to STACK_WORDS words lives on the
 * stack, each edge bit is set without a branch, and the graph is filled
 * through the class's slot descriptors, with no Python code run per draw.
 * sampler(graph_cls, prob_cls, zero_side_error, /) returns the builtin
 * sample_bipartite(m, n, prob, seed, /) that graphs exports, the one entry
 * that draws: its self holds the classes and the slot descriptors of m, n,
 * adj and p, looked up once.  It draws a campaign's calls (int sides, a tuple
 * of two int keys, an EdgeProbability) with no Python frame.  Any other call
 * is checked once, by the twin's function, which makes every check of a
 * public draw, so both kernels refuse alike, text for text; that function
 * hands the checked call back, and the builtin draws it.
 *
 * Every entry but that builtin takes positional arguments only and is
 * registered without keywords, so CPython refuses a keyword itself.  The
 * entries refuse a bad call with the exception types of their twins; only
 * the public sampler promises the same texts.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The AVX-512 walk is built for x86-64 by GCC or Clang, which compile a
 * function for a target its file is not built for and can ask the CPU at
 * run time.  FRANKLBIP_SCALAR_WALK leaves it out, so that the scalar one-word
 * walk can be built and tested on a host that has AVX-512 too. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) \
    && !defined(FRANKLBIP_SCALAR_WALK)
#define VECTOR_WALK 1
#include <immintrin.h>
#else
#define VECTOR_WALK 0
#endif

typedef uint64_t u64;

#define MAX_SCAN_SIDE 62
#define STACK_WORDS 4   /* the sampler keeps rows of up to 256 bits on the stack */
#define STACK_SCAN_WORDS 512   /* a one-word scan needs at most 380 words */

/* Words in a packed row of `bits` bits: ceil(bits / 64), and at least one, so
 * word 0 always exists.  The scans and the sampler all pack by this rule. */
static inline Py_ssize_t word_count(Py_ssize_t bits)
{
    return bits > 64 ? (bits + 63) / 64 : 1;
}

/* Both scans' context: scan_stats's walk reads sel_k and sel_f and keeps
 * word 0 of N(A) by value, scan_free_hist's reads t and lo_k. */
typedef struct {
    int s, t, W;
    const u64 *adj;      /* s rows of W words, in walk order */
    const u64 *full;     /* the t bits of the other side */
    u64 *nbstack;        /* N(A) at each depth, s + 1 rows of W words */
    long long sel_k, sel_f, lo_k;
    u64 sel_count;
    u64 *k_hist, *f_hist;
    u64 *scan_counts;    /* by walk position: leaves whose A holds it */
    u64 *covered;        /* by other-side vertex: leaves whose N(A) holds it */
} StatsCtx;

typedef u64 (*StatsVisit)(StatsCtx *, int, int, u64, u64);

/* Word wd of a covered set: word 0 travels by value, the others sit in an
 * nbstack row, so the one-word instance keeps its coverage in a register. */
static inline u64 cov_word(const u64 *words, u64 word0, int wd)
{
    return wd ? words[wd] : word0;
}

#if VECTOR_WALK
/* 1 when cov covers the row of some position that out marks, all of them
 * below top: one masked test per block of 8 one-word rows, whose masked load
 * reads only the rows that out marks, so none at or past top. */
static inline __attribute__((target("avx512f"))) int
covers_left_out_512(const u64 *rows, int top, u64 out, u64 cov)
{
    const __m512i uncovered = _mm512_set1_epi64((long long)~cov);
    for (int w = 0; w < top; w += 8) {
        const __mmask8 lanes = (__mmask8)(out >> w);
        if (_mm512_mask_testn_epi64_mask(lanes, _mm512_maskz_loadu_epi64(lanes, rows + w),
                                         uncovered))
            return 1;
    }
    return 0;
}
#endif

/* Node at walk position i with |A| = k and covered set (nb0, nbstack row i);
 * bit j of out marks position j < i left out.  Returns the number of leaves
 * below.  W is a compile-time constant in the one-word instances, so their
 * word loops unroll away, and counts is a constant in every instance, so the
 * histogram-only instances, where it is zero, have no crediting pass.  vec,
 * a constant too, is 1 only in the one-word AVX-512 instances, whose prune
 * tests the left-out rows 8 at a time. */
static inline __attribute__((always_inline)) u64
stats_body(StatsCtx *c, int i, int k, u64 out, u64 nb0, const int W, const int counts,
           const int vec, StatsVisit visit)
{
    const u64 *nb = c->nbstack + (size_t)i * W;
    if (i == c->s) {
        int f = 0;
        for (int wd = 0; wd < W; wd++)
            f += __builtin_popcountll(c->full[wd] & ~cov_word(nb, nb0, wd));
        c->k_hist[k]++;
        c->f_hist[f]++;
        c->sel_count += k == c->sel_k && f == c->sel_f;
        return 1;
    }
    const u64 *row = c->adj + (size_t)i * W;
    u64 *nxt = c->nbstack + (size_t)(i + 1) * W;
    const u64 nxt0 = nb0 | row[0];
    u64 grown = row[0] & ~nb0;
    for (int wd = 1; wd < W; wd++) {
        nxt[wd] = nb[wd] | row[wd];
        grown |= row[wd] & ~nb[wd];
    }
    int alive = 1;
    if (grown && vec) {
#if VECTOR_WALK
        alive = !covers_left_out_512(c->adj, i, out, nxt0);
#endif
    } else if (grown) {
        for (u64 x = out; x && alive; x &= x - 1) {
            const u64 *w_row = c->adj + (size_t)__builtin_ctzll(x) * W;
            int covered = 1;
            for (int wd = 0; wd < W && covered; wd++)
                covered = !(w_row[wd] & ~cov_word(nxt, nxt0, wd));
            alive = !covered;
        }
    }
    u64 leaves = 0;
    if (alive) {
        leaves = visit(c, i + 1, k + 1, out, nxt0);
        /* Credit the subtree to i and to the vertices i covers first. */
        if (counts) {
            c->scan_counts[i] += leaves;
            for (int wd = 0; wd < W; wd++)
                for (u64 x = row[wd] & ~cov_word(nb, nb0, wd); x; x &= x - 1)
                    c->covered[(wd << 6) + __builtin_ctzll(x)] += leaves;
        }
    }
    /* Leaving i out is only viable while part of its row is still uncovered. */
    if (grown) {
        memcpy(nxt + 1, nb + 1, (size_t)(W - 1) * sizeof(u64));
        leaves += visit(c, i + 1, k, out | (u64)1 << i, nb0);
    }
    return leaves;
}

static u64 stats_visit_1(StatsCtx *c, int i, int k, u64 out, u64 nb0)
{
    return stats_body(c, i, k, out, nb0, 1, 1, 0, stats_visit_1);
}

static u64 stats_visit_w(StatsCtx *c, int i, int k, u64 out, u64 nb0)
{
    return stats_body(c, i, k, out, nb0, c->W, 1, 0, stats_visit_w);
}

static u64 hist_visit_1(StatsCtx *c, int i, int k, u64 out, u64 nb0)
{
    return stats_body(c, i, k, out, nb0, 1, 0, 0, hist_visit_1);
}

static u64 hist_visit_w(StatsCtx *c, int i, int k, u64 out, u64 nb0)
{
    return stats_body(c, i, k, out, nb0, c->W, 0, 0, hist_visit_w);
}

#if VECTOR_WALK
static __attribute__((target("avx512f"))) u64
stats_visit_512(StatsCtx *c, int i, int k, u64 out, u64 nb0)
{
    return stats_body(c, i, k, out, nb0, 1, 1, 1, stats_visit_512);
}

static __attribute__((target("avx512f"))) u64
hist_visit_512(StatsCtx *c, int i, int k, u64 out, u64 nb0)
{
    return stats_body(c, i, k, out, nb0, 1, 0, 1, hist_visit_512);
}
#endif

/* The one-word walks, indexed by counts: the AVX-512 instances when
 * PyInit__kernels finds that the CPU has AVX-512F. */
static StatsVisit one_word_walk[2] = {hist_visit_1, stats_visit_1};

/* Node at walk position u with |A| = k and covered set nbstack row u (all W
 * words): stable, not only maximal, pairs, so no prune but lo_k's. */
static void free_hist_visit(StatsCtx *c, int u, int k)
{
    const int W = c->W;
    const u64 *nb = c->nbstack + (size_t)u * W;
    if (k + (c->s - u) < c->lo_k)
        return;
    if (u == c->s) {
        int f = c->t;
        for (int wd = 0; wd < W; wd++)
            f -= __builtin_popcountll(nb[wd]);
        c->f_hist[f]++;
        return;
    }
    const u64 *row = c->adj + (size_t)u * W;
    u64 *nxt = c->nbstack + (size_t)(u + 1) * W;
    for (int wd = 0; wd < W; wd++)
        nxt[wd] = nb[wd] | row[wd];
    free_hist_visit(c, u + 1, k + 1);
    memcpy(nxt, nb, (size_t)W * sizeof(u64));
    free_hist_visit(c, u + 1, k);
}

/* --- Philox4x64-10 ----------------------------------------------------------- */

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* numpy's state after Philox(key=...): counter 0 and an empty buffer, so the
 * counter is incremented, with carry, before each block of four words. */
typedef struct {
    u64 ctr[4], key[2];
} Philox;

/* The next block of four words, into out. */
static inline void philox_block(Philox *g, u64 *out)
{
    for (int i = 0; i < 4 && ++g->ctr[i] == 0; i++)
        ;
    u64 c0 = g->ctr[0], c1 = g->ctr[1], c2 = g->ctr[2], c3 = g->ctr[3];
    u64 k0 = g->key[0], k1 = g->key[1];
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * c0;
        unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * c2;
        c0 = (u64)(p1 >> 64) ^ c1 ^ k0;
        c1 = (u64)p1;
        c2 = (u64)(p0 >> 64) ^ c3 ^ k1;
        c3 = (u64)p0;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

/* --- Python boundary ------------------------------------------------------ */

/* 0 when nargs lies in [lo, hi], else -1 with a TypeError.  Every entry but
 * the bound sample_bipartite is METH_FASTCALL without METH_KEYWORDS, so
 * CPython itself refuses a keyword, and this refuses a wrong count. */
static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t lo, Py_ssize_t hi)
{
    if (nargs >= lo && nargs <= hi)
        return 0;
    if (lo == hi)
        PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments, got %zd", name, lo,
                     nargs);
    else
        PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd positional arguments, got %zd", name,
                     lo, hi, nargs);
    return -1;
}

/* A scan call of at most max_args arguments, checked as the twin's _scan_side
 * checks it: the graph's rows as a list or tuple, and the layout of the side
 * both kernels scan, the smaller one, the left on a tie.  extra holds the
 * two optional integer arguments, the left side's first, -1 when absent,
 * which no size equals and every subset reaches. */
typedef struct {
    PyObject *rows;   /* a new reference */
    int s, t, W, transposed;
    long long extra[2];
} ScanCall;

static int scan_call(const char *name, PyObject *const *args, Py_ssize_t nargs,
                     Py_ssize_t max_args, ScanCall *sc)
{
    if (check_nargs(name, nargs, 3, max_args) < 0)
        return -1;
    /* m and n as operator.index takes them */
    Py_ssize_t m = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    if (m == -1 && PyErr_Occurred())
        return -1;
    Py_ssize_t n = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return -1;
    for (int i = 0; i < 2; i++) {
        int past = 0;
        sc->extra[i] = 3 + i < nargs ? PyLong_AsLongLongAndOverflow(args[3 + i], &past) : -1;
        if (sc->extra[i] == -1 && PyErr_Occurred())
            return -1;
        /* Past 64 bits, clamped: no size equals it, as none equals the int,
         * and a subset reaches it exactly when it reaches the int. */
        if (past)
            sc->extra[i] = past > 0 ? LLONG_MAX : LLONG_MIN;
    }
    sc->rows = PySequence_Fast(args[0], "rows must be a sequence");
    if (sc->rows == NULL)
        return -1;
    const char *refusal = NULL;
    if (PySequence_Fast_GET_SIZE(sc->rows) != m)
        refusal = "row count does not match the left side size";
    else if (n < 0)
        refusal = "negative right side size";
    else if ((n < m ? n : m) > MAX_SCAN_SIDE)
        refusal = "scan side too large for 64-bit counters";
    if (refusal != NULL) {
        PyErr_SetString(PyExc_ValueError, refusal);
        Py_CLEAR(sc->rows);
        return -1;
    }
    sc->transposed = n < m;
    Py_ssize_t t = sc->transposed ? m : n;
    if (t >= INT_MAX) {
        /* a row of t bits would not fit in memory anyway */
        PyErr_NoMemory();
        Py_CLEAR(sc->rows);
        return -1;
    }
    sc->s = (int)(sc->transposed ? n : m);
    sc->t = (int)t;
    sc->W = (int)word_count(t);
    return 0;
}

/* The low 64 bits of a row, as operator.index(row) & (2^64 - 1). */
static inline int row_word(PyObject *row, u64 *word)
{
    *word = PyLong_AsUnsignedLongLongMask(row);
    return *word == (u64)-1 && PyErr_Occurred() ? -1 : 0;
}

/* full = the t bits of the other side, and out (zeroed) = the s scan-side
 * rows in vertex order, W words each: the graph's rows masked to the t bits
 * when the left side is scanned, their transpose when the right is. */
static int pack_scan_side(const ScanCall *sc, u64 *full, u64 *out)
{
    const int s = sc->s, t = sc->t, W = sc->W;
    PyObject *const *items = PySequence_Fast_ITEMS(sc->rows);
    u64 row;
    for (int wd = 0; wd < W; wd++)
        full[wd] = t - 64 * wd >= 64 ? ~(u64)0 : ((u64)1 << (t - 64 * wd)) - 1;
    if (sc->transposed) {
        /* The t rows each fit a word, as the right side has s <= 62 bits:
         * bit v of row u becomes bit u of column v. */
        for (int u = 0; u < t; u++) {
            if (row_word(items[u], &row) < 0)
                return -1;
            for (u64 x = row & (((u64)1 << s) - 1); x; x &= x - 1)
                out[(size_t)__builtin_ctzll(x) * W + (u >> 6)] |= (u64)1 << (u & 63);
        }
        return 0;
    }
    if (W == 1) {
        for (int u = 0; u < s; u++) {
            if (row_word(items[u], &row) < 0)
                return -1;
            out[u] = row & full[0];
        }
        return 0;
    }
    PyObject *sixty_four = PyLong_FromLong(64);
    if (sixty_four == NULL)
        return -1;
    for (int u = 0; u < s; u++) {
        PyObject *rest = PyNumber_Index(items[u]);
        for (int wd = 0; rest != NULL && wd < W; wd++) {
            out[(size_t)u * W + wd] = PyLong_AsUnsignedLongLongMask(rest) & full[wd];
            if (wd + 1 < W)
                Py_SETREF(rest, PyNumber_Rshift(rest, sixty_four));
        }
        if (rest == NULL) {
            Py_DECREF(sixty_four);
            return -1;
        }
        Py_DECREF(rest);
    }
    Py_DECREF(sixty_four);
    return 0;
}

static PyObject *counts_to_list(const u64 *counts, int len)
{
    PyObject *list = PyList_New(len);
    for (int i = 0; list != NULL && i < len; i++) {
        PyObject *v = PyLong_FromUnsignedLongLong(counts[i]);
        if (v == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, v);
    }
    return list;
}

/* Walk positions: vertices by descending degree, ties in vertex order. */
static void degree_order(const u64 *rows, int s, int W, int *order)
{
    int deg[MAX_SCAN_SIDE];
    for (int u = 0; u < s; u++) {
        deg[u] = 0;
        for (int wd = 0; wd < W; wd++)
            deg[u] += __builtin_popcountll(rows[(size_t)u * W + wd]);
        int i = u;
        for (; i > 0 && deg[order[i - 1]] < deg[u]; i--)
            order[i] = order[i - 1];
        order[i] = u;
    }
}

/* Both scans: the maximal-pair walk when maximal is 1, scan_stats's, else
 * the free-part walk, scan_free_hist's.  Both take the same checks, block,
 * packing and walk order, and walk with the interpreter lock released. */
static PyObject *scan(const char *name, PyObject *const *args, Py_ssize_t nargs, int maximal)
{
    ScanCall sc;
    if (scan_call(name, args, nargs, 5 + maximal, &sc) < 0)
        return NULL;
    /* counts as the twin's `if counts:` reads it; the free-part scan has none */
    const int counts = nargs > 5 ? PyObject_IsTrue(args[5]) : 1;
    if (counts < 0) {
        Py_DECREF(sc.rows);
        return NULL;
    }
    /* flip = 1 when the right side is scanned: then a (left, right) pair
     * and a (scan, other) pair list their sides in opposite orders */
    const int s = sc.s, t = sc.t, W = sc.W, flip = sc.transposed;
    PyObject *result = NULL;
    /* One zeroed block: full, adj, nbstack, then the count arrays, f_hist
     * first and the other three for scan_stats alone, on the stack when it
     * fits, as every one-word scan's does. */
    const size_t words = (size_t)W * (2 * s + 2) + t + 1 + (maximal ? 2 * (size_t)s + t + 1 : 0);
    u64 stack_block[STACK_SCAN_WORDS];
    u64 *buf = words <= STACK_SCAN_WORDS ? memset(stack_block, 0, words * sizeof(u64))
                                         : calloc(words, sizeof(u64));
    if (buf == NULL) {
        Py_DECREF(sc.rows);
        return PyErr_NoMemory();
    }
    u64 *adj = buf + W;
    StatsCtx c = {.s = s, .t = t, .W = W, .sel_k = sc.extra[flip], .sel_f = sc.extra[!flip],
                  .lo_k = sc.extra[flip], .full = buf, .adj = adj};
    c.nbstack = adj + (size_t)W * s;
    c.f_hist = c.nbstack + (size_t)W * (s + 1);
    c.k_hist = c.f_hist + t + 1;
    c.scan_counts = c.k_hist + s + 1;
    c.covered = c.scan_counts + s;
    /* Rows are packed in vertex order into nbstack, whose rows below the
     * root are scratch until the walk, and copied into adj in walk order. */
    int packed = pack_scan_side(&sc, buf, c.nbstack);
    Py_DECREF(sc.rows);
    if (packed == 0) {
        int order[MAX_SCAN_SIDE];
        u64 total = 0, by_vertex[MAX_SCAN_SIDE];
        degree_order(c.nbstack, s, W, order);
        for (int i = 0; i < s; i++)
            memcpy(adj + (size_t)i * W, c.nbstack + (size_t)order[i] * W, (size_t)W * sizeof(u64));
        memset(c.nbstack, 0, (size_t)W * sizeof(u64));
        StatsVisit walk = W == 1 ? one_word_walk[counts]
                                 : (counts ? stats_visit_w : hist_visit_w);
        Py_BEGIN_ALLOW_THREADS
        if (maximal)
            total = walk(&c, 0, 0, 0, 0);
        else
            free_hist_visit(&c, 0, 0);
        Py_END_ALLOW_THREADS
        if (!maximal) {
            result = counts_to_list(c.f_hist, t + 1);
        } else {
            /* (scan, other) pairs, returned in graph orientation */
            PyObject *hists[2] = {counts_to_list(c.k_hist, s + 1),
                                  counts_to_list(c.f_hist, t + 1)};
            PyObject *vertex_counts[2] = {Py_NewRef(Py_None), Py_NewRef(Py_None)};
            if (counts) {
                for (int i = 0; i < s; i++)
                    by_vertex[order[i]] = c.scan_counts[i];
                for (int v = 0; v < t; v++)
                    c.covered[v] = total - c.covered[v];
                Py_SETREF(vertex_counts[0], counts_to_list(by_vertex, s));
                Py_SETREF(vertex_counts[1], counts_to_list(c.covered, t));
            }
            result = Py_BuildValue("(KNNNNK)", (unsigned long long)total,
                                   hists[flip], hists[!flip],
                                   vertex_counts[flip], vertex_counts[!flip],
                                   (unsigned long long)c.sel_count);
        }
    }
    if (buf != stack_block)
        free(buf);
    return result;
}

PyDoc_STRVAR(scan_stats_doc,
"scan_stats(rows, m, n, sel_left=-1, sel_right=-1, counts=1, /)\n--\n\n"
"Compiled counterpart of _pykernels.scan_stats (same contract).");

static PyObject *scan_stats(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    return scan("scan_stats", args, nargs, 1);
}

PyDoc_STRVAR(scan_free_hist_doc,
"scan_free_hist(rows, m, n, lo_left=0, lo_right=0, /)\n--\n\n"
"Compiled counterpart of _pykernels.scan_free_hist (same contract).");

static PyObject *scan_free_hist(PyObject *Py_UNUSED(self), PyObject *const *args,
                                Py_ssize_t nargs)
{
    return scan("scan_free_hist", args, nargs, 0);
}

/* Inverse of pack_scan_side's multi-word path for one row: W little-endian
 * words to an int. */
static PyObject *words_to_long(const u64 *words, Py_ssize_t W, PyObject *sixty_four)
{
    PyObject *acc = PyLong_FromUnsignedLongLong(words[W - 1]);
    for (Py_ssize_t wd = W - 2; acc != NULL && wd >= 0; wd--) {
        PyObject *word = PyLong_FromUnsignedLongLong(words[wd]);
        PyObject *shifted = word ? PyNumber_Lshift(acc, sixty_four) : NULL;
        Py_DECREF(acc);
        acc = shifted ? PyNumber_Or(shifted, word) : NULL;
        Py_XDECREF(shifted);
        Py_XDECREF(word);
    }
    return acc;
}

/* Interned "m", "n" and "adj", the slots a draw fills, and "p", the slot a
 * bound sampler reads. */
static PyObject *field_names[4];

/* cls's descriptor of slot field_names[i], found as attribute lookup on a
 * class finds it (a borrowed reference), or NULL with sampler()'s TypeError.
 * Slots only: setting or reading one runs no Python code. */
static PyObject *slot_descr(PyObject *cls, int i)
{
    PyObject *descr = PyType_Check(cls) ? _PyType_Lookup((PyTypeObject *)cls, field_names[i])
                                        : NULL;
    if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError, "sampler() needs a class with a slot %R, not %R",
                     field_names[i], cls);
        return NULL;
    }
    return descr;
}

/* One draw of G(m, n, p) from the stream keyed by key: a new instance of cls
 * with its fields set through descrs, cls's descriptors of m, n and adj.  The
 * graph passes BipartiteGraph's checks by construction: the tuple has m slots
 * and is filled whole or dropped, and no row gets a bit at or past n. */
static PyObject *draw_graph(PyTypeObject *cls, PyObject *const descrs[3], Py_ssize_t m,
                            Py_ssize_t n, double p, const u64 key[2])
{
    Py_ssize_t W = word_count(n);
    u64 stack_words[STACK_WORDS];
    u64 *words = W <= STACK_WORDS ? stack_words : malloc((size_t)W * sizeof(u64));
    if (words == NULL)
        return PyErr_NoMemory();
    /* held while the draw allocates, which may run a finalizer */
    for (int i = 0; i < 3; i++)
        Py_INCREF(descrs[i]);
    PyObject *sixty_four = PyLong_FromLong(64);
    PyObject *rows = sixty_four ? PyTuple_New(m) : NULL;
    /* numpy's random() is (x >> 11) * 2^-53; scaling both sides by 2^53 is
     * exact, so this is the same test as random() < p.  Its 0/1 outcome is
     * shifted into place, so no branch depends on the draw. */
    const double threshold = p * 9007199254740992.0;
    Philox g = {.key = {key[0], key[1]}};
    u64 block[4];
    int used = 4;   /* words of block already drawn */
    for (Py_ssize_t u = 0; rows != NULL && u < m; u++) {
        for (Py_ssize_t wd = 0; wd < W; wd++) {
            const int bits = n - 64 * wd < 64 ? (int)(n - 64 * wd) : 64;
            u64 word = 0;
            for (int b = 0; b < bits; b++) {
                if (used == 4) {
                    philox_block(&g, block);
                    used = 0;
                }
                word |= (u64)((double)(block[used++] >> 11) < threshold) << b;
            }
            words[wd] = word;
        }
        PyObject *row = words_to_long(words, W, sixty_four);
        if (row == NULL)
            Py_CLEAR(rows);
        else
            PyTuple_SET_ITEM(rows, u, row);
    }
    Py_XDECREF(sixty_four);
    if (words != stack_words)
        free(words);
    /* A new instance whose fields are set through their descriptors, as
     * graphs._slot_setters sets them. */
    PyObject *values[3] = {NULL, NULL, rows};
    if (rows != NULL && (values[0] = PyLong_FromSsize_t(m)) != NULL)
        values[1] = PyLong_FromSsize_t(n);
    PyObject *graph = values[1] ? cls->tp_alloc(cls, 0) : NULL;
    for (int i = 0; graph != NULL && i < 3; i++)
        if (Py_TYPE(descrs[i])->tp_descr_set(descrs[i], graph, values[i]) < 0)
            Py_CLEAR(graph);
    for (int i = 0; i < 3; i++) {
        Py_XDECREF(values[i]);
        Py_DECREF(descrs[i]);
    }
    return graph;
}

/* A bound sampler's self is a tuple: the graph and probability classes
 * sampler() took, the cold path (the twin's checks, bound over a draw that
 * hands the checked call back), then the graph class's descriptors of m, n
 * and adj and the probability class's descriptor of p, each looked up once,
 * by sampler(). */
enum { GRAPH_CLS, PROB_CLS, COLD_PATH, DESCR_M, DESCR_N, DESCR_ADJ, DESCR_P, BOUND_FIELDS };

/* A side the builtin draws: an int, exactly, in [1, PY_SSIZE_T_MAX]. */
static int fast_side(PyObject *side, Py_ssize_t *out)
{
    int past = 1;
    long long value = PyLong_CheckExact(side) ? PyLong_AsLongLongAndOverflow(side, &past) : 0;
    *out = (Py_ssize_t)value;
    return !past && value >= 1 && value == *out;
}

/* A key the builtin draws: an int, exactly, in [0, 2^64). */
static int fast_key(PyObject *key, u64 *out)
{
    if (!PyLong_CheckExact(key))
        return 0;
    *out = PyLong_AsUnsignedLongLong(key);
    if (*out == (u64)-1 && PyErr_Occurred()) {
        PyErr_Clear();   /* the OverflowError of a key outside the range */
        return 0;
    }
    return 1;
}

/* 1 when both sides and both keys are ones the builtin draws, read into m, n
 * and key; the one acceptance of both paths. */
static int fast_call(PyObject *const *sides, PyObject *const *keys, Py_ssize_t *m,
                     Py_ssize_t *n, u64 key[2])
{
    return fast_side(sides[0], m) && fast_side(sides[1], n) && fast_key(keys[0], &key[0])
           && fast_key(keys[1], &key[1]);
}

PyDoc_STRVAR(sample_bipartite_doc,
"sample_bipartite(m, n, prob, seed, /)\n--\n\n"
"Compiled counterpart of the sampler _pykernels.sampler binds (same contract).");

/* The fast path takes what a campaign passes: two int sides of at least 1,
 * a tuple of two int keys, and a prob_cls instance whose p lies in [0, 1].
 * Any other call (a float p, say) goes to the cold path, the twin's function,
 * which makes every check and raises every refusal, so both kernels refuse
 * alike by construction.  It hands back the checked call (graph_cls, m, n, p,
 * root, stream), and this draws it with the same acceptance and draw_graph.
 * A call the acceptance refuses is a fault of the checks, so SystemError. */
static PyObject *sample_bipartite(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
                                  PyObject *kwnames)
{
    PyObject *const *bound = &PyTuple_GET_ITEM(self, 0);
    Py_ssize_t m, n;
    u64 key[2];
    double p;
    PyObject *seed = nargs == 4 ? args[3] : NULL;
    if (kwnames == NULL && seed != NULL && PyTuple_CheckExact(seed) && PyTuple_GET_SIZE(seed) == 2
            && fast_call(args, &PyTuple_GET_ITEM(seed, 0), &m, &n, key)
            && Py_IS_TYPE(args[2], (PyTypeObject *)bound[PROB_CLS])) {
        PyObject *descr_p = bound[DESCR_P];
        PyObject *p_value = Py_TYPE(descr_p)->tp_descr_get(descr_p, args[2], NULL);
        if (p_value == NULL)
            return NULL;
        p = PyFloat_CheckExact(p_value) ? PyFloat_AS_DOUBLE(p_value) : -1.0;
        Py_DECREF(p_value);
        if (p >= 0.0 && p <= 1.0)
            return draw_graph((PyTypeObject *)bound[GRAPH_CLS], bound + DESCR_M, m, n, p, key);
    }
    PyObject *call = PyObject_Vectorcall(bound[COLD_PATH], args, nargs, kwnames);
    if (call == NULL)
        return NULL;
    PyObject *const *checked = PyTuple_CheckExact(call) && PyTuple_GET_SIZE(call) == 6
                                   ? &PyTuple_GET_ITEM(call, 0) : NULL;
    PyObject *graph = NULL;
    /* p is prob_cls(prob).p, read as any float is read */
    if (checked == NULL || checked[0] != bound[GRAPH_CLS]
            || !fast_call(checked + 1, checked + 4, &m, &n, key))
        PyErr_SetString(PyExc_SystemError, "the sampler's checks passed a call it cannot draw");
    else if ((p = PyFloat_AsDouble(checked[3])) != -1.0 || !PyErr_Occurred())
        graph = draw_graph((PyTypeObject *)bound[GRAPH_CLS], bound + DESCR_M, m, n, p, key);
    Py_DECREF(call);
    return graph;
}

static PyMethodDef sample_bipartite_def = {
    "sample_bipartite", (PyCFunction)(void (*)(void))sample_bipartite,
    METH_FASTCALL | METH_KEYWORDS, sample_bipartite_doc,
};

PyDoc_STRVAR(sampler_doc,
"sampler(graph_cls, prob_cls, zero_side_error, /)\n--\n\n"
"Compiled counterpart of _pykernels.sampler (same contract).  Refuses a\n"
"graph class without slots m, n and adj, a probability class without a\n"
"slot p, and an error that is no exception class.");

static PyObject *sampler(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("sampler", nargs, 3, 3) < 0)
        return NULL;
    PyObject *held[BOUND_FIELDS] = {args[0], args[1], NULL};
    for (int i = 0; i < 3; i++)
        if ((held[DESCR_M + i] = slot_descr(args[0], i)) == NULL)
            return NULL;
    if ((held[DESCR_P] = slot_descr(args[1], 3)) == NULL)
        return NULL;
    if (!PyExceptionClass_Check(args[2])) {
        PyErr_Format(PyExc_TypeError, "sampler() needs an exception class, not %R", args[2]);
        return NULL;
    }
    /* the cold path: _pykernels.bind_sampler(*args, _pykernels._hand_back) */
    PyObject *twin = PyImport_ImportModule("franklbip._pykernels");
    PyObject *draw = twin ? PyObject_GetAttrString(twin, "_hand_back") : NULL;
    PyObject *cold = draw ? PyObject_CallMethod(twin, "bind_sampler", "OOOO", args[0], args[1],
                                                args[2], draw) : NULL;
    Py_XDECREF(twin);
    Py_XDECREF(draw);
    PyObject *self = cold ? PyTuple_New(BOUND_FIELDS) : NULL;
    held[COLD_PATH] = cold;
    for (int i = 0; self != NULL && i < BOUND_FIELDS; i++)
        PyTuple_SET_ITEM(self, i, Py_NewRef(held[i]));
    Py_XDECREF(cold);
    PyObject *name = self ? PyModule_GetNameObject(module) : NULL;
    PyObject *fn = name ? PyCFunction_NewEx(&sample_bipartite_def, self, name) : NULL;
    Py_XDECREF(name);
    Py_XDECREF(self);
    return fn;
}

static PyMethodDef kernel_methods[] = {
    {"scan_stats", (PyCFunction)(void (*)(void))scan_stats, METH_FASTCALL, scan_stats_doc},
    {"scan_free_hist", (PyCFunction)(void (*)(void))scan_free_hist, METH_FASTCALL,
     scan_free_hist_doc},
    {"sampler", (PyCFunction)(void (*)(void))sampler, METH_FASTCALL, sampler_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernels",
    .m_doc = "Compiled subset-scan and sampling kernels; pure-Python twins in _pykernels.py.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    static const char *names[4] = {"m", "n", "adj", "p"};
    for (int i = 0; i < 4; i++)
        if (field_names[i] == NULL
                && (field_names[i] = PyUnicode_InternFromString(names[i])) == NULL)
            return NULL;
    /* the one-word walk, once, and its name, which WALK exports */
    const char *walk = "scalar";
#if VECTOR_WALK
    if (__builtin_cpu_supports("avx512f")) {
        one_word_walk[0] = hist_visit_512;
        one_word_walk[1] = stats_visit_512;
        walk = "avx512f";
    }
#endif
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddStringConstant(module, "WALK", walk) < 0)
        Py_CLEAR(module);
    return module;
}
