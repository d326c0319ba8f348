/* Compiled kernels; pure-Python twins in _pykernels.py.
 *
 * Subset scans.  scan_stats and scan_free_hist take a graph as it is stored,
 * its m rows as ints over the n right vertices from any iterable, and scan
 * the smaller side, the left on a tie.  When that is the right side, the
 * rows are transposed here, so no caller builds the columns, and scan_stats
 * hands its results back in graph orientation.  The same depth-first walk,
 * in the same order, with the same prunes as the twin: coverage of the other
 * side only grows down the tree, so a left-out vertex whose neighbourhood is
 * fully covered kills its subtree, and re-checking left-out vertices
 * whenever coverage grows makes accepted leaves final without a closing
 * scan.  The walk takes the scan side by descending degree, ties in vertex
 * order, so coverage grows fast near the root; the sort happens here and
 * scan_counts are mapped back to vertex order.  Counts are taken once per
 * subtree: each node returns its number of leaves, and the include branch of
 * u credits them to u and to each other-side vertex u covers first.  A
 * vertex is free at a leaf exactly when no vertex of A covers it, so
 * other_counts = total - covered, and leaves only update the two size
 * histograms.  Rows are packed into W = word_count(t) words each, masked to
 * the t bits of the other side.  One walk body is compiled twice: with
 * W = 1, where the coverage stays in a register, and with W read at run
 * time.  The walk touches no Python object and runs with the interpreter
 * lock released, once per call.  A campaign scans a small graph per trial,
 * so each scan is a positional METH_FASTCALL call, reads one-word rows
 * straight from the list or tuple, and keeps its block of words on the stack
 * when it fits, as every one-word scan's does.
 *
 * Sampler.  Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy
 * as 1, 2, 3", SC'11) run step for step as the twin's pure-Python Philox runs
 * it, which is also how numpy's Philox bit generator runs it, so a draw is
 * bit-identical to the twin's and to numpy's.  A draw takes O(m n) ns, so it
 * keeps the interpreter lock, a row of up to STACK_WORDS words lives on the
 * stack, each edge bit is set without a branch, and the graph is filled
 * through the class's slot descriptors, with no Python code run per draw.
 * sample_graph(cls, m, n, p, root, stream, /) checks only what keeps the
 * draw safe and the graph valid.  sampler(graph_cls, prob_cls,
 * zero_side_error, /) returns the builtin sample_bipartite(m, n, prob, seed,
 * /) that graphs exports: its self holds the classes and the slot
 * descriptors of m, n, adj and p, looked up once.  It draws a campaign's
 * calls (int sides, a tuple of two int keys, a p read from the slot) with no
 * Python frame, and hands any other call to the twin's function over the
 * compiled sample_graph, which makes every check of a public draw, so both
 * kernels refuse alike, text for text.
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

typedef struct {
    int s, W;
    const u64 *adj;      /* s rows of W words, in walk order */
    const u64 *full;     /* the t bits of the other side */
    u64 *nbstack;        /* words 1..W-1 of N(A) at each depth, s + 1 rows */
    long long sel_k, sel_f;
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

/* Node at walk position i with |A| = k and covered set (nb0, nbstack row i);
 * bit j of out marks position j < i left out.  Returns the number of leaves
 * below.  W is a compile-time constant in the one-word instance, so its word
 * loops unroll away. */
static inline __attribute__((always_inline)) u64
stats_body(StatsCtx *c, int i, int k, u64 out, u64 nb0, const int W, StatsVisit visit)
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
    if (grown) {
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
        c->scan_counts[i] += leaves;
        for (int wd = 0; wd < W; wd++)
            for (u64 x = row[wd] & ~cov_word(nb, nb0, wd); x; x &= x - 1)
                c->covered[(wd << 6) + __builtin_ctzll(x)] += leaves;
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
    return stats_body(c, i, k, out, nb0, 1, stats_visit_1);
}

static u64 stats_visit_w(StatsCtx *c, int i, int k, u64 out, u64 nb0)
{
    return stats_body(c, i, k, out, nb0, c->W, stats_visit_w);
}

typedef struct {
    int s, t, W;
    long long lo_k;
    const u64 *adj;
    u64 *nbstack;
    u64 *freq;
} FreeCtx;

static void free_hist_visit(FreeCtx *c, int u, int k)
{
    const int W = c->W;
    const u64 *nb = c->nbstack + (size_t)u * W;
    if (k + (c->s - u) < c->lo_k)
        return;
    if (u == c->s) {
        int f = c->t;
        for (int wd = 0; wd < W; wd++)
            f -= __builtin_popcountll(nb[wd]);
        c->freq[f]++;
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

/* A scan call, checked as the twin's _scan_side checks it: the graph's rows
 * as a list or tuple, and the layout of the side both kernels scan, the
 * smaller one, the left on a tie.  extra holds the two optional arguments,
 * the left side's first. */
typedef struct {
    PyObject *rows;   /* a new reference */
    int s, t, W, transposed;
    long long extra[2];
} ScanCall;

static int scan_call(const char *name, PyObject *const *args, Py_ssize_t nargs, long long dflt,
                     ScanCall *sc)
{
    if (check_nargs(name, nargs, 3, 5) < 0)
        return -1;
    /* m and n as operator.index takes them */
    Py_ssize_t m = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    if (m == -1 && PyErr_Occurred())
        return -1;
    Py_ssize_t n = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return -1;
    for (int i = 0; i < 2; i++) {
        sc->extra[i] = 3 + i < nargs ? PyLong_AsLongLong(args[3 + i]) : dflt;
        if (sc->extra[i] == -1 && PyErr_Occurred())
            return -1;
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

/* A scan's zeroed block of words: on the stack when it fits, which every
 * one-word scan does, else on the heap. */
static u64 *scan_block(size_t words, u64 *stack_block)
{
    if (words <= STACK_SCAN_WORDS)
        return memset(stack_block, 0, words * sizeof(u64));
    u64 *block = calloc(words, sizeof(u64));
    if (block == NULL)
        PyErr_NoMemory();
    return block;
}

PyDoc_STRVAR(scan_stats_doc,
"scan_stats(rows, m, n, sel_left=-1, sel_right=-1, /)\n--\n\n"
"Compiled counterpart of _pykernels.scan_stats (same contract).");

static PyObject *scan_stats(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    ScanCall sc;
    if (scan_call("scan_stats", args, nargs, -1, &sc) < 0)
        return NULL;
    /* flip = 1 when the right side is scanned: then a (left, right) pair
     * and a (scan, other) pair list their sides in opposite orders */
    const int s = sc.s, t = sc.t, W = sc.W, flip = sc.transposed;
    PyObject *result = NULL;
    /* One zeroed block: full, adj, nbstack, then the four count arrays. */
    u64 stack_block[STACK_SCAN_WORDS];
    u64 *buf = scan_block((size_t)W * (2 * s + 2) + 2 * ((size_t)s + t + 1), stack_block);
    if (buf == NULL) {
        Py_DECREF(sc.rows);
        return NULL;
    }
    u64 *adj = buf + W;
    StatsCtx c = {.s = s, .W = W, .sel_k = sc.extra[flip], .sel_f = sc.extra[!flip],
                  .full = buf, .adj = adj};
    c.nbstack = adj + (size_t)W * s;
    c.k_hist = c.nbstack + (size_t)W * (s + 1);
    c.f_hist = c.k_hist + s + 1;
    c.scan_counts = c.f_hist + t + 1;
    c.covered = c.scan_counts + s;
    /* Rows are packed in vertex order into nbstack, whose rows below the
     * root are scratch until the walk, and copied into adj in walk order. */
    int packed = pack_scan_side(&sc, buf, c.nbstack);
    Py_DECREF(sc.rows);
    if (packed == 0) {
        int order[MAX_SCAN_SIDE];
        u64 total, by_vertex[MAX_SCAN_SIDE];
        degree_order(c.nbstack, s, W, order);
        for (int i = 0; i < s; i++)
            memcpy(adj + (size_t)i * W, c.nbstack + (size_t)order[i] * W, (size_t)W * sizeof(u64));
        memset(c.nbstack, 0, (size_t)W * sizeof(u64));
        Py_BEGIN_ALLOW_THREADS
        total = W == 1 ? stats_visit_1(&c, 0, 0, 0, 0) : stats_visit_w(&c, 0, 0, 0, 0);
        Py_END_ALLOW_THREADS
        for (int i = 0; i < s; i++)
            by_vertex[order[i]] = c.scan_counts[i];
        for (int v = 0; v < t; v++)
            c.covered[v] = total - c.covered[v];
        /* (scan, other) pairs, returned in graph orientation */
        PyObject *hists[2] = {counts_to_list(c.k_hist, s + 1), counts_to_list(c.f_hist, t + 1)};
        PyObject *counts[2] = {counts_to_list(by_vertex, s), counts_to_list(c.covered, t)};
        result = Py_BuildValue("(KNNNNK)", (unsigned long long)total, hists[flip], hists[!flip],
                               counts[flip], counts[!flip], (unsigned long long)c.sel_count);
    }
    if (buf != stack_block)
        free(buf);
    return result;
}

PyDoc_STRVAR(scan_free_hist_doc,
"scan_free_hist(rows, m, n, lo_left=0, lo_right=0, /)\n--\n\n"
"Compiled counterpart of _pykernels.scan_free_hist (same contract).");

static PyObject *scan_free_hist(PyObject *Py_UNUSED(self), PyObject *const *args,
                                Py_ssize_t nargs)
{
    ScanCall sc;
    if (scan_call("scan_free_hist", args, nargs, 0, &sc) < 0)
        return NULL;
    const int s = sc.s, t = sc.t, W = sc.W;
    PyObject *result = NULL;
    /* One zeroed block: full, adj, nbstack, freq. */
    u64 stack_block[STACK_SCAN_WORDS];
    u64 *buf = scan_block((size_t)W * (2 * s + 2) + (size_t)t + 1, stack_block);
    if (buf == NULL) {
        Py_DECREF(sc.rows);
        return NULL;
    }
    FreeCtx c = {.s = s, .t = t, .W = W, .lo_k = sc.extra[sc.transposed], .adj = buf + W,
                 .nbstack = buf + (size_t)W * (s + 1),
                 .freq = buf + (size_t)W * (2 * s + 2)};
    int packed = pack_scan_side(&sc, buf, buf + W);
    Py_DECREF(sc.rows);
    if (packed == 0) {
        Py_BEGIN_ALLOW_THREADS
        free_hist_visit(&c, 0, 0);
        Py_END_ALLOW_THREADS
        result = counts_to_list(c.freq, t + 1);
    }
    if (buf != stack_block)
        free(buf);
    return result;
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
 * class finds it (a borrowed reference), or NULL with caller()'s TypeError.
 * Slots only: setting or reading one runs no Python code. */
static PyObject *slot_descr(const char *caller, PyObject *cls, int i)
{
    PyObject *descr = PyType_Check(cls) ? _PyType_Lookup((PyTypeObject *)cls, field_names[i])
                                        : NULL;
    if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError, "%s() needs a class with a slot %R, not %R", caller,
                     field_names[i], cls);
        return NULL;
    }
    return descr;
}

/* One checked draw of G(m, n, p) from the stream keyed by key: a new
 * instance of cls with its rows checked as BipartiteGraph checks them and
 * its fields set through descrs, cls's descriptors of m, n and adj. */
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
        /* BipartiteGraph's range check: only the last word has bits past n */
        PyObject *row = NULL;
        if (n % 64 && words[W - 1] >> n % 64)
            PyErr_Format(PyExc_ValueError, "adjacency row %zd has bits outside the right side", u);
        else
            row = words_to_long(words, W, sixty_four);
        if (row == NULL)
            Py_CLEAR(rows);
        else
            PyTuple_SET_ITEM(rows, u, row);
    }
    Py_XDECREF(sixty_four);
    if (words != stack_words)
        free(words);
    /* BipartiteGraph's row-count check, then a new instance whose fields are
     * set through their descriptors, as graphs._slot_setters sets them. */
    if (rows != NULL && PyTuple_GET_SIZE(rows) != m) {
        PyErr_Format(PyExc_ValueError, "expected %zd adjacency rows, got %zd", m,
                     PyTuple_GET_SIZE(rows));
        Py_CLEAR(rows);
    }
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

PyDoc_STRVAR(sample_graph_doc,
"sample_graph(cls, m, n, p, root, stream, /)\n--\n\n"
"Compiled counterpart of _pykernels.sample_graph: the same draw, and the\n"
"checks that keep a C draw safe and the graph valid.");

/* Only the checks that keep the draw safe and the graph valid: sides of at
 * least 1 that fit a ssize_t, keys in [0, 2^64) and a class with slots m, n
 * and adj, each read with CPython's own conversions.  The public sampler,
 * the twin's function that bind_sampler returns, makes every other check. */
static PyObject *sample_graph(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("sample_graph", nargs, 6, 6) < 0)
        return NULL;
    Py_ssize_t m = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    if (m == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t n = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (m < 1 || n < 1) {
        PyErr_SetString(PyExc_ValueError, "need m >= 1 and n >= 1");
        return NULL;
    }
    double p = PyFloat_AsDouble(args[3]);
    if (p == -1.0 && PyErr_Occurred())
        return NULL;
    u64 key[2];
    PyObject *descrs[3];
    for (int i = 0; i < 2; i++) {
        key[i] = PyLong_AsUnsignedLongLong(args[4 + i]);
        if (key[i] == (u64)-1 && PyErr_Occurred())
            return NULL;
    }
    for (int i = 0; i < 3; i++)
        if ((descrs[i] = slot_descr("sample_graph", args[0], i)) == NULL)
            return NULL;
    return draw_graph((PyTypeObject *)args[0], descrs, m, n, p, key);
}

/* A bound sampler's self is a tuple: the graph and probability classes
 * sampler() took, the twin's function over the compiled sample_graph that
 * takes every call the fast path does not, then the graph class's
 * descriptors of m, n and adj and the probability class's descriptor of p,
 * each looked up once, by sampler(). */
enum { GRAPH_CLS, PROB_CLS, COLD_PATH, DESCR_M, DESCR_N, DESCR_ADJ, DESCR_P, BOUND_FIELDS };

/* A side the fast path takes: an int, exactly, in [1, PY_SSIZE_T_MAX]. */
static int fast_side(PyObject *side, Py_ssize_t *out)
{
    int past = 1;
    long long value = PyLong_CheckExact(side) ? PyLong_AsLongLongAndOverflow(side, &past) : 0;
    *out = (Py_ssize_t)value;
    return !past && value >= 1 && value == *out;
}

/* A key the fast path takes: an int, exactly, in [0, 2^64). */
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

PyDoc_STRVAR(sample_bipartite_doc,
"sample_bipartite(m, n, prob, seed, /)\n--\n\n"
"Compiled counterpart of the sampler _pykernels.sampler binds (same contract).");

/* The fast path takes what a campaign passes: two int sides of at least 1,
 * a tuple of two int keys, and a prob_cls instance or a float, whose
 * prob_cls(prob) raises as the cold path's would.  Any other call, and a p
 * outside [0, 1], goes to the cold path, which makes every check and raises
 * every refusal, so both kernels refuse alike by construction. */
static PyObject *sample_bipartite(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
                                  PyObject *kwnames)
{
    PyObject *const *bound = &PyTuple_GET_ITEM(self, 0);
    Py_ssize_t m, n;
    u64 key[2];
    PyObject *seed = nargs == 4 ? args[3] : NULL;
    if (kwnames == NULL && seed != NULL && fast_side(args[0], &m) && fast_side(args[1], &n)
            && PyTuple_CheckExact(seed) && PyTuple_GET_SIZE(seed) == 2
            && fast_key(PyTuple_GET_ITEM(seed, 0), &key[0])
            && fast_key(PyTuple_GET_ITEM(seed, 1), &key[1])
            && (Py_IS_TYPE(args[2], (PyTypeObject *)bound[PROB_CLS])
                || PyFloat_CheckExact(args[2]))) {
        PyObject *prob = args[2], *descr_p = bound[DESCR_P];
        prob = PyFloat_CheckExact(prob) ? PyObject_CallOneArg(bound[PROB_CLS], prob)
                                        : Py_NewRef(prob);
        PyObject *p_value = prob ? Py_TYPE(descr_p)->tp_descr_get(descr_p, prob, NULL) : NULL;
        Py_XDECREF(prob);
        if (p_value == NULL)
            return NULL;
        const double p = PyFloat_CheckExact(p_value) ? PyFloat_AS_DOUBLE(p_value) : -1.0;
        Py_DECREF(p_value);
        if (p >= 0.0 && p <= 1.0)
            return draw_graph((PyTypeObject *)bound[GRAPH_CLS], bound + DESCR_M, m, n, p, key);
    }
    return PyObject_Vectorcall(bound[COLD_PATH], args, nargs, kwnames);
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
        if ((held[DESCR_M + i] = slot_descr("sampler", args[0], i)) == NULL)
            return NULL;
    if ((held[DESCR_P] = slot_descr("sampler", args[1], 3)) == NULL)
        return NULL;
    if (!PyExceptionClass_Check(args[2])) {
        PyErr_Format(PyExc_TypeError, "sampler() needs an exception class, not %R", args[2]);
        return NULL;
    }
    /* the cold path: _pykernels.bind_sampler(*args, sample_graph) */
    PyObject *twin = PyImport_ImportModule("franklbip._pykernels");
    PyObject *draw = twin ? PyObject_GetAttrString(module, "sample_graph") : NULL;
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
    {"sample_graph", (PyCFunction)(void (*)(void))sample_graph, METH_FASTCALL, sample_graph_doc},
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
    return PyModule_Create(&kernel_module);
}
