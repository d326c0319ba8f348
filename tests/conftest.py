"""Shared fixtures, independent oracles and test-only helpers.

The weighted-enumeration oracle walks every edge configuration of a small
random graph model and sums p^edges q^(non-edges) times a statistic; it is
the ground truth the closed forms are checked against, and it never calls
the module under test.  Two more oracles are numpy's: brute_force_mss
filters every vertex subset of a small graph, and numpy_sample_rows draws
with numpy's Philox bit generator, the reference both hand-written samplers
must match bit for bit.

The graph builders, columns (the right-side neighbourhoods, which the
kernels build for themselves when they scan the right side), swap_sides,
serialize_family, frankl_frequencies (the per-element count that
setfamily.frankl_check replaced), enumerate_mss (every MSS itself, from the
pure-Python walk the twin's scan_stats runs) and stab_tail_table (the exact
expectations behind genupper at every threshold pair at once) are used by
tests alone, so they live here rather than in the package.

The compiled_build fixture builds the package with the repository's own
setup.py into a temporary directory, and compiled_kernels loads its C kernels,
so tests compare them with the pure-Python twins whether or not an installed
build exists.  scalar_kernels loads _kernels.c built once more with
FRANKLBIP_SCALAR_WALK defined, which setup.py never defines, so the scalar
one-word walk is tested on a CPU whose build walks with AVX-512 too.
"""

import importlib.machinery
import importlib.util
import json
import math
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from franklbip import _pykernels, cli, graphs, mss, setfamily, verify
from franklbip.graphs import BipartiteGraph, CapExceeded, Seed, sample_bipartite
from franklbip.mss import StableSet

CORPUS_PS = (0.2, 0.5, 0.8)
ROOT = Path(__file__).resolve().parents[1]
BRUTE_FORCE_LIMIT = 24


def all_edge_configs(m, n):
    """Every bipartite graph on m + n labelled vertices."""
    for code in range(1 << (m * n)):
        rows = []
        for u in range(m):
            rows.append((code >> (u * n)) & ((1 << n) - 1))
        yield BipartiteGraph(m, n, tuple(rows))


def config_weight(g, p):
    e = g.edge_count()
    return (p ** e) * ((1.0 - p) ** (g.m * g.n - e))


def weighted_expectation(m, n, p, statistic):
    """E[statistic(G)] by exhaustive enumeration of all 2^(m n) graphs."""
    return sum(config_weight(g, p) * statistic(g) for g in all_edge_configs(m, n))


def stab_tail_table(m, n, p):
    """T[ell_star][r_star] = bounds.expected_stab_at_least(m, n, p, ell_star,
    r_star) for every threshold pair, up to float accumulation order, by
    double suffix accumulation in O(m n) in place of m n double sums."""
    lnq = math.log(1.0 - p)
    inner = []
    for ell in range(m + 1):
        row = [0.0] * (n + 2)
        for r in range(n, -1, -1):
            row[r] = row[r + 1] + math.comb(n, r) * math.exp(ell * r * lnq)
        inner.append(row)
    table = [[0.0] * (n + 1) for _ in range(m + 2)]
    for ell in range(m, -1, -1):
        cm = math.comb(m, ell)
        for r_star in range(n + 1):
            table[ell][r_star] = table[ell + 1][r_star] + cm * inner[ell][r_star]
    return table[: m + 1]


def complete_graph(m, n):
    full = (1 << n) - 1
    return BipartiteGraph(m, n, tuple(full for _ in range(m)))


def empty_graph(m, n):
    return BipartiteGraph(m, n, tuple(0 for _ in range(m)))


def matching_graph(k):
    """Perfect matching u_i v_i on k + k vertices."""
    return BipartiteGraph(k, k, tuple(1 << i for i in range(k)))


def columns(g):
    """Right-side neighbourhoods as bitmasks over L (transposed adjacency)."""
    cols = [0] * g.n
    for u, row in enumerate(g.adj):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << u
            row ^= low
    return tuple(cols)


def swap_sides(g):
    """Exchange the two sides; (u, v) becomes (v, u).  Involutive."""
    return BipartiteGraph(g.n, g.m, columns(g))


def serialize_family(family):
    """Inverse of setfamily.parse_family: one member per line, its elements
    comma-separated in increasing order, and '-' for the empty set."""
    lines = []
    for mask in family.members:
        if mask == 0:
            lines.append("-")
        else:
            elems = []
            while mask:
                low = mask & -mask
                elems.append(str(low.bit_length() - 1))
                mask ^= low
            lines.append(",".join(elems))
    return "\n".join(lines) + "\n"


def frankl_frequencies(family):
    """(members, best_element, frequency, satisfied) of a family, counting
    each element of its union over the members; ties go to the smallest
    element.  The independent oracle of setfamily.frankl_check on a
    union-closed family other than {} and {empty set}."""
    universe = 0
    for mask in family.members:
        universe |= mask
    best_elem, best_count = None, -1
    while universe:
        low = universe & -universe
        v = low.bit_length() - 1
        count = sum(1 for mask in family.members if mask >> v & 1)
        if count > best_count:
            best_elem, best_count = v, count
        universe ^= low
    members = len(family.members)
    return members, best_elem, Fraction(best_count, members), 2 * best_count >= members


def enumerate_mss(g):
    """Every maximal stable set exactly once (order unspecified), through
    the pure-Python walk over the smaller side, the left on a tie, as the
    kernels scan; refuses a scan side over mss.DEFAULT_CAP."""
    mss._check_cap(min(g.m, g.n))
    out = []
    if g.n < g.m:
        def leaf(chosen, free):
            out.append(StableSet(free, sum(1 << v for v in chosen)))

        _pykernels.maximal_pairs(columns(g), g.n, g.m, leaf)
    else:
        def leaf(chosen, free):
            out.append(StableSet(sum(1 << u for u in chosen), free))

        _pykernels.maximal_pairs(g.adj, g.m, g.n, leaf)
    return out


def brute_force_mss(g: BipartiteGraph):
    """Filter all 2^(m+n) vertex subsets; the independent oracle of enumerate_mss.

    Vectorised over subsets: S is maximal stable iff for every vertex v,
    membership of v is the complement of 'v has a neighbour in S'.
    """
    total_bits = g.m + g.n
    if total_bits > BRUTE_FORCE_LIMIT:
        raise CapExceeded(f"brute force limited to m+n <= {BRUTE_FORCE_LIMIT}")
    neigh = [int(g.adj[u]) << g.m for u in range(g.m)]
    neigh += [int(c) for c in columns(g)]
    out = []
    chunk = 1 << 20
    for base in range(0, 1 << total_bits, chunk):
        hi = min(base + chunk, 1 << total_bits)
        subsets = np.arange(base, hi, dtype=np.uint32)
        valid = np.ones(hi - base, dtype=bool)
        for v in range(total_bits):
            in_s = (subsets >> np.uint32(v)) & np.uint32(1)
            has_nb = (subsets & np.uint32(neigh[v])) != 0
            valid &= (in_s == 1) ^ has_nb
        left_mask = (1 << g.m) - 1
        for s_val in subsets[valid]:
            s_int = int(s_val)
            out.append(StableSet(left=s_int & left_mask, right=s_int >> g.m))
    out.sort()
    return out


def numpy_sample_rows(m, n, p, root, stream):
    """The rows of sample_graph, drawn with numpy: Philox keyed by (root, stream), then
    edge (u, v) iff the (u*n + v)-th random() is below p."""
    rng = np.random.Generator(np.random.Philox(key=np.array([root, stream], dtype=np.uint64)))
    bits = (rng.random((m, n)) < p).astype(np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    return tuple(int.from_bytes(packed[u].tobytes(), "little") for u in range(m))


def small_corpus(count=500, max_total=14, root=1000):
    """Deterministic corpus of seeded random graphs with m + n <= max_total,
    cycling through sizes and the three edge probabilities."""
    sizes = [(m, n) for m in range(1, max_total) for n in range(1, max_total)
             if m + n <= max_total]
    out = []
    for i in range(count):
        m, n = sizes[i % len(sizes)]
        p = CORPUS_PS[i % len(CORPUS_PS)]
        out.append((sample_bipartite(m, n, p, Seed(root, i)), p))
    return out


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


@pytest.fixture(scope="session")
def compiled_build(tmp_path_factory):
    """Directory holding franklbip built from this checkout, compiled kernels
    and the bytecode of every module included.

    Skips only without a C compiler.  The egg-info goes to the temporary
    directory too, so the build writes nothing into the checkout.
    """
    return build_package(tmp_path_factory.mktemp("build"))


def build_package(out):
    """Build franklbip from this checkout with its setup.py into out/lib, the
    egg-info into out; return out/lib.  Skips only without a C compiler."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(out),
         "build", "--build-base", str(out / "tmp"), "--build-lib", str(out / "lib")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and _extension(out / "lib"), f"build failed:\n{proc.stderr}"
    return out / "lib"


def _extension(lib):
    return [path for suffix in importlib.machinery.EXTENSION_SUFFIXES
            for path in (lib / "franklbip").glob("_kernels" + suffix)]


@pytest.fixture(scope="session")
def compiled_kernels(compiled_build):
    """franklbip._kernels from compiled_build, loaded beside the source package."""
    return load_kernels(_extension(compiled_build)[0])


@pytest.fixture(scope="session")
def scalar_kernels(tmp_path_factory):
    """franklbip._kernels built from _kernels.c with setup.py's -O3 and
    FRANKLBIP_SCALAR_WALK, so its one-word walk is the scalar one on any CPU.
    Skips only without a C compiler."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    paths = sysconfig.get_paths()
    path = tmp_path_factory.mktemp("scalar") / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [cc, "-shared", "-fPIC", "-O3", "-DFRANKLBIP_SCALAR_WALK", f"-I{paths['include']}",
         f"-I{paths['platinclude']}", str(ROOT / "src" / "franklbip" / "_kernels.c"), "-o",
         str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return load_kernels(path)


def load_kernels(path):
    """The extension module at path, loaded as franklbip._kernels."""
    spec = importlib.util.spec_from_file_location("franklbip._kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def use_kernels(monkeypatch, impl):
    """Switch the subset scans and the sampler to impl's, as
    FRANKLBIP_PURE_PYTHON switches them at import: each module's _impl, and
    sample_bipartite, bound by impl.sampler, under every name it is read by."""
    for module in (graphs, mss, setfamily):
        monkeypatch.setattr(module, "_impl", impl)
    sample = impl.sampler(BipartiteGraph, graphs.EdgeProbability, graphs.ZeroSideError)
    for module in (graphs, verify, cli):
        monkeypatch.setattr(module, "sample_bipartite", sample)


@pytest.fixture(params=["compiled", "python"])
def kernel(request, monkeypatch):
    """Runs a test once on the compiled kernels and once on the pure-Python
    twins, for the sampler and the subset scans alike."""
    impl = request.getfixturevalue("compiled_kernels") if request.param == "compiled" \
        else _pykernels
    use_kernels(monkeypatch, impl)


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, as strict parsers do."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)
