"""Shared fixtures and independent oracles.

The weighted-enumeration oracle walks every edge configuration of a small
random graph model and sums p^edges q^(non-edges) times a statistic; it is
the ground truth the closed forms are checked against, and it never calls
the module under test.

The compiled_build fixture builds the package with the repository's own
setup.py into a temporary directory, and compiled_kernels loads its C kernels,
so tests compare them with the pure-Python twins whether or not an installed
build exists.
"""

import importlib.machinery
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from franklbip import _pykernels, graphs, mss
from franklbip.graphs import BipartiteGraph, Seed, sample_bipartite

CORPUS_PS = (0.2, 0.5, 0.8)
ROOT = Path(__file__).resolve().parents[1]


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
    """Directory holding franklbip built from this checkout, compiled kernels included.

    Skips only without a C compiler.  The egg-info goes to the temporary
    directory too, so the build writes nothing into the checkout.
    """
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("build")
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
    spec = importlib.util.spec_from_file_location("franklbip._kernels",
                                                  _extension(compiled_build)[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["compiled", "python"])
def kernel(request, monkeypatch):
    """Runs a test once on the compiled kernels and once on the pure-Python
    twins, for the sampler and the subset scans alike."""
    impl = request.getfixturevalue("compiled_kernels") if request.param == "compiled" \
        else _pykernels
    monkeypatch.setattr(mss, "_impl", impl)
    monkeypatch.setattr(graphs, "_impl", impl)


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, as strict parsers do."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)
