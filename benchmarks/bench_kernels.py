#!/usr/bin/env python3
"""Benchmark the compiled C subset-scan kernel against the pure-Python twin.

Usage: python benchmarks/bench_kernels.py [--sizes 16,18,20,22] [--p 0.5]

The compiled column needs franklbip._kernels built by a C compiler (an
install, or `python setup.py build_ext --inplace` in a checkout); without
it only the twin is timed.
"""

import argparse
import time

from franklbip import _pykernels
from franklbip.graphs import Seed, sample_bipartite

try:
    from franklbip import _kernels
except ImportError:
    _kernels = None


def time_scan(impl, rows, s, t, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = impl.scan_stats(rows, s, t, -1, -1)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="14,16,18,20,22",
                        help="comma-separated side sizes (square graphs)")
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"{'side':>5} {'total MSS':>10} {'python':>10} {'compiled':>10} {'speedup':>8}")
    for side in sizes:
        g = sample_bipartite(side, side, args.p, Seed(args.seed))
        rows = list(g.adj)
        py_time, py_res = time_scan(_pykernels, rows, g.m, g.n)
        if _kernels is None:
            print(f"{side:>5} {py_res[0]:>10} {py_time:>9.3f}s {'n/a':>10} {'n/a':>8}")
            continue
        c_time, c_res = time_scan(_kernels, rows, g.m, g.n)
        assert tuple(py_res) == tuple(c_res), "kernel outputs diverge"
        print(f"{side:>5} {py_res[0]:>10} {py_time:>9.3f}s {c_time:>9.3f}s "
              f"{py_time / c_time:>7.1f}x")


if __name__ == "__main__":
    main()
