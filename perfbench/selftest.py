#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

1. The oracle passes real outputs and flags deliberately corrupted ones
   (an MssStats with total off by one, a sweep row with one hit too many,
   a check report with a wrong frequency, a superpoly report with a wrong
   expectation, a `cli stats` JSON with a wrong count), so the correctness
   check cannot pass vacuously.
2. Every workload runs for a fraction of a second with --trace 0 and 1, at
   reduced sizes; every metric named in BENCHMARK.json must be printed on a
   `metric` line and in the final JSON object, with its unit.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def oracle_catches_corruption(lib):
    import oracle
    from franklbip import mss, verify
    from franklbip.graphs import Seed, sample_bipartite

    g = sample_bipartite(9, 11, 0.3, Seed(7, 1))
    stats = mss.mss_stats(g)
    ref = oracle.ClosureStats(g.m, g.n, oracle.rows_of(oracle.sample_bits(9, 11, 0.3, 7, 1)))
    expect(oracle.check_mss_stats(stats, ref) == [], "oracle agrees with mss_stats")
    bad = dataclasses.replace(stats, total=stats.total + 1)
    expect(oracle.check_mss_stats(bad, ref) != [], "oracle flags MssStats with total off by one")
    swapped = sample_bipartite(12, 5, 0.4, Seed(7, 2))  # scanned from the right side
    ref = oracle.ClosureStats(12, 5, oracle.rows_of(oracle.sample_bits(12, 5, 0.4, 7, 2)))
    expect(oracle.check_mss_stats(mss.mss_stats(swapped), ref) == [],
           "oracle agrees with mss_stats when the sides are swapped")

    grid, trials, root = ((8, 9, 0.3, 0.0), (10, 8, 0.5, 0.1)), 3, 99
    reports = verify.sweep(grid, trials, Seed(root), workers=2)
    expect(oracle.check_sweep(reports, grid, trials, root) == [], "oracle agrees with sweep")
    extra = dict(reports[1].extra, hits=reports[1].extra["hits"] + 1)
    corrupted = [reports[0], dataclasses.replace(reports[1], extra=extra)]
    expect(oracle.check_sweep(corrupted, grid, trials, root) != [],
           "oracle flags a sweep row with one hit too many")

    params = {"m": 6, "n": 6, "p": 0.5, "ell": 2, "r": 2}
    rep = verify.verify_lemma("mssproba", params, 300, Seed(root))
    expect(oracle.check_lemma(rep, "mssproba", params, 300, root) == [],
           "oracle agrees with verify_lemma")
    wrong = dataclasses.replace(rep, measured=rep.measured + 1 / 300)
    expect(oracle.check_lemma(wrong, "mssproba", params, 300, root) != [],
           "oracle flags a check report with a wrong frequency")

    params = {"m": 12, "n": 12, "p": 0.9}
    rep = verify.verify_lemma("superpoly.lower.bound", params, 20, Seed(root))
    expect(oracle.check_lemma(rep, "superpoly.lower.bound", params, 20, root) == [],
           "oracle agrees with the superpoly check")
    extra = dict(rep.extra, expectation=rep.extra["expectation"] * 1.01)
    expect(oracle.check_lemma(dataclasses.replace(rep, extra=extra), "superpoly.lower.bound",
                              params, 20, root) != [],
           "oracle flags a superpoly report with a wrong expectation")

    cli = run.make_workload("cli", 5, "selftest", lib)
    try:
        op = cli.op(1, inprocess=True)  # stats --format json
        res = op.run()
        expect(op.check(res) == [], "oracle agrees with cli stats json")
        payload = json.loads(res.out)
        payload["stats"]["total"] = str(int(payload["stats"]["total"]) + 1)
        res.out = json.dumps(payload)
        expect(op.check(res) != [], "oracle flags cli stats json with total off by one")
    finally:
        cli.cleanup()


def shrink():
    """Reduce every workload and probe to a tiny size."""
    import probes
    import workloads

    workloads.SWEEP_GRID = ((10, 10, 0.3, 0.0), (12, 9, 0.5, 0.1))
    workloads.SWEEP_TRIALS = 2
    workloads.CHECK_MIX = tuple((lemma, params, max(10, trials // 100))
                                for lemma, params, trials in workloads.CHECK_MIX)
    probes.KERNEL_GRAPHS = ((10, 10, 0.3),)
    probes.FREEHIST_GRAPHS = ((8, 8, 0.5),)
    probes.KERNEL_REPEATS = 1
    probes.SWEEP_PROBE_TRIALS = 1
    probes.CLI_REPEATS = 1
    run.SETUP_REPEATS = 1


def metrics_are_printed(spec):
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                               "--trace", str(trace)])
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            what = f"{workload} --trace {trace}"
            expect(rc == 0 and result["correct"] and result["failed"] == 0,
                   f"{what}: exit 0, correct, no failed op")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: result has exactly the four keys")
            for metric in spec[key]:
                name, unit = metric["name"], metric["unit"]
                printed = any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                              for line in lines)
                got = result["metrics"].get(name, {})
                expect(printed and got.get("unit") == unit
                       and isinstance(got.get("value"), (int, float)),
                       f"{what}: {name} printed with unit {unit}")
            expect(len(result["metrics"]) == len(spec[key]),
                   f"{what}: no metric beyond BENCHMARK.json's {key}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lib = run.build()
    run.use_build(lib)
    oracle_catches_corruption(lib)
    shrink()
    metrics_are_printed(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
