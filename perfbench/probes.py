"""Fixed probes of the traced run, the same on every workload.

- kernel: the pure-Python twin on one fixed graph set, and the compiled
  kernel too when it is the active one; their results must agree.
- sweep: a serial pass and a 2-worker pass over the same grid and seed; the
  CSV bytes must be identical.  A traced 2-worker pass gives parallelism and
  queueing.
- cli: interpreter start, import time, in-process `cli.main` per subcommand,
  and the known-defect invocation.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import oracle
import tracing
import workloads

KERNEL_SEED = 20130228
KERNEL_GRAPHS = ((18, 18, 0.3), (20, 20, 0.3), (20, 20, 0.5), (22, 22, 0.4),
                 (24, 24, 0.5), (16, 20, 0.15))
FREEHIST_GRAPHS = ((12, 12, 0.5), (12, 10, 0.3), (11, 12, 0.4))
FREEHIST_LO_K = 3
KERNEL_REPEATS = 3
SWEEP_PROBE_TRIALS = 6
CLI_REPEATS = 5


def _best_time(fn, repeats=KERNEL_REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        best = min(best, perf_counter() - t0)
    return best, result


def kernel_probe(twin, compiled):
    """ns per MSS and per free-hist leaf for each kernel; mismatches as errors."""
    from franklbip.graphs import Seed, sample_bipartite

    stats_set = [sample_bipartite(m, n, p, Seed(KERNEL_SEED, i))
                 for i, (m, n, p) in enumerate(KERNEL_GRAPHS * 2)]
    hist_set = [sample_bipartite(m, n, p, Seed(KERNEL_SEED + 1, i))
                for i, (m, n, p) in enumerate(FREEHIST_GRAPHS * 2)]
    metrics, errors, outputs = {}, [], {}
    for label, impl in (("twin", twin), ("compiled", compiled)):
        if impl is None:
            continue
        secs = mss = 0
        runs = []
        for g in stats_set:
            dt, res = _best_time(lambda: impl.scan_stats(list(g.adj), g.m, g.n, -1, -1))
            secs += dt
            mss += int(res[0])
            runs.append(tuple(tuple(int(v) for v in x) if hasattr(x, "__len__") else int(x)
                              for x in res))
        leaf_secs = leaves = 0
        for g in hist_set:
            dt, res = _best_time(lambda: impl.scan_free_hist(list(g.adj), g.m, g.n, FREEHIST_LO_K))
            leaf_secs += dt
            leaves += sum(res)
            runs.append(tuple(int(x) for x in res))
        outputs[label] = runs
        metrics[f"kernel.{label}.ns_per_mss"] = (secs / mss * 1e9, "ns")
        metrics[f"kernel.{label}.ns_per_leaf"] = (leaf_secs / leaves * 1e9, "ns")
    if len(outputs) == 2 and outputs["twin"] != outputs["compiled"]:
        errors.append("kernel probe: compiled and twin kernel outputs diverge")
    return metrics, errors


def sweep_probe(seed):
    from franklbip import verify
    from franklbip.graphs import Seed

    grid, trials = workloads.SWEEP_GRID, SWEEP_PROBE_TRIALS
    root = workloads.derive_root(seed, 5000)
    config = {"grid": "perfbench", "seed": root, "trials": trials}

    def csv(reports):
        return verify.reports_to_csv(reports, config, with_regime=True).encode()

    t0 = perf_counter()
    serial = verify.sweep(grid, trials, Seed(root), workers=1)
    serial_s = perf_counter() - t0
    t0 = perf_counter()
    two = verify.sweep(grid, trials, Seed(root), workers=2)
    two_s = perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.run_op("sweep-probe",
                               lambda: verify.sweep(grid, trials, Seed(root), workers=2))
    finally:
        tracer.uninstall()
    parallelism, wait_s = tracing.sweep_metrics(tracer.spans)
    errors = oracle.check_sweep(serial, grid, trials, root)
    if not csv(serial) == csv(two) == csv(traced):
        errors.append("sweep probe: serial and 2-worker CSV bytes differ")
    return {
        "verify.sweep.parallelism": (parallelism, "ratio"),
        "verify.sweep.wait_s": (wait_s, "s"),
        "verify.sweep.speedup_2w": (serial_s / two_s, "ratio"),
    }, errors


def _child_wall(argv, env):
    t0 = perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def cli_probe(cli_workload):
    """Interpreter, import and in-process main times; the defect invocation."""
    env = cli_workload.env
    interp = statistics.median(_child_wall([sys.executable, "-c", "pass"], env)
                               for _ in range(CLI_REPEATS))
    imported = statistics.median(
        _child_wall([sys.executable, "-c", "import franklbip.cli"], env)
        for _ in range(CLI_REPEATS))
    errors = []
    walls = {}
    sub_walls = []
    for inprocess in (False, True, True):
        for i in range(workloads.CLI_MIX_LEN):
            op = cli_workload.op(i, inprocess=inprocess)
            t0 = perf_counter()
            res = op.run()
            wall = perf_counter() - t0
            errors += [f"cli probe {op.kind}: {e}" for e in op.check(res)]
            if not inprocess:
                sub_walls.append(wall)
            elif op.kind != "refusal":
                walls.setdefault(op.kind, []).append(wall)
    rc, traceback, last = cli_workload.defect_probe()
    metrics = {
        "cli.interp_s": (interp, "s"),
        "cli.import_s": (imported - interp, "s"),
        **{f"cli.main_s.{kind}": (statistics.median(w), "s") for kind, w in walls.items()},
        "cli.defect.failed": (int(rc != 0 or traceback), "count"),
    }
    notes = {"cli_subprocess_op_p50_s": statistics.median(sub_walls),
             "cli_subprocess_ops": len(sub_walls),
             "defect_exit": rc, "defect_stderr": last}
    return metrics, errors, notes

