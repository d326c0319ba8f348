#!/usr/bin/env python3
"""Layered benchmark of franklbip.

    python3 perfbench/run.py --workload sweep-enum --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  sweep-enum     repeated verify.sweep calls, 2 worker threads, kernel-bound
  checks-sample  serial verify.verify_lemma calls, sampler-bound
  cli            `python -m franklbip.cli` children, one at a time

The package is built from this checkout's source into .bench_build/ with the
repository's own setup.py and imported from there.  Every op's output is
checked against the independent oracle in oracle.py, outside the timed
region.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics, timed at a nominal host speed (see REFERENCE).
With --trace 1 the ops run without and then under layer spans, fixed probes
follow, and the JSON carries the per-layer metrics.  Spans go to
.bench_build/traces/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sweep-enum", "checks-sample", "cli")
SETUP_REPEATS = 7


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source to build, build failed)."""


# --- build -----------------------------------------------------------------------------

def source_digest():
    """Digest of what setup.py builds from: its build files and src/."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("setup.py", "setup.cfg", "pyproject.toml")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def build():
    """Build franklbip from this checkout with its own setup.py; return the lib dir.

    Each source tree gets a build directory of its own, named by its digest and
    built from empty, so no file of another tree (a stale compiled kernel, a
    deleted module) can be imported.  A finished build is reused.
    """
    setup_py = os.path.join(ROOT, "setup.py")
    if not os.path.isfile(setup_py) or not os.path.isdir(os.path.join(ROOT, "src", "franklbip")):
        raise BenchError(f"no franklbip source to build under {ROOT}")
    base = os.path.join(BUILD, "pkg-" + source_digest())
    lib, done = os.path.join(base, "lib"), os.path.join(base, "complete")
    if os.path.exists(done):
        return lib
    shutil.rmtree(base, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", base, "--build-lib", lib],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0 or not os.path.isfile(os.path.join(lib, "franklbip", "__init__.py")):
        raise BenchError("setup.py build failed:\n" + proc.stderr[-2000:])
    open(done, "w").close()
    return lib


def use_build(lib):
    if not os.path.isfile(os.path.join(lib, "franklbip", "__init__.py")):
        raise BenchError(f"franklbip is not built in {lib}")
    sys.path.insert(0, lib)
    import franklbip

    if not os.path.abspath(franklbip.__file__).startswith(lib + os.sep):
        raise BenchError(f"franklbip imported from {franklbip.__file__}, not from the build")


# --- set-up --------------------------------------------------------------------------------

def make_workload(name, seed, tag, lib):
    import workloads

    if name == "sweep-enum":
        return workloads.sweep_enum(seed)
    if name == "checks-sample":
        return workloads.checks_sample(seed)
    return workloads.CliWorkload(seed, os.path.join(BUILD, "work", f"{tag}-{os.getpid()}"), lib)


def warm_up(workload):
    """Op 0, untimed: fills caches and finishes lazy set-up before timing."""
    op = workload.op(0)
    errors = op.check(op.run())
    if errors:
        raise BenchError("warm-up op failed its check: " + "; ".join(errors[:3]))


def setup_probe(args):
    """One fresh set-up in this process: imports, inputs, warm-up."""
    use_build(args.lib)
    import franklbip.cli  # noqa: F401  (the whole public surface)

    workload = make_workload(args.workload, args.seed, "setup", args.lib)
    try:
        warm_up(workload)
    finally:
        workload.cleanup()


def measure_setup(args):
    """Wall times of fresh set-ups, each in its own interpreter, and the host's
    slowness around each."""
    walls, slowness = [], [spawn_slowness()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe", args.lib,
                        "--workload", args.workload, "--seed", str(args.seed)],
                       check=True, cwd=ROOT)
        walls.append(perf_counter() - t0)
        slowness.append(spawn_slowness())
    return walls, slowness


# --- timed loop ------------------------------------------------------------------------------

# Host speed.  On a shared host the same op, and the same fixed loop, can run
# up to 40 % slower for minutes at a time.  End-to-end times are therefore
# reported at a nominal host speed: each op's wall time is divided by the
# host's slowness, measured by a fixed reference job just before and just
# after it.  The reference resembles the workload's own work and calls no
# franklbip code.  The raw figures are printed too.
PY_REF_NOMINAL_S = 0.015
NUMPY_REF_NOMINAL_S = 0.0098
SPAWN_REF_NOMINAL_S = 0.040


def python_slowness():
    """A fixed pure-Python loop's wall time over its nominal: in-process ops."""
    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return (perf_counter() - t0) / PY_REF_NOMINAL_S


def sampler_slowness():
    """Mean of python_slowness and that of small Philox draws: sampler-bound ops.

    Numpy-heavy sampling slows down more than a pure-Python loop when the
    host is busy, so the loop alone under-corrects checks-sample.
    """
    import numpy as np

    t0 = perf_counter()
    for i in range(700):
        rng = np.random.Generator(np.random.Philox(key=np.array([i, 7], dtype=np.uint64)))
        rng.random((6, 6))
    numpy_slowness = (perf_counter() - t0) / NUMPY_REF_NOMINAL_S
    return (python_slowness() + numpy_slowness) / 2


def spawn_slowness():
    """`python -c pass`'s wall time over its nominal: ops in child processes."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (perf_counter() - t0) / SPAWN_REF_NOMINAL_S


REFERENCE = {"sweep-enum": python_slowness, "checks-sample": sampler_slowness,
             "cli": spawn_slowness}


def at_nominal_speed(walls, slowness):
    """walls[i] divided by the mean slowness measured before and after it."""
    return [w / ((slowness[i] + slowness[i + 1]) / 2) for i, w in enumerate(walls)]


class Tally:
    def __init__(self, slowness=None):
        self.walls, self.kinds, self.ok, self.trials, self.rss_kb = [], [], [], 0, 0
        self.attempted = self.failed = 0
        self.errors = []
        self.measure_slowness = slowness
        self.slowness = []

    def record(self, label, op, run):
        self.attempted += 1
        if self.measure_slowness:
            self.slowness.append(self.measure_slowness())
        t0 = perf_counter()
        try:
            result = run()
        except Exception:
            self.walls.append(perf_counter() - t0)
            self.kinds.append(op.kind)
            self.ok.append(False)
            self.failed += 1
            self.errors.append(f"{label}: raised\n{traceback.format_exc()}")
            return
        wall = perf_counter() - t0
        self.walls.append(wall)
        self.kinds.append(op.kind)
        try:
            problems = op.check(result)
        except Exception:
            problems = ["check raised\n" + traceback.format_exc()]
        self.ok.append(not problems)
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: " + "; ".join(problems[:3]))
            return
        self.trials += op.trials
        self.rss_kb = max(self.rss_kb, getattr(result, "rss_kb", 0))


def run_loop(make_op, seconds, first, tally):
    """Closed loop, one client: op i+1 starts when op i and its check are done."""
    deadline = perf_counter() + seconds
    i = first
    while True:
        op = make_op(i)
        tally.record(f"op {i} ({op.kind})", op, op.run)
        i += 1
        if perf_counter() >= deadline:
            return i


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- reporting --------------------------------------------------------------------------------

def stamp():
    import numpy
    from franklbip import mss

    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() if os.path.isdir(
                                os.path.join(ROOT, ".git")) else ""
    return {
        "kernel": mss.KERNEL,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": source_digest(),
    }


def emit(metrics, in_json, tally, extra_lines=()):
    """Print every metric on a `metric` line, then the result JSON with those in in_json."""
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for err in tally.errors[:10]:
        print("FAILED " + err, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in in_json},
    }))


def end_to_end(args):
    setup_walls, setup_slowness = measure_setup(args)
    use_build(args.lib)
    workload = make_workload(args.workload, args.seed, "run", args.lib)
    defect = []
    tally = Tally(REFERENCE[args.workload])
    try:
        warm_up(workload)
        run_loop(workload.op, args.seconds, 1, tally)
        tally.slowness.append(tally.measure_slowness())
        if args.workload == "cli":
            defect = defect_lines(workload)
    finally:
        workload.cleanup()
    if args.workload == "cli":
        rss_mb = tally.rss_kb / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timings(walls, setup):
        ok_wall = sum(w for w, ok in zip(walls, tally.ok) if ok)
        return {
            "trials_per_s": (tally.trials / ok_wall if ok_wall else 0.0, "1/s"),
            "op_p50_s": (quantile(walls, 50), "s"),
            "op_p90_s": (quantile(walls, 90), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    metrics = timings(at_nominal_speed(tally.walls, tally.slowness),
                      at_nominal_speed(setup_walls, setup_slowness))
    in_json = list(metrics)
    metrics["error_rate"] = (tally.failed / tally.attempted, "ratio")
    raw = timings(tally.walls, setup_walls)
    lines = [
        "stamp: " + json.dumps(stamp(), sort_keys=True),
        f"workload {args.workload}: seed {args.seed}, closed loop, 1 client, "
        f"{len(tally.walls)} ops timed (op_p50_s and op_p90_s over these), "
        f"{tally.failed} failed of {tally.attempted} attempted",
        f"host slowness (1 = nominal): median {statistics.median(tally.slowness):.4f} "
        f"around ops, {statistics.median(setup_slowness):.4f} around set-ups",
        "setup walls (s): " + ", ".join(f"{w:.4f}" for w in setup_walls),
        *(f"op kind {kind}: {len(w)} ops, median {statistics.median(w):.4f} s, "
          f"min {min(w):.4f} s, max {max(w):.4f} s"
          for kind, w in by_kind(tally.kinds, tally.walls).items()),
        *(f"raw {name} = {value!r} {unit}" for name, (value, unit) in raw.items()),
    ]
    emit(metrics, in_json, tally, lines + defect)


def by_kind(kinds, walls):
    out = {}
    for kind, wall in zip(kinds, walls):
        out.setdefault(kind, []).append(wall)
    return out


def defect_lines(cli):
    """Run the known-defect invocation once, untimed, and say what it did."""
    import workloads

    rc, tb, last = cli.defect_probe()
    return [f"known defect (ROADMAP open item 3), not in the timed mix: "
            f"franklbip {' '.join(workloads.DEFECT_ARGV)} -> exit {rc}, "
            f"traceback {'yes' if tb else 'no'}: {last}"]


def traced(args):
    import probes
    import tracing
    from franklbip import _pykernels, mss

    workload = make_workload(args.workload, args.seed, "trace", args.lib)
    tracer = tracing.Tracer()
    tally = Tally()
    inprocess = args.workload == "cli"
    make_op = (lambda i: workload.op(i, inprocess=True)) if inprocess else workload.op
    try:
        warm_up(workload)
        # untraced first, so that the spans held in memory cannot slow it down
        untraced = Tally()
        end = run_loop(make_op, args.seconds / 2, 1, untraced)
        tracer.install()
        try:
            for i in range(1, end):
                op = make_op(i)
                tally.record(f"traced op {i}", op, lambda op=op, i=i: tracer.run_op(i, op.run))
        finally:
            tracer.uninstall()
        traced_wall = sum(tally.walls)
        overhead = traced_wall - sum(untraced.walls)
        tally.failed += untraced.failed
        tally.attempted += untraced.attempted
        tally.errors += untraced.errors

        compiled = mss._impl if mss.KERNEL == "compiled" else None
        kernel_metrics, errors = probes.kernel_probe(_pykernels, compiled)
        sweep_metrics, sweep_errors = probes.sweep_probe(args.seed)
        cli_wl = workload if inprocess else make_workload("cli", args.seed, "probe", args.lib)
        try:
            cli_metrics, cli_errors, notes = probes.cli_probe(cli_wl)
        finally:
            cli_wl.cleanup()
    finally:
        workload.cleanup()
    for probe_errors in (errors, sweep_errors, cli_errors):
        tally.attempted += 1
        tally.failed += bool(probe_errors)
        tally.errors += probe_errors

    spans = [s for s in tracer.spans if s[tracing.OP] is not None]
    layers, selfs = tracing.layer_metrics(spans)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    tracer.write_jsonl(os.path.join(BUILD, "traces", f"{args.workload}.jsonl"))

    metrics = dict(layers)
    metrics.update(kernel_metrics)
    metrics.update(sweep_metrics)
    metrics.update(cli_metrics)
    metrics["trace.overhead_s"] = (overhead, "s")

    busy = sum(selfs[s[tracing.SID]] for s in spans if s[tracing.NAME] != "op") or 1.0
    shares = [
        f"workload {args.workload}: {len(tally.walls)} traced ops, {traced_wall:.3f} s traced "
        f"wall, {sum(untraced.walls):.3f} s untraced wall of the same ops",
        f"share base: {busy:.4f} s of span self time over all threads",
    ]
    for name, part in (("kernel.stats self", layers["kernel.stats.busy_s"][0]),
                       ("kernel.freehist self", layers["kernel.freehist.busy_s"][0]),
                       ("graphs.sample", layers["graphs.sample.busy_s"][0]),
                       ("mss.reduce self", layers["mss.reduce.self_s"][0]),
                       ("mss.is_maximal", layers["mss.is_maximal.busy_s"][0]),
                       ("verify self", layers["verify.campaign.self_s"][0]),
                       ("bounds", layers["bounds.busy_s"][0]),
                       ("setfamily.closure", layers["setfamily.closure.busy_s"][0])):
        shares.append(f"share {name}: {part / busy:.4f} ({part:.4f} s of {busy:.4f} s)")
    base, imported = notes["cli_subprocess_op_p50_s"], cli_metrics["cli.import_s"][0]
    shares.append(f"share cli.import_s of median cli op: {imported / base:.4f} "
                  f"({imported:.4f} s of {base:.4f} s, {notes['cli_subprocess_ops']} "
                  f"subprocess ops)")
    shares.append(f"known defect (ROADMAP open item 3): exit {notes['defect_exit']}: "
                  f"{notes['defect_stderr']}")
    if compiled is None:
        shares.append(f"kernel.compiled.*: not measured, the active kernel is {mss.KERNEL!r}")
    emit(metrics, PER_LAYER_JSON, tally,
         ["stamp: " + json.dumps(stamp(), sort_keys=True)] + shares)


# The per-layer metrics in the JSON: those measured, so never 0, on every
# workload.  The others are printed on `metric` lines only.  The free-hist walk
# is not reached on sweep-enum and cli, is_maximal_stable not on sweep-enum,
# union_closure only on cli.  kernel.compiled.* exist only when the build makes
# the compiled kernel, and cli.defect.failed drops to 0 once the defect is fixed.
PER_LAYER_JSON = (
    "graphs.sample.calls", "graphs.sample.busy_s", "graphs.sample.us_per_graph",
    "kernel.stats.calls", "kernel.stats.busy_s", "kernel.stats.mss", "kernel.stats.ns_per_mss",
    "kernel.twin.ns_per_mss", "kernel.twin.ns_per_leaf",
    "mss.reduce.self_s", "verify.trials", "verify.campaign.self_s",
    "verify.sweep.parallelism", "verify.sweep.wait_s", "verify.sweep.speedup_2w",
    "bounds.calls", "bounds.busy_s",
    "cli.interp_s", "cli.import_s", "cli.main_s.stats", "cli.main_s.regime",
    "cli.main_s.sample", "cli.main_s.verify", "cli.main_s.frankl",
    "trace.overhead_s",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="LIB", dest="lib",
                        help="internal: one fresh set-up with the package built in LIB, then exit")
    args = parser.parse_args(argv)
    try:
        if args.lib:
            setup_probe(args)
            return 0
        args.lib = build()
        if args.trace:
            use_build(args.lib)
            traced(args)
        else:
            end_to_end(args)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
