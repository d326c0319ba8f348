"""The three workloads: inputs made from the seed, the ops, and their checks.

An op is one `verify.sweep` call, one `verify.verify_lemma` call or one CLI
invocation.  `Workload.op(i)` returns op number i of an endless,
seed-determined sequence; each op carries its own oracle check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import oracle

MASK64 = (1 << 64) - 1

# averaging-campaign points (m, n, p, delta): min side 16..24, p in 0.15..0.5
SWEEP_GRID = (
    (16, 20, 0.15, 0.1),
    (18, 18, 0.25, 0.05),
    (20, 20, 0.3, 0.0),
    (22, 22, 0.4, 0.1),
    (24, 24, 0.5, 0.0),
    (16, 24, 0.35, 0.05),
)
SWEEP_TRIALS = 2
SWEEP_WORKERS = 2

# registered checks on small graphs, mostly sampler-only ones; trials set so
# that every op takes about the same time
CHECK_MIX = (
    ("mssproba", {"m": 6, "n": 6, "p": 0.5, "ell": 2, "r": 2}, 4000),
    ("constrightside", {"m": 6, "n": 2, "p": 0.5}, 4500),
    ("indmatchings", {"k": 3, "p": 0.5}, 5000),
    ("genupper", {"m": 10, "n": 3, "p": 0.5, "ell_star": 3, "r_star": 1}, 330),
    ("superpoly.lower.bound", {"m": 12, "n": 12, "p": 0.9}, 1300),
)

CLI_STATS_P = 0.3
CLI_FILES = 3
CLI_MIX_LEN = 7
REGIME_ARGV = ("regime", "-m", "20", "-n", "1048576", "-p", "0.5", "--alpha", "0.45")
# From the paper's thresholds on x = log_{1/q} n: here x = log2(2^20) = 20, n is
# above the constant-right cut (25 at p = 1/2), x < m^3, and x >= alpha m = 9.
REGIME_EXPECTED = "GiganticRight"
MSSPROBA_CLI = {"m": 6, "n": 6, "p": 0.5, "ell": 2, "r": 2}
MSSPROBA_CLI_TRIALS = 2000
REFUSAL_ARGV = ("verify", "genupper", "-m", "4", "-n", "3", "-p", "0.5",
                "--l-star", "1", "--r-star", "1", "--trials", "5")
# ROADMAP open item 3: exits 1 with an OverflowError traceback today
DEFECT_ARGV = ("verify", "genupper", "-m", "12", "-n", "1500", "-p", "0.5",
               "--l-star", "3", "--r-star", "1", "--trials", "2", "--informational")


def derive_root(seed: int, index: int) -> int:
    """Deterministic 64-bit root key for op `index` of a run seeded with `seed`."""
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) & MASK64
    x ^= x >> 31
    return (x * 0x94D049BB133111EB) & MASK64


@dataclass
class Op:
    kind: str
    trials: int
    run: Callable
    check: Callable  # result -> list of mismatch strings


@dataclass
class Workload:
    op: Callable  # index -> Op
    cleanup: Callable = field(default=lambda: None)


# --- sweep-enum ---------------------------------------------------------------------

def sweep_enum(seed: int) -> Workload:
    from franklbip import verify
    from franklbip.graphs import Seed

    grid, trials = SWEEP_GRID, SWEEP_TRIALS

    def op(i):
        root = derive_root(seed, i)
        return Op(
            kind="sweep",
            trials=len(grid) * trials,
            run=lambda: verify.sweep(grid, trials, Seed(root), workers=SWEEP_WORKERS),
            check=lambda reports: oracle.check_sweep(reports, grid, trials, root),
        )

    return Workload(op)


# --- checks-sample ------------------------------------------------------------------

def checks_sample(seed: int) -> Workload:
    from franklbip import verify
    from franklbip.graphs import Seed

    mix = CHECK_MIX

    def op(i):
        lemma, params, trials = mix[i % len(mix)]
        root = derive_root(seed, i)
        return Op(
            kind=lemma,
            trials=trials,
            run=lambda: verify.verify_lemma(lemma, params, trials, Seed(root)),
            check=lambda rep: oracle.check_lemma(rep, lemma, params, trials, root),
        )

    return Workload(op)


# --- cli --------------------------------------------------------------------------------

@dataclass
class CliResult:
    rc: int
    out: str
    err: str
    rss_kb: int = 0


def run_cli_subprocess(argv, env, cwd, timeout=120.0) -> CliResult:
    """One `python -m franklbip.cli` child; its peak RSS comes from wait4."""
    out_path = os.path.join(cwd, "child.out")
    err_path = os.path.join(cwd, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "franklbip.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return CliResult(proc.returncode, out.read(), err.read(), usage.ru_maxrss)


def run_cli_inprocess(argv) -> CliResult:
    from franklbip import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return CliResult(rc, out.getvalue(), err.getvalue())


def _lines_by_key(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out.setdefault(key.strip(), value.strip())
    return out


def _verdict_state(ref, delta, vacuous):
    if vacuous:
        return "vacuous", None, None
    lw, rw = ref.witness("left", delta), ref.witness("right", delta)
    return ("satisfied" if lw is not None and rw is not None else "VIOLATED"), lw, rw


def _check_stats_table(res, ref, vacuous):
    got = _lines_by_key(res.out)
    state, _, _ = _verdict_state(ref, Fraction(0), vacuous)
    want = {
        "total": str(ref.total),
        "left_hist": ",".join(str(c) for c in ref.left_hist),
        "left_avg": str(ref.left_average()),
        "conjecture(delta=0.0)": state,
    }
    return [f"stats {k}: got {got.get(k)!r}, oracle {v!r}" for k, v in want.items()
            if got.get(k) != v]


def _check_stats_json(res, ref, vacuous):
    payload = json.loads(res.out)
    stats = SimpleNamespace(
        total=int(payload["stats"]["total"]),
        left_hist=tuple(payload["stats"]["left_hist"]),
        left_vertex_counts=tuple(payload["stats"]["left_vertex_counts"]),
        right_vertex_counts=tuple(payload["stats"]["right_vertex_counts"]),
    )
    errors = oracle.check_mss_stats(stats, ref)
    avg = ref.left_average()
    if payload["left_avg"] != f"{avg.numerator}/{avg.denominator}":
        errors.append(f"stats left_avg {payload['left_avg']}, oracle {avg}")
    state, lw, rw = _verdict_state(ref, Fraction(0), vacuous)
    verdict = payload["verdict"]
    got_state = "vacuous" if verdict["vacuous"] else (
        "satisfied" if verdict["satisfied"] else "VIOLATED")
    if got_state != state:
        errors.append(f"stats verdict {got_state}, oracle {state}")
    for side, wit in (("left", lw), ("right", rw)):
        want = None if wit is None else {
            "vertex": wit[0], "fraction": f"{wit[1].numerator}/{wit[1].denominator}"}
        if not vacuous and verdict[f"{side}_witness"] != want:
            errors.append(f"stats {side} witness {verdict[f'{side}_witness']}, oracle {want}")
    return errors


def _csv_report(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    cells = rows[1].split(",")
    return SimpleNamespace(lemma_id=cells[0], trials=int(cells[5]), claimed=float(cells[6]),
                           measured=float(cells[7]), ci=float(cells[8]), verdict=cells[9],
                           extra={})


class CliWorkload:
    """Inputs on disk plus the fixed mix of seven invocations per cycle."""

    def __init__(self, seed: int, workdir: str, lib_dir: str):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [lib_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env.pop("FRANKLBIP_SEED", None)
        os.makedirs(workdir, exist_ok=True)
        self.graphs = []  # (path, edge matrix): CLI_FILES of 20x20, then of 22x22
        for size in (20, 22):
            for j in range(CLI_FILES):
                bits = oracle.sample_bits(size, size, CLI_STATS_P,
                                          derive_root(seed, 1000 + 10 * size + j), 0)
                path = os.path.join(workdir, f"g{size}_{j}.graph")
                with open(path, "w") as fh:
                    fh.write(oracle.graph_text(bits))
                self.graphs.append((path, bits))
        self._refs = {}
        self.families = []
        for j in range(CLI_FILES):
            bits = oracle.sample_bits(5, 8, 0.4, derive_root(seed, 2000 + j), 0)
            masks = oracle.rows_of(bits)
            path = os.path.join(workdir, f"fam_{j}.txt")
            with open(path, "w") as fh:
                fh.write("".join(
                    (",".join(str(v) for v in range(8) if mask >> v & 1) or "-") + "\n"
                    for mask in masks))
            self.families.append((path, masks))

    def _ref(self, path, bits):
        """Oracle statistics and edgelessness of a graph file, computed once."""
        if path not in self._refs:
            rows = oracle.rows_of(bits)
            self._refs[path] = (oracle.ClosureStats(*bits.shape, rows), not any(rows))
        return self._refs[path]

    def argvs(self, cycle):
        """The seven (kind, argv, check) entries of one cycle of the mix."""
        j = cycle % CLI_FILES
        g20, g22 = self.graphs[j], self.graphs[CLI_FILES + j]
        fam_path, fam_masks = self.families[j]
        call_seed = derive_root(self.seed, 3000 + cycle) >> 1
        sample_path = os.path.join(self.workdir, f"sample_{cycle % 2}.graph")

        def ok(res, rc=0):
            errors = []
            if res.rc != rc:
                errors.append(f"exit {res.rc}, expected {rc}")
            if "Traceback" in res.err:
                errors.append("traceback on stderr: " + res.err.strip().splitlines()[-1])
            return errors

        def stats_table(res):
            return ok(res) or _check_stats_table(res, *self._ref(*g20))

        def stats_json(res):
            return ok(res) or _check_stats_json(res, *self._ref(*g22))

        def regime(res):
            got = _lines_by_key(res.out).get("regime")
            return ok(res) or ([] if got == REGIME_EXPECTED
                               else [f"regime {got}, expected {REGIME_EXPECTED}"])

        def sample(res):
            with open(sample_path) as fh:
                text = fh.read()
            want = oracle.graph_text(oracle.sample_bits(12, 12, 0.4, call_seed, 0))
            return ok(res) or ([] if text == want else ["sample file differs from oracle draw"])

        def verify_small(res):
            return ok(res) or oracle.check_lemma(_csv_report(res.out), "mssproba",
                                                 MSSPROBA_CLI, MSSPROBA_CLI_TRIALS, call_seed)

        def frankl(res):
            members = oracle.family_closure(fam_masks)
            best, freq, satisfied = oracle.frankl_summary(members)
            got = _lines_by_key(res.out)
            want = {"best element": str(best), "frequency": str(freq),
                    "satisfied": str(satisfied).lower()}
            errors = [f"frankl {k}: got {got.get(k)!r}, oracle {v!r}"
                      for k, v in want.items() if got.get(k) != v]
            if not res.out.startswith("config: ") or f"members: {len(members)} " not in res.out:
                errors.append(f"frankl members line, oracle {len(members)}")
            return ok(res) or errors

        def refusal(res):
            errors = ok(res, rc=3)
            if not res.err.startswith("refused:"):
                errors.append("refusal without 'refused:' message")
            return errors

        m = MSSPROBA_CLI
        return [
            ("stats", ("stats", g20[0]), stats_table),
            ("stats", ("stats", g22[0], "--format", "json"), stats_json),
            ("regime", REGIME_ARGV, regime),
            ("sample", ("sample", "-m", "12", "-n", "12", "-p", "0.4",
                        "--seed", str(call_seed), "-o", sample_path), sample),
            ("verify", ("verify", "mssproba", "-m", str(m["m"]), "-n", str(m["n"]),
                        "-p", str(m["p"]), "--l", str(m["ell"]), "--r", str(m["r"]),
                        "--trials", str(MSSPROBA_CLI_TRIALS), "--seed", str(call_seed)),
             verify_small),
            ("frankl", ("frankl", fam_path, "--closure"), frankl),
            ("refusal", REFUSAL_ARGV, refusal),
        ]

    def op(self, i, inprocess=False):
        kind, argv, check = self.argvs(i // CLI_MIX_LEN)[i % CLI_MIX_LEN]
        trials = MSSPROBA_CLI_TRIALS if kind == "verify" else 0
        if inprocess:
            run = lambda: run_cli_inprocess(argv)  # noqa: E731
        else:
            run = lambda: run_cli_subprocess(argv, self.env, self.workdir)  # noqa: E731
        return Op(kind=kind, trials=trials, run=run, check=check)

    def cleanup(self):
        shutil.rmtree(self.workdir, True)

    def defect_probe(self):
        """The known-defect invocation: (exit code, traceback seen, last stderr line)."""
        res = run_cli_subprocess(DEFECT_ARGV, self.env, self.workdir)
        lines = res.err.strip().splitlines()
        return res.rc, "Traceback" in res.err, (lines[-1] if lines else "")
