"""Command-line surface: sampling, stats, bound checks, sweeps, regime
classification and set-family checks.

Each subcommand imports only the modules it runs: `sample` needs `graphs`
alone, `stats` adds `mss`, `frankl` adds `setfamily`, `regime` adds `bounds`,
and `verify` and `sweep` add `verify`, `bounds` and `mss`.
`concurrent.futures` is imported only by a sweep with `--workers` above 1.
Such a sweep runs points on the calling thread and on up to `--workers` - 1
pool threads; `verify.sweep` makes that pool once per worker count and
reuses it for every later sweep in the process (a forked child drops it and
makes its own).  One CLI call sweeps once, and the pool's threads exit with
the interpreter.
The errors that main() maps to exit codes, and the `--cap` and `--alpha`
defaults `DEFAULT_CAP` and `DEFAULT_ALPHA` (which `mss` and `bounds`
re-export), are all defined in `graphs`, so building the parser imports
nothing more.

Exit codes: 0 success, 1 I/O or input-format failure, 2 usage, 3 refusal
(hypothesis violation, a scan side over the cap, a closed form out of
floating-point range, or a value that does not fit in memory).  `--cap` is
the largest scan side min(m, n) in `stats` and in `sweep` alike, and both
default to `DEFAULT_CAP`, the cap every check and campaign applies.
Machine outputs start with a config echo carrying the resolved seed, so
every run is reproducible from its own output.  The worker count is an
execution detail and deliberately not part of the echo: equal configs must
produce byte-identical tables.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .graphs import (DEFAULT_ALPHA, DEFAULT_CAP, CapExceeded, FamilyParseError,
                     GraphParseError, HypothesisViolation, Seed, ZeroSideError, as_prob,
                     fraction_text, parse_graph, sample_bipartite, serialize_graph)

SEED_ENV = "FRANKLBIP_SEED"

# name -> (flag, type, default) of every parameter a `verify` check reads
VERIFY_PARAMS = {
    "m": ("-m", int, None), "n": ("-n", int, None), "p": ("-p", float, None),
    "delta": ("--delta", float, 0.0), "alpha": ("--alpha", float, DEFAULT_ALPHA),
    "ell": ("--l", int, None), "r": ("--r", int, None),
    "ell_star": ("--l-star", int, None), "r_star": ("--r-star", int, None),
    "k": ("--k", int, None), "phi": ("--phi", float, None),
}


def _resolve_seed(args) -> Seed:
    if args.seed is not None:
        return Seed(args.seed)
    env = os.environ.get(SEED_ENV)
    return Seed(int(env)) if env else Seed(0)


@contextlib.contextmanager
def _any_digits():
    """Lift CPython's 4,300-digit limit on converting ints to and from text
    for the block: the library takes sides of any size, so the arguments are
    parsed and echoed whole.  Files are read under the default limit.
    Interpreters without the limit lack the setting."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _echo(subcommand: str, seed: Seed = None, **fields) -> dict:
    cfg = {"subcommand": subcommand}
    if seed is not None:
        cfg["seed"] = seed.root
    for key in sorted(fields):
        if fields[key] is not None:
            cfg[key] = fields[key]
    return cfg


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@_any_digits()
def _config_line(cfg: dict) -> str:
    return "config: " + json.dumps(cfg, sort_keys=True)


@_any_digits()
def _write(args, cfg: dict, payload: dict, lines: list) -> int:
    """Write a table subcommand's output: the echo and payload as JSON, or
    the echo line and then lines."""
    if args.format == "json":
        _emit(json.dumps({"config": cfg, **payload}, indent=2) + "\n", args.output)
    else:
        _emit("\n".join([_config_line(cfg), *lines]) + "\n", args.output)
    return 0


@_any_digits()
def _write_reports(args, cfg: dict, reports, with_regime: bool = False) -> int:
    """Write the report rows of `verify` or `sweep` as CSV or JSON."""
    from .verify import reports_to_csv, reports_to_json

    _emit(reports_to_json(reports, cfg) if args.format == "json"
          else reports_to_csv(reports, cfg, with_regime), args.output)
    return 0


def cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    g = sample_bipartite(args.m, args.n, args.p, seed)
    cfg = _echo("sample", seed, m=args.m, n=args.n, p=args.p, output=args.output)
    text = serialize_graph(g)
    if args.output:
        _emit(text, args.output)
        print(_config_line(cfg))
        print(f"wrote {args.output}")
    else:
        # keep stdout parseable as a graph; the echo goes to stderr
        print(_config_line(cfg), file=sys.stderr)
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    from . import mss

    with open(args.graph) as fh:
        g = parse_graph(fh.read())
    stats = mss.mss_stats(g, cap=args.cap)
    verdict = mss.verdict_from_stats(stats, args.delta)
    avg = stats.left_average()
    cfg = _echo("stats", _resolve_seed(args), graph=args.graph, delta=args.delta,
                cap=args.cap, format=args.format)
    payload = {
        "graph": g.to_json_dict(),
        "edges": g.edge_count(),
        "stats": stats.to_json_dict(),
        "left_avg": fraction_text(avg),
        "verdict": verdict.to_json_dict(),
    }
    state = "vacuous" if verdict.vacuous else (
        "satisfied" if verdict.satisfied else "VIOLATED")
    lines = [
        f"m: {g.m}  n: {g.n}  edges: {g.edge_count()}",
        f"total: {stats.total}",
        "left_hist: " + ",".join(str(c) for c in stats.left_hist),
        f"left_avg: {avg}",
        f"conjecture(delta={args.delta}): {state}",
    ]
    for side, wit in (("left", verdict.left_witness), ("right", verdict.right_witness)):
        if wit is not None:
            lines.append(f"  {side} witness: vertex {wit[0]}, fraction {wit[1]}")
    return _write(args, cfg, payload, lines)


def cmd_verify(args) -> int:
    from . import verify

    seed = _resolve_seed(args)
    params = {name: getattr(args, name) for name in VERIFY_PARAMS}
    report = verify.verify_lemma(args.lemma, params, args.trials, seed,
                                 strict=not args.informational)
    cfg = _echo("verify", seed, lemma=args.lemma, trials=args.trials,
                format=args.format, **params)
    return _write_reports(args, cfg, [report])


def _read_grid(path):
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    if not lines:
        raise GraphParseError(f"grid file {path} is empty")
    header = [cell.strip().lower() for cell in lines[0].split(",")]
    if header != ["m", "n", "p", "delta"]:
        raise GraphParseError(
            f"grid header must be 'm,n,p,delta', got {lines[0]!r}")
    grid = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != 4:
            raise GraphParseError(f"grid line {lineno}: expected 4 cells, got {len(cells)}")
        try:
            grid.append((int(cells[0]), int(cells[1]), float(cells[2]), float(cells[3])))
        except ValueError:
            raise GraphParseError(f"grid line {lineno}: malformed numbers in {line!r}") from None
    return grid


def cmd_sweep(args) -> int:
    from . import verify

    seed = _resolve_seed(args)
    grid = _read_grid(args.grid)
    reports = verify.sweep(grid, args.trials, seed, workers=args.workers,
                           alpha=args.alpha, cap=args.cap)
    cfg = _echo("sweep", seed, grid=args.grid, trials=args.trials,
                alpha=args.alpha, cap=args.cap, format=args.format)
    return _write_reports(args, cfg, reports, with_regime=True)


def cmd_regime(args) -> int:
    from . import bounds

    tag = bounds.classify_regime(args.m, args.n, args.p, alpha=args.alpha)
    prob = as_prob(args.p)
    rp = bounds.RegimeParams.from_mnp(args.m, args.n, prob)
    consts = bounds.regime_constants(prob)
    thresholds = bounds.regime_thresholds(args.m, args.alpha)
    cfg = _echo("regime", _resolve_seed(args), m=args.m, n=args.n, p=args.p,
                alpha=args.alpha)
    payload = {
        "regime": tag.value,
        "log_n": rp.log_n,
        "log_m": rp.log_m,
        "a": rp.a,
        "b": rp.b,
        "a_prime": rp.a_prime,
        "lambda": rp.lam,
        "thresholds": thresholds,
        "c_right": consts.c_right,
        "r_star": consts.r_star,
    }
    aprime = rp.a_prime if rp.a_prime is not None else "-"
    return _write(args, cfg, payload, [
        f"regime: {tag.value}",
        f"log_1/q(n): {rp.log_n!r}  log_1/q(m): {rp.log_m!r}",
        f"a: {rp.a}  b: {rp.b}  a_prime: {aprime}  lambda: {rp.lam!r}",
        "thresholds vs log_1/q(n): "
        + "  ".join(f"{name}={value!r}" for name, value in thresholds.items()),
        f"c_right: {consts.c_right}  r_star: {consts.r_star}",
    ])


def cmd_frankl(args) -> int:
    from . import setfamily

    with open(args.family) as fh:
        family = setfamily.parse_family(fh.read())
    members, best, freq, satisfied = setfamily.frankl_check(family, args.closure)
    cfg = _echo("frankl", _resolve_seed(args), family=args.family,
                closure=args.closure, format=args.format)
    payload = {
        "members": members,
        "ground_size": family.ground_size,
        "best_element": best,
        "frequency": fraction_text(freq),
        "satisfied": satisfied,
    }
    return _write(args, cfg, payload, [
        f"members: {members}  ground: {family.ground_size}",
        f"best element: {best}",
        f"frequency: {freq}",
        f"satisfied: {str(satisfied).lower()}",
    ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="franklbip",
        description="Maximal-stable-set statistics and bound checks on random bipartite graphs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    ps = sub.add_parser("sample", help="write one sampled graph in text form")
    ps.add_argument("-m", type=int, required=True)
    ps.add_argument("-n", type=int, required=True)
    ps.add_argument("-p", type=float, required=True)
    ps.add_argument("--seed", type=int)
    ps.add_argument("-o", "--output")
    ps.set_defaults(func=cmd_sample)

    pt = sub.add_parser("stats", help="exact stats and conjecture verdict for a graph file")
    pt.add_argument("graph")
    pt.add_argument("--delta", type=float, default=0.0)
    pt.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help="largest scan side, min(m, n) (default: %(default)s)")
    pt.add_argument("--seed", type=int, help="echoed for reproducibility; stats are deterministic")
    pt.add_argument("--format", choices=("table", "json"), default="table")
    pt.add_argument("-o", "--output")
    pt.set_defaults(func=cmd_stats)

    pv = sub.add_parser("verify", help="Monte Carlo check of one named bound")
    pv.add_argument("lemma")
    for name, (flag, kind, default) in VERIFY_PARAMS.items():
        pv.add_argument(flag, dest=name, type=kind, default=default)
    pv.add_argument("--trials", type=int, required=True)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--informational", action="store_true",
                    help="run outside the hypothesis and flag the report")
    pv.add_argument("--format", choices=("csv", "json"), default="csv")
    pv.add_argument("-o", "--output")
    pv.set_defaults(func=cmd_verify)

    pw = sub.add_parser("sweep", help="averaging campaign over a CSV grid of m,n,p,delta")
    pw.add_argument("grid")
    pw.add_argument("--trials", type=int, required=True)
    pw.add_argument("--seed", type=int)
    pw.add_argument("--workers", type=int, default=1)
    pw.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    pw.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help="largest scan side, min(m, n), of a grid point; larger points "
                         "become error rows (default: %(default)s)")
    pw.add_argument("--format", choices=("csv", "json"), default="csv")
    pw.add_argument("-o", "--output")
    pw.set_defaults(func=cmd_sweep)

    pr = sub.add_parser("regime", help="classify (m, n, p) and print derived quantities")
    pr.add_argument("-m", type=int, required=True)
    pr.add_argument("-n", type=int, required=True)
    pr.add_argument("-p", type=float, required=True)
    pr.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    pr.add_argument("--seed", type=int, help="echoed only; classification is deterministic")
    pr.add_argument("--format", choices=("table", "json"), default="table")
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=cmd_regime)

    pf = sub.add_parser("frankl", help="frequency check on a union-closed family file")
    pf.add_argument("family")
    pf.add_argument("--closure", action="store_true",
                    help="close the family under unions first")
    pf.add_argument("--seed", type=int, help="echoed only; the check is deterministic")
    pf.add_argument("--format", choices=("table", "json"), default="table")
    pf.add_argument("-o", "--output")
    pf.set_defaults(func=cmd_frankl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with _any_digits():
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (HypothesisViolation, CapExceeded) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # a closed form evaluated in floats overflowed; log space would avoid it
        print(f"refused: closed form out of floating-point range: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # such as veryverylargeside's 2^m at m = 2^62; CPython's has no text
        print(f"refused: does not fit in memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (GraphParseError, FamilyParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ZeroSideError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
