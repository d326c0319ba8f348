"""Seeded Monte Carlo checks and sweeps.

Every named check, both campaigns included, is a `CheckSpec` row that
`verify_lemma` runs: it samples graphs from derived sub-streams, and the
row's summary folds the stream of per-graph values exactly, in constant
memory, to a frequency or mean and confronts it with the closed form from
`bounds`.  A frequency is `violated` only when its exact binomial tail is
below ALPHA, the false-alarm rate of a 4-sigma normal band.  Asymptotic
claims (those that only hold beyond unspecified size thresholds) are
reported with verdict "informational": finite-size runs can measure them
but not refute them.  Each row refuses its own parameters, cap included.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import threading
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from itertools import repeat
from typing import Callable, NamedTuple, Optional

from . import bounds, mss
# the regime classifier lives in bounds; verify.sweep calls it through
# this module's name, so a patched verify.classify_regime is what runs
from .bounds import (DEFAULT_ALPHA, HypothesisViolation, Regime,  # noqa: F401
                     RegimeParams, _check_alpha, classify_regime)
from .graphs import (MAX_TRIALS, CapExceeded, Seed, as_prob, fraction_text, sample_bipartite,
                     serialize_graph)

CI_Z = 4.0  # every confidence radius is this many standard deviations wide
CONSISTENT = "consistent"
VIOLATED = "violated"
INFORMATIONAL = "informational"
ERROR = "error"


class UnknownLemma(ValueError):
    """The requested check id is not in the registry."""


class MissingParameter(ValueError):
    """A registered check did not receive a parameter it needs."""


@dataclass(frozen=True)  # perfbench/selftest.py corrupts reports with dataclasses.replace
class BoundReport:
    """One confrontation of a claimed bound with a measured frequency or
    mean.  verdict is `violated` only when the measurement contradicts the
    claim: a frequency by an exact binomial tail below ALPHA, a bounded mean
    by more than the confidence radius."""

    lemma_id: str
    m: int
    n: int
    p: float
    delta: float
    trials: int
    claimed: float
    measured: float
    ci: float
    verdict: str
    seed: int
    extra: dict = field(default_factory=dict, compare=False)

    def csv_row(self, with_regime: bool = False) -> str:
        # str of a float is its repr
        cells = [str(getattr(self, name)) for name in _COLUMNS]
        if with_regime:
            cells.append(str(self.extra.get("regime", "")))
        return ",".join(cells)

    def to_json_dict(self) -> dict:
        # the columns, then the extras
        out = {name: getattr(self, name) for name in _COLUMNS}
        for key, val in self.extra.items():
            out[key] = fraction_text(val) if isinstance(val, Fraction) else val
        return out


# the fields but extra, in declaration order: the CSV columns and the first
# keys of each JSON report
_COLUMNS = tuple(f.name for f in fields(BoundReport) if f.name != "extra")
CSV_HEADER = ",".join(_COLUMNS)


def wilson_radius(successes: int, trials: int) -> float:
    """Half-width of the Wilson score interval; stays positive at 0 and 1."""
    if trials <= 0:
        return float("nan")
    phat = successes / trials
    z2 = CI_Z * CI_Z
    denom = 1.0 + z2 / trials
    rad = CI_Z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return rad / denom


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= 2^32 = {MAX_TRIALS}")


def run_average_campaign(m: int, n: int, prob, delta, trials: int, seed: Seed,
                         cap: int = mss.DEFAULT_CAP) -> BoundReport:
    """The `average` check, frequency of left-avg(G) <= (1/2 + delta) m,
    with the largest scan side, min(m, n), it enumerates set to cap."""
    return _run_check("average", {"m": m, "n": n, "p": prob, "delta": delta, "cap": cap},
                      trials, seed)


def run_conjecture_campaign(m: int, n: int, prob, delta, trials: int,
                            seed: Seed) -> BoundReport:
    """The `conjecture` check, frequency of the up-to-delta verdict among
    non-edgeless samples; edgeless ones are counted as vacuous.  Any
    violating graph is serialized into the report: at desk sizes it would
    contradict known exhaustive results, so treat it as a fatal find."""
    return _run_check("conjecture", {"m": m, "n": n, "p": prob, "delta": delta}, trials, seed)


# --- registry of named checks ------------------------------------------------

# the false-alarm rate a 4-sigma normal band promises, 2 Phi(-4) = 6.3e-5
ALPHA = math.erfc(CI_Z / math.sqrt(2.0))


def _binomial_tail_below(hits: int, trials: int, claimed: float, level: float) -> bool:
    """True iff the tail of Bin(trials, claimed) on the far side of hits
    from the mean, P(X <= hits) if hits <= trials * claimed and P(X >= hits)
    otherwise, is below level.  That tail is the smaller of the two, since
    the other one holds the median.

    The terms are summed outward from hits, relative to the pmf there, whose
    log comes from math.lgamma.  Each ratio to the next term is below 1 and
    shrinks outward, so the rest of the tail is at most a geometric series,
    and the sum stops as soon as the tail is known to be above or below
    level, or the rest is below the float resolution of the sum."""
    if not 0.0 < claimed < 1.0:
        # all the mass sits on 0 or on trials
        return hits != (0 if claimed <= 0.0 else trials)
    log_pmf = (math.lgamma(trials + 1) - math.lgamma(hits + 1) - math.lgamma(trials - hits + 1)
               + hits * math.log(claimed) + (trials - hits) * math.log1p(-claimed))
    log_level = math.log(level)
    if log_pmf >= log_level:
        return False
    odds = claimed / (1.0 - claimed)
    lower = hits <= trials * claimed
    k, term, total = hits, 1.0, 1.0
    while k != (0 if lower else trials):
        if lower:
            ratio = k / ((trials - k + 1) * odds)  # pmf(k - 1) / pmf(k)
            k -= 1
        else:
            ratio = (trials - k) * odds / (k + 1)  # pmf(k + 1) / pmf(k)
            k += 1
        term *= ratio
        total += term
        rest = term * ratio / (1.0 - ratio)  # bounds the terms past k
        if log_pmf + math.log(total) >= log_level:
            return False
        if log_pmf + math.log(total + rest) < log_level or rest < total * 1e-15:
            return True
    return True


def _frequency(claimed):
    """Summary of a 0/1 event whose frequency should equal claimed.  The
    row is violated iff the exact two-sided binomial tail of the hit count,
    2 min(P(X <= hits), P(X >= hits)) under Bin(trials, claimed), is below
    ALPHA; ci is the 4-sigma radius sqrt(c (1 - c) / trials) times CI_Z."""
    def summary(values, trials):
        hits = sum(values)
        ci = CI_Z * math.sqrt(claimed * (1.0 - claimed) / trials)
        violated = _binomial_tail_below(hits, trials, claimed, ALPHA / 2.0)
        return claimed, hits / trials, ci, VIOLATED if violated else CONSISTENT, {}
    return summary


def _informational_row(hits, trials, extra):
    """The frequency of an asymptotic claim's event and its Wilson radius,
    with no verdict."""
    return 1.0, hits / trials, wilson_radius(hits, trials), INFORMATIONAL, extra


def _informational(extra):
    """Summary of a 0/1 event of an asymptotic claim."""
    return lambda values, trials: _informational_row(sum(values), trials, extra)


def _mean_at_most(claimed, extra):
    """Summary of a per-graph count whose mean the claim bounds from above;
    the counts are ints, so n * sum(x^2) - sum(x)^2 is exact and never negative."""
    def summary(values, trials):
        total = squares = 0
        for x in values:
            total += x
            squares += x * x
        measured = total / trials
        ci = CI_Z * math.sqrt((trials * squares - total * total) / trials ** 3)
        return claimed, measured, ci, CONSISTENT if measured - claimed <= ci else VIOLATED, extra
    return summary


def _scan_cap(m, n, params):
    """The largest scan side a row's event enumerates; refuses min(m, n) over it."""
    cap = params.get("cap", mss.DEFAULT_CAP)
    mss._check_cap(min(m, n), cap)
    return cap


class CheckSpec(NamedTuple):
    """One named check.  The first three names in `needs` give the sample
    sides and p.  setup(m, n, prob, params) returns the per-graph event and
    the summary; summary(values, trials) folds the stream of the trials'
    values in one pass, keeping only its sufficient statistic (a hit count,
    a sum and a sum of squares, a Fraction sum, or the vacuous count and the
    violating graphs), and returns (claimed, measured, ci, verdict, extra).
    Events call mss.<fn> as they run, so a patched mss is what runs.  A
    setup whose event enumerates takes its cap from _scan_cap, after its
    closed forms.  hypothesis(m, n, prob, params) raises HypothesisViolation
    outside the claim's hypothesis, and ValueError on a bad parameter."""

    needs: tuple
    setup: Callable
    hypothesis: Optional[Callable] = None


def _mssproba(m, n, prob, params):
    ell, r = params["ell"], params["r"]
    fixed = mss.StableSet(left=(1 << ell) - 1, right=(1 << r) - 1)
    return (lambda g: mss.is_maximal_stable(g, fixed),
            _frequency(bounds.pr_maximal_stable(m, n, prob, ell, r)))


def _genupper(m, n, prob, params):
    ell_star, r_star = params["ell_star"], params["r_star"]
    claimed = bounds.genupper_bound(m, n, prob, ell_star, r_star)
    exact = bounds.expected_stab_at_least(m, n, prob, ell_star, r_star)
    cap = _scan_cap(m, n, params)
    return (lambda g: mss.stab_at_least_count(g, ell_star, r_star, cap),
            _mean_at_most(claimed, {"exact_expectation": exact}))


def _genupper_hypothesis(m, n, prob, params):
    # the geometric series behind genupper_bound needs n q^ell_star <= 1/2;
    # a direct power keeps exactly representable boundary cases like 2 * 0.25
    z = n * prob.q ** params["ell_star"]
    if z > 0.5:
        raise HypothesisViolation(f"n * q^ell_star = {z:.6g} > 1/2")


def _indmatchings(k, _, prob, params):
    def perfect_induced_matching(g):
        # the k x k block forms a perfect induced matching iff its adjacency is
        # a permutation matrix: one edge per row, and no two rows on one column
        seen = 0
        for row in g.adj:
            if row.bit_count() != 1 or row & seen:
                return False
            seen |= row
        return True

    return perfect_induced_matching, _frequency(bounds.induced_matching_prob(k, prob))


def _constrightside(m, n, prob, params):
    full = (1 << n) - 1
    return lambda g: full in g.adj, _frequency(bounds.dominating_vertex_prob(m, n, prob))


def _few_left_at_least(m, n, params, size, limit, **extra):
    """Setup result of an asymptotic check whose event is: at most `limit`
    maximal stable sets have a left part of at least `size`."""
    cap = _scan_cap(m, n, params)
    return (lambda g: mss.count_left_at_least(mss.left_hist(g, cap), size) <= limit,
            _informational({"count_limit": limit, **extra}))


def _largeleftupper(m, n, prob, params):
    r_star = bounds.regime_constants(prob).r_star
    return _few_left_at_least(m, n, params, Fraction(m, 3), float(n) ** r_star,
                              r_star=r_star)


def _largeleft_hypothesis(m, n, prob, params):
    log_m, fifth_root_n = bounds._large_left_sides(m, n, prob)
    if log_m < fifth_root_n:
        raise HypothesisViolation("needs m >= q^(-n^(1/5))")


def _squpperbound(m, n, prob, params):
    exponent = math.log(4.0) / prob.log_inv_q  # log_q(1/4) = log_{1/q}(4)
    return _few_left_at_least(m, n, params, Fraction(m, 2), 2.0 * float(n) ** exponent)


def _squpper_hypothesis(m, n, prob, params):
    alpha = params.get("alpha", DEFAULT_ALPHA)
    _check_alpha(alpha)
    if math.log(n) / prob.log_inv_q > bounds.regime_thresholds(m, alpha)["alpha*m"]:
        raise HypothesisViolation(f"needs n <= q^(-alpha m) with alpha={alpha}")


def _superpoly(m, n, prob, params):
    rp = RegimeParams.from_mnp(m, n, prob)
    expectation = bounds.expected_small_mss(m, n, prob, rp.a, rp.b)
    cap = _scan_cap(m, n, params)
    return (lambda g: mss.count_mss_with_sizes(g, rp.a, rp.b, cap) > 0.5 * expectation,
            _informational({"a": rp.a, "b": rp.b, "expectation": expectation}))


def _superpoly_hypothesis(m, n, prob, params):
    log_m, fifth_root_n = bounds._large_left_sides(m, n, prob)
    if log_m > fifth_root_n:
        raise HypothesisViolation("needs m <= q^(-n^(1/5))")
    if math.log(n) / prob.log_inv_q > bounds.regime_thresholds(m)["m^(1/5)"]:
        raise HypothesisViolation("needs n <= q^(-m^(1/5))")


def _with_a_prime(m, n, prob):
    """RegimeParams whose a' is defined; setups call it, so either mode refuses."""
    rp = RegimeParams.from_mnp(m, n, prob)
    if rp.a_prime is None:
        raise HypothesisViolation("n is below m^log_{1/q}(m); a' undefined")
    return rp


def _many_left_of_size(m, n, params, size, threshold, **extra):
    """Setup result of an asymptotic check whose event is: at least
    `threshold` maximal stable sets have a left part of exactly `size`."""
    cap = _scan_cap(m, n, params)
    return (lambda g: mss.left_hist(g, cap)[size] >= threshold,
            _informational({"a_prime": size, **extra, "count_threshold": threshold}))


def _hoeffding_exp(m, n, prob, params):
    rp = _with_a_prime(m, n, prob)
    threshold = bounds._small_mss_product(prob, m, rp.a_prime, rp.b)
    return _many_left_of_size(m, n, params, rp.a_prime, threshold, b=rp.b)


def _hoeffding_hypothesis(m, n, prob, params):
    log_m = math.log(m) / prob.log_inv_q
    if math.log(n) < 2.0 * log_m * math.log(m):
        raise HypothesisViolation("needs n >= m^(2 log_{1/q}(m))")
    if math.log(n) / prob.log_inv_q > m:
        raise HypothesisViolation("needs n <= q^(-m)")


def _asymptotic_lower(m, n, prob, params):
    rp = _with_a_prime(m, n, prob)
    phi = params["phi"]
    threshold = 2.0 ** ((1.0 - phi) * bounds.binary_entropy(min(rp.lam, 1.0)) * m)
    return _many_left_of_size(m, n, params, rp.a_prime, threshold, lam=rp.lam)


def _asymptotic_hypothesis(m, n, prob, params):
    x = math.log(n) / prob.log_inv_q
    t = bounds.regime_thresholds(m)
    if not t["m/16"] <= x <= t["m/2"]:
        raise HypothesisViolation("needs q^(-m/16) <= n <= q^(-m/2)")


def _veryverylargeside(m, n, prob, params):
    # a graph has at most one MSS per subset of its smaller side, so a total
    # of 2^m forces m <= n and makes every left subset a left part: the
    # average left part is then m/2 and needs no check of its own
    target, cap = 1 << m, _scan_cap(m, n, params)
    return (lambda g: sum(mss.left_hist(g, cap)) == target,
            _informational({"target_total": target}))


def _average(m, n, prob, params):
    threshold = (Fraction(1, 2) + mss._exact_delta(params["delta"])) * m
    cap = _scan_cap(m, n, params)

    def summary(averages, trials):
        total, hits = Fraction(0), 0
        for avg in averages:
            total += avg
            hits += avg <= threshold
        return _informational_row(hits, trials, {"mean_left_avg": total / trials, "hits": hits})

    return lambda g: mss.left_avg(g, cap), summary


def _conjecture(m, n, prob, params):
    delta, cap = mss._exact_delta(params["delta"]), _scan_cap(m, n, params)

    def event(g):
        verdict = mss.conjecture_check(g, delta, cap)
        # None if vacuous, True if satisfied, and a violating graph itself
        return None if verdict.vacuous else verdict.satisfied or g

    def summary(values, trials):
        vacuous, violations = 0, []
        for t, g in enumerate(values):
            if g is None:
                vacuous += 1
            elif g is not True:
                violations.append({"trial": t, "graph": g.to_json_dict(),
                                   "text": serialize_graph(g)})
        effective = trials - vacuous
        satisfied = effective - len(violations)
        return (1.0, satisfied / effective if effective else float("nan"),
                wilson_radius(satisfied, effective), VIOLATED if violations else INFORMATIONAL,
                {"vacuous": vacuous, "violations": violations})

    return event, summary


_MNP = ("m", "n", "p")
_CHECKS = {
    "mssproba": CheckSpec((*_MNP, "ell", "r"), _mssproba),
    "genupper": CheckSpec((*_MNP, "ell_star", "r_star"), _genupper, _genupper_hypothesis),
    "indmatchings": CheckSpec(("k", "k", "p"), _indmatchings),
    "superpoly.lower.bound": CheckSpec(_MNP, _superpoly, _superpoly_hypothesis),
    "lem.hoeffding.exp": CheckSpec(_MNP, _hoeffding_exp, _hoeffding_hypothesis),
    "asymptotic.lower.bound": CheckSpec((*_MNP, "phi"), _asymptotic_lower,
                                        _asymptotic_hypothesis),
    "veryverylargeside": CheckSpec(_MNP, _veryverylargeside),
    "constrightside": CheckSpec(_MNP, _constrightside),
    "largeleftupper": CheckSpec(_MNP, _largeleftupper, _largeleft_hypothesis),
    "squpperbound": CheckSpec(_MNP, _squpperbound, _squpper_hypothesis),
    "average": CheckSpec((*_MNP, "delta"), _average),
    "conjecture": CheckSpec((*_MNP, "delta"), _conjecture),
}


def known_lemmas():
    return sorted(_CHECKS)


def verify_lemma(lemma_id: str, params: dict, trials: int, seed: Seed,
                 strict: bool = True) -> BoundReport:
    """Measure one named claim by Monte Carlo and compare with its closed
    form.  In strict mode, parameters outside the claim's hypothesis raise
    HypothesisViolation; otherwise the run proceeds and the report is
    flagged outside_hypothesis with an informational verdict.  A missing
    parameter raises MissingParameter in either mode, before the hypothesis
    is looked at.  Any other refusal of a row, such as an alpha outside
    [1/16, 1/2), an undefined a', or a side min(m, n) over the cap
    params["cap"] (default mss.DEFAULT_CAP), comes in either mode before
    the first draw.  m and n go through operator.index, so the report holds ints."""
    if lemma_id not in _CHECKS:
        raise UnknownLemma(f"unknown check {lemma_id!r}; known: {', '.join(known_lemmas())}")
    spec = _CHECKS[lemma_id]
    _check_trials(trials)
    for name in spec.needs:
        if params.get(name) is None:
            raise MissingParameter(f"check needs parameter {name!r}")
    m, n, p = (params[name] for name in spec.needs[:3])
    m, n, prob = operator.index(m), operator.index(n), as_prob(p)
    outside = False
    if spec.hypothesis is not None:
        try:
            spec.hypothesis(m, n, prob, params)
        except HypothesisViolation:
            if strict:
                raise
            outside = True
    event, summary = spec.setup(m, n, prob, params)
    # read once per call: a wrapper put on verify.sample_bipartite before the
    # call (a tracer, say) draws every trial of it, one graph per trial.  The
    # summary folds the stream of per-trial values once, keeping no list.
    draw = sample_bipartite
    values = map(event, map(draw, repeat(m), repeat(n), repeat(prob), seed.children(trials)))
    claimed, measured, ci, verdict, extra = summary(values, trials)
    if outside:
        verdict, extra = INFORMATIONAL, {**extra, "outside_hypothesis": True}
    return BoundReport(
        lemma_id=lemma_id, m=m, n=n, p=prob.p, delta=float(params.get("delta", 0.0)),
        trials=trials, claimed=claimed, measured=measured, ci=ci, verdict=verdict,
        seed=seed.root, extra=extra,
    )


# the campaigns run by this name, so a wrapper put on verify.verify_lemma
# (a tracer, say) sees each of their trials once
_run_check = verify_lemma


# --- sweeps -----------------------------------------------------------------

def sweep(grid, trials: int, seed: Seed, workers: int = 1,
          alpha: float = DEFAULT_ALPHA, cap: int = mss.DEFAULT_CAP):
    """Run the averaging campaign once per (m, n, p, delta) grid point.

    Point i runs on sub-stream seed.child(i), so the table is identical for
    any worker count.  A point the campaign refuses (a degenerate p, over the
    cap, outside a hypothesis, invalid parameters) becomes a row with verdict
    `error` instead of aborting the sweep; any other exception propagates.
    A point's m and n go through operator.index before the point runs, so
    every row holds ints and a float side raises TypeError.  Then p is
    checked, so a degenerate point draws no graph.  A trial count
    below 1 or above 2^32, a worker count below 1 or an alpha outside
    [1/16, 1/2) refuses the whole sweep with ValueError before any point
    runs.  One loop runs the points: the calling thread and, for workers > 1,
    up to workers - 1 pool threads each take the next point in grid order.
    The pool is made, and `concurrent.futures` imported, on the first such
    sweep, then reused by every later sweep with the same worker count; a
    pool thread still busy with another sweep's points when this one ends is
    not waited for.  A forked child drops the pools it inherits and makes its
    own.  If a point raises, no thread starts another point, and the running
    ones finish before the error propagates.
    """
    _check_trials(trials)
    _check_alpha(alpha)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    def one(item):
        idx, (m, n, p, delta) = item
        m, n = operator.index(m), operator.index(n)
        try:
            prob = as_prob(p).require_interior()
            report = run_average_campaign(m, n, prob, delta, trials, seed.child(idx), cap=cap)
            regime = classify_regime(m, n, prob, alpha=alpha).value
            return replace(report, extra={**report.extra, "regime": regime})
        except (CapExceeded, HypothesisViolation, ValueError) as exc:
            return BoundReport(
                lemma_id="average", m=m, n=n, p=float(p), delta=float(delta),
                trials=trials, claimed=float("nan"), measured=float("nan"),
                ci=float("nan"), verdict=ERROR, seed=seed.root,
                extra={"error": f"{type(exc).__name__}: {exc}", "regime": ""},
            )

    items = list(enumerate(grid))
    reports, errors = [None] * len(items), []
    todo, lock = iter(items), threading.Lock()

    def run():
        while True:
            # take the next point, unless a point has raised
            with lock:
                item = None if errors else next(todo, None)
            if item is None:
                return
            try:
                reports[item[0]] = one(item)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    # a serial sweep asks no pool for helpers
    helpers = [_pool(workers - 1).submit(run) for _ in range(min(workers, len(items)) - 1)]
    run()
    # a helper still queued behind another sweep's work is dropped, and a
    # running one finishes its point
    for helper in helpers:
        helper.cancel() or helper.result()
    if errors:
        raise errors[0]
    return reports


@functools.lru_cache(maxsize=None)
def _pool(threads: int):
    """The helper threads of every sweep with threads + 1 workers, made on
    first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=threads)


# a forked child inherits the pools but none of their threads
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def reports_to_csv(reports, config: dict = None, with_regime: bool = False) -> str:
    lines = []
    if config is not None:
        lines.append("# config: " + json.dumps(config, sort_keys=True))
    header = CSV_HEADER + (",regime" if with_regime else "")
    lines.append(header)
    for rep in reports:
        lines.append(rep.csv_row(with_regime=with_regime))
    return "\n".join(lines) + "\n"


def reports_to_json(reports, config: dict = None) -> str:
    """Strict JSON: a non-finite float (an error row's claimed, measured and
    ci, say, or an echoed delta of inf) is written as null."""
    payload = {"reports": [rep.to_json_dict() for rep in reports]}
    if config is not None:
        payload = {"config": config, **payload}
    return json.dumps(_finite_or_null(payload), indent=2, sort_keys=False,
                      allow_nan=False) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(val) for val in value]
    return value
