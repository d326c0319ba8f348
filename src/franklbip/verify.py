"""Seeded Monte Carlo campaigns and sweeps.

Each campaign samples graphs from derived sub-streams, measures an event
frequency or an expectation with exact integer/rational reduction, and
confronts it with the matching closed form from `bounds`.  Asymptotic
claims (those that only hold beyond unspecified size thresholds) are
reported with verdict "informational": finite-size runs can measure them
but not refute them.  The enumeration cap is `mss`'s: a campaign refuses a
point whose smaller side exceeds it through `mss`'s check, before any draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import bounds, mss
# the regime classifier lives in bounds; verify.sweep calls it through
# this module's name, so a patched verify.classify_regime is what runs
from .bounds import (DEFAULT_ALPHA, HypothesisViolation, Regime,  # noqa: F401
                     RegimeParams, _check_alpha, classify_regime)
from .graphs import CapExceeded, Seed, as_prob, sample_bipartite, serialize_graph

CI_Z = 4.0  # every confidence radius is this many standard deviations wide
CONSISTENT = "consistent"
VIOLATED = "violated"
INFORMATIONAL = "informational"
MEAN_AT_MOST = "mean_at_most"
ERROR = "error"


class UnknownLemma(ValueError):
    """The requested check id is not in the registry."""


class MissingParameter(ValueError):
    """A registered check did not receive a parameter it needs."""


@dataclass(frozen=True)
class BoundReport:
    """One confrontation of a claimed bound with a measured frequency or
    mean.  verdict is `violated` only when the measurement contradicts the
    claim direction by more than the confidence radius."""

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
        cells = [
            self.lemma_id, str(self.m), str(self.n), repr(self.p),
            repr(self.delta), str(self.trials), repr(self.claimed),
            repr(self.measured), repr(self.ci), self.verdict, str(self.seed),
        ]
        if with_regime:
            cells.append(str(self.extra.get("regime", "")))
        return ",".join(cells)

    def to_json_dict(self) -> dict:
        out = {
            "lemma_id": self.lemma_id,
            "m": self.m,
            "n": self.n,
            "p": self.p,
            "delta": self.delta,
            "trials": self.trials,
            "claimed": self.claimed,
            "measured": self.measured,
            "ci": self.ci,
            "verdict": self.verdict,
            "seed": self.seed,
        }
        for key, val in self.extra.items():
            out[key] = str(val) if isinstance(val, Fraction) else val
        return out


CSV_HEADER = "lemma_id,m,n,p,delta,trials,claimed,measured,ci,verdict,seed"


def wilson_radius(successes: int, trials: int) -> float:
    """Half-width of the Wilson score interval; stays positive at 0 and 1."""
    if trials <= 0:
        return float("nan")
    phat = successes / trials
    z2 = CI_Z * CI_Z
    denom = 1.0 + z2 / trials
    rad = CI_Z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return rad / denom


def binomial_radius(claim: float, trials: int) -> float:
    """CI_Z-sigma radius of a binomial frequency around a known probability."""
    return CI_Z * math.sqrt(claim * (1.0 - claim) / trials)


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError("trials must be >= 1")


def run_average_campaign(m: int, n: int, prob, delta, trials: int, seed: Seed,
                         cap: int = mss.DEFAULT_CAP) -> BoundReport:
    """Frequency of left-avg(G) <= (1/2 + delta) m over seeded samples.

    The target probability is asymptotic, so the verdict is informational;
    the report carries the Wilson radius and the exact mean of the averages.
    cap is the largest scan side, min(m, n), the campaign enumerates.
    """
    _check_trials(trials)
    prob = as_prob(prob)
    mss._check_cap(min(m, n), cap)
    threshold = (Fraction(1, 2) + Fraction(delta)) * m
    hits = 0
    total_avg = Fraction(0)
    for t in range(trials):
        avg = mss.mss_stats(sample_bipartite(m, n, prob, seed.child(t)), cap).left_average()
        total_avg += avg
        if avg <= threshold:
            hits += 1
    return _report("average", m, n, prob, delta, trials, seed, 1.0, hits, INFORMATIONAL,
                   {"mean_left_avg": total_avg / trials, "hits": hits})


def run_conjecture_campaign(m: int, n: int, prob, delta, trials: int,
                            seed: Seed) -> BoundReport:
    """Frequency of the up-to-delta verdict among non-edgeless samples.

    Edgeless samples are counted separately as vacuous.  Any violating graph
    is serialized into the report: at desk sizes it would contradict known
    exhaustive results, so callers should treat a nonempty violation list as
    a fatal find rather than a statistic.
    """
    _check_trials(trials)
    prob = as_prob(prob)
    mss._check_cap(min(m, n))
    satisfied = 0
    vacuous = 0
    violations = []
    for t in range(trials):
        g = sample_bipartite(m, n, prob, seed.child(t))
        verdict = mss.conjecture_check(g, delta)
        if verdict.vacuous:
            vacuous += 1
        elif verdict.satisfied:
            satisfied += 1
        else:
            violations.append(
                {"trial": t, "graph": g.to_json_dict(), "text": serialize_graph(g)}
            )
    effective = trials - vacuous
    measured = satisfied / effective if effective else float("nan")
    return BoundReport(
        lemma_id="conjecture", m=m, n=n, p=prob.p, delta=float(delta), trials=trials,
        claimed=1.0, measured=measured,
        ci=wilson_radius(satisfied, effective) if effective else float("nan"),
        verdict=VIOLATED if violations else INFORMATIONAL, seed=seed.root,
        extra={"vacuous": vacuous, "violations": violations},
    )


def _report(lemma_id, m, n, prob, delta, trials, seed, claimed, total, verdict_mode,
            extra, squares=0):
    """Report of a per-graph value summed over the trials (and its squares,
    which only the MEAN_AT_MOST mode reads).  The other two modes read the
    value as a 0/1 event: CONSISTENT tests the frequency against the claimed
    probability, INFORMATIONAL gives the Wilson radius and no verdict."""
    measured = total / trials
    if verdict_mode == MEAN_AT_MOST:
        var = squares / trials - measured * measured
        ci = CI_Z * math.sqrt(max(var, 0.0) / trials)
        verdict = CONSISTENT if measured - claimed <= ci else VIOLATED
    elif verdict_mode == INFORMATIONAL:
        ci = wilson_radius(total, trials)
        verdict = INFORMATIONAL
    else:
        ci = binomial_radius(claimed, trials)
        verdict = CONSISTENT if abs(measured - claimed) <= ci else VIOLATED
    return BoundReport(
        lemma_id=lemma_id, m=m, n=n, p=prob.p, delta=float(delta), trials=trials,
        claimed=claimed, measured=measured, ci=ci, verdict=verdict,
        seed=seed.root, extra=extra,
    )


# --- registry of per-lemma Monte Carlo checks ------------------------------

class CheckSpec(NamedTuple):
    """One named check.  The first three names in `needs` give the sample
    sides and p.  setup(m, n, prob, params) returns the claimed value, the
    per-graph event and the report extras; events call mss.<fn> as they
    run, so a patched mss is what runs.  hypothesis(m, n, prob, params)
    raises HypothesisViolation outside the claim's hypothesis."""

    needs: tuple
    setup: Callable
    verdict_mode: str
    hypothesis: Optional[Callable] = None


def _mssproba(m, n, prob, params):
    ell, r = params["ell"], params["r"]
    fixed = mss.StableSet(left=(1 << ell) - 1, right=(1 << r) - 1)
    return (bounds.pr_maximal_stable(m, n, prob, ell, r),
            lambda g: mss.is_maximal_stable(g, fixed), {})


def _genupper(m, n, prob, params):
    ell_star, r_star = params["ell_star"], params["r_star"]
    claimed = bounds.genupper_bound(m, n, prob, ell_star, r_star)
    exact = bounds.expected_stab_at_least(m, n, prob, ell_star, r_star)
    return (claimed, lambda g: mss.stab_at_least_count(g, ell_star, r_star),
            {"exact_expectation": exact})


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

    return bounds.induced_matching_prob(k, prob), perfect_induced_matching, {}


def _constrightside(m, n, prob, params):
    full = (1 << n) - 1
    return (bounds.dominating_vertex_prob(m, n, prob), lambda g: full in g.adj, {})


def _few_left_at_least(size, limit, **extra):
    """Setup result of an asymptotic check whose event is: at most `limit`
    maximal stable sets have a left part of at least `size`."""
    return (1.0, lambda g: mss.count_left_at_least(mss.mss_stats(g), size) <= limit,
            {"count_limit": limit, **extra})


def _largeleftupper(m, n, prob, params):
    r_star = bounds.regime_constants(prob).r_star
    return _few_left_at_least(Fraction(m, 3), float(n) ** r_star, r_star=r_star)


def _largeleft_hypothesis(m, n, prob, params):
    if math.log(m) / prob.log_inv_q < float(n) ** 0.2:
        raise HypothesisViolation("needs m >= q^(-n^(1/5))")


def _squpperbound(m, n, prob, params):
    exponent = math.log(4.0) / prob.log_inv_q  # log_q(1/4) = log_{1/q}(4)
    return _few_left_at_least(Fraction(m, 2), 2.0 * float(n) ** exponent)


def _squpper_hypothesis(m, n, prob, params):
    alpha = params.get("alpha", DEFAULT_ALPHA)
    if math.log(n) / prob.log_inv_q > bounds.regime_thresholds(m, alpha)["alpha*m"]:
        raise HypothesisViolation(f"needs n <= q^(-alpha m) with alpha={alpha}")


def _superpoly(m, n, prob, params):
    rp = RegimeParams.from_mnp(m, n, prob)
    expectation = bounds.expected_small_mss(m, n, prob, rp.a, rp.b)
    return (1.0, lambda g: mss.count_mss_with_sizes(g, rp.a, rp.b) > 0.5 * expectation,
            {"a": rp.a, "b": rp.b, "expectation": expectation})


def _superpoly_hypothesis(m, n, prob, params):
    if math.log(m) / prob.log_inv_q > float(n) ** 0.2:
        raise HypothesisViolation("needs m <= q^(-n^(1/5))")
    if math.log(n) / prob.log_inv_q > bounds.regime_thresholds(m)["m^(1/5)"]:
        raise HypothesisViolation("needs n <= q^(-m^(1/5))")


def _with_a_prime(m, n, prob):
    """RegimeParams whose a' is defined; its absence refuses in any mode."""
    rp = RegimeParams.from_mnp(m, n, prob)
    if rp.a_prime is None:
        raise HypothesisViolation("n is below m^log_{1/q}(m); a' undefined")
    return rp


def _many_left_of_size(size, threshold, **extra):
    """Setup result of an asymptotic check whose event is: at least
    `threshold` maximal stable sets have a left part of exactly `size`."""
    return (1.0, lambda g: mss.mss_stats(g).left_hist[size] >= threshold,
            {"a_prime": size, **extra, "count_threshold": threshold})


def _hoeffding_exp(m, n, prob, params):
    rp = _with_a_prime(m, n, prob)
    c = bounds.regime_constants(prob).small_mss_c
    threshold = c * math.comb(m, rp.a_prime) * (float(rp.b) ** (-rp.b) if rp.b else 1.0)
    return _many_left_of_size(rp.a_prime, threshold, b=rp.b)


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
    return _many_left_of_size(rp.a_prime, threshold, lam=rp.lam)


def _asymptotic_hypothesis(m, n, prob, params):
    x = math.log(n) / prob.log_inv_q
    t = bounds.regime_thresholds(m)
    if not t["m/16"] <= x <= t["m/2"]:
        raise HypothesisViolation("needs q^(-m/16) <= n <= q^(-m/2)")
    _with_a_prime(m, n, prob)


def _veryverylargeside(m, n, prob, params):
    target = 1 << m

    def saturated(g):
        stats = mss.mss_stats(g)
        return stats.total == target and stats.left_average() == Fraction(m, 2)

    return 1.0, saturated, {"target_total": target}


_MNP = ("m", "n", "p")
_CHECKS = {
    "mssproba": CheckSpec((*_MNP, "ell", "r"), _mssproba, CONSISTENT),
    "genupper": CheckSpec((*_MNP, "ell_star", "r_star"), _genupper, MEAN_AT_MOST,
                          _genupper_hypothesis),
    "indmatchings": CheckSpec(("k", "k", "p"), _indmatchings, CONSISTENT),
    "superpoly.lower.bound": CheckSpec(_MNP, _superpoly, INFORMATIONAL, _superpoly_hypothesis),
    "lem.hoeffding.exp": CheckSpec(_MNP, _hoeffding_exp, INFORMATIONAL, _hoeffding_hypothesis),
    "asymptotic.lower.bound": CheckSpec((*_MNP, "phi"), _asymptotic_lower, INFORMATIONAL,
                                        _asymptotic_hypothesis),
    "veryverylargeside": CheckSpec(_MNP, _veryverylargeside, INFORMATIONAL),
    "constrightside": CheckSpec(_MNP, _constrightside, CONSISTENT),
    "largeleftupper": CheckSpec(_MNP, _largeleftupper, INFORMATIONAL, _largeleft_hypothesis),
    "squpperbound": CheckSpec(_MNP, _squpperbound, INFORMATIONAL, _squpper_hypothesis),
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
    is looked at.  lem.hoeffding.exp and asymptotic.lower.bound refuse an
    undefined a' in either mode, since their event needs it."""
    if lemma_id not in _CHECKS:
        raise UnknownLemma(f"unknown check {lemma_id!r}; known: {', '.join(known_lemmas())}")
    spec = _CHECKS[lemma_id]
    _check_trials(trials)
    for name in spec.needs:
        if params.get(name) is None:
            raise MissingParameter(f"check needs parameter {name!r}")
    m, n, p = (params[name] for name in spec.needs[:3])
    prob = as_prob(p)
    outside = False
    if spec.hypothesis is not None:
        try:
            spec.hypothesis(m, n, prob, params)
        except HypothesisViolation:
            if strict:
                raise
            outside = True
    claimed, event, extra = spec.setup(m, n, prob, params)
    total = squares = 0
    for t in range(trials):
        x = event(sample_bipartite(m, n, prob, seed.child(t)))
        total += x
        squares += x * x
    report = _report(lemma_id, m, n, prob, params.get("delta", 0.0), trials, seed,
                     claimed, total, spec.verdict_mode, extra, squares)
    if outside:
        report = replace(report, verdict=INFORMATIONAL,
                         extra={**report.extra, "outside_hypothesis": True})
    return report


# --- sweeps -----------------------------------------------------------------

def sweep(grid, trials: int, seed: Seed, workers: int = 1,
          alpha: float = DEFAULT_ALPHA, cap: int = mss.DEFAULT_CAP):
    """Run the averaging campaign once per (m, n, p, delta) grid point.

    Point i runs on sub-stream seed.child(i), so the table is identical for
    any worker count.  A point the campaign refuses (a degenerate p, over the
    cap, outside a hypothesis, invalid parameters) becomes a row with verdict
    `error` instead of aborting the sweep; any other exception propagates.
    p is checked first, so a degenerate point draws no graph.  A trial count
    below 1 or an alpha outside [1/16, 1/2) refuses the whole sweep before
    any point runs.  The thread pool is imported only for workers > 1.
    """
    _check_trials(trials)
    _check_alpha(alpha)

    def one(item):
        idx, (m, n, p, delta) = item
        try:
            as_prob(p).require_interior()
            report = run_average_campaign(m, n, p, delta, trials, seed.child(idx), cap=cap)
            regime = classify_regime(m, n, p, alpha=alpha).value
            return replace(report, extra={**report.extra, "regime": regime})
        except (CapExceeded, HypothesisViolation, ValueError) as exc:
            return BoundReport(
                lemma_id="average", m=m, n=n, p=float(p), delta=float(delta),
                trials=trials, claimed=float("nan"), measured=float("nan"),
                ci=float("nan"), verdict=ERROR, seed=seed.root,
                extra={"error": f"{type(exc).__name__}: {exc}", "regime": ""},
            )

    items = list(enumerate(grid))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, items))
    return [one(item) for item in items]


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
    payload = {"reports": [rep.to_json_dict() for rep in reports]}
    if config is not None:
        payload = {"config": config, **payload}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
