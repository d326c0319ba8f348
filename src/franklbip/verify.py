"""Regime classification and seeded Monte Carlo campaigns.

Each campaign samples graphs from derived sub-streams, measures an event
frequency or an expectation with exact integer/rational reduction, and
confronts it with the matching closed form from `bounds`.  Asymptotic
claims (those that only hold beyond unspecified size thresholds) are
reported with verdict "informational": finite-size runs can measure them
but not refute them.
"""

from __future__ import annotations

import enum
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import bounds, mss
from .bounds import HypothesisViolation, RegimeParams
from .graphs import Seed, as_prob, sample_bipartite, serialize_graph
from .mss import CapExceeded

DEFAULT_ALPHA = 0.45
CAMPAIGN_SIDE_CAP = 28
CONSISTENT = "consistent"
VIOLATED = "violated"
INFORMATIONAL = "informational"
ERROR = "error"


class UnknownLemma(ValueError):
    """The requested check id is not in the registry."""


class MissingParameter(ValueError):
    """A registered check did not receive a parameter it needs."""


class Regime(enum.Enum):
    """Which proof-case band the pair (m, n) falls into for a given p, by
    where log_{1/q}(n) sits relative to m^(1/5), m/16, alpha*m and m^3."""

    CONSTANT_RIGHT = "ConstantRight"
    MATCHING_SATURATED = "MatchingSaturated"
    GIGANTIC_RIGHT = "GiganticRight"
    ENTROPY_BAND = "EntropyBand"
    HOEFFDING_BAND = "HoeffdingBand"
    BALANCED = "Balanced"
    LARGE_LEFT = "LargeLeft"


def classify_regime(m: int, n: int, prob, alpha: float = DEFAULT_ALPHA,
                    delta: float = None) -> Regime:
    """Total, deterministic classification; ties go to the earlier band in
    the precedence order ConstantRight, MatchingSaturated, GiganticRight,
    EntropyBand, HoeffdingBand, Balanced, LargeLeft.

    When alpha is None it is derived from delta as max(1/16, 1/2 - delta/4),
    the choice the gigantic-right argument makes internally.
    """
    prob = as_prob(prob).require_interior()
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    if alpha is None:
        alpha = max(1.0 / 16.0, 0.5 - (delta or 0.0) / 4.0)
    if not 1.0 / 16.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [1/16, 1/2), got {alpha}")
    consts = bounds.regime_constants(prob)
    if n <= consts.c_right:
        return Regime.CONSTANT_RIGHT
    x = math.log(n) / prob.log_inv_q
    if x >= float(m) ** 3:
        return Regime.MATCHING_SATURATED
    if x >= alpha * m:
        return Regime.GIGANTIC_RIGHT
    if x >= m / 16.0:
        return Regime.ENTROPY_BAND
    if x >= float(m) ** 0.2:
        return Regime.HOEFFDING_BAND
    if math.log(m) / prob.log_inv_q <= float(n) ** 0.2:
        return Regime.BALANCED
    return Regime.LARGE_LEFT


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


def wilson_radius(successes: int, trials: int, z: float = 4.0) -> float:
    """Half-width of the Wilson score interval; stays positive at 0 and 1."""
    if trials <= 0:
        return float("nan")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    rad = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return rad / denom


def binomial_radius(claim: float, trials: int, z: float = 4.0) -> float:
    """z-sigma radius of a binomial frequency around a known probability."""
    return z * math.sqrt(claim * (1.0 - claim) / trials)


def _sampled(m, n, prob, trials, seed):
    for t in range(trials):
        yield t, sample_bipartite(m, n, prob, seed.child(t))


def run_average_campaign(m: int, n: int, prob, delta, trials: int, seed: Seed,
                         cap: int = CAMPAIGN_SIDE_CAP, _stats_fn=None) -> BoundReport:
    """Frequency of left-avg(G) <= (1/2 + delta) m over seeded samples.

    The target probability is asymptotic, so the verdict is informational;
    the report carries the Wilson radius and the exact mean of the averages.
    """
    prob = as_prob(prob)
    if min(m, n) > cap:
        raise CapExceeded(f"min(m, n) = {min(m, n)} exceeds campaign cap {cap}")
    stats_fn = _stats_fn or mss.mss_stats
    threshold = (Fraction(1, 2) + Fraction(delta)) * m
    hits = 0
    total_avg = Fraction(0)
    for _, g in _sampled(m, n, prob, trials, seed):
        avg = stats_fn(g).left_average()
        total_avg += avg
        if avg <= threshold:
            hits += 1
    return BoundReport(
        lemma_id="average", m=m, n=n, p=prob.p, delta=float(delta), trials=trials,
        claimed=1.0, measured=hits / trials, ci=wilson_radius(hits, trials),
        verdict=INFORMATIONAL, seed=seed.root,
        extra={"mean_left_avg": total_avg / trials, "hits": hits},
    )


def run_conjecture_campaign(m: int, n: int, prob, delta, trials: int, seed: Seed,
                            cap: int = CAMPAIGN_SIDE_CAP, _check_fn=None) -> BoundReport:
    """Frequency of the up-to-delta verdict among non-edgeless samples.

    Edgeless samples are counted separately as vacuous.  Any violating graph
    is serialized into the report: at desk sizes it would contradict known
    exhaustive results, so callers should treat a nonempty violation list as
    a fatal find rather than a statistic.
    """
    prob = as_prob(prob)
    if min(m, n) > cap:
        raise CapExceeded(f"min(m, n) = {min(m, n)} exceeds campaign cap {cap}")
    check_fn = _check_fn or mss.conjecture_check
    satisfied = 0
    vacuous = 0
    violations = []
    for t, g in _sampled(m, n, prob, trials, seed):
        verdict = check_fn(g, delta)
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


# --- registry of per-lemma Monte Carlo checks ------------------------------

def _require(params: dict, *names):
    vals = []
    for name in names:
        if name not in params or params[name] is None:
            raise MissingParameter(f"check needs parameter {name!r}")
        vals.append(params[name])
    return vals


def _frequency_report(lemma_id, m, n, prob, delta, trials, seed, claimed, hits,
                      verdict_mode, extra=None):
    measured = hits / trials
    if verdict_mode == INFORMATIONAL:
        ci = wilson_radius(hits, trials)
        verdict = INFORMATIONAL
    else:
        ci = binomial_radius(claimed, trials)
        verdict = CONSISTENT if abs(measured - claimed) <= ci else VIOLATED
    return BoundReport(
        lemma_id=lemma_id, m=m, n=n, p=prob.p, delta=float(delta), trials=trials,
        claimed=claimed, measured=measured, ci=ci, verdict=verdict,
        seed=seed.root, extra=extra or {},
    )


def _run_mssproba(params, trials, seed):
    m, n, p, ell, r = _require(params, "m", "n", "p", "ell", "r")
    prob = as_prob(p)
    claimed = bounds.pr_maximal_stable(m, n, prob, ell, r)
    fixed = mss.StableSet(left=(1 << ell) - 1, right=(1 << r) - 1)
    hits = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        if mss.is_maximal_stable(g, fixed):
            hits += 1
    return _frequency_report("mssproba", m, n, prob, params.get("delta", 0.0),
                             trials, seed, claimed, hits, CONSISTENT)


def _run_genupper(params, trials, seed):
    m, n, p, ell_star, r_star = _require(params, "m", "n", "p", "ell_star", "r_star")
    prob = as_prob(p)
    # hypothesis enforcement happens in verify_lemma; report the raw formula
    claimed = bounds.genupper_bound(m, n, prob, ell_star, r_star, enforce=False)
    exact = bounds.expected_stab_at_least(m, n, prob, ell_star, r_star)
    count_sum = 0
    count_sq = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        c = mss.stab_at_least_count(g, ell_star, r_star)
        count_sum += c
        count_sq += c * c
    measured = count_sum / trials
    var = count_sq / trials - measured * measured
    ci = 4.0 * math.sqrt(max(var, 0.0) / trials)
    verdict = CONSISTENT if measured - claimed <= ci else VIOLATED
    return BoundReport(
        lemma_id="genupper", m=m, n=n, p=prob.p, delta=params.get("delta", 0.0),
        trials=trials, claimed=claimed, measured=measured, ci=ci, verdict=verdict,
        seed=seed.root, extra={"exact_expectation": exact},
    )


def _genupper_hypothesis(params):
    m, n, p, ell_star = _require(params, "m", "n", "p", "ell_star")
    z = n * as_prob(p).q ** ell_star
    if z > 0.5:
        raise HypothesisViolation(f"n * q^ell_star = {z:.6g} > 1/2")


def _run_indmatchings(params, trials, seed):
    # the k x k block forms a perfect induced matching iff its adjacency is a
    # permutation matrix: one edge per row and one per column
    k, p = _require(params, "k", "p")
    prob = as_prob(p)
    claimed = bounds.induced_matching_prob(k, prob)
    hits = 0
    for _, g in _sampled(k, k, prob, trials, seed):
        cols = [0] * k
        ok = True
        for u in range(k):
            row = g.adj[u]
            if row.bit_count() != 1:
                ok = False
                break
            cols[row.bit_length() - 1] |= 1 << u
        if ok and all(c.bit_count() == 1 for c in cols):
            hits += 1
    return _frequency_report("indmatchings", k, k, prob, params.get("delta", 0.0),
                             trials, seed, claimed, hits, CONSISTENT)


def _run_constrightside(params, trials, seed):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    claimed = bounds.dominating_vertex_prob(m, n, prob)
    full = (1 << n) - 1
    hits = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        if any(row == full for row in g.adj):
            hits += 1
    return _frequency_report("constrightside", m, n, prob, params.get("delta", 0.0),
                             trials, seed, claimed, hits, CONSISTENT)


def _run_largeleftupper(params, trials, seed):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    r_star = bounds.regime_constants(prob).r_star
    limit = float(n) ** r_star
    hits = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        stats = mss.mss_stats(g)
        if mss.count_left_at_least(stats, Fraction(m, 3)) <= limit:
            hits += 1
    return _frequency_report("largeleftupper", m, n, prob, params.get("delta", 0.0),
                             trials, seed, 1.0, hits, INFORMATIONAL,
                             extra={"count_limit": limit, "r_star": r_star})


def _largeleft_hypothesis(params):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    if math.log(m) / prob.log_inv_q < float(n) ** 0.2:
        raise HypothesisViolation("needs m >= q^(-n^(1/5))")


def _run_squpperbound(params, trials, seed):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    exponent = math.log(4.0) / prob.log_inv_q  # log_q(1/4) = log_{1/q}(4)
    limit = 2.0 * float(n) ** exponent
    hits = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        stats = mss.mss_stats(g)
        if mss.count_left_at_least(stats, Fraction(m, 2)) <= limit:
            hits += 1
    return _frequency_report("squpperbound", m, n, prob, params.get("delta", 0.0),
                             trials, seed, 1.0, hits, INFORMATIONAL,
                             extra={"count_limit": limit})


def _squpper_hypothesis(params):
    m, n, p = _require(params, "m", "n", "p")
    alpha = params.get("alpha", DEFAULT_ALPHA)
    prob = as_prob(p)
    if math.log(n) / prob.log_inv_q > alpha * m:
        raise HypothesisViolation(f"needs n <= q^(-alpha m) with alpha={alpha}")


def _run_superpoly(params, trials, seed):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    rp = RegimeParams.from_mnp(m, n, prob)
    expectation = bounds.expected_small_mss(m, n, prob, rp.a, rp.b)
    hits = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        if mss.count_mss_with_sizes(g, rp.a, rp.b) > 0.5 * expectation:
            hits += 1
    return _frequency_report("superpoly.lower.bound", m, n, prob,
                             params.get("delta", 0.0), trials, seed, 1.0, hits,
                             INFORMATIONAL,
                             extra={"a": rp.a, "b": rp.b, "expectation": expectation})


def _superpoly_hypothesis(params):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    if math.log(m) / prob.log_inv_q > float(n) ** 0.2:
        raise HypothesisViolation("needs m <= q^(-n^(1/5))")
    if math.log(n) / prob.log_inv_q > float(m) ** 0.2:
        raise HypothesisViolation("needs n <= q^(-m^(1/5))")


def _run_hoeffding_exp(params, trials, seed):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    rp = RegimeParams.from_mnp(m, n, prob)
    if rp.a_prime is None:
        raise HypothesisViolation("n is below m^log_{1/q}(m); a' undefined")
    c = bounds.regime_constants(prob).small_mss_c
    threshold = c * math.comb(m, rp.a_prime) * (float(rp.b) ** (-rp.b) if rp.b else 1.0)
    hits = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        stats = mss.mss_stats(g)
        if stats.left_hist[rp.a_prime] >= threshold:
            hits += 1
    return _frequency_report("lem.hoeffding.exp", m, n, prob,
                             params.get("delta", 0.0), trials, seed, 1.0, hits,
                             INFORMATIONAL,
                             extra={"a_prime": rp.a_prime, "b": rp.b,
                                    "count_threshold": threshold})


def _hoeffding_hypothesis(params):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    log_m = math.log(m) / prob.log_inv_q
    if math.log(n) < 2.0 * log_m * math.log(m):
        raise HypothesisViolation("needs n >= m^(2 log_{1/q}(m))")
    if math.log(n) / prob.log_inv_q > m:
        raise HypothesisViolation("needs n <= q^(-m)")


def _run_asymptotic_lower(params, trials, seed):
    m, n, p, phi = _require(params, "m", "n", "p", "phi")
    prob = as_prob(p)
    rp = RegimeParams.from_mnp(m, n, prob)
    if rp.a_prime is None:
        raise HypothesisViolation("n is below m^log_{1/q}(m); a' undefined")
    threshold = 2.0 ** ((1.0 - phi) * bounds.binary_entropy(min(rp.lam, 1.0)) * m)
    hits = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        stats = mss.mss_stats(g)
        if stats.left_hist[rp.a_prime] >= threshold:
            hits += 1
    return _frequency_report("asymptotic.lower.bound", m, n, prob,
                             params.get("delta", 0.0), trials, seed, 1.0, hits,
                             INFORMATIONAL,
                             extra={"a_prime": rp.a_prime, "lam": rp.lam,
                                    "count_threshold": threshold})


def _asymptotic_hypothesis(params):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    x = math.log(n) / prob.log_inv_q
    if not m / 16.0 <= x <= m / 2.0:
        raise HypothesisViolation("needs q^(-m/16) <= n <= q^(-m/2)")


def _run_veryverylargeside(params, trials, seed):
    m, n, p = _require(params, "m", "n", "p")
    prob = as_prob(p)
    target = 1 << m
    hits = 0
    for _, g in _sampled(m, n, prob, trials, seed):
        stats = mss.mss_stats(g)
        if stats.total == target and stats.left_average() == Fraction(m, 2):
            hits += 1
    return _frequency_report("veryverylargeside", m, n, prob,
                             params.get("delta", 0.0), trials, seed, 1.0, hits,
                             INFORMATIONAL, extra={"target_total": target})


_REGISTRY = {
    "mssproba": (_run_mssproba, None),
    "genupper": (_run_genupper, _genupper_hypothesis),
    "indmatchings": (_run_indmatchings, None),
    "superpoly.lower.bound": (_run_superpoly, _superpoly_hypothesis),
    "lem.hoeffding.exp": (_run_hoeffding_exp, _hoeffding_hypothesis),
    "asymptotic.lower.bound": (_run_asymptotic_lower, _asymptotic_hypothesis),
    "veryverylargeside": (_run_veryverylargeside, None),
    "constrightside": (_run_constrightside, None),
    "largeleftupper": (_run_largeleftupper, _largeleft_hypothesis),
    "squpperbound": (_run_squpperbound, _squpper_hypothesis),
}


def known_lemmas():
    return sorted(_REGISTRY)


def verify_lemma(lemma_id: str, params: dict, trials: int, seed: Seed,
                 strict: bool = True) -> BoundReport:
    """Measure one named claim by Monte Carlo and compare with its closed
    form.  In strict mode, parameters outside the claim's hypothesis raise
    HypothesisViolation; otherwise the run proceeds and the report is
    flagged outside_hypothesis with an informational verdict."""
    if lemma_id not in _REGISTRY:
        raise UnknownLemma(f"unknown check {lemma_id!r}; known: {', '.join(known_lemmas())}")
    runner, hypothesis = _REGISTRY[lemma_id]
    outside = False
    if hypothesis is not None:
        try:
            hypothesis(params)
        except HypothesisViolation:
            if strict:
                raise
            outside = True
    report = runner(params, trials, seed)
    if outside:
        extra = dict(report.extra)
        extra["outside_hypothesis"] = True
        report = BoundReport(
            lemma_id=report.lemma_id, m=report.m, n=report.n, p=report.p,
            delta=report.delta, trials=report.trials, claimed=report.claimed,
            measured=report.measured, ci=report.ci, verdict=INFORMATIONAL,
            seed=report.seed, extra=extra,
        )
    return report


# --- sweeps -----------------------------------------------------------------

def sweep(grid, trials: int, seed: Seed, workers: int = 1,
          alpha: float = DEFAULT_ALPHA, cap: int = CAMPAIGN_SIDE_CAP):
    """Run the averaging campaign once per (m, n, p, delta) grid point.

    Point i runs on sub-stream seed.child-composed from i, so the table is
    identical for any worker count.  A point the campaign refuses (over the
    cap, outside a hypothesis, invalid parameters) becomes a row with verdict
    `error` instead of aborting the sweep; any other exception propagates.
    """
    points = list(grid)

    def one(item):
        idx, (m, n, p, delta) = item
        point_seed = Seed(seed.root, (seed.stream << 32) | idx)
        try:
            report = run_average_campaign(m, n, p, delta, trials, point_seed, cap=cap)
            regime = classify_regime(m, n, p, alpha=alpha).value
            extra = dict(report.extra)
            extra["regime"] = regime
            return BoundReport(
                lemma_id=report.lemma_id, m=report.m, n=report.n, p=report.p,
                delta=report.delta, trials=report.trials, claimed=report.claimed,
                measured=report.measured, ci=report.ci, verdict=report.verdict,
                seed=seed.root, extra=extra,
            )
        except (CapExceeded, HypothesisViolation, ValueError) as exc:
            return BoundReport(
                lemma_id="average", m=m, n=n, p=float(p), delta=float(delta),
                trials=trials, claimed=float("nan"), measured=float("nan"),
                ci=float("nan"), verdict=ERROR, seed=seed.root,
                extra={"error": f"{type(exc).__name__}: {exc}", "regime": ""},
            )

    items = list(enumerate(points))
    if workers > 1:
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
