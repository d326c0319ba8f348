"""Closed-form evaluation of the probability and expectation bounds that the
verifier confronts with Monte Carlo measurements, and the classification of
(m, n, p) into the regime bands of the proof.

Binomial coefficients are computed exactly and converted at the end; products
of powers switch to exp-of-log-sum evaluation as soon as any factor's log
magnitude passes LOG_SPACE_CUTOFF, since quantities like q**(m**3) appear in
the regime thresholds.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple, Optional

# DEFAULT_ALPHA is defined in graphs, so that cli reads it without this module
from .graphs import DEFAULT_ALPHA, EdgeProbability, HypothesisViolation, as_prob  # noqa: F401

LOG_SPACE_CUTOFF = 700.0
# the least int that float() refuses: halfway from the largest double to 2^1024
_FLOAT_INT_LIMIT = (1 << 1024) - (1 << 970)


def _pow_product(factors, prefactor=1.0) -> float:
    """prefactor * prod(base**exponent) with automatic log-space evaluation.

    factors is an iterable of (base, exponent) with base >= 0.  A zero base
    with positive exponent makes the product zero; zero exponents are
    dropped first, so base**0 is 1 even at base 0.
    """
    logs = []
    if prefactor == 0:
        return 0.0
    if prefactor != 1.0:
        logs.append(math.log(prefactor))
    cleaned = []
    for base, expo in factors:
        if expo == 0:
            continue
        if base == 0.0:
            return 0.0
        cleaned.append((base, expo))
        logs.append(expo * math.log(base))
    if any(abs(term) > LOG_SPACE_CUTOFF for term in logs):
        return math.exp(math.fsum(logs))
    out = float(prefactor)
    for base, expo in cleaned:
        out *= base ** expo
    return out


def chebyshev_bound(variance: float, lam: float) -> float:
    """Deviation bound sigma^2 / lambda^2, unclamped: above 1 it is vacuous."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    return variance / (lam * lam)


def pr_maximal_stable(m: int, n: int, prob, ell: int, r: int) -> float:
    """Probability that a fixed vertex set with ell left and r right vertices
    is a maximal stable set of a random graph:

        q^(ell*r) * (1 - q^r)^(m - ell) * (1 - q^ell)^(n - r)
    """
    prob = as_prob(prob).require_interior()
    if not 0 <= ell <= m or not 0 <= r <= n:
        raise ValueError(f"(ell, r)=({ell}, {r}) out of range for ({m}, {n})")
    return _maximal_product(m, n, prob, ell, r)


def _maximal_product(m: int, n: int, prob: EdgeProbability, ell: int, r: int,
                     prefactor=1.0) -> float:
    """prefactor * q^(ell*r) * (1 - q^r)^(m - ell) * (1 - q^ell)^(n - r); the
    caller checks the ranges."""
    lnq = math.log(prob.q)
    return _pow_product(
        [(prob.q, ell * r), (-math.expm1(r * lnq), m - ell), (-math.expm1(ell * lnq), n - r)],
        prefactor,
    )


def expected_stab_at_least(m: int, n: int, prob, ell_star: int, r_star: int) -> float:
    """Expected number of stable pairs with left part >= ell_star and right
    part >= r_star, as the exact double sum over binomials."""
    prob = as_prob(prob).require_interior()
    if not 0 <= ell_star <= m or not 0 <= r_star <= n:
        raise ValueError("thresholds out of range")
    lnq = math.log(prob.q)
    terms = []
    for ell in range(ell_star, m + 1):
        cm = math.comb(m, ell)
        for r in range(r_star, n + 1):
            terms.append(cm * math.comb(n, r) * math.exp(ell * r * lnq))
    return math.fsum(terms)


def stab_tail_table(m: int, n: int, prob):
    """T[ell_star][r_star] = expected_stab_at_least(m, n, p, ell_star, r_star)
    for every threshold pair, built by double suffix accumulation in O(m n).

    Equal to the per-pair sums up to float accumulation order; grid sweeps
    should use this instead of m*n separate calls.
    """
    prob = as_prob(prob).require_interior()
    lnq = math.log(prob.q)
    inner = []
    for ell in range(m + 1):
        row = [0.0] * (n + 2)
        for r in range(n, -1, -1):
            row[r] = row[r + 1] + math.comb(n, r) * math.exp(ell * r * lnq)
        inner.append(row)
    table = [[0.0] * (n + 1) for _ in range(m + 2)]
    for ell in range(m, -1, -1):
        cm = math.comb(m, ell)
        for r_star in range(n + 1):
            table[ell][r_star] = table[ell + 1][r_star] + cm * inner[ell][r_star]
    return table[: m + 1]


def genupper_bound(m: int, n: int, prob, ell_star: int, r_star: int) -> float:
    """Upper bound 2^(m+1) * (n q^ell_star)^r_star on the expectation above.

    The bound holds only under n * q^ell_star <= 1/2; this returns the raw
    formula value either way, and the `genupper` check in verify tests the
    hypothesis."""
    prob = as_prob(prob).require_interior()
    if not 0 <= ell_star <= m or not 0 <= r_star <= n:
        raise ValueError("thresholds out of range")
    return _pow_product([(2.0, m + 1), (n * prob.q ** ell_star, r_star)])


class RegimeConstants(NamedTuple):
    """Constants derived from the edge probability alone: the polynomial
    exponent r_star, the right-side size c_right below which the
    dominating-vertex argument takes over, and the small-set expectation
    constant exp(-(2/q + 1))."""

    r_star: int
    c_right: int
    small_mss_c: float


def regime_constants(prob) -> RegimeConstants:
    prob = as_prob(prob).require_interior()
    log_two = math.log(2.0) / prob.log_inv_q
    ceil3 = math.ceil(3.0 * log_two)
    return RegimeConstants(
        r_star=ceil3 + 1,
        c_right=max(20, (ceil3 + 2) ** 2),
        small_mss_c=math.exp(-(2.0 / prob.q + 1.0)),
    )


def regime_thresholds(m: int, alpha: float = DEFAULT_ALPHA) -> dict:
    """The values of log_{1/q}(n) at which the proof cases change, by name,
    in the order `franklbip regime` prints them.  alpha is not checked."""
    return {"m^(1/5)": float(m) ** 0.2, "m/16": m / 16.0, "alpha*m": alpha * m,
            "m/2": m / 2.0, "m^3": float(m) ** 3}


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


def classify_regime(m: int, n: int, prob, alpha: float = DEFAULT_ALPHA) -> Regime:
    """Total, deterministic classification; ties go to the earlier band in
    the precedence order ConstantRight, MatchingSaturated, GiganticRight,
    EntropyBand, HoeffdingBand, Balanced, LargeLeft.
    """
    prob = as_prob(prob).require_interior()
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    _check_alpha(alpha)
    consts = regime_constants(prob)
    if n <= consts.c_right:
        return Regime.CONSTANT_RIGHT
    x = math.log(n) / prob.log_inv_q
    t = regime_thresholds(m, alpha)
    if x >= t["m^3"]:
        return Regime.MATCHING_SATURATED
    if x >= t["alpha*m"]:
        return Regime.GIGANTIC_RIGHT
    if x >= t["m/16"]:
        return Regime.ENTROPY_BAND
    if x >= t["m^(1/5)"]:
        return Regime.HOEFFDING_BAND
    log_m, fifth_root_n = _large_left_sides(m, n, prob)
    if log_m <= fifth_root_n:
        return Regime.BALANCED
    return Regime.LARGE_LEFT


def _large_left_sides(m: int, n: int, prob) -> tuple:
    """(log_{1/q}(m), n^(1/5)); LargeLeft is where the first exceeds the second."""
    return math.log(m) / prob.log_inv_q, float(n) ** 0.2


def _check_alpha(alpha: float):
    if not 1.0 / 16.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [1/16, 1/2), got {alpha}")


class RegimeParams(NamedTuple):
    """(m, n, p) plus the derived logarithmic quantities every regime
    comparison uses.  a_prime is None when n < m^log_{1/q}(m), where the
    split of the right side into m^log_{1/q}(m) pieces is impossible."""

    m: int
    n: int
    prob: EdgeProbability
    log_n: float
    log_m: float
    a: int
    b: int
    a_prime: Optional[int]
    lam: float

    @classmethod
    def from_mnp(cls, m: int, n: int, prob) -> "RegimeParams":
        prob = as_prob(prob).require_interior()
        if m < 1 or n < 1:
            raise ValueError(f"need m, n >= 1, got ({m}, {n})")
        scale = prob.log_inv_q
        log_n = math.log(n) / scale
        log_m = math.log(m) / scale
        a = math.floor(log_n)
        b = math.floor(log_m)
        ln_k = log_m * math.log(m)  # ln of m^log_{1/q}(m)
        a_prime = None
        # int(n), not float(n): an n past the float range takes the log branch
        if ln_k <= LOG_SPACE_CUTOFF and int(n) < _FLOAT_INT_LIMIT:
            chunk = math.floor(n / math.exp(ln_k))
            if chunk >= 1:
                a_prime = math.floor(math.log(chunk) / scale)
        else:
            # astronomical split size: floor loses nothing at this scale
            approx = (math.log(n) - ln_k) / scale
            if approx >= 0:
                a_prime = math.floor(approx)
        return cls(m, n, prob, log_n, log_m, a, b, a_prime, log_n / m)


def exp_small_mss_lower(params: RegimeParams) -> float:
    """Asymptotic lower bound c * C(m, a) * b^(-b) on the expected number of
    maximal stable sets with left part a and right part b, where
    c = exp(-(2/q + 1)) and 0^0 = 1 when b is 0."""
    if params.log_n > params.m or params.log_m > params.n:
        raise HypothesisViolation(
            "need m >= log_{1/q}(n) and n >= log_{1/q}(m)"
        )
    return _small_mss_product(params.prob, params.m, params.a, params.b)


def _small_mss_product(prob: EdgeProbability, m: int, a: int, b: int) -> float:
    """c * C(m, a) * b^(-b) with c = exp(-(2/q + 1)) and 0^0 = 1, in floats
    in that order while C(m, a) converts to a float, else as exp of the log
    sum with log c = -(2/q + 1), since c alone may underflow to 0.  The
    callers check their own hypotheses."""
    c, comb = regime_constants(prob).small_mss_c, math.comb(m, a)
    try:
        return c * comb * float(b) ** -b
    except OverflowError:  # C(m, a) is past the float range
        return math.exp(-(2.0 / prob.q + 1.0) + math.log(comb) - (b * math.log(b) if b else 0.0))


def expected_small_mss(m: int, n: int, prob, a: int, b: int) -> float:
    """Exact expectation C(m,a) C(n,b) Pr[fixed (a,b)-set is maximal stable]."""
    prob = as_prob(prob).require_interior()
    if not 0 <= a <= m or not 0 <= b <= n:
        raise ValueError(f"(a, b)=({a}, {b}) out of range for ({m}, {n})")
    return _maximal_product(m, n, prob, a, b, math.comb(m, a) * math.comb(n, b))


def pair_expectation_B(m: int, n: int, prob, a: int, b: int, i: int, j: int) -> float:
    """Expected number of ordered pairs (S, T) of stable sets that both have
    a left and b right vertices, and share i left and j right vertices:

        C(m,i) C(m-i,a-i) C(m-a,a-i) C(n,j) C(n-j,b-j) C(n-b,b-j) q^(2ab-ij)
    """
    if not 0 <= i <= a:
        raise ValueError(f"need 0 <= i <= a, got i={i}, a={a}")
    if not 0 <= j <= b:
        raise ValueError(f"need 0 <= j <= b, got j={j}, b={b}")
    prob = as_prob(prob).require_interior()
    if a > m or b > n:
        raise ValueError(f"(a, b)=({a}, {b}) out of range for ({m}, {n})")
    pref = (
        math.comb(m, i) * math.comb(m - i, a - i) * math.comb(m - a, a - i)
        * math.comb(n, j) * math.comb(n - j, b - j) * math.comb(n - b, b - j)
    )
    return _pow_product([(prob.q, 2 * a * b - i * j)], prefactor=pref)


def binary_entropy(kappa: float) -> float:
    """H(kappa) = kappa log2(1/kappa) + (1-kappa) log2(1/(1-kappa)); the
    endpoints are 0 by continuity."""
    kappa = float(kappa)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    if kappa == 0.0 or kappa == 1.0:
        return 0.0
    return kappa * math.log2(1.0 / kappa) + (1.0 - kappa) * math.log2(1.0 / (1.0 - kappa))


def binom_entropy_lower(m: int, k: int) -> float:
    """Lower bound 2^(H(k/m) m) / (m+1) on the binomial coefficient C(m, k)."""
    if not 0 < k < m:
        raise ValueError(f"need 0 < k < m, got k={k}, m={m}")
    return _pow_product([(2.0, binary_entropy(k / m) * m)]) / (m + 1)


def binom_tail_upper(m: int, gamma) -> float:
    """Upper bound 2^(H(1-gamma) m) on the binomial tail from ceil(gamma m).

    Pass gamma as a Fraction when it sits on a multiple of 1/m; the exact
    companion binom_tail_exact uses the same convention.
    """
    gamma = float(gamma)
    if not 0.5 < gamma < 1.0:
        raise ValueError(f"need 1/2 < gamma < 1, got {gamma}")
    return _pow_product([(2.0, binary_entropy(1.0 - gamma) * m)])


def binom_tail_exact(m: int, gamma) -> int:
    """Exact tail sum of C(m, i) for i >= ceil(gamma m)."""
    g = Fraction(gamma)
    if not Fraction(1, 2) < g < 1:
        raise ValueError(f"need 1/2 < gamma < 1, got {gamma}")
    start = math.ceil(g * m)
    return sum(math.comb(m, i) for i in range(start, m + 1))


def induced_matching_prob(k: int, prob) -> float:
    """Probability that a fixed k x k block forms a perfect induced matching:
    k! p^k q^(k^2 - k)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    prob = as_prob(prob).require_interior()
    return _pow_product(
        [(prob.p, k), (prob.q, k * k - k)], prefactor=math.factorial(k)
    )


def dominating_vertex_prob(m: int, n: int, prob) -> float:
    """Exact probability 1 - (1 - p^n)^m that some left vertex is adjacent
    to the whole right side."""
    prob = as_prob(prob)
    if prob.p == 1.0:
        return 1.0
    if prob.p == 0.0:
        return 0.0
    log_pn = n * math.log(prob.p)
    # 1 - (1 - p^n)^m with expm1/log1p to survive tiny p^n
    one_minus_pn_log = math.log1p(-math.exp(log_pn)) if log_pn > -745 else 0.0
    return -math.expm1(m * one_minus_pn_log)
