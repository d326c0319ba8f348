"""Closed-form evaluation of the probability and expectation bounds that the
verifier confronts with Monte Carlo measurements, and the classification of
(m, n, p) into the regime bands of the proof.

Binomial coefficients are computed exactly and converted at the end; products
of powers switch to exp-of-log-sum evaluation as soon as any factor's log
magnitude passes LOG_SPACE_CUTOFF.
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
    part >= r_star, as the exact double sum over binomials; a binomial
    product c past the float range enters as exp(log(c) + ell r ln q)."""
    prob = as_prob(prob).require_interior()
    if not 0 <= ell_star <= m or not 0 <= r_star <= n:
        raise ValueError("thresholds out of range")
    lnq = math.log(prob.q)
    right = [math.comb(n, r) for r in range(r_star, n + 1)]
    terms = []
    for ell in range(ell_star, m + 1):
        cm = math.comb(m, ell)
        for r, cn in enumerate(right, r_star):
            c = cm * cn
            terms.append(c * math.exp(ell * r * lnq) if c < _FLOAT_INT_LIMIT
                         else math.exp(math.log(c) + ell * r * lnq))
    return math.fsum(terms)


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
    # x's relative error: _floor_log's bound, plus the gap between ln(1/q)
    # of the float p and of its shortest decimal, half an ulp of p apart
    slack = x * (2.0 ** -40 + 2.0 ** -50 * prob.p / (prob.q * prob.log_inv_q))
    t = regime_thresholds(m, alpha)
    if _log_reaches(n, prob, x, slack, t["m^3"]):
        return Regime.MATCHING_SATURATED
    if _log_reaches(n, prob, x, slack, t["alpha*m"]):
        return Regime.GIGANTIC_RIGHT
    if _log_reaches(n, prob, x, slack, t["m/16"]):
        return Regime.ENTROPY_BAND
    if _log_reaches(n, prob, x, slack, t["m^(1/5)"]):
        return Regime.HOEFFDING_BAND
    log_m, fifth_root_n = _large_left_sides(m, n, prob)
    if log_m <= fifth_root_n:
        return Regime.BALANCED
    return Regime.LARGE_LEFT


def _log_reaches(n: int, prob: EdgeProbability, x: float, slack: float, edge: float) -> bool:
    """Whether log_{1/q}(n) >= edge, where x is its float estimate, within
    slack of it.  Near an integer-valued edge, the exact floor decides, the
    one RegimeParams.from_mnp takes a from, so an n on an exact power of 1/q
    reaches that edge; elsewhere x does."""
    if abs(x - edge) > slack or not edge.is_integer():
        return x >= edge
    return _floor_log(n, *_exact_q(prob)) >= edge


def _large_left_sides(m: int, n: int, prob) -> tuple:
    """(log_{1/q}(m), n^(1/5)); LargeLeft is where the first exceeds the second.
    An n past the float range takes its fifth root from its log."""
    fifth_root_n = float(n) ** 0.2 if int(n) < _FLOAT_INT_LIMIT else math.exp(math.log(n) / 5)
    return math.log(m) / prob.log_inv_q, fifth_root_n


def _check_alpha(alpha: float):
    if not 1.0 / 16.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [1/16, 1/2), got {alpha}")


class RegimeParams(NamedTuple):
    """(m, n, p) plus the derived logarithmic quantities every regime
    comparison uses.  a, b and a_prime are floors of log_{1/q}, with p read
    as the shortest decimal of its float: a of n, b of m, and a_prime of
    floor(n / K), the size of each piece when the right side is split into K
    pieces.  They are exact at every size.  K stands for m^log_{1/q}(m) and
    is the dyadic rational 2^(log_{1/q}(m) * log2(m)), its exponent a float
    and the power exact.  a_prime is None when n < K, where no split is
    possible.  m and n are vertex counts: a whole float is read as its int."""

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
        if m < 1 or n < 1 or m % 1 or n % 1:
            raise ValueError(f"need whole m, n >= 1, got ({m}, {n})")
        m, n = int(m), int(n)
        # one q for every field: the logs divide by the ln(1/q) the floors use
        q, log_inv_q = _exact_q(prob)
        log_n = math.log(n) / log_inv_q
        log_m = math.log(m) / log_inv_q
        exponent = log_m * math.log2(m)
        whole = math.floor(exponent)
        # K >= 2^whole, so a K longer than n is not written out
        chunk = n // (Fraction(2.0 ** (exponent - whole)) * (1 << whole)) \
            if whole < n.bit_length() else 0
        a_prime = _floor_log(chunk, q, log_inv_q) if chunk >= 1 else None
        return cls(m, n, prob, log_n, log_m, _floor_log(n, q, log_inv_q),
                   _floor_log(m, q, log_inv_q), a_prime, log_n / m)


def _exact_q(prob: EdgeProbability) -> tuple:
    """(q, ln(1/q)) with p read as the shortest decimal of its float: q an
    exact Fraction, and ln(1/q) = log1p((1 - q) / q), which rounds one int
    division and one log1p, so its relative error is under 2^-50."""
    q = 1 - Fraction(repr(prob.p))
    return q, math.log1p((q.denominator - q.numerator) / q.numerator)


def _floor_log(chunk: int, q: Fraction, log_inv_q: float) -> int:
    """floor(log_{1/q}(chunk)) for an int chunk >= 1 and an exact q in
    (0, 1), where log_inv_q is ln(1/q) to a relative error under 2^-50.  The
    float estimate log(chunk) / log_inv_q is then within a relative 2^-40 of
    log_{1/q}(chunk); bisection from that interval, widened by one on each
    side, keeps chunk * q^lo >= 1 > chunk * q^hi."""
    estimate = math.log(chunk) / log_inv_q
    spread = estimate * 2.0 ** -40 + 1.0
    hi = math.floor(estimate + spread) + 1
    lo = max(math.floor(estimate - spread), 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _reaches(chunk, q, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _reaches(chunk: int, q: Fraction, a: int) -> bool:
    """Whether chunk * q^a >= 1, decided exactly.  The a-th powers of q's
    numerator and denominator are bracketed to `bits` bits, and bits doubles
    until the brackets decide, so they are written out in full only when a
    near tie needs every bit."""
    bits = 64
    while True:
        n_lo, n_hi, n_shift = _pow_bracket(q.numerator, a, bits)
        d_lo, d_hi, d_shift = _pow_bracket(q.denominator, a, bits)
        low = min(n_shift, d_shift)
        if chunk * n_lo << n_shift - low >= d_hi << d_shift - low:
            return True
        if chunk * n_hi << n_shift - low < d_lo << d_shift - low:
            return False
        bits *= 2


def _pow_bracket(base: int, a: int, bits: int) -> tuple:
    """(lo, hi, shift) with lo * 2^shift <= base^a <= hi * 2^shift, where lo
    and hi keep at most `bits` bits; both are base^a while it fits."""
    lo = hi = 1
    shift = 0
    for digit in bin(a)[2:]:
        lo, hi, shift = lo * lo, hi * hi, 2 * shift
        if digit == "1":
            lo, hi = lo * base, hi * base
        cut = max(hi.bit_length() - bits, 0)
        lo, hi, shift = lo >> cut, -(-hi >> cut), shift + cut
    return lo, hi, shift


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


def binary_entropy(kappa: float) -> float:
    """H(kappa) = kappa log2(1/kappa) + (1-kappa) log2(1/(1-kappa)); the
    endpoints are 0 by continuity."""
    kappa = float(kappa)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    if kappa == 0.0 or kappa == 1.0:
        return 0.0
    return kappa * math.log2(1.0 / kappa) + (1.0 - kappa) * math.log2(1.0 / (1.0 - kappa))


def induced_matching_prob(k: int, prob) -> float:
    """Probability that a fixed k x k block forms a perfect induced matching:
    k! p^k q^(k^2 - k).  k! is exact up to 170!, the largest factorial a float
    holds; past that its log is math.lgamma(k + 1)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    prob = as_prob(prob).require_interior()
    factors = [(prob.p, k), (prob.q, k * k - k)]
    if k <= 170:
        return _pow_product(factors, prefactor=math.factorial(k))
    return math.exp(math.fsum([math.lgamma(k + 1)] + [e * math.log(b) for b, e in factors]))


def dominating_vertex_prob(m: int, n: int, prob) -> float:
    """Exact probability 1 - (1 - p^n)^m that some left vertex is adjacent
    to the whole right side."""
    prob = as_prob(prob)
    if prob.p == 1.0:
        return 1.0
    if prob.p == 0.0:
        return 0.0
    # 1 - (1 - p^n)^m with expm1/log1p to survive tiny p^n
    return -math.expm1(m * math.log1p(-math.exp(n * math.log(prob.p))))
