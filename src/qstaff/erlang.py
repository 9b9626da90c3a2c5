"""Erlang-C delay probabilities, their continuous extension, and QED-regime bounds.

This module is the numerical foundation for everything else in the package.
It evaluates, for an M/M/n queue with offered load lambda (service rate
normalized to 1):

* the classical Erlang-C probability that an arriving customer waits,
  alpha(n, lambda), for integer n;
* the Jagers-Van Doorn continuous extension alpha_bar(n, lambda), defined
  for real n through the integral

      alpha_bar(n, lambda) = [ lambda * int_0^inf t e^(-lambda t) (1+t)^(n-1) dt ]^(-1),

  which equals Jagerman's real-argument Erlang function (Jagerman 1974,
  Bell Syst. Tech. J. 53:525) and is evaluated in closed form through
  the regularized upper incomplete gamma function, without quadrature;
* the square-root staffing form alpha_tilde(beta, lambda) =
  alpha_bar(lambda + beta*sqrt(lambda), lambda);
* the Halfin-Whitt limit of alpha_tilde as lambda grows with beta fixed;
* explicit upper and lower bounds on alpha_bar in the style of Janssen,
  Van Leeuwaarden, and Zwart, which sandwich the exact value and converge
  to it uniformly in beta as lambda grows.

All functions are pure and safe for concurrent use. Scalar results are
cached on the (n, lambda) pair in bounded caches (2^13 continuous and
2^12 exact entries, a few hundred bytes each). The exact recursion's
state at floor(lambda), which every stable level of a rate walks
through, is a checkpoint cached per rate (2^12 entries of two numbers),
so the first exact value at a rate pays O(sqrt(lambda) + n - lambda)
steps and every later one, scalar or column, O(n - lambda). The solvers
evaluate one level against a station's whole rate vector, uncached and
with the scalar bits rate by rate: _wait_vector returns true waits, and
_no_wait_vector its own entries, at an integer level from
_exact_no_wait_column, the lattice tables' kernel. At a real level one
loop, _real_level, serves the scalar curve and both vectors: it forms
the level's terms once and makes one C call of Q per rate. Where the
delay exponent's lower bound (Q >= 1/e, _exponent_head) puts alpha
below 2^-54, so that 1 - alpha is exactly 1.0, the no-wait kernels write
1.0 without Q or, in a column starting above its rate's first stable
level, the rate's checkpoint.

The special functions are scipy's C routines called through
scipy.special.cython_special: the ufuncs' own code, bit for bit, without
the ufunc machinery (about 1 us) around each scalar call. That module
loads at the first call of any of them, not at import (about 0.25 s),
and the call binds the names erfcx, gammaincc and ndtr to the routines
themselves, so every later call reaches them directly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (DomainError, QuadratureError, UnstableSystemError, at_least, integer,
                     positive, real)

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

__all__ = [
    "BoundPair",
    "HWQuantities",
    "erlang_c_exact",
    "erlang_c_continuous",
    "erlang_c_sqrt",
    "halfin_whitt",
    "hw_quantities",
    "jvlz_bounds",
    "jvlz_bounds_at",
    "wait_curve",
    "wait_probability",
]

BOUND_CHOICES = ("exact", "upper", "lower", "hw")
# a delay exponent d >= SATURATED gives alpha = 1/(1 + e^d) < e^-38 < 2^-54,
# so 1 - alpha rounds to exactly 1.0
SATURATED = 38.0


def _stand_in(name):
    # scipy.special.cython_special.<name> until the first call of any stand-in,
    # which imports that module and binds each name still standing in to the
    # C routine itself, so that import qstaff leaves scipy unloaded
    def first_call(*args):
        from scipy.special import cython_special
        for key, stub in _STAND_INS.items():
            if globals()[key] is stub:
                globals()[key] = getattr(cython_special, key)
        return getattr(cython_special, name)(*args)
    return first_call


_STAND_INS = {name: _stand_in(name) for name in ("erfcx", "gammaincc", "ndtr")}
erfcx, gammaincc, ndtr = _STAND_INS.values()


@dataclass(frozen=True)
class HWQuantities:
    """Halfin-Whitt regime quantities for a staffing level n against load lambda.

    rho is the traffic intensity lambda/n, beta the square-root safety
    factor (n - lambda)/sqrt(lambda), gamma the same margin scaled by
    sqrt(n), and a = sqrt(-2n(1 - rho + ln rho)), the argument at which
    the normal distribution enters the sandwich bounds. a = 0 exactly
    when rho = 1.
    """

    rho: float
    beta: float
    gamma: float
    a: float


@dataclass(frozen=True)
class BoundPair:
    """Lower and upper bounds on a delay probability, lower <= upper."""

    lower: float
    upper: float


def erlang_c_exact(n, lam):
    """Erlang-C waiting probability P{all n servers busy} for integer n.

    Evaluated through the inverse Erlang-B recursion
    b_k = 1 + (k/lambda) * b_(k-1), after which
    alpha = 1 / (rho + (1-rho) * b_n) with rho = lambda/n. The recursion
    involves only positive terms, so it is stable and keeps full double
    precision where a factorial form would overflow near n = 170. It
    starts at b_k0 = 1, k0 = max(floor(lambda - 12 sqrt(lambda)), 0): the
    terms this drops weigh about e^(-72) of b_n, so the value is bit for
    bit the one from b_0 = 1. The first call at a rate runs it to
    floor(lambda) and keeps that state as the rate's checkpoint, in
    O(sqrt(lambda) + n - lambda) steps; later calls at the rate resume
    from the checkpoint, in O(n - lambda).

    Values below the double-precision underflow threshold (roughly
    1e-308, reached only for enormous safety margins) are returned as 0.0.
    """
    n = integer(n, "server count", 1)
    lam = positive(lam, "arrival rate")
    if lam >= n:
        raise UnstableSystemError(
            f"no stationary delay probability: lambda={lam:g} >= n={n}")
    return _erlang_c_exact_cached(n, lam)


@lru_cache(maxsize=1 << 12)
def _recursion_at_rate(lam):
    # (k, ib) with k = floor(lam) and ib = 1/B(k, lam), the last unstable
    # level: the prefix every stable level of lam walks, run once per rate
    # from erlang_c_exact's k0 (a start at lam - 9 sqrt(lam) already
    # changes bits); ib stays near sqrt(lam), far from overflow
    last = math.floor(lam)
    ib = 1.0
    for k in range(max(math.floor(lam - 12.0 * math.sqrt(lam)), 0) + 1, last + 1):
        ib = 1.0 + (k / lam) * ib
    return last, ib


@lru_cache(maxsize=1 << 12)
def _erlang_c_exact_cached(n, lam):
    # needs lam < n. Past double range ib stays inf and alpha flushes to
    # 0.0, so the recursion ends with the first 512-step block ending at inf
    k, ib = _recursion_at_rate(lam)     # ib after step k equals 1/B(k, lam)
    while k < n and ib < math.inf:
        for k in range(k + 1, min(k + 512, n) + 1):
            ib = 1.0 + (k / lam) * ib
    rho = lam / n
    return 1.0 / (rho + (1.0 - rho) * ib)


def _exact_no_wait_column(lam, lower, top=None):
    """No-wait probabilities 1 - alpha(k, lam) for k = lower, lower + 1, ...
    up to the first level whose entry stays 1.0 at every level above, or
    to top (lower <= top) if that comes first; 1 <= lower.

    One pass of the inverse Erlang-B recursion, resumed from the rate's
    checkpoint at floor(lam) as erlang_c_exact is, yields alpha at every
    stable k on the way. Each entry goes through exactly the
    floating-point operations of _erlang_c_exact_cached(k, lam), so it
    equals 1.0 - wait_probability(k, lam) bit for bit: 0.0 where lam >= k.
    Once (1 - rho) * ib reaches 2^60 the entry rounds to 1.0, and so does
    every later one, since both factors only grow with k above lam; the
    column ends with that entry. A column that starts above the rate's
    first stable level, where the delay exponent's floor already reaches
    SATURATED (_exponent_head), is [1.0], without the recursion, whose
    rounding, a few units in the last place per step, is far inside the
    factor e^0.57 between e^-38 and 2^-54 (see _no_wait_vector). Such a
    column may end below the level where the recursion's would; one that
    starts at or below its rate's first stable level ends where it does.
    A column whose top is at or below floor(lam) is all 0.0, and skips the
    recursion too.
    """
    last = math.floor(lam)              # every level up to last is unstable
    if lower > last + 1 and _exponent_head(
            lower, lam, 0.5 * math.log(2.0 * math.pi * lower), _stirlerr(lower),
            SATURATED) is None:
        return [1.0]
    first = max(lower, last + 1)
    if top is not None and top < first:
        return [0.0] * (top - lower + 1)
    last, ib = _recursion_at_rate(lam)
    out = [0.0] * (first - lower)
    for k in range(last + 1, first):
        ib = 1.0 + (k / lam) * ib
    for k in itertools.count(first) if top is None else range(first, top + 1):
        ib = 1.0 + (k / lam) * ib
        rho = lam / k
        tail = (1.0 - rho) * ib
        out.append(1.0 - 1.0 / (rho + tail))
        if tail >= 2.0 ** 60:
            break
    return out


def erlang_c_continuous(n, lam):
    """Continuous extension of Erlang C to real server counts n > lambda.

    Evaluated in closed form through the regularized upper incomplete
    gamma function Q (Jagerman's real-argument Erlang function):

        1/alpha_bar = 1 + (1 - rho) * R,  R = e^lambda Gamma(n+1) Q(n, lambda) / lambda^n,

    with rho = lambda/n. Every term is positive, so nothing cancels, and
    at integer n the formula is exactly Erlang C. R is formed in log space,

        ln R = a^2/2 + ln sqrt(2 pi n) + stirlerr(n) + ln Q(n, lambda),

    where a^2/2 = -n[(1-rho) + ln rho] is the Halfin-Whitt exponent and
    stirlerr(n) = ln Gamma(n+1) - (n ln n - n + ln sqrt(2 pi n)), so
    neither e^lambda nor lambda^n is ever formed and the value underflows
    cleanly to 0.0 for enormous margins. For n > lambda >= 0 and n >= 1, Q(n, lambda) lies
    between 1/e and 1; its double-precision accuracy bounds the result,
    about 1e-11 relative for lambda up to 1e6.
    """
    lam = positive(lam, "arrival rate")
    n = at_least(n, "server count", 1.0)
    if n <= lam:
        raise UnstableSystemError(
            f"no stationary delay probability: n={n:g} <= lambda={lam:g}")
    return _alpha_bar_cached(n, lam)


def _stirlerr(n):
    """ln Gamma(n+1) - (n ln n - n + ln sqrt(2 pi n)), the Stirling remainder.

    From n = 15 on, the asymptotic series 1/(12n) - 1/(360n^3) + ... to
    the n^-9 term is accurate to about 1e-16 absolute; below, the direct
    difference loses at most a few units in the last place of ln Gamma.
    """
    if n < 15.0:
        stirling = n * math.log(n) - n + 0.5 * math.log(2.0 * math.pi * n)
        return math.lgamma(n + 1.0) - stirling
    r = 1.0 / (n * n)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (
        1.0 / 1680.0 - r / 1188.0)))) / n


@lru_cache(maxsize=1 << 13)
def _alpha_bar_cached(n, lam):
    return _real_level(n, (lam,))[0]


def _exponent_head(n, lam, half_log, stirl, saturated):
    """(ln x, ln R - ln Q) at a level n >= 1 above lam, with x = 1 - rho,
    from half_log = ln sqrt(2 pi n) and stirl = stirlerr(n), both shared
    by every lam at level n; None where the delay exponent
    d = ln x + ln R is at least saturated even at Q = 1/e, Q's floor
    there, so that alpha = 1/(1 + e^d) is below 1/(1 + e^saturated).
    _exact_no_wait_column's shortcut calls it; _real_level forms the same
    terms inline, and the tests pin the two against each other."""
    x = (n - lam) / n  # 1 - rho without cancellation
    log_x = math.log(x)
    head = -n * _one_minus_rho_log_term(x, lam / n) + half_log + stirl  # ln R - ln Q
    return None if log_x + head - 1.0 >= saturated else (log_x, head)


def _real_level(n, rates, no_wait=False):
    """[1.0 if r >= n else erlang_c_continuous(n, r) for r in rates] at a
    real level n >= 1, bit for bit, for positive finite float rates (left
    unchecked); with no_wait, [1.0 - w for w in that list], except that an
    entry whose delay exponent's floor reaches SATURATED is 1.0 without Q.

    The one loop of the continuous curve: the level's ln sqrt(2 pi n) and
    stirlerr(n) are formed once, and each rate below n takes the
    floating-point operations of _exponent_head, _one_minus_rho_log_term
    and _inv_one_plus_exp, in their order, inline, with one C call of
    Q(n, r) unless the exponent's floor saturates.
    """
    half_log = 0.5 * math.log(2.0 * math.pi * n)
    stirl = _stirlerr(n)
    saturated = SATURATED if no_wait else math.inf
    q_of = gammaincc    # read here, so that the loader and a test's stand-in both apply
    log, log1p, exp, inf = math.log, math.log1p, math.exp, math.inf
    out = []
    for lam in rates:
        if lam >= n:
            out.append(0.0 if no_wait else 1.0)
            continue
        x = (n - lam) / n   # 1 - rho without cancellation, in (0, 1]
        log_x = log(x)
        if x < 1e-4:
            term = -x * x * (0.5 + x * (1.0 / 3.0 + x * (0.25 + x * 0.2)))
        elif x < 0.5:
            term = x + log1p(-x)
        else:
            rho = lam / n
            term = x + (log(rho) if rho > 0.0 else -inf)
        head = -n * term + half_log + stirl     # ln R - ln Q
        if log_x + head - 1.0 >= saturated:
            out.append(1.0 if no_wait else 0.0)
            continue
        q = q_of(n, lam)
        if not 0.0 < q < inf:
            raise QuadratureError(
                f"incomplete gamma Q(n, lambda) = {q!r} for n={n:g}, lambda={lam:g}",
                diagnostics={"q": q, "n": n, "lambda": lam})
        d = log_x + (head + log(q))
        if d >= 0.0:
            e = exp(-d)
            alpha = e / (1.0 + e)
        else:
            alpha = 1.0 / (1.0 + exp(d))
        out.append(1.0 - alpha if no_wait else alpha)
    return out


def erlang_c_sqrt(beta, lam):
    """Delay probability under square-root staffing n = lambda + beta*sqrt(lambda)."""
    lam = positive(lam, "arrival rate")
    beta = positive(beta, "safety factor")
    n = lam + beta * math.sqrt(lam)
    if n < 1.0:
        # only reachable for sub-unit loads with tiny beta
        raise DomainError(
            f"staffing n={n:g} below one server; increase beta or lambda")
    return _alpha_bar_cached(n, lam)


def halfin_whitt(beta):
    """Limit of erlang_c_sqrt(beta, lambda) as lambda -> infinity.

    Equals 1 / (1 + sqrt(2 pi) * beta * Phi(beta) * exp(beta^2/2)),
    evaluated as 1/(1 + e^d) with d = ln(sqrt(2 pi) beta Phi(beta)) + beta^2/2,
    which keeps the value finite for any beta instead of overflowing at
    beta around 38.
    """
    beta = positive(beta, "safety factor")
    return _inv_one_plus_exp(
        math.log(SQRT_2PI * beta * ndtr(beta)) + 0.5 * beta * beta)


def _inv_one_plus_exp(d):
    """1 / (1 + e^d), finite for every real d and flushing to 0.0 for large d."""
    if d >= 0.0:
        e = math.exp(-d)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(d))


def _one_minus_rho_log_term(x, rho):
    """(1-rho) + ln(rho) from x = 1-rho, formed without cancellation, and rho.

    The direct form cancels catastrophically for x near 0, the QED regime:
    below 1e-4 the series -x^2/2 - x^3/3 - x^4/4 - x^5/5 carries full
    double precision, and up to x = 1/2 x + log1p(-x) does. Above, 1 - x
    would lose the digits of the small rho that ln rho needs: x + ln rho.
    """
    if abs(x) < 1e-4:
        return -x * x * (0.5 + x * (1.0 / 3.0 + x * (0.25 + x * 0.2)))
    if x < 0.5:
        return x + math.log1p(-x)
    return x + (math.log(rho) if rho > 0.0 else -math.inf)


def hw_quantities(n, lam):
    """The scaled quantities (rho, beta, gamma, a) used by the sandwich bounds."""
    lam = positive(lam, "arrival rate")
    n = real(n, "server count")
    if not lam <= n < math.inf:
        raise DomainError(f"need n >= lambda > 0, got n={n!r}, lambda={lam:g}")
    rho = lam / n
    margin = n - lam
    beta = margin / math.sqrt(lam)
    gamma = margin / math.sqrt(n)
    # a = sqrt(-2n(1 - rho + ln rho)); 1-rho computed as margin/n, no cancellation
    v = -2.0 * n * _one_minus_rho_log_term(margin / n, rho)
    a = math.sqrt(max(v, 0.0))
    return HWQuantities(rho=rho, beta=beta, gamma=gamma, a=a)


def _mills_ratio(a):
    """Phi(a)/phi(a) for a >= 0 without forming the 0/0 tail ratio.

    Identity: Phi(a)/phi(a) = sqrt(2 pi) e^(a^2/2) - sqrt(pi/2) erfcx(a/sqrt(2)).
    Both terms are O(1) near a = 0 and the subtraction loses less than one
    digit; for large a the first term dominates and may round to inf,
    which downstream turns into a zero bound, the correct limit.
    """
    try:
        lead = SQRT_2PI * math.exp(0.5 * a * a)
    except OverflowError:
        return math.inf
    return lead - SQRT_PI_OVER_2 * erfcx(a / math.sqrt(2.0))


def jvlz_bounds_at(n, lam):
    """Sandwich bounds on erlang_c_continuous(n, lam) for real n > lambda, n >= 1.

    With q = hw_quantities(n, lam) and M = Phi(a)/phi(a):

        upper = [ rho + gamma * (M + 2/(3 sqrt(n))) ]^(-1)
        lower = [ rho + gamma * (M + 2/(3 sqrt(n))) + gamma/(phi(a)(12n - 1)) ]^(-1)

    The lower bound differs from the upper only by the extra denominator
    term, positive for n >= 1, so lower <= upper always holds in exact
    arithmetic.
    """
    lam = positive(lam, "arrival rate")
    n = at_least(n, "server count", 1.0)
    if n <= lam:
        raise UnstableSystemError(
            f"bounds require n > lambda, got n={n:g}, lambda={lam:g}")
    q = hw_quantities(n, lam)
    mills = _mills_ratio(q.a)
    den_upper = q.rho + q.gamma * (mills + 2.0 / (3.0 * math.sqrt(n)))
    upper = 1.0 / den_upper if math.isfinite(den_upper) else 0.0
    phi_a = math.exp(-0.5 * q.a * q.a) / SQRT_2PI
    if phi_a == 0.0:
        lower = 0.0
    else:
        den_lower = den_upper + q.gamma / (phi_a * (12.0 * n - 1.0))
        lower = 1.0 / den_lower if math.isfinite(den_lower) else 0.0
    return BoundPair(lower=lower, upper=upper)


def jvlz_bounds(beta, lam):
    """Sandwich bounds at the square-root staffing level lambda + beta*sqrt(lambda)."""
    lam = positive(lam, "arrival rate")
    beta = positive(beta, "safety factor")
    return jvlz_bounds_at(lam + beta * math.sqrt(lam), lam)


def wait_probability(n, lam, bound="exact"):
    """P{an arriving customer waits} at staffing n against load lam.

    Unlike the raw formulas this treats an unstable configuration
    (lam >= n) as certain waiting and returns 1.0, which is the right
    convention when scenario rates can exceed the staffing level. bound
    selects the exact value or one of the sandwich bounds as the curve.
    """
    lam = positive(lam, "arrival rate")
    n = at_least(n, "staffing level", 1.0)
    return _wait(n, lam, _bound_choice(bound))


def _bound_choice(bound):
    """bound if it is one of BOUND_CHOICES; DomainError otherwise."""
    if bound not in BOUND_CHOICES:
        raise DomainError(f"bound must be one of {BOUND_CHOICES}, got {bound!r}")
    return bound


def _level(n):
    """n as a checked float staffing level: n itself on the common path, a float
    1 <= n < inf; else float(max(n, 1)), clamped to one server, NaN and +inf raising."""
    if type(n) is float and 1.0 <= n < math.inf:
        return n
    return at_least(float(max(n, 1.0)), "staffing level", 1.0)


def _wait(n, lam, bound):
    """wait_probability(n, lam, bound) for a checked float level, rate and bound."""
    if lam >= n:
        return 1.0
    if bound == "exact":
        return (_erlang_c_exact_cached(int(n), lam) if n.is_integer()
                else _alpha_bar_cached(n, lam))
    if bound == "hw":
        return halfin_whitt((n - lam) / math.sqrt(lam))
    return getattr(jvlz_bounds_at(n, lam), bound)   # "upper" or "lower", a BoundPair field


def _wait_vector(n, rates, bound="exact"):
    """[1.0 if r >= n else wait_probability(max(n, 1), r, bound) for r in rates],
    bit for bit, for positive finite float rates (left unchecked). A
    non-integer level's exact entries come from _real_level, one C call of
    Q(n, r) each."""
    bound = _bound_choice(bound)
    level = _level(n)
    if bound != "exact" or level.is_integer():
        return [1.0 if r >= n else _wait(level, r, bound) for r in rates]
    return _real_level(level, rates)


def _no_wait_vector(n, rates):
    """[1.0 - w for w in _wait_vector(n, rates)], bit for bit, on the exact curve.

    An integer level k's entries are the lattice's, each the first of
    _exact_no_wait_column(r, k, k). For n > lambda and n >= 1,
    Q(n, lambda) >= Q(1, 1) = 1/e, so the delay exponent d = ln x + ln R
    is at least its value at Q = 1/e. Where that bound reaches SATURATED,
    alpha < 2^-54 and 1 - alpha is exactly 1.0, which a real level's entry
    is, without Q: on the benchmark's two-station compare instances, a
    third of the rates the joint solves evaluate.
    """
    level = _level(n)
    if level.is_integer():
        k = int(level)
        return [0.0 if r >= n else _exact_no_wait_column(r, k, k)[0] for r in rates]
    return _real_level(level, rates, no_wait=True)


def wait_curve(lam, bound="exact"):
    """Wait probability as a function of the safety factor beta.

    Returns beta -> wait_probability(max(lam + beta*sqrt(lam), 1), lam, bound):
    staffing below one server is clamped to one, and for lam >= 1 the
    curve falls strictly from 1 at beta = 0. Every solver that searches
    over beta builds its curve here. lam and bound are checked once, not
    at every point.
    """
    lam = positive(lam, "arrival rate")
    bound = _bound_choice(bound)
    root = math.sqrt(lam)
    return lambda beta: _wait(_level(lam + beta * root), lam, bound)
