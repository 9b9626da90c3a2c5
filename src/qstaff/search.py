"""Scalar search primitives: bracketing bisection and golden-section descent.

Every constraint curve in this package is monotone in beta and every
1-D objective slice is continuous, so bisection and golden-section
(seeded by a coarse grid) are all that is needed. Bisection's answer is
easy to reason about when a solver misbehaves, so bisect_decreasing
keeps it to the last bit and only spends fewer curve evaluations on it:
Illinois steps narrow the bracket, and the bisection midpoints the
narrowed bracket already decides are never evaluated. A caller solving a
run of nearby problems, as a descent does for its dependent safety
factor, passes the last root as a guess; one probe there bounds the
crossing from one side before the first midpoint, and the answer stays
the same. Every call, with a guess or without, makes at most _SLACK
curve evaluations more than plain bisection.

Every solver searches beta in one box, defined only here: [0, BETA_HI],
the upper end doubling up to BETA_CAP, in bisect_decreasing until the
curve falls below the target and in grid_then_golden (which runs every
weighted solve and every coordinate-descent slice) while the minimizer
sits on that edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BETA_HI = 8.0
BETA_CAP = 64.0

_LO = 1e-8        # bisection's lower end; beta = 0 saturates some curves
_XTOL = 1e-10
_RTOL = 1e-9      # bisection residual counted as converged
_MAX_ITER = 200
_N_GRID = 33
_SLACK = 4        # calls bisect_decreasing may make beyond those repaid
_LOG_TINY = math.log(math.ulp(0.0))
_EDGE = 1e-6      # a minimizer this close to the upper end sits on the edge


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    evaluations: int
    converged: bool


def bisect_decreasing(fn, target, guess=None):
    """Solve fn(x) = target for a non-increasing fn on [_LO, BETA_CAP].

    The upper bracket starts at BETA_HI and doubles until fn drops to the
    target. If fn(_LO) is already at or below target the root is
    effectively at the lower edge and _LO is returned.

    The result (root, residual, converged) is exactly plain bisection's:
    the same midpoints 0.5*(lo + hi) from the same bracket down to _XTOL,
    each sent the same way, whatever the guess. Only the evaluation count
    differs. Every evaluated point a with fn(a) > target and b with
    fn(b) <= target bounds the crossing, so a midpoint at or below a is
    above target and one at or above b is not, without a call; the same
    holds for fn(_LO) and each doubled upper end, except that fn(_LO) is
    evaluated whenever no known point above _LO lies above target, since
    the early return reports its value.

    A guess in (_LO, BETA_CAP), say the root of a neighbouring problem,
    seeds a or b before any of that: fn is evaluated there once. A guess
    outside (_LO, BETA_CAP), or None, seeds nothing.

    Before a midpoint inside (a, b) is evaluated, Illinois steps (regula
    falsi on log fn, halving the weight of an end kept twice running)
    narrow (a, b). Every call plain bisection would not make (the probe,
    Illinois) is charged against the calls it does make that are skipped,
    with an allowance of _SLACK, and an Illinois step is taken only while
    the balance is positive. So no fn, with a guess or without, takes more
    than _SLACK calls beyond plain bisection. A wait-curve root takes about
    13 calls instead of 40, and a dependent root seeded by the previous one
    about 8.
    """
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return fn(x)

    # (a, fa), (b, fb): the tightest evaluated points with fn(a) > target
    # >= fn(b); a = 0.0 and b = inf stand for none yet
    a, fa, b, fb = 0.0, None, math.inf, None
    credit = _SLACK     # calls skipped + _SLACK - calls plain bisection would not make
    if guess is not None and _LO < guess < BETA_CAP:
        credit -= 1
        fx = f(guess)
        if fx > target:
            a, fa = guess, fx
        else:
            b, fb = guess, fx
    lo, hi = _LO, BETA_HI
    if a > lo:
        credit += 1
    else:
        flo = f(lo)
        if flo <= target:
            return RootResult(lo, flo - target, evals, True)
        a, fa = lo, flo
    while hi < b:
        if hi <= a:
            credit += 1
        else:
            fhi = f(hi)
            if fhi <= target:
                b, fb = hi, fhi
                break
            a, fa = hi, fhi
        hi *= 2.0
        if hi > BETA_CAP:
            raise BracketError(
                f"no root below x={BETA_CAP:g}: fn({BETA_CAP:g}) still above target {target:g}")
    else:
        credit += 1     # fn(b) <= target decides this fn(hi)
    gap = _gap_scale(target)
    ga, gb = gap(fa), gap(fb)
    kept = None         # the end the last Illinois step left in place
    for _ in range(_MAX_ITER):
        if hi - lo <= _XTOL:
            break
        mid = 0.5 * (lo + hi)
        while credit > 0 and a < mid < b and ga > gb:
            x = b - gb * (b - a) / (gb - ga)
            if not a < x < b:
                break
            credit -= 1
            fx = f(x)
            if fx > target:
                a, ga = x, gap(fx)
                if kept == "b":
                    gb *= 0.5
                kept = "b"
            else:
                b, gb = x, gap(fx)
                if kept == "a":
                    ga *= 0.5
                kept = "a"
        if mid <= a:
            lo, credit = mid, credit + 1
        elif mid >= b:
            hi, credit = mid, credit + 1
        else:
            fmid = f(mid)
            kept = None
            if fmid > target:
                lo = a = mid
                ga = gap(fmid)
            else:
                hi = b = mid
                gb = gap(fmid)
    root = 0.5 * (lo + hi)
    residual = f(root) - target
    return RootResult(root, residual, evals, abs(residual) <= _RTOL)


def _gap_scale(target):
    """How far a value of fn sits above the target, on the scale Illinois
    steps draw their chords in: log fn - log target for a positive target
    (the wait curves fall through many decades, which a chord in log fn
    follows far better than one in fn; a value at or below 0, say an
    underflow, counts as the least positive float), fn - target
    otherwise."""
    if target <= 0.0:
        return lambda v: v - target
    log_target = math.log(target)
    return lambda v: (math.log(v) if v > 0.0 else _LOG_TINY) - log_target


def golden_section_min(fn, lo, hi):
    """Minimize fn on [lo, hi] by golden-section search.

    Returns (x, fn(x), evaluations). Assumes fn is unimodal on the
    interval; use grid_then_golden when that is not known in advance.
    """
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    for _ in range(_MAX_ITER):
        if b - a <= _XTOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
        evals += 1
    if fc < fd:
        return c, fc, evals
    return d, fd, evals


def grid_then_golden(fn):
    """Coarse grid scan followed by golden-section between the bracketing
    neighbors of the best grid point. Robust when unimodality is only
    approximate; the grid pins the basin, golden refines it.

    The search starts on [0, BETA_HI]; while the minimizer lies within
    _EDGE of the upper end, that end doubles (up to BETA_CAP) and the
    search reruns on the wider interval. Returns (x, fn(x), evaluations
    summed over every interval, at_cap), at_cap being true when the
    minimizer still sits on the edge of [0, BETA_CAP].
    """
    hi, evals = BETA_HI, 0
    while True:
        x, fx, e = _grid_then_golden_once(fn, hi)
        evals += e
        at_edge = x >= hi - _EDGE
        if not at_edge or hi >= BETA_CAP:
            return x, fx, evals, at_edge
        hi = min(2.0 * hi, BETA_CAP)


def _grid_then_golden_once(fn, hi):
    step = hi / (_N_GRID - 1)
    best_x, best_f, best_i = 0.0, math.inf, 0
    evals = 0
    for i in range(_N_GRID):
        x = i * step
        fx = fn(x)
        evals += 1
        if fx < best_f:
            best_x, best_f, best_i = x, fx, i
    a = max(best_i - 1, 0) * step
    b = min(best_i + 1, _N_GRID - 1) * step
    x, fx, e = golden_section_min(fn, a, b)
    evals += e
    if fx <= best_f:
        return x, fx, evals
    return best_x, best_f, evals
