"""Scalar search primitives: bracketing bisection and Brent's minimizer.

Every constraint curve in this package is monotone in beta and every
1-D objective slice is continuous, so bisection and Brent's minimizer
(on a bracket from a coarse grid, or from a walk out of a warm start)
are all that is needed. Bisection's answer is
easy to reason about when a solver misbehaves, so bisect_decreasing
keeps it to the last bit and only spends fewer curve evaluations on it:
Illinois steps narrow the bracket, and the bisection midpoints the
narrowed bracket already decides are never evaluated. A caller solving a
run of nearby problems, as a descent does for its dependent safety
factor, passes the last root as a guess; one probe there bounds the
crossing from one side before the first midpoint, and the answer stays
the same. Every call, with a guess or without, makes at most _SLACK
curve evaluations more than plain bisection.

A slice is minimized only as finely as it is known: in a keyed descent
each of its values comes from a dependent root found to _XTOL, so a
smooth slice pins its minimizer to about 1e-5 however long the search
runs. brent_min, which grid_then_golden runs on its bracket, takes
parabolic steps where the slice is smooth and stops at a relative
tolerance of half sqrt(machine epsilon), or at an absolute xtol a caller
gives it: SLICE_XTOL, which a keyed descent with one free station asks
for, ends a search about 15 calls after its bracket. The 33-point grid
is most of a cold search; a warm one, started where the minimizer is
expected, brackets it by walking out from there in a few calls.

Every solver searches beta in one box, defined only here: [0, BETA_HI],
the upper end doubling up to BETA_CAP, in bisect_decreasing until the
curve falls below the target and in grid_then_golden's grid (which runs
every weighted solve and every cold coordinate-descent slice) while the
minimizer sits on that edge; a warm walk ranges over [0, BETA_CAP].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError

BETA_HI = 8.0
BETA_CAP = 64.0

_LO = 1e-8        # bisection's lower end; beta = 0 saturates some curves
_XTOL = 1e-10
_RTOL = 1e-9      # bisection residual counted as converged
_MAX_ITER = 200
_N_GRID = 33
_GRID_STEP = BETA_HI / (_N_GRID - 1)    # the first step of a walk or a climb
_SLACK = 4        # calls bisect_decreasing may make beyond those repaid
_LOG_TINY = math.log(math.ulp(0.0))
_EDGE = 1e-6      # a minimizer this close to the upper end sits on the edge
# brent_min's absolute tolerance for a slice whose values are dependent
# roots found to _XTOL; its 2*tol stays below _EDGE
SLICE_XTOL = 4e-7
_XREL = 2.0 ** -27    # Brent's relative tolerance, half sqrt(machine epsilon)
_GOLD = (3.0 - math.sqrt(5.0)) / 2.0    # Brent's golden-section step


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


def brent_min(fn, lo, hi, xtol=None):
    """Minimize fn on (lo, hi) by Brent's method (Brent 1973, Algorithms
    for Minimization without Derivatives, ch. 5).

    Returns (x, fn(x), evaluations). Each step fits a parabola through
    the three best points so far and takes its vertex when that lies
    inside the bracket and moves less than half the step before last;
    otherwise it takes a golden-section step into the larger side. The
    search stops once the bracket around x is within 2*tol of it, tol
    being xtol if given, else _XREL*|x| + _XTOL/4, so for a unimodal fn
    |x - x*| <= 2*tol. fn is evaluated only strictly inside (lo, hi).
    """
    a, b = lo, hi
    x = w = v = a + _GOLD * (b - a)
    fx = fw = fv = fn(x)
    evals = 1
    d = e = 0.0     # the last step, and the one before it
    for _ in range(_MAX_ITER):
        m = 0.5 * (a + b)
        tol = _XREL * abs(x) + 0.25 * _XTOL if xtol is None else xtol
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(e) > tol:
            # the vertex of the parabola through v, w and x is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            u = x + d
            if u - a < 2.0 * tol or b - u < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = _GOLD * e
        u = x + (d if abs(d) >= tol else (tol if d > 0.0 else -tol))
        fu = fn(u)
        evals += 1
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, evals


def grid_then_golden(fn, start=None, xtol=None):
    """Minimize fn on [0, BETA_CAP]: bracket a minimum, then brent_min on
    the bracket (to xtol, if given), whose answer wins unless the best
    bracketing point is lower. Robust when unimodality is only
    approximate; the bracket pins the basin, Brent refines it. The name
    dates from golden-section refinement and is kept for its callers
    (perfbench's tracer wraps joint.grid_then_golden and reads its
    evaluation count).

    Cold, with no start, a coarse grid of _N_GRID points on [0, BETA_HI]
    brackets the minimum between the neighbours of its best point; while
    the minimizer lies within _EDGE of the upper end, that end doubles (up
    to BETA_CAP) and the search reruns on the wider interval. Brent's 2*tol
    at BETA_CAP is below _EDGE, so a minimizer on the edge is still seen
    there.

    Warm, from a start in [0, BETA_CAP], the bracket comes from _walk
    instead, usually in three evaluations (the start and its neighbours)
    where the grid takes 33. Where fn(start) is +inf, as a keyed slice is
    below some beta, _climb first finds a finite point to walk from. A
    start outside the box is not probed; a NaN at the start, or no finite
    point up to BETA_CAP, falls back to the grid after those probes.

    Returns (x, fn(x), evaluations summed over the probes and every
    interval, at_cap), at_cap being true when the minimizer sits within
    _EDGE of BETA_CAP.
    """
    evals = 0
    if start is not None and 0.0 <= start <= BETA_CAP:
        start, fs, evals = _climb(fn, start)
        if math.isfinite(fs):
            x, fx, e = _refine(fn, *_walk(fn, start, fs), xtol)
            return x, fx, evals + e, x >= BETA_CAP - _EDGE
    hi = BETA_HI
    while True:
        x, fx, e = _refine(fn, *_grid(fn, hi), xtol)
        evals += e
        at_edge = x >= hi - _EDGE
        if not at_edge or hi >= BETA_CAP:
            return x, fx, evals, at_edge
        hi = min(2.0 * hi, BETA_CAP)


def _climb(fn, x):
    """(x, fn(x), evaluations) for a warm start x, moved off a prefix of
    beta where fn is +inf.

    From such a start, x steps upward (the grid spacing, doubling) to the
    first point where fn is finite. That point can lie far past the
    prefix's end, and past a basin there, so the gap from the last
    infinite point is then bisected down to one grid spacing, and x moves
    to the lowest finite point seen. A start where fn is not +inf is
    returned as it is, as is BETA_CAP when fn is +inf all the way up.
    """
    fx = fn(x)
    evals = 1
    below, step = x, _GRID_STEP     # below: the last point where fn is +inf
    while fx == math.inf and x < BETA_CAP:
        below, x = x, min(x + step, BETA_CAP)
        step *= 2.0
        fx = fn(x)
        evals += 1
    hi = x
    while math.isfinite(fx) and hi - below > _GRID_STEP:
        mid = 0.5 * (below + hi)
        fm = fn(mid)
        evals += 1
        if fm == math.inf:
            below = mid
        else:
            hi = mid
            if fm < fx:
                x, fx = mid, fm
    return x, fx, evals


def _walk(fn, x, fx):
    """Bracket a minimum of fn around x, where fn(x) = fx is finite, by
    walking downhill (much as Numerical Recipes' mnbrak does).

    The first step is the grid spacing; the neighbour above x is probed
    first, the one below only when the one above is not lower. The walk
    goes on toward a lower neighbour, each step twice the last, until the
    value stops falling or the walk reaches 0 or BETA_CAP. Returns
    (a, b, best_x, best_f, evaluations): best_x is the lowest point
    walked, and lies in [a, b] with fn no higher there than at either end.
    """
    step = _GRID_STEP
    evals = 0
    for direction in (1.0, -1.0):
        u = min(max(x + direction * step, 0.0), BETA_CAP)
        if u == x:
            continue
        fu = fn(u)
        evals += 1
        if fu < fx:
            break
    else:
        return max(x - step, 0.0), min(x + step, BETA_CAP), x, fx, evals
    prev, x, fx = x, u, fu
    while 0.0 < x < BETA_CAP:
        step *= 2.0
        u = min(max(x + direction * step, 0.0), BETA_CAP)
        fu = fn(u)
        evals += 1
        if fu >= fx:
            break
        prev, x, fx = x, u, fu
    return min(prev, u), max(prev, u), x, fx, evals


def _grid(fn, hi):
    # the neighbours of the best of _N_GRID points on [0, hi], as _walk returns
    step = hi / (_N_GRID - 1)
    best_x, best_f, best_i = 0.0, math.inf, 0
    for i in range(_N_GRID):
        x = i * step
        fx = fn(x)
        if fx < best_f:
            best_x, best_f, best_i = x, fx, i
    a = max(best_i - 1, 0) * step
    b = min(best_i + 1, _N_GRID - 1) * step
    return a, b, best_x, best_f, _N_GRID


def _refine(fn, a, b, best_x, best_f, evals, xtol):
    # brent_min on (a, b) to xtol, whose answer wins unless best_x is
    # lower; the evaluations add to the bracket's
    x, fx, e = brent_min(fn, a, b, xtol)
    if fx <= best_f:
        return x, fx, evals + e
    return best_x, best_f, evals + e
