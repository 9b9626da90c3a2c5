"""Scalar search primitives: bracketing bisection and golden-section descent.

Both are deliberately simple. Every constraint curve in this package is
strictly monotone in beta and every 1-D objective slice is continuous, so
bisection and golden-section (seeded by a coarse grid) are all that is
needed, and they are easy to reason about when a solver misbehaves.

Both brackets grow the same way: bisect_decreasing doubles its upper end
until the curve falls below the target, and grid_then_golden doubles its
upper end, up to a cap, while the minimizer sits on that edge. Every
weighted solve and every coordinate-descent slice in the package runs
through grid_then_golden, so the doubling rule lives only here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    evaluations: int
    converged: bool


def bisect_decreasing(fn, target, lo=1e-8, hi=8.0, hi_cap=64.0,
                      xtol=1e-10, rtol=1e-9, max_iter=200):
    """Solve fn(x) = target for a strictly decreasing fn on [lo, hi_cap].

    The upper bracket doubles until fn drops below the target. If fn(lo)
    is already at or below target the root is effectively at the lower
    edge and lo is returned.
    """
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return fn(x)

    flo = f(lo)
    if flo <= target:
        return RootResult(lo, flo - target, evals, True)
    fhi = f(hi)
    while fhi > target:
        hi *= 2.0
        if hi > hi_cap:
            raise BracketError(
                f"no root below x={hi_cap:g}: fn({hi_cap:g}) still above target {target:g}")
        fhi = f(hi)
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    residual = f(root) - target
    return RootResult(root, residual, evals, abs(residual) <= rtol)


def golden_section_min(fn, lo, hi, xtol=1e-10, max_iter=400):
    """Minimize fn on [lo, hi] by golden-section search.

    Returns (x, fn(x), evaluations). Assumes fn is unimodal on the
    interval; use grid_then_golden when that is not known in advance.
    """
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    for _ in range(max_iter):
        if b - a <= xtol:
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


def grid_then_golden(fn, lo, hi, cap, n_grid=33, xtol=1e-10):
    """Coarse grid scan followed by golden-section between the bracketing
    neighbors of the best grid point. Robust when unimodality is only
    approximate; the grid pins the basin, golden refines it.

    While the minimizer lies within 1e-6 of hi, hi doubles (up to cap)
    and the search reruns on the wider interval; cap = hi never widens.
    Returns (x, fn(x), evaluations summed over every interval).
    """
    evals = 0
    while True:
        x, fx, e = _grid_then_golden_once(fn, lo, hi, n_grid, xtol)
        evals += e
        if x < hi - 1e-6 or hi >= cap:
            return x, fx, evals
        hi = min(2.0 * hi, cap)


def _grid_then_golden_once(fn, lo, hi, n_grid, xtol):
    if hi <= lo:
        return lo, fn(lo), 1
    step = (hi - lo) / (n_grid - 1)
    best_x, best_f, best_i = lo, math.inf, 0
    evals = 0
    for i in range(n_grid):
        x = lo + i * step
        fx = fn(x)
        evals += 1
        if fx < best_f:
            best_x, best_f, best_i = x, fx, i
    a = lo + max(best_i - 1, 0) * step
    b = lo + min(best_i + 1, n_grid - 1) * step
    x, fx, e = golden_section_min(fn, a, b, xtol=xtol)
    evals += e
    if fx <= best_f:
        return x, fx, evals
    return best_x, best_f, evals
