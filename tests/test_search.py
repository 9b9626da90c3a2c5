"""Tests for bisect_decreasing: the answers of plain bisection, fewer calls;
and for Brent's minimizer under grid_then_golden, cold from its grid and
warm from a walk out of a start.

Every bisection test compares against plain_bisection below, the bracket
doubling and bisection loop bisect_decreasing must reproduce: the same
root, residual and converged flag, bit for bit, on any non-increasing
function and with any guess. The minimizer tests hold Brent's answer to
twice its stopping tolerance of a known minimizer.
"""
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from qstaff.erlang import BOUND_CHOICES, wait_curve
from qstaff.errors import BracketError
from qstaff.search import (
    _EDGE,
    _LO,
    _MAX_ITER,
    _N_GRID,
    _RTOL,
    _SLACK,
    _XREL,
    _XTOL,
    BETA_CAP,
    BETA_HI,
    SLICE_XTOL,
    RootResult,
    bisect_decreasing,
    brent_min,
    grid_then_golden,
)

from .test_joint import S64, instance

FIRST_MIDPOINT = 0.5 * (_LO + BETA_HI)
# guesses below _LO, at and around the bracket ends, and above BETA_CAP,
# which seed nothing
GUESSES = [0.0, _LO, 1e-6, 0.3, 2.9, BETA_HI, 13.0, BETA_CAP - 1e-3,
           BETA_CAP, 2 * BETA_CAP]


def plain_bisection(fn, target):
    """Reference: evaluate fn at every bisection midpoint."""
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return fn(x)

    lo, hi = _LO, BETA_HI
    flo = f(lo)
    if flo <= target:
        return RootResult(lo, flo - target, evals, True)
    fhi = f(hi)
    while fhi > target:
        hi *= 2.0
        if hi > BETA_CAP:
            raise BracketError(
                f"no root below x={BETA_CAP:g}: fn({BETA_CAP:g}) still above target {target:g}")
        fhi = f(hi)
    for _ in range(_MAX_ITER):
        if hi - lo <= _XTOL:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    residual = f(root) - target
    return RootResult(root, residual, evals, abs(residual) <= _RTOL)


def bits(result):
    return result.root.hex(), result.residual.hex(), result.converged


def assert_same_answer(fn, target, extra=_SLACK, guess=None):
    """bisect_decreasing answers as plain bisection does, with the guess
    and without one, in at most `extra` calls more than plain bisection
    either way; a guess outside (_LO, BETA_CAP) seeds nothing, so it
    changes nothing. Returns the result with the guess and plain
    bisection's."""
    reference = plain_bisection(fn, target)
    unguided = bisect_decreasing(fn, target)
    assert bits(unguided) == bits(reference)
    assert unguided.evaluations <= reference.evaluations + extra
    if guess is None:
        return unguided, reference
    guided = bisect_decreasing(fn, target, guess)
    if not _LO < guess < BETA_CAP:
        assert guided == unguided
        return guided, reference
    assert bits(guided) == bits(reference)
    assert guided.evaluations <= reference.evaluations + extra
    return guided, reference


def guesses():
    """None, or anything in (0, 2 * BETA_CAP), a hair off the bracket ends
    included."""
    return st.one_of(st.none(), st.floats(0.0, 2 * BETA_CAP),
                     st.sampled_from(GUESSES))


def step(at, high=1.0, low=0.0):
    return lambda x: high if x < at else low


def plateau(start, width=2.0, level=0.5):
    # falls to `level`, stays there for `width`, then falls on
    return lambda x: level + max(start - x, 0.0) - max(x - start - width, 0.0)


def staircase(rate):
    return lambda x: math.exp(-math.floor(rate * x))


def knee(floor_gap):
    # flattens out just below the target 0.05, like a joint wait whose
    # other stations keep most of the wait
    return lambda x: 0.05 - floor_gap + 0.1 * math.exp(-3.0 * x)


ADVERSARIAL = [
    *[(f"step@{c!r}", step(c), 0.5)
      for c in (0.3, 1.0, 2.9, 7.5, 13.0, 40.0,
                2e-8, BETA_HI - 1e-9, BETA_HI + 1e-9, BETA_CAP - 1e-9)],
    *[(f"step-positive@{c:g}", step(c, low=0.01), 0.5) for c in (0.3, 2.9, 13.0)],
    *[(f"cliff@{c:g}", step(c, low=1e-300), 0.5) for c in (1.7, 21.0)],
    *[(f"plateau@{c:g}", plateau(c), 0.5) for c in (0.2, 3.3, 9.0)],
    *[(f"staircase/{k:g}", staircase(k), t)
      for k, t in ((0.7, 0.01), (3.0, 1e-6), (9.0, 0.3))],
    *[(f"knee/{d:g}", knee(d), 0.05) for d in (1e-6, 2e-4, 1e-2)],
]


@pytest.mark.parametrize("name, fn, target", ADVERSARIAL,
                         ids=[case[0] for case in ADVERSARIAL])
def test_adversarial_functions_cost_at_most_four_extra_calls(name, fn, target):
    assert_same_answer(fn, target, extra=4)


@pytest.mark.parametrize("name, fn, target", ADVERSARIAL,
                         ids=[case[0] for case in ADVERSARIAL])
@settings(max_examples=60, deadline=None)
@given(guess=guesses())
def test_adversarial_functions_with_any_guess(name, fn, target, guess):
    assert_same_answer(fn, target, extra=4, guess=guess)


@settings(max_examples=150, deadline=None)
@given(log_lam=st.floats(math.log(0.5), math.log(1e5)),
       bound=st.sampled_from(BOUND_CHOICES),
       log_target=st.floats(math.log(1e-12), math.log(0.99)),
       guess=guesses())
def test_matches_plain_bisection_on_wait_curves(log_lam, bound, log_target, guess):
    curve, target = wait_curve(math.exp(log_lam), bound), math.exp(log_target)
    try:
        plain_bisection(curve, target)
    except BracketError as exc:
        with pytest.raises(BracketError, match=re.escape(str(exc))):
            bisect_decreasing(curve, target, guess)
        return
    assert_same_answer(curve, target, guess=guess)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.tuples(st.floats(0.0, 70.0), st.floats(0.0, 5.0)),
                      min_size=1, max_size=12),
       target=st.floats(-1.0, 10.0),
       guess=guesses())
def test_matches_plain_bisection_on_random_staircases(steps, target, guess):
    # non-increasing: fn(x) is the total drop still ahead of x
    def fn(x):
        return sum(drop for at, drop in steps if x < at)

    try:
        plain_bisection(fn, target)
    except BracketError:
        with pytest.raises(BracketError):
            bisect_decreasing(fn, target, guess)
        return
    assert_same_answer(fn, target, guess=guess)


def near_a_probe():
    """Step positions at, or a hair off, a point plain bisection probes:
    the bracket ends and the dyadic midpoints of [_LO, BETA_HI]."""
    dyadic = st.builds(lambda k, j: _LO + (BETA_HI - _LO) * j / 2.0 ** k,
                       st.integers(1, 34), st.integers(1, 2 ** 34 - 1))
    ends = st.sampled_from([_LO, BETA_HI, 2 * BETA_HI, 4 * BETA_HI, BETA_CAP])
    offset = st.sampled_from([0.0, 1e-13, -1e-13, 3e-11, -3e-11, 1e-9, -1e-9])
    return st.builds(lambda x, d: x + d, st.one_of(dyadic, ends), offset)


@settings(max_examples=300, deadline=None)
@given(at=st.one_of(st.floats(0.0, 70.0), near_a_probe()),
       low=st.sampled_from([0.0, 1e-300, 0.01, 0.3]),
       guess=guesses())
def test_matches_plain_bisection_on_steps_near_probes(at, low, guess):
    fn = step(at, low=low)
    try:
        plain_bisection(fn, 0.5)
    except BracketError:
        with pytest.raises(BracketError):
            bisect_decreasing(fn, 0.5, guess)
        return
    assert_same_answer(fn, 0.5, extra=4, guess=guess)


def test_root_exactly_at_a_bisection_midpoint():
    assert_same_answer(lambda x: FIRST_MIDPOINT - x, 0.0)
    assert_same_answer(step(FIRST_MIDPOINT), 0.5)


def test_root_exactly_at_the_first_chord_point():
    # a line meets its chord at its root, so the first Illinois step
    # evaluates fn exactly at the target
    seen = []

    def fn(x):
        seen.append(x)
        return 3.0 - x

    assert_same_answer(fn, 0.0)
    assert 3.0 in seen      # no bisection midpoint lands on it


def probed(fn, target, guess):
    """The points bisect_decreasing evaluates fn at, in order, with the
    guess, and its result."""
    seen = []

    def traced(x):
        seen.append(x)
        return fn(x)

    return seen, bisect_decreasing(traced, target, guess)


def test_one_probe_at_a_guess():
    # fn crosses 0 at 40, so without a guess the first five calls are
    # fn(_LO) and the ends 8, 16, 32 and 64; a guess above target stands
    # in for fn(_LO) and every doubled end at or below it, a guess at or
    # below target for every doubled end at or above it
    def fn(x):
        return 40.0 - x

    unguided, _ = probed(fn, 0.0, None)
    for guess, skipped in ((3.0, {_LO}), (20.0, {_LO, BETA_HI, 16.0}),
                           (33.0, {_LO, BETA_HI, 16.0, 32.0}),
                           (40.0, {BETA_CAP}), (50.0, {BETA_CAP})):
        seen, guided = probed(fn, 0.0, guess)
        assert seen[0] == guess
        assert skipped <= set(unguided)
        assert not skipped & set(seen[1:])
        assert set(unguided[:5]) - skipped <= set(seen)
        assert bits(guided) == bits(plain_bisection(fn, 0.0))


def test_early_return_at_lower_edge():
    result = bisect_decreasing(lambda x: 0.1, 0.5)
    assert result == RootResult(_LO, 0.1 - 0.5, 1, True)
    assert result == plain_bisection(lambda x: 0.1, 0.5)
    for guess in GUESSES:
        guided = bisect_decreasing(lambda x: 0.1, 0.5, guess)
        if _LO < guess < BETA_CAP:
            # the probe at the guess comes first, then fn(_LO) for the
            # early return
            assert guided == RootResult(_LO, 0.1 - 0.5, 2, True)
        else:
            assert guided == result


def test_bracket_doubling():
    seen = []

    def fn(x):
        seen.append(x)
        return 20.0 - x

    guided, reference = assert_same_answer(fn, 0.0)
    assert {16.0, 32.0} <= set(seen)
    assert guided.evaluations < reference.evaluations
    assert guided.root == pytest.approx(20.0, abs=_XTOL)


def test_bracket_error_unchanged():
    message = re.escape("no root below x=64: fn(64) still above target 0")
    with pytest.raises(BracketError, match=message):
        plain_bisection(lambda x: 100.0 - x, 0.0)
    for guess in (None, *GUESSES):
        with pytest.raises(BracketError, match=message):
            bisect_decreasing(lambda x: 100.0 - x, 0.0, guess)


@pytest.mark.parametrize("fn, target", [
    (lambda x: -x, -2.5),                       # target below zero
    (lambda x: 4.0 - x, 0.0),                   # target zero
    (lambda x: math.exp(-400.0 * x), 1e-300),   # fn underflows to 0
    (lambda x: math.exp(-90.0 * x), 0.0),       # reaches target only at 0
], ids=["negative-target", "zero-target", "underflow", "underflow-to-target"])
def test_non_positive_targets_and_underflow(fn, target):
    assert_same_answer(fn, target)


def test_wait_curve_roots_take_at_most_sixteen_calls_on_average():
    # every marginal rate of example1 and S64, each bound, at the epsilons
    # the solvers ask for; measured 12.4-14.1 calls per root by bound
    for bound in BOUND_CHOICES:
        calls = [bisect_decreasing(wait_curve(rate, bound), eps).evaluations
                 for scenarios in (instance(), S64)
                 for marginal in scenarios.marginals
                 for rate in marginal.rates
                 for eps in (0.001, 0.01, 0.02, 0.05, 0.1, 0.2)]
        assert sum(calls) / len(calls) <= 16


def brent_tol(x, xtol=None):
    """Brent's stopping tolerance at x, given xtol or not."""
    return _XREL * abs(x) + 0.25 * _XTOL if xtol is None else xtol


def test_slice_tolerance_sees_the_edge():
    # a minimizer on BETA_CAP still lands within _EDGE of it
    assert 2.0 * SLICE_XTOL < _EDGE


SLICE_SHAPES = {
    "quadratic": lambda x, c: (x - c) ** 2,
    "abs": lambda x, c: abs(x - c),
    "quartic": lambda x, c: (x - c) ** 4,
}
# (lo, hi, minimizer): inside, at either end, and off-centre in a short bracket
BRACKETS = [(0.0, 1.0, 0.3), (0.0, 0.25, 0.0), (7.75, 8.0, 8.0),
            (2.25, 2.75, 2.7), (31.0, 33.0, 32.0 + 1e-7)]


def assert_brent_lands_within_two_tol(shape, lo, hi, c, xtol=None):
    seen = []

    def fn(x):
        seen.append(x)
        return SLICE_SHAPES[shape](x, c)

    x, fx, evals = brent_min(fn, lo, hi, xtol)
    assert abs(x - c) <= 2.0 * brent_tol(x, xtol)
    assert evals == len(seen)
    assert fx == SLICE_SHAPES[shape](x, c)
    assert all(lo < u < hi for u in seen)


@pytest.mark.parametrize("shape", SLICE_SHAPES, ids=list(SLICE_SHAPES))
@pytest.mark.parametrize("lo, hi, c", BRACKETS)
def test_brent_lands_within_two_tol_inside_the_bracket(shape, lo, hi, c):
    assert_brent_lands_within_two_tol(shape, lo, hi, c)


@pytest.mark.parametrize("shape", SLICE_SHAPES, ids=list(SLICE_SHAPES))
@pytest.mark.parametrize("lo, hi, c", BRACKETS)
def test_brent_lands_within_two_xtol_inside_the_bracket(shape, lo, hi, c):
    assert_brent_lands_within_two_tol(shape, lo, hi, c, SLICE_XTOL)


def convex_slice(c, weights):
    quadratic, linear, quartic = weights

    def fn(x):
        d = x - c
        return quadratic * d * d + linear * abs(d) + quartic * d ** 4

    return fn


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.0, BETA_HI),
       weights=st.tuples(*[st.floats(0.0, 10.0)] * 3).filter(lambda w: max(w) >= 1e-3))
def test_grid_then_golden_finds_convex_minimizers(c, weights):
    x, _, _, at_cap = grid_then_golden(convex_slice(c, weights))
    assert abs(x - c) <= 2.0 * brent_tol(x)
    assert not at_cap


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.0, BETA_CAP), start=st.floats(0.0, BETA_CAP),
       weights=st.tuples(*[st.floats(0.0, 10.0)] * 3).filter(lambda w: max(w) >= 1e-3),
       xtol=st.sampled_from([None, SLICE_XTOL]))
def test_warm_search_lands_on_the_grid_minimizer(c, start, weights, xtol):
    fn = convex_slice(c, weights)
    seen = []

    def counted(x):
        seen.append(x)
        return fn(x)

    cold = grid_then_golden(fn)
    x, fx, evals, at_cap = grid_then_golden(counted, start, xtol)
    assert abs(x - c) <= 2.0 * brent_tol(x, xtol)
    if xtol is None:
        assert abs(x - cold[0]) <= 2.0 * brent_tol(x)
    assert (fx, evals, at_cap) == (fn(x), len(seen), cold[3])
    assert seen[0] == start and all(0.0 <= u <= BETA_CAP for u in seen)


def past_a_prefix(edge, fn):
    return lambda x: math.inf if x < edge else fn(x)


# (slice, minimizer): infinite below some beta, as a keyed slice is; the
# second has another, higher basin where the upward steps from 1 first
# find a finite value (8.75), past the one just above the prefix's end
PREFIXED_SLICES = [
    (past_a_prefix(1.0, lambda x: (x - 3.0) ** 2), 3.0),
    (past_a_prefix(5.1, lambda x: min((x - 5.4) ** 2 + 1.0, (x - 8.8) ** 2 + 2.0)), 5.4),
]


@pytest.mark.parametrize("fn, c", PREFIXED_SLICES, ids=["one-basin", "two-basins"])
@pytest.mark.parametrize("start", [0.0, 0.5, 0.99])
def test_warm_search_walks_up_out_of_an_infinite_start(fn, c, start):
    # the start steps upward (0.25, 0.5, 1, ...) to the first finite
    # point, bisects back to within a grid spacing of the prefix's end and
    # walks from the lowest point seen, well short of the grid's evaluations
    seen = []

    def counted(x):
        seen.append(x)
        return fn(x)

    cold = grid_then_golden(fn, None, SLICE_XTOL)
    x, fx, evals, at_cap = grid_then_golden(counted, start, SLICE_XTOL)
    assert abs(x - c) <= 2.0 * SLICE_XTOL and abs(x - cold[0]) <= 2.0 * SLICE_XTOL
    assert (fx, evals, at_cap) == (fn(x), len(seen), False)
    assert evals < cold[2] - _N_GRID / 2
    first = next(i for i, u in enumerate(seen) if math.isfinite(fn(u)))
    assert seen[:first + 1] == sorted(seen[:first + 1])


def test_warm_search_from_a_nan_start_scans_the_grid():
    def fn(x):
        return math.nan if x < 1.0 else (x - 3.0) ** 2

    cold = grid_then_golden(fn)
    x, fx, evals, at_cap = grid_then_golden(fn, 0.5)
    assert (x, fx, at_cap) == cold[:2] + cold[3:]
    assert evals == cold[2] + 1


def test_warm_search_of_a_slice_infinite_to_the_cap_scans_the_grid():
    # the upward steps from 1 reach BETA_CAP, still infinite; the grid
    # then answers as it does cold, and the slice's minimum is inf
    seen = []

    def fn(x):
        seen.append(x)
        return math.inf

    cold = grid_then_golden(fn)
    grid = list(seen)
    seen.clear()
    x, fx, evals, at_cap = grid_then_golden(fn, 1.0)
    walked = [1.0, 1.25, 1.75, 2.75, 4.75, 8.75, 16.75, 32.75, BETA_CAP]
    assert seen == walked + grid
    assert (x, fx, at_cap) == cold[:2] + cold[3:] and fx == math.inf
    assert evals == cold[2] + len(walked)


@pytest.mark.parametrize("start", [-1.0, -1e-300, math.nextafter(BETA_CAP, math.inf), 100.0,
                                   math.inf, math.nan])
def test_warm_search_from_outside_the_box_is_cold(start):
    probes = []

    def fn(x):
        probes.append(x)
        return (x - 3.0) ** 2

    assert grid_then_golden(fn, start) == grid_then_golden(fn)
    assert start not in probes


CAP_STARTS = [0.0, 3.0, BETA_HI, BETA_CAP - 0.1, BETA_CAP]


@pytest.mark.parametrize("start", CAP_STARTS)
def test_warm_search_reports_a_minimizer_beyond_the_cap(start):
    x, fx, _, at_cap = grid_then_golden(lambda b: -b, start)
    assert x == pytest.approx(BETA_CAP, abs=1e-6)
    assert at_cap


@pytest.mark.parametrize("start", CAP_STARTS)
def test_warm_search_to_slice_tolerance_reports_a_minimizer_beyond_the_cap(start):
    # Brent's 2*SLICE_XTOL stays inside _EDGE, on a straight slice and a curved one
    for fn in (lambda b: -b, lambda b: (b - 70.0) ** 2):
        x, fx, _, at_cap = grid_then_golden(fn, start, SLICE_XTOL)
        assert x == pytest.approx(BETA_CAP, abs=_EDGE)
        assert at_cap


def test_warm_search_of_an_increasing_slice_stays_at_the_lower_edge():
    cold = grid_then_golden(lambda b: b * b + b)
    x, fx, evals, at_cap = grid_then_golden(lambda b: b * b + b, 0.0)
    assert (x, fx, at_cap) == (0.0, 0.0, False) == cold[:2] + cold[3:]
    # the probe and the one neighbour replace the grid; Brent runs on the
    # same bracket, (0, one grid spacing)
    assert evals == cold[2] - _N_GRID + 2
