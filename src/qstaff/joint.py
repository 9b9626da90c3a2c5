"""Multi-station staffing under a joint arrival-rate scenario distribution.

The service-level requirement is joint: with conditionally independent
stations, the probability that no customer waits anywhere is

    sum_w p^w * prod_i (1 - alpha(n_i, Lam_i^w)) >= 1 - epsilon,

where a station whose realized rate reaches its staffing level is
unstable and contributes zero no-wait probability. The sum is evaluated
by folding every station but one into weights over that station's
marginal rates, then one dot product with its no-wait vector; the keyed
solvers fold the free stations once per dependent beta, so a solve_joint
bisection step costs one vector kernel call over the dependent rates.

Solver lineup:

* solve_joint: the joint model as solved in practice; picks a key
  scenario per station, minimizes the weighted sum of safety factors
  subject to the full joint constraint, and rounds the implied levels;
  a rounding that misses the target gives way to the cheapest feasible
  point of the box n - 1 .. n + 1, as in every epsilon-mode report.
* solve_joint_exact_integer: certified integer optimum by the lattice
  walk over a box read off exact no-wait tables; the ground truth.
* solve_decoupled: per-station single-station solves with no-wait target
  (1-epsilon)^(1/L); simple, conservative, and typically a few percent
  more expensive.
* solve_reduced_joint / enumerate_key_scenarios: the asymptotic reduced
  model, the same fold over no-wait vectors clipped at per-station key
  scenarios (rates above a key written off, below it written in);
  enumeration searches the key lattice for the cheapest feasible key.
* solve_weighted_stoch: the only weighted multi-station solver, trading
  server cost against delta times the joint wait probability by descent
  from beta = 1 at every key; multistation.solve_multi is its
  one-scenario case.

Every descent over safety factors in the package runs through
coordinate_descent and its one stopping rule, MAX_CYCLES and CYCLE_TOL.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .erlang import _no_wait_vector, _wait_vector, check_bound, wait_curve
from .erlang import wait_probability  # noqa: F401 (perfbench/tracing.py wraps it here)
from .errors import (
    BracketError,
    DomainError,
    EnumerationCapError,
    InfeasibleError,
    at_least,
    check_delta,
    check_epsilon,
    integer,
    of_type,
    per_station,
    positive,
)
from .frontier import CostFunction
from .lattice import _dot, _fold, _folded_no_wait, _table_no_wait
from .lattice import FEASIBILITY_TOL, certified_box, integer_staffing, repair, walk
from .scenarios import JointScenarioSet
from .search import BETA_CAP, SLICE_XTOL, bisect_decreasing, grid_then_golden
from .stochastic import _reduced_decision
from .stochastic import solve_reduced  # noqa: F401 (perfbench/tracing.py wraps it here)

__all__ = [
    "JointDecision",
    "JointSolveReport",
    "WeightedSolveReport",
    "SolutionSummary",
    "ComparisonReport",
    "joint_constraint_value",
    "solve_joint",
    "solve_joint_exact_integer",
    "solve_decoupled",
    "solve_reduced_joint",
    "enumerate_key_scenarios",
    "solve_weighted_stoch",
    "compare_solutions",
]

MAX_CYCLES = 200
CYCLE_TOL = 1e-9
# the key enumerations refuse a key lattice of more points than this
KEY_CAP = 10000
# a key must beat the incumbent by this relative margin, so near-ties in
# a key ranking go to the lexicographically smallest key
KEY_TIE_RTOL = 1e-9


def _cost_function(cost, what):
    # a per_station check: a bare per-server price stands for
    # CostFunction("linear-servers", price)
    if isinstance(cost, CostFunction):
        return cost
    return CostFunction("linear-servers", positive(cost, what))


def _checked_problem(scenarios, epsilon, costs):
    # an epsilon problem's (scenarios, eps, costs), checked in this order
    scenarios = of_type(scenarios, "scenarios", JointScenarioSet)
    return (scenarios, check_epsilon(epsilon),
            per_station(costs, scenarios.stations, positive, "per-server cost"))


def _joint_no_wait(scenarios, levels):
    return _folded_no_wait(scenarios, [_no_wait_vector(n, m.rates) for m, n in
                                       zip(scenarios.marginals, levels)])


def _joint_wait(waits):
    """1 - prod_i (1 - w_i) as sum_i w_i prod_{j<i} (1 - w_j): no term
    cancels, so waits far below machine epsilon still count."""
    total = 0.0
    no_wait = 1.0
    for w in waits:
        total += no_wait * w
        no_wait *= 1.0 - w
    return total


def _expected_joint_wait(scenarios, levels, bound="exact"):
    # sum_w p^w * P{some station waits | w}, summed per scenario by
    # _joint_wait rather than formed as 1 - _joint_no_wait
    columns = [[waits[k] for k in idx] for waits, idx in zip(
        (_wait_vector(n, m.rates, bound) for m, n in zip(scenarios.marginals, levels)),
        scenarios.rate_index)]
    return sum(p * _joint_wait(waits)
               for waits, p in zip(zip(*columns), scenarios.probs))


def joint_constraint_value(scenarios, n):
    """Joint no-wait probability of the staffing vector n.

    Evaluates sum_w p^w prod_i (1 - alpha(n_i, Lam_i^w)) with the exact
    wait curve; integer levels use the exact recursion. Stations whose
    realized rate reaches n_i contribute zero no-wait probability.
    """
    scenarios = of_type(scenarios, "scenarios", JointScenarioSet)
    levels = per_station(n, scenarios.stations, at_least, "staffing level", 1.0)
    return _joint_no_wait(scenarios, levels)


@dataclass(frozen=True)
class JointDecision:
    """Per-station nonanticipative staffing (beta_i, key scenario index)."""

    betas: tuple
    key_indices: tuple     # index into each station's marginal rate list
    key_rates: tuple
    n_continuous: tuple
    n_integer: tuple       # nearest rounding, or the cheapest feasible point of its +-1 box


@dataclass(frozen=True)
class JointSolveReport:
    decision: JointDecision
    beta_cost: float         # sum c_i beta_i, the reduced-model objective
    server_cost: float       # sum c_i n_continuous_i
    integer_cost: float      # sum c_i n_integer_i
    achieved_qos: float      # exact joint no-wait probability at n_integer
    epsilon: float
    feasible: bool
    over_conservative: bool  # constants alone met the target; all betas zero
    method: str
    cycles: int              # descent cycles run; 0 when nothing was descended
    converged: bool          # descent met its stopping rule within MAX_CYCLES


@dataclass(frozen=True)
class WeightedSolveReport:
    decision: JointDecision
    objective: float         # under the bound the solve ran with
    exact_objective: float   # same point scored with the exact curve
    no_wait: float           # exact joint no-wait at the continuous levels
    bound_used: str
    cycles: int
    converged: bool


@dataclass(frozen=True)
class SolutionSummary:
    """One column of the solution-comparison table."""

    label: str
    n: tuple
    cost: float
    achieved_qos: float
    feasible: bool           # achieved_qos + FEASIBILITY_TOL >= 1 - epsilon
    n_continuous: tuple = None
    betas: tuple = None
    key_rates: tuple = None


@dataclass(frozen=True)
class ComparisonReport:
    joint: SolutionSummary
    reduced: SolutionSummary
    decoupled: SolutionSummary
    cost_ratio: float        # decoupled cost / joint cost


def _decision_from_betas(betas, key_indices, key_rates):
    n_cont = tuple(r + b * math.sqrt(r) for b, r in zip(betas, key_rates))
    return JointDecision(betas=tuple(betas), key_indices=tuple(key_indices),
                         key_rates=tuple(key_rates), n_continuous=n_cont,
                         n_integer=tuple(integer_staffing(x) for x in n_cont))


def _reduced_report(scenarios, decision, costs, eps, method, over_conservative=False,
                    cycles=0, converged=True):
    n, achieved = repair(scenarios, decision.n_integer, 1.0 - eps, costs)
    decision = replace(decision, n_integer=n)
    return JointSolveReport(
        decision=decision, beta_cost=sum(c * b for c, b in zip(costs, decision.betas)),
        server_cost=sum(c * n for c, n in zip(costs, decision.n_continuous)),
        integer_cost=sum(c * n for c, n in zip(costs, decision.n_integer)),
        achieved_qos=achieved, epsilon=eps, feasible=achieved + FEASIBILITY_TOL >= 1.0 - eps,
        over_conservative=over_conservative, method=method, cycles=cycles,
        converged=converged)


def coordinate_descent(slice_at, objective, betas, coords, warm=False, xtol=None):
    """Cyclic coordinate descent over the safety factors betas[i], i in coords.

    A cycle minimizes slice_at(i, betas), the objective as a function of
    beta_i alone, for each i in coords in turn by grid_then_golden (a
    bracket refined by Brent's method, to a relative 2**-27 in beta or to
    the absolute xtol given), then scores the cycle with
    objective(betas), which may complete betas in place. Descent stops
    when a cycle gains less than CYCLE_TOL * (1 + |value|), when the
    value is infinite, at once when a slice's minimum is, or after
    MAX_CYCLES cycles; with no coords, one cycle. Returns (betas, value,
    cycles, converged), value being the objective at the returned betas
    (inf, unconverged, after an infinite slice); a beta the last cycle
    left on the edge of the search box is not converged.

    The bracket comes from a grid scan, or, when warm says betas[i] is a
    good start (it came from an earlier solve, or the slice has one
    basin), from a walk out of betas[i]. Other descents (from beta = 1 at
    two or more free stations, or a retry start) should stay cold: a walk
    can settle in another basin than the grid's.

    The slice for coordinate i must depend on betas only through the
    other coordinates in coords, and neither another slice nor objective
    may write betas[i]. A coordinate whose others have not moved since
    its last search would then search the same slice again, so it keeps
    its beta and edge flag instead; with one coordinate, the confirming
    second cycle searches nothing.
    """
    betas = list(betas)
    value = math.inf
    last = {}   # coordinate -> (the others' betas, edge) at its last search
    for cycle in range(1, MAX_CYCLES + 1):
        at_cap = False
        for i in coords:
            others = tuple(betas[j] for j in coords if j != i)
            seen = last.get(i)
            if seen is not None and seen[0] == others:
                edge = seen[1]
            else:
                betas[i], low, _, edge = grid_then_golden(
                    slice_at(i, betas), betas[i] if warm else None, xtol)
                if low == math.inf:
                    return betas, math.inf, cycle, False
                last[i] = (others, edge)
            at_cap = at_cap or edge
        previous, value = value, objective(betas)
        if not math.isfinite(value):
            return betas, value, cycle, False
        if not coords or previous - value < CYCLE_TOL * (1.0 + abs(value)):
            return betas, value, cycle, not at_cap
    return betas, value, MAX_CYCLES, False


# ---------------------------------------------------------------------------
# decoupled heuristic

def _decoupled_decision(scenarios, eps):
    per_station_eps = 1.0 - (1.0 - eps) ** (1.0 / scenarios.stations)
    decisions = [_reduced_decision(m, per_station_eps)[0] for m in scenarios.marginals]
    return _decision_from_betas([d.beta for d in decisions],
                                [d.key_index for d in decisions],
                                [d.key_rate for d in decisions])


def solve_decoupled(scenarios, epsilon, costs):
    """Per-station solves with no-wait target (1 - epsilon)^(1/L).

    Splitting the joint target evenly across stations decouples the
    problem into L single-station reduced models on the marginal
    distributions. The assembled vector is conservative relative to the
    joint model because the split ignores how slack at one station could
    cover risk at another.
    """
    scenarios, eps, costs = _checked_problem(scenarios, epsilon, costs)
    return _reduced_report(scenarios, _decoupled_decision(scenarios, eps),
                           costs, eps, "decoupled")


# ---------------------------------------------------------------------------
# reduced joint model with key scenarios

def _key_rates(scenarios, key_indices):
    # per_station checks station i's key against the i-th marginal's size
    sizes = iter([len(m) for m in scenarios.marginals])
    keys = per_station(key_indices, scenarios.stations,
                       lambda k, what: integer(k, what, below=next(sizes)), "key index")
    return keys, tuple(m.rates[k] for m, k in zip(scenarios.marginals, keys))


def _reduced_vector(marginal, key, u):
    # a station's no-wait factor per marginal rate in the reduced model:
    # written in (1) below the key rate, u at it, written off (0) above it
    return [1.0] * key + [u] + [0.0] * (len(marginal) - key - 1)


def _surviving_masses(scenarios, free_keys):
    # the surviving mass (the reduced fold at every u_i = 1) of the keys
    # free_keys + (j,), one per rate j of the last station
    w = _fold(scenarios, [_reduced_vector(m, k, 1.0)
                          for m, k in zip(scenarios.marginals, free_keys)])
    return [sum(w[:j]) + w[j] for j in range(len(w))]


def solve_reduced_joint(scenarios, epsilon, costs, key_indices):
    """Reduced joint model for a fixed per-station key-scenario choice.

    Minimizes sum c_i beta_i subject to the joint constraint on no-wait
    vectors cut by the over/under/at-key trichotomy: one below a station's
    key rate, u_i = 1 - alpha at it, zero above it. Folding the free
    stations as solve_joint does leaves const + slope * u_last, the folded
    weight below the last key and at it. The constraint is active at any
    optimum, so u_last is solved linearly and inverted to a beta by
    bisection; the free coordinates are optimized by cyclic descent.

    A key whose surviving mass (the fold at every u_i = 1, as
    enumerate_key_scenarios reads it) cannot reach 1 - epsilon is
    infeasible. A key whose mass below every key rate (the fold at every
    u_i = 0) reaches the target needs no safety staffing; it is returned
    with zero betas and flagged over_conservative.

    At L = 2 the one free beta is searched by a walk from beta = 1 (see
    coordinate_descent), which settles in the basin nearest that start:
    on a slice with two basins it can return the costlier local minimum.
    """
    scenarios, eps, costs = _checked_problem(scenarios, epsilon, costs)
    L = scenarios.stations
    keys, key_rates = _key_rates(scenarios, key_indices)
    target = 1.0 - eps
    dep = L - 1

    mass = _surviving_masses(scenarios, keys[:dep])[keys[dep]]
    if mass <= target:
        raise _short_of_target(keys, mass, target)
    if _folded_no_wait(scenarios, [_reduced_vector(m, k, 0.0) for m, k in
                                   zip(scenarios.marginals, keys)]) >= target:
        decision = _decision_from_betas((0.0,) * L, keys, key_rates)
        return _reduced_report(scenarios, decision, costs, eps,
                               "reduced-joint", over_conservative=True)

    curves = [wait_curve(r) for r in key_rates]

    def vector(i, beta):
        return _reduced_vector(scenarios.marginals[i], keys[i], 1.0 - curves[i](beta))

    def dep_root(weights, guess):
        # const + slope * u_last >= target, solved linearly for u_last
        const, slope = sum(weights[:keys[dep]]), weights[keys[dep]]
        if const >= target:
            return 0.0
        if slope <= 0.0:
            return math.inf
        u_req = (target - const) / slope
        if u_req >= 1.0:
            return math.inf
        return bisect_decreasing(curves[dep], 1.0 - u_req, guess).root

    return _solve_keyed(scenarios, eps, costs, keys, key_rates, [1.0] * L,
                        vector, dep_root, "reduced-joint")


def _short_of_target(keys, mass, target):
    return InfeasibleError(f"key scenario {keys} keeps probability mass {mass:.6g}, "
                           f"short of the no-wait target {target:.6g}")


def _solve_keyed(scenarios, eps, costs, keys, key_rates, betas, vector, dep_root, method,
                 warm=False):
    # minimize sum c_i beta_i by descent over every station but the last,
    # whose beta restores the constraint: the free stations' vectors
    # vector(i, beta_i) fold into weights over its rates, from which
    # dep_root(weights, guess) finds it, seeded by the last finite positive
    # root (the start's dependent beta first); a root past the bracket cap
    # is inf, and so is the cost. With one free station the descent is one
    # slice search, which walks from its start and stops Brent at
    # SLICE_XTOL, as finely as a slice of dependent roots is known. With
    # two or more, the first descent is warm if the caller's betas are (see
    # coordinate_descent), and an infinite descent reruns cold from common
    # free starts doubling from the largest given one (>= 1 first) to the cap.
    # A dependent root is a function of the free betas alone, whatever its
    # guess, so each free-beta vector is solved once
    dep = len(betas) - 1
    guess = betas[dep]
    roots = {}

    def dep_beta(bs):
        nonlocal guess
        free = tuple(bs[:dep])
        root = roots.get(free)
        if root is not None:
            return root
        weights = _fold(scenarios, [vector(i, b) for i, b in enumerate(free)])
        try:
            root = dep_root(weights, guess)
        except BracketError:
            root = math.inf
        if 0.0 < root < math.inf:
            guess = root
        roots[free] = root
        return root

    def completed(bs):
        bs[dep] = dep_beta(bs)
        return sum(c * b for c, b in zip(costs, bs))

    def slice_at(i, bs):
        fixed = sum(costs[j] * bs[j] for j in range(dep) if j != i)

        def coord(b):
            bs[i] = b
            return fixed + costs[i] * b + costs[dep] * dep_beta(bs)

        return coord

    found = coordinate_descent(slice_at, completed, betas, range(dep), warm or dep == 1,
                               SLICE_XTOL if dep == 1 else None)
    start = max([0.5, *betas[:dep]])
    while not math.isfinite(found[1]) and dep >= 2 and start < BETA_CAP:
        start = min(2.0 * start, BETA_CAP)
        found = coordinate_descent(slice_at, completed, [start] * dep + betas[dep:],
                                   range(dep))
    betas, value, cycles, converged = found
    if not math.isfinite(value):
        raise InfeasibleError(
            f"key scenario {keys} needs a safety factor beyond the "
            f"bracket cap {BETA_CAP}")
    return _reduced_report(
        scenarios, _decision_from_betas(betas, keys, key_rates),
        costs, eps, method, cycles=cycles, converged=converged)


def _key_lattice(scenarios):
    """Every key vector of the per-station marginal key lattice, in
    lexicographic order; EnumerationCapError past KEY_CAP keys."""
    sizes = [len(m) for m in scenarios.marginals]
    total = math.prod(sizes)
    if total > KEY_CAP:
        raise EnumerationCapError(
            f"{total} candidate key scenarios exceed the cap of {KEY_CAP}")
    return itertools.product(*(range(s) for s in sizes))


def _best_key(keys, solve, value):
    """Best solve(key) over keys in order: a key replaces the incumbent
    only if its value() is lower by KEY_TIE_RTOL. A key whose solve raises
    InfeasibleError is skipped; if every key is, InfeasibleError lists
    them all."""
    best = None
    reasons = []
    for key in keys:
        try:
            result = solve(key)
        except InfeasibleError as exc:
            reasons.append(str(exc))
            continue
        if best is None or value(result) < value(best) * (1.0 - KEY_TIE_RTOL):
            best = result
    if best is None:
        raise InfeasibleError(
            "every candidate key scenario is infeasible: " + "; ".join(reasons))
    return best


def enumerate_key_scenarios(scenarios, epsilon, costs):
    """Cheapest feasible key over the per-station marginal key lattice.

    The QoS risk can be spread across stations in several ways; each
    candidate key vector is solved by solve_reduced_joint, infeasible
    keys are skipped, and candidates are ranked by continuous server cost
    with near-ties broken toward the lexicographically smallest key. A
    lattice of more than KEY_CAP keys raises EnumerationCapError.

    Most keys keep too little mass to reach the target. Each key of the
    free stations folds once into the surviving masses of its keys, which
    refuse a key at or below the target with solve_reduced_joint's own
    test and InfeasibleError, without solving it; every other key is
    solved, so the report is the one solving every key gives.
    """
    scenarios, eps, costs = _checked_problem(scenarios, epsilon, costs)
    keys = _key_lattice(scenarios)
    masses = {}  # free keys -> their surviving masses
    target = 1.0 - eps

    def solve(key):
        free = key[:-1]
        if free not in masses:
            masses[free] = _surviving_masses(scenarios, free)
        mass = masses[free][key[-1]]
        if mass <= target:
            raise _short_of_target(key, mass, target)
        return solve_reduced_joint(scenarios, eps, costs, key)

    return _best_key(keys, solve, lambda report: report.server_cost)


# ---------------------------------------------------------------------------
# joint model on the exact constraint

def solve_joint(scenarios, epsilon, costs, key_indices=None, warm_betas=None):
    """Joint model on the full constraint in the key parameterization.

    Minimizes sum c_i beta_i subject to the exact joint chance constraint
    evaluated at n_i = Lam_i^key + beta_i * sqrt(Lam_i^key) against every
    realized scenario, with no term written off. This is the
    non-asymptotic counterpart of solve_reduced_joint: the same decision
    space and objective, but the true constraint.

    When key_indices is omitted the key (and a warm start) is taken from
    enumerate_key_scenarios, which is how the key choice is justified in
    the first place; the full solve then refines the reduced betas, which
    move only marginally at realistic scales. warm_betas (a start for the
    descent, default all ones) needs key_indices. Betas from either
    source start a warm descent (see coordinate_descent), whose slice
    searches walk out from them instead of scanning a grid. So does any
    two-station descent, whose one slice search walks from the default
    ones too; at three or more stations the default ones start a cold
    descent, as do the retries after an infinite one. A walk settles in
    the basin nearest its start: on a two-station slice with two basins
    it can stop in the costlier one, where a grid scan would find the
    cheaper, and nothing in the report tells them apart.
    """
    scenarios, eps, costs = _checked_problem(scenarios, epsilon, costs)
    L = scenarios.stations
    if key_indices is None:
        if warm_betas is not None:
            raise DomainError("warm_betas needs key_indices")
        seed = enumerate_key_scenarios(scenarios, eps, costs)
        keys, key_rates = seed.decision.key_indices, seed.decision.key_rates
        betas = list(seed.decision.betas)
    else:
        keys, key_rates = _key_rates(scenarios, key_indices)
        betas = ([1.0] * L if warm_betas is None
                 else list(per_station(warm_betas, L, at_least, "warm beta", 0.0)))
    roots = [math.sqrt(r) for r in key_rates]
    dep = L - 1
    dep_no_waits = {}  # dependent no-wait vectors by level; bisection midpoints recur

    def vector(i, beta):
        return _no_wait_vector(max(key_rates[i] + beta * roots[i], 1.0),
                               scenarios.marginals[i].rates)

    def dep_root(weights, guess):
        # smallest dependent beta restoring the constraint (the joint wait
        # falls in it); a bisection step makes at most one vector kernel call
        def joint_wait(b):
            level = max(key_rates[dep] + b * roots[dep], 1.0)
            no_wait = dep_no_waits.get(level)
            if no_wait is None:
                no_wait = dep_no_waits[level] = _no_wait_vector(
                    level, scenarios.marginals[dep].rates)
            return 1.0 - _dot(weights, no_wait)

        return bisect_decreasing(joint_wait, eps, guess).root

    return _solve_keyed(scenarios, eps, costs, keys, key_rates, betas, vector, dep_root,
                        "joint", warm=key_indices is None or warm_betas is not None)


def solve_joint_exact_integer(scenarios, epsilon, costs):
    """Certified integer optimum of the joint model by lattice search.

    lattice.walk covers the box lattice.certified_box reads off exact
    no-wait tables, with no curve or decoupled solve; ties go to the
    lexicographically smallest vector. The QoS is folded from the same
    tables, joint_constraint_value at the optimum bit for bit.
    """
    scenarios, eps, costs = _checked_problem(scenarios, epsilon, costs)
    lower, tables = certified_box(scenarios, eps, costs)
    found = walk(scenarios, 1.0 - eps, costs, lower, tables)
    if found is None:
        raise InfeasibleError("no integer staffing in the search box is feasible")
    return SolutionSummary(
        label="joint-integer",
        n=found[0],
        cost=found[1],
        achieved_qos=_table_no_wait(scenarios, lower, tables, found[0]),
        feasible=True,      # the walk only keeps points meeting the target
    )


# ---------------------------------------------------------------------------
# weighted form

def solve_weighted_stoch(scenarios, delta, costs, bound="exact"):
    """Dualized joint model: server cost plus delta times the joint wait.

    costs holds one CostFunction per station; a bare float c stands for
    CostFunction("linear-servers", c). For every candidate key vector the
    betas are optimized by cyclic coordinate descent from beta = 1 on

        sum_i cost_i(beta_i) + delta * sum_w p^w P{some station waits | w},

    where the wait faces the realized scenario rates through the exact
    curve or its upper bound and is summed per scenario without forming
    1 - no-wait, so waits far below machine epsilon still count. The best
    key wins; near-ties within KEY_TIE_RTOL keep the lexicographically
    smallest. A lattice of more than KEY_CAP keys raises
    EnumerationCapError.
    """
    scenarios = of_type(scenarios, "scenarios", JointScenarioSet)
    delta = check_delta(delta)
    L = scenarios.stations
    prices = per_station(costs, L, _cost_function, "per-server cost")
    bound = check_bound(bound)

    def score(betas, key_rates, bound):
        levels = [max(r + b * math.sqrt(r), 1.0) for r, b in zip(key_rates, betas)]
        cost = sum(c.beta_cost(b, r) for c, b, r in zip(prices, betas, key_rates))
        return cost + delta * _expected_joint_wait(scenarios, levels, bound)

    def solve(key):
        keys, key_rates = _key_rates(scenarios, key)

        def objective(betas):
            return score(betas, key_rates, bound)

        def slice_at(i, betas):
            return lambda b: objective(betas[:i] + [b] + betas[i + 1:])

        betas, value, cycles, converged = coordinate_descent(
            slice_at, objective, [1.0] * L, range(L))
        return value, keys, key_rates, tuple(betas), cycles, converged

    value, key, key_rates, betas, cycles, converged = _best_key(
        _key_lattice(scenarios), solve, lambda result: result[0])
    decision = _decision_from_betas(betas, key, key_rates)
    exact_levels = [max(n, 1.0) for n in decision.n_continuous]
    return WeightedSolveReport(
        decision=decision, objective=value, exact_objective=score(betas, key_rates, "exact"),
        no_wait=_joint_no_wait(scenarios, exact_levels), bound_used=bound, cycles=cycles,
        converged=converged)


# ---------------------------------------------------------------------------
# side-by-side comparison

def compare_solutions(scenarios, epsilon, costs):
    """Joint, reduced-enumeration, and decoupled solutions side by side.

    The reduced column enumerates key scenarios on the asymptotic model;
    the joint column re-solves at the winning key against the full
    constraint; the decoupled column splits the target per station. The
    cost ratio quantifies what the decoupled shortcut gives up.
    """
    reduced = enumerate_key_scenarios(scenarios, epsilon, costs)
    joint = solve_joint(scenarios, epsilon, costs,
                        key_indices=reduced.decision.key_indices,
                        warm_betas=reduced.decision.betas)
    decoupled = solve_decoupled(scenarios, epsilon, costs)

    def summarize(report, label):
        d = report.decision
        return SolutionSummary(
            label=label, n=d.n_integer, cost=report.integer_cost,
            achieved_qos=report.achieved_qos, feasible=report.feasible,
            n_continuous=d.n_continuous, betas=d.betas, key_rates=d.key_rates)

    columns = {label: summarize(report, label) for label, report in
               (("joint", joint), ("reduced", reduced), ("decoupled", decoupled))}
    return ComparisonReport(**columns,
                            cost_ratio=columns["decoupled"].cost / columns["joint"].cost)
