"""Weighted staffing of several independent stations.

The objective is

    sum_i cost_i(beta_i) + delta * (1 - prod_i (1 - wait_i(beta_i)))

where the second term is the probability that a customer waits somewhere,
by independence of the stations. Minimized by the package's one cyclic
coordinate-descent driver, joint.coordinate_descent; each coordinate
slice is a single-station weighted problem (increasing cost against a
decreasing wait curve scaled by the other stations' no-wait product),
searched by grid-plus-golden on [0, search.BETA_HI] with the bracket
doubling up to search.BETA_CAP while the minimizer sits on its edge, as
in frontier.solve_weighted.

Coordinate descent certifies coordinate-wise optimality only. At desk
scale the test suite backs it with a dense 2-D grid cross-check; no
convexity claim is made for the objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .erlang import wait_curve
from .errors import DomainError
from .frontier import CostFunction, check_bound, check_delta, solve_weighted
from .joint import coordinate_descent, vector_slices

__all__ = ["MultiStationInstance", "MultiSolveReport", "solve_multi",
           "exact_objective", "objective_gap"]


@dataclass(frozen=True)
class MultiStationInstance:
    lambdas: tuple
    costs: tuple
    delta: float

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        if not lams or any(not math.isfinite(x) or x <= 0 for x in lams):
            raise DomainError("lambdas must be a non-empty vector of positive reals")
        costs = self.costs
        if isinstance(costs, CostFunction):
            costs = (costs,) * len(lams)
        costs = tuple(costs)
        if len(costs) != len(lams):
            raise DomainError("need one cost function per station")
        check_delta(self.delta)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "costs", costs)

    @property
    def station_count(self):
        return len(self.lambdas)


@dataclass(frozen=True)
class MultiSolveReport:
    betas: tuple
    objective: float          # value of the solved objective (with its bound)
    per_station_wait: tuple   # exact wait probabilities at the solution
    joint_wait: float         # 1 - prod(1 - per_station_wait)
    bound_used: str
    evaluations: int
    converged: bool
    cycles: int


def _joint_wait(waits):
    """1 - prod_i (1 - w_i) as sum_i w_i prod_{j<i} (1 - w_j): no term
    cancels, so waits far below machine epsilon still count."""
    total = 0.0
    no_wait = 1.0
    for w in waits:
        total += no_wait * w
        no_wait *= 1.0 - w
    return total


def solve_multi(instance, bound="exact"):
    """Cyclic coordinate descent from a decoupled warm start.

    Initialization solves each station's weighted problem alone with QoS
    weight delta/L; the coordinate loop then repeatedly re-optimizes one
    beta holding the rest fixed, in station order, until a full cycle
    improves the objective by less than joint.CYCLE_TOL relative.
    The reported objective is the solved objective at the returned betas.
    """
    bound = check_bound(bound)
    L = instance.station_count
    lams, costs = instance.lambdas, instance.costs
    delta = float(instance.delta)
    curves = [wait_curve(lam, bound) for lam in lams]
    evals = 0

    betas = []
    for lam, cost in zip(lams, costs):
        rep = solve_weighted(lam, delta / L, cost, bound=bound)
        evals += rep.evaluations
        betas.append(rep.beta)

    def objective_at(bs):
        nonlocal evals
        evals += 1
        cost_total = sum(c.beta_cost(b, lam) for b, lam, c in zip(bs, lams, costs))
        return cost_total + delta * _joint_wait([curve(b) for b, curve in zip(bs, curves)])

    betas, value, cycles, converged = coordinate_descent(
        vector_slices(objective_at), objective_at, betas, range(L))
    waits = tuple(wait_curve(lam)(b) for b, lam in zip(betas, lams))
    return MultiSolveReport(
        betas=tuple(betas),
        objective=value,
        per_station_wait=waits,
        joint_wait=_joint_wait(waits),
        bound_used=bound,
        evaluations=evals,
        converged=converged,
        cycles=cycles,
    )


def exact_objective(instance, betas):
    """Weighted objective at a fixed beta vector, always with exact waits.

    Useful for scoring solutions produced under an approximating bound on
    the ground-truth objective.
    """
    betas = tuple(float(b) for b in betas)
    if len(betas) != instance.station_count or any(b < 0 for b in betas):
        raise DomainError("betas must be a non-negative vector, one per station")
    waits = [wait_curve(lam)(b) for b, lam in zip(betas, instance.lambdas)]
    cost_total = sum(c.beta_cost(b, lam)
                     for b, lam, c in zip(betas, instance.lambdas, instance.costs))
    return cost_total + float(instance.delta) * _joint_wait(waits)


def objective_gap(instance, betas):
    """Bound-based objective minus exact objective at a fixed point.

    The cost terms cancel, leaving
    delta * (prod(1 - exact_i) - prod(1 - upper_i)) >= 0 since each upper
    bound dominates its exact wait probability.
    """
    betas = tuple(float(b) for b in betas)
    if len(betas) != instance.station_count or any(b < 0 for b in betas):
        raise DomainError("betas must be a non-negative vector, one per station")
    exact = 1.0
    upper = 1.0
    for b, lam in zip(betas, instance.lambdas):
        exact *= 1.0 - wait_curve(lam)(b)
        upper *= 1.0 - wait_curve(lam, "upper")(b)
    return float(instance.delta) * (exact - upper)
