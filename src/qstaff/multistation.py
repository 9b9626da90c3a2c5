"""Weighted staffing of several independent stations.

The objective is

    sum_i cost_i(beta_i) + delta * (1 - prod_i (1 - wait_i(beta_i)))

where the second term is the probability that a customer waits somewhere,
by independence of the stations. Minimized by the package's one cyclic
coordinate-descent driver, joint.coordinate_descent; each coordinate
slice is a single-station weighted problem (increasing cost against a
decreasing wait curve scaled by the other stations' no-wait product),
searched by grid-plus-golden on [0, 8] with the bracket doubling up to
64 while the minimizer sits on its edge, as in frontier.solve_weighted.

Coordinate descent certifies coordinate-wise optimality only. At desk
scale the test suite backs it with a dense 2-D grid cross-check; no
convexity claim is made for the objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .erlang import wait_curve
from .errors import DomainError
from .frontier import CostFunction, check_delta, solve_weighted
from .joint import coordinate_descent

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


def solve_multi(instance, bound="exact", max_cycles=200, cycle_tol=1e-9):
    """Cyclic coordinate descent from a decoupled warm start.

    Initialization solves each station's weighted problem alone with QoS
    weight delta/L; the coordinate loop then repeatedly re-optimizes one
    beta holding the rest fixed, in station order, until a full cycle
    improves the objective by less than cycle_tol * (1 + |objective|).
    The reported objective is the solved objective at the returned betas.
    """
    if bound not in ("exact", "upper"):
        raise DomainError(f"bound must be exact or upper, got {bound!r}")
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
        no_wait = 1.0
        for b, curve in zip(bs, curves):
            no_wait *= 1.0 - curve(b)
        cost_total = sum(c.beta_cost(b, lam) for b, lam, c in zip(bs, lams, costs))
        return cost_total + delta * (1.0 - no_wait)

    def slice_at(i, bs):
        # no-wait product and cost over the fixed coordinates
        others = 1.0
        for j in range(L):
            if j != i:
                others *= 1.0 - curves[j](bs[j])
        fixed_cost = sum(costs[j].beta_cost(bs[j], lams[j]) for j in range(L) if j != i)

        def coord(b):
            nonlocal evals
            evals += 1
            return (fixed_cost + costs[i].beta_cost(b, lams[i])
                    + delta * (1.0 - others * (1.0 - curves[i](b))))

        return coord

    betas, value, cycles, converged = coordinate_descent(
        slice_at, objective_at, betas, range(L), 8.0, 64.0, max_cycles, cycle_tol)
    waits = tuple(wait_curve(lam)(b) for b, lam in zip(betas, lams))
    no_wait = 1.0
    for w in waits:
        no_wait *= 1.0 - w
    return MultiSolveReport(
        betas=tuple(betas),
        objective=value,
        per_station_wait=waits,
        joint_wait=1.0 - no_wait,
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
    no_wait = 1.0
    for b, lam in zip(betas, instance.lambdas):
        no_wait *= 1.0 - wait_curve(lam)(b)
    cost_total = sum(c.beta_cost(b, lam)
                     for b, lam, c in zip(betas, instance.lambdas, instance.costs))
    return cost_total + float(instance.delta) * (1.0 - no_wait)


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
