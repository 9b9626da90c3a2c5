"""Weighted staffing of several independent stations.

The objective is

    sum_i cost_i(beta_i) + delta * (1 - prod_i (1 - wait_i(beta_i)))

where the second term is the probability that a customer waits somewhere,
by independence of the stations. This is the one-scenario case of the
dualized joint model, so solve_multi hands the rate vector to
joint.solve_weighted_stoch as a single scenario of probability one and
reports its answer per station.

The descent there certifies coordinate-wise optimality only. At desk
scale the test suite backs it with a dense 2-D grid cross-check; no
convexity claim is made for the objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .erlang import wait_curve
from .errors import DomainError, at_least, of_type, per_station, positive, sequence
from .frontier import CostFunction, check_delta
from .joint import _cost_function, _joint_wait, solve_weighted_stoch
from .scenarios import JointScenarioSet

__all__ = ["MultiStationInstance", "MultiSolveReport", "solve_multi",
           "exact_objective", "objective_gap"]


@dataclass(frozen=True)
class MultiStationInstance:
    lambdas: tuple
    costs: tuple
    delta: float

    def __post_init__(self):
        lams = tuple(positive(x, "arrival rate")
                     for x in sequence(self.lambdas, "arrival rates"))
        if not lams:
            raise DomainError("lambdas must be a non-empty vector of positive reals")
        costs = self.costs
        if isinstance(costs, CostFunction):
            costs = (costs,) * len(lams)
        costs = per_station(costs, len(lams), _cost_function, "cost function")
        object.__setattr__(self, "delta", check_delta(self.delta))
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
    converged: bool
    cycles: int


def solve_multi(instance, bound="exact"):
    """joint.solve_weighted_stoch on the single scenario instance.lambdas.

    The reported objective is the solved objective at the returned betas,
    under the bound the solve ran with; the waits are exact.
    """
    instance = of_type(instance, "instance", MultiStationInstance)
    report = solve_weighted_stoch(JointScenarioSet((instance.lambdas,), (1.0,)),
                                  instance.delta, instance.costs, bound)
    betas = report.decision.betas
    waits = tuple(wait_curve(lam)(b) for b, lam in zip(betas, instance.lambdas))
    return MultiSolveReport(
        betas=betas,
        objective=report.objective,
        per_station_wait=waits,
        joint_wait=_joint_wait(waits),
        bound_used=report.bound_used,
        converged=report.converged,
        cycles=report.cycles,
    )


def exact_objective(instance, betas):
    """Weighted objective at a fixed beta vector, always with exact waits.

    Useful for scoring solutions produced under an approximating bound on
    the ground-truth objective.
    """
    instance = of_type(instance, "instance", MultiStationInstance)
    betas = per_station(betas, instance.station_count, at_least, "safety factor", 0.0)
    waits = [wait_curve(lam)(b) for b, lam in zip(betas, instance.lambdas)]
    cost_total = sum(c.beta_cost(b, lam)
                     for b, lam, c in zip(betas, instance.lambdas, instance.costs))
    return cost_total + instance.delta * _joint_wait(waits)


def objective_gap(instance, betas):
    """Bound-based objective minus exact objective at a fixed point.

    The cost terms cancel, leaving
    delta * (prod(1 - exact_i) - prod(1 - upper_i)) >= 0 since each upper
    bound dominates its exact wait probability.
    """
    instance = of_type(instance, "instance", MultiStationInstance)
    betas = per_station(betas, instance.station_count, at_least, "safety factor", 0.0)
    exact = math.prod(1.0 - wait_curve(lam)(b) for b, lam in zip(betas, instance.lambdas))
    upper = math.prod(1.0 - wait_curve(lam, "upper")(b)
                      for b, lam in zip(betas, instance.lambdas))
    return instance.delta * (exact - upper)
