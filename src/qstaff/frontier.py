"""Single-station deterministic staffing: constrained, bound-approximated,
and weighted solves, plus efficient-frontier sweeps.

The decision variable throughout is the square-root safety factor beta,
with staffing n = lambda + beta*sqrt(lambda). Three model flavors:

* constrained: the smallest beta with wait probability <= epsilon on the
  exact curve or a bound, stochastic's reduced root on one scenario;
* weighted: minimize cost(beta) + delta * wait(beta) for a QoS weight
  delta, trading staffing cost against service level;
* frontier: sweep epsilon over a grid to trace the cost/QoS Pareto set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .erlang import check_bound, wait_curve
from .errors import DomainError, check_delta, check_epsilon, of_type, positive, real
from .lattice import integer_staffing
from .scenarios import ScenarioSet
from .search import grid_then_golden
from .stochastic import _reduced_decision

__all__ = [
    "CostFunction",
    "FrontierPoint",
    "FrontierSweep",
    "SolveReport",
    "integer_staffing",
    "solve_constrained",
    "solve_weighted",
    "sweep_frontier",
    "frontier_csv_rows",
]


def check_cost(cost):
    """cost, or the default CostFunction() for None; DomainError for
    anything else that is not a CostFunction."""
    return CostFunction() if cost is None else of_type(cost, "cost", CostFunction)


@dataclass(frozen=True)
class CostFunction:
    """Strictly increasing staffing cost as a function of beta.

    kind 'linear-beta' charges coefficient * beta; 'linear-servers'
    charges coefficient per server, i.e. coefficient * (lambda +
    beta*sqrt(lambda)); 'table' interpolates a user-supplied piecewise
    linear schedule of (beta, cost) points, extended linearly beyond the
    last point.
    """

    kind: str = "linear-beta"
    coefficient: float = 1.0
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("linear-beta", "linear-servers", "table"):
            raise DomainError(f"unknown cost kind {self.kind!r}")
        if self.kind == "table":
            pts = tuple((real(b, "cost table beta"), real(c, "cost table cost"))
                        for b, c in self.table)
            if len(pts) < 2:
                raise DomainError("cost table needs at least two points")
            if not all(math.isfinite(v) for pt in pts for v in pt):
                raise DomainError("cost table points must be finite")
            if any(b2 <= b1 or c2 <= c1 for (b1, c1), (b2, c2) in zip(pts, pts[1:])):
                raise DomainError("cost table must be strictly increasing in beta and cost")
            object.__setattr__(self, "table", pts)
        else:
            object.__setattr__(self, "coefficient",
                               positive(self.coefficient, "cost coefficient"))

    def beta_cost(self, beta, lam):
        """Cost of operating at safety factor beta against load lam."""
        if self.kind == "linear-beta":
            return self.coefficient * beta
        if self.kind == "linear-servers":
            return self.coefficient * (lam + beta * math.sqrt(lam))
        pts = self.table
        if beta <= pts[0][0]:
            b0, c0 = pts[0]
            b1, c1 = pts[1]
        elif beta >= pts[-1][0]:
            b0, c0 = pts[-2]
            b1, c1 = pts[-1]
        else:
            for (b0, c0), (b1, c1) in zip(pts, pts[1:]):
                if b0 <= beta <= b1:
                    break
        return c0 + (c1 - c0) * (beta - b0) / (b1 - b0)


@dataclass(frozen=True)
class SolveReport:
    beta: float
    objective: float
    bound_used: str
    evaluations: int
    converged: bool
    residual: float  # constraint residual; 0.0 for weighted solves


@dataclass(frozen=True)
class FrontierPoint:
    epsilon: float
    beta: float
    cost: float
    wait_prob: float  # exact curve at the solution, whatever bound solved it


@dataclass(frozen=True)
class FrontierSweep:
    """Frontier points in epsilon order plus any per-point failures."""

    points: tuple = ()
    failures: tuple = ()  # (epsilon, message) pairs

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]


def solve_constrained(lam, epsilon, cost=None, bound="exact"):
    """Smallest safety factor whose wait probability is at most epsilon:
    the reduced model's root (stochastic.solve_reduced) on the one
    scenario lam, with probability one, whose target is epsilon itself.

    The wait curve falls strictly in beta, so the root is unique. With
    bound='upper' the returned beta is conservative: the exact wait
    probability at the solution is guaranteed below epsilon.
    """
    epsilon = check_epsilon(epsilon)
    cost = check_cost(cost)
    decision, res = _reduced_decision(
        ScenarioSet((positive(lam, "arrival rate"),), (1.0,)), epsilon, bound)
    return SolveReport(
        beta=decision.beta,
        objective=cost.beta_cost(decision.beta, lam),
        bound_used=bound,
        evaluations=res.evaluations,
        converged=res.converged,
        residual=res.residual,
    )


def solve_weighted(lam, delta, cost=None, bound="exact"):
    """Minimize cost(beta) + delta * wait(beta) over beta >= 0.

    A 33-point grid, then Brent's method on its best point's bracket; the
    grid's end doubles while the minimizer keeps landing on it, and one
    still there at BETA_CAP is reported with converged=False. The
    objective at beta = 0 uses the saturated value wait = 1.
    """
    delta = check_delta(delta)
    bound = check_bound(bound)
    cost = check_cost(cost)
    curve = wait_curve(lam, bound)

    def objective(b):
        return cost.beta_cost(b, lam) + delta * curve(b)

    x, fx, evals, at_cap = grid_then_golden(objective)
    return SolveReport(
        beta=x,
        objective=fx,
        bound_used=bound,
        evaluations=evals,
        converged=not at_cap,
        residual=0.0,
    )


def sweep_frontier(lam, epsilons, cost=None, bound="exact"):
    """One constrained solve per epsilon; returns points plus failures.

    The grid must be strictly increasing inside (0, 1). Bad input raises
    before any solve; a failure at one epsilon (e.g. bracket exhaustion)
    is recorded and the sweep moves on.
    """
    cost = check_cost(cost)
    eps = [check_epsilon(e) for e in epsilons]
    if not eps:
        raise DomainError("epsilon grid is empty")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise DomainError("epsilon grid must be strictly increasing")
    wait_curve(lam, bound)  # lam and bound are checked here, before any solve
    exact = wait_curve(lam)
    points = []
    failures = []
    for e in eps:
        try:
            rep = solve_constrained(lam, e, cost, bound)
            points.append(FrontierPoint(
                epsilon=e,
                beta=rep.beta,
                cost=rep.objective,
                wait_prob=exact(rep.beta),
            ))
        except Exception as exc:  # noqa: BLE001 - per-point failures are data here
            failures.append((e, f"{type(exc).__name__}: {exc}"))
    return FrontierSweep(points=tuple(points), failures=tuple(failures))


def frontier_csv_rows(lam, sweep, bound="exact"):
    """Flatten a sweep into CSV-ready dict rows. A row's n_integer is the
    plain nearest rounding of its continuous point, not repaired by
    lattice.repair as epsilon reports are, and makes no feasibility claim."""
    curve = wait_curve(lam, bound)
    rows = []
    for p in sweep.points:
        n_cont = lam + p.beta * math.sqrt(lam)
        rows.append({
            "epsilon": p.epsilon,
            "beta": p.beta,
            "n_continuous": n_cont,
            "n_integer": integer_staffing(n_cont),
            "cost": p.cost,
            "wait_prob_exact": p.wait_prob,
            "wait_prob_bound": curve(p.beta),
        })
    return rows
