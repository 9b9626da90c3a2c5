"""Single-station staffing when the arrival rate is a finite random scenario.

The staffing decision is nonanticipative: a pair (beta, key scenario)
chosen before the rate is realized, inducing the single server count

    n = Lam_key + beta * sqrt(Lam_key)

that then faces every scenario. The chance constraint charges each
scenario its wait probability at that fixed n; scenarios whose rate
reaches n are unstable and contribute probability one.

Two solvers are provided. solve_reduced keys the constraint to the
scenario picked by the tail-sum rule and solves a single-curve equation;
it is asymptotically exact as rates grow. solve_exact_enumeration solves
the full constraint at the lowest key whose root lies in the bracket,
which is the cheapest key, and serves as the ground truth at desk scale.
Both round n as every epsilon report does, by lattice.repair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .erlang import _wait_vector, check_bound, wait_curve
from .erlang import wait_probability  # noqa: F401 (perfbench/tracing.py wraps it here)
from .errors import (BracketError, DomainError, InfeasibleError, KeyScenarioTieError,
                     check_epsilon, integer, of_type, positive)
from .lattice import FEASIBILITY_TOL, _dot, integer_staffing, repair
from .scenarios import JointScenarioSet, ScenarioSet
from .search import bisect_decreasing

__all__ = [
    "StaffingDecision",
    "StochSolveReport",
    "select_key_scenario",
    "constraint_value",
    "solve_reduced",
    "solve_exact_enumeration",
]

TAIL_TIE_TOL = 1e-12


def constraint_value(scenarios, n):
    """Expected wait probability of staffing level n across the scenarios,
    on the exact curve.

    Scenarios with rate >= n contribute probability one (unstable).
    """
    scenarios = of_type(scenarios, "scenarios", ScenarioSet)
    n = positive(n, "staffing level")
    return _dot(scenarios.probs, _wait_vector(n, scenarios.rates))


def select_key_scenario(scenarios, epsilon):
    """Index of the key scenario for the reduced model.

    With rates ascending, returns the unique i whose probability tail
    (scenario i and above) still reaches epsilon while the tail strictly
    above it falls short. If the largest rate alone carries mass >=
    epsilon, that scenario is the key. A tail sum equal to epsilon makes
    the reduced model ill-posed (the asymptotic analysis needs strict
    inequalities on both sides) and raises KeyScenarioTieError; the empty
    tail past the last rate, 0.0 < epsilon, never ties. An epsilon not
    below the set's total, which rounding can leave under one, has no key.
    """
    scenarios = of_type(scenarios, "scenarios", ScenarioSet)
    eps = check_epsilon(epsilon)
    tails = scenarios.tail_sums()
    for i in range(1, len(scenarios)):
        if abs(tails[i] - eps) <= TAIL_TIE_TOL:
            raise KeyScenarioTieError(
                f"probability tail from scenario {i} equals epsilon={eps!r} "
                "within tolerance; the key-scenario rule needs strict "
                "inequalities, perturb epsilon or the probabilities")
    for i in range(len(scenarios) - 1, -1, -1):
        if tails[i] > eps:
            return i
    raise DomainError(f"epsilon={eps!r} is not below the scenario set's total "
                      f"probability {tails[0]!r}, so no scenario is the key")


@dataclass(frozen=True)
class StaffingDecision:
    """Nonanticipative staffing choice (beta, key scenario)."""

    beta: float
    key_index: int
    key_rate: float
    n_continuous: float
    n_integer: int


@dataclass(frozen=True)
class StochSolveReport:
    decision: StaffingDecision
    expected_wait: float     # full constraint value at n_integer, exact curve
    objective: float         # cost per server times continuous staffing level
    method: str              # reduced-exact | reduced-ub | exact-enumeration
    epsilon: float
    feasible: bool           # expected_wait <= epsilon + FEASIBILITY_TOL
    slack: float             # epsilon - expected_wait
    evaluations: int
    converged: bool


def _decide(scenarios, key, beta):
    rate = scenarios.rates[key]
    n_cont = rate + beta * math.sqrt(rate)
    return StaffingDecision(
        beta=beta,
        key_index=key,
        key_rate=rate,
        n_continuous=n_cont,
        n_integer=integer_staffing(n_cont),
    )


def _report(scenarios, decision, cost, method, eps, evaluations, converged):
    (n,), _ = repair(JointScenarioSet.from_product((scenarios,)), (decision.n_integer,),
                     1.0 - eps, (cost,))
    decision = replace(decision, n_integer=n)
    achieved = constraint_value(scenarios, n)
    return StochSolveReport(
        decision=decision,
        expected_wait=achieved,
        objective=cost * decision.n_continuous,
        method=method,
        epsilon=eps,
        feasible=achieved <= eps + FEASIBILITY_TOL,
        slack=eps - achieved,
        evaluations=evaluations,
        converged=converged,
    )


def _reduced_decision(scenarios, eps, bound="exact"):
    # solve_reduced's decision and bisection result, without the report
    key = select_key_scenario(scenarios, eps)
    target = (eps - scenarios.tail_sums()[key + 1]) / scenarios.probs[key]
    result = bisect_decreasing(wait_curve(scenarios.rates[key], bound), target)
    return _decide(scenarios, key, result.root), result


def solve_reduced(scenarios, epsilon, cost=1.0, bound="exact"):
    """Reduced-model solve keyed to the tail-sum scenario.

    Scenarios above the key are written off as fully waiting and those
    below as never waiting, leaving one equation in beta:

        p_key * wait(Lam_key + beta*sqrt(Lam_key)) = epsilon - tail_above_key.

    The selection rule guarantees the right-hand side lies in (0, p_key),
    so a root exists. The report's expected_wait re-evaluates the full
    constraint with the exact curve at the decision's n_integer, the
    repaired rounding. Where the reduced model at finite rates puts the
    root over a server too low, the box holds no feasible level, which
    shows up as feasible=False and a negative slack rather than an error.
    """
    eps = check_epsilon(epsilon)
    c = positive(cost, "cost per server")
    bound = check_bound(bound)
    decision, result = _reduced_decision(scenarios, eps, bound)
    method = "reduced-exact" if bound == "exact" else "reduced-ub"
    return _report(scenarios, decision, c, method, eps,
                   result.evaluations, result.converged)


def solve_exact_enumeration(scenarios, epsilon, cost=1.0, key_index=None):
    """Full-constraint solve, enumerating candidate key scenarios.

    For each candidate key, lowest rate first, the full expected-wait
    constraint is driven to epsilon by bisection on beta. Cost is charged
    per server and every key parameterizes the same constraint in n, so
    the first key whose root lies within the bracket reaches the cheapest
    level any key does (a higher key either finds the same level or
    starts above it) and wins; the keys after it are not tried, and
    evaluations counts only its search. Keys whose root would need a
    safety factor beyond the bracket cap are skipped, and when every key
    is, InfeasibleError lists them all. key_index pins the search to one
    candidate.

    The report's feasible, expected_wait and slack score the decision's
    n_integer, the root's rounding or, when that misses, the next level.
    """
    scenarios = of_type(scenarios, "scenarios", ScenarioSet)
    eps = check_epsilon(epsilon)
    c = positive(cost, "cost per server")
    if key_index is None:
        candidates = range(len(scenarios))
    else:
        candidates = (integer(key_index, "key_index", below=len(scenarios)),)

    failures = []
    for key in candidates:
        rate = scenarios.rates[key]
        root = math.sqrt(rate)

        def full(beta, rate=rate, root=root):
            return constraint_value(scenarios, rate + beta * root)

        try:
            result = bisect_decreasing(full, eps)
        except BracketError as exc:
            failures.append(f"key {key}: {exc}")
            continue
        return _report(scenarios, _decide(scenarios, key, result.root), c,
                       "exact-enumeration", eps, result.evaluations, result.converged)
    raise InfeasibleError(
        "no key scenario admits a feasible safety factor within the "
        "bracket; " + "; ".join(failures))
