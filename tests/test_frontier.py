"""Tests for single-station constrained/weighted solves and frontier sweeps."""
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from qstaff.erlang import BOUND_CHOICES, erlang_c_sqrt, jvlz_bounds, wait_curve
from qstaff.errors import BracketError, DomainError
from qstaff.frontier import (
    CostFunction,
    frontier_csv_rows,
    integer_staffing,
    solve_constrained,
    solve_weighted,
    sweep_frontier,
)
from qstaff.joint import solve_weighted_stoch
from qstaff.multistation import MultiStationInstance
from qstaff.scenarios import JointScenarioSet
from qstaff.search import bisect_decreasing

# a bool, an int beyond float range, nan and a string: none is an input number
BAD_NUMBERS = (True, 10**400, math.nan, "3")

# Frozen from a dense grid scan (step 1e-4) of beta + 1e6*wait(beta) at lam=100.
WEIGHTED_GRID_ORACLE_BETA = 5.49820


class TestCostFunction:
    def test_default_unit_linear_beta(self):
        c = CostFunction()
        assert c.beta_cost(2.5, 100.0) == 2.5

    def test_linear_servers(self):
        c = CostFunction(kind="linear-servers", coefficient=5.0)
        assert c.beta_cost(2.0, 100.0) == pytest.approx(5.0 * 120.0)

    def test_table_interpolation(self):
        c = CostFunction(kind="table", table=((0.0, 0.0), (1.0, 10.0), (3.0, 40.0)))
        assert c.beta_cost(0.5, 1.0) == pytest.approx(5.0)
        assert c.beta_cost(2.0, 1.0) == pytest.approx(25.0)
        assert c.beta_cost(4.0, 1.0) == pytest.approx(55.0)  # linear extension

    def test_table_must_increase(self):
        with pytest.raises(DomainError):
            CostFunction(kind="table", table=((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(DomainError):
            CostFunction(kind="table", table=((0.0, 1.0),))
        with pytest.raises(DomainError):
            CostFunction(kind="table", table=((0, 0), (1, math.inf)))

    def test_bad_kind_and_coefficient(self):
        with pytest.raises(DomainError):
            CostFunction(kind="quadratic")
        with pytest.raises(DomainError):
            CostFunction(coefficient=-2.0)
        with pytest.raises(DomainError):
            CostFunction("linear-servers", math.inf)
        with pytest.raises(DomainError):
            CostFunction("linear-beta", True)
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                CostFunction("linear-servers", bad)
            with pytest.raises(DomainError):
                CostFunction(kind="table", table=((0.0, 0.0), (1.0, bad)))


class TestConstrained:
    def test_round_trip_through_wait_curve(self):
        lam = 450.0
        eps = erlang_c_sqrt(2.15, lam)
        rep = solve_constrained(lam, eps)
        assert rep.beta == pytest.approx(2.15, abs=1e-6)
        assert rep.converged
        assert abs(rep.residual) <= 1e-9

    def test_near_certain_wait_allows_zero_staffing(self):
        rep = solve_constrained(100.0, 0.9999999)
        assert rep.beta < 1e-6

    def test_beta_decreasing_in_epsilon(self):
        lam = 80.0
        betas = [solve_constrained(lam, e).beta for e in (0.01, 0.05, 0.2, 0.5, 0.9)]
        assert all(a >= b for a, b in zip(betas, betas[1:]))

    def test_epsilon_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5, *BAD_NUMBERS):
            with pytest.raises(DomainError):
                solve_constrained(100.0, bad)
        # only None stands for the default cost
        for bad in (0, "x"):
            with pytest.raises(DomainError):
                solve_constrained(100.0, 0.1, cost=bad)

    def test_upper_bound_dominates_and_stays_feasible(self):
        for lam in (10.0, 100.0, 1000.0):
            for eps in (0.01, 0.1, 0.5):
                exact = solve_constrained(lam, eps)
                conservative = solve_constrained(lam, eps, bound="upper")
                assert conservative.beta >= exact.beta
                assert erlang_c_sqrt(conservative.beta, lam) <= eps + 1e-12

    def test_lower_bound_is_optimistic(self):
        for lam in (10.0, 100.0, 1000.0):
            for eps in (0.01, 0.1, 0.5):
                assert (solve_constrained(lam, eps, bound="lower").beta
                        <= solve_constrained(lam, eps).beta + 1e-9)

    def test_bound_gap_shrinks_with_lambda(self):
        gaps = []
        for lam in (1e2, 1e3, 1e4, 1e5):
            gaps.append(solve_constrained(lam, 0.1, bound="upper").beta
                        - solve_constrained(lam, 0.1).beta)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2

    def test_hw_curve_close_at_large_lambda(self):
        approx = solve_constrained(1e4, 0.1, bound="hw")
        exact = solve_constrained(1e4, 0.1)
        assert approx.beta == pytest.approx(exact.beta, abs=1e-2)

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(math.log(1e-3), math.log(1e6)).map(math.exp),
           eps=st.floats(1e-12, 0.999))
    @example(lam=100.0, eps=0.05)
    @example(lam=0.5, eps=0.65)      # the curve starts below epsilon: the _LO return
    @example(lam=1e12, eps=0.05)
    @example(lam=1e300, eps=0.5)     # lam + beta*sqrt(lam) == lam: no bracket
    def test_same_root_as_bisecting_the_curve(self, lam, eps):
        # the reduced model on one scenario is the direct bisection of the
        # curve at epsilon, bit for bit, evaluation count included
        for bound in BOUND_CHOICES:
            try:
                ref = bisect_decreasing(wait_curve(lam, bound), eps)
            except BracketError as exc:
                with pytest.raises(BracketError, match=f"^{re.escape(str(exc))}$"):
                    solve_constrained(lam, eps, bound=bound)
                continue
            rep = solve_constrained(lam, eps, bound=bound)
            assert (rep.beta, rep.evaluations, rep.converged, rep.residual) == (
                ref.root, ref.evaluations, ref.converged, ref.residual)

    def test_pinned_roots(self):
        rep = solve_constrained(100.0, 0.05)
        assert (rep.beta, rep.evaluations, rep.converged) == (1.8145278690692512, 12, True)
        low = solve_constrained(0.5, 0.65)
        assert (low.beta, low.evaluations) == (1e-8, 1)
        with pytest.raises(BracketError, match="no root below"):
            solve_constrained(1e300, 0.5)

    @pytest.mark.parametrize("lam", [0, -1, math.nan, math.inf, True, "100"])
    def test_bad_arrival_rate(self, lam):
        with pytest.raises(DomainError, match="arrival rate"):
            solve_constrained(lam, 0.1)

    def test_bracket_exhaustion_reported(self):
        # at lam=10 the wait curve bottoms out near 1e-193 at the beta cap
        with pytest.raises(BracketError):
            solve_constrained(10.0, 1e-200)


class TestWeighted:
    def test_vanishing_delta_buys_nothing(self):
        rep = solve_weighted(100.0, 1e-9)
        assert rep.beta <= 1e-5

    def test_matches_dense_grid_oracle(self):
        rep = solve_weighted(100.0, 1e6)
        assert rep.beta == pytest.approx(WEIGHTED_GRID_ORACLE_BETA, abs=1e-3)

    def test_upper_bound_objective_dominates(self):
        lam, delta = 200.0, 400.0
        f = solve_weighted(lam, delta)
        g = solve_weighted(lam, delta, bound="upper")
        assert g.objective >= f.objective - 1e-12

    def test_extreme_point_on_frontier_hull(self):
        lam, delta = 100.0, 500.0
        rep = solve_weighted(lam, delta)
        sweep = sweep_frontier(lam, [0.02 + 0.02 * k for k in range(40)])
        hull_best = min(p.cost + delta * p.wait_prob for p in sweep)
        assert rep.objective <= hull_best + 1e-6

    def test_delta_validation(self):
        with pytest.raises(DomainError):
            solve_weighted(100.0, 0.0)
        with pytest.raises(DomainError):
            solve_weighted(100.0, 5.0, bound="lower")
        for bad in (0, "x"):
            with pytest.raises(DomainError):
                solve_weighted(100.0, 5.0, cost=bad)


class TestSweep:
    def test_nine_point_grid_monotone(self):
        lam = 100.0
        grid = [0.1 * k for k in range(1, 10)]
        sweep = sweep_frontier(lam, grid)
        assert len(sweep) == 9 and not sweep.failures
        betas = [p.beta for p in sweep]
        costs = [p.cost for p in sweep]
        assert all(a > b for a, b in zip(betas, betas[1:]))
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        for p in sweep:
            assert p.wait_prob <= p.epsilon + 1e-9

    def test_singleton_reproduces_solve(self):
        lam = 64.0
        sweep = sweep_frontier(lam, [0.2])
        rep = solve_constrained(lam, 0.2)
        assert sweep[0].beta == rep.beta
        assert sweep[0].cost == rep.objective

    def test_upper_frontier_costs_dominate(self):
        lam = 500.0
        grid = [0.05, 0.1, 0.2, 0.4]
        exact = sweep_frontier(lam, grid)
        upper = sweep_frontier(lam, grid, bound="upper")
        for pe, pu in zip(exact, upper):
            assert pu.cost >= pe.cost

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sweep_frontier(100.0, [])
        with pytest.raises(DomainError):
            sweep_frontier(100.0, [0.5, 0.5])
        with pytest.raises(DomainError):
            sweep_frontier(100.0, [0.5, 0.3])
        # a bad rate or bound is refused once, not recorded per epsilon
        with pytest.raises(DomainError):
            sweep_frontier(True, [0.1, 0.2])
        with pytest.raises(DomainError):
            sweep_frontier(100.0, [0.1], bound="nope")
        for bad in (0, "x"):
            with pytest.raises(DomainError):
                sweep_frontier(100.0, [0.1, 0.2], cost=bad)

    def test_sub_unit_load_clamps_to_one_server(self):
        sweep = sweep_frontier(0.5, [0.05, 0.5])
        assert sweep.failures == ()
        assert [p.epsilon for p in sweep] == [0.05, 0.5]

    def test_per_point_failure_recorded(self):
        sweep = sweep_frontier(10.0, [1e-200, 0.5])
        assert len(sweep) == 1
        assert len(sweep.failures) == 1
        assert sweep.failures[0][0] == 1e-200
        assert "Bracket" in sweep.failures[0][1]

    def test_csv_rows(self):
        lam = 100.0
        sweep = sweep_frontier(lam, [0.1, 0.3], bound="upper")
        rows = frontier_csv_rows(lam, sweep, bound="upper")
        assert [r["epsilon"] for r in rows] == [0.1, 0.3]
        for r in rows:
            assert r["n_integer"] == integer_staffing(r["n_continuous"])
            assert r["wait_prob_bound"] >= r["wait_prob_exact"]
            assert set(r) == {"epsilon", "beta", "n_continuous", "n_integer",
                              "cost", "wait_prob_exact", "wait_prob_bound"}


def test_integer_staffing_rounds_to_nearest():
    assert integer_staffing(306.05) == 306
    assert integer_staffing(235.49) == 235
    assert integer_staffing(235.51) == 236
    assert integer_staffing(0.2) == 1


@pytest.mark.parametrize("delta", [True, math.inf, math.nan, 0.0, -1.0,
                                   pytest.param(10**400, id="huge-int"), "3"])
@pytest.mark.parametrize("entry", ["solve_weighted", "multistation", "solve_weighted_stoch"])
def test_delta_checked_alike(entry, delta):
    with pytest.raises(DomainError):
        if entry == "solve_weighted":
            solve_weighted(100.0, delta)
        elif entry == "multistation":
            MultiStationInstance((100.0,), CostFunction(), delta)
        else:
            solve_weighted_stoch(JointScenarioSet(((100.0, 50.0),), (1.0,)), delta, (1.0, 1.0))


def test_grid_then_golden_reports_a_minimizer_at_the_cap():
    from qstaff.search import BETA_CAP, BETA_HI, grid_then_golden

    x, _, _, at_cap = grid_then_golden(lambda b: -b)
    assert x == pytest.approx(BETA_CAP, abs=1e-6)
    assert at_cap
    # past BETA_HI but inside the cap: the box widens and the search settles
    x, _, _, at_cap = grid_then_golden(lambda b: (b - 1.25 * BETA_HI) ** 2)
    assert x == pytest.approx(1.25 * BETA_HI, abs=1e-6)
    assert not at_cap


def test_weighted_solve_stopped_by_the_cap_is_not_converged():
    from qstaff.search import BETA_CAP

    # at lam=1 the wait term keeps falling faster than the cost rises all
    # the way to the cap, so the search box stops beta, not the objective
    rep = solve_weighted(1.0, 1e200)
    assert rep.beta == pytest.approx(BETA_CAP, abs=1e-6)
    assert not rep.converged
    assert solve_weighted(1.0, 1e8).converged     # optimum past BETA_HI
    assert solve_weighted(100.0, 50.0).converged


@pytest.mark.parametrize("bound", ["lower", "hw", "nope"])
@pytest.mark.parametrize("entry", ["solve_weighted", "solve_reduced", "multistation",
                                   "solve_weighted_stoch"])
def test_bound_checked_alike(entry, bound):
    from qstaff.multistation import solve_multi
    from qstaff.scenarios import ScenarioSet
    from qstaff.stochastic import solve_reduced

    with pytest.raises(DomainError, match="bound must be exact or upper"):
        if entry == "solve_weighted":
            solve_weighted(100.0, 5.0, bound=bound)
        elif entry == "solve_reduced":
            solve_reduced(ScenarioSet((100.0, 200.0), (0.6, 0.4)), 0.5, bound=bound)
        elif entry == "multistation":
            solve_multi(MultiStationInstance((100.0,), CostFunction(), 5.0), bound=bound)
        else:
            solve_weighted_stoch(JointScenarioSet(((100.0, 50.0),), (1.0,)), 5.0,
                                 (1.0, 1.0), bound=bound)
