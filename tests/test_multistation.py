"""Tests for the multi-station weighted solver and its bound-gap diagnostics."""
import math

import numpy as np
import pytest

from qstaff.erlang import erlang_c_sqrt, wait_probability
from qstaff.errors import DomainError
from qstaff.frontier import CostFunction
from qstaff.multistation import (
    MultiStationInstance,
    MultiSolveReport,
    exact_objective,
    objective_gap,
    solve_multi,
)
from qstaff.frontier import solve_weighted

# a bool, an int beyond float range, nan and a string: none is an input number
BAD_NUMBERS = (True, 10**400, math.nan, "3")


def beta_linear(coef=1.0):
    return CostFunction(kind="linear-beta", coefficient=coef)


class TestInstanceValidation:
    def test_single_cost_broadcasts(self):
        inst = MultiStationInstance(lambdas=(10.0, 20.0), costs=beta_linear(), delta=5.0)
        assert len(inst.costs) == 2
        # a bare per-server price stands for a linear-servers cost, as in solve_multi
        priced = MultiStationInstance(lambdas=(10.0, 20.0), costs=(1.0, 2.0), delta=5.0)
        assert priced.costs == (CostFunction("linear-servers", 1.0),
                                CostFunction("linear-servers", 2.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            MultiStationInstance(lambdas=(), costs=beta_linear(), delta=1.0)
        with pytest.raises(DomainError):
            MultiStationInstance(lambdas=(10.0, -1.0), costs=beta_linear(), delta=1.0)
        with pytest.raises(DomainError):
            MultiStationInstance(lambdas=(10.0,), costs=beta_linear(), delta=0.0)
        with pytest.raises(DomainError):
            MultiStationInstance(lambdas=(10.0,), costs=(beta_linear(),) * 2, delta=1.0)
        with pytest.raises(DomainError):
            MultiStationInstance(lambdas=5.0, costs=CostFunction(), delta=1.0)
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                MultiStationInstance(lambdas=(10.0, bad), costs=beta_linear(), delta=1.0)
            with pytest.raises(DomainError):
                MultiStationInstance(lambdas=(10.0,), costs=beta_linear(), delta=bad)


class TestSolveMulti:
    def test_single_station_reduces_to_weighted(self):
        lam, delta = 150.0, 300.0
        inst = MultiStationInstance(lambdas=(lam,), costs=beta_linear(), delta=delta)
        multi = solve_multi(inst)
        single = solve_weighted(lam, delta)
        assert multi.betas[0] == pytest.approx(single.beta, abs=1e-6)
        assert multi.objective == pytest.approx(single.objective, rel=1e-9)

    def test_symmetry(self):
        inst = MultiStationInstance(lambdas=(120.0, 120.0),
                                    costs=(beta_linear(2.0), beta_linear(2.0)),
                                    delta=80.0)
        rep = solve_multi(inst)
        assert rep.betas[0] == pytest.approx(rep.betas[1], abs=1e-6)
        assert rep.converged

    def test_joint_wait_product_identity(self):
        inst = MultiStationInstance(lambdas=(90.0, 40.0, 150.0),
                                    costs=beta_linear(), delta=60.0)
        rep = solve_multi(inst)
        prod = 1.0
        for w in rep.per_station_wait:
            prod *= 1.0 - w
        assert rep.joint_wait == pytest.approx(1.0 - prod, abs=1e-12)
        # union form by inclusion-exclusion must agree with the product form
        w1, w2, w3 = rep.per_station_wait
        union = (w1 + w2 + w3 - w1 * w2 - w1 * w3 - w2 * w3 + w1 * w2 * w3)
        assert rep.joint_wait == pytest.approx(union, abs=1e-12)

    def test_matches_dense_grid_oracle(self):
        # brute-force 2-D scan, vectorized through the separable structure
        lams = (450.0, 200.0)
        coefs = (5.0, 3.0)
        delta = 50.0
        inst = MultiStationInstance(
            lambdas=lams, costs=tuple(beta_linear(c) for c in coefs), delta=delta)
        rep = solve_multi(inst)

        step = 1e-3
        grid = np.arange(0.0, 4.0 + step, step)
        no_wait = []
        for lam in lams:
            vals = np.array([1.0 - wait_probability(max(lam + b * math.sqrt(lam), 1.0), lam)
                             for b in grid])
            no_wait.append(vals)
        cost1 = coefs[0] * grid
        cost2 = coefs[1] * grid
        # objective(b1, b2) = cost1 + cost2 + delta*(1 - nw1*nw2); scan b2 inside
        best = math.inf
        arg = (0.0, 0.0)
        for i, b1 in enumerate(grid):
            row = cost1[i] + cost2 + delta * (1.0 - no_wait[0][i] * no_wait[1])
            j = int(np.argmin(row))
            if row[j] < best:
                best = float(row[j])
                arg = (float(b1), float(grid[j]))
        assert arg[0] not in (0.0, 4.0) and arg[1] not in (0.0, 4.0)
        assert rep.objective == pytest.approx(best, abs=1e-3)

    def test_coordinatewise_minimality(self):
        inst = MultiStationInstance(lambdas=(100.0, 60.0),
                                    costs=(beta_linear(2.0), beta_linear(1.0)),
                                    delta=40.0)
        rep = solve_multi(inst)

        def objective(bs):
            nw = 1.0
            for b, lam in zip(bs, inst.lambdas):
                nw *= 1.0 - wait_probability(max(lam + b * math.sqrt(lam), 1.0), lam)
            return (sum(c.beta_cost(b, lam) for b, lam, c in zip(bs, inst.lambdas, inst.costs))
                    + inst.delta * (1.0 - nw))

        base = objective(rep.betas)
        for i in range(2):
            for d in (-1e-3, 1e-3):
                bs = list(rep.betas)
                bs[i] = max(bs[i] + d, 0.0)
                assert objective(bs) >= base - 1e-6


    @pytest.mark.parametrize("lam, delta", [(1.0, 1e8), (4.0, 1e9)])
    def test_optimum_beyond_initial_bracket(self, lam, delta):
        # the optimum lies past beta = 8, where the slice bracket must double
        inst = MultiStationInstance((lam,), CostFunction(), delta)
        rep = solve_multi(inst)
        assert rep.betas[0] == pytest.approx(solve_weighted(lam, delta).beta, abs=1e-3)
        assert rep.betas[0] > 8.0
        assert rep.objective == pytest.approx(exact_objective(inst, rep.betas), rel=1e-12)


class TestObjectiveGap:
    def test_nonnegative_on_grid(self):
        inst = MultiStationInstance(lambdas=(100.0, 50.0), costs=beta_linear(), delta=20.0)
        for b1 in (0.0, 0.5, 1.5, 3.0):
            for b2 in (0.0, 1.0, 2.5):
                assert objective_gap(inst, (b1, b2)) >= 0.0

    def test_zero_staffing_gap_is_zero(self):
        inst = MultiStationInstance(lambdas=(100.0, 50.0), costs=beta_linear(), delta=20.0)
        assert objective_gap(inst, (0.0, 0.0)) == 0.0

    def test_gap_shrinks_under_scaling(self):
        # max sampled gap decreases as both rates scale up by m
        samples = [(0.5, 0.5), (1.0, 1.5), (2.0, 1.0), (2.5, 2.5)]
        maxima = []
        for m in (1, 10, 100):
            inst = MultiStationInstance(
                lambdas=(100.0 * m, 50.0 * m), costs=beta_linear(), delta=20.0)
            maxima.append(max(objective_gap(inst, bs) for bs in samples))
        assert maxima[0] > maxima[1] > maxima[2]

    def test_solution_gap_shrinks_under_scaling(self):
        # exact-objective value of the bound-based solution approaches the
        # exact optimum as the system scales
        gaps = []
        for m in (1, 10, 100):
            inst = MultiStationInstance(
                lambdas=(100.0 * m, 50.0 * m), costs=beta_linear(), delta=20.0)
            f_rep = solve_multi(inst, bound="exact")
            g_rep = solve_multi(inst, bound="upper")

            def exact_objective(bs):
                nw = 1.0
                for b, lam in zip(bs, inst.lambdas):
                    nw *= 1.0 - wait_probability(max(lam + b * math.sqrt(lam), 1.0), lam)
                return (sum(c.beta_cost(b, lam)
                            for b, lam, c in zip(bs, inst.lambdas, inst.costs))
                        + inst.delta * (1.0 - nw))

            gap = exact_objective(g_rep.betas) - exact_objective(f_rep.betas)
            gaps.append(max(gap, 0.0))
        assert gaps[0] > gaps[-1]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_validation(self):
        inst = MultiStationInstance(lambdas=(100.0,), costs=beta_linear(), delta=20.0)
        with pytest.raises(DomainError):
            objective_gap(inst, (0.5, 0.5))
        with pytest.raises(DomainError):
            objective_gap(inst, (-1.0,))
        with pytest.raises(DomainError):
            exact_objective(inst, (0.5, 0.5))
        for call in (lambda: solve_multi("x"), lambda: exact_objective("x", (0.5,)),
                     lambda: objective_gap("x", (0.5,))):
            with pytest.raises(DomainError, match="must be a MultiStationInstance"):
                call()
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                objective_gap(inst, (bad,))
            with pytest.raises(DomainError):
                exact_objective(inst, (bad,))


class TestTinyWaits:
    # 1 - prod(1 - w_i) rounds to zero once every w_i is below about 1e-16,
    # which hid the wait term from the objective at large delta

    def test_single_station_follows_weighted_solve_to_the_cap(self):
        inst = MultiStationInstance((1.0,), CostFunction(), 1e200)
        rep = solve_multi(inst)
        single = solve_weighted(1.0, 1e200)
        assert rep.betas[0] == pytest.approx(single.beta, abs=1e-6)
        assert rep.objective == pytest.approx(single.objective, rel=1e-9)
        assert rep.joint_wait == rep.per_station_wait[0] > 0.0
        assert not rep.converged        # beta stopped by the search box
        assert rep.objective == pytest.approx(exact_objective(inst, rep.betas), rel=1e-12)

    def test_exact_objective_keeps_sub_epsilon_waits(self):
        lams, betas, delta = (20.0, 30.0), (12.0, 14.0), 1e100
        inst = MultiStationInstance(lams, beta_linear(), delta)
        waits = [wait_probability(lam + b * math.sqrt(lam), lam)
                 for lam, b in zip(lams, betas)]
        assert 0.0 < max(waits) < 1e-17     # 1 - w rounds to 1
        wait_term = exact_objective(inst, betas) - sum(betas)
        assert wait_term == pytest.approx(delta * sum(waits), rel=1e-12)
