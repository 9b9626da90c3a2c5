"""Single-station stochastic staffing: key-scenario rule, reduced and
exact solvers, and the asymptotic-agreement sweeps.

Golden values are the Example-1 marginal problems: queue 1 with rates
(350, 450) and probs (0.66, 0.34), queue 2 with rates (100, 200, 300)
and probs (0.58, 0.38, 0.04), both at epsilon = 1 - sqrt(0.95).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstaff import stochastic
from qstaff.erlang import wait_probability
from qstaff.errors import BracketError, DomainError, InfeasibleError, KeyScenarioTieError
from qstaff.frontier import solve_constrained
from qstaff.scenarios import ScenarioSet
from qstaff.search import bisect_decreasing
from qstaff.stochastic import (
    constraint_value,
    select_key_scenario,
    solve_exact_enumeration,
    solve_reduced,
    wait_curve,
)

EPS_SPLIT = 1.0 - math.sqrt(0.95)     # per-station target so both stations jointly hit 0.95
QUEUE1 = ScenarioSet((350.0, 450.0), (0.66, 0.34))
QUEUE2 = ScenarioSet((100.0, 200.0, 300.0), (0.58, 0.38, 0.04))
# a bool, an int beyond float range, nan and a string: none is an input number
BAD_NUMBERS = (True, 10**400, math.nan, "3")

# frozen roots of the reduced equations, computed by independent bisection
# against the continuous Erlang-C oracle
QUEUE1_BETA = 1.590625079
QUEUE2_BETA = 0.349444612


def sweep_set(m):
    return ScenarioSet((100.0 * m, 200.0 * m), (0.7, 0.3))


def cheapest_of_every_key(scenarios, eps):
    """Reference enumeration: solve the full constraint at every key and
    keep the lowest level, near-ties (relative 1e-9) going to the lowest
    key. Returns (key, beta, n, converged), or None when no key brackets."""
    best = None
    for key, rate in enumerate(scenarios.rates):
        def full(beta, rate=rate):
            return constraint_value(scenarios, rate + beta * math.sqrt(rate))

        try:
            result = bisect_decreasing(full, eps)
        except BracketError:
            continue
        n = rate + result.root * math.sqrt(rate)
        if best is None or n < best[2] * (1.0 - 1e-9):
            best = (key, result.root, n, result.converged)
    return best


class TestSelectKeyScenario:
    def test_two_scenarios_picks_high(self):
        assert select_key_scenario(QUEUE1, EPS_SPLIT) == 1

    def test_three_scenarios_picks_high(self):
        # the largest rate alone carries 0.04 >= epsilon
        assert select_key_scenario(QUEUE2, EPS_SPLIT) == 2

    def test_single_scenario(self):
        s = ScenarioSet((100.0,), (1.0,))
        assert select_key_scenario(s, 0.1) == 0

    def test_interior_key(self):
        s = ScenarioSet((100.0, 200.0, 300.0), (0.5, 0.3, 0.2))
        # tails are (1.0, 0.5, 0.2); epsilon 0.3 lands between 0.5 and 0.2
        assert select_key_scenario(s, 0.3) == 1

    def test_tail_tie_is_an_error(self):
        s = ScenarioSet((100.0, 200.0, 300.0), (0.5, 0.3, 0.2))
        with pytest.raises(KeyScenarioTieError):
            select_key_scenario(s, 0.2)
        with pytest.raises(KeyScenarioTieError):
            select_key_scenario(s, 0.5)

    @pytest.mark.parametrize("eps", [1e-12, 5e-13, 1e-15])
    @pytest.mark.parametrize("s", [ScenarioSet((100.0,), (1.0,)), QUEUE1, QUEUE2],
                             ids=["one", "two", "three"])
    def test_empty_tail_never_ties(self, s, eps):
        # the tail past the last rate is 0.0, within the tie tolerance of
        # these epsilons, but it is no scenario's tail
        assert select_key_scenario(s, eps) == len(s) - 1

    def test_epsilon_above_the_total_has_no_key(self):
        # the probabilities sum to 1 - 5e-13, which the set accepts, so
        # epsilon = 1 - 1e-13 passes the epsilon check and tops every tail
        s = ScenarioSet((1.0, 2.0), (0.5, 0.5 - 5e-13))
        assert s.tail_sums()[0] == 0.9999999999995
        with pytest.raises(DomainError, match="not below the scenario set's total"):
            select_key_scenario(s, 1.0 - 1e-13)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, float("nan")])
    def test_epsilon_domain(self, eps):
        with pytest.raises(DomainError):
            select_key_scenario(QUEUE1, eps)

    # epsilon >= 0.01 never comes near the empty tail's 0.0, the case
    # test_empty_tail_never_ties covers
    @given(st.integers(min_value=1, max_value=5), st.floats(min_value=0.01, max_value=0.99))
    def test_rule_inequalities(self, k, eps):
        probs = tuple(1.0 / k for _ in range(k))
        s = ScenarioSet(tuple(100.0 * (i + 1) for i in range(k)), probs)
        tails = s.tail_sums()
        if any(abs(t - eps) <= 1e-12 for t in tails[1:-1]):
            with pytest.raises(KeyScenarioTieError):
                select_key_scenario(s, eps)
            return
        key = select_key_scenario(s, eps)
        assert tails[key] > eps > tails[key + 1]


class TestConstraintValue:
    def test_unstable_scenarios_count_fully(self):
        s = ScenarioSet((100.0, 200.0), (0.7, 0.3))
        assert constraint_value(s, 90.0) == 1.0
        # staffing between the rates: the high scenario is saturated
        mid = constraint_value(s, 150.0)
        assert mid == pytest.approx(0.3 + 0.7 * wait_probability(150.0, 100.0), abs=1e-15)

    def test_matches_weighted_sum(self):
        val = constraint_value(QUEUE2, 310.0)
        want = sum(p * wait_probability(310.0, r) for r, p in QUEUE2.pairs())
        assert val == pytest.approx(want, rel=1e-14)

    def test_decreasing_in_n(self):
        values = [constraint_value(QUEUE1, n) for n in (460.0, 480.0, 500.0, 520.0)]
        for a, b in zip(values, values[1:]):
            assert a > b

    def test_rejects_bad_staffing(self):
        for bad in (0.0, *BAD_NUMBERS):
            with pytest.raises(DomainError):
                constraint_value(QUEUE1, bad)


class TestSolveReduced:
    def test_queue1_golden(self):
        rep = solve_reduced(QUEUE1, EPS_SPLIT, cost=5.0)
        assert rep.decision.key_index == 1
        assert rep.decision.beta == pytest.approx(QUEUE1_BETA, abs=1e-6)
        assert rep.decision.beta == pytest.approx(1.6, abs=0.05)
        assert rep.decision.n_integer == 484
        assert rep.method == "reduced-exact"
        assert rep.objective == pytest.approx(5.0 * rep.decision.n_continuous, rel=1e-15)

    def test_queue2_golden(self):
        rep = solve_reduced(QUEUE2, EPS_SPLIT, cost=3.0)
        assert rep.decision.key_index == 2
        assert rep.decision.beta == pytest.approx(QUEUE2_BETA, abs=1e-6)
        assert rep.decision.beta == pytest.approx(0.36, abs=0.05)
        # n = 306.05 rounds down to 306, whose full wait 0.025427 misses
        # the target 0.025321; the report repairs it to 307
        assert rep.decision.n_integer == 307
        assert rep.feasible

    def test_queue2_low_rate_insensitive(self):
        # the reduced equation only touches the key scenario's rate, so
        # shifting the lowest rate from 100 to 150 cannot move beta
        shifted = ScenarioSet((150.0, 200.0, 300.0), (0.58, 0.38, 0.04))
        a = solve_reduced(QUEUE2, EPS_SPLIT)
        b = solve_reduced(shifted, EPS_SPLIT)
        assert a.decision.beta == pytest.approx(b.decision.beta, abs=1e-12)
        assert a.decision.n_integer == b.decision.n_integer == 307

    def test_single_scenario_reduces_to_constrained(self):
        s = ScenarioSet((100.0,), (1.0,))
        for bound in ("exact", "upper"):
            rep = solve_reduced(s, 0.1, bound=bound)
            base = solve_constrained(100.0, 0.1, bound=bound)
            assert rep.decision.beta == pytest.approx(base.beta, abs=1e-9)

    def test_full_constraint_report(self):
        rep = solve_reduced(QUEUE1, EPS_SPLIT)
        # at these rates the below-key term is tiny, so the continuous level
        # meets the full constraint within tolerance; the report re-evaluates
        # the full constraint at the integer staffing, which rounds up here
        continuous = constraint_value(QUEUE1, rep.decision.n_continuous)
        assert continuous == pytest.approx(EPS_SPLIT, abs=1e-9)
        assert rep.expected_wait == constraint_value(QUEUE1, rep.decision.n_integer)
        assert rep.expected_wait < continuous
        assert rep.feasible
        assert rep.slack == EPS_SPLIT - rep.expected_wait

    @pytest.mark.parametrize("solve", [solve_reduced, solve_exact_enumeration])
    def test_report_scores_the_integer_staffing(self, solve):
        # the root 118.1 rounds down to 118 servers, whose exact wait
        # 0.051584 misses the target: the report repairs the rounding to
        # 119 and scores that, not the root
        rep = solve(ScenarioSet((100.0,), (1.0,)), 0.05)
        assert rep.decision.n_continuous < rep.decision.n_integer == 119
        assert rep.expected_wait == wait_probability(119, 100.0) == 0.041509703036053995
        assert rep.feasible
        assert rep.slack == 0.05 - rep.expected_wait

    def test_rhs_validity(self):
        for s, eps in ((QUEUE1, EPS_SPLIT), (QUEUE2, EPS_SPLIT), (sweep_set(1), 0.2)):
            key = select_key_scenario(s, eps)
            tails = s.tail_sums()
            rhs = eps - tails[key + 1]
            assert 0.0 < rhs <= s.probs[key] + 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_reduced(QUEUE1, EPS_SPLIT, bound="lower")
        with pytest.raises(DomainError):
            solve_reduced(QUEUE1, EPS_SPLIT, cost=0.0)
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                solve_reduced(QUEUE1, EPS_SPLIT, cost=bad)
            with pytest.raises(DomainError):
                solve_exact_enumeration(QUEUE1, EPS_SPLIT, cost=bad)
        with pytest.raises(KeyScenarioTieError):
            solve_reduced(ScenarioSet((100.0, 200.0), (0.5, 0.5)), 0.5)
        for call in (lambda: solve_reduced("x", EPS_SPLIT),
                     lambda: solve_exact_enumeration("x", EPS_SPLIT),
                     lambda: select_key_scenario("x", EPS_SPLIT),
                     lambda: constraint_value("x", 400)):
            with pytest.raises(DomainError, match="must be a ScenarioSet"):
                call()

    def test_sub_unit_rates_staff_one_server(self):
        # the continuous level sits below half a server; the curves treat
        # it as one server, and so does the integer decision
        rep = solve_reduced(ScenarioSet((0.1, 0.3), (0.5, 0.5)), 0.6)
        assert rep.decision.n_continuous < 0.5
        assert rep.decision.n_integer == 1


class TestSolveExactEnumeration:
    def test_single_scenario_matches_constrained(self):
        s = ScenarioSet((100.0,), (1.0,))
        rep = solve_exact_enumeration(s, 0.1)
        base = solve_constrained(100.0, 0.1)
        assert rep.decision.beta == pytest.approx(base.beta, abs=1e-9)
        assert rep.method == "exact-enumeration"

    def test_constraint_active_and_feasible(self):
        # the continuous root meets the constraint with equality; the
        # report scores the integer staffing: the rounding 204 misses and
        # gives way to 205, the rounding 2014 meets it
        for m, n in ((1, 205), (10, 2014)):
            rep = solve_exact_enumeration(sweep_set(m), 0.2)
            continuous = constraint_value(sweep_set(m), rep.decision.n_continuous)
            assert continuous == pytest.approx(0.2, abs=1e-8)
            assert rep.decision.n_integer == n
            assert rep.feasible
            assert rep.expected_wait <= 0.2 < constraint_value(sweep_set(m), n - 1)

    def test_nonanticipative_single_staffing(self):
        rep = solve_exact_enumeration(sweep_set(1), 0.2)
        n = rep.decision.n_integer
        assert rep.expected_wait == constraint_value(sweep_set(1), n)

    def test_key_pinning(self):
        rep = solve_exact_enumeration(sweep_set(1), 0.2, key_index=1)
        assert rep.decision.key_index == 1
        assert solve_exact_enumeration(sweep_set(1), 0.2, key_index=np.int64(1)) == rep
        for bad in (7, True, 0.9, 1.7, "1", 1.0, -1, 10**400):
            with pytest.raises(DomainError):
                solve_exact_enumeration(sweep_set(1), 0.2, key_index=bad)

    def test_enumeration_no_worse_than_any_pin(self):
        s = sweep_set(1)
        best = solve_exact_enumeration(s, 0.2)
        for key in range(len(s)):
            pinned = solve_exact_enumeration(s, 0.2, key_index=key)
            assert best.objective <= pinned.objective * (1.0 + 1e-9)

    @settings(max_examples=80, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(0.5, 5000.0), st.integers(1, 20)),
                          min_size=1, max_size=4, unique_by=lambda pair: pair[0]),
           eps=st.floats(1e-4, 0.6))
    def test_matches_the_cheapest_of_every_key(self, pairs, eps):
        total = sum(w for _, w in pairs)
        s = ScenarioSet([r for r, _ in pairs], [w / total for _, w in pairs])
        reference = cheapest_of_every_key(s, eps)
        if reference is None:
            with pytest.raises(InfeasibleError):
                solve_exact_enumeration(s, eps)
            return
        rep = solve_exact_enumeration(s, eps)
        d = rep.decision
        assert (d.key_index, d.beta, d.n_continuous, rep.converged) == reference

    def test_stops_at_the_first_key_that_brackets(self, monkeypatch):
        # key 0 cannot reach epsilon within the bracket, key 1 can and wins,
        # so key 2 is never searched and only key 1's search is counted
        s = ScenarioSet((1.0, 50.0, 400.0), (0.2, 0.3, 0.5))
        pinned = solve_exact_enumeration(s, 0.05, key_index=1)
        searched = []

        def counted_bisect(fn, target, guess=None):
            searched.append(fn)
            return bisect_decreasing(fn, target, guess)

        monkeypatch.setattr(stochastic, "bisect_decreasing", counted_bisect)
        rep = solve_exact_enumeration(s, 0.05)
        assert len(searched) == 2
        assert rep.decision == pinned.decision
        assert rep.evaluations == pinned.evaluations
        assert rep.decision.beta == pytest.approx(53.594, abs=1e-3)

    def test_infeasible_when_bracket_exhausted(self):
        s = ScenarioSet((1.0,), (1.0,))
        with pytest.raises(InfeasibleError):
            solve_exact_enumeration(s, 1e-300)

    def test_anticipative_relaxation_is_not_a_decision(self):
        # Allowing a different staffing level per scenario drops the
        # expected server count below what any single decision needs, but
        # the per-scenario levels disagree, so no nonanticipative policy
        # realizes that relaxation. Kept as a documented negative example.
        s = sweep_set(1)
        per_scenario = [r + solve_constrained(r, 0.2).beta * math.sqrt(r)
                        for r in s.rates]
        assert per_scenario[0] != pytest.approx(per_scenario[1], abs=1.0)
        relaxed = sum(p * n for n, (_, p) in zip(per_scenario, s.pairs()))
        committed = solve_exact_enumeration(s, 0.2).decision.n_continuous
        assert relaxed < committed


class TestAsymptoticAgreement:
    """Scaled-rate sweeps m * (100, 200), probs (0.7, 0.3), epsilon 0.2."""

    MS = (1, 10, 100)

    def test_reduced_matches_pinned_exact(self):
        # at the documented instance the off-key term is below double
        # resolution already at m=1, so the gap sits at the solver floor;
        # assert the floor and the non-increasing trend
        gaps = []
        for m in self.MS:
            s = sweep_set(m)
            key = select_key_scenario(s, 0.2)
            exact = solve_exact_enumeration(s, 0.2, key_index=key)
            reduced = solve_reduced(s, 0.2)
            gaps.append(abs(exact.decision.beta - reduced.decision.beta))
        assert all(g <= 2e-9 for g in gaps)
        clamped = [max(g, 1e-10) for g in gaps]
        for a, b in zip(clamped, clamped[1:]):
            assert b <= a

    def test_key_choice_stabilizes(self):
        s = sweep_set(100)
        rep = solve_exact_enumeration(s, 0.2)
        assert rep.decision.key_index == select_key_scenario(s, 0.2)

    def test_off_key_error_term_vanishes(self):
        # the reduced model writes off every non-key scenario; its true
        # contribution at the reduced solution shrinks with m
        errs = []
        for m in self.MS:
            s = sweep_set(m)
            rep = solve_reduced(s, 0.2)
            n = rep.decision.n_continuous
            err = 0.0
            key = rep.decision.key_index
            for idx, (rate, p) in enumerate(s.pairs()):
                if idx == key:
                    continue
                w = 1.0 if rate >= n else wait_probability(n, rate)
                lost = 1.0 if rate > s.rates[key] else 0.0
                err += p * abs(w - lost)
            errs.append(err)
        assert errs[0] > errs[1] > errs[2] >= 0.0

    def test_upper_bound_solution_feasible_from_above(self):
        slacks = []
        for m in self.MS:
            rep = solve_reduced(sweep_set(m), 0.2, bound="upper")
            slacks.append(0.2 - constraint_value(sweep_set(m), rep.decision.n_continuous))
            # the report scores the repaired rounding, which may still miss
            assert rep.slack == 0.2 - rep.expected_wait
            assert rep.feasible == (rep.slack >= -stochastic.FEASIBILITY_TOL)
        # the continuous level is conservative at every m, with the margin
        # shrinking toward zero
        assert all(sl > 0.0 for sl in slacks)
        assert slacks[0] > slacks[1] > slacks[2]

    def test_degenerate_scenario_limits(self):
        # fixed beta keyed to the middle rate of m * (100, 200, 300): the
        # higher-rate scenario saturates at wait probability one while the
        # lower-rate scenario's wait vanishes as m grows
        lows = []
        for m in self.MS:
            key_rate = 200.0 * m
            n = key_rate + math.sqrt(key_rate)
            assert wait_probability(n, 300.0 * m) == 1.0
            lows.append(wait_probability(n, 100.0 * m))
        assert lows[0] > lows[1] > lows[2] >= 0.0


class TestWaitCurve:
    def test_decreasing_from_one(self):
        curve = wait_curve(100.0)
        assert curve(0.0) == 1.0
        assert curve(0.5) > curve(1.0) > curve(2.0)

    def test_bound_routing(self):
        lam = 200.0
        exact = wait_curve(lam)(1.0)
        upper = wait_curve(lam, bound="upper")(1.0)
        assert upper >= exact

    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError):
            wait_curve(-1.0)
