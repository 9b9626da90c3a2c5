"""Tests for the multi-station joint solvers and the comparison table."""
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qstaff import erlang, joint
from qstaff.erlang import wait_probability
from qstaff.errors import (
    DomainError,
    EnumerationCapError,
    InfeasibleError,
    KeyScenarioTieError,
)
from qstaff.frontier import CostFunction, integer_staffing, solve_constrained, solve_weighted
from qstaff.joint import (
    JointDecision,
    compare_solutions,
    enumerate_key_scenarios,
    joint_constraint_value,
    solve_decoupled,
    solve_joint,
    solve_joint_exact_integer,
    solve_reduced_joint,
    solve_weighted_stoch,
)
from qstaff.scenarios import JointScenarioSet, ScenarioSet
from qstaff.search import _N_GRID, BETA_CAP, SLICE_XTOL
from qstaff.stochastic import FEASIBILITY_TOL, solve_reduced

from .oracles import mp_erlang_c

EPSILON = 0.05
PRICES = (5.0, 3.0)
JOINT_RATES = ((350.0, 100.0), (350.0, 200.0), (350.0, 300.0),
               (450.0, 100.0), (450.0, 200.0), (450.0, 300.0))
JOINT_PROBS = (0.48, 0.17, 0.01, 0.10, 0.21, 0.03)

# frozen solver outputs for the two-station call-center instance
JOINT_BETAS = (2.150449, 2.478334)
JOINT_STAFFING = (496, 235)
JOINT_COST = 3185.0
JOINT_QOS = 0.950246622098
DECOUPLED_BETAS = (1.590625079, 0.349444612)
DECOUPLED_STAFFING = (484, 306)
DECOUPLED_COST = 3338.0
DECOUPLED_QOS = 0.9512743877711
LATTICE_STAFFING = (495, 236)
LATTICE_COST = 3183.0
LATTICE_QOS = 0.950113179928
# a bool, an int beyond float range, nan and a string: none is an input number
BAD_NUMBERS = (True, 10**400, math.nan, "3")
# what a key index is not: a bool, a fraction, a string, a float however
# integral, and ints out of range
BAD_KEYS = (True, 0.9, 1.7, "1", 1.0, -1, 10**400)


def instance(scale=1.0):
    rates = tuple((r1 * scale, r2 * scale) for r1, r2 in JOINT_RATES)
    return JointScenarioSet(rates, JOINT_PROBS)


def product_instance(*marginals):
    return JointScenarioSet.from_product(
        [ScenarioSet(rates, probs) for rates, probs in marginals])


# the three- and four-station stress instances S3 and S4
S3 = product_instance(((300.0, 400.0, 500.0), (0.5, 0.3, 0.2)),
                      ((100.0, 200.0), (0.7, 0.3)),
                      ((50.0, 80.0, 120.0), (0.6, 0.3, 0.1)))
S4_MARGINALS = (((300.0, 400.0), (0.7, 0.3)),
                ((100.0, 200.0), (0.7, 0.3)),
                ((50.0, 80.0), (0.8, 0.2)),
                ((150.0, 180.0), (0.6, 0.4)))
S4 = product_instance(*S4_MARGINALS)
# S5: S4's four marginals plus a fifth station
S5 = product_instance(*S4_MARGINALS, ((60.0, 90.0), (0.5, 0.5)))
# the 64-scenario stress instance S64, uniform over 8 rates per station
S64 = product_instance((tuple(300.0 + 25.0 * k for k in range(8)), (0.125,) * 8),
                       (tuple(100.0 + 20.0 * k for k in range(8)), (0.125,) * 8))
S64_KEY = (7, 7)


def brute_force_lattice(scenarios, epsilon, costs):
    """Cheapest feasible integer vector by joint_constraint_value alone;
    the lexicographically smallest wins ties. None when none is feasible.

    A station is saturated at a level where its no-wait is 1.0 against
    every rate: no vector can do better there, and a higher level only
    costs more. Raising every station together, each held at its
    saturation level once there, gives a feasible vector of cost B unless
    even the saturated corner falls short. Every vector costing at most B
    is then scanned in lexicographic order, pruned by cost, each station
    stopping at its saturation level and each prefix skipped when even
    saturated later stations cannot meet the target; the last station
    stops at its first feasible level.
    """
    target = 1.0 - epsilon
    stations = scenarios.stations

    def saturated(i, n):
        return all(r < n and 1.0 - wait_probability(n, r) == 1.0
                   for r in scenarios.marginal(i).rates)

    top = []
    for i in range(stations):
        n = 1
        while not saturated(i, n):
            n += 1
        top.append(n)

    def feasible(n):
        return joint_constraint_value(scenarios, n) >= target

    def cost_of(n):
        return sum(c * x for c, x in zip(costs, n))

    if not feasible(tuple(top)):
        return None
    level = 1
    while not feasible(tuple(min(level, t) for t in top)):
        level += 1
    budget = cost_of(tuple(min(level, t) for t in top))
    best = None

    def too_dear(cost):
        return cost > budget if best is None else cost >= best[0]

    def scan(head):
        nonlocal best
        i = len(head)
        for n in range(1, top[i] + 1):
            point = head + (n,)
            if too_dear(cost_of(point + (1,) * (stations - i - 1))):
                return
            if i == stations - 1:
                if feasible(point):
                    best = (cost_of(point), point)
                    return
            elif feasible(point + tuple(top[i + 1:])):
                scan(point)

    scan(())
    return best


def brute_force_box(scenarios, epsilon, costs, n):
    """What an epsilon-mode report staffs for the rounding n, by
    joint_constraint_value alone: n when it meets the target within
    FEASIBILITY_TOL; otherwise the cheapest feasible point of the box of
    three levels per station from max(n_i - 1, 1), the lexicographically
    smallest winning ties, or n when none is feasible."""
    target = 1.0 - epsilon
    if joint_constraint_value(scenarios, n) + FEASIBILITY_TOL >= target:
        return n
    best = None
    for point in itertools.product(*(range(max(k - 1, 1), max(k - 1, 1) + 3) for k in n)):
        cost = sum(c * x for c, x in zip(costs, point))
        if best is None or cost < best[0]:
            if joint_constraint_value(scenarios, point) >= target:
                best = (cost, point)
    return n if best is None else best[1]


@st.composite
def small_joint_problems(draw):
    # cost ratios up to 100, and optionally a thin top: one more scenario,
    # carrying less than epsilon, at two to four times one station's rate,
    # so that the optimum may staff that station far above the rest
    stations = draw(st.integers(1, 4))
    rate = st.floats(0.5, (20.0, 20.0, 3.0, 1.5)[stations - 1])
    grids = [draw(st.lists(rate, min_size=1, max_size=3, unique=True))
             for _ in range(stations)]
    vectors = draw(st.lists(st.tuples(*(st.sampled_from(g) for g in grids)),
                            min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(vectors),
                            max_size=len(vectors)))
    epsilon = draw(st.floats(0.02, 0.3))
    probs = [w / math.fsum(weights) for w in weights]
    if draw(st.booleans()):
        base = list(draw(st.sampled_from(vectors)))
        station = draw(st.integers(0, stations - 1))
        base[station] *= draw(st.floats(2.0, 4.0))
        thin = draw(st.floats(0.1, 0.9)) * epsilon
        vectors = vectors + [tuple(base)]
        probs = [p * (1.0 - thin) for p in probs] + [thin]
    scenarios = JointScenarioSet(tuple(vectors), tuple(probs))
    price = st.floats(math.log(0.5), math.log(50.0)).map(math.exp)
    if draw(st.booleans()):
        costs = (draw(price),) * stations
    else:
        costs = tuple(draw(price) for _ in range(stations))
    return scenarios, epsilon, costs


@st.composite
def small_product_problems(draw):
    # product sets at two to four stations, each with one to three rates
    # in [2, 40], and per-server costs in [1, 5]
    stations = draw(st.integers(2, 4))
    marginals = []
    for _ in range(stations):
        rates = draw(st.lists(st.floats(2.0, 40.0), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(rates),
                                max_size=len(rates)))
        marginals.append(ScenarioSet(rates, [w / math.fsum(weights) for w in weights]))
    costs = tuple(draw(st.floats(1.0, 5.0)) for _ in range(stations))
    return JointScenarioSet.from_product(marginals), draw(st.floats(0.02, 0.3)), costs


@st.composite
def coupled_marginals(draw):
    # two marginals of 2-3 rates each, as (ascending rates, exact probabilities)
    marginals = []
    for _ in range(2):
        rates = sorted(draw(st.lists(st.floats(20.0, 400.0), min_size=2, max_size=3,
                                     unique=True)))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(rates),
                                max_size=len(rates)))
        marginals.append((rates, [Fraction(w, sum(weights)) for w in weights]))
    epsilon = draw(st.floats(0.02, 0.3))
    costs = (draw(st.floats(1.0, 5.0)), draw(st.floats(1.0, 5.0)))
    return marginals, epsilon, costs


TOP_HEAVY = [Fraction(15, 25), Fraction(9, 25), Fraction(1, 25)]


def coupled_masses(marginals, t):
    """The two marginals' independent product mixed, with weight |t|, with
    their comonotone quantile coupling (t > 0) or antitone one (t < 0), as
    the exact mass of each rate pair."""
    (rates_a, p), (rates_b, q) = marginals

    def intervals(probs):
        edges = list(itertools.accumulate(probs, initial=Fraction(0)))
        return list(zip(edges, edges[1:]))

    across = intervals(p)
    down = [(1 - hi, 1 - lo) if t < 0 else (lo, hi) for lo, hi in intervals(q)]
    cells = {}
    for (i, a), (j, b) in itertools.product(enumerate(across), enumerate(down)):
        extreme = max(Fraction(0), min(a[1], b[1]) - max(a[0], b[0]))
        mass = (1 - abs(t)) * p[i] * q[j] + abs(t) * extreme
        if mass > 0:
            cells[(rates_a[i], rates_b[j])] = mass
    return cells


def coupled(marginals, t):
    """coupled_masses(marginals, t) as a scenario set."""
    cells = coupled_masses(marginals, t)
    return JointScenarioSet(tuple(cells), tuple(float(m) for m in cells.values()))


def mp_joint_qos(scenarios, n):
    # independent route: integer Erlang-C waits at 40 digits
    total = 0.0
    for rates, p in scenarios.pairs():
        prod = p
        for level, rate in zip(n, rates):
            prod *= 0.0 if rate >= level else 1.0 - mp_erlang_c(level, rate)
        total += prod
    return total


def reference_no_wait(scenarios, levels):
    # the joint no-wait summed scenario by scenario
    total = 0.0
    for rates, p in scenarios.pairs():
        prod = p
        for level, rate in zip(levels, rates):
            prod *= 0.0 if rate >= level else 1.0 - wait_probability(level, rate)
        total += prod
    return total


@st.composite
def joint_sets_and_levels(draw):
    # joint sets that are in general not products, with real levels that
    # may fall below some scenario rates
    stations = draw(st.integers(1, 4))
    grids = [draw(st.lists(st.floats(0.5, 8.0), min_size=1, max_size=3, unique=True))
             for _ in range(stations)]
    vectors = draw(st.lists(st.tuples(*(st.sampled_from(g) for g in grids)),
                            min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(vectors),
                            max_size=len(vectors)))
    total = math.fsum(weights)
    scenarios = JointScenarioSet(tuple(vectors), tuple(w / total for w in weights))
    levels = tuple(draw(st.floats(1.0, 12.0)) for _ in range(stations))
    return scenarios, levels


@st.composite
def keyed_sets(draw):
    # non-product joint sets with a key vector, a u_i per station in
    # [0, 1] and an epsilon
    scenarios, _ = draw(joint_sets_and_levels())
    keys = tuple(draw(st.integers(0, len(m) - 1)) for m in scenarios.marginals)
    u = tuple(draw(st.floats(0.0, 1.0)) for _ in keys)
    return scenarios, keys, u, draw(st.floats(0.02, 0.6))


@st.composite
def two_station_keyed_problems(draw):
    # two-station joint sets, in general not products, at two to three
    # rates a station in [5, 400], with a key, epsilon and costs
    grids = [draw(st.lists(st.floats(5.0, 400.0), min_size=1, max_size=3, unique=True))
             for _ in range(2)]
    vectors = draw(st.lists(st.tuples(*(st.sampled_from(g) for g in grids)),
                            min_size=2, max_size=6, unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(vectors),
                            max_size=len(vectors)))
    total = math.fsum(weights)
    scenarios = JointScenarioSet(tuple(vectors), tuple(w / total for w in weights))
    keys = tuple(draw(st.integers(0, len(m) - 1)) for m in scenarios.marginals)
    costs = (draw(st.floats(1.0, 5.0)), draw(st.floats(1.0, 5.0)))
    return scenarios, draw(st.floats(0.02, 0.3)), costs, keys


def grid_basins(values):
    """Local minima of a slice sampled on a grid: finite values below the
    point before and not above the point after (inf past either end)."""
    padded = [math.inf, *values, math.inf]
    return sum(math.isfinite(v) and v < before and v <= after
               for before, v, after in zip(padded, padded[1:], padded[2:]))


def reduced_reference(scenarios, keys, u):
    # the reduced constraint summed scenario by scenario: a station's
    # factor is 0 above its key rate, 1 below it and u_i at it
    key_rates = [m.rates[k] for m, k in zip(scenarios.marginals, keys)]
    total = 0.0
    for rates, p in scenarios.pairs():
        for rate, key_rate, x in zip(rates, key_rates, u):
            if rate > key_rate:
                p = 0.0
            elif rate == key_rate:
                p *= x
        total += p
    return total


class TestJointConstraintValue:
    @settings(max_examples=200, deadline=None)
    @given(joint_sets_and_levels())
    def test_fold_matches_per_scenario_loop(self, problem):
        scenarios, levels = problem
        assert joint._joint_no_wait(scenarios, levels) == pytest.approx(
            reference_no_wait(scenarios, levels), rel=0.0, abs=1e-14)

    def test_matches_mp_oracle_at_joint_staffing(self):
        value = joint_constraint_value(instance(), JOINT_STAFFING)
        assert value == pytest.approx(mp_joint_qos(instance(), JOINT_STAFFING), rel=1e-10)
        assert value == pytest.approx(JOINT_QOS, abs=1e-9)

    def test_matches_mp_oracle_at_decoupled_staffing(self):
        value = joint_constraint_value(instance(), DECOUPLED_STAFFING)
        assert value == pytest.approx(mp_joint_qos(instance(), DECOUPLED_STAFFING), rel=1e-10)
        assert value == pytest.approx(DECOUPLED_QOS, abs=1e-9)

    def test_both_solutions_near_the_target(self):
        for n in (JOINT_STAFFING, DECOUPLED_STAFFING):
            assert joint_constraint_value(instance(), n) == pytest.approx(0.95, abs=5e-3)

    def test_single_scenario_is_inclusion_exclusion(self):
        one = JointScenarioSet(((450.0, 200.0),), (1.0,))
        w1 = wait_probability(496, 450.0)
        w2 = wait_probability(235, 200.0)
        value = joint_constraint_value(one, (496, 235))
        assert value == pytest.approx(1.0 - w1 - w2 + w1 * w2, rel=1e-14)

    def test_saturated_station_zeroes_every_scenario(self):
        # every realized rate at station 1 reaches the staffing level
        assert joint_constraint_value(instance(), (300, 1000)) == 0.0

    def test_monotone_in_each_coordinate(self):
        base = joint_constraint_value(instance(), (490, 230))
        assert joint_constraint_value(instance(), (491, 230)) >= base
        assert joint_constraint_value(instance(), (490, 231)) >= base

    @pytest.mark.parametrize("n", [(496,), (496, 235, 10), (0.5, 235), (float("nan"), 235),
                                   *((bad, 235) for bad in BAD_NUMBERS), 496])
    def test_rejects_bad_staffing(self, n):
        with pytest.raises(DomainError):
            joint_constraint_value(instance(), n)

    @given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 1), st.integers(0, 1))
    def test_value_in_unit_interval_and_monotone(self, n1, n2, d1, d2):
        small = JointScenarioSet(((5.0, 9.0), (12.0, 9.0), (12.0, 21.0)),
                                 (0.5, 0.25, 0.25))
        value = joint_constraint_value(small, (n1, n2))
        bumped = joint_constraint_value(small, (n1 + d1, n2 + d2))
        assert 0.0 <= value <= 1.0
        assert bumped >= value


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=("bool", "huge-int", "nan", "str"))
@pytest.mark.parametrize("solve", [solve_decoupled, enumerate_key_scenarios])
def test_per_server_costs_checked(solve, bad):
    with pytest.raises(DomainError):
        solve(instance(), EPSILON, (bad, 3.0))


@pytest.mark.parametrize("call", [
    lambda s: solve_joint(s, EPSILON, (1.0,)),
    lambda s: compare_solutions(s, EPSILON, (1.0,)),
    lambda s: joint_constraint_value(s, (300,)),
    lambda s: solve_decoupled(s, EPSILON, (1.0,)),
    lambda s: enumerate_key_scenarios(s, EPSILON, (1.0,)),
    lambda s: solve_reduced_joint(s, EPSILON, (1.0,), key_indices=(0,)),
    lambda s: solve_joint_exact_integer(s, EPSILON, (1.0,)),
    lambda s: solve_weighted_stoch(s, 20.0, (1.0,)),
], ids=("joint", "compare", "constraint", "decoupled", "enumerate", "reduced-joint",
        "lattice", "weighted"))
def test_joint_solvers_refuse_a_single_station_set(call):
    # a joint solver reads a JointScenarioSet; a ScenarioSet is refused, not converted
    with pytest.raises(DomainError, match="must be a JointScenarioSet, got ScenarioSet"):
        call(ScenarioSet((200.0, 300.0), (0.6, 0.4)))


# one station at sub-unit rates: key 0 writes off half the mass, and key 1
# needs a safety factor past the bracket cap to wait with probability <= 1e-9
TINY_RATES = JointScenarioSet(((0.001,), (0.002,)), (0.5, 0.5))


@pytest.mark.parametrize("call, reason", [
    (lambda: solve_reduced_joint(TINY_RATES, 1e-9, (1.0,), (1,)),
     "beyond the bracket cap"),
    (lambda: enumerate_key_scenarios(TINY_RATES, 1e-9, (1.0,)),
     "every candidate key scenario is infeasible"),
    (lambda: solve_joint_exact_integer(
        JointScenarioSet(((5.0,), (7.0,), (9.0,)), (0.7, 0.2, 0.1)), 1e-300, (1.0,)),
     "unreachable even at saturated staffing"),
], ids=("reduced-joint-cap", "enumerate-all-keys", "lattice-saturated"))
def test_unreachable_target_is_infeasible(call, reason):
    with pytest.raises(InfeasibleError, match=reason):
        call()


class TestSolveDecoupled:
    def test_call_center_instance(self):
        rep = solve_decoupled(instance(), EPSILON, PRICES)
        assert rep.decision.betas == pytest.approx(DECOUPLED_BETAS, abs=1e-6)
        assert rep.decision.n_integer == DECOUPLED_STAFFING
        assert rep.integer_cost == DECOUPLED_COST
        assert rep.method == "decoupled"
        assert rep.feasible
        assert rep.achieved_qos == pytest.approx(DECOUPLED_QOS, abs=1e-9)

    def test_matches_single_station_solves_on_marginals(self):
        # even risk split puts each station on its own reduced model
        rep = solve_decoupled(instance(), EPSILON, PRICES)
        split = 1.0 - math.sqrt(1.0 - EPSILON)
        for i in range(2):
            single = solve_reduced(instance().marginal(i), split)
            assert rep.decision.betas[i] == pytest.approx(single.decision.beta, abs=1e-9)
            assert rep.decision.key_rates[i] == single.decision.key_rate

    def test_insensitive_to_sub_key_rate_position(self):
        # moving the low station-2 scenario from 100 to 150 changes nothing
        moved = tuple((r1, 150.0 if r2 == 100.0 else r2) for r1, r2 in JOINT_RATES)
        rep = solve_decoupled(instance(), EPSILON, PRICES)
        alt = solve_decoupled(JointScenarioSet(moved, JOINT_PROBS), EPSILON, PRICES)
        assert alt.decision.betas == pytest.approx(rep.decision.betas, abs=1e-12)
        assert alt.decision.n_integer == rep.decision.n_integer

    def test_depends_only_on_marginals(self):
        product = JointScenarioSet.from_product(
            [instance().marginal(0), instance().marginal(1)])
        rep = solve_decoupled(instance(), EPSILON, PRICES)
        alt = solve_decoupled(product, EPSILON, PRICES)
        assert alt.decision.betas == pytest.approx(rep.decision.betas, abs=1e-12)


def count_dependent_roots(monkeypatch):
    """Patch joint's root search to record each dependent root's
    evaluations and guess; returns the two lists it fills."""
    evaluations, guesses = [], []
    bisect = joint.bisect_decreasing

    def counted_bisect(fn, target, guess=None):
        result = bisect(fn, target, guess)
        evaluations.append(result.evaluations)
        guesses.append(guess)
        return result

    monkeypatch.setattr(joint, "bisect_decreasing", counted_bisect)
    return evaluations, guesses


class TestSolveReducedJoint:
    def test_dependent_roots_start_at_the_previous_root(self, monkeypatch):
        # as in solve_joint: measured 161 evaluations over S64's 17 roots,
        # where the grid search took 50 roots and 407 evaluations, and
        # 12.9 a root when every search starts from scratch
        evaluations, guesses = count_dependent_roots(monkeypatch)
        solve_reduced_joint(S64, EPSILON, PRICES, key_indices=S64_KEY)
        assert guesses[0] is None and guesses[1] is not None
        assert sum(evaluations) <= 185

    @settings(max_examples=150, deadline=None)
    @given(keyed_sets())
    @example((JointScenarioSet(((1.0, 1.0), (4.0, 4.0)), (0.9, 0.1)), (1, 1), (0.5, 0.5),
              0.2))     # over-conservative at two stations: 0.9 below both keys
    def test_fold_matches_per_scenario_trichotomy(self, problem):
        scenarios, keys, u, eps = problem
        vectors = [joint._reduced_vector(m, k, x)
                   for m, k, x in zip(scenarios.marginals, keys, u)]
        folded = joint._dot(joint._fold(scenarios, vectors[:-1]), vectors[-1])
        assert folded == pytest.approx(reduced_reference(scenarios, keys, u),
                                       rel=0.0, abs=1e-14)
        # the surviving mass (every u_i = 1) decides infeasibility and the
        # mass below every key rate (every u_i = 0) over-conservatism; a
        # mass this close to the target sits where summation order decides
        target = 1.0 - eps
        surviving = reduced_reference(scenarios, keys, (1.0,) * len(keys))
        below = reduced_reference(scenarios, keys, (0.0,) * len(keys))
        assume(abs(surviving - target) > 1e-12 and abs(below - target) > 1e-12)
        costs = (1.0,) * scenarios.stations
        if surviving <= target:
            with pytest.raises(InfeasibleError, match="keeps probability mass"):
                solve_reduced_joint(scenarios, eps, costs, keys)
            return
        # a key with the surviving mass always solves: where descent from
        # beta = 1 leaves every dependent beta past the bracket cap, it is
        # run again from a higher common start
        rep = solve_reduced_joint(scenarios, eps, costs, keys)
        assert rep.over_conservative == (below >= target)

    def test_selected_key_golden(self):
        rep = solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(1, 1))
        assert rep.decision.key_rates == (450.0, 200.0)
        assert rep.decision.betas == pytest.approx(JOINT_BETAS, abs=2e-6)
        assert rep.decision.betas == pytest.approx((2.15, 2.48), abs=0.02)
        assert rep.decision.n_integer == JOINT_STAFFING
        assert rep.integer_cost == JOINT_COST
        assert rep.server_cost == pytest.approx(3183.236, abs=2e-3)
        assert rep.achieved_qos == pytest.approx(JOINT_QOS, abs=1e-9)
        assert rep.feasible and not rep.over_conservative
        assert rep.method == "reduced-joint"

    def test_conservative_key_is_dominated(self):
        # keying station 2 to its highest rate wastes servers
        rep = solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(1, 2))
        assert rep.decision.betas == pytest.approx((1.557042, 0.379011), abs=1e-4)
        assert rep.decision.n_integer == (483, 307)
        assert rep.server_cost == pytest.approx(3334.843, abs=0.01)
        assert rep.server_cost > 3183.3
        assert rep.feasible

    @pytest.mark.parametrize("key", [(0, 0), (0, 1)])
    def test_low_keys_cannot_reach_target(self, key):
        # mass written off above the key leaves less than 1 - epsilon
        with pytest.raises(InfeasibleError):
            solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=key)

    def test_over_conservative_key_flags_and_zeroes(self):
        sure = JointScenarioSet(((10.0,), (100.0,)), (0.96, 0.04))
        rep = solve_reduced_joint(sure, 0.05, (1.0,), key_indices=(1,))
        assert rep.over_conservative
        assert rep.decision.betas == (0.0,)
        assert rep.decision.n_integer == (100,)
        assert rep.feasible
        assert rep.achieved_qos == pytest.approx(0.96, abs=1e-9)

    def test_deterministic_instance_active_and_locally_optimal(self):
        det = JointScenarioSet(((450.0, 200.0),), (1.0,))
        rep = solve_reduced_joint(det, EPSILON, PRICES, key_indices=(0, 0))
        # the walk from beta = 1 with Brent stopped at SLICE_XTOL; the grid
        # search at Brent's default tolerance stopped at (1.969962091,
        # 2.218436914), 1.0e-6 away in beta_2 on a slice that pins its
        # minimizer only to about 1e-5
        assert rep.decision.betas == pytest.approx((1.969961490, 2.218437916), abs=1e-6)
        # no costlier than golden-section search left it
        assert 5.0 * rep.decision.betas[0] + 3.0 * rep.decision.betas[1] <= (
            16.505121196782024 + 1e-9)
        n1, n2 = rep.decision.n_continuous
        no_wait = (1.0 - wait_probability(n1, 450.0)) * (1.0 - wait_probability(n2, 200.0))
        assert no_wait == pytest.approx(0.95, abs=1e-8)

        def partner_beta(b1):
            # smallest beta_2 keeping the product constraint active
            u_needed = 0.95 / (1.0 - wait_probability(450.0 + b1 * math.sqrt(450.0), 450.0))
            lo, hi = 0.0, 16.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                n = 200.0 + mid * math.sqrt(200.0)
                if 1.0 - wait_probability(n, 200.0) >= u_needed:
                    hi = mid
                else:
                    lo = mid
            return hi

        b1 = rep.decision.betas[0]
        base = 5.0 * b1 + 3.0 * partner_beta(b1)
        for h in (0.05, 0.01):
            assert 5.0 * (b1 + h) + 3.0 * partner_beta(b1 + h) >= base - 1e-9
            assert 5.0 * (b1 - h) + 3.0 * partner_beta(b1 - h) >= base - 1e-9

    def test_single_station_reduces_to_scalar_solver(self):
        one = JointScenarioSet(((200.0,),), (1.0,))
        rep = solve_reduced_joint(one, EPSILON, (1.0,), key_indices=(0,))
        scalar = solve_constrained(200.0, EPSILON)
        assert rep.decision.betas[0] == pytest.approx(scalar.beta, abs=1e-8)

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_reduced_joint(instance(), EPSILON, (5.0,), key_indices=(1, 1))
        with pytest.raises(DomainError):
            solve_reduced_joint(instance(), EPSILON, (5.0, -3.0), key_indices=(1, 1))
        with pytest.raises(DomainError):
            solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(1,))
        with pytest.raises(DomainError):
            solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(1, 5))
        with pytest.raises(DomainError):
            solve_reduced_joint(instance(), 1.5, PRICES, key_indices=(1, 1))
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                solve_reduced_joint(instance(), EPSILON, (bad, 3.0), key_indices=(1, 1))
        for bad in BAD_KEYS:
            with pytest.raises(DomainError):
                solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(bad, 1))
        assert (solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(np.int64(1), 1))
                == solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(1, 1)))


class TestEnumerateKeyScenarios:
    def test_call_center_key_and_cost(self):
        rep = enumerate_key_scenarios(instance(), EPSILON, PRICES)
        assert rep.decision.key_indices == (1, 1)
        assert rep.decision.key_rates == (450.0, 200.0)
        assert rep.decision.n_integer == JOINT_STAFFING
        assert rep.server_cost == pytest.approx(3183.236, abs=2e-3)
        assert rep.integer_cost == JOINT_COST

    def test_beats_every_pinned_feasible_key(self):
        best = enumerate_key_scenarios(instance(), EPSILON, PRICES)
        for k1 in range(2):
            for k2 in range(3):
                try:
                    pinned = solve_reduced_joint(
                        instance(), EPSILON, PRICES, key_indices=(k1, k2))
                except InfeasibleError:
                    continue
                assert best.server_cost <= pinned.server_cost * (1.0 + 1e-9)

    def test_cheaper_than_decoupled(self):
        best = enumerate_key_scenarios(instance(), EPSILON, PRICES)
        split = solve_decoupled(instance(), EPSILON, PRICES)
        assert best.server_cost < split.server_cost

    def test_cap_guards_the_key_lattice(self, monkeypatch):
        monkeypatch.setattr(joint, "KEY_CAP", 5)
        with pytest.raises(EnumerationCapError):
            enumerate_key_scenarios(instance(), EPSILON, PRICES)
        with pytest.raises(EnumerationCapError):
            solve_weighted_stoch(instance(), 1000.0, PRICES)
        monkeypatch.setattr(joint, "KEY_CAP", 6)
        enumerate_key_scenarios(instance(), EPSILON, PRICES)
        solve_weighted_stoch(instance(), 1000.0, PRICES)

    def test_single_station_matches_marginal_solve(self):
        one = JointScenarioSet(((100.0,), (200.0,)), (0.58, 0.42))
        rep = enumerate_key_scenarios(one, 0.1, (2.0,))
        single = solve_reduced(one.marginal(0), 0.1)
        assert rep.decision.key_rates == (200.0,)
        assert rep.decision.betas[0] == pytest.approx(single.decision.beta, abs=1e-9)
        assert rep.decision.n_integer == (214,)


class TestSolveJoint:
    def test_full_constraint_at_selected_key(self):
        rep = solve_joint(instance(), EPSILON, PRICES)
        assert rep.method == "joint"
        assert rep.decision.key_rates == (450.0, 200.0)
        assert rep.decision.betas == pytest.approx(JOINT_BETAS, abs=2e-6)
        assert rep.decision.n_integer == JOINT_STAFFING
        assert rep.integer_cost == JOINT_COST
        assert rep.achieved_qos == pytest.approx(JOINT_QOS, abs=1e-9)
        assert rep.feasible

    def test_refines_reduced_betas_marginally(self):
        # writing scenarios in and off misstates the constraint by so
        # little at this scale that the betas barely move
        full = solve_joint(instance(), EPSILON, PRICES)
        reduced = solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(1, 1))
        for bf, br in zip(full.decision.betas, reduced.decision.betas):
            assert bf == pytest.approx(br, abs=1e-4)

    def test_reports_converged_descent(self):
        rep = solve_joint(S64, EPSILON, PRICES, key_indices=S64_KEY)
        assert rep.converged
        assert 1 <= rep.cycles < joint.MAX_CYCLES

    def test_cycle_cap_reports_unconverged_descent(self, monkeypatch):
        free = solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1))
        assert free.converged and free.cycles > 1
        monkeypatch.setattr(joint, "MAX_CYCLES", 1)
        capped = solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1))
        assert (capped.cycles, capped.converged) == (1, False)

    def test_one_free_coordinate_is_searched_once(self, monkeypatch):
        # the confirming second cycle would search the same slice again,
        # so it is skipped and still counted; with no warm betas the one
        # search walks from beta = 1 and stops Brent at SLICE_XTOL: 20 slice
        # evaluations where the grid search took 50
        searches = []
        search = joint.grid_then_golden

        def counted(fn, start=None, xtol=None):
            found = search(fn, start, xtol)
            searches.append((start, xtol, found[2]))
            return found

        monkeypatch.setattr(joint, "grid_then_golden", counted)
        rep = solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1))
        [(start, xtol, evals)] = searches
        assert (start, xtol) == (1.0, SLICE_XTOL)
        assert evals <= 20
        assert (rep.cycles, rep.converged) == (2, True)
        assert rep.decision.betas == (2.150448330241279, 2.4783343586067703)

    def test_warm_free_coordinate_is_searched_once_by_a_walk(self, monkeypatch):
        # from the reduced betas, as compare_solutions starts it, the one
        # search walks out of the reduced free beta: 18 slice evaluations
        # where the grid search took 50
        warm = solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(1, 1))
        searches = []
        search = joint.grid_then_golden

        def counted(fn, start=None, xtol=None):
            found = search(fn, start, xtol)
            searches.append((start, xtol, found[2]))
            return found

        monkeypatch.setattr(joint, "grid_then_golden", counted)
        rep = solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1),
                          warm_betas=warm.decision.betas)
        [(start, xtol, evals)] = searches
        assert (start, xtol) == (warm.decision.betas[0], SLICE_XTOL)
        assert evals <= 18
        assert (rep.cycles, rep.converged) == (2, True)
        assert rep.decision.n_integer == JOINT_STAFFING
        assert rep.decision.betas == pytest.approx(JOINT_BETAS, abs=2e-6)

    def test_warm_betas_outside_the_box_scan_the_grid(self, monkeypatch):
        # a start past BETA_CAP is not probed: the search scans the grid,
        # still stopping Brent at SLICE_XTOL, and lands where the walk
        # from beta = 1 does
        walked = solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1))
        searches = []
        search = joint.grid_then_golden

        def counted(fn, start=None, xtol=None):
            found = search(fn, start, xtol)
            searches.append(found[2])
            return found

        monkeypatch.setattr(joint, "grid_then_golden", counted)
        far = solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1),
                          warm_betas=(100.0, 100.0))
        [evals] = searches
        assert evals >= _N_GRID
        assert far.decision.n_integer == walked.decision.n_integer == JOINT_STAFFING
        assert far.decision.betas == pytest.approx(walked.decision.betas, abs=4 * SLICE_XTOL)
        assert (far.cycles, far.converged) == (walked.cycles, walked.converged)

    def test_descent_free_reports_have_no_cycles(self):
        decoupled = solve_decoupled(instance(), EPSILON, PRICES)
        sure = JointScenarioSet(((10.0,), (100.0,)), (0.96, 0.04))
        conservative = solve_reduced_joint(sure, 0.05, (1.0,), key_indices=(1,))
        for rep in (decoupled, conservative):
            assert (rep.cycles, rep.converged) == (0, True)

    def test_bisection_step_costs_one_call_per_dependent_rate(self, monkeypatch):
        # the free station is folded once per dependent-beta solve, so each
        # evaluation inside the bisection makes at most one vector kernel
        # call, over the dependent station's rates
        calls = []
        per_step = []
        vector, bisect = joint._wait_vector, joint.bisect_decreasing

        def counted_vector(n, rates, bound="exact"):
            calls.append(len(rates))
            return vector(n, rates, bound)

        def watched_bisect(fn, target, guess=None):
            def step(x):
                before = len(calls)
                value = fn(x)
                per_step.append(calls[before:])
                return value
            return bisect(step, target, guess)

        monkeypatch.setattr(joint, "_wait_vector", counted_vector)
        monkeypatch.setattr(joint, "bisect_decreasing", watched_bisect)
        solve_joint(S64, EPSILON, PRICES, key_indices=S64_KEY)
        assert len(per_step) > 100
        assert max(len(step) for step in per_step) == 1
        assert all(size <= len(S64.marginal(1)) == 8 for step in per_step for size in step)

    def test_dependent_roots_start_at_the_previous_root(self, monkeypatch):
        # each dependent-beta search probes the last root first, which
        # descent moves only a little: measured 199 evaluations over S64's
        # 17 roots, where the grid search took 51 roots and 434
        # evaluations, and 14.8 a root when every search starts from scratch
        evaluations, guesses = count_dependent_roots(monkeypatch)
        solve_joint(S64, EPSILON, PRICES, key_indices=S64_KEY)
        assert guesses[0] == 1.0    # the descent's starting beta
        assert sum(evaluations) <= 230

    def test_written_off_key_still_solvable(self):
        # the full constraint never writes mass off, so a key the reduced
        # model rejects only needs larger safety factors
        rep = solve_joint(instance(), EPSILON, PRICES, key_indices=(0, 0))
        value = joint_constraint_value(instance(), rep.decision.n_continuous)
        assert value == pytest.approx(0.95, abs=1e-6)
        with pytest.raises(InfeasibleError):
            solve_reduced_joint(instance(), EPSILON, PRICES, key_indices=(0, 0))

    def test_rounding_can_lose_feasibility(self):
        # at the written-off key both levels round down and the rounding
        # (496, 234) at 3182 slips just under the target; the report walks
        # the box around it to the cheapest feasible point
        rep = solve_joint(instance(), EPSILON, PRICES, key_indices=(0, 0))
        rounded = tuple(integer_staffing(x) for x in rep.decision.n_continuous)
        assert rounded == (496, 234)
        assert joint_constraint_value(instance(), rounded) == pytest.approx(
            0.949508822, abs=1e-9)
        assert rep.decision.n_integer == (496, 235)
        assert rep.integer_cost == 3185.0
        assert rep.achieved_qos == joint_constraint_value(instance(), (496, 235))
        assert rep.achieved_qos == pytest.approx(0.950247, abs=1e-6)
        assert rep.feasible

    @settings(max_examples=60, deadline=None)
    @given(small_joint_problems(), st.lists(st.integers(-2, 1), min_size=4, max_size=4))
    def test_repair_matches_brute_force_box(self, problem, offsets):
        # roundings up to two servers below and one above the lattice
        # optimum, per station; the report keeps or repairs each as a scan
        # of its box would
        scenarios, epsilon, costs = problem
        try:
            optimum = solve_joint_exact_integer(scenarios, epsilon, costs).n
        except InfeasibleError:
            return
        n = tuple(max(k + d, 1) for k, d in zip(optimum, offsets))
        stations = scenarios.stations
        decision = JointDecision(
            betas=(0.0,) * stations, key_indices=(0,) * stations,
            key_rates=tuple(m.rates[0] for m in scenarios.marginals),
            n_continuous=tuple(map(float, n)), n_integer=n)
        rep = joint._reduced_report(scenarios, decision, costs, epsilon, "joint")
        expected = brute_force_box(scenarios, epsilon, costs, n)
        assert rep.decision.n_integer == expected
        assert rep.integer_cost == sum(c * x for c, x in zip(costs, expected))
        assert rep.achieved_qos == joint_constraint_value(scenarios, expected)
        assert rep.feasible == (rep.achieved_qos + FEASIBILITY_TOL >= 1.0 - epsilon)

    def test_single_station_reduces_to_scalar_solver(self):
        one = JointScenarioSet(((200.0,),), (1.0,))
        rep = solve_joint(one, EPSILON, (1.0,), key_indices=(0,))
        scalar = solve_constrained(200.0, EPSILON)
        assert rep.decision.betas[0] == pytest.approx(scalar.beta, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(two_station_keyed_problems())
    @example((JointScenarioSet(((5.0, 5.0), (21.0, 5.0)), (0.5, 0.5)), 0.25, (1.0, 1.0),
              (0, 0)))
    def test_two_station_walk_answers_as_the_grid(self, problem):
        # a two-station keyed descent searches its one slice by a walk from
        # its start and stops Brent at SLICE_XTOL; the reference scans the
        # grid and runs Brent to its default tolerance, as every descent
        # once did. Both give the same integer answer and flags, and betas
        # within the same-answers bound of 1e-4, wherever the reference's
        # grid saw one basin, as it did on every compare-2st search
        # measured. On a slice with two, the walk may settle in the other
        # one. Only the walk sees a slice that is infinite on the whole
        # grid [0, BETA_HI] and finite above it (rates (5, 21) and 5 at
        # key (0, 0), epsilon 0.25, needs beta 8.73): where the reference
        # raises, the walk may solve
        scenarios, epsilon, costs, keys = problem
        search = joint.grid_then_golden
        basins = []

        def grid_search(fn, start=None, xtol=None):
            values = []

            def recorded(b):
                values.append(fn(b))
                return values[-1]

            found = search(recorded)
            basins.append(grid_basins(values[:_N_GRID]))
            return found

        def solve_both(solve):
            found = []
            for patched in (search, grid_search):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(joint, "grid_then_golden", patched)
                    try:
                        found.append(solve(scenarios, epsilon, costs, keys))
                    except InfeasibleError as exc:
                        found.append(str(exc))
            return found

        for solve in (solve_reduced_joint, solve_joint):
            basins.clear()
            walked, grid = solve_both(solve)
            if isinstance(grid, str):
                assert walked == grid or walked.feasible
                continue
            if max(basins, default=1) > 1:
                continue
            # a level this close to a half-integer rounds as the betas' last
            # digits fall
            assume(all(abs(x % 1.0 - 0.5) > 1e-3 for x in grid.decision.n_continuous))
            for field in ("n_integer", "key_indices"):
                assert getattr(walked.decision, field) == getattr(grid.decision, field)
            assert (walked.feasible, walked.converged) == (grid.feasible, grid.converged)
            assert walked.decision.betas == pytest.approx(grid.decision.betas, abs=1e-4)

    def test_two_station_walk_settles_in_the_basin_nearest_its_start(self, monkeypatch):
        # the known limit of the walk: this slice has two basins, and the
        # walk from beta = 1 stops in the nearer one at beta_1 = 2.535, a
        # beta cost 0.003 above the grid's basin at 1.804. A check for a
        # second basin would change this answer
        two = JointScenarioSet(((5.0, 22.0), (5.0, 23.0), (5.0, 35.0), (6.0, 23.0)),
                               (4 / 15, 4 / 15, 1 / 5, 4 / 15))
        rep = solve_joint(two, 0.25, (1.0, 1.0), (0, 0))
        assert rep.decision.betas == pytest.approx((2.535471826, 2.340339263), abs=1e-6)
        assert rep.beta_cost == pytest.approx(4.875811089, abs=1e-8)
        assert (rep.decision.n_integer, rep.integer_cost) == ((11, 33), 44.0)
        assert rep.feasible and rep.converged
        search = joint.grid_then_golden
        monkeypatch.setattr(joint, "grid_then_golden",
                            lambda fn, start=None, xtol=None: search(fn))
        grid = solve_joint(two, 0.25, (1.0, 1.0), (0, 0))
        assert grid.decision.betas[0] == pytest.approx(1.804419625, abs=1e-6)
        assert grid.beta_cost == pytest.approx(4.872801229, abs=1e-8)

    def test_certified_optimum_bounds_the_rounded_solve(self):
        certified = solve_joint_exact_integer(instance(), EPSILON, PRICES)
        rounded = solve_joint(instance(), EPSILON, PRICES)
        assert certified.cost <= rounded.integer_cost
        for a, b in zip(certified.n, rounded.decision.n_integer):
            assert abs(a - b) <= 1

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1),
                        warm_betas=(1.0,))
        with pytest.raises(DomainError):
            solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1),
                        warm_betas=(-1.0, 1.0))
        with pytest.raises(DomainError):
            solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1), warm_betas=1.0)
        with pytest.raises(DomainError):
            solve_joint(instance(), EPSILON, PRICES, warm_betas=(1.0, 1.0))
        with pytest.raises(DomainError):
            solve_joint(instance(), EPSILON, (5.0,), key_indices=(1, 1))
        for bad in BAD_KEYS:
            with pytest.raises(DomainError):
                solve_joint(instance(), EPSILON, PRICES, key_indices=(1, bad))
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                solve_joint(instance(), EPSILON, PRICES, key_indices=(1, 1),
                            warm_betas=(bad, 1.0))
            with pytest.raises(DomainError):
                solve_joint(instance(), EPSILON, (bad, 3.0), key_indices=(1, 1))


class TestSolveJointExactInteger:
    def test_call_center_certified_optimum(self):
        rep = solve_joint_exact_integer(instance(), EPSILON, PRICES)
        assert rep.label == "joint-integer"
        assert rep.n == LATTICE_STAFFING
        assert rep.cost == LATTICE_COST
        assert rep.achieved_qos == pytest.approx(LATTICE_QOS, abs=1e-9)

    def test_cheaper_neighbours_are_infeasible(self):
        target = 1.0 - EPSILON
        for n in ((495, 235), (494, 236), (494, 237)):
            assert sum(c * x for c, x in zip(PRICES, n)) < LATTICE_COST
            assert joint_constraint_value(instance(), n) < target
        assert joint_constraint_value(instance(), LATTICE_STAFFING) >= target

    def test_loose_target_collapses_to_stability_corner(self):
        rep = solve_joint_exact_integer(instance(), 1.0 - 1e-9, PRICES)
        assert rep.n == (351, 101)
        assert rep.cost == 2058.0

    def test_single_station_matches_enumeration(self):
        one = JointScenarioSet(((100.0,), (200.0,)), (0.58, 0.42))
        rep = solve_joint_exact_integer(one, 0.1, (2.0,))
        assert rep.n == (214,)
        assert rep.achieved_qos >= 0.9

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_joint_exact_integer(instance(), 0.0, PRICES)
        with pytest.raises(DomainError):
            solve_joint_exact_integer(instance(), EPSILON, (5.0, 3.0, 1.0))
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                solve_joint_exact_integer(instance(), EPSILON, (bad, 3.0))

    def test_three_station_certified_optimum(self):
        rep = solve_joint_exact_integer(S3, EPSILON, (1.0, 1.0, 1.0))
        assert rep.n == (529, 226, 136)
        assert rep.cost == 891.0
        assert joint_constraint_value(S3, rep.n) >= 1.0 - EPSILON
        assert rep.achieved_qos == joint_constraint_value(S3, rep.n)

    def test_four_station_certified_optimum(self):
        rep = solve_joint_exact_integer(S4, EPSILON, (1.0, 1.0, 1.0, 1.0))
        assert rep.n == (432, 226, 98, 209)
        assert rep.cost == 965.0
        assert joint_constraint_value(S4, rep.n) >= 1.0 - EPSILON

    def test_five_station_certified_optimum(self):
        rep = solve_joint_exact_integer(S5, EPSILON, (1.0,) * 5)
        assert rep.n == (433, 228, 98, 209, 113)
        assert rep.cost == 1081.0
        assert rep.achieved_qos == joint_constraint_value(S5, rep.n)

    def test_key_scenario_tie_still_certifies(self):
        # the tail above rate 100 carries exactly epsilon, so the
        # key-scenario rule ties and there is no decoupled solution
        one = JointScenarioSet(((100.0,), (200.0,)), (0.95, 0.05))
        with pytest.raises(KeyScenarioTieError):
            solve_decoupled(one, 0.05, (1.0,))
        rep = solve_joint_exact_integer(one, 0.05, (1.0,))
        # staffing below 200 writes off the top scenario and still meets
        # the target once the lower one almost never waits
        assert rep.n == (195,)
        assert rep.achieved_qos >= 0.95
        assert joint_constraint_value(one, (194,)) < 0.95

    def test_key_scenario_tie_corner_cap(self):
        # the key-scenario rule ties, and the mass at the top rate is too
        # thin for staffing three sigma above it to meet the target
        one = JointScenarioSet(((100.0,), (100.0001,)), (0.999, 0.001))
        with pytest.raises(KeyScenarioTieError):
            solve_decoupled(one, 0.001, (1.0,))
        assert joint_constraint_value(one, (131,)) < 0.999
        rep = solve_joint_exact_integer(one, 0.001, (1.0,))
        assert rep.n == (134,)
        assert rep.achieved_qos >= 0.999
        assert (rep.cost, rep.n) == brute_force_lattice(one, 0.001, (1.0,))

    def test_thin_top_optimum_outside_old_box(self):
        # the cheap station covers its thin top scenario at 500 so that
        # the dear one can stay low; the optimum lies far above the
        # decoupled solution plus three sigma, (402, 163)
        thin = product_instance(((300.0, 500.0), (0.98, 0.02)),
                                ((100.0, 110.0), (0.5, 0.5)))
        rep = solve_joint_exact_integer(thin, 0.05, (1.0, 100.0))
        assert rep.n == (539, 126)
        assert rep.cost == 13139.0
        assert rep.achieved_qos == joint_constraint_value(thin, rep.n)
        assert joint_constraint_value(thin, (348, 129)) >= 0.95

    def test_needs_no_curve_and_no_decoupled_solve(self, monkeypatch):
        # nor does the repair of a compare column: S64's joint column
        # rounds to (496, 260), short of the target, and its report walks
        # the box around that rounding
        reduced = enumerate_key_scenarios(S64, EPSILON, PRICES)
        column = solve_joint(S64, EPSILON, PRICES, key_indices=reduced.decision.key_indices,
                             warm_betas=reduced.decision.betas).decision
        rounded = dataclasses.replace(column, n_integer=tuple(
            integer_staffing(x) for x in column.n_continuous))
        assert rounded.n_integer == (496, 260)

        def forbidden(*args, **kwargs):
            raise AssertionError("the lattice called a curve or a decoupled solve")

        monkeypatch.setattr(joint, "_decoupled_decision", forbidden)
        monkeypatch.setattr(erlang, "_alpha_bar_cached", forbidden)
        monkeypatch.setattr(erlang, "_alpha_bar_from", forbidden)
        rep = solve_joint_exact_integer(S3, EPSILON, (1.0, 1.0, 1.0))
        assert rep.n == (529, 226, 136)
        assert rep.cost == 891.0
        repaired = joint._reduced_report(S64, rounded, PRICES, EPSILON, "joint")
        assert repaired.decision.n_integer == (496, 261)
        assert repaired.integer_cost == 3263.0
        assert repaired.feasible

    @settings(max_examples=50, deadline=None)
    @given(small_joint_problems())
    # a thin top at the cheap station: the optimum (60, 20) at 975 lies
    # above the decoupled solution plus three sigma
    @example(problem=(JointScenarioSet(((20.0, 1.0), (20.0, 16.4), (54.4, 1.0)),
                                       (0.195, 0.698, 0.107)), 0.25, (1.25, 45.0)))
    # the lattice walk's matrix product puts (69, 69) at 138 exactly on the
    # target 0.75, where joint_constraint_value folds it to
    # 0.7499999999999998; the fold decides such a cell, and the optimum is
    # (28, 111) at 139
    @example(problem=(coupled([([20.0, 21.0], [1 / 2, 1 / 2]),
                               ([20.0, 21.0, 108.0], [1 / 6, 7 / 12, 1 / 4])], 0),
                      0.25, (1.0, 1.0)))
    def test_matches_brute_force_scan(self, problem):
        scenarios, epsilon, costs = problem
        expected = brute_force_lattice(scenarios, epsilon, costs)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve_joint_exact_integer(scenarios, epsilon, costs)
            return
        rep = solve_joint_exact_integer(scenarios, epsilon, costs)
        assert (rep.cost, rep.n) == expected
        assert rep.achieved_qos == joint_constraint_value(scenarios, rep.n)

    @pytest.mark.parametrize("epsilon", (1e-13, 1e-12))
    def test_target_within_a_tie_of_one(self, epsilon):
        # the target lies within lattice._TIE of 1, which no sum of
        # no-waits clears by that margin, so the fold decides whether the
        # incumbent, down to the saturated corner, meets it
        two = JointScenarioSet(((20.0, 30.0), (25.0, 10.0)), (0.5, 0.5))
        rep = solve_joint_exact_integer(two, epsilon, (1.0, 1.0))
        assert (rep.cost, rep.n) == brute_force_lattice(two, epsilon, (1.0, 1.0))
        assert rep.feasible

    @settings(max_examples=50, deadline=None)
    @given(coupled_marginals())
    # the ROADMAP's sweep: the optimum costs 666, 666, 665, 660 and 625
    @example(problem=([([300.0, 400.0, 500.0], TOP_HEAVY), ([100.0, 150.0, 200.0], TOP_HEAVY)],
                      0.05, (1.0, 1.0)))
    def test_correlation_only_lowers_the_optimum(self, problem):
        # each station's no-wait u_i falls as its rate rises, so u_1 u_2 is
        # supermodular and E[u_1 u_2] is largest under the comonotone
        # coupling and smallest under the antitone one (Chebyshev's
        # association inequality); along either mixture it is linear in t.
        # Every staffing's QoS therefore rises with t, and the certified
        # optimum's cost cannot (an infeasible instance costs +inf)
        marginals, epsilon, costs = problem
        couplings = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
        # staffing far above some rates writes their scenarios in with
        # no-wait 1.0, so where the exact mass of a rectangle of rate pairs
        # is the target, its QoS sits on the target as the float masses
        # happen to sum (at epsilon 0.25, rates (20, 21, 89) of the second
        # station and masses summing to 3/4 below 89: 0.75 at t = -1 and
        # 0.7499999999999999 at t = 0), a tie no solver can order
        for t in couplings:
            cells = coupled_masses(marginals, t)
            assume(all(abs(float(sum(m for (x, y), m in cells.items() if x <= a and y <= b))
                           - (1.0 - epsilon)) > 1e-12
                       for a in marginals[0][0] for b in marginals[1][0]))
        optimum = []
        for t in couplings:
            try:
                optimum.append(solve_joint_exact_integer(
                    coupled(marginals, t), epsilon, costs).cost)
            except InfeasibleError:
                optimum.append(math.inf)
        assert all(b <= a for a, b in zip(optimum, optimum[1:])), optimum


class TestSolveWeightedStoch:
    @pytest.mark.parametrize("cost, price", [
        (2.0, CostFunction("linear-servers", 2.0)),
        (CostFunction("linear-beta", 2.0),) * 2,
        (CostFunction("linear-servers", 2.0),) * 2,
        (CostFunction("table", table=((0.0, 1.0), (1.0, 4.0), (3.0, 20.0))),) * 2,
    ], ids=["float", "linear-beta", "linear-servers", "table"])
    def test_single_station_single_scenario_reduces_to_scalar(self, cost, price):
        one = JointScenarioSet(((150.0,),), (1.0,))
        rep = solve_weighted_stoch(one, 40.0, (cost,))
        scalar = solve_weighted(150.0, 40.0, price)
        assert rep.decision.betas[0] == pytest.approx(scalar.beta, abs=1e-6)
        assert rep.objective == pytest.approx(scalar.objective, rel=1e-9)

    def test_sub_epsilon_waits_reach_the_cap(self):
        # 1 - no-wait rounds to zero once the wait falls below about 1e-16,
        # which used to stop the descent at beta = 17
        one = JointScenarioSet(((1.0,),), (1.0,))
        rep = solve_weighted_stoch(one, 1e200, (1.0,))
        scalar = solve_weighted(1.0, 1e200, CostFunction("linear-servers", 1.0))
        assert rep.decision.betas == (BETA_CAP,)
        assert not rep.converged
        assert rep.objective == pytest.approx(scalar.objective, rel=1e-9)
        assert rep.exact_objective == rep.objective

    @pytest.mark.parametrize("bound", ["exact", "upper"])
    def test_near_tied_keys_keep_the_smallest(self, monkeypatch, bound):
        # at delta = 20000 several keys reach the same levels and
        # objectives that differ only in their last bits
        values = []
        descend = joint.coordinate_descent

        def recorded(*args):
            out = descend(*args)
            values.append(out[1])
            return out

        monkeypatch.setattr(joint, "coordinate_descent", recorded)
        rep = solve_weighted_stoch(instance(), 20000.0, PRICES, bound=bound)
        keys = list(itertools.product(range(2), range(3)))
        best = min(values)
        near = [k for k, v in zip(keys, values)
                if v <= best * (1.0 + joint.KEY_TIE_RTOL)]
        assert len(near) > 1
        assert rep.decision.key_indices == min(near)

    def test_three_station_descent_unchanged(self):
        # frozen from the descent that searched every coordinate in every
        # cycle: a coordinate is searched again whenever another one moved
        one = JointScenarioSet(((10.0, 20.0, 5.0),), (1.0,))
        rep = solve_weighted_stoch(one, 100.0, (1.0, 2.0, 1.5))
        assert rep.decision.betas == (
            2.5400593300089733, 1.9508402269790763, 2.599926510090588)
        assert rep.objective == 99.41405982984392
        assert (rep.cycles, rep.converged) == (4, True)

    def test_exact_bound_scores_are_consistent(self):
        rep = solve_weighted_stoch(instance(), 20000.0, PRICES)
        assert rep.bound_used == "exact"
        assert rep.converged
        assert rep.objective == pytest.approx(rep.exact_objective, abs=1e-9)
        levels = [max(n, 1.0) for n in rep.decision.n_continuous]
        assert rep.no_wait == pytest.approx(
            joint_constraint_value(instance(), levels), rel=1e-12)

    def test_conservative_solve_costs_more_exactly_scored(self):
        exact = solve_weighted_stoch(instance(), 20000.0, PRICES)
        upper = solve_weighted_stoch(instance(), 20000.0, PRICES, bound="upper")
        gap = upper.exact_objective - exact.exact_objective
        assert 0.0 < gap < 1e-5

    def test_bound_gap_shrinks_with_scale(self):
        # surrogate and exact optimizers agree better as the system grows,
        # with the wait penalty scaled to keep the tradeoff balanced
        gaps = []
        for m in (1, 10, 100):
            delta = 20000.0 * math.sqrt(m)
            exact = solve_weighted_stoch(instance(m), delta, PRICES)
            upper = solve_weighted_stoch(instance(m), delta, PRICES, bound="upper")
            gaps.append(upper.exact_objective - exact.exact_objective)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert 1e-7 < gaps[0] < 1e-5
        assert 1e-8 < gaps[1] < 1e-6
        assert 1e-10 < gaps[2] < 1e-8

    def test_bound_gap_shrinks_at_fixed_tradeoff(self):
        gaps = []
        for m in (1, 10, 100):
            exact = solve_weighted_stoch(instance(m), 20000.0, PRICES)
            upper = solve_weighted_stoch(instance(m), 20000.0, PRICES, bound="upper")
            gaps.append(upper.exact_objective - exact.exact_objective)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_weighted_stoch(instance(), 0.0, PRICES)
        with pytest.raises(DomainError):
            solve_weighted_stoch(instance(), -5.0, PRICES)
        with pytest.raises(DomainError):
            solve_weighted_stoch(instance(), 100.0, PRICES, bound="lower")
        with pytest.raises(DomainError):
            solve_weighted_stoch(instance(), 100.0, (5.0,))
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                solve_weighted_stoch(instance(), 100.0, (bad, 3.0))


# the largest relative cost gap of the compare joint column over the
# lattice optimum on small_product_problems, over 1,300 draws with no
# column flagged: 2.19% at L = 2, 5.56% at L = 3 and 3.15% at L = 4. The
# L = 3 draw is a rounding that meets the target one server above the
# optimum of an instance costing 18, so the bound cannot be much tighter
COMPARE_GAP = 0.06


class TestCompareSolutions:
    @pytest.mark.parametrize("scenarios, n, cost, qos", [
        (S3, (534, 225, 133), 892.0, 0.950773),
        (S4, (436, 226, 96, 207), 965.0, 0.950093),
        (S5, (438, 227, 96, 209, 112), 1082.0, 0.950761),
    ], ids=("S3", "S4", "S5"))
    def test_three_to_five_stations_solve_feasible(self, scenarios, n, cost, qos):
        # the winning key's descent from beta = 1 leaves every dependent
        # beta past the bracket cap, and the retry from a higher common
        # start solves it; the rounded joint columns (535, 225, 132),
        # (437, 226, 95, 207) and (439, 228, 96, 208, 111) miss 1 - epsilon,
        # and each report repairs its rounding within one server a station
        # (the lattice optimum costs 891, 965 and 1081)
        table = compare_solutions(scenarios, EPSILON, (1.0,) * scenarios.stations)
        assert table.joint.n == n
        assert table.joint.cost == cost
        assert table.joint.achieved_qos == pytest.approx(qos, abs=1e-6)
        assert table.joint.feasible

    def test_three_station_retry_stays_cold(self, monkeypatch):
        # S3's winning reduced key solves only on the cold retry from the
        # common start 2; the joint column then walks from the reduced
        # betas, and no column moves from the grid-only answers
        descents = []
        tolerances = set()
        descent = joint.coordinate_descent

        def recorded(slice_at, objective, betas, coords, warm=False, xtol=None):
            found = descent(slice_at, objective, betas, coords, warm, xtol)
            descents.append((tuple(betas), warm, math.isfinite(found[1])))
            tolerances.add(xtol)
            return found

        monkeypatch.setattr(joint, "coordinate_descent", recorded)
        table = compare_solutions(S3, EPSILON, (1.0, 1.0, 1.0))
        assert descents[:2] == [((1.0, 1.0, 1.0), False, False),
                                ((2.0, 2.0, 1.0), False, True)]
        assert descents[2:] == [(table.reduced.betas, True, True)]
        assert tolerances == {None}     # Brent's default, at two free stations
        for column in (table.joint, table.reduced, table.decoupled):
            assert (column.n, column.cost, column.feasible) == ((534, 225, 133), 892.0, True)

    def test_s64_columns_repaired(self):
        # every column rounds short of the target, joint (496, 260),
        # reduced (495, 260) and decoupled (498, 257), and is repaired; the
        # lattice optimum is (495, 262) at 3261
        table = compare_solutions(S64, EPSILON, PRICES)
        assert (table.joint.n, table.joint.cost) == ((496, 261), 3263.0)
        assert table.joint.achieved_qos == pytest.approx(0.951656, abs=1e-6)
        assert (table.reduced.n, table.reduced.cost) == ((496, 261), 3263.0)
        assert (table.decoupled.n, table.decoupled.cost) == ((499, 258), 3269.0)
        assert table.joint.feasible and table.reduced.feasible and table.decoupled.feasible

    @settings(max_examples=30, deadline=None)   # about 0.15 s a draw
    @given(small_product_problems())
    def test_joint_column_near_the_lattice_optimum(self, problem):
        optimum = solve_joint_exact_integer(*problem)   # saturated staffing is feasible
        table = compare_solutions(*problem)
        assert table.joint.feasible
        assert table.joint.cost >= optimum.cost * (1.0 - 1e-12)
        assert table.joint.cost <= optimum.cost * (1.0 + COMPARE_GAP)

    def test_call_center_table(self):
        table = compare_solutions(instance(), EPSILON, PRICES)
        assert table.joint.label == "joint"
        assert table.joint.n == JOINT_STAFFING
        assert table.joint.cost == JOINT_COST
        assert table.joint.achieved_qos == pytest.approx(JOINT_QOS, abs=1e-6)
        assert table.reduced.n == JOINT_STAFFING
        assert table.reduced.cost == JOINT_COST
        assert table.decoupled.n == DECOUPLED_STAFFING
        assert table.decoupled.cost == DECOUPLED_COST
        assert table.cost_ratio == pytest.approx(DECOUPLED_COST / JOINT_COST, rel=1e-12)
        assert table.cost_ratio == pytest.approx(1.048, abs=0.01)

    def test_columns_meet_the_target(self):
        table = compare_solutions(instance(), EPSILON, PRICES)
        for column in (table.joint, table.reduced, table.decoupled):
            assert column.achieved_qos >= 1.0 - EPSILON - 5e-3

    def test_reduced_tracks_joint_within_one_server(self):
        table = compare_solutions(instance(), EPSILON, PRICES)
        for a, b in zip(table.reduced.n, table.joint.n):
            assert abs(a - b) <= 1
