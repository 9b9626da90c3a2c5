"""Tests for the event-driven M/M/n simulator."""
import math
import multiprocessing

import numpy as np
import pytest

from qstaff import simulate
from qstaff.erlang import wait_probability
from qstaff.errors import DomainError, UnstableSystemError
from qstaff.scenarios import JointScenarioSet, ScenarioSet
from qstaff.simulate import (
    SimConfig,
    _estimate,
    _replicate,
    simulate_busy_fraction,
    simulate_scenario_qos,
    simulate_wait_probability,
)
from qstaff.stochastic import constraint_value


def covered(estimate, truth):
    return abs(estimate.wait_prob_mean - truth) <= estimate.ci99_halfwidth


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(n=4, lam=3.0)
        assert cfg.warmup_customers is None
        assert cfg.measured_customers == 10_000
        assert cfg.replications == 8
        assert cfg.seed == 0

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, lam=0.5),
        dict(n=2.5, lam=0.5),
        dict(n=True, lam=0.5),
        dict(n=2, lam=0.0),
        dict(n=2, lam=-1.0),
        dict(n=2, lam=float("nan")),
        dict(n=2, lam=1.0, warmup_customers=-1),
        dict(n=2, lam=1.0, measured_customers=9_999),
        dict(n=2, lam=1.0, replications=1),
        dict(n=2, lam=1.0, seed=-1),
        *(dict(n=2, lam=bad) for bad in (True, 10**400, "3")),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("lam", [2.0, 2.5])
    def test_rejects_unstable_load(self, lam):
        with pytest.raises(UnstableSystemError):
            SimConfig(n=2, lam=lam)


class TestSimulateWaitProbability:
    def test_single_server_half_load(self):
        # M/M/1: the wait probability is the utilization
        est = simulate_wait_probability(SimConfig(n=1, lam=0.5, seed=7))
        assert covered(est, 0.5)

    def test_two_servers_hand_value(self):
        est = simulate_wait_probability(SimConfig(n=2, lam=1.0, seed=7))
        assert covered(est, 1.0 / 3.0)

    @pytest.mark.parametrize("n,lam", [(10, 9.0), (235, 200.0), (496, 450.0)])
    def test_formula_concordance(self, n, lam):
        est = simulate_wait_probability(SimConfig(n=n, lam=lam, seed=7))
        assert covered(est, wait_probability(n, lam))

    def test_estimate_shape(self):
        est = simulate_wait_probability(SimConfig(n=3, lam=2.0, replications=5, seed=1))
        assert 0.0 <= est.wait_prob_mean <= 1.0
        assert est.ci99_halfwidth > 0.0
        assert est.replications_used == 5

    def test_bit_identical_given_seed(self):
        cfg = SimConfig(n=5, lam=4.0, seed=3)
        assert simulate_wait_probability(cfg) == simulate_wait_probability(cfg)

    def test_seed_moves_the_estimate(self):
        a = simulate_wait_probability(SimConfig(n=5, lam=4.0, seed=3))
        b = simulate_wait_probability(SimConfig(n=5, lam=4.0, seed=4))
        assert a.wait_prob_mean != b.wait_prob_mean

    def test_interval_coverage_across_seeds(self):
        # the 99% interval should cover the formula in at least 95% of
        # independent-seed trials; streams are fixed so this cannot flake
        inside = sum(
            covered(simulate_wait_probability(
                SimConfig(n=2, lam=1.0, replications=6, seed=seed)), 1.0 / 3.0)
            for seed in range(40))
        assert inside >= 38

    def test_pasta_arrivals_see_time_averages(self):
        cfg = SimConfig(n=3, lam=2.4, seed=11)
        seen = simulate_wait_probability(cfg)
        busy = simulate_busy_fraction(cfg)
        gap = abs(seen.wait_prob_mean - busy.wait_prob_mean)
        assert gap <= seen.ci99_halfwidth + busy.ci99_halfwidth


class TestSimulateScenarioQos:
    RATES = ((350.0, 100.0), (350.0, 200.0), (350.0, 300.0),
             (450.0, 100.0), (450.0, 200.0), (450.0, 300.0))
    PROBS = (0.48, 0.17, 0.01, 0.10, 0.21, 0.03)

    def joint(self):
        return JointScenarioSet(self.RATES, self.PROBS)

    def test_call_center_union_wait(self):
        from qstaff.joint import joint_constraint_value

        est = simulate_scenario_qos(self.joint(), (496, 235),
                                    SimConfig(n=2, lam=1.0, seed=19))
        truth = 1.0 - joint_constraint_value(self.joint(), (496, 235))
        assert covered(est, truth)
        assert covered(est, 0.05) or abs(est.wait_prob_mean - 0.05) < 0.01

    def test_degenerate_scenario_matches_plain_estimator(self):
        one = JointScenarioSet(((9.0,),), (1.0,))
        est = simulate_scenario_qos(one, (12,), SimConfig(n=12, lam=9.0, seed=23))
        plain = simulate_wait_probability(SimConfig(n=12, lam=9.0, seed=23))
        assert est == plain

    def test_single_station_set_with_unstable_scenario(self):
        # a realized rate at or above the staffing level waits surely
        scenarios = ScenarioSet((5.0, 20.0), (0.5, 0.5))
        est = simulate_scenario_qos(scenarios, 10, SimConfig(n=2, lam=1.0, seed=31))
        assert covered(est, constraint_value(scenarios, 10))
        assert est.wait_prob_mean > 0.5

    def test_accepts_decision_objects(self):
        from qstaff.stochastic import solve_reduced

        scenarios = ScenarioSet((5.0, 8.0), (0.7, 0.3))
        report = solve_reduced(scenarios, 0.2)
        cfg = SimConfig(n=2, lam=1.0, seed=13)
        via_object = simulate_scenario_qos(scenarios, report.decision, cfg)
        via_int = simulate_scenario_qos(scenarios, report.decision.n_integer, cfg)
        assert via_object == via_int

    def test_rejects_mismatched_staffing(self):
        with pytest.raises(DomainError):
            simulate_scenario_qos(self.joint(), (496,), SimConfig(n=2, lam=1.0))
        with pytest.raises(DomainError):
            simulate_scenario_qos(self.joint(), (496.5, 235), SimConfig(n=2, lam=1.0))
        with pytest.raises(DomainError):
            simulate_scenario_qos((1.0, 2.0), (3,), SimConfig(n=2, lam=1.0))
        with pytest.raises(DomainError):
            simulate_scenario_qos(self.joint(), (496, 235), "cfg")
        with pytest.raises(DomainError, match="must be a SimConfig"):
            simulate_wait_probability("cfg")
        with pytest.raises(DomainError, match="must be a SimConfig"):
            simulate_busy_fraction(None)

    @pytest.mark.parametrize("level", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_staffing(self, level):
        one = ScenarioSet((1.0,), (1.0,))
        with pytest.raises(DomainError, match="must be positive integers"):
            simulate_scenario_qos(one, (level,), SimConfig(n=2, lam=1.0))

    @pytest.mark.parametrize("level", [True, 10**400, "3"], ids=("bool", "huge-int", "str"))
    def test_rejects_what_is_not_a_number(self, level):
        one = ScenarioSet((1.0,), (1.0,))
        for staffing in (level, (level,)):
            with pytest.raises(DomainError):
                simulate_scenario_qos(one, staffing, SimConfig(n=2, lam=1.0))


def stream(seed, index):
    """draw() for run index of seed, one draw at a time: -log1p(-u) over
    the uniforms of seed's Philox generator jumped index times."""
    gen = np.random.Generator(np.random.Philox(seed).jumped(index))

    def draws():
        while True:
            for u in gen.random(8192).tolist():
                yield -math.log1p(-u)
    return draws().__next__


def serial_runs(n, lam, config, stream_base):
    warmup = 10 * n if config.warmup_customers is None else config.warmup_customers
    return [_replicate(n, lam, warmup, config.measured_customers,
                       stream(config.seed, stream_base + rep))
            for rep in range(config.replications)]


def serial_scenario_qos(scenarios, levels, config):
    """simulate_scenario_qos run by run in this process: every new
    (rate, station) pair takes the next block of replication streams."""
    reps = config.replications
    fractions = {}
    for rates, _ in scenarios.pairs():
        for i, rate in enumerate(rates):
            if (rate, i) not in fractions:
                fractions[(rate, i)] = (
                    [1.0] * reps if rate >= levels[i] else
                    [seen for seen, _ in serial_runs(levels[i], rate, config,
                                                     len(fractions) * reps)])
    union = []
    for rep in range(reps):
        waited = 0.0
        for rates, p in scenarios.pairs():
            waited += p * (1.0 - math.prod(1.0 - fractions[(rate, i)][rep]
                                           for i, rate in enumerate(rates)))
        union.append(waited)
    return _estimate(union)


class TestFanOut:
    # station 1's rate 10 meets its level in the first scenario, so the
    # stable runs after it start one block of streams later; the third
    # scenario repeats rates of the first two
    SCENARIOS = JointScenarioSet(((5.0, 10.0, 3.0), (6.0, 8.0, 3.5), (5.0, 8.0, 3.0)),
                                 (0.2, 0.3, 0.5))
    LEVELS = (8, 10, 6)

    @pytest.fixture(params=[1, 3], ids=("in-process", "three-workers"))
    def cpus(self, request, monkeypatch):
        # in this process, or on three workers whatever the host's CPU count
        monkeypatch.setattr(simulate, "_cpus", lambda: request.param)
        return request.param

    def test_scenario_qos_matches_the_serial_runs(self, cpus):
        config = SimConfig(n=2, lam=1.0, replications=3, seed=5)
        est = simulate_scenario_qos(self.SCENARIOS, self.LEVELS, config)
        assert multiprocessing.active_children() == []
        assert est == serial_scenario_qos(self.SCENARIOS, self.LEVELS, config)

    def test_plain_estimators_match_the_serial_runs(self, cpus):
        config = SimConfig(n=4, lam=3.0, warmup_customers=7, replications=4, seed=9)
        runs = serial_runs(4, 3.0, config, 0)
        wait = simulate_wait_probability(config)
        assert multiprocessing.active_children() == []
        busy = simulate_busy_fraction(config)
        assert multiprocessing.active_children() == []
        assert wait == _estimate([seen for seen, _ in runs])
        assert busy == _estimate([frac for _, frac in runs])
