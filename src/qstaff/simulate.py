"""Discrete-event M/M/n simulation used as an empirical cross-check.

The analytical stack computes wait probabilities from the Erlang-C
formula and its continuous extension; this module estimates the same
quantities from first principles. It runs an FCFS many-server queue
with unit service rate, so the arrival rate is the offered load, from
the time of the next arrival and a heap of the departure times of the
customers in service; the waiting line is a count. Replications use
independent counter-based streams and aggregate through their sufficient
statistics, which keeps every estimate bit-identical for a given seed
regardless of scheduling. numpy (the streams) and scipy's t quantile
load at the first simulation and the first estimate, not at import.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from numbers import Real

from .errors import (DomainError, UnstableSystemError, integer, of_type, per_station, positive,
                     real)
from .scenarios import JointScenarioSet, ScenarioSet

__all__ = [
    "SimConfig",
    "SimEstimate",
    "simulate_wait_probability",
    "simulate_busy_fraction",
    "simulate_scenario_qos",
]

# degenerate all-identical replications still get a positive halfwidth
MIN_HALFWIDTH = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Run description for the event-driven simulator.

    warmup_customers None means ten times the server count of the run,
    resolved per run so scenario sweeps warm up in proportion to their
    own staffing. measured_customers is a per-replication count and must
    be large enough for the Student-t interval to mean anything.
    """

    n: int
    lam: float
    warmup_customers: int = None
    measured_customers: int = 10_000
    replications: int = 8
    seed: int = 0

    def __post_init__(self):
        integer(self.n, "n", 1)
        object.__setattr__(self, "lam", positive(self.lam, "lam"))
        if self.lam >= self.n:
            raise UnstableSystemError(
                f"offered load {self.lam} needs more than {self.n} servers")
        if self.warmup_customers is not None:
            integer(self.warmup_customers, "warmup_customers", 0)
        integer(self.measured_customers, "measured_customers", 10_000)
        integer(self.replications, "replications", 2)
        integer(self.seed, "seed", 0)


@dataclass(frozen=True)
class SimEstimate:
    wait_prob_mean: float
    ci99_halfwidth: float
    replications_used: int


def _unit_exponentials(seed, index, size=8192):
    """Unit-rate exponential draws -log1p(-u) in a fixed order, from seed's
    counter-based generator jumped index times; each replication has its
    own index, so their streams are independent."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(seed).jumped(index))
    while True:
        for u in gen.random(size).tolist():
            yield -math.log1p(-u)


def _replicate(n, lam, warmup, measured, draw):
    """One replication on the draws draw() returns; (arrival-seen wait
    fraction, all-busy time fraction over the measurement window)."""
    arrival = draw() / lam
    departures = []     # heap of departure times, one per busy server
    queued = 0
    arrivals = 0
    waited = 0
    end_count = warmup + measured
    window_open = warmup == 0
    t_prev = 0.0
    busy_time = 0.0
    window_start = 0.0

    while True:
        # an arrival and a departure at the same time: the arrival goes first
        departing = bool(departures) and departures[0] < arrival
        t = departures[0] if departing else arrival
        if window_open:
            if len(departures) == n:
                busy_time += t - t_prev
            t_prev = t
        if departing:
            if queued:
                queued -= 1
                heapq.heapreplace(departures, t + draw())
            else:
                heapq.heappop(departures)
            continue
        arrivals += 1
        if arrivals > warmup and len(departures) == n:
            waited += 1
        if len(departures) < n:
            heapq.heappush(departures, t + draw())
        else:
            queued += 1
        if arrivals == warmup:
            window_open = True
            window_start = t
            t_prev = t
        if arrivals == end_count:
            span = max(t - window_start, 1e-300)
            return waited / measured, busy_time / span
        arrival = t + draw() / lam


def _estimate(values):
    from scipy.special.cython_special import stdtrit
    reps = len(values)
    mean = math.fsum(values) / reps
    var = math.fsum((v - mean) ** 2 for v in values) / (reps - 1)
    t_crit = stdtrit(float(reps - 1), 0.995)   # a float df: the C call takes no int
    half = t_crit * math.sqrt(var / reps)
    return SimEstimate(
        wait_prob_mean=float(mean),
        ci99_halfwidth=max(half, MIN_HALFWIDTH),
        replications_used=reps,
    )


def _run_fractions(n, lam, config, stream_base):
    warmup = config.warmup_customers
    if warmup is None:
        warmup = 10 * n
    pairs = []
    for rep in range(config.replications):
        draw = _unit_exponentials(config.seed, stream_base + rep).__next__
        pairs.append(_replicate(n, lam, warmup, config.measured_customers, draw))
    return pairs


def simulate_wait_probability(config):
    """Fraction of post-warmup arrivals finding every server busy.

    By PASTA this estimates the stationary probability that the system
    holds at least n customers, the quantity the Erlang-C formula
    computes exactly.
    """
    config = of_type(config, "config", SimConfig)
    pairs = _run_fractions(config.n, config.lam, config, 0)
    return _estimate([seen for seen, _ in pairs])


def simulate_busy_fraction(config):
    """Time-averaged probability that every server is busy.

    Runs the same trajectories as simulate_wait_probability for the same
    config, so the two estimates form a paired PASTA check.
    """
    config = of_type(config, "config", SimConfig)
    pairs = _run_fractions(config.n, config.lam, config, 0)
    return _estimate([frac for _, frac in pairs])


def _server_count(x, what):
    # a simulated staffing level: an integer-valued real >= 1, such as 496.0
    level = real(x, what)
    if not (level.is_integer() and level >= 1.0):
        raise DomainError(f"staffing levels must be positive integers, got {x!r}")
    return int(x)


def _staffing_vector(decision, stations):
    levels = getattr(decision, "n_integer", decision)
    if isinstance(levels, Real):
        levels = (levels,)
    return per_station(levels, stations, _server_count, "staffing level")


def simulate_scenario_qos(scenarios, decision, config):
    """Expected union-wait probability of a fixed staffing by simulation.

    Every (scenario, station) pair with a stable rate is simulated on its
    own streams; a rate at or above its staffing level waits with
    probability one and is not simulated. Replication r combines the
    per-run fractions into one probability-weighted no-wait estimate, and
    the returned wait_prob_mean is one minus the across-replication mean,
    directly comparable to 1 - constraint value. The control fields of
    config apply to every run; its n and lam do not.

    With a single scenario and station this reduces to
    simulate_wait_probability on the same streams, estimate for estimate.
    """
    if isinstance(scenarios, ScenarioSet):
        scenarios = JointScenarioSet.from_product((scenarios,))
    scenarios = of_type(scenarios, "scenarios", JointScenarioSet)
    config = of_type(config, "config", SimConfig)
    levels = _staffing_vector(decision, scenarios.stations)
    pairs = scenarios.pairs()

    reps = config.replications
    fractions = {}
    run_index = 0
    for rates, _ in pairs:
        for i, rate in enumerate(rates):
            key = (rate, i)
            if key in fractions:
                continue
            if rate >= levels[i]:
                fractions[key] = [1.0] * reps
            else:
                runs = _run_fractions(levels[i], rate, config, run_index * reps)
                fractions[key] = [seen for seen, _ in runs]
            run_index += 1

    union = []
    for rep in range(reps):
        waited = 0.0
        for rates, p in pairs:
            if len(rates) == 1:
                # single factor taken directly, so the degenerate case
                # reproduces the plain estimator bit for bit
                scenario_wait = fractions[(rates[0], 0)][rep]
            else:
                scenario_wait = 1.0 - math.prod(
                    1.0 - fractions[(rate, i)][rep] for i, rate in enumerate(rates))
            waited += p * scenario_wait
        union.append(waited)
    return _estimate(union)
