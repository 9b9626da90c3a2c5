"""Discrete-event M/M/n simulation used as an empirical cross-check.

The analytical stack computes wait probabilities from the Erlang-C
formula and its continuous extension; this module estimates the same
quantities from first principles. It runs an FCFS many-server queue
with unit service rate, so the arrival rate is the offered load, from
the time of the next arrival and a heap of the departure times of the
customers in service; the waiting line is a count. Each run, one
replication of one (rate, station), draws from its own counter-based
stream; the runs fan out over forked workers, one per available CPU,
and replications aggregate through their sufficient statistics in a
fixed order, which keeps every estimate bit-identical for a given seed
whatever the worker count. numpy (the streams), the process pool and
scipy's t quantile load at the first simulation and the first
estimate, not at import.
"""
from __future__ import annotations

import heapq
import itertools
import math
import os
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
    """Blocks of unit-rate exponential draws -log1p(-u), in a fixed order,
    from seed's counter-based generator jumped index times; each run has
    its own index, so the runs' streams are independent. math.log1p, not
    numpy's, whose last bit may differ."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(seed).jumped(index))
    log1p = math.log1p
    while True:
        yield [-log1p(-u) for u in gen.random(size).tolist()]


def _replicate(n, lam, warmup, measured, draw):
    """One replication on the draws draw() returns; (arrival-seen wait
    fraction, all-busy time fraction over the measurement window). The
    draws go, in event order, to the first arrival, each service start and
    each next arrival."""
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    arrival = draw() / lam
    departures = []     # heap of departure times, one per busy server
    busy = 0            # len(departures)
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
        departing = busy and departures[0] < arrival
        t = departures[0] if departing else arrival
        if window_open:
            if busy == n:
                busy_time += t - t_prev
            t_prev = t
        if departing:
            if queued:
                queued -= 1
                heapreplace(departures, t + draw())
            else:
                heappop(departures)
                busy -= 1
            continue
        arrivals += 1
        if busy == n:
            if arrivals > warmup:
                waited += 1
            queued += 1
        else:
            heappush(departures, t + draw())
            busy += 1
        if arrivals == warmup:
            window_open = True
            window_start = t
            t_prev = t
        if arrivals == end_count:
            span = max(t - window_start, 1e-300)
            return waited / measured, busy_time / span
        arrival = t + draw() / lam


def _run(task):
    """_replicate for one (n, lam, warmup, measured, seed, stream index)."""
    n, lam, warmup, measured, seed, index = task
    draw = itertools.chain.from_iterable(_unit_exponentials(seed, index)).__next__
    return _replicate(n, lam, warmup, measured, draw)


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _run_all(tasks):
    """[_run(task) for task in tasks], in task order, spread over forked
    workers, one per available CPU and at most one per task. Each run
    reads only its own stream, so the results do not depend on the worker
    count. A single worker, or a platform without fork, runs them here."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    import numpy  # noqa: F401 -- loaded before the fork, so no worker imports it
    workers = min(_cpus(), len(tasks))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(_run, tasks))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_run, tasks))


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


def _tasks(n, lam, config, stream_base):
    """The config's replications of (n, lam) as _run tasks, on the streams
    stream_base, stream_base + 1, ..."""
    warmup = config.warmup_customers
    if warmup is None:
        warmup = 10 * n
    return [(n, lam, warmup, config.measured_customers, config.seed, stream_base + rep)
            for rep in range(config.replications)]


def simulate_wait_probability(config):
    """Fraction of post-warmup arrivals finding every server busy.

    By PASTA this estimates the stationary probability that the system
    holds at least n customers, the quantity the Erlang-C formula
    computes exactly. This is simulate_scenario_qos on the one scenario
    lam at staffing n.
    """
    config = of_type(config, "config", SimConfig)
    return simulate_scenario_qos(ScenarioSet((config.lam,), (1.0,)), config.n, config)


def simulate_busy_fraction(config):
    """Time-averaged probability that every server is busy.

    Runs the same trajectories as simulate_wait_probability for the same
    config, so the two estimates form a paired PASTA check.
    """
    config = of_type(config, "config", SimConfig)
    pairs = _run_all(_tasks(config.n, config.lam, config, 0))
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
    """
    if isinstance(scenarios, ScenarioSet):
        scenarios = JointScenarioSet.from_product((scenarios,))
    scenarios = of_type(scenarios, "scenarios", JointScenarioSet)
    config = of_type(config, "config", SimConfig)
    levels = _staffing_vector(decision, scenarios.stations)
    pairs = scenarios.pairs()

    reps = config.replications
    fractions = {}      # (rate, station) -> wait fraction per replication
    stable, tasks = [], []
    for rates, _ in pairs:
        for i, rate in enumerate(rates):
            key = (rate, i)
            if key in fractions:
                continue
            if rate < levels[i]:
                # the k-th distinct pair runs on streams k * reps onwards
                stable.append(key)
                tasks += _tasks(levels[i], rate, config, len(fractions) * reps)
            fractions[key] = [1.0] * reps
    seen = [seen for seen, _ in _run_all(tasks)]
    for j, key in enumerate(stable):
        fractions[key] = seen[j * reps:(j + 1) * reps]

    union = []
    for rep in range(reps):
        waited = 0.0
        for rates, p in pairs:
            if len(rates) == 1:
                # single factor taken directly, so that one station's
                # estimate is its runs' plain wait fraction bit for bit
                scenario_wait = fractions[(rates[0], 0)][rep]
            else:
                scenario_wait = 1.0 - math.prod(
                    1.0 - fractions[(rate, i)][rep] for i, rate in enumerate(rates))
            waited += p * scenario_wait
        union.append(waited)
    return _estimate(union)
