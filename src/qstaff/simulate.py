"""Discrete-event M/M/n simulation used as an empirical cross-check.

The analytical stack computes wait probabilities from the Erlang-C
formula and its continuous extension; this module estimates the same
quantities from first principles. A single future-event list drives an
FCFS many-server queue with unit service rate, so the arrival rate is
the offered load. Replications use independent counter-based streams
and aggregate through their sufficient statistics, which keeps every
estimate bit-identical for a given seed regardless of scheduling.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.special import stdtrit

from .errors import DomainError, UnstableSystemError, integer, per_station, positive, real
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


class _Uniforms:
    """Buffered draws from one stream; order is fixed, refills are not."""

    __slots__ = ("gen", "buf", "idx")

    def __init__(self, gen, size=8192):
        self.gen = gen
        self.buf = gen.random(size)
        self.idx = 0

    def next(self):
        if self.idx == len(self.buf):
            self.buf = self.gen.random(len(self.buf))
            self.idx = 0
        u = self.buf[self.idx]
        self.idx += 1
        return u


def _stream(seed, index):
    # independent replications by jumping a counter-based generator
    return np.random.Generator(np.random.Philox(seed).jumped(index))


def _replicate(n, lam, warmup, measured, gen):
    """One replication; returns (arrival-seen wait fraction, all-busy
    time fraction over the measurement window)."""
    draws = _Uniforms(gen)

    def exp_after(t, rate):
        return t - math.log1p(-draws.next()) / rate

    # entries are (time, sequence, is_departure); the sequence number
    # makes tie order deterministic
    events = [(exp_after(0.0, lam), 0, False)]
    seq = 0
    busy = 0
    queued = 0
    arrivals = 0
    waited = 0
    end_count = warmup + measured
    window_open = warmup == 0
    t_prev = 0.0
    busy_time = 0.0
    window_start = 0.0

    while events:
        t, _, is_departure = heapq.heappop(events)
        if window_open:
            if busy == n:
                busy_time += t - t_prev
            t_prev = t
        if is_departure:
            if queued:
                queued -= 1
                seq += 1
                heapq.heappush(events, (exp_after(t, 1.0), seq, True))
            else:
                busy -= 1
            continue
        arrivals += 1
        if arrivals > warmup and busy == n:
            waited += 1
        if busy < n:
            busy += 1
            seq += 1
            heapq.heappush(events, (exp_after(t, 1.0), seq, True))
        else:
            queued += 1
        if arrivals == warmup:
            window_open = True
            window_start = t
            t_prev = t
        if arrivals == end_count:
            span = max(t - window_start, 1e-300)
            return waited / measured, busy_time / span
        seq += 1
        heapq.heappush(events, (exp_after(t, lam), seq, False))
    raise AssertionError("event list drained with arrivals pending")


def _estimate(values):
    reps = len(values)
    mean = math.fsum(values) / reps
    var = math.fsum((v - mean) ** 2 for v in values) / (reps - 1)
    t_crit = float(stdtrit(reps - 1, 0.995))
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
        gen = _stream(config.seed, stream_base + rep)
        pairs.append(_replicate(n, lam, warmup, config.measured_customers, gen))
    return pairs


def simulate_wait_probability(config):
    """Fraction of post-warmup arrivals finding every server busy.

    By PASTA this estimates the stationary probability that the system
    holds at least n customers, the quantity the Erlang-C formula
    computes exactly.
    """
    pairs = _run_fractions(config.n, config.lam, config, 0)
    return _estimate([seen for seen, _ in pairs])


def simulate_busy_fraction(config):
    """Time-averaged probability that every server is busy.

    Runs the same trajectories as simulate_wait_probability for the same
    config, so the two estimates form a paired PASTA check.
    """
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
    if isinstance(scenarios, JointScenarioSet):
        stations = scenarios.stations
        pairs = scenarios.pairs()
    elif isinstance(scenarios, ScenarioSet):
        stations = 1
        pairs = tuple(((rate,), p) for rate, p in scenarios.pairs())
    else:
        raise DomainError(
            f"expected a scenario set, got {type(scenarios).__name__}")
    levels = _staffing_vector(decision, stations)

    reps = config.replications
    fractions = {}
    run_index = 0
    for rates, _ in pairs:
        for i, rate in enumerate(rates):
            key = (rate, i)
            if key in fractions:
                continue
            if rate >= levels[i]:
                fractions[key] = None
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
                seen = fractions[(rates[0], 0)]
                scenario_wait = 1.0 if seen is None else seen[rep]
            else:
                prod = 1.0
                for i, rate in enumerate(rates):
                    seen = fractions[(rate, i)]
                    prod *= 0.0 if seen is None else 1.0 - seen[rep]
                    if prod == 0.0:
                        break
                scenario_wait = 1.0 - prod
            waited += p * scenario_wait
        union.append(waited)
    return _estimate(union)
