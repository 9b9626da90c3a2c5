"""Finite scenario models for uncertain arrival rates.

A scenario is one realization of the (single- or multi-station) arrival
rate vector together with its probability. Scenario sets are normalized
at construction: single-station sets are sorted by rate with exact
duplicates merged, joint sets are sorted lexicographically by rate
vector, and probabilities must sum to one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, integer, of_type, positive, real, sequence

__all__ = ["ScenarioSet", "JointScenarioSet"]

PROB_SUM_TOL = 1e-12


def _merged(keys, probs):
    """keys sorted with exact duplicates merged, and their summed
    probabilities; each probability must lie in (0, 1], the total at one."""
    for p in probs:
        if not 0.0 < p <= 1.0:
            raise DomainError(f"scenario probability must lie in (0, 1], got {p!r}")
    merged = {}
    for k, p in zip(keys, probs):
        merged[k] = merged.get(k, 0.0) + p
    items = sorted(merged.items())
    total = math.fsum(p for _, p in items)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DomainError(
            f"scenario probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}")
    return tuple(k for k, _ in items), tuple(p for _, p in items)


@dataclass(frozen=True)
class ScenarioSet:
    """Discrete distribution of a single station's arrival rate.

    Rates are strictly increasing after normalization; construction sorts
    the input and merges exactly equal rates by summing their
    probabilities.
    """

    rates: tuple
    probs: tuple

    def __post_init__(self):
        rates = tuple(positive(r, "scenario rate")
                      for r in sequence(self.rates, "scenario rates"))
        probs = tuple(real(p, "scenario probability")
                      for p in sequence(self.probs, "scenario probabilities"))
        if not rates or len(rates) != len(probs):
            raise DomainError("rates and probs must be non-empty and of equal length")
        rates, probs = _merged(rates, probs)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.rates)

    def pairs(self):
        """(rate, probability) tuples in ascending rate order."""
        return tuple(zip(self.rates, self.probs))

    def tail_sums(self):
        """Suffix sums of the probabilities, one entry per scenario plus a
        trailing zero: entry i is the probability of drawing rate i or
        larger."""
        tails = [0.0]
        for p in reversed(self.probs):
            tails.append(tails[-1] + p)
        return tuple(reversed(tails))

    def scaled(self, factor):
        """Same distribution with every rate multiplied by factor > 0."""
        factor = positive(factor, "scale factor")
        return ScenarioSet(tuple(factor * r for r in self.rates), self.probs)


@dataclass(frozen=True)
class JointScenarioSet:
    """Discrete joint distribution of an L-station arrival rate vector.

    rate_vectors[k] is the rate vector of scenario k. Marginal
    distributions are derived by summation and cached; they are what key
    scenarios and decoupled solves operate on.
    """

    rate_vectors: tuple
    probs: tuple

    def __post_init__(self):
        vectors = tuple(tuple(positive(r, "scenario rate")
                              for r in sequence(v, "scenario rates"))
                        for v in sequence(self.rate_vectors, "scenario rate vectors"))
        probs = tuple(real(p, "scenario probability")
                      for p in sequence(self.probs, "scenario probabilities"))
        if not vectors or len(vectors) != len(probs):
            raise DomainError(
                "rate_vectors and probs must be non-empty and of equal length")
        width = len(vectors[0])
        if width < 1 or any(len(v) != width for v in vectors):
            raise DomainError("all scenario rate vectors must share one positive length")
        vectors, probs = _merged(vectors, probs)
        object.__setattr__(self, "rate_vectors", vectors)
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.rate_vectors)

    @property
    def stations(self):
        return len(self.rate_vectors[0])

    def pairs(self):
        """(rate vector, probability) tuples."""
        return tuple(zip(self.rate_vectors, self.probs))

    @cached_property
    def marginals(self):
        """Per-station marginal distributions, as a tuple of ScenarioSet."""
        return tuple(ScenarioSet(column, self.probs)
                     for column in zip(*self.rate_vectors))

    @cached_property
    def rate_index(self):
        """rate_index[i][w]: position of scenario w's station-i rate in
        marginal(i).rates, one tuple of ints per station."""
        positions = [{r: j for j, r in enumerate(m.rates)} for m in self.marginals]
        return tuple(tuple(position[r] for r in column)
                     for position, column in zip(positions, zip(*self.rate_vectors)))

    def marginal(self, station):
        return self.marginals[integer(station, "station index", below=self.stations)]

    def scaled(self, factor):
        """Same distribution with every rate multiplied by factor > 0."""
        factor = positive(factor, "scale factor")
        return JointScenarioSet(
            tuple(tuple(factor * r for r in v) for v in self.rate_vectors),
            self.probs)

    @classmethod
    def from_product(cls, station_sets):
        """Independent product of per-station ScenarioSet distributions."""
        sets = [of_type(s, "station scenario set", ScenarioSet)
                for s in sequence(station_sets, "station scenario sets")]
        if not sets:
            raise DomainError("need at least one station")
        combos = list(itertools.product(*(s.pairs() for s in sets)))
        return cls(tuple(tuple(r for r, _ in combo) for combo in combos),
                   tuple(math.prod(p for _, p in combo) for combo in combos))
