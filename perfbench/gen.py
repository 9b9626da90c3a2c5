"""Seeded input generators for the benchmark workloads.

Every instance is drawn from its own random.Random, seeded from the
benchmark seed, the workload name and the instance index, so the same
seed always yields the same inputs in the same order, however many of
them a run consumes. Rates are non-round reals: two instances never
share an (n, lambda) pair, so the package's lru caches cannot carry work
from one instance to the next.

Each workload cycles through a fixed list of strata (shape and rate
scale). A run consumes whole cycles, so every run sees the same mix of
shapes and only the drawn values differ from seed to seed.

The generators return plain tuples and dicts; building the package's
scenario objects from them is timed by the benchmark as
scenarios.build_ms.
"""
import hashlib
import json
import random

# compare-2st: (name, scenarios per station, rate scale range). Every
# instance has two stations because compare_solutions raises
# InfeasibleError on three-station instances at this commit. The 64-
# scenario stratum is kept to moderate rates so the lattice reference
# that certifies its cost stays cheap.
COMPARE_STRATA = (
    ("s6-r4500", (2, 3), (4000.0, 5000.0)),
    ("s9-r60", (3, 3), (50.0, 80.0)),
    ("s16-r500", (4, 4), (400.0, 600.0)),
    ("s12-r2000", (3, 4), (1500.0, 2500.0)),
    ("s64-r200", (8, 8), (150.0, 300.0)),
)

# lattice: large two-station instances stress the O(n) exact recursion;
# small three- and four-station instances stress the joint no-wait
# scenario loop, whose lattice grows with the product of the first L-1
# box widths. The strata are sized to take about the same time (0.3 s on
# the reference machine), so the median latency falls inside one pooled
# distribution rather than in the gap between two strata.
LATTICE_STRATA = (
    ("l2-r3800", (2, 2), (3500.0, 4100.0)),
    ("l3-r300", (2, 2, 2), (270.0, 330.0)),
    ("l2-r3500", (2, 3), (3200.0, 3800.0)),
    ("l4-r16", (2, 2, 2, 2), (15.0, 17.0)),
)

# cli: two-station files shaped like the bundled example1 (six joint
# scenarios, rates in the hundreds) so a simulate call stays short.
CLI_STRATA = (
    ("f6-r300", (2, 3), (250.0, 450.0)),
)

# workload -> (strata, epsilon range, per-server cost range). The lattice
# draws epsilon and costs from narrower ranges: its run time grows with
# the number of outer lattice points the cost bound cannot prune, which
# swings with the cost ratio between stations.
WORKLOADS = {
    "compare-2st": (COMPARE_STRATA, (0.02, 0.10), (1.0, 6.0)),
    "lattice": (LATTICE_STRATA, (0.04, 0.07), (2.5, 4.0)),
    "cli": (CLI_STRATA, (0.03, 0.08), (1.0, 6.0)),
}


def _rng(seed, workload, index):
    return random.Random(f"qstaff-bench:{workload}:{seed}:{index}")


def _marginal(rng, count, scale):
    # distinct, ascending, non-round rates spread around the scale
    return sorted(scale * rng.uniform(0.6, 1.5) for _ in range(count))


def _joint(rng, sizes, scale_range):
    """A joint (not necessarily independent) distribution over the grid of
    per-station marginal rates: every grid point gets a random weight."""
    base = rng.uniform(*scale_range)
    marginals = [_marginal(rng, k, base * rng.uniform(0.7, 1.0)) for k in sizes]
    vectors = [()]
    for rates in marginals:
        vectors = [v + (r,) for v in vectors for r in rates]
    weights = [rng.uniform(0.2, 1.0) for _ in vectors]
    total = sum(weights)
    return tuple(vectors), tuple(w / total for w in weights)


def instance(seed, workload, index):
    """Instance number index of workload's stream for seed."""
    strata, eps_range, cost_range = WORKLOADS[workload]
    name, sizes, scale_range = strata[index % len(strata)]
    rng = _rng(seed, workload, index)
    vectors, probs = _joint(rng, sizes, scale_range)
    return {
        "id": f"{workload}-{seed}-{index}",
        "stratum": name,
        "rate_vectors": vectors,
        "probs": probs,
        "epsilon": rng.uniform(*eps_range),
        "costs": tuple(rng.uniform(*cost_range) for _ in sizes),
    }


def cycle_length(workload):
    return len(WORKLOADS[workload][0])


def scenario_document(inst):
    """The instance as a qstaff scenario file (version 1)."""
    stations = len(inst["rate_vectors"][0])
    return {
        "version": 1,
        "stations": [{"id": f"queue-{i + 1}"} for i in range(stations)],
        "scenarios": [{"rates": list(v), "probability": p}
                      for v, p in zip(inst["rate_vectors"], inst["probs"])],
        "problem": {
            "epsilon": inst["epsilon"],
            "costs": list(inst["costs"]),
            "solver": "stoch-multi-joint",
            "bound": "exact",
        },
    }


def digest(instances):
    """sha256 over the canonical JSON of a list of instances."""
    text = json.dumps(instances, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
