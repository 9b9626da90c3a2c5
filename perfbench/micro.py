"""Per-call micro-rows for the erlang kernels and the joint no-wait sum.

Cold rows draw fresh arguments on every call, so the package's lru
caches never serve them; the caches are not cleared, because clearing
private state would measure a path users never take. The warm row
repeats one argument pair. Each row is the median over calls (µs), except
the no-wait rows, which divide total time by total scenarios.
"""
import random
import statistics
import time

from qstaff import erlang, joint
from qstaff.scenarios import JointScenarioSet

clock = time.perf_counter


def _median_us(fn, arg_list):
    times = []
    for args in arg_list:
        start = clock()
        fn(*args)
        times.append(clock() - start)
    return statistics.median(times) * 1e6


def erlang_rows(rng):
    rows = {}
    for n, calls in ((50, 2000), (500, 400), (50000, 15)):
        args = [(n, n * rng.uniform(0.5, 0.95)) for _ in range(calls)]
        rows[f"erlang.exact_us.n{n}"] = _median_us(erlang.erlang_c_exact, args)
    for n, calls in ((50, 200), (500, 200), (50000, 100)):
        args = [(n + rng.uniform(0.01, 0.99), n * rng.uniform(0.5, 0.95))
                for _ in range(calls)]
        rows[f"erlang.continuous_us.n{n}"] = _median_us(erlang.erlang_c_continuous, args)
    n, lam = 500 + rng.uniform(0.01, 0.99), 500 * rng.uniform(0.5, 0.95)
    erlang.erlang_c_continuous(n, lam)
    batches = []
    for _ in range(20):
        start = clock()
        for _ in range(1000):
            erlang.erlang_c_continuous(n, lam)
        batches.append((clock() - start) / 1000)
    rows["erlang.continuous_us.warm"] = statistics.median(batches) * 1e6
    args = [(500 + rng.uniform(1.0, 60.0), 500 * rng.uniform(0.9, 0.99))
            for _ in range(2000)]
    rows["erlang.jvlz_us"] = _median_us(erlang.jvlz_bounds_at, args)
    rows["erlang.hw_us"] = _median_us(
        erlang.halfin_whitt, [(rng.uniform(0.1, 3.0),) for _ in range(2000)])
    return rows


def _grid_set(rng, sizes):
    rates = [sorted(s * rng.uniform(0.6, 1.5) for _ in range(k))
             for s, k in zip((rng.uniform(200, 300), rng.uniform(100, 150)), sizes)]
    vectors = [(a, b) for a in rates[0] for b in rates[1]]
    weights = [rng.uniform(0.2, 1.0) for _ in vectors]
    total = sum(weights)
    return JointScenarioSet(vectors, [w / total for w in weights])


def no_wait_rows(rng, calls=12):
    """joint_constraint_value per scenario on 6-, 64- and 256-scenario sets,
    at integer and at fractional staffing levels."""
    sets = [_grid_set(rng, sizes) for sizes in ((2, 3), (8, 8), (16, 16))]
    rows = {}
    for kind in ("int", "frac"):
        total_s = 0.0
        scenarios = 0
        for scenario_set in sets:
            tops = [max(m.rates) for m in scenario_set.marginals]
            for call in range(calls):
                # a fresh level on every call, so no (n, lambda) repeats
                levels = [int(1.3 * top) + call for top in tops]
                if kind == "frac":
                    levels = [x + rng.uniform(0.01, 0.99) for x in levels]
                start = clock()
                joint.joint_constraint_value(scenario_set, levels)
                total_s += clock() - start
                scenarios += len(scenario_set)
        rows[f"joint.no_wait_us_per_scenario.{kind}"] = total_s / scenarios * 1e6
    return rows


def all_rows(seed):
    rng = random.Random(f"qstaff-bench:micro:{seed}")
    rows = erlang_rows(rng)
    rows.update(no_wait_rows(rng))
    return rows
