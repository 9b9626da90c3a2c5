"""Dump a fixed set of solver outputs, or diff two such dumps.

A change that should not move answers is checked by writing the dump
with this script against the source of both commits and diffing the two
files, so both dumps hold the same output kinds:

    PYTHONPATH=OLD/src python3 scripts/same_answers.py before.json   # old tree
    PYTHONPATH=src python3 scripts/same_answers.py after.json        # new tree
    python3 scripts/same_answers.py --diff before.json after.json

The output set: compare_solutions on the bundled example1, the S64, S3,
S4 and S5 stress instances (an InfeasibleError is recorded by its text)
and the first 50 compare-2st benchmark instances of seeds 1 and 2; the
full solve_joint report on example1 and S64; solve_reduced_joint at
every key of example1, S64, S3 and S4, and of S3 and S4 at epsilon 0.5,
where descent from beta = 1 solves keys with two and three free stations,
and solve_joint at every key of example1 (an InfeasibleError again
recorded by its text); solve_joint_exact_integer
on S3, S4 and S5, on the thin-top instance (two stations: rates
(300, 500) with p (.98, .02) and (100, 110) with p (.5, .5), costs
(1, 100), whose optimum sits far above the decoupled solution) and on
the first 40 lattice benchmark instances of seed 1 (two to four
stations), and lattice.certified_box on the same sets and on example1,
kept as its lower corner and each table's shape and the sha256 of its
bytes (the box kind); solve_weighted_stoch on example1 at delta 50, 1e3
and 1e5 on the exact curve and the upper bound. Single station:
solve_constrained on a lambda x epsilon grid for every bound, one
sweep_frontier per bound, and solve_reduced (both bounds) and
solve_exact_enumeration on each of example1's marginals at three
epsilons and on two sets whose lowest keys cannot reach epsilon within
the bracket: rates (1, 50, 400) with p (.2, .3, .5) at 0.05 (key 1
wins) and rates (0.5, 2, 30, 600) with p (.1, .2, .3, .4) at 0.02 (key
3 wins). Two one-station sets whose rounding misses epsilon:
solve_reduced and solve_exact_enumeration on rate 100 at 0.05 (the root
118.15 rounds to 118) and on the paper's queue 2, rates (100, 200, 300)
with p (.58, .38, .04), at 1 - sqrt(0.95) (306.05 rounds to 306), and
solve_joint_exact_integer on each as a one-station joint set with cost
1, so that the single-station reports' agreement with the lattice shows
in the dump. Delay curve: erlang_c_exact at n = ceil(lambda) +
j*ceil(sqrt(lambda)), j = 0..6, for four rates up to 2e5, and
_exact_no_wait_column over two boxes that saturate at 1.0, padded with
1.0 to the box. Sub-unit rates, where the integer staffing rounds up to one
server: solve_reduced (both bounds) and solve_exact_enumeration on
rates (0.1, 0.3) with p (.5, .5) at 0.6, and each frontier_csv_rows row
of a sweep at lambda 0.2 on the frontier grid.

The simulate kind: simulate_wait_probability and simulate_busy_fraction
at five (n, lambda) points from (1, 0.5) to (235, 200), seeds 0 and 7,
and the default warm-up, none and 7 customers; simulate_scenario_qos on
the six-scenario call-center set at (496, 235) with seeds 0 and 19, on
the same set at (440, 235), where every scenario with rate 450 at the
first station waits surely, and on the single-station set rates (5, 20)
with p (.5, .5) at 10 servers, whose rate 20 is unstable.

The cli kind runs qstaff.cli.main in process and keeps its exit code,
stdout and stderr, with the solve's wall_time_s and validate's file (a
temporary or source-tree path) masked: solve in every mode x budget (the
file's epsilon, --delta 1000) x bound x format, compare in every format
and validate in table and json, on example1 and on three files written
to a temporary directory (one scenario at one station, one station with
three scenarios, one scenario at two stations); simulate on example1
with --seed 1 --replications 8 in every format; and frontier in every
bound x format at lambda 120 on the default grid and at lambda 0.001 on
the grid 1e-12 0.5 0.25, whose first point fails and warns on every
bound but hw.

Each output is stored as its repr and as a flat field -> value map.
The diff reports, per output kind and field, whether every value is
identical, or the largest absolute difference and how many outputs it
touches. Then it names every output whose repr differs: one line each,
saying whether it went from an error to a solution, from a solution to
an error, or which of its fields moved.

TOLERANCE, the same-answers policy, sorts the fields that may move by
their name (the last part of the dotted path) into two classes:
continuous fields, held to an absolute bound on the difference, and
counts, reported but not gated. Every other field must be identical:
integer staffings and costs, flags, keys, exception texts, QoS scored
at an integer staffing, and every field of a lattice, box or simulate
output, whatever its name. cli stdout is compared token by token: its
text and every number that is integral on both sides must be
identical, and any other number is held to a relative bound. The diff
exits 1 when an output or field exists on one side only, or a field
moves beyond its class.

The benchmark instances come from perfbench/gen.py, imported by path.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import math
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMPARE_SEEDS = (1, 2)
COMPARE_INSTANCES = 50
LATTICE_SEED = 1
LATTICE_INSTANCES = 40
WEIGHTED_DELTAS = (50.0, 1e3, 1e5)
WEIGHTED_BOUNDS = ("exact", "upper")
SINGLE_RATES = (0.5, 3.0, 40.0, 500.0, 7000.0, 1e5)
SINGLE_EPSILONS = (1e-9, 1e-4, 0.02, 0.2, 0.7)
SINGLE_BOUNDS = ("exact", "upper", "lower", "hw")
FRONTIER_RATE = 120.0
FRONTIER_EPSILONS = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
MARGINAL_EPSILONS = (0.01, 0.05, 0.2)
KEYED_LOOSE_EPSILON = 0.5
SKIPPED_KEY_SETS = (((1.0, 50.0, 400.0), (0.2, 0.3, 0.5), 0.05),
                    ((0.5, 2.0, 30.0, 600.0), (0.1, 0.2, 0.3, 0.4), 0.02))
ONE_STATION_SETS = {   # name -> (rates, probs, epsilon)
    "100": ((100.0,), (1.0,), 0.05),
    "queue2": ((100.0, 200.0, 300.0), (0.58, 0.38, 0.04), 1.0 - math.sqrt(0.95)),
}
EXACT_RATES = (150.5, 3700.3, 49999.7, 2e5)
EXACT_STEPS = 7
COLUMN_BOXES = ((3.7, 1, 200), (150.5, 100, 600))   # (lambda, lower, upper)
SUB_UNIT_SET = ((0.1, 0.3), (0.5, 0.5), 0.6)         # (rates, probs, epsilon)
SUB_UNIT_RATE = 0.2
CLI_FILES = {   # name -> (scenario rate vectors, probabilities, epsilon, costs)
    "one-station": (((40.0,),), (1.0,), 0.1, (1.0,)),
    "three-scenarios": (((20.0,), (35.0,), (50.0,)), (0.5, 0.3, 0.2), 0.1, (2.0,)),
    "two-stations": (((30.0, 60.0),), (1.0,), 0.05, (1.0, 2.0)),
}
CLI_BUDGETS = {"epsilon": (), "delta": ("--delta", "1000")}
CLI_FORMATS = ("table", "json", "csv")
CLI_SIMULATE_FLAGS = ("--seed", "1", "--replications", "8")
CLI_FRONTIERS = {   # name -> flags; at lambda 0.001, epsilon 1e-12 fails and warns
    "120": ("--lam", "120"),
    "0.001": ("--lam", "0.001", "--grid", "1e-12", "0.5", "0.25"),
}
SIM_POINTS = ((1, 0.5), (2, 1.0), (3, 2.4), (12, 9.0), (235, 200.0))   # (n, lambda)
SIM_SEEDS = (0, 7)
SIM_WARMUPS = (None, 0, 7)
CALL_CENTER = (((350.0, 100.0), (350.0, 200.0), (350.0, 300.0),
                (450.0, 100.0), (450.0, 200.0), (450.0, 300.0)),
               (0.48, 0.17, 0.01, 0.10, 0.21, 0.03))   # (rate vectors, probs)
UNSTABLE_ONE_STATION = ((5.0, 20.0), (0.5, 0.5))      # (rates, probs) at 10 servers
# The same-answers policy: field name -> the largest |difference| --diff
# accepts, math.inf for a count (reported, never gated); a field it does
# not name must be identical. Each bound is at most 10x the largest move
# measured when Brent's minimizer replaced golden-section search on every
# descent slice (this dump, and 1,500 compare-2st instances of seeds 1-3).
TOLERANCE = {
    "betas": 1e-4,              # 3.5e-5 (keyed, S3 at epsilon 0.5)
    "n_continuous": 2e-3,       # 7.3e-4 (compare-2st)
    "beta_cost": 1e-4,          # 2.5e-5
    "server_cost": 1e-3,        # 3.8e-4
    "objective": 1e-12,         # 0 here, 1.4e-13 on a three-station weighted solve
    "exact_objective": 2e-9,    # 8.3e-10
    "no_wait": 2e-8,            # 7.4e-9
    # cli stdout, relative, per number not integral on both sides: 4.0e-6,
    # a last-digit flip of a 6-significant-digit table cell
    "stdout": 4e-5,
    "cycles": math.inf,
    "evaluations": math.inf,
}
EXACT_KINDS = ("box", "lattice", "simulate")   # every field identical, whatever its name
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


S4_MARGINALS = (((300.0, 400.0), (0.7, 0.3)),
                ((100.0, 200.0), (0.7, 0.3)),
                ((50.0, 80.0), (0.8, 0.2)),
                ((150.0, 180.0), (0.6, 0.4)))
S5_MARGINALS = S4_MARGINALS + (((60.0, 90.0), (0.5, 0.5)),)


def _product(*marginals):
    from qstaff import JointScenarioSet, ScenarioSet

    return JointScenarioSet.from_product(
        [ScenarioSet(rates, probs) for rates, probs in marginals])


def stress_instances():
    """name -> (scenarios, epsilon, costs) for the ROADMAP stress set."""
    return {
        "S64": (_product((tuple(300.0 + 25.0 * k for k in range(8)), (0.125,) * 8),
                         (tuple(100.0 + 20.0 * k for k in range(8)), (0.125,) * 8)),
                0.05, (5.0, 3.0)),
        "S3": (_product(((300.0, 400.0, 500.0), (0.5, 0.3, 0.2)),
                        ((100.0, 200.0), (0.7, 0.3)),
                        ((50.0, 80.0, 120.0), (0.6, 0.3, 0.1))),
               0.05, (1.0, 1.0, 1.0)),
        "S4": (_product(*S4_MARGINALS), 0.05, (1.0, 1.0, 1.0, 1.0)),
        "S5": (_product(*S5_MARGINALS), 0.05, (1.0,) * 5),
    }


def s6_instance():
    """(scenarios, epsilon, costs) of the ROADMAP's S6: S5 plus rates
    (40, 70) at p (.6, .4). Its lattice takes seconds, so the dump leaves
    it out; scripts/lattice_stress.py solves it."""
    return _product(*S5_MARGINALS, ((40.0, 70.0), (0.6, 0.4))), 0.05, (1.0,) * 6


def thin_top_instance():
    """(scenarios, epsilon, costs) whose lattice optimum (539, 126) lies
    above the decoupled solution plus three sigma at the cheap station."""
    from qstaff import JointScenarioSet, ScenarioSet

    return (JointScenarioSet.from_product(
        [ScenarioSet((300.0, 500.0), (0.98, 0.02)),
         ScenarioSet((100.0, 110.0), (0.5, 0.5))]), 0.05, (1.0, 100.0))


@dataclasses.dataclass(frozen=True)
class Box:
    """lattice.certified_box's lower corner, and each table's shape and
    the sha256 of its bytes."""

    lower: tuple
    shapes: tuple
    sha256: tuple


def certified_box(scenarios, epsilon, costs):
    from qstaff import lattice

    lower, tables = lattice.certified_box(scenarios, epsilon, costs)
    return Box(tuple(lower), tuple(tuple(t.shape) for t in tables),
               tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables))


def no_wait_box(lam, lower, upper):
    """_exact_no_wait_column(lam, lower) padded with 1.0, or cut, to the
    levels lower..upper."""
    from qstaff import erlang

    size = upper - lower + 1
    return (erlang._exact_no_wait_column(lam, lower) + [1.0] * size)[:size]


def write_cli_file(path, rate_vectors, probs, epsilon, costs):
    data = {
        "version": 1,
        "stations": [{"id": f"s{i + 1}"} for i in range(len(costs))],
        "scenarios": [{"rates": list(rates), "probability": p}
                      for rates, p in zip(rate_vectors, probs)],
        "problem": {"epsilon": epsilon, "costs": list(costs)},
    }
    path.write_text(json.dumps(data))


def mask_wall_time(text):
    """A solve's output with its wall_time_s value replaced by *, in the
    json, table or csv format."""
    text = re.sub(r'("wall_time_s": )[^,\n]+', r'\1"*"', text)
    text = re.sub(r"^(wall_time_s +)\S+$", r"\1*", text, flags=re.M)
    lines = text.split("\n")
    header = lines[0].split(",")
    if "wall_time_s" in header:     # csv: one row under the header
        row = lines[1].split(",")
        row[header.index("wall_time_s")] = "*"
        lines[1] = ",".join(row)
    return "\n".join(lines)


def mask_file(text):
    """validate's output with its file value replaced by *, in the json or
    table format."""
    text = re.sub(r'("file": )"[^"]*"', r'\1"*"', text)
    return re.sub(r"^(file +)\S.*$", r"\1*", text, flags=re.M)


def run_cli(argv):
    """qstaff.cli.main(argv) in process: exit code, masked stdout, stderr."""
    from qstaff.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    fields = {"exit": code, "stdout": mask_file(mask_wall_time(out.getvalue())),
              "stderr": err.getvalue()}
    return {"repr": repr(fields), "fields": fields}


def cli_outputs():
    from qstaff.erlang import BOUND_CHOICES
    from qstaff.files import SOLVER_MODES

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        files = {"example1": "example1"}
        for name, spec in CLI_FILES.items():
            path = pathlib.Path(tmp) / f"{name}.json"
            write_cli_file(path, *spec)
            files[name] = str(path)
        for name, path in files.items():
            for fmt in CLI_FORMATS:
                out[f"cli/{name}/compare/{fmt}"] = run_cli(
                    ["compare", path, "--format", fmt])
            for fmt in ("table", "json"):
                out[f"cli/{name}/validate/{fmt}"] = run_cli(
                    ["validate", path, "--format", fmt])
            for mode, (budget, flags), bound, fmt in itertools.product(
                    SOLVER_MODES, CLI_BUDGETS.items(), BOUND_CHOICES, CLI_FORMATS):
                out[f"cli/{name}/solve/{mode}/{budget}/{bound}/{fmt}"] = run_cli(
                    ["solve", path, "--mode", mode, *flags, "--bound", bound,
                     "--format", fmt])
    for fmt in CLI_FORMATS:
        out[f"cli/example1/simulate/{fmt}"] = run_cli(
            ["simulate", "example1", *CLI_SIMULATE_FLAGS, "--format", fmt])
    for (name, flags), bound, fmt in itertools.product(
            CLI_FRONTIERS.items(), BOUND_CHOICES, CLI_FORMATS):
        out[f"cli/frontier/{name}/{bound}/{fmt}"] = run_cli(
            ["frontier", *flags, "--bound", bound, "--format", fmt])
    return out


def simulate_outputs():
    from qstaff import (
        JointScenarioSet,
        ScenarioSet,
        SimConfig,
        simulate_busy_fraction,
        simulate_scenario_qos,
        simulate_wait_probability,
    )

    out = {}
    for (n, lam), seed, warmup in itertools.product(SIM_POINTS, SIM_SEEDS, SIM_WARMUPS):
        config = SimConfig(n=n, lam=lam, warmup_customers=warmup, seed=seed)
        for name, estimator in (("wait", simulate_wait_probability),
                                ("busy", simulate_busy_fraction)):
            out[f"simulate/{name}/{n}/{lam:g}/{seed}/{warmup}"] = record(
                lambda: estimator(config))
    call_center = JointScenarioSet(*CALL_CENTER)
    one_station = ScenarioSet(*UNSTABLE_ONE_STATION)
    for name, scenarios, staffing, seed in (
            ("call-center/496-235", call_center, (496, 235), 0),
            ("call-center/496-235", call_center, (496, 235), 19),
            ("call-center/440-235", call_center, (440, 235), 0),
            ("one-station-unstable/10", one_station, 10, 31)):
        # n and lam are placeholders: the sweep takes its own from each run
        out[f"simulate/qos/{name}/{seed}"] = record(
            lambda: simulate_scenario_qos(scenarios, staffing,
                                          SimConfig(n=2, lam=1.0, seed=seed)))
    return out


def flatten(value, prefix=""):
    """Dataclass fields, recursively (a tuple of dataclasses by index), as
    {dotted path: JSON value}."""
    if dataclasses.is_dataclass(value):
        out = {}
        for field in dataclasses.fields(value):
            name = f"{prefix}.{field.name}" if prefix else field.name
            out.update(flatten(getattr(value, field.name), name))
        return out
    if isinstance(value, tuple):
        if any(dataclasses.is_dataclass(item) for item in value):
            out = {}
            for i, item in enumerate(value):
                out.update(flatten(item, f"{prefix}.{i}"))
            return out
        value = list(value)
    return {prefix or "value": value}


def record(solve):
    try:
        result = solve()
    except Exception as exc:    # the error text is part of the answer
        return {"repr": f"{type(exc).__name__}: {exc}",
                "fields": {"error": f"{type(exc).__name__}: {exc}"}}
    return {"repr": repr(result), "fields": flatten(result)}


def outputs():
    from qstaff import erlang
    from qstaff import (
        JointScenarioSet,
        ScenarioSet,
        compare_solutions,
        frontier_csv_rows,
        load_scenario_file,
        resolve_scenario_path,
        solve_constrained,
        solve_exact_enumeration,
        solve_joint,
        solve_joint_exact_integer,
        solve_reduced,
        solve_reduced_joint,
        solve_weighted_stoch,
        sweep_frontier,
    )

    spec = load_scenario_file(resolve_scenario_path("example1"))
    example1 = (spec.joint_set(), spec.problem.epsilon, spec.problem.costs)
    stress = stress_instances()
    out = {"compare/example1": record(lambda: compare_solutions(*example1))}
    for name, args in stress.items():
        out[f"compare/{name}"] = record(lambda: compare_solutions(*args))
    gen = _gen()
    for seed in COMPARE_SEEDS:
        for index in range(COMPARE_INSTANCES):
            inst = gen.instance(seed, "compare-2st", index)
            scenarios = JointScenarioSet(inst["rate_vectors"], inst["probs"])
            out[f"compare/{inst['id']}"] = record(
                lambda: compare_solutions(scenarios, inst["epsilon"], inst["costs"]))
    out["joint/example1"] = record(lambda: solve_joint(*example1))
    out["joint/S64"] = record(lambda: solve_joint(*stress["S64"]))
    keyed = {"example1": example1, **{name: stress[name] for name in ("S64", "S3", "S4")}}
    for name in ("S3", "S4"):
        scenarios, _, costs = stress[name]
        keyed[f"{name}-{KEYED_LOOSE_EPSILON:g}"] = (scenarios, KEYED_LOOSE_EPSILON, costs)
    for name, args in keyed.items():
        for key in itertools.product(*(range(len(m)) for m in args[0].marginals)):
            tag = "-".join(map(str, key))
            out[f"keyed/reduced/{name}/{tag}"] = record(
                lambda: solve_reduced_joint(*args, key))
            if name == "example1":
                out[f"keyed/joint/{name}/{tag}"] = record(
                    lambda: solve_joint(*args, key_indices=key))
    lattice_sets = {**{name: stress[name] for name in ("S3", "S4", "S5")},
                    "thin-top": thin_top_instance()}
    for index in range(LATTICE_INSTANCES):
        inst = gen.instance(LATTICE_SEED, "lattice", index)
        lattice_sets[inst["id"]] = (JointScenarioSet(inst["rate_vectors"], inst["probs"]),
                                    inst["epsilon"], inst["costs"])
    for name, args in lattice_sets.items():
        out[f"lattice/{name}"] = record(lambda: solve_joint_exact_integer(*args))
    for name, args in {"example1": example1, **lattice_sets}.items():
        out[f"box/{name}"] = record(lambda: certified_box(*args))
    for delta in WEIGHTED_DELTAS:
        for bound in WEIGHTED_BOUNDS:
            out[f"weighted/example1/{delta:g}/{bound}"] = record(
                lambda: solve_weighted_stoch(example1[0], delta, example1[2],
                                             bound=bound))
    for bound in SINGLE_BOUNDS:
        for lam in SINGLE_RATES:
            for eps in SINGLE_EPSILONS:
                out[f"constrained/{lam:g}/{eps:g}/{bound}"] = record(
                    lambda: solve_constrained(lam, eps, bound=bound))
        out[f"frontier/{FRONTIER_RATE:g}/{bound}"] = record(
            lambda: sweep_frontier(FRONTIER_RATE, FRONTIER_EPSILONS, bound=bound))
    for station in range(example1[0].stations):
        marginal = example1[0].marginal(station)
        cost = example1[2][station]
        for eps in MARGINAL_EPSILONS:
            for bound in WEIGHTED_BOUNDS:
                out[f"reduced/example1-{station}/{eps:g}/{bound}"] = record(
                    lambda: solve_reduced(marginal, eps, cost, bound=bound))
            out[f"enumeration/example1-{station}/{eps:g}"] = record(
                lambda: solve_exact_enumeration(marginal, eps, cost))
    for rates, probs, eps in SKIPPED_KEY_SETS:
        out[f"enumeration/{'-'.join(f'{r:g}' for r in rates)}/{eps:g}"] = record(
            lambda: solve_exact_enumeration(ScenarioSet(rates, probs), eps))
    for name, (rates, probs, eps) in ONE_STATION_SETS.items():
        scenarios = ScenarioSet(rates, probs)
        out[f"reduced/{name}/{eps:g}"] = record(lambda: solve_reduced(scenarios, eps))
        out[f"enumeration/{name}/{eps:g}"] = record(
            lambda: solve_exact_enumeration(scenarios, eps))
        out[f"lattice/one-station/{name}"] = record(lambda: solve_joint_exact_integer(
            JointScenarioSet(tuple((r,) for r in rates), probs), eps, (1.0,)))
    for lam in EXACT_RATES:
        for j in range(EXACT_STEPS):
            n = math.ceil(lam) + j * math.ceil(math.sqrt(lam))
            out[f"erlang/exact/{lam:g}/{n}"] = record(
                lambda: erlang.erlang_c_exact(n, lam))
    for lam, lower, upper in COLUMN_BOXES:
        out[f"erlang/column/{lam:g}/{lower}-{upper}"] = record(
            lambda: no_wait_box(lam, lower, upper))
    rates, probs, eps = SUB_UNIT_SET
    sub_unit = ScenarioSet(rates, probs)
    for bound in WEIGHTED_BOUNDS:
        out[f"subunit/reduced/{bound}"] = record(
            lambda: solve_reduced(sub_unit, eps, bound=bound))
    out["subunit/enumeration"] = record(lambda: solve_exact_enumeration(sub_unit, eps))
    for row in frontier_csv_rows(
            SUB_UNIT_RATE, sweep_frontier(SUB_UNIT_RATE, FRONTIER_EPSILONS)):
        out[f"subunit/frontier-row/{SUB_UNIT_RATE:g}/{row['epsilon']:g}"] = {
            "repr": repr(row), "fields": row}
    out.update(simulate_outputs())
    out.update(cli_outputs())
    return out


def _abs_difference(a, b):
    """Largest absolute difference of two numbers or equal-length number
    lists; None when the values are not comparable that way."""
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        diffs = [_abs_difference(x, y) for x, y in zip(a, b)]
        return None if None in diffs else max(diffs, default=0.0)
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                  for x in (a, b))
    if not numbers:
        return None
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b)


def _token_difference(a, b):
    """Largest relative difference between the number tokens of two cli
    outputs; None when their other text, their token count, or a number
    integral on both sides differs."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[0::2] != parts_b[0::2]:
        return None
    largest = 0.0
    for x, y in zip(parts_a[1::2], parts_b[1::2]):
        fx, fy = float(x), float(y)
        if fx.is_integer() and fy.is_integer():
            if x != y:
                return None
        elif fx != fy:
            if not (math.isfinite(fx) and math.isfinite(fy)):
                return None
            largest = max(largest, abs(fx - fy) / max(abs(fx), abs(fy)))
    return largest


def moved(name, a, b):
    """The line naming output name, whose repr differs between two dumps,
    from its before and after fields: error -> solution, solution ->
    error, or the fields that moved."""
    was, now = (list(fields) == ["error"] for fields in (a, b))
    if was != now:
        return f"output {name}: {'error -> solution' if was else 'solution -> error'}"
    fields = [f for f in sorted(set(a) | set(b))
              if f not in a or f not in b or a[f] != b[f]]
    return f"output {name}: moved in {', '.join(fields) or 'its repr only'}"


def diff(before, after):
    """Lines of a per-(kind, field) comparison of two dumps, then one line
    per output whose repr differs, and whether the dumps hold the same
    outputs and fields and every move stays within TOLERANCE."""
    lines = []
    for name in sorted(set(before) ^ set(after)):
        side = "before" if name in before else "after"
        lines.append(f"output {name}: only {side}")
    stats = {}
    for name in sorted(set(before) & set(after)):
        kind = name.split("/", 1)[0]
        policy = {} if kind in EXACT_KINDS else TOLERANCE
        a, b = before[name]["fields"], after[name]["fields"]
        for field in sorted(set(a) | set(b)):
            entry = stats.setdefault((kind, field), {
                "outputs": 0, "differ": 0, "beyond": 0, "largest": 0.0,
                "only": None, "example": None,
                "bound": policy.get(field.rsplit(".", 1)[-1])})
            entry["outputs"] += 1
            if field not in a or field not in b:
                entry["only"] = "before" if field in a else "after"
                continue
            if a[field] == b[field]:
                continue
            entry["differ"] += 1
            bound = entry["bound"]
            measure = _token_difference if field == "stdout" else _abs_difference
            gap = measure(a[field], b[field])
            if bound is None or gap is None or gap > bound:
                entry["beyond"] += 1
            if gap is None:
                entry["largest"] = None
                entry["example"] = entry["example"] or (name, a[field], b[field])
            elif entry["largest"] is not None:
                entry["largest"] = max(entry["largest"], gap)
    for (kind, field), entry in sorted(stats.items()):
        head = f"{kind}.{field} ({entry['outputs']} outputs):"
        bound = entry["bound"]
        if entry["only"]:
            lines.append(f"{head} only {entry['only']}")
        elif not entry["differ"]:
            lines.append(f"{head} identical")
        elif entry["largest"] is None:
            name, old, new = entry["example"]
            lines.append(f"{head} differs in {entry['differ']}, "
                         f"e.g. {name}: {old!r} -> {new!r}")
        else:
            what = "relative |difference| of a number" if field == "stdout" else "|difference|"
            line = f"{head} largest {what} {entry['largest']:.3g} in {entry['differ']}"
            if bound == math.inf:
                line += ", a count: not gated"
            elif bound is not None:
                line += (f", {entry['beyond']} beyond bound {bound:g}" if entry["beyond"]
                         else f", within bound {bound:g}")
            lines.append(line)
    lines += [moved(name, before[name]["fields"], after[name]["fields"])
              for name in sorted(set(before) & set(after))
              if before[name]["repr"] != after[name]["repr"]]
    passes = not set(before) ^ set(after) and not any(
        entry["only"] or entry["beyond"] for entry in stats.values())
    return lines, passes


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", nargs="?", help="write the dump to this JSON file")
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two dumps field by field")
    args = parser.parse_args(argv)
    if args.diff:
        before, after = (json.loads(pathlib.Path(p).read_text()) for p in args.diff)
        lines, passes = diff(before, after)
        print("\n".join(lines))
        return 0 if passes else 1
    if not args.out:
        parser.error("give an output file, or --diff BEFORE AFTER")
    pathlib.Path(args.out).write_text(json.dumps(outputs(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
