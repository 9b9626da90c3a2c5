"""The benchmark's three workloads: timed loops and the output checks.

compare-2st
    Generated two-station instances through compare_solutions, which is
    what `qstaff compare` runs. The continuous delay curve, the search
    primitives and the reduced/joint coordinate descent do most of the
    work; the integer recursion does almost none.
lattice
    Generated instances through solve_joint_exact_integer: two-station
    instances at large rates stress erlang_c_exact, three- and
    four-station instances at small rates stress the joint no-wait
    scenario loop. About a hundred continuous-curve calls per instance
    (for the search bounds), so this is the bypass case for any change
    to the quadrature.
cli
    validate, solve, compare and simulate, each as a fresh
    `python -m qstaff.cli` process, on example1 and on generated
    scenario files. Interpreter start, import, file parsing, run records
    and the event simulator do most of the work.

Instances are timed one by one around the solver call only, in
reference seconds (latency_s, see probe.py) and in wall seconds
(wall_s); building the scenario set is timed separately and checks run
after the timed loop. A CLI command is timed around its whole process,
in wall seconds only: probes in this process (idle while the child
runs) or in the child (around its import and main) both tracked the
command's speed worse than no correction at all.

A loop runs whole strata cycles (whole rounds of commands for cli) until
`seconds` have passed. The load is a closed loop from one client: the
next instance starts when the previous one has returned.
"""
import json
import math
import os
import subprocess
import sys
import time

import gen
import tracing
from probe import ReferenceClock

clock = time.perf_counter

# mirrors qstaff.joint.FEASIBILITY_TOL: the tolerance the package itself
# uses when it flags a staffing as feasible
FEASIBILITY_TOL = 1e-9

# the values README and the acceptance criteria state for example1:
# label -> (staffing, integer cost, achieved QoS at six digits or None)
EXAMPLE1_COMPARE = {
    "joint": ((496, 235), 3185.0, "0.950247"),
    "reduced": ((496, 235), 3185.0, "0.950247"),
    "decoupled": ((484, 306), 3338.0, None),
}
EXAMPLE1_LATTICE = ((495, 236), 3183.0)
EXAMPLE1_SOLVE = ((496, 235), 3185.0)


class Outcome:
    """What one workload run produced: timed records and check failures."""

    def __init__(self):
        self.records = []     # one dict per timed instance or command
        self.failures = []    # (record id, reason) for every failed attempt
        self.attempted = 0    # timed attempts plus untimed example1 checks

    def fail(self, record_id, reason):
        self.failures.append((record_id, reason))

    @property
    def failed(self):
        return len({record_id for record_id, _ in self.failures})


def _example1():
    from qstaff.files import load_scenario_file, resolve_scenario_path
    spec = load_scenario_file(resolve_scenario_path("example1"))
    return spec.joint_set(), spec.problem.epsilon, spec.problem.costs


def _compare_mismatches(columns):
    """columns: label -> (n, cost, achieved_qos) as the program reported."""
    bad = []
    for label, (n, cost, qos) in EXAMPLE1_COMPARE.items():
        got_n, got_cost, got_qos = columns[label]
        if tuple(got_n) != n or got_cost != cost or \
                (qos is not None and f"{got_qos:.6g}" != qos):
            bad.append(f"example1 {label}: got {tuple(got_n)} cost {got_cost} "
                       f"QoS {got_qos:.6g}, expected {n} cost {cost} QoS {qos}")
    return bad


# ---------------------------------------------------------------------------
# in-process workloads

# at least this many instances per run, so that the tail percentile
# (ten samples beyond it) is at least the median
MIN_INSTANCES = 20


def timed_instances(outcome, workload, seed, seconds, solve, tracer=None):
    """Run whole strata cycles until `seconds` have passed and at least
    MIN_INSTANCES instances have run.

    With a tracer, every second cycle runs with its wrappers installed,
    so traced and untraced instances meet the same host conditions.
    """
    from qstaff.scenarios import JointScenarioSet
    index = 0
    timer = ReferenceClock()
    begin = clock()
    while index < MIN_INSTANCES or clock() - begin < seconds:
        traced = tracer is not None and index // gen.cycle_length(workload) % 2 == 1
        if traced:
            tracer.install(tracing.IN_PROCESS_POINTS)
        try:
            for _ in range(gen.cycle_length(workload)):
                inst = gen.instance(seed, workload, index)
                index += 1
                t0 = clock()
                scenarios = JointScenarioSet(inst["rate_vectors"], inst["probs"])
                build_s = clock() - t0
                if traced:
                    tracer.instance = inst["id"]
                answer, exc, wall, ref = timer.time(
                    lambda: solve(scenarios, inst["epsilon"], inst["costs"]))
                error = None if exc is None else f"{type(exc).__name__}: {exc}"
                outcome.attempted += 1
                outcome.records.append({
                    "id": inst["id"], "stratum": inst["stratum"],
                    "stations": len(inst["costs"]), "scenarios": len(scenarios),
                    "latency_s": ref, "wall_s": wall, "build_s": build_s,
                    "error": error, "traced": traced, "inst": inst,
                    "scenario_set": scenarios, "answer": answer,
                })
                if error is not None:
                    outcome.fail(inst["id"], error)
        finally:
            if traced:
                tracer.uninstall()


def solve_compare(scenarios, epsilon, costs):
    from qstaff import joint
    return joint.compare_solutions(scenarios, epsilon, costs)


def solve_lattice(scenarios, epsilon, costs):
    from qstaff import joint
    return joint.solve_joint_exact_integer(scenarios, epsilon, costs)


def check_example1_compare(outcome):
    from qstaff import joint
    outcome.attempted += 1
    report = joint.compare_solutions(*_example1())
    columns = {label: (s.n, s.cost, s.achieved_qos) for label, s in
               (("joint", report.joint), ("reduced", report.reduced),
                ("decoupled", report.decoupled))}
    for reason in _compare_mismatches(columns):
        outcome.fail("example1-compare", reason)


def check_example1_lattice(outcome):
    from qstaff import joint
    outcome.attempted += 1
    answer = joint.solve_joint_exact_integer(*_example1())
    n, cost = EXAMPLE1_LATTICE
    if tuple(answer.n) != n or answer.cost != cost:
        outcome.fail("example1-lattice",
                     f"example1 lattice: got {answer.n} cost {answer.cost}, "
                     f"expected {n} cost {cost}")


def check_compare(outcome):
    """Certify each joint answer against the lattice optimum (untimed).

    A joint answer that misses 1 - epsilon is counted, not failed: the
    compare table carries no feasibility flag, so these are the unflagged
    infeasible answers infeasible_share reports. A feasible joint answer
    cheaper than the certified optimum contradicts the certificate and
    fails the run.
    """
    from qstaff import joint
    for rec in outcome.records:
        if rec["answer"] is None:
            continue
        inst, scenarios, column = rec["inst"], rec["scenario_set"], rec["answer"].joint
        target = 1.0 - inst["epsilon"]
        try:
            ref = joint.solve_joint_exact_integer(
                scenarios, inst["epsilon"], inst["costs"])
        except Exception as exc:  # the reference itself failing is a failure
            outcome.fail(rec["id"], f"lattice reference: {type(exc).__name__}: {exc}")
            continue
        qos = joint.joint_constraint_value(scenarios, column.n)
        rec["feasible"] = qos + FEASIBILITY_TOL >= target
        rec["gap_pct"] = 100.0 * (column.cost - ref.cost) / ref.cost
        if abs(qos - column.achieved_qos) > 1e-12:
            outcome.fail(rec["id"], f"reported QoS {column.achieved_qos!r} but "
                                    f"joint_constraint_value gives {qos!r}")
        if rec["feasible"] and column.cost < ref.cost * (1.0 - 1e-12):
            outcome.fail(rec["id"], f"feasible joint cost {column.cost} is below "
                                    f"the certified lattice cost {ref.cost}")


def lattice_problems(scenarios, epsilon, costs, n, cost):
    """Reasons the lattice answer n is not a feasible local minimum."""
    from qstaff import joint
    target = 1.0 - epsilon
    problems = []
    if joint.joint_constraint_value(scenarios, n) < target:
        problems.append(f"{tuple(n)} misses the target {target!r}")
    if not math.isclose(cost, sum(c * x for c, x in zip(costs, n)), rel_tol=1e-12):
        problems.append(f"cost {cost} does not price {tuple(n)}")
    for i in range(len(n)):
        if n[i] <= 1:
            continue
        lower = list(n)
        lower[i] -= 1
        if joint.joint_constraint_value(scenarios, lower) >= target:
            problems.append(f"{tuple(lower)} is also feasible and cheaper")
    return problems


def check_lattice(outcome):
    for rec in outcome.records:
        if rec["answer"] is None:
            continue
        inst = rec["inst"]
        for reason in lattice_problems(rec["scenario_set"], inst["epsilon"],
                                       inst["costs"], rec["answer"].n,
                                       rec["answer"].cost):
            outcome.fail(rec["id"], reason)


# ---------------------------------------------------------------------------
# cli workload

CLI_COMMANDS = ("validate", "solve", "compare", "simulate")
CLI_GENERATED_FILES = 2


def _cli_args(command, path, record_path):
    if command == "validate":
        return ["validate", path, "--format", "json"]
    if command == "solve":
        return ["solve", path, "--format", "json", "--out", record_path]
    if command == "compare":
        return ["compare", path, "--format", "json"]
    return ["simulate", path, "--seed", "1", "--replications", "8",
            "--format", "json"]


def cli_files(seed, workdir):
    """example1 (bundled) plus generated scenario files written to workdir.

    Returns (cli argument, scenario document or None) pairs.
    """
    files = [("example1", None)]
    for index in range(CLI_GENERATED_FILES):
        doc = gen.scenario_document(gen.instance(seed, "cli", index))
        path = os.path.join(workdir, f"cli-{index}.json")
        with open(path, "w") as out:
            json.dump(doc, out, indent=2)
        files.append((path, doc))
    return files


def cli_rounds(outcome, files, seconds, workdir, traced=False):
    """Run every command on every file, in whole rounds, until `seconds`.

    Each command is a fresh `python -m qstaff.cli` process; with traced
    set it runs under launch.py instead, which records its spans to a file
    next to its run record in workdir.
    """
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
    begin = clock()
    done = 0
    while done == 0 or clock() - begin < seconds:
        for path, doc in files:
            for command in CLI_COMMANDS:
                seq = len(outcome.records)
                out = os.path.join(workdir, f"{seq:03d}-{command}")
                args = _cli_args(command, path, out + ".record.json")
                if traced:
                    argv = [sys.executable, launcher, out + ".spans.jsonl", *args]
                else:
                    argv = [sys.executable, "-m", "qstaff.cli", *args]
                t0 = clock()
                proc = subprocess.run(argv, capture_output=True, text=True)
                wall = clock() - t0
                outcome.attempted += 1
                outcome.records.append({
                    "id": f"{command}:{path}:{seq}", "command": command,
                    "file": path, "doc": doc, "latency_s": wall, "wall_s": wall,
                    "returncode": proc.returncode, "stdout": proc.stdout,
                    "error": None if proc.returncode == 0 else f"exit {proc.returncode}",
                    "stderr": proc.stderr[-2000:], "record_path": out + ".record.json",
                    "spans": out + ".spans.jsonl" if traced else None,
                    "traced": traced,
                })
        done += 1


def _payload(rec):
    try:
        return json.loads(rec["stdout"])
    except json.JSONDecodeError:
        return None


def check_cli(outcome):
    """Check every command's output against the library (untimed)."""
    from qstaff import joint
    from qstaff.files import load_scenario_file, resolve_scenario_path
    sets = {}
    references = {}
    for rec in outcome.records:
        payload = _payload(rec)
        if rec["returncode"] != 0 or payload is None:
            outcome.fail(rec["id"], f"exit {rec['returncode']}: {rec['stderr'][-300:]}")
            continue
        path = rec["file"]
        if path not in sets:
            spec = load_scenario_file(resolve_scenario_path(path))
            sets[path] = (spec, spec.joint_set())
        spec, scenarios = sets[path]
        is_example = rec["doc"] is None
        command = rec["command"]
        problems = []
        if command == "validate":
            if payload.get("stations") != spec.station_count or \
                    payload.get("scenarios") != len(spec.scenarios):
                problems.append(f"validate reports {payload.get('stations')} "
                                f"stations and {payload.get('scenarios')} scenarios")
        elif command == "solve":
            n = tuple(payload["solution"])
            qos = joint.joint_constraint_value(scenarios, n)
            if abs(qos - payload["achieved_qos"]) > 1e-12:
                problems.append(f"run record QoS {payload['achieved_qos']!r}, "
                                f"joint_constraint_value {qos!r}")
            with open(rec["record_path"]) as f:
                if json.load(f) != payload:
                    problems.append("written run record differs from stdout")
            if is_example and (n, payload["objective"]) != EXAMPLE1_SOLVE:
                problems.append(f"example1 solve: got {n} objective "
                                f"{payload['objective']}, expected {EXAMPLE1_SOLVE}")
        elif command == "compare":
            if is_example:
                problems += _compare_mismatches({
                    label: (payload[label]["n"], payload[label]["cost"],
                            payload[label]["achieved_qos"])
                    for label in EXAMPLE1_COMPARE})
            else:
                if path not in references:
                    references[path] = joint.solve_joint_exact_integer(
                        scenarios, spec.problem.epsilon, spec.problem.costs)
                column = payload["joint"]
                qos = joint.joint_constraint_value(scenarios, column["n"])
                feasible = qos + FEASIBILITY_TOL >= 1.0 - spec.problem.epsilon
                if feasible and column["cost"] < references[path].cost * (1.0 - 1e-12):
                    problems.append(f"feasible joint cost {column['cost']} is below "
                                    f"the certified lattice cost {references[path].cost}")
        else:
            n = tuple(payload["solution"])
            formula = 1.0 - joint.joint_constraint_value(scenarios, n)
            if abs(formula - payload["wait_prob_formula"]) > 1e-12:
                problems.append(f"simulate formula {payload['wait_prob_formula']!r}, "
                                f"library {formula!r}")
            if is_example and payload.get("within_ci") is not True:
                problems.append("example1 simulate --seed 1: within_ci is not true")
            rec["customers"], rec["replications"] = simulated_work(
                scenarios, n, payload["replications"], payload["measured_customers"])
        for reason in problems:
            outcome.fail(rec["id"], reason)


def simulated_work(scenarios, n, replications, measured):
    """(customers, replications) simulate_scenario_qos runs for staffing n,
    computed from its inputs: every distinct stable (rate, station) pair
    is simulated `replications` times with a default warm-up of ten times
    its staffing plus `measured` customers."""
    pairs = {(rates[i], i) for rates in scenarios.rate_vectors
             for i in range(len(rates)) if rates[i] < n[i]}
    customers = sum(replications * (10 * n[i] + measured) for _, i in pairs)
    return customers, replications * len(pairs)
