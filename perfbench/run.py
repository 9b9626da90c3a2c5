"""qstaff benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a qstaff checkout:

    python3 perfbench/run.py --workload compare-2st --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the workload twice, untraced and then traced, and reports the
per-layer metrics and the tracing overhead. Every metric is printed as a
line with its unit and sample count; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Any failed output check makes the exit code 1. A directory without
src/qstaff makes it 2, with no result printed.

Full results and spans go to .perfbench/ under the checkout.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

WORKLOADS = ("compare-2st", "lattice", "cli")
SETUP_REPEATS = 3
CHILD_REPEATS = 3

# the metrics of the final JSON line: name -> unit
END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
# end-to-end figures that are printed but not in the final line of a
# --trace 0 run: they are 0 or absent on some workloads, or vary with
# the drawn instances more than a timing bound allows. The traced run
# carries them as per-layer metrics.
PRINTED_ONLY = {
    "fail_share": "share",
    "infeasible_share": "share",
    "cost_gap_pct": "%",
    "cli.validate_s": "s",
    "cli.solve_s": "s",
    "cli.compare_s": "s",
    "cli.simulate_s": "s",
}
PER_LAYER = {
    "erlang.continuous.calls": "count",
    "erlang.exact.calls": "count",
    "erlang.bound.calls": "count",
    "erlang.continuous.unique_ratio": "ratio",
    "erlang.exact.unique_ratio": "ratio",
    "erlang.self_s": "s",
    "erlang.self_share": "share",
    "erlang.exact_us.n50": "us",
    "erlang.exact_us.n500": "us",
    "erlang.exact_us.n50000": "us",
    "erlang.continuous_us.n50": "us",
    "erlang.continuous_us.n500": "us",
    "erlang.continuous_us.n50000": "us",
    "erlang.continuous_us.warm": "us",
    "erlang.jvlz_us": "us",
    "erlang.hw_us": "us",
    "search.bisect.calls": "count",
    "search.bisect.evals_per_call": "count",
    "search.golden.calls": "count",
    "search.golden.evals_per_call": "count",
    "search.self_s": "s",
    "search.self_share": "share",
    "stochastic.solve_reduced.calls": "count",
    "stochastic.self_s": "s",
    "joint.keys.tried": "count",
    "joint.keys.infeasible": "count",
    "joint.reduced_joint.self_s": "s",
    "joint.solve_joint.self_s": "s",
    "joint.decoupled.self_s": "s",
    "joint.lattice.self_s": "s",
    "joint.self_s": "s",
    "joint.self_share": "share",
    "joint.no_wait_us_per_scenario.int": "us",
    "joint.no_wait_us_per_scenario.frac": "us",
    "scenarios.build_ms": "ms",
    "simulate.customers": "count",
    "simulate.customers_per_s": "1/s",
    "simulate.replication_ms": "ms",
    "simulate.self_s": "s",
    "files.load_ms": "ms",
    "files.record_ms": "ms",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.self_s.validate": "s",
    "cli.self_s.solve": "s",
    "cli.self_s.compare": "s",
    "cli.self_s.simulate": "s",
    "trace.instances_per_s.untraced": "1/s",
    "trace.instances_per_s.traced": "1/s",
    "trace.overhead_pct": "%",
    **PRINTED_ONLY,
}
UNITS = {**END_TO_END, **PER_LAYER}


class BenchError(Exception):
    """The checkout cannot be benchmarked (no package, broken import)."""


class Metrics:
    """name -> (value, unit, sample count, note); value None = not measured
    on this workload because the layer is not on its path."""

    def __init__(self):
        self.rows = {}

    def put(self, name, value, n=None, note=""):
        self.rows[name] = (value, UNITS[name], n, note)

    def value(self, name):
        value = self.rows.get(name, (None,))[0]
        return 0.0 if value is None else value

    def print(self, names):
        for name in names:
            value, unit, n, note = self.rows.get(name, (None, "", None, ""))
            shown = "-" if value is None else f"{value:.6g}"
            count = "" if n is None else f"n={n}"
            print(f"  {name:<36} {shown:>14} {unit:<6} {count:<8} {note}".rstrip())


# ---------------------------------------------------------------------------
# environment

def child_import_s(root, module, repeats):
    """Wall time of `import module` inside fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import {0}; "
            "print(time.perf_counter() - t); print({0}.__file__)").format(module)
    src = os.path.join(root, "src", "")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=root)
        lines = proc.stdout.split("\n")
        if proc.returncode != 0 or len(lines) < 2 or not lines[1].startswith(src):
            raise BenchError(f"cannot import {module} from {src}: {proc.stderr[-500:]}")
        times.append(float(lines[0]))
    return times


def interpreter_start_s(root, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=root)
        times.append(time.perf_counter() - t0)
    return times


def machine_info(root):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = os.path.join(root, "src", "qstaff")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# statistics

def tail(values):
    """(value, percentile): the highest integer percentile with at least
    ten samples beyond it, by nearest rank. With ten samples or fewer no
    percentile qualifies and the maximum is returned with percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    p = (100 * (n - 10)) // n
    return xs[max(math.ceil(p * n / 100), 1) - 1], p


def timing_rows(metrics, records):
    """instances_per_s, latency_p50_s and latency_tail_s of the timed
    records from their latency_s; the wall-clock value goes in the note
    where the two differ."""
    ok = [r for r in records if r["error"] is None]
    if not ok:
        return
    n = len(ok)
    lat = [r["latency_s"] for r in ok]
    wall = [r["wall_s"] for r in ok]

    def note(value):
        return "" if lat == wall else f"wall {value:.4g}"

    metrics.put("instances_per_s", n / sum(r["latency_s"] for r in records), n,
                note(n / sum(r["wall_s"] for r in records)))
    metrics.put("latency_p50_s", statistics.median(lat), n,
                note(statistics.median(wall)))
    value, p = tail(lat)
    metrics.put("latency_tail_s", value, n,
                ", ".join(x for x in (f"p{p}", note(tail(wall)[0])) if x))


# ---------------------------------------------------------------------------
# workloads

def run_in_process(workload, seed, seconds, trace, outdir, metrics):
    import tracing
    import workloads
    if workload == "compare-2st":
        solve, example1, check = (workloads.solve_compare,
                                  workloads.check_example1_compare,
                                  workloads.check_compare)
    else:
        solve, example1, check = (workloads.solve_lattice,
                                  workloads.check_example1_lattice,
                                  workloads.check_lattice)
    outcome = workloads.Outcome()
    example1(outcome)
    tracer = tracing.Tracer() if trace else None
    workloads.timed_instances(outcome, workload, seed, seconds, solve, tracer)
    if tracer is not None:
        tracer.dump(os.path.join(outdir, f"spans-{workload}-seed{seed}.jsonl"))
    check(outcome)

    untraced = [r for r in outcome.records if not r["traced"]]
    timing_rows(metrics, untraced)
    metrics.put("peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    checked = [r for r in outcome.records if "feasible" in r]
    if checked:
        metrics.put("infeasible_share",
                    sum(not r["feasible"] for r in checked) / len(checked),
                    len(checked), "joint answers missing 1-eps, unflagged")
        gaps = [r["gap_pct"] for r in checked if r["feasible"]]
        if gaps:
            metrics.put("cost_gap_pct", statistics.fmean(gaps), len(gaps),
                        "feasible joint answers vs lattice optimum")
    metrics.put("scenarios.build_ms",
                statistics.fmean(r["build_s"] for r in outcome.records) * 1e3,
                len(outcome.records))
    if tracer is not None:
        traced = [r for r in outcome.records if r["traced"]]
        wall = sum(r["wall_s"] for r in traced)
        overhead_rows(metrics, untraced, traced)
        for name, value in tracing.layer_metrics(tracer.summary(), wall).items():
            metrics.put(name, value)
    return outcome


def overhead_rows(metrics, untraced, traced):
    def rate(records):
        return (sum(r["error"] is None for r in records)
                / sum(r["latency_s"] for r in records))

    base, with_trace = rate(untraced), rate(traced)
    metrics.put("trace.instances_per_s.untraced", base, len(untraced))
    metrics.put("trace.instances_per_s.traced", with_trace, len(traced))
    metrics.put("trace.overhead_pct", 100.0 * (base - with_trace) / base)


def run_cli(seed, seconds, trace, root, outdir, metrics):
    import tracing
    import workloads
    workdir = os.path.join(outdir, f"cli-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    files = workloads.cli_files(seed, workdir)
    outcome = workloads.Outcome()
    workloads.cli_rounds(outcome, files, seconds, workdir)
    if trace:
        workloads.cli_rounds(outcome, files, seconds, workdir, traced=True)
    metrics.put("peak_rss_mb",
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                note="largest child process")
    workloads.check_cli(outcome)

    untraced = [r for r in outcome.records if not r["traced"]]
    timing_rows(metrics, untraced)
    for command in workloads.CLI_COMMANDS:
        times = [r["latency_s"] for r in untraced
                 if r["error"] is None and r["command"] == command]
        if times:
            metrics.put(f"cli.{command}_s", statistics.median(times), len(times))
    if not trace:
        return outcome

    traced = [r for r in outcome.records if r["traced"]]
    overhead_rows(metrics, untraced, traced)
    summaries = {}
    for rec in traced:
        with open(rec["spans"]) as f:
            summaries[rec["id"]] = json.loads(f.readline())["summary"]
    merged = tracing.merge(summaries.values())
    wall = sum(r["wall_s"] for r in traced)
    for name, value in tracing.layer_metrics(merged, wall).items():
        metrics.put(name, value)
    for command in workloads.CLI_COMMANDS:
        selfs = [summaries[r["id"]]["self_s"].get("cli.main", 0.0)
                 for r in traced if r["command"] == command]
        if selfs:
            metrics.put(f"cli.self_s.{command}", statistics.median(selfs), len(selfs))
    durations, calls = merged["durations"], merged["calls"]
    loads = calls.get("files.load_scenario_file", 0)
    if loads:
        metrics.put("files.load_ms",
                    durations["files.load_scenario_file"] / loads * 1e3, loads)
    solves = [r for r in traced if r["command"] == "solve"]
    if solves:
        record_s = (durations.get("files.make_run_record", 0.0)
                    + durations.get("files.write_run_record", 0.0))
        metrics.put("files.record_ms", record_s / len(solves) * 1e3, len(solves))
    sims = [r for r in traced if r["command"] == "simulate" and "customers" in r]
    sim_s = merged["self_s"].get("simulate.simulate_scenario_qos", 0.0)
    if sims and sim_s > 0:
        customers = sum(r["customers"] for r in sims)
        replications = sum(r["replications"] for r in sims)
        metrics.put("simulate.customers", customers, len(sims))
        metrics.put("simulate.customers_per_s", customers / sim_s, len(sims))
        metrics.put("simulate.replication_ms", sim_s / replications * 1e3, replications)
    interp = interpreter_start_s(root, CHILD_REPEATS)
    metrics.put("cli.interp_s", statistics.median(interp), len(interp))
    imports = child_import_s(root, "qstaff.cli", CHILD_REPEATS)
    metrics.put("cli.import_s", statistics.median(imports), len(imports))
    return outcome


# ---------------------------------------------------------------------------
# entry point

def _record_summary(rec):
    keep = ("id", "stratum", "stations", "scenarios", "command", "file",
            "latency_s", "wall_s", "build_s", "error", "returncode", "traced",
            "feasible", "gap_pct")
    return {k: rec[k] for k in keep if k in rec}


def run_one(args, root):
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    # every child process imports the package from this checkout
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    metrics = Metrics()
    if not args.trace:
        setups = child_import_s(root, "qstaff", SETUP_REPEATS)
        metrics.put("setup_s", statistics.median(setups), len(setups),
                    "import qstaff in a fresh interpreter")
    machine = machine_info(root)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))

    if args.workload == "cli":
        outcome = run_cli(args.seed, args.seconds, args.trace, root, outdir, metrics)
    else:
        outcome = run_in_process(args.workload, args.seed, args.seconds,
                                 args.trace, outdir, metrics)
    if args.trace:
        import micro
        for name, value in micro.all_rows(args.seed).items():
            metrics.put(name, value)
    metrics.put("fail_share", outcome.failed / outcome.attempted, outcome.attempted)

    names = list(END_TO_END) + list(PRINTED_ONLY) if not args.trace else list(PER_LAYER)
    print("metrics (- : not on this workload's path)")
    metrics.print(names)
    for record_id, reason in outcome.failures:
        print(f"FAILED {record_id}: {reason}")

    declared = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics.value(name), "unit": unit}
                    for name, unit in declared.items()},
    }
    path = os.path.join(
        outdir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as out:
        json.dump({"args": vars(args), "machine": machine, "result": result,
                   "rows": {k: list(v) for k, v in metrics.rows.items()},
                   "failures": outcome.failures,
                   "records": [_record_summary(r) for r in outcome.records]},
                  out, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, root):
    """Each workload in its own fresh process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=root)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            raise BenchError(
                f"workload {workload} exited {proc.returncode} without a result")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, row in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = row
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "qstaff", "__init__.py")):
            raise BenchError(f"no src/qstaff under {root}: run from the root of "
                             "a qstaff checkout")
        if args.workload == "all":
            return run_all(args, root)
        return run_one(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
