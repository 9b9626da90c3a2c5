"""Self-checks for the benchmark itself. Run from the checkout root:

    python3 perfbench/selfcheck.py

1. The same seed gives identical inputs in fresh interpreters with
   different hash seeds; another seed gives different inputs.
2. Every metric declared in BENCHMARK.json appears, with its unit, in the
   final line of a short run of every workload, traced and untraced, and
   the final line has exactly the keys the contract names.
3. A copy of the benchmark with one deliberately wrong expected value
   exits nonzero and reports correct: false.
4. A directory holding only BENCHMARK.json and the benchmark exits
   nonzero without printing a result.

Scratch copies go to .perfbench/selfcheck/. Exits 1 if any check fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench", "selfcheck")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def report(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def input_digest(seed, hash_seed):
    code = ("import gen; print(gen.digest([gen.instance({0}, w, i) "
            "for w in ('compare-2st', 'lattice', 'cli') for i in range(12)]))"
            ).format(seed)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, check=True).stdout.strip()


def run_bench(script, cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, lines, result


def check_inputs():
    a, b = input_digest(5, 0), input_digest(5, 1)
    report(a == b, "seed 5 gives identical inputs in two fresh interpreters")
    report(a != input_digest(6, 0), "seeds 5 and 6 give different inputs")


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    script = os.path.join(HERE, "run.py")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            code, lines, result = run_bench(script, ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if result is None or code != 0:
                report(False, f"{what}: exit {code}, no result line")
                continue
            report(set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            report(got == declared,
                   f"{what}: metrics and units match BENCHMARK.json {key}")
            numeric = all(isinstance(v.get("value"), (int, float))
                          for v in result["metrics"].values())
            report(numeric, f"{what}: every metric value is a number")
            printed = all(any(line.split()[:1] == [name] for line in lines[:-1])
                          for name in declared)
            report(printed, f"{what}: every declared metric has a report line")


def check_wrong_expectation():
    copy = os.path.join(SCRATCH, "mutant", "perfbench")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(copy, "workloads.py")
    with open(path) as f:
        text = f.read()
    good = "EXAMPLE1_LATTICE = ((495, 236), 3183.0)"
    report(good in text, "workloads.py states the example1 lattice expectation")
    with open(path, "w") as f:
        f.write(text.replace(good, "EXAMPLE1_LATTICE = ((495, 236), 3184.0)"))
    code, _, result = run_bench(os.path.join(copy, "run.py"), ROOT, "lattice", 0)
    report(code != 0 and result is not None and result["correct"] is False,
           f"a wrong expected value fails the run (exit {code})")


def check_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines, result = run_bench("perfbench/run.py", bare, "lattice", 0)
    report(code != 0 and result is None,
           f"a directory without the package exits {code} with no result")


def main():
    check_inputs()
    check_wrong_expectation()
    check_bare_directory()
    check_metric_names()
    print(f"{len(failures)} self-check(s) failed" if failures
          else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
