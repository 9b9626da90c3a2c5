"""Span recorder for calls into the qstaff package.

The recorder wraps public functions at the module globals where the
package looks them up (joint.wait_probability, cli.compare_solutions,
...), so the package source stays untouched. A span records its name,
start, end, parent span and instance id; spans stay in memory and are
written out when the run ends.

A span is named "<layer>.<function>", where the layer is the module
that defines the function. A span's self time is its duration minus the
durations of its child spans. Code the package runs between two wrapped
calls (a solver's objective closure called from grid_then_golden, say)
counts as self time of the innermost open span.

wait_probability is called up to 10^5 times per instance, nearly always
as a cache hit, so its calls are not stored one by one: each is folded
into a per-(parent span, name) count and total time, which is all the
self-time arithmetic needs.
"""
import itertools
import json
import time
from collections import Counter, defaultdict

def _observe_wait(tracer, args, kwargs, result, failed):
    n, lam = args[0], args[1]
    bound = kwargs.get("bound", args[2] if len(args) > 2 else "exact")
    if bound != "exact":
        kind = "bound"
    elif float(n).is_integer():
        kind = "exact"
    else:
        kind = "continuous"
    tracer.counts[f"erlang.{kind}.calls"] += 1
    tracer.pairs[kind].add((float(n), float(lam)))


def _observe_bisect(tracer, args, kwargs, result, failed):
    if result is not None:
        tracer.counts["search.bisect.evals"] += result.evaluations


def _observe_golden(tracer, args, kwargs, result, failed):
    if result is not None:
        tracer.counts["search.golden.evals"] += result[2]


def _observe_key(tracer, args, kwargs, result, failed):
    tracer.counts["joint.keys.tried"] += 1
    if failed:
        tracer.counts["joint.keys.infeasible"] += 1


# (module, global name, leaf, observer). A function reached through
# several modules is wrapped at each, and its spans share one name.
IN_PROCESS_POINTS = (
    ("qstaff.joint", "wait_probability", True, _observe_wait),
    ("qstaff.stochastic", "wait_probability", True, _observe_wait),
    ("qstaff.joint", "bisect_decreasing", False, _observe_bisect),
    ("qstaff.stochastic", "bisect_decreasing", False, _observe_bisect),
    ("qstaff.joint", "grid_then_golden", False, _observe_golden),
    ("qstaff.joint", "solve_reduced", False, None),
    ("qstaff.joint", "solve_reduced_joint", False, _observe_key),
    ("qstaff.joint", "enumerate_key_scenarios", False, None),
    ("qstaff.joint", "solve_joint", False, None),
    ("qstaff.joint", "solve_decoupled", False, None),
    ("qstaff.joint", "solve_joint_exact_integer", False, None),
    ("qstaff.joint", "compare_solutions", False, None),
    ("qstaff.joint", "joint_constraint_value", False, None),
    ("qstaff.files", "joint_constraint_value", False, None),
)

CLI_POINTS = (
    ("qstaff.cli", "resolve_scenario_path", False, None),
    ("qstaff.cli", "load_scenario_file", False, None),
    ("qstaff.cli", "make_run_record", False, None),
    ("qstaff.cli", "write_run_record", False, None),
    ("qstaff.cli", "compare_solutions", False, None),
    ("qstaff.cli", "enumerate_key_scenarios", False, None),
    ("qstaff.cli", "solve_joint", False, None),
    ("qstaff.cli", "solve_decoupled", False, None),
    ("qstaff.cli", "solve_reduced", False, None),
    ("qstaff.cli", "joint_constraint_value", False, None),
    ("qstaff.cli", "simulate_scenario_qos", False, None),
    ("qstaff.cli", "main", False, None),
)


class Tracer:
    """Collects spans and counters from wrapped package functions."""

    def __init__(self):
        self.instance = None
        self.spans = []                 # (id, name, start, end, parent, instance)
        self.folded = {}                # (parent, leaf name, instance) -> [calls, s]
        self.self_s = Counter()         # span name -> summed self time, leaves excluded
        self.calls = Counter()          # span name -> calls, leaves excluded
        self.durations = Counter()      # span name -> summed duration, leaves excluded
        self.counts = Counter()         # observer counters
        self.pairs = defaultdict(set)   # curve kind -> distinct (n, lambda)
        self._stack = []                # open frames: [id, start, child_s]
        self._ids = itertools.count(1)
        self._patches = []

    def install(self, points):
        import importlib
        for module_name, attr, leaf, observe in points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, leaf, observe))
            self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, leaf, observe):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        clock = time.perf_counter
        stack = self._stack
        folded = self.folded

        if leaf:
            # kept lean: this runs up to 10^5 times per instance; the
            # per-name totals are summed from the folded rows later
            def traced(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[2] += duration
                    key = (parent and parent[0], name, self.instance)
                    slot = folded.get(key)
                    if slot is None:
                        folded[key] = [1, duration]
                    else:
                        slot[0] += 1
                        slot[1] += duration
                    observe(self, args, kwargs, None, False)
        else:
            def traced(*args, **kwargs):
                result, failed = None, True
                frame = [next(self._ids), clock(), 0.0]
                parent = stack[-1][0] if stack else None
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - frame[1]
                    self.self_s[name] += duration - frame[2]
                    self.durations[name] += duration
                    self.calls[name] += 1
                    if stack:
                        stack[-1][2] += duration
                    if observe is not None:
                        observe(self, args, kwargs, result, failed)
                    self.spans.append(
                        (frame[0], name, frame[1], end, parent, self.instance))

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def summary(self):
        """Counters and per-name times, as plain JSON-ready data."""
        self_s = Counter(self.self_s)
        durations = Counter(self.durations)
        calls = Counter(self.calls)
        for (_, name, _), (count, total) in self.folded.items():
            self_s[name] += total
            durations[name] += total
            calls[name] += count
        return {
            "self_s": dict(self_s),
            "durations": dict(durations),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "distinct_pairs": {k: len(v) for k, v in self.pairs.items()},
        }

    def dump(self, path):
        """Write every span, then every folded leaf row, as JSON lines."""
        with open(path, "w") as out:
            out.write(json.dumps({"summary": self.summary()}) + "\n")
            for span_id, name, start, end, parent, instance in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "instance": instance}) + "\n")
            for (parent, name, instance), (calls, total) in self.folded.items():
                out.write(json.dumps({
                    "name": name, "parent": parent, "instance": instance,
                    "calls": calls, "total_s": total}) + "\n")


def merge(summaries):
    """Sum several Tracer.summary() results (one per traced process)."""
    out = {"self_s": Counter(), "durations": Counter(), "calls": Counter(),
           "counts": Counter(), "distinct_pairs": Counter()}
    for summary in summaries:
        for key, table in out.items():
            table.update(summary.get(key, {}))
    return out


def layer_self(summary, layer):
    return sum(v for k, v in summary["self_s"].items()
               if k.split(".", 1)[0] == layer)


def layer_metrics(summary, wall_s):
    """Per-layer metrics derived from a (merged) summary.

    wall_s is the traced wall time the shares are taken of.
    """
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    pairs = summary["distinct_pairs"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for kind in ("continuous", "exact", "bound"):
        m[f"erlang.{kind}.calls"] = counts.get(f"erlang.{kind}.calls", 0)
    for kind in ("continuous", "exact"):
        m[f"erlang.{kind}.unique_ratio"] = ratio(
            pairs.get(kind, 0), counts.get(f"erlang.{kind}.calls", 0))
    bisects = calls.get("search.bisect_decreasing", 0)
    goldens = calls.get("search.grid_then_golden", 0)
    m["search.bisect.calls"] = bisects
    m["search.bisect.evals_per_call"] = ratio(
        counts.get("search.bisect.evals", 0), bisects)
    m["search.golden.calls"] = goldens
    m["search.golden.evals_per_call"] = ratio(
        counts.get("search.golden.evals", 0), goldens)
    m["stochastic.solve_reduced.calls"] = calls.get("stochastic.solve_reduced", 0)
    m["joint.keys.tried"] = counts.get("joint.keys.tried", 0)
    m["joint.keys.infeasible"] = counts.get("joint.keys.infeasible", 0)
    m["joint.reduced_joint.self_s"] = self_s.get("joint.solve_reduced_joint", 0.0)
    m["joint.solve_joint.self_s"] = self_s.get("joint.solve_joint", 0.0)
    m["joint.decoupled.self_s"] = self_s.get("joint.solve_decoupled", 0.0)
    m["joint.lattice.self_s"] = self_s.get("joint.solve_joint_exact_integer", 0.0)
    for layer in ("erlang", "search", "stochastic", "joint", "simulate"):
        m[f"{layer}.self_s"] = layer_self(summary, layer)
    for layer in ("erlang", "search", "joint"):
        m[f"{layer}.self_share"] = ratio(layer_self(summary, layer), wall_s)
    return m
