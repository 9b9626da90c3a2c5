"""Scenario-file ingestion, validation, and run records.

Scenario files are JSON: a version tag, a station list (each station an
id plus an optional service rate that rescales its arrival rates), a
scenario list of per-station rate vectors with probabilities, and a
problem block carrying the risk budget (epsilon) or wait penalty
(delta), per-server prices, and solver/bound selections. Rates are
normalized to offered load (rate divided by service rate) when the
scenario sets are built, so the analytical core keeps its unit-service
convention.

Run records capture what a solve did: a digest of the canonical input,
the solver, the staffing, its cost, the exactly re-evaluated QoS, and
wall time. The recorded QoS always comes from the exact wait curve, so
re-invoking joint_constraint_value on the recorded solution reproduces
it regardless of which bound the solver used.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

from ._version import __version__
from .errors import DomainError, ValidationError, integer, positive, real
from .erlang import BOUND_CHOICES
from .frontier import check_delta, check_epsilon
from .joint import joint_constraint_value
from .scenarios import JointScenarioSet

__all__ = [
    "SOLVER_MODES",
    "StationSpec",
    "ProblemSpec",
    "ScenarioFile",
    "RunRecord",
    "parse_scenario_data",
    "load_scenario_file",
    "write_scenario_file",
    "resolve_scenario_path",
    "make_run_record",
    "write_run_record",
]

SOLVER_MODES = (
    "det",
    "stoch-single",
    "stoch-multi-joint",
    "stoch-multi-decoupled",
    "stoch-multi-reduced",
)

PROBABILITY_SUM_TOL = 1e-9


def _fail(message, pointer):
    raise ValidationError(message, pointer=pointer)


def _require(data, key, kind, pointer):
    # kind is a type, or a check such as real called as check(value, key)
    if not isinstance(data, dict):
        _fail("expected an object", pointer.rsplit(".", 1)[0] if "." in pointer else "")
    if key not in data:
        _fail("missing required field", pointer)
    value = data[key]
    if not isinstance(kind, type):
        return checked(lambda v: kind(v, key), value, pointer)
    if not isinstance(value, kind):
        _fail(f"expected {kind.__name__}, got {value!r}", pointer)
    return value


def checked(check, value, pointer):
    """check(value), e.g. check_epsilon, raising ValidationError at pointer."""
    try:
        return check(value)
    except DomainError as exc:
        raise ValidationError(str(exc), pointer=pointer) from None


@dataclass(frozen=True)
class StationSpec:
    id: str
    service_rate: float = 1.0


@dataclass(frozen=True)
class ProblemSpec:
    epsilon: float = None
    delta: float = None
    costs: tuple = ()
    solver: str = None
    bound: str = "exact"


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario file; rates are stored exactly as given."""

    version: int
    stations: tuple
    scenarios: tuple        # ((rates per station), probability) pairs
    problem: ProblemSpec

    @property
    def station_count(self):
        return len(self.stations)

    def joint_set(self):
        """Offered-load scenario set: rates over service rates, with the
        probabilities renormalized to sum to one exactly."""
        total = math.fsum(p for _, p in self.scenarios)
        vectors = tuple(
            tuple(rate / station.service_rate
                  for rate, station in zip(rates, self.stations))
            for rates, _ in self.scenarios)
        probs = tuple(p / total for _, p in self.scenarios)
        return JointScenarioSet(vectors, probs)

    def to_data(self):
        return {
            "version": self.version,
            "stations": [
                {"id": s.id, "service_rate": s.service_rate}
                for s in self.stations
            ],
            "scenarios": [
                {"rates": list(rates), "probability": p}
                for rates, p in self.scenarios
            ],
            "problem": {
                key: value
                for key, value in (
                    ("epsilon", self.problem.epsilon),
                    ("delta", self.problem.delta),
                    ("costs", list(self.problem.costs)),
                    ("solver", self.problem.solver),
                    ("bound", self.problem.bound),
                )
                if value is not None
            },
        }

    def digest(self):
        canonical = json.dumps(self.to_data(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_stations(data):
    stations = _require(data, "stations", list, "stations")
    if not stations:
        _fail("at least one station is required", "stations")
    specs = []
    seen = set()
    for i, entry in enumerate(stations):
        name = _require(entry, "id", str, f"stations[{i}].id")
        if not name:
            _fail("station id must be non-empty", f"stations[{i}].id")
        if name in seen:
            _fail(f"duplicate station id {name!r}", f"stations[{i}].id")
        seen.add(name)
        rate = 1.0
        if "service_rate" in entry:
            rate = checked(lambda v: positive(v, "service rate"),
                           entry["service_rate"], f"stations[{i}].service_rate")
        specs.append(StationSpec(id=name, service_rate=rate))
    return tuple(specs)


def _parse_scenarios(data, station_count):
    scenarios = _require(data, "scenarios", list, "scenarios")
    if not scenarios:
        _fail("at least one scenario is required", "scenarios")
    parsed = []
    for i, entry in enumerate(scenarios):
        rates = _require(entry, "rates", list, f"scenarios[{i}].rates")
        if len(rates) != station_count:
            _fail(f"expected {station_count} rates, got {len(rates)}",
                  f"scenarios[{i}].rates")
        values = tuple(checked(lambda v: positive(v, "scenario rate"), r,
                               f"scenarios[{i}].rates[{j}]")
                       for j, r in enumerate(rates))
        prob = _require(entry, "probability", real,
                        f"scenarios[{i}].probability")
        if not 0.0 < prob <= 1.0:
            _fail(f"probability must lie in (0, 1], got {prob!r}",
                  f"scenarios[{i}].probability")
        parsed.append((values, prob))
    total = math.fsum(p for _, p in parsed)
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        _fail(f"probabilities sum to {total!r}, expected 1 within "
              f"{PROBABILITY_SUM_TOL}", "scenarios")
    return tuple(parsed)


def _parse_problem(data, station_count):
    problem = _require(data, "problem", dict, "problem")
    has_eps = "epsilon" in problem
    has_delta = "delta" in problem
    if has_eps == has_delta:
        _fail("exactly one of epsilon and delta is required", "problem")
    epsilon = delta = None
    if has_eps:
        epsilon = checked(check_epsilon, problem["epsilon"], "problem.epsilon")
    else:
        delta = checked(check_delta, problem["delta"], "problem.delta")
    costs = (1.0,) * station_count
    if "costs" in problem:
        raw = problem["costs"]
        if not isinstance(raw, list) or len(raw) != station_count:
            _fail(f"expected a list of {station_count} per-server prices",
                  "problem.costs")
        costs = tuple(checked(lambda v: positive(v, "per-server price"), c,
                              f"problem.costs[{j}]")
                      for j, c in enumerate(raw))
    return ProblemSpec(epsilon=epsilon, delta=delta, costs=costs,
                       solver=_choice(problem, "solver", SOLVER_MODES, None),
                       bound=_choice(problem, "bound", BOUND_CHOICES, "exact"))


def _choice(problem, key, choices, default):
    if key not in problem:
        return default
    value = _require(problem, key, str, f"problem.{key}")
    if value not in choices:
        _fail(f"unknown {key} {value!r}; choose from {', '.join(choices)}",
              f"problem.{key}")
    return value


def parse_scenario_data(data):
    """Validate a decoded scenario document and build a ScenarioFile.

    Raises ValidationError with a pointer to the offending field.
    """
    if not isinstance(data, dict):
        _fail("top level must be an object", "")
    version = _require(data, "version", lambda v, what: integer(v, what, 1), "version")
    stations = _parse_stations(data)
    scenarios = _parse_scenarios(data, len(stations))
    problem = _parse_problem(data, len(stations))
    return ScenarioFile(version=version, stations=stations,
                        scenarios=scenarios, problem=problem)


def load_scenario_file(path):
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}", pointer="file")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}", pointer="file")
    return parse_scenario_data(data)


def write_scenario_file(scenario_file, path):
    Path(path).write_text(json.dumps(scenario_file.to_data(), indent=2) + "\n", encoding="utf-8")


def resolve_scenario_path(name):
    """Resolve a CLI file argument: an existing path, or the name of a
    bundled fixture such as example1."""
    path = Path(name)
    if path.exists():
        return path
    stem = path.name.removesuffix(".json")
    bundled = resources.files("qstaff") / "data" / f"{stem}.json"
    if bundled.is_file():
        return Path(str(bundled))
    raise ValidationError(f"no such file or bundled fixture: {name}",
                          pointer="file")


@dataclass(frozen=True)
class RunRecord:
    input_digest: str
    solver: str
    solution: tuple
    objective: float
    achieved_qos: float      # exact no-wait probability, never a bound
    wall_time_s: float
    tool_version: str

    def to_data(self):
        return {**asdict(self), "solution": list(self.solution)}


def make_run_record(scenario_file, solver, solution, objective, wall_time_s):
    achieved = joint_constraint_value(scenario_file.joint_set(), solution)
    return RunRecord(
        input_digest=scenario_file.digest(),
        solver=solver,
        solution=tuple(int(x) for x in solution),
        objective=float(objective),
        achieved_qos=achieved,
        wall_time_s=float(wall_time_s),
        tool_version=__version__,
    )


def write_run_record(record, path):
    Path(path).write_text(json.dumps(record.to_data(), indent=2) + "\n", encoding="utf-8")
