"""Command-line entry point tying the solvers together.

Subcommands:

``frontier``
    Cost/QoS frontier sweep for a single station, emitted as CSV.
``solve``
    Staff a scenario file under one of the solver modes and write a
    run record.
``compare``
    Joint, reduced-enumeration, and decoupled solutions side by side.
``simulate``
    Re-check a solved staffing level against the event simulator.
``validate``
    Parse a scenario file and report its shape.

Exit codes: 0 success, 2 invalid input, 3 numerical solver failure,
4 provably infeasible instance. Human tables round to six significant
digits; JSON and CSV keep full precision.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from time import perf_counter

from ._version import __version__
from .erlang import BOUND_CHOICES
from .errors import (
    DomainError,
    EnumerationCapError,
    InfeasibleError,
    KeyScenarioTieError,
    StaffingError,
    ValidationError,
    positive,
)
from .files import (
    SOLVER_MODES,
    checked,
    load_scenario_file,
    make_run_record,
    resolve_scenario_path,
    write_run_record,
)
from .frontier import (
    check_delta,
    check_epsilon,
    frontier_csv_rows,
    sweep_frontier,
)
from .joint import (
    _expected_joint_wait,
    compare_solutions,
    enumerate_key_scenarios,
    joint_constraint_value,
    solve_decoupled,
    solve_joint,
    solve_weighted_stoch,
)
from .lattice import FEASIBILITY_TOL, repair
from .simulate import SimConfig, simulate_scenario_qos
from .stochastic import _reduced_decision, solve_reduced

__all__ = ["main"]


# ---------------------------------------------------------------------------
# output

def _cell(value, for_csv=False):
    """Render one cell: for a table, floats at 6 significant digits and
    vectors as (a, b); for CSV, floats by repr, which round-trips, and
    vectors as a;b."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value) if for_csv else f"{value:.6g}"
    if isinstance(value, (tuple, list)):
        cells = [_cell(v, for_csv) for v in value]
        return ";".join(cells) if for_csv else "(" + ", ".join(cells) + ")"
    return str(value)


def _emit(fmt, data, rows=(), csv_rows=None, path=None):
    """Print data as JSON, rows (a header is just the first row) as a
    table, or csv_rows (rows unless given) as CSV; or write it to path."""
    if fmt == "json":
        text = json.dumps(data, indent=2) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(
            [_cell(c, for_csv=True) for c in row]
            for row in (rows if csv_rows is None else csv_rows))
        text = buffer.getvalue()
    else:   # the last column is left unpadded, so no line ends in spaces
        table = [[_cell(c) for c in row] for row in rows]
        widths = [max(map(len, column)) for column in zip(*table)]
        text = "".join("  ".join([*map(str.ljust, row[:-1], widths), row[-1]]) + "\n"
                       for row in table)
    if path:
        _write_out(lambda: Path(path).write_text(text, encoding="utf-8"), path)
    else:
        sys.stdout.write(text)


def _write_out(write, path):
    """write(), which writes the --out file path; an OSError there is invalid input."""
    try:
        write()
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}", pointer="--out")


def _print_flat(payload, fmt, pairs=None):
    """A flat payload as JSON, one CSV row under its header, or key/value
    lines (its items, unless other pairs are given)."""
    _emit(fmt, payload, pairs or payload.items(), zip(*payload.items()))


# ---------------------------------------------------------------------------
# argument resolution

def _load(args):
    path = resolve_scenario_path(args.file)
    return path, load_scenario_file(path)


def _read_request(args):
    """(scenario file, mode, epsilon, delta, bound) for solve and simulate.
    Flags override the file; exactly one budget survives."""
    _, scenario_file = _load(args)
    problem = scenario_file.problem
    mode = args.mode or problem.solver
    if mode is None:
        raise ValidationError(
            "no solver mode; pass --mode or set problem.solver",
            pointer="problem.solver",
        )
    if args.epsilon is not None and args.delta is not None:
        raise ValidationError(
            "--epsilon and --delta are mutually exclusive", pointer="--delta")
    eps, delta = problem.epsilon, problem.delta
    if args.epsilon is not None:
        eps, delta = checked(check_epsilon, args.epsilon, "--epsilon"), None
    elif args.delta is not None:
        eps, delta = None, checked(check_delta, args.delta, "--delta")
    return scenario_file, mode, eps, delta, args.bound or problem.bound


def _require_exact(mode, bound):
    if bound != "exact":
        raise ValidationError(
            f"{mode} solves on the exact curve only; drop --bound {bound}",
            pointer="--bound",
        )


# ---------------------------------------------------------------------------
# solver dispatch

def _server_cost(costs, staffing):
    return math.fsum(c * n for c, n in zip(costs, staffing))


# the decision fields an epsilon mode backed by a joint solver prints
_JOINT_DETAIL = {
    "det": ("betas", "n_continuous"),
    "stoch-multi-joint": ("betas", "key_rates"),
    "stoch-multi-decoupled": ("betas",),
    "stoch-multi-reduced": ("betas", "key_rates", "key_indices"),
}


def _solve_mode(scenario_file, mode, eps, delta, bound):
    """Route one budgeted instance to its solver.

    Returns (staffing vector, objective, detail) where the objective is
    the integer server cost for epsilon modes and the exact weighted
    objective at the integer staffing for delta modes.
    """
    joint = scenario_file.joint_set()
    costs = scenario_file.problem.costs
    stations = scenario_file.station_count
    if mode == "det" and len(scenario_file.scenarios) != 1:
        raise ValidationError(
            "det mode needs exactly one scenario", pointer="scenarios")
    if mode == "stoch-single" and stations != 1:
        raise ValidationError(
            "stoch-single mode needs exactly one station", pointer="stations")

    if delta is not None:
        if mode not in ("det", "stoch-single", "stoch-multi-joint"):
            raise ValidationError(
                f"{mode} mode needs an epsilon budget", pointer="problem.delta")
        # det and stoch-single are the one-scenario and one-station cases
        report = solve_weighted_stoch(joint, delta, costs, bound=bound)
        staffing = report.decision.n_integer
        betas, key_rates = report.decision.betas, report.decision.key_rates
        if mode == "stoch-multi-joint":
            detail = {"betas": betas, "key_rates": key_rates}
        elif stations > 1:      # det, whose key rates are its only rates
            detail = {"betas": betas}
        else:
            detail = {"beta": betas[0]}
            if mode == "stoch-single":
                detail["key_rate"] = key_rates[0]
        detail["continuous_objective"] = report.objective
        wait = _expected_joint_wait(joint, staffing)
        return staffing, _server_cost(costs, staffing) + delta * wait, detail

    if mode == "det" and stations == 1:   # the reduced model on its one scenario
        decision, _ = _reduced_decision(joint.marginal(0), eps, bound)
        staffing, _ = repair(joint, (decision.n_integer,), 1.0 - eps, costs)
        detail = {"beta": decision.beta, "n_continuous": decision.n_continuous}
    elif mode == "stoch-single":
        report = solve_reduced(joint.marginal(0), eps, cost=costs[0], bound=bound)
        staffing = (report.decision.n_integer,)
        detail = {
            "beta": report.decision.beta,
            "key_rate": report.decision.key_rate,
            "expected_wait": report.expected_wait,
        }
    else:
        _require_exact("multistation det with epsilon" if mode == "det" else mode,
                       bound)
        if mode == "stoch-multi-decoupled":
            report = solve_decoupled(joint, eps, costs)
        elif mode == "stoch-multi-reduced":
            report = enumerate_key_scenarios(joint, eps, costs)
        else:   # det pins every station's key to its one scenario
            keys = (0,) * stations if mode == "det" else None
            report = solve_joint(joint, eps, costs, key_indices=keys)
        staffing = report.decision.n_integer
        detail = {name: getattr(report.decision, name)
                  for name in _JOINT_DETAIL[mode]}
    return staffing, _server_cost(costs, staffing), detail


# ---------------------------------------------------------------------------
# subcommands

def cmd_frontier(args):
    lam = checked(lambda v: positive(v, "lam"), args.lam, "--lam")
    start, stop, step = args.grid
    if not all(math.isfinite(v) for v in args.grid) or step <= 0:
        raise ValidationError(
            "grid must be START STOP STEP with a positive step",
            pointer="--grid",
        )
    grid = []
    value = start
    while value <= stop + 1e-12:
        grid.append(round(value, 12))
        value += step
    if not grid:
        raise ValidationError("the epsilon grid is empty", pointer="--grid")

    sweep = sweep_frontier(lam, grid, bound=args.bound)
    for eps, message in sweep.failures:
        print(f"warning: epsilon {eps:g}: {message}", file=sys.stderr)
    if not sweep.points:
        raise StaffingError("every grid point failed to solve")

    rows = frontier_csv_rows(lam, sweep, bound=args.bound)
    table = [list(rows[0])] + [list(row.values()) for row in rows]
    if args.out:
        _emit("csv", None, table, path=args.out)
    _emit(args.format, {"lam": lam, "bound": args.bound, "points": rows}, table)
    return 0


def cmd_solve(args):
    scenario_file, mode, eps, delta, bound = _read_request(args)

    start = perf_counter()
    staffing, objective, detail = _solve_mode(
        scenario_file, mode, eps, delta, bound)
    wall = perf_counter() - start

    record = make_run_record(scenario_file, mode, staffing, objective, wall)
    if eps is not None:
        # every epsilon report's rule: the integer staffing, on the exact curve
        detail["feasible"] = record.achieved_qos + FEASIBILITY_TOL >= 1.0 - eps
    if args.out:
        _write_out(lambda: write_run_record(record, args.out), args.out)
    pairs = [
        ("mode", mode),
        ("solution", staffing),
        ("objective", objective),
        ("achieved_qos", record.achieved_qos),
        ("epsilon", eps) if eps is not None else ("delta", delta),
        ("bound", bound),
        *detail.items(),
        ("wall_time_s", wall),
    ]
    _print_flat(record.to_data(), args.format, pairs)
    return 0


def cmd_compare(args):
    _, scenario_file = _load(args)
    eps = scenario_file.problem.epsilon
    if args.epsilon is not None:
        eps = checked(check_epsilon, args.epsilon, "--epsilon")
    if eps is None:
        raise ValidationError(
            "compare needs an epsilon budget", pointer="problem.epsilon")

    report = compare_solutions(
        scenario_file.joint_set(), eps, scenario_file.problem.costs)
    columns = (report.joint, report.reduced, report.decoupled)
    stations = scenario_file.station_count
    header = ["solver"] + [f"n_{i + 1}" for i in range(stations)]
    header += ["cost", "achieved_qos", "feasible"]
    rows = [
        [s.label, *s.n, s.cost, s.achieved_qos, s.feasible]
        for s in columns
    ]
    payload = {
        s.label: {
            "n": list(s.n),
            "cost": s.cost,
            "achieved_qos": s.achieved_qos,
            "feasible": s.feasible,
            "betas": list(s.betas),
        }
        for s in columns
    }
    payload["epsilon"] = eps
    payload["cost_ratio"] = report.cost_ratio

    if args.out:
        _emit("json", payload, path=args.out)
    ratio_row = ["cost_ratio"] + [""] * stations + [report.cost_ratio, "", ""]
    _emit(args.format, payload, [header, *rows], [header, *rows, ratio_row])
    if args.format == "table":
        print(f"cost ratio (decoupled/joint): {report.cost_ratio:.6g}")
    return 0


def cmd_simulate(args):
    scenario_file, mode, eps, delta, bound = _read_request(args)
    staffing, _, _ = _solve_mode(scenario_file, mode, eps, delta, bound)

    joint = scenario_file.joint_set()
    # n and lam below are placeholders; the scenario sweep supplies its own
    config = SimConfig(
        n=2,
        lam=1.0,
        warmup_customers=args.warmup,
        measured_customers=args.measured,
        replications=args.replications,
        seed=args.seed,
    )
    estimate = simulate_scenario_qos(joint, staffing, config)
    formula = 1.0 - joint_constraint_value(joint, staffing)
    payload = {
        "solver": mode,
        "solution": list(staffing),
        "seed": args.seed,
        "replications": estimate.replications_used,
        "measured_customers": args.measured,
        "wait_prob_mean": estimate.wait_prob_mean,
        "ci99_halfwidth": estimate.ci99_halfwidth,
        "wait_prob_formula": formula,
        "within_ci": abs(estimate.wait_prob_mean - formula)
        <= estimate.ci99_halfwidth,
    }
    if args.out:
        _emit("json", payload, path=args.out)
    _print_flat(payload, args.format)
    return 0


def cmd_validate(args):
    path, scenario_file = _load(args)
    problem = scenario_file.problem
    budget = ("epsilon", problem.epsilon) if problem.epsilon is not None \
        else ("delta", problem.delta)
    payload = {
        "ok": True,
        "file": str(path),
        "version": scenario_file.version,
        "stations": scenario_file.station_count,
        "scenarios": len(scenario_file.scenarios),
        budget[0]: budget[1],
        "costs": list(problem.costs),
        "solver": problem.solver,
        "bound": problem.bound,
        "digest": scenario_file.digest(),
    }
    _print_flat(payload, args.format)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qstaff",
        description="Staffing tools for many-server queues under "
                    "arrival-rate uncertainty.",
    )
    parser.add_argument(
        "--version", action="version", version=f"qstaff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, default_format="table"):
        p.add_argument("--out", help="also write the machine-readable result here")
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default=default_format)

    def add_scenario_args(p):
        p.add_argument("file", help="scenario file path or bundled name (example1)")
        p.add_argument("--mode", choices=SOLVER_MODES,
                       help="solver mode; defaults to problem.solver")
        p.add_argument("--epsilon", type=float,
                       help="override the QoS budget")
        p.add_argument("--delta", type=float,
                       help="override the waiting-cost weight")
        p.add_argument("--bound", choices=BOUND_CHOICES,
                       help="wait-probability curve; defaults to problem.bound")

    p = sub.add_parser(
        "frontier", help="sweep the single-station cost/QoS frontier",
        description="Sweep the single-station cost/QoS frontier. n_integer is the "
                    "plain nearest rounding of n_continuous: not repaired, and no "
                    "claim that it is feasible.")
    p.add_argument("--lam", type=float, required=True, help="offered load")
    p.add_argument("--grid", type=float, nargs=3,
                   default=(0.05, 0.95, 0.05),
                   metavar=("START", "STOP", "STEP"),
                   help="epsilon grid (default 0.05 0.95 0.05)")
    p.add_argument("--bound", choices=BOUND_CHOICES, default="exact")
    add_output(p, default_format="csv")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("solve", help="staff a scenario file")
    add_scenario_args(p)
    add_output(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "compare", help="joint vs reduced vs decoupled on one file")
    p.add_argument("file", help="scenario file path or bundled name")
    p.add_argument("--epsilon", type=float, help="override the QoS budget")
    add_output(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "simulate", help="simulate the union wait at the solved staffing")
    add_scenario_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replications", type=int, default=8)
    p.add_argument("--measured", type=int, default=10_000,
                   help="post-warmup arrivals measured per replication")
    p.add_argument("--warmup", type=int, default=None,
                   help="warmup arrivals (default: ten times the staffing)")
    add_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("file", help="scenario file path or bundled name")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_validate)

    return parser


def _emit_error(args, exc, code):
    print(f"error: {exc}", file=sys.stderr)
    if getattr(args, "format", None) == "json":
        _emit("json", {"error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "pointer": getattr(exc, "pointer", None),
        }})
    return code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError,
            KeyScenarioTieError, EnumerationCapError) as exc:
        return _emit_error(args, exc, 2)
    except InfeasibleError as exc:
        return _emit_error(args, exc, 4)
    except StaffingError as exc:
        return _emit_error(args, exc, 3)


if __name__ == "__main__":
    sys.exit(main())
