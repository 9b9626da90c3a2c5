"""End-to-end tests for the command-line interface.

Every test drives qstaff.cli.main in process and inspects stdout, stderr,
or the files it writes, so the exit-code contract and the output formats
are exercised without spawning subprocesses.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qstaff import cli, erlang
from qstaff.cli import main
from qstaff.erlang import BOUND_CHOICES, wait_probability
from qstaff.errors import BracketError, InfeasibleError
from qstaff.files import load_scenario_file, parse_scenario_data, resolve_scenario_path
from qstaff.frontier import CostFunction, integer_staffing, solve_constrained
from qstaff.joint import joint_constraint_value, solve_weighted_stoch
from qstaff.lattice import repair
from qstaff.stochastic import FEASIBILITY_TOL

EXAMPLE_SOLUTION = [496, 235]
EXAMPLE_COST = 3185.0
EXAMPLE_QOS = 0.950246622098234
DECOUPLED_SOLUTION = [484, 306]
DECOUPLED_COST = 3338.0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_document(tmp_path, document, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def det_document(lam=100.0, cost=2.0, **problem):
    problem = problem or {"epsilon": 0.1}
    return {
        "version": 1,
        "stations": [{"id": "desk"}],
        "scenarios": [{"rates": [lam], "probability": 1.0}],
        "problem": {"costs": [cost], "solver": "det", **problem},
    }


DELETE = object()


def document_with(field, value):
    """det_document() with the entry at field, a path of keys and indices,
    set to value (deleted for DELETE); the empty path replaces the whole
    document."""
    if not field:
        return value
    document = det_document()
    *parents, last = field
    target = document
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return document


def two_station_document(scenarios, **problem):
    return {
        "version": 1,
        "stations": [{"id": "front"}, {"id": "back"}],
        "scenarios": [{"rates": list(rates), "probability": p}
                      for rates, p in scenarios],
        "problem": {"epsilon": 0.05, "costs": [5.0, 3.0], **problem},
    }


# the ROADMAP's 64-scenario stress instance S64: rates 300..475 by 25 and
# 100..240 by 20, uniform and independent
S64_DOCUMENT = two_station_document(
    [((300.0 + 25.0 * i, 100.0 + 20.0 * j), 1.0 / 64)
     for i in range(8) for j in range(8)],
    solver="stoch-multi-joint")


def two_point_document():
    # single station, two-point rate distribution
    return {
        "version": 1,
        "stations": [{"id": "s"}],
        "scenarios": [
            {"rates": [100.0], "probability": 0.58},
            {"rates": [200.0], "probability": 0.42},
        ],
        "problem": {"epsilon": 0.1, "costs": [2.0],
                    "solver": "stoch-multi-joint"},
    }


class TestValidate:

    def test_bundled_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", "example1")
        assert code == 0
        assert "stoch-multi-joint" in out
        assert "6" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "validate", "example1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["stations"] == 2
        assert payload["scenarios"] == 6
        assert payload["epsilon"] == 0.05
        assert payload["costs"] == [5.0, 3.0]

    def test_json_payload_names_a_delta_budget(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document(delta=50.0))
        code, out, _ = run(capsys, "validate", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == 50.0
        assert "epsilon" not in payload

    def test_probability_sum_off_exits_2(self, capsys, tmp_path):
        document = two_point_document()
        document["scenarios"][0]["probability"] = 0.5
        path = write_document(tmp_path, document)
        code, _, err = run(capsys, "validate", path)
        assert code == 2
        assert "scenarios" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-fixture")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("where", ["absolute", "tmp_path"])
    def test_missing_path_named_like_a_fixture_exits_2(self, capsys, tmp_path, command,
                                                        where):
        # only a bare name falls back to a bundled fixture; a path with a
        # directory part names that file or nothing
        path = ("/nonexistent/dir/example1.json" if where == "absolute"
                else str(tmp_path / "example1.json"))
        code, out, err = run(capsys, command, path)
        assert code == 2
        assert err == f"error: file: no such file or bundled fixture: {path}\n"
        assert "Traceback" not in err and "data/example1.json" not in out

    @pytest.mark.parametrize("name", ["example1", "example1.json"])
    def test_bare_fixture_name_resolves(self, name):
        assert resolve_scenario_path(name).name == "example1.json"

    def test_json_error_payload(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not valid json")
        code, out, _ = run(capsys, "validate", str(path), "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "ValidationError"
        assert payload["error"]["pointer"] == "file"

    def test_missing_budget_exits_2(self, capsys, tmp_path):
        document = det_document()
        del document["problem"]["epsilon"]
        path = write_document(tmp_path, document)
        code, _, err = run(capsys, "validate", path)
        assert code == 2
        assert "problem" in err

    @pytest.mark.parametrize("field, value, pointer", [
        ((), [1.0], ""),
        (("version",), DELETE, "version"),
        (("stations", 0), "desk", "stations[0]"),
        (("scenarios", 0), [100.0], "scenarios[0]"),
        (("stations",), {"id": "desk"}, "stations"),
        (("stations", 0, "id"), 7, "stations[0].id"),
        (("stations",), [], "stations"),
        (("stations", 0, "id"), "", "stations[0].id"),
        (("stations",), [{"id": "desk"}, {"id": "desk"}], "stations[1].id"),
        (("scenarios",), [], "scenarios"),
        (("scenarios", 0, "rates"), [100.0, 50.0], "scenarios[0].rates"),
        (("scenarios", 0, "probability"), 0.0, "scenarios[0].probability"),
        (("problem", "costs"), [1.0, 2.0], "problem.costs"),
        (("problem", "solver"), "magic", "problem.solver"),
        (("problem", "bound"), "lowest", "problem.bound"),
        (None, None, "file"),
    ], ids=["top-level", "missing-field", "station-object", "scenario-object",
            "stations-type", "id-type", "no-stations", "empty-id", "duplicate-id",
            "no-scenarios", "rate-count", "probability", "price-count", "solver",
            "bound", "unreadable"])
    def test_bad_document_points_at_its_field(self, capsys, tmp_path, field, value,
                                              pointer):
        # field None stands for a path that cannot be read: a directory
        path = str(tmp_path) if field is None else write_document(
            tmp_path, document_with(field, value))
        code, out, err = run(capsys, "validate", path, "--format", "json")
        assert code == 2
        assert err.startswith("error: ")
        error = json.loads(out)["error"]
        assert (error["type"], error["pointer"]) == ("ValidationError", pointer)

    def test_service_rate_rescales_offered_load(self, tmp_path):
        document = det_document(lam=200.0)
        document["stations"][0]["service_rate"] = 2.0
        scenario_file = load_scenario_file(write_document(tmp_path, document))
        assert scenario_file.joint_set().pairs()[0][0] == (100.0,)


def frontier_rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestFrontier:

    def test_default_grid(self, capsys):
        code, out, _ = run(capsys, "frontier", "--lam", "100")
        assert code == 0
        header, rows = frontier_rows(out)
        assert header[:2] == ["epsilon", "beta"]
        assert len(rows) == 19
        betas = [float(r["beta"]) for r in rows]
        assert all(b > a for a, b in zip(betas[1:], betas))

    def test_upper_bound_costs_dominate(self, capsys):
        grid = ("--grid", "0.1", "0.9", "0.1")
        _, exact_out, _ = run(capsys, "frontier", "--lam", "100", *grid)
        _, upper_out, _ = run(capsys, "frontier", "--lam", "100", *grid,
                              "--bound", "upper")
        _, exact = frontier_rows(exact_out)
        _, upper = frontier_rows(upper_out)
        assert len(exact) == len(upper) == 9
        for e, u in zip(exact, upper):
            assert float(u["cost"]) >= float(e["cost"]) - 1e-12

    def test_empty_grid_exits_2(self, capsys):
        # a zero step would never leave START, so it is refused like a grid
        # that ends before it starts
        for grid in (("0.9", "0.1", "0.05"), ("0.1", "0.5", "0")):
            code, _, err = run(capsys, "frontier", "--lam", "100", "--grid", *grid)
            assert code == 2
            assert "--grid" in err

    def test_grid_reaching_one_exits_2(self, capsys):
        code, _, _ = run(capsys, "frontier", "--lam", "100",
                         "--grid", "0.5", "1.5", "0.5")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("step", ["1e-300", "1e-12"])
    def test_grid_past_the_cap_exits_2(self, capsys, fmt, step):
        # a step below 0.1's float spacing never advances the grid, and
        # 1e-12 would take 1e11 steps: both are refused before any is taken
        code, out, err = run(capsys, "frontier", "--lam", "100", "--format", fmt,
                             "--grid", "0.1", "0.2", step)
        assert code == 2
        assert err.startswith(f"error: --grid: the grid would take more than {cli.GRID_CAP}")
        assert "Traceback" not in err
        if fmt == "json":
            assert json.loads(out)["error"]["pointer"] == "--grid"
        else:
            assert out == ""

    def test_grid_at_the_cap_keeps_its_points(self, capsys, monkeypatch):
        # a grid of exactly GRID_CAP steps is swept; only a longer one is refused
        monkeypatch.setattr(cli, "GRID_CAP", 4)
        code, out, _ = run(capsys, "frontier", "--lam", "100",
                           "--grid", "0.125", "0.625", "0.125")
        assert code == 0
        assert [row["epsilon"] for row in frontier_rows(out)[1]] == [
            "0.125", "0.25", "0.375", "0.5", "0.625"]
        code, _, err = run(capsys, "frontier", "--lam", "100",
                           "--grid", "0.125", "0.75", "0.125")
        assert code == 2 and err.startswith("error: --grid:")

    @pytest.mark.parametrize("lam", ["0", "-5"])
    def test_bad_lam_exits_2(self, capsys, lam):
        code, _, err = run(capsys, "frontier", "--lam", lam)
        assert code == 2
        assert "--lam" in err

    def test_sub_unit_lam_solves(self, capsys):
        for lam in ("0.5", "0.2"):
            code, out, _ = run(capsys, "frontier", "--lam", lam)
            assert code == 0
            _, rows = frontier_rows(out)
            assert len(rows) == 19
            assert all(int(row["n_integer"]) >= 1 for row in rows)

    def test_light_load_upper_bound_solves(self, capsys):
        # lambda/n lies below 2^-53 at every grid point, where 1 - rho rounds to 1
        code, out, err = run(capsys, "frontier", "--lam", "1e-18", "--bound", "upper")
        assert (code, err) == (0, "")
        _, rows = frontier_rows(out)
        assert len(rows) == 19
        assert all(int(row["n_integer"]) == 1 for row in rows)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "frontier.csv"
        code, out, _ = run(capsys, "frontier", "--lam", "50",
                           "--grid", "0.2", "0.4", "0.1",
                           "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out

    def test_table_rounds_the_csv_cells(self, capsys):
        grid = ("--grid", "0.1", "0.3", "0.1")
        _, csv_out, _ = run(capsys, "frontier", "--lam", "100", *grid)
        code, table_out, _ = run(capsys, "frontier", "--lam", "100", *grid,
                                 "--format", "table")
        assert code == 0
        header, rows = frontier_rows(csv_out)
        table = [line.split() for line in table_out.splitlines()]
        assert table[0] == header
        assert table[1:] == [[f"{float(row[key]):.6g}" for key in header]
                             for row in rows]

    def test_failed_epsilon_warns_and_the_rest_solve(self, capsys):
        # at lam = 0.001 even the bracket cap's 2 servers wait with
        # probability far above 1e-12
        code, out, err = run(capsys, "frontier", "--lam", "0.001",
                             "--grid", "1e-12", "0.5", "0.25")
        assert code == 0
        assert err.startswith("warning: epsilon 1e-12: BracketError")
        _, rows = frontier_rows(out)
        assert [round(float(row["epsilon"]), 6) for row in rows] == [0.25, 0.5]

    @pytest.mark.parametrize("grid, epsilons", [
        (("3.3e-12", "3.3e-12", "1"), ["3.3e-12"]),
        (("4e-13", "4e-13", "1"), ["4e-13"]),
        (("2e-12", "5e-12", "1e-12"), ["2e-12", "3e-12", "4e-12", "5e-12"]),
    ])
    def test_tiny_epsilon_grid_keeps_its_points(self, capsys, grid, epsilons):
        # grid points keep 12 significant digits, not 12 decimal places, and
        # the stop slack shrinks with the step, so no point lands past STOP
        code, out, err = run(capsys, "frontier", "--lam", "100", "--grid", *grid)
        assert (code, err) == (0, "")
        _, rows = frontier_rows(out)
        assert [row["epsilon"] for row in rows] == epsilons

    def test_every_epsilon_failing_exits_3(self, capsys):
        code, out, err = run(capsys, "frontier", "--lam", "0.001",
                             "--grid", "1e-12", "1e-12", "0.1")
        assert code == 3
        assert out == ""
        assert "warning: epsilon 1e-12" in err
        assert "error: every grid point failed to solve" in err

    def test_json_points_match_library(self, capsys):
        code, out, _ = run(capsys, "frontier", "--lam", "50",
                           "--grid", "0.2", "0.2", "0.1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 1
        point = payload["points"][0]
        report = solve_constrained(50.0, 0.2, CostFunction())
        assert point["beta"] == report.beta
        assert point["n_integer"] == 58


class TestSolve:

    @pytest.mark.parametrize("q", [math.nan, 0.0])
    def test_quadrature_failure_exits_3(self, capsys, tmp_path, monkeypatch, q):
        # an unusable incomplete gamma Q stops the det solve's search; the
        # quadrature cache is cleared so that no earlier value stands in
        monkeypatch.setattr(erlang, "gammaincc", lambda n, lam: q)
        erlang._alpha_bar_cached.cache_clear()
        path = write_document(tmp_path, det_document(lam=90.0))
        code, out, err = run(capsys, "solve", path, "--format", "json")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "QuadratureError"
        assert err.startswith("error: incomplete gamma Q(n, lambda) = ")

    def test_joint_record(self, capsys):
        code, out, _ = run(capsys, "solve", "example1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["solver"] == "stoch-multi-joint"
        assert record["solution"] == EXAMPLE_SOLUTION
        assert record["objective"] == EXAMPLE_COST
        assert record["achieved_qos"] == pytest.approx(EXAMPLE_QOS, rel=1e-12)
        assert record["tool_version"]
        assert record["wall_time_s"] > 0

    def test_decoupled_record(self, capsys):
        code, out, _ = run(capsys, "solve", "example1",
                           "--mode", "stoch-multi-decoupled",
                           "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["solution"] == DECOUPLED_SOLUTION
        assert record["objective"] == DECOUPLED_COST

    def test_out_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "record.json"
        code, out, _ = run(capsys, "solve", "example1",
                           "--mode", "stoch-multi-reduced",
                           "--format", "json", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_record_qos_reproducible(self, capsys):
        """The recorded QoS re-evaluates exactly from the recorded solution."""
        _, out, _ = run(capsys, "solve", "example1", "--format", "json")
        record = json.loads(out)
        scenario_file = load_scenario_file(resolve_scenario_path("example1"))
        replayed = joint_constraint_value(
            scenario_file.joint_set(), tuple(record["solution"]))
        assert record["achieved_qos"] == replayed
        assert record["input_digest"] == scenario_file.digest()

    def test_det_epsilon_matches_library(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document())
        code, out, _ = run(capsys, "solve", path, "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["solution"] == [115]
        assert record["objective"] == 230.0

    @pytest.mark.parametrize("mode", ["det", "stoch-single"])
    @pytest.mark.parametrize("epsilon, solution, feasible", [
        (0.05, 119, True),    # n = 118.15 rounds down to 118, which misses epsilon
        (0.1, 115, True),     # n = 114.76 rounds up
    ])
    def test_single_station_epsilon_reports_feasible(
            self, capsys, tmp_path, mode, epsilon, solution, feasible):
        path = write_document(tmp_path, det_document(epsilon=epsilon, solver=mode))
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        fields = dict(line.split(None, 1) for line in out.splitlines())
        assert fields["solution"] == f"({solution})"
        assert fields["feasible"] == ("true" if feasible else "false")
        assert (wait_probability(solution, 100.0) <= epsilon + FEASIBILITY_TOL) \
            == feasible

    @pytest.mark.parametrize("mode, bound, solution, feasible", [
        ("det", "exact", 119, True),
        ("det", "upper", 119, True),
        ("det", "lower", 119, True),
        # the Halfin-Whitt root 117.40 rounds to 117; 119, the first level
        # meeting epsilon, lies outside the box 116 .. 118 the repair walks
        ("det", "hw", 117, False),
        ("stoch-single", "upper", 119, True),
    ])
    def test_single_station_repair_under_every_bound(
            self, capsys, tmp_path, mode, bound, solution, feasible):
        path = write_document(tmp_path, det_document(epsilon=0.05, solver=mode))
        code, out, _ = run(capsys, "solve", path, "--bound", bound)
        assert code == 0
        fields = dict(line.split(None, 1) for line in out.splitlines())
        assert fields["solution"] == f"({solution})"
        assert fields["feasible"] == ("true" if feasible else "false")

    @settings(max_examples=100, deadline=None)
    @given(bound=st.sampled_from(BOUND_CHOICES), lam=st.floats(0.05, 5000.0),
           exponent=st.floats(-15.0, math.log10(0.5)), upper=st.booleans())
    def test_det_is_the_reduced_model_on_its_one_scenario(self, bound, lam, exponent, upper):
        # epsilon log-uniform from 1e-15 to 1/2, and mirrored up to 1 - 1e-15
        epsilon = 1.0 - 10.0 ** exponent if upper else 10.0 ** exponent
        scenario_file = parse_scenario_data(det_document(lam=lam, epsilon=epsilon))

        def one_curve_root():
            # the single-rate formula: the root of the bound's curve at
            # epsilon, its level, the nearest integer, then the repair
            beta = solve_constrained(lam, epsilon, bound=bound).beta
            n_continuous = lam + beta * math.sqrt(lam)
            staffing, _ = repair(scenario_file.joint_set(), (integer_staffing(n_continuous),),
                                 1.0 - epsilon, scenario_file.problem.costs)
            return staffing, {"beta": beta, "n_continuous": n_continuous}

        def routed():
            staffing, _, detail = cli._solve_mode(scenario_file, "det", epsilon, None, bound)
            return staffing, detail

        def outcome(call):
            try:
                return call()
            except Exception as exc:    # both sides must raise alike
                return type(exc)

        assert outcome(routed) == outcome(one_curve_root)

    def test_det_delta_minimizes_weighted_cost(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document(delta=50.0))
        code, out, _ = run(capsys, "solve", path, "--format", "json")
        assert code == 0
        record = json.loads(out)
        n = record["solution"][0]

        def objective(k):
            return 2.0 * k + 50.0 * wait_probability(k, 100.0)

        best = min(range(101, 140), key=objective)
        assert n == best
        assert record["objective"] == pytest.approx(objective(best), rel=1e-12)

    def test_stoch_single_delta_reports_its_key_rate(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document(solver="stoch-single", delta=50.0))
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        fields = dict(line.split(None, 1) for line in out.splitlines())
        assert fields["mode"] == "stoch-single"
        assert fields["solution"] == "(110)"
        assert fields["key_rate"] == "100"
        assert "beta" in fields and "delta" in fields

    def test_huge_delta_objective_keeps_the_tiny_wait(self, capsys, tmp_path):
        # 65 servers against rate 1 wait with probability 4.5e-92, which
        # 1 - no-wait rounds to zero
        path = write_document(tmp_path, det_document(lam=1.0, cost=1.0, delta=1e200))
        code, out, _ = run(capsys, "solve", path, "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["solution"] == [65]
        assert record["objective"] == pytest.approx(
            65.0 + 1e200 * wait_probability(65, 1.0), rel=1e-12)

    @pytest.mark.parametrize("document", [
        None,
        two_station_document([((120.0, 40.0), 1.0)], solver="det"),
    ], ids=["example1-stoch-multi-joint", "two-station-det"])
    def test_delta_modes_match_library(self, capsys, tmp_path, document):
        path = write_document(tmp_path, document) if document else "example1"
        code, out, _ = run(capsys, "solve", path, "--delta", "20000",
                           "--format", "json")
        assert code == 0
        scenario_file = load_scenario_file(resolve_scenario_path(path))
        expected = solve_weighted_stoch(
            scenario_file.joint_set(), 20000.0, scenario_file.problem.costs)
        assert json.loads(out)["solution"] == list(expected.decision.n_integer)

    def test_epsilon_flag_overrides_file(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document())
        code, out, _ = run(capsys, "solve", path, "--epsilon", "0.05",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["solution"] == [119]

    def test_delta_flag_replaces_epsilon_file(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document())
        code, out, _ = run(capsys, "solve", path, "--delta", "50",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["solution"] == [110]

    def test_both_budget_flags_exit_2(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document())
        code, _, err = run(capsys, "solve", path,
                           "--epsilon", "0.05", "--delta", "50")
        assert code == 2
        assert "mutually exclusive" in err

    def test_mode_required(self, capsys, tmp_path):
        document = det_document()
        del document["problem"]["solver"]
        path = write_document(tmp_path, document)
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "problem.solver" in err
        # the file itself is valid; validate shows the missing mode as -
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert dict(line.split(None, 1) for line in out.splitlines())["solver"] == "-"

    def test_det_needs_single_scenario(self, capsys):
        code, _, err = run(capsys, "solve", "example1", "--mode", "det")
        assert code == 2
        assert "scenario" in err

    def test_stoch_single_needs_one_station(self, capsys):
        code, _, err = run(capsys, "solve", "example1",
                           "--mode", "stoch-single")
        assert code == 2
        assert "station" in err

    def test_joint_epsilon_rejects_bound(self, capsys):
        code, _, err = run(capsys, "solve", "example1", "--bound", "upper")
        assert code == 2
        assert "--bound" in err

    def test_decoupled_rejects_delta(self, capsys):
        code, _, err = run(capsys, "solve", "example1",
                           "--mode", "stoch-multi-decoupled", "--delta", "10")
        assert code == 2
        assert "epsilon" in err

    def test_probability_sum_off_exits_2(self, capsys, tmp_path):
        document = two_point_document()
        document["scenarios"][1]["probability"] = 0.41
        path = write_document(tmp_path, document)
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "scenarios" in err

    def test_key_tie_exits_2(self, capsys, tmp_path):
        document = {
            "version": 1,
            "stations": [{"id": "s"}],
            "scenarios": [
                {"rates": [100.0], "probability": 0.6},
                {"rates": [200.0], "probability": 0.4},
            ],
            "problem": {"epsilon": 0.4, "costs": [1.0],
                        "solver": "stoch-single"},
        }
        path = write_document(tmp_path, document)
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "strict" in err

    def test_infeasible_maps_to_4(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InfeasibleError("beyond the bracket cap")

        monkeypatch.setattr("qstaff.cli._solve_mode", boom)
        code, _, err = run(capsys, "solve", "example1")
        assert code == 4
        assert "bracket cap" in err

    def test_numerical_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise BracketError("no sign change")

        monkeypatch.setattr("qstaff.cli._solve_mode", boom)
        code, _, err = run(capsys, "solve", "example1")
        assert code == 3
        assert "sign change" in err


class TestCompare:

    def test_example_table(self, capsys):
        code, out, _ = run(capsys, "compare", "example1")
        assert code == 0
        assert "joint" in out and "decoupled" in out
        assert "496" in out and "306" in out
        assert "1.04804" in out

    def test_example_json(self, capsys, tmp_path):
        out_path = tmp_path / "compare.json"
        code, out, _ = run(capsys, "compare", "example1", "--format", "json",
                           "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert json.loads(out_path.read_text()) == payload
        assert payload["joint"]["n"] == EXAMPLE_SOLUTION
        assert payload["decoupled"]["n"] == DECOUPLED_SOLUTION
        assert payload["cost_ratio"] == pytest.approx(
            DECOUPLED_COST / EXAMPLE_COST, rel=1e-12)
        assert payload["cost_ratio"] == pytest.approx(1.048, abs=0.01)
        for label in ("joint", "reduced", "decoupled"):
            assert payload[label]["achieved_qos"] >= 0.95 - 5e-3
        for joint_n, reduced_n in zip(payload["joint"]["n"],
                                      payload["reduced"]["n"]):
            assert abs(joint_n - reduced_n) <= 1

    @pytest.mark.parametrize("document", [None, S64_DOCUMENT],
                             ids=["example1", "S64"])
    def test_feasible_flag_follows_achieved_qos(self, capsys, tmp_path, document):
        path = write_document(tmp_path, document) if document else "example1"
        code, out, _ = run(capsys, "compare", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        target = 1.0 - payload["epsilon"]
        flags = []
        for label in ("joint", "reduced", "decoupled"):
            column = payload[label]
            assert column["feasible"] == (
                column["achieved_qos"] + FEASIBILITY_TOL >= target)
            flags.append("true" if column["feasible"] else "false")
        code, out, _ = run(capsys, "compare", path, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["feasible"] for row in rows[:3]] == flags
        code, out, _ = run(capsys, "compare", path)
        assert code == 0
        assert out.split("\n")[0].split()[-1] == "feasible"

    def test_single_station_columns_identical(self, capsys, tmp_path):
        path = write_document(tmp_path, two_point_document())
        code, out, _ = run(capsys, "compare", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["joint"]["n"] == payload["reduced"]["n"]
        assert payload["joint"]["n"] == payload["decoupled"]["n"]
        assert payload["joint"]["n"] == [214]

    def test_needs_epsilon(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document(delta=50.0))
        code, _, err = run(capsys, "compare", path)
        assert code == 2
        assert "epsilon" in err
        code, out, _ = run(capsys, "compare", path, "--epsilon", "0.1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["joint"]["n"] == [115]


class TestSimulate:

    def test_union_wait_within_ci(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document())
        out_path = tmp_path / "simulate.json"
        code, out, _ = run(capsys, "simulate", path, "--seed", "3",
                           "--replications", "4", "--format", "json",
                           "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert json.loads(out_path.read_text()) == payload
        assert payload["solution"] == [115]
        assert payload["within_ci"] is True
        scenario_file = load_scenario_file(path)
        formula = 1.0 - joint_constraint_value(
            scenario_file.joint_set(), (115,))
        assert payload["wait_prob_formula"] == formula

    def test_seed_reproducible(self, capsys, tmp_path):
        path = write_document(tmp_path, det_document())
        args = ("simulate", path, "--replications", "2", "--format", "json")
        _, first, _ = run(capsys, *args, "--seed", "5")
        _, second, _ = run(capsys, *args, "--seed", "5")
        _, moved, _ = run(capsys, *args, "--seed", "6")
        mean = lambda out: json.loads(out)["wait_prob_mean"]
        assert mean(first) == mean(second)
        assert mean(first) != mean(moved)

    def test_example1_estimate_pinned(self, capsys):
        # the README's simulate figures at full precision: a change to the
        # draws or the order of events moves them and must update this test
        code, out, _ = run(capsys, "simulate", "example1", "--seed", "1",
                           "--replications", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["wait_prob_mean"] == 0.046772894775000004
        assert payload["ci99_halfwidth"] == 0.00951120490177864


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_csv_row_matches_json(capsys, tmp_path, command):
    # one CSV row under the JSON payload's keys: floats by repr, vectors
    # joined by semicolons, flags as true/false
    path = write_document(tmp_path, det_document())
    args = (command, path, "--seed", "2", "--replications", "2") if command == "simulate" \
        else (command, path)
    _, out, _ = run(capsys, *args, "--format", "json")
    payload = json.loads(out)
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and list(rows[0]) == list(payload)

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, list):
            return ";".join(cell(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    payload.pop("wall_time_s", None)    # the only field that differs between runs
    assert {key: rows[0][key] for key in payload} == {
        key: cell(value) for key, value in payload.items()}


class TestFileErrors:
    # an --out path that cannot be written and a scenario file that is not
    # UTF-8 are invalid input: exit 2 with an error line, never a traceback
    # (here, in process, an exception main lets through fails the test)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("command", ["frontier", "solve", "compare", "simulate"])
    def test_out_under_a_missing_directory_exits_2(self, capsys, tmp_path, command, fmt):
        out_path = tmp_path / "missing" / "out.json"
        args = {
            "frontier": ("frontier", "--lam", "50"),
            "solve": ("solve", "example1"),
            "compare": ("compare", "example1"),
            "simulate": ("simulate", write_document(tmp_path, det_document()),
                         "--seed", "1", "--replications", "2"),
        }[command]
        code, out, err = run(capsys, *args, "--format", fmt, "--out", str(out_path))
        assert code == 2
        assert err.startswith("error: --out: cannot write ")
        assert not out_path.parent.exists()
        if fmt == "json":
            assert json.loads(out)["error"]["pointer"] == "--out"
        else:
            assert out == ""

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(det_document()).encode("utf-16-le"))
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert code == 2
        assert err.startswith(f"error: file: cannot read {path}: 'utf-8' codec")
        assert json.loads(out)["error"]["pointer"] == "file"


class TestRoundTrip:

    def test_write_read_identity(self, tmp_path):
        from qstaff.files import write_scenario_file

        original = load_scenario_file(resolve_scenario_path("example1"))
        path = tmp_path / "copy.json"
        write_scenario_file(original, path)
        reloaded = load_scenario_file(path)
        assert reloaded == original
        assert reloaded.digest() == original.digest()


class TestParser:

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "qstaff" in capsys.readouterr().out


class TestBudgetChecks:
    # out-of-range budgets exit 2 with a ValidationError at the flag or
    # field that carried them

    @pytest.mark.parametrize("flag, value", [
        *(("--epsilon", v) for v in ("0", "1", "1.5", "nan")),
        *(("--delta", v) for v in ("0", "-1", "nan", "inf")),
    ])
    def test_solve_flag_out_of_range(self, capsys, flag, value):
        code, out, err = run(capsys, "solve", "example1", f"{flag}={value}",
                             "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError"
        assert error["pointer"] == flag
        rule = ("lie strictly inside (0, 1)" if flag == "--epsilon"
                else "be a positive real")
        assert error["message"] == (
            f"{flag}: {flag[2:]} must {rule}, got {float(value)!r}")

    def test_compare_epsilon_out_of_range(self, capsys):
        code, out, _ = run(capsys, "compare", "example1", "--epsilon", "1.5",
                           "--format", "json")
        assert code == 2
        assert json.loads(out)["error"]["pointer"] == "--epsilon"

    @pytest.mark.parametrize("field, value", [
        ("epsilon", 1.0), ("epsilon", True), ("delta", -1.0), ("delta", "50"),
    ])
    def test_file_budget_out_of_range(self, capsys, tmp_path, field, value):
        path = write_document(tmp_path, det_document(**{field: value}))
        code, out, _ = run(capsys, "validate", path, "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError"
        assert error["pointer"] == f"problem.{field}"


HUGE = 10**400  # a JSON integer beyond float range


def document_with_huge(pointer):
    document = {"scenarios[0].rates[0]": det_document(lam=HUGE),
                "problem.costs[0]": det_document(cost=HUGE),
                "problem.epsilon": det_document(epsilon=HUGE),
                "problem.delta": det_document(delta=HUGE)}.get(pointer, det_document())
    if pointer == "scenarios[0].probability":
        document["scenarios"][0]["probability"] = HUGE
    elif pointer == "stations[0].service_rate":
        document["stations"][0]["service_rate"] = HUGE
    elif pointer == "version":
        document["version"] = HUGE
    return document


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("pointer", [
    "scenarios[0].rates[0]", "scenarios[0].probability", "stations[0].service_rate",
    "problem.costs[0]", "problem.epsilon", "problem.delta", "version",
])
def test_integer_beyond_float_range_exits_2(capsys, tmp_path, command, pointer):
    path = write_document(tmp_path, document_with_huge(pointer))
    code, out, err = run(capsys, command, path, "--format", "json")
    assert code == 2
    assert err.startswith(f"error: {pointer}: ")
    error = json.loads(out)["error"]
    assert (error["type"], error["pointer"]) == ("ValidationError", pointer)
