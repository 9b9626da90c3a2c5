"""Tests for the --diff half of scripts/same_answers.py on hand-made dumps."""
import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "same_answers.py"


@pytest.fixture(scope="module")
def same_answers():
    spec = importlib.util.spec_from_file_location("same_answers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump(**outputs):
    return {name: {"repr": repr(fields), "fields": fields}
            for name, fields in outputs.items()}


BEFORE = dump(**{
    "compare/a": {"n": [496, 235], "cost": 3185.0, "label": "joint"},
    "compare/b": {"n": [484, 306], "cost": 3338.0, "label": "joint"},
})


def run_main(same_answers, tmp_path, before, after):
    paths = []
    for name, data in (("before.json", before), ("after.json", after)):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return same_answers.main(["--diff", *paths])


def test_identical_dumps(same_answers, tmp_path, capsys):
    lines, same = same_answers.diff(BEFORE, BEFORE)
    assert same
    assert lines == ["compare.cost (2 outputs): identical",
                     "compare.label (2 outputs): identical",
                     "compare.n (2 outputs): identical"]
    assert run_main(same_answers, tmp_path, BEFORE, BEFORE) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("after, line", [
    (dump(**{"compare/a": {"n": [496, 236], "cost": 3185.0, "label": "joint"},
             "compare/b": {"n": [484, 306], "cost": 3338.5, "label": "joint"}}),
     "compare.cost (2 outputs): largest |difference| 0.5 in 1"),
    (dump(**{"compare/a": {"n": [496, 235], "cost": 3185.0, "label": "lattice"},
             "compare/b": {"n": [484, 306], "cost": 3338.0, "label": "joint"}}),
     "compare.label (2 outputs): differs in 1, e.g. compare/a: 'joint' -> 'lattice'"),
    (dump(**{"compare/a": {"n": [496, 235], "cost": 3185.0, "label": "joint",
                           "cycles": 3},
             "compare/b": {"n": [484, 306], "cost": 3338.0, "label": "joint"}}),
     "compare.cycles (1 outputs): only after"),
    (dump(**{"compare/a": {"n": [496, 235], "cost": 3185.0, "label": "joint"}}),
     "output compare/b: only before"),
], ids=["number", "text", "field-one-side", "output-one-side"])
def test_any_difference_exits_1(same_answers, tmp_path, capsys, after, line):
    lines, same = same_answers.diff(BEFORE, after)
    assert not same
    assert line in lines
    assert run_main(same_answers, tmp_path, BEFORE, after) == 1
    assert line in capsys.readouterr().out.splitlines()


ERROR_TEXT = "error: scenarios: det mode needs exactly one scenario\n"


@pytest.mark.parametrize("text, masked", [
    ('{\n  "objective": 3185.0,\n  "wall_time_s": 0.0123,\n  "tool_version": "0.1.0"\n}\n',
     '{\n  "objective": 3185.0,\n  "wall_time_s": "*",\n  "tool_version": "0.1.0"\n}\n'),
    ("objective     3185\nwall_time_s   0.0123\n", "objective     3185\nwall_time_s   *\n"),
    ("solver,wall_time_s,tool_version\ndet,1.2e-05,0.1.0\n",
     "solver,wall_time_s,tool_version\ndet,*,0.1.0\n"),
    (ERROR_TEXT, ERROR_TEXT),
    ("", ""),
], ids=["json", "table", "csv", "no-wall-time", "empty"])
def test_mask_wall_time(same_answers, text, masked):
    assert same_answers.mask_wall_time(text) == masked


@pytest.mark.parametrize("text, masked", [
    ('{\n  "ok": true,\n  "file": "/tmp/t/one-station.json",\n  "version": 1\n}\n',
     '{\n  "ok": true,\n  "file": "*",\n  "version": 1\n}\n'),
    ("ok         true\nfile       /tmp/t/one-station.json\nversion    1\n",
     "ok         true\nfile       *\nversion    1\n"),
    (ERROR_TEXT, ERROR_TEXT),
], ids=["json", "table", "no-file"])
def test_mask_file(same_answers, text, masked):
    assert same_answers.mask_file(text) == masked


def test_moved_outputs_named_one_line_each(same_answers, tmp_path, capsys):
    before = dump(**{
        "compare/a": {"n": [496, 235], "cost": 3185.0, "label": "joint"},
        "compare/b": {"error": "InfeasibleError: every candidate key is infeasible"},
        "compare/c": {"n": [484, 306], "cost": 3338.0, "label": "joint"},
        "compare/d": {"n": [484, 306], "cost": 3338.0, "label": "joint"},
    })
    after = dump(**{
        "compare/a": {"n": [496, 236], "cost": 3188.0, "label": "joint"},
        "compare/b": {"n": [535, 225, 132], "cost": 892.0, "label": "joint"},
        "compare/c": {"error": "InfeasibleError: every candidate key is infeasible"},
        "compare/d": {"n": [484, 306], "cost": 3338.0, "label": "joint"},
    })
    named = ["output compare/a: moved in cost, n",
             "output compare/b: error -> solution",
             "output compare/c: solution -> error"]
    lines, same = same_answers.diff(before, after)
    assert not same
    assert [line for line in lines if line.startswith("output ")] == named
    assert run_main(same_answers, tmp_path, before, after) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == named


def keyed(**fields):
    """A keyed report's fields, the dump's values unless given."""
    return {"decision.betas": [2.150449246375281, 2.478332831703411],
            "decision.n_integer": [496, 235], "server_cost": 3185.2, "cycles": 2,
            "converged": True, **fields}


def verdict(same_answers, before, after, field):
    """--diff's pass flag and its line for field."""
    lines, passes = same_answers.diff(dump(**{"keyed/a": before}),
                                      dump(**{"keyed/a": after}))
    [line] = [line for line in lines if line.startswith(f"keyed.{field} ")]
    return passes, line


def test_continuous_fields_pass_within_their_bound(same_answers):
    bound = same_answers.TOLERANCE["betas"]
    moved = keyed(**{"decision.betas": [2.150449246375281 + 0.5 * bound,
                                        2.478332831703411]})
    passes, line = verdict(same_answers, keyed(), moved, "decision.betas")
    assert passes
    assert line.endswith(f"in 1, within bound {bound:g}")
    moved["decision.betas"][0] += bound
    passes, line = verdict(same_answers, keyed(), moved, "decision.betas")
    assert not passes
    assert line.endswith(f"in 1, 1 beyond bound {bound:g}")


def test_counts_are_reported_not_gated(same_answers):
    passes, line = verdict(same_answers, keyed(), keyed(cycles=200), "cycles")
    assert passes
    assert line == ("keyed.cycles (1 outputs): largest |difference| 198 in 1, "
                    "a count: not gated")


@pytest.mark.parametrize("field, value", [
    ("decision.n_integer", [496, 236]),     # an integer staffing
    ("converged", False),                   # a flag
    ("epsilon", 0.05 + 1e-15),              # a field the policy does not name
], ids=["n", "flag", "unnamed"])
def test_any_other_field_must_stay_identical(same_answers, field, value):
    before = keyed(epsilon=0.05)
    passes, line = verdict(same_answers, before, {**before, field: value}, field)
    assert not passes
    assert "bound" not in line


def test_lattice_and_simulate_outputs_stay_identical(same_answers):
    bound = same_answers.TOLERANCE["n_continuous"]
    for name in ("lattice/a", "simulate/a"):
        before = dump(**{name: {"n_continuous": [10.0], "cycles": 1}})
        after = dump(**{name: {"n_continuous": [10.0 + 0.5 * bound], "cycles": 2}})
        assert not same_answers.diff(before, after)[1]


STDOUT = "betas         (2.15045, 2.47834)\nobjective     3185\ncost_ratio    1.04804\n"


@pytest.mark.parametrize("after, passes", [
    (STDOUT.replace("2.47834", "2.47833"), True),        # a float within bound
    (STDOUT.replace("1.04804", "1.05804"), False),       # a float beyond bound
    (STDOUT.replace("3185", "3186"), False),             # an integral number
    (STDOUT.replace("3185", "3185.01"), True),           # integral on one side only
    (STDOUT.replace("objective", "objectives"), False),  # the text around them
    (STDOUT + "1\n", False),                             # one number more
], ids=["float", "float-beyond", "integral", "integral-one-side", "text", "count"])
def test_cli_stdout_compared_token_by_token(same_answers, after, passes):
    before = dump(**{"cli/a": {"exit": 0, "stdout": STDOUT, "stderr": ""}})
    moved = dump(**{"cli/a": {"exit": 0, "stdout": after, "stderr": ""}})
    assert same_answers.diff(before, moved)[1] == passes
