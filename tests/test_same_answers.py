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
