"""Import footprint and public surface of the package."""
import ast
import importlib
import importlib.util
import itertools
import os
import subprocess
import sys

import pytest

import qstaff

PUBLIC_MODULES = ("erlang", "errors", "files", "frontier", "joint", "multistation",
                  "scenarios", "simulate", "stochastic")
# every name the package exported when it kept its own list; none may go
EXPORTED_BEFORE = """
    __version__ BracketError ComparisonReport CostFunction DomainError
    EnumerationCapError FrontierPoint FrontierSweep InfeasibleError JointDecision
    JointScenarioSet JointSolveReport KeyScenarioTieError MultiSolveReport
    MultiStationInstance QuadratureError RunRecord ScenarioFile ScenarioSet SimConfig
    SimEstimate SolutionSummary SolveReport StaffingDecision StaffingError
    StochSolveReport UnstableSystemError ValidationError WeightedSolveReport
    compare_solutions constraint_value enumerate_key_scenarios erlang_c_continuous
    erlang_c_exact erlang_c_sqrt exact_objective frontier_csv_rows halfin_whitt
    integer_staffing joint_constraint_value jvlz_bounds load_scenario_file
    make_run_record parse_scenario_data resolve_scenario_path select_key_scenario
    simulate_busy_fraction simulate_scenario_qos simulate_wait_probability
    solve_constrained solve_decoupled solve_exact_enumeration solve_joint
    solve_joint_exact_integer solve_multi solve_reduced solve_reduced_joint
    solve_weighted solve_weighted_stoch sweep_frontier wait_probability
    write_run_record write_scenario_file
""".split()
# module-public names the package did not re-export until it read their lists
JOINED_LATER = ("wait_curve", "hw_quantities", "jvlz_bounds_at", "BoundPair", "HWQuantities",
                "StationSpec", "ProblemSpec", "SOLVER_MODES", "objective_gap")


def fresh_python(*args):
    """(stdout, stderr) of a fresh interpreter run with args, on this
    checkout's package; it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qstaff.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout, out.stderr


def imported_by(*args):
    """Every module a fresh interpreter imports running args, read from -X importtime."""
    _, err = fresh_python("-X", "importtime", *args)
    return {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
            if line.startswith("import time:")}


def test_import_loads_no_quadrature_or_stats():
    # the delay curves and the simulator need only scipy.special
    assert not imported_by("-c", "import qstaff") & {"scipy.integrate", "scipy.stats"}


@pytest.mark.parametrize("args", [("-c", "import qstaff"), ("-c", "import qstaff.cli"),
                                  ("-m", "qstaff.cli", "validate", "example1")])
def test_import_and_validate_load_neither_numpy_nor_scipy(args):
    # numpy and scipy.special load at the first call that needs them, and
    # the simulator's process pool at the first simulation
    assert not ({m.split(".")[0] for m in imported_by(*args)}
                & {"numpy", "scipy", "multiprocessing", "concurrent"})


def test_lattice_loads_numpy_but_not_scipy_special():
    # the certified optimum reads exact tables and never evaluates a curve
    modules = imported_by("-c", "from qstaff import *\n"
                          "f = load_scenario_file(resolve_scenario_path('example1'))\n"
                          "solve_joint_exact_integer(f.joint_set(), f.problem.epsilon, "
                          "f.problem.costs)")
    assert "numpy" in modules and "scipy.special" not in modules


def test_first_curve_binds_the_c_routines_themselves():
    # after the first continuous value no stand-in stays on the hot path,
    # including the two routines that value did not call
    out, _ = fresh_python("-c", "from scipy.special import cython_special as cs\n"
                          "from qstaff import erlang\n"
                          "names = ('erfcx', 'gammaincc', 'ndtr')\n"
                          "before = [getattr(erlang, f) is getattr(cs, f) for f in names]\n"
                          "erlang.erlang_c_continuous(100.5, 90.0)\n"
                          "print(before, [getattr(erlang, f) is getattr(cs, f) for f in names])")
    assert out.split() == ["[False,", "False,", "False]", "[True,", "True,", "True]"]


def test_first_load_keeps_a_name_bound_elsewhere():
    # a routine replaced before the first load (as a test's monkeypatch
    # does) stays replaced when another routine's first call loads scipy
    out, _ = fresh_python("-c", "from qstaff import erlang\n"
                          "erlang.gammaincc = len\n"
                          "erlang.halfin_whitt(1.0)\n"
                          "print(erlang.gammaincc is len, erlang.ndtr.__module__)")
    assert out.split() == ["True", "scipy.special.cython_special"]


def test_benchmark_trace_points_resolve():
    # the benchmark tracer wraps these module globals by name; a refactor
    # that drops one breaks every traced run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.IN_PROCESS_POINTS + tracing.CLI_POINTS
    missing = [(module, name) for module, name, _, _ in points
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_package_exports_each_module_list_once():
    modules = [importlib.import_module(f"qstaff.{name}") for name in PUBLIC_MODULES]
    exported = qstaff.__all__
    assert exported == ["__version__", *itertools.chain(*(m.__all__ for m in modules))]
    assert len(set(exported)) == len(exported)
    assert len(EXPORTED_BEFORE) == 63
    assert sorted(exported) == sorted(EXPORTED_BEFORE + list(JOINED_LATER))
    for module in modules:
        for name in module.__all__:
            assert getattr(qstaff, name) is getattr(module, name)
    assert "checked" not in exported and "main" not in exported


def test_package_init_names_nothing_itself():
    # qstaff/__init__.py only star-imports the modules and joins their
    # lists: it spells no function, class or exception name
    with open(qstaff.__file__) as handle:
        tree = ast.parse(handle.read())
    assert not [node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == {"*", "__version__", *PUBLIC_MODULES}
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert strings == [ast.get_docstring(tree, clean=False), "__version__"]
