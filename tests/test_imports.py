"""Import footprint of the package."""
import importlib
import importlib.util
import os
import subprocess
import sys

import qstaff


def test_import_loads_no_quadrature_or_stats():
    # the delay curves and the simulator need only scipy.special
    src = os.path.dirname(os.path.dirname(os.path.abspath(qstaff.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, qstaff; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


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
