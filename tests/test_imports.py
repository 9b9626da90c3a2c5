"""Import footprint of the package."""
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
