"""Certify the ROADMAP's stress instances on the lattice and time each.

    PYTHONPATH=src python3 scripts/lattice_stress.py

Runs solve_joint_exact_integer on S64, S3, S4, S5, S6 and thin top (the
instances of scripts/same_answers.py) and prints each optimum, its cost
and the wall time of the solve. Exits 1 when an optimum or its cost
differs from the ROADMAP's stress table. S6 takes several seconds.
"""

import sys
import time

from same_answers import s6_instance, stress_instances, thin_top_instance

EXPECTED = {   # name -> (optimum, cost), the ROADMAP's stress table
    "S64": ((495, 262), 3261.0),
    "S3": ((529, 226, 136), 891.0),
    "S4": ((432, 226, 98, 209), 965.0),
    "S5": ((433, 228, 98, 209, 113), 1081.0),
    "S6": ((436, 228, 98, 209, 113, 90), 1174.0),
    "thin top": ((539, 126), 13139.0),
}


def main():
    from qstaff import solve_joint_exact_integer

    instances = {**stress_instances(), "S6": s6_instance(), "thin top": thin_top_instance()}
    wrong = 0
    for name, (n, cost) in EXPECTED.items():
        start = time.perf_counter()
        rep = solve_joint_exact_integer(*instances[name])
        wall = time.perf_counter() - start
        ok = (rep.n, rep.cost) == (n, cost)
        wrong += not ok
        print(f"{name:9} {str(rep.n):32} {rep.cost:>8g} {wall:9.3f} s"
              + ("" if ok else f"  expected {n} at {cost:g}"))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
