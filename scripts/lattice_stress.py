"""Certify the ROADMAP's stress instances on the lattice and time each.

    PYTHONPATH=src python3 scripts/lattice_stress.py

Runs solve_joint_exact_integer on S64, S3, S4, S5, S6 and thin top (the
instances of scripts/same_answers.py) and prints each optimum, its cost
and the wall time of the solve. Exits 1 when an optimum or its cost
differs from the ROADMAP's stress table, or when its achieved QoS is not
joint_constraint_value's at the optimum or falls short of 1 - epsilon:
S6 is the only six-station check of the walk's fold rule. S6 takes
several seconds.
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
    import numpy  # noqa: F401  (the first table loads it; no solve's time includes that)
    from qstaff import joint_constraint_value, solve_joint_exact_integer

    instances = {**stress_instances(), "S6": s6_instance(), "thin top": thin_top_instance()}
    wrong = 0
    for name, (n, cost) in EXPECTED.items():
        scenarios, epsilon, costs = instances[name]
        start = time.perf_counter()
        rep = solve_joint_exact_integer(scenarios, epsilon, costs)
        wall = time.perf_counter() - start
        qos = joint_constraint_value(scenarios, rep.n)
        faults = [] if (rep.n, rep.cost) == (n, cost) else [f"expected {n} at {cost:g}"]
        if rep.achieved_qos != qos:
            faults.append(f"achieved QoS {rep.achieved_qos!r}, joint no-wait {qos!r}")
        if not qos >= 1.0 - epsilon:
            faults.append(f"joint no-wait {qos!r} short of {1.0 - epsilon!r}")
        wrong += bool(faults)
        print(f"{name:9} {str(rep.n):32} {rep.cost:>8g} {wall:9.3f} s"
              + "".join(f"  {f}" for f in faults))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
