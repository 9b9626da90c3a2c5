"""Integer staffing lattice: exact no-wait tables and one walk over a box.

joint.solve_joint_exact_integer walks the box that certified_box reads
off the tables, which it builds only as deep as that box needs; repair,
every epsilon report's rounding rule, walks the box n - 1 .. n + 1
around a rounding n that misses the target. The fold
of per-station no-wait vectors into the joint no-wait, which every joint
solver scores with, lives here too: certified_box scores its incumbent
candidates with it, and the walk, whose block matrix product is the only
other joint no-wait evaluator, decides with it a point too close to the
target for that product to order as joint.joint_constraint_value does.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

from .erlang import _exact_no_wait_column
from .errors import InfeasibleError

# an integer staffing is feasible when its joint no-wait reaches the target less this
FEASIBILITY_TOL = 1e-9
# the walk forms its joint no-wait matrix in row blocks of at most this
# many cells (8 bytes each), whatever the width of the box
LATTICE_BLOCK_CELLS = 1 << 16
# a joint no-wait this close to the target, far above the rounding of
# either sum, is decided by the fold rather than the matrix product
_TIE = 1e-12


def _fold(scenarios, no_waits):
    # weights over the last station's rates, given the no-wait vectors u_i
    # of stations i < L-1: weights[j] sums p^w prod_i u_i[idx_i(w)] over the
    # scenarios w at the last station's j-th rate; the joint no-wait is
    # their dot product with the last station's vector
    index = scenarios.rate_index
    terms = scenarios.probs
    for no_wait, idx in zip(no_waits, index[:-1]):
        terms = [t * no_wait[k] for t, k in zip(terms, idx)]
    weights = [0.0] * len(scenarios.marginals[-1])
    for t, j in zip(terms, index[-1]):
        weights[j] += t
    return weights


def _dot(weights, no_wait):
    return sum(x * u for x, u in zip(weights, no_wait))


def _folded_no_wait(scenarios, no_waits):
    # joint no-wait from every station's no-wait vector
    return _dot(_fold(scenarios, no_waits[:-1]), no_waits[-1])


def _table_no_wait(scenarios, lower, tables, n):
    # joint_constraint_value(scenarios, n) bit for bit, from lattice tables
    # holding n or ending below it, where every entry stays 1.0
    return _folded_no_wait(scenarios, [t[:, min(k - lo, t.shape[1] - 1)].tolist()
                                       for t, k, lo in zip(tables, n, lower)])


def _no_wait_table(marginal, lower, top=None):
    # one station's table, rows padded with 1.0 to the widest
    rows = [_exact_no_wait_column(r, lower, top) for r in marginal.rates]
    width = max(map(len, rows))
    return np.array([r + [1.0] * (width - len(r)) for r in rows])


def no_wait_tables(marginals, lower, top=None):
    """tables[i][j, k - lower[i]]: 1 - wait_probability(k, rate j of station
    i) bit for bit, from lower[i] to top[i] or, without a top (the run to
    saturation that tests compare with), on; one inverse Erlang-B pass
    per rate, ending where its entries stay 1.0 (_exact_no_wait_column).
    Rows are padded with 1.0 to the widest, so a table stops short of its
    top only where every column has ended."""
    return [_no_wait_table(m, lo, hi)
            for m, lo, hi in zip(marginals, lower, top or [None] * len(lower))]


def certified_box(scenarios, eps, costs):
    """(lower, tables) of a box that holds every optimal integer staffing.

    Every no-wait factor is at most one, so the joint no-wait never
    exceeds a station's expected no-wait over its marginal, and each
    station's floor is the first level where that reaches the target
    (Luedtke & Ahmed 2008, the marginal relaxation of a joint chance
    constraint). A feasible incumbent, scored by the fold as
    joint.joint_constraint_value scores it, caps each station at its
    floor plus what the incumbent's cost over the floors affords, and no
    station rises past the level where its table has rounded to 1.0 for
    good, as a higher level costs more and raises no factor.
    InfeasibleError when even saturated staffing misses the target.

    The tables run from each station's stability threshold to a top
    3 sqrt(top rate) + 8 levels up (on the benchmark's large-rate
    instances floors lie up to about 1.7 sqrt(rate) above the top rate
    and boxes end up to about 2.5 sqrt(rate) above it; small rates need a
    few levels more). Each holds the first levels of the table run to
    saturation and ends where that table does (no_wait_tables), since its
    highest rate's column starts at or below that rate's first stable
    level. Every factor rises with its level, so the incumbent is the
    first threshold whose point meets the target, and a table short of
    its end adds thresholds only above its last reach: the search looks
    no higher than the lowest such reach. Where that finds no floor or no
    incumbent, every table short of its end is run to saturation, as the
    reference does, and searched once more; a table short of the
    incumbent's budget is rebuilt to it. Only the tables whose top moves
    are rebuilt.

    A running marginal no-wait is a numpy product whose last bit can
    depend on the table's width, so a floor, or the order of two
    stations' reach values, that ties within an ulp could differ from the
    run to saturation's (scripts/same_answers.py's box kind would show it).
    """
    target = 1.0 - eps
    marginals = scenarios.marginals
    # stability threshold: a feasible level lies above the first rate whose
    # cumulative mass reaches the target, as the no-wait product dies on
    # unstable stations. The 1e-12 slack here and on the floor keeps every
    # level the fold could accept; a mass or floor never reached leaves the top
    start = []
    for m in marginals:
        first = min(int(np.searchsorted(np.cumsum(m.probs), target - 1e-12)), len(m) - 1)
        start.append(int(math.floor(m.rates[first])) + 1)
    top = [lo + 8 + math.ceil(3.0 * math.sqrt(m.rates[-1]))
           for lo, m in zip(start, marginals)]
    full = no_wait_tables(marginals, start, top)
    while True:     # twice at most: the second pass runs every table to its end
        ended = [hi is None or t.shape[1] <= hi - lo
                 for t, lo, hi in zip(full, start, top)]
        floors, reach = [], []  # reach[j]: running maximum of E[u_j] from the floor
        for m, table in zip(marginals, full):
            running = np.maximum.accumulate(np.array(m.probs) @ table)
            floors.append(min(int(np.searchsorted(running, target - 1e-12)),
                              table.shape[1] - 1))
            reach.append(running[floors[-1]:])
        lower = [lo + f for lo, f in zip(start, floors)]
        tables = [t[:, f:] for t, f in zip(full, floors)]

        # incumbent: each station at its first level whose marginal no-wait
        # reaches t, for the smallest t by bisection over the union of those
        # values whose point the fold finds feasible; t = inf puts every
        # station at its top
        def offsets_at(t):
            return [min(int(np.searchsorted(r, t)), r.size - 1) for r in reach]

        def meets_target(t):
            return _table_no_wait(scenarios, lower, tables,
                                  [lo + k for lo, k in zip(lower, offsets_at(t))]) >= target

        known = min((r[-1] for r, done in zip(reach, ended) if not done), default=math.inf)
        thresholds = [t for t in np.unique(np.concatenate(reach)).tolist() if t <= known]
        if known == math.inf:
            thresholds.append(math.inf)
        incumbent = bisect.bisect_left(thresholds, True, key=meets_target)
        if incumbent < len(thresholds):
            break
        if known == math.inf:
            raise InfeasibleError(
                f"joint target {target:.6g} unreachable even at saturated staffing")
        top = [hi if done else None for hi, done in zip(top, ended)]
        full = [t if done else _no_wait_table(m, lo)
                for t, m, lo, done in zip(full, marginals, start, ended)]
    # no station rises above its floor by more than the incumbent's cost
    # over the floors affords; points of exactly that cost stay
    budget = sum(c * k for c, k in zip(costs, offsets_at(thresholds[incumbent])))
    widths = [int(budget / c + 1e-9) + 1 for c in costs]
    for i, (lo, w) in enumerate(zip(lower, widths)):
        if not ended[i] and lo + w - 1 > top[i]:
            full[i] = _no_wait_table(marginals[i], start[i], lo + w - 1)
    return lower, [t[:, f:f + w] for t, f, w in zip(full, floors, widths)]


def walk(scenarios, target, costs, lower, tables):
    """Cheapest point of the box whose joint no-wait reaches target, as
    (point, cost), or None when no point does; ties go to the
    lexicographically smallest point. tables[i][j, k - lower[i]] is
    station i's no-wait at level k against its j-th marginal rate.

    The first L-2 stations are enumerated in lexicographic order, each
    station's range ending once even the cheapest completion costs as
    much as the best point so far; for each such outer point one matrix
    product gives the joint no-wait probability over the part of the last
    two stations' box that could still beat that point, and the cheapest
    feasible level of the last station is the first column of each row to
    reach the target. A cell within _TIE of the target, where the
    product's rounding could decide otherwise than the fold, is decided
    by _table_no_wait when it would be the best point so far, so the walk
    returns the point joint.joint_constraint_value finds cheapest.
    """
    L = len(tables)
    dep = L - 1
    row = L - 2             # station indexing the rows; -1 when L == 1
    outer_stations = max(row, 0)
    probs = np.array(scenarios.probs)
    index = [np.array(idx) for idx in scenarios.rate_index]
    # factors[i][k - lower_i, w]: outer station i's no-wait at level k in scenario w
    factors = [np.ascontiguousarray(table[idx].T)
               for table, idx in zip(tables[:outer_stations], index)]
    upper = [lo + table.shape[1] - 1 for lo, table in zip(lower, tables)]
    dep_table = tables[dep]
    dep_rates = dep_table.shape[0]
    if row >= 0:
        row_table = np.ascontiguousarray(tables[row].T)
        cell = index[row] * dep_rates + index[dep]
        row_lo, row_hi, row_cost = lower[row], upper[row], costs[row]
    else:
        # one station: a single virtual row level with no cost and no-wait 1
        row_table = np.ones((1, 1))
        cell = index[dep]
        row_lo, row_hi, row_cost = 0, 0, 0.0
    row_rates = row_table.shape[1]
    block = max(1, LATTICE_BLOCK_CELLS // max(dep_table.shape[1], 1))
    dep_lo, dep_cost = lower[dep], costs[dep]

    best_cost, best_n = math.inf, None

    def clear_column(head, cells, k):
        # the first column from k whose point head + (level,) meets the
        # target, cells holding the row's joint no-wait per column; a cell
        # within _TIE of the target, which the product's rounding cannot
        # order, is decided by the fold; None when no column meets it
        for col in range(k, cells.size):
            if cells[col] >= target + _TIE or _table_no_wait(
                    scenarios, lower, tables, head + (dep_lo + col,)) >= target:
                return col
        return None

    def outer_points(i, head, prefix, weights):
        # outer points from station i on, in lexicographic order, with
        # their cost prefix and scenario weights; a level whose cheapest
        # completion (every later station at its lower level) cannot beat
        # the best point so far ends station i's range, as every later level
        # costs at least as much
        if i == outer_stations:
            yield head, prefix, weights
            return
        for n in range(lower[i], upper[i] + 1):
            fixed = prefix + costs[i] * n
            cheapest = fixed
            for c, lo in zip(costs[i + 1:outer_stations], lower[i + 1:]):
                cheapest = cheapest + c * lo
            if cheapest + row_cost * row_lo + dep_cost * dep_lo >= best_cost:
                return
            yield from outer_points(i + 1, head + (n,), fixed,
                                    weights * factors[i][n - lower[i]])

    for outer, prefix, weights in outer_points(0, (), 0, probs):
        # no row or column past what the best point so far leaves room
        # for above the cheapest completion can beat that point
        room = best_cost - prefix - row_cost * row_lo - dep_cost * dep_lo
        row_top = (int(min(row_hi, row_lo + room / row_cost + 1e-9)) if row_cost
                   else row_hi)
        cols = int(min(dep_table.shape[1] - 1, room / dep_cost + 1e-9)) + 1
        mass = np.bincount(cell, weights, minlength=row_rates * dep_rates)
        partial = mass.reshape(row_rates, dep_rates) @ dep_table[:, :cols]
        for start in range(row_lo, row_top + 1, block):
            if prefix + row_cost * start + dep_cost * dep_lo >= best_cost:
                break
            stop = min(start + block, row_top + 1)
            values = row_table[start - row_lo:stop - row_lo] @ partial
            # every cell the fold could find feasible, and some it cannot
            feasible = values >= target - _TIE
            first = feasible.argmax(axis=1).tolist()
            for i in np.flatnonzero(feasible.any(axis=1)).tolist():
                n, k = start + i, first[i]
                fixed = prefix + row_cost * n
                if fixed + dep_cost * dep_lo >= best_cost:
                    # every later row costs at least as much
                    break
                cost = fixed + dep_cost * (dep_lo + k)
                if cost >= best_cost:
                    continue
                head = (outer + (n,))[:dep]
                k = clear_column(head, values[i], k)
                cost = math.inf if k is None else fixed + dep_cost * (dep_lo + k)
                if cost < best_cost:
                    best_cost, best_n = cost, head + (dep_lo + k,)
    return None if best_n is None else (best_n, best_cost)


def repair(scenarios, n, target, costs):
    """(n, no_wait): the rounding n or, when it misses target by more than
    FEASIBILITY_TOL, the cheapest point of the box n - 1 .. n + 1 (from 1
    up) reaching it, if any, with joint_constraint_value's no-wait there."""
    lower = [max(k - 1, 1) for k in n]
    tables = no_wait_tables(scenarios.marginals, lower, [k + 2 for k in lower])
    no_wait = _table_no_wait(scenarios, lower, tables, n)
    if no_wait + FEASIBILITY_TOL < target:
        found = walk(scenarios, target, costs, lower, tables)
        if found is not None:
            n = found[0]
            no_wait = _table_no_wait(scenarios, lower, tables, n)
    return n, no_wait
