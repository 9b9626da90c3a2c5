"""Integer staffing lattice: exact no-wait tables and one walk over a box.

joint.solve_joint_exact_integer walks the box that certified_box reads
off the tables; an epsilon-mode joint report walks the box n - 1 .. n + 1
around a rounding n that misses the target. The fold of per-station
no-wait vectors into the joint no-wait, which every joint solver scores
with, lives here too: the walk decides a point too close to the target
for its matrix product to order as joint.joint_constraint_value does.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

from .erlang import _exact_no_wait_column
from .errors import InfeasibleError

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
    # joint_constraint_value(scenarios, n) bit for bit, from lattice tables holding n
    return _folded_no_wait(scenarios, [t[:, k - lo].tolist()
                                       for t, k, lo in zip(tables, n, lower)])


def no_wait_tables(marginals, lower, top=None):
    """tables[i][j, k - lower[i]]: 1 - wait_probability(k, rate j of station
    i) bit for bit, from lower[i] until every entry rounds to 1.0, or to
    top[i] if that comes first, rows padded with 1.0 to the widest; one
    inverse Erlang-B pass per rate."""
    tables = []
    for marginal, lo, hi in zip(marginals, lower, top or [None] * len(lower)):
        rows = [_exact_no_wait_column(r, lo, hi) for r in marginal.rates]
        width = max(map(len, rows))
        tables.append(np.array([r + [1.0] * (width - len(r)) for r in rows]))
    return tables


def _stability_threshold(marginal, eps):
    # smallest rate r such that staffing strictly above r keeps the stable
    # mass at 1 - eps or more, as any feasible level must: the no-wait
    # product dies on unstable stations
    need = 1.0 - eps
    cum = 0.0
    for rate, p in marginal.pairs():
        cum += p
        if cum >= need - 1e-12:
            return rate
    return marginal.rates[-1]


def certified_box(scenarios, eps, costs):
    """(lower, tables) of a box that holds every optimal integer staffing.

    A station's table runs from its stability threshold to the level where
    every entry has rounded to 1.0, above which a level costs more and
    raises no factor. Every no-wait factor is at most one, so the joint
    no-wait never exceeds a station's expected no-wait over its marginal,
    and each station's floor is the first level where that reaches the
    target (Luedtke & Ahmed 2008, the marginal relaxation of a joint
    chance constraint). A feasible incumbent caps each station at its
    floor plus what the incumbent's cost over the floors affords.
    InfeasibleError when even saturated staffing misses the target.
    """
    target = 1.0 - eps
    probs = np.array(scenarios.probs)
    index = [np.array(idx) for idx in scenarios.rate_index]
    # the 1e-12 slack on the floor, far above the rounding of either sum,
    # keeps any level the joint check below could accept; a floor never
    # reached leaves only the top
    lower = [int(math.floor(_stability_threshold(m, eps))) + 1
             for m in scenarios.marginals]
    tables, reach = [], []  # reach[j]: running maximum of E[u_j] from the floor
    for j, table in enumerate(no_wait_tables(scenarios.marginals, lower)):
        running = np.maximum.accumulate(np.array(scenarios.marginals[j].probs) @ table)
        floor = min(int(np.searchsorted(running, target - 1e-12)), table.shape[1] - 1)
        lower[j] += floor
        tables.append(table[:, floor:])
        reach.append(running[floor:])

    # incumbent: each station at its first level whose marginal no-wait
    # reaches t, for the smallest feasible t by bisection over the union
    # of those values; t = inf puts every station at its top. A sum within
    # _TIE of the target is decided by the fold, as the walk decides a cell
    def offsets_at(t):
        return [min(int(np.searchsorted(r, t)), r.size - 1) for r in reach]

    def meets_target(t):
        offsets = offsets_at(t)
        joint = probs
        for table, idx, k in zip(tables, index, offsets):
            joint = joint * table[idx, k]
        total = joint.sum()
        if abs(total - target) >= _TIE:
            return total > target
        return _table_no_wait(scenarios, lower, tables,
                              [lo + k for lo, k in zip(lower, offsets)]) >= target

    thresholds = np.unique(np.concatenate(reach)).tolist() + [math.inf]
    incumbent = bisect.bisect_left(thresholds, True, key=meets_target)
    if incumbent == len(thresholds):
        raise InfeasibleError(
            f"joint target {target:.6g} unreachable even at saturated staffing")
    # no station rises above its floor by more than the incumbent's cost
    # over the floors affords; points of exactly that cost stay
    budget = sum(c * k for c, k in zip(costs, offsets_at(thresholds[incumbent])))
    return lower, [table[:, :int(budget / c + 1e-9) + 1] for table, c in zip(tables, costs)]


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
