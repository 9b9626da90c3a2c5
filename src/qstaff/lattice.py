"""Integer staffing lattice: exact no-wait tables and one walk over a box.

joint.solve_joint_exact_integer walks the box that certified_box reads
off the tables, which it builds only as deep as that box needs. Every
epsilon report rounds by integer_staffing, and repair walks the box
n - 1 .. n + 1 around a rounding n that misses the target. The walk
takes the levels of station L-3 together, one batched matrix product
per prefix of the stations before it, and picks the cheapest candidate
of a batch once.
The fold of per-station no-wait vectors into the joint no-wait, which
every joint solver scores with, lives here too: certified_box scores its
incumbent candidates with it, and the walk, whose batched product is the
only other joint no-wait evaluator, decides with it, before its pick,
the points too close to the target for that product to order as
joint.joint_constraint_value does. The fold is pure Python; numpy loads
at the first table, certified box or walk.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator

from .erlang import _exact_no_wait_column
from .errors import InfeasibleError

# an integer staffing is feasible when its joint no-wait reaches the target less this
FEASIBILITY_TOL = 1e-9
# the walk forms its joint no-wait in batches of at most this many cells
# (8 bytes each), levels x rows x columns, whatever the size of the box
LATTICE_BLOCK_CELLS = 1 << 16
# a joint no-wait this close to the target, far above the rounding of either
# sum, is decided by the fold rather than the walk's matrix product, and
# certified_box searches its masses and floors this far below the target
_TIE = 1e-12


def _fold(scenarios, no_waits):
    # weights over the last station's rates, given the no-wait vectors u_i
    # of stations i < L-1: weights[j] sums p^w prod_i u_i[idx_i(w)] over the
    # scenarios w at the last station's j-th rate; the joint no-wait is
    # their dot product with the last station's vector. Station L-2's
    # factor is taken as the weights accumulate, so only stations 0 .. L-3
    # build a list of per-scenario terms, the same products in the same order
    index = scenarios.rate_index
    terms = scenarios.probs
    for no_wait, idx in zip(no_waits[:-1], index):
        terms = [t * no_wait[k] for t, k in zip(terms, idx)]
    weights = [0.0] * len(scenarios.marginals[-1])
    if no_waits:
        no_wait = no_waits[-1]
        for t, k, j in zip(terms, index[len(no_waits) - 1], index[-1]):
            weights[j] += t * no_wait[k]
    else:
        for t, j in zip(terms, index[-1]):
            weights[j] += t
    return weights


def _dot(weights, no_wait):
    return sum(map(operator.mul, weights, no_wait))


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
    import numpy as np
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


def _marginal_no_wait(probs, table):
    # a station's expected no-wait at each level of its table, summed over
    # its rates in order, column by column, so that no entry depends on
    # how wide the table is
    return sum(p * row for p, row in zip(probs, table))


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
    """
    # every search runs on Python lists with bisect, as a numpy call per
    # scalar costs more than the search; numpy does only the vector math:
    # the tables, the marginal no-wait and its running maximum
    import numpy as np
    target = 1.0 - eps
    marginals = scenarios.marginals
    # stability threshold: a feasible level lies above the first rate whose
    # cumulative mass reaches the target, as the no-wait product dies on
    # unstable stations. The _TIE slack here and on the floor keeps every
    # level the fold could accept; a mass or floor never reached leaves the top
    start = []
    for m in marginals:
        first = min(bisect.bisect_left(list(itertools.accumulate(m.probs)), target - _TIE),
                    len(m) - 1)
        start.append(int(math.floor(m.rates[first])) + 1)
    top = [lo + 8 + math.ceil(3.0 * math.sqrt(m.rates[-1]))
           for lo, m in zip(start, marginals)]
    full = no_wait_tables(marginals, start, top)
    while True:     # twice at most: the second pass runs every table to its end
        ended = [hi is None or t.shape[1] <= hi - lo
                 for t, lo, hi in zip(full, start, top)]
        floors, reach = [], []  # reach[j]: running maximum of E[u_j] from the floor
        for m, table in zip(marginals, full):
            running = np.maximum.accumulate(_marginal_no_wait(m.probs, table)).tolist()
            floors.append(min(bisect.bisect_left(running, target - _TIE), len(running) - 1))
            reach.append(running[floors[-1]:])
        lower = [lo + f for lo, f in zip(start, floors)]
        tables = [t[:, f:] for t, f in zip(full, floors)]

        # incumbent: each station at its first level whose marginal no-wait
        # reaches t, for the smallest t by bisection over the union of those
        # values whose point the fold finds feasible; t = inf puts every
        # station at its top
        def offsets_at(t):
            return [min(bisect.bisect_left(r, t), len(r) - 1) for r in reach]

        def meets_target(t):
            return _table_no_wait(scenarios, lower, tables,
                                  [lo + k for lo, k in zip(lower, offsets_at(t))]) >= target

        known = min((r[-1] for r, done in zip(reach, ended) if not done), default=math.inf)
        thresholds = sorted({t for r in reach for t in r if t <= known})
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

    The first L-3 stations are enumerated in lexicographic order, each
    station's range ending once even the cheapest completion costs as
    much as the best point so far. For each such prefix the levels of
    station L-3 that could still beat that point are taken together (at
    L <= 2, virtual stations with one level of no cost and no-wait 1 fill
    the first places): one bincount and one stacked matrix product give
    the joint no-wait over the part of the last two stations' box that
    could still beat it, split over levels first and then over rows into
    batches of at most LATTICE_BLOCK_CELLS cells (levels x rows x
    columns). Each (level, row) pair's candidate is its first column to
    come within _TIE of the target, and a batch picks once, its cheapest
    candidate (the lexicographically first on ties) if that beats the
    best point. A cell within _TIE of the target, where the product's
    rounding could decide otherwise than the fold, is decided by
    _table_no_wait before the pick whenever the cheapest candidate is one.
    So the walk returns the point joint.joint_constraint_value finds
    cheapest.
    """
    import numpy as np
    probs = np.array(scenarios.probs)
    # fewer than three stations are put behind virtual ones: one level, of
    # no cost, whose no-wait is 1 at every rate
    pad = max(3 - len(tables), 0)
    index = [0] * pad + [np.array(idx) for idx in scenarios.rate_index]
    box_lower, box_tables = lower, tables
    lower = [0] * pad + list(lower)
    tables = [np.array([[1.0]])] * pad + list(tables)
    costs = (0.0,) * pad + tuple(costs)
    inner, row, dep = len(tables) - 3, len(tables) - 2, len(tables) - 1
    # factors[i][k - lower_i, w]: station i's no-wait at level k in scenario w
    factors = [np.ascontiguousarray(table[idx].T)
               for table, idx in zip(tables[:row], index)]
    upper = [lo + table.shape[1] - 1 for lo, table in zip(lower, tables)]
    row_table = np.ascontiguousarray(tables[row].T)
    row_lo, row_hi, row_cost = lower[row], upper[row], costs[row]
    dep_table = tables[dep]
    dep_lo, dep_cost = lower[dep], costs[dep]
    dep_rates = dep_table.shape[0]
    span = row_table.shape[1] * dep_rates
    # bins[k, w]: scenario w's (row rate, last rate) bin at a batch's k-th level
    bins = (np.arange(0, span * tables[inner].shape[1], span)[:, None]
            + (index[row] * dep_rates + index[dep]))

    best_cost, best_n = math.inf, None

    def outer_points(i, head, prefix, weights):
        # levels of the stations before station L-3 in lexicographic
        # order, with their cost prefix and scenario weights; a level whose
        # cheapest completion (every later station at its lower level)
        # cannot beat the best point so far ends station i's range, as
        # every later level costs at least as much
        if i == inner:
            yield head, prefix, weights
            return
        for n in range(lower[i], upper[i] + 1):
            fixed = prefix + costs[i] * n
            cheapest = fixed
            for c, lo in zip(costs[i + 1:row], lower[i + 1:]):
                cheapest = cheapest + c * lo
            if cheapest + row_cost * row_lo + dep_cost * dep_lo >= best_cost:
                return
            yield from outer_points(i + 1, head + (n,), fixed,
                                    weights * factors[i][n - lower[i]])

    def settle(head, n, prefixes, weights, start, stop, cols):
        # the cheapest point, if it beats the best so far, of station L-3's
        # levels from n after head (their cost prefixes and scenario
        # weights), rows start .. stop - 1 and the first cols columns
        nonlocal best_cost, best_n
        size = prefixes.size
        mass = np.bincount(bins[:size].ravel(), weights.ravel(), minlength=size * span)
        values = row_table[start - row_lo:stop - row_lo] @ (
            mass.reshape(size, -1, dep_rates) @ dep_table[:, :cols])
        # every cell the fold could find feasible, and some it cannot
        feasible = values >= target - _TIE
        row_costs = prefixes[:, None] + row_cost * np.arange(start, stop)

        def pick():
            # (level, row, column, cost) of the cheapest candidate; a row's
            # joint no-wait rises with its column, to within a rounding far
            # below _TIE, so a row whose last cell falls short has none
            first = feasible.argmax(axis=2)
            cost = np.where(feasible[:, :, -1], row_costs + dep_cost * (dep_lo + first),
                            math.inf)
            k, i = divmod(int(cost.argmin()), stop - start)
            return k, i, int(first[k, i]), cost[k, i]

        k, i, col, cost = pick()
        if cost < best_cost and values[k, i, col] < target + _TIE:
            # the fold decides every cell this close to the target that
            # could beat the best point, each row up to the first cell it
            # accepts; one too dear to win stays a candidate
            open_cells = feasible & (row_costs[:, :, None]
                                     + dep_cost * (dep_lo + np.arange(cols)) < best_cost)
            near = open_cells & (values < target + _TIE)
            for k, i in np.argwhere(near.any(axis=2)).tolist():
                for col in np.flatnonzero(open_cells[k, i]).tolist():
                    if values[k, i, col] >= target + _TIE or _table_no_wait(
                            scenarios, box_lower, box_tables,
                            (head + (n + k, start + i, dep_lo + col))[pad:]) >= target:
                        break
                    feasible[k, i, col] = False
            k, i, col, cost = pick()
        if cost < best_cost:
            best_cost, best_n = float(cost), (head + (n + k, start + i, dep_lo + col))[pad:]

    def top(low, high, unit, room):
        # the last level from low up to high whose cost over low's, at unit
        # per level, stays within room
        return int(min(high, low + room / unit + 1e-9)) if unit else high

    lo, c = lower[inner], costs[inner]
    for head, prefix, weights in outer_points(0, (), 0, probs):
        n = lo
        while n <= upper[inner]:
            fixed = prefix + c * n
            if fixed + row_cost * row_lo + dep_cost * dep_lo >= best_cost:
                break
            # no level, row or column past what the best point so far leaves
            # room for above level n's cheapest completion can beat that point
            room = best_cost - fixed - row_cost * row_lo - dep_cost * dep_lo
            row_top = top(row_lo, row_hi, row_cost, room)
            cols = top(0, dep_table.shape[1] - 1, dep_cost, room) + 1
            # a batch holds whole levels while they fit, else one level's rows
            group = max(1, LATTICE_BLOCK_CELLS // ((row_top - row_lo + 1) * cols))
            block = max(1, LATTICE_BLOCK_CELLS // cols)
            stop = min(top(n, upper[inner], c, room), n + group - 1) + 1
            level_costs = np.array([prefix + c * m for m in range(n, stop)])
            level_weights = weights * factors[inner][n - lo:stop - lo]
            for first_row in range(row_lo, row_top + 1, block):
                if fixed + row_cost * first_row + dep_cost * dep_lo >= best_cost:
                    break
                settle(head, n, level_costs, level_weights, first_row,
                       min(first_row + block, row_top + 1), cols)
            n = stop
    return None if best_n is None else (best_n, best_cost)


def integer_staffing(n_continuous):
    """Integer server count for a continuous staffing level.

    Nearest-integer rounding. With half-integer safety staffing the
    continuous optimum sits within half a server of the intended integer
    decision, and rounding to nearest reproduces the reference integer
    solutions; always rounding up would systematically overshoot. A
    level below half a server still rounds to one: the wait curves
    treat any staffing below one server as one server.
    """
    return max(int(round(n_continuous)), 1)


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
