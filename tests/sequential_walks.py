"""Sequential reference walks: one step at a time, in plain Python integers.

These are the orbit walks ``revlcg.verification`` ran before its lane
engine. The differential tests require the lane-parallel
``orbit_period``, ``equidistribution_check`` and ``paper_reproduction``
to return reports equal to these field for field, and the lane walk
seeded without a closed form, which a failing reproduction runs
backward, to equal ``walk_seq``. ``lane_starts_seq`` is the lane
seeding in scalar recurrences, as the lane walk made it before its
array scan, and ``rho_seq`` the orbit's shape, its tail and period, from
a walk that indexes every state until one repeats. Inputs are assumed
valid: the library functions do the validation.
"""

from array import array

import numpy as np

from revlcg import EquidistributionReport, OrbitReport, ReproductionReport
from revlcg.generator import _CoupledMap
from revlcg.rund import rund_backward_step, rund_forward_step


def walk_seq(step, m, z, count):
    """Packed states after 1 .. count steps of ``step`` from the packed state z."""
    x, y = z % m, z // m
    walk = []
    for _ in range(count):
        x, y = step(x, y)
        walk.append(x + m * y)
    return walk


def orbit_period_seq(seed, params, coupling, limit=None):
    m2 = params.m * params.m
    if limit is None:
        limit = m2 + 1
    forward = _CoupledMap(params, coupling).forward
    sx, sy = seed
    x, y = sx, sy
    steps = 0
    while steps < limit:
        x, y = forward(x, y)
        steps += 1
        if x == sx and y == sy:
            return OrbitReport(
                period=steps,
                reached_full_period=(steps == m2),
                states_visited=steps,
                first_repeat_state=seed,
            )
    return OrbitReport(
        period=None, reached_full_period=False, states_visited=limit, first_repeat_state=None
    )


def equidistribution_seq(params, coupling, seed):
    forward = _CoupledMap(params, coupling).forward
    m = params.m
    total = m * m
    seen = bytearray(total)
    z0 = seed.x + m * seed.y
    seen[z0] = 1
    covered = 1
    first_duplicate = None
    x, y = seed
    for _ in range(total):
        x, y = forward(x, y)
        z = x + m * y
        if z == z0:
            break
        if seen[z]:
            first_duplicate = z
            break
        seen[z] = 1
        covered += 1
    first_missing = seen.index(0) if covered < total else None
    return EquidistributionReport(
        covered=covered,
        total=total,
        complete=(covered == total),
        first_duplicate=first_duplicate,
        first_missing=first_missing,
    )


def rho_seq(seed, params, coupling):
    """(tail, period): the seed's orbit runs through tail states onto a cycle of period."""
    forward = _CoupledMap(params, coupling).forward
    index, state = {}, tuple(seed)
    while state not in index:
        index[state] = len(index)
        state = forward(*state)
    return index[state], len(index) - index[state]


def paper_reproduction_seq(k, n, backward_seed=(0, 0)):
    forw = array("q")
    x = y = 0
    for _ in range(n):
        x, y = rund_forward_step(x, y, k)
        forw.append(x + k.m * y)
    back = array("q")
    x, y = backward_seed
    for _ in range(n):
        x, y = rund_backward_step(x, y, k)
        back.append(x + k.m * y)
    fz = np.frombuffer(forw, dtype=np.int64)
    bz = np.frombuffer(back, dtype=np.int64)
    equal = bz[: n - 1] == fz[: n - 1][::-1]
    mismatches = int(n - 1 - int(equal.sum()))
    first = (int(np.argmin(equal)) + 1) if mismatches else None
    return ReproductionReport(
        comparisons=n - 1,
        mismatches=mismatches,
        first_mismatch_n=first,
        passed=(mismatches == 0),
    )


def lane_starts_seq(step, p, u, m, x, y, lanes, span):
    """The lane walk's seeding, one scalar step at a time.

    Lane l + 1 starts at x_{l+1} = p**T*x_l + u_T and
    y_{l+1} = p**T*y_l + tail(x_l) mod m, where T = span, u_T is the x word
    T steps of x -> p*x + u after 0, and tail(x) the y word T steps of
    ``step`` after (x, 0). The lanes sit in a grid of k rows, k the
    smallest lane period of the x words whose rows of ceil(lanes / k)
    lanes are at least k long, otherwise one row per lane; the cells
    past the last lane continue the y recurrence with the tails of their
    rows. Returns (rows, cols, the rows' x words, every cell's y word).
    """
    pt, ut = pow(p, span, m), 0
    for _ in range(span):
        ut = (p * ut + u) % m
    xs = [x]
    for _ in range(lanes - 1):
        xs.append((pt * xs[-1] + ut) % m)
    rows = next(
        (k for k in range(1, lanes) if -(-lanes // k) >= k and xs[k:] == xs[:-k]), lanes
    )
    cols = -(-lanes // rows)
    tails = []
    for tx in xs[: min(rows, rows * cols - 1)]:
        ty = 0
        for _ in range(span):
            tx, ty = step(tx, ty)
        tails.append(ty)
    ys = [y]
    for lane in range(rows * cols - 1):
        ys.append((pt * ys[-1] + tails[lane % rows]) % m)
    return rows, cols, xs[:rows], ys
