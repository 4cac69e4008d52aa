"""Sequential reference walks: one step at a time, in plain Python integers.

These are the orbit walks ``revlcg.verification`` ran before its lane
engine. The differential tests require the lane-parallel
``orbit_period``, ``equidistribution_check`` and ``paper_reproduction``
to return reports equal to these field for field. Inputs are assumed
valid: the library functions do the validation.
"""

from array import array

import numpy as np

from revlcg import EquidistributionReport, OrbitReport, ReproductionReport
from revlcg.generator import _forward_words
from revlcg.rund import rund_backward_step, rund_forward_step


def orbit_period_seq(seed, params, coupling, limit=None):
    m2 = params.m * params.m
    if limit is None:
        limit = m2 + 1
    a, b, m = params.a, params.b, params.m
    s, carry = coupling.s, coupling.carry_enabled
    sx, sy = seed
    x, y = sx, sy
    steps = 0
    while steps < limit:
        x, y = _forward_words(x, y, a, b, m, s, carry)
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
    a, b, m = params.a, params.b, params.m
    s, carry = coupling.s, coupling.carry_enabled
    total = m * m
    seen = bytearray(total)
    z0 = seed.x + m * seed.y
    seen[z0] = 1
    covered = 1
    first_duplicate = None
    x, y = seed
    for _ in range(total):
        x, y = _forward_words(x, y, a, b, m, s, carry)
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
