"""The lane-parallel orbit engine against the sequential reference walks.

Every report must equal the sequential one field for field, over small
random coupled maps, including maps that are not bijections, step
limits below the period, the identity map and corrupted reversal
constants. The engine's lane count and block size are patched down so
that small orbits still cross lane and block boundaries; the shapes
also set the round-trip chunk, which no orbit walk may depend on. The
lane walk seeded without a closed form, which a failing reproduction
runs backward twice, must equal the plain step-by-step walk, whether
its lanes share x words in a grid or take one row each; the lanes'
start words, seeded by a scan over arrays, must equal the scalar
recurrences; a reproduction whose a has no inverse is refused; and no
check at the reference size, passing or failing, may hold an orbit
table. There the walks run in a grid of 8 rows, and every report equals
the one with one row per lane.
"""

import json
import math
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revlcg import (
    MAX_MODULUS,
    CoupledState,
    CouplingSpec,
    InvariantError,
    LcgParams,
    NotInvertibleError,
    RundConstants,
    derive_inverse,
    equidistribution_check,
    generate_sequence,
    generator,
    orbit_period,
    paper_reproduction,
    rund_backward_step,
    rund_forward_step,
    verification,
)
from sequential_walks import (
    equidistribution_seq,
    lane_starts_seq,
    orbit_period_seq,
    paper_reproduction_seq,
    walk_seq,
)

# (lanes, block, chunk): the shipped shape, one lane, and shapes whose
# lanes and blocks end inside small orbits.
SHIPPED = (verification._LANES, verification._BLOCK, verification._SWEEP_CHUNK)
SHAPES = st.sampled_from([SHIPPED, (1, 1 << 22, 7), (3, 7, 1), (5, 64, 7), (64, 1000, 1 << 15)])

IDENTITY = (LcgParams(1, 0, 8), CouplingSpec(0, carry_enabled=False), CoupledState(3, 5))
NOT_INVERTIBLE = (LcgParams(2, 1, 8), CouplingSpec(3), CoupledState(0, 0))
FULL_TOY = (LcgParams(5, 3, 16), CouplingSpec(2), CoupledState(0, 0))
# Covers 8 of 16 states and misses (1, 0), z = 1, and (0, 1), z = 4; the
# coverage flags, held x-major at y + m*x, hold them at 4 and 1.
Z_BEFORE_X = (LcgParams(1, 3, 4), CouplingSpec(1, carry_enabled=False), CoupledState(1, 1))
REFERENCE = (LcgParams(1029, 1731, 2048), CouplingSpec(1536), CoupledState(0, 0))


@contextmanager
def engine_shape(shape):
    lanes, block, chunk = shape
    with (
        patch.object(verification, "_LANES", lanes),
        patch.object(verification, "_BLOCK", block),
        patch.object(verification, "_SWEEP_CHUNK", chunk),
    ):
        yield


@st.composite
def coupled_maps(draw, max_m=24):
    m = draw(st.integers(2, max_m))
    word = st.integers(0, m - 1)
    params = LcgParams(draw(word), draw(word), m)
    coupling = CouplingSpec(draw(word), carry_enabled=draw(st.booleans()))
    return params, coupling, CoupledState(draw(word), draw(word))


@settings(max_examples=300, deadline=None)
@given(maps=coupled_maps(), limit=st.none() | st.integers(1, 700), shape=SHAPES)
@example(maps=IDENTITY, limit=None, shape=(3, 7, 1))
@example(maps=NOT_INVERTIBLE, limit=None, shape=(5, 64, 7))
@example(maps=FULL_TOY, limit=100, shape=(3, 7, 1))
@example(maps=NOT_INVERTIBLE, limit=70, shape=(3, 7, 1))
@example(maps=FULL_TOY, limit=None, shape=(3, 1000, 1))  # lanes of 86 steps
# 255 lanes of one step in 16 rows of 16; the padding cell holds the seed,
# one step past the limit
@example(maps=FULL_TOY, limit=255, shape=SHIPPED)
def test_orbit_period_matches_sequential(maps, limit, shape):
    params, coupling, seed = maps
    with engine_shape(shape):
        lanes = orbit_period(seed, params, coupling, limit=limit)
    assert lanes == orbit_period_seq(seed, params, coupling, limit=limit)


@settings(max_examples=300, deadline=None)
@given(maps=coupled_maps(), shape=SHAPES)
@example(maps=IDENTITY, shape=(3, 7, 1))
@example(maps=NOT_INVERTIBLE, shape=(5, 64, 7))
@example(maps=FULL_TOY, shape=(3, 7, 1))
@example(maps=FULL_TOY, shape=(3, 1000, 1))  # lanes of 86 steps
@example(maps=Z_BEFORE_X, shape=SHIPPED)
def test_equidistribution_matches_sequential(maps, shape):
    params, coupling, seed = maps
    with engine_shape(shape):
        lanes = equidistribution_check(params, coupling, seed)
    assert lanes == equidistribution_seq(params, coupling, seed)


@st.composite
def reproduction_runs(draw):
    params, coupling, _ = draw(coupled_maps(max_m=20))
    a, b, m, s = params.a, params.b, params.m, coupling.s
    word = st.integers(0, m - 1)
    # true constants where they exist, otherwise (and often anyway) arbitrary ones
    try:
        inv = derive_inverse(params)
        c, d = draw(st.sampled_from([(inv.c, inv.d), (draw(word), draw(word))]))
    except ValueError:
        c, d = draw(word), draw(word)
    k = RundConstants(a=a, b=b, m=m, s=s, c=c, d=d, imax=m * m)
    n = draw(st.integers(1, m * m))
    seed = draw(st.none() | st.tuples(word, word))
    return k, n, seed


def endpoint(k, n):
    x = y = 0
    for _ in range(n):
        x, y = rund_forward_step(x, y, k)
    return x, y


# Examples: a corrupted d; the `verify paper --m 16 --a 5 --b 3 --s 2 --c 7`
# control; a truncated window; a seed whose first mismatch is at n = 2, and
# whose seed step and pair forw[1] -> forw[0] pass, while the pair
# forw[2] -> forw[1] fails; a corrupted c whose first mismatch is at n = 9,
# where the same two pairs pass and fail; true constants from a seed that
# is not the forward endpoint, where only the seed step fails; the identity
# map; the corrupted d at the shipped lane count, 255 lanes of one step,
# both backward walks in 16 rows of 16; a failing window of 10, whose
# backward walks run in 3 lanes of 3 steps. A draw whose a has no inverse
# mod m is refused.
@settings(max_examples=300, deadline=None)
@given(run=reproduction_runs(), reseed=st.booleans(), shape=SHAPES)
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=(3, 7, 1))
@example(run=(RundConstants(5, 3, 16, 2, 7, 9, 256), 256, None), reseed=False, shape=(5, 64, 7))
@example(run=(RundConstants(5, 3, 16, 2, 13, 2, 256), 100, None), reseed=True, shape=(3, 7, 1))
@example(run=(RundConstants(5, 3, 16, 2, 5, 9, 256), 256, (0, 8)), reseed=False, shape=(3, 7, 1))
@example(run=(RundConstants(17, 14, 32, 1, 1, 18, 1024), 1024, None), reseed=False, shape=(3, 7, 1))
@example(run=(RundConstants(5, 3, 16, 2, 13, 9, 256), 100, (0, 0)), reseed=False, shape=(3, 7, 1))
@example(run=(RundConstants(1, 0, 8, 0, 1, 0, 64), 64, (3, 5)), reseed=False, shape=(3, 7, 1))
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=SHIPPED)
@example(run=(RundConstants(5, 3, 16, 2, 7, 9, 256), 10, None), reseed=True, shape=(3, 7, 1))
def test_paper_reproduction_matches_sequential(run, reseed, shape):
    k, n, seed = run
    if reseed:
        seed = endpoint(k, n)
    if math.gcd(k.a, k.m) > 1:
        with engine_shape(shape), pytest.raises(NotInvertibleError):
            paper_reproduction(k, imax=n, backward_seed=seed)
        return
    with engine_shape(shape):
        lanes = paper_reproduction(k, imax=n, backward_seed=seed)
    assert lanes == paper_reproduction_seq(k, n, (0, 0) if seed is None else seed)


def test_reproduction_refuses_an_a_with_no_inverse():
    # gcd(2, 8) = 2: no true backward walk exists to read the forward orbit
    # backwards, so the run is refused before any walk, whatever (c, d)
    with pytest.raises(NotInvertibleError, match="gcd"):
        paper_reproduction(RundConstants(2, 1, 8, 3, 1, 0, 64))


@pytest.mark.parametrize(
    "k, n, seed, steps",
    [
        (RundConstants(5, 3, 16, 2, 5, 9, 256), 256, (0, 8), 3),
        (RundConstants(17, 14, 32, 1, 1, 18, 1024), 1024, None, 3),
        (RundConstants(5, 3, 16, 2, 13, 9, 256), 100, (0, 0), 0),
    ],
)
def test_reproduction_check_fails_where_the_examples_say(k, n, seed, steps):
    # In one lane the check is sequential: it steps the seed back (a scalar)
    # and compares that with the last state, then steps back each forward
    # state as it is walked, forw[0] with no comparison, and stops at the
    # first failing pair. In the first two examples the seed's step and the
    # pair forw[1] -> forw[0] pass and forw[2] -> forw[1] fails; in the
    # last only the seed's comparison fails, before any forward state is
    # stepped back. Then the failing run counts its mismatches.
    calls = []
    mismatches = verification._mismatches

    def spy(x, y, k):
        calls.append(np.ravel(x + k.m * y).tolist())
        return rund_backward_step(x, y, k)

    def count(*args):
        calls.append("count")
        return mismatches(*args)

    with (
        engine_shape((1, 7, 1)),
        patch.object(verification, "rund_backward_step", spy),
        patch.object(verification, "_mismatches", count),
    ):
        assert not paper_reproduction(k, imax=n, backward_seed=seed).passed
    x, y = (0, 0) if seed is None else seed
    forw = walk_seq(lambda x, y: rund_forward_step(x, y, k), k.m, 0, steps)
    assert calls[: steps + 2] == [[x + k.m * y]] + [[z] for z in forw] + ["count"]


TOY_K = RundConstants(5, 3, 16, 2, 13, 9, 256)  # the true toy inverse


def corrupted_at(z, dx, dy):
    """The reference backward step, its words off by (dx, dy) from the packed state z."""

    def step(x, y, k):
        x0, y0 = rund_backward_step(x, y, k)
        hit = (x == z % k.m) & (y == z // k.m)
        return (x0 + dx * hit) % k.m, (y0 + dy * hit) % k.m

    return step


# The check of the true toy inverse over 255 comparisons, in 64 lanes of 4
# steps, 4 rows of 16; the last lane ends after 3 steps. One state's
# backward step is off in one word: the x word of forw[4], which starts
# lane 1, so that only the comparison across the lanes' boundary sees it,
# or the y word of forw[247], lane 61's last state, in the last column at
# the step the last lane has left (an x word is compared for a whole row).
# A failing run's backward walk of such a step cannot be seeded, since
# it is no longer affine, and the stitch check would refuse it.
@pytest.mark.parametrize("z_index, dx, dy", [(4, 1, 0), (247, 0, 1)])
def test_reproduction_check_sees_one_bad_word(z_index, dx, dy):
    k, cmap = TOY_K, verification._CoupledMap(LcgParams(5, 3, 16), CouplingSpec(2))
    forward = partial(rund_forward_step, k=k)
    z = walk_seq(forward, k.m, 0, z_index + 1)[-1]
    with engine_shape((64, 1 << 22, 1 << 15)):
        assert verification._retraces(k, 255, 0, 0, forward, cmap.jump)
        with patch.object(verification, "rund_backward_step", corrupted_at(z, dx, dy)):
            assert not verification._retraces(k, 255, 0, 0, forward, cmap.jump)


def backward(k):
    return lambda x, y: rund_backward_step(x, y, k)


@st.composite
def table_walks(draw):
    """(step, m, z, count): a coupled map's forward step, with the carry on or
    off and bijective or not, or the reference backward step with true or
    corrupted (c, d); counts run past m**2, so the walk wraps its cycle."""
    params, coupling, seed = draw(coupled_maps())
    m = params.m
    if draw(st.booleans()):
        step = verification._CoupledMap(params, coupling).forward
    else:
        word = st.integers(0, m - 1)
        c, d = draw(word), draw(word)
        step = backward(RundConstants(params.a, params.b, m, coupling.s, c, d, m * m))
    return step, m, seed.x + m * seed.y, draw(st.integers(1, 2 * m * m + 3))


ODD_M = verification._CoupledMap(LcgParams(58, 5, 1539), CouplingSpec(700))
TOY_FORWARD = verification._CoupledMap(*FULL_TOY[:2]).forward
NOT_INVERTIBLE_FORWARD = verification._CoupledMap(*NOT_INVERTIBLE[:2]).forward


# Examples: the `verify paper --m 16 --a 5 --b 3 --s 2 --c 7` control over
# its whole window, in 7 lanes of 37 steps, the last one cut short; the true
# toy inverse past its period, in 60 lanes of 5 steps; a map that is not a
# bijection, whose walk runs into a cycle that misses the start, in lanes
# of 44 steps; the identity map without the carry, in one lane; a single
# step; 300 lanes of one step in a grid of 16 rows (the x period) by 19
# columns, the last 4 cells padding; the map that is not a bijection in
# 131 lanes, whose start words 0, 1, 3, 7, 7, ... never come back to the
# first, so one row per lane; an odd modulus in 16384 lanes of 3 steps,
# whose start words repeat with period 1539 / 3 = 513 but would fill rows
# of only 32, so one row per lane.
@settings(max_examples=300, deadline=None)
@given(walk=table_walks(), lanes=st.sampled_from([1, 3, 7, 64, verification._LANES]))
@example(walk=(backward(RundConstants(5, 3, 16, 2, 7, 9, 256)), 16, 0, 255), lanes=7)
@example(walk=(backward(TOY_K), 16, 0, 300), lanes=64)
@example(walk=(NOT_INVERTIBLE_FORWARD, 8, 0, 131), lanes=3)
@example(walk=(verification._CoupledMap(*IDENTITY[:2]).forward, 8, 43, 129), lanes=1)
@example(walk=(backward(TOY_K), 16, 37, 1), lanes=verification._LANES)
@example(walk=(TOY_FORWARD, 16, 0, 300), lanes=verification._LANES)
@example(walk=(NOT_INVERTIBLE_FORWARD, 8, 0, 131), lanes=verification._LANES)
@example(walk=(ODD_M.forward, 1539, 0, 3 * verification._LANES), lanes=verification._LANES)
def test_table_walk_matches_sequential(walk, lanes):
    step, m, z, count = walk
    with patch.object(verification, "_LANES", lanes):
        lane_walk = verification._LaneWalk(m, z % m, z // m, count, step)
        steps = list(lane_walk)
    expected = walk_seq(step, m, z, count)
    span, rows, cols = lane_walk.span, lane_walk.rows, lane_walk.cols
    for j in {0, span - 1, count - 1}:
        x, y = lane_walk.state(j)
        assert x + m * y == expected[j]
    # lane l sits in row l % rows, column l // rows; rows share an x word
    assert rows * cols >= lane_walk.lanes > rows * (cols - 1)
    # the cell of lane l at step t is orbit index l*span + t; the live
    # blocks hold every such index below count, and none past the walk
    walked = {}
    for t, (xs, ys, live) in enumerate(steps):
        assert xs.shape == (rows, 1) and ys.shape == (rows, cols)
        for live_rows, live_cols in live:
            for row in range(live_rows):
                for col in range(cols)[live_cols]:
                    index = (col * rows + row) * span + t
                    assert index not in walked
                    walked[index] = int(xs[row, 0] + m * ys[row, col])
    assert walked == dict(enumerate(expected))


def test_failing_run_stitches_both_backward_walks():
    # The true walk is seeded after the given one, here from tails one word
    # off, so only its own stitch check, after its last step, can refuse it.
    # Each walk steps x = 0, then x = 1, for its x word, then its tails.
    calls, tail_walk = [], verification._tail_walk

    def second_off(step, x, y, n):
        calls.append(n)
        x, y = tail_walk(step, x, y, n)
        return x, y + (len(calls) == 6)

    with (
        engine_shape((7, 1 << 22, 1 << 15)),
        patch.object(verification, "_tail_walk", second_off),
        pytest.raises(InvariantError, match="lanes do not stitch"),
    ):
        paper_reproduction(RundConstants(5, 3, 16, 2, 7, 9, 256))
    assert len(calls) == 6


def closed(params, coupling, x, y, count):
    """A walk to seed: the coupled map's forward step, x -> a*x + b, with its closed-form jump."""
    cmap = verification._CoupledMap(params, coupling)
    return cmap.forward, params.a, params.b, params.m, x, y, count, cmap.jump


def walked(k, x, y, count):
    """A walk to seed: the reference backward step, x -> c*x + d, its jump walked."""
    return backward(k), k.c, k.d, k.m, x, y, count, None


@st.composite
def seeded_walks(draw):
    """(step, p, u, m, x, y, count, jump): a coupled map's forward step, with
    the carry on or off, or the reference backward step with any (c, d),
    gcd(c, m) > 1 and c = 0 or d = 0 included."""
    params, coupling, seed = draw(coupled_maps())
    m = params.m
    count = draw(st.integers(1, 2 * m * m + 3))
    if draw(st.booleans()):
        return closed(params, coupling, seed.x, seed.y, count)
    word = st.integers(0, m - 1)
    k = RundConstants(params.a, params.b, m, coupling.s, draw(word), draw(word), m * m)
    return walked(k, seed.x, seed.y, count)


BIG = MAX_MODULUS
TOY_C0 = RundConstants(5, 3, 16, 2, 0, 0, 256)


# Examples at m = MAX_MODULUS = 7**2 * 127 * 337, where the scan's products
# come nearest the int64 bound, in 16384 lanes of 3 steps, with closed-form
# tails: a = 5, b = 3, whose start x words repeat every 112 lanes, 112 rows
# of 147; a = 1 + 7*127*337, b = 1, x of full period, so one row per lane;
# and with its tails walked, a backward step with gcd(c, m) = 7, one row
# per lane. On the toy: c = 0 and d = 0 from x = 0, whose x words all stay
# 0, one shared row; the same from x = 5, whose x words are 5, 0, 0, ...,
# one row per lane; gcd(c, m) = 4; the full-period toy in 16 rows of 19
# lanes, the last 4 cells padding.
@settings(max_examples=300, deadline=None)
@given(walk=seeded_walks(), lanes=st.sampled_from([1, 3, 7, 64, verification._LANES]))
@example(walk=closed(LcgParams(5, 3, BIG), CouplingSpec(BIG - 2), 1234567, BIG - 1, 49152), lanes=16384)
@example(walk=closed(LcgParams(299594, 1, BIG), CouplingSpec(BIG - 2), BIG - 1, 7, 49152), lanes=16384)
@example(walk=walked(RundConstants(5, 3, BIG, 1, 7, BIG - 1, BIG * BIG), 99, 2, 49152), lanes=16384)
@example(walk=walked(TOY_C0, 0, 9, 200), lanes=64)
@example(walk=walked(TOY_C0, 5, 9, 200), lanes=64)
@example(walk=walked(RundConstants(5, 3, 16, 2, 4, 1, 256), 3, 1, 300), lanes=7)
@example(walk=closed(*FULL_TOY[:2], 0, 0, 300), lanes=verification._LANES)
def test_array_seeding_matches_the_scalar_recurrences(walk, lanes):
    step, p, u, m, x, y, count, jump = walk
    with patch.object(verification, "_LANES", lanes):
        seeded = verification._LaneWalk(m, x, y, count, step, jump)
    rows, cols, xs, ys = lane_starts_seq(step, p, u, m, x, y, seeded.lanes, seeded.span)
    assert seeded.span == -(-count // lanes) and seeded.lanes == -(-count // seeded.span)
    assert (seeded.rows, seeded.cols) == (rows, cols)
    assert seeded._starts[0].tolist() == xs
    assert seeded._starts[1].tolist() == ys


@pytest.mark.parametrize(
    "xs, rows",
    [
        ([4], 1),
        ([4, 4, 4], 1),
        ([1, 2, 1, 2, 1], 2),  # the padding cell holds no lane
        ([1, 2, 3, 1, 2, 3, 1, 2, 3], 3),
        ([1, 2, 3, 1, 2, 3, 1, 2], 3),  # a row of 2 lanes and padding
        ([1, 2, 3, 1, 2, 3], 6),  # period 3, but rows of 2
        ([0, 1, 3, 7, 7, 7, 7, 7, 7], 9),  # never back to the first word
        ([1, 2, 1, 3] * 4 + [1], 4),  # 1 recurs at 2, before the period
    ],
)
def test_grid_rows_are_the_smallest_lane_period_of_long_enough_rows(xs, rows):
    assert verification._grid_rows(np.array(xs, dtype=np.int64)) == rows


def test_short_failing_window_at_large_m_builds_no_table():
    # A table over m**2 = 10**10 states would take 80 GB; the failing walk's
    # lanes hold only its window, here 100 states and then 200 000 states in
    # 15385 lanes of 13 steps.
    m = 100_003
    k = RundConstants(a=5, b=3, m=m, s=2, c=7, d=9, imax=m * m)
    seed = endpoint(k, 100)
    report = paper_reproduction(k, imax=100, backward_seed=seed)
    assert not report.passed
    assert report == paper_reproduction_seq(k, 100, seed)
    seed = endpoint(k, 200_000)
    tracemalloc.start()
    try:
        report = paper_reproduction(k, imax=200_000, backward_seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.passed
    assert report == paper_reproduction_seq(k, 200_000, seed)
    assert peak < 32 << 20


def test_lane_walk_at_the_shipped_shape():
    # 65 * 16384 + 1 states: 16136 lanes of 66 steps, the last lane's last
    # 15 steps past the walk
    params, coupling = LcgParams(1029, 1731, 2048), CouplingSpec(1536)
    count = verification._LANES * 65 + 1
    assert -(-count // verification._LANES) == 66
    cmap = verification._CoupledMap(params, coupling)
    lane_walk = verification._LaneWalk(2048, 0, 0, count, cmap.forward, cmap.jump)
    cells = np.empty((lane_walk.span, lane_walk.lanes), dtype=np.int64)
    for t, (xs, ys, _) in enumerate(lane_walk):
        x, y = lane_walk.in_lanes(xs, ys)
        cells[t] = x + 2048 * y
    walk = generate_sequence(CoupledState(0, 0), count, params, coupling)
    assert cells.T.ravel()[:count].tolist() == [x + 2048 * y for x, y in walk]


def reference_reports():
    params, coupling, seed = REFERENCE
    return [
        orbit_period(seed, params, coupling),
        equidistribution_check(params, coupling, seed),
        paper_reproduction(),
        paper_reproduction(RundConstants(c=204)),
        paper_reproduction(RundConstants(d=1498)),
    ]


def test_reference_walks_share_x_words_and_match_flat_lanes():
    # T = 256 steps per lane and x period 2048: lanes j and j + 8 hold the
    # same x word, so every forward walk is 8 rows of 2048 lanes, those of
    # the failing runs' check included, and so is each failing run's true
    # backward walk. The given backward walk of c = 204, whose x map is not
    # a bijection, takes one row per lane; that of d = 1498, whose x word
    # has period 1024, 4 rows of 4096 lanes. With one row per lane
    # everywhere, every report is the same.
    shapes = []

    class Recorded(verification._LaneWalk):
        def __init__(self, *args):
            super().__init__(*args)
            shapes.append((self.rows, self.cols))

    with patch.object(verification, "_LaneWalk", Recorded):
        shared = reference_reports()
        assert shapes == [(8, 2048)] * 4 + [(16384, 1), (8, 2048), (8, 2048), (4, 4096), (8, 2048)]
        shapes.clear()
        with patch.object(verification, "_grid_rows", len):
            assert reference_reports() == shared
        assert set(shapes) == {(16384, 1)}
    assert [report.passed for report in shared] == [True, True, True, False, False]


def test_passing_checks_hold_no_orbit_table():
    # One table of the 2**22 reference states takes 32 MiB; the
    # equidistribution check's coverage flags take 4 MiB of that bound.
    params, coupling, seed = REFERENCE
    checks = [
        lambda: orbit_period(seed, params, coupling).passed,
        lambda: equidistribution_check(params, coupling, seed).passed,
        lambda: paper_reproduction().passed,
    ]
    peaks = []
    tracemalloc.start()
    try:
        for check in checks:
            tracemalloc.reset_peak()
            assert check()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 8 << 20, peaks


def test_failing_reproductions_hold_no_orbit_table():
    # Each failing reference run walks back twice in lanes instead of
    # storing its orbits; the bound sits well below one 32 MiB table.
    peaks = []
    tracemalloc.start()
    try:
        for k in (RundConstants(c=204), RundConstants(d=1498)):
            tracemalloc.reset_peak()
            assert not paper_reproduction(k).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 16 << 20, peaks


POWER = generator._power


def off_by_one_power(f, n, mod):
    return POWER(f, n + 1, mod)


def test_broken_jump_fails_the_stitch_check():
    params, coupling, seed = FULL_TOY
    # 257 states in 4 lanes of 65 steps: lane 0 ends after 65 steps, and the
    # broken power seeds lane 1, x and y words, one step further on
    walk = generate_sequence(seed, 66, params, coupling)
    expected, got = tuple(walk[64]), tuple(walk[65])
    with engine_shape((4, 1 << 22, 1 << 15)), patch.object(generator, "_power", off_by_one_power):
        with pytest.raises(InvariantError, match="lane 1 should start where lane 0 ends") as err:
            orbit_period(seed, params, coupling)
    assert f"expected {expected}, got {got}" in str(err.value)


# f(x) far above m**2 drives the backward offset y + m**2 - f(x0) negative.
HUGE_COUPLING = "revlcg.generator._CoupledMap.f = lambda cmap, x: 10 * cmap.m * cmap.m\n"

# Each script breaks one invariant on purpose. Under -O an assert would
# vanish and the call would return; the explicit raise must still fire.
BROKEN_UNDER_O = {
    "lane jump": (
        "v, g = revlcg.verification, revlcg.generator\n"
        "power = g._power\n"
        "g._power = lambda f, n, mod: power(f, n + 1, mod)\n"
        "v.orbit_period(revlcg.CoupledState(0, 0), revlcg.LcgParams(5, 3, 16), C)\n",
        "lanes do not stitch",
    ),
    "passing equidistribution lanes": (
        "v, g = revlcg.verification, revlcg.generator\n"
        "power = g._power\n"
        "g._power = lambda f, n, mod: power(f, n + 1, mod)\n"
        "v.equidistribution_check(revlcg.LcgParams(5, 3, 16), C, revlcg.CoupledState(0, 0))\n",
        "lanes do not stitch",
    ),
    # The broken jump misplaces the last lane, so the seed's comparison
    # fails; the failing path's true walk then starts at the broken forw(256).
    "passing reproduction lanes": (
        "v, g = revlcg.verification, revlcg.generator\n"
        "power = g._power\n"
        "g._power = lambda f, n, mod: power(f, n + 1, mod)\n"
        "v.paper_reproduction(revlcg.RundConstants(5, 3, 16, 2, 13, 9, 256))\n",
        "not at forw(1)",
    ),
    "shared lane x words": (
        "v = revlcg.verification\n"
        "rows = v._grid_rows\n"
        "v._grid_rows = lambda xs: rows(xs) + 1\n"
        "v.orbit_period(revlcg.CoupledState(0, 0), revlcg.LcgParams(5, 3, 16), C)\n",
        "lanes do not stitch",
    ),
    "failing walk lanes": (
        "v = revlcg.verification\n"
        "walk = v._tail_walk\n"
        "v._tail_walk = lambda step, x, y, n: [e + 1 for e in walk(step, x, y, n)]\n"
        "v.paper_reproduction(revlcg.RundConstants(5, 3, 16, 2, 7, 9, 256))\n",
        "lanes do not stitch",
    ),
    "failing walk end": (
        "v = revlcg.verification\n"
        "mismatches = v._mismatches\n"
        "v._mismatches = lambda k, true_k, n, seed, end: "
        "mismatches(k, true_k, n, seed, v.rund_forward_step(*end, k))\n"
        "v.paper_reproduction(revlcg.RundConstants(5, 3, 16, 2, 7, 9, 256))\n",
        "not at forw(1)",
    ),
    "derived inverse": (
        "c = revlcg.congruence\n"
        "true_inverse = c.mod_inverse\n"
        "c.mod_inverse = lambda a, m: (true_inverse(a, m) + 1) % m\n"
        "c.derive_inverse(revlcg.LcgParams(1029, 1731, 2048))\n",
        "does not reverse",
    ),
    "backward step": (HUGE_COUPLING + "revlcg.backward_step(S, P, I, C)\n", "exceeded"),
    "reverse sequence": (HUGE_COUPLING + "revlcg.reverse_sequence(S, 3, P, I, C)\n", "exceeded"),
    "roundtrip sweep": (HUGE_COUPLING + "revlcg.roundtrip_sweep(P, C)\n", "went negative"),
}


# Runs each body in one python -O process, restoring every attribute a body
# patched before the next; prints {name: [exit code, traceback]}, the exit
# code being the 1 an uncaught exception would give.
RUN_UNDER_O = """
import json, sys, traceback
import revlcg, revlcg.congruence, revlcg.generator, revlcg.verification
patchable = (revlcg, revlcg.congruence, revlcg.generator, revlcg.verification,
             revlcg.generator._CoupledMap)
saved = [(obj, dict(vars(obj))) for obj in patchable]
prelude = (
    "P, C = revlcg.LcgParams(5, 3, 8), revlcg.CouplingSpec(2)\\n"
    "S, I = revlcg.CoupledState(1, 2), revlcg.InverseParams(5, 1)\\n"
    "assert False, 'asserts are on'\\n"
)
results = {}
for name, body in json.load(sys.stdin).items():
    try:
        exec(prelude + body, {"revlcg": revlcg})
        results[name] = [0, ""]
    except Exception:
        results[name] = [1, traceback.format_exc()]
    for obj, attrs in saved:
        for key, value in attrs.items():
            if vars(obj).get(key) is not value:
                setattr(obj, key, value)
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def runs_under_O():
    bodies = {what: body for what, (body, _) in BROKEN_UNDER_O.items()}
    res = subprocess.run(
        [sys.executable, "-O", "-c", RUN_UNDER_O],
        input=json.dumps(bodies), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.mark.parametrize("what", sorted(BROKEN_UNDER_O))
def test_invariant_checks_survive_python_O(what, runs_under_O):
    message = BROKEN_UNDER_O[what][1]
    returncode, stderr = runs_under_O[what]
    assert "asserts are on" not in stderr
    assert returncode == 1
    assert "InvariantError" in stderr and message in stderr, stderr
