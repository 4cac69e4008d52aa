"""The lane-parallel orbit engine against the sequential reference walks.

Every report must equal the sequential one field for field, over small
random coupled maps, including maps that are not bijections, step
limits below the period, the identity map and corrupted reversal
constants. The engine's lane count is patched down so that small
orbits still cross lane boundaries; the shapes also set the round-trip
chunk, which no orbit walk may depend on. The orbit's closed-form
shape, its tail and period, must equal the one walked state by state,
and each orbit check walks exactly the states that shape decides, in
one lane walk, which must end where that shape says; a shape one off,
or a walk's end read one step early, must raise, also under
``python -O``, and so must a passing reproduction whose forward walk
misses the closed-form forw(imax). A lane walk handed the end its
closed form names walks out, and one handed any other end raises,
naming both states. No check may import ``numpy.ma``. The
lane walk seeded without a closed form, which a failing reproduction
runs backward twice, must equal the plain step-by-step walk on every
cell of its grid, the padding included, whether its lanes share x words
in a grid or take one row each, and its stitch check must cover every
cell; a recurrence past the period walk's window is not its period; the
lanes' start words, seeded by a scan over arrays, must equal the scalar
recurrences, and each distinct start word is jumped once for its tail;
a reproduction whose a has no inverse is refused; and no
check at the reference size, passing or failing, may hold an orbit
table. There the walks run in a grid of 8 rows, and every report equals
the one with one row per lane. Every array check steps its grids with
numpy's ufunc buffer at the row-sized ``_ROW_BUFFER``, and leaves the
caller's buffer size as it found it after a pass, a failing verdict, a
refusal and an error raised mid-walk. Each check's reports on the int32
words its bound allows equal those on int64 words, on toy maps and at
the reference size, where every grid stepped is int32 and c = 512, the
first c past the bound there, steps int64.
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
    InverseParams,
    LcgParams,
    NotInvertibleError,
    ParameterError,
    ReproductionReport,
    RundConstants,
    derive_inverse,
    equidistribution_check,
    generate_sequence,
    generator,
    orbit_period,
    paper_reproduction,
    roundtrip_sample,
    roundtrip_sweep,
    rund_backward_step,
    rund_forward_step,
    verification,
)
from sequential_walks import (
    equidistribution_seq,
    lane_starts_seq,
    orbit_period_seq,
    paper_reproduction_seq,
    rho_seq,
    walk_seq,
)

# (lanes, chunk): the shipped shape, one lane, and shapes whose lanes end
# inside small orbits.
SHIPPED = (verification._LANES, verification._SWEEP_CHUNK)
SHAPES = st.sampled_from([SHIPPED, (1, 7), (3, 1), (5, 7), (64, 1 << 15)])

IDENTITY = (LcgParams(1, 0, 8), CouplingSpec(0, carry_enabled=False), CoupledState(3, 5))
NOT_INVERTIBLE = (LcgParams(2, 1, 8), CouplingSpec(3), CoupledState(0, 0))
FULL_TOY = (LcgParams(5, 3, 16), CouplingSpec(2), CoupledState(0, 0))
# Covers 8 of 16 states and misses (1, 0), z = 1, and (0, 1), z = 4; the
# coverage flags, held x-major at y + m*x, hold them at 4 and 1.
Z_BEFORE_X = (LcgParams(1, 3, 4), CouplingSpec(1, carry_enabled=False), CoupledState(1, 1))
REFERENCE = (LcgParams(1029, 1731, 2048), CouplingSpec(1536), CoupledState(0, 0))
SHORT_CYCLE = (LcgParams(58, 5, 1539), CouplingSpec(7, carry_enabled=False), CoupledState(0, 0))
# gcd(2, 4096) > 1: 24 states fall onto a fixed point
ONTO_A_FIXED_POINT = (LcgParams(2, 1, 4096), CouplingSpec(3), CoupledState(0, 0))


@contextmanager
def engine_shape(shape):
    lanes, chunk = shape
    with (
        patch.object(verification, "_LANES", lanes),
        patch.object(verification, "_SWEEP_CHUNK", chunk),
    ):
        yield


def moduli(max_m):
    """m in [2, max_m], half the time a power of two, whose reductions are masks."""
    return st.integers(2, max_m) | st.sampled_from([1 << k for k in range(1, max_m.bit_length())])


@st.composite
def coupled_maps(draw, max_m=24):
    m = draw(moduli(max_m))
    word = st.integers(0, m - 1)
    params = LcgParams(draw(word), draw(word), m)
    coupling = CouplingSpec(draw(word), carry_enabled=draw(st.booleans()))
    return params, coupling, CoupledState(draw(word), draw(word))


@settings(max_examples=300, deadline=None)
@given(maps=coupled_maps(), limit=st.none() | st.integers(1, 700), shape=SHAPES)
@example(maps=IDENTITY, limit=None, shape=(3, 1))
@example(maps=NOT_INVERTIBLE, limit=None, shape=(5, 7))
@example(maps=FULL_TOY, limit=100, shape=(3, 1))
@example(maps=NOT_INVERTIBLE, limit=70, shape=(3, 1))
@example(maps=FULL_TOY, limit=None, shape=(3, 1))  # lanes of 86 steps
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
@example(maps=IDENTITY, shape=(3, 1))
@example(maps=NOT_INVERTIBLE, shape=(5, 7))
@example(maps=FULL_TOY, shape=(3, 1))  # lanes of 86 steps
@example(maps=Z_BEFORE_X, shape=SHIPPED)
def test_equidistribution_matches_sequential(maps, shape):
    params, coupling, seed = maps
    with engine_shape(shape):
        lanes = equidistribution_check(params, coupling, seed)
    assert lanes == equidistribution_seq(params, coupling, seed)


def closed_form_shape(maps):
    params, coupling, seed = maps
    return verification._rho(verification._CoupledMap(params, coupling), *seed)


@settings(max_examples=300, deadline=None)
@given(maps=coupled_maps(), shape=st.none())
@example(maps=REFERENCE, shape=(0, 1 << 22))
@example(maps=SHORT_CYCLE, shape=(0, 1539))
@example(maps=NOT_INVERTIBLE, shape=(6, 1))
@example(maps=IDENTITY, shape=(0, 1))
@example(maps=ONTO_A_FIXED_POINT, shape=(24, 1))
def test_closed_form_shape_matches_sequential(maps, shape):
    # each example also against its known shape; the reference's cycle of
    # 2**22 states is not walked state by state
    params, coupling, seed = maps
    closed = closed_form_shape(maps)
    assert shape is None or closed == shape
    if maps is not REFERENCE:
        assert closed == rho_seq(seed, params, coupling)


@pytest.mark.parametrize(
    "maps, limit",
    [
        (REFERENCE, None),
        (SHORT_CYCLE, None),
        (SHORT_CYCLE, 100),
        (FULL_TOY, 255),
        (NOT_INVERTIBLE, 10**7),  # a limit far past the orbit's 7 states
        (NOT_INVERTIBLE, 3),
        (ONTO_A_FIXED_POINT, None),
        (IDENTITY, None),
    ],
)
def test_each_orbit_check_walks_its_closed_form_shape_once(maps, limit):
    # one lane walk each: min(tail + period, limit) states for the period,
    # tail + period for equidistribution
    params, coupling, seed = maps
    tail, period = closed_form_shape(maps)
    counts = []

    class Recorded(verification._LaneWalk):
        def __init__(self, m, x, y, count, *args):
            super().__init__(m, x, y, count, *args)
            counts.append(count)

    with patch.object(verification, "_LaneWalk", Recorded):
        orbit_period(seed, params, coupling, limit=limit)
        equidistribution_check(params, coupling, seed)
    default = params.m**2 + 1
    assert counts == [min(tail + period, default if limit is None else limit), tail + period]


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
# control; a truncated window; a seed that is not forw(256), whose first
# mismatch is at n = 2; a corrupted c whose first mismatch is at n = 9,
# where forw(1) and forw(2) step back and forw(3) does not; true constants
# from a seed that is not the forward endpoint; the identity map; the
# corrupted d at the shipped lane count, 255 lanes of one step, both
# backward walks in 16 rows of 16; a failing window of 10, whose backward
# walks run in 3 lanes of 3 steps; a seed that steps back onto forw(9)
# but is not forw(10); wrong constants that pass the window of 2, though
# forw(1) does not step back onto (0, 0). A draw whose a has no inverse
# mod m is refused.
@settings(max_examples=300, deadline=None)
@given(run=reproduction_runs(), reseed=st.booleans(), shape=SHAPES)
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=(3, 1))
@example(run=(RundConstants(5, 3, 16, 2, 7, 9, 256), 256, None), reseed=False, shape=(5, 7))
@example(run=(RundConstants(5, 3, 16, 2, 13, 2, 256), 100, None), reseed=True, shape=(3, 1))
@example(run=(RundConstants(5, 3, 16, 2, 5, 9, 256), 256, (0, 8)), reseed=False, shape=(3, 1))
@example(run=(RundConstants(17, 14, 32, 1, 1, 18, 1024), 1024, None), reseed=False, shape=(3, 1))
@example(run=(RundConstants(5, 3, 16, 2, 13, 9, 256), 100, (0, 0)), reseed=False, shape=(3, 1))
@example(run=(RundConstants(1, 0, 8, 0, 1, 0, 64), 64, (3, 5)), reseed=False, shape=(3, 1))
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=SHIPPED)
@example(run=(RundConstants(5, 3, 16, 2, 7, 9, 256), 10, None), reseed=True, shape=(3, 1))
@example(run=(RundConstants(5, 3, 16, 2, 1, 0, 256), 10, (11, 0)), reseed=False, shape=(3, 1))
@example(run=(RundConstants(5, 3, 16, 2, 0, 3, 256), 2, (2, 7)), reseed=False, shape=(3, 1))
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
        (RundConstants(5, 3, 16, 2, 5, 9, 256), 256, (0, 8), 0),
        (RundConstants(17, 14, 32, 1, 1, 18, 1024), 1024, None, 3),
        (RundConstants(5, 3, 16, 2, 13, 9, 256), 100, (0, 0), 0),
    ],
)
def test_reproduction_check_fails_where_the_examples_say(k, n, seed, steps):
    # In one lane the check is sequential: it compares the seed with
    # forw(n), then steps back each forward state as it is walked, forw(1)
    # onto (0, 0), and stops at the first that does not step back onto the
    # state before it. In the first and last examples the seed is not
    # forw(n), so nothing is stepped back; in the second forw(1) and
    # forw(2) step back and forw(3) does not. Then the failing run counts
    # its mismatches.
    calls = []
    mismatches = verification._mismatches

    def spy(x, y, k):
        calls.append(np.ravel(x + k.m * y).tolist())
        return rund_backward_step(x, y, k)

    def count(*args):
        calls.append("count")
        return mismatches(*args)

    with (
        engine_shape((1, 1)),
        patch.object(verification, "rund_backward_step", spy),
        patch.object(verification, "_mismatches", count),
    ):
        assert not paper_reproduction(k, imax=n, backward_seed=seed).passed
    forw = walk_seq(lambda x, y: rund_forward_step(x, y, k), k.m, 0, steps)
    assert calls[: steps + 1] == [[z] for z in forw] + ["count"]


TOY_K = RundConstants(5, 3, 16, 2, 13, 9, 256)  # the true toy inverse


def corrupted_at(z, dx, dy):
    """The reference backward step, its words off by (dx, dy) from the packed state z."""

    def step(x, y, k):
        x0, y0 = rund_backward_step(x, y, k)
        hit = (x == z % k.m) & (y == z // k.m)
        return (x0 + dx * hit) % k.m, (y0 + dy * hit) % k.m

    return step


# The check of the true toy inverse over a walk of 256 states, in 64 lanes
# of 4 steps, 4 rows of 16. One state's backward step is off in one word:
# the x word of forw(1), which steps back onto the start (0, 0); the x
# word of forw(5), which starts lane 1 and steps back onto the start grid;
# or the y word of forw(248), lane 61's last state, in the last column
# (an x word is compared for a whole row). A failing run's backward walk
# of such a step cannot be seeded, since it is no longer affine, and the
# stitch check would refuse it.
@pytest.mark.parametrize("z_index, dx, dy", [(0, 1, 0), (4, 1, 0), (247, 0, 1)])
def test_reproduction_check_sees_one_bad_word(z_index, dx, dy):
    k, cmap = TOY_K, verification._CoupledMap(LcgParams(5, 3, 16), CouplingSpec(2))
    z = walk_seq(cmap.forward, k.m, 0, z_index + 1)[-1]
    end = cmap.jump(0, 0, 256)
    with engine_shape((64, 1 << 15)):
        assert verification._retraces(k, cmap, 256, end)
        with patch.object(verification, "rund_backward_step", corrupted_at(z, dx, dy)):
            assert not verification._retraces(k, cmap, 256, end)


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
TOY_MAP = verification._CoupledMap(*FULL_TOY[:2])
TOY_FORWARD = TOY_MAP.forward
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
    span, rows, cols = lane_walk.span, lane_walk.rows, lane_walk.cols
    expected = walk_seq(step, m, z, rows * cols * span)
    # the walk records its last state, index count - 1
    x, y = lane_walk.last
    assert x + m * y == expected[count - 1]
    # lane l sits in row l % rows, column l // rows; rows share an x word
    assert rows * cols >= lane_walk.lanes > rows * (cols - 1)
    # every cell is a lane: the cell of lane l at step t is orbit index
    # l*span + t, the padding and the last lane's steps past count included
    walked = {}
    for t, (xs, ys) in enumerate(steps):
        assert xs.shape == (rows, 1) and ys.shape == (rows, cols)
        for row in range(rows):
            for col in range(cols):
                walked[(col * rows + row) * span + t] = int(xs[row, 0] + m * ys[row, col])
    assert walked == dict(enumerate(expected))


@st.composite
def walk_ends(draw):
    """(cmap, x, y, count, wrong): a toy coupled map up to m = 64, carry on
    or off, a walk of count states from (x, y) that runs past m**2, and a
    state that is not the one count steps on."""
    params, coupling, (x, y) = draw(coupled_maps(max_m=64))
    cmap, m = verification._CoupledMap(params, coupling), params.m
    count = draw(st.integers(1, 2 * m * m + 3))
    word = st.integers(0, m - 1)
    wrong = draw(st.tuples(word, word).filter(lambda state: state != cmap.jump(x, y, count)))
    return cmap, x, y, count, wrong


# Up to 64 lanes put the walk's last state in any lane, with padding after
# it or not; one lane puts it at the end of the only lane.
@settings(max_examples=300, deadline=None)
@given(walk=walk_ends(), lanes=st.sampled_from([1, 3, 7, 64]))
@example(walk=(TOY_MAP, 0, 0, 300, (0, 0)), lanes=64)
@example(walk=(TOY_MAP, 0, 0, 1, (0, 0)), lanes=7)
def test_lane_walk_proves_its_closed_form_end(walk, lanes):
    cmap, x, y, count, wrong = walk
    end = cmap.jump(x, y, count)
    with patch.object(verification, "_LANES", lanes):
        walked = verification._LaneWalk(cmap.m, x, y, count, cmap.forward, cmap.jump, end=end)
        assert sum(1 for _ in walked) == walked.span and walked.last == end
        refused = verification._LaneWalk(cmap.m, x, y, count, cmap.forward, cmap.jump, end=wrong)
        with pytest.raises(InvariantError) as err:
            list(refused)
    assert f"{count} steps from {(x, y)} ends at {end}, the closed form at {wrong}" in str(
        err.value
    )


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
        engine_shape((7, 1 << 15)),
        patch.object(verification, "_tail_walk", second_off),
        pytest.raises(InvariantError, match="lanes do not stitch"),
    ):
        paper_reproduction(RundConstants(5, 3, 16, 2, 7, 9, 256))
    assert len(calls) == 6


def test_failing_run_jumps_each_distinct_start_word_once():
    # 204**256 = 0 mod 2048, so the given walk's x words after lane 0 are
    # all one word: its 16383 tails come from 2 distinct start words. Each
    # walk, the given one first, jumps x = 0, then x = 1, then its tails.
    sizes, tail_walk = [], verification._tail_walk

    def spy(step, x, y, n):
        sizes.append(np.size(x))
        return tail_walk(step, x, y, n)

    with patch.object(verification, "_tail_walk", spy):
        report = paper_reproduction(RundConstants(c=204))
    assert len(sizes) == 6 and sizes[2] <= 2
    assert report == ReproductionReport(4194303, 4194302, 1, False)


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
    sx, sy = seeded.start
    assert sx.shape == (rows, 1) and sy.shape == (rows, cols)
    assert sx.ravel().tolist() == xs
    # lane l starts in row l % rows, column l // rows
    assert sy.T.ravel().tolist() == ys


def lane_start_words(p, u, m, count):
    """The start x words of the shipped lanes of a walk of count steps of x -> p*x + u from 0."""
    span = -(-count // verification._LANES)
    pt, _, ut, _ = generator._power((p, 0, u, 0), span, m)
    return verification._affine_scan(pt, 0, np.full(-(-count // span) - 1, ut), m)


@st.composite
def power_of_two_scans(draw):
    """(m, p, w0, c): m = 2**k up to 2**20, the largest power of two below
    MAX_MODULUS, and words of the scan's recurrence."""
    m = 1 << draw(st.integers(1, 20))
    word = st.integers(0, m - 1)
    return m, draw(word), draw(word), draw(st.lists(word, max_size=70))


TOP = (1 << 20) - 1


@settings(max_examples=100, deadline=None)
@given(scan=power_of_two_scans())
@example(scan=(1 << 20, TOP, TOP, [TOP] * 70))
def test_affine_scan_at_a_power_of_two(scan):
    # the masked scan against w_{i+1} = p*w_i + c_i mod m, one word at a time
    m, p, w0, c = scan
    expected = [w0]
    for ci in c:
        expected.append((p * expected[-1] + ci) % m)
    assert verification._affine_scan(p, w0, np.array(c, dtype=np.int64), m).tolist() == expected


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
        # the reference forward walk, x period 2048 in lanes of 256 steps
        (lane_start_words(1029, 1731, 2048, 1 << 22), 8),
        # the c = 204 given walk: 0, then one word it never leaves
        (lane_start_words(204, 1497, 2048, (1 << 22) - 1), verification._LANES),
        # m = 1539 in lanes of 3 steps: period 513, but rows of 32
        (lane_start_words(58, 5, 1539, 3 * verification._LANES), verification._LANES),
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
    for t, (xs, ys) in enumerate(lane_walk):
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
    # everywhere, every report is the same. Each forward walk is handed its
    # closed-form end, the seed (0, 0) of the full period, and each true
    # backward walk forw(1); the given backward walks, under test, none.
    shapes, ends = [], []

    class Recorded(verification._LaneWalk):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            shapes.append((self.rows, self.cols))
            ends.append(self.end)

    with patch.object(verification, "_LaneWalk", Recorded):
        shared = reference_reports()
        assert shapes == [(8, 2048)] * 4 + [(16384, 1), (8, 2048), (8, 2048), (4, 4096), (8, 2048)]
        forw1 = rund_forward_step(0, 0)
        assert ends == [(0, 0)] * 4 + [None, forw1, (0, 0), None, forw1]
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


# The reference checks, passing and failing, and the m = 1539 period walk,
# whose 16335 lanes take one row each, so that it jumps the tails of
# 16335 start words through np.unique's inverse index.
CHECKS_WITHOUT_MASKED_ARRAYS = """
import sys
import revlcg
from revlcg import CoupledState, CouplingSpec, LcgParams, RundConstants
params, coupling, seed = LcgParams(1029, 1731, 2048), CouplingSpec(1536), CoupledState(0, 0)
assert revlcg.orbit_period(seed, params, coupling).passed
assert revlcg.equidistribution_check(params, coupling, seed).passed
assert revlcg.roundtrip_sweep(params, coupling).passed
assert revlcg.paper_reproduction().passed
assert not revlcg.paper_reproduction(RundConstants(c=204)).passed
assert not revlcg.paper_reproduction(RundConstants(d=1498)).passed
assert revlcg.orbit_period(seed, LcgParams(58, 5, 1539), CouplingSpec(700)).passed
print("numpy.ma" in sys.modules)
"""


def test_no_check_imports_masked_arrays():
    # np.unique without an inverse index imports numpy.ma on first use,
    # about 14 ms and 1.5 MiB in a fresh interpreter; _grid_rows counts
    # its rows in sorted words instead
    res = subprocess.run(
        [sys.executable, "-c", CHECKS_WITHOUT_MASKED_ARRAYS], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


POWER = generator._power


def off_by_one_power(f, n, mod):
    return POWER(f, n + 1, mod)


def test_broken_jump_fails_the_stitch_check():
    params, coupling, seed = FULL_TOY
    # The broken power puts no state on a cycle, so the closed-form tail is
    # m**2 and the walk takes the default limit: 257 states in 4 lanes of
    # 65 steps. Lane 0 ends after 65 steps, and the broken power seeds
    # lane 1, x and y words, one step further on
    walk = generate_sequence(seed, 66, params, coupling)
    expected, got = tuple(walk[64]), tuple(walk[65])
    with engine_shape((4, 1 << 15)), patch.object(generator, "_power", off_by_one_power):
        with pytest.raises(InvariantError, match="lane 1 should start where lane 0 ends") as err:
            orbit_period(seed, params, coupling)
    assert f"expected {expected}, got {got}" in str(err.value)


# The caller's ufunc buffer size, which no check may keep.
CALLER_BUFSIZE = 4096


@pytest.fixture
def caller_bufsize():
    saved = np.setbufsize(CALLER_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(saved)


BROKEN_TOY_K = RundConstants(5, 3, 16, 2, 13, 1, 256)  # d = 1, the derived d is 9
# Each check on FULL_TOY and its verdict: the sweep steps rows of 16
# states, the walks 16 rows of 16 lanes, and the failing reproduction
# also walks backward twice.
BUFFERED_CHECKS = {
    "sweep": (lambda: roundtrip_sweep(*FULL_TOY[:2]), True),
    "period": (lambda: orbit_period(FULL_TOY[2], *FULL_TOY[:2]), True),
    "equidistribution": (lambda: equidistribution_check(*FULL_TOY), True),
    "passing reproduction": (lambda: paper_reproduction(TOY_K), True),
    "failing reproduction": (lambda: paper_reproduction(BROKEN_TOY_K), False),
}


@pytest.mark.parametrize("check, passes", BUFFERED_CHECKS.values(), ids=BUFFERED_CHECKS)
def test_checks_step_their_grids_with_row_sized_buffers(caller_bufsize, check, passes):
    # a spy on each step records the buffer size and the rows of the grid
    # it steps, its y words' (0 for a scalar or a flat array)
    seen = set()

    def spy(step, y_at):
        def recording(*args, **kwargs):
            y = args[y_at]
            seen.add((np.getbufsize(), y.shape[0] if np.ndim(y) == 2 else 0))
            return step(*args, **kwargs)

        return recording

    forward = generator._CoupledMap.forward
    with (
        patch.object(generator._CoupledMap, "forward", spy(forward, 2)),
        patch.object(verification, "rund_backward_step", spy(rund_backward_step, 1)),
    ):
        assert check().passed == passes
    assert {size for size, _ in seen} == {verification._ROW_BUFFER}
    assert max(rows for _, rows in seen) > 1
    assert np.getbufsize() == CALLER_BUFSIZE


def grid_words(check):
    """(passed, the word types of every 2-D grid the array steps see) of ``check``."""
    seen = set()

    def spy(step):
        def recording(*args, **kwargs):
            seen.update(w.dtype for w in args if isinstance(w, np.ndarray) and w.ndim == 2)
            return step(*args, **kwargs)

        return recording

    cmap = generator._CoupledMap
    with (
        patch.object(cmap, "forward", spy(cmap.forward)),
        patch.object(cmap, "backward", spy(cmap.backward)),
        patch.object(verification, "rund_backward_step", spy(rund_backward_step)),
    ):
        return check().passed, seen


def test_reference_checks_step_int32_grids():
    # the reference walks and sweep sit inside the int32 bound, and c = 512
    # is the first backward word past it at m = 2048
    params, coupling, seed = REFERENCE
    for check in (
        lambda: roundtrip_sweep(params, coupling),
        lambda: orbit_period(seed, params, coupling),
        lambda: equidistribution_check(params, coupling, seed),
        paper_reproduction,
    ):
        assert grid_words(check) == (True, {np.dtype(np.int32)})
    c512 = grid_words(lambda: paper_reproduction(RundConstants(c=512)))
    assert c512 == (False, {np.dtype(np.int64)})


def int64_words():
    """Every array check stepped on int64 words, whatever its bound allows."""
    return patch.object(verification, "_words", lambda m, c=0: np.int64)


def outcome(check):
    """The report of ``check``, or the type and message of the error it raised."""
    try:
        return check()
    except Exception as err:
        return type(err), str(err)


@st.composite
def word_checks(draw):
    """The four array checks of one toy map, carry on or off, with any (c, d) in [0, m)."""
    params, coupling, seed = draw(coupled_maps())
    m = params.m
    c, d = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    k = RundConstants(params.a, params.b, m, coupling.s, c, d, m * m)
    return m, c, [
        partial(roundtrip_sweep, params, coupling, InverseParams(c, d)),
        partial(orbit_period, seed, params, coupling),
        partial(equidistribution_check, params, coupling, seed),
        partial(paper_reproduction, k),
    ]


@settings(max_examples=200, deadline=None)
@given(checks=word_checks(), shape=SHAPES)
def test_int32_words_match_int64_words(checks, shape):
    m, c, calls = checks
    assert verification._words(m, c) is np.int32
    with engine_shape(shape):
        shipped = [outcome(call) for call in calls]
        with int64_words():
            assert [outcome(call) for call in calls] == shipped


# c = 204 and 205 fail and pass inside the bound, 511 is the last c of
# m = 2048 to step int32 words and 512 the first to step int64
@pytest.mark.parametrize(
    "check",
    [partial(paper_reproduction, RundConstants(c=c)) for c in (204, 205, 511, 512)]
    + [partial(roundtrip_sweep, *REFERENCE[:2], InverseParams(c, 1497)) for c in (511, 512)],
    ids=[f"paper c={c}" for c in (204, 205, 511, 512)] + ["sweep c=511", "sweep c=512"],
)
def test_reference_int32_words_match_int64_words(check):
    shipped = check()
    with int64_words():
        assert check() == shipped


def broken_jump_period():
    # the walk of test_broken_jump_fails_the_stitch_check, raising mid-walk
    with engine_shape((4, 1 << 15)), patch.object(generator, "_power", off_by_one_power):
        return orbit_period(FULL_TOY[2], *FULL_TOY[:2])


# A pass, a failing verdict, a refusal before any walk and an error raised
# mid-walk: each leaves the caller's buffer size as it found it.
RESTORING_RUNS = {
    "pass": (lambda: roundtrip_sample(*FULL_TOY[:2], samples=100), True),
    "failing verdict": (lambda: paper_reproduction(RundConstants(c=204)), False),
    "refusal": (
        lambda: roundtrip_sweep(LcgParams(1029, 1731, 8192), CouplingSpec(1536)),
        ParameterError,
    ),
    "invariant error": (broken_jump_period, InvariantError),
}


@pytest.mark.parametrize("run, outcome", RESTORING_RUNS.values(), ids=RESTORING_RUNS)
def test_checks_restore_the_callers_buffer_size(caller_bufsize, run, outcome):
    if isinstance(outcome, bool):
        assert run().passed == outcome
    else:
        with pytest.raises(outcome):
            run()
    assert np.getbufsize() == CALLER_BUFSIZE


def test_stitch_check_covers_the_padding():
    # 300 lanes of one step in 16 rows of 19 columns: lanes 300 .. 303 are
    # the padding, past the window, and lane 301's start, in row 13 and
    # column 18, is one y word off
    params, coupling, seed = FULL_TOY
    cmap = verification._CoupledMap(params, coupling)
    with patch.object(verification, "_LANES", 300):
        walk = verification._LaneWalk(params.m, *seed, 300, cmap.forward, cmap.jump)
    assert (walk.rows, walk.cols, walk.lanes) == (16, 19, 300)
    walk.start[1][13, 18] = (walk.start[1][13, 18] + 1) % params.m
    with pytest.raises(InvariantError, match="lanes do not stitch: lane 301 should start"):
        list(walk)


def test_orbit_period_drops_a_recurrence_past_the_window():
    # 214 states in 3 lanes of 72 steps, 2 rows of 2 columns: the padding
    # cell holds indices 216 .. 287, and the seed recurs at index 255,
    # after 256 steps, past the limit
    params, coupling, seed = FULL_TOY
    with patch.object(verification, "_LANES", 3):
        report = orbit_period(seed, params, coupling, limit=214)
    assert report == verification.OrbitReport(
        period=None, reached_full_period=False, states_visited=214, first_repeat_state=None
    )


# A slope of 10*m**2, set past the constructor's s < m check, puts f(x0)
# far above m**2 at any x0 > 0 and drives the backward offset
# y + m**2 - f(x0) negative.
HUGE_COUPLING = (
    "init = revlcg.generator._CoupledMap.__init__\n"
    "def huge_slope(cmap, *args):\n"
    "    init(cmap, *args)\n"
    "    cmap.s = 10 * cmap.m * cmap.m\n"
    "revlcg.generator._CoupledMap.__init__ = huge_slope\n"
)

# A true walk back of 255 steps on the (5, 3, 16, 2) toy that ends one step
# short, on forw(2), where its closed form puts forw(1)
MISSES_FORW1 = "ends at (2, 7), the closed form at (3, 0)"

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
    # The broken jump gives forw(257) = forw(1) = (3, 0) as forw(256), which
    # the seed is not; the failing path's true walk then starts there and
    # ends on forw(2) = (2, 7).
    "passing reproduction lanes": (
        "v, g = revlcg.verification, revlcg.generator\n"
        "power = g._power\n"
        "g._power = lambda f, n, mod: power(f, n + 1, mod)\n"
        "v.paper_reproduction(revlcg.RundConstants(5, 3, 16, 2, 13, 9, 256))\n",
        f"the walk of 255 steps from (3, 0) {MISSES_FORW1}",
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
    # The true walk back from forw(257) = forw(1) instead of forw(256)
    "failing walk end": (
        "v = revlcg.verification\n"
        "mismatches = v._mismatches\n"
        "v._mismatches = lambda k, true_k, n, seed, end: "
        "mismatches(k, true_k, n, seed, v.rund_forward_step(*end, k))\n"
        "v.paper_reproduction(revlcg.RundConstants(5, 3, 16, 2, 7, 9, 256))\n",
        f"the walk of 255 steps from (3, 0) {MISSES_FORW1}",
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

# A closed-form shape one off: the period one too long or one too short,
# or the tail one too long. Both checks of the full-period toy, with the
# carry on and off, must refuse each, and so must the equidistribution
# check of the map that is not a bijection. Its period walk ends on the
# fixed point whatever the period, which proves its verdict; only a tail
# one short, which stops the walk before the fixed point, must raise there.
SHAPE_CHECKS = {
    "toy period": "v.orbit_period(revlcg.CoupledState(0, 0), revlcg.LcgParams(5, 3, 16), {})",
    "toy equidistribution": (
        "v.equidistribution_check(revlcg.LcgParams(5, 3, 16), {}, revlcg.CoupledState(0, 0))"
    ),
}
SHAPE_CALLS = {
    f"{check}{twin}": call.format(coupling)
    for check, call in SHAPE_CHECKS.items()
    for twin, coupling in (("", "C"), (", carry off", "revlcg.CouplingSpec(2, False)"))
}
SHAPE_CALLS["not a bijection, equidistribution"] = (
    "v.equidistribution_check(revlcg.LcgParams(2, 1, 8), revlcg.CouplingSpec(3), "
    "revlcg.CoupledState(0, 0))"
)


def off_shape(shift, call):
    """A body that runs ``call`` with the closed-form (tail, period) off by ``shift``."""
    return (
        "v = revlcg.verification\n"
        "rho = v._rho\n"
        f"v._rho = lambda cmap, x, y: tuple(w + d for w, d in zip(rho(cmap, x, y), {shift}))\n"
        f"{call}\n",
        "closed form",
    )


BROKEN_UNDER_O |= {
    f"closed form {off}: {name}": off_shape(shift, call)
    for off, shift in (("period + 1", (0, 1)), ("period - 1", (0, -1)), ("tail + 1", (1, 0)))
    for name, call in SHAPE_CALLS.items()
}
BROKEN_UNDER_O["closed form tail - 1: not a bijection, period"] = off_shape(
    (-1, 0),
    "v.orbit_period(revlcg.CoupledState(0, 0), revlcg.LcgParams(2, 1, 8), revlcg.CouplingSpec(3))",
)

# A walk whose end is read one step early: the state the walk reads as its
# last, where its end check reads it, is the state one step before, walked
# from the walk's start; the walk's own store of its last state is dropped.
EARLY_END = (
    "v = revlcg.verification\n"
    "class EarlyEnd(v._LaneWalk):\n"
    "    def __init__(self, m, x, y, count, step, *args, **kwargs):\n"
    "        super().__init__(m, x, y, count, step, *args, **kwargs)\n"
    "        self.early = v._tail_walk(step, x, y, count - 1)\n"
    "    last = property(lambda self: self.early, lambda self, state: None)\n"
    "v._LaneWalk = EarlyEnd\n"
)
# A tail of 4 onto a cycle of 6: the walk of 10 states ends on the state
# after 4 steps, (3, 1), the first duplicate, z = 15; one step early it
# reads (7, 6), the state after 3 steps, which is not the seed either. The
# walk covers its 10 states, so the end, not the coverage, must be named.
TAIL_ORBIT = "revlcg.LcgParams(2, 1, 12), revlcg.CouplingSpec(0)"
TAIL_END = "the walk of 10 steps from (0, 0) ends at (7, 6), the closed form at (3, 1)"
BROKEN_UNDER_O |= {
    "early end: tail equidistribution": (
        EARLY_END + f"v.equidistribution_check({TAIL_ORBIT}, revlcg.CoupledState(0, 0))\n",
        TAIL_END,
    ),
    "early end: tail period": (
        EARLY_END + f"v.orbit_period(revlcg.CoupledState(0, 0), {TAIL_ORBIT})\n",
        TAIL_END,
    ),
    # The passing check's forward walk stops at its first bad step, before
    # its end check; the true walk back from forw(256) = (0, 0) is read one
    # step early, on forw(2).
    "early end: failing walk": (
        EARLY_END + "v.paper_reproduction(revlcg.RundConstants(5, 3, 16, 2, 7, 9, 256))\n",
        f"the walk of 255 steps from (0, 0) {MISSES_FORW1}",
    ),
    # A jump one step too long only past 64 steps still seeds the window
    # of 100 states, lanes of one step, correctly, but its closed-form
    # forw(100) is forw(101) = (7, 4), the seed given: the forward walk
    # ends one step short of it, on forw(100) = (4, 15).
    "passing reproduction end": (
        "v, g = revlcg.verification, revlcg.generator\n"
        "k = revlcg.RundConstants(5, 3, 16, 2, 13, 9, 256)\n"
        "seed = v._tail_walk(lambda x, y: v.rund_forward_step(x, y, k), 0, 0, 101)\n"
        "power = g._power\n"
        "g._power = lambda f, n, mod: power(f, n + (n > 64), mod)\n"
        "v.paper_reproduction(k, imax=100, backward_seed=seed)\n",
        "the walk of 100 steps from (0, 0) ends at (4, 15), the closed form at (7, 4)",
    ),
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
