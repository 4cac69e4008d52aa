"""The lane-parallel orbit engine against the sequential reference walks.

Every report must equal the sequential one field for field, over small
random coupled maps, including maps that are not bijections, step
limits below the period, the identity map and corrupted reversal
constants. The engine's lane count, block size and table flush are
patched down so that small orbits still cross lane, block and flush
boundaries; the shapes also set the round-trip chunk, which no orbit
walk may depend on. The lane walk seeded without a closed form, which a
failing reproduction runs backward, must equal the plain step-by-step
walk, and the passing checks at the reference size must hold no orbit
table.
"""

import json
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
    CoupledState,
    CouplingSpec,
    InvariantError,
    LcgParams,
    RundConstants,
    derive_inverse,
    equidistribution_check,
    generate_sequence,
    orbit_period,
    paper_reproduction,
    rund_backward_step,
    rund_forward_step,
    verification,
)
from sequential_walks import (
    equidistribution_seq,
    orbit_period_seq,
    paper_reproduction_seq,
    walk_seq,
)

# (lanes, block, chunk, flush): the shipped shape, one lane, and shapes
# whose lanes, blocks and flush blocks end inside small orbits.
SHIPPED = (verification._LANES, verification._BLOCK, verification._SWEEP_CHUNK, verification._FLUSH)
SHAPES = st.sampled_from(
    [SHIPPED, (1, 1 << 22, 7, 3), (3, 7, 1, 2), (5, 64, 7, 1), (64, 1000, 1 << 15, 3)]
)

IDENTITY = (LcgParams(1, 0, 8), CouplingSpec(0, carry_enabled=False), CoupledState(3, 5))
NOT_INVERTIBLE = (LcgParams(2, 1, 8), CouplingSpec(3), CoupledState(0, 0))
FULL_TOY = (LcgParams(5, 3, 16), CouplingSpec(2), CoupledState(0, 0))


@contextmanager
def engine_shape(shape):
    lanes, block, chunk, flush = shape
    with (
        patch.object(verification, "_LANES", lanes),
        patch.object(verification, "_BLOCK", block),
        patch.object(verification, "_SWEEP_CHUNK", chunk),
        patch.object(verification, "_FLUSH", flush),
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
@example(maps=IDENTITY, limit=None, shape=(3, 7, 1, 2))
@example(maps=NOT_INVERTIBLE, limit=None, shape=(5, 64, 7, 1))
@example(maps=FULL_TOY, limit=100, shape=(3, 7, 1, 2))
@example(maps=NOT_INVERTIBLE, limit=70, shape=(3, 7, 1, 2))
@example(maps=FULL_TOY, limit=None, shape=(3, 1000, 1, 4))  # lanes of 86 steps: 21 flushes and 2 steps
def test_orbit_period_matches_sequential(maps, limit, shape):
    params, coupling, seed = maps
    with engine_shape(shape):
        lanes = orbit_period(seed, params, coupling, limit=limit)
    assert lanes == orbit_period_seq(seed, params, coupling, limit=limit)


@settings(max_examples=300, deadline=None)
@given(maps=coupled_maps(), shape=SHAPES)
@example(maps=IDENTITY, shape=(3, 7, 1, 2))
@example(maps=NOT_INVERTIBLE, shape=(5, 64, 7, 1))
@example(maps=FULL_TOY, shape=(3, 7, 1, 2))
@example(maps=FULL_TOY, shape=(3, 1000, 1, 4))  # lanes of 86 steps: 21 flushes and 2 steps
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
# map; the reference toy in lanes of 86 steps, 21 flushes of 4 and a
# partial one of 2; a failing window of 10, whose backward walk runs in 3
# lanes of 3 steps.
@settings(max_examples=300, deadline=None)
@given(run=reproduction_runs(), reseed=st.booleans(), shape=SHAPES)
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=(3, 7, 1, 2))
@example(run=(RundConstants(5, 3, 16, 2, 7, 9, 256), 256, None), reseed=False, shape=(5, 64, 7, 1))
@example(run=(RundConstants(5, 3, 16, 2, 13, 2, 256), 100, None), reseed=True, shape=(3, 7, 1, 2))
@example(run=(RundConstants(5, 3, 16, 2, 5, 9, 256), 256, (0, 8)), reseed=False, shape=(3, 7, 1, 2))
@example(run=(RundConstants(17, 14, 32, 1, 1, 18, 1024), 1024, None), reseed=False, shape=(3, 7, 1, 3))
@example(run=(RundConstants(5, 3, 16, 2, 13, 9, 256), 100, (0, 0)), reseed=False, shape=(3, 7, 1, 2))
@example(run=(RundConstants(1, 0, 8, 0, 1, 0, 64), 64, (3, 5)), reseed=False, shape=(3, 7, 1, 2))
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=(3, 7, 1, 4))
@example(run=(RundConstants(5, 3, 16, 2, 7, 9, 256), 10, None), reseed=True, shape=(3, 7, 1, 2))
def test_paper_reproduction_matches_sequential(run, reseed, shape):
    k, n, seed = run
    if reseed:
        seed = endpoint(k, n)
    with engine_shape(shape):
        lanes = paper_reproduction(k, imax=n, backward_seed=seed)
    assert lanes == paper_reproduction_seq(k, n, (0, 0) if seed is None else seed)


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
    # stepped back. Then the failing run builds its tables.
    calls = []
    orbit_table = verification._orbit_table

    def spy(x, y, k):
        calls.append(np.ravel(x + k.m * y).tolist())
        return rund_backward_step(x, y, k)

    def table(*args):
        calls.append("table")
        return orbit_table(*args)

    with (
        engine_shape((1, 7, 1, 2)),
        patch.object(verification, "rund_backward_step", spy),
        patch.object(verification, "_orbit_table", table),
    ):
        assert not paper_reproduction(k, imax=n, backward_seed=seed).passed
    x, y = (0, 0) if seed is None else seed
    forw = walk_seq(lambda x, y: rund_forward_step(x, y, k), k.m, 0, steps)
    assert calls[: steps + 2] == [[x + k.m * y]] + [[z] for z in forw] + ["table"]


def backward(k):
    return lambda x, y: rund_backward_step(x, y, k)


@st.composite
def table_walks(draw):
    """(step, p, u, m, z, count): a coupled map's forward step, with the carry
    on or off and bijective or not, or the reference backward step with true
    or corrupted (c, d), and its x word x -> p*x + u; counts run past m**2,
    so the walk wraps its cycle."""
    params, coupling, seed = draw(coupled_maps())
    m = params.m
    if draw(st.booleans()):
        step = verification._CoupledMap(params, coupling).forward
        p, u = params.a, params.b
    else:
        word = st.integers(0, m - 1)
        p, u = draw(word), draw(word)
        step = backward(RundConstants(params.a, params.b, m, coupling.s, p, u, m * m))
    return step, p, u, m, seed.x + m * seed.y, draw(st.integers(1, 2 * m * m + 3))


TOY_K = RundConstants(5, 3, 16, 2, 13, 9, 256)  # the true toy inverse


# Examples: the `verify paper --m 16 --a 5 --b 3 --s 2 --c 7` control over
# its whole window, in 7 lanes of 37 steps, the last one cut short; the true
# toy inverse past its period, in 60 lanes of 5 steps; a map that is not a
# bijection, whose walk runs into a cycle that misses the start, in lanes
# of 44 steps; the identity map without the carry, in one lane; a single
# step.
@settings(max_examples=300, deadline=None)
@given(walk=table_walks(), lanes=st.sampled_from([1, 3, 7, 64, verification._LANES]))
@example(walk=(backward(RundConstants(5, 3, 16, 2, 7, 9, 256)), 7, 9, 16, 0, 255), lanes=7)
@example(walk=(backward(TOY_K), 13, 9, 16, 0, 300), lanes=64)
@example(walk=(verification._CoupledMap(*NOT_INVERTIBLE[:2]).forward, 2, 1, 8, 0, 131), lanes=3)
@example(walk=(verification._CoupledMap(*IDENTITY[:2]).forward, 1, 0, 8, 43, 129), lanes=1)
@example(walk=(backward(TOY_K), 13, 9, 16, 37, 1), lanes=verification._LANES)
def test_table_walk_matches_sequential(walk, lanes):
    step, p, u, m, z, count = walk
    with patch.object(verification, "_LANES", lanes):
        table = verification._orbit_table(m, z % m, z // m, count, step, p, u)
        lane_walk = verification._LaneWalk(m, z % m, z // m, count, step, p, u)
        steps = list(lane_walk)
    expected = walk_seq(step, m, z, count)
    assert table.tolist() == expected
    span = lane_walk.span
    for j in {0, span - 1, count - 1}:
        x, y = lane_walk.state(j)
        assert x + m * y == expected[j]
    # entry l of step t is orbit index l*span + t; none lies past the walk
    walked = {
        lane * span + t: int(x + m * y)
        for t, (xs, ys) in enumerate(steps)
        for lane, (x, y) in enumerate(zip(xs, ys))
    }
    assert walked == dict(enumerate(expected))


def test_short_failing_window_at_large_m_builds_no_table():
    # A table over m**2 = 10**10 states would take 80 GB; the failing walk's
    # lanes hold only its window, here 100 states and then 200 000 states in
    # 4082 lanes of 49 steps.
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


def test_orbit_table_at_the_shipped_shape():
    # 65 * 4096 + 1 states: 4034 lanes of 66 steps, one full flush block of
    # 64 and a partial one of 2
    params, coupling = LcgParams(1029, 1731, 2048), CouplingSpec(1536)
    count = verification._LANES * 65 + 1
    assert verification._FLUSH == 64 and -(-count // verification._LANES) == 66
    cmap = verification._CoupledMap(params, coupling)
    tail = partial(verification._lane_tail, cmap)
    table = verification._orbit_table(2048, 0, 0, count, cmap.forward, 1029, 1731, tail)
    walk = generate_sequence(CoupledState(0, 0), count, params, coupling)
    assert table.tolist() == [x + 2048 * y for x, y in walk]


def test_passing_checks_hold_no_orbit_table():
    # One table of the 2**22 reference states takes 32 MiB; the
    # equidistribution check's coverage flags take 4 MiB of that bound.
    params, coupling, seed = LcgParams(1029, 1731, 2048), CouplingSpec(1536), CoupledState(0, 0)
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


POWER = verification._power


def off_by_one_power(f, n, mod):
    return POWER(f, n + 1, mod)


def test_broken_jump_fails_the_stitch_check():
    params, coupling, seed = FULL_TOY
    # 257 states in 4 lanes of 65 steps: lane 0 ends after 65 steps, and the
    # broken power seeds lane 1, x and y words, one step further on
    walk = generate_sequence(seed, 66, params, coupling)
    expected, got = tuple(walk[64]), tuple(walk[65])
    with engine_shape((4, 1 << 22, 1 << 15, 64)), patch.object(verification, "_power", off_by_one_power):
        with pytest.raises(InvariantError, match="lane 1 should start where lane 0 ends") as err:
            orbit_period(seed, params, coupling)
    assert f"expected {expected}, got {got}" in str(err.value)


# f(x) far above m**2 drives the backward offset y + m**2 - f(x0) negative.
HUGE_COUPLING = "revlcg.generator._CoupledMap.f = lambda cmap, x: 10 * cmap.m * cmap.m\n"

# Each script breaks one invariant on purpose. Under -O an assert would
# vanish and the call would return; the explicit raise must still fire.
BROKEN_UNDER_O = {
    "lane jump": (
        "v = revlcg.verification\n"
        "power = v._power\n"
        "v._power = lambda f, n, mod: power(f, n + 1, mod)\n"
        "v.orbit_period(revlcg.CoupledState(0, 0), revlcg.LcgParams(5, 3, 16), C)\n",
        "lanes do not stitch",
    ),
    "passing equidistribution lanes": (
        "v = revlcg.verification\n"
        "power = v._power\n"
        "v._power = lambda f, n, mod: power(f, n + 1, mod)\n"
        "v.equidistribution_check(revlcg.LcgParams(5, 3, 16), C, revlcg.CoupledState(0, 0))\n",
        "lanes do not stitch",
    ),
    "passing reproduction lanes": (
        "v = revlcg.verification\n"
        "power = v._power\n"
        "v._power = lambda f, n, mod: power(f, n + 1, mod)\n"
        "v.paper_reproduction(revlcg.RundConstants(5, 3, 16, 2, 13, 9, 256))\n",
        "lanes do not stitch",
    ),
    "failing walk lanes": (
        "v = revlcg.verification\n"
        "walk = v._tail_walk\n"
        "v._tail_walk = lambda step, xs, n: [e + 1 for e in walk(step, xs, n)]\n"
        "v.paper_reproduction(revlcg.RundConstants(5, 3, 16, 2, 7, 9, 256))\n",
        "lanes do not stitch",
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
