"""The lane-parallel orbit engine against the sequential reference walks.

Every report must equal the sequential one field for field, over small
random coupled maps, including maps that are not bijections, step
limits below the period, the identity map and corrupted reversal
constants. The engine's lane count, block size, reproduction chunk and
table flush are patched down so that small orbits still cross lane,
block, chunk and flush boundaries.
"""

import subprocess
import sys
from contextlib import contextmanager
from unittest.mock import patch

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
    rund_forward_step,
    verification,
)
from sequential_walks import equidistribution_seq, orbit_period_seq, paper_reproduction_seq

# (lanes, block, chunk, flush): the shipped shape, one lane, and shapes
# whose lanes, blocks, chunks and flush blocks end inside small orbits.
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
# control; a truncated window; a seed whose first mismatch is at n = 2 (the
# retrace starts from a table state, in the second chunk of one); a
# corrupted c whose first mismatch is at n = 9, in the second chunk of 7;
# the identity map; the reference toy in lanes of 86 steps, 21 flushes of
# 4 and a partial one of 2.
@settings(max_examples=300, deadline=None)
@given(run=reproduction_runs(), reseed=st.booleans(), shape=SHAPES)
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=(3, 7, 1, 2))
@example(run=(RundConstants(5, 3, 16, 2, 7, 9, 256), 256, None), reseed=False, shape=(5, 64, 7, 1))
@example(run=(RundConstants(5, 3, 16, 2, 13, 2, 256), 100, None), reseed=True, shape=(3, 7, 1, 2))
@example(run=(RundConstants(5, 3, 16, 2, 7, 0, 256), 256, (15, 13)), reseed=False, shape=(3, 7, 1, 2))
@example(run=(RundConstants(17, 14, 32, 1, 1, 18, 1024), 1024, None), reseed=False, shape=(3, 7, 7, 3))
@example(run=(RundConstants(1, 0, 8, 0, 1, 0, 64), 64, (3, 5)), reseed=False, shape=(3, 7, 1, 2))
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=(3, 7, 1, 4))
def test_paper_reproduction_matches_sequential(run, reseed, shape):
    k, n, seed = run
    if reseed:
        seed = endpoint(k, n)
    with engine_shape(shape):
        lanes = paper_reproduction(k, imax=n, backward_seed=seed)
    assert lanes == paper_reproduction_seq(k, n, (0, 0) if seed is None else seed)


def test_orbit_table_at_the_shipped_shape():
    # 65 * 4096 + 1 states: 4034 lanes of 66 steps, one full flush block of
    # 64 and a partial one of 2
    params, coupling = LcgParams(1029, 1731, 2048), CouplingSpec(1536)
    count = verification._LANES * 65 + 1
    assert verification._FLUSH == 64 and -(-count // verification._LANES) == 66
    cmap = verification._CoupledMap(params, coupling)
    table = verification._orbit_table(cmap, 0, 0, count, cmap.forward)
    walk = generate_sequence(CoupledState(0, 0), count, params, coupling)
    assert table.tolist() == [x + 2048 * y for x, y in walk]


JUMP = verification._lane_jump


def off_by_one_jump(cmap, n):
    return JUMP(cmap, n + 1)


def test_broken_jump_fails_the_stitch_check():
    params, coupling, seed = FULL_TOY
    # 257 states in 4 lanes of 65 steps: lane 0 ends after 65 steps, and the
    # broken jump seeds lane 1 one step further on
    walk = generate_sequence(seed, 66, params, coupling)
    expected, got = tuple(walk[64]), tuple(walk[65])
    with engine_shape((4, 1 << 22, 1 << 15, 64)), patch.object(verification, "_lane_jump", off_by_one_jump):
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
        "jump = v._lane_jump\n"
        "v._lane_jump = lambda cmap, n: jump(cmap, n + 1)\n"
        "v.orbit_period(revlcg.CoupledState(0, 0), revlcg.LcgParams(5, 3, 16), C)\n",
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


@pytest.mark.parametrize("what", sorted(BROKEN_UNDER_O))
def test_invariant_checks_survive_python_O(what):
    body, message = BROKEN_UNDER_O[what]
    script = (
        "import revlcg, revlcg.congruence, revlcg.generator, revlcg.verification\n"
        "P, C = revlcg.LcgParams(5, 3, 8), revlcg.CouplingSpec(2)\n"
        "S, I = revlcg.CoupledState(1, 2), revlcg.InverseParams(5, 1)\n"
        "assert False, 'asserts are on'\n" + body
    )
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert "asserts are on" not in res.stderr
    assert res.returncode == 1
    assert "InvariantError" in res.stderr and message in res.stderr, res.stderr
