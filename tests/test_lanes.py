"""The lane-parallel orbit engine against the sequential reference walks.

Every report must equal the sequential one field for field, over small
random coupled maps, including maps that are not bijections, step
limits below the period, the identity map and corrupted reversal
constants. The engine's lane count and block size are patched down so
that small orbits still cross lane and block boundaries.
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

# (lanes, block): the shipped shape, one lane, and shapes whose lanes and
# blocks end inside small orbits.
SHAPES = st.sampled_from([(4096, 1 << 22), (1, 1 << 22), (3, 7), (5, 64), (64, 1000)])

IDENTITY = (LcgParams(1, 0, 8), CouplingSpec(0, carry_enabled=False), CoupledState(3, 5))
NOT_INVERTIBLE = (LcgParams(2, 1, 8), CouplingSpec(3), CoupledState(0, 0))
FULL_TOY = (LcgParams(5, 3, 16), CouplingSpec(2), CoupledState(0, 0))


@contextmanager
def engine_shape(shape):
    lanes, block = shape
    with patch.object(verification, "_LANES", lanes), patch.object(verification, "_BLOCK", block):
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
@example(maps=IDENTITY, limit=None, shape=(3, 7))
@example(maps=NOT_INVERTIBLE, limit=None, shape=(5, 64))
@example(maps=FULL_TOY, limit=100, shape=(3, 7))
@example(maps=NOT_INVERTIBLE, limit=70, shape=(3, 7))
def test_orbit_period_matches_sequential(maps, limit, shape):
    params, coupling, seed = maps
    with engine_shape(shape):
        lanes = orbit_period(seed, params, coupling, limit=limit)
    assert lanes == orbit_period_seq(seed, params, coupling, limit=limit)


@settings(max_examples=300, deadline=None)
@given(maps=coupled_maps(), shape=SHAPES)
@example(maps=IDENTITY, shape=(3, 7))
@example(maps=NOT_INVERTIBLE, shape=(5, 64))
@example(maps=FULL_TOY, shape=(3, 7))
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
# retrace starts from a lane state); the identity map.
@settings(max_examples=300, deadline=None)
@given(run=reproduction_runs(), reseed=st.booleans(), shape=SHAPES)
@example(run=(RundConstants(5, 3, 16, 2, 13, 1, 256), 256, None), reseed=False, shape=(3, 7))
@example(run=(RundConstants(5, 3, 16, 2, 7, 9, 256), 256, None), reseed=False, shape=(5, 64))
@example(run=(RundConstants(5, 3, 16, 2, 13, 2, 256), 100, None), reseed=True, shape=(3, 7))
@example(run=(RundConstants(5, 3, 16, 2, 7, 0, 256), 256, (15, 13)), reseed=False, shape=(3, 7))
@example(run=(RundConstants(1, 0, 8, 0, 1, 0, 64), 64, (3, 5)), reseed=False, shape=(3, 7))
def test_paper_reproduction_matches_sequential(run, reseed, shape):
    k, n, seed = run
    if reseed:
        seed = endpoint(k, n)
    with engine_shape(shape):
        lanes = paper_reproduction(k, imax=n, backward_seed=seed)
    assert lanes == paper_reproduction_seq(k, n, (0, 0) if seed is None else seed)


JUMP = verification._lane_jump


def off_by_one_jump(a, b, m, s, carry, n):
    return JUMP(a, b, m, s, carry, n + 1)


def test_broken_jump_fails_the_stitch_check():
    params, coupling, seed = FULL_TOY
    # 257 states in 4 lanes of 65 steps: lane 0 ends after 65 steps, and the
    # broken jump seeds lane 1 one step further on
    walk = generate_sequence(seed, 66, params, coupling)
    expected, got = tuple(walk[64]), tuple(walk[65])
    with engine_shape((4, 1 << 22)), patch.object(verification, "_lane_jump", off_by_one_jump):
        with pytest.raises(InvariantError, match="lane 1 should start where lane 0 ends") as err:
            orbit_period(seed, params, coupling)
    assert f"expected {expected}, got {got}" in str(err.value)


# f(x) far above m**2 drives the backward offset y + m**2 - f(x0) negative.
HUGE_COUPLING = "revlcg.generator._coupling_words = lambda x, a, b, m, s, carry: 10 * m * m\n"

# Each script breaks one invariant on purpose. Under -O an assert would
# vanish and the call would return; the explicit raise must still fire.
BROKEN_UNDER_O = {
    "lane jump": (
        "v = revlcg.verification\n"
        "jump = v._lane_jump\n"
        "v._lane_jump = lambda a, b, m, s, carry, n: jump(a, b, m, s, carry, n + 1)\n"
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
