"""The array reductions against ``%`` on plain ints, and the sweep's grid.

The coupled map's steps reduce int64 arrays by the mask v & (m - 1) when
m is a power of two, and otherwise as v - (v // m)*m, whose floor
division numpy runs as a multiply by a precomputed reciprocal; ``%``
would run ``np.remainder``, a divide per element. These tests hold the
arrays to a ``%``-based reference on Python ints, exhaustively on toy
grids and at the largest moduli, and check which ufuncs the array paths
call: a mask at a power of two, floor division otherwise, and never
``np.remainder``. ``roundtrip_sweep`` runs those steps on chunks of whole
rows of the (y, x) grid, x of shape (1, m) and y of shape (rows, 1):
the chunks must broadcast to the states in z order, and the sweep must
equal a state-by-state run of the reference, whatever the chunk size.
Where the checks step int32 words, every value the steps make, traced
on Python ints at the largest words, must fit in int32, and the first
c past the bound must not.
"""

import math
import operator
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revlcg import (
    MAX_MODULUS,
    CoupledState,
    CouplingSpec,
    InvariantError,
    InverseParams,
    LcgParams,
    RoundTripReport,
    RundConstants,
    derive_inverse,
    roundtrip_sweep,
    rund_backward_step,
    rund_forward_step,
    verification,
)
from revlcg.generator import _CoupledMap
from revlcg.verification import _grid


def reference_forward(x, y, a, b, m, s, carry):
    u = a * x + b
    f = s * x + (u // m if carry else 0)
    return u % m, (a * y + f) % m


def reference_backward(x, y, a, b, m, s, carry, c, d):
    x0 = (c * x + d) % m
    u = a * x0 + b
    slack = y + m * m - (s * x0 + (u // m if carry else 0))
    return x0, (c * slack) % m, slack


def grid_params(m):
    """Three (a, b, s) with a invertible mod m: the identity, the largest words, a seeded draw."""
    rng = random.Random(m)
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    drawn = (rng.choice(units), rng.randrange(m), rng.randrange(m))
    return [(1, 0, 0), (m - 1, m - 1, m - 1), drawn]


def corrupted(inverse, m):
    return InverseParams((inverse.c + 1) % m, (inverse.d + 1) % m)


def check_against_reference(cmap, x, y):
    """The array steps at int64 words x, y against the reference, state by state."""
    a, b, m, s, carry, c, d = cmap.a, cmap.b, cmap.m, cmap.s, cmap.carry, cmap.c, cmap.d
    fx, fy = cmap.forward(x, y)
    bx, by, slack = cmap.backward(x, y)
    for got in (fx, fy, bx, by, slack):
        assert got.dtype == np.int64
    words = list(zip(x.tolist(), y.tolist()))
    assert list(zip(fx.tolist(), fy.tolist())) == [
        reference_forward(*w, a, b, m, s, carry) for w in words
    ]
    assert list(zip(bx.tolist(), by.tolist(), slack.tolist())) == [
        reference_backward(*w, a, b, m, s, carry, c, d) for w in words
    ]


@pytest.mark.parametrize("m", range(2, 41))
def test_toy_grids_match_the_remainder_reference(m):
    z = np.arange(m * m, dtype=np.int64)
    x, y = z % m, z // m
    for a, b, s in grid_params(m):
        params = LcgParams(a, b, m)
        true = derive_inverse(params)
        for carry in (True, False):
            for inverse in (true, corrupted(true, m)):
                check_against_reference(_CoupledMap(params, CouplingSpec(s, carry), inverse), x, y)


# MAX_MODULUS, and 2**20, the largest power of two below it, whose
# reductions are masks
@pytest.mark.parametrize("m", [MAX_MODULUS, 1 << 20])
@pytest.mark.parametrize("carry", [True, False])
def test_largest_modulus_stays_inside_int64(carry, m):
    # a = b = s = c = d = m - 1 and words at both ends: the largest
    # products the map can form, c*slack near m**3, just below 2**63.
    top = m - 1
    ends = [0, 1, top - 1, top]
    x, y = (np.array(w, dtype=np.int64) for w in zip(*[(u, v) for u in ends for v in ends]))
    params = LcgParams(top, top, m)
    for inverse in (derive_inverse(params), InverseParams(top, top)):
        check_against_reference(_CoupledMap(params, CouplingSpec(top, carry), inverse), x, y)


class Traced(int):
    """A Python int whose arithmetic records every result it makes, itself a Traced."""

    results: list = []


def _traced(op):
    def run(left, right):
        Traced.results.append(value := Traced(op(int(left), int(right))))
        return value

    return run


for _name in ("add", "sub", "mul", "floordiv", "mod", "and"):
    _op = getattr(operator, f"__{_name}__")
    setattr(Traced, f"__{_name}__", _traced(_op))
    setattr(Traced, f"__r{_name}__", _traced(lambda left, right, op=_op: op(right, left)))


def widest_value(m, b, c, d, x, y):
    """The largest magnitude the array steps make at (x, y), traced on Python ints.

    With a = s = m - 1: the forward step with the carry on and off, the
    map's backward step, rund's forward and backward steps, and the
    coverage flag's index y + m*x.
    """
    top = m - 1
    k = RundConstants(top, b, m, top, c, d, m * m)
    Traced.results = []
    x, y = Traced(x), Traced(y)
    for carry in (True, False):
        cmap = _CoupledMap(LcgParams(top, b, m), CouplingSpec(top, carry), InverseParams(c, d))
        cmap.forward(x, y)
        cmap.backward(x, y)
    rund_forward_step(x, y, k)
    rund_backward_step(x, y, k)
    Traced.results.append(y + m * x)
    return max(map(abs, Traced.results))


# Moduli around the int32 edges: toy ones, the reference 2048, 1539 and
# 4096, and 32767, the largest m whose forward steps take int32 words, and
# 32768, the first whose do not.
@pytest.mark.parametrize("m", [2, 3, 16, 1539, 2048, 4096, 16384, 32767, 32768])
def test_int32_words_hold_every_intermediate(m):
    top = m - 1
    ends = sorted({0, 1, max(top - 1, 0), top})
    words = [c for c in range(m) if verification._words(m, c) is np.int32]
    # the words c below an edge take int32, and the first c past it int64
    edge = len(words)
    assert words == list(range(edge))
    if edge < m:
        assert verification._words(m, edge) is np.int64
    # a = b = s = d = m - 1 and words at both ends, for every c sent to int32
    for c in words:
        assert max(widest_value(m, top, c, top, x, y) for x in ends for y in ends) < 2**31

    def widest(c):
        # b at both ends and d putting x0 at each end: x0 = 0 under y = m - 1
        # gives the largest slack, and with b = 0 and x >= 1 rund's floor carry of -1
        return max(
            widest_value(m, b, c, (x0 - c * x) % m, x, y)
            for b in (0, top) for x in ends for y in ends for x0 in ends
        )

    # the edge is exact: the last c sent to int32 stays inside it, and the
    # first c past it, which takes int64, would not
    if words:
        assert widest(edge - 1) < 2**31
        if edge < m:
            assert widest(edge) >= 2**31


def test_int32_bound_at_the_reference():
    # c = 511 is the last backward word of m = 2048 to take int32, 512 the first int64
    assert verification._words(2048) is np.int32
    assert [verification._words(2048, c) for c in (204, 205, 511)] == [np.int32] * 3
    assert verification._words(2048, 512) is np.int64


def grid_states(m, stop):
    """The sweep's chunks, broadcast and concatenated in order, until they hold ``stop`` states."""
    rows = max(1, verification._SWEEP_CHUNK // m)
    xs, ys, held = [], [], 0
    for x, y in _grid(m, verification._words(m)):
        assert x.dtype == y.dtype == verification._words(m)
        assert x.shape == (1, m) and y.shape == (min(rows, m - held // m), 1)
        bx, by = np.broadcast_arrays(x, y)
        xs.append(bx.ravel())
        ys.append(by.ravel())
        held += bx.size
        if held >= stop:
            break
    return np.concatenate(xs), np.concatenate(ys)


# The largest modulus has 2**21 rows; its window straddles the first two,
# one chunk each at every size below, without walking all of them.
@pytest.mark.parametrize(
    "m, start, count",
    [(2, 0, 4), (7, 3, 40), (2048, 0, 1 << 15), (2048, 2048 * 2048 - 5000, 5000),
     (MAX_MODULUS, MAX_MODULUS - 1500, 3000)],
)
@pytest.mark.parametrize("chunk", ["shipped", 1, 7, "m - 1", "m", "m + 1"])
def test_grid_chunks_equal_divmod(monkeypatch, m, start, count, chunk):
    sizes = {"shipped": verification._SWEEP_CHUNK, "m - 1": m - 1, "m": m, "m + 1": m + 1}
    monkeypatch.setattr(verification, "_SWEEP_CHUNK", sizes.get(chunk, chunk))
    x, y = grid_states(m, start + count)
    if m * m == start + count:
        assert x.size == m * m
    q, r = np.divmod(np.arange(start, start + count, dtype=np.int64), m)
    np.testing.assert_array_equal(x[start : start + count], r)
    np.testing.assert_array_equal(y[start : start + count], q)


class Recorded(np.ndarray):
    """An int64 array that notes the name of every ufunc applied to it."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        Recorded.calls.append(ufunc.__name__)
        plain = lambda v: v.view(np.ndarray) if isinstance(v, Recorded) else v
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(v) for v in kwargs["out"])
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if isinstance(result, tuple):
            return tuple(r.view(Recorded) for r in result)
        return result.view(Recorded) if isinstance(result, np.ndarray) else result


@pytest.fixture
def recorded():
    Recorded.calls = []
    return Recorded.calls


def assert_reductions(recorded, m, carry, steps=1):
    """The ufuncs of ``steps`` forward and backward steps on arrays, by what they reduce.

    Each pair of steps reduces three words mod m: the forward y word and
    the backward x and y words, by a mask at a power of two and by floor
    division otherwise. Its other floor divisions take carries: the
    forward x word's quotient of a*x + b, which the carry reuses, and,
    with the carry on, the backward f(x0)'s.
    """
    masked = 3 * steps if m & (m - 1) == 0 else 0
    assert recorded.count("bitwise_and") == masked
    assert recorded.count("floor_divide") == (1 + carry + 3) * steps - masked
    assert not {"remainder", "fmod", "divmod"} & set(recorded)


@pytest.mark.parametrize(
    "params, s",
    [
        pytest.param(LcgParams(1029, 1731, 2048), 1536, id="m=2048"),
        pytest.param(LcgParams(58, 5, 1539), 700, id="m=1539"),
    ],
)
@pytest.mark.parametrize("carry", [True, False])
def test_map_steps_call_no_remainder(recorded, carry, params, s):
    cmap = _CoupledMap(params, CouplingSpec(s, carry), derive_inverse(params))
    x, y = (np.arange(0, params.m, 7, dtype=np.int64).view(Recorded) for _ in range(2))
    cmap.backward(*cmap.forward(x, y))
    assert_reductions(recorded, params.m, carry)


# m = 16 and m = 15 in chunks of 4 rows, 4 chunks; d is one above the
# derived one (9 and 6), so every state fails its round trip
@pytest.mark.parametrize(
    "params, inverse",
    [
        pytest.param(LcgParams(5, 3, 16), InverseParams(13, 10), id="m=16"),
        pytest.param(LcgParams(7, 3, 15), InverseParams(13, 7), id="m=15"),
    ],
)
@pytest.mark.parametrize("carry", [True, False])
def test_sweep_calls_no_remainder(recorded, monkeypatch, carry, params, inverse):
    arange = np.arange
    monkeypatch.setattr(np, "arange", lambda *a, **k: arange(*a, **k).view(Recorded))
    monkeypatch.setattr(verification, "_SWEEP_CHUNK", 64)
    report = roundtrip_sweep(params, CouplingSpec(2, carry), inverse)
    assert report.mismatches == params.m**2
    assert_reductions(recorded, params.m, carry, steps=4)


def sweep_reference(params, coupling, inverse):
    """The round-trip report of the plain-int reference, one state at a time in z order."""
    a, b, m, s, carry = params.a, params.b, params.m, coupling.s, coupling.carry_enabled
    mismatches, first = 0, None
    for z in range(m * m):
        y, x = divmod(z, m)
        fx, fy = reference_forward(x, y, a, b, m, s, carry)
        x0, y0, slack = reference_backward(fx, fy, a, b, m, s, carry, inverse.c, inverse.d)
        assert slack >= 0
        if (x0, y0) != (x, y):
            mismatches += 1
            first = CoupledState(x, y) if first is None else first
    return RoundTripReport(states_checked=m * m, mismatches=mismatches, first_mismatch=first)


@st.composite
def toy_sweeps(draw):
    """A map with m <= 40, the carry on or off, and true, corrupted or random (c, d)."""
    m = draw(st.integers(2, 40))
    word = st.integers(0, m - 1)
    params = LcgParams(draw(word), draw(word), m)
    coupling = CouplingSpec(draw(word), carry_enabled=draw(st.booleans()))
    inverse = InverseParams(draw(word), draw(word))
    if math.gcd(params.a, m) == 1:
        true = derive_inverse(params)
        inverse = draw(st.sampled_from([true, corrupted(true, m), inverse]))
    return params, coupling, inverse


@settings(max_examples=200, deadline=None)
@given(sweep=toy_sweeps(), chunk=st.sampled_from([1, 7, 64, verification._SWEEP_CHUNK]))
def test_grid_sweep_matches_the_reference(sweep, chunk):
    with patch.object(verification, "_SWEEP_CHUNK", chunk):
        assert roundtrip_sweep(*sweep) == sweep_reference(*sweep)


def corrupt_row_11(monkeypatch, corrupt):
    """Chunks of 2 rows of 16, and ``corrupt(y0, slack, row)`` on the backward step's output.

    ``row`` flags the states of row y = 11, the second row of the sixth
    chunk, so a check there depends on both the chunk's row offset and
    the row inside it.
    """
    backward = _CoupledMap.backward

    def backward_row_11(self, x, y):
        x0, y0, slack = backward(self, x, y)
        return (x0, *corrupt(y0, slack, y0 == 11))

    monkeypatch.setattr(_CoupledMap, "backward", backward_row_11)
    monkeypatch.setattr(verification, "_SWEEP_CHUNK", 32)


def test_first_mismatch_in_a_later_chunk(monkeypatch):
    corrupt_row_11(monkeypatch, lambda y0, slack, row: (y0 + row, slack))
    report = roundtrip_sweep(LcgParams(5, 3, 16), CouplingSpec(2))
    assert report == RoundTripReport(
        states_checked=256, mismatches=16, first_mismatch=CoupledState(0, 11)
    )


def test_slack_checked_in_every_row(monkeypatch):
    corrupt_row_11(monkeypatch, lambda y0, slack, row: (y0, np.where(row, -1, slack)))
    with pytest.raises(InvariantError, match="went negative"):
        roundtrip_sweep(LcgParams(5, 3, 16), CouplingSpec(2))
