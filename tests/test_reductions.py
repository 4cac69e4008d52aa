"""The array reductions v - (v // m)*m against ``%`` on plain ints.

The coupled map's steps and ``verification._states`` reduce int64 arrays
by floor division, which numpy runs as a multiply by a precomputed
reciprocal; ``%`` would run ``np.remainder``, a divide per element.
These tests hold the arrays to a ``%``-based reference on Python ints,
exhaustively on toy grids and at the largest modulus, and check that
``np.remainder`` is not called on the array paths.
"""

import math
import random

import numpy as np
import pytest

from revlcg import MAX_MODULUS, CouplingSpec, InverseParams, LcgParams, derive_inverse
from revlcg.generator import _CoupledMap
from revlcg.verification import _states


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


@pytest.mark.parametrize("carry", [True, False])
def test_largest_modulus_stays_inside_int64(carry):
    # a = b = s = c = d = m - 1 and words at both ends: the largest
    # products the map can form, c*slack near m**3, just below 2**63.
    m, top = MAX_MODULUS, MAX_MODULUS - 1
    ends = [0, 1, top - 1, top]
    x, y = (np.array(w, dtype=np.int64) for w in zip(*[(u, v) for u in ends for v in ends]))
    params = LcgParams(top, top, m)
    for inverse in (derive_inverse(params), InverseParams(top, top)):
        check_against_reference(_CoupledMap(params, CouplingSpec(top, carry), inverse), x, y)


@pytest.mark.parametrize(
    "m, start, count",
    [(2, 0, 4), (7, 3, 40), (2048, 0, 1 << 15), (2048, 2048 * 2048 - 5000, 5000),
     (MAX_MODULUS, MAX_MODULUS**2 - 3000, 3000)],
)
def test_states_equal_divmod(m, start, count):
    x, y = _states(m, start, count)
    q, r = np.divmod(np.arange(start, start + count, dtype=np.int64), m)
    assert x.dtype == y.dtype == np.int64
    np.testing.assert_array_equal(x, r)
    np.testing.assert_array_equal(y, q)


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


@pytest.mark.parametrize("carry", [True, False])
def test_map_steps_call_no_remainder(recorded, carry):
    params = LcgParams(1029, 1731, 2048)
    cmap = _CoupledMap(params, CouplingSpec(1536, carry), derive_inverse(params))
    x, y = (np.arange(0, 2048, 7, dtype=np.int64).view(Recorded) for _ in range(2))
    cmap.backward(*cmap.forward(x, y))
    assert "floor_divide" in recorded
    assert not {"remainder", "fmod", "divmod"} & set(recorded)


def test_states_call_no_remainder(recorded, monkeypatch):
    arange = np.arange
    monkeypatch.setattr(np, "arange", lambda *a, **k: arange(*a, **k).view(Recorded))
    _states(2048, 5, 4096)
    assert "floor_divide" in recorded
    assert not {"remainder", "fmod", "divmod"} & set(recorded)
