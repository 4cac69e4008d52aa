import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revlcg import (
    RUND,
    CoupledState,
    CouplingSpec,
    InverseParams,
    LcgParams,
    ParameterError,
    RundConstants,
    derive_inverse,
    pack_state,
    packed_multiplier,
    packed_oracle_step,
    rund_backward_step,
    rund_forward_step,
    unpack_state,
)
from revlcg.generator import _CoupledMap
from revlcg.verification import SWEEP_MAX_M

RUND_MAP = _CoupledMap(
    LcgParams(RUND.a, RUND.b, RUND.m), CouplingSpec(RUND.s), InverseParams(RUND.c, RUND.d)
)


def all_states():
    z = np.arange(RUND.m * RUND.m, dtype=np.int64)
    return z % RUND.m, z // RUND.m, z


class TestConstants:
    def test_inverse_pair_is_derived(self):
        inv = derive_inverse(LcgParams(RUND.a, RUND.b, RUND.m))
        assert (inv.c, inv.d) == (RUND.c, RUND.d) == (205, 1497)

    def test_imax_is_state_space_size(self):
        assert RUND.imax == RUND.m * RUND.m == 4_194_304

    def test_slope_decomposition(self):
        # the reference loop splits s*x as a*x + 507*x
        assert RUND.s - RUND.a == 507

    def test_packed_multiplier_value(self):
        assert packed_multiplier() == RUND.a + RUND.s * RUND.m == 3_146_757


class TestListingSteps:
    def test_forward_trace_from_origin(self):
        assert rund_forward_step(0, 0) == (1731, 0)

    def test_forward_trace_second(self):
        assert rund_forward_step(1731, 0) == (1170, 1382)

    def test_backward_trace_first(self):
        assert rund_backward_step(1731, 0) == (0, 0)

    def test_backward_trace_second(self):
        assert rund_backward_step(1170, 1382) == (1731, 0)

    def test_backward_undoes_forward_sampled(self):
        rng = random.Random(3)
        for _ in range(2_000):
            x, y = rng.randrange(RUND.m), rng.randrange(RUND.m)
            assert rund_backward_step(*rund_forward_step(x, y)) == (x, y)


class TestPackedOracle:
    def test_origin(self):
        assert packed_oracle_step(0) == 1731
        assert unpack_state(1731, RUND.m) == (1731, 0)

    def test_second_value(self):
        assert packed_oracle_step(1731) == 2_831_506
        assert unpack_state(2_831_506, RUND.m) == (1170, 1382)

    def test_pack_unpack_roundtrip(self):
        for z in (0, 1, 2047, 2048, 4_194_303):
            assert pack_state(unpack_state(z, RUND.m), RUND.m) == z

    def test_oracle_matches_listing_on_random_states(self):
        # validate the packed derivation before the exhaustive runs rely on it
        rng = random.Random(54_321)
        for _ in range(10_000):
            z = rng.randrange(RUND.m * RUND.m)
            step = CoupledState(*rund_forward_step(*unpack_state(z, RUND.m)))
            assert packed_oracle_step(z) == pack_state(step, RUND.m)


class TestExhaustiveEquivalence:
    def test_forward_triple_agreement(self):
        # listing arithmetic, generic coupled step, and packed oracle must
        # agree on every one of the 2**22 states
        x, y, z = all_states()
        lx, ly = rund_forward_step(x, y)
        gx, gy = RUND_MAP.forward(x, y)
        oz = packed_oracle_step(z)
        assert np.array_equal(lx, gx) and np.array_equal(ly, gy)
        assert np.array_equal(oz, lx + RUND.m * ly)

    def test_backward_pair_agreement(self):
        x, y, _ = all_states()
        lx, ly = rund_backward_step(x, y)
        gx, gy, slack = RUND_MAP.backward(x, y)
        assert int(slack.min()) >= 0
        assert np.array_equal(lx, gx) and np.array_equal(ly, gy)

    def test_backward_carry_division_is_exact(self):
        # The claim in rund_backward_step's docstring: with the true (c, d),
        # (a*x0 + b - x) is a multiple of m on every state, since x is the
        # forward image of the recovered x0, and the quotient is the carry
        # of the forward step from x0.
        x, y, _ = all_states()
        x0, _ = rund_backward_step(x, y)
        numerator = RUND.a * x0 + RUND.b - x
        assert int((numerator % RUND.m).max()) == 0
        assert np.array_equal(numerator // RUND.m, (RUND.a * x0 + RUND.b) // RUND.m)
        # a corrupted c breaks the exact division
        bad_x0, _ = rund_backward_step(x, y, RundConstants(c=204))
        assert int(((RUND.a * bad_x0 + RUND.b - x) % RUND.m).max()) > 0

    def test_roundtrip_identity_everywhere(self):
        x, y, _ = all_states()
        fx, fy = rund_forward_step(x, y)
        bx, by = rund_backward_step(fx, fy)
        assert np.array_equal(bx, x) and np.array_equal(by, y)


@st.composite
def constants_and_words(draw):
    """Valid constants, with any (c, d) in [0, m), and a state (x, y); m is
    half the time a power of two, whose reductions are masks."""
    powers = [1 << k for k in range(1, SWEEP_MAX_M.bit_length())]
    m = draw(st.integers(2, SWEEP_MAX_M) | st.sampled_from(powers))
    word = st.integers(0, m - 1)
    a, b, s, c, d, x, y = (draw(word) for _ in range(7))
    return RundConstants(a, b, m, s, c, d, m * m), x, y


def remainder_backward_step(x, y, k):
    # the reference loop's backward step as written, both reductions by %
    x0 = (k.c * x + k.d) % k.m
    t = y + k.imax - k.s * x0 - (k.a * x0 + k.b - x) // k.m
    return x0, (k.c * t) % k.m


TOP = SWEEP_MAX_M - 1


class TestStepsOnDrawnConstants:
    """The equalities the reproduction's walk rests on, beyond the reference constants:
    the map's forward step is the reference one, and the backward step's floor-division
    reductions give what ``%`` gives."""

    @given(drawn=constants_and_words())
    @example(drawn=(RundConstants(m=4096, c=3, d=7, imax=4096**2), 4095, 4095))
    @example(drawn=(RundConstants(TOP, TOP, SWEEP_MAX_M, TOP, TOP, TOP, SWEEP_MAX_M**2), TOP, 0))
    @settings(max_examples=300)
    def test_forward_is_the_map_and_backward_is_the_remainder_form(self, drawn):
        k, x, y = drawn
        cmap = _CoupledMap(LcgParams(k.a, k.b, k.m), CouplingSpec(k.s))
        assert rund_forward_step(x, y, k) == cmap.forward(x, y)
        assert rund_backward_step(x, y, k) == remainder_backward_step(x, y, k)
        top = k.m - 1
        xs = np.array([0, top, 0, top, x, x], dtype=np.int64)
        ys = np.array([0, 0, top, top, y, 0], dtype=np.int64)
        for got, want in (
            (rund_forward_step(xs, ys, k), cmap.forward(xs, ys)),
            (rund_backward_step(xs, ys, k), remainder_backward_step(xs, ys, k)),
        ):
            assert all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got, want))


class TestParameterizedConstants:
    def test_default_equals_explicit(self):
        k = RundConstants()
        assert rund_forward_step(7, 9) == rund_forward_step(7, 9, k)

    def test_corrupted_inverse_breaks_backward(self):
        bad = RundConstants(c=204)
        x, y = rund_forward_step(907, 1234)
        assert rund_backward_step(x, y, bad) != (907, 1234)


class TestIntegerConstants:
    @pytest.mark.parametrize("field", ["a", "b", "m", "s", "c", "d", "imax"])
    def test_float_rejected(self, field):
        # RundConstants(c=205.0) used to keep c=205.0
        with pytest.raises(ParameterError, match="must be an integer"):
            RundConstants(**{field: float(getattr(RUND, field))})

    def test_bool_rejected(self):
        with pytest.raises(ParameterError, match="bool"):
            RundConstants(s=True)

    @pytest.mark.parametrize(
        "changes", [{"imax": 100}, {"imax": 4_194_303}, {"imax": 4_194_305}, {"m": 1024}]
    )
    def test_imax_other_than_m_squared_refused(self, changes):
        # rund_backward_step adds imax as its m**2 offset: with imax=100,
        # rund_backward_step(1731, 0) gave (0, 20), not (0, 0)
        m = changes.get("m", RUND.m)
        with pytest.raises(ParameterError, match=rf"imax must equal m\*\*2 = {m * m}, got"):
            RundConstants(**changes)

    def test_numpy_integers_stored_as_int(self):
        k = RundConstants(c=np.int64(205), imax=np.int32(4_194_304))
        assert k == RUND
        assert {type(getattr(k, f)) for f in ("a", "b", "m", "s", "c", "d", "imax")} == {int}
