import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revlcg import (
    MAX_MODULUS,
    RUND,
    CoupledGenerator,
    CoupledState,
    CouplingSpec,
    InverseParams,
    LcgParams,
    NotInvertibleError,
    ParameterError,
    backward_step,
    carry_coupling,
    derive_inverse,
    forward_step,
    generate_sequence,
    output_real,
    pack_state,
    real_decimal,
    reverse_sequence,
    unpack_state,
)
from revlcg.generator import _CoupledMap

RUND_PARAMS = LcgParams(RUND.a, RUND.b, RUND.m)
RUND_COUPLING = CouplingSpec(RUND.s)
RUND_INVERSE = derive_inverse(RUND_PARAMS)

IDENTITY_PARAMS = LcgParams(1, 0, 16)
NO_COUPLING = CouplingSpec(0, carry_enabled=False)
IDENTITY_INVERSE = derive_inverse(IDENTITY_PARAMS)


def coupling_oracle(x, a, b, m, s):
    # direct evaluation of f(x) = s*x + high word of a*x + b
    return s * x + (a * x + b - (a * x + b) % m) // m


class TestCarryCoupling:
    def test_zero_word(self):
        assert carry_coupling(0, RUND_PARAMS, RUND_COUPLING) == 0

    def test_increment_word(self):
        # 1536*1731 + floor(1782930 / 2048) = 2658816 + 870
        assert carry_coupling(1731, RUND_PARAMS, RUND_COUPLING) == 2_659_686

    @pytest.mark.parametrize("x", [0, 1, 97, 1024, 1731, 2047])
    def test_against_direct_formula(self, x):
        assert carry_coupling(x, RUND_PARAMS, RUND_COUPLING) == coupling_oracle(
            x, RUND.a, RUND.b, RUND.m, RUND.s
        )

    @pytest.mark.parametrize("x", [0, 5, 15])
    def test_disabled_coupling_is_zero(self, x):
        assert carry_coupling(x, IDENTITY_PARAMS, NO_COUPLING) == 0

    def test_below_m_squared_exhaustive_small(self):
        params = LcgParams(5, 3, 8)
        for s in range(8):
            for carry in (True, False):
                spec = CouplingSpec(s, carry_enabled=carry)
                assert all(carry_coupling(x, params, spec) < 64 for x in range(8))

    def test_slope_at_least_m_rejected(self):
        with pytest.raises(ValueError):
            carry_coupling(0, LcgParams(5, 3, 8), CouplingSpec(8))

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            CouplingSpec(-1)

    def test_bool_slope_rejected(self):
        with pytest.raises(ParameterError, match="bool"):
            CouplingSpec(True)

    def test_float_slope_rejected(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            CouplingSpec(1536.0)

    # CouplingSpec(1536, "no") used to mean carry on: (1, 0) stepped to (712, 1537)
    @pytest.mark.parametrize("carry", ["no", "", None, 1, 0], ids=repr)
    def test_carry_flag_must_be_a_bool(self, carry):
        with pytest.raises(ParameterError, match="carry_enabled must be True or False"):
            CouplingSpec(1536, carry)


class TestSteps:
    def test_forward_from_origin(self):
        assert forward_step(CoupledState(0, 0), RUND_PARAMS, RUND_COUPLING) == (1731, 0)

    def test_forward_second_step(self):
        assert forward_step(CoupledState(1731, 0), RUND_PARAMS, RUND_COUPLING) == (1170, 1382)

    def test_backward_undoes_first_step(self):
        assert backward_step(CoupledState(1731, 0), RUND_PARAMS, RUND_INVERSE, RUND_COUPLING) == (0, 0)

    def test_backward_undoes_second_step(self):
        got = backward_step(CoupledState(1170, 1382), RUND_PARAMS, RUND_INVERSE, RUND_COUPLING)
        assert got == (1731, 0)

    @pytest.mark.parametrize("state", [(0, 0), (3, 7), (15, 15)])
    def test_identity_generator_fixed_points(self, state):
        st_ = CoupledState(*state)
        assert forward_step(st_, IDENTITY_PARAMS, NO_COUPLING) == st_
        assert backward_step(st_, IDENTITY_PARAMS, IDENTITY_INVERSE, NO_COUPLING) == st_

    def test_roundtrip_exhaustive_small_moduli(self):
        rng = random.Random(7)
        for m in (4, 8, 16):
            for a in range(1, m, 2):
                b, s = rng.randrange(m), rng.randrange(m)
                for carry in (True, False):
                    params = LcgParams(a, b, m)
                    coupling = CouplingSpec(s, carry_enabled=carry)
                    inverse = derive_inverse(params)
                    for x in range(m):
                        for y in range(m):
                            state = CoupledState(x, y)
                            fwd = forward_step(state, params, coupling)
                            assert backward_step(fwd, params, inverse, coupling) == state
                            bwd = backward_step(state, params, inverse, coupling)
                            assert forward_step(bwd, params, coupling) == state

    def test_wrong_order_backward_is_detectably_wrong(self):
        # Evaluating the coupling at the incoming x instead of the recovered
        # one is the classic reversal bug; it must break the round trip on
        # random states.
        def wrong_backward(state, params, inverse, coupling):
            m2 = params.m * params.m
            fx = carry_coupling(state.x, params, coupling)
            x0 = (inverse.c * state.x + inverse.d) % params.m
            y0 = (inverse.c * (state.y + m2 - fx)) % params.m
            return CoupledState(x0, y0)

        rng = random.Random(20_48)
        broken = 0
        for _ in range(100):
            state = CoupledState(rng.randrange(RUND.m), rng.randrange(RUND.m))
            fwd = forward_step(state, RUND_PARAMS, RUND_COUPLING)
            if wrong_backward(fwd, RUND_PARAMS, RUND_INVERSE, RUND_COUPLING) != state:
                broken += 1
        assert broken >= 1

    def test_out_of_range_state_rejected(self):
        with pytest.raises(ValueError):
            forward_step(CoupledState(2048, 0), RUND_PARAMS, RUND_COUPLING)
        with pytest.raises(ValueError):
            backward_step(CoupledState(0, -1), RUND_PARAMS, RUND_INVERSE, RUND_COUPLING)

    @given(
        m=st.integers(2, 1 << 20),
        a=st.integers(1, 1 << 20),
        b=st.integers(0, 1 << 20),
        s=st.integers(0, 1 << 20),
        x=st.integers(0, 1 << 20),
        y=st.integers(0, 1 << 20),
        carry=st.booleans(),
    )
    @settings(max_examples=200)
    def test_roundtrip_random_params(self, m, a, b, s, x, y, carry):
        a, b, s, x, y = a % m, b % m, s % m, x % m, y % m
        if math.gcd(a, m) != 1:
            return
        params = LcgParams(a, b, m)
        coupling = CouplingSpec(s, carry_enabled=carry)
        inverse = derive_inverse(params)
        state = CoupledState(x, y)
        assert backward_step(forward_step(state, params, coupling), params, inverse, coupling) == state
        assert forward_step(backward_step(state, params, inverse, coupling), params, coupling) == state


class TestIntegerStates:
    # (1.5, 0) used to step to (1226.5, 257.0)
    @pytest.mark.parametrize(
        "state",
        [CoupledState(1.5, 0), CoupledState(0, 2.0), CoupledState(True, 0), CoupledState(0, False)],
        ids=["float x", "float y", "bool x", "bool y"],
    )
    def test_non_integer_words_rejected(self, state):
        with pytest.raises(ParameterError, match="integer|bool"):
            forward_step(state, RUND_PARAMS, RUND_COUPLING)
        with pytest.raises(ParameterError, match="integer|bool"):
            backward_step(state, RUND_PARAMS, RUND_INVERSE, RUND_COUPLING)

    def test_numpy_integer_words_accepted(self):
        np = pytest.importorskip("numpy")
        state = CoupledState(np.int64(0), np.int64(0))
        assert forward_step(state, RUND_PARAMS, RUND_COUPLING) == (1731, 0)

    def test_numpy_integer_words_give_plain_ints(self):
        # carry_coupling(np.int64(3), ...) used to return an np.int64
        np = pytest.importorskip("numpy")
        x, y = np.int64(1731), np.int64(0)
        results = [
            carry_coupling(x, RUND_PARAMS, RUND_COUPLING),
            *forward_step(CoupledState(x, y), RUND_PARAMS, RUND_COUPLING),
            *backward_step(CoupledState(x, y), RUND_PARAMS, RUND_INVERSE, RUND_COUPLING),
        ]
        assert results == [carry_coupling(1731, RUND_PARAMS, RUND_COUPLING), 1170, 1382, 0, 0]
        assert {type(v) for v in results} == {int}


class TestStateShapes:
    # a plain pair used to end in AttributeError: 'tuple' object has no attribute 'x'
    def test_plain_pairs_are_states(self):
        P, C, I = RUND_PARAMS, RUND_COUPLING, RUND_INVERSE
        assert forward_step((1, 0), P, C) == forward_step(CoupledState(1, 0), P, C)
        assert backward_step((1731, 0), P, I, C) == (0, 0)
        assert pack_state((0, 0), 16) == 0
        assert pack_state([3, 2], 16) == 35
        assert generate_sequence((0, 0), 2, P, C) == [(1731, 0), (1170, 1382)]
        assert reverse_sequence((1170, 1382), 2, P, I, C) == [(1731, 0), (0, 0)]
        gen = CoupledGenerator(P, C, seed=[0, 0])
        assert type(gen.state) is CoupledState
        assert gen.forward() == (1731, 0)

    # A set, a dict or an iterator used to be unpacked in its own order:
    # pack_state({5, 3}, 16) gave 83, the packing of (3, 5), not 53.
    @pytest.mark.parametrize(
        "state",
        [(1, 2, 3), (1,), (), 5, None, {5, 3}, frozenset({5, 3}), {5: 0, 3: 0}, iter((5, 3))],
        ids=["triple", "single", "empty", "int", "None", "set", "frozenset", "dict", "iterator"],
    )
    def test_other_shapes_refused(self, state):
        P, C, I = RUND_PARAMS, RUND_COUPLING, RUND_INVERSE
        calls = [
            lambda: forward_step(state, P, C),
            lambda: backward_step(state, P, I, C),
            lambda: pack_state(state, 16),
            lambda: output_real(state, 16),
            lambda: generate_sequence(state, 2, P, C),
            lambda: reverse_sequence(state, 2, P, I, C),
            lambda: CoupledGenerator(P, C, seed=state),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="pair of words"):
                call()


class TestInverseRange:
    # InverseParams(205 + 2048, 1497) used to be accepted by both
    @pytest.mark.parametrize(
        "inverse, word",
        [
            (InverseParams(205 + 2048, 1497), "c"),
            (InverseParams(-1843, 1497), "c"),
            (InverseParams(205, 1497 + 2048), "d"),
            (InverseParams(205, -1), "d"),
        ],
        ids=["c above", "c negative", "d above", "d negative"],
    )
    def test_backward_walks_refuse_c_or_d_outside_the_words(self, inverse, word):
        state = CoupledState(1731, 0)
        with pytest.raises(ParameterError, match=rf"^{word} must lie in \[0, 2048\)"):
            backward_step(state, RUND_PARAMS, inverse, RUND_COUPLING)
        with pytest.raises(ParameterError, match=rf"^{word} must lie in \[0, 2048\)"):
            reverse_sequence(state, 3, RUND_PARAMS, inverse, RUND_COUPLING)


@st.composite
def small_steps(draw):
    m = draw(st.integers(2, 300))
    word = st.integers(0, m - 1)
    params = LcgParams(draw(word), draw(word), m)
    coupling = CouplingSpec(draw(word), carry_enabled=draw(st.booleans()))
    return params, coupling, CoupledState(draw(word), draw(word))


class TestStepClosedForms:
    """The step against the affine maps it must equal, on small random maps."""

    @given(step=small_steps())
    @settings(max_examples=500)
    def test_forward_is_the_affine_map_and_backward_undoes_it(self, step):
        params, coupling, state = step
        a, b, m, s = params.a, params.b, params.m, coupling.s
        x, y = state
        got = forward_step(state, params, coupling)
        if coupling.carry_enabled:
            # the packed single-word LCG on z = x + m*y
            z = ((a + s * m) * (x + m * y) + b) % (m * m)
            assert got == (z % m, z // m)
        else:
            # (x, y) -> [[a, 0], [s, a]]·(x, y) + (b, 0) mod m
            assert got == ((a * x + b) % m, (s * x + a * y) % m)
        if math.gcd(a, m) == 1:
            assert backward_step(got, params, derive_inverse(params), coupling) == state


@st.composite
def invertible_maps(draw):
    m = draw(st.integers(2, MAX_MODULUS))
    word = st.integers(0, m - 1)
    params = LcgParams(draw(word.filter(lambda a: math.gcd(a, m) == 1)), draw(word), m)
    coupling = CouplingSpec(draw(word), carry_enabled=draw(st.booleans()))
    return params, coupling, CoupledState(draw(word), draw(word))


TOP = MAX_MODULUS - 1


class TestWalkKernel:
    """``_CoupledMap.walk``, which the CLI and the sequences stream from, and its closed-form
    ``jump``, against the public steps."""

    @given(walk=invertible_maps(), count=st.integers(0, 40))
    @example(walk=(RUND_PARAMS, RUND_COUPLING, CoupledState(7, 9)), count=40)
    # the largest packed product, (a + s*m)*z near m**4, past any fixed-width word
    @example(
        walk=(LcgParams(TOP, TOP, MAX_MODULUS), CouplingSpec(TOP), CoupledState(TOP, TOP)),
        count=40,
    )
    @settings(max_examples=300)
    def test_walk_matches_repeated_public_steps(self, walk, count):
        params, coupling, seed = walk
        inverse = derive_inverse(params)
        cmap = _CoupledMap(params, coupling, inverse)
        forward, backward, state, back = [], [], seed, seed
        for _ in range(count):
            state = forward_step(state, params, coupling)
            forward.append(pack_state(state, params.m))
            back = backward_step(back, params, inverse, coupling)
            backward.append(pack_state(back, params.m))
        assert cmap.walk(*seed, count) == forward
        assert cmap.walk(*seed, count, backward=True) == backward
        assert cmap.jump(*seed, count) == state


class TestOutputs:
    def test_zero_state(self):
        assert output_real(CoupledState(0, 0), 2048) == 0
        assert pack_state(CoupledState(0, 0), 2048) == 0

    def test_first_step_value(self):
        assert output_real(CoupledState(1731, 0), 2048) == Fraction(1731, 4_194_304)

    def test_maximum_state(self):
        m = 2048
        r = output_real(CoupledState(m - 1, m - 1), m)
        assert r == Fraction(m * m - 1, m * m)
        assert r < 1

    def test_decimal_rendering(self):
        assert real_decimal(CoupledState(1731, 0), 2048) == "0.00041270256042480469"

    def test_pack_is_bijection_small(self):
        m = 8
        packed = {pack_state(CoupledState(x, y), m) for x in range(m) for y in range(m)}
        assert packed == set(range(m * m))

    @given(x=st.integers(0, 2047), y=st.integers(0, 2047))
    def test_unpack_inverts_pack(self, x, y):
        state = CoupledState(x, y)
        assert unpack_state(pack_state(state, 2048), 2048) == state

    def test_unpack_range_check(self):
        with pytest.raises(ValueError):
            unpack_state(2048 * 2048, 2048)

    @pytest.mark.parametrize("m", [1, 0, -3])
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: unpack_state(0, m),
            lambda m: unpack_state(5, m),
            lambda m: pack_state(CoupledState(0, 0), m),
        ],
        ids=["unpack 0", "unpack 5", "pack"],
    )
    def test_modulus_below_two_refused(self, call, m):
        # unpack_state(5, -3) used to return CoupledState(x=-1, y=-2)
        with pytest.raises(ParameterError, match=f"modulus must be >= 2, got {m}"):
            call(m)

    @pytest.mark.parametrize(
        "z, m", [(17.5, 16), (17, 16.0), (True, 16)], ids=["float z", "float m", "bool z"]
    )
    def test_unpack_refuses_non_integers(self, z, m):
        # unpack_state(17.5, 16) used to return CoupledState(x=1.5, y=1.0)
        with pytest.raises(ParameterError, match="integer|bool"):
            unpack_state(z, m)

    @pytest.mark.parametrize("m", [16.0, True], ids=["float m", "bool m"])
    @pytest.mark.parametrize("output", [pack_state, output_real, real_decimal])
    def test_outputs_refuse_a_non_integer_modulus(self, output, m):
        # pack_state(CoupledState(1, 1), 16.0) used to return 17.0, and a
        # bool m to fail with "x must lie in [0, True)"
        with pytest.raises(ParameterError, match="modulus must be an integer"):
            output(CoupledState(1, 1), m)


class TestSequences:
    def test_empty_forward(self):
        assert generate_sequence(CoupledState(0, 0), 0, RUND_PARAMS, RUND_COUPLING) == []

    def test_empty_backward(self):
        assert reverse_sequence(CoupledState(0, 0), 0, RUND_PARAMS, RUND_INVERSE, RUND_COUPLING) == []

    def test_first_two_forward(self):
        seq = generate_sequence(CoupledState(0, 0), 2, RUND_PARAMS, RUND_COUPLING)
        assert seq == [(1731, 0), (1170, 1382)]

    def test_first_two_backward(self):
        seq = reverse_sequence(CoupledState(1170, 1382), 2, RUND_PARAMS, RUND_INVERSE, RUND_COUPLING)
        assert seq == [(1731, 0), (0, 0)]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_sequence(CoupledState(0, 0), -1, RUND_PARAMS, RUND_COUPLING)

    def test_non_integer_count_rejected(self):
        # used to fail with a bare TypeError from range
        seed = CoupledState(0, 0)
        with pytest.raises(ParameterError, match="step count must be an integer"):
            generate_sequence(seed, 2.5, RUND_PARAMS, RUND_COUPLING)
        with pytest.raises(ParameterError, match="step count must be an integer"):
            reverse_sequence(seed, 2.5, RUND_PARAMS, RUND_INVERSE, RUND_COUPLING)

    def test_matches_repeated_forward_step(self):
        rng = random.Random(11)
        seed = CoupledState(rng.randrange(RUND.m), rng.randrange(RUND.m))
        seq = generate_sequence(seed, 60, RUND_PARAMS, RUND_COUPLING)
        for k in (0, 7, 31, 59):
            state = seed
            for _ in range(k + 1):
                state = forward_step(state, RUND_PARAMS, RUND_COUPLING)
            assert seq[k] == state

    @given(
        x=st.integers(0, 2047),
        y=st.integers(0, 2047),
        n=st.integers(1, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_reverse_retraces_forward(self, x, y, n):
        seed = CoupledState(x, y)
        fwd = generate_sequence(seed, n, RUND_PARAMS, RUND_COUPLING)
        back = reverse_sequence(fwd[-1], n, RUND_PARAMS, RUND_INVERSE, RUND_COUPLING)
        assert back[: n - 1] == fwd[: n - 1][::-1]
        assert back[-1] == seed

    def test_reverse_retraces_forward_long(self):
        seed = CoupledState(123, 456)
        n = 10_000
        fwd = generate_sequence(seed, n, RUND_PARAMS, RUND_COUPLING)
        back = reverse_sequence(fwd[-1], n, RUND_PARAMS, RUND_INVERSE, RUND_COUPLING)
        assert back[: n - 1] == fwd[: n - 1][::-1]
        assert back[-1] == seed

    def test_full_period_closure(self):
        # one whole period from the origin ends back at the origin
        n = RUND.m * RUND.m
        seq = generate_sequence(CoupledState(0, 0), n, RUND_PARAMS, RUND_COUPLING)
        assert seq[-1] == (0, 0)
        assert seq[0] == (1731, 0)


class TestCollectorPause:
    """``_walk`` pauses the cyclic collector and hands it back as the caller left it."""

    @pytest.fixture(autouse=True)
    def keep_collector(self):
        collecting = gc.isenabled()
        yield
        (gc.enable if collecting else gc.disable)()

    def walk_seeing_the_collector(self, monkeypatch, fail=False):
        seen, walk = [], _CoupledMap.walk

        def spy(self, *args):
            seen.append(gc.isenabled())
            if fail:
                raise ParameterError("walk failed")
            return walk(self, *args)

        monkeypatch.setattr(_CoupledMap, "walk", spy)
        return seen

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    def test_setting_is_restored(self, monkeypatch, collecting):
        (gc.enable if collecting else gc.disable)()
        seen = self.walk_seeing_the_collector(monkeypatch)
        forward = generate_sequence(CoupledState(0, 0), 3, RUND_PARAMS, RUND_COUPLING)
        assert gc.isenabled() is collecting
        back = reverse_sequence(forward[-1], 3, RUND_PARAMS, RUND_INVERSE, RUND_COUPLING)
        assert gc.isenabled() is collecting
        assert seen == [False, False]
        assert back == [forward[1], forward[0], (0, 0)]

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    def test_setting_is_restored_after_an_error(self, monkeypatch, collecting):
        (gc.enable if collecting else gc.disable)()
        seen = self.walk_seeing_the_collector(monkeypatch, fail=True)
        with pytest.raises(ParameterError, match="^walk failed$"):
            generate_sequence(CoupledState(0, 0), 3, RUND_PARAMS, RUND_COUPLING)
        assert seen == [False]
        assert gc.isenabled() is collecting
        # the map's own refusal, raised after the pause began
        with pytest.raises(ParameterError, match="^coupling slope 16 must be below m=16"):
            generate_sequence(CoupledState(0, 0), 3, LcgParams(5, 3, 16), CouplingSpec(16))
        assert gc.isenabled() is collecting


class TestCoupledGenerator:
    def test_walk_and_retrace(self):
        gen = CoupledGenerator(RUND_PARAMS, RUND_COUPLING)
        walked = [gen.forward() for _ in range(5)]
        assert walked[0] == (1731, 0)
        retraced = [gen.backward() for _ in range(5)]
        assert retraced == walked[-2::-1] + [CoupledState(0, 0)]
        assert gen.state == (0, 0)

    def test_inverse_derived_at_construction(self):
        gen = CoupledGenerator(RUND_PARAMS, RUND_COUPLING)
        assert (gen.inverse.c, gen.inverse.d) == (205, 1497)

    def test_non_invertible_fails_fast(self):
        with pytest.raises(NotInvertibleError):
            CoupledGenerator(LcgParams(2, 1, 8), CouplingSpec(0, carry_enabled=False))

    def test_real_output_of_current_state(self):
        gen = CoupledGenerator(RUND_PARAMS, RUND_COUPLING, seed=CoupledState(1731, 0))
        assert gen.real() == Fraction(1731, 4_194_304)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            CoupledGenerator(RUND_PARAMS, RUND_COUPLING, seed=CoupledState(0, 4096))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("params", LcgParams(5, 3, 4096)),
            ("coupling", CouplingSpec(0)),
            ("inverse", InverseParams(1, 0)),
        ],
        ids=["params", "coupling", "inverse"],
    )
    def test_map_attributes_are_read_only(self, name, value):
        # Reassigning one used to be accepted and then ignored by the steps;
        # after params = LcgParams(5, 3, 4096), real() read the new m and
        # gave 1731/16777216.
        gen = CoupledGenerator(RUND_PARAMS, RUND_COUPLING)
        gen.forward()
        with pytest.raises(AttributeError):
            setattr(gen, name, value)
        built = {"params": RUND_PARAMS, "coupling": RUND_COUPLING, "inverse": RUND_INVERSE}
        assert getattr(gen, name) == built[name]
        assert gen.real() == Fraction(1731, 4_194_304)
        assert gen.forward() == (1170, 1382)
