import math
import random

import pytest

from revlcg import verification
from revlcg import (
    MAX_MODULUS,
    RUND,
    CoupledState,
    CouplingSpec,
    EquidistributionReport,
    HullDobellReport,
    InverseParams,
    LcgParams,
    OrbitReport,
    ParameterError,
    ReproductionReport,
    RoundTripReport,
    RundConstants,
    derive_inverse,
    equidistribution_check,
    generate_sequence,
    hull_dobell_check,
    orbit_period,
    paper_reproduction,
    reverse_sequence,
    roundtrip_sample,
    roundtrip_sweep,
)
from revlcg import backward_step, forward_step

RUND_PARAMS = LcgParams(RUND.a, RUND.b, RUND.m)
RUND_COUPLING = CouplingSpec(RUND.s)

IDENTITY_PARAMS = LcgParams(1, 0, 8)
NO_COUPLING = CouplingSpec(0, carry_enabled=False)

# x cycles through all 4 residues, y never moves
TOY_PARAMS = LcgParams(1, 1, 4)


def brute_force_x_period(params):
    # ground truth for full period: the orbit of 0 under the x recursion
    # returns to 0 at step m exactly when the period is maximal
    x, steps = 0, 0
    for _ in range(params.m):
        x = (params.a * x + params.b) % params.m
        steps += 1
        if x == 0:
            break
    return steps if x == 0 else None


class TestOrbitPeriod:
    def test_identity_period_one(self):
        rep = orbit_period(CoupledState(3, 5), IDENTITY_PARAMS, NO_COUPLING)
        assert rep.period == 1
        assert not rep.reached_full_period
        assert rep.first_repeat_state == (3, 5)

    def test_plain_pair_seed(self):
        # used to end in AttributeError: 'tuple' object has no attribute 'x'
        rep = orbit_period([3, 5], IDENTITY_PARAMS, NO_COUPLING)
        assert rep.period == 1
        assert type(rep.first_repeat_state) is CoupledState
        rep = orbit_period((0, 0), RUND_PARAMS, RUND_COUPLING, limit=3)
        assert (rep.period, rep.states_visited) == (None, 3)
        assert equidistribution_check(IDENTITY_PARAMS, NO_COUPLING, (3, 5)).covered == 1

    @pytest.mark.parametrize(
        "seed", [{3, 5}, {3: 0, 5: 0}, iter((3, 5))], ids=["set", "dict", "iterator"]
    )
    def test_unordered_seed_refused(self, seed):
        # used to walk from the seed's words in hash or iteration order
        with pytest.raises(ParameterError, match="pair of words"):
            orbit_period(seed, IDENTITY_PARAMS, NO_COUPLING)
        with pytest.raises(ParameterError, match="pair of words"):
            equidistribution_check(IDENTITY_PARAMS, NO_COUPLING, seed)

    def test_toy_x_cycle(self):
        rep = orbit_period(CoupledState(0, 0), TOY_PARAMS, NO_COUPLING)
        assert rep.period == 4
        assert not rep.reached_full_period

    def test_non_bijective_map_undetermined(self):
        rep = orbit_period(CoupledState(0, 0), LcgParams(2, 1, 8), NO_COUPLING)
        assert rep.period is None
        assert not rep.reached_full_period
        assert rep.states_visited == 8 * 8 + 1
        assert rep.first_repeat_state is None

    def test_limit_below_period_undetermined(self):
        rep = orbit_period(CoupledState(0, 0), RUND_PARAMS, RUND_COUPLING, limit=100)
        assert rep.period is None
        assert rep.states_visited == 100

    def test_kv_line(self):
        rep = orbit_period(CoupledState(0, 0), TOY_PARAMS, NO_COUPLING)
        assert rep.kv_line() == "period=4 full=false"
        assert "orbit period: 4" in rep.as_text()

    def test_unbounded_walk_is_held_to_desk_scale(self):
        # Without a limit the walk may hold 4096**2 states, whatever m is.
        # At m = 8192 the packed map is z -> (1029 + 1536*8192)*z + b mod
        # 2**26: b = 4 keeps the orbit of 0 in 4Z, a cycle of exactly 2**24
        # states, b = 2 one of 2**25, and b = 1731 the full 2**26.
        seed, coupling = CoupledState(0, 0), CouplingSpec(1536)
        rep = orbit_period(seed, LcgParams(1029, 4, 8192), coupling)
        assert rep == OrbitReport(4096**2, False, 4096**2, seed)
        for b, states in ((2, 2**25), (1731, 8192**2)):
            with pytest.raises(ParameterError) as refused:
                orbit_period(seed, LcgParams(1029, b, 8192), coupling)
            assert str(refused.value) == (
                f"orbit_period walks {states} states, more than 16777216; pass limit (--limit)"
            )
        rep = orbit_period(seed, LcgParams(1029, 1731, 8192), coupling, limit=8192**2 + 1)
        assert rep == OrbitReport(8192**2, True, 8192**2, seed)

    def test_unbounded_walk_at_the_largest_modulus(self, monkeypatch):
        # the orbit's closed form decides, not m: with the carry off, a = b = 1
        # and s = 0 the orbit of (0, 0) is the x cycle of m states, walked;
        # a = 299594 with s = 0 gives (0, 0) a cycle of 4398042316801 states
        seed, m = CoupledState(0, 0), MAX_MODULUS
        rep = orbit_period(seed, LcgParams(1, 1, m), CouplingSpec(0, carry_enabled=False))
        assert rep == OrbitReport(m, False, m, seed)
        monkeypatch.setattr(verification, "_LaneWalk", None)  # a walk fails here, not in hours
        with pytest.raises(ParameterError, match="walks 4398042316801 states"):
            orbit_period(seed, LcgParams(299594, 1, m), CouplingSpec(0))


class TestEquidistribution:
    def test_identity_covers_only_seed(self):
        rep = equidistribution_check(IDENTITY_PARAMS, NO_COUPLING, CoupledState(0, 0))
        assert (rep.covered, rep.total) == (1, 64)
        assert not rep.complete
        assert rep.first_missing == 1

    def test_toy_covers_x_cycle_only(self):
        rep = equidistribution_check(TOY_PARAMS, NO_COUPLING, CoupledState(0, 0))
        assert (rep.covered, rep.total) == (4, 16)
        assert rep.first_missing == 4
        assert rep.first_duplicate is None

    def test_full_period_toy_covers_everything(self):
        rep = equidistribution_check(LcgParams(5, 3, 16), CouplingSpec(2), CoupledState(0, 0))
        assert rep.complete
        assert (rep.covered, rep.total) == (256, 256)

    def test_non_bijective_map_reports_duplicate(self):
        rep = equidistribution_check(LcgParams(2, 1, 8), NO_COUPLING, CoupledState(0, 0))
        assert rep.first_duplicate is not None
        assert not rep.complete

    def test_oversized_modulus_refused(self):
        with pytest.raises(ValueError, match="too large"):
            equidistribution_check(LcgParams(1, 0, 8192), NO_COUPLING, CoupledState(0, 0))


class TestRoundTripSweep:
    def test_identity_all_states(self):
        rep = roundtrip_sweep(IDENTITY_PARAMS, NO_COUPLING)
        assert (rep.states_checked, rep.mismatches) == (64, 0)
        assert rep.first_mismatch is None
        assert rep.passed

    def test_corrupted_increment_breaks_every_state(self):
        params = LcgParams(5, 3, 8)
        good = derive_inverse(params)
        bad = InverseParams(good.c, (good.d + 1) % 8)
        rep = roundtrip_sweep(params, CouplingSpec(2), inverse=bad)
        assert rep.mismatches == rep.states_checked == 64
        assert rep.first_mismatch == (0, 0)
        assert not rep.passed

    @pytest.mark.parametrize("chunk", [1, 7, 16, 100])
    def test_chunks_match_the_scalar_steps(self, monkeypatch, chunk):
        # With the right d for a wrong c (c*a = 9 mod 16), the states with
        # even x and even y map back and the rest do not. No corrupted
        # inverse can put a first mismatch later than z = 1, so only
        # one-state chunks put it past the first chunk; the other sizes
        # cut the 256 states unevenly.
        params, coupling = LcgParams(5, 3, 16), CouplingSpec(2)
        c = 5  # 5*5 = 25 = 9 mod 16; the true inverse is 13
        bad = InverseParams(c, (-c * params.b) % 16)
        monkeypatch.setattr(verification, "_SWEEP_CHUNK", chunk)
        rep = roundtrip_sweep(params, coupling, inverse=bad)
        wrong = [
            state
            for state in (CoupledState(z % 16, z // 16) for z in range(256))
            if backward_step(forward_step(state, params, coupling), params, bad, coupling) != state
        ]
        assert rep.states_checked == 256
        assert rep.mismatches == len(wrong) == 192
        assert rep.first_mismatch == wrong[0] == (1, 0)

    def test_oversized_modulus_refused(self):
        with pytest.raises(ValueError, match="roundtrip_sample"):
            roundtrip_sweep(LcgParams(1, 0, 8192), NO_COUPLING)

    def test_sampled_mode(self):
        rep = roundtrip_sample(RUND_PARAMS, RUND_COUPLING, samples=1_000)
        assert (rep.states_checked, rep.mismatches) == (1_000, 0)

    def test_sampled_mode_detects_corruption(self):
        bad = InverseParams(RUND.c, RUND.d + 1)
        rep = roundtrip_sample(RUND_PARAMS, RUND_COUPLING, samples=500, inverse=bad)
        assert rep.mismatches == 500


def scalar_roundtrip_sample(params, coupling, inverse, samples, rng_seed):
    # The reference: the public scalar steps on (x, y) drawn in that order.
    rng = random.Random(rng_seed)
    mismatches, first = 0, None
    for _ in range(samples):
        state = CoupledState(rng.randrange(params.m), rng.randrange(params.m))
        if backward_step(forward_step(state, params, coupling), params, inverse, coupling) != state:
            mismatches += 1
            if first is None:
                first = state
    return RoundTripReport(states_checked=samples, mismatches=mismatches, first_mismatch=first)


# (a, b, m, s) up to MAX_MODULUS, where c*slack comes within m**2 of the
# int64 limit, with the slope at its largest there.
SAMPLE_PARAMS = [
    (3, 5, 17, 16),
    (RUND.a, RUND.b, RUND.m, RUND.s),
    (999_983, 17, 1_000_003, 55),
    (MAX_MODULUS - 1, 12_345, MAX_MODULUS, MAX_MODULUS - 1),
]


def sample_inverses(params):
    true = derive_inverse(params)
    c, d, m, b = true.c, true.d, params.m, params.b
    return {
        "true": true,
        "bad d": InverseParams(c, (d + 1) % m),
        "bad c": InverseParams((c + 1) % m, (-(c + 1) * b) % m),
    }


class TestRoundTripSampleAgainstScalarSteps:
    @pytest.mark.parametrize("chunk", [7, verification._SWEEP_CHUNK])
    @pytest.mark.parametrize("kind", ["true", "bad d", "bad c"])
    @pytest.mark.parametrize("carry", [True, False], ids=["carry", "no-carry"])
    @pytest.mark.parametrize("a, b, m, s", SAMPLE_PARAMS)
    def test_matches_the_scalar_loop(self, monkeypatch, a, b, m, s, carry, kind, chunk):
        params, coupling = LcgParams(a, b, m), CouplingSpec(s, carry_enabled=carry)
        inverse = sample_inverses(params)[kind]
        monkeypatch.setattr(verification, "_SWEEP_CHUNK", chunk)
        got = roundtrip_sample(params, coupling, samples=300, inverse=inverse, rng_seed=m)
        assert got == scalar_roundtrip_sample(params, coupling, inverse, 300, m)
        assert got.passed == (kind == "true")


BAD_INVERSES = [(2048, 1497), (-1, 1497), (10**20, 1497), (205, 2048), (205, -1), (205, 10**20)]


class TestInverseRange:
    """Inverse constants meet int64 arrays; outside [0, m) they are refused."""

    @pytest.mark.parametrize("c, d", BAD_INVERSES)
    def test_roundtrip_sweep(self, c, d):
        with pytest.raises(ParameterError, match=r"must lie in \[0, 2048\)"):
            roundtrip_sweep(RUND_PARAMS, RUND_COUPLING, inverse=InverseParams(c, d))

    @pytest.mark.parametrize("c, d", BAD_INVERSES)
    def test_roundtrip_sample(self, c, d):
        with pytest.raises(ParameterError, match=r"must lie in \[0, 2048\)"):
            roundtrip_sample(RUND_PARAMS, RUND_COUPLING, samples=10, inverse=InverseParams(c, d))

    @pytest.mark.parametrize("c, d", BAD_INVERSES)
    def test_paper_reproduction(self, c, d):
        with pytest.raises(ParameterError, match=r"must lie in \[0, 2048\)"):
            paper_reproduction(RundConstants(c=c, d=d), imax=10)


class TestIntegerCounts:
    # each used to fail with a bare TypeError
    def test_orbit_limit(self):
        with pytest.raises(ParameterError, match="limit must be an integer"):
            orbit_period(CoupledState(0, 0), RUND_PARAMS, RUND_COUPLING, limit=2.5)

    def test_sample_count(self):
        with pytest.raises(ParameterError, match="sample count must be an integer"):
            roundtrip_sample(RUND_PARAMS, RUND_COUPLING, samples=2.5)

    # None would seed from OS entropy: a sample no run could reproduce
    @pytest.mark.parametrize("rng_seed", [None, True, 1.5, "abc", [1]])
    def test_sample_seed(self, rng_seed):
        with pytest.raises(ParameterError, match="rng seed must be an integer"):
            roundtrip_sample(RUND_PARAMS, RUND_COUPLING, samples=10, rng_seed=rng_seed)

    def test_reproduction_window(self):
        with pytest.raises(ParameterError, match="imax must be an integer"):
            paper_reproduction(imax=2.5)

    def test_orbit_limit_must_be_positive(self):
        with pytest.raises(ParameterError, match=r"^limit must be positive, got 0$"):
            orbit_period(CoupledState(0, 0), RUND_PARAMS, RUND_COUPLING, limit=0)

    def test_sample_count_must_be_positive(self):
        with pytest.raises(ParameterError, match=r"^sample count must be positive, got 0$"):
            roundtrip_sample(RUND_PARAMS, RUND_COUPLING, samples=0)


class TestHullDobell:
    def test_reference_parameters_satisfy_all(self):
        rep = hull_dobell_check(RUND_PARAMS)
        assert rep.all_satisfied
        assert rep.b_coprime_m
        assert rep.a_minus_1_divisible_by_prime_factors
        assert rep.a_minus_1_divisible_by_4_when_m_is

    @pytest.mark.parametrize("m", [4, 9, 12, 2048])
    def test_unit_multiplier_satisfies_all(self, m):
        assert hull_dobell_check(LcgParams(1, 1, m)).all_satisfied

    def test_even_multiplier_fails(self):
        rep = hull_dobell_check(LcgParams(2, 1, 8))
        assert not rep.all_satisfied
        assert rep.b_coprime_m
        assert not rep.a_minus_1_divisible_by_prime_factors
        # ground truth: the x orbit of 0 never attains period 8
        assert brute_force_x_period(LcgParams(2, 1, 8)) != 8

    def test_odd_modulus_skips_the_four_condition(self):
        # m = 9: a - 1 = 3 is not divisible by 4, but 4 does not divide m,
        # so the condition holds vacuously and the period is still full
        rep = hull_dobell_check(LcgParams(4, 2, 9))
        assert rep.all_satisfied
        assert rep.a_minus_1_divisible_by_4_when_m_is
        assert (4 - 1) % 4 != 0
        assert brute_force_x_period(LcgParams(4, 2, 9)) == 9

    def test_kv_keys(self):
        line = hull_dobell_check(RUND_PARAMS).kv_line()
        assert line == "b_coprime_m=true a1_prime_factors=true a1_mod_4=true all=true"


class TestToyGridProperties:
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_grid(self, m):
        rng = random.Random(1000 + m)
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            for _ in range(2):
                b, s = rng.randrange(m), rng.randrange(m)
                params = LcgParams(a, b, m)
                for carry in (True, False):
                    coupling = CouplingSpec(s, carry_enabled=carry)
                    sweep = roundtrip_sweep(params, coupling)
                    assert sweep.mismatches == 0
                    orbit = orbit_period(CoupledState(0, 0), params, coupling)
                    assert orbit.period is not None
                    assert (m * m) % orbit.period == 0
                    hd = hull_dobell_check(params)
                    assert hd.all_satisfied == (brute_force_x_period(params) == m)
                    if orbit.reached_full_period:
                        eq = equidistribution_check(params, coupling, CoupledState(0, 0))
                        assert eq.complete


class TestPaperReproduction:
    def test_truncated_window_with_reseeded_backward(self):
        n = 1_000
        forward = generate_sequence(CoupledState(0, 0), n, RUND_PARAMS, RUND_COUPLING)
        rep = paper_reproduction(imax=n, backward_seed=tuple(forward[-1]))
        assert rep.passed
        assert rep.comparisons == n - 1
        assert rep.mismatches == 0

    def test_corrupted_multiplier_fails_early(self):
        n = 1_000
        forward = generate_sequence(CoupledState(0, 0), n, RUND_PARAMS, RUND_COUPLING)
        rep = paper_reproduction(
            RundConstants(c=204), imax=n, backward_seed=tuple(forward[-1])
        )
        assert not rep.passed
        assert rep.first_mismatch_n == 1

    def test_matches_direct_list_reversal(self):
        # same check two ways: the reference index arithmetic, and reversing
        # the forward list outright
        n = 500
        inverse = derive_inverse(RUND_PARAMS)
        forward = generate_sequence(CoupledState(0, 0), n, RUND_PARAMS, RUND_COUPLING)
        backward = reverse_sequence(forward[-1], n, RUND_PARAMS, inverse, RUND_COUPLING)
        for i in range(1, n):
            assert backward[i - 1] == forward[n - i - 1]
        assert backward[: n - 1] == forward[: n - 1][::-1]
        rep = paper_reproduction(imax=n, backward_seed=tuple(forward[-1]))
        assert rep.passed

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            paper_reproduction(imax=0)
        with pytest.raises(ValueError):
            paper_reproduction(imax=RUND.imax + 1)

    def test_invalid_backward_seed_rejected(self):
        with pytest.raises(ValueError):
            paper_reproduction(imax=10, backward_seed=(2048, 0))
        with pytest.raises(ParameterError, match="must be an integer"):
            paper_reproduction(imax=10, backward_seed=(0.5, 0))

    @pytest.mark.parametrize(
        "seed", [(1, 2, 3), 5, {1, 2}, iter((1, 2))], ids=["triple", "int", "set", "iterator"]
    )
    def test_backward_seed_must_be_a_pair(self, seed):
        # used to raise a bare ValueError and a TypeError, and to take a set
        # or an iterator in its own order
        with pytest.raises(ParameterError, match="pair of words"):
            paper_reproduction(imax=10, backward_seed=seed)

    @pytest.mark.parametrize(
        "fields",
        [
            {"a": 10**20, "c": 1, "d": 0},
            {"s": -5},
            {"s": 2048},
            {"m": 1, "c": 0, "d": 0, "imax": 1},
        ],
        ids=["huge a", "negative s", "s = m", "m = 1"],
    )
    def test_every_constant_is_checked(self, fields):
        # these used to overflow the int64 lanes, run with an invalid slope,
        # or pass with 0 comparisons
        with pytest.raises(ParameterError):
            paper_reproduction(RundConstants(**fields))

    def test_toy_constants_full_run(self):
        params = LcgParams(5, 3, 16)
        inv = derive_inverse(params)
        k = RundConstants(a=5, b=3, m=16, s=2, c=inv.c, d=inv.d, imax=256)
        rep = paper_reproduction(k)
        assert rep.passed
        assert rep.comparisons == 255

    def test_default_window_is_held_to_desk_scale(self):
        # the default window is all m**2 states; an explicit imax walks any m
        params, coupling = LcgParams(1029, 1731, 8192), CouplingSpec(1536)
        inv = derive_inverse(params)  # (2253, 7641)
        k = RundConstants(1029, 1731, 8192, 1536, inv.c, inv.d, 8192**2)
        with pytest.raises(ParameterError) as refused:
            paper_reproduction(k)
        assert str(refused.value) == (
            "paper_reproduction enumerates m**2 = 67108864 states, too large for m > 4096"
        )
        end = generate_sequence(CoupledState(0, 0), 100, params, coupling)[-1]
        rep = paper_reproduction(k, imax=100, backward_seed=tuple(end))
        assert rep == ReproductionReport(99, 0, None, True)

    def test_report_rendering(self):
        rep = paper_reproduction(imax=50, backward_seed=tuple(
            generate_sequence(CoupledState(0, 0), 50, RUND_PARAMS, RUND_COUPLING)[-1]
        ))
        assert rep.kv_line() == "comparisons=49 mismatches=0 pass=true"
        assert "reproduction: pass" in rep.as_text()


class TestReportDicts:
    """``as_kv()`` keys, order and value types for every optional-field branch."""

    @pytest.mark.parametrize(
        "report, kv",
        [
            (OrbitReport(256, True, 256, CoupledState(0, 0)), {"period": 256, "full": True}),
            (OrbitReport(None, False, 65, None), {"period": "unknown", "full": False}),
            (
                EquidistributionReport(256, 256, True, None, None),
                {"covered": 256, "total": 256, "complete": True},
            ),
            (
                EquidistributionReport(4, 16, False, None, 4),
                {"covered": 4, "total": 16, "complete": False, "first_missing": 4},
            ),
            (
                EquidistributionReport(4, 64, False, 7, 2),
                {
                    "covered": 4,
                    "total": 64,
                    "complete": False,
                    "first_duplicate": 7,
                    "first_missing": 2,
                },
            ),
            (RoundTripReport(64, 0, None), {"states_checked": 64, "mismatches": 0}),
            (
                RoundTripReport(256, 255, CoupledState(3, 1)),
                {
                    "states_checked": 256,
                    "mismatches": 255,
                    "first_mismatch_x": 3,
                    "first_mismatch_y": 1,
                },
            ),
            (
                HullDobellReport(False, True, False, False),
                {"b_coprime_m": False, "a1_prime_factors": True, "a1_mod_4": False, "all": False},
            ),
            (
                ReproductionReport(255, 0, None, True),
                {"comparisons": 255, "mismatches": 0, "pass": True},
            ),
            (
                ReproductionReport(255, 254, 1, False),
                {"comparisons": 255, "mismatches": 254, "pass": False, "first_mismatch_n": 1},
            ),
        ],
    )
    def test_as_kv(self, report, kv):
        # repr tells True from 1 and pins the key order
        assert repr(report.as_kv()) == repr(kv)
