import copy
import math
import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from revlcg import (
    MAX_MODULUS,
    CoupledState,
    CouplingSpec,
    EquidistributionReport,
    HullDobellReport,
    InverseParams,
    LcgParams,
    NotInvertibleError,
    OrbitReport,
    ParameterError,
    ReproductionReport,
    RoundTripReport,
    RundConstants,
    derive_inverse,
    ext_gcd,
    generator,
    mod_inverse,
)


class TestExtGcd:
    def test_gcd_with_zero(self):
        assert ext_gcd(0, 5) == (5, 0, 1)

    def test_reference_multiplier(self):
        g, s, _ = ext_gcd(1029, 2048)
        assert g == 1
        assert s % 2048 == 205
        # independent check of the inverse property by direct multiplication
        assert (1029 * 205) % 2048 == 1

    def test_small_pair(self):
        g, s, t = ext_gcd(6, 4)
        assert g == 2
        assert s * 6 + t * 4 == 2
        # oracle: some small coefficient pair must reach the gcd
        assert any(
            ss * 6 + tt * 4 == 2 for ss in range(-10, 11) for tt in range(-10, 11)
        )

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            ext_gcd(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ext_gcd(-3, 5)

    @given(u=st.integers(0, 10**9), v=st.integers(0, 10**9))
    def test_bezout_identity(self, u, v):
        if u == 0 and v == 0:
            return
        g, s, t = ext_gcd(u, v)
        assert g == math.gcd(u, v)
        assert s * u + t * v == g


class TestModInverse:
    def test_reference_inverse(self):
        assert mod_inverse(1029, 2048) == 205

    @pytest.mark.parametrize("m", [2, 3, 10, 2048, MAX_MODULUS])
    def test_identity(self, m):
        assert mod_inverse(1, m) == 1

    def test_brute_force_small(self):
        # oracle: scan every residue mod 10
        expected = [x for x in range(10) if (3 * x) % 10 == 1]
        assert expected == [7]
        assert mod_inverse(3, 10) == 7

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError) as exc_info:
            mod_inverse(2, 4)
        assert exc_info.value.gcd == 2

    def test_not_invertible_is_value_error(self):
        assert issubclass(NotInvertibleError, ValueError)

    def test_not_invertible_is_a_parameter_error(self):
        assert issubclass(NotInvertibleError, ParameterError)
        assert issubclass(ParameterError, ValueError)

    def test_modulus_too_small(self):
        with pytest.raises(ValueError):
            mod_inverse(1, 1)

    @given(a=st.integers(1, 10**6), m=st.integers(2, 10**6))
    def test_inverse_property(self, a, m):
        if math.gcd(a, m) != 1:
            with pytest.raises(NotInvertibleError):
                mod_inverse(a, m)
        else:
            c = mod_inverse(a, m)
            assert 0 <= c < m
            assert (a * c) % m == 1


class TestDeriveInverse:
    def test_reference_constants(self):
        inv = derive_inverse(LcgParams(1029, 1731, 2048))
        assert inv == InverseParams(c=205, d=1497)

    def test_increment_reduces_the_negative_product(self):
        # d = -c*b = -205 * 1731 = -354855, reduced to [0, 2048)
        assert derive_inverse(LcgParams(1029, 1731, 2048)).d == (-205 * 1731) % 2048 == 1497

    @pytest.mark.parametrize("m", [2, 5, 16, 2048])
    def test_identity_map(self, m):
        assert derive_inverse(LcgParams(1, 0, m)) == InverseParams(1, 0)

    def test_small_brute_force(self):
        # oracle: the unique (c, d) undoing x -> 5x + 3 mod 8 on all residues
        found = [
            (c, d)
            for c in range(8)
            for d in range(8)
            if all((c * ((5 * x + 3) % 8) + d) % 8 == x for x in range(8))
        ]
        assert found == [(5, 1)]
        assert derive_inverse(LcgParams(5, 3, 8)) == InverseParams(5, 1)

    def test_propagates_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            derive_inverse(LcgParams(2, 1, 8))

    @given(
        m=st.integers(2, MAX_MODULUS),
        a=st.integers(1, MAX_MODULUS),
        b=st.integers(0, MAX_MODULUS),
    )
    def test_three_congruences(self, m, a, b):
        a %= m
        b %= m
        if math.gcd(a, m) != 1:
            return
        inv = derive_inverse(LcgParams(a, b, m))
        assert 0 <= inv.c < m and 0 <= inv.d < m
        assert (a * inv.c) % m == 1
        assert (inv.c * b + inv.d) % m == 0
        assert (a * inv.d + b) % m == 0

    @given(
        m=st.integers(2, MAX_MODULUS),
        a=st.integers(1, MAX_MODULUS),
        b=st.integers(0, MAX_MODULUS),
    )
    def test_inverse_is_the_affine_cores_inverse(self, m, a, b):
        # x -> a*x + b and x -> c*x + d as maps (p, q, u, v) of the core
        a, b = a % m, b % m
        assume(math.gcd(a, m) == 1)
        inv = derive_inverse(LcgParams(a, b, m))
        f, g = (a, 0, b, 0), (inv.c, 0, inv.d, 0)
        assert generator._compose(g, f, m) == generator._compose(f, g, m) == (1, 0, 0, 0)

    @pytest.mark.parametrize(
        "a,b,m",
        [
            (1029, 1731, 2048),
            (5, 3, 8),
            (1, 0, 16),
            (3, 7, 10),
            (4095, 123, 4096),
        ],
    )
    def test_single_word_roundtrip_exhaustive(self, a, b, m):
        inv = derive_inverse(LcgParams(a, b, m))
        for x in range(m):
            assert (inv.c * ((a * x + b) % m) + inv.d) % m == x


class TestLcgParams:
    @pytest.mark.parametrize(
        "a,b,m",
        [(1, 0, 1), (2, 0, 2), (0, 3, 3), (-1, 0, 8), (0, -1, 8), (1, 0, MAX_MODULUS + 1)],
    )
    def test_invalid_rejected(self, a, b, m):
        with pytest.raises(ValueError):
            LcgParams(a, b, m)

    def test_max_modulus_accepted(self):
        LcgParams(1, 0, MAX_MODULUS)

    def test_max_modulus_is_cube_bound(self):
        # the guard exists so every backward product stays in 64-bit range
        assert MAX_MODULUS**3 <= 2**63 - 1
        assert (MAX_MODULUS + 1) ** 3 > 2**63 - 1


class TestIntegerParameters:
    @pytest.mark.parametrize(
        "a, b, m",
        [(1029.0, 1731, 2048), (1029, 1731.0, 2048), (1029, 1731, 2048.0)],
        ids=["float a", "float b", "float m"],
    )
    def test_float_rejected(self, a, b, m):
        # 1029.0 used to derive c=205.0, d=1497.0
        with pytest.raises(ParameterError, match="must be an integer"):
            LcgParams(a, b, m)

    @pytest.mark.parametrize(
        "a, b, m", [(True, 0, 2), (1, False, 2)], ids=["bool a", "bool b"]
    )
    def test_bool_rejected(self, a, b, m):
        with pytest.raises(ParameterError, match="bool"):
            LcgParams(a, b, m)

    def test_numpy_integers_stored_as_int(self):
        np = pytest.importorskip("numpy")
        params = LcgParams(np.int64(1029), np.int32(1731), np.int64(2048))
        assert params == LcgParams(1029, 1731, 2048)
        assert {type(v) for v in (params.a, params.b, params.m)} == {int}


class TestIntegerArithmetic:
    # mod_inverse(3.0, 8) used to return 3.0, and ext_gcd(2.5, 4) floats
    @pytest.mark.parametrize(
        "call",
        [
            lambda: mod_inverse(3.0, 8),
            lambda: mod_inverse(3, 8.0),
            lambda: mod_inverse(True, 8),
            lambda: ext_gcd(2.5, 4),
            lambda: ext_gcd(4, 2.5),
            lambda: ext_gcd(4, False),
        ],
        ids=["inverse a", "inverse m", "inverse bool", "gcd u", "gcd v", "gcd bool"],
    )
    def test_non_integers_rejected(self, call):
        with pytest.raises(ParameterError, match="integer|bool"):
            call()

    def test_numpy_integers_give_plain_ints(self):
        np = pytest.importorskip("numpy")
        assert mod_inverse(np.int64(1029), np.int32(2048)) == 205
        assert type(mod_inverse(np.int64(1029), np.int32(2048))) is int
        assert {type(v) for v in ext_gcd(np.int64(1029), np.int64(2048))} == {int}


class TestIntegerInverse:
    # InverseParams(13.0, 9) used to step to floats in backward_step
    @pytest.mark.parametrize(
        "c, d", [(13.0, 9), (13, 9.0), (True, 9), (13, False)],
        ids=["float c", "float d", "bool c", "bool d"],
    )
    def test_non_integers_rejected(self, c, d):
        with pytest.raises(ParameterError, match="integer|bool"):
            InverseParams(c, d)

    def test_numpy_integers_stored_as_int(self):
        np = pytest.importorskip("numpy")
        inverse = InverseParams(np.int64(205), np.int32(1497))
        assert inverse == InverseParams(205, 1497)
        assert {type(inverse.c), type(inverse.d)} == {int}


# (record, its repr, its fields in order, a constructor call with one bad field)
RECORDS = [
    (
        LcgParams(1029, 1731, 2048),
        "LcgParams(a=1029, b=1731, m=2048)",
        {"a": 1029, "b": 1731, "m": 2048},
        lambda: LcgParams(1029, 2048, 2048),
    ),
    (
        InverseParams(205, 1497),
        "InverseParams(c=205, d=1497)",
        {"c": 205, "d": 1497},
        lambda: InverseParams(205, 1.5),
    ),
    (
        CouplingSpec(1536),
        "CouplingSpec(s=1536, carry_enabled=True)",
        {"s": 1536, "carry_enabled": True},
        lambda: CouplingSpec(-1),
    ),
    (
        RundConstants(c=204),
        "RundConstants(a=1029, b=1731, m=2048, s=1536, c=204, d=1497, imax=4194304)",
        {"a": 1029, "b": 1731, "m": 2048, "s": 1536, "c": 204, "d": 1497, "imax": 4_194_304},
        lambda: RundConstants(m=1024),
    ),
]

# (report, its repr, its fields in order), each report built by keyword;
# the reports check no field
REPORTS = [
    (kind(**fields), text, fields)
    for kind, text, fields in [
        (
            OrbitReport,
            "OrbitReport(period=256, reached_full_period=True, states_visited=256, "
            "first_repeat_state=CoupledState(x=0, y=0))",
            {
                "period": 256, "reached_full_period": True, "states_visited": 256,
                "first_repeat_state": CoupledState(0, 0),
            },
        ),
        (
            EquidistributionReport,
            "EquidistributionReport(covered=4, total=64, complete=False, first_duplicate=60, "
            "first_missing=1)",
            {
                "covered": 4, "total": 64, "complete": False, "first_duplicate": 60,
                "first_missing": 1,
            },
        ),
        (
            RoundTripReport,
            "RoundTripReport(states_checked=256, mismatches=256, "
            "first_mismatch=CoupledState(x=0, y=0))",
            {"states_checked": 256, "mismatches": 256, "first_mismatch": CoupledState(0, 0)},
        ),
        (
            HullDobellReport,
            "HullDobellReport(b_coprime_m=True, a_minus_1_divisible_by_prime_factors=False, "
            "a_minus_1_divisible_by_4_when_m_is=True, all_satisfied=False)",
            {
                "b_coprime_m": True, "a_minus_1_divisible_by_prime_factors": False,
                "a_minus_1_divisible_by_4_when_m_is": True, "all_satisfied": False,
            },
        ),
        (
            ReproductionReport,
            "ReproductionReport(comparisons=255, mismatches=254, first_mismatch_n=1, passed=False)",
            {"comparisons": 255, "mismatches": 254, "first_mismatch_n": 1, "passed": False},
        ),
    ]
]
RECORD_IDS = [type(record).__name__ for record, *_ in RECORDS]
REPORT_IDS = [type(report).__name__ for report, *_ in REPORTS]


class TestRecords:
    """The parameter records and the reports are read-only values, as frozen dataclasses are."""

    @pytest.fixture(
        params=RECORDS + [(*report, None) for report in REPORTS],
        ids=RECORD_IDS + REPORT_IDS,
    )
    def case(self, request):
        return request.param

    def test_repr(self, case):
        record, text, _, _ = case
        assert repr(record) == text

    def test_equality_only_within_the_type(self, case):
        record, _, fields, _ = case
        kind = type(record)
        assert record == kind(**fields) == kind(*fields.values())
        assert not record != kind(**fields)
        assert record != tuple(fields.values())
        subclass = type("Sub", (kind,), {"__slots__": ()})
        assert record != subclass(**fields)
        assert all(record != other for other, *_ in RECORDS + REPORTS if type(other) is not kind)

    def test_hash_is_the_field_tuple_hash(self, case):
        record, _, fields, _ = case
        assert hash(record) == hash(tuple(fields.values()))
        assert len({record, type(record)(**fields)}) == 1

    def test_fields_are_read_only(self, case):
        record, text, fields, _ = case
        name, value = next(iter(fields.items()))
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == text

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal(self, case, duplicate):
        record = case[0]
        twin = duplicate(record)
        assert type(twin) is type(record) and twin == record

    @pytest.mark.parametrize("refused", [bad for *_, bad in RECORDS], ids=RECORD_IDS)
    def test_bad_field_is_refused(self, refused):
        with pytest.raises(ParameterError):
            refused()

    @pytest.mark.parametrize("report, fields", [(r, f) for r, _, f in REPORTS], ids=REPORT_IDS)
    def test_report_takes_each_field_once(self, report, fields):
        kind, values = type(report), list(fields.values())
        first, *rest = fields
        assert kind(values[0], **{name: fields[name] for name in rest}) == report
        for call in (
            lambda: kind(**{name: fields[name] for name in rest}),  # the first field missing
            lambda: kind(*values[:-1]),  # the last field missing
            lambda: kind(**fields, extra=1),  # an unknown keyword
            lambda: kind(*values, **{first: values[0]}),  # the first field twice
            lambda: kind(*values, None),  # one value too many
        ):
            with pytest.raises(TypeError):
                call()
