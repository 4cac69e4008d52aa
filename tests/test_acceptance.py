"""Acceptance suite: the eight headline checks, each at full scale.

Every test prints one PASS/FAIL line (run pytest with -s to see them
on success) and then asserts. All checks are exact; no tolerances.
"""

import math
import random

import numpy as np
import pytest

from revlcg import (
    RUND,
    CoupledState,
    CouplingSpec,
    InverseParams,
    LcgParams,
    RundConstants,
    derive_inverse,
    equidistribution_check,
    hull_dobell_check,
    orbit_period,
    pack_state,
    packed_oracle_step,
    paper_reproduction,
    roundtrip_sweep,
    rund_forward_step,
    unpack_state,
)

RUND_PARAMS = LcgParams(RUND.a, RUND.b, RUND.m)
RUND_COUPLING = CouplingSpec(RUND.s)
STATE_SPACE = RUND.m * RUND.m


def report(num, ok, detail):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_inverse_parameters():
    inv = derive_inverse(RUND_PARAMS)
    ok = inv == InverseParams(c=205, d=1497)
    report(1, ok, f"derived inverse (c, d) = ({inv.c}, {inv.d}), expected (205, 1497)")


def test_criterion_2_maximum_period():
    rep = orbit_period(CoupledState(0, 0), RUND_PARAMS, RUND_COUPLING)
    ok = rep.period == STATE_SPACE and rep.reached_full_period
    report(2, ok, f"(0,0)-orbit period {rep.period}, expected {STATE_SPACE}")


def test_criterion_3_paper_reproduction():
    rep = paper_reproduction()
    ok = rep.passed and rep.comparisons == STATE_SPACE - 1 and rep.mismatches == 0
    report(
        3,
        ok,
        f"forward/backward comparison: {rep.mismatches} mismatches over "
        f"{rep.comparisons} comparisons",
    )


def test_criterion_4_exhaustive_roundtrip():
    rep = roundtrip_sweep(RUND_PARAMS, RUND_COUPLING)
    ok = rep.states_checked == STATE_SPACE and rep.mismatches == 0
    report(
        4,
        ok,
        f"backward(forward(s)) = s on {rep.states_checked} states, "
        f"{rep.mismatches} mismatches",
    )


def test_criterion_5_packed_oracle_equivalence():
    # validate the packed derivation on random states before trusting it
    rng = random.Random(54_321)
    spot_ok = all(
        packed_oracle_step(z)
        == pack_state(CoupledState(*rund_forward_step(*unpack_state(z, RUND.m))), RUND.m)
        for z in (rng.randrange(STATE_SPACE) for _ in range(10_000))
    )
    z = np.arange(STATE_SPACE, dtype=np.int64)
    x1, y1 = rund_forward_step(z % RUND.m, z // RUND.m)
    exhaustive_ok = np.array_equal(packed_oracle_step(z), x1 + RUND.m * y1)
    ok = spot_ok and exhaustive_ok
    report(
        5,
        ok,
        f"packed 22-bit oracle vs listing step: spot check (10^4) "
        f"{'ok' if spot_ok else 'failed'}, exhaustive (2^22) "
        f"{'ok' if exhaustive_ok else 'failed'}",
    )


def test_criterion_6_equidistribution():
    rep = equidistribution_check(RUND_PARAMS, RUND_COUPLING, CoupledState(0, 0))
    ok = rep.complete and rep.covered == STATE_SPACE
    report(6, ok, f"packed values covered {rep.covered} of {rep.total}, each exactly once")


def test_criterion_7_toy_grid_properties():
    rng = random.Random(777)
    instances = 0
    for m in (4, 8, 16, 64):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            b, s = rng.randrange(m), rng.randrange(m)
            params = LcgParams(a, b, m)
            for carry in (True, False):
                coupling = CouplingSpec(s, carry_enabled=carry)
                instances += 1

                sweep = roundtrip_sweep(params, coupling)
                assert sweep.mismatches == 0, (m, a, b, s, carry)

                orbit = orbit_period(CoupledState(0, 0), params, coupling)
                assert orbit.period is not None and (m * m) % orbit.period == 0, (m, a, b, s, carry)

                x, steps = 0, 0
                for _ in range(m):
                    x = (a * x + b) % m
                    steps += 1
                    if x == 0:
                        break
                full_x = x == 0 and steps == m
                assert hull_dobell_check(params).all_satisfied == full_x, (m, a, b, s)
    report(
        7,
        True,
        f"{instances} toy instances: zero round-trip mismatches, period divides m**2, "
        "full-period conditions match brute force",
    )


def test_criterion_8_negative_controls():
    corrupted_d = InverseParams(RUND.c, RUND.d + 1)
    sweep = roundtrip_sweep(RUND_PARAMS, RUND_COUPLING, inverse=corrupted_d)
    d_detected = sweep.mismatches == sweep.states_checked == STATE_SPACE

    rep = paper_reproduction(RundConstants(c=204))
    # the counts of the sequential forward/backward/compare run
    c_detected = (not rep.passed) and (rep.mismatches, rep.first_mismatch_n) == (STATE_SPACE - 2, 1)
    ok = d_detected and c_detected
    report(
        8,
        ok,
        f"corrupted d: {sweep.mismatches}/{sweep.states_checked} states mismatch; "
        f"corrupted c: reproduction fails at n = {rep.first_mismatch_n}",
    )
