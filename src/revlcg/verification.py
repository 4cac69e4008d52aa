"""Desk-scale exhaustive verification of the coupled generator.

Everything here is exact: orbit periods and equidistribution from the
walked orbit itself, round-trip identity by sweeping the full state
space, full-period preconditions by trial division, and the
forward/backward/compare reproduction run of the reference program.

The sweeps evaluate the same ``_forward_words`` / ``_backward_words``
arithmetic as the scalar step functions, elementwise over packed numpy
arrays, so enumerating all m**2 states stays a sub-second operation at
the reference scale (m = 2048, 2**22 states).

The orbit walks run in lanes. An orbit of N states is cut into up to
``_LANES`` consecutive stretches of T steps; lane l starts T*l steps
along the orbit, and all lanes advance together through the unchanged
step arithmetic, elementwise on int64 arrays. The lane starts come
from an O(log T) jump: with the carry on the coupled map is the packed
LCG z -> ((a + s*m)*z + b) mod m**2, with it off the affine map
(x, y) -> [[a, 0], [s, a]]·(x, y) + (b, 0) mod m. This is the
blocking split of L'Ecuyer et al. (2017, "Random numbers for parallel
computers"), seeded by the arbitrary-stride jump of Brown (1994,
"Random number generation with arbitrary strides"). The jump is never
trusted: lane l must end exactly where lane l + 1 started (the stitch
check, an explicit raise), and by induction from the seed the stitched
table is the sequential walk. The period and equidistribution walks
build their orbit tables in blocks of at most ``_BLOCK`` states, so
memory does not grow with the step limit, and stop at the first block
that closes the orbit.

The reproduction keeps its whole forward table, which the comparisons
read, and seeds its backward lanes from it, at the states the backward
walk must reach if it retraces the forward one. When every comparison
passes, induction from the backward seed makes the lanes the
sequential backward walk; at the first mismatch the rest of the
backward walk is retraced step by step, so the mismatch count is
exactly that of the sequential run.

Each report renders two ways: ``kv_line()`` gives a stable single-line
``key=value`` form for scripts, ``as_text()`` a small human-readable
block.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .congruence import InverseParams, InvariantError, LcgParams, derive_inverse
from .generator import (
    CoupledState,
    CouplingSpec,
    _backward_words,
    _forward_words,
    _require_coupling,
    _require_state,
    backward_step,
    forward_step,
)
from .rund import RUND, RundConstants, rund_backward_step, rund_forward_step

# Exhaustive modes enumerate m**2 states; beyond this bound the table and
# the walk stop being desk-scale.
SWEEP_MAX_M = 4096

# Orbit walks step this many lanes at once, and hold at most _BLOCK
# packed states (32 MiB of int64) of one orbit at a time.
_LANES = 4096
_BLOCK = 1 << 22


def _format_kv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


class _Report:
    def as_kv(self) -> dict:
        raise NotImplementedError

    def kv_line(self) -> str:
        return " ".join(f"{k}={_format_kv(v)}" for k, v in self.as_kv().items())

    def as_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class OrbitReport(_Report):
    """Exact period of one seed's orbit, or undetermined if it never recurs."""

    period: Optional[int]
    reached_full_period: bool
    states_visited: int
    first_repeat_state: Optional[CoupledState]

    @property
    def passed(self) -> bool:
        return self.reached_full_period

    def as_kv(self) -> dict:
        return {
            "period": self.period if self.period is not None else "unknown",
            "full": self.reached_full_period,
        }

    def as_text(self) -> str:
        if self.period is None:
            return (
                f"orbit period: undetermined after {self.states_visited} steps\n"
                "(the seed never recurred; the map is not bijective or the limit is too small)"
            )
        full = "yes" if self.reached_full_period else "no"
        return (
            f"orbit period: {self.period}\n"
            f"full period (m**2): {full}\n"
            f"states visited: {self.states_visited}"
        )


@dataclass(frozen=True)
class EquidistributionReport(_Report):
    """Coverage of the packed state space over one period of a seed's orbit."""

    covered: int
    total: int
    complete: bool
    first_duplicate: Optional[int]
    first_missing: Optional[int]

    @property
    def passed(self) -> bool:
        return self.complete

    def as_kv(self) -> dict:
        kv = {"covered": self.covered, "total": self.total, "complete": self.complete}
        if self.first_duplicate is not None:
            kv["first_duplicate"] = self.first_duplicate
        if self.first_missing is not None:
            kv["first_missing"] = self.first_missing
        return kv

    def as_text(self) -> str:
        lines = [f"packed values covered: {self.covered} of {self.total}"]
        if self.first_duplicate is not None:
            lines.append(f"first duplicated packed value: {self.first_duplicate}")
        if self.first_missing is not None:
            lines.append(f"first missing packed value: {self.first_missing}")
        lines.append("equidistribution: " + ("exact" if self.complete else "FAILED"))
        return "\n".join(lines)


@dataclass(frozen=True)
class RoundTripReport(_Report):
    """Result of checking backward(forward(state)) = state over many states."""

    states_checked: int
    mismatches: int
    first_mismatch: Optional[CoupledState]

    @property
    def passed(self) -> bool:
        return self.mismatches == 0

    def as_kv(self) -> dict:
        kv = {"states_checked": self.states_checked, "mismatches": self.mismatches}
        if self.first_mismatch is not None:
            kv["first_mismatch_x"] = self.first_mismatch.x
            kv["first_mismatch_y"] = self.first_mismatch.y
        return kv

    def as_text(self) -> str:
        lines = [
            f"states checked: {self.states_checked}",
            f"round-trip mismatches: {self.mismatches}",
        ]
        if self.first_mismatch is not None:
            lines.append(f"first mismatching state: {tuple(self.first_mismatch)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class HullDobellReport(_Report):
    """The three classical full-period conditions for the x-channel recursion."""

    b_coprime_m: bool
    a_minus_1_divisible_by_prime_factors: bool
    a_minus_1_divisible_by_4_when_m_is: bool
    all_satisfied: bool

    @property
    def passed(self) -> bool:
        return self.all_satisfied

    def as_kv(self) -> dict:
        return {
            "b_coprime_m": self.b_coprime_m,
            "a1_prime_factors": self.a_minus_1_divisible_by_prime_factors,
            "a1_mod_4": self.a_minus_1_divisible_by_4_when_m_is,
            "all": self.all_satisfied,
        }

    def as_text(self) -> str:
        def mark(flag: bool) -> str:
            return "satisfied" if flag else "VIOLATED"

        return "\n".join(
            [
                f"gcd(b, m) = 1: {mark(self.b_coprime_m)}",
                f"a - 1 divisible by every prime factor of m: "
                f"{mark(self.a_minus_1_divisible_by_prime_factors)}",
                f"a - 1 divisible by 4 when 4 divides m: "
                f"{mark(self.a_minus_1_divisible_by_4_when_m_is)}",
                f"all conditions: {mark(self.all_satisfied)}",
            ]
        )


@dataclass(frozen=True)
class ReproductionReport(_Report):
    """Outcome of the forward/backward/compare run of the reference program."""

    comparisons: int
    mismatches: int
    first_mismatch_n: Optional[int]
    passed: bool

    def as_kv(self) -> dict:
        kv = {"comparisons": self.comparisons, "mismatches": self.mismatches, "pass": self.passed}
        if self.first_mismatch_n is not None:
            kv["first_mismatch_n"] = self.first_mismatch_n
        return kv

    def as_text(self) -> str:
        lines = [
            f"comparisons: {self.comparisons}",
            f"mismatches: {self.mismatches}",
        ]
        if self.first_mismatch_n is not None:
            lines.append(f"first mismatch at n = {self.first_mismatch_n}")
        lines.append("reproduction: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def _require_sweepable(m: int, what: str, hint: str = "") -> None:
    if m > SWEEP_MAX_M:
        raise ValueError(
            f"{what} enumerates m**2 = {m * m} states, too large for m > "
            f"{SWEEP_MAX_M}{hint}"
        )


def _compose(f, g, mod):
    """f after g, for maps (x, y) -> (p*x + u, q*x + p*y + v) mod ``mod``."""
    p1, q1, u1, v1 = f
    p2, q2, u2, v2 = g
    return (
        p1 * p2 % mod,
        (q1 * p2 + p1 * q2) % mod,
        (p1 * u2 + u1) % mod,
        (q1 * u2 + p1 * v2 + v1) % mod,
    )


def _lane_jump(a, b, m, s, carry, n):
    """The coupled map applied n times, as a function of (x, y), in O(log n).

    With the carry on, the map is the packed LCG z -> (a + s*m)*z + b
    mod m**2 (the y terms of the composed map stay zero); with it off,
    it is (x, y) -> (a*x + b, s*x + a*y) mod m.
    """
    f = (a + s * m, 0, b, 0) if carry else (a, s, b, 0)
    mod = m * m if carry else m
    acc = (1, 0, 0, 0)
    while n:
        if n & 1:
            acc = _compose(f, acc, mod)
        f = _compose(f, f, mod)
        n >>= 1
    p, q, u, v = acc
    if carry:

        def jump(x, y):
            z = (p * (x + m * y) + u) % mod
            return z % m, z // m

        return jump
    return lambda x, y: ((p * x + u) % m, (q * x + p * y + v) % m)


def _walk_lanes(xs, ys, span, step, m):
    """Advance every lane ``span`` steps together.

    Returns the packed states in orbit order (lane 0's states after 1 ..
    span steps, then lane 1's, ...) and the lanes' final words.
    """
    # Row l is lane l, so the flattened table is in orbit order without a
    # transposed copy.
    table = np.empty((xs.size, span), dtype=np.int64)
    for t in range(span):
        xs, ys = step(xs, ys)
        np.add(xs, m * ys, out=table[:, t])
    return table.ravel(), xs, ys


def _orbit_table(x, y, count, step, a, b, m, s, carry):
    """Packed states after 1 .. count steps from (x, y), walked in stitched lanes.

    ``step`` advances the lanes; :func:`_lane_jump` of the same map
    seeds lane l + 1 from lane l's start. The result does not rely on
    the jump: each lane must end exactly where the next one started, or
    :class:`InvariantError` is raised.
    """
    span = -(-count // _LANES)
    lanes = -(-count // span)
    jump = _lane_jump(a, b, m, s, carry, span)
    seeds = [(x, y)]
    for _ in range(lanes - 1):
        seeds.append(jump(*seeds[-1]))
    sx, sy = np.array(seeds, dtype=np.int64).T
    table, ex, ey = _walk_lanes(sx, sy, span, step, m)
    broken = np.flatnonzero((ex[:-1] != sx[1:]) | (ey[:-1] != sy[1:]))
    if broken.size:
        lane = int(broken[0])
        raise InvariantError(
            f"orbit lanes do not stitch: lane {lane + 1} should start where lane {lane} "
            f"ends, expected ({ex[lane]}, {ey[lane]}), got ({sx[lane + 1]}, {sy[lane + 1]})"
        )
    return table[:count]


def _orbit_blocks(seed, params, coupling, limit):
    """Yield (start, z) with z[i] the packed state start + i + 1 steps after the seed.

    Covers steps 1 .. limit in blocks of at most ``_BLOCK`` states; each
    block continues from the last state of the one before.
    """
    a, b, m = params.a, params.b, params.m
    s, carry = coupling.s, coupling.carry_enabled

    def step(x, y):
        return _forward_words(x, y, a, b, m, s, carry)

    x, y = seed
    for start in range(0, limit, _BLOCK):
        z = _orbit_table(x, y, min(_BLOCK, limit - start), step, a, b, m, s, carry)
        yield start, z
        x, y = int(z[-1]) % m, int(z[-1]) // m


def orbit_period(
    seed: CoupledState,
    params: LcgParams,
    coupling: CouplingSpec,
    limit: Optional[int] = None,
) -> OrbitReport:
    """Walk forward from the seed until it recurs and report the exact period.

    The coupled map is a bijection whenever gcd(a, m) = 1, so every
    orbit is a pure cycle through its seed and the first return in the
    walked orbit is the exact period; no cycle-finding machinery is
    needed. A seed that has not recurred within ``limit`` steps
    (default m**2 + 1) is reported as undetermined, which can only
    happen when the map is not bijective or the limit is below the
    true period.
    """
    _require_state(seed, params.m)
    _require_coupling(params, coupling)
    m2 = params.m * params.m
    if limit is None:
        limit = m2 + 1
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    z0 = seed.x + params.m * seed.y
    for start, z in _orbit_blocks(seed, params, coupling, limit):
        hits = np.flatnonzero(z == z0)
        if hits.size:
            period = start + int(hits[0]) + 1
            return OrbitReport(
                period=period,
                reached_full_period=(period == m2),
                states_visited=period,
                first_repeat_state=seed,
            )
    return OrbitReport(
        period=None, reached_full_period=False, states_visited=limit, first_repeat_state=None
    )


def equidistribution_check(
    params: LcgParams, coupling: CouplingSpec, seed: CoupledState
) -> EquidistributionReport:
    """Check that one period of the seed's orbit hits each packed value once.

    Marks the walked orbit in a one-flag-per-state table. A full-period
    orbit marks all m**2 entries exactly once; a shorter cycle leaves
    gaps; a non-bijective map revisits a marked state before closing,
    which is reported as a duplicate.
    """
    _require_state(seed, params.m)
    _require_coupling(params, coupling)
    _require_sweepable(params.m, "equidistribution_check")
    m = params.m
    total = m * m
    z0 = seed.x + m * seed.y
    seen = np.zeros(total, dtype=bool)
    seen[z0] = True
    for start, z in _orbit_blocks(seed, params, coupling, total):
        seen[z] = True
        covered = int(np.count_nonzero(seen))
        if covered <= start + z.size:
            break
    # The map is deterministic, so the states after 0 .. covered - 1 steps
    # are distinct and the state after `covered` steps is the first repeat;
    # with total + 1 states in total slots that happens by step total.
    repeat = int(z[covered - start - 1])
    return EquidistributionReport(
        covered=covered,
        total=total,
        complete=(covered == total),
        first_duplicate=None if repeat == z0 else repeat,
        first_missing=int(np.argmin(seen)) if covered < total else None,
    )


def roundtrip_sweep(
    params: LcgParams,
    coupling: CouplingSpec,
    inverse: Optional[InverseParams] = None,
) -> RoundTripReport:
    """Check backward(forward(state)) = state on every state in [0, m)**2.

    Runs the step arithmetic elementwise over the packed state space.
    Pass an explicit ``inverse`` to test corrupted reversal constants;
    by default the true inverse is derived from the parameters.
    """
    _require_coupling(params, coupling)
    _require_sweepable(
        params.m, "roundtrip_sweep", "; use roundtrip_sample for spot checks at this size"
    )
    if inverse is None:
        inverse = derive_inverse(params)
    a, b, m = params.a, params.b, params.m
    s, carry = coupling.s, coupling.carry_enabled
    m2 = m * m
    z = np.arange(m2, dtype=np.int64)
    x = z % m
    y = z // m
    x1, y1 = _forward_words(x, y, a, b, m, s, carry)
    x0, y0, slack = _backward_words(x1, y1, a, b, m, inverse.c, inverse.d, s, carry, m2)
    if int(slack.min()) < 0:
        raise InvariantError("backward offset went negative")
    bad = (x0 != x) | (y0 != y)
    mismatches = int(bad.sum())
    first = None
    if mismatches:
        i = int(bad.argmax())
        first = CoupledState(int(x[i]), int(y[i]))
    return RoundTripReport(states_checked=m2, mismatches=mismatches, first_mismatch=first)


def roundtrip_sample(
    params: LcgParams,
    coupling: CouplingSpec,
    samples: int = 10_000,
    inverse: Optional[InverseParams] = None,
    rng_seed: int = 0,
) -> RoundTripReport:
    """Round-trip check on a reproducible random sample of states.

    The sampled mode exists for moduli too large to enumerate; it drives
    the public scalar step functions rather than the packed sweep.
    """
    if samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")
    _require_coupling(params, coupling)
    if inverse is None:
        inverse = derive_inverse(params)
    rng = random.Random(rng_seed)
    m = params.m
    mismatches = 0
    first = None
    for _ in range(samples):
        state = CoupledState(rng.randrange(m), rng.randrange(m))
        back = backward_step(forward_step(state, params, coupling), params, inverse, coupling)
        if back != state:
            mismatches += 1
            if first is None:
                first = state
    return RoundTripReport(states_checked=samples, mismatches=mismatches, first_mismatch=first)


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def hull_dobell_check(params: LcgParams) -> HullDobellReport:
    """Evaluate the three classical full-period conditions for the x channel.

    The x recursion attains period m for every seed exactly when b is
    coprime to m, a - 1 is divisible by every prime factor of m, and
    a - 1 is divisible by 4 whenever m is.
    """
    a, b, m = params.a, params.b, params.m
    b_ok = math.gcd(b, m) == 1
    primes_ok = all((a - 1) % p == 0 for p in _prime_factors(m))
    four_ok = (m % 4 != 0) or ((a - 1) % 4 == 0)
    return HullDobellReport(
        b_coprime_m=b_ok,
        a_minus_1_divisible_by_prime_factors=primes_ok,
        a_minus_1_divisible_by_4_when_m_is=four_ok,
        all_satisfied=b_ok and primes_ok and four_ok,
    )


def paper_reproduction(
    constants: RundConstants = RUND,
    imax: Optional[int] = None,
    backward_seed: Optional[tuple[int, int]] = None,
) -> ReproductionReport:
    """Run the reference program's forward/backward/compare experiment.

    Generates ``imax`` forward states from (0, 0) with the reference
    arithmetic, then ``imax`` backward states, and verifies that
    back(n) = forw(imax - n) for n = 1 .. imax - 1.

    The backward walk starts from (0, 0) by default, exactly as the
    reference program does. That seeding is only correct because the
    (0, 0) orbit has full period m**2, making (0, 0) also the state
    after imax forward steps; for a truncated window pass ``imax``
    together with ``backward_seed`` set to the forward endpoint.
    """
    k = constants
    n = k.imax if imax is None else imax
    if not 1 <= n <= k.m * k.m:
        raise ValueError(f"imax must lie in [1, {k.m * k.m}], got {n}")
    bx, by = (0, 0) if backward_seed is None else backward_seed
    if not (0 <= bx < k.m and 0 <= by < k.m):
        raise ValueError(f"backward seed words must lie in [0, {k.m}), got ({bx}, {by})")

    m = k.m
    forw = _orbit_table(0, 0, n, lambda x, y: rund_forward_step(x, y, k), k.a, k.b, m, k.s, True)
    count = n - 1
    # expected[i] = forw(imax - (i + 1)), the state back(i + 1) must equal.
    expected = forw[:count][::-1]
    mismatches, first = 0, None
    if count:
        # Lane 0 starts at the backward seed, lane l at back(l*span) as the
        # forward table predicts it; if every comparison passes, each lane's
        # start was checked by the lane before it.
        span = -(-count // _LANES)
        starts = expected[span - 1 : count - 1 : span]
        xs = np.concatenate(([bx], starts % m))
        ys = np.concatenate(([by], starts // m))
        back, _, _ = _walk_lanes(xs, ys, span, lambda x, y: rund_backward_step(x, y, k), m)
        equal = back[:count] == expected
        if not equal.all():
            first = int(np.argmin(equal)) + 1
            mismatches = _retrace_mismatches(k, back, first, (bx, by), expected)
    return ReproductionReport(
        comparisons=count,
        mismatches=mismatches,
        first_mismatch_n=first,
        passed=(mismatches == 0),
    )


def _retrace_mismatches(k, back, first, backward_seed, expected):
    """Mismatches of back(first) .. back(imax - 1), walked one step at a time.

    The lanes after the first mismatch started from forward states the
    backward walk never reached, so only the walk up to back(first - 1)
    is known; the rest is retraced sequentially from there.
    """
    m = k.m
    if first == 1:
        x, y = backward_seed
    else:
        z = int(back[first - 2])
        x, y = z % m, z // m
    tail = array("q")
    record = tail.append
    for _ in range(expected.size - first + 1):
        x, y = rund_backward_step(x, y, k)
        record(x + m * y)
    return int(np.count_nonzero(np.frombuffer(tail, dtype=np.int64) != expected[first - 1 :]))
