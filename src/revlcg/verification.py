"""Desk-scale exhaustive verification of the coupled generator.

Everything here is exact: orbit periods and equidistribution from the
walked orbit itself, round-trip identity by sweeping the full state
space, full-period preconditions by trial division, and the
forward/backward/compare reproduction run of the reference program.

Each check builds the coupled map, ``generator._CoupledMap``, once from
its parameters, and that constructor is where s < m and c, d in [0, m)
are checked. The round-trip sweep runs the map's step methods, the ones
the scalar steps use, on x = 0 .. m-1 as a row and blocks of y as a
column, so numpy broadcasting computes the terms of x alone once per
column and the y terms once per state of the (y, x) grid.

The orbit walks run in lanes. An orbit of N states is cut into up to
``_LANES`` consecutive stretches of T steps; lane l starts T*l steps
along the orbit, and all lanes advance together through the unchanged
step arithmetic, elementwise on int64 arrays. Every walk here, forward
or backward with any (c, d), has a skew form: x -> p*x + u and
y -> p*y + g(x) mod m. So lane l + 1 starts at the O(log T) affine
power of (p, u) applied to x_l, and at p**T*y_l plus the y word T steps
after (x_l, 0). The forward walks have that word in closed form (with
the carry on the packed LCG z -> ((a + s*m)*z + b) mod m**2, with it
off (x, y) -> [[a, 0], [s, a]]·(x, y) + (b, 0) mod m); the backward
walk takes it from one pass of all lanes from y = 0. This is the
blocking split of L'Ecuyer et al. (2017, "Random numbers for parallel
computers"), seeded by the arbitrary-stride jump of Brown (1994,
"Random number generation with arbitrary strides"). The seeding is
never trusted: lane l must end exactly where lane l + 1 started (the
stitch check, an explicit raise), and by induction from the seed the
stitched table is the sequential walk. The lanes' states of ``_FLUSH``
consecutive steps are gathered in one small contiguous buffer and
written to the table together, so that a step does not scatter one
store per lane across the table. The period and equidistribution walks
build their orbit tables in blocks of at most ``_BLOCK`` states, so
memory does not grow with the step limit, and stop at the first block
that closes the orbit.

The reproduction keeps its whole forward table, which the comparisons
read. As long as back(i) = forw(imax - i), back(i + 1) is one backward
step from a state already in that table, so a scalar step from the seed
and an elementwise step over the table, ``_SWEEP_CHUNK`` states at a
time in forward order, tell whether any comparison fails. Only a failing
run walks its backward orbit, in stitched lanes like the forward one.

Each report states every fact once, as a ``(key, value, line)`` row
yielded in output order by its private ``_rows()``. Both renderings
read those rows: ``kv_line()`` gives a stable single-line ``key=value``
form for scripts (``as_kv()`` the same pairs as a dict, bools printed
as true/false), and ``as_text()`` a small human-readable block of the
lines. A row without a key appears only in the text, and one without a
line only in the kv form, which lets the two orders differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .congruence import (
    InverseParams,
    InvariantError,
    LcgParams,
    ParameterError,
    _require_int,
    derive_inverse,
)
from .generator import CoupledState, CouplingSpec, _CoupledMap, _require_state
from .rund import RUND, RundConstants, rund_backward_step, rund_forward_step

# Exhaustive modes enumerate m**2 states; beyond this bound the table and
# the walk stop being desk-scale.
SWEEP_MAX_M = 4096

# Orbit walks step this many lanes at once, and hold at most _BLOCK
# packed states (32 MiB of int64) of one orbit at a time. The lanes'
# states of _FLUSH consecutive steps are gathered in one contiguous
# buffer (2 MiB at 4096 lanes) before they are written to the table.
_LANES = 4096
_BLOCK = 1 << 22
_FLUSH = 64

# The round-trip sample and the reproduction's backward check step this
# many states at a time, and the sweep whole rows of the grid up to this
# many (at least one row), whatever m or the sample count is. Their dozen
# int64 temporaries take about 3 MiB: more than the 2 MiB L2 cache of one
# core of the 2-vCPU Xeon VM this was timed on (lscpu: 4 MiB over 2
# instances), yet chunks of 2**14 and 2**16 states were no faster there.
_SWEEP_CHUNK = 1 << 15


class _Report:
    """A verification result, rendered from the ``(key, value, line)`` rows of ``_rows()``."""

    def as_kv(self) -> dict:
        return {key: value for key, value, _ in self._rows() if key is not None}

    def kv_line(self) -> str:
        return " ".join(
            f"{k}={str(v).lower() if isinstance(v, bool) else v}" for k, v in self.as_kv().items()
        )

    def as_text(self) -> str:
        return "\n".join(line for _, _, line in self._rows() if line is not None)


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

    def _rows(self):
        full = self.reached_full_period
        if self.period is None:
            yield "period", "unknown", (
                f"orbit period: undetermined after {self.states_visited} steps\n"
                "(the seed never recurred; the map is not bijective or the limit is too small)"
            )
            yield "full", full, None
            return
        yield "period", self.period, f"orbit period: {self.period}"
        yield "full", full, f"full period (m**2): {'yes' if full else 'no'}"
        yield None, None, f"states visited: {self.states_visited}"


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

    def _rows(self):
        yield "covered", self.covered, f"packed values covered: {self.covered} of {self.total}"
        yield "total", self.total, None
        yield "complete", self.complete, None
        if self.first_duplicate is not None:
            yield "first_duplicate", self.first_duplicate, (
                f"first duplicated packed value: {self.first_duplicate}"
            )
        if self.first_missing is not None:
            yield "first_missing", self.first_missing, (
                f"first missing packed value: {self.first_missing}"
            )
        yield None, None, "equidistribution: " + ("exact" if self.complete else "FAILED")


@dataclass(frozen=True)
class RoundTripReport(_Report):
    """Result of checking backward(forward(state)) = state over many states."""

    states_checked: int
    mismatches: int
    first_mismatch: Optional[CoupledState]

    @property
    def passed(self) -> bool:
        return self.mismatches == 0

    def _rows(self):
        yield "states_checked", self.states_checked, f"states checked: {self.states_checked}"
        yield "mismatches", self.mismatches, f"round-trip mismatches: {self.mismatches}"
        if self.first_mismatch is not None:
            x, y = self.first_mismatch
            yield "first_mismatch_x", x, f"first mismatching state: {(x, y)}"
            yield "first_mismatch_y", y, None


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

    def _rows(self):
        for key, flag, condition in (
            ("b_coprime_m", self.b_coprime_m, "gcd(b, m) = 1"),
            (
                "a1_prime_factors",
                self.a_minus_1_divisible_by_prime_factors,
                "a - 1 divisible by every prime factor of m",
            ),
            (
                "a1_mod_4",
                self.a_minus_1_divisible_by_4_when_m_is,
                "a - 1 divisible by 4 when 4 divides m",
            ),
            ("all", self.all_satisfied, "all conditions"),
        ):
            yield key, flag, f"{condition}: {'satisfied' if flag else 'VIOLATED'}"


@dataclass(frozen=True)
class ReproductionReport(_Report):
    """Outcome of the forward/backward/compare run of the reference program."""

    comparisons: int
    mismatches: int
    first_mismatch_n: Optional[int]
    passed: bool

    def _rows(self):
        yield "comparisons", self.comparisons, f"comparisons: {self.comparisons}"
        yield "mismatches", self.mismatches, f"mismatches: {self.mismatches}"
        yield "pass", self.passed, None
        if self.first_mismatch_n is not None:
            yield "first_mismatch_n", self.first_mismatch_n, (
                f"first mismatch at n = {self.first_mismatch_n}"
            )
        yield None, None, "reproduction: " + ("pass" if self.passed else "FAIL")


def _require_sweepable(m: int, what: str, hint: str = "") -> None:
    if m > SWEEP_MAX_M:
        raise ParameterError(
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


def _power(f, n, mod):
    """f applied n times, for maps in the form of :func:`_compose`, in O(log n)."""
    acc = (1, 0, 0, 0)
    while n:
        if n & 1:
            acc = _compose(f, acc, mod)
        f = _compose(f, f, mod)
        n >>= 1
    return acc


def _lane_tail(cmap, xs, n):
    """The y words n steps of ``cmap`` after (x, 0) for x in xs, in closed form.

    With the carry on, the map is the packed LCG z -> (a + s*m)*z + b
    mod m**2; with it off, it is (x, y) -> (a*x + b, s*x + a*y) mod m.
    """
    m = cmap.m
    if cmap.carry:
        p, _, u, _ = _power((cmap.a + cmap.s * m, 0, cmap.b, 0), n, m * m)
        return [(p * x + u) % (m * m) // m for x in xs]
    _, q, _, v = _power((cmap.a, cmap.s, cmap.b, 0), n, m)
    return [(q * x + v) % m for x in xs]


def _tail_walk(step, xs, n):
    """The y words n steps of ``step`` after (x, 0) for x in xs, walked in lanes."""
    x, y = np.array(xs, dtype=np.int64), np.zeros(len(xs), dtype=np.int64)
    for _ in range(n):
        x, y = step(x, y)
    return y.tolist()


def _orbit_table(m, x, y, count, step, p, u, tail=None):
    """Packed states after 1 .. count steps of ``step`` from (x, y), walked in stitched lanes.

    ``step`` has the skew form x -> p*x + u, y -> p*y + g(x) mod m.
    ``tail(xs, T)`` gives the y words T steps after (x, 0) for x in xs;
    without it, :func:`_tail_walk` walks them. Each lane must end exactly
    where the next one started, or :class:`InvariantError` is raised.
    """
    span = -(-count // _LANES)
    lanes = -(-count // span)
    pt, _, ut, _ = _power((p, 0, u, 0), span, m)
    xs, ys = [x], [y]
    for _ in range(lanes - 1):
        xs.append((pt * xs[-1] + ut) % m)
    tails = tail(xs[:-1], span) if tail else _tail_walk(step, xs[:-1], span)
    for e in tails:
        ys.append((pt * ys[-1] + e) % m)
    sx, sy = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    # Row l is lane l, so the flattened table is in orbit order. A step
    # writes one packed state per lane, each a row apart in the table; it
    # goes into a contiguous row of `buf` instead, and every _FLUSH steps
    # the block is copied into the table as columns t0 .. t0 + n - 1.
    table = np.empty((lanes, span), dtype=np.int64)
    buf = np.empty((min(_FLUSH, span), lanes), dtype=np.int64)
    ex, ey = sx, sy
    for t0 in range(0, span, _FLUSH):
        n = min(_FLUSH, span - t0)
        for row in buf[:n]:
            ex, ey = step(ex, ey)
            np.add(ex, m * ey, out=row)
        table[:, t0 : t0 + n] = buf[:n].T
    broken = np.flatnonzero((ex[:-1] != sx[1:]) | (ey[:-1] != sy[1:]))
    if broken.size:
        lane = int(broken[0])
        raise InvariantError(
            f"orbit lanes do not stitch: lane {lane + 1} should start where lane {lane} "
            f"ends, expected ({ex[lane]}, {ey[lane]}), got ({sx[lane + 1]}, {sy[lane + 1]})"
        )
    return table.ravel()[:count]


def _orbit_blocks(cmap, x, y, limit):
    """Yield (start, z) with z[i] the packed state start + i + 1 steps after (x, y).

    Covers steps 1 .. limit in blocks of at most ``_BLOCK`` states; each
    block continues from the last state of the one before.
    """
    tail = partial(_lane_tail, cmap)
    for start in range(0, limit, _BLOCK):
        count = min(_BLOCK, limit - start)
        z = _orbit_table(cmap.m, x, y, count, cmap.forward, cmap.a, cmap.b, tail)
        yield start, z
        x, y = int(z[-1]) % cmap.m, int(z[-1]) // cmap.m


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
    x, y = _require_state(seed, params.m)
    cmap = _CoupledMap(params, coupling)
    m2 = params.m * params.m
    limit = m2 + 1 if limit is None else _require_int(limit, "limit")
    if limit < 1:
        raise ParameterError(f"limit must be positive, got {limit}")
    z0 = x + params.m * y
    for start, z in _orbit_blocks(cmap, x, y, limit):
        hits = np.flatnonzero(z == z0)
        if hits.size:
            period = start + int(hits[0]) + 1
            return OrbitReport(
                period=period,
                reached_full_period=(period == m2),
                states_visited=period,
                first_repeat_state=CoupledState(x, y),
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
    x, y = _require_state(seed, params.m)
    cmap = _CoupledMap(params, coupling)
    _require_sweepable(params.m, "equidistribution_check")
    total = params.m * params.m
    z0 = x + params.m * y
    seen = np.zeros(total, dtype=bool)
    seen[z0] = True
    for start, z in _orbit_blocks(cmap, x, y, total):
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


def _reversible(params, coupling, inverse) -> _CoupledMap:
    """The map with ``inverse``, by default the true one derived from the parameters."""
    return _CoupledMap(params, coupling, derive_inverse(params) if inverse is None else inverse)


def _grid(m):
    """[0, m)**2 in z order as (x, y) chunks: x of shape (1, m), y of (rows, 1) rows."""
    rows, x = max(1, _SWEEP_CHUNK // m), np.arange(m, dtype=np.int64).reshape(1, m)
    return ((x, x.T[r : r + rows]) for r in range(0, m, rows))


def _roundtrip(cmap, chunks) -> RoundTripReport:
    """Check backward(forward(state)) = state on the states of ``chunks``.

    Each chunk is a pair of int64 word arrays (x, y) that broadcast to
    an array of states. The first mismatch reported is the first in the
    order of the chunks and, within one, in the flat broadcast order.
    """
    states, mismatches, first = 0, 0, None
    for x, y in chunks:
        x0, y0, slack = cmap.backward(*cmap.forward(x, y))
        if int(slack.min()) < 0:
            raise InvariantError("backward offset went negative")
        bad = (x0 != x) | (y0 != y)
        count = int(np.count_nonzero(bad))
        if count and first is None:
            i = int(bad.argmax())
            first = CoupledState(*(int(w.flat[i]) for w in np.broadcast_arrays(x, y)))
        states += bad.size
        mismatches += count
    return RoundTripReport(states_checked=states, mismatches=mismatches, first_mismatch=first)


def roundtrip_sweep(
    params: LcgParams,
    coupling: CouplingSpec,
    inverse: Optional[InverseParams] = None,
) -> RoundTripReport:
    """Check backward(forward(state)) = state on every state in [0, m)**2.

    Runs the step arithmetic over the (y, x) grid of states, broadcast
    over whole rows of up to ``_SWEEP_CHUNK`` states taken in packed (z)
    order, so the first mismatch reported is the one with the smallest z.
    Pass an explicit ``inverse`` to test corrupted reversal constants;
    by default the true inverse is derived from the parameters.
    """
    # Errors are reported in the order s < m, size, c and d: the first map
    # checks only the slope, the second adds the inverse the sweep runs.
    m = _CoupledMap(params, coupling).m
    _require_sweepable(m, "roundtrip_sweep", "; use roundtrip_sample for spot checks at this size")
    cmap = _reversible(params, coupling, inverse)
    return _roundtrip(cmap, _grid(m))


def roundtrip_sample(
    params: LcgParams,
    coupling: CouplingSpec,
    samples: int = 10_000,
    inverse: Optional[InverseParams] = None,
    rng_seed: int = 0,
) -> RoundTripReport:
    """Round-trip check on a reproducible random sample of states.

    The sampled mode exists for moduli too large to enumerate. Sample i
    is (x, y), drawn in that order from ``random.Random(rng_seed)``, and
    the samples go through the same array check as the sweep, so the
    first mismatch reported is the first drawn.
    """
    samples = _require_int(samples, "sample count")
    if samples < 1:
        raise ParameterError(f"sample count must be positive, got {samples}")
    cmap = _reversible(params, coupling, inverse)
    randrange, m = random.Random(rng_seed).randrange, params.m

    def draw(count):
        words = np.fromiter((randrange(m) for _ in range(2 * count)), np.int64, 2 * count)
        return words[0::2], words[1::2]

    sizes = (min(_SWEEP_CHUNK, samples - start) for start in range(0, samples, _SWEEP_CHUNK))
    return _roundtrip(cmap, map(draw, sizes))


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

    Every field of ``constants`` is checked as the CLI checks its flags,
    by building the coupled map from them: (a, b, m) as
    :class:`LcgParams`, 0 <= s < m, and c, d in [0, m); any other value
    raises :class:`ParameterError`. :class:`RundConstants` itself
    refuses an imax other than m**2.
    """
    k = constants
    cmap = _CoupledMap(LcgParams(k.a, k.b, k.m), CouplingSpec(k.s), InverseParams(k.c, k.d))
    n = k.imax if imax is None else _require_int(imax, "imax")
    if not 1 <= n <= k.imax:
        raise ParameterError(f"imax must lie in [1, {k.imax}], got {n}")
    bx, by = _require_state((0, 0) if backward_seed is None else backward_seed, k.m)
    m, count = k.m, n - 1
    forward = partial(rund_forward_step, k=k)
    forw = _orbit_table(m, 0, 0, n, forward, k.a, k.b, partial(_lane_tail, cmap))
    # back(i) must equal forw[count - i], the state imax - i steps forward.
    # back(1) is one backward step from the seed and back(i + 1) one from
    # back(i), so every comparison passes exactly when the seed steps back
    # to forw[count - 1] and each forw[j], 0 < j < count, to forw[j - 1].
    x, y = rund_backward_step(bx, by, k)
    passed, start = count == 0 or x + m * y == forw[count - 1], 1
    while passed and start < count:
        stop = min(start + _SWEEP_CHUNK, count)
        cur = forw[start:stop]
        cy = cur // m
        x, y = rund_backward_step(cur - cy * m, cy, k)
        passed, start = bool(np.all(x + m * y == forw[start - 1 : stop - 1])), stop
    mismatches, first = 0, None
    if not passed:
        back = partial(rund_backward_step, k=k)
        bad = _orbit_table(m, bx, by, count, back, k.c, k.d) != forw[:count][::-1]
        mismatches, first = int(np.count_nonzero(bad)), int(bad.argmax()) + 1
    return ReproductionReport(
        comparisons=count,
        mismatches=mismatches,
        first_mismatch_n=first,
        passed=(mismatches == 0),
    )
