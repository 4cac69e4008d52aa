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

The orbit walks run in lanes, the blocking split of L'Ecuyer et al.
(2017, "Random numbers for parallel computers"): an orbit is cut into
up to ``_LANES`` consecutive stretches of T steps, and all lanes advance
together through the unchanged step arithmetic, elementwise on int64
arrays, exact because m <= ``MAX_MODULUS`` keeps every product below
2**63. :class:`_LaneWalk` holds the detail: the skew form that every
walk has, which seeds all lanes from jumps of T steps and lets lanes on
the same x word share a grid row, and the stitch check, which trusts
neither, so a check passes only after a walk run out to its end.

Every grid these checks step broadcasts one word per row against a row
of words: a lane walk's (rows, 1) x words against its (rows, cols) y
words, the sweep's (1, m) x row against its (rows, 1) y column. When
numpy's ufunc buffer spans more than one row, as its default of 8192
elements does over the reference grids' rows of 2048, numpy copies the
broadcast operand into the buffer, which made an add of (8, 2048) and
(8, 1) words cost twice one without a broadcast. So each array check
runs with the buffer at ``_ROW_BUFFER`` = 1024 elements
(:func:`_row_buffers`), which fits in a row of the sweep at m >= 1024
and of the reference walks, and restores the caller's size when it
returns or raises. The size changes how numpy moves the words, never
the arithmetic: every result is the same at any size.

No check holds an orbit table. An orbit check walks, in one lane walk,
exactly the states its orbit's closed-form shape (:func:`_rho`) decides:
the period walk tests each step's words against the seed, the
equidistribution walk marks them in its coverage flags. A reproduction
passes on one rule: its backward seed is forw(imax), the closed-form
jump, and each forward state steps back onto the one before, forw(1)
onto (0, 0) (:func:`_retraces`). Any other run walks the derived inverse
back from forw(imax) beside the given backward walk and counts the
mismatches exactly (:func:`_mismatches`). A walk with a closed form
proves its end beside its stitch: an orbit walk ends on its first repeat
(a period walk only if it stops before its limit), the reproduction's
forward walk on forw(imax), the true walk back on forw(1); the given
backward walk, the one under test, has no closed form.

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
from bisect import bisect_left
from functools import partial, wraps
from typing import Optional

import numpy as np

from .congruence import (
    InverseParams,
    InvariantError,
    LcgParams,
    ParameterError,
    _Record,
    _require_int,
    derive_inverse,
)
from .generator import CoupledState, CouplingSpec, _CoupledMap, _mask, _require_state
from .rund import RUND, RundConstants, rund_backward_step, rund_forward_step

# The desk-scale rule: without a bound from the caller, no check walks or
# enumerates more than SWEEP_MAX_M**2 states. roundtrip_sweep,
# equidistribution_check and an unbounded paper_reproduction refuse
# m > SWEEP_MAX_M, and an unbounded orbit_period an orbit of more than
# SWEEP_MAX_M**2 states. The caller opts in to any size with orbit_period's
# limit or paper_reproduction's imax, or checks drawn states with
# roundtrip_sample's samples.
SWEEP_MAX_M = 4096

# The round-trip sample steps this many states at a time, and the sweep
# whole rows of the grid up to this many (at least one row), whatever m
# or the sample count is. A chunk's steps make ten int64 temporaries of
# its size, 2.5 MiB, where m is no power of two, and six, 1.5 MiB, where
# the reductions are masks; at most about 1.3 MiB of them are alive at
# once. The 2-vCPU Xeon VM this was timed on has 2 MiB of L2 cache per
# core (lscpu: 4 MiB over 2 instances), and chunks of 2**14 and 2**16
# states were no faster there.
_SWEEP_CHUNK = 1 << 15

# Orbit walks step up to this many lanes at once, a grid of half as many
# cells as the sweep's chunk: at m = 2048, 8 rows of 2048 lanes of 256
# steps. On the same VM, in process with the row-sized buffers, the
# reference orbit_period took a median of 11, 9 and 8 ms at 8192, 16384
# and 32768 lanes (best of 7, three runs), equidistribution_check 21, 18
# and 17 ms, and paper_reproduction 26, 19 and 17 ms. At 32768 lanes,
# four alternating 10-second runs of the benchmark's verify-reference
# read 62-64 ms a unit against 63-65 ms at 16384 (and one run of 88 ms),
# no clear gain, with 1 MiB more peak RSS.
_LANES = _SWEEP_CHUNK // 2

# numpy's ufunc buffer size in elements while an array check runs (see the
# module docstring): a multiple of 16, as numpy requires.
_ROW_BUFFER = 1024


def _row_buffers(check):
    """``check`` run with numpy's ufunc buffer size at ``_ROW_BUFFER``.

    The caller's size is restored when the check returns or raises. It is
    per thread on numpy 1.x and context-local on numpy 2.x.
    """

    @wraps(check)
    def run(*args, **kwargs):
        saved = np.setbufsize(_ROW_BUFFER)
        try:
            return check(*args, **kwargs)
        finally:
            np.setbufsize(saved)

    return run


class _Report(_Record):
    """A verification result, rendered from the ``(key, value, line)`` rows of ``_rows()``.

    A read-only record, built from its fields by position, by name or both.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = dict(zip(self._fields, values), **named)
        if len(fields) != len(values) + len(named) or fields.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes each of {', '.join(self._fields)} once")
        super().__init__(*[fields[name] for name in self._fields])

    def as_kv(self) -> dict:
        return {key: value for key, value, _ in self._rows() if key is not None}

    def kv_line(self) -> str:
        return " ".join(
            f"{k}={str(v).lower() if isinstance(v, bool) else v}" for k, v in self.as_kv().items()
        )

    def as_text(self) -> str:
        return "\n".join(line for _, _, line in self._rows() if line is not None)


class OrbitReport(_Report):
    """Exact period of one seed's orbit, or undetermined if it never recurs."""

    __slots__ = _fields = ("period", "reached_full_period", "states_visited", "first_repeat_state")

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


class EquidistributionReport(_Report):
    """Coverage of the packed state space over one period of a seed's orbit."""

    __slots__ = _fields = ("covered", "total", "complete", "first_duplicate", "first_missing")

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


class RoundTripReport(_Report):
    """Result of checking backward(forward(state)) = state over many states."""

    __slots__ = _fields = ("states_checked", "mismatches", "first_mismatch")

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


class HullDobellReport(_Report):
    """The three classical full-period conditions for the x-channel recursion."""

    __slots__ = _fields = (
        "b_coprime_m", "a_minus_1_divisible_by_prime_factors",
        "a_minus_1_divisible_by_4_when_m_is", "all_satisfied",
    )

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


class ReproductionReport(_Report):
    """Outcome of the forward/backward/compare run of the reference program."""

    __slots__ = _fields = ("comparisons", "mismatches", "first_mismatch_n", "passed")

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


def _tail_walk(step, x, y, n):
    """The words n steps of ``step`` after (x, y), walked."""
    for _ in range(n):
        x, y = step(x, y)
    return x, y


def _affine_scan(p, w0, c, m):
    """The int64 words w_0 = w0, w_{i+1} = p*w_i + c_i mod m, for the words c.

    A doubling scan: with c_{-1} = w0, after the pass with shift h, w_i is
    the sum of p**(i-1-j)*c_j over the last 2h indices j < i, so
    O(log len(c)) array passes give every word.
    """
    w, h, ph, mask = np.empty(len(c) + 1, dtype=np.int64), 1, p % m, _mask(m)
    w[0], w[1:] = w0, c
    while h < w.size:
        # w and p**h are below m, so w + ph*w < m + m**2 < 2**63
        # (m <= MAX_MODULUS < 2**21): no int64 wraps
        v = w[h:] + ph * w[:-h]
        w[h:] = v & mask if mask else v - v // m * m
        h, ph = 2 * h, ph * ph % m
    return w


def _grid_rows(xs):
    """Rows of the lane grid for the lanes' start x words, the int64 array xs.

    The number k of distinct words, when xs[l + k] = xs[l] for every lane
    l and each of the k rows, ceil(len(xs) / k) lanes long, is at least k
    long; otherwise one row per lane. The words are a first-order
    recurrence, so when they repeat, k is their smallest period.
    """
    # counted in the sorted words: np.unique without an inverse index
    # imports numpy.ma on first use, and hashes, 10x slower here
    n, k = len(xs), 1 + int(np.count_nonzero(np.diff(np.sort(xs))))
    return k if -(-n // k) >= k and (xs[k:] == xs[:-k]).all() else n


class _LaneWalk:
    """A stitched walk of the states after 1 .. count steps of ``step`` from (x, y).

    The walk is cut into ``lanes`` lanes of ``span`` = T steps; lane l
    starts at the state after l*T steps. Every walk here, forward or
    backward with any (c, d), has the skew form x -> p*x + u, which never
    reads y, and y -> p*y + g(x) mod m, which reads only x. So lane l + 1
    starts at p**T*x_l + u_T and at p**T*y_l plus the y word T steps
    after (x_l, 0), all read off ``jump(x, y, T)``, the words T steps
    after (x, y), on ints and, with y = 0, on int64 arrays:
    ``_CoupledMap.jump``, in closed form, for a forward walk; without it,
    :func:`_tail_walk` steps them T times. The x words T steps after
    x = 0 and x = 1 give p**T and u_T. Both start words are first-order
    affine recurrences over the lanes, so :func:`_affine_scan`, a
    doubling scan over int64 arrays, seeds every lane in O(log lanes)
    passes; the y words of the padding continue the same recurrence.

    The skew form also means that lanes which start on the same x word
    hold the same x word at every step and take the same y tail, so each
    distinct start word is jumped once for its tail. The start words are
    a first-order recurrence, so when they repeat the lanes sit in a grid
    of ``rows`` = k rows, one per distinct start x word
    (:func:`_grid_rows`; k = 8 at the reference size, where T = 256 and
    x has period 2048), and ``cols`` columns, lane l in row l % k and
    column l // k; the cells past the last lane are padding, lanes that
    go on past the window. Words that do not repeat, or rows that would
    be shorter than k, give one row per lane, cols = 1, through the same
    code. A row shares one x word, so the walk steps x of shape (k, 1)
    and y of shape (k, cols), and numpy broadcasting steps each row's x
    word once and each lane's y word once, as the round-trip sweep does
    over its (y, x) grid.

    Every cell of the grid is a lane, the padding too. ``start`` is the
    grid before the first step, built once in the shapes the steps take,
    the rows' x words (rows, 1) and every cell's y word (rows, cols); its
    cell of lane l holds the state after l*T steps. Iterating yields the
    grid's words (x, y) after each step t (from 0), when that cell holds
    the state after l*T + t + 1 steps, at index l*T + t of the orbit. The
    walk's window is the indices below count; the padding and the last
    lane's steps past it hold later states of the same orbit, so a check
    reads the whole grid as it is stepped, and only a check whose result
    depends on the window drops the indices at count or beyond. Neither
    the seeding nor the sharing is trusted: once the last step has been
    yielded, each cell's lane must have ended, x word and y word, exactly
    where the next one started, or :class:`InvariantError` is raised (the
    stitch check, over every cell), and by induction from the seed the
    stitched walk is the sequential one, shared x words and padding
    included. Then the end check: ``last``, the state at index count - 1
    as two ints, read off its cell as the grid is stepped, must equal
    ``end``, the state a check's closed form puts there, if it passes one,
    or :class:`InvariantError` is raised. So only a walk run out to its
    end is proven, and a check gives a passing verdict only after one.
    """

    def __init__(self, m, x, y, count, step, jump=None, end=None):
        self.count, self.span, self.end = count, -(-count // _LANES), end
        self.lanes, self._step = -(-count // self.span), step
        jump = jump or partial(_tail_walk, step)
        ut = jump(0, 0, self.span)[0]
        pt = (jump(1, 0, self.span)[0] - ut) % m
        xs = _affine_scan(pt, x, np.full(self.lanes - 1, ut), m)
        self.rows = _grid_rows(xs)
        self.cols = -(-self.lanes // self.rows)
        cells = self.rows * self.cols
        # The start of lane l + 1 takes the tail of lane l's x word, which
        # is the word of row l % rows; each distinct word is jumped once.
        xs = xs[: self.rows]
        words, inverse = np.unique(xs[: cells - 1], return_inverse=True)
        tails = jump(words, 0, self.span)[1][inverse]
        ys = _affine_scan(pt, y, np.resize(tails, cells - 1), m).reshape(self.cols, self.rows)
        self.start = xs.reshape(self.rows, 1), np.ascontiguousarray(ys.T)

    def in_lanes(self, x, y):
        """The grid's words (x, y) as two arrays in lane order, every cell, the padding included."""
        return np.broadcast_to(x, y.shape).T.ravel(), y.T.ravel()

    def __iter__(self):
        # index count - 1 = lane*T + end: the last state is lane's cell after step end
        lane, end = divmod(self.count - 1, self.span)
        col, row = divmod(lane, self.rows)
        sx, sy = ex, ey = self.start
        for t in range(self.span):
            ex, ey = self._step(ex, ey)
            if t == end:
                self.last = int(ex[row, 0]), int(ey[row, col])
            yield ex, ey
        (ex, ey), (sx, sy) = self.in_lanes(ex, ey), self.in_lanes(sx, sy)
        broken = np.flatnonzero((ex[:-1] != sx[1:]) | (ey[:-1] != sy[1:]))
        if broken.size:
            lane = int(broken[0])
            raise InvariantError(
                f"orbit lanes do not stitch: lane {lane + 1} should start where lane {lane} "
                f"ends, expected ({ex[lane]}, {ey[lane]}), got ({sx[lane + 1]}, {sy[lane + 1]})"
            )
        if self.end is not None and self.last != self.end:
            raise InvariantError(
                f"the walk of {self.count} steps from ({sx[0]}, {sy[0]}) ends at {self.last}, "
                f"the closed form at {self.end}"
            )


@_row_buffers
def orbit_period(
    seed: CoupledState,
    params: LcgParams,
    coupling: CouplingSpec,
    limit: Optional[int] = None,
) -> OrbitReport:
    """Walk forward from the seed and report the exact period of its orbit.

    The orbit's closed form (:func:`_rho`), a tail of t states onto a cycle
    of P, sizes one walk of min(t + P, limit) states, by default t + P up to
    ``SWEEP_MAX_M**2``, and more is refused. The walk is the verdict: the
    seed must first recur after P steps when t = 0 and P <= limit, and not
    at all otherwise, and a walk that stops before the limit must end on
    the state after t steps, or :class:`InvariantError` is raised. A seed
    that does not recur (no bijection, or a limit below the period) is
    undetermined after ``limit`` states (m**2 + 1 by default), not t + P.
    """
    x0, y0 = _require_state(seed, params.m)
    cmap = _CoupledMap(params, coupling)
    m2, bounded = params.m * params.m, limit is not None
    limit = _require_int(limit, "limit") if bounded else m2 + 1
    if limit < 1:
        raise ParameterError(f"limit must be positive, got {limit}")
    tail, period = _rho(cmap, x0, y0)
    count, closes = min(tail + period, limit), tail == 0 and period <= limit
    if not bounded and count > SWEEP_MAX_M**2:
        raise ParameterError(
            f"orbit_period walks {count} states, more than {SWEEP_MAX_M**2}; pass limit (--limit)"
        )
    end = cmap.jump(x0, y0, tail) if count < limit else None
    walk = _LaneWalk(params.m, x0, y0, count, cmap.forward, cmap.jump, end)
    first = count  # a recurrence at index count or past it lies past the walk
    for t, (ex, ey) in enumerate(walk):
        # x is tested on the row words, y on the cells of the rows it matched
        match = np.flatnonzero(ex[:, 0] == x0)
        if match.size:
            row, col = np.nonzero(ey[match] == y0)
            if row.size:
                first = min(first, int((col * walk.rows + match[row]).min()) * walk.span + t)
    if first != (repeat := period - 1 if closes else count):
        raise InvariantError(
            f"the seed first recurs at index {first}, the closed form {(tail, period)} at {repeat}"
        )
    return OrbitReport(
        period=period if closes else None,
        reached_full_period=closes and period == m2,
        states_visited=period if closes else limit,
        first_repeat_state=CoupledState(x0, y0) if closes else None,
    )


@_row_buffers
def equidistribution_check(
    params: LcgParams, coupling: CouplingSpec, seed: CoupledState
) -> EquidistributionReport:
    """Check that one period of the seed's orbit hits each packed value once.

    Marks the walked tail + period states of the orbit's closed form
    (:func:`_rho`) in one flag per state. A full-period orbit marks all
    m**2 flags once; a shorter cycle leaves gaps; a non-bijective map
    revisits a marked state before closing, reported as a duplicate. The
    flags are x-major, the flag of (x, y) at y + m*x, so the stores of
    one lane-grid row, which shares its x word, stay within m flags.
    """
    x, y = _require_state(seed, params.m)
    cmap = _CoupledMap(params, coupling)
    _require_sweepable(params.m, "equidistribution_check")
    m, total = params.m, params.m * params.m
    tail, period = _rho(cmap, x, y)
    seen = np.zeros(total, dtype=bool)
    seen[y + m * x] = True
    # The map is deterministic, so the states after 0 .. tail + period - 1
    # steps are distinct and the walk's last, after tail + period steps,
    # is the first repeat, the state after tail steps: the seed when tail = 0.
    end = cmap.jump(x, y, tail)
    for ex, ey in _LaneWalk(m, x, y, tail + period, cmap.forward, cmap.jump, end):
        seen[ey + m * ex] = True
    covered = int(np.count_nonzero(seen))
    if covered != tail + period:
        raise InvariantError(f"the walk covers {covered} states, the closed form {(tail, period)}")
    missing = None
    if covered < total:
        # the smallest missing z = x + m*y: the lowest y with a gap, then
        # its lowest x, read from the x-major flags without transposing them
        flags = seen.reshape(m, m)
        y = int(np.argmin(flags.all(axis=0)))
        missing = int(np.argmin(flags[:, y])) + m * y
    return EquidistributionReport(
        covered=covered,
        total=total,
        complete=(covered == total),
        first_duplicate=None if tail == 0 else end[0] + m * end[1],
        first_missing=missing,
    )


def _reversible(params, coupling, inverse) -> _CoupledMap:
    """The map with ``inverse``, by default the true one derived from the parameters."""
    return _CoupledMap(params, coupling, derive_inverse(params) if inverse is None else inverse)


def _grid(m):
    """[0, m)**2 in z order as (x, y) chunks: x of shape (1, m), y of (rows, 1) rows."""
    rows, x = max(1, _SWEEP_CHUNK // m), np.arange(m, dtype=np.int64).reshape(1, m)
    return ((x, x.T[r : r + rows]) for r in range(0, m, rows))


@_row_buffers
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
    samples, rng_seed = _require_int(samples, "sample count"), _require_int(rng_seed, "rng seed")
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


def _rho(cmap, x, y):
    """(tail, period): the orbit of (x, y) runs through tail states onto a cycle of period.

    From jumps of the map: the period is the least divisor of
    L = m**3*phi(m) that returns the state after L steps to itself, and
    the tail, bisected, the first t after which one period does.
    """
    # Why L works (Knuth, TAOCP vol. 2, 3.2.1): by CRT each prime power
    # p**e of m stands alone. Where p does not divide a the map is
    # invertible there: the order of its linear part divides phi(p**e)*p**e
    # and the translation adds a factor p**e, so every cycle length divides
    # L. Where p divides a the linear part is nilpotent, and every orbit
    # falls onto one fixed point. Every tail is below m**2 <= L, so the
    # jump of L lands on the cycle.
    m, jump, primes = cmap.m, cmap.jump, _prime_factors(cmap.m)
    phi = m // math.prod(primes) * math.prod(p - 1 for p in primes)
    period = m**3 * phi
    on = jump(x, y, period)
    for p in set(primes + _prime_factors(phi)):
        while period % p == 0 and jump(*on, period // p) == on:
            period //= p

    def on_cycle(t):
        return jump(*(state := jump(x, y, t)), period) == state

    return (0 if on_cycle(0) else bisect_left(range(m * m), True, 1, key=on_cycle)), period


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
    return HullDobellReport(b_ok, primes_ok, four_ok, b_ok and primes_ok and four_ok)


def _retraces(k, cmap, n, end):
    """Whether every state of the forward walk of n states steps back onto the one before.

    forw(j) is the state j steps of ``cmap`` after (0, 0). The one rule:
    each grid of the walk, stepped back by ``rund_backward_step`` with
    the (c, d) of ``k``, equals the grid before it, the walk's start grid
    first, so forw(j) steps back onto forw(j - 1) for every j the grid
    holds, from forw(1) onto (0, 0) to the cells past the window. True
    comes only once the walk has run out, past its stitch check and its
    end check against ``end``, the closed-form forw(n).

    The reference program compares back(i) with forw(n - i),
    i = 1 .. n - 1, where back(1) steps back from the backward seed. With
    the seed forw(n), which the caller checks, they all pass exactly when
    forw(j) steps back onto forw(j - 1) for j = 2 .. n, a part of the
    rule, so a True is a passing report. A False hands the report to the
    exact count of :func:`_mismatches`, so the rest of the rule changes no
    report. With the true (c, d) the rule always holds, since their
    backward step inverts the forward map on every state (its carry
    division is exact), so a run with them and the endpoint seed is never
    counted.
    """
    walk = _LaneWalk(k.m, 0, 0, n, cmap.forward, cmap.jump, end)
    qx, qy = walk.start
    for ex, ey in walk:
        px, py = rund_backward_step(ex, ey, k)
        if (px != qx).any() or (py != qy).any():
            return False
        qx, qy = ex, ey
    return True


def _mismatches(k, true_k, n, seed, end):
    """(mismatches, first i) of back(i) != forw(n - i), i = 1 .. n - 1, n > 1.

    back(i) is i steps of ``k`` from the backward seed, and forw(n - i) i
    steps of the true inverse ``true_k`` from ``end`` = forw(n). The two
    backward walks share their lanes but not always their grid: they meet
    in lane order, and only the true walk has an end to prove, forw(1).
    """
    count, mismatches, first = n - 1, 0, n

    def back(q, x, y, end=None):
        return _LaneWalk(q.m, x, y, count, partial(rund_backward_step, k=q), end=end)

    given, true = back(k, *seed), back(true_k, *end, rund_forward_step(0, 0, k))
    # strict=True also steps the true walk past its last step, into its end checks
    for t, ((gx, gy), (tx, ty)) in enumerate(zip(given, true, strict=True)):
        live = -(-(count - t) // given.span)  # lane l holds i = l*T + t + 1 <= count
        (gx, gy), (tx, ty) = given.in_lanes(gx, gy), true.in_lanes(tx, ty)
        bad = np.flatnonzero((gx[:live] != tx[:live]) | (gy[:live] != ty[:live]))
        if bad.size:
            mismatches, first = mismatches + bad.size, min(first, int(bad[0]) * given.span + t + 1)
    return mismatches, first if mismatches else None


@_row_buffers
def paper_reproduction(
    constants: RundConstants = RUND,
    imax: Optional[int] = None,
    backward_seed: Optional[tuple[int, int]] = None,
) -> ReproductionReport:
    """Run the reference program's forward/backward/compare experiment.

    Generates ``imax`` forward states from (0, 0), then ``imax``
    backward states with the reference arithmetic, and verifies that
    back(n) = forw(imax - n) for n = 1 .. imax - 1. The forward orbit is
    stepped by the coupled map, whose step equals the reference forward
    step on every word (``tests/test_rund.py`` proves it on all 2**22
    reference states and on drawn constants up to ``SWEEP_MAX_M``) and
    reduces without numpy's per-element remainder.

    By default ``imax`` is m**2, refused for m > ``SWEEP_MAX_M``, and the
    backward walk starts from (0, 0), as the reference program does. That
    seeding is only correct because the (0, 0) orbit has full period m**2,
    making (0, 0) also the state after imax forward steps; for a truncated
    window pass ``imax`` with ``backward_seed`` set to the forward endpoint.

    Every field of ``constants`` is checked as the CLI checks its flags,
    by building the coupled map from them: (a, b, m) as
    :class:`LcgParams`, 0 <= s < m, and c, d in [0, m); any other value
    raises :class:`ParameterError`. :class:`RundConstants` itself
    refuses an imax other than m**2. An a with no inverse mod m raises
    :class:`NotInvertibleError` before any walk.
    """
    k, params = constants, LcgParams(constants.a, constants.b, constants.m)
    cmap = _CoupledMap(params, CouplingSpec(k.s), InverseParams(k.c, k.d))
    if imax is None:
        _require_sweepable(k.m, "paper_reproduction")
    n = k.imax if imax is None else _require_int(imax, "imax")
    if not 1 <= n <= k.imax:
        raise ParameterError(f"imax must lie in [1, {k.imax}], got {n}")
    bx, by = _require_state((0, 0) if backward_seed is None else backward_seed, k.m)
    inverse, count, end = derive_inverse(params), n - 1, cmap.jump(0, 0, n)
    mismatches, first = 0, None
    if count and ((bx, by) != end or not _retraces(k, cmap, n, end)):
        true_k = RundConstants(k.a, k.b, k.m, k.s, inverse.c, inverse.d, k.imax)
        mismatches, first = _mismatches(k, true_k, n, (bx, by), end)
    return ReproductionReport(
        comparisons=count,
        mismatches=mismatches,
        first_mismatch_n=first,
        passed=(mismatches == 0),
    )
