"""Two-word coupled congruential generator and its exact time reversal.

The generator advances a pair of words (x, y), both reduced mod m:

    x' = (a*x + b) mod m
    y' = (a*y + f(x)) mod m

where the coupling f feeds the x channel into the y channel. f is the
two-parameter family f(x) = s*x plus, optionally, the carry out of the
x update (the high word of a*x + b). Packing both words as z = x + m*y
identifies the state with a single integer in [0, m**2), and z / m**2
is the generator's real-valued output in [0, 1).

Whenever gcd(a, m) = 1 the x update is invertible and the whole coupled
map can be retraced exactly:

    x = (c*x' + d) mod m                 recover x first,
    y = (c*(y' + m**2 - f(x))) mod m     then undo the coupling at x.

Adding m**2 before subtracting f(x) keeps the reduced value
non-negative (f stays below m**2 for any slope s < m), so the step
arithmetic only ever reduces non-negative integers; remainders of
negative operands are a portability trap it avoids.

The steps reduce a value v mod m as v - (v // m)*m, not as v % m. Both
round the quotient toward minus infinity, so they give the same integer
for every Python int and every int64 word, and no product exceeds the v
it reduces. On numpy arrays their costs differ: ``%`` runs
``np.remainder``, one hardware divide per element, while ``//`` by a
Python int runs numpy's divide-by-invariant path, a multiply by a
precomputed reciprocal (Granlund and Montgomery 1994, "Division by
invariant integers using multiplication"). On 2**15 int64 words at
m = 2048 the whole reduction takes about 55 µs against 130 µs for
``%`` (numpy 2.4.6 on a 2-vCPU Xeon VM). On plain ints it costs two
more operations per reduction. The forward step makes up for them by
reusing the quotient of a*x + b as the carry; the backward step does
not, and is slower for it.

The evaluation order in the backward step is load-bearing: f must be
taken at the recovered x, not at the incoming word. The test suite
includes a deliberately wrong-order implementation to prove the
distinction is observable.

The map itself is one private value, ``_CoupledMap``, built from the
parameters once per public call; its constructor checks s < m and, when
a reversal is given, c, d in [0, m). Its step methods operate on plain
integers and on numpy arrays alike; the exhaustive sweeps in
:mod:`revlcg.verification` run the very same arithmetic elementwise
over the full state space. Its ``walk`` is the one sequential loop,
which the sequences and the CLI's streams both take.

The map is affine, so any number of its steps has a closed form. With
the carry on it is the single-word LCG z' = ((a + s*m)*z + b) mod m**2
on z = x + m*y (see :mod:`revlcg.rund`); with it off it is
(x, y) -> [[a, 0], [s, a]]·(x, y) + (b, 0) mod m. ``_CoupledMap.jump``
raises either to the n-th power in O(log n) steps of :func:`_compose`
(Brown 1994, "Random number generation with arbitrary strides").
"""

from __future__ import annotations

import decimal
import gc
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .congruence import (
    InverseParams,
    InvariantError,
    LcgParams,
    ParameterError,
    _Record,
    _require_int,
    _require_modulus,
    derive_inverse,
)


class CoupledState(NamedTuple):
    x: int
    y: int


class CouplingSpec(_Record):
    """Coupling f(x) = s*x + (carry out of the x update, when enabled).

    For any slope s < m the value of f stays below m**2, which is what
    the backward step's non-negativity offset relies on.
    """

    __slots__ = _fields = ("s", "carry_enabled")

    def __init__(self, s: int, carry_enabled: bool = True):
        s = _require_int(s, "coupling slope")
        if s < 0:
            raise ParameterError(f"coupling slope must be non-negative, got {s}")
        if type(carry_enabled) is not bool:
            raise ParameterError(f"carry_enabled must be True or False, got {carry_enabled!r}")
        super().__init__(s, carry_enabled)


def _require_word(value: int, m: int, name: str) -> int:
    value = _require_int(value, name)
    if not 0 <= value < m:
        raise ParameterError(f"{name} must lie in [0, {m}), got {value}")
    return value


def _require_state(state: CoupledState, m: int) -> tuple[int, int]:
    """The words of a 2-item tuple or list, such as a ``CoupledState``, checked.

    Only ordered pairs are taken: a set, a dict or an iterator would give
    its words in an order that is not the caller's (x, y). A
    ``CoupledState``, the common case, passes on its type alone.
    """
    if type(state) is not CoupledState and (
        not isinstance(state, (tuple, list)) or len(state) != 2
    ):
        raise ParameterError(f"state must be a pair of words (x, y), got {state!r}")
    x, y = state
    return _require_word(x, m, "x"), _require_word(y, m, "y")


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


class _CoupledMap:
    """The coupled map of (a, b, m) and (s, carry), with its reversal (c, d) when given.

    The constructor is the one place the map's own rules are checked:
    s < m, so that f(x) stays below m**2, and c, d in [0, m), so that
    every product on the int64 arrays of the sweeps is exact. The
    methods hold the one copy of the step arithmetic; they work on
    plain ints and elementwise on numpy arrays alike.
    """

    __slots__ = ("a", "b", "m", "s", "carry", "c", "d", "m2")

    def __init__(
        self, params: LcgParams, coupling: CouplingSpec, inverse: InverseParams | None = None
    ):
        self.a, self.b, self.m = params.a, params.b, params.m
        self.s, self.carry = coupling.s, coupling.carry_enabled
        if self.s >= self.m:
            raise ParameterError(
                f"coupling slope {self.s} must be below m={self.m} so that "
                "f(x) stays below m**2"
            )
        if inverse is not None:
            # InverseParams holds plain ints, so one comparison passes the
            # common case; _require_word names the word that fails.
            self.c, self.d, self.m2 = inverse.c, inverse.d, self.m * self.m
            if not (0 <= self.c < self.m and 0 <= self.d < self.m):
                _require_word(self.c, self.m, "c")
                _require_word(self.d, self.m, "d")

    def f(self, x):
        """The coupling at x: s*x, plus the carry out of a*x + b when enabled."""
        if self.carry:
            return self.s * x + (self.a * x + self.b) // self.m
        return self.s * x

    def forward(self, x, y):
        # The quotient that reduces a*x + b is also its carry, so f is not
        # evaluated again here.
        m = self.m
        u = self.a * x + self.b
        q = u // m
        v = self.a * y + (self.s * x + q if self.carry else self.s * x)
        return u - q * m, v - v // m * m

    def backward(self, x, y):
        # Returns (x0, y0, slack); slack = y + m**2 - f(x0) is the value the
        # reduction is applied to, and must never be negative.
        m = self.m
        u = self.c * x + self.d
        x0 = u - u // m * m
        slack = y + self.m2 - self.f(x0)
        v = self.c * slack
        return x0, v - v // m * m, slack

    def retract(self, x: int, y: int) -> tuple[int, int]:
        """The plain-int backward step, which refuses a negative slack."""
        x0, y0, slack = self.backward(x, y)
        if slack < 0:
            raise InvariantError("coupling value exceeded m**2")
        return x0, y0

    def jump(self, x, y, n: int):
        """The words n steps after (x, y), in closed form, on ints and, with
        y = 0 so that every product stays below m**3, on int64 arrays.
        """
        m = self.m
        if self.carry:
            p, _, u, _ = _power((self.a + self.s * m, 0, self.b, 0), n, m * m)
            z = (p * (x + m * y) + u) % (m * m)
            return z % m, z // m
        p, q, u, v = _power((self.a, self.s, self.b, 0), n, m)
        return (p * x + u) % m, (q * x + p * y + v) % m

    def walk(self, x: int, y: int, count: int, backward: bool = False) -> list[int]:
        """The packed states x + m*y after steps 1 .. count from (x, y), on plain ints.

        With the carry on, the forward walk steps the packed LCG, whose
        product reaches m**4, past int64: so the array sweeps keep to the
        two-word steps. The other walks go through ``forward`` /
        ``retract``, so the two-word arithmetic and the backward step's
        slack check each stay in one place.
        """
        m = self.m
        if self.carry and not backward:
            mult, b, m2 = self.a + self.s * m, self.b, m * m
            z = x + m * y
            return [z := (mult * z + b) % m2 for _ in range(count)]
        step = self.retract if backward else self.forward
        out: list[int] = []
        append = out.append
        for _ in range(count):
            x, y = step(x, y)
            append(x + m * y)
        return out


def carry_coupling(x: int, params: LcgParams, coupling: CouplingSpec) -> int:
    """Evaluate the coupling f at one x word; the result is below m**2."""
    x = _require_word(x, params.m, "x")
    return _CoupledMap(params, coupling).f(x)


def forward_step(state: CoupledState, params: LcgParams, coupling: CouplingSpec) -> CoupledState:
    """Advance one step. The coupling is evaluated at the pre-step x."""
    x, y = _require_state(state, params.m)
    return CoupledState(*_CoupledMap(params, coupling).forward(x, y))


def backward_step(
    state: CoupledState,
    params: LcgParams,
    inverse: InverseParams,
    coupling: CouplingSpec,
) -> CoupledState:
    """Undo one step: recover x first, then remove the coupling at the recovered x."""
    x, y = _require_state(state, params.m)
    return CoupledState(*_CoupledMap(params, coupling, inverse).retract(x, y))


def pack_state(state: CoupledState, m: int) -> int:
    """Pack (x, y) into z = x + m*y, a bijection onto [0, m**2)."""
    m = _require_modulus(m)
    x, y = _require_state(state, m)
    return x + m * y


def unpack_state(z: int, m: int) -> CoupledState:
    """Inverse of :func:`pack_state`."""
    z, m = _require_int(z, "packed value"), _require_modulus(m)
    if not 0 <= z < m * m:
        raise ParameterError(f"packed value must lie in [0, {m * m}), got {z}")
    return CoupledState(z % m, z // m)


def output_real(state: CoupledState, m: int) -> Fraction:
    """Exact real output (x + m*y) / m**2, a rational in [0, 1)."""
    return Fraction(pack_state(state, m), m * m)


REAL_DIGITS = 17
# The one context every decimal rendering divides in. A division only
# sets its flags (Inexact, Rounded), which no rendering reads, so sharing
# it changes no result; building a context per value nearly doubled the
# cost of a rendering.
REAL_CONTEXT = decimal.Context(prec=REAL_DIGITS)


def real_decimal(state: CoupledState, m: int) -> str:
    """Decimal rendering of the real output, 17 significant digits."""
    return str(REAL_CONTEXT.divide(decimal.Decimal(pack_state(state, m)), decimal.Decimal(m * m)))


def _walk(seed, n, params, coupling, inverse=None) -> list[CoupledState]:
    """States after 1..n steps from the seed, backward when ``inverse`` is given.

    The map is built, and the input checked, once per walk; the states
    come from ``_CoupledMap.walk``, the kernel the CLI streams from.

    The cyclic collector is paused while the list is built and restored
    to the caller's setting afterwards. CPython keeps tracking
    ``CoupledState`` tuples, so each collection a long walk triggers
    would traverse the whole growing list; none of them can form a cycle.
    The setting is process-wide, so other threads run without the
    collector for as long as the walk takes.
    """
    n = _require_int(n, "step count")
    if n < 0:
        raise ParameterError(f"step count must be non-negative, got {n}")
    x, y = _require_state(seed, params.m)
    m = params.m
    collecting = gc.isenabled()
    gc.disable()
    try:
        states = _CoupledMap(params, coupling, inverse).walk(x, y, n, inverse is not None)
        # Unpacked in place: each packed int is freed as its state is made, so
        # a long walk never holds both lists.
        for i, z in enumerate(states):
            states[i] = CoupledState(z % m, z // m)
    finally:
        if collecting:
            gc.enable()
    return states


def generate_sequence(
    seed: CoupledState, n: int, params: LcgParams, coupling: CouplingSpec
) -> list[CoupledState]:
    """States after 1..n forward steps; the seed itself is not recorded."""
    return _walk(seed, n, params, coupling)


def reverse_sequence(
    seed: CoupledState,
    n: int,
    params: LcgParams,
    inverse: InverseParams,
    coupling: CouplingSpec,
) -> list[CoupledState]:
    """States after 1..n backward steps from the seed."""
    return _walk(seed, n, params, coupling, inverse)


class CoupledGenerator:
    """Owns a (params, coupling, state) triple with the reversal derived up front.

    Construction fails fast when the multiplier is not invertible: a
    generator that cannot be run backwards defeats the point here. The
    map is built once, from the parameters given here, so ``params``,
    ``coupling`` and ``inverse`` are read-only; the assignable ``state``
    is checked on every step.
    """

    params = property(attrgetter("_params"))
    coupling = property(attrgetter("_coupling"))
    inverse = property(attrgetter("_inverse"))

    def __init__(
        self,
        params: LcgParams,
        coupling: CouplingSpec,
        seed: CoupledState = CoupledState(0, 0),
    ):
        self._params, self._coupling = params, coupling
        self._inverse = derive_inverse(params)
        self._map = _CoupledMap(params, coupling, self._inverse)
        self.state = CoupledState(*_require_state(seed, params.m))

    def forward(self) -> CoupledState:
        """Advance the held state one step and return it."""
        x, y = _require_state(self.state, self._map.m)
        self.state = CoupledState(*self._map.forward(x, y))
        return self.state

    def backward(self) -> CoupledState:
        """Retract the held state one step and return it."""
        x, y = _require_state(self.state, self._map.m)
        self.state = CoupledState(*self._map.retract(x, y))
        return self.state

    def real(self) -> Fraction:
        """Exact real output of the current state."""
        return output_real(self.state, self._map.m)
