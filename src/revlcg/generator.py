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
non-negative (f stays below m**2 for any slope s < m), so ``%`` is only
ever applied to non-negative integers; remainders of negative operands
are a portability trap the step arithmetic avoids.

The evaluation order in the backward step is load-bearing: f must be
taken at the recovered x, not at the incoming word. The test suite
includes a deliberately wrong-order implementation to prove the
distinction is observable.

The private ``*_words`` helpers below operate on plain integers and on
numpy arrays alike; the exhaustive sweeps in :mod:`revlcg.verification`
run the very same arithmetic elementwise over the full state space.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .congruence import (
    InverseParams,
    InvariantError,
    LcgParams,
    ParameterError,
    _require_int,
    derive_inverse,
)


class CoupledState(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling f(x) = s*x + (carry out of the x update, when enabled).

    For any slope s < m the value of f stays below m**2, which is what
    the backward step's non-negativity offset relies on.
    """

    s: int
    carry_enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "s", _require_int(self.s, "coupling slope"))
        if self.s < 0:
            raise ParameterError(f"coupling slope must be non-negative, got {self.s}")


def _coupling_words(x, a, b, m, s, carry_enabled):
    # Elementwise on numpy arrays as well as plain ints.
    if carry_enabled:
        return s * x + (a * x + b) // m
    return s * x


def _forward_words(x, y, a, b, m, s, carry_enabled):
    x1 = (a * x + b) % m
    return x1, (a * y + _coupling_words(x, a, b, m, s, carry_enabled)) % m


def _backward_words(x, y, a, b, m, c, d, s, carry_enabled, m2):
    # Returns (x0, y0, slack); slack = y + m**2 - f(x0) is the value the
    # modulus is applied to, and must never be negative.
    x0 = (c * x + d) % m
    slack = y + m2 - _coupling_words(x0, a, b, m, s, carry_enabled)
    return x0, (c * slack) % m, slack


def _require_word(value: int, m: int, name: str) -> None:
    if not 0 <= _require_int(value, name) < m:
        raise ParameterError(f"{name} must lie in [0, {m}), got {value}")


def _require_state(state: CoupledState, m: int) -> None:
    _require_word(state.x, m, "x")
    _require_word(state.y, m, "y")


def _require_coupling(params: LcgParams, coupling: CouplingSpec) -> None:
    if coupling.s >= params.m:
        raise ParameterError(
            f"coupling slope {coupling.s} must be below m={params.m} so that "
            "f(x) stays below m**2"
        )


def carry_coupling(x: int, params: LcgParams, coupling: CouplingSpec) -> int:
    """Evaluate the coupling f at one x word; the result is below m**2."""
    _require_word(x, params.m, "x")
    _require_coupling(params, coupling)
    return _coupling_words(x, params.a, params.b, params.m, coupling.s, coupling.carry_enabled)


def forward_step(state: CoupledState, params: LcgParams, coupling: CouplingSpec) -> CoupledState:
    """Advance one step. The coupling is evaluated at the pre-step x."""
    _require_state(state, params.m)
    _require_coupling(params, coupling)
    x1, y1 = _forward_words(
        state.x, state.y, params.a, params.b, params.m, coupling.s, coupling.carry_enabled
    )
    return CoupledState(x1, y1)


def backward_step(
    state: CoupledState,
    params: LcgParams,
    inverse: InverseParams,
    coupling: CouplingSpec,
) -> CoupledState:
    """Undo one step: recover x first, then remove the coupling at the recovered x."""
    _require_state(state, params.m)
    _require_coupling(params, coupling)
    x0, y0, slack = _backward_words(
        state.x,
        state.y,
        params.a,
        params.b,
        params.m,
        inverse.c,
        inverse.d,
        coupling.s,
        coupling.carry_enabled,
        params.m * params.m,
    )
    if slack < 0:
        raise InvariantError("coupling value exceeded m**2")
    return CoupledState(x0, y0)


def pack_state(state: CoupledState, m: int) -> int:
    """Pack (x, y) into z = x + m*y, a bijection onto [0, m**2)."""
    m = _require_int(m, "modulus")
    _require_state(state, m)
    return state.x + m * state.y


def unpack_state(z: int, m: int) -> CoupledState:
    """Inverse of :func:`pack_state`."""
    z, m = _require_int(z, "packed value"), _require_int(m, "modulus")
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


def _stepper(params, coupling, inverse=None):
    """The plain-int step (x, y) -> (x', y'), backward when ``inverse`` is given.

    Checks the coupling once, so a walk built on it validates its input
    once rather than per step. The backward step still checks every
    step's non-negativity offset.
    """
    _require_coupling(params, coupling)
    a, b, m, s, carry = params.a, params.b, params.m, coupling.s, coupling.carry_enabled
    if inverse is None:
        return lambda x, y: _forward_words(x, y, a, b, m, s, carry)
    c, d, m2 = inverse.c, inverse.d, m * m

    def backward(x: int, y: int) -> tuple[int, int]:
        x, y, slack = _backward_words(x, y, a, b, m, c, d, s, carry, m2)
        if slack < 0:
            raise InvariantError("coupling value exceeded m**2")
        return x, y

    return backward


def _walk(seed, n, params, coupling, inverse=None) -> list[CoupledState]:
    """States after 1..n steps of :func:`_stepper` from the seed."""
    n = _require_int(n, "step count")
    if n < 0:
        raise ParameterError(f"step count must be non-negative, got {n}")
    _require_state(seed, params.m)
    step = _stepper(params, coupling, inverse)
    x, y = seed
    out: list[CoupledState] = []
    append = out.append
    for _ in range(n):
        x, y = step(x, y)
        append(CoupledState(x, y))
    return out


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
    generator that cannot be run backwards defeats the point here.
    """

    def __init__(
        self,
        params: LcgParams,
        coupling: CouplingSpec,
        seed: CoupledState = CoupledState(0, 0),
    ):
        _require_coupling(params, coupling)
        _require_state(seed, params.m)
        self.params = params
        self.coupling = coupling
        self.inverse = derive_inverse(params)
        self.state = seed

    def forward(self) -> CoupledState:
        """Advance the held state one step and return it."""
        self.state = forward_step(self.state, self.params, self.coupling)
        return self.state

    def backward(self) -> CoupledState:
        """Retract the held state one step and return it."""
        self.state = backward_step(self.state, self.params, self.inverse, self.coupling)
        return self.state

    def real(self) -> Fraction:
        """Exact real output of the current state."""
        return output_real(self.state, self.params.m)
