"""Integer congruence machinery: extended Euclid, modular inverses, and
derivation of the reversed-generator parameters.

Every residue handled by this package lives in the canonical range
[0, m). The two negative intermediates, a Bezout coefficient and -c*b,
are reduced with Python's ``%``, which returns that residue for an
operand of either sign.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

# Largest modulus for which m**3 still fits a signed 64-bit word. The
# backward step multiplies a residue (< m) by a value just under m**2 + m,
# so keeping m**3 in range makes every product in the package exact even
# on the packed int64 arrays used by the verification sweeps.
MAX_MODULUS = 2_097_151


class ParameterError(ValueError):
    """A parameter, state word or count given by the caller is out of range or not an int."""


def _require_int(value, name: str) -> int:
    """``value`` as a plain int; bools, floats and other non-integers are refused.

    ``operator.index`` accepts exactly the types that are integers
    (int and numpy integer scalars); bool is an int subclass, so it is
    refused by name: a flag is never a modulus or a state word.
    """
    if type(value) is int:  # the common case, checked first: steps validate every word
        return value
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got bool {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None


def _require_modulus(m, name: str = "modulus") -> int:
    """``m`` as a plain int; every modulus in the package is at least 2."""
    m = _require_int(m, name)
    if m < 2:
        raise ParameterError(f"modulus must be >= 2, got {m}")
    return m


class NotInvertibleError(ParameterError):
    """The multiplier has no inverse mod m, so the recursion cannot be reversed."""

    def __init__(self, a: int, m: int, gcd: int):
        super().__init__(f"{a} is not invertible mod {m}: gcd(a, m) = {gcd}")
        self.a = a
        self.m = m
        self.gcd = gcd


class InvariantError(RuntimeError):
    """An identity the arithmetic guarantees does not hold: a defect, not bad input.

    Raised instead of ``assert`` so that ``python -O`` keeps every check.
    """


class ExtGcdResult(NamedTuple):
    g: int
    s: int
    t: int


class _Record:
    """A read-only record of the fields named in ``_fields``, kept in ``__slots__``.

    It has the behaviour of a frozen dataclass: the ``repr`` names every
    field, ``==`` holds only between records of the same type, the hash
    is that of the field tuple, and assigning or deleting a field raises
    ``AttributeError``. ``copy`` and ``pickle`` rebuild a record through
    its constructor, so a copy is checked like the original. The
    parameter records here and the verification reports are built on
    it, not on ``dataclasses``, whose import loads ``inspect`` and its
    dependencies into every process, the streaming CLI included.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        # Subclass constructors pass their checked values in field order.
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class LcgParams(_Record):
    """Parameters of the single-word recursion x -> (a*x + b) mod m."""

    __slots__ = _fields = ("a", "b", "m")

    def __init__(self, a: int, b: int, m: int):
        # Stored as plain ints, so no step or sweep inherits a float or a
        # fixed-width scalar from the caller.
        a, b, m = _require_int(a, "a"), _require_int(b, "b"), _require_modulus(m, "m")
        if m > MAX_MODULUS:
            raise ParameterError(
                f"modulus {m} exceeds {MAX_MODULUS}; m**3 must fit in "
                "64-bit arithmetic so every step and sweep stays exact"
            )
        if not 0 <= a < m:
            raise ParameterError(f"multiplier must lie in [0, m), got a={a}, m={m}")
        if not 0 <= b < m:
            raise ParameterError(f"increment must lie in [0, m), got b={b}, m={m}")
        super().__init__(a, b, m)


class InverseParams(_Record):
    """Parameters of the reversed recursion x_prev = (c*x + d) mod m."""

    __slots__ = _fields = ("c", "d")

    def __init__(self, c: int, d: int):
        super().__init__(_require_int(c, "c"), _require_int(d, "d"))


def ext_gcd(u: int, v: int) -> ExtGcdResult:
    """Extended Euclid: returns (g, s, t) with s*u + t*v = g = gcd(u, v).

    The Bezout coefficients may be negative; only :func:`mod_inverse`
    normalizes them to a canonical residue.
    """
    u, v = _require_int(u, "u"), _require_int(v, "v")
    if u < 0 or v < 0:
        raise ParameterError(f"ext_gcd expects non-negative inputs, got ({u}, {v})")
    if u == 0 and v == 0:
        raise ParameterError("gcd(0, 0) is undefined")
    r0, r1 = u, v
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return ExtGcdResult(r0, s0, t0)


def mod_inverse(a: int, m: int) -> int:
    """Return c in [0, m) with (a*c) mod m = 1.

    Raises :class:`NotInvertibleError` when gcd(a, m) != 1, which is the
    signal that the generator built on ``a`` cannot run backwards.
    """
    m, a = _require_modulus(m), _require_int(a, "a")
    g, s, _ = ext_gcd(a % m, m)
    if g != 1:
        raise NotInvertibleError(a, m, g)
    return s % m


def derive_inverse(params: LcgParams) -> InverseParams:
    """Derive the reversed-recursion parameters (c, d) from (a, b, m).

    c is the modular inverse of a, and d = -c*b reduced to [0, m). The
    pair must satisfy three congruences:

        a*c = 1 (mod m),  c*b + d = 0 (mod m),  a*d + b = 0 (mod m)

    The third follows from the first two, but all three are re-checked
    here anyway; the check costs nothing and catches parameter typos.
    """
    a, b, m = params.a, params.b, params.m
    c = mod_inverse(a, m)
    d = -c * b % m
    if (a * c) % m != 1 or (c * b + d) % m != 0 or (a * d + b) % m != 0:
        raise InvariantError(f"derived (c, d) = ({c}, {d}) does not reverse a={a}, b={b} mod {m}")
    return InverseParams(c, d)
