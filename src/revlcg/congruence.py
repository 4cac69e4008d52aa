"""Integer congruence machinery: extended Euclid, modular inverses, and
derivation of the reversed-generator parameters.

Every residue handled by this package lives in the canonical range
[0, m); negative intermediates are reduced through :func:`mod_nonneg`
so that no operation ever applies ``%`` to a value whose sign could
make the result language-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

# Largest modulus for which m**3 still fits a signed 64-bit word. The
# backward step multiplies a residue (< m) by a value just under m**2 + m,
# so keeping m**3 in range makes every product in the package exact even
# on the packed int64 arrays used by the verification sweeps.
MAX_MODULUS = 2_097_151


class NotInvertibleError(ValueError):
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


@dataclass(frozen=True)
class LcgParams:
    """Parameters of the single-word recursion x -> (a*x + b) mod m."""

    a: int
    b: int
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")
        if self.m > MAX_MODULUS:
            raise ValueError(
                f"modulus {self.m} exceeds {MAX_MODULUS}; m**3 must fit in "
                "64-bit arithmetic so every step and sweep stays exact"
            )
        if not 0 <= self.a < self.m:
            raise ValueError(f"multiplier must lie in [0, m), got a={self.a}, m={self.m}")
        if not 0 <= self.b < self.m:
            raise ValueError(f"increment must lie in [0, m), got b={self.b}, m={self.m}")


@dataclass(frozen=True)
class InverseParams:
    """Parameters of the reversed recursion x_prev = (c*x + d) mod m."""

    c: int
    d: int


def ext_gcd(u: int, v: int) -> ExtGcdResult:
    """Extended Euclid: returns (g, s, t) with s*u + t*v = g = gcd(u, v).

    The Bezout coefficients may be negative; only :func:`mod_inverse`
    normalizes them to a canonical residue.
    """
    if u < 0 or v < 0:
        raise ValueError(f"ext_gcd expects non-negative inputs, got ({u}, {v})")
    if u == 0 and v == 0:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = u, v
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return ExtGcdResult(r0, s0, t0)


def mod_nonneg(v: int, m: int) -> int:
    """Reduce v, of either sign, to the unique residue in [0, m)."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return v % m


def mod_inverse(a: int, m: int) -> int:
    """Return c in [0, m) with (a*c) mod m = 1.

    Raises :class:`NotInvertibleError` when gcd(a, m) != 1, which is the
    signal that the generator built on ``a`` cannot run backwards.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
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
    d = mod_nonneg(-c * b, m)
    if (a * c) % m != 1 or (c * b + d) % m != 0 or (a * d + b) % m != 0:
        raise InvariantError(f"derived (c, d) = ({c}, {d}) does not reverse a={a}, b={b} mod {m}")
    return InverseParams(c, d)
