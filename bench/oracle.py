"""Reference arithmetic the benchmark checks revlcg's outputs against.

Written from the generator's defining equations, not imported from the
package under test (in particular not from ``revlcg.rund``):

- carry on: the packed single-word LCG z' = ((a + s*m)*z + b) mod m**2
  on z = x + m*y;
- carry off: the plain two-word map x' = (a*x + b) mod m,
  y' = (a*y + s*x) mod m;
- a reverse run from the endpoint of n forward steps must emit the
  forward states n-1 .. 1 followed by the seed;
- exhaustive verdicts are exact: period m**2, zero mismatches, every
  state covered.

Stdlib only, so the benchmark's driver can use it before revlcg is
imported.
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple


class Params(NamedTuple):
    a: int
    b: int
    m: int
    s: int
    carry: bool


REFERENCE = Params(a=1029, b=1731, m=2048, s=1536, carry=True)

# Significant digits of the CLI's `real` format.
REAL_DIGITS = 17


def packed_multiplier(p: Params) -> int:
    return p.a + p.s * p.m


def inverse(p: Params) -> tuple[int, int]:
    """(c, d) with a*c = 1 and c*b + d = 0 (mod m)."""
    c = pow(p.a, -1, p.m)
    return c, (-c * p.b) % p.m


def orbit(p: Params, x: int, y: int, n: int) -> list[tuple[int, int]]:
    """States after 1..n forward steps from (x, y)."""
    out = []
    append = out.append
    m = p.m
    if p.carry:
        mult, inc, mod = packed_multiplier(p), p.b, m * m
        z = x + m * y
        for _ in range(n):
            z = (mult * z + inc) % mod
            append((z % m, z // m))
    else:
        a, b, s = p.a, p.b, p.s
        for _ in range(n):
            x, y = (a * x + b) % m, (a * y + s * x) % m
            append((x, y))
    return out


def retrace(seed: tuple[int, int], forward: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """What len(forward) backward steps from forward[-1] must emit."""
    return forward[-2::-1] + [tuple(seed)]


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def full_period(p: Params) -> bool:
    """Hull-Dobell on the packed LCG: does every orbit have period m**2?

    Only the carry-on form is a single-word LCG; the carry-off form is
    not covered by this test.
    """
    if not p.carry:
        raise ValueError("full_period covers the carry-on (packed LCG) form only")
    mult, inc, mod = packed_multiplier(p), p.b, p.m * p.m
    return (
        math.gcd(inc, mod) == 1
        and all((mult - 1) % q == 0 for q in prime_factors(mod))
        and (mod % 4 != 0 or (mult - 1) % 4 == 0)
    )


def cli_text(fmt: str, states: list[tuple[int, int]], m: int) -> bytes:
    """The exact stdout of `revlcg generate/reverse --format fmt` for these states."""
    m2 = m * m
    if fmt == "state":
        lines = [f"{n} {x} {y}" for n, (x, y) in enumerate(states, 1)]
    elif fmt == "z":
        lines = [f"{x + m * y}" for x, y in states]
    elif fmt == "real":
        ctx = decimal.Context(prec=REAL_DIGITS)
        den = decimal.Decimal(m2)
        lines = []
        for n, (x, y) in enumerate(states, 1):
            z = x + m * y
            lines.append(f"{n} {z}/{m2} {ctx.divide(decimal.Decimal(z), den)}")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return ("\n".join(lines) + "\n").encode() if lines else b""


def first_difference(expected: bytes, actual: bytes) -> str:
    """A one-line description of where two CLI outputs first differ."""
    exp, act = expected.split(b"\n"), actual.split(b"\n")
    for i, (e, a) in enumerate(zip(exp, act), 1):
        if e != a:
            return f"line {i}: expected {e.decode()!r}, got {a.decode(errors='replace')!r}"
    return f"expected {len(exp) - 1} lines, got {len(act) - 1}"


def random_params(rng, m: int, carry: bool) -> Params:
    """A seeded parameter set at modulus m with a invertible and s < m."""
    while True:
        a = rng.randrange(2, m)
        if math.gcd(a, m) == 1:
            return Params(a=a, b=rng.randrange(1, m), m=m, s=rng.randrange(1, m), carry=carry)
