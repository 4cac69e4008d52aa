"""Bit-exact reimplementation of the classic `rund` split-word generator.

`rund` is the coupled generator with a = 1029, b = 1731, m = 2048 and
coupling slope s = 1536 with the carry enabled: x and y are 11-bit
words, a*x + b is a 22-bit value, and the carry term hands the high 11
bits of the x update to the y channel. The reversal constants are
c = 205 and d = 1497.

The step functions below keep the reference loop's arithmetic operation
for operation, including the add-then-subtract of the increment inside
the forward j accumulator; algebraically simplified forms live in
:mod:`revlcg.generator`, and the test suite proves the two agree on all
2**22 states.

Packing z = x + m*y collapses the two-word map into the single-word LCG

    z' = ((a + s*m) * z + b) mod m**2

because expanding (a + s*m) * (x + m*y) + b modulo m**2 leaves
x' + m*(s*x + a*y + carry): the s*m**2*y cross term vanishes and the
carry is exactly what the x reduction pushed out. With the default
constants the packed multiplier is 1029 + 1536*2048 = 3146757. This
gives a one-line oracle for the two-word implementation; it is
spot-checked on random states and then confirmed exhaustively before
anything relies on it.
"""

from __future__ import annotations

from .congruence import ParameterError, _Record, _require_int


class RundConstants(_Record):
    """The fixed integers of the reference generator and its reversal.

    imax is the full state-space size m**2, the offset the backward step
    adds before subtracting f(x0). The constructor checks that every
    field is an integer, stores it as a plain int, and refuses any imax
    other than m**2. The reversal pair (c, d) is checked against
    :func:`revlcg.congruence.derive_inverse` by the test suite rather
    than by this constructor, so deliberately corrupted instances can be
    built as negative controls.
    """

    __slots__ = _fields = ("a", "b", "m", "s", "c", "d", "imax")

    def __init__(
        self,
        a: int = 1029,
        b: int = 1731,
        m: int = 2048,
        s: int = 1536,
        c: int = 205,
        d: int = 1497,
        imax: int = 4_194_304,
    ):
        values = (a, b, m, s, c, d, imax)
        super().__init__(*[_require_int(v, name) for name, v in zip(self._fields, values)])
        if self.imax != self.m * self.m:
            raise ParameterError(f"imax must equal m**2 = {self.m * self.m}, got {self.imax}")


RUND = RundConstants()


def rund_forward_step(x, y, k: RundConstants = RUND):
    """One forward step in the exact arithmetic of the reference loop.

    With the default constants: i = 1029*x + 1731, then the j
    accumulator adds 1029*y + 507*x (s - a = 507) and picks up the
    carry (i - x') / m after x is reduced.
    """
    i = k.a * x + k.b
    j = i + k.a * y + (k.s - k.a) * x - k.b
    x1 = i % k.m
    j = j + (i - x1) // k.m
    return x1, j % k.m


def rund_backward_step(x, y, k: RundConstants = RUND):
    """One reversed step in the exact arithmetic of the reference loop.

    The subtracted quotient (a*x0 + b - x) / m recomputes the forward
    carry: when (c, d) are the true reversal constants, x is the
    forward image of x0 and the numerator is an exact multiple of m.
    ``tests/test_rund.py::TestExhaustiveEquivalence::
    test_backward_carry_division_is_exact`` checks the zero remainder
    and the carry on all m**2 states.
    """
    x0 = (k.c * x + k.d) % k.m
    t = y + k.imax - k.s * x0 - (k.a * x0 + k.b - x) // k.m
    return x0, (k.c * t) % k.m


def packed_multiplier(k: RundConstants = RUND) -> int:
    """Multiplier a + s*m of the packed single-word form.

    Computed from the constants rather than frozen as a magic number.
    """
    return k.a + k.s * k.m


def packed_oracle_step(z, k: RundConstants = RUND):
    """One step of the packed single-word LCG on z = x + m*y."""
    return (packed_multiplier(k) * z + k.b) % (k.m * k.m)

