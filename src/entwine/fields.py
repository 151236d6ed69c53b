"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values: `fractions.Fraction` over Q, `int` in
[0, p) over F_p.  Every value is kept in canonical form (Fraction reduces
itself with a positive denominator; mod-p ints are always reduced), so
equality of scalars is plain `==` and comparisons are bit-exact.  These are
the values of vectors, witnesses and documents; `linalg` stores a matrix
as integer numerators over one denominator instead, and converts to and
from these values only at its boundary.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .records import Record


class FieldError(ValueError):
    pass


# shared rational constants: Fractions are immutable, so the dense rows and
# vectors built at the boundary can all share one zero and one one
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)

# The most digits in each digit run of a rational scalar's text: Python's
# own limit on converting decimal text to an int, which JSON integers share
MAX_SCALAR_DIGITS = 4300
_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


# Miller-Rabin with these bases decides primality exactly below 2**64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_MODULUS = 2 ** 64


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= p < 2**64."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field(Record):
    """The rationals (kind "Q") or the integers modulo a prime (kind "Fp")."""

    _fields = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            if p is not None:
                raise FieldError("rational field takes no modulus")
        elif kind == "Fp":
            if not isinstance(p, int) or isinstance(p, bool):
                raise FieldError(f"modulus must be an integer, got {p!r}")
            if p >= MAX_MODULUS:
                raise FieldError(f"modulus must be below 2**64, got {p!r}")
            if not _is_prime(p):
                raise FieldError(f"modulus must be prime, got {p!r}")
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        super().__init__(kind, p)

    # products compare the fields of their factors, which are most often
    # the same object
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is Field:
            return self.kind == other.kind and self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.p))

    # -- constants ---------------------------------------------------------

    @property
    def zero(self):
        return _Q_ZERO if self.kind == "Q" else 0

    @property
    def one(self):
        return _Q_ONE if self.kind == "Q" else 1

    def of_int(self, n: int):
        return Fraction(n) if self.kind == "Q" else n % self.p

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return a + b if self.kind == "Q" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "Q" else (a - b) % self.p

    def neg(self, a):
        return -a if self.kind == "Q" else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "Q" else (a * b) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Q":
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    # -- text encoding -----------------------------------------------------

    def parse(self, text):
        """Parse a scalar: an integer, "num" or "num/den" in ASCII digits
        over Q (no other form), an integer in [0,p) over F_p."""
        if self.kind == "Fp":
            if not isinstance(text, int) or isinstance(text, bool):
                raise FieldError(f"not a mod-{self.p} scalar: {text!r:.60}")
            if not 0 <= text < self.p:
                raise FieldError(f"scalar {text} out of range [0,{self.p})")
            return text
        if isinstance(text, int) and not isinstance(text, bool):
            return Fraction(text)
        match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
        if match is None:
            raise FieldError(f"not a rational scalar: {text!r:.60}")
        sign, num, den = match.groups()
        if max(len(num), len(den or "")) > MAX_SCALAR_DIGITS:
            raise FieldError(f"rational scalar with more than "
                             f"{MAX_SCALAR_DIGITS} digits in a run")
        if den is not None and not int(den):
            raise FieldError(f"zero denominator in {text!r:.60}")
        value = Fraction(int(num), int(den or 1))
        return -value if sign else value

    def fmt(self, a):
        """Canonical text form; JSON-friendly (str over Q, int over F_p)."""
        if self.kind == "Q":
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return int(a)

    def __repr__(self):
        return "Q" if self.kind == "Q" else f"F{self.p}"


QQ = Field("Q")


def GF(p: int) -> Field:
    return Field("Fp", p)
