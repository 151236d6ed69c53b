"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values: `fractions.Fraction` over Q, `int` in
[0, p) over F_p.  Every value is kept in canonical form (Fraction reduces
itself with a positive denominator; mod-p ints are always reduced), so
equality of scalars is plain `==` and comparisons are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    pass


# shared rational constants: Fractions are immutable, and one zero object
# lets dense rows be scanned for nonzeros by identity first (linalg)
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


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


@dataclass(frozen=True)
class Field:
    """The rationals (kind "Q") or the integers modulo a prime (kind "Fp")."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise FieldError("rational field takes no modulus")
        elif self.kind == "Fp":
            if not isinstance(self.p, int) or isinstance(self.p, bool):
                raise FieldError(f"modulus must be an integer, got {self.p!r}")
            if self.p >= MAX_MODULUS:
                raise FieldError(f"modulus must be below 2**64, got {self.p!r}")
            if not _is_prime(self.p):
                raise FieldError(f"modulus must be prime, got {self.p!r}")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

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
        """Parse a scalar: "num/den" or "num" over Q, an integer in [0,p) over F_p."""
        if self.kind == "Q":
            if isinstance(text, bool):
                raise FieldError(f"not a rational scalar: {text!r}")
            if isinstance(text, int):
                return Fraction(text)
            if isinstance(text, str):
                try:
                    return Fraction(text.strip())
                except (ValueError, ZeroDivisionError) as exc:
                    raise FieldError(f"not a rational scalar: {text!r}") from exc
            raise FieldError(f"not a rational scalar: {text!r}")
        if isinstance(text, bool):
            raise FieldError(f"not a mod-{self.p} scalar: {text!r}")
        if isinstance(text, str):
            try:
                text = int(text.strip())
            except ValueError as exc:
                raise FieldError(f"not a mod-{self.p} scalar: {text!r}") from exc
        if not isinstance(text, int):
            raise FieldError(f"not a mod-{self.p} scalar: {text!r}")
        if not 0 <= text < self.p:
            raise FieldError(f"scalar {text} out of range [0,{self.p})")
        return text

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
