"""Working coefficient fields: exact rationals and prime fields GF(p).

The linear algebra kernel is parameterised by a field object.  Rational
mode is exact and is the default.  Prime-field mode is a fast screen:
matrix ranks over GF(p) never exceed the rational ranks, so quotient
dimensions computed mod p are upper bounds that only an exact run can
confirm.  Callers surface that caveat as a warning.
"""

from __future__ import annotations

import random
from fractions import Fraction

__all__ = [
    "CoefficientNotInFieldError",
    "QQ",
    "RationalField",
    "PrimeField",
    "field_from_name",
    "random_prime",
    "is_prime",
]

# Witness set sufficient for a deterministic Miller-Rabin test on anything
# that fits in 64 bits, far beyond the primes used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Fast-mode primes are drawn from [2**30, 2**31) so residue products stay
# within a machine word on the way into Python's small-int range.
FAST_PRIME_LO = 2**30
FAST_PRIME_HI = 2**31


class CoefficientNotInFieldError(ValueError):
    """An input coefficient has no image in the working field: its
    denominator is divisible by the characteristic."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-size integers."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random | None = None) -> int:
    """A random prime in the fast-mode range [2**30, 2**31)."""
    rng = rng or random.Random()
    while True:
        candidate = rng.randrange(FAST_PRIME_LO | 1, FAST_PRIME_HI, 2)
        if is_prime(candidate):
            return candidate


class RationalField:
    """The rationals, held as Python ints wherever a value is integral.

    The engine builds every matrix over Q from integer coefficients, so its
    linear algebra never sees a Fraction: convert maps an integral value to
    int and leaves any other rational a Fraction, and only the public
    entry points of linalg clear such denominators."""

    characteristic = 0
    name = "exact"
    zero = 0
    one = 1

    @staticmethod
    def convert(value) -> int | Fraction:
        if type(value) is int:
            return value
        value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash(RationalField)


class PrimeField:
    """GF(p) arithmetic on int residues in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"mod:{p}"
        self.zero = 0
        self.one = 1

    def convert(self, value) -> int:
        if type(value) is int:
            return value % self.p
        frac = Fraction(value)
        den = frac.denominator % self.p
        if den == 0:
            raise CoefficientNotInFieldError(
                f"coefficient denominator {frac.denominator} vanishes mod {self.p}"
            )
        return frac.numerator * pow(den, self.p - 2, self.p) % self.p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash((PrimeField, self.p))


QQ = RationalField()


def field_from_name(mode: str, rng: random.Random | None = None):
    """Parse a field mode string: "exact", "mod:<prime>", or "mod:random"."""
    mode = mode.strip()
    if mode == "exact":
        return QQ
    if mode.startswith("mod:"):
        tail = mode[4:]
        if tail == "random":
            return PrimeField(random_prime(rng))
        try:
            p = int(tail)
        except ValueError:
            raise ValueError(f"bad field mode {mode!r}: modulus must be an integer") from None
        return PrimeField(p)
    raise ValueError(f"bad field mode {mode!r}: expected 'exact' or 'mod:<prime>'")
