"""Fixed-point big reals with rigorous absolute error bounds.

A BigReal stores an integer mantissa at a fixed binary scale together
with an error bound in units of one last place.  All arithmetic rounds
once and accounts for it conservatively, so |true - value| <= err holds
through every operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

GUARD_BITS = 32


def bits_for_digits(digits: int) -> int:
    """Working precision in bits for a decimal-digit target."""
    return int(digits * 3.3220) + GUARD_BITS + 16


@dataclass(frozen=True)
class BigReal:
    """value ~ man * 2^-bits, |true - value| <= err * 2^-bits."""

    man: int
    bits: int
    err: int

    def _rescale(self, bits: int) -> "BigReal":
        if bits == self.bits:
            return self
        if bits > self.bits:
            shift = bits - self.bits
            return BigReal(self.man << shift, bits, self.err << shift)
        shift = self.bits - bits
        return BigReal(self.man >> shift, bits, (self.err >> shift) + 2)

    @staticmethod
    def from_fraction(q: Fraction, bits: int) -> "BigReal":
        q = Fraction(q)
        man = (q.numerator << bits) // q.denominator
        return BigReal(man, bits, 1)

    @staticmethod
    def from_int(n: int, bits: int) -> "BigReal":
        return BigReal(n << bits, bits, 0)

    @staticmethod
    def exact_zero(bits: int) -> "BigReal":
        return BigReal(0, bits, 0)

    def __add__(self, other: "BigReal") -> "BigReal":
        bits = max(self.bits, other.bits)
        a, b = self._rescale(bits), other._rescale(bits)
        return BigReal(a.man + b.man, bits, a.err + b.err)

    def __sub__(self, other: "BigReal") -> "BigReal":
        return self + (-other)

    def __neg__(self) -> "BigReal":
        return BigReal(-self.man, self.bits, self.err)

    def __mul__(self, other: "BigReal") -> "BigReal":
        bits = max(self.bits, other.bits)
        a, b = self._rescale(bits), other._rescale(bits)
        man = (a.man * b.man) >> bits
        # |xy - m| <= |x| eb + |y| ea + ea eb + rounding, all in ulps
        err = (
            (abs(a.man) * b.err) >> bits
        ) + ((abs(b.man) * a.err) >> bits) + ((a.err * b.err) >> bits) + 3
        return BigReal(man, bits, err)

    def mul_fraction(self, q: Fraction) -> "BigReal":
        q = Fraction(q)
        man = (self.man * q.numerator) // q.denominator
        err = (self.err * abs(q.numerator)) // q.denominator + 2
        return BigReal(man, self.bits, err)

    def __truediv__(self, other: "BigReal") -> "BigReal":
        bits = max(self.bits, other.bits)
        a, b = self._rescale(bits), other._rescale(bits)
        if abs(b.man) <= 2 * b.err:
            raise ZeroDivisionError("divisor interval contains zero")
        man = (a.man << bits) // b.man
        denom = abs(b.man) - b.err
        err = ((a.err << bits) // denom) + ((abs(man) * b.err) // denom) + 3
        return BigReal(man, bits, err)

    def abs_at_most(self, q: Fraction) -> bool:
        """Certified |true value| <= q."""
        q = Fraction(q)
        return (abs(self.man) + self.err) * q.denominator <= q.numerator << self.bits

    def abs_exceeds(self, q: Fraction) -> bool:
        """Certified |true value| > q."""
        q = Fraction(q)
        return (abs(self.man) - self.err) * q.denominator > q.numerator << self.bits

    def err_at_most(self, q: Fraction) -> bool:
        q = Fraction(q)
        return self.err * q.denominator <= q.numerator << self.bits

    def as_fraction(self) -> Fraction:
        return Fraction(self.man, 1 << self.bits)

    def err_fraction(self) -> Fraction:
        return Fraction(self.err, 1 << self.bits)

    def to_decimal(self, digits: int) -> str:
        """Decimal string, truncated (not rounded) at the requested digits."""
        neg = self.man < 0
        m = abs(self.man)
        scaled = (m * 10**digits) >> self.bits
        s = str(scaled).rjust(digits + 1, "0")
        out = f"{s[:-digits]}.{s[-digits:]}" if digits else s
        return ("-" if neg else "") + out

    def digits_matched(self) -> int:
        """Largest d with |true value| certified < 10^-d."""
        bound = abs(self.man) + self.err
        if bound == 0:
            return 10**6
        # bound * 10^d < 2^bits exactly when 10^d <= q; the bit-length
        # estimate starts at or below that d, as 30102/100000 < log10(2)
        q = ((1 << self.bits) - 1) // bound
        d = max(0, (q.bit_length() - 1) * 30102 // 100000)
        while 10 ** (d + 1) <= q:
            d += 1
        return min(d, 10**6)


def _arctan_inv(q: int, bits: int) -> tuple[int, int]:
    """arctan(1/q) * 2^bits with an error bound in ulps."""
    acc = 0
    k = 0
    qq = q * q
    power = q  # q^(2k+1)
    terms = 0
    while True:
        term = (1 << bits) // ((2 * k + 1) * power)
        if term == 0:
            break
        acc += -term if k % 2 else term
        power *= qq
        k += 1
        terms += 1
    return acc, terms + 2


def pi_bigreal(bits: int) -> BigReal:
    """pi at the given scale via Machin's formula."""
    work = bits + 16
    a5, e5 = _arctan_inv(5, work)
    a239, e239 = _arctan_inv(239, work)
    return BigReal(16 * a5 - 4 * a239, work, 16 * e5 + 4 * e239 + 2)._rescale(bits)


_PI_POW_CACHE: dict[tuple[int, int], BigReal] = {}


def pi_power(exp: int, bits: int) -> BigReal:
    """pi^exp as a BigReal (exp >= 0)."""
    if exp == 0:
        return BigReal.from_int(1, bits)
    key = (exp, bits)
    got = _PI_POW_CACHE.get(key)
    if got is None:
        # extra headroom: pi^exp needs ~1.652*exp integer bits
        work = bits + 2 * exp + 8
        p = pi_bigreal(work)
        acc = p
        for _ in range(exp - 1):
            acc = acc * p
        got = acc._rescale(bits)
        _PI_POW_CACHE[key] = got
    return got
