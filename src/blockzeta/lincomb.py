"""Exact linear combinations of words, zeta compositions and tensor terms.

Coefficients are PiRational values: an exact rational times an even
power of pi.  Weight-homogeneous combinations never need two distinct
pi-powers on the same term key, so addition of coefficients demands
matching exponents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

from .words import Word, ZetaComposition


@dataclass(frozen=True)
class PiRational:
    """coeff * pi^pi_exp with coeff an exact rational and pi_exp even."""

    coeff: Fraction
    pi_exp: int = 0

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.pi_exp < 0 or self.pi_exp % 2:
            raise ValueError(f"pi exponent must be even and >= 0, got {self.pi_exp}")
        if self.coeff == 0 and self.pi_exp != 0:
            object.__setattr__(self, "pi_exp", 0)

    def __add__(self, other: "PiRational") -> "PiRational":
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_exp != other.pi_exp:
            raise ValueError(
                f"cannot add pi^{self.pi_exp} and pi^{other.pi_exp} coefficients"
            )
        return PiRational(self.coeff + other.coeff, self.pi_exp)

    def __neg__(self) -> "PiRational":
        return PiRational(-self.coeff, self.pi_exp)

    def __mul__(self, other) -> "PiRational":
        if isinstance(other, PiRational):
            return PiRational(self.coeff * other.coeff, self.pi_exp + other.pi_exp)
        return PiRational(self.coeff * Fraction(other), self.pi_exp)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __str__(self) -> str:
        if self.pi_exp == 0:
            return str(self.coeff)
        return f"{self.coeff}*pi^{self.pi_exp}"


ZERO = PiRational(Fraction(0))

TermKey = Union[Word, ZetaComposition, "TensorTerm"]


@dataclass(frozen=True)
class TensorTerm:
    """Left (cut) word tensor right (quotient) word, graded by cut weight."""

    left: Word
    right: Word
    grade: int

    def __str__(self) -> str:
        return f"{self.left} (x) {self.right} [grade {self.grade}]"


def _as_coeff(c) -> PiRational:
    if isinstance(c, PiRational):
        return c
    return PiRational(Fraction(c))


class LinComb:
    """Finite formal sum term -> PiRational; zero coefficients are pruned."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[TermKey, PiRational] | None = None):
        self._terms = _summed(terms.items()) if terms else {}

    @classmethod
    def term(cls, key: TermKey, coeff=1) -> "LinComb":
        return cls({key: _as_coeff(coeff)})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def items(self) -> Iterator[tuple[TermKey, PiRational]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[TermKey, PiRational]]:
        """The terms ordered by the text of their keys, as every printout lists them."""
        return sorted(self._terms.items(), key=lambda kv: str(kv[0]))

    def keys(self):
        return self._terms.keys()

    def get(self, key: TermKey) -> PiRational:
        return self._terms.get(key, ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "LinComb") -> "LinComb":
        res = LinComb.__new__(LinComb)
        res._terms = _summed(itertools.chain(self._terms.items(), other._terms.items()))
        return res

    def __neg__(self) -> "LinComb":
        return LinComb({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __mul__(self, scalar) -> "LinComb":
        c = _as_coeff(scalar)
        if c.is_zero:
            return LinComb()
        return LinComb({k: v * c for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def map_terms(self, fn: Callable[[TermKey], "LinComb"]) -> "LinComb":
        """Linear extension of a map term -> LinComb."""
        return combine(
            (key, c * v) for k, v in self._terms.items() for key, c in fn(k).items()
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({v})*{k}" for k, v in self.sorted_items())

    def __repr__(self) -> str:
        return f"LinComb({len(self._terms)} terms)"


def _summed(pairs: Iterable[tuple[TermKey, object]]) -> dict[TermKey, PiRational]:
    """Sum (key, coefficient) pairs per key; keys that sum to zero are dropped."""
    out: dict[TermKey, PiRational] = {}
    for k, c in pairs:
        c = _as_coeff(c)
        cur = out.get(k)
        s = c if cur is None else cur + c
        if s.is_zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def combine(terms: Iterable[tuple[TermKey, object]]) -> LinComb:
    """Sum an iterable of (key, coefficient) pairs into one combination."""
    res = LinComb.__new__(LinComb)
    res._terms = _summed(terms)
    return res
