"""Shuffle regularisation, the divergence relation, products, even zetas.

regularise() implements the five-step procedure: normalise the bounds by
path reversal, kill equal-bound words, expand leading zeros with the
divergence relation, dualise to fix the right end, expand again, then
read off MZV compositions.  It runs on integer coefficient maps memoised
per word, and converts to PiRational only for its output.  The recursion
terminates because each divergence expansion yields words with a 1 next
to the lower bound, and at most one duality step re-exposes leading zeros.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from operator import sub

from .lincomb import LinComb, PiRational, combine
from .words import ONE, Word, ZetaComposition, word_to_mzv


def _compositions(total: int, parts: int):
    """Weak compositions of `total` into `parts` non-negative entries.

    Stars and bars, in lexicographic order: the parts - 1 running sums
    of the leading entries are a non-decreasing sequence of cut points
    in 0..total, and each entry is the gap between neighbouring cuts.
    """
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def _divergence_terms(w: Word) -> dict[Word, int]:
    """Integer map behind divergence_relation; every output word starts 01."""
    letters = w.letters
    if letters[0] != 0 or letters[-1] != 1:
        raise ValueError(f"divergence relation needs bounds (0,1), got {w}")
    if len(letters) < 3 or letters[1] != 0:
        raise ValueError(f"word {w} is not left-divergent")
    interior = w.interior
    k = 0
    while k < len(interior) and interior[k] == 0:
        k += 1
    if k == len(interior):
        raise ValueError(f"word {w} has no 1 in its interior")
    # exponents of the zero-runs after each interior 1
    ns = []
    zeros = None
    for x in interior[k:]:
        if x == 1:
            if zeros is not None:
                ns.append(zeros + 1)
            zeros = 0
        else:
            zeros += 1
    ns.append(zeros + 1)
    r = len(ns)
    sign = -1 if k % 2 else 1
    terms = {}
    for inc in _compositions(k, r):
        coeff = sign
        for n_j, i_j in zip(ns, inc):
            coeff *= comb(n_j - 1 + i_j, i_j)
        out = [0]
        for n_j, i_j in zip(ns, inc):
            out.append(1)
            out.extend([0] * (n_j + i_j - 1))
        out.append(1)
        terms[Word(tuple(out))] = coeff
    return terms


def divergence_relation(w: Word) -> LinComb:
    """Expand a left-divergent word into words with a 1 after the bound.

    Input shape: 0 0^k 1 0^{n1-1} ... 1 0^{nr-1} 1 with k >= 1, r >= 1.
    Returns a combination equal to I(w); every output word starts 01.
    """
    return combine(_divergence_terms(w).items())


#: word -> {composition: integer coefficient}; shared, so read it only.
_REG_CACHE: dict[Word, dict[ZetaComposition, int]] = {}


def _expand_leading(w: Word) -> dict[Word, int]:
    """Divergence expansion of a weight >= 1 word with bounds (0, 1).

    A word with a 1 after its lower bound is its own expansion; a word
    with an all-zero interior is a shuffle-power of I(0;0;1),
    regularised to 0.
    """
    if w.letters[1] == 1:
        return {w: 1}
    if 1 not in w.interior:
        return {}
    return _divergence_terms(w)


def _regularise_word(w: Word) -> dict[ZetaComposition, int]:
    """Regularised I(w) as an integer map, memoised in _REG_CACHE.

    For bounds (0, 1) the five-step procedure factors as follows.  A word
    u with a 1 after its lower bound is its own divergence expansion, so
    reg(u) dualises u, expands again and reads off compositions; a
    left-divergent word is the sum of c_u reg(u) over its expansion, and
    each reg(u) is cached under u.
    """
    cached = _REG_CACHE.get(w)
    if cached is not None:
        return cached
    letters = w.letters
    sign = -1 if w.weight % 2 else 1
    if w.weight == 0:
        result = {ONE: 1}  # the unit integral
    elif letters[0] == letters[-1]:
        result = {}
    elif letters[0] == 1:
        # reversal of paths onto bounds (0, 1)
        result = {comp: sign * n for comp, n in _regularise_word(w.reversed()).items()}
    elif letters[1] == 1:
        result = {}
        for v, n in _expand_leading(w.dual()).items():
            comp, mzv_sign = word_to_mzv(v)
            result[comp] = sign * mzv_sign * n
    else:
        acc: dict[ZetaComposition, int] = {}
        for u, c_u in _expand_leading(w).items():
            for comp, n in _regularise_word(u).items():
                acc[comp] = acc.get(comp, 0) + c_u * n
        result = {comp: n for comp, n in acc.items() if n}
    _REG_CACHE[w] = result
    return result


def regularise_word(w: Word) -> LinComb:
    """Shuffle-regularised value of I(w) as a combination of compositions.

    Normalises the bounds, expands leading zeros with the divergence
    relation, dualises, expands again and reads off MZVs.
    """
    return LinComb(_regularise_word(w))


def regularise(c: LinComb) -> LinComb:
    """Linear extension of regularise_word; composition keys pass through.

    Coefficients are summed per (composition, pi exponent); combine
    rejects a composition left with two pi exponents.
    """
    sums: dict[tuple[ZetaComposition, int], Fraction] = {}
    for key, coeff in c.items():
        if isinstance(key, Word):
            expansion = _regularise_word(key).items()
        elif isinstance(key, ZetaComposition):
            expansion = ((key, 1),)
        else:
            raise TypeError(f"cannot regularise term of type {type(key).__name__}")
        for comp, n in expansion:
            slot = (comp, coeff.pi_exp)
            sums[slot] = sums.get(slot, 0) + coeff.coeff * n
    return combine((comp, PiRational(q, pi_exp)) for (comp, pi_exp), q in sums.items())


def shuffle_interiors(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """All interleavings of two letter sequences with multiplicities."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[tuple[int, ...], int] = {}
    for sub, mult in shuffle_interiors(u[1:], v).items():
        key = (u[0],) + sub
        out[key] = out.get(key, 0) + mult
    for sub, mult in shuffle_interiors(u, v[1:]).items():
        key = (v[0],) + sub
        out[key] = out.get(key, 0) + mult
    return out


def shuffle_words(u: tuple[int, ...], v: tuple[int, ...]) -> LinComb:
    """I(0;u;1) * I(0;v;1) as a sum of words; u, v are interiors."""
    return combine(
        (Word((0,) + mid + (1,)), mult)
        for mid, mult in shuffle_interiors(tuple(u), tuple(v)).items()
    )


def shuffle_product(a: Word, b: Word) -> LinComb:
    """Shuffle product of two full words with bounds (0, 1)."""
    for w in (a, b):
        if w.letters[0] != 0 or w.letters[-1] != 1:
            raise ValueError(f"shuffle product needs bounds (0,1), got {w}")
    return shuffle_words(a.interior, b.interior)


def stuffle_depth1(n: int, s: ZetaComposition) -> LinComb:
    """zeta(n) * zeta(s) expanded by the harmonic product, depth-1 case."""
    if n < 2:
        raise ValueError(f"stuffle_depth1 needs n >= 2, got {n}")
    if not s.is_convergent:
        raise ValueError(f"stuffle_depth1 needs a convergent composition, got {s}")
    args = s.args
    terms = []
    for i in range(len(args) + 1):
        terms.append((ZetaComposition(args[:i] + (n,) + args[i:]), 1))
    for i in range(len(args)):
        terms.append((ZetaComposition(args[:i] + (args[i] + n,) + args[i + 1:]), 1))
    return combine(terms)


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        # B_m = -1/(m+1) * sum_{j<m} C(m+1, j) B_j
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def zeta_even_coeff(k: int) -> PiRational:
    """zeta(2k) as q * pi^(2k) via Euler's formula."""
    if k < 1:
        raise ValueError("zeta_even_coeff needs k >= 1")
    sign = 1 if k % 2 else -1
    q = Fraction(sign) * bernoulli(2 * k) * Fraction(2 ** (2 * k - 1)) / Fraction(
        factorial(2 * k)
    )
    return PiRational(q, 2 * k)


def zeta_two_power(m: int) -> PiRational:
    """zeta({2}^m) = pi^(2m) / (2m+1)!."""
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return PiRational(Fraction(1))
    return PiRational(Fraction(1, factorial(2 * m + 1)), 2 * m)


def pi_power_as_two_comp(pi_exp: int) -> tuple[ZetaComposition, Fraction]:
    """Rewrite pi^(2m) as (2m+1)! * zeta({2}^m) for exact vectorisation."""
    if pi_exp % 2:
        raise ValueError("pi exponent must be even")
    m = pi_exp // 2
    return ZetaComposition((2,) * m), Fraction(factorial(2 * m + 1))
