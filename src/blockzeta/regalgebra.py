"""Shuffle regularisation, the divergence relation, products, even zetas.

regularise() implements the five-step procedure: normalise the bounds by
path reversal, kill equal-bound words, expand leading zeros with the
divergence relation, dualise to fix the right end, expand again, then
read off MZV compositions.  It runs on letter tuples and integer
coefficient maps, memoised per tuple, and reads compositions straight off
interiors: a Word is met only at the public boundary (regularise_word and
the word keys of a combination).  regularise_sums adds the maps up in
integers over a common denominator, and regularise converts to PiRational
only for its output, while numerics evaluates the integer sums directly.
The recursion terminates because each divergence expansion yields words
with a 1 next to the lower bound, and at most one duality step re-exposes
leading zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .lincomb import LinComb, PiRational, combine
from .words import ONE, Word, ZetaComposition, interior_to_mzv


#: letters -> {composition: integer coefficient}; shared, so read it only.
_REG_CACHE: dict[tuple[int, ...], dict[ZetaComposition, int]] = {}

MAX_EXPANSION = 10**4  # ceiling: each word of an expansion is regularised in turn


def _expand_leading(interior: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Divergence expansion of a weight >= 1 word with bounds (0, 1).

    Takes and returns interiors.  For the interior 0^k 1 v the divergence
    relation is the shuffle identity reg I(0; 0^k 1 v; 1) = (-1)^k sum
    I(0; 1 s; 1) over the shuffles s of 0^k with v.  At k = 0 the
    interior is its own expansion; an all-zero interior is a
    shuffle-power of I(0;0;1), regularised to 0.  The expansion has
    C(k + j, j) distinct interiors, j the number of ones in v; it is
    counted first and may not exceed MAX_EXPANSION.
    """
    if 1 not in interior:
        return {}
    k = interior.index(1)
    count = comb(k + interior.count(1) - 1, k)
    if count > MAX_EXPANSION:
        word = "".join(map(str, (0, *interior, 1)))
        raise ValueError(
            f"word {word} has a divergence expansion of {count} words, beyond "
            f"the configured ceiling {MAX_EXPANSION}"
        )
    sign = -1 if k % 2 else 1
    return {
        (1,) + s: sign * mult
        for s, mult in shuffle_interiors((0,) * k, interior[k + 1:]).items()
    }


def _regularise_word(letters: tuple[int, ...]) -> dict[ZetaComposition, int]:
    """Regularised I(letters) as an integer map, memoised in _REG_CACHE.

    For bounds (0, 1) the five-step procedure factors as follows.  A word
    u with a 1 after its lower bound is its own divergence expansion, so
    reg(u) dualises u, expands again and reads off compositions; a
    left-divergent word is the sum of c_u reg(u) over its expansion, and
    each reg(u) is cached under u's letters.
    """
    cached = _REG_CACHE.get(letters)
    if cached is not None:
        return cached
    weight = len(letters) - 2
    sign = -1 if weight % 2 else 1
    if weight == 0:
        result = {ONE: 1}  # the unit integral
    elif letters[0] == letters[-1]:
        result = {}
    elif letters[0] == 1:
        # reversal of paths onto bounds (0, 1)
        result = {comp: sign * n for comp, n in _regularise_word(letters[::-1]).items()}
    elif letters[1] == 1:
        # the dual word keeps the bounds (0, 1); its interior is the
        # flipped reverse of this one
        dual = tuple(1 - x for x in reversed(letters[1:-1]))
        result = {}
        for v, n in _expand_leading(dual).items():
            comp, mzv_sign = interior_to_mzv(v)
            result[comp] = sign * mzv_sign * n
    else:
        acc: dict[ZetaComposition, int] = {}
        for u, c_u in _expand_leading(letters[1:-1]).items():
            for comp, n in _regularise_word((0,) + u + (1,)).items():
                acc[comp] = acc.get(comp, 0) + c_u * n
        result = {comp: n for comp, n in acc.items() if n}
    _REG_CACHE[letters] = result
    return result


def regularise_word(w: Word) -> LinComb:
    """Shuffle-regularised value of I(w) as a combination of compositions.

    Normalises the bounds, expands leading zeros with the divergence
    relation, dualises, expands again and reads off MZVs.
    """
    return LinComb(_regularise_word(w.letters))


def regularise_sums(c: LinComb) -> tuple[int, dict[tuple[ZetaComposition, int], int]]:
    """regularise(c) over a common denominator, in integers.

    Returns D, the lcm of the denominators of c's coefficients, and the
    exact integer numerators Q over D of the nonzero sums, keyed by
    (composition, pi exponent) in order of first appearance.  Raises
    combine's ValueError when a composition is left with two pi exponents.
    """
    D = lcm(*(coeff.coeff.denominator for _, coeff in c.items()))
    sums: dict[tuple[ZetaComposition, int], int] = {}
    get = sums.get
    for key, coeff in c.items():
        if isinstance(key, Word):
            expansion = _regularise_word(key.letters).items()
        elif isinstance(key, ZetaComposition):
            expansion = ((key, 1),)
        else:
            raise TypeError(f"cannot regularise term of type {type(key).__name__}")
        q, pi_exp = coeff.coeff, coeff.pi_exp
        m = q.numerator * (D // q.denominator)
        for comp, n in expansion:
            slot = (comp, pi_exp)
            sums[slot] = get(slot, 0) + m * n
    sums = {slot: q for slot, q in sums.items() if q}
    pi_exps: dict[ZetaComposition, int] = {}
    for comp, pi_exp in sums:
        first = pi_exps.setdefault(comp, pi_exp)
        if first != pi_exp:
            raise ValueError(f"cannot add pi^{first} and pi^{pi_exp} coefficients")
    return D, sums


def regularise(c: LinComb) -> LinComb:
    """Linear extension of regularise_word; composition keys pass through.

    Coefficients are summed per (composition, pi exponent) by
    regularise_sums, which rejects a composition left with two pi exponents.
    """
    D, sums = regularise_sums(c)
    return combine(
        (comp, PiRational(Fraction(q, D), pi_exp)) for (comp, pi_exp), q in sums.items()
    )


def shuffle_interiors(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """All interleavings of two letter sequences with multiplicities.

    The letters of u are inserted into v from left to right.  A state is
    the word so far and the first slot open to the next letter of u;
    states that agree on both are merged, so the work is bounded by the
    distinct states rather than by the interleavings.
    """
    states = {(tuple(v), 0): 1}
    for a in u:
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        for (w, first), mult in states.items():
            for p in range(first, len(w) + 1):
                key = (w[:p] + (a,) + w[p:], p + 1)
                nxt[key] = nxt.get(key, 0) + mult
        states = nxt
    out: dict[tuple[int, ...], int] = {}
    for (w, _), mult in states.items():
        out[w] = out.get(w, 0) + mult
    return out


def shuffle_words(u: tuple[int, ...], v: tuple[int, ...]) -> LinComb:
    """I(0;u;1) * I(0;v;1) as a sum of words; u, v are interiors."""
    return combine(
        (Word((0,) + mid + (1,)), mult)
        for mid, mult in shuffle_interiors(tuple(u), tuple(v)).items()
    )


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
