import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from blockzeta import regalgebra
from blockzeta.lincomb import LinComb, PiRational, TensorTerm, combine
from blockzeta.regalgebra import (
    _expand_leading,
    bernoulli,
    regularise,
    regularise_sums,
    regularise_word,
    shuffle_interiors,
    shuffle_words,
    stuffle_depth1,
    zeta_even_coeff,
    zeta_two_power,
)
from blockzeta.words import (
    ONE,
    Word,
    ZetaComposition,
    compositions,
    interior_to_mzv,
    word,
    word_to_mzv,
    zc,
)

from helpers import all_words


def divergence_relation(w: Word) -> LinComb:
    """Oracle: the divergence relation in closed form.

    For w = 0 0^k 1 0^{n1-1} ... 1 0^{nr-1} 1 with k >= 1, r >= 1,
    I(w) = (-1)^k sum over weak compositions (i_1..i_r) of k of
    prod C(n_j - 1 + i_j, i_j) I(0 1 0^{n1+i1-1} ... 1 0^{nr+ir-1} 1).
    """
    interior = w.interior
    k = interior.index(1)
    # n_j - 1 is the length of the zero-run after the j-th interior 1
    ns = []
    for x in interior[k:]:
        if x == 1:
            ns.append(1)
        else:
            ns[-1] += 1
    sign = -1 if k % 2 else 1
    terms = []
    for inc in compositions(k, len(ns)):
        coeff = sign
        out = [0]
        for n_j, i_j in zip(ns, inc):
            coeff *= comb(n_j - 1 + i_j, i_j)
            out.append(1)
            out.extend([0] * (n_j + i_j - 1))
        out.append(1)
        terms.append((Word(tuple(out)), coeff))
    return combine(terms)


def _left_divergent(w: Word) -> bool:
    """Bounds (0, 1), a 0 after the lower bound and a 1 in the interior."""
    letters = w.letters
    return letters[0] == 0 == letters[1] and letters[-1] == 1 and 1 in w.interior


def brute_shuffles(u, v):
    """Oracle: choose positions of u among len(u)+len(v) slots."""
    out = {}
    total = len(u) + len(v)
    for posns in itertools.combinations(range(total), len(u)):
        merged = [None] * total
        for p, x in zip(posns, u):
            merged[p] = x
        it = iter(v)
        for i in range(total):
            if merged[i] is None:
                merged[i] = next(it)
        key = tuple(merged)
        out[key] = out.get(key, 0) + 1
    return out


def _recursive_compositions(total, parts):
    """Oracle: weak compositions by recursion on the first entry."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


def _reference_expand_leading(w):
    """Divergence expansion until the first interior letter is 1."""
    if w.letters[0] == w.letters[-1]:
        return LinComb.zero()
    if w.weight == 0 or w.letters[1] == 1:
        return LinComb.term(w)
    if all(x == 0 for x in w.interior):
        return LinComb.zero()  # shuffle-power of I(0;0;1), regularised to 0
    return divergence_relation(w)


def _reference_regularise_word(w):
    """Oracle: the five regularisation steps, literally, without a cache.

    Normalise bounds, expand leading zeros, dualise every term, expand
    again, read MZVs.
    """
    letters = w.letters
    if w.weight == 0:
        return LinComb.term(ONE)
    if letters[0] == letters[-1]:
        return LinComb.zero()
    sign = -1 if w.weight % 2 else 1
    if letters[0] == 1:
        return _reference_regularise_word(w.reversed()) * sign

    def dualise(u):
        return _reference_expand_leading(u.dual()) * sign

    def read_off(v):
        if v.weight == 0:
            return LinComb.term(ONE)
        comp, mzv_sign = word_to_mzv(v)
        return LinComb.term(comp, mzv_sign)

    return _reference_expand_leading(w).map_terms(dualise).map_terms(read_off)


def _reference_regularise(c):
    """Oracle: the linear extension of _reference_regularise_word."""

    def per_term(key):
        if isinstance(key, Word):
            return _reference_regularise_word(key)
        if isinstance(key, ZetaComposition):
            return LinComb.term(key)
        raise TypeError(f"cannot regularise term of type {type(key).__name__}")

    return c.map_terms(per_term)


class TestCompositions:
    def test_matches_recursive_oracle(self):
        # totals -1..8 and 0..9 parts keep the boundary cases (a negative
        # total, no parts, more parts than the total) at 48 620 tuples
        end = object()
        for total in range(-1, 9):
            for parts in range(0, 10):
                pairs = itertools.zip_longest(
                    compositions(total, parts),
                    _recursive_compositions(total, parts),
                    fillvalue=end,
                )
                for got, expected in pairs:
                    assert got == expected, (total, parts)

    def test_small_cases(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(1, 0)) == []
        assert list(compositions(-1, 3)) == []


def _expansion(text: str) -> dict[Word, int]:
    """_expand_leading of a word, read back as words with bounds (0, 1)."""
    return {
        Word((0,) + u + (1,)): c for u, c in _expand_leading(word(text).interior).items()
    }


class TestDivergenceRelation:
    def test_worked_example(self):
        assert _expansion("0010111") == {
            word("0100111"): -2,
            word("0101011"): -1,
            word("0101101"): -1,
        }

    def test_single_group(self):
        assert _expansion("00101") == {word("01001"): -2}

    def test_convergent_leading_is_its_own_expansion(self):
        assert _expansion("0101") == {word("0101"): 1}

    def test_no_ones_expands_to_nothing(self):
        assert _expansion("0001") == {}

    def test_matches_closed_form(self):
        count = 0
        for L in range(3, 13):
            for w in all_words(L):
                if _left_divergent(w):
                    expansion = _expansion(str(w))
                    assert combine(expansion.items()) == divergence_relation(w), w
                    count += 1
        # interiors 0 u of L - 2 letters with a 1 in u
        assert count == sum(2 ** (L - 3) - 1 for L in range(3, 13))

    def test_expansion_size_is_counted_in_advance(self):
        # 0^k 1 v expands to C(k + j, j) interiors, j the ones of v
        for L in range(3, 12):
            for w in all_words(L):
                a = w.interior
                if 1 in a:
                    k, j = a.index(1), a.count(1) - 1
                    assert len(shuffle_interiors((0,) * k, a[k + 1 :])) == comb(k + j, j)
                    assert len(_expand_leading(a)) == comb(k + j, j)

    def test_outputs_start_with_one(self):
        for w in all_words(8):
            if _left_divergent(w):
                for out in _expand_leading(w.interior):
                    assert out[0] == 1
                    assert len(out) == w.weight


class TestRegularise:
    def test_worked_example_exact(self):
        out = regularise_word(word("0010111"))
        expected = LinComb(
            {
                zc(2, 3): PiRational(Fraction(2)),
                zc(3, 2): PiRational(Fraction(1)),
                zc(1, 4): PiRational(Fraction(6)),
            }
        )
        assert out == expected

    def test_convergent_words(self):
        assert regularise_word(word("0101")) == LinComb.term(zc(2), -1)
        assert regularise_word(word("010101")) == LinComb.term(zc(2, 2), 1)

    def test_unit_and_trivial(self):
        assert regularise_word(word("01")) == LinComb.term(ONE, 1)
        assert regularise_word(word("010")).is_zero
        assert regularise_word(word("0110")).is_zero

    def test_pure_zero_and_one_powers_vanish(self):
        assert regularise_word(word("0001")).is_zero
        assert regularise_word(word("0111")).is_zero

    def test_reversed_bounds(self):
        # I(1; a; 0) = (-1)^N I(0; reversed a; 1)
        w = word("10100")  # bounds (1, 0)
        flipped = word("00101")
        assert regularise_word(w) == regularise_word(flipped) * (-1)

    def test_output_always_convergent(self):
        for L in range(2, 11):
            for w in all_words(L):
                for comp, _ in regularise_word(w).items():
                    assert comp.is_convergent

    def test_matches_reference_for_every_short_word(self):
        # from a cold cache, up to 12 letters: the sweep regularises words of
        # 13 and 14 letters, whose expansions reach every shorter length
        regalgebra._REG_CACHE.clear()
        bounds = set()
        for L in range(2, 13):
            for w in all_words(L):
                assert regularise_word(w) == _reference_regularise_word(w), w
                bounds.add((w.letters[0], w.letters[-1]))
        assert bounds == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_mixed_keys_match_reference(self):
        comb = LinComb(
            {
                word("0010111"): PiRational(Fraction(3)),
                word("1101000"): PiRational(Fraction(-7, 2)),
                word("0011"): PiRational(Fraction(5, 3), 4),
                word("010"): PiRational(Fraction(2)),
                zc(2, 3): PiRational(Fraction(-6)),  # cancels 3 * 2 zeta(2,3)
                zc(3, 2): PiRational(Fraction(1, 4)),
                zc(3): PiRational(Fraction(-2, 9), 2),
                ONE: PiRational(Fraction(1, 5), 6),
            }
        )
        out = regularise(comb)
        assert out == _reference_regularise(comb)
        assert zc(2, 3) not in out.keys()
        assert out.get(zc(3)) == PiRational(Fraction(-2, 9), 2)
        # the integer sums behind it: one common denominator, keyed by the
        # interiors of convergent words, read off in the same order
        D, sums = regularise_sums(comb)
        assert D == 180
        read_off = []
        for (v, e), q in sums.items():
            comp, sign = interior_to_mzv(v)
            read_off.append((comp, PiRational(Fraction(sign * q, D), e)))
        assert read_off == list(out.items())
        for v, _ in sums:
            assert v == () or (v[0] == 1 and v[-1] == 0), v

    def test_cache_holds_interiors_only(self):
        for L in range(2, 11):
            for w in all_words(L):
                regularise_word(w)
        assert regalgebra._REG_CACHE
        for letters, terms in regalgebra._REG_CACHE.items():
            for v, n in terms.items():
                assert not isinstance(v, ZetaComposition), (letters, v)
                assert type(v) is tuple and type(n) is int, (letters, v, n)
                assert v == () or (v[0] == 1 and v[-1] == 0), (letters, v)

    def test_divergent_composition_rejected(self):
        comb = LinComb.term(zc(2, 1))
        for fn in (regularise, regularise_sums):
            with pytest.raises(ValueError, match="non-convergent composition z\\(2,1\\)"):
                fn(comb)
        with pytest.raises(ValueError, match="non-convergent"):
            regularise(LinComb.term(word("0101")) + comb)

    def test_two_pi_exponents_on_one_key(self):
        # regularise_word(0101) = -zeta(2)
        comb = LinComb({word("0101"): PiRational(Fraction(1), 2), zc(2): PiRational(Fraction(1))})
        for fn in (regularise, _reference_regularise):
            with pytest.raises(ValueError):
                fn(comb)

    def test_rejects_tensor_keys(self):
        comb = LinComb({TensorTerm(word("01"), word("0101"), 0): PiRational(Fraction(1))})
        for fn in (regularise, _reference_regularise):
            with pytest.raises(TypeError):
                fn(comb)

    def test_linearity(self):
        a, b = word("0010111"), word("00101")
        comb = LinComb({a: PiRational(Fraction(3)), b: PiRational(Fraction(-7, 2))})
        out = regularise(comb)
        expect = regularise_word(a) * 3 + regularise_word(b) * Fraction(-7, 2)
        assert out == expect


class TestShuffle:
    def test_spec_examples(self):
        out = shuffle_words((1, 0), (1, 0))
        assert out == LinComb(
            {word("010101"): PiRational(Fraction(2)), word("011001"): PiRational(Fraction(4))}
        )
        assert shuffle_words((), (1, 0)) == LinComb.term(word("0101"))
        assert shuffle_words((0,), (1,)) == LinComb(
            {word("0011"): PiRational(Fraction(1)), word("0101"): PiRational(Fraction(1))}
        )

    @given(
        st.lists(st.integers(0, 1), max_size=6),
        st.lists(st.integers(0, 1), max_size=6),
    )
    @settings(max_examples=100)
    def test_against_bruteforce_oracle(self, u, v):
        got = shuffle_interiors(tuple(u), tuple(v))
        assert got == brute_shuffles(tuple(u), tuple(v))

    def test_long_interior(self):
        # a recursion on the letters would nest 1 501 calls deep
        out = shuffle_interiors((1,), (0,) * 1500)
        assert len(out) == 1501
        assert set(out.values()) == {1}


class TestStuffle:
    def test_depth1_examples(self):
        assert stuffle_depth1(2, zc(3)) == LinComb(
            {zc(2, 3): PiRational(Fraction(1)), zc(3, 2): PiRational(Fraction(1)), zc(5): PiRational(Fraction(1))}
        )
        assert stuffle_depth1(2, zc(2)) == LinComb(
            {zc(2, 2): PiRational(Fraction(2)), zc(4): PiRational(Fraction(1))}
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            stuffle_depth1(1, zc(2))


class TestEvenZetas:
    def test_bernoulli(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_euler_values(self):
        assert zeta_even_coeff(1) == PiRational(Fraction(1, 6), 2)
        assert zeta_even_coeff(2) == PiRational(Fraction(1, 90), 4)
        assert zeta_even_coeff(3) == PiRational(Fraction(1, 945), 6)

    def test_two_powers(self):
        assert zeta_two_power(0) == PiRational(Fraction(1), 0)
        assert zeta_two_power(1) == PiRational(Fraction(1, 6), 2)
        assert zeta_two_power(2) == PiRational(Fraction(1, 120), 4)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            zeta_even_coeff(0)
