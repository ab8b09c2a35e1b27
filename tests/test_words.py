import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blockzeta import serial
from blockzeta.lincomb import LinComb
from blockzeta.regalgebra import stuffle_depth1
from blockzeta.words import (
    MAX_ORDERINGS,
    BlockDecomposition,
    ParseError,
    Word,
    ZetaComposition,
    block_decompose,
    blocks,
    convergent_words,
    distinct_orderings,
    interior_to_mzv,
    mzv_to_word,
    parse_ints,
    word,
    word_of,
    word_to_mzv,
    zc,
)

from helpers import all_words

words_st = st.lists(st.integers(0, 1), min_size=2, max_size=14).map(
    lambda bits: Word(tuple(bits))
)


class TestBlockDecompose:
    def test_example_w1(self):
        w1 = word("01010" + "01" + "1" + "1010101")
        assert block_decompose(w1) == blocks(0, 5, 2, 1, 7)

    def test_example_w2(self):
        w2 = word("1" + "101" + "1010" + "0" + "01010")
        assert block_decompose(w2) == blocks(1, 1, 3, 4, 1, 5)

    def test_single_alternating_block(self):
        assert block_decompose(word("01")) == blocks(0, 2)
        assert block_decompose(word("010101010101")) == blocks(0, 12)

    @given(words_st)
    def test_round_trip(self, w):
        assert word_of(block_decompose(w)) == w

    @given(words_st)
    def test_minimality(self, w):
        adjacencies = sum(
            1 for a, b in itertools.pairwise(w.letters) if a == b
        )
        assert block_decompose(w).n_blocks == adjacencies + 1

    def test_exhaustive_small(self):
        for L in range(2, 11):
            for w in all_words(L):
                B = block_decompose(w)
                assert word_of(B) == w
                adj = sum(1 for a, b in itertools.pairwise(w.letters) if a == b)
                assert B.n_blocks == adj + 1


class TestBlockPredicates:
    def test_weight(self):
        assert blocks(0, 5, 2, 1, 7).weight == 13
        assert blocks(0, 2).weight == 0
        for m in range(4):
            assert blocks(0, 3, 3, 2 * m + 2).weight == 2 * m + 6

    def test_trivial(self):
        assert blocks(0, 3).is_trivial
        assert not blocks(0, 5, 2, 1, 7).is_trivial
        for n in range(1, 4):
            assert not blocks(0, 4 * n + 2).is_trivial

    @given(words_st)
    def test_trivial_means_equal_bounds(self, w):
        assert block_decompose(w).is_trivial == (w.letters[0] == w.letters[-1])

    def test_divergent(self):
        assert blocks(0, 1, 3, 4, 1, 5).is_divergent
        assert not blocks(0, 5, 2, 1, 7).is_divergent
        assert not blocks(0, 2, 1, 6, 1, 2).is_divergent

    def test_divergence_lemma_matches_letters(self):
        # the length-1 end-block criterion, checked against raw letters
        for L in range(4, 10):
            for w in all_words(L):
                B = block_decompose(w)
                if B.is_trivial or B.weight <= 2:
                    continue
                lemma = B.lengths[0] == 1 or B.lengths[-1] == 1
                assert lemma == w.is_divergent


class TestDual:
    def test_hoffman_dual(self):
        m = 1
        D, sign = blocks(0, 3, 3, 2 * m + 2).dual()
        assert D == blocks(0, 2 * m + 2, 3, 3)
        assert sign == 1

    def test_self_dual_unit(self):
        assert blocks(0, 2).dual() == (blocks(0, 2), 1)

    def test_odd_weight_sign(self):
        assert blocks(0, 4, 3).dual() == (blocks(0, 3, 4), -1)

    def test_matches_word_dual(self):
        for L in range(2, 9):
            for w in all_words(L):
                B = block_decompose(w)
                if B.is_trivial:
                    continue
                D, _ = B.dual()
                assert word_of(D) == w.dual()

    @given(words_st)
    def test_involution(self, w):
        B = block_decompose(w)
        D, s1 = B.dual()
        E, s2 = D.dual()
        assert E == B and s1 * s2 == 1


class TestMzvWords:
    def test_zeta2(self):
        assert mzv_to_word(zc(2)) == (word("0101"), -1)

    def test_hoffman_blocks(self):
        for m in range(4):
            comp = ZetaComposition((3, 3) + (2,) * m)
            w, sign = mzv_to_word(comp)
            assert block_decompose(w) == blocks(0, 3, 3, 2 * m + 2)
            assert sign == (-1) ** (m + 2)

    def test_zeta13(self):
        assert mzv_to_word(zc(1, 3)) == (word("011001"), 1)

    def test_reject_divergent(self):
        with pytest.raises(ValueError):
            mzv_to_word(zc(2, 1))

    def test_word_to_mzv_inverse(self):
        for comp in (zc(2), zc(1, 3), zc(3, 3, 2)):
            w, sign = mzv_to_word(comp)
            back, sign2 = word_to_mzv(w)
            assert back == comp and sign2 == sign

    def test_round_trip_all_weights(self):
        for N in range(2, 9):
            for w in convergent_words(N):
                comp, _ = word_to_mzv(w)
                assert comp.is_convergent and comp.weight == N
                assert mzv_to_word(comp)[0] == w

    def test_reject_divergent_word(self):
        with pytest.raises(ValueError):
            word_to_mzv(word("0011"))

    def test_interior_read_off(self):
        for N in range(0, 9):
            for w in convergent_words(N):
                assert interior_to_mzv(w.interior) == word_to_mzv(w)
        for interior in ((1,), (0, 1, 0), (1, 0, 1), (0,)):
            with pytest.raises(ValueError, match="not that of a convergent word"):
                interior_to_mzv(interior)


class TestCompositionHash:
    """A composition hashes as the dataclass does, to hash((args,)), however it is built."""

    @staticmethod
    def built_every_way() -> list[list[ZetaComposition]]:
        """Groups of equal compositions, each member a separate object."""
        # z(2,3), z(3,2), z(5): sorted, as a LinComb's term order is not part of it
        stuffled = sorted(stuffle_depth1(2, zc(3)).keys(), key=lambda comp: comp.args)
        return [
            [zc(2, 3), ZetaComposition.parse("z(2,3)"), word_to_mzv(word("0101001"))[0], stuffled[0]],
            [zc(3, 2), ZetaComposition.parse(" z(3,2) "), word_to_mzv(word("0100101"))[0], stuffled[1]],
            [zc(5), ZetaComposition.parse("z(5)"), word_to_mzv(word("0100001"))[0], stuffled[2]],
            [zc(), ZetaComposition.parse("z()"), word_to_mzv(word("01"))[0]],
        ]

    def test_equal_compositions_hash_equal(self):
        groups = self.built_every_way()
        for group in groups:
            first = group[0]
            copies = [
                pickle.loads(pickle.dumps(first)),  # as a --jobs pool ships it
                copy.deepcopy(first),
                dataclasses.replace(first),
                dataclasses.replace(zc(7), args=first.args),
            ]
            for comp in group + copies:
                assert comp == first and hash(comp) == hash(first)
                assert hash(comp) == hash((comp.args,))  # the dataclass hash
                assert {first: 1}[comp] == 1
        distinct = {group[i] for group in groups for i in range(len(group))}
        assert len(distinct) == len(groups)

    def test_pickled_map_keeps_its_keys(self):
        sums = {comp: n for n, comp in enumerate(stuffle_depth1(2, zc(2, 3)).keys())}
        back = pickle.loads(pickle.dumps(sums))
        assert back == sums
        assert all(back[comp] == n for comp, n in sums.items())

    def test_fields_repr_and_json_unchanged(self):
        comp = zc(1, 3)
        assert [f.name for f in dataclasses.fields(comp)] == ["args"]
        assert dataclasses.asdict(comp) == {"args": (1, 3)}
        assert repr(comp) == "ZetaComposition(args=(1, 3))"
        assert serial.dumps(serial.lincomb_to_json(LinComb.term(comp, Fraction(-2, 3)))) == (
            '[{"coeff_den": "3", "coeff_num": "-2", "pi_exp": 0, '
            '"term": "z(1,3)", "term_kind": "zeta"}]'
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            comp.args = (2,)


class TestTextFormats:
    def test_word_parse_format(self):
        assert str(Word.parse("0110001")) == "0110001"
        with pytest.raises(ParseError) as err:
            Word.parse("01x0")
        assert err.value.pos == 2

    def test_blocks_parse_format(self):
        B = BlockDecomposition.parse("(0; 5,2,1,7)")
        assert B == blocks(0, 5, 2, 1, 7)
        assert str(B) == "(0; 5,2,1,7)"
        with pytest.raises(ParseError):
            BlockDecomposition.parse("(0: 1,2)")
        with pytest.raises(ParseError):
            BlockDecomposition.parse("(0; 1,x)")

    def test_zeta_parse_format(self):
        comp = ZetaComposition.parse("z(1,3)")
        assert comp == zc(1, 3)
        assert str(comp) == "z(1,3)"
        with pytest.raises(ParseError):
            ZetaComposition.parse("zeta(1)")

    def test_parse_ints(self):
        assert parse_ints("3", "x") == (3,)
        assert parse_ints(" 1, -2 ,+3", "x") == (1, -2, 3)
        with pytest.raises(ParseError, match=r"^bad entry 'x' \(at position 5\)$"):
            parse_ints("1, 2,x", "entry")
        with pytest.raises(ParseError) as err:
            parse_ints("1,,2", "entry", offset=10)
        assert (str(err.value), err.value.pos) == ("bad entry '' (at position 12)", 12)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (BlockDecomposition.parse, "(0; 1,x)", "bad block length 'x' (at position 6)"),
            (BlockDecomposition.parse, " (1;2, 3 ,y) ", "bad block length 'y' (at position 9)"),
            (BlockDecomposition.parse, "(0;)", "bad block length '' (at position 3)"),
            (ZetaComposition.parse, "z(1,a)", "bad zeta argument 'a' (at position 4)"),
            (ZetaComposition.parse, "z(2, ,3)", "bad zeta argument '' (at position 4)"),
            (ZetaComposition.parse, "z( 2 , ,3)", "bad zeta argument '' (at position 6)"),
        ],
    )
    def test_list_entries_are_named_with_their_position(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Word((0, True, 1)), "letters must be 0 or 1", id="word-bool"),
        pytest.param(lambda: Word((0, 1.0, 1)), "letters must be 0 or 1", id="word-float"),
        pytest.param(lambda: Word((0, [1], 1)), "letters must be 0 or 1", id="word-list"),
        pytest.param(lambda: zc(2.5), "positive integers", id="zeta-float"),
        pytest.param(lambda: zc(True, 2), "positive integers", id="zeta-bool"),
        pytest.param(lambda: zc(1, 2.0), "positive integers", id="zeta-whole-float"),
    ],
)
def test_non_integer_entries_raise_value_error(build, message):
    # a bool counts as not an int
    with pytest.raises(ValueError, match=message):
        build()


def test_int_subclass_letters_and_arguments_are_accepted():
    class Bit(int):
        pass

    assert Word((0, Bit(1), Bit(0), 1)).weight == 2
    assert zc(Bit(1), Bit(2)).weight == 3


class TestBlockCombinatorics:
    def test_distinct_orderings(self):
        assert list(distinct_orderings(())) == [()]
        for n in range(1, 7):
            for items in itertools.product((1, 2, 3), repeat=n):
                expected = sorted(set(itertools.permutations(items)))
                assert list(distinct_orderings(items)) == expected, items

    def test_distinct_orderings_ceiling(self):
        # counted before the first ordering: 8! = 40 320 pass, 9! = 362 880 do not
        assert len(list(distinct_orderings(tuple(range(8))))) == 40320 <= MAX_ORDERINGS
        assert len(list(distinct_orderings((1,) * 200 + (2,)))) == 201
        with pytest.raises(ValueError, match="configured ceiling"):
            next(distinct_orderings(tuple(range(9))))
