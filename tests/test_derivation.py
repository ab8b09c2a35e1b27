import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from blockzeta.derivation import (
    canonical_word,
    collapse_cyclic_rights,
    closure_comb,
    d_less_than_N,
    d_r,
    kernel_report,
)
from blockzeta.identities import cyclic_sum, gen_symmetric
from blockzeta.lincomb import LinComb, PiRational, TensorTerm, combine
from blockzeta.reflect import reflective_closure
from blockzeta.words import (
    BlockDecomposition,
    Word,
    block_decompose,
    blocks,
    least_rotation,
    rotations,
    word,
    word_of,
)

from helpers import all_words


def oracle_d_r(comb, r):
    """Literal formula enumeration, canonicalised afterwards (the oracle)."""
    terms = []
    for w, coeff in comb.items():
        letters = w.letters
        N = len(letters) - 2
        for p in range(0, N - r + 1):
            cut = letters[p : p + r + 2]
            quot = letters[: p + 1] + letters[p + r + 1 :]
            if cut[0] == cut[-1]:
                continue
            rep, sign = canonical_word(Word(cut))
            if sign == 0:
                continue
            terms.append((TensorTerm(rep, Word(quot), r), coeff * sign))
    return combine(terms)


def random_word(rng, weight):
    interior = tuple(rng.randint(0, 1) for _ in range(weight))
    return Word((rng.randint(0, 1),) + interior + (rng.randint(0, 1),))


class TestCanonicalWord:
    def test_representative_is_least(self):
        w = word("011010101")
        rep, sign = canonical_word(w)
        orbit = {w.letters, w.letters[::-1],
                 tuple(1 - x for x in w.letters),
                 tuple(1 - x for x in w.letters[::-1])}
        assert rep.letters == min(orbit)
        assert sign in (-1, 1)

    def test_sign_zero_when_the_symmetries_conflict(self):
        # 010 is its own reverse, which carries the sign -1 at odd length
        assert canonical_word(word("010")) == (word("010"), 0)

    def test_cuts_never_get_sign_zero(self):
        # every cut of d_r: odd length r + 2 and distinct end letters
        count = 0
        for length in range(3, 16, 2):
            for w in all_words(length):
                if w.letters[0] != w.letters[-1]:
                    count += 1
                    assert canonical_word(w)[1] != 0, w
        assert count == 21844

    def test_sign_law(self):
        # reversal and dual flip the sign exactly for odd letter length
        rng = random.Random(5)
        for _ in range(300):
            L = rng.choice((5, 7, 9))
            w = Word(tuple(rng.randint(0, 1) for _ in range(L)))
            if w.letters[0] == w.letters[-1]:
                continue
            rep, sign = canonical_word(w)
            rep_r, sign_r = canonical_word(w.reversed())
            rep_d, sign_d = canonical_word(w.dual())
            rep_f, sign_f = canonical_word(w.flipped())
            assert rep_r == rep_d == rep_f == rep
            assert sign_r == -sign and sign_d == -sign and sign_f == sign


class TestDerivation:
    def test_oracle_agreement_random(self):
        rng = random.Random(6)
        for _ in range(40):
            weight = rng.randint(5, 10)
            comb = combine(
                (random_word(rng, weight), rng.choice((1, -1, 2)))
                for _ in range(rng.randint(1, 3))
            )
            for r in range(3, weight, 2):
                assert d_r(comb, r) == oracle_d_r(comb, r)

    def test_oracle_agreement_exhaustive_small(self):
        for length in range(6, 11):  # weights 4..8
            weight = length - 2
            for w in all_words(length):
                comb = LinComb.term(w, 1)
                for r in range(3, weight, 2):
                    assert d_r(comb, r) == oracle_d_r(comb, r)

    def test_d3_depth2_example(self):
        comb = LinComb.term(word("010101"), 1)
        assert d_r(comb, 3) == oracle_d_r(comb, 3)

    def test_precondition(self):
        with pytest.raises(ValueError):
            d_r(LinComb.term(word("0101"), 1), 3)  # r >= weight
        with pytest.raises(ValueError):
            d_r(LinComb.term(word("01010101"), 1), 4)  # even grade

    def test_d_less_than_grades(self):
        comb = LinComb.term(word_of(blocks(0, 4, 4, 4)), 1)  # weight 10
        grades = {t.grade for t, _ in d_less_than_N(comb).items()}
        assert grades <= {3, 5, 7, 9}
        small = LinComb.term(word("01011"), 1)  # weight 3, empty range
        assert d_less_than_N(small).is_zero

    def test_d_less_than_is_sum_of_oracle_grades(self):
        comb = cyclic_sum((2, 10, 3, 2))  # weight 15: the criterion-4 residue
        res = d_less_than_N(comb)
        assert len(res) == 80
        assert {t.grade for t, _ in res.items()} == {3, 5, 7, 9, 11, 13}
        oracle = LinComb.zero()
        for r in range(3, 15, 2):
            oracle = oracle + oracle_d_r(comb, r)
        assert res == oracle

    def test_mixed_weight_rejected(self):
        comb = LinComb({word("010101"): PiRational(Fraction(1)),
                        word("0101"): PiRational(Fraction(1))})
        with pytest.raises(ValueError):
            d_less_than_N(comb)


class TestKernelReport:
    def test_rejects_weight_below_two(self):
        for lengths in ((2,), (1, 2)):
            with pytest.raises(ValueError, match="needs weight >= 2"):
                kernel_report(closure_comb(reflective_closure([blocks(0, *lengths)])))
        assert kernel_report(LinComb.zero()).vanishes  # nothing to claim

    def test_reflective_closure_vanishes(self):
        S = reflective_closure([blocks(0, 2, 3, 3)])
        rep = kernel_report(closure_comb(S))
        assert rep.vanishes
        assert "zeta(6)" in rep.conclusion

    def test_symmetric_insertion_vanishes(self):
        ident = gen_symmetric(blocks(0, 2, 4, 4))
        assert kernel_report(ident.lhs).vanishes

    def test_desk_scale_closures(self):
        rng = random.Random(7)
        done = 0
        while done < 25:
            n = rng.randint(2, 5)
            lengths = tuple(rng.randint(1, 4) for _ in range(n))
            B = blocks(0, *lengths)
            if B.is_trivial or B.weight % 2 or B.weight < 4 or B.weight > 12:
                continue
            S = reflective_closure([B])
            assert kernel_report(closure_comb(S)).vanishes
            done += 1

    def test_cyclic_sum_residue_not_a_disproof(self):
        rep = kernel_report(cyclic_sum((2, 10, 3, 2)))
        assert not rep.vanishes
        assert "not a disproof" in rep.conclusion


LEFT = word("01011")


def orbit(lengths, grade=3, coeffs=None, rotations=None):
    """Sum of LEFT (x) I_bl(rotation) over the first `rotations` rotations."""
    n = len(lengths)
    rights = [word_of(blocks(0, *lengths[i:], *lengths[:i])) for i in range(n)]
    coeffs = coeffs or [1] * n
    pairs = list(zip(rights, coeffs))[:rotations]
    return combine((TensorTerm(LEFT, right, grade), c) for right, c in pairs)


class TestD7Residue:
    def test_collapsed_residue_matches_display(self):
        res = d_r(cyclic_sum((2, 10, 3, 2)), 7)
        collapsed = collapse_cyclic_rights(res)
        # the four-term left factor tensored with the single weight-8 block;
        # (2,3,2,2) is forced: a grade-7 cut has 9 letters, so the
        # sometimes-quoted (2,3,2,3) reading is an arithmetic slip
        expected = LinComb.zero()
        right = word_of(blocks(0, 10))
        for lens in ((6, 3), (3, 3, 2, 1), (2, 3, 2, 2), (1, 2, 2, 4)):
            w = word_of(blocks(0, *lens))
            rep, sign = canonical_word(w)
            expected = expected + LinComb.term(TensorTerm(rep, right, 7), sign)
        assert collapsed == expected

    def test_collapse_skips_orbits_with_adjacent_unit_blocks(self):
        collapsed = LinComb.term(TensorTerm(LEFT, word_of(blocks(0, 8)), 3))
        assert collapse_cyclic_rights(orbit((1, 2, 1, 4))) == collapsed
        assert collapse_cyclic_rights(orbit((1, 1, 2, 4))) == orbit((1, 1, 2, 4))


class TestCollapseCyclicRights:
    def test_orbit_missing_a_rotation_is_kept(self):
        partial = orbit((1, 2, 1, 4), rotations=3)
        assert collapse_cyclic_rights(partial) == partial

    def test_orbit_with_unequal_coefficients_is_kept(self):
        uneven = orbit((1, 2, 1, 4), coeffs=[1, 1, 1, 2])
        assert collapse_cyclic_rights(uneven) == uneven

    def test_orbits_are_collapsed_per_grade(self):
        full3 = orbit((1, 2, 1, 4), grade=3)
        partial5 = orbit((1, 2, 1, 4), grade=5, rotations=3)
        collapsed3 = LinComb.term(TensorTerm(LEFT, word_of(blocks(0, 8)), 3))
        assert collapse_cyclic_rights(full3 + partial5) == collapsed3 + partial5


@dataclass
class StabilityGroup:
    left_word: Word  # canonical representative
    left_blocks: tuple[int, ...]
    right_b: tuple[int, ...]  # orbit representative of the quotient blocks
    coefficient: int
    join_values: tuple[int, ...]
    is_full_cycle: bool
    m_plus_k: int


@dataclass
class StabilityReport:
    lengths: tuple[int, ...]
    r: int
    groups: list[StabilityGroup] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        n = len(self.lengths)
        return all(g.is_full_cycle and g.m_plus_k == n + 1 for g in self.groups)


def stability_shape(lengths: tuple[int, ...], r: int) -> StabilityReport:
    """Group D_r of a cyclic sum by canonical left factor, test the cycle law.

    The terms are grouped by left factor, then by the necklace of the
    right factor's block lengths.  Each group's quotient factors must
    split into full cyclic sums over C_k with uniform coefficient and
    (left blocks) + k = n + 1; every b entry is an original length or one
    alpha+beta+2 join.  A group that is not a full cycle reports
    coefficient 0.
    """
    lengths = tuple(lengths)
    report = StabilityReport(lengths, r)
    if len(lengths) == 1:
        return report  # nothing to group; trivially stable
    grouped = {}
    for term, coeff in d_r(cyclic_sum(lengths), r).items():
        rep = least_rotation(block_decompose(term.right).lengths)
        grouped.setdefault((term.left, rep), {})[term.right] = coeff
    for (left, rep), quots in sorted(grouped.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        eps = next(iter(quots)).letters[0]
        orbit = {word_of(BlockDecomposition(eps, rot)) for rot in rotations(rep)}
        coeffs = set(quots.values())
        full = set(quots) == orbit and len(coeffs) == 1
        left_blocks = block_decompose(left).lengths
        extra = list(rep)
        for l in lengths:
            if l in extra:
                extra.remove(l)
        report.groups.append(
            StabilityGroup(
                left_word=left,
                left_blocks=left_blocks,
                right_b=rep,
                coefficient=int(coeffs.pop().coeff) if full else 0,
                join_values=tuple(extra),
                is_full_cycle=full,
                m_plus_k=len(left_blocks) + len(rep),
            )
        )
    return report


#: stability_shape(lengths, 3), one row per group: (left word, right_b,
#: coefficient, join values, m + k).
GRADE3_GROUPS = {
    (2, 3, 4): [
        ("00101", (2, 4), 1, (), 4),
        ("00101", (3, 3), -2, (3,), 4),
        ("01001", (2, 4), -1, (), 4),
        ("01001", (3, 3), 2, (3,), 4),
    ],
    (1, 1, 2, 3): [
        ("00011", (4,), 1, (4,), 5),
        ("01001", (1, 1, 2), -1, (), 5),
    ],
}


class TestStability:
    def test_233_grade3(self):
        rep = stability_shape((2, 3, 3), 3)
        assert rep.holds and rep.groups == []  # D_3 of this cyclic sum cancels

    @pytest.mark.parametrize("lengths", list(GRADE3_GROUPS))
    def test_grade3_groups(self, lengths):
        rep = stability_shape(lengths, 3)
        assert rep.holds
        rows = [
            (str(g.left_word), g.right_b, g.coefficient, g.join_values, g.m_plus_k)
            for g in rep.groups
        ]
        assert rows == GRADE3_GROUPS[lengths]
        assert all(g.is_full_cycle and g.m_plus_k == len(lengths) + 1 for g in rep.groups)

    def test_single_block_trivial(self):
        rep = stability_shape((12,), 3)
        assert rep.holds and rep.groups == []

    def test_2_10_3_2_grade7(self):
        rep = stability_shape((2, 10, 3, 2), 7)
        assert rep.holds
        singles = [g for g in rep.groups if len(g.right_b) == 1]
        assert singles and all(g.right_b == (10,) for g in singles)

    def test_join_values(self):
        for lengths in ((2, 3, 3), *GRADE3_GROUPS):
            for g in stability_shape(lengths, 3).groups:
                assert len(g.join_values) <= 1
                total = sum(g.left_blocks) + sum(g.right_b)
                assert total == sum(lengths) + 2  # boundary letters shared
