import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from blockzeta.identities import (
    Identity,
    Zeta123Form,
    alt_sum,
    compute_Lk,
    cyclic_sum,
    gen_altodd_even,
    gen_altodd_odd,
    gen_bbbl,
    gen_composition_sums,
    gen_cyc123,
    gen_cyclic_basic,
    gen_cyclic_full,
    gen_double_alt,
    gen_general_hoffman,
    gen_hoffman,
    gen_symmetric,
    gen_thm_2_7_1,
    gen_z13312_sym,
)
from blockzeta.lincomb import LinComb, PiRational, TensorTerm
from blockzeta.rank import _compositions_pos, cyclic_family
from blockzeta.regalgebra import shuffle_words
from blockzeta.words import (
    BlockDecomposition,
    ZetaComposition,
    block_decompose,
    blocks,
    has_cyclic_adjacent_ones,
    mzv_to_word,
    word,
    word_of,
    word_to_mzv,
    zc,
)

from cyc_reference import cyc, cyc_orbit, orbit_sum, parse_123


class TestIdentity:
    def test_rejects_tensor_terms(self):
        lhs = LinComb.term(TensorTerm(word("01011"), word("0101"), 3))
        with pytest.raises(ValueError, match="identity terms are words or zeta values"):
            Identity("cyclic-basic", {}, 3, lhs, None)


@pytest.mark.parametrize(
    "generate, args",
    [
        pytest.param(gen_hoffman, ("a", 0, 0), id="hoffman-str"),
        pytest.param(gen_hoffman, (0.5, 0, 0), id="hoffman-float"),
        pytest.param(gen_hoffman, (True, 0, 0), id="hoffman-bool"),
        pytest.param(gen_bbbl, (("x",),), id="bbbl-str"),
        pytest.param(gen_composition_sums, ("z1333-compsum", 0.5), id="compsum-float"),
        pytest.param(gen_general_hoffman, (1, (0.5, 0), 0), id="general-hoffman-float"),
        pytest.param(gen_thm_2_7_1, ("a",), id="thm-2-7-1-str"),
    ],
)
def test_non_integer_parameters_raise_value_error(generate, args):
    with pytest.raises(ValueError, match="integer"):
        generate(*args)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: gen_cyclic_full((2, 3.5, 1)), "block lengths", id="cyclic-full"),
        pytest.param(lambda: gen_double_alt((1, 2, 3, 5.5)), "block lengths", id="double-alt"),
        pytest.param(lambda: gen_altodd_odd((2, 3, 4, 5), 7.5), "x must be", id="altodd-odd-x"),
        pytest.param(
            lambda: gen_altodd_even((2, 3, "a", 3, 5)), "block lengths", id="altodd-even"
        ),
        pytest.param(
            lambda: gen_symmetric(BlockDecomposition(0, (2, 3.5, 1))), "block lengths",
            id="symmetric",
        ),
        pytest.param(lambda: gen_cyclic_basic((2, True, 3)), "block lengths", id="cyclic-basic"),
        pytest.param(lambda: BlockDecomposition(True, (2, 3)), "eps1 must be 0 or 1", id="eps1"),
    ],
)
def test_non_integer_blocks_raise_value_error(build, message):
    # a bool counts as not an int
    with pytest.raises(ValueError, match=message):
        build()


class TestComputeLk:
    def test_paper_examples(self):
        assert sorted(compute_Lk((1, 1, 1, 2, 3), 2)) == [(1, 2, 3), (2, 3, 1)]
        assert compute_Lk((1, 1, 1, 1, 2, 3), 4) == [(2, 3)]

    def test_no_adjacent_ones_empty(self):
        for k in (2, 3, 4):
            assert compute_Lk((2, 1, 6, 1, 2), k) == []

    def test_multiset_semantics(self):
        # repeated rotations stay repeated
        out = compute_Lk((1, 1, 1, 1), 2)
        assert len(out) == 4


class TestCyclicFamilies:
    def test_basic_five_term_example(self):
        ident = gen_cyclic_basic((2, 1, 6, 1, 2))
        assert ident.weight == 10
        rotations = {
            word_of(blocks(0, *rot))
            for rot in [
                (2, 1, 6, 1, 2),
                (1, 6, 1, 2, 2),
                (6, 1, 2, 2, 1),
                (1, 2, 2, 1, 6),
                (2, 2, 1, 6, 1),
            ]
        }
        keys = set(ident.lhs.keys())
        assert rotations <= keys
        assert word_of(blocks(0, 12)) in keys  # the single-block term
        assert ident.rhs == PiRational(Fraction(0))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            gen_cyclic_basic((8,))
        with pytest.raises(ValueError):
            gen_cyclic_basic((1, 1, 2, 3, 3))
        with pytest.raises(ValueError):
            gen_cyclic_basic((2, 2))  # trivial decomposition

    def test_basic_matches_its_own_construction(self):
        # at N = 2, 3 every class has adjacent ones
        classes = [
            c for N in range(2, 11) for c in cyclic_family(N) if not has_cyclic_adjacent_ones(c)
        ]
        assert len(classes) > 100
        for lengths in classes:
            assert gen_cyclic_basic(lengths) == cyclic_basic_oracle(lengths), lengths

    @pytest.mark.parametrize(
        "lengths", [(), (1,), (8,), (2, 2), (1, 1), (1, 1, 2, 3, 3), (0, 3), (1, 1, 2)]
    )
    def test_basic_rejects_as_its_own_construction(self, lengths):
        with pytest.raises(ValueError) as expected:
            cyclic_basic_oracle(lengths)
        with pytest.raises(ValueError) as got:
            gen_cyclic_basic(lengths)
        assert str(got.value) == str(expected.value)

    def test_full_reduces_to_basic_without_ones(self):
        basic = gen_cyclic_basic((2, 1, 6, 1, 2))
        full = gen_cyclic_full((2, 1, 6, 1, 2))
        assert basic.lhs == full.lhs

    def test_full_symbolic_display(self):
        # the four-block run-of-ones case: correction -2 I_bl(4) I_bl(2,3)
        ident = gen_cyclic_full((1, 1, 2, 3), mode="symbolic")
        manual = cyclic_sum((1, 1, 2, 3))
        manual = manual + shuffle_words(
            word_of(blocks(0, 4)).interior, word_of(blocks(0, 2, 3)).interior
        ) * Fraction(2)
        assert ident.lhs == manual  # I_bl(9) is trivial and omitted

    def test_full_transcendental_coefficients(self):
        ident = gen_cyclic_full((1, 1, 2, 3))
        corr = [c for _, c in ident.lhs.items() if c.pi_exp]
        assert corr and all(c.pi_exp == 2 for c in corr)
        assert all(c.coeff == Fraction(-1, 3) for c in corr)  # -A_1 = -pi^2/3


class TestSymmetric:
    def test_equal_lengths_multiplicity(self):
        ident = gen_symmetric(blocks(0, 2, 2, 2))
        assert len(ident.lhs) == 1
        assert ident.lhs.get(word_of(blocks(0, 2, 2, 2))).coeff == 6
        assert ident.rhs is None

    def test_all_permutations(self):
        ident = gen_symmetric(blocks(0, 2, 4, 4))
        assert sum(c.coeff for _, c in ident.lhs.items()) == 6

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            gen_symmetric(blocks(0, 4, 3))

    def test_matches_every_permutation(self):
        for lengths in [(2, 2, 2), (1, 1, 2, 2, 2), (2, 2, 3, 3, 4), (1, 2, 1, 2, 1, 2, 1)]:
            brute = sum(
                (LinComb.term(word_of(blocks(0, *p))) for p in itertools.permutations(lengths)),
                LinComb.zero(),
            )
            assert gen_symmetric(blocks(0, *lengths)).lhs == brute, lengths

    def test_many_repeats_weighted_not_walked(self):
        # 11! permutations, 11 distinct words, each standing for 10! of them
        ident = gen_symmetric(blocks(0, *(1,) * 10, 2))
        assert ident.weight == 10 and len(ident.lhs) == 11
        assert {c.coeff for _, c in ident.lhs.items()} == {factorial(10)}

    def test_orderings_of_a_long_input_without_recursion(self):
        # 1 001 lengths: deeper than the recursion limit if walked recursively
        ident = gen_symmetric(blocks(0, *(1,) * 1000, 2))
        assert ident.weight == 1000 and len(ident.lhs) == 1001
        assert {c.coeff for _, c in ident.lhs.items()} == {factorial(1000)}


class TestCycOperator:
    def test_case_i(self):
        # cyc(z(3,3 | 1,2,3)) = -z(3,(1,2) | 2,3,1)
        z = Zeta123Form(("3", "3"), (1, 2, 3))
        image = Zeta123Form(("3", "T"), (2, 3, 1)).expand()
        assert gen_cyc123(z).lhs.get(image) == PiRational(Fraction(-1))

    def test_bbbl_shift_by_two(self):
        # cyc(z(1,3,1,3 | 0,1,2,3,4)) = +z(1,3,1,3 | 2,3,4,0,1)
        z = Zeta123Form(("1", "3", "1", "3"), (0, 1, 2, 3, 4))
        image = Zeta123Form(("1", "3", "1", "3"), (2, 3, 4, 0, 1)).expand()
        assert gen_cyc123(z).lhs.get(image) == PiRational(Fraction(1))

    def test_orbit_closes_with_positive_sign(self):
        rng = random.Random(8)
        for _ in range(40):
            z = random_form(rng)
            orbit = cyc_orbit(z)
            last, sign = cyc(orbit[-1][0])
            assert last == z
            assert orbit[-1][1] * sign == 1

    def test_block_shift_interpretation(self):
        # each cyc step is the cyclic shift to the next 0-starting block
        rng = random.Random(9)
        for _ in range(40):
            z = random_form(rng)
            lengths = block_decompose(mzv_to_word(z.expand())[0]).lengths
            rotations = {lengths[i:] + lengths[:i] for i in range(len(lengths))}
            for form, _ in cyc_orbit(z):
                got = block_decompose(mzv_to_word(form.expand())[0]).lengths
                assert got in rotations

    def test_invalid_forms_rejected(self):
        with pytest.raises(ValueError):
            Zeta123Form(("T", "3"), (0, 0, 0))
        with pytest.raises(ValueError):
            Zeta123Form(("1", "1"), (0, 0, 0))
        with pytest.raises(ValueError):
            Zeta123Form(("1",), (0, 0))  # '1' must be followed by '3'


def random_form(rng):
    pieces = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            pieces.append(("3",))
        else:
            pieces.append(("T",) * rng.randint(0, 2) + ("1", "3"))
    if rng.random() < 0.4:
        pieces.append(("T",) * rng.randint(1, 2))
    tokens = tuple(t for p in pieces for t in p)
    bs = tuple(rng.randint(0, 2) for _ in range(len(tokens) + 1))
    return Zeta123Form(tokens, bs)


class TestParse123:
    def test_round_trip(self):
        rng = random.Random(10)
        for _ in range(60):
            z = random_form(rng)
            assert parse_123(z.expand()) == z

    def test_rejects_non_123(self):
        with pytest.raises(ValueError):
            parse_123(zc(4))
        with pytest.raises(ValueError):
            parse_123(zc(1, 1, 2))


class TestCyc123Identities:
    def test_thm_271_five_terms(self):
        # z_cyc(1,3,3,(1,2) | m,0,0,0,0) for m = 2, all five members
        m = 2
        ident = gen_thm_2_7_1(m)
        expected = {
            ZetaComposition((2,) * m + (1, 3, 3, 1, 2)): 1,
            ZetaComposition((3, 1, 2, 1) + (2,) * m + (3,)): 1,
            ZetaComposition((1, 2, 1) + (2,) * m + (3, 1, 2)): -1,
            ZetaComposition((1, 2, 1, 3, 3) + (2,) * m): 1,
            ZetaComposition((3,) + (2,) * m + (1, 3, 3)): -1,
        }
        got = {k: c.coeff for k, c in ident.lhs.items()}
        assert got == expected
        assert ident.rhs == PiRational(
            Fraction(1, factorial(2 * m + 11)), 2 * m + 10
        )

    def test_hoffman_rhs_and_duality_merge(self):
        for m in range(3):
            ident = gen_hoffman(0, 0, m)
            wt = 2 * m + 6
            assert ident.rhs == PiRational(Fraction(-1, factorial(wt + 1)), wt)
            # first and third orbit members are dual compositions
            comps = {k: c.coeff for k, c in ident.lhs.items()}
            z33 = ZetaComposition((3, 3) + (2,) * m)
            z_dual = word_to_mzv(mzv_to_word(z33)[0].dual())[0]
            assert comps[z33] == 1 and comps[z_dual] == 1

    def test_sign_parity_examples(self):
        assert gen_cyc123(Zeta123Form(("1", "3", "3", "3"), (0,) * 5)).rhs.coeff < 0
        assert gen_cyc123(Zeta123Form(("1", "3", "3", "T"), (0,) * 5)).rhs.coeff > 0
        odd = gen_cyc123(Zeta123Form(("1", "3", "3"), (0,) * 4))
        assert odd.rhs == PiRational(Fraction(0))
        assert len(odd.lhs) == 4

    def test_orbit_sum_equals_block_cyclic_sum(self):
        # (-1)^d sum_j cyc^j z = sum_{C_n} I_bl as word combinations
        rng = random.Random(11)
        for _ in range(25):
            z = random_form(rng)
            d = z.depth
            words = LinComb.zero()
            for form, sign in cyc_orbit(z):
                w, s = mzv_to_word(form.expand())
                words = words + LinComb.term(w, sign * s)
            lengths = block_decompose(mzv_to_word(z.expand())[0]).lengths
            assert words * ((-1) ** d) == cyclic_sum(lengths)

    def test_every_small_form_matches_reference(self):
        # all 4 665 forms with at most four tokens and every b <= 2: the
        # block-rotation orbit equals the token orbit, and the rhs is
        # (-1)^((N/2 - d) mod 2) pi^N / (N+1)! at even weight N, else 0
        checked = 0
        for n in range(5):
            for tokens in itertools.product(("1", "3", "T"), repeat=n):
                for bs in itertools.product(range(3), repeat=n + 1):
                    try:
                        z = Zeta123Form(tokens, bs)
                    except ValueError:
                        break  # the tokens are invalid for every bs
                    ident = gen_cyc123(z)
                    assert ident.lhs == orbit_sum(z), z
                    N, d = z.weight, z.depth
                    if N % 2:
                        assert ident.rhs == PiRational(Fraction(0)), z
                    else:
                        sign = (-1) ** ((N // 2 - d) % 2)
                        assert ident.rhs == PiRational(
                            Fraction(sign, factorial(N + 1)), N
                        ), z
                    checked += 1
        assert checked == 4665

    def test_general_hoffman_reduces_to_hoffman(self):
        g = gen_general_hoffman(1, (0, 0), 1)
        h = gen_hoffman(0, 0, 1)
        assert g.lhs == -h.lhs
        assert g.rhs == -h.rhs

    def test_general_hoffman_n2_weight_and_sign(self):
        # 2n threes: weight 6n + 2(sum b + c), always even; sign -(-1)^n
        ident = gen_general_hoffman(2, (0, 0, 0, 0), 0)
        assert ident.weight == 12
        assert ident.rhs == PiRational(Fraction(-1, factorial(13)), 12)

    def test_bbbl_rhs_positive(self):
        ident = gen_bbbl((0, 1, 0))
        wt = 4 + 2
        assert ident.rhs == PiRational(Fraction(1, factorial(wt + 1)), wt)


class TestCompositionSums:
    def test_bowman_bradley_counts(self):
        ident = gen_composition_sums("bowman-bradley", m=1, n=1)
        assert sum(c.coeff for _, c in ident.lhs.items()) == comb(1 + 2, 1)
        assert ident.rhs == PiRational(Fraction(3, 3 * factorial(7)), 6)

    def test_z1333_single_composition(self):
        ident = gen_composition_sums("z1333-compsum", m=0)
        assert ident.rhs == PiRational(Fraction(-1, factorial(11)), 10)
        assert len(ident.lhs) == 5

    def test_z1333_coefficient_counts_compositions(self):
        # one lot per composition of m into five non-negative parts
        ident = gen_composition_sums("z1333-compsum", m=1)
        assert ident.rhs == PiRational(Fraction(-5, factorial(13)), 12)

    def test_further_family_m2(self):
        ident = gen_composition_sums("further-13332n", m=2)
        assert ident.rhs == PiRational(Fraction(-3, factorial(15)), 14)
        with pytest.raises(ValueError):
            gen_composition_sums("further-13332n", m=1)

    @pytest.mark.parametrize(
        "kind, m, n",
        [
            ("bowman-bradley", 2, -1),
            ("bowman-bradley", -1, 1),
            ("z1333-compsum", -1, 1),
            ("further-13332n", 2, -1),
        ],
    )
    def test_rejects_negative_parameters(self, kind, m, n):
        with pytest.raises(ValueError, match="m, n >= 0"):
            gen_composition_sums(kind, m=m, n=n)

    def test_z13312_sym_degenerate(self):
        ident = gen_z13312_sym((0, 0, 0, 0, 0))
        assert ident.rhs == PiRational(Fraction(-24, factorial(11)), 10)

    def test_z13312_sym_needs_five_parameters(self):
        for b in [(), (0, 1), (0, 0, 0, 0, 0, 0)]:
            with pytest.raises(ValueError, match="five b parameters"):
                gen_z13312_sym(b)

    def test_symmetrised_families_verify(self):
        from blockzeta.numerics import verify

        for ident in (
            gen_composition_sums("z1333-compsum", m=1),
            gen_composition_sums("further-13332n", m=2),
            gen_z13312_sym((0, 0, 0, 0, 0)),
            gen_thm_2_7_1(1),
        ):
            assert verify(ident, 35).status == "verified", ident.describe()


class TestAltFamilies:
    def test_alt_sum_antisymmetry(self):
        comb = alt_sum((1, 2, 3), (1, 3))
        swapped = alt_sum((3, 2, 1), (1, 3))
        assert comb == -swapped

    def test_alt_sum_antisymmetric_in_each_group(self):
        # the double-alt groups of six blocks: swapping two values inside
        # either group negates the sum
        groups = ((1, 4, 6), (2, 3, 5))
        comb = alt_sum((1, 2, 3, 4, 5, 6), *groups)
        assert not comb.is_zero
        assert comb == gen_double_alt((1, 2, 3, 4, 5, 6)).lhs
        assert alt_sum((4, 2, 3, 1, 5, 6), *groups) == -comb
        assert alt_sum((1, 5, 3, 4, 2, 6), *groups) == -comb
        assert alt_sum((1, 2, 3, 4, 5, 1), *groups).is_zero

    def test_repeated_values_vanish(self):
        assert alt_sum((2, 1, 2), (1, 3)).is_zero
        ident = gen_altodd_even((2, 3, 2, 3, 2))
        assert ident.lhs.is_zero

    def test_altodd_even_structure(self):
        ident = gen_altodd_even((3, 3, 2, 3, 5))
        assert ident.weight == 14
        assert ident.rhs == PiRational(Fraction(0))
        total = sum(c.coeff for _, c in ident.lhs.items())
        assert total == 0  # signed permutation sum

    def test_altodd_odd_rows_match_display(self):
        # the displayed strings of R_1 and R_2, odd lengths alternated in
        # the marked slots; rows signed +, -
        l1, l2, l3, l4 = 2, 3, 4, 5
        x = 7  # x + l1 + l3 = 13 is odd
        expected = (
            alt_sum((x - l4, l1, l4, l3), (2, 4))
            + alt_sum((l1, x - l4, l4, l3), (1, 4))
            - alt_sum((l1, l2, x - l2, l3), (1, 4))
            - alt_sum((l1, l2, l3, x - l2), (1, 3))
        )
        assert not expected.is_zero
        assert gen_altodd_odd((l1, l2, l3, l4), x).lhs == expected

    @pytest.mark.parametrize("N", [3, 5, 7, 9, 11])
    def test_altodd_odd_matches_row_oracle(self, N):
        # every (lengths, x) that the odd-weight rank sweep draws; its x
        # leaves x - sum(E_i) >= N + 2 - sum(lengths) >= 2, so none is rejected
        checked = rejected = 0
        for m in range(2, N + 1):
            for parts in range(2, m + 1, 2):
                for lengths in _compositions_pos(m, parts):
                    odds = lengths[0::2]
                    if len(set(odds)) < len(odds):
                        continue
                    rejected += _agrees_with_row_oracle(lengths, N + 2 - sum(odds))
                    checked += 1
        assert checked > 0 and rejected == 0

    @pytest.mark.parametrize(
        "lengths, x", [((2, 3, 4, 5), 8), ((1, 5, 2, 5), 4), ((1, 2, 3), 4), ((), 3)]
    )
    def test_altodd_odd_rejects_as_row_oracle(self, lengths, x):
        assert _agrees_with_row_oracle(lengths, x)

    def test_altodd_odd_constraints_named(self):
        with pytest.raises(ValueError, match="x \\+ sum"):
            gen_altodd_odd((2, 3, 4, 5), 8)
        with pytest.raises(ValueError, match="x - sum"):
            gen_altodd_odd((1, 5, 2, 5), 4)

    def test_altodd_odd_weight(self):
        ident = gen_altodd_odd((2, 3, 4, 5), 7)
        assert ident.weight == 7 + 2 + 4 - 2

    def test_double_alt_shapes(self):
        four = gen_double_alt((1, 2, 3, 5))
        assert four.weight == 9
        six = gen_double_alt((1, 2, 3, 4, 5, 2))
        assert six.weight == 15
        with pytest.raises(ValueError):
            gen_double_alt((1, 2, 3, 4, 5))

    def test_double_alt_rejects_four_blocks_with_adjacent_ones(self):
        # false at 4 blocks: refuted numerically for every such input
        for lengths in [(1, 1, 2, 3), (1, 2, 3, 1), (3, 1, 1, 4)]:
            with pytest.raises(ValueError, match="cyclically adjacent"):
                gen_double_alt(lengths)
        # at 6 blocks the pair is allowed: these two are true
        from blockzeta.numerics import verify

        for lengths in [(1, 1, 2, 2, 3, 4), (1, 1, 2, 2, 4, 3)]:
            assert verify(gen_double_alt(lengths), 30).status == "verified"


def altodd_odd_rows(lengths: tuple[int, ...], x: int) -> list[tuple]:
    """Row oracle for the odd-weight alt-odd candidate (steps 1-4).

    Row i (1-based) drops the i-th even-position length, interleaves the
    odd positions with the kept evens, and inserts x - sum(kept evens) to
    the left (B) and right (C) of the i-th odd length.  Each row is
    (i, B string, B slots, C string, C slots), the slots 1-based.
    """
    lengths = tuple(lengths)
    if len(lengths) % 2 or len(lengths) < 2:
        raise ValueError("need an even number of block lengths")
    n = len(lengths) // 2
    odds = lengths[0::2]
    evens = lengths[1::2]
    if (x + sum(odds)) % 2 == 0:
        raise ValueError(
            f"constraint violated: x + sum(odd positions) = "
            f"{x + sum(odds)} must be odd"
        )
    rows = []
    for i in range(1, n + 1):
        kept = evens[: i - 1] + evens[i:]
        v = x - sum(kept)
        if v <= 0:
            raise ValueError(f"constraint violated: x - sum(E_{i}) = {v} must be > 0")
        inter: list[int] = []
        for j in range(n):
            inter.append(odds[j])
            if j < n - 1:
                inter.append(kept[j])
        # odd length j sits at inter index 2j; insertion shifts later slots
        ins_b = 2 * (i - 1)
        b_string = tuple(inter[:ins_b] + [v] + inter[ins_b:])
        b_slots = tuple(2 * j + 1 if 2 * j < ins_b else 2 * j + 2 for j in range(n))
        ins_c = 2 * (i - 1) + 1
        c_string = tuple(inter[:ins_c] + [v] + inter[ins_c:])
        c_slots = tuple(2 * j + 1 if 2 * j < ins_c else 2 * j + 2 for j in range(n))
        rows.append((i, b_string, b_slots, c_string, c_slots))
    return rows


def _agrees_with_row_oracle(lengths, x) -> bool:
    """Check gen_altodd_odd against the row oracle; True if both reject."""
    try:
        rows = altodd_odd_rows(lengths, x)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            gen_altodd_odd(lengths, x)
        assert str(got.value) == str(err), (lengths, x)
        return True
    expected = LinComb.zero()
    for i, b_string, b_slots, c_string, c_slots in rows:
        row = alt_sum(b_string, b_slots) + alt_sum(c_string, c_slots)
        expected = expected + (row if i % 2 else -row)  # first row positive
    assert gen_altodd_odd(lengths, x).lhs == expected, (lengths, x)
    return False


def cyclic_basic_oracle(lengths) -> Identity:
    """The basic cyclic identity built on its own: the cyclic sum, minus
    I_bl(N+2) at even weight N, equal to 0; the checks in the same order
    and with the same messages."""
    lengths = tuple(lengths)
    if len(lengths) < 2:
        raise ValueError("cyclic insertion on a single block is a tautology")
    B = BlockDecomposition(0, lengths)
    if B.is_trivial:
        raise ValueError(f"(0; {lengths}) is trivial: weight and block count match mod 2")
    if has_cyclic_adjacent_ones(lengths):
        raise ValueError(f"{lengths} has cyclically adjacent (1,1); use the full version")
    N = B.weight
    lhs = cyclic_sum(lengths)
    if N % 2 == 0:
        lhs = lhs - LinComb.term(word_of(blocks(0, N + 2)), 1)
    return Identity("cyclic-basic", {"lengths": lengths}, N, lhs, PiRational(Fraction(0)))
