import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from blockzeta.bigreal import BigReal, bits_for_digits, pi_bigreal, pi_power
from blockzeta.identities import Identity, gen_symmetric
from blockzeta.lincomb import LinComb, PiRational, combine
from blockzeta.numerics import (
    eval_lincomb,
    eval_mzv,
    eval_word,
    recognize_rational,
    verify,
    zeta_value,
)
from blockzeta.regalgebra import (
    regularise,
    regularise_word,
    shuffle_words,
    stuffle_depth1,
    zeta_two_power,
)
from blockzeta.words import (
    ONE,
    Word,
    ZetaComposition,
    blocks,
    convergent_words,
    mzv_to_word,
    word,
    word_to_mzv,
    zc,
)

from helpers import all_words
from mzv_reference import mzv_direct_sum


def as_mp(x: BigReal):
    return mpmath.mpf(x.man) / mpmath.mpf(2) ** x.bits


class TestBigReal:
    def test_error_bounds_random(self):
        rng = random.Random(12)
        bits = 120
        for _ in range(200):
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            A = BigReal.from_fraction(a, bits)
            B = BigReal.from_fraction(b, bits)
            for op, exact in (
                (A + B, a + b),
                (A - B, a - b),
                (A * B, a * b),
                (A.mul_fraction(b), a * b),
            ):
                assert abs(op.as_fraction() - exact) <= op.err_fraction()
            if b != 0 and abs(B.man) > 2 * B.err:
                D = A / B
                assert abs(D.as_fraction() - a / b) <= D.err_fraction()

    def test_division_by_zero_interval(self):
        bits = 64
        tiny = BigReal(1, bits, 5)
        with pytest.raises(ZeroDivisionError):
            BigReal.from_int(1, bits) / tiny

    def test_digits_matched(self):
        bits = 200
        x = BigReal.from_fraction(Fraction(1, 10**25), bits)
        assert 20 <= x.digits_matched() <= 25

    @settings(max_examples=300, deadline=None)
    @example(man=0, bits=64, err=0)
    @example(man=1 << 64, bits=64, err=0)
    @example(man=(1 << 64) // 10**5, bits=64, err=0)
    @example(man=(1 << 64) // 10**5 + 1, bits=64, err=0)
    @given(
        man=st.integers(0, 6720).flatmap(lambda n: st.integers(-(1 << n), 1 << n)),
        bits=st.integers(50, 6700),
        err=st.integers(0, 1 << 40),
    )
    def test_digits_matched_closed_form(self, man, bits, err):
        """The closed form against the loop that counted digit by digit."""
        bound = abs(man) + err
        if bound == 0:
            expected = 10**6
        else:
            expected, scale = 0, 1 << bits
            while bound * 10 ** (expected + 1) < scale and expected < 10**6:
                expected += 1
        assert BigReal(man, bits, err).digits_matched() == expected


class TestPi:
    def test_against_mpmath(self):
        mpmath.mp.dps = 220
        pi = pi_bigreal(bits_for_digits(200))
        assert abs(as_mp(pi) - mpmath.pi) < mpmath.mpf(10) ** -200

    def test_powers(self):
        mpmath.mp.dps = 80
        p = pi_power(10, bits_for_digits(60))
        assert abs(as_mp(p) - mpmath.pi**10) < mpmath.mpf(10) ** -55


class TestEvalMzv:
    def test_zeta2_closed_form(self):
        val = eval_mzv(zc(2), 50)
        target = pi_power(2, val.bits).mul_fraction(Fraction(1, 6))
        assert (val - target).abs_at_most(Fraction(1, 10**50))

    def test_zeta_two_powers(self):
        for m in range(1, 9):
            val = eval_mzv(ZetaComposition((2,) * m), 40)
            coeff = zeta_two_power(m)
            target = pi_power(coeff.pi_exp, val.bits).mul_fraction(coeff.coeff)
            assert (val - target).abs_at_most(Fraction(1, 10**40))

    def test_depth1_against_mpmath(self):
        mpmath.mp.dps = 60
        for n in (2, 3, 5, 7):
            val = eval_mzv(zc(n), 50)
            assert abs(as_mp(val) - mpmath.zeta(n)) < mpmath.mpf(10) ** -50

    def test_zeta13_zagier(self):
        val = eval_mzv(zc(1, 3), 50)
        target = pi_power(4, val.bits).mul_fraction(Fraction(1, 360))
        assert (val - target).abs_at_most(Fraction(1, 10**50))

    def test_duality_value(self):
        a = eval_mzv(zc(1, 2), 40)
        b = eval_mzv(zc(3), 40)
        assert (a - b).abs_at_most(Fraction(1, 10**40))

    def test_rejects_divergent(self):
        with pytest.raises(ValueError):
            eval_mzv(zc(2, 1), 30)
        with pytest.raises(ValueError):
            eval_word(word("0011"), 30)

    def test_oracle_agreement_weight_le_6(self):
        # every convergent composition of weight <= 6 against the
        # direct-summation oracle, at the oracle's certified radius;
        # the evaluation side carries at least 30 certified digits
        for N in range(2, 7):
            for w in convergent_words(N):
                comp, _ = word_to_mzv(w)
                val = eval_mzv(comp, 35)
                assert val.err_fraction() < Fraction(1, 10**30)
                mid, rad = mzv_direct_sum(comp, 60_000)
                assert abs(val.as_fraction() - mid) <= rad + val.err_fraction()

    def test_monotone_precision(self):
        lo = eval_mzv(zc(2, 3), 20)
        hi = eval_mzv(zc(2, 3), 60)
        assert hi.err_fraction() <= lo.err_fraction()
        assert (lo - hi).abs_at_most(lo.err_fraction() * 2)


class TestEvalWord:
    def test_words_of_either_orientation(self):
        """Every word eval_word accepts matches its regularisation within
        both error bounds; every other word is rejected by its own name."""
        accepted = from_one = 0
        for length in range(2, 13):
            for w in all_words(length):
                oriented = w.reversed() if w.letters[0] == 1 else w
                if w.weight and not w.is_trivial and not oriented.is_convergent:
                    with pytest.raises(ValueError, match=f"word {w} is divergent"):
                        eval_word(w, 20)
                    continue
                accepted += 1
                from_one += w.letters[0] == 1
                val = eval_word(w, 20)
                ref = eval_lincomb(regularise_word(w), 20)
                assert val.bits == ref.bits
                assert abs(val.man - ref.man) <= val.err + ref.err, w
        assert (accepted, from_one) == (5118, 2559)

    def test_bounds_one_zero(self):
        # I(1; 0 1; 0) = I(0; 1 0; 1) = -zeta(2), and
        # I(1; 0 0 1; 0) = -I(0; 1 0 0; 1) = zeta(3)
        assert (eval_word(word("1010"), 30) + eval_mzv(zc(2), 30)).abs_at_most(
            Fraction(1, 10**30)
        )
        assert (eval_word(word("10010"), 30) - eval_mzv(zc(3), 30)).abs_at_most(
            Fraction(1, 10**30)
        )

    @pytest.mark.parametrize("text", ["000", "0110", "1001", "1111111"])
    def test_trivial_word_is_exactly_zero(self, text):
        assert eval_word(word(text), 20) == BigReal.exact_zero(bits_for_digits(20))

    def test_reading_needs_a_walk(self):
        from blockzeta import numerics

        numerics.reset_caches()
        try:
            # the unit integral is read without a walk, exactly
            assert numerics._eval_interior((), 20) == BigReal.from_int(1, bits_for_digits(20))
            with pytest.raises(KeyError):
                numerics._eval_interior((1, 0), 20)
            numerics.walk_series(numerics._keys((1, 0)), 20)
            assert numerics._eval_interior((1, 0), 20) == -eval_mzv(zc(2), 20)
        finally:
            numerics.reset_caches()


class TestAlgebraNumericsConsistency:
    def test_regularise_duality_invariance(self):
        # regularised values satisfy I(w) = (-1)^N I(dual w); the exact
        # combinations differ (the procedure picks per-word normal forms)
        from blockzeta.regalgebra import regularise_word

        digits = 30
        for L in (5, 6, 7, 8):
            for w in list(all_words(L))[:: max(1, 2 ** (L - 5))]:
                lhs = eval_lincomb(regularise_word(w), digits)
                rhs = eval_lincomb(regularise_word(w.dual()), digits)
                if w.weight % 2:
                    rhs = -rhs
                assert (lhs - rhs).abs_at_most(Fraction(1, 10 ** (digits - 3)))

    def test_odd_weight_closure_sums_to_zero(self):
        # at odd weight a reflectively closed set pairs off under duality
        from blockzeta.derivation import closure_comb
        from blockzeta.reflect import reflective_closure

        S = reflective_closure([blocks(0, 2, 3, 4)])
        val = eval_lincomb(closure_comb(S), 30)
        assert val.abs_at_most(Fraction(1, 10**25))

    def test_shuffle_homomorphism(self):
        rng = random.Random(13)
        digits = 30
        for _ in range(12):
            u = tuple([1] + [rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
            v = tuple([1] + [rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
            if u[-1] == 1 or v[-1] == 1:
                u, v = u + (0,), v + (0,)
            lhs = eval_word(word("0" + "".join(map(str, u)) + "1"), digits) * eval_word(
                word("0" + "".join(map(str, v)) + "1"), digits
            )
            rhs = eval_lincomb(shuffle_words(u, v), digits)
            assert (lhs - rhs).abs_at_most(Fraction(1, 10 ** (digits - 2)))

    def test_stuffle_shuffle_agreement(self):
        digits = 30
        for n in (2, 3, 4):
            for s in (zc(2), zc(3), zc(2, 2), zc(1, 3), zc(1, 2)):
                if n + s.weight > 10:
                    continue
                via_stuffle = eval_lincomb(stuffle_depth1(n, s), digits)
                prod = eval_mzv(zc(n), digits) * eval_mzv(s, digits)
                assert (via_stuffle - prod).abs_at_most(Fraction(1, 10 ** (digits - 2)))


class TestVerify:
    def test_counterexample_refuted(self):
        from blockzeta.identities import cyclic_sum

        bogus = Identity(
            "cyclic-basic",
            {"lengths": (1, 1, 2, 3)},
            5,
            cyclic_sum((1, 1, 2, 3)),
            PiRational(Fraction(0)),
        )
        rep = verify(bogus, 30)
        assert rep.status == "refuted"
        z2z3 = zeta_value(2, 35) * zeta_value(3, 35)
        resid = rep.residual
        assert (resid - z2z3 - z2z3).abs_at_most(Fraction(1, 10**28))

    def test_inconclusive_known_rhs(self):
        # zeta(3) = zeta(1,2), but at 10 digits the error bound of
        # 10^20 (zeta(3) - zeta(1,2)) is 4 * 10^20 ulps: neither verified
        # nor refuted
        Q = 10**20
        lhs = LinComb.term(zc(3), Q) - LinComb.term(zc(1, 2), Q)
        ident = Identity("cyclic-basic", {}, 3, lhs, PiRational(Fraction(0)))
        assert verify(ident, 10).status == "inconclusive"

    def test_weight_ceiling(self):
        from blockzeta.numerics import MAX_WEIGHT

        huge = Identity(
            "cyclic-basic", {}, MAX_WEIGHT + 2, LinComb.zero(),
            PiRational(Fraction(1), MAX_WEIGHT + 2),
        )
        with pytest.raises(ValueError, match="beyond the configured ceiling"):
            verify(huge, 15)

    @pytest.mark.parametrize("digits", [-5, 0, 9, 2001])
    def test_digits_out_of_range(self, digits):
        from blockzeta.identities import gen_hoffman

        with pytest.raises(ValueError, match="need digits >= 10|beyond the configured ceiling"):
            verify(gen_hoffman(0, 0, 0), digits=digits)

    def test_unknown_rhs_via_recognition(self):
        ident = gen_symmetric(blocks(0, 2, 3, 3))
        rep = verify(ident, 40)
        assert rep.status == "verified"
        # duality pairs the six permutations into twice the cyclic sum,
        # which evaluates to 2*I_bl(8) = -2 pi^6/7! = -(3/8) zeta(6)
        assert "lhs = (-3/8) * zeta(6)" in rep.note

    def test_report_independent_of_history(self):
        from blockzeta import numerics
        from blockzeta.identities import gen_cyclic_full

        ident = gen_cyclic_full((1, 1, 4))

        def report():
            rep = verify(ident, 50)
            return rep.status, rep.residual, rep.digits_matched

        numerics.reset_caches()
        fresh = report()
        numerics.reset_caches()
        for digits in (41, 45):
            verify(ident, digits)
        assert report() == fresh
        numerics.reset_caches()


class TestRecognizeRational:
    def test_exact_half(self):
        x = BigReal.from_fraction(Fraction(1, 2), bits_for_digits(60))
        assert recognize_rational(x, 10**6) == Fraction(1, 2)

    def test_zeta_ratio(self):
        # zeta(1,3) / zeta(4) = 1/4
        ratio = eval_mzv(zc(1, 3), 60) / eval_mzv(zc(4), 60)
        assert recognize_rational(ratio, 10**6) == Fraction(1, 4)

    def test_irrational_ratio_rejected(self):
        # zeta(3)/zeta(2) has no small rational form
        ratio = eval_mzv(zc(3), 60) / eval_mzv(zc(2), 60)
        assert recognize_rational(ratio, 10**6) is None

    def test_long_continued_fraction(self):
        # Fibonacci F231/F230: 229 partial quotients, a 48-digit denominator
        f230, f231 = 0, 1
        for _ in range(230):
            f230, f231 = f231, f230 + f231
        x = BigReal.from_fraction(Fraction(f231, f230), 700)
        assert recognize_rational(x, 10**48) == Fraction(f231, f230)
        assert recognize_rational(x, f230 - 1) is None

    def test_insufficient_precision_raises(self):
        x = BigReal.from_fraction(Fraction(1, 3), bits_for_digits(12))
        with pytest.raises(ValueError):
            recognize_rational(x, 10**6)

    @pytest.mark.parametrize("max_den", [0, -3])
    def test_max_den_must_be_positive(self, max_den):
        # verify makes the same check; tests/test_cli.py runs it through argv
        x = BigReal.from_fraction(Fraction(1, 2), bits_for_digits(60))
        with pytest.raises(ValueError, match="max_den must be at least 1"):
            recognize_rational(x, max_den)


class TestKernels:
    """The fixed-point series kernel behind eval_word."""

    M, F = 80, 120
    LETTERS = (0, 1, 1, 0)

    def _run(self):
        from blockzeta import series

        C = series.g_init(self.M, self.F)
        values = [series.g_value(C, self.M, self.F)]
        for bit in self.LETTERS:
            C = series.g_append(C, bit, self.M, self.F)
            values.append(series.g_value(C, self.M, self.F))
        return C, values

    def test_fixed_values(self):
        from blockzeta import series

        assert series.KERNEL == "python"
        C, values = self._run()
        assert values == [
            -921350637599661305226344294259947292,
            -773930408057842841941170992618181536,
            284550988480077132789821319587823097,
            -67679988249033125992792144362013867,
            -17633844045851680039498379181949603,
        ]
        assert C[1:6] == [
            0,
            0,
            -73845999765828659605767058904463588,
            -76153687258510805218447279495228075,
            -66830629788074936943219188308539547,
        ]
        assert C[self.M] == -1195438842141846629372485687247700
        assert sum(C) == -823482540903065334335003295141026424

    def test_matches_exact_truncated_series(self):
        # the same truncated series in exact arithmetic: letter 0 divides
        # c_n by n, letter 1 is d_{m+1} = -(c_1 + ... + c_m)/(m+1)
        M, F = self.M, self.F
        C = [Fraction(0)] + [Fraction(-1, n) for n in range(1, M + 1)]
        exact = [C]
        for bit in self.LETTERS:
            D = [Fraction(0)] * (M + 1)
            if bit == 0:
                for n in range(1, M + 1):
                    D[n] = C[n] / n
            else:
                s = Fraction(0)
                for m in range(1, M):
                    s += C[m]
                    D[m + 1] = -s / (m + 1)
            C = D
            exact.append(C)
        _, values = self._run()
        for k, (coeffs, value) in enumerate(zip(exact, values), start=1):
            target = sum(c / 2**n for n, c in enumerate(coeffs)) * 2**F
            # eval_word budgets k + 3 ulps for a factor of k letters
            assert abs(value - target) <= k + 3


# --------------------------------------------------------------------------
# the shared-prefix walk against one independent chain per word


def oracle_factor_values(letters, M, F):
    """g(l_1..l_k; 1/2) * 2^F for k = 0..len(letters), one transform per letter."""
    from blockzeta import series

    vals = [1 << F]
    C = None
    for k, bit in enumerate(letters):
        C = series.g_init(M, F) if k == 0 else series.g_append(C, bit, M, F)
        vals.append(series.g_value(C, M, F))
    return vals


def oracle_eval_word(w, digits):
    """eval_word assembled from a prefix chain and a suffix chain of its own."""
    from blockzeta.numerics import _SCALE_EXTRA, _TAIL_EXTRA

    bits = bits_for_digits(digits)
    F, M = bits + _SCALE_EXTRA, bits + _TAIL_EXTRA
    interior = w.interior
    N = len(interior)
    pref_vals = oracle_factor_values(interior, M, F)
    suf_vals = oracle_factor_values([1 - x for x in reversed(interior)], M, F)
    tail = 3 + (1 << (F - M))
    total = err = 0
    for k in range(N + 1):
        term = (pref_vals[k] * suf_vals[N - k]) >> F
        total += -term if (N - k) % 2 else term
        err += (k + tail if k else 0) + (N - k + tail if k < N else 0) + 2
    return BigReal(total, F, err)._rescale(bits)


def oracle_eval_lincomb(c, digits):
    """eval_lincomb by the Fraction route: regularise_word per word, the
    coefficients summed per (composition, pi exponent) in Fractions and
    combined into PiRationals, then mul_fraction per composition and the
    pi power after it.  Values come from oracle_eval_word."""
    bits = bits_for_digits(digits)
    sums = {}
    for key, coeff in c.items():
        regularised = regularise_word(key) if isinstance(key, Word) else LinComb.term(key)
        for comp, n in regularised.items():
            slot = (comp, coeff.pi_exp)
            sums[slot] = sums.get(slot, 0) + coeff.coeff * n.coeff
    flat = combine((comp, PiRational(q, pi_exp)) for (comp, pi_exp), q in sums.items())
    acc = BigReal.exact_zero(bits)
    for comp, coeff in flat.items():
        if comp.args:
            w, sign = mzv_to_word(comp)
            value = oracle_eval_word(w, digits)
            value = value if sign > 0 else -value
        else:
            value = BigReal.from_int(1, bits)
        term = value.mul_fraction(coeff.coeff)
        if coeff.pi_exp:
            term = term * pi_power(coeff.pi_exp, bits)
        acc = acc + term
    return acc


INTERIOR = st.lists(st.integers(0, 1), max_size=5).map(lambda mid: (1, *mid, 0))


@st.composite
def word_batches(draw):
    """Convergent words with duplicates, interiors that are prefixes of
    other interiors, and words that share only a suffix."""
    base = draw(st.lists(INTERIOR, min_size=1, max_size=6))
    batch = list(base)
    for a in base:
        kind = draw(st.sampled_from(["duplicate", "prefix", "suffix", "none"]))
        cuts = [j for j in range(2, len(a)) if a[j - 1] == 0]
        if kind == "duplicate":
            batch.append(a)
        elif kind == "prefix" and cuts:
            batch.append(a[: draw(st.sampled_from(cuts))])
        elif kind == "suffix":
            head = draw(st.lists(st.integers(0, 1), max_size=3))
            batch.append((1, *head, *a[draw(st.integers(1, len(a) - 1)):]))
    return [Word((0, *a, 1)) for a in batch]


def lincomb_of(words, coeffs):
    terms = (LinComb.term(word_to_mzv(w)[0], c) for w, c in zip(words, coeffs))
    return sum(terms, LinComb.zero())


class TestSharedPrefixes:
    @settings(max_examples=40, deadline=None)
    @given(
        batch=word_batches(),
        coeffs=st.lists(st.integers(-3, 3), min_size=18, max_size=18),
        digits=st.sampled_from([10, 25, 40]),
        data=st.data(),
    )
    def test_matches_one_chain_per_word(self, batch, coeffs, digits, data):
        """Every BigReal equals the oracle's: value, scale and err."""
        from blockzeta import numerics

        expected = {w: oracle_eval_word(w, digits) for w in batch}
        order = data.draw(st.permutations(batch))
        split = data.draw(st.integers(0, len(order)))
        whole = lincomb_of(batch, coeffs)
        head, rest = lincomb_of(order[:split], coeffs), lincomb_of(order[split:], coeffs)
        try:
            # the whole batch in one group, then every word in batch order
            numerics.reset_caches()
            assert eval_lincomb(whole, digits) == oracle_eval_lincomb(whole, digits)
            assert {w: eval_word(w, digits) for w in batch} == expected
            # a shuffled share in one group, every word in reverse, the rest
            numerics.reset_caches()
            assert eval_lincomb(head, digits) == oracle_eval_lincomb(head, digits)
            assert {w: eval_word(w, digits) for w in reversed(order)} == expected
            assert eval_lincomb(rest, digits) == oracle_eval_lincomb(rest, digits)
        finally:
            numerics.reset_caches()

    def test_each_prefix_transformed_once(self, monkeypatch):
        from blockzeta import numerics, series
        from blockzeta.identities import gen_cyclic_full

        diff = gen_cyclic_full((1, 1, 2, 3)).difference()
        prefixes = set()
        for comp, _ in regularise(diff).items():
            if comp.args:
                a = mzv_to_word(comp)[0].interior
                for key in (a, tuple(1 - x for x in reversed(a))):
                    prefixes.update(key[:j] for j in range(1, len(key) + 1))
        transforms = []
        for name in ("g_init", "g_append"):
            original = getattr(series, name)

            def counted(*args, _original=original):
                transforms.append(args)
                return _original(*args)

            monkeypatch.setattr(series, name, counted)
        numerics.reset_caches()
        try:
            eval_lincomb(diff, 30)
        finally:
            numerics.reset_caches()
        assert len(prefixes) > 20
        assert len(transforms) == len(prefixes)

    @pytest.mark.parametrize("digits", [-3, 0, 9, 2001, 3000])
    @pytest.mark.parametrize("evaluate", [eval_word, eval_mzv, eval_lincomb])
    def test_digits_out_of_range(self, evaluate, digits):
        arg = {
            eval_word: word("0101"),
            eval_mzv: zc(2),
            eval_lincomb: LinComb.term(zc(2)),
        }[evaluate]
        with pytest.raises(ValueError, match="need digits >= 10|beyond the configured ceiling"):
            evaluate(arg, digits)


# --------------------------------------------------------------------------
# the integer-sum evaluation against the Fraction route


@st.composite
def weight_n_combinations(draw):
    """Combinations of weight N: words of every kind (divergent and
    equal-bound ones included), convergent zeta values and the constant 1,
    each times pi^(N - its weight), with coefficients over mixed
    denominators."""
    N = draw(st.integers(0, 6))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        pi_exp = draw(st.sampled_from(range(0, N + 1, 2)))
        mid = draw(st.lists(st.integers(0, 1), min_size=N - pi_exp, max_size=N - pi_exp))
        key = Word((draw(st.integers(0, 1)), *mid, draw(st.integers(0, 1))))
        if key.is_convergent and draw(st.booleans()):
            key = word_to_mzv(key)[0]  # a zeta value; the constant 1 when N == pi_exp
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3, 4, 6, 35])))
        terms[key] = PiRational(coeff, pi_exp)
    return LinComb(terms)


class TestIntegerSums:
    @settings(max_examples=150, deadline=None)
    @given(c=weight_n_combinations(), digits=st.sampled_from([10, 23, 50]))
    @example(
        c=LinComb(
            {
                word("0010111"): PiRational(Fraction(3, 4)),
                word("1101000"): PiRational(Fraction(-7, 6)),
                zc(2, 3): PiRational(Fraction(5, 2)),
                word("000111"): PiRational(Fraction(1, 35), 2),
                zc(3): PiRational(Fraction(-2, 9), 2),
                ONE: PiRational(Fraction(1, 5), 6),
            }
        ),
        digits=30,
    )
    def test_matches_fraction_route(self, c, digits):
        """man, bits and err all equal the Fraction route's."""
        got = eval_lincomb(c, digits)
        expected = oracle_eval_lincomb(c, digits)
        assert (got.man, got.bits, got.err) == (expected.man, expected.bits, expected.err)

    def test_two_pi_exponents_on_one_composition(self):
        # regularise_word(0101) = -zeta(2): pi^2 zeta(2) and zeta(2) meet
        c = LinComb({word("0101"): PiRational(Fraction(1), 2), zc(2): PiRational(Fraction(1))})
        messages = set()
        for evaluate in (eval_lincomb, oracle_eval_lincomb):
            with pytest.raises(ValueError) as info:
                evaluate(c, 20)
            messages.add(str(info.value))
        assert messages == {"cannot add pi^2 and pi^0 coefficients"}

    def test_a_cancelled_pi_exponent_is_no_conflict(self):
        # pi^2 zeta(2) cancels, so only the pi^0 term is left
        c = LinComb(
            {
                word("0101"): PiRational(Fraction(1), 2),
                zc(2): PiRational(Fraction(1, 3)),
                word("1010"): PiRational(Fraction(-1), 2),  # I(1010) = I(0101)
            }
        )
        assert eval_lincomb(c, 20) == oracle_eval_lincomb(c, 20)
        assert regularise(c) == LinComb.term(zc(2), Fraction(1, 3))
