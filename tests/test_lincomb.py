from fractions import Fraction

from blockzeta.lincomb import LinComb, PiRational
from blockzeta.words import word, zc


class TestMapTerms:
    def test_colliding_keys_cancel(self):
        a, b, c = word("0101"), word("0011"), word("010101")
        comb = LinComb(
            {
                a: PiRational(Fraction(2)),
                b: PiRational(Fraction(-1, 3), 2),
                c: PiRational(Fraction(1)),
            }
        )
        images = {
            a: LinComb({zc(2): PiRational(Fraction(1)), zc(3): PiRational(Fraction(1, 2))}),
            b: LinComb({zc(4): PiRational(Fraction(1)), zc(5): PiRational(Fraction(3))}),
            c: LinComb({zc(3): PiRational(Fraction(-1)), zc(2): PiRational(Fraction(1))}),
        }
        out = comb.map_terms(images.__getitem__)
        expect = LinComb()
        for key, coeff in comb.items():
            expect = expect + images[key] * coeff
        assert out == expect
        # 2 * 1/2 zeta(3) - zeta(3) = 0 is pruned
        assert out == LinComb(
            {
                zc(2): PiRational(Fraction(3)),
                zc(4): PiRational(Fraction(-1, 3), 2),
                zc(5): PiRational(Fraction(-1), 2),
            }
        )

    def test_zero_and_empty_images(self):
        assert LinComb().map_terms(lambda k: LinComb.term(k)).is_zero
        comb = LinComb.term(word("0101"), 3)
        assert comb.map_terms(lambda k: LinComb()).is_zero


def test_sorted_items_orders_by_key_text():
    comb = LinComb({zc(3, 2): 2, word("0101"): -1, zc(2): PiRational(Fraction(1, 6), 2)})
    assert [str(k) for k, _ in comb.sorted_items()] == ["0101", "z(2)", "z(3,2)"]
    assert str(comb) == "(-1)*0101 + (1/6*pi^2)*z(2) + (2)*z(3,2)"
