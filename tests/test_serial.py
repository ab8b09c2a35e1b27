import json
from fractions import Fraction

import pytest

from blockzeta.derivation import d_r
from blockzeta.identities import cyclic_sum, gen_cyclic_full, gen_hoffman, gen_symmetric
from blockzeta.lincomb import LinComb, PiRational, TensorTerm
from blockzeta.serial import (
    dumps,
    identity_from_json,
    identity_to_json,
    identity_to_latex,
    lincomb_from_json,
    lincomb_to_json,
    lincomb_to_latex,
    residue_to_json,
)
from blockzeta.words import blocks, word, zc


class TestJsonRoundTrips:
    def test_lincomb(self):
        comb = LinComb(
            {
                word("0101"): PiRational(Fraction(-3, 7)),
                zc(2, 3): PiRational(Fraction(5), 4),
                TensorTerm(word("01011"), word("0101"), 3): PiRational(Fraction(2)),
            }
        )
        data = lincomb_to_json(comb)
        assert lincomb_from_json(json.loads(dumps(data))) == comb

    def test_identity(self):
        for ident in (
            gen_cyclic_full((1, 1, 2, 3)),
            gen_hoffman(0, 1, 2),
            gen_symmetric(blocks(0, 2, 3, 3)),
        ):
            data = json.loads(dumps(identity_to_json(ident)))
            back = identity_from_json(data)
            assert back.lhs == ident.lhs
            assert back.rhs == ident.rhs
            assert back.family == ident.family
            assert back.weight == ident.weight

    def test_residue_schema(self):
        res = d_r(cyclic_sum((2, 10, 3, 2)), 7)
        items = residue_to_json(res)
        assert all(
            set(item) == {"grade", "left_word", "right_word", "coeff"}
            for item in items
        )
        assert all(item["grade"] == 7 for item in items)


class TestLatex:
    def test_zeta_terms(self):
        comb = LinComb({zc(2, 3): PiRational(Fraction(2)), zc(1, 4): PiRational(Fraction(-6))})
        text = lincomb_to_latex(comb)
        assert "\\zeta(1,4)" in text and "\\zeta(2,3)" in text

    def test_word_term(self):
        text = lincomb_to_latex(LinComb.term(word("0101")))
        assert text == "I(0; 1,0; 1)"

    def test_identity_with_pi_rhs(self):
        text = identity_to_latex(gen_hoffman(0, 0, 0))
        assert "\\doteq" in text and "\\pi^{6}" in text

    def test_tensor_term(self):
        comb = LinComb.term(TensorTerm(word("01011"), word("0101"), 3))
        text = lincomb_to_latex(comb)
        assert "\\otimes" in text and "\\mathfrak{L}" in text


class TestJsonInput:
    RECORD = {
        "family": "cyclic-basic",
        "params": {},
        "weight": 2,
        "lhs": [{"term_kind": "zeta", "term": "z(2)", "coeff_num": "1", "coeff_den": "1"}],
        "rhs": {"num": "1", "den": "6", "pi_exp": 2},
    }

    def test_well_formed(self):
        ident = identity_from_json(self.RECORD)
        assert ident.lhs == LinComb.term(zc(2)) and ident.rhs == PiRational(Fraction(1, 6), 2)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"lhs": {}}, "a combination must be a JSON list"),
            ({"lhs": [[]]}, "a term must be a JSON object"),
            ({"lhs": [{"term_kind": "zeta", "term": 2}]}, "term text must be a string"),
            ({"weight": 2.0}, "expected an integer, got float"),
            ({"weight": True}, "expected an integer, got bool"),
            ({"rhs": {"num": "1", "den": "6"}}, "missing or null key 'pi_exp'"),
            ({"rhs": "1/6"}, "rhs must be a JSON object"),
            (
                {"lhs": [{"term_kind": "tensor", "term": "0101(x)01@3",
                          "coeff_num": "1", "coeff_den": "1"}]},
                "identity terms are words or zeta values",
            ),
        ],
    )
    def test_malformed_records_raise_value_error(self, changes, message):
        with pytest.raises(ValueError, match=message):
            identity_from_json({**self.RECORD, **changes})

    def test_repeated_terms_are_summed(self):
        item = {"term_kind": "word", "term": "0101", "coeff_num": "1", "coeff_den": "2"}
        comb = lincomb_from_json([item, item, {**item, "coeff_num": "-1"}])
        assert comb == LinComb.term(word("0101"), Fraction(1, 2))
        assert lincomb_from_json([item, {**item, "coeff_num": "-1"}]).is_zero
