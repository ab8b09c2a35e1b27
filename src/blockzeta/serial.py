"""JSON, text and LaTeX encodings of combinations, identities and reports."""

from __future__ import annotations

import json
from fractions import Fraction

from .identities import Identity
from .lincomb import LinComb, PiRational, TensorTerm, combine
from .words import ParseError, Word, ZetaComposition


def term_to_string(key) -> tuple[str, str]:
    if isinstance(key, Word):
        return "word", str(key)
    if isinstance(key, ZetaComposition):
        return "zeta", str(key)
    raise TypeError(f"unknown term type {type(key).__name__}")


def term_from_string(kind: str, text: str):
    if not isinstance(text, str):
        raise ValueError(f"term text must be a string, got {type(text).__name__}")
    if kind == "word":
        return Word.parse(text)
    if kind == "zeta":
        return ZetaComposition.parse(text)
    raise ParseError(f"unknown term kind {kind!r}", 0)


def lincomb_to_json(c: LinComb) -> list[dict]:
    out = []
    for key, coeff in c.sorted_items():
        kind, text = term_to_string(key)
        out.append(
            {
                "term_kind": kind,
                "term": text,
                "coeff_num": str(coeff.coeff.numerator),
                "coeff_den": str(coeff.coeff.denominator),
                "pi_exp": coeff.pi_exp,
            }
        )
    return out


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _field(record: dict, key: str):
    value = record.get(key)
    if value is None:
        raise ValueError(f"missing or null key {key!r}")
    return value


def _int(value) -> int:
    """An integer field, written as a JSON integer or a decimal string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {type(value).__name__}")
    return int(value)


def _fraction(record: dict, num: str, den: str) -> Fraction:
    n, d = _int(_field(record, num)), _int(_field(record, den))
    if d == 0:
        raise ValueError(f"zero denominator {den!r}")
    return Fraction(n, d)


def lincomb_from_json(items: list[dict]) -> LinComb:
    if not isinstance(items, list):
        raise ValueError(
            f"a combination must be a JSON list, got {type(items).__name__}"
        )
    return combine(_term_from_json(_object(item, "a term")) for item in items)


def _term_from_json(item: dict):
    key = term_from_string(_field(item, "term_kind"), _field(item, "term"))
    coeff = PiRational(
        _fraction(item, "coeff_num", "coeff_den"), _int(item.get("pi_exp", 0))
    )
    return key, coeff


UNKNOWN_RHS = "unknown-zeta-multiple"


def identity_to_json(ident: Identity) -> dict:
    if ident.rhs is None:
        rhs = UNKNOWN_RHS
    else:
        rhs = {
            "num": str(ident.rhs.coeff.numerator),
            "den": str(ident.rhs.coeff.denominator),
            "pi_exp": ident.rhs.pi_exp,
        }
    return {
        "family": ident.family,
        "params": {k: _plain(v) for k, v in ident.params.items()},
        "weight": ident.weight,
        "lhs": lincomb_to_json(ident.lhs),
        "rhs": rhs,
    }


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


def identity_from_json(data: dict) -> Identity:
    data = _object(data, "an identity record")
    rhs = _field(data, "rhs")
    if rhs == UNKNOWN_RHS:
        rhs_val = None
    else:
        rhs = _object(rhs, "rhs")
        rhs_val = PiRational(_fraction(rhs, "num", "den"), _int(_field(rhs, "pi_exp")))
    params = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in _object(_field(data, "params"), "params").items()
    }
    return Identity(
        family=_field(data, "family"),
        params=params,
        weight=_int(_field(data, "weight")),
        lhs=lincomb_from_json(_field(data, "lhs")),
        rhs=rhs_val,
    )


def residue_to_json(residue: LinComb) -> list[dict]:
    out = []
    for key, coeff in residue.sorted_items():
        if not isinstance(key, TensorTerm):
            raise TypeError("residues consist of tensor terms")
        out.append(
            {
                "grade": key.grade,
                "left_word": str(key.left),
                "right_word": str(key.right),
                "coeff": str(coeff.coeff),
            }
        )
    return out


# --------------------------------------------------------------------------
# LaTeX emitters


def coeff_to_latex(c: PiRational) -> str:
    q = c.coeff
    if c.pi_exp == 0:
        return _frac_latex(q)
    base = "" if abs(q) == 1 else _frac_latex(abs(q))
    sign = "-" if q < 0 else ""
    return f"{sign}{base}\\pi^{{{c.pi_exp}}}"


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def term_to_latex(key) -> str:
    if isinstance(key, ZetaComposition):
        if not key.args:
            return "1"
        return "\\zeta(" + ",".join(str(a) for a in key.args) + ")"
    if isinstance(key, Word):
        inner = ",".join(str(x) for x in key.interior)
        return f"I({key.letters[0]}; {inner}; {key.letters[-1]})"
    raise TypeError(f"unknown term type {type(key).__name__}")


def lincomb_to_latex(c: LinComb) -> str:
    if c.is_zero:
        return "0"
    parts = []
    for key, coeff in c.sorted_items():
        term = term_to_latex(key)
        q = coeff.coeff
        if coeff.pi_exp == 0 and abs(q) == 1:
            lead = "-" if q < 0 else "+"
            parts.append(f"{lead} {term}")
        else:
            cl = coeff_to_latex(coeff)
            if not cl.startswith("-"):
                cl = "+" + cl
            parts.append(f"{cl[0]} {cl[1:]} {term}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def identity_to_latex(ident: Identity) -> str:
    lhs = lincomb_to_latex(ident.lhs)
    if ident.rhs is None:
        rhs = f"q\\,\\zeta({ident.weight}), \\ q \\in \\mathbb{{Q}}"
    elif ident.rhs.is_zero:
        rhs = "0"
    else:
        rhs = coeff_to_latex(ident.rhs)
    return f"{lhs} \\doteq {rhs}"


def report_to_json(report) -> dict:
    return {
        "identity": report.identity,
        "status": report.status,
        "digits_matched": report.digits_matched,
        "target_digits": report.target_digits,
        "residual": report.residual.to_decimal(min(report.target_digits + 5, 60)),
        "elapsed_seconds": round(report.elapsed, 4),
        "note": report.note,
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)
