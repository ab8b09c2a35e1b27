"""Exact rational vectorisation of relation families and the rank table.

Rows live in the basis of convergent words of a fixed weight N (sorted
as binary integers).  A row is an identity's "= 0" form, vectorised:
regularise, then resolve each pi^(2k) coefficient through zeta(2k) and
the depth-1 stuffle, then read off coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .identities import Identity, gen_altodd_even, gen_altodd_odd, gen_cyclic_full
from .linalg import rank_of
from .lincomb import LinComb
from .regalgebra import regularise, stuffle_depth1, zeta_even_coeff
from .words import (
    ZetaComposition,
    block_decompose,
    compositions,
    convergent_words,
    has_cyclic_adjacent_ones,
    least_rotation,
    word_to_mzv,
)


def zagier_dim(N: int) -> int:
    """Conjectural dimension d_N with d_N = d_{N-2} + d_{N-3}."""
    if N < 0:
        raise ValueError("weight must be >= 0")
    d = [1, 0, 1]
    while len(d) <= N:
        d.append(d[-2] + d[-3])
    return d[N]


def basis_compositions(N: int) -> list[ZetaComposition]:
    """Convergent weight-N compositions ordered by their words."""
    out = []
    for w in convergent_words(N):
        comp, _ = word_to_mzv(w)
        out.append(comp)
    return out


@cache
def _basis_index(N: int) -> dict[ZetaComposition, int]:
    """Position of each basis composition; shared, so read it only."""
    return {comp: i for i, comp in enumerate(basis_compositions(N))}


def vectorize(comb: LinComb, N: int) -> list[Fraction]:
    """Coefficient vector of a weight-N combination in the MZV basis.

    Word terms are regularised.  A term q pi^(2k) zeta(s) is
    (q / c_k) zeta(2k) zeta(s), where zeta(2k) = c_k pi^(2k), expanded by
    the depth-1 stuffle; for the empty s it is (q / c_k) zeta(2k).  A term
    of another weight, or a bare constant, is rejected.
    """
    index = _basis_index(N)
    vec = [Fraction(0)] * len(index)
    for key, coeff in regularise(comb).items():
        if not isinstance(key, ZetaComposition):
            raise TypeError(f"cannot vectorise term {key!r}")
        if key.weight + coeff.pi_exp != N:
            raise ValueError(
                f"weight {key.weight + coeff.pi_exp} term in weight-{N} relation"
            )
        if not coeff.pi_exp:
            if not key.args:
                raise ValueError(f"constant term in a weight-{N} relation")
            vec[index[key]] += coeff.coeff
            continue
        k = coeff.pi_exp // 2
        q = coeff.coeff / zeta_even_coeff(k).coeff
        if not key.args:
            vec[index[ZetaComposition((2 * k,))]] += q
            continue
        for comp, c in stuffle_depth1(2 * k, key).items():
            vec[index[comp]] += q * c.coeff
    return vec


def identity_vector(ident: Identity) -> list[Fraction]:
    """The row of an identity: its "= 0" form, vectorised."""
    return vectorize(ident.difference(), ident.weight)


def _compositions_pos(total: int, parts: int):
    """Compositions of `total` into `parts` positive entries, in lex order."""
    for comp in compositions(total - parts, parts):
        yield tuple(x + 1 for x in comp)


def _nontrivial_compositions(N: int):
    """Compositions of N+2 into n >= 3 parts of the non-trivial parity.

    By block count, then in lex order.  Single blocks give tautologies
    and block pairs are plain duality instances, so both stay out.
    """
    for n in range(3, N + 3):
        if (N - n) % 2:
            yield from _compositions_pos(N + 2, n)


def cyclic_family(N: int) -> list[tuple[int, ...]]:
    """Length tuples feeding the cyclic family at weight N.

    The non-trivial compositions modulo cyclic shifts, each as its least
    rotation.  In lex order a necklace first shows as its least rotation,
    so the order is by block count, then lex.
    """
    return list(dict.fromkeys(map(least_rotation, _nontrivial_compositions(N))))


def duality_rows(N: int) -> list[list[Fraction]]:
    """One row zeta(w) - zeta(dual w) per non-self-dual convergent word."""
    index = _basis_index(N)
    rows = []
    for w in convergent_words(N):
        dw = w.dual()
        if dw == w:
            continue
        comp, _ = word_to_mzv(w)
        dcomp, _ = word_to_mzv(dw)
        vec = [Fraction(0)] * len(index)
        vec[index[comp]] += 1
        vec[index[dcomp]] -= 1
        rows.append(vec)
    return rows


def _some_term_has_adjacent_ones(comb: LinComb) -> bool:
    """Whether any word in the combination has cyclically adjacent 1-blocks.

    This is the documented failure zone of the alternation identities;
    the relation sweep stays clear of it.
    """
    return any(
        has_cyclic_adjacent_ones(block_decompose(w).lengths) for w in comb.keys()
    )


def _altodd_identities(N: int):
    """The alt-odd identities swept at weight N, each generated once.

    Odd positions must hold distinct values (else the alternation is
    identically zero).  Even N: compositions of N+2 into n >= 3 parts of
    the non-trivial parity, one per class of the Alt symmetry.  Odd N:
    compositions of m <= N into an even number of parts, x fixed by the
    weight; x - sum(E_i) >= N + 2 - m, so every constraint holds.
    """
    if N % 2 == 0:
        seen = set()
        for comp in _nontrivial_compositions(N):
            odds = comp[0::2]
            key = (tuple(sorted(odds)), comp[1::2])
            if len(set(odds)) < len(odds) or key in seen:
                continue
            seen.add(key)
            yield gen_altodd_even(comp)
        return
    for m in range(2, N + 1):
        for parts in range(2, m + 1, 2):
            for comp in _compositions_pos(m, parts):
                odds = comp[0::2]
                if len(set(odds)) == len(odds):
                    yield gen_altodd_odd(comp, N + 2 - sum(odds))


def altodd_rows(N: int) -> list[list[Fraction]]:
    """Alt-odd relation vectors.

    Identities with a term whose word has cyclically adjacent unit blocks
    are skipped; zero and duplicate rows are pruned.
    """
    rows = []
    seen = set()
    for ident in _altodd_identities(N):
        if _some_term_has_adjacent_ones(ident.lhs):
            continue
        vec = identity_vector(ident)
        key = tuple(vec)
        if not any(vec) or key in seen:
            continue
        seen.add(key)
        rows.append(vec)
    return rows


def cyclic_rows(N: int) -> list[list[Fraction]]:
    """Full cyclic-insertion relations, the identities `verify` checks."""
    return [identity_vector(gen_cyclic_full(lengths)) for lengths in cyclic_family(N)]


#: The relation families of the rank table, in table order: name -> (text
#: label, rows at weight N).  Each entry looks its rows function up when
#: called, so a wrapper bound over `cyclic_rows` and the others sees it.
FAMILIES = {
    "cyclic": ("cyclic", lambda N: cyclic_rows(N)),
    "altodd": ("alt-odd", lambda N: altodd_rows(N)),
    "duality": ("duality", lambda N: duality_rows(N)),
}
MAX_WEIGHT = 14  # ceiling: every row is dense over 2^(N-2) basis words


def relation_rows(N: int, families: tuple[str, ...]) -> dict[str, list[list[Fraction]]]:
    """The relation vectors of each distinct family, in the order listed;
    N >= 2, families from FAMILIES."""
    if N < 2:
        raise ValueError(f"weight must be at least 2, got {N}")
    if N > MAX_WEIGHT:
        raise ValueError(f"weight {N} beyond the configured ceiling {MAX_WEIGHT}")
    for family in families:
        if family not in FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
            )
    return {family: FAMILIES[family][1](N) for family in dict.fromkeys(families)}


@dataclass
class TableRow:
    """One row of the rank table: (row count, rank) per family, the rank
    of all those rows together, and the expected 2^(N-2) - d_N."""

    weight: int
    families: dict[str, tuple[int, int]]
    overall: int
    expected: int


def table_row(N: int, families: tuple[str, ...] = tuple(FAMILIES)) -> TableRow:
    """Assemble one row of the relation-rank table; N >= 2, families from FAMILIES."""
    gathered = relation_rows(N, families)
    return TableRow(
        weight=N,
        families={family: (len(rows), rank_of(rows)) for family, rows in gathered.items()},
        overall=rank_of([row for block in gathered.values() for row in block]),
        expected=2 ** (N - 2) - zagier_dim(N),
    )
