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
from math import gcd, isqrt, lcm

from .identities import Identity, gen_altodd_even, gen_altodd_odd, gen_cyclic_full
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
    weight; those violating the positivity constraint are skipped.
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
                x = N + 2 - sum(odds)
                if len(set(odds)) < len(odds) or x <= 0:
                    continue
                try:
                    ident = gen_altodd_odd(comp, x)
                except ValueError:
                    continue
                yield ident


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


#: The relation families of the rank table, in table order.
FAMILIES = ("cyclic", "altodd", "duality")
MAX_WEIGHT = 14  # ceiling: every row is dense over 2^(N-2) basis words


def _check_table_args(N: int, families: tuple[str, ...]) -> None:
    if N < 2:
        raise ValueError(f"weight must be at least 2, got {N}")
    if N > MAX_WEIGHT:
        raise ValueError(f"weight {N} beyond the configured ceiling {MAX_WEIGHT}")
    for family in families:
        if family not in FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
            )


def family_rows(N: int, family: str) -> list[list[Fraction]]:
    """Relation vectors of one family at weight N."""
    if family == "cyclic":
        return cyclic_rows(N)
    if family == "altodd":
        return altodd_rows(N)
    if family == "duality":
        return duality_rows(N)
    raise ValueError(f"unknown family {family!r}")


def relation_rows(N: int, families: tuple[str, ...]) -> dict[str, list[list[Fraction]]]:
    """The relation vectors of each distinct family, in the order listed;
    N >= 2, families from FAMILIES."""
    _check_table_args(N, families)
    return {family: family_rows(N, family) for family in dict.fromkeys(families)}


@dataclass
class RelationMatrix:
    """Rows of relation vectors over the convergent-word basis."""

    weight: int
    basis: list[ZetaComposition]
    rows: list[list[Fraction]]

    @classmethod
    def build(cls, N: int, families: tuple[str, ...]) -> "RelationMatrix":
        gathered = relation_rows(N, families)
        rows = [row for block in gathered.values() for row in block]
        return cls(N, list(_basis_index(N)), rows)

    def sparse_triplets(self) -> list[tuple[int, int, str]]:
        out = []
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x:
                    out.append((i, j, str(x)))
        return out

    @property
    def rank(self) -> int:
        return rank_of(self.rows)


#: The first elimination prime; later ones are the primes below it, in turn.
MERSENNE_61 = (1 << 61) - 1

#: Miller-Rabin with these bases is exact below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """2^61 - 1, then the primes below it in decreasing order."""
    yield MERSENNE_61
    n = MERSENNE_61 - 2
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators; zero rows dropped."""
    out = []
    for row in rows:
        den = lcm(*{x.denominator for x in row})
        ints = [x.numerator * (den // x.denominator) for x in row]
        if any(ints):
            out.append(ints)
    return out


def _echelon_mod(
    mat: list[list[int]], n_cols: int, p: int
) -> tuple[list[int], list[list[int]]]:
    """Reduced echelon form of `mat` mod p, on its free columns only.

    Returns the pivot columns and, per pivot row, its entries in the free
    columns (in column order).  Rows are taken in the order given.
    """
    # Entries are reduced mod p only where they are read: each update adds
    # less than p^2 in size, so they stay a few machine words long.
    rows = [[x % p for x in row] for row in mat]
    pivots: list[int] = []
    tails: list[list[int]] = []  # pivot row scaled to 1, columns after the pivot
    for col in range(n_cols):
        k = next((i for i, row in enumerate(rows) if row[col] % p), None)
        if k is None:
            continue
        row = rows.pop(k)
        inv = pow(row[col], -1, p)
        tail = [x * inv % p for x in row[col + 1 :]]
        nonzero = [(j, x) for j, x in enumerate(tail, col + 1) if x]
        for other in rows:
            f = other[col] % p
            if not f:
                continue
            other[col] = 0
            for j, x in nonzero:
                other[j] -= f * x
        pivots.append(col)
        tails.append(tail)
        if not rows:
            break
    pivot_set = set(pivots)
    free = [j for j in range(n_cols) if j not in pivot_set]
    reduced: list[list[int]] = [[] for _ in pivots]
    if free:
        # back-substitution; a reduced row is zero on every other pivot
        for k in range(len(pivots) - 1, -1, -1):
            col, tail = pivots[k], tails[k]
            vals = [tail[f - col - 1] if f > col else 0 for f in free]
            for k2 in range(k + 1, len(pivots)):
                g = tail[pivots[k2] - col - 1]
                if g:
                    vals = [(a - g * b) % p for a, b in zip(vals, reduced[k2])]
            reduced[k] = vals
    return pivots, reduced


def _rational_reconstruct(u: int, m: int) -> Fraction | None:
    """The n/d with |n|, d <= sqrt(m/2) and n = u d mod m, if there is one (Wang)."""
    bound = isqrt(m // 2)
    r0, r1 = m, u % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lift_kernel(
    pivots: list[int], residues: list[list[int]], modulus: int, n_cols: int
) -> list[list[int]] | None:
    """Integer kernel vectors, one per free column, from the CRT residues
    of the reduced echelon entries; None if one fails to reconstruct."""
    pivot_set = set(pivots)
    free = [j for j in range(n_cols) if j not in pivot_set]
    kernel = []
    for t, f in enumerate(free):
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for col, res in zip(pivots, residues):
            if res[t]:
                x = _rational_reconstruct(res[t], modulus)
                if x is None:
                    return None
                vec[col] = -x
        den = lcm(*(x.denominator for x in vec))
        kernel.append([x.numerator * (den // x.denominator) for x in vec])
    return kernel


def _annihilates(columns: list[list[tuple[int, int]]], n_rows: int, vec: list[int]) -> bool:
    """Whether the matrix, given by the nonzero (row, entry) pairs of each
    column, sends vec to zero, exactly."""
    acc = [0] * n_rows
    for col, v in zip(columns, vec):
        if v:
            for i, x in col:
                acc[i] += v * x
    return not any(acc)


@dataclass(frozen=True)
class RankCertificate:
    """An exact rank with the evidence for both of its bounds.

    The eliminated matrix is the nonzero integer rows, transposed when
    there are fewer of them than columns.  Lower bound: its `pivots`
    columns are independent modulo `primes[0]`, hence over Q.  Upper
    bound: `kernel` holds one integer vector per free column, nonzero in
    that column and zero in the other free ones (so they are independent),
    each checked exactly to be sent to zero by the matrix.  `rejected` lists the primes whose
    echelon form was set aside: a smaller rank, or later pivots.
    """

    rank: int
    transposed: bool
    pivots: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]
    primes: tuple[int, ...]
    rejected: tuple[int, ...]


def rank_certificate(rows: list[list[Fraction]]) -> RankCertificate:
    """Certified rank over Q by elimination modulo word-size primes.

    Each prime gives an echelon form.  One with a larger rank, or the same
    rank and lexicographically earlier pivots, replaces the candidate (the
    pivots over Q are the earliest possible); one that agrees with it is
    combined by CRT.  After each prime the kernel vectors are lifted by
    rational reconstruction and returned only if they pass the exact check.
    """
    mat = _integer_rows(rows)
    transposed = bool(mat) and len(mat) < len(mat[0])
    if transposed:
        mat = [list(col) for col in zip(*mat)]
    n_cols = len(mat[0]) if mat else 0
    mat.sort(key=lambda row: n_cols - row.count(0))  # sparsest first
    columns = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*mat)]
    best = None
    primes: list[int] = []
    rejected: list[int] = []
    for p in _primes():
        pivots, reduced = _echelon_mod(mat, n_cols, p)
        if (
            best is None
            or len(pivots) > len(best)
            or (len(pivots) == len(best) and pivots < best)
        ):
            rejected.extend(primes)
            best, primes, modulus, residues = pivots, [p], p, reduced
        elif pivots == best:
            inv = pow(modulus, -1, p)
            residues = [
                [a + modulus * ((b - a) * inv % p) for a, b in zip(old, new)]
                for old, new in zip(residues, reduced)
            ]
            modulus *= p
            primes.append(p)
        else:
            rejected.append(p)
            continue
        kernel = _lift_kernel(best, residues, modulus, n_cols)
        if kernel is not None and all(_annihilates(columns, len(mat), v) for v in kernel):
            return RankCertificate(
                rank=len(best),
                transposed=transposed,
                pivots=tuple(best),
                kernel=tuple(map(tuple, kernel)),
                primes=tuple(primes),
                rejected=tuple(rejected),
            )
    raise AssertionError("unreachable: the primes do not run out")


def rank_of(rows: list[list[Fraction]]) -> int:
    """Exact rank over Q, certified (see `rank_certificate`)."""
    return rank_certificate(rows).rank


@dataclass
class TableRow:
    """One row of the rank table: (row count, rank) per family, the rank
    of all those rows together, and the expected 2^(N-2) - d_N."""

    weight: int
    families: dict[str, tuple[int, int]]
    overall: int
    expected: int


def table_row(N: int, families: tuple[str, ...] = FAMILIES) -> TableRow:
    """Assemble one row of the relation-rank table; N >= 2, families from FAMILIES."""
    gathered = relation_rows(N, families)
    return TableRow(
        weight=N,
        families={family: (len(rows), rank_of(rows)) for family, rows in gathered.items()},
        overall=rank_of([row for block in gathered.values() for row in block]),
        expected=2 ** (N - 2) - zagier_dim(N),
    )
