"""Certified exact rank over Q: elimination modulo word-size primes, proved
by an exactly checked nullspace (see `rank_certificate`)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm


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


def rank_certificate(rows: list[list[int]]) -> RankCertificate:
    """Certified rank over Q of integer rows by elimination modulo primes.

    Each prime gives an echelon form.  One with a larger rank, or the same
    rank and lexicographically earlier pivots, replaces the candidate (the
    pivots over Q are the earliest possible); one that agrees with it is
    combined by CRT.  After each prime the kernel vectors are lifted by
    rational reconstruction and returned only if they pass the exact check.
    Rows of different lengths or with an entry that is not an int (a bool,
    a Fraction, a float) are rejected; zero rows are dropped.
    """
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != width:
            raise ValueError("rows differ in length")
        if set(map(type, row)) - {int}:
            raise ValueError("row entries must be ints; scale a rational row to integers")
    mat = [row for row in rows if any(row)]
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


def rank_of(rows: list[list[int]]) -> int:
    """Exact rank over Q, certified (see `rank_certificate`)."""
    return rank_certificate(rows).rank
