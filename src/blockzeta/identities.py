"""Generators for the cyclic-insertion, Hoffman, alt-odd and 123 families.

Every generator returns an Identity: a weight-homogeneous left-hand
combination together with the closed-form right-hand constant (a
PiRational, possibly zero, or None for "some rational times zeta(N)").
The difference lhs - rhs is the machine-checkable "= 0" form consumed by
numeric verification and by the rank table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .lincomb import LinComb, PiRational, combine
from .regalgebra import _compositions, shuffle_product, zeta_two_power
from .words import (
    ONE,
    BlockDecomposition,
    Word,
    ZetaComposition,
    block_decompose,
    mzv_to_word,
    word_of,
    word_to_mzv,
)

FAMILIES = (
    "symmetric",
    "cyclic-basic",
    "cyclic-full",
    "bbbl",
    "hoffman",
    "general-hoffman",
    "cyc123",
    "altodd-even",
    "altodd-odd",
    "double-alt",
    "bowman-bradley",
    "z1333-compsum",
    "further-13332n",
    "z13312-sym",
    "thm-2-7-1",
)


@dataclass
class Identity:
    family: str
    params: dict
    weight: int
    lhs: LinComb
    rhs: PiRational | None  # None: unknown rational multiple of zeta(N)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown identity family {self.family!r}")
        for key, coeff in self.lhs.items():
            if not isinstance(key, (Word, ZetaComposition)):
                raise ValueError(f"identity terms are words or zeta values, got {key}")
            total = key.weight + coeff.pi_exp
            if total != self.weight:
                raise ValueError(
                    f"inhomogeneous term {key} (weight {total}) in a "
                    f"weight-{self.weight} identity"
                )
        if self.rhs is not None and not self.rhs.is_zero and self.rhs.pi_exp != self.weight:
            raise ValueError(
                f"rhs pi-exponent {self.rhs.pi_exp} != weight {self.weight}"
            )

    def difference(self) -> LinComb:
        """lhs - rhs as a single combination (the "= 0" form)."""
        if self.rhs is None:
            raise ValueError("identity has an unknown rational right-hand side")
        return self.lhs - LinComb.term(ONE, self.rhs)

    def describe(self) -> str:
        rhs = "q*zeta(N), q unknown" if self.rhs is None else str(self.rhs)
        return f"{self.family}{self.params} weight {self.weight}, rhs {rhs}"


def _nontrivial_block(lengths: tuple[int, ...]) -> BlockDecomposition:
    B = BlockDecomposition(0, tuple(lengths))
    if B.is_trivial:
        raise ValueError(f"(0; {lengths}) is trivial: weight and block count match mod 2")
    return B


def block_word(lengths: tuple[int, ...]) -> Word:
    return word_of(BlockDecomposition(0, tuple(lengths)))


def _scaled(c: LinComb, scalar):
    """The terms of scalar * c, for summing through one combine."""
    return ((key, v * scalar) for key, v in c.items())


def _rotations(lengths: tuple[int, ...]):
    n = len(lengths)
    for i in range(n):
        yield lengths[i:] + lengths[:i]


def cyclic_sum(lengths: tuple[int, ...]) -> LinComb:
    """Sum of I_bl over all cyclic permutations of the lengths."""
    return combine((block_word(rot), 1) for rot in _rotations(tuple(lengths)))


def cyclic_head(lengths: tuple[int, ...]) -> LinComb:
    """The cyclic sum minus I_bl(N+2), shared by every cyclic relation.

    At odd weight N the block integral I_bl(N+2) is trivial, hence 0.
    """
    N = sum(lengths) - 2
    head = cyclic_sum(lengths)
    if N % 2 == 0:
        head = head - LinComb.term(block_word((N + 2,)), 1)
    return head


def least_rotation(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least cyclic rotation: one per necklace."""
    return min(_rotations(tuple(lengths)))


def has_cyclic_adjacent_ones(lengths: tuple[int, ...]) -> bool:
    """Whether two cyclically neighbouring lengths are both 1."""
    n = len(lengths)
    return any(lengths[i] == 1 and lengths[(i + 1) % n] == 1 for i in range(n))


def gen_symmetric(B: BlockDecomposition) -> Identity:
    """Sum over all length permutations; a rational multiple of zeta(N)."""
    if B.eps1 != 0:
        raise ValueError("symmetric insertion is stated for eps1 = 0")
    if B.is_trivial:
        raise ValueError("symmetric insertion needs a non-trivial decomposition")
    N = B.weight
    if N % 2 or N < 2:
        raise ValueError(f"symmetric insertion needs even weight >= 2, got {N}")
    # each distinct ordering stands for prod m_i! of the n! permutations
    mult = prod(factorial(m) for m in Counter(B.lengths).values())
    lhs = combine((block_word(perm), mult) for perm in _distinct_permutations(B.lengths))
    return Identity("symmetric", {"lengths": B.lengths}, N, lhs, None)


def _distinct_permutations(items: tuple[int, ...]):
    """Every distinct ordering of items once, in lexicographic order."""
    a = sorted(items)
    while True:
        yield tuple(a)
        # next permutation: raise the rightmost ascent, then sort the tail
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def compute_Lk(lengths: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Cyclic permutations beginning with k ones, the ones deleted.

    Multiset semantics: repeated rotations are kept.
    """
    out = []
    for rot in _rotations(tuple(lengths)):
        if len(rot) >= k and all(x == 1 for x in rot[:k]):
            out.append(rot[k:])
    return out


def gen_cyclic_basic(lengths) -> Identity:
    """Basic cyclic insertion: the cyclic sum equals I_bl(N+2)."""
    lengths = tuple(lengths)
    if len(lengths) < 2:
        raise ValueError("cyclic insertion on a single block is a tautology")
    B = _nontrivial_block(lengths)
    if has_cyclic_adjacent_ones(lengths):
        raise ValueError(
            f"{lengths} has cyclically adjacent (1,1); use the full version"
        )
    return Identity(
        "cyclic-basic",
        {"lengths": lengths},
        B.weight,
        cyclic_head(lengths),
        PiRational(Fraction(0)),
    )


def gen_cyclic_full(lengths, mode: str = "transcendental") -> Identity:
    """Full cyclic insertion with product corrections for runs of 1s.

    mode "transcendental": corrections carry pi^(2k) coefficients, for
    numerics.  mode "symbolic": corrections are shuffle-expanded products
    I_bl(2k+2) * I_bl(m), with I_bl(2k+2) the word of zeta({2}^k); every
    term is a word, so no pi coefficient is left.

    The rank table vectorises mode "transcendental": rank.vectorize
    resolves each pi^(2k) correction through zeta(2k) and the depth-1
    stuffle.  The symbolic relations are numerically true, but their
    formal rank is lower: 12 / 23 / 46 at weights 6 / 7 / 8, against
    13 / 25 / 50 for the table's rows (README.md, "Rank table").
    """
    lengths = tuple(lengths)
    if len(lengths) < 2:
        raise ValueError("cyclic insertion on a single block is a tautology")
    if mode not in ("transcendental", "symbolic"):
        raise ValueError(f"unknown mode {mode!r}")
    B = _nontrivial_block(lengths)
    N = B.weight
    terms = list(cyclic_head(lengths).items())
    for k in range(1, len(lengths) // 2 + 1):
        ms = compute_Lk(lengths, 2 * k)
        if mode == "transcendental":
            # A_k = 2 (2 pi)^(2k) / (2k+2)!, correction sign (-1)^k
            a_k = PiRational(Fraction((-1) ** k * 2 * 4**k, factorial(2 * k + 2)), 2 * k)
            terms.extend((block_word(m) if m else ONE, a_k) for m in ms)
        else:
            # (-1)^k A_k = + 2^(2k+1)/(2k+2) * I_bl(2k+2), expanded by shuffle
            q = Fraction(2 ** (2 * k + 1), 2 * k + 2)
            corr = block_word((2 * k + 2,))
            for m in ms:
                if m:
                    terms.extend(_scaled(shuffle_product(corr, block_word(m)), q))
                else:
                    terms.append((corr, q))
    lhs = combine(terms)
    return Identity(
        "cyclic-full",
        {"lengths": lengths, "mode": mode},
        N,
        lhs,
        PiRational(Fraction(0)),
    )


# --------------------------------------------------------------------------
# 123-MZVs and their block-rotation orbits


@dataclass(frozen=True)
class Zeta123Form:
    """123-MZV written as zeta(a1,...,a_{n-1} | b1,...,b_n).

    tokens are '1', '3' or 'T' (the compound argument (1,2)); bs are the
    exponents of the interleaved blocks of 2s.  This is the input format
    of the 123 families; their orbits come from the expanded word.
    """

    tokens: tuple[str, ...]
    bs: tuple[int, ...]

    def __post_init__(self):
        if len(self.bs) != len(self.tokens) + 1:
            raise ValueError("need one more b entry than a-tokens")
        if any(b < 0 for b in self.bs):
            raise ValueError("b exponents must be >= 0")
        for i, tok in enumerate(self.tokens):
            if tok not in ("1", "3", "T"):
                raise ValueError(f"bad token {tok!r}")
            nxt = self.tokens[i + 1] if i + 1 < len(self.tokens) else None
            if tok == "1" and nxt != "3":
                raise ValueError("a '1' argument must be followed by a '3'")
            if tok == "T" and nxt == "3":
                raise ValueError("('(1,2)', '3') is not a valid combination")

    def expand(self) -> ZetaComposition:
        args: list[int] = []
        for tok, b in zip(self.tokens + ("",), self.bs):
            args.extend([2] * b)
            if tok == "1":
                args.append(1)
            elif tok == "3":
                args.append(3)
            elif tok == "T":
                args.extend((1, 2))
        return ZetaComposition(tuple(args))

    @property
    def depth(self) -> int:
        return self.expand().depth

    @property
    def weight(self) -> int:
        return self.expand().weight

    def __str__(self) -> str:
        toks = ",".join("(1,2)" if t == "T" else t for t in self.tokens)
        bs = ",".join(str(b) for b in self.bs)
        return f"z({toks} | {bs})"


def parse_123(s: ZetaComposition) -> Zeta123Form:
    """Recover the a|b form of a 123-MZV composition."""
    args = s.args
    if any(a not in (1, 2, 3) for a in args):
        raise ValueError(f"{s} is not a 123-MZV: argument outside {{1,2,3}}")
    if any(a == b == 1 for a, b in itertools.pairwise(args)):
        raise ValueError(f"{s} is not a 123-MZV: adjacent (1,1)")
    tokens: list[str] = []
    bs: list[int] = []
    i = 0
    while i < len(args):
        b = 0
        while i < len(args) and args[i] == 2:
            b += 1
            i += 1
        bs.append(b)
        if i == len(args):
            return Zeta123Form(tuple(tokens), tuple(bs))
        if args[i] == 3:
            tokens.append("3")
            i += 1
            continue
        # args[i] == 1: token '1' exactly when the next non-2 symbol is a 3
        j = i + 1
        while j < len(args) and args[j] == 2:
            j += 1
        if j < len(args) and args[j] == 3:
            tokens.append("1")
            i += 1
        else:
            if i + 1 >= len(args) or args[i + 1] != 2:
                raise ValueError(f"{s} is not a 123-MZV")
            tokens.append("T")
            i += 2
    bs.append(0)
    return Zeta123Form(tuple(tokens), tuple(bs))


def gen_cyc123(z: Zeta123Form, family: str = "cyc123", params: dict | None = None) -> Identity:
    """Cyclic insertion for a 123-MZV: the block cyclic sum read as MZVs.

    Each rotation of the block lengths of z's word is read back through
    word_to_mzv and signed so that z itself has coefficient 1.  At even
    weight N the sum is the I_bl(N+2) term that cyclic_head subtracts,
    (-1)^(N/2) zeta({2}^(N/2)) in the same sign; at odd weight it is 0.
    """
    w, sign = mzv_to_word(z.expand())
    N = w.weight
    terms = []
    for rot, c in cyclic_sum(block_decompose(w).lengths).items():
        comp, s = word_to_mzv(rot)
        terms.append((comp, c * (sign * s)))
    if N % 2:
        rhs = PiRational(Fraction(0))
    else:
        rhs = zeta_two_power(N // 2) * (sign * (-1) ** (N // 2))
    return Identity(
        family,
        params if params is not None else {"form": str(z)},
        N,
        combine(terms),
        rhs,
    )


def gen_hoffman(b1: int, b2: int, b3: int) -> Identity:
    """Generic Hoffman identity zeta(3,3|b) - zeta(3,(1,2)|..) + ..."""
    return gen_cyc123(
        Zeta123Form(("3", "3"), (b1, b2, b3)),
        family="hoffman",
        params={"b": (b1, b2, b3)},
    )


def gen_general_hoffman(n: int, bs: tuple[int, ...], c: int) -> Identity:
    """Alternating cyclic family on zeta({3}^{2n} | b1..b_{2n}, c)."""
    bs = tuple(bs)
    if len(bs) != 2 * n:
        raise ValueError(f"need 2n = {2 * n} b-parameters, got {len(bs)}")
    base = gen_cyc123(Zeta123Form(("3",) * (2 * n), bs + (c,)))
    # displayed with the i-th term signed (-1)^i, i.e. the negated orbit sum
    rhs = None if base.rhs is None else -base.rhs
    return Identity(
        "general-hoffman",
        {"n": n, "b": bs, "c": c},
        base.weight,
        -base.lhs,
        rhs,
    )


def gen_bbbl(bs: tuple[int, ...]) -> Identity:
    """BBBL cyclic insertion: blocks of 2s inserted into zeta({1,3}^n)."""
    bs = tuple(bs)
    if len(bs) % 2 == 0:
        raise ValueError("need an odd number of insertion parameters b0..b_{2n}")
    n = (len(bs) - 1) // 2
    z = Zeta123Form(("1", "3") * n, bs)
    return gen_cyc123(z, family="bbbl", params={"b": bs})


# --------------------------------------------------------------------------
# composition sums and symmetrised families


def gen_composition_sums(kind: str, m: int, n: int = 1) -> Identity:
    """Composition-sum families: Bowman-Bradley and the z1333 variants."""
    if m < 0 or n < 0:
        raise ValueError(f"composition sums need m, n >= 0, got m={m}, n={n}")
    if kind == "bowman-bradley":
        lhs = combine(
            (Zeta123Form(("1", "3") * n, bs).expand(), 1)
            for bs in _compositions(m, 2 * n + 1)
        )
        wt = 4 * n + 2 * m
        rhs = PiRational(
            Fraction(comb(m + 2 * n, m), (2 * n + 1) * factorial(wt + 1)), wt
        )
        return Identity("bowman-bradley", {"n": n, "m": m}, wt, lhs, rhs)
    if kind == "z1333-compsum":
        parts = list(_compositions(m, 5))
        # one lot of -pi^wt/(wt+1)! per composition of m into 5 parts
        assert len(parts) == comb(m + 4, m)
        lhs = _orbit_sum(("1", "3", "3", "3"), parts)
        wt = 10 + 2 * m
        rhs = PiRational(Fraction(-comb(m + 4, m), factorial(wt + 1)), wt)
        return Identity("z1333-compsum", {"m": m}, wt, lhs, rhs)
    if kind == "further-13332n":
        if m < 2:
            raise ValueError("the further-13332n family needs m >= 2")
        parts = [(0, 0, 0, 0, m), (0, 0, 0, m, 0)]
        parts.extend((0, 0, i, 0, m - i) for i in range(1, m - 1))
        parts.append((0, 1, 0, m - 1, 0))
        lhs = _orbit_sum(("1", "3", "3", "3"), parts)
        wt = 10 + 2 * m
        rhs = PiRational(Fraction(-(m + 1), factorial(wt + 1)), wt)
        return Identity("further-13332n", {"m": m}, wt, lhs, rhs)
    raise ValueError(f"unknown composition-sum kind {kind!r}")


def _orbit_sum(tokens: tuple[str, ...], bs_list) -> LinComb:
    """Sum of the block-rotation orbit sums of zeta(tokens | bs) over bs_list."""
    return combine(
        term for bs in bs_list for term in gen_cyc123(Zeta123Form(tokens, bs)).lhs.items()
    )


def gen_sym_family(kind: str, params: dict) -> Identity:
    """Symmetrised z13312 family and the on-the-nose Theorem-2.7.1 family."""
    if kind == "z13312-sym":
        b = tuple(params["b"])
        if len(b) != 5:
            raise ValueError("z13312-sym needs five b parameters")
        terms = []
        for p_even in itertools.permutations((b[0], b[1], b[4])):
            for p_odd in itertools.permutations((b[2], b[3])):
                c = (p_even[0], p_even[1], p_odd[0], p_odd[1], p_even[2])
                terms.extend(gen_cyc123(Zeta123Form(("1", "3", "3", "3"), c)).lhs.items())
                terms.extend(_scaled(gen_cyc123(
                    Zeta123Form(("1", "3", "3", "T"), (c[0], c[1], c[2], c[4], c[3]))
                ).lhs, -1))
        lhs = combine(terms)
        wt = 10 + 2 * sum(b)
        rhs = PiRational(Fraction(-factorial(4), factorial(wt + 1)), wt)
        return Identity("z13312-sym", {"b": b}, wt, lhs, rhs)
    if kind == "thm-2-7-1":
        m = params["m"]
        return gen_cyc123(
            Zeta123Form(("1", "3", "3", "T"), (m, 0, 0, 0, 0)),
            family="thm-2-7-1",
            params={"m": m},
        )
    raise ValueError(f"unknown symmetrised kind {kind!r}")


# --------------------------------------------------------------------------
# alt-odd families


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def alt_sum(lengths: tuple[int, ...], *slot_groups: tuple[int, ...]) -> LinComb:
    """Antisymmetrised sum over permutations of each group of 1-based slots.

    The groups are permuted independently, each term signed by the
    product of their permutation signs.  Identically zero (empty
    combination) when the values of a group repeat.  Trivial words are
    dropped: their integrals vanish exactly.
    """
    lengths = tuple(lengths)
    groups = [(slots, [lengths[p - 1] for p in slots]) for slots in slot_groups]
    if any(len(set(values)) < len(values) for _, values in groups):
        return LinComb.zero()
    terms = []
    for perms in itertools.product(
        *(itertools.permutations(range(len(values))) for _, values in groups)
    ):
        assigned = list(lengths)
        sign = 1
        for (slots, values), perm in zip(groups, perms):
            for slot, src in zip(slots, perm):
                assigned[slot - 1] = values[src]
            sign *= _perm_sign(perm)
        w = block_word(tuple(assigned))
        if not w.is_trivial:
            terms.append((w, sign))
    return combine(terms)


def gen_altodd_even(lengths) -> Identity:
    """Alternate the odd-position block lengths; even weight, rhs 0."""
    lengths = tuple(lengths)
    B = _nontrivial_block(lengths)
    N = B.weight
    if N % 2:
        raise ValueError("the even-weight alt-odd family needs even weight")
    if len(lengths) < 3:
        raise ValueError("need at least 3 blocks")
    odd_positions = tuple(range(1, len(lengths) + 1, 2))
    lhs = alt_sum(lengths, odd_positions)
    return Identity(
        "altodd-even", {"lengths": lengths}, N, lhs, PiRational(Fraction(0))
    )


@dataclass
class AltOddRow:
    index: int
    inserted: int
    b_string: tuple[int, ...]
    b_slots: tuple[int, ...]  # 1-based slots of the odd-position lengths
    c_string: tuple[int, ...]
    c_slots: tuple[int, ...]


def altodd_odd_rows(lengths: tuple[int, ...], x: int) -> list[AltOddRow]:
    """Row data for the odd-weight alt-odd candidate (steps 1-4).

    Row i drops the i-th even-position length, interleaves the odd
    positions with the kept evens, and inserts x - sum(kept evens) to
    the left (B) and right (C) of the i-th odd length.
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
        rows.append(AltOddRow(i, v, b_string, b_slots, c_string, c_slots))
    return rows


def gen_altodd_odd(lengths, x: int) -> Identity:
    """Odd-weight alt-odd candidate: signed sum of the rows R_i."""
    lengths = tuple(lengths)
    rows = altodd_odd_rows(lengths, x)
    terms = []
    for row in rows:
        sign = 1 if row.index % 2 else -1  # (-1)^(i+1), first row positive
        terms.extend(_scaled(alt_sum(row.b_string, row.b_slots), sign))
        terms.extend(_scaled(alt_sum(row.c_string, row.c_slots), sign))
    N = x + sum(lengths[0::2]) - 2
    return Identity(
        "altodd-odd",
        {"lengths": lengths, "x": x},
        N,
        combine(terms),
        PiRational(Fraction(0)),
    )


def gen_double_alt(lengths) -> Identity:
    """Standalone double-Alt identities for 4 and 6 blocks (odd weight).

    With 4 blocks the identity is false when two cyclically neighbouring
    lengths are both 1, so those inputs are rejected; with 6 blocks such
    inputs are kept.
    """
    lengths = tuple(lengths)
    if len(lengths) == 4:
        if has_cyclic_adjacent_ones(lengths):
            raise ValueError(
                f"4-block double-alt is false for {lengths}: it has cyclically adjacent (1,1)"
            )
        partitions = ((1, 3), (2, 4))
    elif len(lengths) == 6:
        partitions = ((1, 4, 6), (2, 3, 5))
    else:
        raise ValueError("double-alt is stated for 4 or 6 blocks")
    B = _nontrivial_block(lengths)
    lhs = alt_sum(lengths, *partitions)
    return Identity(
        "double-alt",
        {"lengths": lengths},
        B.weight,
        lhs,
        PiRational(Fraction(0)),
    )
