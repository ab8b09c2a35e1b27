"""Generators for the cyclic-insertion, Hoffman, alt-odd and 123 families.

Every generator is one function of its own arguments and returns an
Identity: a weight-homogeneous left-hand combination together with the
closed-form right-hand constant (a PiRational, possibly zero, or None
for "some rational times zeta(N)").  The difference lhs - rhs is the
machine-checkable "= 0" form consumed by numeric verification and by
the rank table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial, prod

from .lincomb import LinComb, PiRational, combine
from .regalgebra import shuffle_words, zeta_two_power
from .words import (
    ONE,
    BlockDecomposition,
    Word,
    ZetaComposition,
    block_decompose,
    compositions,
    distinct_orderings,
    has_cyclic_adjacent_ones,
    is_int,
    mzv_to_word,
    rotations,
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
        if self.weight < 0:
            raise ValueError(f"identity weight must be at least 0, got {self.weight}")
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
        params = dict(sorted(self.params.items()))  # the JSON key order
        return f"{self.family}{params} weight {self.weight}, rhs {rhs}"


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


def cyclic_sum(lengths: tuple[int, ...]) -> LinComb:
    """Sum of I_bl over all cyclic permutations of the lengths."""
    return combine((block_word(rot), 1) for rot in rotations(tuple(lengths)))


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
    lhs = combine((block_word(perm), mult) for perm in distinct_orderings(B.lengths))
    return Identity("symmetric", {"lengths": B.lengths}, N, lhs, None)


def compute_Lk(lengths: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Cyclic permutations beginning with k ones, the ones deleted.

    Multiset semantics: repeated rotations are kept.
    """
    out = []
    for rot in rotations(tuple(lengths)):
        if len(rot) >= k and all(x == 1 for x in rot[:k]):
            out.append(rot[k:])
    return out


def gen_cyclic_basic(lengths) -> Identity:
    """Basic cyclic insertion: the full identity of lengths without runs of unit blocks.

    Without cyclically adjacent ones no rotation starts with a run of
    ones, so there is no product correction: the cyclic sum equals I_bl(N+2).
    """
    lengths = tuple(lengths)
    ident = gen_cyclic_full(lengths)
    if has_cyclic_adjacent_ones(lengths):
        raise ValueError(
            f"{lengths} has cyclically adjacent (1,1); use the full version"
        )
    return replace(ident, family="cyclic-basic", params={"lengths": lengths})


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
    terms = list(cyclic_sum(lengths).items())
    if N % 2 == 0:  # at odd weight N the block integral I_bl(N+2) is trivial
        terms.append((block_word((N + 2,)), -1))
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
                    product = shuffle_words(corr.interior, block_word(m).interior)
                    terms.extend(_scaled(product, q))
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
        if not all(is_int(b) for b in self.bs):
            raise ValueError(f"b exponents must be integers, got {self.bs!r}")
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


def gen_cyc123(z: Zeta123Form) -> Identity:
    """Cyclic insertion for a 123-MZV: the block cyclic sum read as MZVs.

    Each rotation of the block lengths of z's word is read back through
    word_to_mzv and signed so that z itself has coefficient 1.  At even
    weight N the sum is the I_bl(N+2) term that gen_cyclic_full subtracts,
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
    return Identity("cyc123", {"form": str(z)}, N, combine(terms), rhs)


def gen_hoffman(b1: int, b2: int, b3: int) -> Identity:
    """Generic Hoffman identity zeta(3,3|b) - zeta(3,(1,2)|..) + ..."""
    ident = gen_cyc123(Zeta123Form(("3", "3"), (b1, b2, b3)))
    return replace(ident, family="hoffman", params={"b": (b1, b2, b3)})


def gen_general_hoffman(n: int, bs: tuple[int, ...], c: int) -> Identity:
    """Alternating cyclic family on zeta({3}^{2n} | b1..b_{2n}, c)."""
    if not is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    bs = tuple(bs)
    if len(bs) != 2 * n:
        raise ValueError(f"need 2n = {2 * n} b-parameters, got {len(bs)}")
    base = gen_cyc123(Zeta123Form(("3",) * (2 * n), bs + (c,)))
    # displayed with the i-th term signed (-1)^i, i.e. the negated orbit sum
    return replace(
        base,
        family="general-hoffman",
        params={"n": n, "b": bs, "c": c},
        lhs=-base.lhs,
        rhs=-base.rhs,
    )


def gen_bbbl(bs: tuple[int, ...]) -> Identity:
    """BBBL cyclic insertion: blocks of 2s inserted into zeta({1,3}^n)."""
    bs = tuple(bs)
    if len(bs) % 2 == 0:
        raise ValueError("need an odd number of insertion parameters b0..b_{2n}")
    n = (len(bs) - 1) // 2
    ident = gen_cyc123(Zeta123Form(("1", "3") * n, bs))
    return replace(ident, family="bbbl", params={"b": bs})


# --------------------------------------------------------------------------
# composition sums and symmetrised families


def gen_composition_sums(kind: str, m: int, n: int = 1) -> Identity:
    """Composition-sum families: Bowman-Bradley and the z1333 variants."""
    if not (is_int(m) and is_int(n)):
        raise ValueError(f"composition sums need integer m, n, got m={m!r}, n={n!r}")
    if m < 0 or n < 0:
        raise ValueError(f"composition sums need m, n >= 0, got m={m}, n={n}")
    if kind == "bowman-bradley":
        lhs = combine(
            (Zeta123Form(("1", "3") * n, bs).expand(), 1)
            for bs in compositions(m, 2 * n + 1)
        )
        wt = 4 * n + 2 * m
        rhs = PiRational(
            Fraction(comb(m + 2 * n, m), (2 * n + 1) * factorial(wt + 1)), wt
        )
        return Identity("bowman-bradley", {"n": n, "m": m}, wt, lhs, rhs)
    if kind == "z1333-compsum":
        parts = list(compositions(m, 5))
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


def gen_z13312_sym(b: tuple[int, ...]) -> Identity:
    """Symmetrised z13312 family over the orderings of (b1, b2, b5) and (b3, b4)."""
    b = tuple(b)
    if len(b) != 5:
        raise ValueError(f"z13312-sym needs five b parameters, got {b!r}")
    terms = []
    for p_even in itertools.permutations((b[0], b[1], b[4])):
        for p_odd in itertools.permutations((b[2], b[3])):
            c = (p_even[0], p_even[1], p_odd[0], p_odd[1], p_even[2])
            terms.extend(gen_cyc123(Zeta123Form(("1", "3", "3", "3"), c)).lhs.items())
            terms.extend(_scaled(gen_cyc123(
                Zeta123Form(("1", "3", "3", "T"), (c[0], c[1], c[2], c[4], c[3]))
            ).lhs, -1))
    wt = 10 + 2 * sum(b)
    rhs = PiRational(Fraction(-factorial(4), factorial(wt + 1)), wt)
    return Identity("z13312-sym", {"b": b}, wt, combine(terms), rhs)


def gen_thm_2_7_1(m: int) -> Identity:
    """The on-the-nose Theorem-2.7.1 family z_cyc(1,3,3,(1,2) | m,0,0,0,0)."""
    ident = gen_cyc123(Zeta123Form(("1", "3", "3", "T"), (m, 0, 0, 0, 0)))
    return replace(ident, family="thm-2-7-1", params={"m": m})


# --------------------------------------------------------------------------
# alt-odd families


def _perm_sign(perm: tuple[int, ...]) -> int:
    """(-1) to the number of inversions."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


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


def gen_altodd_odd(lengths, x: int) -> Identity:
    """Odd-weight alt-odd candidate: the signed sum of the rows R_i.

    Row i drops the i-th even-position length and interleaves the odd
    positions with the kept evens; v = x - sum(kept evens) goes in to the
    left (string B) and to the right (string C) of the i-th odd length.
    Each string alternates its odd lengths; row i is signed (-1)^i.
    """
    lengths = tuple(lengths)
    if len(lengths) % 2 or len(lengths) < 2:
        raise ValueError("need an even number of block lengths")
    if not is_int(x):
        raise ValueError(f"x must be an integer, got {x!r}")
    odds, evens = lengths[0::2], lengths[1::2]
    if (x + sum(odds)) % 2 == 0:
        raise ValueError(
            f"constraint violated: x + sum(odd positions) = "
            f"{x + sum(odds)} must be odd"
        )
    n = len(odds)
    terms = []
    for i in range(n):
        kept = evens[:i] + evens[i + 1:]
        v = x - sum(kept)
        if v <= 0:
            raise ValueError(f"constraint violated: x - sum(E_{i + 1}) = {v} must be > 0")
        inter = [*itertools.chain.from_iterable(zip(odds, kept)), odds[-1]]
        # odd length j sits at inter index 2j; the insertion shifts later slots
        for ins in (2 * i, 2 * i + 1):
            slots = tuple(2 * j + 1 + (2 * j >= ins) for j in range(n))
            terms.extend(_scaled(alt_sum(inter[:ins] + [v] + inter[ins:], slots), (-1) ** i))
    N = x + sum(odds) - 2
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
