"""The derivation operators D_r and the pairwise-cancellation kernel check.

Left tensor factors are canonicalised against the symmetry group
{identity, reversal, 0/1-flip, both}: reversal and the dual carry the
sign (-1)^L for a cut of letter length L, the flip is sign-free.  For
the odd cut lengths arising in D_r this makes cancelling pairs collide
on the same key with opposite coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .identities import cyclic_sum, has_cyclic_adjacent_ones, least_rotation
from .lincomb import LinComb, TensorTerm, combine
from .words import BlockDecomposition, Word, block_decompose, word_of


def canonical_word(w: Word) -> tuple[Word, int]:
    """Lexicographically least of {w, rev, flip, revflip}, with sign.

    Returns (representative, sign); sign 0 means the symmetries force the
    integral itself to vanish (conflicting signs on the same orbit rep).
    """
    sign_rev = -1 if len(w.letters) % 2 else 1
    candidates = [
        (w.letters, 1),
        (w.letters[::-1], sign_rev),
        (tuple(1 - x for x in w.letters), 1),
        (tuple(1 - x for x in w.letters[::-1]), sign_rev),
    ]
    best = min(t for t, _ in candidates)
    signs = {s for t, s in candidates if t == best}
    if len(signs) == 2:
        return Word(best), 0
    return Word(best), signs.pop()


def raw_cuts(w: Word, r: int):
    """Literal enumeration of the D_r cut positions on a word.

    Yields (cut_word, quotient_word) for every p, trivial cuts included.
    """
    letters = w.letters
    N = w.weight
    for p in range(0, N - r + 1):
        cut = Word(letters[p : p + r + 2])
        quot = Word(letters[: p + 1] + letters[p + r + 1 :])
        yield cut, quot


def d_r(c: LinComb, r: int) -> LinComb:
    """Grade-r derivation of a combination of words."""
    if r % 2 == 0 or r < 3:
        raise ValueError(f"derivation grade must be odd and >= 3, got {r}")
    terms = []
    for key, coeff in c.items():
        if not isinstance(key, Word):
            raise TypeError(f"d_r acts on words, got {type(key).__name__}")
        if key.weight <= r:
            raise ValueError(f"d_{r} undefined on weight-{key.weight} word {key}")
        for cut, quot in raw_cuts(key, r):
            if cut.letters[0] == cut.letters[-1]:
                continue  # trivial subsequence, equal boundaries
            rep, sign = canonical_word(cut)
            if sign == 0:
                continue
            terms.append((TensorTerm(rep, quot, r), coeff * sign))
    return combine(terms)


def d_less_than_N(c: LinComb) -> LinComb:
    """Direct sum of d_r over all odd grades 3 <= r < weight."""
    weights = {k.weight for k, _ in c.items()}
    if len(weights) > 1:
        raise ValueError(f"mixed weights {sorted(weights)} in derivation input")
    if not weights:
        return LinComb.zero()
    N = weights.pop()
    out = LinComb.zero()
    for r in range(3, N, 2):
        out = out + d_r(c, r)
    return out


@dataclass
class KernelReport:
    vanishes: bool
    residue: LinComb
    weight: int

    @property
    def conclusion(self) -> str:
        if self.vanishes:
            return (
                f"all D_r, 3 <= r < {self.weight}, cancel: the input is a "
                f"rational multiple of zeta({self.weight})"
            )
        return (
            f"{len(self.residue)} tensor terms survive canonicalisation; "
            "not a disproof (no modulo-products reduction is attempted)"
        )


def kernel_report(c: LinComb) -> KernelReport:
    """Check whether D_{<N} kills the combination after cancellation."""
    weights = {k.weight for k, _ in c.items()}
    if len(weights) > 1:
        raise ValueError(f"mixed weights {sorted(weights)} in kernel input")
    N = weights.pop() if weights else 0
    if N < 2 and not c.is_zero:
        raise ValueError(f"kernel check needs weight >= 2, got weight {N}")
    residue = d_less_than_N(c)
    return KernelReport(residue.is_zero, residue, N)


def closure_comb(S) -> LinComb:
    """Sum of the block integrals of a set of decompositions."""
    return combine((word_of(B), 1) for B in S)


@dataclass
class StabilityGroup:
    left_word: Word  # canonical representative
    left_blocks: tuple[int, ...]
    right_b: tuple[int, ...]  # orbit representative of the quotient blocks
    coefficient: int
    join_values: tuple[int, ...]
    is_full_cycle: bool
    m_plus_k: int


@dataclass
class StabilityReport:
    lengths: tuple[int, ...]
    r: int
    groups: list[StabilityGroup] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        n = len(self.lengths)
        return all(g.is_full_cycle and g.m_plus_k == n + 1 for g in self.groups)


def stability_shape(lengths: tuple[int, ...], r: int) -> StabilityReport:
    """Group D_r of a cyclic sum by canonical left factor, test the cycle law.

    Each group's quotient factors must split into full cyclic sums over
    C_k with uniform coefficient and (left blocks) + k = n + 1; every b
    entry is an original length or one alpha+beta+2 join.
    """
    lengths = tuple(lengths)
    n = len(lengths)
    report = StabilityReport(lengths, r)
    if n == 1:
        return report  # nothing to group; trivially stable
    tensors = d_r(cyclic_sum(lengths), r)
    grouped: dict[Word, dict[tuple[int, ...], dict[Word, int]]] = {}
    for term, coeff in tensors.items():
        b = block_decompose(term.right).lengths
        rep = least_rotation(b)
        grouped.setdefault(term.left, {}).setdefault(rep, {})[term.right] = int(
            coeff.coeff
        )
    for left, orbits in sorted(grouped.items(), key=lambda kv: str(kv[0])):
        left_blocks = block_decompose(left).lengths
        for rep, quots in sorted(orbits.items()):
            k = len(rep)
            any_right = next(iter(quots))
            eps = block_decompose(any_right).eps1
            expected = {
                word_of(BlockDecomposition(eps, rep[i:] + rep[:i])) for i in range(k)
            }
            coeffs = set(quots.values())
            full = set(quots) == expected and len(coeffs) == 1
            extra = list(rep)
            for l in lengths:
                if l in extra:
                    extra.remove(l)
            report.groups.append(
                StabilityGroup(
                    left_word=left,
                    left_blocks=left_blocks,
                    right_b=rep,
                    coefficient=coeffs.pop() if len(coeffs) == 1 else 0,
                    join_values=tuple(extra),
                    is_full_cycle=full,
                    m_plus_k=len(left_blocks) + k,
                )
            )
    return report


def collapse_cyclic_rights(tensors: LinComb) -> LinComb:
    """Rewrite full cyclic right-factor orbits through basic cyclic insertion.

    Each complete orbit sum_{C_k} I_bl(b) of quotient factors is replaced
    by the single block integral I_bl(weight+2), the lower-weight value
    the basic cyclic insertion conjecture assigns to it; this is how the
    odd-weight residues are usually read.  Orbits whose lengths contain
    cyclically adjacent 1s, and incomplete orbits, are left untouched.
    """
    grouped: dict[tuple[Word, int], dict[tuple[int, ...], dict[Word, "PiRational"]]] = {}
    for term, coeff in tensors.items():
        b = block_decompose(term.right).lengths
        grouped.setdefault((term.left, term.grade), {}).setdefault(
            least_rotation(b), {}
        )[term.right] = coeff
    terms = []
    for (left, grade), orbits in grouped.items():
        for rep, quots in orbits.items():
            k = len(rep)
            eps = block_decompose(next(iter(quots))).eps1
            orbit_words = {
                word_of(BlockDecomposition(eps, rep[i:] + rep[:i])) for i in range(k)
            }
            coeffs = set(quots.values())
            if (
                set(quots) == orbit_words
                and len(coeffs) == 1
                and not has_cyclic_adjacent_ones(rep)
            ):
                collapsed = word_of(BlockDecomposition(eps, (sum(rep),)))
                if not collapsed.is_trivial:
                    terms.append((TensorTerm(left, collapsed, grade), coeffs.pop()))
            else:
                terms.extend(
                    (TensorTerm(left, right, grade), c) for right, c in quots.items()
                )
    return combine(terms)
