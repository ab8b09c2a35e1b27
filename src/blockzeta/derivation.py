"""The derivation operators D_r and the pairwise-cancellation kernel check.

Left tensor factors are canonicalised against the symmetry group
{identity, reversal, 0/1-flip, both}: reversal and the dual carry the
sign (-1)^L for a cut of letter length L, the flip is sign-free.  For
the odd cut lengths arising in D_r this makes cancelling pairs collide
on the same key with opposite coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lincomb import LinComb, PiRational, TensorTerm, combine
from .words import (
    BlockDecomposition,
    Word,
    block_decompose,
    has_cyclic_adjacent_ones,
    least_rotation,
    rotations,
    word_of,
)


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
        letters = key.letters
        for p in range(key.weight - r + 1):
            if letters[p] == letters[p + r + 1]:
                continue  # trivial subsequence, equal boundaries
            rep, sign = canonical_word(Word(letters[p : p + r + 2]))
            if sign == 0:
                continue
            quot = Word(letters[: p + 1] + letters[p + r + 1 :])
            terms.append((TensorTerm(rep, quot, r), coeff * sign))
    return combine(terms)


def _weight(c: LinComb, what: str) -> int:
    """The common weight of the terms of c, 0 when c is zero."""
    weights = {k.weight for k, _ in c.items()}
    if len(weights) > 1:
        raise ValueError(f"mixed weights {sorted(weights)} in {what}")
    return weights.pop() if weights else 0


def d_less_than_N(c: LinComb) -> LinComb:
    """Direct sum of d_r over all odd grades 3 <= r < weight."""
    out = LinComb.zero()
    for r in range(3, _weight(c, "derivation input"), 2):
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
    N = _weight(c, "kernel input")
    if N < 2 and not c.is_zero:
        raise ValueError(f"kernel check needs weight >= 2, got weight {N}")
    residue = d_less_than_N(c)
    return KernelReport(residue.is_zero, residue, N)


def closure_comb(S) -> LinComb:
    """Sum of the block integrals of a set of decompositions."""
    return combine((word_of(B), 1) for B in S)


def collapse_cyclic_rights(tensors: LinComb) -> LinComb:
    """Rewrite full cyclic right-factor orbits through basic cyclic insertion.

    Each complete orbit sum_{C_k} I_bl(b) of quotient factors is replaced
    by the single block integral I_bl(weight+2), the lower-weight value
    the basic cyclic insertion conjecture assigns to it; this is how the
    odd-weight residues are usually read.  Orbits whose lengths contain
    cyclically adjacent 1s, and incomplete orbits, are left untouched.
    """
    orbits: dict[tuple[Word, int, tuple[int, ...]], dict[Word, PiRational]] = {}
    for term, coeff in tensors.items():
        rep = least_rotation(block_decompose(term.right).lengths)
        orbits.setdefault((term.left, term.grade, rep), {})[term.right] = coeff
    terms = []
    for (left, grade, rep), quots in orbits.items():
        eps = next(iter(quots)).letters[0]
        orbit = {word_of(BlockDecomposition(eps, rot)) for rot in rotations(rep)}
        coeffs = set(quots.values())
        if set(quots) == orbit and len(coeffs) == 1 and not has_cyclic_adjacent_ones(rep):
            collapsed = word_of(BlockDecomposition(eps, (sum(rep),)))
            if not collapsed.is_trivial:
                terms.append((TensorTerm(left, collapsed, grade), coeffs.pop()))
        else:
            terms.extend((TensorTerm(left, right, grade), c) for right, c in quots.items())
    return combine(terms)
