"""Reflective closures: the sets closed under the block reflections refl_{j,k}."""

from __future__ import annotations

from .words import BlockDecomposition, distinct_orderings


def reflective_closure(initial) -> frozenset[BlockDecomposition]:
    """Smallest superset closed under every refl_{j,k}.

    refl_{j,k} reverses the block lengths in positions j..k.  The
    reflections refl_{i,i+1} are the adjacent transpositions, which
    generate every reordering, so the closure is the union of the
    distinct orderings of each member's lengths.
    """
    seed = list(initial)
    if len({(B.weight, B.n_blocks) for B in seed}) > 1:
        raise ValueError("closure members must share weight and block count")
    return frozenset(
        BlockDecomposition(B.eps1, lengths)
        for B in seed
        for lengths in distinct_orderings(B.lengths)
    )
