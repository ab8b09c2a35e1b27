"""Block reflections refl_{j,k} and reflective closures."""

from __future__ import annotations

from .words import BlockDecomposition, distinct_orderings


def refl_block(B: BlockDecomposition, j: int, k: int) -> BlockDecomposition:
    """Reverse the block lengths in positions j..k (1-based, inclusive)."""
    n = B.n_blocks
    if not 1 <= j <= k <= n:
        raise IndexError(f"invalid reflection range ({j},{k}) for {n} blocks")
    ls = B.lengths
    new = ls[: j - 1] + ls[j - 1 : k][::-1] + ls[k:]
    return BlockDecomposition(B.eps1, new)


def reflective_closure(initial) -> frozenset[BlockDecomposition]:
    """Smallest superset closed under every refl_{j,k}.

    The reflections refl_{i,i+1} are the adjacent transpositions, which
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
