"""Block reflections refl_{j,k} and reflective closures."""

from __future__ import annotations

from .words import BlockDecomposition


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

    Adjacent transpositions refl_{i,i+1} generate all length
    permutations, so a breadth-first sweep over them suffices.
    """
    seed = list(initial)
    if not seed:
        return frozenset()
    weight = seed[0].weight
    n = seed[0].n_blocks
    for B in seed:
        if B.weight != weight or B.n_blocks != n:
            raise ValueError("closure members must share weight and block count")
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for B in frontier:
            for i in range(1, n):
                img = refl_block(B, i, i + 1)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)
