import itertools
import random

import pytest

from blockzeta.reflect import reflective_closure
from blockzeta.words import BlockDecomposition, Word, blocks, word_of


def refl_block(B: BlockDecomposition, j: int, k: int) -> BlockDecomposition:
    """Oracle: reverse the block lengths in positions j..k (1-based, inclusive)."""
    n = B.n_blocks
    if not 1 <= j <= k <= n:
        raise IndexError(f"invalid reflection range ({j},{k}) for {n} blocks")
    ls = B.lengths
    new = ls[: j - 1] + ls[j - 1 : k][::-1] + ls[k:]
    return BlockDecomposition(B.eps1, new)


def random_blockdec(rng, max_weight=14, max_blocks=5):
    while True:
        n = rng.randint(1, max_blocks)
        lengths = tuple(rng.randint(1, 5) for _ in range(n))
        if 2 <= sum(lengths) <= max_weight + 2:
            return blocks(rng.randint(0, 1), *lengths)


def bfs_closure(seed):
    """Oracle: breadth-first search over the adjacent reflections refl_{i,i+1}."""
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for B in frontier:
            for i in range(1, B.n_blocks):
                img = refl_block(B, i, i + 1)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def reflected_cut(B, p, L):
    """Image of the L-letter cut at letter position p of word_of(B).

    Blocks s..t hold the cut; refl_{s,t} reverses them and carries the
    cut along, so its length is kept.  The paper writes the cut as
    (B; s,t; alpha,beta) and its image as (refl_{s,t} B; s,t; beta,alpha).
    """
    starts = list(itertools.accumulate(B.lengths, initial=0))
    s = max(i for i in range(B.n_blocks) if starts[i] <= p)
    t = max(i for i in range(B.n_blocks) if starts[i] <= p + L - 1)
    return refl_block(B, s + 1, t + 1), starts[s] + starts[t + 1] - (p + L)


def offsets(B, p, L):
    """(alpha, beta): letters of block s before the cut, of block t after it."""
    starts = list(itertools.accumulate(B.lengths, initial=0))
    first = max(x for x in starts if x <= p)
    after_last = min(x for x in starts if x >= p + L)
    return p - first, after_last - (p + L)


def cut_word(B, p, L):
    return Word(word_of(B).letters[p : p + L])


def quotient_word(B, p, L):
    """What is left of word_of(B); both boundary letters of the cut stay."""
    w = word_of(B).letters
    return Word(w[: p + 1] + w[p + L - 1 :])


def cuts(B, L):
    return range(sum(B.lengths) - L + 1)


class TestReflBlock:
    def test_paper_example(self):
        assert refl_block(blocks(0, 5, 2, 1, 7), 1, 3) == blocks(0, 1, 2, 5, 7)

    def test_single_index(self):
        B = blocks(0, 4, 2, 3)
        assert refl_block(B, 2, 2) == B

    def test_full_reflection_is_dual_lengths(self):
        B = blocks(0, 5, 2, 1, 7)
        assert refl_block(B, 1, 4).lengths == B.dual()[0].lengths

    def test_involution_and_invariants(self):
        rng = random.Random(1)
        for _ in range(50):
            B = random_blockdec(rng)
            n = B.n_blocks
            j = rng.randint(1, n)
            k = rng.randint(j, n)
            R = refl_block(B, j, k)
            assert refl_block(R, j, k) == B
            assert R.weight == B.weight and R.n_blocks == n

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            refl_block(blocks(0, 2, 3), 1, 3)


class TestReflectiveClosure:
    def test_singleton_gives_all_permutations(self):
        S = reflective_closure([blocks(0, 1, 2, 3)])
        expected = {blocks(0, *p) for p in itertools.permutations((1, 2, 3))}
        assert S == expected
        for n in range(1, 7):
            for lengths in itertools.product((1, 2, 3), repeat=n):
                B = blocks(n % 2, *lengths)
                assert reflective_closure([B]) == bfs_closure([B]), lengths

    def test_equal_lengths_fixed(self):
        assert reflective_closure([blocks(0, 2, 2, 2)]) == {blocks(0, 2, 2, 2)}

    def test_four_blocks_count_and_closedness(self):
        S = reflective_closure([blocks(0, 5, 2, 1, 7)])
        assert len(S) == 24
        for B in S:
            for j in range(1, 5):
                for k in range(j, 5):
                    assert refl_block(B, j, k) in S
        # a union of two seeds: (1,2,3,5) and (2,2,3,4) have 24 and 12 orderings
        seeds = [blocks(0, 5, 2, 1, 3), blocks(0, 2, 4, 2, 3)]
        union = reflective_closure(seeds)
        assert union == bfs_closure(seeds)
        assert len(union) == 36

    def test_mixed_input_rejected(self):
        with pytest.raises(ValueError):
            reflective_closure([blocks(0, 2, 3), blocks(0, 2, 2)])


class TestReflSubsequence:
    """The paper's pairing of a cut with its image under refl_{s,t}."""

    def test_paper_example(self):
        # (B; 2,5; 1,3) -> (refl_{2,5} B; 2,5; 3,1)
        B = blocks(1, 1, 3, 4, 1, 5)
        assert offsets(B, 2, 9) == (1, 3)
        assert reflected_cut(B, 2, 9) == (blocks(1, 1, 5, 1, 4, 3), 4)
        assert offsets(blocks(1, 1, 5, 1, 4, 3), 4, 9) == (3, 1)

    def test_fixed_point(self):
        B = blocks(0, 2, 3, 2)
        assert reflected_cut(B, 1, 5) == (B, 1)

    def test_involution_random(self):
        rng = random.Random(3)
        count = 0
        while count < 500:
            B = random_blockdec(rng)
            total = sum(B.lengths)
            if total < 5:
                continue
            L = rng.choice([l for l in (5, 7, 9) if l <= total])
            p = rng.randint(0, total - L)
            R, q = reflected_cut(B, p, L)
            assert reflected_cut(R, q, L) == (B, p)
            assert offsets(R, q, L) == offsets(B, p, L)[::-1]  # (alpha, beta) swap
            count += 1

    def test_refl_is_reverse_or_dual(self):
        rng = random.Random(4)
        for _ in range(200):
            B = random_blockdec(rng)
            total = sum(B.lengths)
            if total < 5:
                continue
            p = rng.randint(0, total - 5)
            cut = cut_word(B, p, 5)
            rcut = cut_word(*reflected_cut(B, p, 5), 5)
            assert rcut in (cut.reversed(), cut.dual())

    def test_odd_fixed_points_trivial(self):
        # odd-length refl fixed points have equal end letters
        for start in (blocks(0, 2, 3, 2), blocks(0, 3, 1, 3), blocks(1, 2, 2, 3)):
            for B in reflective_closure([start]):
                for L in range(5, sum(B.lengths) + 1, 2):
                    for p in cuts(B, L):
                        if reflected_cut(B, p, L) == (B, p):
                            assert cut_word(B, p, L).is_trivial

    def test_orbits_and_quotients_on_closure(self):
        S = reflective_closure([blocks(0, 2, 3, 3)])
        pairs = 0
        for B in S:
            for L in (5, 7):
                for p in cuts(B, L):
                    R, q = reflected_cut(B, p, L)
                    assert R in S
                    if (R, q) != (B, p) and not cut_word(B, p, L).is_trivial:
                        assert not cut_word(R, q, L).is_trivial
                        assert quotient_word(R, q, L) == quotient_word(B, p, L)
                        pairs += 1
        assert pairs
