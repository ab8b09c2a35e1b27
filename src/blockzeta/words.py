"""Binary words, alternating block decompositions and MZV compositions.

A word is the full argument string of an iterated integral, bounds
included: the first letter is the lower bound, the last letter the
upper bound.  Everything downstream (regularisation, derivations,
identity generation) is phrased in terms of these three value types,
and of the block-length combinatorics at the end of this module:
compositions, rotations and necklaces, distinct orderings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from operator import sub


class ParseError(ValueError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_ZERO, _ONE = 0, 1


@dataclass(frozen=True)
class Word:
    """A binary word of length >= 2, integration bounds included."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if len(self.letters) < 2:
            raise ValueError("a word needs at least the two bounds")
        for x in self.letters:
            # one test per letter, on a hot path: the interpreter shares its
            # small ints, so the identity tests pass nearly every letter, and
            # any other object takes the full test
            if x is not _ZERO and x is not _ONE and (not is_int(x) or x not in (0, 1)):
                raise ValueError(f"letters must be 0 or 1, got {x!r}")

    @classmethod
    def parse(cls, text: str) -> "Word":
        letters = []
        for i, ch in enumerate(text.strip()):
            if ch == "0":
                letters.append(0)
            elif ch == "1":
                letters.append(1)
            else:
                raise ParseError(f"invalid word character {ch!r}", i)
        if len(letters) < 2:
            raise ParseError("word too short, need length >= 2", len(letters))
        return cls(tuple(letters))

    def __str__(self) -> str:
        return "".join(str(x) for x in self.letters)

    @property
    def weight(self) -> int:
        return len(self.letters) - 2

    @property
    def interior(self) -> tuple[int, ...]:
        return self.letters[1:-1]

    @property
    def is_trivial(self) -> bool:
        """Equal integration bounds; the integral vanishes for weight >= 1."""
        return self.letters[0] == self.letters[-1]

    @property
    def is_divergent(self) -> bool:
        if self.weight == 0:
            return False
        return (
            self.letters[0] == self.letters[1]
            or self.letters[-2] == self.letters[-1]
        )

    @property
    def is_convergent(self) -> bool:
        """Starts 01 and ends 01; directly an MZV word."""
        if self.weight == 0:
            return self.letters == (0, 1)
        return (
            self.letters[0] == 0
            and self.letters[1] == 1
            and self.letters[-2] == 0
            and self.letters[-1] == 1
        )

    def reversed(self) -> "Word":
        return Word(self.letters[::-1])

    def flipped(self) -> "Word":
        return Word(tuple(1 - x for x in self.letters))

    def dual(self) -> "Word":
        """Reverse-and-flip; satisfies I(w) = (-1)^weight I(dual w)."""
        return Word(tuple(1 - x for x in self.letters[::-1]))


def word(text: str) -> Word:
    return Word.parse(text)


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_ints(text: str, what: str, offset: int = 0) -> tuple[int, ...]:
    """The integers of a comma-separated list, each entry stripped.

    A bad entry raises ParseError naming `what` and the entry, at the
    position where the entry starts, counted from `offset` (where `text`
    sits in the string the caller parses).
    """
    out = []
    for part in text.split(","):
        try:
            out.append(int(part.strip()))
        except ValueError:
            raise ParseError(f"bad {what} {part.strip()!r}", offset) from None
        offset += len(part) + 1
    return tuple(out)


@dataclass(frozen=True)
class BlockDecomposition:
    """Starting letter plus the lengths of the maximal alternating blocks."""

    eps1: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        if not is_int(self.eps1) or self.eps1 not in (0, 1):
            raise ValueError("eps1 must be 0 or 1")
        if not self.lengths:
            raise ValueError("need at least one block")
        for l in self.lengths:
            if not is_int(l):
                raise ValueError(f"block lengths must be integers, got {l!r}")
            if l < 1:
                raise ValueError("block lengths must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "BlockDecomposition":
        s = text.strip()
        if not s.startswith("(") or not s.endswith(")"):
            raise ParseError("expected '(eps; l1,...,ln)'", 0)
        body = s[1:-1]
        if ";" not in body:
            raise ParseError("missing ';' separating eps from lengths", 1)
        head, _, tail = body.partition(";")
        try:
            eps = int(head.strip())
        except ValueError:
            raise ParseError(f"bad starting letter {head.strip()!r}", 1) from None
        return cls(eps, parse_ints(tail, "block length", s.index(";") + 1))

    def __str__(self) -> str:
        return f"({self.eps1}; {','.join(str(l) for l in self.lengths)})"

    @property
    def n_blocks(self) -> int:
        return len(self.lengths)

    @property
    def weight(self) -> int:
        return sum(self.lengths) - 2

    @property
    def is_trivial(self) -> bool:
        """Weight and block count of equal parity: equal bounds, integral 0."""
        return (self.weight - self.n_blocks) % 2 == 0

    @property
    def is_divergent(self) -> bool:
        w = word_of(self)
        return w.is_divergent

    def dual(self) -> tuple["BlockDecomposition", int]:
        """Lengths reversed, same eps1; sign (-1)^weight."""
        sign = -1 if self.weight % 2 else 1
        return BlockDecomposition(self.eps1, self.lengths[::-1]), sign


def blocks(eps1: int, *lengths: int) -> BlockDecomposition:
    return BlockDecomposition(eps1, tuple(lengths))


def block_decompose(w: Word) -> BlockDecomposition:
    """Cut w at every repeated letter; the unique minimal decomposition."""
    lengths = []
    run = 1
    for prev, cur in itertools.pairwise(w.letters):
        if cur == prev:
            lengths.append(run)
            run = 1
        else:
            run += 1
    lengths.append(run)
    return BlockDecomposition(w.letters[0], tuple(lengths))


def word_of(B: BlockDecomposition) -> Word:
    """Inverse of block_decompose: concatenate the alternating blocks."""
    letters = []
    eps = B.eps1
    for l in B.lengths:
        letters.extend((eps + i) % 2 for i in range(l))
        eps = (eps + l - 1) % 2
    return Word(tuple(letters))


@dataclass(frozen=True)
class ZetaComposition:
    """Argument tuple of a multiple zeta value; convergent iff last >= 2."""

    # slots rather than an instance dict: the read-off memo of
    # interior_to_mzv holds one composition per distinct interior, and the
    # hash below is a second attribute
    __slots__ = ("args", "_hash")
    args: tuple[int, ...]

    def __post_init__(self):
        for a in self.args:
            if a.__class__ is not int and not is_int(a) or a < 1:
                raise ValueError(f"zeta arguments must be positive integers, got {a!r}")
        # the value the dataclass hash computes on every call, computed once:
        # compositions key every combination that regularise and rank build
        object.__setattr__(self, "_hash", hash((self.args,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor: the frozen __setattr__ refuses the
        # slot-by-slot restore that pickle and deepcopy would otherwise do
        return type(self), (self.args,)

    @classmethod
    def parse(cls, text: str) -> "ZetaComposition":
        s = text.strip()
        if not s.startswith("z(") or not s.endswith(")"):
            raise ParseError("expected 'z(s1,...,sk)'", 0)
        body = s[2:-1].strip()
        if not body:
            return cls(())
        return cls(parse_ints(body, "zeta argument", 2))

    def __str__(self) -> str:
        return f"z({','.join(str(a) for a in self.args)})"

    @property
    def depth(self) -> int:
        return len(self.args)

    @property
    def weight(self) -> int:
        return sum(self.args)

    @property
    def is_convergent(self) -> bool:
        return not self.args or self.args[-1] >= 2


def zc(*args: int) -> ZetaComposition:
    return ZetaComposition(tuple(args))


#: The empty composition; stands for the constant 1 in linear combinations.
ONE = ZetaComposition(())


def mzv_to_word(s: ZetaComposition) -> tuple[Word, int]:
    """Kontsevich word of a convergent MZV, with the sign (-1)^depth."""
    if not s.is_convergent:
        raise ValueError(f"non-convergent composition {s}: last argument must be >= 2")
    letters = [0]
    for a in s.args:
        letters.append(1)
        letters.extend([0] * (a - 1))
    letters.append(1)
    sign = -1 if s.depth % 2 else 1
    return Word(tuple(letters)), sign


def word_to_mzv(w: Word) -> tuple[ZetaComposition, int]:
    """Inverse of mzv_to_word; rejects words that are not convergent."""
    if not w.is_convergent:
        raise ValueError(f"word {w} is not convergent; regularise it first")
    return interior_to_mzv(w.interior)


@cache
def interior_to_mzv(interior: tuple[int, ...]) -> tuple[ZetaComposition, int]:
    """Composition and sign (-1)^depth of the word 0 interior 1.

    That word is convergent when its interior is empty, or starts with 1
    and ends with 0; any other interior is rejected.  Memoised: every
    regularised sum is read off through here, so each distinct interior
    builds its composition once.
    """
    if interior and (interior[0] != 1 or interior[-1] != 0):
        raise ValueError(
            f"interior {''.join(map(str, interior))} is not that of a convergent word"
        )
    args = []
    count = 0
    for x in interior:
        if x == 1:
            if count:
                args.append(count)
            count = 1
        else:
            count += 1
    if count:
        args.append(count)
    s = ZetaComposition(tuple(args))
    sign = -1 if s.depth % 2 else 1
    return s, sign


def convergent_words(weight: int) -> list[Word]:
    """All convergent words of the given weight, sorted as binary integers."""
    if weight == 0:
        return [Word((0, 1))]
    if weight == 1:
        return []
    out = []
    for mid in itertools.product((0, 1), repeat=weight - 2):
        out.append(Word((0, 1) + mid + (0, 1)))
    return out


# --------------------------------------------------------------------------
# block-length combinatorics


def compositions(total: int, parts: int):
    """Weak compositions of `total` into `parts` non-negative entries.

    Stars and bars, in lexicographic order: the parts - 1 running sums
    of the leading entries are a non-decreasing sequence of cut points
    in 0..total, and each entry is the gap between neighbouring cuts.
    """
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def rotations(lengths: tuple[int, ...]):
    """The n cyclic rotations of n lengths, in turn; a periodic tuple repeats."""
    for i in range(len(lengths)):
        yield lengths[i:] + lengths[:i]


def least_rotation(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least cyclic rotation: one per necklace."""
    return min(rotations(tuple(lengths)))


def has_cyclic_adjacent_ones(lengths: tuple[int, ...]) -> bool:
    """Whether two cyclically neighbouring lengths are both 1."""
    n = len(lengths)
    return any(lengths[i] == 1 and lengths[(i + 1) % n] == 1 for i in range(n))


MAX_ORDERINGS = 10**5  # ceiling: callers build one term or set member per ordering


def distinct_orderings(items: tuple[int, ...]):
    """Every distinct ordering of items once, in lexicographic order.

    Their number n!/prod m_i! (m_i the multiplicities) is counted first,
    prefix by prefix of the sorted items, and may not exceed MAX_ORDERINGS.
    """
    a = sorted(items)
    count, seen = 1, {}
    for i, x in enumerate(a, 1):
        seen[x] = seen.get(x, 0) + 1
        count = count * i // seen[x]  # the orderings of a[:i], an integer
        if count > MAX_ORDERINGS:
            raise ValueError(
                f"{len(a)} lengths have more distinct orderings than the "
                f"configured ceiling {MAX_ORDERINGS}"
            )
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
