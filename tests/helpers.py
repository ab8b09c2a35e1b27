"""Enumerations the tests sweep over."""

import itertools

from blockzeta.words import Word


def all_words(length: int) -> list[Word]:
    """Every word of the given total length (bounds included)."""
    return [Word(bits) for bits in itertools.product((0, 1), repeat=length)]
