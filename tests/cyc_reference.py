"""The token-level cyc operator on 123-MZVs, kept as a test reference.

`identities.gen_cyc123` builds a 123-MZV's orbit by rotating the block
lengths of its word.  The operator here builds the same orbit from the
a|b tokens instead, one step at a time, as the paper states it.  The two
constructions share no code, so agreement between them checks both.
`parse_123` reads the a|b tokens back off a composition, the inverse of
`Zeta123Form.expand`.
"""

import itertools

from blockzeta.identities import Zeta123Form
from blockzeta.lincomb import LinComb, combine
from blockzeta.words import ZetaComposition


def cyc(z: Zeta123Form) -> tuple[Zeta123Form, int]:
    """One step of the cyclic operator; returns (image, sign)."""
    toks, bs = z.tokens, z.bs
    if not toks:
        return z, 1
    if toks[0] == "3":
        return Zeta123Form(toks[1:] + ("T",), bs[1:] + (bs[0],)), -1
    k = 0
    while k < len(toks) and toks[k] == "T":
        k += 1
    sign = -1 if k % 2 else 1
    if k == len(toks):
        return Zeta123Form(("3",) * k, bs[1 : k + 1] + (bs[0],)), sign
    # leading T^k then '1','3'
    new_toks = toks[k + 2 :] + ("1", "3") + ("3",) * k
    new_bs = bs[k + 2 :] + (bs[0],) + bs[1 : k + 1] + (bs[k + 1],)
    return Zeta123Form(new_toks, new_bs), sign


def cyc_orbit(z: Zeta123Form) -> list[tuple[Zeta123Form, int]]:
    """The full cyc orbit with accumulated signs; one member per b entry."""
    out = [(z, 1)]
    cur, acc = z, 1
    for _ in range(len(z.bs) - 1):
        cur, s = cyc(cur)
        acc *= s
        out.append((cur, acc))
    return out


def orbit_sum(z: Zeta123Form) -> LinComb:
    """The signed sum of the cyc orbit, as MZVs."""
    return combine((form.expand(), sign) for form, sign in cyc_orbit(z))


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
