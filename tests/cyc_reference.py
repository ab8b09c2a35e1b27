"""The token-level cyc operator on 123-MZVs, kept as a test reference.

`identities.gen_cyc123` builds a 123-MZV's orbit by rotating the block
lengths of its word.  The operator here builds the same orbit from the
a|b tokens instead, one step at a time, as the paper states it.  The two
constructions share no code, so agreement between them checks both.
"""

from blockzeta.identities import Zeta123Form
from blockzeta.lincomb import LinComb, combine


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
