"""Direct summation of MZVs with a certified tail bound, kept as a test reference.

`numerics.eval_mzv` splits each iterated integral at 1/2 and sums power
series.  The oracle here sums the nested series of zeta(s_1, ..., s_k)
directly, n = 1..M, and bounds the tail analytically.  The two
evaluations share no code, so agreement between them checks both.
"""

from fractions import Fraction
from math import comb, factorial

from blockzeta.regalgebra import bernoulli
from blockzeta.words import ZetaComposition


def _em_tail(s: int, M: int, shift: int) -> tuple[int, int]:
    """sum_{n>M} n^-s scaled by 2^shift, with an error bound in ulps.

    Euler-Maclaurin with three Bernoulli corrections; the remainder is
    bounded by the magnitude of the first omitted correction term.
    """
    one = 1 << shift
    total = one // ((s - 1) * M ** (s - 1)) - one // (2 * M**s)
    # + sum_j B_2j/(2j)! * (s)_{2j-1} / M^(s+2j-1)
    err = 4
    coeffs = [(bernoulli(2 * j), 2 * j) for j in (1, 2, 3)]
    for B2j, twoj in coeffs:
        rising = 1
        for i in range(twoj - 1):
            rising *= s + i
        q = B2j * rising / factorial(twoj)
        term = (one * q.numerator) // (q.denominator * M ** (s + twoj - 1))
        total += term
        err += 2
    B8 = bernoulli(8)
    rising = 1
    for i in range(7):
        rising *= s + i
    rem = abs((one * B8.numerator * rising) // (B8.denominator * factorial(8) * M ** (s + 7)))
    err += 2 * rem + 2
    return total, err


def _log_power_tail(a: int, s: int, M: int, factor: Fraction) -> Fraction:
    """Upper bound for factor * sum_{n>M} (1+ln n)^a / n^s, s >= 2.

    Integral comparison after substituting u = ln x; rational upper
    bound ln(M+1) <= 0.7 * bitlength(M+1).
    """
    log_bound = Fraction(7, 10) * ((M + 1).bit_length())
    total = Fraction(0)
    for i in range(a + 1):
        total += (
            comb(a, i)
            * (1 + log_bound) ** (a - i)
            * factorial(i)
            / Fraction((s - 1) ** (i + 1))
        )
    return factor * total / Fraction(M ** (s - 1))


def _inner_tail_envelope(args: tuple[int, ...]) -> tuple[Fraction, int, int]:
    """(Q, a, d): tail(args, m) <= Q (1+ln m)^a / m^d for the partial sums.

    Valid for convergent args (last >= 2); crude but rigorous: each layer
    below the outermost contributes a factor 2 (sum <= zeta(2)) or a
    harmonic-log factor.
    """
    base = Fraction(1)
    for x in args[:-1]:
        if x != 1:
            base *= 2
    a = sum(1 for x in args[:-1] if x == 1)
    s_out = args[-1]
    total = Fraction(0)
    for i in range(a + 1):
        total += comb(a, i) * factorial(i) / Fraction((s_out - 1) ** (i + 1))
    # (1+ln m)^(a-i) <= (1+ln m)^a folded into the envelope exponent
    return base * total, a, s_out - 1


def mzv_direct_sum(s: ZetaComposition, terms: int = 200_000) -> tuple[Fraction, Fraction]:
    """(midpoint, radius): direct partial sums plus a certified tail bound.

    Depth-1 tails use Euler-Maclaurin (many digits).  At depth >= 2 with
    a convergent inner prefix the outer tail is peeled analytically:
    sum_{n>M} S_inner(n-1) n^-s = zeta(inner) Z(s, M) - correction, with
    Z from Euler-Maclaurin, zeta(inner) by recursion, and the correction
    bounded through the inner tail envelope.  Divergent prefixes fall
    back to the positive-term integral bound.  This is the convention
    oracle for eval_mzv.
    """
    if not s.is_convergent or not s.args:
        raise ValueError(f"oracle needs a convergent non-empty composition, got {s}")
    args = s.args
    k = len(args)
    shift = 96
    one = 1 << shift
    M = terms
    if k == 1:
        M = min(terms, 4000)
        acc = 0
        for n in range(1, M + 1):
            acc += one // n ** args[0]
        tail, terr = _em_tail(args[0], M, shift)
        mid = Fraction(acc + tail, one)
        return mid, Fraction(M + terr + 2, one)
    # incremental multiple partial sums; level j must see the n-1 state
    # of level j-1, so levels are updated top-down
    if args[-2] >= 2:
        M = min(terms, 20_000)  # the analytic peel converges much faster
    prev = [0] * k
    for n in range(1, M + 1):
        for j in range(k - 1, -1, -1):
            p = n ** args[j]
            inc = one // p if j == 0 else prev[j - 1] // p
            prev[j] += inc
    partial = Fraction(prev[k - 1], one)
    rounding = Fraction(M * 3**k, one)
    s_out = args[-1]
    if args[-2] >= 2:
        inner = args[:-1]
        inner_mid, inner_rad = mzv_direct_sum(ZetaComposition(inner), terms)
        z_tail, z_err = _em_tail(s_out, M, shift)
        z_mid = Fraction(z_tail, one)
        z_rad = Fraction(z_err, one)
        # correction = sum_{n>M} T_inner(n-1) n^-s_out, in [0, corr_max];
        # the factor 2 absorbs (n-1)^-d vs n^-d for n > M
        Q, a, d = _inner_tail_envelope(inner)
        corr_max = 2 * _log_power_tail(a, s_out + d, M, Q)
        mid = partial + inner_mid * z_mid - corr_max / 2
        radius = (
            rounding
            + inner_rad * z_mid
            + (inner_mid + inner_rad) * z_rad
            + corr_max / 2
        )
        return mid, radius
    # divergent prefix: positive-term integral bound for the whole tail
    base = Fraction(1)
    for x in args[:-1]:
        if x != 1:
            base *= 2  # each convergent layer is bounded by zeta(2) < 2
    ones_inner = sum(1 for x in args[:-1] if x == 1)
    tail = _log_power_tail(ones_inner, s_out, M, base)
    return partial + tail / 2, tail / 2 + rounding
