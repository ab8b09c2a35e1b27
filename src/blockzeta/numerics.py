"""Arbitrary-precision evaluation of MZVs and identity verification.

Convergent iterated integrals are evaluated by composing the path at
the midpoint: I(0; a; 1) = sum_k I(0; a_1..a_k; 1/2) I(1/2; a_{k+1}..; 1),
with the right factors reflected through t -> 1-t so every factor is a
convergent power series at 1/2 with a geometric tail.  Prefix and
suffix factors are built incrementally, one series transform per letter.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import series
from .bigreal import BigReal, bits_for_digits, pi_power
from .lincomb import LinComb
from .regalgebra import bernoulli, regularise
from .words import Word, ZetaComposition, mzv_to_word

DEFAULT_DIGITS = 50
MAX_DIGITS = 2000  # ceiling: quadratic cost makes more impractical here
MAX_WEIGHT = 200  # ceiling: pi^N and the weight-N series grow with N
_TAIL_EXTRA = 8  # truncation order M = bits + _TAIL_EXTRA
_SCALE_EXTRA = 16  # coefficient scale F = bits + _SCALE_EXTRA


def _digits_bucket(digits: int) -> int:
    """The precision rounded up to a multiple of ten, at least ten.

    The value caches key by exact digits; perfbench/layers.py reads them
    through this bucket, which agrees at its precisions (30, 50, 500).
    """
    return ((max(digits, 10) + 9) // 10) * 10


class EvalCache:
    """In-memory value cache keyed by composition and exact digit count.

    A value computed for one precision never answers another, so results
    do not depend on what ran before.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._mem: dict[tuple[ZetaComposition, int], BigReal] = {}

    def get(self, comp: ZetaComposition, digits: int) -> BigReal | None:
        with self._lock:
            return self._mem.get((comp, digits))

    def put(self, comp: ZetaComposition, digits: int, value: BigReal) -> None:
        with self._lock:
            self._mem[(comp, digits)] = value


_cache = EvalCache()
_word_cache: dict[tuple[Word, int], BigReal] = {}
_word_lock = threading.Lock()


def reset_caches() -> None:
    global _cache
    _cache = EvalCache()
    with _word_lock:
        _word_cache.clear()


def _factor_values(letters, M: int, F: int) -> list[int]:
    """g(l_1..l_k; 1/2) * 2^F for k = 0..len(letters), one transform per letter.

    The series starts at g('1'; z), so letters[0] is taken to be 1.
    """
    vals = [1 << F]
    C = None
    for k, bit in enumerate(letters):
        C = series.g_init(M, F) if k == 0 else series.g_append(C, bit, M, F)
        vals.append(series.g_value(C, M, F))
    return vals


def eval_word(w: Word, digits: int = DEFAULT_DIGITS) -> BigReal:
    """Value of the iterated integral of a convergent word."""
    bits = bits_for_digits(digits)
    key = (w, digits)
    with _word_lock:
        hit = _word_cache.get(key)
    if hit is not None:
        return hit
    if w.weight == 0:
        return BigReal.from_int(1, bits)  # unit integral, any bounds
    if w.is_trivial:
        return BigReal.exact_zero(bits)
    if not w.is_convergent:
        raise ValueError(f"word {w} is divergent; regularise before evaluating")
    F = bits + _SCALE_EXTRA
    M = bits + _TAIL_EXTRA
    interior = w.interior
    N = len(interior)
    # prefix g(a_1..a_k; 1/2) and suffix g(flip reverse(a_{k+1}..a_N); 1/2);
    # a factor of j >= 1 letters is off by at most j + tail ulps
    pref_vals = _factor_values(interior, M, F)
    suf_vals = _factor_values([1 - x for x in reversed(interior)], M, F)
    tail = 3 + (1 << (F - M))
    total = 0
    err = 0
    for k in range(N + 1):
        term = (pref_vals[k] * suf_vals[N - k]) >> F
        if (N - k) % 2:
            term = -term
        total += term
        err += (k + tail if k else 0) + (N - k + tail if k < N else 0) + 2
    result = BigReal(total, F, err)._rescale(bits)
    with _word_lock:
        _word_cache[key] = result
    return result


def eval_mzv(s: ZetaComposition, digits: int = DEFAULT_DIGITS) -> BigReal:
    """zeta(s) to the requested precision; s must be convergent."""
    _check_digits(digits)
    if not s.is_convergent:
        raise ValueError(f"{s} diverges: last argument must be >= 2")
    if not s.args:
        return BigReal.from_int(1, bits_for_digits(digits))
    hit = _cache.get(s, digits)
    if hit is not None:
        return hit
    w, sign = mzv_to_word(s)
    val = eval_word(w, digits)
    if sign < 0:
        val = -val
    _cache.put(s, digits, val)
    return val


def zeta_value(n: int, digits: int = DEFAULT_DIGITS) -> BigReal:
    """zeta(n) for integer n >= 2."""
    return eval_mzv(ZetaComposition((n,)), digits)


def eval_lincomb(c: LinComb, digits: int = DEFAULT_DIGITS) -> BigReal:
    """Exact-coefficient combination of MZV and word values.

    Word keys are regularised first; the empty composition is the
    constant 1; pi powers come from the verified pi engine.
    """
    flat = regularise(c)
    bits = bits_for_digits(digits)
    acc = BigReal.exact_zero(bits)
    for key, coeff in flat.items():
        if not isinstance(key, ZetaComposition):
            raise TypeError(f"cannot evaluate term {key!r}")
        base = BigReal.from_int(1, bits) if not key.args else eval_mzv(key, digits)
        term = base.mul_fraction(coeff.coeff)
        if coeff.pi_exp:
            term = term * pi_power(coeff.pi_exp, bits)
        acc = acc + term
    return acc


@dataclass
class VerificationReport:
    identity: str
    status: str  # verified | refuted | inconclusive
    residual: BigReal
    digits_matched: int
    target_digits: int
    elapsed: float
    note: str = ""

    def __str__(self) -> str:
        return (
            f"[{self.status}] {self.identity}: residual ~ 1e-{self.digits_matched} "
            f"(target {self.target_digits} digits, {self.elapsed:.2f}s)"
        )


def verify(identity, digits: int = DEFAULT_DIGITS, max_den: int = 10**6) -> VerificationReport:
    """Evaluate lhs - rhs and classify against the digit target.

    Identities with an unknown rational right-hand side are checked by
    rational recognition of lhs / zeta(N) instead, with denominators up
    to max_den; one whose precision cannot certify that bound is
    inconclusive.
    """
    _check_digits(digits)
    if identity.weight > MAX_WEIGHT:
        raise ValueError(
            f"weight {identity.weight} beyond the configured ceiling {MAX_WEIGHT}"
        )
    _check_max_den(max_den)
    t0 = time.monotonic()
    threshold = Fraction(1, 10**digits)
    if identity.rhs is None:
        ratio = eval_lincomb(identity.lhs, digits) / zeta_value(identity.weight, digits)
        try:
            rec = recognize_rational(ratio, max_den)
        except ValueError as exc:  # max_den is checked above: too little precision
            rec, note = None, str(exc)
        else:
            note = "no small rational multiple recognised"
        elapsed = time.monotonic() - t0
        if rec is not None:
            residual = ratio - BigReal.from_fraction(rec, ratio.bits)
            return VerificationReport(
                identity.describe(), "verified", residual,
                residual.digits_matched(), digits, elapsed,
                note=f"lhs = ({rec}) * zeta({identity.weight})",
            )
        return VerificationReport(
            identity.describe(), "inconclusive", ratio, 0, digits, elapsed, note=note
        )
    residual = eval_lincomb(identity.difference(), digits)
    elapsed = time.monotonic() - t0
    matched = residual.digits_matched()
    if residual.abs_at_most(threshold):
        status = "verified"
    elif residual.abs_exceeds(10 * residual.err_fraction()):
        status = "refuted"
    else:
        status = "inconclusive"
    return VerificationReport(
        identity.describe(), status, residual, matched, digits, elapsed
    )


def _check_digits(digits: int) -> None:
    if digits < 10:
        raise ValueError("need digits >= 10")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits {digits} beyond the configured ceiling {MAX_DIGITS}")


def _check_max_den(max_den: int) -> None:
    if max_den < 1:
        raise ValueError(f"max_den must be at least 1, got {max_den}")


def recognize_rational(x: BigReal, max_den: int) -> Fraction | None:
    """Recognition of the closest p/q, q <= max_den, with a confirmation margin.

    Accepts p/q only when x matches it to its own error bound and
    carries at least 20 digits of confirmation beyond what the
    approximation q^2 could produce by chance.  Within that tolerance
    at most one fraction with q <= max_den fits, so the closest one,
    `Fraction.limit_denominator`, is the only candidate.
    """
    _check_max_den(max_den)
    need = Fraction(1, max_den * max_den * 10**20)
    if not x.err_at_most(need):
        raise ValueError(
            f"recognition needs error <= {need}; recompute at higher precision"
        )
    target = x.as_fraction()
    cand = target.limit_denominator(max_den)
    if abs(target - cand) <= x.err_fraction() + need:
        return cand
    return None


# --------------------------------------------------------------------------
# independent oracle: direct summation with a rigorous tail bound


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
