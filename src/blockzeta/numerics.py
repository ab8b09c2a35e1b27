"""Arbitrary-precision evaluation of MZVs and identity verification.

Convergent iterated integrals are evaluated by composing the path at
the midpoint: I(0; a; 1) = sum_k I(0; a_1..a_k; 1/2) I(1/2; a_{k+1}..; 1),
with the right factors reflected through t -> 1-t so every factor is a
convergent power series at 1/2 with a geometric tail.  Prefix and
suffix factors are built incrementally, one series transform per letter,
and every prefix is shared: a word's prefix chain is its interior, its
suffix chain the flipped reversed interior, and the chains of the words
of one combination are walked together in sorted order, so each distinct
prefix is transformed once per walk (see `_state_values`).

A walk keeps the values of the prefixes but not their arrays, so each
walk restarts from the root.  `verify --jobs K` therefore walks the
whole batch once, before any identity is evaluated: `series_keys`
collects the keys, `walk_series` walks one sorted range of them, and
the merged `SeriesMemo` is loaded into every evaluating process by
`load_series`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import series
from .bigreal import BigReal, bits_for_digits, pi_power
from .lincomb import LinComb
from .regalgebra import regularise
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
        self._mem: dict[tuple[ZetaComposition, int], BigReal] = {}

    def get(self, comp: ZetaComposition, digits: int) -> BigReal | None:
        return self._mem.get((comp, digits))

    def put(self, comp: ZetaComposition, digits: int, value: BigReal) -> None:
        self._mem[(comp, digits)] = value


_cache = EvalCache()
_word_cache: dict[tuple[Word, int], BigReal] = {}
# g(p; 1/2) * 2^F for every series prefix p reached so far, per exact (M, F)
_states: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}


def reset_caches() -> None:
    global _cache, _states
    _cache = EvalCache()
    _states = {}
    _word_cache.clear()


def _orders(bits: int) -> tuple[int, int]:
    """Truncation order M and coefficient scale F of the series at `bits`."""
    return bits + _TAIL_EXTRA, bits + _SCALE_EXTRA


def _keys(w: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prefix and suffix keys of a convergent word.

    The interior a_1..a_N, and its flipped reverse (1 - a_N, ..., 1 - a_1),
    whose prefix of length N - k is the reflected suffix a_{k+1}..a_N.
    Both start with letter 1.
    """
    a = w.interior
    return a, tuple(1 - x for x in reversed(a))


def _memo(M: int, F: int) -> dict[tuple[int, ...], int]:
    return _states.setdefault((M, F), {(): 1 << F})


def _state_values(keys, M: int, F: int) -> dict[tuple[int, ...], int]:
    """The memo of g(p; 1/2) * 2^F at (M, F), holding every prefix of `keys`.

    The keys not yet memoised are walked in sorted order, so the keys
    below a shared prefix are adjacent and the prefix is transformed
    once; only the arrays of the prefix shared with the next key are
    held, at most one per letter.  Every key starts with letter 1, where
    the series starts at g('1'; z).  The arrays are dropped when the call
    returns, so each call restarts from the root: a prefix memoised by an
    earlier call is transformed again when a new key lies below it.
    """
    memo = _memo(M, F)
    todo = sorted({k for k in keys if k not in memo})
    stack: list[list[int]] = []  # arrays of key[:1], key[:2], ...
    for key, nxt in zip(todo, todo[1:] + [()]):
        shared = 0
        while shared < min(len(key), len(nxt)) and key[shared] == nxt[shared]:
            shared += 1
        C = stack[-1] if stack else None
        for j in range(len(stack), len(key)):
            C = series.g_init(M, F) if j == 0 else series.g_append(C, key[j], M, F)
            prefix = key[: j + 1]
            if prefix not in memo:
                memo[prefix] = series.g_value(C, M, F)
            if j < shared:
                stack.append(C)
        del stack[shared:]
    return memo


def _word_keys(comps) -> list[tuple[int, ...]]:
    """Prefix and suffix keys of the words of the convergent compositions."""
    return [k for s in comps if s.args and s.is_convergent for k in _keys(mzv_to_word(s)[0])]


@dataclass
class SeriesMemo:
    """Values g(p; 1/2) * 2^F of series prefixes p at one precision."""

    digits: int
    values: dict[tuple[int, ...], int]


def series_keys(identity) -> list[tuple[int, ...]]:
    """The series keys `verify` walks for one identity.

    The keys of every convergent composition of regularised lhs - rhs,
    or of lhs and zeta(N) when the right-hand side is unknown.
    """
    if identity.rhs is not None:
        return _word_keys(regularise(identity.difference()).keys())
    comps = list(regularise(identity.lhs).keys())
    if identity.weight >= 2:  # verify itself rejects a lower weight
        comps.append(ZetaComposition((identity.weight,)))
    return _word_keys(comps)


def walk_series(keys, digits: int) -> SeriesMemo:
    """Walk the prefixes of `keys` in this process; the memo at `digits`."""
    return SeriesMemo(digits, _state_values(keys, *_orders(bits_for_digits(digits))))


def load_series(memo: SeriesMemo) -> None:
    """Add the values of a walked memo to this process's memo."""
    _memo(*_orders(bits_for_digits(memo.digits))).update(memo.values)


def eval_word(w: Word, digits: int = DEFAULT_DIGITS) -> BigReal:
    """Value of the iterated integral of a convergent word."""
    _check_digits(digits)
    bits = bits_for_digits(digits)
    key = (w, digits)
    hit = _word_cache.get(key)
    if hit is not None:
        return hit
    if w.weight == 0:
        return BigReal.from_int(1, bits)  # unit integral, any bounds
    if w.is_trivial:
        return BigReal.exact_zero(bits)
    if not w.is_convergent:
        raise ValueError(f"word {w} is divergent; regularise before evaluating")
    M, F = _orders(bits)
    pref, suf = _keys(w)
    N = len(pref)
    # prefix g(a_1..a_k; 1/2) and suffix g(flip reverse(a_{k+1}..a_N); 1/2);
    # a factor of j >= 1 letters is off by at most j + tail ulps
    memo = _state_values((pref, suf), M, F)
    tail = 3 + (1 << (F - M))
    total = 0
    err = 0
    for k in range(N + 1):
        term = (memo[pref[:k]] * memo[suf[: N - k]]) >> F
        if (N - k) % 2:
            term = -term
        total += term
        err += (k + tail if k else 0) + (N - k + tail if k < N else 0) + 2
    result = BigReal(total, F, err)._rescale(bits)
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
    constant 1; pi powers come from the verified pi engine.  The series
    prefixes of every composition not yet cached are walked in one call.
    """
    _check_digits(digits)
    flat = regularise(c)
    bits = bits_for_digits(digits)
    missing = [key for key in flat.keys() if _cache.get(key, digits) is None]
    _state_values(_word_keys(missing), *_orders(bits))
    acc = BigReal.exact_zero(bits)
    for key, coeff in flat.items():
        term = eval_mzv(key, digits).mul_fraction(coeff.coeff)
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
    check_verify_input(identity, digits, max_den)
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


def check_verify_input(identity, digits: int, max_den: int) -> None:
    """The checks `verify` makes before it evaluates anything."""
    _check_digits(digits)
    if identity.weight > MAX_WEIGHT:
        raise ValueError(
            f"weight {identity.weight} beyond the configured ceiling {MAX_WEIGHT}"
        )
    _check_max_den(max_den)


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
