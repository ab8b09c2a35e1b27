"""Arbitrary-precision evaluation of MZVs and identity verification.

Convergent iterated integrals are evaluated by composing the path at
the midpoint: I(0; a; 1) = sum_k I(0; a_1..a_k; 1/2) I(1/2; a_{k+1}..; 1),
with the right factors reflected through t -> 1-t so every factor is a
convergent power series at 1/2 with a geometric tail.  A word's prefix
factors are the series of its interior's prefixes, its suffix factors
those of the flipped reversed interior (see `_keys`).

Evaluation is walk, then read.  `walk_series` is the one function that
walks series prefixes: it builds the factors one series transform per
letter, walks its keys together in sorted order so that each distinct
prefix is transformed once per walk, and keeps the value of every
prefix in the memo of its precision.  `_eval_interior` only reads that
memo, so its caller walks first.  The three callers of `walk_series`:
`eval_word` walks the keys of its one interior; `eval_lincomb` walks
those of every interior of a combination whose value is not cached yet;
and `cli._verify_batch` walks a whole `verify` batch before any identity
is evaluated, so that the walks of its `eval_lincomb` calls transform
nothing.

Combinations are evaluated from the integer sums of `regularise_sums`,
keyed by the interior v of each convergent integral I(0; v; 1): the
series keys, the walk and the value cache all run on interiors, and a
composition is met only by `eval_mzv`, through its word.  A term with
numerator Q over the common denominator D scales a value's mantissa and
error by Q and floor-divides by D, which gives the same bits as scaling
by the reduced fraction Q/D.

A walk keeps the values of the prefixes but not their arrays, so each
walk restarts from the root.  That is why `verify` walks the whole batch
once: `series_keys` collects the batch's keys and `walk_series` walks
one sorted range of them, in this process at `--jobs 1`; at `--jobs K`
each range is walked in a pool worker, and `load_series` adds each
walked `SeriesMemo` to this process's memo.  Every identity is then
evaluated in the `verify` process, because the walk is most of a
batch's time: on the 218 identities of the mixed benchmark batch at 500
digits (278 keys, one process, three runs on a 2-core host)
`series_keys` took 0.03 s, the walk 0.29 s and the evaluation 0.04 s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import series
from .bigreal import BigReal, bits_for_digits, pi_power
from .lincomb import LinComb
# bound but not called: perfbench/layers.py wraps `regularise` under this
# name and fails a traced run when numerics stops binding it
from .regalgebra import regularise  # noqa: F401
from .regalgebra import regularise_sums
from .words import Word, ZetaComposition, is_int, mzv_to_word

DEFAULT_DIGITS = 50
# ceiling: a transform touches M tapered entries of S/2 bits on average,
# and M, S ~ 3.32 bits per digit, so its cost grows as digits squared
MAX_DIGITS = 2000
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
_word_cache: dict[tuple[tuple[int, ...], int], BigReal] = {}  # (interior, digits)
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


def _keys(a: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prefix and suffix keys of the convergent word with interior a.

    The interior a_1..a_N, and its flipped reverse (1 - a_N, ..., 1 - a_1),
    whose prefix of length N - k is the reflected suffix a_{k+1}..a_N.
    Both start with letter 1.
    """
    return a, tuple(1 - x for x in reversed(a))


def _memo(M: int, F: int) -> dict[tuple[int, ...], int]:
    return _states.setdefault((M, F), {(): 1 << F})


@dataclass
class SeriesMemo:
    """Values g(p; 1/2) * 2^F of series prefixes p at one precision."""

    digits: int
    values: dict[tuple[int, ...], int]


def series_keys(idents) -> list[tuple[int, ...]]:
    """The sorted distinct series keys `verify` walks for a batch.

    The keys of every interior of each regularised lhs, and of zeta(N),
    the interior 1 0^(N-1), when the right-hand side is unknown; a known
    right-hand side is a multiple of the constant 1, which has no keys.
    """
    interiors = set()
    for identity in idents:
        interiors.update(v for v, _ in regularise_sums(identity.lhs)[1])
        if identity.rhs is None:
            interiors.add((1,) + (0,) * (identity.weight - 1))
    return sorted({k for v in interiors if v for k in _keys(v)})


def walk_series(keys, digits: int) -> SeriesMemo:
    """Walk the prefixes of `keys` in this process; the memo at `digits`.

    The one walk of the package: afterwards the memo holds
    g(p; 1/2) * 2^F for every prefix p of `keys`.  The keys not yet
    memoised are walked in sorted order, so the keys below a shared
    prefix are adjacent and the prefix is transformed once; only the
    arrays of the prefix shared with the next key are held, at most one
    per letter.  Every key starts with letter 1, where the series starts
    at g('1'; z).  The arrays are dropped when the call returns, so each
    call restarts from the root: a prefix memoised by an earlier call is
    transformed again when a new key lies below it.
    """
    M, F = _orders(bits_for_digits(digits))
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
    return SeriesMemo(digits, memo)


def load_series(memo: SeriesMemo) -> None:
    """Add the values of a walked memo to this process's memo."""
    _memo(*_orders(bits_for_digits(memo.digits))).update(memo.values)


def eval_word(w: Word, digits: int = DEFAULT_DIGITS) -> BigReal:
    """Value of the iterated integral of a convergent word, either orientation.

    A word with bounds (1, 0) is read reversed, by
    I(1; v; 0) = (-1)^|v| I(0; rev v; 1).
    """
    _check_digits(digits)
    if w.weight and w.is_trivial:
        return BigReal.exact_zero(bits_for_digits(digits))
    reverse = w.letters[0] == 1 and w.letters[-1] == 0
    v = w.reversed() if reverse else w
    if w.weight and not v.is_convergent:
        raise ValueError(f"word {w} is divergent; regularise before evaluating")
    # a weight-0 word has the empty interior: the unit integral, any bounds
    walk_series(_keys(v.interior), digits)
    value = _eval_interior(v.interior, digits)
    return -value if reverse and w.weight % 2 else value


def _eval_interior(a: tuple[int, ...], digits: int) -> BigReal:
    """I(0; a; 1) for a convergent interior a, memoised in _word_cache.

    A pure reader: the caller must have walked `_keys(a)` at `digits`
    with `walk_series`, and reading a prefix that was never walked
    raises KeyError.
    """
    key = (a, digits)
    hit = _word_cache.get(key)
    if hit is not None:
        return hit
    bits = bits_for_digits(digits)
    if not a:
        return BigReal.from_int(1, bits)  # the unit integral, exactly
    M, F = _orders(bits)
    memo = _memo(M, F)
    pref, suf = _keys(a)
    N = len(pref)
    # prefix g(a_1..a_k; 1/2) and suffix g(flip reverse(a_{k+1}..a_N); 1/2);
    # a factor of j >= 1 letters is off by at most j + tail ulps
    # (the series docstring derives j/4 + 1, plus the truncation tail)
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
    """zeta(s) to the requested precision; mzv_to_word rejects a divergent s."""
    _check_digits(digits)
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

    Every term is regularised to sums over interiors; the empty interior
    is the constant 1; pi powers come from the verified pi engine.  The
    series prefixes of every interior not yet cached are walked in one
    call.  Each term is value * Q // D, the same bits as
    `BigReal.mul_fraction` of the reduced coefficient Q/D.
    """
    _check_digits(digits)
    D, sums = regularise_sums(c)
    bits = bits_for_digits(digits)
    missing = [v for v, _ in sums if (v, digits) not in _word_cache]
    walk_series([k for v in missing for k in _keys(v)], digits)
    man = err = 0
    for (v, pi_exp), q in sums.items():
        value = _eval_interior(v, digits)
        term_man = (value.man * q) // D
        term_err = (value.err * abs(q)) // D + 2
        if pi_exp:
            term = BigReal(term_man, bits, term_err) * pi_power(pi_exp, bits)
            term_man, term_err = term.man, term.err
        man += term_man
        err += term_err
    return BigReal(man, bits, err)


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
    note = ""
    if identity.rhs is None:
        ratio = eval_lincomb(identity.lhs, digits) / zeta_value(identity.weight, digits)
        try:
            rec = recognize_rational(ratio, max_den)
        except ValueError as exc:  # max_den is checked above: too little precision
            rec, note = None, str(exc)
        else:
            note = "no small rational multiple recognised"
        if rec is None:
            status, residual, matched = "inconclusive", ratio, 0
        else:
            status = "verified"
            residual = ratio - BigReal.from_fraction(rec, ratio.bits)
            matched = residual.digits_matched()
            note = f"lhs = ({rec}) * zeta({identity.weight})"
    else:
        residual = eval_lincomb(identity.difference(), digits)
        matched = residual.digits_matched()
        if residual.abs_at_most(Fraction(1, 10**digits)):
            status = "verified"
        elif residual.abs_exceeds(10 * residual.err_fraction()):
            status = "refuted"
        else:
            status = "inconclusive"
    elapsed = time.monotonic() - t0
    return VerificationReport(
        identity.describe(), status, residual, matched, digits, elapsed, note
    )


def check_verify_input(identity, digits: int, max_den: int) -> None:
    """The checks `verify` makes before it evaluates anything."""
    _check_digits(digits)
    if identity.weight > MAX_WEIGHT:
        raise ValueError(
            f"weight {identity.weight} beyond the configured ceiling {MAX_WEIGHT}"
        )
    if identity.rhs is None and identity.weight < 2:
        raise ValueError(
            "an unknown right-hand side q*zeta(N) needs weight N >= 2, "
            f"got weight {identity.weight}"
        )
    _check_max_den(max_den)


def _check_digits(digits: int) -> None:
    if not is_int(digits):
        raise ValueError(f"digits must be an integer, got {digits!r}")
    if digits < 10:
        raise ValueError("need digits >= 10")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits {digits} beyond the configured ceiling {MAX_DIGITS}")


def _check_max_den(max_den: int) -> None:
    if not is_int(max_den):
        raise ValueError(f"max_den must be an integer, got {max_den!r}")
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
