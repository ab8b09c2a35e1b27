"""Workload inputs, reference answers and output checks.

`build` runs inside a fresh interpreter with the package importable and
turns a workload name and seed into the argv/stdin calls the program
receives.  The `check_*` functions run in the load generator, count
every wrong, missing or crashed item, and never import the package.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

# Seeds of the acceptance suite: by default the benchmark covers the
# sets the tests cover (criterion 5, criterion 9, criterion 3).
DEFAULT_SEEDS = {"cyclic": 2025, "symmetric": 2026, "closures": 2024}

WORKLOADS = ("table-w10", "cyclic-sweep-d50", "verify-mixed-d500-j2", "dkernel-closure")

# `blockzeta table --weight 10` at the seed commit (84e9d3a), pure
# series kernel.  The cyclic, alt-odd and overall columns are recorded
# output; duality and expected are re-derived by `table_reference`.
RECORDED_W10 = {"cyclic": (171, 170), "altodd": (34, 26), "overall": 235}

# Criterion 4: grade-7 residue of the (2,10,3,2) cyclic sum after
# collapsing full cyclic orbits.  Left factors are these block
# decompositions (eps1 = 0), each tensored with the single block of
# length 10, coefficient = the sign of the canonical left word.
CRIT4_LENGTHS = (2, 10, 3, 2)
CRIT4_LEFT_BLOCKS = ((6, 3), (3, 3, 2, 1), (2, 3, 2, 2), (1, 2, 2, 4))
CRIT4_RIGHT_BLOCK = 10
CRIT4_GRADE = 7

CLOSURES_PER_STRATUM = 12


# --------------------------------------------------------------------------
# input generation (runs in the set-up interpreter)


def _random_class(rng: random.Random, N: int) -> tuple[int, ...]:
    """Criterion 5's sampler: a non-trivial composition of N + 2."""
    n_choices = [n for n in range(3, N + 3) if (N - n) % 2]
    while True:
        n = rng.choice(n_choices)
        cuts = sorted(rng.sample(range(1, N + 2), n - 1))
        parts = []
        prev = 0
        for c in cuts + [N + 2]:
            parts.append(c - prev)
            prev = c
        if len(parts) == n and all(p >= 1 for p in parts):
            return tuple(parts)


def _seeded_classes(seed: int, count: int) -> list[tuple[int, ...]]:
    """Distinct cyclic classes at weight 11/12, as criterion 5 draws them."""
    rng = random.Random(seed)
    seen: set = set()
    out = []
    while len(out) < count:
        N = rng.choice((11, 12))
        lengths = _random_class(rng, N)
        rep = min(lengths[i:] + lengths[:i] for i in range(len(lengths)))
        if (N, rep) in seen:
            continue
        seen.add((N, rep))
        out.append(rep)
    return out


def _seeded_symmetric(seed: int, count: int) -> list[tuple[int, ...]]:
    """Even-weight (0; lengths) decompositions, as criterion 9 draws them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        lengths = tuple(rng.randint(1, 5) for _ in range(n))
        weight = sum(lengths) - 2
        if (weight - n) % 2 == 0 or weight % 2 or not 2 <= weight <= 10:
            continue
        out.append(lengths)
    return out


def _seeded_closures(seed: int, per_stratum: int) -> list[tuple[int, ...]]:
    """Non-trivial even-weight 4..14 decompositions, stratified.

    Criterion 3 draws 2..5 lengths in 1..6; here the same tuples are
    grouped by (weight, block count, multiplicities of repeated lengths)
    and each group gets the same quota.  The closure of a tuple is the set
    of its distinct permutations, so every stratum has a fixed closure
    size and every seed does the same amount of D_r work.
    """
    strata: dict = {}
    for n in range(2, 6):
        for lengths in itertools.product(range(1, 7), repeat=n):
            weight = sum(lengths) - 2
            if (weight - n) % 2 == 0 or weight % 2 or not 4 <= weight <= 14:
                continue
            mult = tuple(sorted(Counter(lengths).values()))
            strata.setdefault((weight, n, mult), []).append(lengths)
    rng = random.Random(seed)
    return [rng.choice(strata[key]) for key in sorted(strata) for _ in range(per_stratum)]


def _verify_call(idents, digits: int, jobs: int) -> dict:
    """One verify batch; each report must name its identity, in input order.

    JSON sorts the parameter keys, so the expected names do too.
    """
    from dataclasses import replace

    from blockzeta import serial

    lines = [serial.dumps(serial.identity_to_json(i)) for i in idents]
    return {
        "argv": ["verify", "--digits", str(digits), "--jobs", str(jobs), "--format", "json"],
        "stdin": "\n".join(lines) + "\n",
        "expect": [replace(i, params=dict(sorted(i.params.items()))).describe() for i in idents],
    }


def build(name: str, seeds: dict) -> dict:
    """The calls one pass of a workload makes, with what each must return."""
    if name == "table-w10":
        return {"calls": [{"argv": ["table", "--weight", "10", "--format", "json"]}]}

    from blockzeta import identities as ident
    from blockzeta.rank import cyclic_family

    if name == "cyclic-sweep-d50":
        classes = [c for N in range(4, 11) for c in cyclic_family(N)]
        classes += _seeded_classes(seeds["cyclic"], 100)
        idents = [ident.gen_cyclic_full(c) for c in classes]
        return {"calls": [_verify_call(idents, 50, 1)]}
    if name == "verify-mixed-d500-j2":
        idents = [ident.gen_cyclic_full(c) for N in range(4, 10) for c in cyclic_family(N)]
        idents += [ident.gen_hoffman(0, 0, m) for m in range(4)]
        idents += [
            ident.gen_composition_sums("bowman-bradley", m=m, n=n)
            for n, m in ((1, 1), (1, 2), (2, 1), (1, 3))
        ]
        idents += [
            ident.gen_symmetric(ident.BlockDecomposition(0, lengths))
            for lengths in _seeded_symmetric(seeds["symmetric"], 20)
        ]
        return {"calls": [_verify_call(idents, 500, 2)]}
    if name == "dkernel-closure":
        calls = [
            {"argv": ["dkernel", "--lengths", _csv(c), "--set", "closure", "--format", "json"]}
            for c in _seeded_closures(seeds["closures"], CLOSURES_PER_STRATUM)
        ]
        calls.append(
            {
                "argv": [
                    "dkernel", "--lengths", _csv(CRIT4_LENGTHS), "--set", "cyclic",
                    "--grade", str(CRIT4_GRADE), "--collapse", "--format", "json",
                ],
                "residue": crit4_reference(),
            }
        )
        return {"calls": calls}
    raise ValueError(f"unknown workload {name!r}")


def perturbed_identity_call() -> dict:
    """A verify call whose only identity has a wrong right-hand side.

    Hoffman (0,0,0) states lhs = -pi^6/7!; the rhs is shifted by
    +pi^6/7!, so a working verifier must refute it.
    """
    from fractions import Fraction

    from blockzeta import identities as ident
    from blockzeta.lincomb import PiRational

    good = ident.gen_hoffman(0, 0, 0)
    bad = ident.Identity(
        good.family, good.params, good.weight, good.lhs,
        PiRational(good.rhs.coeff + Fraction(1, 5040), good.rhs.pi_exp),
    )
    return _verify_call([bad], 30, 1)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# --------------------------------------------------------------------------
# independent references (no package import)


def _word_of(eps: int, lengths) -> tuple[int, ...]:
    letters = []
    for length in lengths:
        letters.extend((eps + i) % 2 for i in range(length))
        eps = (eps + length - 1) % 2
    return tuple(letters)


def _canonical(letters: tuple[int, ...]) -> tuple[str, int]:
    """Least of {w, reversed, flipped, both}; reversal signs (-1)^len."""
    rev_sign = -1 if len(letters) % 2 else 1
    flip = tuple(1 - x for x in letters)
    cands = [(letters, 1), (letters[::-1], rev_sign), (flip, 1), (flip[::-1], rev_sign)]
    best = min(t for t, _ in cands)
    signs = {s for t, s in cands if t == best}
    if len(signs) != 1:
        raise ValueError("reference left factor vanishes by symmetry")
    return "".join(map(str, best)), signs.pop()


def crit4_reference() -> list[dict]:
    """The four reference tensors of criterion 4, in the CLI's JSON form."""
    right = "".join(map(str, _word_of(0, (CRIT4_RIGHT_BLOCK,))))
    out = []
    for blocks in CRIT4_LEFT_BLOCKS:
        left, sign = _canonical(_word_of(0, blocks))
        out.append({"grade": CRIT4_GRADE, "left_word": left, "right_word": right, "coeff": str(sign)})
    return sorted(out, key=lambda d: (d["left_word"], d["right_word"]))


def _zagier_dim(N: int) -> int:
    d = [1, 0, 1]
    while len(d) <= N:
        d.append(d[-2] + d[-3])
    return d[N]


def table_reference(N: int = 10) -> dict:
    """Reference row: recorded columns plus independently derived ones.

    Duality rows are the convergent words (0 1 mid 0 1) that differ from
    their dual (reverse, then flip 0 <-> 1); each pair gives one
    independent relation, so the rank is half the row count.
    """
    non_self_dual = 0
    for mid in range(2 ** (N - 2)):
        bits = tuple((mid >> (N - 3 - i)) & 1 for i in range(N - 2))
        w = (0, 1) + bits + (0, 1)
        if tuple(1 - x for x in w[::-1]) != w:
            non_self_dual += 1
    return {
        "weight": N,
        "cyclic": {"init": RECORDED_W10["cyclic"][0], "rank": RECORDED_W10["cyclic"][1]},
        "altodd": {"init": RECORDED_W10["altodd"][0], "rank": RECORDED_W10["altodd"][1]},
        "duality": {"init": non_self_dual, "rank": non_self_dual // 2},
        "overall": RECORDED_W10["overall"],
        "expected": 2 ** (N - 2) - _zagier_dim(N),
    }


# --------------------------------------------------------------------------
# output checks: each returns (items attempted, items failed)


def json_lines(text: str) -> list:
    out = []
    for line in text.splitlines():
        if line.strip():
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                out.append(None)
    return out


def check_table(result: dict, reference: dict) -> tuple[int, int]:
    if result.get("crash") or result.get("code") != 0:
        return 1, 1
    rows = json_lines(result.get("out", ""))
    return 1, 0 if rows == [reference] else 1


def check_verify(call: dict, result: dict) -> tuple[int, int]:
    """Every report verified, in input order, and exit code 0.

    A crash fails every item; a non-zero exit with no wrong report fails one.
    """
    expect = call["expect"]
    if result.get("crash"):
        return len(expect), len(expect)
    reports = json_lines(result.get("out", ""))
    failed = abs(len(reports) - len(expect))
    for want, rep in zip(expect, reports):
        if not isinstance(rep, dict) or rep.get("identity") != want or rep.get("status") != "verified":
            failed += 1
    if result.get("code") != 0:
        failed = max(failed, 1)
    return len(expect), min(failed, len(expect))


def check_dkernel(call: dict, result: dict) -> tuple[int, int]:
    """A closure must vanish; the criterion-4 call must match its tensors."""
    if result.get("crash") or result.get("code") != 0:
        return 1, 1
    rows = json_lines(result.get("out", ""))
    if len(rows) != 1 or not isinstance(rows[0], dict):
        return 1, 1
    out = rows[0]
    if "residue" in call:
        got = sorted(out.get("residue", []), key=lambda d: (d["left_word"], d["right_word"]))
        return 1, 0 if got == call["residue"] else 1
    return 1, 0 if out.get("vanishes") is True and out.get("residue") == [] else 1


def check_pass(name: str, calls: list[dict], results: list[dict]) -> tuple[int, int]:
    """Attempted and failed items of one pass; a missing call fails its items."""
    attempted = failed = 0
    reference = table_reference() if name == "table-w10" else None
    for i, call in enumerate(calls):
        result = results[i] if i < len(results) else {"crash": "missing"}
        if name == "table-w10":
            a, f = check_table(result, reference)
        elif call["argv"][0] == "verify":
            a, f = check_verify(call, result)
        else:
            a, f = check_dkernel(call, result)
        attempted += a
        failed += f
    return attempted, failed
