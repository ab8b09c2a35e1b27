"""Command-line front end.

Exit codes: 0 success, 1 verification refuted, 2 usage or parse error,
141 stdout closed by its reader (the status a shell gives for SIGPIPE).
Subcommands communicate through JSON on stdout/stdin so that generation
and verification pipelines compose.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import identities as ident_mod
from . import serial
from .derivation import collapse_cyclic_rights, closure_comb, kernel_report
from .identities import (
    Identity,
    Zeta123Form,
    gen_altodd_even,
    gen_altodd_odd,
    gen_bbbl,
    gen_composition_sums,
    gen_cyc123,
    gen_cyclic_basic,
    gen_cyclic_full,
    gen_double_alt,
    gen_general_hoffman,
    gen_hoffman,
    gen_symmetric,
    gen_thm_2_7_1,
    gen_z13312_sym,
)
from .linalg import rank_of
from .lincomb import LinComb
from .numerics import (
    DEFAULT_DIGITS,
    SeriesMemo,
    check_verify_input,
    load_series,
    series_keys,
    verify,
    walk_series,
)
from .rank import FAMILIES, basis_compositions, relation_rows, table_row
from .reflect import reflective_closure
from .regalgebra import regularise_word
from .words import (
    BlockDecomposition,
    ParseError,
    Word,
    ZetaComposition,
    block_decompose,
    mzv_to_word,
    parse_ints,
    word_of,
    word_to_mzv,
)


def _ints(text: str, need: int = 0) -> tuple[int, ...]:
    """A comma-separated integer option; `need` is the count hoffman's --b must have."""
    out = parse_ints(text, "integer") if text else ()
    if need and len(out) != need:
        raise ParseError("hoffman needs --b b1,b2,b3", 0)
    return out


def _tokens(text: str) -> tuple[str, ...]:
    s = text.rstrip()
    out, i = [], len(s) - len(s.lstrip())
    while i < len(s):
        if s.startswith("(1,2)", i):
            out.append("T")
            i += 5
        elif s[i] in "13":
            out.append(s[i])
            i += 1
        elif s[i] in ", ":
            i += 1
        else:
            raise ParseError(f"invalid 123 argument string near {s[i:i + 6]!r}", i)
    return tuple(out)


# family -> its identity from the parsed options.  Each builder looks its
# generator up in this module when called, so a rebound gen_* is the one run.
BUILDERS = {
    "symmetric": lambda a: gen_symmetric(BlockDecomposition(0, _ints(a.lengths))),
    "cyclic-basic": lambda a: gen_cyclic_basic(_ints(a.lengths)),
    "cyclic-full": lambda a: gen_cyclic_full(_ints(a.lengths), mode=a.mode),
    "bbbl": lambda a: gen_bbbl(_ints(a.b)),
    "hoffman": lambda a: gen_hoffman(*_ints(a.b, need=3)),
    "general-hoffman": lambda a: gen_general_hoffman(a.n, _ints(a.b), a.c),
    "cyc123": lambda a: gen_cyc123(Zeta123Form(_tokens(a.a), _ints(a.b))),
    "altodd-even": lambda a: gen_altodd_even(_ints(a.lengths)),
    "altodd-odd": lambda a: gen_altodd_odd(_ints(a.lengths), a.x),
    "double-alt": lambda a: gen_double_alt(_ints(a.lengths)),
    "bowman-bradley": lambda a: gen_composition_sums("bowman-bradley", a.m, a.n),
    "z1333-compsum": lambda a: gen_composition_sums("z1333-compsum", a.m, a.n),
    "further-13332n": lambda a: gen_composition_sums("further-13332n", a.m, a.n),
    "z13312-sym": lambda a: gen_z13312_sym(_ints(a.b)),
    "thm-2-7-1": lambda a: gen_thm_2_7_1(a.m),
}


def build_identity(args) -> Identity:
    if args.family not in BUILDERS:
        raise ParseError(f"unknown family {args.family!r}", 0)
    return BUILDERS[args.family](args)


def _emit(args, payload, text) -> None:
    """Print one result: `payload` as JSON under `--format json`, else `text`."""
    print(serial.dumps(payload) if args.format == "json" else text)


def cmd_decompose(args) -> int:
    w = Word.parse(args.word)
    B = block_decompose(w)
    _emit(args, {"word": str(w), "blocks": str(B), "weight": B.weight}, B)
    return 0


def cmd_word(args) -> int:
    B = BlockDecomposition.parse(args.blocks)
    w = word_of(B)
    _emit(args, {"blocks": str(B), "word": str(w)}, w)
    return 0


def cmd_mzv(args) -> int:
    text = args.value.strip()
    if text.startswith("z("):
        comp = ZetaComposition.parse(text)
        w, sign = mzv_to_word(comp)
        shown = w
    else:
        w = Word.parse(text)
        comp, sign = word_to_mzv(w)
        shown = comp
    _emit(args, {"word": str(w), "zeta": str(comp), "sign": sign}, f"{shown} sign {sign:+d}")
    return 0


def cmd_regularise(args) -> int:
    comb = regularise_word(Word.parse(args.word))
    if args.format == "latex":
        print(serial.lincomb_to_latex(comb))
    else:
        _emit(args, serial.lincomb_to_json(comb), comb)
    return 0


def cmd_generate(args) -> int:
    ident = build_identity(args)
    if args.format == "latex":
        print(serial.identity_to_latex(ident))
    else:
        _emit(args, serial.identity_to_json(ident), f"{ident.describe()}\nlhs = {ident.lhs}")
    return 0


def _verify_payload(keys: list[tuple[int, ...]], digits: int) -> SeriesMemo:
    """The `--jobs` worker entry: walk one sorted range of series keys."""
    return walk_series(keys, digits)


def _verify_batch(idents: list[Identity], digits: int, max_den: int, workers: int):
    """Check every identity, walk the batch's series once, then evaluate.

    The batch's distinct series keys are sorted and walked before any
    identity is evaluated, in this process for one worker.  For more, the
    keys are split into `workers` contiguous ranges, each walked once in a
    pool worker, and this process loads every walked memo.  The identities
    are evaluated in this process, without a transform.
    """
    for ident in idents:
        check_verify_input(ident, digits, max_den)
    keys = series_keys(idents)
    if workers <= 1:  # no identities at all, or one worker
        walk_series(keys, digits)
    else:
        step = -(-len(keys) // workers) or 1  # a batch may have no keys
        ranges = [keys[i : i + step] for i in range(0, len(keys), step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for memo in pool.map(_verify_payload, ranges, [digits] * len(ranges)):
                load_series(memo)
    return [verify(ident, digits, max_den) for ident in idents]


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    if args.family:
        idents = [build_identity(args)]
    else:
        lines = [ln for ln in sys.stdin.read().splitlines() if ln.strip()]
        try:
            idents = [serial.identity_from_json(json.loads(ln)) for ln in lines]
        except RecursionError:
            raise ValueError("a stdin record is nested too deeply") from None
    # a fork pool starts all its workers at once: no more than can run
    workers = min(args.jobs, len(idents), os.cpu_count() or 1)
    reports = _verify_batch(idents, args.digits, args.max_den, workers)
    for rep in reports:
        _emit(args, serial.report_to_json(rep), rep)
    return 1 if any(rep.status == "refuted" for rep in reports) else 0


def cmd_dkernel(args) -> int:
    lengths = _ints(args.lengths)
    weight = sum(lengths) - 2
    if args.grade and not (args.grade % 2 and 3 <= args.grade < weight):
        raise ValueError(
            f"grade must be 0 or an odd r with 3 <= r < {weight}, got {args.grade}"
        )
    if args.set == "closure":
        comb = closure_comb(reflective_closure([BlockDecomposition(0, lengths)]))
    elif args.set == "cyclic":
        comb = ident_mod.cyclic_sum(lengths)
    else:  # "symmetric", the last choice the parser allows
        comb = gen_symmetric(BlockDecomposition(0, lengths)).lhs
    report = kernel_report(comb)
    residue = report.residue
    if args.grade:
        residue = LinComb({t: c for t, c in residue.items() if t.grade == args.grade})
    if args.collapse:
        residue = collapse_cyclic_rights(residue)
    items = serial.residue_to_json(residue)
    lines = [f"  grade {i['grade']}: {i['coeff']} * {i['left_word']} (x) {i['right_word']}"
             for i in items]
    payload = {"vanishes": report.vanishes, "weight": report.weight,
               "conclusion": report.conclusion, "residue": items}
    _emit(args, payload, "\n".join([report.conclusion, *lines]))
    return 0


def cmd_rank(args) -> int:
    families = tuple(f.strip() for f in args.families.split(","))
    if args.matrix:
        gathered = relation_rows(args.weight, families)
        rows = [row for block in gathered.values() for row in block]
        cells = [(i, j, str(x)) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
        basis = [str(c) for c in basis_compositions(args.weight)]
        out = {"weight": args.weight, "basis": basis, "triplets": cells, "rank": rank_of(rows)}
        print(serial.dumps(out))
        return 0
    row = table_row(args.weight, families)
    out = {"weight": row.weight, "overall": row.overall, "expected": row.expected}
    parts = [f"weight {row.weight}:"]
    for family, (label, _) in FAMILIES.items():
        if family in row.families:
            init, rank = row.families[family]
            out[family] = {"init": init, "rank": rank}
            parts.append(f"{label} {init}/{rank}")
    parts += [f"overall {row.overall}", f"expected {row.expected}"]
    _emit(args, out, "  ".join(parts))
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockzeta",
        description="Block decompositions of iterated integrals: identities, "
        "derivation checks, numeric verification, relation ranks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, *extra):
        p.add_argument("--format", choices=("text", "json", *extra), default="text")

    p = sub.add_parser("decompose", help="block-decompose a binary word")
    p.add_argument("word")
    add_format(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("word", help="rebuild the word of a block decomposition")
    p.add_argument("blocks")
    add_format(p)
    p.set_defaults(fn=cmd_word)

    p = sub.add_parser("mzv", help="convert between z(...) and word forms")
    p.add_argument("value")
    add_format(p)
    p.set_defaults(fn=cmd_mzv)

    p = sub.add_parser("regularise", help="shuffle-regularise an integral word")
    p.add_argument("word")
    add_format(p, "latex")
    p.set_defaults(fn=cmd_regularise)

    def add_family_opts(p):
        p.add_argument("--lengths", default="")
        p.add_argument("--b", default="")
        p.add_argument("--a", default="")
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--x", type=int, default=0)
        p.add_argument("--c", type=int, default=0)
        p.add_argument(
            "--mode", choices=("transcendental", "symbolic"), default="transcendental"
        )

    p = sub.add_parser("generate", help="generate an identity family member")
    p.add_argument("family")
    add_family_opts(p)
    p.add_argument(
        "--format", choices=("text", "json", "latex"), default="json"
    )
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="numerically verify identities")
    p.add_argument("--family", default="")
    add_family_opts(p)
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-den", type=int, default=10**6, dest="max_den",
                   help="denominator bound for rational recognition")
    add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dkernel", help="derivation-kernel cancellation check")
    p.add_argument("--lengths", required=True)
    p.add_argument("--set", choices=("closure", "cyclic", "symmetric"), default="closure")
    p.add_argument("--grade", type=int, default=0,
                   help="restrict the residue to one derivation grade")
    p.add_argument("--collapse", action="store_true",
                   help="collapse full cyclic right-factor orbits")
    add_format(p)
    p.set_defaults(fn=cmd_dkernel)

    p = sub.add_parser("rank", help="relation ranks for chosen families")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--families", default=",".join(FAMILIES))
    p.add_argument("--matrix", action="store_true",
                   help="emit the relation matrix as sparse triplets")
    add_format(p)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("table", help="one full row of the rank table")
    p.add_argument("--weight", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_rank, families=",".join(FAMILIES), matrix=False)

    return parser


def run(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:  # ParseError and json.JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone, which refutes nothing; stdout goes to devnull
        # so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
