import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import blockzeta
from blockzeta import cli, numerics, serial, series
from blockzeta.cli import make_parser, run
from blockzeta.identities import FAMILIES as IDENTITY_FAMILIES
from blockzeta.identities import gen_cyclic_full, gen_hoffman, gen_symmetric
from blockzeta.rank import FAMILIES, cyclic_family
from blockzeta.regalgebra import regularise
from blockzeta.words import BlockDecomposition, mzv_to_word, zc


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# one well-formed identity record: zeta(2) = pi^2 / 6
TERM = {
    "term_kind": "zeta", "term": "z(2)", "coeff_num": "1", "coeff_den": "1", "pi_exp": 0
}
RHS = {"num": "1", "den": "6", "pi_exp": 2}
RECORD = {"family": "cyclic-basic", "params": {}, "weight": 2, "lhs": [TERM], "rhs": RHS}
ZERO_RHS = {"num": "0", "den": "1", "pi_exp": 0}
# 0 0^9 1 1^9 1 expands by the divergence relation to C(18, 9) = 48 620 words
DEEP = "0" * 10 + "1" * 11


def record(**changes) -> str:
    """The record above with some keys replaced, as one JSON line."""
    return json.dumps({**RECORD, **changes})


def serial_pool(sizes: list[int]):
    """An in-process stand-in for the `verify --jobs` pool that records its sizes.

    Like a fresh worker process, each pool starts with empty value caches.
    """

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            numerics.reset_caches()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return SerialPool


def masked_reports(out: str) -> list[dict]:
    return [{**json.loads(line), "elapsed_seconds": None} for line in out.splitlines()]


class TestConversions:
    def test_decompose(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "010100111010101")
        assert code == 0 and out.strip() == "(0; 5,2,1,7)"

    def test_word(self, capsys):
        code, out, _ = invoke(capsys, "word", "(0; 5,2,1,7)")
        assert code == 0 and out.strip() == "010100111010101"

    def test_mzv_both_ways(self, capsys):
        code, out, _ = invoke(capsys, "mzv", "z(1,3)")
        assert code == 0 and out.strip() == "011001 sign +1"
        code, out, _ = invoke(capsys, "mzv", "011001")
        assert code == 0 and out.strip() == "z(1,3) sign +1"

    def test_regularise(self, capsys):
        code, out, _ = invoke(capsys, "regularise", "0010111")
        assert code == 0
        assert out.strip() == "(6)*z(1,4) + (2)*z(2,3) + (1)*z(3,2)"

    def test_regularise_refuses_an_expansion_above_the_ceiling(self, capsys):
        t0 = time.monotonic()
        code, out, err = invoke(capsys, "regularise", DEEP)
        assert time.monotonic() - t0 < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: word {DEEP} has a divergence expansion of 48620 words, "
            "beyond the configured ceiling 10000\n"
        )

    def test_parse_error_exit_2(self, capsys):
        code, _, err = invoke(capsys, "decompose", "01x1")
        assert code == 2 and "error" in err


class TestGenerateVerify:
    def test_generate_json_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "generate", "cyclic-full", "--lengths", "1,1,2,3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "cyclic-full" and data["weight"] == 5
        assert {item["term_kind"] for item in data["lhs"]} == {"word"}

    def test_pipe_generate_verify(self, capsys, monkeypatch):
        code, out, _ = invoke(
            capsys, "generate", "cyclic-full", "--lengths", "1,1,2,3"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = invoke(capsys, "verify", "--digits", "30")
        assert code == 0 and "[verified]" in out

    def test_verify_family_flag(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--family", "hoffman", "--b", "0,0,1",
            "--digits", "30", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["status"] == "verified"

    def test_label_does_not_depend_on_the_route(self, capsys, monkeypatch):
        # --n before --m on the command line, params sorted in the JSON
        family = ("bowman-bradley", "--n", "1", "--m", "2")
        _, generated, _ = invoke(capsys, "generate", *family)
        monkeypatch.setattr("sys.stdin", io.StringIO(generated))
        _, piped, _ = invoke(capsys, "verify", "--digits", "30", "--format", "json")
        _, flagged, _ = invoke(
            capsys, "verify", "--family", *family, "--digits", "30", "--format", "json"
        )
        labels = {json.loads(out)["identity"] for out in (piped, flagged)}
        assert labels == {"bowman-bradley{'m': 2, 'n': 1} weight 8, rhs 1/181440*pi^8"}

    def test_refuted_exit_1(self, capsys, monkeypatch):
        bogus = {
            "family": "cyclic-basic",
            "params": {},
            "weight": 2,
            "lhs": [
                {
                    "term_kind": "zeta",
                    "term": "z(2)",
                    "coeff_num": "1",
                    "coeff_den": "1",
                    "pi_exp": 0,
                }
            ],
            "rhs": {"num": "0", "den": "1", "pi_exp": 0},
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bogus)))
        code, out, _ = invoke(capsys, "verify", "--digits", "20")
        assert code == 1 and "[refuted]" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_uncertifiable_recognition_does_not_abort_batch(self, capsys, monkeypatch, jobs):
        # 15 digits cannot certify a denominator up to the default --max-den,
        # so the symmetric identity (unknown right-hand side) is inconclusive
        batch = [
            gen_cyclic_full((1, 1, 2, 3)),
            gen_symmetric(BlockDecomposition(0, (2, 3, 3))),
            gen_hoffman(0, 0, 0),
        ]
        stdin = "\n".join(serial.dumps(serial.identity_to_json(i)) for i in batch)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, _ = invoke(
            capsys, "verify", "--digits", "15", "--jobs", jobs, "--format", "json"
        )
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["status"] for r in reports] == ["verified", "inconclusive", "verified"]
        assert "recompute at higher precision" in reports[1]["note"]

    def test_usage_error_exit_2(self, capsys):
        assert run(["generate"]) == 2 or run(["nonsense"]) == 2

    @pytest.mark.parametrize(
        "jobs, batch, cpus, workers",
        [(64, 2, 8, 2), (3, 5, 8, 3), (64, 5, 2, 2), (64, 5, None, None), (2, 1, 8, None)],
    )
    def test_pool_is_no_larger_than_batch_or_machine(
        self, capsys, monkeypatch, jobs, batch, cpus, workers
    ):
        # a fork pool starts all of max_workers on its first submit
        sizes = []

        def verify_output(jobs):
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join([record()] * batch)))
            code, out, _ = invoke(
                capsys, "verify", "--digits", "15", "--jobs", str(jobs), "--format", "json"
            )
            assert code == 0
            return masked_reports(out)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool(sizes))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert verify_output(jobs) == verify_output(1)
        # one pool walks the series prefixes; verify evaluates in process
        assert sizes == ([] if workers is None else [workers])


def _series_prefixes(idents) -> tuple[set, int]:
    """The distinct series prefixes a batch needs, and its longest key.

    Built from the definitions: the interior of each convergent word of
    regularised lhs - rhs (lhs and zeta(N) for an unknown rhs), and its
    flipped reverse.
    """
    comps = set()
    for ident in idents:
        comb = ident.lhs if ident.rhs is None else ident.difference()
        comps |= set(regularise(comb).keys())
        if ident.rhs is None:
            comps.add(zc(ident.weight))
    keys = set()
    for s in comps:
        if s.args and s.is_convergent:
            a = mzv_to_word(s)[0].interior
            keys |= {a, tuple(1 - x for x in reversed(a))}
    prefixes = {k[:j] for k in keys for j in range(1, len(k) + 1)}
    return prefixes, max(map(len, keys))


class TestPooledVerify:
    """`verify --jobs K` walks the batch's series prefixes once, then evaluates."""

    BATCH = (
        [gen_cyclic_full(c) for N in (4, 5, 6) for c in cyclic_family(N)]
        + [gen_hoffman(0, 0, m) for m in range(3)]
        + [gen_symmetric(BlockDecomposition(0, (2, 3, 3)))]
    )

    def _verify(self, capsys, monkeypatch, jobs):
        stdin = "\n".join(serial.dumps(serial.identity_to_json(i)) for i in self.BATCH)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        return invoke(capsys, "verify", "--digits", "60", "--jobs", str(jobs), "--format", "json")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_prefix_is_transformed_about_once(self, capsys, monkeypatch, jobs):
        calls = []
        for name in ("g_init", "g_append"):
            original = getattr(series, name)
            monkeypatch.setattr(
                series, name, lambda *a, f=original: calls.append(1) or f(*a)
            )
        monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool([]))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        numerics.reset_caches()  # at --jobs 1 the walk runs in this process
        code, _, _ = self._verify(capsys, monkeypatch, jobs)
        prefixes, longest = _series_prefixes(self.BATCH)
        assert code == 0
        assert 0 < len(calls) <= len(prefixes) + 2 * longest

    def test_pool_reports_equal_serial_reports(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code2, out2, _ = self._verify(capsys, monkeypatch, 2)
        code1, out1, _ = self._verify(capsys, monkeypatch, 1)
        assert code1 == code2 == 0
        reports = masked_reports(out1)
        assert masked_reports(out2) == reports
        assert {r["status"] for r in reports} == {"verified"}
        assert reports[-1]["note"].startswith("lhs = (")  # the symmetric identity

    def test_a_batch_without_series_keys(self, capsys, monkeypatch):
        # lhs 0 = rhs 0 twice: nothing to walk, two verified reports
        sizes = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool(sizes))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        empty = record(lhs=[], rhs={"num": "0", "den": "1", "pi_exp": 0})
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join([empty, empty])))
        code, out, err = invoke(capsys, "verify", "--jobs", "2", "--format", "json")
        assert (code, err) == (0, "")
        assert [r["status"] for r in masked_reports(out)] == ["verified", "verified"]
        assert sizes == [2]

    def test_spawn_pool_reports_equal_serial_reports(self, capsys, monkeypatch):
        # a spawned worker inherits nothing from this process, so the walk
        # may depend on no state a fork would hand over
        sizes = []

        def spawn_pool(max_workers):
            sizes.append(max_workers)
            spawn = multiprocessing.get_context("spawn")
            return ProcessPoolExecutor(max_workers=max_workers, mp_context=spawn)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code1, out1, _ = self._verify(capsys, monkeypatch, 1)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", spawn_pool)
        numerics.reset_caches()
        code2, out2, _ = self._verify(capsys, monkeypatch, 2)
        assert code1 == code2 == 0
        assert masked_reports(out2) == masked_reports(out1)
        assert sizes == [2]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--digits", "5"], "need digits >= 10"),
            (["--max-den", "0"], "max_den must be at least 1, got 0"),
            ([], "weight 202 beyond the configured ceiling 200"),
        ],
    )
    def test_input_is_checked_before_the_walk(self, capsys, monkeypatch, argv, message, jobs):
        def not_yet(*_):
            raise AssertionError("regularised before the input checks")

        sizes = []
        monkeypatch.setattr(numerics, "regularise_sums", not_yet)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool(sizes))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        heavy = record(weight=202, lhs=[], rhs={"num": "1", "den": "1", "pi_exp": 202})
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join([record(), heavy])))
        code, out, err = invoke(capsys, "verify", "--jobs", jobs, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert sizes == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                record(weight=-3, lhs=[], rhs=ZERO_RHS),
                "identity weight must be at least 0, got -3",
            ),
            (
                record(weight=0, lhs=[], rhs=serial.UNKNOWN_RHS),
                "an unknown right-hand side q*zeta(N) needs weight N >= 2, got weight 0",
            ),
            (
                record(weight=1, lhs=[], rhs=serial.UNKNOWN_RHS),
                "an unknown right-hand side q*zeta(N) needs weight N >= 2, got weight 1",
            ),
            (
                record(weight=19, lhs=[{**TERM, "term_kind": "word", "term": DEEP}], rhs=ZERO_RHS),
                f"word {DEEP} has a divergence expansion of 48620 words, "
                "beyond the configured ceiling 10000",
            ),
        ],
        ids=["negative-weight", "unknown-rhs-weight-0", "unknown-rhs-weight-1", "deep-expansion"],
    )
    def test_a_record_out_of_range_exits_2_at_once(self, capsys, monkeypatch, bad, message, jobs):
        sizes = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool(sizes))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join([record(), bad])))
        t0 = time.monotonic()
        code, out, err = invoke(capsys, "verify", "--jobs", jobs)
        assert time.monotonic() - t0 < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert sizes == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_term_that_would_meet_another_pi_power_exits_2(self, capsys, monkeypatch, jobs):
        # I(0101) = -zeta(2): with pi^2 it would meet z(2) under two pi
        # exponents, but a record is weight-homogeneous before it is regularised
        word_term = {**TERM, "term_kind": "word", "term": "0101", "pi_exp": 2}
        mixed = record(weight=4, lhs=[word_term, TERM], rhs={"num": "0", "den": "1", "pi_exp": 0})
        monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool([]))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join([record(), mixed])))
        code, out, err = invoke(capsys, "verify", "--jobs", jobs)
        message = "inhomogeneous term z(2) (weight 2) in a weight-4 identity"
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestKernelAndTable:
    def test_dkernel_closure(self, capsys):
        code, out, _ = invoke(
            capsys, "dkernel", "--lengths", "2,3,3", "--set", "closure"
        )
        assert code == 0 and "rational multiple of zeta(6)" in out

    def test_dkernel_cyclic_collapse_json(self, capsys):
        code, out, _ = invoke(
            capsys, "dkernel", "--lengths", "2,10,3,2", "--set", "cyclic",
            "--grade", "7", "--collapse", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["vanishes"] is False
        assert len(data["residue"]) == 4
        assert {item["right_word"] for item in data["residue"]} == {"0101010101"}

    def test_table_row(self, capsys):
        code, out, _ = invoke(capsys, "table", "--weight", "4")
        assert code == 0
        assert "cyclic 5/3" in out and "overall 3" in out and "expected 3" in out

    def test_rank_matrix_counts_each_family_once(self, capsys):
        code, out, _ = invoke(
            capsys, "rank", "--weight", "4", "--families", "cyclic,cyclic", "--format", "json"
        )
        assert code == 0
        init = json.loads(out)["cyclic"]["init"]
        code, out, _ = invoke(
            capsys, "rank", "--weight", "4", "--families", "cyclic,cyclic", "--matrix"
        )
        assert code == 0
        assert max(i for i, _, _ in json.loads(out)["triplets"]) < init

    def test_rank_subset_json(self, capsys):
        code, out, _ = invoke(
            capsys, "rank", "--weight", "5", "--families", "duality",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["duality"] == {"init": 8, "rank": 4}
        assert "cyclic" not in data

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("rank", "--weight", "1"), "weight must be at least 2"),
            (("rank", "--weight", "0"), "weight must be at least 2"),
            (("rank", "--weight", "-1"), "weight must be at least 2"),
            (("table", "--weight", "1"), "weight must be at least 2"),
            (("rank", "--weight", "1", "--matrix"), "weight must be at least 2"),
            (("rank", "--weight", "5", "--families", "nope"), "unknown family 'nope'"),
            (("rank", "--weight", "5", "--families", "cyclic,"), "unknown family ''"),
            (("generate", "bowman-bradley", "--n", "-1", "--m", "2"), "m, n >= 0"),
            (("generate", "bowman-bradley", "--n", "1", "--m", "-1"), "m, n >= 0"),
            (("verify", "<", "{}"), "missing or null key 'rhs'"),
            (("verify", "<", "[1]"), "an identity record must be a JSON object"),
            (("verify", "<", record(weight=None)), "missing or null key 'weight'"),
            (("verify", "<", record(params=[])), "params must be a JSON object"),
            (
                ("verify", "<", record(lhs=[{**TERM, "coeff_den": "0"}])),
                "zero denominator 'coeff_den'",
            ),
            (("verify", "<", record(rhs={**RHS, "den": "0"})), "zero denominator 'den'"),
            (("verify", "<", record(rhs=None)), "missing or null key 'rhs'"),
            (("dkernel", "--lengths", "2"), "needs weight >= 2, got weight 0"),
            (("dkernel", "--lengths", "1,2"), "needs weight >= 2, got weight 1"),
            (
                ("verify", "--family", "symmetric", "--lengths", "2,3,1", "--max-den", "0"),
                "max_den must be at least 1, got 0",
            ),
            (
                ("verify", "--family", "symmetric", "--lengths", "2,3,1", "--max-den", "-3"),
                "max_den must be at least 1, got -3",
            ),
            (("verify", "--family", "hoffman", "--b", "0,0,0", "--digits", "-5"), "need digits >= 10"),
            (("verify", "--family", "hoffman", "--b", "0,0,0", "--jobs", "0"), "jobs must be at least 1, got 0"),
            (("verify", "--family", "hoffman", "--b", "0,0,0", "--jobs", "-3"), "jobs must be at least 1, got -3"),
            (("dkernel", "--lengths", "2,3,3", "--grade", "-1"), "odd r with 3 <= r < 6, got -1"),
            (("dkernel", "--lengths", "2,3,3", "--grade", "4"), "odd r with 3 <= r < 6, got 4"),
            (("dkernel", "--lengths", "2,3,3", "--grade", "7"), "odd r with 3 <= r < 6, got 7"),
            (("generate", "double-alt", "--lengths", "1,1,2,3"), "cyclically adjacent (1,1)"),
            (("verify", "<", "[" * 100000), "a stdin record is nested too deeply"),
        ],
    )
    def test_bad_table_input_exit_2(self, capsys, monkeypatch, argv, message):
        if "<" in argv:  # what follows "<" is fed on stdin, as a shell would
            argv, stdin = argv[: argv.index("<")], argv[-1]
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--weight", "4", "--format", "latex"),
            ("dkernel", "--lengths", "2,3,3", "--format", "latex"),
            ("rank", "--weight", "4", "--format", "latex"),
            ("decompose", "010100111010101", "--format", "latex"),
            ("word", "(0; 5,2,1,7)", "--format", "latex"),
            ("mzv", "z(1,3)", "--format", "latex"),
            ("verify", "--family", "hoffman", "--b", "0,0,0", "--format", "latex"),
        ],
    )
    def test_latex_only_where_implemented(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert "invalid choice: 'latex'" in err and "Traceback" not in err

    def test_latex_where_implemented(self, capsys):
        code, out, _ = invoke(capsys, "regularise", "0010111", "--format", "latex")
        assert code == 0 and "\\zeta" in out
        code, out, _ = invoke(capsys, "generate", "hoffman", "--b", "0,0,0", "--format", "latex")
        assert code == 0 and "\\doteq" in out


def _run_captured(argv, stdin: str = "") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `run(argv)` fed `stdin`."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return run(list(argv)), out.getvalue(), err.getvalue()
    finally:
        sys.stdin = saved


def _run_quietly(argv, stdin: str = "") -> tuple[int, str]:
    """Exit code and stdout of `run(argv)` fed `stdin`; stderr is discarded."""
    return _run_captured(argv, stdin)[:2]


def _verify_exit_code(line: str) -> int:
    """Exit code of `verify` fed one stdin line; output is discarded."""
    return _run_quietly(["verify", "--digits", "15"], line)[0]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def near(value):
    """`value`, with any part of it (itself included) possibly arbitrary JSON."""
    if isinstance(value, dict):
        exact = st.fixed_dictionaries({k: near(v) for k, v in value.items()})
    elif isinstance(value, list):
        exact = st.lists(near(value[0]), max_size=2)
    else:
        exact = st.just(value)
    return exact | JSON_VALUES


class TestVerifyInputFuzz:
    def test_well_formed_record_verifies(self):
        assert _verify_exit_code(record()) == 0

    @settings(max_examples=150, deadline=None)
    @given(near(RECORD))
    def test_arbitrary_json_exits_0_1_or_2(self, value):
        assert _verify_exit_code(json.dumps(value)) in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(near(RECORD))
    def test_jobs_1_and_2_agree(self, value):
        # behind a well-formed record, so a well-formed draw makes a batch of
        # two and --jobs 2 runs the pool (in this process)
        stdin = "\n".join([record(), json.dumps(value)])
        outputs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "ProcessPoolExecutor", serial_pool([]))
            mp.setattr(os, "cpu_count", lambda: 2)
            for jobs in ("1", "2"):
                argv = ["verify", "--digits", "15", "--jobs", jobs, "--format", "json"]
                code, out, err = _run_captured(argv, stdin)
                outputs.append((code, masked_reports(out), err))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 1, 2)


#: Family-list tokens for the argv fuzz: the valid names and near misses.
FAMILY_TOKENS = (*FAMILIES, "", "nope", "Duality")


class TestRankTableArgvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(("rank", "table")),
        weight=st.integers(-2, 7),
        families=st.lists(st.sampled_from(FAMILY_TOKENS), min_size=1, max_size=4),
        matrix=st.booleans(),
        fmt=st.sampled_from(("text", "json")),
    )
    def test_exits_0_or_2(self, command, weight, families, matrix, fmt):
        # `table` takes neither --families nor --matrix: it is all of FAMILIES
        names = ",".join(families if command == "rank" else FAMILIES)
        argv = [command, "--weight", str(weight), "--format", fmt]
        if command == "rank":
            argv += ["--families", names] + ["--matrix"] * matrix
        code, _ = _run_quietly(argv)
        assert code in (0, 2)
        if code == 0:
            rank = ["rank", "--weight", str(weight), "--families", names]
            _, matrix_out = _run_quietly([*rank, "--matrix"])
            _, row_out = _run_quietly([*rank, "--format", "json"])
            assert json.loads(matrix_out)["rank"] == json.loads(row_out)["overall"]


#: Small inputs for the argv fuzz of the other subcommands.  Values go in
#: as `--opt=value`, so argparse takes a leading minus as part of the value.
CSV = st.lists(st.integers(-1, 6), max_size=5).map(lambda xs: ",".join(map(str, xs)))
SMALL_INT = st.integers(-2, 3)
BITS = st.text(alphabet="01", max_size=9)
FORMAT = st.sampled_from(("text", "json"))


def _family_argv(family_flag: tuple[str, ...]):
    """`generate <family>` or `verify --family <family>` with its options."""
    return st.builds(
        lambda fam, lengths, b, a, m, n, x, c, mode: [
            *family_flag, fam, f"--lengths={lengths}", f"--b={b}", f"--a={a}",
            f"--m={m}", f"--n={n}", f"--x={x}", f"--c={c}", f"--mode={mode}",
        ],
        st.sampled_from((*IDENTITY_FAMILIES, "nope")), CSV, CSV,
        st.sampled_from(("", "13", "1(1,2)3", "31", "x")),
        SMALL_INT, SMALL_INT, SMALL_INT, SMALL_INT,
        st.sampled_from(("transcendental", "symbolic")),
    )


SUBCOMMAND_ARGV = st.one_of(
    st.builds(lambda w: ["decompose", w], BITS),
    st.builds(lambda e, lengths: ["word", f"({e}; {lengths})"], st.integers(-1, 2), CSV),
    st.builds(lambda v: ["mzv", v], BITS | CSV.map(lambda xs: f"z({xs})")),
    st.builds(lambda w: ["regularise", w], BITS),
    _family_argv(("generate",)),
    st.builds(
        lambda argv, d: [*argv, f"--digits={d}"],
        _family_argv(("verify", "--family")),
        st.sampled_from((-5, 0, 5, 10, 30)),
    ),
    st.builds(
        lambda lengths, kind, grade, collapse: [
            "dkernel", f"--lengths={lengths}", f"--set={kind}", f"--grade={grade}",
        ] + ["--collapse"] * collapse,
        CSV, st.sampled_from(("closure", "cyclic", "symmetric")),
        st.sampled_from((0, -1, 3, 4, 5, 7)), st.booleans(),
    ),
)


class TestSubcommandArgvFuzz:
    @settings(max_examples=80, deadline=None)
    @given(argv=SUBCOMMAND_ARGV, fmt=FORMAT)
    @example(argv=["verify", "--family", "hoffman", "--b", "0,0,0", "--digits", "-5"], fmt="text")
    def test_exits_0_1_or_2(self, argv, fmt):
        code, out = _run_quietly([*argv, "--format", fmt])
        assert code in (0, 1, 2)
        if code == 1:
            assert argv[0] == "verify" and "refuted" in out

    def test_parser_is_built_once(self):
        # parse_args leaves the parser as it was, so every run shares one
        assert make_parser() is make_parser()


def _module_run(*argv, **options):
    """Run `python -m <argv>` with this package importable."""
    env = dict(os.environ)
    src = str(Path(blockzeta.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *argv],
        text=True, env=env, **{"capture_output": True, "timeout": 120, **options},
    )


def _limit_address_space():
    """At most 1 GiB of address space, set in the child before it starts."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestModuleEntry:
    ROW4 = "weight 4:  cyclic 5/3  alt-odd 2/1  duality 2/1  overall 3  expected 3\n"

    def test_python_m_blockzeta(self):
        proc = _module_run("blockzeta", "table", "--weight", "4")
        assert (proc.returncode, proc.stdout) == (0, self.ROW4)

    def test_python_m_blockzeta_cli(self):
        proc = _module_run("blockzeta.cli", "table", "--weight", "4")
        assert (proc.returncode, proc.stdout) == (0, self.ROW4)

    def test_closed_stdout_is_not_a_refutation(self):
        # the reader of stdout is gone before the first report is written
        line = serial.dumps(serial.identity_to_json(gen_hoffman(0, 0, 0)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _module_run(
                "blockzeta", "verify", "--digits", "20",
                input="\n".join([line] * 6), capture_output=False,
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_python_m_usage_error(self):
        proc = _module_run("blockzeta", "rank", "--weight", "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "weight must be at least 2" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--weight", "15"),
            ("rank", "--weight", "16", "--matrix"),
            ("rank", "--weight", "30", "--families", "cyclic"),
        ],
    )
    def test_weight_ceiling_exit_2(self, argv):
        # bounded in time and memory, so a missing check fails fast
        proc = _module_run(
            "blockzeta", *argv, timeout=30, preexec_fn=_limit_address_space
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "beyond the configured ceiling 14" in proc.stderr

    # 11! = 39 916 800 orderings; weight 64 with 11 blocks is non-trivial
    ELEVEN = ",".join(map(str, range(1, 12)))

    @pytest.mark.parametrize(
        "argv",
        [
            ("dkernel", "--lengths", ELEVEN, "--set", "closure"),
            ("dkernel", "--lengths", ELEVEN, "--set", "symmetric"),
            ("generate", "symmetric", "--lengths", ELEVEN),
            ("verify", "--family", "symmetric", "--lengths", ELEVEN),
        ],
    )
    def test_ordering_ceiling_exit_2(self, argv):
        # counted before any ordering is built; bounded so a missing check fails fast
        proc = _module_run(
            "blockzeta", *argv, timeout=30, preexec_fn=_limit_address_space
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "distinct orderings than the configured ceiling 100000" in proc.stderr
