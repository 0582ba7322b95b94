"""CLI contract: stable output, schemas, exit codes, golden files."""

import argparse
import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springerq import cli, ic_engine, springer_typec
from springerq.cli import main
from springerq.partitions import Partition
from springerq.springer_typec import MAX_KOSTKA_COST

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, buf.getvalue()


GOLDEN_CASES = {
    "orbits_n1.json": ["orbits", "--n", "1", "--format", "json"],
    "orbits_n3.json": ["orbits", "--n", "3", "--format", "json"],
    "stalks_n2.json": ["stalks", "--n", "2", "--format", "json"],
    "stalks_n3.json": ["stalks", "--n", "3", "--format", "json"],
    "fano_n3_i2.json": ["fano", "--n", "3", "--i", "2", "--format", "json"],
    "euler_n3.json": ["euler", "--n", "3", "--format", "json"],
    "ft_table_n3.json": ["ft-table", "--n", "3", "--format", "json"],
    "kostka_21_111.json": ["kostka", "--shape", "2,1", "--weight", "1,1,1", "--format", "json"],
    "verify_n2.json": ["verify", "--n-max", "2", "--format", "json"],
}
# The same argvs in the other two formats: <stem>.txt is pretty, <stem>.tsv is tsv.
GOLDEN_TEXT_CASES = {
    name[: -len("json")] + ext: [fmt if a == "json" else a for a in argv]
    for name, argv in GOLDEN_CASES.items()
    for ext, fmt in (("txt", "pretty"), ("tsv", "tsv"))
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES) + sorted(GOLDEN_TEXT_CASES))
def test_golden_files_are_byte_stable(name):
    code, out = run_cli({**GOLDEN_CASES, **GOLDEN_TEXT_CASES}[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text(), f"golden file {name} drifted"


def test_json_round_trips_byte_identically():
    code, out = run_cli(["orbits", "--n", "1", "--format", "json"])
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_orbits_row_count_and_pretty():
    code, out = run_cli(["orbits", "--n", "3", "--format", "json"])
    rows = json.loads(out)["rows"]
    assert len(rows) == 15  # p(7)
    assert [r["dim"] for r in rows[:3]] == [21, 20, 19]

    code, pretty = run_cli(["orbits", "--n", "1"])
    assert code == 0
    lines = pretty.splitlines()
    assert lines[0].split()[:3] == ["partition", "dim", "codim"]
    assert len(lines) == 4
    assert lines[1].startswith("3 ")


def test_orbits_n1_dims():
    _, out = run_cli(["orbits", "--n", "1", "--format", "json"])
    rows = json.loads(out)["rows"]
    assert [(r["partition"], r["dim"]) for r in rows] == [("3", 3), ("2,1", 2), ("1,1,1", 0)]


def test_stalks_check_passes():
    code, out = run_cli(["stalks", "--n", "4", "--check", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 4
    assert data["f"][1] == [[-4, "1"]]
    assert len(data["t"]) == 4 and len(data["t"][3]) == 5  # j = 0..4 at i = 4


def test_stalks_pretty_shows_anchor():
    code, out = run_cli(["stalks", "--n", "2"])
    assert code == 0
    assert "q^-2" in out and "q^-3 + q^-1" in out


def test_fano_pretty_sixteen_lines():
    code, out = run_cli(["fano", "--n", "2", "--i", "2"])
    assert code == 0
    assert out.splitlines()[1].split()[:3] == ["0", "0", "16"]


def test_fano_json_big_integers_round_trip():
    n, i = 40, 20
    code, out = run_cli(["fano", "--n", str(n), "--i", str(i), "--format", "json"])
    assert code == 0
    table = json.loads(out)
    values = table["l_dims"] + [row["betti"] for row in table["rows"]]
    big = [v for v in values if isinstance(v, str)]
    assert len(big) == 245
    for v in big:
        assert int(v) > 2**63 - 1 and str(int(v)) == v
    assert all(-(2**63) <= v <= 2**63 - 1 for v in values if isinstance(v, int))
    betti = [int(row["betti"]) for row in table["rows"]]
    expected = sum(math.comb(2 * n + 1, j) * math.comb(2 * n - i - j, i - j) for j in range(i + 1))
    assert sum(betti) == expected
    assert betti == betti[::-1]
    assert [row["terms"] for row in table["rows"]] == [row["terms"] for row in table["rows"][::-1]]


def _leaves(value, key=None):
    """(field name, value) of every scalar in a JSON document; a list's items
    carry the name of the field that holds the list."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, key)
    else:
        yield key, value


@pytest.mark.parametrize("argv, big_fields", [
    (["euler", "--n", "67"], {"trivial": 8}),
    (["fano", "--n", "68", "--i", "19"], {"mult": 119, "betti": 1019, "l_dims": 5}),
])
def test_every_json_integer_fits_in_64_bits_or_is_a_decimal_string(argv, big_fields):
    code, out = run_cli(argv + ["--format", "json"])
    assert code == 0
    leaves = list(_leaves(json.loads(out)))
    assert all(-(2**63) <= v < 2**63 for _, v in leaves if type(v) is int)
    for field, count in big_fields.items():
        big = [v for key, v in leaves if key == field and isinstance(v, str)]
        assert len(big) == count, field
        assert all(str(int(v)) == v and not -(2**63) <= int(v) < 2**63 for v in big)


def test_kostka_pretty_prints_bare_number():
    code, out = run_cli(["kostka", "--shape", "2,1", "--weight", "1,1,1"])
    assert code == 0
    assert out == "2\n"


@pytest.mark.parametrize("side, expected", [(6, "87516\n"), (5, "6006\n")])
def test_kostka_three_row_rectangles_finish_quickly(side, expected):
    shape, ones = ",".join([str(side)] * 3), ",".join(["1"] * (3 * side))
    started = time.perf_counter()
    code, out = run_cli(["kostka", "--shape", shape, "--weight", ones])
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (0, expected)


def test_kostka_refuses_costly_input_with_exit_2(capsys):
    staircase = ",".join(str(k) for k in range(20, 0, -1))
    started = time.perf_counter()
    code, out = run_cli(["kostka", "--shape", staircase, "--weight", ",".join(["1"] * 210)])
    assert time.perf_counter() - started < 2.0
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err
    assert str(MAX_KOSTKA_COST) in err


@pytest.mark.parametrize("shape, weight", [("1_0", "+10"), ("10", "+10"), ("\u0663", "2,1"),
                                           ("00003", "3")])
def test_kostka_refuses_a_partition_that_is_not_ascii_digits(shape, weight, capsys):
    # int() would read each of these, and "shape" would print as a different text
    assert run_cli(["kostka", "--shape", shape, "--weight", weight]) == (2, "")
    err = capsys.readouterr().err
    assert "springerq: error: malformed partition" in err and "Traceback" not in err


def test_kostka_refuses_a_cost_only_over_the_limit(monkeypatch, capsys):
    # shape 2,1 has 5 states (the partitions inside it) of 2 + 200 row scans each
    argv = ["kostka", "--shape", "2,1", "--weight", "1,1,1"]
    monkeypatch.setattr(springer_typec, "MAX_KOSTKA_COST", 1010)
    assert springer_typec.kostka(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert run_cli(argv) == (0, "2\n")
    monkeypatch.setattr(springer_typec, "MAX_KOSTKA_COST", 1009)
    with pytest.raises(ValueError, match=r"^kostka: shape 2,1 costs 1010 > 1009$"):
        springer_typec.kostka(Partition((2, 1)), Partition((1, 1, 1)))
    capsys.readouterr()
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err.endswith("springerq: error: kostka: shape 2,1 costs 1010 > 1009\n")


@pytest.mark.parametrize("n, i", [("200", "100"), (str(10**12), "5"), (str(10**12), str(10**12))])
def test_fano_refuses_costly_input_with_exit_2(capsys, n, i):
    started = time.perf_counter()
    code, out = run_cli(["fano", "--n", n, "--i", i, "--format", "json"])
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err
    assert f"MAX_FANO_COST = {cli.MAX_FANO_COST}" in err


def test_fano_refuses_exactly_the_tables_over_the_limit(monkeypatch, capsys):
    assert cli.MAX_FANO_COST >= 1251 * 30 + 26 * 50  # fano --n 50 --i 25 is served
    monkeypatch.setattr(cli, "MAX_FANO_COST", 103)
    # 13 rows * 7, and 3 l_dims of at most 2 * 2 digits each
    assert run_cli(["fano", "--n", "5", "--i", "2", "--format", "tsv"])[0] == 0
    assert run_cli(["fano", "--n", "6", "--i", "2", "--format", "tsv"]) == (2, "")  # 17 * 7 + 3 * 4
    assert "fano: --n 6 --i 2 costs 131 > MAX_FANO_COST = 103" in capsys.readouterr().err


# fano --n N --i N has one row but i + 1 binomials C(2N+1, j) of up to N digits;
# N = 706 is the largest such table served
@pytest.mark.parametrize("n", ["707", "10000", str(10**12)])
def test_fano_counts_the_digits_of_l_dims_in_its_cost(capsys, n):
    started = time.perf_counter()
    code, out = run_cli(["fano", "--n", n, "--i", n, "--format", "json"])
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err
    assert f"fano: --n {n} --i {n} costs" in err and f"MAX_FANO_COST = {cli.MAX_FANO_COST}" in err


def test_fano_at_top_index_writes_four_to_the_n_points_as_a_decimal_string():
    assert run_cli(["fano", "--n", "706", "--i", "706", "--format", "tsv"])[0] == 0
    code, out = run_cli(["fano", "--n", "40", "--i", "40", "--format", "json"])
    assert code == 0
    table = json.loads(out)
    assert [row["betti"] for row in table["rows"]] == [str(4**40)]  # over 2^63
    assert [int(d) for d in table["l_dims"]] == [math.comb(81, j) for j in range(41)]


# (argv, the limit's name, the largest accepted value, a value that CI, the
# tests or the benchmark use and that must stay accepted)
RANK_LIMITS = [
    (["orbits"], "--n", "MAX_ORBITS_RANK", 18),
    (["stalks", "--check"], "--n", "MAX_STALKS_RANK", 24),
    (["verify"], "--n-max", "MAX_VERIFY_RANK", 20),
    (["euler"], "--n", "MAX_EULER_RANK", 67),
    (["ft-table"], "--n", "MAX_FT_TABLE_RANK", 3),
]


@pytest.mark.parametrize("argv, flag, name, used", RANK_LIMITS, ids=[r[2] for r in RANK_LIMITS])
@pytest.mark.parametrize("excess", [1, 10**12])
def test_rank_limits_refuse_costly_input_with_exit_2(capsys, argv, flag, name, used, excess):
    limit = getattr(cli, name)
    assert limit >= used
    started = time.perf_counter()
    code, out = run_cli(argv + [flag, str(limit + excess), "--format", "json"])
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err
    assert f"{argv[0]}: {flag} {limit + excess} > {name} = {limit}" in err


@pytest.mark.parametrize("argv, flag, name, used", RANK_LIMITS, ids=[r[2] for r in RANK_LIMITS])
def test_rank_limits_refuse_exactly_the_ranks_over_them(monkeypatch, argv, flag, name, used):
    monkeypatch.setattr(cli, name, 2)
    assert run_cli(argv + [flag, "2", "--format", "tsv"])[0] == 0
    assert run_cli(argv + [flag, "3", "--format", "tsv"]) == (2, "")


def test_orbits_rank_limit_serves_exactly_the_tables_of_at_most_100000_rows():
    p = [1] + [0] * 60  # p[m] partitions of m, counted by adding parts of each size in turn
    for part in range(1, len(p)):
        for m in range(part, len(p)):
            p[m] += p[m - part]
    assert (p[37], p[45], p[47]) == (21637, 89134, 124754)
    assert cli.MAX_ORBITS_RANK == max(n for n in range(30) if p[2 * n + 1] <= 100_000)


# sha256 of the stdout of each benchmark argv, as pinned in perfbench/run.py
BENCHMARK_DIGESTS = {
    "stalks --n 20 --check --format json":
        "605223c1fd0b5f4bf9bf2e784c5fd97a65572bbbde28b273c59c8130f5b712c2",
    "verify --n-max 13 --format json":
        "d66173f38cdc20a9c6321f417e45f040b91e925d967fd063de2cf4b9922746a3",
    "orbits --n 18 --format json":
        "9afb885fc859939ed1946e757c3137f90eab50e9de463860a4d6a7bd651248a9",
    "fano --n 50 --i 25 --format json":
        "19c232e55e7c4706a08ebfb3e0c8fb1af52d81ee7b535b2a094c8d6a7ca0243f",
}


@pytest.mark.parametrize("argv", sorted(BENCHMARK_DIGESTS))
def test_benchmark_outputs_match_their_pinned_digests(argv):
    code, out = run_cli(argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(BENCHMARK_DIGESTS) + ["fano --n 50 --i 25"])
def test_a_second_run_in_one_process_keeps_almost_nothing(argv):
    # the caches keep what the first run computed; a second run of the same
    # argv must reuse it, not add to it (tracing starts before the first run,
    # so that the interpreter's free lists fill there)
    sizes = []
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for _ in range(2):
                assert main(argv.split()) == 0
                gc.collect()
                sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[1] - sizes[0] < 64 * 1024, sizes


@pytest.mark.parametrize("fmt", ["tsv", "pretty"])
def test_a_table_of_entries_writes_its_expanded_rows(fmt):
    # orbits writes its rows in blocks (labels, values, kinds), each kind an
    # index into its table of entries; tsv and pretty must write the same text
    # as for the full rows, a row with only empty cells after its label included
    table = [(True, None), (False, "long entry text"), (None, 12345), (None, None)]
    blocks = [(["a" * (k % 4) + " " * (k % 2) for k in range(b, b + 3)], (None if b % 2 else b,),
               bytes(k % 4 for k in range(b, b + 3))) for b in range(0, 12, 3)]
    expanded = [(label, *values, *table[k]) for labels, values, kinds in blocks
                for label, k in zip(labels, kinds)]
    texts = []
    for records in (cli.Records(["x", "n", "b", "s"], blocks, table),
                    cli.Records(["x", "n", "b", "s"], expanded)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli._output(argparse.Namespace(format=fmt), {}, records)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1] and "long entry text" in texts[0]


def test_orbits_holds_label_text_per_codim_bucket():
    # orbits --n 18 has 21637 rows, whose 8-tuples alone take 5 MiB: the
    # command holds each codim bucket as one bytearray of label text and one
    # of classification indices (about 1.2 MiB at the peak) and makes each
    # row as it is written
    import springerq.partitions  # noqa: F401  (its import is not the command's memory)
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["orbits", "--n", "18", "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak


@pytest.mark.parametrize("columns", ["60", "200", "0", "wide", None])
def test_help_is_argparse_own_text_at_every_width(columns, monkeypatch):
    # cli._Formatter reads the width without shutil; the text must not change
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for argv in [["--help"]] + [[name, "--help"] for name, *_ in cli._COMMANDS]:
        ours = run_cli(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_Formatter", argparse.HelpFormatter)
            assert run_cli(argv) == ours, argv
        assert ours[0] == 0 and ours[1].startswith("usage: springerq"), argv


def test_verify_n_max_20_within_budget():
    started = time.perf_counter()
    code, out = run_cli(["verify", "--n-max", "20", "--format", "json"])
    assert time.perf_counter() - started < 10.0
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {s["name"]: s["cases"] for s in doc["suites"]} == {
        "cc-identity": 100, "kostka-closed-form": 505, "poincare-identity": 230,
        "solver-closed-form": 1980, "two-power-sum": 230,
    }


def test_tsv_format():
    code, out = run_cli(["euler", "--n", "2", "--format", "tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i\tj\ttrivial\tnontrivial"
    assert lines[1] == "0\t0\t1\t"
    assert lines[4] == "2\t0\t2\t1"


def _json_cell(v):
    """A JSON value as _cell writes it: null empty, booleans true/false, and a
    big int, which the JSON holds as its decimal string, as that string."""
    return "" if v is None else json.dumps(v) if isinstance(v, bool) else str(v)


ONE_TABLE_ARGVS = (
    [[cmd, "--n", str(n)] for cmd in ("orbits", "euler", "ft-table") for n in range(1, 6)]
    + [["verify", "--n-max", str(n)] for n in range(1, 6)]
    + [["kostka", "--shape", shape, "--weight", weight]
       for shape, weight in (("2,1", "1,1,1"), ("3,2,1", "2,2,1,1"), ("4,2", "2,2,1,1"))])


@pytest.mark.parametrize("argv", ONE_TABLE_ARGVS, ids=" ".join)
def test_tsv_writes_the_rows_of_the_json(argv):
    """orbits, euler, ft-table, verify and kostka write one table in both
    formats: the tsv header is the keys of each JSON row, and its cells the
    row's values."""
    code, text = run_cli(argv + ["--format", "json"])
    doc = json.loads(text)
    rows = doc["suites"] if argv[0] == "verify" else doc.get("rows", [doc])
    tsv_code, tsv = run_cli(argv + ["--format", "tsv"])
    assert (code, tsv_code) == (0, 0) and rows
    lines = [line.split("\t") for line in tsv.splitlines()]
    assert all(list(row) == lines[0] for row in rows)
    assert lines[1:] == [[_json_cell(v) for v in row.values()] for row in rows]


def test_verify_passes_and_orders_suites_by_name():
    code, out = run_cli(["verify", "--n-max", "3"])
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()[:-1]]
    assert names == sorted(names)
    assert out.splitlines()[-1].startswith("all suites passed")


@pytest.fixture
def shifted_t(monkeypatch):
    """ic_engine.closed_form_t off by a factor q at (i, j) = (2, 1), at every rank."""
    closed_form_t = ic_engine.closed_form_t
    monkeypatch.setattr(
        ic_engine, "closed_form_t",
        lambda n, i, j: closed_form_t(n, i, j).shift(1 if (i, j) == (2, 1) else 0),
    )


def test_stalks_check_reports_the_first_mismatch(shifted_t, capsys):
    code, out = run_cli(["stalks", "--n", "3", "--check", "--format", "json"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "stalks --check: t n=3 i=2 j=1 disagrees with closed form\n"
    )


def test_verify_and_stalks_check_report_the_same_solver_counterexample(shifted_t, capsys):
    code, out = run_cli(["verify", "--n-max", "3", "--format", "json"])
    assert code == 1
    failed = [s for s in json.loads(out)["suites"] if not s["passed"]]
    # rank 1 has 4 cases; rank 2 passes f_0, f_1, f_2, T^1_0, T^1_1 and T^2_0
    assert failed == [{"name": "solver-closed-form", "passed": False, "cases": 10,
                       "counterexample": "t n=2 i=2 j=1"}]
    assert run_cli(["stalks", "--n", "2", "--check"]) == (1, "")
    assert capsys.readouterr().err == "stalks --check: t n=2 i=2 j=1 disagrees with closed form\n"


STALKS_ARGVS = [["stalks", "--n", str(n), "--format", fmt]
                for n in range(1, 7) for fmt in ("pretty", "json", "tsv")]


def test_plain_stalks_and_ic_stalk_poly_run_no_solver(monkeypatch):
    checked = [run_cli(argv + ["--check"]) for argv in STALKS_ARGVS]

    def unreachable(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(ic_engine, "solve_stalk_tables", unreachable)
    monkeypatch.setattr(ic_engine, "_solve_rank", unreachable)
    assert [run_cli(argv) for argv in STALKS_ARGVS] == checked
    for n in range(7):
        for i in range(n + 1):
            for j in range(i + 1):
                # the lowest term of each stalk is q^(-dim O_{2^i 1^(2n+1-2i)} / 2)
                lowest = ic_engine.ic_stalk_poly(n, i, j).to_pairs()[0]
                assert lowest == (-i * (2 * n + 1 - i) // 2, 1), (n, i, j)


def test_stalks_prints_the_solvers_tables_through_rank_20():
    for n in range(1, 21):
        code, out = run_cli(["stalks", "--n", str(n), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        stalks, mult = ic_engine.solve_stalk_tables(n)
        assert doc["f"] == [f.json_pairs() for f in stalks.f], n
        assert doc["t"] == [[mult.t(i, j).json_pairs() for j in range(i + 1)]
                            for i in range(1, n + 1)], n


@pytest.mark.parametrize("fmt", ["pretty", "json", "tsv"])
def test_verify_failure_names_the_counterexample(monkeypatch, fmt):
    monkeypatch.setattr(springer_typec, "verify_cc_identity", lambda n, i: (n, i) != (3, 2))
    code, out = run_cli(["verify", "--n-max", "3", "--format", fmt])
    assert code == 1
    if fmt == "pretty":
        lines = out.splitlines()
        assert lines[0] == "cc-identity         FAIL  at n=3 i=2 (1 cases passed before failure)"
        assert lines[-1] == "verification failed (n_max=3)"
    elif fmt == "json":
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["suites"][0] == {"name": "cc-identity", "passed": False, "cases": 1,
                                    "counterexample": "n=3 i=2"}
    else:
        assert out.splitlines()[1] == "cc-identity\tfalse\t1\tn=3 i=2"


def test_usage_errors_exit_2(capsys):
    # (argv, the flag a positive-int error must name, or None)
    for argv, flag in (
        (["orbits", "--n", "0"], "--n"),
        (["orbits", "--n", "abc"], "--n"),
        (["stalks"], None),
        (["fano", "--n", "2", "--i", "5"], None),
        (["fano", "--n", "2", "--i", "0"], "--i"),
        (["fano", "--n", "0", "--i", "1"], "--n"),
        (["kostka", "--shape", "1,2", "--weight", "1,1,1"], None),
        (["kostka", "--shape", "2,1", "--weight", "2,2"], None),
        (["kostka", "--shape", "x", "--weight", "1"], None),
        (["euler", "--n", "-1"], "--n"),
        (["ft-table", "--n", "0"], "--n"),
        (["verify", "--n-max", "0"], "--n-max"),
        (["orbits", "--n", "1", "--format", "xml"], None),
        (["no-such-command"], None),
    ):
        code, _ = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "error:" in err and "Traceback" not in err, argv
        if flag is not None:
            assert f"argument {flag}:" in err, argv


def test_cli_runs_as_a_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "springerq", "verify", "--n-max", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all suites passed" in proc.stdout


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_a_reader_that_closes_the_pipe_ends_the_command_quietly_with_141(fmt):
    argv = ["orbits", "--n", "14", "--format", fmt]
    assert len(run_cli(argv)[1]) > 2**17  # more than a pipe buffer holds
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, "-m", "springerq", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"partition" if fmt == "tsv" else b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def _run_with_stdout(argv, redirect):
    """Run springerq as a subprocess through sh with stdout redirected by
    redirect, such as ">&-"; returns (exit code, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(["sh", "-c", f'"$0" -m springerq "$@" {redirect}', sys.executable, *argv],
                          env=env, stderr=subprocess.PIPE, text=True, timeout=60)
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["stalks", "--n", "2", "--format", "json"], ["orbits", "--n", "2"],
                                  ["orbits", "--n", "14", "--format", "tsv"], ["--help"],
                                  ["stalks", "--help"]], ids=" ".join)
def test_a_full_disk_ends_the_command_with_one_line_and_74(argv):
    code, err = _run_with_stdout(argv, "> /dev/full")
    assert (code, err) == (74, f"springerq: error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("argv", [["orbits", "--n", "2"], ["verify", "--n-max", "2", "--format", "json"],
                                  ["--help"], ["stalks", "--help"]], ids=" ".join)
def test_a_closed_stdout_ends_the_command_with_one_line_and_74(argv):
    code, err = _run_with_stdout(argv, ">&-")
    assert (code, err) == (74, f"springerq: error: cannot write output: {os.strerror(errno.EBADF)}\n")


# -- fuzz of main(argv) ----------------------------------------------------------
# ints every command serves quickly, and ints every command refuses at once
FUZZ_INTS = st.one_of(st.integers(1, 5).map(str),
                      st.sampled_from(["0", "-1", str(10**6), str(10**30), "9" * 5000, "abc"]))
FUZZ_PARTITIONS = st.sampled_from(["", "2,1", "1,2", "0", "x", "100000", "1,1,1", "3", "2,,1",
                                   "-1", "9" * 5000])
FUZZ_FORMATS = st.sampled_from(["pretty", "json", "tsv", "xml"])
FUZZ_FLAGS = {
    "orbits": [("--n", FUZZ_INTS)],
    "stalks": [("--n", FUZZ_INTS), ("--check", st.just(None))],
    "fano": [("--n", FUZZ_INTS), ("--i", FUZZ_INTS)],
    "kostka": [("--shape", FUZZ_PARTITIONS), ("--weight", FUZZ_PARTITIONS)],
    "euler": [("--n", FUZZ_INTS)],
    "ft-table": [("--n", FUZZ_INTS)],
    "verify": [("--n-max", FUZZ_INTS)],
}


@st.composite
def fuzz_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    for flag, values in FUZZ_FLAGS[command] + [("--format", FUZZ_FORMATS)]:
        if draw(st.integers(0, 4)):  # a flag is left out only when 0 is drawn
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(fuzz_argvs())
def test_main_returns_0_or_1_or_exits_2_on_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 1), argv
    assert "Traceback" not in err.getvalue(), argv
