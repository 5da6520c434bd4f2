"""Command-line interface: output formats, golden values, exit codes."""
from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rectcomp
from rectcomp import NormalRef, RectSpec, distributions, polycoeff
from rectcomp.cli import (
    EXIT_CHECK_FAILED,
    EXIT_GUARD,
    EXIT_OK,
    GUARD_ENV_VAR,
    TABLE1_EXPECTED_CELLS,
    TABLE1_EXPECTED_FACTORS,
    Table1Row,
    _write,
    check_table1,
    compute_table1,
    main,
)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        status = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# --- triangle ---------------------------------------------------------------


def test_triangle_trinomial_golden(capsys):
    status, out, _ = run_cli(capsys, "triangle", "--l", "2", "--rows", "3")
    assert status == EXIT_OK
    rows = parse_csv(out)
    last = [r["coeff"] for r in rows if r["k"] == "3"]
    assert last == ["1", "3", "6", "7", "6", "3", "1"]


def test_triangle_monomial(capsys):
    status, out, _ = run_cli(capsys, "triangle", "--l", "0", "--rows", "3")
    assert status == EXIT_OK
    rows = parse_csv(out)
    assert [(r["k"], r["n"], r["coeff"]) for r in rows] == [
        ("0", "0", "1"), ("1", "0", "1"), ("2", "0", "1"), ("3", "0", "1")]


def test_triangle_quadrinomial_row_end(capsys):
    status, out, _ = run_cli(capsys, "triangle", "--l", "3", "--rows", "3")
    assert status == EXIT_OK
    rows = [r["coeff"] for r in parse_csv(out) if r["k"] == "3"]
    assert rows[-3:] == ["6", "3", "1"]


def test_triangle_rejects_negative(capsys):
    status, _, _ = run_cli(capsys, "triangle", "--l", "-1", "--rows", "3")
    assert status == 2


# --- count ------------------------------------------------------------------


def test_count_unbounded(capsys):
    status, out, _ = run_cli(capsys, "count", "--n", "5", "--k", "2",
                             "--a", "0", "--b", "inf")
    assert status == EXIT_OK
    assert out.strip() == "6"


def test_count_finite_bounds(capsys):
    status, out, _ = run_cli(capsys, "count", "--n", "4", "--k", "3",
                             "--a", "0", "--b", "2")
    assert status == EXIT_OK
    assert out.strip() == "6"


def test_count_support(capsys):
    status, out, _ = run_cli(capsys, "count", "--n", "5", "--k", "2",
                             "--support", "1,2,3")
    assert status == EXIT_OK
    assert out.strip() == "2"


def test_count_large_prints_decimal_string(capsys):
    status, out, _ = run_cli(capsys, "count", "--n", "600", "--k", "30",
                             "--a", "0", "--b", "40")
    assert status == EXIT_OK
    text = out.strip()
    assert text.isdigit() and len(text) > 20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_prints_past_the_int_digit_limit(capsys, fmt):
    # Python 3.11+ refuses str() of an int above 4300 digits by default;
    # this count has 5431.
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = get_limit()
    status, out, err = run_cli(capsys, "count", "--n", "20000", "--k", "5000",
                               "--b", "inf", "--format", fmt)
    assert status == EXIT_OK, err
    assert get_limit() == limit  # main restores the caller's limit
    set_limit(0)
    try:
        expected = str(math.comb(24999, 4999))
    finally:
        set_limit(limit)
    text = out.strip() if fmt == "csv" else json.loads(out)[0]["count"]
    assert text == expected


def test_count_verify_agreement(capsys):
    status, out, _ = run_cli(capsys, "count", "--n", "6", "--k", "3",
                             "--support", "1,2,3", "--verify")
    assert status == EXIT_OK
    assert out.strip() == "7"


def test_count_verify_guard_exit(capsys, monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "10")
    status, _, err = run_cli(capsys, "count", "--n", "5", "--k", "2",
                             "--a", "0", "--b", "4", "--verify")
    assert status == EXIT_GUARD
    assert "guard" in err


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_count_bad_guard_is_usage_error_only_under_verify(capsys, monkeypatch, raw):
    monkeypatch.setenv(GUARD_ENV_VAR, raw)
    args = ("count", "--n", "5", "--k", "2", "--a", "0", "--b", "3")
    status, out, _ = run_cli(capsys, *args)
    assert status == EXIT_OK
    assert out.strip() == "2"
    status, _, err = run_cli(capsys, *args, "--verify")
    assert status == 2
    assert GUARD_ENV_VAR in err


def test_count_requires_bounds_or_support(capsys):
    status, _, _ = run_cli(capsys, "count", "--n", "5", "--k", "2")
    assert status == 2
    status, _, _ = run_cli(capsys, "count", "--n", "5", "--k", "2",
                           "--b", "3", "--support", "1,2")
    assert status == 2


@pytest.mark.parametrize("bounds", [("--a", "-1", "--b", "inf"), ("--support=-1,2",)])
def test_count_bad_bound_or_support_is_usage_error(capsys, bounds):
    status, out, err = run_cli(capsys, "count", "--n", "3", "--k", "2", *bounds)
    assert status == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("rectcomp: error: ")


def test_count_json_format(capsys):
    status, out, _ = run_cli(capsys, "count", "--n", "5", "--k", "2",
                             "--a", "0", "--b", "inf", "--format", "json")
    assert status == EXIT_OK
    payload = json.loads(out)
    assert payload == [{"n": 5, "k": 2, "count": "6"}]


# --- dist -------------------------------------------------------------------


def test_dist_sums_to_one(capsys):
    for a, b, m in ((0, 2, 5), (2, 5, 4)):
        status, out, _ = run_cli(capsys, "dist", "--a", str(a), "--b", str(b),
                                 "--m", str(m))
        assert status == EXIT_OK
        rows = parse_csv(out)
        assert math.fsum(float(r["pmf_x"]) for r in rows) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(float(r["pmf_s"]) for r in rows) == pytest.approx(1.0, abs=1e-12)
        normal = NormalRef.for_spec(RectSpec(a, b, m))
        for r in rows:
            n = int(r["n"])
            assert r["normal"] == repr(normal.cell_mass(n))
            if n < m * a:
                assert float(r["pmf_s"]) == 0.0


def test_dist_walks_the_kernel_once(capsys, monkeypatch):
    steps = 0
    next_row = polycoeff._next_row

    def counting(prev, l):
        nonlocal steps
        steps += 1
        return next_row(prev, l)

    monkeypatch.setattr(polycoeff, "_next_row", counting)
    monkeypatch.setattr(distributions, "_next_row", counting)
    m = 12
    status, _, _ = run_cli(capsys, "dist", "--a", "2", "--b", "7", "--m", str(m))
    assert status == EXIT_OK
    assert 0 < steps <= m


def test_dist_peak_location(capsys):
    status, out, _ = run_cli(capsys, "dist", "--a", "0", "--b", "6", "--m", "20")
    assert status == EXIT_OK
    rows = parse_csv(out)
    peak = max(rows, key=lambda r: float(r["pmf_x"]))
    assert int(peak["n"]) in (59, 60, 61)


def test_dist_max_gap_matches_library(capsys):
    status, out, _ = run_cli(capsys, "dist", "--a", "0", "--b", "4", "--m", "10")
    assert status == EXIT_OK
    rows = parse_csv(out)
    gap = max(abs(float(r["pmf_x"]) - float(r["pmf_s"])) for r in rows)
    assert gap == pytest.approx(0.005885526330738927, rel=1e-12)


def test_dist_rejects_zero_variance(capsys):
    status, _, _ = run_cli(capsys, "dist", "--a", "1", "--b", "1", "--m", "5")
    assert status == 2


def test_dist_floats_round_trip(capsys):
    _, out, _ = run_cli(capsys, "dist", "--a", "0", "--b", "3", "--m", "4")
    for row in parse_csv(out):
        for key in ("pmf_x", "pmf_s", "normal"):
            value = float(row[key])
            assert repr(value) == row[key]


# --- table1 -----------------------------------------------------------------


def test_table1_check_passes(capsys):
    status, _, err = run_cli(capsys, "table1", "--check")
    assert status == EXIT_OK
    assert "all reference cells and factors match" in err


def test_table1_csv_layout(capsys):
    status, out, _ = run_cli(capsys, "table1", "--format", "csv")
    assert status == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 14
    first = rows[0]
    assert first["l"] == "1" and first["m"] == "10" and first["parts_budget"] == "9"
    assert first["factor"] == ""
    by_key = {(int(r["l"]), int(r["m"])): r for r in rows}
    assert float(by_key[(16, 20)]["max_abs_diff"]) == pytest.approx(2.6494e-4, rel=1e-3)
    assert float(by_key[(8, 10)]["factor"]) == pytest.approx(3.25, abs=0.02)


def test_table1_check_detects_mismatch():
    rows = compute_table1()
    bad = [Table1Row(r.l, r.m_label, r.parts_budget,
                     r.max_abs_diff * 1.5, r.factor) for r in rows]
    failures = check_table1(bad)
    assert failures
    assert any("cell l=1 m=10" in line for line in failures)


def test_table1_expected_data_is_complete():
    assert len(TABLE1_EXPECTED_CELLS) == 14
    assert len(TABLE1_EXPECTED_FACTORS) == 12


# --- normality --------------------------------------------------------------


def test_normality_decreasing_ok(capsys):
    status, out, _ = run_cli(capsys, "normality", "--a", "0", "--b", "4",
                             "--m", "10,20,40", "--assert-decreasing")
    assert status == EXIT_OK
    rows = parse_csv(out)
    assert [r["m"] for r in rows] == ["10", "20", "40"]
    ks = [float(r["ks"]) for r in rows]
    assert ks[0] > ks[1] > ks[2]


def test_normality_increasing_list_fails(capsys):
    status, _, err = run_cli(capsys, "normality", "--a", "0", "--b", "4",
                             "--m", "40,10", "--assert-decreasing")
    assert status == EXIT_CHECK_FAILED
    assert "not strictly decreasing" in err


def test_normality_rejects_degenerate(capsys):
    status, _, _ = run_cli(capsys, "normality", "--a", "1", "--b", "1", "--m", "10")
    assert status == 2


def test_normality_anchor_value(capsys):
    status, out, _ = run_cli(capsys, "normality", "--a", "0", "--b", "6", "--m", "20")
    assert status == EXIT_OK
    row = parse_csv(out)[0]
    assert float(row["ks"]) == pytest.approx(0.02280860643732452, abs=1e-12)
    assert row["peak"] == "60"


# --- sample -----------------------------------------------------------------


def test_sample_byte_identical_per_seed(capsys):
    args = ("sample", "--a", "0", "--b", "2", "--m", "5",
            "--count", "200", "--seed", "31")
    status1, out1, _ = run_cli(capsys, *args)
    status2, out2, _ = run_cli(capsys, *args)
    assert status1 == status2 == EXIT_OK
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *args[:-1], "32")
    assert out3 != out1


def test_sample_degenerate_parts(capsys):
    status, out, _ = run_cli(capsys, "sample", "--a", "3", "--b", "3",
                             "--m", "2", "--count", "50", "--seed", "0")
    assert status == EXIT_OK
    for row in parse_csv(out):
        assert row["parts"] in ("3", "3 3")
        assert int(row["sum"]) == sum(int(p) for p in row["parts"].split())


def test_sample_sum_column_consistent(capsys):
    status, out, _ = run_cli(capsys, "sample", "--a", "1", "--b", "4",
                             "--m", "3", "--count", "100", "--seed", "9")
    assert status == EXIT_OK
    rows = parse_csv(out)
    assert [int(r["index"]) for r in rows] == list(range(100))
    for row in rows:
        parts = [int(p) for p in row["parts"].split()]
        assert sum(parts) == int(row["sum"])
        assert all(1 <= p <= 4 for p in parts)


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_sample_output_matches_listed_draws(capsys, fmt):
    # CLI sample feeds the writer a lazy row iterable; its bytes must equal
    # the writer's output for the same draws given as a list.
    draws = rectcomp.sample(RectSpec(1, 4, 3), 40, seed=5)
    rows = [(i, sum(parts), " ".join(map(str, parts))) for i, parts in enumerate(draws)]
    options = argparse.Namespace(format=fmt, output=None, float_digits=6)
    assert _write(options, ("index", "sum", "parts"), rows) == EXIT_OK
    expected = capsys.readouterr().out
    _, out, _ = run_cli(capsys, "sample", "--a", "1", "--b", "4", "--m", "3",
                        "--count", "40", "--seed", "5", "--format", fmt)
    assert out == expected


def test_sample_csv_streams_rows_as_drawn(monkeypatch):
    stream = io.StringIO()
    written_before_second_draw = []

    def fake_iter_sample(spec, count, seed):
        yield (1, 2)
        written_before_second_draw.append(stream.getvalue())
        yield (3,)

    monkeypatch.setattr("rectcomp.cli.iter_sample", fake_iter_sample)
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["sample", "--a", "1", "--b", "3", "--m", "2", "--count", "2"]) == EXIT_OK
    assert written_before_second_draw == ["index,sum,parts\n0,3,1 2\n"]
    assert stream.getvalue() == "index,sum,parts\n0,3,1 2\n1,3,3\n"


# sha256 of the csv bytes of `sample` for (a, b, m, count, seed).  The
# draw stream behind a seed is part of the interface: these pin it.  The
# first three are the benchmark's rectangles; (2, 2, 1) has a single
# composition, and (0, 64, 40) draws ranks of 241 bits (six words each).
SAMPLE_STREAM_SHA256 = {
    (0, 2, 5, 600, 1): "ef2685661b1c66ded51c10f076c149a0a3cb97e0c73186a4c0a035112aa5a1e9",
    (3, 9, 12, 300, 2): "972f6a3a27ee2a9c6bf89821c4cf43847ca5c3a75ecdcdfea14c9e8ba6be889b",
    (0, 64, 20, 200, 3): "9d999ec99478791633c56d0d5f6320dae60692fefc7b27bf5d3794845b3fa8f6",
    (2, 2, 1, 50, 4): "d85bb3400476570065f2636579b1bfbb885cba5efe42f708e9dec439f08c2329",
    (0, 64, 40, 200, 5): "af733e02b725dd14dd1d93e5e3e5e36c25fd5283fcbc3e958cac782cdbc2282b",
}


@pytest.mark.parametrize("params", sorted(SAMPLE_STREAM_SHA256))
def test_sample_stream_is_pinned(tmp_path, capsys, params):
    target = tmp_path / "sample.csv"
    argv = [str(v) for pair in zip(("--a", "--b", "--m", "--count", "--seed"), params)
            for v in pair]
    status, _, _ = run_cli(capsys, "sample", *argv, "--output", str(target))
    assert status == EXIT_OK
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SAMPLE_STREAM_SHA256[params]


def test_sample_rejects_bad_count(capsys):
    status, _, _ = run_cli(capsys, "sample", "--a", "0", "--b", "2",
                           "--m", "5", "--count", "0")
    assert status == 2


# --- output plumbing --------------------------------------------------------


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    status, out, _ = run_cli(capsys, "triangle", "--l", "1", "--rows", "2",
                             "--output", str(target))
    assert status == EXIT_OK
    assert out == ""
    content = target.read_text(encoding="utf-8")
    assert content.startswith("k,n,coeff\n")
    assert "\r" not in content


def test_output_unwritable_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    status, out, err = run_cli(capsys, "triangle", "--l", "2", "--rows", "3",
                               "--output", str(target))
    assert status == 2
    assert out == ""
    assert err.startswith(f"rectcomp: error: cannot write {target}: ")
    assert "Traceback" not in err


def test_closed_stdout_exits_quietly():
    src = str(Path(rectcomp.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "rectcomp.cli", "sample", "--b", "2", "--m", "5",
         "--count", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"index,sum,parts\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full")
NO_SPACE = os.strerror(errno.ENOSPC)


@needs_dev_full
@pytest.mark.parametrize("count", ["5", "20000"])  # fails at the final flush / mid-stream
def test_output_write_failure_is_usage_error(capsys, count):
    status, out, err = run_cli(capsys, "sample", "--b", "2", "--m", "5",
                               "--count", count, "--output", "/dev/full")
    assert status == 2
    assert out == ""
    assert err == f"rectcomp: error: cannot write /dev/full: {NO_SPACE}\n"


@needs_dev_full
@pytest.mark.parametrize("count", ["5", "20000"])  # fails at the final flush / mid-stream
def test_stdout_write_failure_is_usage_error(count):
    src = str(Path(rectcomp.__file__).resolve().parent.parent)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "rectcomp.cli", "sample", "--b", "2", "--m", "5",
             "--count", count],
            stdout=full, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        f"rectcomp: error: cannot write standard output: {NO_SPACE}\n")


OUTPUT_CASES = {
    "triangle": ("--l", "2", "--rows", "4"),
    "count": ("--n", "5", "--k", "3", "--b", "3"),
    "dist": ("--a", "1", "--b", "3", "--m", "4"),
    "table1": (),
    "normality": ("--b", "4", "--m", "5,10"),
    "sample": ("--b", "3", "--m", "4", "--count", "30", "--seed", "7"),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
@pytest.mark.parametrize("command", sorted(OUTPUT_CASES))
def test_output_file_matches_stdout(tmp_path, capsys, command, fmt):
    argv = (command, *OUTPUT_CASES[command], "--format", fmt)
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_OK
    target = tmp_path / "out"
    status, file_out, _ = run_cli(capsys, *argv, "--output", str(target))
    assert status == EXIT_OK
    assert file_out == ""
    assert target.read_bytes() == out.encode("utf-8")


def _flag(name, values):
    return values.map(lambda value: (f"{name}={value}",))


def _maybe(name, values):
    return st.one_of(st.just(()), _flag(name, values))


def _switch(name):
    return st.sampled_from([(), (name,)])


_small = st.integers(-2, 8).map(str)
_int_list = st.lists(st.integers(-2, 8), max_size=3).map(lambda xs: ",".join(map(str, xs)))
_FUZZ_ARGS = {
    "triangle": [_flag("--l", _small), _flag("--rows", _small)],
    "count": [_flag("--n", _small), _flag("--k", _small), _maybe("--a", _small),
              _maybe("--b", st.one_of(_small, st.sampled_from(["inf", "x"]))),
              _maybe("--support", _int_list), _switch("--verify")],
    "dist": [_maybe("--a", _small), _flag("--b", _small), _flag("--m", _small)],
    "table1": [_switch("--check")],
    "normality": [_maybe("--a", _small), _flag("--b", _small), _flag("--m", _int_list),
                  _switch("--assert-decreasing")],
    "sample": [_maybe("--a", _small), _flag("--b", _small), _flag("--m", _small),
               _flag("--count", _small), _maybe("--seed", _small)],
}
_FUZZ_ARGV = st.sampled_from(sorted(_FUZZ_ARGS)).flatmap(
    lambda command: st.tuples(
        st.just((command,)), *_FUZZ_ARGS[command],
        _maybe("--format", st.sampled_from(["csv", "json", "table"])),
        _maybe("--float-digits", st.sampled_from(["3", "4", "17", "18"])),
        st.booleans()))


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=_FUZZ_ARGV)
def test_main_exit_codes_fuzz(tmp_path, parts):
    *groups, to_file = parts
    argv = [token for group in groups for token in group]
    if to_file:
        argv.append(f"--output={tmp_path / 'out'}")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert status in (0, 1, 2, 3), argv


def test_float_digits_validation(capsys):
    status, _, _ = run_cli(capsys, "dist", "--a", "0", "--b", "2", "--m", "3",
                           "--float-digits", "3")
    assert status == 2
    status, _, _ = run_cli(capsys, "dist", "--a", "0", "--b", "2", "--m", "3",
                           "--float-digits", "18")
    assert status == 2


def test_table_format_uses_float_digits(capsys):
    status, out, _ = run_cli(capsys, "dist", "--a", "0", "--b", "2", "--m", "3",
                             "--format", "table", "--float-digits", "4")
    assert status == EXIT_OK
    header, first = out.splitlines()[:2]
    assert header.split()[:2] == ["n", "pmf_x"]
    # values rendered at 4 significant digits
    assert first.split()[1] == "0.07692"


def test_json_format_dist(capsys):
    status, out, _ = run_cli(capsys, "dist", "--a", "0", "--b", "2", "--m", "3",
                             "--format", "json")
    assert status == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 7
    assert payload[0]["n"] == 0
    assert payload[0]["pmf_x"] == pytest.approx(3 / 39)
