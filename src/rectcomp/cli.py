"""Command-line front end.

Subcommands expose the library and emit machine-readable output:

* ``triangle``  -- rows of an (l+1)-nomial triangle
* ``count``     -- one exact composition count, optionally oracle-verified
* ``dist``      -- pmf_X / pmf_S / normal cell masses over the union support
* ``table1``    -- the embedded reference grid of max |pmf_X - pmf_S|
* ``normality`` -- KS distance to the matching normal along an m-list
* ``sample``    -- reproducible uniform composition samples

Exit codes are part of the interface: 0 ok, 1 reference-check failure,
2 usage error (also a bad RECTCOMP_ENUM_GUARD, a bad ``count`` bound or
support, and an output that cannot be opened or written), 3 enumeration
guard exceeded; a closed stdout (``| head``) exits 0.
Exact counts print as full decimal strings; csv/json floats print as
shortest round-trip strings, and the table format rounds to the
requested significant digits.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .compositions import (
    DEFAULT_ENUM_GUARD,
    EnumerationGuardError,
    PartBounds,
    count,
    count_support,
    enumerate_compositions,
)
from .distributions import (
    NormalRef,
    RectSpec,
    error_decomposition,
    iter_sample,
    normal_distance,
    pmf_pair,
)
from .polycoeff import iter_raw_rows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

GUARD_ENV_VAR = "RECTCOMP_ENUM_GUARD"

#: Widest part range whose values ``sample`` turns into text up front.
_PART_TEXT_CAP = 4096

# ---------------------------------------------------------------------------
# Reference grid for the table1 command.
#
# Expected cells as originally printed: values truncated (not rounded) to
# the shown precision.  The generating convention for a column labelled
# m uses a parts budget of m - 1; table1 reproduces that convention and
# reports the budget in its output.  One factor cell (l=64, m=10) is
# printed as 3.82 in the source data but is inconsistent with its own
# neighbouring cells (0.00014871 / 0.000038399 = 3.8727); the corrected
# 3.87 is embedded here.

TABLE1_L_VALUES = (1, 2, 4, 8, 16, 32, 64)
TABLE1_M_LABELS = (10, 20)

TABLE1_EXPECTED_CELLS = {
    (1, 10): "0.0471", (2, 10): "0.0191", (4, 10): "0.0064",
    (8, 10): "0.0019", (16, 10): "5.5909e-4", (32, 10): "1.4871e-4",
    (64, 10): "3.8399e-5",
    (1, 20): "0.0240", (2, 20): "0.0093", (4, 20): "0.0031",
    (8, 20): "9.5016e-4", (16, 20): "2.6494e-4", (32, 20): "7.0291e-5",
    (64, 20): "1.8126e-5",
}

TABLE1_EXPECTED_FACTORS = {
    (2, 10): 2.46, (4, 10): 2.94, (8, 10): 3.25, (16, 10): 3.56,
    (32, 10): 3.75, (64, 10): 3.87,
    (2, 20): 2.57, (4, 20): 2.96, (8, 20): 3.30, (16, 20): 3.58,
    (32, 20): 3.76, (64, 20): 3.87,
}

CELL_ABS_TOL = 5e-5       # 4-decimal cells
CELL_REL_TOL = 1e-3       # scientific-notation cells
FACTOR_TOL = 0.02


@dataclass(frozen=True)
class Table1Row:
    l: int
    m_label: int
    parts_budget: int
    max_abs_diff: float
    factor: float | None


def compute_table1() -> list[Table1Row]:
    """Recompute every reference cell plus decay factors between l values."""
    rows = []
    for m_label in TABLE1_M_LABELS:
        prev = None
        for l in TABLE1_L_VALUES:
            budget = m_label - 1
            value = error_decomposition(RectSpec(0, l, budget)).max_abs_diff
            factor = None if prev is None else prev / value
            rows.append(Table1Row(l, m_label, budget, value, factor))
            prev = value
    return rows


def _truncate(value: float, decimals: int) -> float:
    scale = 10 ** decimals
    return math.floor(value * scale) / scale


def _cell_matches(computed: float, printed: str) -> bool:
    expected = float(printed)
    if "e" in printed:
        return abs(computed - expected) <= CELL_REL_TOL * expected
    decimals = len(printed.split(".")[1])
    if abs(computed - expected) <= CELL_ABS_TOL:
        return True
    # The reference cells were truncated to the printed precision, which
    # can sit up to one unit in the last place below the true value.
    return _truncate(computed, decimals) == expected


def check_table1(rows: Sequence[Table1Row]) -> list[str]:
    """Return one human-readable failure line per mismatching cell."""
    failures = []
    for row in rows:
        printed = TABLE1_EXPECTED_CELLS[(row.l, row.m_label)]
        if not _cell_matches(row.max_abs_diff, printed):
            failures.append(
                f"cell l={row.l} m={row.m_label}: computed "
                f"{row.max_abs_diff!r}, expected {printed}"
            )
        expected_factor = TABLE1_EXPECTED_FACTORS.get((row.l, row.m_label))
        if expected_factor is not None:
            if row.factor is None or abs(row.factor - expected_factor) > FACTOR_TOL:
                failures.append(
                    f"factor l={row.l} m={row.m_label}: computed "
                    f"{row.factor!r}, expected {expected_factor}"
                )
    return failures


# ---------------------------------------------------------------------------
# Output handling


def _add_output_args(parser: argparse.ArgumentParser, default_fmt: str = "csv") -> None:
    parser.add_argument("--format", choices=("csv", "json", "table"),
                        default=default_fmt, help="output format")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write to PATH instead of standard output")
    parser.add_argument("--float-digits", type=int, default=6,
                        help="significant digits for floats in table format (4-17)")


def _stdout_to_devnull() -> None:
    # Whatever stdout still buffers then goes nowhere, so the
    # interpreter's final flush neither fails nor prints a warning.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write(args: argparse.Namespace, header: Sequence[str] | None,
           rows: Iterable[Sequence]) -> int:
    """Write ``rows`` under ``header`` to ``--output`` or standard output.

    csv writes each row as soon as the iterable yields it; json and
    table first collect every row (table needs the column widths).
    Ints and strings print untouched (exact counts stay full decimal
    strings) and ``None`` prints as an empty cell; floats print as
    shortest round-trip strings in csv/json and at ``--float-digits``
    significant digits in table format.  A ``None`` header writes no
    header line (csv and table only).  Returns the exit status: a
    destination that cannot be opened or written is a usage error.
    """
    try:
        with (contextlib.nullcontext(sys.stdout) if args.output is None
              else open(args.output, "w", encoding="utf-8", newline="")) as stream:
            if args.format == "csv":
                if header:
                    stream.write(",".join(header) + "\n")
                for row in rows:
                    stream.write(",".join(["" if v is None else str(v) for v in row]) + "\n")
            elif args.format == "json":
                json.dump([dict(zip(header, row)) for row in rows], stream, indent=2)
                stream.write("\n")
            else:
                digits = args.float_digits
                lines = [header] if header else []
                lines += [["" if v is None else f"{v:.{digits}g}" if isinstance(v, float)
                           else str(v) for v in row] for row in rows]
                widths = [max(map(len, column)) for column in zip(*lines)]
                for line in lines:
                    stream.write("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                                 + "\n")
            stream.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        destination = "standard output" if args.output is None else args.output
        print(f"rectcomp: error: cannot write {destination}: {exc.strerror}",
              file=sys.stderr)
        if args.output is None:
            _stdout_to_devnull()
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_triangle(args, parser) -> int:
    if args.l < 0 or args.rows < 0:
        parser.error("--l and --rows must be >= 0")
    return _write(args, ("k", "n", "coeff"),
                  ((k, n, str(coeff))
                   for k, row in enumerate(iter_raw_rows(args.l, args.rows))
                   for n, coeff in enumerate(row)))


def _parse_int_list(raw: str, flag: str, parser) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        parser.error(f"{flag} must be a comma-separated integer list, got {raw!r}")
    if not values:
        parser.error(f"{flag} must be non-empty")
    return values


def _cmd_count(args, parser) -> int:
    if args.n < 0 or args.k < 0:
        parser.error("--n and --k must be >= 0")
    if (args.support is None) == (args.b is None):
        parser.error("provide either --a/--b or --support")

    try:
        if args.support is not None:
            support = _parse_int_list(args.support, "--support", parser)
            result = count_support(args.n, args.k, support)
            enum_kwargs = {"support": support}
        else:
            bounds = PartBounds(args.a, None if args.b == "inf" else int(args.b))
            result = count(args.n, args.k, bounds)
            enum_kwargs = {"bounds": bounds}
    except ValueError as exc:
        parser.error(str(exc))

    if args.verify:
        raw = os.environ.get(GUARD_ENV_VAR, str(DEFAULT_ENUM_GUARD))
        try:
            guard = int(raw)
        except ValueError:
            guard = 0
        if guard < 1:
            parser.error(f"{GUARD_ENV_VAR} must be a positive integer, got {raw!r}")
        try:
            listed = sum(1 for _ in enumerate_compositions(
                args.n, args.k, guard=guard, **enum_kwargs))
        except EnumerationGuardError as exc:
            print(f"verify: {exc}", file=sys.stderr)
            return EXIT_GUARD
        if listed != result:
            print(f"verify: enumeration found {listed}, formula says {result}",
                  file=sys.stderr)
            return EXIT_CHECK_FAILED

    if args.format == "json":
        return _write(args, ("n", "k", "count"), [(args.n, args.k, str(result))])
    return _write(args, None, [(result,)])


def _cmd_dist(args, parser) -> int:
    try:
        spec = RectSpec(args.a, args.b, args.m)
    except ValueError as exc:
        parser.error(str(exc))
    if spec.a == spec.b:
        parser.error("normal column undefined for a = b (zero variance)")

    px, ps = pmf_pair(spec)
    normal = NormalRef.for_spec(spec)
    return _write(args, ("n", "pmf_x", "pmf_s", "normal"),
                  [(n, px.float_prob(n), ps.float_prob(n), normal.cell_mass(n))
                   for n in range(px.offset, spec.m * spec.b + 1)])


def _cmd_table1(args, parser) -> int:
    rows = compute_table1()
    if args.format == "table":
        by_label = {(r.l, r.m_label): r for r in rows}
        table_rows = []
        for l in TABLE1_L_VALUES:
            r10 = by_label[(l, 10)]
            r20 = by_label[(l, 20)]
            table_rows.append((
                l, r10.max_abs_diff,
                None if r10.factor is None else f"{r10.factor:.2f}",
                r20.max_abs_diff,
                None if r20.factor is None else f"{r20.factor:.2f}",
            ))
        status = _write(args, ("l", "m=10", "factor", "m=20", "factor"), table_rows)
    else:
        status = _write(args, ("l", "m", "parts_budget", "max_abs_diff", "factor"),
                        [(r.l, r.m_label, r.parts_budget, r.max_abs_diff, r.factor)
                         for r in rows])

    if args.check:
        failures = check_table1(rows)
        if failures:
            for line in failures:
                print(f"check: FAIL {line}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print("check: all reference cells and factors match", file=sys.stderr)
    return status


def _cmd_normality(args, parser) -> int:
    m_values = _parse_int_list(args.m, "--m", parser)
    if args.b <= args.a:
        parser.error("normality needs b > a (nonzero variance)")

    reports = []
    for m in m_values:
        try:
            reports.append((m, normal_distance(RectSpec(args.a, args.b, m))))
        except ValueError as exc:
            parser.error(str(exc))

    status = _write(args, ("m", "ks", "max_pmf_diff", "peak"),
                    [(m, rep.ks, rep.max_pmf_diff, rep.pmf_argmax) for m, rep in reports])
    if args.assert_decreasing:
        ks_values = [rep.ks for _, rep in reports]
        if any(b >= a for a, b in zip(ks_values, ks_values[1:])):
            print("assert-decreasing: KS distances are not strictly decreasing",
                  file=sys.stderr)
            return EXIT_CHECK_FAILED
    return status


def _cmd_sample(args, parser) -> int:
    if args.count < 1:
        parser.error("--count must be >= 1")
    try:
        spec = RectSpec(args.a, args.b, args.m)
    except ValueError as exc:
        parser.error(str(exc))
    draws = iter_sample(spec, args.count, args.seed)
    # Parts repeat, so each value is turned into text once per run (up to
    # a range of _PART_TEXT_CAP values; wider ranges convert every part).
    text = (str if spec.width >= _PART_TEXT_CAP
            else {v: str(v) for v in range(spec.a, spec.b + 1)}.__getitem__)
    return _write(args, ("index", "sum", "parts"),
                  ((i, sum(parts), " ".join(map(text, parts)))
                   for i, parts in enumerate(draws)))


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectcomp",
        description="Exact composition counting and rectangle-composition distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="emit rows 0..K of an (l+1)-nomial triangle")
    p.add_argument("--l", type=int, required=True, help="part-range width (row arity l+1)")
    p.add_argument("--rows", type=int, required=True, help="last row index K")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("count", help="count compositions of n into k parts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, default=0, help="lower part bound")
    p.add_argument("--b", default=None, help="upper part bound, integer or 'inf'")
    p.add_argument("--support", default=None,
                   help="comma-separated part support set (alternative to --a/--b)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the enumeration oracle")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("dist", help="pmf of X and S plus normal cell masses")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("table1", help="recompute the embedded reference grid")
    p.add_argument("--check", action="store_true",
                   help="compare against embedded expected values; exit 1 on mismatch")
    _add_output_args(p, default_fmt="table")
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("normality", help="KS distance to the matching normal law")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--m", required=True, help="comma-separated list of part budgets")
    p.add_argument("--assert-decreasing", action="store_true",
                   help="exit 1 unless KS strictly decreases along the m list")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_normality)

    p = sub.add_parser("sample", help="reproducible uniform composition samples")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p)
    p.set_defaults(handler=_cmd_sample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 4 <= args.float_digits <= 17:
        parser.error(f"--float-digits must be in [4, 17], got {args.float_digits}")
    # Exact counts print in full: no int-to-str digit limit while running.
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # Python 3.11+
    if set_limit is not None:
        limit = sys.get_int_max_str_digits()
        set_limit(0)
    try:
        return args.handler(args, parser)
    except BrokenPipeError:
        # The reader closed stdout early (`| head`), which is not an error.
        _stdout_to_devnull()
        return EXIT_OK
    finally:
        if set_limit is not None:
            set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
