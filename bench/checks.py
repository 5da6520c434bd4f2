"""Output checks that do not depend on how rectcomp computes its answers.

Every exact value is rebuilt from closed forms: Comtet's alternating sum
for a single (l+1)-nomial coefficient, geometric totals for whole rows
and pmfs, and stars and bars for unbounded parts.  Floats are compared
with the correctly rounded quotient of the exact integers, since the
library promises exact answers rounded once at the output boundary.
A failed check raises :class:`CheckFailed`.
"""
from __future__ import annotations

import filecmp
import math
from fractions import Fraction


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def comtet(l: int, k: int, n: int) -> int:
    """Coefficient of x**n in (1 + x + ... + x**l)**k.

    Comtet, *Advanced Combinatorics* (1974):
    sum over j of (-1)**j C(k, j) C(n - j(l+1) + k - 1, k - 1).
    """
    if n < 0 or n > k * l:
        return 0
    if k == 0:
        return 1
    n = min(n, k * l - n)
    r = l + 1
    total = 0
    for j in range(min(k, n // r) + 1):
        term = math.comb(k, j) * math.comb(n - j * r + k - 1, k - 1)
        total += -term if j & 1 else term
    return total


def rows_sum_at(l: int, m: int, n: int) -> int:
    """Sum of coefficient n over rows 1..m of the (l+1)-nomial triangle."""
    return sum(comtet(l, j, n) for j in range(1, m + 1))


def geometric_total(r: int, m: int) -> int:
    """r + r**2 + ... + r**m: compositions with 1..m parts of r values each."""
    return m if r == 1 else (r ** (m + 1) - r) // (r - 1)


def close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y))


def _stirling_log_estimate(l: int, m: int) -> float:
    r = l + 1
    return (math.log(r ** m - 1) + math.log(r) - math.log(l)
            - 0.5 * math.log(2 * math.pi * m * (r * r - 1) / 12))


def _central_log_estimate(l: int, k: int) -> float:
    r = l + 1
    return k * math.log(r) - 0.5 * math.log(2 * math.pi * k * (r * r - 1) / 12)


# ---------------------------------------------------------------------------
# Library results


def check_poly_coeff(params, probe, value) -> None:
    l, k, n = params
    expect(value == comtet(l, k, n), f"poly_coeff{params} = {value}")


def check_central_coeff(params, probe, value) -> None:
    l, k = params
    expect(value == comtet(l, k, k * l // 2), f"central_coeff{params} = {value}")


def check_triangle_row(params, probe, row) -> None:
    l, k = params
    entries = row.entries
    expect(len(entries) == k * l + 1, f"triangle_row{params} has {len(entries)} entries")
    expect(sum(entries) == (l + 1) ** k, f"triangle_row{params} does not sum to (l+1)**k")
    expect(entries[probe] == comtet(l, k, probe), f"triangle_row{params}[{probe}]")


def check_h_sequence(params, probe, seq) -> None:
    l, m = params
    expect(len(seq) == l * m + 1, f"h_sequence{params} has {len(seq)} entries")
    expect(sum(seq) == geometric_total(l + 1, m), f"h_sequence{params} total")
    expect(seq[probe] == rows_sum_at(l, m, probe), f"h_sequence{params}[{probe}]")


def check_count_interval(params, probe, value) -> None:
    n, k, a, b = params
    expect(value == comtet(b - a, k, n - k * a), f"count{params} = {value}")


def check_count_unbounded(params, probe, value) -> None:
    n, k, a = params
    shifted = n - k * a
    want = math.comb(shifted + k - 1, k - 1) if shifted >= 0 else 0
    expect(value == want, f"count{params} unbounded = {value}")


def check_count_support(params, probe, value) -> None:
    n, k, support = params
    ways = [1] + [0] * n  # ways[t]: tuples so far summing to t
    for _ in range(k):
        ways = [sum(ways[t - s] for s in support if s <= t) for t in range(n + 1)]
    expect(value == ways[n], f"count_support{params} = {value}")


def check_stirling_h_ratio(params, probe, value) -> None:
    l, m = params
    exact = rows_sum_at(l, m, m * l // 2)
    want = math.exp(math.log(exact) - _stirling_log_estimate(l, m))
    expect(close(value, want, 1e-9), f"stirling_h_ratio{params} = {value}, want {want}")


def check_central_asymptotic_ratio(params, probe, value) -> None:
    l, k = params
    exact = comtet(l, k, k * l // 2)
    want = math.exp(math.log(exact) - _central_log_estimate(l, k))
    expect(close(value, want, 1e-9),
           f"central_asymptotic_ratio{params} = {value}, want {want}")


def check_error_decomposition(params, probe, report) -> None:
    """gamma and alpha in closed form, the error curve's geometric total,
    and one error value next to the top of the support, where only the
    last few rows below m contribute."""
    l, m = params
    r = l + 1
    rm = r ** m
    expect(report.gamma == Fraction(l, r) * Fraction(rm, rm - 1), f"gamma for {params}")
    expect(report.alpha == Fraction(l, (rm - 1) * r), f"alpha for {params}")
    e = report.e_values
    expect(len(e) == l * m + 1, f"{len(e)} error values for {params}")
    expect(min(e) >= 0.0 and report.e_max == max(e), f"error curve sign or max for {params}")
    # The error term is alpha times the sum of rows 1..m-1.
    head_total = geometric_total(r, m - 1)
    expect(close(math.fsum(e), float(report.alpha * head_total), 1e-9),
           f"error curve total for {params}")
    n = l * (m - 1) - probe
    want = (l * rows_sum_at(l, m - 1, n)) / ((rm - 1) * r)
    expect(e[n] == want, f"error value {n} for {params}: {e[n]!r} != {want!r}")
    expect(0.0 < report.max_abs_diff < 1.0, f"max_abs_diff {report.max_abs_diff} for {params}")


# ---------------------------------------------------------------------------
# CLI outputs (files written through --output)


def _csv_rows(path: str, header: str):
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        expect(first == header + "\n", f"header {first!r} in {path}")
        for line in handle:
            yield line.rstrip("\n").split(",")


def check_dist(params, probe, path) -> None:
    """Row range, columns summing to 1, the two pmf_x ends against the
    geometric total, and one pmf_s entry against Comtet's sum.  Reads the
    file once without keeping it, so the check adds no memory peak."""
    a, b, m = params
    l = b - a
    total_x = geometric_total(l + 1, m)
    n_probe = m * a + probe
    want_s = comtet(l, m, probe) / (l + 1) ** m
    # Plain sums suffice: at most 30k terms below 1 round off far under 1e-9.
    sum_x = sum_s = sum_normal = 0.0
    n = a - 1
    px = None
    for row in _csv_rows(path, "n,pmf_x,pmf_s,normal"):
        n += 1
        x, s = float(row[1]), float(row[2])
        expect(int(row[0]) == n, f"dist{params} row {row[0]} where {n} was due")
        if n == a:
            # n = a is one part equal to a, or 1..m zeros when a = 0.
            expect(x == (m if a == 0 else 1) / total_x, f"dist{params} pmf_x at {a}")
        if n < m * a:
            expect(s == 0.0, f"dist{params} pmf_s at {n} below {m * a}")
        if n == n_probe:
            expect(s == want_s, f"dist{params} pmf_s at {n}: {s!r} != {want_s!r}")
        sum_x += x
        sum_s += s
        sum_normal += float(row[3])
        px = x
    expect(n == m * b, f"dist{params} rows end at {n}, not {m * b}")
    # Only the all-b composition reaches m*b.
    expect(px == 1 / total_x, f"dist{params} pmf_x at {m * b}")
    expect(abs(sum_x - 1.0) < 1e-9, f"dist{params} pmf_x does not sum to 1")
    expect(abs(sum_s - 1.0) < 1e-9, f"dist{params} pmf_s does not sum to 1")
    expect(abs(sum_normal - 1.0) < 1e-6, f"dist{params} normal does not sum to 1")


def check_normality(params, probe, path) -> None:
    """Per budget: KS and pointwise distances are small but positive for
    the budgets used here (m >= 100), and the pmf peak sits within one
    standard deviation of the normal mean."""
    a, b, ms = params
    rows = list(_csv_rows(path, "m,ks,max_pmf_diff,peak"))
    expect([int(row[0]) for row in rows] == list(ms), f"normality{params} budgets")
    r = b - a + 1
    for m_str, ks, diff, peak in rows:
        m = int(m_str)
        mu = m * (a + b) / 2
        sigma = math.sqrt(m * (r * r - 1) / 12)
        expect(0.0 < float(ks) < 0.05, f"normality{params} ks {ks} at m={m}")
        expect(0.0 < float(diff) < 0.05, f"normality{params} max_pmf_diff {diff} at m={m}")
        expect(abs(int(peak) - mu) <= sigma, f"normality{params} peak {peak} at m={m}")


def check_cli_triangle(params, probe, path) -> None:
    l, rows = params
    sums = [0] * (rows + 1)
    count = 0
    pk, pn = probe
    seen_probe = False
    for k, n, coeff in _csv_rows(path, "k,n,coeff"):
        k, n, coeff = int(k), int(n), int(coeff)
        sums[k] += coeff
        count += 1
        if (k, n) == (pk, pn):
            expect(coeff == comtet(l, k, n), f"triangle{params} entry ({k},{n})")
            seen_probe = True
    expect(count == sum(k * l + 1 for k in range(rows + 1)), f"triangle{params} row count")
    expect(seen_probe, f"triangle{params} lacks entry {probe}")
    expect(sums == [(l + 1) ** k for k in range(rows + 1)], f"triangle{params} row sums")


def check_cli_table1(params, probe, path) -> None:
    # table1 --check compares against its embedded reference and exits 1
    # on a mismatch; here the table must hold a header and one line per l.
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    expect(len(lines) == 8 and lines[0].split()[0] == "l", f"table1 output {lines[:2]}")


def check_sample(params, probe, path) -> None:
    """Row count, indices, part bounds, part counts and the sum column;
    then two distribution checks that hold for any exactly uniform
    sampler: the share of draws with m parts is r**m over the geometric
    total, and parts average (a+b)/2.  Both allow six standard errors."""
    a, b, m, count, _seed = params
    r = b - a + 1
    full = parts_total = parts_n = 0
    index = -1
    for index, (i, s, parts) in enumerate(_csv_rows(path, "index,sum,parts")):
        values = [int(p) for p in parts.split(" ")]
        expect(int(i) == index, f"sample{params} index {i} at row {index}")
        expect(1 <= len(values) <= m, f"sample{params} row {index} has {len(values)} parts")
        expect(min(values) >= a and max(values) <= b, f"sample{params} row {index} out of bounds")
        total = sum(values)
        expect(int(s) == total, f"sample{params} row {index} sum column")
        full += len(values) == m
        parts_total += total
        parts_n += len(values)
    expect(index + 1 == count, f"sample{params} wrote {index + 1} rows")
    p_full = Fraction(r ** m, geometric_total(r, m))
    spread = math.sqrt(float(p_full * (1 - p_full)) / count)
    expect(abs(full / count - float(p_full)) <= 6 * spread + 1 / count,
           f"sample{params} share of full compositions {full / count}")
    if r > 1:
        part_sd = math.sqrt((r * r - 1) / 12 / parts_n)
        expect(abs(parts_total / parts_n - (a + b) / 2) <= 6 * part_sd,
               f"sample{params} mean part {parts_total / parts_n}")


def check_same_file(first: str, second: str, what: str) -> None:
    expect(filecmp.cmp(first, second, shallow=False), f"{what}: rerun output differs")
