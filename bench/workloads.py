"""Request streams for the three workloads, and how each request runs.

A workload is an endless stream of requests drawn from a seeded
``random.Random``.  Streams are built from blocks: each block holds one
request per stratum of the workload, in seeded order, and the seed picks
the exact parameters inside each stratum.  Strata are sized by cost, so
every seed gives the same mix of cheap and expensive requests and the
medians of one run are comparable with those of another seed.

A request is ``(kind, params, probe)``.  ``params`` is what the program
receives; ``probe`` only tells the output check which entry to verify
against its closed form.  Two requests repeat when kind and params match;
the stream flags each request that repeats an earlier one.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
from collections import deque
from typing import Iterator, NamedTuple

import checks

WORKLOADS = ("pmf_large", "sample_stream", "query_mix")


class Request(NamedTuple):
    kind: str
    params: tuple
    probe: object = None


# ---------------------------------------------------------------------------
# pmf_large: exact pmfs, error split and normal distance on large rectangles.
#
# Kernel time grows about as l * m**2 times the coefficient size, which is
# m * log2(l+1) bits.  Each kind has a target for that cost, chosen so that
# every request takes about the same time; the seed picks l, and m follows
# from the target.  Together the kinds cover l in [8, 64] and m in
# [100, 400].  A normality request holds the width fixed across budgets
# m, 1.5m and 2m, which is what polycoeff.m_exponent is fitted on.

PMF_LARGE_BLOCK = (  # kind, copies per block, l range, cost target
    ("dist", 2, (8, 64), 0.95e6),
    ("normality", 1, (8, 28), 0.34e6),
    ("error_decomposition", 1, (14, 64), 2.6e6),
)


def kernel_cost(l: int, m: int) -> float:
    return l * m * m * (1 + m * math.log2(l + 1) / 5000)


def _budget(rng: random.Random, target: float, l: int, lo: int, hi: int) -> int:
    m = lo
    while m < hi and kernel_cost(l, m + 1) <= target:
        m += 1
    return min(hi, max(lo, m + rng.randint(-2, 2)))


def _pmf_large_block(rng: random.Random) -> list[Request]:
    block = []
    for kind, copies, (l_lo, l_hi), target in PMF_LARGE_BLOCK:
        for _ in range(copies):
            l = rng.randint(l_lo, l_hi)
            if kind == "dist":
                m = _budget(rng, target, l, 100, 400)
                a = rng.randint(0, 3)
                block.append(Request(kind, (a, a + l, m), rng.randint(0, m * l)))
            elif kind == "normality":
                m = _budget(rng, target, l, 100, 200)
                a = rng.randint(0, 3)
                block.append(Request(kind, (a, a + l, (m, round(1.5 * m), 2 * m))))
            else:
                m = _budget(rng, target, l, 100, 400)
                block.append(Request(kind, (l, m), rng.randint(0, min(4 * l, l * (m - 1)))))
    return block


# ---------------------------------------------------------------------------
# sample_stream: seeded uniform sampling through the CLI.  Draw counts are
# set so that a request costs about the same on each rectangle.

SAMPLE_CONFIGS = (((0, 2, 5), 60_000), ((3, 9, 12), 30_000), ((0, 64, 20), 20_000))


def _sample_stream_block(rng: random.Random) -> list[Request]:
    return [
        Request("sample", (a, b, m, count + rng.randint(0, count // 20), rng.getrandbits(63)))
        for (a, b, m), count in SAMPLE_CONFIGS
    ]


# ---------------------------------------------------------------------------
# query_mix: many small exact queries.  A share REPEAT_SHARE of requests
# reuses the parameters of an earlier request of the same kind, so a cache
# has something to hit; table1 takes no parameters and always repeats.

REPEAT_SHARE = 0.2
REPEAT_FROM_LAST = 100  # repeats reuse one of the last this-many tuples of their kind
TABLE1_EVERY = 4  # blocks per table1 --check run

QUERY_BLOCK = (
    ("poly_coeff", 3), ("central_coeff", 2), ("triangle_row", 2), ("h_sequence", 2),
    ("count_interval", 3), ("count_unbounded", 2), ("count_support", 2),
    ("stirling_h_ratio", 1), ("central_asymptotic_ratio", 1), ("cli_triangle", 1),
)


def _fresh_query(rng: random.Random, kind: str) -> Request:
    ri = rng.randint
    if kind == "poly_coeff":
        l, k = ri(1, 32), ri(1, 60)
        return Request(kind, (l, k, ri(0, k * l)))
    if kind in ("central_coeff", "central_asymptotic_ratio"):
        return Request(kind, (ri(1, 32), ri(1, 60)))
    if kind == "triangle_row":
        l, k = ri(1, 32), ri(1, 60)
        return Request(kind, (l, k), ri(0, k * l))
    if kind == "h_sequence":
        l, m = ri(1, 24), ri(1, 48)
        return Request(kind, (l, m), ri(0, l * m))
    if kind == "stirling_h_ratio":
        return Request(kind, (ri(1, 24), ri(1, 48)))
    if kind == "count_interval":
        a, k = ri(0, 5), ri(1, 60)
        b = a + ri(0, 32)
        return Request(kind, (ri(k * a, k * b), k, a, b))
    if kind == "count_unbounded":
        a, k = ri(0, 5), ri(1, 60)
        return Request(kind, (k * a + ri(0, 500), k, a))
    if kind == "count_support":
        support = tuple(sorted(rng.sample(range(13), ri(2, 6))))
        k = ri(1, 30)
        return Request(kind, (ri(0, k * support[-1]), k, support))
    if kind == "cli_triangle":
        l, rows = ri(1, 8), ri(1, 24)
        k = ri(0, rows)
        return Request(kind, (l, rows), (k, ri(0, k * l)))
    raise ValueError(kind)


def _query_mix_blocks(rng: random.Random) -> Iterator[list[Request]]:
    history = {kind: deque(maxlen=REPEAT_FROM_LAST) for kind, _ in QUERY_BLOCK}
    for index in itertools.count():
        block = []
        for kind, copies in QUERY_BLOCK:
            for _ in range(copies):
                earlier = history[kind]
                if earlier and rng.random() < REPEAT_SHARE:
                    block.append(rng.choice(earlier))
                else:
                    request = _fresh_query(rng, kind)
                    earlier.append(request)
                    block.append(request)
        if index % TABLE1_EVERY == 0:
            block.append(Request("cli_table1", ()))
        yield block


def stream(workload: str, seed: int) -> Iterator[tuple[Request, bool]]:
    """The endless request sequence of ``workload`` for ``seed``.

    Yields ``(request, repeated)``.  Only hashes of earlier requests are
    kept, so the benchmark's own memory barely grows with the run.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "query_mix":
        blocks = _query_mix_blocks(rng)
    else:
        make = {"pmf_large": _pmf_large_block, "sample_stream": _sample_stream_block}[workload]
        blocks = iter(lambda: make(rng), None)
    seen = set()
    for block in blocks:
        rng.shuffle(block)
        for request in block:
            key = hash((request.kind, request.params))
            repeated = key in seen
            # pmf_large and sample_stream never repeat a parameter tuple.
            if workload == "query_mix" or not repeated:
                seen.add(key)
                yield request, repeated


def warmup(workload: str) -> list[Request]:
    """Small fixed requests that touch every path the workload times."""
    if workload == "pmf_large":
        return [Request("dist", (1, 9, 30), 40), Request("normality", (0, 8, (20, 30, 40))),
                Request("error_decomposition", (8, 30), 5)]
    if workload == "sample_stream":
        return [Request("sample", (a, b, m, 500, 1)) for (a, b, m), _ in SAMPLE_CONFIGS]
    return [_fresh_query(random.Random(kind), kind) for kind, _ in QUERY_BLOCK] + [
        Request("cli_table1", ())]


# ---------------------------------------------------------------------------
# Running one request


class Runner:
    """Calls the public API of an imported rectcomp package.

    CLI requests go through ``rectcomp.cli.main(argv)`` with ``--output``
    pointing into ``workdir``; the run returns the file path and the check
    reads it.  Functions are looked up on their module at call time, so a
    traced run sees its wrappers.
    """

    def __init__(self, rc, workdir: str):
        self.rc = rc
        self.out = os.path.join(workdir, "out")
        self.rerun = os.path.join(workdir, "rerun")

    def cli(self, argv: list[str], path: str) -> str:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.rc.cli.main(argv + ["--output", path])
        except SystemExit as exc:
            code = exc.code
        checks.expect(code == 0, f"exit {code} for {argv}: {stderr.getvalue().strip()[-200:]}")
        return path

    def run(self, request: Request, path: str | None = None):
        rc = self.rc
        kind, p = request.kind, request.params
        path = path or self.out
        if kind == "dist":
            return self.cli(["dist", "--a", str(p[0]), "--b", str(p[1]), "--m", str(p[2])], path)
        if kind == "normality":
            return self.cli(["normality", "--a", str(p[0]), "--b", str(p[1]),
                             "--m", ",".join(map(str, p[2]))], path)
        if kind == "sample":
            a, b, m, count, seed = p
            return self.cli(["sample", "--a", str(a), "--b", str(b), "--m", str(m),
                             "--count", str(count), "--seed", str(seed)], path)
        if kind == "cli_triangle":
            return self.cli(["triangle", "--l", str(p[0]), "--rows", str(p[1])], path)
        if kind == "cli_table1":
            return self.cli(["table1", "--check"], path)
        if kind == "error_decomposition":
            return rc.error_decomposition(rc.RectSpec(0, p[0], p[1]))
        if kind == "count_interval":
            n, k, a, b = p
            return rc.count(n, k, rc.PartBounds(a, b))
        if kind == "count_unbounded":
            n, k, a = p
            return rc.count(n, k, rc.PartBounds(a, rc.UNBOUNDED))
        if kind == "count_support":
            n, k, support = p
            return rc.count_support(n, k, list(support))
        return getattr(rc, kind)(*p)

    def check(self, request: Request, output) -> None:
        CHECKS[request.kind](request.params, request.probe, output)


CHECKS = {
    "dist": checks.check_dist,
    "normality": checks.check_normality,
    "sample": checks.check_sample,
    "cli_triangle": checks.check_cli_triangle,
    "cli_table1": checks.check_cli_table1,
    "error_decomposition": checks.check_error_decomposition,
    "poly_coeff": checks.check_poly_coeff,
    "central_coeff": checks.check_central_coeff,
    "triangle_row": checks.check_triangle_row,
    "h_sequence": checks.check_h_sequence,
    "count_interval": checks.check_count_interval,
    "count_unbounded": checks.check_count_unbounded,
    "count_support": checks.check_count_support,
    "stirling_h_ratio": checks.check_stirling_h_ratio,
    "central_asymptotic_ratio": checks.check_central_asymptotic_ratio,
}
