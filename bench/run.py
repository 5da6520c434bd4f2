"""rectcomp benchmark: one workload, one client, closed loop.

    python3 bench/run.py --workload pmf_large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  One process, no threads: each
request starts when the previous one has returned, and the loop stops once
the requests have taken ``--seconds`` of wall time between them.  Every
output is checked (see ``checks.py``) outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the stream untraced for half the time, then the next as many requests
with the span recorder installed, and reports the per-layer metrics; the
ratio of the two run times is ``trace.overhead_ratio``.

The machine this runs on is shared, and its speed drifts by a quarter
within minutes.  A fixed probe (``machine_probe``) therefore runs between
requests, at least every ``PROBE_EVERY`` seconds of request time, and the
wall times of a run are rescaled by its mean probe time to the speed at
which the probe takes ``PROBE_REFERENCE_S``.  Every time in the output is
at that reference speed; the text lines also give the raw wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
repeat every metric by name and unit for a reader.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import checks
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
PROBE_EVERY = 0.1  # seconds of request time between machine probes
PROBE_REFERENCE_S = 0.005


def machine_probe() -> float:
    """Seconds taken by a fixed big-integer job written in the benchmark itself.

    Rows 0..80 of the 9-nomial triangle by a sliding-window sum: the same
    kind of work as the library's kernel, in code no library change touches.
    """
    began = time.perf_counter()
    row = [1]
    for _ in range(80):
        out = []
        window = 0
        for n in range(len(row) + 8):
            if n < len(row):
                window += row[n]
            if n >= 9:
                window -= row[n - 9]
            out.append(window)
        row = out
    return time.perf_counter() - began


class Phase:
    """Requests run back to back, and the probes taken between them."""

    def __init__(self):
        self.latencies = array("d")  # raw wall seconds
        self.probes: list[float] = []

    @property
    def scale(self) -> float:
        """Factor taking this phase's wall times to reference machine speed.

        The machine's speed changes within a fraction of a second, faster
        than one request lasts, so the phase's mean probe time is what
        tracks the average slowdown its requests saw.
        """
        return PROBE_REFERENCE_S / statistics.fmean(self.probes)

    def scaled(self) -> list[float]:
        scale = self.scale
        return [t * scale for t in self.latencies]


def import_fresh():
    """Import rectcomp (and its CLI) anew from ``src/`` of this checkout."""
    for name in [n for n in sys.modules if n == "rectcomp" or n.startswith("rectcomp.")]:
        del sys.modules[name]
    rc = importlib.import_module("rectcomp")
    importlib.import_module("rectcomp.cli")
    if SRC not in Path(rc.__file__).resolve().parents:
        raise SystemExit(f"bench: imported rectcomp from {rc.__file__}, not from {SRC}")
    return rc


def set_up(workload: str, workdir: str):
    """Import and warm up SETUP_REPEATS times.

    Returns the package, a runner, and the median set-up time, raw and at
    reference speed.
    """
    times = []
    probes = [machine_probe()]
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        rc = import_fresh()
        runner = workloads.Runner(rc, workdir)
        for request in workloads.warmup(workload):
            runner.run(request)
        times.append(time.perf_counter() - began)
    probes.append(machine_probe())
    for request in workloads.warmup(workload):
        runner.check(request, runner.run(request))
    raw = statistics.median(times)
    return rc, runner, raw, raw * PROBE_REFERENCE_S / statistics.fmean(probes)


class Loop:
    """Drives requests one at a time and keeps failures and output sizes."""

    def __init__(self, runner: workloads.Runner, requests):
        self.runner = runner
        self.requests = requests
        self.attempted = 0
        self.failures: list[str] = []
        self.repeats = 0
        self.draws = self.rows_out = self.bytes_out = 0
        self._rerun_done: set = set()

    def run(self, seconds: float | None = None, count: int | None = None,
            tracer: Tracer | None = None) -> Phase:
        """Run until ``seconds`` of request time or ``count`` requests."""
        phase = Phase()
        busy = 0.0
        probed_at = -PROBE_EVERY
        while (count is None or len(phase.latencies) < count) and (
                seconds is None or busy < seconds):
            if busy - probed_at >= PROBE_EVERY:
                phase.probes.append(machine_probe())
                probed_at = busy
            request, repeated = next(self.requests)
            if tracer is not None:
                tracer.begin_request(self.attempted, request.kind)
            began = time.perf_counter()
            try:
                output = self.runner.run(request)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            spent = time.perf_counter() - began
            if tracer is not None:
                tracer.begin_request(-1, "")
            phase.latencies.append(spent)
            self.repeats += repeated
            self.attempted += 1
            busy += spent
            if error is None:
                error = self._check(request, output, rerun=tracer is None)
            if error is not None:
                self.failures.append(f"{request.kind}{request.params}: {error}")
        phase.probes.append(machine_probe())
        return phase

    def _check(self, request, output, rerun: bool) -> str | None:
        try:
            self.runner.check(request, output)
            if isinstance(output, str):
                with open(output, encoding="utf-8") as handle:
                    self.rows_out += sum(1 for _ in handle) - 1
                self.bytes_out += os.path.getsize(output)
            if request.kind == "sample":
                self.draws += request.params[3]
                rectangle = request.params[:3]
                if rerun and rectangle not in self._rerun_done:
                    # Same seed, same output: rerun the first request per rectangle.
                    self._rerun_done.add(rectangle)
                    again = self.runner.run(request, self.runner.rerun)
                    checks.check_same_file(output, again, f"sample{request.params}")
        except (checks.CheckFailed, OSError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


def latency_metrics(latencies: list[float]) -> tuple[dict, str]:
    ordered = sorted(latencies)
    n = len(ordered)
    p50 = statistics.median(ordered) * 1e3
    if n > 2 * TAIL_BEYOND:
        # The highest percentile with TAIL_BEYOND samples above it; with
        # fewer samples it would not lie above the median.
        tail = ordered[n - TAIL_BEYOND - 1] * 1e3
        note = f"p{100 * (n - TAIL_BEYOND) / n:.2f} of {n} samples, {TAIL_BEYOND} beyond"
    else:
        tail = p50
        note = f"no tail with {n} samples; reporting the median"
    return {"latency_p50_ms": (p50, "ms"), "latency_tail_ms": (tail, "ms")}, note


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(loop: Loop, seconds: float, setup_raw: float, setup_s: float):
    phase = loop.run(seconds=seconds)
    scaled = phase.scaled()
    busy = sum(scaled)
    metrics = {"setup_s": (setup_s, "s"), "requests_per_s": (len(scaled) / busy, "1/s")}
    latency, note = latency_metrics(scaled)
    metrics.update(latency)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report = dict(metrics)
    if loop.draws:
        report["draws_per_s"] = (loop.draws / busy, "1/s")
    raw = latency_metrics(phase.latencies)[0]
    lines = [f"latency_tail_ms is the {note}",
             f"{len(phase.probes)} probes, scale {phase.scale:.4f}; "
             f"raw wall: setup_s {setup_raw:.6f}, latency_p50_ms {raw['latency_p50_ms'][0]:.4f}, "
             f"latency_tail_ms {raw['latency_tail_ms'][0]:.4f}"]
    return metrics, report, lines


def per_layer(loop: Loop, rc, seconds: float):
    plain = loop.run(seconds=seconds / 2)
    plain_busy = sum(plain.scaled())
    plain_draws = loop.draws
    tracer = Tracer(rc)
    rows0, bytes0 = loop.rows_out, loop.bytes_out
    tracer.install()
    try:
        traced = loop.run(count=len(plain.latencies), tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(loop.draws - plain_draws, loop.rows_out - rows0,
                                  loop.bytes_out - bytes0)
    # Per-layer seconds go to reference speed with the traced phase's probes.
    metrics = {name: (value * traced.scale if unit == "s" else value, unit)
               for name, (value, unit) in layers.items()}
    metrics["trace.overhead_ratio"] = (sum(traced.scaled()) / plain_busy, "ratio")
    metrics["draws_per_s"] = (plain_draws / plain_busy, "1/s")
    lines = [f"{len(traced.latencies)} traced requests after as many untraced, "
             f"{len(tracer.name)} spans; draws_per_s is from the untraced half"]
    return metrics, dict(metrics), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rectcomp" / "__init__.py").is_file():
        print(f"bench: no rectcomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        try:
            rc, runner, setup_raw, setup_s = set_up(args.workload, workdir)
        except Exception as exc:  # no result without a working warm-up
            print(f"bench: warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        gc.collect()
        loop = Loop(runner, workloads.stream(args.workload, args.seed))
        if args.trace == 0:
            metrics, report, lines = end_to_end(loop, args.seconds, setup_raw, setup_s)
        else:
            metrics, report, lines = per_layer(loop, rc, args.seconds)

    failed = len(loop.failures)
    shares = {"failed_ratio": (failed / loop.attempted, "ratio"),
              "repeat_share": (loop.repeats / loop.attempted, "ratio")}
    report.update(shares)
    if args.trace == 1:
        metrics.update(shares)
    lines.insert(0, f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    lines += [f"{name} {value} {unit}" for name, (value, unit) in report.items()]
    lines.append(f"attempted {loop.attempted}  failed {failed}")
    for failure in loop.failures[:5]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
