"""Record a baseline of every workload, untraced and traced, to a JSON file.

    python3 bench/record_baseline.py --seed 1 --out bench/baseline.json

Each workload runs once per mode with the ``run_seconds`` of BENCHMARK.json.
The file also records the commit, Python version, processor count and CPU.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            runs[f"{workload}/trace{trace}"] = {"report": lines[:-1],
                                                "result": json.loads(lines[-1])}
            print(f"{workload} trace {trace} done", file=sys.stderr)
    baseline = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
