"""The strata-cones benchmark.

    python3 bench/run.py --workload sweep|deep|queries --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It measures the set-up time over
several fresh interpreters, then runs the workload in one more fresh
interpreter (`bench/worker.py`), single-process, and checks every output.
It prints one line per metric with its unit, and as its last line a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
workloads and metrics are described in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedLog
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_LAUNCHES = 21
SETUP_CODE = ("import strata_cones, strata_cones.cli, time; "
              "print(repr(time.perf_counter()))")
LAUNCH_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160
TAIL_BEYOND = 10
SHOWN_FAILURES = 5


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts: the program
    from this checkout's `src`, bytecode cached inside the checkout, and a
    fixed string-hash seed."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_out" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict) -> float:
    """Median time from starting an interpreter until `strata_cones` and
    `strata_cones.cli` are imported, after one launch that fills the
    bytecode cache.  Each launch is scaled to the reference speed by probes
    taken right before and after it."""
    command = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(command, env=env, check=True, capture_output=True,
                   timeout=LAUNCH_TIMEOUT_S)
    speed = SpeedLog()
    launches = []
    for _ in range(SETUP_LAUNCHES):
        speed.sample()
        start = time.perf_counter()
        done = subprocess.run(command, env=env, check=True,
                              capture_output=True, text=True,
                              timeout=LAUNCH_TIMEOUT_S)
        launches.append((start, float(done.stdout)))
    speed.sample()
    return statistics.median(speed.scaled(start, end)
                             for start, end in launches)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def failed_count(raw: dict) -> int:
    return min(len(raw["failed"]), raw["attempted"])


def end_to_end(raw: dict, setup_s: float) -> tuple[dict, list[str]]:
    attempted = raw["attempted"]
    ok = attempted - failed_count(raw)
    latencies = raw["latencies_s"]
    tail_s, percentile = tail(latencies)
    metrics = {
        "wall_s": (raw["wall_s"], "s"),
        "items_per_s": (ok / raw["wall_s"], "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "ok_frac": (ok / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    notes = [f"item_tail_ms is p{percentile:.2f} of {len(latencies)} items, "
             f"{min(TAIL_BEYOND, len(latencies) - 1)} beyond it",
             f"times are scaled to the reference speed ({raw['probes']} "
             f"probes, median {raw['probe_median_s'] * 1000:.3f} ms); the "
             f"run took {raw['measured_s']:.3f} s of wall clock"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strata_cones" / "cli.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'strata_cones'}; run "
              "from the root of a strata-cones checkout", file=sys.stderr)
        return 2

    env = child_env()
    try:
        setup_s = None if args.trace else setup_seconds(env)
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr, end="")
        print(f"bench: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(done.stdout.splitlines()[-1])

    if args.trace:
        metrics = {name: (value, "count" if name.endswith(".calls") else
                          "ratio" if name.endswith("_frac") else "s")
                   for name, value in raw["per_layer"].items()}
        notes = []
    else:
        metrics, notes = end_to_end(raw, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6f} {unit}")
    for note in notes:
        print(note)
    for failure in raw["failed"][:SHOWN_FAILURES]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not raw["failed"],
        "attempted": raw["attempted"],
        "failed": failed_count(raw),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
