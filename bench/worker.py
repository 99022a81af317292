"""One benchmark run in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs, imports the program, runs the inputs once
untraced, checks every output, and prints one JSON line with the
measurements, every time scaled to the reference speed (see `speed.py`).
With `--trace 1` it then runs the same inputs under the tracer, checks that
the output bytes did not change, and adds the per-layer figures.
`bench/run.py` starts this script and turns its line into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import outputs
import tracer as tracing
import workloads
from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"
OUT_DIR = ROOT / ".bench_out"


def load_pins() -> dict:
    with open(PINS) as handle:
        return json.load(handle)


class Hook:
    """Binds a wrapper over one program function, under every name bound to
    it, that runs `before()` ahead of each call and, given a `spans` list,
    appends each call's start and end to it."""

    def __init__(self, module, name: str, before, spans=None):
        self._orig = orig = getattr(module, name)
        if spans is None:
            def hooked(*args, **kwargs):
                before()
                return orig(*args, **kwargs)
        else:
            def hooked(*args, **kwargs):
                before()
                start = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    spans.append((start, time.perf_counter()))
        hooked.__bench_wrapper__ = True
        self._sites = tracing.rebind(orig, hooked)

    def remove(self) -> None:
        for module, attr in self._sites:
            setattr(module, attr, self._orig)


def timed_pass(workload: str, calls, tracer=None):
    """Run the calls once.  Returns the results, the scaled wall time, the
    scaled latency of every item (a call, or on `sweep` a `stratum_record`
    call inside `explore`), and the speed log."""
    import strata_cones.cli as cli
    import strata_cones.cone_kernel as cone_kernel
    import strata_cones.verify as verify
    speed = SpeedLog()
    spans: list[tuple[float, float]] = []
    hooks = []
    if tracer is None:
        # probe inside long calls too, through a function every workload
        # calls often; not under the tracer, whose spans would count probes
        hooks.append(Hook(cone_kernel, "cone_complete", speed.maybe_sample))
    if workload == "sweep":
        def next_item():
            speed.maybe_sample()
            if tracer is not None:
                tracer.item = len(spans)
        hooks.append(Hook(verify, "stratum_record", next_item, spans))
    try:
        results = workloads.run_calls(cli, calls, tracer, speed)
    finally:
        for hook in reversed(hooks):
            hook.remove()
    per = workloads.items_per_call(workload)
    wall = 0.0
    latencies = []
    for index, r in enumerate(results):
        items = [speed.scaled(a, b)
                 for a, b in spans[index * per:(index + 1) * per]]
        rest = speed.scaled(r.start, r.end) - sum(items)
        latencies += items or [rest]
        wall += sum(items) + rest
    return results, wall, latencies, speed


def call_failure(workload: str, result) -> str | None:
    if result.error is not None:
        return result.error
    if result.code not in workloads.ANSWERED[workload]:
        return f"exit code {result.code}"
    return None


def failures(workload: str, seed: int, results, pins: dict) -> list[str]:
    """One entry per failed item, naming the item and what was wrong."""
    if workload == "sweep":
        return _sweep_failures(results, pins["sweep"])
    pinned = pins[workload]["items"] if seed == pins[workload]["seed"] else []
    found = []
    for index, result in enumerate(results):
        reason = call_failure(workload, result)
        if reason is None:
            reason = "; ".join(outputs.problems(result.argv, result.out))
        if not reason and index < len(pinned) and \
                outputs.digest(result.out) != pinned[index]:
            reason = "output differs from the pinned output"
        if reason:
            found.append(f"item {index} {' '.join(result.argv)}: {reason}")
    return found


def _sweep_failures(results, pins: dict) -> list[str]:
    found = []
    per_call = workloads.SWEEP_STRATA
    for index, result in enumerate(results):
        reason = call_failure("sweep", result)
        if reason is None:
            try:
                report = json.loads(result.out)
            except ValueError as exc:
                reason = f"malformed output: {exc}"
            else:
                if not isinstance(report, dict):
                    reason = "malformed output: not a report"
        if reason is not None:
            found += [f"sweep {index}: {reason}"] * per_call
            continue
        records = report.get("strata", [])
        wrong = []
        for j in range(per_call):
            if j >= len(records):
                wrong.append(f"stratum {j}: missing")
                continue
            reason = "; ".join(outputs.guarded(outputs.record_problems,
                                               records[j]))
            if not reason and \
                    outputs.record_digest(records[j]) != pins["records"][j]:
                reason = "record differs from the pinned record"
            if reason:
                wrong.append(f"stratum {j}: {reason}")
        if not wrong and (outputs.sha256(result.out) != pins["report_sha256"]
                          or outputs.guarded(outputs.summary_problems,
                                             report)):
            wrong.append("report differs from the pinned report")
        found += [f"sweep {index} {w}" for w in wrong]
    return found


def per_layer(tr: tracing.Tracer, traced_results, speed: SpeedLog,
              overhead_s: float) -> dict:
    metrics = {}
    totals = tr.totals(speed.factor)
    for name, row in totals.items():
        if name not in tr.check_names and name != "cli.main":
            metrics[f"{name}.calls"] = row["calls"]
        if name not in tr.check_names:
            metrics[f"{name}.self_s"] = row["self_s"]
        metrics[f"{name}.total_s"] = row["total_s"]
    completes = totals["cone_kernel.cone_complete"]["calls"]
    members = totals["cone_kernel.cone_member"]["calls"]
    inside = tr.probes["cone_kernel.cone_member", "inside"]
    emitted = sum(outputs.certificates(r.out) for r in traced_results)
    metrics["cone_kernel.cone_complete.noop_frac"] = \
        tr.probes["cone_kernel.cone_complete", "noop"] / completes \
        if completes else 0.0
    metrics["cone_kernel.cone_member.inside_frac"] = \
        inside / members if members else 0.0
    metrics["cone_kernel.cone_member.emitted_frac"] = \
        emitted / inside if inside else 0.0
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    calls = workloads.build_inputs(args.workload, args.seed, args.seconds)
    pins = load_pins()
    sys.path.insert(0, str(ROOT / "src"))
    import strata_cones  # noqa: F401  (set-up happens before timing)
    import strata_cones.cli  # noqa: F401

    results, wall, latencies, speed = timed_pass(args.workload, calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {
        "attempted": len(calls) * workloads.items_per_call(args.workload),
        "failed": failures(args.workload, args.seed, results, pins),
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "measured_s": results[-1].end - results[0].start,
        "probes": len(speed.probe_s),
        "probe_median_s": statistics.median(speed.probe_s),
    }
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced, traced_wall, _, traced_speed = timed_pass(
                args.workload, calls, tr)
        finally:
            tr.remove()
        doc["failed"] += [f"wrapper left behind: {name}"
                          for name in tracing.leftover_wrappers()]
        doc["failed"] += [
            f"item {i}: traced output differs from untraced output"
            for i, (a, b) in enumerate(zip(results, traced))
            if (a.code, a.out) != (b.code, b.out)]
        doc["per_layer"] = per_layer(tr, traced, traced_speed,
                                     traced_wall - wall)
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"spans-{args.workload}.tsv")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
