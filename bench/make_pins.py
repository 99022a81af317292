"""Write `bench/pins.json`, the pinned outputs the benchmark compares against.

    python3 bench/make_pins.py

Pins the sha256 of the `sweep` report with one digest per stratum record,
and one digest per item for the default seed of `deep` and `queries`, at the
run length in BENCHMARK.json.  Run it only at a commit whose outputs are
known to be right; it refuses outputs that fail the independent checks.
"""

from __future__ import annotations

import json
import sys

import outputs
import worker
import workloads

DEFAULT_SEED = 0


def main() -> int:
    with open(worker.ROOT / "BENCHMARK.json") as handle:
        seconds = json.load(handle)["run_seconds"]
    sys.path.insert(0, str(worker.ROOT / "src"))
    pins = {}
    for workload in workloads.WORKLOADS:
        calls = workloads.build_inputs(workload, DEFAULT_SEED, seconds)
        results = worker.timed_pass(workload, calls)[0]
        for result in results:
            bad = worker.call_failure(workload, result) or \
                outputs.problems(result.argv, result.out)
            if bad:
                print(f"refusing to pin {result.argv}: {bad}", file=sys.stderr)
                return 1
        if workload == "sweep":
            report = json.loads(results[0].out)
            pins[workload] = {
                "report_sha256": outputs.sha256(results[0].out),
                "records": [outputs.record_digest(r)
                            for r in report["strata"]]}
        else:
            pins[workload] = {"seed": DEFAULT_SEED, "items": [
                outputs.digest(r.out) for r in results]}
    with open(worker.PINS, "w") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
