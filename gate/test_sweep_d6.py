"""The degree-6 gate, opt-in and outside tier-1: `python3 -m pytest gate`.

It sweeps p in {2, 3, 5} and every cycle partition of every degree up to
6 (3126 strata) once in one process and once with two worker processes,
each under its own time budget, and pins the report of each: its sha256,
its summary and the 18 strata where the two minimal-cone variants
differ.  Degree 6 is where they first differ, on a
single cycle of length 6 with T a single embedding, for each prime.  The
witness of each such stratum is re-checked with plain integer arithmetic
against the cone records of the report.  Criterion 3's classifier and
witness checks (`tests/test_acceptance.py`) run on every row: the exact
admissibility dichotomy holds at degree 6 too, and its degenerate strata
are exactly the failures.  The same sweep also runs once through the
command line with two workers and `-o`, whose file must carry the pinned
sha256 within a bound on the peak RSS.
"""

import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from strata_cones.verify import explore
from test_acceptance import dichotomy_message, dichotomy_rows

GATE_PRIMES = [2, 3, 5]
GATE_DEGREE = 6
# one process, and two workers that each receive the configuration with
# its memo inside their tasks
GATE_JOBS = (1, 2)
GATE_BUDGET_SECONDS = 240.0
# sha256 of `strata-cones explore --p-list 2,3,5 --d-max 6 --json`, which
# writes `Report.to_json()` and a final newline
GATE_REPORT_SHA256 = (
    "54979ecb7d97dac73fd6ad28994cfda866dfe5fb8034cced0d00c35bcb75ecc5")
GATE_SUMMARY = {"strata": 3126, "checks": 43764, "pass": 36063, "fail": 882,
                "info": 6819}
DICHOTOMY_COUNTS = {"closed": 1383, "strict": 861, "degenerate": 882}
UNEQUAL = [{"p": p, "cycles": ["6"], "t": f"0.{i}"}
           for p in ("2", "3", "5") for i in range(6)]
# bound on the peak RSS of the command line's d <= 6 sweep with two workers,
# written with -o: 85 MB measured with Python 3.11 on a 2-core machine,
# where holding every record as a dict until the sweep ended took 219 MB
CLI_PEAK_RSS_MB = 160
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module", params=GATE_JOBS, ids=lambda j: f"jobs{j}")
def sweep(request):
    start = time.monotonic()
    report = explore(GATE_PRIMES, GATE_DEGREE, jobs=request.param)
    return report, time.monotonic() - start


def dot(form, vec):
    return sum(int(a) * int(b) for a, b in zip(form, vec))


def test_sweep_fits_its_budget(sweep):
    _, elapsed = sweep
    assert elapsed < GATE_BUDGET_SECONDS, f"{elapsed:.1f}s"


def test_report_bytes_are_pinned(sweep):
    report, _ = sweep
    text = report.to_json() + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_REPORT_SHA256


def test_summary_and_failures_are_pinned(sweep):
    report, _ = sweep
    assert report.summary == GATE_SUMMARY
    failing = {check["name"] for record in report.strata
               for check in record["checks"] if check["status"] == "fail"}
    assert failing == {"admissible_dichotomy"}


def test_unequal_minimal_cones_are_pinned(sweep):
    report, _ = sweep
    assert report.open_question == {"equal": 3126 - 18, "unequal": 18,
                                    "instances": UNEQUAL}


def test_unequal_witnesses_recheck_by_hand(sweep):
    # each witness is a generator of the diagonal variant ("minimal0")
    # and a form that is negative on it but nonnegative on the full
    # variant ("minimal")
    report, _ = sweep
    wanted = {(i["p"], i["t"]) for i in UNEQUAL}
    checked = 0
    for record in report.strata:
        if record["cycles"] != ["6"] or (record["p"], record["t"]) not in \
                wanted:
            continue
        (witness,) = [check["witness"] for check in record["checks"]
                      if check["name"] == "minimal_equality"]
        assert witness["equal"] is False
        weight, form = witness["weight"], witness["violated_form"]
        outer, inner = record["minimal"], record["minimal0"]
        assert all(dot(a, weight) >= 0 for a in inner["ineqs"])
        assert all(dot(e, weight) == 0 for e in inner["eqns"])
        assert dot(form, weight) < 0
        assert all(dot(form, ray) >= 0 for ray in outer["rays"])
        assert all(dot(form, line) == 0 for line in outer["lines"])
        checked += 1
    assert checked == 18


def test_dichotomy_classes_are_pinned(sweep):
    report, _ = sweep
    counts, bad, degenerate = dichotomy_rows(report)
    assert counts == DICHOTOMY_COUNTS and not bad, \
        dichotomy_message(counts, bad)
    failing = {(record["p"], tuple(record["cycles"]), record["t"])
               for record in report.strata for check in record["checks"]
               if check["status"] == "fail"}
    assert degenerate == failing


def test_command_line_sweep_bytes_and_memory(tmp_path):
    # the memory of the command and its workers as `wait4` reports it, the
    # RUSAGE_CHILDREN figure of a parent with this one child
    target = tmp_path / "report.json"
    argv = [sys.executable, "-m", "strata_cones.cli", "explore", "--p-list",
            ",".join(map(str, GATE_PRIMES)), "--d-max", str(GATE_DEGREE),
            "--json", "-o", str(target), "--jobs", "2"]
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=str(SRC)))
    watchdog = threading.Timer(GATE_BUDGET_SECONDS, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    elapsed = time.monotonic() - start
    # exit code 2: the report holds the failures of criterion 3
    assert proc.returncode == 2
    assert elapsed < GATE_BUDGET_SECONDS, f"{elapsed:.1f}s"
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == GATE_REPORT_SHA256
    peak_mb = usage.ru_maxrss / 1024
    assert peak_mb < CLI_PEAK_RSS_MB, f"{peak_mb:.1f} MB"
