"""The degree-6 gate, opt-in and outside tier-1: `python3 -m pytest gate`.

It sweeps p in {2, 3, 5} and every cycle partition of every degree up to
6 (3126 strata) with two worker processes, under its own time budget, and
pins the report: its sha256, its summary and the 18 strata where the two
minimal-cone variants differ.  Degree 6 is where they first differ, on a
single cycle of length 6 with T a single embedding, for each prime.  The
witness of each such stratum is re-checked with plain integer arithmetic
against the cone records of the report.
"""

import hashlib
import time

import pytest

from strata_cones.verify import explore

GATE_PRIMES = [2, 3, 5]
GATE_DEGREE = 6
GATE_JOBS = 2
GATE_BUDGET_SECONDS = 240.0
# sha256 of `strata-cones explore --p-list 2,3,5 --d-max 6 --json`, which
# writes `Report.to_json()` and a final newline
GATE_REPORT_SHA256 = (
    "54979ecb7d97dac73fd6ad28994cfda866dfe5fb8034cced0d00c35bcb75ecc5")
GATE_SUMMARY = {"strata": 3126, "checks": 43764, "pass": 36063, "fail": 882,
                "info": 6819}
UNEQUAL = [{"p": p, "cycles": ["6"], "t": f"0.{i}"}
           for p in ("2", "3", "5") for i in range(6)]


@pytest.fixture(scope="module")
def sweep():
    start = time.monotonic()
    report = explore(GATE_PRIMES, GATE_DEGREE, jobs=GATE_JOBS)
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
