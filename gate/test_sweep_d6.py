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
are exactly the failures.  The same sweep also runs through the command
line with `-o`, as JSON and as text, once in one process and once with two
workers, whose file must carry the pinned sha256 within a bound on the peak
RSS.  The Frobenius-rotation equivariance of `tests/test_symmetry.py` is
compared on every stratum of p in {2, 3, 5} and degree up to 6, and so
is each check that `verify._by_cycles` decides from the cycles of a
multi-cycle stratum against its direct check, sound and under a
cycle-local fault (`tests/test_verify.py`), on all 2748 multi-cycle strata.
On every stratum, the weight cone and the Hasse-type cone that
`cone_member` is asked about have linearly independent canonical rays and
lines, so each membership certificate is unique.  The report decides each
check once per Frobenius orbit: the classes of `splitting.orbit_key` are
the 888 orbits of degree up to 6, and every record's checks equal the
direct checks, witnesses included, for p in {2, 3, 5} and for p = 7.

Degree 8 runs through the command line with two workers (25782 strata,
about 25 s): the report's sha256, summary, failing check and unequal
count are pinned, the 258 MB report is read one stratum record at a time,
and its largest process is held to the same 50 MB bound.  Its records,
grouped by (cycles, T), take one status vector and one `minimal_equality`
verdict per pattern over p in {2, 3, 5}: 8594 patterns, none split.

A prime above 5 has a test of its own: p = 7 up to degree 6 (1042 strata),
swept once in one process, with its report, summary, dichotomy classes and
unequal strata pinned in the same way.  Its minimal-cone variants differ on
the same six strata as for p in {2, 3, 5}: one cycle of length 6 with T a
single embedding.  Grouped by (cycles, T), the 1042 patterns of degree up
to 6 take one status vector and one `minimal_equality` verdict each over
p in {2, 3, 5}, p = 7, p = 101 and p = 7919.
"""

import collections
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from oracle import dot
from strata_cones.verify import explore
from test_acceptance import dichotomy_message, dichotomy_rows
from test_symmetry import (
    equivariance_counts,
    key_classes,
    orbit_path_against_direct,
)
from test_verify import (
    ROUTED_CHECKS,
    dependent_membership_cones,
    multi_cycle_strata,
    pattern_verdict,
    routed_against_direct,
    verdicts_by_pattern,
)

GATE_PRIMES = [2, 3, 5]
GATE_DEGREE = 6
# one process, and two workers; a task's configuration crosses to a worker
# without the sender's memo, and a worker keeps its own from one chunk of
# tasks to the next while the configuration stays the same
# (`splitting._unpickled_config`)
GATE_JOBS = (1, 2)
GATE_BUDGET_SECONDS = 240.0
# sha256 of `strata-cones explore --p-list 2,3,5 --d-max 6 --json`, which
# writes `Report.to_json()` and a final newline
GATE_REPORT_SHA256 = (
    "54979ecb7d97dac73fd6ad28994cfda866dfe5fb8034cced0d00c35bcb75ecc5")
# sha256 of the same command's text output, without --json
GATE_TEXT_SHA256 = (
    "e8191a3f6b2b00e12494ea2ea3013142bdc3424dc424331d1ff15b8233934768")
GATE_SUMMARY = {"strata": 3126, "checks": 43764, "pass": 36063, "fail": 882,
                "info": 6819}
DICHOTOMY_COUNTS = {"closed": 1383, "strict": 861, "degenerate": 882}
UNEQUAL = [{"p": p, "cycles": ["6"], "t": f"0.{i}"}
           for p in ("2", "3", "5") for i in range(6)]
# bound on the peak RSS of the command line's d <= 6 sweep written with -o,
# workers included: the report is written as its records arrive, so 19.5 MB
# with one process and 24-25 MB with two workers were measured with Python
# 3.11 on a 2-core machine, where holding the whole report took 84 MB (97 MB
# for the text, which was read off the whole report)
CLI_PEAK_RSS_MB = 50
# a child's peak RSS starts from that of the process it was forked from, and
# this interpreter holds the gate's sweeps, so the command runs under a small
# launcher that prints the command's exit code and `wait4` peak RSS in kB
LAUNCHER = ("import os, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:])\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
SRC = Path(__file__).resolve().parent.parent / "src"
# p = 7 up to degree 6, one process: 2.4-2.8 s with Python 3.11 on a 2-core
# machine
P7_REPORT_SHA256 = (
    "2db9f58b8187b9439f669b24a94cbcfbbeaa0d7fab9af687505c2cf9aa26a053")
P7_SUMMARY = {"strata": 1042, "checks": 14588, "pass": 12021, "fail": 294,
              "info": 2273}
P7_DICHOTOMY_COUNTS = {"closed": 461, "strict": 287, "degenerate": 294}
P7_UNEQUAL = [{"p": "7", "cycles": ["6"], "t": f"0.{i}"} for i in range(6)]
# primes far above the others, whose verdicts are compared pattern by
# pattern with those of p in {2, 3, 5, 7}
LARGE_PRIMES = (101, 7919)
# p in {2, 3, 5} up to degree 8 through the command line with two workers,
# where 84% of the strata take a result from the first stratum of their
# orbit: 22.6 s against 31.0 s when every stratum ran every check, largest
# process 26 MB, with Python 3.11 on a 2-core machine; the report is 258 MB
D8_DEGREE = 8
D8_REPORT_SHA256 = (
    "a59ebe726134263c511ad7fe7c0d5cc517413fb5cfa32ed6d7f2383355185519")
D8_SUMMARY = {"strata": 25782, "checks": 360948, "pass": 299634,
              "fail": 7194, "info": 54120}
D8_UNEQUAL = 615
# the (cycles, T) patterns of degree at most 8
D8_PATTERNS = 8594


@pytest.fixture(scope="module", params=GATE_JOBS, ids=lambda j: f"jobs{j}")
def sweep(request):
    start = time.monotonic()
    report = explore(GATE_PRIMES, GATE_DEGREE, jobs=request.param)
    return report, time.monotonic() - start


def failing(report) -> tuple[set, set]:
    """The names of the failing checks, and the strata where one fails."""
    names, strata = set(), set()
    for record in report.strata:
        for check in record["checks"]:
            if check["status"] == "fail":
                names.add(check["name"])
                strata.add((record["p"], tuple(record["cycles"]),
                            record["t"]))
    return names, strata


def recheck_unequal_witnesses(report, instances) -> int:
    """Re-check by hand the witness of each stratum in `instances`, those
    of one cycle of length 6, and return how many were checked.  Each
    witness is a generator of the diagonal variant ("minimal0") and a form
    that is negative on it but nonnegative on the full variant
    ("minimal")."""
    wanted = {(i["p"], i["t"]) for i in instances}
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
    return checked


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
    assert failing(report)[0] == {"admissible_dichotomy"}


def test_unequal_minimal_cones_are_pinned(sweep):
    report, _ = sweep
    assert report.open_question == {"equal": 3126 - 18, "unequal": 18,
                                    "instances": UNEQUAL}


def test_unequal_witnesses_recheck_by_hand(sweep):
    report, _ = sweep
    assert recheck_unequal_witnesses(report, UNEQUAL) == 18


def test_dichotomy_classes_are_pinned(sweep):
    report, _ = sweep
    counts, bad, degenerate = dichotomy_rows(report)
    assert counts == DICHOTOMY_COUNTS and not bad, \
        dichotomy_message(counts, bad)
    assert degenerate == failing(report)[1]


@pytest.fixture(scope="module")
def p7_report():
    return explore([7], GATE_DEGREE)


def test_p7_to_degree_6_is_pinned(p7_report):
    report = p7_report
    text = report.to_json() + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == P7_REPORT_SHA256
    assert report.summary == P7_SUMMARY
    names, strata = failing(report)
    assert names == {"admissible_dichotomy"}
    counts, bad, degenerate = dichotomy_rows(report)
    assert counts == P7_DICHOTOMY_COUNTS and not bad, \
        dichotomy_message(counts, bad)
    assert degenerate == strata
    assert report.open_question == {"equal": 1042 - 6, "unequal": 6,
                                    "instances": P7_UNEQUAL}
    assert recheck_unequal_witnesses(report, P7_UNEQUAL) == 6


@pytest.fixture(scope="module")
def large_prime_reports():
    return [explore([p], GATE_DEGREE) for p in LARGE_PRIMES]


def test_verdicts_do_not_depend_on_p_to_degree_6(sweep, p7_report,
                                                 large_prime_reports):
    # 3126 + 3 * 1042 strata in the 1042 (cycles, T) patterns of degree at
    # most 6, six primes: 6.7 s in process with Python 3.11 on a 2-core
    # machine, the sweeps of p in {2, 3, 5} and of p = 7 included
    report, _ = sweep
    verdicts = collections.defaultdict(set)
    for one in (report, p7_report, *large_prime_reports):
        for pattern, seen in verdicts_by_pattern(one).items():
            verdicts[pattern] |= seen
    assert len(verdicts) == P7_SUMMARY["strata"] == 1042
    assert [pattern for pattern, seen in verdicts.items()
            if len(seen) != 1] == []


def run_command(*args) -> tuple[int, float]:
    """Run the command line with `args` under the time budget; return its
    exit code and the peak RSS in MB of the command and its workers as
    `wait4` reports it, the RUSAGE_CHILDREN figure of a parent with this one
    child."""
    argv = [sys.executable, "-m", "strata_cones.cli", *args]
    start = time.monotonic()
    # a session of its own, so that the watchdog stops the command as well
    launcher = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.PIPE,
        text=True, start_new_session=True)
    watchdog = threading.Timer(GATE_BUDGET_SECONDS, os.killpg,
                               (launcher.pid, signal.SIGKILL))
    watchdog.start()
    try:
        out = launcher.communicate()[0]
    finally:
        watchdog.cancel()
    elapsed = time.monotonic() - start
    assert elapsed < GATE_BUDGET_SECONDS, f"{elapsed:.1f}s"
    returncode, peak_kb = map(int, out.split())
    return returncode, peak_kb / 1024


@pytest.mark.parametrize("jobs", GATE_JOBS, ids=lambda j: f"jobs{j}")
@pytest.mark.parametrize("layout, sha256", [
    (("--json",), GATE_REPORT_SHA256), ((), GATE_TEXT_SHA256)],
    ids=["json", "text"])
def test_command_line_sweep_bytes_and_memory(layout, sha256, jobs, tmp_path):
    target = tmp_path / "report"
    returncode, peak_mb = run_command(
        "explore", "--p-list", ",".join(map(str, GATE_PRIMES)), "--d-max",
        str(GATE_DEGREE), *layout, "-o", str(target), "--jobs", str(jobs))
    # exit code 2: the report holds the failures of criterion 3
    assert returncode == 2
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == sha256
    assert peak_mb < CLI_PEAK_RSS_MB, f"{peak_mb:.1f} MB"


def read_streamed(path, visit) -> tuple[str, dict]:
    """Pass each stratum record of the JSON report at `path` to `visit`,
    decoded one at a time: the layout writes a record from a line "    {"
    to a line "    }", with a comma after all but the last.  Return the
    sha256 of the file and the report's tail, its open question and
    summary."""
    digest = hashlib.sha256()
    with open(path, "rb") as report:
        lines = iter(report)
        for line in lines:
            digest.update(line)
            if line == b'  "strata": [\n':
                break
        record = []
        for line in lines:
            digest.update(line)
            if line == b"  ],\n":
                break
            record.append(line)
            if line in (b"    }\n", b"    },\n"):
                visit(json.loads(b"".join(record).rstrip(b",\n")))
                record = []
        rest = b"".join(lines)
    digest.update(rest)
    assert record == []
    return digest.hexdigest(), json.loads(b"{" + rest)


def test_degree_8_report_is_pinned_through_the_command_line(tmp_path):
    target = tmp_path / "report"
    try:
        returncode, peak_mb = run_command(
            "explore", "--p-list", ",".join(map(str, GATE_PRIMES)),
            "--d-max", str(D8_DEGREE), "--json", "-o", str(target),
            "--jobs", "2")
        assert returncode == 2
        assert peak_mb < CLI_PEAK_RSS_MB, f"{peak_mb:.1f} MB"
        counts = {"pass": 0, "fail": 0, "info": 0}
        seen = {"strata": 0, "unequal": 0, "failing": set()}
        verdicts = collections.defaultdict(set)

        def visit(record):
            pattern, verdict = pattern_verdict(record)
            verdicts[pattern].add(verdict)
            seen["strata"] += 1
            for check in record["checks"]:
                counts[check["status"]] += 1
                if check["status"] == "fail":
                    seen["failing"].add(check["name"])
            seen["unequal"] += not record["checks"][-1]["witness"]["equal"]

        digest, tail = read_streamed(target, visit)
    finally:
        # 258 MB: not left behind for the kept temporary directories
        target.unlink(missing_ok=True)
    assert digest == D8_REPORT_SHA256
    assert tail["summary"] == D8_SUMMARY == {
        "strata": seen["strata"], "checks": sum(counts.values()), **counts}
    assert seen["failing"] == {"admissible_dichotomy"}
    assert tail["open_question"]["unequal"] == seen["unequal"] == D8_UNEQUAL
    # one status vector and one `minimal_equality` verdict per pattern
    # over p in {2, 3, 5}
    assert len(verdicts) == D8_PATTERNS
    assert [pattern for pattern, found in verdicts.items()
            if len(found) != 1] == []


def test_membership_certificates_are_unique_to_degree_6():
    # the weight cone and the Hasse-type cone of each of the 3126 strata
    # have linearly independent canonical rays and lines, so every
    # membership certificate of the sweep is the only one
    assert dependent_membership_cones(GATE_PRIMES, GATE_DEGREE) == (6252, [])


def test_every_construction_moves_with_the_frobenius_rotation():
    # 3126 strata of p in {2, 3, 5} and degree at most 6, 13542 (stratum,
    # move) pairs, 888 orbits
    assert equivariance_counts(GATE_PRIMES, GATE_DEGREE) == (13542, 888)


def test_orbit_key_classes_are_the_symmetry_orbits_to_degree_6():
    assert key_classes(GATE_PRIMES, GATE_DEGREE) == (888, [])


@pytest.mark.parametrize("primes, counts", [
    (GATE_PRIMES, (3126, 888)), ([7], (1042, 296))], ids=["p235", "p7"])
def test_the_orbit_path_gives_the_direct_checks_to_degree_6(monkeypatch,
                                                            primes, counts):
    assert orbit_path_against_direct(primes, GATE_DEGREE, monkeypatch) == (
        *counts, [])


@pytest.mark.parametrize("faulty", [False, True],
                         ids=["sound", "cycle-local-fault"])
@pytest.mark.parametrize("check", ROUTED_CHECKS)
def test_routed_checks_give_the_direct_result_to_degree_6(monkeypatch, check,
                                                          faulty):
    strata = multi_cycle_strata(GATE_PRIMES, GATE_DEGREE)
    assert len(strata) == 2748
    statuses = routed_against_direct(check, strata, monkeypatch, faulty)
    if faulty:
        assert statuses["fail"] and statuses["pass"]
    else:
        assert statuses == {"pass": len(strata)}
