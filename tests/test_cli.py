"""End-to-end runs of the command line through main()."""

import concurrent.futures.process
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import parse_oracle
from strata_cones import cli, verify, weights
from strata_cones.cli import (
    DEGREE_MAX,
    EXIT_CHECK_FAILED,
    P_LIST_MAX,
    P_MAX,
    main,
)
from strata_cones.verify import JOBS_MAX, check_report, explore, partitions
from strata_cones.splitting import SplittingConfig, stratum_from_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command(*argv, stderr=subprocess.PIPE, **kwargs) -> subprocess.Popen:
    """The command line in a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-m", "strata_cones.cli", *argv],
                            env=env, stderr=stderr, **kwargs)


# the full describe text: T = all with nonempty S primes and Iw (one and
# two of each), and a stratum whose tables and cones are all nontrivial
DESCRIBE_TEXTS = {
    ("2,1", "all"): """\
stratum T = [0.0,0.1,1.0] over p=2, cycles (2, 1)
tilde closure: [0.0,0.1,1.0]
S: embeddings [0.0,0.1,1.0], primes [1]
Iw: [0]
emb   mu  nu   n  eps
0.0    0   -   2    0
0.1    0   -   2    0
1.0    0   -   1    0
generators (pair family):
  line (1, 2, 0)
  line (2, 1, 0)
  line (0, 0, 3)
generators (one ray per embedding):
  line (1, 2, 0)
  line (2, 1, 0)
  line (0, 0, 3)
half-spaces:
minimal cone (reduced coordinates, dim 0):
  (no constraints)
diagonal minimal cone (reduced coordinates, dim 0):
  (no constraints)
""",
    ("2,2,1,1", "all"): """\
stratum T = [0.0,0.1,1.0,1.1,2.0,3.0] over p=2, cycles (2, 2, 1, 1)
tilde closure: [0.0,0.1,1.0,1.1,2.0,3.0]
S: embeddings [0.0,0.1,1.0,1.1,2.0,3.0], primes [2, 3]
Iw: [0, 1]
emb   mu  nu   n  eps
0.0    0   -   2    0
0.1    0   -   2    0
1.0    0   -   2    0
1.1    0   -   2    0
2.0    0   -   1    0
3.0    0   -   1    0
generators (pair family):
  line (1, 2, 0, 0, 0, 0)
  line (2, 1, 0, 0, 0, 0)
  line (0, 0, 1, 2, 0, 0)
  line (0, 0, 2, 1, 0, 0)
  line (0, 0, 0, 0, 3, 0)
  line (0, 0, 0, 0, 0, 3)
generators (one ray per embedding):
  line (1, 2, 0, 0, 0, 0)
  line (2, 1, 0, 0, 0, 0)
  line (0, 0, 1, 2, 0, 0)
  line (0, 0, 2, 1, 0, 0)
  line (0, 0, 0, 0, 3, 0)
  line (0, 0, 0, 0, 0, 3)
half-spaces:
minimal cone (reduced coordinates, dim 0):
  (no constraints)
diagonal minimal cone (reduced coordinates, dim 0):
  (no constraints)
""",
    ("3", "0.1"): """\
stratum T = [0.1] over p=2, cycles (3)
tilde closure: [0.0,0.1]
S: embeddings [0.0,0.1], primes []
Iw: []
emb   mu  nu   n  eps
0.0    2   0   2   -1
0.1    1   1   1    1
0.2    1   0   3    1
generators (pair family):
  ray  (-1, 4, 0)
  ray  (-1, 0, 2)
  ray  (0, 2, -1)
  ray  (0, 0, 7)
  line (2, 1, 0)
generators (one ray per embedding):
  ray  (-4, 0, -1)
  ray  (0, 0, 7)
  line (2, 1, 0)
half-spaces:
  (-1, 2, 0) >= 0
  (-1, 2, 4) >= 0
minimal cone (reduced coordinates, dim 2):
  (-1, 0) >= 0
  (1, 4) >= 0
diagonal minimal cone (reduced coordinates, dim 2):
  (-1, 0) >= 0
  (1, 4) >= 0
""",
}


def test_describe_text(capsys):
    for (cycles, t), text in DESCRIBE_TEXTS.items():
        code, out, _ = run(capsys, "describe", "--p", "2", "--cycles",
                           cycles, "--t", t)
        assert code == 0
        assert out == text


# the full reply of every other text form and one usage error per
# subcommand, whose usage line pins the order of its flags (80 columns)
REPLIES = {
    ("member", "--p", "2", "--cycles", "3", "--t", "0.1",
     "--weight", "-1,0,0"): (0, """\
(-1, 0, 0) lies in the weight cone of [0.1]
  1/4 * ray (0, 0, 1)
  1/4 * ray (0, 2, -1)
  -1/2 * line (2, 1, 0)
""", ""),
    ("member", "--p", "2", "--cycles", "3", "--t", "0.1",
     "--weight", "1,0,0"): (0, """\
(1, 0, 0) is outside the weight cone of [0.1]: violated form (-1, 2, 0)
""", ""),
    ("minimal", "--p", "2", "--cycles", "3", "--t", "0.1",
     "--weight", "-1,0,0"): (0, """\
reduction of (-1, 0, 0) on [0.1]: (-1, 0)
forced divisors: [0.0]
in minimal cone: no
in diagonal minimal cone: no
""", ""),
    ("gl2", "--p", "3", "--cycles", "2", "--weight", "1,1"): (0, """\
delta class of (1, 1): 4 mod 8
""", ""),
    ("gl2", "--p", "3", "--cycles", "2", "--t", "0.1",
     "--biweight", "5,7;-1,3"): (0, """\
((5, 7); (-1, 3)) lies in the bi-weight cone of [0.1] (first component free, \
second in the weight cone)
""", ""),
    ("gl2", "--p", "3", "--cycles", "2", "--t", "0.1",
     "--biweight", "5,7;1,0"): (0, """\
((5, 7); (1, 0)) is outside the bi-weight cone of [0.1]: violated form \
(-1, 3) on the second component
""", ""),
    ("check", "--p", "2", "--cycles", "3", "--t", "0.1"): (0, """\
[0.1] optimal_basis: pass
[0.1] explicit_halfspaces: pass
[0.1] biorthogonality: pass
[0.1] admissible_dichotomy: pass
[0.1] hasse_identity: pass
[0.1] reduction_identities: pass
[0.1] recipe_weights: pass
[0.1] divisor_functionals: pass
[0.1] minimal_nesting: pass
[0.1] diagonal_minimal: info
[0.1] gl2_product: pass
[0.1] delta_kernel: pass
[0.1] product_structure: info
[0.1] minimal_equality: info
summary: 11 pass, 0 fail, 3 info over 1 strata
""", ""),
    ("explore", "--p-list", "3", "--d-max", "1"): (0, """\
checked 2 strata: 22 pass, 0 fail, 6 info
open question: 0 strata with distinct minimal-cone variants
""", ""),
    ("describe", "--p", "x"): (3, "", """\
usage: strata-cones describe [-h] --p P --cycles CYCLES [--t T] [--json]
                             [-o OUTPUT]
strata-cones describe: error: argument --p: invalid int value: 'x'
"""),
    ("check", "--p", "x"): (3, "", """\
usage: strata-cones check [-h] --p P --cycles CYCLES [--t T] [--json]
                          [-o OUTPUT] [--jobs JOBS]
strata-cones check: error: argument --p: invalid int value: 'x'
"""),
    ("explore", "--d-max", "y"): (3, "", """\
usage: strata-cones explore [-h] [--p-list P_LIST] [--d-max D_MAX]
                            [--jobs JOBS] [--json] [-o OUTPUT]
strata-cones explore: error: argument --d-max: invalid int value: 'y'
"""),
    ("member", "--p", "x"): (3, "", """\
usage: strata-cones member [-h] --p P --cycles CYCLES [--t T]
                           [--weight WEIGHT] [--json] [-o OUTPUT]
strata-cones member: error: argument --p: invalid int value: 'x'
"""),
    ("minimal", "--p", "x"): (3, "", """\
usage: strata-cones minimal [-h] --p P --cycles CYCLES [--t T]
                            [--weight WEIGHT] [--json] [-o OUTPUT]
strata-cones minimal: error: argument --p: invalid int value: 'x'
"""),
    ("gl2", "--p", "x"): (3, "", """\
usage: strata-cones gl2 [-h] --p P --cycles CYCLES [--t T] [--weight WEIGHT]
                        [--json] [-o OUTPUT] [--biweight BIWEIGHT]
strata-cones gl2: error: argument --p: invalid int value: 'x'
"""),
}


def test_replies_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, reply in REPLIES.items():
        assert run(capsys, *argv) == reply, argv


def test_the_parser_is_built_once_across_calls(capsys, monkeypatch):
    # each subcommand's grammar is read from `_SUBCOMMANDS` and `_FLAGS`
    # once, on its first call, refusals included; no call builds a
    # standard parser
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._grammar.cache_clear()
    try:
        calls = [("member", "--p", "2", "--cycles", "3", "--t", "0.1",
                  "--weight", "1,0,0"),
                 ("gl2", "--p", "x"),
                 ("gl2", "--p", "3", "--cycles", "2", "--weight", "1,1"),
                 ("explore", "--d-max", "y"),
                 ("member", "--p", "2", "--cycles", "3", "--t", "0.1",
                  "--weight", "1,0,0")]
        for argv in calls:
            assert run(capsys, *argv) == REPLIES[argv], argv
        grammars = cli._grammar.cache_info()
    finally:
        cli._grammar.cache_clear()
    assert (grammars.misses, grammars.hits) == (3, 2)
    assert built == []


def test_describe_json(capsys):
    code, out, _ = run(capsys, "describe", "--p", "2", "--cycles", "3",
                       "--t", "0.1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["t"] == "0.1"
    assert doc["tables"]["mu"] == {"0.0": "2", "0.1": "1", "0.2": "1"}


def test_describe_rejects_a_composite_p(capsys):
    code, _, err = run(capsys, "describe", "--p", "4", "--cycles", "3",
                       "--t", "0.1")
    assert code == 3
    assert "p must be prime" in err


def test_describe_rejects_a_bad_stratum(capsys):
    code, _, err = run(capsys, "describe", "--p", "2", "--cycles", "3",
                       "--t", "0.7")
    assert code == 3
    assert "out of range" in err
    code, _, err = run(capsys, "describe", "--p", "2", "--cycles", "3")
    assert code == 3
    assert "--t is required" in err


def test_check_single_stratum_passes(capsys):
    code, out, _ = run(capsys, "check", "--p", "2", "--cycles", "3",
                       "--t", "0.1")
    assert code == 0
    assert "[0.1] admissible_dichotomy: pass" in out
    assert "0 fail" in out


def test_check_single_stratum_fails(capsys):
    code, out, _ = run(capsys, "check", "--p", "3", "--cycles", "2",
                       "--t", "0.1")
    assert code == 2
    assert "[0.1] admissible_dichotomy: fail" in out


def test_check_json_matches_the_library(capsys):
    code, out, _ = run(capsys, "check", "--p", "2", "--cycles", "2",
                       "--json")
    assert code == 2
    assert json.loads(out) == check_report(SplittingConfig(2, (2,))).to_dict()


def test_explore_json_round_trips(capsys):
    code, out, _ = run(capsys, "explore", "--p-list", "3", "--d-max", "1",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == explore([3], 1).to_dict()
    assert doc["schema"] == 1
    assert doc["summary"]["fail"] == 0


def test_explore_rejects_a_zero_degree_bound(capsys):
    code, _, err = run(capsys, "explore", "--d-max", "0")
    assert code == 3
    assert "--d-max" in err


def test_explore_rejects_a_composite_p(capsys):
    code, out, err = run(capsys, "explore", "--p-list", "4", "--d-max", "1")
    assert (code, out) == (3, "")
    assert "p must be prime" in err


def test_member_inside_certificate_reconstructs_the_weight(capsys):
    code, out, _ = run(capsys, "member", "--p", "2", "--cycles", "3",
                       "--t", "0.1", "--weight", "-1,0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["inside"] is True
    total = [Fraction(0)] * 3
    for i, c in doc["ray_coeffs"].items():
        assert Fraction(c) >= 0
        for k, x in enumerate(doc["rays"][int(i)]):
            total[k] += Fraction(c) * Fraction(x)
    for i, c in doc["line_coeffs"].items():
        for k, x in enumerate(doc["lines"][int(i)]):
            total[k] += Fraction(c) * Fraction(x)
    assert total == [Fraction(x) for x in doc["weight"]]


def test_member_outside_reports_the_form_and_still_exits_zero(capsys):
    code, out, _ = run(capsys, "member", "--p", "2", "--cycles", "3",
                       "--t", "0.1", "--weight", "1,0,0")
    assert code == 0
    assert "outside the weight cone" in out
    assert "violated form" in out


def test_member_rejects_a_weight_of_the_wrong_length(capsys):
    code, _, err = run(capsys, "member", "--p", "2", "--cycles", "3",
                       "--t", "0.1", "--weight", "1,0")
    assert code == 3
    assert "length" in err
    code, _, err = run(capsys, "member", "--p", "2", "--cycles", "2",
                       "--t", "0.1", "--weight", "1,x")
    assert code == 3
    assert "--weight must be a comma-separated integer list" in err


def test_minimal_reports_the_forced_divisor(capsys):
    code, out, _ = run(capsys, "minimal", "--p", "2", "--cycles", "3",
                       "--t", "0.1", "--weight", "-1,0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] == ["-1", "0"]
    assert doc["forced_divisors"] == ["0.0"]
    assert doc["in_minimal"] is False
    assert doc["in_minimal0"] is False


def test_minimal_builds_each_divisibility_functional_once(capsys,
                                                          monkeypatch):
    # T = {0.0} on a 6-cycle: 5 admissible beta with 4 forms each, shared
    # by the forced divisors, "min" and "min0", whose diagonal forms are
    # the first of each beta's forms
    calls = []
    build = weights.functional_Lf

    def counted(stratum, beta, tau):
        calls.append((beta, tau))
        return build(stratum, beta, tau)

    monkeypatch.setattr(weights, "functional_Lf", counted)
    code, _, _ = run(capsys, "minimal", "--p", "2", "--cycles", "6",
                     "--t", "0.0", "--weight", "1,2,3,4,5,6")
    assert code == 0
    assert (len(calls), len(set(calls))) == (20, 20)


def test_gl2_delta_class(capsys):
    code, out, _ = run(capsys, "gl2", "--p", "3", "--cycles", "2",
                       "--weight", "1,1")
    assert code == 0
    assert "4 mod 8" in out


def test_gl2_biweight_membership(capsys):
    code, out, _ = run(capsys, "gl2", "--p", "3", "--cycles", "2",
                       "--t", "0.1", "--biweight", "5,7;-1,3")
    assert code == 0
    assert "lies in the bi-weight cone" in out
    code, out, _ = run(capsys, "gl2", "--p", "3", "--cycles", "2",
                       "--t", "0.1", "--biweight", "5,7;1,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["inside"] is False
    assert doc["violated_form"][:2] == ["0", "0"]


def test_gl2_without_weight_or_biweight_is_a_usage_error(capsys):
    code, _, err = run(capsys, "gl2", "--p", "3", "--cycles", "2")
    assert code == 3
    assert "--weight" in err
    code, _, err = run(capsys, "gl2", "--p", "3", "--cycles", "2",
                       "--t", "0.1", "--biweight", "1,2")
    assert code == 3
    assert "--biweight must be 'lam;kappa'" in err


def test_output_flag_writes_a_file(tmp_path, capsys):
    target = tmp_path / "dossier.json"
    code, out, _ = run(capsys, "describe", "--p", "2", "--cycles", "3",
                       "--t", "0.1", "--json", "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["t"] == "0.1"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before -o was opened")
    # `_explore_sweep` only builds the lazy record tasks while the inputs
    # are checked; `_sweep_reply` is what runs them
    for name in ("stratum_dossier", "_check_sweep", "_sweep_reply"):
        monkeypatch.setattr(cli, name, unreachable)
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing" / "x.json"
    # an empty path is a path like any other, not a request for stdout
    for output, target, reason in (
            (("-o", str(missing)), missing, "No such file or directory"),
            (("-o", str(tmp_path)), tmp_path, "Is a directory"),
            (("-o", ""), "", "No such file or directory"),
            (("--output=",), "", "No such file or directory")):
        for argv in (("describe", "--p", "2", "--cycles", "3", "--t", "0.1",
                      "--json"),
                     ("check", "--p", "2", "--cycles", "1"),
                     ("explore", "--p-list", "2", "--d-max", "5")):
            assert run(capsys, *argv, *output) == (
                3, "",
                f"strata-cones: error: cannot write {target}: {reason}\n")
    assert list(tmp_path.iterdir()) == []


def test_output_is_created_when_the_work_starts(tmp_path, capsys,
                                                monkeypatch):
    target = tmp_path / "report.json"
    # invalid inputs, those the library refuses too, are refused before -o
    # is opened
    for argv in (("check", "--p", "2", "--cycles", "1", "--t", "0.7"),
                 ("explore", "--p-list", "4", "--d-max", "1")):
        assert run(capsys, *argv, "-o", str(target))[0] == 3
        assert not target.exists()
    seen = []

    def write_report_spy(write, config, tasks, jobs, layout, task):
        seen.append((target.exists(), layout, task))
        return verify._write_report(write, config, tasks, jobs, layout, task)
    monkeypatch.setattr(cli, "_write_report", write_report_spy)
    code, out, err = run(capsys, "check", "--p", "2", "--cycles", "1",
                         "--json", "-o", str(target))
    report = check_report(SplittingConfig(2, (1,)))
    assert (code, out, err, seen) == (
        2 if report.summary["fail"] else 0, "", "",
        [(True, verify._json_layout, verify._record_task)])
    assert target.read_text() == report.to_json() + "\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
def test_a_failed_write_is_a_usage_error(capsys):
    assert run(capsys, "describe", "--p", "2", "--cycles", "3", "--t", "0.1",
               "-o", "/dev/full") == (
        3, "", "strata-cones: error: cannot write /dev/full: "
        "No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
def test_a_failed_write_to_stdout_is_a_usage_error():
    with open("/dev/full", "w") as full:
        proc = command("explore", "--p-list", "2", "--d-max", "1", "--json",
                       stdout=full)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (
        3, b"strata-cones: error: cannot write stdout: "
        b"No space left on device\n")


def test_a_help_that_cannot_be_written_is_dropped():
    # as argparse did: no traceback and no error line, and exit 0
    with open("/dev/full", "w") as full:
        proc = command("describe", "-h", stdout=full)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_a_pipe_closed_early_is_a_usage_error():
    # the report is larger than the pipe's buffer, so a write finds it closed
    proc = command("explore", "--p-list", "2", "--d-max", "4", "--json",
                   stdout=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (len(head), proc.returncode, err) == (
        100, 3, b"strata-cones: error: cannot write stdout: Broken pipe\n")


def test_a_pipe_closed_early_on_stdout_and_stderr_is_a_usage_error():
    # as `2>&1 | head`: the error line meets the closed pipe too, and the
    # exit code stays the usage error's, not the failed pool's
    proc = command("explore", "--p-list", "2", "--d-max", "4", "--json",
                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    head = proc.stdout.read(100)
    proc.stdout.close()
    assert (len(head), proc.wait(timeout=60)) == (100, 3)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_write_that_fails_mid_sweep_stops_the_sweep(jobs, tmp_path, capsys,
                                                       monkeypatch):
    # each record appends a line, from the worker that built it under --jobs 2
    calls = tmp_path / "calls"
    real = verify.stratum_record

    def spy(stratum):
        with open(calls, "a") as handle:
            handle.write(f"{stratum.key()}\n")
        return real(stratum)
    monkeypatch.setattr(verify, "stratum_record", spy)
    assert run(capsys, "explore", "--p-list", "2", "--d-max", "5", "--json",
               "--jobs", jobs, "-o", "/dev/full") == (
        3, "", "strata-cones: error: cannot write /dev/full: "
        "No space left on device\n")
    strata = sum(2 ** d for d in range(1, 6) for _ in partitions(d))
    assert 0 < len(calls.read_text().splitlines()) < strata // 2


def check_text(report) -> str:
    """The text of `check`, read off the library's report."""
    lines = [f"[{record['t']}] {check['name']}: {check['status']}"
             for record in report.strata for check in record["checks"]]
    lines.append(f"summary: {report.summary['pass']} pass, "
                 f"{report.summary['fail']} fail, "
                 f"{report.summary['info']} info over "
                 f"{report.summary['strata']} strata")
    return "\n".join(lines) + "\n"


def explore_text(report) -> str:
    """The text of `explore`, read off the library's report."""
    lines = [f"checked {report.summary['strata']} strata: "
             f"{report.summary['pass']} pass, "
             f"{report.summary['fail']} fail, "
             f"{report.summary['info']} info"]
    lines += [f"FAIL p={record['p']} cycles=({','.join(record['cycles'])}) "
              f"[{record['t']}] {check['name']}"
              for record in report.strata for check in record["checks"]
              if check["status"] == "fail"]
    lines.append(f"open question: {report.open_question['unequal']} "
                 "strata with distinct minimal-cone variants")
    return "\n".join(lines) + "\n"


# each command line beside the report it must write, built by the library
COMMANDS = {
    "one-stratum": (("check", "--p", "3", "--cycles", "2,1", "--t", "0.1"),
                    lambda config=SplittingConfig(3, (2, 1)): check_report(
                        config, [stratum_from_text(config, "0.1")])),
    "failures": (("check", "--p", "2", "--cycles", "2"),
                 lambda: check_report(SplittingConfig(2, (2,)))),
    "explore": (("explore", "--p-list", "2,3", "--d-max", "3"),
                lambda: explore([2, 3], 3)),
}
# ... with --json, and as text, whose lines are read off the report
STREAMED = {name: ((*argv, "--json"), build, lambda r: r.to_json() + "\n")
            for name, (argv, build) in COMMANDS.items()} | {
    f"{name}-text": (argv, build, {"check": check_text,
                                   "explore": explore_text}[argv[0]])
    for name, (argv, build) in COMMANDS.items()}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", STREAMED)
def test_streamed_json_is_the_report_text(case, jobs, tmp_path, capsys):
    argv, build, reply = STREAMED[case]
    report = build()
    code = EXIT_CHECK_FAILED if report.summary["fail"] else 0
    text = reply(report)
    assert run(capsys, *argv, "--jobs", jobs) == (code, text, "")
    target = tmp_path / "report"
    assert run(capsys, *argv, "--jobs", jobs, "-o", str(target)) \
        == (code, "", "")
    assert target.read_text() == text


# every answered command line above, to be run with --json
JSON_CASES = ([("describe", "--p", "2", "--cycles", cycles, "--t", t)
               for cycles, t in DESCRIBE_TEXTS]
              + [argv for argv, (code, _, _) in REPLIES.items() if code == 0]
              + [argv for argv, _ in COMMANDS.values()])


def test_json_replies_are_written_as_the_json_module_does(capsys,
                                                          monkeypatch):
    written = []

    def recording(dumps):
        def record(obj, newline="\n"):
            written.append((obj, newline, dumps(obj, newline)))
            return written[-1][2]
        return record
    # the writer's own nested calls are recorded too
    monkeypatch.setattr(cli, "_dumps", recording(cli._dumps))
    monkeypatch.setattr(verify, "_dumps", recording(verify._dumps))
    for argv in JSON_CASES:
        code, out, _ = run(capsys, *argv, "--json")
        assert code in (0, EXIT_CHECK_FAILED) and out, argv
    assert len(written) > len(JSON_CASES)
    for obj, newline, text in written:
        assert text == json.dumps(obj, indent=2).replace("\n", newline)


def test_the_report_is_written_as_its_records_arrive(monkeypatch):
    report = check_report(SplittingConfig(2, (2,)))
    text = report.to_json()
    # the first record as the `strata` list indents it
    first = "    " + json.dumps(report.strata[0], indent=2).replace(
        "\n", "\n    ")
    head = text[:text.index(first) + len(first)]
    out = io.StringIO()  # records every write
    seen = []
    real = verify.stratum_record

    def spy(stratum):
        seen.append(out.getvalue())
        return real(stratum)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(verify, "stratum_record", spy)
    code = main(["check", "--p", "2", "--cycles", "2", "--json"])
    assert (code, seen[:2], out.getvalue()) == (2, ["", head], text + "\n")


def test_the_check_text_is_written_as_its_records_arrive(monkeypatch):
    report = check_report(SplittingConfig(2, (2,)))
    first = report.strata[0]
    head = "".join(f"[{first['t']}] {check['name']}: {check['status']}\n"
                   for check in first["checks"])
    out = io.StringIO()  # records every write
    seen = []
    # the text reads each stratum's checks alone, built by `stratum_checks`
    real = verify.stratum_checks

    def spy(stratum):
        seen.append(out.getvalue())
        return real(stratum)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(verify, "stratum_checks", spy)
    code = main(["check", "--p", "2", "--cycles", "2"])
    assert (code, seen[:2], out.getvalue()) == (
        2, ["", head], check_text(report))


def test_text_replies_build_no_dossier(capsys, monkeypatch):
    # the replies, built by the library first, which builds every dossier
    replies = []
    for argv, build, text in (
            (("check", "--p", "2", "--cycles", "2"),
             lambda: check_report(SplittingConfig(2, (2,))), check_text),
            (("explore", "--p-list", "2,3", "--d-max", "3"),
             lambda: explore([2, 3], 3), explore_text)):
        report = build()
        code = EXIT_CHECK_FAILED if report.summary["fail"] else 0
        replies.append((argv, (code, text(report), "")))

    def unreachable(stratum):
        raise AssertionError("a text reply built a dossier")
    monkeypatch.setattr(verify, "stratum_dossier", unreachable)
    for argv, reply in replies:
        assert run(capsys, *argv) == reply


def test_check_with_two_jobs_matches_the_library(capsys):
    code, out, _ = run(capsys, "check", "--p", "2", "--cycles", "2",
                       "--json", "--jobs", "2")
    assert code == 2
    assert json.loads(out) == check_report(SplittingConfig(2, (2,))).to_dict()


def test_jobs_outside_the_bound_is_a_usage_error(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a refused worker count reached the pool")
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        no_pool)
    for jobs in ("0", "-1", str(JOBS_MAX + 1), "100000"):
        for argv in (("check", "--p", "2", "--cycles", "2"),
                     ("explore", "--p-list", "2", "--d-max", "1")):
            code, out, err = run(capsys, *argv, "--jobs", jobs)
            assert (code, out) == (3, "")
            assert f"--jobs must be between 1 and {JOBS_MAX}" in err


def test_a_failed_worker_pool_exits_one(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError("no processes")
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        no_pool)
    code, out, err = run(capsys, "check", "--p", "2", "--cycles", "2",
                         "--jobs", "2")
    assert (code, out) == (1, "")
    assert "no processes; rerun with --jobs 1" in err


def test_inputs_at_the_bounds_are_accepted(capsys):
    weight = ",".join(["1"] * DEGREE_MAX)
    # 999983 is the largest prime below P_MAX
    code, out, _ = run(capsys, "gl2", "--p", "999983", "--cycles",
                       f"{DEGREE_MAX - 1},1", "--weight", weight)
    assert code == 0
    assert out.startswith(f"delta class of ({weight.replace(',', ', ')})")


def test_inputs_beyond_the_bounds_are_usage_errors(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused input reached the work")
    for name in ("SplittingConfig", "_check_sweep", "_explore_sweep"):
        monkeypatch.setattr(cli, name, unreachable)
    over = P_MAX + 1
    refused = {
        ("describe", "--p", str(over), "--cycles", "1", "--t", ""):
            f"--p must be at most {P_MAX}, got {over}",
        ("check", "--p", str(10**40), "--cycles", "1"):
            f"--p must be at most {P_MAX}, got {10**40}",
        ("check", "--p", "2", "--cycles", ",".join(["1"] * 11)):
            f"the sum of --cycles must be at most {DEGREE_MAX}, got 11",
        ("gl2", "--p", "2", "--cycles", "6,6", "--weight", "1"):
            f"the sum of --cycles must be at most {DEGREE_MAX}, got 12",
        ("explore", "--p-list", f"2,{over}", "--d-max", "1"):
            f"--p-list entry must be at most {P_MAX}, got {over}",
        ("explore", "--d-max", str(DEGREE_MAX + 1)):
            f"--d-max must be at most {DEGREE_MAX}, got {DEGREE_MAX + 1}",
        ("explore", "--p-list", "2", "--d-max", "100000", "--json"):
            f"--d-max must be at most {DEGREE_MAX}, got 100000",
        ("explore", "--p-list", "", "--d-max", "1"):
            "--p-list must be a comma-separated integer list, got ''",
        # --t beside --weight, before the configuration is built
        ("gl2", "--p", "2", "--cycles", "2", "--weight", "1,1",
         "--t", "9.9"): "gl2 takes --t only with --biweight",
    }
    for argv, message in refused.items():
        assert run(capsys, *argv) == (3, "", f"strata-cones: error: {message}\n")


def test_the_number_of_p_list_entries_is_bounded(capsys, monkeypatch):
    reached = []

    class Reached(Exception):
        pass

    def unreachable(*args, **kwargs):
        raise AssertionError("a refused input reached the work")

    def explore_stub(p_list, d_max):
        reached.append(p_list)
        raise Reached
    monkeypatch.setattr(cli, "SplittingConfig", unreachable)
    monkeypatch.setattr(cli, "_explore_sweep", explore_stub)
    over = ",".join(["2"] * (P_LIST_MAX + 1))
    assert run(capsys, "explore", "--p-list", over, "--d-max", "1") == (
        3, "", "strata-cones: error: the number of --p-list entries must be "
        f"at most {P_LIST_MAX}, got {P_LIST_MAX + 1}\n")
    assert reached == []
    at_bound = ",".join(["2"] * P_LIST_MAX)
    with pytest.raises(Reached):
        main(["explore", "--p-list", at_bound, "--d-max", "1"])
    assert reached == [[2] * P_LIST_MAX]


TOP_USAGE = """\
usage: strata-cones [-h] {describe,check,explore,member,minimal,gl2} ...
"""


def test_unknown_subcommand_exits_with_usage(capsys):
    assert run(capsys, "bogus") == (3, "", TOP_USAGE + """\
strata-cones: error: argument subcommand: invalid choice: 'bogus' (choose \
from 'describe', 'check', 'explore', 'member', 'minimal', 'gl2')
""")


def test_missing_subcommand_exits_with_usage(capsys):
    assert run(capsys) == (3, "", TOP_USAGE + """\
strata-cones: error: the following arguments are required: subcommand
""")


def test_leftover_arguments_get_the_top_level_usage(capsys):
    assert run(capsys, "describe", "--p", "2", "--cycles", "3", "--t", "0.1",
               "--bogus") == (3, "", TOP_USAGE + """\
strata-cones: error: unrecognized arguments: --bogus
""")


# a dash-value flag that the subcommand does not declare is refused as typed,
# not as the joined "--weight=-1,0,0"
@pytest.mark.parametrize("flag", ["--weight", "--w"])
def test_an_undeclared_dash_value_flag_is_refused_as_typed(capsys, flag):
    assert run(capsys, "describe", "--p", "2", "--cycles", "3", "--t", "0.1",
               flag, "-1,0,0") == (3, "", TOP_USAGE + f"""\
strata-cones: error: unrecognized arguments: {flag} -1,0,0
""")


def test_a_declared_dash_value_flag_still_takes_its_value(capsys):
    code, out, err = run(capsys, "member", "--p", "2", "--cycles", "3",
                         "--t", "0.1", "--weight", "-1,0,0")
    assert (code, err) == (0, "")
    assert out.startswith("(-1, 0, 0) lies in the weight cone of [0.1]\n")


# the top-level help at 80 columns
TOP_HELP = TOP_USAGE + """
Exact weight-cone computations for Goren-Oort strata.

positional arguments:
  {describe,check,explore,member,minimal,gl2}
    describe            stratum dossier
    check               run all checks
    explore             sweep primes and degrees
    member              weight-cone membership
    minimal             reduction and minimal-cone data
    gl2                 delta class / bi-weight membership

options:
  -h, --help            show this help message and exit
"""


def test_help_lists_the_subcommands(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "-h") == (0, TOP_HELP, "")


# each subcommand's help as argparse 3.10-3.12 writes it at 80 columns
OPTIONS_HELP = """
options:
  -h, --help            show this help message and exit
"""
STRATUM_HELP = """\
  --p P                 the rational prime
  --cycles CYCLES       comma-separated cycle lengths
  --t T                 stratum: 'cycle.pos' comma list, '' for the empty
                        stratum, 'all' for everything
"""
WEIGHT_HELP = """\
  --weight WEIGHT       comma-separated integer weight
"""
OUTPUT_HELP = """\
  --json                emit JSON instead of text
  -o OUTPUT, --output OUTPUT
                        write output to this path instead of stdout
"""
JOBS_HELP = """\
  --jobs JOBS           worker processes (default 1)
"""
HELPS = {
    "describe": """\
usage: strata-cones describe [-h] --p P --cycles CYCLES [--t T] [--json]
                             [-o OUTPUT]
""" + OPTIONS_HELP + STRATUM_HELP + OUTPUT_HELP,
    "check": """\
usage: strata-cones check [-h] --p P --cycles CYCLES [--t T] [--json]
                          [-o OUTPUT] [--jobs JOBS]
""" + OPTIONS_HELP + STRATUM_HELP + OUTPUT_HELP + JOBS_HELP,
    "explore": """\
usage: strata-cones explore [-h] [--p-list P_LIST] [--d-max D_MAX]
                            [--jobs JOBS] [--json] [-o OUTPUT]
""" + OPTIONS_HELP + """\
  --p-list P_LIST       comma-separated primes (default 2,3,5)
  --d-max D_MAX         largest total degree (default 5)
""" + JOBS_HELP + OUTPUT_HELP,
    "member": """\
usage: strata-cones member [-h] --p P --cycles CYCLES [--t T]
                           [--weight WEIGHT] [--json] [-o OUTPUT]
""" + OPTIONS_HELP + STRATUM_HELP + WEIGHT_HELP + OUTPUT_HELP,
    "minimal": """\
usage: strata-cones minimal [-h] --p P --cycles CYCLES [--t T]
                            [--weight WEIGHT] [--json] [-o OUTPUT]
""" + OPTIONS_HELP + STRATUM_HELP + WEIGHT_HELP + OUTPUT_HELP,
    "gl2": """\
usage: strata-cones gl2 [-h] --p P --cycles CYCLES [--t T] [--weight WEIGHT]
                        [--json] [-o OUTPUT] [--biweight BIWEIGHT]
""" + OPTIONS_HELP + STRATUM_HELP + WEIGHT_HELP + OUTPUT_HELP + """\
  --biweight BIWEIGHT   'lam;kappa' pair of comma-separated lists
""",
}


# the help and the usage lines are written at 80 columns, whatever COLUMNS
# says, as every interpreter writes them (`gate/test_cross_version.py`)
@pytest.mark.parametrize("columns", [None, "40", "80", "200"])
def test_help_and_usage_do_not_follow_columns(capsys, monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert run(capsys, "-h") == (0, TOP_HELP, "")
    for name, text in HELPS.items():
        assert run(capsys, name, "-h") == (0, text, ""), name
    argv = ("gl2", "--p", "x")
    assert run(capsys, *argv) == REPLIES[argv]


def test_a_named_subcommand_is_parsed_by_its_own_parser(capsys, monkeypatch):
    # the walk reads it and writes no text: no usage line and no help is
    # built, and no reply imports argparse (`tests/test_imports.py`)
    def refuse(*args, **kwargs):
        raise AssertionError("a text was built for an accepted subcommand")

    monkeypatch.setattr(cli, "_stop", refuse)
    for argv, reply in REPLIES.items():
        if reply[0] == 0:
            assert run(capsys, *argv) == reply, argv


# flags are spelled in full: every prefix of a dash-value flag is refused as
# typed, with a value that starts with a minus sign or not, where the full
# flag answers
@pytest.mark.parametrize("argv, flag, value", [
    (("member", "--p", "2", "--cycles", "3", "--t", "0.1"), "--weight",
     "-1,0,0"),
    (("member", "--p", "2", "--cycles", "3", "--t", "0.1"), "--weight",
     "1,0,0"),
    (("minimal", "--p", "2", "--cycles", "3", "--t", "0.1", "--json"),
     "--weight", "-1,0,0"),
    (("gl2", "--p", "3", "--cycles", "2"), "--weight", "-1,1"),
    (("gl2", "--p", "3", "--cycles", "2", "--t", "0.1"), "--biweight",
     "-5,7;-1,3"),
    (("gl2", "--p", "3", "--cycles", "2", "--t", "0.1"), "--biweight",
     "5,7;1,0"),
])
def test_abbreviated_dash_value_flags_are_refused(capsys, argv, flag, value):
    assert run(capsys, *argv, flag, value)[0] == 0
    for end in range(3, len(flag)):
        prefix = flag[:end]
        assert run(capsys, *argv, prefix, value) == (3, "", TOP_USAGE + f"""\
strata-cones: error: unrecognized arguments: {prefix} {value}
"""), prefix


def test_explore_reads_p_as_typed_not_as_p_list(capsys):
    assert run(capsys, "explore", "--p", "7", "--d-max", "1") == (
        3, "", TOP_USAGE + """\
strata-cones: error: unrecognized arguments: --p 7
""")


@pytest.mark.parametrize("weights", [
    ("--weight", "1,1", "--biweight", "1,1;1,1"),
    ("--biweight", "1,1;1,1", "--weight", "1,1"),
    ("--weight", "-1,1", "--biweight", "-1,1;1,1", "--json"),
])
def test_gl2_takes_one_of_weight_and_biweight(capsys, weights):
    assert run(capsys, "gl2", "--p", "3", "--cycles", "2", "--t", "0.1",
               *weights) == (3, "", "strata-cones: error: gl2 takes one of "
                                    "--weight and --biweight\n")


# a delta class reads no stratum, so --t beside --weight was accepted and
# ignored; a stratum that does not exist is refused in the bounds table
def test_gl2_takes_t_only_with_biweight(capsys):
    assert run(capsys, "gl2", "--p", "2", "--cycles", "2", "--weight", "1,1",
               "--t", "0.1") == (3, "", "strata-cones: error: gl2 takes --t "
                                        "only with --biweight\n")


# the hostile-input contract as a property: argument vectors drawn from the
# subcommand grammar, mixed with hostile tokens, are accepted within every
# bound or refused with exit 3 and one error line, never with a traceback
COMMAND_NAMES = ("describe", "check", "explore", "member", "minimal", "gl2")
HOSTILE = (str(10**100), "0", "-5", "4", "1", "", "\u0663", "\uff12", "x",
           "-", "--", "--p", "--json")
# per flag: values within the grammar, then values beyond a bound or the
# grammar
VALUES = {
    "--p": (("2", "3", "7", "999983"), (str(P_MAX + 1), "-2", "9")),
    "--cycles": (("3", "2,1"), ("6,6", ",".join(["1"] * 11), "3,-1",
                                "1,,1", "\u0663", "-3,1")),
    "--t": (("0.1", "", "all", "0.0,1.0"),
            ("0.0,0.0", "1.0", "0.9", "0.a", "0.1.2")),
    "--weight": (("1,0,0", "-1,0,0"), ("1,2", f"{10**100},0,0", "1,x,0")),
    "--biweight": (("1,0,0;1,0,0", "-1,0,0;0,0,0"), ("1;2;3", "1,0,0", ";")),
    "--p-list": (("2,3,5", "7", ",".join(["2"] * P_LIST_MAX)),
                 (",".join(["2"] * (P_LIST_MAX + 1)), "2,x", "-3", "9")),
    "--d-max": (("1", "3", str(DEGREE_MAX)), (str(DEGREE_MAX + 1), "-1")),
    "--jobs": (("1", "2", str(JOBS_MAX)), (str(JOBS_MAX + 1), "-1")),
    "--json": ((), ("1",)),
    "--output": (("report.json",), ("",)),
}
# how a flag and its value are written; a one-letter flag may also carry it
FORMS = {False: ("split", "equals"), True: ("split", "equals", "attached")}
STRAY = ("--bogus", "-x", "--", "-", "--p=2", "--cycles", "-h", "--help")
# what may stand before the subcommand's name
PREFIX = ("-h", "--json", "--", "-1", "--bogus", *COMMAND_NAMES)
ERROR_LINE = re.compile(
    rf"strata-cones(?: (?:{'|'.join(COMMAND_NAMES)}))?: error: ")
QUOTED = re.compile(r"'([^']*)'")


def declared_flags(name: str) -> list[str]:
    """The long flags a subcommand declares, in declaration order."""
    return [cli._names(flag)[-1] for flag in cli._SUBCOMMANDS[name][2]]


def abbreviations(name: str) -> set[str]:
    """The prefixes of subcommand `name`'s long flags, from a dash pair and
    one letter on, that it does not declare."""
    flags = declared_flags(name)
    return {flag[:end] for flag in flags
            for end in range(3, len(flag))} - set(flags)


@st.composite
def hostile_argvs(draw) -> list[str]:
    """A command line of the grammar, each flag spelled in full ("-o" may
    carry its value, "-oVALUE" or "-o=VALUE"), then up to three hostile
    edits, among them an abbreviated spelling, at times a token after "--"
    and at times up to two tokens before the subcommand's name; or, now and
    then, an empty one."""
    if not draw(st.integers(0, 19)):
        return []
    name = draw(st.sampled_from(COMMAND_NAMES if draw(st.integers(0, 4))
                                else ("bogus", "desc", "", "--p")))
    flags = (declared_flags(name) if name in COMMAND_NAMES
             else list(VALUES))
    items = []  # [flag, spelling, value, form]
    for flag in draw(st.permutations(flags)):
        good = VALUES[flag][0]
        spelled = draw(st.sampled_from(("--output", "-o"))) \
            if flag == "--output" else flag
        if good:
            items.append([flag, spelled, draw(st.sampled_from(good)),
                          draw(st.sampled_from(FORMS[spelled == "-o"]))])
        else:  # --json takes no value
            items.append([flag, flag, None, "flag"])
    strays = []
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("value", "drop", "repeat", "form",
                                     "abbreviate", "stray")))
        if edit == "stray" or not items:
            strays.append(draw(st.sampled_from(STRAY + HOSTILE)))
            continue
        item = items[draw(st.integers(0, len(items) - 1))]
        if edit == "drop":
            items.remove(item)
            continue
        if edit == "abbreviate":  # "--p" and "--t" have no shorter form
            item[1] = item[0][:draw(st.integers(3, max(3, len(item[0]) - 1)))]
            continue
        if edit == "repeat":
            item = list(item)
            items.insert(draw(st.integers(0, len(items))), item)
        if edit in ("value", "repeat") or item[2] is None:
            item[2] = draw(st.sampled_from(
                VALUES[item[0]][1] if draw(st.booleans()) else HOSTILE))
        item[3] = draw(st.sampled_from(FORMS[item[1] == "-o"] if edit != "form"
                                       else ("flag", "value")))
    argv = [name]
    for _, spelled, value, form in items:
        argv += {"split": [spelled, value], "equals": [f"{spelled}={value}"],
                 "attached": [f"{spelled}{value}"], "flag": [spelled],
                 "value": [value]}[form]
    for token in strays:
        argv.insert(draw(st.integers(0, len(argv))), token)
    if not draw(st.integers(0, 4)):  # left over, whatever it reads as
        argv += ["--", draw(st.sampled_from((*flags, *STRAY, *HOSTILE)))]
    if not draw(st.integers(0, 2)):  # read by the top level
        argv[:0] = draw(st.lists(st.sampled_from(PREFIX), min_size=1,
                                 max_size=2))
    return argv


def parser_vocabulary() -> set[str]:
    """The names the parser owns: its subcommands, every flag, and the
    quoted formats of its help texts ('cycle.pos', 'lam;kappa')."""
    words = set(cli._SUBCOMMANDS)
    for name, (_, _, flags) in cli._SUBCOMMANDS.items():
        words.update(cli._grammar(name)[0])
        for flag in flags:
            words.update(QUOTED.findall(cli._FLAGS[flag]["help"]))
    return words


def assert_within_bounds(declared: dict) -> None:
    """The attributes of a validated command lie within every bound."""
    if "p" in declared:
        assert 2 <= declared["p"] <= P_MAX
    if "cycles" in declared:
        lengths = [int(x) for x in declared["cycles"].split(",")]
        assert min(lengths) >= 1 and sum(lengths) <= DEGREE_MAX
    if "jobs" in declared:
        assert 1 <= declared["jobs"] <= JOBS_MAX
    if "d_max" in declared:
        assert 1 <= declared["d_max"] <= DEGREE_MAX
    if declared.get("p_list") is not None:
        p_list = [int(x) for x in declared["p_list"].split(",")]
        assert 1 <= len(p_list) <= P_LIST_MAX
        assert all(2 <= p <= P_MAX for p in p_list)


def replies(argv, parse) -> tuple:
    """`main`'s exit code, stdout and stderr for `argv` read by `parse`, and
    the attributes of each command it validated, which `_emit` records
    rather than runs."""
    emitted = []

    def record(args, work):
        emitted.append(vars(args))
        return 0
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_parse", parse), \
            mock.patch.object(cli, "_emit", record), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), emitted


# the vectors that crashed the command while argparse up to 3.12 read a flag
# written "=--" as an empty list of values: as first found, with abbreviated
# flags, and spelled in full
@settings(max_examples=500, deadline=None)
@given(hostile_argvs())
@example("member --p=-- --c 3 --t 0.1 --w 1,0,0 --j --o report.json".split())
@example("member --p 2 --c=-- --t 0.1 --w 1,0,0 --j --o report.json".split())
@example("member --p 2 --t=-- --c 3 --w 1,0,0 --j --o report.json".split())
@example("member --p=-- --cycles 3 --t 0.1 --weight 1,0,0 --json --output "
         "report.json".split())
@example("member --p 2 --cycles=-- --t 0.1 --weight 1,0,0 --json --output "
         "report.json".split())
@example("member --p 2 --t=-- --cycles 3 --weight 1,0,0 --json --output "
         "report.json".split())
def test_hostile_input_is_refused_or_kept_within_the_bounds(argv):
    # `_emit` records the validated command and runs nothing: no -o file
    # is opened, no sweep runs and no worker pool starts
    code, out, err, emitted = replies(argv, cli._parse)
    assert "Traceback" not in err
    # -h read before any refusal writes the help, and nothing else
    if "show this help message and exit" in out:
        assert (code, err, emitted) == (0, "", [])
        return
    assert code in (0, 3) and out == "", (code, err)
    if argv and argv[0] in COMMAND_NAMES and any(
            token.partition("=")[0] in abbreviations(argv[0])
            for token in argv[1:]):
        assert code == 3, err
    if code == 0:
        assert err == "" and len(emitted) == 1
        assert_within_bounds(emitted[0])
        return
    assert emitted == []
    errors = [line for line in err.splitlines() if ERROR_LINE.match(line)]
    assert len(errors) == 1, err
    vocabulary = parser_vocabulary()
    for span in QUOTED.findall(errors[0]):
        assert span in vocabulary or any(span in token for token in argv), \
            (span, errors[0])


# the walk against argparse's parse, kept in `tests/parse_oracle.py`: the
# same reply to every command line, and on exit 0 the same attributes
@settings(max_examples=500, deadline=None)
@given(hostile_argvs())
@example("describe --p 2 --cycles 3 --p 3 --t 0.1".split())
@example("describe --p 2 --cycles -3,1 --t 0.1".split())
@example("describe --p x -h".split())
@example("describe -h --p x".split())
@example("describe --bogus -h".split())
@example("describe --p 2 -- --cycles 3".split())
@example("describe --p 2 --cycles 3 --t 0.1 --json=x".split())
@example("member --p 2 --cycles 3 --t 0.1 -o=a --weight -1,0,0 -ob".split())
@example("member --p 2 --cycles 3 --t 0.1 -- --weight -1,0,0".split())
@example(["describe", "-hx"])
@example(["describe", "-ho", "a"])
@example(["-h", "describe"])
@example("--json describe --p 2 --cycles 3 --t 0.1".split())
@example("-- describe --p 2 --cycles 3 --t 0.1".split())
@example("--json member --p 2 --cycles 3 --t 0.1 --weight -1,0,0".split())
def test_the_walk_replies_as_argparse_does(argv):
    with mock.patch.dict(os.environ, COLUMNS="80"):
        assert replies(argv, cli._parse) == replies(argv, parse_oracle.parse)


def test_the_walk_replies_to_the_benchmark_inputs_as_argparse_does(
        monkeypatch):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(root / "bench")
    workloads = importlib.import_module("workloads")
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    argvs = {argv for seed in range(4) for name in workloads.WORKLOADS
             for argv in workloads.build_inputs(name, seed, seconds)}
    monkeypatch.setenv("COLUMNS", "80")
    for argv in sorted(argvs):
        reply = replies(argv, cli._parse)
        assert reply[:3] == (0, "", "") and len(reply[3]) == 1, argv
        assert reply == replies(argv, parse_oracle.parse), argv


def dash_dash_argvs() -> list[tuple[list[str], str]]:
    """Each value flag of each subcommand written "=--", after every other
    value flag of the subcommand with a value of the grammar, then "-o=--",
    "-o--" and "--weight --"; each with the flag its refusal names."""
    argvs = []
    for name in COMMAND_NAMES:
        flags = [flag for flag in declared_flags(name) if VALUES[flag][0]]
        for flag in flags:
            argv = [name]
            for other in flags:
                if other != flag:
                    argv += [other, VALUES[other][0][0]]
            argvs.append((argv + [f"{flag}=--"],
                          "-o/--output" if flag == "--output" else flag))
    member = ["member", "--p", "2", "--cycles", "3", "--t", "0.1"]
    return argvs + [(member + ["--weight", "1,0,0", "-o=--"], "-o/--output"),
                    (member + ["--weight", "1,0,0", "-o--"], "-o/--output"),
                    (member + ["-o", "report.json", "--weight", "--"],
                     "--weight")]


DASH_DASH_ARGVS = dash_dash_argvs()


@pytest.mark.parametrize("argv, flag", DASH_DASH_ARGVS,
                         ids=[argv[0] + "_" + ("_".join(argv[-2:])
                                               if argv[-1] == "--"
                                               else argv[-1])
                              for argv, _ in DASH_DASH_ARGVS])
def test_a_value_flag_joined_to_a_dash_pair_is_refused(
        tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert [line for line in err.splitlines() if ERROR_LINE.match(line)] == [
        f"strata-cones {argv[0]}: error: argument {flag}: "
        "expected one argument"]
    assert list(tmp_path.iterdir()) == []
