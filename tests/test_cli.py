"""End-to-end runs of the command line through main()."""

import concurrent.futures.process
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from strata_cones import cli, verify, weights
from strata_cones.cli import (
    DEGREE_MAX,
    EXIT_CHECK_FAILED,
    JOBS_MAX,
    P_LIST_MAX,
    P_MAX,
    main,
)
from strata_cones.verify import check_report, explore, partitions
from strata_cones.splitting import SplittingConfig, stratum_from_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command(*argv, **kwargs) -> subprocess.Popen:
    """The command line in a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-m", "strata_cones.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


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
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli._build_parser.cache_clear()
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
    finally:
        cli._build_parser.cache_clear()
    assert len(built) <= 7


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
    # by the forced divisors and "min", plus the 5 diagonal forms of "min0"
    calls = []
    build = weights.functional_Lf

    def counted(stratum, beta, tau):
        calls.append((beta, tau))
        return build(stratum, beta, tau)

    monkeypatch.setattr(weights, "functional_Lf", counted)
    code, _, _ = run(capsys, "minimal", "--p", "2", "--cycles", "6",
                     "--t", "0.0", "--weight", "1,2,3,4,5,6")
    assert code == 0
    assert (len(calls), len(set(calls))) == (25, 20)


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
    for name in ("stratum_dossier", "_check_sweep", "_explore_sweep"):
        monkeypatch.setattr(cli, name, unreachable)
    missing = tmp_path / "missing" / "x.json"
    for target, reason in ((missing, "No such file or directory"),
                           (tmp_path, "Is a directory")):
        for argv in (("describe", "--p", "2", "--cycles", "3", "--t", "0.1",
                      "--json"),
                     ("check", "--p", "2", "--cycles", "1"),
                     ("explore", "--p-list", "2", "--d-max", "5")):
            assert run(capsys, *argv, "-o", str(target)) == (
                3, "",
                f"strata-cones: error: cannot write {target}: {reason}\n")
    assert list(tmp_path.iterdir()) == []


def test_output_is_created_when_the_work_starts(tmp_path, capsys,
                                                monkeypatch):
    target = tmp_path / "report.json"
    # invalid inputs are refused before -o is opened
    assert run(capsys, "check", "--p", "2", "--cycles", "1", "--t", "0.7",
               "-o", str(target))[0] == 3
    assert not target.exists()
    seen = []

    def write_report_spy(*args, **kwargs):
        seen.append(target.exists())
        return verify._write_report(*args, **kwargs)
    monkeypatch.setattr(cli, "_write_report", write_report_spy)
    code, out, err = run(capsys, "check", "--p", "2", "--cycles", "1",
                         "--json", "-o", str(target))
    report = check_report(SplittingConfig(2, (1,)))
    assert (code, out, err, seen) == (
        2 if report.summary["fail"] else 0, "", "", [True])
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


def test_a_pipe_closed_early_is_a_usage_error():
    # the report is larger than the pipe's buffer, so a write finds it closed
    proc = command("explore", "--p-list", "2", "--d-max", "4", "--json",
                   stdout=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (len(head), proc.returncode, err) == (
        100, 3, b"strata-cones: error: cannot write stdout: Broken pipe\n")


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
    first = report.fragments[0]
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
    real = verify.stratum_record

    def spy(stratum):
        seen.append(out.getvalue())
        return real(stratum)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(verify, "stratum_record", spy)
    code = main(["check", "--p", "2", "--cycles", "2"])
    assert (code, seen[:2], out.getvalue()) == (
        2, ["", head], check_text(report))


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


def test_help_lists_the_subcommands(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "-h") == (0, TOP_USAGE + """
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
""", "")


def test_a_named_subcommand_is_parsed_by_its_own_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a subcommand")

    parser, _ = cli._build_parser()
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    argv = ("gl2", "--p", "3", "--cycles", "2", "--weight", "1,1")
    assert run(capsys, *argv) == REPLIES[argv]


# an abbreviated flag takes a value with a leading minus sign as the full
# flag does
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
def test_abbreviated_dash_value_flags_answer_as_the_full_ones(
        capsys, argv, flag, value):
    reply = run(capsys, *argv, flag, value)
    assert reply[0] == 0, reply
    for end in range(3, len(flag)):
        assert run(capsys, *argv, flag[:end], value) == reply, flag[:end]
