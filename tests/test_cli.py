"""End-to-end runs of the command line through main()."""

import json
import os
from fractions import Fraction

import pytest

from strata_cones import cli, verify
from strata_cones.cli import DEGREE_MAX, JOBS_MAX, P_LIST_MAX, P_MAX, main
from strata_cones.verify import check_report, explore
from strata_cones.splitting import SplittingConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    for name in ("stratum_dossier", "check_report", "explore"):
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

    def check_report_spy(*args, **kwargs):
        seen.append(target.exists())
        return check_report(*args, **kwargs)
    monkeypatch.setattr(cli, "check_report", check_report_spy)
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


def test_check_with_two_jobs_matches_the_library(capsys):
    code, out, _ = run(capsys, "check", "--p", "2", "--cycles", "2",
                       "--json", "--jobs", "2")
    assert code == 2
    assert json.loads(out) == check_report(SplittingConfig(2, (2,))).to_dict()


def test_jobs_outside_the_bound_is_a_usage_error(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a refused worker count reached the pool")
    monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
    for jobs in ("0", "-1", str(JOBS_MAX + 1), "100000"):
        for argv in (("check", "--p", "2", "--cycles", "2"),
                     ("explore", "--p-list", "2", "--d-max", "1")):
            code, out, err = run(capsys, *argv, "--jobs", jobs)
            assert (code, out) == (3, "")
            assert f"--jobs must be between 1 and {JOBS_MAX}" in err


def test_a_failed_worker_pool_exits_one(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError("no processes")
    monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
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
    for name in ("SplittingConfig", "check_report", "explore"):
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

    def explore_stub(p_list, d_max, jobs):
        reached.append(p_list)
        raise Reached
    monkeypatch.setattr(cli, "SplittingConfig", unreachable)
    monkeypatch.setattr(cli, "explore", explore_stub)
    over = ",".join(["2"] * (P_LIST_MAX + 1))
    assert run(capsys, "explore", "--p-list", over, "--d-max", "1") == (
        3, "", "strata-cones: error: the number of --p-list entries must be "
        f"at most {P_LIST_MAX}, got {P_LIST_MAX + 1}\n")
    assert reached == []
    at_bound = ",".join(["2"] * P_LIST_MAX)
    with pytest.raises(Reached):
        main(["explore", "--p-list", at_bound, "--d-max", "1"])
    assert reached == [[2] * P_LIST_MAX]


def test_unknown_subcommand_exits_with_usage(capsys):
    assert run(capsys, "bogus")[0] == 3


def test_missing_subcommand_exits_with_usage(capsys):
    assert run(capsys)[0] == 3
