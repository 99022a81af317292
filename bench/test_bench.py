"""Tests of the benchmark itself: `python3 -m pytest bench`."""

import json
import sys

import pytest

import outputs
import tracer as tracing
import worker
import workloads

sys.path.insert(0, str(worker.ROOT / "src"))

import strata_cones  # noqa: E402
import strata_cones.cli as cli  # noqa: E402

SMALL_CALLS = [
    ("check", "--p", "3", "--cycles", "2", "--t", "0.0", "--json"),
    ("check", "--p", "2", "--cycles", "3", "--t", "0.1", "--json"),
    ("describe", "--p", "2", "--cycles", "2,1", "--t", "1.0", "--json"),
    ("member", "--p", "2", "--cycles", "3", "--t", "0.1",
     "--weight", "-1,0,0", "--json"),
    ("member", "--p", "2", "--cycles", "3", "--t", "0.1",
     "--weight", "1,-5,0", "--json"),
    ("minimal", "--p", "2", "--cycles", "3", "--t", "0.1",
     "--weight", "-1,0,0", "--json"),
    ("gl2", "--p", "3", "--cycles", "2", "--weight", "1,1", "--json"),
    ("gl2", "--p", "3", "--cycles", "2", "--t", "0.1",
     "--biweight", "5,7;-1,-3", "--json"),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_same_seed_gives_the_same_inputs(workload):
    first = workloads.build_inputs(workload, 7, 15)
    assert first and first == workloads.build_inputs(workload, 7, 15)
    if workload != "sweep":
        assert first != workloads.build_inputs(workload, 8, 15)
        assert workloads.build_inputs(workload, 7, 30)[:len(first)] == first


def _bindings():
    return {(module.__name__, attr): value
            for module in tracing.package_modules()
            for attr, value in vars(module).items()} | {
        ("Report", "to_json"): strata_cones.verify.Report.__dict__["to_json"]}


def test_wrappers_catch_from_imports_and_are_removed():
    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tracing.is_wrapper(strata_cones.weights.cone_complete)
        assert tracing.is_wrapper(strata_cones.cone_complete)
        assert tracing.is_wrapper(strata_cones.verify.minimal_cone)
        assert all(map(tracing.is_wrapper, strata_cones.verify._CHECKS))
        workloads.run_calls(cli, SMALL_CALLS[:1], tr)
    finally:
        tr.remove()
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    totals = tr.totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["verify.gl2_product"]["calls"] == 1
    # minimal_cone is reached only through `from .weights import` in verify
    assert totals["weights.minimal_cone"]["calls"] > 0
    row = totals["cone_kernel.cone_member"]
    assert 0 <= row["self_s"] <= row["total_s"]


def test_tracing_does_not_change_the_output_bytes():
    plain = workloads.run_calls(cli, SMALL_CALLS)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = workloads.run_calls(cli, SMALL_CALLS, tr)
    finally:
        tr.remove()
    assert [(r.code, r.out) for r in plain] == \
        [(r.code, r.out) for r in traced]
    assert worker.failures("queries", -1, plain[2:], {"queries": {
        "seed": 0, "items": []}}) == []


def _member_inside():
    result, = workloads.run_calls(cli, SMALL_CALLS[3:4])
    assert json.loads(result.out)["inside"]
    return result


def test_a_corrupted_certificate_counts_as_failed():
    good = _member_inside()
    doc = json.loads(good.out)
    doc["ray_coeffs"]["0"] = "1/3"
    bad = workloads.CallResult(good.argv, good.code, json.dumps(doc),
                               None, good.start, good.end)
    pins = {"queries": {"seed": 0, "items": []}}
    assert worker.failures("queries", 1, [good], pins) == []
    failed = worker.failures("queries", 1, [good, bad, good], pins)
    assert len(failed) == 1 and failed[0].startswith("item 1 ")


@pytest.mark.parametrize("call, corrupt", [
    # an outside witness whose form no longer separates
    (1, lambda w: w.__setitem__("violated_form", ["0", "0", "0"])),
    # an inside certificate with a negative ray coefficient
    (0, lambda w: w["memberships"][0]["ray_coeffs"].__setitem__("0", "-10")),
])
def test_report_witnesses_are_rechecked(call, corrupt):
    result, = workloads.run_calls(cli, SMALL_CALLS[call:call + 1])
    assert outputs.problems(result.argv, result.out) == []
    doc = json.loads(result.out)
    witness = next(c["witness"] for c in doc["strata"][0]["checks"]
                   if c["name"] == "admissible_dichotomy")
    corrupt(witness)
    assert outputs.problems(result.argv, json.dumps(doc)) != []


def test_a_pinned_digest_mismatch_counts_as_failed():
    good = _member_inside()
    pins = {"queries": {"seed": 3, "items": [outputs.digest(good.out)]}}
    assert worker.failures("queries", 3, [good], pins) == []
    assert len(worker.failures("queries", 3, [
        workloads.CallResult(good.argv, good.code, good.out + " ", None,
                             0.0, 0.0)], pins)) == 1
