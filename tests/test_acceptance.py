"""The acceptance gate, one test per criterion.

Criteria 1-8 and 11 run over a shared sweep: primes 2, 3, 5, every cycle
partition of every total degree up to 5, every stratum (1014 in all).
Criterion 4 additionally walks single cycles up to length 6 on its own.
Criterion 9 re-asserts the oracle-confirmed fixture values and criterion
10 stress-tests the cone kernel on seeded random input.

Criterion 11 is the eigenform theorem in cone form: on every stratum of
the sweep and for both minimal-cone variants, the reduced weight cone is
the minimal cone plus the cone of the reduced distinguished generators
at the admissible embeddings.  The test computes it from the library, so
the report bytes do not carry it.  The minimal cone is strictly smaller
than the reduced weight cone on 411 strata, so there the generators are
not redundant.

Criterion 3 pins the exact admissibility dichotomy.  The check itself
tests the strong form (a growing tilde closure makes the Hasse-type cone
strictly smaller than the weight cone), and the test sorts every stratum
with plain arithmetic into three classes: closed (the tilde closure is T),
degenerate (every cycle whose closure grows has even length and exactly
one embedding outside T) and strict (every other stratum whose closure
grows).  Closed and strict strata pass, the strict ones with a separating
form; degenerate strata fail with certificates that the cones are equal,
because on such a cycle the distinguished generator telescopes into the
Hasse-type cone.  The sweep has 264 degenerate strata, the refutation of
the strong form.

The sweep's report bytes are pinned by their sha256, so any change to
the report shows up in tier-1, and so are the bytes of the same sweep's
text reply, which reads each stratum's checks without its dossier.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest
from oracle import certificate_valid, dot, raw_weight

from strata_cones.cli import main
from strata_cones.cone_kernel import (
    cone_complete,
    cone_equal,
    cone_from_constraints,
    cone_from_rays,
    cone_member,
    cone_sum,
    first_escape,
)
from strata_cones.splitting import (
    EmbeddingId,
    SplittingConfig,
    Stratum,
    admissible_set,
    frobenius_shift,
)
from strata_cones.verify import explore
from strata_cones.weights import (
    cone_D,
    explicit_constraints,
    f_weight,
    minimal_cone,
    reduce_iT,
    reduced_cone,
    weight_pair,
)
from test_cone_kernel import dual, intersection

SWEEP_PRIMES = [2, 3, 5]
SWEEP_DEGREE = 5
SWEEP_BUDGET_SECONDS = 300.0
# sha256 of the sweep's `Report.to_json()`: the bytes of
# `strata-cones explore --p-list 2,3,5 --json` without the final newline
SWEEP_REPORT_SHA256 = (
    "1e934b093bcb47a217feefd3ff052ba4a88dbc7e0d2ee64e4033794744d1236f")
# sha256 of `strata-cones explore --p-list 2,3,5 --d-max 5`, the text reply
SWEEP_TEXT_SHA256 = (
    "e03ee6c229452538fda48d34a6e116dc4bdb6fb1b44bad5afc4fc9162ecac4ea")


@pytest.fixture(scope="session")
def sweep():
    start = time.monotonic()
    report = explore(SWEEP_PRIMES, SWEEP_DEGREE)
    return report, time.monotonic() - start


def rows(report, name):
    found = []
    for record in report.strata:
        for check in record["checks"]:
            if check["name"] == name:
                found.append((record["p"], record["cycles"], record["t"],
                              check))
    return found


def announce(number, label, ok):
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def all_pass(report, name):
    found = rows(report, name)
    bad = [(p, c, t) for p, c, t, check in found if check["status"] != "pass"]
    return len(found), bad


def test_criterion_01_optimal_basis(sweep):
    report, elapsed = sweep
    count, bad = all_pass(report, "optimal_basis")
    ok = count == 1014 and not bad and elapsed < SWEEP_BUDGET_SECONDS
    announce(1, "pair family and per-embedding rays span the same cones", ok)
    assert ok, f"{len(bad)} failures of {count}, sweep took {elapsed:.1f}s"


def test_criterion_02_explicit_halfspaces(sweep):
    report, _ = sweep
    count, bad = all_pass(report, "explicit_halfspaces")
    bio_count, bio_bad = all_pass(report, "biorthogonality")
    ok = count == bio_count == 1014 and not bad and not bio_bad
    announce(2, "facet functionals cut out the cones, biorthogonally", ok)
    assert ok, f"halfspaces {len(bad)} bad, biorthogonality {len(bio_bad)} bad"


def parse_stratum(p, cycles, t):
    """The prime, the cycle lengths and the members of T as (cycle, pos)
    pairs."""
    lengths = tuple(int(f) for f in cycles)
    members = {tuple(int(x) for x in part.split("."))
               for part in t.split(",")} if t else set()
    return int(p), lengths, members


def closure_grows(f, in_t):
    """Does the tilde closure add anything to T on a cycle of length f?

    It extends every maximal run of T of odd length one step backward, so
    it grows iff such a run exists (a cycle entirely in T stays as it is).
    """
    if len(in_t) == f:
        return False
    for head in in_t:
        if (head + 1) % f in in_t:
            continue
        run = 0
        while (head - run) % f in in_t:
            run += 1
        if run % 2:
            return True
    return False


def dichotomy_class(lengths, members):
    """'closed', 'degenerate' or 'strict', with the degenerate cycles as
    (cycle, length, missing position)."""
    growing = []
    for c, f in enumerate(lengths):
        in_t = {i for cc, i in members if cc == c}
        if closure_grows(f, in_t):
            growing.append((c, f, in_t))
    if not growing:
        return "closed", []
    if all(f % 2 == 0 and len(in_t) == f - 1 for _, f, in_t in growing):
        return "degenerate", [
            (c, f, next(i for i in range(f) if i not in in_t))
            for c, f, in_t in growing]
    return "strict", []


def degenerate_problems(p, lengths, members, cycles, witness):
    """Why a degenerate row fails to certify equality of the cones."""
    if witness.get("found") != "the cones are equal":
        return ["not reported as equal cones"]
    problems = []
    rays = [[Fraction(x) for x in v] for v in witness["rays"]]
    lines = [[Fraction(x) for x in v] for v in witness["lines"]]
    outside = [(c, i) for c, f in enumerate(lengths) for i in range(f)
               if (c, i) not in members]
    entries = witness["memberships"]
    if [entry["generator_at"] for entry in entries] != \
            [f"{c}.{i}" for c, i in outside]:
        problems.append("memberships do not cover the complement of T")
    weights = {}
    for entry in entries:
        weight = [Fraction(x) for x in entry["weight"]]
        weights[entry["generator_at"]] = weight
        total = [Fraction(0)] * len(weight)
        for index, coeff in entry["ray_coeffs"].items():
            if Fraction(coeff) < 0:
                problems.append(f"negative ray coefficient at "
                                f"{entry['generator_at']}")
            for k, x in enumerate(rays[int(index)]):
                total[k] += Fraction(coeff) * x
        for index, coeff in entry["line_coeffs"].items():
            for k, x in enumerate(lines[int(index)]):
                total[k] += Fraction(coeff) * x
        if total != weight:
            problems.append(f"certificate at {entry['generator_at']} does "
                            "not rebuild its weight")
    # on each degenerate cycle, with j the one embedding outside T:
    # -(1 + p^f) e_j = h_j + sum_{i=1}^{f-1} (-p)^i b_{j-i}
    for c, f, j in cycles:
        telescoped = raw_weight(p, lengths, "h", c, j)
        for i in range(1, f):
            b = raw_weight(p, lengths, "b", c, (j - i) % f)
            telescoped = [x + (-p) ** i * y for x, y in zip(telescoped, b)]
        target = [-(1 + p ** f) * x
                  for x in raw_weight(p, lengths, "e", c, j)]
        if telescoped != target or weights.get(f"{c}.{j}") != target:
            problems.append(f"no telescoping at {c}.{j}")
    return problems


def strict_problems(p, lengths, members, witness):
    """Why a strict row's witness fails to separate a distinguished
    generator from the Hasse-type cone."""
    if witness is None or "strict_via" not in witness:
        return ["no strictness witness"]
    via = tuple(int(x) for x in witness["strict_via"].split("."))
    if via in members:
        return [f"strict_via {witness['strict_via']} lies in T"]
    form = [Fraction(x) for x in witness["violated_form"]]
    weight = [Fraction(x) for x in witness["weight"]]
    problems = []
    stratum = Stratum(SplittingConfig(p, lengths), frozenset(
        EmbeddingId(c, i) for c, i in members))
    if tuple(weight) != f_weight(stratum, EmbeddingId(*via)):
        problems.append("weight is not the distinguished generator")
    if dot(form, weight) >= 0:
        problems.append("form does not separate the generator")
    for c, f in enumerate(lengths):
        for i in range(f):
            if (c, i) in members:
                if dot(form, raw_weight(p, lengths, "b", c, i)) != 0:
                    problems.append(f"form is not 0 on b at {c}.{i}")
            elif dot(form, raw_weight(p, lengths, "h", c, i)) < 0:
                problems.append(f"form is negative on h at {c}.{i}")
    return problems


def dichotomy_rows(report):
    """Criterion 3 on every `admissible_dichotomy` row of a report: the
    class counts, the rows whose status or witness is wrong, and the
    degenerate rows as (p, cycles, t) in the report's own text."""
    counts = {"closed": 0, "strict": 0, "degenerate": 0}
    bad = []
    degenerate = set()
    for p_text, cycles, t, check in rows(report, "admissible_dichotomy"):
        p, lengths, members = parse_stratum(p_text, cycles, t)
        kind, degenerate_cycles = dichotomy_class(lengths, members)
        counts[kind] += 1
        witness = check.get("witness")
        if kind == "degenerate":
            degenerate.add((p_text, tuple(cycles), t))
            problems = (["status is not fail"] if check["status"] != "fail"
                        else degenerate_problems(p, lengths, members,
                                                 degenerate_cycles, witness))
        elif check["status"] != "pass":
            problems = ["status is not pass"]
        elif kind == "strict":
            problems = strict_problems(p, lengths, members, witness)
        else:
            problems = []
        if problems:
            bad.append((p, cycles, t, kind, problems))
    return counts, bad, degenerate


def dichotomy_message(counts, bad):
    return f"{sum(counts.values())} rows, classes {counts}, {len(bad)} bad" + (
        f", the first being p={bad[0][0]} cycles=({','.join(bad[0][1])}) "
        f"T=[{bad[0][2]}] ({bad[0][3]}): {bad[0][4][:3]}" if bad else "")


def test_criterion_03_admissibility_dichotomy(sweep):
    report, _ = sweep
    counts, bad, _ = dichotomy_rows(report)
    ok = (sum(counts.values()) == 1014 and not bad
          and counts == {"closed": 537, "strict": 213, "degenerate": 264})
    announce(3, "strict inclusion off the even one-gap family, certified "
             "equality on it", ok)
    assert ok, dichotomy_message(counts, bad)


def test_criterion_04_pair_weight_composition(sweep):
    report, _ = sweep
    count, bad = all_pass(report, "hasse_identity")
    checked = 0
    mismatches = []
    # pairs never cross cycles, so single cycles up to length six cover
    # every configuration of degree up to six
    for p in SWEEP_PRIMES:
        for f in range(2, 7):
            config = SplittingConfig(p, (f,))
            for pos in range(f):
                beta = EmbeddingId(0, pos)
                for n in range(1, f):
                    for m in range(1, f - n + 1):
                        mid = frobenius_shift(config, beta, n)
                        top = frobenius_shift(config, beta, n + m)
                        left = weight_pair(config, "h", top, beta)
                        right = tuple(
                            a + p ** m * b for a, b in zip(
                                weight_pair(config, "h", top, mid),
                                weight_pair(config, "h", mid, beta)))
                        checked += 1
                        if left != right:
                            mismatches.append((p, f, pos, n, m))
    ok = count == 1014 and not bad and checked == 525 and not mismatches
    announce(4, "pair weights compose exactly through intermediates", ok)
    assert ok, f"sweep {len(bad)} bad, loop {mismatches[:3]} of {checked}"


def test_criterion_05_reduction_identities(sweep):
    report, _ = sweep
    count, bad = all_pass(report, "reduction_identities")
    ok = count == 1014 and not bad
    announce(5, "reduction and section compose to the identity", ok)
    assert ok, f"{len(bad)} failures"


def test_criterion_06_recipe_weights(sweep):
    report, _ = sweep
    count, bad = all_pass(report, "recipe_weights")
    ok = count == 1014 and not bad
    announce(6, "section recipes carry the advertised weights and tags", ok)
    assert ok, f"{len(bad)} failures"


def test_criterion_07_minimal_cones(sweep):
    report, _ = sweep
    nest_count, nest_bad = all_pass(report, "minimal_nesting")
    diag = rows(report, "diagonal_minimal")
    diag_bad = [(p, c, t) for p, c, t, check in diag
                if check["status"] == "fail"]
    question = report.open_question
    print(f"minimal-cone equality log: {question['equal']} equal, "
          f"{question['unequal']} unequal")
    ok = (nest_count == 1014 and not nest_bad and len(diag) == 1014
          and not diag_bad)
    announce(7, "minimal cones nest and match the diagonal description", ok)
    assert ok, f"nesting {len(nest_bad)} bad, diagonal {len(diag_bad)} bad"


def test_criterion_08_gl2_product(sweep):
    report, _ = sweep
    count, bad = all_pass(report, "gl2_product")
    delta_count, delta_bad = all_pass(report, "delta_kernel")
    ok = count == delta_count == 1014 and not bad and not delta_bad
    announce(8, "bi-weight cones split and the residue kills the lattice",
             ok)
    assert ok, f"product {len(bad)} bad, delta {len(delta_bad)} bad"


def test_criterion_09_pinned_fixtures():
    a = Stratum(SplittingConfig(3, (2,)), frozenset({EmbeddingId(0, 1)}))
    b = Stratum(SplittingConfig(2, (3,)), frozenset({EmbeddingId(0, 1)}))
    c = Stratum(SplittingConfig(2, (4,)),
                frozenset({EmbeddingId(0, 0), EmbeddingId(0, 1),
                           EmbeddingId(0, 2)}))
    ok = (explicit_constraints(a).ineqs == ((-1, 3),)
          and cone_D(a).gen.lines == ((3, 1),)
          and set(explicit_constraints(b).ineqs) == {(-1, 2, 0),
                                                     (-1, 2, 4)}
          and set(minimal_cone(b, "min").con.ineqs) == {(-1, 0), (1, 4)}
          and cone_equal(minimal_cone(b, "min"), minimal_cone(b, "min0"))
          and explicit_constraints(c).ineqs == ((2, -4, 8, -1),))
    announce(9, "oracle-confirmed fixture values reproduce bit-exactly", ok)
    assert ok


def test_criterion_10_kernel_properties():
    rng = random.Random(20260822)
    start = time.monotonic()
    for trial in range(500):
        dim = rng.randint(1, 5)
        rays = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, dim + 1))]
        lines = [tuple(rng.randint(-3, 3) for _ in range(dim))
                 for _ in range(rng.randint(0, 1))]
        cone = cone_complete(cone_from_rays(rays, lines, dim=dim))
        assert cone_equal(cone, cone_from_constraints(
            cone.con.ineqs, cone.con.eqns, dim=dim)), trial
        assert cone_equal(dual(dual(cone)), cone), trial
        inside = [Fraction(0)] * dim
        for ray in cone.gen.rays:
            coeff = rng.randint(0, 3)
            inside = [x + coeff * y for x, y in zip(inside, ray)]
        for line in cone.gen.lines:
            coeff = rng.randint(-3, 3)
            inside = [x + coeff * y for x, y in zip(inside, line)]
        cert = cone_member(cone, inside)
        assert cert.inside and certificate_valid(cone, inside, cert), trial
        probe = [Fraction(rng.randint(-4, 4)) for _ in range(dim)]
        assert certificate_valid(cone, probe, cone_member(cone, probe)), \
            trial
        other = cone_from_rays(
            [tuple(rng.randint(-3, 3) for _ in range(dim))
             for _ in range(rng.randint(1, dim))], [], dim=dim)
        assert cone_equal(dual(intersection(cone, other)),
                          cone_sum(dual(cone), dual(other))), trial
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    announce(10, "kernel invariants hold on 500 seeded random cones", ok)
    assert ok, f"{elapsed:.1f}s"


def test_criterion_11_eigenform_identity(sweep):
    report, _ = sweep
    checked = 0
    strict = 0
    bad = []
    for record in report.strata:
        p, lengths, members = parse_stratum(record["p"], record["cycles"],
                                            record["t"])
        t = Stratum(SplittingConfig(p, lengths),
                    frozenset(EmbeddingId(c, i) for c, i in members))
        reduced = reduced_cone(t)
        twins = cone_from_rays(
            [reduce_iT(t, f_weight(t, beta))
             for beta in sorted(admissible_set(t))],
            dim=len(t.complement()))
        for variant in ("min", "min0"):
            checked += 1
            total = cone_sum(minimal_cone(t, variant), twins)
            if not cone_equal(reduced, total):
                bad.append((record["p"], record["cycles"], record["t"],
                            variant, first_escape(reduced, total),
                            first_escape(total, reduced)))
        strict += not cone_equal(minimal_cone(t, "min"), reduced)
    ok = checked == 2028 and not bad and strict == 411
    announce(11, "the reduced cone is the minimal cone plus the reduced "
             "distinguished generators", ok)
    assert ok, (
        f"{checked} pairs, {strict} strata with a smaller minimal cone, "
        f"{len(bad)} bad"
        + (f", the first being p={bad[0][0]} cycles=({','.join(bad[0][1])}) "
           f"T=[{bad[0][2]}] variant {bad[0][3]}: reduced escapes the sum by "
           f"{bad[0][4]}, the sum escapes reduced by {bad[0][5]}"
           if bad else ""))


def test_sweep_report_bytes_are_pinned(sweep):
    report, _ = sweep
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == SWEEP_REPORT_SHA256


def test_sweep_text_bytes_are_pinned(capsys):
    code = main(["explore", "--p-list", ",".join(map(str, SWEEP_PRIMES)),
                 "--d-max", str(SWEEP_DEGREE)])
    out, err = capsys.readouterr()
    # exit code 2: the report holds the failures of criterion 3
    assert (code, err) == (2, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_TEXT_SHA256


def test_a_fourth_prime_keeps_the_patterns():
    # p = 7 at degree up to 5 (338 strata): the exact dichotomy splits as
    # for 2, 3 and 5, its degenerate strata are the only failures, and the
    # two minimal-cone variants agree on every stratum
    report = explore([7], SWEEP_DEGREE)
    counts, bad, degenerate = dichotomy_rows(report)
    assert counts == {"closed": 179, "strict": 71, "degenerate": 88} \
        and not bad, dichotomy_message(counts, bad)
    assert report.summary == {"strata": 338, "checks": 4732, "pass": 3884,
                              "fail": 88, "info": 760}
    failing = {(record["p"], tuple(record["cycles"]), record["t"])
               for record in report.strata for check in record["checks"]
               if check["status"] == "fail"}
    assert failing == degenerate
    assert {check["name"] for record in report.strata
            for check in record["checks"]
            if check["status"] == "fail"} == {"admissible_dichotomy"}
    assert report.open_question == {"equal": 338, "unequal": 0,
                                    "instances": []}
