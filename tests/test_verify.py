"""Checks over whole configurations: determinism, witness integrity, and
the sweep driver."""

import concurrent.futures.process
import gc
import itertools
import json
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from oracle import f_recipe_tag_by_cases

from strata_cones import verify, weights
from strata_cones.cone_kernel import (
    cone_equal,
    cone_from_constraints,
    cone_from_rays,
    full_space,
)
from strata_cones.splitting import (
    EmbeddingId,
    SplittingConfig,
    Stratum,
    frobenius_shift,
    index_tables,
    stratum_from_text,
    tilde_closure,
)
from strata_cones.verify import (
    _check_gl2_product,
    _config_tasks,
    _dumps,
    _equality_result,
    _explore_sweep,
    _run_tasks,
    check_min_question,
    check_report,
    check_stratum,
    explore,
    stratum_record,
)
from strata_cones.weights import (
    BiWeight,
    DeltaClass,
    explicit_constraints,
    gl2_generators,
    weight_basis,
)

CFG_A = SplittingConfig(3, (2,))
CFG_B = SplittingConfig(2, (3,))


def result_map(stratum):
    return {r.name: r for r in check_stratum(stratum)}


def test_admissible_stratum_passes_every_check():
    results = result_map(stratum_from_text(CFG_B, "0.1"))
    assert all(r.status in ("pass", "info") for r in results.values())
    dichotomy = results["admissible_dichotomy"]
    assert dichotomy.status == "pass"
    # strictness is witnessed by the generator two steps around the cycle,
    # not by the one adjacent to T
    assert dichotomy.witness["strict_via"] == "0.2"


def test_degenerate_stratum_fails_the_dichotomy_only():
    results = result_map(stratum_from_text(CFG_A, "0.1"))
    failing = [name for name, r in results.items() if r.status == "fail"]
    assert failing == ["admissible_dichotomy"]


def test_dichotomy_failure_witness_reverifies_by_hand():
    # the witness must prove equality on its own: every distinguished
    # generator written as a nonnegative combination of the listed rays
    # plus a line combination
    witness = result_map(stratum_from_text(CFG_A, "0.1"))[
        "admissible_dichotomy"].witness
    assert witness["found"] == "the cones are equal"
    rays = [[Fraction(x) for x in vec] for vec in witness["rays"]]
    lines = [[Fraction(x) for x in vec] for vec in witness["lines"]]
    assert witness["memberships"]
    for entry in witness["memberships"]:
        weight = [Fraction(x) for x in entry["weight"]]
        total = [Fraction(0)] * len(weight)
        for i, c in entry["ray_coeffs"].items():
            coeff = Fraction(c)
            assert coeff >= 0
            for k, x in enumerate(rays[int(i)]):
                total[k] += coeff * x
        for i, c in entry["line_coeffs"].items():
            for k, x in enumerate(lines[int(i)]):
                total[k] += Fraction(c) * x
        assert total == weight


def test_pass_witness_violated_form_separates_by_hand():
    witness = result_map(stratum_from_text(CFG_B, "0.1"))[
        "admissible_dichotomy"].witness
    form = [Fraction(x) for x in witness["violated_form"]]
    weight = [Fraction(x) for x in witness["weight"]]
    assert sum(a * b for a, b in zip(form, weight)) < 0


def test_equality_failure_witnesses_separate_in_each_direction():
    # the orthant lies inside the upper half-plane, so whichever side comes
    # first the witness is a half-plane generator (the negated x line)
    # escaping the orthant
    gens = {"orthant": ([(1, 0), (0, 1)], []),
            "half-plane": ([(0, 1)], [(1, 0)])}
    cones = {label: cone_from_rays(rays, lines, dim=2)
             for label, (rays, lines) in gens.items()}
    for left, right in (("orthant", "half-plane"), ("half-plane", "orthant")):
        result = _equality_result("probe", cones[left], cones[right],
                                  left, right)
        assert result.status == "fail"
        witness = result.witness
        assert list(witness) == ["weight", "violated_form", "generator_of",
                                 "not_in"]
        assert (witness["generator_of"], witness["not_in"]) == (
            "half-plane", "orthant")
        weight = [int(x) for x in witness["weight"]]
        form = [int(x) for x in witness["violated_form"]]
        assert weight == [-1, 0]
        assert sum(a * b for a, b in zip(form, weight)) < 0
        rays, lines = gens["orthant"]
        assert all(sum(a * b for a, b in zip(form, r)) >= 0 for r in rays)
        assert all(sum(a * b for a, b in zip(form, l)) == 0 for l in lines)


def _gl2_product_in_2d(t, gens):
    """The bi-weight decision made the long way: the generated cone and
    the free-by-weight-cone product compared in dimension 2d."""
    dim = t.config.degree
    rays = [bw.lam + bw.kappa for bw, is_line in gens if not is_line]
    lines = [bw.lam + bw.kappa for bw, is_line in gens if is_line]
    product = cone_from_constraints(
        [(0,) * dim + form for form in explicit_constraints(t).ineqs],
        dim=2 * dim)
    return cone_equal(cone_from_rays(rays, lines, dim=2 * dim), product)


GL2_SAMPLE = [Stratum(config, frozenset(
    e for i, e in enumerate(config.embeddings()) if mask >> i & 1))
    for config in (SplittingConfig(2, (3,)), SplittingConfig(3, (2, 1)),
                   SplittingConfig(5, (1, 1, 1)), SplittingConfig(2, (4,)))
    for mask in range(1 << config.degree)]


def _drop_a_hasse_line(gens):
    first = next(i for i, (bw, is_line) in enumerate(gens)
                 if is_line and not any(bw.kappa))
    return gens[:first] + gens[first + 1:]


def _negate_a_ray(gens):
    first = next(i for i, (_, is_line) in enumerate(gens) if not is_line)
    bw = gens[first][0]
    flipped = BiWeight(tuple(-x for x in bw.lam), tuple(-x for x in bw.kappa))
    return gens[:first] + [(flipped, False)] + gens[first + 1:]


def test_gl2_product_agrees_with_the_2d_decision():
    for t in GL2_SAMPLE:
        passed = _check_gl2_product(t).status == "pass"
        assert passed == _gl2_product_in_2d(t, gl2_generators(t)), t.key()
        assert passed, t.key()


@pytest.mark.parametrize("mutate", [_drop_a_hasse_line, _negate_a_ray])
def test_gl2_product_rejects_mutated_generators_like_the_2d_decision(
        monkeypatch, mutate):
    checked = 0
    for t in GL2_SAMPLE:
        gens = gl2_generators(t)
        if not any(not is_line for _, is_line in gens):
            continue  # T is everything: no ray to negate, skipped for both
        mutated = mutate(gens)
        monkeypatch.setattr(verify, "gl2_generators", lambda _: mutated)
        result = _check_gl2_product(t)
        assert result.status == "fail", t.key()
        assert not _gl2_product_in_2d(t, mutated), t.key()
        # the witness is in d coordinates and separates by hand
        weight = [int(x) for x in result.witness["weight"]]
        form = [int(x) for x in result.witness["violated_form"]]
        assert len(weight) == len(form) == t.config.degree
        assert sum(a * b for a, b in zip(form, weight)) < 0
        checked += 1
    assert checked == len(GL2_SAMPLE) - 4


def _det_by_permutations(rows):
    """The Leibniz expansion: over all permutations, the sign (by counting
    inversions) times the product of the chosen entries."""
    n = len(rows)
    return sum((-1) ** sum(perm[i] > perm[j] for i in range(n)
                           for j in range(i + 1, n))
               * math.prod(rows[i][perm[i]] for i in range(n))
               for perm in itertools.permutations(range(n)))


@st.composite
def small_square_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    rows = [draw(st.lists(st.integers(min_value=-9, max_value=9),
                          min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        rows[0][0] = 0  # the first pivot needs a row swap, or there is none
    if n > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])  # a repeated row: singular
    return rows


@given(small_square_matrices())
@example([])
@example([[0, 1], [1, 0]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # the second pivot is 0
@example([[0, 0], [0, 5]])
@example([[1, 2], [2, 4]])
def test_fraction_free_determinant_matches_the_permutation_expansion(rows):
    assert verify._determinant(rows) == _det_by_permutations(rows)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(verify, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, name, counted)
    return calls


def test_each_configuration_verdict_is_computed_once(monkeypatch):
    # delta_kernel and hasse_identity read only the configuration, so over
    # all 2^d strata their builders are reached for the first stratum alone
    config = SplittingConfig(3, (2, 1))
    strata = verify._every_stratum(config)
    deltas = _counting(monkeypatch, "delta_class")
    for t in strata:
        assert verify._check_delta_kernel(t).status == "pass"
    # one class per Hasse weight and one per cycle's unit e_(c,0)
    assert len(deltas) == config.degree + len(config.cycle_lengths)
    pairs = _counting(monkeypatch, "weight_pair")
    assert verify._check_hasse_identity(strata[0]).status == "pass"
    reached = len(pairs)
    assert reached > 0
    for t in strata[1:]:
        assert verify._check_hasse_identity(t).status == "pass"
    assert len(pairs) == reached


def test_recipe_weights_fails_when_a_recipe_raises(monkeypatch):
    monkeypatch.setattr(weights, "monomial_weight", lambda monomial: (0,) * 3)
    result = verify._check_recipe_weights(stratum_from_text(CFG_B, "0.1"))
    assert (result.status, result.witness) == ("fail", {
        "pair": ["0.0", "0.1"],
        "error": "recipe weight mismatch for pair "
                 "(EmbeddingId(cycle=0, pos=0), EmbeddingId(cycle=0, pos=1))"})


# planted faults: each case replaces one builder that a check reads through
# `verify`, and says how to confirm the resulting witness by hand in
# integers


def _ints(vec):
    return [int(x) for x in vec]


def _dot(a, b):
    return sum(x * y for x, y in zip(_ints(a), _ints(b)))


def _emb(key):
    return EmbeddingId(*map(int, key.split(".")))


def _swap_the_first_two_rays(real):
    def gens(t):
        out = list(real(t))
        i, j = [k for k, (_, is_line) in enumerate(out) if not is_line][:2]
        out[i], out[j] = out[j], out[i]
        return out
    return gens


def _tilt_the_first_line(real):
    def gens(t):
        out = list(real(t))
        ray = next(w for w, is_line in out if not is_line)
        k = next(k for k, (_, is_line) in enumerate(out) if is_line)
        out[k] = (tuple(a + b for a, b in zip(out[k][0], ray)), True)
        return out
    return gens


def _bend_one_long_pair(real):
    # the h pair from 0.2 down to 0.0, the long side of n = m = 1
    def pair(config, kind, emb, target):
        w = real(config, kind, emb, target)
        if (kind, emb, target) == ("h", EmbeddingId(0, 2), EmbeddingId(0, 0)):
            return (w[0] + 1,) + w[1:]
        return w
    return pair


def _raise_in_every_recipe(real):
    def recipe(t, beta):
        raise AssertionError("planted recipe failure")
    return recipe


def _flip_every_tag(real):
    def recipe(t, beta):
        monomial, tag = real(t, beta)
        flipped = tuple(int(tag.is_zero()) for _ in tag.moduli)
        return monomial, DeltaClass(flipped, tag.moduli)
    return recipe


def _flip_the_sign_of_lambda(real):
    # the tag as the class of +sum exp*e_tau over the b factors, where the
    # first slot of the monomial's bi-weight is -sum exp*e_tau
    def recipe(t, beta):
        monomial, _ = real(t, beta)
        lam = [0] * t.config.degree
        for kind, tau, exp in monomial.factors:
            if kind == "b":
                lam[t.config.flat_index(tau)] += exp
        return monomial, weights.delta_class(t.config, lam)
    return recipe


def _residues_by_hand(config, weight):
    """sum_j w_j p^j modulo p^f - 1 on each cycle."""
    p, w, offset, residues = config.p, _ints(weight), 0, []
    for f in config.cycle_lengths:
        residues.append(sum(w[offset + j] * p ** j for j in range(f))
                        % (p ** f - 1))
        offset += f
    return residues


def _tag_is_not_the_class_of_the_first_slot(t, w):
    # the first slot's class by hand is the oracle's tag, and the reported
    # tag differs from it
    expected, _ = f_recipe_tag_by_cases(t.config.p, t.config.cycle_lengths,
                                        t.members, _emb(w["generator_at"]))
    return (_residues_by_hand(t.config, w["first_slot"]) == list(expected)
            != _ints(w["tag_residues"]))


def _basis_weight_by_hand(config, kind, key):
    """e at the embedding `key`, or h = -e + p e' with e' one step back
    around its cycle."""
    c, pos = _ints(key.split("."))
    start, f = sum(config.cycle_lengths[:c]), config.cycle_lengths[c]
    w = [0] * config.degree
    w[start + pos] = 1 if kind == "e" else -1
    if kind == "h":
        w[start + (pos - 1) % f] += config.p
    return w


def _lie_on_one_basis_weight(kind, key, residues):
    # delta_class answers `residues` on the basis weight of `kind` at `key`
    def plant(real):
        def delta(config, weight):
            cls = real(config, weight)
            if list(weight) == _basis_weight_by_hand(config, kind, key):
                return DeltaClass(residues, cls.moduli)
            return cls
        return delta
    return plant


def _delta_lies_on(kind, t, w):
    """The witness weight is the basis weight it names, and its class by
    hand, 0 for h and the unit of its cycle for e, is not the reported
    one."""
    c = int(w["cycle"])
    unit = [int(kind == "e" and k == c) % (t.config.p ** f - 1)
            for k, f in enumerate(t.config.cycle_lengths)]
    return (_ints(w["weight"]) == _basis_weight_by_hand(
        t.config, kind, w["embedding"])
        and int(w["embedding"].split(".")[0]) == c
        and _residues_by_hand(t.config, w["weight"]) == unit
        != _ints(w["residues"]))


def _double_one_hasse_weight(real):
    def basis(config, kind, emb):
        w = real(config, kind, emb)
        if (kind, emb) == ("h", EmbeddingId(0, 0)):
            return tuple(2 * x for x in w)
        return w
    return basis


def _determinant_is_twice_the_modulus(t, w):
    f = t.config.cycle_lengths[int(w["cycle"])]
    rows = [_ints(row) for row in w["rows"]]
    return (int(w["modulus"]) == t.config.p ** f - 1
            and _det_by_permutations(rows) == int(w["determinant"])
            and abs(int(w["determinant"])) == 2 * int(w["modulus"]))


def _negate_the_first_ray(real):
    def gens(t):
        out = list(real(t))
        k = next(k for k, (_, is_line) in enumerate(out) if not is_line)
        out[k] = (tuple(-x for x in out[k][0]), False)
        return out
    return gens


def _negated_first(forms):
    first, *rest = forms
    return [tuple(-x for x in first), *rest]


def _negate_the_first_halfspace(real):
    def cone(t):
        return cone_from_constraints(
            _negated_first(explicit_constraints(t).ineqs),
            dim=t.config.degree)
    return cone


def _full_space_for_min(real):
    def cone(t, variant):
        if variant == "min":
            return full_space(len(t.complement()))
        return real(t, variant)
    return cone


def _negate_the_hasse_weights(real):
    def basis(config, kind, emb):
        w = real(config, kind, emb)
        return tuple(-x for x in w) if kind == "h" else w
    return basis


def _composed_by_hand(t, w):
    p, c, n, m = t.config.p, *_ints((w["cycle"], w["n"], w["m"]))
    beta, mid, top = (EmbeddingId(c, k) for k in (0, n, n + m))
    return [a + p ** m * b
            for a, b in zip(weights.weight_pair(t.config, "h", top, mid),
                            weights.weight_pair(t.config, "h", mid, beta))]


def _separates(w, rays, lines):
    return (_dot(w["violated_form"], w["weight"]) < 0
            and all(_dot(w["violated_form"], g) >= 0 for g in rays)
            and all(_dot(w["violated_form"], g) == 0 for g in lines))


def _separates_from_the_weight_cone(t, w):
    gens = weights.generators_Gprime(t)
    return _separates(w, [g for g, is_line in gens if not is_line],
                      [g for g, is_line in gens if is_line])


def _separates_from_the_diagonal_minimal_cone(t, w):
    mini0 = weights.minimal_cone(t, "min0")
    return _separates(w, mini0.gen.rays, mini0.gen.lines)


def _is_a_violated_form_of(w, forms):
    # a defining form of a cone is nonnegative on all of it
    return (_dot(w["violated_form"], w["weight"]) < 0
            and tuple(_ints(w["violated_form"])) in forms)


def _diagonal_forms_by_hand(t):
    """-l(beta) + p^n l(shift^n beta), beta outside T, in reduced
    coordinates."""
    outside = t.complement()
    forms = set()
    for beta in outside:
        n = index_tables(t).n[beta]
        form = [0] * len(outside)
        form[outside.index(beta)] -= 1
        form[outside.index(frobenius_shift(t.config, beta, n))] += \
            t.config.p ** n
        forms.add(tuple(form))
    return forms


def _separates_the_faulty_kernel(t, w):
    b_lines = [weight_basis(t.config, "b", beta) for beta in t.members]
    return (_dot(w["violated_form"], w["weight"]) < 0
            and all(_dot(row, w["weight"]) == 0
                    for row in weights.reduction_matrix(t)[1:])
            and all(_dot(w["violated_form"], b) == 0 for b in b_lines))


# check, builder replaced, plant, stratum, witness keys, by-hand test
AT_B = (CFG_B, "0.1")
PLANTED_FAULTS = {
    "biorthogonality-ray": (
        "_check_biorthogonality", "generators_Gprime",
        _swap_the_first_two_rays,
        AT_B,
        ["functional_at", "generator_at", "functional", "generator", "value"],
        lambda t, w: w["functional_at"] == w["generator_at"]
        and int(w["value"]) == _dot(w["functional"], w["generator"]) <= 0),
    "biorthogonality-line": (
        "_check_biorthogonality", "generators_Gprime", _tilt_the_first_line,
        AT_B,
        ["functional_at", "functional", "line", "value"],
        lambda t, w: int(w["value"]) == _dot(w["functional"], w["line"]) != 0),
    "hasse_identity": (
        "_check_hasse_identity", "weight_pair", _bend_one_long_pair,
        AT_B,
        ["cycle", "n", "m", "direct", "composed"],
        lambda t, w: _ints(w["composed"]) == _composed_by_hand(t, w)
        != _ints(w["direct"])),
    "reduction-round-trip": (
        "_check_reduction_identities", "lift_jT",
        lambda real: lambda t, r: real(t, tuple(2 * x for x in r)),
        AT_B,
        ["probe", "round_trip"],
        lambda t, w: sorted(_ints(w["probe"]))
        == [0] * (len(w["probe"]) - 1) + [1]
        and _ints(w["round_trip"]) == [2 * x for x in _ints(w["probe"])]),
    "reduction-kernel": (
        "_check_reduction_identities", "reduction_matrix",
        lambda real: lambda t: real(t)[1:],
        AT_B,
        ["weight", "violated_form", "generator_of", "not_in"],
        lambda t, w: w["generator_of"] == "reduction kernel"
        and _separates_the_faulty_kernel(t, w)),
    "recipe-raises": (
        "_check_recipe_weights", "f_recipe", _raise_in_every_recipe,
        AT_B,
        ["generator_at", "error"],
        lambda t, w: w == {"generator_at": "0.0",
                           "error": "planted recipe failure"}),
    "recipe-tag": (
        "_check_recipe_weights", "f_recipe", _flip_every_tag,
        AT_B,
        ["generator_at", "tag_residues", "first_slot"],
        lambda t, w: (not any(_ints(w["tag_residues"])))
        == (_emb(w["generator_at"]) in tilde_closure(t))
        and _tag_is_not_the_class_of_the_first_slot(t, w)),
    "recipe-tag-sign": (
        "_check_recipe_weights", "f_recipe", _flip_the_sign_of_lambda,
        AT_B,
        ["generator_at", "tag_residues", "first_slot"],
        lambda t, w: any(_ints(w["tag_residues"]))
        and _tag_is_not_the_class_of_the_first_slot(t, w)),
    "divisor_functionals": (
        "_check_divisor_functionals", "functional_Lf",
        lambda real: lambda t, beta, tau: tuple(
            -x for x in real(t, beta, tau)),
        AT_B,
        ["beta", "functional", "generator", "value"],
        lambda t, w: int(w["value"]) == _dot(w["functional"], w["generator"])
        >= 0),
    "dichotomy-hasse-side": (
        "_check_admissible_dichotomy", "weight_basis",
        _negate_the_hasse_weights,
        AT_B,
        ["weight", "violated_form", "generator_of", "not_in"],
        lambda t, w: (w["generator_of"], w["not_in"]) == (
            "Hasse-type cone", "weight cone")
        and _separates_from_the_weight_cone(t, w)),
    "optimal_basis": (
        "_check_optimal_basis", "generators_G", _negate_the_first_ray,
        AT_B,
        ["weight", "violated_form", "generator_of", "not_in"],
        lambda t, w: (w["generator_of"], w["not_in"]) == (
            "pair-generated cone", "one-ray-per-embedding cone")
        and _separates_from_the_weight_cone(t, w)),
    "explicit_halfspaces": (
        "_check_explicit_halfspaces", "halfspace_cone",
        _negate_the_first_halfspace,
        AT_B,
        ["weight", "violated_form", "generator_of", "not_in"],
        lambda t, w: (w["generator_of"], w["not_in"]) == (
            "generated cone", "half-space cone")
        and _is_a_violated_form_of(
            w, _negated_first(explicit_constraints(t).ineqs))),
    "minimal_nesting": (
        "_check_minimal_nesting", "minimal_cone", _full_space_for_min,
        AT_B,
        ["weight", "violated_form", "generator_of", "not_in"],
        lambda t, w: (w["generator_of"], w["not_in"]) == (
            "minimal cone", "diagonal minimal cone")
        and _separates_from_the_diagonal_minimal_cone(t, w)),
    "diagonal_minimal": (
        "_check_diagonal_minimal", "minimal_cone", _full_space_for_min,
        (CFG_B, ""),
        ["weight", "violated_form", "generator_of", "not_in"],
        lambda t, w: (w["generator_of"], w["not_in"]) == (
            "minimal cone", "diagonal description")
        and _is_a_violated_form_of(w, _diagonal_forms_by_hand(t))),
    "delta_kernel-hasse": (
        "_check_delta_kernel", "delta_class",
        _lie_on_one_basis_weight("h", "0.1", (1,)),
        AT_B,
        ["cycle", "embedding", "weight", "residues", "moduli"],
        lambda t, w: _delta_lies_on("h", t, w)),
    "delta_kernel-unit": (
        "_check_delta_kernel", "delta_class",
        _lie_on_one_basis_weight("e", "1.0", (0, 0)),
        (SplittingConfig(3, (2, 1)), "0.0"),
        ["cycle", "embedding", "weight", "residues", "moduli"],
        lambda t, w: _delta_lies_on("e", t, w)),
    "delta_kernel-determinant": (
        "_check_delta_kernel", "weight_basis", _double_one_hasse_weight,
        AT_B,
        ["cycle", "rows", "determinant", "modulus"],
        _determinant_is_twice_the_modulus),
    "product_structure": (
        "_check_product_structure", "generators_Gprime",
        _negate_the_first_ray,
        (SplittingConfig(3, (2, 1)), "0.0"),
        ["weight", "violated_form", "generator_of", "not_in"],
        lambda t, w: (w["generator_of"], w["not_in"]) == (
            "per-cycle product cone", "weight cone")
        and _separates_from_the_weight_cone(t, w)),
}


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_planted_faults_fail_with_witnesses_that_hold_by_hand(monkeypatch,
                                                              fault):
    check, builder, plant, (config, text), keys, holds = PLANTED_FAULTS[fault]
    t = stratum_from_text(config, text)
    assert getattr(verify, check)(t).status == "pass"
    monkeypatch.setattr(verify, builder, plant(getattr(verify, builder)))
    # a fresh configuration: a verdict memoised on `config` by the pass
    # above must not hide the fault
    t = stratum_from_text(SplittingConfig(config.p, config.cycle_lengths),
                          text)
    result = getattr(verify, check)(t)
    assert result.status == "fail"
    assert list(result.witness) == keys
    assert holds(t, result.witness), result.witness
    # the witness as its record lists it, in the layout of a fragment
    entry = {"name": result.name, "status": result.status,
             "witness": result.witness}
    assert _dumps(entry, "\n    ") == json.dumps(entry, indent=2).replace(
        "\n", "\n    ")


def test_min_question_is_informational():
    for text in ("", "0.1", "0.0,0.1"):
        result = check_min_question(stratum_from_text(CFG_B, text))
        assert result.name == "minimal_equality"
        assert result.status == "info"
        assert result.witness["equal"] is True


def test_min_question_witnesses_an_unequal_pair():
    # the minimal cone lies in the diagonal one, so one escape decides
    config = SplittingConfig(2, (6,))
    t = stratum_from_text(config, "0.0")
    result = check_min_question(t)
    assert (result.name, result.status) == ("minimal_equality", "info")
    assert result.witness == {
        "weight": ["-16", "-8", "516", "258", "-193"],
        "violated_form": ["16", "32", "1", "2", "4"],
        "equal": False}
    weight = [int(x) for x in result.witness["weight"]]
    form = [int(x) for x in result.witness["violated_form"]]
    assert sum(a * b for a, b in zip(form, weight)) < 0
    assert check_report(config, [t]).open_question == {
        "equal": 0, "unequal": 1,
        "instances": [{"p": "2", "cycles": ["6"], "t": "0.0"}]}


def test_stratum_record_serializes_math_integers_as_strings():
    record = stratum_record(stratum_from_text(CFG_B, "0.1"))
    assert record["p"] == "2"
    assert all(isinstance(v, str) for v in record["tables"]["mu"].values())
    assert all(isinstance(x, str)
               for vec in record["halfspaces"] for x in vec)
    assert isinstance(record["minimal"]["dim"], int)
    statuses = {c["name"]: c["status"] for c in record["checks"]}
    assert statuses["optimal_basis"] == "pass"
    assert statuses["minimal_equality"] == "info"


def test_check_report_covers_all_strata_and_round_trips():
    report = check_report(CFG_A)
    assert report.schema == 1
    assert report.summary["strata"] == 4
    assert [r["t"] for r in report.strata] == ["", "0.0", "0.0,0.1", "0.1"]
    assert json.loads(report.to_json()) == report.to_dict()
    assert report.open_question["unequal"] == 0
    assert report.summary["fail"] > 0  # the degenerate stratum


@pytest.mark.parametrize("other", [SplittingConfig(2, (3,)),
                                   SplittingConfig(3, (2, 1))])
def test_check_report_refuses_a_stratum_of_another_configuration(
        other, monkeypatch):
    # the key "0.1" is valid under both configurations, so without the
    # refusal the report would silently check the wrong stratum
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused stratum reached the work")
    monkeypatch.setattr(verify, "_run_tasks", unreachable)
    config = SplittingConfig(3, (3,))
    with pytest.raises(ValueError) as caught:
        check_report(config, [stratum_from_text(other, "0.1")])
    assert str(caught.value) == (f"stratum '0.1' is over {other}, not over "
                                 f"the report's {config}")


@pytest.mark.parametrize("build", [
    lambda: check_report(CFG_A, []),
    lambda: check_report(CFG_B, [stratum_from_text(CFG_B, "0.1")]),
    lambda: check_report(CFG_A),
    lambda: explore([2, 3], 3, jobs=1),
    lambda: explore([2, 3], 3, jobs=2),
], ids=["empty", "one-stratum", "fail-witness", "explore-jobs1",
        "explore-jobs2"])
def test_report_json_is_the_one_call_encoding_of_its_records(build):
    report = build()
    assert isinstance(report.fragments, tuple)
    assert all(type(fragment) is str for fragment in report.fragments)
    # the encoding of the whole tree in one call is the reference
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


def test_dumps_writes_every_record_as_the_json_module_does():
    _, tasks = _explore_sweep([2, 3], 3)
    for task in tasks:
        record = stratum_record(stratum_from_text(*task))
        text = json.dumps(record, indent=2)
        assert _dumps(record) == text
        assert _dumps(record, "\n    ") == text.replace("\n", "\n    ")


# every value a document may hold, with the characters that need escapes
# and integers far beyond a machine word
_TEXT = st.text() | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\n\r\t\b\f", "\u2028", "caf\u00e9",
     "\U0001f600", "\ud800", '\\"quoted\\"'])
_LEAVES = (st.none() | st.booleans() | _TEXT
           | st.integers() | st.integers(-10**300, 10**300))
_TREES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.lists(_TEXT, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=30)


@settings(deadline=None)
@given(_TREES, st.sampled_from(["\n", "\n    "]))
def test_dumps_agrees_with_the_json_module(tree, newline):
    assert _dumps(tree, newline) == json.dumps(tree, indent=2).replace(
        "\n", newline)


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 2), (1, 2), {1: "x"}, {None: "x"}, ["a", 0.0],
    {"a": [(1,)]}, ["x", Fraction(3)],
], ids=repr)
def test_dumps_refuses_what_no_document_holds(value):
    with pytest.raises(TypeError):
        _dumps(value)


def test_empty_and_failing_reports_have_the_expected_records():
    assert json.loads(check_report(CFG_A, []).to_json())["strata"] == []
    report = check_report(CFG_A)
    witnesses = [check["witness"] for record in report.strata
                 for check in record["checks"] if check["status"] == "fail"]
    assert witnesses and all(witnesses)


def test_record_task_calls_stratum_record_through_the_module(monkeypatch):
    # the benchmark times each stratum by rebinding `verify.stratum_record`
    seen = []
    real = verify.stratum_record

    def spy(stratum):
        seen.append(stratum.key())
        return real(stratum)

    monkeypatch.setattr(verify, "stratum_record", spy)
    check_report(CFG_A)
    assert seen == ["", "0.0", "0.0,0.1", "0.1"]


def test_explore_releases_each_configuration_after_its_last_stratum(
        monkeypatch):
    configs = []  # a weak reference to each configuration met so far
    real = verify.stratum_record

    def spy(stratum):
        if not configs or configs[-1]() is not stratum.config:
            gc.collect()
            assert [ref() for ref in configs] == [None] * len(configs)
            configs.append(weakref.ref(stratum.config))
        return real(stratum)

    monkeypatch.setattr(verify, "stratum_record", spy)
    explore([2], 3)
    assert len(configs) == 6


def test_explore_refuses_a_composite_prime_before_any_work(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused prime reached the work")
    monkeypatch.setattr(verify, "stratum_record", unreachable)
    with pytest.raises(ValueError, match="p must be prime"):
        explore([2, 4], 2)


def test_check_report_is_deterministic_across_jobs():
    config = SplittingConfig(2, (2, 1))
    sequential = check_report(config, jobs=1).to_json()
    parallel = check_report(config, jobs=2).to_json()
    assert sequential == parallel


def test_run_tasks_starts_no_more_workers_than_tasks(monkeypatch):
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        FakePool)
    tasks = _config_tasks(SplittingConfig(2, (1,)))
    assert list(_run_tasks(tasks, 64)) == list(_run_tasks(tasks, 1))
    assert started == [len(tasks)] == [2]


def test_explore_orders_configurations_by_degree_then_partition():
    report = explore([2], 3)
    seen = []
    for record in report.strata:
        head = (record["p"], tuple(int(x) for x in record["cycles"]))
        if head not in seen:
            seen.append(head)
    assert seen == [("2", (1,)), ("2", (1, 1)), ("2", (2,)),
                    ("2", (1, 1, 1)), ("2", (2, 1)), ("2", (3,))]
    assert report.config == {"p_list": ["2"], "d_max": "3"}
    assert json.loads(report.to_json()) == report.to_dict()


def test_explore_with_no_primes_is_empty():
    report = explore([], 4)
    assert list(report.strata) == []
    assert report.summary == {"strata": 0, "checks": 0, "pass": 0,
                              "fail": 0, "info": 0}


def test_explore_rejects_a_zero_degree_bound():
    with pytest.raises(ValueError, match="degree bound"):
        explore([2, 3], 0)
