"""Weight vectors, cones, functionals, reductions, recipes, bi-weights."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import (
    distinguished_by_pairs,
    divisor_functional_by_cases,
    dot,
    f_recipe_by_patch,
    f_recipe_tag_by_cases,
    hasse_pairs,
    recipe_by_exit_parity,
    sides,
)

from strata_cones.cone_kernel import (
    cone_equal,
    cone_from_constraints,
    cone_from_rays,
    cone_complete,
    cone_image,
    cone_member,
    first_escape,
    full_space,
    _violated_form,
)
from strata_cones.splitting import (
    EmbeddingId,
    SplittingConfig,
    Stratum,
    admissible_set,
    frobenius_shift,
    index_tables,
    sign_epsilon,
    tilde_closure,
)
from strata_cones.verify import (
    _cycle_stratum,
    _every_stratum,
    partitions,
    stratum_record,
)
from strata_cones.weights import (
    BiWeight,
    FormalMonomial,
    _divisor_forms,
    cone_D,
    delta_class,
    explicit_constraints,
    f_recipe,
    f_weight,
    family_cone,
    forced_divisors,
    functional_LT,
    functional_Lf,
    functional_window,
    generators_G,
    generators_Gprime,
    gl2_generators,
    halfspace_cone,
    in_minimal_cone,
    lift_jT,
    minimal_cone,
    minimal_forms,
    monomial_weight,
    pair_family,
    reduce_iT,
    reduced_cone,
    reduction_matrix,
    section_recipe,
    weight_basis,
    weight_pair,
)
from test_splitting import stratum

CFG_A = SplittingConfig(3, (2,))
CFG_B = SplittingConfig(2, (3,))
CFG_C = SplittingConfig(2, (4,))
CFG_D = SplittingConfig(3, (1, 1))


# ---------------------------------------------------------------------------
# basis weights and pair weights


def test_weight_basis_examples():
    assert weight_basis(CFG_A, "e", EmbeddingId(0, 0)) == (1, 0)
    assert weight_basis(CFG_A, "h", EmbeddingId(0, 0)) == (-1, 3)
    assert weight_basis(CFG_A, "b", EmbeddingId(0, 1)) == (3, 1)
    with pytest.raises(ValueError, match="unknown weight kind"):
        weight_basis(CFG_A, "x", EmbeddingId(0, 0))


def test_weight_basis_one_step_cycle_collapses():
    # on a length-1 cycle the back shift is the embedding itself
    assert weight_basis(CFG_D, "h", EmbeddingId(0, 0)) == (2, 0)
    assert weight_basis(CFG_D, "h", EmbeddingId(1, 0)) == (0, 2)
    assert weight_basis(CFG_D, "b", EmbeddingId(0, 0)) == (4, 0)


def test_weight_pair_examples():
    assert weight_pair(CFG_B, "h", EmbeddingId(0, 2), EmbeddingId(0, 0)) == \
        (4, 0, -1)
    assert weight_pair(CFG_B, "h", EmbeddingId(0, 2), EmbeddingId(0, 2)) == \
        (0, 0, 7)
    assert weight_pair(CFG_A, "b", EmbeddingId(0, 0), EmbeddingId(0, 1)) == \
        (1, 3)
    with pytest.raises(ValueError, match="same cycle"):
        weight_pair(CFG_D, "h", EmbeddingId(0, 0), EmbeddingId(1, 0))
    with pytest.raises(ValueError, match="unknown pair kind"):
        weight_pair(CFG_A, "e", EmbeddingId(0, 0), EmbeddingId(0, 1))


@st.composite
def cycle_triples(draw):
    """(config, cycle, base position, n, m) with n, m >= 1 and n + m <= f."""
    p = draw(st.sampled_from([2, 3, 5]))
    f = draw(st.integers(min_value=2, max_value=6))
    config = SplittingConfig(p, (f,))
    pos = draw(st.integers(min_value=0, max_value=f - 1))
    n = draw(st.integers(min_value=1, max_value=f - 1))
    m = draw(st.integers(min_value=1, max_value=f - n))
    return config, pos, n, m


@given(cycle_triples())
def test_pair_weights_compose(args):
    # the n+m step pair splits through the intermediate embedding, with the
    # second leg scaled by p^m
    config, pos, n, m = args
    beta = EmbeddingId(0, pos)
    mid = frobenius_shift(config, beta, n)
    top = frobenius_shift(config, beta, n + m)
    long = weight_pair(config, "h", top, beta)
    first = weight_pair(config, "h", top, mid)
    second = weight_pair(config, "h", mid, beta)
    assert long == tuple(a + config.p ** m * b
                         for a, b in zip(first, second))


# ---------------------------------------------------------------------------
# distinguished generators


def test_f_weight_examples():
    t = stratum(CFG_B, (0, 1))
    assert f_weight(t, EmbeddingId(0, 2)) == (0, 0, 7)
    assert f_weight(t, EmbeddingId(0, 0)) == (-4, 0, -1)
    # degenerate cycle: the tilde closure is everything
    assert f_weight(stratum(CFG_A, (0, 1)), EmbeddingId(0, 0)) == (-10, 0)
    with pytest.raises(ValueError, match="lies in the stratum"):
        f_weight(t, EmbeddingId(0, 1))


def test_generators_g_examples():
    gens = generators_G(stratum(CFG_A))
    assert [w for w, is_line in gens if not is_line] == \
        [(8, 0), (-1, 3), (3, -1), (0, 8)]
    assert not any(is_line for _, is_line in gens)

    gens = generators_G(stratum(CFG_A, (0, 1)))
    assert gens == (((-1, 3), False), ((3, 1), True))

    gens = generators_G(stratum(CFG_A, (0, 0), (0, 1)))
    assert gens == (((1, 3), True), ((3, 1), True))


def test_generators_gprime_examples():
    gens = generators_Gprime(stratum(CFG_B, (0, 1)))
    assert gens == (((-4, 0, -1), False), ((0, 0, 7), False),
                    ((2, 1, 0), True))
    gens = generators_Gprime(stratum(CFG_A, (0, 1)))
    assert gens == (((-1, 0), False), ((3, 1), True))
    gens = generators_Gprime(stratum(CFG_A))
    assert [w for w, _ in gens] == [(3, -1), (-1, 3)]


# ---------------------------------------------------------------------------
# the weight cone and its half-space description


def both_families(t):
    """The weight cone and the cone of the Hasse-pair family."""
    return cone_D(t), family_cone(generators_G(t), t.config.degree)


def test_cone_d_fixture_strata():
    for cone in both_families(stratum(CFG_A, (0, 1))):
        assert cone.con.ineqs == ((-1, 3),)
        assert cone.gen.lines == ((3, 1),)
    for cone in both_families(stratum(CFG_C, (0, 0), (0, 1), (0, 2))):
        assert cone.con.ineqs == ((2, -4, 8, -1),)
    cone = cone_D(stratum(CFG_B, (0, 1)))
    assert set(cone.con.ineqs) == {(-1, 2, 0), (-1, 2, 4)}
    assert cone_equal(cone_D(stratum(CFG_A, (0, 0), (0, 1))), full_space(2))


def test_cone_d_multi_cycle():
    # cycle 0 fully in T contributes the line b = 4e; cycle 1 the ray 2e
    cone = cone_D(stratum(CFG_D, (0, 0)))
    assert cone.gen.lines == ((1, 0),)
    assert cone.gen.rays == ((0, 1),)


def test_functional_window_examples():
    # the sign function of the empty stratum is +1 everywhere
    empty = stratum(CFG_A)
    assert set(sign_epsilon(empty).values()) == {1}
    assert functional_window(empty, EmbeddingId(0, 1),
                             EmbeddingId(0, 0)) == (3, 1)
    assert functional_window(empty, EmbeddingId(0, 1),
                             EmbeddingId(0, 1)) == (0, 1)
    with pytest.raises(ValueError, match="same cycle"):
        functional_window(stratum(CFG_D), EmbeddingId(0, 0),
                          EmbeddingId(1, 0))


def test_functional_lt_examples():
    t = stratum(CFG_B, (0, 1))
    assert functional_LT(t, EmbeddingId(0, 0)) == (-1, 2, 0)
    assert functional_LT(t, EmbeddingId(0, 2)) == (-1, 2, 4)
    assert functional_LT(stratum(CFG_A), EmbeddingId(0, 0)) == (3, 1)
    assert functional_LT(stratum(CFG_C, (0, 0), (0, 1), (0, 2)),
                         EmbeddingId(0, 3)) == (2, -4, 8, -1)
    with pytest.raises(ValueError, match="lies in T"):
        functional_LT(t, EmbeddingId(0, 1))


def test_explicit_constraints_examples():
    rep = explicit_constraints(stratum(CFG_A))
    assert set(rep.ineqs) == {(3, 1), (1, 3)}
    assert rep.eqns == ()
    assert explicit_constraints(stratum(CFG_A, (0, 0), (0, 1))).ineqs == ()


def test_constraints_cut_out_the_cone():
    for t in [stratum(CFG_A), stratum(CFG_A, (0, 1)),
              stratum(CFG_B, (0, 1)),
              stratum(CFG_C, (0, 0), (0, 1), (0, 2)),
              stratum(CFG_D, (0, 0))]:
        cut = cone_from_constraints(explicit_constraints(t).ineqs,
                                    dim=t.config.degree)
        assert cone_equal(cone_D(t), cut), t.key()


# ---------------------------------------------------------------------------
# reduction to the complement of T


def test_reduction_examples():
    t = stratum(CFG_B, (0, 1))
    assert reduction_matrix(t) == ((1, -2, 0), (0, 0, 1))
    assert reduce_iT(t, (1, 0, 0)) == (1, 0)
    assert reduce_iT(t, (0, 1, 0)) == (-2, 0)
    assert reduce_iT(t, (2, 1, 0)) == (0, 0)
    assert lift_jT(t, (5, 7)) == (5, 0, 7)
    assert reduce_iT(t, lift_jT(t, (5, 7))) == (5, 7)
    assert reduce_iT(stratum(CFG_A), (4, 9)) == (4, 9)
    with pytest.raises(ValueError, match="length"):
        reduce_iT(t, (1, 0))
    with pytest.raises(ValueError, match="length"):
        lift_jT(t, (1, 0, 0))


# ---------------------------------------------------------------------------
# divisibility functionals and cones


def test_functional_lf_examples():
    assert functional_Lf(stratum(CFG_A), EmbeddingId(0, 0),
                         EmbeddingId(0, 0)) == (-1, 3)
    t = stratum(CFG_B, (0, 1))
    assert functional_Lf(t, EmbeddingId(0, 0), EmbeddingId(0, 0)) == \
        (1, -2, 4)


def test_functional_lf_errors():
    t = stratum(CFG_B, (0, 1))
    with pytest.raises(ValueError, match="not in the admissible set"):
        functional_Lf(t, EmbeddingId(0, 2), EmbeddingId(0, 0))
    with pytest.raises(ValueError, match="lies in T"):
        functional_Lf(t, EmbeddingId(0, 0), EmbeddingId(0, 1))
    # the n-step shift of beta0 is beta2, which carries no functional
    with pytest.raises(ValueError, match="n-step shift"):
        functional_Lf(t, EmbeddingId(0, 0), EmbeddingId(0, 2))


def test_cone_dtf_and_divisor_values():
    # at beta0 the divisibility cone has one facet, the diagonal form
    beta = EmbeddingId(0, 0)
    assert functional_Lf(stratum(CFG_A), beta, beta) == (-1, 3)
    t = stratum(CFG_B, (0, 1))
    assert functional_Lf(t, beta, beta) == (1, -2, 4)
    # the distinguished generator sits strictly outside its own
    # divisibility cone, with pairing -2 p^n against the facet
    assert dot(functional_Lf(t, beta, beta), f_weight(t, beta)) == -8
    assert dot(functional_Lf(stratum(CFG_A), beta, beta),
               f_weight(stratum(CFG_A), beta)) == -6


def test_forced_divisors_examples():
    t = stratum(CFG_B, (0, 1))
    assert forced_divisors(t, (-1, 0, 0)) == {EmbeddingId(0, 0)}
    assert forced_divisors(t, f_weight(t, EmbeddingId(0, 0))) == \
        {EmbeddingId(0, 0)}
    assert forced_divisors(t, (0, 0, 0)) == frozenset()


# ---------------------------------------------------------------------------
# minimal cones


def test_minimal_cone_examples():
    t = stratum(CFG_B, (0, 1))
    mini = minimal_cone(t, "min")
    assert set(mini.con.ineqs) == {(-1, 0), (1, 4)}
    assert cone_equal(mini, minimal_cone(t, "min0"))

    mini = minimal_cone(stratum(CFG_A), "min")
    assert set(mini.con.ineqs) == {(-1, 3), (3, -1)}

    mini = minimal_cone(stratum(CFG_A, (0, 1)), "min")
    assert mini.con.ineqs == ((-1,),)

    full = minimal_cone(stratum(CFG_A, (0, 0), (0, 1)), "min")
    assert full.dim == 0
    assert cone_equal(full, full_space(0))

    with pytest.raises(ValueError, match="unknown variant"):
        minimal_cone(t, "minimal")


# ---------------------------------------------------------------------------
# recipes


def test_section_recipe_examples():
    t = stratum(CFG_B, (0, 1))
    m = section_recipe(t, EmbeddingId(0, 0), EmbeddingId(0, 2))
    assert m.factors == (("h", EmbeddingId(0, 0), 1),)

    m = section_recipe(t, EmbeddingId(0, 0), EmbeddingId(0, 1))
    assert dict(((k, e), x) for k, e, x in m.factors) == {
        ("h", EmbeddingId(0, 0)): 1, ("h", EmbeddingId(0, 2)): 2}
    assert monomial_weight(m) == (-1, 4, 0)

    m = section_recipe(stratum(CFG_C, (0, 1), (0, 2)), EmbeddingId(0, 3),
                       EmbeddingId(0, 0))
    assert dict(((k, e), x) for k, e, x in m.factors) == {
        ("h", EmbeddingId(0, 3)): 1, ("b", EmbeddingId(0, 2)): -2,
        ("b", EmbeddingId(0, 1)): 4}
    assert monomial_weight(m) == (8, 0, 0, -1)
    assert m.base.members == {EmbeddingId(0, 1), EmbeddingId(0, 2)}


def test_section_recipe_rejects_invalid_pairs():
    t = stratum(CFG_B, (0, 1))
    with pytest.raises(ValueError, match="invalid pair"):
        section_recipe(t, EmbeddingId(0, 2), EmbeddingId(0, 0))
    with pytest.raises(ValueError, match="invalid pair"):
        section_recipe(t, EmbeddingId(0, 1), EmbeddingId(0, 2))
    with pytest.raises(ValueError, match="one cycle"):
        section_recipe(stratum(CFG_D), EmbeddingId(0, 0), EmbeddingId(1, 0))


def test_formal_monomial_validation():
    base = stratum(CFG_A)
    with pytest.raises(ValueError, match="unknown factor kind"):
        FormalMonomial(base, (("e", EmbeddingId(0, 0), 1),))
    with pytest.raises(ValueError, match="zero exponent"):
        FormalMonomial(base, (("h", EmbeddingId(0, 0), 0),))
    with pytest.raises(ValueError, match="negative exponent"):
        FormalMonomial(base, (("h", EmbeddingId(0, 0), -1),))
    with pytest.raises(ValueError, match="repeated factor"):
        FormalMonomial(base, (("b", EmbeddingId(0, 0), 1),
                              ("b", EmbeddingId(0, 0), 2)))
    # negative exponents on b are allowed
    FormalMonomial(base, (("b", EmbeddingId(0, 0), -3),))


def test_a_monomial_reads_its_factors_once():
    # the factors are stored as a tuple before the checks walk them, so a
    # generator gives the monomial it lists
    base = stratum(CFG_B, (0, 1))
    factors = (("b", EmbeddingId(0, 1), -2), ("h", EmbeddingId(0, 2), 1))
    monomial = FormalMonomial(base, (factor for factor in factors))
    assert monomial.factors == factors
    assert monomial_weight(monomial) == monomial_weight(
        FormalMonomial(base, factors))
    with pytest.raises(ValueError, match="repeated factor"):
        FormalMonomial(base, (factor for factor in factors + factors))


def test_f_recipe_examples():
    t = stratum(CFG_B, (0, 1))
    m, tag = f_recipe(t, EmbeddingId(0, 2))
    assert monomial_weight(m) == (0, 0, 7)
    assert tag.is_zero()
    assert dict(((k, e), x) for k, e, x in m.factors) == {
        ("h", EmbeddingId(0, 2)): 1, ("b", EmbeddingId(0, 1)): -2,
        ("b", EmbeddingId(0, 0)): 4}

    m, tag = f_recipe(t, EmbeddingId(0, 0))
    assert monomial_weight(m) == (-4, 0, -1)
    assert dict(((k, e), x) for k, e, x in m.factors) == {
        ("h", EmbeddingId(0, 2)): 1, ("b", EmbeddingId(0, 1)): -2}
    assert (tag.residues, tag.moduli) == ((4,), (7,))

    m, tag = f_recipe(stratum(CFG_A, (0, 1)), EmbeddingId(0, 0))
    assert monomial_weight(m) == (-10, 0)
    assert dict(((k, e), x) for k, e, x in m.factors) == {
        ("h", EmbeddingId(0, 0)): 1, ("b", EmbeddingId(0, 1)): -3}
    assert (tag.residues, tag.moduli) == ((1,), (8,))


# ---------------------------------------------------------------------------
# delta classes


def test_delta_class_examples():
    assert delta_class(CFG_A, (1, 1)).residues == (4,)
    assert delta_class(CFG_A, (3, 1)).residues == (6,)
    assert delta_class(CFG_D, (1, 1)).moduli == (2, 2)
    for emb in CFG_A.embeddings():
        assert delta_class(CFG_A, weight_basis(CFG_A, "h", emb)).is_zero()
    for emb in CFG_D.embeddings():
        assert delta_class(CFG_D, weight_basis(CFG_D, "h", emb)).is_zero()
    # integral Fractions are fine, true fractions are not
    assert delta_class(CFG_A, (Fraction(2), 0)).residues == (2,)
    with pytest.raises(ValueError, match="integer weights"):
        delta_class(CFG_A, (Fraction(1, 2), 0))


# every function that takes a weight refuses it as the kernel does: a
# wrong length, a float and a string, each with the kernel's message
T_B = stratum(CFG_B, (0, 1))  # its reduced weights have length 2
WEIGHT_DOORS = {
    "reduce-iT": (lambda w: reduce_iT(T_B, w), "weight", 3),
    "lift-jT": (lambda w: lift_jT(T_B, w), "reduced weight", 2),
    "forced-divisors": (lambda w: forced_divisors(T_B, w), "weight", 3),
    "in-minimal-cone": (lambda w: in_minimal_cone(T_B, w),
                        "reduced weight", 2),
    "delta-class": (lambda w: delta_class(CFG_A, w), "weight", 2),
}
WEIGHT_REFUSALS = [
    (lambda door=door, w=w: door(w), message)
    for door, subject, n in WEIGHT_DOORS.values()
    for w, message in (
        ((1,) * (n + 1), f"{subject} has length {n + 1}, expected {n}"),
        ((0.5,) + (0,) * (n - 1), "coordinate 0.5 is not exact"),
        (("1",) + (0,) * (n - 1), "coordinate '1' is not exact"))]


@pytest.mark.parametrize("call, message", [
    (lambda: forced_divisors(stratum(CFG_B, (0, 1)), (1, 0)),
     "weight has length 2"),
    (lambda: delta_class(CFG_A, (1, 0, 0)), "weight has length 3"),
    (lambda: f_recipe(stratum(CFG_B, (0, 1)), EmbeddingId(0, 1)),
     "lies in the stratum"),
    # the minimal cone of p = 2, cycles (3), T = 0.1 is cut out by
    # (-1, 0), (-1, 4), (1, 4): these once read as inside it
    (lambda: in_minimal_cone(T_B, ()),
     "reduced weight has length 0, expected 2"),
    (lambda: in_minimal_cone(T_B, (-1, 1, -100, -100)),
     "reduced weight has length 4, expected 2"),
    # an integral float is refused too: no exact answer is read off a float
    (lambda: delta_class(CFG_A, (1.0, 0)), "coordinate 1.0 is not exact"),
    *WEIGHT_REFUSALS,
], ids=["forced-divisors", "delta-class", "f-recipe-on-T",
        "in-minimal-cone-empty", "in-minimal-cone-long", "delta-class-1.0",
        *(f"{name}-{kind}" for name in WEIGHT_DOORS
          for kind in ("length", "float", "string"))])
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _solve_against_hasse_lattice(config, weight):
    """Coordinates of a weight in the Hasse-weight basis.

    Per cycle, Gauss elimination on the matrix whose column j is the Hasse
    weight at position j; the determinant is +-(p^f - 1), never zero, so
    the rational solution is unique, and lattice membership is its
    integrality.
    """
    p = config.p
    coords = []
    offset = 0
    for f in config.cycle_lengths:
        mat = [[Fraction(0)] * f + [Fraction(weight[offset + i])]
               for i in range(f)]
        for j in range(f):
            mat[j][j] -= 1
            mat[(j - 1) % f][j] += p
        for col in range(f):
            piv = next(r for r in range(col, f) if mat[r][col] != 0)
            mat[col], mat[piv] = mat[piv], mat[col]
            pv = mat[col][col]
            mat[col] = [x / pv for x in mat[col]]
            for r in range(f):
                if r != col and mat[r][col] != 0:
                    fac = mat[r][col]
                    mat[r] = [a - fac * b for a, b in zip(mat[r], mat[col])]
        coords.extend(row[-1] for row in mat)
        offset += f
    return coords


@st.composite
def config_and_weight(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    lengths = []
    left = draw(st.integers(min_value=1, max_value=5))
    while left:
        f = draw(st.integers(min_value=1, max_value=left))
        lengths.append(f)
        left -= f
    config = SplittingConfig(p, tuple(lengths))
    weight = tuple(draw(st.integers(min_value=-50, max_value=50))
                   for _ in range(config.degree))
    return config, weight


@given(config_and_weight())
def test_delta_class_kills_exactly_the_hasse_lattice(args):
    config, weight = args
    coords = _solve_against_hasse_lattice(config, weight)
    in_lattice = all(c.denominator == 1 for c in coords)
    assert delta_class(config, weight).is_zero() == in_lattice


@given(config_and_weight())
def test_delta_class_is_shift_invariant(args):
    config, weight = args
    for emb in config.embeddings():
        shifted = tuple(a + b for a, b in
                        zip(weight, weight_basis(config, "h", emb)))
        assert delta_class(config, shifted).residues == \
            delta_class(config, weight).residues


# ---------------------------------------------------------------------------
# bi-weight generators


def test_gl2_generators_example():
    gens = gl2_generators(stratum(CFG_A, (0, 1)))
    assert len(gens) == 4
    assert (BiWeight((-1, 3), (0, 0)), True) in gens
    assert (BiWeight((3, -1), (0, 0)), True) in gens
    assert (BiWeight((0, -1), (3, 1)), True) in gens
    assert (BiWeight((1, 0), (-10, 0)), False) in gens


def test_memoised_generator_families_are_tuples():
    # each family stays in the stratum's memo, so a caller must not be
    # able to extend it for every later caller
    t = stratum(CFG_A, (0, 1))
    for builder in (generators_G, generators_Gprime, gl2_generators):
        assert type(builder(t)) is tuple, builder.__name__


def test_gl2_cone_projects_onto_weight_cone():
    # forgetting the first slot recovers the full ambient space in slot one
    # and the weight cone in slot two
    for t in [stratum(CFG_A, (0, 1)), stratum(CFG_D, (0, 0))]:
        dim = t.config.degree
        gens = gl2_generators(t)
        rays = [bw.lam + bw.kappa for bw, is_line in gens if not is_line]
        lines = [bw.lam + bw.kappa for bw, is_line in gens if is_line]
        prod = cone_complete(cone_from_rays(rays, lines, dim=2 * dim))
        dcone = cone_D(t)
        want = cone_complete(cone_from_constraints(
            [(0,) * dim + q for q in dcone.con.ineqs],
            [(0,) * dim + q for q in dcone.con.eqns], dim=2 * dim))
        assert cone_equal(prod, want), t.key()


# ---------------------------------------------------------------------------
# properties over random strata


@st.composite
def random_strata(draw, max_degree=5):
    p = draw(st.sampled_from([2, 3, 5]))
    lengths = []
    left = draw(st.integers(min_value=1, max_value=max_degree))
    while left:
        f = draw(st.integers(min_value=1, max_value=left))
        lengths.append(f)
        left -= f
    config = SplittingConfig(p, tuple(lengths))
    members = draw(st.frozensets(st.sampled_from(config.embeddings())))
    return Stratum(config, members)


@given(random_strata())
def test_facet_functionals_are_biorthogonal_to_generators(t):
    # L at beta pairs to zero with every generator except the one at beta,
    # where the pairing is positive; lines pair to zero throughout
    outside = sorted(t.complement())
    gens = generators_Gprime(t)
    rays = [w for w, is_line in gens if not is_line]
    assert len(rays) == len(outside)
    for beta in outside:
        form = functional_LT(t, beta)
        for tau, ray in zip(outside, rays):
            value = dot(form, ray)
            if tau == beta:
                assert value > 0
            else:
                assert value == 0
        for w, is_line in gens:
            if is_line:
                assert dot(form, w) == 0


@settings(max_examples=40)
@given(random_strata(max_degree=4))
def test_generating_families_agree(t):
    assert cone_equal(*both_families(t))


@settings(max_examples=40)
@given(random_strata(max_degree=4))
def test_constraints_cut_out_cone_randomly(t):
    cut = cone_from_constraints(explicit_constraints(t).ineqs,
                                dim=t.config.degree)
    assert cone_equal(cone_D(t), cut)


@given(random_strata())
def test_reduction_section_identities(t):
    outside = sorted(t.complement())
    matrix = reduction_matrix(t)
    assert len(matrix) == len(outside)
    # reduce after lift is the identity on reduced coordinates
    probe = tuple(range(1, len(outside) + 1))
    assert reduce_iT(t, lift_jT(t, probe)) == probe
    # the b lines on T span the kernel of the reduction
    for emb in sorted(t.members):
        b = weight_basis(t.config, "b", emb)
        assert reduce_iT(t, b) == (0,) * len(outside)


@given(random_strata())
def test_section_recipes_telescope(t):
    config = t.config
    tilde = tilde_closure(t)
    for c, f in enumerate(config.cycle_lengths):
        in_t = t.cycle_members(c)
        in_tilde = tilde.cycle_members(c)
        targets = ({i for i in range(f) if i not in in_tilde}
                   | {(i + 1) % f for i in in_tilde - in_t})
        for i in range(f):
            if i in in_t:
                continue
            for j in sorted(targets):
                m = section_recipe(t, EmbeddingId(c, i), EmbeddingId(c, j))
                assert monomial_weight(m) == weight_pair(
                    config, "h", EmbeddingId(c, i), EmbeddingId(c, j))
                assert t.members <= m.base.members <= tilde.members


@given(random_strata())
def test_f_recipes_match_generators(t):
    tilde = tilde_closure(t)
    for beta in sorted(t.complement()):
        monomial, tag = f_recipe(t, beta)
        assert monomial_weight(monomial) == f_weight(t, beta)
        assert tag.is_zero() == (beta not in tilde)


@settings(max_examples=40)
@given(random_strata(max_degree=4))
def test_forced_divisors_detect_own_generator(t):
    # each distinguished generator at an admissible embedding is forced to
    # divide itself
    for beta in sorted(admissible_set(t)):
        assert beta in forced_divisors(t, f_weight(t, beta))


@settings(max_examples=30)
@given(random_strata(max_degree=4))
def test_minimal_cone_lives_under_the_reduced_cone(t):
    mini = minimal_cone(t, "min")
    mini0 = minimal_cone(t, "min0")
    for ray in mini.gen.rays:
        assert cone_member(mini0, ray).inside
    for line in mini.gen.lines:
        assert cone_member(mini0, line).inside
        assert cone_member(mini0, tuple(-x for x in line)).inside


def _minimal_cone_by_image(t, variant):
    """The minimal cone built the long way: cut it out in all d
    coordinates, then map it into reduced coordinates."""
    ineqs = list(explicit_constraints(t).ineqs)
    for beta in sorted(admissible_set(t)):
        if variant == "min0":
            ineqs.append(functional_Lf(t, beta, beta))
            continue
        beta2 = frobenius_shift(t.config, beta, index_tables(t).n[beta])
        ineqs.extend(functional_Lf(t, beta, tau)
                     for tau in t.complement() if tau != beta2)
    pre = cone_from_constraints(ineqs, dim=t.config.degree)
    return cone_image(reduction_matrix(t), pre)


@settings(max_examples=30, deadline=None)
@given(random_strata())
@example(stratum(SplittingConfig(2, (6,)), (0, 0)))
@example(stratum(SplittingConfig(3, (6,)), (0, 0)))
@example(stratum(SplittingConfig(5, (6,)), (0, 0)))
def test_minimal_cone_matches_the_image_construction(t):
    # the restricted forms cut out exactly the image of the full cone, in
    # canonical form; degree 6 is where the two variants first differ
    for variant in ("min", "min0"):
        assert sides(minimal_cone(t, variant)) == \
            sides(_minimal_cone_by_image(t, variant))


@settings(max_examples=30, deadline=None)
@given(random_strata(), st.data())
def test_the_forms_decide_minimal_membership_like_the_cone(t, data):
    # the completed cone's constraints and the raw forms cut out one cone;
    # its rays, lines and their negations sit on its boundary
    dim = len(t.complement())
    for variant in ("min", "min0"):
        cone = minimal_cone(t, variant)
        probes = list(cone.gen.rays + cone.gen.lines)
        probes += [tuple(-x for x in v) for v in probes]
        probes += data.draw(st.lists(
            st.tuples(*[st.integers(-50, 50)] * dim), max_size=20))
        for w in probes:
            assert in_minimal_cone(t, w, variant) == (
                _violated_form(cone.con, w) is None), (variant, w)


def test_degree_six_minimal_cones_differ_by_one_facet():
    t = stratum(SplittingConfig(2, (6,)), (0, 0))
    mini, mini0 = minimal_cone(t, "min"), minimal_cone(t, "min0")
    assert (len(mini.con.ineqs), len(mini0.con.ineqs)) == (7, 6)
    extra = (16, 32, 1, 2, 4)
    assert set(mini.con.ineqs) - set(mini0.con.ineqs) == {extra}
    assert set(mini0.con.ineqs) < set(mini.con.ineqs)
    ray = (-16, -8, 516, 258, -193)
    assert ray in mini0.gen.rays
    assert dot(extra, ray) < 0
    assert first_escape(mini0, mini) == (ray, extra)
    assert in_minimal_cone(t, ray, "min0")
    assert not in_minimal_cone(t, ray, "min")


# ---------------------------------------------------------------------------
# the readings off the sign function against the case analyses over the
# tilde closure


def assert_matches_the_cases(t) -> int:
    """f_weight at every beta outside T, and functional_Lf at every
    admissible beta and every tau outside T other than shift^n(beta), agree
    with the oracle's case analyses; returns the number of calls compared."""
    args = (t.config.p, t.config.cycle_lengths, t.members)
    calls = 0
    for beta in sorted(t.complement()):
        assert f_weight(t, beta) == distinguished_by_pairs(*args, beta), \
            (t, beta)
        calls += 1
    for beta in sorted(admissible_set(t)):
        beta2 = frobenius_shift(t.config, beta, index_tables(t).n[beta])
        for tau in t.complement():
            if tau == beta2:
                continue
            assert functional_Lf(t, beta, tau) == \
                divisor_functional_by_cases(*args, beta, tau), (t, beta, tau)
            calls += 1
    return calls


def every_small_stratum():
    """Every stratum of p in {2, 3} and degree at most 6: 2 x 1042."""
    for p in (2, 3):
        for d in range(1, 7):
            for lengths in partitions(d):
                yield from _every_stratum(SplittingConfig(p, lengths))


def test_sign_readings_match_the_cases_on_every_small_stratum():
    strata = calls = 0
    for t in every_small_stratum():
        calls += assert_matches_the_cases(t)
        strata += 1
    # 5,754 f_weight and 6,698 functional_Lf calls
    assert (strata, calls) == (2 * 1042, 12452)


@given(random_strata(max_degree=6))
def test_sign_readings_match_the_cases(t):
    assert_matches_the_cases(t)


# ---------------------------------------------------------------------------
# the telescoping walk against the exit-parity walk and the patched recipe


def _plain(monomial):
    return monomial.base.members, {(kind, emb): exp
                                   for kind, emb, exp in monomial.factors}


def assert_recipes_match_the_parity_walk(t) -> int:
    """`pair_family` lists the oracle's Hasse pairs, every section recipe
    and every distinguished generator's recipe has the oracle's base
    stratum and factors, and the tag read off the walk is the oracle's
    case split; returns the number of recipes compared."""
    args = (t.config.p, t.config.cycle_lengths, t.members)
    pairs = [pair for c in range(len(t.config.cycle_lengths))
             for pair in pair_family(t, c)]
    assert pairs == hasse_pairs(*args[1:]), t
    for emb, target in pairs:
        assert _plain(section_recipe(t, emb, target)) == \
            recipe_by_exit_parity(*args, emb, target), (t, emb, target)
    for beta in sorted(t.complement()):
        monomial, tag = f_recipe(t, beta)
        assert _plain(monomial) == f_recipe_by_patch(*args, beta), (t, beta)
        assert (tag.residues, tag.moduli) == \
            f_recipe_tag_by_cases(*args, beta), (t, beta)
    return len(pairs) + len(t.complement())


def test_recipes_match_the_parity_walk_on_every_small_stratum():
    strata = recipes = 0
    for t in every_small_stratum():
        recipes += assert_recipes_match_the_parity_walk(t)
        strata += 1
    # 10,462 section recipes and 5,754 distinguished generators' recipes
    assert (strata, recipes) == (2 * 1042, 16216)


@given(random_strata(max_degree=6))
def test_recipes_match_the_parity_walk(t):
    assert_recipes_match_the_parity_walk(t)


# ---------------------------------------------------------------------------
# the per-stratum memo: values shared across calls are never changed


def _no_args(t):
    return [()]


def _every_variant(t):
    return [("min",), ("min0",)]


def _every_cycle(t):
    return [(c,) for c in range(len(t.config.cycle_lengths))]


def _every_admissible(t):
    return [(beta,) for beta in sorted(admissible_set(t))]


def _every_outside(t):
    return [(beta,) for beta in t.complement()]


# each builder with the argument tuples to call it with on a stratum
MEMOISED_CALLS = (
    (Stratum.complement, _no_args),
    (tilde_closure, _no_args),
    (index_tables, _no_args),
    (sign_epsilon, _no_args),
    (admissible_set, _no_args),
    (explicit_constraints, _no_args),
    (halfspace_cone, _no_args),
    (reduction_matrix, _no_args),
    (reduced_cone, _no_args),
    (cone_D, _no_args),
    (f_weight, _every_outside),
    (pair_family, _every_cycle),
    (_divisor_forms, _every_admissible),
    (minimal_forms, _every_variant),
    (minimal_cone, _every_variant),
    (gl2_generators, _no_args),
)


@settings(max_examples=25, deadline=None)
@given(random_strata(max_degree=4))
def test_memoised_values_survive_a_full_record(t):
    stratum_record(t)
    fresh = Stratum(t.config, t.members)
    for builder, calls in MEMOISED_CALLS:
        for args in calls(t):
            assert builder(t, *args) == builder(fresh, *args), \
                (builder.__name__, args)


def _every_basis_weight(config):
    return [(kind, emb) for kind in ("e", "h", "b")
            for emb in config.embeddings()]


def _every_pair_weight(config):
    return [(kind, emb, other) for kind in ("h", "b")
            for emb in config.embeddings() for other in config.embeddings()
            if emb.cycle == other.cycle]


def _every_cycle_subset(config):
    return [(f, frozenset(i for i in range(f) if mask >> i & 1))
            for f in sorted(set(config.cycle_lengths))
            for mask in range(1 << f)]


# the same for the builders memoised on a configuration
CONFIG_MEMOISED_CALLS = (
    (weight_basis, _every_basis_weight),
    (weight_pair, _every_pair_weight),
    (_cycle_stratum, _every_cycle_subset),
)


@settings(max_examples=25, deadline=None)
@given(random_strata(max_degree=4))
def test_configuration_memo_values_survive_a_full_record(t):
    stratum_record(t)
    config = t.config
    names = {key[0].rsplit(".", 1)[-1] for key in config._memo}
    assert {"weight_basis", "weight_pair"} <= names
    fresh = SplittingConfig(config.p, config.cycle_lengths)
    for builder, calls in CONFIG_MEMOISED_CALLS:
        for args in calls(config):
            assert builder(config, *args) == builder(fresh, *args), \
                (builder.__name__, args)


@settings(max_examples=40, deadline=None)
@given(random_strata(max_degree=4))
def test_sign_epsilon_is_not_mutated_by_its_users(t):
    before = dict(sign_epsilon(t))
    minimal_cone(t, "min")
    minimal_cone(t, "min0")
    for beta in sorted(admissible_set(t)):
        beta2 = frobenius_shift(t.config, beta, index_tables(t).n[beta])
        for tau in t.complement():
            if tau == beta2:
                continue
            functional_Lf(t, beta, tau)
    assert sign_epsilon(t) == before


def test_the_memo_dies_with_its_stratum():
    t = stratum(CFG_C, (0, 1))
    stratum_record(t)
    gone = weakref.ref(t)
    gc.disable()
    try:
        del t
        assert gone() is None
    finally:
        gc.enable()


def test_a_configuration_and_its_memo_die_together():
    config = SplittingConfig(3, (2, 1))
    stratum_record(stratum(config, (0, 1)))
    # the sub-strata of the product check, one per cycle, and their
    # single-cycle configurations live only in the memo
    subs = [value for key, value in config._memo.items()
            if key[0].endswith("._cycle_stratum")]
    assert sorted((s.config.cycle_lengths, sorted(s.cycle_members(0)))
                  for s in subs) == [((1,), []), ((2,), [1])]
    gone = [weakref.ref(config)] + [weakref.ref(x) for s in subs
                                    for x in (s, s.config)]
    del subs
    gc.disable()
    try:
        del config
        assert [ref() for ref in gone] == [None] * len(gone)
    finally:
        gc.enable()
