"""Exact cone engine: pinned examples and randomized algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import (canon_basis, canon_gen, dot, dual_vrep, phase1_coeffs,
                    rank, ray_enum, rref)

from strata_cones import cone_kernel
from strata_cones.cone_kernel import (
    Cone,
    ConstraintRep,
    GeneratorRep,
    MembershipCertificate,
    cone_complete,
    cone_dual,
    cone_equal,
    cone_from_constraints,
    cone_from_rays,
    cone_image,
    cone_intersect,
    cone_lineality,
    cone_member,
    cone_subset,
    cone_sum,
    certificate_valid,
    first_escape,
    full_space,
    normalize_primitive,
    zero_cone,
    _reduce_mod,
)
from strata_cones.splitting import SplittingConfig, stratum_from_text
from strata_cones.weights import (
    cone_D,
    family_cone,
    generators_G,
    minimal_cone,
)


def test_normalize_primitive():
    assert normalize_primitive((2, 4)) == (1, 2)
    assert normalize_primitive((Fraction(-1, 3), 1)) == (-1, 3)
    assert normalize_primitive((0, -5, 10)) == (0, -1, 2)
    with pytest.raises(ValueError, match="zero ray"):
        normalize_primitive((0, 0))


HALF_PLANE = cone_from_rays([(1, 0)], [(0, 1)])
LINE_IN_SPACE = cone_from_rays([], [(1, 0, 0)])


@pytest.mark.parametrize("call, message", [
    (lambda: cone_from_rays([(1, 0), (1,)]), "vector has length 1"),
    (lambda: cone_from_rays([(1, 0)], [(0, 1, 0)]), "vector has length 3"),
    (lambda: cone_from_constraints([(1, 0)], dim=3), "vector has length 2"),
    (lambda: cone_from_constraints([], [(1,)], dim=2), "vector has length 1"),
    (lambda: cone_from_rays([]), "ambient dimension required"),
    (lambda: cone_from_constraints([], []), "ambient dimension required"),
    (lambda: cone_complete(Cone(dim=2)), "neither representation"),
    (lambda: cone_member(HALF_PLANE, (1, 0, 0)), "vector has length 3"),
    (lambda: cone_image([(1, 0, 0)], HALF_PLANE), "vector has length 3"),
    (lambda: first_escape(HALF_PLANE, LINE_IN_SPACE), "different ambient"),
    (lambda: cone_equal(LINE_IN_SPACE, HALF_PLANE), "different ambient"),
], ids=["ray", "line", "inequality", "equation", "rays-without-dim",
        "constraints-without-dim", "no-representation", "member",
        "image-row", "first-escape", "equal"])
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_complete_first_orthant():
    c = cone_complete(cone_from_rays([(1, 0), (0, 1)]))
    assert set(c.con.ineqs) == {(1, 0), (0, 1)}
    assert c.con.eqns == ()


def test_complete_hasse_pair_cone():
    c = cone_complete(cone_from_rays([(-1, 3), (3, -1)]))
    assert set(c.con.ineqs) == {(3, 1), (1, 3)}


def test_complete_single_equation():
    c = cone_complete(cone_from_constraints([], [(1, -1)], dim=2))
    assert c.gen.rays == ()
    assert c.gen.lines == ((1, 1),)


def test_complete_idempotent_bitwise():
    c = cone_complete(cone_from_rays([(-1, 3), (3, -1), (1, 1)]))
    assert cone_complete(c) == c


def test_dual_examples():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    assert cone_equal(cone_dual(orthant), orthant)
    assert cone_equal(cone_dual(full_space(2)), zero_cone(2))
    assert cone_equal(cone_dual(zero_cone(2)), full_space(2))
    pair = cone_complete(cone_from_rays([(-1, 3), (3, -1)]))
    assert set(cone_complete(cone_dual(pair)).gen.rays) == {(3, 1), (1, 3)}


def test_member_orthant():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    cert = cone_member(orthant, (1, 1))
    assert cert.inside
    assert cert.ray_coeffs == {0: 1, 1: 1}
    assert certificate_valid(orthant, (1, 1), cert)


def test_member_pair_cone_inside():
    pair = cone_from_rays([(-1, 3), (3, -1)])
    cert = cone_member(pair, (1, 1))
    assert cert.inside
    assert cert.ray_coeffs == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert certificate_valid(pair, (1, 1), cert)


def test_member_pair_cone_outside():
    pair = cone_from_rays([(-1, 3), (3, -1)])
    cert = cone_member(pair, (-1, 0))
    assert not cert.inside
    # both facet forms reject this point; either is a sound witness
    assert cert.violated_form in {(1, 3), (3, 1)}
    assert certificate_valid(pair, (-1, 0), cert)


# the half-plane x >= 0: one ray and one line, each forgery below refused
# by exactly one test of `certificate_valid`
HALF_PLANE = cone_from_rays([(1, 0)], [(0, 1)])
FORGERIES = {
    "no ray coefficients": ((0, 5), MembershipCertificate(
        inside=True, line_coeffs={0: Fraction(5)})),
    "no line coefficients": ((2, 0), MembershipCertificate(
        inside=True, ray_coeffs={0: Fraction(2)})),
    # the combination is exact, only the sign is wrong
    "a negative ray coefficient": ((-2, 5), MembershipCertificate(
        inside=True, ray_coeffs={0: Fraction(-2)},
        line_coeffs={0: Fraction(5)})),
    "a combination that misses the vector": ((2, 5), MembershipCertificate(
        inside=True, ray_coeffs={0: Fraction(2)},
        line_coeffs={0: Fraction(4)})),
    "no outside form": ((-2, 5), MembershipCertificate(inside=False)),
    "an outside form that is >= 0 on the vector": ((2, 5),
        MembershipCertificate(inside=False, violated_form=(1, 0))),
    "an outside form negative on a ray": ((2, 5), MembershipCertificate(
        inside=False, violated_form=(-1, 0))),
    "an outside form nonzero on a line": ((2, 5), MembershipCertificate(
        inside=False, violated_form=(1, -1))),
    # keys that Python indexing would read as another generator, or past
    # the end
    "a negative ray index": ((2, 5), MembershipCertificate(
        inside=True, ray_coeffs={-1: Fraction(2)},
        line_coeffs={0: Fraction(5)})),
    "a line index past the end": ((2, 5), MembershipCertificate(
        inside=True, ray_coeffs={0: Fraction(2)},
        line_coeffs={1: Fraction(5)})),
    "a boolean ray index": ((2, 5), MembershipCertificate(
        inside=True, ray_coeffs={True: Fraction(2)},
        line_coeffs={0: Fraction(5)})),
    "a boolean line index": ((2, 5), MembershipCertificate(
        inside=True, ray_coeffs={0: Fraction(2)},
        line_coeffs={False: Fraction(5)})),
}


@pytest.mark.parametrize("forgery", FORGERIES)
def test_certificate_valid_refuses_forgeries(forgery):
    assert cone_complete(HALF_PLANE).gen == GeneratorRep(
        rays=((1, 0),), lines=((0, 1),))
    vec, cert = FORGERIES[forgery]
    assert not certificate_valid(HALF_PLANE, vec, cert)
    # the honest answer for the same vector is accepted
    assert certificate_valid(HALF_PLANE, vec, cone_member(HALF_PLANE, vec))


def test_subset_and_equal():
    orthant_gen = cone_from_rays([(1, 0), (0, 1)])
    orthant_con = cone_from_constraints([(1, 0), (0, 1)])
    assert cone_equal(orthant_gen, orthant_con)
    ray = cone_from_rays([(1, 0)])
    assert cone_subset(ray, orthant_gen)
    assert not cone_subset(orthant_gen, ray)
    assert not cone_equal(ray, orthant_gen)
    pair = cone_from_rays([(-1, 3), (3, -1)])
    halves = cone_from_constraints([(3, 1), (1, 3)])
    assert cone_equal(pair, halves)


def test_intersect_and_sum():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    left = cone_from_constraints([(-1, 0)])
    meet = cone_complete(cone_intersect(orthant, left))
    assert meet.gen.rays == ((0, 1),) and meet.gen.lines == ()
    join = cone_sum(cone_from_rays([(1, 0)]), cone_from_rays([(0, 1)]))
    assert cone_equal(join, orthant)
    wedge = cone_complete(cone_intersect(cone_from_constraints([(-1, 3)]),
                                         cone_from_constraints([(1, 0)])))
    assert set(wedge.gen.rays) == {(0, 1), (3, 1)}


def test_image_examples():
    pair = cone_complete(cone_from_rays([(-1, 3), (3, -1)]))
    same = cone_image(((1, 0), (0, 1)), pair)
    assert cone_equal(same, pair)
    orthant = cone_from_rays([(1, 0), (0, 1)])
    shadow = cone_complete(cone_image(((1, 0),), orthant))
    assert shadow.gen.rays == ((1,),)
    c = cone_from_rays([(-1, 0)], lines=[(2, 1)])
    img = cone_complete(cone_image(((1, -2),), c))
    assert img.gen.rays == ((-1,),) and img.gen.lines == ()


def test_lineality_examples():
    assert cone_lineality(cone_from_rays([(1, 0), (0, 1)])) == []
    single = cone_lineality(cone_from_rays([], lines=[(3, 1)]))
    assert single == [(3, 1)]
    big = cone_lineality(cone_from_rays([(-1, 0, 0)],
                                        lines=[(2, 1, 0), (0, 2, 1)]))
    # same plane as span{(2,1,0),(0,2,1)}, in canonical echelon form
    assert len(big) == 2
    plane = cone_from_rays([], lines=[(2, 1, 0), (0, 2, 1)])
    for v in big:
        assert cone_member(plane, v).inside
    for v in [(2, 1, 0), (0, 2, 1)]:
        assert cone_member(cone_from_rays([], lines=big), v).inside


def test_zero_and_full_space():
    z = zero_cone(3)
    f = full_space(3)
    assert cone_subset(z, f)
    assert cone_equal(cone_dual(f), z)
    assert cone_member(z, (0, 0, 0)).inside
    assert not cone_member(z, (1, 0, 0)).inside
    assert cone_member(f, (-7, 2, 5)).inside


def test_dim_zero():
    z = full_space(0)
    assert cone_equal(z, zero_cone(0))
    assert cone_member(z, ()).inside


def coord_vectors(dim, bound=3):
    return st.tuples(*[st.integers(-bound, bound)] * dim)


@st.composite
def random_systems(draw, dim=None):
    """The data of a random cone: (dim, given by rays, rays or inequalities,
    lines or equations), zero vectors dropped."""
    if dim is None:
        dim = draw(st.integers(1, 4))
    by_rays = draw(st.booleans())
    vecs = draw(st.lists(coord_vectors(dim), max_size=4))
    lin = draw(st.lists(coord_vectors(dim), max_size=2))
    return (dim, by_rays, [v for v in vecs if any(v)],
            [v for v in lin if any(v)])


def cone_of(system):
    dim, by_rays, vecs, lin = system
    build = cone_from_rays if by_rays else cone_from_constraints
    return build(vecs, lin, dim=dim)


def random_cones(dim=None):
    return random_systems(dim).map(cone_of)


@st.composite
def crowded_systems(draw):
    """Five or six vectors with a positive last coordinate in dimension 3
    or 4.  Read as rays they span a pointed cone, read as inequalities they
    cut out a full-dimensional one; either way double description meets
    positive/negative pairs that are not adjacent, which the systems of
    `random_systems` are too small to reach."""
    dim = draw(st.integers(3, 4))
    last = st.integers(1, 3)
    vecs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * (dim - 1), last),
                         min_size=5, max_size=6))
    return dim, draw(st.booleans()), vecs, []


# on crowded systems the oracle's subset search can outlast the default
# hypothesis deadline
@settings(deadline=None)
@given(st.one_of(random_systems(), crowded_systems()))
def test_complete_agrees_with_the_oracle(system):
    dim, by_rays, vecs, lin = system
    done = cone_of(system)
    # the oracle turns either representation into the other, canonically
    first = dual_vrep(vecs, lin, dim)
    second = dual_vrep(*first, dim)
    gen, con = (second, first) if by_rays else (first, second)
    assert (list(done.gen.rays), list(done.gen.lines)) == gen
    assert (list(done.con.ineqs), list(done.con.eqns)) == con


@given(random_cones())
def test_round_trip(c):
    done = cone_complete(c)
    assert cone_equal(c, done)
    assert cone_complete(done) == done


@given(random_cones())
def test_dual_involution(c):
    done = cone_complete(c)
    assert cone_complete(cone_dual(cone_dual(done))) == done


@given(st.data())
def test_membership_certificates(data):
    c = data.draw(random_cones())
    v = data.draw(coord_vectors(c.dim, bound=4))
    cert = cone_member(c, v)
    assert certificate_valid(c, v, cert)
    done = cone_complete(c)
    farkas = (all(sum(a * b for a, b in zip(q, v)) >= 0
                  for q in done.con.ineqs)
              and all(sum(a * b for a, b in zip(q, v)) == 0
                      for q in done.con.eqns))
    assert cert.inside == farkas


@given(st.data())
def test_de_morgan_duality(data):
    dim = data.draw(st.integers(1, 3))
    a = data.draw(random_cones(dim=dim))
    b = data.draw(random_cones(dim=dim))
    lhs = cone_dual(cone_intersect(a, b))
    rhs = cone_sum(cone_dual(a), cone_dual(b))
    assert cone_equal(lhs, rhs)


@given(random_cones())
def test_lineality_is_inside_both_ways(c):
    for v in cone_lineality(c):
        assert cone_member(c, v).inside
        assert cone_member(c, tuple(-x for x in v)).inside


def _lp_escape(inner, outer):
    """The first escaping generator found by membership LPs, one per
    generator, as containment was decided before `first_escape`."""
    a = cone_complete(inner)
    for gen in a.gen.rays + a.gen.lines + tuple(
            tuple(-x for x in line) for line in a.gen.lines):
        cert = cone_member(outer, gen)
        if not cert.inside:
            return gen, cert.violated_form
    return None


@given(st.data())
def test_first_escape_agrees_with_membership_lps(data):
    dim = data.draw(st.integers(1, 4))
    a = data.draw(random_cones(dim=dim))
    b = data.draw(random_cones(dim=dim))
    escape = first_escape(a, b)
    assert escape == _lp_escape(a, b)
    assert (escape is None) == cone_subset(a, b)
    if escape is not None:
        gen, form = escape
        assert sum(x * y for x, y in zip(form, gen)) < 0
        done = cone_complete(b)
        assert all(sum(x * y for x, y in zip(form, r)) >= 0
                   for r in done.gen.rays)
        assert all(sum(x * y for x, y in zip(form, l)) == 0
                   for l in done.gen.lines)


@given(st.data())
def test_cone_equal_is_equality_of_canonical_forms(data):
    dim = data.draw(st.integers(1, 4))
    a = data.draw(random_cones(dim=dim))
    b = data.draw(random_cones(dim=dim))
    done = cone_complete(a)
    # the same cone as `a`, given by redundant scaled rays and by constraints
    rays = [tuple(2 * x for x in r) for r in done.gen.rays]
    if rays:
        rays.append(tuple(map(sum, zip(*rays))))
    by_rays = cone_from_rays(rays, done.gen.lines, dim=dim)
    by_constraints = cone_from_constraints(done.con.ineqs, done.con.eqns,
                                           dim=dim)
    pairs = [(a, b), (b, a), (a, by_rays), (by_rays, by_constraints),
             (by_constraints, b)]
    for x, y in pairs:
        assert cone_equal(x, y) == (cone_complete(x) == cone_complete(y))
    assert cone_equal(by_rays, by_constraints)


# ---------------------------------------------------------------------------
# sides computed on first read against cones completed up front


@st.composite
def cone_recipes(draw, dim):
    """How to build a cone: a random system through either factory, then
    kept as it is, dualised, mapped by a square matrix, or intersected with a
    second random cone.  A recipe builds a fresh cone each time."""
    system = draw(random_systems(dim=dim))
    step = draw(st.sampled_from(["plain", "dual", "image", "intersect"]))
    extra = None
    if step == "image":
        extra = draw(st.lists(coord_vectors(dim, bound=2), min_size=dim,
                              max_size=dim))
    elif step == "intersect":
        extra = draw(random_systems(dim=dim))
    return system, step, extra


def build(recipe):
    system, step, extra = recipe
    cone = cone_of(system)
    if step == "dual":
        return cone_dual(cone)
    if step == "image":
        return cone_image(extra, cone)
    if step == "intersect":
        return cone_intersect(cone, cone_of(extra))
    return cone


@settings(deadline=None)
@given(st.data())
def test_lazy_cones_answer_as_completed_copies(data):
    dim = data.draw(st.integers(1, 4))
    a, b = data.draw(cone_recipes(dim)), data.draw(cone_recipes(dim))
    v = data.draw(coord_vectors(dim, bound=4))
    queries = [first_escape, lambda x, y: first_escape(y, x), cone_subset,
               cone_equal, lambda x, y: cone_member(x, v),
               lambda x, y: cone_member(y, v)]
    # each query on fresh cones, so none reads a side another one computed
    lazy = [query(build(a), build(b)) for query in queries]
    done = [query(cone_complete(build(a)), cone_complete(build(b)))
            for query in queries]
    assert lazy == done


def test_factories_run_no_double_description(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a double description pass ran")
    monkeypatch.setattr(cone_kernel, "_ray_enum", forbidden)
    cone_kernel._dual_canon.cache_clear()
    a = cone_from_rays([(1, 0, 0), (0, 1, 0)], [(0, 0, 1)])
    b = cone_from_constraints([(1, 0, 0)], [(0, 1, -1)])
    for c in (cone_dual(a), cone_image([(1, 1, 0), (0, 1, 0)], a),
              cone_sum(a, a), cone_intersect(b, b)):
        assert isinstance(c, Cone)
    # given generators against given constraints decide containment
    assert not cone_subset(a, b)
    assert cone_subset(cone_from_rays([(1, 2, 2)]), b)


# ---------------------------------------------------------------------------
# the single-pass double description and its memo


@st.composite
def repeated_systems(draw):
    """A random or crowded system with some vectors repeated, scaled by a
    positive factor or added in pairs (redundant as inequalities), and with
    equations repeated too, in a random order."""
    dim, by_rays, vecs, lin = draw(st.one_of(random_systems(),
                                             crowded_systems()))

    def grow(pool):
        out = list(pool)
        for _ in range(draw(st.integers(0, 3)) if pool else 0):
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            k = draw(st.integers(1, 3))
            out.append(draw(st.sampled_from([
                a, tuple(k * x for x in a),
                tuple(x + y for x, y in zip(a, b))])))
        return draw(st.permutations(out))

    return dim, by_rays, grow(vecs), grow(lin)


@settings(deadline=None)
@given(st.one_of(random_systems(), crowded_systems(), repeated_systems()))
def test_ray_enum_agrees_with_the_plain_loop(system):
    # the pass returns the canonical form but for the order of its rays; the
    # plain loop's output is brought to it by the two-stage canonicaliser
    dim, _, vecs, lin = system
    rays, lines = cone_kernel._ray_enum(vecs, lin, dim)
    assert (tuple(sorted(rays)), tuple(lines)) == \
        canon_gen(*ray_enum(vecs, lin, dim), dim)


@settings(deadline=None)
@given(st.one_of(random_systems(), crowded_systems()))
def test_memoised_completion_equals_a_fresh_one(system):
    first = cone_complete(cone_of(system))
    again = cone_complete(cone_of(system))
    cone_kernel._dual_canon.cache_clear()
    assert first == again == cone_of(system)


@given(random_systems(), st.integers(1, 4))
def test_equal_fraction_and_int_inputs_complete_alike(system, k):
    dim, by_rays, vecs, lin = system
    as_fractions = (dim, by_rays,
                    [tuple(Fraction(k * x, k) for x in v) for v in vecs],
                    [tuple(Fraction(k * x, k) for x in v) for v in lin])
    cone_kernel._dual_canon.cache_clear()
    from_fractions = cone_complete(cone_of(as_fractions))
    before = cone_kernel._dual_canon.cache_info()
    # the integer keys equal the Fraction ones, so the memo serves them
    from_ints = cone_complete(cone_of(system))
    assert cone_kernel._dual_canon.cache_info().misses == before.misses
    cone_kernel._dual_canon.cache_clear()
    assert from_fractions == from_ints == cone_of(system)


def test_cones_held_in_lists_complete():
    # the memo is keyed on tuples; lists are converted, not refused
    by_rays = Cone(2, gen=GeneratorRep(rays=[[1, 0], [0, 1]], lines=[]))
    by_forms = Cone(2, con=ConstraintRep(ineqs=[[1, 0], [0, 1]], eqns=[]))
    orthant = cone_from_rays([(1, 0), (0, 1)])
    assert cone_complete(by_rays) == cone_complete(by_forms) == orthant


def test_the_memo_is_bounded():
    cone_kernel._dual_canon.cache_clear()
    for k in range(300):
        cone_from_rays([(1, k), (k + 1, -1)]).con
    info = cone_kernel._dual_canon.cache_info()
    assert info.misses >= 300
    assert info.currsize <= 256


# ---------------------------------------------------------------------------
# the fraction-free canonical form against the rational construction


@st.composite
def row_families(draw, dim):
    """Rows spanning a random subspace, with negative pivots, dependent,
    repeated and zero rows, some given as `Fraction`s."""
    base = draw(st.lists(coord_vectors(dim), max_size=4))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        if not base:
            break
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        k = draw(st.integers(-3, 3))
        rows.append(tuple(x + k * y for x, y in zip(a, b)))
    rows += [(0,) * dim] * draw(st.integers(0, 1))
    rows = draw(st.permutations(rows))
    out = []
    for row in rows:
        den = draw(st.sampled_from([None, 1, 2, -3]))
        out.append(row if den is None else
                   tuple(Fraction(x, den) if i % 2 else x
                         for i, x in enumerate(row)))
    return out


def _rational_canon_gen(rays, lines, dim):
    """The canonical (rays, lines) computed over `Fraction`, as they were
    before canonicalisation went fraction-free."""
    basis = tuple(normalize_primitive(row) for row in rref(lines, dim)[0])
    out = set()
    for r in rays:
        v = [Fraction(x) for x in r]
        for b in basis:
            j = next(i for i, x in enumerate(b) if x != 0)
            if v[j] != 0:
                f = v[j] / b[j]
                v = [a - f * c for a, c in zip(v, b)]
        if any(v):
            out.add(normalize_primitive(v))
    return tuple(sorted(out)), basis


@given(st.data())
def test_canon_basis_is_the_primitive_rref(data):
    dim = data.draw(st.integers(1, 5))
    rows = data.draw(row_families(dim))
    red, _ = rref(rows, dim)
    assert canon_basis(rows, dim) == tuple(map(normalize_primitive, red))


@given(st.data())
def test_reduce_mod_steps_rebuild_the_vector(data):
    dim = data.draw(st.integers(1, 5))
    basis = canon_basis(data.draw(row_families(dim)), dim)
    vec = data.draw(st.tuples(*[st.fractions(-20, 20, max_denominator=6)]
                              * dim))
    rest, steps = _reduce_mod(vec, basis)
    pivots = [next(j for j, x in enumerate(b) if x != 0) for b in basis]
    assert all(rest[j] == 0 for j in pivots)
    # undo each step v <- b[j]*v - v[j]*b, last first
    v = [Fraction(x) for x in rest]
    for i, f, bj in reversed(steps):
        v = [(x + f * c) / bj for x, c in zip(v, basis[i])]
    assert v == [Fraction(x) for x in vec]


@given(st.data())
def test_canon_gen_agrees_with_the_rational_construction(data):
    dim = data.draw(st.integers(1, 5))
    lines = data.draw(row_families(dim))
    rays = data.draw(row_families(dim))
    assert canon_gen(rays, lines, dim) == \
        _rational_canon_gen(rays, lines, dim)


@st.composite
def independent_rows(draw, dim):
    """Up to `dim` linearly independent rows, some given as `Fraction`s:
    random rows, each kept only when it raises the rank."""
    rows = []
    for row in draw(st.lists(coord_vectors(dim), max_size=dim + 2)):
        if len(rows) < dim and rank(rows + [row], dim) > len(rows):
            rows.append(row)
    den = draw(st.sampled_from([1, 2, 3]))
    return [tuple(Fraction(x, den) for x in row) if den > 1 else row
            for row in rows]


@st.composite
def constraint_systems(draw):
    """Inequalities and equations in dimension 1 to 5: the rows of a random
    row family (dependent, repeated, zero and `Fraction` rows) or of an
    independent family, split at random between the two kinds."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.one_of(row_families(dim), independent_rows(dim)))
    eqn = draw(st.lists(st.booleans(), min_size=len(rows),
                        max_size=len(rows)))
    ineqs = tuple(tuple(r) for r, e in zip(rows, eqn) if not e)
    eqns = tuple(tuple(r) for r, e in zip(rows, eqn) if e)
    return ineqs, eqns, dim


@settings(deadline=None)
@given(constraint_systems())
def test_dual_canon_agrees_with_the_two_stage_reference(system):
    ineqs, eqns, dim = system
    got = cone_kernel._dual_canon.__wrapped__(ineqs, eqns, dim)
    assert (got.rays, got.lines) == canon_gen(*ray_enum(ineqs, eqns, dim),
                                              dim)


@given(coord_vectors(4, bound=60), st.integers(1, 12))
def test_normalize_primitive_int_and_rational_paths_agree(v, k):
    if any(v):
        want = normalize_primitive([Fraction(x) for x in v])
        assert normalize_primitive(v) == want
        assert normalize_primitive([k * x for x in v]) == want
        assert normalize_primitive([Fraction(x, k) for x in v]) == want


def _fraction_forbidden(*args, **kwargs):
    raise AssertionError("a Fraction was built from integer input")


@settings(max_examples=50, deadline=None)
@given(st.one_of(random_systems(), crowded_systems()))
def test_integer_cones_complete_without_fractions(system):
    # an empty kernel memo, so the cone is completed under the patch
    cone_kernel._dual_canon.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cone_kernel, "Fraction", _fraction_forbidden)
        done = cone_complete(cone_of(system))
    assert done == cone_of(system)


def test_stratum_cones_complete_without_fractions(monkeypatch):
    # a fresh stratum and an empty kernel memo, so nothing comes from either
    t = stratum_from_text(SplittingConfig(2, (6,)), "0.0")
    cone_kernel._dual_canon.cache_clear()
    monkeypatch.setattr(cone_kernel, "Fraction", _fraction_forbidden)
    cones = [cone_complete(c) for c in (
        family_cone(generators_G(t), 6), cone_D(t),
        minimal_cone(t, "min"), minimal_cone(t, "min0"))]
    assert [len(c.con.ineqs) for c in cones[2:]] == [7, 6]


def test_outside_membership_builds_no_fraction(monkeypatch):
    pair = cone_complete(cone_from_rays([(-1, 3), (3, -1)]))
    monkeypatch.setattr(cone_kernel, "Fraction", _fraction_forbidden)
    cert = cone_member(pair, (-1, 0))
    assert not cert.inside
    assert cert.violated_form in {(1, 3), (3, 1)}
    with pytest.raises(AssertionError, match="integer input"):
        cone_member(pair, (1, 1))


# ---------------------------------------------------------------------------
# inside certificates by the walk down the faces


@st.composite
def member_queries(draw, bound=3, max_den=3):
    """A cone system (as `cone_of` reads it) and a rational vector.

    In dimension 3 and 4 the system may be crowded: more rays or
    inequalities than dimensions, all with a positive last coordinate, and
    no lines or equations.  Given by rays, the vector is a nonnegative
    combination of the rays plus a combination of the lines, or a random
    vector.  Given by constraints, the inequalities are turned to hold on a
    random vector v and each equation e becomes (v.v) e - (e.v) v, which
    vanishes on it, or they are kept as drawn.  Either side then gains
    redundant rows, a scaled copy or the sum of two, and some rows are
    divided by 2 or 3 and given as `Fraction`s.  The vector is divided
    by an integer up to `max_den`, as rational input reaches
    `cone_member`."""
    dim = draw(st.integers(0, 4))
    by_rays = draw(st.booleans())
    crowded = dim >= 3 and draw(st.booleans())
    vecs = draw(st.lists(coord_vectors(dim, bound=bound),
                         min_size=dim + 2 if crowded else 0, max_size=6))
    flat = [] if crowded else draw(
        st.lists(coord_vectors(dim, bound=bound), max_size=2))
    if crowded:
        # as in `crowded_systems`: read as rays they span a pointed cone,
        # often not simplicial, and read as inequalities a full one
        vecs = [(*v[:-1], abs(v[-1]) + 1) for v in vecs]
    inside = draw(st.booleans())
    if by_rays and inside:
        def combo(pool, low):
            ks = draw(st.lists(st.integers(low, 2), min_size=len(pool),
                               max_size=len(pool)))
            return [sum(k * v[i] for k, v in zip(ks, pool))
                    for i in range(dim)]
        target = tuple(map(sum, zip(combo(vecs, 0), combo(flat, -2))))
    else:
        target = draw(coord_vectors(dim, bound=max(3, bound)))
    if not by_rays and inside:
        vv = dot(target, target)
        vecs = [a if dot(a, target) >= 0 else tuple(-x for x in a)
                for a in vecs]
        flat = [tuple(vv * x - dot(e, target) * y for x, y in zip(e, target))
                for e in flat]

    def redundant(pool):
        if not pool:
            return pool
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        k = draw(st.integers(1, 3))
        return pool + draw(st.lists(st.sampled_from([
            tuple(k * x for x in a), tuple(x + y for x, y in zip(a, b))]),
            max_size=2))

    def rational(pool):
        # a row divided by k and given as `Fraction`s: the same cone
        ks = draw(st.lists(st.integers(1, 3), min_size=len(pool),
                           max_size=len(pool)))
        return [a if k == 1 else tuple(Fraction(x, k) for x in a)
                for a, k in zip(pool, ks)]

    den = draw(st.integers(1, max_den))
    return ((dim, by_rays, rational(redundant(vecs)),
             rational(redundant(flat))),
            tuple(Fraction(x, den) for x in target))


# five rays in dimension 3: the point has more than one certificate, and
# which one a method finds depends on how it breaks ties.  The second
# example is outside: x (1, 0) + y (1, 1) = (0, 1) needs x = -1.
BLAND_DECIDES = ((3, True, [(0, -1, 0), (1, 0, -1), (1, 0, 1), (1, 1, -1),
                            (-1, 1, 0)], []), (-1, 1, -1))


# entries up to 10**6 and denominators up to 10**9 make every ratio of the
# walk, and so its scale, large
@settings(max_examples=300, deadline=None)
@example(BLAND_DECIDES)
@example(((2, True, [(1, 0), (1, 1)], []), (0, 1)))
@example(((2, True, [(999_983, -999_979), (-1_000_000, 999_999), (3, 7)],
           []), (Fraction(123_457, 999_999_937), Fraction(-1, 999_999_929))))
@given(st.one_of(member_queries(),
                 member_queries(bound=10**6, max_den=10**9)))
def test_walk_certificates_are_valid_and_unique_where_independent(query):
    system, target = query
    cone = cone_of(system)
    cert = cone_member(cone, target)
    assert certificate_valid(cone, target, cert)
    gen = cone.gen
    k, m = len(gen.rays), len(gen.lines)
    if not cert.inside or rank(gen.rays + gen.lines, cone.dim) < k + m:
        return
    # the coefficients are unique: the full-tableau simplex over the rays,
    # the lines and the negated lines finds them too
    negated = tuple(tuple(-c for c in line) for line in gen.lines)
    x = phase1_coeffs(gen.rays + gen.lines + negated, target)
    assert [cert.ray_coeffs.get(i, 0) for i in range(k)] == x[:k]
    assert [cert.line_coeffs.get(j, 0) for j in range(m)] == \
        [a - b for a, b in zip(x[k:k + m], x[k + m:])]
