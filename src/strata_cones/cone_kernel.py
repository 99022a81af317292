"""Exact rational polyhedral cones.

A cone is held in up to two representations: generators (extreme rays plus a
basis of the lineality space) and constraints (facet inequalities plus
equations).  All arithmetic is exact: arbitrary-precision integers, and
`fractions.Fraction` only for rational input and for the coefficients of an
inside membership certificate.  No floating point is used anywhere.
Completing a cone given by integer vectors constructs no `Fraction`: the
double description pass scales each row to primitive integers once, on
entry, and works in integers from there.

Canonical form, each side computed the first time it is read:

* equations and lines are the primitive rows of the reduced row echelon
  basis, pivots positive, in pivot order;
* inequalities and rays are reduced modulo that basis (zero at its pivot
  coordinates), scaled primitive (gcd one, denominators cleared, direction
  kept), and sorted lexicographically.

The pass returns this form itself (`_ray_enum`).  It starts from a row basis
of the system, found by one fraction-free Gauss-Jordan elimination with
pivots at the rightmost column: that elimination gives the lineality as the
basis above, one line per free column, and the rays of the basis as the
columns of its inverse, zero on the free columns.  Only the rows outside the
basis then go through the sign split, and every ray stays reduced and
primitive, so the canonical side is the pass plus a sort.

A `Cone` keeps the side it was given.  The canonical constraints are one
double description pass over a generating set, and the canonical generators
one pass over a constraint system, so a factory, an image or a sum runs
none, and a cone given by generators pays for its canonical generators only
when they are read.  The pass decides adjacency combinatorially from the
tight sets of its rays.  Its canonical result is memoised (`_dual_canon`,
the 256 most recently used), keyed on the vector tuples and the dimension.
Sharing it is safe: it depends only on the cone, equal keys (an `int` and an
equal `Fraction`) describe the same cone, and it is a NamedTuple of tuples.

Containment is decided from the given sides (`first_escape`): the inner
cone's generators against the outer cone's constraints, whatever form either
was given in.  Only an escape reads the canonical sides, for its witness.
An inside membership certificate comes from a walk down the faces
(Caratheodory): subtract the first canonical ray of the smallest face that
holds the point, as far as the constraints held allow, until nothing is
left; it works in integers over one scale.
"""

import functools
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[int, ...]
Rational = int | Fraction


def normalize_primitive(vec: Sequence[Rational]) -> Vec:
    """Scale a rational vector to primitive integers (gcd 1, direction kept).

    Integer input is divided by its content directly; only rational input
    (which `gcd` refuses) has its denominators cleared through `Fraction`.
    Raises ValueError on the zero vector, which has no direction, and on a
    coordinate that is not exact (`_check_vectors`).
    """
    try:
        g = gcd(*vec)
    except TypeError:
        _check_vectors((vec,), len(vec))
        fr = [Fraction(x) for x in vec]
        den = lcm(*(f.denominator for f in fr))
        vec = [int(f * den) for f in fr]
        g = gcd(*vec)
    if g == 1:
        return tuple(vec)
    if g == 0:
        raise ValueError("cannot normalize a zero ray")
    return tuple(x // g for x in vec)


def _dot(a: Sequence[Rational], b: Sequence[Rational]):
    return sum(map(mul, a, b))


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _reduce_mod(vec, basis: Sequence[Vec]):
    """Reduce a vector modulo the span of a canonical basis (pivot
    coordinates zeroed), up to a positive factor, with the steps taken.

    Each step is `v <- b[j]*v - v[j]*b` at the pivot j of b, a positive
    rescaling of `v - (v[j]/b[j])*b` because canonical pivots are positive,
    so integer input stays integer and its primitive form is unchanged.
    A step is recorded as `(index of b, v[j], b[j])`.
    """
    v = tuple(vec)
    steps = []
    for i, b in enumerate(basis):
        j = next(k for k, x in enumerate(b) if x != 0)
        f = v[j]
        if f != 0:
            bj = b[j]
            v = tuple(bj * a - f * c for a, c in zip(v, b))
            steps.append((i, f, bj))
    return v, steps


class GeneratorRep(NamedTuple):
    """Rays and lineality lines generating a cone."""

    rays: tuple[Vec, ...]
    lines: tuple[Vec, ...]


class ConstraintRep(NamedTuple):
    """Inequalities (form >= 0) and equations (form = 0) cutting out a cone."""

    ineqs: tuple[Vec, ...]
    eqns: tuple[Vec, ...]


def _key(vecs) -> tuple[Vec, ...]:
    # the memo's keys are tuples, whatever sequences the cone was given
    return tuple(map(tuple, vecs))


class Cone:
    """A rational polyhedral cone, given by generators or by constraints.

    A cone keeps the side it was given, and computes each canonical side
    (`gen`, `con`) by one double description pass the first time it is
    read.  Equality is `cone_equal`, containment on the sides held, and
    hashing reads the canonical generators.
    """

    __slots__ = ("dim", "_given_gen", "_given_con", "_gen", "_con")

    def __init__(self, dim: int, gen: GeneratorRep | None = None,
                 con: ConstraintRep | None = None):
        if gen is None and con is None:
            raise ValueError("cone has neither representation")
        if gen is not None and con is not None:
            raise ValueError("cone takes one representation, not both")
        self.dim = dim
        self._given_gen, self._given_con = gen, con
        self._gen = self._con = None

    @property
    def gen(self) -> GeneratorRep:
        """Canonical generators: extreme rays of the dual system."""
        if self._gen is None:
            con = self._known_con()
            self._gen = _dual_canon(_key(con.ineqs), _key(con.eqns), self.dim)
        return self._gen

    @property
    def con(self) -> ConstraintRep:
        """Canonical constraints: the facets are the extreme rays of the
        dual system, so the side is minimal whatever the input was."""
        if self._con is None:
            gen = self._known_gen()
            dual = _dual_canon(_key(gen.rays), _key(gen.lines), self.dim)
            self._con = ConstraintRep(ineqs=dual.rays, eqns=dual.lines)
        return self._con

    def _known_gen(self) -> GeneratorRep:
        """Generators of the cone, without a pass when some are held: the
        canonical ones once read, else the given ones."""
        return self._gen or self._given_gen or self.gen

    def _known_con(self) -> ConstraintRep:
        """Constraints of the cone, without a pass when some are held."""
        return self._con or self._given_con or self.con

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return self.dim == other.dim and cone_equal(self, other)

    def __hash__(self) -> int:
        return hash((self.dim, self.gen))

    def __repr__(self) -> str:
        return f"Cone(dim={self.dim!r}, gen={self.gen!r}, con={self.con!r})"


class MembershipCertificate(NamedTuple):
    """Re-checkable answer to a membership query.

    Inside: `ray_coeffs` / `line_coeffs` map generator indices to rational
    coefficients whose combination reproduces the query vector exactly
    (ray coefficients nonnegative).  Outside: `violated_form` is a constraint
    that is >= 0 on every generator of the cone but < 0 on the query.
    """

    inside: bool
    ray_coeffs: dict[int, Fraction] | None = None
    line_coeffs: dict[int, Fraction] | None = None
    violated_form: Vec | None = None


def _check_vectors(vecs: Iterable[Sequence], dim: int,
                   subject: str = "vector") -> None:
    """Refuse a `subject` whose length is not `dim`, and a coordinate that
    is neither an `int` nor a `Fraction`, as no exact answer exists for it;
    the command line and `weights` refuse their vectors here too."""
    for v in vecs:
        if len(v) != dim:
            raise ValueError(f"{subject} has length {len(v)}, expected {dim}")
        for x in v:
            if not isinstance(x, Rational):
                raise ValueError(f"coordinate {x!r} is not exact: the kernel "
                                 "takes an int or a Fraction")


def _ray_enum(ineqs: Sequence[Sequence[Rational]],
              eqns: Sequence[Sequence[Rational]], dim: int):
    """Double description from a row basis: the lines and extreme rays of
    `ineqs >= 0`, `eqns = 0`, in canonical form but for the order of the
    rays.

    Each nonzero row is scaled to a primitive integer row on entry, and the
    rows are taken equations first.  One fraction-free Gauss-Jordan
    elimination, pivots at the rightmost nonzero column, keeps a row basis;
    each kept row carries its coefficients over the inequalities of the
    basis, so the elimination also gives their columns of the inverse of
    the basis.  A kept row is zero right of its
    pivot and at every other pivot, so the null space of all rows, the
    lineality, has one vector per free column: positive there, zero at the
    other free columns, and nonzero elsewhere only at pivots to its right.
    That is the primitive reduced row echelon basis, in pivot order.  Each
    inequality of the basis gives the ray on which it alone of the basis
    rows is positive: its column of the inverse, zero on the free columns.
    The rows outside the basis are then imposed one at a time: rays are
    split by sign and adjacent positive/negative pairs combine.  Adjacency
    is combinatorial (Fukuda & Prodon): p and n are adjacent when no third
    ray's tight set contains their common one, which must hold at least
    `dim - len(lines) - 2` rows.  Tight sets are bitmasks of rows.  Each ray
    is zero on the free columns and primitive, that is, reduced modulo the
    lineality.
    """
    rows = [(normalize_primitive(e), True) for e in eqns if any(e)]
    rows += [(normalize_primitive(a), False) for a in ineqs if any(a)]
    # kept rows [R | M] with pivot c and R[c] > 0: R is a combination of the
    # basis rows, M its coefficients on the basis inequalities (no ray needs
    # those on the equations); `spanned` holds the basis rows as bits
    kept: list[tuple[list[int], int]] = []
    spanned = 0
    ineq_basis: list[int] = []
    rest: list[int] = []
    pad = [0] * min(dim, len(ineqs))
    for idx, (a, is_eq) in enumerate(rows):
        if len(kept) == dim:
            rest.append(idx)
            continue
        v = [*a, *pad]
        if not is_eq:
            v[dim + len(ineq_basis)] = 1
        for b, c in kept:
            f = v[c]
            if f:
                bc = b[c]
                v = [bc * x - f * y for x, y in zip(v, b)]
        for c in range(dim - 1, -1, -1):
            if v[c]:
                break
        else:
            rest.append(idx)
            continue
        g = gcd(*v) if v[c] > 0 else -gcd(*v)
        if g != 1:
            v = [x // g for x in v]
        vc = v[c]
        for k, (b, bc) in enumerate(kept):
            f = b[c]
            if f:
                b = [vc * x - f * y for x, y in zip(b, v)]
                g = gcd(*b)
                kept[k] = ([x // g for x in b] if g != 1 else b, bc)
        kept.append((v, c))
        spanned |= 1 << idx
        if not is_eq:
            ineq_basis.append(idx)

    def solve(col: int, top: int | None = None) -> Vec:
        # x zero off the pivots and primitive, R x = (column `col` of [R | M])
        # times a positive scale; given a free column `top` = col, R x = 0
        # with x[top] > 0
        scale = lcm(*(b[c] for b, c in kept if b[col]))
        x = [0] * dim
        if top is not None:
            x[top], scale = scale, -scale
        for b, c in kept:
            f = b[col]
            if f:
                x[c] = f * scale // b[c]
        g = gcd(*x)
        return tuple(x) if g == 1 else tuple(y // g for y in x)

    pivots = {c for _, c in kept}
    lines = [solve(j, j) for j in range(dim) if j not in pivots]
    rays = [(solve(dim + i), spanned ^ (1 << idx))
            for i, idx in enumerate(ineq_basis)]
    need = len(kept) - 2
    for idx in rest:
        a, is_eq = rows[idx]
        bit = 1 << idx
        signed = [(r, tight, sum(map(mul, a, r))) for r, tight in rays]
        pos = [s for s in signed if s[2] > 0]
        neg = [s for s in signed if s[2] < 0]
        out = [(r, tight | bit) for r, tight, d in signed if d == 0]
        if not is_eq:
            out += [(r, tight) for r, tight, _ in pos]
        tights = [tight for _, tight in rays]
        for p, tp, dp in pos:
            for n, tn, dn in neg:
                common = tp & tn
                if common.bit_count() < need:
                    continue
                # p and n themselves are tight on `common`; stop at a third
                count = 0
                for tight in tights:
                    if tight & common == common:
                        count += 1
                        if count > 2:
                            break
                else:
                    w = normalize_primitive(
                        tuple(dp * y - dn * x for x, y in zip(p, n)))
                    # exact, as p and n meet every constraint so far
                    out.append((w, common | bit))
        rays = out
    return [r for r, _ in rays], lines


@functools.lru_cache(maxsize=256)
def _dual_canon(ineqs, eqns, dim: int) -> GeneratorRep:
    """Canonical rays and lines of the cone `ineqs >= 0`, `eqns = 0`."""
    rays, lines = _ray_enum(ineqs, eqns, dim)
    return GeneratorRep(rays=tuple(sorted(rays)), lines=tuple(lines))


def _given(vecs: Iterable[Sequence[Rational]],
           flat: Iterable[Sequence[Rational]],
           dim: int | None) -> tuple[tuple[Vec, ...], tuple[Vec, ...], int]:
    """Vectors of a factory as tuples, zero vectors dropped, and the ambient
    dimension, read off the first vector when not given; a vector of another
    length or a coordinate that is not exact is refused (`_check_vectors`)."""
    vecs = tuple(map(tuple, vecs))
    flat = tuple(map(tuple, flat))
    if dim is None:
        if not vecs and not flat:
            raise ValueError("ambient dimension required when no vectors "
                             "are given")
        dim = len((vecs or flat)[0])
    _check_vectors(vecs + flat, dim)
    return tuple(filter(any, vecs)), tuple(filter(any, flat)), dim


def cone_from_rays(rays: Iterable[Sequence[Rational]],
                   lines: Iterable[Sequence[Rational]] = (),
                   dim: int | None = None) -> Cone:
    """Cone generated by rays and lines."""
    rays, lines, dim = _given(rays, lines, dim)
    return Cone(dim, gen=GeneratorRep(rays=rays, lines=lines))


def cone_from_constraints(ineqs: Iterable[Sequence[Rational]],
                          eqns: Iterable[Sequence[Rational]] = (),
                          dim: int | None = None) -> Cone:
    """Solution cone of `ineqs >= 0`, `eqns = 0`."""
    ineqs, eqns, dim = _given(ineqs, eqns, dim)
    return Cone(dim, con=ConstraintRep(ineqs=ineqs, eqns=eqns))


def full_space(dim: int) -> Cone:
    return cone_from_constraints([], [], dim=dim)


def cone_complete(cone: Cone) -> Cone:
    """The cone itself, with both canonical sides read.  Idempotent."""
    cone.gen
    cone.con
    return cone


def _walk_down(rays: Sequence[Vec], ineqs: Sequence[Sequence[Rational]],
               v: Sequence[int], scale: int) -> dict[int, Fraction] | None:
    """Nonnegative coefficients of `rays` that combine to `v / scale`, by a
    walk down the faces (Caratheodory); None if the walk is stuck.

    `v` is an integer point of the cone cut out by `ineqs` (and by
    equations every ray meets), reduced modulo its lineality as the
    canonical `rays` are.  Each step subtracts the first ray zero on every
    form tight at the point, as far as the forms allow: a form turns tight,
    so no ray is taken twice and the point reaches 0.  The step is taken in
    integers; only the coefficients are `Fraction`s.  Where the rays are
    linearly independent, no other coefficients exist.
    """
    coeffs = {}
    while any(v):
        tight = [a for a in ineqs if _dot(a, v) == 0]
        i, r = next(((i, r) for i, r in enumerate(rays)
                     if not any(_dot(a, r) for a in tight)), (None, None))
        if r is None:
            return None
        # the step: the least ratio num / den = a.v / a.r over a.r > 0
        num = den = None
        for a in ineqs:
            ar = _dot(a, r)
            if ar > 0:
                av = _dot(a, v)
                if den is None or av * den < num * ar:
                    num, den = av, ar
        (an, ad), (rn, rd) = num.as_integer_ratio(), den.as_integer_ratio()
        num, den = an * rd, ad * rn  # in integers, for rational forms too
        coeffs[i] = Fraction(num, den * scale)
        v = [den * x - num * y for x, y in zip(v, r)]
        scale *= den
        g = gcd(scale, *v)
        v, scale = [x // g for x in v], scale // g
    return dict(sorted(coeffs.items()))


def _violated_form(con: ConstraintRep, vec: Sequence[Rational]) -> Vec | None:
    """The first constraint that `vec` breaks, as a form negative on it.

    Equations come first, negated where needed so the returned form is < 0
    on `vec`; then inequalities.  None when every constraint holds.
    """
    for e in con.eqns:
        val = sum(map(mul, e, vec))
        if val != 0:
            return e if val < 0 else _neg(e)
    for a in con.ineqs:
        if sum(map(mul, a, vec)) < 0:
            return a
    return None


def _integral(vec: Sequence[Rational]) -> tuple[list[int], int]:
    """Integers and a positive scale whose quotients are the rational vector."""
    scale = lcm(*(x.denominator for x in vec))
    return [x.numerator * (scale // x.denominator) for x in vec], scale


def cone_member(cone: Cone, vec: Sequence[Rational]) -> MembershipCertificate:
    """Membership with certificate; see MembershipCertificate.

    The answer is decided on the constraints held; an outside answer
    reports the first canonical constraint broken.  An inside one reduces
    the vector modulo the canonical lines in integers (`_reduce_mod`),
    reading each line's coefficient and the scale off the steps taken, and
    writes the rest over the canonical rays by a walk down the faces cut
    out by the constraints held (`_walk_down`); `Fraction`s are built only
    for the coefficients returned.  Where the rays are linearly independent
    modulo the lines, as on every cone the package queries, the
    certificate is the only one.  A vector of another length or a
    coordinate that is not exact is refused (`_check_vectors`).
    """
    _check_vectors((vec,), cone.dim)
    if _violated_form(cone._known_con(), vec) is not None:
        return MembershipCertificate(
            inside=False, violated_form=_violated_form(cone.con, vec))
    gen = cone.gen
    # the rest still to write as a combination is `rest / scale`
    rest, scale = _integral(vec)
    rest, steps = _reduce_mod(rest, gen.lines)
    line_coeffs: dict[int, Fraction] = {}
    for j, f, bj in steps:
        scale *= bj
        line_coeffs[j] = Fraction(f, scale)
    ray_coeffs = _walk_down(gen.rays, cone._known_con().ineqs, rest, scale)
    if ray_coeffs is None:
        raise AssertionError(
            "constraints accept the vector but no generator combination found")
    return MembershipCertificate(
        inside=True, ray_coeffs=ray_coeffs, line_coeffs=line_coeffs)


def _same_dim(a: Cone, b: Cone) -> None:
    if a.dim != b.dim:
        raise ValueError("cones live in different ambient dimensions")


def _escapes(inner: Cone, outer: Cone) -> bool:
    """Does `inner` leave `outer`?  Decided on the sides held: `inner` lies
    in `outer` exactly when every ray it holds meets every constraint
    `outer` holds, and every line it holds is orthogonal to them all,
    whichever generators and constraints those are."""
    _same_dim(inner, outer)
    con, gen = outer._known_con(), inner._known_gen()
    return any(_violated_form(con, r) is not None for r in gen.rays) or any(
        sum(map(mul, f, l)) != 0 for l in gen.lines
        for f in chain(con.eqns, con.ineqs))


def first_escape(inner: Cone, outer: Cone) -> tuple[Vec, Vec] | None:
    """The first canonical generator of `inner` outside `outer`, with the
    first canonical constraint of `outer` it breaks; None when `inner` is a
    subset of `outer`.

    Containment is decided first, on the sides held (`_escapes`); only an
    escape reads the canonical sides.  Generators are walked as rays, then
    lines, then negated lines.  On canonical sides a vector is inside exactly
    when no constraint is broken, so the returned form is a re-checkable
    witness: < 0 on the generator and >= 0 on every generator of `outer`.
    """
    if not _escapes(inner, outer):
        return None
    con = outer.con
    gens = inner.gen
    for gen in chain(gens.rays, gens.lines, map(_neg, gens.lines)):
        form = _violated_form(con, gen)
        if form is not None:
            return gen, form
    raise AssertionError("an escape without an escaping canonical generator")


def cone_equal(a: Cone, b: Cone) -> bool:
    """Cones that contain each other are equal, and have equal canonical
    forms."""
    return not _escapes(a, b) and not _escapes(b, a)


def cone_sum(a: Cone, b: Cone) -> Cone:
    """Minkowski sum: concatenate the generators held."""
    _same_dim(a, b)
    ga, gb = a._known_gen(), b._known_gen()
    return cone_from_rays([*ga.rays, *gb.rays], [*ga.lines, *gb.lines],
                          dim=a.dim)


def cone_image(matrix: Sequence[Sequence[Rational]], cone: Cone) -> Cone:
    """Image under a linear map, the generators held mapped one by one."""
    rows = [tuple(row) for row in matrix]
    _check_vectors(rows, cone.dim)
    gen = cone._known_gen()

    def apply(v):
        return tuple(_dot(row, v) for row in rows)
    return cone_from_rays(map(apply, gen.rays), map(apply, gen.lines),
                          dim=len(rows))

