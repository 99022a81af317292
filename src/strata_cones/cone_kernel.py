"""Exact rational polyhedral cones.

A cone is held in up to two representations: generators (extreme rays plus a
basis of the lineality space) and constraints (facet inequalities plus
equations).  All arithmetic is exact: arbitrary-precision integers, and
`fractions.Fraction` only where a quotient is needed, in the phase-1 simplex,
membership certificates and rational input.  No floating point is used
anywhere.  Completing a cone given by integer vectors constructs no
`Fraction`: canonicalisation is fraction-free, and each of its steps is a
positive rescaling of the rational one, so the canonical form is the same.

Canonical form, produced by `cone_complete` and the factory helpers:

* equations and lines are primitive integer vectors derived from a reduced
  row echelon basis, pivots positive;
* inequalities and rays are reduced modulo that basis (pivot coordinates
  zeroed), scaled primitive (gcd one, denominators cleared, direction kept),
  deduplicated, and sorted lexicographically.

Representation conversion is done by the double description method, which
decides adjacency combinatorially from the tight sets of its rays.  Its
canonical result is memoised (`_dual_canon`, the 256 most recently used),
keyed on the constraint tuples and the dimension.  Sharing it is safe: it
depends only on the cone, equal keys (an `int` and an equal `Fraction`)
describe the same cone, and it is a frozen dataclass of tuples.
Containment is decided from constraints alone (`first_escape`); only an
inside membership certificate needs the phase-1 simplex.
The zero cone and the full space are ordinary values, as is the
zero-dimensional space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[int, ...]
Rational = int | Fraction


def normalize_primitive(vec: Sequence[Rational]) -> Vec:
    """Scale a rational vector to primitive integers (gcd 1, direction kept).

    Integer input is divided by its content directly; only rational input
    has its denominators cleared through `Fraction`.
    Raises ValueError on the zero vector, which has no direction.
    """
    if not all(type(x) is int for x in vec):
        fr = [Fraction(x) for x in vec]
        den = lcm(*(f.denominator for f in fr))
        vec = [int(f * den) for f in fr]
    g = gcd(*vec)
    if g == 0:
        raise ValueError("cannot normalize a zero ray")
    return tuple(x // g for x in vec)


def _dot(a: Sequence[Rational], b: Sequence[Rational]):
    return sum(map(mul, a, b))


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _canon_basis(rows, dim: int) -> tuple[Vec, ...]:
    """Primitive integer RREF basis of the span of the given rows.

    Fraction-free Gauss-Jordan on primitive integer rows: each pivot is
    made positive, every other row becomes `pv*row - row[c]*pivot_row`
    divided by its content.  Every row stays a positive multiple of the
    row the same elimination over `Fraction` holds, so each surviving row
    is the primitive form of its RREF row: same pivots, same order.
    """
    mat = [normalize_primitive(row) for row in rows if any(row)]
    r = 0
    for c in range(dim):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        if mat[r][c] < 0:
            mat[r] = _neg(mat[r])
        top = mat[r]
        pv = top[c]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                row = [pv * a - f * b for a, b in zip(mat[i], top)]
                g = gcd(*row)
                mat[i] = tuple(x // g for x in row) if g else tuple(row)
        r += 1
        if r == len(mat):
            break
    return tuple(mat[:r])


def _reduce_mod(vec, basis: Sequence[Vec]):
    """Reduce a vector modulo the span of a canonical basis (pivot
    coordinates zeroed), up to a positive factor.

    Each step is `v <- b[j]*v - v[j]*b` at the pivot j of b, a positive
    rescaling of `v - (v[j]/b[j])*b` because canonical pivots are positive,
    so integer input stays integer and its primitive form is unchanged.
    """
    v = tuple(vec)
    for b in basis:
        j = next(i for i, x in enumerate(b) if x != 0)
        f = v[j]
        if f != 0:
            bj = b[j]
            v = tuple(bj * a - f * c for a, c in zip(v, b))
    return v


@dataclass(frozen=True)
class GeneratorRep:
    """Rays and lineality lines generating a cone."""

    rays: tuple[Vec, ...]
    lines: tuple[Vec, ...]


@dataclass(frozen=True)
class ConstraintRep:
    """Inequalities (form >= 0) and equations (form = 0) cutting out a cone."""

    ineqs: tuple[Vec, ...]
    eqns: tuple[Vec, ...]


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone; either representation may be absent."""

    dim: int
    gen: GeneratorRep | None = None
    con: ConstraintRep | None = None


@dataclass(frozen=True)
class MembershipCertificate:
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


def _check_dim(dim: int, vecs: Iterable[Sequence[Rational]]) -> None:
    for v in vecs:
        if len(v) != dim:
            raise ValueError(
                f"vector has length {len(v)}, expected ambient dimension {dim}")


def _ray_enum(ineqs: Sequence[Vec], eqns: Sequence[Vec], dim: int):
    """Double description: extreme rays and lineality of a constraint system.

    Constraints are imposed one at a time onto the full space.  A constraint
    not orthogonal to the current lineality shrinks it by one line
    (the freed direction re-enters as a ray for an inequality); otherwise
    rays are split by sign and adjacent positive/negative pairs combine.
    Adjacency is combinatorial (Fukuda & Prodon): p and n are adjacent when
    no third ray's tight set contains theirs in common.  Every step is
    invariant under positive scaling, so constraints are taken as given.
    Each dot product is taken once; tight sets are bitmasks of constraints.
    """
    lines = [(0,) * j + (1,) + (0,) * (dim - j - 1) for j in range(dim)]
    rays: list[tuple[Vec, int]] = []
    cons = [(e, True) for e in eqns] + [(a, False) for a in ineqs]
    for idx, (a, is_eq) in enumerate(cons):
        bit = 1 << idx
        ldots = [_dot(a, l) for l in lines]
        k = next((i for i, d in enumerate(ldots) if d != 0), None)
        signed = [(r, tight, _dot(a, r)) for r, tight in rays]
        if k is not None:
            l0, d0 = lines.pop(k), ldots.pop(k)
            if d0 < 0:
                # keep d0 positive: ray adjustments below scale by d0, which
                # must not flip directions
                l0, d0 = _neg(l0), -d0
            def project(v, d):
                return v if d == 0 else normalize_primitive(
                    tuple(x * d0 - y * d for x, y in zip(v, l0)))
            lines = [project(l, d) for l, d in zip(lines, ldots)]
            rays = [(project(r, d), tight | bit) for r, tight, d in signed]
            if not is_eq:
                rays.append((l0, bit - 1))
            continue
        pos = [s for s in signed if s[2] > 0]
        neg = [s for s in signed if s[2] < 0]
        kept = [(r, tight | bit) for r, tight, d in signed if d == 0]
        if not is_eq:
            kept += [(r, tight) for r, tight, _ in pos]
        tights = [tight for _, tight in rays]
        for p, tp, dp in pos:
            for n, tn, dn in neg:
                common = tp & tn
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
                    kept.append((w, common | bit))
        rays = kept
    return [r for r, _ in rays], lines


def _canon_gen(rays, lines, dim: int) -> GeneratorRep:
    basis = _canon_basis(lines, dim)
    out = set()
    for r in rays:
        red = _reduce_mod(r, basis)
        if any(x != 0 for x in red):
            out.add(normalize_primitive(red))
    return GeneratorRep(rays=tuple(sorted(out)), lines=basis)


@functools.lru_cache(maxsize=256)
def _dual_canon(ineqs, eqns, dim: int) -> GeneratorRep:
    """Canonical rays and lines of the cone `ineqs >= 0`, `eqns = 0`."""
    return _canon_gen(*_ray_enum(ineqs, eqns, dim), dim)


def cone_from_rays(rays: Iterable[Sequence[Rational]],
                   lines: Iterable[Sequence[Rational]] = (),
                   dim: int | None = None) -> Cone:
    """Cone generated by rays and lines, completed to canonical form."""
    rays = [tuple(r) for r in rays]
    lines = [tuple(l) for l in lines]
    if dim is None:
        if not rays and not lines:
            raise ValueError("ambient dimension required when no vectors "
                             "are given")
        dim = len((rays or lines)[0])
    _check_dim(dim, rays + lines)
    return cone_complete(Cone(dim=dim, gen=GeneratorRep(
        rays=tuple(r for r in rays if any(r)),
        lines=tuple(l for l in lines if any(l)))))


def cone_from_constraints(ineqs: Iterable[Sequence[Rational]],
                          eqns: Iterable[Sequence[Rational]] = (),
                          dim: int | None = None) -> Cone:
    """Solution cone of `ineqs >= 0`, `eqns = 0`, completed to canonical form.

    It is the dual of the cone the forms generate: `cone_complete` derives
    the constraints of that cone by one double description and its
    generators by a second, and the dual swaps the two, so the result is
    exactly the completion of the constraint system.
    """
    return cone_dual(cone_from_rays(ineqs, eqns, dim))


def full_space(dim: int) -> Cone:
    return cone_from_constraints([], [], dim=dim)


def zero_cone(dim: int) -> Cone:
    return cone_from_rays([], [], dim=dim)


def cone_complete(cone: Cone) -> Cone:
    """Fill in the missing representation; canonicalize both.  Idempotent."""
    if cone.gen is not None and cone.con is not None:
        return cone
    dim = cone.dim
    if cone.gen is not None:
        # facets of the cone are the extreme rays of its dual system, and
        # re-enumerating from them makes the generator side minimal whatever
        # the input was
        given = (cone.gen.rays, cone.gen.lines)
    elif cone.con is not None:
        given = (cone.con.ineqs, cone.con.eqns)
    else:
        raise ValueError("cone has neither representation")
    # the memo's keys are tuples, whatever sequences the cone was given
    first = _dual_canon(*(tuple(map(tuple, v)) for v in given), dim)
    second = _dual_canon(first.rays, first.lines, dim)
    gen_rep, con_rep = (second, first) if cone.gen else (first, second)
    return Cone(dim=dim, gen=gen_rep,
                con=ConstraintRep(ineqs=con_rep.rays, eqns=con_rep.lines))


def cone_dual(cone: Cone) -> Cone:
    """The dual cone {f : f.v >= 0 for all v in the cone}.

    On canonical data this is a pure role swap, so dual(dual(c)) == c
    bit-exactly.
    """
    c = cone_complete(cone)
    return Cone(dim=c.dim,
                gen=GeneratorRep(rays=c.con.ineqs, lines=c.con.eqns),
                con=ConstraintRep(ineqs=c.gen.rays, eqns=c.gen.lines))


def _phase1_coeffs(columns: Sequence[Vec], target) -> list[Fraction] | None:
    """Nonnegative x with (columns as a matrix) @ x == target, or None.

    Fraction-exact phase-1 simplex with Bland's rule.  The artificial
    variables n..n+m-1 form the starting basis and are barred from
    re-entering, and the ratio test reads only the entering column and the
    right-hand side, so no artificial column is ever read: each row keeps
    the n real columns and the right-hand side, and only `basis` holds the
    artificial indices, for Bland's tie-break and the final read-off.
    """
    m = len(target)
    n = len(columns)
    if m == 0:
        return [Fraction(0)] * n
    tab = []
    for i, b in enumerate(target):
        # negate the row where needed to keep the right-hand side >= 0
        sign = -1 if b < 0 else 1
        tab.append([Fraction(sign * c[i]) for c in columns]
                   + [Fraction(sign * b)])
    basis = list(range(n, n + m))
    # phase-1 reduced costs: minus the column sums, right-hand side included
    cost = [-sum(col) for col in zip(*tab)]
    while True:
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or (
                        ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return None  # unbounded phase-1 cannot happen; defensive
        _, piv = best
        pv = tab[piv][enter]
        tab[piv] = [x / pv for x in tab[piv]]
        for i in range(m):
            if i != piv and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[piv])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[piv])]
        basis[piv] = enter
    if -cost[-1] != 0:
        return None  # leftover artificial value: target not in the cone
    out = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            out[bv] = tab[i][-1]
    return out


def _violated_form(con: ConstraintRep, vec: Sequence[Rational]) -> Vec | None:
    """The first constraint that `vec` breaks, as a form negative on it.

    Equations come first, negated where needed so the returned form is < 0
    on `vec`; then inequalities.  None when every constraint holds.
    """
    for e in con.eqns:
        val = _dot(e, vec)
        if val != 0:
            return e if val < 0 else _neg(e)
    for a in con.ineqs:
        if _dot(a, vec) < 0:
            return a
    return None


def cone_member(cone: Cone, vec: Sequence[Rational]) -> MembershipCertificate:
    """Membership with certificate; see MembershipCertificate."""
    c = cone_complete(cone)
    _check_dim(c.dim, [vec])
    form = _violated_form(c.con, vec)
    if form is not None:
        return MembershipCertificate(inside=False, violated_form=form)
    line_coeffs: dict[int, Fraction] = {}
    rest = [Fraction(x) for x in vec]
    for j, b in enumerate(c.gen.lines):
        pj = next(i for i, x in enumerate(b) if x != 0)
        if rest[pj] != 0:
            f = rest[pj] / b[pj]
            line_coeffs[j] = f
            rest = [x - f * y for x, y in zip(rest, b)]
    lam = _phase1_coeffs(c.gen.rays, tuple(rest))
    if lam is None:
        raise AssertionError(
            "constraints accept the vector but no generator combination found")
    ray_coeffs = {i: x for i, x in enumerate(lam) if x != 0}
    return MembershipCertificate(
        inside=True, ray_coeffs=ray_coeffs, line_coeffs=line_coeffs)


def certificate_valid(cone: Cone, vec: Sequence[Rational],
                      cert: MembershipCertificate) -> bool:
    """Re-verify a certificate against the cone's generators alone."""
    c = cone_complete(cone)
    v = tuple(Fraction(x) for x in vec)
    if cert.inside:
        if cert.ray_coeffs is None or cert.line_coeffs is None:
            return False
        if any(x < 0 for x in cert.ray_coeffs.values()):
            return False
        acc = [Fraction(0)] * c.dim
        for i, x in cert.ray_coeffs.items():
            acc = [a + x * g for a, g in zip(acc, c.gen.rays[i])]
        for j, x in cert.line_coeffs.items():
            acc = [a + x * g for a, g in zip(acc, c.gen.lines[j])]
        return tuple(acc) == v
    f = cert.violated_form
    if f is None or _dot(f, v) >= 0:
        return False
    return all(_dot(f, r) >= 0 for r in c.gen.rays) and all(
        _dot(f, l) == 0 for l in c.gen.lines)


def _completed_pair(a: Cone, b: Cone) -> tuple[Cone, Cone]:
    """Both cones completed; they must share an ambient dimension."""
    ca, cb = cone_complete(a), cone_complete(b)
    if ca.dim != cb.dim:
        raise ValueError("cones live in different ambient dimensions")
    return ca, cb


def first_escape(inner: Cone, outer: Cone) -> tuple[Vec, Vec] | None:
    """The first generator of `inner` outside `outer`, with the constraint of
    `outer` it breaks; None when `inner` is a subset of `outer`.

    Generators are walked as rays, then lines, then negated lines.  On a
    completed cone a vector is inside exactly when no constraint is broken,
    so the returned form is a re-checkable witness: < 0 on the generator
    and >= 0 on every generator of `outer`.
    """
    a, b = _completed_pair(inner, outer)
    for gen in a.gen.rays + a.gen.lines + tuple(map(_neg, a.gen.lines)):
        form = _violated_form(b.con, gen)
        if form is not None:
            return gen, form
    return None


def cone_subset(inner: Cone, outer: Cone) -> bool:
    """Is every point of `inner` inside `outer`?"""
    return first_escape(inner, outer) is None


def cone_equal(a: Cone, b: Cone) -> bool:
    """Equal cones have equal canonical forms."""
    ca, cb = _completed_pair(a, b)
    return ca == cb


def cone_intersect(a: Cone, b: Cone) -> Cone:
    """Intersection: concatenate constraints and recomplete."""
    ca, cb = _completed_pair(a, b)
    return cone_from_constraints(ca.con.ineqs + cb.con.ineqs,
                                 ca.con.eqns + cb.con.eqns, dim=ca.dim)


def cone_sum(a: Cone, b: Cone) -> Cone:
    """Minkowski sum: concatenate generators and recomplete."""
    ca, cb = _completed_pair(a, b)
    return cone_from_rays(ca.gen.rays + cb.gen.rays,
                          ca.gen.lines + cb.gen.lines, dim=ca.dim)


def cone_image(matrix: Sequence[Sequence[Rational]], cone: Cone) -> Cone:
    """Image under a linear map, generator representation mapped ray by ray."""
    c = cone_complete(cone)
    rows = [tuple(row) for row in matrix]
    _check_dim(c.dim, rows)
    out_dim = len(rows)
    def apply(v):
        return tuple(_dot(row, v) for row in rows)
    return cone_from_rays(
        [w for w in (apply(r) for r in c.gen.rays) if any(w)],
        [w for w in (apply(l) for l in c.gen.lines) if any(w)],
        dim=out_dim)


def cone_lineality(cone: Cone) -> list[Vec]:
    """Canonical basis of the largest linear subspace inside the cone."""
    return list(cone_complete(cone).gen.lines)
