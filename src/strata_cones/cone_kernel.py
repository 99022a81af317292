"""Exact rational polyhedral cones.

A cone is held in up to two representations: generators (extreme rays plus a
basis of the lineality space) and constraints (facet inequalities plus
equations).  All arithmetic is over arbitrary-precision integers and
`fractions.Fraction`; no floating point is used anywhere.

Canonical form, produced by `cone_complete` and the factory helpers:

* equations and lines are primitive integer vectors derived from a reduced
  row echelon basis, pivots positive;
* inequalities and rays are reduced modulo that basis (pivot coordinates
  zeroed), scaled primitive (gcd one, denominators cleared, direction kept),
  deduplicated, and sorted lexicographically.

Representation conversion is done by the double description method, which
decides adjacency combinatorially from the tight sets of its rays.
Containment is decided from constraints alone (`first_escape`); only an
inside membership certificate needs the phase-1 simplex.
The zero cone and the full space are ordinary values, as is the
zero-dimensional space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[int, ...]
Rational = int | Fraction


def normalize_primitive(vec: Sequence[Rational]) -> Vec:
    """Scale a rational vector to primitive integers (gcd 1, direction kept).

    Raises ValueError on the zero vector, which has no direction.
    """
    fr = [Fraction(x) for x in vec]
    den = lcm(*(f.denominator for f in fr))
    ints = [int(f * den) for f in fr]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("cannot normalize a zero ray")
    return tuple(x // g for x in ints)


def _dot(a: Sequence[Rational], b: Sequence[Rational]):
    return sum(x * y for x, y in zip(a, b))


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _rref(rows: Iterable[Sequence[Rational]], dim: int):
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(dim):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def _canon_basis(rows, dim: int) -> tuple[Vec, ...]:
    """Primitive integer RREF basis of the span of the given rows."""
    red, _ = _rref(rows, dim)
    return tuple(normalize_primitive(row) for row in red)


def _reduce_mod(vec, basis: Sequence[Vec]):
    """Reduce a vector modulo the span of an RREF-like basis."""
    v = [Fraction(x) for x in vec]
    for b in basis:
        j = next(i for i, x in enumerate(b) if x != 0)
        if v[j] != 0:
            f = v[j] / b[j]
            v = [a - f * c for a, c in zip(v, b)]
    return tuple(v)


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


def _check_dim(dim: int, vecs: Iterable[Sequence[Rational]], what: str) -> None:
    for v in vecs:
        if len(v) != dim:
            raise ValueError(
                f"{what} has length {len(v)}, expected ambient dimension {dim}")


def _ray_enum(ineqs: Sequence[Vec], eqns: Sequence[Vec], dim: int):
    """Double description: extreme rays and lineality of a constraint system.

    Constraints are imposed one at a time onto the full space.  A constraint
    not orthogonal to the current lineality shrinks it by one line
    (the freed direction re-enters as a ray for an inequality); otherwise
    rays are split by sign and adjacent positive/negative pairs combine.
    Adjacency is combinatorial (Fukuda & Prodon): p and n are adjacent when
    no third ray's tight set contains theirs in common.  Every step is
    invariant under positive scaling, so constraints are taken as given.
    """
    lines: list[Vec] = [
        tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    rays: list[tuple[Vec, frozenset[int]]] = []
    cons = [(e, True) for e in eqns] + [(a, False) for a in ineqs]
    for idx, (a, is_eq) in enumerate(cons):
        nz = next((l for l in lines if _dot(a, l) != 0), None)
        if nz is not None:
            l0, d0 = nz, _dot(a, nz)
            if d0 < 0:
                # keep d0 positive: ray adjustments below scale by d0, which
                # must not flip directions
                l0, d0 = _neg(l0), -d0
            lines = [
                l if _dot(a, l) == 0 else normalize_primitive(
                    tuple(x * d0 - y * _dot(a, l) for x, y in zip(l, l0)))
                for l in lines if l is not nz]
            rays = [
                (r if _dot(a, r) == 0 else normalize_primitive(
                    tuple(x * d0 - y * _dot(a, r) for x, y in zip(r, l0))),
                 tight | {idx})
                for r, tight in rays]
            if not is_eq:
                rays.append((l0, frozenset(range(idx))))
        else:
            groups: dict[int, list[tuple[Vec, frozenset[int]]]] = {1: [], 0: [], -1: []}
            for r, tight in rays:
                d = _dot(a, r)
                groups[0 if d == 0 else (1 if d > 0 else -1)].append((r, tight))
            kept = [(r, tight | {idx}) for r, tight in groups[0]]
            if not is_eq:
                kept += groups[1]
            for p, tp in groups[1]:
                for n, tn in groups[-1]:
                    common = tp & tn
                    # p and n themselves are tight on `common`
                    if sum(common <= t for _, t in rays) > 2:
                        continue
                    dp, dn = _dot(a, p), _dot(a, n)
                    w = normalize_primitive(
                        tuple(dp * y - dn * x for x, y in zip(p, n)))
                    # exact, as p and n meet every constraint so far
                    kept.append((w, common | {idx}))
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


def cone_from_rays(rays: Iterable[Sequence[Rational]],
                   lines: Iterable[Sequence[Rational]] = (),
                   dim: int | None = None) -> Cone:
    """Cone generated by rays and lines, completed to canonical form."""
    rays = [tuple(r) for r in rays]
    lines = [tuple(l) for l in lines]
    if dim is None:
        if not rays and not lines:
            raise ValueError("ambient dimension required for the zero cone")
        dim = len((rays or lines)[0])
    _check_dim(dim, rays, "ray")
    _check_dim(dim, lines, "line")
    return cone_complete(Cone(dim=dim, gen=GeneratorRep(
        rays=tuple(r for r in rays if any(r)),
        lines=tuple(l for l in lines if any(l)))))


def cone_from_constraints(ineqs: Iterable[Sequence[Rational]],
                          eqns: Iterable[Sequence[Rational]] = (),
                          dim: int | None = None) -> Cone:
    """Solution cone of `ineqs >= 0`, `eqns = 0`, completed to canonical form."""
    ineqs = [tuple(a) for a in ineqs]
    eqns = [tuple(e) for e in eqns]
    if dim is None:
        if not ineqs and not eqns:
            raise ValueError("ambient dimension required for the full space")
        dim = len((ineqs or eqns)[0])
    _check_dim(dim, ineqs, "inequality")
    _check_dim(dim, eqns, "equation")
    return cone_complete(Cone(dim=dim, con=ConstraintRep(
        ineqs=tuple(a for a in ineqs if any(a)),
        eqns=tuple(e for e in eqns if any(e)))))


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
        dineqs, deqns = _ray_enum(cone.gen.rays, cone.gen.lines, dim)
        con_rep = _canon_gen(dineqs, deqns, dim)
        rays, lines = _ray_enum(con_rep.rays, con_rep.lines, dim)
        gen_rep = _canon_gen(rays, lines, dim)
    elif cone.con is not None:
        rays, lines = _ray_enum(cone.con.ineqs, cone.con.eqns, dim)
        gen_rep = _canon_gen(rays, lines, dim)
        dineqs, deqns = _ray_enum(gen_rep.rays, gen_rep.lines, dim)
        con_rep = _canon_gen(dineqs, deqns, dim)
    else:
        raise ValueError("cone has neither representation")
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

    Fraction-exact phase-1 simplex with Bland's rule.
    """
    m = len(target)
    n = len(columns)
    if m == 0:
        return [Fraction(0)] * n
    rows = []
    rhs = []
    for i in range(m):
        row = [Fraction(columns[j][i]) for j in range(n)]
        b = Fraction(target[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    # artificial variables n..n+m-1 form the starting basis
    tab = [rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
           + [rhs[i]] for i in range(m)]
    basis = list(range(n, n + m))
    # phase-1 reduced costs: real columns get minus their column sums, the
    # basic artificials stay at zero, and they are barred from re-entering
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n):
            cost[j] -= tab[i][j]
        cost[-1] -= tab[i][-1]
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
    v = tuple(Fraction(x) for x in vec)
    if len(v) != c.dim:
        raise ValueError(
            f"vector has length {len(v)}, expected ambient dimension {c.dim}")
    form = _violated_form(c.con, v)
    if form is not None:
        return MembershipCertificate(inside=False, violated_form=form)
    line_coeffs: dict[int, Fraction] = {}
    rest = list(v)
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
    _check_dim(c.dim, rows, "matrix row")
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
