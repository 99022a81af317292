"""Brute-force exact cone arithmetic used as an independent oracle.

Everything in this module is deliberately naive: facet enumeration works by
exhaustive subset search over generator tightness patterns, projection is
plain Fourier-Motzkin with no pruning beyond exact deduplication, and the
only data types are tuples of ints and Fractions.  It imports nothing from
the package under test, so agreement between the two is meaningful.
`ray_enum` is the double description loop in its first, plain form, and
`canon_basis` and `canon_gen` the two-stage canonicaliser that once ran
after it (a row-by-row echelon basis of the lines, then the rays reduced
modulo it): together the reference for the kernel's pass from a row basis,
which returns the canonical form itself; `phase1_coeffs` is the phase-1
simplex on the full tableau, artificial columns included, the reference for
the kernel's membership coefficients where they are unique, which `rank`
decides, and `certificate_valid` re-checks a membership certificate
against the canonical generators alone; `chain_closure` builds the tilde
closure, the sign and n of a stratum from its chains, the reference for
their reading off mu, `admissible_by_cases` the admissible set by its
per-cycle case analysis, the reference for its reading off n, and
`divisor_functional_by_cases` and `distinguished_by_pairs` the
divisibility functionals and the distinguished generators by cases over
the closure, the references for their reading off the sign function.
`hasse_pairs` lists the Hasse-pair family, and
`recipe_by_exit_parity` and `f_recipe_by_patch` build the section recipes
by the exit-parity walk and the distinguished generator's recipe as a
partial pair recipe times a patched b factor, the references for the
telescoping walk; `f_recipe_tag_by_cases` gives that recipe's discrete tag
by cases over the closure, the reference for its reading off the walk.
`dot`, `raw_weight` (the basis weights e, h and b written out by hand)
and `sides` (a cone's canonical form) are the one copy of each that every
test file uses.

Intended for ambient dimension <= 4 and a handful of generators; costs grow
exponentially beyond that.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def prim(vec):
    """Scale a rational vector to a primitive integer vector (sign kept)."""
    fr = [Fraction(x) for x in vec]
    den = 1
    for f in fr:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def dot(a, b):
    """The scalar product of two vectors of ints or Fractions, or of the
    decimal strings that a report writes for its integers."""
    return sum(_number(x) * _number(y) for x, y in zip(a, b))


def _number(x):
    return int(x) if isinstance(x, str) else x


def sides(cone):
    """A cone's dimension and both canonical sides: what a test compares
    where it pins the canonical form itself, as `Cone.__eq__` decides
    containment only."""
    return cone.dim, cone.gen, cone.con


def raw_weight(p, lengths, kind, c, i):
    """e, h = -e + p*back-shift or b = e + p*back-shift at (c, i)."""
    vec = [0] * sum(lengths)
    offset = sum(lengths[:c])
    f = lengths[c]
    vec[offset + i] += {"e": 1, "h": -1, "b": 1}[kind]
    if kind != "e":
        vec[offset + (i - 1) % f] += p
    return vec


def neg(v):
    return tuple(-x for x in v)


def rref(rows, dim):
    """Reduced row echelon form over Fraction. Returns (rows, pivot_cols)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
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


def rank(rows, dim):
    return len(rref(rows, dim)[0])


def nullspace(rows, dim):
    """Primitive integer basis (RREF rows, positive pivots) of {x : r.x = 0}."""
    red, pivots = rref(rows, dim)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    if not basis:
        return []
    clean, _ = rref(basis, dim)
    return [prim(row) for row in clean]


def reduce_mod(vec, basis):
    """Reduce vec modulo span(basis); basis rows must be RREF-like."""
    v = [Fraction(x) for x in vec]
    for b in basis:
        j = next(i for i, x in enumerate(b) if x != 0)
        if v[j] != 0:
            f = v[j] / b[j]
            v = [a - f * c for a, c in zip(v, b)]
    return tuple(v)


def dual_vrep(rays, lines, dim):
    """Rays and lines of {f : f.r >= 0 for r in rays, f.l = 0 for l in lines}.

    Equivalently: the minimal H-representation (inequalities, equations) of
    the cone generated by `rays` and `lines`.  Facet candidates are nullspace
    vectors of generator subsets; extremality is decided by the rank of the
    tight set.
    """
    if dim == 0:
        return [], []
    rays = [prim(r) for r in rays]
    lines = [prim(l) for l in lines]
    gens = rays + lines
    dlines = nullspace(gens, dim)
    total_rank = rank(gens, dim) if gens else 0
    if total_rank == 0:
        return [], dlines
    found = set()
    for k in range(len(rays) + 1):
        for sub in combinations(range(len(rays)), k):
            rows = lines + [rays[i] for i in sub]
            ns = nullspace(rows, dim) if rows else nullspace([], dim)
            if len(ns) != len(dlines) + 1:
                continue
            cand = None
            for v in ns:
                red = reduce_mod(v, dlines)
                if any(x != 0 for x in red):
                    cand = prim(red)
                    break
            if cand is None:
                continue
            vals = [dot(cand, r) for r in rays]
            if all(v >= 0 for v in vals):
                f = cand
            elif all(v <= 0 for v in vals):
                f = neg(cand)
            else:
                continue
            tight = lines + [r for r in rays if dot(f, r) == 0]
            if rank(tight, dim) == total_rank - 1:
                found.add(f)
    return sorted(found), dlines


def fm_project(ineqs, eqns, dim, keep):
    """Fourier-Motzkin projection onto the coordinates in `keep` (a list).

    Returns (ineqs, eqns) over the kept coordinates, in their given order.
    No redundancy elimination beyond exact deduplication.
    """
    ineq = [tuple(Fraction(x) for x in r) for r in ineqs]
    eqs = [tuple(Fraction(x) for x in r) for r in eqns]
    for j in range(dim):
        if j in keep:
            continue
        pivot_eq = next((e for e in eqs if e[j] != 0), None)
        if pivot_eq is not None:
            def subst(row):
                if row[j] == 0:
                    return row
                f = row[j] / pivot_eq[j]
                return tuple(a - f * b for a, b in zip(row, pivot_eq))
            eqs = [subst(e) for e in eqs if e is not pivot_eq]
            ineq = [subst(r) for r in ineq]
        else:
            pos = [r for r in ineq if r[j] > 0]
            zero = [r for r in ineq if r[j] == 0]
            negs = [r for r in ineq if r[j] < 0]
            combos = []
            for ppp in pos:
                for nnn in negs:
                    combos.append(tuple(
                        a * (-nnn[j]) + b * ppp[j] for a, b in zip(ppp, nnn)))
            ineq = zero + combos
        ineq = [r for r in ineq if any(x != 0 for x in r)]
        eqs = [e for e in eqs if any(x != 0 for x in e)]
    out_i = sorted({prim([row[c] for c in keep])
                    for row in ineq if any(row[c] != 0 for c in keep)})
    out_e = sorted({prim([row[c] for c in keep])
                    for row in eqs if any(row[c] != 0 for c in keep)})
    return out_i, out_e


def minimal_h(ineqs, eqns, dim):
    """Irredundant H-representation of {x : ineqs.x >= 0, eqns.x = 0}.

    dual_vrep applied to the rows enumerates the extreme rays and lineality
    of the solution set; applying it once more turns that V-representation
    back into the minimal facet list.
    """
    vrays, vlines = dual_vrep(ineqs, eqns, dim)
    return dual_vrep(vrays, vlines, dim)


def same_cone_from_h(h1, h2, dim):
    """Do two H-representations (ineqs, eqns) describe the same cone?"""
    r1, l1 = dual_vrep(h1[0], h1[1], dim)
    r2, l2 = dual_vrep(h2[0], h2[1], dim)
    # dual_vrep applied to an H-rep read as generators gives the V-rep of the
    # solution set; mutual satisfaction decides equality.
    def fits(rays, lines, ineqs, eqns):
        for v in rays:
            if any(dot(a, v) < 0 for a in ineqs):
                return False
            if any(dot(e, v) != 0 for e in eqns):
                return False
        for v in lines:
            if any(dot(a, v) != 0 for a in ineqs):
                return False
            if any(dot(e, v) != 0 for e in eqns):
                return False
        return True
    return fits(r1, l1, h2[0], h2[1]) and fits(r2, l2, h1[0], h1[1])


def ray_enum(ineqs, eqns, dim):
    """Double description as `cone_kernel._ray_enum` ran it before it kept
    each dot product and held tight sets as bitmasks: the reference for the
    exact rays and lines, order included, of a constraint system."""
    lines = [
        tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    rays = []
    cons = [(e, True) for e in eqns] + [(a, False) for a in ineqs]
    for idx, (a, is_eq) in enumerate(cons):
        nz = next((l for l in lines if dot(a, l) != 0), None)
        if nz is not None:
            l0, d0 = nz, dot(a, nz)
            if d0 < 0:
                # keep d0 positive: ray adjustments below scale by d0, which
                # must not flip directions
                l0, d0 = neg(l0), -d0
            lines = [
                l if dot(a, l) == 0 else prim(
                    tuple(x * d0 - y * dot(a, l) for x, y in zip(l, l0)))
                for l in lines if l is not nz]
            rays = [
                (r if dot(a, r) == 0 else prim(
                    tuple(x * d0 - y * dot(a, r) for x, y in zip(r, l0))),
                 tight | {idx})
                for r, tight in rays]
            if not is_eq:
                rays.append((l0, frozenset(range(idx))))
        else:
            groups = {1: [], 0: [], -1: []}
            for r, tight in rays:
                d = dot(a, r)
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
                    dp, dn = dot(a, p), dot(a, n)
                    w = prim(
                        tuple(dp * y - dn * x for x, y in zip(p, n)))
                    # exact, as p and n meet every constraint so far
                    kept.append((w, common | {idx}))
            rays = kept
    return [r for r, _ in rays], lines


def _reduce_ff(vec, basis):
    """Reduce a vector modulo an echelon basis with positive pivots, up to a
    positive factor: v <- b[j]*v - v[j]*b at the pivot j of each b."""
    v = tuple(vec)
    for b in basis:
        j = next(i for i, x in enumerate(b) if x != 0)
        f = v[j]
        if f != 0:
            v = tuple(b[j] * a - f * c for a, c in zip(v, b))
    return v


def canon_basis(rows, dim):
    """Primitive integer RREF basis of the span of the rows, pivots positive,
    in pivot order.  Each row is reduced modulo the rows kept so far; a
    nonzero rest is made primitive with a positive pivot and cleared from the
    kept rows, each then made primitive again."""
    kept = []
    for row in rows:
        rest = _reduce_ff(row, kept)
        if not any(rest):
            continue
        rest = prim(rest)
        if next(x for x in rest if x != 0) < 0:
            rest = neg(rest)
        kept = [prim(_reduce_ff(b, [rest])) for b in kept]
        # pivot order: at an earlier pivot, a positive entry meets a zero
        kept = sorted(kept + [rest], reverse=True)
        if len(kept) == dim:
            break
    return tuple(kept)


def canon_gen(rays, lines, dim):
    """Canonical (rays, lines) of the cone the rays and lines generate: the
    lines as `canon_basis`, the rays reduced modulo it, scaled primitive,
    deduplicated and sorted."""
    basis = canon_basis(lines, dim)
    out = {prim(red) for red in (_reduce_ff(r, basis) for r in rays)
           if any(red)}
    return tuple(sorted(out)), basis


def chain_closure(cycle_lengths, members):
    """The tilde closure, the sign and n of a stratum by the chain
    definition.  `members` holds (cycle, pos) pairs; returns (tilde, eps, n),
    the closure as a set of pairs and the other two as dicts keyed by pairs.

    A chain is a maximal run of T inside a cycle that is not wholly in T,
    walked backward from its head (the member whose shift leaves T); with
    m + 1 members it grows one step backward when m is even.  Off full
    cycles eps is (-1)^(mu-1) on the closure and +1 elsewhere, and n(beta)
    is the first k > 0 with shift^k(beta) outside the closure, else f."""
    tilde = set(members)
    for c, f in enumerate(cycle_lengths):
        in_t = {i for cycle, i in members if cycle == c}
        if len(in_t) == f:
            continue
        for head in in_t:
            if (head + 1) % f in in_t:
                continue
            chain = [head]
            while (chain[-1] - 1) % f in in_t:
                chain.append((chain[-1] - 1) % f)
            if (len(chain) - 1) % 2 == 0:
                tilde.add((c, (chain[-1] - 1) % f))
    eps, n = {}, {}
    for c, f in enumerate(cycle_lengths):
        full = all((c, i) in members for i in range(f))
        for i in range(f):
            if full:
                eps[(c, i)] = 0
            elif (c, i) in tilde:
                mu = next(k for k in range(1, f + 1)
                          if (c, (i + k) % f) not in members)
                eps[(c, i)] = -1 if mu % 2 == 0 else 1
            else:
                eps[(c, i)] = 1
            n[(c, i)] = next((k for k in range(1, f + 1)
                              if (c, (i + k) % f) not in tilde), f)
    return tilde, eps, n


def phase1_coeffs(columns, target):
    """Nonnegative x with (columns as a matrix) @ x == target, or None, by a
    Fraction-exact phase-1 simplex with Bland's rule on the full tableau: m
    artificial columns beside the n real ones, updated at every pivot.  The
    reference for the coefficients of `cone_kernel.cone_member` where the
    columns are linearly independent and so the solution is unique."""
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
            return None
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
        return None
    out = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            out[bv] = tab[i][-1]
    return out


def _indices_valid(coeffs, vecs):
    """Every key is an index of `vecs` as an `int`: no negative index, none
    past the end, no `bool`."""
    return all(type(i) is int and 0 <= i < len(vecs) for i in coeffs)


def certificate_valid(cone, vec, cert):
    """Re-check a membership certificate against the cone's canonical
    generators alone (`cone.gen`).  Inside: nonnegative ray coefficients and
    line coefficients, keyed by generator index, that rebuild `vec`
    exactly.  Outside: a form negative on `vec`, >= 0 on every ray and zero
    on every line."""
    gen = cone.gen
    v = [Fraction(x) for x in vec]
    if cert.inside:
        if cert.ray_coeffs is None or cert.line_coeffs is None:
            return False
        if not (_indices_valid(cert.ray_coeffs, gen.rays)
                and _indices_valid(cert.line_coeffs, gen.lines)):
            return False
        if any(x < 0 for x in cert.ray_coeffs.values()):
            return False
        acc = [Fraction(0)] * cone.dim
        for coeffs, vecs in ((cert.ray_coeffs, gen.rays),
                             (cert.line_coeffs, gen.lines)):
            for i, x in coeffs.items():
                acc = [a + x * g for a, g in zip(acc, vecs[i])]
        return acc == v
    f = cert.violated_form
    if f is None or dot(f, v) >= 0:
        return False
    return all(dot(f, r) >= 0 for r in gen.rays) and all(
        dot(f, l) == 0 for l in gen.lines)


def admissible_by_cases(cycle_lengths, members):
    """The admissible set of a stratum by cases, as a set of (cycle, pos)
    pairs: per cycle, the complement of T, minus the single embedding off
    the tilde closure when there is only one, and empty when the closure
    covers the cycle."""
    tilde = chain_closure(cycle_lengths, members)[0]
    out = set()
    for c, f in enumerate(cycle_lengths):
        outside_tilde = [i for i in range(f) if (c, i) not in tilde]
        if not outside_tilde:
            continue
        chosen = {i for i in range(f) if (c, i) not in members}
        if len(outside_tilde) == 1:
            chosen -= set(outside_tilde)
        out.update((c, i) for i in chosen)
    return out


def _window(p, cycle_lengths, eps, start, stop=None):
    """sum of eps(shift^k start) p^k e_{shift^k start} walking forward from
    start to stop (default: the full cycle), as a flat vector."""
    c, i = start
    f = cycle_lengths[c]
    length = f if stop is None else (stop[1] - i) % f + 1
    out = [0] * sum(cycle_lengths)
    offset = sum(cycle_lengths[:c])
    for k in range(length):
        out[offset + (i + k) % f] = eps[(c, (i + k) % f)] * p ** k
    return tuple(out)


def divisor_functional_by_cases(p, cycle_lengths, members, beta, tau):
    """The facet functional at tau of the divisibility cone of the
    admissible beta, by cases: off beta's cycle, and at tau != beta on the
    closure, the facet functional of the weight cone; elsewhere on beta's
    cycle a window read with the sign flipped on beta and the members of T
    after it.  beta and tau are (cycle, pos) pairs."""
    tilde, eps, n = chain_closure(cycle_lengths, members)

    def shift(emb, k):
        return (emb[0], (emb[1] + k) % cycle_lengths[emb[0]])

    def mu(emb):
        c, i = emb
        return next(k for k in range(1, cycle_lengths[c] + 1)
                    if shift(emb, k) not in members)

    def facet(emb):
        if emb in tilde:
            return _window(p, cycle_lengths, eps, emb, shift(emb, mu(emb) - 1))
        return _window(p, cycle_lengths, eps, shift(emb, mu(emb)))

    if tau[0] != beta[0]:
        return facet(tau)
    flipped = dict(eps)
    for k in range(mu(beta)):
        flipped[shift(beta, k)] *= -1
    if tau != beta:
        if tau in tilde:
            return facet(tau)
        return _window(p, cycle_lengths, flipped, shift(tau, mu(tau)))
    beta2 = shift(beta, n[beta])
    btilde = shift(beta2, mu(beta2))
    if tau in tilde:
        return _window(p, cycle_lengths, flipped, btilde)
    return _window(p, cycle_lengths, flipped, beta, shift(btilde, -1))


def distinguished_by_pairs(p, cycle_lengths, members, beta):
    """The distinguished generator at beta outside T, by pair kinds: the
    pair weight h from shift^n(beta) down to beta off the closure, minus
    the pair weight b on the closure minus T."""
    tilde, _, n = chain_closure(cycle_lengths, members)
    c, i = beta
    f = cycle_lengths[c]
    offset = sum(cycle_lengths[:c])
    top = (i + n[beta]) % f

    def pair(head):
        # head e_top + p^m e_beta, m in (0, f] shifting beta to top
        out = [0] * sum(cycle_lengths)
        out[offset + top] += head
        out[offset + i] += p ** ((top - i) % f or f)
        return tuple(out)

    if beta in tilde:
        return neg(pair(1))
    return pair(-1)


def hasse_pairs(cycle_lengths, members):
    """The (emb, target) pairs of the Hasse-pair family, cycle by cycle,
    then by emb, then by target: emb outside T, target outside the closure
    or one step ahead of (closure minus T)."""
    tilde, _, _ = chain_closure(cycle_lengths, members)
    out = []
    for c, f in enumerate(cycle_lengths):
        targets = sorted(
            {i for i in range(f) if (c, i) not in tilde}
            | {(i + 1) % f for i in range(f)
               if (c, i) in tilde and (c, i) not in members})
        out.extend(((c, i), (c, j)) for i in range(f)
                   if (c, i) not in members for j in targets)
    return out


def recipe_by_exit_parity(p, cycle_lengths, members, emb, target):
    """The pair recipe from emb down to target by the exit-parity walk.

    The base is T together with the closure part of the open walk.  The
    factor at step i, at shift^-i(emb), is b on the base and h off it, with
    exponent (-1)^s p^i, s the number of steps up from the factor to the
    first embedding off the base.  Returns (base, factors): a set of
    (cycle, pos) pairs and a dict keyed by (kind, (cycle, pos))."""
    tilde, _, _ = chain_closure(cycle_lengths, members)
    c, top = emb
    f = cycle_lengths[c]
    m = (top - target[1]) % f or f
    base = set(members) | {(c, (top - j) % f) for j in range(1, m)
                           if (c, (top - j) % f) in tilde}
    factors = {}
    for i in range(m):
        tau = (c, (top - i) % f)
        s = next(j for j in range(f) if (c, (tau[1] + j) % f) not in base)
        factors[("b" if tau in base else "h", tau)] = (-1) ** s * p ** i
    return base, factors


def f_recipe_by_patch(p, cycle_lengths, members, beta):
    """The recipe of the distinguished generator at beta outside T: the
    pair recipe from shift^n(beta) down to beta off the closure; on the
    closure minus T the pair recipe down to one step ahead of beta, times
    the b section there to the power -p^(n-1)."""
    tilde, _, n = chain_closure(cycle_lengths, members)
    c, i = beta
    f = cycle_lengths[c]
    top = (c, (i + n[beta]) % f)
    if beta not in tilde:
        return recipe_by_exit_parity(p, cycle_lengths, members, top, beta)
    ahead = (c, (i + 1) % f)
    base, factors = recipe_by_exit_parity(p, cycle_lengths, members, top,
                                          ahead)
    factors[("b", ahead)] = factors.get(("b", ahead), 0) - p ** (n[beta] - 1)
    return base, factors


def f_recipe_tag_by_cases(p, cycle_lengths, members, beta):
    """The discrete tag of the distinguished generator's recipe at beta
    outside T, by cases: zero off the closure; on the closure minus T the
    class of the basis weight at shift^n(beta), p^pos modulo p^f - 1 on
    its cycle.  Returns (residues, moduli), one entry per cycle."""
    tilde, _, n = chain_closure(cycle_lengths, members)
    moduli = tuple(p ** f - 1 for f in cycle_lengths)
    residues = [0] * len(cycle_lengths)
    if beta in tilde:
        c, i = beta
        residues[c] = p ** ((i + n[beta]) % cycle_lengths[c]) % moduli[c]
    return tuple(residues), moduli
