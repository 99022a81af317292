"""Frobenius-rotation equivariance of every construction of a stratum.

Rotating one cycle by a step commutes with the Frobenius shift, and so does
swapping two cycles of the same length.  Every construction reads only T
and the shift, so moving T by such a map g moves the index tables, the
tilde closure, the sign function, the admissible set, the half-spaces, the
weight cone and both minimal cones by the same permutation of coordinates,
and leaves every check status unchanged.  The maps are written out here
with plain modular arithmetic, not through `frobenius_shift`, so an offset
or wrap-around fault in the library cannot cancel out of the comparison.
A permuted cone is brought back to canonical form with the oracle's
`canon_gen` on each side (sorted primitive rays, canonical basis of the
lines) before it is compared.
"""

from oracle import canon_gen

from strata_cones.splitting import (
    EmbeddingId,
    SplittingConfig,
    admissible_set,
    index_tables,
    sign_epsilon,
    tilde_closure,
)
from strata_cones.verify import _every_stratum, check_stratum, partitions
from strata_cones.weights import cone_D, explicit_constraints, minimal_cone

PRIMES = (2, 3)
DEGREE = 5


def moves(config):
    """The generators of the symmetry group: each cycle rotated one step
    forward, and each pair of adjacent cycles of equal length swapped (the
    cycle lengths are non-increasing, so equal lengths sit together)."""
    lengths = config.cycle_lengths
    embeddings = config.embeddings()
    out = [{e: EmbeddingId(e.cycle, (e.pos + (e.cycle == c))
                           % lengths[e.cycle])
            for e in embeddings} for c in range(len(lengths))]
    for c in range(len(lengths) - 1):
        if lengths[c] == lengths[c + 1]:
            swap = {c: c + 1, c + 1: c}
            out.append({e: EmbeddingId(swap.get(e.cycle, e.cycle), e.pos)
                        for e in embeddings})
    return out


def permuted(vecs, source, target, g):
    """Move each vector, indexed by the embeddings `source`, to the
    embeddings `target`: the coordinate at e goes to the place of g(e)."""
    where = {e: i for i, e in enumerate(target)}
    out = []
    for v in vecs:
        w = [0] * len(v)
        for e, x in zip(source, v):
            w[where[g[e]]] = x
        out.append(tuple(w))
    return out


def sides(cone):
    """What cone equality compares: the dimension and both canonical
    sides."""
    return cone.dim, cone.gen, cone.con


def moved_cone(cone, source, target, g):
    """The `sides` of the cone with its coordinates moved."""
    def side(vecs, basis):
        return canon_gen(permuted(vecs, source, target, g),
                         permuted(basis, source, target, g), cone.dim)

    return (cone.dim, side(cone.gen.rays, cone.gen.lines),
            side(cone.con.ineqs, cone.con.eqns))


def assert_equivariant(t, moved, g):
    """Every construction of `moved` = g.T is g applied to that of t."""
    tables, gtables = index_tables(t), index_tables(moved)
    for name in ("mu", "nu", "n"):
        assert {g[e]: k for e, k in getattr(tables, name).items()} == \
            getattr(gtables, name), (t, name)
    assert {g[e]: s for e, s in sign_epsilon(t).items()} == \
        sign_epsilon(moved), t
    assert {g[e] for e in tilde_closure(t).members} == \
        tilde_closure(moved).members, t
    assert {g[e] for e in admissible_set(t)} == admissible_set(moved), t
    # the half-space at beta moves to the half-space at g(beta)
    full = t.config.embeddings()
    forms = permuted(explicit_constraints(t).ineqs, full, full, g)
    assert dict(zip(map(g.get, t.complement()), forms)) == \
        dict(zip(moved.complement(), explicit_constraints(moved).ineqs)), t
    assert moved_cone(cone_D(t), full, full, g) == sides(cone_D(moved)), t
    # the minimal cones live on the sorted complement of T
    for variant in ("min", "min0"):
        assert moved_cone(minimal_cone(t, variant), t.complement(),
                          moved.complement(), g) == \
            sides(minimal_cone(moved, variant)), (t, variant)


def configurations(primes, degree):
    for p in primes:
        for d in range(1, degree + 1):
            for lengths in partitions(d):
                yield SplittingConfig(p, lengths)


def orbit_count(edges, nodes) -> int:
    """The number of connected components of the graph."""
    root = {x: x for x in nodes}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in edges:
        root[find(a)] = find(b)
    return len({find(x) for x in nodes})


def equivariance_counts(primes, degree) -> tuple[int, int]:
    """Compare every stratum of every configuration up to `degree` with its
    image under each move; return the number of (stratum, move) pairs and
    of orbits."""
    pairs = orbits = 0
    for config in configurations(primes, degree):
        strata = {t.members: t for t in _every_stratum(config)}
        status = {members: [r.status for r in check_stratum(t)]
                  for members, t in strata.items()}
        edges = []
        for g in moves(config):
            for members, t in strata.items():
                image = frozenset(g[e] for e in members)
                assert_equivariant(t, strata[image], g)
                assert status[image] == status[members], (t, g)
                edges.append((members, image))
        pairs += len(edges)
        orbits += orbit_count(edges, strata)
    return pairs, orbits


def test_every_construction_moves_with_the_frobenius_rotation():
    # 676 strata of p in {2, 3} and degree at most 5, 2500 (stratum, move)
    # pairs, 260 orbits
    assert equivariance_counts(PRIMES, DEGREE) == (2500, 260)
