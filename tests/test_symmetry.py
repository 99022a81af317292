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

The report decides each check once per orbit (`verify._orbit_checks`), so
two more properties are pinned here: every result that moves along an
orbit (`verify._moves_along_orbit`) is equal, witness and all, across each
move, and the classes of `splitting.orbit_key` are exactly the orbits.  The
report path is compared with the direct checks on every stratum, sound and
under planted faults, and the runs of each check made for the records are
pinned, so a result that stops moving along its orbit shows.
"""

import collections

import pytest
from oracle import canon_gen, sides

from strata_cones import verify
from strata_cones.splitting import (
    EmbeddingId,
    SplittingConfig,
    admissible_set,
    index_tables,
    orbit_key,
    sign_epsilon,
    stratum_from_text,
    tilde_closure,
)
from strata_cones.verify import (
    FAIL,
    PASS,
    CheckResult,
    _config_tasks,
    _every_stratum,
    _moves_along_orbit,
    check_min_question,
    check_stratum,
    partitions,
    stratum_record,
)
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


def orbit_components(edges, nodes) -> list[set]:
    """The connected components of the graph."""
    root = {x: x for x in nodes}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in edges:
        root[find(a)] = find(b)
    components = collections.defaultdict(set)
    for x in nodes:
        components[find(x)].add(x)
    return list(components.values())


def image(g, members) -> frozenset:
    return frozenset(g[e] for e in members)


def all_results(t) -> list:
    """Every result of a record, computed directly."""
    return check_stratum(t) + [check_min_question(t)]


def equivariance_counts(primes, degree) -> tuple[int, int]:
    """Compare every stratum of every configuration up to `degree` with its
    image under each move: every construction, every status, and every
    result that moves along its orbit, witness and all.  Return the number
    of (stratum, move) pairs and of orbits."""
    pairs = orbits = 0
    for config in configurations(primes, degree):
        strata = {t.members: t for t in _every_stratum(config)}
        results = {members: all_results(t) for members, t in strata.items()}
        edges = []
        for g in moves(config):
            for members, t in strata.items():
                moved = image(g, members)
                assert_equivariant(t, strata[moved], g)
                for before, after in zip(results[members], results[moved]):
                    assert after.status == before.status, (t, g, before)
                    if _moves_along_orbit(before):
                        assert after == before, (t, g, before)
                edges.append((members, moved))
        pairs += len(edges)
        orbits += len(orbit_components(edges, strata))
    return pairs, orbits


def test_every_construction_moves_with_the_frobenius_rotation():
    # 676 strata of p in {2, 3} and degree at most 5, 2500 (stratum, move)
    # pairs, 260 orbits
    assert equivariance_counts(PRIMES, DEGREE) == (2500, 260)


# ---------------------------------------------------------------------------
# the orbit key and the report path that reads it


def orbits(config) -> list[list]:
    """The strata of `config` in classes under the moves, each class in
    report order, so that its first stratum is the one the report meets
    first."""
    strata = {t.members: t for t in _every_stratum(config)}
    edges = [(members, image(g, members))
             for g in moves(config) for members in strata]
    return [sorted((strata[m] for m in component), key=lambda t: t.key())
            for component in orbit_components(edges, strata)]


def key_classes(primes, degree, key=orbit_key) -> tuple[int, list]:
    """The number of orbits up to `degree`, and the configurations where
    the classes of `key` are not exactly the orbits."""
    count, wrong = 0, []
    for config in configurations(primes, degree):
        expected = orbits(config)
        classes = collections.defaultdict(set)
        for t in _every_stratum(config):
            classes[key(t)].add(t.members)
        if set(map(frozenset, classes.values())) != {
                frozenset(t.members for t in orbit) for orbit in expected}:
            wrong.append(config)
        count += len(expected)
    return count, wrong


def least_rotation(bits: tuple) -> tuple:
    return min(bits[k:] + bits[:k] for k in range(len(bits)))


def cycle_patterns(t) -> list[tuple]:
    return [(f, tuple(EmbeddingId(c, i) in t for i in range(f)))
            for c, f in enumerate(t.config.cycle_lengths)]


def key_leaving_the_last_cycle_unrotated(t) -> tuple:
    """A planted fault: the last cycle's pattern is keyed as it stands, so
    the rotations of the last cycle split an orbit."""
    *rest, last = cycle_patterns(t)
    return tuple(sorted([(f, least_rotation(bits)) for f, bits in rest]
                        + [last]))


def key_skipping_the_last_cycle(t) -> tuple:
    """A planted fault: the loop over the cycles stops one short, so strata
    that differ on the last cycle alone share a key."""
    return tuple(sorted((f, least_rotation(bits))
                        for f, bits in cycle_patterns(t)[:-1]))


KEY_FAULTS = [key_leaving_the_last_cycle_unrotated,
              key_skipping_the_last_cycle]


def test_orbit_key_classes_are_the_symmetry_orbits():
    assert key_classes(PRIMES, DEGREE) == (260, [])


@pytest.mark.parametrize("fault", KEY_FAULTS, ids=lambda f: f.__name__)
def test_orbit_key_faults_are_caught_by_the_orbits(fault):
    count, wrong = key_classes(PRIMES, DEGREE, fault)
    assert count == 260 and wrong


def record_entry(result) -> dict:
    """A result as its record lists it."""
    return {"name": result.name, "status": result.status} | (
        {"witness": result.witness} if result.witness is not None else {})


def orbit_path_runs(primes, degree, monkeypatch,
                    reverse=False) -> tuple[int, collections.Counter, list]:
    """Make the record of every stratum up to `degree` through the report
    path, the strata of each configuration in report order (or reversed),
    and compare its check list with the direct checks, witnesses included.

    Return the number of strata, the runs of each check made for the
    records, counted by the name of its result (`minimal_equality` for
    `check_min_question`), and the strata whose checks differ.  The checks
    counted are those `verify` holds when this is called, planted faults
    included."""
    calls = collections.Counter()

    def counted(check):
        def run(t):
            result = check(t)
            calls[result.name] += 1
            return result
        return run

    monkeypatch.setattr(verify, "_CHECKS", tuple(map(counted,
                                                     verify._CHECKS)))
    monkeypatch.setattr(verify, "check_min_question",
                        counted(verify.check_min_question))
    strata = 0
    runs = collections.Counter()
    differ = []
    for config in configurations(primes, degree):
        tasks = _config_tasks(config)
        for _, text in reversed(tasks) if reverse else tasks:
            t = stratum_from_text(config, text)
            before = calls.copy()
            checks = stratum_record(t)["checks"]
            runs += calls - before
            if checks != list(map(record_entry, all_results(t))):
                differ.append((config, text))
            strata += 1
    return strata, runs, differ


def orbit_path_against_direct(primes, degree, monkeypatch,
                              reverse=False) -> tuple[int, int, list]:
    """`orbit_path_runs` with the runs of `delta_kernel` alone: it passes
    without a witness everywhere, so its result moves along each orbit and
    it runs for the first stratum of each orbit alone."""
    strata, runs, differ = orbit_path_runs(primes, degree, monkeypatch,
                                           reverse)
    return strata, runs["delta_kernel"], differ


# the runs of each check for the records of the 1014 strata of p in
# {2, 3, 5} and degree at most 5, 390 orbits: a result moves along its orbit
# unless it fails or its witness names its stratum, and only the dichotomy
# fails or names its stratum (its `strict_via` pass) on a later stratum of
# an orbit
RECORD_PATH_RUNS = {name: 390 for name in (
    "optimal_basis", "explicit_halfspaces", "biorthogonality",
    "hasse_identity", "reduction_identities", "recipe_weights",
    "divisor_functionals", "minimal_nesting", "diagonal_minimal",
    "gl2_product", "delta_kernel", "product_structure",
    "minimal_equality")} | {"admissible_dichotomy": 735}


def test_the_orbit_path_gives_the_direct_checks(monkeypatch):
    # 1014 strata of p in {2, 3, 5} and degree at most 5, 130 orbits a prime
    assert orbit_path_against_direct([2, 3, 5], DEGREE, monkeypatch) == (
        1014, 390, [])


def test_the_record_path_runs_each_check_once_per_orbit(monkeypatch):
    assert orbit_path_runs([2, 3, 5], DEGREE, monkeypatch) == (
        1014, RECORD_PATH_RUNS, [])


def test_a_result_that_stops_moving_is_caught_by_the_runs(monkeypatch):
    # a planted fault: product_structure words its reason differently, so
    # the result names nothing of its stratum yet no longer moves along
    # its orbit; every record stays right, and only the runs show it
    direct = verify._check_product_structure

    def reworded(t):
        result = direct(t)
        if result.witness == {"reason": "single cycle"}:
            return result._replace(witness={"reason": "one cycle"})
        return result

    monkeypatch.setattr(verify, "_CHECKS", tuple(
        reworded if check is direct else check for check in verify._CHECKS))
    strata, runs, differ = orbit_path_runs([2, 3, 5], DEGREE, monkeypatch)
    assert strata == 1014 and differ == []
    assert runs["product_structure"] > 390
    assert dict(runs, product_structure=390) == RECORD_PATH_RUNS


def asymmetric_check(t) -> CheckResult:
    """A planted fault: a check that fails exactly when T holds the
    embedding 0.0, which no move fixes."""
    if EmbeddingId(0, 0) in t:
        return CheckResult("asymmetric", FAIL, {"at": "0.0"})
    return CheckResult("asymmetric", PASS)


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["report-order", "reversed"])
def test_an_asymmetric_check_is_caught(monkeypatch, reverse):
    # caught by the symmetry pin first of all, on the orbit of T = {0.0}
    monkeypatch.setattr(verify, "_CHECKS", verify._CHECKS + (
        asymmetric_check,))
    with pytest.raises(AssertionError, match="asymmetric"):
        equivariance_counts([2], 2)
    # 34 strata of p = 2 and degree at most 3, 22 orbits
    strata, first, differ = orbit_path_against_direct([2], 3, monkeypatch,
                                                      reverse)
    assert (strata, first) == (34, 22)
    if reverse:
        # met first, a stratum without 0.0 passes, and its pass would hide
        # the fault on the strata of its orbit that hold 0.0
        assert differ
    else:
        # in report order the first stratum of an orbit that meets 0.0
        # holds it ('0.0' sorts first) and fails, and a fail never moves
        assert differ == []


def test_a_key_that_merges_orbits_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "orbit_key", key_skipping_the_last_cycle)
    strata, first, differ = orbit_path_against_direct([2], 4, monkeypatch)
    assert strata == 114 and first < key_classes([2], 4)[0] and differ


def test_a_key_that_splits_orbits_is_caught_by_its_runs(monkeypatch):
    # the records stay right, but an orbit is decided more than once
    monkeypatch.setattr(verify, "orbit_key",
                        key_leaving_the_last_cycle_unrotated)
    strata, first, differ = orbit_path_against_direct([2], 4, monkeypatch)
    assert strata == 114 and first > key_classes([2], 4)[0] == 56
    assert differ == []
