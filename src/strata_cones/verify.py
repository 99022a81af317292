"""Finite-instance checkers and the exhaustive sweep explorer.

Every finitely checkable claim about weight cones of strata is packaged as a
named check producing a CheckResult.  A failing result always carries a
witness that re-verifies with the cone kernel alone: either a vector
together with a violated constraint of the cone it was claimed to lie in,
or a full membership certificate for a vector claimed to lie outside.
Checks that compare objects block-diagonal over the cycles are decided on
a multi-cycle stratum from its cycles' single-cycle strata (`_by_cycles`).
A record decides its checks once per Frobenius orbit (`_orbit_checks`): a
result that is not a fail and whose witness names nothing of its stratum
moves from the orbit's first stratum to the rest of the orbit, and every
other result is the check's own on each stratum.  `check_stratum` stays the
direct path.

The explorer sweeps all cycle partitions of all degrees up to a bound for a
list of primes, runs every check on every stratum, and writes a
deterministic report in a layout, JSON or text, as the records arrive; a
`Report` keeps the JSON text.  Strata are processed in sorted order and
results merged positionally, so the output is byte-identical no matter how
many worker processes are used.
"""

import contextlib
import functools
import itertools
import json
from typing import Iterable, Iterator, NamedTuple, Sequence

from .cone_kernel import (
    Cone,
    MembershipCertificate,
    _dot,
    cone_from_constraints,
    cone_from_rays,
    cone_image,
    cone_member,
    cone_sum,
    first_escape,
    full_space,
)
from .splitting import (
    EmbeddingId,
    SplittingConfig,
    Stratum,
    _memoised,
    admissible_set,
    frobenius_shift,
    index_tables,
    orbit_key,
    places_and_iw,
    sign_epsilon,
    tilde_closure,
)
from .weights import (
    _as_vec,
    _divisor_forms,
    cone_D,
    delta_class,
    explicit_constraints,
    f_recipe,
    f_weight,
    family_cone,
    generators_G,
    generators_Gprime,
    gl2_generators,
    halfspace_cone,
    lift_jT,
    minimal_cone,
    pair_family,
    reduce_iT,
    reduced_cone,
    reduction_matrix,
    section_recipe,
    weight_basis,
    weight_pair,
)

SCHEMA_VERSION = 1
_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}

# every worker process is started up front, so the count is bounded
JOBS_MAX = 64

PASS = "pass"
FAIL = "fail"
INFO = "info"


class CheckResult(NamedTuple):
    """Outcome of one named check on one stratum."""

    name: str
    status: str
    witness: dict | None = None


class Report(NamedTuple):
    """A sweep's report: its JSON text as the command writes it, with the
    open question and summary the text ends with.  `strata` and `to_dict`
    decode the text on each access."""

    text: str
    open_question: dict
    summary: dict

    @property
    def strata(self) -> list[dict]:
        return self.to_dict()["strata"]

    def to_dict(self) -> dict:
        return json.loads(self.text)

    def to_json(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# serialization helpers: mathematical integers travel as decimal strings so
# arbitrary-precision values survive any JSON consumer


def _dumps(obj, newline: str = "\n") -> str:
    """`obj` as the json module writes it with indent=2, `newline` at each
    line break.  It takes what documents hold, dicts with `str` keys, lists,
    `str`, `bool`, `int` and None, and refuses the rest with a TypeError."""
    if type(obj) is str:
        return _encode_str(obj)
    inner = newline + "  "
    if type(obj) is list:
        if not obj:
            return "[]"
        items = (map(_encode_str, obj) if all(type(x) is str for x in obj)
                 else [_dumps(x, inner) for x in obj])
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(obj) is dict:
        if not obj:
            return "{}"
        # the encoder refuses a key that is not a str with a TypeError
        items = [f"{_encode_str(k)}: {_dumps(v, inner)}"
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if obj is None or type(obj) is bool:
        return _CONSTANTS[obj]
    if type(obj) is int:
        return int.__repr__(obj)
    raise TypeError(f"{type(obj).__name__} is not a report value")


def _vec(v: Sequence) -> list[str]:
    return list(map(str, v))


def _vecs(vs: Iterable[Sequence]) -> list[list[str]]:
    return [_vec(v) for v in vs]


def _certificate(cert: MembershipCertificate) -> dict:
    """The coefficients of an inside membership certificate, keyed by
    generator index."""
    return {key: {str(i): str(x) for i, x in sorted(coeffs.items())}
            for key, coeffs in (("ray_coeffs", cert.ray_coeffs),
                                ("line_coeffs", cert.line_coeffs))}


def _cone_record(cone: Cone) -> dict:
    return {
        "dim": cone.dim,
        "ineqs": _vecs(cone.con.ineqs),
        "eqns": _vecs(cone.con.eqns),
        "rays": _vecs(cone.gen.rays),
        "lines": _vecs(cone.gen.lines),
    }


# ---------------------------------------------------------------------------
# witness builders


def _escape_witness(inner: Cone, outer: Cone, **labels) -> dict | None:
    """None if `inner` lies in `outer`; else the first generator of `inner`
    outside `outer` with the constraint it breaks, followed by `labels`."""
    escape = first_escape(inner, outer)
    if escape is None:
        return None
    gen, form = escape
    return {"weight": _vec(gen), "violated_form": _vec(form)} | labels


def _verdict(name: str, witness: dict | None) -> CheckResult:
    return CheckResult(name, PASS if witness is None else FAIL, witness)


def _equality_result(name: str, left: Cone, right: Cone,
                     left_label: str, right_label: str) -> CheckResult:
    """Pass iff the cones contain each other; on failure, witness a
    canonical generator of one side with a violated constraint of the
    other."""
    return _verdict(name, _escape_witness(
        left, right, generator_of=left_label, not_in=right_label)
        or _escape_witness(
            right, left, generator_of=right_label, not_in=left_label))


# ---------------------------------------------------------------------------
# single-cycle sub-strata


@_memoised
def _cycle_stratum(config: SplittingConfig, f: int,
                   positions: frozenset[int]) -> Stratum:
    """The stratum of the single cycle (p, (f,)) at the given positions."""
    return Stratum(SplittingConfig(config.p, (f,)),
                   frozenset(EmbeddingId(0, i) for i in positions))


def _by_cycles(check):
    """`check`, decided on a multi-cycle stratum from its cycles.

    For a check whose objects are block-diagonal over the cycles, a pass on
    every cycle's single-cycle stratum (`_cycle_stratum`) implies a pass on
    the stratum, which is then the verdict.  Each cycle's result is
    memoised on its sub-stratum, so a configuration runs the check once per
    cycle pattern.  A cycle that does not pass without a witness sends the
    stratum to `check` itself, so every fail and witness is the direct
    check's, bytes and all; so is every single-cycle verdict.  The direct
    check is the `__wrapped__` attribute."""
    per_cycle = _memoised(check)

    @functools.wraps(check)
    def routed(t: Stratum) -> CheckResult:
        config = t.config
        if len(config.cycle_lengths) < 2:
            return check(t)
        for c, f in enumerate(config.cycle_lengths):
            result = per_cycle(_cycle_stratum(config, f, t.cycle_members(c)))
            if result.status != PASS or result.witness is not None:
                return check(t)
        return result

    return routed


# ---------------------------------------------------------------------------
# individual checks


@_by_cycles
def _check_optimal_basis(t: Stratum) -> CheckResult:
    """The Hasse-pair family and the one-ray-per-embedding family generate
    the same cone.

    Both families list their generators cycle by cycle, each supported on
    its cycle, so both cones are products over the cycles and are equal
    when they are on every cycle.  A passing multi-cycle stratum builds no
    cone of its pair family: the dossier's bytes pin both families,
    `product_structure` compares the weight cone with the product of the
    cycles' cones, and the differential test of `tests/test_verify.py`
    compares this verdict with the direct one."""
    return _equality_result(
        "optimal_basis", family_cone(generators_G(t), t.config.degree),
        cone_D(t), "pair-generated cone", "one-ray-per-embedding cone")


@_by_cycles
def _check_explicit_halfspaces(t: Stratum) -> CheckResult:
    """The weight cone is the cone cut out by the explicit half-spaces.

    Each facet functional is a window on one cycle and each generator lies
    on one cycle, so both cones are products over the cycles and are equal
    when they are on every cycle.  A passing multi-cycle stratum builds no
    half-space cone: the dossier's bytes pin its half-spaces,
    `product_structure` its weight cone, and the differential test this
    verdict."""
    return _equality_result(
        "explicit_halfspaces", cone_D(t), halfspace_cone(t),
        "generated cone", "half-space cone")


@_by_cycles
def _check_biorthogonality(t: Stratum) -> CheckResult:
    """The facet functional at beta is positive on the ray at beta, and 0
    on every other ray and on every line.

    A functional and a generator on different cycles have disjoint
    supports, so their pairing is 0 as required: only the pairs of one
    cycle, those of its single-cycle stratum, can fail.  A passing
    multi-cycle stratum pairs none of its own functionals and generators:
    the dossier's bytes pin both, and the differential test this
    verdict."""
    outside = t.complement()
    gens = generators_Gprime(t)
    rays = [w for w, is_line in gens if not is_line]
    lines = [w for w, is_line in gens if is_line]
    for beta, form in zip(outside, explicit_constraints(t).ineqs):
        for tau, ray in zip(outside, rays):
            value = _dot(form, ray)
            good = value > 0 if tau == beta else value == 0
            if not good:
                return CheckResult("biorthogonality", FAIL, {
                    "functional_at": beta.key(),
                    "generator_at": tau.key(),
                    "functional": _vec(form),
                    "generator": _vec(ray),
                    "value": str(value)})
        for line in lines:
            if _dot(form, line) != 0:
                return CheckResult("biorthogonality", FAIL, {
                    "functional_at": beta.key(),
                    "functional": _vec(form),
                    "line": _vec(line),
                    "value": str(_dot(form, line))})
    return CheckResult("biorthogonality", PASS)


def _hasse_type_cone(stratum: Stratum) -> Cone:
    config = stratum.config
    rays = [weight_basis(config, "h", beta)
            for beta in stratum.complement()]
    lines = [weight_basis(config, "b", beta)
             for beta in sorted(stratum.members)]
    return cone_from_rays(rays, lines, dim=config.degree)


def _check_admissible_dichotomy(t: Stratum) -> CheckResult:
    """Test the admissibility dichotomy in its strong form.

    Admissible strata (tilde closure equal to T) carry exactly the
    Hasse-type cone; otherwise the inclusion is claimed strict, witnessed
    by a distinguished generator outside the Hasse-type cone.

    Since the weight cone is generated by the distinguished generators plus
    the lines shared with the Hasse-type cone, strictness is equivalent to
    some generator escaping; when every one of them stays inside, the cones
    are equal, the check fails and the witness lists the full set of
    membership certificates proving it.  The strong form is false: the
    failures are exactly the even one-gap family, where every cycle whose
    closure grows has even length f and one embedding j outside T, and
    -(1 + p^f) e_j = h_j + sum_{i=1}^{f-1} (-p)^i b_{j-i} telescopes the
    generator at j into the Hasse-type cone.  Acceptance criterion 3 pins
    this exact split."""
    name = "admissible_dichotomy"
    hasse = _hasse_type_cone(t)
    witness = _escape_witness(hasse, cone_D(t),
                              generator_of="Hasse-type cone",
                              not_in="weight cone")
    if witness is not None:
        return CheckResult(name, FAIL, witness)
    if tilde_closure(t) == t:
        return _verdict(name, _escape_witness(
            cone_D(t), hasse, generator_of="weight cone",
            not_in="Hasse-type cone"))
    memberships = []
    for beta in t.complement():
        fw = f_weight(t, beta)
        cert = cone_member(hasse, fw)
        if not cert.inside:
            return CheckResult(name, PASS, {
                "weight": _vec(fw),
                "violated_form": _vec(cert.violated_form),
                "strict_via": beta.key()})
        memberships.append({
            "generator_at": beta.key(),
            "weight": _vec(fw),
        } | _certificate(cert))
    return CheckResult(name, FAIL, {
        "claimed": "strict inclusion of the Hasse-type cone",
        "found": "the cones are equal",
        "rays": _vecs(hasse.gen.rays),
        "lines": _vecs(hasse.gen.lines),
        "memberships": memberships,
    })


def _check_hasse_identity(t: Stratum) -> CheckResult:
    return _verdict("hasse_identity", _hasse_identity(t.config))


@_memoised
def _hasse_identity(config: SplittingConfig) -> dict | None:
    """None if every Hasse pair identity holds; else the first failure."""
    for c, f in enumerate(config.cycle_lengths):
        for n in range(1, f):
            for m in range(1, f - n + 1):
                beta = EmbeddingId(c, 0)
                mid = frobenius_shift(config, beta, n)
                top = frobenius_shift(config, beta, n + m)
                long = weight_pair(config, "h", top, beta)
                split = tuple(
                    a + config.p ** m * b
                    for a, b in zip(weight_pair(config, "h", top, mid),
                                    weight_pair(config, "h", mid, beta)))
                if long != split:
                    return {"cycle": str(c), "n": str(n), "m": str(m),
                            "direct": _vec(long), "composed": _vec(split)}
    return None


@_by_cycles
def _check_reduction_identities(t: Stratum) -> CheckResult:
    """The reduction undoes the zero-filled section, its kernel is the span
    of the b lines on T, and the weight cone is the section's image of the
    reduced cone plus that kernel.

    The reduction matrix, the section and the b lines are block-diagonal
    over the cycles and the cones are products, so each identity holds
    when it holds on every cycle.  A passing multi-cycle stratum runs no
    round trip and builds no kernel or section of its own:
    `minimal_nesting` still reads its reduced cone, `product_structure`
    its weight cone, and the differential test compares this verdict."""
    name = "reduction_identities"
    config = t.config
    width = len(t.complement())
    lifts = []
    for i in range(width):
        probe = tuple(1 if j == i else 0 for j in range(width))
        lift = lift_jT(t, probe)
        back = reduce_iT(t, lift)
        if back != probe:
            return CheckResult(name, FAIL, {
                "probe": _vec(probe), "round_trip": _vec(back)})
        lifts.append(lift)
    rows = reduction_matrix(t)
    kernel = cone_from_constraints([], rows, dim=config.degree)
    spanned = cone_from_rays(
        [], [weight_basis(config, "b", beta) for beta in sorted(t.members)],
        dim=config.degree)
    result = _equality_result(name, kernel, spanned,
                              "reduction kernel", "span of b lines on T")
    if result.status != PASS:
        return result
    # the section as a matrix, its columns the lifted probes
    section = [tuple(lift[j] for lift in lifts)
               for j in range(config.degree)]
    rebuilt = cone_sum(cone_image(section, reduced_cone(t)), spanned)
    return _equality_result(name, cone_D(t), rebuilt,
                            "weight cone", "lifted reduction plus kernel")


@_by_cycles
def _check_recipe_weights(t: Stratum) -> CheckResult:
    """Every recipe checks its own weight (AssertionError) and walk
    (ValueError), a fail naming the error either way, and a generator's tag
    is the class of the first slot of its bi-weight ray.

    A pair walks one cycle, and a generator's monomial, tag and first slot
    lie on its cycle, with residue 0 on every other cycle, so the check
    passes when it passes on every cycle.  A passing multi-cycle stratum
    builds no recipe, whose base stratum would also hold the members of T
    on the other cycles; the differential test alone compares this verdict
    with the direct one."""
    name = "recipe_weights"
    for c in range(len(t.config.cycle_lengths)):
        for emb, target in pair_family(t, c):
            try:
                section_recipe(t, emb, target)
            except (AssertionError, ValueError) as exc:
                return CheckResult(name, FAIL, {
                    "pair": [emb.key(), target.key()],
                    "error": str(exc)})
    slots = [bw.lam for bw, is_line in gl2_generators(t) if not is_line]
    for beta, lam in zip(t.complement(), slots):
        try:
            _, tag = f_recipe(t, beta)
        except (AssertionError, ValueError) as exc:
            return CheckResult(name, FAIL, {
                "generator_at": beta.key(), "error": str(exc)})
        if tag != delta_class(t.config, lam):
            return CheckResult(name, FAIL, {
                "generator_at": beta.key(),
                "tag_residues": _vec(tag.residues),
                "first_slot": _vec(lam)})
    return CheckResult(name, PASS)


def _check_divisor_functionals(t: Stratum) -> CheckResult:
    """Each distinguished generator at an admissible embedding violates its
    own divisibility functional, and the pairing is -2 p^(n + delta) with
    delta >= 0."""
    name = "divisor_functionals"
    adm = sorted(admissible_set(t))
    if not adm:
        return CheckResult(name, INFO, {"reason": "no admissible embeddings"})
    p = t.config.p
    for beta in adm:
        fw = f_weight(t, beta)
        form = _divisor_forms(t, beta)[0]
        value = _dot(form, fw)
        n = index_tables(t).n[beta]
        power = -value
        good = value < 0 and power % 2 == 0
        if good:
            power //= 2
            while power % p == 0:
                power //= p
            good = power == 1 and -value >= 2 * p ** n
        if not good:
            return CheckResult(name, FAIL, {
                "beta": beta.key(),
                "functional": _vec(form),
                "generator": _vec(fw),
                "value": str(value)})
    return CheckResult(name, PASS)


def _check_minimal_nesting(t: Stratum) -> CheckResult:
    mini0 = minimal_cone(t, "min0")
    return _verdict("minimal_nesting", _escape_witness(
        minimal_cone(t, "min"), mini0, generator_of="minimal cone",
        not_in="diagonal minimal cone")
        or _escape_witness(
            mini0, reduced_cone(t), generator_of="diagonal minimal cone",
            not_in="reduced weight cone"))


def _check_diagonal_minimal(t: Stratum) -> CheckResult:
    """For admissible strata the minimal cone has the explicit diagonal
    description p^n l(shift^n beta) >= l(beta)."""
    name = "diagonal_minimal"
    if tilde_closure(t) != t:
        return CheckResult(name, INFO,
                           {"reason": "tilde closure differs from T"})
    outside = t.complement()
    forms = []
    for beta in outside:
        n = index_tables(t).n[beta]
        form = [0] * len(outside)
        form[outside.index(beta)] -= 1
        shifted = frobenius_shift(t.config, beta, n)
        form[outside.index(shifted)] += t.config.p ** n
        forms.append(tuple(form))
    described = cone_from_constraints(forms, dim=len(outside))
    return _equality_result(name, minimal_cone(t, "min"), described,
                            "minimal cone", "diagonal description")


@_by_cycles
def _check_gl2_product(t: Stratum) -> CheckResult:
    """The bi-weight cone is Q^d times the half-space cone, decided in
    dimension d: the Hasse lines (h, 0) span the first slot (|det H| is
    p^f - 1 on each cycle), and modulo them every generator is (0, kappa).
    A witness (v, form) lifts to (v, 0), (form, 0) for the first slot and
    to (0, v), (0, form) for the second.  A rational check cannot see the
    first slot's integral content; `delta_kernel` proves it for all weights.

    Every generator lies on one cycle in both slots and the half-space cone
    is a product, so both steps hold when they hold on every cycle.  A
    passing multi-cycle stratum builds no bi-weight generators or
    half-space cone of its own: the dossier's bytes pin its half-spaces,
    `delta_kernel` the Hasse lattice of every cycle, and the differential
    test this verdict."""
    dim = t.config.degree
    gens = gl2_generators(t)
    hasse = [bw.lam for bw, is_line in gens if is_line and not any(bw.kappa)]
    witness = _escape_witness(full_space(dim),
                              cone_from_rays([], hasse, dim=dim),
                              generator_of="first slot",
                              not_in="span of the Hasse lines")
    if witness is not None:
        return CheckResult("gl2_product", FAIL, witness)
    built = family_cone([(bw.kappa, is_line) for bw, is_line in gens], dim)
    return _equality_result("gl2_product", built, halfspace_cone(t),
                            "second slots of the bi-weight generators",
                            "half-space cone")


def _determinant(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so every entry stays an integer."""
    a = [list(row) for row in rows]
    n, sign, last = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // last
        last = a[k][k]
    return sign * a[-1][-1] if n else 1


@_memoised
def _delta_kernel(config: SplittingConfig) -> dict | None:
    """None if the per-cycle residue delta vanishes exactly on the Hasse
    lattice H Z^d; else the witness of the first failed step.  On a cycle c
    of length f, with m = p^f - 1: (1) delta is 0, modulus m, on each Hasse
    weight of the cycle, so H Z^f lies in ker delta; (2) delta is 1 mod m on
    e_(c,0), so it is onto Z/m and ker delta has index m; (3) |det| of the
    cycle's Hasse matrix, found without delta, is m, so H Z^f has index m
    too, and the two lattices are equal."""
    moduli = tuple(config.p ** f - 1 for f in config.cycle_lengths)
    for c, f in enumerate(config.cycle_lengths):
        cycle = [EmbeddingId(c, i) for i in range(f)]
        for emb, kind, value in [(e, "h", 0) for e in cycle] + [
                (cycle[0], "e", 1)]:
            weight = weight_basis(config, kind, emb)
            cls = delta_class(config, weight)
            if cls.moduli != moduli or cls.residues != tuple(
                    value * (k == c) % m for k, m in enumerate(moduli)):
                return {"cycle": str(c), "embedding": emb.key(),
                        "weight": _vec(weight), "residues": _vec(cls.residues),
                        "moduli": _vec(cls.moduli)}
        start = config.flat_index(cycle[0])
        rows = [weight_basis(config, "h", e)[start:start + f] for e in cycle]
        if abs(_determinant(rows)) != moduli[c]:
            return {"cycle": str(c), "rows": _vecs(rows),
                    "determinant": str(_determinant(rows)),
                    "modulus": str(moduli[c])}
    return None


def _check_delta_kernel(t: Stratum) -> CheckResult:
    return _verdict("delta_kernel", _delta_kernel(t.config))


def _every_stratum(config: SplittingConfig) -> list[Stratum]:
    """All 2^d strata of the configuration, by bit mask on its embeddings."""
    embeddings = config.embeddings()
    return [Stratum(config, frozenset(
        e for i, e in enumerate(embeddings) if mask >> i & 1))
        for mask in range(1 << config.degree)]


def _check_product_structure(t: Stratum) -> CheckResult:
    """Multi-cycle weight cones factor through the per-cycle cones."""
    config = t.config
    name = "product_structure"
    if len(config.cycle_lengths) < 2:
        return CheckResult(name, INFO, {"reason": "single cycle"})
    gens = []
    for c, f in enumerate(config.cycle_lengths):
        sub = _cycle_stratum(config, f, t.cycle_members(c))
        cycle = [EmbeddingId(c, i) for i in range(f)]
        gens += [(_as_vec(config, zip(cycle, w)), is_line)
                 for w, is_line in generators_Gprime(sub)]
    return _equality_result(name, family_cone(gens, config.degree), cone_D(t),
                            "per-cycle product cone", "weight cone")


_CHECKS = (
    _check_optimal_basis,
    _check_explicit_halfspaces,
    _check_biorthogonality,
    _check_admissible_dichotomy,
    _check_hasse_identity,
    _check_reduction_identities,
    _check_recipe_weights,
    _check_divisor_functionals,
    _check_minimal_nesting,
    _check_diagonal_minimal,
    _check_gl2_product,
    _check_delta_kernel,
    _check_product_structure,
)


def check_stratum(stratum: Stratum) -> list[CheckResult]:
    """Run every named check on one stratum."""
    return [check(stratum) for check in _CHECKS]


def check_min_question(stratum: Stratum) -> CheckResult:
    """Compare the two minimal-cone variants.

    Informational either way; an unequal pair comes with a witness ray.
    The list of forms of the diagonal variant is the start of the list of
    the minimal cone (`minimal_forms`), so the minimal cone lies inside the
    diagonal one, and they are equal iff no generator of the diagonal one
    escapes.  They agree on every stratum of degree up to 5 for p = 2, 3,
    5, but at degree 6 differ on 18: cycles (6), T a single embedding,
    each p.

    The rest of the list of "min", each form once, is, for each admissible
    beta, the facets whose window meets beta's run, negated there and
    restricted to the coordinates outside T: functional_Lf(t, beta, tau)
    for tau on beta's cycle, off the tilde closure, not beta or
    shift^n(beta).  Every other divisibility functional is a facet
    functional, whose window misses the run (tau off beta's cycle or on
    tilde minus T), or the diagonal one (tau = beta), both listed in
    "min0"."""
    witness = _escape_witness(minimal_cone(stratum, "min0"),
                              minimal_cone(stratum, "min"), equal=False)
    return CheckResult("minimal_equality", INFO, witness or {"equal": True})


# ---------------------------------------------------------------------------
# stratum records and reports


def _head(stratum: Stratum) -> dict:
    """The fields that name a stratum, first in its dossier and its checks:
    `p`, `cycles` and `t`."""
    config = stratum.config
    return {"p": str(config.p), "cycles": _vec(config.cycle_lengths),
            "t": stratum.key()}


def stratum_dossier(stratum: Stratum) -> dict:
    """The JSON-ready dossier of one stratum: derived combinatorial data,
    generators, half-spaces, and minimal cones."""
    tables = index_tables(stratum)
    eps = sign_epsilon(stratum)
    s, iw = places_and_iw(stratum)
    embeddings = stratum.config.embeddings()
    return _head(stratum) | {
        "tilde": tilde_closure(stratum).key(),
        "S": {
            "embeddings": [e.key() for e in sorted(s.embeddings)],
            "primes": _vec(sorted(s.primes)),
        },
        "iw": _vec(sorted(iw)),
        "tables": {
            name: {e.key(): str(table[e]) for e in embeddings
                   if e in table}
            for name, table in (("mu", tables.mu), ("nu", tables.nu),
                                ("n", tables.n), ("epsilon", eps))},
        "generators_G": [
            {"weight": _vec(w), "line": is_line}
            for w, is_line in generators_G(stratum)],
        "generators_Gprime": [
            {"weight": _vec(w), "line": is_line}
            for w, is_line in generators_Gprime(stratum)],
        "halfspaces": _vecs(explicit_constraints(stratum).ineqs),
        "minimal": _cone_record(minimal_cone(stratum, "min")),
        "minimal0": _cone_record(minimal_cone(stratum, "min0")),
    }


# the witnesses that name nothing of their stratum
_STRATUM_FREE = (None, {"reason": "single cycle"},
                 {"reason": "no admissible embeddings"},
                 {"reason": "tilde closure differs from T"}, {"equal": True})


def _moves_along_orbit(result: CheckResult) -> bool:
    """Does the result hold, witness and all, on every stratum of its
    Frobenius orbit?  Yes when it is not a fail and its witness names
    nothing of its stratum; `tests/test_symmetry.py` pins that such results
    are equal across every move."""
    return result.status != FAIL and result.witness in _STRATUM_FREE


def _orbit_checks(t: Stratum) -> list[CheckResult]:
    """`check_stratum(t) + [check_min_question(t)]`, decided once per
    Frobenius orbit.

    Rotating a cycle and swapping two cycles of equal length commute with
    the shift, so every status is constant on an orbit (`orbit_key`).  The
    first stratum of an orbit runs every check, and its configuration keeps
    each result that moves along the orbit (`_moves_along_orbit`).  A later
    stratum takes those and runs every other check itself, so each fail,
    each witness that names a vector or an embedding, and the dichotomy's
    `strict_via` pass are the direct check's."""
    memo = t.config._memo
    key = ("verify._orbit_checks", orbit_key(t))
    kept = memo.get(key)
    if kept is None:
        results = check_stratum(t) + [check_min_question(t)]
        memo[key] = [r if _moves_along_orbit(r) else None for r in results]
        return results
    return [r or check(t)
            for r, check in zip(kept, _CHECKS + (check_min_question,))]


def stratum_checks(stratum: Stratum) -> dict:
    """The stratum's `_head` and all check results, each decided once per
    Frobenius orbit (`_orbit_checks`)."""
    return _head(stratum) | {"checks": [
        {"name": r.name, "status": r.status}
        | ({"witness": r.witness} if r.witness is not None else {})
        for r in _orbit_checks(stratum)]}


def stratum_record(stratum: Stratum) -> dict:
    """A stratum dossier extended with all check results."""
    return stratum_dossier(stratum) | stratum_checks(stratum)


class _Tally:
    """The summary and open question of the record task results that pass
    through `count`, counted as they go by."""

    def __init__(self):
        self.counts = {PASS: 0, FAIL: 0, INFO: 0}
        self.unequal = []
        self.strata = 0

    def count(self, results: Iterable[tuple]) -> Iterator[tuple]:
        for result in results:
            head, checks, differ, *_ = result
            for _, status in checks:
                self.counts[status] += 1
            if differ:
                self.unequal.append(head)
            self.strata += 1
            yield result

    def tail(self) -> dict:
        return {
            "open_question": {
                "equal": self.strata - len(self.unequal),
                "unequal": len(self.unequal),
                "instances": self.unequal,
            },
            "summary": {
                "strata": self.strata,
                "checks": sum(self.counts.values()),
                "pass": self.counts[PASS],
                "fail": self.counts[FAIL],
                "info": self.counts[INFO],
            },
        }


def _verdicts(record: dict) -> tuple:
    """What every report layout reads of a stratum's checks: its head
    (`p`, `cycles`, `t`), its checks' (name, status) pairs, and whether its
    two minimal-cone variants differ."""
    checks = record["checks"]
    # the last check is the result of `check_min_question`
    differ = not checks[-1]["witness"]["equal"]
    return ({k: record[k] for k in ("p", "cycles", "t")},
            tuple((c["name"], c["status"]) for c in checks), differ)


def _checks_task(stratum: Stratum) -> tuple:
    """One stratum as the text layouts read it: the `_verdicts` of its
    `stratum_checks`, with no dossier built."""
    return _verdicts(stratum_checks(stratum))


def _record_task(stratum: Stratum) -> tuple:
    """One stratum as the JSON layout reads it: the `_verdicts` of its
    record, and the record's JSON fragment, indented as in the `strata`
    list."""
    record = stratum_record(stratum)
    return (*_verdicts(record), "    " + _dumps(record, "\n    "))


def _report(config: dict, tasks: Iterable[Stratum], jobs: int) -> Report:
    """Run the record tasks and keep the report text they make under
    `config`."""
    _check_jobs(jobs)
    pieces = []
    tail = _write_report(pieces.append, config, tasks, jobs, _json_layout,
                         _record_task)
    return Report("".join(pieces), **tail)


def _json_layout(config: dict, results: Iterator[tuple],
                 tally: _Tally) -> Iterator[str]:
    """The report text as `_dumps` lays it out, in pieces: the header with
    the first record's fragment, then each further fragment, then the
    tally's open question and summary."""
    head = _dumps({"schema": SCHEMA_VERSION, "config": config})
    opening = f'{head[:-2]},\n  "strata": ['
    separator, closing = opening, f"{opening}]"
    for *_, fragment in results:
        yield f"{separator}\n{fragment}"
        separator, closing = ",", "\n  ]"
    yield f"{closing},{_dumps(tally.tail())[1:]}"


def _write_report(write, config: dict, tasks: Iterable[Stratum], jobs: int,
                  layout, task) -> dict:
    """Run `task` (`_record_task` or `_checks_task`, as the layout reads)
    on the record tasks and pass the text that `layout(config, results,
    tally)` makes of its results to `write` as it comes, in task order;
    `tally` has counted the results taken so far.  Return the tally's open
    question and summary.  Nothing is written before the first record
    exists, and if `write` raises, the work not yet started is dropped."""
    tally = _Tally()
    with contextlib.closing(_run_tasks(task, tasks, jobs)) as results:
        for piece in layout(config, tally.count(results), tally):
            write(piece)
    return tally.tail()


def _check_sweep(config: SplittingConfig,
                 strata: Sequence[Stratum] | None) -> tuple:
    """The header and the record tasks of the report over the given strata
    (default: all strata of the config), sorted by canonical key."""
    header = {"p": str(config.p), "cycles": _vec(config.cycle_lengths)}
    return header, _config_tasks(config, strata)


def check_report(config: SplittingConfig,
                 strata: Sequence[Stratum] | None = None,
                 jobs: int = 1) -> Report:
    """Report over the given strata (default: all strata of the config),
    sorted by canonical key."""
    return _report(*_check_sweep(config, strata), jobs)


def partitions(d: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing integer partitions of d, descending lexicographically."""
    def rec(left: int, cap: int, prefix: tuple[int, ...]):
        if left == 0:
            yield prefix
            return
        for part in range(min(left, cap), 0, -1):
            yield from rec(left - part, part, prefix + (part,))
    yield from rec(d, d, ())


def _config_tasks(config: SplittingConfig,
                  strata: Sequence[Stratum] | None = None) -> list[Stratum]:
    """One record task per stratum (default: all 2^d strata of the config),
    sorted by canonical key and rebuilt on `config`, which keeps the memo;
    a stratum of another configuration, or one given twice, is refused."""
    if strata is None:
        strata = _every_stratum(config)
    members = {}
    for s in strata:
        key = s.key()
        if s.config != config:
            raise ValueError(f"stratum '{key}' is over {s.config}, "
                             f"not over the report's {config}")
        if key in members:
            raise ValueError(f"stratum '{key}' is given twice")
        members[key] = s.members
    return [Stratum(config, members[key]) for key in sorted(members)]


def _check_jobs(jobs: int, subject: str = "jobs") -> None:
    """Refuse a worker count that is not exactly an `int` from 1 to
    `JOBS_MAX`, before any task starts; the command line refuses its
    `--jobs` here too."""
    if type(jobs) is not int or not 1 <= jobs <= JOBS_MAX:
        raise ValueError(
            f"{subject} must be between 1 and {JOBS_MAX}, got {jobs!r}")


# the configuration of the task that this worker of the pool ran last
# (`_worker_step`); a run with one job never sets it
_worker_config = None


def _worker_step(run, stratum: Stratum) -> tuple:
    """`run` on the record task, rebuilt on the configuration this worker
    ran last when the two are equal: the tasks come sorted by configuration
    and each chunk of them crosses to a worker pickled, so the worker keeps
    its configuration's memo from one chunk to the next."""
    global _worker_config
    if stratum.config != _worker_config:
        _worker_config = stratum.config
    return run(Stratum(_worker_config, stratum.members))


def _run_tasks(run, tasks: Iterable[Stratum], jobs: int) -> Iterator[tuple]:
    """The results of `run`, `_record_task` or `_checks_task`, on the record
    tasks in task order as computed, a pool reading a slice of 1024 tasks at
    a time; closing the iterator early drops the work not yet started."""
    tasks = iter(tasks)
    slices = iter(lambda: list(itertools.islice(tasks, 1024)), [])
    batch = next(slices, []) if jobs > 1 else []
    # the pool starts all workers up front: never more than one per task
    jobs = min(jobs, len(batch))
    if jobs <= 1:
        yield from map(run, itertools.chain(batch, tasks))
        return
    # imported here: a run with one job never loads the process machinery
    from concurrent.futures.process import (
        BrokenProcessPool,
        ProcessPoolExecutor,
    )
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            step = functools.partial(_worker_step, run)
            while batch:
                # a constant cap: a chunk's results cross back as one list
                chunk = max(1, min(32, len(batch) // (jobs * 8)))
                # closing pool.map's iterator cancels the calls not yet started
                yield from pool.map(step, batch, chunksize=chunk)
                batch.clear()  # one slice is held at a time
                batch = next(slices, [])
    except (OSError, BrokenProcessPool) as exc:
        raise RuntimeError(
            f"parallel execution with {jobs} workers failed: {exc}; "
            "rerun with --jobs 1") from exc


def _explore_sweep(p_list: Sequence[int], d_max: int) -> tuple:
    """The header and the record tasks of the sweep over all cycle
    partitions of every degree up to d_max for every prime in p_list."""
    # exactly int, as for p: a bool would reach the report as text
    if type(d_max) is not int:
        raise ValueError(f"the degree bound must be an integer, got {d_max!r}")
    if d_max < 1:
        raise ValueError("the degree bound must be at least 1")
    primes = sorted(set(p_list))
    for p in primes:
        SplittingConfig(p, (1,))  # refuse a bad prime before any work
    # lazy: read a slice ahead at most; no configuration outlives its strata
    tasks = (task for p in primes for d in range(1, d_max + 1)
             for lengths in sorted(partitions(d))
             for task in _config_tasks(SplittingConfig(p, lengths)))
    return {"p_list": _vec(primes), "d_max": str(d_max)}, tasks


def explore(p_list: Sequence[int], d_max: int, jobs: int = 1) -> Report:
    """Sweep all cycle partitions of every degree up to d_max for every
    prime in p_list, checking all strata of each configuration."""
    return _report(*_explore_sweep(p_list, d_max), jobs)
