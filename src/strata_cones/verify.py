"""Finite-instance checkers and the exhaustive sweep explorer.

Every finitely checkable claim about weight cones of strata is packaged as a
named check producing a CheckResult.  A failing result always carries a
witness that re-verifies with the cone kernel alone: either a vector
together with a violated constraint of the cone it was claimed to lie in,
or a full membership certificate for a vector claimed to lie outside.

The explorer sweeps all cycle partitions of all degrees up to a bound for a
list of primes, runs every check on every stratum, and aggregates a
deterministic JSON-ready report: strata are processed in sorted order and
results merged positionally, so the output is byte-identical no matter how
many worker processes are used.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .cone_kernel import (
    Cone,
    MembershipCertificate,
    _dot,
    cone_from_constraints,
    cone_from_rays,
    cone_member,
    first_escape,
    full_space,
)
from .splitting import (
    EmbeddingId,
    SplittingConfig,
    Stratum,
    admissible_set,
    frobenius_shift,
    index_tables,
    places_and_iw,
    sign_epsilon,
    stratum_from_text,
    tilde_closure,
)
from .weights import (
    cone_D,
    delta_class,
    explicit_constraints,
    f_recipe,
    f_weight,
    functional_Lf,
    generators_G,
    generators_Gprime,
    gl2_generators,
    halfspace_cone,
    lift_jT,
    minimal_cone,
    pair_targets,
    reduce_iT,
    reduced_cone,
    reduction_matrix,
    section_recipe,
    weight_basis,
    weight_pair,
)

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INFO = "info"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check on one stratum."""

    name: str
    status: str
    witness: dict | None = None


@dataclass(frozen=True)
class Report:
    """Aggregated sweep results, ready for JSON serialization."""

    schema: int
    config: dict
    strata: tuple[dict, ...]
    open_question: dict
    summary: dict

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config": self.config,
            "strata": list(self.strata),
            "open_question": self.open_question,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# serialization helpers: mathematical integers travel as decimal strings so
# arbitrary-precision values survive any JSON consumer


def _num(x) -> str:
    return str(x)


def _vec(v: Sequence) -> list[str]:
    return [_num(x) for x in v]


def _vecs(vs: Iterable[Sequence]) -> list[list[str]]:
    return [_vec(v) for v in vs]


def _emb_key(emb: EmbeddingId) -> str:
    return f"{emb.cycle}.{emb.pos}"


def _certificate(cert: MembershipCertificate) -> dict:
    """The coefficients of an inside membership certificate, keyed by
    generator index."""
    return {key: {_num(i): _num(x) for i, x in sorted(coeffs.items())}
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
    """Pass iff the completed cones agree; on failure, witness a generator
    of one side with a violated constraint of the other."""
    return _verdict(name, _escape_witness(
        left, right, generator_of=left_label, not_in=right_label)
        or _escape_witness(
            right, left, generator_of=right_label, not_in=left_label))


# ---------------------------------------------------------------------------
# individual checks


def _check_optimal_basis(t: Stratum) -> CheckResult:
    return _equality_result(
        "optimal_basis", cone_D(t, "G"), cone_D(t),
        "pair-generated cone", "one-ray-per-embedding cone")


def _check_explicit_halfspaces(t: Stratum) -> CheckResult:
    return _equality_result(
        "explicit_halfspaces", cone_D(t), halfspace_cone(t),
        "generated cone", "half-space cone")


def _check_biorthogonality(t: Stratum) -> CheckResult:
    outside = sorted(t.complement())
    gens = generators_Gprime(t)
    rays = [w for w, is_line in gens if not is_line]
    lines = [w for w, is_line in gens if is_line]
    for beta, form in zip(outside, explicit_constraints(t).ineqs):
        for tau, ray in zip(outside, rays):
            value = _dot(form, ray)
            good = value > 0 if tau == beta else value == 0
            if not good:
                return CheckResult("biorthogonality", FAIL, {
                    "functional_at": _emb_key(beta),
                    "generator_at": _emb_key(tau),
                    "functional": _vec(form),
                    "generator": _vec(ray),
                    "value": _num(value)})
        for line in lines:
            if _dot(form, line) != 0:
                return CheckResult("biorthogonality", FAIL, {
                    "functional_at": _emb_key(beta),
                    "functional": _vec(form),
                    "line": _vec(line),
                    "value": _num(_dot(form, line))})
    return CheckResult("biorthogonality", PASS)


def _hasse_type_cone(stratum: Stratum) -> Cone:
    config = stratum.config
    rays = [weight_basis(config, "h", beta)
            for beta in sorted(stratum.complement())]
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
    for beta in sorted(t.complement()):
        fw = f_weight(t, beta)
        cert = cone_member(hasse, fw)
        if not cert.inside:
            return CheckResult(name, PASS, {
                "weight": _vec(fw),
                "violated_form": _vec(cert.violated_form),
                "strict_via": _emb_key(beta)})
        memberships.append({
            "generator_at": _emb_key(beta),
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
    config = t.config
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
                    return CheckResult("hasse_identity", FAIL, {
                        "cycle": _num(c), "n": _num(n), "m": _num(m),
                        "direct": _vec(long), "composed": _vec(split)})
    return CheckResult("hasse_identity", PASS)


def _check_reduction_identities(t: Stratum) -> CheckResult:
    name = "reduction_identities"
    config = t.config
    outside = sorted(t.complement())
    for i in range(len(outside)):
        probe = tuple(1 if j == i else 0 for j in range(len(outside)))
        back = reduce_iT(t, lift_jT(t, probe))
        if back != probe:
            return CheckResult(name, FAIL, {
                "probe": _vec(probe), "round_trip": _vec(back)})
    rows = reduction_matrix(t)
    kernel = cone_from_constraints([], rows, dim=config.degree)
    spanned = cone_from_rays(
        [], [weight_basis(config, "b", beta) for beta in sorted(t.members)],
        dim=config.degree)
    result = _equality_result(name, kernel, spanned,
                              "reduction kernel", "span of b lines on T")
    if result.status != PASS:
        return result
    reduced = reduced_cone(t)
    lifted_rays = [lift_jT(t, ray) for ray in reduced.gen.rays]
    lifted_lines = [lift_jT(t, line) for line in reduced.gen.lines]
    lifted_lines += [weight_basis(config, "b", beta)
                     for beta in sorted(t.members)]
    rebuilt = cone_from_rays(lifted_rays, lifted_lines, dim=config.degree)
    return _equality_result(name, cone_D(t), rebuilt,
                            "weight cone", "lifted reduction plus kernel")


def _check_recipe_weights(t: Stratum) -> CheckResult:
    """Every pair and distinguished generator has its recipe; the recipes
    compare their own weights and raise AssertionError on a mismatch."""
    name = "recipe_weights"
    for c, f in enumerate(t.config.cycle_lengths):
        in_t = t.cycle_members(c)
        targets = pair_targets(t, c)
        for i in range(f):
            if i in in_t:
                continue
            for j in targets:
                emb, target = EmbeddingId(c, i), EmbeddingId(c, j)
                try:
                    section_recipe(t, emb, target)
                except AssertionError as exc:
                    return CheckResult(name, FAIL, {
                        "pair": [_emb_key(emb), _emb_key(target)],
                        "error": str(exc)})
    for beta in sorted(t.complement()):
        try:
            _, tag = f_recipe(t, beta)
        except AssertionError as exc:
            return CheckResult(name, FAIL, {
                "generator_at": _emb_key(beta), "error": str(exc)})
        if tag.is_zero() != (beta not in tilde_closure(t)):
            return CheckResult(name, FAIL, {
                "generator_at": _emb_key(beta),
                "tag_residues": _vec(tag.residues)})
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
        form = functional_Lf(t, beta, beta)
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
                "beta": _emb_key(beta),
                "functional": _vec(form),
                "generator": _vec(fw),
                "value": _num(value)})
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
    outside = sorted(t.complement())
    index = {beta: i for i, beta in enumerate(outside)}
    forms = []
    for beta in outside:
        n = index_tables(t).n[beta]
        form = [0] * len(outside)
        form[index[beta]] -= 1
        shifted = frobenius_shift(t.config, beta, n)
        form[index[shifted]] += t.config.p ** n
        forms.append(tuple(form))
    described = cone_from_constraints(forms, dim=len(outside))
    return _equality_result(name, minimal_cone(t, "min"), described,
                            "minimal cone", "diagonal description")


def _check_gl2_product(t: Stratum) -> CheckResult:
    """The bi-weight cone is Q^d times the half-space cone, decided in
    dimension d: the Hasse lines (h, 0) span the first slot (det H is
    +-(p^f - 1) on each cycle), and modulo them every generator is
    (0, kappa).  A witness (v, form) lifts to (v, 0), (form, 0) for the
    first slot and to (0, v), (0, form) for the second.  A rational check
    cannot see the first slot's integral content; `delta_kernel` tests it."""
    dim = t.config.degree
    gens = gl2_generators(t)
    hasse = [bw.lam for bw, is_line in gens if is_line and not any(bw.kappa)]
    witness = _escape_witness(full_space(dim),
                              cone_from_rays([], hasse, dim=dim),
                              generator_of="first slot",
                              not_in="span of the Hasse lines")
    if witness is not None:
        return CheckResult("gl2_product", FAIL, witness)
    built = cone_from_rays([bw.kappa for bw, is_line in gens if not is_line],
                           [bw.kappa for bw, is_line in gens if is_line],
                           dim=dim)
    return _equality_result("gl2_product", built, halfspace_cone(t),
                            "second slots of the bi-weight generators",
                            "half-space cone")


def _hasse_coordinates(config: SplittingConfig,
                      weight: Sequence[int]) -> list[tuple[int, int]]:
    """Each coordinate of `weight` in the Hasse-weight basis as a pair
    (s_i, p^f - 1) of numerator and denominator, in closed form.

    On a cycle of length f, H x = w reads p x_{i+1} - x_i = w_i, so
    x_i = s_i / (p^f - 1) with s_i = sum_{k<f} p^k w_{i+k} (indices mod f).
    Each solution is confirmed in integers, p s_{i+1} - s_i = (p^f - 1) w_i,
    and lattice membership is the divisibility of every s_i."""
    p = config.p
    out = []
    offset = 0
    for f in config.cycle_lengths:
        w = weight[offset:offset + f]
        modulus = p ** f - 1
        s = [sum(p ** k * w[(i + k) % f] for k in range(f))
             for i in range(f)]
        if any(p * s[(i + 1) % f] - s[i] != modulus * w[i]
               for i in range(f)):
            raise AssertionError(f"Hasse coordinates of {tuple(weight)} do "
                                 "not solve H x = w")
        out += [(num, modulus) for num in s]
        offset += f
    return out


def _check_delta_kernel(t: Stratum) -> CheckResult:
    """The per-cycle residue invariant vanishes exactly on the lattice
    spanned by the Hasse weights; checked on all basis Hasse weights and a
    deterministic sample of random integer weights."""
    config = t.config
    name = "delta_kernel"
    samples = [weight_basis(config, "h", emb) for emb in config.embeddings()]
    rng = random.Random(
        f"delta:{config.p}:{config.cycle_lengths}:{t.key()}")
    samples += [tuple(rng.randint(-40, 40) for _ in range(config.degree))
                for _ in range(25)]
    for weight in samples:
        coords = _hasse_coordinates(config, weight)
        in_lattice = all(num % den == 0 for num, den in coords)
        if delta_class(config, weight).is_zero() != in_lattice:
            return CheckResult(name, FAIL, {
                "weight": _vec(weight),
                "residues": _vec(delta_class(config, weight).residues),
                "hasse_coordinates": _vec([Fraction(num, den)
                                           for num, den in coords])})
    return CheckResult(name, PASS)


def _check_product_structure(t: Stratum) -> CheckResult:
    """Multi-cycle weight cones factor through the per-cycle cones."""
    config = t.config
    name = "product_structure"
    if len(config.cycle_lengths) < 2:
        return CheckResult(name, INFO, {"reason": "single cycle"})
    rays = []
    lines = []
    offset = 0
    for c, f in enumerate(config.cycle_lengths):
        sub_config = SplittingConfig(config.p, (f,))
        sub = Stratum(sub_config, frozenset(
            EmbeddingId(0, i) for i in t.cycle_members(c)))
        def pad(v):
            return ((0,) * offset + tuple(v)
                    + (0,) * (config.degree - offset - f))
        for w, is_line in generators_Gprime(sub):
            (lines if is_line else rays).append(pad(w))
        offset += f
    built = cone_from_rays(rays, lines, dim=config.degree)
    return _equality_result(name, built, cone_D(t),
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
    Every admissible beta lies outside T and differs from shift^n(beta), so
    each form of the diagonal variant is also a form of the minimal cone:
    the minimal cone lies inside the diagonal one, and they are equal iff
    no generator of the diagonal one escapes.  They agree on every stratum
    of degree up to 5 for p = 2, 3, 5, but at degree 6 differ on 18:
    cycles (6), T a single embedding, each p."""
    witness = _escape_witness(minimal_cone(stratum, "min0"),
                              minimal_cone(stratum, "min"), equal=False)
    return CheckResult("minimal_equality", INFO, witness or {"equal": True})


# ---------------------------------------------------------------------------
# stratum records and reports


def stratum_dossier(stratum: Stratum) -> dict:
    """The JSON-ready dossier of one stratum: derived combinatorial data,
    generators, half-spaces, and minimal cones."""
    config = stratum.config
    tables = index_tables(stratum)
    eps = sign_epsilon(stratum)
    s, iw = places_and_iw(stratum)
    embeddings = config.embeddings()
    record = {
        "p": _num(config.p),
        "cycles": _vec(config.cycle_lengths),
        "t": stratum.key(),
        "tilde": tilde_closure(stratum).key(),
        "S": {
            "embeddings": [_emb_key(e) for e in sorted(s.embeddings)],
            "primes": _vec(sorted(s.primes)),
        },
        "iw": _vec(sorted(iw)),
        "tables": {
            "mu": {_emb_key(e): _num(tables.mu[e]) for e in embeddings},
            "nu": {_emb_key(e): _num(tables.nu[e]) for e in embeddings
                   if e in tables.nu},
            "n": {_emb_key(e): _num(tables.n[e]) for e in embeddings},
            "epsilon": {_emb_key(e): _num(eps[e]) for e in embeddings},
        },
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
    return record


def stratum_record(stratum: Stratum) -> dict:
    """A stratum dossier extended with all check results."""
    record = stratum_dossier(stratum)
    results = check_stratum(stratum) + [check_min_question(stratum)]
    record["checks"] = [
        {"name": r.name, "status": r.status}
        | ({"witness": r.witness} if r.witness is not None else {})
        for r in results]
    return record


def _report(config: dict, tasks: Sequence[tuple], jobs: int) -> Report:
    """Run the record tasks and aggregate their results under `config`."""
    records = _run_tasks(tasks, jobs)
    counts = {PASS: 0, FAIL: 0, INFO: 0}
    unequal = []
    for record in records:
        for check in record["checks"]:
            counts[check["status"]] += 1
            if check["name"] == "minimal_equality" and \
                    not check["witness"]["equal"]:
                unequal.append({"p": record["p"], "cycles": record["cycles"],
                                "t": record["t"]})
    summary = {
        "strata": len(records),
        "checks": sum(counts.values()),
        "pass": counts[PASS],
        "fail": counts[FAIL],
        "info": counts[INFO],
    }
    open_question = {
        "equal": summary["strata"] - len(unequal),
        "unequal": len(unequal),
        "instances": unequal,
    }
    return Report(schema=SCHEMA_VERSION, config=config,
                  strata=tuple(records), open_question=open_question,
                  summary=summary)


def check_report(config: SplittingConfig,
                 strata: Sequence[Stratum] | None = None,
                 jobs: int = 1) -> Report:
    """Report over the given strata (default: all strata of the config),
    sorted by canonical key."""
    header = {"p": _num(config.p), "cycles": _vec(config.cycle_lengths)}
    return _report(header, _config_tasks(config, strata), jobs)


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
                  strata: Sequence[Stratum] | None = None) -> list[tuple]:
    """One record task per stratum (default: all 2^d strata of the
    config), sorted by canonical key; a stratum of another configuration
    is refused."""
    if strata is None:
        embeddings = config.embeddings()
        strata = [Stratum(config, frozenset(
            e for i, e in enumerate(embeddings) if mask >> i & 1))
            for mask in range(1 << config.degree)]
    for s in strata:
        if s.config != config:
            raise ValueError(f"stratum '{s.key()}' is over {s.config}, "
                             f"not over the report's {config}")
    return [(config.p, config.cycle_lengths, key)
            for key in sorted(s.key() for s in strata)]


def _record_task(task: tuple[int, tuple[int, ...], str]) -> dict:
    p, lengths, key = task
    return stratum_record(stratum_from_text(SplittingConfig(p, lengths), key))


def _run_tasks(tasks: Sequence[tuple], jobs: int) -> list[dict]:
    # the pool starts every worker up front, so never more than one per task
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [_record_task(task) for task in tasks]
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(tasks) // (jobs * 8))
            return list(pool.map(_record_task, tasks, chunksize=chunk))
    except (OSError, BrokenProcessPool) as exc:
        raise RuntimeError(
            f"parallel execution with {jobs} workers failed: {exc}; "
            "rerun with --jobs 1") from exc


def explore(p_list: Sequence[int], d_max: int, jobs: int = 1) -> Report:
    """Sweep all cycle partitions of every degree up to d_max for every
    prime in p_list, checking all strata of each configuration."""
    if d_max < 1:
        raise ValueError("the degree bound must be at least 1")
    primes = sorted(set(p_list))
    tasks = []
    for p in primes:
        for d in range(1, d_max + 1):
            for lengths in sorted(partitions(d)):
                tasks.extend(_config_tasks(SplittingConfig(p, lengths)))
    return _report({"p_list": _vec(primes), "d_max": _num(d_max)}, tasks,
                   jobs)
