"""Weight vectors, cones, functionals, reductions, and section recipes.

Coordinates are indexed by the embeddings of a splitting configuration in
(cycle, pos) lexicographic order.  Everything is exact integer or rational
arithmetic; cones are handled by the cone_kernel module.

The central objects, for a stratum T:

* the distinguished weights e, h = -e + p*shift, b = e + p*shift and their
  iterated pair versions spanning several steps of a cycle;
* the stratum weight cone, generated either by the Hasse-pair family (basis
  "G") or by the optimal one-ray-per-embedding family (basis "Gprime"), and
  cut out by the explicit sign-window functionals;
* the reduction to coordinates on the complement of T and the minimal cones
  living there;
* multiplicative recipes expressing the pair weights and the distinguished
  cone generators as monomials in foundational sections on a deeper stratum;
* the bi-weight (GL2) structures: the per-cycle discrete invariant and the
  product-cone generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cone_kernel import (
    Cone,
    ConstraintRep,
    Vec,
    _dot,
    cone_complete,  # unused here; bench/test_bench.py traces it by this name
    cone_from_constraints,
    cone_from_rays,
    cone_image,
)
from .splitting import (
    EmbeddingId,
    SplittingConfig,
    Stratum,
    _memoised,
    admissible_set,
    frobenius_shift,
    index_tables,
    sign_epsilon,
    tilde_closure,
)

Rational = int | Fraction


def _as_vec(config: SplittingConfig, pairs) -> Vec:
    """Accumulate (embedding, coefficient) pairs into a coordinate vector.

    Pairs may repeat an embedding (a one-step cycle makes an embedding its
    own shift), so contributions add up instead of overwriting.
    """
    out = [0] * config.degree
    for emb, c in pairs:
        out[config.flat_index(emb)] += c
    return tuple(out)


def weight_basis(config: SplittingConfig, kind: str, emb: EmbeddingId) -> Vec:
    """The basis weight e, the Hasse weight h = -e + p*back-shift, or the
    nowhere-vanishing weight b = e + p*back-shift at one embedding: h and b
    are the one-step pair weights."""
    config._check(emb)
    if kind == "e":
        return _as_vec(config, [(emb, 1)])
    if kind not in ("h", "b"):
        raise ValueError(
            f"unknown weight kind {kind!r}, expected 'e', 'h' or 'b'")
    return weight_pair(config, kind, emb, frobenius_shift(config, emb, -1))


def weight_pair(config: SplittingConfig, kind: str, emb: EmbeddingId,
                other: EmbeddingId) -> Vec:
    """The iterated pair weight -e_emb + p^n e_other (kind 'h') or
    e_emb + p^n e_other (kind 'b'), where n in (0, f] shifts other to emb.

    For other == emb the full cycle length is used, so the diagonal values
    are (p^f - 1) e_emb and (p^f + 1) e_emb.
    """
    config._check(emb)
    config._check(other)
    if emb.cycle != other.cycle:
        raise ValueError("pair weights need both embeddings on the same cycle")
    f = config.cycle_lengths[emb.cycle]
    n = (emb.pos - other.pos) % f or f
    head = {"h": -1, "b": 1}.get(kind)
    if head is None:
        raise ValueError(f"unknown pair kind {kind!r}, expected 'h' or 'b'")
    return _as_vec(config, [(emb, head), (other, config.p ** n)])


def f_weight(stratum: Stratum, emb: EmbeddingId) -> Vec:
    """The distinguished cone generator -e_sub + eps(emb) p^n e_emb attached
    to an embedding outside T, with n = n(emb) and sub = shift^n(emb).

    Outside the tilde closure (eps = +1) this is the pair weight h from sub
    down to emb; on the tilde closure minus T (eps = -1) it is minus the
    pair weight b, and -(1 + p^f) e where the closure covers the cycle
    (n = f, sub = emb).
    """
    if emb in stratum:
        raise ValueError(f"{emb} lies in the stratum, no distinguished "
                         "generator is attached to it")
    config = stratum.config
    n = index_tables(stratum).n[emb]
    return _as_vec(config, [(frobenius_shift(config, emb, n), -1),
                            (emb, sign_epsilon(stratum)[emb] * config.p ** n)])


def pair_targets(stratum: Stratum, cycle: int) -> list[int]:
    """Sorted positions on one cycle that the Hasse-pair family reaches:
    those off the tilde closure of the stratum, and those one step ahead
    of (tilde minus T)."""
    f = stratum.config.cycle_lengths[cycle]
    in_t = stratum.cycle_members(cycle)
    in_tilde = tilde_closure(stratum).cycle_members(cycle)
    return sorted({i for i in range(f) if i not in in_tilde}
                  | {(i + 1) % f for i in in_tilde - in_t})


def generators_G(stratum: Stratum) -> list[tuple[Vec, bool]]:
    """The Hasse-pair generating family: one ray h_beta^target for every
    beta outside T and every target outside the tilde closure or one step
    ahead of (tilde minus T), plus a line b_beta for every beta in T.

    Entries are (weight, is_line).
    """
    config = stratum.config
    out: list[tuple[Vec, bool]] = []
    for c, f in enumerate(config.cycle_lengths):
        in_t = stratum.cycle_members(c)
        targets = pair_targets(stratum, c)
        for i in range(f):
            if i in in_t:
                continue
            for j in targets:
                out.append((weight_pair(config, "h", EmbeddingId(c, i),
                                        EmbeddingId(c, j)), False))
        for i in sorted(in_t):
            out.append((weight_basis(config, "b", EmbeddingId(c, i)), True))
    return out


def generators_Gprime(stratum: Stratum) -> list[tuple[Vec, bool]]:
    """The optimal generating family: exactly one ray per embedding outside
    T plus the b lines on T.

    On a cycle whose tilde closure is everything (but which is not entirely
    inside T) the rays degenerate to -e_beta, a primitive positive multiple
    of the distinguished generator; elsewhere the ray at beta is f_weight.
    """
    config = stratum.config
    tilde = tilde_closure(stratum)
    out: list[tuple[Vec, bool]] = []
    for c, f in enumerate(config.cycle_lengths):
        in_t = stratum.cycle_members(c)
        in_tilde = tilde.cycle_members(c)
        degenerate = len(in_tilde) == f and len(in_t) < f
        for i in range(f):
            if i in in_t:
                continue
            beta = EmbeddingId(c, i)
            if degenerate:
                out.append((_as_vec(config, [(beta, -1)]), False))
            else:
                out.append((f_weight(stratum, beta), False))
        for i in sorted(in_t):
            out.append((weight_basis(config, "b", EmbeddingId(c, i)), True))
    return out


@_memoised
def cone_D(stratum: Stratum, basis: str = "Gprime") -> Cone:
    """The weight cone of the stratum, from either generating family,
    completed to both representations."""
    if basis == "G":
        gens = generators_G(stratum)
    elif basis == "Gprime":
        gens = generators_Gprime(stratum)
    else:
        raise ValueError(f"unknown basis {basis!r}, expected 'G' or 'Gprime'")
    rays = [w for w, is_line in gens if not is_line]
    lines = [w for w, is_line in gens if is_line]
    return cone_from_rays(rays, lines, dim=stratum.config.degree)


def functional_window(config: SplittingConfig,
                      eps: Mapping[EmbeddingId, int], emb: EmbeddingId,
                      other: EmbeddingId | None = None) -> Vec:
    """The sign-window functional sum of eps(shift^i emb) p^i k_{shift^i emb}
    walking forward from emb to other (default: all the way around, ending
    one step behind emb)."""
    config._check(emb)
    if other is None:
        other = frobenius_shift(config, emb, -1)
    else:
        config._check(other)
    if emb.cycle != other.cycle:
        raise ValueError("window endpoints must lie on the same cycle")
    n = (other.pos - emb.pos) % config.cycle_lengths[emb.cycle]
    coeffs: dict[EmbeddingId, int] = {}
    for i in range(n + 1):
        tau = frobenius_shift(config, emb, i)
        coeffs[tau] = eps[tau] * config.p ** i
    return _as_vec(config, coeffs.items())


def _facet(stratum: Stratum, eps: Mapping[EmbeddingId, int],
           emb: EmbeddingId) -> Vec:
    """The facet functional at emb outside T, read with the signs eps."""
    config = stratum.config
    mu = index_tables(stratum).mu[emb]
    if emb in tilde_closure(stratum):
        return functional_window(config, eps, emb,
                                 frobenius_shift(config, emb, mu - 1))
    return functional_window(config, eps, frobenius_shift(config, emb, mu))


def functional_LT(stratum: Stratum, emb: EmbeddingId) -> Vec:
    """The facet functional of the weight cone at an embedding outside T:
    a full window from shift^mu(emb) when emb is outside the tilde closure,
    else the partial window from emb of length mu."""
    if emb in stratum:
        raise ValueError(f"no facet functional at {emb}: it lies in T")
    return _facet(stratum, sign_epsilon(stratum), emb)


@_memoised
def explicit_constraints(stratum: Stratum) -> ConstraintRep:
    """The half-space description of the weight cone: one facet functional
    per embedding outside T (cycles inside T contribute nothing)."""
    ineqs = tuple(functional_LT(stratum, emb)
                  for emb in sorted(stratum.complement()))
    return ConstraintRep(ineqs=ineqs, eqns=())


@_memoised
def halfspace_cone(stratum: Stratum) -> Cone:
    """The cone cut out by the explicit half-spaces, completed."""
    return cone_from_constraints(explicit_constraints(stratum).ineqs,
                                 dim=stratum.config.degree)


@_memoised
def reduction_matrix(stratum: Stratum) -> tuple[Vec, ...]:
    """Rows of the reduction map: the row at beta (outside T, sorted) takes
    the alternating sum of (-p)^i times the coordinate at shift^i(beta) over
    the forward run 0 <= i < mu."""
    config = stratum.config
    tables = index_tables(stratum)
    rows = []
    for beta in sorted(stratum.complement()):
        coeffs = {frobenius_shift(config, beta, i): (-config.p) ** i
                  for i in range(tables.mu[beta])}
        rows.append(_as_vec(config, coeffs.items()))
    return tuple(rows)


@_memoised
def reduced_cone(stratum: Stratum) -> Cone:
    """The weight cone's image under the reduction matrix."""
    return cone_image(reduction_matrix(stratum), cone_D(stratum))


def reduce_iT(stratum: Stratum, weight: Sequence[Rational]) -> tuple:
    """Apply the reduction map, landing in coordinates on the complement
    of T."""
    config = stratum.config
    if len(weight) != config.degree:
        raise ValueError(
            f"weight has length {len(weight)}, expected {config.degree}")
    return tuple(_dot(row, weight) for row in reduction_matrix(stratum))


def lift_jT(stratum: Stratum, reduced: Sequence[Rational]) -> tuple:
    """The zero-filled section of the reduction: place the reduced
    coordinates on the complement of T and zeros on T."""
    config = stratum.config
    outside = sorted(stratum.complement())
    if len(reduced) != len(outside):
        raise ValueError(
            f"reduced weight has length {len(reduced)}, expected "
            f"{len(outside)}")
    out = [0] * config.degree
    for beta, value in zip(outside, reduced):
        out[config.flat_index(beta)] = value
    return tuple(out)


def _flipped_epsilon(stratum: Stratum, beta: EmbeddingId) -> dict[EmbeddingId, int]:
    tables = index_tables(stratum)
    eps = dict(sign_epsilon(stratum))
    for i in range(tables.mu[beta]):
        tau = frobenius_shift(stratum.config, beta, i)
        eps[tau] = -eps[tau]
    return eps


def functional_Lf(stratum: Stratum, beta: EmbeddingId,
                  tau: EmbeddingId) -> Vec:
    """The facet functional at tau of the divisibility cone attached to the
    admissible embedding beta.

    It is read with the sign function flipped on beta's run (beta and the
    members of T after it).  At tau != beta it is the facet functional at
    tau; off beta's cycle, and on tilde minus T, the window of tau misses
    the run and this is `functional_LT`.  At tau = beta, with beta2 =
    shift^n(beta) and btilde = shift^mu(beta2): on tilde minus T it is the
    facet functional at beta2 (beta2 lies off the tilde closure, so this is
    the full window from btilde); off the tilde closure it is the window
    from beta to one step behind btilde.
    """
    config = stratum.config
    if beta not in admissible_set(stratum):
        raise ValueError(f"{beta} is not in the admissible set")
    tables = index_tables(stratum)
    beta2 = frobenius_shift(config, beta, tables.n[beta])
    if tau in stratum:
        raise ValueError(f"no divisibility functional at {tau}: it lies in T")
    if tau == beta2:
        raise ValueError(
            f"no divisibility functional at {tau}: it is the n-step shift "
            "of the admissible embedding")
    eps = _flipped_epsilon(stratum, beta)
    if tau != beta:
        return _facet(stratum, eps, tau)
    if beta in tilde_closure(stratum):
        return _facet(stratum, eps, beta2)
    btilde = frobenius_shift(config, beta2, tables.mu[beta2])
    return functional_window(config, eps, beta,
                             frobenius_shift(config, btilde, -1))


def _divisor_forms(stratum: Stratum, beta: EmbeddingId) -> list[Vec]:
    beta2 = frobenius_shift(stratum.config, beta,
                            index_tables(stratum).n[beta])
    return [functional_Lf(stratum, beta, tau)
            for tau in sorted(stratum.complement() - {beta2})]


def minimal_forms(stratum: Stratum, variant: str = "min") -> tuple[Vec, ...]:
    """The forms cutting out the minimal cone, in reduced coordinates on the
    complement of T.

    Variant "min" intersects the weight cone with every divisibility cone;
    variant "min0" keeps only the diagonal functional of each admissible
    embedding.  The collected forms are restricted to the coordinates
    outside T in sorted order (composed with `lift_jT`).  This is exact
    because every form vanishes on the b lines on T, asserted here:
    `reduce_iT` after `lift_jT` is the identity and the b lines span the
    kernel of the reduction, so every form agrees on x and lift(reduce(x)).
    A reduced weight lies in the minimal cone exactly when every form is
    nonnegative on it.
    """
    if variant not in ("min", "min0"):
        raise ValueError(f"unknown variant {variant!r}, "
                         "expected 'min' or 'min0'")
    ineqs = list(explicit_constraints(stratum).ineqs)
    for beta in sorted(admissible_set(stratum)):
        if variant == "min":
            ineqs.extend(_divisor_forms(stratum, beta))
        else:
            ineqs.append(functional_Lf(stratum, beta, beta))
    config = stratum.config
    for emb in sorted(stratum.members):
        b = weight_basis(config, "b", emb)
        if any(_dot(form, b) != 0 for form in ineqs):
            raise AssertionError(
                f"reduction kernel line at {emb} is not annihilated by the "
                "minimal-cone constraints")
    keep = [config.flat_index(beta) for beta in sorted(stratum.complement())]
    return tuple(tuple(form[i] for i in keep) for form in ineqs)


def in_minimal_cone(stratum: Stratum, reduced: Sequence[Rational],
                    variant: str = "min") -> bool:
    """Does the reduced weight satisfy every form of the minimal cone?"""
    return all(_dot(form, reduced) >= 0
               for form in minimal_forms(stratum, variant))


@_memoised
def minimal_cone(stratum: Stratum, variant: str = "min") -> Cone:
    """The minimal cone in reduced coordinates on the complement of T, cut
    out by `minimal_forms`."""
    return cone_from_constraints(minimal_forms(stratum, variant),
                                 dim=len(stratum.complement()))


def forced_divisors(stratum: Stratum,
                    weight: Sequence[Rational]) -> frozenset[EmbeddingId]:
    """The admissible embeddings whose divisibility cone excludes the
    weight: any nonzero form of this weight on the stratum is divisible by
    the distinguished section of each returned embedding."""
    if len(weight) != stratum.config.degree:
        raise ValueError(f"weight has length {len(weight)}, expected "
                         f"{stratum.config.degree}")
    out = set()
    for beta in sorted(admissible_set(stratum)):
        if any(_dot(form, weight) < 0 for form in _divisor_forms(stratum, beta)):
            out.add(beta)
    return frozenset(out)


@dataclass(frozen=True)
class FormalMonomial:
    """A product of named foundational sections on a base stratum.

    Factors are (kind, embedding, exponent) with kind 'h' or 'b'; negative
    exponents are only allowed on b factors, which are nowhere vanishing.
    """

    base: Stratum
    factors: tuple[tuple[str, EmbeddingId, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for kind, emb, exp in self.factors:
            if kind not in ("h", "b"):
                raise ValueError(f"unknown factor kind {kind!r}")
            self.base.config._check(emb)
            if exp == 0:
                raise ValueError(f"zero exponent on {kind} at {emb}")
            if exp < 0 and kind != "b":
                raise ValueError(
                    f"negative exponent on the non-invertible factor h at "
                    f"{emb}")
            if (kind, emb) in seen:
                raise ValueError(f"repeated factor {kind} at {emb}")
            seen.add((kind, emb))


def monomial_weight(monomial: FormalMonomial) -> Vec:
    """The weight of a formal monomial: exponent-weighted sum of its factor
    weights."""
    config = monomial.base.config
    total = [0] * config.degree
    for kind, emb, exp in monomial.factors:
        w = weight_basis(config, kind, emb)
        total = [t + exp * c for t, c in zip(total, w)]
    return tuple(total)


def _monomial(base: Stratum,
              factors: Mapping[tuple[str, EmbeddingId], int]) -> FormalMonomial:
    packed = tuple(sorted(((kind, emb, exp)
                           for (kind, emb), exp in factors.items() if exp),
                          key=lambda t: (t[1], t[0])))
    return FormalMonomial(base=base, factors=packed)


def section_recipe(stratum: Stratum, emb: EmbeddingId,
                   target: EmbeddingId) -> FormalMonomial:
    """Express the pair section from emb down to target as a monomial in
    foundational sections on a deeper base stratum.

    Valid arguments are pairs of the Hasse-pair generating family: emb
    outside T and target either outside the tilde closure or one step ahead
    of (tilde minus T), on the same cycle.  The base stratum augments T by
    the tilde-closure part of the open walk from target up to emb; the
    factor at each step i is h or b according to membership in the base,
    with exponent +-p^i, the sign alternating so the telescoping sum of
    factor weights collapses to the pair weight.  That collapse is checked
    on every call.
    """
    config = stratum.config
    if emb.cycle != target.cycle:
        raise ValueError("section recipe needs embeddings on one cycle")
    c = emb.cycle
    f = config.cycle_lengths[c]
    in_t = stratum.cycle_members(c)
    in_tilde = tilde_closure(stratum).cycle_members(c)
    if emb.pos in in_t or target.pos not in pair_targets(stratum, c):
        raise ValueError(
            f"invalid pair ({emb}, {target}): the first embedding must lie "
            "outside T and the second must be a generating-family target")
    m = (emb.pos - target.pos) % f or f
    base_members = set(stratum.members)
    base_members.update(
        EmbeddingId(c, (emb.pos - j) % f)
        for j in range(1, m) if (emb.pos - j) % f in in_tilde)
    base = Stratum(config, frozenset(base_members))
    base_c = base.cycle_members(c)
    factors: dict[tuple[str, EmbeddingId], int] = {}
    for i in range(m):
        tau = frobenius_shift(config, emb, -i)
        kind = "b" if tau.pos in base_c else "h"
        steps_to_exit = next(j for j in range(f)
                             if (tau.pos + j) % f not in base_c)
        sign = -1 if steps_to_exit % 2 else 1
        factors[(kind, tau)] = sign * config.p ** i
    monomial = _monomial(base, factors)
    expected = weight_pair(config, "h", emb, target)
    if monomial_weight(monomial) != expected:
        raise AssertionError(
            f"recipe weight mismatch for pair ({emb}, {target})")
    return monomial


def f_recipe(stratum: Stratum,
             emb: EmbeddingId) -> tuple[FormalMonomial, "DeltaClass"]:
    """The distinguished generator at an embedding outside T as a monomial,
    together with its discrete bi-weight tag.

    Outside the tilde closure this is the plain pair recipe from the n-step
    shift down to the embedding, tagged zero.  On tilde minus T the recipe
    descends only to one step ahead of the embedding and then divides by
    the p^(n-1)-th power of the b section there (legitimate: that embedding
    lies in T, hence in every base stratum); the tag is the class of the
    basis weight at the n-step shift.
    """
    config = stratum.config
    if emb in stratum:
        raise ValueError(f"{emb} lies in the stratum, no distinguished "
                         "generator is attached to it")
    n = index_tables(stratum).n[emb]
    sub = frobenius_shift(config, emb, n)
    if emb not in tilde_closure(stratum):
        monomial = section_recipe(stratum, sub, emb)
        tag = delta_class(config, (0,) * config.degree)
    else:
        ahead = frobenius_shift(config, emb, 1)
        partial = section_recipe(stratum, sub, ahead)
        factors = {(kind, tau): exp for kind, tau, exp in partial.factors}
        key = ("b", ahead)
        factors[key] = factors.get(key, 0) - config.p ** (n - 1)
        monomial = _monomial(partial.base, factors)
        tag = delta_class(config, weight_basis(config, "e", sub))
    if monomial_weight(monomial) != f_weight(stratum, emb):
        raise AssertionError(f"recipe weight mismatch for the distinguished "
                             f"generator at {emb}")
    return monomial, tag


@dataclass(frozen=True)
class DeltaClass:
    """Per-cycle residues of a weight modulo p^f - 1, the discrete invariant
    that kills exactly the lattice spanned by the Hasse weights."""

    residues: tuple[int, ...]
    moduli: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.residues)


def delta_class(config: SplittingConfig,
                weight: Sequence[Rational]) -> DeltaClass:
    """Reduce an integer weight: on each cycle, the p-power-weighted sum of
    its coordinates modulo p^f - 1, residues in [0, p^f - 2]."""
    if len(weight) != config.degree:
        raise ValueError(
            f"weight has length {len(weight)}, expected {config.degree}")
    ints = []
    for k in weight:
        if k != int(k):
            raise ValueError("delta classes are defined for integer weights")
        ints.append(int(k))
    residues = []
    moduli = []
    offset = 0
    for f in config.cycle_lengths:
        modulus = config.p ** f - 1
        total = sum(ints[offset + j] * config.p ** j for j in range(f))
        residues.append(total % modulus)
        moduli.append(modulus)
        offset += f
    return DeltaClass(residues=tuple(residues), moduli=tuple(moduli))


@dataclass(frozen=True)
class BiWeight:
    """A pair of weights over one configuration: the exponent of the
    discrete-invariant line bundle and the exponent of the modular one."""

    lam: Vec
    kappa: Vec


def gl2_generators(stratum: Stratum) -> list[tuple[BiWeight, bool]]:
    """Generators of the bi-weight cone of the stratum: Hasse lines in the
    first slot, the paired (-e, b) lines on T, and one ray per embedding
    outside T carrying its distinguished generator, with first slot the
    basis weight at the n-step shift on tilde minus T and zero elsewhere."""
    config = stratum.config
    zero = (0,) * config.degree
    tables = index_tables(stratum)
    tilde = tilde_closure(stratum)
    out: list[tuple[BiWeight, bool]] = []
    for emb in config.embeddings():
        out.append((BiWeight(weight_basis(config, "h", emb), zero), True))
    for emb in sorted(stratum.members):
        neg_e = tuple(-c for c in weight_basis(config, "e", emb))
        out.append((BiWeight(neg_e, weight_basis(config, "b", emb)), True))
    for emb in sorted(stratum.complement()):
        fw = f_weight(stratum, emb)
        if emb in tilde:
            sub = frobenius_shift(config, emb, tables.n[emb])
            lam = weight_basis(config, "e", sub)
        else:
            lam = zero
        out.append((BiWeight(lam, fw), False))
    return out
