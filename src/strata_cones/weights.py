"""Weight vectors, cones, functionals, reductions, and section recipes.

Coordinates are indexed by the embeddings of a splitting configuration in
(cycle, pos) lexicographic order.  Everything is exact integer or rational
arithmetic; cones are handled by the cone_kernel module.

The central objects, for a stratum T:

* the distinguished weights e, h = -e + p*shift, b = e + p*shift and their
  iterated pair versions spanning several steps of a cycle;
* the stratum weight cone, generated by the optimal one-ray-per-embedding
  family and equally by the Hasse-pair family, and cut out by the explicit
  sign-window functionals;
* the reduction to coordinates on the complement of T and the minimal cones
  living there;
* multiplicative recipes expressing the pair weights and the distinguished
  cone generators as monomials in foundational sections on a deeper stratum;
* the bi-weight (GL2) structures: the per-cycle discrete invariant and the
  product-cone generators.
"""

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .cone_kernel import (
    Cone,
    ConstraintRep,
    Vec,
    _check_vectors,
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
    _Frozen,
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


@_memoised
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


@_memoised
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


@_memoised
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


@_memoised
def pair_family(stratum: Stratum,
                cycle: int) -> tuple[tuple[EmbeddingId, EmbeddingId], ...]:
    """The (emb, target) pairs of the Hasse-pair family on one cycle, emb
    outside T, target outside the tilde closure or one step ahead of
    (tilde minus T); ordered by emb, then target."""
    f = stratum.config.cycle_lengths[cycle]
    in_t = stratum.cycle_members(cycle)
    in_tilde = tilde_closure(stratum).cycle_members(cycle)
    targets = sorted({i for i in range(f) if i not in in_tilde}
                     | {(i + 1) % f for i in in_tilde - in_t})
    return tuple((EmbeddingId(cycle, i), EmbeddingId(cycle, j))
                 for i in range(f) if i not in in_t for j in targets)


@_memoised
def generators_G(stratum: Stratum) -> tuple[tuple[Vec, bool], ...]:
    """The Hasse-pair generating family: one ray h_emb^target for every
    pair of `pair_family`, plus a line b_beta for every beta in T, cycle by
    cycle.

    Entries are (weight, is_line).
    """
    config = stratum.config
    out: list[tuple[Vec, bool]] = []
    for c in range(len(config.cycle_lengths)):
        out.extend((weight_pair(config, "h", emb, target), False)
                   for emb, target in pair_family(stratum, c))
        out.extend((weight_basis(config, "b", EmbeddingId(c, i)), True)
                   for i in sorted(stratum.cycle_members(c)))
    return tuple(out)


@_memoised
def generators_Gprime(stratum: Stratum) -> tuple[tuple[Vec, bool], ...]:
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
    return tuple(out)


def family_cone(gens: Sequence[tuple[Vec, bool]], dim: int) -> Cone:
    """The cone generated by a family of (weight, is_line) entries, such as
    `generators_G` or `generators_Gprime`, given by those generators."""
    return cone_from_rays([w for w, is_line in gens if not is_line],
                          [w for w, is_line in gens if is_line], dim=dim)


@_memoised
def cone_D(stratum: Stratum) -> Cone:
    """The weight cone of the stratum, given by the optimal family
    `generators_Gprime`.  The Hasse-pair family generates the same cone:
    `family_cone(generators_G(t), d)`."""
    return family_cone(generators_Gprime(stratum), stratum.config.degree)


def functional_window(stratum: Stratum, emb: EmbeddingId,
                      other: EmbeddingId) -> Vec:
    """The sign-window functional sum of eps(shift^i emb) p^i k_{shift^i emb}
    walking forward from emb to other, eps the stratum's sign function."""
    config = stratum.config
    eps = sign_epsilon(stratum)
    config._check(emb)
    config._check(other)
    if emb.cycle != other.cycle:
        raise ValueError("window endpoints must lie on the same cycle")
    n = (other.pos - emb.pos) % config.cycle_lengths[emb.cycle]
    coeffs: dict[EmbeddingId, int] = {}
    for i in range(n + 1):
        tau = frobenius_shift(config, emb, i)
        coeffs[tau] = eps[tau] * config.p ** i
    return _as_vec(config, coeffs.items())


def functional_LT(stratum: Stratum, emb: EmbeddingId) -> Vec:
    """The facet functional of the weight cone at an embedding outside T:
    a full window from shift^mu(emb) when emb is outside the tilde closure,
    else the partial window from emb of length mu."""
    if emb in stratum:
        raise ValueError(f"no facet functional at {emb}: it lies in T")
    config = stratum.config
    mu = index_tables(stratum).mu[emb]
    start = 0 if emb in tilde_closure(stratum) else mu
    return functional_window(stratum, frobenius_shift(config, emb, start),
                             frobenius_shift(config, emb, mu - 1))


@_memoised
def explicit_constraints(stratum: Stratum) -> ConstraintRep:
    """The half-space description of the weight cone: one facet functional
    per embedding outside T (cycles inside T contribute nothing)."""
    ineqs = tuple(functional_LT(stratum, emb)
                  for emb in stratum.complement())
    return ConstraintRep(ineqs=ineqs, eqns=())


@_memoised
def halfspace_cone(stratum: Stratum) -> Cone:
    """The cone cut out by the explicit half-spaces, given by them."""
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
    for beta in stratum.complement():
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
    _check_vectors((weight,), stratum.config.degree, "weight")
    return tuple(_dot(row, weight) for row in reduction_matrix(stratum))


def lift_jT(stratum: Stratum, reduced: Sequence[Rational]) -> tuple:
    """The zero-filled section of the reduction: place the reduced
    coordinates on the complement of T and zeros on T."""
    outside = stratum.complement()
    _check_vectors((reduced,), len(outside), "reduced weight")
    return _as_vec(stratum.config, zip(outside, reduced))


def functional_Lf(stratum: Stratum, beta: EmbeddingId,
                  tau: EmbeddingId) -> Vec:
    """The facet functional at tau of the divisibility cone attached to the
    admissible embedding beta: a window read with the sign function flipped
    on beta's run (beta and the members of T after it), that is, by
    linearity, the window read with the sign function and negated on the
    run's coordinates.

    At tau != beta the window is the facet at tau (`explicit_constraints`),
    which misses the run off beta's cycle and on tilde minus T.  At tau =
    beta, with beta2 = shift^n(beta) and btilde = shift^mu(beta2), it is
    the diagonal window from beta to one step behind btilde, from btilde
    (the facet at beta2) when beta lies on the tilde closure.
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
    if tau != beta:
        form = explicit_constraints(stratum).ineqs[
            stratum.complement().index(tau)]
    else:
        btilde = frobenius_shift(config, beta2, tables.mu[beta2])
        start = btilde if beta in tilde_closure(stratum) else beta
        form = functional_window(stratum, start,
                                 frobenius_shift(config, btilde, -1))
    run = {config.flat_index(frobenius_shift(config, beta, i))
           for i in range(tables.mu[beta])}
    return tuple(-c if i in run else c for i, c in enumerate(form))


@_memoised
def _divisor_forms(stratum: Stratum, beta: EmbeddingId) -> tuple[Vec, ...]:
    """The facet functionals of the divisibility cone of the admissible
    beta, at every tau outside T other than shift^n(beta): the diagonal one
    at tau = beta first, then the others in coordinate order."""
    beta2 = frobenius_shift(stratum.config, beta,
                            index_tables(stratum).n[beta])
    return tuple(functional_Lf(stratum, beta, tau) for tau in (
        beta, *(tau for tau in stratum.complement()
                if tau not in (beta, beta2))))


@_memoised
def minimal_forms(stratum: Stratum, variant: str) -> tuple[Vec, ...]:
    """The forms cutting out the minimal cone in reduced coordinates on the
    complement of T, one list per stratum: "min0" is the facets, then each
    admissible embedding's diagonal functional (the first of its
    `_divisor_forms`); "min", the weight cone met with every divisibility
    cone, is that list, then the other divisor forms not yet listed, each
    once (a divisor form whose window misses beta's run is its facet).
    Each form is restricted to the coordinates outside T in sorted order
    (composed with `lift_jT`), which is exact because every form vanishes
    on the b lines on T, asserted once per form: `reduce_iT` after `lift_jT`
    is the identity and the b lines span the reduction's kernel, so every
    form agrees on x and lift(reduce(x)).  A reduced weight lies in the
    minimal cone exactly when every form is nonnegative on it."""
    if variant not in ("min", "min0"):
        raise ValueError(f"unknown variant {variant!r}, "
                         "expected 'min' or 'min0'")
    facets = explicit_constraints(stratum).ineqs
    divisor = [_divisor_forms(stratum, beta)
               for beta in sorted(admissible_set(stratum))]
    diagonal = [forms[0] for forms in divisor]
    if variant == "min0":
        listed, forms = (), (*facets, *diagonal)
    else:
        listed, seen = minimal_forms(stratum, "min0"), {*facets, *diagonal}
        forms = [form for form in dict.fromkeys(
            form for row in divisor for form in row[1:]) if form not in seen]
    config = stratum.config
    for emb in sorted(stratum.members):
        b = weight_basis(config, "b", emb)
        if any(_dot(form, b) != 0 for form in forms):
            raise AssertionError(
                f"reduction kernel line at {emb} is not annihilated by the "
                "minimal-cone constraints")
    keep = [config.flat_index(beta) for beta in stratum.complement()]
    return listed + tuple(tuple(form[i] for i in keep) for form in forms)


def in_minimal_cone(stratum: Stratum, reduced: Sequence[Rational],
                    variant: str = "min") -> bool:
    """Does the reduced weight satisfy every form of the minimal cone?"""
    _check_vectors((reduced,), len(stratum.complement()), "reduced weight")
    return all(_dot(form, reduced) >= 0
               for form in minimal_forms(stratum, variant))


@_memoised
def minimal_cone(stratum: Stratum, variant: str) -> Cone:
    """The minimal cone in reduced coordinates on the complement of T, cut
    out by the variant's `minimal_forms`, where "min" extends "min0"."""
    return cone_from_constraints(minimal_forms(stratum, variant),
                                 dim=len(stratum.complement()))


def forced_divisors(stratum: Stratum,
                    weight: Sequence[Rational]) -> frozenset[EmbeddingId]:
    """The admissible embeddings whose divisibility cone excludes the
    weight: any nonzero form of this weight on the stratum is divisible by
    the distinguished section of each returned embedding."""
    _check_vectors((weight,), stratum.config.degree, "weight")
    out = set()
    for beta in sorted(admissible_set(stratum)):
        if any(_dot(form, weight) < 0 for form in _divisor_forms(stratum, beta)):
            out.add(beta)
    return frozenset(out)


class FormalMonomial(_Frozen):
    """A product of named foundational sections on a base stratum.

    Factors are (kind, embedding, exponent) with kind 'h' or 'b'; negative
    exponents are only allowed on b factors, which are nowhere vanishing.
    """

    __slots__ = ("base", "factors")
    _fields = ("base", "factors")

    def __init__(self, base: Stratum,
                 factors: Iterable[tuple[str, EmbeddingId, int]]) -> None:
        # a tuple before the checks walk it: a generator is read once
        factors = tuple(factors)
        seen = set()
        for kind, emb, exp in factors:
            if kind not in ("h", "b"):
                raise ValueError(f"unknown factor kind {kind!r}")
            base.config._check(emb)
            if exp == 0:
                raise ValueError(f"zero exponent on {kind} at {emb}")
            if exp < 0 and kind != "b":
                raise ValueError(
                    f"negative exponent on the non-invertible factor h at "
                    f"{emb}")
            if (kind, emb) in seen:
                raise ValueError(f"repeated factor {kind} at {emb}")
            seen.add((kind, emb))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "factors", factors)


def monomial_weight(monomial: FormalMonomial) -> Vec:
    """The weight of a formal monomial: exponent-weighted sum of its factor
    weights."""
    config = monomial.base.config
    total = [0] * config.degree
    for kind, emb, exp in monomial.factors:
        w = weight_basis(config, kind, emb)
        total = [t + exp * c for t, c in zip(total, w)]
    return tuple(total)


def _telescope(stratum: Stratum, top: EmbeddingId, m: int) -> FormalMonomial:
    """The monomial of the walk m steps down from top: one factor at each of
    top, shift^-1(top), ..., shift^-(m-1)(top).

    The base stratum is T together with the tilde-closure part of the open
    walk (top and the end point shift^-m(top) excluded).  The factor at
    step i is b on the base and h off it, with exponent +-p^i.  The sign
    starts at + and flips at every b factor: as h = -e + p*back-shift and
    b = e + p*back-shift, that flip cancels the weights of consecutive
    factors on each embedding inside the walk, so the weight of the
    product is -e_top + s p^m e_end, s the sign of the last factor.
    """
    config = stratum.config
    tilde = tilde_closure(stratum)
    base = set(stratum.members)
    factors = []
    sign = 1
    for i in range(m):
        tau = frobenius_shift(config, top, -i)
        kind = "b" if tau in stratum or (i and tau in tilde) else "h"
        if kind == "b":
            base.add(tau)
            sign = -sign
        factors.append((kind, tau, sign * config.p ** i))
    return FormalMonomial(base=Stratum(config, frozenset(base)),
                          factors=tuple(sorted(factors, key=lambda t: t[1])))


def section_recipe(stratum: Stratum, emb: EmbeddingId,
                   target: EmbeddingId) -> FormalMonomial:
    """Express the pair section from emb down to target as a monomial in
    foundational sections on a deeper base stratum.

    Valid arguments are the pairs of `pair_family`.  The monomial is the
    telescoping walk (`_telescope`) of the m steps from emb down to target,
    m in (0, f]: it ends on +p^m because the walk crosses an even number of
    b factors, so its weight is the pair weight -e_emb + p^m e_target.
    That collapse is checked on every call.
    """
    if emb.cycle != target.cycle:
        raise ValueError("section recipe needs embeddings on one cycle")
    if (emb, target) not in pair_family(stratum, emb.cycle):
        raise ValueError(
            f"invalid pair ({emb}, {target}): the first embedding must lie "
            "outside T and the second must be a generating-family target")
    f = stratum.config.cycle_lengths[emb.cycle]
    monomial = _telescope(stratum, emb, (emb.pos - target.pos) % f or f)
    if monomial_weight(monomial) != weight_pair(stratum.config, "h", emb,
                                                target):
        raise AssertionError(
            f"recipe weight mismatch for pair ({emb}, {target})")
    return monomial


def f_recipe(stratum: Stratum,
             emb: EmbeddingId) -> tuple[FormalMonomial, "DeltaClass"]:
    """The distinguished generator at an embedding outside T as a monomial,
    together with its discrete bi-weight tag.

    The monomial is the telescoping walk of the n = n(emb) steps from
    sub = shift^n(emb) down to emb.  Outside the tilde closure it ends on
    +p^n: it is the pair recipe from sub down to emb.  On tilde minus T its
    last factor is b at the embedding one step ahead, which lies in T, with
    exponent -p^(n-1), so it ends on -p^n.  The tag is the class of the
    first slot, -e at each b factor (the line (-e, b) of `gl2_generators`).
    """
    weight = f_weight(stratum, emb)
    config = stratum.config
    n = index_tables(stratum).n[emb]
    monomial = _telescope(stratum, frobenius_shift(config, emb, n), n)
    tag = delta_class(config, _as_vec(config, [
        (tau, -exp) for kind, tau, exp in monomial.factors if kind == "b"]))
    if monomial_weight(monomial) != weight:
        raise AssertionError(f"recipe weight mismatch for the distinguished "
                             f"generator at {emb}")
    return monomial, tag


class DeltaClass(NamedTuple):
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
    _check_vectors((weight,), config.degree, "weight")
    if any(k != int(k) for k in weight):
        raise ValueError("delta classes are defined for integer weights")
    ints = [int(k) for k in weight]
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


class BiWeight(NamedTuple):
    """A pair of weights over one configuration: the exponent of the
    discrete-invariant line bundle and the exponent of the modular one."""

    lam: Vec
    kappa: Vec


@_memoised
def gl2_generators(
        stratum: Stratum) -> tuple[tuple[BiWeight, bool], ...]:
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
    for emb in stratum.complement():
        fw = f_weight(stratum, emb)
        if emb in tilde:
            sub = frobenius_shift(config, emb, tables.n[emb])
            lam = weight_basis(config, "e", sub)
        else:
            lam = zero
        out.append((BiWeight(lam, fw), False))
    return tuple(out)
