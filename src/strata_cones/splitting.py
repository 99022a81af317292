"""Frobenius-orbit combinatorics of strata.

The embedding set is partitioned into cycles, one per prime above p, and the
Frobenius shift acts on each cycle by rotation.  A stratum is a subset T of
the embeddings.  This module computes the derived combinatorial data: chain
decompositions of T inside each cycle, the even-parity tilde closure, the
ramification set S(T) and Iwahori primes Iw(T), the index tables mu / n / nu,
the sign function, the admissible set, refinements, and the weight-support
condition for descending a weight along a refinement.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence


class EmbeddingId(NamedTuple):
    """One embedding, addressed by (cycle index, position on the cycle)."""

    cycle: int
    pos: int


class UndefinedIndexError(KeyError):
    """Raised when an index table is queried where it is not defined."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class SplittingConfig:
    """A prime p and the cycle lengths of the primes above it."""

    p: int
    cycle_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError("p must be prime")
        if not self.cycle_lengths:
            raise ValueError("at least one cycle is required")
        if any(f < 1 for f in self.cycle_lengths):
            raise ValueError("cycle lengths must be positive")
        object.__setattr__(self, "cycle_lengths", tuple(self.cycle_lengths))

    @property
    def degree(self) -> int:
        return sum(self.cycle_lengths)

    def embeddings(self) -> list[EmbeddingId]:
        """All embeddings in (cycle, pos) lexicographic order."""
        return [EmbeddingId(c, i)
                for c, f in enumerate(self.cycle_lengths) for i in range(f)]

    def flat_index(self, emb: EmbeddingId) -> int:
        """Coordinate of an embedding in the (cycle, pos) lex order."""
        self._check(emb)
        return sum(self.cycle_lengths[: emb.cycle]) + emb.pos

    def _check(self, emb: EmbeddingId) -> None:
        if not (0 <= emb.cycle < len(self.cycle_lengths)):
            raise ValueError(f"no cycle {emb.cycle} in this configuration")
        if not (0 <= emb.pos < self.cycle_lengths[emb.cycle]):
            raise ValueError(
                f"position {emb.pos} out of range for cycle {emb.cycle} "
                f"of length {self.cycle_lengths[emb.cycle]}")


def frobenius_shift(config: SplittingConfig, emb: EmbeddingId,
                    steps: int = 1) -> EmbeddingId:
    """Apply the Frobenius shift `steps` times (negative steps go backward)."""
    config._check(emb)
    f = config.cycle_lengths[emb.cycle]
    return EmbeddingId(emb.cycle, (emb.pos + steps) % f)


@dataclass(frozen=True)
class Stratum:
    """A subset T of the embeddings of a fixed configuration.

    Data derived from T alone is computed once per stratum and kept in
    `_memo` (see `_memoised`); the memo takes no part in equality, hashing
    or the repr.
    """

    config: SplittingConfig
    members: frozenset[EmbeddingId]
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __post_init__(self) -> None:
        for emb in self.members:
            self.config._check(emb)
        object.__setattr__(self, "members", frozenset(self.members))

    def __contains__(self, emb: EmbeddingId) -> bool:
        return emb in self.members

    def cycle_members(self, cycle: int) -> frozenset[int]:
        return frozenset(e.pos for e in self.members if e.cycle == cycle)

    def cycle_full(self, cycle: int) -> bool:
        return len(self.cycle_members(cycle)) == self.config.cycle_lengths[cycle]

    def key(self) -> str:
        """Canonical text form: comma-joined 'cycle.pos', empty for the empty set."""
        return ",".join(f"{e.cycle}.{e.pos}" for e in sorted(self.members))

    def complement(self) -> frozenset[EmbeddingId]:
        return frozenset(self.config.embeddings()) - self.members


def _memoised(fn):
    """Keep fn(stratum, *args) in the stratum's memo, keyed by the function
    name and the argument values with defaults filled in.  Later calls
    return the stored value itself, so callers must not mutate it."""
    params = tuple(inspect.signature(fn).parameters.values())[1:]

    @functools.wraps(fn)
    def wrapper(stratum, *args, **kwargs):
        key = (fn.__name__, *args, *(kwargs.pop(param.name, param.default)
                                     for param in params[len(args):]))
        if kwargs:
            raise TypeError(f"{fn.__name__}() got unexpected arguments "
                            f"{sorted(kwargs)}")
        memo = stratum._memo
        if key not in memo:
            memo[key] = fn(stratum, *key[1:])
        return memo[key]

    return wrapper


def stratum_from_text(config: SplittingConfig, text: str) -> Stratum:
    """Parse the stratum encoding: '' empty, 'all' everything, else 'c.i,...'."""
    text = text.strip()
    if text == "":
        return Stratum(config, frozenset())
    if text == "all":
        return Stratum(config, frozenset(config.embeddings()))
    members = set()
    for k, part in enumerate(text.split(","), start=1):
        piece = part.strip()
        fields = piece.split(".")
        if len(fields) != 2:
            raise ValueError(
                f"invalid stratum component #{k} '{piece}': "
                "expected 'cycle.pos'")
        try:
            c, i = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(
                f"invalid stratum component #{k} '{piece}': "
                "expected integers") from None
        if not (0 <= c < len(config.cycle_lengths)):
            raise ValueError(
                f"invalid stratum component #{k} '{piece}': "
                f"no cycle {c} in this configuration")
        f = config.cycle_lengths[c]
        if not (0 <= i < f):
            raise ValueError(
                f"invalid stratum component #{k} '{piece}': "
                f"position {i} out of range for cycle {c} of length {f}")
        emb = EmbeddingId(c, i)
        if emb in members:
            raise ValueError(
                f"invalid stratum component #{k} '{piece}': repeated")
        members.add(emb)
    return Stratum(config, frozenset(members))


@dataclass(frozen=True)
class Chain:
    """A maximal backward-consecutive run of T inside one cycle.

    `members` walks from the head against the shift direction, so
    members[i] is the head shifted back i times; m = len(members) - 1.
    """

    head: EmbeddingId
    members: tuple[EmbeddingId, ...]

    @property
    def m(self) -> int:
        return len(self.members) - 1


def chain_decomposition(stratum: Stratum) -> dict[int, list[Chain] | None]:
    """Chains of T per cycle; a cycle entirely inside T maps to None."""
    config = stratum.config
    out: dict[int, list[Chain] | None] = {}
    for c, f in enumerate(config.cycle_lengths):
        in_t = stratum.cycle_members(c)
        if len(in_t) == f:
            out[c] = None
            continue
        chains = []
        for h in sorted(in_t):
            if (h + 1) % f in in_t:
                continue
            members = [EmbeddingId(c, h)]
            j = (h - 1) % f
            while j in in_t:
                members.append(EmbeddingId(c, j))
                j = (j - 1) % f
            chains.append(Chain(head=EmbeddingId(c, h), members=tuple(members)))
        out[c] = chains
    return out


@_memoised
def tilde_closure(stratum: Stratum) -> Stratum:
    """Extend each even-m chain one step backward; full cycles stay full.

    Every extended chain has even cardinality, so the closure minus the full
    cycles has even cardinality on each cycle.
    """
    config = stratum.config
    members = set(stratum.members)
    for c, chains in chain_decomposition(stratum).items():
        if chains is None:
            continue
        f = config.cycle_lengths[c]
        for ch in chains:
            if ch.m % 2 == 0:
                tail = ch.members[-1]
                members.add(EmbeddingId(c, (tail.pos - 1) % f))
    return Stratum(config, frozenset(members))


@dataclass(frozen=True)
class PlacesS:
    """The ramification set S(T): embeddings from the tilde closure plus the
    primes whose cycle is entirely in T and has odd length."""

    embeddings: frozenset[EmbeddingId]
    primes: frozenset[int]

    def cardinality(self) -> int:
        return len(self.embeddings) + len(self.primes)


def places_and_iw(stratum: Stratum) -> tuple[PlacesS, frozenset[int]]:
    """S(T) and the Iwahori primes Iw(T) (full cycles of even length)."""
    config = stratum.config
    tilde = tilde_closure(stratum)
    odd_full = set()
    iw = set()
    for c, f in enumerate(config.cycle_lengths):
        if stratum.cycle_full(c):
            (odd_full if f % 2 else iw).add(c)
    s = PlacesS(embeddings=tilde.members, primes=frozenset(odd_full))
    if s.cardinality() % 2 != 0:
        raise AssertionError("ramification set has odd cardinality")
    return s, frozenset(iw)


@dataclass(frozen=True)
class StratumTables:
    """Index tables of a stratum.

    mu[beta]: smallest i > 0 with shift^i(beta) outside T (0 on full cycles).
    nu[beta]: smallest i >= 0 with shift^-i(beta) outside T (absent on full
    cycles).
    n[beta]: smallest i > 0 with shift^i(beta) outside the tilde closure,
    and the cycle length on cycles whose tilde closure is everything.
    """

    tilde: Stratum
    mu: Mapping[EmbeddingId, int]
    nu: Mapping[EmbeddingId, int]
    n: Mapping[EmbeddingId, int]

    def mu_of(self, emb: EmbeddingId) -> int:
        return self.mu[emb]

    def nu_of(self, emb: EmbeddingId) -> int:
        if emb not in self.nu:
            raise UndefinedIndexError(
                f"undefined index nu at {emb}: cycle entirely in T")
        return self.nu[emb]

    def n_of(self, emb: EmbeddingId) -> int:
        return self.n[emb]


@_memoised
def index_tables(stratum: Stratum) -> StratumTables:
    config = stratum.config
    tilde = tilde_closure(stratum)
    mu: dict[EmbeddingId, int] = {}
    nu: dict[EmbeddingId, int] = {}
    n: dict[EmbeddingId, int] = {}
    for c, f in enumerate(config.cycle_lengths):
        in_t = stratum.cycle_members(c)
        in_tilde = tilde.cycle_members(c)
        full = len(in_t) == f
        for i in range(f):
            beta = EmbeddingId(c, i)
            if full:
                mu[beta] = 0
            else:
                mu[beta] = next(k for k in range(1, f + 1)
                                if (i + k) % f not in in_t)
                nu[beta] = next(k for k in range(f) if (i - k) % f not in in_t)
            n[beta] = next((k for k in range(1, f + 1)
                            if (i + k) % f not in in_tilde), f)
    return StratumTables(tilde=tilde, mu=mu, nu=nu, n=n)


@_memoised
def sign_epsilon(stratum: Stratum) -> dict[EmbeddingId, int]:
    """The sign function: 0 on full cycles, +1 outside the tilde closure,
    (-1)^(mu-1) on the tilde closure."""
    config = stratum.config
    tables = index_tables(stratum)
    out: dict[EmbeddingId, int] = {}
    for c, f in enumerate(config.cycle_lengths):
        full = stratum.cycle_full(c)
        in_tilde = tables.tilde.cycle_members(c)
        for i in range(f):
            beta = EmbeddingId(c, i)
            if full:
                out[beta] = 0
            elif i in in_tilde:
                out[beta] = -1 if tables.mu[beta] % 2 == 0 else 1
            else:
                out[beta] = 1
    return out


@_memoised
def admissible_set(stratum: Stratum) -> frozenset[EmbeddingId]:
    """The embeddings whose distinguished weight can vanish without forcing
    the whole cycle: per cycle, the complement of T, shrunk by one element
    when the complement of the tilde closure is that single element, empty
    when the tilde closure covers the cycle.

    Cross-checked on the complement of T against the index-table description:
    beta is in the set iff shift^n(beta) differs from beta.
    """
    config = stratum.config
    tables = index_tables(stratum)
    out: set[EmbeddingId] = set()
    for c, f in enumerate(config.cycle_lengths):
        in_t = stratum.cycle_members(c)
        in_tilde = tables.tilde.cycle_members(c)
        outside_tilde = [i for i in range(f) if i not in in_tilde]
        if not outside_tilde:
            chosen: set[int] = set()
        elif len(outside_tilde) == 1:
            chosen = {i for i in range(f) if i not in in_t} - set(outside_tilde)
        else:
            chosen = {i for i in range(f) if i not in in_t}
        for i in range(f):
            beta = EmbeddingId(c, i)
            if i not in in_t:
                via_n = frobenius_shift(config, beta, tables.n[beta]) != beta
                if via_n != (i in chosen):
                    raise AssertionError(
                        f"admissible-set descriptions disagree at {beta}")
        out.update(EmbeddingId(c, i) for i in chosen)
    return frozenset(out)


def refinements(stratum: Stratum) -> list[Stratum]:
    """All strata between T and its tilde closure with the same Iwahori set,
    sorted by canonical key."""
    _, iw = places_and_iw(stratum)
    extra = sorted(tilde_closure(stratum).members - stratum.members)
    found = []
    for mask in range(1 << len(extra)):
        members = set(stratum.members)
        members.update(e for b, e in enumerate(extra) if mask >> b & 1)
        cand = Stratum(stratum.config, frozenset(members))
        if places_and_iw(cand)[1] == iw:
            found.append(cand)
    return sorted(found, key=lambda s: s.key())


def pullback_compatible(stratum: Stratum, refined: Stratum,
                        weight: Sequence[int]) -> bool:
    """Can a weight on the refined stratum descend along the bundle map?

    True iff the weight vanishes on the forward mu-window of every embedding
    added by the refinement (mu taken relative to the source stratum T).
    """
    config = stratum.config
    if refined not in refinements(stratum):
        raise ValueError("second stratum is not a refinement of the first")
    if len(weight) != config.degree:
        raise ValueError(
            f"weight has length {len(weight)}, expected {config.degree}")
    tables = index_tables(stratum)
    for beta in refined.members - stratum.members:
        for i in range(tables.mu[beta]):
            if weight[config.flat_index(frobenius_shift(config, beta, i))] != 0:
                return False
    return True
