"""Frobenius-orbit combinatorics of strata.

The embedding set is partitioned into cycles, one per prime above p, and the
Frobenius shift acts on each cycle by rotation.  A stratum is a subset T of
the embeddings.  This module computes the derived combinatorial data: the
index tables mu / n / nu, and from mu the even-parity tilde closure and the
sign function; then the ramification set S(T), the Iwahori primes Iw(T) and,
read off n, the admissible set.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple


class EmbeddingId(NamedTuple):
    """One embedding, addressed by (cycle index, position on the cycle)."""

    cycle: int
    pos: int


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
    """A prime p and the cycle lengths of the primes above it.

    `_offsets[c]` (flat coordinate of position 0 on cycle c) and `_valid`
    (all embeddings) are computed once, outside equality, hashing and repr.
    """

    p: int
    cycle_lengths: tuple[int, ...]
    _offsets: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _valid: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError("p must be prime")
        if not self.cycle_lengths:
            raise ValueError("at least one cycle is required")
        if any(f < 1 for f in self.cycle_lengths):
            raise ValueError("cycle lengths must be positive")
        lengths = tuple(self.cycle_lengths)
        object.__setattr__(self, "cycle_lengths", lengths)
        object.__setattr__(self, "_offsets",
                           tuple(sum(lengths[:c]) for c in range(len(lengths))))
        object.__setattr__(self, "_valid", frozenset(self.embeddings()))

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
        return self._offsets[emb.cycle] + emb.pos

    def _check(self, emb: EmbeddingId) -> None:
        if emb in self._valid:
            return
        if not (0 <= emb.cycle < len(self.cycle_lengths)):
            raise ValueError(f"no cycle {emb.cycle} in this configuration")
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


def _component(piece: str) -> EmbeddingId:
    fields = piece.split(".")
    if len(fields) != 2:
        raise ValueError("expected 'cycle.pos'")
    try:
        return EmbeddingId(int(fields[0]), int(fields[1]))
    except ValueError:
        raise ValueError("expected integers") from None


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
        try:
            emb = _component(piece)
            config._check(emb)
            if emb in members:
                raise ValueError("repeated")
        except ValueError as exc:
            raise ValueError(
                f"invalid stratum component #{k} '{piece}': {exc}") from None
        members.add(emb)
    return Stratum(config, frozenset(members))


@_memoised
def tilde_closure(stratum: Stratum) -> Stratum:
    """T together with the even-parity extension of each chain.

    A chain of T is a maximal run of T inside one cycle, walked backward
    from its head (the member whose shift leaves T) to its tail; with
    m + 1 members, the chain grows one step backward when m is even.  Full cycles have no
    chains and stay full.  Every extended chain has even cardinality, so
    the closure minus the full cycles has even cardinality on each cycle.

    The closure is read off mu alone.  The embedding just behind a chain's
    tail lies outside T and its forward run is that chain, so mu = m + 2
    there; every other beta outside T has mu = 1.  So the closure adds
    exactly the beta outside T with mu(beta) even.
    """
    mu = index_tables(stratum).mu
    return Stratum(stratum.config, stratum.members | {
        beta for beta, m in mu.items() if beta not in stratum and m % 2 == 0})


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
    and the cycle length on cycles whose tilde closure is everything.  The
    embeddings outside the tilde closure are those outside T with odd mu
    (see `tilde_closure`), so n is read off mu.
    """

    mu: Mapping[EmbeddingId, int]
    nu: Mapping[EmbeddingId, int]
    n: Mapping[EmbeddingId, int]


@_memoised
def index_tables(stratum: Stratum) -> StratumTables:
    config = stratum.config
    mu: dict[EmbeddingId, int] = {}
    nu: dict[EmbeddingId, int] = {}
    n: dict[EmbeddingId, int] = {}
    for c, f in enumerate(config.cycle_lengths):
        in_t = stratum.cycle_members(c)
        if len(in_t) == f:
            mu.update((EmbeddingId(c, i), 0) for i in range(f))
        else:
            for i in range(f):
                beta = EmbeddingId(c, i)
                mu[beta] = next(k for k in range(1, f + 1)
                                if (i + k) % f not in in_t)
                nu[beta] = next(k for k in range(f)
                                if (i - k) % f not in in_t)
        off_tilde = {i for i in range(f)
                     if i not in in_t and mu[EmbeddingId(c, i)] % 2}
        for i in range(f):
            n[EmbeddingId(c, i)] = next((k for k in range(1, f + 1)
                                         if (i + k) % f in off_tilde), f)
    return StratumTables(mu=mu, nu=nu, n=n)


@_memoised
def sign_epsilon(stratum: Stratum) -> dict[EmbeddingId, int]:
    """The sign function: 0 on full cycles, +1 outside the tilde closure,
    (-1)^(mu-1) on the tilde closure.

    mu is 0 exactly on full cycles, odd outside the tilde closure and even
    on the closure minus T, so all three cases read (-1)^(mu-1) where mu is
    positive."""
    return {beta: (-1) ** (m - 1) if m else 0
            for beta, m in index_tables(stratum).mu.items()}


@_memoised
def admissible_set(stratum: Stratum) -> frozenset[EmbeddingId]:
    """The embeddings whose distinguished weight can vanish without forcing
    the whole cycle: the beta outside T with n(beta) < f, f the length of
    beta's cycle, that is, with shift^n(beta) different from beta.

    Per cycle this is the complement of T, shrunk by one element when the
    complement of the tilde closure is that single element (its n is f),
    and empty when the tilde closure covers the cycle (n is f throughout).
    """
    lengths = stratum.config.cycle_lengths
    return frozenset(beta for beta, k in index_tables(stratum).n.items()
                     if beta not in stratum and k < lengths[beta.cycle])
