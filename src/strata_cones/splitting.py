"""Frobenius-orbit combinatorics of strata.

The embedding set is partitioned into cycles, one per prime above p, and the
Frobenius shift acts on each cycle by rotation.  A stratum is a subset T of
the embeddings.  This module computes the derived combinatorial data: the
index tables mu / n / nu, and from mu the even-parity tilde closure and the
sign function; then the ramification set S(T), the Iwahori primes Iw(T) and,
read off n, the admissible set; and the key of T's orbit under the rotations
of each cycle and the swaps of cycles of equal length (`orbit_key`).
"""

import functools
from typing import Iterable, Mapping, NamedTuple


class EmbeddingId(NamedTuple):
    """One embedding, addressed by (cycle index, position on the cycle)."""

    cycle: int
    pos: int

    def key(self) -> str:
        """The text form 'cycle.pos', which `_component` parses back."""
        return f"{self.cycle}.{self.pos}"


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


def _memoised(fn):
    """Keep fn(owner, *args) in the memo of its owner, a stratum or a
    configuration, keyed by fn's module-qualified name and the positional
    arguments: memoised functions take required positional parameters only,
    and a keyword call is a TypeError.  Later calls, a stored None included,
    return the stored value itself, so callers must not mutate it."""
    name = f"{fn.__module__}.{fn.__qualname__}"
    missing = object()

    @functools.wraps(fn)
    def wrapper(owner, *args):
        key = (name, *args)
        memo = owner._memo
        value = memo.get(key, missing)
        if value is missing:
            value = memo[key] = fn(owner, *args)
        return value

    return wrapper


class _Frozen:
    """Base of the hand-written frozen records: `SplittingConfig`, `Stratum`
    and `weights.FormalMonomial`.

    A record lists its fields in `_fields` and sets them in its constructor
    through `object.__setattr__`.  The base owns the rest, all read off the
    tuple of the fields (`_values`): equality, with records of the same class
    only; hashing; the repr; and pickling, which rebuilds the record from its
    fields, so a memo stays behind (a configuration unpickles through
    `_unpickled_config`).  Assignment is refused, so hashes stay stable.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()


class SplittingConfig(_Frozen):
    """A prime p and the cycle lengths of the primes above it, with the
    degree and each embedding's coordinate; other data is in `_memo`."""

    __slots__ = ("p", "cycle_lengths", "degree", "_coordinate_of", "_memo")
    _fields = ("p", "cycle_lengths")

    def __init__(self, p: int, cycle_lengths: Iterable[int]) -> None:
        # exactly int: a float or a bool would reach the report as text
        if type(p) is not int:
            raise ValueError(f"p must be an integer, got {p!r}")
        if not _is_prime(p):
            raise ValueError("p must be prime")
        lengths = tuple(cycle_lengths)
        if not lengths:
            raise ValueError("at least one cycle is required")
        if any(type(f) is not int for f in lengths):
            raise ValueError(f"cycle lengths must be integers, got {lengths}")
        if any(f < 1 for f in lengths):
            raise ValueError("cycle lengths must be positive")
        embeddings = [EmbeddingId(c, i)
                      for c, f in enumerate(lengths) for i in range(f)]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "cycle_lengths", lengths)
        object.__setattr__(self, "degree", len(embeddings))
        object.__setattr__(self, "_coordinate_of",
                           {emb: i for i, emb in enumerate(embeddings)})
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        return _unpickled_config, self._values()

    def embeddings(self) -> list[EmbeddingId]:
        """All embeddings in (cycle, pos) lexicographic order, a new list."""
        return list(self._coordinate_of)

    def flat_index(self, emb: EmbeddingId) -> int:
        """Coordinate of an embedding in the (cycle, pos) lex order."""
        coordinates = self._coordinate_of
        if emb not in coordinates:
            self._check(emb)
        return coordinates[emb]

    def _check(self, emb: EmbeddingId) -> int:
        """The length of emb's cycle; ValueError unless emb is an embedding.
        Cycle and position are exactly `int`, as p is: 1.0 or True would
        reach the stratum's text form as '1.0' or 'True'."""
        cycle, pos = emb
        if type(cycle) is not int or not 0 <= cycle < len(self.cycle_lengths):
            raise ValueError(f"no cycle {cycle} in this configuration")
        f = self.cycle_lengths[cycle]
        if type(pos) is not int or not 0 <= pos < f:
            raise ValueError(f"position {pos} out of range for cycle {cycle} "
                             f"of length {f}")
        return f


@functools.lru_cache(maxsize=1)
def _unpickled_config(p: int, lengths: tuple[int, ...]) -> SplittingConfig:
    """The configuration `SplittingConfig(p, lengths)`, the same object as
    the last one unpickled in this process when the two are equal: the
    record tasks come sorted by configuration, so a worker of the pool keeps
    its configuration's memo from one chunk of tasks to the next."""
    return SplittingConfig(p, lengths)


def frobenius_shift(config: SplittingConfig, emb: EmbeddingId,
                    steps: int = 1) -> EmbeddingId:
    """Apply the Frobenius shift `steps` times (negative steps go backward);
    `steps` is exactly an `int`, as a position is."""
    if type(steps) is not int:
        raise ValueError(f"steps must be an integer, got {steps!r}")
    f = config._check(emb)
    return EmbeddingId(emb[0], (emb[1] + steps) % f)


class Stratum(_Frozen):
    """A subset T of the embeddings of a fixed configuration.

    The walk that checks the members also sets T's positions on each cycle.
    Data derived from T alone, the sorted complement included, is computed
    once per stratum and kept in `_memo` (see `_memoised`); at both levels
    the memo takes no part in equality, hashing or the repr.
    """

    __slots__ = ("config", "members", "_positions", "_memo")
    _fields = ("config", "members")

    def __init__(self, config: SplittingConfig,
                 members: Iterable[EmbeddingId]) -> None:
        # frozen before the checks walk it: a generator is read once
        members = frozenset(members)
        on_cycle = [set() for _ in config.cycle_lengths]
        for emb in members:
            if not isinstance(emb, EmbeddingId):
                raise ValueError(f"stratum member {emb!r} is not an "
                                 "EmbeddingId")
            config._check(emb)
            on_cycle[emb.cycle].add(emb.pos)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_positions", tuple(map(frozenset, on_cycle)))
        object.__setattr__(self, "_memo", {})

    def __contains__(self, emb: EmbeddingId) -> bool:
        return emb in self.members

    def cycle_members(self, cycle: int) -> frozenset[int]:
        return self._positions[cycle]

    def cycle_full(self, cycle: int) -> bool:
        return len(self.cycle_members(cycle)) == self.config.cycle_lengths[cycle]

    def key(self) -> str:
        """Canonical text form: comma-joined 'cycle.pos', empty for the empty set."""
        return ",".join(e.key() for e in sorted(self.members))

    @_memoised
    def complement(self) -> tuple[EmbeddingId, ...]:
        """The embeddings outside T in (cycle, pos) order: the order of the
        reduced coordinates on the complement of T."""
        return tuple(e for e in self.config.embeddings() if e not in self)


def orbit_key(stratum: Stratum) -> tuple:
    """The same key for two strata of a configuration iff one is the other
    rotated on some cycles and with cycles of equal length swapped.

    Each cycle gives its length and the least of the rotations of its
    membership mask (bit i for position i), and the pairs are sorted, so
    cycles of equal length compare as a multiset."""
    masks = (sum(1 << i for i in positions)
             for positions in stratum._positions)
    return tuple(sorted(
        (f, min((m >> k | m << f - k) & ((1 << f) - 1) for k in range(f)))
        for f, m in zip(stratum.config.cycle_lengths, masks)))


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


class PlacesS(NamedTuple):
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


class StratumTables(NamedTuple):
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
