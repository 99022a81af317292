"""Combinatorics of strata: index tables, closures, signs, admissible sets."""

import copy
import functools
import inspect
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from oracle import admissible_by_cases, chain_closure
from strata_cones import splitting, verify, weights
from strata_cones.splitting import (
    EmbeddingId,
    SplittingConfig,
    Stratum,
    _memoised,
    admissible_set,
    frobenius_shift,
    index_tables,
    places_and_iw,
    sign_epsilon,
    stratum_from_text,
    tilde_closure,
)
from strata_cones.verify import _every_stratum, partitions
from strata_cones.weights import minimal_cone

CFG_A = SplittingConfig(3, (2,))
CFG_B = SplittingConfig(2, (3,))
CFG_C = SplittingConfig(2, (4,))
CFG_D = SplittingConfig(3, (1, 1))


def stratum(config, *pos):
    return Stratum(config, frozenset(EmbeddingId(c, i) for c, i in pos))


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_validation():
    # composites, even and odd, and 1, below the smallest prime
    for p in (4, 9, 1):
        with pytest.raises(ValueError, match="prime"):
            SplittingConfig(p, (2,))
    with pytest.raises(ValueError, match="at least one cycle"):
        SplittingConfig(3, ())
    with pytest.raises(ValueError, match="positive"):
        SplittingConfig(3, (2, 0))


@pytest.mark.parametrize("p, lengths, message", [
    (2.0, (2,), "p must be an integer, got 2.0"),
    (True, (2,), "p must be an integer, got True"),
    (2, (True,), r"cycle lengths must be integers, got \(True,\)"),
    (3, (1.5,), r"cycle lengths must be integers, got \(1.5,\)"),
    (3, (2, 2.0), r"cycle lengths must be integers, got \(2, 2.0\)"),
], ids=["float-p", "bool-p", "bool-length", "float-length", "second-length"])
def test_config_refuses_what_is_not_exactly_an_int(p, lengths, message):
    # a float or a bool would reach the report as "2.0" or "True"
    with pytest.raises(ValueError, match=message):
        SplittingConfig(p, lengths)


def test_embedding_order_and_flat_index():
    assert CFG_D.degree == 2
    assert CFG_D.embeddings() == [EmbeddingId(0, 0), EmbeddingId(1, 0)]
    assert [CFG_C.flat_index(e) for e in CFG_C.embeddings()] == [0, 1, 2, 3]
    # the memo takes no part in equality, hashing or the repr
    config = SplittingConfig(3, [2, 1, 3])
    assert [config.flat_index(e) for e in config.embeddings()] == \
        list(range(6))
    weights.weight_basis(config, "h", EmbeddingId(2, 1))
    assert config._memo
    assert config == SplittingConfig(3, (2, 1, 3))
    assert hash(config) == hash(SplittingConfig(3, (2, 1, 3)))
    assert repr(config) == "SplittingConfig(p=3, cycle_lengths=(2, 1, 3))"
    other = SplittingConfig(3, (2, 1, 3))
    object.__setattr__(other, "_memo", {"poked": ()})
    assert other == config and hash(other) == hash(config)
    assert repr(other) == repr(config)
    # every validating call site keeps its messages
    calls = [CFG_D.flat_index, lambda e: frobenius_shift(CFG_D, e),
             lambda e: stratum(CFG_D, e)]
    for call in calls:
        for emb, msg in [
                (EmbeddingId(2, 0), "no cycle 2 in this configuration"),
                (EmbeddingId(-1, 0), "no cycle -1 in this configuration"),
                (EmbeddingId(1, 1),
                 "position 1 out of range for cycle 1 of length 1"),
                (EmbeddingId(0, -1),
                 "position -1 out of range for cycle 0 of length 1")]:
            with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                call(emb)
    with pytest.raises(ValueError, match="out of range"):
        CFG_B.flat_index(EmbeddingId(0, 3))


def test_frobenius_shift_wraps():
    assert frobenius_shift(CFG_B, EmbeddingId(0, 2)) == EmbeddingId(0, 0)
    assert frobenius_shift(CFG_B, EmbeddingId(0, 0), -1) == EmbeddingId(0, 2)
    assert frobenius_shift(CFG_D, EmbeddingId(1, 0), 5) == EmbeddingId(1, 0)


def test_frobenius_shift_validates_by_arithmetic_alone():
    # a fresh configuration: the shift and its refusals leave the memo empty
    config = SplittingConfig(5, (3, 2))
    assert frobenius_shift(config, EmbeddingId(1, 1), 3) == EmbeddingId(1, 0)
    for emb, msg in [
            (EmbeddingId(2, 0), "no cycle 2 in this configuration"),
            (EmbeddingId(-1, 1), "no cycle -1 in this configuration"),
            (EmbeddingId(0, 3),
             "position 3 out of range for cycle 0 of length 3"),
            (EmbeddingId(1, -1),
             "position -1 out of range for cycle 1 of length 2"),
            (EmbeddingId(0, 1.5),
             "position 1.5 out of range for cycle 0 of length 3"),
            (EmbeddingId(0, 1.0),
             "position 1.0 out of range for cycle 0 of length 3"),
            (EmbeddingId(False, 1), "no cycle False in this configuration")]:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            frobenius_shift(config, emb, 1)
    # a step count is exactly an int too: 1.0 would make the position 1.0
    for steps in (1.0, True, "1"):
        with pytest.raises(ValueError,
                           match=f"^steps must be an integer, got "
                                 f"{re.escape(repr(steps))}$"):
            frobenius_shift(config, EmbeddingId(0, 0), steps)
    assert config._memo == {}


def test_a_stratum_reads_its_members_once():
    # the members are frozen before the checks walk them, so a generator
    # gives the stratum it lists, not the empty one
    t = Stratum(CFG_B, (EmbeddingId(0, i) for i in (0, 1)))
    assert t.key() == "0.0,0.1"
    assert t == stratum(CFG_B, (0, 0), (0, 1))
    with pytest.raises(ValueError, match="^position 3 out of range"):
        Stratum(CFG_B, (EmbeddingId(0, i) for i in (0, 3)))


def test_stratum_text_round_trip():
    t = stratum(CFG_B, (0, 1))
    assert stratum_from_text(CFG_B, "0.1").members == t.members
    assert stratum_from_text(CFG_B, "").members == frozenset()
    assert stratum_from_text(CFG_B, "all").members == frozenset(CFG_B.embeddings())
    assert stratum_from_text(CFG_D, "0.0,1.0").key() == "0.0,1.0"
    assert stratum(CFG_B).key() == ""


@pytest.mark.parametrize("bad,msg", [
    ("0.3", "out of range"),
    ("1.0", "no cycle 1"),
    ("x", "expected 'cycle.pos'"),
    ("0.y", "expected integers"),
    ("0.1,0.1", "repeated"),
])
def test_stratum_text_errors(bad, msg):
    with pytest.raises(ValueError, match="invalid stratum component #"):
        stratum_from_text(CFG_B, bad)
    with pytest.raises(ValueError, match=msg):
        stratum_from_text(CFG_B, bad)


# ---------------------------------------------------------------------------
# the tilde closure


def test_tilde_closure_examples():
    # even-m chains grow one step backward, odd-m chains stay put
    t = stratum(CFG_B, (0, 1))
    assert tilde_closure(t).members == {EmbeddingId(0, 0), EmbeddingId(0, 1)}
    t2 = stratum(CFG_B, (0, 0), (0, 1))
    assert tilde_closure(t2).members == t2.members
    t3 = stratum(CFG_C, (0, 0), (0, 1), (0, 2))
    assert tilde_closure(t3).members == frozenset(CFG_C.embeddings())
    # a chain running backward through position 0 wraps to the cycle's end
    t4 = stratum(CFG_C, (0, 1), (0, 0), (0, 3))
    assert tilde_closure(t4).members == frozenset(CFG_C.embeddings())
    # a full cycle has no chains and an empty one nothing to extend
    t5 = stratum(CFG_D, (0, 0))
    assert tilde_closure(t5).members == t5.members


def test_places_and_iw_examples():
    s, iw = places_and_iw(stratum(CFG_C, (0, 0), (0, 1), (0, 2), (0, 3)))
    assert len(s.embeddings) == 4
    assert s.primes == frozenset()
    assert iw == {0}

    s, iw = places_and_iw(stratum(CFG_D, (0, 0)))
    assert s.embeddings == {EmbeddingId(0, 0)}
    assert s.primes == {0}
    assert s.cardinality() == 2
    assert iw == frozenset()


# ---------------------------------------------------------------------------
# index tables and signs


def test_index_tables_cfg_b():
    t = stratum(CFG_B, (0, 1))
    tables = index_tables(t)
    assert [tables.mu[EmbeddingId(0, i)] for i in range(3)] == [2, 1, 1]
    assert [tables.n[EmbeddingId(0, i)] for i in range(3)] == [2, 1, 3]
    assert tables.nu[EmbeddingId(0, 0)] == 0
    assert tables.nu[EmbeddingId(0, 1)] == 1
    assert tables.nu[EmbeddingId(0, 2)] == 0


def test_index_tables_undefined_entries():
    full = stratum(CFG_A, (0, 0), (0, 1))
    tables = index_tables(full)
    assert tables.mu[EmbeddingId(0, 0)] == 0
    # nu is undefined on a cycle entirely in T
    assert EmbeddingId(0, 0) not in tables.nu
    # the tilde closure covers the cycle, so n is the cycle length
    assert tables.n[EmbeddingId(0, 0)] == 2
    assert tables.n[EmbeddingId(0, 1)] == 2


def test_index_tables_cfg_c():
    t = stratum(CFG_C, (0, 0), (0, 1), (0, 2))
    tables = index_tables(t)
    assert [tables.mu[EmbeddingId(0, i)] for i in range(4)] == [3, 2, 1, 4]
    # tilde closure is the whole cycle, so n is the cycle length
    assert tables.n[EmbeddingId(0, 3)] == 4


def test_sign_epsilon_examples():
    eps = sign_epsilon(stratum(CFG_B, (0, 1)))
    assert [eps[EmbeddingId(0, i)] for i in range(3)] == [-1, 1, 1]
    eps = sign_epsilon(stratum(CFG_C, (0, 0), (0, 1), (0, 2)))
    assert [eps[EmbeddingId(0, i)] for i in range(4)] == [1, -1, 1, -1]
    eps = sign_epsilon(stratum(CFG_A, (0, 0), (0, 1)))
    assert set(eps.values()) == {0}


# ---------------------------------------------------------------------------
# admissible set


def test_admissible_set_examples():
    assert admissible_set(stratum(CFG_B, (0, 1))) == {EmbeddingId(0, 0)}
    assert admissible_set(stratum(CFG_A)) == {EmbeddingId(0, 0),
                                              EmbeddingId(0, 1)}
    assert admissible_set(stratum(CFG_A, (0, 1))) == frozenset()


# ---------------------------------------------------------------------------
# properties over random strata


@st.composite
def random_strata(draw, max_degree=6):
    p = draw(st.sampled_from([2, 3, 5]))
    lengths = []
    left = draw(st.integers(min_value=1, max_value=max_degree))
    while left:
        f = draw(st.integers(min_value=1, max_value=left))
        lengths.append(f)
        left -= f
    config = SplittingConfig(p, tuple(lengths))
    members = draw(st.frozensets(st.sampled_from(config.embeddings())))
    return Stratum(config, members)


def assert_matches_chain_closure(t):
    """The closure, signs and n read off mu agree with the chain
    construction, and the admissible set read off n with its case analysis
    (EmbeddingId compares equal to its (cycle, pos) pair)."""
    tilde, eps, n = chain_closure(t.config.cycle_lengths, t.members)
    assert tilde_closure(t).members == tilde, t
    assert sign_epsilon(t) == eps, t
    assert index_tables(t).n == n, t
    assert admissible_set(t) == admissible_by_cases(t.config.cycle_lengths,
                                                    t.members), t


def test_mu_readings_match_the_chains_on_every_small_stratum():
    count = 0
    for p in (2, 3):
        for d in range(1, 7):
            for lengths in partitions(d):
                for t in _every_stratum(SplittingConfig(p, lengths)):
                    assert_matches_chain_closure(t)
                    count += 1
    assert count == 2 * 1042


@given(random_strata())
def test_mu_readings_match_the_chains(t):
    assert_matches_chain_closure(t)


@given(random_strata())
def test_tilde_closure_properties(t):
    tilde = tilde_closure(t)
    assert t.members <= tilde.members
    for c in range(len(t.config.cycle_lengths)):
        if not t.cycle_full(c):
            assert len(tilde.cycle_members(c)) % 2 == 0
    # one step forward from any added embedding lands back in T
    for beta in tilde.members - t.members:
        assert frobenius_shift(t.config, beta) in t


@given(random_strata())
def test_mu_is_even_on_added_embeddings(t):
    tables = index_tables(t)
    for beta in tilde_closure(t).members - t.members:
        assert tables.mu[beta] % 2 == 0
        assert tables.mu[beta] >= 2


@given(random_strata())
def test_index_tables_match_definitions(t):
    tables = index_tables(t)
    tilde = tilde_closure(t)
    config = t.config
    for beta in config.embeddings():
        if t.cycle_full(beta.cycle):
            assert tables.mu[beta] == 0
            assert beta not in tables.nu
            continue
        mu = tables.mu[beta]
        assert frobenius_shift(config, beta, mu) not in t
        assert all(frobenius_shift(config, beta, i) in t for i in range(1, mu))
        nu = tables.nu[beta]
        assert frobenius_shift(config, beta, -nu) not in t
        assert all(frobenius_shift(config, beta, -i) in t for i in range(nu))
        n = tables.n[beta]
        assert 1 <= n <= config.cycle_lengths[beta.cycle]
        if n < config.cycle_lengths[beta.cycle]:
            assert frobenius_shift(config, beta, n) not in tilde
        assert all(frobenius_shift(config, beta, i) in tilde
                   for i in range(1, n))


@given(random_strata())
def test_n_at_least_two_on_added_embeddings(t):
    tables = index_tables(t)
    for beta in tilde_closure(t).members - t.members:
        assert tables.n[beta] >= 2


@given(random_strata())
def test_ramification_parity_and_iwahori(t):
    s, iw = places_and_iw(t)
    assert s.cardinality() % 2 == 0
    for c, f in enumerate(t.config.cycle_lengths):
        assert (c in iw) == (t.cycle_full(c) and f % 2 == 0)
        assert (c in s.primes) == (t.cycle_full(c) and f % 2 == 1)


@given(random_strata())
def test_sign_epsilon_support(t):
    eps = sign_epsilon(t)
    tilde = tilde_closure(t)
    for beta, value in eps.items():
        if t.cycle_full(beta.cycle):
            assert value == 0
        elif beta in tilde:
            assert value in (-1, 1)
        else:
            assert value == 1


@given(random_strata())
def test_admissible_set_avoids_stratum(t):
    adm = admissible_set(t)
    assert adm.isdisjoint(t.members)
    assert adm <= set(t.complement())


@given(random_strata())
def test_key_round_trips(t):
    assert stratum_from_text(t.config, t.key()).members == t.members


@st.composite
def loose_members(draw):
    """A configuration and members as a caller might pass them: cycles and
    positions that may be floats, bools or out of range, in `EmbeddingId`s
    or in plain tuples."""
    config = draw(random_strata(max_degree=4)).config
    number = st.one_of(st.integers(-1, 4), st.booleans(),
                       st.integers(0, 4).map(float), st.just(0.5))
    pair = st.tuples(number, number)
    member = st.one_of(pair.map(lambda cp: EmbeddingId(*cp)), pair)
    return config, draw(st.frozensets(member, max_size=3))


@given(loose_members())
def test_members_that_are_not_exactly_embeddings_are_refused(loose):
    # a refused member would otherwise reach the text form as '0.1.0' or
    # 'False.True', or break `key()` and every builder
    config, members = loose
    exact = all(isinstance(e, EmbeddingId) and type(e.cycle) is int
                and type(e.pos) is int and e in config.embeddings()
                for e in members)
    if not exact:
        with pytest.raises(ValueError):
            Stratum(config, members)
        return
    t = Stratum(config, members)
    assert stratum_from_text(config, t.key()) == t


# ---------------------------------------------------------------------------
# the per-stratum memo


@given(random_strata())
def test_complement_is_the_sorted_rest(t):
    rest = set(t.config.embeddings()) - t.members
    assert t.complement() == tuple(sorted(rest))
    assert t.complement() is t.complement()


def test_memo_keys_are_the_positional_arguments():
    t = stratum(CFG_C, (0, 1))
    cone = minimal_cone(t, "min")
    assert minimal_cone(t, "min") is cone
    assert minimal_cone(t, "min0") is minimal_cone(t, "min0")
    assert minimal_cone(t, "min0") is not cone
    with pytest.raises(TypeError):
        minimal_cone(t, variant="min")
    with pytest.raises(TypeError):
        minimal_cone(t)


def memoised_functions() -> dict:
    """The functions behind every memo wrapper bound in `splitting`,
    `weights` and `verify`, methods included, found by the wrapper's code
    object."""
    wrapper = index_tables.__code__
    found = {}
    for module in (splitting, weights, verify):
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type)]
        for owner in owners:
            for value in vars(owner).values():
                if getattr(value, "__code__", None) is wrapper:
                    found[value.__qualname__] = value.__wrapped__
    return found


def test_memoised_functions_take_required_positional_arguments_only():
    found = memoised_functions()
    assert {"index_tables", "cone_D", "minimal_cone", "f_weight",
            "weight_basis", "weight_pair", "_cycle_stratum"} <= set(found)
    positional = (inspect.Parameter.POSITIONAL_ONLY,
                  inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for name, fn in found.items():
        for param in inspect.signature(fn).parameters.values():
            assert param.kind in positional, (name, param)
            assert param.default is param.empty, (name, param)


def test_memo_keys_tell_modules_apart():
    # same __name__ as splitting.index_tables, defined in another module
    def index_tables(stratum):
        return "not the tables"

    shadow = _memoised(index_tables)
    t = stratum(CFG_C, (0, 1))
    tables = splitting.index_tables(t)
    assert shadow(t) == "not the tables"
    assert splitting.index_tables(t) is tables


def test_a_memoised_none_is_built_once_per_owner(monkeypatch):
    # `_hasse_identity` returns None when every identity holds; a memo that
    # read None as missing would build it again for every stratum checked
    built = verify._hasse_identity.__wrapped__
    config = SplittingConfig(2, (2, 1))
    assert built(config) is None
    calls = []

    @functools.wraps(built)
    def counted(config):
        calls.append(config)
        return built(config)

    monkeypatch.setattr(verify, "_hasse_identity", _memoised(counted))
    report = verify.check_report(config)
    assert report.summary["strata"] == 8
    assert calls == [config]


@given(random_strata(max_degree=10))
def test_constructor_fields_equal_their_definitions(t):
    config = t.config
    lengths = config.cycle_lengths
    assert config.degree == sum(lengths)
    order = [EmbeddingId(c, i) for c, f in enumerate(lengths)
             for i in range(f)]
    listed = config.embeddings()
    assert listed == order and listed is not config.embeddings()
    listed.clear()
    assert [config.flat_index(e) for e in config.embeddings()] == \
        list(range(config.degree))
    for c in range(len(lengths)):
        assert t.cycle_members(c) == frozenset(
            e.pos for e in t.members if e.cycle == c)
    # a pickled pair leaves its memos behind and builds its fields anew
    index_tables(t)
    weights.weight_basis(config, "h", EmbeddingId(0, 0))
    config_copy, copy = pickle.loads(pickle.dumps((config, t)))
    assert config_copy is not config and copy.config is config_copy
    assert config_copy.degree == config.degree
    assert config_copy.embeddings() == order
    assert config_copy._coordinate_of == config._coordinate_of
    assert [copy.cycle_members(c) for c in range(len(lengths))] == \
        [t.cycle_members(c) for c in range(len(lengths))]
    assert config_copy._memo == {} and copy._memo == {}


@given(random_strata())
def test_memo_is_invisible_to_equality_and_hashing(t):
    filled = Stratum(t.config, t.members)
    index_tables(filled)
    sign_epsilon(filled)
    admissible_set(filled)
    empty = Stratum(t.config, t.members)
    assert filled._memo and not empty._memo
    assert filled == empty and hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)
    assert {filled: "found"}[empty] == "found"
    # and so does the configuration's
    config = SplittingConfig(t.config.p, t.config.cycle_lengths)
    weights.weight_basis(config, "h", EmbeddingId(0, 0))
    bare = SplittingConfig(t.config.p, t.config.cycle_lengths)
    assert config._memo and not bare._memo
    assert config == bare and hash(config) == hash(bare)
    assert repr(config) == repr(bare)
    assert {config: "found"}[bare] == "found"
    # and a monomial reads its base's fields, not its memo
    factors = (("h", EmbeddingId(0, 0), 1),)
    monomial = weights.FormalMonomial(filled, factors)
    twin = weights.FormalMonomial(empty, factors)
    assert monomial == twin and hash(monomial) == hash(twin)
    assert repr(monomial) == repr(twin) == (
        f"FormalMonomial(base={empty!r}, factors={factors!r})")
    # a record equals only a record of its own class, never a plain tuple
    # of its fields, and hashes as that tuple
    for record in (filled, config, monomial):
        fields = tuple(getattr(record, name) for name in record._fields)
        other = type("Other", (type(record),), {"__slots__": ()})(*fields)
        assert record != other and other != record
        assert record.__eq__(fields) is NotImplemented and record != fields
        assert hash(record) == hash(fields)


def test_records_refuse_assignment():
    # assignment and deletion are refused, so a hash read once stays valid
    config = SplittingConfig(2, (3,))
    t = stratum(config, (0, 1))
    monomial = weights.FormalMonomial(t, (("h", EmbeddingId(0, 0), 1),))
    hashes = list(map(hash, (config, t, monomial)))
    for record, name, value in [
            (config, "p", 3), (config, "cycle_lengths", (1,)),
            (config, "_memo", {}), (t, "config", CFG_A),
            (t, "members", frozenset()), (t, "_memo", {}),
            (monomial, "base", stratum(config)), (monomial, "factors", ()),
            (monomial, "other", 1)]:
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, value)
        with pytest.raises(AttributeError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert list(map(hash, (config, t, monomial))) == hashes
    assert t.members == {EmbeddingId(0, 1)} and config.p == 2


def test_a_pickled_record_leaves_its_memo_behind():
    # `--jobs 2` sends configurations to the workers: a record is rebuilt
    # from its fields, so the sender's memo does not travel with it
    t = stratum(SplittingConfig(3, (2, 1)), (0, 1), (1, 0))
    index_tables(t)
    weights.weight_basis(t.config, "h", EmbeddingId(1, 0))
    monomial = weights.FormalMonomial(t, (("h", EmbeddingId(0, 0), 1),))
    assert t._memo and t.config._memo
    for record in (t.config, t, monomial):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        assert repr(copy) == repr(record)
    config, copy = pickle.loads(pickle.dumps((t.config, t)))
    assert config._memo == {} and copy._memo == {}
    assert copy.config is config
    assert pickle.loads(pickle.dumps(monomial)).base._memo == {}


def round_trip(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, round_trip],
                         ids=["copy", "deepcopy", "pickle"])
def test_each_copy_of_a_configuration_is_new_with_an_empty_memo(duplicate):
    # every record copies by one rule, its fields: a copy taken right after
    # an equal configuration was copied, and warmed, is still a new record
    sent = SplittingConfig(2, (3,))
    first = duplicate(sent)
    assert first == sent and first is not sent and first._memo == {}
    weights.weight_basis(first, "h", EmbeddingId(0, 0))
    for again in (duplicate(sent), duplicate(SplittingConfig(2, (3,)))):
        assert again == first and again is not first
        assert again._memo == {}
