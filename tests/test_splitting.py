"""Combinatorics of strata: index tables, closures, signs, admissible sets."""

import re

import pytest
from hypothesis import given, strategies as st

from oracle import admissible_by_cases, chain_closure
from strata_cones.splitting import (
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
from strata_cones.verify import partitions
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


def test_embedding_order_and_flat_index():
    assert CFG_D.degree == 2
    assert CFG_D.embeddings() == [EmbeddingId(0, 0), EmbeddingId(1, 0)]
    assert [CFG_C.flat_index(e) for e in CFG_C.embeddings()] == [0, 1, 2, 3]
    # the stored cycle offsets and embedding set take no part in equality,
    # hashing or the repr
    config = SplittingConfig(3, [2, 1, 3])
    assert [config.flat_index(e) for e in config.embeddings()] == \
        list(range(6))
    assert config._valid == frozenset(config.embeddings())
    assert config == SplittingConfig(3, (2, 1, 3))
    assert hash(config) == hash(SplittingConfig(3, (2, 1, 3)))
    assert repr(config) == "SplittingConfig(p=3, cycle_lengths=(2, 1, 3))"
    for name in ("_offsets", "_valid"):
        other = SplittingConfig(3, (2, 1, 3))
        object.__setattr__(other, name, ())
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
                config = SplittingConfig(p, lengths)
                embeddings = config.embeddings()
                for mask in range(1 << d):
                    assert_matches_chain_closure(Stratum(config, frozenset(
                        e for i, e in enumerate(embeddings) if mask >> i & 1)))
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
    assert adm <= t.complement()


@given(random_strata())
def test_key_round_trips(t):
    assert stratum_from_text(t.config, t.key()).members == t.members


# ---------------------------------------------------------------------------
# the per-stratum memo


def test_memo_keys_fill_in_defaults():
    t = stratum(CFG_C, (0, 1))
    cone = minimal_cone(t)
    assert minimal_cone(t, "min") is cone
    assert minimal_cone(t, variant="min") is cone
    assert minimal_cone(t, variant="min0") is minimal_cone(t, "min0")
    assert minimal_cone(t, "min0") is not cone
    with pytest.raises(TypeError, match="unexpected"):
        minimal_cone(t, kind="min")


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
