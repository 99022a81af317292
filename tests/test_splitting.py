"""Combinatorics of strata: chains, closures, index tables, refinements."""

import pytest
from hypothesis import given, strategies as st

from strata_cones.splitting import (
    Chain,
    EmbeddingId,
    SplittingConfig,
    Stratum,
    UndefinedIndexError,
    admissible_set,
    chain_decomposition,
    frobenius_shift,
    index_tables,
    places_and_iw,
    pullback_compatible,
    refinements,
    sign_epsilon,
    stratum_from_text,
    tilde_closure,
)
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
    with pytest.raises(ValueError, match="prime"):
        SplittingConfig(4, (2,))
    with pytest.raises(ValueError, match="at least one cycle"):
        SplittingConfig(3, ())
    with pytest.raises(ValueError, match="positive"):
        SplittingConfig(3, (2, 0))


def test_embedding_order_and_flat_index():
    assert CFG_D.degree == 2
    assert CFG_D.embeddings() == [EmbeddingId(0, 0), EmbeddingId(1, 0)]
    assert [CFG_C.flat_index(e) for e in CFG_C.embeddings()] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="no cycle 2"):
        CFG_D.flat_index(EmbeddingId(2, 0))
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
# chains and the tilde closure


def test_chain_decomposition_single_chain():
    t = stratum(CFG_B, (0, 1))
    chains = chain_decomposition(t)[0]
    assert chains == [Chain(head=EmbeddingId(0, 1),
                            members=(EmbeddingId(0, 1),))]
    assert chains[0].m == 0


def test_chain_decomposition_wraps_backward():
    # {beta0, beta1, beta2} in a 4-cycle is one chain headed at beta2
    t = stratum(CFG_C, (0, 0), (0, 1), (0, 2))
    chains = chain_decomposition(t)[0]
    assert len(chains) == 1
    assert chains[0].head == EmbeddingId(0, 2)
    assert chains[0].members == (EmbeddingId(0, 2), EmbeddingId(0, 1),
                                 EmbeddingId(0, 0))
    assert chains[0].m == 2


def test_chain_decomposition_full_cycle_is_none():
    t = stratum(CFG_D, (0, 0))
    decomp = chain_decomposition(t)
    assert decomp[0] is None
    assert decomp[1] == []


def test_tilde_closure_examples():
    # even-m chains grow one step backward, odd-m chains stay put
    t = stratum(CFG_B, (0, 1))
    assert tilde_closure(t).members == {EmbeddingId(0, 0), EmbeddingId(0, 1)}
    t2 = stratum(CFG_B, (0, 0), (0, 1))
    assert tilde_closure(t2).members == t2.members
    t3 = stratum(CFG_C, (0, 0), (0, 1), (0, 2))
    assert tilde_closure(t3).members == frozenset(CFG_C.embeddings())


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
    assert [tables.mu_of(EmbeddingId(0, i)) for i in range(3)] == [2, 1, 1]
    assert [tables.n_of(EmbeddingId(0, i)) for i in range(3)] == [2, 1, 3]
    assert tables.nu_of(EmbeddingId(0, 0)) == 0
    assert tables.nu_of(EmbeddingId(0, 1)) == 1
    assert tables.nu_of(EmbeddingId(0, 2)) == 0


def test_index_tables_undefined_entries():
    full = stratum(CFG_A, (0, 0), (0, 1))
    tables = index_tables(full)
    assert tables.mu_of(EmbeddingId(0, 0)) == 0
    with pytest.raises(UndefinedIndexError, match="undefined index nu"):
        tables.nu_of(EmbeddingId(0, 0))
    # the tilde closure covers the cycle, so n is the cycle length
    assert tables.n_of(EmbeddingId(0, 0)) == 2
    assert tables.n_of(EmbeddingId(0, 1)) == 2


def test_index_tables_cfg_c():
    t = stratum(CFG_C, (0, 0), (0, 1), (0, 2))
    tables = index_tables(t)
    assert [tables.mu_of(EmbeddingId(0, i)) for i in range(4)] == [3, 2, 1, 4]
    # tilde closure is the whole cycle, so n is the cycle length
    assert tables.n_of(EmbeddingId(0, 3)) == 4


def test_sign_epsilon_examples():
    eps = sign_epsilon(stratum(CFG_B, (0, 1)))
    assert [eps[EmbeddingId(0, i)] for i in range(3)] == [-1, 1, 1]
    eps = sign_epsilon(stratum(CFG_C, (0, 0), (0, 1), (0, 2)))
    assert [eps[EmbeddingId(0, i)] for i in range(4)] == [1, -1, 1, -1]
    eps = sign_epsilon(stratum(CFG_A, (0, 0), (0, 1)))
    assert set(eps.values()) == {0}


# ---------------------------------------------------------------------------
# admissible set, refinements, pullback


def test_admissible_set_examples():
    assert admissible_set(stratum(CFG_B, (0, 1))) == {EmbeddingId(0, 0)}
    assert admissible_set(stratum(CFG_A)) == {EmbeddingId(0, 0),
                                              EmbeddingId(0, 1)}
    assert admissible_set(stratum(CFG_A, (0, 1))) == frozenset()


def test_refinements_examples():
    t = stratum(CFG_B, (0, 1))
    refs = refinements(t)
    assert [r.key() for r in refs] == ["0.0,0.1", "0.1"]
    refs_a = refinements(stratum(CFG_A, (0, 1)))
    assert [r.key() for r in refs_a] == ["0.1"]


def test_pullback_compatible_examples():
    t = stratum(CFG_B, (0, 1))
    bigger = refinements(t)[0]
    assert pullback_compatible(t, bigger, (0, 0, 1)) is True
    assert pullback_compatible(t, bigger, (1, 0, 0)) is False
    # the window is {beta0, beta1}: mu relative to T is 2 at the added beta0
    assert pullback_compatible(t, bigger, (0, 1, 0)) is False


def test_pullback_rejects_non_refinement():
    t = stratum(CFG_B, (0, 1))
    other = stratum(CFG_B, (0, 2))
    with pytest.raises(ValueError, match="not a refinement"):
        pullback_compatible(t, other, (0, 0, 0))
    with pytest.raises(ValueError, match="length"):
        pullback_compatible(t, refinements(t)[0], (0, 0))


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


@given(random_strata())
def test_chains_partition_the_stratum(t):
    for c, chains in chain_decomposition(t).items():
        if chains is None:
            assert t.cycle_full(c)
            continue
        seen = []
        for ch in chains:
            seen.extend(ch.members)
            assert ch.members[0] == ch.head
            # consecutive members step backward along the cycle
            for a, b in zip(ch.members, ch.members[1:]):
                assert frobenius_shift(t.config, a, -1) == b
        assert len(seen) == len(set(seen))
        assert frozenset(e.pos for e in seen) == t.cycle_members(c)


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
    for beta in tables.tilde.members - t.members:
        assert tables.mu_of(beta) % 2 == 0
        assert tables.mu_of(beta) >= 2


@given(random_strata())
def test_index_tables_match_definitions(t):
    tables = index_tables(t)
    config = t.config
    for beta in config.embeddings():
        if t.cycle_full(beta.cycle):
            assert tables.mu_of(beta) == 0
            continue
        mu = tables.mu_of(beta)
        assert frobenius_shift(config, beta, mu) not in t
        assert all(frobenius_shift(config, beta, i) in t for i in range(1, mu))
        nu = tables.nu_of(beta)
        assert frobenius_shift(config, beta, -nu) not in t
        assert all(frobenius_shift(config, beta, -i) in t for i in range(nu))
        n = tables.n_of(beta)
        assert 1 <= n <= config.cycle_lengths[beta.cycle]
        if n < config.cycle_lengths[beta.cycle]:
            assert frobenius_shift(config, beta, n) not in tables.tilde
        assert all(frobenius_shift(config, beta, i) in tables.tilde
                   for i in range(1, n))


@given(random_strata())
def test_n_at_least_two_on_added_embeddings(t):
    tables = index_tables(t)
    for beta in tables.tilde.members - t.members:
        assert tables.n_of(beta) >= 2


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
def test_refinements_properties(t):
    tilde = tilde_closure(t)
    _, iw = places_and_iw(t)
    refs = refinements(t)
    keys = [r.key() for r in refs]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    assert any(r.members == t.members for r in refs)
    for r in refs:
        assert t.members <= r.members <= tilde.members
        assert places_and_iw(r)[1] == iw


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
