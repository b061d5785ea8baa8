"""Partition calculus: enumeration, pi_q, rho_q, and the reference refinement order."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given
from reference import brute_force_np_rho, canonical_term_key, refines, sub_multisets

import cobordlab.partitions as pt
from cobordlab.partitions import np_heads, rho_q

# weakly decreasing tuples of small positive parts
partition_st = st.lists(st.integers(1, 8), min_size=0, max_size=5).map(
    lambda v: tuple(sorted(v, reverse=True))
)

# classical p(n) for n = 0..10
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def np_set(n, p):
    """The members of N_p up to n, as a plain set."""
    return frozenset(i for i in range(1, n + 1) if pt.in_np(i, p))


def test_partitions_of_counts():
    for n, count in enumerate(PARTITION_COUNTS):
        assert len(pt.partitions_of(n)) == count


def test_partitions_of_canonical_order():
    got = pt.partitions_of(4)
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # descending lexicographic throughout, and every entry sums to n
    for n in range(1, 9):
        ps = pt.partitions_of(n)
        assert ps == sorted(ps, reverse=True)
        assert all(sum(a) == n for a in ps)
        assert len(set(ps)) == len(ps)


def test_partitions_of_restricted_parts():
    assert pt.partitions_of(9, parts=[2, 5]) == [(5, 2, 2)]
    assert pt.partitions_of(7, parts={2, 4}) == []
    # a plain set of N_2's members works as a parts filter
    assert pt.partitions_of(4, parts=np_set(4, 2)) == [(4,), (2, 2)]


def test_partitions_of_edges():
    assert pt.partitions_of(0) == [()]
    assert pt.partitions_of(-3) == []
    n2 = np_set(8, 2)
    assert pt.partitions_of(0, parts=n2) == [()]
    assert pt.partitions_of(-3, parts=n2) == []
    with pytest.raises(ValueError):
        pt.partitions_of(pt.DEFAULT_WEIGHT_CAP + 1)


def test_the_weight_cap_is_inclusive():
    assert pt.partitions_of(pt.DEFAULT_WEIGHT_CAP, parts=(64,)) == [(64,)]
    with pytest.raises(ValueError, match="weight 65 exceeds cap 64"):
        pt.partitions_of(65, parts=(65,))


def test_a_length_cap_keeps_the_partitions_within_it_in_order():
    for n in range(21):
        everything = pt.partitions_of(n)
        for cap in range(n + 2):
            want = [b for b in everything if len(b) <= cap]
            assert pt.partitions_of(n, max_len=cap) == want, (n, cap)
    for p in (2, 3, 5):
        for n in range(13):
            for cap in range(n + 1):
                want = [b for b in pt.np_partitions(n, p) if len(b) <= cap]
                assert pt.partitions_of(n, parts=np_set(n, p), max_len=cap) == want, (p, n, cap)


def test_partitions_of_memo_is_not_shared_with_callers():
    n2 = np_set(6, 2)
    want_all, want_n2 = list(pt.partitions_of(6)), list(pt.partitions_of(6, parts=n2))
    for got in (pt.partitions_of(6), pt.partitions_of(6, parts=n2)):
        got.append((99,))
        got.sort()
        del got[0]
    assert pt.partitions_of(6) == want_all
    assert pt.partitions_of(6, parts=n2) == want_n2
    assert want_all[0] == (6,) and len(want_all) == 11
    with pytest.raises(ValueError):
        pt.partitions_of(65)


def test_is_partition():
    assert pt.is_partition(())
    assert pt.is_partition((3, 1, 1))
    assert not pt.is_partition((1, 3))
    assert not pt.is_partition((0,))
    assert not pt.is_partition([3, 1])
    assert pt.check_partition((3, 1, 1)) == (3, 1, 1)
    with pytest.raises(ValueError):
        pt.check_partition((2, 0))


def test_sub_multisets():
    subs = sub_multisets((2, 1, 1))
    assert len(subs) == 6
    assert set(subs) == {(), (1,), (1, 1), (2,), (2, 1), (2, 1, 1)}


def test_refines_basic():
    assert refines((1, 1, 1, 1), (2, 2))
    assert refines((2, 1, 1), (2, 2))
    assert not refines((3, 1), (2, 2))
    assert not refines((4,), (2, 2))
    assert refines((2, 2), (4,))
    assert not refines((2, 2), (2, 1, 1))  # coarse never refines fine
    assert refines((), ())
    assert not refines((2,), (3,))  # weight mismatch


def test_refines_reflexive_and_transitive():
    ps = pt.partitions_of(6)
    for a in ps:
        assert refines(a, a)
    for a in ps:
        for b in ps:
            if not refines(a, b):
                continue
            for c in ps:
                if refines(b, c):
                    assert refines(a, c)


def test_everything_refines_the_single_part():
    for alpha in pt.partitions_of(7):
        assert refines(alpha, (7,))


def test_pi_q_values():
    assert pt.pi_q((5, 3, 1), 2) == 3
    assert pt.pi_q((), 7) == 0
    assert pt.pi_q((9,), 1) == 9
    with pytest.raises(ValueError):
        pt.pi_q((2,), 0)


@given(partition_st, partition_st, st.integers(1, 5))
def test_pi_q_additive_under_union(alpha, beta, q):
    union = tuple(sorted(alpha + beta, reverse=True))
    assert pt.pi_q(union, q) == pt.pi_q(alpha, q) + pt.pi_q(beta, q)


@given(partition_st, st.integers(1, 5))
def test_pi_q_weight_sandwich(alpha, q):
    # q*floor(a/q) <= a <= q*floor(a/q) + q - 1, summed over parts
    total = sum(alpha)
    assert q * pt.pi_q(alpha, q) <= total
    assert total <= q * pt.pi_q(alpha, q) + (q - 1) * len(alpha)


def test_in_np_tables():
    assert [i for i in range(1, 17) if pt.in_np(i, 2)] == [2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 16]
    assert [i for i in range(1, 10) if pt.in_np(i, 3)] == [1, 3, 4, 5, 6, 7, 9]
    assert not pt.in_np(0, 2)
    assert not pt.in_np(26, 3)  # 27 = 3^3


def test_is_power_of_and_is_prime():
    assert pt.is_power_of(1, 5)
    assert pt.is_power_of(8, 2)
    assert not pt.is_power_of(6, 2)
    assert not pt.is_power_of(0, 3)
    assert pt.is_prime(2) and pt.is_prime(13)
    assert not pt.is_prime(1) and not pt.is_prime(9)
    pt.check_prime(13)
    with pytest.raises(ValueError, match="^9 is not prime$"):
        pt.check_prime(9)


def _by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _strong_probable_prime(n, a):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_agrees_with_trial_division_below_100000():
    assert [n for n in range(100_000) if pt.is_prime(n)] == [n for n in range(100_000) if _by_trial_division(n)]


@pytest.mark.parametrize("n, fooled", [
    (3825123056546413051, 11),  # strong pseudoprime to the bases 2 ... 31
    (318665857834031151167461, 12),  # to the bases 2 ... 37: only base 41 shows it composite
])
def test_is_prime_rejects_strong_pseudoprimes(n, fooled):
    bases = pt._MR_BASES
    assert all(_strong_probable_prime(n, a) for a in bases[:fooled])
    assert not _strong_probable_prime(n, bases[fooled])
    assert not pt.is_prime(n)


def test_is_prime_accepts_large_primes():
    assert pt.is_prime(2**61 - 1)
    assert pt.is_prime(2**62 - 57)
    assert not pt.is_prime((2**61 - 1) * 1000003)  # two primes above 41, product below _MR_LIMIT
    assert 47**15 > pt._MR_LIMIT
    with pytest.raises(ValueError, match=f"^cannot decide whether {47**15} is prime: .* below {pt._MR_LIMIT}$"):
        pt.is_prime(47**15)  # above the bound Miller-Rabin to these bases is not proven exact
    assert not pt.is_prime(3 * 47**15)  # a multiple of a base is still decided at once


def test_index_set_membership():
    # the heads of N_2 minus {5} mod 2: 2 heads class 0, and class 1 skips 1, 3
    # and 7 (outside N_2) and 5 (excluded) to reach 9
    assert np_heads(2, 2, frozenset({5})) == (2, 9)
    assert np_heads(2, 2) == (2, 5)
    # a first member below q has ratio 0 and comes alone: 1 is in N_3
    assert np_heads(3, 3) == (1,)
    assert np_heads(3, 3, frozenset({1, 2, 3})) == (4, 5, 6)
    # every residue class has a head, and each is a member
    heads = np_heads(3, 9, frozenset(range(1, 12)))
    assert sorted(h % 9 for h in heads) == list(range(9))
    assert all(pt.in_np(h, 3) and h >= 12 for h in heads)


def test_index_set_validation():
    members = "^index sets contain positive integers only$"
    order = "^q must be a positive integer$"
    for call, message in [
        (lambda: rho_q([0], 2), members),
        (lambda: rho_q([-2, 3], 2), members),
        (lambda: rho_q([1.5], 2), members),
        (lambda: rho_q([3], 0), order),
        (lambda: rho_q([], -1), order),
        (lambda: np_heads(4, 4), "^4 is not prime$"),
        (lambda: np_heads(2, 0), order),
        (lambda: np_heads(3, -3, frozenset({1})), order),
    ]:
        with pytest.raises(ValueError, match=message):
            call()


def test_rho_finite():
    assert rho_q({6, 8}, 3) == Fraction(1, 4)
    assert rho_q([], 3) == Fraction(1, 3)
    assert rho_q({1, 2}, 5) == 0


def test_rho_cofinite():
    assert rho_q(np_heads(2, 2), 2) == Fraction(2, 5)
    assert rho_q(np_heads(2, 2, frozenset({5})), 2) == Fraction(4, 9)
    # 1 is in N_3 and floor(1/3) = 0, so the infimum collapses
    assert rho_q(np_heads(3, 3), 3) == 0
    # an order of 2^40 answers at once: 2 is in N_2 and below q
    assert np_heads(2, 2**40) == (2,)
    assert rho_q(np_heads(2, 2**40, frozenset({1, 2})), 2**40) == 0
    # negative exclusions exclude nothing and do not shorten the scan
    assert np_heads(2, 2, frozenset({-7})) == np_heads(2, 2)
    with pytest.raises(ValueError):
        rho_q(np_heads(2, 2), 0)


def test_np_heads_reach_the_brute_force_minimum():
    # 800 seeded cases, p in {2, 3, 5, 7}, q = p^0 .. p^4: an exclusion set is
    # either scattered or an initial run past q, so both the ratio-0 answer and
    # heads past max(excluded) are reached; against a scan of range(1, max + 20q)
    rng = random.Random(36)
    for p in (2, 3, 5, 7):
        for k in range(5):
            q = p**k
            for case in range(40):
                excluded = set(rng.sample(range(1, 3 * q + 10), rng.randint(0, 6)))
                if case % 2:
                    excluded |= set(range(1, q + rng.randrange(2 * q + 1)))
                excluded = frozenset(excluded)
                heads = np_heads(p, q, excluded)
                assert all(pt.in_np(h, p) and h not in excluded for h in heads), (p, q, excluded)
                assert rho_q(heads, q) == brute_force_np_rho(p, q, excluded), (p, q, excluded)


@given(st.sets(st.integers(1, 40), min_size=1, max_size=8), st.integers(1, 5))
def test_rho_is_the_min_ratio(members, q):
    val = rho_q(members, q)
    assert val == min(Fraction(i // q, i) for i in members)
    # shrinking the set can only raise the infimum
    sub = set(list(members)[: max(1, len(members) // 2)])
    assert rho_q(sub, q) >= val


def test_canonical_term_key_order():
    everything = [a for n in range(4) for a in pt.partitions_of(n)]
    got = sorted(everything, key=canonical_term_key)
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def test_np_partitions_is_the_restricted_enumeration():
    for p in (2, 3, 5):
        for n in range(21):
            got = pt.np_partitions(n, p)
            assert isinstance(got, tuple) and got is pt.np_partitions(n, p)
            assert list(got) == pt.partitions_of(n, parts=np_set(n, p))
            assert all(pt.in_np(part, p) for beta in got for part in beta)
    with pytest.raises(ValueError):
        pt.np_partitions(pt.DEFAULT_WEIGHT_CAP + 1, 2)
    with pytest.raises(ValueError):
        pt.np_partitions(4, 4)


def test_max_pi_q_values_and_q_check():
    # q changes between calls over the same partitions, so the memo must key on both
    for n in (7, 9, 7):
        ps = pt.partitions_of(n)
        for q in (1, 2, 3, 8, 2, 1):
            assert pt.max_pi_q(map(pt.pack, ps), q) == max(pt.pi_q(a, q) for a in ps)
            assert [pt.max_pi_q([pt.pack(a)], q) for a in ps] == [pt.pi_q(a, q) for a in ps]
    assert pt.max_pi_q([], 2) == float("-inf")
    for q in (0, -1):
        with pytest.raises(ValueError):
            pt.max_pi_q([], q)


def test_max_pi_q_across_the_table_reset_and_on_iterators(monkeypatch):
    # a small limit makes the tables start afresh many times within one sweep
    monkeypatch.setattr(pt, "_PI_Q_LIMIT", 5)
    monkeypatch.setattr(pt, "_pi_q_tables", {})
    rng = random.Random(9)
    ps = [a for n in range(1, 13) for a in pt.partitions_of(n)]
    resets = 0
    for _ in range(300):
        q = rng.choice((1, 2, 3, 5, 300))
        sample = rng.sample(ps, rng.randint(1, 8))
        before = pt._pi_q_tables.get(q)  # (floors, pi_q per key)
        want = max(pt.pi_q(a, q) for a in sample)
        assert pt.max_pi_q((pt.pack(a) for a in sample), q) == want  # a generator
        assert pt.max_pi_q(iter([pt.pack(a) for a in sample]), q) == want
        assert len(pt._pi_q_tables[q][1]) <= 5 + 8
        resets += before is not None and pt._pi_q_tables[q][1] is not before[1]
    assert resets > 50
    assert pt.max_pi_q(iter(()), 3) == float("-inf")


# -- packed keys ---------------------------------------------------------------


def _seeded_partitions(seed: int, count: int) -> list:
    """Random partitions with parts up to 127 (the single part of H(64,64)'s
    class) and weights up to the packed-key limit."""
    rng = random.Random(seed)
    out = [(127,), (127, 127, 1), (1,) * pt.KEY_LIMIT, (pt.KEY_LIMIT,)]
    while len(out) < count:
        parts, room = [], rng.randint(1, pt.KEY_LIMIT)
        while room:
            parts.append(rng.randint(1, min(127, room)))
            room -= parts[-1]
        out.append(tuple(sorted(parts, reverse=True)))
    return out


def test_packed_keys_round_trip():
    small = [a for n in range(21) for a in pt.partitions_of(n)]
    keys = [pt.pack(a) for a in small]
    assert len(set(keys)) == len(small)
    assert [pt.unpack(k) for k in keys] == small
    for alpha in _seeded_partitions(1, 500):
        assert pt.unpack(pt.pack(alpha)) == alpha


def test_packed_key_statistics_agree_with_the_tuple():
    for alpha in [a for n in range(13) for a in pt.partitions_of(n)] + _seeded_partitions(2, 300):
        key = pt.pack(alpha)
        assert key & pt.KEY_LIMIT == len(alpha)  # field 0
        assert pt.key_weight(key) == sum(alpha)
        # the top part's field holds the key's highest set bit
        assert max((key.bit_length() - 1) // pt.KEY_BITS - 1, 0) == (alpha[0] if alpha else 0)
        for p in (2, 3, 5):
            assert bool(key & pt.outside_mask(p)) == any(not pt.in_np(part, p) for part in alpha)
        for q in (1, 2, 3, 4, 9):
            assert pt.max_pi_q([key], q) == pt.pi_q(alpha, q)


def test_union_is_key_addition():
    rng = random.Random(3)
    pool = _seeded_partitions(4, 200)
    for _ in range(300):
        a, b = rng.sample(pool, 2)
        if sum(a) + sum(b) <= pt.KEY_LIMIT:
            assert pt.pack(a) + pt.pack(b) == pt.pack(tuple(sorted(a + b, reverse=True)))


def test_packed_order_is_the_canonical_order():
    everything = [a for n in range(17) for a in pt.partitions_of(n)]
    random.Random(5).shuffle(everything)
    got = [pt.unpack(k) for k in pt.canonical_order(map(pt.pack, everything))]
    assert got == sorted(everything, key=canonical_term_key)
    # within one weight, canonical order is descending key order
    for n in range(23):
        keys = [pt.pack(a) for a in pt.partitions_of(n)]
        assert keys == sorted(keys, reverse=True)


def test_pack_refuses_weights_past_the_limit():
    assert pt.unpack(pt.pack((1,) * pt.KEY_LIMIT)) == (1,) * pt.KEY_LIMIT
    for alpha in [(1,) * (pt.KEY_LIMIT + 1), (pt.KEY_LIMIT + 1,), (200, 56)]:
        with pytest.raises(ValueError, match="exceeds the packed-key limit"):
            pt.pack(alpha)
