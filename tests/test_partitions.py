"""Partition calculus: enumeration, pi_q, rho_q, and the reference refinement order."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given
from reference import refines, sub_multisets

import cobordlab.partitions as pt
from cobordlab.partitions import IndexSet, rho_q

# weakly decreasing tuples of small positive parts
partition_st = st.lists(st.integers(1, 8), min_size=0, max_size=5).map(
    lambda v: tuple(sorted(v, reverse=True))
)

# classical p(n) for n = 0..10
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


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
    # IndexSet works as a parts filter
    n2 = IndexSet.np_minus(2)
    assert pt.partitions_of(4, parts=n2) == [(4,), (2, 2)]


def test_partitions_of_edges():
    assert pt.partitions_of(0) == [()]
    assert pt.partitions_of(-3) == []
    with pytest.raises(ValueError):
        pt.partitions_of(pt.DEFAULT_WEIGHT_CAP + 1)


def test_partitions_of_memo_is_not_shared_with_callers():
    n2 = IndexSet.np_minus(2)
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


def test_index_set_membership():
    fin = IndexSet.finite([3, 5])
    assert 3 in fin and 5 in fin and 4 not in fin
    cof = IndexSet.np_minus(2, [5])
    assert 2 in cof and 4 in cof
    assert 5 not in cof  # excluded
    assert 7 not in cof  # not in N_2 to begin with


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet.finite([0])
    with pytest.raises(ValueError):
        IndexSet.finite([-2, 3])
    with pytest.raises(ValueError):
        IndexSet.np_minus(4)


def test_rho_finite():
    assert rho_q(IndexSet.finite({6, 8}), 3) == Fraction(1, 4)
    assert rho_q(IndexSet.finite([]), 3) == Fraction(1, 3)
    assert rho_q(IndexSet.finite({1, 2}), 5) == 0


def test_rho_cofinite():
    assert rho_q(IndexSet.np_minus(2), 2) == Fraction(2, 5)
    assert rho_q(IndexSet.np_minus(2, [5]), 2) == Fraction(4, 9)
    # 1 is in N_3 and floor(1/3) = 0, so the infimum collapses
    assert rho_q(IndexSet.np_minus(3), 3) == 0
    with pytest.raises(ValueError):
        rho_q(IndexSet.np_minus(2), 0)


@given(st.sets(st.integers(1, 40), min_size=1, max_size=8), st.integers(1, 5))
def test_rho_is_the_min_ratio(members, q):
    val = rho_q(IndexSet.finite(members), q)
    assert val == min(Fraction(i // q, i) for i in members)
    # shrinking the set can only raise the infimum
    sub = set(list(members)[: max(1, len(members) // 2)])
    assert rho_q(IndexSet.finite(sub), q) >= val


def test_canonical_term_key_order():
    everything = [a for n in range(4) for a in pt.partitions_of(n)]
    got = sorted(everything, key=pt.canonical_term_key)
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def test_np_partitions_is_the_restricted_enumeration():
    for p in (2, 3, 5):
        for n in range(21):
            got = pt.np_partitions(n, p)
            assert isinstance(got, tuple) and got is pt.np_partitions(n, p)
            assert list(got) == pt.partitions_of(n, parts=IndexSet.np_minus(p))
            assert pt.outside_np(n, p) == {i for i in range(1, n + 1) if not pt.in_np(i, p)}
    with pytest.raises(ValueError):
        pt.np_partitions(pt.DEFAULT_WEIGHT_CAP + 1, 2)
    with pytest.raises(ValueError):
        pt.np_partitions(4, 4)


def test_max_pi_q_values_and_q_check():
    ps = pt.partitions_of(7)
    for q in (1, 2, 3, 8):
        assert pt.max_pi_q(ps, q) == max(pt.pi_q(a, q) for a in ps)
    assert pt.max_pi_q([], 2) == float("-inf")
    for q in (0, -1):
        with pytest.raises(ValueError):
            pt.max_pi_q([], q)
