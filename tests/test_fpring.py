"""BPoly / GenPoly ring semantics, exactness, and serialization."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from reference import all_partitions, canonical_term_key, tuple_accumulate, tuple_convolve

import cobordlab.partitions as pt
from cobordlab.chow import chern_numbers
from cobordlab.fpring import NEG_INF, BPoly, GenPoly, _combination, _convolve, format_bpoly, format_genpoly
from cobordlab.partitions import is_partition

partition_st = st.lists(st.integers(1, 6), min_size=0, max_size=4).map(
    lambda v: tuple(sorted(v, reverse=True))
)


@st.composite
def bpoly_triples(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    def one():
        terms = draw(st.dictionaries(partition_st, st.integers(0, p - 1), max_size=4))
        return BPoly(p, terms)
    return one(), one(), one()


def test_constructor_normalizes():
    x = BPoly(3, {(2, 1): 5, (1,): 3})
    assert x.terms == {(2, 1): 2}  # 5 mod 3, zero dropped


def test_constructor_validation():
    with pytest.raises(ValueError):
        BPoly(4, {})
    with pytest.raises(ValueError):
        BPoly(2, {(1, 2): 1})  # not weakly decreasing


def test_boundary_checks_stay_on_public_paths():
    with pytest.raises(ValueError):
        BPoly.monomial(2, (1, 2))
    with pytest.raises(ValueError):
        GenPoly(2, {(1, 2): 1})
    with pytest.raises(ValueError):
        GenPoly.zero(4)


@given(bpoly_triples(), st.integers(-7, 7))
def test_trusted_results_match_checked_constructor(triple, k):
    # arithmetic skips the constructor checks; its results must still pass them
    a, b, _ = triple
    results = [a * b, a + b, a + b.scale(-1), a.scale(k)]
    for r in results:
        assert all(is_partition(alpha) for alpha in r.terms)
        assert all(0 < c < r.p for c in r.terms.values())
        assert r == BPoly(r.p, r.terms)
    g, h = GenPoly(a.p, a.terms), GenPoly(b.p, b.terms)
    for r in (g * h, g + h, g.scale(k)):
        assert all(is_partition(beta) for beta in r.terms)
        assert all(0 < c < r.p for c in r.terms.values())
        assert r == GenPoly(r.p, r.terms)


def test_coefficient_and_truncation_error():
    x = BPoly(2, {(2,): 1})
    assert x.coefficient((2,)) == 1
    assert x.coefficient((1, 1)) == 0
    assert x.coefficient((99,)) == 0  # classes are exact, so they answer everywhere
    with pytest.raises(ValueError):
        x.coefficient((1, 2))
    assert x.to_json_dict()["maxWeight"] is None


def test_square_mod_two():
    # cross terms vanish: (b2 + b1)^2 = b2^2 + b1^2 over F_2
    x = BPoly(2, {(2,): 1, (1,): 1})
    assert (x * x).terms == {(2, 2): 1, (1, 1): 1}


@given(bpoly_triples())
def test_ring_axioms(triple):
    x, y, z = triple
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    one = BPoly.one(x.p)
    zero = BPoly.zero(x.p)
    assert x * one == x
    assert x + zero == x
    assert x + x.scale(-1) == zero
    assert x.scale(x.p) == zero


def test_top_weight_and_components():
    assert BPoly.zero(2).top_weight() == NEG_INF
    x = BPoly(3, {(2, 2): 1, (3,): 2, (1,): 1})
    assert x.top_weight() == 4
    assert not x.is_homogeneous()
    assert BPoly(3, {(2, 2): 1, (3, 1): 2}).is_homogeneous()


def test_support_canonical_order():
    x = BPoly(2, {(2, 1, 1): 1, (4,): 1, (2, 2): 1, (1,): 1})
    assert x.support() == [(1,), (4,), (2, 2), (2, 1, 1)]


wide_partition_st = st.lists(st.integers(1, 9), min_size=0, max_size=7).map(
    lambda v: tuple(sorted(v, reverse=True))
)


@given(st.dictionaries(wide_partition_st, st.integers(1, 4), min_size=2, max_size=40))
def test_support_matches_the_key_function_sort(terms):
    # mixed weights, and partitions of one weight that share long prefixes
    for poly in (BPoly(5, terms), GenPoly(5, terms)):
        assert poly.support() == sorted(poly.terms, key=canonical_term_key)


def test_format_bpoly():
    x = BPoly(2, {(4,): 1, (2, 2): 1, (2, 1, 1): 1})
    assert format_bpoly(x) == "1*b[4] + 1*b[2]^2 + 1*b[2]*b[1]^2"
    assert format_bpoly(BPoly.zero(3)) == "0"
    assert format_bpoly(BPoly.one(3)) == "1"


def test_mixed_prime_rejected():
    with pytest.raises(ValueError):
        BPoly(2, {(1,): 1}) + BPoly(3, {(1,): 1})
    with pytest.raises(ValueError):
        GenPoly(2, {(1,): 1}) * GenPoly(3, {(1,): 1})
    with pytest.raises(TypeError):
        BPoly(2, {(1,): 1}) * 3
    with pytest.raises(TypeError):
        BPoly(2, {(1,): 1}) + GenPoly(2, {(1,): 1})  # same terms, different ring
    assert BPoly(2, {(1,): 1}) != GenPoly(2, {(1,): 1})


def test_genpoly_degrees():
    P = GenPoly(2, {(5, 2): 1, (3,): 1})
    assert P.deg_q(1) == 7  # q = 1 counts every index in full: the top weight
    assert P.deg_q(2) == 3  # floor(5/2) + floor(2/2) beats floor(3/2)
    assert P.deg_q(8) == 0
    zero = GenPoly.zero(2)
    assert zero.deg_q(1) == NEG_INF and zero.deg_q(4) == NEG_INF


def test_genpoly_arithmetic_and_format():
    a = GenPoly.monomial(3, (5,), 2)
    b = GenPoly.monomial(3, (5,), 1)
    assert (a + b).is_zero()
    assert (a * a).terms == {(5, 5): 1}  # 4 mod 3
    assert format_genpoly(GenPoly(3, {(5, 2, 2): 2, (1,): 1})) == "1*X[1] + 2*X[5]*X[2]^2"
    assert format_genpoly(GenPoly.zero(2)) == "0"


# -- the packed kernel against the tuple reference ----------------------------


def _random_terms(rng: random.Random, p: int, top: int) -> dict:
    terms = {}
    for _ in range(rng.randint(0, 12)):
        w = rng.randint(0, top)
        alpha = rng.choice(all_partitions(w))
        terms[alpha] = rng.randrange(-p, 3 * p)  # unreduced, zeros included
    return terms


def _packed(terms: dict) -> dict:
    return {pt.pack(alpha): c for alpha, c in terms.items()}


def _unpacked(packed: dict) -> dict:
    return {pt.unpack(key): c for key, c in packed.items()}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_packed_kernel_matches_the_tuple_kernel(p):
    rng = random.Random(p)
    for _ in range(200):
        x, y = _random_terms(rng, p, 14), _random_terms(rng, p, 14)
        assert _unpacked(_convolve(_packed(x), _packed(y))) == tuple_convolve(x, y)
        k = rng.randrange(-p, p)
        a, b = BPoly(p, x), BPoly(p, y)
        want = {alpha: c % p for alpha, c in tuple_convolve(a.terms, b.terms).items() if c % p}
        assert (a * b).terms == want
        assert (a + b.scale(k)).terms == {alpha: c % p for alpha, c in tuple_accumulate(a.terms, b.terms, k).items()
                                          if c % p}


def _reduced_terms(rng: random.Random, p: int, weight: int) -> dict:
    """Random terms of one weight reduced mod p, no zeros: what _combination takes."""
    return {rng.choice(all_partitions(weight)): rng.randrange(1, p) for _ in range(rng.randint(0, 10))}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_combination_is_the_tuple_sum_reduced_mod_p(p):
    rng = random.Random(100 + p)
    disjoint = overlapping = zero_multiples = 0
    for trial in range(300):
        # even trials draw each pair at its own weight, so the supports are disjoint
        weights = rng.sample(range(9), 4) if trial % 2 == 0 else [rng.randint(0, 8)] * 4
        pairs = [(rng.randrange(-p, 3 * p), _reduced_terms(rng, p, w)) for w in weights]
        want: dict = {}
        for k, terms in pairs:
            if k % p == 0:
                zero_multiples += 1
            elif want.keys() & terms.keys():
                overlapping += 1
            else:
                disjoint += 1
            tuple_accumulate(want, terms, k)
        want = {alpha: c % p for alpha, c in want.items() if c % p}
        got = _combination(p, ((k, _packed(terms)) for k, terms in pairs))
        assert _unpacked(got) == want
        assert 0 not in got.values() and all(0 < c < p for c in got.values())
        for k, terms in pairs:
            assert _unpacked(_combination(p, [(k, _packed(terms))])) == {
                alpha: k * c % p for alpha, c in terms.items() if k * c % p}
    assert disjoint > 100 and overlapping > 100 and zero_multiples > 100


def test_combination_leaves_its_inputs_alone():
    x, y = {pt.pack((2,)): 1, pt.pack((1, 1)): 2}, {pt.pack((1, 1)): 1, pt.pack((3,)): 2}
    before = (dict(x), dict(y))
    assert _unpacked(_combination(3, [(1, x), (2, y), (1, x)])) == {(2,): 2, (3,): 1}  # (1, 1) cancels
    assert (x, y) == before


def test_products_past_the_key_limit_are_refused():
    limit = pt.KEY_LIMIT
    a = BPoly(2, {(limit - 100,): 1, (1,): 1})
    b = BPoly(2, {(50, 50): 1})
    assert (a * b).top_weight() == limit
    with pytest.raises(ValueError, match=f"product weight {limit + 1} exceeds the packed-key limit {limit}"):
        a * BPoly(2, {(101,): 1})
    assert (a * BPoly.zero(2)).is_zero()  # a zero factor has no weight to add
    with pytest.raises(ValueError, match="exceeds the packed-key limit"):
        BPoly(3, {(1,) * (limit + 1): 1})
    with pytest.raises(ValueError, match="exceeds the packed-key limit"):
        GenPoly.monomial(3, (limit, 1))
    assert a.coefficient((limit + 1,)) == 0  # exact classes answer everywhere
    assert BPoly.monomial(2, (limit,)).coefficient((limit,)) == 1  # the limit itself is read, not cut off


def test_terms_are_tuple_keyed_copies():
    x = BPoly(3, {(2, 1): 1, (4,): 2, (): 1})
    assert x.terms == {(2, 1): 1, (4,): 2, (): 1}
    assert all(type(alpha) is tuple for alpha in x.terms)
    got = x.terms
    got[(6,)] = 0
    got.clear()
    assert x.terms == {(2, 1): 1, (4,): 2, (): 1}
    assert x.support() == [(), (2, 1), (4,)]
    assert x.coefficient([4]) == 2


def test_a_memoized_class_survives_a_caller_mutating_its_terms():
    # the shared classes are handed out without a copy; what .terms returns is a copy
    x = chern_numbers("P(4)*P(2)", 2)
    want = dict(x.packed)
    x.terms.setdefault((), 0)
    x.terms[(6,)] = 0
    assert chern_numbers("P(4)*P(2)", 2) is x
    assert x.packed == want
