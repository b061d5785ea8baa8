"""Dimension bounds and divisibility corollaries."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import ceil

import pytest

import cobordlab.partitions as pt
from cobordlab.actions import HAct, PAct, fixed_dim, underlying_variety
from cobordlab.bounds import (
    main_bound,
    milnor_divisibility_check,
    milnor_exponent,
    np_monomial_ratio_violations,
    ratio_bound,
    small_fixed_divisibility,
)
from cobordlab.chow import chern_numbers
from cobordlab.cobordism import (
    NotInLp,
    dim_q_direct,
    evaluate_gen_poly,
    random_gen_poly,
    standard_generators,
)
from cobordlab.fpring import NEG_INF, BPoly, GenPoly


def _member(p, terms):
    return evaluate_gen_poly(GenPoly(p, terms), standard_generators(p))


def test_main_bound_examples():
    p4 = chern_numbers("P(4)", 2)
    assert main_bound(p4, 2) == 2
    assert main_bound(p4, 4) == 1
    assert main_bound(BPoly.zero(2), 2) == NEG_INF
    with pytest.raises(ValueError):
        main_bound(p4, 3)  # not a power of 2


def _sub_multisets(W):
    """The sub-multisets of a sorted tuple, each sorted."""
    mult = Counter(W)
    for picks in itertools.product(*(range(k + 1) for k in mult.values())):
        yield tuple(c for c, k in zip(mult, picks) for _ in range(k))


# q -> actions where the fixed locus is exactly as small as the main bound allows
TIGHT_SMALL_ACTIONS = {2: 20, 4: 108, 8: 1248, 3: 66, 9: 4401}


def test_main_bound_holds_on_every_small_cyclic_linear_action():
    # The main bound: an order-q action's fixed locus has dimension at least
    # dim_q of the class.  Checked on every linear action of a cyclic group
    # on P(n), n <= 8 (n <= 6 when q > 4), and on H(n, m), 1 <= n <= 3,
    # n <= m <= 4.  HAct models only the actions whose V is a sub-multiset
    # of W.  Non-cyclic groups wait for the bound to be stated for them
    # (ROADMAP item 4's gate).
    total = 0
    for q, tight in TIGHT_SMALL_ACTIONS.items():
        p = 2 if q in (2, 4, 8) else 3
        chars = [(c,) for c in range(q)]
        actions = [PAct(weights) for n in range(9 if q <= 4 else 7)
                   for weights in itertools.combinations_with_replacement(chars, n + 1)]
        actions += [HAct(V, W) for m in range(1, 5) for W in itertools.combinations_with_replacement(chars, m + 1)
                    for V in _sub_multisets(W) if 2 <= len(V) <= 4]
        at_bound = 0
        for a in actions:
            bound = main_bound(chern_numbers(underlying_variety(a), p), q)
            dim = fixed_dim(a)
            assert dim >= bound, (q, a)
            at_bound += dim == bound
        assert at_bound == tight, q
        total += len(actions)
    assert total == 58269


def test_ratio_bound_p4():
    p4 = chern_numbers("P(4)", 2)
    report = ratio_bound(p4, [], 0, 2)
    assert report.bound == 2
    assert report.certificate == (4,)
    blob = report.to_json_dict()
    assert blob["bound"] == 2 and blob["certificate"] == [4]
    assert blob["inputs"]["weight"] == 4


def test_ratio_bound_hypothesis_gate():
    l5 = standard_generators(2).generator(5)
    failed = ratio_bound(l5, [5], 0, 2)
    assert failed.bound == NEG_INF and failed.certificate is None
    assert failed.to_json_dict()["bound"] is None
    ok = ratio_bound(l5, [5], 1, 2)
    assert ok.certificate == (5,)
    # rho_2(N_2 minus 5) = 4/9, so ceil(4/9 * (5 - 1)) = 2 = dim_2(l5)
    assert ok.bound == 2 == dim_q_direct(l5, 2)


def test_ratio_bound_never_beats_the_sharp_value():
    # the ratio bound lower-bounds dim_q; the certificate monomial sits between
    rng = random.Random(11)
    for _ in range(120):
        p = rng.choice((2, 3))
        q = p ** rng.randint(1, 2)
        w = rng.randint(2, 12)
        gp = random_gen_poly(rng, p, w)
        x = evaluate_gen_poly(gp, standard_generators(p))
        if x.is_zero() or not x.is_homogeneous():
            continue
        A = set(rng.sample(range(1, 13), rng.randint(0, 4)))
        s = rng.randint(0, 2)
        report = ratio_bound(x, A, s, q)
        if report.bound == NEG_INF:
            continue
        assert report.bound <= pt.pi_q(report.certificate, q)
        assert pt.pi_q(report.certificate, q) <= main_bound(x, q)


def test_ratio_bound_input_validation():
    p4 = chern_numbers("P(4)", 2)
    with pytest.raises(ValueError):
        ratio_bound(p4, [], -1, 2)
    with pytest.raises(ValueError):
        ratio_bound(BPoly(2, {(2,): 1, (1,): 1}), [], 0, 2)  # not homogeneous
    with pytest.raises(NotInLp):
        ratio_bound(BPoly(2, {(2, 1, 1): 1}), [], 0, 2)
    zero = ratio_bound(BPoly.zero(2), [], 0, 2)
    assert zero.bound == NEG_INF


def test_small_fixed_divisibility_cases():
    # X5^2 X1^4 at p=3: weight 14, dim_3 = 2, low-part weight 4 = 14 - 5*2
    x = _member(3, {(5, 5, 1, 1, 1, 1): 1})
    assert dim_q_direct(x, 3) == 2
    assert small_fixed_divisibility(x, 3, 2)
    assert not small_fixed_divisibility(x, 3, 1)  # d below dim_3 must fail
    with pytest.raises(ValueError):
        small_fixed_divisibility(x, 3, 3)  # 14 < 15 precondition
    with pytest.raises(ValueError):
        small_fixed_divisibility(BPoly.zero(3), 3, 0)


def test_small_fixed_divisibility_p2_q4():
    x = _member(2, {(6, 2, 2): 1})
    d = dim_q_direct(x, 4)
    assert d == 1
    assert small_fixed_divisibility(x, 4, d)
    y = _member(2, {(2, 2, 2): 1})
    assert small_fixed_divisibility(y, 4, 0)  # weight 6 entirely in low parts


def test_milnor_divisibility_cases():
    fam = standard_generators(2)
    l5 = fam.generator(5)
    assert milnor_divisibility_check(l5, 2)
    assert milnor_divisibility_check(l5, 0)  # X5 divides once, need is 1
    l4 = fam.generator(4)
    assert not milnor_divisibility_check(l4, 0)  # needs one X5, has none
    sq = _member(2, {(5, 5): 1})
    assert milnor_divisibility_check(sq, 2)  # need ceil(16/15) = 2, has 2
    assert milnor_divisibility_check(sq, 4)
    tall = _member(2, {(5, 4): 1})
    assert not milnor_divisibility_check(tall, 0)  # need 2, has 1


def test_milnor_exponent_is_the_exact_ceiling():
    for n in range(121):
        for d in range(121):
            assert milnor_exponent(n, d) == ceil(Fraction(3 * n - 7 * d, 15)), (n, d)


def test_milnor_divisibility_validation():
    with pytest.raises(ValueError):
        milnor_divisibility_check(standard_generators(3).generator(5), 1)
    with pytest.raises(ValueError):
        milnor_divisibility_check(BPoly(2, {(2,): 1, (1,): 1}), 1)


def test_np_monomial_ratio_empty():
    assert np_monomial_ratio_violations(2, 2, 12) == []
    assert np_monomial_ratio_violations(3, 3, 10) == []
    # the p = q = 2 threshold ceil(2n/5) is attained on powers of the 5-generator
    assert pt.pi_q((5, 5), 2) == 4
