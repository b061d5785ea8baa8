"""Equivariant Chow model: dividing polynomials, localization, and the f-divided reference."""

import itertools
import random
from collections import Counter
from math import comb

import pytest
from reference import AtomModel, FDividedFamily, TRing, epsilon_r, f_alpha_class

from cobordlab import equivariant
from cobordlab.equivariant import (
    ChowModel,
    EqProjClass,
    _fixed_point_degrees,
    _reduce_zeta,
    euler_inverse_eps,
    f_poly,
    localization_case_count,
    localization_check,
    localization_sweep_violations,
    phi,
)


def reference_components(p, weights, r):
    """(c, base model, inverse Euler class) for each fixed component, built afresh.

    The reference for localization_check builds these itself rather than
    reading the library's fixed-point table.  It looks euler_inverse_eps up
    on the module so a patched convention reaches it too.  Inputs are taken
    as valid: weights and r reduced mod p, r != 0.
    """
    mults = Counter(weights)
    components = []
    for c, mc in sorted(mults.items()):
        base = ChowModel(p, (mc - 1,))
        xi = base.var(0)
        inv_euler = base.one()
        for cp, mcp in mults.items():
            if cp == c:
                continue
            chern = [base.smul(comb(mcp, k), base.power(xi, k)) for k in range(1, mcp + 1)]
            inv_euler = base.mul(inv_euler, equivariant.euler_inverse_eps(base, chern, (cp - c) % p, r))
        components.append((c, base, inv_euler))
    return components


def reference_sides(p, weights, element, r, components):
    """Both sides of the identity: y restricted to each fixed component times its inverse Euler class.

    element is homogeneous of degree at most n, with reduced coefficients.
    """
    n = len(weights) - 1
    lhs = _reduce_zeta(element, weights, p).get((n, 0), 0)
    rhs = 0
    for c, base, inv_euler in components:
        restricted = base.zero()
        shifted = base.add(base.var(0), base.scalar(-c * r))
        for (a, b), co in element.items():
            term = base.smul(co * pow(r, b, p), base.power(shifted, a))
            restricted = base.add(restricted, term)
        rhs = (rhs + base.deg(base.mul(inv_euler, restricted))) % p
    return lhs, rhs


def reference_localization(p, weights, element, r):
    """Both sides of the identity for one case, with no table shared between cases."""
    return reference_sides(p, weights, element, r, reference_components(p, weights, r))


def every_case(p, max_len):
    """(weights, (a, b), r) in the sweep's order: every weight tuple, monomial zeta^a t^b and r."""
    for length in range(1, max_len + 1):
        for weights in itertools.product(range(p), repeat=length):
            for a in range(length):
                for b in range(length - a):
                    for r in range(1, p):
                        yield weights, (a, b), r


def reference_sweep_violations(p, max_len):
    bad = []
    for weights, (a, b), r in every_case(p, max_len):
        lhs, rhs = reference_localization(p, weights, {(a, b): 1}, r)
        if lhs != rhs:
            bad.append((weights, (a, b), r, lhs, rhs))
    return bad


def test_phi_closed_form():
    # phi(p) = x^p - t^(p-1) x; the middle terms vanish by Fermat
    assert phi(2) == {(2, 0): 1, (1, 1): 1}
    assert phi(3) == {(3, 0): 1, (1, 2): 2}
    assert phi(5) == {(5, 0): 1, (1, 4): 4}
    with pytest.raises(ValueError):
        phi(4)


def test_f_poly_values():
    assert f_poly(2, 5) == {(5, 0): 1, (3, 2): 1}
    assert f_poly(3, 4) == {(4, 0): 1, (2, 2): 2}
    assert f_poly(5, 7) == {(7, 0): 1, (3, 4): 4}
    assert f_poly(3, 0) == {(0, 0): 1}


def test_f_poly_structure():
    for p in (2, 3, 5):
        for i in range(13):
            f = f_poly(p, i)
            # specializes to x^i at t = 0
            assert {k: v for k, v in f.items() if k[1] == 0} == {(i, 0): 1}
            # homogeneous of degree i, and x^floor(i/p) divides
            assert all(x + t == i for x, t in f)
            assert min(x for x, _ in f) >= i // p


def test_tring_is_a_ring():
    base = AtomModel(3, (2,))
    ring = TRing(base)
    xi = base.var(0)
    a = ring.add(ring.t_term(1, xi), ring.from_base(base.one()))
    b = ring.t_term(2, base.power(xi, 2))
    c = ring.scalar(2)
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.mul(a, ring.one()) == a
    assert ring.mul(a, ring.zero()) == ring.zero()
    assert ring.power(a, 2) == ring.mul(a, a)
    assert ring.mul(ring.t_term(1, base.one()), ring.t_term(2, xi)) == ring.t_term(3, xi)


def test_epsilon_r_is_a_homomorphism():
    base = AtomModel(3, (2,))
    ring = TRing(base)
    xi = base.var(0)
    elems = [
        ring.from_base(xi),
        ring.t_term(1, base.one()),
        ring.add(ring.t_term(2, xi), ring.scalar(2)),
    ]
    for a, b in itertools.product(elems, repeat=2):
        for r in (0, 1, 2):
            assert epsilon_r(ring.mul(a, b), r, base) == base.mul(
                epsilon_r(a, r, base), epsilon_r(b, r, base)
            )
            assert epsilon_r(ring.add(a, b), r, base) == base.add(
                epsilon_r(a, r, base), epsilon_r(b, r, base)
            )
    # r = 0 keeps only the t-free layer
    assert epsilon_r(ring.t_term(1, xi), 0, base) == base.zero()


def test_euler_inverse_eps():
    p = 3
    base = ChowModel(p, (2,))
    xi = base.var(0)
    chern = [base.smul(2, xi), base.power(xi, 2)]
    for c in (1, 2):
        for r in (1, 2):
            inv = euler_inverse_eps(base, chern, c, r)
            n = len(chern)
            val = base.scalar(pow(r * c, n, p))
            for k, ck in enumerate(chern, start=1):
                val = base.add(val, base.smul(pow(r * c, n - k, p), ck))
            assert base.mul(inv, val) == base.one()
    with pytest.raises(ValueError):
        euler_inverse_eps(base, chern, 3, 1)  # 3*1 = 0 mod 3: not invertible


def test_eqprojclass_reduction():
    # over P(V) with weights (0,1) mod 2 the relation is zeta^2 = zeta*t
    a = EqProjClass.monomial(2, (0, 1), 2, 0)
    b = EqProjClass.monomial(2, (0, 1), 1, 1)
    assert a == b
    # trivial weights: zeta^2 = 0
    assert EqProjClass.monomial(2, (0, 0), 2, 0).element == {}
    # weights enter mod p
    assert EqProjClass.monomial(3, (4, 1), 2, 1) == EqProjClass.monomial(3, (1, 1), 2, 1)
    assert a.degrees() == {2}


def test_localization_hand_examples():
    assert localization_check(2, (0, 1), {(1, 0): 1}, 1) == (1, 1)
    assert localization_check(2, (0, 0), {(1, 0): 1}, 1) == (1, 1)
    for r in (1, 2):
        assert localization_check(3, (0, 1, 2), {(2, 0): 1}, r) == (1, 1)
    # accepts an already-reduced class object too
    y = EqProjClass.monomial(2, (0, 1, 1), 1, 1)
    lhs, rhs = localization_check(2, (0, 1, 1), y, 1)
    assert lhs == rhs


def test_localization_sweep_small():
    assert localization_sweep_violations(2, max_len=3) == []
    assert localization_sweep_violations(3, max_len=2) == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_localization_matches_reference_on_every_monomial(p):
    # each side builds its inverse Euler classes once per (weights, r);
    # the library's per-case value is lhs and r^b * T[a], as localization_check reads it
    cases = 0
    for length in range(1, 5):
        n = length - 1
        for weights in itertools.product(range(p), repeat=length):
            for r in range(1, p):
                table = _fixed_point_degrees(p, weights, r)
                components = reference_components(p, weights, r)
                for a in range(length):
                    for b in range(length - a):
                        y = {(a, b): 1}
                        got = (_reduce_zeta(y, weights, p).get((n, 0), 0), pow(r, b, p) * table[a] % p)
                        assert got == reference_sides(p, weights, y, r, components), (weights, (a, b), r)
                        cases += 1
    assert cases == localization_case_count(p, 4)


def test_localization_matches_reference_on_mixed_classes():
    rng = random.Random(20261018)
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        length = rng.randint(1, 6)
        raw = tuple(rng.randrange(-2 * p, 3 * p) for _ in range(length))
        d = rng.randint(0, length - 1)
        y = {(a, d - a): rng.randrange(-p, 2 * p) for a in range(d + 1) if rng.random() < 0.75}
        r = rng.choice([k for k in range(-p, 3 * p) if k % p])
        weights = tuple(w % p for w in raw)
        element = {k: v % p for k, v in y.items() if v % p}
        assert localization_check(p, raw, y, r) == reference_localization(p, weights, element, r % p)


def test_localization_sweep_catches_a_broken_convention(monkeypatch):
    real = equivariant.euler_inverse_eps

    def doubled(base, chern, c, r):
        return base.smul(2, real(base, chern, c, r))

    monkeypatch.setattr(equivariant, "euler_inverse_eps", doubled)
    bad = localization_sweep_violations(3, 3)
    assert bad
    assert bad == reference_sweep_violations(3, 3)


def test_localization_case_count():
    assert localization_case_count(2, 5) + localization_case_count(3, 5) == 9996
    assert localization_case_count(3, 6) == 39912
    assert localization_case_count(5, 0) == 0


def test_localization_input_validation():
    with pytest.raises(ValueError):
        localization_check(2, (0, 1), {(1, 0): 1}, 0)  # r must be nonzero
    with pytest.raises(ValueError):
        localization_check(2, (0, 1), {(2, 0): 1}, 1)  # degree above n = 1
    with pytest.raises(ValueError):
        localization_check(2, (0, 1), {(1, 0): 1, (0, 0): 1}, 1)  # mixed degree
    with pytest.raises(ValueError):
        localization_check(2, (), {(0, 0): 1}, 1)


def test_f_divided_family_values():
    base = AtomModel(2, (3,))
    ring = TRing(base)
    h = base.var(0)
    vals = FDividedFamily(2).values(ring, ring.from_base(h), 3)
    # f_0 = 1, f_1 = x, f_2 = phi = x^2 + tx evaluated at x = h
    assert vals[0] == ring.one()
    assert vals[1] == ring.from_base(h)
    assert vals[2] == {0: base.power(h, 2), 1: h}


def test_f_alpha_class_single_line():
    base = AtomModel(2, (2,))
    h = base.var(0)
    out = f_alpha_class([(h, 1)], (2,), base)
    assert out == {0: base.power(h, 2), 1: h}  # f_2(h + t) mod 2
    # the family itself carries t through phi, so even the trivial character
    # keeps a t-layer; the t = 0 slice is the plain Chern coefficient
    trivial = f_alpha_class([(h, 0)], (2,), base)
    assert trivial == {0: base.power(h, 2), 1: h}
    assert epsilon_r(trivial, 0, base) == base.power(h, 2)
    assert f_alpha_class([(h, 1)], (), base) == {0: base.one()}


def test_f_alpha_class_two_lines():
    base = AtomModel(2, (2,))
    h = base.var(0)
    out = f_alpha_class([(h, 1), (h, 1)], (1, 1), base)
    # f_1(h+t)^2 = h^2 + t^2 over F_2
    assert out == {0: base.power(h, 2), 2: base.one()}
    # every layer is homogeneous: base degree + t degree = weight
    for tdeg, elem in out.items():
        for exps in elem:
            assert sum(exps) + tdeg == 2
