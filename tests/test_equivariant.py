"""Equivariant Chow model: dividing polynomials, localization, and the f-divided reference."""

import itertools
import random
import subprocess
import sys
from collections import Counter
from math import comb

import pytest
import reference
from reference import (
    AtomModel,
    ChowModel,
    FDividedFamily,
    TRing,
    epsilon_r,
    euler_inverse_eps,
    f_alpha_class,
    reduce_zeta,
    subprocess_env,
)

from cobordlab import equivariant
from cobordlab.equivariant import (
    _fixed_point_degrees,
    f_poly,
    localization_case_count,
    localization_check,
    localization_sweep_violations,
    phi,
)


def reference_components(p, weights, r):
    """(c, base model, inverse Euler class) for each fixed component, built afresh.

    The reference for localization_check builds these in the generic
    truncated Chow ring rather than reading the library's closed form.  It
    looks euler_inverse_eps up on the reference module so a patched
    convention reaches it too.  Inputs are taken as valid: p prime, weights
    and r reduced mod p, r != 0.
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
            inv_euler = base.mul(inv_euler, reference.euler_inverse_eps(base, chern, (cp - c) % p, r))
        components.append((c, base, inv_euler))
    return components


def reference_fixed_point_degrees(p, weights, r):
    """T[a] for a <= n: the sum over fixed components of deg(inverse Euler class * (xi - c r)^a)."""
    table = [0] * len(weights)
    for c, base, inv_euler in reference_components(p, weights, r):
        shifted = base.add(base.var(0), base.scalar(-c * r))
        term = inv_euler
        for a in range(len(table)):
            table[a] = (table[a] + base.deg(term)) % p
            term = base.mul(term, shifted)
    return table


def reference_sides(p, weights, element, r, components):
    """Both sides of the identity: y restricted to each fixed component times its inverse Euler class.

    element is homogeneous of degree at most n, with reduced coefficients.
    """
    n = len(weights) - 1
    lhs = reduce_zeta(element, weights, p).get((n, 0), 0)
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
    with pytest.raises(ValueError, match="^i must be nonnegative$"):
        f_poly(3, -1)


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


def test_reduce_zeta_relation():
    # over P(V) with weights (0,1) mod 2 the relation is zeta^2 = zeta*t
    a = reduce_zeta({(2, 0): 1}, (0, 1), 2)
    assert a == reduce_zeta({(1, 1): 1}, (0, 1), 2) == {(1, 1): 1}
    # trivial weights: zeta^2 = 0
    assert reduce_zeta({(2, 0): 1}, (0, 0), 2) == {}
    # weights enter mod p
    assert reduce_zeta({(2, 1): 1}, (4, 1), 3) == reduce_zeta({(2, 1): 1}, (1, 1), 3)
    # the relation is homogeneous, so reduction keeps the degree
    assert {z + t for z, t in a} == {2}


def test_inverse_power_is_a_tuple_of_binomials():
    for p in (2, 3, 5, 7):
        for v in range(1, p):
            for k in range(1, 5):
                for m in range(6):
                    got = equivariant._inverse_power(v, k, m, p)
                    v_inv = pow(v, -1, p)
                    want = [(-1) ** j * comb(k + j - 1, j) * pow(v_inv, k + j, p) % p for j in range(m)]
                    assert isinstance(got, tuple) and list(got) == want, (v, k, m, p)


def test_localization_hand_examples():
    assert localization_check(2, (0, 1), {(1, 0): 1}, 1) == (1, 1)
    assert localization_check(2, (0, 0), {(1, 0): 1}, 1) == (1, 1)
    for r in (1, 2):
        assert localization_check(3, (0, 1, 2), {(2, 0): 1}, r) == (1, 1)
    # a class of degree below n has degree zero on both sides
    assert localization_check(2, (0, 1, 1), {(1, 1): 1}, 1) == (0, 0)


def test_localization_sweep_small():
    assert localization_sweep_violations(2, max_len=3) == []
    assert localization_sweep_violations(3, max_len=2) == []


def test_a_deep_sweep_visits_each_weight_multiset_once():
    # 275 multisets of length <= 22 at p = 2; walking the 2^23 - 2 ordered tuples took over 10 s of CPU
    resource = pytest.importorskip("resource")
    code = "from cobordlab.equivariant import localization_sweep_violations as s; print(len(s(2, 22)))"
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
                          timeout=30, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (2, 2)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", ""), proc.stderr


def test_fixed_point_degrees_match_the_chow_model_reference():
    # every (weights, r) with p = 2 up to length 8, p = 3 up to 6 and p = 5 up to 4
    cases = 0
    for p, max_len in ((2, 8), (3, 6), (5, 4)):
        for length in range(1, max_len + 1):
            for weights in itertools.product(range(p), repeat=length):
                for r in range(1, p):
                    assert _fixed_point_degrees(p, weights, r) == reference_fixed_point_degrees(p, weights, r), (
                        p, weights, r)
                    cases += 1
    assert cases == 5814


@pytest.mark.parametrize("p", [2, 3, 5])
def test_localization_matches_reference_on_every_monomial(p):
    # each side builds its inverse Euler classes once per (weights, r);
    # the library's per-case value is its closed-form lhs and r^b * T[a], as localization_check reads them;
    # the reference reduces y modulo the relation of P(V)
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
                        got = (int((a, b) == (n, 0)), pow(r, b, p) * table[a] % p)
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
    # flip the sign of v = r(c' - c) in the normal Euler class, on both routes
    real_power = equivariant._inverse_power
    real_inverse = reference.euler_inverse_eps
    monkeypatch.setattr(equivariant, "_inverse_power", lambda v, k, m, p: real_power(-v, k, m, p))
    monkeypatch.setattr(reference, "euler_inverse_eps", lambda base, chern, c, r: real_inverse(base, chern, -c, r))
    bad = localization_sweep_violations(3, 3)
    assert bad
    assert bad == sorted_orderings(reference_sweep_violations(3, 3))


def sorted_orderings(cases):
    """The cases of each weight multiset's sorted ordering, its first in product order."""
    return [case for case in cases if list(case[0]) == sorted(case[0])]


def per_tuple_sweep_violations(p, max_len):
    """The sweep evaluated afresh for every ordered weight tuple.

    The lhs is reduced modulo the relation of P(V) by the reference; the rhs is the library's.
    """
    bad = []
    for weights, (a, b), r in every_case(p, max_len):
        n = len(weights) - 1
        lhs = reduce_zeta({(a, b): 1}, weights, p).get((n, 0), 0)
        rhs = pow(r, b, p) * equivariant._fixed_point_degrees(p, weights, r)[a] % p
        if lhs != rhs:
            bad.append((weights, (a, b), r, lhs, rhs))
    return bad


def test_both_sides_are_symmetric_in_the_weights():
    # the sweep evaluates one weight multiset for all its orderings
    cases = 0
    for p, max_len in ((2, 6), (3, 5), (5, 4), (7, 3)):
        for length in range(1, max_len + 1):
            n = length - 1
            for weights in itertools.product(range(p), repeat=length):
                key = tuple(sorted(weights))
                for r in range(1, p):
                    assert _fixed_point_degrees(p, weights, r) == _fixed_point_degrees(p, key, r), (p, weights, r)
                for a in range(length):
                    for b in range(length - a):
                        lhs = reduce_zeta({(a, b): 1}, weights, p).get((n, 0), 0)
                        assert lhs == reduce_zeta({(a, b): 1}, key, p).get((n, 0), 0), (p, weights, (a, b))
                cases += 1
    assert cases == 126 + 363 + 780 + 399


@pytest.mark.parametrize("p", [2, 3])
def test_localization_sweep_equals_the_per_tuple_sweep(p, monkeypatch):
    assert localization_sweep_violations(p, 4) == per_tuple_sweep_violations(p, 4) == []
    # the sweep reports each failing multiset once, as its sorted ordering
    # a fault that keeps both sides symmetric fails the same cells on both routes
    real_power = equivariant._inverse_power
    monkeypatch.setattr(equivariant, "_inverse_power", lambda v, k, m, p: real_power(-v, k, m, p))
    bad = localization_sweep_violations(p, 4)
    assert bad == sorted_orderings(per_tuple_sweep_violations(p, 4))
    assert bad or p == 2  # at p = 2, -v = v


def test_localization_sweep_reports_a_failing_multiset_once(monkeypatch):
    # T[a] + 1 for the one multiset {0, 1, 1} at p = 3, on both routes
    broken = (0, 1, 1)
    real_degrees = equivariant._fixed_point_degrees
    real_localization = reference_localization

    def degrees(p, weights, r):
        table = real_degrees(p, weights, r)
        return [(d + 1) % p for d in table] if tuple(sorted(weights)) == broken else table

    def localization(p, weights, element, r):
        lhs, rhs = real_localization(p, weights, element, r)
        if tuple(sorted(weights)) == broken:
            [(_, b)] = element
            rhs = (rhs + pow(r, b, p)) % p
        return lhs, rhs

    monkeypatch.setattr(equivariant, "_fixed_point_degrees", degrees)
    monkeypatch.setitem(globals(), "reference_localization", localization)
    bad = localization_sweep_violations(3, 4)
    ref = reference_sweep_violations(3, 4)
    assert bad == sorted_orderings(ref)
    # every monomial and r fails, once, at the sorted ordering; the reference fails all three orderings
    assert {case[0] for case in bad} == {(0, 1, 1)}
    assert (len(bad), len(ref)) == (6 * 2, 3 * 6 * 2)


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
    # p is checked before any arithmetic mod p
    for p in (0, 1, 4):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            localization_check(p, (0, 1), {(1, 0): 1}, 1)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            localization_sweep_violations(p, 2)
    for y in ({(-1, 0): 1}, {(0, -1): 1}, {(-1, 2): 1}):
        with pytest.raises(ValueError, match="nonnegative"):
            localization_check(2, (0, 1), y, 1)


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
