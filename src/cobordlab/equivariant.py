"""Desk-scale equivariant intersection theory for linear mu_p-actions.

The equivariant Chow ring of a point is F_p[t] with t the first Chern class
of the weight-1 character line; over a trivial-action base X it is
Ch(X)[t].  epsilon_r evaluates t at a chosen residue r: a ring morphism
Ch(X)[t] -> Ch(X), but not a graded one.

phi and f_i are the partition-dividing polynomials in x over F_p[t], stored
as dicts {(x_degree, t_degree): coefficient}.

localization_check verifies, numerically and exactly, that the degree of a
class on P(V) equals the fixed-point sum of degrees of epsilon_r applied to
the restriction times the inverse Euler class of the normal bundle.  The
model: the ambient equivariant ring is F_p[zeta, t] modulo the monic
relation prod_j (zeta + w_j t); restriction to the component of the
character c sends zeta to xi - c*t; the normal bundle to that component
has Euler class prod_{c' != c} (xi + (c' - c) t)^(mult c').  A class of
degree at most n never meets the relation, so its ordinary degree is its
coefficient at zeta^n t^0.  These three conventions calibrate each other
and are validated wholesale by the exhaustive sweep, which evaluates each
weight multiset once: both sides are symmetric in the weights.  Each
fixed component is a projective space, so its Chow ring is F_p[xi]/(xi^m)
and its fixed-point degrees have a closed form (_fixed_point_degrees).
The entry points localization_check and localization_sweep_violations
check that p is prime before any arithmetic mod p.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb

from . import partitions as pt

XTPoly = dict  # {(x_degree, t_degree): coefficient mod p}


def _xt_mul(a: XTPoly, b: XTPoly, p: int) -> XTPoly:
    out: XTPoly = {}
    for (xa, ta), ca in a.items():
        for (xb, tb), cb in b.items():
            k = (xa + xb, ta + tb)
            out[k] = (out.get(k, 0) + ca * cb) % p
    return {k: v for k, v in out.items() if v}


def phi(p: int) -> XTPoly:
    """x * (x + t) * ... * (x + (p-1)t), expanded over F_p."""
    pt.check_prime(p)
    out: XTPoly = {(1, 0): 1}
    for c in range(1, p):
        out = _xt_mul(out, {(1, 0): 1, (0, 1): c}, p)
    return out


def f_poly(p: int, i: int) -> XTPoly:
    """The degree-i dividing polynomial x^(i - p*floor(i/p)) * phi^floor(i/p)."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    u = i // p
    out: XTPoly = {(i - p * u, 0): 1}
    ph = phi(p)
    for _ in range(u):
        out = _xt_mul(out, ph, p)
    return out


def localization_check(p: int, weights, y, r: int) -> tuple[int, int]:
    """Both sides of the fixed-point degree identity; they must agree.

    lhs: the ordinary degree of y at t = 0 on P^n, which is y's coefficient
    at zeta^n t^0 once its degree is known to be at most n.  rhs: the sum over
    characters c present in the weights of the degree, on that fixed
    component, of epsilon_r(inverse Euler of its normal bundle) times
    epsilon_r(y restricted).  p must be prime and r nonzero mod p.  y is a
    dict {(zeta_degree, t_degree): coefficient} with nonnegative exponents,
    homogeneous of total degree at most n = len(weights) - 1.
    """
    pt.check_prime(p)
    weights = tuple(w % p for w in weights)
    if not weights:
        raise ValueError("at least one weight is required")
    n = len(weights) - 1
    r %= p
    if r == 0:
        raise ValueError("r must be nonzero mod p")
    element = {k: v % p for k, v in dict(y).items() if v % p}
    degrees = {a + b for a, b in element}
    if len(degrees) > 1:
        raise ValueError("y must be homogeneous")
    if degrees and max(degrees) > n:
        raise ValueError(f"degree of y exceeds n={n}")
    if any(a < 0 or b < 0 for a, b in element):
        raise ValueError("exponents of y must be nonnegative")

    lhs = element.get((n, 0), 0)

    table = _fixed_point_degrees(p, weights, r)
    rhs = sum(co * pow(r, b, p) * table[a] for (a, b), co in element.items()) % p
    return lhs, rhs


def _fixed_point_degrees(p: int, weights: tuple[int, ...], r: int) -> list[int]:
    """T[a] = sum over characters c of deg(epsilon_r(e_c)^-1 * (xi - c r)^a) for a <= n.

    The fixed component of character c, with m = mult(c), is P^(m-1): its
    Chow ring is F_p[xi]/(xi^m) and deg reads the coefficient of xi^(m-1).
    Its normal bundle has mult(c') copies of O(1) twisted by the character
    c' - c for each c' != c, so epsilon_r of its Euler class e_c is

        prod_{c' != c} (xi + v)^mult(c'),   v = r (c' - c) != 0 mod p,

    and each factor inverts by the binomial series, truncated below xi^m:

        (xi + v)^(-k) = sum_j binom(-k, j) v^(-k-j) xi^j,
        binom(-k, j) = (-1)^j binom(k+j-1, j).

    With E_j the coefficients of the product of those series, the binomial
    expansion (xi - c r)^a = sum_i binom(a, i) (-c r)^(a-i) xi^i gives

        T[a] = sum_c sum_{i <= min(a, m-1)} binom(a, i) (-c r)^(a-i) E_(m-1-i).

    The fixed-point side is linear in y: zeta^a t^b adds r^b T[a].
    """
    mults = Counter(weights)
    table = [0] * len(weights)
    for c, m in mults.items():
        inv_euler = [1] + [0] * (m - 1)
        for cp, k in mults.items():
            if cp != c:
                series = _inverse_power(r * (cp - c) % p, k, m, p)
                inv_euler = [sum(inv_euler[i] * series[j - i] for i in range(j + 1)) % p for j in range(m)]
        shift = -c * r
        for a in range(len(table)):
            table[a] += sum(
                comb(a, i) * pow(shift, a - i, p) * inv_euler[m - 1 - i] for i in range(min(a, m - 1) + 1)
            )
    return [d % p for d in table]


def _inverse_power(v: int, k: int, m: int, p: int) -> tuple[int, ...]:
    """Coefficients of (xi + v)^(-k) below xi^m over F_p, for v a unit; callers reduce v mod p."""
    v_inv = pow(v, -1, p)
    return tuple((-1) ** j * comb(k + j - 1, j) * pow(v_inv, k + j, p) % p for j in range(m))


def localization_case_count(p: int, max_len: int) -> int:
    """Ordered cases that localization_sweep_violations(p, max_len) covers: weights x monomials x r."""
    return sum(p**length * (length * (length + 1) // 2) * (p - 1) for length in range(1, max_len + 1))


def localization_sweep_violations(p: int, max_len: int = 5) -> list[tuple]:
    """Exhaustive sweep of the identity: all weights, monomials, and r.

    Covers every weight multiset of size <= max_len, every monomial
    zeta^a t^b with a + b <= n, every nonzero r.  Both sides are symmetric
    in the weights (the lhs does not read them, the table reads their
    multiplicities), so each multiset stands for all its orderings.
    Returns the failing (sorted weights, (a, b), r, lhs, rhs) tuples in that
    order, multisets in lexicographic order; must be empty.
    """
    pt.check_prime(p)
    bad = []
    for length in range(1, max_len + 1):
        n = length - 1
        for weights in itertools.combinations_with_replacement(range(p), length):
            tables = {r: _fixed_point_degrees(p, weights, r) for r in range(1, p)}
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    lhs = int((a, b) == (n, 0))
                    for r, table in tables.items():
                        rhs = pow(r, b, p) * table[a] % p
                        if lhs != rhs:
                            bad.append((weights, (a, b), r, lhs, rhs))
    return bad
