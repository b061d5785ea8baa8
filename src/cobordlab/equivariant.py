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
has Euler class prod_{c' != c} (xi + (c' - c) t)^(mult c').  These three
conventions calibrate each other and are validated wholesale by the
exhaustive sweep.  Each fixed component is a projective space, and its
Chow ring is a ChowModel: a truncated polynomial ring over F_p.
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
    if not pt.is_prime(p):
        raise ValueError(f"{p} is not prime")
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


class ChowModel:
    """F_p[h_1..h_k] / (h_i^(cap_i+1)); deg reads the top-corner coefficient.

    Elements are sparse dicts mapping exponent tuples to nonzero residues.
    """

    def __init__(self, p: int, caps: tuple[int, ...]):
        if not pt.is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.caps = tuple(caps)
        self.nvars = len(caps)

    def zero(self) -> dict:
        return {}

    def one(self) -> dict:
        return {(0,) * self.nvars: 1}

    def scalar(self, k: int) -> dict:
        k %= self.p
        return {(0,) * self.nvars: k} if k else {}

    def var(self, i: int) -> dict:
        if self.caps[i] < 1:
            return {}
        exps = [0] * self.nvars
        exps[i] = 1
        return {tuple(exps): 1}

    def is_zero(self, a: dict) -> bool:
        return not a

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for e, c in b.items():
            s = (out.get(e, 0) + c) % self.p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return out

    def smul(self, k: int, a: dict) -> dict:
        k %= self.p
        if not k:
            return {}
        return {e: (k * c) % self.p for e, c in a.items() if (k * c) % self.p}

    def mul(self, a: dict, b: dict) -> dict:
        caps = self.caps
        p = self.p
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if any(x > c for x, c in zip(e, caps)):
                    continue
                s = (out.get(e, 0) + c1 * c2) % p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return out

    def power(self, a: dict, k: int) -> dict:
        result = self.one()
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def deg(self, z: dict) -> int:
        """The coefficient of the top corner monomial prod h_i^cap_i."""
        return z.get(self.caps, 0) % self.p

    def __repr__(self):
        return f"ChowModel(p={self.p}, caps={self.caps})"


def euler_inverse_eps(base: ChowModel, chern: list, c: int, r: int) -> dict:
    """Inverse of epsilon_r of the Euler class of F tensor the character-c line.

    chern lists c_1(F)..c_n(F) in the base ring (n = rank F); the value to
    invert is (rc)^n + c_1(F)(rc)^(n-1) + ... + c_n(F), a unit because its
    scalar part (rc)^n is nonzero and the rest is nilpotent.
    """
    p = base.p
    n = len(chern)
    rc = (r * c) % p
    if rc == 0:
        raise ValueError("rc must be nonzero mod p: the bundle may have no trivial character part")
    unit = pow(rc, n, p)
    nil = base.zero()
    for k, ck in enumerate(chern, start=1):
        nil = base.add(nil, base.smul(pow(rc, n - k, p), ck))
    # (unit + nil)^(-1) = unit^(-1) * sum (-nil/unit)^j, finite by nilpotency
    inv_unit = pow(unit, -1, p)
    ratio = base.smul(p - inv_unit, nil)
    out = base.one()
    term = base.one()
    for _ in range(sum(base.caps) + 1):
        term = base.mul(term, ratio)
        if base.is_zero(term):
            break
        out = base.add(out, term)
    else:
        if not base.is_zero(term):
            raise AssertionError("nilpotent part failed to vanish")
    return base.smul(inv_unit, out)


def _elementary_symmetric(values: tuple[int, ...], p: int) -> list[int]:
    es = [1] + [0] * len(values)
    for w in values:
        for k in range(len(values), 0, -1):
            es[k] = (es[k] + w * es[k - 1]) % p
    return es


def _reduce_zeta(element: dict, weights: tuple[int, ...], p: int) -> dict:
    """Reduce mod the monic relation prod_j (zeta + w_j t), leaving zeta-degree <= n."""
    n = len(weights) - 1
    es = _elementary_symmetric(weights, p)
    out = {k: v % p for k, v in element.items() if v % p}
    while True:
        high = [k for k in out if k[0] > n]
        if not high:
            return out
        a, b = max(high)
        co = out.pop((a, b))
        for k in range(1, n + 2):
            if es[k] == 0:
                continue
            key = (a - k, b + k)
            nv = (out.get(key, 0) - co * es[k]) % p
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)


class EqProjClass:
    """A class on P(V) for a linear mu_p-action with the given weights.

    element is a polynomial in (zeta, t) stored {(zeta_deg, t_deg): coeff},
    kept reduced modulo the relation, so zeta-degree stays at most n.
    """

    def __init__(self, p: int, weights, element: dict):
        if not pt.is_prime(p):
            raise ValueError(f"{p} is not prime")
        weights = tuple(w % p for w in weights)
        if not weights:
            raise ValueError("at least one weight is required")
        self.p = p
        self.weights = weights
        self.element = _reduce_zeta(element, weights, p)

    @classmethod
    def monomial(cls, p: int, weights, zdeg: int, tdeg: int, coeff: int = 1) -> "EqProjClass":
        return cls(p, weights, {(zdeg, tdeg): coeff})

    def degrees(self) -> set[int]:
        return {a + b for a, b in self.element}

    def __eq__(self, other):
        return (
            isinstance(other, EqProjClass)
            and (self.p, self.weights, self.element) == (other.p, other.weights, other.element)
        )

    def __repr__(self):
        return f"EqProjClass(p={self.p}, weights={self.weights}, element={self.element})"


def localization_check(p: int, weights, y, r: int) -> tuple[int, int]:
    """Both sides of the fixed-point degree identity; they must agree.

    lhs: the ordinary degree of y at t = 0 on P^n.  rhs: the sum over
    characters c present in the weights of the degree, on that fixed
    component, of epsilon_r(inverse Euler of its normal bundle) times
    epsilon_r(y restricted).  r must be nonzero mod p.  y is homogeneous of
    total degree at most n = len(weights) - 1.
    """
    weights = tuple(w % p for w in weights)
    if not weights:
        raise ValueError("at least one weight is required")
    n = len(weights) - 1
    r %= p
    if r == 0:
        raise ValueError("r must be nonzero mod p")
    if isinstance(y, EqProjClass):
        if y.p != p or y.weights != weights:
            raise ValueError("class belongs to a different action")
        element = y.element
    else:
        element = {k: v % p for k, v in dict(y).items() if v % p}
    degrees = {a + b for a, b in element}
    if len(degrees) > 1:
        raise ValueError("y must be homogeneous")
    if degrees and max(degrees) > n:
        raise ValueError(f"degree of y exceeds n={n}")

    lhs = _reduce_zeta(element, weights, p).get((n, 0), 0)

    table = _fixed_point_degrees(p, weights, r)
    rhs = sum(co * pow(r, b, p) * table[a] for (a, b), co in element.items()) % p
    return lhs, rhs


def _fixed_point_degrees(p: int, weights: tuple[int, ...], r: int) -> list[int]:
    """T[a] = sum over characters c of deg(epsilon_r(e_c)^-1 * (xi - c r)^a) for a <= n.

    e_c is the Euler class of the normal bundle of the fixed component of
    character c.  The fixed-point side is linear in y: zeta^a t^b adds r^b T[a].
    """
    mults = Counter(weights)
    table = [0] * len(weights)
    for c, mc in sorted(mults.items()):
        base = ChowModel(p, (mc - 1,))
        xi = base.var(0)
        inv_euler = base.one()
        for cp, mcp in mults.items():
            if cp == c:
                continue
            chern = [base.smul(comb(mcp, k), base.power(xi, k)) for k in range(1, mcp + 1)]
            inv_euler = base.mul(inv_euler, euler_inverse_eps(base, chern, (cp - c) % p, r))
        # restriction zeta -> xi - c t, then t -> r; term runs over inv_euler * shifted^a
        shifted = base.add(xi, base.scalar(-c * r))
        term = inv_euler
        for a in range(len(table)):
            table[a] = (table[a] + base.deg(term)) % p
            term = base.mul(term, shifted)
    return table


def localization_case_count(p: int, max_len: int) -> int:
    """Cases in localization_sweep_violations(p, max_len): weights x monomials x r."""
    return sum(p**length * (length * (length + 1) // 2) * (p - 1) for length in range(1, max_len + 1))


def localization_sweep_violations(p: int, max_len: int = 5) -> list[tuple]:
    """Exhaustive sweep of the identity: all weights, monomials, and r.

    Covers every weight tuple of length <= max_len, every monomial
    zeta^a t^b with a + b <= n, every nonzero r.  Returns the failing
    (weights, (a, b), r, lhs, rhs) tuples; must be empty.
    """
    bad = []
    for length in range(1, max_len + 1):
        for weights in itertools.product(range(p), repeat=length):
            tables = {r: _fixed_point_degrees(p, weights, r) for r in range(1, p)}
            n = length - 1
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    lhs = _reduce_zeta({(a, b): 1}, weights, p).get((n, 0), 0)
                    for r, table in tables.items():
                        rhs = pow(r, b, p) * table[a] % p
                        if lhs != rhs:
                            bad.append((weights, (a, b), r, lhs, rhs))
    return bad
