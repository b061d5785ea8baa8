"""Reference routes the tests compare the library against.

None of this is library code: each piece exists so that a test can check a
library route against an independent one.

* The direct forms of the closed-form atom classes in cobordlab.chow: the
  slice walks every partition of the weight and reduces each multinomial
  coefficient mod p, and the hypersurface class is summed as BPoly products.
* The generic Conner-Floyd series engine: multiplicative characteristic
  series P_g(E) = prod_j P_g(L_j)^(m_j) of split K-classes E, over any
  coefficient ring implementing the small protocol used here (zero/one/add/
  mul/neg/smul/is_zero/is_one).  A series is a dict from partitions to ring
  elements; multiplication convolves by partition union.
  class_from_tangent reads an atom's class off its tangent bundle, which is
  the reference for the closed forms.
* The generic truncated Chow ring ChowModel and the nilpotent geometric
  series euler_inverse_eps, which invert Euler classes for the reference
  fixed-point degrees that the closed form in
  cobordlab.equivariant._fixed_point_degrees is checked against.
* The f-divided series over Ch(X)[t] (TRing, FDividedFamily, f_alpha_class,
  epsilon_r), the check of cobordlab.equivariant.f_poly.
* Partition refinement, the check that monomial classes are triangular.
* The fixed-locus dimension of an action node counted from its character
  multisets on every call, every (V, W) pair of a Milnor action tried, the
  check of the memoized cobordlab.actions.fixed_dim and its closed form;
  and the natural action's fixed dimension on an atom in its two cases, the
  check of the one formula g(n, m, q) that cobordlab.actions.construct_action
  states.
* The term kernel on tuple partitions (a union is a sorted concatenation)
  and the canonical sort key of a tuple partition, the check of the packed
  keys that cobordlab.fpring and cobordlab.partitions work on.
* Products of atom classes multiplied left to right, the check of the
  product memo cobordlab.chow.product_class; and the generator atoms and the
  atoms under an action built as fresh records, the check of the interned
  atoms.
* The reduction of a class on P(V) modulo its monic relation, through the
  elementary symmetric functions of the weights: the left side of the
  localization identity the way the equivariant ring defines it, the check
  of the closed form in cobordlab.equivariant.
* Membership by dense elimination on tuple partitions, rows finest first,
  the check of the triangular solve and of the witness in
  cobordlab.cobordism; and the triangular solve that clears one length at
  a time, fewest parts first, on tuple partitions, the check of the
  largest-key solve there.
* The ratio rho_q of N_p minus a finite set as a brute-force minimum over
  a long range, the check of the residue-class heads of
  cobordlab.partitions.np_heads.
* A raw b[...] parser with its own tokenizer and token loop, the check of
  cobordlab.cli.parse_raw_bpoly on the scanner it shares with the variety
  grammar.

It also holds subprocess_env, the environment under which the tests run the
package in a fresh interpreter.
"""

import os
import re
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial
from pathlib import Path

import cobordlab
from cobordlab import partitions as pt
from cobordlab.actions import Disjoint, HAct, PAct
from cobordlab.chow import PAtom, VExpr, atom_class, make_h_atom
from cobordlab.cobordism import NotInLp
from cobordlab.equivariant import f_poly
from cobordlab.fpring import BPoly, GenPoly

# -- closed-form atom classes, term by term ------------------------------------


@cache
def all_partitions(w: int) -> tuple[pt.Partition, ...]:
    """pt.partitions_of(w) as a tuple, memoized here: the library keeps no memo of its walk."""
    return tuple(pt.partitions_of(w))


def reference_slice(p: int, k: int, w: int) -> BPoly:
    """Weight-w slice of S^(-k): (-1)^L * binom(k-1+L, L) * L!/prod(m_j!) at each partition."""
    terms = {}
    for alpha in all_partitions(w):
        L = len(alpha)
        c = comb(k - 1 + L, L) * factorial(L)
        for mult in Counter(alpha).values():
            c //= factorial(mult)
        c = (-c) % p if L % 2 else c % p
        if c:
            terms[alpha] = c
    return BPoly(p, terms)


def reference_h_class(p: int, n: int, m: int) -> BPoly:
    """[H(n,m)] = sum C(i+1, n-a) * A_a * B_b * b_i over a <= n, b <= m, i = n+m-1-a-b >= 0."""
    d = n + m - 1
    if d < 0:
        return BPoly.zero(p)
    A = [reference_slice(p, n + 1, a) for a in range(n + 1)]
    B = [reference_slice(p, m + 1, b) for b in range(m + 1)]
    total = BPoly.zero(p)
    for i in range(d + 1):
        inner = BPoly.zero(p)
        for a in range(max(0, d - i - m), min(n, d - i) + 1):
            c = comb(i + 1, n - a) % p
            if c:
                inner = inner + (A[a] * B[d - i - a]).scale(c)
        total = total + (inner * BPoly.monomial(p, (i,)) if i else inner)
    return total


# -- the term kernel on tuple partitions ----------------------------------------


def canonical_term_key(alpha: pt.Partition):
    """Sort key ordering partitions by weight, then canonical order within weight."""
    return (sum(alpha), tuple(-a for a in alpha))


def tuple_convolve(x: dict, y: dict, out: dict | None = None) -> dict:
    """Add the product of two tuple-keyed term dicts into out, unreduced: parts multiply by union."""
    if out is None:
        out = {}
    for beta, cb in x.items():
        for gamma, cg in y.items():
            u = tuple(sorted(beta + gamma, reverse=True))
            out[u] = out.get(u, 0) + cb * cg
    return out


def tuple_accumulate(out: dict, terms: dict, k: int = 1) -> dict:
    """Add k times the tuple-keyed terms into out, unreduced, and return out."""
    for alpha, c in terms.items():
        out[alpha] = out.get(alpha, 0) + k * c
    return out


# -- truncated Chow rings, atom models and split K-classes ---------------------


class ChowModel:
    """F_p[h_1..h_k] / (h_i^(cap_i+1)); deg reads the top-corner coefficient.

    Elements are sparse dicts mapping exponent tuples to nonzero residues.
    """

    def __init__(self, p: int, caps: tuple[int, ...]):
        pt.check_prime(p)
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


class AtomModel(ChowModel):
    """A ChowModel whose degree functional may pair with a multiplier first.

    deg(z) is the top-corner coefficient of degree_multiplier * z, or of z
    when there is no multiplier; virtual_dim is the weight the series engine
    truncates at.
    """

    def __init__(self, p: int, caps: tuple[int, ...], degree_multiplier=None, virtual_dim: int | None = None):
        super().__init__(p, caps)
        self.degree_multiplier = degree_multiplier
        self.virtual_dim = virtual_dim if virtual_dim is not None else sum(caps)

    def monomial(self, exps: tuple[int, ...], coeff: int = 1) -> dict:
        if len(exps) != self.nvars:
            raise ValueError("exponent arity mismatch")
        coeff %= self.p
        if not coeff or any(e > c for e, c in zip(exps, self.caps)):
            return {}
        return {tuple(exps): coeff}

    def linear_form(self, coeffs: tuple[int, ...]) -> dict:
        """sum coeffs_i * h_i"""
        out = self.zero()
        for i, c in enumerate(coeffs):
            out = self.add(out, self.monomial(tuple(1 if j == i else 0 for j in range(self.nvars)), c))
        return out

    def is_one(self, a: dict) -> bool:
        return a == self.one()

    def neg(self, a: dict) -> dict:
        return {e: self.p - c for e, c in a.items()}

    def deg(self, z: dict) -> int:
        if self.degree_multiplier is None:
            return super().deg(z)
        return self.mul(self.degree_multiplier, z).get(self.caps, 0)


class KClass(pt.Record):
    """Split K-theory class: line bundles with integer multiplicities plus a trivial offset.

    Each line is (multiplicity, twist); the twist is the tuple of h_i
    exponents, so c_1 = sum twist_i * h_i in the model.
    """

    __slots__ = ("model", "lines", "offset")

    def __init__(self, model: AtomModel, lines: tuple[tuple[int, tuple[int, ...]], ...], offset: int = 0):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "offset", offset)

    def rank(self) -> int:
        return sum(m for m, _ in self.lines) + self.offset

    def negate(self) -> "KClass":
        return KClass(self.model, tuple((-m, t) for m, t in self.lines), -self.offset)


def atom_model(atom, p: int) -> AtomModel:
    if isinstance(atom, PAtom):
        return AtomModel(p, (atom.n,), None, atom.n)
    model = AtomModel(p, (atom.n, atom.m), None, atom.n + atom.m - 1)
    model.degree_multiplier = model.add(model.var(0), model.var(1))
    return model


def tangent_kclass(atom, p: int) -> KClass:
    """Tangent bundle of an atom in split K-theory form over its model."""
    model = atom_model(atom, p)
    if isinstance(atom, PAtom):
        return KClass(model, ((atom.n + 1, (1,)),), -1)
    lines = ((atom.n + 1, (1, 0)), (atom.m + 1, (0, 1)), (-1, (1, 1)))
    return KClass(model, lines, -2)


# -- the generic series engine ---------------------------------------------------


class StandardFamily:
    """The multiplicative family with g_i(x) = x^i."""

    def values(self, ring, c1, max_weight: int):
        vals = [ring.one()]
        for _ in range(max_weight):
            vals.append(ring.mul(vals[-1], c1))
        return vals


STANDARD = StandardFamily()


def series_one(ring) -> dict:
    return {(): ring.one()}


def line_series(ring, gvalues) -> dict:
    """P_g(L) = sum_i g_i(c_1(L)) b_i given the evaluated family values."""
    out = {}
    for i, v in enumerate(gvalues):
        if not ring.is_zero(v):
            out[(i,) if i else ()] = v
    return out


def series_mul(ring, s: dict, t: dict, max_weight: int) -> dict:
    groups: dict[int, list] = {}
    for gamma, cg in t.items():
        groups.setdefault(sum(gamma), []).append((gamma, cg))
    out: dict = {}
    for beta, cb in s.items():
        wb = sum(beta)
        for wg, items in groups.items():
            if wb + wg > max_weight:
                continue
            for gamma, cg in items:
                prod = ring.mul(cb, cg)
                if ring.is_zero(prod):
                    continue
                u = tuple(sorted(beta + gamma, reverse=True))
                if u in out:
                    acc = ring.add(out[u], prod)
                    if ring.is_zero(acc):
                        del out[u]
                    else:
                        out[u] = acc
                else:
                    out[u] = prod
    return out


def series_inv(ring, s: dict, max_weight: int) -> dict:
    """Inverse of a series with constant term 1, by weight recursion."""
    if () not in s or not ring.is_one(s[()]):
        raise ValueError("series is not invertible: constant term must be 1")
    u_by_w: dict[int, list] = {}
    for beta, c in s.items():
        w = sum(beta)
        if w:
            u_by_w.setdefault(w, []).append((beta, c))
    t_by_w: dict[int, dict] = {0: {(): ring.one()}}
    for w in range(1, max_weight + 1):
        acc: dict = {}
        for wu, items in u_by_w.items():
            if wu > w:
                continue
            lower = t_by_w.get(w - wu, {})
            for beta, ub in items:
                for gamma, tg in lower.items():
                    prod = ring.mul(ub, tg)
                    if ring.is_zero(prod):
                        continue
                    alpha = tuple(sorted(beta + gamma, reverse=True))
                    acc[alpha] = ring.add(acc.get(alpha, ring.zero()), prod)
        level = {}
        for alpha, v in acc.items():
            nv = ring.neg(v)
            if not ring.is_zero(nv):
                level[alpha] = nv
        t_by_w[w] = level
    out = {}
    for level in t_by_w.values():
        out.update(level)
    return out


def series_pow(ring, s: dict, k: int, max_weight: int) -> dict:
    if k < 0:
        return series_pow(ring, series_inv(ring, s, max_weight), -k, max_weight)
    result = series_one(ring)
    base = s
    while k:
        if k & 1:
            result = series_mul(ring, result, base, max_weight)
        base = series_mul(ring, base, base, max_weight)
        k >>= 1
    return result


def cf_series(E: KClass, g=STANDARD, max_weight: int | None = None) -> dict:
    """Characteristic series P_g(E) of a split K-class, truncated by weight."""
    ring = E.model
    if max_weight is None:
        max_weight = ring.virtual_dim
    result = series_one(ring)
    for mult, twist in E.lines:
        c1 = ring.linear_form(twist)
        s = line_series(ring, g.values(ring, c1, max_weight))
        result = series_mul(ring, result, series_pow(ring, s, mult, max_weight), max_weight)
    if E.offset:
        s0 = line_series(ring, g.values(ring, ring.zero(), max_weight))
        result = series_mul(ring, result, series_pow(ring, s0, E.offset, max_weight), max_weight)
    return result


def class_from_tangent(tangent: KClass) -> BPoly:
    """Chern-number class via the generic engine: deg of each P(-T) coefficient."""
    model = tangent.model
    series = cf_series(tangent.negate(), STANDARD, model.virtual_dim)
    terms = {alpha: model.deg(c) for alpha, c in series.items()}
    return BPoly(model.p, terms)


# -- the f-divided series over Ch(X)[t] ------------------------------------------


class TRing:
    """Ch(X)[t] over a base model; elements map t-degree to base elements."""

    def __init__(self, base: AtomModel):
        self.base = base
        self.p = base.p

    def zero(self) -> dict:
        return {}

    def one(self) -> dict:
        return {0: self.base.one()}

    def is_zero(self, a: dict) -> bool:
        return not a

    def is_one(self, a: dict) -> bool:
        return a == self.one()

    def from_base(self, elem: dict) -> dict:
        return {0: elem} if elem else {}

    def t_term(self, tdeg: int, elem: dict) -> dict:
        return {tdeg: elem} if elem else {}

    def scalar(self, k: int) -> dict:
        return self.from_base(self.base.scalar(k))

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for td, v in b.items():
            s = self.base.add(out.get(td, self.base.zero()), v)
            if self.base.is_zero(s):
                out.pop(td, None)
            else:
                out[td] = s
        return out

    def neg(self, a: dict) -> dict:
        return {td: self.base.neg(v) for td, v in a.items()}

    def smul(self, k: int, a: dict) -> dict:
        out = {}
        for td, v in a.items():
            s = self.base.smul(k, v)
            if not self.base.is_zero(s):
                out[td] = s
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for ta, va in a.items():
            for tb, vb in b.items():
                prod = self.base.mul(va, vb)
                if self.base.is_zero(prod):
                    continue
                td = ta + tb
                s = self.base.add(out.get(td, self.base.zero()), prod)
                if self.base.is_zero(s):
                    out.pop(td, None)
                else:
                    out[td] = s
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


def epsilon_r(z: dict, r: int, base: ChowModel) -> dict:
    """Evaluate t at the residue r: Ch(X)[t] -> Ch(X), a ring morphism."""
    out = base.zero()
    for tdeg, elem in z.items():
        out = base.add(out, base.smul(pow(r % base.p, tdeg, base.p) if tdeg else 1, elem))
    return out


class FDividedFamily:
    """Series family whose i-th value is f_i evaluated at the line's c_1.

    Usable only over a TRing: values are computed from the (x, t) tables of
    f_poly with t supplied by the coefficient ring.
    """

    def __init__(self, p: int):
        self.p = p

    def values(self, ring: TRing, c1, max_weight: int):
        vals = []
        for i in range(max_weight + 1):
            table = f_poly(self.p, i)
            elem = ring.zero()
            for (xdeg, tdeg), co in table.items():
                term = ring.smul(co, ring.power(c1, xdeg))
                term = {td + tdeg: v for td, v in term.items()}
                elem = ring.add(elem, term)
            vals.append(elem)
        return vals


def f_alpha_class(E, alpha, base: AtomModel, max_weight: int | None = None) -> dict:
    """Coefficient at alpha of the f-family series of a split bundle.

    E is a list of (c1 form in the base ring, character c) pairs over a
    trivial-action base.  Setting t to zero must recover the ordinary
    series coefficient at alpha; that is asserted on every call.
    """
    alpha = pt.check_partition(tuple(alpha))
    W = sum(alpha) if max_weight is None else max_weight
    ring = TRing(base)
    fam = FDividedFamily(base.p)
    series = series_one(ring)
    plain = series_one(base)
    for c1_form, c in E:
        c1_t = ring.add(ring.from_base(c1_form), ring.t_term(1, base.scalar(c)))
        series = series_mul(ring, series, line_series(ring, fam.values(ring, c1_t, W)), W)
        powers = [base.one()]
        for _ in range(W):
            powers.append(base.mul(powers[-1], c1_form))
        plain = series_mul(base, plain, line_series(base, powers), W)
    out = series.get(alpha, ring.zero())
    if epsilon_r(out, 0, base) != plain.get(alpha, base.zero()):
        raise AssertionError(f"t = 0 does not recover the plain coefficient at {alpha}")
    return out


# -- partition refinement ----------------------------------------------------------


def _runs(alpha: pt.Partition) -> list[tuple[int, int]]:
    """Distinct parts with multiplicities, largest part first."""
    runs: list[tuple[int, int]] = []
    for a in alpha:
        if runs and runs[-1][0] == a:
            runs[-1] = (a, runs[-1][1] + 1)
        else:
            runs.append((a, 1))
    return runs


def sub_multisets(alpha: pt.Partition) -> list[pt.Partition]:
    """All sub-multisets of alpha, as partitions, in a fixed order."""
    subs: list[list[int]] = [[]]
    for part, mult in _runs(alpha):
        subs = [s + [part] * k for s in subs for k in range(mult + 1)]
    return [tuple(s) for s in subs]


def _multiset_minus(alpha: pt.Partition, block: pt.Partition) -> pt.Partition:
    remaining = list(alpha)
    for b in block:
        remaining.remove(b)
    return tuple(remaining)


@lru_cache(maxsize=200000)
def refines(alpha: pt.Partition, beta: pt.Partition) -> bool:
    """True if alpha refines beta: alpha splits into blocks summing to beta's parts."""
    if sum(alpha) != sum(beta):
        return False
    if not beta:
        return not alpha
    if len(alpha) < len(beta):
        return False
    target = beta[0]
    rest = beta[1:]
    for block in sub_multisets(alpha):
        if sum(block) != target or not block:
            continue
        if refines(_multiset_minus(alpha, block), rest):
            return True
    return False


# -- fixed-locus dimensions, unmemoized ---------------------------------------


def reference_atomic_fixed_dim(a):
    """The fixed dimension of a PAct or HAct from Counters, every pair of a Milnor action tried."""
    if isinstance(a, PAct):
        return max(Counter(a.weights).values()) - 1
    cv, cw = Counter(a.V), Counter(a.W)
    best = pt.NEG_INF
    for c, mv in cv.items():
        for g, mw in cw.items():
            r = mw - (1 if g == c else 0)
            if r >= 1:
                best = max(best, (mv - 1) + (r - 1))
    return best


def reference_fixed_dim(a):
    """fixed_dim with the Counter formulas evaluated afresh for every atomic factor."""
    if isinstance(a, (PAct, HAct)):
        return reference_atomic_fixed_dim(a)
    if isinstance(a, Disjoint):
        sums = []
        for _, factors in a.parts:
            dims = [reference_fixed_dim(f) for f in factors]
            sums.append(pt.NEG_INF if pt.NEG_INF in dims else sum(dims))
        return max(sums, default=pt.NEG_INF)
    raise TypeError(f"not an action node: {a!r}")


def reference_natural_fixed_dim(atom, q: int):
    """The natural action's fixed dimension on an atom, H(n, m) by its two cases.

    P(n) fixes n // q.  H(n, m) fixes (n+m-1) // q when q divides n and m,
    and n // q + m // q otherwise; H(0,0) is empty.
    """
    if isinstance(atom, PAtom):
        return atom.n // q
    n, m = atom.n, atom.m
    if n + m == 0:
        return pt.NEG_INF
    if n % q == 0 and m % q == 0:
        return (n + m - 1) // q
    return n // q + m // q


# -- the ratio rho_q of N_p minus a finite set, by brute force ----------------


def brute_force_np_rho(p: int, q: int, excluded) -> Fraction:
    """min floor(i/q)/i over N_p minus excluded for i in range(1, max(excluded) + 20q).

    N_p is read off the powers of p (i is out when i + 1 is one), and the
    ratios are compared by cross-multiplication, so no Fraction is built
    per index.
    """
    top = max(excluded, default=0) + 20 * q
    powers, power = set(), 1
    while power <= top:
        powers.add(power)
        power *= p
    best_num, best_den = 1, 1  # no ratio exceeds 1
    for i in range(1, top):
        if i + 1 in powers or i in excluded:
            continue
        if i // q * best_den < best_num * i:
            best_num, best_den = i // q, i
    return Fraction(best_num, best_den)


# -- products and atoms, built afresh ----------------------------------------


def reference_product(atoms, p: int) -> BPoly:
    """The class of a product of atoms, multiplied left to right from the unit."""
    cls = BPoly.one(p)
    for atom in atoms:
        cls = cls * atom_class(atom, p)
    return cls


def reference_generator_atom(i: int, p: int):
    """The weight-i generator atom as a fresh record: P(i), or H(p^s, i+1-p^s) for the largest p^s dividing i+1."""
    if not pt.in_np(i, p):
        raise ValueError(f"{i} is not a generator index for p={p}")
    if (i + 1) % p:
        return PAtom(i)
    q = p
    while (i + 1) % (q * p) == 0:
        q *= p
    return make_h_atom(q, i + 1 - q)[0]


def reference_underlying_variety(a) -> VExpr:
    """The variety expression under an action node, with a fresh atom record per factor."""

    def atom(node):
        if isinstance(node, PAct):
            return PAtom(len(node.weights) - 1)
        return make_h_atom(len(node.V) - 1, len(node.W) - 1)[0]

    if isinstance(a, (PAct, HAct)):
        return VExpr(((1, (atom(a),)),))
    return VExpr(tuple((mult, tuple(atom(f) for f in factors)) for mult, factors in a.parts))


# -- the relation of P(V) ---------------------------------------------------------


def elementary_symmetric(values: tuple[int, ...], p: int) -> list[int]:
    """e_0, ..., e_k of the values, mod p."""
    es = [1] + [0] * len(values)
    for w in values:
        for k in range(len(values), 0, -1):
            es[k] = (es[k] + w * es[k - 1]) % p
    return es


def reduce_zeta(element: dict, weights: tuple[int, ...], p: int) -> dict:
    """Reduce {(zeta_degree, t_degree): coefficient} mod the monic relation prod_j (zeta + w_j t).

    The result has zeta-degree at most n = len(weights) - 1, so its ordinary
    degree on P^n is its coefficient at (n, 0).
    """
    n = len(weights) - 1
    es = elementary_symmetric(weights, p)
    out = {k: v % p for k, v in element.items() if v % p}
    while high := [k for k in out if k[0] > n]:
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
    return out


# -- membership by dense elimination ------------------------------------------------


def reference_elimination(x_w: dict, weight: int, family) -> dict | pt.Partition:
    """Solve sum_beta y_beta [l_beta] = x_w in one weight by forward elimination.

    x_w maps partitions of the weight to coefficients.  The unknowns are the
    N_p-partitions beta of the weight, each column read from
    family.monomial_class(beta); the rows are all partitions of the weight
    in ascending tuple order, so finest first.  Returns the solution as
    {beta: y_beta}, or the witness: the first row that is inconsistent with
    the rows before it.
    """
    p = family.p
    columns = {beta: family.monomial_class(beta).terms
               for beta in all_partitions(weight) if all(pt.in_np(part, p) for part in beta)}
    pivots = []  # (unknown, row with a 1 there and 0 at every earlier pivot, rhs), in the order found
    for alpha in sorted(all_partitions(weight)):
        row = {beta: terms.get(alpha, 0) % p for beta, terms in columns.items()}
        rhs = x_w.get(alpha, 0) % p
        for pivot, prow, prhs in pivots:
            c = row[pivot]
            if c:
                row = {beta: (v - c * prow[beta]) % p for beta, v in row.items()}
                rhs = (rhs - c * prhs) % p
        pivot = next((beta for beta, v in row.items() if v), None)
        if pivot is None:
            if rhs:
                return alpha
            continue
        inv = pow(row[pivot], -1, p)
        pivots.append((pivot, {beta: v * inv % p for beta, v in row.items()}, rhs * inv % p))
    # back-substitution, last pivot first; the unknowns without a pivot are zero
    solution: dict = {}
    for pivot, prow, prhs in reversed(pivots):
        value = (prhs - sum(v * solution.get(beta, 0) for beta, v in prow.items() if beta != pivot)) % p
        if value:
            solution[pivot] = value
    return solution


def reference_express(x: BPoly, family):
    """Write x in the family's generators by the length-ordered triangular solve.

    The row of l_alpha supports strict refinements of alpha, which have
    more parts and the same weight; so clearing the support one length at
    a time, fewest parts first, clears every weight in one pass.  A
    support element owning a part outside N_p marks its weight as failing,
    and the witness is reference_elimination's on the lightest one.
    """
    p = x.p
    residual = x.terms
    solution: dict = {}
    failed: set[int] = set()
    # a partition of weight w has at most w parts
    for length in range(max(map(sum, residual), default=-1) + 1):
        for alpha in [alpha for alpha in residual if len(alpha) == length]:
            r = residual.get(alpha)
            if not r:
                continue
            if not all(pt.in_np(part, p) for part in alpha):
                failed.add(sum(alpha))
            if sum(alpha) in failed:
                continue
            row = family.monomial_class(alpha).terms
            coeff = r * pow(row[alpha], -1, p) % p
            solution[alpha] = coeff
            for beta, c in row.items():
                residual[beta] = (residual.get(beta, 0) - coeff * c) % p
                if not residual[beta]:
                    del residual[beta]
    if failed:
        weight = min(failed)
        return NotInLp(p, reference_elimination({a: c for a, c in x.terms.items() if sum(a) == weight}, weight, family))
    if residual:
        raise AssertionError(f"the length-ordered solve left {residual}")
    return GenPoly(p, solution)


# -- raw class input on its own tokenizer ---------------------------------------------


_RAW_TOKEN = re.compile(r"\s*(?:(b\[)|(\d+)|([\]^*+]))")


def reference_parse_raw_bpoly(text: str, p: int, ceiling: int = 16) -> BPoly:
    """Parse 'b[2]*b[1]^2 + b[4]' style input, including bare constants.

    Each term is held as its part multiplicities until the class's top
    weight is known, so a class above the weight ceiling is refused before
    any partition is written out.
    """
    pos = 0
    tokens = []
    while pos < len(text):
        m = _RAW_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"raw class syntax error at position {pos}: {text[pos:]!r}")
            break
        pos = m.end()
        tokens.append(m.group(1) or m.group(3) or int(m.group(2)))
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take(expected=None):
        nonlocal idx
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"raw class syntax error: expected {expected!r}, got {tok!r}")
        idx += 1
        return tok

    def parse_factor():
        # (i, e, 1) for a b[i]^e factor, (0, 0, c) for a bare integer coefficient c
        if peek() == "b[":
            take("b[")
            part = take()
            if not isinstance(part, int) or part < 1:
                raise ValueError("b[...] wants a positive integer index")
            take("]")
            exp = 1
            if peek() == "^":
                take("^")
                exp = take()
                if not isinstance(exp, int) or exp < 1:
                    raise ValueError("exponents are positive integers")
            return part, exp, 1
        tok = take()
        if not isinstance(tok, int):
            raise ValueError(f"raw class syntax error: unexpected {tok!r}")
        return 0, 0, tok

    terms: dict = {}  # ((part, multiplicity), ...) largest part first -> coefficient
    while True:
        coeff = 1
        mults: Counter = Counter()
        while True:
            part, exp, c = parse_factor()
            if part:
                mults[part] += exp
            coeff *= c
            if peek() == "*":
                take("*")
                continue
            break
        key = tuple(sorted(mults.items(), reverse=True))
        terms[key] = terms.get(key, 0) + coeff
        if peek() == "+":
            take("+")
            continue
        if peek() is None:
            break
        raise ValueError(f"raw class syntax error: unexpected {peek()!r}")
    pt.check_prime(p)
    terms = {key: c for key, c in terms.items() if c % p}
    top = max((sum(part * e for part, e in key) for key in terms), default=pt.NEG_INF)
    if top != pt.NEG_INF and top > ceiling:
        raise ValueError(f"raw class weight {top} exceeds {ceiling}; raise --max-weight")
    return BPoly(p, {tuple(part for part, e in key for _ in range(e)): c for key, c in terms.items()})


# -- fresh interpreters -------------------------------------------------------


def subprocess_env(**extra) -> dict:
    """os.environ with the package's source root put first on PYTHONPATH, and extra on top."""
    src = str(Path(cobordlab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)
