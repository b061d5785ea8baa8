"""Variety expressions and their mod-p Chern-number classes.

Variety expressions are disjoint unions, with multiplicities, of products of
two kinds of atoms: projective spaces P(n) and Milnor hypersurfaces H(n, m)
(the smooth (1,1)-divisor in P^n x P^m, canonically ordered n <= m).
parse_variety reads the expression grammar, and chern_numbers maps an
expression to its mod-p Chern-number class as a BPoly.

Atom classes come from one closed form: the coefficients of the inverse
powers (sum_i b_i x^i)^(-k) are multinomial, which gives P^n directly and
H(n, m) as a short sum of products of such slices.  Only the nonzero terms
are built: by Kummer and Lucas they are stacks of base-p digit layers.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cache
from math import comb, factorial

from . import partitions as pt
from .fpring import BPoly, _accumulate, _convolve, _normalize


# -- variety expressions ---------------------------------------------------


class PAtom(pt.Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)

    def dim(self) -> int:
        return self.n

    def __str__(self):
        return f"P({self.n})"


class HAtom(pt.Record):
    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        if n > m:
            raise ValueError("HAtom stores n <= m; use make_h_atom to normalize")

    def dim(self) -> int:
        return self.n + self.m - 1

    def __str__(self):
        return f"H({self.n},{self.m})"


Atom = PAtom | HAtom


def make_h_atom(a: int, b: int) -> tuple[HAtom, bool]:
    """Normalized Milnor atom and whether the indices were swapped."""
    if a < 0 or b < 0:
        raise ValueError("H indices must be nonnegative")
    return (HAtom(a, b), False) if a <= b else (HAtom(b, a), True)


# The atoms the library derives from small ints (the generator atoms and the
# atoms under an action) are interned: memo keys holding them match by identity.


@cache
def _p_atom(n: int) -> PAtom:
    return PAtom(n)


@cache
def _h_atom(a: int, b: int) -> HAtom:
    return make_h_atom(a, b)[0]


class VProduct(pt.Record):
    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple[Atom, ...]):
        object.__setattr__(self, "atoms", atoms)

    def dim(self) -> int:
        return sum(a.dim() for a in self.atoms)

    def __str__(self):
        return "*".join(str(a) for a in self.atoms)


class VExpr(pt.Record):
    """Disjoint union of products, with positive integer multiplicities."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[int, VProduct], ...]):
        object.__setattr__(self, "parts", parts)

    def dim(self) -> int:
        """Top dimension across components; -1 for the empty expression."""
        return max((prod.dim() for _, prod in self.parts), default=-1)

    def __str__(self):
        if not self.parts:
            return "0"
        chunks = []
        for mult, prod in self.parts:
            chunks.append(f"{mult}.{prod}" if mult != 1 else str(prod))
        return " + ".join(chunks)


_TOKEN = re.compile(r"\s*(?:(\d+)|([PH*+,().])|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.group(3):
            raise ValueError(f"bad character in expression: {text[pos:]!r}")
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    tokens.append(None)
    return tokens


def parse_variety(text: str) -> tuple[VExpr, list[str]]:
    """Parse 'expr := term (+ term)*; term := [uint .] atom (* atom)*'.

    Returns the expression and any normalization notes (H index swaps).
    """
    tokens = _tokenize(text)
    pos = 0
    notes: list[str] = []

    def peek():
        return tokens[pos]

    def take(expected=None):
        nonlocal pos
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r} at token {tok!r}")
        pos += 1
        return tok

    def parse_uint():
        tok = take()
        if tok is None or not tok.isdigit():
            raise ValueError(f"expected integer, got {tok!r}")
        return int(tok)

    def parse_atom():
        tok = take()
        if tok == "P":
            take("(")
            n = parse_uint()
            take(")")
            if n < 0:
                raise ValueError("P(n) needs n >= 0")
            return PAtom(n)
        if tok == "H":
            take("(")
            a = parse_uint()
            take(",")
            b = parse_uint()
            take(")")
            atom, swapped = make_h_atom(a, b)
            if swapped:
                notes.append(f"H({a},{b}) normalized to H({b},{a})")
            return atom
        raise ValueError(f"expected atom, got {tok!r}")

    def parse_term():
        mult = 1
        if peek() is not None and peek().isdigit():
            mult = parse_uint()
            take(".")
            if mult < 1:
                raise ValueError("multiplicity must be positive")
        atoms = [parse_atom()]
        while peek() == "*":
            take("*")
            atoms.append(parse_atom())
        return mult, VProduct(tuple(atoms))

    parts = [parse_term()]
    while peek() == "+":
        take("+")
        parts.append(parse_term())
    if peek() is not None:
        raise ValueError(f"trailing input at {peek()!r}")
    return VExpr(tuple(parts)), notes


# -- atom classes in closed form ---------------------------------------------


def _partitions_at_most(s: int, cap: int, max_part: int):
    """Partitions of s with at most cap parts, none above max_part, largest part first."""
    if s == 0:
        yield ()
        return
    if cap == 0:
        return
    # the remaining cap-1 parts are at most v each, so v >= s/cap
    for v in range(min(s, max_part), (s + cap - 1) // cap - 1, -1):
        for rest in _partitions_at_most(s - v, cap - 1, v):
            yield (v,) + rest


@cache
def _layer_table(p: int, s: int, digit: int) -> tuple[tuple[pt.Partition, int], ...]:
    """Digit layers of weight s under a base-p digit of k-1, with their mod-p factors.

    A layer is a partition with L <= p-1-digit parts; its factor is
    (-1)^L * L!/prod(mult!) * binom(digit+L, L), nonzero mod p by that bound.
    """
    out = []
    for lam in _partitions_at_most(s, p - 1 - digit, s):
        L = len(lam)
        c = comb(digit + L, L) * factorial(L)
        for mult in Counter(lam).values():
            c //= factorial(mult)
        out.append((lam, (-c) % p if L % 2 else c % p))
    return tuple(out)


@cache
def _layers_from(p: int, digits: tuple[int, ...], j: int, w: int) -> dict[pt.Partition, int]:
    """Nonzero terms built from digit layers j, j+1, ... of total weight p^j * w.

    Layer j contributes each of its parts p^j times; its weight s must be
    congruent to w mod p, and the layers above it make up (w - s) / p.
    Distinct stacks give distinct partitions, and the coefficients are
    products of nonzero layer factors, left unreduced.  The memo hands the
    same dict to every caller, so it is only ever read.
    """
    if w == 0:
        return {(): 1}
    digit = digits[j] if j < len(digits) else 0
    rep = p**j
    out: dict[pt.Partition, int] = {}
    for s in range(w % p, w + 1, p):
        rest = _layers_from(p, digits, j + 1, (w - s) // p)
        if rest:
            head = {tuple(part for part in lam for _ in range(rep)): c for lam, c in _layer_table(p, s, digit)}
            _convolve(head, rest, out)
    return out


def _inverse_power_slice(p: int, k: int, w: int) -> BPoly:
    """Weight-w slice of S^(-k), S = sum_i b_i x^i, with x set to 1.

    Expanding (1 + (S-1))^(-k) binomially gives the coefficient at a
    partition alpha with L parts and multiplicities m_i directly:
    (-1)^L * binom(k-1+L, L) * L! / prod(m_i!).  By Kummer the multinomial
    is nonzero mod p iff the m_i add without carries in base p, and by
    Lucas the binomial is nonzero iff L adds to k-1 without carries; both
    then factor digit by digit.  So the nonzero terms are exactly the
    stacks of digit layers: layer j holds digit j of each m_i, at most
    p-1-digit_j(k-1) parts in all (one at most for p = 2), and the
    coefficient is the product of the layer factors.
    """
    digits = []
    rest = k - 1
    while rest:
        rest, d = divmod(rest, p)
        digits.append(d)
    return BPoly._trusted(p, _layers_from(p, tuple(digits), 0, w))


def _pn_class(p: int, n: int) -> BPoly:
    """Mod-p class of P^n: the weight-n slice of S^(-(n+1)).

    The tangent bundle is (n+1)O(1) - 1, so P(-T) = S(h)^(-(n+1)), and the
    degree reads its h^n coefficient.
    """
    return _inverse_power_slice(p, n + 1, n)


def _h_class(p: int, n: int, m: int) -> BPoly:
    """Mod-p class of the Milnor hypersurface in P^n x P^m, n <= m.

    With d = n+m-1, P(-T) = S(x)^(-(n+1)) * S(y)^(-(m+1)) * S(x+y), and
    deg(x^j y^k) is the coefficient of x^n y^m in (x+y) x^j y^k.  Writing
    A_a, B_b for the weight-a, weight-b slices of S^(-(n+1)), S^(-(m+1))
    and expanding (x+y)^i binomially leaves
    [H(n,m)] = sum C(i+1, n-a) * A_a * B_b * b_i over a <= n, b <= m and
    i = d-a-b >= 0 (b_0 = 1).  Grouped by a, this is sum_a A_a * C_a with
    C_a = sum_i C(i+1, n-a) * b_i * B_(d-a-i): each C_a is folded and reduced
    first, which merges many of its terms, and then every product term of
    A_a * C_a goes into one dict, reduced mod p once at the end.
    """
    d = n + m - 1
    if d < 0:
        return BPoly.zero(p)  # H(0,0) is empty
    A = [_inverse_power_slice(p, n + 1, a).terms for a in range(n + 1)]
    B = [_inverse_power_slice(p, m + 1, b).terms for b in range(m + 1)]
    acc: dict[pt.Partition, int] = {}
    for a in range(min(n, d) + 1):
        folded: dict[pt.Partition, int] = {}
        for i in range(max(0, d - a - m), d - a + 1):
            c = comb(i + 1, n - a) % p
            if c:
                _convolve({(i,) if i else (): c}, B[d - a - i], folded)
        _convolve(A[a], _normalize(folded, p), acc)
    return BPoly._trusted(p, acc)


_ATOM_CACHE: dict[tuple, BPoly] = {}


def atom_class(atom: Atom, p: int) -> BPoly:
    """Exact mod-p class of an atom.

    P(n) needs a weight-n slice and H(n, m) slices up to weight m, so each
    is refused when that weight is above the cap; products of atoms are not.
    """
    key = (p, atom)
    if key not in _ATOM_CACHE:
        w = atom.n if isinstance(atom, PAtom) else atom.m
        if w > pt.DEFAULT_WEIGHT_CAP:
            raise ValueError(f"weight {w} exceeds cap {pt.DEFAULT_WEIGHT_CAP}")
        if isinstance(atom, PAtom):
            _ATOM_CACHE[key] = _pn_class(p, atom.n)
        else:
            _ATOM_CACHE[key] = _h_class(p, atom.n, atom.m)
    return _ATOM_CACHE[key]


_PRODUCT_CACHE: dict[tuple, BPoly] = {}


def _atom_order(atom: Atom) -> tuple[int, ...]:
    # the fields: (n,) for P(n) and (n, m) for H(n, m), distinct for distinct atoms
    return atom._values(atom)


def product_class(atoms, p: int) -> BPoly:
    """Exact mod-p class of a product of atoms, memoized per prime and atom multiset.

    The class of a product does not depend on the order of its factors, so
    the memo key holds the atoms sorted by their fields.  A new product is
    the memoized product of all its sorted atoms but the last, times the
    last atom's class: one convolution per product built.  A one-atom
    product is the atom's own class.  The memo hands the same class to
    every caller, so callers only ever read it.
    """
    return _sorted_product(tuple(sorted(atoms, key=_atom_order)), p)


def _sorted_product(atoms: tuple, p: int) -> BPoly:
    """product_class of atoms already sorted into memo-key order."""
    if len(atoms) == 1:
        return atom_class(atoms[0], p)
    key = (p, atoms)
    cls = _PRODUCT_CACHE.get(key)
    if cls is None:
        cls = _sorted_product(atoms[:-1], p) * atom_class(atoms[-1], p) if atoms else BPoly.one(p)
        _PRODUCT_CACHE[key] = cls
    return cls


def chern_numbers(expr, p: int) -> BPoly:
    """Exact mod-p Chern-number class of a variety expression.

    Accepts a VExpr, a VProduct, an atom, or a string in the expression
    grammar.  The products' classes come from the product memo, and their
    multiples are summed into one dict that is reduced mod p once.  A single
    product of multiplicity 1 is the memoized class itself, shared with
    every other caller, which must not mutate it.
    """
    if isinstance(expr, str):
        expr, _ = parse_variety(expr)
    if isinstance(expr, (PAtom, HAtom)):
        expr = VExpr(((1, VProduct((expr,))),))
    if isinstance(expr, VProduct):
        expr = VExpr(((1, expr),))
    pt.check_prime(p)
    if len(expr.parts) == 1 and expr.parts[0][0] == 1:
        return product_class(expr.parts[0][1].atoms, p)
    acc: dict[pt.Partition, int] = {}
    for mult, prod in expr.parts:
        _accumulate(acc, product_class(prod.atoms, p).terms, mult)
    return BPoly._trusted(p, acc)
