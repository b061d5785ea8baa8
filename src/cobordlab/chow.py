"""Variety expressions and their mod-p Chern-number classes.

Variety expressions are disjoint unions, with multiplicities, of products of
two kinds of atoms: projective spaces P(n) and Milnor hypersurfaces H(n, m)
(the smooth (1,1)-divisor in P^n x P^m, canonically ordered n <= m).
parse_variety reads the expression grammar on Scanner, the token cursor the
raw b[...] grammar shares, and chern_numbers maps an expression to its class.

Atom classes come from one closed form: the coefficients of the inverse
powers (sum_i b_i x^i)^(-k) are multinomial, which gives P^n directly and
H(n, m) as a short sum of products of such slices.  Only the nonzero terms
are built: by Kummer and Lucas they are stacks of base-p digit layers.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from functools import cache
from math import comb, factorial

from . import partitions as pt
from .fpring import BPoly, _convolve, _normalize


# -- variety expressions ---------------------------------------------------


class PAtom(pt.Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)
        if n < 0:
            raise ValueError("P index must be nonnegative")

    def __str__(self):
        return f"P({self.n})"


class HAtom(pt.Record):
    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        if n < 0:
            raise ValueError("H indices must be nonnegative")  # with n <= m, m is too
        if n > m:
            raise ValueError("HAtom stores n <= m; use make_h_atom to normalize")

    def __str__(self):
        return f"H({self.n},{self.m})"


Atom = PAtom | HAtom


def make_h_atom(a: int, b: int) -> tuple[HAtom, bool]:
    """Normalized Milnor atom and whether the indices were swapped."""
    return (HAtom(a, b), False) if a <= b else (HAtom(b, a), True)


# The atoms the library derives from small ints (the generator atoms and the
# atoms under an action) are interned: memo keys holding them match by identity.


@cache
def _p_atom(n: int) -> PAtom:
    return PAtom(n)


@cache
def _h_atom(a: int, b: int) -> HAtom:
    return make_h_atom(a, b)[0]


class VExpr(pt.Record):
    """Disjoint union of products: parts are (multiplicity, atoms) with positive multiplicities."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[int, tuple[Atom, ...]], ...]):
        object.__setattr__(self, "parts", parts)

    def __str__(self):
        if not self.parts:
            return "0"
        chunks = []
        for mult, atoms in self.parts:
            prod = "*".join(map(str, atoms))
            chunks.append(f"{mult}.{prod}" if mult != 1 else prod)
        return " + ".join(chunks)


_TOKEN = re.compile(r"\s*(?:(\d+|b\[|[\]PH*+,().^])|(\S))")


class Scanner:
    """Cursor over the tokens of both input grammars, variety and raw b[...].

    A token is an unsigned integer or a symbol of either grammar, and the
    list ends in None.  Whitespace may come before any token and at the end.
    """

    def __init__(self, text: str):
        self.tokens: list[str | None] = []
        for m in _TOKEN.finditer(text):
            if m.group(2):
                raise ValueError(f"bad character in expression: {text[m.start():]!r}")
            self.tokens.append(m.group(1))
        self.tokens.append(None)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos]

    def take(self, expected: str | None = None) -> str | None:
        tok = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r} at token {tok!r}")
        self.pos += 1
        return tok

    def uint(self) -> int:
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ValueError(f"expected integer, got {tok!r}")
        return int(tok)

    def end(self) -> None:
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")


def parse_variety(text: str) -> tuple[VExpr, list[str]]:
    """Parse 'expr := term (+ term)*; term := [uint .] atom (* atom)*'.

    Returns the expression and any normalization notes (H index swaps).
    """
    tokens = Scanner(text)
    notes: list[str] = []

    def parse_atom():
        tok = tokens.take()
        if tok == "P":
            tokens.take("(")
            n = tokens.uint()
            tokens.take(")")
            return PAtom(n)
        if tok == "H":
            tokens.take("(")
            a = tokens.uint()
            tokens.take(",")
            b = tokens.uint()
            tokens.take(")")
            atom, swapped = make_h_atom(a, b)
            if swapped:
                notes.append(f"H({a},{b}) normalized to H({b},{a})")
            return atom
        raise ValueError(f"expected atom, got {tok!r}")

    def parse_term():
        mult = 1
        if tokens.peek() is not None and tokens.peek().isdigit():
            mult = tokens.uint()
            tokens.take(".")
            if mult < 1:
                raise ValueError("multiplicity must be positive")
        atoms = [parse_atom()]
        while tokens.peek() == "*":
            tokens.take()
            atoms.append(parse_atom())
        return mult, tuple(atoms)

    parts = [parse_term()]
    while tokens.peek() == "+":
        tokens.take()
        parts.append(parse_term())
    tokens.end()
    return VExpr(tuple(parts)), notes


# -- atom classes in closed form ---------------------------------------------


@cache
def _layer_table(p: int, s: int, digit: int) -> tuple[tuple[int, int], ...]:
    """Digit layers of weight s under a base-p digit of k-1, as packed keys with their mod-p factors.

    A layer is a partition with L <= p-1-digit parts; its factor is
    (-1)^L * L!/prod(mult!) * binom(digit+L, L), nonzero mod p by that bound.
    """
    out = []
    for lam in pt.partitions_of(s, max_len=p - 1 - digit):
        L = len(lam)
        c = comb(digit + L, L) * factorial(L)
        for mult in Counter(lam).values():
            c //= factorial(mult)
        out.append((pt.pack(lam), (-c) % p if L % 2 else c % p))
    return tuple(out)


@cache
def _layers_from(p: int, digits: tuple[int, ...], j: int, w: int) -> dict[int, int]:
    """Nonzero packed terms built from digit layers j, j+1, ... of total weight p^j * w.

    Layer j contributes each of its parts p^j times, which multiplies every
    field of its packed key by p^j; its weight s must be
    congruent to w mod p, and the layers above it make up (w - s) / p.
    Distinct stacks give distinct partitions, and the coefficients are
    products of nonzero layer factors, left unreduced.  The memo hands the
    same dict to every caller, so it is only ever read.
    """
    if w == 0:
        return {0: 1}
    digit = digits[j] if j < len(digits) else 0
    rep = p**j
    out: dict[int, int] = {}
    for s in range(w % p, w + 1, p):
        rest = _layers_from(p, digits, j + 1, (w - s) // p)
        if rest:
            head = {key * rep: c for key, c in _layer_table(p, s, digit)}
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
    A = [_inverse_power_slice(p, n + 1, a).packed for a in range(n + 1)]
    B = [_inverse_power_slice(p, m + 1, b).packed for b in range(m + 1)]
    acc: dict[int, int] = {}
    for a in range(min(n, d) + 1):
        folded: dict[int, int] = {}
        for i in range(max(0, d - a - m), d - a + 1):
            c = comb(i + 1, n - a) % p
            if c:
                _convolve({pt.pack((i,) if i else ()): c}, B[d - a - i], folded)
        _convolve(A[a], _normalize(folded, p), acc)
    return BPoly._trusted(p, acc)


def check_atom_cap(atom: Atom) -> None:
    """Refuse an atom above the weight cap: its class needs slices up to n for P(n), m for H(n, m)."""
    w = atom.n if isinstance(atom, PAtom) else atom.m
    if w > pt.DEFAULT_WEIGHT_CAP:
        raise ValueError(f"weight {w} exceeds cap {pt.DEFAULT_WEIGHT_CAP}")


def atom_class(atom: Atom, p: int) -> BPoly:
    """Exact mod-p class of an atom, the one-atom memo entry; a miss runs check_atom_cap, then the closed form."""
    key = (p, (atom,))
    cls = _PRODUCT_CACHE.get(key)
    if cls is None:
        check_atom_cap(atom)
        cls = _PRODUCT_CACHE[key] = _pn_class(p, atom.n) if isinstance(atom, PAtom) else _h_class(p, atom.n, atom.m)
    return cls


_PRODUCT_CACHE: dict[tuple, BPoly] = {}


def _atom_order(atom: Atom) -> tuple[int, ...]:
    # the fields: (n,) for P(n) and (n, m) for H(n, m), distinct for distinct atoms
    return atom._values(atom)


def read_products(parts, p: int) -> dict:
    """(multiplicity, atoms) parts read before any build, as weight -> sorted atoms -> summed multiplicity.

    Every atom's cap is checked first, then the prime, then each product's
    weight, the sum of its atoms' top weights (NEG_INF from a zero atom on, as
    F_p[b] has no zero divisors): the one refusal past the key limit, made at
    the first prefix over it, before any later atom's class is read.
    """
    for atom in (atom for _, atoms in parts for atom in atoms):
        check_atom_cap(atom)
    pt.check_prime(p)
    weights: dict = defaultdict(Counter)
    for m, atoms in parts:
        atoms = tuple(sorted(atoms, key=_atom_order))
        w = 0
        for atom in atoms:
            terms = atom_class(atom, p).packed  # homogeneous, so any one key holds its top weight
            w += pt.key_weight(next(iter(terms))) if terms else pt.NEG_INF
            if w > pt.KEY_LIMIT:
                raise ValueError(f"product weight {w} exceeds the packed-key limit {pt.KEY_LIMIT}")
        weights[w][atoms] += m
    return weights


def sums_to_zero(tied, p: int) -> bool:
    """Whether nonzero products of one weight, {sorted atoms: multiplicity}, sum to zero mod p.

    Packed keys add with no carry, so a product's largest key is the sum of
    its atoms' largest keys, reached once: its coefficient is the product of
    theirs.  Only a sum whose largest such key cancels mod p is built.
    """
    parts = tuple((m, atoms) for atoms, m in tied.items() if m % p)
    lead: Counter = Counter()  # leading key -> summed leading coefficient
    for m, atoms in parts:
        key = 0
        for atom in atoms:
            terms = atom_class(atom, p).packed
            top = max(terms)
            key, m = key + top, m * terms[top]
        lead[key] += m
    return not lead or lead[max(lead)] % p == 0 and chern_numbers(VExpr(parts), p).is_zero()


def product_class(atoms, p: int) -> BPoly:
    """Exact mod-p class of a product of atoms, memoized per prime and atom multiset.

    The memo key holds the atoms sorted by their fields, so factor order does
    not matter.  A miss checks no weight (read_products reads a product first,
    and BPoly.__mul__ refuses past the key limit): it reads its atoms' classes
    with atom_class and walks the sorted prefixes of the non-unit atoms (P(0)
    and H(0,1) stay out), reading each from the memo or storing the previous
    prefix times its last atom: one convolution per new product.  The walk
    stops after KEY_LIMIT + 1 atoms: a nonzero product has at most KEY_LIMIT,
    and a zero one has met a zero atom.  Callers share it and only read it.
    """
    atoms = tuple(sorted(atoms, key=_atom_order))
    key = (p, atoms)
    cls = _PRODUCT_CACHE.get(key)
    if cls is None:
        # an atom class holding the empty partition has weight 0: it is the unit
        walk = [(atom, c) for atom in atoms if 0 not in (c := atom_class(atom, p)).packed][:pt.KEY_LIMIT + 1]
        factors = tuple(atom for atom, _ in walk)
        cls = walk[0][1] if walk else BPoly.one(p)  # the empty product is the unit
        for i in range(1, len(walk)):
            prefix_key = (p, factors[:i + 1])
            prefix = _PRODUCT_CACHE.get(prefix_key)
            if prefix is None:
                prefix = _PRODUCT_CACHE[prefix_key] = cls * walk[i][1]
            cls = prefix
        if atoms:
            _PRODUCT_CACHE[key] = cls
    return cls


def chern_numbers(expr, p: int) -> BPoly:
    """Exact mod-p Chern-number class of a variety expression, a VExpr or its text.

    The products the memo misses are all read, with read_products, before any
    is built.  BPoly._sum adds up the multiples, so a single product of
    multiplicity 1 is the memoized class itself, which callers must not mutate.
    """
    if isinstance(expr, str):
        expr, _ = parse_variety(expr)
    found = [_PRODUCT_CACHE.get((p, tuple(sorted(atoms, key=_atom_order)))) for _, atoms in expr.parts]
    read_products([part for part, cls in zip(expr.parts, found) if cls is None], p)
    return BPoly._sum(p, [(m, product_class(atoms, p) if cls is None else cls)
                          for (m, atoms), cls in zip(expr.parts, found)])
