"""Explicit diagonalizable p-group actions described by character weight data.

An action of a diagonalizable group on a projective space, a Milnor
hypersurface, or a product/disjoint union of those is encoded purely by
character multisets: every fixed-locus dimension formula used here depends
only on multiplicities and equality of characters.  Characters are tuples
of residues, one per invariant factor of the character group.

The constructors build the actions whose fixed loci have dimension exactly
floor(n/q) on P^n (and the matching two-case value on H(n, m)); realize
assembles them into a disjoint union of products achieving dim_q for any
class in the generator ring.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, lru_cache

from .chow import HAtom, PAtom, VExpr, VProduct, _h_atom, _p_atom, chern_numbers
from .cobordism import GeneratorFamily, dim_q_direct, express_required, generator_atom
from .fpring import NEG_INF, BPoly
from .partitions import Record

Character = tuple[int, ...]


def _prime_power_root(f: int) -> tuple[int, int]:
    """(p, r) with f = p^r, r >= 1."""
    if f < 2:
        raise ValueError(f"invariant factor {f} is not a prime power")
    p = next(d for d in range(2, f + 1) if f % d == 0)
    r = 0
    rest = f
    while rest % p == 0:
        rest //= p
        r += 1
    if rest != 1:
        raise ValueError(f"invariant factor {f} is not a prime power")
    return p, r


class CharacterGroup(Record):
    """Finite abelian p-group presented by prime-power invariant factors."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        object.__setattr__(self, "invariant_factors", invariant_factors)
        if not invariant_factors:
            raise ValueError("at least one invariant factor is required")
        primes = {_prime_power_root(f)[0] for f in invariant_factors}
        if len(primes) != 1:
            raise ValueError("all invariant factors must be powers of one prime")

    @staticmethod
    def cyclic(q: int) -> "CharacterGroup":
        return CharacterGroup((q,))

    @property
    def p(self) -> int:
        return _prime_power_root(self.invariant_factors[0])[0]

    @property
    def q(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    def characters(self) -> list[Character]:
        """All characters in a fixed deterministic order."""
        return list(itertools.product(*(range(f) for f in self.invariant_factors)))


class PAct(Record):
    """Action on P(V) given by the character multiset of V (sorted tuple)."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[Character, ...]):
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ValueError("P(V) needs dim V >= 1")
        if tuple(sorted(weights)) != weights:
            raise ValueError("weights must be stored sorted")


class HAct(Record):
    """Action on the Milnor hypersurface in P(V) x P(W), V a sub-multiset of W."""

    __slots__ = ("V", "W")

    def __init__(self, V: tuple[Character, ...], W: tuple[Character, ...]):
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        if not V or not W:
            raise ValueError("V and W must be nonempty")
        if tuple(sorted(V)) != V or tuple(sorted(W)) != W:
            raise ValueError("character multisets must be stored sorted")
        cv, cw = Counter(V), Counter(W)
        if any(cv[c] > cw[c] for c in cv):
            raise ValueError("V must be a sub-multiset of W")


class Product(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)
        for f in factors:
            if not isinstance(f, (PAct, HAct)):
                raise ValueError("product factors must be atomic actions")


class Disjoint(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[int, Product], ...]):
        object.__setattr__(self, "parts", parts)
        for mult, node in parts:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if not isinstance(node, Product):
                raise ValueError("disjoint parts must be products")


WeightedVariety = PAct | HAct | Product | Disjoint


def fixed_dim(a: WeightedVariety):
    """Exact dimension of the fixed locus; -inf when it is empty.

    P(V): one projective component per character c in V, of dimension
    mult(c) - 1.  Milnor case: components are projective bundles indexed by
    pairs (c, g), of dimension (mult_V(c) - 1) + (r - 1) where the fibre
    rank is r = mult_W(g), less one when g = c; empty unless r >= 1.
    """
    if isinstance(a, (PAct, HAct)):
        return _atomic_fixed_dim(a)
    if isinstance(a, Product):
        total = 0
        for f in a.factors:
            d = fixed_dim(f)
            if d == NEG_INF:
                return NEG_INF
            total += d
        return total
    if isinstance(a, Disjoint):
        return max((fixed_dim(node) for _, node in a.parts), default=NEG_INF)
    raise TypeError(f"not an action node: {a!r}")


# keyed by value, so equal actions built apart share an entry; bounded for long sessions
@lru_cache(maxsize=1 << 12)
def _atomic_fixed_dim(a: PAct | HAct):
    if isinstance(a, PAct):
        return max(Counter(a.weights).values()) - 1
    cv, cw = Counter(a.V), Counter(a.W)
    best = NEG_INF
    for c, mv in cv.items():
        for g, mw in cw.items():
            r = mw - (1 if g == c else 0)
            if r >= 1:
                best = max(best, (mv - 1) + (r - 1))
    return best


def _character_multiset(dim_plus_one: int, G: CharacterGroup) -> tuple[Character, ...]:
    """Weights of a (dim_plus_one)-dimensional representation, sorted.

    Writing dim_plus_one = q*a + r with 1 <= r <= q, the first r characters
    get multiplicity a + 1 and the rest get a.
    """
    a, r = divmod(dim_plus_one - 1, G.q)
    r += 1
    weights = []
    for idx, ch in enumerate(G.characters()):
        weights.extend([ch] * (a + 1 if idx < r else a))
    return tuple(sorted(weights))


def construct_action_P(n: int, G: CharacterGroup) -> PAct:
    """Action on P^n with fixed locus of dimension exactly floor(n/q)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    action = PAct(_character_multiset(n + 1, G))
    if fixed_dim(action) != n // G.q:
        raise AssertionError(f"P({n}) action misses fixed dimension {n // G.q}")
    return action


def construct_action_H(n: int, m: int, G: CharacterGroup) -> HAct:
    """Action on H(n, m), n <= m after normalization.

    V and W follow the same first-characters-get-one-more rule as the P^n
    case; with n <= m the prefix choice makes V a sub-multiset of W.  The
    fixed dimension is floor((n+m-1)/q) when q divides both n and m, and
    floor(n/q) + floor(m/q) otherwise; H(0,0) is empty (-inf).
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    n, m = min(n, m), max(n, m)
    q = G.q
    action = HAct(_character_multiset(n + 1, G), _character_multiset(m + 1, G))
    if n + m > 0:
        if n % q == 0 and m % q == 0:
            expected = (n + m - 1) // q
        else:
            expected = n // q + m // q
    else:
        expected = NEG_INF
    if fixed_dim(action) != expected:
        raise AssertionError(f"H({n},{m}) action misses fixed dimension {expected}")
    return action


@cache
def construct_action_L(i: int, G: CharacterGroup) -> PAct | HAct:
    """Action on the weight-i generator variety with fixed dimension floor(i/q).

    Memoized per (i, G): actions are immutable records, so one instance
    serves every monomial that uses the generator.
    """
    atom = generator_atom(i, G.p)
    if isinstance(atom, PAtom):
        action: PAct | HAct = construct_action_P(atom.n, G)
    else:
        action = construct_action_H(atom.n, atom.m, G)
    if fixed_dim(action) != i // G.q:
        raise AssertionError(f"weight-{i} generator action misses fixed dimension {i // G.q}")
    return action


def underlying_variety(a: WeightedVariety) -> VExpr:
    """The variety expression an action node acts on, over interned atoms."""

    def atom(node) -> PAtom | HAtom:
        if isinstance(node, PAct):
            return _p_atom(len(node.weights) - 1)
        if isinstance(node, HAct):
            return _h_atom(len(node.V) - 1, len(node.W) - 1)
        raise TypeError(f"not an atomic action: {node!r}")

    if isinstance(a, (PAct, HAct)):
        return VExpr(((1, VProduct((atom(a),))),))
    if isinstance(a, Product):
        return VExpr(((1, VProduct(tuple(atom(f) for f in a.factors))),))
    if isinstance(a, Disjoint):
        return VExpr(tuple((mult, VProduct(tuple(atom(f) for f in node.factors))) for mult, node in a.parts))
    raise TypeError(f"not an action node: {a!r}")


def realize(x: BPoly, G: CharacterGroup, fam: GeneratorFamily | None = None) -> tuple[Disjoint, object]:
    """An explicit action on a variety with class x whose fixed locus achieves dim_q.

    Expresses x in the standard generators and takes the disjoint union,
    with the expression's coefficients as multiplicities, of products of
    per-generator actions.  Checks both halves of the contract: the
    achieved dimension equals dim_q(x) and the underlying variety's class
    reproduces x exactly.
    """
    p = x.p
    if G.p != p:
        raise ValueError("character group prime mismatch")
    if fam is not None and not fam.kind.startswith("standard"):
        raise ValueError("realize needs the standard family: its atoms are the standard generator varieties")
    P = express_required(x, fam)
    parts = []
    for beta in P.support():
        node = Product(tuple(construct_action_L(part, G) for part in beta))
        parts.append((P.terms[beta], node))
    action = Disjoint(tuple(parts))
    achieved = fixed_dim(action)
    if achieved != dim_q_direct(x, G.q):
        raise AssertionError(f"realized fixed dimension {achieved} differs from dim_q")
    if chern_numbers(underlying_variety(action), p) != x:
        raise AssertionError("realized variety does not reproduce the class")
    return action, achieved


def action_to_json(a: WeightedVariety) -> dict:
    if isinstance(a, PAct):
        return {"type": "P", "weights": [list(c) for c in a.weights]}
    if isinstance(a, HAct):
        return {"type": "H", "V": [list(c) for c in a.V], "W": [list(c) for c in a.W]}
    if isinstance(a, Product):
        return {"type": "Product", "factors": [action_to_json(f) for f in a.factors]}
    if isinstance(a, Disjoint):
        return {
            "type": "Disjoint",
            "parts": [{"multiplicity": mult, "action": action_to_json(node)} for mult, node in a.parts],
        }
    raise TypeError(f"not an action node: {a!r}")
