"""Explicit diagonalizable p-group actions described by character weight data.

An action of a diagonalizable group on a projective space, a Milnor
hypersurface, or a product/disjoint union of those is encoded purely by
character multisets: every fixed-locus dimension formula used here depends
only on multiplicities and equality of characters.  Characters are tuples
of residues, one per invariant factor of the character group.

construct_action builds the natural action on an atom, whose fixed locus
has dimension exactly floor(n/q) on P^n and g(n, m, q) on H(n, m); realize
assembles them into a disjoint union of products achieving dim_q for any
class in the generator ring.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

from .chow import HAtom, PAtom, VExpr, _h_atom, _p_atom, chern_numbers
from .cobordism import GeneratorFamily, dim_q_direct, express_required, generator_atom, standard_generators
from .fpring import NEG_INF, BPoly
from .partitions import Record, is_prime

Character = tuple[int, ...]


@lru_cache(maxsize=256)
def _prime_of(f: int) -> int:
    """The prime p with f = p^r, r >= 1, memoized for the last 256 factors (CharacterGroup.p reads it).

    Only the exact integer root of f of the highest order can be p, so that
    one candidate goes to is_prime and no divisor of f is searched for.
    """
    for k in range(max(f, 2).bit_length() - 1, 0, -1):
        r = 1 << -(-f.bit_length() // k)  # above the k-th root: Newton steps go down to its floor
        while (s := ((k - 1) * r + f // r ** (k - 1)) // k) < r:
            r = s
        if r**k == f:
            if is_prime(r):
                return r
            break
    raise ValueError(f"invariant factor {f} is not a prime power")


class CharacterGroup(Record):
    """Finite abelian p-group presented by prime-power invariant factors."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        object.__setattr__(self, "invariant_factors", invariant_factors)
        if not invariant_factors:
            raise ValueError("at least one invariant factor is required")
        primes = {_prime_of(f) for f in invariant_factors}
        if len(primes) != 1:
            raise ValueError("all invariant factors must be powers of one prime")

    @staticmethod
    def cyclic(q: int) -> "CharacterGroup":
        return CharacterGroup((q,))

    @property
    def p(self) -> int:
        return _prime_of(self.invariant_factors[0])

    @property
    def q(self) -> int:
        return math.prod(self.invariant_factors)


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
        rest = iter(W)  # both sorted, so V is a sub-multiset of W iff it is a subsequence
        if not all(c in rest for c in V):
            raise ValueError("V must be a sub-multiset of W")


class Disjoint(Record):
    """Disjoint union of products: parts are (multiplicity, factors) with factors a tuple of PAct/HAct."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[int, tuple[PAct | HAct, ...]], ...]):
        object.__setattr__(self, "parts", parts)
        for mult, factors in parts:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if not isinstance(factors, tuple):
                raise ValueError("disjoint parts must be products")
            if not all(isinstance(f, (PAct, HAct)) for f in factors):
                raise ValueError("product factors must be atomic actions")


WeightedVariety = PAct | HAct | Disjoint


def _parts(a: WeightedVariety) -> tuple[tuple[int, tuple[PAct | HAct, ...]], ...]:
    """The (multiplicity, factors) parts of an action node; an atomic action is one part of one factor."""
    if isinstance(a, Disjoint):
        return a.parts
    if isinstance(a, (PAct, HAct)):
        return ((1, (a,)),)
    raise TypeError(f"not an action node: {a!r}")


def fixed_dim(a: WeightedVariety):
    """Exact dimension of the fixed locus; -inf when it is empty.

    P(V): one projective component per character c in V, of dimension
    mult(c) - 1.  Milnor case: components are projective bundles indexed by
    pairs (c, g), of dimension (mult_V(c) - 1) + (r - 1) where the fibre
    rank is r = mult_W(g), less one when g = c; empty unless r >= 1.
    """
    return max((sum(map(_atomic_fixed_dim, factors)) for _, factors in _parts(a)), default=NEG_INF)


# keyed by value, so equal actions built apart share an entry; bounded for long sessions
@lru_cache(maxsize=1 << 12)
def _atomic_fixed_dim(a: PAct | HAct):
    """fixed_dim of one atomic action, from character counts, with no pair loop.

    The best Milnor pair (c, g) takes g of W's top count t, so its
    dimension is mult_V(c) + t - 2, less one when c is the only character
    of count t (then g = c, or a g of count at most t - 1).
    """
    if isinstance(a, PAct):
        return max(map(a.weights.count, set(a.weights))) - 1
    V, W = a.V, a.W
    if len(W) == 1:
        return NEG_INF  # V = W = (c,): the fibre rank mult_W(c) - 1 is 0
    counts = {g: W.count(g) for g in set(W)}
    top = max(counts.values())
    tops = [g for g, m in counts.items() if m == top]
    lone = tops[0] if len(tops) == 1 else None
    return top - 2 + max(V.count(c) - (c == lone) for c in set(V))


def _character_multiset(dim_plus_one: int, G: CharacterGroup) -> tuple[Character, ...]:
    """Weights of a (dim_plus_one)-dimensional representation, sorted.

    Writing dim_plus_one = q*a + r with 1 <= r <= q, the first r characters
    of G, in product-over-ranges order, get multiplicity a + 1, the rest a.
    Only the first n = min(q, dim_plus_one) are built: every digit of the
    first n is below n, so the product over ranges cut at n lists them first.
    """
    a, r = divmod(dim_plus_one - 1, G.q)
    r += 1
    n = min(G.q, dim_plus_one)
    chars = itertools.product(*(range(min(f, n)) for f in G.invariant_factors))
    weights = []
    for idx, ch in enumerate(itertools.islice(chars, n)):
        weights.extend([ch] * (a + 1 if idx < r else a))
    return tuple(sorted(weights))


@lru_cache(maxsize=1 << 12)
def construct_action(atom: PAtom | HAtom, G: CharacterGroup) -> PAct | HAct:
    """The natural action of G on an atom, checked against its fixed dimension.

    P(n) gets the weights of an (n+1)-dimensional representation, whose
    fixed dimension is n // q.  H(n, m), n <= m, takes V and W by the same
    rule, so the prefix choice makes V a sub-multiset of W, and its fixed
    dimension is g = max(n//q + (m-1)//q, (n-1)//q + m//q); H(0,0) is empty
    (-inf).  Memoized for the last 4096 (atom, G): actions are immutable
    records, so one instance serves every monomial that uses the atom.
    """
    q = G.q
    if isinstance(atom, PAtom):
        action: PAct | HAct = PAct(_character_multiset(atom.n + 1, G))
        want = atom.n // q
    else:
        n, m = atom.n, atom.m
        action = HAct(_character_multiset(n + 1, G), _character_multiset(m + 1, G))
        want = max(n // q + (m - 1) // q, (n - 1) // q + m // q) if m else NEG_INF
    if fixed_dim(action) != want:
        raise AssertionError(f"{atom} action misses fixed dimension {want}")
    return action


def underlying_variety(a: WeightedVariety) -> VExpr:
    """The variety expression an action node acts on, over interned atoms."""

    def atom(node: PAct | HAct) -> PAtom | HAtom:
        if isinstance(node, PAct):
            return _p_atom(len(node.weights) - 1)
        return _h_atom(len(node.V) - 1, len(node.W) - 1)

    return VExpr(tuple((mult, tuple(map(atom, factors))) for mult, factors in _parts(a)))


def realize(x: BPoly, G: CharacterGroup, fam: GeneratorFamily | None = None) -> tuple[Disjoint, object]:
    """An explicit action on a variety with class x whose fixed locus achieves dim_q.

    Expresses x in the standard generators (fam, if given, must be the
    family standard_generators returns) and takes the disjoint union,
    with the expression's coefficients as multiplicities, of products of
    per-generator actions.  Checks both halves of the contract: the
    achieved dimension equals dim_q(x) and the underlying variety's class
    reproduces x exactly.
    """
    p = x.p
    if G.p != p:
        raise ValueError("character group prime mismatch")
    if fam is not None and fam is not standard_generators(p):
        raise ValueError("realize needs the standard family: its atoms are the standard generator varieties")
    P = express_required(x, fam)
    # The action on the weight-i generator atom fixes floor(i/q), so each
    # product fixes pi_q of its monomial and needs no check of its own.
    # P(i) fixes i // q.  H(n, m) = H(p^s, (k-1)p^s), with n + m = i + 1,
    # fixes g: if q | p^s, q divides n and m, and g = (n+m-1)//q = i//q; if
    # q > p^s, g = m//q, and m mod q is a multiple of p^s, at most q - p^s,
    # so adding p^s - 1 stays below the next multiple of q: m//q = i//q.
    parts = []
    for beta, mult in P.sorted_terms():
        parts.append((mult, tuple(construct_action(generator_atom(part, p), G) for part in beta)))
    action = Disjoint(tuple(parts))
    achieved = fixed_dim(action)
    if achieved != dim_q_direct(x, G.q):
        raise AssertionError(f"realized fixed dimension {achieved} differs from dim_q")
    if chern_numbers(underlying_variety(action), p) != x:
        raise AssertionError("realized variety does not reproduce the class")
    return action, achieved


def _action_tree(a: WeightedVariety, factor) -> dict:
    """The JSON layout of an action node, with factor(f) standing for each atomic action f in it."""
    if isinstance(a, Disjoint):
        return {
            "type": "Disjoint",
            "parts": [
                {"multiplicity": mult, "action": {"type": "Product", "factors": list(map(factor, factors))}}
                for mult, factors in a.parts
            ],
        }
    if isinstance(a, (PAct, HAct)):
        return factor(a)
    raise TypeError(f"not an action node: {a!r}")


def _factor_tree(a: PAct | HAct) -> dict:
    if isinstance(a, PAct):
        return {"type": "P", "weights": a.weights}
    return {"type": "H", "V": a.V, "W": a.W}


def action_to_json(a: WeightedVariety) -> dict:
    """The action as a tree for json.dumps, which writes each tuple as an array.

    The character multisets go in as the action's own tuples, not copied.
    """
    return _action_tree(a, _factor_tree)


def render_json(obj, indent: int | None = None) -> str:
    """json.dumps(obj, sort_keys=True, indent=indent), reading each action node in obj as its action_to_json tree.

    json.dumps writes obj with each distinct atomic action as a marker
    "\\0<i>" (written "\\u0000<i>"), a string no CLI payload holds.  Each
    marker is then replaced by its action's own json.dumps text, encoded
    once and re-indented to the marker's line: a realized action's parts
    reuse a few interned factors.  A value that is neither JSON nor an
    action node raises TypeError, as json.dumps does.
    """
    # imported here, so that importing the package or the CLI does not load json
    import json

    marks: dict = {}  # atomic action -> its marker

    def default(node):  # _action_tree refuses a value that is not an action node
        return _action_tree(node, lambda f: marks.setdefault(f, f"\0{len(marks)}"))

    text = json.dumps(obj, sort_keys=True, indent=indent, default=default)
    if not marks:
        return text
    factors, spaces = list(marks), re.compile(" *")
    texts: dict = {}  # (marker index, leading spaces of its line) -> the factor's text

    def splice(m: re.Match) -> str:
        line = text.rfind("\n", 0, m.start()) + 1
        key = (m[1], spaces.match(text, line).end() - line)
        if key not in texts:
            factor = json.dumps(_factor_tree(factors[int(m[1])]), sort_keys=True, indent=indent)
            texts[key] = factor.replace("\n", "\n" + " " * key[1])
        return texts[key]

    return re.sub(r'"\\u0000(\d+)"', splice, text)
