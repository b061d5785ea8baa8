"""Sparse partition-indexed polynomials over a prime field.

BPoly models classes in the mod-p Lazard quotient: a finite sum of
b-monomials b_alpha with coefficients in F_p, multiplied by multiset union
of the indexing partitions.  Every BPoly is exact: an unstored coefficient
is zero.

GenPoly models polynomials in abstract generator symbols; a monomial
X_{i_1}...X_{i_k} is indexed by the partition (i_1 >= ... >= i_k).  Both
share one implementation of the arithmetic and differ only in their symbol
and their JSON key.

Terms are stored in packed, a dict from packed partition keys (see
partitions.pack) to coefficients, so a product pair is one int addition.
Partitions are tuples at the boundary: the constructors, coefficient,
support, terms (a new tuple-keyed dict on each access), formatting and JSON.
The packed keys hold weights up to partitions.KEY_LIMIT; a product whose
top weights add up to more is refused with a ValueError.

Validation happens at the boundary only.  The public constructors
BPoly(...) and GenPoly(...), monomial, coefficient and the CLI parsers
check the prime and every partition.  Results that arithmetic builds from
already-valid operands (sums, scalings, products) go through the private
_trusted constructor, which still reduces mod p and drops zeros, but skips
those checks.
"""

from __future__ import annotations

from collections import Counter

from . import partitions as pt
from .partitions import KEY_LIMIT, NEG_INF, Partition, canonical_order, key_weight


def _normalize(terms: dict, p: int) -> dict:
    """The terms with coefficients reduced mod p and zeros dropped; keys are kept as given."""
    out = {}
    for alpha, c in terms.items():
        c %= p
        if c:
            out[alpha] = c
    return out


def _convolve(x: dict, y: dict, out: dict | None = None) -> dict:
    """Add the product of two term dicts under packed keys into out (a new dict by default).

    Parts multiply by union, which adds the keys.  Coefficients come out
    unreduced; the constructors reduce them mod p.
    """
    if out is None:
        out = {}
    for beta, cb in x.items():
        for gamma, cg in y.items():
            u = beta + gamma
            out[u] = out.get(u, 0) + cb * cg
    return out


def _combination(p: int, pairs) -> dict:
    """The sum of k * terms over the (k, terms) pairs mod p, zeros dropped; each terms is reduced, with no zeros.

    A support disjoint from the sum so far (usual: the terms differ in weight) merges with one dict.update.
    """
    out: dict = {}
    for k, terms in pairs:
        k %= p
        if k and out.keys().isdisjoint(terms.keys()):
            out.update(terms if k == 1 else {alpha: k * c % p for alpha, c in terms.items()})
        elif k:
            _add_multiple(out, k, terms, p)
    return out


def _add_multiple(out: dict, k: int, terms: dict, p: int) -> None:
    """out += k * terms mod p in place, dropping the entries that cancel; k is nonzero mod p.

    A stored zero in terms that out lacks raises the KeyError of its key.
    """
    for alpha, c in terms.items():
        c = (out.get(alpha, 0) + k * c) % p
        if c:
            out[alpha] = c
        else:
            del out[alpha]


class _PartitionPoly:
    """Mod-p linear combination of monomials indexed by partitions."""

    __slots__ = ("p", "packed")
    _symbol = ""  # the monomial's factor symbol when printed
    _json_key = ""  # the key of a term's partition in the JSON form

    def __init__(self, p: int, terms: dict | None = None):
        pt.check_prime(p)
        self.p = p
        terms = _normalize({tuple(alpha): c for alpha, c in (terms or {}).items()}, p)
        self.packed = {pt.pack(pt.check_partition(alpha)): c for alpha, c in terms.items()}

    @classmethod
    def _trusted(cls, p: int, packed: dict):
        """Build from valid packed keys over a prime, skipping the checks."""
        return cls._reduced(p, _normalize(packed, p))

    @classmethod
    def _reduced(cls, p: int, packed: dict):
        """Wrap packed terms that are valid and already reduced mod p, without a copy."""
        obj = object.__new__(cls)
        obj.p = p
        obj.packed = packed
        return obj

    @classmethod
    def _sum(cls, p: int, pairs):
        """Sum of k * poly over a sequence of (k, poly) pairs; a lone pair with k = 1 is that poly itself, shared."""
        if len(pairs) == 1 and pairs[0][0] == 1:
            return pairs[0][1]
        return cls._reduced(p, _combination(p, ((k, poly.packed) for k, poly in pairs)))

    @property
    def terms(self) -> dict:
        """The terms under tuple partitions, in a new dict on each access."""
        return {pt.unpack(key): c for key, c in self.packed.items()}

    @classmethod
    def zero(cls, p: int):
        return cls(p, {})

    @classmethod
    def one(cls, p: int):
        return cls(p, {(): 1})

    @classmethod
    def monomial(cls, p: int, alpha, coeff: int = 1):
        return cls(p, {tuple(alpha): coeff})

    def is_zero(self) -> bool:
        return not self.packed

    def support(self) -> list[Partition]:
        return [alpha for alpha, _ in self.sorted_terms()]

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        """(partition, coefficient) pairs in support order."""
        return [(pt.unpack(key), self.packed[key]) for key in canonical_order(self.packed)]

    def coefficient(self, alpha) -> int:
        alpha = pt.check_partition(tuple(alpha))
        return self.packed.get(pt.pack(alpha), 0) if sum(alpha) <= KEY_LIMIT else 0

    def top_weight(self):
        """Largest weight in the support; NEG_INF for zero."""
        return max(map(key_weight, self.packed), default=NEG_INF)

    def _check_operand(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError("mixed primes")

    def __add__(self, other):
        self._check_operand(other)
        return self._sum(self.p, ((1, self), (1, other)))

    def scale(self, k: int):
        return self._reduced(self.p, _combination(self.p, ((k, self.packed),)))

    def __mul__(self, other):
        self._check_operand(other)
        w = self.top_weight() + other.top_weight()
        if w > KEY_LIMIT:
            raise ValueError(f"product weight {w} exceeds the packed-key limit {KEY_LIMIT}")
        return self._trusted(self.p, _convolve(self.packed, other.packed))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.p == other.p and self.packed == other.packed

    def __hash__(self):
        return hash((self.p, frozenset(self.packed.items())))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, {_format_terms(self)})"

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "terms": [
                {self._json_key: list(alpha), "coeff": c} for alpha, c in self.sorted_terms()
            ],
        }


class BPoly(_PartitionPoly):
    """Mod-p linear combination of b-monomials indexed by partitions."""

    __slots__ = ()
    _symbol = "b"
    _json_key = "partition"

    def is_homogeneous(self) -> bool:
        return len(set(map(key_weight, self.packed))) <= 1

    def to_json_dict(self) -> dict:
        # class --json carries maxWeight; a BPoly is exact, so it is null unless class filters
        return {"maxWeight": None, **super().to_json_dict()}


class GenPoly(_PartitionPoly):
    """Mod-p polynomial in generator symbols, monomials indexed by partitions."""

    __slots__ = ()
    _symbol = "X"
    _json_key = "monomial"

    def deg_q(self, q: int):
        """Degree where the symbol of index i counts floor(i/q); NEG_INF for zero."""
        return pt.max_pi_q(self.packed, q)


def _format_terms(poly: _PartitionPoly) -> str:
    """Terms in support order, each monomial written with symbol[part]^mult factors."""
    symbol = poly._symbol
    if poly.is_zero():
        return "0"
    chunks = []
    for alpha, c in poly.sorted_terms():
        # Counter keeps first-seen order, so the parts stay largest first
        factors = [f"{symbol}[{part}]" + (f"^{mult}" if mult > 1 else "")
                   for part, mult in Counter(alpha).items()]
        chunks.append(f"{c}*{'*'.join(factors)}" if factors else f"{c}")
    return " + ".join(chunks)


def format_bpoly(x: BPoly) -> str:
    """Readable rendering like '1*b[4] + 1*b[2]^2'."""
    return _format_terms(x)


def format_genpoly(P: GenPoly) -> str:
    """Readable rendering like '1*X[4] + 1*X[2]^2'."""
    return _format_terms(P)
