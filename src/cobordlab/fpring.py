"""Sparse partition-indexed polynomials over a prime field.

BPoly models classes in the mod-p Lazard quotient: a finite sum of
b-monomials b_alpha with coefficients in F_p, multiplied by multiset union
of the indexing partitions.  Every BPoly is exact: an unstored coefficient
is zero.

GenPoly models polynomials in abstract generator symbols; a monomial
X_{i_1}...X_{i_k} is stored as the partition (i_1 >= ... >= i_k).  Both
share one implementation of the arithmetic and differ only in their symbol
and their JSON key.

Validation happens at the boundary only.  The public constructors
BPoly(...) and GenPoly(...), monomial, coefficient, from_json_dict and the
CLI parsers check the prime and every partition.  Results that arithmetic
builds from already-valid operands (sums, scalings, products, weight
components) go through the private _trusted constructor, which still
reduces mod p and drops zeros, but skips those checks.
"""

from __future__ import annotations

from collections import Counter

from . import partitions as pt
from .partitions import NEG_INF, Partition, canonical_order


def _normalize(terms: dict, p: int) -> dict:
    """The terms with coefficients reduced mod p and zeros dropped; keys are kept as given."""
    out = {}
    for alpha, c in terms.items():
        c %= p
        if c:
            out[alpha] = c
    return out


def _convolve(x: dict, y: dict) -> dict:
    """Product of two partition-indexed term dicts: parts multiply by union.

    Coefficients come out unreduced; the constructors reduce them mod p.
    """
    out: dict[Partition, int] = {}
    for beta, cb in x.items():
        for gamma, cg in y.items():
            u = tuple(sorted(beta + gamma, reverse=True))
            out[u] = out.get(u, 0) + cb * cg
    return out


class _PartitionPoly:
    """Mod-p linear combination of monomials indexed by partitions."""

    __slots__ = ("p", "terms")
    _symbol = ""  # the monomial's factor symbol when printed
    _json_key = ""  # the key of a term's partition in the JSON form

    def __init__(self, p: int, terms: dict | None = None):
        pt.check_prime(p)
        self.p = p
        self.terms = _normalize({tuple(alpha): c for alpha, c in (terms or {}).items()}, p)
        for alpha in self.terms:
            pt.check_partition(alpha)

    @classmethod
    def _trusted(cls, p: int, terms: dict):
        """Build from valid partitions over a prime, skipping the checks."""
        return cls._reduced(p, _normalize(terms, p))

    @classmethod
    def _reduced(cls, p: int, terms: dict):
        """Wrap terms that are valid and already reduced mod p, without a copy."""
        obj = object.__new__(cls)
        obj.p = p
        obj.terms = terms
        return obj

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
        return not self.terms

    def support(self) -> list[Partition]:
        return canonical_order(self.terms)

    def coefficient(self, alpha) -> int:
        return self.terms.get(pt.check_partition(tuple(alpha)), 0)

    def _check_operand(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError("mixed primes")

    def __add__(self, other):
        self._check_operand(other)
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, 0) + c
        return self._trusted(self.p, terms)

    def scale(self, k: int):
        k %= self.p
        return self._trusted(self.p, {a: k * c for a, c in self.terms.items()})

    def __mul__(self, other):
        self._check_operand(other)
        return self._trusted(self.p, _convolve(self.terms, other.terms))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, {_format_terms(self)})"

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "terms": [
                {self._json_key: list(alpha), "coeff": self.terms[alpha]}
                for alpha in self.support()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict):
        return cls(data["p"], {tuple(t[cls._json_key]): t["coeff"] for t in data["terms"]})


class BPoly(_PartitionPoly):
    """Mod-p linear combination of b-monomials indexed by partitions."""

    __slots__ = ()
    _symbol = "b"
    _json_key = "partition"

    def top_weight(self):
        """Largest weight in the support; NEG_INF for zero."""
        return max((sum(a) for a in self.terms), default=NEG_INF)

    def is_homogeneous(self) -> bool:
        ws = {sum(a) for a in self.terms}
        return len(ws) <= 1

    def weight_components(self) -> dict[int, "BPoly"]:
        comps: dict[int, dict] = {}
        for alpha, c in self.terms.items():
            comps.setdefault(sum(alpha), {})[alpha] = c
        return {w: BPoly._reduced(self.p, t) for w, t in sorted(comps.items())}

    def to_json_dict(self) -> dict:
        # class --json carries maxWeight; a BPoly is exact, so it is null unless class filters
        return {"maxWeight": None, **super().to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BPoly":
        if data.get("maxWeight") is not None:
            raise ValueError(f"truncated class (maxWeight {data['maxWeight']}); only exact classes are read")
        return super().from_json_dict(data)


class GenPoly(_PartitionPoly):
    """Mod-p polynomial in generator symbols, monomials stored as partitions."""

    __slots__ = ()
    _symbol = "X"
    _json_key = "monomial"

    def deg_q(self, q: int):
        """Degree where the symbol of index i counts floor(i/q); NEG_INF for zero."""
        return pt.max_pi_q(self.terms, q)


def _format_terms(poly: _PartitionPoly) -> str:
    """Terms in support order, each monomial written with symbol[part]^mult factors."""
    symbol = poly._symbol
    if poly.is_zero():
        return "0"
    chunks = []
    for alpha in poly.support():
        # Counter keeps first-seen order, so the parts stay largest first
        factors = [f"{symbol}[{part}]" + (f"^{mult}" if mult > 1 else "")
                   for part, mult in Counter(alpha).items()]
        chunks.append(f"{poly.terms[alpha]}*{'*'.join(factors)}" if factors else f"{poly.terms[alpha]}")
    return " + ".join(chunks)


def format_bpoly(x: BPoly) -> str:
    """Readable rendering like '1*b[4] + 1*b[2]^2'."""
    return _format_terms(x)


def format_genpoly(P: GenPoly) -> str:
    """Readable rendering like '1*X[4] + 1*X[2]^2'."""
    return _format_terms(P)
