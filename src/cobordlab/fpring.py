"""Sparse partition-indexed polynomials over a prime field.

BPoly models classes in the mod-p Lazard quotient: a finite sum of
b-monomials b_alpha with coefficients in F_p, multiplied by multiset union
of the indexing partitions.  A BPoly optionally carries a truncation weight;
coefficients above the truncation are unknown and reading them is an error.
max_weight None means the element is exact and everything unstored is zero.

GenPoly models polynomials in abstract generator symbols; a monomial
X_{i_1}...X_{i_k} is stored as the partition (i_1 >= ... >= i_k).

Validation happens at the boundary only.  The public constructors
BPoly(...) and GenPoly(...), monomial, from_json_dict, the CLI parsers and
BPoly.coefficient check the prime and every partition.  Results that
arithmetic builds from already-valid operands (sums, scalings, products,
truncations, weight components) go through the private _trusted
constructors, which still reduce mod p, drop zeros and truncate, but skip
those checks.
"""

from __future__ import annotations

from collections import Counter

from . import partitions as pt
from .partitions import Partition, canonical_order

NEG_INF = float("-inf")


class TruncationError(Exception):
    """Raised when a coefficient above the truncation weight is requested."""


def _normalize(terms: dict, p: int, max_weight: int | None) -> dict:
    out = {}
    for alpha, c in terms.items():
        alpha = tuple(alpha)
        if max_weight is not None and sum(alpha) > max_weight:
            continue
        c %= p
        if c:
            out[alpha] = c
    return out


def _min_weight(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _convolve(x: dict, y: dict, p: int, max_weight: int | None) -> dict:
    """Product of two partition-indexed term dicts: parts multiply by union.

    y is bucketed by weight so a truncated product skips whole buckets.
    Entries may come out zero; the constructors drop them.
    """
    groups: dict[int, list] = {}
    for gamma, cg in y.items():
        groups.setdefault(sum(gamma), []).append((gamma, cg))
    out: dict[Partition, int] = {}
    for beta, cb in x.items():
        wb = sum(beta)
        for wg, items in groups.items():
            if max_weight is not None and wb + wg > max_weight:
                continue
            for gamma, cg in items:
                u = tuple(sorted(beta + gamma, reverse=True))
                out[u] = (out.get(u, 0) + cb * cg) % p
    return out


class BPoly:
    """Mod-p linear combination of b-monomials indexed by partitions."""

    __slots__ = ("p", "terms", "max_weight")

    def __init__(self, p: int, terms: dict | None = None, max_weight: int | None = None):
        pt.check_prime(p)
        if max_weight is not None and max_weight < 0:
            raise ValueError("max_weight must be nonnegative")
        self.p = p
        self.terms = _normalize(terms or {}, p, max_weight)
        self.max_weight = max_weight
        for alpha in self.terms:
            pt.check_partition(alpha)

    @classmethod
    def _trusted(cls, p: int, terms: dict, max_weight: int | None) -> "BPoly":
        """Build from valid partitions over a prime, skipping the checks."""
        obj = object.__new__(cls)
        obj.p = p
        obj.terms = _normalize(terms, p, max_weight)
        obj.max_weight = max_weight
        return obj

    @classmethod
    def zero(cls, p: int, max_weight: int | None = None) -> "BPoly":
        return cls(p, {}, max_weight)

    @classmethod
    def one(cls, p: int, max_weight: int | None = None) -> "BPoly":
        return cls(p, {(): 1}, max_weight)

    @classmethod
    def monomial(cls, p: int, alpha, coeff: int = 1, max_weight: int | None = None) -> "BPoly":
        return cls(p, {tuple(alpha): coeff}, max_weight)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Partition]:
        return canonical_order(self.terms)

    def coefficient(self, alpha) -> int:
        alpha = pt.check_partition(tuple(alpha))
        if self.max_weight is not None and sum(alpha) > self.max_weight:
            raise TruncationError(
                f"coefficient of weight {sum(alpha)} unknown beyond truncation {self.max_weight}"
            )
        return self.terms.get(alpha, 0)

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
        return {w: BPoly._trusted(self.p, t, self.max_weight) for w, t in sorted(comps.items())}

    def truncate(self, max_weight: int | None) -> "BPoly":
        mw = _min_weight(self.max_weight, max_weight)
        return BPoly._trusted(self.p, self.terms, mw)

    def _binop_check(self, other: "BPoly"):
        if not isinstance(other, BPoly):
            raise TypeError(f"expected BPoly, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError("mixed primes")

    def __add__(self, other: "BPoly") -> "BPoly":
        self._binop_check(other)
        mw = _min_weight(self.max_weight, other.max_weight)
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, 0) + c
        return BPoly._trusted(self.p, terms, mw)

    def __neg__(self) -> "BPoly":
        return self.scale(-1)

    def __sub__(self, other: "BPoly") -> "BPoly":
        return self + (-other)

    def scale(self, k: int) -> "BPoly":
        k %= self.p
        return BPoly._trusted(self.p, {a: k * c for a, c in self.terms.items()}, self.max_weight)

    def __mul__(self, other: "BPoly") -> "BPoly":
        self._binop_check(other)
        mw = _min_weight(self.max_weight, other.max_weight)
        return BPoly._trusted(self.p, _convolve(self.terms, other.terms, self.p, mw), mw)

    def __pow__(self, k: int) -> "BPoly":
        if k < 0:
            raise ValueError("negative powers not defined for BPoly")
        result = BPoly.one(self.p, self.max_weight)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BPoly)
            and self.p == other.p
            and self.max_weight == other.max_weight
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.max_weight, frozenset(self.terms.items())))

    def __repr__(self):
        return f"BPoly(p={self.p}, {format_bpoly(self)})"

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "maxWeight": self.max_weight,
            "terms": [
                {"partition": list(alpha), "coeff": self.terms[alpha]}
                for alpha in self.support()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BPoly":
        terms = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
        return cls(data["p"], terms, data.get("maxWeight"))


def _format_terms(poly: "BPoly | GenPoly", symbol: str) -> str:
    """Terms in support order, each monomial written with symbol[part]^mult factors."""
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
    return _format_terms(x, "b")


class GenPoly:
    """Mod-p polynomial in generator symbols, monomials stored as partitions."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict | None = None):
        pt.check_prime(p)
        self.p = p
        self.terms = _normalize(terms or {}, p, None)
        for alpha in self.terms:
            pt.check_partition(alpha)

    @classmethod
    def _trusted(cls, p: int, terms: dict) -> "GenPoly":
        """Build from valid partitions over a prime, skipping the checks."""
        obj = object.__new__(cls)
        obj.p = p
        obj.terms = _normalize(terms, p, None)
        return obj

    @classmethod
    def zero(cls, p: int) -> "GenPoly":
        return cls(p, {})

    @classmethod
    def monomial(cls, p: int, beta, coeff: int = 1) -> "GenPoly":
        return cls(p, {tuple(beta): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Partition]:
        return canonical_order(self.terms)

    def coefficient(self, beta) -> int:
        return self.terms.get(tuple(beta), 0)

    def deg(self):
        """Top weight of the support, NEG_INF for the zero polynomial."""
        return max((sum(b) for b in self.terms), default=NEG_INF)

    def deg_q(self, q: int):
        """Degree where the symbol of index i counts floor(i/q); NEG_INF for zero."""
        return max((pt.pi_q(b, q) for b in self.terms), default=NEG_INF)

    def __add__(self, other: "GenPoly") -> "GenPoly":
        if not isinstance(other, GenPoly) or other.p != self.p:
            raise TypeError("mixed GenPoly operands")
        terms = dict(self.terms)
        for b, c in other.terms.items():
            terms[b] = terms.get(b, 0) + c
        return GenPoly._trusted(self.p, terms)

    def scale(self, k: int) -> "GenPoly":
        return GenPoly._trusted(self.p, {b: k * c for b, c in self.terms.items()})

    def __mul__(self, other: "GenPoly") -> "GenPoly":
        if not isinstance(other, GenPoly) or other.p != self.p:
            raise TypeError("mixed GenPoly operands")
        return GenPoly._trusted(self.p, _convolve(self.terms, other.terms, self.p, None))

    def __eq__(self, other) -> bool:
        return isinstance(other, GenPoly) and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __repr__(self):
        return f"GenPoly(p={self.p}, {format_genpoly(self)})"

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "terms": [
                {"monomial": list(beta), "coeff": self.terms[beta]}
                for beta in self.support()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GenPoly":
        return cls(data["p"], {tuple(t["monomial"]): t["coeff"] for t in data["terms"]})


def format_genpoly(P: GenPoly) -> str:
    """Readable rendering like '1*X[4] + 1*X[2]^2'."""
    return _format_terms(P, "X")
