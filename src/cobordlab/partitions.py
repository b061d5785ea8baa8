"""Integer partitions, the generator index sets and the value-record base.

A partition is a tuple of weakly decreasing positive integers; () is the
empty partition.  Canonical enumeration order is descending lexicographic,
so partitions_of(4) runs (4,), (3,1), (2,2), (2,1,1), (1,1,1,1).

Besides enumeration this module provides the floor-sum statistic pi_q, the
generator index sets N_p, the exact ratio rho_q of an index set, the
canonical term order, and the Record base of the value types.
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import attrgetter

Partition = tuple[int, ...]

# the value of an invariant that has no term to take a maximum over
NEG_INF = float("-inf")

# partitions_of and chow.atom_class refuse weights above this
DEFAULT_WEIGHT_CAP = 64

# large safety margin for the rho_q residue scan; the scan always terminates
# long before this because every residue class meets a cofinite index set
_RHO_SCAN_LIMIT = 10**6


def is_partition(alpha) -> bool:
    """True if alpha is a weakly decreasing tuple of positive integers."""
    if not isinstance(alpha, tuple):
        return False
    return all(isinstance(a, int) and a >= 1 for a in alpha) and all(
        alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)
    )


def check_partition(alpha) -> Partition:
    if not is_partition(alpha):
        raise ValueError(f"not a partition: {alpha!r}")
    return alpha


def pi_q(alpha: Partition, q: int) -> int:
    """Sum of floor(part / q) over the parts."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return sum(a // q for a in alpha)


def max_pi_q(partitions, q: int):
    """Largest pi_q over the partitions, with q checked once; -inf for none."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    part_over_q = q.__rfloordiv__  # a -> a // q, without a Python-level call per part
    return max((sum(map(part_over_q, alpha)) for alpha in partitions), default=NEG_INF)


def partitions_of(n: int, parts=None) -> list[Partition]:
    """All partitions of n in canonical order, optionally with restricted parts.

    parts may be None (no restriction), an IndexSet, or any container
    supporting membership tests for integers 1..n.
    """
    if n > DEFAULT_WEIGHT_CAP:
        raise ValueError(f"weight {n} exceeds cap {DEFAULT_WEIGHT_CAP}")
    if n < 0:
        return []
    if n == 0:
        return [()]
    allowed = None
    if parts is not None:
        allowed = tuple(v for v in range(n, 0, -1) if v in parts)
    return list(_enumerate(n, allowed))


@cache
def np_partitions(n: int, p: int) -> tuple[Partition, ...]:
    """partitions_of(n, parts=IndexSet.np_minus(p)) as a tuple, memoized per (n, p)."""
    return tuple(partitions_of(n, parts=IndexSet.np_minus(p)))


# keyed by (n, allowed parts); the entry count is bounded so that a long
# session does not keep every restricted enumeration it ever asked for
@lru_cache(maxsize=256)
def _enumerate(n: int, allowed: tuple[int, ...] | None) -> tuple[Partition, ...]:
    out: list[Partition] = []
    stack: list[int] = []

    def rec(rem: int, max_part: int):
        if rem == 0:
            out.append(tuple(stack))
            return
        if allowed is None:
            first = min(rem, max_part)
            for v in range(first, 0, -1):
                stack.append(v)
                rec(rem - v, v)
                stack.pop()
        else:
            for v in allowed:
                if v > max_part or v > rem:
                    continue
                stack.append(v)
                rec(rem - v, v)
                stack.pop()

    rec(n, n)
    return tuple(out)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def is_power_of(n: int, p: int) -> bool:
    """True if n = p**k for some k >= 0."""
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def in_np(i: int, p: int) -> bool:
    """Membership in the generator index set: i >= 1 and i+1 not a power of p."""
    return i >= 1 and not is_power_of(i + 1, p)


@cache
def outside_np(n: int, p: int) -> frozenset[int]:
    """The indices 1..n that are not in N_p, memoized per (n, p)."""
    return frozenset(i for i in range(1, n + 1) if not in_np(i, p))


class Record:
    """Immutable value record whose fields are the subclass's __slots__.

    Instances compare equal when they are of the same class with equal
    fields, hash as the tuple of their fields and print as
    Name(field=value, ...), as a frozen dataclass does.  A subclass sets its
    fields in __init__ through object.__setattr__; afterwards assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # eq and hash are closures over a C attrgetter built once per class,
        # not loops over the field names: the acceptance checks hash and
        # compare tens of thousands of action records
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            get = attrgetter(names[0])

            def values(obj):
                return (get(obj),)

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return (get(self),) == (get(other),)
                return NotImplemented

            def __hash__(self):
                return hash((get(self),))
        else:
            values = attrgetter(*names)

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return values(self) == values(other)
                return NotImplemented

            def __hash__(self):
                return hash(values(self))

        cls._values = staticmethod(values)
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class IndexSet(Record):
    """A set of generator indices: explicit and finite, or cofinite in N_p.

    The cofinite form is N_p minus a finite exclusion set, where N_p is the
    set of i >= 1 with i+1 not a power of p.
    """

    __slots__ = ("members", "p", "excluded")

    def __init__(self, members: frozenset[int] | None = None, p: int | None = None,
                 excluded: frozenset[int] = frozenset()):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "excluded", excluded)

    @staticmethod
    def finite(members) -> "IndexSet":
        ms = frozenset(members)
        if any((not isinstance(m, int)) or m < 1 for m in ms):
            raise ValueError("index sets contain positive integers only")
        return IndexSet(members=ms)

    @staticmethod
    def np_minus(p: int, excluded=()) -> "IndexSet":
        check_prime(p)
        return IndexSet(p=p, excluded=frozenset(excluded))

    def __contains__(self, i: int) -> bool:
        if self.members is not None:
            return i in self.members
        return in_np(i, self.p) and i not in self.excluded


def rho_q(index_set: IndexSet, q: int):
    """Exact infimum of floor(i/q)/i over the index set, as a Fraction.

    For an empty set the value is 1/q.  For a cofinite set the infimum is
    attained on the smallest member of some residue class mod q, because
    a -> a/(aq+r) is increasing in a; scanning residue classes up to their
    first members is exact.
    """
    # imported here, so that importing the package does not load fractions
    # and decimal; of the CLI subcommands only rho and bound get this far
    from fractions import Fraction

    if q < 1:
        raise ValueError("q must be a positive integer")
    if index_set.members is not None:
        if not index_set.members:
            return Fraction(1, q)
        return min(Fraction(i // q, i) for i in index_set.members)
    best = None
    seen_residues: set[int] = set()
    i = 1
    while len(seen_residues) < q:
        if i > _RHO_SCAN_LIMIT:
            raise AssertionError("rho_q residue scan failed to terminate")
        r = i % q
        if r not in seen_residues and i in index_set:
            seen_residues.add(r)
            ratio = Fraction(i // q, i)
            if best is None or ratio < best:
                best = ratio
        i += 1
    return best


def canonical_term_key(alpha: Partition):
    """Sort key ordering partitions by weight, then canonical order within weight."""
    return (sum(alpha), tuple(-a for a in alpha))


def canonical_order(terms) -> list[Partition]:
    """The partitions sorted by canonical_term_key, without a Python key function.

    Within one weight no partition is a proper prefix of another, so there the
    canonical order is descending tuple order.
    """
    by_weight: dict[int, list[Partition]] = {}
    for alpha in terms:
        by_weight.setdefault(sum(alpha), []).append(alpha)
    out: list[Partition] = []
    for w in sorted(by_weight):
        out += sorted(by_weight[w], reverse=True)
    return out
