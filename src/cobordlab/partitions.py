"""Integer partitions, the generator index sets and the value-record base.

A partition is a tuple of weakly decreasing positive integers; () is the
empty partition.  Canonical enumeration order is descending lexicographic,
so partitions_of(4) runs (4,), (3,1), (2,2), (2,1,1), (1,1,1,1).

Besides enumeration this module provides the packed integer keys that
stand for partitions inside the term kernel and their canonical order, the
floor-sum statistic pi_q, the generator index sets N_p and their heads mod
q, the exact ratio rho_q, and the Record base of the value types.
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import attrgetter, mul

Partition = tuple[int, ...]

# the value of an invariant that has no term to take a maximum over
NEG_INF = float("-inf")

# partitions_of and chow.atom_class refuse weights above this
DEFAULT_WEIGHT_CAP = 64


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


# -- packed partition keys ----------------------------------------------------
#
# Inside the term kernel a partition is one int, its packed key: field 0
# holds the number of parts, field 1 the weight and field i + 1 the
# multiplicity of part i, each field KEY_BITS = 8 bits wide, so the fields
# are the bytes of the key's little-endian form.  The union of two
# partitions is then the sum of their keys.  No field exceeds the weight, so
# the keys of weight at most KEY_LIMIT never carry from one field into the
# next; pack and the products of fpring refuse anything heavier.  Within one
# weight, the canonical order is descending key order.

KEY_BITS = 8
KEY_LIMIT = (1 << KEY_BITS) - 1  # the largest weight a key holds, and the field mask


def pack(alpha: Partition) -> int:
    """The packed key of a partition; a ValueError above the weight KEY_LIMIT."""
    w = sum(alpha)
    if w > KEY_LIMIT:
        raise ValueError(f"weight {w} exceeds the packed-key limit {KEY_LIMIT}")
    key = len(alpha) | w << KEY_BITS
    for part in alpha:
        key += 1 << KEY_BITS * (part + 1)
    return key


def _fields(key: int) -> bytes:
    """The fields of a packed key: byte i + 1 is the multiplicity of part i."""
    return key.to_bytes((key.bit_length() + 7) // 8, "little")


def unpack(key: int) -> Partition:
    """The partition of a packed key, largest part first."""
    fields = _fields(key)
    out: list[int] = []
    for part in range(len(fields) - 2, 0, -1):
        out += [part] * fields[part + 1]
    return tuple(out)


def key_weight(key: int) -> int:
    """The weight of a packed key: its field 1."""
    return key >> KEY_BITS & KEY_LIMIT


# per q: floor(i/q) for the parts i >= q, and pi_q per packed key; a q's
# table starts afresh past this size, so each stays bounded
_PI_Q_LIMIT = 1 << 14
_pi_q_tables: dict[int, tuple[tuple[int, ...], dict[int, int]]] = {}


def max_pi_q(keys, q: int):
    """Largest pi_q over packed keys, with q checked once; -inf for none."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    entry = _pi_q_tables.get(q)
    if entry is None or len(entry[1]) > _PI_Q_LIMIT:
        entry = _pi_q_tables[q] = (tuple(i // q for i in range(q, KEY_LIMIT + 1)), {})
    floors, table = entry
    best = NEG_INF
    for key in keys:
        v = table.get(key)
        if v is None:
            # the multiplicities of the parts q, q+1, ... times their floors
            v = table[key] = sum(map(mul, _fields(key)[q + 1:], floors))
        if v > best:
            best = v
    return best


def partitions_of(n: int, parts=None, max_len: int | None = None) -> list[Partition]:
    """All partitions of n in canonical order, optionally with restricted parts and at most max_len parts.

    parts may be None (no restriction) or any container supporting
    membership tests for integers 1..n.  Nothing is memoized
    here: np_partitions and chow's layer tables keep what they ask for.
    """
    if n > DEFAULT_WEIGHT_CAP:
        raise ValueError(f"weight {n} exceeds cap {DEFAULT_WEIGHT_CAP}")
    allowed = tuple(v for v in range(n, 0, -1) if parts is None or v in parts)
    out: list[Partition] = []
    stack: list[int] = []

    def rec(rem: int, start: int, slots: int):
        # the next part is allowed[i] for some i >= start, so parts never increase
        if rem == 0:
            out.append(tuple(stack))
            return
        for i in range(start, len(allowed)):
            v = allowed[i]
            if v > rem:
                continue
            if v * slots < rem:  # slots parts of at most v cannot fill rem, nor can smaller ones
                break
            stack.append(v)
            rec(rem - v, i, slots - 1)
            stack.pop()

    rec(n, 0, n if max_len is None else max_len)
    return out


@cache
def np_partitions(n: int, p: int) -> tuple[Partition, ...]:
    """The partitions of n into parts from N_p, as a tuple, memoized per (n, p)."""
    check_prime(p)
    return tuple(partitions_of(n, parts=frozenset(i for i in range(1, n + 1) if in_np(i, p))))


@cache
def np_keys(n: int, p: int) -> tuple[int, ...]:
    """np_partitions(n, p) as packed keys, memoized per (n, p)."""
    return tuple(map(pack, np_partitions(n, p)))


# the first 13 primes; as Miller-Rabin bases they decide every n below _MR_LIMIT
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Exact primality test, memoized for the last 256 numbers, since its callers ask per call, not per prime.

    They are check_order in every main_bound, the checked BPoly constructors
    and read_products on product-memo misses.  A base, or a multiple of one,
    answers at once.  Below _MR_LIMIT the Miller-Rabin test to the bases
    _MR_BASES is deterministic; any other n is refused with a ValueError.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: the exact test covers only numbers below {_MR_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        # squarings past a^(d*2^(s-1)) could never meet n - 1: if a^(d*2^j) = -1 mod n with j >= s,
        # then for every prime q | n, ord_q(a) has 2-adic valuation j + 1 and divides q - 1, so every
        # prime-power factor of n is 1 mod 2^(s+1), against v_2(n - 1) = s
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
def outside_mask(p: int) -> int:
    """The key fields of the parts outside N_p: a packed key meets the mask iff it owns such a part."""
    return sum(KEY_LIMIT << KEY_BITS * (i + 1) for i in range(1, KEY_LIMIT + 1) if not in_np(i, p))


class Record:
    """Immutable value record whose fields are the subclass's __slots__.

    Instances compare equal when they are of the same class with equal
    fields, hash as the tuple of their fields and print as
    Name(field=value, ...), as a frozen dataclass does.  A subclass sets its
    fields in __init__ through object.__setattr__; afterwards assigning or
    deleting an attribute raises AttributeError.  The first hash is kept in
    the base's slot _hash, which no field, repr, equality or pickle holds.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs):
        # _values is a C attrgetter built once per class, not a loop over the
        # field names: the acceptance checks compare tens of thousands of records
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        # fields never change after __init__; an unhashable field raises on every call
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


def check_indices(members) -> tuple[int, ...]:
    """members as a tuple, refused unless each is a positive int, as every index set's members are."""
    members = tuple(members)
    if any(not isinstance(i, int) or i < 1 for i in members):
        raise ValueError("index sets contain positive integers only")
    return members


def rho_q(members, q: int):
    """Exact minimum of floor(i/q)/i over a finite set of indices, as a Fraction; 1/q for none."""
    # imported here, so that importing the package does not load fractions
    # and decimal; of the CLI subcommands only rho and bound get this far
    from fractions import Fraction

    members = check_indices(members)
    if q < 1:
        raise ValueError("q must be a positive integer")
    return min((Fraction(i // q, i) for i in members), default=Fraction(1, q))


def np_heads(p: int, q: int, excluded=()) -> tuple[int, ...]:
    """The first member of N_p minus excluded in each residue class mod q: rho_q of these is that set's.

    For i = aq + r, floor(i/q)/i = a/(aq + r) grows with a, so a class's
    first member reaches its infimum.  A first member below q has ratio 0,
    and it is returned alone.  Every head lies below M + 3q + 1, M the
    largest of excluded and 0: past M a non-member is p^k - 1, and two of
    them q apart satisfy p^a (p^d - 1) = q, which fixes a = v_p(q) and d, so
    of the three terms i, i + q, i + 2q of a class past M one is a member.
    For q a power of p that pair is q - 1, 2q - 1 with p = 2, and 3q - 1 is
    never p^k - 1.
    """
    check_prime(p)
    if q < 1:
        raise ValueError("q must be a positive integer")
    heads: dict[int, int] = {}
    for i in range(1, max((0, *excluded)) + 3 * q + 1):
        if i % q not in heads and in_np(i, p) and i not in excluded:
            if i < q:
                return (i,)
            heads[i % q] = i
            if len(heads) == q:
                return tuple(heads.values())
    raise AssertionError(f"a residue class mod {q} has no member of N_{p} below the proven bound")


def canonical_order(keys) -> list[int]:
    """Packed keys by weight, then in canonical order within a weight: descending key order."""
    return sorted(sorted(keys, reverse=True), key=key_weight)  # the sort is stable
