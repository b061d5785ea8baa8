"""Generator families for the mod-p cobordism ring and expression in them.

The image L_p of complex cobordism in F_p[b] is polynomial on classes l_i,
one for each index i with i+1 not a power of p.  The standard family uses
l_i = [P^i] when p does not divide i+1 and a Milnor hypersurface class
otherwise.  A class is a polynomial generator in weight i exactly when its
single-part coefficient c_(i) is nonzero mod p.  Inside the solve a
partition is its packed key (partitions.pack); the public methods take and
return tuples.

express_in_generators writes an exact class as a polynomial in a family.
The solve is triangular: the monomial on l_beta only supports partitions
refining beta, with an explicitly known diagonal entry.  A strict
refinement has the same weight and a smaller packed key, so always
clearing the largest key left terminates, clears every weight component in
the same pass, and builds only the generators of the monomials it clears.
Non-membership is a first-class result: express returns a NotInLp value (an
exception instance, raised by express_required for callers that need
membership) whose witness partition is produced by a dense elimination
with rows finest-first, in the lightest weight component that fails, so
the reported obstruction is the coarsest one there.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import cache

from . import partitions as pt
from .chow import _h_atom, _p_atom, atom_class, product_class
from .fpring import BPoly, GenPoly, _add_multiple, _combination
from .partitions import Partition, in_np

__all__ = [
    "NotInLp",
    "GeneratorFamily",
    "generator_atom",
    "standard_generators",
    "perturbed_family",
    "express_in_generators",
    "express_required",
    "evaluate_gen_poly",
    "dim_q_direct",
    "dim_q_via_generators",
    "random_gen_poly",
    "in_np",
]


class NotInLp(Exception):
    """Non-membership verdict: the class is not a polynomial in the generators.

    witness is a partition alpha such that no combination of generator
    monomials matches the class at c_alpha.  express_in_generators returns
    an instance of this rather than raising; operations that require
    membership raise the returned instance.
    """

    def __init__(self, p: int, witness: Partition):
        self.p = p
        self.witness = witness
        pretty = ",".join(str(part) for part in witness)
        super().__init__(f"not in the mod-{p} generator ring; obstruction at c_({pretty})")

    def __eq__(self, other):
        return isinstance(other, NotInLp) and (self.p, self.witness) == (other.p, other.witness)

    def __hash__(self):
        return hash((self.p, self.witness))


@cache
def generator_atom(i: int, p: int):
    """The variety atom carrying the weight-i generator, one interned record per (i, p).

    P^i works when p does not divide i+1.  Otherwise i+1 = k*p^s with k >= 2
    prime to p, and the Milnor hypersurface H(p^s, (k-1)p^s) has dimension i
    with single-part Chern number binom(k*p^s, p^s) = k mod p, nonzero.  An
    index outside N_p raises on every call: the memo keeps no exception.
    """
    if not in_np(i, p):
        raise ValueError(f"{i} is not a generator index for p={p}")
    if (i + 1) % p:
        return _p_atom(i)
    rest = i + 1
    s = 0
    while rest % p == 0:
        rest //= p
        s += 1
    k = rest  # i + 1 = k * p^s, k >= 2 since i+1 is not a pure power
    return _h_atom(p**s, (k - 1) * p**s)


class GeneratorFamily:
    """A family of polynomial generators, one per index in N_p.

    gens maps the index i to an exact homogeneous weight-i class whose
    single-part coefficient is nonzero.  Generators are built on first use
    and kept in memory, as are monomial classes under packed keys; ensure
    builds a range ahead.  An index is checked when its generator is first
    built, not on a memo hit; the public monomial_class checks its partition
    on every call, and a build reads its prefix by packed key, unchecked.
    """

    def __init__(self, p: int, make: Callable[[int], BPoly]):
        self.p = p
        self._make = make
        self.gens: dict[int, BPoly] = {}
        self._monomials: dict[int, BPoly] = {0: BPoly._trusted(p, {0: 1})}  # key 0: the empty monomial, the unit

    def generator(self, i: int) -> BPoly:
        if i not in self.gens:
            if not in_np(i, self.p):
                raise ValueError(f"{i} is not a generator index for p={self.p}")
            cls = self._make(i)
            if pt.pack((i,)) not in cls.packed:  # a stored coefficient is nonzero mod p
                raise AssertionError(f"weight-{i} class fails the generator criterion")
            self.gens[i] = cls
        return self.gens[i]

    def ensure(self, max_index: int) -> None:
        for i in range(1, max_index + 1):
            if in_np(i, self.p):
                self.generator(i)

    def diagonal(self, i: int) -> int:
        """c_(i) of the weight-i generator."""
        return self.generator(i).packed[pt.pack((i,))]

    def monomial_class(self, beta: Partition) -> BPoly:
        """The class of the monomial l_beta."""
        return self._monomial(pt.pack(pt.check_partition(beta)))

    def _monomial(self, key: int) -> BPoly:
        """monomial_class under a packed key; the key is decoded only to build the class."""
        cls = self._monomials.get(key)
        if cls is None:
            cls = self._monomials[key] = self._product(pt.unpack(key))
        return cls

    def _product(self, beta: Partition) -> BPoly:
        # the memoized prefix times the last generator: the same left-to-right product
        return self._monomial(pt.pack(beta[:-1])) * self.generator(beta[-1])

    def __repr__(self):
        return f"GeneratorFamily(p={self.p}, known={sorted(self.gens)})"


class _StandardFamily(GeneratorFamily):
    """The family of the generator atoms, whose monomials are products of atoms.

    A monomial's class is read from chow's product memo, which
    chern_numbers shares, so a class realized from the standard
    generators is multiplied out once.
    """

    def __init__(self, p: int):
        super().__init__(p, lambda i: atom_class(generator_atom(i, p), p))

    def _product(self, beta: Partition) -> BPoly:
        for part in beta:
            self.generator(part)  # builds it and checks the generator criterion
        return product_class(tuple(generator_atom(part, self.p) for part in beta), self.p)


_STANDARD: dict[int, GeneratorFamily] = {}


def standard_generators(p: int, max_index: int = 0, cache_path: str | None = None) -> GeneratorFamily:
    """The standard family, memoized per prime, with its generators up to max_index built.

    cache_path is accepted and ignored: generators are built on demand and
    nothing is read from or written to disk.
    """
    if p not in _STANDARD:
        _STANDARD[p] = _StandardFamily(p)
    _STANDARD[p].ensure(max_index)
    return _STANDARD[p]


def perturbed_family(p: int, seed: int, max_index: int = 0) -> GeneratorFamily:
    """Standard generators plus seeded decomposable perturbations.

    The diagonal is untouched: a decomposable has zero single-part
    coefficients, so the perturbed family is again a generator family and
    expression results against it exercise the non-diagonal terms.
    """
    std = standard_generators(p)

    def make(i: int) -> BPoly:
        cls = std.generator(i)
        # the decomposables of weight i over N_p with no part 1
        longer = [beta for beta in pt.np_partitions(i, p) if len(beta) >= 2 and beta[-1] >= 2]
        rng = random.Random(seed * 1000003 + p * 1009 + i)
        for beta in rng.sample(longer, min(len(longer), rng.randint(0, 2))):
            coeff = rng.randrange(1, p)
            cls = cls + std.monomial_class(beta).scale(coeff)
        return cls

    fam = GeneratorFamily(p, make)
    fam.ensure(max_index)
    return fam


def evaluate_gen_poly(gp: GenPoly, family: GeneratorFamily) -> BPoly:
    """The class of a generator polynomial: its monomial classes summed by BPoly._sum.

    A single monomial with coefficient 1 is the family's memoized class
    itself, shared with every other caller, which must not mutate it.
    """
    if gp.p != family.p:
        raise ValueError("prime mismatch")
    return BPoly._sum(gp.p, [(k, family._monomial(beta)) for beta, k in gp.packed.items()])


def _gauss_witness(x_w: dict[int, int], weight: int, family: GeneratorFamily) -> int | None:
    """The witness of the weight-w linear system, by elimination rows finest-first.

    x_w is under packed keys.  Returns the key of the first inconsistent
    row, or None when the system is solvable.  Unknowns are the
    N_p-partitions of the weight, and the rows are the transpose of their
    monomial classes, the columns: one row per partition of the weight
    that a column or x_w holds (any other row is 0 = 0), finest first, in
    ascending key order (the reverse of canonical order within a weight),
    so an inconsistency is reported at the coarsest possible row.  A row
    holds its right-hand side under key 0, the key of (), which no unknown
    of positive weight has; a row reduced to key 0 alone is inconsistent.
    """
    p = family.p
    rows: dict[int, dict] = {alpha: {0: rhs} for alpha, c in x_w.items() if (rhs := c % p)}
    for beta in pt.np_keys(weight, p):
        for alpha, c in family._monomial(beta).packed.items():
            rows.setdefault(alpha, {})[beta] = c
    pivots: dict[int, dict] = {}  # pivot unknown -> its row, with an implied 1 there and no other pivot
    for alpha, vec in sorted(rows.items()):
        # a stored pivot row holds no other pivot, so the order of these subtractions does not matter
        for pivot in [b for b in vec if b in pivots]:
            _add_multiple(vec, -vec.pop(pivot), pivots[pivot], p)
        if vec:
            pivot = max(vec)  # the first unknown in canonical order, or key 0 alone
            if not pivot:
                return alpha
            pvec = _combination(p, ((pow(vec.pop(pivot), -1, p), vec),))
            # eager: clear the new pivot from every stored row (measured faster than forward-only)
            for ovec in pivots.values():
                if c := ovec.pop(pivot, 0):
                    _add_multiple(ovec, -c, pvec, p)
            pivots[pivot] = pvec
    return None


def express_in_generators(x: BPoly, family: GeneratorFamily) -> GenPoly | NotInLp:
    """Write an exact class as a polynomial in the family's generators.

    Returns a NotInLp verdict (not raised) when impossible.  The main path
    clears the largest packed key left in the residual, all weights in one
    pass: the row of l_alpha changes only strict refinements of alpha,
    which have the same weight and smaller keys, so the cleared keys
    strictly decrease and each coefficient is final when its key is
    cleared.  A support element owning a part outside N_p certifies that
    its weight fails, and that weight is dropped from the residual; the
    other weights are still cleared, and the elimination fallback pins
    down the witness of the lightest failing weight.
    """
    if x.p != family.p:
        raise ValueError("prime mismatch")
    p = x.p
    residual = dict(x.packed)
    outside = pt.outside_mask(p)
    solution: dict[int, int] = {}
    failed: set[int] = set()  # weights whose support met a part outside N_p
    last = float("inf")  # the key cleared last
    while residual:
        alpha = max(residual)
        if alpha >= last:
            # a row entry that does not refine its row's partition put it there
            raise AssertionError(f"clearing rows reach c_{pt.unpack(alpha)} after c_{pt.unpack(last)} was cleared")
        last = alpha
        if alpha & outside:
            weight = pt.key_weight(alpha)
            failed.add(weight)
            residual = {beta: c for beta, c in residual.items() if pt.key_weight(beta) != weight}
            continue
        row = family._monomial(alpha).packed
        try:
            coeff = residual[alpha] * pow(row[alpha], -1, p) % p  # c_alpha of l_alpha, a product of diagonals
            _add_multiple(residual, -coeff, row, p)  # a KeyError only at a stored zero
        except (KeyError, ValueError) as exc:
            at = pt.unpack(exc.args[0] if isinstance(exc, KeyError) else alpha)
            raise AssertionError(f"the clearing row of c_{pt.unpack(alpha)} holds a stored zero at c_{at}") from None
        solution[alpha] = coeff
    if failed:
        weight = min(failed)
        witness = _gauss_witness({a: c for a, c in x.packed.items() if pt.key_weight(a) == weight}, weight, family)
        if witness is None:
            raise AssertionError("triangular solve stalled on a solvable system")
        return NotInLp(p, pt.unpack(witness))
    # each alpha is solved once, with a unit coefficient
    return GenPoly._reduced(p, solution)


def express_required(x: BPoly, family: GeneratorFamily | None = None) -> GenPoly:
    """The expression of x for callers that need membership: raises the NotInLp verdict.

    family defaults to the standard family of x's prime.
    """
    if family is None:
        family = standard_generators(x.p)
    P = express_in_generators(x, family)
    if isinstance(P, NotInLp):
        raise P
    return P


def dim_q_direct(x: BPoly, q: int):
    """Largest sum of floor(part/q) over the support; -inf for the zero class."""
    return pt.max_pi_q(x.packed, q)


def dim_q_via_generators(x: BPoly, q: int, family: GeneratorFamily | None = None):
    """Same invariant computed through the generator expression."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return express_required(x, family).deg_q(q)


def random_gen_poly(rng: random.Random, p: int, top_weight: int, max_terms: int = 4) -> GenPoly:
    """Random polynomial in the generators with term weights up to top_weight."""
    pt.check_prime(p)
    terms: dict[int, int] = {}
    n_terms = rng.randint(1, max_terms)
    attempts = 0
    while n_terms > 0 and attempts < 200:
        attempts += 1
        w = rng.randint(1, top_weight)
        choices = pt.np_keys(w, p)
        if not choices:
            continue
        beta = rng.choice(choices)
        terms[beta] = terms.get(beta, 0) + rng.randrange(1, p)
        n_terms -= 1
    return GenPoly._trusted(p, terms)
