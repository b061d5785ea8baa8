"""Generator families for the mod-p cobordism ring and expression in them.

The image L_p of complex cobordism in F_p[b] is polynomial on classes l_i,
one for each index i with i+1 not a power of p.  The standard family uses
l_i = [P^i] when p does not divide i+1 and a Milnor hypersurface class
otherwise.  A class is a polynomial generator in weight i exactly when its
single-part coefficient c_(i) is nonzero mod p.

express_in_generators writes an exact class as a polynomial in a family.
The solve is triangular: the monomial on l_beta only supports partitions
refining beta, with an explicitly known diagonal entry.  A strict
refinement has more parts and the same weight, so clearing the support one
length at a time, fewest parts first, terminates, clears every weight
component in the same pass, and builds only the generators of the
monomials it clears.  Non-membership is a first-class result: express
returns a NotInLp value (an exception instance, raised by express_required
for callers that need membership) whose witness partition is produced by a
dense elimination with rows finest-first, in the lightest weight component
that fails, so the reported obstruction is the coarsest one there.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Callable

from . import partitions as pt
from .chow import _h_atom, _p_atom, atom_class, product_class
from .fpring import BPoly, GenPoly, _accumulate
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
    and kept in memory, as are monomial classes and their clearing rows;
    ensure builds a range ahead.  Indices and monomials are checked when
    they are first built, not on a memo hit.
    """

    def __init__(self, p: int, kind: str, make: Callable[[int], BPoly]):
        self.p = p
        self.kind = kind
        self._make = make
        self.gens: dict[int, BPoly] = {}
        self._monomials: dict[Partition, BPoly] = {}
        self._rows: dict[Partition, tuple[int, dict[Partition, int]]] = {}

    def generator(self, i: int) -> BPoly:
        if i not in self.gens:
            if not in_np(i, self.p):
                raise ValueError(f"{i} is not a generator index for p={self.p}")
            cls = self._make(i)
            if (i,) not in cls.terms:  # a stored coefficient is nonzero mod p
                raise AssertionError(f"weight-{i} class fails the generator criterion")
            self.gens[i] = cls
        return self.gens[i]

    def ensure(self, max_index: int) -> None:
        for i in range(1, max_index + 1):
            if in_np(i, self.p):
                self.generator(i)

    def diagonal(self, i: int) -> int:
        """c_(i) of the weight-i generator."""
        return self.generator(i).terms[(i,)]

    def monomial_class(self, beta: Partition) -> BPoly:
        """The class of the monomial l_beta; beta is checked on a memo miss."""
        try:
            return self._monomials[beta]
        except (KeyError, TypeError):  # an unhashable beta is refused by the check
            pass
        beta = pt.check_partition(beta)
        cls = self._product(beta)
        self._monomials[beta] = cls
        return cls

    def clearing_row(self, alpha: Partition) -> tuple[int, dict[Partition, int]]:
        """(1 / c_alpha mod p, the terms dict itself) of l_alpha; c_alpha is a product of diagonals."""
        row = self._rows.get(alpha)
        if row is None:
            terms = self.monomial_class(alpha).terms
            row = self._rows[alpha] = (pow(terms[alpha], -1, self.p), terms)
        return row

    def _product(self, beta: Partition) -> BPoly:
        # the memoized prefix times the last generator: the same left-to-right product
        if not beta:
            return BPoly.one(self.p)
        return self.monomial_class(beta[:-1]) * self.generator(beta[-1])

    def __repr__(self):
        return f"GeneratorFamily(p={self.p}, kind={self.kind!r}, known={sorted(self.gens)})"


class _StandardFamily(GeneratorFamily):
    """The family of the generator atoms, whose monomials are products of atoms.

    A monomial's class is read from chow's product memo, which
    chern_numbers shares, so a class realized from the standard
    generators is multiplied out once.
    """

    def __init__(self, p: int):
        super().__init__(p, "standard", lambda i: atom_class(generator_atom(i, p), p))

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
        allowed = [j for j in range(2, i) if in_np(j, p)]
        longer = [beta for beta in pt.partitions_of(i, parts=allowed) if len(beta) >= 2]
        rng = random.Random(seed * 1000003 + p * 1009 + i)
        for beta in rng.sample(longer, min(len(longer), rng.randint(0, 2))):
            coeff = rng.randrange(1, p)
            cls = cls + std.monomial_class(beta).scale(coeff)
        return cls

    fam = GeneratorFamily(p, f"perturbed-{seed}", make)
    fam.ensure(max_index)
    return fam


def evaluate_gen_poly(gp: GenPoly, family: GeneratorFamily) -> BPoly:
    """The class of a generator polynomial: its monomial classes summed into one dict.

    A single monomial with coefficient 1 is the family's memoized class
    itself, shared with every other caller, which must not mutate it.
    """
    if gp.p != family.p:
        raise ValueError("prime mismatch")
    if len(gp.terms) == 1:
        (beta, coeff), = gp.terms.items()
        if coeff == 1:
            return family.monomial_class(beta)
    acc: dict[Partition, int] = {}
    for beta, coeff in gp.terms.items():
        _accumulate(acc, family.monomial_class(beta).terms, coeff)
    return BPoly._trusted(gp.p, acc)


def _subtract_row(vec: dict[Partition, int], c: int, row: dict[Partition, int], p: int) -> None:
    """vec -= c * row over F_p in place, dropping the entries that cancel."""
    for b, v in row.items():
        nv = (vec.get(b, 0) - c * v) % p
        if nv:
            vec[b] = nv
        else:
            vec.pop(b, None)


def _gauss_witness(x_w: dict[Partition, int], weight: int, family: GeneratorFamily) -> dict[Partition, int] | Partition:
    """Solve the weight-w linear system by elimination, rows finest-first.

    Returns the coefficient dict on success, or the witness partition of the
    first inconsistent row.  Unknowns are the N_p-partitions of the weight;
    rows are all partitions of the weight in ascending canonical order, so
    an inconsistency is reported at the coarsest possible row.
    """
    p = family.p
    unknowns = pt.np_partitions(weight, p)
    columns = {beta: family.monomial_class(beta) for beta in unknowns}
    rows = sorted(pt.partitions_of(weight), key=pt.canonical_term_key, reverse=True)
    pivots: dict[Partition, tuple[dict, int]] = {}  # pivot unknown -> (row vector, rhs)
    for alpha in rows:
        vec = {}
        for beta, cls in columns.items():
            c = cls.terms.get(alpha, 0)
            if c:
                vec[beta] = c
        rhs = x_w.get(alpha, 0) % p
        for pivot, (pvec, prhs) in pivots.items():
            c = vec.pop(pivot, 0)  # the stored row has an implied 1 there
            if c:
                _subtract_row(vec, c, pvec, p)
                rhs = (rhs - c * prhs) % p
        if vec:
            pivot = min(vec, key=pt.canonical_term_key)
            inv = pow(vec.pop(pivot), -1, p)
            pvec = {b: (inv * v) % p for b, v in vec.items()}
            prhs = (inv * rhs) % p
            # eager: clear the new pivot from every stored row
            for other, (ovec, orhs) in list(pivots.items()):
                c = ovec.pop(pivot, 0)
                if c:
                    _subtract_row(ovec, c, pvec, p)
                    pivots[other] = (ovec, (orhs - c * prhs) % p)
            pivots[pivot] = (pvec, prhs)
        elif rhs:
            return alpha
    # free unknowns are zero, so each pivot reads off its rhs directly
    solution = {}
    for pivot, (pvec, prhs) in pivots.items():
        if any(pvec.values()):
            raise AssertionError("elimination left a non-pivot entry")
        if prhs:
            solution[pivot] = prhs
    return solution


def express_in_generators(x: BPoly, family: GeneratorFamily) -> GenPoly | NotInLp:
    """Write an exact class as a polynomial in the family's generators.

    Returns a NotInLp verdict (not raised) when impossible.  The main path
    clears the support by number of parts, fewest first, all weights in one
    pass: refinement keeps the weight, so the components never interact.  A
    support element owning a part outside N_p certifies that its weight
    fails; the other weights are still cleared, and the elimination fallback
    pins down the witness of the lightest failing weight.
    """
    if x.p != family.p:
        raise ValueError("prime mismatch")
    p = x.p
    residual = dict(x.terms)
    top = max(residual, default=())  # holds the largest part, which refinement never exceeds
    outside = pt.outside_np(top[0] if top else 0, p)
    solution: dict[Partition, int] = {}
    failed: set[int] = set()  # weights whose support met a part outside N_p
    # Clearing alpha zeroes it and changes only strict refinements of alpha,
    # which have more parts; so within one length the order does not
    # matter, and a bucket only grows while a shorter one is cleared.
    by_length: dict[int, list[Partition]] = {}
    for alpha in residual:
        by_length.setdefault(len(alpha), []).append(alpha)
    length = 0
    while by_length:
        bucket = by_length.pop(length, ())
        length += 1
        for alpha in bucket:
            r = residual.get(alpha)
            if r is None:  # cleared since it was queued
                continue
            if not outside.isdisjoint(alpha):
                failed.add(sum(alpha))
            if failed and sum(alpha) in failed:
                continue
            inv_diag, row = family.clearing_row(alpha)
            coeff = r * inv_diag % p
            solution[alpha] = coeff
            for beta, c in row.items():
                old = residual.get(beta)
                if old is None:  # coeff and c are units, so the new entry is nonzero
                    residual[beta] = -coeff * c % p
                    by_length.setdefault(len(beta), []).append(beta)
                else:
                    nv = (old - coeff * c) % p
                    if nv:
                        residual[beta] = nv
                    else:
                        del residual[beta]
    if failed:
        weight = min(failed)
        outcome = _gauss_witness({a: c for a, c in x.terms.items() if sum(a) == weight}, weight, family)
        if isinstance(outcome, tuple):
            return NotInLp(p, outcome)
        raise AssertionError("triangular solve stalled on a solvable system")
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
    return pt.max_pi_q(x.terms, q)


def dim_q_via_generators(x: BPoly, q: int, family: GeneratorFamily | None = None):
    """Same invariant computed through the generator expression."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return express_required(x, family).deg_q(q)


def random_gen_poly(rng: random.Random, p: int, top_weight: int, max_terms: int = 4) -> GenPoly:
    """Random polynomial in the generators with term weights up to top_weight."""
    pt.check_prime(p)
    terms: dict[Partition, int] = {}
    n_terms = rng.randint(1, max_terms)
    attempts = 0
    while n_terms > 0 and attempts < 200:
        attempts += 1
        w = rng.randint(1, top_weight)
        choices = pt.np_partitions(w, p)
        if not choices:
            continue
        beta = rng.choice(choices)
        terms[beta] = terms.get(beta, 0) + rng.randrange(1, p)
        n_terms -= 1
    return GenPoly._trusted(p, terms)
