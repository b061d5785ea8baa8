"""Generator families for the mod-p cobordism ring and expression in them.

The image L_p of complex cobordism in F_p[b] is polynomial on classes l_i,
one for each index i with i+1 not a power of p.  The standard family uses
l_i = [P^i] when p does not divide i+1 and a Milnor hypersurface class
otherwise.  A class is a polynomial generator in weight i exactly when its
single-part coefficient c_(i) is nonzero mod p.

express_in_generators writes an exact class as a polynomial in a family.
The solve is triangular: the monomial on l_beta only supports partitions
refining beta, with an explicitly known diagonal entry, so clearing the
coarsest support element first terminates.  Non-membership is a first-class
result: express returns a NotInLp value (an exception instance, raised by
express_required for callers that need membership) whose witness partition
is produced by a dense elimination with rows finest-first, so the reported
obstruction is the coarsest one.
"""

from __future__ import annotations

import heapq
import json
import os
import random
from typing import Callable

from . import partitions as pt
from .chow import HAtom, PAtom, atom_class
from .fpring import NEG_INF, BPoly, GenPoly
from .partitions import IndexSet, Partition, in_np

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


def generator_atom(i: int, p: int):
    """The variety atom carrying the weight-i generator.

    P^i works when p does not divide i+1.  Otherwise i+1 = k*p^s with k >= 2
    prime to p, and the Milnor hypersurface H(p^s, (k-1)p^s) has dimension i
    with single-part Chern number binom(k*p^s, p^s) = k mod p, nonzero.
    """
    if not in_np(i, p):
        raise ValueError(f"{i} is not a generator index for p={p}")
    if (i + 1) % p:
        return PAtom(i)
    rest = i + 1
    s = 0
    while rest % p == 0:
        rest //= p
        s += 1
    k = rest  # i + 1 = k * p^s, k >= 2 since i+1 is not a pure power
    return HAtom(p**s, (k - 1) * p**s)


class GeneratorFamily:
    """A family of polynomial generators, one per index in N_p.

    gens maps the index i to an exact homogeneous weight-i class whose
    single-part coefficient is nonzero.  Monomial classes are memoized.
    """

    def __init__(self, p: int, kind: str, make: Callable[[int], BPoly], cache_path: str | None = None):
        self.p = p
        self.kind = kind
        self._make = make
        self.gens: dict[int, BPoly] = {}
        self._monomials: dict[Partition, BPoly] = {}
        self.cache_path = cache_path
        self._cached_up_to = -1
        if cache_path:
            self._load_cache()

    def generator(self, i: int) -> BPoly:
        if not in_np(i, self.p):
            raise ValueError(f"{i} is not a generator index for p={self.p}")
        if i not in self.gens:
            cls = self._make(i)
            if cls.coefficient((i,)) == 0:
                raise AssertionError(f"weight-{i} class fails the generator criterion")
            self.gens[i] = cls
        return self.gens[i]

    def ensure(self, max_index: int) -> None:
        for i in range(1, max_index + 1):
            if in_np(i, self.p):
                self.generator(i)
        # weight 0 has no generators, so a cold cache is not written until there are some
        if self.cache_path and max_index > max(self._cached_up_to, 0):
            self._save_cache(max_index)

    def diagonal(self, i: int) -> int:
        """c_(i) of the weight-i generator."""
        return self.generator(i).coefficient((i,))

    def monomial_class(self, beta: Partition) -> BPoly:
        beta = pt.check_partition(beta)
        if beta not in self._monomials:
            out = BPoly.one(self.p)
            for part in beta:
                out = out * self.generator(part)
            self._monomials[beta] = out
        return self._monomials[beta]

    # cache file layout: one prime per file, indices up to maxWeight
    def _load_cache(self) -> None:
        try:
            with open(self.cache_path) as fh:
                data = json.load(fh)
            if data.get("version") != 1 or data.get("p") != self.p:
                return
            for key, val in data.get("generators", {}).items():
                cls = BPoly.from_json_dict(val)
                i = int(key)
                if cls.p != self.p or cls.coefficient((i,)) == 0:
                    # corrupt entry, recompute everything
                    self.gens = {}
                    self._cached_up_to = -1
                    return
                self.gens[i] = cls
            self._cached_up_to = int(data.get("maxWeight", -1))
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            self.gens = {}
            self._cached_up_to = -1

    def _save_cache(self, max_index: int) -> None:
        # imported here: tempfile loads shutil and more, and a hot request never saves
        import tempfile

        data = {
            "version": 1,
            "p": self.p,
            "maxWeight": max_index,
            "generators": {str(i): cls.to_json_dict() for i, cls in sorted(self.gens.items())},
        }
        directory = os.path.dirname(os.path.abspath(self.cache_path))
        os.makedirs(directory, exist_ok=True)
        # write beside the target and rename, so a failed write leaves the old file;
        # json.dumps runs the C encoder, json.dump streams through the Python one
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(data, sort_keys=True))
            os.replace(tmp, self.cache_path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._cached_up_to = max_index

    def __repr__(self):
        return f"GeneratorFamily(p={self.p}, kind={self.kind!r}, known={sorted(self.gens)})"


_STANDARD: dict[int, GeneratorFamily] = {}


def standard_generators(p: int, max_index: int = 0, cache_path: str | None = None) -> GeneratorFamily:
    """The standard family; memoized per prime when no cache file is given."""
    if cache_path is not None:
        fam = GeneratorFamily(p, "standard", lambda i: atom_class(generator_atom(i, p), p), cache_path)
        fam.ensure(max_index)
        return fam
    if p not in _STANDARD:
        _STANDARD[p] = GeneratorFamily(p, "standard", lambda i: atom_class(generator_atom(i, p), p))
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
    if gp.p != family.p:
        raise ValueError("prime mismatch")
    out = BPoly.zero(gp.p)
    for beta, coeff in gp.terms.items():
        out = out + family.monomial_class(beta).scale(coeff)
    return out


def _require_exact(x: BPoly) -> None:
    if x.max_weight is not None:
        raise ValueError("an exact class is required; this one is truncated")


def _gauss_witness(x_w: dict[Partition, int], weight: int, family: GeneratorFamily) -> dict[Partition, int] | Partition:
    """Solve the weight-w linear system by elimination, rows finest-first.

    Returns the coefficient dict on success, or the witness partition of the
    first inconsistent row.  Unknowns are the N_p-partitions of the weight;
    rows are all partitions of the weight in ascending canonical order, so
    an inconsistency is reported at the coarsest possible row.
    """
    p = family.p
    unknowns = pt.partitions_of(weight, parts=IndexSet.np_minus(p))
    columns = {beta: family.monomial_class(beta) for beta in unknowns}
    rows = sorted(pt.partitions_of(weight), key=pt.canonical_term_key, reverse=True)
    pivots: dict[Partition, tuple[dict, int]] = {}  # pivot unknown -> (row vector, rhs)
    for alpha in rows:
        vec = {}
        for beta, cls in columns.items():
            c = cls.terms.get(alpha, 0)  # columns are exact, so nothing is truncated
            if c:
                vec[beta] = c
        rhs = x_w.get(alpha, 0) % p
        for pivot, (pvec, prhs) in pivots.items():
            c = vec.get(pivot, 0)
            if not c:
                continue
            del vec[pivot]  # the stored row has an implied 1 there
            for b, v in pvec.items():
                nv = (vec.get(b, 0) - c * v) % p
                if nv:
                    vec[b] = nv
                else:
                    vec.pop(b, None)
            rhs = (rhs - c * prhs) % p
        if vec:
            pivot = min(vec, key=pt.canonical_term_key)
            inv = pow(vec.pop(pivot), -1, p)
            pvec = {b: (inv * v) % p for b, v in vec.items()}
            prhs = (inv * rhs) % p
            # eager: clear the new pivot from every stored row
            for other, (ovec, orhs) in list(pivots.items()):
                c = ovec.get(pivot, 0)
                if not c:
                    continue
                del ovec[pivot]
                for b, v in pvec.items():
                    nv = (ovec.get(b, 0) - c * v) % p
                    if nv:
                        ovec[b] = nv
                    else:
                        ovec.pop(b, None)
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
    clears the coarsest support element each step; a support element owning
    a part outside N_p certifies failure, at which point the elimination
    fallback pins down the witness.  Non-homogeneous classes are handled
    one weight component at a time.
    """
    if x.p != family.p:
        raise ValueError("prime mismatch")
    _require_exact(x)
    p = x.p
    solution: dict[Partition, int] = {}
    for weight, comp in sorted(x.weight_components().items()):
        family.ensure(weight)
        residual = dict(comp.terms)
        # coarsest first; entries whose term has been cleared are skipped
        heap = [(len(a), pt.canonical_term_key(a), a) for a in residual]
        heapq.heapify(heap)
        while residual:
            alpha = heapq.heappop(heap)[2]
            if alpha not in residual:
                continue
            if any(not in_np(part, p) for part in alpha):
                outcome = _gauss_witness(dict(comp.terms), weight, family)
                if isinstance(outcome, tuple):
                    return NotInLp(p, outcome)
                raise AssertionError("triangular solve stalled on a solvable system")
            diag = 1
            for part in alpha:
                diag = (diag * family.diagonal(part)) % p
            coeff = (residual[alpha] * pow(diag, -1, p)) % p
            solution[alpha] = solution.get(alpha, 0) + coeff
            for beta, c in family.monomial_class(alpha).terms.items():
                nv = (residual.get(beta, 0) - coeff * c) % p
                if nv:
                    if beta not in residual:
                        heapq.heappush(heap, (len(beta), pt.canonical_term_key(beta), beta))
                    residual[beta] = nv
                else:
                    residual.pop(beta, None)
    return GenPoly._trusted(p, solution)


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
    if q < 1:
        raise ValueError("q must be a positive integer")
    _require_exact(x)
    if x.is_zero():
        return NEG_INF
    return max(pt.pi_q(alpha, q) for alpha in x.terms)


def dim_q_via_generators(x: BPoly, q: int, family: GeneratorFamily | None = None):
    """Same invariant computed through the generator expression."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return express_required(x, family).deg_q(q)


def random_gen_poly(rng: random.Random, p: int, max_weight: int, max_terms: int = 4) -> GenPoly:
    """Random polynomial in the generators with term weights up to max_weight."""
    out = GenPoly.zero(p)
    n_terms = rng.randint(1, max_terms)
    attempts = 0
    while n_terms > 0 and attempts < 200:
        attempts += 1
        w = rng.randint(1, max_weight)
        choices = pt.partitions_of(w, parts=IndexSet.np_minus(p))
        if not choices:
            continue
        beta = rng.choice(choices)
        out = out + GenPoly.monomial(p, beta, rng.randrange(1, p))
        n_terms -= 1
    return out
