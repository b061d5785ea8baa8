"""Fixed-locus dimension bounds and divisibility conclusions.

Everything here consumes exact mod-p classes.  The headline inequality says
a diagonalizable p-group action of order q on X forces dim of the fixed
locus to be at least dim_q [X]; the ratio and divisibility variants below
are its consequences, phrased so each one is checkable in generator
coordinates.

Bounds are returned as integers (or -inf when no constraint exists):
dimensions are integers, so fractional lower bounds are rounded up.
"""

from __future__ import annotations

from math import ceil

from . import partitions as pt
from .cobordism import GeneratorFamily, dim_q_direct, express_required
from .fpring import NEG_INF, BPoly
from .partitions import Partition, Record, np_heads, rho_q


def check_order(p: int, q: int) -> int:
    """q itself, once it is known to be a power of the prime p."""
    pt.check_prime(p)
    if q < 1 or not pt.is_power_of(q, p):
        raise ValueError(f"order {q} is not a power of the prime {p}")
    return q


def main_bound(x: BPoly, q: int):
    """Lower bound for the fixed-locus dimension under any order-q action.

    q must be a power of the class's prime.  The zero class imposes no
    constraint (-inf).
    """
    check_order(x.p, q)
    return dim_q_direct(x, q)


class BoundReport(Record):
    """Outcome of a hypothesis-checked bound.

    bound is -inf exactly when the hypothesis fails or the class is zero;
    certificate is the generator monomial witnessing the hypothesis.
    """

    __slots__ = ("bound", "hypothesis_checked", "certificate", "inputs")

    def __init__(self, bound, hypothesis_checked: str, certificate: Partition | None, inputs: dict):
        object.__setattr__(self, "bound", bound)  # int or NEG_INF
        object.__setattr__(self, "hypothesis_checked", hypothesis_checked)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "inputs", inputs)

    def to_json_dict(self) -> dict:
        return {
            "bound": None if self.bound == NEG_INF else self.bound,
            "hypothesisChecked": self.hypothesis_checked,
            "certificate": list(self.certificate) if self.certificate is not None else None,
            "inputs": self.inputs,
        }


def ratio_bound(x: BPoly, A, s: int, q: int, fam: GeneratorFamily | None = None) -> BoundReport:
    """Ratio-type bound from a monomial with few factors in the index set A, a collection of ints.

    For homogeneous x of weight n: if its generator expression contains a
    monomial with at most s parts lying in A, then any order-q fixed locus
    has dimension at least rho_q(N_p minus A) * (n - (q-1)s), rounded up.
    The qualifying monomial is returned as the certificate.
    """
    p = x.p
    check_order(p, q)
    if s < 0:
        raise ValueError("s must be nonnegative")
    inputs = {"p": p, "q": q, "s": s, "A": sorted(set(A)), "weight": None}
    if x.is_zero():
        return BoundReport(NEG_INF, "zero class: no constraint", None, inputs)
    if not x.is_homogeneous():
        raise ValueError("ratio_bound needs a homogeneous class")
    n = int(x.top_weight())
    inputs["weight"] = n
    P = express_required(x, fam)
    certificate = None
    for beta in P.support():
        if sum(1 for part in beta if part in A) <= s:
            certificate = beta
            break
    if certificate is None:
        return BoundReport(
            NEG_INF, f"no monomial with at most {s} factors indexed in A", None, inputs
        )
    rho = rho_q(np_heads(p, q, frozenset(A)), q)
    bound = ceil(rho * (n - (q - 1) * s))
    return BoundReport(
        bound, f"monomial with at most {s} factors indexed in A", certificate, inputs
    )


def _low_part_weight(beta: Partition, q: int) -> int:
    return sum(part for part in beta if part <= q - 2)


def small_fixed_divisibility(x: BPoly, q: int, d: int, fam: GeneratorFamily | None = None) -> bool:
    """Check the low-degree divisibility forced by a small fixed locus.

    For homogeneous x of weight n with n >= (2q-1)d, an order-q action with
    fixed locus of dimension <= d forces every generator monomial of x to
    carry factors of index <= q-2 totalling weight >= n - (2q-1)d.  Returns
    that verdict; the precondition is an error, not a failure.
    """
    p = x.p
    check_order(p, q)
    if x.is_zero() or not x.is_homogeneous():
        raise ValueError("a nonzero homogeneous class is required")
    n = int(x.top_weight())
    if n < (2 * q - 1) * d:
        raise ValueError(f"precondition n >= (2q-1)d fails: {n} < {(2 * q - 1) * d}")
    P = express_required(x, fam)
    need = n - (2 * q - 1) * d
    return all(_low_part_weight(beta, q) >= need for beta in P.terms)


def milnor_exponent(n: int, d: int) -> int:
    """ceil((3n - 7d) / 15), in exact integer arithmetic."""
    return -((7 * d - 3 * n) // 15)


def milnor_divisibility_check(x: BPoly, d: int, fam: GeneratorFamily | None = None) -> bool:
    """Mod-2 divisibility by the weight-5 Milnor generator.

    For homogeneous x of weight n over p=2 with an order-2 fixed locus of
    dimension <= d, every generator monomial must carry the index-5 factor
    with exponent at least ceil((3n-7d)/15); vacuous when that is <= 0.
    """
    if x.p != 2:
        raise ValueError("this check is specific to p=2")
    if x.is_zero() or not x.is_homogeneous():
        raise ValueError("a nonzero homogeneous class is required")
    n = int(x.top_weight())
    need = milnor_exponent(n, d)
    if need <= 0:
        return True
    P = express_required(x, fam)
    return all(sum(1 for part in beta if part == 5) >= need for beta in P.terms)


def np_monomial_ratio_violations(p: int, q: int, max_weight: int) -> list[Partition]:
    """N_p-partitions violating pi_q >= rho_q(N_p) * weight, up to max_weight.

    Mathematically empty for every (p, q); the exhaustive scan is the
    machine check.  With p = q = 2 the threshold is ceil(2n/5).
    """
    rho = rho_q(np_heads(p, q), q)
    violations = []
    for n in range(1, max_weight + 1):
        for beta in pt.np_partitions(n, p):
            if pt.pi_q(beta, q) < ceil(rho * n):
                violations.append(beta)
    return violations
