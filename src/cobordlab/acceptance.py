"""Executable acceptance checks, shared by the test gate and `cobordlab selftest`.

Each check takes the suite's shared list of (action, group) pairs, returns
(ok, detail) and is registered in CHECKS in run order.  The soundness sweep
consumes every action the other checks append to that list, so it runs last;
standalone it rebuilds the pool itself.  run_all never raises: a
crashing check is reported as a failure.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple

from . import partitions as pt
from .actions import CharacterGroup, construct_action, fixed_dim, realize, underlying_variety
from .bounds import main_bound, milnor_divisibility_check, np_monomial_ratio_violations, small_fixed_divisibility
from .chow import HAtom, PAtom, _h_atom, _p_atom, atom_class, chern_numbers
from .cobordism import (
    NotInLp,
    dim_q_direct,
    dim_q_via_generators,
    evaluate_gen_poly,
    express_in_generators,
    perturbed_family,
    random_gen_poly,
    standard_generators,
)
from .equivariant import f_poly, localization_case_count, localization_sweep_violations, phi
from .fpring import NEG_INF, BPoly, GenPoly, format_bpoly

SEED = 20260819
DIMQ_CONFIGS = ((2, 2), (2, 4), (2, 8), (3, 3), (3, 9))


CheckResult = namedtuple("CheckResult", "name ok detail seconds")  # one check's outcome, as run_all reports it


def check_projective_four(ctx: list) -> tuple[bool, str]:
    t0 = time.perf_counter()
    got = chern_numbers("P(4)", 2)
    dt = time.perf_counter() - t0
    want = BPoly(2, {(4,): 1, (2, 2): 1, (2, 1, 1): 1})
    ok = got == want and dt < 1.0
    return ok, f"[[P^4]] = {format_bpoly(got)} in {dt * 1000:.0f}ms"


def check_projective_diagonal(ctx: list) -> tuple[bool, str]:
    bad = []
    for p in (2, 3, 5, 7):
        for i in range(1, 21):
            got = atom_class(PAtom(i), p).coefficient((i,))
            if got != (-(i + 1)) % p:
                bad.append((p, i, got))
    return not bad, f"c_(i) of P^i is -(i+1) mod p, i <= 20, p in 2,3,5,7; failures: {bad}"


def check_milnor_diagonal(ctx: list) -> tuple[bool, str]:
    cases = ((2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 2, 1), (3, 4, 1), (5, 2, 1))
    bad = []
    for p, k, s in cases:
        n, m = p**s, (k - 1) * p**s
        got = atom_class(HAtom(n, m), p).coefficient((n + m - 1,))
        if got != k % p:
            bad.append((p, k, s, got))
    return not bad, f"c_(i) of H(p^s,(k-1)p^s) is k mod p on {len(cases)} cases; failures: {bad}"


def check_membership(ctx: list) -> tuple[bool, str]:
    fam = standard_generators(2)
    outside = express_in_generators(BPoly(2, {(2, 1, 1): 1}), fam)
    ok = isinstance(outside, NotInLp) and outside.witness == (4,)
    notes = [f"b2*b1^2 -> {outside!r}"]
    for terms in ({(2, 2): 1}, {(4,): 1, (2, 2): 1, (2, 1, 1): 1}):
        x = BPoly(2, terms)
        res = express_in_generators(x, fam)
        inside = isinstance(res, GenPoly) and evaluate_gen_poly(res, fam) == x
        ok = ok and inside
        notes.append(f"{format_bpoly(x)} member: {inside}")
    return ok, "; ".join(notes)


def check_dimq_matches_degq(ctx: list) -> tuple[bool, str]:
    rng = random.Random(SEED)
    fams = {p: (standard_generators(p), perturbed_family(p, 7)) for p in (2, 3)}
    fails = total = 0
    for p, q in DIMQ_CONFIGS:
        for _ in range(200):
            gp = random_gen_poly(rng, p, 16)
            want = gp.deg_q(q)
            for fam in fams[p]:
                x = evaluate_gen_poly(gp, fam)
                total += 1
                if not (dim_q_direct(x, q) == dim_q_via_generators(x, q, fam) == want):
                    fails += 1
    return fails == 0, f"{total} evaluations over {DIMQ_CONFIGS}, standard and perturbed; {fails} mismatches"


def check_realize_achieves(ctx: list) -> tuple[bool, str]:
    rng = random.Random(SEED + 1)
    fails = total = 0
    for p, q in DIMQ_CONFIGS:
        G = CharacterGroup.cyclic(q)
        fam = standard_generators(p)
        for _ in range(100):
            gp = random_gen_poly(rng, p, 16)
            x = evaluate_gen_poly(gp, fam)
            action, achieved = realize(x, G)
            for _, factors in action.parts:
                ctx.extend((factor, G) for factor in factors)
            ctx.append((action, G))
            total += 1
            if achieved != dim_q_direct(x, q) or chern_numbers(underlying_variety(action), p) != x:
                fails += 1
    return fails == 0, f"{total} realizations achieve dim_q with the right class; {fails} failures"


def check_np_monomial_ratio(ctx: list) -> tuple[bool, str]:
    violations = np_monomial_ratio_violations(2, 2, 20)
    count = sum(len(pt.np_partitions(n, 2)) for n in range(1, 21))
    return violations == [], f"{count} N_2-monomials of weight <= 20, pi_2 >= ceil(2n/5); violations: {violations}"


def check_localization(ctx: list) -> tuple[bool, str]:
    t0 = time.perf_counter()
    bad = []
    for p in (2, 3):
        bad.extend(localization_sweep_violations(p, 5))
    cases = sum(localization_case_count(p, 5) for p in (2, 3))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60.0
    return ok, f"{cases} localization cases over p in 2,3 in {dt:.1f}s; failures: {bad[:3]}"


def check_dividing_polynomials(ctx: list) -> tuple[bool, str]:
    bad = []
    for p in (2, 3, 5, 7):
        if phi(p) != {(p, 0): 1, (1, p - 1): p - 1}:
            bad.append(("phi", p))
        for i in range(31):
            u = i // p
            if any(xd < u for xd, _ in f_poly(p, i)):
                bad.append((p, i))
    return not bad, f"phi = x^p - t^(p-1) x and x^floor(i/p) divides f_i, i <= 30, p in 2,3,5,7; failures: {bad}"


def check_fixed_locus_formulas(ctx: list) -> tuple[bool, str]:
    bad = []
    built = []
    for q in (2, 3, 4, 8, 9):
        G = CharacterGroup.cyclic(q)
        for n in range(31):
            action = construct_action(_p_atom(n), G)
            built.append((action, G))
            if fixed_dim(action) != n // q:
                bad.append(("P", n, q))
    for q in (2, 3, 4):
        G = CharacterGroup.cyclic(q)
        for n in range(9):
            for m in range(n + 1):
                action = construct_action(_h_atom(n, m), G)
                built.append((action, G))
                got = fixed_dim(action)
                if n + m == 0:
                    want = NEG_INF
                elif n % q == 0 and m % q == 0:
                    want = (n + m - 1) // q
                else:
                    want = n // q + m // q
                if got != want:
                    bad.append(("H", n, m, q))
    ctx.extend(built)
    return not bad, f"{len(built)} constructed actions match the closed formulas; failures: {bad}"


def check_action_soundness(ctx: list) -> tuple[bool, str]:
    if not ctx:
        check_fixed_locus_formulas(ctx)
        check_realize_achieves(ctx)
    seen = set()
    fails = total = 0
    for action, G in ctx:
        key = (action, G)
        if key in seen:
            continue
        seen.add(key)
        x = chern_numbers(underlying_variety(action), G.p)
        total += 1
        if not fixed_dim(action) >= main_bound(x, G.q):
            fails += 1
    return fails == 0 and total > 0, f"{total} distinct actions satisfy fixed_dim >= main_bound; {fails} violations"


def _random_homogeneous(rng: random.Random, p: int, pool: list | tuple, fam) -> BPoly:
    mons = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))  # distinct, so no coefficients add up
    return evaluate_gen_poly(GenPoly(p, {beta: rng.randint(1, p - 1) for beta in mons}), fam)


def check_divisibility_corollaries(ctx: list) -> tuple[bool, str]:
    rng = random.Random(SEED + 2)
    notes = []
    ok = True
    # small q: parts of index <= q-2 must carry weight n - (2q-1)d
    for p, q in ((3, 3), (2, 4)):
        fam = standard_generators(p)
        hits = attempts = fails = 0
        while hits < 50 and attempts < 4000:
            attempts += 1
            n = rng.randint(1, 14)
            pool = [b for b in pt.np_partitions(n, p) if (2 * q - 1) * pt.pi_q(b, q) <= n]
            if not pool:
                continue
            x = _random_homogeneous(rng, p, pool, fam)
            d = dim_q_direct(x, q)
            if (2 * q - 1) * d > n:
                continue
            hits += 1
            if not small_fixed_divisibility(x, q, d, fam):
                fails += 1
        ok = ok and fails == 0 and hits == 50
        notes.append(f"q={q}: {hits} classes, {fails} failures")
    # q=2 Milnor-generator divisibility
    fam = standard_generators(2)
    hits = attempts = fails = nonvac = 0
    while hits < 50 and attempts < 4000:
        attempts += 1
        n = rng.randint(1, 14)
        pool = pt.np_partitions(n, 2)
        # prefer monomials keeping dim_2 below 3n/7 so the verdict is not vacuous
        sharp = [b for b in pool if 7 * pt.pi_q(b, 2) < 3 * n]
        if sharp and rng.random() < 0.7:
            pool = sharp
        if not pool:
            continue
        x = _random_homogeneous(rng, 2, pool, fam)
        d = dim_q_direct(x, 2)
        hits += 1
        if 3 * n - 7 * d > 0:
            nonvac += 1
        if not milnor_divisibility_check(x, d, fam):
            fails += 1
    ok = ok and fails == 0 and hits == 50
    notes.append(f"q=2 Milnor: {hits} classes ({nonvac} non-vacuous), {fails} failures")
    return ok, "; ".join(notes)


CHECKS = (
    ("projective-4-class", check_projective_four),
    ("projective-diagonal", check_projective_diagonal),
    ("milnor-diagonal", check_milnor_diagonal),
    ("membership-witness", check_membership),
    ("dimq-equals-degq", check_dimq_matches_degq),
    ("realize-achieves-dimq", check_realize_achieves),
    ("np-monomial-ratio", check_np_monomial_ratio),
    ("localization-identity", check_localization),
    ("dividing-polynomials", check_dividing_polynomials),
    ("fixed-locus-formulas", check_fixed_locus_formulas),
    ("divisibility-corollaries", check_divisibility_corollaries),
    ("action-soundness", check_action_soundness),
)


def run_all() -> list[CheckResult]:
    ctx: list = []
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(ctx)
        except Exception as exc:
            ok, detail = False, f"crashed: {exc!r}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - t0))
    return results
