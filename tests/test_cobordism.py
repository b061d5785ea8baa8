"""Generator families, expression in generators, dim_q."""

import hashlib
import json
import random
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from reference import all_partitions, reference_elimination, reference_express, refines, subprocess_env

import cobordlab.partitions as pt
from cobordlab import cobordism
from cobordlab.acceptance import SEED
from cobordlab.chow import HAtom, PAtom, atom_class, chern_numbers
from cobordlab.cobordism import (
    GeneratorFamily,
    NotInLp,
    _gauss_witness,
    dim_q_direct,
    dim_q_via_generators,
    evaluate_gen_poly,
    express_in_generators,
    generator_atom,
    perturbed_family,
    random_gen_poly,
    standard_generators,
)
from cobordlab.fpring import NEG_INF, BPoly, GenPoly


def test_generator_atom_selection():
    assert generator_atom(4, 2) == PAtom(4)
    assert generator_atom(5, 2) == HAtom(2, 4)  # 6 = 3*2
    assert generator_atom(5, 3) == HAtom(3, 3)  # 6 = 2*3
    assert generator_atom(1, 3) == PAtom(1)
    for i, p in [(1, 2), (3, 2), (7, 2), (2, 3), (8, 3)]:
        with pytest.raises(ValueError):
            generator_atom(i, p)


def test_standard_table_p2():
    fam = standard_generators(2)
    assert fam.generator(2) == BPoly(2, {(2,): 1})
    assert fam.generator(4) == BPoly(2, {(4,): 1, (2, 2): 1, (2, 1, 1): 1})
    with pytest.raises(ValueError):
        fam.generator(3)


def test_generator_criterion_and_grading():
    for p in (2, 3):
        fam = standard_generators(p)
        for i in range(1, 11):
            if not pt.in_np(i, p):
                continue
            g = fam.generator(i)
            assert g.is_homogeneous() and g.top_weight() == i
            assert fam.diagonal(i) != 0
            # diagonal oracle: -(i+1) in the P case, k with i+1 = k*p^s otherwise
            if (i + 1) % p:
                assert fam.diagonal(i) == (-(i + 1)) % p
            else:
                rest = i + 1
                while rest % p == 0:
                    rest //= p
                assert fam.diagonal(i) == rest % p


def test_monomial_classes_are_triangular():
    # c_alpha(l_beta) vanishes unless alpha refines beta, and the diagonal
    # entry is the product of the single-generator diagonals
    fam = standard_generators(2)
    n = 6
    allowed = [j for j in range(1, n + 1) if pt.in_np(j, 2)]
    for beta in pt.partitions_of(n, parts=allowed):
        cls = fam.monomial_class(beta)
        for alpha in pt.partitions_of(n):
            if cls.coefficient(alpha) != 0:
                assert refines(alpha, beta), (alpha, beta)
        diag = 1
        for part in beta:
            diag = diag * fam.diagonal(part) % 2
        assert cls.coefficient(beta) == diag


@settings(deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((2, 3)), st.booleans())
def test_express_roundtrip(seed, p, perturb):
    rng = random.Random(seed)
    fam = perturbed_family(p, seed % 97) if perturb else standard_generators(p)
    gp = random_gen_poly(rng, p, 10)
    x = evaluate_gen_poly(gp, fam)
    assert express_in_generators(x, fam) == gp


def express_by_elimination(x: BPoly, family: GeneratorFamily) -> GenPoly | NotInLp:
    """Dense elimination at every weight, lightest first: the reference route for express_in_generators."""
    components: dict[int, dict] = {}
    for alpha, c in x.terms.items():
        components.setdefault(sum(alpha), {})[alpha] = c
    solution = {}
    for weight in sorted(components):
        outcome = reference_elimination(components[weight], weight, family)
        if isinstance(outcome, tuple):
            return NotInLp(x.p, outcome)
        solution.update(outcome)
    return GenPoly(x.p, solution)


@settings(deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((2, 3)))
def test_express_agrees_with_elimination(seed, p):
    rng = random.Random(seed)
    fam = standard_generators(p)
    x = evaluate_gen_poly(random_gen_poly(rng, p, 9), fam)
    assert express_by_elimination(x, fam) == express_in_generators(x, fam)


def test_not_in_lp_witness():
    fam = standard_generators(2)
    res = express_in_generators(BPoly(2, {(2, 1, 1): 1}), fam)
    assert res == NotInLp(2, (4,))
    assert express_by_elimination(BPoly(2, {(2, 1, 1): 1}), fam) == NotInLp(2, (4,))
    assert express_in_generators(BPoly(2, {(1,): 1}), fam) == NotInLp(2, (1,))
    assert "c_(4)" in str(NotInLp(2, (4,)))


@pytest.mark.parametrize("p", (2, 3))
def test_every_single_monomial_gets_the_reference_verdict(p):
    # each b-monomial of weight <= 10 on its own: members solve alike, non-members give one witness
    fam = standard_generators(p)
    non_members = 0
    for w in range(1, 11):
        for alpha in pt.partitions_of(w):
            x = BPoly.monomial(p, alpha)
            got = express_in_generators(x, fam)
            assert got == express_by_elimination(x, fam), alpha
            non_members += isinstance(got, NotInLp)
    assert non_members > 100


def _components(x: BPoly) -> dict[int, tuple[dict, dict]]:
    """weight -> (the packed terms, the tuple terms) of x in that weight."""
    out: dict[int, tuple[dict, dict]] = {}
    for alpha, c in x.terms.items():
        packed, terms = out.setdefault(sum(alpha), ({}, {}))
        packed[pt.pack(alpha)] = c
        terms[alpha] = c
    return out


@pytest.mark.parametrize("p", (2, 3))
def test_gauss_witness_finds_no_witness_at_member_weights(p):
    fam = standard_generators(p)
    for seed in range(40):
        x = evaluate_gen_poly(random_gen_poly(random.Random(seed), p, 9), fam)
        for weight, (packed, _) in _components(x).items():
            assert _gauss_witness(packed, weight, fam) is None, (seed, weight)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("perturb", (False, True), ids=("standard", "perturbed"))
def test_gauss_witness_returns_the_reference_witness_key(p, perturb, monkeypatch):
    fam = perturbed_family(p, 11) if perturb else standard_generators(p)
    non_members = 0

    def no_enumeration(*args, **kwargs):
        raise AssertionError(f"partitions_of{args} called")

    for seed in range(60):
        _, x = _member_and_off_ring(random.Random(seed), p, fam)
        for weight, (packed, terms) in _components(x).items():
            want = reference_elimination(terms, weight, fam)
            pt.np_keys(weight, p)  # the unknowns: the one enumeration the witness reads, memoized
            with monkeypatch.context() as patched:
                # the rows come from the columns, not from a walk over every partition of the weight
                patched.setattr(pt, "partitions_of", no_enumeration)
                got = _gauss_witness(packed, weight, fam)
            if isinstance(want, tuple):
                non_members += 1
                assert got == pt.pack(want), (seed, weight)
            else:
                assert got is None, (seed, weight)
    assert non_members > 30


def test_a_witness_search_that_finds_none_stops_the_solve(monkeypatch):
    # the triangular solve hands only failing weights over; a solvable one there is an internal fault
    monkeypatch.setattr(cobordism, "_gauss_witness", lambda x_w, weight, family: None)
    with pytest.raises(AssertionError, match="triangular solve stalled on a solvable system"):
        express_in_generators(BPoly(2, {(2, 1, 1): 1}), standard_generators(2))


def test_a_cleared_key_put_back_stops_the_solve(monkeypatch):
    add_multiple = cobordism._add_multiple
    calls = []

    def keep_the_cleared_key(out, k, terms, p):
        calls.append(k)
        if len(calls) > 20:  # a guard that lets the same key through would clear it forever
            raise RuntimeError("the solve cleared the same key 20 times")
        top = max(out)
        add_multiple(out, k, terms, p)
        out[top] = 1

    monkeypatch.setattr(cobordism, "_add_multiple", keep_the_cleared_key)
    with pytest.raises(AssertionError, match=r"clearing rows reach c_\(2, 2\) after c_\(2, 2\) was cleared"):
        express_in_generators(BPoly(2, {(2, 2): 1}), standard_generators(2))
    assert len(calls) == 1


def test_membership_positive_cases():
    fam = standard_generators(2)
    assert express_in_generators(BPoly(2, {(2, 2): 1}), fam) == GenPoly(2, {(2, 2): 1})
    p4 = chern_numbers("P(4)", 2)
    res = express_in_generators(p4, fam)
    assert isinstance(res, GenPoly)
    assert evaluate_gen_poly(res, fam) == p4


def test_constants_and_zero():
    fam = standard_generators(3)
    assert express_in_generators(BPoly.one(3), fam) == GenPoly(3, {(): 1})
    assert express_in_generators(BPoly.zero(3), fam) == GenPoly.zero(3)


def test_prime_mismatch_rejected():
    with pytest.raises(ValueError):
        express_in_generators(BPoly(3, {(1,): 1}), standard_generators(2))


def test_perturbed_family_keeps_diagonal():
    for p in (2, 3):
        std = standard_generators(p)
        pert = perturbed_family(p, 7)
        changed = 0
        for i in range(1, 11):
            if not pt.in_np(i, p):
                continue
            assert pert.diagonal(i) == std.diagonal(i)
            g = pert.generator(i)
            assert g.is_homogeneous() and g.top_weight() == i
            changed += g != std.generator(i)
        assert changed > 0  # seed 7 does perturb something in range


# sha256 of the JSON list [i, sorted terms of generator i] of perturbed_family(p, 7, 24)
PERTURBED_DIGESTS = {
    2: "bbc21413d8da0b1955e3eacad1481f235593df1288c29b52e46261df40e49314",
    3: "3e7602a2d5e30cbf6f1ddbdfcde79f06fcbcf7373b94579b6cd626fbe1bfffa1",
    5: "1887fb47bc12e5b35345ea90d2906c216245199625451d29463c368556f5460b",
}


@pytest.mark.parametrize("p", sorted(PERTURBED_DIGESTS))
def test_perturbed_family_digest_is_pinned(p):
    # the seed picks its decomposables from an enumeration, so its order is part of the family
    fam = perturbed_family(p, 7, 24)
    rows = [[i, fam.gens[i].sorted_terms()] for i in sorted(fam.gens)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == PERTURBED_DIGESTS[p]
    assert any(fam.gens[i] != standard_generators(p).generator(i) for i in fam.gens)


def test_dim_q_values():
    p4 = chern_numbers("P(4)", 2)
    assert dim_q_direct(p4, 2) == 2
    assert dim_q_via_generators(p4, 2) == 2
    assert dim_q_direct(p4, 4) == 1
    assert dim_q_direct(p4, 8) == 0
    assert dim_q_direct(BPoly.zero(2), 2) == NEG_INF
    assert dim_q_via_generators(BPoly.zero(2), 2) == NEG_INF
    with pytest.raises(ValueError):
        dim_q_direct(p4, 0)


def test_dim_q_via_generators_needs_membership():
    with pytest.raises(NotInLp):
        dim_q_via_generators(BPoly(2, {(2, 1, 1): 1}), 2)


def test_dim_q_via_generators_refuses_q_below_one_before_the_solve():
    # b_(2,1,1) is outside L_2, so a solve would raise NotInLp first
    for q in (0, -2):
        with pytest.raises(ValueError, match="^q must be a positive integer$"):
            dim_q_via_generators(BPoly(2, {(2, 1, 1): 1}), q)


def test_evaluate_gen_poly_refuses_a_family_of_another_prime():
    with pytest.raises(ValueError, match="^prime mismatch$"):
        evaluate_gen_poly(GenPoly(3, {(1,): 1}), standard_generators(2))


def test_standard_family_memoized():
    assert standard_generators(2) is standard_generators(2)


def _fresh_standard_family(p):
    return GeneratorFamily(p, lambda i: atom_class(generator_atom(i, p), p))


def test_express_builds_only_the_generators_it_clears():
    fam = _fresh_standard_family(2)
    x = chern_numbers("P(40)*P(6)", 2)
    assert express_in_generators(x, fam) == GenPoly(2, {(40, 6): 1})
    assert sorted(fam.gens) == [6, 40]


def test_witness_search_builds_its_unknowns_on_demand():
    fam = _fresh_standard_family(2)
    assert express_in_generators(BPoly(2, {(2, 1, 1): 1}), fam) == NotInLp(2, (4,))
    assert sorted(fam.gens) == [2, 4]


def test_cache_path_is_accepted_and_writes_nothing(tmp_path):
    fam = standard_generators(2, 6, cache_path=str(tmp_path / "cache.json"))
    assert fam is standard_generators(2)
    assert {2, 4, 5, 6} <= set(fam.gens)
    assert list(tmp_path.iterdir()) == []


def _off_ring_partition(rng, p, w):
    """A random partition of w with a part outside N_p."""
    e = rng.choice(sorted(pt.outside_np(w, p)))
    return tuple(sorted((e,) + rng.choice(all_partitions(w - e)), reverse=True))


def _member_and_off_ring(rng, p, fam):
    """A seeded member, and it plus b_alpha where alpha has a part outside N_p."""
    x = evaluate_gen_poly(random_gen_poly(rng, p, 9), fam)
    # at p = 5 no partition below weight 4 has a part outside N_p
    alpha = _off_ring_partition(rng, p, rng.randint(max(2, p - 1), 9))
    return x, x + BPoly.monomial(p, alpha, rng.randrange(1, p))


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("perturb", (False, True), ids=("standard", "perturbed"))
def test_express_agrees_with_elimination_off_the_ring(p, perturb):
    # the length-ordered solve hands a non-member over to the elimination at
    # the length where it meets a part outside N_p; both routes must agree
    fam = perturbed_family(p, 11) if perturb else standard_generators(p)
    outcomes = set()
    for seed in range(60):
        for x in _member_and_off_ring(random.Random(seed), p, fam):
            got = express_in_generators(x, fam)
            assert got == express_by_elimination(x, fam), (seed, x)
            outcomes.add(type(got))
    assert outcomes == {GenPoly, NotInLp}


def test_the_lightest_failing_weight_gives_the_witness(monkeypatch):
    # weight 7 meets the part 7 at one part, before weight 4 meets the part 1 at three
    fam = standard_generators(2)
    x = BPoly(2, {(7,): 1, (2, 1, 1): 1})
    # members at weights 4 and 5 beside a non-member at weight 7
    y = evaluate_gen_poly(GenPoly(2, {(5,): 1, (2, 2): 1}), fam) + BPoly(2, {(6, 1): 1})
    assert express_by_elimination(x, fam) == NotInLp(2, (4,))
    assert express_by_elimination(y, fam) == NotInLp(2, (6, 1))
    eliminated = []
    monkeypatch.setattr(cobordism, "_gauss_witness",
                        lambda x_w, weight, family: eliminated.append(weight) or _gauss_witness(x_w, weight, family))
    assert express_in_generators(x, fam) == NotInLp(2, (4,))
    assert express_in_generators(y, fam) == NotInLp(2, (6, 1))
    # only the lightest failing weight is eliminated; member weights are cleared by the triangular solve
    assert eliminated == [4, 7]


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("perturb", (False, True), ids=("standard", "perturbed"))
def test_largest_key_solve_agrees_with_the_length_ordered_solve(p, perturb):
    fam = perturbed_family(p, SEED) if perturb else standard_generators(p)
    rng = random.Random(SEED + p)
    verdicts = set()
    for _ in range(60):
        member = evaluate_gen_poly(random_gen_poly(rng, p, 9), fam)
        # off-ring terms at two weights, in either order of weight and length
        off_ring = member + BPoly(p, {_off_ring_partition(rng, p, rng.randint(p - 1, 12)): rng.randrange(1, p)
                                      for _ in range(2)})
        y = evaluate_gen_poly(random_gen_poly(rng, p, 14, max_terms=8), fam)
        for x in (member, off_ring, y, member + y):
            got = express_in_generators(x, fam)
            assert got == reference_express(x, fam), (x, got)
            verdicts.add(type(got))
    assert verdicts == {GenPoly, NotInLp}


def _all_monomials(fam, weight):
    return GenPoly(fam.p, {beta: 1 for beta in pt.np_partitions(weight, fam.p)})


@pytest.mark.parametrize("perturb", (False, True), ids=("standard", "perturbed"))
def test_the_class_of_every_n3_monomial_of_weight_24(perturb):
    fam = perturbed_family(3, SEED) if perturb else standard_generators(3)
    gp = _all_monomials(fam, 24)
    assert len(gp.packed) == 477
    x = evaluate_gen_poly(gp, fam)
    assert express_in_generators(x, fam) == gp == reference_express(x, fam)
    # 2 + 1 = 3 is outside N_3: weight 4 fails, and weight 24 is still cleared
    off = x + BPoly.monomial(3, (2, 2), 1)
    assert express_in_generators(off, fam) == reference_express(off, fam) == NotInLp(3, (2, 2))


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("perturb", (False, True), ids=("standard", "perturbed"))
def test_express_agrees_with_elimination_with_two_off_ring_weights(p, perturb):
    # a member plus b_alpha and b_gamma at two different weights, each with a part outside N_p
    fam = perturbed_family(p, 11) if perturb else standard_generators(p)
    heavier_is_shorter = 0
    for seed in range(40):
        rng = random.Random(seed)
        x = evaluate_gen_poly(random_gen_poly(rng, p, 9), fam)
        light, heavy = sorted(rng.sample(range(2, 10), 2))
        alpha, gamma = _off_ring_partition(rng, p, light), _off_ring_partition(rng, p, heavy)
        heavier_is_shorter += len(gamma) < len(alpha)
        x = x + BPoly(p, {alpha: rng.randrange(1, p), gamma: rng.randrange(1, p)})
        got = express_in_generators(x, fam)
        assert isinstance(got, NotInLp), (seed, x)
        assert got == express_by_elimination(x, fam), (seed, x)
    assert heavier_is_shorter


def _product_of_generators(fam, beta):
    out = BPoly.one(fam.p)
    for part in beta:
        out = out * fam.generator(part)
    return out


@pytest.mark.parametrize("p", (2, 3))
def test_monomial_classes_are_products_of_the_familys_own_generators(p):
    std = standard_generators(p)
    pert = perturbed_family(p, 7)
    # a plain user family whose generators are the perturbed ones
    impostor = GeneratorFamily(p, pert.generator)
    for fam in (std, _fresh_standard_family(p), pert, impostor):
        for w in range(1, 11):
            for beta in pt.np_partitions(w, p):
                want = _product_of_generators(fam, beta)
                assert fam.monomial_class(beta) == want, (fam, beta)
                assert fam.monomial_class(beta) == want, (fam, beta)  # memo warm
    assert any(impostor.monomial_class(b) != std.monomial_class(b)
               for w in range(1, 11) for b in pt.np_partitions(w, p))


@pytest.mark.parametrize("p", (2, 3))
def test_a_cold_monomial_build_checks_none_of_its_own_prefixes(p, monkeypatch):
    # a build reads each prefix by its packed key: the partitions it cuts itself are not checked again
    fam = perturbed_family(p, 9, max_index=12)  # generators built, monomials cold
    want = {beta: _product_of_generators(fam, beta) for w in range(1, 13) for beta in pt.np_partitions(w, p)}
    checked, check = [], pt.check_partition
    monkeypatch.setattr(pt, "check_partition", lambda alpha: checked.append(alpha) or check(alpha))
    for beta, cls in want.items():
        assert fam._monomial(pt.pack(beta)) == cls, beta
    assert checked == []


def test_monomial_class_still_refuses_bad_input_once_warm():
    fam = standard_generators(2)
    for beta in pt.np_partitions(6, 2):
        fam.monomial_class(beta)
    for _ in range(2):
        for bad in ((1, 2), (2, 4), (0,), [2, 2], (3,), (2, 1)):
            with pytest.raises(ValueError):
                fam.monomial_class(bad)


def test_diagonal_builds_on_demand_and_refuses_bad_indices():
    fam = _fresh_standard_family(3)
    assert fam.diagonal(5) == 2  # 5 + 1 = 2 * 3
    assert sorted(fam.gens) == [5]
    for _ in range(2):
        with pytest.raises(ValueError):
            fam.diagonal(2)  # 3 is a power of 3


def test_random_gen_poly_draws_as_the_chained_sum_did():
    # the draws must not move: the acceptance checks are pinned to SEED
    for p in (2, 3):
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            got = random_gen_poly(rng, p, 16)
            want = GenPoly.zero(p)
            n_terms, attempts = ref.randint(1, 4), 0
            while n_terms > 0 and attempts < 200:
                attempts += 1
                choices = pt.partitions_of(ref.randint(1, 16), parts=pt.IndexSet.np_minus(p))
                if choices:
                    want = want + GenPoly.monomial(p, ref.choice(choices), ref.randrange(1, p))
                    n_terms -= 1
            assert got == want and rng.getstate() == ref.getstate()


# A stored zero in a shared clearing row: at a partition that does not refine
# (4,2) it used to send the solve into an endless loop, at a strict refinement
# it would be "solved" with coefficient 0.  Each ends in an internal assertion
# naming the partition, and the CLI exits 3; so does a row entry above its
# partition, which would break the strict decrease of the cleared keys.
CLEARING_ROW = """
import sys
import cobordlab.partitions as pt
from cobordlab import cli
from cobordlab.cobordism import standard_generators
standard_generators(2).monomial_class((4, 2)).packed[pt.pack({at})] = {value}
sys.exit(cli.main(["express", "-p", "2", "b[4]*b[2] + b[2]^3"]))
"""


def _express_with_a_bad_row(at, value):
    proc = subprocess.run([sys.executable, "-c", CLEARING_ROW.format(at=at, value=value)], env=subprocess_env(),
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    return proc.stderr


@pytest.mark.parametrize("at, message", [
    ((6,), "the clearing row of c_(4, 2) holds a stored zero at c_(6,)"),
    ((3, 1, 1, 1), "the clearing row of c_(4, 2) holds a stored zero at c_(3, 1, 1, 1)"),
    ((4, 2), "the clearing row of c_(4, 2) holds a stored zero at c_(4, 2)"),
])
def test_a_stored_zero_in_a_clearing_row_stops_the_solve(at, message):
    assert _express_with_a_bad_row(at, 0) == f"internal assertion failed: {message}\n"


def test_a_row_entry_above_its_partition_stops_the_solve():
    assert _express_with_a_bad_row((6,), 1) == (
        "internal assertion failed: clearing rows reach c_(6,) after c_(4, 2) was cleared\n")
