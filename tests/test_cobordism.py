"""Generator families, expression in generators, dim_q."""

import json
import os
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from reference import refines

import cobordlab.partitions as pt
from cobordlab.chow import HAtom, PAtom, chern_numbers
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
    """Dense elimination at every weight: the reference route for express_in_generators."""
    result = GenPoly.zero(x.p)
    for weight, comp in sorted(x.weight_components().items()):
        family.ensure(weight)
        outcome = _gauss_witness(dict(comp.terms), weight, family)
        if isinstance(outcome, tuple):
            return NotInLp(x.p, outcome)
        for beta, coeff in outcome.items():
            result = result + GenPoly.monomial(x.p, beta, coeff)
    return result


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


def test_truncated_input_rejected():
    fam = standard_generators(2)
    x = BPoly(2, {(2,): 1}, max_weight=4)
    with pytest.raises(ValueError):
        express_in_generators(x, fam)
    with pytest.raises(ValueError):
        dim_q_direct(x, 2)


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


def test_standard_family_memoized():
    assert standard_generators(2) is standard_generators(2)


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.json")
    fam_a = standard_generators(2, max_index=6, cache_path=path)
    assert (tmp_path / "cache.json").exists()
    fam_b = standard_generators(2, cache_path=path)
    assert fam_b.gens  # loaded, not empty
    for i in (2, 4, 5, 6):
        assert fam_b.generator(i) == fam_a.generator(i)


def test_cache_ignores_corrupt_file(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{this is not json")
    fam = standard_generators(2, max_index=4, cache_path=str(path))
    assert fam.generator(4) == standard_generators(2).generator(4)


def test_cache_ignores_other_prime(tmp_path):
    path = str(tmp_path / "cache.json")
    standard_generators(2, max_index=6, cache_path=path)
    fam3 = standard_generators(3, max_index=6, cache_path=path)
    assert fam3.generator(5) == standard_generators(3).generator(5)


def test_cache_rejected_entry_discards_the_whole_file(tmp_path):
    path = tmp_path / "cache.json"
    standard_generators(2, max_index=6, cache_path=str(path))
    data = json.loads(path.read_text())
    entry = data["generators"]["5"]
    entry["terms"] = [t for t in entry["terms"] if t["partition"] != [5]]
    path.write_text(json.dumps(data))
    fam = GeneratorFamily(2, "standard", standard_generators(2).generator, str(path))
    assert fam.gens == {}
    assert fam._cached_up_to == -1
    fam.ensure(6)
    assert fam.generator(5) == standard_generators(2).generator(5)


def test_cache_write_failure_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    standard_generators(2, max_index=6, cache_path=str(path))
    before = path.read_bytes()
    real_fdopen = os.fdopen

    class HalfWritten:
        """A file that takes half of what is written to it, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: HalfWritten(real_fdopen(fd, mode)))
    with pytest.raises(OSError):
        standard_generators(2, max_index=8, cache_path=str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["cache.json"]
    fam = GeneratorFamily(2, "standard", standard_generators(2).generator, str(path))
    assert fam._cached_up_to == 6 and sorted(fam.gens) == [2, 4, 5, 6]
    assert fam.generator(6) == standard_generators(2).generator(6)
