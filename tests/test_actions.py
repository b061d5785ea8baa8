"""Explicit diagonal actions and their fixed-locus dimensions."""

import copy
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from reference import reference_fixed_dim, reference_generator_atom, reference_underlying_variety

import cobordlab.partitions as pt
from cobordlab import acceptance
from cobordlab.actions import (
    CharacterGroup,
    Disjoint,
    HAct,
    PAct,
    Product,
    action_to_json,
    construct_action_H,
    construct_action_L,
    construct_action_P,
    fixed_dim,
    realize,
    underlying_variety,
)
from cobordlab.chow import VExpr, VProduct, chern_numbers
from cobordlab.cobordism import (
    NotInLp,
    dim_q_direct,
    evaluate_gen_poly,
    generator_atom,
    perturbed_family,
    standard_generators,
)
from cobordlab.fpring import NEG_INF, BPoly, GenPoly


def test_character_group_basics():
    g = CharacterGroup.cyclic(8)
    assert g.p == 2 and g.q == 8
    assert len(g.characters()) == 8
    mixed = CharacterGroup((2, 4))
    assert mixed.p == 2 and mixed.q == 8
    assert len(set(mixed.characters())) == 8
    assert all(len(c) == 2 for c in mixed.characters())


def test_character_group_validation():
    with pytest.raises(ValueError):
        CharacterGroup.cyclic(6)
    with pytest.raises(ValueError):
        CharacterGroup((2, 3))
    with pytest.raises(ValueError):
        CharacterGroup(())
    with pytest.raises(ValueError):
        CharacterGroup((1,))


def test_construct_action_p():
    act = construct_action_P(4, CharacterGroup.cyclic(2))
    assert act.weights == ((0,), (0,), (0,), (1,), (1,))
    assert fixed_dim(act) == 2
    assert fixed_dim(construct_action_P(0, CharacterGroup.cyclic(4))) == 0
    with pytest.raises(ValueError):
        construct_action_P(-1, CharacterGroup.cyclic(2))


def test_construct_action_h_formula():
    g2 = CharacterGroup.cyclic(2)
    assert fixed_dim(construct_action_H(2, 4, g2)) == 2  # both divisible: (2+4-1)//2
    assert fixed_dim(construct_action_H(2, 3, g2)) == 2  # 2//2 + 3//2
    assert fixed_dim(construct_action_H(1, 1, g2)) == 0
    assert fixed_dim(construct_action_H(0, 0, g2)) == NEG_INF
    assert fixed_dim(construct_action_H(4, 2, g2)) == 2  # normalizes n <= m


def test_construct_action_l():
    assert fixed_dim(construct_action_L(5, CharacterGroup.cyclic(8))) == 0
    assert fixed_dim(construct_action_L(4, CharacterGroup.cyclic(4))) == 1
    act = construct_action_L(5, CharacterGroup.cyclic(2))
    assert isinstance(act, HAct)  # 5+1 = 3*2 forces the Milnor generator
    assert len(act.V) == 3 and len(act.W) == 5
    with pytest.raises(ValueError):
        construct_action_L(2, CharacterGroup.cyclic(3))  # 2 not in N_3
    # memoized per (i, G): the same record, and a bad index still refused
    assert construct_action_L(5, CharacterGroup.cyclic(2)) is act
    with pytest.raises(ValueError):
        construct_action_L(2, CharacterGroup.cyclic(3))


@settings(deadline=None)
@given(
    st.lists(st.sampled_from((2, 4, 5, 6, 8, 9)), min_size=1, max_size=4),
    st.sampled_from((2, 4, 8)),
)
def test_product_fixed_dim_is_pi_q(parts, q):
    beta = tuple(sorted(parts, reverse=True))
    g = CharacterGroup.cyclic(q)
    node = Product(tuple(construct_action_L(i, g) for i in beta))
    assert fixed_dim(node) == pt.pi_q(beta, q)


def test_fixed_dim_combinators():
    g = CharacterGroup.cyclic(2)
    p1 = Product((construct_action_P(2, g),))
    p2 = Product((construct_action_P(4, g),))
    assert fixed_dim(Disjoint(((1, p1), (3, p2)))) == 2
    assert fixed_dim(Disjoint(())) == NEG_INF
    # an empty-fixed factor swallows the whole product
    empty = HAct(((0,),), ((0,),))
    assert fixed_dim(empty) == NEG_INF
    assert fixed_dim(Product((construct_action_P(4, g), empty))) == NEG_INF


def test_memoized_fixed_dim_matches_the_counter_formula():
    # the audit pool: every action the fixed-locus and realize checks build
    ctx = acceptance.SuiteContext()
    acceptance.check_fixed_locus_formulas(ctx)
    acceptance.check_realize_achieves(ctx)
    assert len(ctx.actions) > 1000
    for action, _ in ctx.actions:
        twin = copy.deepcopy(action)  # equal, with every action node rebuilt
        assert twin == action and twin is not action
        want = reference_fixed_dim(action)
        assert fixed_dim(action) == fixed_dim(twin) == want, action


def test_action_node_validation():
    with pytest.raises(ValueError):
        PAct(())
    with pytest.raises(ValueError):
        PAct(((1,), (0,)))  # stored unsorted
    with pytest.raises(ValueError):
        HAct(((0,), (0,)), ((0,),))  # V not inside W
    with pytest.raises(ValueError):
        Product((Product(()),))
    with pytest.raises(ValueError):
        Disjoint(((0, Product(())),))


def test_underlying_variety():
    g = CharacterGroup.cyclic(2)
    assert str(underlying_variety(construct_action_L(5, g))) == "H(2,4)"
    node = Product((construct_action_P(2, g), construct_action_L(5, g)))
    assert str(underlying_variety(node)) == "P(2)*H(2,4)"
    # every generator action sits on the standard generator variety
    for p in (2, 3, 5):
        for q in (p, p * p):
            g = CharacterGroup.cyclic(q)
            for i in range(1, 41):
                if not pt.in_np(i, p):
                    continue
                act = construct_action_L(i, g)
                assert underlying_variety(act) == VExpr(((1, VProduct((generator_atom(i, p),))),)), (p, q, i)
                assert fixed_dim(act) == i // q, (p, q, i)


def test_interned_atoms_match_fresh_records():
    # the soundness pool: every action the fixed-locus and realize checks build
    ctx = acceptance.SuiteContext()
    acceptance.check_fixed_locus_formulas(ctx)
    acceptance.check_realize_achieves(ctx)
    assert len(ctx.actions) > 1000
    for action, _ in ctx.actions:
        assert underlying_variety(action) == reference_underlying_variety(action), action
    for p in (2, 3, 5, 7):
        for i in range(65):
            if pt.in_np(i, p):
                atom = generator_atom(i, p)
                assert atom == reference_generator_atom(i, p) and atom is generator_atom(i, p), (p, i)
            else:
                for _ in range(2):  # the memo keeps no exception
                    with pytest.raises(ValueError, match="not a generator index"):
                        generator_atom(i, p)


def test_realize_product_example():
    x = evaluate_gen_poly(GenPoly(2, {(5, 2): 1}), standard_generators(2))
    action, achieved = realize(x, CharacterGroup.cyclic(2))
    assert achieved == 3 == dim_q_direct(x, 2)
    assert len(action.parts) == 1
    assert chern_numbers(underlying_variety(action), 2) == x


def test_realize_p4():
    # P^4 is itself the weight-4 standard generator at p = 2
    x = chern_numbers("P(4)", 2)
    action, achieved = realize(x, CharacterGroup.cyclic(2))
    assert achieved == 2
    assert len(action.parts) == 1
    assert str(underlying_variety(action)) == "P(4)"
    assert chern_numbers(underlying_variety(action), 2) == x


def test_realize_two_part_sum():
    x = evaluate_gen_poly(GenPoly(2, {(4,): 1, (2, 2): 1}), standard_generators(2))
    action, achieved = realize(x, CharacterGroup.cyclic(2))
    assert achieved == 2 == dim_q_direct(x, 2)
    assert len(action.parts) == 2
    assert chern_numbers(underlying_variety(action), 2) == x


def test_realize_degenerate_classes():
    _, achieved = realize(BPoly.one(2), CharacterGroup.cyclic(2))
    assert achieved == 0
    action, achieved = realize(BPoly.zero(2), CharacterGroup.cyclic(2))
    assert achieved == NEG_INF and action.parts == ()


def test_realize_rejections():
    g2 = CharacterGroup.cyclic(2)
    with pytest.raises(NotInLp):
        realize(BPoly(2, {(1,): 1}), g2)
    with pytest.raises(ValueError):
        realize(BPoly(2, {(2,): 1}), CharacterGroup.cyclic(3))
    with pytest.raises(ValueError):
        realize(BPoly(2, {(2,): 1}), g2, perturbed_family(2, 5))


def test_action_to_json_shapes():
    g = CharacterGroup.cyclic(2)
    blob = action_to_json(construct_action_P(2, g))
    assert blob == {"type": "P", "weights": [[0], [0], [1]]}
    h = action_to_json(construct_action_L(5, g))
    assert h["type"] == "H" and len(h["V"]) == 3 and len(h["W"]) == 5
    action, _ = realize(chern_numbers("P(4)", 2), g)
    nested = action_to_json(action)
    assert nested["type"] == "Disjoint"
    assert {part["action"]["type"] for part in nested["parts"]} == {"Product"}
    json.dumps(nested)  # serializable all the way down
