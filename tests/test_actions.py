"""Explicit diagonal actions and their fixed-locus dimensions."""

import copy
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from reference import (
    reference_fixed_dim,
    reference_generator_atom,
    reference_natural_fixed_dim,
    reference_underlying_variety,
)

import cobordlab.partitions as pt
from cobordlab import acceptance
from cobordlab.actions import (
    _character_multiset,
    _prime_of,
    CharacterGroup,
    Disjoint,
    HAct,
    PAct,
    action_to_json,
    construct_action,
    fixed_dim,
    realize,
    render_json,
    underlying_variety,
)
from cobordlab.chow import HAtom, PAtom, VExpr, atom_class, chern_numbers
from cobordlab.cobordism import (
    GeneratorFamily,
    NotInLp,
    dim_q_direct,
    evaluate_gen_poly,
    generator_atom,
    perturbed_family,
    random_gen_poly,
    standard_generators,
)
from cobordlab.fpring import NEG_INF, BPoly, GenPoly


def all_characters(G):
    """Every character of G, in the order the product over each factor's range gives."""
    return list(itertools.product(*(range(f) for f in G.invariant_factors)))


def test_character_group_basics():
    g = CharacterGroup.cyclic(8)
    assert g.p == 2 and g.q == 8
    assert len(all_characters(g)) == 8
    mixed = CharacterGroup((2, 4))
    assert mixed.p == 2 and mixed.q == 8
    assert len(set(all_characters(mixed))) == 8
    assert all(len(c) == 2 for c in all_characters(mixed))


@pytest.mark.parametrize(
    "f, p",
    [(2, 2), (3, 3), (8, 2), (9, 3), (64, 2), (125, 5), (2**61, 2), (3**40, 3), (2147483647, 2147483647),
     (2147483647**2, 2147483647), (2147483647**3, 2147483647), (2**4000, 2)],
)
def test_prime_of_a_prime_power(f, p):
    assert _prime_of(f) == p


@pytest.mark.parametrize("f", [0, 1, 6, 12, 36, -4, -8, 2**31 * 3, 2147483647**2 * 3, 7**5 * 11, 6**20])
def test_prime_of_rejects_what_is_not_a_prime_power(f):
    with pytest.raises(ValueError, match="not a prime power"):
        _prime_of(f)


@pytest.mark.parametrize("factors", [(2, 4), (3, 9), (2, 2, 2), (5, 5), (4,)])
def test_character_multiset_matches_the_full_character_list(factors):
    # the multiset reads only the first characters; the full list gives the first r one more each
    G = CharacterGroup(factors)
    for d in range(3 * G.q):
        a, r = divmod(d - 1, G.q)
        weights = []
        for idx, ch in enumerate(all_characters(G)):
            weights.extend([ch] * (a + 1 if idx <= r else a))
        assert _character_multiset(d, G) == tuple(sorted(weights)), d


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
    act = construct_action(PAtom(4), CharacterGroup.cyclic(2))
    assert act.weights == ((0,), (0,), (0,), (1,), (1,))
    assert fixed_dim(act) == 2
    assert fixed_dim(construct_action(PAtom(0), CharacterGroup.cyclic(4))) == 0


def test_construct_action_h_formula():
    g2 = CharacterGroup.cyclic(2)
    assert fixed_dim(construct_action(HAtom(2, 4), g2)) == 2  # both divisible: (2+4-1)//2
    assert fixed_dim(construct_action(HAtom(2, 3), g2)) == 2  # 2//2 + 3//2
    assert fixed_dim(construct_action(HAtom(1, 1), g2)) == 0
    assert fixed_dim(construct_action(HAtom(0, 0), g2)) == NEG_INF


@pytest.mark.parametrize(
    "factors", [(2,), (4,), (8,), (3,), (9,), (5,), (25,), (27,),
                (2, 2), (2, 4), (3, 3), (2, 2, 2), (3, 9), (5, 5), (2, 2, 4)],
)
def test_construct_action_fixes_the_two_case_reference(factors):
    # every P(n), n <= 64, and every H(n, m), n <= m <= 40, against the two-case
    # formula: the builder states g, so this cross-checks g against it; built
    # past the memo, whose 4,096 entries these 13,890 actions would churn
    G = CharacterGroup(factors)
    atoms = [PAtom(n) for n in range(65)] + [HAtom(n, m) for m in range(41) for n in range(m + 1)]
    for atom in atoms:
        assert fixed_dim(construct_action.__wrapped__(atom, G)) == reference_natural_fixed_dim(atom, G.q), (factors, atom)


def test_construct_action_memo_is_bounded():
    # 4,200 distinct (atom, G) pairs against a memo of 4,096: it stays within its
    # bound, and the first pair, evicted as the least recently used, is rebuilt equal
    groups = [CharacterGroup.cyclic(q) for q in (2, 4, 8, 16, 3, 9, 27, 5, 25, 7)]
    pairs = [(PAtom(n), G) for G in groups for n in range(420)]
    first = construct_action(*pairs[0])
    for pair in pairs:
        construct_action(*pair)
    assert construct_action.cache_info().currsize <= 4096
    again = construct_action(*pairs[0])
    assert again == first and again is not first


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("power", (1, 2), ids=("q=p", "q=p^2"))
def test_natural_milnor_action_fixes_g_and_bounds_dim_q(p, power):
    # on every nonzero H(n,m) with n <= m <= 16 the natural action's fixed dimension is
    # g = max(n//q + (m-1)//q, (n-1)//q + m//q), never below dim_q as the main bound requires,
    # and above it only at H(5,7) and H(5,16) for q = 3
    q = p**power
    G = CharacterGroup.cyclic(q)
    above = []
    for m in range(17):
        for n in range(m + 1):
            x = atom_class(HAtom(n, m), p)
            if not x.is_zero():
                got = fixed_dim(construct_action(HAtom(n, m), G))
                assert got == max(n // q + (m - 1) // q, (n - 1) // q + m // q), (q, n, m)
                assert got >= dim_q_direct(x, q), (q, n, m)
                if got > dim_q_direct(x, q):
                    above.append((n, m))
    assert above == ([(5, 7), (5, 16)] if q == 3 else [])


def generator_action(i, G):
    """The action realize builds on the weight-i generator variety."""
    return construct_action(generator_atom(i, G.p), G)


def test_construct_action_l():
    assert fixed_dim(generator_action(5, CharacterGroup.cyclic(8))) == 0
    assert fixed_dim(generator_action(4, CharacterGroup.cyclic(4))) == 1
    act = generator_action(5, CharacterGroup.cyclic(2))
    assert isinstance(act, HAct)  # 5+1 = 3*2 forces the Milnor generator
    assert len(act.V) == 3 and len(act.W) == 5
    with pytest.raises(ValueError, match="not a generator index"):
        generator_action(2, CharacterGroup.cyclic(3))  # 2 not in N_3
    # memoized per (atom, G): the same record, also for an equal atom built apart
    assert generator_action(5, CharacterGroup.cyclic(2)) is act
    assert construct_action(HAtom(2, 4), CharacterGroup((2,))) is act
    with pytest.raises(ValueError, match="not a generator index"):
        generator_action(2, CharacterGroup.cyclic(3))


@settings(deadline=None)
@given(
    st.lists(st.sampled_from((2, 4, 5, 6, 8, 9)), min_size=1, max_size=4),
    st.sampled_from((2, 4, 8)),
)
def test_product_fixed_dim_is_pi_q(parts, q):
    beta = tuple(sorted(parts, reverse=True))
    g = CharacterGroup.cyclic(q)
    node = Disjoint(((1, tuple(generator_action(i, g) for i in beta)),))
    assert fixed_dim(node) == pt.pi_q(beta, q)


def test_fixed_dim_combinators():
    g = CharacterGroup.cyclic(2)
    p1 = (construct_action(PAtom(2), g),)
    p2 = (construct_action(PAtom(4), g),)
    assert fixed_dim(Disjoint(((1, p1), (3, p2)))) == 2
    assert fixed_dim(Disjoint(())) == NEG_INF
    assert fixed_dim(Disjoint(((1, ()),))) == 0  # the empty product is a point
    # an empty-fixed factor swallows the whole product, but not the other parts
    empty = HAct(((0,),), ((0,),))
    assert fixed_dim(empty) == NEG_INF
    assert fixed_dim(Disjoint(((1, (construct_action(PAtom(4), g), empty)),))) == NEG_INF
    assert fixed_dim(Disjoint(((1, (construct_action(PAtom(4), g), empty)), (2, p1)))) == 1


def test_memoized_fixed_dim_matches_the_counter_formula():
    # the audit pool: every action the fixed-locus and realize checks build
    ctx: list = []
    acceptance.check_fixed_locus_formulas(ctx)
    acceptance.check_realize_achieves(ctx)
    assert len(ctx) > 1000
    for action, _ in ctx:
        twin = copy.deepcopy(action)  # equal, with every action node rebuilt
        assert twin == action and twin is not action
        want = reference_fixed_dim(action)
        assert fixed_dim(action) == fixed_dim(twin) == want, action


def test_hact_accepts_exactly_the_sub_multisets():
    rng = random.Random(26)
    accepted = 0
    for _ in range(3000):
        chars = [(rng.randrange(3), rng.randrange(2)) for _ in range(rng.randint(1, 6))]
        V = tuple(sorted(chars[:rng.randint(1, len(chars))]))
        W = tuple(sorted(rng.sample(chars, rng.randint(1, len(chars))) + [(rng.randrange(3), 0)] * rng.randint(0, 2)))
        cv, cw = Counter(V), Counter(W)
        if all(cv[c] <= cw[c] for c in cv):
            assert HAct(V, W).V == V
            accepted += 1
        else:
            with pytest.raises(ValueError, match="V must be a sub-multiset of W"):
                HAct(V, W)
    assert 300 < accepted < 2700


def test_action_node_validation():
    with pytest.raises(ValueError):
        PAct(())
    with pytest.raises(ValueError):
        PAct(((1,), (0,)))  # stored unsorted
    with pytest.raises(ValueError):
        HAct(((0,), (0,)), ((0,),))  # V not inside W
    p2 = construct_action(PAtom(2), CharacterGroup.cyclic(2))
    with pytest.raises(ValueError, match="disjoint parts must be products"):
        Disjoint(((1, p2),))  # a bare action, not a tuple of factors
    with pytest.raises(ValueError, match="product factors must be atomic actions"):
        Disjoint(((1, (p2, Disjoint(()))),))
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        Disjoint(((0, (p2,)),))
    for read in (fixed_dim, underlying_variety):
        with pytest.raises(TypeError, match="^not an action node: "):
            read(PAtom(2))


def test_underlying_variety():
    g = CharacterGroup.cyclic(2)
    assert str(underlying_variety(generator_action(5, g))) == "H(2,4)"
    node = Disjoint(((1, (construct_action(PAtom(2), g), generator_action(5, g))),))
    assert str(underlying_variety(node)) == "P(2)*H(2,4)"
    # every generator action sits on the standard generator variety
    for p in (2, 3, 5):
        for q in (p, p * p):
            g = CharacterGroup.cyclic(q)
            for i in range(1, 41):
                if not pt.in_np(i, p):
                    continue
                act = generator_action(i, g)
                assert underlying_variety(act) == VExpr(((1, (generator_atom(i, p),)),)), (p, q, i)
                assert fixed_dim(act) == i // q, (p, q, i)


def test_interned_atoms_match_fresh_records():
    # the soundness pool: every action the fixed-locus and realize checks build
    ctx: list = []
    acceptance.check_fixed_locus_formulas(ctx)
    acceptance.check_realize_achieves(ctx)
    assert len(ctx) > 1000
    for action, _ in ctx:
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


NON_CYCLIC = [(2, 2), (2, 4), (3, 3), (2, 2, 2), (3, 9), (5, 5), (2, 2, 4)]


@pytest.mark.parametrize("factors", NON_CYCLIC)
def test_realize_keeps_its_contract_on_non_cyclic_groups(factors):
    # evidence that the natural actions reach dim_q for non-cyclic G too, not
    # a proof that dim_q is the least fixed dimension there; every other class
    # gets a generator of weight q to q + 8, so that dim_q is positive for q > 16
    G = CharacterGroup(factors)
    p, q = G.p, G.q
    rng = random.Random(sum(factors))
    fam = standard_generators(p)
    heavy = [i for i in range(q, q + 9) if pt.in_np(i, p)]
    positive = 0
    for k in range(30):
        gp = random_gen_poly(rng, p, 16)
        if k % 2:
            gp = gp + GenPoly(p, {(rng.choice(heavy),): rng.randrange(1, p)})
        x = evaluate_gen_poly(gp, fam)
        action, achieved = realize(x, G)
        assert achieved == dim_q_direct(x, q), (factors, x)
        assert chern_numbers(underlying_variety(action), p) == x, (factors, x)
        positive += achieved > 0
    assert positive >= 15, factors


def test_realize_rejections():
    g2 = CharacterGroup.cyclic(2)
    with pytest.raises(NotInLp):
        realize(BPoly(2, {(1,): 1}), g2)
    with pytest.raises(ValueError):
        realize(BPoly(2, {(2,): 1}), CharacterGroup.cyclic(3))
    with pytest.raises(ValueError):
        realize(BPoly(2, {(2,): 1}), g2, perturbed_family(2, 5))
    # a plain family over the perturbed generators is still not the standard family
    impostor = GeneratorFamily(2, perturbed_family(2, 5).generator)
    with pytest.raises(ValueError, match="realize needs the standard family"):
        realize(chern_numbers("P(4)*P(2) + P(6)", 2), g2, impostor)


def test_action_to_json_shapes():
    g = CharacterGroup.cyclic(2)
    blob = action_to_json(construct_action(PAtom(2), g))
    assert json.dumps(blob) == '{"type": "P", "weights": [[0], [0], [1]]}'
    h = action_to_json(generator_action(5, g))
    assert h["type"] == "H" and len(h["V"]) == 3 and len(h["W"]) == 5
    action, _ = realize(chern_numbers("P(4)", 2), g)
    nested = action_to_json(action)
    assert nested["type"] == "Disjoint"
    assert {part["action"]["type"] for part in nested["parts"]} == {"Product"}
    json.dumps(nested)  # serializable all the way down


def assert_renders_as_json_dumps(action, achieved=None):
    """render_json writes the CLI's text line and its --json payload as json.dumps does."""
    tree = action_to_json(action)
    assert render_json(action) == json.dumps(tree, sort_keys=True)
    shown = None if achieved == NEG_INF else achieved
    assert render_json({"achievedDim": shown, "action": action}, 2) == json.dumps(
        {"achievedDim": shown, "action": tree}, sort_keys=True, indent=2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("power", [1, 2])
def test_render_json_matches_json_dumps_on_realized_actions(p, power):
    G = CharacterGroup.cyclic(p**power)
    fam = standard_generators(p)
    rng = random.Random(100 * p + power)
    for _ in range(12):
        x = evaluate_gen_poly(random_gen_poly(rng, p, 16, max_terms=6), fam)
        assert_renders_as_json_dumps(*realize(x, G))


def test_render_json_matches_json_dumps_on_the_heaviest_cli_action():
    # realize -p 3 -q 3 "H(4,19)": 141 parts over a few interned factors
    action, achieved = realize(chern_numbers("H(4,19)", 3), CharacterGroup.cyclic(3))
    assert len(action.parts) == 141
    assert_renders_as_json_dumps(action, achieved)


@pytest.mark.parametrize("factors", NON_CYCLIC)
def test_render_json_matches_json_dumps_on_non_cyclic_groups(factors):
    G = CharacterGroup(factors)
    rng = random.Random(sum(factors))
    fam = standard_generators(G.p)
    for _ in range(6):
        x = evaluate_gen_poly(random_gen_poly(rng, G.p, 12), fam)
        assert_renders_as_json_dumps(*realize(x, G))
    for atom in (PAtom(0), PAtom(5), HAtom(0, 0), HAtom(1, 1), HAtom(2, 7)):
        assert_renders_as_json_dumps(construct_action(atom, G))


def test_render_json_matches_json_dumps_on_hand_built_nodes():
    G = CharacterGroup((2, 4))
    a, h = construct_action(PAtom(3), G), construct_action(HAtom(2, 5), G)
    twin = PAct(tuple(a.weights))  # equal to a, built apart
    for action in (
        Disjoint(()),
        Disjoint(((1, ()),)),  # the empty product
        Disjoint(((5, (a,)), (2, (h, a, h))),),  # multiplicities above 1, a factor twice in one product
        Disjoint(((1, (a, a, a)), (3, (twin, h)), (1, (h,)))),  # factors repeated across parts
        a,
        h,
    ):
        assert_renders_as_json_dumps(action, fixed_dim(action))
    # one factor at two depths, and scalars, lists and empty containers around the action nodes
    mixed = {"z": [a, {"deep": [h, a]}], "action": Disjoint(((1, (a, h)),)), "a": a, "empty": [], "none": {},
             "n": 0, "t": True, "s": "x\u00e9"}
    plain = {k: action_to_json(v) if isinstance(v, (PAct, HAct, Disjoint)) else v for k, v in mixed.items()}
    plain["z"] = [action_to_json(a), {"deep": [action_to_json(h), action_to_json(a)]}]
    for indent in (None, 2, 4):
        assert render_json(mixed, indent) == json.dumps(plain, sort_keys=True, indent=indent)


@pytest.mark.parametrize("indent", [None, 2])
@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, object()], ids=("fraction", "set", "object"))
def test_render_json_refuses_what_json_dumps_refuses(value, indent):
    # the hook reads action nodes only: any other value is a TypeError, as in json.dumps, never a marker or output
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=indent)
    a = construct_action(PAtom(3), CharacterGroup.cyclic(2))
    for obj in (value, [value], {"action": a, "z": value}, [Disjoint(((1, (a,)),)), {"x": value}]):
        with pytest.raises(TypeError):
            render_json(obj, indent)
    with pytest.raises(TypeError, match="^not an action node: "):
        action_to_json(value)
