"""Atom classes and variety expressions, checked against the reference Chow models and series engine."""

import hashlib
import itertools
import json
import random
from math import comb

import pytest
from reference import (
    STANDARD,
    AtomModel,
    KClass,
    atom_model,
    cf_series,
    class_from_tangent,
    reference_h_class,
    reference_product,
    reference_slice,
    series_inv,
    series_mul,
    series_one,
    tangent_kclass,
)

from cobordlab import chow
from cobordlab.chow import (
    _h_class,
    _inverse_power_slice,
    HAtom,
    PAtom,
    VExpr,
    atom_class,
    chern_numbers,
    make_h_atom,
    parse_variety,
    product_class,
)
from cobordlab.cobordism import generator_atom, standard_generators
from cobordlab.fpring import BPoly
from cobordlab.partitions import KEY_LIMIT, in_np


def test_model_caps_and_degree():
    model = AtomModel(3, (2,))
    h = model.var(0)
    assert model.power(h, 3) == model.zero()
    assert model.deg(model.monomial((2,), 2)) == 2
    assert model.deg(model.one()) == 0


def test_h_model_degree_multiplier():
    # deg on H(1,2) is deg on P^1 x P^2 against the (1,1) divisor class
    model = atom_model(HAtom(1, 2), 5)
    assert model.virtual_dim == 2
    x1_sq = model.monomial((0, 2), 1)
    assert model.deg(x1_sq) == 1
    assert model.deg(model.one()) == 0


def test_projective_closed_form_matches_engine():
    # the closed multinomial formula against the generic series engine
    for p in (2, 3, 5):
        for n in range(8):
            direct = atom_class(PAtom(n), p)
            engine = class_from_tangent(tangent_kclass(PAtom(n), p))
            assert direct == engine, (p, n)


def test_milnor_closed_form_matches_engine():
    # the closed form against the generic series engine, H(0,0) and H(0,m) included
    for p in (2, 3, 5):
        for n in range(7):
            for m in range(n, 7):
                direct = atom_class(HAtom(n, m), p)
                engine = class_from_tangent(tangent_kclass(HAtom(n, m), p))
                assert direct == engine, (p, n, m)


def test_digit_layer_slices_match_the_partition_walk():
    # the digit-layer enumeration against the full walk over partitions
    for p in (2, 3, 5, 7):
        for k in range(1, 31):
            for w in range(21):
                assert _inverse_power_slice(p, k, w) == reference_slice(p, k, w), (p, k, w)


def test_one_pass_milnor_class_matches_bpoly_products():
    for p in (2, 3, 5):
        for n in range(11):
            for m in range(n, 11):
                assert _h_class(p, n, m) == reference_h_class(p, n, m), (p, n, m)


@pytest.mark.parametrize(
    "p, w, digest",
    [
        (2, 28, "ef5fd38d4b67af1713d9981822f6222efccc208db9df16c11035032a45aaf544"),
        (3, 29, "4f995b8b7400b3605a74e3cc82e32391977122693efce7f286ec83a39ad360a5"),
        (5, 30, "613a6f45fad649fa8058e52daf6ac70418683dfcabf9394a1b135e2e1e30a5ef"),
    ],
)
def test_standard_generator_digest_is_pinned(p, w, digest):
    fam = standard_generators(p, w)
    blob = json.dumps({str(i): g.to_json_dict() for i, g in sorted(fam.gens.items()) if i <= w}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_milnor_degenerate_isomorphisms():
    # H(0,m) is a hyperplane P^{m-1}; H(1,1) is a (1,1) conic, again P^1
    for p in (2, 3):
        for m in range(1, 17):
            assert atom_class(HAtom(0, m), p) == atom_class(PAtom(m - 1), p), (p, m)
        assert atom_class(HAtom(1, 1), p) == atom_class(PAtom(1), p)


@pytest.mark.parametrize("p", (3, 5))
def test_milnor_classes_vanish_exactly_by_the_divisibility_rule(p):
    # a fact of the closed form over this range, not a theorem: at p = 2 the rule misses (2,2) and (4,4)
    for m in range(1, 17):
        for n in range(1, m + 1):
            rule = (n + 1) % p == 0 and (m + 1) % p == 0 or n == 1 and m % p == 0
            assert atom_class(HAtom(n, m), p).is_zero() == rule, (p, n, m)


def test_milnor_top_chern_number():
    # adjunction gives the single-part number of H(n,m): binom(n+m,n) for
    # n >= 2, zero for 1 = n < m, and -2 for the conic H(1,1)
    for p in (2, 3, 5):
        for n in range(1, 5):
            for m in range(n, 6):
                got = atom_class(HAtom(n, m), p).coefficient((n + m - 1,))
                if n >= 2:
                    want = comb(n + m, n) % p
                elif m > 1:
                    want = 0
                else:
                    want = -2 % p
                assert got == want, (p, n, m)
    # every hypersurface generator up to weight 24 has n >= 2
    for p in (2, 3):
        for i in range(1, 25):
            if not in_np(i, p):
                continue
            atom = generator_atom(i, p)
            if isinstance(atom, HAtom):
                want = comb(atom.n + atom.m, atom.n) % p
                assert want and atom_class(atom, p).coefficient((i,)) == want, (p, i, atom)


def test_product_class_matches_two_variable_model():
    # BPoly multiplicativity vs a genuine rank-2 Chow computation
    for p in (2, 3):
        for a in range(1, 4):
            for b in range(a, 4):
                model = AtomModel(p, (a, b), None, a + b)
                tangent = KClass(model, ((a + 1, (1, 0)), (b + 1, (0, 1))), -2)
                assert class_from_tangent(tangent) == chern_numbers(f"P({a})*P({b})", p)


def test_chern_numbers_disjoint_union_adds():
    p = 3
    twice = chern_numbers("P(2) + P(2)", p)
    assert twice == atom_class(PAtom(2), p).scale(2)
    assert chern_numbers("2.P(2)", p) == twice


def test_chern_numbers_accepts_many_input_forms():
    x = chern_numbers("H(2,4)", 2)
    expr, _ = parse_variety("H(2,4)")
    assert chern_numbers(expr, 2) == x
    assert chern_numbers(VExpr(((1, (HAtom(2, 4),)),)), 2) == x


def test_point_class_is_one():
    assert chern_numbers("P(0)", 5) == BPoly.one(5)


def test_parse_variety_roundtrip():
    text = "2.P(4)*H(2,4) + P(1)"
    expr, notes = parse_variety(text)
    assert notes == []
    assert str(expr) == text
    assert expr.parts[0][0] == 2
    assert str(VExpr(())) == "0"


def test_an_explicit_multiplicity_one_is_the_bare_term():
    expr, _ = parse_variety("1.P(4)")
    assert expr == parse_variety("P(4)")[0]
    assert chern_numbers(expr, 3) == chern_numbers("P(4)", 3)


def test_a_product_of_weight_exactly_the_key_limit_is_built():
    x = chern_numbers("P(62)*P(62)*P(62)*P(58)*H(4,8)", 2)
    assert x.top_weight() == KEY_LIMIT and len(x.packed) == 360


def test_parse_variety_normalizes_h():
    expr, notes = parse_variety("H(4,2)")
    assert notes == ["H(4,2) normalized to H(2,4)"]
    assert expr.parts[0][1] == (HAtom(2, 4),)


def test_parse_variety_rejects_garbage():
    for bad in ["P(2", "Q(1)", "P(2)!", "0.P(1)", "P()", "", "P(2)*", "H(2)"]:
        with pytest.raises(ValueError):
            parse_variety(bad)


def test_make_h_atom_swaps():
    atom, swapped = make_h_atom(4, 2)
    assert atom == HAtom(2, 4) and swapped
    atom, swapped = make_h_atom(2, 4)
    assert atom == HAtom(2, 4) and not swapped
    with pytest.raises(ValueError):
        HAtom(4, 2)
    for a, b in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="^H indices must be nonnegative$"):
            make_h_atom(a, b)


def test_cf_series_whitney_product():
    model = AtomModel(2, (3,))
    e = KClass(model, ((2, (1,)),), 0)
    f = KClass(model, ((1, (1,)),), 1)
    both = KClass(model, ((2, (1,)), (1, (1,))), 1)
    lhs = cf_series(both, STANDARD, 3)
    rhs = series_mul(model, cf_series(e, STANDARD, 3), cf_series(f, STANDARD, 3), 3)
    assert lhs == rhs


def test_cf_class_values_and_length_vanishing():
    # tangent of P^2: c_(2) = 3h^2, and partitions longer than the line count vanish
    tangent = tangent_kclass(PAtom(2), 5)
    model = tangent.model
    assert cf_series(tangent, STANDARD, 2)[(2,)] == model.monomial((2,), 3)
    assert (1, 1, 1, 1) not in cf_series(tangent, STANDARD, 4)


def test_series_inverse():
    model = AtomModel(3, (3,))
    h = model.var(0)
    s = {(): model.one(), (1,): h, (2,): model.power(h, 2)}
    inv = series_inv(model, s, 3)
    assert series_mul(model, s, inv, 3) == series_one(model)
    with pytest.raises(ValueError):
        series_inv(model, {(1,): h}, 3)


def test_kclass_rank_negate():
    t = tangent_kclass(PAtom(3), 2)
    assert t.rank() == 3
    assert t.negate().rank() == -3


@pytest.mark.parametrize("p", (2, 3, 5))
def test_product_memo_matches_bpoly_products(p, monkeypatch):
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    P2, H24 = atom_class(PAtom(2), p), atom_class(HAtom(2, 4), p)
    want = P2 * H24
    assert want == H24 * P2
    for text in ("P(2)*H(2,4)", "H(2,4)*P(2)"):
        assert chern_numbers(text, p) == want  # the first call fills the memo
        assert chern_numbers(text, p) == want
    # one entry serves both factor orders; the two atoms hold one-atom entries of their own
    assert sorted(len(atoms) for _, atoms in chow._PRODUCT_CACHE) == [1, 1, 2]
    assert chern_numbers("2.P(2)*H(2,4) + H(2,4)*P(2)", p) == want.scale(3)
    for atom in (PAtom(2), HAtom(2, 4)):  # an atom's class is its one-atom product, one memo entry
        assert atom_class(atom, p) is product_class((atom,), p)


# atoms of dimension at most 6, so that six of them multiply out quickly in
# each of up to 720 orders
SMALL_ATOMS = (*(PAtom(n) for n in range(7)), *(HAtom(n, m) for m in range(8) for n in range(m + 1) if n + m <= 7))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_product_class_matches_left_to_right_products_in_every_order(p, monkeypatch):
    # a new product is the memoized product of its sorted prefix times the
    # last atom; whatever order fills the memo, every order reads the same class
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    assert product_class((), p) == BPoly.one(p)
    # F_p[b] has no zero divisors, so products of nonzero classes stay nonzero
    pool = [atom for atom in SMALL_ATOMS if not atom_class(atom, p).is_zero()]
    rng = random.Random(1700 + p)
    for size in range(7):
        for _ in range(2):
            atoms = [rng.choice(pool) for _ in range(size)]
            for order in dict.fromkeys(itertools.permutations(atoms)):
                assert product_class(order, p) == reference_product(order, p), (p, order)
    assert product_class((HAtom(0, 0), PAtom(2)), p).is_zero()  # H(0,0) is empty
    assert product_class([], p) == BPoly.one(p)


def test_a_cold_product_reads_each_atom_class_once_and_memoizes_each_sorted_prefix(monkeypatch):
    p = 3
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    calls = []
    read = chow.atom_class

    def counted(atom, p):
        calls.append(atom)
        return read(atom, p)

    monkeypatch.setattr(chow, "atom_class", counted)
    atoms = (HAtom(2, 4), PAtom(3), HAtom(1, 3), PAtom(1), PAtom(2), HAtom(2, 2))
    assert product_class(atoms, p) == reference_product(atoms, p)
    ordered = tuple(sorted(atoms, key=chow._atom_order))
    assert calls == list(ordered)
    # each sorted prefix once, and each atom's one-atom entry
    assert chow._PRODUCT_CACHE.keys() == {(p, ordered[:i]) for i in range(2, 7)} | {(p, (atom,)) for atom in atoms}
    assert product_class((), p) == BPoly.one(p) and len(chow._PRODUCT_CACHE) == 11  # the empty product is not stored


def test_read_products_adds_the_atom_weights_until_a_zero_atom_or_the_key_limit(monkeypatch):
    p = 3
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    parts = [(1, (PAtom(64),) * 3), (2, (PAtom(64), PAtom(2), PAtom(1))), (1, (PAtom(1), PAtom(64), PAtom(2)))]
    # P(2) is zero mod 3, and equal products are merged under their sorted atoms
    want = {192: {(PAtom(64),) * 3: 1}, float("-inf"): {(PAtom(1), PAtom(2), PAtom(64)): 3}}
    assert chow.read_products(parts, p) == want
    # the key limit is refused at the first prefix past it, before any later class is read: not the
    # H(64,64) that sorts after the four P(64), nor the product after it
    reads, read = [], chow.atom_class
    monkeypatch.setattr(chow, "atom_class", lambda atom, p: reads.append(atom) or read(atom, p))
    with pytest.raises(ValueError, match="^product weight 256 exceeds the packed-key limit 255$"):
        chow.read_products([(1, (HAtom(64, 64),) + (PAtom(64),) * 4), (1, (PAtom(5),))], p)
    assert reads == [PAtom(64)] * 4
    # product_class checks no weight: a direct call past the limit meets BPoly.__mul__'s refusal
    with pytest.raises(ValueError, match="^product weight 256 exceeds the packed-key limit 255$"):
        product_class((PAtom(1),) * (KEY_LIMIT + 1), p)


def test_a_long_product_walks_only_its_non_unit_atoms_and_at_most_key_limit_of_them(monkeypatch):
    p = 3
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    atoms = (PAtom(0),) * 50 + (HAtom(0, 1), PAtom(4), PAtom(1))
    assert product_class(atoms, p) == reference_product((PAtom(1), PAtom(4)), p)
    ordered = tuple(sorted(atoms, key=chow._atom_order))
    one_atom = {(p, (atom,)) for atom in set(atoms)}
    assert chow._PRODUCT_CACHE.keys() == one_atom | {(p, (PAtom(1), PAtom(4))), (p, ordered)}
    # a zero product stores its prefixes up to KEY_LIMIT + 1 atoms, then the product
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    assert product_class((PAtom(2),) * 1000, p).is_zero()
    assert len(chow._PRODUCT_CACHE) == 1 + KEY_LIMIT + 1
    # its first zero atom is among them: P(2) is zero mod 3, after 255 atoms of weight 1
    assert product_class((PAtom(1),) * KEY_LIMIT + (PAtom(2),) * 1000, p).is_zero()
    assert product_class((PAtom(1),) * KEY_LIMIT, p) == reference_product((PAtom(1),) * KEY_LIMIT, p)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_a_products_leading_term_is_read_from_its_atoms_leading_terms(p):
    # packed keys add with no carry, so the largest key of a product is the sum of its atoms' largest
    # keys, and its coefficient is the product of theirs; sums_to_zero reads a tie from these alone
    pool = [atom for atom in SMALL_ATOMS if not atom_class(atom, p).is_zero()]
    rng = random.Random(3100 + p)
    by_weight: dict = {}
    for _ in range(40):
        atoms = tuple(sorted((rng.choice(pool) for _ in range(rng.randint(2, 3))), key=chow._atom_order))
        built = product_class(atoms, p).packed
        lead = max(built)
        assert lead == sum(max(atom_class(atom, p).packed) for atom in atoms), (p, atoms)
        coeff = 1
        for atom in atoms:
            packed = atom_class(atom, p).packed
            coeff *= packed[max(packed)]
        assert built[lead] == coeff % p != 0, (p, atoms)
        by_weight.setdefault(product_class(atoms, p).top_weight(), []).append(atoms)
    ties = [atoms for atoms in by_weight.values() if len(set(atoms)) > 1]
    assert ties
    for atoms in ties:
        tied = {a: rng.randint(1, 2 * p) for a in atoms}
        want = chern_numbers(VExpr(tuple((m, a) for a, m in tied.items())), p).is_zero()
        assert chow.sums_to_zero(tied, p) == want, (p, tied)


def test_sums_to_zero_builds_only_a_tie_whose_leading_terms_cancel(monkeypatch):
    # [H(2,3)] = [P(2)]^2 at p = 2 and [H(1,4)] = [P(1)*P(3)] at p = 3: equal leading terms
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    products = []
    mul = BPoly.__mul__
    monkeypatch.setattr(BPoly, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    assert chow.sums_to_zero({(PAtom(1), PAtom(3)): 1, (HAtom(1, 4),): 1}, 3) is False
    assert chow.sums_to_zero({(PAtom(1), PAtom(3)): 3}, 3) is True  # a multiplicity 0 mod p holds no term
    assert products == []  # read from the leading terms alone
    assert chow.sums_to_zero({(PAtom(1), PAtom(3)): 2, (HAtom(1, 4),): 1}, 3) is True
    assert chow.sums_to_zero({(PAtom(2), PAtom(2)): 1, (HAtom(2, 3),): 1}, 2) is True
    assert len(products) == 2  # each cancelling tie builds its one product of two atoms


@pytest.mark.parametrize("text, want, read_first", [
    # the caps are checked before any class is read
    ("P(64)*P(64)*P(64) + P(65)", "^weight 65 exceeds cap 64$", []),
    ("P(64)*P(64)*P(64) + P(64)*P(64)*P(64)*P(64)", "^product weight 256 exceeds the packed-key limit 255$",
     [PAtom(64)] * 7),
], ids=("atom-cap", "key-limit"))
def test_chern_numbers_refuses_a_later_product_before_building_an_earlier_one(text, want, read_first, monkeypatch):
    # the heavy product comes first in parse order; every product the memo misses is read before any build
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    reads, products = [], []
    read, mul = chow.atom_class, BPoly.__mul__
    monkeypatch.setattr(chow, "atom_class", lambda atom, p: reads.append(atom) or read(atom, p))
    monkeypatch.setattr(BPoly, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    with pytest.raises(ValueError, match=want):
        chern_numbers(text, 3)
    assert (products, reads) == ([], read_first)


def test_chern_numbers_checks_the_prime():
    with pytest.raises(ValueError, match="not prime"):
        chern_numbers("P(2)*P(2)", 4)
