"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

The tests run in definition order and share one list of (action, group)
pairs, so the final soundness audit sees every action the earlier checks
constructed.  Each test delegates to the matching check in
cobordlab.acceptance; the CLI selftest runs the same battery.
"""

import hashlib
import json
import re

from cobordlab import acceptance, chow, cobordism

CTX: list = []


def _run(name, fn):
    ok, detail = fn(CTX)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_projective_four_class():
    _run("projective-4-class", acceptance.check_projective_four)


def test_02_projective_diagonal():
    _run("projective-diagonal", acceptance.check_projective_diagonal)


def test_03_milnor_diagonal():
    _run("milnor-diagonal", acceptance.check_milnor_diagonal)


def test_04_membership_witness():
    _run("membership-witness", acceptance.check_membership)


def test_05_dimq_equals_degq():
    _run("dimq-equals-degq", acceptance.check_dimq_matches_degq)


def test_06_realize_achieves_dimq():
    _run("realize-achieves-dimq", acceptance.check_realize_achieves)


def test_07_np_monomial_ratio():
    _run("np-monomial-ratio", acceptance.check_np_monomial_ratio)


def test_08_localization_identity():
    _run("localization-identity", acceptance.check_localization)


def test_09_dividing_polynomials():
    _run("dividing-polynomials", acceptance.check_dividing_polynomials)


def test_10_fixed_locus_formulas():
    _run("fixed-locus-formulas", acceptance.check_fixed_locus_formulas)


def test_11_divisibility_corollaries():
    _run("divisibility-corollaries", acceptance.check_divisibility_corollaries)


def test_12_action_soundness():
    # stays last: it audits the actions constructed by tests 06 and 10
    _run("action-soundness", acceptance.check_action_soundness)


def test_audit_pool_holds_every_constructed_action():
    # the fixed-locus check adds its 290 constructions; the realize check adds
    # each realized union and every atomic factor of its products
    ctx: list = []
    ok, detail = acceptance.check_fixed_locus_formulas(ctx)
    assert ok and detail.startswith("290 constructed actions "), detail
    assert acceptance.check_realize_achieves(ctx)[0]
    ok, detail = acceptance.check_action_soundness(ctx)
    assert ok and detail.startswith("781 distinct actions "), detail


# sha256 of [name, ok, detail] for the twelve checks of a fresh run_all, with
# the timing fields ("in 0ms", "in 0.1s") masked; it changes only when a
# count or verdict in a detail string does
SELFTEST_DIGEST = "345fce569975fd822d507027ebbb5c6a218633665ceea14ed1254c85b7f254df"
TIMING = re.compile(r"\bin \d+(?:\.\d+)?m?s\b")


def test_selftest_details_are_pinned():
    rows = [[r.name, r.ok, TIMING.sub("in <t>", r.detail)] for r in acceptance.run_all()]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SELFTEST_DIGEST, rows


def _shared_memo_terms():
    # the classes chern_numbers, product_class and evaluate_gen_poly hand out
    # without a copy: the product memo, atom classes included, and the standard monomials
    memos = {"product": chow._PRODUCT_CACHE}
    memos.update((f"monomial p={p}", fam._monomials) for p, fam in cobordism._STANDARD.items())
    # the stored packed terms themselves, not the tuple-keyed copy .terms returns
    return {(name, key): dict(cls.packed) for name, memo in memos.items() for key, cls in memo.items()}


def test_shared_memos_are_not_mutated_by_a_selftest_run():
    acceptance.run_all()
    before = _shared_memo_terms()
    rows = [[r.name, r.ok, TIMING.sub("in <t>", r.detail)] for r in acceptance.run_all()]
    after = _shared_memo_terms()
    # name the entries that changed: a diff of the whole memos is slow to print
    changed = [key for key in before.keys() | after.keys() if before.get(key) != after.get(key)]
    assert not changed, changed[:5]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SELFTEST_DIGEST, rows


def test_every_registered_check_is_covered():
    names = {
        "projective-4-class", "projective-diagonal", "milnor-diagonal",
        "membership-witness", "dimq-equals-degq", "realize-achieves-dimq",
        "np-monomial-ratio", "localization-identity", "dividing-polynomials",
        "fixed-locus-formulas", "divisibility-corollaries", "action-soundness",
    }
    assert {name for name, _ in acceptance.CHECKS} == names
