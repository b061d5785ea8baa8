"""Command-line behaviour: parsing, exit codes, deterministic JSON."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from reference import reference_parse_raw_bpoly, subprocess_env

from cobordlab import chow, cli
from cobordlab.cli import is_raw_input, load_class, main, parse_raw_bpoly
from cobordlab.cobordism import standard_generators
from cobordlab.fpring import BPoly, format_bpoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_limited(argv, cpu_seconds, address_space=None):
    """Run the CLI in a subprocess under RLIMIT_CPU of cpu_seconds and, if given, RLIMIT_AS of address_space bytes."""
    resource = pytest.importorskip("resource")

    def limit():
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))

    return subprocess.run([sys.executable, "-m", "cobordlab.cli", *argv], env=subprocess_env(),
                          capture_output=True, text=True, timeout=30, preexec_fn=limit)


def test_class_text_output(capsys):
    code, out, _ = run(capsys, "class", "P(4)", "-p", "2")
    assert code == 0
    assert out.strip() == "1*b[4] + 1*b[2]^2 + 1*b[2]*b[1]^2"


def test_class_json_output(capsys):
    code, out, _ = run(capsys, "class", "P(4)", "-p", "2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["p"] == 2 and blob["maxWeight"] is None
    assert [t["partition"] for t in blob["terms"]] == [[4], [2, 2], [2, 1, 1]]


def test_dimq_json(capsys):
    code, out, _ = run(capsys, "dimq", "P(4)", "-p", "2", "-q", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"direct": 2, "viaGenerators": 2}


def test_express_witness_json(capsys):
    code, out, _ = run(capsys, "express", "b[2]*b[1]^2", "-p", "2", "--json")
    assert code == 0  # reporting non-membership is a successful run
    assert json.loads(out) == {"notInLp": {"p": 2, "witness": [4]}}


def test_express_member_text(capsys):
    code, out, _ = run(capsys, "express", "b[2]^2", "-p", "2")
    assert code == 0
    assert out.strip() == "1*X[2]^2"


def test_dimq_requires_membership(capsys):
    code, _, err = run(capsys, "dimq", "b[2]*b[1]^2", "-p", "2", "-q", "2")
    assert code == 2
    assert "c_(4)" in err


def test_realize_json(capsys):
    code, out, _ = run(capsys, "realize", "b[2]", "-p", "2", "-q", "2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["achievedDim"] == 1
    assert blob["action"]["type"] == "Disjoint"


def test_bound_report(capsys):
    code, out, _ = run(
        capsys, "bound", "P(4)", "-p", "2", "-q", "2",
        "--indices", "", "--parts", "0", "--small-d", "1", "--milnor-d", "2", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["main"] == 2
    assert blob["ratio"]["bound"] == 2 and blob["ratio"]["certificate"] == [4]
    # q = 2 has no parts of index <= q-2 = 0, so the weight cannot hide at d = 1
    assert blob["smallFixed"] is False
    assert blob["milnor"] is True  # need ceil((12-14)/15) <= 0: vacuous
    # d violating the n >= (2q-1)d precondition is a usage error, not False
    assert run(capsys, "bound", "P(4)", "-p", "2", "-q", "2", "--small-d", "2")[0] == 1


def test_rho_outputs(capsys):
    code, out, _ = run(capsys, "rho", "-p", "2", "-q", "2", "--np-minus", "")
    assert code == 0 and out.strip() == "rho_2 = 2/5"
    code, out, _ = run(capsys, "rho", "-p", "3", "-q", "3", "--members", "6,8", "--json")
    assert code == 0 and json.loads(out) == {"rho": "1/4"}
    code, _, _ = run(capsys, "rho", "-p", "2", "-q", "2")
    assert code == 1  # one of the two index-set flags is required
    code, _, _ = run(capsys, "rho", "-p", "2", "-q", "2", "--members", "4", "--np-minus", "")
    assert code == 1


def test_rho_stops_at_a_ratio_of_zero(capsys):
    # q = 2^20 has more residues than the scan limit, but the first member already has ratio 0
    assert run(capsys, "rho", "-p", "2", "-q", "1048576", "--np-minus", "") == (0, "rho_1048576 = 0\n", "")
    code, out, _ = run(capsys, "bound", "-p", "2", "-q", "1048576", "P(4)", "--indices", "")
    assert code == 0
    assert "main bound: 0\n" in out and "ratio bound (A=[], s=0): 0\n" in out


REALIZE_LARGE_ORDER = [
    (["-p", "2", "-q", "1073741824", "P(4)"], '"weights": [[0], [1], [2], [3], [4]]'),
    (["-p", "3", "-q", "3486784401", "H(3,6)"], '"V": [[0], [1], [2], [3]]'),
    # a large prime p: the prime of q is its root of highest order, so no divisor of q is searched for
    (["-p", "2147483647", "-q", "2147483647", "P(4)"], '"weights": [[0], [1], [2], [3], [4]]'),
    (["-p", "2147483647", "-q", "4611686014132420609", "P(4)"], '"weights": [[0], [1], [2], [3], [4]]'),
]


@pytest.mark.parametrize("argv, weights", REALIZE_LARGE_ORDER, ids=("2^30", "3^20", "p", "p^2"))
def test_realize_with_a_large_order_lists_only_the_characters_it_uses(argv, weights):
    proc = run_limited(["realize", *argv], 5, address_space=1 << 30)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    first, action = proc.stdout.splitlines()
    assert first == "achieved fixed dimension 0"
    assert weights in action


def test_dimq_at_a_prime_near_2_62_answers_at_once():
    # -p is tested by Miller-Rabin; trial division up to its square root never returned
    p = str(2**62 - 57)
    proc = run_limited(["dimq", "-p", p, "-q", p, "P(4)"], 2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "dim_4611686018427387847 = 0 (direct) = 0 (via generators)\n", "")


def test_a_p_above_the_exact_primality_bound_is_refused_at_once():
    # 2^89 - 1 is prime; trial division up to its square root never returned
    p = 2**89 - 1
    proc = run_limited(["express", "-p", str(p), "P(4)"], 2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", (
        f"error: cannot decide whether {p} is prime: the exact test covers only numbers below 3317044064679887385961981\n"))


@pytest.mark.parametrize("argv, want", [
    (["express", "-p", "2", "P(64)*P(64)*P(64)*P(64)*P(65)"], (1, "", "error: weight 65 exceeds cap 64\n")),
    (["dimq", "-p", "3", "-q", "3", "P(64)*P(64)*P(64) + 2.P(2)*H(70,3)"],
     (1, "", "note: H(70,3) normalized to H(3,70)\nerror: weight 70 exceeds cap 64\n")),
    # weight 319, but P(63) is zero mod 2 and the product memo meets it first
    (["express", "-p", "2", "P(64)*P(64)*P(64)*P(64)*P(63)"], (0, "0\n", "")),
], ids=("P-atom", "H-atom", "zero-product"))
def test_atoms_over_the_cap_are_refused_right_after_the_parse(argv, want):
    proc = run_limited(argv, 2)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize("argv, want", [
    # H(3,64) is an atom under the cap, but its expression needs X[66], whose variety P(66) is over it
    (["express", "-p", "3", "H(3,64)"], "error: weight 66 exceeds cap 64\n"),
    (["dimq", "-p", "3", "-q", "3", "H(3,64)"], "error: weight 66 exceeds cap 64\n"),
    (["realize", "-p", "3", "-q", "3", "H(3,64)"], "error: weight 66 exceeds cap 64\n"),
    (["express", "-p", "3", "H(30,40)"], "error: weight 69 exceeds cap 64\n"),
    # the witness search enumerates the N_2-partitions of the class's weight 65
    (["express", "-p", "2", "--max-weight", "100", "b[31]*b[31]*b[3]"], "error: weight 65 exceeds cap 64\n"),
], ids=("express-generator", "dimq-generator", "realize-generator", "H(30,40)", "witness-search"))
def test_generators_and_witness_searches_stop_at_the_cap(argv, want):
    proc = run_limited(argv, 2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", want)


@pytest.mark.parametrize("argv", [
    ["express", "-p", "3", "P(64)*P(64)*P(64)*P(64)"],
    ["dimq", "-p", "3", "-q", "3", "2.P(64)*P(64)*P(64)*P(64) + P(2)"],
    # every product is read before the first is built, whatever the parse order
    ["express", "-p", "3", "P(64)*P(64)*P(64) + P(64)*P(64)*P(64)*P(64)"],
], ids=("express", "dimq", "after-a-heavy-product"))
def test_products_past_the_key_limit_are_refused_before_they_are_multiplied(argv):
    # the prefix weights add up from the atom classes; building P(64)^3 first took over 20 s
    # (the zero-product case above keeps its answer: its zero atom comes first)
    proc = run_limited(argv, 2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: product weight 256 exceeds the packed-key limit 255\n")


@pytest.mark.parametrize("argv, want", [
    (["express", "-p", "3", "--max-weight", "100", "P(64)*P(64)*P(64)"], (1, "", "error: class weight 192 exceeds 100\n")),
    # the heavier product has a multiplicity 0 mod 3, so P(64)^3 holds the top weight
    (["dimq", "-p", "3", "-q", "3", "--max-weight", "100",
      "2.P(64)*P(64)*P(64) + P(2) + 3.P(64)*P(64)*P(64)*P(10)"], (1, "", "error: class weight 192 exceeds 100\n")),
    # a zero atom makes the product zero, whatever the weight of the others
    (["express", "-p", "2", "--max-weight", "100", "P(64)*P(64)*P(64)*P(64)*P(63)"], (0, "0\n", "")),
    (["express", "-p", "3", "--max-weight", "10", "P(20)*H(3,6) + P(2)*P(29)"], (0, "0\n", "")),
    # equal products merge into one of multiplicity 2, so no product is multiplied
    (["express", "-p", "3", "--max-weight", "100", "P(64)*P(64)*P(64) + P(64)*P(64)*P(64)"],
     (1, "", "error: class weight 192 exceeds 100\n")),
    (["express", "-p", "3", "--max-weight", "100", "P(64)*P(1)*P(64)*P(64) + P(64)*P(64)*P(64)*P(1)"],
     (1, "", "error: class weight 193 exceeds 100\n")),
    # the zero atom P(63) comes first in the product memo's order, so this product is zero, not past the
    # key limit, and P(50) holds the top weight
    (["express", "-p", "2", "--max-weight", "10", "P(64)*P(64)*P(64)*P(64)*P(63) + P(50)"],
     (1, "", "error: class weight 50 exceeds 10\n")),
    # the key limit is refused before the ceiling
    (["express", "-p", "3", "--max-weight", "100", "P(64)*P(64)*P(64)*P(64) + P(64)*P(64)*P(64)"],
     (1, "", "error: product weight 256 exceeds the packed-key limit 255\n")),
    # class keeps the products at or under the ceiling, and one past the key limit is still refused
    (["class", "-p", "3", "--max-weight", "10", "P(64)*P(64)*P(64) + P(4)"], (0, "1*b[4] + 1*b[1]^4\n", "")),
    (["class", "-p", "3", "--max-weight", "10", "P(64)*P(64)*P(64)*P(64) + P(4)"],
     (1, "", "error: product weight 256 exceeds the packed-key limit 255\n")),
    # distinct products tied at the top weight are summed; these do not cancel
    (["express", "-p", "2", "--max-weight", "3", "P(2)*P(2) + P(4)"], (1, "", "error: class weight 4 exceeds 3\n")),
    # [H(2,3)] = [P(2)]^2 at p = 2 and [H(1,4)] = [P(1)*P(3)] at p = 3: the tie cancels, the next weight decides
    (["express", "-p", "2", "--max-weight", "3", "H(2,3) + P(2)*P(2) + P(2)"], (0, "1*X[2]\n", "")),
    (["express", "-p", "3", "--max-weight", "3", "H(1,4) + 2.P(1)*P(3) + P(1)"], (0, "1*X[1]\n", "")),
    # distinct products tied at weight 192 whose leading keys differ are refused from the atoms' leading terms
    (["express", "-p", "3", "--max-weight", "100", "P(64)*P(64)*P(64) + P(64)*P(64)*H(1,64)"],
     (1, "", "error: class weight 192 exceeds 100\n")),
], ids=("product", "sum", "zero-product", "zero-sum", "equal-products", "equal-products-any-order",
        "zero-product-and-heavy-term", "key-limit-first", "class", "class-key-limit", "tie",
        "cancelling-tie-p2", "cancelling-tie-p3", "tie-by-leading-terms"))
def test_max_weight_refuses_a_class_before_it_is_built(argv, want):
    # the products' weights come from the atom classes; building P(64)^3 first took over 20 s,
    # and building a tie of two weight-192 products took over 4 GB
    proc = run_limited(argv, 2, address_space=1 << 30)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize("atom, want", [("P(0)", "1\n"), ("P(1)", "0\n")], ids=("point", "zero-atom"))
def test_a_product_of_many_weight_0_or_zero_atoms_gets_an_answer(atom, want):
    # the prefix walk skips unit atoms and stops at KEY_LIMIT atoms, so a long product costs linear time
    proc = run_limited(["class", "-p", "2", "*".join([atom] * 20000)], 2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_realize_of_a_product_of_many_points_and_p4(capsys, monkeypatch):
    monkeypatch.setattr(chow, "_PRODUCT_CACHE", {})
    code, out, err = run(capsys, "realize", "-p", "2", "-q", "2", "*".join(["P(0)"] * 1200 + ["P(4)"]))
    assert (code, out.splitlines()[0], err) == (0, "achieved fixed dimension 2", "")


def test_a_request_that_runs_out_of_memory_prints_one_error_line():
    # H(40,50)'s expression builds generator classes far past 256 MiB
    proc = run_limited(["express", "-p", "2", "H(40,50)"], 20, address_space=256 << 20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


def _traced_peak_of_a_second_run(argv):
    """tracemalloc's peak over a second main(argv), stdout to /dev/null, after a warm-up run."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # warm-up: builds the generators and fills the memos
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_realize_renders_its_action_once():
    # each distinct factor is encoded once and spliced into its 141 parts: no
    # tree of the whole action and no string per printed integer (60 KB out)
    peak = _traced_peak_of_a_second_run(["realize", "-p", "3", "-q", "3", "H(4,19)"])
    assert peak < 500_000, peak


def test_realize_renders_its_json_action_once():
    # the same splice at indent 2, where json.dumps falls back to its Python encoder (365 KB out)
    peak = _traced_peak_of_a_second_run(["realize", "-p", "3", "-q", "3", "H(4,19)", "--json"])
    assert peak < 1_300_000, peak


def test_localize(capsys):
    code, out, _ = run(capsys, "localize", "-p", "2", "--weights", "0,1", "--zeta", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"lhs": 1, "match": True, "rhs": 1}
    code, _, _ = run(capsys, "localize", "-p", "3", "--weights", "0,1,2", "--zeta", "2", "--r", "2")
    assert code == 0
    code, _, _ = run(capsys, "localize", "-p", "2", "--weights", "0,1", "--r", "0")
    assert code == 1


def test_localize_reports_a_mismatch_as_an_internal_assertion(capsys, monkeypatch):
    monkeypatch.setattr(cli, "localization_check", lambda p, weights, y, r: (0, 1))
    assert run(capsys, "localize", "-p", "2", "--weights", "0,1") == (
        3, "lhs 0, rhs 1\n", "internal assertion failed: localization mismatch: lhs 0 != rhs 1\n")


# (exit code, stdout, stderr) of localize at its input limits: p is checked before any
# arithmetic mod p, and the monomial zeta^a t^b needs a, b >= 0
LOCALIZE_LIMITS = {
    ("-p", "0", "--zeta", "1"): (1, "", "error: 0 is not prime\n"),
    ("-p", "1", "--zeta", "1"): (1, "", "error: 1 is not prime\n"),
    ("-p", "4", "--zeta", "1"): (1, "", "error: 4 is not prime\n"),
    ("-p", "2", "--zeta", "-1"): (1, "", "error: exponents of y must be nonnegative\n"),
    ("-p", "2", "--t", "-1"): (1, "", "error: exponents of y must be nonnegative\n"),
}


@pytest.mark.parametrize("argv", list(LOCALIZE_LIMITS), ids="".join)
def test_localize_input_limits(capsys, argv):
    assert run(capsys, "localize", "--weights", "0,1", *argv) == LOCALIZE_LIMITS[argv]


@pytest.mark.parametrize("argv, text", [
    (["bound", "-p", "2", "-q", "2", "P(4)", "--indices"], "1,"),
    (["localize", "-p", "2", "--weights"], "0,,1"),
    (["rho", "-p", "2", "-q", "2", "--members"], "a"),
    (["rho", "-p", "2", "-q", "2", "--np-minus"], "3,x"),
], ids=("indices", "weights", "members", "np-minus"))
def test_a_malformed_integer_list_is_an_input_error(capsys, argv, text):
    assert run(capsys, *argv, text) == (1, "", f"error: expected a comma list of integers, got {text!r}\n")


@pytest.mark.parametrize("argv", [
    ["rho", "-p", "2", "-q", "2", "--np-minus", "-1"],
    ["rho", "-p", "2", "-q", "2", "--np-minus", "0"],
    ["rho", "-p", "3", "-q", "9", "--np-minus", "2,0", "--json"],
    ["bound", "-p", "2", "-q", "2", "--indices", "-3", "P(4)"],
    ["bound", "-p", "2", "-q", "2", "P(8)", "--indices", "2,0", "--parts", "1", "--json"],
], ids=("np-minus-negative", "np-minus-zero", "np-minus-list", "indices-negative", "indices-list"))
def test_a_non_positive_index_is_an_input_error(capsys, argv):
    # an exclusion from N_p or a ratio-bound index below 1 names no generator index
    assert run(capsys, *argv) == (1, "", "error: index sets contain positive integers only\n")


def test_the_index_refusal_comes_where_the_list_is_read(capsys):
    # the refusals made before the list is read keep their place
    assert run(capsys, "rho", "-p", "4", "-q", "2", "--np-minus", "0") == (1, "", "error: 4 is not prime\n")
    assert run(capsys, "rho", "-p", "2", "-q", "2", "--members", "4", "--np-minus", "0") == (
        1, "", "error: give exactly one of --members or --np-minus\n")
    assert run(capsys, "bound", "-p", "2", "-q", "3", "P(4)", "--indices", "0") == (
        1, "", "error: order 3 is not a power of the prime 2\n")
    # character weights are residues, not indices: 0 stays valid there
    assert run(capsys, "localize", "-p", "2", "--weights", "0,0,1") == (0, "lhs 0, rhs 0\n", "")


def test_usage_errors(capsys):
    assert run(capsys, "class", "P(4)")[0] == 1  # missing -p
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "class", "P(", "-p", "2")[0] == 1
    assert run(capsys, "class", "b[0]", "-p", "2")[0] == 1
    assert run(capsys, "dimq", "P(4)", "-p", "2", "-q", "3")[0] == 1  # 3 not a power of 2
    assert run(capsys, "express", "P(4)", "-p", "2", "--family", "bogus")[0] == 1


# -- the argv reader against argparse -----------------------------------------

# values that the reader and argparse both read, per option kind
PLAIN_VALUES = {
    int: ("0", "2", "3", "17", "+5", " 9"),
    None: ("P(4)", "2.P(4)*H(2,4) + P(1)", "b[2]*b[1]^2", "", "0,1", "perturbed(1)", "standard", "x y"),
}
# argv forms the reader leaves to argparse; "repeat" is the one it reads
REFUSED_FORMS = ("abbreviation", "equals", "joined", "double-dash", "negative", "help", "unknown-option",
                 "unknown-command", "missing-required", "extra-positional", "bad-int", "missing-value")


def _plain_groups(rng, name):
    """A plain argv for subcommand name as word groups: every required option, some others, the positional anywhere."""
    groups, positional = [], None
    for flags, _, kind, _, required, _ in cli.COMMANDS[name][2]:
        if not flags:
            positional = [rng.choice(PLAIN_VALUES[None])]
        elif required or rng.random() < 0.5:
            groups.append([rng.choice(flags)] + ([] if kind is cli.STORE_TRUE else [rng.choice(PLAIN_VALUES[kind])]))
    rng.shuffle(groups)
    if positional is not None:
        groups.insert(rng.randint(0, len(groups)), positional)
    return groups


def _mutated(rng, name, form):
    """A plain argv of subcommand name changed into the given form, or None where the form does not apply."""
    options = cli.COMMANDS[name][2]
    groups = _plain_groups(rng, name)
    valued = [o for o in options if o[0] and o[2] is not cli.STORE_TRUE]
    ints = [o for o in valued if o[2] is int]
    required = [o for o in options if o[4]]
    at = rng.randint(0, len(groups))
    if form == "repeat":
        flags, _, kind, _, _, _ = rng.choice([o for o in options if o[0]])
        extra = [rng.choice(flags)] + ([] if kind is cli.STORE_TRUE else [rng.choice(PLAIN_VALUES[kind])])
    elif form == "abbreviation":
        long = [f for o in options for f in o[0] if f.startswith("--") and len(f) > 3]
        flag = rng.choice(long)
        extra = [flag[:rng.randint(3, len(flag) - 1)]] + ([] if flag == "--json" else ["2"])
    elif form == "equals" and valued:
        flags, _, kind, _, _, _ = rng.choice(valued)
        extra = [f"{flags[-1]}={rng.choice(PLAIN_VALUES[kind])}"]
    elif form == "joined":
        extra = [rng.choice(("-p2", "-p3", "-q4"))]
    elif form == "double-dash":
        extra = ["--"] + ([rng.choice(PLAIN_VALUES[None])] if rng.random() < 0.5 else [])
    elif form == "negative" and ints:
        extra = [rng.choice(rng.choice(ints)[0]), rng.choice(("-1", "-2"))]
    elif form == "help":
        extra = [rng.choice(("-h", "--help"))]
    elif form == "unknown-option":
        extra = [rng.choice(("--bogus", "-x", "--cache"))] + (["2"] if rng.random() < 0.5 else [])
    elif form == "unknown-command":
        return [rng.choice(("nosuch", "Class", "expres", "dim", "-p", ""))] + [w for g in groups for w in g]
    elif form == "missing-required" and required:
        dropped = rng.choice(required)[0]  # no flags: the positional, the one group not led by a dash
        groups = [g for g in groups if (g[0] not in dropped if dropped else g[0].startswith("-"))]
        at, extra = 0, []
    elif form == "extra-positional":  # a second one, or one where the subcommand takes none
        extra = [rng.choice(PLAIN_VALUES[None])]
    elif form == "bad-int" and ints:
        extra = [rng.choice(rng.choice(ints)[0]), rng.choice(("x", "2.0", "", "0x10"))]
    elif form == "missing-value" and valued:
        groups.append([rng.choice(rng.choice(valued)[0])])
        extra = []
    else:
        return None
    groups.insert(at, extra)
    return [name] + [w for g in groups for w in g]


def _argparse_vars(parser, argv):
    """vars() of argparse's namespace for argv, or None where argparse exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_the_argv_reader_agrees_with_argparse_or_leaves_argv_to_it():
    # a seeded corpus over all eight subcommands: the reader returns None or
    # exactly the namespace argparse makes; every plain argv is read, every
    # other form is left to argparse, which reads some of them itself
    parser = cli.build_parser()
    rng = random.Random(34)
    forms, fallback_read = set(), 0
    for name in cli.COMMANDS:
        for _ in range(40):
            argv = [name] + [w for g in _plain_groups(rng, name) for w in g]
            args = cli.read_argv(argv)
            assert args is not None and vars(args) == _argparse_vars(parser, argv), argv
            argv = _mutated(rng, name, "repeat")
            assert vars(cli.read_argv(argv)) == _argparse_vars(parser, argv), argv
            for form in REFUSED_FORMS:
                argv = _mutated(rng, name, form)
                if argv is None:
                    continue
                assert cli.read_argv(argv) is None, (form, argv)
                forms.add(form)
                fallback_read += _argparse_vars(parser, argv) is not None
    for argv in ([], ["-h"], ["--help"], ["--json"], ["class"], ["selftest", "--json", "--json"]):
        args = cli.read_argv(argv)
        assert args is None or vars(args) == _argparse_vars(parser, argv), argv
    assert forms == set(REFUSED_FORMS)
    assert fallback_read > 100  # abbreviations, --opt=value, -p2 and negative values that argparse reads


def test_the_reader_reads_every_golden_argv():
    from test_cli_golden import GOLDEN

    parser = cli.build_parser()
    for text in GOLDEN:
        argv = shlex.split(text)
        args = cli.read_argv(argv)
        assert args is not None and vars(args) == _argparse_vars(parser, argv), text


def _perfbench_worker():
    """perfbench/worker.py as a module, with sys.path as it was before its import."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_the_reader_reads_every_benchmark_request(tmp_path, monkeypatch):
    # one round of the benchmark's CLI requests, built by its own prepare,
    # which runs each through cli.main: here the reader alone reads them
    worker = _perfbench_worker()
    parser = cli.build_parser()
    seen = []

    def read_only(argv):
        args = cli.read_argv(argv)
        assert args is not None and vars(args) == _argparse_vars(parser, argv), argv
        seen.append(argv[0])
        return 0

    monkeypatch.setattr(worker, "import_checked", importlib.import_module)
    monkeypatch.setattr(cli, "make_family", cli.make_family)  # prepare replaces it
    monkeypatch.setattr(cli, "main", read_only)
    worker.prepare(1, len(worker.CLI_SLOTS), str(tmp_path / "requests.json"))
    assert sorted(seen) == sorted(slot[3] for slot in worker.CLI_SLOTS)


def test_raw_parser():
    assert parse_raw_bpoly("b[2]*b[1]^2 + b[4]", 2) == BPoly(2, {(2, 1, 1): 1, (4,): 1})
    assert parse_raw_bpoly("3", 5) == BPoly(5, {(): 3})
    assert parse_raw_bpoly("2*b[3]", 5) == BPoly(5, {(3,): 2})
    assert parse_raw_bpoly("b[1]*b[1]", 3) == BPoly(3, {(1, 1): 1})
    # output format parses back in
    assert parse_raw_bpoly("1*b[4] + 1*b[2]^2", 2) == BPoly(2, {(4,): 1, (2, 2): 1})
    for bad in ["b[2]^0", "b[2] + ", "b[1]b[2]", "b[]", "b [2]", "b[2]]", "2*", "+", ""]:
        with pytest.raises(ValueError):
            parse_raw_bpoly(bad, 2)


def _raw_strings(rng: random.Random, count: int):
    """Valid raw classes, strings over the raw alphabet, and one-character mutations of valid ones."""
    alphabet = "b[]^*+ 0123456789P(."

    def valid():
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [str(rng.randint(0, 12))] if rng.random() < 0.3 else []
            for _ in range(rng.randint(0 if factors else 1, 3)):
                exp = f"^{rng.randint(1, 4)}" if rng.random() < 0.4 else ""
                factors.append(f"b[{rng.randint(1, 9)}]{exp}")
            terms.append(rng.choice(["*", " * "]).join(factors))
        return rng.choice(["+", " + "]).join(terms) + rng.choice(["", " "])

    for _ in range(count):
        text = valid()
        yield text
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        i = rng.randrange(len(text) + 1)
        yield text[:i] + rng.choice(["", *alphabet]) + text[i + 1:]


def _parsed_terms(parse, text):
    try:
        return parse(text, 5, 40).terms
    except ValueError:
        return ValueError


def test_raw_parser_matches_its_own_tokenizer_reference():
    texts = list(_raw_strings(random.Random(2024), 2000))
    outcomes = [_parsed_terms(parse_raw_bpoly, text) for text in texts]
    assert outcomes == [_parsed_terms(reference_parse_raw_bpoly, text) for text in texts]
    accepted = sum(o is not ValueError for o in outcomes)
    assert 1000 < accepted < len(texts) - 1000, accepted  # both outcomes are well represented


def test_variety_may_end_in_whitespace(capsys):
    assert run(capsys, "class", "-p", "2", "P(4) ") == run(capsys, "class", "-p", "2", "P(4)") == (
        0, "1*b[4] + 1*b[2]^2 + 1*b[2]*b[1]^2\n", "")
    code, out, err = run(capsys, "class", "-p", "2", "H(4,2) ")
    assert (code, err) == (0, "note: H(4,2) normalized to H(2,4)\n")
    assert out == run(capsys, "class", "-p", "2", "H(2,4)")[1]


def test_is_raw_input():
    assert is_raw_input("b[4]")
    assert is_raw_input(" 12 ")
    assert not is_raw_input("P(4)")
    assert not is_raw_input("2.P(4)")


def test_raw_weight_ceiling(capsys):
    assert run(capsys, "class", "b[17]", "-p", "2")[0] == 1
    code, out, _ = run(capsys, "class", "b[17]", "-p", "2", "--max-weight", "17")
    assert code == 0 and out.strip() == "1*b[17]"
    # the ceiling applies to the class's top weight, after terms cancel mod p
    assert run(capsys, "class", "b[1]^20 + b[1]^20 + b[2]", "-p", "2") == (0, "1*b[2]\n", "")


@pytest.mark.parametrize(
    "text, result",
    [
        ("b[1]^1000000", (1, "", "error: raw class weight 1000000 exceeds 16; raise --max-weight\n")),
        ("0*b[1]^1000000 + b[2]", (0, "1*X[2]\n", "")),  # a term that vanishes mod p is dropped unexpanded
    ],
)
def test_raw_exponent_is_never_expanded_past_the_ceiling(capsys, text, result):
    # the weight is read off (index, exponent), so no million-part partition is built
    tracemalloc.start()
    try:
        got = run(capsys, "express", "-p", "2", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == result
    assert peak < 1_000_000, peak


def test_atom_weight_cap(capsys):
    # atoms above the cap are refused at once; a product of atoms below it is not
    assert run(capsys, "class", "-p", "5", "P(65)") == (1, "", "error: weight 65 exceeds cap 64\n")
    assert run(capsys, "class", "-p", "5", "H(3,65)") == (1, "", "error: weight 65 exceeds cap 64\n")
    code, out, _ = run(capsys, "class", "-p", "2", "P(40)*P(30)")
    assert code == 0 and out.startswith("1*b[40]*b[30] + ")


def test_packed_key_weight_limit(capsys):
    # classes are stored under packed keys that hold weights up to 255
    code, out, _ = run(capsys, "class", "-p", "2", "*".join(["P(2)"] * 127))
    assert code == 0 and out == "1*b[2]^127\n"
    assert run(capsys, "class", "-p", "2", "*".join(["P(2)"] * 130)) == (
        1, "", "error: product weight 256 exceeds the packed-key limit 255\n")
    assert run(capsys, "class", "-p", "2", "b[1]^256", "--max-weight", "256") == (
        1, "", "error: weight 256 exceeds the packed-key limit 255\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["dimq", "P(4)"],
        ["bound", "P(4)"],
        ["realize", "P(4)"],
        ["rho", "--np-minus", ""],
    ],
)
def test_order_must_be_a_power_of_p(capsys, argv):
    assert run(capsys, *argv, "-p", "2", "-q", "6") == (1, "", "error: order 6 is not a power of the prime 2\n")


def test_realize_refuses_the_trivial_group(capsys):
    # 1 = p^0 is an order dimq and bound accept, but no character group has it
    assert run(capsys, "dimq", "P(4)", "-p", "3", "-q", "1")[:2] == (0, "dim_1 = 4 (direct) = 4 (via generators)\n")
    code, out, err = run(capsys, "realize", "P(4)", "-p", "3", "-q", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: order 1 is the trivial group") and "invariant factor" not in err


RAW_CEILING = (1, "", "error: raw class weight 17 exceeds 16; raise --max-weight\n")
NOT_A_MEMBER = (2, "", "error: not in the mod-2 generator ring; obstruction at c_(1)\n")
ZERO_CLASS = {
    "class": (0, "0\n", ""),
    "express": (0, "0\n", ""),
    "dimq": (0, "dim_2 = -inf (direct) = -inf (via generators)\n", ""),
    "bound": (0, "main bound: -inf\n", ""),
    "realize": (0, 'achieved fixed dimension -inf\n{"parts": [], "type": "Disjoint"}\n', ""),
}
# (exit code, stdout, stderr) of each class subcommand at the documented input limits, p = q = 2
INPUT_LIMITS = {
    "b[17]": dict.fromkeys(ZERO_CLASS, RAW_CEILING),  # above the raw ceiling, no --max-weight
    "H(0,0)": ZERO_CLASS,  # the empty hypersurface
    "2.P(1)": ZERO_CLASS,  # 2 * [P^1] = -4 b[1], zero mod 2
    "b[2]+b[1]": {  # mixed weights, and b[1] is not in the generator ring
        "class": (0, "1*b[1] + 1*b[2]\n", ""),
        "express": (0, "not a polynomial in the generators; witness c_[1]\n", ""),
        "dimq": NOT_A_MEMBER,
        "bound": (0, "main bound: 1\n", ""),
        "realize": NOT_A_MEMBER,
    },
}


@pytest.mark.parametrize("command", list(ZERO_CLASS))
@pytest.mark.parametrize("text", list(INPUT_LIMITS))
def test_documented_input_limits(capsys, command, text):
    order = ["-q", "2"] if command in ("dimq", "bound", "realize") else []
    assert run(capsys, command, text, "-p", "2", *order) == INPUT_LIMITS[text][command]


def test_expression_truncation(capsys):
    code, out, _ = run(capsys, "class", "P(4)", "-p", "2", "--max-weight", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["maxWeight"] == 3 and blob["terms"] == []


@pytest.mark.parametrize("command", ["class", "express", "dimq", "bound", "realize"])
@pytest.mark.parametrize("text", ["P(4)", "b[4]"])
def test_negative_max_weight_is_an_input_error(capsys, command, text):
    order = ["-q", "2"] if command in ("dimq", "bound", "realize") else []
    argv = [command, text, "-p", "2", *order, "--max-weight", "-1"]
    assert run(capsys, *argv) == (1, "", "error: --max-weight must be nonnegative, got -1\n")


@pytest.mark.parametrize("command", ["express", "dimq", "bound", "realize"])
def test_max_weight_caps_variety_input(capsys, command):
    # the same ceiling as for raw input; class filters by it instead (test_expression_truncation)
    order = ["-q", "2"] if command != "express" else []
    argv = [command, "P(8)", "-p", "2", *order, "--max-weight"]
    assert run(capsys, *argv, "7") == (1, "", "error: class weight 8 exceeds 7\n")
    assert run(capsys, *argv, "8")[0] == 0
    # a class that vanishes mod p has no weight to cap
    assert run(capsys, command, "2.P(1)", "-p", "2", *order, "--max-weight", "0")[0] == 0


def _small_variety_sums(rng, p, count):
    """Seeded sums of one to four products of one to three atoms of weight at most 8, as parse strings.

    Products repeat in shuffled atom order, multiplicities reach p (zero mod p), a product may tie with
    its twin (an atom swapped for one of the same weight: H(n,m) for P(n+m-1), P(n) for H(2,n-1)), and
    at p = 2 and 3 a pair of distinct products with equal classes is mixed in with cancelling multiplicities.
    """
    atoms = [f"P({n})" for n in range(9)] + [f"H({n},{m})" for m in range(1, 10) for n in range(m + 1) if n + m <= 9]
    twin = {f"H({n},{m})": f"P({n + m - 1})" for n in range(1, 9) for m in range(n, 10 - n)}
    twin.update({f"P({n})": f"H(2,{n - 1})" for n in range(3, 9)})
    cancelling = {2: ("H(2,3)", "P(2)*P(2)"), 3: ("H(1,4)", "P(1)*P(3)")}
    for _ in range(count):
        pool = [rng.choices(atoms, k=rng.randint(1, 3)) for _ in range(3)]
        products = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        swap = next((i for i, atom in enumerate(products[0]) if atom in twin), None)
        if swap is not None and rng.random() < 0.5:
            products.append(products[0][:swap] + [twin[products[0][swap]]] + products[0][swap + 1:])
        parts = [f"{rng.randint(1, p)}.{'*'.join(rng.sample(product, len(product)))}" for product in products]
        if p in cancelling and rng.random() < 0.5:
            extra, m = rng.choice(atoms), rng.randint(1, p - 1)
            parts += [f"{m}.{extra}*{cancelling[p][0]}", f"{p - m}.{extra}*{cancelling[p][1]}"]
        yield " + ".join(parts)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_max_weight_from_the_products_matches_the_built_class(capsys, p):
    # differential against build-then-check: a refusing subcommand refuses exactly the ceilings below the
    # built class's top weight, naming it, and class prints exactly the built class's terms under the ceiling
    for text in _small_variety_sums(random.Random(30 + p), p, 40):
        full = chow.chern_numbers(text, p)
        top = full.top_weight()
        for ceiling in range(max(top, 0) + 2):
            args = argparse.Namespace(input=text, prime=p, max_weight=ceiling)
            if top > ceiling:
                with pytest.raises(ValueError, match=rf"^class weight {top} exceeds {ceiling}$"):
                    load_class(args)
            else:
                assert load_class(args) == full, (text, ceiling)
            shown = BPoly(p, {alpha: c for alpha, c in full.terms.items() if sum(alpha) <= ceiling})
            want = (0, format_bpoly(shown) + "\n", "")
            assert run(capsys, "class", "-p", str(p), "--max-weight", str(ceiling), text) == want, (text, ceiling)


def test_h_swap_note_on_stderr(capsys):
    code, out_a, err = run(capsys, "class", "H(4,2)", "-p", "2")
    assert code == 0 and "normalized" in err
    _, out_b, _ = run(capsys, "class", "H(2,4)", "-p", "2")
    assert out_a == out_b


def test_a_tampered_cache_file_changes_no_answer(capsys, tmp_path, monkeypatch):
    # a file in the old cache format whose weight-4 generator lost its b[2]^2 term
    fam = standard_generators(2, max_index=4)
    gens = {str(i): fam.generator(i).to_json_dict() for i in (2, 4)}
    gens["4"]["terms"] = [t for t in gens["4"]["terms"] if t["partition"] != [2, 2]]
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps({"version": 1, "p": 2, "maxWeight": 4, "generators": gens}))
    before = cache.read_bytes()
    monkeypatch.setenv("COBORDLAB_CACHE", str(cache))
    assert run(capsys, "express", "P(4)", "-p", "2") == (0, "1*X[4]\n", "")
    monkeypatch.delenv("COBORDLAB_CACHE")
    # --cache is not an option: a usage error like any unknown one
    code, out, err = run(capsys, "express", "P(4)", "-p", "2", "--cache", str(cache))
    assert (code, out) == (1, "") and f"error: unrecognized arguments: --cache {cache}\n" in err
    assert cache.read_bytes() == before


def test_an_unwritable_cache_path_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("COBORDLAB_CACHE", "/dev/null/x")
    assert run(capsys, "express", "P(40)", "-p", "2") == (0, "1*X[40]\n", "")
    code, out, err = run(capsys, "express", "P(40)", "-p", "2", "--cache", "/dev/null/x")
    assert (code, out) == (1, "") and "error: unrecognized arguments: --cache /dev/null/x\n" in err


@pytest.mark.parametrize("argv", [["express", "P(6)*P(4)"], ["dimq", "-q", "4", "P(8)"]])
def test_a_run_writes_nothing_under_home(tmp_path, argv):
    env = subprocess_env(HOME=str(tmp_path))
    env.pop("COBORDLAB_CACHE", None)
    proc = subprocess.run([sys.executable, "-m", "cobordlab.cli", *argv, "-p", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    blob = json.loads(out)
    assert code == 0
    assert blob["failed"] == 0 and blob["passed"] == 12
    assert len(blob["checks"]) == 12
    assert all(row["ok"] and "detail" not in row for row in blob["checks"])
    assert all(isinstance(row["seconds"], float) and row["seconds"] >= 0 for row in blob["checks"])
    names = [row["name"] for row in blob["checks"]]
    assert names[0] == "projective-4-class" and names[-1] == "action-soundness"


def _crash(ctx):
    raise RuntimeError("boom")


# one check that passes, one that fails and one that raises
THREE_CHECKS = (
    ("passes", lambda ctx: (True, "fine")),
    ("fails", lambda ctx: (False, "off by one")),
    ("raises", _crash),
)


def test_selftest_reports_failing_and_crashing_checks(capsys, monkeypatch):
    from cobordlab import acceptance

    monkeypatch.setattr(acceptance, "CHECKS", THREE_CHECKS)
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (3, "")
    assert re.sub(r" \(\d+\.\ds\):", " (<t>):", out) == (
        "PASS passes (<t>): fine\n"
        "FAIL fails (<t>): off by one\n"
        "FAIL raises (<t>): crashed: RuntimeError('boom')\n"
        "1/3 checks passed\n"
    )

    code, out, err = run(capsys, "selftest", "--json")
    assert (code, err) == (3, "")
    blob = json.loads(out)
    assert all(isinstance(row.pop("seconds"), float) for row in blob["checks"])
    assert blob == {
        "checks": [
            {"name": "passes", "ok": True},
            {"name": "fails", "ok": False, "detail": "off by one"},
            {"name": "raises", "ok": False, "detail": "crashed: RuntimeError('boom')"},
        ],
        "failed": 2,
        "passed": 1,
    }
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_contract_check_survives_optimize_flag():
    # under python -O a bare assert vanishes; the dimq cross-check must still exit 3
    script = (
        "import sys\n"
        "import cobordlab.cli as cli\n"
        "cli.dim_q_via_generators = lambda x, q, fam=None: -7\n"
        "sys.exit(cli.main(['dimq', 'P(4)', '-p', '2', '-q', '2']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "dimension disagreement" in proc.stderr
    assert proc.stdout == ""
