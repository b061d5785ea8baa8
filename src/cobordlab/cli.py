"""Command-line front end.

Subcommands: class, express, dimq, bound, realize, rho, localize, selftest.
Classes are entered either as variety expressions ("2.P(4)*H(2,4) + P(1)")
or in raw mode ("b[2]*b[1]^2 + b[4]"); raw mode is detected by the b[...]
syntax or a bare integer.  JSON output is deterministic: results depend on
flags only, and keys are emitted sorted.  --max-weight caps the input
class's weight (raw input defaults to 16); class keeps the products under it.

Exit codes: 0 ok, 1 usage or input error (or out of memory), 2 not in the
generator ring where membership is required, 3 internal assertion failure
(including a failing selftest).  Generators are built in memory as a request
needs them; the COBORDLAB_CACHE environment variable is ignored.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from types import SimpleNamespace

from .actions import CharacterGroup, action_to_json, realize
from .bounds import check_order, main_bound, milnor_divisibility_check, ratio_bound, small_fixed_divisibility
from .chow import Scanner, VExpr, chern_numbers, parse_variety, read_products, sums_to_zero
from .cobordism import (
    NotInLp,
    dim_q_direct,
    dim_q_via_generators,
    express_in_generators,
    perturbed_family,
    standard_generators,
)
from .equivariant import localization_check
from .fpring import NEG_INF, BPoly, format_bpoly, format_genpoly
from .partitions import check_prime, np_heads, rho_q

RAW_DEFAULT_WEIGHT = 16

# -- input parsing ----------------------------------------------------------


def parse_raw_bpoly(text: str, p: int, ceiling: int = RAW_DEFAULT_WEIGHT) -> BPoly:
    """Parse 'b[2]*b[1]^2 + b[4]' style input, including bare constants.

    Each term is held as its part multiplicities until the class's top
    weight is known, so a class above the weight ceiling is refused before
    any partition is written out.
    """
    tokens = Scanner(text)
    terms: dict = {}  # ((part, multiplicity), ...) largest part first -> coefficient
    while True:
        coeff = 1
        mults: Counter = Counter()
        while True:
            if tokens.peek() == "b[":
                tokens.take()
                part = tokens.uint()
                if part < 1:
                    raise ValueError("b[...] wants a positive integer index")
                tokens.take("]")
                exp = 1
                if tokens.peek() == "^":
                    tokens.take()
                    exp = tokens.uint()
                    if exp < 1:
                        raise ValueError("exponents are positive integers")
                mults[part] += exp
            else:
                coeff *= tokens.uint()
            if tokens.peek() != "*":
                break
            tokens.take()
        key = tuple(sorted(mults.items(), reverse=True))
        terms[key] = terms.get(key, 0) + coeff
        if tokens.peek() != "+":
            break
        tokens.take()
    tokens.end()
    check_prime(p)
    terms = {key: c for key, c in terms.items() if c % p}
    top = max((sum(part * e for part, e in key) for key in terms), default=NEG_INF)
    if top != NEG_INF and top > ceiling:
        raise ValueError(f"raw class weight {top} exceeds {ceiling}; raise --max-weight")
    return BPoly(p, {tuple(part for part, e in key for _ in range(e)): c for key, c in terms.items()})


def is_raw_input(text: str) -> bool:
    return "b[" in text or text.strip().isdigit()


def load_class(args, ceiling: bool = True) -> BPoly:
    """The input class, exact, from either input mode.

    --max-weight caps the class's top weight for raw input always, and for
    variety input when ceiling is set (class keeps the products at or under
    it).  chow reads the products and makes every other refusal first.
    """
    if args.max_weight is not None and args.max_weight < 0:
        raise ValueError(f"--max-weight must be nonnegative, got {args.max_weight}")
    text = args.input
    if is_raw_input(text):
        return parse_raw_bpoly(text, args.prime, RAW_DEFAULT_WEIGHT if args.max_weight is None else args.max_weight)
    expr, notes = parse_variety(text)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    p, top = args.prime, args.max_weight
    if top is not None:
        # F_p[b] has no zero divisors, so a product is homogeneous of its weight and only ties can cancel
        weights = read_products(expr.parts, p)  # weight -> sorted atoms -> summed multiplicity
        for w in sorted(weights, reverse=True) if ceiling else ():  # the heaviest weight that does not cancel
            if w > top and not sums_to_zero(weights[w], p):
                raise ValueError(f"class weight {w} exceeds {top}")
        expr = VExpr(tuple((m, atoms) for w, tied in weights.items() if w <= top for atoms, m in tied.items()))
    return chern_numbers(expr, p)


def make_family(args):
    spec = getattr(args, "family", "standard")
    m = re.fullmatch(r"perturbed\((\d+)\)", spec)
    if m:
        return perturbed_family(args.prime, int(m.group(1)))
    if spec != "standard":
        raise ValueError(f"unknown family {spec!r}; use standard or perturbed(SEED)")
    return standard_generators(args.prime)


def _json_dim(v):
    return None if v == NEG_INF else v


def _dim_text(v) -> str:
    return "-inf" if v == NEG_INF else str(v)


def emit(args, obj, text) -> None:
    """Print the answer as JSON under --json, as text otherwise.

    obj and text are zero-argument callables, so only the printed form is built.
    """
    print(json.dumps(obj(), sort_keys=True, indent=2) if args.json else text())


def _parse_int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(chunk) for chunk in text.split(",")]
    except ValueError:
        raise ValueError(f"expected a comma list of integers, got {text!r}") from None


# -- subcommands ------------------------------------------------------------


def cmd_class(args) -> int:
    x = load_class(args, ceiling=False)
    shown = None if is_raw_input(args.input) else args.max_weight  # the JSON's maxWeight
    emit(args, lambda: dict(x.to_json_dict(), maxWeight=shown), lambda: format_bpoly(x))
    return 0


def cmd_express(args) -> int:
    x = load_class(args)
    fam = make_family(args)
    res = express_in_generators(x, fam)
    if isinstance(res, NotInLp):
        emit(
            args,
            lambda: {"notInLp": {"p": res.p, "witness": list(res.witness)}},
            lambda: f"not a polynomial in the generators; witness c_{list(res.witness)}",
        )
        return 0
    emit(args, lambda: {"expression": res.to_json_dict()}, lambda: format_genpoly(res))
    return 0


def cmd_dimq(args) -> int:
    q = check_order(args.prime, args.order)
    x = load_class(args)
    fam = make_family(args)
    direct = dim_q_direct(x, q)
    via = dim_q_via_generators(x, q, fam)
    if direct != via:
        raise AssertionError(f"dimension disagreement: direct {direct}, via generators {via}")
    emit(
        args,
        lambda: {"direct": _json_dim(direct), "viaGenerators": _json_dim(via)},
        lambda: f"dim_{q} = {_dim_text(direct)} (direct) = {_dim_text(via)} (via generators)",
    )
    return 0


def cmd_bound(args) -> int:
    q = check_order(args.prime, args.order)
    x = load_class(args)
    fam = make_family(args)
    bound = main_bound(x, q)
    out: dict = {"main": _json_dim(bound)}
    lines = [f"main bound: {_dim_text(bound)}"]
    if args.indices is not None:
        A = _parse_int_list(args.indices)
        report = ratio_bound(x, A, args.parts, q, fam)
        out["ratio"] = report.to_json_dict()
        lines.append(f"ratio bound (A={A}, s={args.parts}): {_dim_text(report.bound)}"
                     + (" [hypothesis not met]" if report.certificate is None and not x.is_zero() else ""))
    if args.small_d is not None:
        verdict = small_fixed_divisibility(x, q, args.small_d, fam)
        out["smallFixed"] = verdict
        lines.append(f"small fixed-locus divisibility at d={args.small_d}: {verdict}")
    if args.milnor_d is not None:
        verdict = milnor_divisibility_check(x, args.milnor_d, fam)
        out["milnor"] = verdict
        lines.append(f"Milnor-generator divisibility at d={args.milnor_d}: {verdict}")
    emit(args, lambda: out, lambda: "\n".join(lines))
    return 0


def cmd_realize(args) -> int:
    q = check_order(args.prime, args.order)
    if q == 1:
        raise ValueError("order 1 is the trivial group, which fixes every point; realize needs q = p^k with k >= 1")
    x = load_class(args)
    fam = make_family(args)
    action, achieved = realize(x, CharacterGroup.cyclic(q), fam)
    tree = action_to_json(action)
    emit(
        args,
        lambda: {"achievedDim": _json_dim(achieved), "action": tree},
        lambda: f"achieved fixed dimension {_dim_text(achieved)}\n{json.dumps(tree, sort_keys=True)}",
    )
    return 0


def cmd_rho(args) -> int:
    q = check_order(args.prime, args.order)
    if (args.members is None) == (args.np_minus is None):
        raise ValueError("give exactly one of --members or --np-minus")
    if args.members is not None:
        members = _parse_int_list(args.members)
    else:
        members = np_heads(args.prime, q, frozenset(_parse_int_list(args.np_minus)))
    value = rho_q(members, q)
    emit(args, lambda: {"rho": str(value)}, lambda: f"rho_{q} = {value}")
    return 0


def cmd_localize(args) -> int:
    weights = tuple(_parse_int_list(args.weights))
    y = {(args.zeta, args.t): 1}
    lhs, rhs = localization_check(args.prime, weights, y, args.r)
    emit(args, lambda: {"lhs": lhs, "match": lhs == rhs, "rhs": rhs}, lambda: f"lhs {lhs}, rhs {rhs}")
    if lhs != rhs:
        raise AssertionError(f"localization mismatch: lhs {lhs} != rhs {rhs}")
    return 0


def cmd_selftest(args) -> int:
    # imported here: the checks load every module, which no other subcommand needs
    from . import acceptance

    results = acceptance.run_all()
    passed = sum(r.ok for r in results)

    def payload():
        rows = [{"name": r.name, "ok": r.ok, "seconds": r.seconds} | ({} if r.ok else {"detail": r.detail})
                for r in results]
        return {"checks": rows, "failed": len(results) - passed, "passed": passed}

    def text():
        lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.seconds:.1f}s): {r.detail}" for r in results]
        return "\n".join(lines + [f"{passed}/{len(results)} checks passed"])

    emit(args, payload, text)
    return 0 if passed == len(results) else 3


# -- wiring -----------------------------------------------------------------

# The grammar, one table read two ways: main reads a plain argv straight
# from it (read_argv), and build_parser builds the argparse parser from it
# for everything else, which is where help and usage errors come from.
# An option is (flags, dest, kind, default, required, help): no flags for
# the positional, kind a type callable, None for a string or STORE_TRUE.
STORE_TRUE = "store_true"
INPUT = ((), "input", None, None, True, "variety expression or raw b[...] class")
MAX_WEIGHT = (("--max-weight",), "max_weight", int, None, False,
              "weight ceiling (raw default 16); class filters by it")
PRIME = (("-p", "--prime"), "prime", int, None, True, "the prime p")
ORDER = (("-q", "--order"), "order", int, None, True, "group order, a power of p")
JSON = (("--json",), "json", STORE_TRUE, False, False, "machine-readable output")
FAMILY = (("--family",), "family", None, "standard", False, "standard or perturbed(SEED)")

# subcommand -> (handler, help, options in argparse's order)
COMMANDS = {
    "class": (cmd_class, "mod-p class of a variety expression", (INPUT, MAX_WEIGHT, PRIME, JSON)),
    "express": (cmd_express, "write a class in the polynomial generators",
                (INPUT, MAX_WEIGHT, PRIME, JSON, FAMILY)),
    "dimq": (cmd_dimq, "fixed-locus dimension invariant, both routes",
             (INPUT, MAX_WEIGHT, PRIME, ORDER, JSON, FAMILY)),
    "bound": (cmd_bound, "main/ratio/divisibility bounds", (
        INPUT, MAX_WEIGHT, PRIME, ORDER, JSON, FAMILY,
        (("--indices",), "indices", None, None, False, "comma list: indices spanned by the ratio-bound ideal"),
        (("--parts",), "parts", int, 0, False, "ratio bound part count s"),
        (("--small-d",), "small_d", int, None, False, "check small fixed-locus divisibility at this d"),
        (("--milnor-d",), "milnor_d", int, None, False, "check Milnor-generator divisibility at this d"),
    )),
    "realize": (cmd_realize, "construct an action achieving dim_q", (INPUT, MAX_WEIGHT, PRIME, ORDER, JSON, FAMILY)),
    "rho": (cmd_rho, "exact infimum of floor(i/q)/i over an index set", (
        PRIME, ORDER, JSON,
        (("--members",), "members", None, None, False, "comma list: a finite index set"),
        (("--np-minus",), "np_minus", None, None, False, "comma list: exclusions from N_p (may be empty)"),
    )),
    "localize": (cmd_localize, "fixed-point localization check on P(V)", (
        PRIME, JSON,
        (("--weights",), "weights", None, None, True, "comma list of character weights"),
        (("--zeta",), "zeta", int, 0, False, "zeta exponent of the monomial y"),
        (("--t",), "t", int, 0, False, "t exponent of the monomial y"),
        (("--r",), "r", int, 1, False, "evaluation residue (nonzero)"),
    )),
    "selftest": (cmd_selftest, "run the acceptance checks", (JSON,)),
}


def read_argv(argv):
    """The namespace argparse makes of argv, or None if argv is not plain.

    Plain: a subcommand first, then exact option spellings, each value a
    separate word that does not start with '-', and at most one positional,
    which does not start with '-' either, with every required option given.
    Values go through the table's type callables; a repeated option keeps
    its last value, as in argparse.  None sends argv to argparse, which
    reads it or prints the help or the usage error.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, options = COMMANDS[argv[0]]
    args = {"command": argv[0], "fn": fn}
    by_flag, positional, given = {}, None, set()
    for option in options:
        flags, dest, _, default, _, _ = option
        args[dest] = default
        by_flag.update(dict.fromkeys(flags, option))
        if not flags:
            positional = dest
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if positional is None or positional in given:
                return None
            dest, value = positional, word
        elif word in by_flag:
            _, dest, kind, _, _, _ = by_flag[word]
            if kind is STORE_TRUE:
                value = True
            else:
                value = next(words, "-")  # a missing value reads as a dash-led one
                if value.startswith("-"):
                    return None
                if kind is not None:
                    try:
                        value = kind(value)
                    except (TypeError, ValueError):
                        return None
        else:
            return None
        args[dest] = value
        given.add(dest)
    if any(required and dest not in given for _, dest, _, _, required, _ in options):
        return None
    return SimpleNamespace(**args)


def build_parser():
    """The argparse parser of the COMMANDS table, for what read_argv leaves to it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse exits with status 2 on usage errors; the contract says 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="cobordlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (fn, summary, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for flags, dest, kind, default, required, text in options:
            if not flags:
                sp.add_argument(dest, help=text)
            elif kind is STORE_TRUE:
                sp.add_argument(*flags, dest=dest, action=STORE_TRUE, help=text)
            else:
                sp.add_argument(*flags, dest=dest, type=kind, default=default, required=required, help=text)
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
    try:
        return args.fn(args)
    except NotInLp as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except AssertionError as e:
        print(f"internal assertion failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
