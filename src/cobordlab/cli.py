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

import argparse
import json
import re
import sys
from collections import Counter, defaultdict

from .actions import CharacterGroup, action_to_json, realize
from .bounds import check_order, main_bound, milnor_divisibility_check, ratio_bound, small_fixed_divisibility
from .chow import Scanner, VExpr, _atom_order, check_atom_cap, chern_numbers, parse_variety, product_weight
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
from .partitions import KEY_LIMIT, IndexSet, check_prime, rho_q

RAW_DEFAULT_WEIGHT = 16


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    it).  Atoms meet their cap, and products the ceiling, before any build.
    """
    if args.max_weight is not None and args.max_weight < 0:
        raise ValueError(f"--max-weight must be nonnegative, got {args.max_weight}")
    text = args.input
    if is_raw_input(text):
        return parse_raw_bpoly(text, args.prime, RAW_DEFAULT_WEIGHT if args.max_weight is None else args.max_weight)
    expr, notes = parse_variety(text)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for atom in (atom for _, atoms in expr.parts for atom in atoms):
        check_atom_cap(atom)
    p, top = args.prime, args.max_weight
    if top is not None:
        # F_p[b] has no zero divisors, so a product is homogeneous of its atoms' summed top weight and only
        # ties can cancel; read in the memo's atom order, a weight past the key limit is the build's refusal
        check_prime(p)
        parts = [(m, tuple(sorted(atoms, key=_atom_order))) for m, atoms in expr.parts]
        weighed = [(product_weight(atoms, p)[0], m, atoms) for m, atoms in parts]
        over = defaultdict(Counter)  # weight over the ceiling -> sorted atoms -> summed multiplicity
        for w, m, atoms in weighed:
            if top < w <= KEY_LIMIT:
                over[w][atoms] += m
        if ceiling and max(w for w, _, _ in weighed) <= KEY_LIMIT:
            for w in sorted(over, reverse=True):  # the heaviest weight whose products do not cancel
                tied = tuple((m, atoms) for atoms, m in over[w].items() if m % p)
                if len(tied) == 1 or tied and not chern_numbers(VExpr(tied), p).is_zero():
                    raise ValueError(f"class weight {w} exceeds {top}")
        expr = VExpr(tuple((m, atoms) for w, m, atoms in weighed if w not in over))
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
        index_set = IndexSet.finite(_parse_int_list(args.members))
    else:
        index_set = IndexSet.np_minus(args.prime, _parse_int_list(args.np_minus))
    value = rho_q(index_set, q)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="cobordlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, order=False, family=False, input_arg=True):
        if input_arg:
            sp.add_argument("input", help="variety expression or raw b[...] class")
            sp.add_argument("--max-weight", type=int, default=None,
                            help="weight ceiling (raw default 16); class filters by it")
        sp.add_argument("-p", "--prime", type=int, required=True, help="the prime p")
        if order:
            sp.add_argument("-q", "--order", type=int, required=True, help="group order, a power of p")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if family:
            sp.add_argument("--family", default="standard", help="standard or perturbed(SEED)")

    sp = sub.add_parser("class", help="mod-p class of a variety expression")
    common(sp)
    sp.set_defaults(fn=cmd_class)

    sp = sub.add_parser("express", help="write a class in the polynomial generators")
    common(sp, family=True)
    sp.set_defaults(fn=cmd_express)

    sp = sub.add_parser("dimq", help="fixed-locus dimension invariant, both routes")
    common(sp, order=True, family=True)
    sp.set_defaults(fn=cmd_dimq)

    sp = sub.add_parser("bound", help="main/ratio/divisibility bounds")
    common(sp, order=True, family=True)
    sp.add_argument("--indices", default=None, help="comma list: indices spanned by the ratio-bound ideal")
    sp.add_argument("--parts", type=int, default=0, help="ratio bound part count s")
    sp.add_argument("--small-d", type=int, default=None, help="check small fixed-locus divisibility at this d")
    sp.add_argument("--milnor-d", type=int, default=None, help="check Milnor-generator divisibility at this d")
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("realize", help="construct an action achieving dim_q")
    common(sp, order=True, family=True)
    sp.set_defaults(fn=cmd_realize)

    sp = sub.add_parser("rho", help="exact infimum of floor(i/q)/i over an index set")
    common(sp, order=True, input_arg=False)
    sp.add_argument("--members", default=None, help="comma list: a finite index set")
    sp.add_argument("--np-minus", default=None, help="comma list: exclusions from N_p (may be empty)")
    sp.set_defaults(fn=cmd_rho)

    sp = sub.add_parser("localize", help="fixed-point localization check on P(V)")
    common(sp, input_arg=False)
    sp.add_argument("--weights", required=True, help="comma list of character weights")
    sp.add_argument("--zeta", type=int, default=0, help="zeta exponent of the monomial y")
    sp.add_argument("--t", type=int, default=0, help="t exponent of the monomial y")
    sp.add_argument("--r", type=int, default=1, help="evaluation residue (nonzero)")
    sp.set_defaults(fn=cmd_localize)

    sp = sub.add_parser("selftest", help="run the acceptance checks")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
