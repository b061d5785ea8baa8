"""Child processes of the benchmark; each imports the checkout's cobordlab.

    worker.py setup WORKLOAD CACHE_DIR
    worker.py prepare SEED COUNT OUT            CLI inputs and their expected output
    worker.py session SEED SECONDS LIMIT TRACE OUT
    worker.py selftest TRACE OUT

Each mode writes one JSON document (to OUT, or to stdout for setup).  The
times a mode reports are scaled CPU seconds (refclock.py) from the first
probe of its Ticker on; for a selftest the parent adds the rest of the
process (interpreter start-up, the worker's own imports, exit), scaled by
its own probes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import refclock  # noqa: E402
from rss import peak_rss_mb  # noqa: E402

CLI_TOP = 24  # hot caches are filled to this weight
# One round of CLI requests: (top weight, first term a large hypersurface,
# prime, command, q = p^2).  The seed draws the expressions and the order;
# the rest is fixed, so every round costs about the same.  The slots form
# cost groups, and each reported percentile falls inside a group rather
# than between two (an odd count keeps the median off a boundary).  Cold,
# by generator weight: 2 light (w 12), 1 (p = 2, w 18), 6 middle (p = 2,
# w 20-22 and p = 3, w 18) holding the median, 4 (p = 3, w 20) holding
# the tail, 2 heaviest.  Hot, by input class: 9 cheap slots holding the
# median, 5 with a large hypersurface holding the tail, and the p = 3
# H(4,19) realization.
CLI_SLOTS = (
    (12, False, 2, "express", False),
    (12, False, 3, "dimq", True),
    (18, False, 2, "realize", False),
    (18, False, 3, "express", False),
    (20, False, 2, "dimq", True),
    (20, False, 2, "realize", False),
    (20, True, 2, "realize", False),
    (20, True, 2, "express", False),
    (22, True, 2, "dimq", True),
    (20, False, 3, "realize", True),
    (20, False, 3, "express", False),
    (20, True, 3, "dimq", False),
    (20, True, 3, "realize", True),
    (24, False, 2, "express", False),
    (22, True, 3, "realize", False),
)
SMALL_H = 8  # largest hypersurface dimension in the other slots
SESSION_TOP = 22  # generators built in session set-up
MEMBER_TOP = 20
WITNESS_WEIGHTS = {2: (18, 22), 3: (16, 20)}
MEMBERS_PER_WITNESS = 3
PRIMES = (2, 3)
DIGEST_OPS = 64  # session outputs hashed into the digest


def import_checked(name: str):
    """Import a cobordlab module and insist it is the checkout's copy."""
    module = __import__(name, fromlist=["_"])
    import cobordlab

    where = os.path.realpath(cobordlab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"cobordlab imported from {where}, not from {SRC}")
    return module


def write(path: str | None, obj) -> None:
    if path is None:
        print(json.dumps(obj))
    else:
        with open(path, "w") as fh:
            json.dump(obj, fh)


# -- set-up -----------------------------------------------------------------


def setup(workload: str, cache_dir: str) -> dict:
    """The set-up of a CLI or selftest run.

    The session sets up inside each of its own processes instead."""
    ticker = refclock.Ticker()
    if workload == "hot":
        cb = import_checked("cobordlab.cobordism")
        for p in PRIMES:
            cb.standard_generators(p, CLI_TOP, cache_path=os.path.join(cache_dir, f"p{p}.json"))
    elif workload == "cold":
        import_checked("cobordlab.cli")
    elif workload == "selftest":
        import_checked("cobordlab.acceptance")
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {"setup_s": ticker.scaled(ticker.stop())}


# -- CLI inputs -------------------------------------------------------------


def _atom(rng: random.Random, d: int) -> str:
    """P(d), or one time in three a Milnor hypersurface if d is small."""
    if 3 <= d <= SMALL_H and rng.random() < 1 / 3:
        n = rng.randint(2, (d + 1) // 2)
        return f"H({n},{d + 1 - n})"
    return f"P({d})"


def _term(rng: random.Random, d: int) -> str:
    if d >= 4 and rng.random() < 0.5:
        a = rng.randint(2, d - 2)
        atoms = f"{_atom(rng, a)}*{_atom(rng, d - a)}"
    else:
        atoms = _atom(rng, d)
    mult = rng.choice((1, 1, 1, 2))
    return atoms if mult == 1 else f"{mult}.{atoms}"


def variety_expression(rng: random.Random, top: int, big_h: bool) -> str:
    """1-2 terms of 1-2 atoms; the first term has dimension top.

    With big_h the first term is the hypersurface H(4, top-3), whose class
    costs far more than a P(top) (the hot cache does not store input
    classes); otherwise hypersurfaces stay small, so which cells are
    expensive is fixed, not left to the seed.
    """
    if big_h:
        terms = [f"H(4,{top - 3})"]
    else:
        terms = [_term(rng, top)]
    if rng.random() < 0.4:
        terms.append(_term(rng, rng.randint(max(2, top - 8), top)))
    return " + ".join(terms)


def prepare(seed: int, count: int, out: str) -> None:
    """Seeded CLI requests, each with its expected stdout and exit code.

    COUNT is rounded up to whole rounds.

    Requests come in rounds holding every CLI_SLOTS slot once, so every
    run sees the same mix whatever the seed.  An expression is kept only if
    its class is nonzero mod p with top weight equal to its slot's weight.
    The expected output is `cli.main` run in this process with an in-memory
    generator family, so it never depends on a cache file.
    """
    cli = import_checked("cobordlab.cli")
    from cobordlab.chow import chern_numbers
    from cobordlab.cobordism import standard_generators

    rng = random.Random(seed)
    requests = []
    while len(requests) < count:
        slots = list(CLI_SLOTS)
        rng.shuffle(slots)
        for w, big_h, p, cmd, square in slots:
            q = p * p if square else p
            for _ in range(100):
                text = variety_expression(rng, w, big_h)
                x = chern_numbers(text, p)
                if not x.is_zero() and x.top_weight() == w:
                    break
            else:
                raise SystemExit(f"no nonvanishing input of weight {w} for p={p}")
            argv = [cmd, "-p", str(p)] + (["-q", str(q)] if cmd != "express" else []) + [text]
            requests.append({"argv": argv, "p": p, "weight": w, "kind": cmd})

    cli.make_family = lambda args: standard_generators(args.prime)
    for req in requests:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(req["argv"]))
        req["stdout"] = stdout.getvalue()
        req["rc"] = rc
    write(out, {"round": len(CLI_SLOTS), "requests": requests})


# -- library session --------------------------------------------------------


class _Choices:
    """Partitions of w with parts in N_p, enumerated once per (p, w)."""

    def __init__(self):
        from cobordlab import partitions as pt

        self.pt = pt
        self.memo: dict = {}

    def __call__(self, p: int, w: int) -> list:
        key = (p, w)
        if key not in self.memo:
            allowed = [j for j in range(1, w + 1) if self.pt.in_np(j, p)]
            self.memo[key] = self.pt.partitions_of(w, parts=allowed)
        return self.memo[key]


def _member(rng: random.Random, p: int, choices: _Choices) -> dict:
    """A random generator polynomial (drawn as random_gen_poly draws them,
    term weights up to MEMBER_TOP), a group order and ratio-bound inputs."""
    from cobordlab.fpring import GenPoly

    while True:
        gp = GenPoly.zero(p)
        for _ in range(rng.randint(1, 4)):
            w = rng.randint(1, MEMBER_TOP)
            if choices(p, w):  # random_gen_poly also skips weights without N_p-partitions
                gp = gp + GenPoly.monomial(p, rng.choice(choices(p, w)), rng.randrange(1, p))
        if not gp.is_zero():
            break
    small = [j for j in range(1, 9) if choices.pt.in_np(j, p)]
    return {"kind": "member", "p": p, "q": rng.choice((p, p * p)), "gp": gp,
            "A": sorted(rng.sample(small, rng.randint(0, 2))), "s": rng.randint(0, 2),
            "weight": max(sum(b) for b in gp.terms)}


def _witness(rng: random.Random, p: int, w: int, choices: _Choices, fam) -> dict:
    """A homogeneous member of weight w plus b_alpha, where alpha = (e, w-e)
    and e is outside N_p, so the class is not in the generator ring.

    The elimination stops at the first inconsistent row, finest first, so
    its cost follows the witness; a two-part alpha puts the witness at the
    coarse end for every seed, and each cell costs about the same each time.
    """
    from cobordlab.cobordism import evaluate_gen_poly
    from cobordlab.fpring import BPoly, GenPoly

    pt = choices.pt
    gp = GenPoly.zero(p)
    for beta in rng.sample(choices(p, w), rng.randint(1, 3)):
        gp = gp + GenPoly.monomial(p, beta, rng.randrange(1, p))
    outside = rng.choice([j for j in range(1, w) if not pt.in_np(j, p)])
    alpha = tuple(sorted((outside, w - outside), reverse=True))
    x = evaluate_gen_poly(gp, fam) + BPoly.monomial(p, alpha, rng.randrange(1, p))
    return {"kind": "witness", "p": p, "weight": w, "x": x}


def session_round(rng: random.Random, choices: _Choices, fams: dict) -> list:
    """One round: every witness (p, w) cell once and three members per
    witness, half for each prime, in seeded order."""
    cells = [(p, w) for p in PRIMES for w in WITNESS_WEIGHTS[p]]
    queries = [_witness(rng, p, w, choices, fams[p]) for p, w in cells]
    queries += [_member(rng, PRIMES[k % 2], choices) for k in range(MEMBERS_PER_WITNESS * len(cells))]
    rng.shuffle(queries)
    return queries


class _Namespace:
    """The library functions a session calls, looked up at construction."""

    def __init__(self, cb, actions, bounds, chow, fpring):
        self.evaluate_gen_poly = cb.evaluate_gen_poly
        self.express_in_generators = cb.express_in_generators
        self.dim_q_direct = cb.dim_q_direct
        self.dim_q_via_generators = cb.dim_q_via_generators
        self.NotInLp = cb.NotInLp
        self.realize = actions.realize
        self.underlying_variety = actions.underlying_variety
        self.action_to_json = actions.action_to_json
        self.CharacterGroup = actions.CharacterGroup
        self.ratio_bound = bounds.ratio_bound
        self.chern_numbers = chow.chern_numbers
        self.GenPoly = fpring.GenPoly
        self.format_genpoly = fpring.format_genpoly


def _member_op(query: dict, fam, ns) -> dict:
    p, q = query["p"], query["q"]
    x = ns.evaluate_gen_poly(query["gp"], fam)
    expr = ns.express_in_generators(x, fam)
    direct = ns.dim_q_direct(x, q)
    via = ns.dim_q_via_generators(x, q, fam)
    action, achieved = ns.realize(x, ns.CharacterGroup.cyclic(q), fam)
    bound = ns.ratio_bound(x, query["A"], query["s"], q, fam).bound if x.is_homogeneous() else None
    return {"x": x, "expr": expr, "direct": direct, "via": via, "action": action,
            "achieved": achieved, "bound": bound}


def _member_check(query: dict, res: dict, fam, ns) -> bool:
    x, expr = res["x"], res["expr"]
    return (
        isinstance(expr, ns.GenPoly)
        and expr == query["gp"]
        and ns.evaluate_gen_poly(expr, fam) == x
        and res["direct"] == res["via"] == res["achieved"]
        and ns.chern_numbers(ns.underlying_variety(res["action"]), query["p"]) == x
        and (res["bound"] is None or res["bound"] <= res["achieved"])
    )


def _member_digest(res: dict, ns) -> str:
    return (f"{ns.format_genpoly(res['expr'])}|{res['direct']}|{res['via']}|{res['achieved']}|"
            f"{json.dumps(ns.action_to_json(res['action']), sort_keys=True)}|{res['bound']}")


def session(seed: int, seconds: float, limit: int | None, trace: bool, out: str) -> None:
    """Set-up, then a closed loop of member and witness queries.

    Without a LIMIT the loop runs whole rounds until SECONDS have passed;
    with one it runs exactly that many queries (the traced pass replays the
    untraced pass's count, drawing the same rounds at the same points).
    """
    ticker = refclock.Ticker()
    cb = import_checked("cobordlab.cobordism")
    fams = {p: cb.standard_generators(p, SESSION_TOP) for p in PRIMES}
    setup_end = time.process_time()

    import cobordlab.actions as actions
    import cobordlab.bounds as bounds
    import cobordlab.chow as chow
    import cobordlab.fpring as fpring

    # the checks use the functions as imported, never the traced wrappers
    chk = _Namespace(cb, actions, bounds, chow, fpring)
    rng = random.Random(seed)
    choices = _Choices()
    queries = session_round(rng, choices, fams)
    tracer = None
    if trace:
        import tracer as tr

        tracer = tr.Tracer(ticker.program_time)
        tr.install(tracer)
    ns = _Namespace(cb, actions, bounds, chow, fpring)  # after install: the wrappers
    stamps, results = [], []  # process_time() before and after each query
    start = time.perf_counter()
    while True:
        i = len(results)
        if i == limit or (limit is None and i == len(queries) and time.perf_counter() - start >= seconds):
            break
        if i == len(queries):  # untimed, between rounds, untraced
            if tracer is not None:
                tracer.active = False
            queries += session_round(rng, choices, fams)
            if tracer is not None:
                tracer.active = True
        query = queries[i]
        fam = fams[query["p"]]
        if tracer is not None:
            tracer.request = i
        t = time.process_time()
        try:
            if query["kind"] == "member":
                res = _member_op(query, fam, ns)
            else:
                res = ns.express_in_generators(query["x"], fam)
        except Exception as exc:  # a crashing query is a failed one
            res = exc
        stamps.append((t, time.process_time()))
        results.append(res)

    if tracer is not None:
        tracer.active = False
    ticker.stop()
    done = queries[:len(results)]
    failed = 0
    digest = hashlib.sha256()
    for k, (query, res) in enumerate(zip(done, results)):
        if isinstance(res, Exception) and not isinstance(res, chk.NotInLp):
            ok, text = False, repr(res)
        elif query["kind"] == "member":
            ok = _member_check(query, res, fams[query["p"]], chk)
            text = _member_digest(res, chk) if isinstance(res["expr"], chk.GenPoly) else repr(res["expr"])
        else:
            ok = isinstance(res, chk.NotInLp) and sum(res.witness) == query["weight"]
            text = repr(res)
        failed += not ok
        if k < DIGEST_OPS:
            digest.update(text.encode() + b"\n")
    doc = {
        "setup_s": ticker.scaled(setup_end), "scaled": [ticker.between(*ab) for ab in stamps], "failed": failed,
        "digest": digest.hexdigest(), "digest_ops": min(len(done), DIGEST_OPS),
        "profile": profile(done), "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        doc["layers"] = tracer.summary()
        tracer.write(out + ".spans.json")
    write(out, doc)


def profile(queries: list) -> dict:
    """Request count per kind, per prime and per weight."""
    out: dict = {}
    for q in queries:
        for key in (f"kind.{q['kind']}", f"p.{q['p']}", f"weight.{q['weight']}"):
            out[key] = out.get(key, 0) + 1
    return out


# -- acceptance suite -------------------------------------------------------


def selftest(trace: bool, out: str) -> None:
    """acceptance.run_all() under a Ticker; a check's "seconds" is its
    scaled CPU time (CheckResult.seconds would hold probes too)."""
    ticker = refclock.Ticker()
    acceptance = import_checked("cobordlab.acceptance")
    tracer = None
    if trace:
        import tracer as tr

        tracer = tr.Tracer(ticker.program_time)
        tr.install(tracer)
    stamps: dict = {}

    def timed_check(name, fn):
        def check(ctx):
            t = time.process_time()
            try:
                return fn(ctx)
            finally:
                stamps[name] = (t, time.process_time())
        return check

    acceptance.CHECKS = tuple((name, timed_check(name, fn)) for name, fn in acceptance.CHECKS)
    results = acceptance.run_all()
    end = ticker.stop()
    doc = {
        "checks": [{"name": r.name, "ok": r.ok, "seconds": ticker.between(*stamps[r.name]), "detail": r.detail}
                   for r in results],
        "scaled": ticker.scaled(end),
        "covered": ticker.covered,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        doc["layers"] = tracer.summary()
        tracer.write(out + ".spans.json")
    write(out, doc)


def main(argv: list) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        write(None, setup(args[0], args[1]))
    elif mode == "prepare":
        prepare(int(args[0]), int(args[1]), args[2])
    elif mode == "session":
        limit = None if args[2] == "-" else int(args[2])
        session(int(args[0]), float(args[1]), limit, args[3] == "1", args[4])
    elif mode == "selftest":
        selftest(args[0] == "1", args[1])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
