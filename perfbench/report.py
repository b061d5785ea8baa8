"""Report-only probes: weight reach and the ROADMAP item-1 baseline table.

Single wall-clock measurements, not gated: weight reach is a step function
of a noisy latency, so it flips between runs on a busy machine.  Every
probe runs in a fresh process with its own HOME and cache, like the
benchmark runs.
"""

from __future__ import annotations

import statistics

import run as bench

REACH_LIMIT_S = 1.0
REACH_WEIGHTS = range(12, 33, 2)


def _timed_child(run, code: str) -> float:
    """Seconds a snippet reports for itself (it prints one float)."""
    return float(run.child(["-c", code]).check().stdout)


def _cli(run, cache: str, *argv) -> float:
    return run.child(["-m", "cobordlab.cli", *argv], COBORDLAB_CACHE=cache).check().latency


def generator_variety(w: int, p: int) -> str:
    """A nonvanishing variety of dimension w built from generator atoms."""
    from cobordlab.cobordism import generator_atom, in_np  # on sys.path via worker

    if in_np(w, p):
        return str(generator_atom(w, p))
    a = min(j for j in range(1, w) if in_np(j, p) and in_np(w - j, p))
    return f"{generator_atom(w - a, p)}*{generator_atom(a, p)}"


def weight_reach(run, p: int) -> tuple:
    """Largest weight whose cold express and realize both finish in 1 s."""
    reach, last = None, {}
    for w in REACH_WEIGHTS:
        text = generator_variety(w, p)
        times = {cmd: _cli(run, run.path("cold.json"), *argv)
                 for cmd, argv in (("express", ("express", "-p", str(p), text)),
                                   ("realize", ("realize", "-p", str(p), "-q", str(p), text)))}
        last = {"weight": w, "input": text, **{k: round(v, 3) for k, v in times.items()}}
        if max(times.values()) > REACH_LIMIT_S:
            break
        reach = w
    return reach, last


def main() -> int:
    run = bench.Run("report", 0, 0, False)
    try:
        rows = []
        bare = statistics.median(run.child(["-c", "pass"]).latency for _ in range(5))
        rows.append(("bare interpreter start-up", bare))
        for n in (24, 28):
            cache = run.path("cache.json")
            rows.append((f"CLI dimq -p 2 -q 4 P({n}), cold cache", _cli(run, cache, "dimq", "-p", "2", "-q", "4", f"P({n})")))
            rows.append((f"CLI dimq -p 2 -q 4 P({n}), hot cache", _cli(run, cache, "dimq", "-p", "2", "-q", "4", f"P({n})")))
        for p in (2, 3):
            for w in (16, 20, 24, 28):
                code = ("import time; t = time.perf_counter(); from cobordlab.cobordism import standard_generators; "
                        f"standard_generators({p}, {w}); print(time.perf_counter() - t)")
                rows.append((f"ensure({w}), p = {p}, cold (with import)", _timed_child(run, code)))
        code = ("import time; from cobordlab.cobordism import standard_generators, express_in_generators; "
                "from cobordlab.fpring import BPoly; fam = standard_generators(2, 24); t = time.perf_counter(); "
                "r = express_in_generators(BPoly(2, {(22, 1, 1): 1}), fam); print(time.perf_counter() - t)")
        rows.append(("witness b[22]*b[1]^2, weight 24, generators warm", _timed_child(run, code)))
        print("ROADMAP item-1 probes (single runs, seconds):")
        for label, seconds in rows:
            print(f"  {label:52s} {seconds:8.3f}")
        for p in (2, 3):
            reach, last = weight_reach(run, p)
            print(f"weight reach p = {p}: {reach} (cold express and realize within {REACH_LIMIT_S:g} s; "
                  f"first miss {last})")
    finally:
        run.close()
    return 0
