"""In-memory spans and counters around the public functions of cobordlab.

The wrappers live in the benchmark, not in the package: install() replaces a
function in every cobordlab module that binds it (so `cobordism.atom_class`
is wrapped as well as `chow.atom_class`) and replaces methods on their
class.  Spans record name, start, end, parent index and request id, with
times in process CPU seconds from the tracer's clock (a Ticker's
program_time, which leaves out the reference probes, see refclock.py); a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, qualified name) wrapped with a span; the span is named
# "<module>.<qualname>".
SPANNED = (
    ("partitions", "partitions_of"),
    ("fpring", "BPoly.__mul__"),
    ("chow", "atom_class"),
    ("chow", "chern_numbers"),
    ("cobordism", "GeneratorFamily.ensure"),
    ("cobordism", "GeneratorFamily.monomial_class"),
    ("cobordism", "standard_generators"),
    ("cobordism", "express_in_generators"),
    ("cobordism", "dim_q_direct"),
    ("cobordism", "dim_q_via_generators"),
    ("bounds", "ratio_bound"),
    ("actions", "realize"),
    ("equivariant", "localization_check"),
    ("cli", "main"),
)
# counted only: these run millions of times in the elimination, so a span
# each would swamp what they measure
COUNTED = (
    ("fpring", "BPoly.coefficient"),
    ("fpring", "BPoly.__init__"),
)

# names reported as "<name>.calls" and "<name>.self_s"
SPAN_METRICS = tuple(f"{mod}.{qual}" for mod, qual in SPANNED if qual != "express_in_generators") + (
    "cobordism.express_in_generators.member",
    "cobordism.express_in_generators.nonmember",
)
COUNT_METRICS = (
    "cobordism.generators_built",
    "cobordism.cache_bytes",
    "cobordism.GeneratorFamily.monomial_class.repeats",
    "fpring.BPoly.__mul__.terms_out",
    "fpring.BPoly.coefficient.calls",
    "fpring.BPoly.__init__.calls",
    "partitions.partitions_of.items",
)


class Tracer:
    MAX_SPANS = 400_000  # beyond this only the aggregates are kept

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.dropped = 0
        self.stack: list[list] = []  # [span index or -1, child time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.request = 0
        self.active = True  # wrappers only pass through while this is off
        self._seen_monomials: set = set()
        self._origin = clock()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name: str, fn, rename=None, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            start = tracer.clock()
            if len(tracer.spans) < tracer.MAX_SPANS:
                idx = len(tracer.spans)
                tracer.spans.append([name, start - tracer._origin, None, parent, tracer.request])
            else:
                idx = -1
                tracer.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = tracer.clock()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
            label = rename(out) if rename is not None else name
            if idx >= 0:
                tracer.spans[idx][0] = label
                tracer.spans[idx][2] = end - tracer._origin
            tracer.calls[label] = tracer.calls.get(label, 0) + 1
            tracer.self_s[label] = tracer.self_s.get(label, 0.0) + dur - frame[1]
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str) -> None:
        """Spans as one JSON document: names are interned into a table."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, request in self.spans:
            rows.append([names.setdefault(name, len(names)), round(start, 7), round(end, 7), parent, request])
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "names": list(names), "spans": rows, "dropped": self.dropped}, fh)

    def summary(self) -> dict:
        out: dict[str, float] = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out.update(self.counts)
        return out


def _lookup(module, qualname: str):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every SPANNED and COUNTED function where callers look it up."""
    import cobordlab.acceptance  # noqa: F401  (loads every module)
    import cobordlab.cli  # noqa: F401

    modules = [m for name, m in sys.modules.items() if name == "cobordlab" or name.startswith("cobordlab.")]
    hooks = {
        "fpring.BPoly.__mul__": dict(after=lambda args, out: tracer.count("fpring.BPoly.__mul__.terms_out", len(out.terms))),
        "partitions.partitions_of": dict(after=lambda args, out: tracer.count("partitions.partitions_of.items", len(out))),
        "cobordism.express_in_generators": dict(rename=lambda out: "cobordism.express_in_generators."
                                                + ("nonmember" if isinstance(out, Exception) else "member")),
        "cobordism.GeneratorFamily.monomial_class": dict(after=_monomial_repeat(tracer)),
        "cobordism.standard_generators": dict(before=_cache_bytes(tracer)),
    }
    for modname, qual in SPANNED + COUNTED:
        module = sys.modules[f"cobordlab.{modname}"]
        owner, attr = _lookup(module, qual)
        original = getattr(owner, attr)
        name = f"{modname}.{qual}"
        if (modname, qual) in COUNTED:
            wrapped = tracer.counter(f"{name}.calls", original)
        else:
            wrapped = tracer.span(name, original, **hooks.get(name, {}))
        if owner is module:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        else:
            setattr(owner, attr, wrapped)
    _count_new_generators(tracer)
    for name in COUNT_METRICS:
        tracer.counts.setdefault(name, 0)


def _monomial_repeat(tracer: Tracer):
    def after(args, out):
        key = (id(args[0]), tuple(args[1]))
        if key in tracer._seen_monomials:
            tracer.count("cobordism.GeneratorFamily.monomial_class.repeats")
        else:
            tracer._seen_monomials.add(key)
    return after


def _cache_bytes(tracer: Tracer):
    """Bytes in the cache file standard_generators is about to load."""
    def before(args, kwargs):
        path = kwargs.get("cache_path", args[2] if len(args) > 2 else None)
        if path and os.path.exists(path):
            tracer.count("cobordism.cache_bytes", os.path.getsize(path))
    return before


def _count_new_generators(tracer: Tracer) -> None:
    from cobordlab.cobordism import GeneratorFamily

    original = GeneratorFamily.generator

    def generator(self, i):
        if tracer.active and i not in self.gens:
            tracer.count("cobordism.generators_built")
        return original(self, i)

    generator.__wrapped__ = original
    GeneratorFamily.generator = generator


def finish(summary: dict) -> dict:
    """Per-layer figures from one or more summed summaries."""
    out = dict(summary)
    calls = out["cobordism.GeneratorFamily.monomial_class.calls"]
    repeats = out.pop("cobordism.GeneratorFamily.monomial_class.repeats", 0)
    out["cobordism.GeneratorFamily.monomial_class.repeat_ratio"] = repeats / calls if calls else 0.0
    return out
