"""cobordlab benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     every workload once, short; checks the metric set
    python3 perfbench/run.py --report    weight reach and the ROADMAP item-1 probes

Run from anywhere; it measures the checkout it sits in (`src/cobordlab`),
with its own HOME and COBORDLAB_CACHE under `.perfbench_work/`.  The last
line of stdout is the JSON result; the lines before it are for people.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REQUEST = os.path.join(HERE, "request.py")
sys.path.insert(0, HERE)

import refclock  # noqa: E402
import tracer as tr  # noqa: E402
from worker import profile  # noqa: E402

# BENCHMARK.json gates cold, hot and selftest; session runs on request only
# (README.md: time budget, and its member-query median follows the seed)
WORKLOADS = ("cold", "hot", "session", "selftest")
# fresh set-up processes per run; the import-only set-ups are short, so more
SETUP_REPEATS = {"cold": 11, "hot": 3, "selftest": 11}
SESSION_PROCS = 4  # the session's processes each set up once: its set-up samples
# Tail percentile per workload: at least ten samples beyond it at the
# smallest sample counts a 20 s run gets, inside a cost group of the CLI
# slots (see README.md).  Fixed, so a faster commit does not move the tail
# to another percentile.
TAIL = {"cold": 0.75, "hot": 0.80, "session": 0.92, "selftest": 1.0}
DIGEST_OPS = {"cold": 12, "hot": 12, "selftest": 1}
REQUEST_TIMEOUT = 150.0
PREPARED = 48  # CLI requests prepared per run
MIN_ROUNDS = 3  # so a CLI run has a tail with ten samples beyond it
MIN_SELFTESTS = 3  # so the selftest median is not a mean of two
CHECKS = (
    "projective-4-class", "projective-diagonal", "milnor-diagonal", "membership-witness",
    "dimq-equals-degq", "realize-achieves-dimq", "np-monomial-ratio", "localization-identity",
    "dividing-polynomials", "fixed-locus-formulas", "divisibility-corollaries", "action-soundness",
)

END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict:
    units = {}
    for name in tr.SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in tr.COUNT_METRICS:
        if not name.endswith(".repeats"):
            units[name] = "bytes" if name.endswith("_bytes") else "count"
    units["cobordism.GeneratorFamily.monomial_class.repeat_ratio"] = "ratio"
    for check in CHECKS:
        units[f"acceptance.{check}.s"] = "s"
    units["cli.import_s"] = "s"
    units["process.boot_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# -- child processes --------------------------------------------------------


class Child:
    """A finished child process: wall and CPU time, exit code, output.

    `scale` turns its CPU seconds into CPU seconds at the nominal machine
    speed, from the probes made around it (refclock.py); read it once the
    next child has run."""

    def __init__(self, argv: list, env: dict, cwd: str, speed: refclock.SpeedLog):
        self.speed = speed
        self.start = speed.mark()
        with tempfile.TemporaryFile(dir=cwd) as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
            killer = threading.Timer(REQUEST_TIMEOUT, proc.kill)
            killer.start()
            try:
                self.stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.latency = time.perf_counter() - t
            self.cpu = usage.ru_utime + usage.ru_stime
            self.end = time.monotonic()
            speed.mark()
            proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")

    @property
    def scale(self) -> float:
        return self.speed.factor(self.start, self.end)

    @property
    def scaled(self) -> float:
        return self.cpu * self.scale

    def check(self) -> "Child":
        if self.rc != 0:
            raise RuntimeError(f"child failed with exit code {self.rc}:\n{self.stderr[-2000:]}")
        return self

    def json(self) -> dict:
        return json.loads(self.check().stdout)

    def load(self, path: str) -> dict:
        """The JSON document the child wrote to path."""
        self.check()
        with open(path) as fh:
            return json.load(fh)


class Run:
    """Work directory, environment and set-up shared by the workloads."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        base = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
        self.home = os.path.join(self.dir, "home")
        os.makedirs(self.home)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "COBORDLAB_CACHE"}
        self.env.update(PYTHONPATH=SRC, HOME=self.home, COBORDLAB_CACHE=os.path.join(self.dir, "unused.json"))
        self.counter = 0
        self.speed = refclock.SpeedLog()  # probes before and after every child process

    def path(self, name: str) -> str:
        self.counter += 1
        return os.path.join(self.dir, f"{self.counter}-{name}")

    def child(self, argv: list, **env) -> Child:
        return Child([sys.executable] + argv, dict(self.env, **env), self.dir, self.speed)

    def worker(self, *args, **env) -> Child:
        return self.child([WORKER] + [str(a) for a in args], **env)

    def setups(self, n: int) -> tuple:
        """Set-up times from n fresh processes; returns (times, last cache dir)."""
        times, cache = [], None
        for _ in range(n):
            cache = self.path("cache")
            os.makedirs(cache)
            times.append(self.worker("setup", self.workload, cache).json()["setup_s"])
        return times, cache

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def keep_spans(run: Run, processes: list) -> None:
    """Write the traced processes' spans to .perfbench_out, one file per run."""
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"spans-{run.workload}-seed{run.seed}.json"), "w") as fh:
        json.dump({"workload": run.workload, "seed": run.seed, "processes": processes}, fh)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; q = 1.0 is the maximum."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(q * 1e6)) * len(ordered) // 1_000_000))
    return ordered[min(rank, len(ordered)) - 1]


def latency_metrics(workload: str, scaled: list) -> dict:
    """From the scaled CPU time of each operation (see refclock.py)."""
    return {
        "p50_ms": statistics.median(scaled) * 1e3,
        "tail_ms": percentile(scaled, TAIL[workload]) * 1e3,
        "ops_per_s": len(scaled) / sum(scaled),
    }


# -- CLI requests (cold, hot) -----------------------------------------------


def cli_requests(run: Run, cache: str | None, requests: list, traced: bool, deadline: float | None,
                 round_size: int = 1, min_rounds: int = MIN_ROUNDS):
    """Run requests in order, cycling, in whole rounds until the deadline and
    at least min_rounds rounds, or through the list once without a deadline."""
    done = []
    start = time.perf_counter()
    i = 0
    while True:
        if deadline is None:
            if i == len(requests):
                break
        elif i % round_size == 0 and i >= min_rounds * round_size and time.perf_counter() - start >= deadline:
            break
        req = requests[i % len(requests)]
        i += 1
        if cache is None:
            cache_path = run.path("cold.json")  # does not exist yet
        else:
            cache_path = os.path.join(cache, f"p{req['p']}.json")
        out = run.path("request.json")
        child = run.child([REQUEST, out, str(int(traced))] + req["argv"], COBORDLAB_CACHE=cache_path)
        if cache is None and os.path.exists(cache_path):
            os.remove(cache_path)
        ok = child.rc == req["rc"] == 0 and child.stdout.decode() == req["stdout"] and os.path.exists(out)
        entry = {"req": req, "child": child, "ok": ok, "stdout": child.stdout, "peak_rss_mb": 0.0}
        if ok:
            with open(out) as fh:
                entry["times"] = json.load(fh)
            entry["peak_rss_mb"] = entry["times"]["peak_rss_mb"]
            if traced:
                with open(out + ".spans.json") as fh:
                    entry["spans"] = json.load(fh)
        done.append(entry)
    return done


def run_cli(run: Run) -> tuple:
    setup_times, cache = run.setups(SETUP_REPEATS[run.workload])
    if run.workload == "cold":
        cache = None
    # four rounds: more than cold completes in a run; hot cycles through them
    inputs = run.path("inputs.json")
    prepared = run.worker("prepare", run.seed, PREPARED, inputs).load(inputs)
    requests, round_size = prepared["requests"], prepared["round"]
    if not run.trace:
        done = cli_requests(run, cache, requests, False, run.seconds, round_size)
        metrics = {"setup_s": statistics.median(setup_times)}
        metrics.update(latency_metrics(run.workload, [d["child"].scaled for d in done]))
        metrics["peak_rss_mb"] = max(d["peak_rss_mb"] for d in done)
        layers = None
    else:
        # no percentiles here, so one round is enough
        plain = cli_requests(run, cache, requests, False, run.seconds / 2, round_size, 1)
        traced = cli_requests(run, cache, [d["req"] for d in plain], True, None)
        done = plain + traced
        summed: dict = {}
        import_s = boot_s = 0.0
        for d in traced:
            if "spans" not in d:
                continue
            t, child = d["times"], d["child"]
            for k, v in t["layers"].items():
                summed[k] = summed.get(k, 0) + v
            import_s += t["import_s"] * child.scale
            boot_s += (child.cpu - t["cpu"] + t["start_s"]) * child.scale
        keep_spans(run, [d["spans"] for d in traced if "spans" in d])
        layers = tr.finish(summed) if summed else {}
        layers["cli.import_s"] = import_s
        layers["process.boot_s"] = boot_s
        layers["trace.overhead_s"] = (sum(d["child"].scaled for d in traced)
                                      - sum(d["child"].scaled for d in plain))
        metrics = None
    digest = hashlib.sha256()
    for d in done[:DIGEST_OPS[run.workload]]:
        digest.update(" ".join(d["req"]["argv"]).encode() + b"\n" + d["stdout"])
    facts = {
        "requests": len(done),
        "digest": f"{digest.hexdigest()} over {min(len(done), DIGEST_OPS[run.workload])} requests",
        "profile": dict(sorted(profile([d["req"] for d in done]).items())),
        "raw_p50_cpu_ms": statistics.median(d["child"].cpu for d in done) * 1e3,
    }
    failed = sum(not d["ok"] for d in done)
    return metrics, layers, len(done), failed, facts


# -- library session (member, witness) --------------------------------------


def run_session(run: Run) -> tuple:
    """SESSION_PROCS session processes in turn, each with its own set-up and
    a share of the time: one process alone measures one draw of the
    interpreter's memory layout, which moved its times by up to a third."""
    seconds = (run.seconds / 2 if run.trace else run.seconds) / SESSION_PROCS
    seeds = [run.seed * SESSION_PROCS + k for k in range(SESSION_PROCS)]
    docs = []
    for seed in seeds:
        out = run.path("session.json")
        docs.append(run.worker("session", seed, seconds, "-", 0, out).load(out))
    times = [t for d in docs for t in d["scaled"]]
    attempted, failed = len(times), sum(d["failed"] for d in docs)
    mix: dict = {}
    for d in docs:
        for k, v in d["profile"].items():
            mix[k] = mix.get(k, 0) + v
    facts = {"queries": attempted, "digest": f"{docs[0]['digest']} over the first {docs[0]['digest_ops']} queries",
             "witness_share": mix.get("kind.witness", 0) / attempted, "profile": dict(sorted(mix.items()))}
    if not run.trace:
        metrics = {"setup_s": statistics.median(d["setup_s"] for d in docs)}
        metrics.update(latency_metrics(run.workload, times))
        metrics["peak_rss_mb"] = max(d["peak_rss_mb"] for d in docs)
        return metrics, None, attempted, failed, facts
    summed: dict = {}
    spans, traced_times = [], []
    for seed, doc in zip(seeds, docs):
        out = run.path("traced.json")
        traced = run.worker("session", seed, 0, len(doc["scaled"]), 1, out).load(out)
        for k, v in traced["layers"].items():
            summed[k] = summed.get(k, 0) + v
        with open(out + ".spans.json") as fh:
            spans.append(json.load(fh))
        traced_times += traced["scaled"]
        failed += traced["failed"]
    keep_spans(run, spans)
    layers = tr.finish(summed)
    layers["trace.overhead_s"] = sum(traced_times) - sum(times)
    return None, layers, attempted + len(traced_times), failed, facts


# -- acceptance suite (selftest) --------------------------------------------


def suite_s(child: Child, doc: dict) -> float:
    """Scaled CPU seconds of one selftest process: what the child's Ticker
    covered, plus the rest (start-up, exit) scaled by the parent's probes."""
    return doc["scaled"] + (child.cpu - doc["covered"]) * child.scale


def selftest_once(run: Run, trace: bool) -> tuple:
    out = run.path("selftest.json")
    child = run.worker("selftest", int(trace), out)
    doc = child.load(out)
    doc["spans"] = out + ".spans.json"
    ok = len(doc["checks"]) == len(CHECKS) and all(c["ok"] for c in doc["checks"])
    return child, doc, ok


def run_selftest(run: Run) -> tuple:
    setup_times, _ = run.setups(SETUP_REPEATS[run.workload])
    runs = []
    start = time.perf_counter()
    deadline = run.seconds / 2 if run.trace else run.seconds
    least = 1 if run.trace else MIN_SELFTESTS
    while len(runs) < least or time.perf_counter() - start < deadline:
        runs.append(selftest_once(run, False))
    failed = sum(not ok for _, _, ok in runs)
    digest = hashlib.sha256(json.dumps([(c["name"], c["ok"]) for c in runs[0][1]["checks"]]).encode())
    facts = {"runs": len(runs), "digest": f"{digest.hexdigest()} over 1 run",
             "checks_passed": sum(c["ok"] for c in runs[-1][1]["checks"]),
             "raw_p50_cpu_ms": statistics.median(child.cpu for child, _, _ in runs) * 1e3}
    if not run.trace:
        metrics = {"setup_s": statistics.median(setup_times)}
        metrics.update(latency_metrics(run.workload, [suite_s(child, doc) for child, doc, _ in runs]))
        metrics["peak_rss_mb"] = max(doc["peak_rss_mb"] for _, doc, _ in runs)
        return metrics, None, len(runs), failed, facts
    child, doc, ok = selftest_once(run, True)
    with open(doc["spans"]) as fh:
        keep_spans(run, [json.load(fh)])
    layers = tr.finish(doc["layers"])
    for c in runs[-1][1]["checks"]:
        layers[f"acceptance.{c['name']}.s"] = c["seconds"]
    layers["trace.overhead_s"] = suite_s(child, doc) - suite_s(*runs[-1][:2])
    return None, layers, len(runs) + 1, failed + (not ok), facts


# -- entry points -----------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    refclock.pin()
    run = Run(workload, seed, seconds, trace)
    try:
        fn = {"cold": run_cli, "hot": run_cli, "session": run_session, "selftest": run_selftest}[workload]
        metrics, layers, attempted, failed, facts = fn(run)
    finally:
        run.close()
    if trace:
        units = per_layer_units()
        values = {name: layers.get(name, 0) for name in units}
        out_metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    facts.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                 fail_ratio=failed / attempted, tail_percentile=TAIL[workload])
    return {"facts": facts, "result": {"correct": failed == 0, "attempted": attempted,
                                       "failed": failed, "metrics": out_metrics}}


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the running child is killed and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--report", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cobordlab", "__init__.py")):
        print(f"error: no cobordlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        import smoke

        return smoke.main(measure, WORKLOADS, args.seed)
    if args.report:
        import report

        return report.main()
    if args.workload is None:
        ap.error("--workload is required")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in out["facts"].items():
        print(f"# {key}: {value}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
