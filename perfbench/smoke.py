"""Smoke mode: every workload once, untraced and traced, with short runs.

It covers the ungated `session` workload too, not only BENCHMARK.json's.

Fails if a metric named in BENCHMARK.json is missing or has the wrong unit,
or if any operation failed.  Prints every end-to-end metric by name and
unit for every workload, with fail_ratio, and writes the results with the
git sha, Python version, CPU count and seed to .perfbench_out/smoke.json.
"""

from __future__ import annotations

import json
import os
import platform

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 2.0


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def problems(result: dict, expected: list) -> list:
    out = []
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            out.append(f"missing {metric['name']}")
        elif got.get("unit") != metric["unit"]:
            out.append(f"{metric['name']} has unit {got.get('unit')!r}, not {metric['unit']!r}")
    if result["failed"]:
        out.append(f"{result['failed']} of {result['attempted']} operations failed")
    return out


def main(measure, workloads, seed: int) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    host = {"git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed}
    records, bad = [], []
    for workload in workloads:
        for trace in (False, True):
            out = measure(workload, seed, SECONDS, trace)
            result = out["result"]
            expected = bench["per_layer"] if trace else bench["end_to_end"]
            found = problems(result, expected)
            bad += [f"{workload} trace={int(trace)}: {p}" for p in found]
            records.append(dict(host, workload=workload, trace=int(trace), facts=out["facts"], result=result))
            if not trace:
                print(f"{workload}:")
                for name, m in result["metrics"].items():
                    print(f"  {name:12s} {m['value']:14.4f} {m['unit']}")
                print(f"  {'fail_ratio':12s} {out['facts']['fail_ratio']:14.4f} failed/attempted")
            else:
                print(f"  traced: {len(result['metrics'])} per-layer metrics, "
                      f"tracing overhead {result['metrics']['trace.overhead_s']['value']:.3f} s")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "smoke.json"), "w") as fh:
        json.dump(records, fh, indent=1)
    print(f"git {host['git_sha']}, python {host['python']}, nproc {host['nproc']}, seed {seed}")
    for line in bad:
        print(f"FAIL {line}")
    print("smoke: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0
