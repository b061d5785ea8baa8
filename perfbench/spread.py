"""Run-to-run spread of the end-to-end metrics, as the benchmark gate sees it.

    python3 perfbench/spread.py --workload cold --seeds 1 2 3 4 5

Runs the benchmark once per seed (untraced, BENCHMARK.json's run_seconds)
and prints, per metric, the median and the interquartile range as a share
of the median, next to the metric's bound.  A steady benchmark keeps every
spread but setup_s under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values: dict[str, list] = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - t
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.0f} s): " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    worst = 0.0
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:12s} median {med:10.4f} {metric['unit']:4s} spread {spread:6.3f} "
              f"bound {metric['bound']:.2f} {'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    print(f"worst spread / bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
