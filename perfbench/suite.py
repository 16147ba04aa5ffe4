"""Run workloads over several seeds and summarise every metric.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Each run is its own fresh interpreter (``perfbench/run.py``), one at a
time. For every workload and metric the summary gives the median, the
quartiles and the spread (distance between the quartiles as a share of
the median, as ``statistics.quantiles(values, n=4)`` gives them) next to
the metric's bound from ``BENCHMARK.json``, plus the error rate (exports
failed / exports attempted) and each run's elapsed time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from program import ROOT


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for workload in args.workloads.split(","):
        results, elapsed = [], []
        for seed in seed_list(args.seeds):
            result, took = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            elapsed.append(took)
            print(f"# {workload} seed {seed}: {took:.1f} s, correct={result['correct']}",
                  file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, error_rate {failed / attempted:.4g} "
              f"({failed}/{attempted} exports), all correct: {all(r['correct'] for r in results)}, "
              f"run elapsed median {statistics.median(elapsed):.1f} s max {max(elapsed):.1f} s")
        print(f"{'metric':32} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print(f"{name:32} {first['unit']:9} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
