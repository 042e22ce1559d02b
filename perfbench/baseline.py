"""Run the benchmark over several seeds and record the results as a baseline.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For each workload: one untraced run for each of SEEDS (the seconds per run
come from BENCHMARK.json), then one traced run at TRACE_SEED. Records each
end-to-end metric's median, quartiles and spread (quartile distance over
median), the failed-operation ratio, the per-layer metrics of the traced
run, and the stamp of the first run. Prints the spreads as it goes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = tuple(range(1, 11))
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = next(json.loads(line.split(" ", 2)[2])
                           for line in lines if line.startswith("# stamp "))
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    baseline = {"command": benchmark["command"], "run_seconds": seconds,
                "seeds": list(SEEDS), "trace_seed": TRACE_SEED,
                "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["metrics"]),
                  flush=True)
        baseline.setdefault("stamp", runs[0]["stamp"])
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            metrics[name] = {"unit": spec["unit"], "bound": spec["bound"],
                             **summarize(values)}
            print(f"  {name}: median {metrics[name]['median']:.6g} "
                  f"spread {metrics[name]['spread']:.4f} "
                  f"(bound {spec['bound']})", flush=True)
        traced = run_once(workload, TRACE_SEED, seconds, 1)
        baseline["workloads"][workload] = {
            "end_to_end": metrics,
            "failed_op_ratio": summarize(
                [run["failed"] / run["attempted"] for run in runs]),
            "correct": all(run["correct"] for run in runs),
            "per_layer": {name: entry["value"]
                          for name, entry in traced["metrics"].items()},
        }
    with open(args.out, "w") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
