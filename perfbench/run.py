"""The imbessel benchmark: one seeded workload, checked against mpmath.

    python3 perfbench/run.py --workload {zeros_enumerate,eval_scan,cli_mix} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the package in src/imbessel.
Steps: build the seeded pool; cross-check the oracle against the frozen
values of the test suite and compute the reference values (none of this is
timed); run the closed loop in a fresh worker process, and with --trace 0
time the set-up in fresh processes before and after it; check every
output, and the defect probe's; print a report and, as the last line, one
JSON object. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

import check
import measure
import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = workloads.SRC
REFERENCE = os.path.join(ROOT, "tests", "oracles", "reference_values.json")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 8  # before the timed run, and as many after it
WORKER_GRACE_S = 90
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "ok_op_ratio",
              "setup_s", "peak_rss_mib")


def _worker(*args: str, timeout: float) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed "
                           f"(exit {completed.returncode}):\n"
                           f"{completed.stderr}")
    return json.loads(completed.stdout.splitlines()[-1])


def setup_seconds(workload: str, probes: int) -> list[float]:
    """Set-up times of `probes` fresh processes."""
    args = ("setup", "--workload", workload)
    return [_worker(*args, timeout=WORKER_GRACE_S)["setup_s"]
            for _ in range(probes)]


def stamp(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=False).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "imbessel")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def count_failures(workload: str, pool: list, expected: list,
                   outputs: list) -> tuple[int, list]:
    """(failed ops, examples of why)."""
    failed = 0
    examples = []
    for index, output, count in outputs:
        entry = pool[index]
        reason = check.verify(workload, entry, expected[index], output)
        if reason is not None:
            failed += count
            examples.append(f"{entry} -> {reason}")
    return failed, examples


def probe_failures(workload: str, seed: int, outputs: list) -> int:
    """How many inputs of the defect probe still fail."""
    probe = workloads.defect_probe(workload, seed)
    expected = check.expected_values(workload, probe)
    return sum(check.verify(workload, entry, want, output) is not None
               for entry, want, output in zip(probe, expected, outputs))


def end_to_end(result: dict, failed: int, setups: list) -> dict:
    """Every end-to-end number of an untraced run: name -> (value, unit).

    failed_op_ratio is printed for reading; BENCHMARK.json carries its
    complement ok_op_ratio, which is never zero.
    """
    attempted = result["ops"]
    latencies = sorted(v / 1e6 for v in result["latency_ns"])
    return {
        "ops_per_s": (result["ops_per_s"], "1/s"),
        "latency_p50_ms": (measure.percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (measure.tail_percentile(latencies, 0.9), "ms"),
        "failed_op_ratio": (failed / attempted, "ratio"),
        "ok_op_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (measure.median(setups), "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for required in (os.path.join(SRC, "imbessel", "__init__.py"),
                     REFERENCE):
        if not os.path.isfile(required):
            sys.stderr.write(f"perfbench: {required} is missing; run from "
                             f"the root of an imbessel checkout\n")
            return 2

    pool = workloads.build(args.workload, args.seed)
    oracle.cross_check(REFERENCE)
    expected = check.expected_values(args.workload, pool)
    setups = []
    if not args.trace:
        # The warm-up is not counted: it fills the bytecode cache, which a
        # user pays once per install, not per run. Half the probes run
        # before the timed run and half after, so that set-up time samples
        # the machine's speed over the whole run, not at one moment.
        setup_seconds(args.workload, 1)
        setups = setup_seconds(args.workload, SETUP_PROBES)

    run_args = ["run", "--workload", args.workload, "--seed",
                str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        run_args += ["--trace-out",
                     os.path.join(OUT, f"spans_{args.workload}.bin")]
    result = _worker(*run_args, timeout=args.seconds + WORKER_GRACE_S)
    if not args.trace:
        setups += setup_seconds(args.workload, SETUP_PROBES)
    failed, examples = count_failures(
        args.workload, pool, expected, result["outputs"])
    attempted = result["ops"]
    probed = len(result["probe_outputs"])
    probe_failed = probe_failures(args.workload, args.seed,
                                  result["probe_outputs"])

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# stamp {json.dumps(stamp(args.seed))}")
    print(f"# ops={attempted} failed={failed}")
    for example in examples[:5]:
        print(f"# failure: {example}")
    print(f"# defect probe (ROADMAP item 3; run once, untimed, not in "
          f"attempted or failed): {probe_failed} of {probed} inputs fail")
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in result["layers"].items()}
        print(f"# spans={result['spans']} (untraced and traced ops are "
              f"both checked)")
        for name, entry in metrics.items():
            print(f"{name:>52} = {entry['value']:.6g} {entry['unit']}")
    else:
        report = end_to_end(result, failed, setups)
        print(f"# latency samples={len(result['latency_ns'])}; speed "
              f"factor {result['speed']:.4f}, unscaled ops_per_s "
              f"{result['wall_ops_per_s']:.6g}; setup_s probes: "
              f"{', '.join(f'{s:.4f}' for s in setups)}")
        for name, (value, unit) in report.items():
            shown = "suppressed (<10 samples beyond)" if value is None \
                else f"{value:.6g}"
            print(f"{name:>16} = {shown} {unit}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report.items()
                   if name in END_TO_END and value is not None}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("self_us_per_call"):
        return "us"
    if name.endswith(("calls_per_op", "calls_per_call")):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
