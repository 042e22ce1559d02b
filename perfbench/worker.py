"""Run one workload in a fresh process: a set-up probe or a timed run.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py run --workload W --seed N --seconds S \
        [--trace-out PATH]

The worker never imports mpmath, so its peak resident memory is that of the
package and the loop. It prints one JSON object on standard output; the
outputs of the operations go back to run.py, which checks them.

`setup` times `import imbessel` plus the workload's cold operation, which is
the same for every seed (workloads.COLD), and scales that time to the
reference speed (measure.Speed). `run` is a closed loop with one client on
one thread: the next operation starts when the previous one returns,
cycling through the seeded pool in whole cycles. With --trace-out, the
first half of the time runs untraced and the second half with spans around
every layer function (ending early at SPAN_BUDGET spans). After the timed
run, the workload's defect probe (workloads.defect_probe) runs once,
untimed, and its outputs are returned apart from the run's.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import measure
import spans
import workloads

LATENCY_SAMPLES = 1 << 16
SPAN_BUDGET = 1_500_000
CAL_EVERY_NS = 20_000_000


def _guarded(workload, modules, entry):
    try:
        return workloads.run_op(workload, modules, entry)
    except Exception as exc:  # an operation failure is a measurement
        return ("error", type(exc).__name__)


def closed_loop(workload, modules, pool, seconds, rng, tracer=None) -> dict:
    """Run the pool in order, over and over, for `seconds` of wall time.

    The loop stops at the first end of a pool cycle after the deadline (or
    at SPAN_BUDGET spans when traced), so an untraced run holds whole
    cycles and every seed's mix of inputs is measured in its set shares.
    The calibration kernel runs after an operation once CAL_EVERY_NS have
    passed since it last ran, and at the end. Each interval between two
    kernel runs, and every operation in it, is scaled to the reference speed
    by the speed measured at the interval's end; the kernel's own time is
    left out.
    """
    latencies = measure.Reservoir(LATENCY_SAMPLES, rng)
    outputs: dict = {}
    clock = time.perf_counter_ns
    size = len(pool)
    speed = measure.Speed()
    pending = []
    wall = scaled_wall = 0.0
    begin = interval_start = clock()
    deadline = begin + int(seconds * 1e9)
    busy = done = 0
    while True:
        index = done % size
        if tracer is not None:
            tracer.op_id = done
        t0 = clock()
        output = _guarded(workload, modules, pool[index])
        t1 = clock()
        pending.append(t1 - t0)
        busy += t1 - t0
        key = (index, output)
        outputs[key] = outputs.get(key, 0) + 1
        done += 1
        stop = (done % size == 0 and t1 >= deadline) or (
            tracer is not None and len(tracer) >= SPAN_BUDGET)
        if stop or t1 - interval_start >= CAL_EVERY_NS:
            interval = clock() - interval_start
            speed.measure()
            wall += interval
            scaled_wall += interval * speed.factor
            for latency in pending:
                latencies.add(round(latency * speed.factor))
            pending.clear()
            interval_start = clock()
        if stop:
            break
    return {"ops": done, "ops_per_s": done * 1e9 / scaled_wall,
            "wall_ops_per_s": done * 1e9 / wall, "speed": scaled_wall / wall,
            "busy_ns": busy, "latency_ns": latencies.samples(),
            "outputs": [[index, output, count]
                        for (index, output), count in outputs.items()]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        t0 = time.perf_counter()
        modules = workloads.load_package()
        workloads.run_op(args.workload, modules,
                         workloads.COLD[args.workload])
        took = time.perf_counter() - t0
        print(json.dumps({"setup_s": took * measure.Speed().factor}))
        return 0

    if args.seed is None or args.seconds is None:
        parser.error("run needs --seed and --seconds")
    pool = workloads.build(args.workload, args.seed)
    modules = workloads.load_package()
    rng = random.Random(args.seed)
    if args.trace_out is None:
        result = closed_loop(args.workload, modules, pool, args.seconds, rng)
    else:
        untraced = closed_loop(args.workload, modules, pool,
                               args.seconds / 2, rng)
        tracer = spans.Tracer()
        tracer.install(modules)
        try:
            result = closed_loop(args.workload, modules, pool,
                                 args.seconds / 2, rng, tracer)
        finally:
            tracer.uninstall()
        layers = spans.layer_metrics(tracer, result["ops"],
                                     result["busy_ns"])
        layers["trace.overhead_ratio"] = \
            result["ops_per_s"] / untraced["ops_per_s"]
        result["layers"] = layers
        result["spans"] = len(tracer)
        tracer.write(args.trace_out)
        result["ops"] += untraced["ops"]
        result["outputs"] += untraced["outputs"]
    result["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["probe_outputs"] = [
        _guarded(args.workload, modules, entry)
        for entry in workloads.defect_probe(args.workload, args.seed)]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
