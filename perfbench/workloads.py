"""Seeded inputs of the three workloads and the single operation of each.

A workload is a pool of operation inputs built from the seed alone; the
closed loop runs the pool in order and starts over. Pool sizes and mix
weights are fixed here and recorded in README.md. The inputs are plain
values, so the worker (which imports the package) and the checker (which
imports mpmath) rebuild the same pool from the same seed.

No pool entry lies in a defect that ROADMAP item 3 documents
(`in_documented_defect`): a timed operation is expected to succeed. The
inputs a seed draws there are kept apart as the workload's defect probe,
which the worker runs once, untimed, so the defects stay visible.

This module imports neither the package under test nor mpmath.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import sys

import spans

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
WORKLOADS = ("zeros_enumerate", "eval_scan", "cli_mix")
KINDS = "LKFG"

ZEROS_N_MAX = 500
ZEROS_POOL = 5
ZEROS_X = (0.5, 4.0)

EVAL_X = (0.25, 40.0)
EVAL_NU = (0.5, 60.0)
EVAL_GRID = (20, 20)

CLI_EVAL_GRID = (12, 10)
CLI_TABLE_X1 = 24
# Tables at larger x that succeed at the seed, each twice (seeded format).
CLI_TABLE_LARGE_X = ((1, 5.0), (1, 8.0), (2, 8.0), (2, 10.0))
# Tables that exit 3 at the seed (zero bracketing); probe only.
CLI_TABLE_DEFECTS = ((1, 10.0), (1, 20.0), (2, 20.0))
CLI_ZEROS = 36
CLI_ZEROS_N_MAX = 50
CLI_COEFFS_N_MAX = 500
CLI_COEFFS_X = (0.5, 1.0, 2.0)
CLI_FORMATS = ("text", "csv", "json")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _log_point(rng: random.Random, bounds: tuple, cell: int,
               cells: int) -> float:
    """A log-uniform draw from the cell-th of `cells` equal log-strata."""
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    return math.exp(lo + (cell + rng.random()) * (hi - lo) / cells)


def in_documented_defect(entry: dict) -> bool:
    """Whether ROADMAP item 3 documents a failure of this input at the seed.

    K is computed by cancellation when nu < x (error grows like e^{2x});
    F and G lose accuracy at x > 10 with nu < x; zero bracketing fails for
    the leading zeros of table 1 at x = 10 and of both tables at x = 20.
    """
    if "nu" in entry:
        kind, nu, x = entry["kind"], entry["nu"], entry["x"]
        return nu < x and (kind == "K" or (kind in "FG" and x > 10.0))
    if entry.get("command") == "table":
        return entry["x"] == 20.0 or (entry["x"] == 10.0
                                      and entry["table"] == 1)
    return False


def _eval_grid(rng: random.Random, grid: tuple) -> tuple[list, list]:
    """One (kind, nu, x) point per cell of a jittered log grid, and the probe.

    Stratifying x and nu, and giving the kinds in turn along the grid's
    diagonals, keeps the share of points in any region of the (nu, x) plane
    nearly the same from seed to seed. A point drawn in a documented defect
    goes to the probe, and its cell gets nu drawn again from the same
    stratum of [x, 60] instead, where it is computed without the defect.
    """
    nx, nnu = grid
    offset = rng.randrange(len(KINDS))
    points, probe = [], []
    for i in range(nx):
        for j in range(nnu):
            point = {"kind": KINDS[(i + j + offset) % len(KINDS)],
                     "nu": _log_point(rng, EVAL_NU, j, nnu),
                     "x": _log_point(rng, EVAL_X, i, nx)}
            if in_documented_defect(point):
                probe.append(point)
                point = dict(point, nu=_log_point(
                    rng, (point["x"], EVAL_NU[1]), j, nnu))
            points.append(point)
    return points, probe


def zeros_enumerate_pool(seed: int) -> tuple[list, list]:
    """Five enumerations; the kind cycles L, K, F, G from a seeded start."""
    rng = _rng("zeros_enumerate", seed)
    start = rng.randrange(len(KINDS))
    cells = list(range(ZEROS_POOL))
    rng.shuffle(cells)
    return [{"kind": KINDS[(start + j) % len(KINDS)],
             "x": _log_point(rng, ZEROS_X, cell, ZEROS_POOL),
             "n_max": ZEROS_N_MAX}
            for j, cell in enumerate(cells)], []


def eval_scan_pool(seed: int) -> tuple[list, list]:
    """400 evaluation points in a seeded order."""
    rng = _rng("eval_scan", seed)
    points, probe = _eval_grid(rng, EVAL_GRID)
    rng.shuffle(points)
    return points, probe


def _eval_call(point: dict, fmt: str) -> dict:
    return {"command": "eval", **point, "format": fmt,
            "argv": ["eval", "--kind", point["kind"], "--nu",
                     repr(point["nu"]), "--x", repr(point["x"]),
                     "--format", fmt]}


def cli_mix_pool(seed: int) -> tuple[list, list]:
    """200 in-process CLI calls in a seeded order."""
    rng = _rng("cli_mix", seed)
    points, probe_points = _eval_grid(rng, CLI_EVAL_GRID)
    entries = [_eval_call(point, rng.choice(("text", "json")))
               for point in points]
    probe = [_eval_call(point, "json") for point in probe_points]

    def table(number, x, fmt):
        return {"command": "table", "table": number, "x": x, "format": fmt,
                "argv": ["table", "--table", str(number), "--x", repr(x),
                         "--format", fmt]}

    for i in range(CLI_TABLE_X1):
        entries.append(table(1 + i % 2, 1.0,
                             CLI_FORMATS[i // 2 % len(CLI_FORMATS)]))
    for number, x in CLI_TABLE_LARGE_X:
        for _ in range(2):
            entries.append(table(number, x, rng.choice(CLI_FORMATS)))
    probe += [table(number, x, "json") for number, x in CLI_TABLE_DEFECTS]
    start = rng.randrange(len(KINDS))
    for i in range(CLI_ZEROS):
        kind = KINDS[(start + i) % len(KINDS)]
        fmt = CLI_FORMATS[i % len(CLI_FORMATS)]
        entries.append({"command": "zeros", "kind": kind, "x": 1.0,
                        "n_max": CLI_ZEROS_N_MAX, "format": fmt,
                        "argv": ["zeros", "--kind", kind, "--n-max",
                                 str(CLI_ZEROS_N_MAX), "--format", fmt]})
    for kind, x in [(kind, x) for kind in KINDS for x in CLI_COEFFS_X]:
        entries.append({"command": "coeffs", "kind": kind, "x": x,
                        "n_max": CLI_COEFFS_N_MAX,
                        "argv": ["coeffs", "--kind", kind, "--x", repr(x),
                                 "--n-max", str(CLI_COEFFS_N_MAX)]})
    rng.shuffle(entries)
    return entries, probe


# The cold operation that set-up time includes: the same for every seed, so
# set-up time compares one operation from run to run.
COLD = {
    "zeros_enumerate": {"kind": "L", "x": 1.0, "n_max": ZEROS_N_MAX},
    "eval_scan": {"kind": "K", "nu": 5.0, "x": 1.0},
    "cli_mix": {"command": "table", "table": 1, "x": 1.0, "format": "text",
                "argv": ["table", "--table", "1", "--x", "1.0",
                         "--format", "text"]},
}

POOLS = {"zeros_enumerate": zeros_enumerate_pool,
         "eval_scan": eval_scan_pool,
         "cli_mix": cli_mix_pool}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's operation inputs, in stream order."""
    return POOLS[workload](seed)[0]


def defect_probe(workload: str, seed: int) -> list[dict]:
    """The inputs the seed drew in a documented defect, kept out of the pool."""
    return POOLS[workload](seed)[1]


def load_package() -> dict:
    """Import imbessel from SRC and return its layer modules by name."""
    sys.path.insert(0, SRC)
    package = importlib.import_module("imbessel")
    origin = os.path.dirname(os.path.abspath(package.__file__))
    if origin != os.path.join(SRC, "imbessel"):
        raise ImportError(f"imbessel was imported from {origin}, not {SRC}")
    modules = {name: importlib.import_module(f"imbessel.{name}")
               for name in spans.LAYERS}
    modules["imbessel"] = package
    return modules


def run_op(workload: str, modules: dict, entry: dict):
    """Run one operation and return its output as plain, hashable values.

    Layer functions are looked up on their modules at call time, so the
    wrappers of a traced run are the ones called.
    """
    if workload == "zeros_enumerate":
        records = modules["zerofinder"].enumerate_zeros(
            entry["kind"], entry["x"], entry["n_max"])
        return tuple(record.nu_refined for record in records)
    if workload == "eval_scan":
        value = modules["besseval"].eval_function(
            entry["kind"], entry["nu"], entry["x"])
        return (value.mantissa, value.log_scale)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = modules["cli"].main(list(entry["argv"]))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return (code, out.getvalue())
