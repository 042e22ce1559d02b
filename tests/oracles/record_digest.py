"""Print five SHA-256 digests that pin zeros, CLI output and evaluations.

The first digest covers every field of every ZeroRecord, floats as
float.hex, from enumerate_zeros for each kind, x in XS and n <= N_MAX. The
second covers the exit code, stdout and stderr of each argv in CLI_ARGVS,
run in-process through imbessel.cli.main: every command, every format, every
--order value and the error exits. The third covers EVAL_POINTS seeded
points (nu, x, z): eval_function and detection_value for every kind,
series_sum for both families at +-nu, and log_gamma at z off the line
1 + i nu, with nu from 1e-3 to 1e4 (with and without the shift loop)
and x from 1e-2 to 40, plus the inputs in EVAL_ERRORS;
a raised error counts by its class and message. The fourth and fifth are
the first for x in LARGE_XS and SMALL_XS instead; a tree that cannot
enumerate there raises on it after printing the lines before.

Run it in two checkouts on one machine and compare the lines: a change that
claims the same bits must print the same digests. It is not a test, because
the digests depend on the platform's libm.

Run:  python3 tests/oracles/record_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from imbessel import (FunctionKind, detection_value,  # noqa: E402
                      enumerate_zeros, eval_function, log_gamma, series_sum)
from imbessel.cli import main  # noqa: E402

XS = (0.5, 1.0, 2.0, 4.0, 8.0)
LARGE_XS = (10.0, 15.0, 20.0, 30.0)
SMALL_XS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4)
N_MAX = 500

CLI_ARGVS = (
    *(["eval", "--kind", kind, "--nu", "5", "--format", fmt]
      for kind in "LKFG" for fmt in ("text", "json")),
    ["eval", "--kind", "F", "--nu", "123.456", "--x", "2.5"],
    ["eval", "--kind", "L", "--nu", "1e306"],
    *(["zeros", "--kind", kind, "--n-max", "50", "--format", fmt]
      for kind in "LKFG" for fmt in ("text", "csv", "json")),
    *(["zeros", "--kind", "G", "--x", "2", "--n-max", "20", "--order", order]
      for order in "0123"),
    ["zeros", "--kind", "K", "--x", "4", "--n", "125", "--format", "json"],
    ["zeros", "--kind", "L", "--x", "0.5", "--n-max", "500", "--tol", "1e-9"],
    ["zeros", "--kind", "L", "--x", "10", "--n-max", "3"],
    *(["table", "--table", table, "--format", fmt]
      for table in "12" for fmt in ("text", "csv", "json")),
    ["table", "--table", "1", "--x", "5"],
    ["table", "--table", "2", "--x", "8", "--format", "json"],
    ["table", "--table", "1", "--x", "10"],
    *(["coeffs", "--kind", kind, "--n-max", "500"] for kind in "LKFG"),
    ["coeffs", "--kind", "F", "--x", "2", "--n", "7"],
    ["zeros", "--kind", "L", "--order", "4"],
)

EVAL_SEED = 20260101
EVAL_POINTS = 4000
# (nu, x, z) inputs that raise: nu at or below 0 or NU_MIN, x at or below
# 0, non-finite arguments, a series that does not converge or overflows, and
# z outside log_gamma's half-plane and modulus bound.
EVAL_ERRORS = (
    (0.0, 1.0, 0j), (-1.0, 1.0, -1 + 1j), (5e-4, 1.0, 1e154 + 0j),
    (1.0, 0.0, complex(1.0, math.inf)), (math.nan, -1.0, complex(math.nan)),
    (math.inf, math.inf, 1e200 + 1e200j), (1.0, 670.0, 0.5 - 2e154j),
    (5.0, 1e4, complex(-0.0, 3.0)),
)


def _hex(value: object) -> str:
    # Floats as float.hex, tuples field by field, anything else by str.
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return _hex((value.real, value.imag))
    if isinstance(value, tuple):
        return "(" + ",".join(_hex(item) for item in value) + ")"
    if isinstance(value, FunctionKind):
        return value.value
    return str(value)


def record_digest(xs: tuple[float, ...] = XS) -> tuple[str, int]:
    digest, count = hashlib.sha256(), 0
    for kind in FunctionKind:
        for x in xs:
            for record in enumerate_zeros(kind, x, N_MAX):
                digest.update((_hex(tuple(record)) + "\n").encode())
                count += 1
    return digest.hexdigest(), count


def cli_digest() -> tuple[str, int]:
    digest = hashlib.sha256()
    for argv in CLI_ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        digest.update(repr((argv, code, out.getvalue(),
                            err.getvalue())).encode())
    return digest.hexdigest(), len(CLI_ARGVS)


def _eval_points() -> list[tuple[float, float, complex]]:
    rng = random.Random(EVAL_SEED)
    points = []
    for _ in range(EVAL_POINTS):
        nu = 10.0 ** rng.uniform(-3.0, 4.0)
        x = 10.0 ** rng.uniform(-2.0, math.log10(40.0))
        z = complex(10.0 ** rng.uniform(-3.0, 3.0),
                    rng.uniform(-1.5, 1.5) * nu)
        points.append((nu, x, z))
    return points + list(EVAL_ERRORS)


def eval_digest() -> tuple[str, int]:
    digest, count = hashlib.sha256(), 0
    for nu, x, z in _eval_points():
        calls = [(function, (kind, nu, x)) for kind in FunctionKind
                 for function in (eval_function, detection_value)]
        calls += [(series_sum, (sign * nu, x, family)) for sign in (1.0, -1.0)
                  for family in ("modified", "ordinary")]
        calls.append((log_gamma, (z,)))
        for function, args in calls:
            try:
                result = _hex(function(*args))
            except Exception as exc:
                # Whatever a call raises is part of its output.
                result = f"{type(exc).__name__}: {exc}"
            digest.update(f"{function.__name__}{_hex(args)} {result}\n"
                          .encode())
            count += 1
    return digest.hexdigest(), count


if __name__ == "__main__":
    print("records %s %d" % record_digest())
    print("cli %s %d" % cli_digest())
    print("evals %s %d" % eval_digest())
    print("large_x %s %d" % record_digest(LARGE_XS))
    print("small_x %s %d" % record_digest(SMALL_XS))
