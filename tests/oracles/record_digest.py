"""Print two SHA-256 digests that pin refined zeros and CLI output bit for bit.

The first digest covers every field of every ZeroRecord, floats as
float.hex, from enumerate_zeros for each kind, x in XS and n <= N_MAX. The
second covers the exit code, stdout and stderr of each argv in CLI_ARGVS,
run in-process through imbessel.cli.main: every command, every format, every
--order value and the error exits.

Run it in two checkouts on one machine and compare the lines: a change that
claims the same bits must print the same digests. It is not a test, because
the digests depend on the platform's libm.

Run:  python3 tests/oracles/record_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from imbessel import FunctionKind, enumerate_zeros  # noqa: E402
from imbessel.cli import main  # noqa: E402

XS = (0.5, 1.0, 2.0, 4.0, 8.0)
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


def _hex(value: object) -> str:
    # Floats as float.hex, tuples field by field, anything else by str.
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(" + ",".join(_hex(item) for item in value) + ")"
    if isinstance(value, FunctionKind):
        return value.value
    return str(value)


def record_digest() -> tuple[str, int]:
    digest, count = hashlib.sha256(), 0
    for kind in FunctionKind:
        for x in XS:
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


if __name__ == "__main__":
    print("records %s %d" % record_digest())
    print("cli %s %d" % cli_digest())
