"""Command-line front end.

Four subcommands: `eval` prints one function value in scaled and plain form,
`zeros` computes and refines the zeros n = 1..n_max of one function in the
paper's numbering, `table` reproduces the reference-table layout (refined
zero next to the three-correction asymptotic estimate for a pair of
functions), and `coeffs` dumps the coefficient pipeline as JSON for audit.

The paper's n is an asymptotic label, and its n = 1 can lie above real
zeros: F at x = 4 also vanishes at 3.7314 and 6.6706, below its n = 1 at
8.8895. `zeros` does not list such zeros.

Output is a pure function of the parsed arguments: identical invocations
produce byte-identical output. A `table` cell that fails prints `error` in
place of its numbers (or an "error" entry in json) and one
`error: <kind> n=<n>: <reason>` line on stderr. Exit codes: 0 success, 1
stdout closed early, 2 domain error, 3 convergence or bracketing failure,
as for K and G zeros at x = 0.005, below the validated floor x = 0.01.
In-process `main` calls share one argument parser, built on the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .asymcoeff import coefficient_set, correction_coefficients
from .besseval import FunctionKind, eval_function
from .errors import ConvergenceError, DomainError, EnumerationError
from .zerofinder import (ZeroRecord, _estimator, _positive_int,
                         asymptotic_zero, enumerate_zeros, leading_xi,
                         refine_zero)

__all__ = ["main", "build_parser"]

CSV_HEADER = "kind,n,x,zero,asymptotic,discrepancy"

_KIND_CHOICES = [kind.value for kind in FunctionKind]

_TABLE_KINDS = {1: (FunctionKind.L, FunctionKind.K),
                2: (FunctionKind.F, FunctionKind.G)}
_TABLE_NS = (1, 2, 3, 4, 5, 10, 20, 50)

_EXIT_OK = 0
_EXIT_BROKEN_PIPE = 1
_EXIT_DOMAIN = 2
_EXIT_CONVERGENCE = 3


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, EnumerationError):
        exc = exc.__cause__
    return _EXIT_DOMAIN if isinstance(exc, DomainError) else _EXIT_CONVERGENCE


def _record_json(record: ZeroRecord) -> dict:
    return {
        "kind": record.kind.value,
        "n": record.n,
        "x": record.x,
        "nu_asymptotic": record.nu_asymptotic,
        "nu_refined": record.nu_refined,
        "discrepancy": record.discrepancy,
        "residual_mantissa": record.residual.mantissa,
        "residual_log_scale": record.residual.log_scale,
    }


def _record_csv(record: ZeroRecord) -> str:
    return (f"{record.kind.value},{record.n},{record.x!r},"
            f"{record.nu_refined!r},{record.nu_asymptotic!r},"
            f"{record.discrepancy!r}")


def _table_cell(kind: FunctionKind, n: int, x: float,
                cell: ZeroRecord | Exception, fmt: str) -> dict | str:
    # A json or csv table cell: its record, or the error in its place.
    if not isinstance(cell, Exception):
        return _record_json(cell) if fmt == "json" else _record_csv(cell)
    if fmt == "json":
        return {"kind": kind.value, "n": n, "x": x, "error": str(cell)}
    return f"{kind.value},{n},{x!r},error,error,error"


def cmd_eval(args: argparse.Namespace, out) -> int:
    """Evaluate one function at (nu, x) and print scaled and plain forms."""
    kind = FunctionKind.coerce(args.kind)
    value = eval_function(kind, args.nu, args.x)
    plain = value.plain()
    if args.format == "json":
        payload = {"kind": kind.value, "nu": args.nu, "x": args.x,
                   "mantissa": value.mantissa, "log_scale": value.log_scale,
                   "value": plain}
        out.write(json.dumps(payload) + "\n")
    else:
        plain_text = repr(plain) if plain is not None else "overflow"
        out.write(
            f"{kind.value}(nu={args.nu!r}, x={args.x!r}): "
            f"mantissa={value.mantissa!r} log_scale={value.log_scale!r} "
            f"value={plain_text}\n")
    return _EXIT_OK


def cmd_zeros(args: argparse.Namespace, out) -> int:
    """Compute, refine, and report zeros n = 1..n_max (or a single n)."""
    kind = FunctionKind.coerce(args.kind)
    if args.n is not None:
        records = [refine_zero(asymptotic_zero(kind, args.n, args.x))]
    else:
        records = enumerate_zeros(kind, args.x, args.n_max)
    # Report the partial sum --order selects; records report partial[3].
    order = args.order
    if order != 3:
        records = [r._replace(nu_asymptotic=r.partial[order],
                              discrepancy=abs(r.partial[order] - r.nu_refined))
                   for r in records]

    if args.format == "json":
        out.write(json.dumps([_record_json(r) for r in records]) + "\n")
    elif args.format == "csv":
        lines = [CSV_HEADER] + [_record_csv(r) for r in records]
        out.write("\n".join(lines) + "\n")
    else:
        out.write(f"zeros of {kind.value} at x = {args.x!r}, "
                  f"order = {args.order}\n")
        out.write(f"{'n':>4} {'partial0':>13} {'partial1':>13} "
                  f"{'partial2':>13} {'partial3':>13} {'refined':>13} "
                  f"{'discrepancy':>12} {'width':>10} "
                  f"{'res_mantissa':>13} {'res_log':>10}\n")
        for record in records:
            p = record.partial
            width = record.bracket[1] - record.bracket[0]
            out.write(
                f"{record.n:>4} {p[0]:>13.8f} {p[1]:>13.8f} {p[2]:>13.8f} "
                f"{p[3]:>13.8f} {record.nu_refined:>13.8f} "
                f"{record.discrepancy:>12.3e} {width:>10.3e} "
                f"{record.residual.mantissa:>13.6f} "
                f"{record.residual.log_scale:>10.3f}\n")
    return _EXIT_OK


def cmd_table(args: argparse.Namespace, out) -> int:
    """Reproduce one reference table: refined and asymptotic zero columns."""
    kinds = _TABLE_KINDS[args.table]
    cells: dict[tuple[FunctionKind, int], ZeroRecord | Exception] = {}
    code = _EXIT_OK
    for kind in kinds:
        # One coefficient pass per kind; a cell that cannot make it records
        # the error, and the next cell tries again.
        estimate_of = None
        for n in _TABLE_NS:
            try:
                if estimate_of is None:
                    estimate_of = _estimator(kind, args.x)
                cells[kind, n] = refine_zero(estimate_of(n))
            except (DomainError, ConvergenceError) as exc:
                cells[kind, n] = exc
                code = max(code, _exit_code_for(exc))
                sys.stderr.write(f"error: {kind.value} n={n}: {exc}\n")

    if args.format != "text":
        # The cells were filled kind by kind and n by n, the order of rows.
        rows = [_table_cell(kind, n, args.x, cell, args.format)
                for (kind, n), cell in cells.items()]
        body = (json.dumps(rows) if args.format == "json"
                else "\n".join([CSV_HEADER] + rows))
        out.write(body + "\n")
    else:
        a, b = kinds
        out.write(f"Table {args.table} (x = {args.x!r})\n")
        out.write(f"{'n':>4} {a.value + ' zero':>12} "
                  f"{a.value + ' asymptotic':>14} {b.value + ' zero':>12} "
                  f"{b.value + ' asymptotic':>14}\n")
        for n in _TABLE_NS:
            row = [f"{n:>4}"]
            for kind, w in ((a, 12), (b, 12)):
                cell = cells[kind, n]
                if isinstance(cell, Exception):
                    row.append(f"{'error':>{w}} {'error':>14}")
                else:
                    row.append(f"{cell.nu_refined:>{w}.6f} "
                               f"{cell.nu_asymptotic:>14.6f}")
            out.write(" ".join(row) + "\n")
    return code


def cmd_coeffs(args: argparse.Namespace, out) -> int:
    """Dump the coefficient pipeline (C, a, A and per-n b, B) as JSON."""
    kind = FunctionKind.coerce(args.kind)
    if args.n is not None:
        ns = [_positive_int("n", args.n)]
    else:
        ns = range(1, _positive_int("n_max", args.n_max) + 1)
    coeffs = coefficient_set(args.x, kind.family)
    lambda_ = 2.0 / (math.e * args.x)
    # Every value of the dump in output order, encoded by one call of the C
    # encoder (json.dumps with indent falls back to pure Python) and filled
    # into the indent=1 layout. No value text contains ", ": numbers, NaN
    # and Infinity never do, nor do the kind letter and the family name.
    values = [kind.value, args.x, coeffs.family, coeffs.chi,
              *coeffs.C, *coeffs.a, *coeffs.A]
    for n in ns:
        m = kind.m_value(n)
        xi = leading_xi(m, lambda_)
        correction = correction_coefficients(coeffs.A, xi, m)
        values += (n, m, xi, *correction.b, *correction.B)
    head = ('{\n "kind": %s,\n "x": %s,\n "family": %s,\n "chi": %s,\n'
            f' "C": {_json_list(1, len(coeffs.C))},\n'
            f' "a": {_json_list(1, len(coeffs.a))},\n'
            f' "A": {_json_list(1, len(coeffs.A))},\n "per_n": [\n')
    row = ('  {\n   "n": %s,\n   "m": %s,\n   "xi": %s,\n'
           f'   "b": {_json_list(3, len(correction.b))},\n'
           f'   "B": {_json_list(3, len(correction.B))}\n  }}')
    layout = head + ",\n".join([row] * len(ns)) + "\n ]\n}\n"
    out.write(layout % tuple(json.dumps(values)[1:-1].split(", ")))
    return _EXIT_OK


def _json_list(depth: int, length: int) -> str:
    # The json.dumps(indent=1) layout of a nonempty list of `length` values
    # nested `depth` levels deep, one %s slot per value.
    return ("[" + ",".join(["\n" + " " * (depth + 1) + "%s"] * length)
            + "\n" + " " * depth + "]")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line; `main` builds one and reuses it."""
    parser = argparse.ArgumentParser(
        prog="imbessel",
        description="Evaluate Bessel functions of imaginary order and "
                    "compute their nu-zeros.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at (nu, x)")
    p_eval.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p_eval.add_argument("--nu", required=True, type=float)
    p_eval.add_argument("--x", type=float, default=1.0)
    p_eval.add_argument("--format", choices=["text", "json"], default="text")
    p_eval.set_defaults(run=cmd_eval)

    p_zeros = sub.add_parser("zeros", help="compute and refine nu-zeros")
    p_zeros.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p_zeros.add_argument("--x", type=float, default=1.0)
    # A str default is parsed like given text, so --n-max 5 conflicts too.
    indices = p_zeros.add_mutually_exclusive_group()
    indices.add_argument("--n", type=int, default=None)
    indices.add_argument("--n-max", type=int, default="5")
    p_zeros.add_argument("--order", type=int, choices=[0, 1, 2, 3], default=3)
    p_zeros.add_argument("--format", choices=["text", "csv", "json"],
                         default="text")
    p_zeros.set_defaults(run=cmd_zeros)

    p_table = sub.add_parser("table", help="reproduce a reference table")
    p_table.add_argument("--table", type=int, choices=[1, 2], default=1)
    p_table.add_argument("--x", type=float, default=1.0)
    p_table.add_argument("--format", choices=["text", "csv", "json"],
                         default="text")
    p_table.set_defaults(run=cmd_table)

    p_coeffs = sub.add_parser("coeffs", help="dump the coefficient pipeline")
    p_coeffs.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p_coeffs.add_argument("--x", type=float, default=1.0)
    indices = p_coeffs.add_mutually_exclusive_group()
    indices.add_argument("--n", type=int, default=None)
    indices.add_argument("--n-max", type=int, default="5")
    p_coeffs.set_defaults(run=cmd_coeffs)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main call, not at import; parsing leaves it as built.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    try:
        code = args.run(args, sys.stdout)
        sys.stdout.flush()
        return code
    except (DomainError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, EnumerationError) and exc.partial:
            sys.stderr.write(
                f"completed {len(exc.partial)} record(s) before the "
                f"failure\n")
        return _exit_code_for(exc)
    except BrokenPipeError:
        # stdout closed early, at a write or at the flush above. Point it at
        # devnull so the flush at interpreter exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
