"""Command-line front end.

Four subcommands: `eval` prints one function value in scaled and plain form,
`zeros` computes and refines the zeros n = 1..n_max of one function in the
paper's numbering, `table` reproduces the reference-table layout (refined
zero next to the three-correction asymptotic estimate for a pair of
functions), and `coeffs` dumps the coefficient pipeline as JSON for audit.

The paper's n is an asymptotic label, and its n = 1 can lie above real
zeros: F at x = 4 also vanishes at 3.7314 and 6.6706, below its n = 1 at
8.8895. `zeros` does not list such zeros.

Output is a pure function of the parsed configuration: identical invocations
produce byte-identical output. A `table` cell that fails prints `error` in
place of its numbers (or an "error" entry in json) and one
`error: <kind> n=<n>: <reason>` line on stderr. Exit codes: 0 success, 1
stdout closed early, 2 domain error, 3 convergence or bracketing failure.
In-process `main` calls share one argument parser, built on the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from .asymcoeff import coefficient_set, correction_coefficients
from .besseval import FunctionKind, eval_function
from .errors import ConvergenceError, DomainError, EnumerationError
from .zerofinder import (ZeroRecord, _estimator, _positive_int,
                         asymptotic_zero, enumerate_zeros, leading_xi,
                         refine_zero)

__all__ = ["RunConfig", "main", "build_parser"]

CSV_HEADER = "kind,n,x,zero,asymptotic,discrepancy"

_KIND_CHOICES = [kind.value for kind in FunctionKind]

_TABLE_KINDS = {1: (FunctionKind.L, FunctionKind.K),
                2: (FunctionKind.F, FunctionKind.G)}
_TABLE_NS = (1, 2, 3, 4, 5, 10, 20, 50)

_EXIT_OK = 0
_EXIT_BROKEN_PIPE = 1
_EXIT_DOMAIN = 2
_EXIT_CONVERGENCE = 3


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; defaults reproduce the reference setting x = 1."""

    command: str
    kind: str | None = None
    nu: float | None = None
    x: float = 1.0
    n: int | None = None
    n_max: int = 5
    order: int = 3
    tol: float = 1e-12
    format: str = "text"
    table: int = 1


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, EnumerationError):
        cause = exc.__cause__
        if isinstance(cause, DomainError):
            return _EXIT_DOMAIN
        return _EXIT_CONVERGENCE
    if isinstance(exc, DomainError):
        return _EXIT_DOMAIN
    return _EXIT_CONVERGENCE


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
    return ",".join([
        record.kind.value,
        str(record.n),
        repr(record.x),
        repr(record.nu_refined),
        repr(record.nu_asymptotic),
        repr(record.discrepancy),
    ])


def cmd_eval(config: RunConfig, out) -> int:
    """Evaluate one function at (nu, x) and print scaled and plain forms."""
    kind = FunctionKind.coerce(config.kind)
    value = eval_function(kind, config.nu, config.x)
    plain = value.plain()
    if config.format == "json":
        payload = {
            "kind": kind.value,
            "nu": config.nu,
            "x": config.x,
            "mantissa": value.mantissa,
            "log_scale": value.log_scale,
            "value": plain,
        }
        out.write(json.dumps(payload) + "\n")
    else:
        plain_text = repr(plain) if plain is not None else "overflow"
        out.write(
            f"{kind.value}(nu={config.nu!r}, x={config.x!r}): "
            f"mantissa={value.mantissa!r} log_scale={value.log_scale!r} "
            f"value={plain_text}\n")
    return _EXIT_OK


def cmd_zeros(config: RunConfig, out) -> int:
    """Compute, refine, and report zeros n = 1..n_max (or a single n)."""
    kind = FunctionKind.coerce(config.kind)
    if config.n is not None:
        estimate = asymptotic_zero(kind, config.n, config.x, config.order)
        records = [refine_zero(kind, config.n, config.x, estimate,
                               config.tol)]
    else:
        records = enumerate_zeros(kind, config.x, config.n_max,
                                  config.order, config.tol)

    if config.format == "json":
        out.write(json.dumps([_record_json(r) for r in records]) + "\n")
    elif config.format == "csv":
        lines = [CSV_HEADER] + [_record_csv(r) for r in records]
        out.write("\n".join(lines) + "\n")
    else:
        out.write(f"zeros of {kind.value} at x = {config.x!r}, "
                  f"order = {config.order}\n")
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


def cmd_table(config: RunConfig, out) -> int:
    """Reproduce one reference table: refined and asymptotic zero columns."""
    kinds = _TABLE_KINDS[config.table]
    cells: dict[tuple[str, int], ZeroRecord | Exception] = {}
    code = _EXIT_OK
    for kind in kinds:
        # One coefficient set per kind; a cell that cannot build it records
        # the error, and the next cell tries again.
        estimate_of = None
        for n in _TABLE_NS:
            try:
                if estimate_of is None:
                    estimate_of = _estimator(kind, config.x, 3)
                cells[kind.value, n] = refine_zero(kind, n, config.x,
                                                   estimate_of(n), config.tol)
            except (DomainError, ConvergenceError) as exc:
                cells[kind.value, n] = exc
                code = max(code, _exit_code_for(exc))
                sys.stderr.write(f"error: {kind.value} n={n}: {exc}\n")

    if config.format == "json":
        payload = []
        for kind in kinds:
            for n in _TABLE_NS:
                cell = cells[kind.value, n]
                if isinstance(cell, Exception):
                    payload.append({"kind": kind.value, "n": n,
                                    "x": config.x, "error": str(cell)})
                else:
                    payload.append(_record_json(cell))
        out.write(json.dumps(payload) + "\n")
    elif config.format == "csv":
        lines = [CSV_HEADER]
        for kind in kinds:
            for n in _TABLE_NS:
                cell = cells[kind.value, n]
                if isinstance(cell, Exception):
                    lines.append(f"{kind.value},{n},{config.x!r},"
                                 f"error,error,error")
                else:
                    lines.append(_record_csv(cell))
        out.write("\n".join(lines) + "\n")
    else:
        a, b = kinds
        out.write(f"Table {config.table} (x = {config.x!r})\n")
        out.write(f"{'n':>4} {a.value + ' zero':>12} "
                  f"{a.value + ' asymptotic':>14} {b.value + ' zero':>12} "
                  f"{b.value + ' asymptotic':>14}\n")
        for n in _TABLE_NS:
            row = [f"{n:>4}"]
            for kind, w in ((a, 12), (b, 12)):
                cell = cells[kind.value, n]
                if isinstance(cell, Exception):
                    row.append(f"{'error':>{w}} {'error':>14}")
                else:
                    row.append(f"{cell.nu_refined:>{w}.6f} "
                               f"{cell.nu_asymptotic:>14.6f}")
            out.write(" ".join(row) + "\n")
    return code


def cmd_coeffs(config: RunConfig, out) -> int:
    """Dump the coefficient pipeline (C, a, A and per-n b, B) as JSON."""
    kind = FunctionKind.coerce(config.kind)
    if config.n is not None:
        ns = [_positive_int("n", config.n)]
    else:
        ns = range(1, _positive_int("n_max", config.n_max) + 1)
    coeffs = coefficient_set(config.x, kind.family)
    lambda_ = 2.0 / (math.e * config.x)
    per_n = []
    for n in ns:
        m = kind.m_value(n)
        xi = leading_xi(m, lambda_)
        correction = correction_coefficients(list(coeffs.A), xi, m)
        per_n.append({
            "n": n,
            "m": m,
            "xi": xi,
            "b": list(correction.b),
            "B": list(correction.B),
        })
    payload = {
        "kind": kind.value,
        "x": config.x,
        "family": coeffs.family,
        "chi": coeffs.chi,
        "C": list(coeffs.C),
        "a": list(coeffs.a),
        "A": list(coeffs.A),
        "per_n": per_n,
    }
    out.write(json.dumps(payload, indent=1) + "\n")
    return _EXIT_OK


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

    p_zeros = sub.add_parser("zeros", help="compute and refine nu-zeros")
    p_zeros.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p_zeros.add_argument("--x", type=float, default=1.0)
    p_zeros.add_argument("--n", type=int, default=None)
    p_zeros.add_argument("--n-max", type=int, default=5)
    p_zeros.add_argument("--order", type=int, choices=[0, 1, 2, 3], default=3)
    p_zeros.add_argument("--tol", type=float, default=1e-12)
    p_zeros.add_argument("--format", choices=["text", "csv", "json"],
                         default="text")

    p_table = sub.add_parser("table", help="reproduce a reference table")
    p_table.add_argument("--table", type=int, choices=[1, 2], default=1)
    p_table.add_argument("--x", type=float, default=1.0)
    p_table.add_argument("--tol", type=float, default=1e-12)
    p_table.add_argument("--format", choices=["text", "csv", "json"],
                         default="text")

    p_coeffs = sub.add_parser("coeffs", help="dump the coefficient pipeline")
    p_coeffs.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p_coeffs.add_argument("--x", type=float, default=1.0)
    p_coeffs.add_argument("--n", type=int, default=None)
    p_coeffs.add_argument("--n-max", type=int, default=5)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main call, not at import; parsing leaves it as built.
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {"command": args.command}
    for name in ("kind", "nu", "x", "n", "n_max", "order", "tol", "format",
                 "table"):
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    config = _config_from_args(args)
    command = {
        "eval": cmd_eval,
        "zeros": cmd_zeros,
        "table": cmd_table,
        "coeffs": cmd_coeffs,
    }[config.command]
    try:
        code = command(config, sys.stdout)
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
