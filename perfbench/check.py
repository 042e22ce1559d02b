"""Check every operation's output against the mpmath oracle.

`expected_values` computes, before the timed run, the reference values that
a pool needs; `verify` decides whether one output is right and returns the
reason when it is not. An operation fails when it raised, exited non-zero or
returned a number outside the oracle tolerance:

* refined zeros: 1e-12 relative, the bar of the test suite;
* asymptotic estimates (the package and the oracle evaluate the same
  formula): 1e-12 relative;
* function values: 1e-8 relative to the function itself;
* coefficients: 1e-10 relative plus 1e-13 absolute, since some C_k and b_k
  cross zero;
* numbers printed with d decimals: half a unit in the last place on top.

CLI numbers are parsed from the text, CSV or JSON output, so a change that
moves only the last printed digit of a right answer does not fail.
"""

from __future__ import annotations

import json
import math
import re

import oracle

ZERO_RTOL = 1e-12
ESTIMATE_RTOL = 1e-12
VALUE_RTOL = 1e-8
COEFF_RTOL = 1e-10
COEFF_ATOL = 1e-13
TABLE_NS = (1, 2, 3, 4, 5, 10, 20, 50)
TABLE_KINDS = {1: ("L", "K"), 2: ("F", "G")}
CSV_HEADER = "kind,n,x,zero,asymptotic,discrepancy"

_MP = oracle.CTX


class _Zeros:
    """True zeros and estimate partials, computed once per (kind, x, n)."""

    def __init__(self):
        self.zeros: dict = {}
        self.partials: dict = {}

    def need(self, kind: str, x: float, ns) -> None:
        missing = [n for n in ns if (kind, x, n) not in self.zeros]
        if not missing:
            return
        for n, root in oracle.true_zeros(kind, x, missing).items():
            self.zeros[kind, x, n] = root
            self.partials[kind, x, n] = oracle.partials(kind, x, n)


def expected_values(workload: str, pool: list[dict]) -> list:
    """The reference values each pool entry is checked against."""
    zeros = _Zeros()
    out = []
    for entry in pool:
        if workload == "eval_scan" or entry.get("command") == "eval":
            out.append(oracle.function_value(entry["kind"], entry["nu"],
                                             entry["x"]))
        elif workload == "zeros_enumerate" or entry["command"] == "zeros":
            ns = range(1, entry["n_max"] + 1)
            zeros.need(entry["kind"], entry["x"], ns)
            out.append(zeros)
        elif entry["command"] == "table":
            for kind in TABLE_KINDS[entry["table"]]:
                zeros.need(kind, entry["x"], TABLE_NS)
            out.append(zeros)
        else:
            out.append(oracle.coefficients(entry["kind"], entry["x"],
                                           range(1, entry["n_max"] + 1)))
    return out


class Mismatch(Exception):
    """An output disagrees with the oracle; the message says where."""


def _close(what: str, got: float, want, rtol: float, atol: float = 0.0):
    if want is None:
        raise Mismatch(f"{what}: no reference value exists")
    if not math.isfinite(got) or abs(_MP.mpf(got) - want) > \
            rtol * abs(want) + atol:
        raise Mismatch(f"{what}: got {got!r}, want {_MP.nstr(want, 17)}")


def _value(what: str, mantissa: float, log_scale: float, want) -> None:
    got = _MP.mpf(mantissa) * _MP.exp(log_scale)
    if abs(got - want) > VALUE_RTOL * abs(want):
        raise Mismatch(f"{what}: got {_MP.nstr(got, 17)}, "
                       f"want {_MP.nstr(want, 17)}")


def _zero_record(zeros: _Zeros, kind: str, x: float, n: int, refined: float,
                 asymptotic: float, discrepancy: float | None = None,
                 decimals: int | None = None) -> None:
    true = zeros.zeros[kind, x, n]
    estimate = zeros.partials[kind, x, n][3]
    where = f"{kind} n={n} x={x!r}"
    slack = 0.0 if decimals is None else 0.5 * 10.0 ** -decimals
    _close(f"zero {where}", refined, true, ZERO_RTOL, slack)
    _close(f"estimate {where}", asymptotic, estimate, ESTIMATE_RTOL, slack)
    if discrepancy is not None and true is not None:
        _close(f"discrepancy {where}", discrepancy, abs(estimate - true),
               0.0, 2 * ZERO_RTOL * abs(true))


def _records_json(zeros, entry, items, kinds_ns) -> None:
    if len(items) != len(kinds_ns):
        raise Mismatch(f"{len(items)} records, want {len(kinds_ns)}")
    for item, (kind, n) in zip(items, kinds_ns):
        if "error" in item:
            raise Mismatch(f"{kind} n={n}: {item['error']}")
        if (item["kind"], item["n"], item["x"]) != (kind, n, entry["x"]):
            raise Mismatch(f"record {item['kind']} n={item['n']} "
                           f"x={item['x']!r} out of place")
        _zero_record(zeros, kind, entry["x"], n, item["nu_refined"],
                     item["nu_asymptotic"], item["discrepancy"])


def _records_csv(zeros, entry, text, kinds_ns) -> None:
    lines = text.splitlines()
    if lines[:1] != [CSV_HEADER] or len(lines) != len(kinds_ns) + 1:
        raise Mismatch("CSV header or row count differs")
    for line, (kind, n) in zip(lines[1:], kinds_ns):
        fields = line.split(",")
        if fields[:3] != [kind, str(n), repr(entry["x"])]:
            raise Mismatch(f"CSV row {line!r} out of place")
        if "error" in fields:
            raise Mismatch(f"{kind} n={n}: error")
        _zero_record(zeros, kind, entry["x"], n, float(fields[3]),
                     float(fields[4]), float(fields[5]))


def _table_text(zeros, entry, text) -> None:
    a, b = TABLE_KINDS[entry["table"]]
    rows = text.splitlines()[2:]
    if len(rows) != len(TABLE_NS):
        raise Mismatch("table row count differs")
    for row, n in zip(rows, TABLE_NS):
        fields = row.split()
        if fields[0] != str(n) or len(fields) != 5 or "error" in fields:
            raise Mismatch(f"table row {row!r}")
        for kind, (zero, estimate) in ((a, fields[1:3]), (b, fields[3:5])):
            _zero_record(zeros, kind, entry["x"], n, float(zero),
                         float(estimate), decimals=6)


def _zeros_text(zeros, entry, text) -> None:
    kind, x = entry["kind"], entry["x"]
    rows = text.splitlines()[2:]
    if len(rows) != entry["n_max"]:
        raise Mismatch("zeros row count differs")
    for n, row in enumerate(rows, start=1):
        fields = row.split()
        if fields[0] != str(n):
            raise Mismatch(f"zeros row {row!r} out of place")
        partials = zeros.partials[kind, x, n]
        for k in range(4):
            _close(f"partial{k} {kind} n={n}", float(fields[1 + k]),
                   partials[k], ESTIMATE_RTOL, 0.5e-8)
        true = zeros.zeros[kind, x, n]
        _close(f"zero {kind} n={n}", float(fields[5]), true, ZERO_RTOL,
               0.5e-8)
        if true is not None:
            _close(f"discrepancy {kind} n={n}", float(fields[6]),
                   abs(partials[3] - true), 5e-4, 2 * ZERO_RTOL * abs(true))


def _coeffs(entry, payload: dict, want: dict) -> None:
    def close_all(what, got, values):
        if len(got) != len(values):
            raise Mismatch(f"{what}: {len(got)} values, want {len(values)}")
        for i, (g, w) in enumerate(zip(got, values)):
            _close(f"{what}[{i}]", g, w, COEFF_RTOL, COEFF_ATOL)

    if (payload["kind"], payload["x"]) != (entry["kind"], entry["x"]):
        raise Mismatch("coeffs for the wrong kind or x")
    close_all("chi", [payload["chi"]], [want["chi"]])
    for name in ("C", "a", "A"):
        close_all(name, payload[name], want[name])
    if len(payload["per_n"]) != len(want["per_n"]):
        raise Mismatch("coeffs per_n count differs")
    for got, ref in zip(payload["per_n"], want["per_n"]):
        if got["n"] != ref["n"]:
            raise Mismatch(f"coeffs n={got['n']} out of place")
        where = f"n={ref['n']}"
        close_all(f"m {where}", [got["m"]], [ref["m"]])
        close_all(f"xi {where}", [got["xi"]], [ref["xi"]])
        close_all(f"b {where}", got["b"], ref["b"])
        close_all(f"B {where}", got["B"], ref["B"])


_EVAL_TEXT = re.compile(r"mantissa=(\S+) log_scale=(\S+) value=\S+$")


def _cli(entry: dict, want, output: tuple) -> None:
    code, text = output
    if code != 0:
        raise Mismatch(f"exit code {code}")
    command, fmt = entry["command"], entry.get("format")
    if command == "eval":
        if fmt == "json":
            payload = json.loads(text)
            mantissa, log_scale = payload["mantissa"], payload["log_scale"]
        else:
            match = _EVAL_TEXT.search(text.strip())
            if match is None:
                raise Mismatch(f"unparsed eval output {text!r}")
            mantissa, log_scale = float(match[1]), float(match[2])
        _value("eval", mantissa, log_scale, want)
    elif command == "coeffs":
        _coeffs(entry, json.loads(text), want)
    elif command == "table":
        kinds_ns = [(kind, n) for kind in TABLE_KINDS[entry["table"]]
                    for n in TABLE_NS]
        if fmt == "json":
            _records_json(want, entry, json.loads(text), kinds_ns)
        elif fmt == "csv":
            _records_csv(want, entry, text, kinds_ns)
        else:
            _table_text(want, entry, text)
    else:
        kinds_ns = [(entry["kind"], n) for n in range(1, entry["n_max"] + 1)]
        if fmt == "json":
            _records_json(want, entry, json.loads(text), kinds_ns)
        elif fmt == "csv":
            _records_csv(want, entry, text, kinds_ns)
        else:
            _zeros_text(want, entry, text)


def verify(workload: str, entry: dict, want, output) -> str | None:
    """None when the output is right, else why the operation failed."""
    if output[0] == "error":
        return f"raised {output[1]}"
    try:
        if workload == "zeros_enumerate":
            if len(output) != entry["n_max"]:
                raise Mismatch(f"{len(output)} zeros, want {entry['n_max']}")
            for n, got in enumerate(output, start=1):
                _close(f"zero {entry['kind']} n={n}", got,
                       want.zeros[entry["kind"], entry["x"], n], ZERO_RTOL)
        elif workload == "eval_scan":
            _value("value", output[0], output[1], want)
        else:
            _cli(entry, want, output)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
    return None

