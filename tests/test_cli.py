"""Tests for the command-line interface: formats, values, exit codes."""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import imbessel.asymcoeff as asymcoeff
import imbessel.cli as cli
from imbessel import (BracketingError, EnumerationError, FunctionKind,
                      asymptotic_zero, coefficient_set,
                      correction_coefficients, enumerate_zeros, leading_xi,
                      main, refine_zero)

from golden import NS, TABLE_KINDS, TABLE_ZERO, dp6, fnum

_RECORD_KEYS = {"kind", "n", "x", "nu_asymptotic", "nu_refined",
                "discrepancy", "residual_mantissa", "residual_log_scale"}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _oracle_estimate(reference, kind: str, n: int) -> str:
    return dp6(fnum(reference["estimate_partials_x1"][kind][NS.index(n)][3]))


def _artifact_installed() -> bool:
    try:
        importlib.metadata.distribution("artifact")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _table_row(out: str, n: int) -> list[str]:
    for line in out.splitlines()[2:]:
        tokens = line.split()
        if tokens and tokens[0] == str(n):
            return tokens
    raise AssertionError(f"no row for n = {n} in output:\n{out}")


def test_parser_defaults_reproduce_the_reference_setting():
    parse = cli.build_parser().parse_args
    zeros = parse(["zeros", "--kind", "L"])
    assert (zeros.x, zeros.n, zeros.n_max, zeros.order) == (1.0, None, 5, 3)
    assert zeros.format == "text"
    table = parse(["table"])
    assert (table.table, table.x, table.format) == (1, 1.0, "text")
    evaluate = parse(["eval", "--kind", "K", "--nu", "2"])
    assert (evaluate.x, evaluate.format) == (1.0, "text")
    coeffs = parse(["coeffs", "--kind", "F"])
    assert (coeffs.x, coeffs.n, coeffs.n_max) == (1.0, None, 5)


def test_table1_text_layout_and_zero_columns(capsys):
    code, out, err = _run(capsys, ["table"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "Table 1 (x = 1.0)"
    assert lines[1].split() == ["n", "L", "zero", "L", "asymptotic",
                                "K", "zero", "K", "asymptotic"]
    assert len(lines) == 2 + len(NS)
    row = _table_row(out, 5)
    assert row[1] == dp6(TABLE_ZERO["L"][NS.index(5)])
    assert row[3] == dp6(TABLE_ZERO["K"][NS.index(5)])


def test_table1_estimate_columns_match_the_reference_table(capsys,
                                                           reference):
    code, out, _ = _run(capsys, ["table"])
    assert code == 0
    row = _table_row(out, 5)
    want = (_oracle_estimate(reference, "L", 5),
            _oracle_estimate(reference, "K", 5))
    assert (row[2], row[4]) == want, (
        f"computed estimate cells {(row[2], row[4])} differ from the "
        f"oracle's estimate_partials_x1 {want}")


def test_table2_text_zero_columns(capsys):
    code, out, _ = _run(capsys, ["table", "--table", "2"])
    assert code == 0
    assert out.splitlines()[0] == "Table 2 (x = 1.0)"
    row = _table_row(out, 20)
    assert row[1] == dp6(TABLE_ZERO["F"][NS.index(20)])
    assert row[3] == dp6(TABLE_ZERO["G"][NS.index(20)])


def test_table2_estimate_columns_match_the_reference_table(capsys,
                                                           reference):
    code, out, _ = _run(capsys, ["table", "--table", "2"])
    assert code == 0
    row = _table_row(out, 20)
    want = (_oracle_estimate(reference, "F", 20),
            _oracle_estimate(reference, "G", 20))
    assert (row[2], row[4]) == want, (
        f"computed estimate cells {(row[2], row[4])} differ from the "
        f"oracle's estimate_partials_x1 {want}")


@pytest.mark.parametrize("table", [1, 2])
def test_table_csv_parses_and_covers_both_kinds(capsys, table):
    code, out, _ = _run(capsys, ["table", "--table", str(table),
                                 "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 1 + 2 * len(NS)
    for line in lines[1:]:
        kind, n, x, zero, asym, disc = line.split(",")
        assert kind in TABLE_KINDS[table]
        assert int(n) in NS
        assert float(x) == 1.0
        assert abs(float(zero) - float(asym)) == pytest.approx(
            float(disc), rel=1e-12)


def test_table_json_rows_carry_the_record_keys(capsys):
    code, out, _ = _run(capsys, ["table", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2 * len(NS)
    for entry in payload:
        assert set(entry) == _RECORD_KEYS
        assert entry["kind"] in ("L", "K")
    zero_by_key = {(e["kind"], e["n"]): e["nu_refined"] for e in payload}
    for kind in ("L", "K"):
        for i, n in enumerate(NS):
            assert dp6(zero_by_key[kind, n]) == dp6(TABLE_ZERO[kind][i])


def _count_passes(monkeypatch) -> list:
    # The (x, family) of each coefficient pass, as it is made.
    calls = []
    expansion = asymcoeff._expansion

    def counting(*args):
        calls.append(args)
        return expansion(*args)

    monkeypatch.setattr(asymcoeff, "_expansion", counting)
    return calls


def test_table_makes_one_coefficient_pass_per_kind(capsys, monkeypatch):
    calls = _count_passes(monkeypatch)
    code, _, _ = _run(capsys, ["table", "--table", "2", "--x", "2.0"])
    assert code == 0
    assert calls == [(2.0, "ordinary"), (2.0, "ordinary")]


def test_coeffs_makes_one_coefficient_pass(capsys, monkeypatch):
    calls = _count_passes(monkeypatch)
    code, _, _ = _run(capsys, ["coeffs", "--kind", "K", "--n-max", "20"])
    assert code == 0
    # The published C0..C5 and a0..a5 need only a pass to order 6.
    assert calls == [(1.0, "modified", 6)]


def test_table_reports_an_invalid_x_in_every_cell(capsys):
    code, out, _ = _run(capsys, ["table", "--x", "-1", "--format", "json"])
    assert code == 2
    payload = json.loads(out)
    assert len(payload) == 2 * len(NS)
    assert {entry["error"] for entry in payload} == \
        {"asymptotic_zero requires x > 0, got -1.0"}


def test_zeros_text_header_and_refined_column(capsys):
    code, out, _ = _run(capsys, ["zeros", "--kind", "K", "--n-max", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "zeros of K at x = 1.0, order = 3"
    assert lines[1].split() == ["n", "partial0", "partial1", "partial2",
                                "partial3", "refined", "discrepancy",
                                "width", "res_mantissa", "res_log"]
    assert len(lines) == 2 + 3
    for i in range(3):
        tokens = lines[2 + i].split()
        assert len(tokens) == 10
        assert int(tokens[0]) == i + 1
        assert dp6(float(tokens[5])) == dp6(TABLE_ZERO["K"][i])


def test_zeros_text_estimate_column_matches_the_reference_table(capsys,
                                                                reference):
    code, out, _ = _run(capsys, ["zeros", "--kind", "K", "--n-max", "3"])
    assert code == 0
    tokens = out.splitlines()[2].split()
    got = dp6(float(tokens[4]))
    want = _oracle_estimate(reference, "K", 1)
    assert got == want, (
        f"computed three-correction estimate {got} differs from the "
        f"oracle's estimate_partials_x1 {want}")


def test_zeros_csv_single_n(capsys):
    code, out, _ = _run(capsys, ["zeros", "--kind", "G", "--n", "1",
                                 "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 2
    kind, n, x, zero, asym, disc = lines[1].split(",")
    assert (kind, n, x) == ("G", "1", "1.0")
    assert dp6(float(zero)) == dp6(TABLE_ZERO["G"][0])
    assert float(disc) == pytest.approx(abs(float(zero) - float(asym)),
                                        rel=1e-12)


def test_zeros_json_single_n_record(capsys, reference):
    code, out, _ = _run(capsys, ["zeros", "--kind", "K", "--n", "10",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    record = payload[0]
    assert set(record) == _RECORD_KEYS
    assert (record["kind"], record["n"], record["x"]) == ("K", 10, 1.0)
    true = fnum(reference["true_zeros_x1"]["K"][NS.index(10)])
    assert record["nu_refined"] == pytest.approx(true, rel=1e-12)
    assert record["discrepancy"] == pytest.approx(
        abs(record["nu_asymptotic"] - record["nu_refined"]), rel=1e-9)


def test_zeros_lower_order_estimates_are_coarser(capsys):
    _, out0, _ = _run(capsys, ["zeros", "--kind", "K", "--n", "10",
                               "--order", "0", "--format", "json"])
    _, out3, _ = _run(capsys, ["zeros", "--kind", "K", "--n", "10",
                               "--order", "3", "--format", "json"])
    disc0 = json.loads(out0)[0]["discrepancy"]
    disc3 = json.loads(out3)[0]["discrepancy"]
    assert disc3 < disc0


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_zeros_order_reports_that_partial_sum_of_the_records(capsys, order):
    # The library records carry partial[3]; --order picks the partial sum
    # the CLI reports and the discrepancy it prints, exactly.
    records = enumerate_zeros("G", 2.0, 12)
    records.append(refine_zero(asymptotic_zero("G", 40, 2.0)))
    _, out, _ = _run(capsys, ["zeros", "--kind", "G", "--x", "2.0",
                              "--n-max", "12", "--order", str(order),
                              "--format", "json"])
    _, single, _ = _run(capsys, ["zeros", "--kind", "G", "--x", "2.0",
                                 "--n", "40", "--order", str(order),
                                 "--format", "json"])
    rows = json.loads(out) + json.loads(single)
    assert [row["n"] for row in rows] == [record.n for record in records]
    for row, record in zip(rows, records):
        estimate = record.partial[order]
        assert row["nu_refined"] == record.nu_refined
        assert row["nu_asymptotic"] == estimate
        assert row["discrepancy"] == abs(estimate - record.nu_refined)


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["table", "--table", "2", "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_eval_text_reports_scaled_and_plain_forms(capsys):
    code, out, err = _run(capsys, ["eval", "--kind", "L", "--nu", "1.0"])
    assert code == 0
    assert err == ""
    assert out.startswith("L(nu=1.0, x=1.0): mantissa=")
    value = float(out.split("value=")[1])
    assert value > 0.0
    assert value == pytest.approx(0.517072739523502, rel=1e-12)


def _eval_value(capsys, kind: str, nu: float) -> float:
    code, out, _ = _run(capsys, ["eval", "--kind", kind, "--nu", repr(nu)])
    assert code == 0
    return float(out.split("value=")[1])


def test_eval_value_is_tiny_at_the_tabulated_first_k_zero(capsys):
    # At the 6-dp tabulated zero the function value should vanish to within
    # the rounding of the tabulated abscissa: |nu - zero| <= 5e-7, so
    # |K| <= 5e-7 * |K'| to first order.
    nu, h = 2.962549, 1e-6
    value = _eval_value(capsys, "K", nu)
    slope = (_eval_value(capsys, "K", nu + h)
             - _eval_value(capsys, "K", nu - h)) / (2.0 * h)
    bound = 5e-7 * abs(slope)
    assert abs(value) <= bound, (
        f"K at the tabulated zero evaluates to {value:.6e}, above the "
        f"{bound:.3e} that a 5e-7 rounding of the abscissa allows at slope "
        f"{slope:.4e}")


def test_eval_json_matches_the_integral_reference(capsys, reference):
    code, out, _ = _run(capsys, ["eval", "--kind", "K", "--nu", "1.0",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"kind", "nu", "x", "mantissa", "log_scale",
                            "value"}
    want = fnum(reference["k_integral_values"]["nu=1,x=1.0"])
    assert payload["value"] == pytest.approx(want, rel=1e-10)


def test_eval_domain_error_exits_2(capsys):
    code, out, err = _run(capsys, ["eval", "--kind", "L", "--nu", "0.0001"])
    assert code == 2
    assert out == ""
    assert err == "error: eval_function requires nu >= 0.001, got 0.0001\n"


def test_eval_non_finite_nu_exits_2(capsys):
    code, out, err = _run(capsys, ["eval", "--kind", "L", "--nu", "inf"])
    assert code == 2
    assert out == ""
    assert err == "error: eval_function requires nu >= 0.001, got inf\n"


@pytest.mark.parametrize("x", ["1e4", "2.7e154", "1e300"])
@pytest.mark.parametrize("kind", ["K", "F"])
def test_eval_of_an_overflowing_series_exits_3(capsys, kind, x):
    code, out, err = _run(capsys, ["eval", "--kind", kind, "--nu", "5",
                                   "--x", x])
    assert code == 3
    assert out == ""
    assert err == (f"error: series sum is not finite (nu=5.0, "
                   f"x={float(x)!r})\n")


_OVERFLOW = "coefficient_set cannot form finite coefficients at x = 1e+100"


@pytest.mark.parametrize("argv,prefix", [
    (["zeros", "--kind", "K", "--x", "1e100"],
     "error: enumeration of K zeros aborted at n = 1: "),
    (["coeffs", "--kind", "K", "--x", "1e100"], "error: "),
])
def test_an_x_too_large_for_the_coefficients_exits_2(capsys, argv, prefix):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == prefix + _OVERFLOW + "\n"


def test_a_table_at_an_x_too_large_for_the_coefficients_exits_2(capsys):
    code, out, _ = _run(capsys, ["table", "--x", "1e100", "--format",
                                 "json"])
    assert code == 2
    payload = json.loads(out)
    assert len(payload) == 2 * len(NS)
    assert {entry["error"] for entry in payload} == {_OVERFLOW}


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("x,want_code,first_reason", [
    ("1e100", 2, _OVERFLOW),
    ("100", 3, "no sign change of the detection value for L n=1 x=100.0"),
], ids=["x1e100", "x100"])
def test_table_writes_the_reason_for_each_failed_cell_to_stderr(
        capsys, fmt, x, want_code, first_reason):
    code, out, err = _run(capsys, ["table", "--x", x, "--format", fmt])
    _, json_out, json_err = _run(capsys, ["table", "--x", x, "--format",
                                          "json"])
    assert code == want_code
    failed = [e for e in json.loads(json_out) if "error" in e]
    want = [f"error: {e['kind']} n={e['n']}: {e['error']}" for e in failed]
    assert err.splitlines() == json_err.splitlines() == want
    assert err.startswith(f"error: L n=1: {first_reason}")
    # A failed cell prints "error" in each of its 2 text or 3 csv columns.
    assert out.count("error") == len(failed) * (2 if fmt == "text" else 3)
    assert len(failed) == (2 * len(NS) if x == "1e100" else 2)


def test_zeros_below_the_papers_range_exit_0_and_below_the_floor_exit_3(
        capsys):
    # At x = 0.05 the leading term of n = 1 is below 2, outside the range
    # the paper states its expansion for, and the zeros are refined as
    # anywhere; --n gives the same row as --n-max. At x = 0.005, below the
    # validated floor, K's n = 1 leaves its phase window.
    code, out, err = _run(capsys, ["zeros", "--kind", "L", "--x", "0.05"])
    assert (code, err) == (0, "")
    rows = out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["1", "2", "3", "4", "5"]
    code, one, err = _run(capsys, ["zeros", "--kind", "L", "--x", "0.05",
                                   "--n", "3"])
    assert (code, err, one.splitlines()[2:]) == (0, "", rows[2:3])
    code, out, err = _run(capsys, ["zeros", "--kind", "K", "--x", "0.005"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: enumeration of K zeros aborted at n = 1:")


def test_zeros_past_the_float_resolution_exits_2(capsys):
    code, out, err = _run(capsys, ["zeros", "--kind", "L", "--x", "1",
                                   "--n", "100000000000000000"])
    assert code == 2
    assert out == ""
    assert err == ("error: estimate nu = 8633691213897485.0 -+ 0.05 rounds "
                   "onto the estimate: L n=100000000000000000 x=1.0 is past "
                   "the float resolution\n")


def test_zeros_with_an_n_whose_estimate_overflows_exits_2(capsys):
    n = str(10 ** 100)
    code, out, err = _run(capsys, ["zeros", "--kind", "L", "--n", n])
    assert code == 2
    assert out == ""
    assert err == (f"error: the estimate of L n={n} x=1.0 overflows a "
                   f"float\n")


def test_coeffs_with_an_n_whose_phase_target_overflows_exits_2(capsys):
    # n + 1/4 cannot be a float past 1e308; zeros fails the same way.
    n = str(10 ** 400)
    want = f"error: the phase target m of L n={n} overflows a float\n"
    for command in ("coeffs", "zeros"):
        got = _run(capsys, [command, "--kind", "L", "--n", n])
        assert got == (2, "", want), command


_NOT_WITH_N = "argument --n-max: not allowed with argument --n"


@pytest.mark.parametrize("argv,reason", [
    # Every zero is refined to one fixed enclosure width.
    (["zeros", "--kind", "K", "--tol", "1e-9"],
     "unrecognized arguments: --tol 1e-9"),
    (["table", "--tol", "1e-9"], "unrecognized arguments: --tol 1e-9"),
    # One zero or the first n_max, never both; 5 is --n-max's default.
    *(([command, "--kind", "K", "--n", "3", "--n-max", n_max], _NOT_WITH_N)
      for command in ("zeros", "coeffs") for n_max in ("10", "5")),
    (["zeros", "--kind", "K", "--n-max", "5", "--n", "3"],
     "argument --n: not allowed with argument --n-max"),
])
def test_the_parser_rejects_a_usage_error(capsys, argv, reason):
    with pytest.raises(SystemExit) as rejected:
        main(argv)
    assert rejected.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err


def test_zeros_bracketing_failure_exits_3(capsys, monkeypatch):
    def fake(kind, x, n_max):
        try:
            raise BracketingError("synthetic stall", (1.0, 2.0))
        except BracketingError as exc:
            raise EnumerationError("aborted at n = 2", 2,
                                   ("stub",)) from exc

    monkeypatch.setattr(cli, "enumerate_zeros", fake)
    code, out, err = _run(capsys, ["zeros", "--kind", "K"])
    assert code == 3
    assert out == ""
    assert err.splitlines()[0] == "error: aborted at n = 2"
    assert err.splitlines()[1] == "completed 1 record(s) before the failure"


def test_argparse_rejects_unknown_kind(capsys):
    with pytest.raises(SystemExit):
        main(["zeros", "--kind", "Q"])
    with pytest.raises(SystemExit):
        main([])


def test_main_builds_one_parser_for_several_calls(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for argv in (["eval", "--kind", "L", "--nu", "1.0"],
                 ["zeros", "--kind", "K", "--n-max", "2"], ["table"]):
        code, _, _ = _run(capsys, argv)
        assert code == 0
    assert len(built) == 1


def test_a_reused_parser_leaks_no_state_between_calls(capsys):
    calls = [["eval", "--kind", "K", "--nu", "1.0", "--x", "2.0"],
             ["eval", "--kind", "K", "--nu", "1.0", "--format", "json"],
             ["zeros", "--kind", "G", "--n", "1", "--format", "csv"],
             ["zeros", "--kind", "G", "--n-max", "2"],
             ["table", "--table", "2", "--format", "csv"],
             ["table"],
             ["coeffs", "--kind", "L", "--n", "2", "--x", "3.0"],
             ["coeffs", "--kind", "L"]]
    first = [_run(capsys, argv) for argv in calls]
    with pytest.raises(SystemExit) as rejected:
        main(["zeros", "--kind", "Q"])
    assert rejected.value.code == 2
    assert "invalid choice: 'Q'" in capsys.readouterr().err
    # In reverse order every call follows a different one than before.
    again = [_run(capsys, argv) for argv in reversed(calls)]
    assert again == first[::-1]
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0].startswith("usage: imbessel")
    assert helps[1] == helps[0]


@pytest.mark.parametrize("kind", ["L", "K"])
@pytest.mark.parametrize("flag,value,name", [
    ("--n", "0", "n"), ("--n", "-2", "n"),
    ("--n-max", "0", "n_max"), ("--n-max", "-3", "n_max"),
])
def test_coeffs_rejects_the_zero_indices_that_zeros_rejects(
        capsys, kind, flag, value, name):
    want = f"error: {name} must be a positive integer, got {value}\n"
    for command in ("coeffs", "zeros"):
        got = _run(capsys, [command, "--kind", kind, flag, value])
        assert got == (2, "", want), command


def test_coeffs_dump_matches_the_library(capsys):
    code, out, _ = _run(capsys, ["coeffs", "--kind", "K", "--n", "10"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"kind", "x", "family", "chi", "C", "a", "A",
                            "per_n"}
    coeffs = coefficient_set(1.0, "modified")
    assert payload["family"] == "modified"
    assert payload["chi"] == coeffs.chi
    assert payload["C"] == list(coeffs.C)
    assert payload["a"] == list(coeffs.a)
    assert payload["A"] == list(coeffs.A)
    assert len(payload["per_n"]) == 1
    entry = payload["per_n"][0]
    assert set(entry) == {"n", "m", "xi", "b", "B"}
    assert entry["n"] == 10
    assert entry["m"] == 9.75 * math.pi
    assert entry["xi"] == leading_xi(entry["m"], 2.0 / math.e)
    correction = correction_coefficients(list(coeffs.A), entry["xi"],
                                         entry["m"])
    assert entry["b"] == list(correction.b)
    assert entry["B"] == list(correction.B)


def _coeffs_payload(kind: str, x: float, ns) -> dict:
    # The coeffs dump rebuilt from the library as the dict it documents.
    kind = FunctionKind.coerce(kind)
    coeffs = cli.coefficient_set(x, kind.family)
    per_n = []
    for n in ns:
        m = kind.m_value(n)
        xi = cli.leading_xi(m, 2.0 / (math.e * x))
        correction = cli.correction_coefficients(list(coeffs.A), xi, m)
        per_n.append({"n": n, "m": m, "xi": xi, "b": list(correction.b),
                      "B": list(correction.B)})
    return {"kind": kind.value, "x": x, "family": coeffs.family,
            "chi": coeffs.chi, "C": list(coeffs.C), "a": list(coeffs.a),
            "A": list(coeffs.A), "per_n": per_n}


@pytest.mark.parametrize("kind", ["L", "K", "F", "G"])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 1e30])
@pytest.mark.parametrize("flag,value", [
    ("--n", 1), ("--n-max", 3), ("--n-max", 500), ("--n", 10 ** 300 + 7)])
def test_coeffs_prints_exactly_the_indent_1_json_dump(capsys, kind, x, flag,
                                                      value):
    code, out, err = _run(capsys, ["coeffs", "--kind", kind, "--x", repr(x),
                                   flag, str(value)])
    ns = [value] if flag == "--n" else range(1, value + 1)
    want = json.dumps(_coeffs_payload(kind, x, ns), indent=1) + "\n"
    assert (code, err) == (0, "")
    assert out == want


def test_coeffs_layout_holds_for_non_finite_corrections(capsys, monkeypatch):
    real = cli.correction_coefficients

    def non_finite(A, xi, m):
        correction = real(A, xi, m)
        return correction._replace(b=(math.nan, *correction.b[1:]),
                                   B=(math.inf, -math.inf, correction.B[2]))

    monkeypatch.setattr(cli, "correction_coefficients", non_finite)
    code, out, _ = _run(capsys, ["coeffs", "--kind", "G", "--n-max", "2"])
    assert code == 0
    assert "NaN" in out and "-Infinity" in out
    assert out == json.dumps(_coeffs_payload("G", 1.0, [1, 2]),
                             indent=1) + "\n"


@pytest.mark.skipif(not _artifact_installed(),
                    reason="the 'artifact' distribution is not installed, "
                           "so no imbessel console script exists")
def test_console_script_is_installed():
    path = shutil.which("imbessel")
    assert path is not None, "console script not on PATH; install the package"
    result = subprocess.run([path, "eval", "--kind", "L", "--nu", "1.0"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("L(nu=1.0, x=1.0):")


def test_python_dash_m_runs_the_cli_without_warnings(capsys):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["eval", "--kind", "L", "--nu", "2", "--x", "1"]
    result = subprocess.run([sys.executable, "-m", "imbessel", *argv],
                            capture_output=True, text=True, env=env,
                            timeout=60)
    code, out, _ = _run(capsys, argv)
    assert result.returncode == code == 0
    assert result.stderr == ""
    assert result.stdout == out


@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # Buffered, the write fails only at the flush; unbuffered, at the write.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "imbessel", "table"],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env=env, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b""
