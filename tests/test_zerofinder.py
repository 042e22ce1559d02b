"""Tests for zero estimation, bracketing refinement, and enumeration."""

from __future__ import annotations

import collections
import importlib
import importlib.util
import math
import pathlib
import random
import re

import mpmath as mp
import pytest

from imbessel import (BracketingError, ConvergenceError, DomainError,
                      EnumerationError, FunctionKind, ZeroEstimate,
                      asymptotic_zero, coefficient_set,
                      correction_coefficients, detection_value,
                      enumerate_zeros, eval_function, lambert_w0,
                      leading_xi, phase, refine_zero)

import imbessel
import imbessel.asymcoeff as asymcoeff
import imbessel.besseval as besseval
import imbessel.zerofinder as zerofinder
from imbessel.cli import main

from golden import NS, TABLE_ASYMPTOTIC, dp6, fnum


def test_kind_coercion():
    assert FunctionKind.coerce("L") is FunctionKind.L
    assert FunctionKind.coerce("g") is FunctionKind.G
    assert FunctionKind.coerce(FunctionKind.F) is FunctionKind.F
    assert FunctionKind.coerce("K") is FunctionKind.coerce("k") is \
        FunctionKind.K
    for bad in ("Z", 3, None):
        with pytest.raises(DomainError):
            FunctionKind.coerce(bad)


def test_kind_families_and_phase_offsets():
    assert FunctionKind.L.family == "modified"
    assert FunctionKind.K.family == "modified"
    assert FunctionKind.F.family == "ordinary"
    assert FunctionKind.G.family == "ordinary"
    assert FunctionKind.L.quarter == 0.25
    assert FunctionKind.F.quarter == 0.25
    assert FunctionKind.K.quarter == -0.25
    assert FunctionKind.G.quarter == -0.25
    assert FunctionKind.L.m_value(1) == 1.25 * math.pi
    assert FunctionKind.K.m_value(1) == 0.75 * math.pi
    assert FunctionKind.L.m_value(1) + math.pi / 4 == \
        pytest.approx(1.5 * math.pi)
    assert FunctionKind.K.m_value(1) + math.pi / 4 == pytest.approx(math.pi)


def test_phase_formula():
    assert phase(2.0, 3.0) == 2.0 * math.log(6.0) + math.pi / 4.0


@pytest.mark.parametrize("nu,lambda_", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
                                        (-1.0, -1.0), (math.nan, 1.0)])
def test_phase_rejects_nonpositive_inputs_with_a_domain_error(nu, lambda_):
    with pytest.raises(DomainError):
        phase(nu, lambda_)


def test_leading_xi_inverts_the_defining_equation():
    # W(e) = 1, so lambda*m = e gives xi = m exactly.
    assert abs(leading_xi(2.0, math.e / 2.0) - 2.0) <= 1e-12
    m, lambda_ = 0.75 * math.pi, 2.0 / math.e
    xi = leading_xi(m, lambda_)
    assert abs(xi * math.log(lambda_ * xi) - m) <= 1e-12 * m


def test_leading_xi_alone_lands_near_the_tabulated_estimate():
    xi = leading_xi((10 - 0.25) * math.pi, 2.0 / math.e)
    target = TABLE_ASYMPTOTIC["K"][NS.index(10)]
    assert abs(xi - target) <= 1e-3 * target


@pytest.mark.parametrize("m,lambda_", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                       (1.0, -2.0)])
def test_leading_xi_rejects_nonpositive_inputs(m, lambda_):
    with pytest.raises(DomainError):
        leading_xi(m, lambda_)


def test_m_over_log_lambda_m_deviates_less_than_its_first_dropped_term():
    # m / log(lambda m) drops the log log(lambda m) / log(lambda m) term of
    # W's expansion, so that term bounds its relative deviation from the
    # refined zero; at n = 500 the deviation is 0.238 against 0.277.
    lambda_ = 2.0 / math.e
    for kind in FunctionKind:
        records = enumerate_zeros(kind, 1.0, 500)
        for n in (2, 10, 50, 500):
            nu, m = records[n - 1].nu_refined, kind.m_value(n)
            log_lm = math.log(lambda_ * m)
            deviation = abs(nu - m / log_lm) / nu
            bound = math.log(log_lm) / log_lm
            assert deviation <= bound, (kind.value, n, deviation, bound)


def test_estimate_partial_sums_are_cumulative(estimates_x1):
    for (kind, n), estimate in estimates_x1.items():
        assert estimate.partial[0] == estimate.xi
        fk = FunctionKind.coerce(kind)
        A = list(coefficient_set(1.0, fk.family).A)
        B = correction_coefficients(A, estimate.xi, estimate.m).B
        m = estimate.m
        running = estimate.xi
        for k in range(3):
            running = running + B[k] / m ** (2 * k + 1)
            assert estimate.partial[k + 1] == running, f"{kind} n={n} k={k}"
        assert estimate.nu == estimate.partial[3]
        # partial[4] is nu*, the root of the phase equation carried to A6
        # (to Newton's last step, 1e-7 nu, squared), and size its last term.
        A = asymcoeff._zero_coefficients(1.0, fk.family)[0]
        assert A[:3] == list(coefficient_set(1.0, fk.family).A)
        star, lambda_ = estimate.partial[4], estimate.lambda_
        with mp.workdps(30):
            nu = mp.mpf(star)
            equation = nu * mp.log(lambda_ * nu) - m + sum(
                mp.mpf(a) / nu ** (2 * k + 1) for k, a in enumerate(A))
            slope = mp.log(lambda_ * nu) + 1
            assert abs(equation / slope) <= 1e-14 * star, f"{kind} n={n}"
        last = abs(A[6]) / (star ** 13 * (1.0 + math.log(lambda_ * star)))
        assert estimate.size == pytest.approx(last, rel=1e-5), f"{kind} n={n}"
        xi = estimate.xi
        assert abs(xi * math.log(estimate.lambda_ * xi) - m) <= 1e-12 * m


@pytest.mark.parametrize("bad_call", [
    lambda: asymptotic_zero("L", 0, 1.0),
    lambda: asymptotic_zero("L", -3, 1.0),
    lambda: asymptotic_zero("L", 1.5, 1.0),
    lambda: asymptotic_zero("L", 1, 0.0),
    lambda: asymptotic_zero("L", 1, -1.0),
])
def test_asymptotic_zero_validates_arguments(bad_call):
    with pytest.raises(DomainError):
        bad_call()


def test_an_estimate_below_the_papers_range_still_yields_its_zero():
    # The paper states its expansion for xi > max(2, x); at x = 0.05 the
    # leading term of L n = 1 is below 2, and the estimate still seeds a
    # zero that mpmath confirms.
    estimate = asymptotic_zero("L", 1, 0.05)
    assert 0.0 < estimate.partial[0] <= 2.0
    nu = refine_zero(estimate).nu_refined
    assert _mp_changes_sign(FunctionKind.L, nu * (1.0 - 1e-13),
                            nu * (1.0 + 1e-13), 0.05), nu


@pytest.mark.parametrize("kind,n", [("K", 1), ("F", 1), ("G", 50)])
def test_three_term_estimates_match_the_reference_table(kind, n, reference):
    estimate = asymptotic_zero(kind, n, 1.0)
    want = dp6(fnum(reference["estimate_partials_x1"][kind][NS.index(n)][3]))
    got = estimate.partial[3]
    assert dp6(got) == want, (
        f"three-correction estimate for {kind} n={n} computes to {got:.9f} "
        f"(6 dp: {dp6(got)}), not the oracle's estimate_partials_x1 {want}")


@pytest.mark.parametrize("kind,n,want", [("L", 1, "3.790205"),
                                         ("G", 1, "3.045668")])
def test_refined_zeros_match_the_reference_table(kind, n, want):
    estimate = asymptotic_zero(kind, n, 1.0)
    record = refine_zero(estimate)
    assert dp6(record.nu_refined) == want


def test_refined_zeros_reach_the_frozen_references(records_x1, reference):
    for kind in "LKFG":
        for i, n in enumerate(NS):
            true = fnum(reference["true_zeros_x1"][kind][i])
            got = records_x1[kind, n].nu_refined
            assert abs(got - true) <= 1e-12 * true, f"{kind} n={n}"


def _oracle_discrepancy(reference, kind, n):
    i = NS.index(n)
    return abs(fnum(reference["estimate_partials_x1"][kind][i][3])
               - fnum(reference["true_zeros_x1"][kind][i]))


def test_discrepancy_for_g_n1_matches_the_reference_table(records_x1,
                                                           reference):
    want = _oracle_discrepancy(reference, "G", 1)
    got = records_x1["G", 1].discrepancy
    assert got == pytest.approx(want, rel=0.05), (
        f"measured discrepancy {got:.6e} differs from |estimate_partials_x1 "
        f"- true_zeros_x1| = {want:.6e} by more than 5%")


def test_discrepancy_for_k_n10_matches_the_reference_table(records_x1,
                                                            reference):
    want = _oracle_discrepancy(reference, "K", 10)
    got = records_x1["K", 10].discrepancy
    assert 0.9 * want <= got <= 1.1 * want, (
        f"measured discrepancy {got:.6e} differs from |estimate_partials_x1 "
        f"- true_zeros_x1| = {want:.6e} by more than 10%")


def test_refine_zero_takes_the_request_from_the_estimate():
    # A hand-built estimate may name its kind by letter, in any case; an
    # unknown letter raises before any evaluation.
    estimate = asymptotic_zero("L", 1, 1.0)
    assert refine_zero(estimate._replace(kind="l")) == refine_zero(estimate)
    with pytest.raises(DomainError):
        refine_zero(estimate._replace(kind="Q"))


def test_refine_zero_rejects_estimates_outside_the_phase_window():
    kind = FunctionKind.K
    real = asymptotic_zero(kind, 1, 1.0)
    bogus = ZeroEstimate(kind, 1, 1.0, real.m, real.lambda_, 20.0,
                         (20.0, 20.0, 20.0, 20.0), 0.0)
    with pytest.raises(BracketingError) as info:
        refine_zero(bogus)
    assert "phase window" in str(info.value)


@pytest.mark.parametrize("x", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("kind", ["L", "K", "F", "G"])
def test_refine_zero_needs_at_most_8_detection_evaluations(kind, x,
                                                           monkeypatch):
    calls = _count_detection_calls(monkeypatch)
    for n in (5, 10, 50, 200):
        calls.clear()
        record = refine_zero(asymptotic_zero(kind, n, x))
        assert len(calls) <= 8, f"{kind} n={n} x={x}: {len(calls)} calls"
        lo, hi = record.bracket
        assert lo <= record.nu_refined <= hi, f"{kind} n={n} x={x}"
        assert detection_value(kind, lo, x) * \
            detection_value(kind, hi, x) < 0.0, f"{kind} n={n} x={x}"


@pytest.mark.parametrize("x", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("kind", ["L", "K", "F", "G"])
def test_refine_zero_starts_the_solver_at_the_estimate(kind, x, monkeypatch):
    # Far out the estimate is within about 1e-12 of the zero: two bracket
    # ends, the estimate and at most two solver steps.
    calls = _count_detection_calls(monkeypatch)
    estimate = asymptotic_zero(kind, 200, x)
    refine_zero(estimate)
    assert len(calls) <= 5, f"{kind} x={x}: {len(calls)} calls"
    assert estimate.partial[-1] in [nu for _, nu, _ in calls]


def test_a_four_sum_estimate_refines_from_its_last_sum(monkeypatch):
    # An estimate built by hand with the paper's four sums and no nu*
    # starts from its last sum partial[3], and its +-h stage keeps
    # h = max(0.05, 2 size).
    calls = _count_detection_calls(monkeypatch)
    for kind in FunctionKind:
        estimate = asymptotic_zero(kind, 1, 1.0)
        p = estimate.partial[:4]
        calls.clear()
        record = refine_zero(estimate._replace(partial=p))
        h = max(0.05, 2.0 * estimate.size)
        assert calls[0][1] == p[3], kind
        assert calls[1][1] in (p[3] - h, p[3] + h), kind
        assert record.partial == p, kind
        assert record.nu_asymptotic == p[3], kind


_SWEEP_XS = (0.5, 1.0, 2.0, 4.0, 8.0)


def _count_detection_calls(monkeypatch) -> list:
    # The (kind, nu, x) of each evaluation, counted at the one detector that
    # refinement evaluates through, on both sides of its nu_C.
    calls = []
    detector = zerofinder._detector

    def counting_detector(kind, x, C):
        g = detector(kind, x, C)
        return lambda nu: calls.append((kind, nu, x)) or g(nu)

    monkeypatch.setattr(zerofinder, "_detector", counting_detector)
    return calls


def _refine_to_500(kind, x, calls):
    # (record, detection evaluations) for each n = 1..500.
    rows = []
    for n in range(1, 501):
        estimate = asymptotic_zero(kind, n, x)
        calls.clear()
        rows.append((refine_zero(estimate), len(calls)))
    return rows


@pytest.fixture(scope="module")
def refined_to_500():
    """(record, detection evaluations) rows for every kind and x swept."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_detection_calls(patch)
        return {(kind, x): _refine_to_500(kind, x, calls)
                for kind in FunctionKind for x in _SWEEP_XS}


def test_the_bracket_end_above_each_zero_has_the_predicted_sign(
        refined_to_500):
    for (kind, x), rows in refined_to_500.items():
        for record, _ in rows:
            lo, hi = record.bracket
            where = f"{kind.value} n={record.n} x={x}"
            assert lo <= record.nu_refined <= hi, where
            above = detection_value(kind, hi, x)
            assert above * (-kind.sign * (-1) ** record.n) > 0.0, where
            assert above * detection_value(kind, lo, x) < 0.0, where


def test_refinement_averages_at_most_2_06_detection_evaluations(
        refined_to_500):
    # Measured at 2.0405 (2.448 from the paper's three-correction sum); the
    # residual adds no evaluation to these.
    counts = [count for (_, x), rows in refined_to_500.items() if x <= 4.0
              for _, count in rows]
    assert len(counts) == 8000
    assert sum(counts) / len(counts) <= 2.06


def test_the_probe_costs_nothing_where_the_estimate_is_coarse(
        refined_to_500):
    # At x = 1, n <= 50 nu* is probed from n = 5 to 7 on. The sum is 470
    # evaluations (2.35 a zero), against 880 for the +-h stage alone.
    counts = [count for kind in FunctionKind
              for record, count in refined_to_500[kind, 1.0]
              if record.n <= 50]
    assert len(counts) == 200
    assert sum(counts) <= 480


@pytest.mark.parametrize("x,bound", [(10.0, 2.15), (20.0, 2.25),
                                     (30.0, 2.35)])
def test_large_x_refinement_averages_few_detection_evaluations(
        x, bound, monkeypatch):
    # Every kind, n <= 500: measured 2.103, 2.2 and 2.281 per zero.
    calls = _count_detection_calls(monkeypatch)
    counts = []
    for kind in FunctionKind:
        counts += [count for _, count in _refine_to_500(kind, x, calls)]
    assert len(counts) == 2000
    assert sum(counts) / len(counts) <= bound


def test_the_probe_confirms_a_far_out_zero_in_two_evaluations(monkeypatch):
    calls = _count_detection_calls(monkeypatch)
    for kind in FunctionKind:
        estimate = asymptotic_zero(kind, 400, 1.0)
        calls.clear()
        record = refine_zero(estimate)
        lo, hi = record.bracket
        assert len(calls) == 2, kind
        assert hi - lo <= 1e-12, kind
        assert lo <= record.nu_refined <= hi, kind
        assert detection_value(kind, lo, 1.0) * \
            detection_value(kind, hi, 1.0) < 0.0, kind


def test_a_zero_at_the_probe_end_is_accepted_in_two_evaluations(
        monkeypatch):
    # With a looser probe threshold, K n=125 at x = 4 is probed, and the
    # unprobed zero is an end of the probe bracket, the one with the smaller
    # |g|. The probe returns that end in two evaluations, within 1e-12 of
    # the zero found without the probe.
    estimate = asymptotic_zero("K", 125, 4.0)
    monkeypatch.setattr(zerofinder, "_PROBE_STEPS", 0.0)
    plain = refine_zero(estimate)
    monkeypatch.setattr(zerofinder, "_PROBE_STEPS", 300.0)
    calls = _count_detection_calls(monkeypatch)
    record = refine_zero(estimate)
    assert len(calls) == 2
    lo, hi = record.bracket
    assert record.nu_refined in (lo, hi)
    assert detection_value("K", lo, 4.0) * detection_value("K", hi, 4.0) < 0.0
    assert abs(record.nu_refined - plain.nu_refined) <= \
        1e-12 * plain.nu_refined


def _refined_at_most_x4(refined_to_500):
    # The 8,000 rows of the sweep at x <= 4.
    return [(kind, x, record) for (kind, x), rows in refined_to_500.items()
            if x <= 4.0 for record, _ in rows]


def test_the_probe_changes_no_zero(refined_to_500, monkeypatch):
    # The same estimates, so the same starts, refined with no probe.
    rows = _refined_at_most_x4(refined_to_500)
    assert len(rows) == 8000
    estimates = [asymptotic_zero(kind, record.n, x)
                 for kind, x, record in rows]
    monkeypatch.setattr(zerofinder, "_PROBE_STEPS", 0.0)
    for (kind, x, record), estimate in zip(rows, estimates):
        where = f"{kind.value} n={record.n} x={x}"
        plain = refine_zero(estimate)
        assert plain.nu_refined == record.nu_refined, where
        assert plain.residual == record.residual, where


def test_a_wrong_side_prediction_raises_rather_than_searching(
        refined_to_500, monkeypatch):
    # Only the predicted side is ever evaluated, so predicting the wrong
    # side finds no sign change in either bracket and returns no zero:
    # g(nu_hat), the probe end and the +-h end are the only evaluations.
    sign_above = zerofinder._sign_above
    monkeypatch.setattr(zerofinder, "_sign_above",
                        lambda kind, n: -sign_above(kind, n))
    calls = _count_detection_calls(monkeypatch)
    rows = _refined_at_most_x4(refined_to_500)
    assert len(rows) == 8000
    for kind, x, record in rows:
        estimate = asymptotic_zero(kind, record.n, x)
        calls.clear()
        with pytest.raises(BracketingError, match="no sign change"):
            refine_zero(estimate)
        assert len(calls) <= 3, f"{kind.value} n={record.n} x={x}"


@pytest.mark.parametrize("kind", list(FunctionKind))
def test_sign_above_alternates_from_the_kind_sign(kind):
    for n in [*range(1, 1001), 10 ** 300 + 7]:
        assert zerofinder._sign_above(kind, n) == -kind.sign * (-1) ** n, n


def _mp_uniform_phase(kind, nu, x):
    # The uniform phase less pi/4 at 40 digits, for nu > x with L and K.
    with mp.workdps(40):
        nu, x = mp.mpf(nu), mp.mpf(x)
        if kind.family == "modified":
            return nu * mp.acosh(nu / x) - mp.sqrt(nu ** 2 - x ** 2)
        return nu * mp.asinh(nu / x) - mp.sqrt(nu ** 2 + x ** 2)


def _inside_through_mp_uniform_phase(lo, hi, estimate):
    # The phase window test with the uniform phase at 40 digits; L and K at
    # or below the turning point are outside every window.
    kind, x, m = estimate.kind, estimate.x, estimate.m
    if kind.family == "modified" and lo <= x:
        return False
    return (_mp_uniform_phase(kind, lo, x) > m - math.pi / 2.0
            and _mp_uniform_phase(kind, hi, x) < m + math.pi / 2.0)


def test_the_phase_window_test_agrees_with_mpmath_on_the_swept_brackets(
        monkeypatch):
    # Every bracket refine_zero checks for the 8,000 zeros at x <= 4. All
    # lie inside their windows; the edge test below covers the other side.
    brackets = []
    inside = zerofinder._inside_phase_window

    def recording(*args):
        brackets.append(args)
        return inside(*args)

    monkeypatch.setattr(zerofinder, "_inside_phase_window", recording)
    for kind in FunctionKind:
        for x in _SWEEP_XS[:4]:
            enumerate_zeros(kind, x, 500)
    assert len(brackets) == 8000
    verdicts = [inside(*args) for args in brackets]
    assert verdicts == [_inside_through_mp_uniform_phase(*args)
                        for args in brackets]
    assert all(verdicts)


def _flip(inside, outside, verdict):
    # Bisect the floats between an end whose verdict is True and one whose
    # verdict is False down to two adjacent floats.
    while math.nextafter(inside, outside) != outside:
        mid = 0.5 * (inside + outside)
        if verdict(mid):
            inside = mid
        else:
            outside = mid
    return inside, outside


@pytest.mark.parametrize("kind", list(FunctionKind))
def test_the_phase_window_edge_is_where_the_uniform_phase_is_m_pm_half_pi(
        kind):
    # For each random (x, n), the lower end and then the upper end is moved
    # to where the verdict flips. The floats one ulp either side of the
    # flip must straddle m -+ pi/2 in the uniform phase computed by mpmath,
    # up to the rounding of the float phase.
    rng = random.Random(1990)
    half = math.pi / 2.0
    for _ in range(40):
        x, n = rng.uniform(0.3, 30.0), rng.randint(1, 200)
        m = kind.m_value(n)
        estimate = ZeroEstimate(kind, n, x, m, 2.0 / (math.e * x), 1.0,
                                (1.0, 1.0, 1.0, 1.0), 0.0)
        # A point in the window, where the phase crosses m, and points below
        # and above the window: at 0.5 x the phase is 0.0 (L, K) or < 0.
        middle = _flip(x + 3.0 * m, x, lambda nu: kind.uniform_phase(nu, x)
                       > m)[0]
        below, above = 0.5 * x, x + 3.0 * m
        assert kind.uniform_phase(above, x) > m + half
        inside, outside = _flip(middle, below, lambda lo: zerofinder
                                ._inside_phase_window(lo, middle, estimate))
        tol = 1e-14 * (m + outside * (1.0 + math.log(outside / x + 2.0)))
        assert _mp_uniform_phase(kind, outside, x) < m - half + tol
        assert _mp_uniform_phase(kind, inside, x) > m - half - tol
        inside, outside = _flip(middle, above, lambda hi: zerofinder
                                ._inside_phase_window(middle, hi, estimate))
        assert _mp_uniform_phase(kind, inside, x) < m + half + tol
        assert _mp_uniform_phase(kind, outside, x) > m + half - tol
        # L and K at or below the turning point are outside every window.
        if kind.family == "modified":
            for lo in (0.5 * x, math.nextafter(x, 0.0), x):
                assert kind.uniform_phase(lo, x) == 0.0
                for hi in (x, middle):
                    assert zerofinder._inside_phase_window(
                        lo, hi, estimate) is False


# README's domain of enumeration, n = 1..500: every kind on the grid.
_SMALL_XS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4)
_ENUMERATION_GRID = (*_SMALL_XS, 0.5, 0.7, 1.0, 1.5, 2.0,
                     *map(float, range(3, 13)), 14.0, 16.0, 18.0, 20.0,
                     25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0)
_ENUMERATION_DOMAIN = [(kind, x) for kind in FunctionKind
                       for x in _ENUMERATION_GRID]


@pytest.mark.parametrize("kind,x", _ENUMERATION_DOMAIN)
def test_the_uniform_phase_labels_every_record(kind, x):
    # Each refined zero sits within pi/16 of its m in the uniform phase, at
    # worst 0.045 pi (K, x = 0.01, n = 1), and both bracket ends inside the
    # pi/2 window the guard checks, at worst 0.180 pi (G, x = 0.01, n = 1).
    # The windows of adjacent n are disjoint, so the guard is the label.
    records = enumerate_zeros(kind, x, 500)
    assert len(records) == 500
    for record in records:
        m = kind.m_value(record.n)
        offset = abs(kind.uniform_phase(record.nu_refined, x) - m)
        assert offset < math.pi / 16.0, (record.n, offset)
        for nu in record.bracket:
            offset = abs(kind.uniform_phase(nu, x) - m)
            assert offset < math.pi / 2.0, (record.n, nu, offset)


def _mp_negative(kind, nu, x):
    # Whether the kind's component of I or J at order i nu, which has the
    # sign of the function, is negative; at 80 digits, as at 40 mpmath
    # loses the leading digits of L and K by n = 50.
    with mp.workdps(80):
        bessel = mp.besseli if kind.family == "modified" else mp.besselj
        part = bessel(1j * mp.mpf(nu), x)
        return (part.imag if kind.imaginary else part.real) < 0


def _mp_changes_sign(kind, lo, hi, x):
    # Whether the function changes sign on [lo, hi], by mpmath.
    return _mp_negative(kind, lo, x) != _mp_negative(kind, hi, x)


@pytest.mark.parametrize("x", [*_SMALL_XS, 10.0, 20.0, 30.0, 35.0, 40.0,
                               45.0, 50.0, 55.0, 60.0])
@pytest.mark.parametrize("kind", list(FunctionKind))
def test_zeros_at_the_domain_edges_enumerate_and_match_mpmath(kind, x):
    # The uniform phase window holds every zero n <= 500 at these x, where
    # the large-order phase refused L and K n = 1 from x = 10, and below
    # x = 0.5, where n = 1 lies outside the paper's range xi > max(2, x).
    # From x = 35 to 60, n = 1 has the 0.05 floor as its half-width h.
    records = enumerate_zeros(kind, x, 500)
    assert len(records) == 500
    for n in (1, 2, 10, 50):
        nu = records[n - 1].nu_refined
        assert _mp_changes_sign(kind, nu * (1.0 - 1e-13), nu * (1.0 + 1e-13),
                                x), (kind.value, n, x, nu)


# README's n = 0 zeros of L and F, below the paper's n = 1, by mpmath's
# findroot (30 digits) to six digits.
_N0_ZEROS = {0.01: (0.329831, 0.329834), 0.02: (0.384696, 0.384712),
             0.05: (0.491112, 0.491259), 0.1: (0.616307, 0.617115),
             0.2: (0.812549, 0.816913), 0.3: (0.981921, 0.993272),
             0.4: (1.13840, 1.16018)}


@pytest.mark.parametrize("x", _SMALL_XS)
@pytest.mark.parametrize("kind", list(FunctionKind))
def test_below_n_1_only_l_and_f_vanish_once_at_small_x(kind, x):
    # A sign scan of 99 points on (0, nu_1): K and G keep one sign, and L
    # and F change it once, across their n = 0 zero, so the enumeration
    # skips no zero but that one.
    nu1 = enumerate_zeros(kind, x, 1)[0].nu_refined
    grid = [nu1 * j / 100.0 for j in range(1, 100)]
    signs = [_mp_negative(kind, nu, x) for nu in grid]
    cells = [(lo, hi) for lo, hi, a, b in zip(grid, grid[1:], signs,
                                              signs[1:]) if a != b]
    if kind.value in "KG":
        assert cells == []
    else:
        zero = _N0_ZEROS[x][kind.value == "F"]
        assert len(cells) == 1 and cells[0][0] < zero < cells[0][1], cells


def _mp_truncated_zero(estimate, A):
    # The root near the estimate of nu log(lambda nu) = m - sum_k A_k /
    # nu^(2k+1) over the given A, at the working precision, and the root xi
    # of the balance without the A_k.
    m, lambda_ = mp.mpf(estimate.m), 2 / (mp.e * mp.mpf(estimate.x))
    star = mp.findroot(lambda nu: nu * mp.log(lambda_ * nu) - m + sum(
        mp.mpf(a) / nu ** (2 * k + 1) for k, a in enumerate(A)),
        mp.mpf(estimate.partial[4]))
    xi = mp.findroot(lambda t: t * mp.log(lambda_ * t) - m,
                     mp.mpf(estimate.xi))
    return star, xi


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("kind", list(FunctionKind))
def test_the_three_correction_sum_errs_like_xi_to_the_minus_7(kind, x):
    # Against the exact root of the balance the three corrections expand,
    # carried one order further to A3 (50 digits), the paper's sum errs like
    # xi^-7: exponents -7.20 to -7.95 over n = 10, 20 and 40, off -7 by
    # slowly varying factors of log(lambda xi). The sum is formed from the
    # exact xi, so float rounding stays far below.
    A = asymcoeff._zero_coefficients(x, kind.family)[0]
    assert A[:3] == list(coefficient_set(x, kind.family).A)
    errors = []
    with mp.workdps(50):
        for n in (10, 20, 40):
            estimate = asymptotic_zero(kind, n, x)
            star, xi = _mp_truncated_zero(estimate, A[:4])
            B = correction_coefficients(A, estimate.xi, estimate.m).B
            p3 = xi + sum(mp.mpf(b) / mp.mpf(estimate.m) ** (2 * k + 1)
                          for k, b in enumerate(B))
            errors.append((xi, abs(p3 - star)))
    for (xi0, p3_0), (xi1, p3_1) in zip(errors, errors[1:]):
        order = float(mp.log(p3_1 / p3_0) / mp.log(xi1 / xi0))
        assert -8.5 < order < -6.5, order


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0, 10.0])
def test_the_phase_root_solves_the_phase_equation_carried_to_a6(x):
    # The estimate's nu*, by Newton from the paper's sum, against the
    # 50-digit root of the same equation with the same seven A_k: measured
    # at most 1.8e-15 relative for x <= 4 (G n = 1, x = 4) and 3.9e-16 at
    # x = 10. size is its last term at nu*, up to Newton's last step.
    for kind in FunctionKind:
        A = asymcoeff._zero_coefficients(x, kind.family)[0]
        assert len(A) == 7
        for n in (1, 2, 5, 10, 20, 40):
            estimate = asymptotic_zero(kind, n, x)
            star = estimate.partial[4]
            with mp.workdps(50):
                exact, _ = _mp_truncated_zero(estimate, A)
                error = abs(mp.mpf(star) - exact) / exact
            assert error <= 5e-15, (kind.value, n, x, float(error))
            last = abs(A[6]) / (star ** 13 * (1.0 + math.log(
                estimate.lambda_ * star)))
            assert estimate.size == pytest.approx(last, rel=1e-5), \
                (kind.value, n)


def _pairs(A):
    # The (A_k, (2k + 1) A_k) pairs from k = 6 down that Newton's method
    # sums, as an enumeration builds them once.
    return [(a, (2 * k + 1) * a) for k, a in enumerate(A)][::-1]


def test_every_estimate_starts_from_nu_star_solved_from_the_paper_sum():
    # nu* and its size are the Newton solve from partial[3] for every zero
    # here, K n = 1 at x = 20 included.
    for kind in FunctionKind:
        for x in (0.5, 1.0, 4.0, 20.0):
            pairs = _pairs(asymcoeff._zero_coefficients(x, kind.family)[0])
            for n in range(1, 61):
                estimate = asymptotic_zero(kind, n, x)
                star, size = zerofinder._phase_root(
                    pairs, estimate.m, estimate.lambda_, estimate.partial[3])
                where = (kind.value, n, x)
                assert estimate.partial[4] == star, where
                assert estimate.size == size > 0.0, where


def test_the_phase_root_raises_where_newton_does_not_converge(monkeypatch,
                                                             capsys):
    # An A6 that overflowed, a slope made negative by a huge A6, and a start
    # too far out for 8 steps each raise ConvergenceError, with no fallback
    # to the paper's sum: asymptotic_zero raises it, an enumeration aborts
    # on it, and the CLI exits 3.
    estimate = asymptotic_zero("K", 1, 1.0)
    A, C = asymcoeff._zero_coefficients(1.0, "modified")
    pairs = _pairs(A)
    args = (estimate.m, estimate.lambda_)
    assert zerofinder._phase_root(pairs, *args, estimate.partial[3]) == (
        estimate.partial[4], estimate.size)
    for a6 in (math.inf, 1e20):
        with pytest.raises(ConvergenceError, match="phase equation"):
            zerofinder._phase_root([(a6, 13.0 * a6), *pairs[1:]], *args,
                                   estimate.partial[3])
    with pytest.raises(ConvergenceError, match="phase equation"):
        zerofinder._phase_root(pairs, *args, 1e6)
    monkeypatch.setattr(zerofinder, "_zero_coefficients",
                        lambda x, family: ([*A[:6], math.inf], C))
    with pytest.raises(ConvergenceError, match="phase equation") as info:
        asymptotic_zero("K", 1, 1.0)
    assert type(info.value) is ConvergenceError
    with pytest.raises(EnumerationError) as info:
        enumerate_zeros("K", 1.0, 3)
    assert info.value.n == 1
    assert type(info.value.__cause__) is ConvergenceError
    assert main(["zeros", "--kind", "K", "--n", "1"]) == 3
    assert "phase equation" in capsys.readouterr().err


def test_nu_star_lies_closer_to_the_refined_zero_than_the_paper_sum():
    # Every kind at x = 0.5, 1, 2 and 4, n = 2..100. Both equal the refined
    # zero where the estimate is the zero to rounding (at x = 0.5 from
    # n = 66 on). At n = 1 nu* is farther for K at x = 0.5 alone.
    ties = 0
    for kind in FunctionKind:
        for x in (0.5, 1.0, 2.0, 4.0):
            for record in enumerate_zeros(kind, x, 100)[1:]:
                p3, star = record.partial[3], record.partial[4]
                d3 = abs(p3 - record.nu_refined)
                d4 = abs(star - record.nu_refined)
                where = (kind.value, x, record.n, d3, d4)
                assert d4 < d3 or d4 == d3 == 0.0, where
                ties += d3 == 0.0
    assert ties < 100


def test_the_leading_large_x_zeros_are_refined():
    # L n = 1 at x = 10 lies 0.018 below its estimate, G n = 1 at x = 11
    # 0.030 below its estimate 18.520.
    assert round(refine_zero(asymptotic_zero("L", 1, 10.0)).nu_refined,
                 6) == 15.694249
    assert round(refine_zero(asymptotic_zero("G", 1, 11.0)).nu_refined,
                 3) == 18.490


@pytest.mark.parametrize("kind,x,size", [("L", 70.0, 2.0), ("G", 55.0, 1.0)])
def test_an_estimate_outside_its_phase_window_raises_before_evaluating(
        kind, x, size, monkeypatch):
    # At n = 1 nu*'s own half-width is the 0.05 floor. A size that makes h
    # 4.0 for L at x = 70 and 2.0 for G at x = 55 takes nu* -+ h out of the
    # uniform phase window.
    calls = _count_detection_calls(monkeypatch)
    estimate = asymptotic_zero(kind, 1, x)
    assert max(0.05, 2.0 * estimate.size) == 0.05
    refine_zero(estimate)
    calls.clear()
    with pytest.raises(BracketingError, match="leaves the phase window"):
        refine_zero(estimate._replace(size=size))
    assert calls == []


def test_a_negative_lambda_raises_domain_error_before_evaluating(
        monkeypatch):
    # lambda * lo is positive when both are negative, and for this m the
    # phase expression at the bracket -1.5 -+ 0.05 falls inside the window.
    # The window test must refuse lo <= 0 itself, as phase does.
    bogus = ZeroEstimate(FunctionKind.L, 1, 1.0, 1.0, -0.5, -1.5,
                         (-1.5, -1.5, -1.5, -1.5), 0.0)
    lo, hi = -1.55, -1.45
    assert bogus.lambda_ * lo > 1.0 / math.e
    assert lo * math.log(bogus.lambda_ * lo) > bogus.m - math.pi / 2.0
    assert hi * math.log(bogus.lambda_ * hi) < bogus.m + math.pi / 2.0
    calls = _count_detection_calls(monkeypatch)
    with pytest.raises(DomainError):
        refine_zero(bogus)
    assert calls == []


@pytest.mark.parametrize("n", [10 ** 16, 10 ** 17, 10 ** 18])
def test_an_estimate_past_the_float_resolution_raises_before_evaluating(
        n, monkeypatch):
    # nu_hat -+ h rounds onto nu_hat once the ulp of nu_hat passes 2 h.
    calls = _count_detection_calls(monkeypatch)
    estimate = asymptotic_zero("L", n, 1.0)
    with pytest.raises(DomainError, match="past the float resolution"):
        refine_zero(estimate)
    assert calls == []


@pytest.mark.parametrize("kind", ["L", "K", "F", "G"])
@pytest.mark.parametrize("n", [10 ** 62, 10 ** 100, 10 ** 400],
                         ids=["1e62", "1e100", "1e400"])
def test_an_n_whose_estimate_overflows_a_float_raises_domain_error(kind, n):
    # m^5 overflows from n = 1e62 and m itself past 1e308.
    with pytest.raises(DomainError, match="overflows a float"):
        asymptotic_zero(kind, n, 1.0)


def test_the_checked_bracket_is_reused_for_the_first_width(monkeypatch):
    # K n = 1 at x = 1 is not probed and changes sign within nu_hat -+ h, so
    # that bracket is checked against the phase window once.
    calls = []
    inside = zerofinder._inside_phase_window

    def counting(*args):
        calls.append(args)
        return inside(*args)

    monkeypatch.setattr(zerofinder, "_inside_phase_window", counting)
    refine_zero(asymptotic_zero("K", 1, 1.0))
    assert len(calls) == 1


@pytest.mark.parametrize("n,on_c_series", [(3, False), (400, True)])
def test_refine_zero_evaluates_through_the_zerofinder_detection_value(
        n, on_c_series, monkeypatch):
    # Every evaluation at the detector is one detection_value call below
    # nu_C, with its series_sum, or one c_series_sum call from nu_C on, each
    # through the zerofinder module attribute a layer tracer wraps; the
    # residual reuses the solver's last value. K n = 3 at x = 1 lies below
    # nu_C = 25.9 and n = 400 above it.
    calls = _count_detection_calls(monkeypatch)
    counted = collections.Counter()
    for module, name in ((zerofinder, "detection_value"),
                         (zerofinder, "c_series_sum"),
                         (besseval, "series_sum")):
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=function, _n=name:
                            counted.update([_n]) or _f(*args))
    refine_zero(asymptotic_zero("K", n, 1.0))
    assert calls
    assert counted["detection_value"] + counted["c_series_sum"] == len(calls)
    assert counted["series_sum"] == counted["detection_value"]
    assert counted["c_series_sum"] == (len(calls) if on_c_series else 0)


def _perfbench_spans():
    # The benchmark's layer tracer, loaded from its file.
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("x", [0.5, 4.0])
@pytest.mark.parametrize("kind", list(FunctionKind))
def test_an_enumeration_calls_every_traced_layer_through_its_module(
        kind, x, monkeypatch):
    # The benchmark's tracer wraps each layer's module attributes; a layer
    # fused away or called around its attribute changes these counts. This
    # copy of the tracer also wraps c_series_sum. The order of each
    # evaluation is recorded under the tracer's wrapper.
    orders = []
    for name, modules in (("series_sum", [besseval]),
                          ("c_series_sum", [besseval, zerofinder])):
        function = getattr(besseval, name)
        recording = (lambda *args, _f=function:
                     orders.append(args[0]) or _f(*args))
        for module in modules:
            monkeypatch.setattr(module, name, recording)
    spans = _perfbench_spans()
    spans.FUNCTIONS += ("besseval.c_series_sum",)
    tracer = spans.Tracer()
    tracer.install({name: importlib.import_module(f"imbessel.{name}")
                    for name in spans.LAYERS})
    try:
        zerofinder.enumerate_zeros(kind, x, 500)
    finally:
        tracer.uninstall()
    names = [spans.FUNCTIONS[function] for function in tracer.function]
    calls = collections.Counter(names)
    for per_zero in ("zerofinder.refine_zero", "lambertw.lambert_w0",
                     "asymcoeff.correction_coefficients"):
        assert calls[per_zero] == 500, per_zero
    # Each evaluation is one detection_value or one c_series_sum call.
    below = calls["besseval.detection_value"]
    evaluations = below + calls["besseval.c_series_sum"]
    assert evaluations >= 1000
    assert 0 < below < evaluations
    assert calls["cgamma.recip_gamma_prefactor"] == evaluations
    assert calls["besseval.series_sum"] == below
    # log_gamma gives the prefactor's phase below nu = 16 only.
    assert len(orders) == evaluations
    assert calls["cgamma.log_gamma"] == sum(nu < 16.0 for nu in orders) > 0
    # Each evaluation layer runs inside the one above it.
    inside = {"besseval.detection_value": {"zerofinder.refine_zero"},
              "besseval.c_series_sum": {"zerofinder.refine_zero"},
              "besseval.series_sum": {"besseval.detection_value"},
              "cgamma.recip_gamma_prefactor": {"besseval.detection_value",
                                               "zerofinder.refine_zero"},
              "cgamma.log_gamma": {"cgamma.recip_gamma_prefactor"}}
    for name, parent in zip(names, tracer.parent):
        if name in inside:
            assert names[parent] in inside[name], name


@pytest.mark.parametrize("n", [1, 400])
def test_an_exact_zero_at_the_estimate_is_confirmed_by_both_ends(
        n, monkeypatch):
    # A linear detection value vanishing at the start nu*, which is probed
    # at n = 400 and not at n = 1.
    estimate = asymptotic_zero("K", n, 1.0)
    start = estimate.partial[-1]
    step = 2.0 * zerofinder._EPS * start + 0.5 * zerofinder._WIDTH
    assert (estimate.size < zerofinder._PROBE_STEPS * step) == (n == 400)
    calls = []

    def linear(nu):
        calls.append(nu)
        return nu - start

    monkeypatch.setattr(zerofinder, "_detector", lambda kind, x, C: linear)
    record = refine_zero(estimate)
    lo, hi = record.bracket
    assert record.nu_refined == start
    assert lo < record.nu_refined < hi
    # Both ends were evaluated, and a linear value changes sign across them.
    assert len(calls) <= 3 and {lo, hi} <= set(calls)


def test_brent_returns_an_interior_iterate_where_g_is_exactly_zero():
    # The first interior iterate reports an exact zero; the solver must stop
    # there instead of shrinking the bracket further.
    evaluated = []

    def g(nu):
        evaluated.append(nu)
        return 0.0 if len(evaluated) == 1 else nu - 0.3

    got = zerofinder._brent(g, 0.0, 1.0, -0.3, 0.7)
    assert evaluated and 0.0 < evaluated[0] < 1.0
    assert got == (evaluated[0], 0.0)
    assert len(evaluated) == 1


@pytest.mark.parametrize("g_end", [-0.25, -0.5, -0.75])
def test_a_bracket_within_the_stopping_step_returns_what_brent_returns(
        g_end):
    # The probe bracket needs no solver step: the half bracket returns
    # _brent's answer, the end with the smaller |g| and the estimate on a
    # tie, and evaluates nothing past the end.
    nu_hat = 1000.0
    step = 2.0 * math.ulp(1.0) * nu_hat + 0.5 * zerofinder._WIDTH
    calls = []

    def no_call(nu):
        raise AssertionError("the solver evaluated")

    want = zerofinder._brent(no_call, nu_hat - step, nu_hat, g_end, 0.5)
    got = zerofinder._half_bracket(lambda nu: calls.append(nu) or g_end,
                                   nu_hat - step, nu_hat + step, nu_hat, 0.5,
                                   1.0)
    assert got == (*want, (nu_hat - step, nu_hat))
    assert calls == [nu_hat - step]
    assert want[0] == (nu_hat - step if g_end == -0.25 else nu_hat)


def test_record_brackets_straddle_a_sign_change(records_x1, refined_to_500):
    # The enclosure is closed: the zero may be a bracket end, as most of the
    # 8,000 zeros at x <= 4 are, but the ends always change sign.
    rows = [(FunctionKind.coerce(kind), 1.0, record)
            for (kind, _), record in records_x1.items()]
    rows += _refined_at_most_x4(refined_to_500)
    assert len(rows) == 8032
    ends = 0
    for kind, x, record in rows:
        lo, hi = record.bracket
        where = f"{kind.value} n={record.n} x={x}"
        assert lo <= record.nu_refined <= hi, where
        assert detection_value(kind, lo, x) * \
            detection_value(kind, hi, x) < 0.0, where
        ends += record.nu_refined in (lo, hi)
    assert ends > 0


def test_record_residuals_are_small_on_the_local_scale(records_x1):
    # The scale is g 1e-2 either side of the zero, not at the bracket ends:
    # a probed bracket is about 5e-13 wide, and g at its ends is only a
    # few hundred times the residual. Below the +-h ends, 0.05 away, and
    # above the solver's 1e-12 stopping width, where the residual reaches
    # 2.5e-11 of it (L n = 20); at 1e-3 it would reach 2.5e-10.
    assert len(records_x1) == 32
    for (kind, n), record in records_x1.items():
        nu = record.nu_refined
        scale = max(abs(detection_value(kind, nu - 1e-2, 1.0)),
                    abs(detection_value(kind, nu + 1e-2, 1.0)))
        residual = abs(detection_value(kind, nu, 1.0))
        assert residual <= 1e-10 * scale, f"{kind} n={n}"


def test_record_residual_field_is_the_detector_value(refined_to_500):
    # The residual reuses the solver's value at the detector, bit for bit
    # what a fresh evaluation there gives, and its unit value is within
    # 1e-15 of eval_function's.
    rows = _refined_at_most_x4(refined_to_500)
    assert len(rows) == 8000
    detectors = {}
    for kind, x, record in rows:
        if (kind, x) not in detectors:
            C = asymcoeff._zero_coefficients(x, kind.family)[1]
            detectors[kind, x] = zerofinder._detector(kind, x, C)
        nu, where = record.nu_refined, f"{kind.value} n={record.n} x={x}"
        g = detectors[kind, x](nu)
        assert record.residual == \
            besseval._normalized(g, kind.log_scale(nu)), where
        assert abs(g - detection_value(kind, nu, x)) <= 1e-15, where
        assert eval_function(kind, nu, x) == besseval._normalized(
            detection_value(kind, nu, x), kind.log_scale(nu)), where


def test_refined_phases_sit_within_the_half_pi_window(records_x1,
                                                      estimates_x1):
    for (kind, n), record in records_x1.items():
        estimate = estimates_x1[kind, n]
        target = FunctionKind.coerce(kind).m_value(n) + math.pi / 4
        offset = abs(phase(record.nu_refined, estimate.lambda_) - target)
        assert offset < 0.5 * math.pi, f"{kind} n={n}"


def test_corrections_improve_on_the_leading_term(records_x1, estimates_x1):
    for (kind, n), record in records_x1.items():
        if n < 3:
            continue
        estimate = estimates_x1[kind, n]
        full = abs(estimate.partial[3] - record.nu_refined)
        leading = abs(estimate.partial[0] - record.nu_refined)
        assert full <= leading, f"{kind} n={n}"


def test_discrepancy_decays_with_n(records_x1):
    for kind in "LKFG":
        d2 = records_x1[kind, 2].discrepancy
        d10 = records_x1[kind, 10].discrepancy
        d50 = records_x1[kind, 50].discrepancy
        assert d2 > d10 > d50, f"{kind}"


def test_refined_zeros_increase_with_n(records_x1):
    for kind in "LKFG":
        values = [records_x1[kind, n].nu_refined for n in NS]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


def test_enumerate_returns_the_requested_range(reference):
    records = enumerate_zeros("K", 1.0, 5)
    assert [record.n for record in records] == [1, 2, 3, 4, 5]
    for i, record in enumerate(records):
        true = fnum(reference["true_zeros_x1"]["K"][i])
        assert abs(record.nu_refined - true) <= 5e-7, f"n={i + 1}"


def test_enumerate_discrepancy_keeps_decaying_far_out():
    records = enumerate_zeros("G", 1.0, 50)
    assert len(records) == 50
    assert records[49].discrepancy < records[9].discrepancy
    values = [record.nu_refined for record in records]
    assert values == sorted(values)


@pytest.mark.parametrize("n_max", [0, -1, 2.5])
def test_enumerate_validates_n_max(n_max):
    with pytest.raises(DomainError):
        enumerate_zeros("K", 1.0, n_max)


def test_a_bool_is_not_a_zero_index():
    # bool is an int subclass, so True once passed as n = 1.
    with pytest.raises(DomainError, match="positive integer, got True"):
        asymptotic_zero("K", True, 1.0)
    with pytest.raises(DomainError, match="positive integer, got True"):
        enumerate_zeros("K", 1.0, True)
    estimate = asymptotic_zero("K", 1, 1.0)
    for n in (True, 1.0):
        with pytest.raises(DomainError, match="positive integer"):
            refine_zero(estimate._replace(n=n))


def _one_record_of_each_type():
    estimate = asymptotic_zero("K", 3, 1.0)
    coefficients = coefficient_set(1.0, "modified")
    return (eval_function("K", 3.0, 1.0), lambert_w0(2.0), coefficients,
            correction_coefficients(coefficients.A, estimate.xi, estimate.m),
            estimate, refine_zero(estimate))


def test_records_reject_attribute_assignment():
    records = _one_record_of_each_type()
    assert [type(record).__name__ for record in records] == [
        "ScaledReal", "WResult", "CoefficientSet", "CorrectionCoefficients",
        "ZeroEstimate", "ZeroRecord"]
    for record in records:
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
        assert record == tuple(record)


def test_every_record_type_the_readme_names_imports_from_the_package():
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text()
    listed = re.search(r"Every record the library returns \(([^)]*)\)", readme)
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert len(names) == 6
    records = {type(r).__name__: r for r in _one_record_of_each_type()}
    for name in names:
        assert name in imbessel.__all__
        assert isinstance(records[name], getattr(imbessel, name))


def test_every_exported_name_resolves_and_the_package_exports_all():
    # The package exports the union of its modules' __all__ lists, less
    # the CLI's parser, plus the error classes and the version.
    exported = set()
    for name in ("asymcoeff", "besseval", "cgamma", "cli", "lambertw",
                 "zerofinder"):
        module = importlib.import_module(f"imbessel.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"{name}.{attr}"
            if attr != "build_parser":
                assert getattr(imbessel, attr) is getattr(module, attr), attr
        exported.update(module.__all__)
    errors = {name for name, value in vars(imbessel.errors).items()
              if isinstance(value, type) and issubclass(value, Exception)}
    assert len(errors) == 4
    assert len(imbessel.__all__) == len(set(imbessel.__all__))
    assert set(imbessel.__all__) == ((exported - {"build_parser"}) | errors
                                     | {"__version__"})


def test_zero_record_fields_are_the_documented_ones_in_order():
    assert zerofinder.ZeroRecord._fields == (
        "kind", "n", "x", "nu_asymptotic", "nu_refined", "discrepancy",
        "bracket", "residual", "partial")
    assert ZeroEstimate._fields == (
        "kind", "n", "x", "m", "lambda_", "xi", "partial", "size")
    assert ZeroEstimate._field_defaults == {}


@pytest.mark.parametrize("kind,x,cause", [
    # README's refusals: below its floor x = 0.01, K and G n = 1 leave the
    # phase window at x = 0.005 and have no root nu* at x = 0.002, and L
    # and F n = 1 leave it at x = 1e-4; K's n = 1 from x = 75 on lies
    # outside nu* -+ h.
    *((kind, 0.005, BracketingError) for kind in "KG"),
    *((kind, 0.002, ConvergenceError) for kind in "KG"),
    *((kind, 1e-4, BracketingError) for kind in "LF"),
    ("K", 75.0, BracketingError), ("K", 80.0, BracketingError)])
def test_enumerate_abort_attaches_completed_records(kind, x, cause):
    with pytest.raises(EnumerationError) as info:
        enumerate_zeros(kind, x, 500)
    assert info.value.n == 1
    assert info.value.partial == ()
    assert type(info.value.__cause__) is cause


@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 4.0])
@pytest.mark.parametrize("kind", ["L", "K", "F", "G"])
def test_enumerate_matches_refining_each_estimate(kind, x):
    records = enumerate_zeros(kind, x, 60)
    assert [record.n for record in records] == list(range(1, 61))
    for record in records:
        n = record.n
        want = refine_zero(asymptotic_zero(kind, n, x))
        differ = [name for name, got, expected
                  in zip(want._fields, record, want) if got != expected]
        assert type(record) is type(want), f"{kind} n={n}"
        assert record == want, f"{kind} n={n} {differ}"


def test_enumerate_builds_the_coefficients_in_one_pass(monkeypatch):
    calls = []
    expansion = asymcoeff._expansion

    def counting(*args):
        calls.append(args)
        return expansion(*args)

    monkeypatch.setattr(asymcoeff, "_expansion", counting)
    assert len(enumerate_zeros("F", 2.0, 25)) == 25
    assert calls == [(2.0, "ordinary")]


@pytest.mark.parametrize("x", [-1.0, math.nan])
def test_enumerate_reports_invalid_arguments_at_n_1(x):
    with pytest.raises(EnumerationError) as info:
        enumerate_zeros("L", x, 3)
    assert info.value.n == 1
    assert info.value.partial == ()
    assert isinstance(info.value.__cause__, DomainError)


# The C-series detector: above nu_C refinement evaluates the ascending
# series in 1/(i nu) over the pass's C_0..C_13.

_C_SERIES_XS = (0.5, 1.0, 2.0, 4.0, 10.0, 20.0)


def _exact_c(n: int, c) -> mp.mpf:
    # C_n(c) = sum_k (-1)^(n-k) S(n, k) c^k / k!, at the working precision.
    return mp.fsum((-1) ** (n - k) * mp.stirling2(n, k) * c ** k
                   / mp.factorial(k) for k in range(n + 1))


@pytest.mark.parametrize("x", _C_SERIES_XS)
@pytest.mark.parametrize("family", ["modified", "ordinary"])
def test_the_c_series_truncation_is_within_its_bound(x, family):
    # The series through C_13 against hyp0f1(1 + i nu, +-chi), both at 40
    # digits with the exact C_n, at nu_C, 1.3 nu_C and 5 nu_C: the error of
    # the truncation alone is at most 2^-56, the bound nu_C is set by.
    nu_c = zerofinder._threshold(asymcoeff._zero_coefficients(x, family)[1])
    assert nu_c > 16.0
    with mp.workdps(40):
        c = mp.mpf(x) ** 2 / 4 * (1 if family == "modified" else -1)
        C = [_exact_c(n, c) for n in range(14)]
        for nu in (nu_c, 1.3 * nu_c, 5.0 * nu_c):
            inu = mp.mpc(0, nu)
            series = mp.fsum(C[n] / inu ** n for n in range(14))
            error = abs(series - mp.hyp0f1(1 + inu, c))
            assert error <= mp.mpf(2) ** -56, (nu / nu_c, float(error))


@pytest.mark.parametrize("family", ["modified", "ordinary"])
def test_nu_c_is_the_least_nu_within_the_bound(family):
    # 2 (|C14| nu^-14 + |C15| nu^-15) is 2^-56 at nu_C, to a few ulps, and
    # nu_C is the floor 16 where the terms are smaller there, as at x = 0.01.
    for x in (0.01, *_C_SERIES_XS, 30.0, 1e3):
        C = asymcoeff._zero_coefficients(x, family)[1]
        nu_c = zerofinder._threshold(C)

        def bound(nu):
            return 2.0 * (abs(C[14]) * nu ** -14 + abs(C[15]) * nu ** -15)

        assert nu_c >= 16.0, x
        if x == 0.01:
            assert nu_c == 16.0 and bound(16.0) < 2.0 ** -56
        else:
            assert bound(nu_c) == pytest.approx(2.0 ** -56, rel=1e-14), x
            assert bound(nu_c * (1.0 - 1e-12)) > 2.0 ** -56, x


def test_the_detector_matches_detection_value_above_nu_c():
    # 4,000 seeded points: a kind, x log-uniform in [0.01, 30] and nu
    # log-uniform in [nu_C, 50 nu_C]. Measured at most 4.4e-16 apart.
    rng = random.Random(20261022)
    kinds = list(FunctionKind)
    worst = 0.0
    for _ in range(4000):
        kind = rng.choice(kinds)
        x = 10.0 ** rng.uniform(-2.0, math.log10(30.0))
        C = asymcoeff._zero_coefficients(x, kind.family)[1]
        nu = zerofinder._threshold(C) * 50.0 ** rng.random()
        got = zerofinder._detector(kind, x, C)(nu)
        worst = max(worst, abs(got - detection_value(kind, nu, x)))
    assert worst <= 1e-15


@pytest.mark.parametrize("index,value", [(14, math.inf), (15, -math.inf),
                                         (14, math.nan), (15, math.nan)])
def test_a_non_finite_c14_or_c15_leaves_every_nu_to_detection_value(
        index, value):
    C = list(asymcoeff._zero_coefficients(1.0, "modified")[1])
    C[index] = value
    assert zerofinder._threshold(C) == math.inf
    for kind in FunctionKind:
        detect = zerofinder._detector(kind, 1.0, C)
        for nu in (0.5, 16.0, 30.0, 200.0, 1e4):
            assert detect(nu) == detection_value(kind, nu, 1.0), (kind, nu)


@pytest.mark.parametrize("kind", ["L", "K", "F", "G"])
def test_enumerate_matches_refining_each_estimate_at_x_10(kind):
    # At x = 10 nu_C is 101.9 (L, K) and 179.8 (F, G): the zeros n <= 300
    # lie on both sides of it.
    records = enumerate_zeros(kind, 10.0, 300)
    family = FunctionKind.coerce(kind).family
    nu_c = zerofinder._threshold(asymcoeff._zero_coefficients(10.0,
                                                              family)[1])
    assert records[0].nu_refined < nu_c < records[-1].nu_refined
    for record in records:
        assert record == refine_zero(asymptotic_zero(kind, record.n, 10.0)), \
            f"{kind} n={record.n}"
