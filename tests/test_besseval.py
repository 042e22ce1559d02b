"""Tests for scaled containers, the ascending series, and L/K/F/G values."""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from imbessel import (NU_MIN, ConvergenceError, DomainError, FunctionKind,
                      ScaledReal, detection_value, eval_function, log_gamma,
                      phase, recip_gamma_prefactor, series_sum)

import imbessel.besseval as besseval
import imbessel.cgamma as cgamma

from golden import NS, TABLE_ZERO, fnum

_BAND_LO = 1.0 / math.e
_BAND_HI = math.e


@given(st.floats(allow_nan=False, allow_infinity=False,
                 allow_subnormal=False, min_value=-1e308, max_value=1e308),
       st.floats(min_value=-1e6, max_value=1e6))
def test_normalized_preserves_sign_and_log_value(mantissa, log_scale):
    norm = ScaledReal(mantissa, log_scale).normalized()
    if mantissa == 0.0:
        assert (norm.mantissa, norm.log_scale) == (0.0, 0.0)
        return
    assert math.copysign(1.0, norm.mantissa) == math.copysign(1.0, mantissa)
    assert _BAND_LO <= abs(norm.mantissa) <= _BAND_HI
    before = math.log(abs(mantissa)) + log_scale
    after = math.log(abs(norm.mantissa)) + norm.log_scale
    assert abs(after - before) <= 1e-13 * max(1.0, abs(before))


def test_normalized_is_identity_inside_the_band():
    value = ScaledReal(1.5, 3.0)
    assert value.normalized() is value


def test_plain_edge_cases():
    assert ScaledReal(1.0, 800.0).plain() is None
    assert ScaledReal(0.0, 900.0).plain() == 0.0
    assert ScaledReal(1e300, 500.0).plain() is None
    assert ScaledReal(1.5, -900.0).plain() == 0.0
    assert ScaledReal(-2.0, 0.0).plain() == -2.0
    assert ScaledReal(1.0, 700.0).plain() == math.exp(700.0)
    assert ScaledReal(1.0, 700.5).plain() is None


def _scaled(nu, x, family):
    # I (modified) or J (ordinary) at order i nu as unit_phase * series_sum
    # and the log of the prefactor modulus, -Re log Gamma(1 + i nu).
    unit = recip_gamma_prefactor(nu, x) * series_sum(nu, x, family)
    return unit, -log_gamma(complex(1.0, nu)).real


def test_unit_value_multiplies_phase_and_series():
    # The detection value is the kind's component of unit_phase * series_sum.
    for kind in FunctionKind:
        unit, _ = _scaled(5.0, 1.0, kind.family)
        part = unit.imag if kind.imaginary else unit.real
        assert detection_value(kind, 5.0, 1.0) == kind.sign * part, kind


@pytest.mark.parametrize("family", ["modified", "ordinary"])
def test_series_tends_to_one_as_x_vanishes(family):
    assert abs(series_sum(1.0, 1e-8, family) - 1.0) <= 1e-15


@pytest.mark.parametrize("family", ["modified", "ordinary"])
@pytest.mark.parametrize("nu", [1.0, 2.962549, 10.0])
def test_series_conjugates_under_order_reflection(family, nu):
    assert series_sum(-nu, 1.0, family) == \
        series_sum(nu, 1.0, family).conjugate()


def test_series_matches_reference_at_nu10(reference):
    want = complex(fnum(reference["series_sum_nu10_x1"]["re"]),
                   fnum(reference["series_sum_nu10_x1"]["im"]))
    got = series_sum(10.0, 1.0, "modified")
    assert abs(got - want) <= 1e-15 * abs(want)


def test_series_gap_to_truncated_c_expansion_scales_as_nu_minus6():
    # The six C_k polynomials are the 1/(i nu) expansion coefficients of the
    # series, so the truncation gap at nu = 10 must sit at the nu^{-6} scale.
    from imbessel import c_polynomials
    nu = 10.0
    got = series_sum(nu, 1.0, "modified")
    z = 1.0 / (1j * nu)
    truncated = sum(c * z ** k for k, c in enumerate(c_polynomials(0.25)))
    assert 0.1 <= abs(got - truncated) * nu ** 6 <= 5.0


def _series_sum_reference(nu, x, family, tol=1e-18):
    # The recurrence as first written, one complex() per term, with the same
    # stopping rule; series_sum must reproduce it bit for bit.
    z = (0.5 * x) ** 2 if family == "modified" else -((0.5 * x) ** 2)
    term = total = 1.0 + 0.0j
    for k in range(500):
        term *= z / ((k + 1) * complex(k + 1, nu))
        total += term
        if abs(term) <= tol * abs(total):
            return total
    raise AssertionError("reference series did not converge")


@given(st.floats(min_value=-1000.0, max_value=1000.0),
       st.floats(min_value=1e-3, max_value=50.0),
       st.sampled_from(["modified", "ordinary"]))
@example(-5.0, 1.0, "modified")
@example(-2.962549, 20.0, "ordinary")
def test_series_sum_is_bit_identical_to_the_complex_per_term_form(
        nu, x, family):
    assert series_sum(nu, x, family) == _series_sum_reference(nu, x, family)


@given(st.sampled_from(list(FunctionKind)),
       st.floats(min_value=0.5, max_value=900.0),
       st.floats(min_value=0.25, max_value=40.0))
def test_eval_function_is_bit_identical_to_normalizing_a_built_value(
        kind, nu, x):
    # The value built unnormalized and then normalized, as first written.
    unit = (recip_gamma_prefactor(nu, x)
            * _series_sum_reference(nu, x, kind.family))
    part = kind.sign * (unit.imag if kind.imaginary else unit.real)
    want = ScaledReal(part, kind.log_scale(nu)).normalized()
    assert eval_function(kind, nu, x) == want


def _count_layer_calls(monkeypatch) -> dict:
    # Count calls through the module attributes a layer tracer wraps.
    counts = {}
    for module, name in ((besseval, "recip_gamma_prefactor"),
                         (cgamma, "log_gamma"), (besseval, "series_sum")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


# log_gamma gives the prefactor's phase below nu = 16 only.
@pytest.mark.parametrize("nu,log_gamma_calls", [
    (10.0, 1), (15.999999999999998, 1), (16.0, 0), (30.0, 0), (150.0, 0)])
@pytest.mark.parametrize("evaluate", [detection_value, eval_function])
def test_one_evaluation_calls_each_layer_once_through_its_module(
        evaluate, nu, log_gamma_calls, monkeypatch):
    counts = _count_layer_calls(monkeypatch)
    evaluate("K", nu, 3.0)
    want = {"recip_gamma_prefactor": 1, "series_sum": 1}
    if log_gamma_calls:
        want["log_gamma"] = log_gamma_calls
    assert counts == want


@pytest.mark.parametrize("bad_call", [
    lambda: series_sum(1.0, 0.0, "modified"),
    lambda: series_sum(1.0, -1.0, "modified"),
    lambda: series_sum(1.0, 1.0, "bessel"),
    lambda: series_sum(1.0, math.inf, "modified"),
    lambda: series_sum(1.0, math.nan, "ordinary"),
    lambda: series_sum(math.inf, 1.0, "modified"),
    lambda: series_sum(math.nan, 1.0, "ordinary"),
])
def test_series_validates_arguments(bad_call):
    with pytest.raises(DomainError):
        bad_call()


def test_series_convergence_failure_is_reachable_for_the_ordinary_family():
    # At x = 670 the alternating series loses ~290 digits to cancellation,
    # so the term/total ratio stalls above tolerance; the same x converges
    # for the modified family, whose terms are all positive.
    with pytest.raises(ConvergenceError):
        series_sum(1.0, 670.0, "ordinary")
    assert abs(series_sum(1.0, 670.0, "modified")) > 1e288


@pytest.mark.parametrize("x", [1e4, 2.7e154, 1e300])
@pytest.mark.parametrize("family", ["modified", "ordinary"])
def test_a_series_that_overflows_raises_instead_of_returning_nan(family, x):
    # At x = 1e4 the terms pass the float range long before they shrink, so
    # the sum reaches inf + nan j; it must not be returned. From x = 2.7e154
    # on (x/2)^2 itself overflows, and must not raise OverflowError.
    with pytest.raises(ConvergenceError, match="not finite"):
        series_sum(5.0, x, family)
    kind = "K" if family == "modified" else "F"
    for evaluate in (eval_function, detection_value):
        with pytest.raises(ConvergenceError, match="not finite"):
            evaluate(kind, 5.0, x)


@pytest.mark.parametrize("nu", [2.962549, 5.0])
def test_scaled_i_matches_multiprecision(nu):
    mp.mp.dps = 30
    unit, log_scale = _scaled(nu, 1.0, "modified")
    got = unit * math.exp(log_scale)
    want = complex(mp.besseli(1j * mp.mpf(repr(nu)), 1))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_log_magnitude_of_i_matches_reference_and_envelope(reference):
    unit, log_scale = _scaled(5.0, 1.0, "modified")
    log_abs = math.log(abs(unit)) + log_scale
    assert abs(log_abs - fnum(reference["log_abs_I_nu5_x1"])) <= 1e-13
    envelope = 0.5 * math.pi * 5.0 - 0.5 * math.log(2.0 * math.pi * 5.0)
    assert abs(log_abs - fnum(reference["log_envelope_nu5"])) <= \
        math.log(1.02)
    assert abs(fnum(reference["log_envelope_nu5"]) - envelope) <= 1e-13


def _mpmath_value(kind, nu, x):
    # The definitions in the besseval module docstring, at 40 digits.
    nu, x = mp.mpf(repr(nu)), mp.mpf(repr(x))
    if kind in "LK":
        value = mp.besseli(1j * nu, x) * mp.pi / mp.sinh(mp.pi * nu)
        return value.real if kind == "L" else -value.imag
    value = mp.besselj(1j * nu, x)
    if kind == "F":
        return value.real / mp.cosh(mp.pi * nu / 2)
    return value.imag / mp.sinh(mp.pi * nu / 2)


@pytest.mark.parametrize("nu,x", [
    (nu, x) for x in (0.5, 1.0, 4.0)
    for nu in (0.5, 3.0, 7.3, 19.5, 20.5, 45.0) if nu >= x])
@pytest.mark.parametrize("kind", ["L", "K", "F", "G"])
def test_eval_function_matches_mpmath(kind, nu, x):
    # Orders on both sides of nu = 20, checking each kind's family,
    # component, sign and scale against mpmath.
    with mp.workdps(40):
        want = _mpmath_value(kind, nu, x)
        value = eval_function(kind, nu, x)
        got = mp.mpf(value.mantissa) * mp.exp(value.log_scale)
        assert abs(got - want) <= 1e-11 * abs(want), f"{got} vs {want}"


def _mpmath_log_scale(kind, nu):
    # -Re log Gamma(1 + i nu) plus the log of the kind's hyperbolic weight.
    nu = mp.mpf(repr(nu))
    weight = {"L": mp.pi / mp.sinh(mp.pi * nu),
              "K": mp.pi / mp.sinh(mp.pi * nu),
              "F": 1 / mp.cosh(mp.pi * nu / 2),
              "G": 1 / mp.sinh(mp.pi * nu / 2)}[kind]
    return -mp.re(mp.loggamma(1 + 1j * nu)) + mp.log(weight)


@pytest.mark.parametrize("kind", list(FunctionKind))
def test_closed_form_log_scale_matches_mpmath(kind):
    # Quarter decades over nu in [1e-3, 1e3], plus orders on both sides of
    # nu = 20. The scale is the log of the value's modulus, so near the
    # scale's own zero (L and K at nu ~ 0.6, F as nu -> 0) the bound holds
    # its absolute error, which is the value's relative error, to 1e-12.
    nus = [10.0 ** (k / 4) for k in range(-12, 13)] + [19.5, 20.0, 20.5]
    with mp.workdps(40):
        for nu in nus:
            want = float(_mpmath_log_scale(kind.value, nu))
            assert math.isclose(kind.log_scale(nu), want, rel_tol=1e-12,
                                abs_tol=1e-12), nu


def _full_log_scale(kind, nu):
    # The closed forms with every term evaluated, at any nu.
    if kind.family == "modified":
        v = math.pi * nu
        return 0.5 * (math.log(2.0 * math.pi / nu) - v
                      - math.log(-math.expm1(-2.0 * v)))
    u = 0.5 * math.pi * nu
    if kind is FunctionKind.F:
        return 0.5 * math.log(math.tanh(u) / u)
    return -0.5 * math.log(u * math.tanh(u))


@pytest.mark.parametrize("kind", list(FunctionKind))
def test_log_scale_is_bit_identical_to_the_full_closed_form(kind):
    # The log scales skip -expm1(-2 v) from v = pi nu = 20 on and tanh(u)
    # from u = pi nu / 2 = 20 on, where each rounds to exactly 1.0: the
    # floats on both sides of each cut, and orders far from it.
    nus = [10.0 ** (k / 8) for k in range(-24, 49)]
    for factor in (math.pi, 0.5 * math.pi):
        near = [besseval._SATURATED / factor]
        for direction in (0.0, math.inf):
            for _ in range(3):
                near.append(math.nextafter(near[-1], direction))
            near.append(near[0])
        # Each cut has floats on both of its sides.
        arguments = [factor * nu for nu in near]
        assert min(arguments) < besseval._SATURATED <= max(arguments)
        nus += near
    for nu in nus:
        assert kind.log_scale(nu) == _full_log_scale(kind, nu), nu


def test_detection_value_crosses_zero_with_k():
    assert detection_value("K", 2.9620, 1.0) > 0.0
    assert detection_value("K", 2.9630, 1.0) < 0.0


def test_detection_value_is_small_at_tabulated_zeros():
    for kind, zeros in TABLE_ZERO.items():
        for zero in zeros:
            assert abs(detection_value(kind, zero, 1.0)) <= 1e-5, \
                f"{kind} at {zero}"


def test_detection_value_shares_sign_with_the_function():
    for kind, nu in itertools.product("LKFG", (1.0, 2.5, 4.0, 9.7)):
        detected = detection_value(kind, nu, 1.0)
        mantissa = eval_function(kind, nu, 1.0).mantissa
        assert math.copysign(1.0, detected) == math.copysign(1.0, mantissa), \
            f"{kind} nu={nu}"


def test_detection_value_rejects_unknown_kind():
    for bad in ("Z", 3, None):
        with pytest.raises(DomainError):
            detection_value(bad, 1.0, 1.0)
    assert detection_value(FunctionKind.K, 2.5, 1.0) == \
        detection_value("K", 2.5, 1.0) == detection_value("k", 2.5, 1.0)


def test_eval_function_guards():
    with pytest.raises(DomainError):
        eval_function("L", 1e-4, 1.0)
    with pytest.raises(DomainError):
        eval_function("L", 1.0, 0.0)
    for bad in ("Q", 3, None):
        with pytest.raises(DomainError):
            eval_function(bad, 1.0, 1.0)
    assert eval_function(FunctionKind.K, 2.5, 1.0) == \
        eval_function("K", 2.5, 1.0) == eval_function("k", 2.5, 1.0)
    assert NU_MIN == 1e-3
    assert eval_function("L", NU_MIN, 1.0).plain() is not None


@pytest.mark.parametrize("nu,x", [(math.inf, 1.0), (math.nan, 1.0),
                                  (2.0, math.inf), (2.0, math.nan)])
@pytest.mark.parametrize("kind", ["L", "F"])
def test_eval_function_rejects_non_finite_inputs(kind, nu, x):
    with pytest.raises(DomainError):
        eval_function(kind, nu, x)


@pytest.mark.parametrize("kind", ["L", "K", "F", "G"])
def test_a_nu_whose_phase_overflows_raises_instead_of_returning_nan(kind):
    # arg Gamma(1 + i nu) is infinite at nu = 1e306; this returned NaN.
    for evaluate in (eval_function, detection_value):
        with pytest.raises(DomainError, match="no finite phase"):
            evaluate(kind, 1e306, 1.0)


def test_eval_function_returns_normalized_values():
    for kind, nu in itertools.product("LKFG", (0.5, 1.0, 5.0, 30.0)):
        value = eval_function(kind, nu, 1.0)
        assert value.mantissa == 0.0 or \
            _BAND_LO <= abs(value.mantissa) <= _BAND_HI


def test_k_matches_the_cosine_integral_reference(reference):
    # K(nu, x) equals the integral of cos(nu t) exp(-x cosh t) over t >= 0;
    # the reference values were computed from that integral independently of
    # the series route used here.
    for key, quoted in reference["k_integral_values"].items():
        parts = dict(piece.split("=") for piece in key.split(","))
        nu, x = float(parts["nu"]), float(parts["x"])
        want = fnum(quoted)
        got = eval_function("K", nu, x)
        scaled_want = want * math.exp(-got.log_scale)
        assert abs(got.mantissa - scaled_want) <= 1e-12 * abs(got.mantissa), \
            f"{key}"


@pytest.mark.parametrize("kind", ["L", "K"])
def test_large_order_values_match_the_uniform_asymptotic_form(kind):
    # At nu = 50 the five-coefficient phase-amplitude form holds to ~1e-11;
    # this ties the series evaluation to the expansion the zero estimates
    # are built from.
    from imbessel import coefficient_set
    nu, x = 50.0, 1.0
    lambda_ = 2.0 / (math.e * x)
    a = coefficient_set(x, "modified").a
    even = 1.0 - a[2] / nu ** 2 + a[4] / nu ** 4
    odd = a[1] / nu - a[3] / nu ** 3 + a[5] / nu ** 5
    big_phi = phase(nu, lambda_)
    if kind == "L":
        braces = math.cos(big_phi) * even - math.sin(big_phi) * odd
    else:
        braces = math.sin(big_phi) * even + math.cos(big_phi) * odd
    log_p = (math.log(math.pi) - (math.log1p(-math.exp(-2 * math.pi * nu))
                                  + math.log(0.5) + math.pi * nu)
             + 0.5 * math.pi * nu - 0.5 * math.log(2.0 * math.pi * nu))
    value = eval_function(kind, nu, x)
    ratio = value.mantissa * math.exp(value.log_scale - log_p)
    assert abs(ratio - braces) <= 1e-8 * abs(braces)


def test_ordinary_family_values_are_plain_sized():
    # F and G carry decaying weights, so their plain values exist and agree
    # with mantissa * exp(log_scale) at moderate order.
    for kind in ("F", "G"):
        value = eval_function(kind, 3.0, 1.0)
        plain = value.plain()
        assert plain is not None
        assert plain == value.mantissa * math.exp(value.log_scale)


def test_scaled_j_is_bounded_at_large_order():
    # |J_{i nu}(x)| grows like e^{pi nu / 2}; the scaled form keeps the
    # unit part order one while log_scale absorbs the growth.
    unit, log_scale = _scaled(40.0, 1.0, "ordinary")
    assert 1e-3 <= abs(unit) <= 1e3
    assert log_scale > 40.0


def test_zeros_interlace_along_nu(records_x1):
    # Between consecutive zeros of L the function K must change sign and
    # vice versa: the pair behaves like a cosine/sine pair in the phase.
    for first, second in zip(NS, NS[1:]):
        if second != first + 1:
            continue
        lo = records_x1[("L", first)].nu_refined
        hi = records_x1[("L", second)].nu_refined
        k_between = records_x1[("K", second)].nu_refined
        assert lo < k_between < hi
