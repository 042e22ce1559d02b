"""Tests for the complex log-gamma kernel and the prefactor split."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from imbessel import (STIRLING_COEFFICIENTS, DomainError, FunctionKind,
                      log_gamma, recip_gamma_prefactor)

from golden import fnum


def test_log_gamma_vanishes_at_one_and_two():
    assert abs(log_gamma(1.0 + 0j)) <= 1e-14
    assert abs(log_gamma(2.0 + 0j)) <= 1e-14


def test_log_gamma_matches_reference_at_1_10i(reference):
    value = log_gamma(complex(1.0, 10.0))
    want = reference["log_gamma_1_10i"]
    assert abs(value.real - fnum(want["re"])) <= 1e-13
    assert abs(value.imag - fnum(want["im"])) <= 1e-13


def test_log_gamma_modulus_identity_at_nu_10():
    # |Gamma(1 + i nu)|^2 = pi nu / sinh(pi nu), compared in log form.
    value = log_gamma(complex(1.0, 10.0))
    rhs = math.log(10.0 * math.pi) - math.log(math.sinh(10.0 * math.pi))
    assert abs(2.0 * value.real - rhs) <= 1e-12


@pytest.mark.parametrize("z", [0.0 + 0j, -1.0 + 0j, complex(-2.0, 5.0)])
def test_log_gamma_rejects_left_half_plane(z):
    with pytest.raises(DomainError):
        log_gamma(z)


# From |z| = 1e154 on z * z overflows: these gave nan+nanj and inf+0j.
@pytest.mark.parametrize("z", [complex(1.0, math.inf), complex(math.inf, 0.0),
                               complex(math.inf, -1.0), complex(1.0, math.nan),
                               complex(math.nan, 1.0), complex(1e200, 1e200),
                               complex(1e300, 1e300), 1e306])
def test_log_gamma_rejects_a_non_finite_argument(z):
    with pytest.raises(DomainError):
        log_gamma(z)


@pytest.mark.parametrize("z", [complex(1e153, 1e153), complex(9.99e153, 0.0),
                               complex(1.0, -9.99e153)])
def test_log_gamma_is_accurate_just_inside_its_modulus_bound(z):
    mp.mp.dps = 30
    want = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
    assert abs(log_gamma(z) - want) <= 1e-15 * abs(want)


def test_log_gamma_accuracy_on_the_working_band():
    # Right half-plane accuracy against an independent multiprecision
    # implementation, on the |Im z| <= 100 band the evaluator uses.
    mp.mp.dps = 30
    for re in (0.5, 1.0, 2.5, 10.3, 47.0):
        for im in (0.0, 0.5, -0.5, 10.0, -10.0, 40.0, 99.0, -99.0):
            z = complex(re, im)
            got = log_gamma(z)
            want = mp.loggamma(mp.mpc(re, im))
            err = abs(mp.mpc(got.real, got.imag) - want)
            scale = max(1.0, abs(complex(want.real, want.imag)))
            assert float(err) <= 1e-14 * scale, f"z = {z}"


def test_log_gamma_recurrence():
    # log Gamma(z+1) - log Gamma(z) - log z == 0 modulo 2 pi i.
    for i in range(26):
        nu = 0.1 + (50.0 - 0.1) * i / 25
        z = complex(1.0, nu)
        r = log_gamma(z + 1.0) - log_gamma(z) - cmath.log(z)
        r -= complex(0.0, 2.0 * math.pi * round(r.imag / (2.0 * math.pi)))
        assert abs(r) <= 1e-13, f"nu = {nu}"


def test_log_gamma_conjugation():
    for re in (0.5, 1.0, 3.0, 11.0):
        for im in (0.1, 1.0, 10.0, 60.0):
            z = complex(re, im)
            diff = log_gamma(z.conjugate()) - log_gamma(z).conjugate()
            assert abs(diff) <= 1e-14, f"z = {z}"


def test_modulus_identity_across_orders():
    # For nu >= 20 both sides are formed in log space to avoid sinh overflow.
    for nu in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        value = log_gamma(complex(1.0, nu))
        u = math.pi * nu
        if nu >= 20.0:
            log_sinh = u + math.log1p(-math.exp(-2.0 * u)) - math.log(2.0)
        else:
            log_sinh = math.log(math.sinh(u))
        rhs = math.log(math.pi * nu) - log_sinh
        assert abs(2.0 * value.real - rhs) <= 1e-12, f"nu = {nu}"


_BERNOULLI_TERMS = tuple(float(c) for c in (
    Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260), Fraction(-1, 1680),
    Fraction(1, 1188), Fraction(-691, 360360), Fraction(1, 156),
    Fraction(-3617, 122400)))


def _log_gamma_reference(z):
    # The shift and the looped Stirling sum as first written; log_gamma must
    # reproduce them bit for bit.
    shift = 0.0 + 0.0j
    while abs(z) < 10.0:
        shift += cmath.log(z)
        z += 1.0
    total = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    zinv2 = 1.0 / (z * z)
    power = 1.0 / z
    for coeff in _BERNOULLI_TERMS:
        total += coeff * power
        power *= zinv2
    return total - shift


# Points on both sides of the shift radius |z| = 10.
@given(st.floats(min_value=1e-3, max_value=30.0),
       st.floats(min_value=-30.0, max_value=30.0))
@example(10.0, 0.0)
@example(9.999999999999998, 0.0)
@example(6.0, 8.0)
@example(5.999999999999999, 8.0)
def test_log_gamma_is_bit_identical_to_the_looped_stirling_sum(re, im):
    z = complex(re, im)
    assert log_gamma(z) == _log_gamma_reference(z)


# Far from the shift radius too, on the line z = 1 +- i nu that the
# prefactor used at every order, log_gamma keeps the looped sum's bits.
# |1 + i nu| is 100.0 from nu = 99.99499987499375 on.
@given(st.floats(min_value=99.0, max_value=1e6),
       st.sampled_from((1.0, -1.0)))
@example(99.99499987499374, 1.0)
@example(99.99499987499375, 1.0)
@example(99.99499987499377, 1.0)
@example(99.99499987499374, -1.0)
@example(99.99499987499375, -1.0)
@example(99.99499987499377, -1.0)
def test_log_gamma_is_bit_identical_on_the_evaluator_line_from_modulus_100(
        nu, sign):
    z = complex(1.0, sign * nu)
    assert log_gamma(z) == _log_gamma_reference(z)


@pytest.mark.parametrize("z", [100.0 + 0j, 150.0 + 0j, 70.0 + 80.0j,
                               0.5 + 300.0j, 1e3 + 1e3j])
def test_log_gamma_is_accurate_from_modulus_100(z):
    mp.mp.dps = 30
    want = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
    assert abs(log_gamma(z) - want) <= 1e-15 * abs(want)


# Below nu = 16 the prefactor's phase comes from log_gamma, from 16 on from
# the real Stirling series on the imaginary axis.
_NU0 = 16.0
_BELOW_NU0 = math.nextafter(_NU0, 0.0)


@given(st.floats(min_value=1e-3, max_value=_BELOW_NU0),
       st.floats(min_value=1e-3, max_value=100.0))
@example(_BELOW_NU0, 1.0)
@example(_BELOW_NU0, 1e-3)
def test_prefactor_is_bit_identical_to_the_complex_form(nu, x):
    w = 1j * nu * math.log(0.5 * x) - log_gamma(complex(1.0, nu))
    assert recip_gamma_prefactor(nu, x) == cmath.exp(1j * w.imag)


def _real_phase_reference(nu, x):
    # nu (1 + log(x/(2 nu))) - pi/4 + sum_j |B_2j| / (2j (2j-1)) nu^(1-2j),
    # all eight terms, each Horner step looped: s = -1/nu^2 turns the signed
    # coefficients into their moduli.
    s = -1.0 / (nu * nu)
    tail = _BERNOULLI_TERMS[-1]
    for coeff in reversed(_BERNOULLI_TERMS[:-1]):
        tail = coeff + s * tail
    return (nu * (1.0 + math.log(0.5 * x / nu)) - 0.25 * math.pi
            + tail / nu)


@given(st.floats(min_value=_NU0, max_value=1e6),
       st.floats(min_value=1e-3, max_value=100.0))
@example(_NU0, 1.0)
@example(9.99e153, 1e-3)
def test_prefactor_from_16_on_is_the_real_stirling_series(nu, x):
    want = cmath.exp(1j * _real_phase_reference(nu, x))
    assert recip_gamma_prefactor(nu, x) == want


def _phase_error_ratios(nu, x):
    # The error of the unit value against mpmath, for recip_gamma_prefactor
    # and for the complex form, in units of 2^-52 nu (1 + |log(x/(2 nu))|):
    # the rounding of log(x/(2 nu)) carried by nu, and of the other terms.
    nu_, x_ = mp.mpf(nu), mp.mpf(x)
    exact = mp.expj(nu_ * mp.log(x_ / 2) - mp.loggamma(mp.mpc(1, nu_)).imag)
    complex_form = cmath.exp(1j * (nu * math.log(0.5 * x)
                                   - log_gamma(complex(1.0, nu)).imag))
    unit = 2.0 ** -52 * nu * (1.0 + abs(math.log(0.5 * x) - math.log(nu)))
    return (float(abs(recip_gamma_prefactor(nu, x) - exact)) / unit,
            float(abs(complex_form - exact)) / unit)


def test_prefactor_phase_is_as_accurate_as_the_complex_form():
    # Seeded log-uniform points, nu in [16, 1e6] and x in [0.01, 100]. The
    # complex form reaches 2.7 units on these points. At the four tiny x
    # x / (2 nu) is subnormal or zero and the phase takes log(x/2) - log(nu).
    mp.mp.dps = 40
    rng = random.Random(20)
    points = [(_NU0, 0.01), (_NU0, 100.0), (100.0, 1.0), (1e6, 0.01),
              (1e6, 1e-305), (1e3, 1e-306), (1e20, 1e-300), (20.0, 4e-307)]
    points += [(math.exp(rng.uniform(math.log(_NU0), math.log(1e6))),
                math.exp(rng.uniform(math.log(0.01), math.log(100.0))))
               for _ in range(600)]
    worst = [0.0, 0.0]
    for nu, x in points:
        ratios = _phase_error_ratios(nu, x)
        assert ratios[0] <= 2.0, (nu, x)
        worst = [max(w, r) for w, r in zip(worst, ratios)]
    assert worst[0] <= worst[1]


# The first dropped term of the Stirling series times sec^(2J+2)(pi/4) =
# 2^(J+1) bounds its remainder on the imaginary axis (DLMF 5.11(ii)). The
# series keeps J = 8 terms; the bound is largest at nu = 16.
@pytest.mark.parametrize("nu,terms", [(_NU0, 8), (100.0, 8), (1e3, 8)])
def test_the_phase_series_truncation_is_inside_the_budget(nu, terms):
    mp.mp.dps = 60
    nu_ = mp.mpf(nu)
    series = nu_ * mp.log(nu_) - nu_ + mp.pi / 4
    for j in range(1, terms + 1):
        series -= abs(mp.bernoulli(2 * j)) / (2 * j * (2 * j - 1)) \
            * nu_ ** (1 - 2 * j)
    remainder = mp.loggamma(mp.mpc(1, nu_)).imag - series
    k = terms + 1
    bound = 2 ** k * abs(mp.bernoulli(2 * k)) / (2 * k * (2 * k - 1)) \
        * nu_ ** (1 - 2 * k)
    assert abs(remainder) <= bound <= 1e-17
    # The coefficients the series uses are those moduli.
    assert [abs(c) for c in _BERNOULLI_TERMS[:terms]] == [
        float(abs(mp.bernoulli(2 * j)) / (2 * j * (2 * j - 1)))
        for j in range(1, terms + 1)]


@pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 2.0, 10.0, 32.0, 100.0])
def test_the_two_phase_branches_meet_at_16(x):
    # The jump across nu = 16 is inside the accuracy bound above.
    jump = abs(recip_gamma_prefactor(_NU0, x)
               - recip_gamma_prefactor(_BELOW_NU0, x))
    assert jump <= 2.0 * 2.0 ** -52 * _NU0 * (1.0 + abs(math.log(x / 32.0)))


@pytest.mark.parametrize("nu,x", [
    (9.99e153, 1.0), (1e153, 1.7e308), (10.0, 1.7e308), (20.0, 1.7e308),
    (10.0, 1e-310), (20.0, 1e-310), (1e20, 1e-300), (1e30, 1e-300)])
def test_prefactor_is_a_unit_value_at_extreme_x(nu, x):
    assert abs(abs(recip_gamma_prefactor(nu, x)) - 1.0) <= 1e-15


def test_prefactor_phase_has_unit_modulus():
    for nu in (0.5, 2.962549, 10.0, 50.0):
        for x in (0.5, 1.0, 2.0):
            assert abs(abs(recip_gamma_prefactor(nu, x)) - 1.0) <= 1e-15


def test_prefactor_magnitude_grows_like_half_pi_nu():
    # The prefactor modulus is carried by each kind's closed-form scale. At
    # nu = 50 it is ~ e^{pi nu / 2} / sqrt(2 pi nu), so its log, the scale
    # less the log of the kind's hyperbolic weight, sits near 75.
    nu = 50.0
    u = 0.5 * math.pi * nu
    log_weight = {"L": math.log(math.pi / math.sinh(2.0 * u)),
                  "K": math.log(math.pi / math.sinh(2.0 * u)),
                  "F": -math.log(math.cosh(u)), "G": -math.log(math.sinh(u))}
    for kind in FunctionKind:
        log_magnitude = kind.log_scale(nu) - log_weight[kind.value]
        assert 70.0 <= log_magnitude <= 80.0, kind


@pytest.mark.parametrize("nu,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                  (1.0, -2.0), (math.nan, 1.0),
                                  (1.0, math.nan)])
def test_prefactor_rejects_nonpositive_arguments(nu, x):
    with pytest.raises(DomainError, match="requires"):
        recip_gamma_prefactor(nu, x)


# At nu = 1e306 arg Gamma(1 + i nu) overflows, and the phase with it. Each
# branch raises from nu = 1e154 on, at an infinite x, and where 0.5 x is
# zero.
@pytest.mark.parametrize("nu,x", [
    (math.inf, 1.0), (1.0, math.inf), (20.0, math.inf), (1e154, 1.0),
    (1e306, 1.0), (10.0, 5e-324), (20.0, 5e-324)])
def test_prefactor_rejects_a_phase_that_is_not_finite(nu, x):
    with pytest.raises(DomainError, match="no finite phase"):
        recip_gamma_prefactor(nu, x)


def test_reciprocal_gamma_series_coefficients_are_exact_rationals():
    want = (Fraction(1), Fraction(-1, 12), Fraction(1, 288),
            Fraction(139, 51840), Fraction(-571, 2488320),
            Fraction(-163879, 209018880))
    assert STIRLING_COEFFICIENTS[:6] == want
    assert tuple(float(g) for g in STIRLING_COEFFICIENTS[:6]) == \
        tuple(float(g) for g in want)
