"""Tests for the coefficient pipeline chi -> C_k -> a_k -> A_k -> (b_k, B_k)."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp
import pytest

from imbessel import (STIRLING_COEFFICIENTS, A_coefficients, DomainError,
                      FunctionKind, a_coefficients, asymptotic_zero,
                      c_polynomials, coefficient_set,
                      correction_coefficients, leading_xi)

import imbessel.asymcoeff as asymcoeff

from golden import NS, dp6, fnum

GRID_X = (0.5, 1.0, 2.0)
GRID_N = (5, 10, 20, 50)


def _exact_c(chi: Fraction) -> list[Fraction]:
    # The closed C0..C5 of the paper, and C6 and C7 in the same form.
    return [Fraction(1),
            chi,
            chi * (-2 + chi) / 2,
            chi * (6 - 9 * chi + chi ** 2) / 6,
            chi * (-24 + 84 * chi - 24 * chi ** 2 + chi ** 3) / 24,
            chi * (120 - 900 * chi + 500 * chi ** 2 - 50 * chi ** 3
                   + chi ** 4) / 120,
            chi * (-720 + 11160 * chi - 10800 * chi ** 2 + 1950 * chi ** 3
                   - 90 * chi ** 4 + chi ** 5) / 720,
            chi * (5040 - 158760 * chi + 252840 * chi ** 2
                   - 73500 * chi ** 3 + 5880 * chi ** 4 - 147 * chi ** 5
                   + chi ** 6) / 5040]


def test_c_polynomials_at_zero():
    assert c_polynomials(0.0) == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_c_polynomials_at_one_quarter():
    # Every C_k at chi = 1/4 is the correctly rounded float of its exact
    # value: c_polynomials' C0..C5 and the pass's C0..C7 alike. The pass's
    # C8..C13 are within one eps relative of theirs (measured: 0.47 eps).
    C = c_polynomials(0.25)
    assert C[2] == -7.0 / 32.0
    exact = [float(c) for c in _exact_c(Fraction(1, 4))]
    assert C == exact[:6]
    C = asymcoeff._expansion(1.0, "modified")[2]
    assert len(C) == 14
    assert C[:8] == exact
    for n in range(8, 14):
        want = _c_from_stirling(n, Fraction(1, 4))
        assert abs(Fraction(C[n]) - want) <= Fraction(2 ** -52) * abs(want), n


def test_c_polynomials_are_the_series_expansion_coefficients():
    # Fit sum_k C_k / (i nu)^k to the Pochhammer series
    # sum_k chi^k / (k! (1+i nu)_k) at large nu and compare the fitted
    # coefficients with the closed forms.
    mp.mp.dps = 60

    def pochhammer_series(nu, chi):
        total = mp.mpc(0)
        term = mp.mpc(1)
        for k in range(200):
            total += term
            term *= chi / ((k + 1) * (1 + 1j * nu + k))
            if abs(term) < mp.mpf(10) ** -55:
                break
        return total

    nodes = [mp.mpf(10) ** (3 + mp.mpf(j) / 4) for j in range(8)]
    rows = [[(1 / (1j * nu)) ** k for k in range(8)] for nu in nodes]
    rhs = [pochhammer_series(nu, mp.mpf("0.25")) for nu in nodes]
    fitted = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
    for k, ck in enumerate(c_polynomials(0.25)):
        assert abs(mp.mpc(fitted[k]) - ck) <= 1e-6, f"k = {k}"


def test_a_coefficients_reduce_to_series_coefficients_at_zero():
    assert a_coefficients(0.0, "modified") == \
        [float(g) for g in STIRLING_COEFFICIENTS[:6]]
    assert a_coefficients(0.0, "ordinary") == \
        [float(g) for g in STIRLING_COEFFICIENTS[:6]]


def test_a_coefficients_first_order_values():
    # a_1 = chi + gamma_1 for the modified family, -chi + gamma_1 for the
    # ordinary family (the ordinary series alternates, so chi enters negated).
    assert abs(a_coefficients(0.25, "modified")[1] - 1.0 / 6.0) <= 1e-16
    assert abs(a_coefficients(0.25, "ordinary")[1] + 1.0 / 3.0) <= 1e-16


def test_a_coefficients_rejects_unknown_family():
    with pytest.raises(DomainError):
        a_coefficients(0.25, "spherical")


def test_a_coefficients_match_exact_convolution_at_large_order(reference):
    # sum_{k<=5} a_k z^k must reproduce the product of the reciprocal-gamma
    # series and the C-series through fifth order. Both sides are evaluated
    # at z = 1/(i nu), nu = 10^4, in exact rational arithmetic, so the only
    # deviation is the rounding in the stored a_k floats.
    gamma = STIRLING_COEFFICIENTS
    C = _exact_c(Fraction(1, 4))[:6]
    exact_a = [sum(gamma[r] * C[k - r] for r in range(k + 1))
               for k in range(6)]
    impl_a = [Fraction(v) for v in a_coefficients(0.25, "modified")]
    nu = 10 ** 4

    def value(coeffs):
        re, im = Fraction(0), Fraction(0)
        for k, c in enumerate(coeffs):
            p = c / Fraction(nu ** k)
            q = k % 4
            if q == 0:
                re += p
            elif q == 1:
                im -= p
            elif q == 2:
                re -= p
            else:
                im += p
        return re, im

    re_exact, im_exact = value(exact_a)
    re_impl, im_impl = value(impl_a)
    diff_sq = (re_impl - re_exact) ** 2 + (im_impl - im_exact) ** 2
    norm_sq = re_exact ** 2 + im_exact ** 2
    assert diff_sq <= Fraction(10) ** -40 * norm_sq


def test_big_a_vanishes_without_corrections():
    assert A_coefficients([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]


def test_big_a_reduces_to_arctangent_series():
    # With a_1 = 1 and higher a_k = 0, the inversion is the plain arctan
    # series: A = [1, -1/3, 1/5].
    A = A_coefficients([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert abs(A[0] - 1.0) <= 1e-15
    assert abs(A[1] + 1.0 / 3.0) <= 1e-15
    assert abs(A[2] - 1.0 / 5.0) <= 1e-15
    # Two more a_k give the next term, -1/7.
    A = A_coefficients([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert len(A) == 4 and abs(A[3] + 1.0 / 7.0) <= 1e-15


def test_big_a_requires_unit_leading_coefficient():
    with pytest.raises(DomainError):
        A_coefficients([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_phase_correction_polynomial_matches_direct_inversion():
    # epsilon = A_0/nu + A_1/nu^3 + A_2/nu^5 must agree with solving the
    # tangent equation directly at nu = 100.
    coeffs = coefficient_set(1.0, "modified")
    a, A = coeffs.a, coeffs.A
    nu = 100.0
    eps_poly = A[0] / nu + A[1] / nu ** 3 + A[2] / nu ** 5
    eps_direct = math.atan(
        (a[1] / nu - a[3] / nu ** 3 + a[5] / nu ** 5)
        / (1.0 - a[2] / nu ** 2 + a[4] / nu ** 4))
    assert abs(eps_poly - eps_direct) <= 1e-12


def test_correction_coefficients_vanish_without_phase_corrections():
    result = correction_coefficients([0.0, 0.0, 0.0], 3.0, 2.0)
    assert result.b == (0.0, 0.0, 0.0)
    assert result.B == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("xi,m", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                  (1.0, -3.0), (1.0, math.inf),
                                  (math.inf, 1.0)])
def test_correction_coefficients_reject_nonpositive_inputs(xi, m):
    with pytest.raises(DomainError):
        correction_coefficients([0.1, 0.1, 0.1], xi, m)


@pytest.mark.parametrize("xi,m", [(5e-324, 1e300), (1e300, 1e-10),
                                  (1e-100, 1.0), (1e200, 1e60)])
def test_correction_coefficients_reject_a_degenerate_ratio(xi, m):
    # xi / m underflows to 0 or overflows to inf, or its fourth power, a
    # divisor of B2, does: DomainError, not ZeroDivisionError,
    # OverflowError or NaN coefficients.
    with pytest.raises(DomainError, match="degenerate correction"):
        correction_coefficients([0.1, 0.1, 0.1], xi, m)


def _correction_grid():
    for x, family in itertools.product(GRID_X, ("modified", "ordinary")):
        coeffs = coefficient_set(x, family)
        lambda_ = 2.0 / (math.e * x)
        for n in (1, 2, 5, 10, 50):
            m = (n + 0.25) * math.pi
            xi = leading_xi(m, lambda_)
            yield x, family, n, m, xi, coeffs, \
                correction_coefficients(list(coeffs.A), xi, m)


def test_b_and_big_b_normalizations_agree():
    # b_k / xi^{2k+1} = B_k / m^{2k+1} links the two forms of the expansion.
    for x, family, n, m, xi, _, corr in _correction_grid():
        for k in range(3):
            lhs = corr.b[k] / xi ** (2 * k + 1)
            rhs = corr.B[k] / m ** (2 * k + 1)
            assert abs(lhs - rhs) <= 1e-13 * max(abs(rhs), 1e-300), \
                f"x={x} {family} n={n} k={k}"


def test_b1_satisfies_the_cubic_order_balance():
    # b_1 (1 + log lambda xi) + b_0^2 / 2 = A_0 b_0 - A_1 exactly; this is
    # the equation the third-order term of the substitution must satisfy.
    for x, family, n, m, xi, coeffs, corr in _correction_grid():
        lambda_ = 2.0 / (math.e * x)
        one_plus_log = 1.0 + math.log(lambda_ * xi)
        balance = corr.b[1] * one_plus_log + 0.5 * corr.b[0] ** 2 \
            - (coeffs.A[0] * corr.b[0] - coeffs.A[1])
        assert abs(balance) <= 1e-14, f"x={x} {family} n={n}"


def test_three_term_sum_matches_tabulated_estimate_for_k_n10(reference):
    estimate = asymptotic_zero("K", 10, 1.0)
    value = estimate.partial[3]
    want = dp6(fnum(reference["estimate_partials_x1"]["K"][NS.index(10)][3]))
    assert dp6(value) == want, (
        f"the three-correction sum computes to {value:.9f} "
        f"(6 dp: {dp6(value)}), not the oracle's estimate_partials_x1 "
        f"{want}")


# gamma_6 and gamma_7 of the reciprocal-Gamma series, exact.
_GAMMA_67 = (Fraction(5246819, 75246796800), Fraction(534703531, 902961561600))


def _bernoulli(count: int) -> list[Fraction]:
    # B_0..B_(count-1) from sum_{k<=m} binom(m + 1, k) B_k = 0 for m >= 1.
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def _exact_gamma(count: int) -> list[Fraction]:
    # gamma_0..gamma_(count-1): 1/Gamma's Stirling factor is exp(-sum_j
    # B_2j t^(2j-1) / (2j (2j-1))), and its t^k coefficients h_k obey
    # k h_k = sum_j j f_j h_(k-j).
    bernoulli = _bernoulli(count + 1)
    f = [Fraction(0)] * count
    for j in range(1, count // 2 + 1):
        f[2 * j - 1] = -bernoulli[2 * j] / (2 * j * (2 * j - 1))
    h = [Fraction(1)] + [Fraction(0)] * (count - 1)
    for k in range(1, count):
        h[k] = sum(j * f[j] * h[k - j] for j in range(1, k + 1)) / k
    return h


def _stirling2(n: int, k: int) -> int:
    # Stirling numbers of the second kind, S(n, k).
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _c_from_stirling(n: int, chi: Fraction) -> Fraction:
    # C_n(chi) = sum_k (-1)^(n-k) S(n, k) chi^k / k!.
    if n == 0:
        return Fraction(1)
    return sum((-1) ** (n - k) * _stirling2(n, k) * chi ** k
               / math.factorial(k) for k in range(1, n + 1))


def _exact_phase_coefficients(chi: Fraction) -> list[Fraction]:
    # A0..A6 = t, -t^3, t^5, ..., t^13 coefficients of log(sum_k a_k t^k),
    # from k g_k = k a_k - sum_{j<k} j g_j a_{k-j}, in exact arithmetic.
    C = [_c_from_stirling(n, chi) for n in range(14)]
    gamma = _exact_gamma(14)
    a = [sum(gamma[r] * C[k - r] for r in range(k + 1)) for k in range(14)]
    g = [Fraction(0)] * 14
    for k in range(1, 14):
        g[k] = a[k] - sum(j * g[j] * a[k - j] for j in range(1, k)) / k
    return [g[k] if k % 4 == 1 else -g[k] for k in range(1, 14, 2)]


def test_gamma_8_to_13_are_the_correctly_rounded_stirling_coefficients():
    # cgamma's gamma_0..gamma_13, derived from its Bernoulli terms, against
    # the exact coefficients computed here from the Bernoulli numbers alone;
    # each of the pass's floats is correctly rounded, and their bits pinned.
    exact = _exact_gamma(14)
    assert STIRLING_COEFFICIENTS == tuple(exact)
    assert exact[6:8] == list(_GAMMA_67)
    assert exact[8] == Fraction(-4483131259, 86684309913600)
    assert [g.hex() for g in asymcoeff._GAMMA] == [
        "0x1.0000000000000p+0", "-0x1.5555555555555p-4",
        "0x1.c71c71c71c71cp-9", "0x1.5f7268edab4c8p-9",
        "-0x1.e13ce465fa859p-13", "-0x1.9b0ff6874f2c4p-11",
        "0x1.247604839c038p-14", "0x1.36773bdb97b48p-11",
        "-0x1.b1d75d3346711p-15", "-0x1.b8239c670e690p-11",
        "0x1.2e31f9b7913eap-14", "0x1.f5dbcaf756cdep-10",
        "-0x1.54d241144693fp-13", "-0x1.a3a699f4a401bp-8"]
    for k, value in enumerate(asymcoeff._GAMMA):
        assert value == float(exact[k]), k
        assert abs(Fraction(value) - exact[k]) <= \
            Fraction(math.ulp(value)) / 2, k


def _c_from_the_series(chi: Fraction) -> list[Fraction]:
    # The t^0..t^7 coefficients of sum_k chi^k t^k / (k! prod_{j<=k}
    # (1 + j t)), the ascending series sum_k chi^k / (k! (1 + i nu)_k) in
    # t = 1 / (i nu), by exact power-series arithmetic.
    total = [Fraction(0)] * 8
    term = [Fraction(1)] + [Fraction(0)] * 7
    for k in range(8):
        total = [u + v for u, v in zip(total, term)]
        # term *= chi t / ((k + 1) (1 + (k + 1) t)), truncated after t^7.
        term = [Fraction(0)] + [chi * v / (k + 1) for v in term[:7]]
        for i in range(1, 8):
            term[i] -= (k + 1) * term[i - 1]
    return total


def test_the_stirling_number_form_gives_the_c_polynomials():
    # The form the pass evaluates reproduces the closed C0..C7 and the
    # coefficients of the series they expand.
    for chi in (Fraction(1, 4), Fraction(-3, 7), Fraction(5)):
        stirling = [_c_from_stirling(n, chi) for n in range(8)]
        assert stirling == _exact_c(chi)
        assert stirling == _c_from_the_series(chi)


@pytest.mark.parametrize("family", ["modified", "ordinary"])
@pytest.mark.parametrize("x,digits,digits_4_6", [
    (0.5, 14, 14), (1.0, 14, 14), (2.0, 14, 14), (4.0, 14, 14),
    (8.0, 13, 13), (10.0, 13, 13), (20.0, 11, 11), (30.0, 10, 9),
    (45.0, 10, 6), (50.0, 9, 6)])
def test_the_phase_coefficients_match_exact_arithmetic(x, family, digits,
                                                       digits_4_6):
    # The pass's A0..A6 against the exact log-series coefficients: the
    # published A0..A2, and A3..A6 for the phase equation. The terms cancel
    # more as x grows. The worst relative error over both families, A0..A3,
    # is 1.1e-15 for x <= 4, 1.3e-14 at x = 8, 2.4e-14 at 10, 9.3e-13 at 20,
    # 9.4e-12 at 30, 2.9e-11 at 45 and 5.0e-10 at 50; A4..A6, 6.6e-16 for
    # x <= 4, 9.5e-15 at 8, 4.9e-14 at 10, 8.8e-12 at 20, 7.0e-10 at 30,
    # 1.1e-7 at 45 and 6.4e-7 at 50.
    coeffs = coefficient_set(x, family)
    chi = Fraction(coeffs.chi) * (1 if family == "modified" else -1)
    exact = _exact_phase_coefficients(chi)
    got = asymcoeff._phase_coefficients(x, family)
    assert tuple(got[:3]) == coeffs.A
    assert len(got) == len(exact) == 7
    for k, (value, want) in enumerate(zip(got, exact)):
        places = digits if k <= 3 else digits_4_6
        assert abs(Fraction(value) - want) <= Fraction(1, 10 ** places) * \
            abs(want), f"A{k}"


def test_the_phase_coefficient_a3_raises_where_it_overflows():
    # A3 grows like chi^7 and leaves the floats from x ~ 2e22 on, long
    # before coefficient_set's own limit near x = 1.4e31.
    assert all(map(math.isfinite, coefficient_set(1e25, "modified").A))
    with pytest.raises(DomainError, match="A3 is not finite"):
        asymcoeff._phase_coefficients(1e25, "modified")
    with pytest.raises(DomainError, match="A3 is not finite"):
        asymptotic_zero("L", 1, 1e25)


def test_coefficient_set_invariants():
    for x, family in itertools.product(GRID_X, ("modified", "ordinary")):
        coeffs = coefficient_set(x, family)
        assert coeffs.C[0] == 1.0
        assert coeffs.a[0] == 1.0
        assert coeffs.chi == (0.5 * x) ** 2
        sign = 1.0 if family == "modified" else -1.0
        assert list(coeffs.C) == c_polynomials(sign * coeffs.chi)


@pytest.mark.parametrize("x", [1e100, math.inf])
@pytest.mark.parametrize("family", ["modified", "ordinary"])
def test_coefficient_set_rejects_an_x_whose_coefficients_overflow(x, family):
    # 1e100 overflows C2 to inf; at inf, C1 is already inf.
    with pytest.raises(DomainError, match="cannot form finite coefficients"):
        coefficient_set(x, family)


def test_coefficient_set_makes_one_pass(monkeypatch):
    # One evaluation of C0..C7 and one run of the log-series recurrence.
    calls = []

    def counting(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        monkeypatch.setattr(asymcoeff, name, wrapper)

    counting("_c_and_a", asymcoeff._c_and_a)
    counting("A_coefficients", asymcoeff.A_coefficients)
    coeffs = coefficient_set(1.0, "ordinary")
    assert calls == ["_c_and_a", "A_coefficients"]
    assert list(coeffs.C) == c_polynomials(-0.25)
    assert list(coeffs.a) == a_coefficients(0.25, "ordinary")
    assert list(coeffs.A) == A_coefficients(list(coeffs.a))


def test_coefficient_set_matches_reference_values(reference):
    for key, want in reference["coefficients"].items():
        x_part, family = key.split(",")
        coeffs = coefficient_set(float(x_part[2:]), family)
        for i in range(3):
            target = fnum(want["A"][i])
            assert abs(coeffs.A[i] - target) <= 1e-13 * max(1.0,
                                                            abs(target)), \
                f"{key} A[{i}]"


def _substitution_residual(kind: str, n: int, x: float):
    """|nu* log(lambda nu*) - (m - A0/nu* - A1/nu*^3 - A2/nu*^5)|, estimate."""
    fk = FunctionKind.coerce(kind)
    estimate = asymptotic_zero(fk, n, x)
    nu = estimate.partial[3]
    A = coefficient_set(x, fk.family).A
    lhs = nu * math.log(estimate.lambda_ * nu)
    rhs = estimate.m - A[0] / nu - A[1] / nu ** 3 - A[2] / nu ** 5
    return abs(lhs - rhs), estimate


def test_substitution_residual_constant_is_stable(reference):
    # The order-3 estimate closes the defining equation to O(m^{-6}). The
    # residual constant was fitted once when the reference values were
    # frozen; the implementation must reproduce it (float evaluation versus
    # the frozen multiprecision path drifts below one percent).
    fitted_m6 = fnum(reference["substitution_residual_constant_m6"])
    fitted_nu6 = fnum(reference["substitution_residual_constant_nu6"])
    worst_m6 = 0.0
    worst_nu6 = 0.0
    for x, kind, n in itertools.product(GRID_X, "LKFG", GRID_N):
        resid, estimate = _substitution_residual(kind, n, x)
        worst_m6 = max(worst_m6, resid * estimate.m ** 6)
        worst_nu6 = max(worst_nu6, resid * estimate.partial[3] ** 6)
        assert resid <= 1.05 * fitted_m6 / estimate.m ** 6, \
            f"x={x} {kind} n={n}"
    assert abs(worst_m6 / fitted_m6 - 1.0) <= 0.05
    assert abs(worst_nu6 / fitted_nu6 - 1.0) <= 0.05
