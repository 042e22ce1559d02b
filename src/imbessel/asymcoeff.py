"""Coefficient pipeline for the large-nu zero expansions.

For fixed argument x the chain is chi = x^2/4 -> C_k -> a_k -> A_k -> (b_k,
B_k). The C_k are fixed polynomials in chi; the a_k fold in the Stirling
coefficients; the A_k invert the tangent of the phase correction; and the
correction coefficients b_k (xi-normalized) and B_k (m-normalized) solve the
order-by-order balance of nu * log(lambda * nu) = m - A0/nu - A1/nu^3 -
A2/nu^5 around the leading solution xi.

The paper stops at A2 and B2. The zero finder starts its refinement from
the same expansion carried one order further: _next_phase_coefficient
gives A3 from C6, C7 and the Stirling coefficients gamma_6, gamma_7 (DLMF
5.11), and _fourth_correction the B3 of the balance with - A3/nu^7 added.
The published coefficients and the records that hold them do not change.

The ordinary family (J-based functions F, G) uses the same machinery with the
C_k evaluated at -chi. All coefficients are n-independent, so a CoefficientSet
is built once per (x, family) and reused for every zero index. Both records
are immutable NamedTuples, equal to plain tuples of their values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cgamma import STIRLING_COEFFICIENTS
from .errors import DomainError

__all__ = ["CoefficientSet", "CorrectionCoefficients", "c_polynomials",
           "a_coefficients", "A_coefficients", "correction_coefficients",
           "coefficient_set"]

_FAMILIES = ("modified", "ordinary")

# The Stirling coefficients gamma_k as floats, converted once.
_GAMMA = tuple(float(g) for g in STIRLING_COEFFICIENTS)
# gamma_0..gamma_7, each (-1)^k g_k with g_k the Stirling coefficients of
# Gamma in DLMF 5.11; gamma_6 and gamma_7 serve only _next_phase_coefficient.
_GAMMA8 = _GAMMA + (5246819 / 75246796800, 534703531 / 902961561600)


class CoefficientSet(NamedTuple):
    """The n-independent coefficients for one (x, family) pair.

    C holds C_k evaluated at chi for the modified family and at -chi for the
    ordinary family; a holds a_k (or the ordinary-family variant); A holds
    A0..A2. chi is always x^2/4.
    """

    x: float
    chi: float
    family: str
    C: tuple[float, ...]
    a: tuple[float, ...]
    A: tuple[float, ...]


class CorrectionCoefficients(NamedTuple):
    """Correction coefficients of the zero expansion around xi.

    b_k multiply inverse powers of xi, B_k the matching inverse powers of m;
    the two normalizations agree through b_k / xi^{2k+1} = B_k / m^{2k+1}.
    """

    xi: float
    chi_ratio: float
    b: tuple[float, float, float]
    B: tuple[float, float, float]


def c_polynomials(chi: float) -> list[float]:
    """Evaluate the six polynomials C_0..C_5 at chi."""
    chi = float(chi)
    return [
        1.0,
        chi,
        (chi / 2.0) * (-2.0 + chi),
        (chi / 6.0) * (6.0 - 9.0 * chi + chi * chi),
        (chi / 24.0) * (-24.0 + 84.0 * chi - 24.0 * chi ** 2 + chi ** 3),
        (chi / 120.0) * (120.0 - 900.0 * chi + 500.0 * chi ** 2
                         - 50.0 * chi ** 3 + chi ** 4),
    ]


def a_coefficients(chi: float, family: str) -> list[float]:
    """The a_k series coefficients for the given family.

    a_k is the Cauchy-product coefficient of the Stirling series with the
    C-series: a_k = sum_{r=0..k} gamma_r * C_{k-r}, with the C_k evaluated
    at chi for the modified family and at -chi for the ordinary one.
    """
    return _c_and_a(chi, family)[1]


def _c_and_a(chi: float, family: str) -> tuple[list[float], list[float]]:
    # The C_k of the family's argument and the a_k built from them.
    if family not in _FAMILIES:
        raise DomainError(f"family must be one of {_FAMILIES}, got {family!r}")
    C = c_polynomials(float(chi) if family == "modified" else -float(chi))
    return C, [sum(_GAMMA[r] * C[k - r] for r in range(k + 1))
               for k in range(6)]


def A_coefficients(a: list[float]) -> list[float]:
    """Invert the tangent series of the phase correction to A0..A2."""
    if a[0] != 1.0:
        raise DomainError(f"A_coefficients requires a[0] = 1, got {a[0]!r}")
    a1, a2, a3, a4, a5 = a[1], a[2], a[3], a[4], a[5]
    A0 = a1
    A1 = a1 * a2 - a3 - a1 ** 3 / 3.0
    A2 = (a1 * a2 ** 2 + a1 ** 2 * a3 - a1 ** 3 * a2 - a2 * a3 - a1 * a4
          + a5 + a1 ** 5 / 5.0)
    return [A0, A1, A2]


def correction_coefficients(A: list[float], xi: float,
                            m: float) -> CorrectionCoefficients:
    """Solve the order-by-order balance for b0..b2 and form B0..B2.

    The caller guarantees xi * log(lambda * xi) = m, so 1 + log(lambda * xi)
    equals (1 + chi_ratio) / chi_ratio with chi_ratio = xi / m; that form
    avoids re-deriving lambda here. Raises DomainError for xi or m not in
    (0, inf), and when that pivot is not positive (xi at or below x/2,
    where the expansion is meaningless).
    """
    xi = float(xi)
    m = float(m)
    if not (0.0 < xi < math.inf and 0.0 < m < math.inf):
        raise DomainError(
            f"correction_coefficients requires finite xi > 0 and m > 0, "
            f"got xi = {xi!r}, m = {m!r}")
    chi_ratio = xi / m
    one_plus_log = (1.0 + chi_ratio) / chi_ratio
    if one_plus_log <= 0.0:
        raise DomainError(
            f"degenerate correction: 1 + log(lambda*xi) = {one_plus_log!r} "
            f"is not positive (xi = {xi!r})")

    A0, A1, A2 = float(A[0]), float(A[1]), float(A[2])
    b0 = -A0 / one_plus_log
    b1_numer = A0 * b0 - A1 - 0.5 * b0 ** 2
    b1 = b1_numer / one_plus_log
    b2_numer = (3.0 * A1 * b0 - A0 * (b0 ** 2 - b1) - A2 - b0 * b1
                + b0 ** 3 / 6.0)
    b2 = b2_numer / one_plus_log

    one_plus = 1.0 + chi_ratio
    B0 = -A0 / one_plus
    B1 = b1_numer / (chi_ratio ** 2 * one_plus)
    B2 = b2_numer / (chi_ratio ** 4 * one_plus)
    return CorrectionCoefficients(xi, chi_ratio, (b0, b1, b2), (B0, B1, B2))


def _next_phase_coefficient(coeffs: CoefficientSet) -> float:
    # A3, the phase coefficient after A2. A0..A3 are the t, -t^3, t^5 and
    # -t^7 coefficients g_k of log(sum_k a_k t^k), which the recurrence
    # k g_k = k a_k - sum_{j<k} j g_j a_{k-j} gives with less cancellation
    # than their expanded polynomials. a6 and a7 need C6 and C7 of the
    # family's argument c, where C_n(c) = sum_k (-1)^(n-k) S(n, k) c^k / k!
    # (S: Stirling numbers of the second kind), as for C0..C5.
    c = coeffs.chi if coeffs.family == "modified" else -coeffs.chi
    C = (*coeffs.C,
         c * (-720.0 + c * (11160.0 + c * (-10800.0 + c * (1950.0 + c * (
             -90.0 + c))))) / 720.0,
         c * (5040.0 + c * (-158760.0 + c * (252840.0 + c * (-73500.0 + c * (
             5880.0 + c * (-147.0 + c)))))) / 5040.0)
    a = (*coeffs.a, *(sum(_GAMMA8[r] * C[k - r] for r in range(k + 1))
                      for k in (6, 7)))
    g = [0.0] * 8
    for k in range(1, 8):
        g[k] = a[k] - sum(j * g[j] * a[k - j] for j in range(1, k)) / k
    if not math.isfinite(g[7]):
        raise DomainError(
            f"the phase coefficient A3 is not finite at x = {coeffs.x!r}")
    return -g[7]


def _fourth_correction(A: list[float],
                       correction: CorrectionCoefficients) -> float:
    # B3, the term B3/m^7 after B2/m^5 once - A3/nu^7 joins the balance,
    # from A0..A3 and the b0..b2 that correction_coefficients solved:
    # b3 = N3 / (1 + log(lambda xi)) and B3 = b3 / chi_ratio^7.
    A0, A1, A2, A3 = A
    b0, b1, b2 = correction.b
    r = correction.chi_ratio
    b00 = b0 * b0
    n3 = (A0 * (b00 * b0 - 2.0 * b0 * b1 + b2) + A1 * (3.0 * b1 - 6.0 * b00)
          + 5.0 * A2 * b0 - A3 - b00 * b00 / 12.0 + 0.5 * b00 * b1
          - b0 * b2 - 0.5 * b1 * b1)
    r3 = r * r * r
    return n3 / (r3 * r3 * (1.0 + r))


def coefficient_set(x: float, family: str) -> CoefficientSet:
    """Build the full n-independent coefficient set for (x, family).

    Raises DomainError for x <= 0 and for an x so large that a coefficient
    overflows a float.
    """
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"coefficient_set requires x > 0, got {x!r}")
    chi = x * x / 4.0
    try:
        C, a = _c_and_a(chi, family)
        A = A_coefficients(a)
        finite = all(map(math.isfinite, C + a + A))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"coefficient_set cannot form finite coefficients at x = {x!r}")
    return CoefficientSet(x, chi, family, tuple(C), tuple(a), tuple(A))
