"""Coefficient pipeline for the large-nu zero expansions.

For fixed argument x the chain is chi = x^2/4 -> C_k -> a_k -> A_k -> (b_k,
B_k). One pass per (x, family) builds it by one route: C_k from the
Stirling numbers of the second kind, a_k by one Cauchy product with the
gamma_k of 1/Gamma (DLMF 5.11), derived in cgamma from Bernoulli numbers,
and A_k by one log-series recurrence. The public functions keep the paper's
C0..C5, a0..a5 and A0..A2 of a pass to order 6; the zero finder's pass to
order 14, with the same bits below 6, adds A3..A6 for the phase equation
whose root starts every zero's refinement. The correction coefficients b_k
(xi-normalized) and B_k (m-normalized) solve the order-by-order balance of
nu log(lambda nu) = m - A0/nu - A1/nu^3 - A2/nu^5 around the leading
solution xi.

The ordinary family (F, G) evaluates the C_k at -chi. All coefficients are
n-independent, so the zero finder makes the pass once per (x, family) and
reuses its A_0..A_6 for every zero index; coefficient_set returns the
published part as a CoefficientSet. Both records are immutable NamedTuples.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .cgamma import STIRLING_COEFFICIENTS
from .errors import DomainError

__all__ = ["CoefficientSet", "CorrectionCoefficients", "c_polynomials",
           "a_coefficients", "A_coefficients", "correction_coefficients",
           "coefficient_set"]

_FAMILIES = ("modified", "ordinary")

_GAMMA = tuple(map(float, STIRLING_COEFFICIENTS))
_ORDER = len(_GAMMA)
_PUBLISHED = 6  # the order of the published C0..C5, a0..a5 and A0..A2


def _c_rows() -> tuple[tuple[int, tuple[float, ...]], ...]:
    # (n!, row) for n = 1..13: the integers (-1)^(n-k) S(n, k) n!/k! for k = n
    # down to 1, S(n, k) = k S(n-1, k) + S(n-1, k-1) from their triangle, as
    # the floats that Horner's rule would round them to anyway.
    rows, s = [], [1]
    for n in range(1, _ORDER):
        s = [0, *(k * s[k] + s[k - 1] for k in range(1, n)), 1]
        rows.append((math.factorial(n), tuple(
            float((-1) ** (n - k) * s[k] * math.perm(n, n - k))
            for k in range(n, 0, -1))))
    return tuple(rows)


_C_ROWS = _c_rows()


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
    return _c_and_a(chi, "modified", _PUBLISHED)[0]


def a_coefficients(chi: float, family: str) -> list[float]:
    """The a_k series coefficients for the given family.

    a_k is the Cauchy-product coefficient of the Stirling series with the
    C-series: a_k = sum_{r=0..k} gamma_r * C_{k-r}, with the C_k evaluated
    at chi for the modified family and at -chi for the ordinary one.
    """
    return _c_and_a(chi, family, _PUBLISHED)[1]


def _c_and_a(chi: float, family: str, order: int) -> tuple:
    # C_k and a_k, k < order, at the family's argument c: C_n(c) = sum_k
    # (-1)^(n-k) S(n, k) c^k / k! = c (r_1 + c (r_2 + ... + c r_n)) / n! by
    # Horner's rule over the row of integers r_k, a_k = sum gamma_r C_{k-r}.
    if family not in _FAMILIES:
        raise DomainError(f"family must be one of {_FAMILIES}, got {family!r}")
    c = float(chi) if family == "modified" else -float(chi)
    C = [1.0]
    for f, row in _C_ROWS[:order - 1]:
        acc = row[0]
        for r in row[1:]:
            acc = r + c * acc
        C.append(c * acc / f)
    return C, [sum(map(mul, _GAMMA, C[k::-1])) for k in range(order)]


def A_coefficients(a: list[float]) -> list[float]:
    """The phase coefficients A_k = (-1)^k g_{2k+1}: A0..A2 from a0..a5.

    g_k, the coefficients of log(sum_k a_k t^k), obey k g_k = k a_k -
    sum_{j<k} j g_j a_{k-j}; each odd 2k + 1 < len(a) gives an A_k.
    """
    if a[0] != 1.0:
        raise DomainError(f"A_coefficients requires a[0] = 1, got {a[0]!r}")
    g, jg = [0.0] * len(a), [0.0] * len(a)
    for k in range(1, len(a)):
        g[k] = a[k] - sum(map(mul, jg[1:k], a[k - 1:0:-1])) / k
        jg[k] = k * g[k]
    return [g[k] if k % 4 == 1 else -g[k] for k in range(1, len(a), 2)]


def correction_coefficients(A: list[float], xi: float,
                            m: float) -> CorrectionCoefficients:
    """Solve the order-by-order balance for b0..b2 and form B0..B2.

    The caller guarantees xi * log(lambda * xi) = m, so 1 + log(lambda * xi)
    equals (1 + chi_ratio) / chi_ratio with chi_ratio = xi / m; that form
    avoids re-deriving lambda here. Raises DomainError for xi or m not in
    (0, inf), and for a chi_ratio outside (2^-255, 2^255), where its fourth
    power, a divisor of B2, is not a normal float.
    """
    xi = float(xi)
    m = float(m)
    if not (0.0 < xi < math.inf and 0.0 < m < math.inf):
        raise DomainError(
            f"correction_coefficients requires finite xi > 0 and m > 0, "
            f"got xi = {xi!r}, m = {m!r}")
    chi_ratio = xi / m
    if not 2.0 ** -255 < chi_ratio < 2.0 ** 255:
        raise DomainError(f"degenerate correction: xi / m = {chi_ratio!r} "
                          f"(xi = {xi!r}, m = {m!r})")
    one_plus_log = (1.0 + chi_ratio) / chi_ratio

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
    return tuple.__new__(CorrectionCoefficients,
                         (xi, chi_ratio, (b0, b1, b2), (B0, B1, B2)))


def _expansion(x: float, family: str, order: int = _ORDER) -> tuple:
    # The pass for (x, family): x, chi, C_k and a_k for k < order, A_k from
    # them. Only the published C0..C5, a0..a5 and A0..A2 must be finite.
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"coefficient_set requires x > 0, got {x!r}")
    chi = x * x / 4.0
    C, a = _c_and_a(chi, family, order)
    A = A_coefficients(a)
    if not all(map(math.isfinite, C[:6] + a[:6] + A[:3])):
        raise DomainError(
            f"coefficient_set cannot form finite coefficients at x = {x!r}")
    return x, chi, C, a, A


def _phase_coefficients(x: float, family: str) -> list[float]:
    # A0..A6 of the pass, for the zero finder. A3 grows like chi^7 and leaves
    # the floats from x ~ 2e22 on (A6 from 1e13, and then Newton's method
    # finds no nu*), before coefficient_set's limit of 1.4e31.
    x, _, _, _, A = _expansion(x, family)
    if not math.isfinite(A[3]):
        raise DomainError(
            f"the phase coefficient A3 is not finite at x = {x!r}")
    return A


def coefficient_set(x: float, family: str) -> CoefficientSet:
    """Build the full n-independent coefficient set for (x, family).

    Raises DomainError for x <= 0 and for an x so large that a coefficient
    overflows a float.
    """
    x, chi, C, a, A = _expansion(x, family, _PUBLISHED)
    return CoefficientSet(x, chi, family, tuple(C), tuple(a), tuple(A))
