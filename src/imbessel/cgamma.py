"""Complex log-gamma, the prefactor's unit phase and Stirling coefficients.

The series evaluator needs arg Gamma(1 + i*nu) for the unit phase of the
prefactor (x/2)^{i*nu} / Gamma(1 + i*nu); its modulus has a closed form.
Below nu = 16 it is Im log_gamma(1 + i*nu), from 16 on a real series in
1/nu^2 (recip_gamma_prefactor states its bound). log_gamma is computed by
the Stirling asymptotic series after an argument shift, which keeps the
error budget explicit: with eight Bernoulli terms at |z| >= 10 the
truncation error is below 1e-17 absolute, and the recurrence shift adds
only a few ulps per step. The same terms, exact, give the reciprocal-Gamma
Stirling coefficients gamma_0..gamma_13 (DLMF 5.11) of the a_k pipeline.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

from .errors import DomainError

__all__ = ["STIRLING_COEFFICIENTS", "log_gamma", "recip_gamma_prefactor"]

# Bernoulli-number coefficients c_j = B_{2j} / (2j (2j-1)) of the log-gamma
# Stirling series, j = 1..8, exact; _C1.._C15 by the power of 1/z.
_BERNOULLI_TERMS = tuple(Fraction(*c) for c in (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
    (1, 156), (-3617, 122400)))
_C1, _C3, _C5, _C7, _C9, _C11, _C13, _C15 = map(float, _BERNOULLI_TERMS)


def _stirling_coefficients(count: int) -> tuple[Fraction, ...]:
    # gamma_0..gamma_(count-1), the t^k coefficients g_k of exp(-sum_j c_j
    # t^(2j-1)), exactly: k g_k = -sum_j (2j+1) c_(j+1) g_(k-2j-1).
    g = [Fraction(1)]
    for k in range(1, count):
        g.append(-sum((2 * j + 1) * c * g[k - 2 * j - 1] for j, c in
                      enumerate(_BERNOULLI_TERMS[:(k + 1) // 2])) / k)
    return tuple(g)


STIRLING_COEFFICIENTS = _stirling_coefficients(14)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Below this modulus the asymptotic series is not accurate enough; shift up.
_SHIFT_RADIUS = 10.0

# z * z overflows from |z| = 1.34e154 on; below this bound |z|^2 < 1e308
# and |(z - 0.5) log z| < 1e157, so the Stirling series stays finite.
_MAX_MODULUS = 1e154

# From this order on the prefactor's phase is the real Stirling series.
_STIRLING_NU, _QUARTER_PI = 16.0, 0.25 * math.pi

# Below the least normal float x / (2 nu) loses bits; its log is then taken
# as log(x / 2) - log(nu).
_MIN_NORMAL = sys.float_info.min


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z) for Re z > 0.

    Relative error is at or below 1e-14 on |Im z| <= 100, which holds the
    evaluator's z = 1 + i*nu, nu < 16. Raises DomainError for Re z <= 0 and
    for |z| >= 1e154, where the series would overflow, or is not finite.
    """
    z = complex(z)
    r = abs(z)
    if not (z.real > 0.0 and r < _MAX_MODULUS):
        raise DomainError(
            f"log_gamma requires Re z > 0 and |z| < {_MAX_MODULUS!r}, "
            f"got z = {z!r}")

    # Recurrence shift: log Gamma(z) = log Gamma(z + k) - sum log(z + j).
    shifted = r < _SHIFT_RADIUS
    if shifted:
        shift = 0.0 + 0.0j
        while r < _SHIFT_RADIUS:
            shift += cmath.log(z)
            z += 1.0
            r = abs(z)

    # Stirling series at the shifted argument, in the powers 1/z^(2j-1).
    zinv2 = 1.0 / (z * z)
    p1 = 1.0 / z
    p3 = p1 * zinv2
    p5 = p3 * zinv2
    p7 = p5 * zinv2
    p9 = p7 * zinv2
    p11 = p9 * zinv2
    p13 = p11 * zinv2
    p15 = p13 * zinv2
    total = ((z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI
             + _C1 * p1 + _C3 * p3 + _C5 * p5 + _C7 * p7 + _C9 * p9
             + _C11 * p11 + _C13 * p13 + _C15 * p15)
    return total - shift if shifted else total


def recip_gamma_prefactor(nu: float, x: float) -> complex:
    """The unit phase of (x/2)^{i*nu} / Gamma(1 + i*nu).

    Returns exp(i (nu log(x/2) - arg Gamma(1 + i*nu))) in real arithmetic:
    arg Gamma is Im log_gamma(1 + i*nu) below nu = 16, and from there the
    Stirling series of log Gamma(i*nu) plus arg(i*nu) = pi/2, which makes
    the phase nu (1 + log(x/(2 nu))) - pi/4 + sum_{j<=8} |B_2j| nu^(1-2j)
    / (2j (2j-1)). By DLMF 5.11(ii) its truncation error is at most
    sec^18(pi/4) = 2^9 times the first dropped term, 3.1e-19 from nu = 16
    on, inside log_gamma's 1e-17 budget. The modulus is left to each kind's
    closed-form scale. Raises DomainError for nu or x <= 0 and where the
    phase is not finite: for an infinite x, from nu = 1e154 on, and where
    x/2 underflows to zero.
    """
    if not (nu > 0.0):
        raise DomainError(f"recip_gamma_prefactor requires nu > 0, got {nu!r}")
    if not (x > 0.0):
        raise DomainError(f"recip_gamma_prefactor requires x > 0, got {x!r}")
    try:
        if nu < _STIRLING_NU:
            phase = nu * math.log(0.5 * x) - log_gamma(complex(1.0, nu)).imag
        elif nu < _MAX_MODULUS:
            # The series in s = -1/nu^2 with the signed C's sums their moduli.
            s = -1.0 / (nu * nu)
            tail = _C1 + s * (_C3 + s * (_C5 + s * (_C7 + s * (
                _C9 + s * (_C11 + s * (_C13 + s * _C15))))))
            q = 0.5 * x / nu
            log_q = (math.log(q) if q >= _MIN_NORMAL
                     else math.log(0.5 * x) - math.log(nu))
            phase = nu * (1.0 + log_q) - _QUARTER_PI + tail / nu
        else:
            raise DomainError
        # Bit for bit cmath.exp(1j * phase), but an infinite phase raises.
        return cmath.rect(1.0, phase)
    except (DomainError, ValueError):
        raise DomainError(
            f"recip_gamma_prefactor has no finite phase at nu = {nu!r}, "
            f"x = {x!r}") from None
