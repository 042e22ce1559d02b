"""Power-series evaluation of the Bessel functions of imaginary order.

I_{i nu}(x) and J_{i nu}(x) are computed from their ascending series times
the unit phase of the prefactor (x/2)^{i nu} / Gamma(1 + i nu), and the four
real combinations are assembled in scaled form:

    L = (pi / sinh(pi nu)) * Re I_{i nu}(x)
    K = -(pi / sinh(pi nu)) * Im I_{i nu}(x)
    F = Re J_{i nu}(x) / cosh(pi nu / 2)
    G = Im J_{i nu}(x) / sinh(pi nu / 2)

The G combination is the real variant of the usual difference definition,
which as commonly printed is purely imaginary; dividing by i gives this form
and leaves the nu-zeros unchanged.

The prefactor's modulus, sqrt(sinh(pi nu) / (pi nu)) by DLMF 5.4.3, and the
hyperbolic weight combine into one closed-form scale per kind, whose log is
the log_scale of the value and cannot overflow.

FunctionKind holds these facts for each kind, with the quarter-pi offset and
uniform phase of its zeros; the evaluators and the zero finder read them.

Zeros in nu are located on the unit-normalized value unit_phase * series_sum:
the positive scale can neither create nor destroy sign changes, and
stripping it avoids underflow at large nu. ScaledReal is an immutable
NamedTuple (mantissa, log_scale): it unpacks and equals a plain tuple.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple

from .cgamma import recip_gamma_prefactor
from .errors import ConvergenceError, DomainError

__all__ = ["FunctionKind", "ScaledReal", "series_sum", "eval_function",
           "detection_value", "NU_MIN"]

# Below this order the sinh factors of L, K, G degenerate; the studied zeros
# all sit well above it.
NU_MIN = 1e-3

_TOL = 1e-18
_TOL2 = 2.0 * _TOL
_MAX_TERMS = 500
# k1 = k + 1 as a float, one for each term ratio the series may take.
_K1 = tuple(float(k + 1) for k in range(_MAX_TERMS))

_MANTISSA_LO = 1.0 / math.e
_MANTISSA_HI = math.e


class ScaledReal(NamedTuple):
    """A real value stored as mantissa * exp(log_scale).

    Normalization keeps the mantissa in [-e, -1/e], {0}, or [1/e, e], so the
    exponentially large or small weights of the function definitions never
    overflow a float. The sign of the value is the sign of the mantissa.
    """

    mantissa: float
    log_scale: float

    def normalized(self) -> "ScaledReal":
        """Return an equal value with the mantissa inside [1/e, e] or zero."""
        if _MANTISSA_LO <= abs(self.mantissa) <= _MANTISSA_HI:
            return self
        return _normalized(self.mantissa, self.log_scale)

    def plain(self) -> float | None:
        """The value as an ordinary float, or None if it would overflow."""
        norm = self.normalized()
        if norm.mantissa == 0.0:
            return 0.0
        if norm.log_scale > 700.0:
            return None
        return norm.mantissa * math.exp(norm.log_scale)


def _normalized(m: float, log_scale: float) -> ScaledReal:
    # m * exp(log_scale) as a normalized ScaledReal, built once.
    if _MANTISSA_LO <= abs(m) <= _MANTISSA_HI:
        return tuple.__new__(ScaledReal, (m, log_scale))
    if m == 0.0:
        return ScaledReal(0.0, 0.0)
    shift = math.log(abs(m))
    return tuple.__new__(ScaledReal, (m / math.exp(shift), log_scale + shift))


def series_sum(nu: float, x: float, family: str) -> complex:
    """Sum the ascending series of I (modified) or J (ordinary) at order i*nu.

    Returns sum_{k>=0} (+-1)^k (x/2)^{2k} / (k! (1+i nu)_k), built by the
    ratio t_{k+1} / t_k = z / (k1 (k1 + i nu)), z = +-(x/2)^2, k1 = k + 1 a
    float, and truncated when the current term's modulus falls to 1e-18 times
    the partial sum's. Raises DomainError for non-finite nu or x, and
    ConvergenceError past 500 terms, which cannot happen for x <= 50, or
    when (x/2)^2 or the sum overflows to a non-finite value.
    """
    if not (0.0 < x < math.inf):
        raise DomainError(f"series_sum requires finite x > 0, got {x!r}")
    if not (-math.inf < nu < math.inf):
        raise DomainError(f"series_sum requires finite nu, got {nu!r}")
    if family != "modified" and family != "ordinary":
        raise DomainError(
            f"family must be 'modified' or 'ordinary', got {family!r}")
    try:
        z = (0.5 * x) ** 2
    except OverflowError:
        raise ConvergenceError(
            f"series sum is not finite (nu={nu!r}, x={x!r})") from None
    if family == "ordinary":
        z = -z

    inu = complex(0.0, nu)
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    # |total| <= bound = 1 + sum |term|, so the stop test cannot pass while
    # |term| exceeds 2 _TOL bound; the factor 2 absorbs rounding.
    bound = 1.0
    for k1 in _K1:
        term *= z / (k1 * (k1 + inu))
        total += term
        a = abs(term)
        bound += a
        if a <= _TOL2 * bound and a <= _TOL * abs(total):
            if not cmath.isfinite(total):
                raise ConvergenceError(
                    f"series sum is not finite (nu={nu!r}, x={x!r})")
            return total
    raise ConvergenceError(
        f"series did not converge in {_MAX_TERMS} terms (nu={nu!r}, x={x!r})")


# From this argument on, -expm1(-2 v) and tanh(u) round to exactly 1.0, so
# the log scales skip them and give the same bits.
_SATURATED = 20.0


def _log_scale_lk(nu: float) -> float:
    # log sqrt(pi / (nu sinh(pi nu))), with log sinh v taken as
    # v - log 2 + log(-expm1(-2 v)), which cannot overflow.
    v = math.pi * nu
    tail = 0.0 if v >= _SATURATED else math.log(-math.expm1(-2.0 * v))
    return 0.5 * (math.log(2.0 * math.pi / nu) - v - tail)


def _log_scale_f(nu: float) -> float:
    # log sqrt(2 tanh(pi nu / 2) / (pi nu)) = log sqrt(tanh(u) / u).
    u = 0.5 * math.pi * nu
    return 0.5 * math.log((1.0 if u >= _SATURATED else math.tanh(u)) / u)


def _log_scale_g(nu: float) -> float:
    # log sqrt(2 coth(pi nu / 2) / (pi nu)) = -log sqrt(u tanh(u)).
    u = 0.5 * math.pi * nu
    return -0.5 * math.log(u if u >= _SATURATED else u * math.tanh(u))


def _uniform_phase_lk(nu: float, x: float) -> float:
    # nu acosh(nu / x) - sqrt(nu^2 - x^2), L and K's uniform phase less pi/4
    # (DLMF 10.41), held below the turning point x at its value 0.0 there.
    if nu <= x:
        return 0.0
    return nu * math.acosh(nu / x) - math.sqrt((nu - x) * (nu + x))


def _uniform_phase_fg(nu: float, x: float) -> float:
    # nu asinh(nu / x) - sqrt(nu^2 + x^2), the uniform phase of F and G less
    # its pi/4 (DLMF 10.20); it increases for nu > 0.
    return nu * math.asinh(nu / x) - math.hypot(nu, x)


class FunctionKind(enum.Enum):
    """The four real functions and every fact that tells them apart.

    The value is the letter. The attributes are the series `family`, the
    component of the unit value taken (Im if `imaginary`, else Re, times
    `sign`), `log_scale(nu)`, the log of the positive factor that the unit
    value drops, the `quarter` offset in m = (n +- 1/4) pi, and the family's
    `uniform_phase(nu, x)` less pi/4, close to m at the nth zero at any x.
    """

    L = "L", "modified", False, 1.0, _log_scale_lk, 0.25, _uniform_phase_lk
    K = "K", "modified", True, -1.0, _log_scale_lk, -0.25, _uniform_phase_lk
    F = "F", "ordinary", False, 1.0, _log_scale_f, 0.25, _uniform_phase_fg
    G = "G", "ordinary", True, 1.0, _log_scale_g, -0.25, _uniform_phase_fg

    def __new__(cls, letter, family, imaginary, sign, log_scale, quarter,
                uniform_phase):
        member = object.__new__(cls)
        member._value_ = letter
        member.family = family
        member.imaginary = imaginary
        member.sign = sign
        member.log_scale = log_scale
        member.quarter = quarter
        member.uniform_phase = uniform_phase
        return member

    @classmethod
    def coerce(cls, kind: object) -> "FunctionKind":
        """The member itself, or the member named by its letter in any case."""
        if isinstance(kind, cls):
            return kind
        member = _KINDS.get(kind.upper()) if isinstance(kind, str) else None
        if member is None:
            raise DomainError(f"unknown function kind {kind!r}")
        return member

    def m_value(self, n: int) -> float:
        """The phase target m of the nth zero; DomainError if it overflows."""
        try:
            return (n + self.quarter) * math.pi
        except OverflowError as exc:
            raise DomainError(f"the phase target m of {self.value} n={n} "
                              f"overflows a float") from exc


_KINDS = {kind.value: kind for kind in FunctionKind}


def detection_value(kind: object, nu: float, x: float) -> float:
    """Sign-matched, unit-normalized value used to locate nu-zeros.

    Equals the function of `kind` divided by its positive scale factors, so
    it shares every sign change with the function itself and stays order one
    at any nu.
    """
    if not isinstance(kind, FunctionKind):
        kind = FunctionKind.coerce(kind)
    unit = recip_gamma_prefactor(nu, x) * series_sum(nu, x, kind.family)
    return kind.sign * (unit.imag if kind.imaginary else unit.real)


def eval_function(kind: object, nu: float, x: float) -> ScaledReal:
    """Evaluate L, K, F, or G at (nu, x) in scaled form.

    Requires finite nu >= NU_MIN and finite x > 0; the sinh-weighted
    definitions degenerate at nu = 0 and the studied zeros all lie far
    above the guard.
    """
    kind = FunctionKind.coerce(kind)
    if not (NU_MIN <= nu < math.inf):
        raise DomainError(
            f"eval_function requires nu >= {NU_MIN!r}, got {nu!r}")
    if not (0.0 < x < math.inf):
        raise DomainError(f"eval_function requires finite x > 0, got {x!r}")
    unit = recip_gamma_prefactor(nu, x) * series_sum(nu, x, kind.family)
    part = kind.sign * (unit.imag if kind.imaginary else unit.real)
    return _normalized(part, kind.log_scale(nu))
