"""Principal-branch Lambert W on the nonnegative reals.

Solves w * e^w = z for w >= 0, the leading-order zero equation
xi * log(lambda * xi) = m after the substitution xi = m / W(lambda * m).
Halley iteration from a piecewise initial guess converges cubically; above
z = 1e306, where w e^w - z and the Halley denominator can overflow, Newton's
method solves the logarithm w + log w = log z instead. The solved residual is
returned alongside w so callers can assert solver health.
WResult (w, residual) is an immutable NamedTuple, equal to a plain tuple.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError

__all__ = ["WResult", "lambert_w0"]

_STEP_TOL = 4.0 * math.ulp(1.0)
_INV_E = 1.0 / math.e
_MAX_ITER = 50

# Above this z the iteration moves to log space. The Halley step's
# f * (w + 2) overflows from z ~ 3e307 on, where f = w e^w - z at the first
# guess is about 0.9% of z; below 1e306 it stays under 7e306.
_LOG_SPACE_Z = 1e306


class WResult(NamedTuple):
    """Solution w of w * e^w = z together with the defect |w e^w - z|."""

    w: float
    residual: float


def _initial_guess(z: float) -> float:
    # Series start below 1/e, log asymptote above e, and a linear blend of
    # their values, lo at 1/e and 1 at e, across the middle band where
    # neither form is valid on its own (log log z is undefined for z <= 1).
    if z < _INV_E:
        return z * (1.0 - z) + z
    if z >= math.e:
        log_z = math.log(z)
        return log_z - math.log(log_z)
    lo = _INV_E * (1.0 - _INV_E) + _INV_E
    return lo + (z - _INV_E) / (math.e - _INV_E) * (1.0 - lo)


def lambert_w0(z: float) -> WResult:
    """Principal branch W(z) for z >= 0 by Halley iteration.

    Terminates when the step falls below 4 * eps * (1 + |w|); raises
    DomainError for negative or non-finite z and ConvergenceError if 50
    iterations do not suffice (unreachable for valid input, kept as a guard).
    Above z = 1e306 the iteration is Newton's on w + log w = log z. The
    residual |w e^w - z| reuses the last e^w where the last step kept w.
    """
    z = float(z)
    if not (0.0 <= z < math.inf):
        raise DomainError(f"lambert_w0 requires finite z >= 0, got {z!r}")
    if z == 0.0:
        return WResult(0.0, 0.0)

    w = last = _initial_guess(z)
    if z > _LOG_SPACE_Z:
        return _log_space_newton(z, w)
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - z
        if f == 0.0:
            break
        # Halley step for f(w) = w e^w - z; w >= 0 keeps w + 1 away from 0.
        denom = ew * (w + 1.0) - f * (w + 2.0) / (2.0 * (w + 1.0))
        step = f / denom
        w, last = w - step, w
        if abs(step) <= _STEP_TOL * (1.0 + abs(w)):
            break
    else:
        raise ConvergenceError(f"lambert_w0 did not converge for z = {z!r}")
    # f was taken at w on an exact solve, else at last, before the step.
    if w != last:
        f = w * math.exp(w) - z
    return tuple.__new__(WResult, (w, abs(f)))


def _log_space_newton(z: float, w: float) -> WResult:
    # Newton on g(w) = w + log w - log z, the log of w e^w = z, from the
    # initial guess just below the root; nothing here can overflow, and the
    # residual |w e^w - z| is z |e^g - 1|.
    log_z = math.log(z)
    for _ in range(_MAX_ITER):
        step = (w + math.log(w) - log_z) * w / (w + 1.0)
        w -= step
        if abs(step) <= _STEP_TOL * (1.0 + w):
            return WResult(w, z * abs(math.expm1(w + math.log(w) - log_z)))
    raise ConvergenceError(f"lambert_w0 did not converge for z = {z!r}")

