"""Asymptotic nu-zero estimates and their refinement to machine accuracy.

The zeros in nu at fixed x are numbered by a phase. The estimate takes the
large-order phase Phi(nu) = nu * log(lambda * nu) + pi/4, lambda = 2/(e x):
L and F vanish near Phi = (n + 1/2) pi, K and G near Phi = n pi. With m the
kind's (n + 1/4) pi or (n - 1/4) pi (FunctionKind.m_value), the leading zero
solves xi * log(lambda xi) = m as xi = m / W(lambda m) (Lambert W), and the
paper's three corrections B_k / m^{2k+1} complete the estimate. They expand
the root nu* of nu log(lambda nu) + sum_k A_k nu^-(2k+1) = m, which Newton's
method solves from them, carried to A6. The A_k depend on x and the family
only, so an enumeration builds them once. Phi is the nu >> x limit of the
uniform (Debye) phase Psi (Dunster, SIAM J. Math. Anal. 21, 1990; DLMF
10.20, 10.41), whose Psi - pi/4, FunctionKind.uniform_phase, is close to m
at the nth zero at any x and a full pi from it at the next zeros.
Refinement brackets the sign change of the unit-normalized value around
nu* with ends where Psi - pi/4 is within pi/2 of m, so the bracket can
never leak to an adjacent zero, and closes in with Brent-Dekker's zeroin
from nu*, evaluating only the bracket end across the zero.

ZeroEstimate and ZeroRecord, like every record of the package, are immutable
typing.NamedTuples: a record unpacks, indexes and compares as the plain
tuple of its values, and has _replace and _asdict.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .asymcoeff import _phase_coefficients, correction_coefficients
from .besseval import FunctionKind, ScaledReal, _normalized, detection_value
from .errors import (BracketingError, ConvergenceError, DomainError,
                     EnumerationError)
from .lambertw import lambert_w0

__all__ = ["ZeroEstimate", "ZeroRecord", "phase", "leading_xi",
           "asymptotic_zero", "refine_zero", "enumerate_zeros"]

# The width to which every zero's enclosure is refined.
_WIDTH = 1e-12

_EPS = math.ulp(1.0)
_HALF_PI = 0.5 * math.pi

# The probe is tried when nu*'s size is below this many solver stopping
# steps. It misses 27 of 7,904 tries at x = 0.5 to 4, n <= 500, and 79 of
# 5,616 at x = 10 to 30.
_PROBE_STEPS = 100.0


class ZeroEstimate(NamedTuple):
    """Asymptotic estimate data for one zero.

    partial holds the cumulative sums xi, xi + B0/m, xi + B0/m + B1/m^3 and
    the paper's three-correction value nu, then nu*, the root of the phase
    equation they expand, where refinement starts; size is its last term
    |A6| nu*^-13 / (1 + log(lambda nu*)), which sizes h and gates the probe.
    The paper's range of the expansion, xi > max(2, x), reads from xi.
    """

    kind: FunctionKind
    n: int
    x: float
    m: float
    lambda_: float
    xi: float
    partial: tuple[float, float, float, float, float]
    size: float

    @property
    def nu(self) -> float:
        return self.partial[3]


class ZeroRecord(NamedTuple):
    """One refined zero: estimate, refined value, and refinement evidence.

    bracket is the sign-changing interval the solver started from, so the
    function values at its ends measure the local scale the final residual is
    judged against. It is the half bracket between the estimate and the end
    across the zero, or the whole bracket around the estimate when the
    estimate is the zero to rounding. nu_refined is an evaluated point of the
    closed bracket, maybe an end, and residual equals eval_function there but
    reuses the solver's detection value; where the probe stage confirmed the
    zero the bracket is one solver stopping step wide, under 1e-12.
    nu_asymptotic is the three-correction estimate partial[3], and partial
    carries the estimate's four cumulative sums and nu*.
    """

    kind: FunctionKind
    n: int
    x: float
    nu_asymptotic: float
    nu_refined: float
    discrepancy: float
    bracket: tuple[float, float]
    residual: ScaledReal
    partial: tuple[float, float, float, float, float]


def phase(nu: float, lambda_: float) -> float:
    """The phase Phi(nu) = nu log(lambda nu) + pi/4, for nu, lambda > 0."""
    if not (nu > 0.0 and lambda_ > 0.0):
        raise DomainError(
            f"phase requires nu > 0 and lambda > 0, got {nu!r}, {lambda_!r}")
    return nu * math.log(lambda_ * nu) + math.pi / 4.0


def leading_xi(m: float, lambda_: float) -> float:
    """Solve xi * log(lambda * xi) = m as xi = m / W(lambda m)."""
    if not (m > 0.0):
        raise DomainError(f"leading_xi requires m > 0, got {m!r}")
    if not (lambda_ > 0.0):
        raise DomainError(f"leading_xi requires lambda > 0, got {lambda_!r}")
    return m / lambert_w0(lambda_ * m).w


def asymptotic_zero(kind: object, n: int, x: float) -> ZeroEstimate:
    """The three-correction asymptotic estimate of the nth nu-zero.

    All four partial sums are computed; `nu` is the fourth, the paper's
    estimate, and partial[4] is the phase equation's root nu* from it.
    The paper states it for xi = partial[0] > max(2, x); refine_zero
    proves each zero in its phase window at any x. Raises ConvergenceError
    when Newton's method does not find nu*.
    """
    kind = FunctionKind.coerce(kind)
    _positive_int("n", n)
    return _estimator(kind, x)(n)


def _positive_int(name: str, value: object) -> int:
    # The one check and message for a zero index or count.
    if not (isinstance(value, int) and type(value) is not bool and value >= 1):
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return value


def _estimator(kind: FunctionKind,
               x: float) -> Callable[[int], ZeroEstimate]:
    # Validate x and build the phase coefficients A0..A6 in one pass, with
    # the pairs (A_k, (2k + 1) A_k) from k = 6 down for Newton's method; the
    # returned function gives the estimate of the nth zero from them.
    if not (x > 0.0):
        raise DomainError(f"asymptotic_zero requires x > 0, got {x!r}")
    A = _phase_coefficients(x, kind.family)
    terms = [(a, (2 * k + 1) * a) for k, a in enumerate(A)][::-1]
    lambda_ = 2.0 / (math.e * x)
    return lambda n: _estimate(kind, n, x, A, terms, lambda_)


def _estimate(kind: FunctionKind, n: int, x: float, A: list[float],
              terms: list, lambda_: float) -> ZeroEstimate:
    # The estimate for validated arguments, from the phase coefficients
    # A0..A6 of (x, kind.family), their pairs and lambda = 2 / (e x).
    try:
        m = kind.m_value(n)
        m3, m5 = m ** 3, m ** 5
    except OverflowError as exc:
        raise DomainError(f"the estimate of {kind.value} n={n} x={x!r} "
                          f"overflows a float") from exc
    # leading_xi's checks hold: m > 0, and lambda > 0 since A3 is finite
    # only for x below about 2.5e22.
    xi = m / lambert_w0(lambda_ * m).w
    B0, B1, B2 = correction_coefficients(A, xi, m).B
    p1 = xi + B0 / m
    p2 = p1 + B1 / m3
    p3 = p2 + B2 / m5
    star, size = _phase_root(terms, m, lambda_, p3)
    return tuple.__new__(ZeroEstimate, (kind, n, float(x), m, lambda_, xi,
                                        (xi, p1, p2, p3, star), size))


def _phase_root(terms: list, m: float, lambda_: float,
                nu: float) -> tuple[float, float]:
    # (nu*, its last term's size) by Newton from nu on nu log(lambda nu) +
    # sum_{k<=6} A_k nu^-(2k+1) = m, Horner in 1/nu^2 over the pairs, until
    # a step is at most 1e-7 nu; ConvergenceError where the slope or an
    # iterate is not positive, or after 8 steps.
    for _ in range(8):
        t, s, ds = 1.0 / (nu * nu), 0.0, 0.0
        for a, da in terms:
            s, ds = s * t + a, ds * t + da
        lg = math.log(lambda_ * nu)
        slope = lg + 1.0 - ds * t
        step = (nu * lg + s / nu - m) / slope if slope > 0.0 else math.nan
        nu -= step
        if not nu > 0.0:
            break
        if abs(step) <= 1e-7 * nu:
            return nu, abs(terms[0][0]) * t ** 6 / ((nu + step) * (1.0 + lg))
    raise ConvergenceError(f"Newton's method finds no root of the phase "
                           f"equation for m = {m!r}, lambda = {lambda_!r}")


def _inside_phase_window(lo: float, hi: float,
                         estimate: ZeroEstimate) -> bool:
    # The kind's uniform phase within pi/2 of m at both ends; it increases
    # on the window, and the adjacent zeros sit a full pi away.
    psi, x, m = estimate.kind.uniform_phase, estimate.x, estimate.m
    return m - _HALF_PI < psi(lo, x) and psi(hi, x) < m + _HALF_PI


def _brent(g: Callable[[float], float], a: float, b: float, fa: float,
           fb: float) -> tuple[float, float]:
    """Brent-Dekker zeroin on [a, b], where g(a) and g(b) differ in sign.

    Each step takes inverse quadratic or secant interpolation when it lands
    well inside the bracket and shrinks it fast enough, and a bisection step
    otherwise (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4). Returns (b, g(b)) for the best evaluated iterate b, the one with
    the smallest |g| at an end of the current bracket, once g(b) == 0.0 or
    the bracket half-width is at most 2 eps |b| + _WIDTH / 2. b lies in the
    closed starting bracket and may be one of its ends.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        # Keep b the best iterate and [b, c] the bracket.
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * _WIDTH
        xm = 0.5 * (c - b)
        if fb == 0.0 or abs(xm) <= tol1:
            return b, fb
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # Interpolate only if the step stays inside the bracket and
            # shrinks faster than the step before last; else bisect.
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = g(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def _sign_above(kind: FunctionKind, n: int) -> float:
    # The sign of the detection value just above the nth zero,
    # -kind.sign * (-1)**n: consecutive zeros alternate it, and K's component
    # enters with sign -1. The tests check it for every kind at x <= 8,
    # n <= 500; a wrong prediction raises BracketingError, not a wrong zero.
    return kind.sign if n & 1 else -kind.sign


def _half_bracket(kind: FunctionKind, x: float, lo: float, hi: float,
                  nu_hat: float, g_hat: float, sign_above: float
                  ) -> tuple[float, float, tuple[float, float]] | None:
    # Solve on the closed half of [lo, hi] that the sign of g_hat puts across
    # the zero; (nu_refined, g(nu_refined), bracket), or None when the
    # predicted end shows no sign change. A zero at the estimate, g_hat 0.0,
    # needs the far end to bracket it with ends that change sign.
    end, far = (lo, hi) if (g_hat > 0.0) == (sign_above > 0.0) else (hi, lo)
    g_end = detection_value(kind, end, x)
    if g_hat == 0.0:
        g_far = detection_value(kind, far, x)
        return ((nu_hat, g_hat, (lo, hi)) if g_end != 0.0 != g_far
                and (g_end < 0.0) != (g_far < 0.0) else None)
    # No sign change between g_end and g_hat, which is nonzero here.
    if g_end == 0.0 or (g_end < 0.0) == (g_hat < 0.0):
        return None
    bracket = (end, nu_hat) if end < nu_hat else (nu_hat, end)
    # _brent's first pass: a bracket within its stopping step returns the end
    # with the smaller |g|, nu_hat on a tie, and needs no g.
    b, g_b = (end, g_end) if abs(g_end) < abs(g_hat) else (nu_hat, g_hat)
    if abs(0.5 * (end - nu_hat)) <= 2.0 * _EPS * abs(b) + 0.5 * _WIDTH:
        return b, g_b, bracket
    return (*_brent(lambda nu: detection_value(kind, nu, x), end, nu_hat,
                    g_end, g_hat), bracket)


def refine_zero(estimate: ZeroEstimate) -> ZeroRecord:
    """Refine an asymptotic estimate to a machine-accurate zero.

    The estimate names the zero: its kind, n and x are the request. Brackets
    the unit-normalized detection value g in nu* -+ h around the estimate's
    last partial sum nu*, with h = max(0.05, 2 size), whose ends must keep
    the kind's uniform phase within pi/2 of m, the zero's phase window. Just
    above the nth zero g has the sign -kind.sign * (-1)**n, so g(nu*) tells
    which end lies across the zero, and only that end is evaluated; a
    Brent-Dekker solver then starts from nu* on that half bracket and runs
    until its bracket is at most _WIDTH = 1e-12 (plus a few ulps) wide. At
    most two brackets are tried: one solver stopping step wide, if the
    estimate's size is below _PROBE_STEPS of them, then nu* -+ h. An
    estimate where g is exactly 0.0 is the zero once both ends of a bracket
    change sign. The zero returned is the solver's best evaluated point,
    whose residual costs no evaluation. Raises DomainError for an estimate
    whose n is not a positive integer, when nu* -+ h rounds onto nu*, past
    the float resolution, or when nu* - h <= 0, and BracketingError, which
    signals an invalid estimate or one too far from its zero for h, when
    nu* -+ h leaves the phase window, before any evaluation, and when
    neither bracket shows a sign change.
    """
    kind, n, x, _, _, _, partial, size = estimate
    if type(kind) is not FunctionKind:
        kind = FunctionKind.coerce(kind)
        estimate = estimate._replace(kind=kind)
    if type(n) is not int or n < 1:
        _positive_int("n", n)

    nu_hat = partial[-1]
    h = 2.0 * size if size > 0.025 else 0.05  # max(0.05, 2 size), exactly
    if nu_hat - h == nu_hat or nu_hat + h == nu_hat:
        raise DomainError(
            f"estimate nu = {nu_hat!r} -+ {h!r} rounds onto the estimate: "
            f"{kind.value} n={n} x={x!r} is past the float resolution")
    lo, hi = nu_hat - h, nu_hat + h
    if not lo > 0.0:
        raise DomainError(f"estimate nu = {nu_hat!r} -+ {h!r} reaches "
                          f"nu <= 0: {kind.value} n={n} x={x!r}")
    # A bracket that leaves the window may hold another zero than this one.
    if not _inside_phase_window(lo, hi, estimate):
        raise BracketingError(
            f"estimate nu = {nu_hat!r} -+ {h!r} leaves the phase window "
            f"of {kind.value} n={n} x={x!r}", (lo, hi))
    g_hat = detection_value(kind, nu_hat, x)
    sign_above = _sign_above(kind, n)
    # The solver's stopping step: a sign change there ends _brent at once.
    step = 2.0 * _EPS * abs(nu_hat) + 0.5 * _WIDTH
    found = None
    if size < _PROBE_STEPS * step and step <= h:
        found = _half_bracket(kind, x, nu_hat - step, nu_hat + step,
                              nu_hat, g_hat, sign_above)
    if found is None:
        found = _half_bracket(kind, x, lo, hi, nu_hat, g_hat, sign_above)
    if found is None:
        raise BracketingError(
            f"no sign change of the detection value for "
            f"{kind.value} n={n} x={x!r}", (lo, hi))

    nu_refined, g_refined, bracket = found
    nu_asymptotic = partial[3]
    return tuple.__new__(ZeroRecord, (
        kind, n, x, nu_asymptotic, nu_refined,
        abs(nu_asymptotic - nu_refined), bracket,
        _normalized(g_refined, kind.log_scale(nu_refined)), partial))


def enumerate_zeros(kind: object, x: float, n_max: int) -> list[ZeroRecord]:
    """Refined zeros for n = 1..n_max, strictly increasing in nu.

    Builds the phase coefficients once and derives every estimate from them,
    so each record equals refine_zero(asymptotic_zero(kind, n, x)). The
    first failing index, n = 1 for an invalid x, aborts the enumeration with
    the completed records attached to the raised EnumerationError.
    """
    kind = FunctionKind.coerce(kind)
    _positive_int("n_max", n_max)
    records: list[ZeroRecord] = []
    try:
        estimate_of = _estimator(kind, x)
        for n in range(1, n_max + 1):
            record = refine_zero(estimate_of(n))
            if records and record.nu_refined <= records[-1].nu_refined:
                raise ConvergenceError(
                    f"refined zeros not strictly increasing at n = {n}")
            records.append(record)
    except (DomainError, ConvergenceError) as exc:
        n = len(records) + 1
        raise EnumerationError(
            f"enumeration of {kind.value} zeros aborted at n = {n}: "
            f"{exc}", n, tuple(records)) from exc
    return records
