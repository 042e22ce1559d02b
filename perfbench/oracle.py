"""High-precision reference values for the benchmark, computed with mpmath.

Everything the benchmark checks an operation's output against comes from
here, and nothing here imports the package under test:

* function values L, K, F, G from mpmath's own ``besseli``/``besselk``/
  ``besselj`` at imaginary order;
* the asymptotic zero estimate and the C, a and A coefficients, from the
  formula functions of ``tests/oracles/gen_reference_values.py``; the b and
  B corrections that ``imbessel coeffs`` prints are derived here;
* true nu-zeros. The n-th zero is, as in the paper, the zero that the n-th
  asymptotic estimate predicts: it is bracketed around that estimate within a
  quarter of the local zero spacing and solved to 1e-20 relative width. A zero
  that cannot be bracketed that way has no reference value (``None``).

The zero solver evaluates the detection function (the function with its
positive scale factors removed) many thousand times per run, so the
ascending series is summed in binary fixed point on Python integers, with at
least 128 fraction bits plus guard bits against the e^{2x} cancellation of the
modified series; the phase uses mpmath's log-gamma at 30 digits.
``cross_check`` compares the solver with the frozen x = 1 zeros and the K
integral values of the test suite before any run uses it.
"""

from __future__ import annotations

import importlib.util
import json
import os

import mpmath

DPS = 30
CTX = mpmath.mp

_GENERATOR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests",
    "oracles", "gen_reference_values.py")
_spec = importlib.util.spec_from_file_location("gen_reference_values",
                                               _GENERATOR)
formulas = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(formulas)
CTX.dps = DPS

KINDS = "LKFG"
ZERO_WIDTH = CTX.mpf("1e-20")

_FRACTION_BITS = 128
_MAX_TERMS = 10000


class OracleError(RuntimeError):
    """The oracle disagrees with the frozen reference values."""


def family(kind: str) -> str:
    return "modified" if kind in "LK" else "ordinary"


def function_value(kind: str, nu: float, x: float):
    """L, K, F or G at (nu, x) from mpmath's Bessel functions."""
    ctx = CTX
    nu, x = ctx.mpf(nu), ctx.mpf(x)
    order = ctx.mpc(0, nu)
    if kind == "K":
        return ctx.besselk(order, x).real
    if kind == "L":
        return ctx.pi / ctx.sinh(ctx.pi * nu) * ctx.besseli(order, x).real
    value = ctx.besselj(order, x)
    if kind == "F":
        return value.real / ctx.cosh(ctx.pi * nu / 2)
    return value.imag / ctx.sinh(ctx.pi * nu / 2)


def partials(kind: str, x: float, n: int) -> list:
    """xi and the n-th estimate after one, two and three corrections."""
    return formulas.estimate(kind, n, CTX.mpf(x))


def _lambda(x):
    return 2 / (CTX.e * x)


class Detection:
    """Sign-matched, unit-normalized value of one kind at fixed x.

    Re or Im of exp(i theta) * S(nu) with theta = nu log(x/2) - arg
    Gamma(1 + i nu) and S the ascending series; the positive factors of the
    function are dropped, so the zeros in nu are those of the function.
    """

    def __init__(self, kind: str, x: float):
        self.kind = kind
        self.bits = _FRACTION_BITS + int(3 * x) + 8
        x_fixed = int(CTX.ldexp(CTX.mpf(x), self.bits))
        z = (x_fixed * x_fixed) >> (self.bits + 2)
        self.z = z if family(kind) == "modified" else -z
        self.log_half_x = CTX.log(CTX.mpf(x) / 2)

    def __call__(self, nu):
        ctx, bits = CTX, self.bits
        one = 1 << bits
        nu_fixed = int(ctx.ldexp(nu, bits))
        nu2 = (nu_fixed * nu_fixed) >> bits
        # t_k = t_{k-1} z / (k (k + i nu)) = t_{k-1} (k - i nu) z
        #       / (k (k^2 + nu^2)), all scaled by 2^bits.
        tr, ti, sr, si = one, 0, one, 0
        for k in range(1, _MAX_TERMS):
            denom = k * (k * k * one + nu2)
            ar = tr * k + ((ti * nu_fixed) >> bits)
            ai = ti * k - ((tr * nu_fixed) >> bits)
            tr = ar * self.z // denom
            ti = ai * self.z // denom
            sr += tr
            si += ti
            if abs(tr) + abs(ti) < 4:
                break
        else:
            raise OracleError(f"series did not converge at nu = {nu}")
        theta = nu * self.log_half_x - ctx.loggamma(ctx.mpc(1, nu)).imag
        cos_t, sin_t = ctx.cos_sin(theta)
        c = int(ctx.ldexp(cos_t, bits))
        s = int(ctx.ldexp(sin_t, bits))
        if self.kind in "LF":
            value = c * sr - s * si
        else:
            value = s * sr + c * si
            if self.kind == "K":
                value = -value
        return ctx.ldexp(ctx.mpf(value), -2 * bits)


def _solve(g, lo, hi, g_lo, g_hi, width):
    """Illinois regula falsi on a sign-changing bracket, to `width`."""
    side = 0
    for _ in range(400):
        if hi - lo <= width:
            return (lo + hi) / 2
        mid = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < mid < hi:
            mid = (lo + hi) / 2
        g_mid = g(mid)
        if g_mid == 0:
            return mid
        if (g_mid < 0) == (g_hi < 0):
            hi, g_hi = mid, g_mid
            if side == 1:
                g_lo /= 2
            side = 1
        else:
            lo, g_lo = mid, g_mid
            if side == -1:
                g_hi /= 2
            side = -1
    raise OracleError(f"zero solver did not converge on [{lo}, {hi}]")


def true_zeros(kind: str, x: float, ns) -> dict:
    """True n-th zeros (mpf) for each n in ns; None where none is bracketed."""
    g = Detection(kind, x)
    lambda_ = _lambda(CTX.mpf(x))
    out = {}
    for n in ns:
        p = partials(kind, x, n)
        centre = p[3]
        growth = 1 + CTX.log(lambda_ * centre)
        reach = CTX.pi / max(growth, CTX.mpf("0.5")) / 4
        half = max(4 * abs(p[3] - p[2]), centre * CTX.mpf("1e-13"))
        root = None
        while True:
            half = min(half, reach)
            lo, hi = centre - half, centre + half
            g_lo, g_hi = g(lo), g(hi)
            if g_lo == 0 or g_hi == 0:
                root = lo if g_lo == 0 else hi
                break
            if (g_lo < 0) != (g_hi < 0):
                root = _solve(g, lo, hi, g_lo, g_hi, ZERO_WIDTH * centre)
                break
            if half >= reach:
                break
            half *= 8
        out[n] = root
    return out


def coefficients(kind: str, x: float, ns) -> dict:
    """The quantities `imbessel coeffs` prints, as mpf values."""
    x = CTX.mpf(x)
    chi = x ** 2 / 4
    a = formulas.a_coeffs(x, family(kind))
    A0, A1, A2 = A = formulas.big_a(a)
    lambda_ = _lambda(x)
    per_n = []
    for n in ns:
        m = formulas.m_of(kind, n)
        xi = m / CTX.lambertw(lambda_ * m).real
        opl = 1 + CTX.log(lambda_ * xi)
        b0 = -A0 / opl
        b1 = (A0 * b0 - A1 - b0 ** 2 / 2) / opl
        b2 = (3 * A1 * b0 - A0 * (b0 ** 2 - b1) - A2 - b0 * b1
              + b0 ** 3 / 6) / opl
        b = [b0, b1, b2]
        B = [bk * (m / xi) ** (2 * k + 1) for k, bk in enumerate(b)]
        per_n.append({"n": n, "m": m, "xi": xi, "b": b, "B": B})
    return {"chi": chi,
            "C": formulas.c_polys(chi if family(kind) == "modified"
                                  else -chi),
            "a": a, "A": A, "per_n": per_n}


def cross_check(reference_path) -> None:
    """Compare the oracle with the frozen values of the test suite.

    The x = 1 true zeros must agree to 1e-15 relative and the K integral
    values to 1e-18 relative; any disagreement raises OracleError.
    """
    with open(reference_path) as handle:
        reference = json.load(handle)
    ns = (1, 2, 3, 4, 5, 10, 20, 50)
    for kind in KINDS:
        got = true_zeros(kind, 1.0, ns)
        for n, want in zip(ns, reference["true_zeros_x1"][kind]):
            want = CTX.mpf(want)
            if got[n] is None or abs(got[n] - want) > want * 1e-15:
                raise OracleError(
                    f"oracle zero {kind} n={n} at x=1 is {got[n]}, "
                    f"the frozen reference is {want}")
    for key, want in reference["k_integral_values"].items():
        fields = dict(part.split("=") for part in key.split(","))
        got = function_value("K", float(fields["nu"]), float(fields["x"]))
        want = CTX.mpf(want)
        if abs(got - want) > abs(want) * CTX.mpf("1e-18"):
            raise OracleError(f"oracle K({key}) is {got}, the frozen "
                              f"integral value is {want}")

