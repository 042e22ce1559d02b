"""Tests for the principal-branch Lambert W solver."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from imbessel import DomainError, lambert_w0

from golden import fnum


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    span = math.log10(hi) - math.log10(lo)
    return [10.0 ** (math.log10(lo) + span * i / (count - 1))
            for i in range(count)]


def test_w_at_zero_is_exact():
    result = lambert_w0(0.0)
    assert result.w == 0.0
    assert result.residual == 0.0


def test_w_at_e_is_one():
    assert abs(lambert_w0(math.e).w - 1.0) <= 1e-15


def test_w_at_two_matches_reference(reference):
    result = lambert_w0(2.0)
    assert abs(result.w - fnum(reference["lambert_w_2"])) <= 1e-14
    assert result.residual <= 1e-15


def test_w_rejects_negative_argument():
    with pytest.raises(DomainError):
        lambert_w0(-0.5)


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_w_rejects_non_finite_argument(z):
    with pytest.raises(DomainError):
        lambert_w0(z)


@pytest.mark.parametrize("z", [1e300, 1e307, 1e308, 1.7e308,
                               1.7976931348623157e308])
def test_w_matches_mpmath_up_to_the_largest_float(z):
    # Above about 3e307 the Halley denominator overflowed, and the first
    # guess came back unconverged (W(1e308) was 702.6321, not 702.6414).
    with mp.workdps(40):
        want = mp.lambertw(mp.mpf(z)).real
    result = lambert_w0(z)
    assert abs(result.w - want) <= 1e-14 * want
    assert result.residual <= 1e-13 * z


def test_round_trip_residual_on_log_grid():
    for z in _log_grid(1e-3, 1e9, 10000):
        result = lambert_w0(z)
        assert result.residual <= 1e-14 * max(1.0, z), f"z = {z}"


def test_monotonicity_on_log_grid():
    grid = _log_grid(1e-3, 1e9, 10000)
    values = [lambert_w0(z).w for z in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


@given(st.floats(min_value=1e-3, max_value=1e9, allow_nan=False,
                 allow_infinity=False))
def test_round_trip_residual_property(z):
    assert lambert_w0(z).residual <= 1e-14 * max(1.0, z)


def test_the_residual_is_w_exp_w_minus_z_at_the_returned_w_bit_for_bit():
    # The residual reuses the last e^w where the last Halley step left w
    # unchanged (in 51, 1,729 and 2,910 of these draws), and must equal
    # |w e^w - z| at the returned w exactly. Seeded log-uniform draws from
    # each initial-guess region: below 1/e, the band up to e, and from e to
    # the log-space threshold 1e306.
    rng = random.Random(20240)
    regions = [(1e-300, 1.0 / math.e), (1.0 / math.e, math.e), (math.e, 1e306)]
    for lo, hi in regions:
        for _ in range(3000):
            z = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            w, residual = lambert_w0(z)
            assert residual == abs(w * math.exp(w) - z), z
