"""Shared fixtures: frozen reference values and precomputed zero records."""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import settings

from imbessel import asymptotic_zero, refine_zero

from golden import NS

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

_ORACLE_PATH = pathlib.Path(__file__).parent / "oracles" / \
    "reference_values.json"


@pytest.fixture(scope="session")
def reference() -> dict:
    """Frozen high-precision reference values (strings preserve digits)."""
    with open(_ORACLE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def records_x1() -> dict:
    """Refined zero records for every kind and tabulated n at x = 1."""
    out = {}
    for kind in "LKFG":
        for n in NS:
            estimate = asymptotic_zero(kind, n, 1.0)
            out[kind, n] = refine_zero(estimate)
    return out


@pytest.fixture(scope="session")
def estimates_x1() -> dict:
    """Three-correction estimates for every kind and tabulated n at x = 1."""
    return {(kind, n): asymptotic_zero(kind, n, 1.0)
            for kind in "LKFG" for n in NS}
