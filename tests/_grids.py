"""Seeded random parameter grids and domain edges shared by several test modules."""

import math

import numpy as np
import pytest

from cceff.model import _DOMAIN

BOUNDS = {
    "alpha": (-6.0, 3.0),
    "beta": (-3.0, 3.0),
    "gamma": (-3.0, 3.0),
    "theta": (0.02, 0.98),
    "pi": (0.02, 0.98),
    "nu": (0.2, 5.0),
}


def draw_params(rng, n, **overrides):
    """(n, 6) array of columns (alpha, beta, gamma, theta, pi, nu)."""
    cols = []
    for name in ("alpha", "beta", "gamma", "theta", "pi", "nu"):
        lo, hi = overrides.get(name, BOUNDS[name])
        cols.append(rng.uniform(lo, hi, n))
    return np.column_stack(cols)


def domain_edges(names=tuple(_DOMAIN)):
    """pytest params (name, value, outside) at both ends of each named ``_DOMAIN`` range.

    Each bound lies inside; the float one step past it, a value 16 range
    widths past it (where e^beta overflows) and NaN lie outside.
    """
    for name in names:
        lo, hi = _DOMAIN[name]
        yield pytest.param(name, lo, False, id=f"{name}-lo")
        yield pytest.param(name, hi, False, id=f"{name}-hi")
        yield pytest.param(name, float(np.nextafter(lo, -math.inf)), True, id=f"{name}-below")
        yield pytest.param(name, float(np.nextafter(hi, math.inf)), True, id=f"{name}-above")
        yield pytest.param(name, lo - 16.0 * (hi - lo), True, id=f"{name}-far-below")
        yield pytest.param(name, hi + 16.0 * (hi - lo), True, id=f"{name}-far-above")
        yield pytest.param(name, math.nan, True, id=f"{name}-nan")


def domain_message(name, value):
    """The InvalidInput text for a value outside its ``_DOMAIN`` range."""
    lo, hi = _DOMAIN[name]
    return f"{name}={value!r} outside [{lo!r}, {hi!r}]"
