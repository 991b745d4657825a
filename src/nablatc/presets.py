"""Named signals and weights shared by the CLI and the verification suite.

Signals: ``sin10k``, ``poly:c0,c1,...`` (coefficients of powers of k), and
``geom:r`` (r to the power k - a).  Weights: the four reference tempering
cases (root-two growth, negated pi growth, alternating sign, quarter-phase
sine), ``one``, ``halfgeom`` and ``halfgeom+eps`` (the vanishing and
eps-shifted decaying weights), and ``exp:rate``.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NablaError
from .signals import Grid, Signal, Weight, make_signal_from_fn, make_weight

__all__ = [
    "UnknownPreset",
    "SIGNAL_NAMES",
    "WEIGHT_NAMES",
    "preset_signal",
    "preset_weight",
    "weight_case_fn",
]


class UnknownPreset(NablaError):
    """Name does not match any built-in signal or weight."""


SIGNAL_NAMES = ("sin10k", "poly:<c0,c1,...>", "geom:<r>")
WEIGHT_NAMES = (
    "case1",
    "case2",
    "case3",
    "case4",
    "one",
    "halfgeom",
    "halfgeom+eps",
    "exp:<rate>",
)


def _spec_number(name: str, what: str, text: str) -> float:
    """One number of a ``kind:...`` spec; a non-finite one is a bad spec."""
    try:
        value = float(text)
    except ValueError as exc:
        raise UnknownPreset(f"bad {what} spec {name!r}: {exc}") from None
    if not math.isfinite(value):
        raise UnknownPreset(f"bad {what} spec {name!r}: {text!r} is not a finite number")
    return value


def preset_signal(name: str, grid: Grid) -> Signal:
    if name == "sin10k":
        return make_signal_from_fn(grid, lambda k: math.sin(10.0 * k))
    if name.startswith("poly:"):
        coeffs = [_spec_number(name, "polynomial", c) for c in name[5:].split(",") if c]
        if not coeffs:
            raise UnknownPreset(f"polynomial spec {name!r} has no coefficients")
        return make_signal_from_fn(
            grid, lambda k: sum(c * k**j for j, c in enumerate(coeffs))
        )
    if name.startswith("geom:"):
        r = _spec_number(name, "geometric", name[5:])
        if r <= 0.0:
            raise UnknownPreset(f"geometric ratio must be positive, got {r}")
        return make_signal_from_fn(grid, lambda k: r ** (k - grid.a))
    raise UnknownPreset(f"unknown signal {name!r}; use one of {SIGNAL_NAMES}")


def weight_case_fn(name: str, a: float) -> Callable[[float], float]:
    """Pointwise weight function of k for the named general-form cases."""
    if name == "one":
        return lambda k: 1.0
    if name == "case1":
        return lambda k: math.sqrt(2.0) ** (k - a)
    if name == "case2":
        return lambda k: -(math.pi ** (k - a))
    if name == "case4":
        return lambda k: math.sin(k * math.pi / 2.0 - a * math.pi / 2.0 + math.pi / 4.0)
    if name == "halfgeom":
        return lambda k: 0.5 ** (k - a)
    if name == "halfgeom+eps":
        return lambda k: 0.5 ** (k - a) + 0.01
    raise UnknownPreset(f"unknown weight {name!r}; use one of {WEIGHT_NAMES}")


def preset_weight(name: str, grid: Grid) -> Weight:
    if name == "one":
        return make_weight(grid, rate=0.0)
    if name == "case3":
        # alternating sign is the exponential weight of rate 2
        return make_weight(grid, rate=2.0)
    if name == "case1":
        return make_weight(grid, rate=1.0 - math.sqrt(2.0))
    if name.startswith("exp:"):
        rate = _spec_number(name, "exponential", name[4:])
        if rate == 1.0:
            raise UnknownPreset(f"bad exponential spec {name!r}: rate 1 makes the weight zero")
        return make_weight(grid, rate=rate)
    return make_weight(grid, fn=weight_case_fn(name, grid.a))
