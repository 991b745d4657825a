"""Pinned report bits of the difference-of-sum checkers.

The difference-of-sum (RL) form's initial values at the base point are
empty sums under the zero-extension convention, so the checkers that pair
it with an initial-value series carry no term for them.  These tests pin
``max_abs_dev`` (as ``float.hex``) and ``argmax_k`` of the reports that such
a term would touch, so a change to how they are formed shows as a changed
bit here rather than only in a full suite digest.
"""

import numpy as np
import pytest

from nablatc.identities import SUM_OF_DIFFERENCE, TOL_EXACT, run_rows
from nablatc.laplace import check_convolution_with_ic, check_transform_rule_diff
from nablatc.presets import preset_signal
from nablatc.signals import Grid, Signal, make_weight
from nablatc.suite import _S_POINTS

_ALPHAS = (0.5, 0.75, 1.5, 1.25)  # n = 1, 1, 2, 2

# (horizon, rate): one stack of twelve rows, each row's (hex, argmax_k) in
# the order of _ALPHAS
_SUM_OF_DIFFERENCE_RL = {
    (24, 0.0): (
        ("0x1.0000000000000p-51", 6.0),
        ("0x1.c000000000000p-51", 18.0),
        ("0x1.c400000000000p-48", 23.0),
        ("0x1.2000000000000p-49", 16.0),
    ),
    (17, 0.3): (
        ("0x1.a800000000000p-47", 17.0),
        ("0x1.d800000000000p-47", 16.0),
        ("0x1.9340000000000p-43", 16.0),
        ("0x1.2c00000000000p-44", 17.0),
    ),
    (24, -0.5): (
        ("0x1.8000000000000p-51", 23.0),
        ("0x1.8000000000000p-51", 23.0),
        ("0x1.8000000000000p-50", 23.0),
        ("0x1.0000000000000p-51", 23.0),
    ),
}

# (rate, order) -> (hex, argmax_k), at s = _S_POINTS[2] on sin10k, N = 3000
_TRANSFORM_RULE_RL = {
    (0.0, 0.5): ("0x1.1451937b0e741p-49", 0.0),
    (0.0, 1.5): ("0x1.a29b726831d25p-50", 0.0),
    (2.0, 0.5): ("0x1.0634be1c70fc0p-49", 0.0),
    (2.0, 1.5): ("0x1.0cce04df98dccp-49", 0.0),
    (-0.02, 0.5): ("0x1.0fe9687939f3ap-49", 0.0),
    (-0.02, 1.5): ("0x1.a9ceb63ce62d7p-50", 0.0),
}

# (rate, order) -> (hex, argmax_k), on seeded normal signals, N = 40
_CONVOLUTION_FRAC = {
    (0.0, 0.5): ("0x1.4000000000000p-48", 29.0),
    (0.0, 1.5): ("0x1.8000000000000p-47", 33.0),
    (2.0, 0.5): ("0x1.4000000000000p-48", 39.0),
    (2.0, 1.5): ("0x1.6000000000000p-47", 30.0),
    (-0.5, 0.5): ("0x1.0000000000000p-48", 25.0),
    (-0.5, 1.5): ("0x1.0000000000000p-48", 30.0),
}


def _bits(report):
    return report.max_abs_dev.hex(), report.argmax_k


def test_sum_of_difference_rl_bits():
    rng = np.random.default_rng(2024)
    rows, expected = [], []
    for (N, lam), pins in _SUM_OF_DIFFERENCE_RL.items():
        g = Grid(0.0, 2, N)
        x = Signal(g, rng.standard_normal(g.npoints))
        w = make_weight(g, rate=lam)
        rows += [(x, w, alpha, "rl") for alpha in _ALPHAS]
        expected += pins
    reports = run_rows(SUM_OF_DIFFERENCE, rows, TOL_EXACT)
    assert [_bits(r) for r in reports] == list(expected)


@pytest.mark.parametrize("lam, order", list(_TRANSFORM_RULE_RL))
def test_transform_rule_rl_bits(lam, order):
    x = preset_signal("sin10k", Grid(0.0, 2, 3000))
    r = check_transform_rule_diff(x, "rl", order, lam, _S_POINTS[2])
    assert _bits(r) == _TRANSFORM_RULE_RL[lam, order]


def test_convolution_with_ic_fractional_bits():
    rng = np.random.default_rng(40)
    g = Grid(0.0, 2, 40)
    x = Signal(g, rng.standard_normal(g.npoints))
    y = Signal(g, rng.standard_normal(g.npoints))
    got = {key: _bits(check_convolution_with_ic(x, y, key[1], key[0])) for key in _CONVOLUTION_FRAC}
    assert got == _CONVOLUTION_FRAC
