"""Pinned report bits of the difference-of-sum checkers, of the checkers
that share one body, and of the two decay checkers.

The difference-of-sum (RL) form's initial values at the base point are
empty sums under the zero-extension convention, so the checkers that pair
it with an initial-value series carry no term for them.  The transform
rules of every operator kind are one checker, and the single-sum agreement
and the sum composition one body.  These tests pin ``max_abs_dev`` (as
``float.hex``) and ``argmax_k`` of such reports, so a change to how they
are formed shows as a changed bit here rather than only in a full suite
digest.  The decay reports also pin each float param.
"""

import math

import numpy as np
import pytest

from nablatc.identities import (
    GL_RL_AGREE,
    SUM_COMPOSITION,
    SUM_OF_DIFFERENCE,
    TOL_EXACT,
    check_rl_caputo_asymptotics,
    check_rl_caputo_base_shift,
    run_rows,
)
from nablatc.laplace import (
    check_convolution_with_ic,
    check_transform_rule_gl,
    transform_rule_reports,
)
from nablatc.presets import preset_signal, preset_weight, weight_case_fn
from nablatc.signals import Grid, Signal, make_signal_from_fn, make_weight
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

# (rate, order, point index) -> (hex, argmax_k), the single-sum rule at
# s = _S_POINTS[0] and [1] on sin10k, N = 3000
_TRANSFORM_RULE_GL = {
    (0.0, 0.5, 0): ("0x1.07e0f66afed07p-51", 0.0),
    (0.0, 0.5, 1): ("0x1.8000000000000p-53", 0.0),
    (0.0, -1.0, 0): ("0x1.7000000000000p-50", 0.0),
    (0.0, -1.0, 1): ("0x1.84351965c3be0p-52", 0.0),
    (0.0, 1.5, 0): ("0x1.8bd171a07e38ap-50", 0.0),
    (0.0, 1.5, 1): ("0x1.854bfb363dc39p-52", 0.0),
    (2.0, 0.5, 0): ("0x1.1000000000000p-49", 0.0),
    (2.0, 0.5, 1): ("0x1.c4d4c2993cae2p-52", 0.0),
    (2.0, -1.0, 0): ("0x1.dbb6d5ce3a42fp-50", 0.0),
    (2.0, -1.0, 1): ("0x1.d1ed52076fbe9p-52", 0.0),
    (2.0, 1.5, 0): ("0x1.273a25a8bfc80p-48", 0.0),
    (2.0, 1.5, 1): ("0x1.498ea9d28b31cp-50", 0.0),
    (-0.02, 0.5, 0): ("0x1.99ccc999fff00p-51", 0.0),
    (-0.02, 0.5, 1): ("0x1.2706821902e9ap-52", 0.0),
    (-0.02, -1.0, 0): ("0x1.3b91bf663f03ap-50", 0.0),
    (-0.02, -1.0, 1): ("0x1.dff88879aa5c1p-54", 0.0),
    (-0.02, 1.5, 0): ("0x1.c48c6001f0ac0p-50", 0.0),
    (-0.02, 1.5, 1): ("0x1.e98180e9b47f2p-52", 0.0),
}

# (kind, rate, order) -> (hex, argmax_k), at s = _S_POINTS[2] on sin10k,
# N = 3000: the rules with an initial-value polynomial
_TRANSFORM_RULE_IV = {
    ("int", 0.0, 1): ("0x1.0cec7ce9c4cb6p-49", 0.0),
    ("int", 0.0, 2): ("0x1.3149687a3a9bbp-49", 0.0),
    ("caputo", 0.0, 0.5): ("0x1.109df0437dfcap-49", 0.0),
    ("caputo", 0.0, 1.5): ("0x1.21e1faea49a06p-49", 0.0),
    ("int", 2.0, 1): ("0x1.019eb020ee283p-50", 0.0),
    ("int", 2.0, 2): ("0x1.3a001a16d2e40p-49", 0.0),
    ("caputo", 2.0, 0.5): ("0x1.04588e750bf12p-49", 0.0),
    ("caputo", 2.0, 1.5): ("0x1.329ab917c115ep-49", 0.0),
    ("int", -0.02, 1): ("0x1.175792d45b80ep-49", 0.0),
    ("int", -0.02, 2): ("0x1.2e6abbf921c3ep-49", 0.0),
    ("caputo", -0.02, 0.5): ("0x1.08c1a973e8469p-49", 0.0),
    ("caputo", -0.02, 1.5): ("0x1.13dae388b32d3p-49", 0.0),
}

# check -> each row's (hex, argmax_k): one stack of nine rows, (horizon,
# rate) in _AGREEMENT_GRIDS order, each with the orders of _AGREEMENT_ORDERS
_AGREEMENT_GRIDS = ((24, 0.0), (17, 0.3), (24, -0.5))
_AGREEMENT_ORDERS = (0.5, 1.5, 1.25)
_AGREEMENT = {
    "gl-rl-agree": (
        ("0x1.8000000000000p-51", 20.0),
        ("0x1.8000000000000p-50", 11.0),
        ("0x1.8000000000000p-50", 12.0),
        ("0x1.b000000000000p-46", 17.0),
        ("0x1.0d00000000000p-45", 17.0),
        ("0x1.c100000000000p-45", 17.0),
        ("0x1.0000000000000p-50", 10.0),
        ("0x1.0000000000000p-51", 3.0),
        ("0x1.4000000000000p-51", 23.0),
    ),
    "sum-composition": (
        ("0x1.a000000000000p-48", 24.0),
        ("0x1.f700000000000p-42", 23.0),
        ("0x1.e180000000000p-42", 22.0),
        ("0x1.7000000000000p-43", 16.0),
        ("0x1.2400000000000p-34", 17.0),
        ("0x1.4800000000000p-36", 17.0),
        ("0x1.8000000000000p-51", 3.0),
        ("0x1.3200000000000p-48", 12.0),
        ("0x1.4000000000000p-48", 11.0),
    ),
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

# the rl-caputo-decay group's inputs, bumped = sin(10k) + 1: (weight,
# order) -> (hex, argmax_k, gap_end, gap_mid, envelope) on the window
# N = 400, and weight -> (hex, argmax_k, gaps) for the base shift at 0.5
_DECAY_WINDOW = {
    ("one", 0.5): ("0x1.69b2d57eaca30p-1", 400.0, "0x1.ce9e333daa7c0p-6",
                   "0x1.476d8a4ab55e0p-5", "0x1.0000000000000p-1"),
    ("one", 1.5): ("0x1.68dca7c975eb3p-1", 400.0, "0x1.f8823f8182280p-7",
                   "0x1.65e7a64bf7380p-6", "0x1.8b44f7af9a7a9p-1"),
    ("case3", 0.5): ("0x1.69b2d57eab444p-1", 400.0, "0x1.ce9e333da9020p-6",
                     "0x1.476d8a4ab5900p-5", "0x1.0000000000000p-1"),
    ("case3", 1.5): ("0x1.69e0e4681a153p-1", 400.0, "0x1.26151566abb00p-4",
                     "0x1.a01450b24e9a0p-4", "0x1.c5a27bd7cd3d4p+0"),
    ("case4", 0.5): ("0x1.69b2d57eab1d1p-1", 400.0, "0x1.ce9e333da90e0p-6",
                     "0x1.476d8a4ab5bc0p-5", "0x1.000000000007ap-1"),
    ("case4", 1.5): ("0x1.69e0e4681a1b7p-1", 400.0, "0x1.26151566abbf0p-4",
                     "0x1.a01450b24ea80p-4", "0x1.c5a27bd7cd4adp+0"),
}
_DECAY_BASE_SHIFT = {
    "one": ("0x1.312f896a5fdf9p-2", 20.0,
            ("0x1.0757bd96fffc8p-3", "0x1.2515c86258980p-7", "0x1.5d65600f66a00p-9")),
    "case4": ("0x1.312f896a60ee9p-2", 20.0,
              ("0x1.0757bd96fffe8p-3", "0x1.2515c8625a180p-7", "0x1.5d65600f69a00p-9")),
}


def _bumped(k):
    return math.sin(10.0 * k) + 1.0


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
    r = transform_rule_reports(x, "rl", order, lam, _S_POINTS[2:])[0]
    assert _bits(r) == _TRANSFORM_RULE_RL[lam, order]


@pytest.mark.parametrize("lam, alpha, j", list(_TRANSFORM_RULE_GL))
def test_transform_rule_gl_bits(lam, alpha, j):
    x = preset_signal("sin10k", Grid(0.0, 2, 3000))
    r = check_transform_rule_gl(x, alpha, lam, _S_POINTS[j])
    assert _bits(r) == _TRANSFORM_RULE_GL[lam, alpha, j]


@pytest.mark.parametrize("kind, lam, order", list(_TRANSFORM_RULE_IV))
def test_transform_rule_initial_value_bits(kind, lam, order):
    x = preset_signal("sin10k", Grid(0.0, 2, 3000))
    r = transform_rule_reports(x, kind, order, lam, _S_POINTS[2:])[0]
    assert _bits(r) == _TRANSFORM_RULE_IV[kind, lam, order]


@pytest.mark.parametrize("check", [GL_RL_AGREE, SUM_COMPOSITION])
def test_agreement_bits(check):
    rng = np.random.default_rng(33)
    rows = []
    for N, lam in _AGREEMENT_GRIDS:
        g = Grid(0.0, 2, N)
        x = Signal(g, rng.standard_normal(g.npoints))
        w = make_weight(g, rate=lam)
        rows += [(x, w, alpha) for alpha in _AGREEMENT_ORDERS]
    reports = run_rows(check, rows, TOL_EXACT)
    assert [_bits(r) for r in reports] == list(_AGREEMENT[reports[0].identity_id])


def test_convolution_with_ic_fractional_bits():
    rng = np.random.default_rng(40)
    g = Grid(0.0, 2, 40)
    x = Signal(g, rng.standard_normal(g.npoints))
    y = Signal(g, rng.standard_normal(g.npoints))
    got = {key: _bits(check_convolution_with_ic(x, y, key[1], key[0])) for key in _CONVOLUTION_FRAC}
    assert got == _CONVOLUTION_FRAC


@pytest.mark.parametrize("wname, alpha", list(_DECAY_WINDOW))
def test_decay_window_bits(wname, alpha):
    g = Grid(0.0, 2, 400)
    r = check_rl_caputo_asymptotics(make_signal_from_fn(g, _bumped), alpha, preset_weight(wname, g))
    p = r.params
    got = (*_bits(r), p["gap_end"].hex(), p["gap_mid"].hex(), p["envelope"].hex())
    assert got == _DECAY_WINDOW[wname, alpha]
    assert p["alpha"] == alpha


@pytest.mark.parametrize("wname", list(_DECAY_BASE_SHIFT))
def test_decay_base_shift_bits(wname):
    r = check_rl_caputo_base_shift(_bumped, weight_case_fn(wname, 0.0), 0.5)
    got = (*_bits(r), tuple(v.hex() for v in r.params["gaps"]))
    assert got == _DECAY_BASE_SHIFT[wname]
    assert r.params["alpha"] == 0.5
