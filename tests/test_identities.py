import math

import numpy as np
import pytest

from nablatc.identities import (
    IdentityReport,
    check_difference_of_sum,
    check_gl_rl_agreement,
    check_integer_defect,
    check_leibniz,
    check_mixed_composition,
    check_order_limit_diff,
    check_order_limit_sum,
    check_rl_caputo_asymptotics,
    check_rl_caputo_correction,
    check_sum_composition,
    check_sum_of_difference,
    check_taylor_remainder_forms,
    check_uniform_convergence_exchange,
)
from nablatc.operators import OperatorKind, OperatorSpec
from nablatc.presets import preset_weight, weight_case_fn
from nablatc.signals import Grid, Signal, make_signal_from_fn, make_weight, scale_weight

RNG = np.random.default_rng(987)


def sin_signal(a=0.0, history=2, N=32):
    return make_signal_from_fn(Grid(a, history, N), lambda k: math.sin(10 * k))


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        IdentityReport("x", 2.0, 0.0, 1.0, True)
    r = IdentityReport.from_measurement("x", 2.0, 0.0, 1.0)
    assert not r.passed
    assert r.to_dict()["pass"] is False


def test_from_devs_reports_the_first_largest_deviation():
    r = IdentityReport.from_devs("x", np.array([0.5, 2.0, 1.0, 2.0]), 1.25, 3.0, {"n": 1})
    assert (r.max_abs_dev, r.argmax_k, r.passed, r.params) == (2.0, 2.25, True, {"n": 1})
    # a NaN deviation wins over any number and fails the check
    r = IdentityReport.from_devs("x", np.array([1.0, math.nan, 3.0]), 0.0, 10.0)
    assert math.isnan(r.max_abs_dev) and r.argmax_k == 1.0 and not r.passed


def test_from_devs_empty_reports_zero_at_first_k():
    r = IdentityReport.from_devs("x", np.array([]), -3.5, 0.0)
    assert (r.max_abs_dev, r.argmax_k, r.passed, r.params) == (0.0, -3.5, True, {})


@pytest.mark.parametrize("first_k", [-4.0, 0.0, 0.375, 7.0])
def test_from_devs_argmax_is_first_k_plus_index(first_k):
    devs = np.abs(RNG.standard_normal(40))
    j = int(np.argmax(devs))
    r = IdentityReport.from_devs("x", devs, first_k, 1.0)
    assert r.argmax_k == first_k + j
    assert r.max_abs_dev == devs[j]


def test_difference_of_sum_recovers_signal():
    x = sin_signal()
    w = preset_weight("case4", x.grid)
    r = check_difference_of_sum(x, 0.5, w)
    assert r.passed and r.max_abs_dev < 1e-11


def test_difference_of_sum_zero_signal():
    g = Grid(0.0, 2, 16)
    x = Signal(g, np.zeros(g.npoints))
    r = check_difference_of_sum(x, 0.5, preset_weight("case2", g))
    assert r.max_abs_dev == 0.0


def test_difference_of_sum_exponential_weight_order_three_halves():
    # short horizon: the rate-0.5 weight amplifies rounding by 2**horizon
    g = Grid(0.0, 2, 10)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    r = check_difference_of_sum(x, 1.5, make_weight(g, rate=0.5), tol=1e-10)
    assert r.passed


def test_sum_of_difference_constant_caputo():
    g = Grid(0.0, 1, 20)
    x = Signal(g, np.ones(g.npoints))
    r = check_sum_of_difference(x, 0.5, preset_weight("one", g), "caputo")
    assert r.max_abs_dev < 1e-14


def test_sum_of_difference_random_instances():
    g = Grid(-1.0, 2, 24)
    x = Signal(g, RNG.standard_normal(g.npoints))
    w = preset_weight("case2", g)
    for kind in ("rl", "caputo"):
        for alpha in (0.5, 1.5):
            r = check_sum_of_difference(x, alpha, w, kind)
            assert r.passed, (kind, alpha, r.max_abs_dev)


def test_sum_of_difference_linear_signal_order_three_halves():
    # degree-one signal: the i=1 initial value enters the correction
    g = Grid(0.0, 2, 8)
    x = make_signal_from_fn(g, lambda k: k)
    r = check_sum_of_difference(x, 1.5, preset_weight("one", g), "caputo")
    assert r.passed


def test_mixed_compositions_close_to_integer_forms():
    x = sin_signal(N=24)
    w = preset_weight("case4", x.grid)
    for outer in ("rl", "caputo"):
        for beta, n in ((0.5, 1), (0.5, 2), (1.5, 2)):
            r = check_mixed_composition(x, beta, n, w, outer)
            assert r.passed, (outer, beta, n, r.max_abs_dev)


def test_zero_initial_data_makes_the_two_differences_agree():
    # zero history and zero base value kill every correction term
    g = Grid(0.0, 2, 24)
    vals = RNG.standard_normal(g.npoints)
    vals[: g.position(0) + 1] = 0.0
    x = Signal(g, vals)
    w = preset_weight("case1", g)
    r = check_rl_caputo_correction(x, 1.5, w)
    assert r.passed
    from nablatc.operators import caputo_tempered, rl_tempered

    dev = np.max(np.abs(rl_tempered(x, 1.5, w).body - caputo_tempered(x, 1.5, w).body))
    assert dev < 1e-12


def test_taylor_remainder_base_polynomial_exact():
    # degree n-1 signal: the fractional remainder vanishes termwise
    g = Grid(0.0, 2, 16)
    x = make_signal_from_fn(g, lambda k: 2.0 + 3.0 * k)
    r = check_taylor_remainder_forms(x, 1.5, preset_weight("one", g), 0)
    assert r.max_abs_dev < 1e-12


def test_taylor_remainder_shifted():
    x = sin_signal(N=20)
    w = preset_weight("case1", x.grid)
    r = check_taylor_remainder_forms(x, 1.7, w, 1)
    assert r.passed


def test_integer_defect_checker():
    x = sin_signal(N=12, history=3)
    w = preset_weight("case4", x.grid)
    for n in (1, 2, 3):
        assert check_integer_defect(x, n, w).passed


def test_order_limit_sum_zero_signal():
    g = Grid(0.0, 0, 16)
    x = Signal(g, np.zeros(g.npoints))
    r = check_order_limit_sum(x, preset_weight("case1", g))
    assert r.max_abs_dev == 0.0 and r.passed


def test_order_limit_sum_sin_signal():
    g = Grid(0.0, 0, 50)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    w = preset_weight("case1", g)
    r = check_order_limit_sum(x, w)
    assert r.passed
    assert r.max_abs_dev <= 1e-6


def test_order_limit_sum_invariant_under_weight_sign_flip():
    g = Grid(0.0, 0, 30)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    w = preset_weight("case1", g)
    r1 = check_order_limit_sum(x, w)
    r2 = check_order_limit_sum(x, scale_weight(w, -1.0))
    assert r1.params["deviation_by_eps"] == r2.params["deviation_by_eps"]


def test_order_limit_diff_linear_signal():
    g = Grid(0.0, 2, 20)
    x = make_signal_from_fn(g, lambda k: k)
    w = preset_weight("one", g)
    r = check_order_limit_diff(x, w, 1, "at_n", "caputo")
    # target is the first difference of k, identically 1
    assert r.passed


def test_order_limit_diff_constant_caputo_low_side():
    g = Grid(0.0, 1, 16)
    x = Signal(g, 2.5 * np.ones(g.npoints))
    r = check_order_limit_diff(x, preset_weight("one", g), 1, "at_n_minus_1", "caputo")
    assert r.passed


def test_order_limit_diff_windows_and_monotonicity():
    x = sin_signal(N=25)
    w = preset_weight("case3", x.grid)
    for kind in ("rl", "caputo"):
        for side in ("at_n", "at_n_minus_1"):
            for n in (1, 2):
                r = check_order_limit_diff(x, w, n, side, kind)
                assert r.passed, (kind, side, n, r.max_abs_dev)
                assert r.params["monotone"]


def test_rl_limit_excludes_short_window():
    # at k = a+1 the difference-of-sum form does not converge to the
    # integer difference; the checker must not look there
    g = Grid(0.0, 2, 12)
    x = make_signal_from_fn(g, lambda k: math.sin(3 * k) + 1.0)
    w = preset_weight("one", g)
    from nablatc.operators import nabla_n_tempered, rl_tempered

    n = 1
    lhs = rl_tempered(x, n - 1e-7, w).body
    target = nabla_n_tempered(x, n, w).body
    assert abs(lhs[0] - target[0]) > 1e-3  # genuinely excluded point
    assert check_order_limit_diff(x, w, n, "at_n", "rl").passed


def test_uniform_convergence_bound():
    g = Grid(0.0, 1, 40)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    seq = [Signal(g, x.values + 1.0 / i) for i in range(1, 21)]
    for wname in ("case1", "case2"):
        r = check_uniform_convergence_exchange(seq, x, 0.5, preset_weight(wname, g))
        assert r.passed


def test_uniform_convergence_identical_sequence():
    g = Grid(0.0, 1, 20)
    x = make_signal_from_fn(g, lambda k: math.cos(k))
    r = check_uniform_convergence_exchange([x, x, x], x, 0.5, preset_weight("case4", g))
    assert r.max_abs_dev == 0.0


def test_leibniz_unit_factor_reduces_to_operator():
    g = Grid(0.0, 2, 16)
    f = Signal(g, np.ones(g.npoints))
    y = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    w = preset_weight("case3", g)
    spec = OperatorSpec(OperatorKind.INTEGER_NABLA, 1.0, w)
    r = check_leibniz(f, y, spec)
    assert r.passed


def test_leibniz_all_forms():
    g = Grid(0.0, 3, 24)
    f = make_signal_from_fn(g, lambda k: k)
    y = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    w = make_weight(g, rate=0.25)
    for kind, order in (
        (OperatorKind.INTEGER_NABLA, 1.0),
        (OperatorKind.GL, 0.5),
        (OperatorKind.RL, 0.5),
        (OperatorKind.CAPUTO, 0.5),
        (OperatorKind.CAPUTO, 1.5),
    ):
        r = check_leibniz(f, y, OperatorSpec(kind, order, w))
        assert r.passed, (kind, order, r.max_abs_dev)


def test_leibniz_factor_order_both_ways():
    # the expansion is asymmetric in (f, g); each orientation must match
    # the same direct product value
    g = Grid(0.0, 2, 16)
    f = make_signal_from_fn(g, lambda k: 0.8 ** (k))
    y = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    w = preset_weight("case3", g)
    spec = OperatorSpec(OperatorKind.GL, 0.5, w)
    assert check_leibniz(f, y, spec).passed
    assert check_leibniz(y, f, spec).passed


def test_caputo_leibniz_correction_single_term():
    # at integer stage one the correction block has only its (0,0) entry
    from nablatc.operators import caputo_tempered, gl_tempered
    from nablatc.special import rising_over_gamma

    g = Grid(0.0, 1, 10)
    f = make_signal_from_fn(g, lambda k: 1.0 + 0.1 * k)
    y = make_signal_from_fn(g, lambda k: math.sin(2 * k))
    w = preset_weight("one", g)
    alpha = 0.5
    fg = Signal(g, f.values * y.values)
    lhs = caputo_tempered(fg, alpha, w).body
    gl_part = gl_tempered(fg, alpha, w).body
    ratio = w.at(0) / w.body
    basis = np.array([rising_over_gamma(m, -alpha, 1 - alpha) for m in range(1, 11)])
    expected_r = basis * ratio * (f.at(0) * y.at(0))
    np.testing.assert_allclose(lhs, gl_part - expected_r, atol=1e-13)


def test_asymptotics_zero_initial_data():
    g = Grid(0.0, 1, 40)
    vals = RNG.standard_normal(g.npoints)
    vals[: g.position(0) + 1] = 0.0
    x = Signal(g, vals)
    w = preset_weight("case4", g)
    from nablatc.operators import caputo_tempered, rl_tempered

    gap = np.abs(rl_tempered(x, 0.5, w).body - caputo_tempered(x, 0.5, w).body)
    assert np.max(gap) < 1e-13


def test_asymptotics_large_k():
    g = Grid(0.0, 1, 400)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k) + 1.0)
    r = check_rl_caputo_asymptotics(x, 0.5, preset_weight("one", g), "large_k")
    assert r.passed
    assert r.params["gap_end"] < r.params["gap_mid"]


def test_asymptotics_early_base():
    g = Grid(0.0, 1, 20)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k) + 1.0)
    r = check_rl_caputo_asymptotics(
        x,
        0.5,
        preset_weight("case4", g),
        "early_a",
        x_fn=lambda k: math.sin(10 * k) + 1.0,
        w_fn=weight_case_fn("case4", 0.0),
    )
    assert r.passed
    gaps = r.params["gaps"]
    assert gaps[2] < gaps[1] < gaps[0]


def test_checkers_deterministic():
    x = sin_signal(N=16)
    w = preset_weight("case2", x.grid)
    r1 = check_difference_of_sum(x, 0.5, w)
    r2 = check_difference_of_sum(x, 0.5, w)
    assert r1 == r2


def test_pass_invariant_under_weight_scaling():
    x = sin_signal(N=20)
    w = preset_weight("case1", x.grid)
    for lam in (2.0, -1.0, 0.125):
        ws = scale_weight(w, lam)
        assert check_gl_rl_agreement(x, 0.5, ws).passed
        assert check_sum_composition(x, 0.5, ws).passed
        assert check_difference_of_sum(x, 1.5, ws).passed


def test_seeded_battery_on_reference_weight_families():
    rng = np.random.default_rng(31415)
    for i in range(25):
        N = int(rng.integers(8, 48))
        g = Grid(float(rng.uniform(-2, 2)), 2, N)
        x = Signal(g, rng.standard_normal(g.npoints))
        w = preset_weight(f"case{i % 4 + 1}", g)
        alpha = float(rng.uniform(0.1, 0.9))
        assert check_gl_rl_agreement(x, alpha, w).passed
        assert check_difference_of_sum(x, alpha, w).passed
        assert check_sum_of_difference(x, alpha, w, "caputo").passed
