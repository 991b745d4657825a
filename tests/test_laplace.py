import math

import numpy as np
import pytest

from nablatc import laplace
from nablatc.laplace import (
    LaplaceEval,
    MLParams,
    RegionOfConvergence,
    SeriesDiverged,
    SingularStep,
    check_convolution_commutation,
    check_convolution_with_ic,
    check_tempering_shift,
    check_transform_rule_gl,
    convolve,
    fde_solve,
    ml_function,
    nlt,
    transform_rule_reports,
)
from nablatc.operators import IntegerOrder
from nablatc.presets import preset_signal, preset_weight
from nablatc.signals import (
    BadRate,
    Grid,
    GridMismatch,
    NonFiniteSample,
    Signal,
    make_signal_from_fn,
    make_weight,
)

RNG = np.random.default_rng(1618)


def test_nlt_geometric_sum():
    g = Grid(0.0, 0, 300)
    ones = Signal(g, np.ones(g.npoints))
    ev = nlt(ones, 0.5)
    assert ev.converged
    assert ev.value == pytest.approx(2.0, rel=1e-13)  # 1/s


def test_nlt_zero_signal():
    g = Grid(0.0, 0, 50)
    z = Signal(g, np.zeros(g.npoints))
    for s in (0.5, 0.3 + 0.4j, 2.5):
        assert nlt(z, s).value == 0.0


def test_nlt_finite_support_converges_anywhere():
    g = Grid(0.0, 0, 40)
    vals = np.zeros(g.npoints)
    vals[g.position(1)] = 1.0
    imp = Signal(g, vals)
    ev = nlt(imp, 3.0)  # |1-s| = 2, outside the geometric disk
    assert ev.converged
    assert ev.value == pytest.approx(1.0)


def test_nlt_flags_divergent_region():
    g = Grid(0.0, 0, 60)
    ones = Signal(g, np.ones(g.npoints))
    ev = nlt(ones, 2.5)
    assert not ev.converged


def test_nlt_modulus_past_binary64():
    # abs of a complex with finite parts raises OverflowError past binary64
    g = Grid(0.0, 0, 5)
    x = Signal(g, np.ones(g.npoints))
    big = 1.7976931348623157e308
    ev = nlt(Signal(Grid(0.0, 0, 1), np.ones(2)), complex(big, big))
    assert ev.terms_used == 1 and not ev.converged
    with pytest.raises(SeriesDiverged, match="partial sum overflows after 1 terms"):
        nlt(x, complex(big, big))
    with pytest.raises(RegionOfConvergence, match=r"\|s-1\| = inf"):
        check_transform_rule_gl(x, 0.5, 0.1, complex(big, big))
    for s in (complex(big, big), complex(-big, -big)):
        with pytest.raises(RegionOfConvergence, match="shifted convergence disk"):
            check_tempering_shift(x, 0.1, s)


@pytest.mark.parametrize("s", [complex("nan"), complex(1.0, math.nan), complex(math.nan, 0.1)])
def test_region_rejects_a_nan_point_before_any_work(s, monkeypatch):
    # NaN compares False with everything, so a guard written as d >= r
    # would let it through to the weight, the operator and the transform
    x = preset_signal("sin10k", Grid(0.0, 2, 40))

    def unreached(*args):
        raise AssertionError("work done for a point outside the region")

    monkeypatch.setattr(laplace, "make_weight", unreached)
    monkeypatch.setattr(laplace, "nlt", unreached)
    with pytest.raises(RegionOfConvergence, match=r"\|s-1\| = nan"):
        transform_rule_reports(x, "gl", 0.5, 0.1, (s,))
    with pytest.raises(RegionOfConvergence, match=r"\|s-1\| = nan"):
        transform_rule_reports(x, "caputo", 1.5, 0.1, (0.9, s))
    with pytest.raises(RegionOfConvergence, match="shifted convergence disk"):
        check_tempering_shift(x, 0.1, s)


_RATE_ENTRY_POINTS = {
    "shift": lambda x, lam: check_tempering_shift(x, lam, 0.9),
    "rule": lambda x, lam: transform_rule_reports(x, "caputo", 1.5, lam, (0.9,)),
}


@pytest.mark.parametrize("entry", list(_RATE_ENTRY_POINTS))
@pytest.mark.parametrize("lam", [1.0, math.nan, math.inf, -math.inf])
def test_bad_rate_before_any_region_test(entry, lam):
    # every rate either check takes is tested before its disk, so a rate
    # no weight is built from never reads as a point outside the region
    x = preset_signal("geom:0.8", Grid(0.0, 2, 40))
    with pytest.raises(BadRate):
        _RATE_ENTRY_POINTS[entry](x, lam)


def test_nlt_invariant():
    g = Grid(0.0, 0, 400)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    ev = nlt(x, 0.8 + 0.3j)
    assert isinstance(ev, LaplaceEval)
    if ev.converged:
        assert ev.last_term_mag <= 1e-14 * max(abs(ev.value), 1e-300)


def test_nlt_linear():
    g = Grid(0.0, 0, 200)
    x = Signal(g, RNG.standard_normal(g.npoints))
    y = Signal(g, RNG.standard_normal(g.npoints))
    s = 0.7 + 0.2j
    combo = Signal(g, 2.0 * x.values - 3.0 * y.values)
    assert nlt(combo, s).value == pytest.approx(
        2.0 * nlt(x, s).value - 3.0 * nlt(y, s).value, rel=1e-12
    )


def test_transform_rule_gl_order_zero():
    g = Grid(0.0, 0, 800)
    x = preset_signal("geom:0.8", g)
    r = check_transform_rule_gl(x, 0.0, 0.3, 0.9 + 0.1j)
    assert r.max_abs_dev < 1e-14


def test_transform_rule_gl_running_sum_closed_form():
    # untempered order -1: transform is s**-2 for the unit signal
    g = Grid(0.0, 0, 2000)
    ones = Signal(g, np.ones(g.npoints))
    r = check_transform_rule_gl(ones, -1.0, 0.0, 0.8)
    assert r.passed
    from nablatc.operators import gl_tempered

    w = make_weight(g, rate=0.0)
    lhs = nlt(gl_tempered(ones, -1.0, w), 0.8).value
    assert lhs == pytest.approx(0.8**-2, rel=1e-12)


def test_transform_rule_gl_tempered():
    # horizon capped so the rate-0.5 weight stays above the zero threshold
    g = Grid(0.0, 0, 900)
    x = preset_signal("geom:0.8", g)
    r = check_transform_rule_gl(x, 0.5, 0.5, 0.9)
    assert r.passed and r.max_abs_dev <= 1e-8


def test_transform_rule_region_enforced():
    g = Grid(0.0, 0, 100)
    x = preset_signal("sin10k", g)
    with pytest.raises(RegionOfConvergence):
        check_transform_rule_gl(x, 0.5, 0.5, 0.2)  # |s-1| = 0.8 > |1-lam|
    with pytest.raises(RegionOfConvergence):
        transform_rule_reports(x, "rl", 0.5, 0.0, (3.0,))[0]


def test_transform_rule_diff_constant_signal():
    g = Grid(0.0, 2, 400)
    ones = Signal(g, np.ones(g.npoints))
    r = transform_rule_reports(ones, "int", 1, 0.0, (0.7,))[0]
    assert r.max_abs_dev < 1e-13
    r = transform_rule_reports(ones, "caputo", 0.5, 0.0, (0.7,))[0]
    assert r.max_abs_dev < 1e-13


def test_transform_rule_diff_all_kinds():
    g = Grid(0.0, 2, 3000)
    x = preset_signal("sin10k", g)
    g2 = Grid(0.0, 2, 2000)  # rate 0.25 underflows the zero threshold at 3000
    x2 = preset_signal("sin10k", g2)
    s = 0.95 + 0.2j
    for kind, order in (("int", 2), ("rl", 0.5), ("rl", 1.5), ("caputo", 0.5), ("caputo", 1.5)):
        for lam in (0.0, 0.25, 2.0):
            r = transform_rule_reports(x if lam != 0.25 else x2, kind, order, lam, (s,))[0]
            assert r.passed, (kind, order, lam, r.max_abs_dev)
            assert r.max_abs_dev <= 1e-7


def test_transform_rule_diff_int_rejects_a_fractional_order():
    x = preset_signal("sin10k", Grid(0.0, 2, 40))
    with pytest.raises(IntegerOrder):
        transform_rule_reports(x, "int", 1.5, 0.1, (1.1,))[0]


def test_tempering_shift_rule():
    g = Grid(0.0, 0, 900)
    x = preset_signal("geom:0.8", g)
    for lam in (0.3, -0.5, 2.0):
        r = check_tempering_shift(x, lam, 1.0 + 0.4j)
        assert r.passed and r.max_abs_dev <= 1e-9


def test_tempering_shift_long_horizon_random():
    g = Grid(0.0, 0, 2000)
    x = Signal(g, RNG.uniform(-1.0, 1.0, g.npoints))
    for s in (0.9 + 0.2j, 1.2 - 0.3j):
        r = check_tempering_shift(x, 0.1, s)
        assert r.passed and r.max_abs_dev <= 1e-9


def test_convolve_unit_impulse_is_identity():
    g = Grid(0.0, 0, 20)
    vals = np.zeros(g.npoints)
    vals[g.position(1)] = 1.0
    imp = Signal(g, vals)
    y = make_signal_from_fn(g, lambda k: math.sin(3 * k))
    np.testing.assert_array_equal(convolve(imp, y).body, y.body)


def test_convolve_counting():
    g = Grid(0.0, 0, 10)
    ones = Signal(g, np.ones(g.npoints))
    np.testing.assert_array_equal(convolve(ones, ones).body, np.arange(1.0, 11.0))


def test_convolve_commutative():
    g = Grid(0.0, 0, 32)
    x = Signal(g, RNG.standard_normal(g.npoints))
    y = Signal(g, RNG.standard_normal(g.npoints))
    np.testing.assert_allclose(convolve(x, y).body, convolve(y, x).body, atol=1e-13)


def test_convolve_grid_mismatch():
    x = Signal(Grid(0.0, 0, 8), np.ones(9))
    y = Signal(Grid(1.0, 0, 8), np.ones(9))
    with pytest.raises(GridMismatch):
        convolve(x, y)


def test_convolution_commutation_orders():
    g = Grid(0.0, 0, 48)
    x = Signal(g, RNG.standard_normal(g.npoints))
    y = Signal(g, RNG.standard_normal(g.npoints))
    r0 = check_convolution_commutation(x, y, 0.0, 0.5)
    assert r0.max_abs_dev < 1e-12  # order zero: both sides the plain convolution
    for alpha, lam in ((0.5, 2.0), (-0.5, 2.0), (0.5, -0.5), (-0.5, 0.0)):
        r = check_convolution_commutation(x, y, alpha, lam)
        assert r.passed, (alpha, lam, r.max_abs_dev)


def test_convolution_ic_zero_initial_data():
    g = Grid(0.0, 1, 24)
    vx = RNG.standard_normal(g.npoints)
    vy = RNG.standard_normal(g.npoints)
    vx[: g.position(0) + 1] = 0.0
    vy[: g.position(0) + 1] = 0.0
    x, y = Signal(g, vx), Signal(g, vy)
    r = check_convolution_with_ic(x, y, 1, 0.0)
    assert r.passed
    # with zero initial data the bracket vanishes and the exchange is the
    # plain commutation
    from nablatc.laplace import convolve as conv
    from nablatc.operators import nabla_n_tempered

    w = make_weight(g, rate=0.0)
    lhs = conv(x, nabla_n_tempered(y, 1, w)).body
    rhs = conv(nabla_n_tempered(x, 1, w), y).body
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_convolution_ic_constant_boundary_cancels():
    g = Grid(0.0, 1, 16)
    ones = Signal(g, np.ones(g.npoints))
    r = check_convolution_with_ic(ones, ones, 1, 0.0)
    assert r.max_abs_dev < 1e-13


def test_convolution_ic_fractional():
    g = Grid(0.0, 2, 32)
    x = Signal(g, RNG.standard_normal(g.npoints))
    y = Signal(g, RNG.standard_normal(g.npoints))
    for order, lam in ((0.5, 0.25), (1.5, 0.25), (0.5, 2.0), (1.5, -0.5)):
        r = check_convolution_with_ic(x, y, order, lam)
        assert r.passed, (order, lam, r.max_abs_dev)


def test_ml_mu_zero_is_one():
    F = ml_function(MLParams(0.5, 1.0, 0.0), 12)
    np.testing.assert_array_equal(F.values, np.ones(13))


def test_ml_alpha_one_is_lattice_exponential():
    for mu in (0.4, -0.6):
        F = ml_function(MLParams(1.0, 1.0, mu), 30)
        expected = (1.0 - mu) ** (-np.arange(31.0))
        np.testing.assert_allclose(F.values, expected, rtol=1e-13)


def test_ml_matches_highprec_reference():
    import mpmath as mp

    mp.mp.dps = 40
    F = ml_function(MLParams(0.9, 1.0, -0.5), 50)
    m = 50
    ref = mp.nsum(
        lambda j: mp.mpf(-0.5) ** j
        * mp.gamma(m + j * mp.mpf(0.9))
        / (mp.gamma(m) * mp.gamma(j * mp.mpf(0.9) + 1)),
        [0, mp.inf],
    )
    assert F.values[-1] == pytest.approx(float(ref), abs=1e-14)


def test_ml_beta_two_integrates_kernel():
    # second-index shift: the beta = 2 kernel is the running sum of beta = 1
    F1 = ml_function(MLParams(0.5, 1.0, 0.3), 20)
    F2 = ml_function(MLParams(0.5, 2.0, 0.3), 20)
    np.testing.assert_allclose(
        F2.values[1:], np.cumsum(F1.values[1:]), rtol=1e-12
    )


def test_ml_divergence_guard():
    with pytest.raises(SeriesDiverged):
        ml_function(MLParams(0.5, 1.0, 1.2), 40)


def test_ml_base_point_overflow_is_series_diverged():
    # mu^i past binary64 on the base point's zero terms raised a bare
    # OverflowError; they are skipped now, and the series itself diverges
    with pytest.raises(SeriesDiverged, match="lattice offset 1"):
        ml_function(MLParams(0.5, 1.0, 1e6), 5)
    # the one surviving term, i = 62, overflows itself
    with pytest.raises(SeriesDiverged, match="base point"):
        ml_function(MLParams(0.5, -30.0, 1e6), 5)


@pytest.mark.parametrize("horizon", [2.5, 3.0, True, "4"])
def test_ml_non_integer_horizon_is_one_line_error(horizon):
    with pytest.raises(SeriesDiverged, match=r"^kernel horizon must be an integer, got "):
        ml_function(MLParams(0.5, 1.0, -0.3), horizon)


def test_ml_cancellation_guard():
    # the largest term at k = 150 is ~1e38, past the compensated sum's range
    with pytest.raises(SeriesDiverged, match="lattice offset 69"):
        ml_function(MLParams(0.9, 1.0, -0.5), 150)


def test_ml_evaluates_across_relaxation_box():
    # the guard stays quiet at N = 64 over alpha in [0.3, 0.9], mu in [-0.5, 0.5]
    # (the largest term, at (0.9, -0.5), is 7.5e15)
    g = Grid(0.0, 0, 64)
    for alpha in np.linspace(0.3, 0.9, 5):
        for mu in np.linspace(-0.5, 0.5, 5):
            F = ml_function(MLParams(float(alpha), 1.0, float(mu)), 64)
            sol = fde_solve(float(alpha), float(mu), preset_weight("one", g), 1.0, 64)
            np.testing.assert_allclose(F.values, sol.values, rtol=1e-10, atol=1e-10)


def test_ml_params_validation():
    with pytest.raises(SeriesDiverged):
        MLParams(2.5, 1.0, 0.1)
    with pytest.raises(SingularStep):
        MLParams(0.5, 1.0, 1.0)


def test_fde_mu_zero_exactly_weighted_constant():
    g = Grid(0.0, 0, 30)
    w = preset_weight("case1", g)
    x = fde_solve(0.5, 0.0, w, 2.5, 30)
    expected = (w.at(0) * 2.5) / w.window(0, 30)
    np.testing.assert_array_equal(x.values, expected)


def test_fde_vs_ml_grid():
    g = Grid(0.0, 0, 50)
    w = preset_weight("case1", g)
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for mu in (-0.5, -0.2, 0.2, 0.5):
            sol = fde_solve(alpha, mu, w, 1.0, 50)
            kern = ml_function(MLParams(alpha, 1.0, mu), 50)
            lhs = w.window(0, 50) * sol.values
            rhs = kern.values * w.at(0)
            rel = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))
            assert rel <= 1e-10, (alpha, mu, rel)


def test_fde_order_near_one_close_to_first_order_recursion():
    g = Grid(0.0, 0, 20)
    sol = fde_solve(0.999, -0.5, preset_weight("one", g), 1.0, 20)
    first_order = (1.0 / 1.5) ** np.arange(21.0)
    assert np.max(np.abs(sol.values - first_order)) < 1e-3


def test_fde_rejects_bad_parameters():
    g = Grid(0.0, 0, 10)
    w = preset_weight("one", g)
    with pytest.raises(SeriesDiverged):
        fde_solve(1.5, 0.1, w, 1.0, 10)
    with pytest.raises(SingularStep):
        fde_solve(0.5, 1.0 + 1e-13, w, 1.0, 10)
    # the horizon is checked at entry, as one GridMismatch
    with pytest.raises(GridMismatch, match="grid horizon must be >= 1, got 0"):
        fde_solve(0.5, 0.1, w, 1.0, 0)
    with pytest.raises(GridMismatch, match="grid horizon must be >= 1, got -1"):
        fde_solve(0.5, 0.1, w, 1.0, -1)
    with pytest.raises(GridMismatch, match="solver horizon must be an integer, got 2.5"):
        fde_solve(0.5, 0.1, w, 1.0, 2.5)


@pytest.mark.parametrize(
    "mu, x_a", [(math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (0.1, math.nan), (0.1, math.inf)]
)
def test_fde_rejects_nonfinite_parameters(mu, x_a):
    # mu = inf used to step to x = 1, -0.0, -0.0, ... without complaint
    w = preset_weight("one", Grid(0.0, 0, 5))
    with pytest.raises(NonFiniteSample, match="finite mu and x"):
        fde_solve(0.5, mu, w, x_a, 5)


def test_fde_solution_satisfies_equation():
    # feed the trajectory back through the sum-of-difference operator
    g = Grid(0.0, 1, 40)
    w = preset_weight("case4", g)
    alpha, mu = 0.6, -0.3
    sol = fde_solve(alpha, mu, w, 1.0, 40)
    # rebuild with one history point equal to the base value continuation:
    # the stepper treats the trajectory as starting at the base point, so
    # check the defining recursion directly instead
    from nablatc.special import gl_coefficients

    c = gl_coefficients(alpha, 41).coeffs
    z = w.window(0, 40) * sol.values
    for m in range(1, 41):
        lhs = sum(c[i] * (z[m - i] - z[0]) for i in range(m))
        assert lhs == pytest.approx(mu * z[m], rel=1e-10, abs=1e-13)
