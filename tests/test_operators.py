import math
import threading
import warnings

import numpy as np
import pytest

from nablatc.operators import (
    InsufficientHistory,
    IntegerOrder,
    OperatorKind,
    OperatorSpec,
    caputo_tempered,
    gl_integer_vs_nabla_defect,
    gl_tempered,
    nabla_at,
    nabla_n,
    nabla_n_tempered,
    nabla_n_tempered_at,
    rl_tempered,
    set_fault_injection,
)
from nablatc.signals import (
    Grid,
    NonFiniteSample,
    Signal,
    make_signal_from_fn,
    make_weight,
    scale_weight,
)
from nablatc.special import rising_over_gamma

from _oracles import gl_sum_ref, rl_ref

RNG = np.random.default_rng(20240811)


def grid_and_signal(fn, a=0.0, history=2, N=12):
    g = Grid(a=a, history=history, horizon=N)
    return make_signal_from_fn(g, fn)


def ones_weight(grid):
    return make_weight(grid, rate=0.0)


# ---------------------------------------------------------------------------
# integer differences
# ---------------------------------------------------------------------------


def test_nabla_linear_signal():
    x = grid_and_signal(lambda k: k)
    np.testing.assert_allclose(nabla_n(x, 1).body, np.ones(12), rtol=0)


def test_nabla2_quadratic_signal():
    x = grid_and_signal(lambda k: k * k)
    np.testing.assert_allclose(nabla_n(x, 2).body, 2.0 * np.ones(12), rtol=1e-13)


def test_nabla_sin_first_step():
    x = grid_and_signal(lambda k: math.sin(10 * k), history=1)
    # sin(10) - sin(0), frozen two-term evaluation
    assert nabla_n(x, 1).body[0] == pytest.approx(-0.5440211108893698, rel=1e-15)


def test_nabla_requires_history():
    x = grid_and_signal(lambda k: k, history=1)
    with pytest.raises(InsufficientHistory):
        nabla_n(x, 2)


def test_integral_float_order_is_the_integer_order():
    x = grid_and_signal(lambda k: math.sin(3 * k) + k * k)
    w = make_weight(x.grid, fn=lambda k: 1.1**k)
    assert nabla_n(x, 2.0).values.tobytes() == nabla_n(x, 2).values.tobytes()
    got = nabla_n_tempered(x, 2.0, w).values.tobytes()
    assert got == nabla_n_tempered(x, 2, w).values.tobytes()
    assert nabla_n_tempered_at(x, 2.0, w, 3) == nabla_n_tempered_at(x, 2, w, 3)
    assert nabla_at(x, 2.0, 3) == nabla_at(x, 2, 3)


@pytest.mark.parametrize("order", [math.nan, math.inf, -1, 1.5])
def test_pointwise_difference_rejects_bad_order(order):
    x = grid_and_signal(lambda k: k)
    with pytest.raises(IntegerOrder):
        nabla_at(x, order, 3)
    with pytest.raises(IntegerOrder):
        nabla_n_tempered_at(x, order, ones_weight(x.grid), 3)


def test_tempered_reduces_to_plain_for_unit_weight():
    x = grid_and_signal(lambda k: math.sin(3 * k))
    w = ones_weight(x.grid)
    np.testing.assert_array_equal(nabla_n_tempered(x, 2, w).body, nabla_n(x, 2).body)


def test_tempered_constant_with_exponential_weight():
    x = grid_and_signal(lambda k: 1.0, history=1)
    w = make_weight(x.grid, rate=0.5)
    # w^-1(k)[w(k) - w(k-1)] = 1 - 2 = -1 at every point
    np.testing.assert_allclose(nabla_n_tempered(x, 1, w).body, -np.ones(12), rtol=1e-15)


# ---------------------------------------------------------------------------
# single-sum (GL) operator
# ---------------------------------------------------------------------------


def test_gl_order_zero_is_identity():
    x = grid_and_signal(lambda k: math.sin(10 * k), history=0)
    np.testing.assert_array_equal(gl_tempered(x, 0.0, ones_weight(x.grid)).body, x.body)
    w = make_weight(x.grid, fn=lambda k: math.sqrt(2) ** k)
    # general weights round once through w*x/w
    np.testing.assert_allclose(gl_tempered(x, 0.0, w).body, x.body, rtol=1e-15)


def test_gl_minus_one_is_running_sum():
    x = grid_and_signal(lambda k: 1.0, history=0, N=7)
    w = ones_weight(x.grid)
    np.testing.assert_allclose(gl_tempered(x, -1.0, w).body, np.arange(1, 8), rtol=0)


def test_gl_untempered_matches_naive_oracle():
    x = grid_and_signal(lambda k: math.sin(2 * k) + 0.3 * k, history=0, N=16)
    w = ones_weight(x.grid)
    for alpha in (0.5, -0.5, 1.3, -1.7):
        y = gl_tempered(x, alpha, w).body
        for m in (1, 2, 7, 16):
            ref = gl_sum_ref(list(x.body), alpha, m)
            assert y[m - 1] == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_gl_tempered_matches_weighted_oracle():
    x = grid_and_signal(lambda k: math.cos(k), history=0, N=12)
    w = make_weight(x.grid, fn=lambda k: math.sin(k * math.pi / 2 + math.pi / 4))
    z = list(w.body * x.body)
    y = gl_tempered(x, 0.7, w).body
    for m in (1, 5, 12):
        assert y[m - 1] == pytest.approx(gl_sum_ref(z, 0.7, m) / w.at(m), rel=1e-12)


def test_gl_divergence_for_vanishing_weight():
    # weight 0.5^(k-a) decays to zero, so the tempered output blows up,
    # with sign + for the difference and - for the sum
    g = Grid(a=0.0, history=0, horizon=100)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    w = make_weight(g, fn=lambda k: 0.5**k)
    up = gl_tempered(x, 0.5, w).body
    down = gl_tempered(x, -0.5, w).body
    assert up[-1] > 1e6
    assert down[-1] < -1e6
    # adding the small constant keeps it bounded
    wb = make_weight(g, fn=lambda k: 0.5**k + 0.01)
    assert np.max(np.abs(gl_tempered(x, 0.5, wb).body)) < 1e3
    assert np.max(np.abs(gl_tempered(x, -0.5, wb).body)) < 1e3


# ---------------------------------------------------------------------------
# difference-of-sum and sum-of-difference forms
# ---------------------------------------------------------------------------


def test_rl_equals_gl_pointwise():
    x = grid_and_signal(lambda k: math.sin(10 * k), history=1, N=40)
    for wfn in (lambda k: math.sqrt(2) ** k, lambda k: -(math.pi**k)):
        w = make_weight(x.grid, fn=wfn)
        np.testing.assert_allclose(
            rl_tempered(x, 0.5, w).body, gl_tempered(x, 0.5, w).body, atol=1e-12
        )


def test_rl_matches_high_precision_route():
    x = grid_and_signal(lambda k: math.sin(2 * k), history=2, N=10)
    w = ones_weight(x.grid)
    y = rl_tempered(x, 1.4, w).body
    z = list(x.body)
    for m in (1, 4, 10):
        assert y[m - 1] == pytest.approx(rl_ref(z, 1.4, m), rel=1e-12, abs=1e-13)


def test_rl_of_rising_half_monomial_is_one():
    # x(k) = (k-a)^(0.5)/Gamma(1.5) has order-0.5 difference identically 1
    g = Grid(a=0.0, history=1, horizon=12)
    # offsets 0..12 from the rising monomial; the offset -1 sample is 0
    # because the base of the rising function sits at a Gamma pole there
    x = Signal(g, np.array([0.0] + [rising_over_gamma(m, 0.5, 1.5) for m in range(13)]))
    w = ones_weight(g)
    np.testing.assert_allclose(rl_tempered(x, 0.5, w).body, np.ones(12), atol=1e-12)


def test_caputo_kills_constants_for_unit_weight():
    x = grid_and_signal(lambda k: 3.25, history=1, N=20)
    w = ones_weight(x.grid)
    for alpha in (0.25, 0.5, 0.9):
        np.testing.assert_allclose(
            caputo_tempered(x, alpha, w).body, np.zeros(20), atol=1e-14
        )


def test_rl_caputo_differ_by_correction():
    x = grid_and_signal(lambda k: math.sin(10 * k), history=2, N=24)
    w = make_weight(x.grid, fn=lambda k: math.sqrt(2) ** k)
    alpha, n = 1.5, 2
    rl = rl_tempered(x, alpha, w).body
    cap = caputo_tempered(x, alpha, w).body
    corr = np.zeros(24)
    for m in range(1, 25):
        acc = 0.0
        for i in range(n):
            acc += (
                rising_over_gamma(m, i - alpha, i - alpha + 1)
                * (w.at(0) / w.at(m))
                * nabla_n_tempered_at(x, i, w, 0)
            )
        corr[m - 1] = acc
    np.testing.assert_allclose(rl, cap + corr, atol=1e-12)


def test_integer_order_rejected():
    x = grid_and_signal(lambda k: k, history=2)
    w = ones_weight(x.grid)
    with pytest.raises(IntegerOrder):
        rl_tempered(x, 1.0, w)
    with pytest.raises(IntegerOrder):
        caputo_tempered(x, 2.0, w)
    with pytest.raises(IntegerOrder):
        rl_tempered(x, -0.5, w)


def test_history_precondition():
    x = grid_and_signal(lambda k: k, history=1)
    w = ones_weight(x.grid)
    with pytest.raises(InsufficientHistory):
        rl_tempered(x, 1.5, w)


# ---------------------------------------------------------------------------
# integer single-sum defect
# ---------------------------------------------------------------------------


def test_defect_zero_beyond_stencil():
    x = grid_and_signal(lambda k: math.sin(k) + k, history=2, N=10)
    w = make_weight(x.grid, fn=lambda k: 1.0 + 0.5 * math.cos(k))
    for n in (1, 2):
        d = gl_integer_vs_nabla_defect(x, n, w).body
        np.testing.assert_array_equal(d[n:], np.zeros(10 - n))


def test_defect_boundary_values():
    x = grid_and_signal(lambda k: k + 2.0, history=2, N=6)
    w = ones_weight(x.grid)
    d1 = gl_integer_vs_nabla_defect(x, 1, w).body
    # at k = a+1 the single sum misses the i=1 term, so the gap is +x(a)
    assert d1[0] == pytest.approx(x.at(0))
    ones = grid_and_signal(lambda k: 1.0, history=2, N=6)
    d2 = gl_integer_vs_nabla_defect(ones, 2, w).body
    # at k = a+1 the missing i=1,2 terms are -2 x(a) + x(a-1) = -1
    assert d2[0] == pytest.approx(1.0)
    assert d2[1] == pytest.approx(-1.0)


def test_defect_matches_missing_stencil_formula():
    x = grid_and_signal(lambda k: math.sin(3 * k), history=3, N=8)
    w = make_weight(x.grid, fn=lambda k: math.sqrt(2) ** k)
    n = 3
    d = gl_integer_vs_nabla_defect(x, n, w).body
    for m in range(1, n + 1):
        missing = -sum(
            (-1) ** i * math.comb(n, i) * (w.at(m - i) / w.at(m)) * x.at(m - i)
            for i in range(m, n + 1)
        )
        assert d[m - 1] == pytest.approx(missing, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------


def test_scale_invariance_bit_exact_for_powers_of_two():
    x = grid_and_signal(lambda k: math.sin(10 * k), history=2, N=32)
    w = make_weight(x.grid, fn=lambda k: math.sin(k * math.pi / 2 + math.pi / 4))
    w2 = scale_weight(w, 4.0)
    np.testing.assert_array_equal(
        gl_tempered(x, 0.7, w).body, gl_tempered(x, 0.7, w2).body
    )
    np.testing.assert_array_equal(
        rl_tempered(x, 1.5, w).body, rl_tempered(x, 1.5, w2).body
    )


def test_scale_invariance_general_factor():
    x = grid_and_signal(lambda k: math.cos(2 * k), history=2, N=24)
    w = make_weight(x.grid, fn=lambda k: 1.0 + 0.3 * math.sin(k))
    for lam in (3.7, -1.0, -0.001):
        ws = scale_weight(w, lam)
        for op in (
            lambda s, ww: gl_tempered(s, 0.6, ww),
            lambda s, ww: rl_tempered(s, 0.6, ww),
            lambda s, ww: caputo_tempered(s, 0.6, ww),
            lambda s, ww: nabla_n_tempered(s, 2, ww),
        ):
            base = op(x, w).body
            scaled = op(x, ws).body
            np.testing.assert_allclose(scaled, base, rtol=1e-13, atol=1e-14)


def test_linearity():
    g = Grid(a=1.5, history=2, horizon=20)
    x = Signal(g, RNG.standard_normal(g.npoints))
    y = Signal(g, RNG.standard_normal(g.npoints))
    w = make_weight(g, fn=lambda k: math.sqrt(2) ** (k - 1.5))
    a, b = 1.7, -0.4
    combo = Signal(g, a * x.values + b * y.values)
    for op in (
        lambda s: gl_tempered(s, 0.5, w),
        lambda s: rl_tempered(s, 1.5, w),
        lambda s: caputo_tempered(s, 0.5, w),
        lambda s: nabla_n_tempered(s, 2, w),
    ):
        lhs = op(combo).body
        rhs = a * op(x).body + b * op(y).body
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_operator_spec_validation():
    g = Grid(0.0, 2, 4)
    w = make_weight(g, rate=0.0)
    OperatorSpec(OperatorKind.GL, -2.0, w)
    OperatorSpec(OperatorKind.RL, 1.5, w)
    with pytest.raises(IntegerOrder):
        OperatorSpec(OperatorKind.RL, 2.0, w)
    with pytest.raises(IntegerOrder):
        OperatorSpec(OperatorKind.CAPUTO, -0.5, w)
    with pytest.raises(IntegerOrder):
        OperatorSpec(OperatorKind.INTEGER_NABLA, 1.5, w)
    assert OperatorSpec(OperatorKind.CAPUTO, 1.5, w).n == 2


def test_fault_injection_stays_in_its_thread():
    x = grid_and_signal(lambda k: math.sin(10 * k), history=0)
    w = ones_weight(x.grid)
    clean = gl_tempered(x, 0.5, w).body
    seen = []

    def worker():
        set_fault_injection(1e-3)  # set and deliberately left set
        seen.append(gl_tempered(x, 0.5, w).body)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    try:
        np.testing.assert_array_equal(seen[0], clean + 1e-3)
        assert gl_tempered(x, 0.5, w).body.tobytes() == clean.tobytes()
    finally:
        set_fault_injection(0.0)


def test_signed_binomials_are_shared_read_only():
    from nablatc.operators import _signed_binomials

    for n in range(1, 6):
        coef = _signed_binomials(n)
        assert coef.flags.writeable is False
        assert _signed_binomials(n) is coef
        with pytest.raises(ValueError):
            coef[0] = 2.0
    np.testing.assert_array_equal(_signed_binomials(3), [1.0, -3.0, 3.0, -1.0])


@pytest.mark.parametrize("tempered", [False, True])
def test_integer_difference_overflow_raises_without_warning(tempered):
    # finite samples whose difference overflows: Signal rejects the output
    g = Grid(0.0, 2, 4)
    x = Signal(g, np.array([1e308, -1e308, 1e308, -1e308, 1e308, -1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSample):
            if tempered:
                nabla_n_tempered(x, 2, make_weight(g, rate=0.0))
            else:
                nabla_n(x, 2)
