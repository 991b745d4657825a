import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablatc.identities import (
    DIFFERENCE_OF_SUM,
    GL_RL_AGREE,
    INTEGER_DEFECT,
    MIXED_COMPOSITION,
    RL_CAPUTO_CORRECTION,
    SUM_COMPOSITION,
    SUM_OF_DIFFERENCE,
    TAYLOR_REMAINDER,
    TOL_EXACT,
    check_leibniz,
    check_rl_caputo_asymptotics,
    check_uniform_convergence_exchange,
    run_rows,
)
from nablatc.laplace import (
    check_convolution_commutation,
    check_convolution_with_ic,
    check_transform_rule_gl,
    transform_rule_reports,
)
from nablatc.operators import (
    MAX_INTEGER_STAGE,
    InsufficientHistory,
    IntegerOrder,
    OperatorKind,
    OperatorSpec,
    caputo_tempered,
    gl_tempered,
    initial_value_terms,
    nabla_at,
    nabla_n,
    nabla_n_tempered,
    nabla_n_tempered_at,
    rl_tempered,
    set_fault_injection,
)
from nablatc.presets import preset_signal, preset_weight
from nablatc.signals import (
    Grid,
    GridMismatch,
    NonFiniteSample,
    Signal,
    Weight,
    make_signal_from_fn,
    make_weight,
    scale_weight,
)
from nablatc.special import rising_over_gamma
from nablatc.taylor import (
    reconstruct_from_current,
    taylor_initial,
    taylor_series_initial,
    tempered_op_taylor_current,
    tempered_op_taylor_future,
    tempered_op_taylor_initial,
)

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


_SIN10K_1030 = preset_signal("sin10k", Grid(0.0, 1030, 3))

#: pointwise forms whose order-1029 differences of sin10k (or their sum)
#: leave binary64
_POINTWISE_OVERFLOW = {
    "nabla_n_tempered_at": lambda x, w: nabla_n_tempered_at(x, 1029, w, 0),
    "nabla_at": lambda x, w: nabla_at(x, 1029, 0),
    "taylor_initial": lambda x, w: taylor_initial(x, 1029),
    "reconstruct_from_current": lambda x, w: reconstruct_from_current(x, 3, -1026),
    # finite differences to order 703, whose binomial sum overflows
    "reconstruct_from_current/sum": lambda x, w: reconstruct_from_current(x, 3, -700),
    "initial_value_terms": lambda x, w: list(initial_value_terms(x, w, [1029], lambda i: np.ones(3))),
    "taylor_series_initial": lambda x, w: taylor_series_initial(
        x, OperatorSpec(OperatorKind.GL, 0.5, w), 1029
    ),
    "nabla_n": lambda x, w: nabla_n(x, 1029),
}


@pytest.mark.parametrize("entry", list(_POINTWISE_OVERFLOW))
def test_pointwise_difference_past_binary64_raises_nonfinite(entry):
    """A difference that overflows raises NonFiniteSample, as the window
    form nabla_n does, and no numpy warning (an error here) escapes."""
    x = _SIN10K_1030
    with pytest.raises(NonFiniteSample):
        _POINTWISE_OVERFLOW[entry](x, ones_weight(x.grid))


def test_initial_value_terms_past_binary64_raise_nonfinite():
    # w(a)/w(1) = 1e300/1e-300 overflows the base ratio
    g = Grid(0.0, 0, 3)
    w = Weight(g, np.array([1e300, 1e-300, 1.0, 1.0]))
    with pytest.raises(NonFiniteSample, match="lattice offset 1"):
        list(initial_value_terms(Signal(g, np.ones(4)), w, [0], lambda i: np.ones(3)))


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


def _defect(x, n, w):
    """The integer-order single sum minus the tempered difference."""
    return gl_tempered(x, float(n), w).body - nabla_n_tempered(x, n, w).body


def test_defect_zero_beyond_stencil():
    x = grid_and_signal(lambda k: math.sin(k) + k, history=2, N=10)
    w = make_weight(x.grid, fn=lambda k: 1.0 + 0.5 * math.cos(k))
    for n in (1, 2):
        d = _defect(x, n, w)
        np.testing.assert_array_equal(d[n:], np.zeros(10 - n))


def test_defect_boundary_values():
    x = grid_and_signal(lambda k: k + 2.0, history=2, N=6)
    w = ones_weight(x.grid)
    d1 = _defect(x, 1, w)
    # at k = a+1 the single sum misses the i=1 term, so the gap is +x(a)
    assert d1[0] == pytest.approx(x.at(0))
    ones = grid_and_signal(lambda k: 1.0, history=2, N=6)
    d2 = _defect(ones, 2, w)
    # at k = a+1 the missing i=1,2 terms are -2 x(a) + x(a-1) = -1
    assert d2[0] == pytest.approx(1.0)
    assert d2[1] == pytest.approx(-1.0)


def test_defect_matches_missing_stencil_formula():
    x = grid_and_signal(lambda k: math.sin(3 * k), history=3, N=8)
    w = make_weight(x.grid, fn=lambda k: math.sqrt(2) ** k)
    n = 3
    d = _defect(x, n, w)
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


# ---------------------------------------------------------------------------
# RL and Caputo against the composition of the public stages
# ---------------------------------------------------------------------------


def rl_composed(x, alpha, w):
    n = math.ceil(alpha)
    u = gl_tempered(x, alpha - n, w)
    # the inner sum is empty, so zero, at and below the base point
    u = Signal(Grid(x.grid.a, n, x.grid.horizon), np.concatenate([np.zeros(n + 1), u.body]))
    return nabla_n_tempered(u, n, w)


def caputo_composed(x, alpha, w):
    n = math.ceil(alpha)
    return gl_tempered(nabla_n_tempered(x, n, w), alpha - n, w)


FRACTIONAL_ORDERS = st.floats(min_value=0.01, max_value=3.99).filter(
    lambda al: al != math.floor(al)
)


def _stage_weight(grid, kind, seed):
    if kind.startswith("case") or kind == "one":
        return preset_weight(kind, grid)
    rng = np.random.default_rng(seed)
    if kind == "rate":
        # bases 1 - rate in (0.5, 2] and [-1.5, -0.5): no underflow by N = 80
        lo, hi = (-1.0, 0.5) if seed % 2 else (1.5, 2.5)
        return make_weight(grid, rate=float(rng.uniform(lo, hi)))
    signs = rng.choice([-1.0, 1.0], grid.npoints)
    return Weight(grid, signs * 10.0 ** rng.uniform(-3.0, 3.0, grid.npoints))


@settings(max_examples=150, deadline=None)
@given(
    FRACTIONAL_ORDERS,
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["one", "case1", "case2", "case3", "case4", "rate", "values"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.0, 1e-6]),
)
def test_rl_caputo_equal_their_stage_composition(alpha, N, extra, wkind, seed, fault):
    n = math.ceil(alpha)
    grid = Grid(float(seed % 7) - 3.5, history=n + extra, horizon=N)
    rng = np.random.default_rng(seed)
    x = Signal(grid, rng.standard_normal(grid.npoints))
    w = _stage_weight(grid, wkind, seed)
    previous = set_fault_injection(fault)
    try:
        for fused, composed in ((rl_tempered, rl_composed), (caputo_tempered, caputo_composed)):
            got = fused(x, alpha, w)
            expected = composed(x, alpha, w)
            assert got.grid == expected.grid
            assert got.values.tobytes() == expected.values.tobytes()
    finally:
        set_fault_injection(previous)


def _spikes(values):
    """A signal of k that is ``values[k]`` at the listed points, else 0."""
    return lambda k: values.get(round(k), 0.0)


OVERFLOWS = [
    # the intermediate overflows: a long sum of a huge constant, the
    # difference of a huge alternating signal
    ("rl", 0.05, lambda k: 1.7e308, "one", 8),
    ("caputo", 0.5, lambda k: 1e308 * (-1.0) ** round(k), "one", 8),
    # both stages overflow, the second one at an earlier offset: the error
    # names the intermediate's offset, as the composition does
    ("rl", 0.5, _spikes({1: 1.5e308, 2: -1.5e308, 4: 1.7e308, 5: 1.7e308}), "one", 8),
    ("caputo", 0.05, _spikes({0: -0.5e308, 1: 0.5e308, 2: 1.5e308, 3: -1.5e308}), "one", 8),
    # finite intermediates whose next stage overflows: the difference of a
    # large alternating sum, the long sum of a large constant difference
    ("rl", 0.5, lambda k: 1.5e308 * (-1.0) ** round(k), "one", 12),
    ("caputo", 0.05, lambda k: 1e307 * (k - 16.5), "one", 33),
    # past the horizon the weight case2 admits for these orders
    *[
        (kind, al, lambda k: math.sin(10 * k), "case2", 620)
        for kind in ("rl", "caputo")
        for al in (0.5, 1.5, 2.5)
    ],
]


@pytest.mark.parametrize("kind, alpha, x_fn, wname, N", OVERFLOWS)
def test_rl_caputo_overflow_errors_match_their_composition(kind, alpha, x_fn, wname, N):
    fused, composed = {
        "rl": (rl_tempered, rl_composed),
        "caputo": (caputo_tempered, caputo_composed),
    }[kind]
    grid = Grid(0.0, history=math.ceil(alpha), horizon=N)
    x = make_signal_from_fn(grid, x_fn)
    w = preset_weight(wname, grid)
    with pytest.raises(NonFiniteSample) as want:
        composed(x, alpha, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSample) as got:
            fused(x, alpha, w)
    assert str(got.value) == str(want.value)


def test_operator_outputs_are_read_only():
    x = grid_and_signal(lambda k: math.sin(10 * k), history=2)
    w = make_weight(x.grid, rate=-0.1)
    outputs = [
        gl_tempered(x, 0.5, w),
        rl_tempered(x, 1.5, w),
        caputo_tempered(x, 1.5, w),
        nabla_n_tempered(x, 2, w),
        nabla_n(x, 1),
    ]
    for out in outputs:
        assert out.values.flags.writeable is False
        with pytest.raises(ValueError):
            out.values[0] = 1.0


# ---------------------------------------------------------------------------
# the error each entry point raises for one bad input
# ---------------------------------------------------------------------------

_CAP = MAX_INTEGER_STAGE
_N = 4


def _zero_spec_form(form, order=1.5):
    return lambda x, w, p: form(x, OperatorSpec(OperatorKind.CAPUTO, order, w), p)


def one_row(check, x, w, *args):
    return run_rows(check, [(x, w, *args)], TOL_EXACT)[0]


#: entry point -> (call(x, w, p), a good p, p past the integer-stage cap,
#: the signal history and the weight history it needs, {bad input: error})
_ENTRY_POINTS = {
    "gl_tempered": (
        lambda x, w, p: gl_tempered(x, p, w), 0.5, None, 0, 0,
        {"nan": IntegerOrder, "weight-base": GridMismatch, "weight-horizon": GridMismatch},
    ),
    "rl_tempered": (
        lambda x, w, p: rl_tempered(x, p, w), 1.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    "caputo_tempered": (
        lambda x, w, p: caputo_tempered(x, p, w), 1.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    "nabla_n": (
        lambda x, w, p: nabla_n(x, p), 2, _CAP + 1, 2, None,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "history": InsufficientHistory},
    ),
    "nabla_n_tempered": (
        lambda x, w, p: nabla_n_tempered(x, p, w), 2, _CAP + 1, 2, 1,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "history": InsufficientHistory,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
    "nabla_at": (
        lambda x, w, p: nabla_at(x, p, 0), 2, _CAP + 1, 2, None,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "history": InsufficientHistory},
    ),
    "nabla_n_tempered_at": (
        lambda x, w, p: nabla_n_tempered_at(x, p, w, 0), 2, _CAP + 1, 2, 2,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "history": InsufficientHistory,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
    "initial_value_terms": (
        lambda x, w, p: list(initial_value_terms(x, w, [0, 1, p], lambda i: np.ones(_N))),
        2, _CAP + 1, 2, 2,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "history": InsufficientHistory,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
    # the eight core RowCheck constants, each on one row
    "check_gl_rl_agreement": (
        lambda x, w, p: one_row(GL_RL_AGREE, x, w, p), 1.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    "check_rl_caputo_correction": (
        lambda x, w, p: one_row(RL_CAPUTO_CORRECTION, x, w, p), 1.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    # the sum composition admits integer orders, and reads no signal history
    "check_sum_composition": (
        lambda x, w, p: one_row(SUM_COMPOSITION, x, w, p), 1.5, _CAP + 0.5, 0, 1,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    "check_difference_of_sum": (
        lambda x, w, p: one_row(DIFFERENCE_OF_SUM, x, w, p), 1.5, _CAP + 0.5, 0, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
    "check_sum_of_difference": (
        lambda x, w, p: one_row(SUM_OF_DIFFERENCE, x, w, p, "caputo"), 1.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    "check_mixed_composition": (
        lambda x, w, p: one_row(MIXED_COMPOSITION, x, w, p, 2 if p < 2 else _CAP + 2, "rl"),
        0.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": ValueError, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    "check_taylor_remainder_forms": (
        lambda x, w, p: one_row(TAYLOR_REMAINDER, x, w, p, 0), 1.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    "check_integer_defect": (
        lambda x, w, p: one_row(INTEGER_DEFECT, x, w, p), 2, _CAP + 1, 2, 1,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "history": InsufficientHistory,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
    # the product rule reads the weight as deep as its operator does
    "check_leibniz": (
        lambda x, w, p: check_leibniz(x, x, OperatorSpec(OperatorKind.CAPUTO, p, w)),
        1.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    "check_rl_caputo_asymptotics": (
        lambda x, w, p: check_rl_caputo_asymptotics(x, p, w), 1.5, _CAP + 0.5, 2, 1,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory, "weight-base": GridMismatch,
         "weight-horizon": GridMismatch, "weight-history": InsufficientHistory},
    ),
    # these three build their weight on the signal's grid; the exchange
    # identity admits integer orders
    "check_transform_rule_diff": (
        lambda x, w, p: transform_rule_reports(x, "caputo", p, 0.0, (0.5,))[0],
        1.5, _CAP + 0.5, 2, None,
        {"nan": IntegerOrder, "integer": IntegerOrder, "over-cap": IntegerOrder,
         "history": InsufficientHistory},
    ),
    "check_transform_rule_diff/int": (
        lambda x, w, p: transform_rule_reports(x, "int", p, 0.0, (0.5,))[0],
        2, _CAP + 1, 2, None,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "history": InsufficientHistory},
    ),
    "check_convolution_with_ic": (
        lambda x, w, p: check_convolution_with_ic(x, x, p, 0.0), 1.5, _CAP + 0.5, 2, None,
        {"nan": IntegerOrder, "over-cap": IntegerOrder, "history": InsufficientHistory},
    ),
    # single-sum checkers: any finite order, no history below the base
    "check_uniform_convergence_exchange": (
        lambda x, w, p: check_uniform_convergence_exchange([x], x, p, w), 0.5, None, 0, 0,
        {"nan": IntegerOrder, "weight-base": GridMismatch, "weight-horizon": GridMismatch},
    ),
    "check_convolution_commutation": (
        lambda x, w, p: check_convolution_commutation(x, x, p, 0.0), 0.5, None, 0, None,
        {"nan": IntegerOrder},
    ),
    "check_transform_rule_gl": (
        lambda x, w, p: check_transform_rule_gl(x, p, 0.0, 0.5), 0.5, None, 0, None,
        {"nan": IntegerOrder},
    ),
    # the forms below take p as their degree, except the evaluation-point
    # form, which has none and takes it as the order of its spec
    "taylor_initial": (
        lambda x, w, p: taylor_initial(x, p), 3, _CAP + 1, 4, None,
        {"over-cap": IntegerOrder, "history": InsufficientHistory},
    ),
    "tempered_op_taylor_initial": (
        _zero_spec_form(tempered_op_taylor_initial), 3, _CAP, 4, 3,
        {"over-cap": IntegerOrder, "history": InsufficientHistory,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
    "tempered_op_taylor_current": (
        lambda x, w, p: tempered_op_taylor_current(
            x, OperatorSpec(OperatorKind.CAPUTO, p, w)
        ),
        1.5, None, 2, 2,
        {"nan": IntegerOrder, "integer": IntegerOrder, "history": InsufficientHistory,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
    # its residual's (K+1)-th difference reads the weight down to offset -K
    "tempered_op_taylor_future": (
        _zero_spec_form(tempered_op_taylor_future), 3, _CAP, 4, 3,
        {"over-cap": IntegerOrder, "history": InsufficientHistory,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
    "taylor_series_initial": (
        _zero_spec_form(taylor_series_initial), 3, _CAP + 1, 4, 3,
        {"over-cap": IntegerOrder, "history": InsufficientHistory,
         "weight-base": GridMismatch, "weight-horizon": GridMismatch,
         "weight-history": InsufficientHistory},
    ),
}


def _bad_input(p, over, hx, hw, bad):
    """``(p, signal history, weight grid)`` of an input that differs from a
    good one in ``bad`` alone; the weight's default history is the longer
    of the two needs."""
    hw_good = hx if hw is None else max(hx, hw)
    if bad == "nan":
        p = math.nan
    elif bad == "integer":
        p = 2.0
    elif bad == "over-cap":
        p, hx, hw_good = over, max(hx, _CAP + 2), max(hw_good, _CAP + 2)
    elif bad == "history":
        hx -= 1
    wgrid = Grid(0.0, hw_good, _N)
    if bad == "weight-base":
        wgrid = Grid(1.0, hw_good, _N)
    elif bad == "weight-horizon":
        wgrid = Grid(0.0, hw_good, _N - 1)
    elif bad == "weight-history":
        wgrid = Grid(0.0, hw - 1, _N)
    return p, hx, wgrid


@pytest.mark.parametrize(
    "entry, bad",
    [(e, None) for e in _ENTRY_POINTS]
    + [(e, bad) for e, spec in _ENTRY_POINTS.items() for bad in spec[-1]],
)
def test_first_failing_check_error_class(entry, bad):
    """Each entry point raises one error class for each single bad input:
    the class of the first check that input fails (messages may differ).
    A zero signal keeps every value finite, so no numeric error hides a
    missing check."""
    call, good, over, hx, hw, errors = _ENTRY_POINTS[entry]
    p, h, wgrid = _bad_input(good, over, hx, hw, bad)
    x = Signal(Grid(0.0, h, _N), np.zeros(h + 1 + _N))
    w = make_weight(wgrid, rate=0.0)
    if bad is None:
        call(x, w, p)
        return
    with pytest.raises(errors[bad]) as got:
        call(x, w, p)
    assert type(got.value) is errors[bad]
