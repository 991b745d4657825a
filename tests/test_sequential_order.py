"""Byte equality of the accumulating kernels with sequential evaluation.

``gl_coefficients``, the exponential ``make_weight``, ``ml_function``,
``fde_solve``, the lagged-sum kernels ``causal_sum`` and ``causal_dot`` and
``convolve`` run their recurrences and inner sums as numpy accumulations;
the README promises results identical to the scalar loops in
``_sequential.py``.  The one-pass Gamma-ratio row and lattice sampler must
equal their per-point copies there.  Error cases must raise the same
exception with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nablatc import laplace, operators, presets
from nablatc.errors import NablaError
from nablatc.laplace import (
    _ML_BLOCK,
    MLParams,
    SeriesDiverged,
    _ml_term_block,
    convolve,
    fde_solve,
    ml_function,
)
from nablatc.operators import causal_sum
from nablatc.presets import preset_weight
from nablatc.signals import Grid, NonFiniteSample, Signal, ZeroWeight, _sample, make_weight
from nablatc.special import gl_coefficients, rising_over_gamma_row

from _sequential import (
    causal_dot_seq,
    causal_sum_seq,
    exp_weight_seq,
    fde_values_seq,
    gl_coefficients_seq,
    ml_term_block_seq,
    ml_values_seq,
    rising_over_gamma_row_seq,
    sample_seq,
)


def _outcome(thunk):
    """Output bytes of one evaluation, or the type and message it raised.

    Overflow warnings are silenced: the overflow paths end in an exception,
    which is compared.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return thunk().tobytes()
    except NablaError as exc:
        return type(exc), str(exc)


orders = st.one_of(
    st.floats(min_value=-6.0, max_value=6.0),
    st.integers(min_value=-6, max_value=6),
)


@settings(max_examples=300)
@given(orders, st.integers(min_value=-2, max_value=2000))
@example(0.5, 0)
@example(0.5, 1)
@example(2, 10)
def test_gl_coefficients_sequential(order, length):
    got = _outcome(lambda: gl_coefficients(order, length).coeffs)
    assert got == _outcome(lambda: gl_coefficients_seq(order, length).coeffs)


rates = st.floats(min_value=-3.0, max_value=3.0).filter(lambda r: r != 1.0)


@settings(max_examples=300)
@given(
    rates,
    st.integers(min_value=0, max_value=1200),
    st.integers(min_value=1, max_value=1200),
)
@example(1.0, 2, 10)
@example(-1.0, 0, 1100)  # 2^1100 overflows: NonFiniteSample
@example(-1.0, 1100, 1)  # 2^-1100 underflows: ZeroWeight
@example(0.5, 3, 5)
def test_exponential_weight_sequential(rate, history, horizon):
    grid = Grid(0.25, history, horizon)
    got = _outcome(lambda: make_weight(grid, rate=rate).values)
    assert got == _outcome(lambda: exp_weight_seq(grid, rate).values)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_exponential_weight_overflow_raises():
    grid = Grid(0.0, 0, 1100)
    with pytest.raises(NonFiniteSample):
        make_weight(grid, rate=-1.0)
    with pytest.raises(NonFiniteSample):
        exp_weight_seq(grid, -1.0)
    with pytest.raises(ZeroWeight):
        make_weight(grid, rate=0.5)


WEIGHTS = ("one", "case1", "case3", "case4", "exp:0.01", "exp:-0.02")


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(WEIGHTS),
)
@example(0.5, 0.0, -0.0, 5, "one")  # every inner term is -0.0; their sum must be +0.0
@example(0.999, 0.95, 1.0, 300, "one")  # grows past binary64: NonFiniteSample
def test_fde_solve_sequential(alpha, mu, x_a, N, weight):
    w = preset_weight(weight, Grid(0.0, 0, N))
    got = _outcome(lambda: fde_solve(alpha, mu, w, x_a, N).values)
    assert got == _outcome(lambda: fde_values_seq(alpha, mu, w, x_a, N).values)


def _alternating_causal_dot(c, z):
    # steps with an even number of terms take the fallback route
    if len(z) % 2:
        return operators.causal_dot(c, z)
    return operators._causal_dot_accumulate(c, z)


@pytest.mark.parametrize("route", ["default", "fallback", "mixed"])
@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-0.9, max_value=2.0),
    st.one_of(st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([0.0, -0.0])),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(WEIGHTS),
)
@example(0.5, 0.0, -0.0, 5, "one")  # every inner term is -0.0
@example(0.5, 0.0, 0.0, 5, "one")
@example(0.5, 1.5, 0.0, 5, "case4")  # 1 - mu < 0: z(1) is -0.0
@example(0.3, 1.5, -0.0, 40, "exp:-0.02")
@example(0.999, 0.95, 1.0, 300, "one")  # grows past binary64: NonFiniteSample
def test_fde_solve_routes_sequential(route, alpha, mu, x_a, N, weight):
    """The solver against the scalar loop with the vecdot route, with the
    multiply-and-accumulate fallback the probe selects where vecdot sums
    otherwise, and with the two routes alternating from step to step."""
    w = preset_weight(weight, Grid(0.0, 0, N))
    with pytest.MonkeyPatch.context() as mp:
        if route == "fallback":
            mp.setattr(operators, "_VECDOT_IN_ORDER", False)
        elif route == "mixed":
            mp.setattr(laplace, "causal_dot", _alternating_causal_dot)
        got = _outcome(lambda: fde_solve(alpha, mu, w, x_a, N).values)
    assert got == _outcome(lambda: fde_values_seq(alpha, mu, w, x_a, N).values)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_fde_solve_overflow_raises_on_both_routes():
    w = preset_weight("one", Grid(0.0, 0, 300))
    for in_order in (operators._VECDOT_IN_ORDER, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_VECDOT_IN_ORDER", in_order)
            with pytest.raises(NonFiniteSample, match="lattice offset"):
                fde_solve(0.999, 0.95, w, 1.0, 300)


@pytest.mark.parametrize(
    "args",
    [(1.2, 0.1, 1.0, 10), (0.5, 1.0 + 1e-13, 1.0, 10), (0.5, 0.1, 1.0, 20)],
)
def test_fde_solve_errors_match(args):
    w = preset_weight("one", Grid(0.0, 0, 10))
    alpha, mu, x_a, N = args
    got = _outcome(lambda: fde_solve(alpha, mu, w, x_a, N).values)
    assert isinstance(got, tuple)
    assert got == _outcome(lambda: fde_values_seq(alpha, mu, w, x_a, N).values)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=1.9),
    st.floats(min_value=0.5, max_value=2.5),
    st.floats(min_value=-0.9, max_value=0.9),
    st.integers(min_value=1, max_value=72),
)
@example(0.9, 1.0, -0.5, 64)
@example(0.9, 1.0, -0.5, 72)  # past the cancellation guard
@example(1.0, 1.0, -0.3, 20)
@example(0.1, 1.0, -0.9, 64)  # needs 7 term blocks
@example(0.2, 1.0, -0.9, 64)  # cancels past the guard at lattice offset 48
@example(1.0, 1.0, -0.1, 32)  # the blow-up guard trips at lattice offset 10
def test_ml_function_sequential(alpha, beta, mu, N):
    params = MLParams(alpha, beta, mu)
    ref = _outcome(lambda: ml_values_seq(params, N))
    got = _outcome(lambda: ml_function(params, N).values)
    if got != ref:
        # the only permitted difference: the range guard refuses a sum the
        # unguarded accumulation completed
        assert isinstance(ref, bytes)
        assert got[0] is SeriesDiverged and "cancels" in got[1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 256, 512]),
    st.floats(min_value=0.05, max_value=1.9),
    st.floats(min_value=0.5, max_value=2.5),
    st.floats(min_value=-0.9, max_value=0.9),
    st.integers(min_value=1, max_value=80),
)
@example(512, 0.1, 1.0, -0.9, 80)
@example(0, 1.0, 1.0, 0.0, 1)
def test_ml_term_block_matches_pinned_copy(i0, alpha, beta, mu, N):
    # the tabulated block against the frozen column-by-column construction
    got = _ml_term_block(i0, _ML_BLOCK, alpha, beta, mu, N)
    ref = ml_term_block_seq(i0, _ML_BLOCK, alpha, beta, mu, N)
    assert [a.shape for a in got] == [a.shape for a in ref]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


finite = st.floats(min_value=-1e100, max_value=1e100)
pairs = st.lists(st.tuples(finite, finite), min_size=1, max_size=96)
# 64 standard-normal pairs: a pairwise or blocked dot product rounds
# differently from the sequential loop on these
_NORMAL_PAIRS = [tuple(p) for p in np.random.default_rng(7).standard_normal((64, 2)).tolist()]


@settings(max_examples=200, deadline=None)
@given(pairs)
@example(_NORMAL_PAIRS)
def test_causal_sum_sequential(cz):
    c, z = np.array(cz).T
    assert causal_sum(c, z).tobytes() == causal_sum_seq(c, z).tobytes()


def _canonical_nan_bytes(a):
    """Bytes of ``a`` with every NaN made the same NaN.

    IEEE 754 leaves the sign and payload of a NaN result unspecified, and
    numpy's array and scalar adds pick different operands' NaN; only the
    NaN positions are part of the contract.
    """
    return np.where(np.isnan(a), np.nan, a).tobytes()


_SPECIALS = st.sampled_from([np.inf, -np.inf, np.nan, -np.nan, -0.0, 1e308, -1e308, 5e-324])
_marks = st.lists(st.tuples(st.integers(min_value=0, max_value=4096), _SPECIALS), max_size=3)
# 1e160 squared overflows; a -0.0 or 0.0 scale gives signed-zero terms
_scales = st.sampled_from([1.0, 1e-160, 1e160, 0.0, -0.0])


def _marked(values, marks):
    for pos, v in marks:
        if len(values):
            values[pos % len(values)] = v
    return values


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=1100),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    _scales,
    _scales,
    _marks,
    _marks,
)
@example(255, 0, 0, 1.0, 1.0, [], [])
@example(256, 0, 1, 1.0, 1.0, [], [])
@example(257, 5, 2, 1e160, -1e160, [], [])  # products overflow to +-inf
@example(512, 0, 3, -0.0, 1.0, [], [(7, np.inf)])
@example(513, 30, 4, 1.0, 1.0, [(1, np.nan)], [(512, -np.inf), (3, np.nan)])
@example(513, 30, 5, 1.0, 1.0, [(540, np.inf)], [])  # non-finite c past len(z)
def test_causal_sum_tiles_sequential(n, extra, seed, c_scale, z_scale, c_marks, z_marks):
    """Both kernels (one einsum per tile, and the per-lag loop taken on a
    numpy whose einsum fuses multiply-add) against the scalar loop, across
    tile edges, with ``c`` longer than ``z`` and non-finite, signed-zero and
    overflowing terms."""
    rng = np.random.default_rng(seed)
    c = _marked(rng.standard_normal(n + extra) * c_scale, c_marks)
    z = _marked(rng.standard_normal(n) * z_scale, z_marks)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _canonical_nan_bytes(causal_sum_seq(c, z))
        for fuses in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(operators, "_EINSUM_FUSES", fuses)
                assert _canonical_nan_bytes(causal_sum(c, z)) == expected


@pytest.mark.parametrize("n", [2, 37, 301])
def test_einsum_probe(n):
    fuses = operators._einsum_fuses()
    assert isinstance(fuses, bool)
    assert fuses == operators._EINSUM_FUSES
    a = 1.0 + 2.0**-30
    two_roundings = -1.0 + a * a  # a fused multiply-add gives 2^-29 + 2^-60
    assert two_roundings == 2.0**-29
    c = np.zeros(n)
    c[:2] = 1.0, a
    odd = operators._causal_sum_tiled(c, np.tile([a, -1.0], n)[:n])[1::2]
    if not fuses:
        assert (odd == two_roundings).all()


def test_vecdot_probe():
    in_order = operators._vecdot_in_order()
    assert isinstance(in_order, bool)
    assert in_order == operators._VECDOT_IN_ORDER
    if in_order:
        # [2^53, 1, ..., 1, -2^53] in ascending lag: each 2^53 + 1 rounds
        # back to 2^53 only when the ones are added one at a time
        n = operators._ORDER_PROBE_TERMS
        z = np.ones(n)
        z[-1], z[0] = 2.0**53, -(2.0**53)
        assert operators.causal_dot(np.ones(n), z) == 0.0
        a = 1.0 + 2.0**-30
        got = operators.causal_dot(np.array([1.0, a]), np.array([a, -1.0]))
        assert got == 2.0**-29  # a fused multiply-add gives 2^-29 + 2^-60


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    _scales,
    _scales,
    _marks,
    _marks,
)
@example(0, 0, 0, 1.0, 1.0, [], [])
@example(1, 0, 1, -0.0, 1.0, [], [])
@example(300, 5, 2, 1e160, -1e160, [], [])  # products overflow to +-inf
@example(513, 30, 4, 1.0, 1.0, [(1, np.nan)], [(512, -np.inf), (3, np.nan)])
def test_causal_dot_sequential(n, extra, seed, c_scale, z_scale, c_marks, z_marks):
    """Both routes of the one-output causal sum against the scalar loop,
    with ``c`` longer than ``z`` and non-finite, signed-zero and
    overflowing terms."""
    rng = np.random.default_rng(seed)
    c = _marked(rng.standard_normal(n + extra) * c_scale, c_marks)
    z = _marked(rng.standard_normal(n) * z_scale, z_marks)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _canonical_nan_bytes(np.array([causal_dot_seq(c, z)]))
        for in_order in (operators._VECDOT_IN_ORDER, False):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(operators, "_VECDOT_IN_ORDER", in_order)
                got = operators.causal_dot(c, z)
            assert _canonical_nan_bytes(np.array([got])) == expected


@settings(max_examples=200, deadline=None)
@given(pairs, st.floats(min_value=-5.0, max_value=5.0))
@example(_NORMAL_PAIRS, 0.0)
def test_convolve_sequential(xy, a):
    xb, yb = np.array(xy).T
    g = Grid(a, 0, len(xb))
    x = Signal(g, np.concatenate([[1.0], xb]))
    y = Signal(g, np.concatenate([[-1.0], yb]))
    expected = np.concatenate([[0.0], causal_sum_seq(xb, yb)])
    assert convolve(x, y).values.tobytes() == expected.tobytes()


gamma_args = st.one_of(
    st.floats(min_value=-6.0, max_value=6.0),
    st.integers(min_value=-6, max_value=6),
)


@settings(max_examples=300, deadline=None)
@given(gamma_args, gamma_args, st.integers(min_value=1, max_value=300))
@example(0.5, 1.5, 300)
@example(-3, 0.5, 10)  # integer q: m + q is a pole for m <= 3
@example(-3.0, -2.0, 10)  # poles in the numerator and at d
@example(0.5, -2.0, 10)  # d at a pole, numerator regular
@example(-5.5, 0.25, 12)  # m + q negative and non-integer: alternating sign
@example(-5.5, -1.5, 12)  # both signs negative
@example(2.0, 3.0, 1)
def test_rising_over_gamma_row_matches_per_point(q, d, N):
    got = _outcome(lambda: rising_over_gamma_row(q, d, N))
    assert got == _outcome(lambda: rising_over_gamma_row_seq(q, d, N))


def _preset_functions(grid):
    """Every preset's sampled function on ``grid``: the weight functions,
    and the signal lambdas captured as the presets hand them over."""
    fns = {name: presets.weight_case_fn(name, grid.a)
           for name in ("one", "case1", "case2", "case4", "halfgeom", "halfgeom+eps")}
    with pytest.MonkeyPatch.context() as mp:
        for spec in ("sin10k", "poly:1,-0.5,0.25", "poly:0,0,0,1e-3", "geom:1.03", "geom:0.5"):
            mp.setattr(presets, "make_signal_from_fn",
                       lambda g, f, spec=spec: fns.setdefault(spec, f))
            presets.preset_signal(spec, grid)
    return fns


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=1000),
)
@example(0.0, 0, 900)  # case2 overflows from offset 621: inf samples
@example(0.25, 3, 700)
def test_sample_matches_per_point(a, history, horizon):
    grid = Grid(a, history, horizon)
    for name, f in _preset_functions(grid).items():
        assert _sample(grid, f).tobytes() == sample_seq(grid, f).tobytes(), name


def test_sample_passes_numpy_points_and_overflows_to_inf():
    # a Python float point would make this power raise OverflowError
    grid = Grid(0.0, 0, 900)
    seen = set()

    def f(k):
        seen.add(type(k))
        return math.pi ** (k - grid.a)

    vals = _sample(grid, f)
    assert seen == {np.float64}
    assert np.isinf(vals[621:]).all() and np.isfinite(vals[:621]).all()
    assert vals.tobytes() == sample_seq(grid, f).tobytes()
