"""Byte equality of the row passes with the per-term loops they replace.

The Taylor sweep, the evaluation-point roundtrip and form, the
future-instant residual (its sums exchanged), the product-rule right-hand
side, the suite's instance signals, the integer difference stencil, the
base-point reconstruction and the initial-value series each add the same
terms, in the same order, with the same roundings as the loops frozen in
``_sequential.py``; so do the vector-order ``gl_coefficients`` and the 2-D
``causal_sum`` against their 1-D calls.
Every comparison is on bytes, but one: the future-instant residual against
its double sum as written, which it meets within a rounding bound.  The
suite's own shapes are covered first, then drawn ones.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nablatc import operators, suite
from nablatc.errors import NablaError
from nablatc.identities import _leibniz_rhs, check_leibniz
from nablatc.operators import (
    OperatorKind,
    OperatorSpec,
    causal_sum,
    initial_value_terms,
    nabla_at,
    nabla_n,
    nabla_n_tempered,
    nabla_n_tempered_at,
)
from nablatc.presets import preset_signal, preset_weight
from nablatc.signals import Grid, Signal
from nablatc.special import (
    DomainError,
    gl_coefficients,
    rising_over_factorial_row,
    rising_over_gamma_row,
)
from nablatc.taylor import (
    reconstruct_from_current,
    reconstruct_initial,
    taylor_initial,
    taylor_series_initial,
    tempered_op_taylor_current,
    tempered_op_taylor_future,
)

from _sequential import (
    causal_sum_seq,
    core_instance_seq,
    initial_value_series_seq,
    instance_signal_seq,
    leibniz_rhs_seq,
    nabla_at_seq,
    nabla_n_tempered_at_seq,
    nabla_n_tempered_seq,
    reconstruct_from_current_seq,
    reconstruct_initial_seq,
    rising_over_factorial_row_seq,
    taylor_current_seq,
    taylor_future_exchanged_seq,
    taylor_future_seq,
    taylor_sweep_seq,
    tempered_diff_at_seq,
)


def _outcome(thunk):
    """Bytes of one evaluation, or the type and message it raised."""
    try:
        out = thunk()
    except NablaError as exc:
        return type(exc), str(exc)
    return np.asarray(out, dtype=np.float64).tobytes()


def _signal(grid, name, seed):
    if name == "random":
        return Signal(grid, np.random.default_rng(seed).standard_normal(grid.npoints))
    return preset_signal(name, grid)


SIGNALS = ("sin10k", "poly:1,3,2", "geom:0.8", "geom:1.5", "random")
WEIGHTS = ("one", "exp:-1", "case1", "case3", "case4")

# ---------------------------------------------------------------------------
# truncated series sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sname", ["geom:2", "geom:0.8", "poly:1,2,1"])
@pytest.mark.parametrize("kind", [OperatorKind.GL, OperatorKind.CAPUTO])
def test_sweep_suite_shapes(sname, kind):
    grid = Grid(0.0, history=14, horizon=8)
    spec = OperatorSpec(kind, 0.5, preset_weight("one", grid))
    x = preset_signal(sname, grid)
    sweep = taylor_series_initial(x, spec, 12)
    assert sweep.degrees == tuple(range(spec.n + 1 if kind is OperatorKind.CAPUTO else 1, 13))
    assert np.array(sweep.deviations).tobytes() == np.array(taylor_sweep_seq(x, spec, 12)).tobytes()


KIND_ORDERS = st.sampled_from(
    [
        (OperatorKind.GL, 0.5),
        (OperatorKind.GL, -0.7),
        (OperatorKind.GL, 2.0),
        (OperatorKind.RL, 0.5),
        (OperatorKind.RL, 1.5),
        (OperatorKind.CAPUTO, 0.3),
        (OperatorKind.CAPUTO, 1.5),
        (OperatorKind.INTEGER_NABLA, 1.0),
        (OperatorKind.INTEGER_NABLA, 2.0),
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    KIND_ORDERS,
    st.sampled_from(SIGNALS),
    st.sampled_from(WEIGHTS),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=0, max_value=99),
)
def test_sweep_sequential(kind_order, sname, wname, N, K_max, seed):
    kind, order = kind_order
    grid = Grid(0.25, history=K_max + 1, horizon=N)
    spec = OperatorSpec(kind, order, preset_weight(wname, grid))
    x = _signal(grid, sname, seed)
    got = _outcome(lambda: taylor_series_initial(x, spec, K_max).deviations)
    assert got == _outcome(lambda: taylor_sweep_seq(x, spec, K_max))


# ---------------------------------------------------------------------------
# evaluation-point roundtrip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sname", ["poly:2,3,1", "geom:2", "geom:1.5", "random"])
def test_roundtrip_suite_shapes(sname):
    # every pair the suite checks, down to jo = -history
    grid = Grid(0.0, history=2, horizon=16)
    s = _signal(grid, sname, 7)
    for ko in range(1, 17):
        for jo in range(-2, ko + 1):
            got = reconstruct_from_current(s, ko, jo)
            assert np.float64(got).tobytes() == np.float64(
                reconstruct_from_current_seq(s, ko, jo)
            ).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(SIGNALS),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.data(),
)
@example("random", 0, 1, None)
def test_roundtrip_sequential(sname, history, N, data):
    grid = Grid(-1.5, history=history, horizon=N)
    s = _signal(grid, sname, N)
    if data is None:
        pairs = [(0, -history), (1, -history), (N, N), (N, -history), (0, 1), (-history, -history)]
    else:
        ko = data.draw(st.integers(min_value=-history, max_value=N))
        jo = data.draw(st.integers(min_value=-history - 2, max_value=N + 1))
        pairs = [(ko, jo)]
    for ko, jo in pairs:
        got = _outcome(lambda: reconstruct_from_current(s, ko, jo))
        assert got == _outcome(lambda: reconstruct_from_current_seq(s, ko, jo))


# ---------------------------------------------------------------------------
# evaluation-point form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sname, wname", [("sin10k", "case3"), ("random", "exp:-1"), ("poly:1,3,2", "one")]
)
@pytest.mark.parametrize(
    "kind, order",
    [
        (OperatorKind.GL, 0.5),
        (OperatorKind.GL, -0.5),
        (OperatorKind.RL, 1.5),
        (OperatorKind.CAPUTO, 0.5),
    ],
)
def test_current_suite_shapes(sname, wname, kind, order):
    grid = Grid(0.0, history=2, horizon=24)
    spec = OperatorSpec(kind, order, preset_weight(wname, grid))
    x = _signal(grid, sname, 3)
    got = tempered_op_taylor_current(x, spec).body
    assert got.tobytes() == taylor_current_seq(x, spec).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [
            (OperatorKind.GL, 0.5),
            (OperatorKind.GL, -1.5),
            (OperatorKind.GL, 1.0),
            (OperatorKind.GL, 3.0),
            (OperatorKind.RL, 0.3),
            (OperatorKind.CAPUTO, 0.5),
            (OperatorKind.CAPUTO, 1.5),
            (OperatorKind.CAPUTO, 2.5),
        ]
    ),
    st.sampled_from(SIGNALS),
    st.sampled_from(WEIGHTS),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=99),
)
def test_current_sequential(kind_order, sname, wname, N, history, seed):
    kind, order = kind_order
    grid = Grid(0.5, history=history, horizon=N)
    spec = OperatorSpec(kind, order, preset_weight(wname, grid))
    x = _signal(grid, sname, seed)
    got = _outcome(lambda: tempered_op_taylor_current(x, spec).body)
    assert got == _outcome(lambda: taylor_current_seq(x, spec))


# ---------------------------------------------------------------------------
# future-instant residual
# ---------------------------------------------------------------------------


FUTURE_CASES = [
    (OperatorKind.GL, 0.5, 4),
    (OperatorKind.GL, -0.5, 2),
    (OperatorKind.RL, 0.5, 4),
    (OperatorKind.CAPUTO, 1.5, 3),
]


@pytest.mark.parametrize("wname", ["one", "exp:-1", "case3", "case4"])
@pytest.mark.parametrize("kind, order, K", FUTURE_CASES)
def test_future_suite_shapes(wname, kind, order, K):
    grid = Grid(0.0, history=6, horizon=12)
    spec = OperatorSpec(kind, order, preset_weight(wname, grid))
    x = preset_signal("sin10k", grid)
    got = tempered_op_taylor_future(x, spec, K).body
    assert got.tobytes() == taylor_future_exchanged_seq(x, spec, K).tobytes()


def test_future_residual_same_on_either_causal_dot_route(monkeypatch):
    """The residual's per-point sums through the add.accumulate fallback
    that the vecdot probe selects on builds where vecdot sums out of order."""
    grid = Grid(0.0, history=5, horizon=60)
    spec = OperatorSpec(OperatorKind.RL, 0.5, preset_weight("case4", grid))
    x = preset_signal("sin10k", grid)
    want = taylor_future_exchanged_seq(x, spec, 4).tobytes()
    assert tempered_op_taylor_future(x, spec, 4).body.tobytes() == want
    monkeypatch.setattr(operators, "_VECDOT_IN_ORDER", False)
    assert tempered_op_taylor_future(x, spec, 4).body.tobytes() == want


FUTURE_KINDS = st.sampled_from(
    [
        (OperatorKind.GL, 0.5),
        (OperatorKind.GL, -1.5),
        (OperatorKind.GL, 1.0),
        (OperatorKind.RL, 0.3),
        (OperatorKind.RL, 1.7),
        (OperatorKind.CAPUTO, 0.5),
        (OperatorKind.CAPUTO, 1.5),
        (OperatorKind.CAPUTO, 2.5),
    ]
)


def _future_case(kind, order, sname, wname, N, K, seed):
    if kind is OperatorKind.CAPUTO:
        K = max(K, math.ceil(order))
    grid = Grid(0.5, history=K + 1, horizon=N)
    spec = OperatorSpec(kind, order, preset_weight(wname, grid))
    return _signal(grid, sname, seed), spec, K


@settings(max_examples=60, deadline=None)
@given(
    FUTURE_KINDS,
    st.sampled_from(SIGNALS),
    st.sampled_from(WEIGHTS),
    st.integers(min_value=1, max_value=18),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=99),
)
def test_future_sequential(kind_order, sname, wname, N, K, seed):
    x, spec, K = _future_case(*kind_order, sname, wname, N, K, seed)
    got = _outcome(lambda: tempered_op_taylor_future(x, spec, K).body)
    assert got == _outcome(lambda: taylor_future_exchanged_seq(x, spec, K))


def _future_residual_magnitude(x, spec, K):
    """E(m): the residual's double sum over |wv(io)| |kern(m-jo+2)| |B(io-jo)|,
    over |w(m)|, at offsets m = 1..N."""
    w = spec.weight
    N = x.grid.horizon
    shift = spec.n if spec.kind is OperatorKind.CAPUTO else 0
    kdeg = K - shift
    kern = np.abs(rising_over_gamma_row(shift - spec.order - 1.0, shift - spec.order, N))
    wv = np.abs(w.window(1, N) * nabla_n_tempered(x, K + 1, w).body)
    out = np.zeros(N)
    for m in range(1, N + 1):
        for io in range(2, m + 1):
            for jo in range(2, io - kdeg + 1):
                out[m - 1] += wv[io - 1] * kern[m - jo + 1] * math.comb(io - jo, kdeg)
    return out / np.abs(w.window(1, N))


@settings(max_examples=60, deadline=None)
@given(
    FUTURE_KINDS,
    st.sampled_from(SIGNALS),
    st.sampled_from(WEIGHTS),
    st.integers(min_value=1, max_value=18),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=99),
)
@example((OperatorKind.RL, 0.5), "sin10k", "case4", 48, 4, 0)
@example((OperatorKind.GL, -1.5), "poly:1,3,2", "case3", 48, 6, 0)
def test_future_exchanged_sums_near_double_sum_as_written(kind_order, sname, wname, N, K, seed):
    """The exchanged sums against the double sum as written: each output's
    residual within 2 N u E(m), u = 2^-53, plus one rounding of the output
    itself (the residual's last subtraction from the point series)."""
    x, spec, K = _future_case(*kind_order, sname, wname, N, K, seed)
    try:
        got = tempered_op_taylor_future(x, spec, K).body
    except NablaError:
        with pytest.raises(NablaError):
            taylor_future_seq(x, spec, K)
        return
    want = taylor_future_seq(x, spec, K)
    bound = 2 * N * 2.0**-53 * _future_residual_magnitude(x, spec, K)
    bound += np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert (np.abs(got - want) <= bound).all()


# ---------------------------------------------------------------------------
# product rule
# ---------------------------------------------------------------------------


LEIBNIZ_KINDS = [
    (OperatorKind.INTEGER_NABLA, 1.0),
    (OperatorKind.INTEGER_NABLA, 2.0),
    (OperatorKind.GL, 0.5),
    (OperatorKind.GL, -0.5),
    (OperatorKind.RL, 0.5),
    (OperatorKind.RL, 1.5),
    (OperatorKind.CAPUTO, 0.5),
    (OperatorKind.CAPUTO, 1.5),
]


@pytest.mark.parametrize(
    "fname, gname, wname, N",
    [
        ("poly:0,1", "sin10k", "exp:0.25", 24),
        ("sin10k", "geom:0.8", "case3", 20),
        ("geom:0.8", "poly:1,0.1,0.01", "one", 20),
        ("sin10k", "sin10k", "case3", 16),
    ],
)
def test_leibniz_suite_shapes(fname, gname, wname, N):
    grid = Grid(0.0, history=3, horizon=N)
    f, g = preset_signal(fname, grid), preset_signal(gname, grid)
    w = preset_weight(wname, grid)
    for kind, order in LEIBNIZ_KINDS:
        spec = OperatorSpec(kind, order, w)
        assert _leibniz_rhs(f, g, spec).tobytes() == leibniz_rhs_seq(f, g, spec).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(LEIBNIZ_KINDS + [(OperatorKind.INTEGER_NABLA, 3.0), (OperatorKind.GL, 1.0)]),
    st.sampled_from(SIGNALS),
    st.sampled_from(SIGNALS),
    st.sampled_from(WEIGHTS),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=99),
)
def test_leibniz_sequential(kind_order, fname, gname, wname, N, history, seed):
    kind, order = kind_order
    grid = Grid(-0.5, history=history, horizon=N)
    f, g = _signal(grid, fname, seed), _signal(grid, gname, seed + 1)
    spec = OperatorSpec(kind, order, preset_weight(wname, grid))
    if kind in (OperatorKind.INTEGER_NABLA, OperatorKind.CAPUTO) and history < spec.n:
        with pytest.raises(NablaError):
            check_leibniz(f, g, spec)
        return
    got = _outcome(lambda: _leibniz_rhs(f, g, spec))
    assert got == _outcome(lambda: leibniz_rhs_seq(f, g, spec))


# ---------------------------------------------------------------------------
# vector-order coefficients and the 2-D single sum
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-60.0, max_value=60.0), min_size=0, max_size=12),
    st.integers(min_value=0, max_value=300),
)
@example([0.5, 0.5 - 1, 0.5 - 2], 24)
@example([45.0, 0.5], 200)  # past the bounded order: overflow, no warning
def test_gl_coefficient_rows_match_1d_calls(orders, length):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = gl_coefficients(orders, length)
    assert seq.coeffs.shape == (len(orders), length)
    assert seq.length == length
    assert not seq.coeffs.flags.writeable
    for row, order in zip(seq.coeffs, orders):
        assert row.tobytes() == gl_coefficients(order, length).coeffs.tobytes()


def _canonical_nan_bytes(a):
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["rows", "shared c", "shared z"]),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1.0, 1e-300, 1e300]),
    st.lists(st.sampled_from([np.inf, -np.inf, np.nan, -0.0]), max_size=3),
    st.lists(st.sampled_from([np.inf, -np.inf, np.nan, -0.0]), max_size=3),
)
@example(37, 2, 0, "rows", False, False, 0, 1.0, [], [])  # the probe's shape
@example(120, 300, 5, "rows", True, False, 1, 1.0, [-0.0], [-0.0, np.nan])
@example(120, 257, 0, "shared z", False, False, 2, 1.0, [np.inf], [])  # the per-lag loop
@example(64, 256, 1, "shared c", True, True, 3, -0.0, [], [-np.inf])
@example(1, 1, 0, "shared c", False, False, 4, 1.0, [], [])
@example(3, operators._SPLIT_FROM + 50, 0, "rows", True, False, 5, 1.0, [], [])  # threads
def test_causal_sum_rows_match_1d_calls(
    rows, n, extra, shared, ragged, fuses, seed, scale, c_marks, z_marks
):
    """Each row of a 2-D ``causal_sum`` against the 1-D call on that row
    (einsum tiles or the per-lag loop) and the scalar loop, on both stacked
    routes (one einsum per tile, and the per-lag loop taken on a numpy whose
    stacked einsum fuses multiply-add), across tile edges: rows of their own
    lengths zero-padded to the stack's, a 1-D ``c`` or ``z`` shared by every
    row, and non-finite, signed-zero and overflowing terms."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((rows, n + extra)) * scale
    z = rng.standard_normal((rows, n))
    for marks, a in ((c_marks, c), (z_marks, z)):
        for v in marks:
            a[rng.integers(rows), rng.integers(a.shape[1])] = v
    lengths = rng.integers(1, n + 1, size=rows) if ragged else np.full(rows, n)
    for r, m in enumerate(lengths):
        z[r, m:] = 0.0  # a row's output k reads z up to k only
    if shared == "shared c":
        c = c[0]
    elif shared == "shared z":
        z, lengths = z[0], np.full(rows, lengths[0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_STACKED_EINSUM_FUSES", fuses)
        out = causal_sum(c, z)
        assert out.shape == (rows, n)
        for r, m in enumerate(lengths.tolist()):
            cr = c if c.ndim == 1 else c[r]
            zr = (z if z.ndim == 1 else z[r])[:m]
            expected = _canonical_nan_bytes(causal_sum(cr, zr))
            assert _canonical_nan_bytes(out[r, :m]) == expected
            if r in (0, rows - 1):  # the scalar loop is slow on long stacks
                assert _canonical_nan_bytes(causal_sum_seq(cr, zr)) == expected


# ---------------------------------------------------------------------------
# instance signals
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=8, max_value=64),
    st.integers(min_value=0, max_value=7),
)
def test_instance_signals_match_numpy_points(seed, history, N, idx):
    a = float(np.round(np.random.default_rng(seed).uniform(-4.0, 4.0), 3))
    grid = Grid(a, history=history, horizon=N)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = suite._instance_signal(rng_new, grid, idx)
    expected = instance_signal_seq(rng_old, grid, idx)
    assert got.values.tobytes() == expected.values.tobytes()
    # the same draws, so the instances after this one are unchanged too
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=8, max_value=64))
def test_core_instance_base_point_is_np_round(seed, n_max):
    x, _ = suite._core_instance(np.random.default_rng(seed), 0, history=2, n_max=n_max)
    rng = np.random.default_rng(seed)
    rng.integers(8, n_max + 1)
    assert x.grid.a == float(np.round(rng.uniform(-4.0, 4.0), 3))


class _BasePoints:
    """A generator whose base-point draws (``uniform(-4.0, 4.0)``) return
    the given values in turn where one is not None; the stream advances as
    it would."""

    def __init__(self, seed, bases):
        self._rng = np.random.default_rng(seed)
        self._bases = iter(bases)

    def uniform(self, low=0.0, high=1.0, size=None):
        u = self._rng.uniform(low, high, size)
        if (low, high, size) == (-4.0, 4.0, None):
            base = next(self._bases)
            return u if base is None else base
        return u

    def __getattr__(self, name):
        return getattr(self._rng, name)


#: Draws rounded to 3 decimals at and next to their ties, and signed zeros:
#: ties go to even, and a zero keeps the sign of the draw.
BOUNDARY_DRAWS = [
    0.0005, -0.0005, 0.0015, -0.0015, 0.0025, -0.0025, 0.00049999999999999, -0.00049999999999999,
    0.0005000000000001, -0.0005000000000001, 0.0, -0.0, 1e-300, -1e-300, 3.9995, -3.9995,
    3.9994999999999998, -3.9994999999999998, 1.0005, -1.0005, 2.0025, -2.0025,
]


def _drawn(draw, seed, bases, count):
    """``count`` core instances from one stream, as ``draw`` makes them:
    each grid, values in ``float.hex``, and the stream's state after."""
    rng = _BasePoints(seed, bases)
    out = []
    for i in range(count):
        history, n_max = 1 + i % 3, (16, 32, 64)[i % 3]
        x, w = draw(rng, i, history, n_max)
        values = [[v.hex() for v in s.values.tolist()] for s in (x, w)]
        out.append((type(x), type(w), x.grid.a.hex(), x.grid, w.grid, *values))
    return out, rng._rng.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
def test_instance_draws_match_frozen_draws(seed):
    """1,000 core instances per seed: every signal and weight family, grids
    and values as the point-by-point draws made them, bit for bit, with
    base points drawn at the rounding's ties among them; the stream ends
    in the same state."""
    bases = [BOUNDARY_DRAWS[(i // 3) % len(BOUNDARY_DRAWS)] if i % 3 == 0 else None for i in range(1000)]
    got = _drawn(suite._core_instance, seed, bases, 1000)
    expected = _drawn(core_instance_seq, seed, bases, 1000)
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(BOUNDARY_DRAWS), st.floats(min_value=-4.0, max_value=4.0)))
def test_base_point_rounding_is_numpy_round(u):
    assert suite._round3(u).hex() == float(np.float64(u).round(3)).hex()


@pytest.mark.parametrize("i", [0, 1, 2, 3, 7, 50, 151, 300])
def test_binomial_row_matches_math_comb(i):
    """The exact integer recurrence against one ``math.comb`` per point,
    rounded once each, up to N = 600 and past binary64 (the same error)."""
    for N in (0, 1, 2, 30, 299, 600, 2000 if i == 300 else 1):
        assert _outcome(lambda: rising_over_factorial_row(i, N)) == _outcome(
            lambda: rising_over_factorial_row_seq(i, N)
        )
    with pytest.raises(DomainError, match=r"^binomial C\(2299, 300\) overflows binary64$"):
        rising_over_factorial_row(300, 2000)


@pytest.mark.parametrize("index", [0, 2, 6])
def test_instance_signals_match_over_suite_draws(index, monkeypatch):
    # a core group's own instance stream at seed 0: the order draw, then the
    # instance, with the sampled families on Python floats and on numpy points
    def instances(sampler):
        with monkeypatch.context() as m:
            m.setattr(suite, "_instance_signal", sampler)
            rng = np.random.default_rng([0, index])
            out = []
            for i in range(suite.CORE_INSTANCES):
                al = suite._alpha(rng)
                n_max = suite._horizon_cap(al, 16) if index == 2 else 64
                out.append(suite._core_instance(rng, i, history=2, n_max=n_max))
            return out

    new = instances(suite._instance_signal)
    old = instances(instance_signal_seq)
    for (x, w), (x0, w0) in zip(new, old):
        assert x.values.tobytes() == x0.values.tobytes()
        assert w.values.tobytes() == w0.values.tobytes()


# ---------------------------------------------------------------------------
# integer difference stencil, base-point reconstruction, initial-value series
# ---------------------------------------------------------------------------

# the two weights of the suite that grow or alternate fastest, and
# exponential weights (1 - rate)^(k - a) with a base above 1 (a negative
# rate) and a negative base (a rate above 1)
STENCIL_WEIGHTS = st.one_of(
    st.sampled_from(["case2", "case4"]),
    st.floats(min_value=-2.0, max_value=-0.01).map(lambda r: f"exp:{r!r}"),
    st.floats(min_value=1.01, max_value=3.0).map(lambda r: f"exp:{r!r}"),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=0, max_value=3),
    STENCIL_WEIGHTS,
    st.sampled_from(SIGNALS),
    st.integers(min_value=0, max_value=99),
)
@example(6, 80, 0, "case2", "random", 0)
@example(1, 1, 0, "exp:1.01", "sin10k", 0)
def test_integer_stencil_sequential(n, N, extra, wspec, sname, seed):
    grid = Grid(-1.5, history=n + extra, horizon=N)
    x = _signal(grid, sname, seed)
    w = preset_weight(wspec, grid)
    got = _outcome(lambda: nabla_n_tempered(x, n, w).body)
    assert got == _outcome(lambda: nabla_n_tempered_seq(x, n, w))
    got = _outcome(lambda: nabla_n(x, n).body)
    assert got == _outcome(lambda: [nabla_at(x, n, m) for m in range(1, N + 1)])
    # the untempered pointwise difference is the tempered one under a unit
    # weight: (c*1)*x = c*x and the closing division by 1 is exact
    ones = preset_weight("one", grid)
    got = _outcome(lambda: [nabla_at(x, n, m) for m in range(-extra, N + 1)])
    offsets = range(-extra, N + 1)
    assert got == _outcome(lambda: [nabla_n_tempered_at(x, n, ones, m) for m in offsets])
    assert got == _outcome(lambda: [nabla_at_seq(x, n, m) for m in offsets])
    got = _outcome(lambda: [nabla_n_tempered_at(x, n, w, m) for m in offsets])
    assert got == _outcome(lambda: [nabla_n_tempered_at_seq(x, n, w, m) for m in offsets])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(SIGNALS),
    st.integers(min_value=0, max_value=99),
)
@example(5, 80, 0, "random", 0)
def test_reconstruct_initial_sequential(K, N, extra, sname, seed):
    grid = Grid(1.0, history=K + 1 + extra, horizon=N)
    x = _signal(grid, sname, seed)
    got = _outcome(lambda: reconstruct_initial(x, K).values)
    assert got == _outcome(lambda: reconstruct_initial_seq(x, K))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=0, max_value=3),
    STENCIL_WEIGHTS,
    st.sampled_from(SIGNALS),
    st.one_of(st.none(), st.floats(min_value=0.05, max_value=5.95)),
    st.integers(min_value=0, max_value=99),
)
@example(0, 6, 80, 0, "case2", "random", None, 0)
@example(0, 2, 64, 0, "exp:-1.0", "geom:1.5", 1.5, 0)
def test_initial_value_series_sequential(lo, hi, N, extra, wspec, sname, order, seed):
    # the factorial basis (shifted by lo) of the sum-of-difference and
    # remainder identities, or the Gamma-ratio basis of a fractional order
    grid = Grid(0.25, history=max(hi, 1) + extra, horizon=N)
    x = _signal(grid, sname, seed)
    w = preset_weight(wspec, grid)
    if order is None:
        basis = lambda i: rising_over_factorial_row(i - lo, N)
    else:
        basis = lambda i: rising_over_gamma_row(i - order, i - order + 1, N)
    degrees = range(lo, hi)
    got = _outcome(lambda: sum(initial_value_terms(x, w, degrees, basis), np.zeros(N)))
    assert got == _outcome(lambda: initial_value_series_seq(x, w, degrees, basis))


# ---------------------------------------------------------------------------
# pointwise differences: every degree at one point from one accumulation
# ---------------------------------------------------------------------------


def _pointwise_case(case, K, rows, seed):
    """x and w with K + 3 points each (one row, or a stack of ``rows``),
    the point of the differences at position K + 1."""
    rng = np.random.default_rng(seed)
    shape = (rows, K + 3) if rows else (K + 3,)
    x = rng.standard_normal(shape)
    w = rng.uniform(0.5, 2.0, shape)
    if case == "negative-weight":
        # w x is -0.0 at the point, and d_0 = (0.0 + -0.0) / w = -0.0
        w = -w
        x[..., K + 1] = 0.0
    elif case == "overflow":
        # c_l w past binary64 at some lags of the high degrees: inf there,
        # NaN where infinities of both signs meet or meet x = 0
        w[..., : K + 2 : 2] = 1e306
        x[..., K - 1 : K] = 0.0
    return x, w


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "negative-weight", "overflow"]),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=99),
)
@example("random", 0, 0, 0)
@example("random", 1, 2, 0)
@example("random", 12, 3, 0)
@example("random", 792, 0, 0)
@example("random", 792, 2, 1)
@example("negative-weight", 0, 0, 0)
@example("negative-weight", 12, 2, 0)
@example("overflow", 12, 0, 0)
@example("overflow", 12, 3, 0)
@example("overflow", 792, 0, 0)
def test_pointwise_differences_every_degree_sequential(case, K, rows, seed):
    # every degree 0..K of the one accumulation against one scalar loop per
    # degree, tempered and untempered, bit for bit (signs of zero, and the
    # infinities and NaNs of an overflowing c * w, included)
    x, w = _pointwise_case(case, K, rows, seed)
    p = K + 1
    with np.errstate(over="ignore", invalid="ignore"):
        table = operators._difference_table(K)
        tempered = operators._differences_at(x, p, w, p, table)
        untempered = operators._differences_at(x, p, None, 0, table)
        loops = [
            np.stack([tempered_diff_at_seq(x, p, v, p, i) for i in range(K + 1)], -1)
            for v in (w, np.ones(w.shape))
        ]
    for got, want in zip((tempered, untempered), loops):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert np.isfinite(untempered).all()
    if case == "negative-weight":
        assert np.signbit(tempered[..., 0]).all() and not np.signbit(untempered[..., 0]).any()
    if case == "overflow" and K >= 12:
        assert not np.isfinite(tempered).all()
    elif case != "overflow":
        assert np.isfinite(tempered).all()


@pytest.mark.parametrize("K", [0, 1, 12, 792])
def test_taylor_initial_sequential(K):
    grid = Grid(0.0, history=K + 1, horizon=2)
    x = _signal(grid, "random", K)
    got = taylor_initial(x, K)
    assert got.tobytes() == np.array([nabla_at_seq(x, i, 0) for i in range(K + 1)]).tobytes()


def test_signed_binomial_rows_are_the_exact_binomials():
    # the rows converted once and their odd entries negated, and the rows of
    # the difference table: the same bits as each signed integer rounded
    # alone, up to the largest finite row, and +0.0 past a row's own lags
    top = operators.MAX_INTEGER_STAGE
    table = operators._difference_table(top)
    row = [1]  # C(n, i) for i = 0..n, by Pascal's rule
    for n in range(top + 1):
        signed = np.array([-c if i % 2 else c for i, c in enumerate(row)], float).tobytes()
        assert operators._signed_binomials(n).tobytes() == signed
        assert table[n, : n + 1].tobytes() == signed
        assert table[n, n + 1 :].tobytes() == bytes(8 * (top - n))
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
