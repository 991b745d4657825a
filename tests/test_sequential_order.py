"""Byte equality of the accumulating kernels with sequential evaluation.

``gl_coefficients``, the exponential ``make_weight``, ``ml_function``,
``fde_solve``, the lagged-sum kernels ``causal_sum`` and ``causal_dot`` and
``convolve`` run their recurrences and inner sums as numpy accumulations;
the README promises results identical to the scalar loops in
``_sequential.py``.  The one-pass Gamma-ratio row and lattice sampler must
equal their per-point copies there.  Error cases must raise the same
exception with the same message.
"""

import itertools
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nablatc import laplace, operators, presets, special
from nablatc.errors import NablaError
from nablatc.laplace import (
    _ML_BLOCK,
    MLParams,
    SeriesDiverged,
    _ml_functions,
    _ml_term_block,
    convolve,
    fde_solve,
    ml_function,
)
from nablatc.operators import _SPLIT_FROM, causal_sum
from nablatc.presets import preset_weight
from nablatc.signals import Grid, NonFiniteSample, Signal, ZeroWeight, _sample, make_weight
from nablatc.special import gl_coefficients, rising_over_gamma_row

from _sequential import (
    causal_dot_seq,
    causal_sum_seq,
    exp_weight_seq,
    fde_values_blocked_seq,
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

#: The einsum routes of ``fde_solve``: as the import-time probe found
#: (einsum, unless this build fuses multiply-add) and the per-lag fallback.
EINSUM_FUSES = [operators._EINSUM_FUSES, True]


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
@example(0.6, -0.3, 1.3, 63, "case4")  # one block short of full
@example(0.6, -0.3, 1.3, 64, "case4")  # one full block
@example(0.6, -0.3, 1.3, 65, "case4")  # a second block of one step
@example(0.6, 0.4, -0.7, 128, "exp:0.01")  # two full blocks
@example(0.6, 0.4, -0.7, 129, "exp:0.01")  # a third block of one step
def test_fde_solve_sequential(alpha, mu, x_a, N, weight):
    """The blocked solve against its scalar loops, with the einsums and
    with the per-lag fallback that replaces them where einsum fuses
    multiply-add."""
    w = preset_weight(weight, Grid(0.0, 0, N))
    want = _outcome(lambda: fde_values_blocked_seq(alpha, mu, w, x_a, N).values)
    for fuses in EINSUM_FUSES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_EINSUM_FUSES", fuses)
            assert _outcome(lambda: fde_solve(alpha, mu, w, x_a, N).values) == want


def _alternating_dot():
    """A route that alternates from call to call: sums with an even number
    of terms take the fallback, the others the probe-selected route."""
    selected = operators._in_order_dot()

    def dot(c, zr):
        if len(zr) % 2:
            return selected(c, zr)
        return operators._dot_accumulate(c, zr)

    return dot


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
@example(0.5, 1.5, 0.0, 5, "case4")  # 1 - mu < 0: mu z(a) is -0.0
@example(0.3, 1.5, -0.0, 40, "exp:-0.02")
@example(0.999, 0.95, 1.0, 300, "one")  # grows past binary64: NonFiniteSample
@example(0.3, 1.5, 0.8, 63, "case1")  # h alternates in sign; block bounds
@example(0.3, 1.5, 0.8, 64, "case1")
@example(0.3, 1.5, 0.8, 65, "case1")
@example(0.7, -0.4, 1.3, 128, "case3")
@example(0.7, -0.4, 1.3, 129, "case3")
def test_fde_solve_routes_sequential(route, alpha, mu, x_a, N, weight):
    """The solver against its scalar loops with the vecdot route, with the
    multiply-and-accumulate fallback the probe selects where vecdot sums
    otherwise, and with the two routes alternating from call to call (the
    solver takes its route from ``operators._in_order_dot`` once per
    solve): the route of h's recurrence, and under the per-lag fallback
    that of the history sums as well."""
    w = preset_weight(weight, Grid(0.0, 0, N))
    want = _outcome(lambda: fde_values_blocked_seq(alpha, mu, w, x_a, N).values)
    for fuses in EINSUM_FUSES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_EINSUM_FUSES", fuses)
            if route == "fallback":
                mp.setattr(operators, "_VECDOT_IN_ORDER", False)
            elif route == "mixed":
                mp.setattr(laplace, "_in_order_dot", _alternating_dot)
            assert _outcome(lambda: fde_solve(alpha, mu, w, x_a, N).values) == want


@pytest.mark.parametrize("fuses", EINSUM_FUSES, ids=["probed", "fused"])
@pytest.mark.parametrize("x_a", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("mu", [0.0, -0.3, 1.5])
def test_fde_solve_signed_zero_start(fuses, x_a, mu):
    """x(a) = +-0.0: x(a) comes back as w(a) x(a) / w(a), so with its sign;
    every later z(k) = z(a) + u(k), with u(k) a sum from 0.0, is +0.0
    whatever the sign of x(a), and x(k) = +0.0 / w(k).  (The ascending-lag
    stepper's z(k) was -0.0 for x(a) = -0.0 and mu < 1.)"""
    N = 130
    w = preset_weight("case4", Grid(0.0, 0, N))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_EINSUM_FUSES", fuses)
        x = fde_solve(0.4, mu, w, x_a, N).values
    wv = w.window(0, N)
    assert x[0].hex() == (wv[0] * x_a / wv[0]).hex()
    assert math.copysign(1.0, x[0]) == math.copysign(1.0, x_a)
    assert _hex(x[1:]) == _hex(0.0 / wv[1:])


#: Error bounds against a 40-digit solution of the same system, in units
#: of m u max(|z(m)|, |z(a)|), u = 2^-53: over the grid of
#: test_fde_solve_accuracy the blocked solve reached 0.83 of them, the
#: ascending-lag stepper 2.12 (at alpha 0.99, mu 0.2).
_FDE_ERR_UNITS = 2.0
_FDE_SEQ_ERR_UNITS = 3.0


def _fde_reference(alpha, mu, N):
    """z(0..N) of the solver's system with z(a) = 1, in 40-digit arithmetic
    on the binary64 coefficients c_i, so the error is the solve's own."""
    import mpmath

    with mpmath.workdps(40):
        c = [mpmath.mpf(float(v)) for v in gl_coefficients(alpha, N).coeffs]
        a, rhs = 1 - mpmath.mpf(mu), mpmath.mpf(mu)
        u = [mpmath.mpf(0)]
        for m in range(1, N + 1):
            u.append((rhs - mpmath.fsum(c[i] * u[m - i] for i in range(1, m))) / a)
        return [1 + v for v in u]


@pytest.mark.parametrize("alpha", [0.01, 0.3, 0.6, 0.9, 0.99])
@pytest.mark.parametrize("mu", [-0.9, -0.3, 0.2, 0.6, 1.5, 2.0])
def test_fde_solve_accuracy(alpha, mu):
    """The blocked solve within its bound of a 40-digit solution, and the
    ascending-lag stepper (``fde_values_seq``) within the sum of both
    solvers' bounds of the blocked one, at N = 300 (blocks of 64 end at
    64, 128, 192 and 256)."""
    import mpmath

    N = 300
    w = preset_weight("one", Grid(0.0, 0, N))
    ref = _fde_reference(alpha, mu, N)
    # w = 1, so z = x; m u max(|z(m)|, |z(a)|) per point, on the reference
    unit = np.arange(N + 1) * 2.0**-53 * np.maximum(np.abs(np.array(ref, dtype=float)), 1.0)
    z = fde_solve(alpha, mu, w, 1.0, N).values
    z_seq = fde_values_seq(alpha, mu, w, 1.0, N).values
    err = np.array([float(abs(mpmath.mpf(float(v)) - r)) for v, r in zip(z, ref)])
    assert np.all(err <= _FDE_ERR_UNITS * unit)
    assert np.all(np.abs(z - z_seq) <= (_FDE_ERR_UNITS + _FDE_SEQ_ERR_UNITS) * unit)


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


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("beta", [1.0, 0.5, 0.0, -0.5, -1.0, -3.0])
@pytest.mark.parametrize("mu", [0.3, 0.0, -0.7, -1.9])
def test_ml_base_point_sequential(alpha, beta, mu):
    """The base point sums only its matched-pole terms (at beta = 0, alpha
    0.5: i = 2; at beta = -3: i = 8), skipping the zero ones, with the bits
    of the 64-term loop."""
    params = MLParams(alpha, beta, mu)
    ref = _outcome(lambda: ml_values_seq(params, 3))
    got = _outcome(lambda: ml_function(params, 3).values)
    if got != ref:
        assert isinstance(ref, bytes)
        assert got[0] is SeriesDiverged and "cancels" in got[1]


@pytest.mark.parametrize(
    "alpha, beta, mu, i_star, value",
    [
        (0.0625, -2.0, -0.9, 48, 6.3627e-3),
        (0.0625, -5.0, -0.9, 96, 4.0484e-5),
        (0.25, -20.0, -0.95, 84, 1.3452e-2),
    ],
)
def test_ml_base_point_past_the_first_64_terms(alpha, beta, mu, i_star, value):
    """The matched term i* = (1 - beta)/alpha of the base point is mu^i*,
    below i = 64 and past it alike."""
    params = MLParams(alpha, beta, mu)
    got = ml_function(params, 3).values
    assert got[0].hex() == (mu**i_star).hex()
    assert got[0] == pytest.approx(value, rel=1e-4)
    assert got.tobytes() == ml_values_seq(params, 3).tobytes()


def test_ml_base_point_overflow_past_the_first_64_terms():
    # 2000^96 is past binary64
    with pytest.raises(SeriesDiverged, match="overflows at the base point"):
        ml_function(MLParams(0.0625, -5.0, 2000.0), 3)


@pytest.mark.parametrize(
    "alpha, beta, mu, want",
    [
        # 3 * 0.1 + -0.3 rounds to 5.55e-17 and 13 * 0.1 + -0.3 to 1, but
        # no integer i gives i al + be = 1 for these binary64 values
        (0.1, -0.3, 0.01, 0.0),
        # i al + be rounds to 1 for every i < 64; it is 1 only at i = 0
        (1e-19, 1.0, 0.5, 1.0),
        (0.5, 1.0, -0.3, 1.0),
        (0.5, 1.0, -0.0, 1.0),
        (0.0625, -5.0, -0.9, (-0.9) ** 96),
        (0.0625, -2.0, -0.9, (-0.9) ** 48),
        # i = 1: (-0.0)^1 = -0.0, and the sum from 0.0 is +0.0
        (0.5, 0.5, -0.0, 0.0),
        (0.75, -1.25, -0.5, -0.125),
    ],
)
def test_ml_base_point_exact_match(alpha, beta, mu, want):
    """F(0) is mu^i at the one integer i >= 0 with i alpha + beta = 1 in
    exact arithmetic on the binary64 inputs, and +0.0 where there is none."""
    got = ml_function(MLParams(alpha, beta, mu), 3).values[0]
    assert got.hex() == float(want).hex()


@pytest.mark.parametrize(
    "mu, i",
    [
        (-1.0, 2**53 + 1),
        (-1.0, 2**2000 + 1),
        (-1.0, 2**2000),
        (-(1.0 - 2.0**-53), 2**53 + 1),
        (1.0 - 2.0**-53, 2**53 + 1),
        (-0.5, 2**70 + 1),
        (-2.0, 2**70 + 1),
    ],
)
def test_ml_int_power_keeps_the_parity_of_large_i(mu, i):
    """From 2^53 on, float(i) may round i to the other parity, and past
    binary64 it raises: mu^i is |mu|^i with i's sign."""
    with np.errstate(over="ignore"):
        got = laplace._int_power(mu, i)
        mag = float(np.float64(abs(mu)) ** float(min(i, 2**1023)))
    assert got == (-mag if mu < 0 and i % 2 else mag)
    assert abs(got) == mag


#: mu values of the power chain: signed zeros, the smallest subnormal,
#: powers that underflow and overflow, |mu| just below 1, and 1e300, whose
#: Dekker split overflows so that the low parts are NaN
_CHAIN_MUS = [
    0.0, -0.0, 5e-324, 1e-300, -1e-300, 0.5, -0.5,
    1.0 - 2.0**-53, -(1.0 - 2.0**-53), 1.5, -1.5, 1e300,
]


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("mu", _CHAIN_MUS, ids=float.hex)
def test_ml_powers_match_per_step_dd_mul(mu):
    """The written-out mu^t chain of ``_ml_powers`` against a chain of one
    ``special._dd_mul(h, l, mu, 0.0)`` per step, as float.hex.  Row ranges
    cross the first pass's 96 rows and the block's 256, at i0 = 0, 256 and
    512, on one chain extended call by call and on fresh chains that start
    at a later block."""
    ref_h, ref_l = [1.0], [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2 * _ML_BLOCK):
            h, l = special._dd_mul(ref_h[-1], ref_l[-1], mu, 0.0)
            ref_h.append(h)
            ref_l.append(l)
        ranges = [(i0, r0, r1) for i0 in (0, 256, 512) for r0, r1 in ((0, 96), (96, 256))]
        runs = [ranges, [(256, 0, 96)], [(512, 90, 256)], [(0, 0, 256), (512, 0, 97)]]
        for run in runs:
            chain = ([1.0], [0.0])
            for i0, r0, r1 in run:
                got = laplace._ml_powers(i0, r0, r1, mu, chain)
                want = np.array(ref_h[r0:r1]), np.array(ref_l[r0:r1])
                if i0:
                    want = special._dd_mul(*want, ref_h[i0], ref_l[i0])
                assert [_hex(a) for a in got] == [_hex(a) for a in want]
            n = len(chain[0])
            assert (_hex(chain[0]), _hex(chain[1])) == (_hex(ref_h[:n]), _hex(ref_l[:n]))


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
    got = _ml_term_block(i0, _ML_BLOCK, alpha, beta, [mu], N, 0, [([1.0], [0.0])])
    ref = ml_term_block_seq(i0, _ML_BLOCK, alpha, beta, mu, N)
    assert [a.shape for a in got] == [a.shape for a in ref]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([0, 256, 512]),
    st.lists(st.integers(min_value=1, max_value=_ML_BLOCK - 1), max_size=4),
    st.booleans(),
    st.floats(min_value=0.05, max_value=1.9),
    st.floats(min_value=0.5, max_value=2.5),
    st.floats(min_value=-0.9, max_value=0.9),
    st.integers(min_value=1, max_value=80),
)
@example(0, [96], True, 0.6, 1.0, -0.3, 48)  # the kernel's own split
@example(512, [1, 96, 255], False, 0.1, 1.0, -0.9, 80)
def test_ml_term_block_row_ranges_concatenate(i0, cuts, shared, alpha, beta, mu, N):
    """Any split of a block into row ranges, built in ascending order with or
    without a shared mu^t chain, concatenates to the whole block."""
    whole = _ml_term_block(i0, _ML_BLOCK, alpha, beta, [mu], N, 0, [([1.0], [0.0])])
    edges = [0, *sorted(set(cuts)), _ML_BLOCK]
    chains = [([1.0], [0.0])]
    parts = [
        _ml_term_block(i0, r1, alpha, beta, [mu], N, r0, chains if shared else [([1.0], [0.0])])
        for r0, r1 in zip(edges, edges[1:])
    ]
    for k in (0, 1):
        assert np.concatenate([p[k] for p in parts]).tobytes() == whole[k].tobytes()


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=1.9),
    st.floats(min_value=0.5, max_value=2.5),
    st.floats(min_value=-0.9, max_value=0.9),
    st.integers(min_value=1, max_value=64),
    st.none(),
)
# the last point stops at term 95, the first pass's last row: no more rows
@example(0.68, 1.22, 0.34, 57, "first pass")
# the last point stops at term 96, the first row built on demand
@example(0.38, 1.98, 0.47, 32, "second pass")
# the last point stops at term 567: two whole blocks, then a first pass
@example(0.28, 0.57, 0.9, 13, "third block")
@example(1.0, 1.0, -0.1, 32, "diverging")  # blow-up guard, lattice offset 10
@example(0.9, 1.0, -0.5, 72, "cancels")  # cancellation guard, lattice offset 69
@example(0.02, 1.0, 0.999, 1, "did not settle")  # term budget
def test_ml_function_row_passes_sequential(alpha, beta, mu, N, expect):
    """The kernel with rows built on demand against the pinned per-term loop,
    at the edges of its row passes and at each divergence guard."""
    params = MLParams(alpha, beta, mu)
    built = []

    def recording_block(i0, r1, al, be, mu, horizon, r0, chain):
        built.append((i0, r0, r1))
        return _ml_term_block(i0, r1, al, be, mu, horizon, r0, chain)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laplace, "_ml_term_block", recording_block)
        got = _outcome(lambda: ml_function(params, N).values)
    ref = _outcome(lambda: ml_values_seq(params, N))
    if got != ref:
        # the only permitted difference: the range guard refuses a sum the
        # unguarded accumulation completed
        assert isinstance(ref, bytes)
        assert got[0] is SeriesDiverged and "cancels" in got[1]
    first = laplace._ML_FIRST_ROWS
    if expect == "first pass":
        assert built == [(0, 0, first)]
    elif expect == "second pass":
        assert built == [(0, 0, first), (0, first, _ML_BLOCK)]
    elif expect == "third block":
        assert [b[0] for b in built] == [0, 0, 256, 256, 512]
    elif expect is not None:
        assert got[0] is SeriesDiverged and expect in got[1]


def _kernels(thunk):
    """Each kernel's bytes, or the type and message raised."""
    try:
        return [k.values.tobytes() for k in thunk()]
    except NablaError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "alphas, mus, N",
    [
        ((0.3, 0.5, 0.7, 0.9), (-0.5, -0.2, 0.2, 0.5), 50),  # the ml-solver pairs
        (np.linspace(0.3, 0.9, 5).tolist(), np.linspace(-0.5, 0.5, 5).tolist(), 64),
    ],
    ids=["ml-solver", "relaxation-box"],
)
def test_ml_stack_matches_per_mu_kernels(alphas, mus, N):
    """A stack over mu gives each mu's kernel bit for bit, from one term
    block per row range for the whole stack."""
    for alpha in alphas:
        params = [MLParams(alpha, 1.0, mu) for mu in mus]
        built = []

        def recording_block(i0, r1, al, be, mu, horizon, r0, chain):
            built.append((i0, r0, r1, len(mu)))
            return _ml_term_block(i0, r1, al, be, mu, horizon, r0, chain)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laplace, "_ml_term_block", recording_block)
            got = _kernels(lambda: _ml_functions(params, N))
        assert got == _kernels(lambda: [ml_function(p, N) for p in params])
        assert all(b[3] == len(mus) for b in built)
        assert len(set(b[:3] for b in built)) == len(built)


@pytest.mark.parametrize(
    "mus",
    [(0.2, -0.5, 0.5), (-0.5, 1.2), (0.5, 1.2, -0.5)],
    ids=["cancels", "cancels-then-diverging", "diverging-then-cancels"],
)
def test_ml_stack_raises_the_first_failing_mus_error(mus):
    # at N = 150, mu = -0.5 cancels past the compensated sum at offset 69,
    # and mu = 1.2 diverges; the stack raises what the first of them raises
    # alone, whichever term of the stack failed first
    params = [MLParams(0.9, 1.0, mu) for mu in mus]
    expected = _kernels(lambda: [ml_function(p, 150) for p in params])
    assert expected[0] is SeriesDiverged
    assert _kernels(lambda: _ml_functions(params, 150)) == expected


def test_ml_stack_of_mixed_alphas_equals_the_single_calls():
    # the stack shares no alpha, so it runs each kernel alone
    params = [MLParams(al, 1.0, mu) for al, mu in ((0.3, -0.5), (0.9, 0.2), (0.3, 0.5))]
    expected = _kernels(lambda: [ml_function(p, 40) for p in params])
    assert isinstance(expected, list)
    assert _kernels(lambda: _ml_functions(params, 40)) == expected


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
# around the horizon where the tiles spread over threads, one range per CPU
@example(_SPLIT_FROM - 1, 0, 6, 1.0, 1.0, [], [(1500, -0.0)])
@example(_SPLIT_FROM, 3, 7, 1.0, 1.0, [], [(2047, np.nan), (300, -0.0)])
@example(_SPLIT_FROM + 1, 0, 8, 1.0, 1.0, [], [(2048, np.inf)])  # the last output's own tile
@example(_SPLIT_FROM + 300, 0, 9, -0.0, 1.0, [], [])  # -0.0 terms summing to +0.0
@example(5000, 10, 10, 1.0, 1.0, [(4999, -0.0)], [(1790, np.inf), (3600, -np.inf), (4000, np.nan)])
def test_causal_sum_tiles_sequential(n, extra, seed, c_scale, z_scale, c_marks, z_marks):
    """Both kernels (one einsum per tile, and the per-lag loop taken on a
    numpy whose einsum fuses multiply-add) against the scalar loop, across
    tile edges, with ``c`` longer than ``z`` and non-finite, signed-zero and
    overflowing terms, and with the tiles spread over 1, 2 and 4 CPUs."""
    rng = np.random.default_rng(seed)
    c = _marked(rng.standard_normal(n + extra) * c_scale, c_marks)
    z = _marked(rng.standard_normal(n) * z_scale, z_marks)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _canonical_nan_bytes(causal_sum_seq(c, z))
        for fuses, cpus in itertools.product((False, True), (1, 2, 4)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(operators, "_EINSUM_FUSES", fuses)
                mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                assert _canonical_nan_bytes(causal_sum(c, z)) == expected


def _terms(n):
    return np.random.default_rng(n).standard_normal((2, n))


def _spread_call(monkeypatch, n, cpus, fail_from=None):
    """``causal_sum`` on ``n`` random terms with ``cpus`` CPUs in the
    affinity mask; returns its outcome, the ``(lo, hi, thread)`` of every
    tile range run, and the threads alive before and after.  A range
    starting at ``fail_from`` or above raises ``ArithmeticError``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    tiles = operators._causal_sum_tiles
    ranges = []

    def recorded(c, zp, out, lo, hi):
        ranges.append((lo, hi, threading.get_ident()))
        if fail_from is not None and lo >= fail_from:
            raise ArithmeticError(f"range from {lo}")
        tiles(c, zp, out, lo, hi)

    monkeypatch.setattr(operators, "_causal_sum_tiles", recorded)
    before = threading.active_count()
    try:
        outcome = causal_sum(*_terms(n))
    except ArithmeticError as exc:
        outcome = exc
    return outcome, sorted(ranges), before, threading.active_count()


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("n", [_SPLIT_FROM - 1, _SPLIT_FROM, 5000])
def test_causal_sum_tile_ranges(monkeypatch, n, cpus):
    """From ``_SPLIT_FROM`` on, the tiles split into one range per CPU,
    the caller's first and each further one on a thread of its own, whole
    tiles apart from the last output's; no thread outlives the call."""
    if operators._EINSUM_FUSES:
        pytest.skip("this numpy's einsum fuses multiply-add: the per-lag loop runs")
    out, ranges, before, after = _spread_call(monkeypatch, n, cpus)
    assert after == before
    parts = cpus if n >= _SPLIT_FROM else 1
    assert len(ranges) == parts
    # the caller runs the first range, helpers the rest (a finished
    # helper's ident may be reused by the next)
    assert [t == threading.get_ident() for _, _, t in ranges] == [True] + [False] * (parts - 1)
    bounds = [lo for lo, _, _ in ranges] + [n]
    assert [(lo, hi) for lo, hi, _ in ranges] == list(zip(bounds, bounds[1:]))
    assert all(b % operators._TILE == 0 for b in bounds[:-1])
    assert out.tobytes() == operators._causal_sum_by_lag(*_terms(n)).tobytes()


@pytest.mark.parametrize("fail_from", [0, 1])
def test_causal_sum_range_error_reaches_the_caller(monkeypatch, fail_from):
    """An error in the caller's own range, or in a helper's, is raised by
    ``causal_sum`` after every helper has been joined."""
    if operators._EINSUM_FUSES:
        pytest.skip("this numpy's einsum fuses multiply-add: the per-lag loop runs")
    out, ranges, before, after = _spread_call(monkeypatch, 5000, 4, fail_from)
    assert isinstance(out, ArithmeticError)
    assert after == before
    assert len(ranges) == 4
    # the caller's own error first, else the first helper's to fail
    helpers = [f"range from {lo}" for lo, _, _ in ranges[1:]]
    assert str(out) in (["range from 0"] if fail_from == 0 else helpers)


def test_causal_sum_runs_ranges_without_threads(monkeypatch):
    """Where no thread can be started, the caller runs every range: the
    same bits."""
    if operators._EINSUM_FUSES:
        pytest.skip("this numpy's einsum fuses multiply-add: the per-lag loop runs")

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out, ranges, before, after = _spread_call(monkeypatch, 5000, 4)
    assert after == before
    assert len(ranges) == 4 and {t for _, _, t in ranges} == {threading.get_ident()}
    assert out.tobytes() == operators._causal_sum_by_lag(*_terms(5000)).tobytes()


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
    # the stacked kernel, n rows of the same two terms: rows innermost
    stacked = operators._einsum_fuses(rows=37)
    assert isinstance(stacked, bool)
    assert stacked == operators._STACKED_EINSUM_FUSES
    rows = operators._causal_sum_tiled(np.tile([1.0, a], (n, 1)), np.tile([a, -1.0], (n, 1)))
    if not stacked:
        assert (rows[:, 1] == two_roundings).all()


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
