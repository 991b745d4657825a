import math

import numpy as np
import pytest

from nablatc.operators import (
    InsufficientHistory,
    OperatorKind,
    OperatorSpec,
    apply_operator,
    gl_tempered,
    nabla_n_tempered,
)
from nablatc.presets import preset_signal, preset_weight
from nablatc.signals import Grid, make_signal_from_fn, make_weight
from nablatc.special import DomainError
from nablatc.taylor import (
    DegreeTooLow,
    InsufficientLags,
    SeriesSweep,
    reconstruct_from_current,
    reconstruct_initial,
    taylor_initial,
    taylor_series_initial,
    tempered_op_taylor_current,
    tempered_op_taylor_future,
    tempered_op_taylor_initial,
)

RNG = np.random.default_rng(271828)


def test_taylor_initial_polynomial_terminates():
    g = Grid(0.0, 5, 12)
    x = make_signal_from_fn(g, lambda k: 1.0 + 2.0 * k + k * k)
    coeffs = taylor_initial(x, 4)
    assert len(coeffs) == 5
    np.testing.assert_allclose(coeffs[3:], 0.0, atol=1e-12)
    rec = reconstruct_initial(x, 4)
    np.testing.assert_allclose(rec.values, x.window(0, 12), atol=1e-11)


def test_taylor_initial_reconstruction_sin():
    g = Grid(0.0, 4, 20)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    rec = reconstruct_initial(x, 3)
    np.testing.assert_allclose(rec.values, x.window(0, 20), atol=1e-11)


def test_degree_zero_is_the_telescoping_sum():
    g = Grid(0.0, 1, 15)
    x = make_signal_from_fn(g, lambda k: math.cos(2 * k))
    rec = reconstruct_initial(x, 0)
    np.testing.assert_allclose(rec.values, x.window(0, 15), atol=1e-13)


def test_reconstruction_past_binary64_raises_without_a_warning():
    # at K = 300 the binomials C(m+299, 300) leave binary64 below N = 2000;
    # the sums that overflow first must not warn (warnings fail this run)
    x = preset_signal("sin10k", Grid(0.0, 301, 2000))
    with pytest.raises(DomainError, match="overflows binary64"):
        reconstruct_initial(x, 300)


def test_op_taylor_initial_matches_direct():
    g = Grid(0.0, 7, 16)
    x = preset_signal("sin10k", g)
    w = preset_weight("case1", g)
    for kind, order, K in (
        (OperatorKind.GL, 0.5, 5),
        (OperatorKind.GL, -0.7, 4),
        (OperatorKind.RL, 0.5, 5),
        (OperatorKind.CAPUTO, 1.5, 5),
        (OperatorKind.INTEGER_NABLA, 2.0, 5),
    ):
        spec = OperatorSpec(kind, order, w)
        rep = tempered_op_taylor_initial(x, spec, K)
        direct = apply_operator(x, spec)
        dev = np.max(np.abs(rep.body - direct.body))
        assert dev < 1e-10, (kind, order, dev)


def test_op_taylor_initial_polynomial_series_alone():
    # polynomial of degree <= K with constant weight: remainder term zero
    g = Grid(0.0, 6, 12)
    x = make_signal_from_fn(g, lambda k: 1.0 + k + 0.5 * k * k)
    w = preset_weight("one", g)
    spec = OperatorSpec(OperatorKind.GL, 0.5, w)
    rep = tempered_op_taylor_initial(x, spec, 5)
    from nablatc.operators import nabla_n_tempered as nnt

    remainder_driver = nnt(x, 6, w).body
    np.testing.assert_allclose(remainder_driver, 0.0, atol=1e-10)
    np.testing.assert_allclose(rep.body, gl_tempered(x, 0.5, w).body, atol=1e-10)


def test_op_taylor_initial_degree_too_low():
    g = Grid(0.0, 7, 8)
    x = preset_signal("sin10k", g)
    w = preset_weight("one", g)
    with pytest.raises(DegreeTooLow):
        tempered_op_taylor_initial(x, OperatorSpec(OperatorKind.CAPUTO, 1.5, w), 2)
    with pytest.raises(DegreeTooLow):
        tempered_op_taylor_initial(x, OperatorSpec(OperatorKind.INTEGER_NABLA, 2.0, w), 2)


def test_series_sweep_polynomial_exact_at_degree():
    g = Grid(0.0, 14, 8)
    x = preset_signal("poly:1,2,1", g)
    w = preset_weight("one", g)
    sweep = taylor_series_initial(x, OperatorSpec(OperatorKind.GL, 0.5, w), 10)
    assert isinstance(sweep, SeriesSweep)
    assert sweep.deviations[-1] < 1e-11
    # exact from the polynomial degree on
    for K, dev in zip(sweep.degrees, sweep.deviations):
        if K >= 2:
            assert dev < 1e-11


def test_series_sweep_identity_reconstruction_at_order_zero():
    # the order-zero series rebuilds the signal from weighted base data;
    # a polynomial terminates the series, making the reconstruction exact
    g = Grid(0.0, 8, 10)
    x = preset_signal("poly:1,2,1", g)
    w = preset_weight("one", g)
    sweep = taylor_series_initial(x, OperatorSpec(OperatorKind.GL, 0.0, w), 6)
    assert sweep.deviations[-1] < 1e-11
    # and a geometric converges monotonically while above the noise floor
    # left by high-order differencing of a smooth signal
    g2 = Grid(0.0, 14, 8)
    x2 = preset_signal("geom:1.25", g2)
    sweep2 = taylor_series_initial(
        x2, OperatorSpec(OperatorKind.GL, 0.0, preset_weight("one", g2)), 12
    )
    devs = np.asarray(sweep2.deviations)
    assert np.all(np.diff(devs[devs > 1e-9]) < 0)


def test_series_sweep_geometric_decreasing():
    g = Grid(0.0, 14, 8)
    x = preset_signal("geom:2", g)
    w = preset_weight("one", g)
    sweep = taylor_series_initial(x, OperatorSpec(OperatorKind.GL, 0.5, w), 12)
    devs = np.asarray(sweep.deviations)
    assert np.all(np.diff(devs) <= 1e-12)


def test_op_taylor_current_exact():
    g = Grid(0.0, 2, 24)
    x = preset_signal("sin10k", g)
    w = preset_weight("case3", g)
    for kind, order in (
        (OperatorKind.GL, 0.5),
        (OperatorKind.GL, -0.5),
        (OperatorKind.RL, 1.5),
        (OperatorKind.CAPUTO, 0.5),
    ):
        spec = OperatorSpec(kind, order, w)
        rep = tempered_op_taylor_current(x, spec)
        direct = apply_operator(x, spec)
        dev = np.max(np.abs(rep.body - direct.body))
        assert dev < 1e-11, (kind, order, dev)


def test_op_taylor_current_first_step_single_term():
    # at the first lattice point the expansion has one term: the signal
    # value scaled by the one-step basis
    from nablatc.special import rising_over_gamma

    g = Grid(0.0, 0, 4)
    x = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    w = preset_weight("one", g)
    alpha = 0.3
    rep = tempered_op_taylor_current(x, OperatorSpec(OperatorKind.GL, alpha, w))
    manual = rising_over_gamma(1, -alpha, 1 - alpha) * x.at(1)
    assert rep.at(1) == pytest.approx(manual, rel=1e-14)
    assert rep.at(1) == pytest.approx(x.at(1), rel=1e-14)  # the basis is 1


def test_op_taylor_current_integer_collapse():
    # at an integer order the expansion collapses to the integer-order
    # single-sum operator, agreeing with the plain difference beyond the
    # stencil window
    g = Grid(0.0, 2, 16)
    x = make_signal_from_fn(g, lambda k: math.sin(0.6 * k) + 0.1 * k)
    w = make_weight(g, rate=-1.0)
    n = 2
    rep = tempered_op_taylor_current(x, OperatorSpec(OperatorKind.INTEGER_NABLA, float(n), w))
    gl_int = gl_tempered(x, float(n), w)
    np.testing.assert_allclose(rep.body, gl_int.body, atol=1e-11)
    plain = nabla_n_tempered(x, n, w)
    np.testing.assert_allclose(rep.body[n:], plain.body[n:], atol=1e-11)
    assert np.max(np.abs(rep.body[:n] - plain.body[:n])) > 1e-6


@pytest.mark.parametrize(
    "form",
    [
        lambda x, w: taylor_initial(x, 5),
        lambda x, w: reconstruct_initial(x, 5),
        lambda x, w: taylor_series_initial(x, OperatorSpec(OperatorKind.GL, 0.5, w), 5),
    ],
    ids=["taylor_initial", "reconstruct_initial", "taylor_series_initial"],
)
def test_base_point_forms_name_the_degree_of_a_short_history(form):
    g = Grid(0.0, 2, 8)
    with pytest.raises(InsufficientHistory) as exc:
        form(preset_signal("sin10k", g), preset_weight("one", g))
    assert str(exc.value) == "degree 5 needs history >= 6"


def test_op_taylor_current_needs_history_for_caputo():
    g = Grid(0.0, 0, 8)
    x = preset_signal("sin10k", g)
    w = preset_weight("one", g)
    with pytest.raises(InsufficientHistory, match="order 1 needs history >= 1"):
        tempered_op_taylor_current(x, OperatorSpec(OperatorKind.CAPUTO, 0.5, w))


def test_op_taylor_current_names_where_its_basis_overflows():
    # a sum order of -1e15 puts a basis value past binary64 from k - a = 23
    # on, while the form on the shorter horizons is finite
    g = Grid(0.0, 0, 30)
    x = preset_signal("sin10k", g)
    spec = OperatorSpec(OperatorKind.GL, -1e15, preset_weight("one", g))
    with pytest.raises(DomainError) as exc:
        tempered_op_taylor_current(x, spec)
    assert str(exc.value) == (
        "a Gamma ratio overflows binary64 (math.exp range) from lattice offset 23: "
        "this signal admits a horizon of at most 22 from its base point"
    )


def test_op_taylor_future_matches_direct():
    g = Grid(0.0, 6, 12)
    x = preset_signal("sin10k", g)
    for wname in ("one", "exp:-1", "case3"):
        w = preset_weight(wname, g)
        for kind, order, K in (
            (OperatorKind.GL, 0.5, 4),
            (OperatorKind.GL, -0.5, 2),
            (OperatorKind.RL, 0.5, 4),
            (OperatorKind.CAPUTO, 1.5, 3),
        ):
            spec = OperatorSpec(kind, order, w)
            rep = tempered_op_taylor_future(x, spec, K)
            direct = apply_operator(x, spec)
            dev = np.max(np.abs(rep.body - direct.body))
            assert dev < 1e-10, (wname, kind, order, dev)


def test_evaluation_point_forms_read_a_weight_shallower_than_the_signal():
    # the difference rows stop at the shallower of the two histories, so
    # the weight needs only what the series and the residual read
    x = preset_signal("sin10k", Grid(0.0, 4, 6))
    spec = OperatorSpec(OperatorKind.CAPUTO, 1.5, make_weight(Grid(0.0, 2, 6), rate=-0.1))
    direct = apply_operator(x, spec).body
    assert np.max(np.abs(tempered_op_taylor_current(x, spec).body - direct)) < 1e-12
    # the residual's 4th difference reads the weight down to offset -3
    with pytest.raises(InsufficientHistory, match="down to offset -3"):
        tempered_op_taylor_future(x, spec, 3)
    spec = OperatorSpec(OperatorKind.CAPUTO, 1.5, make_weight(Grid(0.0, 3, 6), rate=-0.1))
    direct = apply_operator(x, spec).body
    assert np.max(np.abs(tempered_op_taylor_future(x, spec, 3).body - direct)) < 1e-12


@pytest.mark.parametrize("wname", ["one", "case3", "exp:-1", "case4"])
@pytest.mark.parametrize("order", [1.0, 2.0, 3.0])
def test_op_taylor_future_exact_at_integer_orders(wname, order):
    # degrees past m - 1 have no term at offset m: at a positive integer
    # order the Gamma poles of such a term cancel to a nonzero basis, so
    # adding it would put the output off the direct operator by O(1)
    for N in (1, 2, 3, 4, 7, 12, 24):
        g = Grid(0.0, 6, N)
        x = preset_signal("sin10k", g)
        spec = OperatorSpec(OperatorKind.GL, order, preset_weight(wname, g))
        direct = gl_tempered(x, order, spec.weight).body
        for K in range(6):
            dev = np.max(np.abs(tempered_op_taylor_future(x, spec, K).body - direct))
            assert dev < 1e-10, (N, K, dev)


def test_op_taylor_future_polynomial_residual_vanishes():
    g = Grid(0.0, 6, 10)
    x = make_signal_from_fn(g, lambda k: k * k)
    w = preset_weight("one", g)
    spec = OperatorSpec(OperatorKind.CAPUTO, 1.5, w)
    rep = tempered_op_taylor_future(x, spec, 3)
    from nablatc.operators import caputo_tempered

    np.testing.assert_allclose(rep.body, caputo_tempered(x, 1.5, w).body, atol=1e-11)


def test_op_taylor_future_degree_too_low():
    g = Grid(0.0, 6, 8)
    x = preset_signal("sin10k", g)
    w = preset_weight("one", g)
    with pytest.raises(DegreeTooLow):
        tempered_op_taylor_future(x, OperatorSpec(OperatorKind.CAPUTO, 1.5, w), 1)


def test_current_roundtrip_all_pairs_exact_families():
    # polynomial and dyadic-geometric signals keep the whole difference
    # table in exact binary64, so the reconstruction is exact
    for sname in ("poly:2,3,1", "geom:2"):
        g = Grid(0.0, 2, 16)
        s = preset_signal(sname, g)
        for ko in range(1, 17):
            for jo in range(-2, ko + 1):
                assert reconstruct_from_current(s, ko, jo) == pytest.approx(
                    s.at(jo), abs=1e-10
                )


def test_current_roundtrip_short_lags_generic_signal():
    g = Grid(0.0, 2, 16)
    s = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    for ko in range(1, 17):
        for t in (0, 1, 2, 3):
            jo = ko - t
            assert reconstruct_from_current(s, ko, jo) == pytest.approx(
                s.at(jo), abs=1e-12
            )


def test_current_roundtrip_rejects_forward_target():
    g = Grid(0.0, 0, 4)
    s = preset_signal("sin10k", g)
    with pytest.raises(InsufficientLags):
        reconstruct_from_current(s, 2, 3)


def test_insufficient_lags_is_one_class():
    import nablatc.identities as identities
    import nablatc.operators as operators
    import nablatc.taylor as taylor

    assert taylor.InsufficientLags is identities.InsufficientLags
    assert taylor.InsufficientLags is operators.InsufficientLags
