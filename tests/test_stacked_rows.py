"""The stacked core battery against one-instance calls, on bytes.

The eight core groups evaluate each side of their identity once per stack
of instances: rows zero-padded past their own horizon, one per instance.
Each row must equal the one-row call of the same checker bit for bit, a
batch must raise the error of its first failing row, and the 2-D ``z`` route
of ``causal_sum`` must equal the 1-D call on every row.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nablatc import identities, suite
from nablatc.errors import NablaError, batched
from nablatc.identities import (
    GL_RL_AGREE,
    MIXED_COMPOSITION,
    TOL_EXACT,
    IdentityReport,
    run_rows,
)
from nablatc.laplace import check_transform_rule_gl, transform_rule_gl_reports
from nablatc.operators import causal_sum
from nablatc.presets import preset_signal, preset_weight
from nablatc.signals import Grid, Signal
from nablatc.special import gl_coefficients


# ---------------------------------------------------------------------------
# causal_sum with one z per row
# ---------------------------------------------------------------------------

ORDERS = st.one_of(
    st.floats(min_value=-3.5, max_value=3.5),
    st.integers(min_value=-3, max_value=3).map(float),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(ORDERS, st.integers(min_value=1, max_value=64)), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([None, np.inf, -np.inf, np.nan]),
)
@example([(0.5, 1), (-1.0, 64), (2.0, 7)], 0, np.inf)
def test_causal_sum_rows_of_z_match_1d_calls(rows, seed, past_end):
    """Row r of a 2-D ``c`` against a 2-D ``z``, both zero-padded past the
    row's own N, equals the 1-D call on that row (the tiled einsum), and a
    non-finite coefficient past a row's N reaches no output of that row."""
    rng = np.random.default_rng(seed)
    orders = [o for o, _ in rows]
    Ns = [n for _, n in rows]
    L = max(Ns)
    c = np.array(gl_coefficients(orders, L).coeffs)
    z = np.zeros((len(rows), L))
    for r, n in enumerate(Ns):
        z[r, :n] = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    short = int(np.argmin(Ns))
    if past_end is not None and Ns[short] < L:
        c[short, Ns[short] :] = past_end
    out = causal_sum(c, z)
    c0 = gl_coefficients(orders[0], L).coeffs
    shared = causal_sum(c0, z)  # one coefficient row for every z row
    for r, n in enumerate(Ns):
        expected = causal_sum(gl_coefficients(orders[r], n).coeffs, z[r, :n])
        assert out[r, :n].tobytes() == expected.tobytes()
        assert shared[r, :n].tobytes() == causal_sum(c0[:n], z[r, :n]).tobytes()


# ---------------------------------------------------------------------------
# every core group against a loop of one-row checker calls
# ---------------------------------------------------------------------------


def _one_at_a_time(check, rows, tol):
    return [run_rows(check, [row], tol)[0] for row in rows]


def _no_stack_of_one(stacked):
    # a suite pass stacks whole batches; a stack of one is a batch that
    # fell back to running its rows one at a time
    def hooked(check, rows, tol):
        if len(rows) == 1:
            raise AssertionError("the stacked pass fell back to stacks of one")
        return stacked(check, rows, tol)

    return hooked


@pytest.mark.parametrize("group", suite.CORE_GROUPS)
@pytest.mark.parametrize("perturb", [None, 1e-6])
def test_stacked_groups_equal_one_row_calls(group, perturb, monkeypatch):
    for seed in range(10):
        with monkeypatch.context() as m:
            m.setattr(identities, "_stacked", _no_stack_of_one(identities._stacked))
            stacked = suite.run_suite(seed=seed, groups=(group,), perturb=perturb)
        with monkeypatch.context() as m:
            m.setattr(suite, "run_rows", _one_at_a_time)
            looped = suite.run_suite(seed=seed, groups=(group,), perturb=perturb)
        assert json.dumps([r.to_dict() for r in stacked]) == json.dumps(
            [r.to_dict() for r in looped]
        )


def test_rows_of_different_weight_grids_and_stages():
    # a weight on a longer grid than its signal, and two integer stages in
    # one batch: each row still equals its one-row call
    rows = []
    for i, (beta, n, outer) in enumerate(((0.5, 1, "rl"), (1.5, 2, "caputo"), (0.3, 2, "rl"))):
        g = Grid(0.25 * i, history=n, horizon=12 + 5 * i)
        x = preset_signal("sin10k", g)
        wg = Grid(g.a, history=n + 1, horizon=g.horizon + 3) if i == 1 else g
        rows.append((x, preset_weight("case4", wg), beta, n, outer))
    stacked = run_rows(MIXED_COMPOSITION, rows, 1e-11)
    for (x, w, beta, n, outer), rep in zip(rows, stacked):
        assert rep == run_rows(MIXED_COMPOSITION, [(x, w, beta, n, outer)], TOL_EXACT)[0]


def test_rows_with_empty_comparison_windows():
    # n = 2 on a horizon of 1: the window {a+n, ..., a+N} is empty, which
    # reports 0 at a + n, in a stack of its own and beside a longer row
    def row(a, N):
        g = Grid(a, history=2, horizon=N)
        return preset_signal("sin10k", g), preset_weight("case4", g), 0.5, 2, "rl"

    empty = [row(0.25, 1), row(-1.5, 1)]
    longer = row(1.0, 9)
    for rows in (empty, [empty[0], longer, empty[1]]):
        reports = run_rows(MIXED_COMPOSITION, rows, 1e-11)
        for (x, w, beta, n, outer), rep in zip(rows, reports):
            assert rep == run_rows(MIXED_COMPOSITION, [(x, w, beta, n, outer)], TOL_EXACT)[0]
            if x.grid.horizon < n:
                params = {"beta": beta, "n": n}
                assert rep == IdentityReport("mixed-composition-rl", 0.0, x.grid.a + n, 1e-11, params)


# ---------------------------------------------------------------------------
# a batch raises the error of its first failing row
# ---------------------------------------------------------------------------


def _instances(k):
    rng = np.random.default_rng(11)
    return [(*suite._core_instance(rng, i, history=2), 0.45) for i in range(k)]


def _overflowing(x, w):
    # finite samples whose weighted values overflow from offset 3 on
    vals = np.array(x.values)
    vals[x.grid.position(3) :] = 1e308
    return Signal(x.grid, vals), preset_weight("case1", x.grid)


def _error_of(thunk):
    # numpy stays silent, so only the library's own checks can raise
    with pytest.raises(NablaError) as info, np.errstate(all="ignore"):
        thunk()
    return type(info.value), str(info.value)


def test_batch_raises_its_bad_rows_own_error():
    rows = _instances(6)
    x, w = _overflowing(*rows[3][:2])
    rows[3] = (x, w, 0.45)
    expected = _error_of(lambda: run_rows(GL_RL_AGREE, [rows[3]], TOL_EXACT))
    assert "lattice offset 3" in expected[1]
    assert _error_of(lambda: run_rows(GL_RL_AGREE, rows, 1e-11)) == expected


def test_batch_raises_the_first_failing_rows_error():
    rows = _instances(6)
    x, w = _overflowing(*rows[4][:2])
    rows[4] = (x, w, 0.45)
    rows[1] = (rows[1][0], rows[1][1], 1.0)  # an integer order: IntegerOrder
    first = _error_of(lambda: run_rows(GL_RL_AGREE, [rows[1]], TOL_EXACT))
    assert _error_of(lambda: run_rows(GL_RL_AGREE, rows, 1e-11)) == first
    # the other way round: the overflow comes first
    rows[1], rows[4] = rows[4], rows[1]
    first = _error_of(lambda: run_rows(GL_RL_AGREE, [rows[1]], TOL_EXACT))
    assert "non-finite" in first[1]
    assert _error_of(lambda: run_rows(GL_RL_AGREE, rows, 1e-11)) == first


def test_batched_replays_a_failed_batch_one_item_at_a_time():
    calls = []

    def run(items):
        calls.append(list(items))
        if len(items) > 1 and "mixed" in items:
            raise RuntimeError("the batch fails as a whole")
        for item in items:
            if item.startswith("bad"):
                raise ValueError(item)
        return [item.upper() for item in items]

    assert batched(run, ["a", "b"]) == ["A", "B"] and calls == [["a", "b"]]
    # a batch that fails only as a whole returns each item's own result
    calls.clear()
    assert batched(run, ["a", "mixed"]) == ["A", "MIXED"]
    assert calls == [["a", "mixed"], ["a"], ["mixed"]]
    # the first failing item's own error, and nothing run past it
    calls.clear()
    with pytest.raises(ValueError, match="^bad1$"):
        batched(run, ["a", "bad1", "bad2", "c"])
    assert calls == [["a", "bad1", "bad2", "c"], ["a"], ["bad1"]]
    # one-item and empty batches are not rerun
    calls.clear()
    with pytest.raises(ValueError, match="^bad0$"):
        batched(run, ["bad0"])
    assert batched(run, []) == []
    assert calls == [["bad0"], []]


# ---------------------------------------------------------------------------
# satellites: suite weights on Python floats, one GL output per (alpha, lambda)
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-4.0, max_value=4.0).map(lambda a: float(np.float64(a).round(3))),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=64),
    st.sampled_from([1, 3]),
)
@example(-4.0, 3, 64, 1)
@example(4.0, 3, 64, 1)
def test_suite_weights_match_presets(a, history, N, fam):
    grid = Grid(a, history=history, horizon=N)
    got = suite._instance_weight(np.random.default_rng(0), grid, fam)
    expected = preset_weight(f"case{fam + 1}", grid)
    assert type(got) is type(expected)
    assert got.values.tobytes() == expected.values.tobytes()


def test_transform_rule_gl_points_share_one_output():
    x = preset_signal("sin10k", Grid(0.0, history=2, horizon=400))
    points = (1.0 + 0.45j, 0.8 - 0.2j, 1.1 + 0.05j)
    for lam in (0.0, 2.0):
        for alpha in (0.5, -1.0):
            reps = transform_rule_gl_reports(x, alpha, lam, points, tol=1e-7)
            assert [r.to_dict() for r in reps] == [
                check_transform_rule_gl(x, alpha, lam, s, tol=1e-7).to_dict() for s in points
            ]
    assert math.isfinite(reps[0].max_abs_dev)
