"""Acceptance gate: one test per exit criterion, each printing a pass/fail
line with its measured headline number.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from nablatc.operators import gl_tempered, rl_tempered
from nablatc.presets import preset_signal, preset_weight
from nablatc.signals import Grid
from nablatc.suite import CORE_GROUPS, GROUPS, run_suite

SEED = 20240810


def _line(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [criterion {num}] {text}")


@pytest.fixture(scope="module")
def suite_results():
    """Full suite reports grouped by identity group, with per-group timing."""
    by_group = {}
    timings = {}
    for name, _ in GROUPS:
        t0 = time.perf_counter()
        reports = run_suite(seed=SEED, groups=(name,))
        timings[name] = time.perf_counter() - t0
        by_group[name] = reports
    return by_group, timings


def _worst(reports):
    i = int(np.argmax([r.max_abs_dev for r in reports]))
    return reports[i]


def test_criterion_1_error_table():
    """Four-case agreement of the single-sum and difference-of-sum forms."""
    t0 = time.perf_counter()
    grid = Grid(a=0.0, history=1, horizon=100)
    x = preset_signal("sin10k", grid)
    worst = 0.0
    for case in ("case1", "case2", "case3", "case4"):
        w = preset_weight(case, grid)
        dev = float(
            np.max(np.abs(gl_tempered(x, 0.5, w).body - rl_tempered(x, 0.5, w).body))
        )
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _line(1, ok, f"four-case error table: max |gl-rl| = {worst:.3e} "
                 f"(tol 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_divergent_vs_bounded_weight():
    """Vanishing weight blows the output up with the analyzed signs; the
    eps-shifted weight keeps it bounded."""
    t0 = time.perf_counter()
    grid = Grid(a=0.0, history=0, horizon=100)
    x = preset_signal("sin10k", grid)
    w_vanish = preset_weight("halfgeom", grid)
    w_shift = preset_weight("halfgeom+eps", grid)
    up = gl_tempered(x, 0.5, w_vanish).body
    down = gl_tempered(x, -0.5, w_vanish).body
    bounded = max(
        float(np.max(np.abs(gl_tempered(x, a, w_shift).body))) for a in (0.5, -0.5)
    )
    elapsed = time.perf_counter() - t0
    ok = up[-1] > 1e6 and down[-1] < -1e6 and bounded < 1e3 and elapsed < 1.0
    _line(2, ok, f"vanishing weight: end values {up[-1]:.2e} / {down[-1]:.2e} "
                 f"(thresholds +/-1e6), shifted weight max {bounded:.1f} < 1e3, "
                 f"{elapsed:.2f}s")
    assert up[-1] > 1e6
    assert down[-1] < -1e6
    assert bounded < 1e3
    assert elapsed < 1.0


def test_criterion_3_identity_battery(suite_results):
    """Seeded random battery over the basic relations, 100 instances per
    identity, deviations at 1e-11."""
    by_group, timings = suite_results
    reports = [r for g in CORE_GROUPS for r in by_group[g]]
    elapsed = sum(timings[g] for g in CORE_GROUPS)
    counts = defaultdict(int)
    for r in reports:
        ident = r.identity_id
        if ident.startswith("mixed-composition"):
            ident = "mixed-composition"  # four split forms of one relation
        counts[ident] += 1
    worst = _worst(reports)
    ok = all(r.passed for r in reports) and elapsed < 30.0
    _line(3, ok, f"identity battery: {len(reports)} checks over "
                 f"{len(counts)} identities, worst {worst.max_abs_dev:.2e} "
                 f"({worst.identity_id}, tol 1e-11), {elapsed:.1f}s")
    assert min(counts.values()) >= 100
    for r in reports:
        assert r.passed, (r.identity_id, r.max_abs_dev, r.params)
    assert elapsed < 30.0


def test_criterion_4_order_limits(suite_results):
    """Unilateral order limits at eps = 1e-7 on the stated windows, with
    monotone decrease across the eps sweep."""
    by_group, _ = suite_results
    reports = by_group["order-limit"]
    diff_reports = [r for r in reports if "sum" not in r.identity_id]
    sum_reports = [r for r in reports if "sum" in r.identity_id]
    assert len(diff_reports) == 32  # 4 weights x 2 stages x 2 kinds x 2 sides
    for r in diff_reports:
        assert r.passed and r.params["monotone"], (r.identity_id, r.params)
        assert r.max_abs_dev <= 1e-5
    for r in sum_reports:
        assert r.passed and r.params["monotone"]
        assert r.max_abs_dev <= 1e-6
    worst = _worst(diff_reports)
    _line(4, True, f"order limits: {len(reports)} sweeps, worst deviation at "
                   f"eps=1e-7 is {worst.max_abs_dev:.2e} (tol 1e-5), all monotone")


def test_criterion_5_taylor_representations(suite_results):
    """Series representations against direct operators at 1e-10, including
    the all-pairs lag reconstruction on a 16-point window."""
    by_group, _ = suite_results
    reports = by_group["taylor-representations"]
    roundtrips = [r for r in reports if r.identity_id == "taylor-current-roundtrip"]
    assert len(roundtrips) == 3
    for r in reports:
        assert r.passed, (r.identity_id, r.max_abs_dev, r.params)
    worst = _worst([r for r in reports if r.identity_id != "taylor-series-sweep"])
    _line(5, True, f"series representations: {len(reports)} checks, worst "
                   f"{worst.max_abs_dev:.2e} ({worst.identity_id}, tol 1e-10)")


def test_criterion_6_leibniz(suite_results):
    """Product-rule expansions, all four operator forms, at 1e-10."""
    by_group, _ = suite_results
    reports = by_group["leibniz"]
    forms = {r.identity_id for r in reports}
    assert forms == {"leibniz-integer", "leibniz-gl", "leibniz-rl", "leibniz-caputo"}
    for r in reports:
        assert r.passed, (r.identity_id, r.max_abs_dev, r.params)
    worst = _worst(reports)
    _line(6, True, f"product rules: {len(reports)} checks over 4 forms, worst "
                   f"{worst.max_abs_dev:.2e} (tol 1e-10)")


def test_criterion_7_laplace(suite_results):
    """Transform rules at sampled points inside half the printed region on a
    256-point horizon, over four times the longest series a rule's transform
    reads (the reports of a 3000-point horizon), and the convolution
    exchanges in the time domain."""
    by_group, _ = suite_results
    rules = by_group["laplace-rules"]
    convs = by_group["convolution"]
    for r in rules:
        if r.identity_id != "laplace-tempering-shift":
            # the operator transform rules sample s inside half the
            # printed region; the shift rule has its own wider region
            s = complex(*r.params["s"])
            lam = r.params["lambda"]
            assert abs(s - 1.0) <= 0.5 * min(1.0, abs(1.0 - lam)) + 1e-12
            assert r.tolerance == 1e-7
        assert r.passed, (r.identity_id, r.max_abs_dev, r.params)
    for r in convs:
        assert r.tolerance == 1e-10
        assert r.passed, (r.identity_id, r.max_abs_dev, r.params)
    worst_rule = _worst(rules)
    worst_conv = _worst(convs)
    _line(7, True, f"transform rules: {len(rules)} checks, worst "
                   f"{worst_rule.max_abs_dev:.2e} (tol 1e-7); convolution "
                   f"exchanges: {len(convs)} checks, worst "
                   f"{worst_conv.max_abs_dev:.2e} (tol 1e-10)")


def test_criterion_8_solver_vs_kernel(suite_results):
    """Solver and kernel series agree across the order/rate grid; the
    zero-rate trajectory is exactly the weighted constant."""
    by_group, _ = suite_results
    reports = by_group["ml-solver"]
    grid_reports = [r for r in reports if r.identity_id == "ml-solver-agreement"]
    assert len(grid_reports) == 16
    for r in grid_reports:
        assert r.passed and r.max_abs_dev <= 1e-10, (r.params, r.max_abs_dev)
    mu0 = [r for r in reports if r.identity_id == "ml-solver-mu-zero"][0]
    assert mu0.max_abs_dev == 0.0
    worst = _worst(grid_reports)
    _line(8, True, f"solver vs kernel: 16-cell grid, worst per-unit deviation "
                   f"{worst.max_abs_dev:.2e} (tol 1e-10); mu=0 trajectory exact")


def test_criterion_9_gap_decay(suite_results):
    """The gap between the two fractional differences shrinks from the
    window midpoint to its end for every seeded instance with nonzero
    initial data."""
    by_group, _ = suite_results
    reports = [
        r
        for r in by_group["rl-caputo-decay"]
        if r.identity_id == "rl-caputo-decay-large-k"
    ]
    assert len(reports) == 6
    for r in reports:
        assert r.passed, r.params
        assert r.params["gap_end"] < r.params["gap_mid"], r.params
    worst = max(r.params["gap_end"] / r.params["gap_mid"] for r in reports)
    _line(9, True, f"form-gap decay: {len(reports)} instances, worst "
                   f"end/mid ratio {worst:.3f} < 1")
