"""Seeded verification suite.

Runs every identity checker over seeded random instances and returns the
reports; the CLI serializes them to JSON.  Instance families are chosen so
that each identity is numerically well-conditioned at its stated tolerance:
weights keep ``|w(j)/w(k)|`` bounded by a small constant on the evaluation
window (growth in that ratio multiplies the rounding envelope), and
evaluation-point expansions pair signals and weights whose weighted
differences do not explode.

Groups run in registry order with an independent deterministic stream per
group, so filtering never changes the instances a group sees.
"""

from __future__ import annotations

import math
import os
from typing import Callable

import numpy as np

from .errors import ConfigError
from .identities import (
    IdentityReport,
    TOL_EXACT,
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
from .laplace import (
    MLParams,
    check_convolution_commutation,
    check_convolution_with_ic,
    check_tempering_shift,
    check_transform_rule_diff,
    check_transform_rule_gl,
    fde_solve,
    ml_function,
)
from .operators import (
    OperatorKind,
    OperatorSpec,
    apply_operator,
    set_fault_injection,
)
from .presets import preset_signal, preset_weight, weight_case_fn
from .signals import Grid, Signal, Weight, make_signal_from_fn, make_weight
from .taylor import (
    reconstruct_from_current,
    reconstruct_initial,
    taylor_series_initial,
    tempered_op_taylor_current,
    tempered_op_taylor_future,
    tempered_op_taylor_initial,
)

__all__ = [
    "CORE_GROUPS",
    "GROUPS",
    "resolve_tolerance_scale",
    "run_suite",
    "reports_to_json_dict",
]

CORE_INSTANCES = 100

#: Groups exercised by the seeded-random basic-relations battery.
CORE_GROUPS = (
    "gl-rl-agree",
    "rl-caputo-correction",
    "sum-composition",
    "diff-of-sum",
    "sum-of-diff",
    "mixed-composition",
    "taylor-remainder",
    "integer-defect",
)


def _alpha(rng: np.random.Generator, lo: float = 0.05, hi: float = 1.95) -> float:
    while True:
        al = float(rng.uniform(lo, hi))
        if abs(al - round(al)) >= 0.05:
            return al


def _instance_signal(rng: np.random.Generator, grid: Grid, idx: int) -> Signal:
    # all families stay O(1) on the grid: the identity tolerances are
    # absolute, so the signal scale is part of the contract
    fam = idx % 4
    if fam == 0:
        return Signal(grid, rng.standard_normal(grid.npoints))
    a = grid.a
    if fam == 1:
        return _float_signal(grid, lambda k: math.sin(10.0 * k))
    if fam == 2:
        c = rng.uniform(-2.0, 2.0, size=4).tolist()
        span = grid.horizon
        return _float_signal(
            grid, lambda k: sum(cj * ((k - a) / span) ** j for j, cj in enumerate(c))
        )
    r = float(rng.uniform(0.75, 1.03))
    return _float_signal(grid, lambda k: r ** (k - a))


def _float_signal(grid: Grid, f: Callable[[float], float]) -> Signal:
    """``f`` at every lattice point, passed as a Python float.

    Python floats go through the same IEEE operations (and the same libm
    calls) as numpy float64 scalars, at a fraction of the call cost.  What
    they do not share is overflow: a Python power raises instead of giving
    inf, so this is for functions that stay finite on the grid.
    """
    vals = np.fromiter(map(f, grid.k_values().tolist()), np.float64, grid.npoints)
    return Signal(grid, vals)


def _instance_weight(rng: np.random.Generator, grid: Grid, idx: int) -> Weight:
    fam = idx % 7
    if fam < 4:
        return preset_weight(f"case{fam + 1}", grid)
    if fam == 4:
        return preset_weight("one", grid)
    if fam == 5:
        return make_weight(grid, rate=float(rng.uniform(-1.0, 0.0)))
    mag = 10.0 ** float(rng.uniform(-3.0, 3.0))
    signs = rng.choice([-1.0, 1.0], size=grid.npoints)
    return make_weight(grid, values=mag * signs)


def _core_instance(
    rng: np.random.Generator, idx: int, history: int, n_max: int = 64
) -> tuple[Signal, Weight]:
    N = int(rng.integers(8, n_max + 1))
    a = float(np.round(rng.uniform(-4.0, 4.0), 3))
    grid = Grid(a, history=history, horizon=N)
    return _instance_signal(rng, grid, idx), _instance_weight(rng, grid, idx // 4)


def _horizon_cap(alpha: float, above_one: int = 32) -> int:
    # identities whose intermediate magnitudes scale like N**(alpha + n)
    # need shorter horizons for the two-stage orders to stay at their
    # absolute tolerance
    return 64 if alpha < 1.0 else above_one


def _tag(r: IdentityReport, **extra) -> IdentityReport:
    """A copy of ``r`` whose params also hold ``extra`` (a new key goes
    last, an existing one keeps its place)."""
    return IdentityReport(
        r.identity_id, r.max_abs_dev, r.argmax_k, r.tolerance, r.passed,
        {**r.params, **extra},
    )


def _alpha_instances(
    rng: np.random.Generator,
    check: Callable[..., IdentityReport],
    ts: float,
    lo: float = 0.05,
    hi: float = 1.95,
    cap: int = 64,
) -> list[IdentityReport]:
    """``check(x, alpha, w, tol=...)`` on every core instance, tagged with
    its index.  Each instance draws its order from [lo, hi] first, then its
    signal and weight on a horizon of at most ``_horizon_cap(alpha, cap)``."""
    out = []
    for i in range(CORE_INSTANCES):
        al = _alpha(rng, lo, hi)
        x, w = _core_instance(rng, i, history=2, n_max=_horizon_cap(al, cap))
        out.append(_tag(check(x, al, w, tol=TOL_EXACT * ts), instance=i))
    return out


# ---------------------------------------------------------------------------
# group runners
# ---------------------------------------------------------------------------


def _run_gl_rl_agree(rng, ts):
    return _alpha_instances(rng, check_gl_rl_agreement, ts)


def _run_rl_caputo_correction(rng, ts):
    return _alpha_instances(rng, check_rl_caputo_correction, ts)


def _run_sum_composition(rng, ts):
    return _alpha_instances(rng, check_sum_composition, ts, cap=16)


def _run_diff_of_sum(rng, ts):
    return _alpha_instances(rng, check_difference_of_sum, ts)


def _run_sum_of_diff(rng, ts):
    out = []
    for kind in ("rl", "caputo"):
        out += _alpha_instances(
            rng,
            lambda x, al, w, tol: check_sum_of_difference(x, al, w, kind, tol=tol),
            ts,
        )
    return out


def _run_mixed_composition(rng, ts):
    out = []
    for i in range(CORE_INSTANCES):
        n = 1 + i % 2
        beta = _alpha(rng, 0.05, n - 0.05)
        x, w = _core_instance(rng, i, history=n)
        outer = "rl" if (i // 2) % 2 == 0 else "caputo"
        rep = check_mixed_composition(x, beta, n, w, outer, tol=TOL_EXACT * ts)
        out.append(_tag(rep, instance=i))
    return out


def _run_taylor_remainder(rng, ts):
    out = []
    for m, lo, cap in ((0, 0.05, 32), (1, 1.05, 64)):
        out += _alpha_instances(
            rng,
            lambda x, al, w, tol: check_taylor_remainder_forms(x, al, w, m, tol=tol),
            ts,
            lo,
            cap=cap,
        )
    return out


def _run_integer_defect(rng, ts):
    out = []
    for i in range(CORE_INSTANCES):
        n = 1 + i % 3
        x, w = _core_instance(rng, i, history=n)
        out.append(_tag(check_integer_defect(x, n, w, tol=TOL_EXACT * ts), instance=i))
    return out


def _run_order_limits(rng, ts):
    out = []
    for j, wname in enumerate(("one", "case1", "case3", "case4")):
        grid = Grid(0.5 * j, history=2, horizon=25)
        w = preset_weight(wname, grid)
        x = preset_signal("sin10k" if j % 2 == 0 else "geom:0.9", grid)
        out.append(_tag(check_order_limit_sum(x, w, tol=1e-6 * ts), weight=wname))
        for n in (1, 2):
            for kind in ("caputo", "rl"):
                for side in ("at_n", "at_n_minus_1"):
                    out.append(
                        _tag(
                            check_order_limit_diff(x, w, n, side, kind, tol=1e-5 * ts),
                            weight=wname,
                        )
                    )
    return out


def _run_uniform_convergence(rng, ts):
    del ts  # the envelope bound carries its own rounding allowance
    out = []
    for wname in ("case1", "case2", "case4"):
        grid = Grid(0.0, history=1, horizon=40)
        w = preset_weight(wname, grid)
        x = preset_signal("sin10k", grid)
        seq = [
            Signal(grid, x.values + 1.0 / i) for i in range(1, 21)
        ]
        rep = check_uniform_convergence_exchange(seq, x, 0.5, w)
        out.append(_tag(rep, weight=wname))
    return out


def _run_leibniz(rng, ts):
    # the expansion multiplies high-order tempered differences of f against
    # high-order sums of g, so f is paired with weights under which w*f has
    # decaying differences; otherwise the O(1) identity is evaluated through
    # astronomically large cancelling terms
    out = []
    cases = [
        ("poly:0,1", "sin10k", "exp:0.25", 24),
        ("sin10k", "geom:0.8", "case3", 20),
        ("geom:0.8", "poly:1,0.1,0.01", "one", 20),
        ("sin10k", "sin10k", "case3", 16),
    ]
    kinds = [
        (OperatorKind.INTEGER_NABLA, 1.0),
        (OperatorKind.INTEGER_NABLA, 2.0),
        (OperatorKind.GL, 0.5),
        (OperatorKind.GL, -0.5),
        (OperatorKind.RL, 0.5),
        (OperatorKind.RL, 1.5),
        (OperatorKind.CAPUTO, 0.5),
        (OperatorKind.CAPUTO, 1.5),
    ]
    for fname, gname, wname, N in cases:
        grid = Grid(0.0, history=3, horizon=N)
        f = preset_signal(fname, grid)
        g = preset_signal(gname, grid)
        w = preset_weight(wname, grid)
        for kind, order in kinds:
            spec = OperatorSpec(kind, order, w)
            rep = check_leibniz(f, g, spec, tol=1e-10 * ts)
            out.append(_tag(rep, f=fname, g=gname, weight=wname))
    return out


def _vs_direct(
    identity_id: str,
    rep: Signal,
    x: Signal,
    spec: OperatorSpec,
    tol: float,
    params: dict,
) -> IdentityReport:
    """A series representation ``rep`` of ``spec`` applied to ``x`` against
    the direct operator, pointwise on the evaluation window."""
    direct = apply_operator(x, spec)
    devs = np.abs(rep.body - direct.body)
    return IdentityReport.from_devs(identity_id, devs, x.grid.a + 1, tol, params)


def _run_taylor_representations(rng, ts):
    out = []
    tol = 1e-10 * ts

    # base-point representation with remainder, all kinds
    grid = Grid(0.0, history=7, horizon=16)
    # pairings keep the initial-value terms damped: growing weights place
    # the ratio w(a)/w(k) against the growing basis, and the unit weight is
    # paired with a slowly varying signal
    pairings = [
        ("sin10k", "case1"),
        ("sin10k", "case3"),
        ("sin10k", "exp:-0.5"),
        ("smooth", "one"),
    ]
    for sname, wname in pairings:
        if sname == "smooth":
            x = make_signal_from_fn(grid, lambda k: math.sin(0.6 * k) + 0.1 * k)
        else:
            x = preset_signal(sname, grid)
        w = preset_weight(wname, grid)
        for kind, order, K in (
            (OperatorKind.GL, 0.5, 5),
            (OperatorKind.GL, -0.7, 4),
            (OperatorKind.RL, 0.5, 5),
            (OperatorKind.CAPUTO, 1.5, 5),
            (OperatorKind.INTEGER_NABLA, 2.0, 5),
        ):
            spec = OperatorSpec(kind, order, w)
            rep = tempered_op_taylor_initial(x, spec, K)
            params = {"kind": kind.value, "order": order, "K": K, "weight": wname}
            out.append(_vs_direct("taylor-op-initial", rep, x, spec, tol, params))

    # reconstruction from base-point data is a finite identity
    for sname, K in (("sin10k", 3), ("poly:1,2,1", 4), ("geom:1.4", 3)):
        g2 = Grid(1.0, history=K + 1, horizon=20)
        s = preset_signal(sname, g2)
        rec = reconstruct_initial(s, K)
        devs = np.abs(rec.values - s.window(0, 20))
        params = {"signal": sname, "K": K}
        ident = "taylor-initial-reconstruction"
        out.append(IdentityReport.from_devs(ident, devs, g2.a, tol, params))

    # evaluation-point representation: pairings with tame weighted differences
    fams = [
        ("sin10k", "case3"),
        ("smooth", "exp:-1"),
        ("poly:1,3,2", "one"),
    ]
    for sname, wname in fams:
        g3 = Grid(0.0, history=2, horizon=24)
        if sname == "smooth":
            s = make_signal_from_fn(g3, lambda k: math.sin(0.6 * k) + 0.1 * k)
        else:
            s = preset_signal(sname, g3)
        w = preset_weight(wname, g3)
        for kind, order in (
            (OperatorKind.GL, 0.5),
            (OperatorKind.GL, -0.5),
            (OperatorKind.RL, 1.5),
            (OperatorKind.CAPUTO, 0.5),
        ):
            spec = OperatorSpec(kind, order, w)
            rep = tempered_op_taylor_current(s, spec)
            params = {
                "kind": kind.value, "order": order, "signal": sname, "weight": wname
            }
            out.append(_vs_direct("taylor-op-current", rep, s, spec, tol, params))

    # future/current-instant expansion with the double-sum residual
    g4 = Grid(0.0, history=6, horizon=12)
    s4 = preset_signal("sin10k", g4)
    for wname in ("one", "exp:-1", "case3", "case4"):
        w4 = preset_weight(wname, g4)
        for kind, order, K in (
            (OperatorKind.GL, 0.5, 4),
            (OperatorKind.GL, -0.5, 2),
            (OperatorKind.RL, 0.5, 4),
            (OperatorKind.CAPUTO, 1.5, 3),
        ):
            spec = OperatorSpec(kind, order, w4)
            rep = tempered_op_taylor_future(s4, spec, K)
            params = {"kind": kind.value, "order": order, "K": K, "weight": wname}
            out.append(_vs_direct("taylor-op-future", rep, s4, spec, tol, params))

    # all-pairs lag reconstruction from evaluation-point differences; exact
    # for signals whose difference tables stay in exact binary64 range
    for sname in ("poly:2,3,1", "geom:2", "geom:1.5"):
        g5 = Grid(0.0, history=2, horizon=16)
        s5 = preset_signal(sname, g5)
        worst = 0.0
        at = g5.a
        for ko in range(1, 17):
            for jo in range(-2, ko + 1):
                d = abs(reconstruct_from_current(s5, ko, jo) - s5.at(jo))
                if d > worst:
                    worst, at = d, g5.a + ko
        out.append(
            IdentityReport.from_measurement(
                "taylor-current-roundtrip", worst, at, tol, {"signal": sname}
            )
        )

    # truncated series sweep: monotone decrease for expandable signals,
    # termination for polynomials under a constant weight
    g6 = Grid(0.0, history=14, horizon=8)
    for sname, wname in (("geom:2", "one"), ("geom:0.8", "one"), ("poly:1,2,1", "one")):
        s6 = preset_signal(sname, g6)
        w6 = preset_weight(wname, g6)
        for kind, order in ((OperatorKind.GL, 0.5), (OperatorKind.CAPUTO, 0.5)):
            sweep = taylor_series_initial(s6, OperatorSpec(kind, order, w6), 12)
            devs = np.asarray(sweep.deviations)
            degs = np.asarray(sweep.degrees)
            # monotone decrease is only claimed past the pre-asymptotic
            # degrees (two above the integer stage), and only while the
            # deviation is above the rounding floor
            window = (degs[:-1] >= 3) & (devs[:-1] > 1e-12)
            rises = np.diff(devs)[window]
            worst_rise = float(np.max(rises)) if len(rises) else 0.0
            dev_metric = max(worst_rise, 0.0)
            if sname.startswith("poly:"):
                dev_metric = max(dev_metric, float(devs[-1]))
            out.append(
                IdentityReport.from_measurement(
                    "taylor-series-sweep",
                    dev_metric,
                    g6.a + g6.horizon,
                    1e-9 * ts,
                    {"signal": sname, "kind": kind.value, "final_dev": float(devs[-1])},
                )
            )
    return out


def _run_decay(rng, ts):
    del ts  # decay checks compare ratios against 1
    # weights with |w(a)/w(k)| bounded away from underflow: for rapidly
    # growing weights the two-form gap sinks below rounding noise long
    # before the far end of the window and the ratio measures noise
    out = []
    for wname in ("one", "case3", "case4"):
        grid = Grid(0.0, history=2, horizon=400)
        w = preset_weight(wname, grid)
        x = make_signal_from_fn(grid, lambda k: math.sin(10.0 * k) + 1.0)
        for al in (0.5, 1.5):
            rep = check_rl_caputo_asymptotics(x, al, w, "large_k")
            out.append(_tag(rep, weight=wname))
    for wname in ("one", "case4"):
        grid = Grid(0.0, history=1, horizon=20)
        w = preset_weight(wname, grid)
        x = make_signal_from_fn(grid, lambda k: math.sin(10.0 * k) + 1.0)
        rep = check_rl_caputo_asymptotics(
            x,
            0.5,
            w,
            "early_a",
            x_fn=lambda k: math.sin(10.0 * k) + 1.0,
            w_fn=weight_case_fn(wname, 0.0),
        )
        out.append(_tag(rep, weight=wname))
    return out


_S_POINTS = (
    1.0 + 0.45 * complex(math.cos(0.8), math.sin(0.8)),
    1.0 + 0.45 * complex(math.cos(2.4), math.sin(2.4)),
    1.0 + 0.3 * complex(math.cos(4.0), math.sin(4.0)),
)


def _run_laplace_rules(rng, ts):
    out = []
    grid = Grid(0.0, history=2, horizon=3000)
    x = preset_signal("sin10k", grid)
    for lam in (0.0, 2.0, -0.02):
        for al in (0.5, -1.0, 1.5):
            for s in _S_POINTS[:2]:
                out.append(check_transform_rule_gl(x, al, lam, s, tol=1e-7 * ts))
        for kind, order in (("int", 1), ("int", 2), ("rl", 0.5), ("rl", 1.5), ("caputo", 0.5), ("caputo", 1.5)):
            out.append(
                check_transform_rule_diff(x, kind, order, lam, _S_POINTS[2], tol=1e-7 * ts)
            )
    g2 = Grid(0.0, history=1, horizon=900)
    geo = preset_signal("geom:0.8", g2)
    for lam in (0.3, -0.5, 2.0):
        out.append(check_tempering_shift(geo, lam, 1.0 + 0.4j, tol=1e-9 * ts))
    return out


def _run_convolution(rng, ts):
    out = []
    for i, (lam, N) in enumerate(((0.0, 48), (2.0, 48), (-0.5, 48), (0.5, 12))):
        grid = Grid(0.0, history=2, horizon=N)
        x = Signal(grid, rng.standard_normal(grid.npoints))
        y = Signal(grid, rng.standard_normal(grid.npoints))
        for al in (0.5, -0.5, 1.5):
            rep = check_convolution_commutation(x, y, al, lam, tol=1e-10 * ts)
            out.append(_tag(rep, instance=i))
        for order in (1, 2, 0.5, 1.5):
            rep = check_convolution_with_ic(x, y, order, lam, tol=1e-10 * ts)
            out.append(_tag(rep, instance=i))
    return out


def _run_ml_solver(rng, ts):
    out = []
    grid = Grid(0.0, history=1, horizon=50)
    w = preset_weight("case1", grid)
    for al in (0.3, 0.5, 0.7, 0.9):
        for mu in (-0.5, -0.2, 0.2, 0.5):
            sol = fde_solve(al, mu, w, 1.0, 50)
            kern = ml_function(MLParams(al, 1.0, mu), 50)
            lhs = w.window(0, 50) * sol.values
            rhs = kern.values * (w.at(0) * 1.0)
            devs = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
            params = {"alpha": al, "mu": mu}
            ident = "ml-solver-agreement"
            out.append(IdentityReport.from_devs(ident, devs, grid.a, 1e-10 * ts, params))
    # mu = 0 trajectory is bit-exact against the weighted constant
    sol0 = fde_solve(0.5, 0.0, w, 2.5, 50)
    expected = (w.at(0) * 2.5) / w.window(0, 50)
    dev0 = float(np.max(np.abs(sol0.values - expected)))
    out.append(
        IdentityReport.from_measurement(
            "ml-solver-mu-zero", dev0, grid.a, 0.0, {"alpha": 0.5}
        )
    )
    # order-limit continuity of the solver against the first-order recursion
    g20 = Grid(0.0, history=1, horizon=20)
    sol9 = fde_solve(0.999, -0.5, preset_weight("one", g20), 1.0, 20)
    first = (1.0 / 1.5) ** np.arange(21.0)
    dev9 = float(np.max(np.abs(sol9.values - first)))
    out.append(
        IdentityReport.from_measurement(
            "ml-solver-order-continuity", dev9, g20.a + 20, 1e-3 * ts, {"alpha": 0.999}
        )
    )
    return out


GROUPS: tuple[tuple[str, Callable], ...] = (
    ("gl-rl-agree", _run_gl_rl_agree),
    ("rl-caputo-correction", _run_rl_caputo_correction),
    ("sum-composition", _run_sum_composition),
    ("diff-of-sum", _run_diff_of_sum),
    ("sum-of-diff", _run_sum_of_diff),
    ("mixed-composition", _run_mixed_composition),
    ("taylor-remainder", _run_taylor_remainder),
    ("integer-defect", _run_integer_defect),
    ("order-limit", _run_order_limits),
    ("uniform-convergence", _run_uniform_convergence),
    ("leibniz", _run_leibniz),
    ("taylor-representations", _run_taylor_representations),
    ("rl-caputo-decay", _run_decay),
    ("laplace-rules", _run_laplace_rules),
    ("convolution", _run_convolution),
    ("ml-solver", _run_ml_solver),
)


def resolve_tolerance_scale(scale: float | None = None) -> float:
    """The suite's tolerance multiplier: ``scale``, else NT_TOLERANCE_SCALE, else 1.

    Raises:
        ConfigError: unless the value is a finite number > 0.
    """
    source = "tolerance scale"
    if scale is None:
        source = "NT_TOLERANCE_SCALE"
        raw = os.environ.get(source, "1.0")
        try:
            scale = float(raw)
        except ValueError:
            raise ConfigError(f"{source} must be a number, got {raw!r}") from None
    if not (math.isfinite(scale) and scale > 0.0):
        raise ConfigError(f"{source} must be finite and > 0, got {scale!r}")
    return scale


def run_suite(
    seed: int = 0,
    only: str | None = None,
    perturb: float | None = None,
    tolerance_scale: float | None = None,
    groups: tuple[str, ...] | None = None,
) -> list[IdentityReport]:
    """Run the verification suite and return all reports.

    ``only`` keeps groups whose name contains (or is contained in) the
    filter string.  ``perturb`` injects an additive fault into the
    single-sum operator for the duration of the run, to demonstrate that
    the suite notices.  The tolerance scale defaults to the
    NT_TOLERANCE_SCALE environment variable (see
    :func:`resolve_tolerance_scale`).
    """
    tolerance_scale = resolve_tolerance_scale(tolerance_scale)
    selected = []
    for index, (name, runner) in enumerate(GROUPS):
        if groups is not None and name not in groups:
            continue
        if only is not None and only not in name and name not in only:
            continue
        selected.append((index, name, runner))
    reports: list[IdentityReport] = []
    previous = set_fault_injection(perturb or 0.0)
    try:
        for index, name, runner in selected:
            rng = np.random.default_rng([seed, index])
            for r in runner(rng, tolerance_scale):
                # every report is new from this call's runner, with a params
                # dict of its own, so the group key goes in last, in place
                r.params.setdefault("group", name)
                reports.append(r)
    finally:
        set_fault_injection(previous)
    return reports


def reports_to_json_dict(
    reports: list[IdentityReport],
    seed: int,
    tolerance_scale: float,
    perturb: float | None,
) -> dict:
    entries = []
    for r in reports:
        d = r.to_dict()
        d["seed"] = seed
        entries.append(d)
    return {
        "seed": seed,
        "tolerance_scale": tolerance_scale,
        "perturb": perturb,
        "all_pass": all(r.passed for r in reports),
        "total": len(reports),
        "failures": sum(not r.passed for r in reports),
        "reports": entries,
    }
