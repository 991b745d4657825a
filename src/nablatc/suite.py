"""Seeded verification suite.

Runs every identity checker and returns the reports; the CLI serializes
them to JSON.  The core groups and ``convolution`` draw their instances
from the seed; ``order-limit``, ``uniform-convergence``, ``leibniz``,
``taylor-representations``, ``rl-caputo-decay``, ``laplace-rules`` and
``ml-solver`` run fixed instances, the same for every seed.  Instance
families are chosen so that each identity is numerically well-conditioned
at its stated tolerance: weights keep ``|w(j)/w(k)|`` bounded by a small
constant on the evaluation window (growth in that ratio multiplies the
rounding envelope), and evaluation-point expansions pair signals and
weights whose weighted differences do not explode.

Each group gets an independent deterministic stream and reads no
other group's results, so filtering never changes the instances a group
sees, and the groups of one pass can run in forked processes: the reports
come back in registry order whichever process ran them.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
import time
import warnings
from functools import partial
from itertools import repeat
from typing import Callable, NoReturn

import numpy as np

from .errors import ConfigError
from .identities import (
    DIFFERENCE_OF_SUM,
    GL_RL_AGREE,
    INTEGER_DEFECT,
    MIXED_COMPOSITION,
    RL_CAPUTO_CORRECTION,
    SUM_COMPOSITION,
    SUM_OF_DIFFERENCE,
    TAYLOR_REMAINDER,
    IdentityReport,
    TOL_EXACT,
    RowCheck,
    check_leibniz,
    check_order_limit_diff,
    check_order_limit_sum,
    check_rl_caputo_asymptotics,
    check_rl_caputo_base_shift,
    check_uniform_convergence_exchange,
    run_rows,
)
from .laplace import (
    MLParams,
    _ml_functions,
    check_convolution_commutation,
    check_convolution_with_ic,
    check_tempering_shift,
    fde_solve,
    transform_rule_reports,
)
from .operators import (
    OperatorKind,
    OperatorSpec,
    _cpus,
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
    "select_groups",
]

CORE_INSTANCES = 100


def _alpha(rng: np.random.Generator, lo: float = 0.05, hi: float = 1.95) -> float:
    while True:
        al = float(rng.uniform(lo, hi))
        if abs(al - round(al)) >= 0.05:
            return al


def _instance_signal(rng: np.random.Generator, grid: Grid, idx: int) -> Signal:
    # the identity tolerances are absolute, so the signal scale is part of
    # the contract: every family stays bounded on the grid, the geometric
    # one (r up to 1.03) by about 6.6 at the longest horizon, 1.03**64
    fam = idx % 4
    if fam == 0:
        return Signal._adopt(grid, rng.standard_normal(grid.npoints))
    k = grid.k_values()
    if fam == 1:
        return Signal._adopt(grid, _libm(math.sin, 10.0 * k))
    if fam == 2:
        c0, c1, c2, c3 = rng.uniform(-2.0, 2.0, size=4).tolist()
        t = (k - grid.a) / grid.horizon
        # the scalar 0 + c0*t**0 + c1*t**1 + c2*t**2 + c3*t**3 at every
        # point: the terms added left to right from 0, t**0 is 1.0 for
        # every t, and each other power is Python's float power
        vals = 0.0 + c0 * 1.0 + c1 * _libm(pow, t, 1)
        vals += c2 * _libm(pow, t, 2)
        vals += c3 * _libm(pow, t, 3)
        return Signal._adopt(grid, vals)
    r = float(rng.uniform(0.75, 1.03))
    return Signal._adopt(grid, _libm(partial(pow, r), k - grid.a))


def _libm(f: Callable[..., float], x: np.ndarray, *args) -> np.ndarray:
    """``f(x_j, *args)`` for every entry of ``x``, passed as a Python float.

    numpy does the IEEE-exact steps of the instance families on whole
    arrays; each libm call (``math.sin``, a power) runs per point as the
    scalar expression makes it, since numpy's own vectorised ``sin`` and
    ``power`` may round differently.  A Python power raises instead of
    giving inf, so this is for functions that stay finite on the grid.
    """
    points = x.tolist()
    return np.fromiter(map(f, points, *map(repeat, args)), np.float64, len(points))


#: The signs of the random-sign weight family, indexed by a 0/1 draw.
_SIGNS = np.array([-1.0, 1.0])


def _instance_weight(rng: np.random.Generator, grid: Grid, idx: int) -> Weight:
    fam = idx % 7
    if fam in (0, 2):
        return preset_weight(f"case{fam + 1}", grid)
    if fam in (1, 3):
        # presets.weight_case_fn's case2 and case4 on every point: |pi^(k - a)|
        # stays finite on suite grids (horizon <= 64, history <= 3), so the
        # values are preset_weight's bit for bit
        k, a = grid.k_values(), grid.a
        if fam == 1:
            return Weight._adopt(grid, -_libm(partial(pow, math.pi), k - a))
        phase = k * math.pi / 2.0 - a * math.pi / 2.0 + math.pi / 4.0
        return Weight._adopt(grid, _libm(math.sin, phase))
    if fam == 4:
        return Weight._adopt(grid, np.ones(grid.npoints))  # preset "one"
    if fam == 5:
        return make_weight(grid, rate=float(rng.uniform(-1.0, 0.0)))
    mag = 10.0 ** float(rng.uniform(-3.0, 3.0))
    # rng.choice([-1.0, 1.0], size=n) draws these integers
    signs = _SIGNS[rng.integers(0, 2, size=grid.npoints)]
    return Weight._adopt(grid, mag * signs)


def _round3(u: float) -> float:
    """``u`` to 3 decimals as numpy rounds it, ``rint(u * 1000) / 1000``:
    ties to even, and a result of zero keeps the sign of ``u``."""
    y = u * 1000.0
    return math.copysign(round(y), y) / 1000.0


def _core_instance(
    rng: np.random.Generator, idx: int, history: int, n_max: int = 64
) -> tuple[Signal, Weight]:
    N = int(rng.integers(8, n_max + 1))
    grid = Grid(_round3(rng.uniform(-4.0, 4.0)), history=history, horizon=N)
    return _instance_signal(rng, grid, idx), _instance_weight(rng, grid, idx // 4)


def _horizon_cap(alpha: float, above_one: int = 32) -> int:
    # identities whose intermediate magnitudes scale like N**(alpha + n)
    # need shorter horizons for the two-stage orders to stay at their
    # absolute tolerance
    return 64 if alpha < 1.0 else above_one


def _tag(r: IdentityReport, **extra) -> IdentityReport:
    """``r``, its params updated in place with ``extra`` (a new key goes
    last, an existing one keeps its place): every checker returns new
    reports, each with a params dict of its own."""
    r.params.update(extra)
    return r


# ---------------------------------------------------------------------------
# group runners
# ---------------------------------------------------------------------------


def _alpha_row(lo: float = 0.05, cap: int = 64, extra: tuple = ()) -> Callable:
    """The drawer of α-instances ``(x, w, alpha, *extra)``: the order from
    [lo, 1.95] first, then the signal and weight on a horizon of at most
    ``_horizon_cap(alpha, cap)``."""

    def draw(rng: np.random.Generator, i: int) -> tuple:
        al = _alpha(rng, lo)
        x, w = _core_instance(rng, i, history=2, n_max=_horizon_cap(al, cap))
        return x, w, al, *extra

    return draw


def _mixed_row(rng: np.random.Generator, i: int) -> tuple:
    n = 1 + i % 2
    beta = _alpha(rng, 0.05, n - 0.05)
    x, w = _core_instance(rng, i, history=n)
    return x, w, beta, n, "rl" if (i // 2) % 2 == 0 else "caputo"


def _integer_row(rng: np.random.Generator, i: int) -> tuple:
    n = 1 + i % 3
    return *_core_instance(rng, i, history=n), n


def _core_group(rng, ts, check: RowCheck, draws: tuple) -> list[IdentityReport]:
    """``check`` on ``CORE_INSTANCES`` rows ``draw(rng, i)`` of each drawer
    in turn, each report tagged with its index within its drawer; a
    drawer's rows are all drawn before any of them is checked."""
    out = []
    for draw in draws:
        rows = [draw(rng, i) for i in range(CORE_INSTANCES)]
        reports = run_rows(check, rows, TOL_EXACT * ts)
        out += [_tag(r, instance=i) for i, r in enumerate(reports)]
    return out


#: The core battery, one row per group: its name, its checker, and the
#: drawers ``draw(rng, i) -> (x, w, *args)`` of its instances.
_CORE: tuple[tuple, ...] = (
    ("gl-rl-agree", GL_RL_AGREE, _alpha_row()),
    ("rl-caputo-correction", RL_CAPUTO_CORRECTION, _alpha_row()),
    ("sum-composition", SUM_COMPOSITION, _alpha_row(cap=16)),
    ("diff-of-sum", DIFFERENCE_OF_SUM, _alpha_row()),
    ("sum-of-diff", SUM_OF_DIFFERENCE, _alpha_row(extra=("rl",)), _alpha_row(extra=("caputo",))),
    ("mixed-composition", MIXED_COMPOSITION, _mixed_row),
    (
        "taylor-remainder", TAYLOR_REMAINDER,
        _alpha_row(cap=32, extra=(0,)), _alpha_row(1.05, extra=(1,)),
    ),
    ("integer-defect", INTEGER_DEFECT, _integer_row),
)


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


def _smooth(k: float) -> float:
    return math.sin(0.6 * k) + 0.1 * k


def _forms_vs_direct(ident, form, grid, pairs, cases, tol) -> list[IdentityReport]:
    """The series representation ``form`` against the direct operator,
    pointwise on the window, for every (signal, weight) name pair and every
    case ``(kind, order)`` or ``(kind, order, K)``, K the form's degree.  A
    case with a degree reports K, one without reports the signal."""
    out = []
    for sname, wname in pairs:
        x = make_signal_from_fn(grid, _smooth) if sname == "smooth" else preset_signal(sname, grid)
        w = preset_weight(wname, grid)
        for kind, order, *degree in cases:
            spec = OperatorSpec(kind, order, w)
            rep = form(x, spec, *degree)
            devs = np.abs(rep.body - apply_operator(x, spec).body)
            label = {"K": degree[0]} if degree else {"signal": sname}
            params = {"kind": kind.value, "order": order, **label, "weight": wname}
            out.append(IdentityReport.from_devs(ident, devs, grid.a + 1, tol, params))
    return out


def _run_taylor_representations(rng, ts):
    tol = 1e-10 * ts
    NABLA, GL, RL, CAPUTO = OperatorKind  # the members in definition order

    # base-point representation with remainder, all kinds; the pairings keep
    # the initial-value terms damped: growing weights place the ratio
    # w(a)/w(k) against the growing basis, and the unit weight is paired
    # with a slowly varying signal
    out = _forms_vs_direct(
        "taylor-op-initial", tempered_op_taylor_initial, Grid(0.0, history=7, horizon=16),
        [("sin10k", "case1"), ("sin10k", "case3"), ("sin10k", "exp:-0.5"), ("smooth", "one")],
        [(GL, 0.5, 5), (GL, -0.7, 4), (RL, 0.5, 5), (CAPUTO, 1.5, 5), (NABLA, 2.0, 5)], tol,
    )

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
    out += _forms_vs_direct(
        "taylor-op-current", tempered_op_taylor_current, Grid(0.0, history=2, horizon=24),
        [("sin10k", "case3"), ("smooth", "exp:-1"), ("poly:1,3,2", "one")],
        [(GL, 0.5), (GL, -0.5), (RL, 1.5), (CAPUTO, 0.5)], tol,
    )

    # future/current-instant expansion with the double-sum residual
    out += _forms_vs_direct(
        "taylor-op-future", tempered_op_taylor_future, Grid(0.0, history=6, horizon=12),
        [("sin10k", wname) for wname in ("one", "exp:-1", "case3", "case4")],
        [(GL, 0.5, 4), (GL, -0.5, 2), (RL, 0.5, 4), (CAPUTO, 1.5, 3)], tol,
    )

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
            IdentityReport(
                "taylor-current-roundtrip", worst, at, tol, {"signal": sname}
            )
        )

    # truncated series sweep: monotone decrease for expandable signals,
    # termination for polynomials under a constant weight
    g6 = Grid(0.0, history=14, horizon=8)
    for sname, wname in (("geom:2", "one"), ("geom:0.8", "one"), ("poly:1,2,1", "one")):
        s6 = preset_signal(sname, g6)
        w6 = preset_weight(wname, g6)
        for kind, order in ((GL, 0.5), (CAPUTO, 0.5)):
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
                IdentityReport(
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

    def bumped(k: float) -> float:
        return math.sin(10.0 * k) + 1.0

    # weights with |w(a)/w(k)| bounded away from underflow: for rapidly
    # growing weights the two-form gap sinks below rounding noise long
    # before the far end of the window and the ratio measures noise
    out = []
    grid = Grid(0.0, history=2, horizon=400)
    x = make_signal_from_fn(grid, bumped)
    for wname in ("one", "case3", "case4"):
        w = preset_weight(wname, grid)
        for al in (0.5, 1.5):
            rep = check_rl_caputo_asymptotics(x, al, w)
            out.append(_tag(rep, weight=wname))
    for wname in ("one", "case4"):
        rep = check_rl_caputo_base_shift(bumped, weight_case_fn(wname, 0.0), 0.5)
        out.append(_tag(rep, weight=wname))
    return out


_S_POINTS = (
    1.0 + 0.45 * complex(math.cos(0.8), math.sin(0.8)),
    1.0 + 0.45 * complex(math.cos(2.4), math.sin(2.4)),
    1.0 + 0.3 * complex(math.cos(4.0), math.sin(4.0)),
)


#: Horizon of the laplace-rules signal: at least 4x the longest series any
#: of its transform rules reads (45 terms), and below
#: ``operators._SPLIT_FROM``, so no suite pass starts a thread.  Every
#: horizon from 64 to 3000 gives the same reports (``tests/test_suite.py``
#: checks 3000 and the rule).
_LAPLACE_RULES_HORIZON = 256


def _run_laplace_rules(rng, ts):
    out = []
    grid = Grid(0.0, history=2, horizon=_LAPLACE_RULES_HORIZON)
    x = preset_signal("sin10k", grid)
    rules = [("gl", al, _S_POINTS[:2]) for al in (0.5, -1.0, 1.5)] + [
        (kind, order, _S_POINTS[2:])
        for kind, order in (("int", 1), ("int", 2), ("rl", 0.5), ("rl", 1.5), ("caputo", 0.5), ("caputo", 1.5))
    ]
    for lam in (0.0, 2.0, -0.02):
        for kind, order, points in rules:
            out += transform_rule_reports(x, kind, order, lam, points, tol=1e-7 * ts)
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
    mus = (-0.5, -0.2, 0.2, 0.5)
    for al in (0.3, 0.5, 0.7, 0.9):
        # the kernels of one alpha as one stack over mu
        kerns = _ml_functions([MLParams(al, 1.0, mu) for mu in mus], 50)
        for mu, kern in zip(mus, kerns):
            sol = fde_solve(al, mu, w, 1.0, 50)
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
        IdentityReport(
            "ml-solver-mu-zero", dev0, grid.a, 0.0, {"alpha": 0.5}
        )
    )
    # order-limit continuity of the solver against the first-order recursion
    g20 = Grid(0.0, history=1, horizon=20)
    sol9 = fde_solve(0.999, -0.5, preset_weight("one", g20), 1.0, 20)
    # Python-float (libm) powers: numpy's CPU-dispatched power varies by host
    first = np.array([(1.0 / 1.5) ** k for k in range(21)])
    dev9 = float(np.max(np.abs(sol9.values - first)))
    out.append(
        IdentityReport(
            "ml-solver-order-continuity", dev9, g20.a + 20, 1e-3 * ts, {"alpha": 0.999}
        )
    )
    return out


GROUPS: tuple[tuple[str, Callable], ...] = tuple(
    (name, partial(_core_group, check=check, draws=draws)) for name, check, *draws in _CORE
) + (
    ("order-limit", _run_order_limits),
    ("uniform-convergence", _run_uniform_convergence),
    ("leibniz", _run_leibniz),
    ("taylor-representations", _run_taylor_representations),
    ("rl-caputo-decay", _run_decay),
    ("laplace-rules", _run_laplace_rules),
    ("convolution", _run_convolution),
    ("ml-solver", _run_ml_solver),
)

#: Groups exercised by the seeded-random basic-relations battery.
CORE_GROUPS = tuple(name for name, *_ in _CORE)


def resolve_tolerance_scale(scale: float | None = None) -> float:
    """The suite's tolerance multiplier: ``scale``, else NT_TOLERANCE_SCALE, else 1.

    Raises:
        ConfigError: unless the value is finite and the smallest scaled
            tolerance, ``TOL_EXACT * scale``, is a normal float.
    """
    source = "tolerance scale"
    if scale is None:
        source = "NT_TOLERANCE_SCALE"
        raw = os.environ.get(source, "1.0")
        try:
            scale = float(raw)
        except ValueError:
            raise ConfigError(f"{source} must be a number, got {raw!r}") from None
    # a subnormal tolerance loses precision, then underflows to 0
    if not (math.isfinite(scale) and TOL_EXACT * scale >= sys.float_info.min):
        low = sys.float_info.min / TOL_EXACT
        raise ConfigError(f"{source} must be finite and at least {low:.3g}, got {scale!r}")
    return scale


def select_groups(
    only: str | None = None, groups: tuple[str, ...] | None = None
) -> list[tuple[int, str, Callable]]:
    """The ``(index, name, runner)`` entries of :data:`GROUPS` that
    :func:`run_suite` runs for ``only`` and ``groups``, in registry order.

    Raises:
        ConfigError: if ``groups`` is a string, holds a non-string, or names
            a group that is not registered.
    """
    if isinstance(groups, str) or not all(isinstance(g, str) for g in groups or ()):
        raise ConfigError(f"suite groups must be a sequence of group names, got {groups!r}")
    unknown = [g for g in groups or () if g not in dict(GROUPS)]
    if unknown:
        raise ConfigError(f"unknown suite groups: {', '.join(unknown)}")
    selected = []
    for index, (name, runner) in enumerate(GROUPS):
        if groups is not None and name not in groups:
            continue
        if only is not None and only not in name and name not in only:
            continue
        selected.append((index, name, runner))
    return selected


def _run_group(
    seed: int, entry: tuple[int, str, Callable], ts: float
) -> tuple[list[IdentityReport], float]:
    """The reports of one :func:`select_groups` entry, and its wall seconds."""
    index, name, runner = entry
    start = time.perf_counter()
    reports = [_tag(r, group=name) for r in runner(np.random.default_rng([seed, index]), ts)]
    return reports, time.perf_counter() - start


def _processes(selected: list) -> int:
    """How many processes share a pass over ``selected``, the caller
    included: one per CPU this process may run on, up to one per group.

    A fork copies only the calling thread, so while any other Python
    thread is alive (it may hold a lock the child would wait on forever)
    the pass stays in-process, as it does off Linux.
    """
    if sys.platform != "linux" or len(selected) < 2 or threading.active_count() != 1:
        return 1
    return min(_cpus(), len(selected))


def _drain(queue: int, selected: list, seed: int, ts: float) -> dict:
    """Run the groups whose positions in ``selected`` this process takes
    from the work queue, one byte each, until the queue is empty or a group
    raises; the groups that finished, by position."""
    done = {}
    try:
        while pos := os.read(queue, 1):
            done[pos[0]] = _run_group(seed, selected[pos[0]], ts)
    except Exception:
        pass  # a group not returned is rerun in-process, where it raises
    return done


def _child(queue: int, sink: int, selected: list, seed: int, ts: float) -> NoReturn:
    """A forked child's whole life: its share of the queue, pickled into
    ``sink``.  It exits 0 only once every byte is written, and never
    returns into the parent's stack (no atexit handlers, no stdio flush)."""
    status = 1
    try:
        done = _drain(queue, selected, seed, ts)
        with os.fdopen(sink, "wb") as out:
            pickle.dump(done, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_forked(selected: list, seed: int, ts: float, processes: int) -> dict:
    """The groups of ``selected`` that this process and ``processes - 1``
    forked children ran, by position, each with its wall seconds.

    A group that raised, or whose child died, is missing.  Every child is
    reaped before this returns or raises, and killed first if it raises.
    """
    queue, feed = os.pipe()
    # one byte per position, handed out last first: the registry ends with
    # its heaviest group (ml-solver), and the lighter ones it starts with
    # then even out the processes' finishing times
    os.write(feed, bytes(range(len(selected)))[::-1])
    os.close(feed)
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    sent: dict[int, bytes] = {}
    status: dict[int, int] = {}
    try:
        # text a buffer still holds would be written by every child too
        sys.stdout.flush()
        sys.stderr.flush()
        for _ in range(processes - 1):
            result, sink = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns about any second OS thread, and
                    # numpy's BLAS pool counts; raised as an error here, it
                    # would leave a child that nothing reads
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(result)
                os.close(sink)
                break
            if pid == 0:
                _child(queue, sink, selected, seed, ts)
            os.close(sink)
            children[pid] = result
        done = _drain(queue, selected, seed, ts)
        # a full pass pickles to more than a pipe holds: read to EOF first
        for pid, result in children.items():
            with os.fdopen(result, "rb", closefd=False) as f:
                sent[pid] = f.read()
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, result in children.items():
            os.close(result)
            status[pid] = os.waitpid(pid, 0)[1]
    for pid, data in sent.items():
        if status[pid] == 0:
            done.update(pickle.loads(data))
    return done


def _run_groups(
    selected: list, seed: int, perturb: float | None, ts: float
) -> list[tuple[str, list[IdentityReport], float]]:
    """``(name, reports, seconds)`` for every :func:`select_groups` entry in
    ``selected``, in registry order, for a resolved tolerance scale ``ts``.

    The groups run in this process and in forked children (see
    :func:`_processes`), which inherit the fault injection through the
    copied context.  Any group that no process returned runs again here,
    in registry order, so a raising group surfaces exactly as in-process:
    the earliest one wins, with its own class, message and traceback.
    """
    previous = set_fault_injection(perturb or 0.0)
    try:
        processes = _processes(selected)
        done = _run_forked(selected, seed, ts, processes) if processes > 1 else {}
        out = []
        for pos, entry in enumerate(selected):
            reports, seconds = done.get(pos) or _run_group(seed, entry, ts)
            out.append((entry[1], reports, seconds))
    finally:
        set_fault_injection(previous)
    return out


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
    :func:`resolve_tolerance_scale`).  On Linux the groups are spread over
    forked processes, one per available CPU; the reports and their order
    are those of a pass in one process.
    """
    tolerance_scale = resolve_tolerance_scale(tolerance_scale)
    selected = select_groups(only, groups)
    ran = _run_groups(selected, seed, perturb, tolerance_scale)
    return [r for _, reports, _ in ran for r in reports]


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
