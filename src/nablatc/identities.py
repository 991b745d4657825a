"""Executable checkers for the analytic identities of the operator family.

Each checker evaluates both sides of one identity on a concrete grid and
returns an :class:`IdentityReport` with the largest absolute deviation, the
lattice point where it occurred, and a pass flag at the checker's
tolerance.  Checkers are pure functions: same inputs, same report.

Tolerance convention: 1e-11 for exact finite identities (only rounding
separates the two sides), 1e-5 for order-limit checks evaluated at
eps = 1e-7 (which carry O(eps) analytic error on top of rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .operators import (
    InsufficientLags,
    OperatorKind,
    OperatorSpec,
    _stencil,
    apply_operator,
    causal_sum,
    caputo_tempered,
    gl_integer_vs_nabla_defect,
    gl_tempered,
    initial_value_terms,
    nabla_at,
    nabla_n_tempered,
    nabla_n_tempered_at,
    rl_tempered,
    rl_tempered_at_base,
    tempered_diff_rows,
    with_zero_history,
)
from .signals import Grid, GridMismatch, Signal, Weight, make_signal_from_fn, make_weight
from .special import (
    binomial_coefficients,
    gl_coefficients,
    rising_over_factorial_row,
    rising_over_gamma_row,
)

__all__ = [
    "TOL_EXACT",
    "TOL_LIMIT",
    "InsufficientLags",
    "IdentityReport",
    "check_gl_rl_agreement",
    "check_rl_caputo_correction",
    "check_sum_composition",
    "check_difference_of_sum",
    "check_sum_of_difference",
    "check_mixed_composition",
    "check_taylor_remainder_forms",
    "check_integer_defect",
    "check_order_limit_sum",
    "check_order_limit_diff",
    "check_uniform_convergence_exchange",
    "check_leibniz",
    "check_rl_caputo_asymptotics",
]

#: Exact finite identities: both sides differ by rounding only.
TOL_EXACT = 1e-11
#: Order-limit checks at eps = 1e-7: first-order continuity in the order.
TOL_LIMIT = 1e-5

DEFAULT_EPS_SUM = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
DEFAULT_EPS_DIFF = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check.

    For decay checkers the deviation field holds a dimensionless ratio
    margin against tolerance 1.0 (documented on the checker).
    """

    identity_id: str
    max_abs_dev: float
    argmax_k: float
    tolerance: float
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """``max_abs_dev <= tolerance``; a NaN deviation fails."""
        return bool(self.max_abs_dev <= self.tolerance)

    @classmethod
    def from_measurement(
        cls,
        identity_id: str,
        max_abs_dev: float,
        argmax_k: float,
        tolerance: float,
        params: dict | None = None,
    ) -> "IdentityReport":
        return cls(
            identity_id=identity_id,
            max_abs_dev=float(max_abs_dev),
            argmax_k=float(argmax_k),
            tolerance=float(tolerance),
            params=params or {},
        )

    @classmethod
    def from_devs(
        cls,
        identity_id: str,
        devs: np.ndarray,
        first_k: float,
        tolerance: float,
        params: dict | None = None,
    ) -> "IdentityReport":
        """Report the largest of pointwise deviations ``devs``, where
        ``devs[j]`` belongs to lattice point ``first_k + j``.

        The first index wins a tie (and a NaN wins over any number); an
        empty array reports 0 at ``first_k``.
        """
        devs = np.asarray(devs, dtype=np.float64)
        idx = int(np.argmax(devs)) if len(devs) else 0
        dev = float(devs[idx]) if len(devs) else 0.0
        return cls.from_measurement(identity_id, dev, first_k + idx, tolerance, params)

    def to_dict(self) -> dict:
        return {
            "identity-id": self.identity_id,
            "params": self.params,
            "max_abs_dev": self.max_abs_dev,
            "argmax_k": self.argmax_k,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _w_ratio_from_base(w: Weight, horizon: int) -> np.ndarray:
    """w(a)/w(k) across the evaluation window."""
    return w.at(0) / w.window(1, horizon)


# ---------------------------------------------------------------------------
# basic relations between the operator forms
# ---------------------------------------------------------------------------


def check_gl_rl_agreement(
    x: Signal, alpha: float, w: Weight, tol: float = TOL_EXACT
) -> IdentityReport:
    """Single-sum form against the difference-of-sum form, pointwise."""
    devs = np.abs(gl_tempered(x, alpha, w).body - rl_tempered(x, alpha, w).body)
    return IdentityReport.from_devs(
        "gl-rl-agree", devs, x.grid.a + 1, tol, {"alpha": alpha}
    )


def check_rl_caputo_correction(
    x: Signal, alpha: float, w: Weight, tol: float = TOL_EXACT
) -> IdentityReport:
    """Difference-of-sum equals sum-of-difference plus the initial-value series."""
    n = math.ceil(alpha)
    N = x.grid.horizon
    rl = rl_tempered(x, alpha, w).body
    cap = caputo_tempered(x, alpha, w).body
    basis = lambda i: rising_over_gamma_row(i - alpha, i - alpha + 1, N)
    corr = sum(initial_value_terms(x, w, range(n), basis), np.zeros(N))
    devs = np.abs(rl - (cap + corr))
    return IdentityReport.from_devs(
        "rl-caputo-correction", devs, x.grid.a + 1, tol, {"alpha": alpha}
    )


def check_sum_composition(
    x: Signal, alpha: float, w: Weight, tol: float = TOL_EXACT
) -> IdentityReport:
    """Order -alpha sum equals the n-th tempered difference of the
    order -(alpha+n) sum."""
    n = math.ceil(alpha)
    lhs = gl_tempered(x, -alpha, w).body
    inner = gl_tempered(x, -alpha - n, w, out_history=n)
    rhs = nabla_n_tempered(inner, n, w).body
    devs = np.abs(lhs - rhs)
    return IdentityReport.from_devs(
        "sum-composition", devs, x.grid.a + 1, tol, {"alpha": alpha}
    )


def check_difference_of_sum(
    x: Signal, alpha: float, w: Weight, tol: float = TOL_EXACT
) -> IdentityReport:
    """Applying either fractional difference to the order -alpha sum
    reproduces the signal."""
    n = math.ceil(alpha)
    u = gl_tempered(x, -alpha, w, out_history=n)
    d_rl = np.abs(rl_tempered(u, alpha, w).body - x.body)
    d_cap = np.abs(caputo_tempered(u, alpha, w).body - x.body)
    devs = np.maximum(d_rl, d_cap)
    return IdentityReport.from_devs(
        "diff-of-sum", devs, x.grid.a + 1, tol, {"alpha": alpha}
    )


def check_sum_of_difference(
    x: Signal, alpha: float, w: Weight, kind: str, tol: float = TOL_EXACT
) -> IdentityReport:
    """Order -alpha sum of a fractional difference reproduces the signal
    minus its initial-value series.

    ``kind`` selects which difference: ``"rl"`` uses difference-of-sum
    initial values (which vanish under the base-point convention, evaluated
    rather than assumed), ``"caputo"`` uses the integer tempered
    differences at the base.
    """
    n = math.ceil(alpha)
    N = x.grid.horizon
    if kind == "rl":
        v = rl_tempered(x, alpha, w)
        ratio = _w_ratio_from_base(w, N)
        corr = np.zeros(N)
        for i in range(n):
            iv = rl_tempered_at_base(x, alpha - i - 1, w)
            basis = rising_over_gamma_row(alpha - i - 1, alpha - i, N)
            corr += basis * ratio * iv
    elif kind == "caputo":
        v = caputo_tempered(x, alpha, w)
        basis = lambda i: rising_over_factorial_row(i, N)
        corr = sum(initial_value_terms(x, w, range(n), basis), np.zeros(N))
    else:
        raise ValueError(f"kind must be 'rl' or 'caputo', got {kind!r}")
    lhs = gl_tempered(v, -alpha, w).body
    rhs = x.body - corr
    devs = np.abs(lhs - rhs)
    return IdentityReport.from_devs(
        f"sum-of-diff-{kind}", devs, x.grid.a + 1, tol, {"alpha": alpha}
    )


def check_mixed_composition(
    x: Signal, beta: float, n: int, w: Weight, outer: str, tol: float = TOL_EXACT
) -> IdentityReport:
    """Split-order compositions of the two fractional differences.

    With the difference-of-sum form outside, both splits collapse to the
    n-th tempered difference; with the sum-of-difference form outside they
    collapse to the integer-order single-sum operator.  The splits that
    route an integer difference through a zero-extended intermediate only
    close from offset n on, so the comparison window is {a+n, ..., a+N}.
    """
    m = math.ceil(beta)
    if not (0 < beta < n) or beta == math.floor(beta):
        raise ValueError(f"split order must be non-integer in (0, {n}), got {beta}")
    m2 = math.ceil(n - beta)
    if outer == "rl":
        inner_a = with_zero_history(caputo_tempered(x, beta, w), m2)
        side_a = rl_tempered(inner_a, n - beta, w).body
        inner_b = with_zero_history(caputo_tempered(x, n - beta, w), m)
        side_b = rl_tempered(inner_b, beta, w).body
        target = nabla_n_tempered(x, n, w).body
    elif outer == "caputo":
        inner_a = with_zero_history(rl_tempered(x, beta, w), m2)
        side_a = caputo_tempered(inner_a, n - beta, w).body
        inner_b = with_zero_history(rl_tempered(x, n - beta, w), m)
        side_b = caputo_tempered(inner_b, beta, w).body
        target = gl_tempered(x, float(n), w).body
    else:
        raise ValueError(f"outer must be 'rl' or 'caputo', got {outer!r}")
    lo = n - 1  # body index of offset n
    devs = np.maximum(
        np.abs(side_a[lo:] - target[lo:]), np.abs(side_b[lo:] - target[lo:])
    )
    return IdentityReport.from_devs(
        f"mixed-composition-{outer}", devs, x.grid.a + n, tol, {"beta": beta, "n": n}
    )


# ---------------------------------------------------------------------------
# initial-instant reconstruction identities
# ---------------------------------------------------------------------------


def check_taylor_remainder_forms(
    x: Signal, alpha: float, w: Weight, m: int, tol: float = TOL_EXACT
) -> IdentityReport:
    """Reconstruction of the m-th tempered difference from base-point data
    plus a weighted remainder sum over the fractional difference.

    ``m = 0`` reconstructs the signal itself and additionally checks the
    integer-remainder variant (remainder driven by the n-th tempered
    difference instead of the fractional one).
    """
    n = math.ceil(alpha)
    if not (0 <= m < alpha):
        raise ValueError(f"shift m must satisfy 0 <= m < alpha, got {m}")
    N = x.grid.horizon
    basis = lambda i: rising_over_factorial_row(i - m, N)
    series = sum(initial_value_terms(x, w, range(m, n), basis), np.zeros(N))

    cap = caputo_tempered(x, alpha, w)
    coef = rising_over_gamma_row(alpha - m - 1, alpha - m, N)
    sumpart = causal_sum(coef, w.window(1, N) * cap.body) / w.window(1, N)

    lhs = x.body if m == 0 else nabla_n_tempered(x, m, w).body
    devs = np.abs(lhs - (series + sumpart))

    if m == 0:
        vn = nabla_n_tempered(x, n, w)
        acc2 = causal_sum(rising_over_factorial_row(n - 1, N), w.window(1, N) * vn.body)
        devs = np.maximum(devs, np.abs(x.body - (series + acc2 / w.window(1, N))))

    ident = "taylor-remainder-base" if m == 0 else "taylor-remainder-shifted"
    return IdentityReport.from_devs(
        ident, devs, x.grid.a + 1, tol, {"alpha": alpha, "m": m}
    )


def check_integer_defect(
    x: Signal, n: int, w: Weight, tol: float = TOL_EXACT
) -> IdentityReport:
    """The integer single-sum operator minus the plain tempered difference
    equals the missing-stencil boundary sum, and vanishes from offset n+1 on."""
    N = x.grid.horizon
    d = gl_integer_vs_nabla_defect(x, n, w).body
    expected = np.zeros(N)
    for m in range(1, min(n, N) + 1):
        # added left to right from 0, not by sum(), whose float sums are
        # compensated from Python 3.12 on
        acc = 0.0
        for i in range(m, n + 1):
            acc += (-1) ** i * math.comb(n, i) * (w.at(m - i) / w.at(m)) * x.at(m - i)
        expected[m - 1] = -acc
    devs = np.abs(d - expected)
    return IdentityReport.from_devs("integer-defect", devs, x.grid.a + 1, tol, {"n": n})


# ---------------------------------------------------------------------------
# order-limit continuity
# ---------------------------------------------------------------------------


def _monotone_nonincreasing(seq: Sequence[float]) -> bool:
    return all(b <= a * (1 + 1e-9) + 1e-300 for a, b in zip(seq, seq[1:]))


def _limit_report(
    identity_id: str,
    eps_seq: Sequence[float],
    devs: list[np.ndarray],
    monotone_from: float,
    tol: float,
    first_k: float,
    params: dict,
) -> IdentityReport:
    """Report the limit from the pointwise deviations ``devs[j]`` at order
    offset ``eps_seq[j]`` (``devs[j][i]`` belongs to lattice point
    ``first_k + i``): the deviation and its point at the smallest offset,
    failed when the maxima from ``monotone_from`` down do not decrease."""
    devs_by_eps = [float(np.max(d)) for d in devs]
    tail = [d for e, d in zip(eps_seq, devs_by_eps) if e <= monotone_from]
    monotone = _monotone_nonincreasing(tail)
    dev = devs_by_eps[-1]
    argmax_k = first_k + int(np.argmax(devs[-1]))
    if not monotone:
        # surface the monotonicity failure through the single deviation field
        dev = max(dev, 2.0 * tol)
    params = dict(params)
    params["deviation_by_eps"] = {repr(e): d for e, d in zip(eps_seq, devs_by_eps)}
    params["monotone"] = monotone
    return IdentityReport.from_measurement(identity_id, dev, argmax_k, tol, params)


def check_order_limit_sum(x: Signal, w: Weight, tol: float = 1e-6) -> IdentityReport:
    """As the sum order tends to zero the tempered sum tends to the signal."""
    eps_seq = DEFAULT_EPS_SUM
    devs = [np.abs(gl_tempered(x, -eps, w).body - x.body) for eps in eps_seq]
    return _limit_report("order-limit-sum", eps_seq, devs, 1e-3, tol, x.grid.a + 1, {})


def check_order_limit_diff(
    x: Signal,
    w: Weight,
    n: int,
    side: str,
    kind: str,
    tol: float = TOL_LIMIT,
) -> IdentityReport:
    """Unilateral limits of the fractional differences at integer orders.

    The comparison windows depend on the form: the sum-of-difference kind
    converges on the whole evaluation window, while the difference-of-sum
    kind only closes from offset n+1 (limit at n) or offset n (limit at
    n-1), matching where the integer single-sum defect vanishes.
    """
    if side not in ("at_n", "at_n_minus_1"):
        raise ValueError(f"side must be 'at_n' or 'at_n_minus_1', got {side!r}")
    if kind not in ("rl", "caputo"):
        raise ValueError(f"kind must be 'rl' or 'caputo', got {kind!r}")
    N = x.grid.horizon

    if kind == "caputo":
        first = 1
        op = caputo_tempered
    else:
        first = n + 1 if side == "at_n" else n
        op = rl_tempered
    sl = slice(first - 1, N)

    # the limit from below is the n-th difference, from above the (n-1)-th
    target_order = n if side == "at_n" else n - 1
    target = x.body if target_order == 0 else nabla_n_tempered(x, target_order, w).body
    target = target[sl]

    ratio = _w_ratio_from_base(w, N)
    iv_low = (
        nabla_n_tempered_at(x, n - 1, w, 0) if n >= 2 else x.at(0)
    )

    eps_seq = DEFAULT_EPS_DIFF
    devs = []
    for eps in eps_seq:
        alpha = n - eps if side == "at_n" else n - 1 + eps
        lhs = op(x, alpha, w).body
        if kind == "caputo" and side == "at_n_minus_1":
            lhs = lhs + ratio * iv_low
        devs.append(np.abs(lhs[sl] - target))
    return _limit_report(
        f"order-limit-{kind}-{side}",
        eps_seq,
        devs,
        max(eps_seq),
        tol,
        x.grid.a + first,
        {"n": n},
    )


# ---------------------------------------------------------------------------
# uniform-convergence exchange
# ---------------------------------------------------------------------------


def check_uniform_convergence_exchange(
    x_seq: Sequence[Signal], x: Signal, alpha: float, w: Weight
) -> IdentityReport:
    """Tempered sums of a uniformly convergent sequence stay within the
    magnitude-weight envelope of the sup distance.

    The envelope constant applies the sum with |w| to the constant one
    signal; magnitudes are required for sign-changing weights.
    """
    if alpha <= 0:
        raise ValueError(f"sum order must be positive, got {alpha}")
    for xi in x_seq:
        if xi.grid != x.grid:
            raise GridMismatch("sequence members must share the limit signal's grid")
    w_abs = Weight(w.grid, np.abs(w.values))
    ones = Signal(x.grid, np.ones(x.grid.npoints))
    kappa = float(np.max(gl_tempered(ones, -alpha, w_abs).body))
    base = gl_tempered(x, -alpha, w).body
    margin = -math.inf
    argmax_k = x.grid.a + 1
    scale = kappa
    for xi in x_seq:
        sup = float(np.max(np.abs(xi.body - x.body)))
        d = np.abs(gl_tempered(xi, -alpha, w).body - base)
        over = float(np.max(d)) - kappa * sup
        if over > margin:
            margin = over
            argmax_k = x.grid.a + 1 + int(np.argmax(d))
        scale = max(scale, kappa * sup)
    tol = 1e-12 * max(1.0, scale)
    return IdentityReport.from_measurement(
        "uniform-convergence",
        max(margin, 0.0),
        argmax_k,
        tol,
        {"alpha": alpha, "kappa": kappa, "members": len(x_seq)},
    )


# ---------------------------------------------------------------------------
# product-rule expansions
# ---------------------------------------------------------------------------


def check_leibniz(
    f: Signal, g: Signal, spec: OperatorSpec, tol: float = 1e-10
) -> IdentityReport:
    """Product-rule expansion of the tempered operator applied to f*g.

    The integer form is a finite stencil; the fractional forms expand over
    all available lags, with the sum-of-difference form carrying an extra
    base-point correction block.  The checker windows the evaluation so
    every lag it touches lies on the stored grid.
    """
    if f.grid != g.grid:
        raise GridMismatch("product factors must share a grid")
    h = f.grid.history
    kind = spec.kind
    if kind in (OperatorKind.INTEGER_NABLA, OperatorKind.CAPUTO) and h < spec.n:
        raise InsufficientLags(
            f"{kind.value} product rule needs history >= {spec.n}, grid has {h}"
        )

    fg = Signal(f.grid, f.values * g.values)
    rhs = _leibniz_rhs(f, g, spec)
    devs = np.abs(apply_operator(fg, spec).body - rhs)
    if kind is OperatorKind.INTEGER_NABLA:
        ident, params = "leibniz-integer", {"n": int(spec.order)}
    else:
        ident, params = f"leibniz-{kind.value}", {"alpha": spec.order}
    return IdentityReport.from_devs(ident, devs, f.grid.a + 1, tol, params)


def _leibniz_rhs(f: Signal, g: Signal, spec: OperatorSpec) -> np.ndarray:
    """Product-rule expansion of ``spec`` applied to f*g, on the window.

    Each point adds its terms in ascending i, starting from 0.0, as the
    sum over i written out per point would; the pass for each i updates
    every point it reaches at once.
    """
    w = spec.weight
    N = f.grid.horizon
    wk = w.window(1, N)
    kind = spec.kind

    if kind is OperatorKind.INTEGER_NABLA:
        nn = int(spec.order)
        frows = tempered_diff_rows(f, w, nn)
        rhs = np.zeros(N)
        for i in range(nn + 1):
            # nabla^(nn-i) g at offsets 1-i..N-i, lag by lag like nabla_at
            dg = _stencil(g.window(1 - nn, N - i), nn - i)
            rhs += math.comb(nn, i) * (frows[i] / wk) * dg
        return rhs

    alpha = spec.order
    binom = binomial_coefficients(alpha, N)
    # tempered differences of f over the weight, df[i, m-1] at offset m;
    # entries below the diagonal (NaN where they read below the history)
    # are never used
    df = tempered_diff_rows(f, w, N - 1) / wk
    # inner family: plain single-sum differences of g at shifted orders,
    # inner[i, m-1] at offset m; row i is read at offsets 1..N-i
    inner = causal_sum(gl_coefficients(alpha - np.arange(N), N).coeffs, g.body)
    rhs = np.zeros(N)
    for i in range(N):
        rhs[i:] += binom[i] * df[i, i:] * inner[i, : N - i]

    if kind is OperatorKind.CAPUTO:
        n = spec.n
        ratio = _w_ratio_from_base(w, N)
        r_term = np.zeros(N)
        for j in range(n):
            for i in range(j, n):
                dfj = nabla_n_tempered_at(f, j, w, 0)
                dg = nabla_at(g, i - j, -j)
                basis = rising_over_gamma_row(i - alpha, i - alpha + 1, N)
                r_term += math.comb(i, j) * basis * ratio * (dfj * dg)
        rhs = rhs - r_term
    return rhs


# ---------------------------------------------------------------------------
# decay of the gap between the two fractional differences
# ---------------------------------------------------------------------------


def check_rl_caputo_asymptotics(
    x: Signal,
    alpha: float,
    w: Weight,
    mode: str = "large_k",
    *,
    x_fn: Callable[[float], float] | None = None,
    w_fn: Callable[[float], float] | None = None,
) -> IdentityReport:
    """Decay of the gap between the two fractional differences.

    ``large_k``: the gap at the end of the window must fall below its value
    at the midpoint and below ten times the power-law envelope of its
    initial-value series (an artifact-side bound; the decay rate itself is
    not quantified analytically).  ``early_a``: moving the base point
    earlier by 100 twice must shrink the gap at the fixed lattice point
    a + 20; this mode needs the generating functions ``x_fn`` (of k) and
    ``w_fn`` (of k - a) to resample on the extended grids.

    The deviation reported is a dimensionless ratio margin: the largest of
    the decay ratios, against tolerance 1.0.
    """
    n = math.ceil(alpha)
    if mode == "large_k":
        N = x.grid.horizon
        if N < 4:
            raise ValueError("large_k mode needs a horizon of at least 4")
        gap = np.abs(rl_tempered(x, alpha, w).body - caputo_tempered(x, alpha, w).body)
        end = float(gap[N - 1])
        mid = float(gap[N // 2 - 1])
        # left to right from 0, as in check_integer_defect
        d_sum = 0.0
        for i in range(n):
            d_sum += abs(nabla_n_tempered_at(x, i, w, 0))
        c_bound = abs(w.at(0) / w.at(N)) * d_sum
        envelope = 10.0 * float(N) ** (n - 1 - alpha) * c_bound
        floor = 1e-300
        ratio = max(end / max(mid, floor), end / max(envelope, floor))
        return IdentityReport.from_measurement(
            "rl-caputo-decay-large-k",
            ratio,
            x.grid.a + N,
            1.0,
            {"alpha": alpha, "gap_end": end, "gap_mid": mid, "envelope": envelope},
        )
    if mode != "early_a":
        raise ValueError(f"mode must be 'large_k' or 'early_a', got {mode!r}")
    if x_fn is None or w_fn is None:
        raise ValueError("early_a mode needs x_fn and w_fn to resample the grid")
    gaps = []
    for shift in (0, 100, 200):
        a_new = x.grid.a - shift
        g = Grid(a=a_new, history=n, horizon=20 + shift)
        xs = make_signal_from_fn(g, x_fn)
        ws = make_weight(g, fn=lambda k: w_fn(k - a_new))
        gap = np.abs(
            rl_tempered(xs, alpha, ws).body - caputo_tempered(xs, alpha, ws).body
        )
        gaps.append(float(gap[-1]))  # same lattice point x.grid.a + 20
    floor = 1e-300
    ratio = max(gaps[1] / max(gaps[0], floor), gaps[2] / max(gaps[1], floor))
    return IdentityReport.from_measurement(
        "rl-caputo-decay-early-a",
        ratio,
        x.grid.a + 20,
        1.0,
        {"alpha": alpha, "gaps": gaps},
    )
