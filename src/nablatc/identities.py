"""Executable checkers for the analytic identities of the operator family.

Each checker evaluates both sides of one identity on a concrete grid and
returns an :class:`IdentityReport` with the largest absolute deviation, the
lattice point where it occurred, and a pass flag at the checker's
tolerance.  Checkers are pure functions: same inputs, same report.

The eight core identities are :class:`RowCheck` constants (``GL_RL_AGREE``
through ``INTEGER_DEFECT``), run by :func:`run_rows` on a list of
``(x, w, *args)`` rows; one instance is ``run_rows(CHECK, [(x, w, *args)],
tol)[0]``, and each row of a longer list equals that one-row call bit for
bit.  ``GL_RL_AGREE`` and ``SUM_COMPOSITION`` share one body, the order-q
single sum against the difference-of-sum form, at q = alpha and q = -alpha.
The other identities have a ``check_*`` function each; the decay of the
gap between the two fractional differences is two statements, over the
window (:func:`check_rl_caputo_asymptotics`) and as the base point moves
earlier (:func:`check_rl_caputo_base_shift`).

Tolerance convention: 1e-11 for exact finite identities (only rounding
separates the two sides), 1e-5 for order-limit checks evaluated at
eps = 1e-7 (which carry O(eps) analytic error on top of rounding).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import batched
from .operators import (
    InsufficientLags,
    OperatorKind,
    OperatorSpec,
    _base_ratio,
    _caputo_values,
    _gl_values,
    _initial_value_terms,
    _nabla_values,
    _rl_values,
    _settled,
    _stage,
    _stencil,
    _zero_extended,
    apply_operator,
    causal_sum,
    caputo_tempered,
    gl_tempered,
    nabla_at,
    nabla_n_tempered,
    nabla_n_tempered_at,
    rl_tempered,
    tempered_diff_rows,
)
from .signals import Grid, GridMismatch, Signal, Weight, make_signal_from_fn, make_weight
from .special import (
    binomial_coefficients,
    gl_coefficients,
    rising_over_factorial_row,
    rising_over_gamma_rows,
)

__all__ = [
    "TOL_EXACT",
    "TOL_LIMIT",
    "InsufficientLags",
    "IdentityReport",
    "RowCheck",
    "run_rows",
    "GL_RL_AGREE",
    "RL_CAPUTO_CORRECTION",
    "SUM_COMPOSITION",
    "DIFFERENCE_OF_SUM",
    "SUM_OF_DIFFERENCE",
    "MIXED_COMPOSITION",
    "TAYLOR_REMAINDER",
    "INTEGER_DEFECT",
    "check_order_limit_sum",
    "check_order_limit_diff",
    "check_uniform_convergence_exchange",
    "check_leibniz",
    "check_rl_caputo_asymptotics",
    "check_rl_caputo_base_shift",
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
    margin against tolerance 1.0 (documented on the checker).  The three
    numbers are stored as Python floats, and None params as ``{}``.
    """

    identity_id: str
    max_abs_dev: float
    argmax_k: float
    tolerance: float
    params: dict | None = None

    def __post_init__(self) -> None:
        for name in ("max_abs_dev", "argmax_k", "tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "params", self.params or {})

    @property
    def passed(self) -> bool:
        """``max_abs_dev <= tolerance``; a NaN deviation fails."""
        return bool(self.max_abs_dev <= self.tolerance)

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
        return cls(identity_id, dev, first_k + idx, tolerance, params)

    def to_dict(self) -> dict:
        return {
            "identity-id": self.identity_id,
            "params": self.params,
            "max_abs_dev": self.max_abs_dev,
            "argmax_k": self.argmax_k,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# stacked rows: the core checkers, one instance or many at once
# ---------------------------------------------------------------------------


class RowCheck(NamedTuple):
    """A core checker as two steps.

    ``prep(x, w, *args)`` validates one instance and returns
    ``(orders, stages, params)``: its real orders (stacked into one array
    each), its integer stages (shared by every row of a stack) and its
    report params.  ``body(x, w, h, N, *orders, *stages)`` runs on a stack
    of rows, the values of x and w at offsets ``-h..N``, zero-padded past
    each row's own N (w padded with ones), with ``N`` one horizon per row,
    and returns ``(identity_id, devs, first)`` with ``devs[..., j]`` at
    offset ``first + j``.
    """

    prep: Callable
    body: Callable


def run_rows(check: RowCheck, rows: Sequence[tuple], tol: float) -> list[IdentityReport]:
    """The reports of ``check`` on each ``(x, w, *args)`` of ``rows``, in
    order, each equal to the call on that instance alone (a stack of one)
    bit for bit.

    Rows that share their history and integer stages run as one stack, so
    each side of the identity runs once per stack through its own stage
    sequence.  When anything in the stacked pass fails (a later row's
    validation, a non-finite stage, a numpy warning raised as an error),
    the rows run again one at a time (:func:`batched`): the batch raises
    exactly the error of its first failing row.
    """
    return batched(lambda stack: _stacked(check, stack, tol), rows)


def _stacked(check: RowCheck, rows: Sequence[tuple], tol: float) -> list[IdentityReport]:
    preps = [check.prep(x, w, *args) for x, w, *args in rows]
    stacks: dict[tuple, list[int]] = {}
    for r, ((xr, wr, *_), prep) in enumerate(zip(rows, preps)):
        # the longer history: below its own, x reads 0 and w reads 1,
        # entries that a validated instance never reads
        h = max(xr.grid.history, wr.grid.history)
        stacks.setdefault((h, prep[1]), []).append(r)
    reports: list = [None] * len(rows)
    for (h, stages), members in stacks.items():
        N = np.array([rows[r][0].grid.horizon for r in members])
        x = np.zeros((len(members), h + 1 + int(N.max())))
        w = np.ones(x.shape)
        for j, r in enumerate(members):
            xr, wr, *_ = rows[r]
            n = xr.grid.horizon
            x[j, h - xr.grid.history : h + 1 + n] = xr.values
            w[j, h - wr.grid.history : h + 1 + n] = wr.window(-wr.grid.history, n)
        orders = [np.array(col) for col in zip(*(preps[r][0] for r in members))]
        ident, devs, first = check.body(x, w, h, N, *orders, *stages)
        # each row's largest deviation over its own N - first + 1 entries,
        # as IdentityReport.from_devs finds it (the first largest, a NaN
        # first): past them, and in one more column, every row reads -inf,
        # which any deviation beats; an empty row reports 0 at its first point
        lengths = N - first + 1
        W = devs.shape[-1]
        padded = np.full((len(members), W + 1), -np.inf)
        np.copyto(padded[:, :W], devs, where=np.arange(W) < lengths[:, None])
        at = padded.argmax(axis=-1)
        dev = np.where(lengths > 0, padded[np.arange(len(members)), at], 0.0)
        for r, d, j in zip(members, dev.tolist(), at.tolist()):
            first_k = rows[r][0].grid.a + first
            reports[r] = IdentityReport(ident, d, first_k + j, tol, preps[r][2])
    return reports


def _gamma_rows(q: np.ndarray, d: np.ndarray, N: np.ndarray) -> np.ndarray:
    """``rising_over_gamma_row(q[..., r], d[..., r], N[r])`` for each row r
    (and each leading index, as for one degree per leading index), zero
    past its own N, from one batch of rows in C order."""
    lengths = np.broadcast_to(N, q.shape)
    rows = np.zeros(q.shape + (int(N.max()),))
    flat = rows.reshape(-1, rows.shape[-1])
    batch = rising_over_gamma_rows(q.ravel().tolist(), d.ravel().tolist(), lengths.ravel().tolist())
    for r, row in enumerate(batch):
        flat[r, : len(row)] = row
    return rows


def _series(x: np.ndarray, w: np.ndarray, h: int, degrees, basis) -> np.ndarray:
    """The initial-value series ``sum_i basis(i) (w(a)/w(k)) d_i`` on the
    window, summed from 0.0 in the order of ``degrees``."""
    terms = _initial_value_terms(x, h, w, h, degrees, basis)
    return sum(terms, np.zeros(x[..., h + 1 :].shape))


# ---------------------------------------------------------------------------
# basic relations between the operator forms
# ---------------------------------------------------------------------------


def _gl_rl_prep(x, w, alpha):
    # the difference-of-sum stage covers the single-sum one's weight checks
    n = _stage(OperatorKind.RL, alpha, x.grid, w)
    return (alpha,), (n,), {"alpha": alpha}


def _agreement_body(ident, x, w, h, N, q, n):
    """The order-q single sum against the n-th difference of the order q - n sum."""
    gl = _gl_values(x[..., h + 1 :], q, w[..., h + 1 :])
    rl = _rl_values(x[..., h + 1 :], q, n, w[..., h + 1 - n :])
    return ident, np.abs(gl - rl), 1


#: Rows ``(x, w, alpha)``: the single-sum form against the
#: difference-of-sum form, pointwise.
GL_RL_AGREE = RowCheck(_gl_rl_prep, functools.partial(_agreement_body, "gl-rl-agree"))


def _rl_caputo_body(x, w, h, N, alpha, n):
    rl = _rl_values(x[..., h + 1 :], alpha, n, w[..., h + 1 - n :])
    cap = _caputo_values(x[..., h + 1 - n :], alpha, n, w[..., h + 1 - n :])
    i = np.arange(n)[:, None]
    basis = _gamma_rows(i - alpha, i - alpha + 1, N)  # one row per degree and instance
    corr = _series(x, w, h, range(n), basis.__getitem__)
    return "rl-caputo-correction", np.abs(rl - (cap + corr)), 1


#: Rows ``(x, w, alpha)``: difference-of-sum equals sum-of-difference plus
#: the initial-value series (the two forms admit the same inputs).
RL_CAPUTO_CORRECTION = RowCheck(_gl_rl_prep, _rl_caputo_body)


def _sum_composition_prep(x, w, alpha):
    # a finite order; integer ones are admitted, so n is ceil(alpha) itself
    _stage(OperatorKind.GL, -alpha, x.grid, w)
    # the n-th difference of an operator output
    n = _stage(OperatorKind.INTEGER_NABLA, math.ceil(alpha), None, w)
    return (-alpha,), (n,), {"alpha": alpha}


#: Rows ``(x, w, alpha)``: the order -alpha sum equals the n-th tempered
#: difference of the order -(alpha+n) sum: the agreement at q = -alpha.
SUM_COMPOSITION = RowCheck(_sum_composition_prep, functools.partial(_agreement_body, "sum-composition"))


def _difference_of_sum_prep(x, w, alpha):
    _stage(OperatorKind.GL, -alpha, x.grid, w)
    # both differences of an operator output; the sum-of-difference form
    # admits exactly what this one does
    n = _stage(OperatorKind.RL, alpha, None, w)
    return (alpha,), (n,), {"alpha": alpha}


def _difference_of_sum_body(x, w, h, N, alpha, n):
    x_body, w_low = x[..., h + 1 :], w[..., h + 1 - n :]
    u = _gl_values(x_body, -alpha, w_low[..., n:])
    d_rl = np.abs(_rl_values(u, alpha, n, w_low) - x_body)
    d_cap = np.abs(_caputo_values(_zero_extended(u, n), alpha, n, w_low) - x_body)
    return "diff-of-sum", np.maximum(d_rl, d_cap), 1


#: Rows ``(x, w, alpha)``: applying either fractional difference to the
#: order -alpha sum reproduces the signal.
DIFFERENCE_OF_SUM = RowCheck(_difference_of_sum_prep, _difference_of_sum_body)


def _sum_of_difference_prep(x, w, alpha, kind):
    if kind not in ("rl", "caputo"):
        raise ValueError(f"kind must be 'rl' or 'caputo', got {kind!r}")
    n = _stage(OperatorKind(kind), alpha, x.grid, w)
    return (alpha,), (n, kind), {"alpha": alpha}


def _sum_of_difference_body(x, w, h, N, alpha, n, kind):
    x_body, w_low = x[..., h + 1 :], w[..., h + 1 - n :]
    if kind == "rl":
        v = _rl_values(x_body, alpha, n, w_low)
        rhs = x_body
    else:
        v = _caputo_values(x[..., h + 1 - n :], alpha, n, w_low)
        L = x.shape[-1] - h - 1
        rhs = x_body - _series(x, w, h, range(n), lambda i: rising_over_factorial_row(i, L))
    lhs = _gl_values(v, -alpha, w_low[..., n:])
    return f"sum-of-diff-{kind}", np.abs(lhs - rhs), 1


#: Rows ``(x, w, alpha, kind)``: the order -alpha sum of a fractional
#: difference reproduces the signal minus its initial-value series.
#:
#: ``kind`` selects which difference: ``"rl"`` has no series, its
#: difference-of-sum initial values being empty sums under the
#: zero-extension convention; ``"caputo"`` sums the integer tempered
#: differences at the base.
SUM_OF_DIFFERENCE = RowCheck(_sum_of_difference_prep, _sum_of_difference_body)


def _mixed_composition_prep(x, w, beta, n, outer):
    # a NaN split passes this test and fails its stage below
    if beta <= 0 or beta >= n or beta % 1 == 0:
        raise ValueError(f"split order must be non-integer in (0, {n}), got {beta}")
    if outer not in ("rl", "caputo"):
        raise ValueError(f"outer must be 'rl' or 'caputo', got {outer!r}")
    inner = OperatorKind.CAPUTO if outer == "rl" else OperatorKind.RL
    # each split: the inner form on x, then the outer one on its output
    # (the second sets m = ceil(beta), m2 = ceil(n - beta))
    for first, second in ((beta, n - beta), (n - beta, beta)):
        m2, m = _stage(inner, first, x.grid, w), _stage(OperatorKind(outer), second, None, w)
    _stage(OperatorKind.INTEGER_NABLA if outer == "rl" else OperatorKind.GL, n, x.grid, w)
    return (beta,), (n, outer, m, m2), {"beta": beta, "n": n}


def _mixed_composition_body(x, w, h, N, beta, n, outer, m, m2):
    x_body = x[..., h + 1 :]
    w_low = lambda k: w[..., h + 1 - k :]  # w at offsets 1-k..N
    if outer == "rl":
        inner_a = _caputo_values(x[..., h + 1 - m :], beta, m, w_low(m))
        side_a = _rl_values(inner_a, n - beta, m2, w_low(m2))
        inner_b = _caputo_values(x[..., h + 1 - m2 :], n - beta, m2, w_low(m2))
        side_b = _rl_values(inner_b, beta, m, w_low(m))
        target = _nabla_values(x[..., h + 1 - n :], n, w_low(n))
    else:
        inner_a = _rl_values(x_body, beta, m, w_low(m))
        side_a = _caputo_values(_zero_extended(inner_a, m2), n - beta, m2, w_low(m2))
        inner_b = _rl_values(x_body, n - beta, m2, w_low(m2))
        side_b = _caputo_values(_zero_extended(inner_b, m), beta, m, w_low(m))
        target = _gl_values(x_body, float(n), w_low(0))
    lo = n - 1  # body index of offset n
    devs = np.maximum(
        np.abs(side_a[..., lo:] - target[..., lo:]), np.abs(side_b[..., lo:] - target[..., lo:])
    )
    return f"mixed-composition-{outer}", devs, n


#: Rows ``(x, w, beta, n, outer)``: split-order compositions of the two
#: fractional differences, ``outer`` (``"rl"`` or ``"caputo"``) outside.
#:
#: With the difference-of-sum form outside, both splits collapse to the
#: n-th tempered difference; with the sum-of-difference form outside they
#: collapse to the integer-order single-sum operator.  The splits that
#: route an integer difference through a zero-extended intermediate only
#: close from offset n on, so the comparison window is {a+n, ..., a+N}.
MIXED_COMPOSITION = RowCheck(_mixed_composition_prep, _mixed_composition_body)


# ---------------------------------------------------------------------------
# initial-instant reconstruction identities
# ---------------------------------------------------------------------------


def _taylor_remainder_prep(x, w, alpha, m):
    # also covers the base-point differences of the series, degrees m..n-1
    n = _stage(OperatorKind.CAPUTO, alpha, x.grid, w)
    if not (0 <= m < alpha):
        raise ValueError(f"shift m must satisfy 0 <= m < alpha, got {m}")
    _stage(OperatorKind.INTEGER_NABLA, m if m else n, x.grid, w)
    return (alpha,), (n, m), {"alpha": alpha, "m": m}


def _taylor_remainder_body(x, w, h, N, alpha, n, m):
    L = x.shape[-1] - h - 1
    x_body, w_body = x[..., h + 1 :], w[..., h + 1 :]
    basis = lambda i: rising_over_factorial_row(i - m, L)
    series = _series(x, w, h, range(m, n), basis)

    cap = _caputo_values(x[..., h + 1 - n :], alpha, n, w[..., h + 1 - n :])
    coef = _gamma_rows(alpha - m - 1, alpha - m, N)
    sumpart = causal_sum(coef, w_body * cap) / w_body

    lhs = x_body if m == 0 else _nabla_values(x[..., h + 1 - m :], m, w[..., h + 1 - m :])
    devs = np.abs(lhs - (series + sumpart))

    if m == 0:
        vn = _nabla_values(x[..., h + 1 - n :], n, w[..., h + 1 - n :])
        acc2 = causal_sum(rising_over_factorial_row(n - 1, L), w_body * vn)
        devs = np.maximum(devs, np.abs(x_body - (series + acc2 / w_body)))

    ident = "taylor-remainder-base" if m == 0 else "taylor-remainder-shifted"
    return ident, devs, 1


#: Rows ``(x, w, alpha, m)``: reconstruction of the m-th tempered
#: difference from base-point data plus a weighted remainder sum over the
#: fractional difference.
#:
#: ``m = 0`` reconstructs the signal itself and additionally checks the
#: integer-remainder variant (remainder driven by the n-th tempered
#: difference instead of the fractional one).
TAYLOR_REMAINDER = RowCheck(_taylor_remainder_prep, _taylor_remainder_body)


def _integer_defect_prep(x, w, n):
    # the difference stage covers the single-sum one's weight checks
    return (), (_stage(OperatorKind.INTEGER_NABLA, n, x.grid, w),), {"n": n}


def _integer_defect_body(x, w, h, N, n):
    gl = _gl_values(x[..., h + 1 :], float(n), w[..., h + 1 :])
    d = _settled(gl - _nabla_values(x[..., h + 1 - n :], n, w[..., h + 1 - n :]))
    expected = np.zeros(d.shape)
    for m in range(1, min(n, d.shape[-1]) + 1):
        # added left to right from 0, not by sum(), whose float sums are
        # compensated from Python 3.12 on
        acc = 0.0
        for i in range(m, n + 1):
            ratio = w[..., h + m - i] / w[..., h + m]
            acc += (-1) ** i * math.comb(n, i) * ratio * x[..., h + m - i]
        expected[..., m - 1] = -acc
    return "integer-defect", np.abs(d - expected), 1


#: Rows ``(x, w, n)``: the integer single-sum operator minus the plain
#: tempered difference equals the missing-stencil boundary sum, and
#: vanishes from offset n+1 on.
INTEGER_DEFECT = RowCheck(_integer_defect_prep, _integer_defect_body)


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
    return IdentityReport(identity_id, dev, argmax_k, tol, params)


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
    if N < first:
        raise ValueError(f"{kind} {side} limit at n = {n} needs a horizon of at least {first}")
    sl = slice(first - 1, N)

    # the limit from below is the n-th difference, from above the (n-1)-th
    target_order = n if side == "at_n" else n - 1
    target = x.body if target_order == 0 else nabla_n_tempered(x, target_order, w).body
    target = target[sl]

    ratio = _base_ratio(w.window(0, N))
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
    return IdentityReport(
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
    base-point correction block.  The expansion reads the factors and the
    weight no deeper below the base than the operator does.
    """
    if f.grid != g.grid:
        raise GridMismatch("product factors must share a grid")
    # the operator checks the stage and history that the expansion reads
    lhs = apply_operator(Signal(f.grid, f.values * g.values), spec).body
    devs = np.abs(lhs - _leibniz_rhs(f, g, spec))
    kind = spec.kind
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
        ratio = _base_ratio(w.window(0, N))
        q = [i - alpha for i in range(n)]
        basis = rising_over_gamma_rows(q, [v + 1 for v in q], [N] * n)
        r_term = np.zeros(N)
        for j in range(n):
            dfj = nabla_n_tempered_at(f, j, w, 0)
            for i in range(j, n):
                dg = nabla_at(g, i - j, -j)
                r_term += math.comb(i, j) * basis[i] * ratio * (dfj * dg)
        rhs = rhs - r_term
    return rhs


# ---------------------------------------------------------------------------
# decay of the gap between the two fractional differences
# ---------------------------------------------------------------------------


def check_rl_caputo_asymptotics(x: Signal, alpha: float, w: Weight) -> IdentityReport:
    """Decay of the gap between the two fractional differences over the
    window: the gap at the end must fall below its value at the midpoint
    and below ten times the power-law envelope of its initial-value series
    (an artifact-side bound; the decay rate itself is not quantified
    analytically).  The window needs a horizon of at least 4.

    The deviation reported is a dimensionless ratio margin: the larger of
    the two decay ratios, against tolerance 1.0.
    """
    n = _stage(OperatorKind.RL, alpha, None, None)
    N = x.grid.horizon
    if N < 4:
        raise ValueError("the window needs a horizon of at least 4")
    gap = np.abs(rl_tempered(x, alpha, w).body - caputo_tempered(x, alpha, w).body)
    end = float(gap[N - 1])
    mid = float(gap[N // 2 - 1])
    # left to right from 0, as in _integer_defect_body
    d_sum = 0.0
    for i in range(n):
        d_sum += abs(nabla_n_tempered_at(x, i, w, 0))
    c_bound = abs(w.at(0) / w.at(N)) * d_sum
    envelope = 10.0 * float(N) ** (n - 1 - alpha) * c_bound
    floor = 1e-300
    ratio = max(end / max(mid, floor), end / max(envelope, floor))
    return IdentityReport(
        "rl-caputo-decay-large-k",
        ratio,
        x.grid.a + N,
        1.0,
        {"alpha": alpha, "gap_end": end, "gap_mid": mid, "envelope": envelope},
    )


def check_rl_caputo_base_shift(
    x_fn: Callable[[float], float], w_fn: Callable[[float], float], alpha: float
) -> IdentityReport:
    """Decay of the gap between the two fractional differences as the base
    point moves earlier: from a = 0 to -100 and -200, the gap at the fixed
    lattice point 20 must shrink each time.  Each grid samples the signal
    ``x_fn`` (of k) and the weight ``w_fn`` (of k - a).

    The deviation reported is a dimensionless ratio margin: the larger of
    the two decay ratios, against tolerance 1.0.
    """
    n = _stage(OperatorKind.RL, alpha, None, None)
    gaps = []
    for a in (0.0, -100.0, -200.0):
        g = Grid(a=a, history=n, horizon=20 - int(a))
        xs = make_signal_from_fn(g, x_fn)
        ws = make_weight(g, fn=lambda k: w_fn(k - a))
        gap = np.abs(
            rl_tempered(xs, alpha, ws).body - caputo_tempered(xs, alpha, ws).body
        )
        gaps.append(float(gap[-1]))  # same lattice point 20
    floor = 1e-300
    ratio = max(gaps[1] / max(gaps[0], floor), gaps[2] / max(gaps[1], floor))
    return IdentityReport(
        "rl-caputo-decay-early-a", ratio, 20.0, 1.0, {"alpha": alpha, "gaps": gaps}
    )
