"""Series representations of the tempered operators.

Three families: expansions around the base point (finite and exact, with a
weighted remainder sum), truncated series sweeps around the base point for
signals rich enough in history, and expansions around the evaluation point
itself (exact finite sums with no truncation at all).  Every representation
here is an alternative route to the same operator values, so each one is
checkable against the direct evaluations pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NablaError
from .operators import (
    InsufficientHistory,
    InsufficientLags,
    OperatorKind,
    OperatorSpec,
    apply_operator,
    causal_sum,
    nabla_at,
    nabla_n_tempered,
    nabla_n_tempered_at,
    tempered_diff_rows,
)
from .signals import Grid, Signal, Weight
from .special import (
    binomial_coefficients,
    rising_over_factorial_row,
    rising_over_gamma,
    rising_over_gamma_row,
)

__all__ = [
    "DegreeTooLow",
    "InsufficientLags",
    "TaylorExpansion",
    "SeriesSweep",
    "taylor_initial",
    "reconstruct_initial",
    "reconstruct_from_current",
    "tempered_op_taylor_initial",
    "taylor_series_initial",
    "tempered_op_taylor_current",
    "tempered_op_taylor_future",
]


class DegreeTooLow(NablaError):
    """The expansion degree does not dominate the operator's integer stage."""


@dataclass(frozen=True)
class TaylorExpansion:
    """Expansion data of a signal around a lattice anchor.

    ``coefficients[i]`` holds the i-th backward difference at the anchor;
    the factorial normalization lives in the basis, not here.
    """

    base: str  # "initial_a" | "future_b" | "current_k"
    degree: int
    coefficients: np.ndarray
    remainder_kind: str  # "none" | "integer_sum" | "fractional_sum"

    def __post_init__(self) -> None:
        self.coefficients.setflags(write=False)


@dataclass(frozen=True)
class SeriesSweep:
    """Deviation of truncated base-point series from the direct operator,
    per truncation degree."""

    kind: OperatorKind
    order: float
    degrees: tuple[int, ...]
    deviations: tuple[float, ...]
    params: dict = field(default_factory=dict)

    @property
    def final_deviation(self) -> float:
        return self.deviations[-1]


def taylor_initial(x: Signal, K: int) -> TaylorExpansion:
    """Backward differences of the signal at the base point, degrees 0..K."""
    if K < 0:
        raise DegreeTooLow(f"degree must be >= 0, got {K}")
    if x.grid.history < K + 1:
        raise InsufficientHistory(f"degree {K} expansion needs history >= {K + 1}")
    coeffs = np.array([nabla_at(x, i, 0) for i in range(K + 1)])
    return TaylorExpansion(
        base="initial_a", degree=K, coefficients=coeffs, remainder_kind="integer_sum"
    )


def reconstruct_initial(x: Signal, K: int) -> Signal:
    """Degree-K base-point expansion plus its remainder sum.

    This is a finite identity: the reconstruction equals the signal on the
    whole evaluation window, exactly up to rounding.
    """
    exp = taylor_initial(x, K)
    N = x.grid.horizon
    out = np.zeros(N + 1)  # offsets 0..N
    out[0] = exp.coefficients[0]  # only the i=0 basis survives at the anchor
    for i in range(K + 1):
        out[1:] += rising_over_factorial_row(i, N) * exp.coefficients[i]
    # remainder: sum_{j=1}^{m} ((m-j+1)^(K)/K!) * nabla^{K+1} x(j)
    dKp1 = np.array([nabla_at(x, K + 1, m) for m in range(1, N + 1)])
    out[1:] += causal_sum(rising_over_factorial_row(K, N), dKp1)
    return Signal(Grid(x.grid.a, 0, N), out)


def reconstruct_from_current(x: Signal, k_offset: int, j_offset: int) -> float:
    """Recover x at offset j from the backward differences at offset k >= j.

    Finite evaluation-point expansion; exact for any stored signal.
    """
    if j_offset > k_offset:
        raise InsufficientLags("target offset must not exceed the expansion point")
    t = k_offset - j_offset
    if k_offset - t < -x.grid.history:
        raise InsufficientLags("expansion reaches below the stored grid")
    acc = 0.0
    for i in range(t + 1):
        # (j-k)^(i)/i! = (-1)^i C(t, i)
        acc += (-1.0) ** i * math.comb(t, i) * nabla_at(x, i, k_offset)
    return acc


def _series_term_table(
    x: Signal, w: Weight, kind: OperatorKind, order: float, n: int, K: int, N: int
) -> np.ndarray:
    """Partial base-point series sum_{i..K} basis_i(k) (w(a)/w(k)) d_i."""
    i_lo = n if kind in (OperatorKind.INTEGER_NABLA, OperatorKind.CAPUTO) else 0
    ratio = w.at(0) / w.window(1, N)
    out = np.zeros(N)
    for i in range(i_lo, K + 1):
        d_i = nabla_n_tempered_at(x, i, w, 0)
        if kind is OperatorKind.INTEGER_NABLA:
            basis = rising_over_factorial_row(i - n, N)
        else:
            basis = rising_over_gamma_row(i - order, i - order + 1, N)
        out += basis * ratio * d_i
    return out


def tempered_op_taylor_initial(x: Signal, spec: OperatorSpec, K: int) -> Signal:
    """Base-point representation: initial-value series plus weighted
    remainder sum driven by the (K+1)-th tempered difference.

    Exact identity; the result equals the direct operator pointwise.
    """
    kind, order, w = spec.kind, spec.order, spec.weight
    n = spec.n if kind is not OperatorKind.GL else 0
    if kind in (OperatorKind.INTEGER_NABLA, OperatorKind.CAPUTO) and K <= n:
        raise DegreeTooLow(f"{kind.value} representation needs degree K > {n}, got {K}")
    if K < 0 or x.grid.history < K + 1:
        raise InsufficientHistory(f"degree {K} needs history >= {K + 1}")
    N = x.grid.horizon
    series = _series_term_table(x, w, kind, order, n, K, N)

    # remainder coefficient: (k-j+1)^(K-order)/Gamma(K-order+1), with the
    # integer kind using (K-n)! in place of the Gamma
    if kind is OperatorKind.INTEGER_NABLA:
        coef = rising_over_factorial_row(K - int(spec.order), N)
    else:
        coef = rising_over_gamma_row(K - order, K - order + 1, N)
    u = nabla_n_tempered(x, K + 1, w)
    acc = causal_sum(coef, w.window(1, N) * u.body)
    body = series + acc / w.window(1, N)
    return Signal(Grid(x.grid.a, 0, N), np.concatenate([[0.0], body]))


def taylor_series_initial(x: Signal, spec: OperatorSpec, K_max: int) -> SeriesSweep:
    """Truncation sweep of the pure base-point series against the direct
    operator, for signals whose expansion actually converges there."""
    kind = spec.kind
    n = spec.n if kind is not OperatorKind.GL else 0
    k_lo = (n if kind in (OperatorKind.INTEGER_NABLA, OperatorKind.CAPUTO) else 0) + 1
    if K_max < k_lo:
        raise DegreeTooLow(f"sweep needs K_max >= {k_lo}, got {K_max}")
    if x.grid.history < K_max + 1:
        raise InsufficientHistory(f"sweep to degree {K_max} needs history >= {K_max + 1}")
    N = x.grid.horizon
    direct = apply_operator(x, spec).body
    degrees = []
    deviations = []
    for K in range(k_lo, K_max + 1):
        series = _series_term_table(x, spec.weight, kind, spec.order, n, K, N)
        degrees.append(K)
        deviations.append(float(np.max(np.abs(series - direct))))
    return SeriesSweep(
        kind=kind,
        order=spec.order,
        degrees=tuple(degrees),
        deviations=tuple(deviations),
    )


def tempered_op_taylor_current(x: Signal, spec: OperatorSpec) -> Signal:
    """Evaluation-point representation: exact finite sums over the
    backward differences at the evaluation point itself.

    For the sum-of-difference kind the lag range extends n points deeper,
    which is why that form needs history n.
    """
    order, w = float(spec.order), spec.weight
    N = x.grid.horizon
    shift = spec.n if spec.kind is OperatorKind.CAPUTO else 0
    if x.grid.history < shift:
        raise InsufficientLags(f"sum-of-difference form needs history >= {shift}")
    rows = tempered_diff_rows(x, w, N - 1 + shift)
    binom = binomial_coefficients(order - shift, N)
    body = np.zeros(N)
    for m in range(1, N + 1):
        acc = 0.0
        for i in range(shift, m + shift):
            acc += (
                binom[i - shift]
                * rising_over_gamma(m - i + shift, i - order, i - order + 1)
                * rows[i, m - 1]
            )
        body[m - 1] = acc / w.at(m)
    return Signal(Grid(x.grid.a, 0, N), np.concatenate([[0.0], body]))


def tempered_op_taylor_future(x: Signal, spec: OperatorSpec, K: int) -> Signal:
    """Evaluation-point expansion truncated at degree K with the double-sum
    residual that restores exactness.

    Exact identity for any K in range; the residual couples the (K+1)-th
    tempered difference with a lag-window kernel.
    """
    kind, order, w = spec.kind, spec.order, spec.weight
    if kind is OperatorKind.INTEGER_NABLA:
        raise DegreeTooLow("future-instant form covers the fractional kinds only")
    if kind is OperatorKind.CAPUTO and K < spec.n:
        raise DegreeTooLow(f"sum-of-difference form needs degree K >= {spec.n}")
    if K < 0 or x.grid.history < K + 1:
        raise InsufficientHistory(f"degree {K} needs history >= {K + 1}")
    N = x.grid.horizon
    shift = spec.n if kind is OperatorKind.CAPUTO else 0
    rows = tempered_diff_rows(x, w, K)
    binom = binomial_coefficients(order - shift, K - shift + 1)
    body = np.zeros(N)
    for m in range(1, N + 1):
        acc = 0.0
        # terms with i >= m + shift carry a vanished basis (denominator pole)
        for i in range(shift, K + 1):
            acc += (
                binom[i - shift]
                * rising_over_gamma(m - i + shift, i - order, i - order + 1)
                * rows[i, m - 1]
            )
        body[m - 1] = acc / w.at(m)
    kern_q, kern_d = shift - order - 1.0, shift - order
    kdeg = K - shift

    # residual: sum over inner offsets of the (K+1)-th tempered difference
    # against the lag-window kernel
    v = nabla_n_tempered(x, K + 1, w)
    wv = w.window(1, N) * v.body  # value at offset i is wv[i-1]
    for m in range(1, N + 1):
        res = 0.0
        for io in range(2, m + 1):
            s = 0.0
            for jo in range(2, io + 1):
                t = io - jo
                if t < kdeg:
                    continue
                bval = (-1.0) ** kdeg * math.comb(t, kdeg)
                s += rising_over_gamma(m - jo + 2, kern_q, kern_d) * bval
            res += wv[io - 1] * s
        body[m - 1] -= res / w.at(m)
    return Signal(Grid(x.grid.a, 0, N), np.concatenate([[0.0], body]))
