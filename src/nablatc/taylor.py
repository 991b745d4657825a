"""Series representations of the tempered operators.

Three families: expansions around the base point (finite and exact, with a
weighted remainder sum), truncated series sweeps around the base point for
signals rich enough in history, and expansions around the evaluation point
itself (exact finite sums with no truncation at all).  Every representation
here is an alternative route to the same operator values, so each one is
checkable against the direct evaluations pointwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .operators import (
    InsufficientHistory,
    InsufficientLags,
    OperatorKind,
    OperatorSpec,
    _difference_table,
    _initial_value_terms,
    _output,
    _pointwise,
    _signed_binomials,
    _stage,
    apply_operator,
    causal_dot,
    causal_sum,
    initial_value_terms,
    nabla_n,
    nabla_n_tempered,
    tempered_diff_rows,
)
from .signals import Grid, NonFiniteSample, Signal, Weight, _first_bad
from .special import (
    DomainError,
    binomial_coefficients,
    rising_over_factorial_row,
    rising_over_gamma_row,
    rising_over_gamma_rows,
)

__all__ = [
    "DegreeTooLow",
    "InsufficientLags",
    "SeriesSweep",
    "taylor_initial",
    "reconstruct_initial",
    "reconstruct_from_current",
    "tempered_op_taylor_initial",
    "taylor_series_initial",
    "tempered_op_taylor_current",
    "tempered_op_taylor_future",
]


class DegreeTooLow(ConfigError):
    """The expansion degree does not dominate the operator's integer stage,
    or the form does not cover the operator kind: a choice of options."""


@dataclass(frozen=True)
class SeriesSweep:
    """Deviation of truncated base-point series from the direct operator,
    per truncation degree."""

    degrees: tuple[int, ...]
    deviations: tuple[float, ...]


def taylor_initial(x: Signal, K: int) -> np.ndarray:
    """Backward differences of the signal at the base point, degrees 0..K,
    as a read-only array (the factorial normalization lives in the basis)."""
    if K < 0:
        raise DegreeTooLow(f"degree must be >= 0, got {K}")
    # K + 1 points of history, as the remainder of reconstruct_initial asks
    _degree_history(x, K, K)
    coeffs = _pointwise(x.values, x.grid.history, None, 0, _difference_table(K))
    coeffs.setflags(write=False)
    return coeffs


def reconstruct_initial(x: Signal, K: int) -> Signal:
    """Degree-K base-point expansion plus its remainder sum.

    This is a finite identity: the reconstruction equals the signal on the
    whole evaluation window, exactly up to rounding.
    """
    coeffs = taylor_initial(x, K)
    N = x.grid.horizon
    out = np.zeros(N + 1)  # offsets 0..N
    out[0] = coeffs[0]  # only the i=0 basis survives at the anchor
    with np.errstate(over="ignore", invalid="ignore"):  # Signal rejects an overflow
        for i in range(K + 1):
            out[1:] += rising_over_factorial_row(i, N) * coeffs[i]
        # remainder: sum_{j=1}^{m} ((m-j+1)^(K)/K!) * nabla^{K+1} x(j)
        dKp1 = nabla_n(x, K + 1).body
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
    # d[i] is nabla_at(x, i, k), for i = 0..t
    d = _pointwise(x.values, x.grid.position(k_offset), None, 0, _difference_table(t))
    acc = 0.0
    # (j-k)^(i)/i! = (-1)^i C(t, i)
    for b, di in zip(_signed_binomials(t).tolist(), d.tolist()):
        acc += b * di
    if not math.isfinite(acc):  # a term or partial sum past binary64
        raise NonFiniteSample(f"reconstructing offset {j_offset} from offset {k_offset} leaves binary64")
    return acc


def _lowest_degree(spec: OperatorSpec) -> int:
    """Lowest degree of the base-point series: the integer stage n for the
    integer and ``caputo`` kinds, else 0."""
    return spec.n if spec.kind in (OperatorKind.INTEGER_NABLA, OperatorKind.CAPUTO) else 0


def _basis(spec: OperatorSpec, degrees: range, N: int) -> Callable[[int], np.ndarray]:
    """The base-point basis rows of ``degrees`` at offsets 1..N, as a
    function of the degree: (k-a)^(i-order) over Gamma(i-order+1), built
    as one batch of Gamma-ratio rows at the first call, or over (i-n)! for
    the integer kind."""
    if spec.kind is OperatorKind.INTEGER_NABLA:
        return lambda i: rising_over_factorial_row(i - spec.n, N)

    @functools.cache
    def rows() -> list[np.ndarray]:
        q = [i - spec.order for i in degrees]
        return rising_over_gamma_rows(q, [v + 1 for v in q], [N] * len(q))

    return lambda i: rows()[i - degrees.start]


def _degree_history(x: Signal, K: int, top: int) -> None:
    """The order cap of a difference of order ``top``, then the K + 1 points
    of history below the base point that a degree-K form reads, a short
    history named by the degree."""
    _stage(None, top, None, None)
    if x.grid.history < K + 1:
        raise InsufficientHistory(f"degree {K} needs history >= {K + 1}")


def _closing_stage(x: Signal, K: int, w: Weight | None) -> None:
    """The checks of the (K+1)-th difference that closes a degree-K form, in
    :func:`_stage`'s order, with a short history named by the degree."""
    _degree_history(x, K, K + 1)
    _stage(OperatorKind.INTEGER_NABLA, K + 1, x.grid, w)


def tempered_op_taylor_initial(x: Signal, spec: OperatorSpec, K: int) -> Signal:
    """Base-point representation: initial-value series plus weighted
    remainder sum driven by the (K+1)-th tempered difference.

    Exact identity; the result equals the direct operator pointwise.
    """
    w, lo = spec.weight, _lowest_degree(spec)
    if lo and K <= lo:
        raise DegreeTooLow(f"{spec.kind.value} representation needs degree K > {lo}, got {K}")
    # the remainder's (K+1)-th difference covers the series' at the base
    _closing_stage(x, K, w)

    def form(x: Signal) -> Signal:
        N = x.grid.horizon
        # an overflowing sum makes a non-finite sample, which Signal rejects
        with np.errstate(over="ignore", invalid="ignore"):
            degrees = range(lo, K + 1)
            basis = _basis(spec, degrees, N)
            # the terms unchecked: the output names the first bad offset of the sum
            wv = w.window(-w.grid.history, N)
            terms = _initial_value_terms(x.values, x.grid.history, wv, w.grid.history, degrees, basis)
            series = sum(terms, np.zeros(N))
            # the remainder coefficient at lag k-j is the degree-K basis row
            u = nabla_n_tempered(x, K + 1, w)
            acc = causal_sum(basis(K), w.window(1, N) * u.body)
            body = series + acc / w.window(1, N)
        return _output(x.grid.a, N, body)

    return _located(form, x)


def taylor_series_initial(x: Signal, spec: OperatorSpec, K_max: int) -> SeriesSweep:
    """Truncation sweep of the pure base-point series against the direct
    operator, for signals whose expansion actually converges there."""
    k_lo = _lowest_degree(spec) + 1
    if K_max < k_lo:
        raise DegreeTooLow(f"sweep needs K_max >= {k_lo}, got {K_max}")
    # the history of the base-point form at degree K_max
    _degree_history(x, K_max, K_max)
    N = x.grid.horizon
    direct = apply_operator(x, spec).body
    # one pass over the degrees: the series to degree K is the one to
    # degree K - 1 plus term K, the same additions a rebuild would make
    series = np.zeros(N)
    degrees = []
    deviations = []
    span = range(k_lo - 1, K_max + 1)
    for i, term in zip(span, initial_value_terms(x, spec.weight, span, _basis(spec, span, N))):
        series += term
        if i >= k_lo:
            degrees.append(i)
            deviations.append(float(np.max(np.abs(series - direct))))
    return SeriesSweep(tuple(degrees), tuple(deviations))


def _shift(spec: OperatorSpec) -> int:
    """Lowest degree of the evaluation-point forms: n for ``caputo``, else 0."""
    return spec.n if spec.kind is OperatorKind.CAPUTO else 0


def _point_series(x: Signal, spec: OperatorSpec, shift: int, top: int) -> np.ndarray:
    """Evaluation-point series to degree ``top``, divided by the weight: at m,
    the terms C(order-shift, i-shift) (m-i+shift)^(i-order)/Gamma(i-order+1)
    nabla^i [w x](m) for i = shift..min(top, m-1+shift) (past that the base
    is not positive), in ascending i, one pass per i over the points it
    reaches, with the basis rows of all i one batch of Gamma-ratio rows."""
    order, w = float(spec.order), spec.weight
    N = x.grid.horizon
    rows = tempered_diff_rows(x, w, top)
    binom = binomial_coefficients(order - shift, top - shift + 1)
    acc = np.zeros(N)
    lags = range(min(top - shift, N - 1) + 1)  # lo = i - shift
    q = [lo + shift - order for lo in lags]
    # an overflowing sum makes a non-finite sample, which Signal rejects
    with np.errstate(over="ignore", invalid="ignore"):
        bases = rising_over_gamma_rows(q, [v + 1 for v in q], [N - lo for lo in lags])
        for lo, basis in zip(lags, bases):
            acc[lo:] += binom[lo] * basis * rows[lo + shift, lo:]
        return acc / w.window(1, N)


def tempered_op_taylor_current(x: Signal, spec: OperatorSpec) -> Signal:
    """Evaluation-point representation: exact finite sums over the
    backward differences at the evaluation point itself.

    For the sum-of-difference kind the lag range extends n points deeper,
    which is why that form needs history n.
    """
    shift = _shift(spec)
    _stage(None, shift, x.grid, spec.weight, 0)

    def form(x: Signal) -> Signal:
        N = x.grid.horizon
        return _output(x.grid.a, N, _point_series(x, spec, shift, N - 1 + shift))

    return _located(form, x)


def _located(form: Callable[[Signal], Signal], x: Signal) -> Signal:
    """``form(x)``, where a Gamma-ratio basis that leaves binary64 raises
    an error naming the first lattice offset that fails.

    ``form`` on the prefix of ``x`` with a shorter horizon M takes the
    prefix of each basis row that reaches offsets 1..M, so whether the
    basis is finite is monotone in M, and a bisection finds the longest
    horizon with a finite basis; a form on the way that holds a non-finite
    sample names the first failing offset."""
    try:
        return form(x)
    except DomainError as err:
        first_err = err
    good, bad = 0, x.grid.horizon
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            form(Signal(Grid(x.grid.a, x.grid.history, mid), x.window(-x.grid.history, mid)))
            good = mid
        except DomainError as shorter:
            bad, first_err = mid, shorter
        except NonFiniteSample as earlier:
            raise earlier from None
    if bad == 1:  # no horizon helps
        raise first_err from None
    raise DomainError(f"{first_err}" + _first_bad(bad, np.ones(1, dtype=bool), "signal")) from None


def tempered_op_taylor_future(x: Signal, spec: OperatorSpec, K: int) -> Signal:
    """Evaluation-point expansion truncated at degree K with the double-sum
    residual that restores exactness.

    Exact identity for any K in range; the residual couples the (K+1)-th
    tempered difference with a lag-window kernel.
    """
    kind, w = spec.kind, spec.weight
    if kind is OperatorKind.INTEGER_NABLA:
        raise DegreeTooLow("future-instant form covers the fractional kinds only")
    if kind is OperatorKind.CAPUTO and K < spec.n:
        raise DegreeTooLow(f"sum-of-difference form needs degree K >= {spec.n}")
    # the residual's (K+1)-th difference; the rows check the weight they read
    _closing_stage(x, K, None)
    shift = _shift(spec)

    def form(x: Signal) -> Signal:
        N = x.grid.horizon
        body = _point_series(x, spec, shift, K)
        # an overflowing sum makes a non-finite sample, which Signal rejects
        with np.errstate(over="ignore", invalid="ignore"):
            v = nabla_n_tempered(x, K + 1, w)
            res = _future_residual(w.window(1, N) * v.body, shift - spec.order, K - shift)
            body -= res / w.window(1, N)
        return _output(x.grid.a, N, body)

    return _located(form, x)


def _future_residual(wv: np.ndarray, kern_d: float, kdeg: int) -> np.ndarray:
    """Residual of the future-instant form at offsets m = 1..N, its double
    sum over io and jo taken in exchanged order:

        res(m) = sum_{jo=2}^{m-kdeg} kern(m-jo+2) G_m(jo),
        G_m(jo) = sum_{io=jo+kdeg}^{m} wv(io) B(io-jo)

    with ``wv(io) = wv[io-1]``, the lag-window kernel
    ``kern(p) = p^(kern_d - 1)/Gamma(kern_d)`` and ``B(t) = (-1)^kdeg C(t, kdeg)``.
    ``G_m(jo)`` is ``G_{m-1}(jo) + wv(m) B(m-jo)``, from 0.0: one pass per m
    extends it, and one :func:`causal_dot` adds res(m) in ascending jo.
    """
    N = len(wv)
    kern = rising_over_gamma_row(kern_d - 1.0, kern_d, N)  # kern[p-1] = kern(p)
    # bvals[t-kdeg] = B(t) and g[jo-2] = G_m(jo), for the jo that reach N
    bvals = (-1.0) ** kdeg * rising_over_factorial_row(kdeg, N - 1 - kdeg)
    g = np.zeros(len(bvals))
    res = np.zeros(N)
    for m in range(kdeg + 2, N + 1):
        n = m - kdeg - 1  # jo = 2..m-kdeg, so t = m-jo runs from m-2 down to kdeg
        g[:n] += wv[m - 1] * bvals[n - 1 :: -1]
        res[m - 1] = causal_dot(g, kern[kdeg + 1 : m])
    return res
