"""The tempered operator family.

All operators act on the weighted sequence ``z = w * x`` and divide the
result by ``w`` afterwards.  Their outputs are defined on the evaluation
window ``{a+1, ..., a+horizon}``; history points are consumed, never
produced.  Where a composed operator needs values of an intermediate result
at or below the base point, those values are the empty partial sums of its
defining formula, which is zero (the zero-extension convention).

Every lagged inner sum goes through :func:`causal_sum`, which accumulates
each output in ascending lag order with two roundings per term (one numpy
einsum per tile of outputs, or a per-lag loop where einsum would round
differently), so results are identical run to run and equal to sequential
evaluation.  :func:`causal_dot` computes one such output alone, for
recurrences that need each output before the next.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NablaError
from .signals import Grid, GridMismatch, Signal, Weight
from .special import gl_coefficients

__all__ = [
    "OperatorKind",
    "OperatorSpec",
    "InsufficientHistory",
    "InsufficientLags",
    "IntegerOrder",
    "MAX_INTEGER_STAGE",
    "causal_sum",
    "causal_dot",
    "check_order",
    "tempered_diff_rows",
    "nabla_n",
    "nabla_n_tempered",
    "nabla_n_tempered_at",
    "nabla_at",
    "gl_tempered",
    "rl_tempered",
    "rl_tempered_at_base",
    "caputo_tempered",
    "gl_integer_vs_nabla_defect",
    "with_zero_history",
    "apply_operator",
    "set_fault_injection",
]


class InsufficientHistory(NablaError):
    """The signal (or weight) grid lacks the history the operator needs."""


class InsufficientLags(NablaError):
    """An expansion needs lags beyond the stored grid."""


class IntegerOrder(NablaError):
    """Order outside the set the operator kind is defined for."""


class OperatorKind(enum.Enum):
    INTEGER_NABLA = "nabla"
    GL = "gl"
    RL = "rl"
    CAPUTO = "caputo"


#: Largest integer difference order: every ``(-1)^i C(n, i)`` of the
#: stencil is finite in binary64 up to n = 1029 (C(1030, 515) overflows).
MAX_INTEGER_STAGE = 1029


def check_order(kind: OperatorKind, order: float) -> None:
    """Raise :class:`IntegerOrder` unless ``order`` is admissible for ``kind``.

    RL and Caputo require a non-integer order in (n-1, n) with
    1 <= n <= :data:`MAX_INTEGER_STAGE`; the integer kind requires a
    positive integer up to that cap; the single-sum kind accepts any finite
    real order (positive = difference, negative = sum, zero = identity).
    The cap is checked before anything is allocated: the history a
    difference of order n needs is n points long.
    """
    a = float(order)
    if not math.isfinite(a):
        raise IntegerOrder(f"order must be finite, got {a}")
    if kind in (OperatorKind.RL, OperatorKind.CAPUTO):
        if a == math.floor(a) or a < 0:
            raise IntegerOrder(f"{kind.value} needs a positive non-integer order, got {a}")
    elif kind is OperatorKind.INTEGER_NABLA:
        if a != math.floor(a) or a < 1:
            raise IntegerOrder(f"{kind.value} needs a positive integer order, got {a}")
    else:
        return
    if a > MAX_INTEGER_STAGE:
        raise IntegerOrder(
            f"{kind.value} order {a} exceeds {MAX_INTEGER_STAGE}: the integer "
            f"difference stencil past that order overflows binary64"
        )


@dataclass(frozen=True)
class OperatorSpec:
    """Operator kind + order + tempering weight; the order is checked by
    :func:`check_order`."""

    kind: OperatorKind
    order: float
    weight: Weight

    def __post_init__(self) -> None:
        check_order(self.kind, self.order)

    @property
    def n(self) -> int:
        """Smallest integer >= order (the integer stage of RL/Caputo)."""
        return int(math.ceil(self.order))


# Diagnostic hook: additive output perturbation of the single-sum operator,
# used by the verification CLI to demonstrate suite sensitivity.  Scoped to
# the current context (thread or task), so a fault set in one thread never
# reaches another.
_fault_eps: contextvars.ContextVar[float] = contextvars.ContextVar(
    "nablatc_fault_eps", default=0.0
)


def set_fault_injection(eps: float) -> float:
    """Set the additive perturbation applied to single-sum outputs in the
    current context.

    Returns the previous value so callers can restore it.
    """
    previous = _fault_eps.get()
    _fault_eps.set(float(eps))
    return previous


#: Outputs per einsum call in :func:`causal_sum`.
_TILE = 256


def _causal_sum_by_lag(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    N = len(z)
    out = np.zeros(c.shape[:-1] + (N,))
    # lag i's coefficient: a scalar, or a column of one entry per row of c
    lags = c if c.ndim == 1 else c.T[..., None]
    # a non-finite c (the usual reason for this route) makes non-finite
    # outputs, which the caller rejects; inf * 0 and inf - inf need no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(N):
            out[..., i:] += lags[i] * z[: N - i]
    return out


def _causal_sum_tiled(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    N = len(z)
    out = np.empty(N)
    pad = max(min(N, _TILE) - 1, 0)
    zp = np.zeros(pad + N)
    zp[pad:] = z  # zp[pad + j] = z[j]
    step = zp.itemsize
    for k0 in range(0, N, _TILE):
        L = min(_TILE, N - k0)
        nl = k0 + L
        # V[i, t] = z[k0 + t - i] for lags i < nl; zero where k0 + t < i.
        # A view of zp: row i starts at zp[pad + k0 - i], so the lowest
        # element read, zp[pad + 1 - L] at i = nl - 1, t = 0, is in range
        V = np.ndarray(
            (nl, L), np.float64, buffer=zp, offset=(pad + k0) * step, strides=(-step, step)
        )
        # order="F": outputs t innermost, lags i outermost and ascending
        np.einsum("i,ik->k", c[:nl], V, out=out[k0 : k0 + L], order="F")
    return out


def _einsum_fuses() -> bool:
    """Whether the tiled einsum rounds ``acc + c*z`` once (fused
    multiply-add) instead of twice.

    Probed on ``-1 + a*a`` with ``a = 1 + 2^-30``: two roundings give
    2^-29, a fused multiply-add 2^-29 + 2^-60.  37 outputs reach both the
    vector body and the scalar tail of einsum's inner loop.
    """
    a = 1.0 + 2.0**-30
    z = np.tile([a, -1.0], 19)[:37]
    c = np.zeros(37)
    c[:2] = 1.0, a
    return not np.array_equal(_causal_sum_tiled(c, z), _causal_sum_by_lag(c, z))


_EINSUM_FUSES = _einsum_fuses()


def causal_sum(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz sum ``out[k] = sum_{i=0}^{k} c[i] z[k-i]``.

    Each output adds its terms in ascending lag order ``i``, starting from
    0.0, with one rounding for each product and one for each addition, so
    it equals the sequential scalar loop bit for bit.  ``c`` needs at least
    ``len(z)`` entries.

    One einsum per tile of ``_TILE`` outputs: for each lag in ascending
    order it adds ``c[i] * z[k-i]`` to every output of the tile.  The
    tile's lag matrix is one strided view of the zero-padded ``z`` (row
    stride backwards, no copy).  Lags past an output read zero padding,
    and adding ``c[i] * 0`` leaves a sum that starts from +0.0 unchanged.
    The per-lag loop is used instead where that fails: when ``c[:len(z)]``
    holds a non-finite entry (``inf * 0`` is NaN), and on a numpy build
    whose einsum fuses multiply-add.

    A 2-D ``c`` holds one coefficient row per output row, all against the
    same ``z``: ``out[r, k] = sum_{i=0}^{k} c[r, i] z[k-i]``.  It takes the
    per-lag loop, one 2-D multiply and add per lag for every row at once,
    so each row equals the 1-D call with that row bit for bit.
    """
    if c.ndim > 1 or _EINSUM_FUSES or not np.isfinite(c[: len(z)]).all():
        return _causal_sum_by_lag(c, z)
    return _causal_sum_tiled(c, z)


#: numpy's gufunc dot (numpy >= 2.0); absent, :func:`causal_dot` accumulates
_vecdot = getattr(np, "vecdot", None)

#: Length of the probe's order check: twice numpy's default iterator buffer
#: of 8,192 items, past which a buffered reduction (einsum's, for one)
#: splits its sum into chunks.
_ORDER_PROBE_TERMS = 2**14


def _causal_dot_vecdot(c: np.ndarray, z: np.ndarray) -> float:
    n = len(z)
    # a reversed operand has no BLAS stride, so vecdot runs numpy's plain
    # dot loop: one accumulator from 0.0, terms in ascending i, a product
    # and a sum rounded apiece, the whole core dimension in one call
    return _vecdot(c if len(c) == n else c[:n], z[::-1])


def _causal_dot_accumulate(c: np.ndarray, z: np.ndarray) -> float:
    n = len(z)
    if not n:
        return 0.0
    # add.accumulate adds strictly left to right, so its last entry is the
    # ascending-lag sequential sum
    return 0.0 + np.add.accumulate(np.multiply(c[:n], z[::-1]))[-1]


def _vecdot_in_order() -> bool:
    """Whether vecdot over a reversed view, as :func:`causal_dot` calls it,
    sums like the sequential scalar loop.

    Two probes, on offset-one slices of longer buffers as the solver passes
    them.  Two roundings: ``-1 + a*a`` with ``a = 1 + 2^-30`` gives 2^-29,
    a fused multiply-add 2^-29 + 2^-60.  Order: the terms
    ``[2^53, 1, ..., 1, -2^53]`` (``_ORDER_PROBE_TERMS`` of them) sum to
    exactly 0.0 only when added left to right with one accumulator (each
    ``2^53 + 1`` rounds back to 2^53); a split, reversed, unrolled or
    pairwise sum keeps some of the ones.
    """
    if _vecdot is None:
        return False
    a = 1.0 + 2.0**-30
    c = np.array([0.0, 1.0, a])[1:]
    z = np.array([0.0, a, -1.0])[1:]
    if _causal_dot_vecdot(c, z) != 2.0**-29:
        return False
    n = _ORDER_PROBE_TERMS
    c = np.ones(n + 1)[1:]
    z = np.ones(n + 1)[1:]
    z[-1], z[0] = 2.0**53, -(2.0**53)  # the first and the last term
    return bool(_causal_dot_vecdot(c, z) == 0.0)


_VECDOT_IN_ORDER = _vecdot_in_order()


def causal_dot(c: np.ndarray, z: np.ndarray) -> float:
    """Last output of :func:`causal_sum`: ``sum_{i=0}^{n-1} c[i] z[n-1-i]``
    with ``n = len(z)``, computed alone.

    The terms are added in ascending ``i``, starting from 0.0, with one
    rounding for each product and one for each addition, so the result
    equals the sequential scalar loop bit for bit (an empty sum is 0.0).
    ``c`` needs at least ``len(z)`` entries.

    One ``np.vecdot`` call over ``c`` and the reversed view of ``z``.  An
    import-time probe checks that it sums in order with two roundings on
    this numpy build (see :func:`_vecdot_in_order`).  Where it does not, or
    numpy predates vecdot, one ``np.multiply`` and one ``np.add.accumulate``
    give the same bits, more slowly.
    """
    if _VECDOT_IN_ORDER:
        return _causal_dot_vecdot(c, z)
    return _causal_dot_accumulate(c, z)


def tempered_diff_rows(x: Signal, w: Weight, max_order: int) -> np.ndarray:
    """Repeated backward differences of ``z = w*x`` on the evaluation window.

    ``rows[i, m-1]`` is ``nabla^i z`` at offset m, for i in 0..max_order and
    m in 1..N; entries that would read below the stored history are NaN.
    Values are in the weighted domain (not divided by ``w``).
    """
    h, N = x.grid.history, x.grid.horizon
    cur = w.window(-h, N) * x.window(-h, N)  # row i starts at offset i - h
    rows = np.full((max_order + 1, N), np.nan)
    for i in range(max_order + 1):
        lo = max(0, i - h - 1)  # first window index whose lags are stored
        rows[i, lo:] = cur[lo + 1 + h - i :]
        cur = cur[1:] - cur[:-1]
    return rows


def _require_weight_covers(w: Weight, grid: Grid, lowest_offset: int) -> None:
    if w.grid.a != grid.a:
        raise GridMismatch("weight and signal have different base points")
    if w.grid.horizon < grid.horizon:
        raise GridMismatch("weight grid is shorter than the signal horizon")
    if -w.grid.history > lowest_offset:
        raise InsufficientHistory(
            f"weight needs history down to offset {lowest_offset}, "
            f"has {-w.grid.history}"
        )


@functools.lru_cache(maxsize=16)
def _signed_binomials(n: int) -> np.ndarray:
    """``(-1)^i C(n, i)`` for i = 0..n, cached: one shared read-only array
    per order."""
    coef = np.array([(-1) ** i * math.comb(n, i) for i in range(n + 1)], dtype=np.float64)
    coef.setflags(write=False)
    return coef


def _output(grid_a: float, horizon: int, body: np.ndarray, out_history: int = 0) -> Signal:
    vals = np.concatenate([np.zeros(out_history + 1), body])
    return Signal(Grid(a=grid_a, history=out_history, horizon=horizon), vals)


def nabla_n(x: Signal, n: int) -> Signal:
    """n-th backward difference ``sum_i (-1)^i C(n,i) x(k-i)`` on the window."""
    check_order(OperatorKind.INTEGER_NABLA, n)
    n = int(n)
    if x.grid.history < n:
        raise InsufficientHistory(f"order {n} difference needs history >= {n}")
    coef = _signed_binomials(n)
    N = x.grid.horizon
    out = np.zeros(N)
    # an overflowing sum makes a non-finite sample, which Signal rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n + 1):
            out += coef[i] * x.window(1 - i, N - i)
    return _output(x.grid.a, N, out)


def nabla_n_tempered(x: Signal, n: int, w: Weight) -> Signal:
    """Tempered integer difference ``w^-1(k) nabla^n [w x](k)``."""
    check_order(OperatorKind.INTEGER_NABLA, n)
    n = int(n)
    if x.grid.history < n:
        raise InsufficientHistory(f"order {n} tempered difference needs history >= {n}")
    _require_weight_covers(w, x.grid, 1 - n)
    coef = _signed_binomials(n)
    N = x.grid.horizon
    out = np.zeros(N)
    # an overflowing sum makes a non-finite sample, which Signal rejects
    with np.errstate(over="ignore", invalid="ignore"):
        z = w.window(1 - n, N) * x.window(1 - n, N)  # z[j] at offset j + 1 - n
        for i in range(n + 1):
            out += coef[i] * z[n - i : n - i + N]
        out /= w.window(1, N)
    return _output(x.grid.a, N, out)


def _pointwise_order(n: float) -> int:
    if not (float(n).is_integer() and n >= 0):
        raise IntegerOrder(f"difference order must be a nonnegative integer, got {n}")
    if n > MAX_INTEGER_STAGE:
        raise IntegerOrder(f"difference order {n} exceeds {MAX_INTEGER_STAGE}")
    return int(n)


def nabla_n_tempered_at(x: Signal, n: int, w: Weight, offset: int = 0) -> float:
    """Pointwise ``w^-1 nabla^n [w x]`` at a single lattice offset.

    Order 0 is the identity; this is how initial values like the n-th
    tempered difference at the base point are extracted.
    """
    n = _pointwise_order(n)
    if offset - n < -x.grid.history:
        raise InsufficientHistory(
            f"offset {offset} order {n} needs history down to {offset - n}"
        )
    _require_weight_covers(w, x.grid, offset - n)
    coef = _signed_binomials(n)
    acc = 0.0
    for i in range(n + 1):
        acc += coef[i] * w.at(offset - i) * x.at(offset - i)
    return acc / w.at(offset)


def nabla_at(x: Signal, n: int, offset: int = 0) -> float:
    """Pointwise untempered n-th backward difference at a lattice offset."""
    n = _pointwise_order(n)
    if offset - n < -x.grid.history:
        raise InsufficientHistory(
            f"offset {offset} order {n} needs history down to {offset - n}"
        )
    coef = _signed_binomials(n)
    acc = 0.0
    for i in range(n + 1):
        acc += coef[i] * x.at(offset - i)
    return acc


def gl_tempered(x: Signal, alpha: float, w: Weight, *, out_history: int = 0) -> Signal:
    """Single-sum tempered difference/sum of any real order.

    ``y(k) = w^-1(k) sum_{i=0}^{k-a-1} c_i(alpha) w(k-i) x(k-i)`` with the
    differencing weights from :func:`nablatc.special.gl_coefficients`.
    Order 0 reproduces the signal on the evaluation window.  History points
    of the output, when requested via ``out_history``, hold the empty
    partial sums of the same formula, which are zero.
    """
    _require_weight_covers(w, x.grid, 1)
    N = x.grid.horizon
    c = gl_coefficients(alpha, N).coeffs
    body = causal_sum(c, w.window(1, N) * x.window(1, N)) / w.window(1, N)
    fault = _fault_eps.get()
    if fault:
        body = body + fault
    return _output(x.grid.a, N, body, out_history=out_history)


def rl_tempered(x: Signal, alpha: float, w: Weight) -> Signal:
    """Difference-of-sum form: integer tempered difference of the order
    ``alpha - n`` tempered sum, with ``n = ceil(alpha)``."""
    n = _fractional_stage(OperatorKind.RL, alpha, x)
    inner = gl_tempered(x, alpha - n, w, out_history=n)
    return nabla_n_tempered(inner, n, w)


def caputo_tempered(x: Signal, alpha: float, w: Weight) -> Signal:
    """Sum-of-difference form: order ``alpha - n`` tempered sum of the n-th
    tempered difference.  Annihilates tempered constants."""
    n = _fractional_stage(OperatorKind.CAPUTO, alpha, x)
    inner = nabla_n_tempered(x, n, w)
    return gl_tempered(inner, alpha - n, w)


def _fractional_stage(kind: OperatorKind, alpha: float, x: Signal) -> int:
    check_order(kind, alpha)
    n = int(math.ceil(alpha))
    if x.grid.history < n:
        raise InsufficientHistory(f"order {float(alpha)} needs history >= {n}")
    return n


def rl_tempered_at_base(x: Signal, beta: float, w: Weight) -> float:
    """Initial value of the difference-of-sum operator at the base point.

    For any order, the inner fractional sum is an empty sum at and below
    the base point, so the closing integer difference combines only zeros:
    the initial value vanishes identically under this calculus's
    conventions.  Kept as a function so identity checkers evaluate the
    convention instead of assuming it.
    """
    if beta == math.floor(beta):
        raise IntegerOrder(f"fractional initial value needs non-integer order, got {beta}")
    return 0.0


def gl_integer_vs_nabla_defect(x: Signal, n: int, w: Weight) -> Signal:
    """Pointwise gap between the integer-order single-sum operator and the
    plain tempered difference.

    Nonzero only on ``k <= a + n``, where the single sum has not yet seen
    the full differencing stencil.
    """
    g = gl_tempered(x, float(n), w)
    d = nabla_n_tempered(x, n, w)
    return _output(x.grid.a, x.grid.horizon, g.body - d.body)


def with_zero_history(sig: Signal, history: int) -> Signal:
    """Extend an operator output with zero-valued history points.

    Operator outputs vanish at and below the base point (empty partial
    sums), so composing a further operator on top of them uses zeros there.
    Only meaningful for signals produced by the operators in this module.
    """
    if history < sig.grid.history:
        raise GridMismatch("cannot shrink history")
    if history == sig.grid.history:
        return sig
    pad = np.zeros(history - sig.grid.history)
    vals = np.concatenate([pad, sig.values])
    return Signal(Grid(sig.grid.a, history, sig.grid.horizon), vals)


def apply_operator(x: Signal, spec: OperatorSpec) -> Signal:
    """Evaluate the operator described by ``spec`` on ``x``."""
    if spec.kind is OperatorKind.GL:
        return gl_tempered(x, spec.order, spec.weight)
    if spec.kind is OperatorKind.RL:
        return rl_tempered(x, spec.order, spec.weight)
    if spec.kind is OperatorKind.CAPUTO:
        return caputo_tempered(x, spec.order, spec.weight)
    return nabla_n_tempered(x, int(spec.order), spec.weight)
