"""The tempered operator family.

All operators act on the weighted sequence ``z = w * x`` and divide the
result by ``w`` afterwards.  Their outputs are defined on the evaluation
window ``{a+1, ..., a+horizon}``; history points are consumed, never
produced.  Where a composed operator needs values of an intermediate result
at or below the base point, those values are the empty partial sums of its
defining formula, which is zero (the zero-extension convention).

Every lagged inner sum goes through :func:`causal_sum`, which accumulates
each output in ascending lag order with two roundings per term (one numpy
einsum per tile of outputs, the tiles of a long sum spread over the
process's CPUs, or a per-lag loop where einsum would round differently),
so results are identical run to run and equal to sequential evaluation.
:func:`causal_dot` computes one such output alone, for recurrences that
need each output before the next.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import NablaError
from .signals import Grid, GridMismatch, Signal, Weight, _require_finite
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
    "initial_value_terms",
    "nabla_at",
    "gl_tempered",
    "rl_tempered",
    "rl_tempered_at_base",
    "caputo_tempered",
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
    N = z.shape[-1]
    rows = np.broadcast_shapes(c.shape[:-1], z.shape[:-1])
    # outputs and lags along the first axis, so that each lag is one pass
    # over contiguous rows; lag i's coefficient is a scalar, or one entry
    # per row of c
    zt = np.ascontiguousarray(np.moveaxis(np.broadcast_to(z, rows + (N,)), -1, 0))
    lags = c if c.ndim == 1 else np.ascontiguousarray(np.moveaxis(c, -1, 0))
    out = np.zeros((N,) + rows)
    # a non-finite c (the usual reason for this route) makes non-finite
    # outputs, which the caller rejects; inf * 0 and inf - inf need no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(N):
            out[i:] += lags[i] * zt[: N - i]
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def _causal_sum_tiles(c: np.ndarray, zp: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """Write outputs ``lo .. hi-1`` of the tiled sum into ``out``, one
    einsum per tile; ``lo`` is a multiple of ``_TILE``, and ``zp`` is
    ``z`` behind ``min(N, _TILE) - 1`` zeros."""
    N = len(out)
    pad = len(zp) - N
    step = zp.itemsize
    for k0 in range(lo, hi, _TILE):
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


#: Horizon from which :func:`causal_sum` spreads its tiles over threads.
#: On a 2-CPU Xeon host (Python 3.11, numpy 2.4) two threads took 1.45x
#: the serial time at N = 1024, 1.24x at 1536, 1.05x at 1792, 0.97x at
#: 2048, 0.77x at 3072 and 0.61x at 8000 (medians of alternating rounds):
#: starting and joining a thread took about 100 us there, the time of some
#: 400k terms, and two busy CPUs slow each other.  Below it the serial
#: loop runs.
_SPLIT_FROM = 2048


def _cpus() -> int:
    """CPUs this process may run on; 1 where the OS does not say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _tile_ranges(N: int) -> list[tuple[int, int]]:
    """Output ranges of whole tiles, one per CPU from ``_SPLIT_FROM`` on.

    Outputs ``0 .. k-1`` hold about ``k**2 / 2`` terms, so the bound ``j``
    of ``P`` ranges is the tile bound nearest ``N * sqrt(j / P)``: about
    equal work each.  Ranges that round to no tile are dropped.
    """
    parts = _cpus() if N >= _SPLIT_FROM else 1
    bounds = [0]
    for j in range(1, parts):
        k = _TILE * round(N * math.sqrt(j / parts) / _TILE)
        if bounds[-1] < k < N:
            bounds.append(k)
    bounds.append(N)
    return list(zip(bounds, bounds[1:]))


def _causal_sum_tiled(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    N = len(z)
    out = np.empty(N)
    pad = max(min(N, _TILE) - 1, 0)
    zp = np.zeros(pad + N)
    zp[pad:] = z  # zp[pad + j] = z[j]
    own, *rest = _tile_ranges(N)
    # Each further range runs on a thread of its own, which lives only
    # inside this call.  Every output is the same einsum call whichever
    # thread makes it, so the bits do not depend on the split.  einsum
    # releases the GIL and reports no floating-point errors, so a helper
    # needs none of the caller's np.errstate.
    errors: list[BaseException] = []

    def helper(lo: int, hi: int) -> None:
        try:
            _causal_sum_tiles(c, zp, out, lo, hi)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    mine, threads = [own], []
    try:
        for lo, hi in rest:
            t = threading.Thread(target=helper, args=(lo, hi))
            try:
                t.start()
            except RuntimeError:  # no thread to be had: the caller runs it
                mine.append((lo, hi))
                continue
            threads.append(t)
        for lo, hi in mine:
            _causal_sum_tiles(c, zp, out, lo, hi)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
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

    From ``_SPLIT_FROM`` outputs on, the tiles are split into one range of
    whole tiles per CPU in ``os.sched_getaffinity(0)``, of about equal
    work; the caller runs the first and a thread per further CPU the
    others, all joined before the call returns or raises.  Each tile is
    the same einsum call whichever thread makes it, so the bits do not
    depend on the number of threads.

    A 2-D ``c`` holds one coefficient row per output row, and a 2-D ``z``
    one sequence per output row (a 1-D one is shared by every row):
    ``out[r, k] = sum_{i=0}^{k} c[r, i] z[r, k-i]``.  Both take the per-lag
    loop, one 2-D multiply and add per lag for every row at once, so each
    row equals the 1-D call with that row bit for bit; a stack of one row
    is that 1-D call.  Output ``k`` of a
    row reads its lags ``i <= k`` only, so entries of ``c`` or ``z`` past
    a row's own length (stacked rows of different lengths, zero-padded)
    never reach that row's first outputs.
    """
    if c.ndim > 1 or z.ndim > 1:
        if np.broadcast_shapes(c.shape[:-1], z.shape[:-1]) == (1,):
            return causal_sum(c.reshape(-1), z.reshape(-1))[None]
        return _causal_sum_by_lag(c, z)
    if _EINSUM_FUSES or not np.isfinite(c[: len(z)]).all():
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
    m in 1..N; entries that would read below the shorter of the two stored
    histories are NaN.  Values are in the weighted domain (not divided by
    ``w``); one that overflows is non-finite, without a numpy warning, and
    the caller's output rejects it.
    """
    # no entry reads below offset 1 - max_order
    h, N = min(x.grid.history, w.grid.history, max_order), x.grid.horizon
    rows = np.full((max_order + 1, N), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        cur = w.window(-h, N) * x.window(-h, N)  # row i starts at offset i - h
        for i in range(max_order + 1):
            lo = max(0, i - h - 1)  # first window index whose lags are stored
            rows[i, lo:] = cur[lo + 1 + h - i :]
            cur = cur[1:] - cur[:-1]
    return rows


def _stage(
    kind: OperatorKind | None,
    order: float,
    grid: Grid | None,
    w: Weight | None,
    lowest_offset: int = 1,
) -> int:
    """The integer stage n of a difference of ``order`` taken from offset
    ``lowest_offset`` on, once these checks pass (the first to fail raises):

    1. the order, by :func:`check_order`: n is ceil(order) for an operator
       ``kind`` (0 for GL, whose order only needs to be finite), and the
       order itself, which may also be 0, for a pointwise difference
       (``kind`` None);
    2. the history of the signal on ``grid``, unless None (an operator
       output is zero below its base): n points for an operator, one more
       than its difference reads, and what it reads for a pointwise one;
    3. the weight ``w``, unless None: the base point and horizon of
       ``grid`` (of its own grid when None), and history down to offset
       ``lowest_offset - n``."""
    if kind or order != 0:
        check_order(kind or OperatorKind.INTEGER_NABLA, order)
    if kind is OperatorKind.GL:
        n = need = 0
    else:
        n = math.ceil(order)
        need = n if kind else n - lowest_offset
    if grid is not None and grid.history < need:
        raise InsufficientHistory(f"order {order} needs history >= {need}")
    if w is None:
        return n
    grid = grid or w.grid
    if w.grid.a != grid.a:
        raise GridMismatch("weight and signal have different base points")
    if w.grid.horizon < grid.horizon:
        raise GridMismatch("weight grid is shorter than the signal horizon")
    if -w.grid.history > lowest_offset - n:
        raise InsufficientHistory(
            f"weight needs history down to offset {lowest_offset - n}, has {-w.grid.history}"
        )
    return n


@functools.lru_cache(maxsize=16)
def _signed_binomials(n: int) -> np.ndarray:
    """``(-1)^i C(n, i)`` for i = 0..n, cached: one shared read-only array
    per order."""
    # C(n, i) by the exact integer recurrence: a row of math.comb is O(n^2)
    comb = [1]
    for i in range(n):
        comb.append(comb[-1] * (n - i) // (i + 1))
    coef = np.array([(-1) ** i * c for i, c in enumerate(comb)], dtype=np.float64)
    coef.setflags(write=False)
    return coef


def _stencil(z: np.ndarray, n: int) -> np.ndarray:
    """``out[..., j] = sum_{i=0}^{n} (-1)^i C(n, i) z[..., n+j-i]``, each
    output summed from 0.0 in ascending lag like :func:`nabla_at`, one pass
    per lag over every row of ``z`` at once.  Callers that expect overflow
    set their own ``np.errstate``."""
    coef = _signed_binomials(n)
    N = z.shape[-1] - n
    out = np.zeros(z.shape[:-1] + (N,))
    for i in range(n + 1):
        out += coef[i] * z[..., n - i : n - i + N]
    return out


def _settled(body: np.ndarray) -> np.ndarray:
    """``body``, a stage's values at offsets 1..N, once they are finite:
    else the :class:`NonFiniteSample` that its output signal would raise,
    naming the first bad offset of a single row or a stack of one (a larger
    stack reruns as stacks of one, so its own message is never shown)."""
    _require_finite(body, 1)
    return body


def _zero_extended(body: np.ndarray, n: int) -> np.ndarray:
    """An operator output's values at offsets 1-n..N from its values
    ``body`` at 1..N: zero at and below the base point."""
    return np.concatenate([np.zeros(body.shape[:-1] + (n,)), body], axis=-1)


def _tempered_stencil(x_low: np.ndarray, n: int, w_low: np.ndarray) -> np.ndarray:
    """The integer-difference stage ``w^-1 nabla^n [w x]`` on the window
    1..N, from ``x_low`` and ``w_low``, the values of x and w at offsets
    1-n..N (one row each, or a stack of rows): c·(w·x) summed by
    :func:`_stencil`, then one division by w.  Callers hold the
    ``np.errstate`` that lets an overflow through to :func:`_settled`."""
    out = _stencil(w_low * x_low, n)
    out /= w_low[..., n:]
    return out


def _tempered_single_sum(x_body: np.ndarray, alpha, w_body: np.ndarray) -> np.ndarray:
    """The single-sum stage ``w^-1 sum_i c_i(alpha) [w x](k-i)`` on the
    window 1..N, from ``x_body`` and ``w_body``, the values of x and w at
    offsets 1..N, plus the fault hook's perturbation.  For a stack of rows,
    ``alpha`` holds one order per row.  Callers hold the ``np.errstate``,
    as for :func:`_tempered_stencil`."""
    c = gl_coefficients(alpha, x_body.shape[-1]).coeffs
    body = causal_sum(c, w_body * x_body) / w_body
    fault = _fault_eps.get()
    if fault:
        body += fault
    return body


# The operators' stage sequences on arrays: one row (the public operators)
# or a stack of rows (the identity battery).  An overflow inside a stage
# makes non-finite values without a numpy warning, and _settled rejects them
# before the next stage reads them.


def _gl_values(x_body: np.ndarray, alpha, w_body: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return _settled(_tempered_single_sum(x_body, alpha, w_body))


def _nabla_values(x_low: np.ndarray, n: int, w_low: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return _settled(_tempered_stencil(x_low, n, w_low))


def _rl_values(x_body: np.ndarray, alpha, n: int, w_low: np.ndarray) -> np.ndarray:
    """Order ``alpha - n`` sum, then the n-th difference of its zero
    extension; ``w_low`` holds w at offsets 1-n..N."""
    with np.errstate(over="ignore", invalid="ignore"):
        inner = _settled(_tempered_single_sum(x_body, alpha - n, w_low[..., n:]))
        return _settled(_tempered_stencil(_zero_extended(inner, n), n, w_low))


def _caputo_values(x_low: np.ndarray, alpha, n: int, w_low: np.ndarray) -> np.ndarray:
    """The n-th difference, then its order ``alpha - n`` sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        inner = _settled(_tempered_stencil(x_low, n, w_low))
        return _settled(_tempered_single_sum(inner, alpha - n, w_low[..., n:]))


def _output(grid_a: float, horizon: int, body: np.ndarray) -> Signal:
    vals = np.concatenate([np.zeros(1), body])
    return Signal._adopt(Grid(a=grid_a, history=0, horizon=horizon), vals)


def nabla_n(x: Signal, n: int) -> Signal:
    """n-th backward difference ``sum_i (-1)^i C(n,i) x(k-i)`` on the window:
    :func:`nabla_n_tempered` under a unit weight, whose products ``1·x``
    and closing division by 1 are exact."""
    return nabla_n_tempered(x, n, Weight._adopt(x.grid, np.ones(x.grid.npoints)))


def nabla_n_tempered(x: Signal, n: int, w: Weight) -> Signal:
    """Tempered integer difference ``w^-1(k) nabla^n [w x](k)``."""
    n = _stage(OperatorKind.INTEGER_NABLA, n, x.grid, w)
    N = x.grid.horizon
    out = _nabla_values(x.window(1 - n, N), n, w.window(1 - n, N))
    return _output(x.grid.a, N, out)


def _tempered_diff_at(x: np.ndarray, px: int, w: np.ndarray, pw: int, n: int):
    """``w^-1 nabla^n [w x]`` at the lattice point of ``x[..., px]`` and
    ``w[..., pw]``, one value per row: the terms ``(c_i·w)·x`` added from
    0.0 in ascending lag, then one division by w."""
    coef = _signed_binomials(n)
    xt, wt = x.T, w.T  # wt[k] is a scalar for one row, a column for a stack
    acc = 0.0
    for i in range(n + 1):
        acc += coef[i] * wt[pw - i] * xt[px - i]
    return acc / wt[pw]


def nabla_n_tempered_at(x: Signal, n: int, w: Weight, offset: int = 0) -> float:
    """Pointwise ``w^-1 nabla^n [w x]`` at a single lattice offset.

    Order 0 is the identity; this is how initial values like the n-th
    tempered difference at the base point are extracted.
    """
    n = _stage(None, n, x.grid, w, offset)
    return _tempered_diff_at(
        x.values, x.grid.position(offset), w.values, w.grid.position(offset), n
    )


def _initial_value_terms(
    x: np.ndarray,
    px: int,
    w: np.ndarray,
    pw: int,
    degrees: Iterable[int],
    basis: Callable[[int], np.ndarray],
) -> Iterator[np.ndarray]:
    """:func:`initial_value_terms` on arrays, one row or a stack of rows:
    entry ``px`` of x and entry ``pw`` of w sit at the base point, and w
    ends at offset N."""
    ratio = _base_ratio(w, pw)
    for i in degrees:
        d_i = _tempered_diff_at(x, px, w, pw, i)
        yield basis(i) * ratio * d_i[..., None]


def initial_value_terms(
    x: Signal, w: Weight, degrees: Iterable[int], basis: Callable[[int], np.ndarray]
) -> Iterator[np.ndarray]:
    """Terms ``basis(i) * (w(a)/w(k)) * d_i`` on the evaluation window, in
    the order of ``degrees``, with ``d_i = nabla_n_tempered_at(x, i, w, 0)``:
    summed from 0.0, the initial-value series of the base-point forms."""
    wv = w.window(-w.grid.history, x.grid.horizon)
    checked = [_stage(None, i, x.grid, w, 0) for i in degrees]
    yield from _initial_value_terms(x.values, x.grid.history, wv, w.grid.history, checked, basis)


def _base_ratio(w: np.ndarray, h: int = 0) -> np.ndarray:
    """``w(a)/w(k)`` on the window, from ``w``'s values at offsets
    ``-h..N`` (one row, or a stack of rows)."""
    return w[..., h : h + 1] / w[..., h + 1 :]


def nabla_at(x: Signal, n: int, offset: int = 0) -> float:
    """Pointwise untempered n-th backward difference at a lattice offset:
    :func:`nabla_n_tempered_at` under a unit weight, whose products
    ``(c_i·1)·x`` and closing division by 1 are exact."""
    n = _stage(None, n, x.grid, None, offset)
    return _tempered_diff_at(x.values, x.grid.position(offset), np.ones(n + 1), n, n)


def gl_tempered(x: Signal, alpha: float, w: Weight) -> Signal:
    """Single-sum tempered difference/sum of any real order.

    ``y(k) = w^-1(k) sum_{i=0}^{k-a-1} c_i(alpha) w(k-i) x(k-i)`` with the
    differencing weights from :func:`nablatc.special.gl_coefficients`.
    Order 0 reproduces the signal on the evaluation window.  The output has
    no history; at and below the base point the same formula is an empty
    sum, so a composition that reads lower points extends it by zeros.
    """
    _stage(OperatorKind.GL, alpha, x.grid, w)
    N = x.grid.horizon
    body = _gl_values(x.window(1, N), alpha, w.window(1, N))
    return _output(x.grid.a, N, body)


def rl_tempered(x: Signal, alpha: float, w: Weight) -> Signal:
    """Difference-of-sum form: integer tempered difference of the order
    ``alpha - n`` tempered sum, with ``n = ceil(alpha)``.

    The same two stages as ``nabla_n_tempered(u, n, w)``, bit for bit, run
    on arrays, where ``u`` is ``gl_tempered(x, alpha - n, w)`` extended by
    n zeros below the base point (its empty sums there): a non-finite
    intermediate raises the composition's error.  The weight's history is
    checked before either stage runs.
    """
    n = _stage(OperatorKind.RL, alpha, x.grid, w)
    N = x.grid.horizon
    body = _rl_values(x.window(1, N), alpha, n, w.window(1 - n, N))
    return _output(x.grid.a, N, body)


def caputo_tempered(x: Signal, alpha: float, w: Weight) -> Signal:
    """Sum-of-difference form: order ``alpha - n`` tempered sum of the n-th
    tempered difference.  Annihilates tempered constants.

    The same two stages as ``gl_tempered(nabla_n_tempered(x, n, w),
    alpha - n, w)``, bit for bit and with the same errors, run on arrays.
    """
    n = _stage(OperatorKind.CAPUTO, alpha, x.grid, w)
    N = x.grid.horizon
    body = _caputo_values(x.window(1 - n, N), alpha, n, w.window(1 - n, N))
    return _output(x.grid.a, N, body)


def rl_tempered_at_base(x: Signal, beta: float, w: Weight) -> float:
    """Initial value of the difference-of-sum operator at the base point.

    For any order, the inner fractional sum is an empty sum at and below
    the base point, so the closing integer difference combines only zeros:
    the initial value vanishes identically under this calculus's
    conventions.  Kept as a function so identity checkers evaluate the
    convention instead of assuming it.  A non-finite or integer order
    raises :class:`IntegerOrder`.
    """
    if not math.isfinite(beta) or beta == math.floor(beta):
        raise IntegerOrder(f"initial value needs a finite non-integer order, got {beta}")
    return 0.0


def apply_operator(x: Signal, spec: OperatorSpec) -> Signal:
    """Evaluate the operator described by ``spec`` on ``x``."""
    if spec.kind is OperatorKind.GL:
        return gl_tempered(x, spec.order, spec.weight)
    if spec.kind is OperatorKind.RL:
        return rl_tempered(x, spec.order, spec.weight)
    if spec.kind is OperatorKind.CAPUTO:
        return caputo_tempered(x, spec.order, spec.weight)
    return nabla_n_tempered(x, int(spec.order), spec.weight)
