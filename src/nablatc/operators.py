"""The tempered operator family.

All operators act on the weighted sequence ``z = w * x`` and divide the
result by ``w`` afterwards.  Their outputs are defined on the evaluation
window ``{a+1, ..., a+horizon}``; history points are consumed, never
produced.  Where a composed operator needs values of an intermediate result
at or below the base point, those values are the empty partial sums of its
defining formula, which is zero (the zero-extension convention).

Every lagged inner sum goes through :func:`causal_sum`, which accumulates
each output in ascending lag order with two roundings per term (one numpy
einsum per tile of outputs for one row or a stack of rows, the tiles of a
long sum spread over the process's CPUs, or a per-lag loop where einsum
would round differently),
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
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, NablaError
from .signals import Grid, GridMismatch, NonFiniteSample, Signal, Weight, _require_finite
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
    "caputo_tempered",
    "apply_operator",
    "set_fault_injection",
]


class InsufficientHistory(ConfigError):
    """The signal (or weight) grid lacks the history the operator needs."""


class InsufficientLags(NablaError):
    """An expansion needs lags beyond the stored grid."""


class IntegerOrder(ConfigError):
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


def _causal_sum_tiles(ct: np.ndarray, zp: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """Write outputs ``lo .. hi-1`` of the tiled sum into ``out``, one
    einsum per tile for every row; ``lo`` is a multiple of ``_TILE``.
    ``ct``, ``zp`` and ``out`` hold one column per row: ``ct`` the
    coefficients, ``zp`` the sequence behind ``min(N, _TILE) - 1`` zeros."""
    N, R = out.shape
    pad = len(zp) - N
    step = zp.itemsize
    for k0 in range(lo, hi, _TILE):
        L = min(_TILE, N - k0)
        nl = k0 + L
        # V[r, i, t] = z[r, k0 + t - i] for lags i < nl; zero where
        # k0 + t < i.  A view of zp: lag i starts at zp[pad + k0 - i], so
        # the lowest entry read, zp[pad + 1 - L] at i = nl - 1, t = 0, is
        # in range
        V = np.ndarray(
            (R, nl, L), np.float64, buffer=zp, offset=(pad + k0) * R * step,
            strides=(step, -R * step, R * step),
        )
        _lag_einsum(ct[:nl].T, V, out[k0 : k0 + L].T)


def _lag_einsum(s: np.ndarray, V: np.ndarray, out: np.ndarray) -> None:
    """``out[r, t] = sum_i s[r, i] V[r, i, t]`` in one einsum, the call that
    :data:`_EINSUM_FUSES` (one row) and :data:`_STACKED_EINSUM_FUSES`
    probe: one scalar per row and lag, rows r innermost (a single row drops
    out, leaving the outputs t), then t, lags i outermost and ascending,
    each output from 0.0."""
    np.einsum("ri,rik->rk", s, V, out=out, order="F")


#: Horizon from which :func:`causal_sum` spreads its tiles over threads.
#: On a 2-CPU Xeon host (Python 3.11, numpy 2.4) two threads took 1.45x
#: the serial time at N = 1024, 1.24x at 1536, 1.05x at 1792, 0.97x at
#: 2048, 0.77x at 3072 and 0.61x at 8000 (medians of alternating rounds):
#: starting and joining a thread took about 100 us there, the time of some
#: 400k terms, and two busy CPUs slow each other.  Below it the serial
#: loop runs.
_SPLIT_FROM = 2048


def _cpus() -> int:
    """CPUs this process may run on (1 where the OS does not say)."""
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
    N = z.shape[-1]
    rows = np.broadcast_shapes(c.shape[:-1], z.shape[:-1]) if c.ndim > 1 or z.ndim > 1 else ()
    R = rows[0] if rows else 1
    # (N, R) buffers, seen transposed: row r of c, z and out is column r,
    # so the rows of one lag and output are contiguous; zp[pad + j] = z[:, j]
    ct, out = np.empty((N, R)), np.empty((N, R))
    pad = max(min(N, _TILE) - 1, 0)
    zp = np.zeros((pad + N, R))
    ct.T[...] = c[..., :N]
    zp[pad:].T[...] = z
    own, *rest = _tile_ranges(N)
    # Each further range runs on a thread of its own, which lives only
    # inside this call.  Every output is the same einsum call whichever
    # thread makes it, so the bits do not depend on the split.  einsum
    # releases the GIL and reports no floating-point errors, so a helper
    # needs none of the caller's np.errstate.
    errors: list[BaseException] = []

    def helper(lo: int, hi: int) -> None:
        try:
            _causal_sum_tiles(ct, zp, out, lo, hi)
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
            _causal_sum_tiles(ct, zp, out, lo, hi)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return np.ascontiguousarray(out.T) if rows else out[:, 0]


def _einsum_fuses(rows: int = 0) -> bool:
    """Whether the tiled einsum rounds ``acc + c*z`` once (fused
    multiply-add) instead of twice: the 1-D kernel, or with ``rows`` the
    stacked one on that many rows.

    Probed on ``-1 + a*a`` with ``a = 1 + 2^-30``: two roundings give
    2^-29, a fused multiply-add 2^-29 + 2^-60.  37 outputs, or 37 rows,
    reach both the vector body and the scalar tail of einsum's inner loop.
    """
    a = 1.0 + 2.0**-30
    z = np.tile([a, -1.0], 19)[:37]
    c = np.zeros(37)
    c[:2] = 1.0, a
    if rows:
        c, z = np.tile(c[:2], (rows, 1)), np.tile(z[:2], (rows, 1))
    return not np.array_equal(_causal_sum_tiled(c, z), _causal_sum_by_lag(c, z))


_EINSUM_FUSES = _einsum_fuses()
_STACKED_EINSUM_FUSES = _einsum_fuses(rows=37)


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
    work.  The caller runs the first range and a thread per further CPU
    the others, all joined before the call returns or raises (no suite
    pass takes a sum that long, so a forked ``nt verify`` pass starts no
    thread beside its processes).  Each tile is the same einsum call
    whichever thread makes it, so the bits do not depend on the number of
    threads.

    A 2-D ``c`` holds one coefficient row per output row, and a 2-D ``z``
    one sequence per output row (a 1-D one is shared by every row):
    ``out[r, k] = sum_{i=0}^{k} c[r, i] z[r, k-i]``.  The same tiles, one
    einsum per tile for every row at once: rows innermost and contiguous
    (``c``, ``z`` and the output are held one column per row), then the
    outputs, lags outermost and ascending.  So every output still starts
    from +0.0 and adds its terms in ascending lag, two roundings each, and
    each row equals the 1-D call with that row bit for bit; a stack of one
    row is that 1-D call.  Rows innermost is another einsum inner loop than
    the 1-D call's, probed on its own: the per-lag loop (one 2-D multiply
    and add per lag for every row) runs instead where that one fuses
    multiply-add, and where ``c[..., :len(z)]`` holds a non-finite entry.
    Output ``k`` of a row reads its lags ``i <= k`` only, so entries of
    ``c`` or ``z`` past a row's own length (stacked rows of different
    lengths, zero-padded) never reach that row's first outputs.
    """
    stacked = c.ndim > 1 or z.ndim > 1
    if stacked and np.broadcast_shapes(c.shape[:-1], z.shape[:-1]) == (1,):
        return causal_sum(c.reshape(-1), z.reshape(-1))[None]
    fuses = _STACKED_EINSUM_FUSES if stacked else _EINSUM_FUSES
    if fuses or not np.isfinite(c[..., : z.shape[-1]]).all():
        return _causal_sum_by_lag(c, z)
    return _causal_sum_tiled(c, z)


#: numpy's gufunc dot (numpy >= 2.0); absent, :func:`causal_dot` accumulates
_vecdot = getattr(np, "vecdot", None)

#: Length of the probe's order check: twice numpy's default iterator buffer
#: of 8,192 items, past which a buffered reduction (einsum's, for one)
#: splits its sum into chunks.
_ORDER_PROBE_TERMS = 2**14


def _dot_accumulate(c: np.ndarray, zr: np.ndarray) -> float:
    """``np.vecdot(c, zr)`` summed in order without vecdot: ``c`` and the
    reversed history ``zr`` of equal length."""
    if not len(zr):
        return 0.0
    # add.accumulate adds strictly left to right, so its last entry is the
    # ascending-lag sequential sum
    return 0.0 + np.add.accumulate(np.multiply(c, zr))[-1]


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
    if _vecdot(c, z[::-1]) != 2.0**-29:
        return False
    n = _ORDER_PROBE_TERMS
    c = np.ones(n + 1)[1:]
    z = np.ones(n + 1)[1:]
    z[-1], z[0] = 2.0**53, -(2.0**53)  # the first and the last term
    return bool(_vecdot(c, z[::-1]) == 0.0)


_VECDOT_IN_ORDER = _vecdot_in_order()


def _in_order_dot() -> Callable[[np.ndarray, np.ndarray], float]:
    """The route of :func:`causal_dot`, for a caller that makes many calls:
    ``_in_order_dot()(c[:n], z[::-1])`` equals ``causal_dot(c, z)`` bit for
    bit, ``n = len(z)``.

    The caller cuts ``c`` to length and reverses the history itself (a
    view), so each call is the one ``np.vecdot`` with no wrapper between, or
    the ``np.add.accumulate`` fallback where the probe finds vecdot out of
    order.  The route is read when this function is called, not on each call
    of the function it returns.
    """
    return _vecdot if _VECDOT_IN_ORDER else _dot_accumulate


def causal_dot(c: np.ndarray, z: np.ndarray) -> float:
    """Last output of :func:`causal_sum`: ``sum_{i=0}^{n-1} c[i] z[n-1-i]``
    with ``n = len(z)``, computed alone.

    The terms are added in ascending ``i``, starting from 0.0, with one
    rounding for each product and one for each addition, so the result
    equals the sequential scalar loop bit for bit (an empty sum is 0.0).
    ``c`` needs at least ``len(z)`` entries.

    One ``np.vecdot`` call over ``c`` and the reversed view of ``z``; a
    reversed operand has no BLAS stride, so vecdot runs numpy's plain dot
    loop: one accumulator from 0.0, terms in ascending i, a product and a
    sum rounded apiece, the whole core dimension in one call.  An
    import-time probe checks that it sums in order with two roundings on
    this numpy build (see :func:`_vecdot_in_order`).  Where it does not, or
    numpy predates vecdot, one ``np.multiply`` and one ``np.add.accumulate``
    give the same bits, more slowly.
    """
    n = len(z)
    return _in_order_dot()(c if len(c) == n else c[:n], z[::-1])


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
    """``(-1)^i C(n, i)`` for i = 0..n, cached: one shared read-only array per order."""
    # C(n, i) by the exact integer recurrence: a row of math.comb is O(n^2)
    comb = [1]
    for i in range(n):
        comb.append(comb[-1] * (n - i) // (i + 1))
    coef = np.array(comb, dtype=np.float64)
    coef[1::2] *= -1.0  # an exact negation of each rounded odd entry
    coef.setflags(write=False)
    return coef


@functools.lru_cache(maxsize=32)
def _difference_table(K: int) -> np.ndarray:
    """Row i: nabla^i's ``(-1)^j C(i, j)``, j = 0..K, zero past j = i; read-only."""
    table = np.zeros((K + 1, K + 1))
    row = [1]  # exact integers, rounded once as in _signed_binomials; Pascal's rule
    for i in range(K + 1):
        table[i, : i + 1] = row
        row = [a - b for a, b in zip(row + [0], [0] + row)]
    table.setflags(write=False)
    return table


def _differences_at(x: np.ndarray, px: int, w: np.ndarray | None, pw: int, table: np.ndarray):
    """``w^-1 nabla^i [w x]`` at the point of ``x[..., px]`` and ``w[..., pw]``
    for each row i of ``table`` (as in :func:`_difference_table`), per row of
    x (one row or a stack): ``(c_l·w)·x`` added from 0.0 in ascending lag l
    by one ``np.add.accumulate``, then one division by w (both skipped, being
    exact, under ``w`` None); a zero c_l past lag i adds ±0.  A difference
    past binary64 is non-finite, without a numpy warning.  Callers check the
    history."""
    L = table.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        c = table if w is None else table * w[..., None, pw + 1 - L : pw + 1][..., ::-1]
        # 0.0 + gives a sum of zeros the sign it has when started from 0.0
        d = 0.0 + np.add.accumulate(c * x[..., None, px + 1 - L : px + 1][..., ::-1], axis=-1)[..., -1]
        return d if w is None else d / w[..., pw : pw + 1]


def _pointwise(x: np.ndarray, px: int, w: np.ndarray | None, pw: int, table: np.ndarray):
    """:func:`_differences_at` on one row, once every difference is finite:
    else :class:`NonFiniteSample`, as the window forms raise."""
    d = _differences_at(x, px, w, pw, table)
    if not np.isfinite(d).all():
        raise NonFiniteSample("a pointwise difference leaves binary64")
    return d


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


# The operators' stage sequences on arrays: one row (the public operators)
# or a stack of rows (the identity battery).  An overflow inside a stage
# makes non-finite values without a numpy warning, and _settled rejects them
# before the next stage reads them.


def _gl_values(x_body: np.ndarray, alpha, w_body: np.ndarray) -> np.ndarray:
    """The single-sum stage ``w^-1 sum_i c_i(alpha) [w x](k-i)`` on the
    window 1..N, from ``x_body`` and ``w_body``, the values of x and w at
    offsets 1..N, plus the fault hook's perturbation.  For a stack of rows,
    ``alpha`` holds one order per row."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = gl_coefficients(alpha, x_body.shape[-1]).coeffs
        body = causal_sum(c, w_body * x_body) / w_body
        fault = _fault_eps.get()
        if fault:
            body += fault
        return _settled(body)


def _nabla_values(x_low: np.ndarray, n: int, w_low: np.ndarray) -> np.ndarray:
    """The integer-difference stage ``w^-1 nabla^n [w x]`` on the window
    1..N, from ``x_low`` and ``w_low``, the values of x and w at offsets
    1-n..N: c·(w·x) summed by :func:`_stencil`, then one division by w."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _stencil(w_low * x_low, n)
        out /= w_low[..., n:]
        return _settled(out)


def _rl_values(x_body: np.ndarray, alpha, n: int, w_low: np.ndarray) -> np.ndarray:
    """Order ``alpha - n`` sum, then the n-th difference of its zero
    extension; ``w_low`` holds w at offsets 1-n..N."""
    inner = _gl_values(x_body, alpha - n, w_low[..., n:])
    return _nabla_values(_zero_extended(inner, n), n, w_low)


def _caputo_values(x_low: np.ndarray, alpha, n: int, w_low: np.ndarray) -> np.ndarray:
    """The n-th difference, then its order ``alpha - n`` sum."""
    return _gl_values(_nabla_values(x_low, n, w_low), alpha - n, w_low[..., n:])


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


def nabla_n_tempered_at(x: Signal, n: int, w: Weight, offset: int = 0) -> float:
    """Pointwise ``w^-1 nabla^n [w x]`` at a single lattice offset.

    Order 0 is the identity; this is how initial values like the n-th
    tempered difference at the base point are extracted.
    """
    n = _stage(None, n, x.grid, w, offset)
    px, pw = x.grid.position(offset), w.grid.position(offset)
    return _pointwise(x.values, px, w.values, pw, _signed_binomials(n)[None])[0]


def _initial_value_terms(
    x: np.ndarray, px: int, w: np.ndarray, pw: int,
    degrees: Sequence[int], basis: Callable[[int], np.ndarray],
) -> Iterator[np.ndarray]:
    """:func:`initial_value_terms` on arrays, one row or a stack of rows:
    entry ``px`` of x and entry ``pw`` of w sit at the base point, and w
    ends at offset N."""
    d = _differences_at(x, px, w, pw, _difference_table(max(degrees, default=0)))
    ratio = _base_ratio(w, pw)
    for i in degrees:
        b = basis(i)
        # a term past binary64 is non-finite, without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            term = b * ratio * d[..., i : i + 1]
        yield term


def initial_value_terms(
    x: Signal, w: Weight, degrees: Iterable[int], basis: Callable[[int], np.ndarray]
) -> Iterator[np.ndarray]:
    """Terms ``basis(i) * (w(a)/w(k)) * d_i`` on the evaluation window, in
    the order of ``degrees``, with ``d_i = nabla_n_tempered_at(x, i, w, 0)``:
    summed from 0.0, the initial-value series of the base-point forms."""
    wv = w.window(-w.grid.history, x.grid.horizon)
    checked = [_stage(None, i, x.grid, w, 0) for i in degrees]
    for term in _initial_value_terms(x.values, x.grid.history, wv, w.grid.history, checked, basis):
        yield _settled(term)


def _base_ratio(w: np.ndarray, h: int = 0) -> np.ndarray:
    """``w(a)/w(k)`` on the window, from ``w``'s values at offsets
    ``-h..N`` (one row, or a stack of rows); inf past binary64, without a
    numpy warning."""
    with np.errstate(over="ignore"):
        return w[..., h : h + 1] / w[..., h + 1 :]


def nabla_at(x: Signal, n: int, offset: int = 0) -> float:
    """Pointwise untempered n-th backward difference at a lattice offset:
    :func:`nabla_n_tempered_at` under a unit weight, without its exact
    products ``(c_i·1)·x`` and closing division by 1."""
    n = _stage(None, n, x.grid, None, offset)
    px = x.grid.position(offset)
    return _pointwise(x.values, px, None, 0, _signed_binomials(n)[None])[0]


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
    checked before either stage runs.  Those empty sums are its initial
    values ``nabla^(alpha-i-1) x(a)``: no transform rule, identity or
    convolution bracket of this library carries a term for them.
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


def apply_operator(x: Signal, spec: OperatorSpec) -> Signal:
    """Evaluate the operator described by ``spec`` on ``x``."""
    if spec.kind is OperatorKind.GL:
        return gl_tempered(x, spec.order, spec.weight)
    if spec.kind is OperatorKind.RL:
        return rl_tempered(x, spec.order, spec.weight)
    if spec.kind is OperatorKind.CAPUTO:
        return caputo_tempered(x, spec.order, spec.weight)
    return nabla_n_tempered(x, int(spec.order), spec.weight)
