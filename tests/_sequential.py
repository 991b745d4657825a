"""Scalar-loop references for the library's ordered accumulations.

The library evaluates its recurrences and inner sums with numpy
accumulations that keep a strict left-to-right order, and promises results
identical to sequential evaluation.  The functions here are that sequential
evaluation, written as plain scalar loops, so the tests can demand byte
equality.  They reuse the library's public types (and, for the
Mittag-Leffler kernel, its elementwise double-width primitives): only the
accumulation order is under test here.  The kernel's term block is a
frozen copy of the column-by-column construction, so the library's
tabulated block is checked against it rather than against itself.  Likewise
the per-point Gamma-ratio row and the list-built lattice sampler are frozen
copies of the one-call-per-point versions that the library's one-pass row
and sampler replace.  The independent, high-precision references live in
``_oracles.py``.
"""

from __future__ import annotations

import numpy as np

from nablatc.laplace import (
    _ML_BLOCK,
    _ML_BLOWUP_REL,
    _ML_MAX_TERMS,
    _ML_STOP_REL,
    _TINY,
    MLParams,
    SeriesDiverged,
    SingularStep,
    _dd_add,
    _dd_div_scalar,
    _dd_mul,
    _two_prod,
)
from nablatc.signals import BadRate, Grid, GridMismatch, Signal, Weight
from nablatc.special import DomainError, GLCoefficientSeq, rising_over_gamma


def gl_coefficients_seq(order: float, length: int) -> GLCoefficientSeq:
    if length < 0:
        raise DomainError(f"coefficient sequence length must be >= 0, got {length}")
    c = np.empty(length, dtype=np.float64)
    if length:
        c[0] = 1.0
    for i in range(1, length):
        c[i] = c[i - 1] * ((i - 1 - order) / i)
    return GLCoefficientSeq(order=float(order), coeffs=c)


def exp_weight_seq(grid: Grid, rate: float) -> Weight:
    if rate == 1.0:
        raise BadRate("exponential weight rate 1 is excluded")
    base = 1.0 - float(rate)
    vals = np.empty(grid.npoints, dtype=np.float64)
    pos0 = grid.position(0)
    vals[pos0] = 1.0
    for p in range(pos0 + 1, grid.npoints):
        vals[p] = vals[p - 1] * base
    for p in range(pos0 - 1, -1, -1):
        vals[p] = vals[p + 1] / base
    return Weight(grid, vals, kind="exponential", rate=float(rate))


def ml_term_block_seq(
    i0: int, count: int, al: float, be: float, mu: float, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Double-width term matrix T[i - i0, m - 1] = mu^i * prod_{j=1}^{m-1} (i al + be - 1 + j)/j.

    The factor product is the Gamma-ratio term of the kernel series with an
    integer lattice base, which also realizes its pole cancellations: a
    vanishing factor is exactly the zero the normalized ratio prescribes.
    """
    # past the divergence guard the raw terms may overflow; infinities
    # propagate to the guard, which raises before the values are used
    with np.errstate(over="ignore", invalid="ignore"):
        ivec = np.arange(i0, i0 + count, dtype=np.float64)
        zh, zl = _two_prod(ivec, np.full(count, al))
        zh, zl = _dd_add(zh, zl, np.full(count, be - 1.0), np.zeros(count))
        ph, pl = np.ones(count), np.zeros(count)
        # mu^i seeded once per block, then advanced by cumulative product
        muh = np.empty(count)
        mul = np.zeros(count)
        muh[0], mul[0] = 1.0, 0.0
        for t in range(1, count):
            muh[t], mul[t] = _dd_mul(muh[t - 1], mul[t - 1], mu, 0.0)
        if i0:
            base_h, base_l = 1.0, 0.0
            for _ in range(i0):
                base_h, base_l = _dd_mul(base_h, base_l, mu, 0.0)
            muh, mul = _dd_mul(muh, mul, np.full(count, base_h), np.full(count, base_l))
        th = np.empty((count, horizon))
        tl = np.empty((count, horizon))
        h, l = _dd_mul(ph, pl, muh, mul)
        th[:, 0], tl[:, 0] = h, l
        for m in range(2, horizon + 1):
            fh, fl = _dd_add(zh, zl, np.full(count, float(m - 1)), np.zeros(count))
            fh, fl = _dd_div_scalar(fh, fl, float(m - 1))
            ph, pl = _dd_mul(ph, pl, fh, fl)
            h, l = _dd_mul(ph, pl, muh, mul)
            th[:, m - 1], tl[:, m - 1] = h, l
    return th, tl


def ml_values_seq(params: MLParams, horizon: int) -> np.ndarray:
    """Kernel values with the per-point scalar accumulation (no range guard)."""
    if horizon < 1:
        raise SeriesDiverged("kernel horizon must be >= 1")
    al, be, mu = params.alpha, params.beta, params.mu
    vals = np.zeros(horizon + 1)

    total = 0.0
    for i in range(64):
        term = rising_over_gamma(0, i * al + be - 1.0, i * al + be)
        total += mu**i * term
    vals[0] = total

    done = np.zeros(horizon, dtype=bool)
    sum_h = np.zeros(horizon)
    sum_l = np.zeros(horizon)
    streak = np.zeros(horizon, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, _ML_MAX_TERMS, _ML_BLOCK):
            th, tl = ml_term_block_seq(i0, _ML_BLOCK, al, be, mu, horizon)
            for t in range(_ML_BLOCK):
                live = ~done
                if not live.any():
                    break
                idx = np.nonzero(live)[0]
                for m in idx:
                    sum_h[m], sum_l[m] = _dd_add(sum_h[m], sum_l[m], th[t, m], tl[t, m])
                mag = np.abs(th[t, live])
                ref = np.maximum(np.abs(sum_h[live]), _TINY)
                if np.any(mag > _ML_BLOWUP_REL * ref) or not np.all(np.isfinite(mag)):
                    worst = int(np.argmax(np.where(np.isfinite(mag), mag, np.inf) / ref))
                    raise SeriesDiverged(
                        f"kernel series diverging at lattice offset {idx[worst] + 1}"
                    )
                small = mag <= _ML_STOP_REL * ref
                streak[idx[small]] += 1
                streak[idx[~small]] = 0
                done[idx[streak[idx] >= 2]] = True
            if done.all():
                break
        else:
            raise SeriesDiverged("kernel series did not settle within the term budget")
    vals[1:] = sum_h + sum_l
    return vals


def fde_values_seq(
    alpha: float, mu: float, w: Weight, x_a: float, N: int
) -> Signal:
    """Solver with the scalar ascending-lag inner loop."""
    if not (0.0 < alpha < 1.0):
        raise SeriesDiverged(f"solver order must lie in (0, 1), got {alpha}")
    if abs(1.0 - mu) < 1e-12:
        raise SingularStep(f"per-step coefficient 1 - mu vanishes (mu = {mu})")
    if w.grid.horizon < N:
        raise GridMismatch(f"weight horizon {w.grid.horizon} < requested {N}")
    c = gl_coefficients_seq(alpha, N).coeffs
    z = np.empty(N + 1)
    z[0] = w.at(0) * x_a
    for m in range(1, N + 1):
        acc = 0.0
        for i in range(1, m):
            acc += c[i] * (z[m - i] - z[0])
        z[m] = (z[0] - acc) / (1.0 - mu)
    x_vals = z / w.window(0, N)
    return Signal(Grid(w.grid.a, 0, N), x_vals)


def causal_sum_seq(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``out[k] = sum_{i<=k} c[i] z[k-i]``, one scalar accumulator per point,
    ascending lag."""
    out = np.empty(len(z))
    for k in range(len(z)):
        acc = 0.0
        for i in range(k + 1):
            acc += c[i] * z[k - i]
        out[k] = acc
    return out


def causal_dot_seq(c: np.ndarray, z: np.ndarray) -> float:
    """``sum_{i<n} c[i] z[n-1-i]`` with ``n = len(z)``, one scalar
    accumulator, ascending lag."""
    n = len(z)
    acc = 0.0
    for i in range(n):
        acc += c[i] * z[n - 1 - i]
    return acc


def rising_over_gamma_row_seq(q: float, d: float, N: int) -> np.ndarray:
    """``[rising_over_gamma(m, q, d) for m = 1..N]``, one Gamma-ratio
    evaluation per point."""
    return np.array([rising_over_gamma(m, q, d) for m in range(1, N + 1)])


def sample_seq(grid: Grid, f) -> np.ndarray:
    """``f`` at every lattice point, one Python call and one ``float`` per
    point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([float(f(grid.a + m)) for m in grid.offsets()], dtype=np.float64)
