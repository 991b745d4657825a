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
and sampler replace, and the per-term loops of the Taylor forms, the
product rule and the suite's instance signals are frozen copies of the
loops that the library's row passes replace.  The future-instant form's
residual has two loops: its double sum as written, the reference the
library is held to within a rounding bound, and the same sum exchanged,
which the library follows byte for byte.  The same holds for the
per-point tempered integer difference, the base-point reconstruction with
one pointwise difference per point, and the initial-value series as the
identity checkers wrote it inline, which the library's shared stencil and
series generator replace.  The independent, high-precision references live
in ``_oracles.py``.
"""

from __future__ import annotations

import math

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
from nablatc.operators import (
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
from nablatc.signals import BadRate, Grid, GridMismatch, Signal, Weight, make_signal_from_fn
from nablatc.special import (
    DomainError,
    GLCoefficientSeq,
    binomial_coefficients,
    gl_coefficients,
    rising_over_factorial_row,
    rising_over_gamma,
    rising_over_gamma_row,
)


def gl_coefficients_seq(order: float, length: int) -> GLCoefficientSeq:
    if length < 0:
        raise DomainError(f"coefficient sequence length must be >= 0, got {length}")
    c = np.empty(length, dtype=np.float64)
    if length:
        c[0] = 1.0
    for i in range(1, length):
        c[i] = c[i - 1] * ((i - 1 - order) / i)
    return GLCoefficientSeq(coeffs=c)


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
    return Weight(grid, vals)


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
    # Python floats round like float64 scalars and add about 6x faster
    c, z = np.asarray(c, float).tolist(), np.asarray(z, float).tolist()
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


def taylor_sweep_seq(x: Signal, spec: OperatorSpec, K_max: int) -> list[float]:
    """Deviations of the truncated base-point series from the direct
    operator, the series rebuilt from its first term for every degree."""
    kind, order, w = spec.kind, spec.order, spec.weight
    n = spec.n if kind is not OperatorKind.GL else 0
    k_lo = (n if kind in (OperatorKind.INTEGER_NABLA, OperatorKind.CAPUTO) else 0) + 1
    i_lo = k_lo - 1
    N = x.grid.horizon
    direct = apply_operator(x, spec).body
    ratio = w.at(0) / w.window(1, N)
    deviations = []
    for K in range(k_lo, K_max + 1):
        series = np.zeros(N)
        for i in range(i_lo, K + 1):
            d_i = nabla_n_tempered_at(x, i, w, 0)
            if kind is OperatorKind.INTEGER_NABLA:
                basis = rising_over_factorial_row(i - n, N)
            else:
                basis = rising_over_gamma_row(i - order, i - order + 1, N)
            series += basis * ratio * d_i
        deviations.append(float(np.max(np.abs(series - direct))))
    return deviations


def reconstruct_from_current_seq(x: Signal, k_offset: int, j_offset: int) -> float:
    """x at offset j from the backward differences at offset k, one
    pointwise difference per term."""
    if j_offset > k_offset:
        raise InsufficientLags("target offset must not exceed the expansion point")
    t = k_offset - j_offset
    if k_offset - t < -x.grid.history:
        raise InsufficientLags("expansion reaches below the stored grid")
    acc = 0.0
    for i in range(t + 1):
        acc += (-1.0) ** i * math.comb(t, i) * nabla_at(x, i, k_offset)
    return acc


def taylor_current_seq(x: Signal, spec: OperatorSpec) -> np.ndarray:
    """Body of the evaluation-point form, one Gamma ratio per (m, i) term."""
    order, w = float(spec.order), spec.weight
    N = x.grid.horizon
    shift = spec.n if spec.kind is OperatorKind.CAPUTO else 0
    if x.grid.history < shift:
        raise InsufficientHistory(f"order {shift} needs history >= {shift}")
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
    return body


def _future_parts_seq(x: Signal, spec: OperatorSpec, K: int):
    """The future-instant form's point series at offsets 1..N, one Gamma
    ratio per (m, i) term, and what its residual reads: ``wv = w v`` for
    the (K+1)-th tempered difference v, the kernel's Gamma-ratio arguments
    and the binomial degree."""
    kind, order, w = spec.kind, spec.order, spec.weight
    N = x.grid.horizon
    shift = spec.n if kind is OperatorKind.CAPUTO else 0
    rows = tempered_diff_rows(x, w, K)
    binom = binomial_coefficients(order - shift, K - shift + 1)
    body = np.zeros(N)
    for m in range(1, N + 1):
        acc = 0.0
        # degrees past m - 1 + shift have no term at m (base not positive)
        for i in range(shift, min(K, m - 1 + shift) + 1):
            acc += (
                binom[i - shift]
                * rising_over_gamma(m - i + shift, i - order, i - order + 1)
                * rows[i, m - 1]
            )
        body[m - 1] = acc / w.at(m)
    v = nabla_n_tempered(x, K + 1, w)
    wv = w.window(1, N) * v.body
    return body, wv, shift - order - 1.0, shift - order, K - shift


def taylor_future_seq(x: Signal, spec: OperatorSpec, K: int) -> np.ndarray:
    """Body of the evaluation-point expansion with its double-sum residual
    as written, outer sum over io, inner over jo, one Gamma ratio and one
    binomial per residual term."""
    w = spec.weight
    body, wv, kern_q, kern_d, kdeg = _future_parts_seq(x, spec, K)
    for m in range(1, len(body) + 1):
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
    return body


def taylor_future_exchanged_seq(x: Signal, spec: OperatorSpec, K: int) -> np.ndarray:
    """Body of the evaluation-point expansion with its double-sum residual
    in exchanged order: at each m, first ``G(jo) += wv(m) B(m-jo)`` for every
    jo, each G from 0.0, then ``res(m) = sum_jo kern(m-jo+2) G(jo)`` from
    0.0, both in ascending jo = 2..m-kdeg; one Gamma ratio and one binomial
    per term."""
    w = spec.weight
    body, wv, kern_q, kern_d, kdeg = _future_parts_seq(x, spec, K)
    N = len(body)
    g = [0.0] * (N + 1)  # g[jo]
    for m in range(1, N + 1):
        for jo in range(2, m - kdeg + 1):
            g[jo] += wv[m - 1] * ((-1.0) ** kdeg * math.comb(m - jo, kdeg))
        res = 0.0
        for jo in range(2, m - kdeg + 1):
            res += rising_over_gamma(m - jo + 2, kern_q, kern_d) * g[jo]
        body[m - 1] -= res / w.at(m)
    return body


def leibniz_rhs_seq(f: Signal, g: Signal, spec: OperatorSpec) -> np.ndarray:
    """Product-rule right-hand side, one scalar accumulator per point and
    one 1-D single sum per member of the inner family."""
    w = spec.weight
    N = f.grid.horizon
    kind = spec.kind
    if kind is OperatorKind.INTEGER_NABLA:
        nn = int(spec.order)
        frows = tempered_diff_rows(f, w, nn)
        rhs = np.zeros(N)
        for m in range(1, N + 1):
            acc = 0.0
            for i in range(nn + 1):
                df = frows[i, m - 1] / w.at(m)
                dg = nabla_at(g, nn - i, m - i)
                acc += math.comb(nn, i) * df * dg
            rhs[m - 1] = acc
        return rhs
    alpha = spec.order
    binom = binomial_coefficients(alpha, N)
    frows = tempered_diff_rows(f, w, N - 1)
    inner = [
        causal_sum(gl_coefficients(alpha - i, N - i).coeffs, g.body[: N - i])
        for i in range(N)
    ]
    rhs = np.zeros(N)
    for m in range(1, N + 1):
        acc = 0.0
        for i in range(m):
            df = frows[i, m - 1] / w.at(m)
            acc += binom[i] * df * inner[i][m - i - 1]
        rhs[m - 1] = acc
    if kind is OperatorKind.CAPUTO:
        ratio = w.at(0) / w.window(1, N)
        r_term = np.zeros(N)
        for j in range(spec.n):
            for i in range(j, spec.n):
                df = nabla_n_tempered_at(f, j, w, 0)
                dg = nabla_at(g, i - j, -j)
                basis = rising_over_gamma_row(i - alpha, i - alpha + 1, N)
                r_term += math.comb(i, j) * basis * ratio * (df * dg)
        rhs = rhs - r_term
    return rhs


def instance_signal_seq(rng: np.random.Generator, grid: Grid, idx: int) -> Signal:
    """The suite's instance signal with every family sampled on numpy
    float64 points."""
    fam = idx % 4
    if fam == 0:
        return Signal(grid, rng.standard_normal(grid.npoints))
    if fam == 1:
        return make_signal_from_fn(grid, lambda k: math.sin(10.0 * k))
    if fam == 2:
        c = rng.uniform(-2.0, 2.0, size=4)
        span = grid.horizon
        return make_signal_from_fn(
            grid, lambda k: sum(cj * ((k - grid.a) / span) ** j for j, cj in enumerate(c))
        )
    r = float(rng.uniform(0.75, 1.03))
    return make_signal_from_fn(grid, lambda k: r ** (k - grid.a))


def nabla_n_tempered_seq(x: Signal, n: int, w: Weight) -> np.ndarray:
    """Body of ``w^-1 nabla^n [w x]``, one scalar accumulator per point:
    ``c_i * (w x)(m - i)`` added from 0.0 in ascending lag, then divided
    by ``w(m)``."""
    N = x.grid.horizon
    coef = [float((-1) ** i * math.comb(n, i)) for i in range(n + 1)]
    body = np.empty(N)
    for m in range(1, N + 1):
        acc = 0.0
        for i in range(n + 1):
            acc += coef[i] * (w.at(m - i) * x.at(m - i))
        body[m - 1] = acc / w.at(m)
    return body


def reconstruct_initial_seq(x: Signal, K: int) -> np.ndarray:
    """Values of the degree-K base-point reconstruction at offsets 0..N,
    with one pointwise difference per coefficient and per remainder point."""
    N = x.grid.horizon
    coeffs = [nabla_at(x, i, 0) for i in range(K + 1)]
    out = np.zeros(N + 1)
    out[0] = coeffs[0]
    for i in range(K + 1):
        out[1:] += rising_over_factorial_row(i, N) * coeffs[i]
    dKp1 = np.array([nabla_at(x, K + 1, m) for m in range(1, N + 1)])
    out[1:] += causal_sum(rising_over_factorial_row(K, N), dKp1)
    return out


def initial_value_series_seq(x: Signal, w: Weight, degrees, basis) -> np.ndarray:
    """``sum_i basis(i)(k) (w(a)/w(k)) d_i`` over ``degrees`` in order, one
    scalar accumulator per point, as the identity checkers wrote it inline."""
    N = x.grid.horizon
    terms = [(basis(i), nabla_n_tempered_at(x, i, w, 0)) for i in degrees]
    out = np.empty(N)
    for m in range(1, N + 1):
        acc = 0.0
        for row, d_i in terms:
            acc += row[m - 1] * (w.at(0) / w.at(m)) * d_i
        out[m - 1] = acc
    return out
