"""Transform-domain machinery.

A truncated evaluation of the lattice Laplace-type transform
``X(s) = sum_{j>=1} (1-s)^(j-1) x(a+j)``, the transform rules for
exponentially tempered operators, the lattice convolution and its exchange
identities (checked in the time domain, where both sides are exact finite
sums), the discrete Mittag-Leffler kernel, and the time-stepping solver for
the scalar tempered fractional relaxation equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NablaError
from .identities import IdentityReport
from .operators import (
    caputo_tempered,
    causal_dot,
    causal_sum,
    gl_tempered,
    nabla_n_tempered,
    nabla_n_tempered_at,
    rl_tempered,
    rl_tempered_at_base,
)
from .signals import Grid, GridMismatch, NonFiniteSample, Signal, Weight, make_weight
from .special import gl_coefficients, rising_over_gamma

__all__ = [
    "LaplaceEval",
    "MLParams",
    "HorizonExhausted",
    "RegionOfConvergence",
    "SeriesDiverged",
    "SingularStep",
    "nlt",
    "check_transform_rule_gl",
    "check_transform_rule_diff",
    "check_tempering_shift",
    "convolve",
    "check_convolution_commutation",
    "check_convolution_with_ic",
    "ml_function",
    "fde_solve",
]

#: Relative term-size threshold below which the transform series is
#: considered summed.
_CONVERGED_REL = 1e-14
_TINY = 1e-300


class HorizonExhausted(NablaError):
    """The grid ended before the transform series met its stop criterion."""


class RegionOfConvergence(NablaError):
    """The transform point lies outside the region the rule is valid on."""


class SeriesDiverged(NablaError):
    """A series evaluation left its convergence regime."""


class SingularStep(NablaError):
    """The per-step linear coefficient of the solver vanished."""


@dataclass(frozen=True)
class LaplaceEval:
    """Truncated transform value with truncation diagnostics.

    ``converged`` implies ``last_term_mag <= 1e-14 * max(|value|, 1e-300)``.
    Geometric convergence is only guaranteed for ``|1-s| < 1``; outside that
    disk the value is still computed but flagged unconverged unless the
    remaining samples are identically zero (finite-support signals).
    """

    s: complex
    value: complex
    terms_used: int
    last_term_mag: float
    converged: bool


def nlt(
    x: Signal,
    s: complex,
    max_terms: int | None = None,
    *,
    require_convergence: bool = False,
) -> LaplaceEval:
    """Partial sum ``sum_{j=1}^J (1-s)^(j-1) x(a+j)`` with early stopping.

    Raises:
        SeriesDiverged: when the partial sum overflows or turns NaN (far
            outside the disk ``|1-s| < 1``).  A finite unconverged value is
            returned, flagged by ``converged``.
    """
    N = x.grid.horizon
    J = N if max_terms is None else min(int(max_terms), N)
    if J < 1:
        raise HorizonExhausted("transform needs at least one sample")
    body = x.body
    # suffix maxima of |x|: suffix_max[j] bounds every sample after index j
    suffix_max = np.maximum.accumulate(np.abs(body[::-1]))[::-1]
    q = complex(1.0) - complex(s)
    qa = abs(q)
    p = complex(1.0)
    total = complex(0.0)
    last_mag = math.inf
    used = 0
    criterion = False
    for j in range(1, J + 1):
        term = p * body[j - 1]
        total += term
        last_mag = abs(term)
        used = j
        ref = _CONVERGED_REL * max(abs(total), _TINY)
        remaining = suffix_max[j] if j < len(body) else 0.0
        if qa < 1.0:
            tail_bound = remaining * abs(p) * qa / (1.0 - qa)
        else:
            tail_bound = 0.0 if remaining == 0.0 else math.inf
        if tail_bound <= ref and last_mag <= ref:
            criterion = True
            break
        p *= q
    # a non-finite partial sum stays non-finite, so one check covers every term
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise SeriesDiverged(
            f"transform partial sum is {total} after {used} terms (|1-s| = {qa:.3g})"
        )
    tail_zero = bool(np.all(body[used:] == 0.0))
    converged = criterion and (qa < 1.0 or tail_zero)
    if require_convergence and not converged:
        raise HorizonExhausted(
            f"series not converged after {used} terms (|1-s| = {qa:.3g})"
        )
    return LaplaceEval(
        s=complex(s),
        value=total,
        terms_used=used,
        last_term_mag=last_mag,
        converged=converged,
    )


def _check_region(s: complex, lam: float, r: float) -> None:
    if abs(s - 1.0) >= min(r, abs(1.0 - lam)):
        raise RegionOfConvergence(
            f"|s-1| = {abs(s - 1.0):.4g} outside the disk of radius "
            f"min({r}, |1-lambda| = {abs(1.0 - lam):.4g})"
        )


def _rho(s: complex, lam: float) -> complex:
    return (s - lam) / (1.0 - lam)


def check_transform_rule_gl(
    x: Signal,
    alpha: float,
    lam: float,
    s: complex,
    *,
    r: float = 1.0,
    tol: float = 1e-7,
) -> IdentityReport:
    """Transform of the exponentially tempered single-sum operator equals
    ``((s - lambda)/(1 - lambda))^alpha`` times the transform of the signal.

    ``r`` is the caller-supplied convergence radius of the signal's
    transform (1 for bounded signals); the rule is checked strictly inside
    ``|s-1| < min(r, |1-lambda|)``.
    """
    _check_region(s, lam, r)
    w = make_weight(x.grid, rate=lam)
    lhs = nlt(gl_tempered(x, alpha, w), s).value
    rhs = _rho(s, lam) ** alpha * nlt(x, s).value
    dev = abs(lhs - rhs)
    return IdentityReport.from_measurement(
        "laplace-gl-rule",
        dev,
        x.grid.a,
        tol,
        {"alpha": alpha, "lambda": lam, "s": [s.real, s.imag]},
    )


def check_transform_rule_diff(
    x: Signal,
    kind: str,
    order: float,
    lam: float,
    s: complex,
    *,
    r: float = 1.0,
    tol: float = 1e-7,
) -> IdentityReport:
    """Transform rules with initial-condition polynomials.

    ``kind`` is ``"int"`` (both orderings of the initial-value sum are
    checked against each other as well), ``"rl"`` (whose initial values
    vanish under the base-point convention but are evaluated regardless),
    or ``"caputo"``.
    """
    _check_region(s, lam, r)
    w = make_weight(x.grid, rate=lam)
    rho = _rho(s, lam)
    X = nlt(x, s).value
    scale = 1.0 / (1.0 - lam)
    if kind == "int":
        n = int(order)
        lhs = nlt(nabla_n_tempered(x, n, w), s).value
        iv = [nabla_n_tempered_at(x, i, w, 0) for i in range(n)]
        rhs_a = rho**n * X - scale * sum(rho**i * iv[n - i - 1] for i in range(n))
        rhs_b = rho**n * X - scale * sum(rho ** (n - i - 1) * iv[i] for i in range(n))
        dev = max(abs(lhs - rhs_a), abs(lhs - rhs_b), abs(rhs_a - rhs_b))
        ident = "laplace-diff-rule-int"
        params: dict = {"n": n}
    elif kind == "rl":
        n = int(math.ceil(order))
        lhs = nlt(rl_tempered(x, order, w), s).value
        rhs = rho**order * X - scale * sum(
            rho**i * rl_tempered_at_base(x, order - i - 1, w) for i in range(n)
        )
        dev = abs(lhs - rhs)
        ident = "laplace-diff-rule-rl"
        params = {"alpha": order}
    elif kind == "caputo":
        n = int(math.ceil(order))
        lhs = nlt(caputo_tempered(x, order, w), s).value
        iv = [nabla_n_tempered_at(x, i, w, 0) for i in range(n)]
        rhs = rho**order * X - scale * sum(
            rho ** (order - i - 1) * iv[i] for i in range(n)
        )
        dev = abs(lhs - rhs)
        ident = "laplace-diff-rule-caputo"
        params = {"alpha": order}
    else:
        raise ValueError(f"kind must be 'int', 'rl' or 'caputo', got {kind!r}")
    params.update({"lambda": lam, "s": [complex(s).real, complex(s).imag]})
    return IdentityReport.from_measurement(ident, dev, x.grid.a, tol, params)


def check_tempering_shift(
    x: Signal, lam: float, s: complex, tol: float = 1e-9
) -> IdentityReport:
    """Multiplying a signal by the exponential weight shifts the transform
    argument: ``(1-lambda) X(s + lambda - lambda s)``."""
    if abs(s - 1.0) >= 1.0 or abs(s - 1.0) * abs(1.0 - lam) >= 1.0:
        raise RegionOfConvergence("s outside the shifted convergence disk")
    w = make_weight(x.grid, rate=lam)
    weighted = Signal(x.grid, w.values * x.values)
    lhs = nlt(weighted, s).value
    s_shift = s + lam - lam * s
    rhs = (1.0 - lam) * nlt(x, s_shift).value
    return IdentityReport.from_measurement(
        "laplace-tempering-shift",
        abs(lhs - rhs),
        x.grid.a,
        tol,
        {"lambda": lam, "s": [complex(s).real, complex(s).imag]},
    )


# ---------------------------------------------------------------------------
# lattice convolution and its exchange identities
# ---------------------------------------------------------------------------


def convolve(x: Signal, y: Signal) -> Signal:
    """Lattice convolution ``(x*y)(k) = sum_{j=a+1}^k x(k+a+1-j) y(j)``."""
    if x.grid.a != y.grid.a or x.grid.horizon != y.grid.horizon:
        raise GridMismatch("convolution needs matching base points and horizons")
    # lag i = k - j pairs x(a+1+i) with y(k-i): a causal sum with kernel x
    out = causal_sum(x.body, y.body)
    return Signal(Grid(x.grid.a, 0, x.grid.horizon), np.concatenate([[0.0], out]))


def check_convolution_commutation(
    x: Signal, y: Signal, alpha: float, lam: float, tol: float = 1e-10
) -> IdentityReport:
    """The tempered single-sum operator slides across the convolution."""
    if x.grid != y.grid:
        raise GridMismatch("both signals must share a grid")
    w = make_weight(x.grid, rate=lam)
    lhs = convolve(x, gl_tempered(y, alpha, w)).body
    rhs = convolve(gl_tempered(x, alpha, w), y).body
    devs = np.abs(lhs - rhs)
    return IdentityReport.from_devs(
        "conv-commute", devs, x.grid.a + 1, tol, {"alpha": alpha, "lambda": lam}
    )


def check_convolution_with_ic(
    x: Signal, y: Signal, order: float, lam: float, tol: float = 1e-10
) -> IdentityReport:
    """Exchange identities with boundary brackets.

    Integer order: convolving against the tempered difference of one factor
    equals convolving the difference of the other plus the boundary bracket
    of lag products.  Fractional order: the difference-of-sum form on one
    side exchanges with the sum-of-difference form on the other, the
    bracket pairing integer differences of x at the base with single-sum
    differences of y.

    The bracket carries a 1/(1-lambda) prefactor: transforming both sides
    with the transform rules forces it, and without it the exchange fails
    by O(1) for every nonzero rate.
    """
    if x.grid != y.grid:
        raise GridMismatch("both signals must share a grid")
    w = make_weight(x.grid, rate=lam)
    N = x.grid.horizon
    is_int = order == math.floor(order)
    n = int(order) if is_int else int(math.ceil(order))
    if x.grid.history < n:
        raise GridMismatch(f"boundary brackets need history >= {n}")
    iv_x = [nabla_n_tempered_at(x, i, w, 0) for i in range(n)]
    x_ops = [
        x.body if i == 0 else nabla_n_tempered(x, i, w).body for i in range(n)
    ]
    if is_int:
        lhs = convolve(x, nabla_n_tempered(y, n, w)).body
        base = convolve(nabla_n_tempered(x, n, w), y).body
        y_ops = [
            y.body if j == 0 else nabla_n_tempered(y, j, w).body
            for j in range(n)
        ]
        iv_y = [nabla_n_tempered_at(y, j, w, 0) for j in range(n)]
        bracket = np.zeros(N)
        for i in range(n):
            bracket += iv_x[i] * y_ops[n - i - 1] - x_ops[i] * iv_y[n - i - 1]
        ident = "conv-ic-int"
        params: dict = {"n": n}
    else:
        lhs = convolve(x, rl_tempered(y, order, w)).body
        base = convolve(caputo_tempered(x, order, w), y).body
        bracket = np.zeros(N)
        for i in range(n):
            # single-sum form of the order (alpha-i-1) difference of y; its
            # value at the base point is the evaluated structural zero
            y_frac = gl_tempered(y, order - i - 1.0, w).body
            iv_y = rl_tempered_at_base(y, order - i - 1.0, w)
            bracket += iv_x[i] * y_frac - x_ops[i] * iv_y
        ident = "conv-ic-frac"
        params = {"alpha": order}
    params["lambda"] = lam
    devs = np.abs(lhs - (base + bracket / (1.0 - lam)))
    return IdentityReport.from_devs(ident, devs, x.grid.a + 1, tol, params)


# ---------------------------------------------------------------------------
# discrete Mittag-Leffler kernel and the relaxation-equation solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLParams:
    """Parameters of the two-index lattice Mittag-Leffler kernel."""

    alpha: float
    beta: float
    mu: float
    a: float = 0.0

    def __post_init__(self) -> None:
        # alpha = 1 is admitted: the kernel degenerates to the lattice
        # exponential there, which doubles as a test oracle.
        if not (0.0 < self.alpha < 2.0):
            raise SeriesDiverged(
                f"kernel index alpha must lie in (0, 2), got {self.alpha}"
            )
        if self.mu == 1.0:
            raise SingularStep("kernel parameter mu = 1 is excluded")


_ML_MAX_TERMS = 8192
_ML_BLOCK = 256
#: Terms added to every point's running sum between two stop/guard checks.
_ML_CHUNK = 32
#: Rows of each term block built first; the rest of the block is built only
#: if some point is still summing past them.
_ML_FIRST_ROWS = 96
_ML_STOP_REL = 1e-15
_ML_BLOWUP_REL = 1e12
#: Largest term the compensated sum may cancel, relative to max(1, |F(k)|).
#: The sum keeps ~1e-31 of its largest term, so at 1e17 the kernel is still
#: good to ~1e-14; at (alpha, mu) = (0.9, -0.5) the first point past it is
#: k = 69.
_ML_CANCEL_MAX = 1e17

# ---------------------------------------------------------------------------
# Compensated double-width arithmetic (arrays of value/error pairs).  The
# kernel series alternates through terms many orders of magnitude above its
# O(1) sum, so a plain binary64 accumulation loses the answer; error-free
# transforms keep ~1e-31 of the largest term through products and sums.
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    aa = _SPLIT * a
    ahi = aa - (aa - a)
    alo = a - ahi
    bb = _SPLIT * b
    bhi = bb - (bb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    return _two_sum(s, e + xl + yl)


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _two_sum(p, e + xh * yl + xl * yh)


def _dd_div_scalar(xh, xl, d):
    q1 = xh / d
    p, e = _two_prod(q1, d)
    q2 = ((xh - p) - e + xl) / d
    return _two_sum(q1, q2)


def _ml_term_block(
    i0: int,
    r1: int,
    al: float,
    be: float,
    mu: float,
    horizon: int,
    r0: int = 0,
    chain: tuple[list[float], list[float]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``r0 .. r1 - 1`` of the double-width term block of block ``i0``:
    T[r - r0, m - 1] = mu^i * prod_{j=1}^{m-1} (i al + be - 1 + j)/j, i = i0 + r.

    The factor product is the Gamma-ratio term of the kernel series with an
    integer lattice base, which also realizes its pole cancellations: a
    vanishing factor is exactly the zero the normalized ratio prescribes.
    Every factor is tabulated in one 2-D pass; only the cumulative product
    over m runs as a loop, one vectorised step per lattice offset.

    Rows never mix: each takes the same elementwise operations whatever
    range it is built in, and mu^t comes from one scalar chain from 1,
    extended only as far as the rows built (``chain`` carries it between
    calls).  So any split of a block into row ranges concatenates to the
    whole block, ``r0 = 0, r1 = 256``, bit for bit.
    """
    n = r1 - r0
    pw_h, pw_l = chain if chain is not None else ([1.0], [0.0])
    # past the divergence guard the raw terms may overflow; infinities
    # propagate to the guard, which raises before the values are used
    with np.errstate(over="ignore", invalid="ignore"):
        ivec = np.arange(i0 + r0, i0 + r1, dtype=np.float64)
        zh, zl = _two_prod(ivec, al)
        zh, zl = _dd_add(zh, zl, be - 1.0, 0.0)
        # mu^t for the rows t, then mu^i0; block i0 scales the first by the
        # second
        h, l = pw_h[-1], pw_l[-1]
        for _ in range(len(pw_h), max(i0, r1 - 1) + 1):
            h, l = _dd_mul(h, l, mu, 0.0)
            pw_h.append(h)
            pw_l.append(l)
        muh, mul = np.array(pw_h[r0:r1]), np.array(pw_l[r0:r1])
        if i0:
            muh, mul = _dd_mul(muh, mul, pw_h[i0], pw_l[i0])
        # row m - 1 of the factor table is (i al + be - 1 + (m - 1)) / (m - 1)
        d = np.arange(1.0, horizon)[:, None]
        fh, fl = _dd_div_scalar(*_dd_add(zh, zl, d, 0.0), d)
        # the Dekker halves _two_prod splits its second operand into, taken
        # once for the whole table
        fb = _SPLIT * fh
        fhi = fb - (fb - fh)
        flo = fh - fhi
        ph = np.empty((horizon, n))
        pl = np.empty((horizon, n))
        ph[0], pl[0] = 1.0, 0.0
        split = np.full(n, _SPLIT)
        p, aa, t, ahi, alo, x, e, q = np.empty((8, n))
        mult, add, sub = np.multiply, np.add, np.subtract
        steps = zip(ph[:-1], pl[:-1], fh, fl, fhi, flo, ph[1:], pl[1:])
        for a, a_l, b, b_l, bhi, blo, s, err in steps:
            # (s, err) = _dd_mul(a, a_l, b, b_l), written out into reused
            # buffers: the same operations in the same order
            mult(a, b, p)
            mult(split, a, aa)
            sub(aa, a, t)
            sub(aa, t, ahi)
            sub(a, ahi, alo)
            mult(ahi, bhi, x)
            sub(x, p, e)
            mult(ahi, blo, x)
            add(e, x, e)
            mult(alo, bhi, x)
            add(e, x, e)
            mult(alo, blo, x)
            add(e, x, e)
            mult(a, b_l, x)
            add(e, x, q)
            mult(a_l, b, x)
            add(q, x, q)
            add(p, q, s)
            sub(s, p, t)
            sub(s, t, x)
            sub(p, x, x)
            sub(q, t, e)
            add(x, e, err)
        th, tl = _dd_mul(ph, pl, muh, mul)
    return np.ascontiguousarray(th.T), np.ascontiguousarray(tl.T)


def ml_function(params: MLParams, horizon: int) -> Signal:
    """Two-index kernel ``sum_i mu^i (k-a)^(i alpha + beta - 1)/Gamma(i alpha + beta)``.

    Terms are added until one falls below 1e-15 of the partial sum twice in
    a row; a term exceeding 1e12 of the partial sum aborts the evaluation.
    The summation runs in compensated double-width arithmetic because the
    series alternates violently for negative mu at moderate horizons; a
    point whose largest term exceeds 1e17 * max(1, |F(k)|) has cancelled
    past what that arithmetic holds, and raises :class:`SeriesDiverged`.
    """
    if horizon < 1:
        raise SeriesDiverged("kernel horizon must be >= 1")
    al, be, mu = params.alpha, params.beta, params.mu
    vals = np.zeros(horizon + 1)

    # base point: the lattice base 0 puts a pole in Gamma(0), so a term
    # survives only where Gamma(i al + be - 1) has a pole to match it and
    # Gamma(i al + be) has none; every other term is exactly 0 and is
    # skipped (adding it to a sum that started from +0.0 changes nothing)
    i = np.arange(64)
    q, d = i * al + be - 1.0, i * al + be
    matched = (q <= 0.0) & (q == np.floor(q)) & ~((d <= 0.0) & (d == np.floor(d)))
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in np.flatnonzero(matched).tolist():
            # a numpy power: the bits of the Python one, inf past binary64
            term = rising_over_gamma(0, i * al + be - 1.0, i * al + be)
            total += np.float64(mu) ** i * term
    if not math.isfinite(total):
        raise SeriesDiverged(f"kernel series overflows at the base point (mu = {mu})")
    vals[0] = total

    done = np.zeros(horizon, dtype=bool)
    # each point's sum at its stop term, and whether its last term was small
    fin_h = np.zeros(horizon)
    fin_l = np.zeros(horizon)
    was_small = np.zeros((1, horizon), dtype=bool)
    peak = np.zeros(horizon)
    # every point's running sum after each term of the current chunk; the
    # last row carries the sums into the next chunk
    run_h = np.zeros((_ML_CHUNK, horizon))
    run_l = np.zeros((_ML_CHUNK, horizon))
    rows = np.arange(_ML_CHUNK)[:, None]
    # step t reads row t - 1, which is row -1, the carried sums, at t = 0
    hs, ls = list(run_h), list(run_l)
    steps = list(zip(hs[-1:] + hs[:-1], ls[-1:] + ls[:-1], hs, ls))
    s, bb, v, w, e = np.empty((5, horizon))
    add, sub = np.add, np.subtract
    # mu^t, shared by every block's rows
    chain = ([1.0], [0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, _ML_MAX_TERMS, _ML_CHUNK):
            t0 = i % _ML_BLOCK
            if t0 == 0 or t0 == _ML_FIRST_ROWS:
                r1 = _ML_FIRST_ROWS if t0 == 0 else _ML_BLOCK
                th, tl = _ml_term_block(i - t0, r1, al, be, mu, horizon, t0, chain)
                r0 = t0
            ch = th[t0 - r0 : t0 - r0 + _ML_CHUNK]
            cl = tl[t0 - r0 : t0 - r0 + _ML_CHUNK]
            for (xh, xl, sh, sl), yh, yl in zip(steps, ch, cl):
                # (sh, sl) = _dd_add(xh, xl, yh, yl), written out into
                # reused buffers: the same operations in the same order
                add(xh, yh, s)
                sub(s, xh, bb)
                sub(s, bb, v)
                sub(xh, v, v)
                sub(yh, bb, w)
                add(v, w, e)
                add(e, xl, e)
                add(e, yl, w)
                add(s, w, sh)
                sub(sh, s, bb)
                sub(sh, bb, v)
                sub(s, v, v)
                sub(w, bb, e)
                add(v, e, sl)
            mag = np.abs(ch)
            ref = np.maximum(np.abs(run_h), _TINY)
            small = mag <= _ML_STOP_REL * ref
            # a point stops at its second small term in a row; its sums
            # past that term are discarded
            stops = small & np.concatenate([was_small, small[:-1]])
            was_small = small[-1:]
            stopping = stops.any(axis=0) & ~done
            last = np.where(stopping, stops.argmax(axis=0), _ML_CHUNK - 1)
            live = (rows <= last) & ~done
            bad = live & ((mag > _ML_BLOWUP_REL * ref) | ~np.isfinite(mag))
            if bad.any():
                # the first failing term, judged over the points live there
                t = int(bad.any(axis=1).argmax())
                idx = np.nonzero(live[t])[0]
                m_t, r_t = mag[t, idx], ref[t, idx]
                worst = int(np.argmax(np.where(np.isfinite(m_t), m_t, np.inf) / r_t))
                raise SeriesDiverged(
                    f"kernel series diverging at lattice offset {idx[worst] + 1}"
                )
            peak = np.maximum(peak, np.where(live, mag, 0.0).max(axis=0))
            at = last[stopping]
            fin_h[stopping] = run_h[at, stopping]
            fin_l[stopping] = run_l[at, stopping]
            done |= stopping
            if done.all():
                break
        else:
            raise SeriesDiverged("kernel series did not settle within the term budget")
    vals[1:] = fin_h + fin_l
    lost = peak > _ML_CANCEL_MAX * np.maximum(1.0, np.abs(vals[1:]))
    if lost.any():
        m = int(np.argmax(lost))
        raise SeriesDiverged(
            f"kernel series cancels terms up to {peak[m]:.3g} at lattice offset "
            f"{m + 1}, beyond the {_ML_CANCEL_MAX:.0e} the compensated sum holds"
        )
    return Signal(Grid(params.a, 0, horizon), vals)


def fde_solve(
    alpha: float, mu: float, w: Weight, x_a: float, N: int
) -> Signal:
    """Time-step the tempered relaxation equation.

    Solves "sum-of-difference operator of order alpha applied to x equals
    mu times x" with x given at the base point, by substituting z = w*x and
    stepping the single-sum form of the operator: each step solves
    ``(1 - mu) z(k) = z(a) - sum_{i>=1} c_i(alpha) (z(k-i) - z(a))``, whose
    right side uses only already-computed values.  The weighted solution
    satisfies ``w(k) x(k) = F(mu, k, a) w(a) x(a)`` with the Mittag-Leffler
    kernel F.

    Each step's inner sum is one :func:`~nablatc.operators.causal_dot` call:
    one ``np.vecdot`` over the coefficients and the reversed buffer of
    ``z(j) - z(a)``, adding the terms in ascending lag order with two
    roundings apiece, so the result equals the scalar loop bit for bit.
    Where the import-time probe finds that vecdot sums otherwise, each step
    uses ``np.multiply`` plus ``np.add.accumulate``, which gives the same
    bits.
    """
    if not (0.0 < alpha < 1.0):
        raise SeriesDiverged(f"solver order must lie in (0, 1), got {alpha}")
    if not (math.isfinite(mu) and math.isfinite(x_a)):
        raise NonFiniteSample(f"solver needs a finite mu and x(a), got mu = {mu}, x(a) = {x_a}")
    if abs(1.0 - mu) < 1e-12:
        raise SingularStep(f"per-step coefficient 1 - mu vanishes (mu = {mu})")
    if w.grid.horizon < N:
        raise GridMismatch(f"weight horizon {w.grid.horizon} < requested {N}")
    c = gl_coefficients(alpha, N).coeffs
    z = np.empty(N + 1)
    z[0] = w.at(0) * x_a
    # the step scalars are Python floats: the same binary64 operations as
    # numpy's scalars, without their dispatch
    z0 = float(z[0])
    one_minus_mu = 1.0 - float(mu)
    # lag[j] = z(j) - z(a) for j >= 1, so step m's terms c_i lag[m-i],
    # i = 1..m-1, are the one-output causal sum of c[1:m] against lag[1:m]
    lag = np.empty(N + 1)
    # an overflowing step makes a non-finite sample, which Signal rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, N + 1):
            zm = (z0 - float(causal_dot(c[1:m], lag[1:m]))) / one_minus_mu
            z[m] = zm
            lag[m] = zm - z0
        x_vals = z / w.window(0, N)
    return Signal(Grid(w.grid.a, 0, N), x_vals)
