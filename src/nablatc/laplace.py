"""Transform-domain machinery.

A truncated evaluation of the lattice Laplace-type transform
``X(s) = sum_{j>=1} (1-s)^(j-1) x(a+j)``, one transform rule for every
kind of exponentially tempered operator, the lattice convolution and its exchange
identities (checked in the time domain, where both sides are exact finite
sums), the discrete Mittag-Leffler kernel, and the time-stepping solver for
the scalar tempered fractional relaxation equation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NablaError, batched
from .identities import IdentityReport
from . import operators
from .operators import (
    OperatorKind,
    OperatorSpec,
    _output,
    _in_order_dot,
    _lag_einsum,
    _stage,
    apply_operator,
    caputo_tempered,
    causal_sum,
    gl_tempered,
    nabla_n_tempered,
    nabla_n_tempered_at,
    rl_tempered,
)
from .signals import Grid, GridMismatch, NonFiniteSample, Signal, Weight, _check_rate, make_weight
from .special import (
    _SPLIT,
    _dd_add,
    _dd_div_scalar,
    _dd_mul,
    _split,
    _two_prod,
    gl_coefficients,
)

__all__ = [
    "LaplaceEval",
    "MLParams",
    "RegionOfConvergence",
    "SeriesDiverged",
    "SingularStep",
    "nlt",
    "check_transform_rule_gl",
    "transform_rule_reports",
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


def nlt(x: Signal, s: complex) -> LaplaceEval:
    """Partial sum ``sum_{j=1}^J (1-s)^(j-1) x(a+j)`` with early stopping.

    Raises:
        SeriesDiverged: when the partial sum overflows or turns NaN (far
            outside the disk ``|1-s| < 1``).  A finite unconverged value is
            returned, flagged by ``converged``.
    """
    body = x.body
    # suffix maxima of |x|: suffix_max[j] bounds every sample after index j
    suffix_max = np.maximum.accumulate(np.abs(body[::-1]))[::-1]
    q = complex(1.0) - complex(s)
    qa = _cabs(q)
    p = complex(1.0)
    total = complex(0.0)
    last_mag = math.inf
    used = 0
    criterion = False
    try:
        for j in range(1, len(body) + 1):
            term = p * body[j - 1]
            total += term
            last_mag = abs(term)
            used = j
            ref = _CONVERGED_REL * max(abs(total), _TINY)
            # a Python float: a bound past binary64 is inf, with no numpy warning
            remaining = float(suffix_max[j]) if j < len(body) else 0.0
            if qa < 1.0:
                tail_bound = remaining * abs(p) * qa / (1.0 - qa)
            else:
                tail_bound = 0.0 if remaining == 0.0 else math.inf
            if tail_bound <= ref and last_mag <= ref:
                criterion = True
                break
            p *= q
    except OverflowError:  # abs of a term or sum with finite parts
        raise SeriesDiverged(
            f"transform partial sum overflows after {used} terms (|1-s| = {qa:.3g})"
        ) from None
    # a non-finite partial sum stays non-finite, so one check covers every term
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise SeriesDiverged(
            f"transform partial sum is {total} after {used} terms (|1-s| = {qa:.3g})"
        )
    tail_zero = bool(np.all(body[used:] == 0.0))
    return LaplaceEval(
        s=complex(s),
        value=total,
        terms_used=used,
        last_term_mag=last_mag,
        converged=criterion and (qa < 1.0 or tail_zero),
    )


def _cabs(z: complex) -> float:
    """|z|, inf where it is past binary64 (``abs`` raises there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _check_region(s: complex, lam: float) -> None:
    # the signals the rules are checked on are bounded, so their transforms
    # converge for |s-1| < 1; a NaN |s-1| fails the test as written
    d = _cabs(s - 1.0)
    if not d < min(1.0, abs(1.0 - lam)):
        raise RegionOfConvergence(
            f"|s-1| = {d:.4g} outside the disk of radius "
            f"min(1.0, |1-lambda| = {abs(1.0 - lam):.4g})"
        )


def _rho(s: complex, lam: float) -> complex:
    return (s - lam) / (1.0 - lam)


def check_transform_rule_gl(
    x: Signal,
    alpha: float,
    lam: float,
    s: complex,
    *,
    tol: float = 1e-7,
) -> IdentityReport:
    """Transform of the exponentially tempered single-sum operator equals
    ``((s - lambda)/(1 - lambda))^alpha`` times the transform of the signal:
    ``transform_rule_reports(x, "gl", alpha, lam, (s,), tol=tol)[0]``."""
    return transform_rule_reports(x, "gl", alpha, lam, (s,), tol=tol)[0]


def transform_rule_reports(
    x: Signal,
    kind: str,
    order: float,
    lam: float,
    s_points: Sequence[complex],
    *,
    tol: float = 1e-7,
) -> list[IdentityReport]:
    """The transform rule of one tempered operator at each of ``s_points``,
    in order: its output's transform is ``rho^order X(s)``, ``rho = (s -
    lambda)/(1 - lambda)``, less ``(1-lambda)^-1 sum_{i<n} rho^(order-i-1)
    nabla^i x(a)``, a polynomial that is empty for ``kind`` ``"gl"`` (any
    finite order) and ``"rl"`` (its initial values are empty sums), and is
    also checked in its other ordering for ``"int"``; ``"caputo"`` is the
    fourth kind.  The signal must be bounded, and every point strictly
    inside ``|s-1| < min(1, |1-lambda|)``.

    The rate is checked first, then the regions, then the order and
    history.  One weight, operator output and set of initial values serve
    every point, each point taking the output's transform before ``X(s)``.
    """
    if kind not in ("gl", "int", "rl", "caputo"):
        raise ValueError(f"kind must be 'gl', 'int', 'rl' or 'caputo', got {kind!r}")
    _check_rate(lam)
    for s in s_points:
        _check_region(s, lam)
    w = make_weight(x.grid, rate=lam)
    op = OperatorKind.INTEGER_NABLA if kind == "int" else OperatorKind(kind)
    n = _stage(op, order, x.grid, w)
    if kind == "int":
        # an int exponent: a complex power rounds differently with a float one
        order = n
    y = apply_operator(x, OperatorSpec(op, order, w))
    iv = [nabla_n_tempered_at(x, i, w, 0) for i in range(n)] if kind in ("int", "caputo") else []
    scale = 1.0 / (1.0 - lam)
    ident = "laplace-gl-rule" if kind == "gl" else f"laplace-diff-rule-{kind}"
    out = []
    for s in s_points:
        rho = _rho(s, lam)
        lhs = nlt(y, s).value
        X = nlt(x, s).value
        rhs = rho**order * X
        if iv:
            rhs -= scale * sum(rho ** (order - i - 1) * iv[i] for i in range(n))
        dev = abs(lhs - rhs)
        if kind == "int":
            rhs_a = rho**n * X - scale * sum(rho**i * iv[n - i - 1] for i in range(n))
            dev = max(abs(lhs - rhs_a), dev, abs(rhs_a - rhs))
        params = {"n": n} if kind == "int" else {"alpha": order}
        params.update({"lambda": lam, "s": [complex(s).real, complex(s).imag]})
        out.append(IdentityReport(ident, dev, x.grid.a, tol, params))
    return out


def check_tempering_shift(
    x: Signal, lam: float, s: complex, tol: float = 1e-9
) -> IdentityReport:
    """Multiplying a signal by the exponential weight shifts the transform
    argument: ``(1-lambda) X(s + lambda - lambda s)``.  The rate is checked
    before the disk."""
    _check_rate(lam)
    d = _cabs(s - 1.0)
    # a NaN |s-1| fails the test as written
    if not (d < 1.0 and d * abs(1.0 - lam) < 1.0):
        raise RegionOfConvergence("s outside the shifted convergence disk")
    w = make_weight(x.grid, rate=lam)
    weighted = Signal(x.grid, w.values * x.values)
    lhs = nlt(weighted, s).value
    s_shift = s + lam - lam * s
    rhs = (1.0 - lam) * nlt(x, s_shift).value
    return IdentityReport(
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
    return _output(x.grid.a, x.grid.horizon, causal_sum(x.body, y.body))


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
    is_int = float(order).is_integer()  # False for NaN, which fails the Caputo stage
    n = _stage(OperatorKind.INTEGER_NABLA if is_int else OperatorKind.CAPUTO, order, x.grid, w)

    def differences(v: Signal) -> tuple[list[float], list[np.ndarray]]:
        """v's tempered differences of orders 0..n-1, at the base and on the window."""
        at_base = [nabla_n_tempered_at(v, i, w, 0) for i in range(n)]
        return at_base, [v.body] + [nabla_n_tempered(v, i, w).body for i in range(1, n)]

    if is_int:
        iv_x, x_ops = differences(x)
        lhs = convolve(x, nabla_n_tempered(y, n, w)).body
        base = convolve(nabla_n_tempered(x, n, w), y).body
        iv_y, y_ops = differences(y)
        bracket = np.zeros(N)
        for i in range(n):
            bracket += iv_x[i] * y_ops[n - i - 1] - x_ops[i] * iv_y[n - i - 1]
        ident = "conv-ic-int"
        params: dict = {"n": n}
    else:
        iv_x = [nabla_n_tempered_at(x, i, w, 0) for i in range(n)]
        lhs = convolve(x, rl_tempered(y, order, w)).body
        base = convolve(caputo_tempered(x, order, w), y).body
        bracket = np.zeros(N)
        for i in range(n):
            # single-sum form of the order (alpha-i-1) difference of y; the
            # pair's other half holds its value at the base, an empty sum
            bracket += iv_x[i] * gl_tempered(y, order - i - 1.0, w).body
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

    def __post_init__(self) -> None:
        # alpha = 1 is admitted: the kernel degenerates to the lattice
        # exponential there, which doubles as a test oracle.
        if not (0.0 < self.alpha < 2.0):
            raise SeriesDiverged(
                f"kernel index alpha must lie in (0, 2), got {self.alpha}"
            )
        if self.mu == 1.0:
            raise SingularStep("kernel parameter mu = 1 is excluded")


#: Steps per block of :func:`fde_solve`.
_FDE_BLOCK = 64

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

def _ml_factors(
    i0: int, r0: int, r1: int, al: float, be: float, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """The mu-free factor table of rows ``r0 .. r1 - 1`` of block ``i0``,
    one column per row: P[m - 1, r - r0] = prod_{j=1}^{m-1} (i al + be - 1 + j)/j,
    i = i0 + r, as double-width (high, low) arrays.

    The factor product is the Gamma-ratio term of the kernel series with an
    integer lattice base, which also realizes its pole cancellations: a
    vanishing factor is exactly the zero the normalized ratio prescribes.
    Every factor is tabulated in one 2-D pass; only the cumulative product
    over m runs as a loop, one vectorised step per lattice offset.
    """
    n = r1 - r0
    # past the divergence guard the raw terms may overflow; infinities
    # propagate to the guard, which raises before the values are used
    with np.errstate(over="ignore", invalid="ignore"):
        ivec = np.arange(i0 + r0, i0 + r1, dtype=np.float64)
        zh, zl = _two_prod(ivec, al)
        zh, zl = _dd_add(zh, zl, be - 1.0, 0.0)
        # row m - 1 of the factor table is (i al + be - 1 + (m - 1)) / (m - 1)
        d = np.arange(1.0, horizon)[:, None]
        fh, fl = _dd_div_scalar(*_dd_add(zh, zl, d, 0.0), d)
        # the Dekker halves _two_prod splits its second operand into, taken
        # once for the whole table
        fhi, flo = _split(fh)
        ph = np.empty((horizon, n))
        pl = np.empty((horizon, n))
        ph[0], pl[0] = 1.0, 0.0
        split = np.full(n, _SPLIT)
        p, aa, t, ahi, alo, x, e, q = np.empty((8, n))
        mult, add, sub = np.multiply, np.add, np.subtract
        steps = zip(ph[:-1], pl[:-1], fh, fl, fhi, flo, ph[1:], pl[1:])
        for a, a_l, b, b_l, bhi, blo, s, err in steps:
            # (s, err) = special._dd_mul(a, a_l, b, b_l), written out into
            # reused buffers: the same operations in the same order
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
    return ph, pl


def _ml_powers(
    i0: int, r0: int, r1: int, mu: float, chain: tuple[list[float], list[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """mu^i for the rows ``r0 .. r1 - 1`` of block ``i0``, i = i0 + r, as
    mu^r * mu^i0, both powers from ``chain``: the scalar chain of mu^t from
    1, extended in place only as far as these rows need."""
    pw_h, pw_l = chain
    h, l = pw_h[-1], pw_l[-1]
    # the Dekker halves _two_prod splits mu into, taken once per call
    # rather than once per power
    bhi, blo = _split(mu)
    for _ in range(len(pw_h), max(i0, r1 - 1) + 1):
        # (h, l) = special._dd_mul(h, l, mu, 0.0), written out: the same
        # operations in the same order, the h * 0.0 of mu's zero low part
        # included, so each step gives _dd_mul's bits by construction
        p = h * mu
        aa = _SPLIT * h
        ahi = aa - (aa - h)
        alo = h - ahi
        q = (((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo) + h * 0.0 + l * mu
        h = p + q
        bb = h - p
        l = (p - (h - bb)) + (q - bb)
        pw_h.append(h)
        pw_l.append(l)
    muh, mul = np.array(pw_h[r0:r1]), np.array(pw_l[r0:r1])
    if i0:
        with np.errstate(over="ignore", invalid="ignore"):
            muh, mul = _dd_mul(muh, mul, pw_h[i0], pw_l[i0])
    return muh, mul


def _ml_term_block(
    i0: int,
    r1: int,
    al: float,
    be: float,
    mus: Sequence[float],
    horizon: int,
    r0: int,
    chains: list[tuple[list[float], list[float]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``r0 .. r1 - 1`` of the double-width term block of block ``i0``:
    T[r - r0, m - 1] = mu^i * prod_{j=1}^{m-1} (i al + be - 1 + j)/j, i = i0 + r,
    the factor table of :func:`_ml_factors` times the powers of
    :func:`_ml_powers`, for each mu of ``mus``: each row holds every mu's
    terms side by side, mu-major, scaled from one factor table.

    Rows never mix: each takes the same elementwise operations whatever
    range it is built in, and each mu^t comes from one scalar chain from 1,
    extended only as far as the rows built (``chains``, one per mu, carry
    them between calls).  So any split of a block into row ranges
    concatenates to the whole block, ``r0 = 0, r1 = 256``, bit for bit.
    """
    n = r1 - r0
    ph, pl = _ml_factors(i0, r0, r1, al, be, horizon)
    pows = [_ml_powers(i0, r0, r1, m, c) for m, c in zip(mus, chains)]
    # shapes (row, 1, offset) times (row, value, 1), a few rows at a time
    # to keep the temporaries small
    ph, pl = (np.ascontiguousarray(a.T)[:, None, :] for a in (ph, pl))
    muh, mul = (np.stack(a, axis=-1)[..., None] for a in zip(*pows))
    th = np.empty((n, len(mus), horizon))
    tl = np.empty((n, len(mus), horizon))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(0, n, _ML_CHUNK):
            rows = slice(c, c + _ML_CHUNK)
            th[rows], tl[rows] = _dd_mul(ph[rows], pl[rows], muh[rows], mul[rows])
    return th.reshape(n, -1), tl.reshape(n, -1)


def _int_power(mu: float, i: int) -> float:
    """mu^i for an integer i >= 0 as a numpy power: the bits of the Python
    one, inf past binary64.  From 2^53 on, where float(i) may round i to
    the other parity (and past binary64 raise), |mu|^i takes i's sign."""
    if i < 2**53:
        return float(np.float64(mu) ** i)
    p = float(np.float64(abs(mu)) ** float(min(i, 2**1023)))
    return -p if mu < 0 and i % 2 else p


def ml_function(params: MLParams, horizon: int) -> Signal:
    """Two-index kernel ``sum_i mu^i (k-a)^(i alpha + beta - 1)/Gamma(i alpha + beta)``
    on the lattice based at a = 0.

    Terms are added until one falls below 1e-15 of the partial sum twice in
    a row; a term exceeding 1e12 of the partial sum aborts the evaluation.
    The summation runs in compensated double-width arithmetic because the
    series alternates violently for negative mu at moderate horizons; a
    point whose largest term exceeds 1e17 * max(1, |F(k)|) has cancelled
    past what that arithmetic holds, and raises :class:`SeriesDiverged`.
    This is :func:`_ml_functions` on a stack of one.
    """
    return _ml_functions([params], horizon)[0]


def _ml_functions(params: Sequence[MLParams], horizon: int) -> list[Signal]:
    """:func:`ml_function` for each of ``params``, which share alpha and
    beta: the kernels of all their mu values are summed as one stack, from
    one factor table per term block.

    Every lattice point of every mu is one point of the running sum, with
    its own stop rule and guards, so each kernel is bit-identical to the
    call with that mu alone.  If the stack raises, each mu reruns alone, in
    order (:func:`batched`), so the error is the first failing mu's own; a
    stack that mixes alpha or beta returns each mu's own kernel that way.
    """
    vals = batched(lambda stack: _ml_values(stack, horizon), params)
    return [Signal(Grid(0.0, 0, horizon), v) for v in vals]


def _ml_values(params: Sequence[MLParams], horizon: int) -> np.ndarray:
    """The kernels of :func:`_ml_functions`, one row of offsets 0..horizon
    per mu; an error names a lattice offset but not its mu."""
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral):
        raise SeriesDiverged(f"kernel horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise SeriesDiverged("kernel horizon must be >= 1")
    al, be = params[0].alpha, params[0].beta
    if any((p.alpha, p.beta) != (al, be) for p in params):
        raise ValueError("a kernel stack shares one alpha and one beta")
    mus = [p.mu for p in params]
    # each mu's kernel at offsets 0..horizon
    vals = np.zeros((len(mus), horizon + 1))

    # base point: the lattice base 0 puts a pole in Gamma(0), so the one
    # term that survives is the one where Gamma(i al + be - 1) has a pole to
    # match it and Gamma(i al + be) has none: i al + be = 1 exactly, its
    # value mu^i.  i is the exact rational (1 - be)/al of the binary64
    # inputs; where that is no integer i >= 0, every term is 0 and F(0) =
    # +0.0.  Rounded arithmetic would match other i, or none.  (fractions
    # is imported here: it pulls in decimal, 3 ms of every process start.)
    from fractions import Fraction

    i = (1 - Fraction(be)) / Fraction(al)
    for j, mu in enumerate(mus):
        total = 0.0
        if i.denominator == 1 and i >= 0:
            with np.errstate(over="ignore", invalid="ignore"):
                total += _int_power(mu, int(i))
        if not math.isfinite(total):
            raise SeriesDiverged(f"kernel series overflows at the base point (mu = {mu})")
        vals[j, 0] = total

    # the lattice points 1..horizon of each mu in turn, as one running sum
    npts = len(mus) * horizon
    done = np.zeros(npts, dtype=bool)
    # each point's sum at its stop term, and whether its last term was small
    fin_h = np.zeros(npts)
    fin_l = np.zeros(npts)
    was_small = np.zeros((1, npts), dtype=bool)
    peak = np.zeros(npts)
    # every point's running sum after each term of the current chunk; the
    # last row carries the sums into the next chunk
    run_h = np.zeros((_ML_CHUNK, npts))
    run_l = np.zeros((_ML_CHUNK, npts))
    rows = np.arange(_ML_CHUNK)[:, None]
    # step t reads row t - 1, which is row -1, the carried sums, at t = 0
    hs, ls = list(run_h), list(run_l)
    steps = list(zip(hs[-1:] + hs[:-1], ls[-1:] + ls[:-1], hs, ls))
    s, bb, v, w, e = np.empty((5, npts))
    add, sub = np.add, np.subtract
    # mu^t for each mu, shared by every block's rows
    chains = [([1.0], [0.0]) for _ in mus]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, _ML_MAX_TERMS, _ML_CHUNK):
            t0 = i % _ML_BLOCK
            if t0 == 0 or t0 == _ML_FIRST_ROWS:
                r1 = _ML_FIRST_ROWS if t0 == 0 else _ML_BLOCK
                th, tl = _ml_term_block(i - t0, r1, al, be, mus, horizon, t0, chains)
                r0 = t0
            ch = th[t0 - r0 : t0 - r0 + _ML_CHUNK]
            cl = tl[t0 - r0 : t0 - r0 + _ML_CHUNK]
            for (xh, xl, sh, sl), yh, yl in zip(steps, ch, cl):
                # (sh, sl) = special._dd_add(xh, xl, yh, yl), written out into
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
                    f"kernel series diverging at lattice offset {idx[worst] % horizon + 1}"
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
    vals[:, 1:] = (fin_h + fin_l).reshape(len(mus), horizon)
    lost = peak > _ML_CANCEL_MAX * np.maximum(1.0, np.abs(vals[:, 1:].ravel()))
    if lost.any():
        m = int(np.argmax(lost))
        raise SeriesDiverged(
            f"kernel series cancels terms up to {peak[m]:.3g} at lattice offset "
            f"{m % horizon + 1}, beyond the {_ML_CANCEL_MAX:.0e} the compensated sum holds"
        )
    return vals


def fde_solve(
    alpha: float, mu: float, w: Weight, x_a: float, N: int
) -> Signal:
    """Solve the tempered relaxation equation on the horizon ``1 .. N``.

    Solves "sum-of-difference operator of order alpha applied to x equals
    mu times x" with x given at the base point: with z = w*x and
    u(m) = z(m) - z(a), the single-sum form of the operator is the
    lower-triangular Toeplitz system
    ``(1 - mu) u(m) + sum_{i=1}^{m-1} c_i(alpha) u(m-i) = mu z(a)``,
    m = 1..N; then z = z(a) + u and x = z / w, with x(a) returned as
    ``w(a) x(a) / w(a)``.  The weighted solution satisfies
    ``w(k) x(k) = F(mu, k, a) w(a) x(a)`` with the Mittag-Leffler kernel F.

    The system is solved in blocks of ``_FDE_BLOCK`` steps from m0 = 1.
    Once per solve, h, the first column of one block's inverse:
    ``h[t] = -(sum_{s=1}^{t} c_s h[t-s]) / (1 - mu)`` from
    ``h[0] = 1 / (1 - mu)``, each sum on :func:`~nablatc.operators.causal_dot`'s
    route.  Per block, two einsums in the call shape of ``causal_sum``'s
    tiles, each output from 0.0 in ascending lag, a product and a sum
    rounded apiece: the history ``r(t) = mu z(a) - sum_{j=1}^{m0-1}
    c[j+t] u(m0-j)`` over a strided view of ``c``, then the block
    ``u(m0+t) = sum_{s<=t} r(s) h[t-s]`` over a strided view of h behind
    zeros.  The output has the bits of those scalar loops, not of stepping
    each z(m) in ascending lag.  Where the einsum fuses multiply-add (the
    import-time probe of ``causal_sum``), each history output is one
    ``causal_dot``-route call and each block a per-lag loop, with the same
    bits; so is a block whose r holds a non-finite entry, which no padding
    zero may meet.  For x(a) = +-0.0 every later z(k) is +0.0.

    For mu < 1 no sum cancels: c_i < 0 for i >= 1, h >= 0, and r keeps the
    sign of mu z(a).  Against a 40-digit solution of the same system at
    N = 300, alpha from 0.01 to 0.99 and mu from -0.9 to 2, the error of
    z(m) stayed within 0.83 m u max(|z(m)|, |z(a)|), u = 2^-53 (the tests
    hold it to 2).
    """
    if not (0.0 < alpha < 1.0):
        raise SeriesDiverged(f"solver order must lie in (0, 1), got {alpha}")
    if not (math.isfinite(mu) and math.isfinite(x_a)):
        raise NonFiniteSample(f"solver needs a finite mu and x(a), got mu = {mu}, x(a) = {x_a}")
    if abs(1.0 - mu) < 1e-12:
        raise SingularStep(f"per-step coefficient 1 - mu vanishes (mu = {mu})")
    if isinstance(N, bool) or not isinstance(N, numbers.Integral):
        raise GridMismatch(f"solver horizon must be an integer, got {N!r}")
    grid = Grid(w.grid.a, 0, N)
    if w.grid.horizon < N:
        raise GridMismatch(f"weight horizon {w.grid.horizon} < requested {N}")
    c = gl_coefficients(alpha, N).coeffs
    # the scalars are Python floats: the same binary64 operations as
    # numpy's scalars, without their dispatch
    z0 = float(w.at(0) * x_a)
    one_minus_mu = 1.0 - float(mu)
    B = min(_FDE_BLOCK, N)
    step = c.itemsize
    # h behind B - 1 zeros, so that H[s, t] = h[t - s] is a view: zero
    # where s > t
    hp = np.zeros(2 * B - 1)
    h = hp[B - 1 :]
    H = np.ndarray(
        (B, B), np.float64, buffer=hp, offset=(B - 1) * step, strides=(-step, step)
    )
    dot = _in_order_dot()
    fuses = operators._EINSUM_FUSES
    u = np.zeros(N + 1)
    r = np.empty(B)
    # an overflowing step makes a non-finite sample, which Signal rejects
    with np.errstate(over="ignore", invalid="ignore"):
        h[0] = 1.0 / one_minus_mu
        for t in range(1, B):
            h[t] = -float(dot(c[1 : t + 1], h[t - 1 :: -1])) / one_minus_mu
        mz0 = float(mu) * z0
        for m0 in range(1, N + 1, B):
            L = min(B, N + 1 - m0)
            rb, ub = r[:L], u[m0 : m0 + L]
            past = u[m0 - 1 : 0 : -1]  # u(m0 - j), j = 1..m0-1
            if fuses:
                for t in range(L):
                    rb[t] = dot(c[t + 1 : t + m0], past)
            else:
                # C[j - 1, t] = c[j + t]
                C = np.ndarray(
                    (1, m0 - 1, L), np.float64, buffer=c, offset=step, strides=(step,) * 3
                )
                _lag_einsum(past[None], C, rb[None])
            np.subtract(mz0, rb, out=rb)
            if fuses or not np.isfinite(rb).all():
                for s in range(L):
                    ub[s:] += rb[s] * h[: L - s]
            else:
                _lag_einsum(rb[None], H[None, :L, :L], ub[None])
        z = z0 + u
        z[0] = z0
        x_vals = z / w.window(0, N)
    return Signal(grid, x_vals)
