"""Gamma-ratio kernel.

Every discrete fractional operator in this library is built from ratios of
Gamma functions: rising functions ``p^(q) = Gamma(p+q)/Gamma(p)``, normalized
ratios ``p^(q)/Gamma(d)``, and the binomial-type coefficient sequences of
fractional differencing.  The functions here evaluate those ratios in
binary64 without ever forming Gamma at a pole: poles are cancelled
algebraically (via the residue/reflection rules), never by dividing
infinities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NablaError, batched

__all__ = [
    "DomainError",
    "GLCoefficientSeq",
    "rising_over_gamma",
    "rising_over_gamma_row",
    "rising_over_gamma_rows",
    "rising_over_factorial_row",
    "gl_coefficients",
    "binomial_coefficients",
]


class DomainError(NablaError):
    """Pole configuration that no normalization rule resolves."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _signed_loggamma(x: float) -> tuple[float, float]:
    """Return (log|Gamma(x)|, sign of Gamma(x)).

    ``x`` must not be a nonpositive integer.  Gamma alternates sign between
    consecutive negative integers, so the sign is (-1)**floor(x) for x < 0.
    """
    if x > 0.0:
        return math.lgamma(x), 1.0
    sign = -1.0 if int(math.floor(x)) % 2 else 1.0
    return math.lgamma(x), sign


def _exp(t: float | list[float]) -> float | np.ndarray:
    """``math.exp`` of a float, or of each float of a list into an array;
    a result past binary64 raises :class:`DomainError`, not ``OverflowError``."""
    try:
        if type(t) is list:
            return np.fromiter(map(math.exp, t), np.float64, len(t))
        return math.exp(t)
    except OverflowError:
        raise DomainError("a Gamma ratio overflows binary64 (math.exp range)") from None


def _matched_pole_ratio(m_num: int, m_den: int) -> float:
    # Gamma(-m_num + t)/Gamma(-m_den + t) as t -> 0 with both arguments
    # shifted by the same t (the situation for co-moving lattice arguments):
    # ratio of residues, (-1)^(m_num - m_den) * m_den!/m_num!.
    sign = -1.0 if (m_num - m_den) % 2 else 1.0
    return sign * _exp(math.lgamma(m_den + 1.0) - math.lgamma(m_num + 1.0))


def _gamma_ratio3(num: float, den1: float, den2: float) -> float:
    """Gamma(num) / (Gamma(den1) * Gamma(den2)) with pole cancellation."""
    num_pole = _is_nonpositive_integer(num)
    d1_pole = _is_nonpositive_integer(den1)
    d2_pole = _is_nonpositive_integer(den2)
    n_den_poles = int(d1_pole) + int(d2_pole)

    if not num_pole:
        if n_den_poles:
            # 1/Gamma vanishes at a pole and nothing cancels it.
            return 0.0
        ln, sn = _signed_loggamma(num)
        l1, s1 = _signed_loggamma(den1)
        l2, s2 = _signed_loggamma(den2)
        return sn * s1 * s2 * _exp(ln - l1 - l2)

    if n_den_poles == 0:
        raise DomainError(
            f"Gamma({num}) is a pole and neither Gamma({den1}) nor "
            f"Gamma({den2}) cancels it"
        )
    if n_den_poles == 2:
        # One numerator pole against two denominator poles still vanishes.
        return 0.0

    m_num = int(-num)
    if d1_pole:
        m_den, other = int(-den1), den2
    else:
        m_den, other = int(-den2), den1
    lo, so = _signed_loggamma(other)
    return _matched_pole_ratio(m_num, m_den) * so * _exp(-lo)


def _check_resolved(q: float, d: float) -> None:
    # from 2**53 on, m + q rounds the unit shift m away, and every base of
    # a row would give 1/Gamma(d); a NaN fails the comparison too
    if not (abs(q) < 2.0**53 and abs(d) < 2.0**53):
        raise DomainError(
            f"Gamma-ratio arguments q = {q!r}, d = {d!r} are NaN or past 2**53 "
            "in magnitude, where binary64 no longer resolves unit shifts"
        )


def rising_over_gamma(p: int, q: float, denom: float) -> float:
    """Normalized ratio ``p^(q) / Gamma(denom)`` with pole cancellation.

    The base may be any integer (including 0 and negatives): a Gamma pole in
    the base's Gamma or in ``Gamma(denom)`` cancels against a pole of
    ``Gamma(p+q)`` under the equal-shift rule, and annihilates the value
    otherwise.  In particular ``0^(q)/Gamma(d)`` is 0 whenever ``Gamma(q)``
    is finite, which is the vanishing rule the boundary terms of the
    operator identities rely on.

    Raises:
        DomainError: when the base is not an integer below 2**53 in
            magnitude (NaN and infinities included), when the numerator
            sits at an unresolvable pole, when ``q`` or ``denom`` is NaN or
            2**53 or more in magnitude (or infinite), or when the ratio
            overflows binary64.
    """
    # a NaN fails the comparison; a Python int past binary64 compares exactly
    if not (abs(p) < 2.0**53 and float(p).is_integer()):
        raise DomainError(f"rising function base must be an integer below 2**53, got {p}")
    _check_resolved(q, denom)
    return _gamma_ratio3(int(p) + q, float(int(p)), denom)


#: Points of :func:`rising_over_gamma_rows` evaluated per pass: each pass
#: holds this many Python floats at once, however long the batch.
_ROW_CHUNK = 4096


def rising_over_gamma_rows(
    q: Sequence[float], d: Sequence[float], lengths: Sequence[int]
) -> list[np.ndarray]:
    """``[rising_over_gamma_row(q[r], d[r], lengths[r]) for each row r]``,
    evaluated as one batch.

    Each point takes the same sign-tracked log-Gamma terms as
    :func:`rising_over_gamma`: ``exp((lgamma(m+q) - lgamma(m)) - lgamma(d))``
    through ``math.exp``/``math.lgamma``, signed by the parity of
    ``floor(m+q)`` and of ``floor(d)``, so every row is bit-identical to
    the per-point values (``lgamma(m)`` is taken once per batch, from the
    same ``math.lgamma``).  The points of all rows run together, in passes
    of ``_ROW_CHUNK`` points.  A row holding a pole (some ``m+q`` or ``d`` a
    nonpositive integer) takes the per-point path and its cancellation
    rules.  A NaN ``q`` or ``d``, ``|q|`` or ``|d|`` of 2**53 or more, or a
    value past binary64, raises :class:`DomainError`, as the per-point
    function does; a failed batch reruns row by row (:func:`batched`), so
    the error is the first failing row's own.
    """
    return batched(_gamma_ratio_rows, list(zip(q, d, lengths)))


def _gamma_ratio_rows(rows: Sequence[tuple[float, float, int]]) -> list[np.ndarray]:
    for qr, dr, _ in rows:
        _check_resolved(qr, dr)
    n = [int(nr) for _, _, nr in rows]
    out = np.empty(sum(n))
    starts = [0, *itertools.accumulate(n)][:-1]
    # the rows without a pole, evaluated together below: where each starts
    # in ``out``, its q, lgamma(d), the sign of Gamma(d) and its length
    regular = []
    for (qr, dr, _), s, nr in zip(rows, starts, n):
        # m + q (m >= 1) reaches a nonpositive integer only for q <= -1
        if _is_nonpositive_integer(dr) or (qr <= -1.0 and _holds_pole(qr, nr)):
            out[s : s + nr] = [rising_over_gamma(m, qr, dr) for m in range(1, nr + 1)]
        else:
            regular.append((s, qr, *_signed_loggamma(dr), nr))
    at, qs, l2, s2, lens = np.array(regular, dtype=np.float64).reshape(-1, 5).T
    at, lens = at.astype(np.intp), lens.astype(np.intp)
    top = int(lens.max(initial=0))
    l1 = np.fromiter(map(math.lgamma, range(1, top + 1)), np.float64, top)
    ends = lens.cumsum()
    begins = ends - lens
    total = int(ends[-1]) if len(ends) else 0
    for c in range(0, total, _ROW_CHUNK):
        i = np.arange(c, min(c + _ROW_CHUNK, total))
        r = ends.searchsorted(i, side="right")  # the row of each point
        k = i - begins[r]  # its m - 1
        num = (k + 1) + qs[r]
        sign = np.where((num < 0.0) & (np.floor(num) % 2 == 1), -s2[r], s2[r])
        ln = np.fromiter(map(math.lgamma, num.tolist()), np.float64, len(num))
        out[at[r] + k] = sign * _exp(((ln - l1[k]) - l2[r]).tolist())
    return [out[s : s + nr] for s, nr in zip(starts, n)]


def _holds_pole(q: float, N: int) -> bool:
    """Whether some m + q, m = 1..N, is a nonpositive integer."""
    num = np.arange(1, N + 1) + q
    return bool(((num <= 0.0) & (num == np.floor(num))).any())


def rising_over_gamma_row(q: float, d: float, N: int) -> np.ndarray:
    """``[rising_over_gamma(m, q, d) for m = 1..N]``: :func:`rising_over_gamma_rows`
    on a batch of one row."""
    return rising_over_gamma_rows([q], [d], [N])[0]


def rising_over_factorial_row(i: int, N: int) -> np.ndarray:
    """``m^(i)/i! = C(m+i-1, i)`` for m = 1..N (integer i >= 0), exact
    integer binomials rounded once to binary64 (:class:`DomainError` past it).

    The binomials come from the exact integer recurrence
    ``C(m+i, i) = C(m+i-1, i) (m+i) / m`` from ``C(i, i) = 1``, each point
    converted to binary64 once: the bits of ``math.comb`` per point."""
    exact = [1] * N
    for m in range(1, N):
        exact[m] = exact[m - 1] * (m + i) // m
    try:
        return np.fromiter(map(float, exact), np.float64, N)
    except OverflowError:
        raise DomainError(f"binomial C({N + i - 1}, {i}) overflows binary64") from None


@dataclass(frozen=True)
class GLCoefficientSeq:
    """Coefficient sequence ``c_i = (-1)^i binom(order, i)`` of fractional differencing.

    Satisfies ``c_0 = 1`` and ``c_i = c_{i-1} (i - 1 - order)/i``.  For
    order in (0, 1) every ``c_i`` with i >= 1 is negative; for order in
    (-1, 0) they are all positive.  Built for a vector of orders,
    ``coeffs`` holds one row per order.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs.setflags(write=False)

    @property
    def length(self) -> int:
        """Terms per sequence."""
        return self.coeffs.shape[-1]


def gl_coefficients(order: float | Sequence[float], length: int) -> GLCoefficientSeq:
    """Generate fractional differencing weights by the multiplicative recurrence.

    The recurrence is O(1) per term and never touches a Gamma pole, unlike
    the closed-form Gamma ratio it equals.  At large orders or lengths the
    weights may overflow to infinities, without a numpy warning; callers
    reject the non-finite result.

    ``order`` may be a 1-D sequence of orders: the result then holds one
    row per order, each row bit-identical to the call with that order alone
    (the same elementwise ratios, accumulated left to right along the row).
    """
    if length < 0:
        raise DomainError(f"coefficient sequence length must be >= 0, got {length}")
    # the scalar test first: np.ndim alone costs more than the short
    # sequences most callers ask for
    rows = not isinstance(order, (int, float)) and np.ndim(order) == 1
    ratio_order = np.asarray(order, dtype=np.float64)[:, None] if rows else order
    c = np.empty((len(order), length) if rows else (length,), dtype=np.float64)
    if length:
        c[..., 0] = 1.0
        i = np.arange(1.0, length)
        c[..., 1:] = (i - 1.0 - ratio_order) / i
        # multiply.accumulate runs strictly left to right along each row:
        # c_i = c_{i-1} * ratio_i
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(c, axis=-1, out=c)
    return GLCoefficientSeq(coeffs=c)


def binomial_coefficients(order: float, length: int) -> np.ndarray:
    """Plain binomials ``binom(order, i)``, i = 0..length-1: the differencing
    weights with their ``(-1)^i`` sign removed (an exact sign flip)."""
    signs = np.where(np.arange(length) % 2, -1.0, 1.0)
    return gl_coefficients(order, length).coeffs * signs


# ---------------------------------------------------------------------------
# Compensated double-width arithmetic (arrays of value/error pairs).  The
# Mittag-Leffler kernel series alternates through terms many orders of
# magnitude above its O(1) sum, so plain binary64 loses the answer; error-free
# transforms keep ~1e-31 of the largest term through products and sums.
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _split(a):
    """Dekker's split of ``a``: ``hi + lo == a`` exactly, each half of at most
    26 significant bits, so ``hi * hi`` is exact.  Past |a| ~ 1.339e300,
    ``_SPLIT * a`` overflows and both halves are NaN."""
    aa = _SPLIT * a
    hi = aa - (aa - a)
    return hi, a - hi


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
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
