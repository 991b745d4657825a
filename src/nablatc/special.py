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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NablaError

__all__ = [
    "PoleError",
    "DomainError",
    "GLCoefficientSeq",
    "rising",
    "rising_over_gamma",
    "rising_over_gamma_row",
    "rising_over_factorial_row",
    "gl_coefficients",
    "binomial_coefficients",
]


class PoleError(NablaError):
    """Gamma pole in the numerator with no denominator pole to cancel it."""


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


def _matched_pole_ratio(m_num: int, m_den: int) -> float:
    # Gamma(-m_num + t)/Gamma(-m_den + t) as t -> 0 with both arguments
    # shifted by the same t (the situation for co-moving lattice arguments):
    # ratio of residues, (-1)^(m_num - m_den) * m_den!/m_num!.
    sign = -1.0 if (m_num - m_den) % 2 else 1.0
    return sign * math.exp(math.lgamma(m_den + 1.0) - math.lgamma(m_num + 1.0))


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
        return sn * s1 * s2 * math.exp(ln - l1 - l2)

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
    return _matched_pole_ratio(m_num, m_den) * so * math.exp(-lo)


def _check_resolved(q: float, d: float) -> None:
    # from 2**53 on, m + q rounds the unit shift m away, and every base of
    # a row would give 1/Gamma(d)
    if abs(q) >= 2.0**53 or abs(d) >= 2.0**53:
        raise DomainError(
            f"Gamma-ratio arguments q = {q!r}, d = {d!r} are past 2**53 in "
            "magnitude, where binary64 no longer resolves unit shifts"
        )


def rising(p: int, q: float) -> float:
    """Rising function ``p^(q) = Gamma(p+q)/Gamma(p)`` for integer p >= 1.

    Integer exponents take an exact product path (so small integer cases are
    exact in binary64); otherwise the value comes from sign-tracked
    log-Gamma.

    Raises:
        PoleError: if ``p + q`` is a nonpositive integer, where Gamma is
            undefined.  Callers that need the normalized, analytically
            continued ratio must use :func:`rising_over_gamma`.
    """
    if p < 1 or p != int(p):
        raise DomainError(f"rising function base must be a positive integer, got {p}")
    p = int(p)
    if q == math.floor(q):
        qi = int(q)
        if p + qi <= 0:
            raise PoleError(f"Gamma({p + qi}) undefined: {p}^({q}) has no finite value")
        if qi >= 0:
            out = 1.0
            for j in range(p, p + qi):
                out *= j
            return out
        out = 1.0
        for j in range(p + qi, p):
            out *= j
        return 1.0 / out
    ln, sn = _signed_loggamma(p + q)
    return sn * math.exp(ln - math.lgamma(p))


def rising_over_gamma(p: int, q: float, denom: float) -> float:
    """Normalized ratio ``p^(q) / Gamma(denom)`` with pole cancellation.

    The base may be any integer (including 0 and negatives): a Gamma pole in
    the base's Gamma or in ``Gamma(denom)`` cancels against a pole of
    ``Gamma(p+q)`` under the equal-shift rule, and annihilates the value
    otherwise.  In particular ``0^(q)/Gamma(d)`` is 0 whenever ``Gamma(q)``
    is finite, which is the vanishing rule the boundary terms of the
    operator identities rely on.

    Raises:
        DomainError: when the numerator sits at an unresolvable pole, or
            when ``|q|`` or ``|denom|`` is 2**53 or more (or infinite).
    """
    if p != int(p):
        raise DomainError(f"rising function base must be an integer, got {p}")
    _check_resolved(q, denom)
    return _gamma_ratio3(int(p) + q, float(int(p)), denom)


def rising_over_gamma_row(q: float, d: float, N: int) -> np.ndarray:
    """``[rising_over_gamma(m, q, d) for m = 1..N]``, evaluated one row at a
    time.

    Each point takes the same sign-tracked log-Gamma terms as
    :func:`rising_over_gamma`: ``exp((lgamma(m+q) - lgamma(m)) - lgamma(d))``
    through ``math.exp``/``math.lgamma``, signed by the parity of
    ``floor(m+q)`` and of ``floor(d)``, so the row is bit-identical to the
    per-point values.  A row holding a pole (some ``m+q`` or ``d`` a
    nonpositive integer) or a NaN argument takes the per-point path and its
    cancellation rules; ``|q|`` or ``|d|`` of 2**53 or more raises
    :class:`DomainError`, as the per-point function does.
    """
    _check_resolved(q, d)
    num = np.arange(1, N + 1) + q
    if (
        not (math.isfinite(q) and math.isfinite(d))
        or _is_nonpositive_integer(d)
        or ((num <= 0.0) & (num == np.floor(num))).any()
    ):
        return np.array([rising_over_gamma(m, q, d) for m in range(1, N + 1)])
    n = len(num)
    ln = np.fromiter(map(math.lgamma, num.tolist()), np.float64, n)
    l1 = np.fromiter(map(math.lgamma, range(1, N + 1)), np.float64, n)
    l2, s2 = _signed_loggamma(d)
    sign = np.where((num < 0.0) & (np.floor(num) % 2 == 1), -s2, s2)
    return sign * np.fromiter(map(math.exp, ((ln - l1) - l2).tolist()), np.float64, n)


def rising_over_factorial_row(i: int, N: int) -> np.ndarray:
    """``m^(i)/i! = C(m+i-1, i)`` for m = 1..N (integer i >= 0), exact
    integer binomials rounded once to binary64."""
    return np.array([float(math.comb(m + i - 1, i)) for m in range(1, N + 1)])


@dataclass(frozen=True)
class GLCoefficientSeq:
    """Coefficient sequence ``c_i = (-1)^i binom(order, i)`` of fractional differencing.

    Satisfies ``c_0 = 1`` and ``c_i = c_{i-1} (i - 1 - order)/i``.  For
    order in (0, 1) every ``c_i`` with i >= 1 is negative; for order in
    (-1, 0) they are all positive.  Built for a vector of orders, ``order``
    is a tuple and ``coeffs`` holds one row per order.
    """

    order: float | tuple[float, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs.setflags(write=False)

    @property
    def length(self) -> int:
        """Terms per sequence."""
        return self.coeffs.shape[-1]


#: Orders and lengths inside which the coefficients cannot overflow:
#: |c_i| <= Gamma(i + |order|) / (Gamma(|order|) i!), below 1e227 there.
_BOUNDED_ORDER = 40.0
_BOUNDED_LENGTH = 10**7


def gl_coefficients(order: float | Sequence[float], length: int) -> GLCoefficientSeq:
    """Generate fractional differencing weights by the multiplicative recurrence.

    The recurrence is O(1) per term and never touches a Gamma pole, unlike
    the closed-form Gamma ratio it equals.  Past ``|order| = 40`` (or ten
    million terms) the weights may overflow to infinities, without a numpy
    warning; callers reject the non-finite result.

    ``order`` may be a 1-D sequence of orders: the result then holds one
    row per order, each row bit-identical to the call with that order alone
    (the same elementwise ratios, accumulated left to right along the row).
    """
    if length < 0:
        raise DomainError(f"coefficient sequence length must be >= 0, got {length}")
    # the scalar test first: np.ndim alone costs more than the short
    # sequences most callers ask for
    rows = not isinstance(order, (int, float)) and np.ndim(order) == 1
    if rows:
        orders = np.asarray(order, dtype=np.float64)
        ratio_order = orders[:, None]
        top = float(np.abs(orders).max(initial=0.0))
        shape = (len(orders), length)
    else:
        ratio_order = order
        top = abs(order)
        shape = (length,)
    c = np.empty(shape, dtype=np.float64)
    if length:
        c[..., 0] = 1.0
        i = np.arange(1.0, length)
        c[..., 1:] = (i - 1.0 - ratio_order) / i
        # multiply.accumulate runs strictly left to right along each row:
        # c_i = c_{i-1} * ratio_i
        if top <= _BOUNDED_ORDER and length <= _BOUNDED_LENGTH:
            np.multiply.accumulate(c, axis=-1, out=c)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply.accumulate(c, axis=-1, out=c)
    if rows:
        return GLCoefficientSeq(order=tuple(orders.tolist()), coeffs=c)
    return GLCoefficientSeq(order=float(order), coeffs=c)


def binomial_coefficients(order: float, length: int) -> np.ndarray:
    """Plain binomials ``binom(order, i)``, i = 0..length-1: the differencing
    weights with their ``(-1)^i`` sign removed (an exact sign flip)."""
    signs = np.where(np.arange(length) % 2, -1.0, 1.0)
    return gl_coefficients(order, length).coeffs * signs
