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
        DomainError: when the numerator sits at an unresolvable pole.
    """
    if p != int(p):
        raise DomainError(f"rising function base must be an integer, got {p}")
    return _gamma_ratio3(int(p) + q, float(int(p)), denom)


def rising_over_gamma_row(q: float, d: float, N: int) -> np.ndarray:
    """``[rising_over_gamma(m, q, d) for m = 1..N]``, one Gamma-ratio
    evaluation per point."""
    return np.array([rising_over_gamma(m, q, d) for m in range(1, N + 1)])


def rising_over_factorial_row(i: int, N: int) -> np.ndarray:
    """``m^(i)/i! = C(m+i-1, i)`` for m = 1..N (integer i >= 0), exact
    integer binomials rounded once to binary64."""
    return np.array([float(math.comb(m + i - 1, i)) for m in range(1, N + 1)])


@dataclass(frozen=True)
class GLCoefficientSeq:
    """Coefficient sequence ``c_i = (-1)^i binom(order, i)`` of fractional differencing.

    Satisfies ``c_0 = 1`` and ``c_i = c_{i-1} (i - 1 - order)/i``.  For
    order in (0, 1) every ``c_i`` with i >= 1 is negative; for order in
    (-1, 0) they are all positive.
    """

    order: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs.setflags(write=False)

    @property
    def length(self) -> int:
        return len(self.coeffs)


def gl_coefficients(order: float, length: int) -> GLCoefficientSeq:
    """Generate fractional differencing weights by the multiplicative recurrence.

    The recurrence is O(1) per term and never touches a Gamma pole, unlike
    the closed-form Gamma ratio it equals.
    """
    if length < 0:
        raise DomainError(f"coefficient sequence length must be >= 0, got {length}")
    c = np.empty(length, dtype=np.float64)
    if length:
        c[0] = 1.0
        i = np.arange(1.0, length)
        c[1:] = (i - 1.0 - order) / i
        # multiply.accumulate runs strictly left to right: c_i = c_{i-1} * ratio_i
        np.multiply.accumulate(c, out=c)
    return GLCoefficientSeq(order=float(order), coeffs=c)


def binomial_coefficients(order: float, length: int) -> np.ndarray:
    """Plain binomials ``binom(order, i)``, i = 0..length-1: the differencing
    weights with their ``(-1)^i`` sign removed (an exact sign flip)."""
    signs = np.where(np.arange(length) % 2, -1.0, 1.0)
    return gl_coefficients(order, length).coeffs * signs
