import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablatc.special import (
    DomainError,
    PoleError,
    gl_coefficients,
    rising,
    rising_over_gamma,
    rising_over_gamma_row,
)

from _oracles import gl_coeff_ref, rising_ref

REL = 1e-12


def test_rising_integer_cases_exact():
    assert rising(3, 0) == 1.0
    assert rising(1, 2) == 2.0
    assert rising(5, 3) == 5 * 6 * 7
    assert rising(4, -2) == 1.0 / (2 * 3)


def test_rising_half_order():
    # Gamma(2.5)/Gamma(3), frozen from the 50-digit oracle.
    assert rising(3, -0.5) == pytest.approx(0.6646701940895685, rel=REL)
    assert rising(3, -0.5) == pytest.approx(rising_ref(3, -0.5), rel=REL)


def test_rising_pole_rejected():
    with pytest.raises(PoleError):
        rising(2, -5)
    with pytest.raises(DomainError):
        rising(0, 0.5)


def test_rising_over_gamma_matched_ratio():
    # Gamma(-0.5) / (Gamma(1) Gamma(-0.5)) is a matched ratio, exactly 1.
    assert rising_over_gamma(1, -1.5, -0.5) == pytest.approx(1.0, rel=REL)


def test_rising_over_gamma_gl_coefficient():
    # The i=2 differencing weight at order 0.5 equals alpha(alpha-1)/2!.
    assert rising_over_gamma(3, -1.5, -0.5) == pytest.approx(-0.125, rel=REL)


def test_rising_over_gamma_vanishing_rule():
    # 0^(0.5)/Gamma(1.5) = 0: the Gamma pole in the base annihilates it.
    assert rising_over_gamma(0, 0.5, 1.5) == 0.0


def test_rising_over_gamma_unresolvable_pole():
    with pytest.raises(DomainError):
        rising_over_gamma(2, -4.0, 0.5)


@pytest.mark.parametrize(
    "q, d",
    [
        (2.0**53, 1.5),
        (-(2.0**53), 0.5),
        (0.5, 2.0**53),
        (-1e300, 1.0 - 1e300),
        (math.inf, 1.0),
        (0.5, -math.inf),
    ],
)
def test_gamma_ratio_past_unit_resolution_is_domain_error(q, d):
    # from 2**53 on, m + q rounds the shift m away: every base of a row
    # would give the same value
    with pytest.raises(DomainError, match=r"2\*\*53"):
        rising_over_gamma(1, q, d)
    with pytest.raises(DomainError, match=r"2\*\*53"):
        rising_over_gamma_row(q, d, 4)


def test_gamma_ratio_just_below_unit_resolution_still_evaluates():
    q = 2.0**53 - 2.0
    row = rising_over_gamma_row(q, q + 1.0, 3)
    assert row.tolist() == [rising_over_gamma(m, q, q + 1.0) for m in (1, 2, 3)]
    assert row[0] == 1.0


@given(st.integers(min_value=0, max_value=12), st.floats(min_value=0.01, max_value=6.0))
def test_vanishing_rule_all_base_zero(i, frac):
    # 0^(i - alpha)/Gamma(i - alpha + 1) = 0 for any non-integer exponent.
    alpha = i + frac if frac != math.floor(frac) else i + 0.5
    q = i - alpha
    assert rising_over_gamma(0, q, q + 1.0) == 0.0


@settings(max_examples=200)
@given(st.floats(min_value=-3.99, max_value=0.99))
def test_reflection_consistency(theta):
    # Gamma(theta)/Gamma(1-theta) both directly and via the reflection
    # identity Gamma(theta)Gamma(1-theta) = pi/sin(pi theta).
    if abs(theta - round(theta)) < 1e-3:
        return
    direct = rising_over_gamma(1, theta - 1.0, 1.0 - theta)
    g1mt = math.gamma(1.0 - theta)
    reflected = math.pi / (math.sin(math.pi * theta) * g1mt * g1mt)
    assert direct == pytest.approx(reflected, rel=1e-11)


def test_gl_coefficients_integer_orders():
    np.testing.assert_array_equal(gl_coefficients(1.0, 3).coeffs, [1.0, -1.0, 0.0])
    np.testing.assert_array_equal(gl_coefficients(0.0, 4).coeffs, [1.0, 0.0, 0.0, 0.0])


def test_gl_coefficients_half_orders():
    np.testing.assert_allclose(
        gl_coefficients(0.5, 4).coeffs, [1.0, -0.5, -0.125, -0.0625], rtol=REL
    )
    np.testing.assert_allclose(
        gl_coefficients(-0.5, 3).coeffs, [1.0, 0.5, 0.375], rtol=REL
    )


@settings(max_examples=150)
@given(st.floats(min_value=-1.99, max_value=1.99))
def test_gl_coefficients_match_gamma_oracle(alpha):
    if abs(alpha - round(alpha)) < 1e-6:
        return
    coeffs = gl_coefficients(alpha, 65).coeffs
    for i in (0, 1, 2, 7, 31, 64):
        ref = gl_coeff_ref(alpha, i)
        assert coeffs[i] == pytest.approx(ref, rel=1e-12, abs=1e-300)


@settings(max_examples=100)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_gl_coefficients_sign_pattern_difference(alpha):
    coeffs = gl_coefficients(alpha, 40).coeffs
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] < 0.0)


@settings(max_examples=100)
@given(st.floats(min_value=-0.99, max_value=-0.01))
def test_gl_coefficients_sign_pattern_sum(alpha):
    coeffs = gl_coefficients(alpha, 40).coeffs
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] > 0.0)


def test_gl_coefficients_immutable():
    c = gl_coefficients(0.5, 4)
    with pytest.raises(ValueError):
        c.coeffs[0] = 2.0


@pytest.mark.parametrize(
    "order, length", [(1e300, 300), (-1e300, 300), (41.0, 300), (-1e20, 300), (1100.0, 1200)]
)
def test_gl_coefficients_past_the_bounded_orders_warn_nothing(order, length):
    # past |order| = 40 the weights may overflow, silently; at an integer
    # order past the overflow, inf times the zero ratio is NaN, also silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = gl_coefficients(order, length).coeffs
    assert c[0] == 1.0
    assert c[1] == -order
    if abs(order) > 1e100:
        assert not np.isfinite(c[2:]).any()
    if order == 1100.0:
        assert np.isnan(c[1101:]).all()


def test_gl_coefficients_bounded_orders_stay_finite():
    # the bound behind the unguarded path: |order| = 40 over 10^5 terms
    for order in (40.0, -40.0, 39.5):
        assert np.isfinite(gl_coefficients(order, 10**5).coeffs).all()
