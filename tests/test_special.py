import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablatc import special
from nablatc.special import (
    DomainError,
    gl_coefficients,
    rising_over_gamma,
    rising_over_gamma_row,
    rising_over_gamma_rows,
)

from _oracles import gl_coeff_ref, rising_ref

REL = 1e-12


def test_rising_half_order():
    # Gamma(2.5)/Gamma(3), frozen from the 50-digit oracle.
    assert rising_over_gamma(3, -0.5, 1.0) == pytest.approx(0.6646701940895685, rel=REL)
    assert rising_over_gamma(3, -0.5, 1.0) == pytest.approx(rising_ref(3, -0.5), rel=REL)


def test_rising_over_gamma_matched_ratio():
    # Gamma(-0.5) / (Gamma(1) Gamma(-0.5)) is a matched ratio, exactly 1.
    assert rising_over_gamma(1, -1.5, -0.5) == pytest.approx(1.0, rel=REL)


def test_rising_over_gamma_gl_coefficient():
    # The i=2 differencing weight at order 0.5 equals alpha(alpha-1)/2!.
    assert rising_over_gamma(3, -1.5, -0.5) == pytest.approx(-0.125, rel=REL)


def test_rising_over_gamma_vanishing_rule():
    # 0^(0.5)/Gamma(1.5) = 0: the Gamma pole in the base annihilates it.
    assert rising_over_gamma(0, 0.5, 1.5) == 0.0


def test_rising_over_gamma_one_pole_over_two_vanishes():
    # Gamma(-1) / (Gamma(0) Gamma(0)): two denominator poles outweigh one
    assert rising_over_gamma(0, -1.0, 0.0) == 0.0


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: rising_over_gamma(1, math.nan, 1.0),
        lambda: rising_over_gamma(1, 0.5, math.nan),
        lambda: rising_over_gamma(math.nan, 0.5, 1.0),  # the base
        lambda: rising_over_gamma(math.inf, 0.5, 1.0),
        lambda: rising_over_gamma(-math.inf, 0.5, 1.0),
        lambda: rising_over_gamma(10**400, 0.5, 1.0),  # past binary64
        lambda: rising_over_gamma_row(math.nan, 1.0, 3),
        lambda: rising_over_gamma_row(0.5, math.nan, 3),
    ],
)
def test_gamma_ratio_nan_infinite_or_unresolved_argument_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_gamma_ratio_just_below_unit_resolution_still_evaluates():
    q = 2.0**53 - 2.0
    row = rising_over_gamma_row(q, q + 1.0, 3)
    assert row.tolist() == [rising_over_gamma(m, q, q + 1.0) for m in (1, 2, 3)]
    assert row[0] == 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: rising_over_gamma_row(1e15, 1e15 + 1.0, 30),  # the row's exp
        lambda: rising_over_gamma(30, 1e15, 1e15 + 1.0),  # the plain ratio
        lambda: rising_over_gamma(-200, 195.0, 0.5),  # a matched pole: 200!/5!
        lambda: rising_over_gamma(-3, -2.0, -200.5),  # 1/Gamma(-200.5)
        lambda: rising_over_gamma(1000, 150.5, 1.0),  # a plain rising function
    ],
    ids=["row", "ratio", "matched-pole", "other-gamma", "rising"],
)
def test_gamma_ratio_past_binary64_is_domain_error(call):
    # math.exp raises OverflowError where numpy would give inf
    with pytest.raises(DomainError, match="overflows binary64"):
        call()


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=15.0), st.integers(min_value=1, max_value=60))
def test_gamma_ratio_rows_at_the_exp_limit(decades, N):
    # the Taylor basis rows of a sum order -q: inside binary64 each point
    # keeps the bits of its math.exp, past it (q = 1e15 at N = 30) the row
    # raises DomainError
    q = 10.0**decades
    d = q + 1.0
    logs = [(math.lgamma(m + q) - math.lgamma(m)) - math.lgamma(d) for m in range(1, N + 1)]
    try:
        expected = np.array([math.exp(t) for t in logs])
    except OverflowError:
        with pytest.raises(DomainError, match="overflows binary64"):
            rising_over_gamma_row(q, d, N)
        return
    assert rising_over_gamma_row(q, d, N).tobytes() == expected.tobytes()


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
    # at large orders the weights may overflow, silently; at an integer
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
    # |order| = 40 over 10^5 terms stays inside binary64
    for order in (40.0, -40.0, 39.5):
        assert np.isfinite(gl_coefficients(order, 10**5).coeffs).all()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=5),
    st.floats(min_value=-3.9, max_value=3.9).filter(lambda q: q != math.floor(q)),
)
def test_lgamma_table_serves_rows_of_any_length_order(lengths, q):
    # rows of growing and shrinking length each equal the per-point ratios
    d = q + 1.0
    for N in lengths:
        row = rising_over_gamma_row(q, d, N)
        expected = np.array([rising_over_gamma(m, q, d) for m in range(1, N + 1)])
        assert row.tobytes() == expected.tobytes()


#: Rows (q, d, length) of the batch tests: ragged, one of length 0, poles in
#: m + q (cancelled by Gamma(d), or not), d at a pole, negative m + q of
#: both signs, and rows long enough that the batch spans several passes.
BATCH_ROWS = [
    (0.5, 1.5, 20),
    (0.5, 1.5, 0),
    (-0.3, 0.7, 7),
    (-3.0, -2.0, 10),  # m + q a pole for m <= 3, matched by Gamma(-2)
    (0.5, -2.0, 10),  # 1/Gamma(-2) = 0 at every base
    (-5.5, 0.25, 12),  # m + q negative and non-integer: alternating sign
    (-5.5, -1.5, 12),
    (2, 3.0, 1),  # an integer q
    (1.25, 2.25, 4000),
    (-0.75, 0.25, 5000),  # longer than one pass
    (0.0, 1.0, 1),
]


def _rows_outcome(thunk):
    try:
        return [row.tobytes() for row in thunk()]
    except DomainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_rising_over_gamma_rows_match_per_row(chunk, monkeypatch):
    # passes of 1 or 7 points split the short rows anywhere
    rows = BATCH_ROWS
    if chunk is not None:
        monkeypatch.setattr(special, "_ROW_CHUNK", chunk)
        rows = [r for r in BATCH_ROWS if r[2] < 100]
    assert sum(r[2] for r in rows) > 2 * special._ROW_CHUNK
    q, d, lengths = zip(*rows)
    got = _rows_outcome(lambda: rising_over_gamma_rows(q, d, lengths))
    assert got == _rows_outcome(lambda: [rising_over_gamma_row(*row) for row in rows])
    # and the per-point ratios, an independent route
    per_point = [
        np.array([rising_over_gamma(m, qr, dr) for m in range(1, n + 1)]).tobytes()
        for qr, dr, n in rows
    ]
    assert got == per_point


def test_rising_over_gamma_rows_of_an_empty_batch():
    assert rising_over_gamma_rows([], [], []) == []


OVERFLOWING = (1e15, 1e15 + 1.0, 30)  # the row's math.exp leaves binary64
UNCANCELLED = (-4.0, 0.5, 10)  # Gamma(-3) at m = 1, cancelled by nothing


@pytest.mark.parametrize(
    "rows",
    [
        [(0.5, 1.5, 5), (math.nan, 1.0, 3), OVERFLOWING],
        [(0.5, 1.5, 5), (0.5, 2.0**53, 3)],
        [(0.5, 1.5, 5), (0.5, -(2.0**60), 3)],
        [(-3.0, -2.0, 10), OVERFLOWING],  # an overflowing row after a pole row
        [OVERFLOWING, UNCANCELLED],  # the batch reaches the pole row first
        [(0.5, 1.5, 5), UNCANCELLED, OVERFLOWING],
        [OVERFLOWING, (math.nan, 1.0, 3)],
    ],
    ids=["nan-q", "huge-d", "huge-negative-d", "pole-then-overflow",
         "overflow-then-pole", "pole-raises-first", "overflow-then-nan"],
)
def test_rising_over_gamma_rows_raise_the_first_failing_rows_error(rows):
    q, d, lengths = zip(*rows)
    got = _rows_outcome(lambda: rising_over_gamma_rows(q, d, lengths))
    expected = _rows_outcome(lambda: [rising_over_gamma_row(*row) for row in rows])
    assert isinstance(expected, tuple)
    assert got == expected


# The error-free transforms, checked exactly in rational arithmetic.  Each
# operand is 0 or m * 2**e, m an integer below 2**53 in magnitude and e in
# [-400, 400]: every part of a split and of a product is then a multiple of
# 2**-800 below 2**906, so nothing overflows or underflows.
_OPERAND = st.builds(math.ldexp, st.integers(-(2**53 - 1), 2**53 - 1), st.integers(-400, 400))
_PAIRS = st.lists(st.tuples(_OPERAND, _OPERAND), min_size=1, max_size=8)


def _on_floats_and_arrays(fn, *columns):
    """``fn`` on each row of ``columns`` as Python floats, then once on the
    columns as arrays: (row, result) for both, as Python floats."""
    arrays = fn(*map(np.array, columns))
    for i, row in enumerate(zip(*columns)):
        yield row, fn(*row)
        yield row, tuple(float(x[i]) for x in arrays)


def _significant_bits(x):
    n = abs(x).as_integer_ratio()[0]
    return (n // (n & -n)).bit_length() if n else 0


@settings(max_examples=100, deadline=None)
@given(_PAIRS)
def test_two_sum_is_exact(pairs):
    for (a, b), (s, e) in _on_floats_and_arrays(special._two_sum, *zip(*pairs)):
        assert s == a + b
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@settings(max_examples=100, deadline=None)
@given(_PAIRS)
def test_two_prod_is_exact(pairs):
    for (a, b), (p, e) in _on_floats_and_arrays(special._two_prod, *zip(*pairs)):
        assert p == a * b
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@settings(max_examples=100, deadline=None)
@given(st.lists(_OPERAND, min_size=1, max_size=8))
def test_split_halves_are_exact(values):
    for (a,), (hi, lo) in _on_floats_and_arrays(special._split, values):
        assert Fraction(hi) + Fraction(lo) == Fraction(a)
        assert Fraction(hi * hi) == Fraction(hi) ** 2
        assert _significant_bits(hi) <= 26 and _significant_bits(lo) <= 26


def test_split_overflows_past_its_range():
    # _SPLIT * a leaves binary64 past |a| = 1.797e308 / (2**27 + 1) ~ 1.339e300
    hi, lo = special._split(1.339e300)
    assert hi + lo == 1.339e300
    assert all(map(math.isnan, special._split(1.34e300)))
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = special._split(np.array([1.34e300, -1.34e300]))
    assert np.isnan(hi).all() and np.isnan(lo).all()
