import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nablatc.errors import ConfigError
from nablatc.presets import UnknownPreset, preset_signal, preset_weight, weight_case_fn
from nablatc.signals import (
    BadRate,
    CSVFormatError,
    Grid,
    GridMismatch,
    NonFiniteSample,
    Signal,
    Weight,
    ZeroScale,
    ZeroWeight,
    make_signal_from_fn,
    make_weight,
    read_signal_csv,
    read_weight_csv,
    scale_weight,
    write_signal_csv,
)


def test_grid_counts_and_example():
    g = Grid(a=-1.0, history=2, horizon=2)
    assert g.npoints == 5
    np.testing.assert_array_equal(g.k_values(), [-3.0, -2.0, -1.0, 0.0, 1.0])


def test_history_zero_keeps_base_entry():
    g = Grid(a=0.0, history=0, horizon=3)
    s = make_signal_from_fn(g, lambda k: 1.0)
    np.testing.assert_array_equal(s.values, [1.0, 1.0, 1.0, 1.0])
    assert s.at(0) == 1.0


def test_identity_sampling_with_history():
    s = make_signal_from_fn(Grid(a=-1.0, history=2, horizon=2), lambda k: k)
    np.testing.assert_array_equal(s.values, [-3.0, -2.0, -1.0, 0.0, 1.0])


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=-10, max_value=10),
)
def test_offset_position_roundtrip(history, horizon, a):
    g = Grid(a=a, history=history, horizon=horizon)
    for m in range(-history, horizon + 1):
        assert g.position(m) == m + history
    assert g.position(-history) == 0
    assert g.position(horizon) == g.npoints - 1


def test_nonfinite_sample_rejected():
    g = Grid(a=0.0, history=0, horizon=2)
    with pytest.raises(NonFiniteSample):
        make_signal_from_fn(g, lambda k: math.inf if k > 1 else 0.0)


def test_nonfinite_sample_names_its_offset():
    g = Grid(a=0.5, history=2, horizon=6)
    with pytest.raises(
        NonFiniteSample,
        match=r"^sampled function returned a non-finite value from lattice offset 4: "
        r"this function admits a horizon of at most 3 from its base point$",
    ):
        make_signal_from_fn(g, lambda k: math.inf if k > 4.0 else 1.0)
    vals = np.ones(g.npoints)
    vals[g.position(5)] = math.nan
    vals[g.position(2)] = -math.inf
    with pytest.raises(
        NonFiniteSample,
        match=r"^signal contains non-finite samples from lattice offset 2: "
        r"this signal admits a horizon of at most 1 from its base point$",
    ):
        Signal(g, vals)
    vals[g.position(-1)] = math.nan
    with pytest.raises(
        NonFiniteSample,
        match=r"^signal contains non-finite samples at lattice offset -1, at or below",
    ):
        Signal(g, vals)


def test_first_bad_offset_one_admits_no_horizon():
    # a horizon is at least 1, so a sequence that fails at offset 1 names
    # that offset and no horizon cap
    g = Grid(a=0.0, history=1, horizon=4)
    tail = r"at lattice offset 1, the first point past the base point, which every horizon reaches$"
    with pytest.raises(NonFiniteSample, match=r"^sampled function returned a non-finite value " + tail):
        make_signal_from_fn(g, lambda k: math.inf if k >= 1.0 else 1.0)
    vals = np.ones(g.npoints)
    vals[g.position(1)] = math.nan
    vals[g.position(3)] = math.nan
    with pytest.raises(NonFiniteSample, match=r"^signal contains non-finite samples " + tail):
        Signal(g, vals)
    with pytest.raises(ZeroWeight, match=r"^weight magnitude below \S+ " + tail):
        Weight(g, [1.0, 1.0, 1e-310, 1.0, 1.0, 1.0])


def test_weight_zero_rejected_anywhere():
    g = Grid(a=0.0, history=1, horizon=3)
    with pytest.raises(ZeroWeight):
        make_weight(g, fn=lambda k: k)  # zero at k = 0
    with pytest.raises(ZeroWeight):
        Weight(g, [1.0, 1.0, 1e-310, 1.0, 1.0])


def test_weight_rejection_names_the_horizon_cap():
    # pi^621 and sqrt(2)^2048 = 2^1024 are the first samples past binary64
    with pytest.raises(
        NonFiniteSample,
        match=r"non-finite samples from lattice offset 621: .* at most 620 from its base",
    ):
        preset_weight("case2", Grid(0.0, 0, 900))
    with pytest.raises(
        NonFiniteSample,
        match=r"non-finite samples from lattice offset 2048: .* at most 2047 from its base",
    ):
        preset_weight("case1", Grid(0.0, 0, 2200))
    # 0.5^997 is the first sample below the zero threshold
    with pytest.raises(ZeroWeight, match=r"offset 997: .* at most 996 from its base"):
        preset_weight("halfgeom", Grid(0.0, 0, 1200))
    # the named caps are admissible, also from another base point
    assert preset_weight("case2", Grid(0.0, 0, 620)).grid.horizon == 620
    assert preset_weight("case1", Grid(0.0, 0, 2047)).grid.horizon == 2047
    assert preset_weight("case2", Grid(3.5, 2, 620)).grid.horizon == 620


def test_weight_rejection_at_or_below_the_base():
    with pytest.raises(ZeroWeight, match="at lattice offset 0, at or below the base point"):
        make_weight(Grid(a=0.0, history=1, horizon=3), fn=lambda k: k)
    # w(k) = 1000^-k overflows in the history from offset -103 down; the
    # failing offset nearest the base is named
    with pytest.raises(NonFiniteSample, match=r"at lattice offset -103, at or below"):
        make_weight(Grid(0.0, 200, 5), rate=0.999)


def test_exponential_weight_values():
    g = Grid(a=2.0, history=2, horizon=3)
    w = make_weight(g, rate=0.5)
    # (1 - 0.5)^(k - a) evaluated by repeated multiplication
    np.testing.assert_allclose(w.values, [4.0, 2.0, 1.0, 0.5, 0.25, 0.125], rtol=0)


def test_exponential_rate_one_rejected():
    with pytest.raises(BadRate):
        make_weight(Grid(0.0, 0, 2), rate=1.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_exponential_non_finite_rate_rejected(rate):
    # named as a bad rate, not as the non-finite sample it would make
    with pytest.raises(BadRate, match=f"rate must be finite, got {rate}"):
        make_weight(Grid(0.0, 1, 2), rate=rate)


def test_rate_zero_is_classical_case():
    w = make_weight(Grid(0.0, 1, 4), rate=0.0)
    np.testing.assert_array_equal(w.values, np.ones(6))


def test_bounded_reference_weight():
    g = Grid(0.0, 0, 4)
    w = make_weight(g, fn=lambda k: 0.5**k + 0.01)
    np.testing.assert_allclose(w.values, 0.5 ** np.arange(5) + 0.01)


def test_oscillating_weight_nonzero():
    g = Grid(0.0, 1, 8)
    w = make_weight(g, fn=lambda k: math.sin(k * math.pi / 2 + math.pi / 4))
    assert np.all(np.abs(w.values) > 0.5)


def test_scale_weight_identity_and_sign_flip():
    g = Grid(0.0, 0, 3)
    w = make_weight(g, rate=0.0)
    assert scale_weight(w, 1.0) is w
    flipped = scale_weight(w, -1.0)
    np.testing.assert_array_equal(flipped.values, -np.ones(4))
    with pytest.raises(ZeroScale):
        scale_weight(w, 0.0)


def test_weight_overflow_raises_without_warning():
    # the overflow is reported once, as the exception, not also as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSample, match="offset 1982"):
            scale_weight(preset_weight("case1", Grid(0.0, 0, 2000)), 1e10)
        with pytest.raises(NonFiniteSample, match="offset 621"):
            preset_weight("case2", Grid(0.0, 0, 900))
        with pytest.raises(NonFiniteSample, match="offset 2048"):
            make_weight(Grid(0.0, 0, 2200), rate=1.0 - math.sqrt(2.0))


def test_signal_immutable():
    s = Signal(Grid(0.0, 0, 2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_grid_length_mismatch():
    with pytest.raises(GridMismatch):
        Signal(Grid(0.0, 0, 2), np.ones(5))
    with pytest.raises(GridMismatch):
        Weight(Grid(0.0, 0, 2), np.ones(5))


def test_weight_is_a_signal_whose_messages_say_weight(tmp_path):
    g = Grid(a=0.5, history=1, horizon=4)
    w = make_weight(g, rate=0.5)
    assert isinstance(w, Signal)
    assert w.at(0) == 1.0 and w.at(-1) == 2.0
    np.testing.assert_array_equal(w.body, [0.5, 0.25, 0.125, 0.0625])
    np.testing.assert_array_equal(w.window(-1, 1), [2.0, 1.0, 0.5])
    with pytest.raises(GridMismatch, match=r"^weight has 5 samples, grid holds 6 points$"):
        Weight(g, np.ones(5))
    vals = np.ones(g.npoints)
    vals[g.position(3)] = math.inf
    with pytest.raises(
        NonFiniteSample,
        match=r"^weight contains non-finite samples from lattice offset 3: "
        r"this weight admits a horizon of at most 2 from its base point$",
    ):
        Weight(g, vals)
    path = str(tmp_path / "w.csv")
    write_signal_csv(path, w, include_history=True)
    back = read_weight_csv(path, history=1)
    assert type(back) is Weight
    assert back.grid == g
    np.testing.assert_array_equal(back.values, w.values)


def test_csv_roundtrip(tmp_path):
    g = Grid(a=0.0, history=2, horizon=5)
    s = make_signal_from_fn(g, lambda k: math.sin(10 * k))
    path = str(tmp_path / "sig.csv")
    write_signal_csv(path, s, include_history=True)
    back = read_signal_csv(path, history=2)
    assert back.grid == s.grid
    np.testing.assert_array_equal(back.values, s.values)


def test_csv_body_only_write(tmp_path):
    s = make_signal_from_fn(Grid(0.0, 1, 3), lambda k: k)
    path = str(tmp_path / "sig.csv")
    write_signal_csv(path, s)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "k,value"
    assert len(lines) == 4  # header + horizon rows only


def test_csv_gap_rejected(tmp_path):
    path = str(tmp_path / "gap.csv")
    with open(path, "w") as fh:
        fh.write("k,value\n1.0,0.1\n2.0,0.2\n4.0,0.4\n")
    with pytest.raises(CSVFormatError):
        read_signal_csv(path)


@pytest.mark.parametrize(
    "ks, step",
    [("0,nan,2", "k=0.0 and k=nan"), ("0,1,3", "k=1.0 and k=3.0"), ("0,inf,2", "k=0.0 and k=inf")],
    ids=["nan", "gap", "inf"],
)
def test_csv_bad_k_is_config_error(tmp_path, ks, step):
    # a NaN step compares false against any tolerance, and still fails
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("k,value\n" + "".join(f"{k},1.0\n" for k in ks.split(",")))
    for reader in (read_signal_csv, read_weight_csv):
        with pytest.raises(CSVFormatError, match=f"non-unit step between {step}$") as exc:
            reader(path)
        assert isinstance(exc.value, ConfigError)


def test_csv_header_rejected(tmp_path):
    path = str(tmp_path / "hdr.csv")
    with open(path, "w") as fh:
        fh.write("time,value\n1.0,0.1\n2.0,0.2\n")
    with pytest.raises(CSVFormatError):
        read_signal_csv(path)


def test_grid_history_must_be_nonnegative():
    with pytest.raises(GridMismatch, match="grid history must be >= 0, got -1"):
        Grid(0.0, -1, 3)


@pytest.mark.parametrize("kwargs", [{}, {"rate": 0.5, "fn": lambda k: 1.0}], ids=["none", "both"])
def test_make_weight_needs_exactly_one_source(kwargs):
    with pytest.raises(ZeroWeight, match="make_weight needs exactly one of rate=, fn="):
        make_weight(Grid(0.0, 0, 3), **kwargs)


def test_preset_guards_name_the_spec():
    with pytest.raises(UnknownPreset, match="polynomial spec 'poly:' has no coefficients"):
        preset_signal("poly:", Grid(0.0, 0, 3))
    # case3 is an exponential weight, so it has no pointwise function
    with pytest.raises(UnknownPreset, match="unknown weight 'case3'; use one of"):
        weight_case_fn("case3", 0.0)
