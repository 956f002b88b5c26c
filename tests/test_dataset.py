import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.dataset import (
    FEATURE_NAMES,
    build_feature_table,
    build_windows,
    chronological_split,
    fit_scaler,
)
from stockcast.errors import (
    DegenerateRange,
    MissingSentiment,
    TooFewSamples,
    WindowTooLong,
)

from conftest import make_panel


# --- scaler --------------------------------------------------------------


def test_scaler_midpoint_and_endpoints():
    scaler = fit_scaler(np.array([10.0, 20.0]))
    assert scaler.apply(np.array([15.0]))[0] == 0.5
    assert scaler.apply(np.array([10.0]))[0] == 0.0
    assert scaler.apply(np.array([20.0]))[0] == 1.0


def test_scaler_constant_column_rejected():
    with pytest.raises(DegenerateRange):
        fit_scaler(np.array([5.0, 5.0, 5.0]))


def test_scaler_round_trip_exact_on_training_data():
    values = np.array([3.0, 7.5, 9.25, 4.125])  # dyadic: round trip is exact
    scaler = fit_scaler(values)
    assert np.array_equal(scaler.inverse(scaler.apply(values)), values)


@settings(max_examples=60, derandomize=True)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=50
    ).filter(lambda vs: max(vs) > min(vs))
)
def test_scaler_round_trip_close_everywhere(values):
    scaler = fit_scaler(np.array(values))
    back = scaler.inverse(scaler.apply(np.array(values)))
    assert np.allclose(back, values, rtol=1e-12, atol=1e-9)


# --- windows -------------------------------------------------------------


def test_window_counts():
    inputs, targets = build_windows(np.arange(100.0), 60)
    assert inputs.shape == (40, 60)
    assert targets.shape == (40,)


def test_window_enumeration():
    inputs, targets = build_windows(np.array([1.0, 2.0, 3.0]), 1)
    assert inputs.tolist() == [[1.0], [2.0]]
    assert targets.tolist() == [2.0, 3.0]


def test_windows_are_writable_copies():
    closes = np.arange(10.0)
    inputs, targets = build_windows(closes, 3)
    inputs[0, 0] = targets[0] = -1.0
    assert inputs[1, 0] == 1.0  # rows do not share memory
    assert np.array_equal(closes, np.arange(10.0))


def test_window_too_long():
    with pytest.raises(WindowTooLong):
        build_windows(np.arange(5.0), 5)


def test_unwindowing_reconstructs_series():
    series = np.linspace(0, 1, 30)
    inputs, targets = build_windows(series, 7)
    rebuilt = np.concatenate([inputs[0], targets])
    assert np.array_equal(rebuilt, series)
    # overlap consistency: each window is the previous shifted by one
    for i in range(1, len(targets)):
        assert np.array_equal(inputs[i, :-1], inputs[i - 1, 1:])


def test_window_dates_are_target_dates():
    # sample i targets panel row i + W, so its target date is dates[i + W]
    panel = make_panel(n=20)
    inputs, targets = build_windows(panel.close, 5)
    assert len(targets) == 15
    for i in range(len(targets)):
        assert targets[i] == panel.close[i + 5]
        assert np.array_equal(inputs[i], panel.close[i : i + 5])


# --- feature table -------------------------------------------------------


def test_feature_table_shifts_target_one_day():
    panel = make_panel(n=3)
    features, targets = build_feature_table(panel)
    assert features.shape == (2, len(FEATURE_NAMES))
    assert targets.tolist() == panel.close[1:].tolist()
    assert features[0, 0] == panel.close[0]


def test_feature_table_requires_sentiment():
    panel = make_panel(n=10, with_sentiment=False)
    with pytest.raises(MissingSentiment):
        build_feature_table(panel)


def test_feature_table_neutral_sentiment_propagates():
    panel = make_panel(n=5, with_sentiment=True)
    neutral = panel.sentiment
    object.__setattr__(neutral, "pos", np.zeros(5))
    object.__setattr__(neutral, "neg", np.zeros(5))
    object.__setattr__(neutral, "neu", np.ones(5))
    object.__setattr__(neutral, "compound", np.zeros(5))
    features, _ = build_feature_table(panel)
    pos_col = features[:, list(FEATURE_NAMES).index("pos")]
    neu_col = features[:, list(FEATURE_NAMES).index("neu")]
    assert np.all(pos_col == 0.0) and np.all(neu_col == 1.0)


@settings(max_examples=40, derandomize=True)
@given(n=st.integers(min_value=2, max_value=60), seed=st.integers(0, 1000))
def test_no_lookahead_in_feature_table(n, seed):
    # feature row t is panel row t, and its target is the close of row t + 1
    panel = make_panel(n=n, seed=seed)
    features, targets = build_feature_table(panel)
    assert len(features) == len(targets) == n - 1
    for t in range(n - 1):
        expected = [panel.column(name)[t] for name in FEATURE_NAMES]
        assert features[t].tolist() == expected
        assert targets[t] == panel.close[t + 1]


@settings(max_examples=40, derandomize=True)
@given(n=st.integers(min_value=10, max_value=80), w=st.integers(min_value=1, max_value=9))
def test_no_lookahead_in_windows(n, w):
    # window i covers panel rows i .. i + w - 1 and targets row i + w
    panel = make_panel(n=n)
    inputs, targets = build_windows(panel.close, w)
    assert len(inputs) == len(targets) == n - w
    for i in range(n - w):
        assert np.array_equal(inputs[i], panel.close[i : i + w])
        assert targets[i] == panel.close[i + w]


# --- split ---------------------------------------------------------------


def test_split_matches_reported_count():
    assert chronological_split(3478, 0.95) == 3304  # floor; off by one from the cited 3305


def test_split_clamps_tiny_inputs():
    assert chronological_split(2, 0.95) == 1


def test_split_rejects_single_sample():
    with pytest.raises(TooFewSamples):
        chronological_split(1, 0.95)


def test_scaler_fit_on_train_only_allows_out_of_range_validation():
    values = np.concatenate([np.linspace(10, 20, 50), np.linspace(21, 30, 10)])
    s = chronological_split(60, 50 / 60)
    scaler = fit_scaler(values[:s])
    scaled = scaler.apply(values)
    assert scaled[:s].min() >= 0.0
    assert scaled[:s].max() <= 1.0
    assert scaled[s:].max() > 1.0  # validation may exceed [0, 1]
    assert np.allclose(scaler.inverse(scaled), values, rtol=1e-12)
