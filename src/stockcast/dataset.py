"""Scaling, sliding windows, tabular features, and the chronological split.

Leakage rules enforced here: the scaler is fit on the training slice only,
every window covers dates strictly before its target date, and feature
rows pair day-t inputs with the day-(t+1) close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRange, MissingSentiment, TooFewSamples, WindowTooLong
from .series import AlignedPanel, TradingDate

FEATURE_NAMES = ("close", "pos", "neg", "neu", "compound", "gold", "brent", "gsec", "usd_inr")


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-feature linear map sending the training min/max to [0, 1]."""

    mins: np.ndarray
    maxs: np.ndarray
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mins", np.asarray(self.mins, dtype=np.float64))
        object.__setattr__(self, "maxs", np.asarray(self.maxs, dtype=np.float64))

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        return (values - self.mins) / (self.maxs - self.mins)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        scaled = np.asarray(scaled, dtype=np.float64)
        return scaled * (self.maxs - self.mins) + self.mins


def fit_scaler(train_values: np.ndarray, feature_names: Sequence[str] = ()) -> MinMaxScaler:
    """Fit per-column min/max on training data only.

    `train_values` is (n,) for one feature or (n, p). A constant column is
    a DegenerateRange error rather than a silent divide-by-zero.
    """
    values = np.asarray(train_values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    names = tuple(feature_names) if feature_names else tuple(f"f{i}" for i in range(values.shape[1]))
    for i, (lo, hi) in enumerate(zip(mins, maxs)):
        if not hi > lo:
            raise DegenerateRange(names[i] if i < len(names) else f"f{i}")
    if values.shape[1] == 1:
        return MinMaxScaler(mins[0], maxs[0], names[:1])
    return MinMaxScaler(mins, maxs, names)


@dataclass(frozen=True)
class WindowedDataset:
    """(window -> next value) pairs over a scaled close series.

    Sample i is values[i : i+W] -> values[i+W]; dates[i] is the target date.
    """

    window_len: int
    inputs: np.ndarray
    targets: np.ndarray
    dates: tuple[TradingDate, ...]

    def __post_init__(self) -> None:
        if not (len(self.inputs) == len(self.targets) == len(self.dates)):
            raise ValueError("inputs, targets, and dates must have equal length")

    def __len__(self) -> int:
        return len(self.targets)


def build_windows(
    closes: np.ndarray, window_len: int, dates: Sequence[TradingDate] | None = None
) -> WindowedDataset:
    """Slice a series into N - W overlapping (window, next value) samples."""
    closes = np.asarray(closes, dtype=np.float64)
    n = len(closes)
    if window_len < 1:
        raise ValueError("window length must be >= 1")
    if window_len >= n:
        raise WindowTooLong(window_len, n)
    count = n - window_len
    inputs = np.empty((count, window_len), dtype=np.float64)
    for i in range(count):
        inputs[i] = closes[i : i + window_len]
    targets = closes[window_len:].copy()
    if dates is None:
        target_dates: tuple[TradingDate, ...] = tuple([None] * count)  # type: ignore[list-item]
    else:
        if len(dates) != n:
            raise ValueError("dates must match series length")
        target_dates = tuple(dates[window_len:])
    return WindowedDataset(window_len, inputs, targets, target_dates)


@dataclass(frozen=True)
class FeatureTable:
    """Day-t features paired with the day-(t+1) close as target."""

    feature_names: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray
    dates: tuple[TradingDate, ...]

    def __post_init__(self) -> None:
        if self.features.shape != (len(self.targets), len(self.feature_names)):
            raise ValueError("feature matrix shape mismatch")
        if len(self.dates) != len(self.targets):
            raise ValueError("dates must match row count")

    def __len__(self) -> int:
        return len(self.targets)


def build_feature_table(panel: AlignedPanel) -> FeatureTable:
    """Assemble the sentiment-model table from an aligned panel.

    Row t carries (close, pos, neg, neu, compound, gold, brent, gsec,
    usd_inr) for day t and the close of day t+1 as target; dates[t] is the
    target date. Strictly one-day-ahead, no same-day cells.
    """
    if not panel.has_sentiment:
        raise MissingSentiment("panel has no sentiment columns")
    if len(panel) < 2:
        raise TooFewSamples("need at least 2 panel rows")
    columns = [panel.column(name) for name in FEATURE_NAMES]
    features = np.stack([col[:-1] for col in columns], axis=1)
    targets = panel.close[1:].copy()
    return FeatureTable(FEATURE_NAMES, features, targets, tuple(panel.dates[1:]))


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation boundary over n samples."""

    n: int
    split_index: int

    def __post_init__(self) -> None:
        if not (1 <= self.split_index <= self.n - 1):
            raise ValueError("split index must leave both slices non-empty")

    @property
    def train_slice(self) -> slice:
        return slice(0, self.split_index)

    @property
    def validation_slice(self) -> slice:
        return slice(self.split_index, self.n)


def chronological_split(n: int, train_fraction: float = 0.95) -> SplitSpec:
    """floor(n * fraction) training samples, clamped so both sides are non-empty."""
    if n < 2:
        raise TooFewSamples(f"cannot split {n} samples")
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    index = int(np.floor(n * train_fraction))
    index = max(1, min(index, n - 1))
    return SplitSpec(n=n, split_index=index)
