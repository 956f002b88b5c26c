"""Scaling, sliding windows, tabular features, and the chronological split.

Leakage rules enforced here: the scaler is fit on the training slice only,
every window covers rows strictly before its target row, and feature
rows pair day-t inputs with the day-(t+1) close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StockcastError
from .series import MACRO_COLUMNS, SENTIMENT_COLUMNS, AlignedPanel

FEATURE_NAMES = ("close", *SENTIMENT_COLUMNS, *MACRO_COLUMNS)


@dataclass(frozen=True)
class MinMaxScaler:
    """Linear map sending the training min/max of the closes to [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"scaler needs finite lo < hi, not lo={self.lo}, hi={self.hi}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.lo) / (self.hi - self.lo)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(scaled, dtype=np.float64) * (self.hi - self.lo) + self.lo


def fit_scaler(closes: np.ndarray) -> MinMaxScaler:
    """Fit min/max on training closes only; a constant series is an error."""
    closes = np.asarray(closes, dtype=np.float64)
    lo, hi = float(closes.min()), float(closes.max())
    if not hi > lo:
        raise StockcastError("feature 'close' is constant; min-max scaling undefined")
    return MinMaxScaler(lo, hi)


def build_windows(closes: np.ndarray, window_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Slice a series into N - W (window, next value) samples.

    Row i of the inputs is closes[i : i+W] and its target is closes[i+W].
    """
    closes = np.asarray(closes, dtype=np.float64)
    if window_len < 1:
        raise ValueError("window length must be >= 1")
    if window_len >= len(closes):
        raise StockcastError(f"window length {window_len} must be < series length {len(closes)}")
    inputs = np.lib.stride_tricks.sliding_window_view(closes, window_len)[:-1].copy()
    return inputs, closes[window_len:].copy()


def build_feature_table(panel: AlignedPanel) -> tuple[np.ndarray, np.ndarray]:
    """The sentiment model's (features, targets) from an aligned panel.

    Feature row t is panel row t's FEATURE_NAMES columns and its target is
    the close of row t+1. Strictly one-day-ahead, no same-day cells.
    """
    if not panel.has_sentiment:
        raise StockcastError("panel has no sentiment columns")
    if len(panel) < 2:
        raise StockcastError("need at least 2 panel rows")
    features = np.stack([panel.column(name)[:-1] for name in FEATURE_NAMES], axis=1)
    return features, panel.close[1:].copy()


def chronological_split(n: int, train_fraction: float = 0.95) -> int:
    """floor(n * fraction) training rows, clamped so both sides are non-empty."""
    if n < 2:
        raise StockcastError(f"cannot split {n} samples")
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    return max(1, min(int(np.floor(n * train_fraction)), n - 1))
