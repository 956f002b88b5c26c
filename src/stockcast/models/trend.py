"""Additive linear-trend baseline: close ~ a + b * day index."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import ClassVar

import numpy as np

from ..errors import TooFewSamples


@dataclass(frozen=True)
class TrendModel:
    kind: ClassVar[str] = "additive"
    min_history: ClassVar[int] = 1

    intercept: float
    slope: float
    n_train: int
    train_end: date | None = None

    def predict_index(self, t: int) -> float:
        return self.intercept + self.slope * t

    def predict(self, histories) -> np.ndarray:
        return np.array([self.predict_index(h.next_index) for h in histories], dtype=np.float64)


def additive_trend_fit(closes: np.ndarray, train_end=None) -> TrendModel:
    """Least-squares line over the training slice, indexed 0..n-1."""
    closes = np.asarray(closes, dtype=np.float64)
    n = len(closes)
    if n < 2:
        raise TooFewSamples("need at least 2 points for a trend line")
    t = np.arange(n, dtype=np.float64)
    t_mean = t.mean()
    y_mean = closes.mean()
    denom = float(((t - t_mean) ** 2).sum())
    slope = float(((t - t_mean) * (closes - y_mean)).sum()) / denom
    intercept = y_mean - slope * t_mean
    return TrendModel(intercept=float(intercept), slope=slope, n_train=n, train_end=train_end)
