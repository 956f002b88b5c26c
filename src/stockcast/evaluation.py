"""Metrics, macro correlation, and the walk-forward next-day harness.

The harness hands every model a HistorySlice that can only serve panel
rows up to the forecast origin, and the slice records the highest row it
actually served. Each prediction therefore uses true history (never prior
predictions), and tests can audit that nothing dated on or after the
target was read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import FEATURE_NAMES
from .errors import (
    ConstantColumn,
    EmptySeries,
    LengthMismatch,
    RangeError,
    ZeroActual,
)
from .models.arima import one_step_forecast  # unused here; perfbench/tracing.py wraps it
from .models.lstm import predict_next  # unused here; perfbench/tracing.py wraps it
from .series import AlignedPanel, TradingDate


def rmse(pred: Sequence[float], actual: Sequence[float]) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(pred) != len(actual):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(actual)} actuals")
    if len(pred) == 0:
        raise EmptySeries("rmse of empty series")
    diff = pred - actual
    return float(np.sqrt(np.mean(diff * diff)))


def mape(pred: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(pred) != len(actual):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(actual)} actuals")
    if len(pred) == 0:
        raise EmptySeries("mape of empty series")
    for i, a in enumerate(actual):
        if a == 0:
            raise ZeroActual(i)
    return float(100.0 * np.mean(np.abs(pred - actual) / np.abs(actual)))


@dataclass(frozen=True)
class MetricSet:
    rmse: float
    mape: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.rmse < 0 or self.mape < 0:
            raise ValueError("metrics must be non-negative")


class HistorySlice:
    """Panel rows 0..end, inclusive; records the highest row served."""

    def __init__(self, panel: AlignedPanel, end: int) -> None:
        if not 0 <= end < len(panel):
            raise RangeError(f"history end {end} outside panel of {len(panel)} rows")
        self._panel = panel
        self.end = end
        self.max_row_read = -1

    def _mark(self, row: int) -> None:
        if row > self.max_row_read:
            self.max_row_read = row

    def last_closes(self, count: int) -> np.ndarray:
        if count < 1 or count > self.end + 1:
            raise RangeError(f"cannot serve {count} closes from {self.end + 1} rows")
        self._mark(self.end)
        return self._panel.close[self.end - count + 1 : self.end + 1]

    def all_closes(self) -> np.ndarray:
        self._mark(self.end)
        return self._panel.close[: self.end + 1]

    def feature_row(self) -> np.ndarray:
        """Day-`end` feature vector in FEATURE_NAMES order."""
        self._mark(self.end)
        return np.array(
            [self._panel.column(name)[self.end] for name in FEATURE_NAMES], dtype=np.float64
        )

    @property
    def next_index(self) -> int:
        """Row index of the forecast target."""
        return self.end + 1


def predict_step(model, histories: Sequence[HistorySlice]) -> np.ndarray:
    """Next-day predictions for all steps of a walk-forward, as one model call.

    This is the one place the harness asks a model for predictions, so a
    timing tool can wrap it by name.
    """
    return model.predict(histories)


@dataclass(frozen=True)
class ReportEntry:
    """Walk-forward result for one (ticker, model) pair."""

    ticker: str
    model: str
    dates: tuple[TradingDate, ...]
    actual: np.ndarray
    predicted: np.ndarray
    metrics: MetricSet
    train_dates: tuple[TradingDate, ...] = ()
    train_actual: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if not (len(self.dates) == len(self.actual) == len(self.predicted)):
            raise ValueError("dates, actual, and predicted must align")


@dataclass
class ForecastReport:
    entries: list[ReportEntry] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, entry: ReportEntry) -> None:
        self.entries.append(entry)

    def entry(self, ticker: str, model: str) -> ReportEntry | None:
        for e in self.entries:
            if e.ticker == ticker and e.model == model:
                return e
        return None

    def tickers(self) -> list[str]:
        seen: list[str] = []
        for e in self.entries:
            if e.ticker not in seen:
                seen.append(e.ticker)
        return seen


def walk_forward(
    model,
    panel: AlignedPanel,
    target_dates: Sequence[TradingDate],
    audit: list | None = None,
    enforce_train_boundary: bool = True,
) -> ReportEntry:
    """Predict each target date using only rows strictly before it.

    Target dates must be strictly increasing panel dates with at least one
    earlier row each, all falling after the model's training range (the
    boundary check is relaxed for in-sample diagnostics). When `audit` is
    given, (target_row, max_row_read) pairs are appended per step. The
    model gets every step's history slice in one `predict` call.
    """
    if len(target_dates) == 0:
        raise RangeError("validation range is empty")
    index_of = {d: i for i, d in enumerate(panel.dates)}
    indices = []
    for d in target_dates:
        if d not in index_of:
            raise RangeError(f"{d} is not a panel date")
        indices.append(index_of[d])
    for a, b in zip(indices, indices[1:]):
        if b <= a:
            raise RangeError("validation dates must be strictly increasing")
    if indices[0] < 1:
        raise RangeError("first validation date has no history before it")
    train_end = model.train_end
    if enforce_train_boundary and train_end is not None and target_dates[0] <= train_end:
        raise RangeError(
            f"validation starts {target_dates[0]} but training ran through {train_end}"
        )

    histories = [HistorySlice(panel, end=j - 1) for j in indices]
    predicted = predict_step(model, histories)
    actual = panel.close[indices]
    if audit is not None:
        audit.extend((j, h.max_row_read) for j, h in zip(indices, histories))

    metrics = MetricSet(
        rmse=rmse(predicted, actual), mape=mape(predicted, actual), n=len(indices)
    )
    first = indices[0]
    return ReportEntry(
        ticker=panel.ticker,
        model=model.kind,
        dates=tuple(target_dates),
        actual=actual,
        predicted=predicted,
        metrics=metrics,
        train_dates=tuple(panel.dates[:first]),
        train_actual=panel.close[:first].copy(),
    )


def correlation_matrix(
    panel: AlignedPanel, columns: Sequence[str]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Pearson correlations between the selected panel columns.

    The diagonal is exactly 1 and the matrix exactly symmetric by
    construction.
    """
    if len(panel) < 3:
        raise ValueError("need at least 3 rows for correlations")
    data = []
    for name in columns:
        col = panel.column(name)
        if np.all(col == col[0]):
            raise ConstantColumn(name)
        data.append(col - col.mean())
    k = len(data)
    norms = [math.sqrt(float(z @ z)) for z in data]
    matrix = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            r = float(data[i] @ data[j]) / (norms[i] * norms[j])
            matrix[i, j] = r
            matrix[j, i] = r
    return tuple(columns), matrix
