"""Metrics, macro correlation, and the walk-forward next-day harness.

The harness hands every model one History of the panel and the N forecast
origins. It serves each step only the panel rows up to that step's origin
and records the highest row it served per step. Each prediction therefore
uses true history (never prior predictions), and tests can audit that
nothing dated on or after the target was read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import FEATURE_NAMES
from .errors import StockcastError
from .models.arima import one_step_forecast  # unused here; perfbench/tracing.py wraps it
from .models.lstm import predict_next  # unused here; perfbench/tracing.py wraps it
from .series import AlignedPanel, TradingDate


def rmse(pred: Sequence[float], actual: Sequence[float]) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(pred) != len(actual):
        raise StockcastError(f"{len(pred)} predictions vs {len(actual)} actuals")
    if len(pred) == 0:
        raise StockcastError("rmse of empty series")
    diff = pred - actual
    return float(np.sqrt(np.mean(diff * diff)))


def mape(pred: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(pred) != len(actual):
        raise StockcastError(f"{len(pred)} predictions vs {len(actual)} actuals")
    if len(pred) == 0:
        raise StockcastError("mape of empty series")
    for i, a in enumerate(actual):
        if a == 0:
            raise StockcastError(f"actual value at index {i} is zero; MAPE undefined")
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


class History:
    """Panel rows 0..ends[i] for each step i, served to all N steps as whole arrays.

    `ends` (each target row - 1) is strictly increasing, so the first step
    has the shortest history. `max_row_read` is -1 per step until an
    accessor serves the batch, then the last row each step was served.
    """

    def __init__(self, panel: AlignedPanel, ends: np.ndarray) -> None:
        self._panel = panel
        self.ends = ends
        self.max_row_read = np.full(len(ends), -1)

    def _serve(self) -> None:
        self.max_row_read = self.ends

    def windows(self, count: int) -> np.ndarray:
        """(N, count): each step's last `count` closes."""
        if count < 1 or count > self.ends[0] + 1:
            raise StockcastError(f"cannot serve {count} closes from {self.ends[0] + 1} rows")
        self._serve()
        return sliding_window_view(self._panel.close, count)[self.ends - count + 1]

    def closes(self) -> np.ndarray:
        """The closes through the last step's end; step i owns the first ends[i] + 1."""
        self._serve()
        return self._panel.close[: self.ends[-1] + 1]

    def feature_rows(self) -> np.ndarray:
        """(N, p): each step's day-`end` feature vector in FEATURE_NAMES order.

        A row with a non-finite cell (news the panel did not score) is an error.
        """
        self._serve()
        rows = np.column_stack([self._panel.column(name)[self.ends] for name in FEATURE_NAMES])
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            day = self._panel.dates[self.ends[np.argmin(finite)]]
            raise StockcastError(
                f"{self._panel.ticker}: the feature row of {day} is not finite "
                "(its sentiment was not scored)"
            )
        return rows


def predict_step(model, history: History) -> np.ndarray:
    """Next-day predictions for all steps of a walk-forward, as one model call.

    This is the one place the harness asks a model for predictions, so a
    timing tool can wrap it by name.
    """
    return model.predict(history)


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
    model gets every step's history in one `predict` call. An RMSE or MAPE
    that is not finite is an error naming the first target date at which
    the squared or percentage errors, summed in date order, stop being
    finite: the first non-finite prediction or error, unless the sums
    overflow before it.
    """
    if len(target_dates) == 0:
        raise StockcastError("validation range is empty")
    index_of = {d: i for i, d in enumerate(panel.dates)}
    indices = []
    for d in target_dates:
        if d not in index_of:
            raise StockcastError(f"{d} is not a panel date")
        indices.append(index_of[d])
    for a, b in zip(indices, indices[1:]):
        if b <= a:
            raise StockcastError("validation dates must be strictly increasing")
    if indices[0] < 1:
        raise StockcastError("first validation date has no history before it")
    train_end = model.train_end
    if enforce_train_boundary and train_end is not None and target_dates[0] <= train_end:
        raise StockcastError(
            f"validation starts {target_dates[0]} but training ran through {train_end}"
        )

    history = History(panel, np.array(indices) - 1)
    predicted = predict_step(model, history)
    actual = panel.close[indices]
    if audit is not None:
        audit.extend(zip(indices, history.max_row_read.tolist()))

    with np.errstate(over="ignore", invalid="ignore"):
        metrics = MetricSet(
            rmse=rmse(predicted, actual), mape=mape(predicted, actual), n=len(indices)
        )
        error = predicted - actual
        running = np.cumsum(error * error) + np.cumsum(np.abs(error) / actual)
    if not (math.isfinite(metrics.rmse) and math.isfinite(metrics.mape)):
        step = int(np.argmin(np.isfinite(running)))
        raise StockcastError(
            f"{panel.ticker}/{model.kind}: the error of the prediction for "
            f"{target_dates[step]} is not finite "
            f"(predicted {predicted[step]:.6g}, actual {actual[step]:.6g})"
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
            raise StockcastError(f"column {name!r} is constant; correlation undefined")
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
