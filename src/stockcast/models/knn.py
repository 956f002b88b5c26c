"""K-nearest-neighbors regression over the sliding windows of one series.

Neighbor count is chosen by 5-fold cross-validation on the training slice
with contiguous time blocks (shuffled folds would leak future into past).
Each held-out window's distances are sorted once per fold, and every k
reads its first k neighbours from that order. Ties in CV error go to the
smaller k; ties in distance break on training index, so prediction is
fully deterministic. Cross-validation, batched prediction and the
one-window `predict_window` share one neighbour kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import ClassVar

import numpy as np

from ..dataset import MinMaxScaler, build_windows
from ..errors import StockcastError

K_RANGE = tuple(range(2, 10))
CV_FOLDS = 5
# distances are computed for blocks of queries whose (query, input, lag)
# differences hold at most this many float64 values: 2 MiB
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class KnnModel:
    """The training closes, the window length and the chosen k.

    The training rows are the sliding windows of the scaled closes, each
    targeting the close after it in price units; query windows are scaled
    the same way before the distance computation.
    """

    kind: ClassVar[str] = "knn"

    k: int
    window: int
    train_closes: np.ndarray
    cv_rmse: dict[int, float]
    scaler: MinMaxScaler
    train_end: date | None = None

    def __post_init__(self) -> None:
        if self.train_closes.ndim != 1:
            raise ValueError("train_closes must be a 1-D series")
        n, rows = len(self.train_closes), len(self.train_closes) - self.window
        if self.window < 1 or rows < 1:
            raise ValueError(f"train_closes ({n}) must be longer than a window >= 1 ({self.window})")
        if not 1 <= self.k <= rows:
            raise ValueError(f"k must be between 1 and the {rows} training windows, not {self.k}")

    @property
    def min_history(self) -> int:
        return self.window

    def predict(self, history) -> np.ndarray:
        return self._predict_windows(history.windows(self.window))

    def predict_window(self, window: np.ndarray) -> float:
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (self.window,):
            raise StockcastError(f"expected a window of length {self.window}")
        return float(self._predict_windows(window[None])[0])

    def _predict_windows(self, windows: np.ndarray) -> np.ndarray:
        inputs, targets = _training_rows(self.train_closes, self.window, self.scaler)
        return _neighbour_means(inputs, targets, self.scaler.apply(windows), (self.k,))[:, 0]


def _training_rows(
    closes: np.ndarray, window: int, scaler: MinMaxScaler
) -> tuple[np.ndarray, np.ndarray]:
    """The scaled windows of `closes` and the raw close that follows each."""
    return build_windows(scaler.apply(closes), window)[0], closes[window:]


def _neighbour_means(
    inputs: np.ndarray, targets: np.ndarray, queries: np.ndarray, ks
) -> np.ndarray:
    """(queries, ks) array: mean target of each query's k nearest inputs, per k.

    Each query's Euclidean distances are summed over the contiguous last
    axis and stably argsorted once; every k reads the first k of that order,
    and a (queries, k) block's row means add in the same order as a mean
    over one query's k targets.
    """
    out = np.empty((len(queries), len(ks)), dtype=np.float64)
    step = max(1, _CHUNK_ELEMENTS // inputs.size)
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        distances = np.sqrt(((inputs - block[:, None, :]) ** 2).sum(axis=2))
        order = np.argsort(distances, axis=1, kind="stable")
        nearest = targets[order[:, : max(ks)]]
        for j, k in enumerate(ks):
            out[start : start + step, j] = nearest[:, :k].mean(axis=1)
    return out


def _squares(values: np.ndarray) -> np.ndarray:
    """Each value ** 2 by libm pow, as a float64 scalar's `** 2` computes it.

    An array's `** 2` multiplies instead, which rounds differently for
    about 1 value in 1000; Python floats in an object array keep the pow.
    """
    return np.power(values.astype(object), 2).astype(np.float64)


def choose_k(
    inputs: np.ndarray, targets: np.ndarray, folds: int = CV_FOLDS
) -> tuple[int, dict[int, float]]:
    """The k with the least contiguous-block CV RMSE (ties to smaller k), and every k's RMSE.

    A held-out block's neighbours are sorted once for all k. A k larger
    than the rows outside the block skips that block; those rows are at
    least half of the n >= 10, so every block scores k = 2..5.
    """
    n = len(targets)
    if n < 10:
        raise StockcastError(f"need >= 10 training samples, got {n}")
    fold_errors: dict[int, list[float]] = {k: [] for k in K_RANGE}
    for block in np.array_split(np.arange(n), folds):
        if len(block) == 0:
            continue
        rest = np.setdiff1d(np.arange(n), block, assume_unique=True)
        ks = [k for k in K_RANGE if k <= len(rest)]
        predicted = _neighbour_means(inputs[rest], targets[rest], inputs[block], ks)
        sq = _squares(predicted - targets[block, None]).T.copy()  # (k, held-out row)
        for k, rmse in zip(ks, np.sqrt(sq.mean(axis=1))):
            fold_errors[k].append(float(rmse))
    cv_rmse = {k: float(np.mean(e)) if e else np.inf for k, e in fold_errors.items()}
    return min(K_RANGE, key=lambda k: (cv_rmse[k], k)), cv_rmse


def knn_fit_cv(
    closes: np.ndarray, window: int, scaler: MinMaxScaler, folds: int = CV_FOLDS, train_end=None
) -> KnnModel:
    """Pick k by `choose_k` over the training closes' windows and keep the closes."""
    closes = np.array(closes, dtype=np.float64)
    k, cv_rmse = choose_k(*_training_rows(closes, window, scaler), folds)
    return KnnModel(k, window, closes, cv_rmse, scaler, train_end)
