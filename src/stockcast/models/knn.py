"""K-nearest-neighbors regression over sliding windows.

Neighbor count is chosen by 5-fold cross-validation on the training slice
with contiguous time blocks (shuffled folds would leak future into past).
Ties in CV error go to the smaller k; ties in distance break on training
index, so prediction is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import ClassVar

import numpy as np

from ..dataset import MinMaxScaler
from ..errors import ShapeMismatch, TooFewSamples

K_RANGE = tuple(range(2, 10))
CV_FOLDS = 5


@dataclass(frozen=True)
class KnnModel:
    """Stored training windows plus the chosen k.

    When a scaler is present, the stored windows are scaled and raw query
    windows are scaled before the distance computation; targets stay in
    price units either way.
    """

    kind: ClassVar[str] = "knn"

    k: int
    train_inputs: np.ndarray
    train_targets: np.ndarray
    cv_rmse: dict[int, float]
    scaler: MinMaxScaler | None = None
    train_end: date | None = None

    def __post_init__(self) -> None:
        if self.train_inputs.ndim != 2:
            raise ValueError("train_inputs must be a 2-D array of windows")
        rows = len(self.train_inputs)
        if self.train_targets.shape != (rows,):
            raise ValueError(f"train_targets must hold one target per window, {rows} in all")
        if not 1 <= self.k <= rows:
            raise ValueError(f"k must be between 1 and the {rows} training windows, not {self.k}")

    @property
    def min_history(self) -> int:
        return self.train_inputs.shape[1]

    def predict(self, histories) -> np.ndarray:
        return np.array(
            [self.predict_window(h.last_closes(self.min_history)) for h in histories],
            dtype=np.float64,
        )

    def predict_window(self, window: np.ndarray) -> float:
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (self.train_inputs.shape[1],):
            raise ShapeMismatch(
                f"expected a window of length {self.train_inputs.shape[1]}"
            )
        if self.scaler is not None:
            window = self.scaler.apply(window)
        return _knn_predict(self.train_inputs, self.train_targets, window, self.k)


def _knn_predict(inputs: np.ndarray, targets: np.ndarray, window: np.ndarray, k: int) -> float:
    distances = np.sqrt(((inputs - window) ** 2).sum(axis=1))
    nearest = np.argsort(distances, kind="stable")[:k]
    return float(targets[nearest].mean())


def knn_fit_cv(
    inputs: np.ndarray,
    targets: np.ndarray,
    folds: int = CV_FOLDS,
    scaler: MinMaxScaler | None = None,
    train_end=None,
) -> KnnModel:
    """Pick k by contiguous-block CV RMSE over the training rows (argmin, ties to smaller k)."""
    n = len(targets)
    if n < 10:
        raise TooFewSamples(f"need >= 10 training samples, got {n}")
    blocks = np.array_split(np.arange(n), folds)
    cv_rmse: dict[int, float] = {}
    for k in K_RANGE:
        fold_errors = []
        for block in blocks:
            if len(block) == 0:
                continue
            rest = np.setdiff1d(np.arange(n), block, assume_unique=True)
            if len(rest) < k:
                continue
            sq = [
                (_knn_predict(inputs[rest], targets[rest], inputs[i], k) - targets[i]) ** 2
                for i in block
            ]
            fold_errors.append(float(np.sqrt(np.mean(sq))))
        cv_rmse[k] = float(np.mean(fold_errors)) if fold_errors else np.inf
    best_k = min(K_RANGE, key=lambda k: (cv_rmse[k], k))
    return KnnModel(
        k=best_k,
        train_inputs=inputs.copy(),
        train_targets=targets.copy(),
        cv_rmse=cv_rmse,
        scaler=scaler,
        train_end=train_end,
    )
