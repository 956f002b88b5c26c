"""Ordinary least squares with a tiny-ridge fallback on rank deficiency."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import ClassVar

import numpy as np

from ..errors import SchemaMismatch, StockcastError

RIDGE_LAMBDA = 1e-8


@dataclass(frozen=True)
class LinearModel:
    kind: ClassVar[str] = "linreg"

    coefficients: np.ndarray
    intercept: float
    ridge_fallback: bool
    feature_count: int
    train_end: date | None = None

    def __post_init__(self) -> None:
        if self.coefficients.shape != (self.feature_count,):
            raise ValueError(f"coefficients must be a vector of the {self.feature_count} features")

    def predict_row(self, row: np.ndarray) -> float:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.feature_count,):
            raise SchemaMismatch(f"expected {self.feature_count} features, got {row.shape}")
        return float(row @ self.coefficients + self.intercept)

    @property
    def min_history(self) -> int:
        return self.feature_count

    def predict(self, history) -> np.ndarray:
        rows = history.windows(self.feature_count)
        return np.array([self.predict_row(row) for row in rows], dtype=np.float64)


def linreg_fit(x: np.ndarray, y: np.ndarray, train_end=None) -> LinearModel:
    """Least squares via the normal equations.

    A rank-deficient design matrix falls back to ridge with lambda=1e-8 and
    the artifact records that it did.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    if n <= p:
        raise StockcastError(f"{n} rows <= {p} columns")
    design = np.hstack([x, np.ones((n, 1))])
    gram = design.T @ design
    rhs = design.T @ y
    ridge = False
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        ridge = True
        gram = gram + RIDGE_LAMBDA * np.eye(gram.shape[0])
    beta = np.linalg.solve(gram, rhs)
    return LinearModel(
        coefficients=beta[:-1],
        intercept=float(beta[-1]),
        ridge_fallback=ridge,
        feature_count=p,
        train_end=train_end,
    )
