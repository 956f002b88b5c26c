"""KNN oracles for the filter-and-refine neighbour kernel.

`full_scan_means` is the brute-force kernel that the filter and refine
replaced: every query's exact distance to every input, one stable argsort
per query. `naive_knn` and `naive_cv_rmse` go one k, one fold and one
held-out row at a time.
"""

from __future__ import annotations

import numpy as np

from stockcast.models.knn import K_RANGE

# distances are computed for blocks of queries whose (query, input, lag)
# differences hold at most this many float64 values: 2 MiB
_CHUNK_ELEMENTS = 1 << 18


def full_scan_means(
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


def naive_knn(inputs: np.ndarray, targets: np.ndarray, window: np.ndarray, k: int) -> float:
    distances = np.sqrt(((inputs - window) ** 2).sum(axis=1))
    return float(targets[np.argsort(distances, kind="stable")[:k]].mean())


def naive_cv_rmse(inputs: np.ndarray, targets: np.ndarray, folds: int) -> dict[int, float]:
    """CV RMSE by k, one k, one block and one held-out row at a time."""
    n = len(targets)
    cv_rmse = {}
    for k in K_RANGE:
        fold_errors = []
        for block in np.array_split(np.arange(n), folds):
            rest = np.setdiff1d(np.arange(n), block, assume_unique=True)
            if len(block) == 0 or len(rest) < k:
                continue
            sq = [
                (naive_knn(inputs[rest], targets[rest], inputs[i], k) - targets[i]) ** 2
                for i in block
            ]
            fold_errors.append(float(np.sqrt(np.mean(sq))))
        cv_rmse[k] = float(np.mean(fold_errors)) if fold_errors else np.inf
    return cv_rmse
