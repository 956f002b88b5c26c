"""Brute-force CART oracle: exhaustive split enumeration, no shortcuts.

Mirrors the contract of the production tree builder (same stopping rules,
same lexicographic tie-break on (cost, feature, threshold)) but evaluates
every candidate by direct masking rather than sorted prefix sums.
"""

from __future__ import annotations

import numpy as np


def sse(y: np.ndarray) -> float:
    s = float(y.sum())
    return float((y * y).sum()) - s * s / len(y)


def exhaustive_tree(
    x: np.ndarray, y: np.ndarray, max_depth: int | None, min_leaf: int = 1, depth: int = 0
) -> dict:
    node = {"value": float(y.mean())}
    if (
        (max_depth is not None and depth >= max_depth)
        or len(y) < 2 * min_leaf
        or bool(np.all(y == y[0]))
    ):
        return node
    best = None
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            if not threshold > lo:  # adjacent doubles: the midpoint rounds onto lo
                threshold = hi
            mask = x[:, f] < threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or len(y) - n_left < min_leaf:
                continue
            cost = sse(y[mask]) + sse(y[~mask])
            candidate = (cost, f, threshold)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        return node
    _, f, threshold = best
    mask = x[:, f] < threshold
    node["feature"] = f
    node["threshold"] = threshold
    node["left"] = exhaustive_tree(x[mask], y[mask], max_depth, min_leaf, depth + 1)
    node["right"] = exhaustive_tree(x[~mask], y[~mask], max_depth, min_leaf, depth + 1)
    return node
