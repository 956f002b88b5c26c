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


def best_split_per_feature(
    x: np.ndarray, y: np.ndarray, features, min_leaf: int
) -> tuple[float, int, float] | None:
    """The (cost, feature, threshold) of the best split, one feature at a time.

    The same prefix-sum arithmetic as the production scan, but each feature
    is sorted and scanned on its own and the candidates are compared as
    tuples, so the one-pass cost matrix can be checked against it exactly.
    """
    n = len(y)
    if n < 2 * min_leaf:
        return None
    best = None
    for f in sorted(features):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        ks = np.arange(min_leaf, n - min_leaf + 1)
        ks = ks[xs[ks - 1] != xs[ks]]
        if len(ks) == 0:
            continue
        left_sum = csum[ks - 1]
        left_sq = csq[ks - 1]
        right_sum = csum[-1] - left_sum
        cost = (left_sq - left_sum * left_sum / ks) + (
            (csq[-1] - left_sq) - right_sum * right_sum / (n - ks)
        )
        i = int(np.argmin(cost))
        lo, hi = float(xs[ks[i] - 1]), float(xs[ks[i]])
        threshold = (lo + hi) / 2.0
        if not threshold > lo:
            threshold = hi
        candidate = (float(cost[i]), int(f), threshold)
        if best is None or candidate < best:
            best = candidate
    return best


def leaf_value(tree, row: np.ndarray) -> float:
    """The value of the leaf that `row` reaches, walked one node at a time."""
    node = 0
    while tree.feature[node] != -1:
        go_left = row[tree.feature[node]] < tree.threshold[node]
        node = node + 1 if go_left else tree.right[node]
    return float(tree.value[node])
