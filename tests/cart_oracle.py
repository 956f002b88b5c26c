"""CART oracles for the level-wise production tree builder.

`exhaustive_tree` is brute force: exhaustive split enumeration, no
shortcuts. It mirrors the contract of the production tree builder (same
stopping rules, same lexicographic tie-break on (cost, feature, threshold))
but evaluates every candidate by direct masking rather than sorted prefix
sums. `depth_first_tree` is the recursive builder that the level-wise one
replaced, node by node with the same arithmetic, so the two can be
compared bit for bit.
"""

from __future__ import annotations

import numpy as np

from stockcast.models.forest import RegressionTree


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


def one_pass_split(
    x: np.ndarray, y: np.ndarray, features, min_leaf: int
) -> tuple[float, int, float] | None:
    """One node's minimal (cost, feature, threshold), all features in one cost matrix.

    A split between equal values costs inf; the matrix's first minimum in
    row-major order is the smallest (cost, feature, threshold).
    """
    n = len(y)
    if n < 2 * min_leaf:
        return None
    features = np.sort(features)
    rows = x[:, features].T
    order = rows.argsort(axis=1, kind="stable")
    xs = rows[np.arange(len(features))[:, None], order]
    ys = y[order]
    csum = ys.cumsum(axis=1)
    csq = (ys * ys).cumsum(axis=1)
    # left counts k = min_leaf .. n - min_leaf; a split exists only between distinct values
    first, last = min_leaf - 1, n - min_leaf
    valid = xs[:, first:last] != xs[:, first + 1 : last + 1]
    if not valid.any():
        return None
    k = np.arange(min_leaf, n - min_leaf + 1)
    left_sum = csum[:, first:last]
    left_sq = csq[:, first:last]
    right_sum = csum[:, -1:] - left_sum
    cost = (left_sq - left_sum * left_sum / k) + (
        (csq[:, -1:] - left_sq) - right_sum * right_sum / (n - k)
    )
    cost[~valid] = np.inf
    j, i = divmod(int(cost.argmin()), len(k))
    lo, hi = float(xs[j, first + i]), float(xs[j, first + i + 1])
    threshold = (lo + hi) / 2.0
    if not threshold > lo:
        threshold = hi
    return float(cost[j, i]), int(features[j]), threshold


def depth_first_tree(
    x: np.ndarray, y: np.ndarray, max_depth: int | None = None, min_samples_leaf: int = 1
) -> RegressionTree:
    """A CART tree on every feature, built one node per call in preorder."""
    table: list[list] = []  # [feature, threshold, right, value] per node

    def build(indices: np.ndarray, depth: int) -> int:
        node = len(table)
        ys = y[indices]
        table.append([-1, 0.0, -1, float(ys.sum()) / len(ys)])
        if (
            (max_depth is not None and depth >= max_depth)
            or len(indices) < 2 * min_samples_leaf
            or (ys == ys[0]).all()
        ):
            return node
        split = one_pass_split(x[indices], ys, np.arange(x.shape[1]), min_samples_leaf)
        if split is None:
            return node
        _, f, threshold = split
        mask = x[indices, f] < threshold
        table[node][:2] = f, threshold
        build(indices[mask], depth + 1)  # the left child is node + 1
        table[node][2] = build(indices[~mask], depth + 1)
        return node

    build(np.arange(len(y)), 0)
    feature, threshold, right, value = zip(*table)
    return RegressionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )
