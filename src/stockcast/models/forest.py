"""Bagged regression trees over the sentiment + macro feature table.

Greedy CART induction, grown level by level: each step scans every node of
one depth level that may split in one padded block (every chosen column of
every node stably sorted at once, prefix sums restarting at each node's
first row), and partitions their rows into the next level's nodes in one
stable pass. Candidate thresholds are midpoints between consecutive
distinct sorted values (the upper value when the midpoint of two adjacent
doubles rounds onto the lower one, which would leave a child empty), and
the split minimizing the summed child squared error is taken. Ties break
on (cost, feature index, threshold), so the fitted tree is independent of
scan order. Per-tree RNG streams are derived from the master seed by tree
index: after the bootstrap draw, each level draws the feature subsets of
all its splittable nodes in one call, in level order, so each tree depends
only on the seed and its own index. Trees are stored in preorder.

Prediction walks a block of rows through all trees at once, one tree
level per step, and averages each row over the trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import ClassVar

import numpy as np
from numpy.typing import NDArray

from ..dataset import FEATURE_NAMES
from ..errors import SchemaMismatch, StockcastError

_LEAF = -1
# one depth level of a tree: feature, threshold and value of each node, and the
# indices of its split nodes, whose children make the next level, left and right in turn
_Level = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# prediction walks at most this many (row, tree) pairs at once: 512 KiB per int64 array
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ForestConfig:
    """Every tree is grown to full depth on a bootstrap sample, level by
    level, drawing ceil(p / 3) candidate features per split: one draw per
    level for all of its splittable nodes, in level order. Trees are
    stored in preorder."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass
class RegressionTree:
    """Flat-array binary tree in preorder: feature[i] == -1 marks a leaf.

    A split node's left child is the next node, i + 1, and its right child
    comes after the left subtree, as `fit_tree` lays them out. Since every
    child lies after its parent, every walk from the root ends at a leaf.
    """

    feature: NDArray[np.int64]
    threshold: np.ndarray
    right: NDArray[np.int64]
    value: np.ndarray

    def __post_init__(self) -> None:
        n = self.feature.size
        arrays = (self.feature, self.threshold, self.right, self.value)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise ValueError("tree arrays must be non-empty vectors of equal length")
        split = np.flatnonzero(self.feature != _LEAF)
        right = self.right[split]
        if not ((right > split + 1) & (right < n)).all():
            raise ValueError("a split node's right child must lie after its left child i + 1")

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _best_splits(
    x: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's minimal (cost, feature, threshold); cost is inf where none exists.

    Node i owns rows[starts[i] : starts[i] + counts[i]] and scans the sorted
    feature indices features[i]. All nodes fill one padded (node, feature,
    row) block: padding holds +inf, so a stable sort puts it after the
    node's own values, and each node's prefix sums run from its first row.
    Cost is sse_left + sse_right with sse = sum(y^2) - (sum y)^2 / n. In a
    node's (feature, left count) cost matrix a split between equal values,
    or one leaving fewer than min_leaf rows on a side, costs inf; its first
    minimum in row-major order is the smallest (cost, feature, threshold),
    because the rows follow the feature index and thresholds grow with the
    left count.
    """
    m = len(counts)
    width = max(int(counts.max()), 2)
    col = np.arange(width)
    pad = col >= counts[:, None]
    idx = rows[np.where(pad, 0, starts[:, None] + col)]
    values = np.where(pad[:, None], np.inf, x[idx[:, None, :], features[:, :, None]])
    # each (node, feature) pair's rows in sorted order, then padding that every use masks out
    ranked = idx[np.arange(m)[:, None, None], values.argsort(axis=2, kind="stable")]
    xs = x[ranked, features[:, :, None]]
    ys = y[ranked]
    csum = ys.cumsum(axis=2)
    csq = (ys * ys).cumsum(axis=2)
    last = np.arange(m), slice(None), counts - 1
    total_sum, total_sq = csum[last][:, :, None], csq[last][:, :, None]
    k = col[1:]  # left count of a split after sorted position k - 1
    n = counts[:, None]
    in_range = (k >= min_leaf) & (k <= n - min_leaf)
    left_sum = csum[:, :, :-1]
    left_sq = csq[:, :, :-1]
    right_sum = total_sum - left_sum
    right_n = np.maximum(n - k, 1)[:, None]  # >= min_leaf wherever in_range
    cost = (left_sq - left_sum * left_sum / k) + (
        (total_sq - left_sq) - right_sum * right_sum / right_n
    )
    valid = in_range[:, None] & (xs[:, :, :-1] != xs[:, :, 1:])
    cost = np.where(valid, cost, np.inf).reshape(m, -1)
    best = cost.argmin(axis=1)
    node = np.arange(m)
    j, i = np.divmod(best, width - 1)
    lo, hi = xs[node, j, i], xs[node, j, i + 1]
    mid = (lo + hi) / 2.0
    # adjacent doubles: the midpoint rounds onto lo, so the split takes hi
    return cost[node, best], features[node, j], np.where(mid > lo, mid, hi)


def fit_tree(
    x: np.ndarray,
    y: np.ndarray,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> RegressionTree:
    """Fit a single CART regression tree (all features when max_features is None).

    The tree grows one depth level per step. A level's nodes keep their
    rows contiguous, in the order of x, and every node that may split is
    scanned in one `_best_splits` call; its children are one stable
    partition of those rows. With an rng and fewer than p features per
    split, each level draws every such node's features in one call, in
    level order. The breadth-first table is then renumbered into preorder.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    q = p if max_features is None else max_features
    levels: list[_Level] = []
    rows, counts = np.arange(n), np.array([n])
    while True:
        starts = np.cumsum(counts) - counts
        ys = y[rows]
        bounds = zip(starts.tolist(), counts.tolist())
        # y.mean() of each node's rows in their order, without its Python wrapper
        value = np.array([float(np.add.reduce(ys[a : a + c])) / c for a, c in bounds])
        feature = np.full(len(counts), _LEAF)
        threshold = np.zeros(len(counts))
        split = np.flatnonzero(
            np.logical_or.reduceat(ys != np.repeat(ys[starts], counts), starts)
            & (counts >= 2 * min_samples_leaf)
            & (max_depth is None or len(levels) < max_depth)
        )
        if split.size:
            if rng is not None and q < p:
                chosen = np.sort(rng.random((split.size, p)).argsort(axis=1)[:, :q], axis=1)
            else:
                chosen = np.broadcast_to(np.arange(p), (split.size, p))
            cost, f, t = _best_splits(
                x, y, rows, starts[split], counts[split], chosen, min_samples_leaf
            )
            found = cost < np.inf
            split = split[found]
            feature[split] = f[found]
            threshold[split] = t[found]
        levels.append((feature, threshold, value, split))
        if not split.size:
            break
        rank = np.full(len(counts), -1)
        rank[split] = np.arange(split.size)
        node = np.repeat(rank, counts)
        rows, node = rows[node >= 0], node[node >= 0]
        at = split[node]
        child = 2 * node + ~(x[rows, feature[at]] < threshold[at])
        rows = rows[child.argsort(kind="stable")]
        counts = np.bincount(child, minlength=2 * split.size)
    return _preorder(levels)


def _preorder(levels: list[_Level]) -> RegressionTree:
    """The breadth-first levels as one preorder table: a left child at i + 1."""
    sizes = [np.ones(len(level[0]), dtype=np.int64) for level in levels]
    for d in range(len(levels) - 2, -1, -1):
        sizes[d][levels[d][3]] += sizes[d + 1][0::2] + sizes[d + 1][1::2]
    total = int(sizes[0][0])
    feature = np.empty(total, dtype=np.int64)
    threshold = np.empty(total)
    right = np.empty(total, dtype=np.int64)
    value = np.empty(total)
    at = np.zeros(1, dtype=np.int64)  # each node's preorder index, one level at a time
    for d, (f, t, v, split) in enumerate(levels):
        feature[at], threshold[at], value[at] = f, t, v
        right[at] = _LEAF
        if split.size:
            below = np.empty(2 * split.size, dtype=np.int64)
            below[0::2] = at[split] + 1
            below[1::2] = below[0::2] + sizes[d + 1][0::2]
            right[at[split]] = below[1::2]
            at = below
    return RegressionTree(feature=feature, threshold=threshold, right=right, value=value)


@dataclass(frozen=True)
class ForestModel:
    """Trained forest plus the feature schema it expects."""

    kind: ClassVar[str] = "forest"
    min_history: ClassVar[int] = 1

    trees: tuple[RegressionTree, ...]
    feature_names: tuple[str, ...]
    config: ForestConfig
    train_end: date | None = None

    def __post_init__(self) -> None:
        p = len(self.feature_names)
        for tree in self.trees:
            if tree.feature.max() >= p or tree.feature.min() < _LEAF:
                raise ValueError(f"tree splits on a feature outside the {p} features")

    def predict_row(self, row: np.ndarray) -> float:
        return float(self._predict_rows(np.asarray(row, dtype=np.float64)[None])[0])

    def predict(self, history) -> np.ndarray:
        return self._predict_rows(history.feature_rows())

    def _predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """Mean over the trees of each row's leaf value.

        Every tree's arrays are joined into one node table, and a
        (rows, trees) array of node indices moves one level down per step
        until all of them rest on leaves. Each row's leaf values lie along
        the contiguous axis, so their mean adds them in the same order as
        a mean over one row's per-tree values.
        """
        p = len(self.feature_names)
        if rows.ndim != 2 or rows.shape[1] != p:
            raise SchemaMismatch(f"expected {p} features, got shape {rows.shape[1:]}")
        sizes = [tree.n_nodes for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature = np.concatenate([t.feature for t in self.trees])
        threshold = np.concatenate([t.threshold for t in self.trees])
        value = np.concatenate([t.value for t in self.trees])
        right = np.concatenate([t.right for t in self.trees]) + np.repeat(roots, sizes)
        out = np.empty(len(rows), dtype=np.float64)
        step = max(1, _CHUNK_ELEMENTS // len(self.trees))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            node = np.repeat(roots[None], len(block), axis=0)
            at = np.arange(len(block))[:, None]
            split = feature[node] != _LEAF
            while split.any():
                # a leaf's feature -1 reads the last column; np.where keeps the leaf
                goes_left = block[at, feature[node]] < threshold[node]
                node = np.where(split, np.where(goes_left, node + 1, right[node]), node)
                split = feature[node] != _LEAF
            out[start : start + step] = value[node].mean(axis=1)
        return out


def _fit_one_tree(index: int, x: np.ndarray, y: np.ndarray, seed: int) -> RegressionTree:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
    sample = rng.integers(0, len(y), size=len(y))
    max_features = max(1, math.ceil(x.shape[1] / 3))
    return fit_tree(x[sample], y[sample], max_features=max_features, rng=rng)


def forest_train(
    features: np.ndarray,
    targets: np.ndarray,
    config: ForestConfig,
    train_end=None,
) -> ForestModel:
    """Fit the forest on the training rows of the feature table.

    Features stay unscaled: trees are invariant to monotone feature maps.
    """
    if len(targets) < 2:
        raise StockcastError("need at least 2 training rows")
    return ForestModel(
        trees=tuple(
            _fit_one_tree(i, features, targets, config.seed) for i in range(config.n_trees)
        ),
        feature_names=FEATURE_NAMES,
        config=config,
        train_end=train_end,
    )
