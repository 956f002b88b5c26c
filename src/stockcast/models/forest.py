"""Bagged regression trees over the sentiment + macro feature table.

Greedy CART induction: at each node a seeded random feature subset is
scanned in one pass (every chosen column stably sorted at once, prefix
sums down the columns), candidate thresholds are midpoints between
consecutive distinct sorted values (the upper value when the midpoint of
two adjacent doubles rounds onto the lower one, which would leave a child
empty), and the split minimizing the summed child squared error is taken.
Ties break on (cost, feature index, threshold), so the fitted tree is
independent of scan order. Per-tree RNG streams are derived from the
master seed by tree index, so each tree depends only on the seed and its
own index.

Prediction walks a block of rows through all trees at once, one tree
level per step, and averages each row over the trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import ClassVar, Sequence

import numpy as np
from numpy.typing import NDArray

from ..dataset import FEATURE_NAMES
from ..errors import SchemaMismatch, StockcastError

_LEAF = -1
# prediction walks at most this many (row, tree) pairs at once: 512 KiB per int64 array
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ForestConfig:
    """Every tree is grown to full depth on a bootstrap sample, drawing
    ceil(p / 3) candidate features per split."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass
class RegressionTree:
    """Flat-array binary tree in preorder: feature[i] == -1 marks a leaf.

    A split node's left child is the next node, i + 1, and its right child
    comes after the left subtree, as `_TreeBuilder` emits them. Since every
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


def _best_split(
    x: np.ndarray, y: np.ndarray, features: Sequence[int], min_leaf: int
) -> tuple[float, int, float] | None:
    """Minimal (cost, feature, threshold) over all candidate splits.

    Cost is sse_left + sse_right with sse = sum(y^2) - (sum y)^2 / n,
    computed from prefix sums over each feature's sorted order. All
    features fill one (feature, left count) cost matrix, in which a split
    between equal values costs inf. Its first minimum in row-major order
    is the smallest (cost, feature, threshold), because the rows follow
    the feature index and thresholds grow with the left count.
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
    if not threshold > lo:  # adjacent doubles: the midpoint rounds onto lo
        threshold = hi
    return float(cost[j, i]), int(features[j]), threshold


class _TreeBuilder:
    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        max_depth: int | None,
        min_leaf: int,
        max_features: int,
        rng: np.random.Generator | None,
    ) -> None:
        self.x = x
        self.y = y
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def build(self, indices: np.ndarray, depth: int) -> int:
        node = self._new_node()
        y = self.y[indices]
        self.value[node] = float(y.sum()) / len(y)  # y.mean(), without its Python wrapper
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(indices) < 2 * self.min_leaf
            or (y == y[0]).all()
        ):
            return node
        p = self.x.shape[1]
        if self.rng is not None and self.max_features < p:
            chosen = self.rng.choice(p, size=self.max_features, replace=False)
        else:
            chosen = np.arange(p)
        split = _best_split(self.x[indices], y, chosen, self.min_leaf)
        if split is None:
            return node
        _, f, threshold = split
        mask = self.x[indices, f] < threshold
        self.feature[node] = f
        self.threshold[node] = threshold
        self.build(indices[mask], depth + 1)  # the left child is node + 1
        self.right[node] = self.build(indices[~mask], depth + 1)
        return node

    def finish(self) -> RegressionTree:
        return RegressionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            right=np.array(self.right, dtype=np.int64),
            value=np.array(self.value, dtype=np.float64),
        )


def fit_tree(
    x: np.ndarray,
    y: np.ndarray,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> RegressionTree:
    """Fit a single CART regression tree (all features when max_features is None)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = x.shape[1]
    builder = _TreeBuilder(
        x, y, max_depth, min_samples_leaf, max_features if max_features is not None else p, rng
    )
    builder.build(np.arange(len(y)), 0)
    return builder.finish()


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
