"""Bagged regression trees over the sentiment + macro feature table.

Greedy CART induction: at each node a seeded random feature subset is
scanned, candidate thresholds are midpoints between consecutive distinct
sorted values (the upper value when the midpoint of two adjacent doubles
rounds onto the lower one, which would leave a child empty), and the
split minimizing the summed child squared error is taken. Ties break on
(cost, feature index, threshold), so the fitted tree is independent of
scan order. Per-tree RNG streams are derived from the master seed by tree
index, so each tree depends only on the seed and its own index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import ClassVar, Sequence

import numpy as np
from numpy.typing import NDArray

from ..dataset import FeatureTable, SplitSpec
from ..errors import SchemaMismatch, TooFewSamples

_LEAF = -1


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
    """Flat-array binary tree: feature[i] == -1 marks a leaf.

    A split node's children come after it in the arrays, as `_TreeBuilder`
    emits them, so every walk from the root ends at a leaf.
    """

    feature: NDArray[np.int64]
    threshold: np.ndarray
    left: NDArray[np.int64]
    right: NDArray[np.int64]
    value: np.ndarray

    def __post_init__(self) -> None:
        n = self.feature.size
        arrays = (self.feature, self.threshold, self.left, self.right, self.value)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise ValueError("tree arrays must be non-empty vectors of equal length")
        split = np.flatnonzero(self.feature != _LEAF)
        for child in (self.left[split], self.right[split]):
            if not ((child > split) & (child < n)).all():
                raise ValueError("tree children must index later nodes of the tree")

    def predict_one(self, row: np.ndarray) -> float:
        node = 0
        while self.feature[node] != _LEAF:
            if row[self.feature[node]] < self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return float(self.value[node])

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return np.array([self.predict_one(r) for r in rows])

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _best_split(
    x: np.ndarray, y: np.ndarray, features: Sequence[int], min_leaf: int
) -> tuple[float, int, float] | None:
    """Minimal (cost, feature, threshold) over all candidate splits.

    Cost is sse_left + sse_right with sse = sum(y^2) - (sum y)^2 / n,
    computed from prefix sums over the sorted order.
    """
    n = len(y)
    if n < 2 * min_leaf:
        return None
    best: tuple[float, int, float] | None = None
    for f in sorted(features):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total_sum = csum[-1]
        total_sq = csq[-1]
        # candidate left counts k; a split exists only between distinct values
        ks = np.arange(min_leaf, n - min_leaf + 1)
        valid = xs[ks - 1] != xs[ks]
        if not np.any(valid):
            continue
        ks = ks[valid]
        left_sum = csum[ks - 1]
        left_sq = csq[ks - 1]
        right_sum = total_sum - left_sum
        cost = (left_sq - left_sum * left_sum / ks) + (
            (total_sq - left_sq) - right_sum * right_sum / (n - ks)
        )
        i = int(np.argmin(cost))
        k = int(ks[i])
        lo, hi = float(xs[k - 1]), float(xs[k])
        threshold = (lo + hi) / 2.0
        if not threshold > lo:  # adjacent doubles: the midpoint rounds onto lo
            threshold = hi
        candidate = (float(cost[i]), f, threshold)
        if best is None or candidate < best:
            best = candidate
    return best


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
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def build(self, indices: np.ndarray, depth: int) -> int:
        node = self._new_node()
        y = self.y[indices]
        self.value[node] = float(y.mean())
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(indices) < 2 * self.min_leaf
            or np.all(y == y[0])
        ):
            return node
        p = self.x.shape[1]
        if self.rng is not None and self.max_features < p:
            chosen = self.rng.choice(p, size=self.max_features, replace=False)
        else:
            chosen = np.arange(p)
        split = _best_split(self.x[indices], y, [int(f) for f in chosen], self.min_leaf)
        if split is None:
            return node
        _, f, threshold = split
        mask = self.x[indices, f] < threshold
        self.feature[node] = f
        self.threshold[node] = threshold
        self.left[node] = self.build(indices[mask], depth + 1)
        self.right[node] = self.build(indices[~mask], depth + 1)
        return node

    def finish(self) -> RegressionTree:
        return RegressionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
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
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (len(self.feature_names),):
            raise SchemaMismatch(
                f"expected {len(self.feature_names)} features, got shape {row.shape}"
            )
        return float(np.mean([tree.predict_one(row) for tree in self.trees]))

    def predict(self, histories) -> np.ndarray:
        return np.array([self.predict_row(h.feature_row()) for h in histories], dtype=np.float64)


def _fit_one_tree(index: int, x: np.ndarray, y: np.ndarray, seed: int) -> RegressionTree:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
    sample = rng.integers(0, len(y), size=len(y))
    max_features = max(1, math.ceil(x.shape[1] / 3))
    return fit_tree(x[sample], y[sample], max_features=max_features, rng=rng)


def forest_train(
    table: FeatureTable,
    split: SplitSpec,
    config: ForestConfig,
    train_end=None,
) -> ForestModel:
    """Fit the forest on the chronological training slice of the table.

    Features stay unscaled: trees are invariant to monotone feature maps.
    """
    x = table.features[split.train_slice]
    y = table.targets[split.train_slice]
    if len(y) < 2:
        raise TooFewSamples("need at least 2 training rows")
    return ForestModel(
        trees=tuple(_fit_one_tree(i, x, y, config.seed) for i in range(config.n_trees)),
        feature_names=table.feature_names,
        config=config,
        train_end=train_end,
    )
