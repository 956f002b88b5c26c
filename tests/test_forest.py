import numpy as np
import pytest

from stockcast.dataset import build_feature_table, chronological_split
from stockcast.errors import SchemaMismatch, TooFewSamples
from stockcast.evaluation import HistorySlice
from stockcast.models import forest
from stockcast.models.artifacts import dumps_artifact
from stockcast.models.forest import (
    ForestConfig,
    ForestModel,
    RegressionTree,
    _best_split,
    fit_tree,
    forest_train,
)

from cart_oracle import best_split_per_feature, exhaustive_tree, leaf_value
from conftest import make_panel


def assert_tree_equals_oracle(tree: RegressionTree, oracle: dict, node: int = 0):
    if "feature" not in oracle:
        assert tree.feature[node] == -1, f"node {node} should be a leaf"
        assert tree.value[node] == oracle["value"]
        return
    assert tree.feature[node] == oracle["feature"]
    assert tree.threshold[node] == oracle["threshold"]
    assert_tree_equals_oracle(tree, oracle["left"], node + 1)
    assert_tree_equals_oracle(tree, oracle["right"], tree.right[node])


class FeatureRow:
    """A stand-in history that serves one given feature row."""

    def __init__(self, row: np.ndarray) -> None:
        self.row = row

    def feature_row(self) -> np.ndarray:
        return self.row


def small_table(n=30, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """The first 80% of the rows of a random panel's feature table."""
    features, targets = build_feature_table(make_panel(n=n + 1, seed=seed))
    s = chronological_split(n, 0.8)
    return features[:s], targets[:s]


def test_cart_matches_exhaustive_oracle_on_many_small_datasets():
    rng = np.random.Generator(np.random.PCG64(2024))
    for trial in range(200):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 3))
        x = rng.integers(0, 6, size=(n, p)).astype(np.float64)
        y = rng.integers(-10, 11, size=n).astype(np.float64)
        tree = fit_tree(x, y, max_depth=depth, min_samples_leaf=1)
        oracle = exhaustive_tree(x, y, max_depth=depth, min_leaf=1)
        assert_tree_equals_oracle(tree, oracle)


def test_cart_oracle_with_min_leaf_constraint():
    rng = np.random.Generator(np.random.PCG64(77))
    for _ in range(60):
        n = int(rng.integers(4, 13))
        x = rng.integers(0, 5, size=(n, 2)).astype(np.float64)
        y = rng.integers(0, 9, size=n).astype(np.float64)
        tree = fit_tree(x, y, max_depth=2, min_samples_leaf=2)
        oracle = exhaustive_tree(x, y, max_depth=2, min_leaf=2)
        assert_tree_equals_oracle(tree, oracle)


def test_adjacent_doubles_split_without_an_empty_leaf():
    # the midpoint of two adjacent doubles rounds onto the lower one
    x = np.array([[1.0], [np.nextafter(1.0, 2.0)]])
    y = np.array([3.0, 5.0])
    tree = fit_tree(x, y)
    assert not np.any(np.isnan(tree.value))
    one_tree = ForestModel(trees=(tree,), feature_names=("x",), config=ForestConfig(n_trees=1))
    assert np.array_equal(one_tree.predict([FeatureRow(r) for r in x]), y)
    assert_tree_equals_oracle(tree, exhaustive_tree(x, y, max_depth=None))


def test_monotone_data_depth_one_splits_in_the_middle():
    x = np.arange(10.0)[:, None]
    y = np.arange(10.0) * 3.0 + 1.0  # strictly monotone
    tree = fit_tree(x, y, max_depth=1)
    assert tree.feature[0] == 0
    assert x[4, 0] < tree.threshold[0] < x[5, 0]


def test_forest_prediction_invariant_to_tree_order():
    features, targets = small_table(n=40)
    model = forest_train(features, targets, ForestConfig(n_trees=7, seed=3))
    row = features[5]
    shuffled = ForestModel(
        trees=tuple(reversed(model.trees)),
        feature_names=model.feature_names,
        config=model.config,
        train_end=model.train_end,
    )
    assert model.predict_row(row) == pytest.approx(shuffled.predict_row(row), abs=1e-12)


def test_forest_of_identical_stumps_predicts_their_constant():
    stump = RegressionTree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        right=np.array([-1]),
        value=np.array([41.5]),
    )
    model = ForestModel(
        trees=(stump, stump, stump), feature_names=("a", "b"), config=ForestConfig(n_trees=3)
    )
    assert model.predict_row(np.array([0.0, 1.0])) == 41.5


def test_forest_schema_mismatch():
    model = forest_train(*small_table(), ForestConfig(n_trees=2, seed=0))
    with pytest.raises(SchemaMismatch):
        model.predict_row(np.zeros(3))


def test_forest_too_few_samples():
    features, targets = small_table(n=3)
    with pytest.raises(TooFewSamples):
        forest_train(features[:1], targets[:1], ForestConfig(n_trees=1))


def test_bootstrap_changes_trees_but_seed_fixes_them():
    table = small_table(n=50)
    a = forest_train(*table, ForestConfig(n_trees=5, seed=9))
    b = forest_train(*table, ForestConfig(n_trees=5, seed=9))
    c = forest_train(*table, ForestConfig(n_trees=5, seed=10))
    assert dumps_artifact(a) == dumps_artifact(b)
    assert dumps_artifact(a) != dumps_artifact(c)


def test_one_pass_split_scan_equals_the_per_feature_scan():
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(400):
        n = int(rng.integers(1, 30))
        p = int(rng.integers(1, 6))
        x = rng.integers(0, 4, size=(n, p)).astype(np.float64)  # many tied values
        nudged = rng.random((n, p)) < 0.3
        x[nudged] = np.nextafter(x[nudged], np.inf)  # adjacent doubles beside the ties
        if p > 1 and rng.random() < 0.3:
            x[:, -1] = x[:, 0]  # equal costs on two features: the smaller index wins
        y = rng.integers(-3, 4, size=n).astype(np.float64) * rng.choice([1.0, 0.1])
        features = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
        min_leaf = int(rng.integers(1, 4))
        expected = best_split_per_feature(x, y, features, min_leaf)
        assert _best_split(x, y, features, min_leaf) == expected


def per_tree_means(model: ForestModel, rows: np.ndarray) -> np.ndarray:
    """Each row's np.mean over the trees of its leaf value, one row at a time."""
    return np.array([np.mean([leaf_value(t, row) for t in model.trees]) for row in rows])


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
def test_batched_forest_prediction_equals_per_row_tree_means(monkeypatch, chunk_rows):
    panel = make_panel(n=90, seed=5)
    features, targets = build_feature_table(panel)
    model = forest_train(features[:60], targets[:60], ForestConfig(n_trees=11, seed=4))
    if chunk_rows is not None:
        monkeypatch.setattr(forest, "_CHUNK_ELEMENTS", chunk_rows * len(model.trees))
    histories = [HistorySlice(panel, end=j) for j in range(len(panel))]
    expected = per_tree_means(model, np.array([h.feature_row() for h in histories]))
    assert np.array_equal(model.predict(histories), expected)
    # the one-row call of a --predict-date evaluation
    assert np.array_equal(model.predict(histories[70:71]), expected[70:71])
    assert model.predict_row(histories[70].feature_row()) == expected[70]
