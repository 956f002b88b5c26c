import numpy as np
import pytest

from stockcast.dataset import FeatureTable, SplitSpec, build_feature_table, chronological_split
from stockcast.errors import SchemaMismatch, TooFewSamples
from stockcast.models.artifacts import dumps_artifact
from stockcast.models.forest import (
    ForestConfig,
    ForestModel,
    RegressionTree,
    fit_tree,
    forest_train,
)

from cart_oracle import exhaustive_tree
from conftest import make_panel


def assert_tree_equals_oracle(tree: RegressionTree, oracle: dict, node: int = 0):
    if "feature" not in oracle:
        assert tree.feature[node] == -1, f"node {node} should be a leaf"
        assert tree.value[node] == oracle["value"]
        return
    assert tree.feature[node] == oracle["feature"]
    assert tree.threshold[node] == oracle["threshold"]
    assert_tree_equals_oracle(tree, oracle["left"], tree.left[node])
    assert_tree_equals_oracle(tree, oracle["right"], tree.right[node])


def small_table(n=30, seed=0) -> FeatureTable:
    panel = make_panel(n=n + 1, seed=seed)
    return build_feature_table(panel)


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
    assert np.array_equal(tree.predict(x), y)
    assert_tree_equals_oracle(tree, exhaustive_tree(x, y, max_depth=None))


def test_monotone_data_depth_one_splits_in_the_middle():
    x = np.arange(10.0)[:, None]
    y = np.arange(10.0) * 3.0 + 1.0  # strictly monotone
    tree = fit_tree(x, y, max_depth=1)
    assert tree.feature[0] == 0
    assert x[4, 0] < tree.threshold[0] < x[5, 0]


def test_forest_prediction_invariant_to_tree_order():
    table = small_table(n=40)
    split = chronological_split(len(table), 0.8)
    model = forest_train(table, split, ForestConfig(n_trees=7, seed=3))
    row = table.features[5]
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
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.array([41.5]),
    )
    model = ForestModel(
        trees=(stump, stump, stump), feature_names=("a", "b"), config=ForestConfig(n_trees=3)
    )
    assert model.predict_row(np.array([0.0, 1.0])) == 41.5


def test_forest_schema_mismatch():
    table = small_table()
    split = chronological_split(len(table), 0.8)
    model = forest_train(table, split, ForestConfig(n_trees=2, seed=0))
    with pytest.raises(SchemaMismatch):
        model.predict_row(np.zeros(3))


def test_forest_too_few_samples():
    table = small_table(n=3)
    with pytest.raises(TooFewSamples):
        forest_train(table, SplitSpec(n=len(table), split_index=1), ForestConfig(n_trees=1))


def test_bootstrap_changes_trees_but_seed_fixes_them():
    table = small_table(n=50)
    split = chronological_split(len(table), 0.8)
    a = forest_train(table, split, ForestConfig(n_trees=5, seed=9))
    b = forest_train(table, split, ForestConfig(n_trees=5, seed=9))
    c = forest_train(table, split, ForestConfig(n_trees=5, seed=10))
    assert dumps_artifact(a) == dumps_artifact(b)
    assert dumps_artifact(a) != dumps_artifact(c)
