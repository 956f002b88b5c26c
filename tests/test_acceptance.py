"""Acceptance gate: every release criterion, one test each, stated tolerances.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (visible with
pytest -s or in captured output). The full-pipeline criteria run the CLI
twice on a copy of the bundled sample dataset, side by side, each run in
fresh interpreters with its own PYTHONHASHSEED.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from stockcast.dataset import build_feature_table, build_windows, chronological_split, fit_scaler
from stockcast.evaluation import mape, rmse, walk_forward
from stockcast.models.arima import ArimaModel, ArimaSpec, arima_fit
from stockcast.models.artifacts import MODEL_KINDS, dumps_artifact
from stockcast.models.forest import ForestConfig, fit_tree, forest_train
from stockcast.models.knn import KnnModel
from stockcast.models.linear import linreg_fit
from stockcast.models.lstm import (
    LstmParams,
    LstmTopology,
    TrainConfig,
    init_params,
    lstm_batch_forward,
    lstm_gradients,
    lstm_train,
)
from stockcast.models.persistence import PersistenceModel
from stockcast.models.trend import additive_trend_fit
from stockcast.sentiment import BUNDLED_LEXICON, parse_lexicon, score_text
from stockcast.series import MACRO_COLUMNS, AlignedPanel

from cart_oracle import exhaustive_tree
from conftest import make_panel
from test_forest import assert_tree_equals_oracle

REPO = Path(__file__).resolve().parent.parent
SAMPLE = REPO / "sample_data"
SRC = REPO / "src"
FIXTURES = Path(__file__).parent / "fixtures" / "sentiment_fixtures.json"


def criterion(name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
            return result

        return wrapper

    return decorate


# --- 1. gradient oracle ----------------------------------------------------


@criterion("gradient-oracle")
def test_gradient_oracle_small_lstm():
    start = time.perf_counter()
    topology = LstmTopology(layer_sizes=(4, 3), dense_sizes=(2, 1), window=8)
    params = init_params(topology, seed=17)
    rng = np.random.Generator(np.random.PCG64(17))
    params.flat += rng.normal(0, 0.1, params.flat.shape)

    x = rng.normal(0, 1, (6, 8))
    y = rng.normal(0, 1, 6)
    _, grads = lstm_gradients(params, topology, x, y)
    analytic = grads.flat

    h = 1e-5
    base = params.flat

    def loss_at(vec: np.ndarray) -> float:
        r = lstm_batch_forward(LstmParams(topology, vec), topology, x) - y
        return float(r @ r) / len(y)

    numeric = np.empty_like(base)
    for k in range(base.size):
        up = base.copy()
        up[k] += h
        dn = base.copy()
        dn[k] -= h
        numeric[k] = (loss_at(up) - loss_at(dn)) / (2 * h)

    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8
    )
    elapsed = time.perf_counter() - start
    assert rel.max() < 1e-4, f"max relative error {rel.max():.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


# --- 2. learning check -------------------------------------------------------


@criterion("learning-check")
def test_lstm_learns_synthetic_sine_plus_trend():
    start = time.perf_counter()
    n = 1000
    t = np.arange(n, dtype=np.float64)
    series = 100.0 + 0.05 * t + 10.0 * np.sin(2 * np.pi * t / 50.0)

    topology = LstmTopology()  # default (128, 64) / (25, 1) / window 60
    split_rows = chronological_split(n, 0.95)
    scaler = fit_scaler(series[:split_rows])
    inputs, targets = build_windows(scaler.apply(series), topology.window)
    n_train = split_rows - topology.window
    config = TrainConfig(epochs=200, batch_size=32, seed=42, early_stop_patience=10)

    artifact = lstm_train(inputs, targets, n_train, topology, config, scaler=scaler)
    assert len(artifact.history) <= 200

    val_x = inputs[n_train:]
    val_y = targets[n_train:]
    predictions = scaler.inverse(lstm_batch_forward(artifact.params, topology, val_x))
    actual = scaler.inverse(val_y)
    error = mape(predictions, actual)
    elapsed = time.perf_counter() - start
    assert error < 2.0, f"validation MAPE {error:.3f}%"
    assert elapsed < 300.0, f"learning check took {elapsed:.0f}s"


# --- 3. CART oracle ----------------------------------------------------------


@criterion("cart-oracle")
def test_cart_equals_exhaustive_oracle():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(31337))
    checked = 0
    for n in range(2, 13):
        for p in (1, 2, 3):
            for depth in (0, 1, 2):
                for _ in range(3):
                    x = rng.integers(0, 7, size=(n, p)).astype(np.float64)
                    y = rng.integers(-12, 13, size=n).astype(np.float64)
                    tree = fit_tree(x, y, max_depth=depth, min_samples_leaf=1)
                    oracle = exhaustive_tree(x, y, max_depth=depth, min_leaf=1)
                    assert_tree_equals_oracle(tree, oracle)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 297
    assert elapsed < 5.0, f"CART oracle suite took {elapsed:.1f}s"


# --- 4. sentiment fixtures ----------------------------------------------------


@criterion("sentiment-fixtures")
def test_sentiment_fixture_corpus():
    lexicon = parse_lexicon(BUNDLED_LEXICON.read_bytes())
    fixtures = json.loads(FIXTURES.read_text())
    assert len(fixtures) >= 20
    for fixture in fixtures:
        score = score_text(fixture["text"], lexicon)
        for key in ("pos", "neg", "neu", "compound"):
            assert abs(getattr(score, key) - fixture[key]) < 1e-6, (fixture["text"], key)
        if fixture["text"].strip():
            assert abs(score.pos + score.neg + score.neu - 1.0) < 1e-9


# --- 5. ARIMA sanity -----------------------------------------------------------


@criterion("arima-sanity")
def test_arima_degenerate_and_ma1_recovery():
    series = np.array([100.0, 101.5, 103.0, 102.0, 105.0, 104.0] * 20)
    null_model = ArimaModel(
        spec=ArimaSpec(),
        ar=np.zeros(0), seasonal_ar=np.zeros(2), ma=np.zeros(1), seasonal_ma=np.zeros(0),
        converged=True, n_evals=0, css=0.0,
    )
    from stockcast.models.arima import one_step_forecast

    expected = series[-1] + series[-12] - series[-13]  # pure differencing recursion
    assert one_step_forecast(null_model, series) == pytest.approx(expected, abs=1e-12)

    rng = np.random.Generator(np.random.PCG64(123))
    eps = rng.normal(0, 1.0, 501)
    ma1 = eps[1:] + 0.5 * eps[:-1]
    model = arima_fit(ma1, ArimaSpec(order=(0, 0, 1), seasonal_order=(0, 0, 0, 1)))
    theta = model.ma[0]
    assert 0.35 <= theta <= 0.65, f"theta estimate {theta:.3f}"


# --- 6. leakage audit -----------------------------------------------------------


def perturbed_from(panel: AlignedPanel, row: int) -> AlignedPanel:
    """`panel` with the close and macro columns scaled by 1.37 and the
    sentiment columns negated, from `row` on."""

    def scaled(column: np.ndarray, factor: float) -> np.ndarray:
        out = column.copy()
        out[row:] *= factor
        return out

    return AlignedPanel(
        dates=panel.dates,
        **{name: scaled(panel.column(name), 1.37) for name in ("close", *MACRO_COLUMNS)},
        sentiment={name: scaled(col, -1.0) for name, col in panel.sentiment.items()},
        ticker=panel.ticker,
    )


@criterion("leakage-audit")
def test_walk_forward_never_reads_target_or_later():
    lstm_topology = LstmTopology(layer_sizes=(3,), dense_sizes=(1,), window=5)
    for seed in range(100):
        panel = make_panel(n=30, seed=seed)
        split_row = 22
        train_end = panel.dates[split_row - 1]
        targets = panel.dates[split_row:]
        closes = panel.close

        scaler = fit_scaler(closes[:split_row])
        inputs, window_targets = build_windows(scaler.apply(closes), 5)
        raw_inputs, raw_targets = build_windows(closes, 5)
        features, feature_targets = build_feature_table(panel)
        models = [
            PersistenceModel(train_end=train_end),
            additive_trend_fit(closes[:split_row], train_end=train_end),
            lstm_train(
                inputs, window_targets, split_row - 5,
                lstm_topology, TrainConfig(epochs=0, batch_size=4, seed=seed),
                scaler=scaler, train_end=train_end,
            ),
            forest_train(
                features[: split_row - 1], feature_targets[: split_row - 1],
                ForestConfig(n_trees=3, seed=seed), train_end=train_end,
            ),
            linreg_fit(
                raw_inputs[: split_row - 5],
                raw_targets[: split_row - 5],
                train_end=train_end,
            ),
            KnnModel(
                k=2, window=5, train_closes=closes[:split_row],
                cv_rmse={}, scaler=scaler, train_end=train_end,
            ),
            ArimaModel(
                spec=ArimaSpec(order=(0, 1, 1), seasonal_order=(0, 0, 0, 1)),
                ar=np.zeros(0), seasonal_ar=np.zeros(0), ma=np.array([0.3]),
                seasonal_ma=np.zeros(0), converged=True, n_evals=0, css=0.0,
                train_end=train_end,
            ),
        ]
        for model in models:
            audit: list = []
            entry = walk_forward(model, panel, targets, audit=audit)
            assert len(audit) == len(targets)
            for target_row, max_read in audit:
                assert max_read < target_row, (
                    f"{type(model).__name__} read row {max_read} for target {target_row}"
                )
            # changing rows j.. changes no prediction for a target row <= j, even
            # where one computation serves every step
            for j in (split_row, split_row + 3, len(panel) - 1):
                changed = walk_forward(model, perturbed_from(panel, j), targets)
                kept = j - split_row + 1
                assert np.array_equal(changed.predicted[:kept], entry.predicted[:kept]), (
                    f"{type(model).__name__}: a change from row {j} moved an earlier prediction"
                )


def test_forest_fit_is_blind_to_rows_from_the_split_on():
    cfg = ForestConfig(n_trees=5, seed=3)
    for seed in range(5):
        panel = make_panel(n=60, seed=seed)
        s = 45
        features, targets = build_feature_table(panel)
        moved_features, moved_targets = build_feature_table(perturbed_from(panel, s))
        assert not np.array_equal(targets[:s], moved_targets[:s])  # row s - 1 reads row s
        trained = forest_train(features[: s - 1], targets[: s - 1], cfg)
        moved = forest_train(moved_features[: s - 1], moved_targets[: s - 1], cfg)
        assert dumps_artifact(trained) == dumps_artifact(moved)


# --- 7 + 8. determinism and end-to-end on the bundled sample --------------------


PIPELINE = (("train", "--model", "all", "--ticker", "all"),
            ("evaluate", "--model", "all", "--ticker", "all"))
BLAS_ONE_THREAD = {name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_pipeline(config_path: Path, out_dir: Path, hash_seed: str) -> tuple[float, str]:
    """Train and evaluate every kind, each command in a fresh interpreter.

    Returns the seconds taken and the stdout, with the out path masked.
    Warnings are errors, as they are in the pytest process.
    Two pipelines run side by side, so each gets one BLAS thread: spinning
    BLAS threads of two processes on the same cores slow both many times over.
    """
    env = {**os.environ, **BLAS_ONE_THREAD, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    stdout = []
    for command in PIPELINE:
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "stockcast.cli", *command,
             "--config", str(config_path), "--out", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=1800,
        )
        assert done.returncode == 0, f"{command[0]} failed:\n{done.stderr}"
        stdout.append(done.stdout.replace(str(out_dir), "<out>"))
    return time.perf_counter() - start, "".join(stdout)


def tree(root: Path) -> dict[str, bytes]:
    """Every file under `root`, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def double_run(tmp_path_factory):
    """Two sample pipelines started together, in fresh interpreters with different hash seeds."""
    root = tmp_path_factory.mktemp("sample_runs")
    data_dir = root / "sample_data"
    shutil.copytree(SAMPLE, data_dir, ignore=shutil.ignore_patterns("out"))
    config_path = data_dir / "config.ini"
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(run_pipeline, config_path, root / f"run{n}", seed)
                for n, seed in ((1, "0"), (2, "987654"))]
        (elapsed_first, stdout_first), (_, stdout_second) = [run.result() for run in runs]
    return root, elapsed_first, (stdout_first, stdout_second)


@criterion("determinism")
def test_pipeline_runs_are_byte_identical(double_run):
    root, _, (stdout_first, stdout_second) = double_run
    first, second = tree(root / "run1"), tree(root / "run2")
    assert sorted(first) == sorted(second)
    assert len([name for name in first if name.startswith("artifacts")]) == 14  # 7 kinds x 2
    for name, content in first.items():
        assert content == second[name], f"{name} differs between runs"
    assert stdout_first == stdout_second


@criterion("end-to-end")
def test_end_to_end_report_shape_and_budget(double_run):
    root, elapsed, _ = double_run
    assert elapsed < 600.0, f"full pipeline took {elapsed:.0f}s"

    report_md = (root / "run1" / "report" / "report.md").read_text()
    assert "## Model comparison" in report_md
    assert "## Final-day predictions" in report_md
    assert "## Per-stock error summary" in report_md
    labels = ("LSTM", "Bidirectional LSTM", "Linear regression", "ARIMA", "KNN",
              "Additive trend", "Random forest (sentiment)")
    for label in labels:
        assert f"| {label} |" in report_md, f"missing model row {label}"

    metrics = (root / "run1" / "report" / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "ticker,model,rmse,mape,n"
    rows = [line.split(",") for line in metrics[1:]]
    assert len(rows) == 14
    seen_kinds = {row[1] for row in rows}
    assert seen_kinds == set(MODEL_KINDS)
    for row in rows:
        assert np.isfinite(float(row[2])) and np.isfinite(float(row[3]))
        assert int(row[4]) >= 1


# --- 9. metric identities ---------------------------------------------------------


@criterion("metric-identities")
def test_metric_identities_and_fixtures():
    rng = np.random.Generator(np.random.PCG64(6))
    a = rng.normal(100, 5, 40)
    assert rmse(a, a) == 0.0
    assert mape(a, a) == 0.0
    pred = rng.normal(100, 5, 40)
    shift = 31.25
    assert abs(rmse(pred + shift, a + shift) - rmse(pred, a)) < 1e-12
    assert abs(rmse([1, 2, 3], [1, 2, 5]) - np.sqrt(4.0 / 3.0)) < 1e-12
    assert abs(mape([98.0], [100.0]) - 2.0) < 1e-12
