from pathlib import Path

import numpy as np
import pytest

from stockcast.config import load_config
from stockcast.dataset import MinMaxScaler, build_windows, chronological_split, fit_scaler
from stockcast.errors import SeriesTooShort, ShapeMismatch, TooFewSamples
from stockcast.evaluation import HistorySlice
from stockcast.models.arima import (
    ArimaModel,
    ArimaSpec,
    apply_differencing,
    arima_fit,
    css_objective,
    one_step_forecast,
    pacf_to_ar,
)
from stockcast.models import knn
from stockcast.models.knn import K_RANGE, KnnModel, choose_k, knn_fit_cv
from stockcast.models.linear import linreg_fit
from stockcast.models.trend import additive_trend_fit
from stockcast.pipeline import PipelineData, train_model

from conftest import make_panel

SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "sample_data" / "config.ini"


# --- linear regression ---------------------------------------------------


def test_linreg_recovers_exact_line():
    x = np.linspace(0, 10, 50)[:, None]
    y = 2.0 * x[:, 0] + 1.0
    model = linreg_fit(x, y)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-10)
    assert model.intercept == pytest.approx(1.0, abs=1e-10)
    assert not model.ridge_fallback


def test_linreg_constant_target():
    x = np.linspace(0, 1, 20)[:, None]
    y = np.full(20, 7.0)
    model = linreg_fit(x, y)
    assert model.coefficients[0] == pytest.approx(0.0, abs=1e-10)
    assert model.intercept == pytest.approx(7.0, abs=1e-10)


def test_linreg_duplicate_column_triggers_ridge():
    rng = np.random.Generator(np.random.PCG64(0))
    col = rng.normal(0, 1, 30)
    x = np.stack([col, col], axis=1)
    y = col * 3.0 + 1.0
    model = linreg_fit(x, y)
    assert model.ridge_fallback
    pred = model.predict_row(x[0])
    assert pred == pytest.approx(y[0], rel=1e-3)


def test_linreg_too_few_rows():
    with pytest.raises(TooFewSamples):
        linreg_fit(np.zeros((3, 5)), np.zeros(3))


# --- knn ------------------------------------------------------------------


def nearest_mean(inputs: np.ndarray, targets: np.ndarray, query, k: int) -> float:
    """The neighbour kernel's mean target of the k inputs nearest to one query."""
    return float(knn._neighbour_means(inputs, targets, np.asarray(query)[None], (k,))[0, 0])


def test_knn_two_nearest_average():
    inputs = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [12.0, 12.0]])
    targets = np.array([10.0, 14.0, 99.0, 98.0])
    assert nearest_mean(inputs, targets, [0.4, 0.0], 2) == 12.0


def test_knn_duplicated_zero_distance_point_dominates():
    inputs = np.array([[5.0, 5.0], [5.0, 5.0], [40.0, 40.0]])
    targets = np.array([7.0, 7.0, 100.0])
    assert nearest_mean(inputs, targets, [5.0, 5.0], 2) == 7.0


def test_knn_with_k_equal_n_predicts_global_mean():
    rng = np.random.Generator(np.random.PCG64(5))
    inputs = rng.normal(0, 1, (9, 4))
    targets = rng.normal(0, 1, 9)
    assert nearest_mean(inputs, targets, np.zeros(4), 9) == pytest.approx(
        targets.mean(), abs=1e-12
    )


def test_knn_model_predicts_from_the_windows_of_its_training_closes():
    # windows (1, 2) (2, 3) (3, 10) (10, 11) (11, 2) are followed by 3 10 11 2 3.5
    closes = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 2.0, 3.5])
    model = KnnModel(
        k=2, window=2, train_closes=closes, cv_rmse={}, scaler=MinMaxScaler(1.0, 11.0)
    )
    assert model.min_history == 2
    assert model.predict_window(np.array([2.0, 3.0])) == 6.5  # the targets of (2, 3) and (1, 2)
    with pytest.raises(ShapeMismatch):
        model.predict_window(np.array([2.0, 3.0, 4.0]))
    with pytest.raises(ValueError, match="k must be between 1 and the 5 training windows"):
        KnnModel(k=6, window=2, train_closes=closes, cv_rmse={}, scaler=model.scaler)


def test_knn_cv_chooses_k_in_range_and_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(3))
    series = np.sin(np.arange(120) / 7.0) + rng.normal(0, 0.05, 120)
    n_train = chronological_split(len(series) - 6, 0.8)
    closes = series[: n_train + 6]
    a = knn_fit_cv(closes, 6, fit_scaler(closes))
    b = knn_fit_cv(closes, 6, fit_scaler(closes))
    assert 2 <= a.k <= 9
    assert a.k == b.k and a.cv_rmse == b.cv_rmse


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


def test_cv_squares_round_as_float64_scalar_squares():
    values = np.random.Generator(np.random.PCG64(9)).normal(0.0, 10.0, (200, 100))
    multiplied = values * values
    scalar = np.array([[np.float64(v) ** 2 for v in row] for row in values])
    assert not np.array_equal(multiplied, scalar)  # the sample holds values that tell them apart
    assert np.array_equal(knn._squares(values), scalar)


@pytest.mark.parametrize(
    "n, folds",
    [(10, 2), (12, 5), (12, 13), (40, 3), (40, 7), (300, 5)],
    ids=["rest-below-k", "small", "an-empty-block", "ties-3-folds", "ties-7-folds", "long"],
)
def test_knn_cv_equals_the_per_k_oracle(n, folds):
    rng = np.random.Generator(np.random.PCG64(n * 100 + folds))
    distinct = rng.integers(0, 3, size=(max(4, n // 4), 3)).astype(np.float64)
    inputs = distinct[rng.integers(0, len(distinct), size=n)]  # duplicate windows tie
    targets = rng.normal(100.0, 5.0, n)
    k, cv_rmse = choose_k(inputs, targets, folds=folds)
    expected = naive_cv_rmse(inputs, targets, folds)
    assert cv_rmse == expected
    assert k == min(K_RANGE, key=lambda k: (expected[k], k))


@pytest.mark.parametrize("chunk_rows", [None, 1, 6])
def test_batched_knn_predict_equals_predict_window(monkeypatch, chunk_rows):
    panel = make_panel(n=90, seed=8)
    closes = np.round(panel.close[:60])  # rounded closes repeat, so distances tie
    scaler = fit_scaler(closes)
    model = knn_fit_cv(closes, 5, scaler)
    inputs, targets = build_windows(closes, 5)
    if chunk_rows is not None:
        monkeypatch.setattr(knn, "_CHUNK_ELEMENTS", chunk_rows * inputs.size)
    histories = [HistorySlice(panel, end=j) for j in range(4, len(panel))]
    windows = [h.last_closes(5) for h in histories]
    expected = np.array([model.predict_window(w) for w in windows])
    assert np.array_equal(model.predict(histories), expected)
    naive = [naive_knn(scaler.apply(inputs), targets, scaler.apply(w), model.k) for w in windows]
    assert np.array_equal(expected, naive)


def test_knn_requires_enough_samples():
    closes = np.arange(8.0)  # 6 windows of 2
    with pytest.raises(TooFewSamples):
        knn_fit_cv(closes, 2, fit_scaler(closes))


# --- arima ----------------------------------------------------------------

MA1_SPEC = ArimaSpec(order=(0, 0, 1), seasonal_order=(0, 0, 0, 1))


def make_ma1(n=500, theta=0.5, seed=123) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    eps = rng.normal(0, 1.0, n + 1)
    return eps[1:] + theta * eps[:-1]


def test_differencing_definition():
    out = apply_differencing(np.array([1.0, 2.0, 4.0]), ArimaSpec(order=(0, 1, 0), seasonal_order=(0, 0, 0, 1)))
    assert out.tolist() == [1.0, 2.0]


def test_pacf_transform_yields_stationary_ar2():
    for r in ([0.9, -0.9], [0.5, 0.5], [-0.99, 0.99]):
        phi = pacf_to_ar(np.array(r))
        # AR(2) stationarity triangle
        assert abs(phi[1]) < 1.0
        assert phi[1] + phi[0] < 1.0
        assert phi[1] - phi[0] < 1.0


def test_null_parameters_follow_pure_differencing_recursion():
    series = np.array([100.0, 101.0, 103.0, 102.0, 105.0] * 20)
    # d=1 only: forecast equals the last observation (random-walk limit)
    spec = ArimaSpec(order=(0, 1, 0), seasonal_order=(0, 0, 0, 1))
    model = ArimaModel(
        spec=spec, ar=np.zeros(0), seasonal_ar=np.zeros(0), ma=np.zeros(0),
        seasonal_ma=np.zeros(0), converged=True, n_evals=0, css=0.0,
    )
    assert one_step_forecast(model, series) == series[-1]
    # full default differencing: y_T + y_{T-11} - y_{T-12}
    default = ArimaSpec()
    model = ArimaModel(
        spec=default, ar=np.zeros(0), seasonal_ar=pacf_to_ar(np.zeros(2)), ma=-pacf_to_ar(np.zeros(1)),
        seasonal_ma=np.zeros(0), converged=True, n_evals=0, css=0.0,
    )
    expected = series[-1] + series[-12] - series[-13]
    assert one_step_forecast(model, series) == pytest.approx(expected, abs=1e-12)


def test_constant_series_forecasts_constant():
    series = np.full(100, 250.0)
    model = arima_fit(series, ArimaSpec())
    assert one_step_forecast(model, series) == pytest.approx(250.0, abs=1e-9)


def test_ma1_recovery_and_grid_search_oracle():
    series = make_ma1()
    model = arima_fit(series, MA1_SPEC)
    theta_hat = model.ma[0]
    assert 0.35 <= theta_hat <= 0.65
    assert abs(theta_hat) < 1.0  # invertibility by construction
    # independent oracle: dense grid over the CSS objective
    grid = np.linspace(-0.95, 0.95, 381)
    w = apply_differencing(series, MA1_SPEC)
    css = [
        css_objective(w, {"ar": np.zeros(0), "seasonal_ar": np.zeros(0),
                          "ma": np.array([t]), "seasonal_ma": np.zeros(0)}, MA1_SPEC)
        for t in grid
    ]
    theta_grid = grid[int(np.argmin(css))]
    assert abs(theta_hat - theta_grid) < 0.02
    assert model.n_evals <= MA1_SPEC.max_evals + 4  # budget respected up to one line search


def test_invertibility_holds_on_random_series():
    rng = np.random.Generator(np.random.PCG64(8))
    for seed in range(3):
        series = 100 + np.cumsum(rng.normal(0, 1, 120))
        model = arima_fit(series, ArimaSpec(order=(0, 1, 1), seasonal_order=(0, 0, 0, 1)))
        assert abs(model.ma[0]) < 1.0


def test_hand_recursion_three_steps():
    series = np.array([10.0, 11.0, 10.5, 12.0, 12.5, 11.5, 13.0, 13.5, 14.0, 13.0])
    theta = 0.4
    spec = ArimaSpec(order=(0, 1, 1), seasonal_order=(0, 0, 0, 1))
    model = ArimaModel(
        spec=spec, ar=np.zeros(0), seasonal_ar=np.zeros(0), ma=np.array([theta]),
        seasonal_ma=np.zeros(0), converged=True, n_evals=0, css=0.0,
    )

    def hand_forecast(history: np.ndarray) -> float:
        w = history[1:] - history[:-1]
        e = 0.0
        for t in range(len(w)):
            e = w[t] - theta * e
        return history[-1] + theta * e

    history = series.copy()
    for _ in range(3):
        expected = hand_forecast(history)
        assert one_step_forecast(model, history) == pytest.approx(expected, abs=1e-12)
        history = np.append(history, expected)


def test_series_too_short():
    with pytest.raises(SeriesTooShort):
        arima_fit(np.arange(50.0), ArimaSpec())


def assert_walk_forward_equals_per_step(model: ArimaModel, panel, split_row: int) -> None:
    """One `predict` over every history equals one `one_step_forecast` per history."""
    histories = [HistorySlice(panel, end=j - 1) for j in range(model.min_history, len(panel))]
    batched = model.predict(histories)
    per_step = np.array([one_step_forecast(model, h.all_closes()) for h in histories])
    cut = split_row - model.min_history
    np.testing.assert_array_equal(batched[cut:], per_step[cut:])  # validation rows
    np.testing.assert_array_equal(batched[:cut], per_step[:cut])  # in-sample rows


def test_walk_forward_equals_per_step_forecasts_on_a_random_walk():
    panel = make_panel(n=300, seed=11)
    model = arima_fit(panel.close[:240], ArimaSpec())
    assert_walk_forward_equals_per_step(model, panel, 240)


def test_walk_forward_equals_per_step_forecasts_on_the_sample():
    data = PipelineData(load_config(SAMPLE_CONFIG))
    model = train_model(data, "arima", "ALFA")
    panel = data.panel("ALFA", sentiment=False)
    assert_walk_forward_equals_per_step(model, panel, data.row_split(panel))


# --- additive trend -------------------------------------------------------


def test_trend_exact_line_extrapolates():
    y = 3.0 + 0.5 * np.arange(40.0)
    model = additive_trend_fit(y)
    assert model.predict_index(40) == pytest.approx(3.0 + 0.5 * 40, abs=1e-10)


def test_trend_constant_series():
    model = additive_trend_fit(np.full(10, 9.25))
    assert model.slope == pytest.approx(0.0, abs=1e-12)
    assert model.predict_index(10) == pytest.approx(9.25, abs=1e-12)


def test_trend_recovers_noisy_slope_within_five_percent():
    rng = np.random.Generator(np.random.PCG64(99))
    t = np.arange(200.0)
    y = 5.0 + 2.0 * t + rng.normal(0, 3.0, 200)
    model = additive_trend_fit(y)
    assert abs(model.slope - 2.0) / 2.0 < 0.05


def test_trend_too_few_points():
    with pytest.raises(TooFewSamples):
        additive_trend_fit(np.array([1.0]))
