import numpy as np
import pytest

from stockcast.errors import StockcastError
from stockcast.evaluation import (
    History,
    correlation_matrix,
    mape,
    rmse,
    walk_forward,
)
from stockcast.dataset import build_feature_table, fit_scaler
from stockcast.models.forest import ForestConfig, forest_train
from stockcast.models.lstm import LstmTopology, NeuralModelArtifact, init_params
from stockcast.models.persistence import PersistenceModel
from stockcast.models.trend import additive_trend_fit
from stockcast.series import AlignedPanel

from conftest import make_panel


# --- metrics ---------------------------------------------------------------


def test_rmse_identity_and_fixture():
    a = np.array([4.0, 5.0, 6.0])
    assert rmse(a, a) == 0.0
    assert rmse([1, 2, 3], [1, 2, 5]) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-12)
    assert rmse([427.0], [426.75]) == pytest.approx(0.25, abs=1e-12)


def test_rmse_translation_covariance():
    rng = np.random.Generator(np.random.PCG64(4))
    pred = rng.normal(0, 1, 25)
    actual = rng.normal(0, 1, 25)
    c = 17.25
    assert rmse(pred + c, actual + c) == pytest.approx(rmse(pred, actual), abs=1e-12)


def test_mape_identity_and_fixture():
    a = np.array([4.0, 5.0])
    assert mape(a, a) == 0.0
    assert mape([98.0], [100.0]) == pytest.approx(2.0, abs=1e-12)


def test_metric_errors():
    with pytest.raises(StockcastError, match="^1 predictions vs 2 actuals$"):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(StockcastError, match="^rmse of empty series$"):
        rmse([], [])
    with pytest.raises(StockcastError, match="^actual value at index 0 is zero; MAPE undefined$"):
        mape([1.0], [0.0])
    with pytest.raises(StockcastError, match="^1 predictions vs 2 actuals$"):
        mape([1.0], [1.0, 2.0])


# --- walk forward ----------------------------------------------------------


def test_persistence_predictions_equal_previous_closes(small_panel: AlignedPanel):
    targets = small_panel.dates[30:]
    entry = walk_forward(PersistenceModel(), small_panel, targets)
    expected = small_panel.close[29:-1]
    assert np.array_equal(entry.predicted, expected)
    assert np.array_equal(entry.actual, small_panel.close[30:])
    assert entry.metrics.n == len(targets)
    assert entry.train_dates == small_panel.dates[:30]


def test_single_date_validation(small_panel: AlignedPanel):
    entry = walk_forward(PersistenceModel(), small_panel, small_panel.dates[-1:])
    assert len(entry.predicted) == 1
    assert entry.metrics.n == 1


def test_shuffled_validation_dates_rejected(small_panel: AlignedPanel):
    targets = [small_panel.dates[31], small_panel.dates[30]]
    with pytest.raises(StockcastError, match="^validation dates must be strictly increasing$"):
        walk_forward(PersistenceModel(), small_panel, targets)


def test_empty_validation_rejected(small_panel: AlignedPanel):
    with pytest.raises(StockcastError, match="^validation range is empty$"):
        walk_forward(PersistenceModel(), small_panel, [])


def test_unknown_date_rejected(small_panel: AlignedPanel):
    from datetime import date

    with pytest.raises(StockcastError, match="^1999-01-01 is not a panel date$"):
        walk_forward(PersistenceModel(), small_panel, [date(1999, 1, 1)])


def test_validation_must_follow_training_range(small_panel: AlignedPanel):
    model = PersistenceModel(train_end=small_panel.dates[35])
    with pytest.raises(StockcastError, match="^validation starts .* but training ran through"):
        walk_forward(model, small_panel, small_panel.dates[30:])
    # strictly after is fine
    walk_forward(model, small_panel, small_panel.dates[36:])


def test_history_serves_each_step_only_its_own_rows(small_panel: AlignedPanel):
    history = History(small_panel, np.array([10, 14]))
    assert history.max_row_read.tolist() == [-1, -1]
    windows = history.windows(5)
    assert np.array_equal(windows, [small_panel.close[6:11], small_panel.close[10:15]])
    assert np.array_equal(history.max_row_read, history.ends)
    with pytest.raises(StockcastError, match="^cannot serve 12 closes from 11 rows$"):
        history.windows(12)


def test_a_walk_forward_reading_an_unscored_sentiment_row_fails():
    panel = make_panel(n=60, seed=3)
    features, targets = build_feature_table(panel)
    model = forest_train(features[:39], targets[:39], ForestConfig(n_trees=3),
                         train_end=panel.dates[39])
    # row 44's news was not scored: its sentiment cells are NaN
    sentiment = {name: col.copy() for name, col in panel.sentiment.items()}
    for col in sentiment.values():
        col[44] = np.nan
    unscored = AlignedPanel(panel.dates, panel.close, panel.gold, panel.brent, panel.gsec,
                            panel.usd_inr, sentiment=sentiment, ticker="TEST")
    # the rows before and after it are read as usual
    for dates in (panel.dates[40:45], panel.dates[46:]):
        assert np.array_equal(walk_forward(model, unscored, dates).predicted,
                              walk_forward(model, panel, dates).predicted)
    message = f"^TEST: the feature row of {panel.dates[44]} is not finite"
    for dates in (panel.dates[40:], panel.dates[45:46]):
        with pytest.raises(StockcastError, match=message):
            walk_forward(model, unscored, dates)


@pytest.mark.parametrize(
    "name, value",
    [("compound", np.nan), ("close", np.nan), ("gold", np.nan), ("usd_inr", np.nan),
     ("compound", np.inf), ("pos", -np.inf)],
)
def test_only_sentiment_cells_may_be_nan(small_panel: AlignedPanel, name, value):
    names = ("close", "gold", "brent", "gsec", "usd_inr")
    columns = {c: getattr(small_panel, c).copy() for c in names}
    sentiment = {c: col.copy() for c, col in small_panel.sentiment.items()}
    (sentiment if name in sentiment else columns)[name][3] = value
    if name in sentiment and np.isnan(value):
        panel = AlignedPanel(small_panel.dates, sentiment=sentiment, **columns)
        assert np.isnan(panel.column(name)[3])
    else:
        with pytest.raises(ValueError, match="^panel columns must be finite$"):
            AlignedPanel(small_panel.dates, sentiment=sentiment, **columns)


def small_neural(panel: AlignedPanel, split_row: int, bidirectional: bool = False,
                 seed: int = 0) -> NeuralModelArtifact:
    """Untrained (seeded) LSTM artifact with a scaler fit on the training rows."""
    topology = LstmTopology(layer_sizes=(3,), dense_sizes=(1,), window=5,
                            bidirectional=bidirectional)
    return NeuralModelArtifact(
        topology=topology,
        weights=init_params(topology, seed).flat,
        scaler=fit_scaler(panel.close[:split_row]),
        history=(),
        seed=seed,
        best_epoch=0,
        train_end=panel.dates[split_row - 1],
    )


def test_walk_forward_leakage_audit_over_random_panels():
    for seed in range(25):
        panel = make_panel(n=30, seed=seed)
        models = [
            additive_trend_fit(panel.close[:20], train_end=panel.dates[19]),
            PersistenceModel(),
            small_neural(panel, 20, seed=seed),
        ]
        for model in models:
            audit: list = []
            walk_forward(model, panel, panel.dates[20:], audit=audit)
            assert [row for row, _ in audit] == list(range(20, 30))
            for target_row, max_read in audit:
                assert max_read <= target_row - 1


@pytest.mark.parametrize("bidirectional", [False, True])
def test_single_date_neural_prediction_equals_full_range_element(bidirectional):
    panel = make_panel(n=60, seed=3)
    model = small_neural(panel, 40, bidirectional=bidirectional, seed=5)
    targets = panel.dates[40:]
    full = walk_forward(model, panel, targets)
    for k in (0, 7, len(targets) - 1):
        single = walk_forward(model, panel, [targets[k]])
        assert single.predicted.shape == (1,)
        np.testing.assert_allclose(single.predicted[0], full.predicted[k], rtol=1e-12, atol=0.0)
        assert single.actual[0] == full.actual[k]


# --- correlation ------------------------------------------------------------


def test_correlation_self_is_one(small_panel: AlignedPanel):
    names, matrix = correlation_matrix(small_panel, ["close", "gold"])
    assert matrix[0, 0] == 1.0 and matrix[1, 1] == 1.0


def test_correlation_antisymmetry():
    panel = make_panel(n=50, seed=1)
    mirrored = AlignedPanel(
        dates=panel.dates,
        close=panel.close,
        gold=-panel.close + 5000.0,  # exactly -x plus shift keeps it positive
        brent=panel.brent,
        gsec=panel.gsec,
        usd_inr=panel.usd_inr,
        sentiment=panel.sentiment,
        ticker=panel.ticker,
    )
    _, matrix = correlation_matrix(mirrored, ["close", "gold"])
    assert matrix[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_independent_noise_is_small():
    rng = np.random.Generator(np.random.PCG64(2))
    n = 1000
    from conftest import weekdays
    from datetime import date

    panel = AlignedPanel(
        dates=tuple(weekdays(date(2015, 1, 1), n)),
        close=100 + rng.normal(0, 1, n),
        gold=1800 + rng.normal(0, 1, n),
        brent=70 + rng.normal(0, 1, n),
        gsec=6 + rng.normal(0, 1, n),
        usd_inr=74 + rng.normal(0, 1, n),
        ticker="X",
    )
    names, matrix = correlation_matrix(panel, ["close", "gold", "brent", "gsec", "usd_inr"])
    off_diag = matrix[~np.eye(len(names), dtype=bool)]
    assert np.all(np.abs(off_diag) < 0.1)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 1.0)


def test_correlation_constant_column_rejected(small_panel: AlignedPanel):
    flat = AlignedPanel(
        dates=small_panel.dates,
        close=small_panel.close,
        gold=np.full(len(small_panel), 1800.0),
        brent=small_panel.brent,
        gsec=small_panel.gsec,
        usd_inr=small_panel.usd_inr,
        ticker="X",
    )
    with pytest.raises(StockcastError, match="^column 'gold' is constant; correlation undefined$"):
        correlation_matrix(flat, ["close", "gold"])
