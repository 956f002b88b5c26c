import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from stockcast.dataset import MinMaxScaler, build_windows, chronological_split, fit_scaler
from stockcast.errors import StockcastError
from stockcast.models.artifacts import dumps_artifact, loads_artifact
from stockcast.models.lstm import (
    LstmParams,
    LstmTopology,
    NeuralModelArtifact,
    TrainConfig,
    _INFERENCE_ROWS,
    _forward,
    init_params,
    lstm_batch_forward,
    lstm_gradients,
    lstm_train,
    predict_next,
)

RNG = np.random.Generator(np.random.PCG64(1234))


def small_topology() -> LstmTopology:
    return LstmTopology(layer_sizes=(4, 3), dense_sizes=(2, 1), window=8)


def randomized_params(topology: LstmTopology, seed: int = 5) -> LstmParams:
    params = init_params(topology, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    params.flat += rng.normal(0, 0.1, params.flat.shape)
    return params


def forward_one(params: LstmParams, topology: LstmTopology, window) -> float:
    """The scaled prediction for one window, through the batched forward."""
    return float(lstm_batch_forward(params, topology, np.asarray(window)[None, :])[0])


def numeric_gradient(params: LstmParams, topology, x, y, h=1e-5) -> np.ndarray:
    base = params.flat
    grad = np.empty_like(base)

    def loss_at(vec):
        out = lstm_batch_forward(LstmParams(topology, vec), topology, x)
        r = out - y
        return float(r @ r) / len(y)

    for k in range(base.size):
        up = base.copy()
        up[k] += h
        dn = base.copy()
        dn[k] -= h
        grad[k] = (loss_at(up) - loss_at(dn)) / (2 * h)
    return grad


def test_params_are_views_that_tile_the_flat_vector_in_layout_order():
    topology = replace(small_topology(), bidirectional=True)
    params = init_params(topology, 0)
    views = [a for stack in params.stacks for layer in stack for a in vars(layer).values()]
    views += [a for dense in params.dense for a in vars(dense).values()]
    assert [a.shape for a in views] == topology.shapes()
    assert all(a.base is params.flat for a in views)
    assert np.array_equal(np.concatenate([a.ravel() for a in views]), params.flat)
    params.dense[-1].b[0] = 7.0
    assert params.flat[-1] == 7.0


@pytest.mark.parametrize(
    "bidirectional, digest",
    [
        (False, "8f89c9d265dc5a62ee33ffd8b759543692c8b0a1c5b38eb508b68dbd9b31d1d4"),
        (True, "8425a84a1fea9118e5a3f7638f3384f05aab996b0ef09390dfb9fca5c39e713a"),
    ],
)
def test_init_stream_and_layout_are_pinned(bidirectional, digest):
    # PCG64 draws and the layout alone make these bytes, so any host agrees;
    # reordering the draws or the layout changes them, and the double run
    # cannot see that, since it compares two runs of the same code
    topology = replace(small_topology(), bidirectional=bidirectional)
    flat = init_params(topology, 0).flat
    assert hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest() == digest


def test_zero_params_output_is_final_dense_bias():
    topology = LstmTopology(layer_sizes=(3,), dense_sizes=(2, 1), window=4)
    params = LstmParams(topology)
    params.dense[-1].b[0] = 0.625
    assert forward_one(params, topology, np.array([0.1, 0.5, -0.2, 0.9])) == 0.625


def test_forward_is_deterministic():
    topology = small_topology()
    params = randomized_params(topology)
    window = RNG.normal(0, 1, 8)
    assert forward_one(params, topology, window) == forward_one(params, topology, window)


def test_tiny_network_matches_hand_computed_recurrence():
    # W=2, one layer of 2 units, dense (1,); parameters set by hand
    topology = LstmTopology(layer_sizes=(2,), dense_sizes=(1,), window=2)
    params = init_params(topology, 0)
    w_x = np.array([[0.5, -0.3, 0.2, 0.1, 0.4, -0.2, 0.3, -0.1]])
    w_h = np.array(
        [
            [0.1, 0.2, -0.1, 0.0, 0.3, -0.3, 0.2, 0.1],
            [-0.2, 0.1, 0.0, 0.2, -0.1, 0.3, 0.1, -0.2],
        ]
    )
    b = np.array([0.01, -0.02, 0.03, 0.04, -0.01, 0.02, -0.03, 0.05])
    dense_w = np.array([[1.5], [-2.0]])
    dense_b = np.array([0.25])
    params.stacks[0][0].w_x[...] = w_x
    params.stacks[0][0].w_h[...] = w_h
    params.stacks[0][0].b[...] = b
    params.dense[0].w[...] = dense_w
    params.dense[0].b[...] = dense_b

    def sigmoid(z: float) -> float:
        return 1.0 / (1.0 + math.exp(-z))

    window = [0.7, -0.4]
    h = [0.0, 0.0]
    c = [0.0, 0.0]
    for x in window:
        # gate order [i, f, g, o], two units each
        z = [
            x * w_x[0][k] + h[0] * w_h[0][k] + h[1] * w_h[1][k] + b[k]
            for k in range(8)
        ]
        i = [sigmoid(z[0]), sigmoid(z[1])]
        f = [sigmoid(z[2]), sigmoid(z[3])]
        g = [math.tanh(z[4]), math.tanh(z[5])]
        o = [sigmoid(z[6]), sigmoid(z[7])]
        c = [f[u] * c[u] + i[u] * g[u] for u in range(2)]
        h = [o[u] * math.tanh(c[u]) for u in range(2)]
    expected = h[0] * dense_w[0][0] + h[1] * dense_w[1][0] + dense_b[0]

    got = forward_one(params, topology, np.array(window))
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("bidirectional", [False, True])
def test_gradients_match_finite_differences(bidirectional):
    topology = replace(small_topology(), bidirectional=bidirectional)
    params = randomized_params(topology)
    x = RNG.normal(0, 1, (6, 8))
    y = RNG.normal(0, 1, 6)
    _, grads = lstm_gradients(params, topology, x, y)
    numeric = numeric_gradient(params, topology, x, y)
    analytic = grads.flat
    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8
    )
    assert rel.max() < 1e-4


def test_gradient_zero_at_stationary_point():
    topology = LstmTopology(layer_sizes=(3,), dense_sizes=(1,), window=5)
    params = randomized_params(topology)
    x = RNG.normal(0, 1, (4, 5))
    y = lstm_batch_forward(params, topology, x)  # targets equal outputs
    loss, grads = lstm_gradients(params, topology, x, y)
    assert loss == 0.0
    assert np.all(grads.dense[-1].b == 0.0)


def test_doubling_targets_keeps_gradients_finite():
    topology = small_topology()
    params = randomized_params(topology)
    x = RNG.normal(0, 1, (5, 8))
    y = RNG.normal(0, 1, 5)
    _, g1 = lstm_gradients(params, topology, x, y)
    _, g2 = lstm_gradients(params, topology, x, 2 * y)
    assert np.all(np.isfinite(g1.flat))
    assert np.all(np.isfinite(g2.flat))


def test_gate_activations_bounded_and_cells_finite():
    topology = small_topology()
    params = randomized_params(topology)
    x = RNG.normal(0, 2, (7, 8))
    cache = _forward(params, x)
    for layer_cache in cache.stacks[0]:
        hidden = layer_cache.c.shape[2]
        gates = layer_cache.gates
        sig = np.concatenate(
            [gates[:, :, :hidden], gates[:, :, hidden : 2 * hidden], gates[:, :, 3 * hidden :]],
            axis=2,
        )
        assert np.all(sig > 0.0) and np.all(sig < 1.0)
        assert np.all(np.isfinite(layer_cache.c))
        assert np.all(np.abs(layer_cache.tanh_c) <= 1.0)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_cache_free_forward_equals_training_forward(bidirectional):
    topology = replace(small_topology(), bidirectional=bidirectional)
    params = randomized_params(topology)
    x = RNG.normal(0, 1, (11, 8))
    inference = lstm_batch_forward(params, topology, x)
    assert np.array_equal(inference, _forward(params, x).output)
    free = _forward(params, x, keep_cache=False)
    assert free.stacks and all(caches == [] for caches in free.stacks)


def test_bidirectional_differs_on_non_palindromic_window():
    window = RNG.normal(0, 1, 10)
    uni = LstmTopology(layer_sizes=(4,), dense_sizes=(1,), window=10, bidirectional=False)
    bi = LstmTopology(layer_sizes=(4,), dense_sizes=(1,), window=10, bidirectional=True)
    out_uni = forward_one(init_params(uni, 3), uni, window)
    params_bi = init_params(bi, 3)
    out_bi = forward_one(params_bi, bi, window)
    assert out_uni != out_bi
    # and the reversed window changes the bidirectional output too
    assert forward_one(params_bi, bi, window[::-1]) != out_bi


def test_shape_mismatch_errors():
    topology = small_topology()
    params = init_params(topology, 0)
    with pytest.raises(StockcastError, match=r"^expected \(batch, 8\) windows$"):
        lstm_batch_forward(params, topology, np.zeros((1, 5)))


def make_sine_dataset(n=260, window=12):
    t = np.arange(n, dtype=np.float64)
    series = np.sin(2 * np.pi * t / 40.0) * 0.4 + 0.5
    return build_windows(series, window)


def test_training_is_bit_deterministic():
    inputs, targets = make_sine_dataset()
    n_train = chronological_split(len(targets), 0.9)
    topology = LstmTopology(layer_sizes=(6,), dense_sizes=(4, 1), window=12)
    config = TrainConfig(epochs=3, batch_size=16, seed=42)
    a = lstm_train(inputs, targets, n_train, topology, config, scaler=MinMaxScaler(0.0, 1.0))
    b = lstm_train(inputs, targets, n_train, topology, config, scaler=MinMaxScaler(0.0, 1.0))
    assert dumps_artifact(a) == dumps_artifact(b)


def test_epochs_zero_returns_initial_params():
    inputs, targets = make_sine_dataset()
    n_train = chronological_split(len(targets), 0.9)
    topology = LstmTopology(layer_sizes=(5,), dense_sizes=(1,), window=12)
    config = TrainConfig(epochs=0, batch_size=8, seed=11)
    artifact = lstm_train(inputs, targets, n_train, topology, config, scaler=MinMaxScaler(0.0, 1.0))
    assert artifact.history == ()
    assert artifact.best_epoch == 0
    assert np.array_equal(artifact.weights, init_params(topology, 11).flat)


def test_training_reduces_validation_loss():
    inputs, targets = make_sine_dataset()
    n_train = chronological_split(len(targets), 0.9)
    topology = LstmTopology(layer_sizes=(8,), dense_sizes=(4, 1), window=12)
    config = TrainConfig(epochs=25, batch_size=16, seed=1, early_stop_patience=25)
    artifact = lstm_train(inputs, targets, n_train, topology, config, scaler=MinMaxScaler(0.0, 1.0))
    losses = [h["val_loss"] for h in artifact.history]
    assert losses[-1] < losses[0]
    # best-so-far validation loss is monotone by construction
    best = np.minimum.accumulate(losses)
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))


def test_train_rejects_batch_larger_than_train_slice():
    inputs, targets = make_sine_dataset(n=40, window=5)
    with pytest.raises(StockcastError, match="^10 training samples < batch size 32$"):
        lstm_train(inputs, targets, 10, LstmTopology(layer_sizes=(4,), dense_sizes=(1,), window=5),
                   TrainConfig(epochs=1, batch_size=32, seed=0), scaler=MinMaxScaler(0.0, 1.0))


@pytest.mark.parametrize("n_train", [35, 36])
def test_train_rejects_a_split_without_validation_rows(n_train):
    inputs, targets = make_sine_dataset(n=40, window=5)  # 35 windows
    with pytest.raises(StockcastError, match="no validation rows"):
        lstm_train(inputs, targets, n_train,
                   LstmTopology(layer_sizes=(4,), dense_sizes=(1,), window=5),
                   TrainConfig(epochs=1, batch_size=8, seed=0), scaler=MinMaxScaler(0.0, 1.0))


def test_predict_next_inverse_scaling_plumbing(monkeypatch):
    topology = LstmTopology(layer_sizes=(2,), dense_sizes=(1,), window=3)
    params = init_params(topology, 0)
    scaler = fit_scaler(np.array([100.0, 200.0]))
    artifact = NeuralModelArtifact(
        topology=topology,
        weights=params.flat,
        scaler=scaler,
        history=(),
        seed=0,
        best_epoch=0,
    )
    closes = np.array([[120.0, 150.0, 175.0], [101.0, 102.0, 103.0]])
    seen = []

    def copy_last(p, t, x):
        seen.append(x)
        return x[:, -1]

    # a network that copies the last scaled value back out checks both the
    # input scaling and the inverse scaling
    with monkeypatch.context() as m:
        m.setattr("stockcast.models.lstm.lstm_batch_forward", copy_last)
        out = predict_next(artifact, closes)
    assert np.array_equal(seen[0], [[0.2, 0.5, 0.75], [0.01, 0.02, 0.03]])
    assert out.shape == (2,)
    assert np.array_equal(out, [175.0, 103.0])
    # zero network whose output is the final dense bias: 0.75 scaled -> 175 raw
    params.flat[...] = 0.0
    params.dense[-1].b[0] = 0.75
    assert np.array_equal(predict_next(artifact, closes), [175.0, 175.0])
    with pytest.raises(StockcastError, match=r"^expected \(N, 3\) recent closes$"):
        predict_next(artifact, np.array([[1.0, 2.0]]))
    with pytest.raises(StockcastError, match=r"^expected \(N, 3\) recent closes$"):
        predict_next(artifact, np.array([120.0, 150.0, 175.0]))


@pytest.mark.parametrize("bidirectional", [False, True])
def test_batched_predict_next_matches_one_window_at_a_time(bidirectional):
    topology = LstmTopology(layer_sizes=(5, 3), dense_sizes=(4, 1), window=9,
                            bidirectional=bidirectional)
    artifact = NeuralModelArtifact(
        topology=topology,
        weights=randomized_params(topology, seed=21).flat,
        scaler=fit_scaler(np.array([80.0, 140.0])),
        history=(),
        seed=21,
        best_epoch=0,
    )
    n = 2 * _INFERENCE_ROWS + 37  # spans several inference passes
    closes = RNG.uniform(70.0, 150.0, (n, 9))
    batched = predict_next(artifact, closes)
    one_by_one = np.array([predict_next(artifact, row[None, :])[0] for row in closes])
    assert batched.shape == (n,)
    np.testing.assert_allclose(batched, one_by_one, rtol=1e-12, atol=0.0)


def test_artifact_round_trip_bit_exact():
    inputs, targets = make_sine_dataset()
    n_train = chronological_split(len(targets), 0.9)
    topology = LstmTopology(layer_sizes=(4,), dense_sizes=(2, 1), window=12)
    artifact = lstm_train(
        inputs, targets, n_train, topology, TrainConfig(epochs=2, batch_size=16, seed=9),
        scaler=MinMaxScaler(0.0, 1.0),
    )
    text = dumps_artifact(artifact)
    again = dumps_artifact(loads_artifact(text))
    assert text == again
