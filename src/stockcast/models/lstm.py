"""Stacked LSTM regressor with exact backpropagation through time.

Everything runs in float64 numpy. Gate order inside the fused weight
matrices is [input, forget, cell, output]. The bidirectional variant runs
a second layer stack, an ordinary one, over the reversed window and
concatenates the two final hidden states before the dense layers, which
are linear.

One forward pass serves training and inference. Only training keeps the
BPTT caches; inference keeps only the running hidden and cell states, so
predicting many windows at once builds no cache.

Training is mini-batch Adam on the one weight vector `LstmParams.flat`,
which is also what the artifact stores, with seeded shuffling and early
stopping on validation RMSE; given identical data, topology, config, and
seed, the returned artifact is bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from itertools import accumulate

import numpy as np

from ..dataset import MinMaxScaler
from ..errors import StockcastError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Rows per inference pass. The (rows, W, 4H) input projection dominates
# inference memory. Measured on a 2-core x86 host with one BLAS thread: on
# the sample config, `train` peaks at 114/135 MiB (lstm/bilstm) with 128
# rows against 176/202 MiB in one pass, and a 470-window forward is no
# faster at 256 rows or in one pass, but 5-15% slower at 64 and more below.
_INFERENCE_ROWS = 128


@dataclass(frozen=True)
class LstmTopology:
    layer_sizes: tuple[int, ...] = (128, 64)
    dense_sizes: tuple[int, ...] = (25, 1)
    window: int = 60
    bidirectional: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        object.__setattr__(self, "dense_sizes", tuple(int(s) for s in self.dense_sizes))
        if not self.layer_sizes or any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must all be >= 1")
        if not self.dense_sizes or any(s < 1 for s in self.dense_sizes):
            raise ValueError("dense sizes must all be >= 1")
        if self.dense_sizes[-1] != 1:
            raise ValueError("final dense layer must have size 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        size = sum(math.prod(shape) for shape in self.shapes())
        if 8 * size > np.iinfo(np.intp).max:
            raise ValueError(f"sizes need {size} weights, more than numpy can hold")

    def shapes(self) -> list[tuple[int, ...]]:
        """The shape of every weight array, in `LstmParams.flat` order: each
        stack's layers (forward stack first) as (D, 4H) w_x, (H, 4H) w_h and
        (4H,) b, then each dense layer's (D, O) w and (O,) b."""
        dims = [1, *self.layer_sizes]
        stack = [s for d, h in zip(dims, dims[1:]) for s in ((d, 4 * h), (h, 4 * h), (4 * h,))]
        head = [self.layer_sizes[-1] * (1 + self.bidirectional), *self.dense_sizes]
        dense = [s for d, o in zip(head, head[1:]) for s in ((d, o), (o,))]
        return stack * (1 + self.bidirectional) + dense


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 10

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        if self.early_stop_patience < 0:
            raise ValueError("patience must be >= 0")


@dataclass(frozen=True)
class LayerParams:
    """One recurrent layer: fused (D, 4H) input and (H, 4H) recurrent weights."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class DenseParams:
    w: np.ndarray
    b: np.ndarray


class LstmParams:
    """Every weight of one network, held in one float64 vector `flat`.

    `stacks` (one layer stack per direction: forward, then reversed) and
    `dense` are views into `flat`, laid out as `LstmTopology.shapes()`
    lists them. Without `flat` the weights start at zero.
    """

    def __init__(self, topology: LstmTopology, flat: np.ndarray | None = None) -> None:
        shapes = topology.shapes()
        sizes = [math.prod(shape) for shape in shapes]
        total = sum(sizes)
        self.flat = np.zeros(total) if flat is None else flat
        if self.flat.shape != (total,):
            raise ValueError(
                f"weights must be a vector of {total} values, not shape {list(self.flat.shape)}"
            )
        views = iter([
            self.flat[end - size : end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, accumulate(sizes))
        ])
        self.stacks = [
            [LayerParams(next(views), next(views), next(views)) for _ in topology.layer_sizes]
            for _ in range(1 + topology.bidirectional)
        ]
        self.dense = [DenseParams(next(views), next(views)) for _ in topology.dense_sizes]


def init_params(topology: LstmTopology, seed: int) -> LstmParams:
    # Xavier-uniform input and dense weights, scaled-uniform recurrent
    # weights, forget-gate bias 1.0 to keep early cell states alive
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    params = LstmParams(topology)
    for layer in [layer for stack in params.stacks for layer in stack]:
        d_in, hidden = layer.w_x.shape[0], layer.w_h.shape[0]
        limit_x = np.sqrt(6.0 / (d_in + hidden))
        layer.w_x[...] = rng.uniform(-limit_x, limit_x, size=layer.w_x.shape)
        limit_h = 1.0 / np.sqrt(hidden)
        layer.w_h[...] = rng.uniform(-limit_h, limit_h, size=layer.w_h.shape)
        layer.b[hidden : 2 * hidden] = 1.0
    for dense in params.dense:
        d_in, d_out = dense.w.shape
        limit = np.sqrt(6.0 / (d_in + d_out))
        dense.w[...] = rng.uniform(-limit, limit, size=dense.w.shape)
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function in the exact form 0.5 * (1 + tanh(z / 2)): one
    elementwise pass, no masking, and no overflow for any finite z."""
    out = np.tanh(0.5 * z)
    out += 1.0
    out *= 0.5
    return out


@dataclass
class _LayerCache:
    inputs: np.ndarray      # (B, W, D)
    h: np.ndarray           # (B, W + 1, H) hidden states: h[:, t] enters step t, h[:, 0] = 0
    c: np.ndarray           # (B, W + 1, H) cell states, indexed like h
    gates: np.ndarray       # (B, W, 4H) post-activation [i, f, g, o]
    tanh_c: np.ndarray      # (B, W, H)


def _input_projection(layer: LayerParams, seq: np.ndarray) -> np.ndarray:
    """x_t @ W_x + b for every step at once, as a (B, W, 4H) array."""
    batch, steps, d_in = seq.shape
    zx = seq.reshape(batch * steps, d_in) @ layer.w_x
    zx += layer.b
    return zx.reshape(batch, steps, -1)


def _layer_forward(
    layer: LayerParams, seq: np.ndarray, keep_cache: bool
) -> tuple[np.ndarray, _LayerCache | None]:
    """One layer's (B, W, H) output sequence, plus everything BPTT needs
    when `keep_cache` is true. Without a cache the cell state is kept only
    as it runs."""
    batch, steps, _ = seq.shape
    hidden = layer.w_h.shape[0]
    zx = _input_projection(layer, seq)
    h_all = np.zeros((batch, steps + 1, hidden))
    cache = None
    if keep_cache:
        cache = _LayerCache(
            inputs=seq,
            h=h_all,
            c=np.zeros((batch, steps + 1, hidden)),
            gates=np.empty((batch, steps, 4 * hidden)),
            tanh_c=np.empty((batch, steps, hidden)),
        )
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    for t in range(steps):
        z = zx[:, t] + h @ layer.w_h
        i_f = _sigmoid(z[:, : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(z[:, 3 * hidden :])
        if cache is not None:
            gates = cache.gates[:, t]
            gates[:, : 2 * hidden] = i_f
            gates[:, 2 * hidden : 3 * hidden] = g
            gates[:, 3 * hidden :] = o
        c = i_f[:, hidden:] * c + i_f[:, :hidden] * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        if cache is not None:
            cache.c[:, t + 1] = c
            cache.tanh_c[:, t] = tanh_c
        h_all[:, t + 1] = h
    return h_all[:, 1:], cache


def _layer_backward(
    layer: LayerParams, cache: _LayerCache, d_out_seq: np.ndarray, grads: LayerParams
) -> np.ndarray:
    """Write one layer's gradients into `grads` given dL/d(output sequence);
    return dL/d(input sequence)."""
    batch, steps, hidden = cache.tanh_c.shape
    dz_all = np.empty((batch, steps, 4 * hidden))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        i = cache.gates[:, t, :hidden]
        f = cache.gates[:, t, hidden : 2 * hidden]
        g = cache.gates[:, t, 2 * hidden : 3 * hidden]
        o = cache.gates[:, t, 3 * hidden :]
        tanh_c = cache.tanh_c[:, t]
        dh = d_out_seq[:, t] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        dg = dc * i
        df = dc * cache.c[:, t]
        dc_next = dc * f
        dz = dz_all[:, t]
        dz[:, :hidden] = di * i * (1.0 - i)
        dz[:, hidden : 2 * hidden] = df * f * (1.0 - f)
        dz[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g * g)
        dz[:, 3 * hidden :] = do * o * (1.0 - o)
        dh_next = dz @ layer.w_h.T
    flat_dz = dz_all.reshape(batch * steps, 4 * hidden)
    d_in = cache.inputs.shape[2]
    np.matmul(cache.inputs.reshape(batch * steps, d_in).T, flat_dz, out=grads.w_x)
    np.matmul(cache.h[:, :-1].reshape(batch * steps, hidden).T, flat_dz, out=grads.w_h)
    flat_dz.sum(axis=0, out=grads.b)
    return (flat_dz @ layer.w_x.T).reshape(batch, steps, d_in)


@dataclass
class _ForwardCache:
    stacks: list[list[_LayerCache]]   # one list per stack, empty without keep_cache
    dense_inputs: list[np.ndarray]
    output: np.ndarray                # (B,)


def _forward(params: LstmParams, inputs: np.ndarray, keep_cache: bool = True) -> _ForwardCache:
    """The network over a (B, W) batch of scaled windows.

    Runs the first stack over the window and a second one, a BiLSTM's,
    over the reversed window, then the linear dense head. `keep_cache`
    keeps each layer's BPTT cache for lstm_gradients; inference passes False.
    """
    seq = inputs[:, :, None]
    all_caches: list[list[_LayerCache]] = []
    finals = []
    for stack, current in zip(params.stacks, (seq, seq[:, ::-1])):
        caches: list[_LayerCache] = []
        for layer in stack:
            current, cache = _layer_forward(layer, current, keep_cache)
            if cache is not None:
                caches.append(cache)
        all_caches.append(caches)
        finals.append(current[:, -1])
    a = np.concatenate(finals, axis=1)  # the dense head reads every stack's final state
    dense_inputs: list[np.ndarray] = []
    for dense in params.dense:
        dense_inputs.append(a)
        a = a @ dense.w + dense.b
    return _ForwardCache(stacks=all_caches, dense_inputs=dense_inputs, output=a[:, 0])


def lstm_batch_forward(params: LstmParams, topology: LstmTopology, inputs: np.ndarray) -> np.ndarray:
    """Predict the scaled next value of each row of a (N, W) batch of scaled windows.

    Inference only: no BPTT cache is built.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != topology.window:
        raise StockcastError(f"expected (batch, {topology.window}) windows")
    out = np.empty(len(inputs))
    for start in range(0, len(inputs), _INFERENCE_ROWS):
        rows = inputs[start : start + _INFERENCE_ROWS]
        out[start : start + len(rows)] = _forward(params, rows, keep_cache=False).output
    return out


def lstm_gradients(
    params: LstmParams,
    topology: LstmTopology,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, LstmParams]:
    """Mean-squared-error loss and its exact gradients for one batch."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(inputs) == 0:
        raise StockcastError("empty batch")
    if inputs.ndim != 2 or inputs.shape[1] != topology.window or len(inputs) != len(targets):
        raise StockcastError("batch shapes do not match the topology")
    cache = _forward(params, inputs)
    batch = len(inputs)
    residual = cache.output - targets
    loss = float(residual @ residual) / batch

    grads = LstmParams(topology)
    d_a = (2.0 / batch) * residual[:, None]
    for k in range(len(params.dense) - 1, -1, -1):
        np.matmul(cache.dense_inputs[k].T, d_a, out=grads.dense[k].w)
        d_a.sum(axis=0, out=grads.dense[k].b)
        d_a = d_a @ params.dense[k].w.T

    # d_a holds dL/d(final hidden states), one column block per stack
    hidden_last = topology.layer_sizes[-1]
    for s, (stack, caches) in enumerate(zip(params.stacks, cache.stacks)):
        d_out = np.zeros_like(caches[-1].tanh_c)
        d_out[:, -1] = d_a[:, s * hidden_last : (s + 1) * hidden_last]
        for li in range(len(stack) - 1, -1, -1):
            d_out = _layer_backward(stack[li], caches[li], d_out, grads.stacks[s][li])
    return loss, grads


@dataclass(frozen=True)
class NeuralModelArtifact:
    """Trained network plus everything needed to reproduce and apply it."""

    topology: LstmTopology
    weights: np.ndarray  # LstmParams.flat
    scaler: MinMaxScaler
    history: tuple[dict, ...]
    seed: int
    best_epoch: int
    train_end: date | None = None  # TradingDate of the last training row

    def __post_init__(self) -> None:
        # `params`, the network's views into `weights`; it refuses weights
        # that do not fit the topology
        object.__setattr__(self, "params", LstmParams(self.topology, self.weights))

    @property
    def kind(self) -> str:
        return "bilstm" if self.topology.bidirectional else "lstm"

    @property
    def min_history(self) -> int:
        return self.topology.window

    def predict(self, history) -> np.ndarray:
        # no step reads a prediction, so all windows go through one forward
        return predict_next(self, history.windows(self.min_history))


def predict_next(artifact: NeuralModelArtifact, recent_closes: np.ndarray) -> np.ndarray:
    """Next closes for a (N, W) array of raw-close windows, as (N,).

    Each row is scaled, the network runs once over the whole batch, and
    the outputs are unscaled.
    """
    recent = np.asarray(recent_closes, dtype=np.float64)
    window = artifact.topology.window
    if recent.ndim != 2 or recent.shape[1] != window:
        raise StockcastError(f"expected (N, {window}) recent closes")
    scaled = artifact.scaler.apply(recent)
    return artifact.scaler.inverse(lstm_batch_forward(artifact.params, artifact.topology, scaled))


# a diverging run overflows; its finiteness checks report that as the one error
@np.errstate(over="ignore", invalid="ignore")
def lstm_train(
    inputs: np.ndarray,
    targets: np.ndarray,
    n_train: int,
    topology: LstmTopology,
    config: TrainConfig,
    scaler: MinMaxScaler,
    train_end=None,
) -> NeuralModelArtifact:
    """Mini-batch Adam training with early stopping on validation RMSE.

    The first `n_train` (window, target) rows train the network and the
    rest are the validation rows. Batches are drawn in seeded-shuffled
    order; the artifact carries the parameters of the best validation
    epoch. epochs=0 returns the seeded initial parameters with an empty
    history.
    """
    if inputs.ndim != 2 or inputs.shape[1] != topology.window:
        raise StockcastError("window length does not match topology")
    train_x, val_x = inputs[:n_train], inputs[n_train:]
    train_y, val_y = targets[:n_train], targets[n_train:]
    if len(val_y) == 0:
        raise StockcastError(f"{n_train} training rows leave no validation rows")
    if len(train_x) < config.batch_size:
        raise StockcastError(
            f"{len(train_x)} training samples < batch size {config.batch_size}"
        )

    params = init_params(topology, config.seed)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 1])))

    flat = params.flat
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    step = 0

    best_val = np.inf
    best_flat = flat.copy()
    best_epoch = 0
    history: list[dict] = []
    since_best = 0

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_x))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = lstm_gradients(params, topology, train_x[batch], train_y[batch])
            if not np.isfinite(loss):
                raise StockcastError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(batch)
            step += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads.flat
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads.flat * grads.flat
            m_hat = m / (1.0 - ADAM_BETA1**step)
            v_hat = v / (1.0 - ADAM_BETA2**step)
            flat -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        train_loss = epoch_loss / len(train_x)

        val_pred = lstm_batch_forward(params, topology, val_x)
        val_residual = val_pred - val_y
        val_loss = float(val_residual @ val_residual) / len(val_y)
        if not np.isfinite(val_loss):
            raise StockcastError(f"non-finite validation loss at epoch {epoch}")
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})

        val_rmse = np.sqrt(val_loss)
        if val_rmse < best_val:
            best_val = val_rmse
            best_flat = flat.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best > config.early_stop_patience:
                break

    return NeuralModelArtifact(
        topology=topology,
        weights=best_flat,
        scaler=scaler,
        history=tuple(history),
        seed=config.seed,
        best_epoch=best_epoch,
        train_end=train_end,
    )
