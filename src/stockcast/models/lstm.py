"""Stacked LSTM regressor with exact backpropagation through time.

Everything runs in float64 numpy. Gate order inside the fused weight
matrices is [input, forget, cell, output]. The bidirectional variant runs
a second layer stack, an ordinary one, over the reversed window and
concatenates the two final hidden states before the dense layers, which
are linear.

One forward pass serves training and inference. Only training keeps the
BPTT caches; inference keeps only the running hidden and cell states, so
predicting many windows at once builds no cache.

Training is mini-batch Adam with seeded shuffling and early stopping on
validation RMSE; given identical data, topology, config, and seed, the
returned artifact is bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from ..dataset import MinMaxScaler
from ..errors import DivergedLoss, ShapeMismatch, TooFewSamples

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
        # a layer's (D, 4H) and (H, 4H) weights and a BiLSTM head's must fit numpy
        dims, head = [1, *self.layer_sizes], [2 * self.layer_sizes[-1], *self.dense_sizes]
        largest = max([4 * h * max(d, h) for d, h in zip(dims, dims[1:])]
                      + [d * o for d, o in zip(head, head[1:])])
        if 8 * largest > np.iinfo(np.intp).max:
            raise ValueError(f"sizes need a weight array of {largest} values, more than numpy can hold")


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


@dataclass
class LayerParams:
    """One recurrent layer: fused (D, 4H) input and (H, 4H) recurrent weights."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray


@dataclass
class DenseParams:
    w: np.ndarray
    b: np.ndarray


@dataclass
class LstmParams:
    stacks: list[list[LayerParams]]  # one layer stack per direction: forward, then reversed
    dense: list[DenseParams]

    def arrays(self) -> list[np.ndarray]:
        """All parameter tensors in a fixed, serialization-stable order."""
        out: list[np.ndarray] = []
        for stack in self.stacks:
            for layer in stack:
                out += [layer.w_x, layer.w_h, layer.b]
        for dense in self.dense:
            out += [dense.w, dense.b]
        return out

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def unflatten(self, flat: np.ndarray) -> None:
        """Write a flat vector back into the parameter tensors in place."""
        offset = 0
        for a in self.arrays():
            a[...] = flat[offset : offset + a.size].reshape(a.shape)
            offset += a.size
        if offset != flat.size:
            raise ShapeMismatch("flat vector does not match parameter count")

    def copy(self) -> "LstmParams":
        return LstmParams(
            stacks=[
                [LayerParams(l.w_x.copy(), l.w_h.copy(), l.b.copy()) for l in stack]
                for stack in self.stacks
            ],
            dense=[DenseParams(d.w.copy(), d.b.copy()) for d in self.dense],
        )


def _init_layer(rng: np.random.Generator, d_in: int, hidden: int) -> LayerParams:
    # Xavier-uniform input weights, scaled-uniform recurrent weights,
    # forget-gate bias 1.0 to keep early cell states alive
    limit_x = np.sqrt(6.0 / (d_in + hidden))
    w_x = rng.uniform(-limit_x, limit_x, size=(d_in, 4 * hidden))
    limit_h = 1.0 / np.sqrt(hidden)
    w_h = rng.uniform(-limit_h, limit_h, size=(hidden, 4 * hidden))
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0
    return LayerParams(w_x, w_h, b)


def init_params(topology: LstmTopology, seed: int) -> LstmParams:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    dims = [1, *topology.layer_sizes[:-1]]
    stacks = [
        [_init_layer(rng, d, h) for d, h in zip(dims, topology.layer_sizes)]
        for _ in range(1 + topology.bidirectional)
    ]
    final_h = topology.layer_sizes[-1] * len(stacks)
    dense_dims = [final_h, *topology.dense_sizes]
    dense = []
    for d_in, d_out in zip(dense_dims, dense_dims[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        dense.append(DenseParams(rng.uniform(-limit, limit, size=(d_in, d_out)), np.zeros(d_out)))
    return LstmParams(stacks=stacks, dense=dense)


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
    h_prev: np.ndarray      # (B, W, H) hidden state entering each step
    c_prev: np.ndarray      # (B, W, H)
    gates: np.ndarray       # (B, W, 4H) post-activation [i, f, g, o]
    c: np.ndarray           # (B, W, H)
    tanh_c: np.ndarray      # (B, W, H)
    h_seq: np.ndarray       # (B, W, H) layer output


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
    when `keep_cache` is true. Without a cache only the running h and c are
    kept, so memory grows with the batch alone."""
    batch, steps, _ = seq.shape
    hidden = layer.w_h.shape[0]
    zx = _input_projection(layer, seq)
    h_seq = np.empty((batch, steps, hidden))
    cache = None
    if keep_cache:
        cache = _LayerCache(
            inputs=seq,
            h_prev=np.empty((batch, steps, hidden)),
            c_prev=np.empty((batch, steps, hidden)),
            gates=np.empty((batch, steps, 4 * hidden)),
            c=np.empty((batch, steps, hidden)),
            tanh_c=np.empty((batch, steps, hidden)),
            h_seq=h_seq,
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
            cache.h_prev[:, t] = h
            cache.c_prev[:, t] = c
        c = i_f[:, hidden:] * c + i_f[:, :hidden] * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        if cache is not None:
            cache.c[:, t] = c
            cache.tanh_c[:, t] = tanh_c
        h_seq[:, t] = h
    return h_seq, cache


def _layer_backward(
    layer: LayerParams, cache: _LayerCache, d_out_seq: np.ndarray
) -> tuple[LayerParams, np.ndarray]:
    """Gradients for one layer given dL/d(output sequence)."""
    batch, steps, hidden = cache.h_seq.shape
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
        df = dc * cache.c_prev[:, t]
        dc_next = dc * f
        dz = dz_all[:, t]
        dz[:, :hidden] = di * i * (1.0 - i)
        dz[:, hidden : 2 * hidden] = df * f * (1.0 - f)
        dz[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g * g)
        dz[:, 3 * hidden :] = do * o * (1.0 - o)
        dh_next = dz @ layer.w_h.T
    flat_dz = dz_all.reshape(batch * steps, 4 * hidden)
    d_in = cache.inputs.shape[2]
    grads = LayerParams(
        w_x=cache.inputs.reshape(batch * steps, d_in).T @ flat_dz,
        w_h=cache.h_prev.reshape(batch * steps, hidden).T @ flat_dz,
        b=flat_dz.sum(axis=0),
    )
    d_input_seq = (flat_dz @ layer.w_x.T).reshape(batch, steps, d_in)
    return grads, d_input_seq


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
        raise ShapeMismatch(f"expected (batch, {topology.window}) windows")
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
        raise TooFewSamples("empty batch")
    if inputs.ndim != 2 or inputs.shape[1] != topology.window or len(inputs) != len(targets):
        raise ShapeMismatch("batch shapes do not match the topology")
    cache = _forward(params, inputs)
    batch = len(inputs)
    residual = cache.output - targets
    loss = float(residual @ residual) / batch

    dense_grads: list[DenseParams] = []
    d_a = (2.0 / batch) * residual[:, None]
    for k in range(len(params.dense) - 1, -1, -1):
        dense_grads.insert(0, DenseParams(w=cache.dense_inputs[k].T @ d_a, b=d_a.sum(axis=0)))
        d_a = d_a @ params.dense[k].w.T

    # d_a holds dL/d(final hidden states), one column block per stack
    hidden_last = topology.layer_sizes[-1]
    stack_grads: list[list[LayerParams]] = []
    for s, (stack, caches) in enumerate(zip(params.stacks, cache.stacks)):
        d_out = np.zeros_like(caches[-1].h_seq)
        d_out[:, -1] = d_a[:, s * hidden_last : (s + 1) * hidden_last]
        grads: list[LayerParams] = []
        for li in range(len(stack) - 1, -1, -1):
            layer_grads, d_out = _layer_backward(stack[li], caches[li], d_out)
            grads.insert(0, layer_grads)
        stack_grads.append(grads)
    return loss, LstmParams(stacks=stack_grads, dense=dense_grads)


@dataclass(frozen=True)
class NeuralModelArtifact:
    """Trained network plus everything needed to reproduce and apply it."""

    topology: LstmTopology
    params: LstmParams
    scaler: MinMaxScaler
    history: tuple[dict, ...]
    seed: int
    best_epoch: int
    train_end: date | None = None  # TradingDate of the last training row

    def __post_init__(self) -> None:
        t, p = self.topology, self.params
        n_stacks = 1 + t.bidirectional
        if len(p.stacks) != n_stacks:
            raise ValueError(f"params.stacks must have {n_stacks} items, not {len(p.stacks)}")
        dims = [1, *t.layer_sizes[:-1]]
        stack = [((d, 4 * h), (h, 4 * h), (4 * h,)) for d, h in zip(dims, t.layer_sizes)]
        dense_dims = [t.layer_sizes[-1] * n_stacks, *t.dense_sizes]
        dense = [((d, o), (o,)) for d, o in zip(dense_dims, dense_dims[1:])]
        parts = [(f"stacks[{i}]", layers, stack) for i, layers in enumerate(p.stacks)]
        for name, layers, need in parts + [("dense", p.dense, dense)]:
            have = [tuple(a.shape for a in vars(layer).values()) for layer in layers]
            if have != need:
                raise ValueError(f"params.{name} must have shapes {need}, not {have}")

    @property
    def kind(self) -> str:
        return "bilstm" if self.topology.bidirectional else "lstm"

    @property
    def min_history(self) -> int:
        return self.topology.window

    def predict(self, histories) -> np.ndarray:
        # no step reads a prediction, so all windows go through one forward
        return predict_next(self, np.stack([h.last_closes(self.min_history) for h in histories]))


def predict_next(artifact: NeuralModelArtifact, recent_closes: np.ndarray) -> np.ndarray:
    """Next closes for a (N, W) array of raw-close windows, as (N,).

    Each row is scaled, the network runs once over the whole batch, and
    the outputs are unscaled.
    """
    recent = np.asarray(recent_closes, dtype=np.float64)
    window = artifact.topology.window
    if recent.ndim != 2 or recent.shape[1] != window:
        raise ShapeMismatch(f"expected (N, {window}) recent closes")
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
        raise ShapeMismatch("window length does not match topology")
    train_x, val_x = inputs[:n_train], inputs[n_train:]
    train_y, val_y = targets[:n_train], targets[n_train:]
    if len(val_y) == 0:
        raise TooFewSamples(f"{n_train} training rows leave no validation rows")
    if len(train_x) < config.batch_size:
        raise TooFewSamples(
            f"{len(train_x)} training samples < batch size {config.batch_size}"
        )

    params = init_params(topology, config.seed)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 1])))

    flat = params.flatten()
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
                raise DivergedLoss(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(batch)
            grad_flat = grads.flatten()
            step += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad_flat
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad_flat * grad_flat
            m_hat = m / (1.0 - ADAM_BETA1**step)
            v_hat = v / (1.0 - ADAM_BETA2**step)
            flat = flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            params.unflatten(flat)
        train_loss = epoch_loss / len(train_x)

        val_pred = lstm_batch_forward(params, topology, val_x)
        val_residual = val_pred - val_y
        val_loss = float(val_residual @ val_residual) / len(val_y)
        if not np.isfinite(val_loss):
            raise DivergedLoss(f"non-finite validation loss at epoch {epoch}")
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

    params.unflatten(best_flat)
    return NeuralModelArtifact(
        topology=topology,
        params=params,
        scaler=scaler,
        history=tuple(history),
        seed=config.seed,
        best_epoch=best_epoch,
        train_end=train_end,
    )
