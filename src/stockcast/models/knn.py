"""K-nearest-neighbors regression over the sliding windows of one series.

Neighbor count is chosen by 5-fold cross-validation on the training slice
with contiguous time blocks (shuffled folds would leak future into past).
Ties in CV error go to the smaller k; ties in distance break on training
index, so prediction is fully deterministic. Cross-validation, batched
prediction and the one-window `predict_window` share one neighbour
kernel, an exact filter and refine (Seidl & Kriegel, SIGMOD 1998): one
matrix product bounds every query's squared distances, and only the few
inputs that can reach a query's nearest max(k) get the exact distance.
Those are ordered once, and every k reads its first k neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import ClassVar

import numpy as np

from ..dataset import MinMaxScaler, build_windows
from ..errors import StockcastError

K_RANGE = tuple(range(2, 10))
CV_FOLDS = 5
# the filter bounds blocks of queries whose (query, input) squared
# distances hold at most this many float64 values: 512 KiB
_CHUNK_ELEMENTS = 1 << 16
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_normal)


@dataclass(frozen=True)
class KnnModel:
    """The training closes, the window length and the chosen k.

    The training rows are the sliding windows of the scaled closes, each
    targeting the close after it in price units; query windows are scaled
    the same way before the distance computation.
    """

    kind: ClassVar[str] = "knn"

    k: int
    window: int
    train_closes: np.ndarray
    cv_rmse: dict[int, float]
    scaler: MinMaxScaler
    train_end: date | None = None

    def __post_init__(self) -> None:
        if self.train_closes.ndim != 1:
            raise ValueError("train_closes must be a 1-D series")
        n, rows = len(self.train_closes), len(self.train_closes) - self.window
        if self.window < 1 or rows < 1:
            raise ValueError(f"train_closes ({n}) must be longer than a window >= 1 ({self.window})")
        if not 1 <= self.k <= rows:
            raise ValueError(f"k must be between 1 and the {rows} training windows, not {self.k}")

    @property
    def min_history(self) -> int:
        return self.window

    def predict(self, history) -> np.ndarray:
        return self._predict_windows(history.windows(self.window))

    def predict_window(self, window: np.ndarray) -> float:
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (self.window,):
            raise StockcastError(f"expected a window of length {self.window}")
        return float(self._predict_windows(window[None])[0])

    def _predict_windows(self, windows: np.ndarray) -> np.ndarray:
        inputs, targets = _training_rows(self.train_closes, self.window, self.scaler)
        return _neighbour_means(inputs, targets, self.scaler.apply(windows), (self.k,))[:, 0]


def _training_rows(
    closes: np.ndarray, window: int, scaler: MinMaxScaler
) -> tuple[np.ndarray, np.ndarray]:
    """The scaled windows of `closes` and the raw close that follows each."""
    return build_windows(scaler.apply(closes), window)[0], closes[window:]


def _neighbour_means(
    inputs: np.ndarray, targets: np.ndarray, queries: np.ndarray, ks
) -> np.ndarray:
    """(queries, ks) array: mean target of each query's k nearest inputs, per k.

    A query's neighbours are the first max(ks) inputs in the order of
    (distance, index), where the distance is
    `np.sqrt(((x - q) ** 2).sum())` in floating point. Each block of
    queries is filtered, then refined:

    - Filter. `approx = |q|^2 + |x|^2 - 2 q.x` for every input, from one
      matrix product, and `kth`, each query's max(ks)-th smallest approx.
    - Refine. The inputs with `approx <= limit` (below) are the
      candidates. Each gets the exact distance above, as a C-contiguous
      row summed along its last axis, so bit for bit the distance of a
      full scan. Candidates are ordered by (distance, index) and each
      query keeps its first max(ks).
    - Fallback. A query whose approx, margin or limit is not finite (its
      squared norm overflows, say) takes the full exact scan.

    Why the candidates hold every neighbour. Let D be the exact squared
    distance, S = |q|^2 + |x|^2 <= |q|^2 + max |x|^2, u = eps / 2 the
    unit roundoff and g(m) = m u / (1 - m u). A dot product of length w
    errs by at most g(w) sum |a_i b_i| in any summation order (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1), so for
    any BLAS kernel and thread count: each squared norm errs by g(w) of
    itself, q.x by g(w) S / 2, and the two additions that form approx by
    2u S each. Hence |approx - D| <= (2 g(w) + 4u) S < (w + 3) eps S.
    The full scan's sum of rounded squared differences s errs by at most
    g(w + 2) D, and its square root rounds once more.

    With c = 8 (w + 4) eps and err = c (|q|^2 + max |x|^2) + tiny:
    the max(ks) inputs with approx <= kth have D <= B = kth + err, so
    s <= (1 + g(w + 2)) B, and so the max(ks)-th smallest full-scan
    distance is at most sqrt of that, rounded up. An input j whose
    distance is no larger therefore has s_j within (1 + u)^2 / (1 - u)^2
    of that bound, D_j < B (1 + 2 (w + 4) eps) <= B (1 + c), and
    approx_j <= D_j + err <= limit = max(B, 0) (1 + c) + err. Each of the
    two steps uses at most a quarter of c; the rest covers the few
    roundings in computing the norms, err and limit. `tiny`, the smallest
    normal float, covers what underflow loses, at most half a subnormal
    per rounding. Every input that ties with or beats the full scan's
    max(ks)-th neighbour is thus a candidate, and ordering only the
    candidates gives the full scan's first max(ks) in its order.
    """
    n, w = inputs.shape
    top = max(ks)
    c = 8 * (w + 4) * _EPS
    out = np.empty((len(queries), len(ks)), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        input_norms = (inputs * inputs).sum(axis=1)
        step = max(1, _CHUNK_ELEMENTS // n)
        for start in range(0, len(queries), step):
            block = queries[start : start + step]
            approx = block @ inputs.T
            approx *= -2.0
            block_norms = (block * block).sum(axis=1)
            approx += block_norms[:, None]
            approx += input_norms
            err = c * (block_norms + input_norms.max()) + _TINY
            kth = np.partition(approx, top - 1, axis=1)[:, top - 1]
            limit = np.maximum(kth + err, 0.0) * (1.0 + c) + err
            filtered = np.isfinite(limit) & np.isfinite(approx).all(axis=1)

            nearest = np.empty((len(block), top), dtype=np.intp)
            candidate = approx <= limit[:, None]
            candidate[~filtered] = False
            rows, cols = np.nonzero(candidate)  # rows ascending
            distances = np.sqrt(((inputs[cols] - block[rows]) ** 2).sum(axis=1))
            order = cols[np.lexsort((cols, distances, rows))]
            first = np.searchsorted(rows, np.flatnonzero(filtered))
            nearest[filtered] = order[first[:, None] + np.arange(top)]
            for i in np.flatnonzero(~filtered):
                distances = np.sqrt(((inputs - block[i]) ** 2).sum(axis=1))
                nearest[i] = np.argsort(distances, kind="stable")[:top]

            chosen = targets[nearest]
            for j, k in enumerate(ks):
                out[start : start + step, j] = chosen[:, :k].mean(axis=1)
    return out


def _squares(values: np.ndarray) -> np.ndarray:
    """Each value ** 2 by libm pow, as a float64 scalar's `** 2` computes it.

    An array's `** 2` multiplies instead, which rounds differently for
    about 1 value in 1000; Python floats in an object array keep the pow.
    """
    return np.power(values.astype(object), 2).astype(np.float64)


def choose_k(
    inputs: np.ndarray, targets: np.ndarray, folds: int = CV_FOLDS
) -> tuple[int, dict[int, float]]:
    """The k with the least contiguous-block CV RMSE (ties to smaller k), and every k's RMSE.

    A held-out block's neighbours are sorted once for all k. A k larger
    than the rows outside the block skips that block; those rows are at
    least half of the n >= 10, so every block scores k = 2..5.
    """
    n = len(targets)
    if n < 10:
        raise StockcastError(f"need >= 10 training samples, got {n}")
    fold_errors: dict[int, list[float]] = {k: [] for k in K_RANGE}
    for block in np.array_split(np.arange(n), folds):
        if len(block) == 0:
            continue
        rest = np.setdiff1d(np.arange(n), block, assume_unique=True)
        ks = [k for k in K_RANGE if k <= len(rest)]
        predicted = _neighbour_means(inputs[rest], targets[rest], inputs[block], ks)
        sq = _squares(predicted - targets[block, None]).T.copy()  # (k, held-out row)
        for k, rmse in zip(ks, np.sqrt(sq.mean(axis=1))):
            fold_errors[k].append(float(rmse))
    cv_rmse = {k: float(np.mean(e)) if e else np.inf for k, e in fold_errors.items()}
    return min(K_RANGE, key=lambda k: (cv_rmse[k], k)), cv_rmse


def knn_fit_cv(
    closes: np.ndarray, window: int, scaler: MinMaxScaler, folds: int = CV_FOLDS, train_end=None
) -> KnnModel:
    """Pick k by `choose_k` over the training closes' windows and keep the closes."""
    closes = np.array(closes, dtype=np.float64)
    k, cv_rmse = choose_k(*_training_rows(closes, window, scaler), folds)
    return KnnModel(k, window, closes, cv_rmse, scaler, train_end)
