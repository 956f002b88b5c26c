"""Seasonal ARIMA fitted by conditional sum of squares.

The model is phi(B) PHI(B^s) (1-B)^d (1-B^s)^D y_t = theta(B) THETA(B^s) e_t.
Both polynomial products are expanded once, so the residual recursion is a
single linear difference equation. Stationarity of the AR factors and
invertibility of the MA factors are enforced by optimizing in a partial-
autocorrelation space (tanh-mapped reals), never by rejecting steps.

Estimation minimizes the conditional sum of squared residuals with a
quasi-Newton search capped at a fixed objective-evaluation budget; a fit
that exhausts the budget is returned flagged, not discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import ClassVar

import numpy as np

from ..errors import SeriesTooShort, ShapeMismatch


@dataclass(frozen=True)
class ArimaSpec:
    order: tuple[int, int, int] = (0, 1, 1)
    seasonal_order: tuple[int, int, int, int] = (2, 1, 0, 12)
    max_evals: int = 50

    def __post_init__(self) -> None:
        p, d, q = self.order
        sp, sd, sq, s = self.seasonal_order
        if min(p, d, q, sp, sd, sq) < 0:
            raise ValueError("orders must be non-negative")
        if s < 1:
            raise ValueError("seasonal period must be >= 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")

    @property
    def n_params(self) -> int:
        p, _, q = self.order
        sp, _, sq, _ = self.seasonal_order
        return p + sp + q + sq

    def min_series_length(self) -> int:
        _, d, _ = self.order
        sp, sd, _, s = self.seasonal_order
        return s * (sd + sp) + d + 24


def pacf_to_ar(pacf: np.ndarray) -> np.ndarray:
    """Map partial autocorrelations in (-1, 1) to stationary AR coefficients."""
    phi = np.zeros(0)
    for j, r in enumerate(pacf):
        new = np.empty(j + 1)
        new[j] = r
        new[:j] = phi - r * phi[::-1]
        phi = new
    return phi


def _transform(raw: np.ndarray, spec: ArimaSpec) -> dict[str, np.ndarray]:
    p, _, q = spec.order
    sp, _, sq, _ = spec.seasonal_order
    cuts = np.cumsum([p, sp, q, sq])
    chunks = np.split(np.tanh(raw), cuts[:-1])
    return {
        "ar": pacf_to_ar(chunks[0]),
        "seasonal_ar": pacf_to_ar(chunks[1]),
        # invertible MA(q) via the same map on the sign-flipped polynomial
        "ma": -pacf_to_ar(chunks[2]),
        "seasonal_ma": -pacf_to_ar(chunks[3]),
    }


@dataclass(frozen=True)
class ArimaModel:
    kind: ClassVar[str] = "arima"

    spec: ArimaSpec
    ar: np.ndarray
    seasonal_ar: np.ndarray
    ma: np.ndarray
    seasonal_ma: np.ndarray
    train_series: np.ndarray
    converged: bool
    n_evals: int
    css: float
    train_end: date | None = None

    @property
    def min_history(self) -> int:
        return len(difference_poly(self.spec))

    def predict(self, histories) -> np.ndarray:
        """`one_step_forecast` of every history, from one residual pass.

        The histories must be prefixes of one series, as the walk-forward's
        slices of one panel are. The residuals are conditional with a zero
        start, so e[:n] depends on w[:n] only: the longest history is
        differenced and filtered once, and each forecast reads its prefix of
        `w` and `e`.
        """
        series = [np.asarray(h.all_closes(), dtype=np.float64) for h in histories]
        longest = max(series, key=len)
        c = difference_poly(self.spec)
        _check_covers(min(series, key=len), c)
        w = apply_differencing(longest, self.spec)
        a, m = _fitted_polys(self)
        e = _residuals(w, a, m)
        return np.array([_next_value(y, w, e, a, m, c) for y in series], dtype=np.float64)


def difference_poly(spec: ArimaSpec) -> np.ndarray:
    """Coefficients of (1-B)^d (1-B^s)^D; c[0] == 1."""
    _, d, _ = spec.order
    _, sd, _, s = spec.seasonal_order
    poly = np.array([1.0])
    for _ in range(d):
        poly = np.convolve(poly, [1.0, -1.0])
    seasonal = np.zeros(s + 1)
    seasonal[0] = 1.0
    seasonal[s] = -1.0
    for _ in range(sd):
        poly = np.convolve(poly, seasonal)
    return poly


def apply_differencing(series: np.ndarray, spec: ArimaSpec) -> np.ndarray:
    _, d, _ = spec.order
    _, sd, _, s = spec.seasonal_order
    w = np.asarray(series, dtype=np.float64)
    for _ in range(d):
        w = w[1:] - w[:-1]
    for _ in range(sd):
        w = w[s:] - w[:-s]
    return w


def _expanded_polys(model_params: dict[str, np.ndarray], spec: ArimaSpec) -> tuple[np.ndarray, np.ndarray]:
    """AR side a(B) with a[0]=1, MA side m(B) with m[0]=1, products expanded."""
    _, _, _, s = spec.seasonal_order

    def factor(coeffs: np.ndarray, lag_step: int, sign: float) -> np.ndarray:
        poly = np.zeros(lag_step * len(coeffs) + 1)
        poly[0] = 1.0
        for i, c in enumerate(coeffs, start=1):
            poly[lag_step * i] = sign * c
        return poly

    a = np.convolve(factor(model_params["ar"], 1, -1.0), factor(model_params["seasonal_ar"], s, -1.0))
    m = np.convolve(factor(model_params["ma"], 1, 1.0), factor(model_params["seasonal_ma"], s, 1.0))
    return a, m


def _residuals(w: np.ndarray, a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """e_t = sum_k a_k w_{t-k} - sum_{j>=1} m_j e_{t-j}; zeros before the start.

    The AR side is a straight convolution (out-of-range terms are zero by
    the conditional convention); only the MA feedback needs a loop.
    """
    n = len(w)
    conv = np.convolve(w, a)[:n]
    ma_lags = len(m) - 1
    if ma_lags == 0:
        return conv
    e = np.zeros(n)
    for t in range(n):
        acc = conv[t]
        for j in range(1, min(t, ma_lags) + 1):
            acc -= m[j] * e[t - j]
        e[t] = acc
    return e


def css_objective(w: np.ndarray, model_params: dict[str, np.ndarray], spec: ArimaSpec) -> float:
    a, m = _expanded_polys(model_params, spec)
    e = _residuals(w, a, m)
    start = len(a) - 1
    tail = e[start:]
    return float(tail @ tail)


def arima_fit(series: np.ndarray, spec: ArimaSpec = ArimaSpec(), train_end=None) -> ArimaModel:
    """Estimate the MA and seasonal-AR coefficients by CSS minimization."""
    series = np.asarray(series, dtype=np.float64)
    if len(series) <= spec.min_series_length():
        raise SeriesTooShort(
            f"need more than {spec.min_series_length()} observations, got {len(series)}"
        )
    w = apply_differencing(series, spec)

    if spec.n_params == 0:
        params = _transform(np.zeros(0), spec)
        css = css_objective(w, params, spec)
        return ArimaModel(
            spec=spec, train_series=series, converged=True, n_evals=0, css=css,
            train_end=train_end, **params,
        )

    # scipy costs most of the package's import time; only fitting needs it
    from scipy import optimize

    evals = 0

    def objective(raw: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return css_objective(w, _transform(raw, spec), spec)

    result = optimize.minimize(
        objective,
        x0=np.zeros(spec.n_params),
        method="L-BFGS-B",
        options={"maxfun": spec.max_evals, "ftol": 1e-10},
    )
    params = _transform(result.x, spec)
    return ArimaModel(
        spec=spec,
        train_series=series,
        converged=bool(result.success),
        n_evals=evals,
        css=float(result.fun),
        train_end=train_end,
        **params,
    )


def _fitted_polys(model: ArimaModel) -> tuple[np.ndarray, np.ndarray]:
    params = {
        "ar": model.ar, "seasonal_ar": model.seasonal_ar,
        "ma": model.ma, "seasonal_ma": model.seasonal_ma,
    }
    return _expanded_polys(params, model.spec)


def _check_covers(history: np.ndarray, c: np.ndarray) -> None:
    if len(history) < len(c):
        raise ShapeMismatch(f"history must cover at least {len(c)} observations")


def _next_value(
    history: np.ndarray, w: np.ndarray, e: np.ndarray, a: np.ndarray, m: np.ndarray,
    c: np.ndarray,
) -> float:
    """Forecast after `history`, whose differenced values and residuals are
    the first len(history) - len(c) + 1 entries of `w` and `e`.

    Forecasts the next differenced value with the future shock set to zero,
    then inverts the differencing.
    """
    n = len(history) - len(c) + 1
    w_next = 0.0
    for k in range(1, min(n, len(a) - 1) + 1):
        w_next -= a[k] * w[n - k]
    for j in range(1, min(n, len(m) - 1) + 1):
        w_next += m[j] * e[n - j]
    y_next = w_next
    for k in range(1, len(c)):
        y_next -= c[k] * history[len(history) - k]
    return float(y_next)


def one_step_forecast(model: ArimaModel, history: np.ndarray) -> float:
    """Mean forecast of the next value given raw history through today.

    Runs the residual recursion over the differenced history with the
    fitted coefficients, then forecasts one step from its end.
    """
    history = np.asarray(history, dtype=np.float64)
    c = difference_poly(model.spec)
    _check_covers(history, c)
    w = apply_differencing(history, model.spec)
    a, m = _fitted_polys(model)
    return _next_value(history, w, _residuals(w, a, m), a, m, c)


def arima_forecast(model: ArimaModel, horizon: int = 1) -> float:
    """Forecast `horizon` steps past the end of the training series."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    history = model.train_series
    value = one_step_forecast(model, history)
    for _ in range(horizon - 1):
        history = np.append(history, value)
        value = one_step_forecast(model, history)
    return value
