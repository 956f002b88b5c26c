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

from ..errors import StockcastError


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
    converged: bool
    n_evals: int
    css: float
    train_end: date | None = None

    def __post_init__(self) -> None:
        p, _, q = self.spec.order
        sp, _, sq, _ = self.spec.seasonal_order
        for name, size in (("ar", p), ("seasonal_ar", sp), ("ma", q), ("seasonal_ma", sq)):
            shape = getattr(self, name).shape
            if shape != (size,):
                raise ValueError(
                    f"{name} must hold the spec's {size} coefficients, not shape {shape}"
                )

    @property
    def min_history(self) -> int:
        return len(difference_poly(self.spec))

    def predict(self, history) -> np.ndarray:
        return _forecasts(self, history.closes(), history.ends + 1)


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
        raise StockcastError(
            f"need more than {spec.min_series_length()} observations, got {len(series)}"
        )
    w = apply_differencing(series, spec)

    if spec.n_params == 0:
        params = _transform(np.zeros(0), spec)
        css = css_objective(w, params, spec)
        return ArimaModel(
            spec=spec, converged=True, n_evals=0, css=css, train_end=train_end, **params,
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


def _next_value(
    y: np.ndarray, t: int, w: np.ndarray, e: np.ndarray, a: np.ndarray, m: np.ndarray,
    c: np.ndarray,
) -> float:
    """Forecast after the first `t` values of `y`, whose differenced values
    and residuals are the first t - len(c) + 1 entries of `w` and `e`.

    Forecasts the next differenced value with the future shock set to zero,
    then inverts the differencing.
    """
    n = t - len(c) + 1
    w_next = 0.0
    for k in range(1, min(n, len(a) - 1) + 1):
        w_next -= a[k] * w[n - k]
    for j in range(1, min(n, len(m) - 1) + 1):
        w_next += m[j] * e[n - j]
    y_next = w_next
    for k in range(1, len(c)):
        y_next -= c[k] * y[t - k]
    return float(y_next)


def _forecasts(model: ArimaModel, y: np.ndarray, lengths) -> np.ndarray:
    """The mean next-value forecast after the first t values of `y`, for
    each t in `lengths`, from one residual pass.

    The residuals are conditional with a zero start, so e[:n] depends on
    w[:n] only: `y` is differenced and filtered once with the fitted
    coefficients, and each forecast reads its prefix of `w` and `e`.
    """
    y = np.asarray(y, dtype=np.float64)
    c = difference_poly(model.spec)
    if min(lengths) < len(c):
        raise StockcastError(f"history must cover at least {len(c)} observations")
    w = apply_differencing(y, model.spec)
    a, m = _fitted_polys(model)
    e = _residuals(w, a, m)
    return np.array([_next_value(y, t, w, e, a, m, c) for t in lengths], dtype=np.float64)


def one_step_forecast(model: ArimaModel, history: np.ndarray) -> float:
    """Mean forecast of the next value given raw history through today."""
    return float(_forecasts(model, history, [len(history)])[0])
