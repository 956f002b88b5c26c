"""Shared builders for dated test data."""

from __future__ import annotations

import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from stockcast.series import AlignedPanel, Series

# Hypothesis imports this module while it reports a failing example, and its
# imports raise a DeprecationWarning from mypy_extensions. Under `-W error`
# that warning ended the whole run with an INTERNALERROR in place of the
# example, so it is imported once here with the warning ignored. The module
# needs libcst, an optional Hypothesis extra; without it Hypothesis skips
# that step, so there is no warning to suppress.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def weekdays(start: date, count: int) -> list[date]:
    """`count` consecutive weekdays from `start` (skipping Sat/Sun)."""
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def make_prices(dates: list[date], closes, ticker: str = "TEST") -> Series:
    return Series(ticker, tuple(dates), [float(c) for c in closes])


def make_macro(dates: list[date], base: float = 100.0, name: str = "gold") -> Series:
    return Series(name, tuple(dates), tuple(base + i for i in range(len(dates))))


def make_macro_panel(dates: list[date]) -> dict[str, Series]:
    return {
        "gold": make_macro(dates, 1800.0, "gold"),
        "brent": make_macro(dates, 70.0, "brent"),
        "gsec": make_macro(dates, 6.0, "gsec"),
        "usd_inr": make_macro(dates, 74.0, "usd_inr"),
    }


def make_panel(
    n: int = 120,
    start: date = date(2021, 1, 1),
    ticker: str = "TEST",
    with_sentiment: bool = True,
    seed: int = 0,
) -> AlignedPanel:
    rng = np.random.Generator(np.random.PCG64(seed))
    dates = weekdays(start, n)
    closes = 100.0 + np.cumsum(rng.normal(0.1, 1.0, n))
    closes = np.maximum(closes, 1.0)
    sentiment = None
    if with_sentiment:
        pos = rng.uniform(0, 0.4, n)
        neg = rng.uniform(0, 0.4, n)
        neu = 1.0 - pos - neg
        sentiment = {"pos": pos, "neg": neg, "neu": neu, "compound": rng.uniform(-0.9, 0.9, n)}
    return AlignedPanel(
        dates=tuple(dates),
        close=closes,
        gold=1800.0 + rng.normal(0, 5, n),
        brent=70.0 + rng.normal(0, 2, n),
        gsec=6.0 + rng.normal(0, 0.1, n),
        usd_inr=74.0 + rng.normal(0, 0.5, n),
        sentiment=sentiment,
        ticker=ticker,
    )


@pytest.fixture
def small_panel() -> AlignedPanel:
    return make_panel(n=40, seed=7)
