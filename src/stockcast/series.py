"""Calendar-aware containers for dated market series and their alignment.

Alignment convention: the price series defines the trading calendar, and the
close price is the dependent variable. Macro quotes that exist on
non-trading days are carried FORWARD onto the next trading date, never
backward, so no aligned row can see a value from a later calendar date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateDate, EmptyIntersection

TradingDate = date

MACRO_COLUMNS = ("gold", "brent", "gsec", "usd_inr")

# columns that must stay strictly positive (yields may legitimately go
# negative, exchange rates and commodity prices may not)
POSITIVE_MACRO = frozenset({"gold", "brent", "usd_inr"})


def _check_strictly_increasing(dates: Sequence[TradingDate]) -> None:
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise DuplicateDate(b)
        if a > b:
            raise ValueError(f"dates out of order: {a} before {b}")


@dataclass(frozen=True)
class PriceSeries:
    """Daily closes of one ticker as columns; dates strictly increasing."""

    ticker: str
    dates: tuple[TradingDate, ...]
    close: np.ndarray

    def __post_init__(self) -> None:
        if not self.ticker:
            raise ValueError("ticker must be non-empty")
        object.__setattr__(self, "dates", tuple(self.dates))
        close = np.array(self.close, dtype=np.float64)
        close.flags.writeable = False  # shared by every panel aligned from it
        object.__setattr__(self, "close", close)
        if len(close) != len(self.dates):
            raise ValueError("dates and close must have equal length")
        if not np.all(np.isfinite(close) & (close > 0)):
            raise ValueError(f"{self.ticker}: closes must be finite and > 0")
        _check_strictly_increasing(self.dates)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class MacroSeries:
    """One dated macro column (own calendar, usually denser than NSE's)."""

    name: str
    dates: tuple[TradingDate, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have equal length")
        _check_strictly_increasing(self.dates)
        for d, v in zip(self.dates, self.values):
            if not math.isfinite(v):
                raise ValueError(f"{self.name} on {d}: value must be finite")
            if self.name in POSITIVE_MACRO and v <= 0:
                raise ValueError(f"{self.name} on {d}: value must be > 0")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class MacroPanel:
    """The four macro columns, each on its own calendar."""

    gold: MacroSeries
    brent: MacroSeries
    gsec: MacroSeries
    usd_inr: MacroSeries

    def columns(self) -> Iterable[tuple[str, MacroSeries]]:
        return ((name, getattr(self, name)) for name in MACRO_COLUMNS)


@dataclass(frozen=True)
class SentimentColumns:
    """Per-trading-day sentiment block of an aligned panel."""

    pos: np.ndarray
    neg: np.ndarray
    neu: np.ndarray
    compound: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"pos": self.pos, "neg": self.neg, "neu": self.neu, "compound": self.compound}


@dataclass(frozen=True)
class AlignedPanel:
    """Prices, macro columns, and optional sentiment on one trading calendar.

    All columns have length len(dates); no cell is missing.
    """

    dates: tuple[TradingDate, ...]
    close: np.ndarray
    gold: np.ndarray
    brent: np.ndarray
    gsec: np.ndarray
    usd_inr: np.ndarray
    sentiment: SentimentColumns | None = None
    ticker: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        n = len(self.dates)
        cols = [self.close, self.gold, self.brent, self.gsec, self.usd_inr]
        if self.sentiment is not None:
            cols += list(self.sentiment.as_dict().values())
        for col in cols:
            if len(col) != n:
                raise ValueError("all panel columns must match the calendar length")
            if not np.all(np.isfinite(col)):
                raise ValueError("panel columns must be finite")
        _check_strictly_increasing(self.dates)

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def has_sentiment(self) -> bool:
        return self.sentiment is not None

    def column(self, name: str) -> np.ndarray:
        """Column lookup by name, including sentiment columns when present."""
        if name in ("close", *MACRO_COLUMNS):
            return getattr(self, name)
        if self.sentiment is not None and name in ("pos", "neg", "neu", "compound"):
            return getattr(self.sentiment, name)
        raise KeyError(name)


def _ordinals(dates: Sequence[TradingDate]) -> np.ndarray:
    return np.fromiter(map(date.toordinal, dates), dtype=np.int64, count=len(dates))


def align_panel(
    prices: PriceSeries,
    macro: MacroPanel,
    sentiment: Sequence | None = None,
) -> AlignedPanel:
    """Join prices, macro series, and optional daily sentiment on the price calendar.

    Macro gaps are filled with the most recent earlier value. `sentiment`
    is a sequence of DailySentiment records, one per price date in order,
    as `aggregate_daily` returns them over the price calendar; any other
    dates are a ValueError.

    Raises EmptyIntersection when a macro column has no value at or before
    the first price date.
    """
    if len(prices) == 0:
        raise ValueError("price series is empty")
    dates = prices.dates
    days = _ordinals(dates)
    columns: dict[str, np.ndarray] = {}

    for name, series in macro.columns():
        # index of the latest macro date at or before each trading date
        source = np.searchsorted(_ordinals(series.dates), days, side="right") - 1
        if source[0] < 0:
            raise EmptyIntersection(f"no {name} value on or before {dates[0]}")
        columns[name] = np.array(series.values, dtype=np.float64)[source]

    senti_block = None
    if sentiment is not None:
        if tuple(rec.date for rec in sentiment) != dates:
            raise ValueError(
                f"{prices.ticker}: sentiment records must cover exactly the price dates"
            )
        scores = [rec.score for rec in sentiment]
        block = np.array([(s.pos, s.neg, s.neu, s.compound) for s in scores], dtype=np.float64)
        senti_block = SentimentColumns(*block.T.copy())

    return AlignedPanel(
        dates=dates, close=prices.close, sentiment=senti_block, ticker=prices.ticker, **columns
    )
