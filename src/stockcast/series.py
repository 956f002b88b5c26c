"""Calendar-aware containers for dated market series and their alignment.

Alignment convention: the price series defines the trading calendar, and the
close price is the dependent variable. Macro quotes that exist on
non-trading days are carried FORWARD onto the next trading date, never
backward, so no aligned row can see a value from a later calendar date.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


@dataclass(frozen=True)
class PriceBar:
    """One OHLCV bar. Prices in INR, volume in shares."""

    date: TradingDate
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: float

    def __post_init__(self) -> None:
        prices = (self.open, self.high, self.low, self.close, self.adj_close)
        if not all(math.isfinite(p) and p > 0 for p in prices):
            raise ValueError(f"{self.date}: prices must be finite and > 0")
        if not (self.low <= self.open <= self.high and self.low <= self.close <= self.high):
            raise ValueError(f"{self.date}: open/close must lie within [low, high]")
        if not (math.isfinite(self.volume) and self.volume >= 0):
            raise ValueError(f"{self.date}: volume must be >= 0")


def _check_strictly_increasing(dates: Sequence[TradingDate]) -> None:
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise DuplicateDate(b)
        if a > b:
            raise ValueError(f"dates out of order: {a} before {b}")


@dataclass(frozen=True)
class PriceSeries:
    """Ordered daily bars for one ticker; dates strictly increasing."""

    ticker: str
    bars: tuple[PriceBar, ...]

    def __post_init__(self) -> None:
        if not self.ticker:
            raise ValueError("ticker must be non-empty")
        object.__setattr__(self, "bars", tuple(self.bars))
        _check_strictly_increasing([b.date for b in self.bars])

    def __len__(self) -> int:
        return len(self.bars)

    @property
    def dates(self) -> tuple[TradingDate, ...]:
        return tuple(b.date for b in self.bars)

    @property
    def closes(self) -> np.ndarray:
        return np.array([b.close for b in self.bars], dtype=np.float64)


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

    def value_on_or_before(self, day: TradingDate) -> float | None:
        """Most recent value at or before `day`, or None if none exists."""
        i = bisect_right(self.dates, day)
        return self.values[i - 1] if i else None


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


# the record a trading day gets when it has no scored news
NEUTRAL_SENTIMENT = {"pos": 0.0, "neg": 0.0, "neu": 1.0, "compound": 0.0}


def align_panel(
    prices: PriceSeries,
    macro: MacroPanel,
    sentiment: Sequence | None = None,
) -> AlignedPanel:
    """Join prices, macro series, and optional daily sentiment on the price calendar.

    Macro gaps are filled with the most recent earlier value. Sentiment
    gaps always get the neutral default record (a day without news is a
    legitimate state, not a data gap). `sentiment` is a sequence of
    DailySentiment records, at most one per date.

    Raises EmptyIntersection when a macro column has no value at or before
    the first price date.
    """
    if len(prices) == 0:
        raise ValueError("price series is empty")
    dates = prices.dates
    columns: dict[str, np.ndarray] = {"close": prices.closes}

    for name, series in macro.columns():
        first = series.value_on_or_before(dates[0])
        if first is None:
            raise EmptyIntersection(f"no {name} value on or before {dates[0]}")
        # walk both calendars once; carry the latest earlier value
        out = np.empty(len(dates), dtype=np.float64)
        j = 0
        current = first
        for k, d in enumerate(dates):
            while j < len(series.dates) and series.dates[j] <= d:
                current = series.values[j]
                j += 1
            out[k] = current
        columns[name] = out

    senti_block = None
    if sentiment is not None:
        by_date = {}
        for rec in sentiment:
            if rec.date in by_date:
                raise DuplicateDate(rec.date)
            by_date[rec.date] = rec
        block = {k: np.empty(len(dates), dtype=np.float64) for k in NEUTRAL_SENTIMENT}
        for k, d in enumerate(dates):
            rec = by_date.get(d)
            if rec is None:
                for key, v in NEUTRAL_SENTIMENT.items():
                    block[key][k] = v
            else:
                block["pos"][k] = rec.score.pos
                block["neg"][k] = rec.score.neg
                block["neu"][k] = rec.score.neu
                block["compound"][k] = rec.score.compound
        senti_block = SentimentColumns(**block)

    return AlignedPanel(
        dates=dates,
        close=columns["close"],
        gold=columns["gold"],
        brent=columns["brent"],
        gsec=columns["gsec"],
        usd_inr=columns["usd_inr"],
        sentiment=senti_block,
        ticker=prices.ticker,
    )
