"""Calendar-aware containers for dated market series and their alignment.

Alignment convention: the price series defines the trading calendar, and the
close price is the dependent variable. Macro quotes that exist on
non-trading days are carried FORWARD onto the next trading date, never
backward, so no aligned row can see a value from a later calendar date.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyIntersection

TradingDate = date

MACRO_COLUMNS = ("gold", "brent", "gsec", "usd_inr")
SENTIMENT_COLUMNS = ("pos", "neg", "neu", "compound")

# series that may go <= 0 (yields); closes, commodity prices and FX rates may not
SIGNED_COLUMNS = frozenset({"gsec"})

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@lru_cache(maxsize=1 << 14)  # input files repeat each date on many rows
def parse_trading_date(text: str) -> TradingDate:
    """A date read from outside, written exactly as YYYY-MM-DD, else a ValueError.

    `date.fromisoformat` alone also takes 20210201 or 2021-W05-1 on Python 3.11+.
    """
    if not _DATE_RE.fullmatch(text):
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    return date.fromisoformat(text)


def _check_strictly_increasing(dates: Sequence[TradingDate]) -> None:
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise ValueError(f"duplicate date {b}")
        if a > b:
            raise ValueError(f"dates out of order: {a} before {b}")


@dataclass(frozen=True)
class Series:
    """One dated column on its own calendar: a ticker's closes or a macro input.

    Dates strictly increase; values are finite, and > 0 unless `name` is in
    SIGNED_COLUMNS.
    """

    name: str
    dates: tuple[TradingDate, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        object.__setattr__(self, "dates", tuple(self.dates))
        values = np.array(self.values, dtype=np.float64)
        values.flags.writeable = False  # shared by every panel aligned from it
        object.__setattr__(self, "values", values)
        if len(values) != len(self.dates):
            raise ValueError("dates and values must have equal length")
        _check_strictly_increasing(self.dates)
        finite = np.isfinite(values)
        ok = finite if self.name in SIGNED_COLUMNS else finite & (values > 0)
        if not ok.all():
            i = int(np.argmin(ok))
            rule = "be > 0" if finite[i] else "be finite"
            raise ValueError(f"{self.name} on {self.dates[i]}: value must {rule}")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class AlignedPanel:
    """Prices, macro columns, and optional sentiment on one trading calendar.

    All columns have length len(dates). Close and macro cells are finite;
    a sentiment cell is finite, or NaN where that day's news was not scored.
    """

    dates: tuple[TradingDate, ...]
    close: np.ndarray
    gold: np.ndarray
    brent: np.ndarray
    gsec: np.ndarray
    usd_inr: np.ndarray
    sentiment: dict[str, np.ndarray] | None = None  # keyed by SENTIMENT_COLUMNS
    ticker: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        n = len(self.dates)
        cols = [self.close, self.gold, self.brent, self.gsec, self.usd_inr]
        if self.sentiment is not None:
            if tuple(self.sentiment) != SENTIMENT_COLUMNS:
                raise ValueError(f"sentiment columns must be {', '.join(SENTIMENT_COLUMNS)}")
            # NaN marks a day whose news was not scored; infinities stay errors
            cols += [np.where(np.isnan(col), 0.0, col) for col in self.sentiment.values()]
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
        if self.sentiment is not None and name in self.sentiment:
            return self.sentiment[name]
        raise KeyError(name)


def _ordinals(dates: Sequence[TradingDate]) -> np.ndarray:
    return np.fromiter(map(date.toordinal, dates), dtype=np.int64, count=len(dates))


def align_panel(
    prices: Series,
    macro: Mapping[str, Series],
    sentiment: Sequence | None = None,
) -> AlignedPanel:
    """Join prices, macro series, and optional daily sentiment on the price calendar.

    `macro` maps each of MACRO_COLUMNS to its series. Macro gaps are
    filled with the most recent earlier value. `sentiment`
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

    for name in MACRO_COLUMNS:
        # index of the latest macro date at or before each trading date
        source = np.searchsorted(_ordinals(macro[name].dates), days, side="right") - 1
        if source[0] < 0:
            raise EmptyIntersection(name, dates[0])
        columns[name] = macro[name].values[source]

    senti = None
    if sentiment is not None:
        if tuple(rec.date for rec in sentiment) != dates:
            raise ValueError(
                f"{prices.name}: sentiment records must cover exactly the price dates"
            )
        scores = map(attrgetter(*SENTIMENT_COLUMNS), (rec.score for rec in sentiment))
        senti = dict(zip(SENTIMENT_COLUMNS, np.array(list(scores), dtype=np.float64).T.copy()))

    return AlignedPanel(
        dates=dates, close=prices.values, sentiment=senti, ticker=prices.name, **columns
    )
