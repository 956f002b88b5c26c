"""Strict CSV parsers for the three input file families.

All parsers are total over arbitrary byte input: every failure is a
StockcastError, and one about a row is a ParseError naming its 1-based
line. Dates are accepted in YYYY-MM-DD only; locale-ambiguous formats are
rejected outright because a silent month/day swap corrupts the whole
calendar.

Prices and macro quotes become date-sorted Series. News becomes columns
per ticker (date ordinals, file lines, headlines), each in file order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterator

import numpy as np

from .errors import ParseError, StockcastError
from .series import MACRO_COLUMNS, SIGNED_COLUMNS, Series, TradingDate, parse_trading_date

PRICE_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]
MACRO_HEADER = ["Date", "Value"]
NEWS_HEADER = ["Date", "Ticker", "Headline"]

_NULL_TOKENS = {"", "null", "na", "n/a"}


@dataclass(frozen=True)
class ParsedSeries:
    """A parsed price or macro file; `skipped` counts rows dropped for an empty cell."""

    series: Series
    skipped: int


@dataclass(frozen=True)
class TickerNews:
    """One ticker's kept headlines as columns, in file order (it drives daily concatenation).

    `ordinals` holds each headline's `date.toordinal()` and `lines` its
    1-based file line, both int64.
    """

    ordinals: np.ndarray
    lines: np.ndarray
    headlines: tuple[str, ...]


NO_NEWS = TickerNews(np.empty(0, np.int64), np.empty(0, np.int64), ())


@dataclass(frozen=True)
class ParsedNews:
    """A parsed news file: the columns of each ticker with a kept headline."""

    tickers: dict[str, TickerNews]
    skipped: int

    @property
    def items(self) -> np.ndarray:
        """The file line of every kept headline, ticker by ticker; its length is their count."""
        return np.concatenate([NO_NEWS.lines, *(n.lines for n in self.tickers.values())])

    def of(self, ticker: str) -> TickerNews:
        return self.tickers.get(ticker, NO_NEWS)


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, None, f"input is not valid UTF-8: {exc}") from None


def _rows(data: bytes | str, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, row) for the non-blank data rows after validating the header."""
    reader = csv.reader(io.StringIO(_decode(data)))
    header = None
    try:
        header = next(reader, None)
        if header is None:
            raise StockcastError("input has no rows")
        if header and header[0].startswith("﻿"):
            header[0] = header[0].lstrip("﻿")
        if header != expected_header:
            raise ParseError(
                1, None, f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
            )
        for row in reader:
            if any(map(str.strip, row)):
                yield reader.line_num, row
    except csv.Error as exc:
        # a header that fails to read is reported at line 1, however many lines it spans
        line = 1 if header is None else reader.line_num
        raise ParseError(line, None, f"malformed CSV: {exc}") from None


def _parse_date(line: int, text: str) -> TradingDate:
    try:
        return parse_trading_date(text.strip())
    except ValueError as exc:
        raise ParseError(line, "Date", str(exc)) from None


def _parse_number(line: int, column: str, text: str) -> float | None:
    """Parse a numeric cell; None means the cell was empty/null (skip row)."""
    value = text.strip()
    if value.lower() in _NULL_TOKENS:
        return None
    try:
        number = float(value)
    except ValueError:
        raise ParseError(line, column, f"not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ParseError(line, column, f"non-finite value: {value!r}")
    return number


def _parse_series(
    data: bytes | str,
    header: list[str],
    name: str,
    what: str,
    value_of: Callable[..., float],
) -> ParsedSeries:
    """The shared row loop of the price and macro files.

    Each row's numeric cells go to `value_of(line, day, *numbers)`, which
    checks them and returns the day's value. Rows with an empty or null
    numeric cell are dropped and tallied; duplicate dates are a hard error
    rather than last-wins.

    A row whose cells all convert with `float` to finite numbers takes them
    as they are: `_parse_number` would give the same numbers. Any other row
    goes to `_parse_number` cell by cell, which decides its nulls and errors.
    """
    rows: dict[TradingDate, float] = {}
    skipped = 0
    for line, row in _rows(data, header):
        if len(row) != len(header):
            raise ParseError(line, None, f"expected {len(header)} fields, got {len(row)}")
        day = _parse_date(line, row[0])
        try:
            numbers = list(map(float, row[1:]))
        except ValueError:
            numbers = None
        # a sum is finite only if every term is; one that overflows takes the slow path
        if numbers is None or not math.isfinite(sum(numbers)):
            numbers = [
                _parse_number(line, column, cell) for column, cell in zip(header[1:], row[1:])
            ]
            if None in numbers:
                skipped += 1
                continue
        value = value_of(line, day, *numbers)
        if day in rows:
            raise ParseError(line, None, f"duplicate date {day}")
        rows[day] = value
    if not rows:
        raise StockcastError(f"no usable {what} rows")
    days = sorted(rows)
    return ParsedSeries(Series(name, days, [rows[d] for d in days]), skipped)


def _bar_close(line: int, day: TradingDate, open_, high, low, close, adj_close, volume) -> float:
    """The close of an OHLCV bar whose prices are > 0, open and close in [low, high]."""
    if min(open_, high, low, close, adj_close) <= 0:
        raise ParseError(line, None, f"{day}: prices must be finite and > 0")
    if not (low <= open_ <= high and low <= close <= high):
        raise ParseError(line, None, f"{day}: open/close must lie within [low, high]")
    if volume < 0:
        raise ParseError(line, None, f"{day}: volume must be >= 0")
    return close


def parse_price_csv(data: bytes | str, ticker: str) -> ParsedSeries:
    """Parse an OHLCV file into the date-sorted Series of `ticker`'s closes.

    A malformed cell, or a bar whose open/close lies outside [low, high],
    is a ParseError.
    """
    return _parse_series(data, PRICE_HEADER, ticker, "price", _bar_close)


def parse_macro_csv(data: bytes | str, column: str) -> ParsedSeries:
    """Parse a two-column macro file into a sorted, duplicate-free series.

    `column` is one of MACRO_COLUMNS and fixes the positivity requirement
    (yields may be negative, prices and FX rates may not).
    """
    if column not in MACRO_COLUMNS:
        raise ValueError(f"unknown macro column {column!r}")

    def value_of(line: int, day: TradingDate, value: float) -> float:
        if column not in SIGNED_COLUMNS and value <= 0:
            raise ParseError(line, "Value", f"{column} must be > 0, got {value}")
        return value

    return _parse_series(data, MACRO_HEADER, column, "macro", value_of)


def parse_news_file(data: bytes | str, universe: Collection[str] | None = None) -> ParsedNews:
    """Parse headlines into per-ticker columns, each in file order (it drives daily concatenation).

    Blank headlines are skipped and tallied. When `universe` is given, any
    other ticker is a ParseError.
    """
    groups: dict[str, list[tuple[int, int, str]]] = {}  # (date ordinal, line, headline) rows
    skipped = 0
    line = 0
    for line, row in _rows(data, NEWS_HEADER):
        if len(row) != 3:
            raise ParseError(line, None, f"expected 3 fields, got {len(row)}")
        raw_date, raw_ticker, headline = row
        ordinal = _parse_date(line, raw_date).toordinal()
        ticker = raw_ticker.strip()
        group = groups.get(ticker)
        if group is None:  # checked once per ticker
            if not ticker:
                raise ParseError(line, "Ticker", "ticker must be non-empty")
            if universe is not None and ticker not in universe:
                raise ParseError(line, None, f"ticker {ticker!r} is not in the configured universe")
            group = groups[ticker] = []
        headline = headline.strip()
        if not headline:
            skipped += 1
            continue
        group.append((ordinal, line, headline))
    if not line:
        raise StockcastError("no news rows")
    tickers = {}
    for ticker, group in groups.items():
        if group:
            ordinals, lines, headlines = zip(*group)
            tickers[ticker] = TickerNews(
                np.array(ordinals, np.int64), np.array(lines, np.int64), headlines
            )
    return ParsedNews(tickers, skipped)
