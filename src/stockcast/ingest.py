"""Strict CSV parsers for the three input file families.

All parsers are total over arbitrary byte input: every failure is a typed
error carrying a 1-based line number. Dates are accepted in YYYY-MM-DD
only; locale-ambiguous formats are rejected outright because a silent
month/day swap corrupts the whole calendar.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Collection, Iterator

from .errors import DuplicateDate, EmptyFile, MissingHeader, ParseError, UnknownTicker
from .series import (
    MACRO_COLUMNS,
    POSITIVE_MACRO,
    MacroSeries,
    PriceSeries,
    TradingDate,
    parse_trading_date,
)

PRICE_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]
MACRO_HEADER = ["Date", "Value"]
NEWS_HEADER = ["Date", "Ticker", "Headline"]

_NULL_TOKENS = {"", "null", "na", "n/a"}


@dataclass(frozen=True)
class NewsItem:
    """One headline; file order is significant for daily concatenation."""

    date: TradingDate
    ticker: str
    headline: str


@dataclass(frozen=True)
class ParsedSeries:
    """A parsed price or macro file; `skipped` counts rows dropped for an empty cell."""

    series: PriceSeries | MacroSeries
    skipped: int


@dataclass(frozen=True)
class ParsedNews:
    items: tuple[NewsItem, ...]
    skipped: int


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, None, f"input is not valid UTF-8: {exc}") from None


def _rows(text: str, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, row) for data rows after validating the header."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyFile("input has no rows") from None
    except csv.Error as exc:
        raise ParseError(1, None, f"malformed CSV: {exc}") from None
    if header and header[0].startswith("﻿"):
        header[0] = header[0].lstrip("﻿")
    if header != expected_header:
        raise MissingHeader(",".join(expected_header), ",".join(header))
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(reader.line_num, None, f"malformed CSV: {exc}") from None
        line = reader.line_num
        if not row or all(cell.strip() == "" for cell in row):
            continue
        yield line, row


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


def parse_price_csv(data: bytes | str, ticker: str) -> ParsedSeries:
    """Parse an OHLCV file into a date-sorted PriceSeries of closes.

    Rows with an empty or null numeric cell are dropped and tallied in the
    result; any other malformed cell, or a bar whose open/close lies outside
    [low, high], is a ParseError. Duplicate dates are a hard error rather
    than last-wins.
    """
    text = _decode(data)
    rows: dict[TradingDate, float] = {}
    skipped = 0
    for line, row in _rows(text, PRICE_HEADER):
        if len(row) != len(PRICE_HEADER):
            raise ParseError(line, None, f"expected {len(PRICE_HEADER)} fields, got {len(row)}")
        day = _parse_date(line, row[0])
        numbers = [
            _parse_number(line, column, cell) for column, cell in zip(PRICE_HEADER[1:], row[1:])
        ]
        if None in numbers:
            skipped += 1
            continue
        open_, high, low, close, adj_close, volume = numbers
        if min(open_, high, low, close, adj_close) <= 0:
            raise ParseError(line, None, f"{day}: prices must be finite and > 0")
        if not (low <= open_ <= high and low <= close <= high):
            raise ParseError(line, None, f"{day}: open/close must lie within [low, high]")
        if volume < 0:
            raise ParseError(line, None, f"{day}: volume must be >= 0")
        if day in rows:
            raise DuplicateDate(day, line)
        rows[day] = close
    if not rows:
        raise EmptyFile("no usable price rows")
    days = sorted(rows)
    return ParsedSeries(PriceSeries(ticker, days, [rows[d] for d in days]), skipped)


def parse_macro_csv(data: bytes | str, column: str) -> ParsedSeries:
    """Parse a two-column macro file into a sorted, duplicate-free series.

    `column` is one of MACRO_COLUMNS and fixes the positivity requirement
    (yields may be negative, prices and FX rates may not).
    """
    if column not in MACRO_COLUMNS:
        raise ValueError(f"unknown macro column {column!r}")
    text = _decode(data)
    rows: dict[TradingDate, float] = {}
    skipped = 0
    for line, row in _rows(text, MACRO_HEADER):
        if len(row) != 2:
            raise ParseError(line, None, f"expected 2 fields, got {len(row)}")
        day = _parse_date(line, row[0])
        value = _parse_number(line, "Value", row[1])
        if value is None:
            skipped += 1
            continue
        if column in POSITIVE_MACRO and value <= 0:
            raise ParseError(line, "Value", f"{column} must be > 0, got {value}")
        if day in rows:
            raise DuplicateDate(day, line)
        rows[day] = value
    if not rows:
        raise EmptyFile("no usable macro rows")
    days = sorted(rows)
    return ParsedSeries(MacroSeries(column, days, [rows[d] for d in days]), skipped)


def parse_news_file(data: bytes | str, universe: Collection[str] | None = None) -> ParsedNews:
    """Parse headlines, preserving file order (it drives daily concatenation).

    Blank headlines are skipped and tallied. When `universe` is given, any
    other ticker is an UnknownTicker error.
    """
    text = _decode(data)
    items: list[NewsItem] = []
    skipped = 0
    saw_row = False
    for line, row in _rows(text, NEWS_HEADER):
        saw_row = True
        if len(row) != 3:
            raise ParseError(line, None, f"expected 3 fields, got {len(row)}")
        day = _parse_date(line, row[0])
        ticker = row[1].strip()
        if not ticker:
            raise ParseError(line, "Ticker", "ticker must be non-empty")
        if universe is not None and ticker not in universe:
            raise UnknownTicker(ticker, line)
        headline = row[2].strip()
        if not headline:
            skipped += 1
            continue
        items.append(NewsItem(date=day, ticker=ticker, headline=headline))
    if not saw_row:
        raise EmptyFile("no news rows")
    return ParsedNews(tuple(items), skipped)
