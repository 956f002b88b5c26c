"""Strict CSV parsers for the three input file families.

All parsers are total over arbitrary byte input: every failure is a
StockcastError, and one about a row is a ParseError naming its 1-based
line. Dates are accepted in YYYY-MM-DD only; locale-ambiguous formats are
rejected outright because a silent month/day swap corrupts the whole
calendar.

Prices and macro quotes become date-sorted Series. News becomes columns
per ticker (date ordinals, file lines, headlines), each in file order.

Each file first gets one whole-file pass: the CSV is read in one call,
its columns taken with `zip`, each converted in one `map`, and every check
run as an array pass. The pass only accepts or declines, and never
raises. It declines a file with a record spanning lines, a different
header, a row of the wrong width (a blank line included), or any cell or
check that fails; the row loop then reads that file as if the pass did
not exist, and decides every null, skip, error, line and message.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Collection, Iterator

import numpy as np

from .errors import ParseError, StockcastError
from .series import (
    MACRO_COLUMNS,
    SIGNED_COLUMNS,
    Series,
    TradingDate,
    date_ordinals,
    parse_trading_date,
)

PRICE_HEADER = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"]
MACRO_HEADER = ["Date", "Value"]
NEWS_HEADER = ["Date", "Ticker", "Headline"]

_NULL_TOKENS = {"", "null", "na", "n/a"}
_BOM = "\ufeff"


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


def _header(row: list[str]) -> list[str]:
    """A header row with any leading byte-order marks taken off its first cell."""
    if row and row[0].startswith(_BOM):
        row[0] = row[0].lstrip(_BOM)
    return row


def _rows(data: bytes | str, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, row) for the non-blank data rows after validating the header."""
    reader = csv.reader(io.StringIO(_decode(data)))
    header = None
    try:
        header = next(reader, None)
        if header is None:
            raise StockcastError("input has no rows")
        if _header(header) != expected_header:
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


def _columns(data: bytes | str, header: list[str]) -> list[tuple[str, ...]] | None:
    """The data columns of a file read in one call, or None for the row loop to judge it.

    None when the bytes are not UTF-8 or not CSV, a record spans more than
    one line, the header differs, there is no data row, or a row has the
    wrong width: a blank line is a row of width 0. Data row i is then file
    line i + 2.

    The reader takes the text's lines as split at "\n", the only line end
    `_rows` sees: a line's end and the end of its string close a record
    alike. It pops them off a reversed list, so each line is freed once
    read and the cells never sit beside the whole text twice over (the
    StringIO of `_rows` holds four bytes a character).
    """
    try:
        lines = _decode(data).split("\n")
    except ParseError:
        return None
    if not lines[-1]:
        lines.pop()  # after the last line end, not a line of its own
    lines.reverse()
    reader = csv.reader(map(lines.pop, repeat(-1, len(lines))))
    try:
        rows = list(reader)
    except csv.Error:
        return None
    if reader.line_num != len(rows) or len(rows) < 2 or _header(rows[0]) != header:
        return None
    del rows[0]
    if set(map(len, rows)) != {len(header)}:
        return None
    return list(zip(*rows))


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


def _series_pass(
    data: bytes | str, header: list[str], name: str, values_of: Callable[..., np.ndarray | None]
) -> ParsedSeries | None:
    """The whole-file pass of a price or macro file: its series, or None to decline.

    `values_of(*columns)` takes the finite numeric columns and returns the
    day values, or None when any row fails its check. The pass also
    declines a date not written exactly as YYYY-MM-DD, a cell that `float`
    rejects or reads as non-finite (every null does one or the other), a
    repeated date and an empty `name`.
    """
    columns = _columns(data, header)
    if columns is None:
        return None
    try:
        days = list(map(parse_trading_date, columns[0]))
        numbers = [np.fromiter(map(float, column), np.float64, len(days)) for column in columns[1:]]
    except ValueError:
        return None
    if not np.isfinite(numbers).all():
        return None
    values = values_of(*numbers)
    if values is None:
        return None
    ordinals = date_ordinals(days)
    order = np.argsort(ordinals, kind="stable")
    if not name or (np.diff(ordinals[order]) == 0).any():  # Series would raise for either
        return None
    return ParsedSeries(Series(name, list(map(days.__getitem__, order.tolist())), values[order]), 0)


def _parse_series(
    data: bytes | str,
    header: list[str],
    name: str,
    what: str,
    value_of: Callable[..., float],
    values_of: Callable[..., np.ndarray | None],
) -> ParsedSeries:
    """The whole-file pass of a price or macro file, else the shared row loop.

    Each row's numeric cells go to `value_of(line, day, *numbers)`, which
    checks them and returns the day's value; `values_of` is the same check
    over whole columns, for `_series_pass`. Rows with an empty or null
    numeric cell are dropped and tallied; duplicate dates are a hard error
    rather than last-wins.

    A row whose cells all convert with `float` to finite numbers takes them
    as they are: `_parse_number` would give the same numbers. Any other row
    goes to `_parse_number` cell by cell, which decides its nulls and errors.
    """
    parsed = _series_pass(data, header, name, values_of)
    if parsed is not None:
        return parsed
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


def _bar_closes(open_, high, low, close, adj_close, volume) -> np.ndarray | None:
    """`_bar_close` over whole columns: the closes, or None if any bar fails it."""
    ok = (
        (np.minimum.reduce([open_, high, low, close, adj_close]) > 0)
        & (low <= open_) & (open_ <= high) & (low <= close) & (close <= high)
        & (volume >= 0)
    )
    return close if ok.all() else None


def parse_price_csv(data: bytes | str, ticker: str) -> ParsedSeries:
    """Parse an OHLCV file into the date-sorted Series of `ticker`'s closes.

    A malformed cell, or a bar whose open/close lies outside [low, high],
    is a ParseError.
    """
    return _parse_series(data, PRICE_HEADER, ticker, "price", _bar_close, _bar_closes)


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

    def values_of(values: np.ndarray) -> np.ndarray | None:
        return values if column in SIGNED_COLUMNS or (values > 0).all() else None

    return _parse_series(data, MACRO_HEADER, column, "macro", value_of, values_of)


def _news_pass(data: bytes | str, universe: Collection[str] | None) -> ParsedNews | None:
    """The whole-file pass of a news file: its columns per ticker, or None to decline.

    It declines a date not written exactly as YYYY-MM-DD, an empty ticker
    and one outside `universe`; blank headlines are tallied as skipped.
    """
    columns = _columns(data, NEWS_HEADER)
    if columns is None:
        return None
    try:
        ordinals = date_ordinals(list(map(parse_trading_date, columns[0])))
    except ValueError:
        return None
    tickers = list(map(str.strip, columns[1]))
    code_of = {ticker: code for code, ticker in enumerate(dict.fromkeys(tickers))}  # row order
    if "" in code_of or (universe is not None and not all(map(universe.__contains__, code_of))):
        return None
    codes = np.fromiter(map(code_of.__getitem__, tickers), np.int64, len(tickers))
    headlines = np.array(list(map(str.strip, columns[2])), dtype=object)
    kept = headlines.astype(bool)
    lines = np.arange(2, len(tickers) + 2, dtype=np.int64)
    out = {}
    for ticker, code in code_of.items():
        rows = np.flatnonzero((codes == code) & kept)
        if rows.size:
            out[ticker] = TickerNews(ordinals[rows], lines[rows], tuple(headlines[rows].tolist()))
    return ParsedNews(out, len(tickers) - int(np.count_nonzero(kept)))


def parse_news_file(data: bytes | str, universe: Collection[str] | None = None) -> ParsedNews:
    """Parse headlines into per-ticker columns, each in file order (it drives daily concatenation).

    Blank headlines are skipped and tallied. When `universe` is given, any
    other ticker is a ParseError. The whole-file pass `_news_pass` goes
    first; the row loop reads any file it declines.
    """
    parsed = _news_pass(data, universe)
    if parsed is not None:
        return parsed
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
