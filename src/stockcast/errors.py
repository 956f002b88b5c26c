"""Exception types shared across the package.

Every failure surfaced to callers is a subclass of StockcastError, so CLI
code can catch one type and still report the specific condition.
"""

from __future__ import annotations


class StockcastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StockcastError):
    """Run configuration is missing, malformed, or self-contradictory."""


# --- data containers ---------------------------------------------------


class EmptyIntersection(StockcastError):
    """No macro value exists at or before the first price date."""

    def __init__(self, column: str, first_date) -> None:
        super().__init__(f"no {column} value on or before {first_date}")
        self.column = column


class DuplicateDate(StockcastError):
    def __init__(self, date, line: int | None = None) -> None:
        super().__init__(("" if line is None else f"line {line}: ") + f"duplicate date {date}")
        self.date = date


# --- ingestion ---------------------------------------------------------


class ParseError(StockcastError):
    """A cell or row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, column: str | None, message: str) -> None:
        where = f"line {line}" + (f", column {column!r}" if column else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column

class MissingHeader(StockcastError):
    def __init__(self, expected: str, got: str) -> None:
        super().__init__(f"line 1: expected header {expected!r}, got {got!r}")
        self.expected = expected
        self.got = got


class EmptyFile(StockcastError):
    """Input contained no data rows."""


class UnknownTicker(StockcastError):
    def __init__(self, ticker: str, line: int) -> None:
        super().__init__(f"line {line}: ticker {ticker!r} is not in the configured universe")
        self.ticker = ticker
        self.line = line


# --- sentiment ---------------------------------------------------------


class NewsAfterCalendarEnd(StockcastError):
    def __init__(self, date) -> None:
        super().__init__(f"news dated {date} falls after the last trading day of the calendar")
        self.date = date


# --- dataset -----------------------------------------------------------


class DegenerateRange(StockcastError):
    def __init__(self, feature: str) -> None:
        super().__init__(f"feature {feature!r} is constant; min-max scaling undefined")
        self.feature = feature


class WindowTooLong(StockcastError):
    def __init__(self, window: int, n: int) -> None:
        super().__init__(f"window length {window} must be < series length {n}")
        self.window = window
        self.n = n


class MissingSentiment(StockcastError):
    """Aligned panel lacks sentiment columns required by the feature table."""


class TooFewSamples(StockcastError):
    """Not enough samples for the requested fit or split."""


# --- models ------------------------------------------------------------


class ShapeMismatch(StockcastError):
    """Input dimensions do not match the model parameters."""


class SchemaMismatch(StockcastError):
    """Feature row or artifact does not match the expected schema."""


class DivergedLoss(StockcastError):
    """Training encountered a non-finite loss."""


class SeriesTooShort(StockcastError):
    """Series is too short for the requested differencing and lag structure."""


class ArtifactError(StockcastError):
    """Artifact file is missing, malformed, or has an unsupported version."""


# --- evaluation / reporting -------------------------------------------


class LengthMismatch(StockcastError):
    """Prediction and actual series have different lengths."""


class EmptySeries(StockcastError):
    """Metric requested on an empty series."""


class ZeroActual(StockcastError):
    def __init__(self, index: int) -> None:
        super().__init__(f"actual value at index {index} is zero; MAPE undefined")
        self.index = index


class RangeError(StockcastError):
    """Evaluation range is empty, unordered, or overlaps training data."""


class ConstantColumn(StockcastError):
    def __init__(self, name: str) -> None:
        super().__init__(f"column {name!r} is constant; correlation undefined")
        self.name = name


class EmptyReport(StockcastError):
    """Report contains no entries; nothing to emit."""
