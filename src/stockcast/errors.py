"""Exception types shared across the package.

Every failure surfaced to callers is a StockcastError, and the CLI prints
its message, so the message names the condition. A subclass exists only
where code tells it apart: some `except` clause names it, or it builds a
message of its own (`ParseError`'s `line N, column 'X': ` prefix).
Everything else raises a plain StockcastError.
"""

from __future__ import annotations


class StockcastError(Exception):
    """Base class for all errors raised by this package."""


class EmptyIntersection(StockcastError):
    """No macro value exists at or before the first price date."""

    def __init__(self, column: str, first_date) -> None:
        super().__init__(f"no {column} value on or before {first_date}")
        self.column = column


class ParseError(StockcastError):
    """A cell or row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, column: str | None, message: str) -> None:
        where = f"line {line}" + (f", column {column!r}" if column else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


class SchemaMismatch(StockcastError):
    """Feature row or artifact does not match the expected schema."""


class ArtifactError(StockcastError):
    """Artifact file is missing, malformed, or has an unsupported version."""
