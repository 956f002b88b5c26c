"""Reference row loop of the price and macro parsers: every numeric cell through `_parse_number`.

The production loop converts a row of plain finite numbers in one step and
sends any other row here cell by cell; this module keeps the cell-by-cell
loop for every row, so tests can require both to give the same series or
the same error.
"""

from __future__ import annotations

from stockcast.errors import ParseError, StockcastError
from stockcast.ingest import ParsedSeries, _parse_date, _parse_number, _rows
from stockcast.series import Series


def per_cell_parse_series(data, header, name, what, value_of) -> ParsedSeries:
    """`stockcast.ingest._parse_series` with every cell parsed by `_parse_number`."""
    rows = {}
    skipped = 0
    for line, row in _rows(data, header):
        if len(row) != len(header):
            raise ParseError(line, None, f"expected {len(header)} fields, got {len(row)}")
        day = _parse_date(line, row[0])
        numbers = [_parse_number(line, column, cell) for column, cell in zip(header[1:], row[1:])]
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
