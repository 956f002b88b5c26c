import csv
import io
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast import ingest
from stockcast.errors import ParseError, StockcastError
from stockcast.ingest import ParsedSeries, parse_macro_csv, parse_news_file, parse_price_csv
from stockcast.series import MACRO_COLUMNS, Series

from ingest_reference import per_cell_parse_series

PRICE_HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"


def price_csv(*rows: str) -> str:
    return PRICE_HEADER + "".join(r + "\n" for r in rows)


def test_single_row_close_matches():
    parsed = parse_price_csv(price_csv("2021-06-28,2098,2110,2080,2086,2086,5000000"), "RIL")
    assert parsed.skipped == 0
    assert len(parsed.series) == 1
    assert parsed.series.values[0] == 2086


def test_empty_input_is_empty_file():
    with pytest.raises(StockcastError, match="^input has no rows$"):
        parse_price_csv(b"", "RIL")
    with pytest.raises(StockcastError, match="^no usable price rows$"):
        parse_price_csv(PRICE_HEADER, "RIL")


def test_bad_close_cell_reports_line_and_column():
    rows = [f"2021-06-{day:02d},10,11,9,10,10,100" for day in range(1, 6)]
    rows.append("2021-06-06,10,11,9,abc,10,100")
    with pytest.raises(ParseError) as exc:
        parse_price_csv(price_csv(*rows), "RIL")
    assert exc.value.line == 7
    assert exc.value.column == "Close"


def test_null_cells_skip_with_tally():
    parsed = parse_price_csv(
        price_csv(
            "2021-06-01,10,11,9,10,10,100",
            "2021-06-02,10,11,9,,10,100",
            "2021-06-03,10,11,9,null,10,100",
            "2021-06-04,10,11,9,10.5,10.5,100",
        ),
        "RIL",
    )
    assert parsed.skipped == 2
    assert len(parsed.series) == 2


def test_rows_sorted_and_duplicates_rejected():
    parsed = parse_price_csv(
        price_csv("2021-06-02,11,12,10,11,11,100", "2021-06-01,10,11,9,10,10,100"), "RIL"
    )
    assert [d.day for d in parsed.series.dates] == [1, 2]
    assert list(parsed.series.values) == [10.0, 11.0]
    with pytest.raises(ParseError, match="^line 3: duplicate date 2021-06-01$"):
        parse_price_csv(
            price_csv("2021-06-01,10,11,9,10,10,100", "2021-06-01,10,11,9,10,10,100"), "RIL"
        )
    with pytest.raises(ParseError, match="^line 4: duplicate date 2021-06-01$"):
        parse_macro_csv("Date,Value\n2021-06-01,1\n2021-06-02,1\n2021-06-01,2\n", "gold")


def test_missing_header():
    with pytest.raises(ParseError, match="^line 1: expected header 'Date,Open,High"):
        parse_price_csv("Date,Open\n2021-06-01,10\n", "RIL")


def test_bar_invariant_violation_is_parse_error():
    with pytest.raises(ParseError):
        parse_price_csv(price_csv("2021-06-01,10,9,11,10,10,100"), "RIL")  # high < low
    good = "2021-06-01,10,11,9,10,10,1"
    cases = [
        ("2021-06-02,10,11,12,10,10,1", "2021-06-02: open/close must lie within [low, high]"),
        ("2021-06-02,10,11,9,10,0,1", "2021-06-02: prices must be finite and > 0"),
        ("2021-06-02,10,11,9,10,10,-1", "2021-06-02: volume must be >= 0"),
    ]
    for bad, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_price_csv(price_csv(good, bad), "RIL")
        assert exc.value.line == 3
        assert str(exc.value) == f"line 3: {message}"


def test_ambiguous_date_formats_rejected():
    for bad in ("06/01/2021", "2021-6-1", "20210601"):
        with pytest.raises(ParseError) as exc:
            parse_price_csv(price_csv(f"{bad},10,11,9,10,10,100"), "RIL")
        assert exc.value.column == "Date"


def price(text: str):
    return parse_price_csv(text, "RIL")


def gold(text: str):
    return parse_macro_csv(text, "gold")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (price, price_csv("2021-06-01,10,11,9,10,10"), "line 2: expected 7 fields, got 6"),
        (gold, "Date,Value\n2021-06-01,1,2\n", "line 2: expected 2 fields, got 3"),
        (price, price_csv("2021-06-01,10,11,9,1e,10,100"),
         "line 2, column 'Close': not a number: '1e'"),
        (gold, "Date,Value\n2021-06-01, abc \n", "line 2, column 'Value': not a number: 'abc'"),
        (price, price_csv("2021-06-01,10,11,9,10,10,inf"),
         "line 2, column 'Volume': non-finite value: 'inf'"),
        (gold, "Date,Value\n2021-06-01,NaN\n", "line 2, column 'Value': non-finite value: 'NaN'"),
        (gold, "Date,Value\n2021-06-01,2\n2021-06-02,-1\n",
         "line 3, column 'Value': gold must be > 0, got -1.0"),
        (gold, "Date,Value\n2021-06-01,null\n2021-06-02, N/A\n", "no usable macro rows"),
        (price, price_csv("2021-06-01,10,9,11,10,10,100"),
         "line 2: 2021-06-01: open/close must lie within [low, high]"),
        (gold, "Date,Value\n\n,\n  , \n2021-06-02,x\n",
         "line 5, column 'Value': not a number: 'x'"),
        (price, price_csv("", "2021-06-01,10,11,9,10,10,100", ",,,,,,", "2021-06-02,10,11,9,10,10"),
         "line 5: expected 7 fields, got 6"),
    ],
)
def test_price_and_macro_error_texts(parse, text, message):
    with pytest.raises(StockcastError) as exc:
        parse(text)
    assert str(exc.value) == message


def mixed_case(text: str):
    return st.lists(st.booleans(), min_size=len(text), max_size=len(text)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(text, upper))
    )


PADDING = st.sampled_from(["", " ", "\t", "\u2003", " \t\u2003 "])


def float_cell(values):
    return st.tuples(PADDING, values.map(repr), PADDING).map("".join)


# values that make valid bars and duplicate dates likely when a row repeats one of them
SHARED_VALUES = st.sampled_from([10.0, 10.0, 0.1 + 0.2, 1e-300, 5e-324, 1.7976931348623157e308,
                                 123456.789, 0.0, -0.0, -2.5])
NULL_CELLS = st.sampled_from(["null", "NA", " n/a ", ""]).flatmap(mixed_case)
OTHER_CELLS = st.one_of(
    float_cell(st.floats(allow_nan=False, allow_infinity=False)),
    NULL_CELLS,
    st.sampled_from(["nan", "inf", "-Infinity"]).flatmap(mixed_case),
    st.sampled_from(["1_000", "\u0661\u0662\u0663", "\uff11\uff10", "0x10", "1e999", "-1e999"]),
    st.text(max_size=5),
)
DATES = st.sampled_from(
    ["2021-06-01", "2021-06-02", "2021-06-03", "2021-06-04", " 2021-06-07\t"] * 4 + ["2021-13-01"]
)


@st.composite
def numeric_rows(draw, width: int) -> str:
    """A price (width 6) or macro (width 1) file.

    A row repeats one value in every cell, or in all but one null cell, or
    mixes it with any other cell; a few rows have a wrong field count.
    """
    shared = float_cell(st.just(draw(SHARED_VALUES)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["Date", "Value"] if width == 1 else ingest.PRICE_HEADER)
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.sampled_from([width] * 10 + [width - 1, width + 1]))
        style = draw(st.sampled_from(["same"] * 4 + ["one null", "mixed"]))
        cell = st.one_of(shared, OTHER_CELLS) if style == "mixed" else shared
        cells = [draw(cell) for _ in range(count)]
        if style == "one null" and cells:
            cells[draw(st.integers(0, count - 1))] = draw(NULL_CELLS)
        writer.writerow([draw(DATES), *cells])
    return out.getvalue()


def outcome(parse, text: str):
    """What a parse gives: the series bit for bit and the skip tally, or the error."""
    try:
        parsed = parse(text)
    except ParseError as exc:
        return "ParseError", exc.line, exc.column, str(exc)
    except StockcastError as exc:
        return "StockcastError", str(exc)
    series = parsed.series
    return series.name, series.dates, series.values.tobytes(), parsed.skipped


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), column=st.sampled_from(MACRO_COLUMNS), macro=st.booleans())
def test_the_one_step_row_conversion_equals_the_per_cell_loop(data, column, macro):
    if macro:
        text, parse = data.draw(numeric_rows(1)), lambda t: parse_macro_csv(t, column)
    else:
        text, parse = data.draw(numeric_rows(6)), lambda t: parse_price_csv(t, "RIL")
    with mock.patch.object(ingest, "_parse_series", per_cell_parse_series):
        expected = outcome(parse, text)
    assert outcome(parse, text) == expected


@pytest.mark.parametrize("parse, text", [
    (price, price_csv("2021-06-01,10,11,9,10,10,100", "", "2021-06-02,10,11,9,10\r5,10,100")),
    (gold, "Date,Value\n2021-06-01,1\n\n2021-06-02,1\r5\n"),
])
def test_malformed_csv_names_its_line(parse, text):
    with pytest.raises(ParseError, match="^line 4: malformed CSV: ") as exc:
        parse(text)
    assert exc.value.line == 4


def test_macro_sorting_and_positivity():
    parsed = parse_macro_csv("Date,Value\n2021-06-02,101\n2021-06-01,100\n", "gold")
    assert list(parsed.series.values) == [100.0, 101.0]
    with pytest.raises(ParseError):
        parse_macro_csv("Date,Value\n2021-06-01,-1.0\n", "gold")
    # yields may be negative
    parsed = parse_macro_csv("Date,Value\n2021-06-01,-0.25\n", "gsec")
    assert list(parsed.series.values) == [-0.25]


def test_price_and_macro_parsers_both_return_parsed_series():
    prices = parse_price_csv(
        price_csv("2021-06-28,2098,2110,2080,2086,2086,5000000", "2021-06-29,,1,1,1,1,1"), "RIL"
    )
    macro = parse_macro_csv("Date,Value\n2021-06-01,6.1\n2021-06-02,null\n2021-06-03,6.2\n", "gsec")
    assert type(prices) is ParsedSeries and type(prices.series) is Series
    assert type(macro) is ParsedSeries and type(macro.series) is Series
    assert (prices.skipped, macro.skipped) == (1, 1)
    assert list(macro.series.values) == [6.1, 6.2]


def test_macro_long_synthetic_file_round_trips():
    # 3,620 weekday rows spanning 29 Dec 2006 to 28 Jun 2021
    start, end = date(2006, 12, 29), date(2021, 6, 28)
    all_weekdays = []
    d = start
    while d <= end:
        if d.weekday() < 5:
            all_weekdays.append(d)
        d += timedelta(days=1)
    assert len(all_weekdays) >= 3620
    idx = np.linspace(0, len(all_weekdays) - 1, 3620).astype(int)
    dates = [all_weekdays[i] for i in idx]
    assert dates[0] == start and dates[-1] == end
    body = "".join(f"{d.isoformat()},{1000 + i * 0.25}\n" for i, d in enumerate(dates))
    parsed = parse_macro_csv("Date,Value\n" + body, "gold")
    assert parsed.skipped == 0
    assert len(parsed.series) == 3620
    assert parsed.series.dates[0] == start
    assert parsed.series.dates[-1] == end


def test_news_order_preserved_and_quoting():
    text = (
        "Date,Ticker,Headline\n"
        "2021-06-01,RIL,first headline\n"
        "2021-06-01,RIL,second headline\n"
        '2021-06-01,RIL,"RIL, Q4 results beat"\n'
    )
    parsed = parse_news_file(text, universe={"RIL"})
    assert parsed.of("RIL").headlines == (
        "first headline",
        "second headline",
        "RIL, Q4 results beat",
    )


def test_news_blank_headline_skipped_and_unknown_ticker():
    parsed = parse_news_file("Date,Ticker,Headline\n2021-06-01,RIL,   \n2021-06-01,RIL,ok\n")
    assert parsed.skipped == 1
    assert len(parsed.items) == 1
    with pytest.raises(
        ParseError, match="^line 2: ticker 'XXX' is not in the configured universe$"
    ):
        parse_news_file("Date,Ticker,Headline\n2021-06-01,XXX,hello\n", universe={"RIL"})


@pytest.mark.parametrize("bad_line", [2, 40, 401])
def test_a_bad_date_among_many_copies_of_one_date_names_its_own_line(bad_line):
    rows = ["2021-06-01,RIL,same day"] * 400
    rows[bad_line - 2] = "2021-13-01,RIL,bad month"
    with pytest.raises(ParseError) as exc:
        parse_news_file("Date,Ticker,Headline\n" + "".join(r + "\n" for r in rows))
    assert (exc.value.line, exc.value.column) == (bad_line, "Date")


@settings(max_examples=50, derandomize=True)
@given(
    closes=st.lists(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=20,
    )
)
def test_parsed_closes_equal_written_floats(closes):
    start = date(2020, 1, 1)
    rows = []
    d = start
    for c in closes:
        while d.weekday() >= 5:
            d += timedelta(days=1)
        rows.append(f"{d.isoformat()},{c!r},{c * 2!r},{c / 2!r},{c!r},{c!r},100")
        d += timedelta(days=1)
    parsed = parse_price_csv(price_csv(*rows), "T")
    assert parsed.series.values.tolist() == closes
    assert len(parsed.series.dates) == len(closes)


@settings(max_examples=120, derandomize=True)
@given(blob=st.binary(max_size=300))
def test_parsers_are_total_over_arbitrary_bytes(blob):
    for parse in (
        lambda b: parse_price_csv(b, "T"),
        lambda b: parse_macro_csv(b, "gold"),
        lambda b: parse_news_file(b),
    ):
        try:
            parse(blob)
        except StockcastError:
            pass  # typed failure is the contract
