from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.errors import EmptyIntersection
from stockcast.sentiment import NEUTRAL_SCORE, SentimentScore
from stockcast.sentiment.daily import DailySentiment
from stockcast.series import MACRO_COLUMNS, SIGNED_COLUMNS, Series, align_panel

from conftest import make_macro_panel, make_panel, make_prices, weekdays

D1, D2, D3 = date(2021, 6, 1), date(2021, 6, 2), date(2021, 6, 3)


def test_identity_alignment():
    dates = [D1, D2, D3]
    prices = make_prices(dates, [10, 11, 12])
    panel = align_panel(prices, make_macro_panel(dates))
    assert len(panel) == 3
    assert list(panel.close) == [10, 11, 12]
    assert list(panel.gold) == [1800.0, 1801.0, 1802.0]


def test_forward_fill_carries_earlier_value():
    prices = make_prices([D1, D2], [10, 11])
    macro = make_macro_panel([D1])
    panel = align_panel(prices, macro)
    assert list(panel.gold) == [1800.0, 1800.0]


def test_no_macro_before_first_price_date():
    prices = make_prices([D1], [10])
    macro = make_macro_panel([D2])
    with pytest.raises(EmptyIntersection):
        align_panel(prices, macro)


def test_alignment_is_idempotent():
    dates = weekdays(date(2021, 1, 4), 30)
    prices = make_prices(dates, range(100, 130))
    macro_dates = [d for i, d in enumerate(dates) if i % 3 != 1]  # gaps
    macro = {
        "gold": Series("gold", tuple(macro_dates), tuple(1800.0 + i for i in range(len(macro_dates)))),
        "brent": Series("brent", tuple(macro_dates), tuple(70.0 + i for i in range(len(macro_dates)))),
        "gsec": Series("gsec", tuple(macro_dates), tuple(6.0 + i for i in range(len(macro_dates)))),
        "usd_inr": Series("usd_inr", tuple(macro_dates), tuple(74.0 + i for i in range(len(macro_dates)))),
    }
    first = align_panel(prices, macro)
    # feed the aligned columns back in as gap-free series
    realigned = align_panel(
        prices,
        {
            "gold": Series("gold", first.dates, tuple(first.gold)),
            "brent": Series("brent", first.dates, tuple(first.brent)),
            "gsec": Series("gsec", first.dates, tuple(first.gsec)),
            "usd_inr": Series("usd_inr", first.dates, tuple(first.usd_inr)),
        },
    )
    assert np.array_equal(first.gold, realigned.gold)
    assert np.array_equal(first.brent, realigned.brent)
    assert np.array_equal(first.gsec, realigned.gsec)
    assert np.array_equal(first.usd_inr, realigned.usd_inr)


@settings(max_examples=60, derandomize=True)
@given(data=st.data())
def test_forward_fill_never_looks_ahead(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    dates = weekdays(date(2020, 1, 1), n)
    prices = make_prices(dates, [100.0 + i for i in range(n)])
    keep = data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda ks: ks[0])
    )
    macro_dates = [d for d, k in zip(dates, keep) if k]
    # encode the source date's index in the value so provenance is checkable
    values = tuple(float(dates.index(d)) for d in macro_dates)
    series = Series("gsec", tuple(macro_dates), values)
    macro = {
        "gold": Series("gold", tuple(macro_dates), tuple(v + 1800.0 for v in values)),
        "brent": Series("brent", tuple(macro_dates), tuple(v + 70.0 for v in values)),
        "gsec": series,
        "usd_inr": Series("usd_inr", tuple(macro_dates), tuple(v + 74.0 for v in values)),
    }
    panel = align_panel(prices, macro)
    assert len(panel) == n
    for row, value in enumerate(panel.gsec):
        assert int(value) <= row  # source row never after the target row


@settings(max_examples=80, derandomize=True)
@given(data=st.data())
def test_aligned_macro_is_latest_quote_on_or_before(data):
    # each column gets its own calendar, which may hold non-trading days
    start = date(2020, 1, 1)
    offsets = st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=40)
    days = [start + timedelta(days=i) for i in sorted(data.draw(offsets))]
    calendars = {
        name: [start + timedelta(days=i) for i in sorted(data.draw(offsets) | {0})]
        for name in MACRO_COLUMNS
    }
    # a distinct value per quote, so picking the wrong row cannot pass
    macro = {
        name: Series(name, tuple(cal), tuple(1.0 + 100 * c + i for i in range(len(cal))))
        for c, (name, cal) in enumerate(calendars.items())
    }
    panel = align_panel(make_prices(days, [100.0] * len(days)), macro)
    for name, series in macro.items():
        for day, value in zip(days, panel.column(name)):
            latest = max(i for i, d in enumerate(series.dates) if d <= day)
            assert value == series.values[latest]


def test_sentiment_gaps_get_neutral_default():
    # `aggregate_daily` gives a day without news the neutral record, so the
    # panel stacks one record per price date, and records that skip a date
    # are an error, not a gap to fill
    dates = [D1, D2, D3]
    prices = make_prices(dates, [10, 11, 12])
    score = SentimentScore(pos=0.5, neg=0.1, neu=0.4, compound=0.6)
    records = [DailySentiment(D2, "TEST", score, 2)]
    full = [DailySentiment(D1, "TEST", NEUTRAL_SCORE, 0), *records,
            DailySentiment(D3, "TEST", NEUTRAL_SCORE, 0)]
    panel = align_panel(prices, make_macro_panel(dates), sentiment=full)
    assert list(panel.sentiment["neu"]) == [1.0, 0.4, 1.0]
    assert list(panel.sentiment["compound"]) == [0.0, 0.6, 0.0]
    with pytest.raises(ValueError, match="TEST: sentiment records must cover exactly the price dates"):
        align_panel(prices, make_macro_panel(dates), sentiment=records)


def test_panel_sentiment_holds_exactly_the_four_columns_in_order():
    panel = make_panel(n=5)
    for keys in (("pos", "neg", "neu"), ("neg", "pos", "neu", "compound")):
        with pytest.raises(ValueError, match="^sentiment columns must be pos, neg, neu, compound$"):
            replace(panel, sentiment={k: panel.sentiment[k] for k in keys})


def test_duplicate_sentiment_dates_rejected():
    dates = [D1, D2]
    prices = make_prices(dates, [10, 11])
    records = [
        DailySentiment(D2, "TEST", NEUTRAL_SCORE, 0),
        DailySentiment(D2, "TEST", NEUTRAL_SCORE, 0),
    ]
    with pytest.raises(ValueError, match="TEST: sentiment records must cover exactly the price dates"):
        align_panel(prices, make_macro_panel(dates), sentiment=records)


def test_price_series_rejects_duplicate_dates():
    with pytest.raises(ValueError, match=f"^duplicate date {D1}$"):
        make_prices([D1, D1], [10, 10])


def test_price_series_invariants():
    with pytest.raises(ValueError):
        Series("", (D1,), [10.0])
    with pytest.raises(ValueError):
        Series("T", (D1, D2), [10.0])
    with pytest.raises(ValueError):
        Series("T", (D2, D1), [10.0, 11.0])
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Series("T", (D1,), [bad])


def test_macro_series_positivity():
    with pytest.raises(ValueError):
        Series("gold", (D1,), (-1.0,))
    # yields may be negative
    Series("gsec", (D1,), (-0.5,))


@pytest.mark.parametrize("name", sorted(set(MACRO_COLUMNS) - SIGNED_COLUMNS))
@pytest.mark.parametrize(
    "values, message",
    [
        ((1.0, float("nan"), -1.0), "on 2021-06-02: value must be finite"),
        ((1.0, float("inf"), 2.0), "on 2021-06-02: value must be finite"),
        ((1.0, -1.0, float("nan")), "on 2021-06-02: value must be > 0"),
        ((1.0, 2.0, 0.0), "on 2021-06-03: value must be > 0"),
    ],
)
def test_macro_series_names_its_first_bad_date(name, values, message):
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        Series(name, (D1, D2, D3), values)


def test_macro_series_values_are_a_read_only_float64_array():
    series = Series("gsec", (D1, D2, D3), (6, -0.25, 0))  # yields may be <= 0
    assert isinstance(series.values, np.ndarray) and series.values.dtype == np.float64
    assert list(series.values) == [6.0, -0.25, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        series.values[0] = 1.0
    with pytest.raises(ValueError, match="^gsec on 2021-06-03: value must be finite$"):
        Series("gsec", (D1, D2, D3), (6.0, -0.25, float("-inf")))
