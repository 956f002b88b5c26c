from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.errors import DuplicateDate, EmptyIntersection
from stockcast.sentiment import NEUTRAL_SCORE, SentimentScore
from stockcast.sentiment.daily import DailySentiment
from stockcast.series import (
    MacroPanel,
    MacroSeries,
    PriceBar,
    align_panel,
)

from conftest import make_macro_panel, make_prices, weekdays

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
    macro = MacroPanel(
        gold=MacroSeries("gold", tuple(macro_dates), tuple(1800.0 + i for i in range(len(macro_dates)))),
        brent=MacroSeries("brent", tuple(macro_dates), tuple(70.0 + i for i in range(len(macro_dates)))),
        gsec=MacroSeries("gsec", tuple(macro_dates), tuple(6.0 + i for i in range(len(macro_dates)))),
        usd_inr=MacroSeries("usd_inr", tuple(macro_dates), tuple(74.0 + i for i in range(len(macro_dates)))),
    )
    first = align_panel(prices, macro)
    # feed the aligned columns back in as gap-free series
    realigned = align_panel(
        prices,
        MacroPanel(
            gold=MacroSeries("gold", first.dates, tuple(first.gold)),
            brent=MacroSeries("brent", first.dates, tuple(first.brent)),
            gsec=MacroSeries("gsec", first.dates, tuple(first.gsec)),
            usd_inr=MacroSeries("usd_inr", first.dates, tuple(first.usd_inr)),
        ),
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
    series = MacroSeries("gsec", tuple(macro_dates), values)
    macro = MacroPanel(
        gold=MacroSeries("gold", tuple(macro_dates), tuple(v + 1800.0 for v in values)),
        brent=MacroSeries("brent", tuple(macro_dates), tuple(v + 70.0 for v in values)),
        gsec=series,
        usd_inr=MacroSeries("usd_inr", tuple(macro_dates), tuple(v + 74.0 for v in values)),
    )
    panel = align_panel(prices, macro)
    assert len(panel) == n
    for row, value in enumerate(panel.gsec):
        assert int(value) <= row  # source row never after the target row


def test_sentiment_gaps_get_neutral_default():
    dates = [D1, D2, D3]
    prices = make_prices(dates, [10, 11, 12])
    score = SentimentScore(pos=0.5, neg=0.1, neu=0.4, compound=0.6)
    records = [DailySentiment(D2, "TEST", score, 2)]
    panel = align_panel(prices, make_macro_panel(dates), sentiment=records)
    assert panel.sentiment is not None
    assert list(panel.sentiment.neu) == [1.0, 0.4, 1.0]
    assert list(panel.sentiment.compound) == [0.0, 0.6, 0.0]


def test_duplicate_sentiment_dates_rejected():
    dates = [D1, D2]
    prices = make_prices(dates, [10, 11])
    records = [
        DailySentiment(D2, "TEST", NEUTRAL_SCORE, 0),
        DailySentiment(D2, "TEST", NEUTRAL_SCORE, 0),
    ]
    with pytest.raises(DuplicateDate):
        align_panel(prices, make_macro_panel(dates), sentiment=records)


def test_price_series_rejects_duplicate_dates():
    bar = dict(open=10.0, high=11.0, low=9.0, close=10.0, adj_close=10.0, volume=1)
    with pytest.raises(DuplicateDate):
        make_prices([D1, D1], [10, 10])
    with pytest.raises(ValueError):
        PriceBar(date=D1, **{**bar, "low": 12.0})  # low above open/close


def test_macro_series_positivity():
    with pytest.raises(ValueError):
        MacroSeries("gold", (D1,), (-1.0,))
    # yields may be negative
    MacroSeries("gsec", (D1,), (-0.5,))
