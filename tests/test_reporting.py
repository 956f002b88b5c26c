import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.errors import StockcastError
from stockcast.evaluation import ForecastReport, MetricSet, ReportEntry
from stockcast.models.artifacts import KINDS
from stockcast.reporting import (
    emit_report,
    render_metrics_csv,
    render_report_md,
    render_series_csv,
    report_from_json,
    report_to_json,
)

import report_oracle
from conftest import weekdays


def make_entry(ticker: str, model: str, rmse=5.0, mape=1.5, n=4, seed=0) -> ReportEntry:
    rng = np.random.Generator(np.random.PCG64(seed))
    dates = weekdays(date(2021, 6, 1), n + 6)
    actual = 100 + rng.normal(0, 1, n)
    return ReportEntry(
        ticker=ticker,
        model=model,
        dates=tuple(dates[6:]),
        actual=actual,
        predicted=actual + rng.normal(0, 1, n),
        metrics=MetricSet(rmse=rmse, mape=mape, n=n),
        train_dates=tuple(dates[:6]),
        train_actual=100 + rng.normal(0, 1, 6),
    )


def full_report() -> ForecastReport:
    report = ForecastReport(metadata={"seed": 42, "primary_ticker": "RIL"})
    for ticker in ("RIL", "HDFCBANK", "TCS", "SBIN"):
        for model in ("lstm", "forest"):
            report.add(make_entry(ticker, model))
    return report


def test_emit_writes_expected_file_set(tmp_path):
    written = emit_report(full_report(), tmp_path)
    names = sorted(p.name for p in written)
    assert "metrics.csv" in names
    assert "report.md" in names
    series = [n for n in names if n.startswith("series_")]
    assert len(series) == 8
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "ticker,model,rmse,mape,n"
    assert len(lines) == 9


def test_series_csv_layout(tmp_path):
    emit_report(full_report(), tmp_path)
    lines = (tmp_path / "series_RIL_lstm.csv").read_text().strip().splitlines()
    assert lines[0] == "date,split,actual,predicted"
    assert lines[1].split(",")[1] == "train"
    assert lines[1].endswith(",")  # no prediction on train rows
    assert lines[-1].split(",")[1] == "validation"


def test_injected_metrics_render_in_markdown():
    report = ForecastReport(metadata={"primary_ticker": "RIL"})
    report.add(make_entry("RIL", "lstm", rmse=38.19, mape=1.36))
    md = render_report_md(report)
    row = next(line for line in md.splitlines() if line.startswith("| RIL |") and "38.19" in line)
    assert "| 38.19 | 1.36 |" in row
    comparison = next(line for line in md.splitlines() if line.startswith("| LSTM |"))
    assert "38.19" in comparison


def test_report_sections_present():
    md = render_report_md(full_report())
    assert "## Model comparison (RIL)" in md
    assert "## Final-day predictions" in md
    assert "## Per-stock error summary" in md
    # per-stock table carries one row per ticker
    stock_rows = [l for l in md.splitlines() if l.startswith("| RIL |")]
    assert stock_rows


def test_empty_report_rejected(tmp_path):
    with pytest.raises(StockcastError, match="^refusing to emit an empty report$"):
        emit_report(ForecastReport(), tmp_path)
    with pytest.raises(StockcastError, match="^no entries to render$"):
        render_report_md(ForecastReport())


def test_metrics_csv_is_deterministic():
    report = full_report()
    assert render_metrics_csv(report) == render_metrics_csv(report)


def test_report_json_round_trip():
    report = full_report()
    text = report_to_json(report)
    again = report_to_json(report_from_json(text))
    assert text == again


def test_svg_emission_behind_flag(tmp_path):
    report = ForecastReport(metadata={})
    report.add(make_entry("RIL", "lstm"))
    written = emit_report(report, tmp_path, svg=True)
    svgs = [p for p in written if p.suffix == ".svg"]
    assert len(svgs) == 1
    body = svgs[0].read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_rows_follow_kinds_order_with_their_labels():
    report = ForecastReport(metadata={"primary_ticker": "RIL"})
    for ticker in ("TCS", "RIL"):
        for model in reversed(KINDS):
            report.add(make_entry(ticker, model))
    rows = render_metrics_csv(report).splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [[t, k] for t in ("RIL", "TCS") for k in KINDS]
    md = render_report_md(report).splitlines()
    start = md.index("| Model | RMSE |") + 2
    assert md[start : start + len(KINDS)] == [f"| {s.label} | 5.00 |" for s in KINDS.values()]


# floats whose json and repr spellings are easy to get wrong, and a few plain ones
PRICES = st.one_of(st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, 101.25]), st.floats())
PREDICTIONS = st.one_of(PRICES, st.sampled_from([math.nan, math.inf, -math.inf]))
METADATA = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def reports(draw) -> ForecastReport:
    """Entries with no or a few training days and one or more dates, and nested metadata."""
    def column(values, size: int) -> np.ndarray:
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64)

    report = ForecastReport(metadata=draw(st.dictionaries(st.text(max_size=6), METADATA,
                                                          max_size=4)))
    for _ in range(draw(st.integers(0, 3))):
        n_train, n = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        days = weekdays(date(2021, 6, 1), n_train + n)
        report.add(ReportEntry(
            ticker=draw(st.sampled_from(["RIL", "TCS"])),
            model=draw(st.sampled_from(list(KINDS))),
            dates=tuple(days[n_train:]),
            actual=column(PRICES, n),
            predicted=column(PREDICTIONS, n),
            metrics=MetricSet(rmse=draw(st.floats(0, 1e300)), mape=draw(st.floats(0, 100)), n=n),
            train_dates=tuple(days[:n_train]),
            train_actual=column(PRICES, n_train),
        ))
    return report


@settings(max_examples=300, deadline=None, derandomize=True)
@given(report=reports())
def test_the_joined_report_text_equals_the_element_by_element_oracle(report):
    assert report_to_json(report) == report_oracle.report_to_json(report)
    for entry in report.entries:
        assert render_series_csv(entry) == report_oracle.render_series_csv(entry)
