from datetime import date

import numpy as np
import pytest

from stockcast.errors import StockcastError
from stockcast.evaluation import ForecastReport, MetricSet, ReportEntry
from stockcast.models.artifacts import KINDS
from stockcast.reporting import (
    emit_report,
    render_metrics_csv,
    render_report_md,
    report_from_json,
    report_to_json,
)

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
