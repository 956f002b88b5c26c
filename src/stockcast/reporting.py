"""Emission of metric tables, per-series plot data, and the markdown report.

Outputs are deterministic byte-for-byte given the same report: rows are
sorted, floats formatted with fixed precision in tables and full repr
precision in CSV data files.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import date
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import EmptyReport, SchemaMismatch
from .evaluation import ForecastReport, ReportEntry
from .models.artifacts import KINDS, _decode, _encode

METRICS_HEADER = ["ticker", "model", "rmse", "mape", "n"]
SERIES_HEADER = ["date", "split", "actual", "predicted"]


def csv_text(header: list[str], rows: Iterable[list]) -> str:
    """CSV text of a header and rows, each line ending in a bare newline."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def render_metrics_csv(report: ForecastReport) -> str:
    entries = sorted(report.entries, key=lambda e: (e.ticker, list(KINDS).index(e.model)))
    return csv_text(
        METRICS_HEADER,
        ([e.ticker, e.model, repr(e.metrics.rmse), repr(e.metrics.mape), e.metrics.n]
         for e in entries),
    )


def render_series_csv(entry: ReportEntry) -> str:
    rows = [[d.isoformat(), "train", repr(float(a)), ""]
            for d, a in zip(entry.train_dates, entry.train_actual)]
    rows += [[d.isoformat(), "validation", repr(float(a)), repr(float(p))]
             for d, a, p in zip(entry.dates, entry.actual, entry.predicted)]
    return csv_text(SERIES_HEADER, rows)


def _comparison_table(report: ForecastReport, ticker: str) -> list[str]:
    lines = [
        f"## Model comparison ({ticker})",
        "",
        "| Model | RMSE |",
        "| --- | --- |",
    ]
    entries = [e for e in report.entries if e.ticker == ticker]
    for e in sorted(entries, key=lambda e: list(KINDS).index(e.model)):
        lines.append(f"| {KINDS[e.model].label} | {e.metrics.rmse:.2f} |")
    return lines


def _final_day_table(report: ForecastReport) -> list[str]:
    last_date: date | None = None
    for e in report.entries:
        if e.dates:
            d = e.dates[-1]
            last_date = d if last_date is None or d > last_date else last_date
    lines = [
        f"## Final-day predictions ({last_date.isoformat() if last_date else 'n/a'})",
        "",
        "| Stock | Actual | LSTM prediction | Sentiment prediction |",
        "| --- | --- | --- | --- |",
    ]
    for ticker in report.tickers():
        lstm = report.entry(ticker, "lstm")
        forest = report.entry(ticker, "forest")
        source = lstm or forest
        actual = f"{source.actual[-1]:.2f}" if source is not None and len(source.actual) else "-"
        lstm_cell = f"{lstm.predicted[-1]:.2f}" if lstm is not None and len(lstm.predicted) else "-"
        forest_cell = (
            f"{forest.predicted[-1]:.2f}" if forest is not None and len(forest.predicted) else "-"
        )
        lines.append(f"| {ticker} | {actual} | {lstm_cell} | {forest_cell} |")
    return lines


def _per_stock_table(report: ForecastReport) -> list[str]:
    lines = [
        "## Per-stock error summary",
        "",
        "| Stock | LSTM RMSE | LSTM MAPE% | Sentiment RMSE | Sentiment MAPE% |",
        "| --- | --- | --- | --- | --- |",
    ]
    for ticker in report.tickers():
        lstm = report.entry(ticker, "lstm")
        forest = report.entry(ticker, "forest")

        def cells(entry: ReportEntry | None) -> tuple[str, str]:
            if entry is None:
                return "-", "-"
            return f"{entry.metrics.rmse:.2f}", f"{entry.metrics.mape:.2f}"

        lr, lm = cells(lstm)
        fr, fm = cells(forest)
        lines.append(f"| {ticker} | {lr} | {lm} | {fr} | {fm} |")
    return lines


def render_report_md(report: ForecastReport) -> str:
    if not report.entries:
        raise EmptyReport("no entries to render")
    meta = report.metadata
    lines = ["# Forecast report", ""]
    if meta:
        for key in sorted(meta):
            lines.append(f"- {key}: {meta[key]}")
        lines.append("")
    primary = meta.get("primary_ticker") or report.tickers()[0]
    lines += _comparison_table(report, primary)
    lines.append("")
    lines += _final_day_table(report)
    lines.append("")
    lines += _per_stock_table(report)
    lines.append("")
    return "\n".join(lines)


def render_series_svg(entry: ReportEntry, width: int = 900, height: int = 300) -> str:
    """Minimal polyline chart: actual series in full, predictions overlaid."""
    all_dates = list(entry.train_dates) + list(entry.dates)
    actual = np.concatenate([entry.train_actual, entry.actual])
    n = len(all_dates)
    lo = float(min(actual.min(), entry.predicted.min() if len(entry.predicted) else actual.min()))
    hi = float(max(actual.max(), entry.predicted.max() if len(entry.predicted) else actual.max()))
    span = hi - lo or 1.0
    margin = 10.0

    def x(i: int) -> float:
        return margin + (width - 2 * margin) * (i / max(n - 1, 1))

    def y(v: float) -> float:
        return height - margin - (height - 2 * margin) * ((v - lo) / span)

    def polyline(points: list[tuple[float, float]], color: str) -> str:
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{coords}"/>'

    actual_points = [(x(i), y(float(v))) for i, v in enumerate(actual)]
    offset = len(entry.train_dates)
    pred_points = [(x(offset + i), y(float(v))) for i, v in enumerate(entry.predicted)]
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f"<title>{entry.ticker} {entry.model}</title>",
            polyline(actual_points, "#1f77b4"),
            polyline(pred_points, "#2ca02c"),
            "</svg>",
            "",
        ]
    )


def emit_report(report: ForecastReport, out_dir: str | Path, svg: bool = False) -> list[Path]:
    """Write metrics.csv, per-series CSVs, report.md, and optional SVGs."""
    if not report.entries:
        raise EmptyReport("refusing to emit an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    path = out / "metrics.csv"
    path.write_text(render_metrics_csv(report), encoding="utf-8")
    written.append(path)

    for entry in sorted(report.entries, key=lambda e: (e.ticker, e.model)):
        path = out / f"series_{entry.ticker}_{entry.model}.csv"
        path.write_text(render_series_csv(entry), encoding="utf-8")
        written.append(path)
        if svg:
            path = out / f"series_{entry.ticker}_{entry.model}.svg"
            path.write_text(render_series_svg(entry), encoding="utf-8")
            written.append(path)

    path = out / "report.md"
    path.write_text(render_report_md(report), encoding="utf-8")
    written.append(path)
    return written


# --- report round trip (drives the standalone `report` command) ---------


def report_to_json(report: ForecastReport) -> str:
    return json.dumps(_encode(report), indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> ForecastReport:
    report = _decode(ForecastReport, json.loads(text), "report")
    for i, entry in enumerate(report.entries):
        if entry.model not in KINDS:
            raise SchemaMismatch(
                f"report.entries[{i}].model must be a model kind, not {entry.model!r}"
            )
    return report
