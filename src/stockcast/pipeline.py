"""End-to-end wiring: files -> panel -> datasets -> models -> report.

One chronological boundary drives every model: the panel-row split index s.
Windowed models train on samples whose target row is < s, the feature
table splits at s-1 (its rows are keyed by target date), and series models
fit on closes[:s]. Validation targets are the panel dates from s on, so
all models are scored on the same days.
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from pathlib import Path

from .config import RunConfig
from .dataset import (
    SplitSpec,
    build_feature_table,
    build_windows,
    chronological_split,
    fit_scaler,
)
from .errors import ArtifactError, ConfigError, StockcastError, TooFewSamples
from .evaluation import ForecastReport, correlation_matrix, walk_forward
from .ingest import parse_macro_csv, parse_news_file, parse_price_csv
from .models.arima import arima_fit
from .models.artifacts import SENTIMENT_KINDS, load_artifact, save_artifact
from .models.forest import forest_train
from .models.knn import knn_fit_cv
from .models.linear import linreg_fit
from .models.lstm import lstm_train
from .models.persistence import PersistenceModel
from .models.trend import additive_trend_fit
from .reporting import emit_report, report_to_json
from .sentiment import DailySentiment, aggregate_daily, load_lexicon, load_stopwords
from .series import MACRO_COLUMNS, AlignedPanel, MacroPanel, align_panel

CORRELATION_COLUMNS = ("close", "gold", "brent", "gsec", "usd_inr")


def _parse_file(path: Path, parse):
    """Run a parser over a file's bytes, prefixing any failure with the path."""
    try:
        return parse(path.read_bytes())
    except StockcastError as exc:
        raise StockcastError(f"{path}: {exc}") from exc


class PipelineData:
    """Parsed inputs for one run config, loaded lazily and cached."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self._lexicon = None
        self._stopwords = None
        self._prices: dict[str, object] = {}
        self._macro = None
        self._news = None
        self._sentiment: dict[str, list[DailySentiment]] = {}
        self._panels: dict[tuple[str, bool], AlignedPanel] = {}

    @property
    def lexicon(self):
        if self._lexicon is None:
            self._lexicon = load_lexicon(self.config.lexicon_path)
        return self._lexicon

    @property
    def stopwords(self):
        if self._stopwords is None:
            self._stopwords = load_stopwords(self.config.stopwords_path)
        return self._stopwords

    def prices(self, ticker: str):
        if ticker not in self.config.tickers:
            raise StockcastError(
                f"ticker {ticker!r} not in configured universe {', '.join(self.config.tickers)}"
            )
        if ticker not in self._prices:
            self._prices[ticker] = _parse_file(
                self.config.price_paths[ticker], lambda data: parse_price_csv(data, ticker)
            )
        return self._prices[ticker]

    @property
    def macro(self) -> MacroPanel:
        if self._macro is None:
            parsed = {
                name: _parse_file(
                    self.config.macro_paths[name],
                    lambda data, name=name: parse_macro_csv(data, name),
                )
                for name in MACRO_COLUMNS
            }
            self._macro = MacroPanel(**{name: parsed[name].series for name in MACRO_COLUMNS})
        return self._macro

    @property
    def news(self):
        if self._news is None:
            self._news = _parse_file(
                self.config.news_path,
                lambda data: parse_news_file(data, universe=set(self.config.tickers)),
            )
        return self._news

    def sentiment_records(self, ticker: str) -> list[DailySentiment]:
        if ticker not in self._sentiment:
            calendar = self.prices(ticker).series.dates
            self._sentiment[ticker] = aggregate_daily(
                self.news.items,
                calendar,
                ticker,
                self.lexicon,
                self.stopwords,
                config=self.config.preprocess,
                per_headline_average=self.config.per_headline_average,
            )
        return self._sentiment[ticker]

    def panel(self, ticker: str, sentiment: bool = True) -> AlignedPanel:
        """The aligned panel of `ticker`; without `sentiment` the news file is never read."""
        key = (ticker, sentiment)
        if key not in self._panels:
            records = self.sentiment_records(ticker) if sentiment else None
            self._panels[key] = align_panel(
                self.prices(ticker).series, self.macro, sentiment=records
            )
        return self._panels[key]

    def row_split(self, panel: AlignedPanel) -> int:
        if self.config.split_index is not None:
            s = self.config.split_index
            if not 1 <= s <= len(panel) - 1:
                raise ConfigError(
                    f"[dataset] split_index {s} outside [1, {len(panel) - 1}] for {panel.ticker}"
                )
            return s
        return chronological_split(len(panel), self.config.train_fraction).split_index


def train_model(data: PipelineData, kind: str, ticker: str, window: int | None = None):
    """Fit one model kind for one ticker; returns the model object.

    `window` overrides the configured window length of a windowed kind.
    """
    if window is not None and kind not in ("lstm", "bilstm", "linreg", "knn"):
        raise ConfigError(f"gridsearch supports windowed models, not {kind!r}")
    config = data.config
    panel = data.panel(ticker, sentiment=kind in SENTIMENT_KINDS)
    s = data.row_split(panel)
    closes = panel.close
    train_end = panel.dates[s - 1]
    w = window if window is not None else config.window

    if kind in ("lstm", "bilstm"):
        if s <= w:
            raise TooFewSamples(f"split index {s} leaves no training windows of length {w}")
        scaler = fit_scaler(closes[:s], ("close",))
        dataset = build_windows(scaler.apply(closes), w, dates=panel.dates)
        split = SplitSpec(n=len(dataset), split_index=s - w)
        topology = replace(config.lstm_topology, window=w, bidirectional=kind == "bilstm")
        return lstm_train(
            dataset, split, topology, config.lstm_train, scaler=scaler, train_end=train_end
        )
    if kind == "forest":
        table = build_feature_table(panel)
        split = SplitSpec(n=len(table), split_index=s - 1)
        return forest_train(table, split, config.forest, train_end=train_end)
    if kind == "linreg":
        dataset = build_windows(closes, w, dates=panel.dates)
        n_train = s - w
        if n_train <= w + 1:
            raise TooFewSamples(
                f"linreg over windows of {w} needs more than {w + 1} training samples, got {n_train}"
            )
        return linreg_fit(dataset.inputs[:n_train], dataset.targets[:n_train], train_end=train_end)
    if kind == "knn":
        if s <= w:
            raise TooFewSamples(f"split index {s} leaves no training windows of length {w}")
        scaler = fit_scaler(closes[:s], ("close",))
        raw = build_windows(closes, w, dates=panel.dates)
        dataset = replace(raw, inputs=scaler.apply(raw.inputs))
        split = SplitSpec(n=len(dataset), split_index=s - w)
        return knn_fit_cv(
            dataset, split, folds=config.knn_folds, scaler=scaler, train_end=train_end
        )
    if kind == "arima":
        return arima_fit(closes[:s], config.arima, train_end=train_end)
    if kind == "additive":
        return additive_trend_fit(closes[:s], train_end=train_end)
    if kind == "persistence":
        return PersistenceModel(train_end=train_end)
    raise ConfigError(f"unknown model kind {kind!r}")


def artifact_path(out_dir: Path, ticker: str, kind: str) -> Path:
    return out_dir / "artifacts" / f"{ticker}_{kind}.json"


def train_and_save(data: PipelineData, kind: str, ticker: str) -> tuple[Path, dict]:
    """Train, persist, and report final train/validation RMSE for the log."""
    model = train_model(data, kind, ticker)
    path = artifact_path(data.config.out_dir, ticker, kind)
    save_artifact(model, path)
    panel = data.panel(ticker, sentiment=kind in SENTIMENT_KINDS)
    s = data.row_split(panel)
    entry = walk_forward(model, panel, panel.dates[s:])
    info = {"val_rmse": entry.metrics.rmse, "val_mape": entry.metrics.mape, "n": entry.metrics.n}
    start = model.min_history
    if start < s:
        in_sample = walk_forward(
            model, panel, panel.dates[start:s], enforce_train_boundary=False
        )
        info["train_rmse"] = in_sample.metrics.rmse
    else:
        info["train_rmse"] = float("nan")
    return path, info


def evaluate_models(
    data: PipelineData,
    kinds: list[str],
    tickers: list[str],
    predict_date=None,
) -> ForecastReport:
    """Walk-forward evaluation of saved artifacts on the validation dates."""
    config = data.config
    report = ForecastReport(
        metadata={
            "seed": config.seed,
            "config_digest": config.digest(),
            "window": config.window,
            "primary_ticker": config.tickers[0],
        }
    )
    for ticker in tickers:
        for kind in kinds:
            panel = data.panel(ticker, sentiment=kind in SENTIMENT_KINDS)
            s = data.row_split(panel)
            targets = list(panel.dates[s:])
            if predict_date is not None:
                if predict_date not in panel.dates:
                    raise ConfigError(
                        f"--predict-date {predict_date} is not a trading date of {ticker}"
                    )
                targets = [predict_date]
            path = artifact_path(config.out_dir, ticker, kind)
            if not path.exists():
                raise ArtifactError(f"missing artifact for {ticker}/{kind}: {path} (run train first)")
            model = load_artifact(path)
            report.add(walk_forward(model, panel, targets))
    if report.entries:
        first, last = report.entries[0].dates[0], report.entries[0].dates[-1]
        report.metadata["validation_range"] = f"{first.isoformat()} .. {last.isoformat()}"
    return report


def write_report_outputs(data: PipelineData, report: ForecastReport, svg: bool = False) -> list[Path]:
    out = data.config.out_dir / "report"
    written = emit_report(report, out, svg=svg)
    json_path = out / "forecast_report.json"
    json_path.write_text(report_to_json(report), encoding="utf-8")
    written.append(json_path)
    for ticker in report.tickers():
        panel = data.panel(ticker, sentiment=False)  # CORRELATION_COLUMNS has no sentiment
        path = out / f"correlation_{ticker}.csv"
        path.write_text(render_correlation_csv(panel), encoding="utf-8")
        written.append(path)
    return written


# --- CSV renderers for intermediate outputs ------------------------------


def render_sentiment_csv(records: list[DailySentiment]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date", "pos", "neg", "neu", "compound", "headline_count"])
    for r in records:
        writer.writerow(
            [r.date.isoformat(), repr(r.score.pos), repr(r.score.neg), repr(r.score.neu),
             repr(r.score.compound), r.headline_count]
        )
    return out.getvalue()


def render_panel_csv(panel: AlignedPanel) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["date", "close", "gold", "brent", "gsec", "usd_inr"]
    if panel.has_sentiment:
        header += ["pos", "neg", "neu", "compound"]
    writer.writerow(header)
    for i, d in enumerate(panel.dates):
        row = [d.isoformat()] + [repr(float(panel.column(c)[i])) for c in header[1:]]
        writer.writerow(row)
    return out.getvalue()


def render_correlation_csv(panel: AlignedPanel) -> str:
    names, matrix = correlation_matrix(panel, CORRELATION_COLUMNS)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["column", *names])
    for name, row in zip(names, matrix):
        writer.writerow([name, *[repr(float(v)) for v in row]])
    return out.getvalue()


def render_gridsearch_csv(rows: list[tuple[int, float]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["window", "val_rmse"])
    for w, score in rows:
        writer.writerow([w, repr(score)])
    return out.getvalue()


def gridsearch_window(data: PipelineData, kind: str, ticker: str) -> list[tuple[int, float]]:
    """Validation RMSE per candidate window length for one windowed model."""
    panel = data.panel(ticker, sentiment=kind in SENTIMENT_KINDS)
    s = data.row_split(panel)
    targets = list(panel.dates[s:])
    results = []
    for w in data.config.grid_windows:
        model = train_model(data, kind, ticker, window=w)
        entry = walk_forward(model, panel, targets)
        results.append((w, entry.metrics.rmse))
    return results
