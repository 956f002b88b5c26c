"""End-to-end wiring: files -> panel -> datasets -> models -> report.

One chronological boundary drives every model: the panel-row split index s.
Windowed models train on the s - w windows whose target row is < s, the
forest on the s - 1 feature rows whose target row is < s, and series
models on closes[:s]. Validation targets are the panel dates from s on, so
all models are scored on the same days.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from .config import RunConfig
from .dataset import build_feature_table, build_windows, chronological_split, fit_scaler
from .errors import ArtifactError, EmptyIntersection, ParseError, StockcastError
from .evaluation import ForecastReport, correlation_matrix, walk_forward
from .ingest import ParsedSeries, parse_macro_csv, parse_news_file, parse_price_csv
from .models.arima import arima_fit
from .models.artifacts import KINDS, load_artifact, save_artifact
from .models.forest import forest_train
from .models.knn import knn_fit_cv
from .models.linear import linreg_fit
from .models.lstm import lstm_train
from .models.persistence import PersistenceModel
from .models.trend import additive_trend_fit
from .reporting import csv_text, emit_report, report_to_json
from .sentiment import (
    BUNDLED_LEXICON,
    BUNDLED_STOPWORDS,
    DailySentiment,
    aggregate_daily,
    parse_lexicon,
    parse_stopwords,
)
from .series import MACRO_COLUMNS, SENTIMENT_COLUMNS, AlignedPanel, align_panel

CORRELATION_COLUMNS = ("close", *MACRO_COLUMNS)


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
        self._prices: dict[str, ParsedSeries] = {}
        self._panels: dict[tuple[str, bool, frozenset | None], AlignedPanel] = {}

    @cached_property
    def lexicon(self):
        return _parse_file(self.config.lexicon_path or BUNDLED_LEXICON, parse_lexicon)

    @cached_property
    def stopwords(self):
        return _parse_file(self.config.stopwords_path or BUNDLED_STOPWORDS, parse_stopwords)

    def prices(self, ticker: str) -> ParsedSeries:
        if ticker not in self.config.tickers:
            raise StockcastError(
                f"ticker {ticker!r} not in configured universe {', '.join(self.config.tickers)}"
            )
        if ticker not in self._prices:
            self._prices[ticker] = _parse_file(
                self.config.price_paths[ticker], lambda data: parse_price_csv(data, ticker)
            )
        return self._prices[ticker]

    @cached_property
    def macro(self) -> dict[str, ParsedSeries]:
        return {
            name: _parse_file(
                self.config.macro_paths[name], lambda data, name=name: parse_macro_csv(data, name)
            )
            for name in MACRO_COLUMNS
        }

    @cached_property
    def news(self):
        return _parse_file(
            self.config.news_path,
            lambda data: parse_news_file(data, universe=set(self.config.tickers)),
        )

    def sentiment_records(
        self, ticker: str, scored_rows: frozenset[int] | None = None
    ) -> list[DailySentiment]:
        """One record per trading day; with `scored_rows`, only those rows are scored."""
        calendar = self.prices(ticker).series.dates
        days = None if scored_rows is None else {calendar[i] for i in scored_rows}
        # parsed outside the try: their errors already name their files
        news, lexicon, stopwords = self.news.of(ticker), self.lexicon, self.stopwords
        try:
            return aggregate_daily(
                news,
                calendar,
                ticker,
                lexicon,
                stopwords,
                config=self.config.preprocess,
                per_headline_average=self.config.per_headline_average,
                days=days,
            )
        except ParseError as exc:  # a headline dated after the calendar
            raise StockcastError(f"{self.config.news_path}: {exc}") from exc

    def panel(
        self, ticker: str, sentiment: bool = True, scored_rows: frozenset[int] | None = None
    ) -> AlignedPanel:
        """The aligned panel of `ticker`; without `sentiment` the news file is never read.

        With `scored_rows`, the news of only those rows is scored, and any
        other row with news holds NaN sentiment, which no model may read.
        """
        key = (ticker, sentiment, scored_rows)
        if key not in self._panels:
            records = self.sentiment_records(ticker, scored_rows) if sentiment else None
            macro = {name: parsed.series for name, parsed in self.macro.items()}
            try:
                self._panels[key] = align_panel(
                    self.prices(ticker).series, macro, sentiment=records
                )
            except EmptyIntersection as exc:
                raise StockcastError(f"{self.config.macro_paths[exc.column]}: {exc}") from exc
        return self._panels[key]

    def row_split(self, panel: AlignedPanel) -> int:
        if self.config.split_index is not None:
            s = self.config.split_index
            if not 1 <= s <= len(panel) - 1:
                raise StockcastError(
                    f"[dataset] split_index {s} outside [1, {len(panel) - 1}] for {panel.ticker}"
                )
            return s
        return chronological_split(len(panel), self.config.train_fraction)


def train_model(data: PipelineData, kind: str, ticker: str, window: int | None = None):
    """Fit one model kind for one ticker; returns the model object.

    `window` overrides the configured window length of a windowed kind.
    """
    spec = KINDS.get(kind)
    if spec is None:
        raise StockcastError(f"unknown model kind {kind!r}")
    if window is not None and not spec.windowed:
        raise StockcastError(f"gridsearch supports windowed models, not {kind!r}")
    config = data.config
    panel = data.panel(ticker, sentiment=spec.sentiment)
    s = data.row_split(panel)
    closes = panel.close
    train_end = panel.dates[s - 1]
    w = window if window is not None else config.window

    n_windows = s - w  # the windows whose target row is < s
    if spec.windowed and n_windows < 1:
        raise StockcastError(f"split index {s} leaves no training windows of length {w}")
    if kind in ("lstm", "bilstm"):
        scaler = fit_scaler(closes[:s])
        inputs, targets = build_windows(scaler.apply(closes), w)
        topology = replace(config.lstm_topology, window=w, bidirectional=kind == "bilstm")
        return lstm_train(
            inputs, targets, n_windows, topology, config.lstm_train,
            scaler=scaler, train_end=train_end,
        )
    if kind == "forest":
        features, targets = build_feature_table(panel)  # row t targets row t + 1
        return forest_train(
            features[: s - 1], targets[: s - 1], config.forest, train_end=train_end
        )
    if kind == "linreg":
        inputs, targets = build_windows(closes, w)
        if n_windows <= w + 1:
            raise StockcastError(
                f"linreg over windows of {w} needs more than {w + 1} training samples, got {n_windows}"
            )
        return linreg_fit(inputs[:n_windows], targets[:n_windows], train_end=train_end)
    if kind == "knn":
        return knn_fit_cv(closes[:s], w, fit_scaler(closes[:s]), config.knn_folds, train_end)
    if kind == "arima":
        return arima_fit(closes[:s], config.arima, train_end=train_end)
    if kind == "additive":
        return additive_trend_fit(closes[:s], train_end=train_end)
    return PersistenceModel(train_end=train_end)  # the one kind left: persistence


def artifact_path(out_dir: Path, ticker: str, kind: str) -> Path:
    return out_dir / "artifacts" / f"{ticker}_{kind}.json"


def train_and_save(data: PipelineData, kind: str, ticker: str) -> tuple[Path, dict]:
    """Train, persist, and report final train/validation RMSE for the log."""
    model = train_model(data, kind, ticker)
    path = artifact_path(data.config.out_dir, ticker, kind)
    save_artifact(model, path)
    panel = data.panel(ticker, sentiment=KINDS[kind].sentiment)
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
    """Walk-forward evaluation of saved artifacts on the validation dates.

    A sentiment kind's panel is scored only on the rows its walk-forward reads.
    """
    config = data.config
    report = ForecastReport(
        metadata={
            "seed": config.seed,
            "config_digest": config.digest(),
            "window": config.window,
            "primary_ticker": tickers[0],
        }
    )
    for ticker in tickers:
        for kind in kinds:
            panel = data.panel(ticker, sentiment=False)
            target_rows = range(data.row_split(panel), len(panel))
            if predict_date is not None:
                if predict_date not in panel.dates:
                    raise StockcastError(
                        f"--predict-date {predict_date} is not a trading date of {ticker}"
                    )
                target_rows = [panel.dates.index(predict_date)]
            path = artifact_path(config.out_dir, ticker, kind)
            if not path.exists():
                raise ArtifactError(f"missing artifact for {ticker}/{kind}: {path} (run train first)")
            model = load_artifact(path)
            if KINDS[kind].sentiment:  # target row j reads row j - 1 only
                reads = frozenset(j - 1 for j in target_rows if j > 0)
                panel = data.panel(ticker, scored_rows=reads)
            report.add(walk_forward(model, panel, [panel.dates[j] for j in target_rows]))
    if report.entries:
        first, last = report.entries[0].dates[0], report.entries[0].dates[-1]
        report.metadata["validation_range"] = f"{first.isoformat()} .. {last.isoformat()}"
    return report


def write_report_outputs(data: PipelineData, report: ForecastReport, svg: bool = False) -> list[Path]:
    out = data.config.out_dir / "report"
    # each correlation is rendered before any file is written, so a report naming a
    # ticker outside the universe writes nothing (CORRELATION_COLUMNS has no sentiment)
    texts = {t: render_correlation_csv(data.panel(t, sentiment=False)) for t in report.tickers()}
    written = emit_report(report, out, svg=svg)
    json_path = out / "forecast_report.json"
    json_path.write_text(report_to_json(report), encoding="utf-8")
    written.append(json_path)
    for ticker, text in texts.items():
        path = out / f"correlation_{ticker}.csv"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


# --- CSV renderers for intermediate outputs ------------------------------


def render_sentiment_csv(records: list[DailySentiment]) -> str:
    scores = attrgetter(*SENTIMENT_COLUMNS)
    return csv_text(
        ["date", *SENTIMENT_COLUMNS, "headline_count"],
        ([r.date.isoformat(), *map(repr, scores(r.score)), r.headline_count] for r in records),
    )


def render_panel_csv(panel: AlignedPanel) -> str:
    columns = ["close", *MACRO_COLUMNS, *(SENTIMENT_COLUMNS if panel.has_sentiment else ())]
    values = zip(*(panel.column(c).tolist() for c in columns))
    return csv_text(
        ["date", *columns],
        ([d.isoformat(), *map(repr, row)] for d, row in zip(panel.dates, values)),
    )


def render_correlation_csv(panel: AlignedPanel) -> str:
    names, matrix = correlation_matrix(panel, CORRELATION_COLUMNS)
    return csv_text(
        ["column", *names],
        ([name, *(repr(float(v)) for v in row)] for name, row in zip(names, matrix)),
    )


def render_gridsearch_csv(rows: list[tuple[int, float]]) -> str:
    return csv_text(["window", "val_rmse"], ([w, repr(score)] for w, score in rows))


def gridsearch_window(data: PipelineData, kind: str, ticker: str) -> list[tuple[int, float]]:
    """Validation RMSE per candidate window length for one windowed model."""
    panel = data.panel(ticker, sentiment=KINDS[kind].sentiment)
    s = data.row_split(panel)
    targets = list(panel.dates[s:])
    results = []
    for w in data.config.grid_windows:
        model = train_model(data, kind, ticker, window=w)
        entry = walk_forward(model, panel, targets)
        results.append((w, entry.metrics.rmse))
    return results
