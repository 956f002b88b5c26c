"""Command-line interface: every stage of the pipeline behind one entry point.

Commands are rerunnable and deterministic given identical inputs, config,
and seed. Exit code 0 means success; every error names the failing stage.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import load_config
from .errors import StockcastError
from .ingest import ParsedSeries
from .models.artifacts import KINDS, MODEL_KINDS
from .pipeline import (
    PipelineData,
    evaluate_models,
    gridsearch_window,
    render_gridsearch_csv,
    render_panel_csv,
    render_sentiment_csv,
    train_and_save,
    write_report_outputs,
)
from .reporting import report_from_json
from .series import parse_trading_date


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stockcast",
        description="Deterministic daily stock-price forecasting pipeline",
    )
    parser.add_argument("--version", action="version", version=f"stockcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, model: bool = False, ticker: bool = False):
        p.add_argument("--config", required=True, help="path to the run config INI file")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] out_dir")
        if model:
            p.add_argument("--model", choices=[*KINDS, "all"], default="all")
        if ticker:
            p.add_argument("--ticker", default="all")

    add_common(sub.add_parser("ingest-check", help="parse and validate all input files"))
    add_common(sub.add_parser("sentiment", help="write daily sentiment CSVs"), ticker=True)
    add_common(sub.add_parser("build-dataset", help="write aligned panel CSVs"), ticker=True)
    add_common(sub.add_parser("train", help="train models and save artifacts"),
               model=True, ticker=True)
    evaluate = sub.add_parser("evaluate", help="walk-forward evaluation and report emission")
    add_common(evaluate, model=True, ticker=True)
    evaluate.add_argument("--svg", action="store_true", help="also emit line-chart SVGs")
    evaluate.add_argument(
        "--predict-date", default=None,
        help="evaluate a single trading date (YYYY-MM-DD) instead of the validation range",
    )
    report = sub.add_parser("report", help="re-render report files from a saved evaluation")
    add_common(report)
    report.add_argument("--svg", action="store_true")
    grid = sub.add_parser("gridsearch-window", help="sweep the sliding-window length")
    add_common(grid, model=True, ticker=True)
    return parser


def _span(parsed: ParsedSeries) -> str:
    dates = parsed.series.dates
    return f"{len(dates)} rows ({dates[0]} .. {dates[-1]}), skipped {parsed.skipped}"


def cmd_ingest_check(data: PipelineData) -> None:
    config = data.config
    for ticker in config.tickers:
        print(f"prices {ticker}: {_span(data.prices(ticker))}")
    for name, parsed in data.macro.items():
        print(f"macro {name}: {_span(parsed)}")
    news = data.news
    print(f"news: {len(news.items)} headlines, skipped {news.skipped}")
    for ticker in config.tickers:
        panel = data.panel(ticker, scored_rows=frozenset())  # news checked, no day scored
        print(f"panel {ticker}: {len(panel)} aligned rows, split at {data.row_split(panel)}")


def cmd_sentiment(data: PipelineData, tickers: list[str]) -> None:
    out = data.config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for ticker in tickers:
        records = data.sentiment_records(ticker)
        path = out / f"sentiment_{ticker}.csv"
        path.write_text(render_sentiment_csv(records), encoding="utf-8")
        scored = sum(1 for r in records if r.headline_count > 0)
        print(f"wrote {path} ({len(records)} days, {scored} with news)")


def cmd_build_dataset(data: PipelineData, tickers: list[str]) -> None:
    out = data.config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for ticker in tickers:
        panel = data.panel(ticker)
        s = data.row_split(panel)
        path = out / f"panel_{ticker}.csv"
        path.write_text(render_panel_csv(panel), encoding="utf-8")
        w = data.config.window
        print(
            f"wrote {path}: {len(panel)} rows, window {w} -> {len(panel) - w} samples, "
            f"{s - w} train / {len(panel) - s} validation targets"
        )


def cmd_train(data: PipelineData, kinds: list[str], tickers: list[str]) -> None:
    for ticker in tickers:
        for kind in kinds:
            path, info = train_and_save(data, kind, ticker)
            print(
                f"trained {ticker}/{kind}: train RMSE {info['train_rmse']:.4f}, "
                f"val RMSE {info['val_rmse']:.4f}, val MAPE {info['val_mape']:.3f}% "
                f"(n={info['n']}) -> {path}"
            )


def cmd_evaluate(data: PipelineData, kinds, tickers, svg: bool, predict_date) -> None:
    try:
        parsed_date = parse_trading_date(predict_date) if predict_date else None
    except ValueError as exc:
        raise StockcastError(f"--predict-date: {exc}") from None
    report = evaluate_models(data, kinds, tickers, predict_date=parsed_date)
    written = write_report_outputs(data, report, svg=svg)
    for entry in report.entries:
        print(
            f"{entry.ticker}/{entry.model}: RMSE {entry.metrics.rmse:.4f}, "
            f"MAPE {entry.metrics.mape:.3f}% over {entry.metrics.n} days"
        )
    print(f"report written to {written[-1].parent}")


def cmd_report(data: PipelineData, svg: bool) -> None:
    json_path = data.config.out_dir / "report" / "forecast_report.json"
    if not json_path.exists():
        raise StockcastError(f"no saved evaluation at {json_path}; run evaluate first")
    universe = data.config.tickers
    try:
        report = report_from_json(json_path.read_text(encoding="utf-8"))
        for ticker in report.tickers():
            if ticker not in universe:
                raise StockcastError(
                    f"ticker {ticker!r} not in configured universe {', '.join(universe)}"
                )
    except (StockcastError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise StockcastError(f"{json_path}: {exc}") from None
    written = write_report_outputs(data, report, svg=svg)
    print(f"re-rendered {len(written)} files under {json_path.parent}")


def cmd_gridsearch(data: PipelineData, kind: str, tickers: list[str]) -> None:
    if kind == "all":
        kind = "lstm"
    out = data.config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for ticker in tickers:
        rows = gridsearch_window(data, kind, ticker)
        path = out / f"gridsearch_{ticker}_{kind}.csv"
        path.write_text(render_gridsearch_csv(rows), encoding="utf-8")
        best = min(rows, key=lambda r: r[1])
        print(f"{ticker}/{kind}: best window {best[0]} (val RMSE {best[1]:.4f}) -> {path}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = args.command
    try:
        config = load_config(args.config, seed_override=args.seed, out_override=args.out)
        data = PipelineData(config)
        # PipelineData.prices rejects a ticker outside the universe
        ticker = getattr(args, "ticker", "all")
        tickers = list(config.tickers) if ticker == "all" else [ticker]
        model = getattr(args, "model", "all")
        kinds = list(MODEL_KINDS) if model == "all" else [model]
        if args.command == "ingest-check":
            cmd_ingest_check(data)
        elif args.command == "sentiment":
            cmd_sentiment(data, tickers)
        elif args.command == "build-dataset":
            cmd_build_dataset(data, tickers)
        elif args.command == "train":
            cmd_train(data, kinds, tickers)
        elif args.command == "evaluate":
            cmd_evaluate(data, kinds, tickers, svg=args.svg, predict_date=args.predict_date)
        elif args.command == "report":
            cmd_report(data, svg=args.svg)
        elif args.command == "gridsearch-window":
            cmd_gridsearch(data, model, tickers)
        return 0
    except (StockcastError, OSError, ValueError) as exc:
        print(f"stockcast: [{stage}] error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
