"""Seeded input generator: one run directory of CSVs plus a config.ini.

The price, macro and headline helpers come from tools/make_sample_data.py,
so generated files have the same formats and price dynamics as the
bundled sample. Only the sizes and the seed differ. The program sees the
generated files and nothing else.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

import numpy as np


def load_sample_tools(root: Path):
    """Import tools/make_sample_data.py of the checkout as a module."""
    path = root / "tools" / "make_sample_data.py"
    spec = importlib.util.spec_from_file_location("make_sample_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's inputs and model settings."""

    tickers: tuple[str, ...]
    days: int                    # trading days per ticker
    validation_days: int         # panel rows after the split
    headlines_per_day: int       # per ticker per trading day
    window: int
    lstm_layers: str = "128, 64"
    lstm_epochs: int = 2
    n_trees: int = 100

    def config_text(self, seed: int) -> str:
        paths = "\n".join(f"prices_{t} = prices_{t}.csv" for t in self.tickers)
        return f"""\
[universe]
tickers = {", ".join(self.tickers)}

[paths]
{paths}
macro_gold = macro_gold.csv
macro_brent = macro_brent.csv
macro_gsec = macro_gsec.csv
macro_usd_inr = macro_usd_inr.csv
news = news.csv

[dataset]
window = {self.window}
split_index = {self.days - self.validation_days}

[sentiment]
remove_stopwords = true
remove_special_chars = true
per_headline_average = false

[lstm]
layers = {self.lstm_layers}
dense = 25, 1
epochs = {self.lstm_epochs}
batch_size = 32
learning_rate = 0.001
# patience >= epochs: early stopping never changes the amount of work
patience = {self.lstm_epochs}

[forest]
n_trees = {self.n_trees}

[arima]
order = 0, 1, 1
seasonal_order = 2, 1, 0, 12
max_evals = 50

[knn]
folds = 5

[run]
seed = {seed}
out_dir = out
"""


def _write_news(path: Path, rng: np.random.Generator, calendar, tickers, per_day: int,
                headlines: list[str]) -> int:
    """`per_day` headlines per ticker per trading day, drawn from the sample set.

    Each headline is published on a random calendar day up to two days
    before its trading day, so weekend news rolls forward as in real feeds.
    """
    rows = []
    for t_index, ticker in enumerate(tickers):
        picks = rng.integers(0, len(headlines), size=(len(calendar), per_day))
        lags = rng.integers(0, 3, size=(len(calendar), per_day))
        for day_index, day in enumerate(calendar):
            earliest = calendar[day_index - 1] if day_index else day - timedelta(days=3)
            for pick, lag in zip(picks[day_index], lags[day_index]):
                published = max(day - timedelta(days=int(lag)), earliest + timedelta(days=1))
                rows.append((published, t_index, ticker, headlines[pick]))
    rows.sort(key=lambda r: (r[0], r[1]))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Date", "Ticker", "Headline"])
        for published, _, ticker, text in rows:
            writer.writerow([published.isoformat(), ticker, text])
    return len(rows)


def validation_dates(root: Path, shape: Shape) -> list[str]:
    """ISO dates of the panel rows after the split, in order."""
    tools = load_sample_tools(root)
    calendar = tools.trading_calendar(tools.START, shape.days)
    return [d.isoformat() for d in calendar[shape.days - shape.validation_days:]]


def generate(root: Path, out: Path, shape: Shape, seed: int) -> dict:
    """Write every input of one workload under `out`; return a manifest.

    The manifest holds the seed, the sizes and the SHA-256 of every file.
    """
    tools = load_sample_tools(root)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    calendar = tools.trading_calendar(tools.START, shape.days)
    for ticker in shape.tickers:
        start_price = float(rng.uniform(50.0, 2000.0))
        drift = float(rng.uniform(0.0002, 0.0007))
        closes = tools.make_closes(rng, shape.days, start_price, drift)
        tools.write_prices(out / f"prices_{ticker}.csv", calendar, closes, rng)

    macro_days = tools.weekday_calendar(tools.START - timedelta(days=7), calendar[-1])
    t = np.arange(len(macro_days))

    def noise(scale: float) -> np.ndarray:
        return rng.normal(0.0, scale, len(t))

    tools.write_macro(out / "macro_gold.csv", macro_days,
                      1400 + 0.45 * t + 25 * np.sin(2 * np.pi * t / 120) + noise(6))
    tools.write_macro(out / "macro_brent.csv", macro_days,
                      64 + 7 * np.sin(2 * np.pi * t / 90) + noise(1.1))
    tools.write_macro(out / "macro_gsec.csv", macro_days,
                      6.8 + 0.15 * np.sin(2 * np.pi * t / 150) + noise(0.03))
    tools.write_macro(out / "macro_usd_inr.csv", macro_days,
                      69.5 + 0.009 * t + 0.8 * np.sin(2 * np.pi * t / 200) + noise(0.15))

    headlines = sorted({text for _, _, text in tools.NEWS})
    n_headlines = _write_news(out / "news.csv", rng, calendar, shape.tickers,
                              shape.headlines_per_day, headlines)
    (out / "config.ini").write_text(shape.config_text(seed), encoding="utf-8")

    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.is_file()
    }
    return {
        "seed": seed,
        "tickers": list(shape.tickers),
        "trading_days": shape.days,
        "validation_days": shape.validation_days,
        "headlines": n_headlines,
        "window": shape.window,
        "sha256": files,
    }
