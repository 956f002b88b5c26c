"""Miniature on-disk dataset for CLI and pipeline tests (fast settings), and a
helper that edits an artifact with its binary arrays opened as lists."""

from __future__ import annotations

import base64
import csv
import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np

TICKERS = ("AAA", "BBB")

CONFIG = """\
[universe]
tickers = AAA, BBB

[paths]
prices_AAA = prices_AAA.csv
prices_BBB = prices_BBB.csv
macro_gold = macro_gold.csv
macro_brent = macro_brent.csv
macro_gsec = macro_gsec.csv
macro_usd_inr = macro_usd_inr.csv
news = news.csv

[dataset]
window = 10
train_fraction = 0.9

[lstm]
layers = 5
dense = 3, 1
epochs = 2
batch_size = 16
patience = 2

[forest]
n_trees = 8

[arima]
order = 0, 1, 1
seasonal_order = 0, 0, 0, 1
max_evals = 25

[gridsearch]
windows = 5, 10

[run]
seed = 42
out_dir = out
"""


def weekdays(start: date, count: int) -> list[date]:
    out: list[date] = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def write_mini_dataset(root: Path, n: int = 140) -> Path:
    """Create a small but complete input set; returns the config path."""
    root.mkdir(parents=True, exist_ok=True)
    days = weekdays(date(2021, 1, 4), n)
    rng = np.random.Generator(np.random.PCG64(7))

    for ticker, base in zip(TICKERS, (100.0, 50.0)):
        closes = base + np.cumsum(rng.normal(0.05, 0.8, n))
        closes = np.maximum(closes, 1.0)
        with (root / f"prices_{ticker}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"])
            for d, c in zip(days, closes):
                writer.writerow(
                    [d.isoformat(), f"{c:.2f}", f"{c * 1.01:.2f}", f"{c * 0.99:.2f}",
                     f"{c:.2f}", f"{c:.2f}", 1000]
                )

    for name, base in (("gold", 1800.0), ("brent", 70.0), ("gsec", 6.0), ("usd_inr", 74.0)):
        values = base + np.cumsum(rng.normal(0, 0.3, n))
        with (root / f"macro_{name}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["Date", "Value"])
            for d, v in zip(days, values):
                writer.writerow([d.isoformat(), f"{abs(v) + 1.0:.4f}"])

    saturday = days[10] + timedelta(days=(5 - days[10].weekday()) % 7 or 7)
    news_rows = [
        (days[5], "AAA", "profits surge on strong demand"),
        (days[5], "AAA", "analysts upgrade outlook"),
        (days[5], "AAA", "record quarter delights investors"),
        (days[20], "AAA", "weak sales disappoint"),
        (saturday, "AAA", "weekend deal wins praise"),
        (days[30], "BBB", '"results beat, margin improves"'),
        (days[40], "BBB", "fraud probe alarms investors"),
    ]
    with (root / "news.csv").open("w", newline="") as fh:
        fh.write("Date,Ticker,Headline\n")
        for d, ticker, headline in news_rows:
            fh.write(f"{d.isoformat()},{ticker},{headline}\n")

    config_path = root / "config.ini"
    config_path.write_text(CONFIG, encoding="utf-8")
    return config_path


class _ArrayList(list):
    """An artifact array opened as a nested list; `dtype` is its stored dtype."""

    def __init__(self, items, dtype: str) -> None:
        super().__init__(items)
        self.dtype = dtype


def _opened(node):
    if isinstance(node, dict) and node.keys() == {"data", "dtype", "shape"}:
        array = np.frombuffer(base64.b64decode(node["data"]), node["dtype"])
        return _ArrayList(array.reshape(node["shape"]).tolist(), node["dtype"])
    if isinstance(node, dict):
        return {k: _opened(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_opened(v) for v in node]
    return node


def _packed(node):
    if isinstance(node, _ArrayList):
        array = np.array(node)
        if array.size == 0:  # numpy reads an empty list as float64
            array = array.astype(node.dtype)
        data = base64.b64encode(array.tobytes()).decode("ascii")
        return {"data": data, "dtype": array.dtype.str, "shape": list(array.shape)}
    if isinstance(node, dict):
        return {k: _packed(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_packed(v) for v in node]
    return node


def edit_artifact(text: str, edit) -> str:
    """Artifact `text` after `edit(doc)` changes its JSON with each array as a list.

    Every binary array is opened as a nested list for the edit, which must
    change the list in place, and packed again afterwards in the dtype numpy
    infers from the edited values: 1.5 in an int64 list makes it float64.
    """
    doc = _opened(json.loads(text))
    edit(doc)
    return json.dumps(_packed(doc))
