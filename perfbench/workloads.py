"""The workloads, the closed-loop command runner and its output checks.

Every command goes through `stockcast.cli.main(argv)` in this process,
one at a time: a closed loop with one caller. Nothing in the program
runs concurrently, so no queue forms and no wait time is reported.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from inputs import Shape, generate, validation_dates
from tracing import Tracer, layer_metrics

SETUP_REPEATS = 7

# Every end-to-end time is a median over single commands, summed over the
# workload's model kinds where a command runs once per kind. On a shared
# host that slows by up to twice for minutes at a time, medians over many
# short samples moved less across seeds than either the fastest sample or
# per-cycle totals did.


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    kinds: tuple[str, ...]
    days: int  # single-date evaluations per kind and cycle


WORKLOADS = {
    w.name: w
    for w in (
        # LSTM forward/backward (BPTT) and the batch-of-1 walk-forward do the
        # work; the largest artifacts are written and read.
        Workload(
            "neural",
            Shape(tickers=("NRL",), days=500, validation_days=100, headlines_per_day=1,
                  window=30, lstm_layers="64, 32", lstm_epochs=2),
            ("lstm", "bilstm"),
            days=4,
        ),
        # Dense news on a long history: sentiment scoring, CART fit/predict,
        # KNN cross-validation and ARIMA's full-history recursion; no LSTM.
        Workload(
            "classical",
            Shape(tickers=("CLA", "CLB"), days=800, validation_days=100,
                  headlines_per_day=8, window=30, n_trees=10),
            ("forest", "knn", "arima", "linreg", "additive"),
            days=1,
        ),
    )
}

_RMSE_RE = re.compile(r"(?:RMSE|MAPE) (\S+?)%?[,( ]")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def persistence_ratios(report: dict) -> dict[tuple[str, str], float]:
    """Validation RMSE over persistence RMSE on the same days, per entry."""
    ratios = {}
    for e in report["entries"]:
        actual = e["actual"]
        previous = [e["train_actual"][-1], *actual[:-1]]
        persist = math.sqrt(sum((p - a) ** 2 for p, a in zip(previous, actual)) / len(actual))
        ratios[(e["ticker"], e["model"])] = e["metrics"]["rmse"] / persist
    return ratios


class Session:
    """Runs CLI commands, times them and checks what they wrote.

    A command fails when it exits non-zero, when a walk-forward prediction
    or RMSE it reports is not finite, or when its output files differ from
    those of the first run of the same command. Failures are counted and
    their reasons kept; the command's time is still recorded.
    """

    def __init__(self, tickers: tuple[str, ...]) -> None:
        self.tickers = tickers
        self.cli = importlib.import_module("stockcast.cli")
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.ratios: dict[tuple[str, str], float] = {}
        self._first: dict[tuple[str, ...], dict[str, str]] = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def run(self, config: Path, *args: str) -> float:
        argv = [*args, "--config", str(config)]
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()  # the previous command's garbage is not this one's cost
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.cli.main(argv)  # looked up per call, so a tracer sees it
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self.attempted += 1
        label = " ".join(args)
        if code != 0:
            last = (stderr.getvalue().strip().splitlines() or [""])[-1]
            self.fail(f"{label}: exit {code} {last}".strip())
            return seconds
        problems = self._check(config.parent / "out", args, stdout.getvalue())
        if problems:
            self.fail(f"{label}: {'; '.join(problems)}")
        return seconds

    def _check(self, out: Path, args: tuple[str, ...], stdout: str) -> list[str]:
        command = args[0]
        kind = args[args.index("--model") + 1] if "--model" in args else None
        if command == "sentiment":
            files = [out / f"sentiment_{t}.csv" for t in self.tickers]
        elif command == "train":
            files = [out / "artifacts" / f"{t}_{kind}.json" for t in self.tickers]
        else:
            files = [out / "report" / "metrics.csv", out / "report" / "forecast_report.json"]
        missing = [f.name for f in files if not f.is_file()]
        if missing:
            return [f"missing {', '.join(missing)}"]

        problems = []
        digests = {f.name: _digest(f) for f in files}
        if self._first.setdefault(args, digests) != digests:
            problems.append("outputs differ from the first run of this command")
        if command == "train":
            values = [float(v) for v in _RMSE_RE.findall(stdout)]
            if len(values) != 3 * len(files) or not all(map(math.isfinite, values)):
                problems.append("train reported a non-finite or missing RMSE")
        elif command == "evaluate":
            report = json.loads(files[1].read_text(encoding="utf-8"))
            if len(report["entries"]) != len(self.tickers):
                problems.append("report lacks entries")
            if not all(math.isfinite(p) for e in report["entries"] for p in e["predicted"]):
                problems.append("non-finite prediction")
            elif "--predict-date" not in args:
                for key, ratio in persistence_ratios(report).items():
                    self.ratios.setdefault(key, ratio)
        return problems


def import_seconds(root: Path) -> float:
    """Import time of stockcast.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import stockcast.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _tail(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "min": min(values), "p50": _median(values),
           "all": [float(f"{v:.4g}") for v in values]}
    q = 5 * int(20 * (1 - 10 / len(values)))  # in steps of 5 percentiles
    if q > 50:
        out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


def measure(root: Path, work: Path, workload: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """Set up, run the closed loop for `seconds`, and return the results."""
    session = Session(workload.shape.tickers)
    dates = validation_dates(root, workload.shape)
    samples: dict[str, list[float]] = defaultdict(list)

    manifest = None
    for i in range(1 if trace else SETUP_REPEATS):
        imported = import_seconds(root)
        start = time.perf_counter()
        found = generate(root, work / f"setup_{i}", workload.shape, seed)
        samples["setup_s"].append(imported + time.perf_counter() - start)
        manifest = manifest or found
        session.attempted += 1
        if found != manifest:
            session.fail("generated inputs differ between set-ups")
    config = work / "setup_0" / "config.ini"

    def cycle(i: int) -> None:
        """A round per kind: train, evaluate, then single-date evaluations.

        Each single-date evaluation follows a `sentiment` command, so the
        short commands are spread through the whole run instead of run back
        to back. Every command is a sample of its own, kept per kind.
        """
        for kind in workload.kinds:
            samples[f"train_s.{kind}"].append(session.run(config, "train", "--model", kind))
            samples[f"evaluate_s.{kind}"].append(
                session.run(config, "evaluate", "--model", kind))
            for d in range(workload.days):
                samples["sentiment_s"].append(session.run(config, "sentiment"))
                date = dates[(i * workload.days + d) % len(dates)]
                samples[f"predict_day_ms.{kind}"].append(1e3 * session.run(
                    config, "evaluate", "--model", kind, "--predict-date", date))

    tracer = Tracer()
    cycle_s = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        tracer.cycle = i
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            cycle(i)
        finally:
            if traced:
                tracer.uninstall()
        cycle_s[traced].append(time.perf_counter() - start)
        i += 1

    artifacts = (config.parent / "out" / "artifacts").glob("*.json")
    ratios = session.ratios
    rmse_ratio = sum(ratios.values()) / len(ratios) if ratios else 0.0
    result = {
        "session": session,
        "manifest": manifest,
        "samples": {name: _tail(values) for name, values in samples.items()},
        "rmse_vs_persistence": {
            "mean": rmse_ratio, **{f"{t}/{k}": r for (t, k), r in sorted(ratios.items())}},
    }
    if trace:
        layers = layer_metrics(tracer.spans, list(range(1, i, 2)))
        layers["evaluation.rmse_vs_persistence"] = rmse_ratio
        layers["trace.overhead_ratio"] = _median(cycle_s[True]) / _median(cycle_s[False])
        result["metrics"] = layers
    else:
        def per_kind(name: str) -> float:
            return sum(_median(samples[f"{name}.{kind}"]) for kind in workload.kinds)

        result["metrics"] = {
            "setup_s": _median(samples["setup_s"]),
            "train_s": per_kind("train_s"),
            "evaluate_s": per_kind("evaluate_s"),
            "sentiment_s": _median(samples["sentiment_s"]),
            "predict_day_ms_p50": per_kind("predict_day_ms"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "artifact_mb": sum(p.stat().st_size for p in artifacts) / 1e6,
        }
    return result
