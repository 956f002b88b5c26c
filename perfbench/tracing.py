"""Spans around the program's layer boundaries, and the per-layer metrics.

Each target is replaced, while a Tracer is installed, at the name where
its callers look it up (a module global or a class attribute), so the
program itself is unchanged. Spans are kept in memory: name, start, end,
the index of the enclosing span, the cycle they belong to and the counts
read from the call's result.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from stockcast.models.artifacts import MODEL_KINDS

_KIND_OF_CLASS = {
    "ForestModel": "forest",
    "LinearModel": "linreg",
    "KnnModel": "knn",
    "ArimaModel": "arima",
    "TrendModel": "additive",
    "PersistenceModel": "persistence",
}


def model_kind(model) -> str:
    kind = getattr(model, "kind", None)  # NeuralModelArtifact carries its kind
    return kind if isinstance(kind, str) else _KIND_OF_CLASS.get(type(model).__name__, "?")


def _rows(result, args) -> dict:
    items = getattr(result, "items", None)
    return {"rows": len(items) if items is not None else len(result.series)}


def _headlines(result, args) -> dict:
    return {"headlines": sum(r.headline_count for r in result)}


def _epochs(result, args) -> dict:
    return {"best_epoch": result.best_epoch, "epochs_run": len(result.history)}


def _forest(result, args) -> dict:
    empty = sum(
        int(np.count_nonzero((t.feature == -1) & np.isnan(t.value))) for t in result.trees
    )
    return {"nodes": sum(t.n_nodes for t in result.trees), "empty_leaves": empty}


def _n_evals(result, args) -> dict:
    return {"n_evals": result.n_evals}


def _bytes(result, args) -> dict:
    return {"bytes": result.stat().st_size}


def _steps(result, args) -> dict:
    return {"steps": len(result.dates)}


def _kind(result, args) -> dict:
    return {"kind": model_kind(args[0])}


# (module, attribute, span name, counts read from (result, args))
TARGETS = (
    ("stockcast.cli", "main", "cli.main", None),
    ("stockcast.cli", "load_config", "config.load", None),
    ("stockcast.pipeline", "parse_price_csv", "ingest.parse", _rows),
    ("stockcast.pipeline", "parse_macro_csv", "ingest.parse", _rows),
    ("stockcast.pipeline", "parse_news_file", "ingest.parse", _rows),
    ("stockcast.pipeline", "aggregate_daily", "sentiment.aggregate", _headlines),
    ("stockcast.pipeline", "align_panel", "series.align", None),
    ("stockcast.pipeline", "build_windows", "dataset.build", None),
    ("stockcast.pipeline", "build_feature_table", "dataset.build", None),
    ("stockcast.pipeline", "fit_scaler", "dataset.build", None),
    ("stockcast.pipeline", "chronological_split", "dataset.build", None),
    ("stockcast.pipeline", "lstm_train", "lstm.train", _epochs),
    ("stockcast.models.lstm", "lstm_gradients", "lstm.grad", None),
    ("stockcast.evaluation", "predict_next", "lstm.forward", None),
    ("stockcast.pipeline", "forest_train", "forest.fit", _forest),
    ("stockcast.models.forest", "ForestModel.predict_row", "forest.predict", None),
    ("stockcast.pipeline", "knn_fit_cv", "knn.cv", None),
    ("stockcast.models.knn", "KnnModel.predict_window", "knn.predict", None),
    ("stockcast.pipeline", "arima_fit", "arima.fit", _n_evals),
    ("stockcast.evaluation", "one_step_forecast", "arima.forecast", None),
    ("stockcast.pipeline", "save_artifact", "artifacts.save", _bytes),
    ("stockcast.pipeline", "load_artifact", "artifacts.load", None),
    ("stockcast.pipeline", "walk_forward", "evaluation.walk_forward", _steps),
    ("stockcast.evaluation", "predict_step", "evaluation.predict_step", _kind),
    ("stockcast.pipeline", "emit_report", "reporting.emit", None),
    ("stockcast.pipeline", "report_to_json", "reporting.emit", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cycle: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the span wrappers; `cycle` tags every span recorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cycle = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(Span(name, time.perf_counter(), 0.0, parent, tracer.cycle))
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index].end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer.spans[index].counts = counter(result, args)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], cycles: list[int]) -> dict[str, float]:
    """Per-layer metrics over the traced cycles.

    `*_p50` is the median over single calls. Every other time and count
    is summed within a cycle, and the median over cycles is reported.
    A layer the workload never calls reads 0.
    """
    by_cycle = {c: [s for s in spans if s.cycle == c] for c in cycles}

    def calls(name: str, kind: str | None = None) -> list[Span]:
        return [
            s for c in cycles for s in by_cycle[c]
            if s.name == name and (kind is None or s.counts.get("kind") == kind)
        ]

    def p50_ms(name: str, kind: str | None = None) -> float:
        return _median(1e3 * s.seconds for s in calls(name, kind))

    def per_cycle(fn) -> float:
        return _median(fn(by_cycle[c]) for c in cycles)

    def total_s(name: str):
        return lambda ss: sum(s.seconds for s in ss if s.name == name)

    def count(name: str, key: str | None = None):
        if key is None:
            return lambda ss: sum(1 for s in ss if s.name == name)
        return lambda ss: sum(s.counts.get(key, 0) for s in ss if s.name == name)

    def headlines_per_s(ss) -> float:
        seconds = total_s("sentiment.aggregate")(ss)
        return count("sentiment.aggregate", "headlines")(ss) / seconds if seconds else 0.0

    walks = {i for i, s in enumerate(spans) if s.name == "evaluation.walk_forward"}

    def harness_self_s(ss) -> float:
        steps = sum(
            s.seconds for s in ss if s.name == "evaluation.predict_step" and s.parent in walks
        )
        return total_s("evaluation.walk_forward")(ss) - steps

    epochs = [s.counts for s in calls("lstm.train")]
    metrics = {
        "lstm.grad_ms_p50": p50_ms("lstm.grad"),
        "lstm.grad_steps": per_cycle(count("lstm.grad")),
        "lstm.forward_ms_p50": p50_ms("lstm.forward"),
        "lstm.forward_calls": per_cycle(count("lstm.forward")),
        "lstm.useful_epoch_ratio": _median(
            e["best_epoch"] / e["epochs_run"] for e in epochs if e["epochs_run"]
        ),
        "forest.fit_s": per_cycle(total_s("forest.fit")),
        "forest.nodes": per_cycle(count("forest.fit", "nodes")),
        "forest.predict_ms_p50": p50_ms("forest.predict"),
        "forest.empty_leaves": per_cycle(count("forest.fit", "empty_leaves")),
        "knn.cv_s": per_cycle(total_s("knn.cv")),
        "knn.predict_ms_p50": p50_ms("knn.predict"),
        "arima.fit_s": per_cycle(total_s("arima.fit")),
        "arima.n_evals": per_cycle(count("arima.fit", "n_evals")),
        "arima.forecast_ms_p50": p50_ms("arima.forecast"),
        "sentiment.aggregate_ms": 1e3 * per_cycle(total_s("sentiment.aggregate")),
        "sentiment.headlines": per_cycle(count("sentiment.aggregate", "headlines")),
        "sentiment.headlines_per_s": per_cycle(headlines_per_s),
        "ingest.parse_ms": 1e3 * per_cycle(total_s("ingest.parse")),
        "ingest.rows": per_cycle(count("ingest.parse", "rows")),
        "config.load_ms": 1e3 * per_cycle(total_s("config.load")),
        "series.align_ms": 1e3 * per_cycle(total_s("series.align")),
        "dataset.build_ms": 1e3 * per_cycle(total_s("dataset.build")),
        "reporting.emit_ms": 1e3 * per_cycle(total_s("reporting.emit")),
        "artifacts.load_s": per_cycle(total_s("artifacts.load")),
        "artifacts.save_s": per_cycle(total_s("artifacts.save")),
        "artifacts.bytes": per_cycle(count("artifacts.save", "bytes")),
        "evaluation.walk_forward_s": per_cycle(total_s("evaluation.walk_forward")),
        "evaluation.steps": per_cycle(count("evaluation.walk_forward", "steps")),
    }
    for kind in MODEL_KINDS:
        metrics[f"evaluation.step_ms_p50.{kind}"] = p50_ms("evaluation.predict_step", kind)
    metrics["evaluation.harness_self_s"] = per_cycle(harness_self_s)
    return metrics
