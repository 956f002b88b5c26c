"""The benchmark's tracer still finds every name it wraps in the program,
and its per-layer metrics are exactly the ones BENCHMARK.json declares."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def lookup(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, leaf)


def test_tracer_installs_every_target_and_restores_it(monkeypatch):
    tracing = load_tracing(monkeypatch)
    before = [lookup(module, attr) for module, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [lookup(module, attr) for module, attr, _, _ in tracing.TARGETS]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [lookup(module, attr) for module, attr, _, _ in tracing.TARGETS] == before


def test_layer_metrics_are_the_declared_per_layer_names(monkeypatch):
    tracing = load_tracing(monkeypatch)
    reported = set(tracing.layer_metrics([], []))
    # run.py adds these two after the traced cycles
    reported |= {"evaluation.rmse_vs_persistence", "trace.overhead_ratio"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert reported == {m["name"] for m in declared}
