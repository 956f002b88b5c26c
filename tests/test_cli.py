import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stockcast
from stockcast.cli import build_parser, main
from stockcast.config import WINDOW_MAX, load_config
from stockcast.errors import StockcastError
from stockcast.models.artifacts import KINDS
from stockcast.pipeline import PipelineData
from stockcast.sentiment import BUNDLED_LEXICON, BUNDLED_STOPWORDS, aggregate_daily, daily

from mini_data import edit_artifact, write_mini_dataset


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    return write_mini_dataset(root)


def run(*args) -> int:
    return main([str(a) for a in args])


def test_ingest_check_succeeds(mini, capsys):
    assert run("ingest-check", "--config", mini) == 0
    out = capsys.readouterr().out
    assert "prices AAA: 140 rows" in out
    assert "news: 7 headlines" in out


def test_ingest_check_counts_the_rows_a_null_macro_cell_drops(tmp_path, capsys):
    config = write_mini_dataset(tmp_path / "data")
    path = config.parent / "macro_brent.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = lines[5].split(",")[0] + ",null\n"
    path.write_text("".join(lines))
    assert run("ingest-check", "--config", config) == 0
    out = capsys.readouterr().out
    assert re.search(r"^macro brent: 139 rows \(2021-01-04 \.\. [-\d]+\), skipped 1$", out, re.M)
    assert re.search(r"^macro gold: 140 rows \(2021-01-04 \.\. [-\d]+\), skipped 0$", out, re.M)


SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "sample_data" / "config.ini"
# SHA-256 of what `sentiment` and `build-dataset` write for the bundled sample
SAMPLE_DIGESTS = {
    "panel_ALFA.csv": "743427cdc79b7f0cb20d8f24b9fcc9cfe515af85e6687cadc796e029d3f7e86c",
    "panel_BRVO.csv": "806d7c047293eaddbd0746ecb1661009ec65f9f419f72fb2ff979d21a33e0211",
    "sentiment_ALFA.csv": "2ccdd96f432db3f87dea882e2a43d38c31ff96ecca5f0dd348862825b26411ff",
    "sentiment_BRVO.csv": "d319d2fea63c5efd02bc1a7daae62a3c39d1765a558b0f3cc1a548abc54e95eb",
}


def test_sample_sentiment_and_panel_files_keep_their_digests(tmp_path, capsys):
    for command in ("sentiment", "build-dataset"):
        assert run(command, "--config", SAMPLE_CONFIG, "--out", tmp_path) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == SAMPLE_DIGESTS


def test_sentiment_command_output_and_determinism(mini, tmp_path, capsys):
    out_dir = tmp_path / "senti"
    assert run("sentiment", "--config", mini, "--ticker", "AAA", "--out", out_dir) == 0
    path = out_dir / "sentiment_AAA.csv"
    first = path.read_bytes()
    lines = first.decode().strip().splitlines()
    assert lines[0] == "date,pos,neg,neu,compound,headline_count"
    assert len(lines) == 141  # one record per trading day
    populated = [l for l in lines[1:] if not l.endswith(",0")]
    assert len(populated) == 3  # 5 AAA headlines collapse onto 3 trading days
    triple = [l for l in lines[1:] if l.endswith(",3")]
    assert len(triple) == 1  # the 3-headline day aggregates into one record
    # the Saturday item contributes to the following Monday
    assert any(l.startswith("2021-01-25,") and l.endswith(",1") for l in populated)

    assert run("sentiment", "--config", mini, "--ticker", "AAA", "--out", out_dir) == 0
    assert path.read_bytes() == first  # byte-identical rerun


def test_build_dataset_writes_panel(mini, tmp_path, capsys):
    out_dir = tmp_path / "panel"
    assert run("build-dataset", "--config", mini, "--ticker", "AAA", "--out", out_dir) == 0
    lines = (out_dir / "panel_AAA.csv").read_text().strip().splitlines()
    assert lines[0] == "date,close,gold,brent,gsec,usd_inr,pos,neg,neu,compound"
    assert len(lines) == 141


def test_missing_lexicon_path_is_config_error(mini, tmp_path):
    text = mini.read_text().replace("news = news.csv", "news = news.csv\nlexicon = missing.txt")
    bad = mini.parent / "bad.ini"
    bad.write_text(text)
    with pytest.raises(StockcastError) as exc:
        load_config(bad)
    assert "lexicon" in str(exc.value)
    assert run("sentiment", "--config", bad) == 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("epochs = 2", "epoch = 15", "unknown config key [lstm] epoch"),
        ("patience = 2", "patience = 2\nseed = 1", "unknown config key [lstm] seed"),
        ("[universe]", "[DEFAULT]\nseed = 1\n\n[universe]", "unknown config key [DEFAULT] seed"),
        ("window = 10", "window = sixty",
         "[dataset] window: invalid literal for int() with base 10: 'sixty'"),
        ("[run]", "[sentiment]\nremove_stopwords = maybe\n\n[run]",
         "[sentiment] remove_stopwords: not a boolean: maybe"),
        ("[run]", "[knn]\nfolds = 1\n\n[run]", "[knn] folds must be >= 2"),
        ("patience = 2", "patience = 2\ndropout = 0.2", "unknown config key [lstm] dropout"),
        ("n_trees = 8", "n_trees = 8\nbootstrap = false", "unknown config key [forest] bootstrap"),
    ],
)
def test_config_typo_or_bad_value_names_its_key(mini, tmp_path, old, new, message):
    bad = mini.parent / f"bad_{tmp_path.name}.ini"
    bad.write_text(mini.read_text().replace(old, new, 1))
    with pytest.raises(StockcastError) as exc:
        load_config(bad, seed_override=7, out_override=tmp_path)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "command, old, new, message",
    [
        ("ingest-check", "train_fraction = 0.9", "train_fraction = 1.5",
         "[dataset] train_fraction must be in (0, 1)"),
        ("gridsearch-window", "windows = 5, 10", "windows = ,",
         "[gridsearch] windows must list at least one window"),
        ("train", "dense = 3, 1", "dense = 25, 2", "[lstm] final dense layer must have size 1"),
        # every weight of the network: (1, 4H), (H, 4H), (4H,), then (H, 3), (3,), (3, 1), (1,)
        ("train", "layers = 5", f"layers = {10**30}",
         f"[lstm] sizes need {4 * 10**60 + 11 * 10**30 + 7} weights, more than numpy can hold"),
        # (1, 20), (5, 20), (20,), then (5, D), (D,), (D, 1), (1,)
        ("train", "dense = 3, 1", f"dense = {10**30}, 1",
         f"[lstm] sizes need {7 * 10**30 + 141} weights, more than numpy can hold"),
        ("train", "n_trees = 8", "n_trees = 0", "[forest] n_trees must be >= 1"),
        ("train", "epochs = 2", "epochs = -1", "[lstm] epochs must be >= 0"),
        ("train", "seasonal_order = 0, 0, 0, 1", "seasonal_order = 2, 1, 0, 0",
         "[arima] seasonal period must be >= 1"),
    ],
)
def test_out_of_range_setting_fails_at_load_naming_its_section(
    mini, tmp_path, capsys, command, old, new, message
):
    bad = mini.parent / f"bad_{tmp_path.name}.ini"
    bad.write_text(mini.read_text().replace(old, new, 1))
    assert run(command, "--config", bad, "--out", tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err == f"stockcast: [{command}] error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "edit, extra",
    [(("seed = 42", "seed = -5"), []), (("seed = 42", "seed = 42"), ["--seed", "-5"])],
    ids=["config-seed", "seed-option"],
)
def test_negative_seed_fails_at_load_naming_the_key(mini, tmp_path, capsys, edit, extra):
    bad = mini.parent / f"bad_{tmp_path.name}.ini"
    bad.write_text(mini.read_text().replace(*edit, 1))
    assert run("train", "--config", bad, "--model", "forest", "--out", tmp_path, *extra) == 1
    captured = capsys.readouterr()
    assert captured.err == "stockcast: [train] error: [run] seed must be >= 0, not -5\n"
    assert captured.out == ""


def test_diverging_lstm_prints_one_error_line_and_no_warning(mini, tmp_path, capsys):
    bad = mini.parent / f"bad_{tmp_path.name}.ini"
    bad.write_text(mini.read_text().replace("patience = 2", "patience = 2\nlearning_rate = 1e300"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("train", "--config", bad, "--model", "lstm", "--ticker", "AAA",
                   "--out", tmp_path)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "stockcast: [train] error: non-finite loss at epoch 1\n"
    assert captured.out == ""
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("kind", ["knn", "linreg"])
def test_a_non_finite_validation_error_is_one_error_line_and_never_a_result(tmp_path, capsys, kind):
    config = write_mini_dataset(tmp_path / "data")
    path = config.parent / "prices_AAA.csv"
    lines = path.read_text().splitlines(keepends=True)
    day = lines[-5].split(",")[0]  # a validation day; its close squares past the float range
    lines[-5] = f"{day},1e200,1e200,1e200,1e200,1e200,1000\n"
    path.write_text("".join(lines))
    out_dir = tmp_path / "out"
    common = ["--config", config, "--model", kind, "--ticker", "AAA", "--out", out_dir]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        codes = [run(command, *common) for command in ("train", "evaluate")]
    captured = capsys.readouterr()
    assert codes == [1, 1]
    err = captured.err.splitlines()
    assert len(err) == 2
    for line, command in zip(err, ("train", "evaluate")):
        assert line.startswith(f"stockcast: [{command}] error: AAA/{kind}: ")
        assert f" the error of the prediction for {day} is not finite " in line
    assert "inf" not in captured.out
    report = out_dir / "report"
    assert not report.exists() or all(
        "inf" not in p.read_text() for p in report.rglob("*") if p.is_file()
    )
    assert [str(w.message) for w in caught] == []


def test_overridden_keys_are_still_read(mini, tmp_path):
    config = load_config(mini, seed_override=7, out_override=tmp_path)
    assert (config.seed, config.out_dir) == (7, tmp_path)


def test_model_choices_are_the_kinds_and_all():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for name in ("train", "evaluate", "gridsearch-window"):
        model = next(a for a in commands[name]._actions if a.dest == "model")
        assert model.choices == [*KINDS, "all"]


def test_unknown_model_is_usage_error(mini, capsys):
    with pytest.raises(SystemExit) as exc:
        run("train", "--config", mini, "--model", "prophet")
    assert exc.value.code == 2
    assert "lstm" in capsys.readouterr().err  # usage error lists valid kinds


def test_evaluate_before_train_names_missing_artifact(mini, tmp_path, capsys):
    out_dir = tmp_path / "empty"
    code = run("evaluate", "--config", mini, "--model", "lstm", "--ticker", "AAA", "--out", out_dir)
    assert code == 1
    err = capsys.readouterr().err
    assert "AAA_lstm.json" in err and "[evaluate]" in err


def test_corrupted_artifact_is_an_evaluate_error(mini, tmp_path, capsys):
    out_dir = tmp_path / "corrupt"
    assert run("train", "--config", mini, "--model", "additive", "--ticker", "AAA",
               "--out", out_dir) == 0
    path = out_dir / "artifacts" / "AAA_additive.json"
    doc = json.loads(path.read_text())
    del doc["payload"]["slope"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("evaluate", "--config", mini, "--model", "additive", "--ticker", "AAA",
               "--out", out_dir) == 1
    err = capsys.readouterr().err
    assert "[evaluate] error:" in err and "slope" in err


def test_corrupt_forest_child_index_is_an_evaluate_error(mini, tmp_path, capsys):
    out_dir = tmp_path / "corrupt-forest"
    common = ["--config", mini, "--model", "forest", "--ticker", "AAA", "--out", out_dir]
    assert run("train", *common) == 0
    path = out_dir / "artifacts" / "AAA_forest.json"

    def child_past_the_end(doc):
        tree = doc["payload"]["trees"][0]
        tree["right"][next(i for i, f in enumerate(tree["feature"]) if f != -1)] = 10**6

    path.write_text(edit_artifact(path.read_text(), child_past_the_end))
    capsys.readouterr()
    assert run("evaluate", *common) == 1
    err = capsys.readouterr().err
    assert "[evaluate] error: AAA_forest.json: malformed forest artifact" in err
    assert "right child must lie after its left child" in err


# a saved report entry that decodes, but whose model is no kind
UNKNOWN_MODEL_ENTRY = {
    "ticker": "AAA", "model": "foo", "dates": ["2021-06-01"], "actual": [1.0],
    "predicted": [1.0], "metrics": {"rmse": 0.0, "mape": 0.0, "n": 1},
    "train_dates": [], "train_actual": [],
}


@pytest.mark.parametrize(
    "data, message",
    [
        (json.dumps({"metadata": {}, "entries": [{"ticker": "AAA"}]}).encode(),
         "report.entries[0] lacks key 'model'"),
        (json.dumps({"metadata": {}, "entries": {"ticker": "AAA"}}).encode(),
         "report.entries must be a list, not dict"),
        (json.dumps({"metadata": {}, "entries": [UNKNOWN_MODEL_ENTRY]}).encode(),
         "report.entries[0].model must be a model kind, not 'foo'"),
        (b'{"metadata": {}\n', "Expecting ',' delimiter: line 2 column 1 (char 16)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[]", "report must be an object, not list"),
    ],
    ids=["missing-key", "entries-not-a-list", "unknown-model", "truncated", "not-utf-8",
         "top-level-list"],
)
def test_malformed_saved_report_is_a_report_error(mini, tmp_path, capsys, data, message):
    path = tmp_path / "report" / "forecast_report.json"
    path.parent.mkdir()
    path.write_bytes(data)
    assert run("report", "--config", mini, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"stockcast: [report] error: {path}: {message}"), err
    assert [p.name for p in path.parent.iterdir()] == ["forecast_report.json"]


def test_saved_report_naming_a_ticker_outside_universe_is_a_report_error(mini, tmp_path, capsys):
    common = ["--config", mini, "--model", "persistence", "--ticker", "AAA", "--out", tmp_path]
    assert run("train", *common) == 0
    assert run("evaluate", *common) == 0
    path = tmp_path / "report" / "forecast_report.json"
    doc = json.loads(path.read_text())
    doc["entries"][0]["ticker"] = "ZZZ"
    path.write_text(json.dumps(doc))
    before = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    capsys.readouterr()
    assert run("report", "--config", mini, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        f"stockcast: [report] error: {path}: ticker 'ZZZ' not in configured universe AAA, BBB"
    ), err
    assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == before


def test_train_all_then_evaluate_full_flow(mini, tmp_path, capsys):
    out_dir = tmp_path / "flow"
    assert run("train", "--config", mini, "--model", "all", "--ticker", "all", "--out", out_dir) == 0
    out = capsys.readouterr().out
    assert out.count("trained") == 14  # 7 kinds x 2 tickers
    assert "val RMSE" in out
    artifacts = sorted(p.name for p in (out_dir / "artifacts").glob("*.json"))
    assert len(artifacts) == 14

    assert run("evaluate", "--config", mini, "--model", "all", "--ticker", "all",
               "--out", out_dir, "--svg") == 0
    report_dir = out_dir / "report"
    md = (report_dir / "report.md").read_text()
    for label in ("LSTM", "Bidirectional LSTM", "Linear regression", "ARIMA",
                  "KNN", "Additive trend", "Random forest (sentiment)"):
        assert f"| {label} |" in md
    assert (report_dir / "metrics.csv").exists()
    assert (report_dir / "correlation_AAA.csv").exists()
    assert list(report_dir.glob("*.svg"))

    # re-render from the saved evaluation
    assert run("report", "--config", mini, "--out", out_dir) == 0
    assert (report_dir / "report.md").read_text() == md


def test_predict_date_gives_single_row(mini, tmp_path, capsys):
    out_dir = tmp_path / "single"
    assert run("train", "--config", mini, "--model", "additive", "--ticker", "AAA",
               "--out", out_dir) == 0
    config = load_config(mini, out_override=out_dir)
    last_date = PipelineData(config).panel("AAA").dates[-1]
    assert run("evaluate", "--config", mini, "--model", "additive", "--ticker", "AAA",
               "--out", out_dir, "--predict-date", last_date.isoformat()) == 0
    doc = json.loads((out_dir / "report" / "forecast_report.json").read_text())
    assert len(doc["entries"]) == 1
    assert len(doc["entries"][0]["dates"]) == 1


def test_evaluating_one_later_ticker_compares_that_ticker(mini, tmp_path):
    common = ["--config", mini, "--model", "additive", "--ticker", "BBB", "--out", tmp_path]
    assert run("train", *common) == 0
    assert run("evaluate", *common) == 0
    md = (tmp_path / "report" / "report.md").read_text()
    assert "## Model comparison (BBB)" in md
    assert "| Additive trend |" in md


def test_gridsearch_window_with_fast_model(mini, tmp_path, capsys):
    out_dir = tmp_path / "grid"
    assert run("gridsearch-window", "--config", mini, "--model", "knn", "--ticker", "AAA",
               "--out", out_dir) == 0
    lines = (out_dir / "gridsearch_AAA_knn.csv").read_text().strip().splitlines()
    assert lines[0] == "window,val_rmse"
    assert len(lines) == 3  # two configured windows
    assert "best window" in capsys.readouterr().out


def test_gridsearch_window_rejects_an_unwindowed_model(mini, tmp_path, capsys):
    assert run("gridsearch-window", "--config", mini, "--model", "arima", "--ticker", "AAA",
               "--out", tmp_path / "grid") == 1
    assert "[gridsearch-window] error: gridsearch supports windowed models" in capsys.readouterr().err


NEWS_READERS = ("parse_news_file", "aggregate_daily")


def refuse(name: str):
    def refusing(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refusing


def train_and_evaluate(config, out_dir, kind: str) -> dict:
    """Report bytes of `evaluate` and of `evaluate --predict-date` after `train`."""
    common = ["--config", config, "--model", kind, "--out", out_dir]
    assert run("train", *common) == 0
    last_date = PipelineData(load_config(config)).panel("AAA", sentiment=False).dates[-1]
    outputs = {}
    for extra in ((), ("--predict-date", last_date.isoformat())):
        assert run("evaluate", *common, *extra) == 0
        for name in ("metrics.csv", "forecast_report.json"):
            outputs[extra, name] = (out_dir / "report" / name).read_bytes()
    return outputs


@pytest.mark.parametrize("kind", [k for k, spec in KINDS.items() if not spec.sentiment])
def test_price_only_kinds_never_read_the_news(mini, tmp_path, monkeypatch, kind):
    expected = train_and_evaluate(mini, tmp_path / "read", kind)
    for name in NEWS_READERS:
        monkeypatch.setattr(f"stockcast.pipeline.{name}", refuse(name))
    assert train_and_evaluate(mini, tmp_path / "unread", kind) == expected


@pytest.mark.parametrize("name", NEWS_READERS)
def test_the_forest_reads_the_news(mini, tmp_path, monkeypatch, name):
    monkeypatch.setattr(f"stockcast.pipeline.{name}", refuse(name))
    with pytest.raises(AssertionError, match=f"{name} was called"):
        run("train", "--config", mini, "--model", "forest", "--out", tmp_path)


@pytest.mark.parametrize("bad_row", ["not-a-date,AAA,headline", "2030-01-02,AAA,late news"])
def test_a_bad_news_file_fails_only_the_commands_that_read_it(tmp_path, capsys, bad_row):
    config = write_mini_dataset(tmp_path / "data")
    out_dir = tmp_path / "out"
    assert run("train", "--model", "forest", "--config", config, "--out", out_dir) == 0
    last_date = PipelineData(load_config(config)).panel("AAA", sentiment=False).dates[-1]
    with (config.parent / "news.csv").open("a") as fh:
        fh.write(bad_row + "\n")
    for command, *args in (("train", "--model", "linreg"), ("evaluate", "--model", "linreg"),
                           ("gridsearch-window", "--model", "knn")):
        assert run(command, *args, "--config", config, "--out", out_dir) == 0
    for command, *args in (("train", "--model", "forest"), ("sentiment",), ("ingest-check",),
                           ("evaluate", "--model", "forest"),
                           ("evaluate", "--model", "forest", "--predict-date", last_date)):
        capsys.readouterr()
        assert run(command, *args, "--config", config, "--out", out_dir) == 1
        assert f"[{command}] error:" in capsys.readouterr().err


NEWS_PHRASES = ("profits surge", "weak sales disappoint. shares slip", "fraud probe alarms",
                "strong demand lifts outlook")


def with_news_to_the_end(root: Path) -> Path:
    """The mini dataset with news for both tickers on each of the last 30 trading days.

    Every validation row, and the row before the first, then has news to score.
    """
    config = write_mini_dataset(root)
    days = PipelineData(load_config(config)).panel("AAA", sentiment=False).dates
    with (config.parent / "news.csv").open("a") as fh:
        for i, day in enumerate(days[-30:]):
            for ticker in ("AAA", "BBB"):
                fh.write(f"{day.isoformat()},{ticker},{NEWS_PHRASES[i % 4]}\n")
    return config


def test_each_command_scores_only_the_day_texts_it_reads(tmp_path, monkeypatch):
    config = with_news_to_the_end(tmp_path / "data")
    data = PipelineData(load_config(config))
    panels = [data.panel(t, sentiment=False) for t in ("AAA", "BBB")]
    validation_rows = sum(len(p) - data.row_split(p) for p in panels)
    last_date = panels[0].dates[-1].isoformat()
    scored, score_tokens = [], daily.score_tokens

    def counting(tokens, lexicon):
        scored.append(len(tokens.lengths))
        return score_tokens(tokens, lexicon)

    monkeypatch.setattr(daily, "score_tokens", counting)

    def texts_scored_by(*args) -> int:
        scored.clear()
        assert run(*args, "--config", config, "--out", tmp_path / "out") == 0
        return sum(scored)

    # every day with news: 33 of AAA and 32 of BBB
    assert texts_scored_by("sentiment") == 65
    assert texts_scored_by("train", "--model", "forest") == 65
    assert texts_scored_by("ingest-check") == 0
    assert texts_scored_by("evaluate", "--model", "forest") <= validation_rows
    assert texts_scored_by("evaluate", "--model", "forest", "--predict-date", last_date) <= 2
    assert texts_scored_by("evaluate", "--model", "forest", "--ticker", "BBB",
                           "--predict-date", last_date) <= 1


def test_evaluate_scoring_the_rows_it_reads_equals_scoring_every_row(
    tmp_path, monkeypatch, capsys
):
    config = with_news_to_the_end(tmp_path / "data")
    out_dir = tmp_path / "out"
    common = ["--config", config, "--model", "forest", "--out", out_dir]
    assert run("train", *common) == 0
    data = PipelineData(load_config(config))
    panel = data.panel("AAA", sentiment=False)
    first = data.row_split(panel)

    def reports() -> dict:
        outputs = {}
        for extra in ((), *(("--predict-date", d) for d in panel.dates[first::5])):
            assert run("evaluate", *common, *extra) == 0
            for name in ("metrics.csv", "forecast_report.json"):
                outputs[extra, name] = (out_dir / "report" / name).read_bytes()
        return outputs

    def scoring(days):
        def aggregate(*args, **kwargs):
            return aggregate_daily(*args, **{**kwargs, "days": days})

        monkeypatch.setattr("stockcast.pipeline.aggregate_daily", aggregate)

    expected = reports()
    scoring(None)  # every day
    assert reports() == expected
    scoring(set())  # no day: the first row the forest reads holds NaN
    capsys.readouterr()
    assert run("evaluate", *common) == 1
    assert capsys.readouterr().err == (
        f"stockcast: [evaluate] error: AAA: the feature row of {panel.dates[first - 1]} "
        "is not finite (its sentiment was not scored)\n"
    )


@pytest.mark.parametrize(
    "name, content, where",
    [
        ("lexicon.txt", b"good\t1.9\nbad\tx\n", "lexicon.txt: line 2: "),
        ("lexicon.txt", b"# valences\nbad\tnan\n", "lexicon.txt: line 2: "),
        ("lexicon.txt", b"good\t1.9\n\nbad\t1e400\n", "lexicon.txt: line 3: "),
        ("lexicon.txt", b"good\t1.9\nbad\t-2.5\xff\n", "lexicon.txt: line 2: "),
        ("stopwords.txt", b"the\n\xff\n", "stopwords.txt: line 2: "),
        ("news.csv", b"2030-01-01,AAA,late news\n",
         "news.csv: line 9, column 'Date': AAA: news dated 2030-01-01 "),
        ("prices_AAA.csv", b"2021-07-20,1,1,1,1,1,\xff\n", "prices_AAA.csv: line 142: "),
    ],
    ids=["lexicon-not-a-number", "lexicon-nan", "lexicon-overflow", "lexicon-not-utf8",
         "stopwords-not-utf8", "news-after-calendar", "prices-not-utf8"],
)
def test_every_sentiment_input_error_names_its_file(tmp_path, capsys, name, content, where):
    config = write_mini_dataset(tmp_path / "data")
    if name.endswith(".csv"):  # a line appended to an input of the mini dataset
        with (config.parent / name).open("ab") as fh:
            fh.write(content)
    else:
        (config.parent / name).write_bytes(content)
        config.write_text(config.read_text().replace(
            "news = news.csv", f"news = news.csv\n{name.split('.')[0]} = {name}"
        ))
    assert run("sentiment", "--config", config, "--ticker", "AAA", "--out", tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("stockcast: [sentiment] error: ")
    assert f"{config.parent / name}: " in captured.err
    assert where in captured.err


def test_a_macro_file_starting_after_the_first_trading_day_is_named(tmp_path, capsys):
    config = write_mini_dataset(tmp_path / "data")
    path = config.parent / "macro_gold.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "".join(lines[2:]))  # drop the 2021-01-04 value
    assert run("ingest-check", "--config", config) == 1
    assert capsys.readouterr().err == (
        f"stockcast: [ingest-check] error: {path}: no gold value on or before 2021-01-04\n"
    )


@pytest.mark.parametrize("text", ["20210201", "2021-W05-1", "2021-2-1", "2021-02-30"])
def test_predict_date_must_be_written_as_yyyy_mm_dd(mini, tmp_path, capsys, text):
    code = run("evaluate", "--config", mini, "--model", "additive", "--ticker", "AAA",
               "--out", tmp_path, "--predict-date", text)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("stockcast: [evaluate] error: --predict-date: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_ticker_outside_universe_fails(mini, capsys):
    assert run("sentiment", "--config", mini, "--ticker", "ZZZ") == 1
    assert "universe" in capsys.readouterr().err


def test_importing_the_cli_does_not_import_scipy():
    src = str(Path(stockcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, stockcast.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# every config key a run reads outside [universe] and [paths]
EDGE_KEYS = (
    ("dataset", "window"), ("dataset", "train_fraction"), ("dataset", "split_index"),
    ("sentiment", "remove_stopwords"), ("sentiment", "remove_special_chars"),
    ("sentiment", "per_headline_average"),
    ("lstm", "layers"), ("lstm", "dense"), ("lstm", "epochs"), ("lstm", "batch_size"),
    ("lstm", "learning_rate"), ("lstm", "patience"),
    ("forest", "n_trees"),
    ("arima", "order"), ("arima", "seasonal_order"), ("arima", "max_evals"),
    ("knn", "folds"),
    ("gridsearch", "windows"),
    ("run", "seed"),
)
# keys that set an amount of work: 10**30 of them would run without end
WORK_KEYS = {"n_trees", "epochs", "patience", "folds", "max_evals"}
EDGE_VALUES = ("0", "1", "-1", str(10**30), "", "2.5", str(WINDOW_MAX))


def with_setting(text: str, section: str, key: str, value: str) -> str:
    """Config `text` with [section] key set to `value`; split_index replaces
    train_fraction, as exactly one of them may be set."""
    line = f"{key} = {value}"
    if key == "split_index":
        text = re.sub(r"^train_fraction = .*\n", "", text, flags=re.M)
    if re.search(rf"^{key} = ", text, flags=re.M):
        return re.sub(rf"^{key} = .*$", lambda _: line, text, flags=re.M)
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    return f"{text}\n[{section}]\n{line}\n"


@st.composite
def edge_settings(draw):
    section, key = draw(st.sampled_from(EDGE_KEYS))
    values = [v for v in EDGE_VALUES if not (key in WORK_KEYS and v == str(10**30))]
    return section, key, draw(st.sampled_from(values))


@pytest.fixture(scope="module")
def trained_mini(mini):
    """An out directory holding every artifact and a saved report of the mini dataset."""
    out = mini.parent / "trained"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("train", "--config", mini, "--out", out) == 0
        assert run("evaluate", "--config", mini, "--out", out) == 0
    return out


COMMANDS = ("ingest-check", "sentiment", "build-dataset", "train", "evaluate", "report",
            "gridsearch-window")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(COMMANDS),
    kind=st.sampled_from(list(KINDS)),
    setting=edge_settings(),
)
# a diverging LSTM once printed numpy's overflow warnings before its error
@example(command="train", kind="lstm", setting=("lstm", "learning_rate", "1e300"))
def test_any_edge_setting_ends_in_success_or_one_error_line(
    mini, trained_mini, command, kind, setting
):
    edited = mini.parent / "edge.ini"
    edited.write_text(with_setting(mini.read_text(), *setting))
    # evaluate and report read the trained artifacts and report; the others
    # write into a fresh directory
    out = trained_mini if command in ("evaluate", "report") else mini.parent / "edge_out"
    shutil.rmtree(mini.parent / "edge_out", ignore_errors=True)
    args = [command, "--config", edited, "--out", out]
    if command in ("train", "evaluate", "gridsearch-window"):
        args += ["--model", kind]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(*args)
    err = stderr.getvalue()
    assert code in (0, 1)
    if code == 0:
        assert err == ""
    else:
        assert re.fullmatch(rf"stockcast: \[{command}\] error: [^\n]+\n", err), err
    assert [str(w.message) for w in caught] == []


MUTATED_INPUTS = ("prices_AAA.csv", "macro_gold.csv", "news.csv", "lexicon.txt", "stopwords.txt")
MUTATIONS = ("flip", "xff", "nul", "drop", "duplicate", "truncate", "crlf", "bom")
# the error that names no line: a macro file whose first value comes after the
# first trading day
WHOLE_FILE_ERRORS = r"no \w+ value on or before [-\d]+"


def mutated(data: bytes, how: str, at: int) -> bytes:
    """`data` with one edit, at byte or line `at` modulo the file's length."""
    lines = data.splitlines(keepends=True)
    pos, i = at % len(data), at % len(lines)
    if how == "flip":
        return data[:pos] + bytes([data[pos] ^ 1 << at % 8]) + data[pos + 1 :]
    if how in ("xff", "nul"):
        return data[:pos] + (b"\xff" if how == "xff" else b"\0") + data[pos:]
    if how == "drop":
        return b"".join(lines[:i] + lines[i + 1 :])
    if how == "duplicate":
        return b"".join(lines[: i + 1] + lines[i:])
    if how == "truncate":
        return b"".join(lines[:i] + [lines[i][: len(lines[i]) // 2] + b"\n"] + lines[i + 1 :])
    if how == "crlf":
        return data.replace(b"\n", b"\r\n")
    return b"\xef\xbb\xbf" + data  # bom


@pytest.fixture(scope="module")
def mutable(tmp_path_factory):
    """A mini dataset reading its own lexicon and stopwords, and its files' bytes."""
    config = write_mini_dataset(tmp_path_factory.mktemp("mutable"))
    shutil.copy(BUNDLED_LEXICON, config.parent / "lexicon.txt")
    shutil.copy(BUNDLED_STOPWORDS, config.parent / "stopwords.txt")
    config.write_text(config.read_text().replace(
        "news = news.csv", "news = news.csv\nlexicon = lexicon.txt\nstopwords = stopwords.txt"
    ))
    return config, {name: (config.parent / name).read_bytes() for name in MUTATED_INPUTS}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(MUTATED_INPUTS), how=st.sampled_from(MUTATIONS),
       at=st.integers(min_value=0, max_value=10**6))
def test_any_mutated_input_ends_in_success_or_one_error_line_naming_it(mutable, name, how, at):
    config, originals = mutable
    for other, data in originals.items():
        (config.parent / other).write_bytes(data)
    path = config.parent / name
    path.write_bytes(mutated(originals[name], how, at))
    n_lines = len(path.read_bytes().splitlines())
    for command in ("ingest-check", "sentiment"):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = run(command, "--config", config, "--out", config.parent / "out")
        err = stderr.getvalue()
        assert code in (0, 1)
        if code == 0:
            assert err == ""
            continue
        match = re.fullmatch(rf"stockcast: \[{command}\] error: {re.escape(str(path))}: "
                             rf"(?:line (\d+)\b.*|{WHOLE_FILE_ERRORS})\n", err)
        assert match, err
        assert match[1] is None or 1 <= int(match[1]) <= n_lines, err
