"""Run configuration: one INI file with flat key-value sections per stage.

Flags may override individual keys, but the file is the single source of
truth for a reproducible run. Paths are resolved relative to the config
file's directory and must exist at validation time.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .models.arima import ArimaSpec
from .models.forest import ForestConfig
from .models.lstm import LstmTopology, TrainConfig
from .sentiment import PreprocessConfig
from .series import MACRO_COLUMNS

WINDOW_MIN, WINDOW_MAX = 5, 250

DEFAULT_GRID_WINDOWS = (5, 10, 20, 30, 60, 90, 120, 180, 250)


@dataclass(frozen=True)
class RunConfig:
    config_path: Path
    tickers: tuple[str, ...]
    price_paths: dict[str, Path]
    macro_paths: dict[str, Path]          # keyed by MACRO_COLUMNS
    news_path: Path
    lexicon_path: Path | None
    stopwords_path: Path | None
    window: int
    train_fraction: float | None
    split_index: int | None
    preprocess: PreprocessConfig
    per_headline_average: bool
    lstm_topology: LstmTopology
    lstm_train: TrainConfig
    forest: ForestConfig
    arima: ArimaSpec
    knn_folds: int
    grid_windows: tuple[int, ...]
    seed: int
    out_dir: Path

    def digest(self) -> str:
        """Stable digest of the resolved configuration (for report metadata)."""
        text = self.config_path.read_text(encoding="utf-8")
        return hashlib.sha256(f"{text}|seed={self.seed}".encode()).hexdigest()[:16]


class _Reader:
    """Typed lookups into a parsed INI file that remember every key read."""

    def __init__(self, parser: configparser.ConfigParser) -> None:
        self.parser = parser
        self.read: set[tuple[str, str]] = set()

    def get(self, section: str, key: str, kind=str, fallback=None):
        """`kind` of the value of [section] key; `fallback` when unset or empty."""
        self.read.add((section, self.parser.optionxform(key)))
        if not self.parser.has_option(section, key):
            return fallback
        text = self.parser.get(section, key).strip()
        if text == "":
            return fallback
        try:
            return kind(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing required config key [{section}] {key}")
        return value

    def reject_unread(self) -> None:
        # options() lists [DEFAULT] keys in every section; name their own section
        for section in self.parser.sections():
            for key in self.parser.options(section):
                if (section, key) not in self.read:
                    where = self.parser.default_section if key in self.parser.defaults() else section
                    raise ConfigError(f"unknown config key [{where}] {key}")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text}")
    return states[text.lower()]


def _build(section: str, cls, **fields):
    """`cls(**fields)`, with the section named in the error of its own checks."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _resolve_path(base: Path, section: str, key: str, value: str) -> Path:
    path = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
    if not path.exists():
        raise ConfigError(f"[{section}] {key}: path does not exist: {path}")
    return path


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
) -> RunConfig:
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(config_path.read_text(encoding="utf-8"))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    base = config_path.parent
    cfg = _Reader(parser)

    tickers = tuple(
        t.strip() for t in cfg.require("universe", "tickers").split(",") if t.strip()
    )
    if not tickers:
        raise ConfigError("[universe] tickers must list at least one symbol")

    price_paths = {}
    for ticker in tickers:
        key = f"prices_{ticker}"
        price_paths[ticker] = _resolve_path(base, "paths", key, cfg.require("paths", key))
    macro_paths = {
        name: _resolve_path(base, "paths", f"macro_{name}", cfg.require("paths", f"macro_{name}"))
        for name in MACRO_COLUMNS
    }
    news_path = _resolve_path(base, "paths", "news", cfg.require("paths", "news"))
    lexicon_raw = cfg.get("paths", "lexicon")
    lexicon_path = _resolve_path(base, "paths", "lexicon", lexicon_raw) if lexicon_raw else None
    stopwords_raw = cfg.get("paths", "stopwords")
    stopwords_path = (
        _resolve_path(base, "paths", "stopwords", stopwords_raw) if stopwords_raw else None
    )

    window = cfg.get("dataset", "window", int, 60)
    if not WINDOW_MIN <= window <= WINDOW_MAX:
        raise ConfigError(f"[dataset] window must be in [{WINDOW_MIN}, {WINDOW_MAX}]")
    train_fraction = cfg.get("dataset", "train_fraction", float)
    split_index = cfg.get("dataset", "split_index", int)
    if (train_fraction is None) == (split_index is None):
        raise ConfigError(
            "[dataset] exactly one of train_fraction or split_index must be set"
        )
    if train_fraction is not None and not 0.0 < train_fraction < 1.0:
        raise ConfigError("[dataset] train_fraction must be in (0, 1)")

    preprocess = PreprocessConfig(
        remove_stopwords=cfg.get("sentiment", "remove_stopwords", _boolean, True),
        remove_special_chars=cfg.get("sentiment", "remove_special_chars", _boolean, True),
    )
    per_headline_average = cfg.get("sentiment", "per_headline_average", _boolean, False)

    seed = cfg.get("run", "seed", int, 0)
    if seed_override is not None:
        seed = seed_override

    topology = _build(
        "lstm",
        LstmTopology,
        layer_sizes=cfg.get("lstm", "layers", _int_list, (128, 64)),
        dense_sizes=cfg.get("lstm", "dense", _int_list, (25, 1)),
        window=window,
        bidirectional=False,
    )
    lstm_train = _build(
        "lstm",
        TrainConfig,
        epochs=cfg.get("lstm", "epochs", int, 200),
        batch_size=cfg.get("lstm", "batch_size", int, 32),
        learning_rate=cfg.get("lstm", "learning_rate", float, 0.001),
        seed=seed,
        early_stop_patience=cfg.get("lstm", "patience", int, 10),
    )

    n_trees = cfg.get("forest", "n_trees", int, 100)
    forest = _build("forest", ForestConfig, n_trees=n_trees, seed=seed)

    order = cfg.get("arima", "order", _int_list, (0, 1, 1))
    seasonal = cfg.get("arima", "seasonal_order", _int_list, (2, 1, 0, 12))
    if len(order) != 3 or len(seasonal) != 4:
        raise ConfigError("[arima] order must have 3 values and seasonal_order 4")
    arima = _build(
        "arima",
        ArimaSpec,
        order=order, seasonal_order=seasonal, max_evals=cfg.get("arima", "max_evals", int, 50)
    )

    knn_folds = cfg.get("knn", "folds", int, 5)
    if knn_folds < 2:
        raise ConfigError("[knn] folds must be >= 2")
    grid_windows = cfg.get("gridsearch", "windows", _int_list, DEFAULT_GRID_WINDOWS)
    if not grid_windows:
        raise ConfigError("[gridsearch] windows must list at least one window")
    for w in grid_windows:
        if not WINDOW_MIN <= w <= WINDOW_MAX:
            raise ConfigError(f"[gridsearch] windows must lie in [{WINDOW_MIN}, {WINDOW_MAX}]")

    out_dir = base / cfg.get("run", "out_dir", str, "out")
    if out_override is not None:
        out_dir = Path(out_override)
    cfg.reject_unread()
    return RunConfig(
        config_path=config_path,
        tickers=tickers,
        price_paths=price_paths,
        macro_paths=macro_paths,
        news_path=news_path,
        lexicon_path=lexicon_path,
        stopwords_path=stopwords_path,
        window=window,
        train_fraction=train_fraction,
        split_index=split_index,
        preprocess=preprocess,
        per_headline_average=per_headline_average,
        lstm_topology=topology,
        lstm_train=lstm_train,
        forest=forest,
        arima=arima,
        knn_folds=knn_folds,
        grid_windows=grid_windows,
        seed=seed,
        out_dir=out_dir,
    )
