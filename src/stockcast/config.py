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


def _get(parser: configparser.ConfigParser, section: str, key: str, fallback=None):
    if parser.has_option(section, key):
        value = parser.get(section, key).strip()
        return value if value != "" else fallback
    return fallback


def _require(parser: configparser.ConfigParser, section: str, key: str) -> str:
    value = _get(parser, section, key)
    if value is None:
        raise ConfigError(f"missing required config key [{section}] {key}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


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

    tickers = tuple(
        t.strip() for t in _require(parser, "universe", "tickers").split(",") if t.strip()
    )
    if not tickers:
        raise ConfigError("[universe] tickers must list at least one symbol")

    price_paths = {}
    for ticker in tickers:
        key = f"prices_{ticker}"
        price_paths[ticker] = _resolve_path(base, "paths", key, _require(parser, "paths", key))
    macro_paths = {
        name: _resolve_path(base, "paths", f"macro_{name}", _require(parser, "paths", f"macro_{name}"))
        for name in MACRO_COLUMNS
    }
    news_path = _resolve_path(base, "paths", "news", _require(parser, "paths", "news"))
    lexicon_raw = _get(parser, "paths", "lexicon")
    lexicon_path = _resolve_path(base, "paths", "lexicon", lexicon_raw) if lexicon_raw else None
    stopwords_raw = _get(parser, "paths", "stopwords")
    stopwords_path = (
        _resolve_path(base, "paths", "stopwords", stopwords_raw) if stopwords_raw else None
    )

    window = int(_get(parser, "dataset", "window", "60"))
    if not WINDOW_MIN <= window <= WINDOW_MAX:
        raise ConfigError(f"[dataset] window must be in [{WINDOW_MIN}, {WINDOW_MAX}]")
    fraction_raw = _get(parser, "dataset", "train_fraction")
    split_raw = _get(parser, "dataset", "split_index")
    if (fraction_raw is None) == (split_raw is None):
        raise ConfigError(
            "[dataset] exactly one of train_fraction or split_index must be set"
        )
    train_fraction = float(fraction_raw) if fraction_raw is not None else None
    split_index = int(split_raw) if split_raw is not None else None

    preprocess = PreprocessConfig(
        remove_stopwords=parser.getboolean("sentiment", "remove_stopwords", fallback=True),
        remove_special_chars=parser.getboolean("sentiment", "remove_special_chars", fallback=True),
    )
    per_headline_average = parser.getboolean(
        "sentiment", "per_headline_average", fallback=False
    )

    seed = seed_override if seed_override is not None else int(_get(parser, "run", "seed", "0"))

    clip_raw = _get(parser, "lstm", "gradient_clip")
    topology = LstmTopology(
        layer_sizes=_int_list(_get(parser, "lstm", "layers", "128, 64")),
        dense_sizes=_int_list(_get(parser, "lstm", "dense", "25, 1")),
        window=window,
        bidirectional=False,
        dense_activation=_get(parser, "lstm", "dense_activation", "identity"),
        dropout=float(_get(parser, "lstm", "dropout", "0.0")),
    )
    lstm_train = TrainConfig(
        epochs=int(_get(parser, "lstm", "epochs", "200")),
        batch_size=int(_get(parser, "lstm", "batch_size", "32")),
        learning_rate=float(_get(parser, "lstm", "learning_rate", "0.001")),
        seed=seed,
        early_stop_patience=int(_get(parser, "lstm", "patience", "10")),
        gradient_clip=float(clip_raw) if clip_raw is not None else None,
    )

    max_depth_raw = _get(parser, "forest", "max_depth")
    max_features_raw = _get(parser, "forest", "max_features")
    forest = ForestConfig(
        n_trees=int(_get(parser, "forest", "n_trees", "100")),
        max_depth=int(max_depth_raw) if max_depth_raw is not None else None,
        min_samples_leaf=int(_get(parser, "forest", "min_samples_leaf", "1")),
        max_features=int(max_features_raw) if max_features_raw is not None else None,
        bootstrap=parser.getboolean("forest", "bootstrap", fallback=True),
        seed=seed,
    )

    order = _int_list(_get(parser, "arima", "order", "0, 1, 1"))
    seasonal = _int_list(_get(parser, "arima", "seasonal_order", "2, 1, 0, 12"))
    if len(order) != 3 or len(seasonal) != 4:
        raise ConfigError("[arima] order must have 3 values and seasonal_order 4")
    arima = ArimaSpec(
        order=order, seasonal_order=seasonal, max_evals=int(_get(parser, "arima", "max_evals", "50"))
    )

    knn_folds = int(_get(parser, "knn", "folds", "5"))
    grid_windows = _int_list(
        _get(parser, "gridsearch", "windows", ",".join(str(w) for w in DEFAULT_GRID_WINDOWS))
    )
    for w in grid_windows:
        if not WINDOW_MIN <= w <= WINDOW_MAX:
            raise ConfigError(f"[gridsearch] windows must lie in [{WINDOW_MIN}, {WINDOW_MAX}]")

    out_dir = Path(out_override) if out_override is not None else base / _get(
        parser, "run", "out_dir", "out"
    )
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
