"""Lexicon sentiment engine: preprocessing, scoring, daily aggregation."""

from .daily import DailySentiment, aggregate_daily
from .lexicon import BUNDLED_LEXICON, BUNDLED_STOPWORDS, Lexicon, parse_lexicon, parse_stopwords
from .preprocess import PreprocessConfig, preprocess_text
from .scorer import (
    EMPTY_SCORE,
    NEUTRAL_SCORE,
    SentimentScore,
    score_text,
    token_valences,
)

__all__ = [
    "BUNDLED_LEXICON",
    "BUNDLED_STOPWORDS",
    "DailySentiment",
    "EMPTY_SCORE",
    "Lexicon",
    "NEUTRAL_SCORE",
    "PreprocessConfig",
    "SentimentScore",
    "aggregate_daily",
    "parse_lexicon",
    "parse_stopwords",
    "preprocess_text",
    "score_text",
    "token_valences",
]
