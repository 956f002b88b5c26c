"""Lexicon sentiment engine: preprocessing, scoring, daily aggregation."""

from .daily import DailySentiment, aggregate_daily
from .lexicon import BUNDLED_LEXICON, BUNDLED_STOPWORDS, Lexicon, parse_lexicon, parse_stopwords
from .preprocess import PreprocessConfig, Tokens, preprocess_text, preprocess_texts
from .scorer import EMPTY_SCORE, NEUTRAL_SCORE, SentimentScore, score_text, score_tokens

__all__ = [
    "BUNDLED_LEXICON",
    "BUNDLED_STOPWORDS",
    "DailySentiment",
    "EMPTY_SCORE",
    "Lexicon",
    "NEUTRAL_SCORE",
    "PreprocessConfig",
    "SentimentScore",
    "Tokens",
    "aggregate_daily",
    "parse_lexicon",
    "parse_stopwords",
    "preprocess_text",
    "preprocess_texts",
    "score_text",
    "score_tokens",
]
