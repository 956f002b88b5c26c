"""Collapse one ticker's news columns into one sentiment record per trading day.

News published on a non-trading day (weekend, holiday) rolls FORWARD to
the next trading day: it can only influence the next session's price.
Rolling backward would leak the future into the past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from typing import AbstractSet, Iterator, Sequence

import numpy as np

from ..errors import ParseError
from ..ingest import TickerNews
from ..series import TradingDate, date_ordinals
from .lexicon import Lexicon
from .preprocess import PreprocessConfig, preprocess_texts
from .scorer import NEUTRAL_SCORE, SentimentScore, score_tokens

HEADLINE_JOINER = ". "
UNSCORED = SentimentScore(math.nan, math.nan, math.nan, math.nan)


@dataclass(frozen=True)
class DailySentiment:
    """Scores for one ticker on one trading day."""

    date: TradingDate
    ticker: str
    score: SentimentScore
    headline_count: int

    def __post_init__(self) -> None:
        if self.headline_count < 0:
            raise ValueError("headline_count must be >= 0")
        if self.headline_count == 0 and self.score != NEUTRAL_SCORE:
            raise ValueError("days without news must carry the neutral default score")


def aggregate_daily(
    news: TickerNews,
    calendar: Sequence[TradingDate],
    ticker: str,
    lexicon: Lexicon,
    stopwords: frozenset[str],
    config: PreprocessConfig = PreprocessConfig(),
    per_headline_average: bool = False,
    days: AbstractSet[TradingDate] | None = None,
) -> list[DailySentiment]:
    """One record per calendar date for `ticker`, from its news columns.

    A headline counts on the first calendar date on or after its own; the
    first in file order dated after the last is a ParseError naming its
    file line. Headlines sharing that effective date are joined with ". "
    in file order, preprocessed once, and scored once; the texts of all days
    are scored in one batch. `per_headline_average` instead scores each
    preprocessed headline as a text of its own and averages the four
    components in file order; it is an offered alternative, not the default,
    because a day's sentiment is defined as the sentiment of the day's
    combined news.

    With `days`, only those calendar dates are scored. Any other date with
    news gets UNSCORED, which is NaN, so a model that reads it fails instead
    of seeing a made-up score. Every headline is still rolled forward and
    checked, and every date still gets its record and headline count, but
    only the scored days' headlines are gathered and joined.
    """
    ordinals = date_ordinals(calendar)
    day_of = np.searchsorted(ordinals, news.ordinals)  # side="left": on or after
    late = np.flatnonzero(day_of == len(calendar))
    if late.size:
        k = late[0]
        raise ParseError(int(news.lines[k]), "Date", f"{ticker}: news dated "
                         f"{date.fromordinal(int(news.ordinals[k]))} falls after the last "
                         "trading day of the calendar")
    counts = np.bincount(day_of, minlength=len(calendar))
    has_news = counts > 0
    scores = list(map((NEUTRAL_SCORE, UNSCORED).__getitem__, has_news.tolist()))
    picked = has_news  # the days scored below
    if days is not None:
        picked = has_news & np.isin(ordinals, date_ordinals(list(days)))
    rows = np.flatnonzero(picked[day_of])
    rows = rows[np.argsort(day_of[rows], kind="stable")]  # by day, in file order within one
    in_day_order = [news.headlines[k] for k in rows.tolist()]
    ends = np.cumsum(counts[picked]).tolist()
    day_headlines = [in_day_order[start:end] for start, end in zip([0, *ends], ends)]

    def texts() -> Iterator[str]:
        # one at a time: the batch keeps only the token ids of a text
        for headlines in day_headlines:
            if per_headline_average:
                yield from headlines
            else:
                yield HEADLINE_JOINER.join(headlines)

    scored = iter(score_tokens(preprocess_texts(texts(), config, lexicon, stopwords), lexicon))
    for i, headlines in zip(np.flatnonzero(picked).tolist(), day_headlines):
        if per_headline_average:
            day_scores = [next(scored) for _ in headlines]
            n = len(day_scores)
            scores[i] = SentimentScore(
                pos=sum(s.pos for s in day_scores) / n,
                neg=sum(s.neg for s in day_scores) / n,
                neu=sum(s.neu for s in day_scores) / n,
                compound=sum(s.compound for s in day_scores) / n,
            )
        else:
            scores[i] = next(scored)
    return list(map(DailySentiment, calendar, repeat(ticker), scores, counts.tolist()))
