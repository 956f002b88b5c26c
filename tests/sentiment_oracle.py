"""Sentiment oracle: the per-token preprocessing and scoring loops.

`oracle_preprocess` and `oracle_score` are the one-text, one-token-at-a-time
rules that the batched passes of `stockcast.sentiment` replaced. The tests
require the batch to equal them bit for bit.
"""

from __future__ import annotations

import math
import string

from stockcast.sentiment import EMPTY_SCORE, Lexicon, PreprocessConfig, SentimentScore
from stockcast.sentiment.preprocess import _BANG_RUN_RE, _POSSESSIVE_RE, _SPECIAL_RE
from stockcast.sentiment.scorer import (
    _DISTANCE_DAMPING,
    ALLCAPS_INCREMENT,
    COMPOUND_ALPHA,
    EXCLAIM_INCREMENT,
    MAX_EXCLAIM,
    NEGATION_SCALAR,
)


def oracle_preprocess(
    raw: str, config: PreprocessConfig, lexicon: Lexicon, stopwords: frozenset[str]
) -> str:
    """Lowercase, strip special characters, drop stopwords, collapse spaces."""
    text = raw.lower()
    if config.remove_special_chars:
        text = _POSSESSIVE_RE.sub("", text)
        text = _BANG_RUN_RE.sub(r" \1 ", text)
        text = _SPECIAL_RE.sub("", text)
    tokens = text.split()
    if config.remove_stopwords:
        tokens = [
            t for t in tokens
            if t not in stopwords or lexicon.protected_from_stopwords(t)
        ]
    return " ".join(tokens)


def tokenize(text: str) -> list[str]:
    """Whitespace split, then strip flanking punctuation from word tokens."""
    tokens = []
    for raw in text.split():
        stripped = raw.strip(string.punctuation)
        tokens.append(raw if len(stripped) <= 2 else stripped)
    return tokens


def _mixed_case(tokens: list[str]) -> bool:
    """True when some but not all tokens are ALL CAPS."""
    caps = sum(1 for t in tokens if t.isupper())
    return 0 < caps < len(tokens)


def _modifier_shift(token: str, valence: float, mixed_case: bool, lexicon: Lexicon) -> float:
    """Booster contribution of one preceding token, signed like the valence."""
    shift = lexicon.boosters.get(token.lower(), 0.0)
    if shift == 0.0:
        return 0.0
    if valence < 0:
        shift = -shift
    if token.isupper() and mixed_case:
        shift += ALLCAPS_INCREMENT if valence > 0 else -ALLCAPS_INCREMENT
    return shift


def token_valences(text: str, lexicon: Lexicon) -> list[float]:
    """Per-token valence after negation/booster/caps rules; 0 for neutral tokens."""
    tokens = tokenize(text)
    mixed = _mixed_case(tokens)
    lowered = [t.lower() for t in tokens]
    valences: list[float] = []
    for i, token in enumerate(tokens):
        low = lowered[i]
        if low in lexicon.boosters:
            valences.append(0.0)
            continue
        if low not in lexicon.valences:
            valences.append(0.0)
            continue
        valence = lexicon.valences[low]
        if token.isupper() and mixed:
            valence += ALLCAPS_INCREMENT if valence > 0 else -ALLCAPS_INCREMENT
        for back in range(len(_DISTANCE_DAMPING)):
            j = i - (back + 1)
            if j < 0 or lowered[j] in lexicon.valences:
                continue
            shift = _modifier_shift(tokens[j], valence, mixed, lexicon)
            if shift != 0.0:
                valence += shift * _DISTANCE_DAMPING[back]
            if lexicon.is_negator(lowered[j]):
                valence *= NEGATION_SCALAR
        valences.append(valence)
    return valences


def _trailing_exclaim_bonus(text: str) -> float:
    count = 0
    for ch in reversed(text.rstrip()):
        if ch == "!":
            count += 1
        else:
            break
    return min(count, MAX_EXCLAIM) * EXCLAIM_INCREMENT


def signed_sum(valences: list[float], text: str) -> tuple[float, float]:
    """Signed valence sum S of a text's token valences, and its `!` bonus.

    The bonus is added away from zero; a zero sum stays zero.
    """
    total = math.fsum(valences)
    bonus = _trailing_exclaim_bonus(text)
    if total > 0:
        total += bonus
    elif total < 0:
        total -= bonus
    return total, bonus


def oracle_score(text: str, lexicon: Lexicon) -> SentimentScore:
    """Score one text, one token at a time."""
    valences = token_valences(text, lexicon)
    if not valences:
        return EMPTY_SCORE

    total, bonus = signed_sum(valences, text)
    compound = total / math.sqrt(total * total + COMPOUND_ALPHA)
    compound = max(-1.0, min(1.0, compound))

    pos_mass = 0.0
    neg_mass = 0.0
    neu_mass = 0.0
    for v in valences:
        if v > 0:
            pos_mass += v + 1.0
        elif v < 0:
            neg_mass += v - 1.0
        else:
            neu_mass += 1.0
    if pos_mass > abs(neg_mass):
        pos_mass += bonus
    elif pos_mass < abs(neg_mass):
        neg_mass -= bonus
    mass = pos_mass + abs(neg_mass) + neu_mass
    return SentimentScore(
        pos=abs(pos_mass / mass),
        neg=abs(neg_mass / mass),
        neu=abs(neu_mass / mass),
        compound=compound,
    )
