"""Lexicon-based sentiment intensity scoring.

Rule set, applied per lexicon token:

- a negator within the 3 preceding tokens multiplies valence by -0.74;
- a degree modifier within the 3 preceding tokens shifts |valence| by its
  booster value, damped by 0.95 at distance 2 and 0.90 at distance 3;
- an ALL-CAPS lexicon token (in mixed-case text) shifts |valence| by 0.733;
- up to 3 trailing `!` each add 0.292 to the signed valence sum;
- compound = S / sqrt(S^2 + 15), where S is the signed valence sum;
- pos/neg/neu are proportions of positive, negative, and neutral token
  mass (each scored token contributes |valence| + 1, neutral tokens 1).

Modifier checks only fire when the preceding token is itself outside the
lexicon, so sentiment-bearing words never double as modifiers.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

from .lexicon import Lexicon

NEGATION_SCALAR = -0.74
ALLCAPS_INCREMENT = 0.733
EXCLAIM_INCREMENT = 0.292
MAX_EXCLAIM = 3
COMPOUND_ALPHA = 15.0

# booster influence decays with distance from the scored token
_DISTANCE_DAMPING = (1.0, 0.95, 0.9)


@dataclass(frozen=True)
class SentimentScore:
    """The four-component score for one text."""

    pos: float
    neg: float
    neu: float
    compound: float


EMPTY_SCORE = SentimentScore(0.0, 0.0, 0.0, 0.0)
NEUTRAL_SCORE = SentimentScore(0.0, 0.0, 1.0, 0.0)


def tokenize(text: str) -> list[str]:
    """Whitespace split, then strip flanking punctuation from word tokens.

    Tokens that would shrink to 2 characters or fewer keep their
    punctuation (they are emphasis marks like `!!`, not words).
    """
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


def _signed_sum(valences: list[float], text: str) -> tuple[float, float]:
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


def score_text(text: str, lexicon: Lexicon) -> SentimentScore:
    """Score one text; total and deterministic.

    Empty (tokenless) text scores all zeros; text with tokens but no
    lexicon hits scores as fully neutral.
    """
    valences = token_valences(text, lexicon)
    if not valences:
        return EMPTY_SCORE

    total, bonus = _signed_sum(valences, text)
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
