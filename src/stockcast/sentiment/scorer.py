"""Lexicon-based sentiment intensity scoring.

Rule set:

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

A whole batch of texts is scored at once. Everything a rule reads of a
token's string (its punctuation-stripped, lowercased form, its case, its
row in the lexicon's merged table) is worked out once per distinct string.
Only the lexicon tokens of the batch are scored, by array passes over all
of them together: the caps emphasis, then the look-back at distance 1, 2
and 3 in that order, each kept within its own text. Each look-back applies
the booster signed by the valence so far, then the negation, as a
token-by-token loop would; float64 `+` and `*` round as Python floats do.
Two sums keep that loop's rounding: the pos/neg masses are added in token
order by `np.bincount` (a pairwise `np.add.reduce` would round otherwise),
and S is `math.fsum` of each text's valences.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .lexicon import Lexicon
from .preprocess import Tokens

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


def _caps_shift(valence: np.ndarray) -> np.ndarray:
    """The ALL-CAPS increment, signed like the valence (negative at 0)."""
    return np.where(valence > 0, ALLCAPS_INCREMENT, -ALLCAPS_INCREMENT)


def score_tokens(tokens: Tokens, lexicon: Lexicon) -> list[SentimentScore]:
    """Score every text of a batch; total and deterministic.

    A text without tokens scores all zeros; one with tokens but no lexicon
    hits scores as fully neutral.
    """
    rules, types, ids, lengths = lexicon.rules, tokens.types, tokens.ids, tokens.lengths
    n_types, n_texts = len(types), len(lengths)

    # per distinct token; id n_types stands for "before the text starts"
    words = list(map(str.strip, types, repeat(string.punctuation)))
    for t in np.flatnonzero(np.fromiter(map(len, words), np.intp, n_types) <= 2).tolist():
        words[t] = types[t]  # emphasis marks like "!!" keep their punctuation
    lowered = list(map(str.lower, words))
    row = np.zeros(n_types + 1, np.intc)
    row[:n_types] = np.fromiter(map(rules.rows.get, lowered, repeat(0)), np.intc, n_types)
    upper = np.zeros(n_types + 1, bool)
    upper[:n_types] = np.fromiter(map(str.isupper, words), bool, n_types)
    shift_of = rules.shift[row]

    # per text: some but not all of its tokens ALL CAPS
    ends = np.cumsum(lengths)
    caps = np.bincount(np.searchsorted(ends, np.flatnonzero(upper[ids]), "right"),
                       minlength=n_texts)
    mixed = (caps > 0) & (caps < lengths)

    # per scored token, in batch order
    at = np.flatnonzero(rules.scored[row[ids]])
    text = np.searchsorted(ends, at, "right")
    position = at - (ends[text] - lengths[text])
    mixed_at = mixed[text]
    valence = rules.valence[row[ids[at]]]
    valence = np.where(upper[ids[at]] & mixed_at, valence + _caps_shift(valence), valence)
    before = [np.where(position >= back, ids[np.maximum(at - back, 0)], n_types)
              for back in range(1, len(_DISTANCE_DAMPING) + 1)]
    # the negator rule, asked of each token outside the lexicon that precedes a scored one
    preceding = np.zeros(n_types + 1, bool)
    preceding[np.concatenate(before)] = True
    candidates = np.flatnonzero(preceding[:n_types] & ~rules.lexical[row[:n_types]])
    negates = np.zeros(n_types + 1, bool)
    negates[candidates] = np.fromiter(
        map(lexicon.is_negator, map(lowered.__getitem__, candidates.tolist())),
        bool, len(candidates),
    )
    for prev, damping in zip(before, _DISTANCE_DAMPING):
        booster = shift_of[prev]
        shift = np.where(valence < 0, -booster, booster)
        caps_boost = (booster != 0) & upper[prev] & mixed_at
        shift = np.where(caps_boost, shift + _caps_shift(valence), shift)
        valence = np.where(shift != 0, valence + shift * damping, valence)
        valence = np.where(negates[prev], valence * NEGATION_SCALAR, valence)

    positive, negative = valence > 0, valence < 0
    pos_mass = np.bincount(text[positive], weights=valence[positive] + 1.0, minlength=n_texts)
    neg_mass = np.bincount(text[negative], weights=valence[negative] - 1.0, minlength=n_texts)
    neutral = lengths - np.bincount(text[positive | negative], minlength=n_texts)
    cuts = np.searchsorted(text, np.arange(n_texts + 1)).tolist()
    valences = valence.tolist()
    last = ids[np.maximum(ends - 1, 0)].tolist() if len(ids) else [0] * n_texts

    scores = []
    for k, (n, pos, neg, neu) in enumerate(
        zip(lengths.tolist(), pos_mass.tolist(), neg_mass.tolist(), neutral.tolist())
    ):
        if not n:
            scores.append(EMPTY_SCORE)
            continue
        word = types[last[k]]
        bonus = min(len(word) - len(word.rstrip("!")), MAX_EXCLAIM) * EXCLAIM_INCREMENT
        # S and the bonus added away from zero; a zero sum stays zero
        total = math.fsum(valences[cuts[k] : cuts[k + 1]])
        if total > 0:
            total += bonus
        elif total < 0:
            total -= bonus
        compound = total / math.sqrt(total * total + COMPOUND_ALPHA)
        compound = max(-1.0, min(1.0, compound))
        if pos > abs(neg):
            pos += bonus
        elif pos < abs(neg):
            neg -= bonus
        neu = float(neu)
        mass = pos + abs(neg) + neu
        scores.append(SentimentScore(
            pos=abs(pos / mass), neg=abs(neg / mass), neu=abs(neu / mass), compound=compound
        ))
    return scores


def score_text(text: str, lexicon: Lexicon) -> SentimentScore:
    """Score one text; see `score_tokens`."""
    return score_tokens(Tokens.split([text]), lexicon)[0]
