"""Headline text normalization ahead of sentiment scoring.

Exclamation marks carry emphasis for the scorer, so special-character
removal keeps them but detaches them into standalone tokens. Negators and
degree modifiers are exempt from stopword removal: dropping "not" would
silently invert the meaning the scorer is supposed to capture.

A batch of texts becomes one `Tokens`: each distinct token string is
stored once, and every text is a run of ids into them, so the rules that
depend only on a token's string run once per distinct string.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from itertools import count
from typing import Iterable

import numpy as np

from .lexicon import Lexicon

_POSSESSIVE_RE = re.compile(r"'s\b")
_SPECIAL_RE = re.compile(r"[^a-z0-9!\s]+")
_BANG_RUN_RE = re.compile(r"(!+)")


@dataclass(frozen=True)
class PreprocessConfig:
    remove_stopwords: bool = True
    remove_special_chars: bool = True


@dataclass(frozen=True)
class Tokens:
    """The whitespace tokens of a batch of texts, as ids of their distinct strings."""

    types: list[str]  # the distinct token strings, indexed by id
    ids: np.ndarray  # intc: the token ids of every text, text after text
    lengths: np.ndarray  # intc: tokens per text

    @classmethod
    def split(cls, texts: Iterable[str]) -> Tokens:
        """Split each text at whitespace, as `str.split()` does."""
        # a token seen for the first time maps to its own index in the batch;
        # ranking those first indices numbers the distinct tokens in order
        first: dict[str, int] = {}
        positions, lengths = array("i"), array("i")
        index = count()
        for text in texts:
            before = len(positions)
            positions.extend(map(first.setdefault, text.split(), index))
            lengths.append(len(positions) - before)
        rank = np.empty(len(positions), np.intc)
        rank[np.fromiter(first.values(), np.intc, len(first))] = np.arange(len(first))
        return cls(list(first), rank[np.frombuffer(positions, np.intc)],
                   np.frombuffer(lengths, np.intc))

    def keep(self, kept: np.ndarray) -> Tokens:
        """The tokens whose id is marked in the per-id mask `kept`, in order."""
        mask = kept[self.ids]
        text_of = np.repeat(np.arange(len(self.lengths), dtype=np.intc), self.lengths)
        lengths = np.bincount(text_of[mask], minlength=len(self.lengths)).astype(np.intc)
        return Tokens(self.types, self.ids[mask], lengths)


def _normalize(raw: str, config: PreprocessConfig) -> str:
    text = raw.lower()
    if config.remove_special_chars:
        text = _POSSESSIVE_RE.sub("", text)
        text = _BANG_RUN_RE.sub(r" \1 ", text)
        # delete rather than blank out, so contractions keep their negating
        # shape ("doesn't" -> "doesnt", not "doesn t")
        text = _SPECIAL_RE.sub("", text)
    return text


def preprocess_texts(
    texts: Iterable[str],
    config: PreprocessConfig,
    lexicon: Lexicon,
    stopwords: frozenset[str],
) -> Tokens:
    """Lowercase, strip special characters and drop stopwords, for each text.

    Total function: any text yields a (possibly empty) run of tokens.
    """
    tokens = Tokens.split(_normalize(raw, config) for raw in texts)
    if not config.remove_stopwords:
        return tokens
    dropped = np.fromiter(map(stopwords.__contains__, tokens.types), bool, len(tokens.types))
    for i in np.flatnonzero(dropped).tolist():
        dropped[i] = not lexicon.protected_from_stopwords(tokens.types[i])
    return tokens.keep(~dropped) if dropped.any() else tokens


def preprocess_text(
    raw: str,
    config: PreprocessConfig,
    lexicon: Lexicon,
    stopwords: frozenset[str],
) -> str:
    """One text's kept tokens joined by single spaces; see `preprocess_texts`."""
    tokens = preprocess_texts([raw], config, lexicon, stopwords)
    return " ".join(map(tokens.types.__getitem__, tokens.ids.tolist()))
