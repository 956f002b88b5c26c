"""Valence lexicon, degree modifiers, and negation vocabulary.

The lexicon file is tab-separated `token<TAB>valence`, UTF-8, `#` comments
allowed. Negators and boosters are fixed vocabulary of the scoring rules and
ship as code constants rather than data files. A malformed lexicon line is a
ParseError naming its 1-based line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from ..errors import ParseError
from ..ingest import _decode

BUNDLED_LEXICON = resources.files("stockcast.sentiment") / "data" / "lexicon.txt"
BUNDLED_STOPWORDS = resources.files("stockcast.sentiment") / "data" / "stopwords.txt"

BOOSTER_INCREMENT = 0.293
BOOSTER_DECREMENT = -0.293

# degree modifiers that amplify the following sentiment token
_BOOSTERS_UP = (
    "absolutely", "amazingly", "awfully", "completely", "considerable",
    "considerably", "decidedly", "deeply", "enormous", "enormously",
    "entirely", "especially", "exceptional", "exceptionally", "extreme",
    "extremely", "fabulously", "fully", "greatly", "highly", "hugely",
    "incredible", "incredibly", "intensely", "major", "majorly", "more",
    "most", "particularly", "purely", "quite", "really", "remarkably",
    "sharply", "significantly", "so", "steeply", "substantially",
    "thoroughly", "total", "totally", "tremendous", "tremendously",
    "uber", "unbelievably", "unusually", "utter", "utterly", "very",
)

# degree modifiers that dampen the following sentiment token
_BOOSTERS_DOWN = (
    "almost", "barely", "hardly", "kinda", "kindof", "kind-of", "less",
    "little", "marginal", "marginally", "mildly", "occasional",
    "occasionally", "partly", "scarce", "scarcely", "slight", "slightly",
    "somewhat", "sorta", "sortof", "sort-of",
)

_NEGATORS = (
    "aint", "ain't", "arent", "aren't", "cannot", "cant", "can't",
    "couldnt", "couldn't", "darent", "daren't", "despite", "didnt",
    "didn't", "doesnt", "doesn't", "dont", "don't", "hadnt", "hadn't",
    "hasnt", "hasn't", "havent", "haven't", "isnt", "isn't", "mightnt",
    "mightn't", "mustnt", "mustn't", "neednt", "needn't", "neither",
    "never", "no", "none", "nope", "nor", "not", "nothing", "nowhere",
    "oughtnt", "oughtn't", "rarely", "seldom", "shant", "shan't",
    "shouldnt", "shouldn't", "uhuh", "uh-uh", "wasnt", "wasn't", "werent",
    "weren't", "without", "wont", "won't", "wouldnt", "wouldn't",
)


@dataclass(frozen=True)
class TokenRules:
    """What the scorer reads of every lexicon and booster token, one row each.

    `rows` maps a lowercase token to its row; row 0 stands for every other
    token. A lexicon token never modifies the tokens after it, and a token
    that is both a lexicon token and a booster scores 0 and modifies nothing.
    """

    rows: dict[str, int]
    scored: np.ndarray   # bool: a lexicon token that is not a booster
    valence: np.ndarray  # float64: its lexicon valence where scored, else 0
    shift: np.ndarray    # float64: its booster shift where not a lexicon token, else 0
    lexical: np.ndarray  # bool: a lexicon token


@dataclass(frozen=True)
class Lexicon:
    """Token valences plus the booster and negator vocabularies."""

    valences: dict[str, float]
    boosters: dict[str, float] = field(
        default_factory=lambda: dict(
            {w: BOOSTER_INCREMENT for w in _BOOSTERS_UP},
            **{w: BOOSTER_DECREMENT for w in _BOOSTERS_DOWN},
        )
    )
    negators: frozenset[str] = field(default_factory=lambda: frozenset(_NEGATORS))

    def __post_init__(self) -> None:
        for token, valence in self.valences.items():
            _check_entry(token, valence)

    def is_negator(self, token: str) -> bool:
        return token in self.negators or "n't" in token

    def protected_from_stopwords(self, token: str) -> bool:
        """Negators and boosters survive stopword removal."""
        return token in self.boosters or self.is_negator(token)

    @cached_property
    def rules(self) -> TokenRules:
        """The valence and booster vocabularies merged into one table, built once."""
        valences, boosters = self.valences, self.boosters
        tokens = [*valences, *(t for t in boosters if t not in valences)]
        rows = dict(zip(tokens, range(1, len(tokens) + 1)))
        lexical = np.zeros(len(tokens) + 1, bool)
        lexical[1 : len(valences) + 1] = True
        booster_rows = np.fromiter(map(rows.__getitem__, boosters), np.intp, len(boosters))
        shift = np.zeros(len(tokens) + 1)
        shift[booster_rows] = np.fromiter(boosters.values(), np.float64, len(boosters))
        shift[lexical] = 0.0
        scored = lexical.copy()
        scored[booster_rows] = False
        valence = np.zeros(len(tokens) + 1)
        valence[1 : len(valences) + 1] = np.fromiter(valences.values(), np.float64, len(valences))
        valence[~scored] = 0.0
        return TokenRules(rows, scored, valence, shift, lexical)


def _check_entry(token: str, valence: float) -> None:
    if not token or token != token.lower():
        raise ValueError(f"lexicon token {token!r} must be lowercase and non-empty")
    if not math.isfinite(valence):
        raise ValueError(f"lexicon token {token!r} has non-finite valence")


def parse_lexicon(data: bytes | str) -> Lexicon:
    valences: dict[str, float] = {}
    # lines end at "\n" only, as in the CSV inputs; str.splitlines also splits at \x0c and U+2028
    for number, raw in enumerate(_decode(data).split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ParseError(number, None, f"malformed lexicon line: {raw!r}")
        try:
            valence = float(parts[1])
            _check_entry(parts[0], valence)
        except ValueError as exc:
            raise ParseError(number, None, str(exc)) from None
        valences[parts[0]] = valence
    return Lexicon(valences=valences)


def parse_stopwords(data: bytes | str) -> frozenset[str]:
    """A one-token-per-line stopword list; `#` starts a comment line."""
    words = (line.strip() for line in _decode(data).split("\n"))
    return frozenset(w for w in words if w and not w.startswith("#"))
