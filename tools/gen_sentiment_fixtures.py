#!/usr/bin/env python3
"""Regenerate the frozen sentiment fixtures from the reference analyzer.

Run from the repository root:

    python3 tools/gen_sentiment_fixtures.py

The corpus stays inside the supported rule subset: no contrastive "but",
no idiom phrases, no "least"/"never so" special cases, no question marks,
and at most three exclamation points, all trailing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from stockcast.sentiment import BUNDLED_LEXICON, parse_lexicon  # noqa: E402
from vader_reference import ReferenceAnalyzer  # noqa: E402

CORPUS = [
    "good",
    "markets closed flat today",
    "profits surge on strong demand",
    "not good",
    "not a good sign",
    "not such a good sign",
    "very good",
    "very very good",
    "so very extremely good",
    "slightly better results expected",
    "hardly a good outcome",
    "won't recover soon",
    "doesnt look bad",
    "massive losses and rising fear",
    "strong profit growth",
    "good!",
    "great results!!",
    "stocks crash badly!!!",
    "RALLY continues",
    "VERY good results today",
    "nothing bad happened",
    "the quarterly report was released",
    "ril q4 beats estimates !!",
    "not very good",
    "shares drop amid growing uncertainty",
    "no good news today",
    "good yet worried!",
    "regulator approved the merger and investors cheered the decision",
]


def main() -> None:
    analyzer = ReferenceAnalyzer(parse_lexicon(BUNDLED_LEXICON.read_bytes()))
    fixtures = []
    for text in CORPUS:
        scores = analyzer.polarity_scores(text)
        fixtures.append({"text": text, **scores})
    out = ROOT / "tests" / "fixtures" / "sentiment_fixtures.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fixtures)} fixtures to {out}")


if __name__ == "__main__":
    main()
