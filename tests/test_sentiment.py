import json
import math
from dataclasses import astuple
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.errors import ParseError
from stockcast.ingest import ParsedNews, TickerNews, parse_news_file
from stockcast.sentiment import (
    BUNDLED_LEXICON,
    BUNDLED_STOPWORDS,
    EMPTY_SCORE,
    NEUTRAL_SCORE,
    Lexicon,
    PreprocessConfig,
    Tokens,
    aggregate_daily,
    parse_lexicon,
    parse_stopwords,
    preprocess_text,
    preprocess_texts,
    score_text,
    score_tokens,
)
from sentiment_oracle import oracle_preprocess, oracle_score, signed_sum, token_valences
from vader_reference import ReferenceAnalyzer

FIXTURES = Path(__file__).parent / "fixtures" / "sentiment_fixtures.json"

LEXICON = parse_lexicon(BUNDLED_LEXICON.read_bytes())
STOPWORDS = parse_stopwords(BUNDLED_STOPWORDS.read_bytes())
BOTH = PreprocessConfig(remove_stopwords=True, remove_special_chars=True)


# --- preprocessing -------------------------------------------------------


def test_preprocess_strips_possessive_and_specials_keeps_bangs():
    out = preprocess_text("RIL's Q4 *beats* estimates!!", BOTH, LEXICON, STOPWORDS)
    assert out == "ril q4 beats estimates !!"


def test_preprocess_empty():
    assert preprocess_text("", BOTH, LEXICON, STOPWORDS) == ""


def test_preprocess_protects_negators_from_stopword_removal():
    config = PreprocessConfig(remove_stopwords=True, remove_special_chars=False)
    assert preprocess_text("not a good day", config, LEXICON, STOPWORDS) == "not good day"


def test_preprocess_protects_boosters():
    config = PreprocessConfig(remove_stopwords=True, remove_special_chars=False)
    # "very" and "most" sit on the stopword list but survive
    assert preprocess_text("very good and most solid", config, LEXICON, STOPWORDS) == (
        "very good most solid"
    )


# --- lexicon file format ---------------------------------------------------


def test_lexicon_parsing_comments_and_errors():
    lex = parse_lexicon("# header comment\ngood\t1.9\n\nbad\t-2.5\n")
    assert lex.valences == {"good": 1.9, "bad": -2.5}
    with pytest.raises(ParseError, match="^line 1: malformed lexicon line"):
        parse_lexicon("justoneword\n")
    with pytest.raises(ParseError, match="^line 2: lexicon token 'Upper' must be lowercase"):
        parse_lexicon("good\t1.9\nUpper\t1.0\n")  # tokens must be lowercase
    # lines end at "\n" only: a form feed neither ends one nor shifts later numbers
    with pytest.raises(ParseError, match="^line 3: could not convert string to float: 'x'$"):
        parse_lexicon(b"# a\x0cb\ngood\t1.0\nbad\tx\n")
    assert parse_stopwords(b"# a\x0cthe\nand\n") == {"and"}


def test_bundled_lexicon_excludes_modifier_vocabulary():
    # negators and boosters must not double as scored tokens
    for token in ("no", "not", "very", "never", "without"):
        assert token not in LEXICON.valences


# --- scoring -------------------------------------------------------------


def test_score_good_matches_hand_computation():
    score = score_text("good", LEXICON)
    expected = 1.9 / math.sqrt(1.9 * 1.9 + 15.0)
    assert abs(score.compound - expected) < 1e-12
    assert score.pos == 1.0 and score.neg == 0.0 and score.neu == 0.0


def test_score_empty_text_is_all_zero():
    assert score_text("", LEXICON) == EMPTY_SCORE


def test_score_negation_hand_computation():
    score = score_text("not good", LEXICON)
    s = 1.9 * -0.74
    expected = s / math.sqrt(s * s + 15.0)
    assert abs(score.compound - expected) < 1e-12


def test_no_lexicon_tokens_is_neutral():
    score = score_text("the quarterly shareholder circular", LEXICON)
    assert score == NEUTRAL_SCORE


def test_fixture_corpus_matches_frozen_reference_values():
    fixtures = json.loads(FIXTURES.read_text())
    assert len(fixtures) >= 20
    for fixture in fixtures:
        score = score_text(fixture["text"], LEXICON)
        for key in ("pos", "neg", "neu", "compound"):
            assert abs(getattr(score, key) - fixture[key]) < 1e-6, (fixture["text"], key)


def test_frozen_fixtures_match_live_reference_oracle():
    # guards against fixture rot: the frozen file must equal a fresh oracle run
    analyzer = ReferenceAnalyzer(LEXICON)
    for fixture in json.loads(FIXTURES.read_text()):
        live = analyzer.polarity_scores(fixture["text"])
        for key in ("pos", "neg", "neu", "compound"):
            assert abs(live[key] - fixture[key]) < 1e-12, fixture["text"]


WORD_POOL = [
    "good", "bad", "profit", "loss", "surge", "crash", "not", "very",
    "slightly", "shares", "market", "today", "strong", "weak", "growth",
    "decline", "nothing", "really",
]


@settings(max_examples=120, derandomize=True)
@given(words=st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=12))
def test_mass_proportions_sum_to_one(words):
    score = score_text(" ".join(words), LEXICON)
    assert abs(score.pos + score.neg + score.neu - 1.0) < 1e-9
    assert -1.0 <= score.compound <= 1.0


def valence_sum(text: str, lexicon) -> float:
    """Signed valence sum S including punctuation emphasis (pre-normalization)."""
    return signed_sum(token_valences(text, lexicon), text)[0]


@settings(max_examples=80, derandomize=True)
@given(words=st.lists(st.sampled_from(WORD_POOL), min_size=0, max_size=8))
def test_appending_positive_token_never_decreases_valence_sum(words):
    # the guarantee only holds when no negator/booster sits in the 3-token
    # window preceding the appended word
    suffix = [w.lower() for w in words[-3:]]
    if any(LEXICON.is_negator(w) or w in LEXICON.boosters for w in suffix):
        return
    text = " ".join(words)
    base = valence_sum(text, LEXICON)
    extended = valence_sum((text + " good").strip(), LEXICON)
    assert extended >= base - 1e-12


# words whose tokens hit every rule: lexicon words in all cases, boosters,
# negators and "n't" forms, stopwords, bang runs, punctuation-only tokens,
# possessives and non-ASCII letters (final sigma, dotted I, math capitals)
RULE_WORDS = [
    "good", "GOOD", "Good", "bad", "BAD", "crash", "gain", "very", "VERY", "so", "Slightly",
    "not", "NOT", "no", "never", "don't", "DON'T", "isnt", "xyzn't", "the", "a", "and", "is",
    "!", "!!", "!!!!", "?!", "...", "--", "---", "'s", "ril's", "good!!", "!!good", "q4",
    "\u03a3\u03c3", "\u03a3\u0391\u03a3", "\u0130stanbul", "\u00c9LAN", "stra\u00dfe",
    "\U0001d400\U0001d401", "hi",
]
# glue between words: none, spaces, NBSP, the \x1c separator, a newline, a sentence end
RULE_GLUE = ["", " ", "  ", "\u00a0", "\x1c", "\t\n", ". ", "!"]
LEXICON_WORDS = ["good", "bad", "crash", "gain", "very", "so", "not", "no", "don't", "dont",
                 "\u03c3\u03c3", "\u00e9lan", "stra\u00dfe", "hi", "!!", "q4"]
BOOSTER_WORDS = ["very", "so", "slightly", "good", "not", "don't", "hi"]
rule_texts = st.lists(
    st.tuples(st.sampled_from(RULE_WORDS), st.sampled_from(RULE_GLUE)), max_size=12
).map(lambda pairs: "".join(word + glue for word, glue in pairs))


def bits(score) -> bytes:
    return np.array(astuple(score)).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), texts=st.lists(rule_texts, max_size=6),
       remove_stopwords=st.booleans(), remove_special_chars=st.booleans())
def test_batch_scores_equal_the_per_token_oracle_bit_for_bit(
    data, texts, remove_stopwords, remove_special_chars
):
    # the bundled lexicon never overlaps the booster and negator lists; a drawn one may
    lexicon = data.draw(st.one_of(
        st.just(LEXICON),
        st.builds(
            Lexicon,
            st.dictionaries(st.sampled_from(LEXICON_WORDS),
                            st.sampled_from([0.0, -0.0, 1.9, -2.5, 0.733, -0.733, 3.1])),
            st.dictionaries(st.sampled_from(BOOSTER_WORDS),
                            st.sampled_from([0.0, 0.293, -0.293, 0.733, -0.733])),
        ),
    ))
    config = PreprocessConfig(remove_stopwords, remove_special_chars)
    batch = score_tokens(preprocess_texts(texts, config, lexicon, STOPWORDS), lexicon)
    raw = score_tokens(Tokens.split(texts), lexicon)
    assert len(batch) == len(raw) == len(texts)
    for text, score, raw_score in zip(texts, batch, raw):
        preprocessed = oracle_preprocess(text, config, lexicon, STOPWORDS)
        assert preprocess_text(text, config, lexicon, STOPWORDS) == preprocessed
        assert bits(score) == bits(oracle_score(preprocessed, lexicon)), (text, config)
        # unpreprocessed text keeps its case, so the ALL-CAPS rules fire
        assert bits(raw_score) == bits(oracle_score(text, lexicon)), text


def test_scoring_is_deterministic():
    text = "profits surge but-free sentence with very good results"
    assert score_text(text, LEXICON) == score_text(text, LEXICON)


# --- daily aggregation ---------------------------------------------------

CAL = [date(2021, 6, 7), date(2021, 6, 8), date(2021, 6, 9)]  # Mon..Wed


def news_file(*rows: tuple[date, str, str]) -> ParsedNews:
    """A news file of (date, ticker, headline) rows from line 2, parsed; no rows is no news."""
    if not rows:
        return ParsedNews({}, 0)
    text = "".join(f"{d.isoformat()},{ticker},{headline}\n" for d, ticker, headline in rows)
    return parse_news_file("Date,Ticker,Headline\n" + text)


def ril(*rows: tuple[date, str]) -> TickerNews:
    """RIL's columns of a file of RIL's (date, headline) rows."""
    return news_file(*((d, "RIL", headline) for d, headline in rows)).of("RIL")


def test_same_day_headlines_concatenate_into_one_record():
    items = ril((CAL[0], "profits surge"), (CAL[0], "strong growth"), (CAL[0], "very good"))
    records = aggregate_daily(items, CAL, "RIL", LEXICON, STOPWORDS)
    assert len(records) == 3
    assert records[0].headline_count == 3
    combined = preprocess_text(
        "profits surge. strong growth. very good", BOTH, LEXICON, STOPWORDS
    )
    assert records[0].score == score_text(combined, LEXICON)


def test_days_without_news_are_neutral():
    records = aggregate_daily(ril(), CAL, "RIL", LEXICON, STOPWORDS)
    assert all(r.score == NEUTRAL_SCORE and r.headline_count == 0 for r in records)
    assert [r.date for r in records] == CAL


def test_weekend_news_rolls_forward_to_monday():
    saturday = date(2021, 6, 5)
    records = aggregate_daily(ril((saturday, "profits surge")), CAL, "RIL", LEXICON, STOPWORDS)
    assert records[0].date == CAL[0]
    assert records[0].headline_count == 1


def test_news_after_calendar_end_is_an_error():
    late = "^line 5, column 'Date': RIL: news dated 2021-06-10 falls after the last trading day"
    rows = [(CAL[0], "TCS", "early"), (CAL[1], "TCS", "early"), (CAL[2], "TCS", "early"),
            (date(2021, 6, 10), "RIL", "late")]
    with pytest.raises(ParseError, match=late):
        aggregate_daily(news_file(*rows).of("RIL"), CAL, "RIL", LEXICON, STOPWORDS)


def test_other_tickers_are_ignored():
    parsed = news_file((CAL[0], "TCS", "profits surge"), (CAL[1], "RIL", "heavy losses"))
    assert parsed.of("RIL").headlines == ("heavy losses",)
    assert parsed.of("RIL").lines.tolist() == [3]
    assert parsed.of("TCS").headlines == ("profits surge",)
    assert parsed.of("TCS").lines.tolist() == [2]
    assert len(parsed.items) == 2  # the kept headlines of every ticker
    records = aggregate_daily(parsed.of("RIL"), CAL, "RIL", LEXICON, STOPWORDS)
    assert records[0].headline_count == 0


def test_headline_count_is_order_invariant():
    rows = [(CAL[0], "profits surge"), (CAL[0], "heavy losses")]
    fwd = aggregate_daily(ril(*rows), CAL, "RIL", LEXICON, STOPWORDS)
    rev = aggregate_daily(ril(*reversed(rows)), CAL, "RIL", LEXICON, STOPWORDS)
    assert fwd[0].headline_count == rev[0].headline_count == 2


def test_per_headline_average_mode():
    items = ril((CAL[0], "very good"), (CAL[0], "heavy losses"))
    records = aggregate_daily(
        items, CAL, "RIL", LEXICON, STOPWORDS, per_headline_average=True
    )
    s1 = score_text(preprocess_text("very good", BOTH, LEXICON, STOPWORDS), LEXICON)
    s2 = score_text(preprocess_text("heavy losses", BOTH, LEXICON, STOPWORDS), LEXICON)
    assert abs(records[0].score.compound - (s1.compound + s2.compound) / 2) < 1e-12


# --- scoring only some days ------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), per_headline_average=st.booleans())
def test_scoring_some_days_gives_those_days_the_full_calendars_records(data, per_headline_average):
    # three weeks of weekdays from a Monday, some of them holidays
    weekdays = [date(2021, 6, 7) + timedelta(days=i) for i in range(19) if i % 7 < 5]
    holidays = data.draw(st.sets(st.sampled_from(weekdays[:-1]), max_size=4))
    calendar = [d for d in weekdays if d not in holidays]
    offsets = st.integers(-3, (calendar[-1] - calendar[0]).days)  # from the weekend before
    headlines = st.lists(st.sampled_from(WORD_POOL), max_size=5).map(" ".join)
    tickers = st.sampled_from(["RIL", "RIL", "TCS"])
    rows = [
        (calendar[0] + timedelta(days=offset), ticker, headline)
        for ticker, offset, headline in data.draw(
            st.lists(st.tuples(tickers, offsets, headlines), max_size=25)
        )
    ]
    wanted = data.draw(st.sets(st.sampled_from(calendar)))

    def records(rows, days=None):
        return aggregate_daily(
            news_file(*rows).of("RIL"), calendar, "RIL", LEXICON, STOPWORDS,
            per_headline_average=per_headline_average, days=days,
        )

    full, some = records(rows), records(rows, wanted)
    assert [r.date for r in some] == calendar
    assert [r.headline_count for r in some] == [r.headline_count for r in full]
    for rec, ref in zip(some, full):
        if rec.date in wanted or ref.headline_count == 0:
            assert rec == ref
        else:
            assert all(math.isnan(v) for v in astuple(rec.score))

    # two late RIL headlines and a late TCS one among the rows: the earlier RIL line is named
    late_days = st.integers(1, 4).map(lambda n: calendar[-1] + timedelta(days=n))
    for ticker in ("RIL", "RIL", "TCS"):
        rows.insert(data.draw(st.integers(0, len(rows))), (data.draw(late_days), ticker, "late"))
    first = next(i for i, row in enumerate(rows) if row[1:] == ("RIL", "late"))
    named = f"line {first + 2}, column 'Date': RIL: news dated {rows[first][0]} falls after "
    with pytest.raises(ParseError) as full_error:
        records(rows)
    with pytest.raises(ParseError) as some_error:
        records(rows, wanted)
    assert str(some_error.value) == str(full_error.value)
    assert str(full_error.value).startswith(named)
