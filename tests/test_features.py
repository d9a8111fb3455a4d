import math
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parley.features import (
    Lexicon,
    build_tfidf,
    cosine_similarity,
    count_lexicon,
    extract_features,
    feature_rows,
    load_default_lexicons,
    score_mimicry,
    score_positivity,
    tokenize,
)
from parley.session import Transcript, Utterance

from conftest import make_transcript


def two_sided(texts, scenario_id="chair"):
    roles = ["seller" if i % 2 == 0 else "buyer" for i in range(len(texts))]
    return make_transcript(
        scenario_id,
        {"seller": "s1", "buyer": "b1"},
        texts,
        roles=roles,
        termination="cap_reached",
    )


# ---------------------------------------------------------------------------
# TF-IDF


def test_single_utterance_vector_nonzero():
    result = build_tfidf(["hello negotiation world"])
    assert result.vectors[0]
    assert not result.all_empty


def test_identical_utterances_identical_vectors():
    result = build_tfidf(["same words here", "same words here"])
    assert result.vectors[0] == result.vectors[1]


def test_smoothed_idf_formula_at_n2():
    # a term in both of 2 documents: idf = ln((1+2)/(1+2)) + 1 = 1, weight = tf
    result = build_tfidf(["price price offer", "price deal"])
    assert result.vectors[0]["price"] == pytest.approx(2.0)
    assert result.vectors[1]["price"] == pytest.approx(1.0)
    # a term in one of 2: idf = ln(3/2) + 1
    assert result.vectors[1]["deal"] == pytest.approx(math.log(3 / 2) + 1)


def test_all_empty_utterances_flagged():
    result = build_tfidf(["", "  "])
    assert result.all_empty
    assert result.vectors == [{}, {}]


def test_tokenize_strips_punctuation_and_case():
    assert tokenize("Hello, World! It's $3,100.") == ["hello", "world", "its", "3100"]


# ---------------------------------------------------------------------------
# Mimicry


def test_mirror_mimicry_is_one():
    transcript = two_sided(["the exact same words", "the exact same words"])
    assert score_mimicry(transcript, "buyer") == pytest.approx(1.0, abs=1e-9)


def test_disjoint_vocabulary_mimicry_zero():
    transcript = two_sided(["alpha beta gamma", "delta epsilon zeta"])
    assert score_mimicry(transcript, "buyer") == 0.0


def test_opener_without_replies_is_missing():
    transcript = two_sided(["only the seller speaks"])
    assert score_mimicry(transcript, "seller") is None


def test_mimicry_is_directional(feature_transcript):
    seller = score_mimicry(feature_transcript, "seller")
    buyer = score_mimicry(feature_transcript, "buyer")
    assert seller != buyer


# A fixed 12-utterance conversation whose summed similarities differ in the
# last bit when the dot product follows set (string-hash) order.
_HASH_SEED_PROBE = """
from parley.features import build_tfidf, cosine_similarity
texts = [
    "I can offer the chair for 150 dollars, it is in great condition and barely used.",
    "That seems high to me; would you take 90 dollars for the chair today?",
    "I could come down to 140 dollars, but the chair is worth more than that.",
    "Maybe we can meet in the middle; how about 110 dollars and I pick it up today?",
    "I appreciate the offer, I think 130 dollars is fair for a chair this good.",
    "Thanks, I hear you; could we settle at 120 dollars if I pay cash today?",
    "We are close; I would accept 125 dollars if you can pick it up this week.",
    "This week works for me, but 120 dollars is really the most I can spend.",
    "I understand your budget; perhaps 122 dollars and I include the cushion?",
    "The cushion is nice, thank you; 122 dollars with the cushion sounds good.",
    "Great, so we agree on 122 dollars with the cushion, pick up this week.",
    "Agreed, thank you so much, I will bring cash and pick it up this week.",
]
v = build_tfidf(texts).vectors
print(repr(sum(cosine_similarity(v[i], v[i - 1]) for i in range(1, len(v)))))
"""


def test_cosine_similarity_independent_of_string_hashing():
    import os
    import subprocess
    import sys

    import parley

    src = os.path.dirname(os.path.dirname(parley.__file__))
    outputs = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1, outputs


def test_fixture_mimicry_matches_hand_computation(feature_transcript):
    # frozen from an independent explicit-loop TF-IDF/cosine computation
    assert score_mimicry(feature_transcript, "seller") == pytest.approx(
        0.05367891345971865, abs=1e-9
    )
    assert score_mimicry(feature_transcript, "buyer") == pytest.approx(
        0.1507277566739416, abs=1e-9
    )


# ---------------------------------------------------------------------------
# Lexicon counting


def test_gratitude_example():
    lexicon = Lexicon("gratitude", ("thank you", "i appreciate"))
    transcript = two_sided(["ignored", "Thank you, I appreciate it."])
    assert count_lexicon(transcript, "buyer", lexicon) == 2.0


def test_hedge_example():
    lexicon = Lexicon("hedges", ("i think", "maybe"))
    transcript = two_sided(["I think maybe yes."])
    assert count_lexicon(transcript, "seller", lexicon) == 2.0


def test_word_boundary_blocks_substring():
    lexicon = Lexicon("fpp", ("we", "our", "us"))
    transcript = two_sided(["We should trust our plan"])
    assert count_lexicon(transcript, "seller", lexicon) == 2.0


def test_overlapping_matches_count_once_per_position():
    lexicon = Lexicon("apologies", ("i'm sorry", "sorry"))
    transcript = two_sided(["I'm sorry about that."])
    assert count_lexicon(transcript, "seller", lexicon) == 1.0


def test_self_overlapping_phrase_counts_every_position():
    # "ha ha" at 3 overlaps "ha ha" at 6; once "oh ha" takes 0-5, the scan
    # resumes at 6 and finds the second "ha ha" there
    lexicon = Lexicon("t", ("oh ha", "ha ha"))
    assert lexicon.matches("oh ha ha ha") == [(0, 5, "oh ha"), (6, 11, "ha ha")]
    # the per-phrase sweep found "ha ha" only at 3, which "oh ha" covers
    assert per_phrase_sweep(lexicon.phrases, "oh ha ha ha") == [(0, 5, "oh ha")]


def per_phrase_sweep(phrases, text):
    """The matcher the compiled pattern replaced, kept as an oracle: one
    finditer per phrase, then a sweep keeping the longest candidate at each
    leftmost free position."""
    text = text.lower()
    candidates = []
    for phrase in phrases:
        pattern = r"(?<!\w)" + re.escape(phrase) + r"(?!\w)"
        for m in re.finditer(pattern, text):
            candidates.append((m.start(), m.end(), phrase))
    candidates.sort(key=lambda c: (c[0], -(c[1] - c[0])))
    taken = []
    cursor = -1
    for start, end, phrase in candidates:
        if start > cursor:
            taken.append((start, end, phrase))
            cursor = end - 1
    return taken


BUILTIN_LEXICONS = load_default_lexicons()
# whole phrases and their words, so texts hold both complete and partial
# phrases next to each other
VOCABULARY = sorted(
    {
        piece
        for lexicon in BUILTIN_LEXICONS.values()
        for phrase in lexicon.phrases
        for piece in (phrase, *phrase.split())
    }
)
recased_word = st.tuples(
    st.sampled_from(VOCABULARY), st.sampled_from((str.lower, str.upper, str.title))
).map(lambda pair: pair[1](pair[0]))
vocabulary_text = st.lists(
    st.tuples(recased_word, st.sampled_from((" ", ", ", "'", "-", ". "))),
    max_size=30,
).map(lambda parts: "".join(word + sep for word, sep in parts))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(vocabulary_text)
def test_matches_agree_with_per_phrase_sweep_on_builtin_lexicons(text):
    for lexicon in BUILTIN_LEXICONS.values():
        assert lexicon.matches(text) == per_phrase_sweep(lexicon.phrases, text)


# ---------------------------------------------------------------------------
# Positivity


def sentiment_lexicon():
    return Lexicon(
        "sentiment",
        ("great", "terrible"),
        polarity={"great": 0.8, "terrible": -0.8},
    )


def test_no_matches_scores_zero():
    transcript = two_sided(["completely neutral statement"])
    assert score_positivity(transcript, "seller", sentiment_lexicon()) == 0.0


def test_repeated_positive_term():
    transcript = two_sided(["great great"])
    assert score_positivity(transcript, "seller", sentiment_lexicon()) == pytest.approx(0.8)


def test_mixed_terms_cancel():
    transcript = two_sided(["great terrible"])
    assert score_positivity(transcript, "seller", sentiment_lexicon()) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Full vector


def test_questions_and_message_length():
    transcript = two_sided(
        ["Shall we? What price?", "w " * 9 + "w", "ten tokens here padding out to ten words yes ok".replace("  ", " ")]
    )
    features = extract_features(transcript)
    assert features["seller"].questions == pytest.approx((2 + 0) / 2)


def test_message_length_mean():
    ten = " ".join(["word"] * 10)
    twenty = " ".join(["word"] * 20)
    transcript = two_sided([ten, "x", twenty])
    features = extract_features(transcript)
    assert features["seller"].message_length == pytest.approx(15.0)


def test_fixture_vector_matches_oracle(feature_transcript):
    """All eight features frozen from hand computation over the 6-utterance fixture."""
    features = extract_features(feature_transcript)
    seller, buyer = features["seller"], features["buyer"]

    assert seller.mimicry == pytest.approx(0.05367891345971865, abs=1e-9)
    assert buyer.mimicry == pytest.approx(0.1507277566739416, abs=1e-9)
    assert seller.hedges == pytest.approx(2 / 3)
    assert buyer.hedges == pytest.approx(1 / 3)
    assert seller.apologies == 0.0
    assert buyer.apologies == pytest.approx(1 / 3)
    assert seller.gratitude == 0.0
    assert buyer.gratitude == pytest.approx(2 / 3)
    assert seller.first_person_plural == pytest.approx(1 / 3)
    assert buyer.first_person_plural == pytest.approx(1.0)
    assert seller.message_length == pytest.approx(23 / 3)
    assert buyer.message_length == pytest.approx(25 / 3)
    assert seller.questions == 0.0
    assert buyer.questions == pytest.approx(2 / 3)
    assert seller.positivity == pytest.approx(0.45)
    assert buyer.positivity == pytest.approx(-0.8 / 3)


def test_features_invariant_under_recasing(feature_transcript):
    upper = Transcript(
        negotiation_id="up",
        scenario_id="chair",
        role_map=feature_transcript.role_map,
        utterances=[
            Utterance(
                index=u.index,
                speaker_agent_id=u.speaker_agent_id,
                role_name=u.role_name,
                text=u.text.upper(),
            )
            for u in feature_transcript.utterances
        ],
        termination="cap_reached",
        seed=0,
    )
    original = extract_features(feature_transcript)
    recased = extract_features(upper)
    for role in ("seller", "buyer"):
        assert asdict(original[role]) == pytest.approx(asdict(recased[role]))


def test_extraction_deterministic(feature_transcript):
    first = extract_features(feature_transcript)
    second = extract_features(feature_transcript)
    for role in first:
        assert asdict(first[role]) == asdict(second[role])


def test_feature_rows_keyed_like_outcome_table(feature_transcript):
    rows = feature_rows(feature_transcript)
    assert len(rows) == 2
    assert {row["role"] for row in rows} == {"seller", "buyer"}
    for row in rows:
        assert row["cluster_negotiation"] == "fixture6"
        assert row["mimicry"] != ""


def test_default_lexicons_load():
    lexicons = load_default_lexicons()
    assert set(lexicons) == {
        "hedges",
        "apologies",
        "gratitude",
        "first_person_plural",
        "sentiment",
    }
    assert lexicons["sentiment"].polarity["great"] == pytest.approx(0.8)
    assert lexicons["sentiment"].polarity["terrible"] == pytest.approx(-0.8)


def test_cosine_zero_vector_is_zero():
    assert cosine_similarity({}, {"a": 1.0}) == 0.0
