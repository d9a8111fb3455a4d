import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parley.errors import SchemaError
from parley.features import (
    Lexicon,
    TfidfResult,
    build_tfidf,
    extract_features,
    feature_rows,
    load_default_lexicons,
    load_lexicon,
    score_mimicry,
    text_measures,
    tokenize,
)
from parley.session import Transcript, Utterance

from conftest import make_transcript

BUILTIN_LEXICONS = load_default_lexicons()


def two_sided(texts, scenario_id="chair"):
    roles = ["seller" if i % 2 == 0 else "buyer" for i in range(len(texts))]
    return make_transcript(
        scenario_id,
        {"seller": "s1", "buyer": "b1"},
        texts,
        roles=roles,
        termination="cap_reached",
    )


def tfidf_of(transcript):
    return build_tfidf([u.text for u in transcript.utterances])


def seat_feature(transcript, role_name, slot, lexicon):
    """The seat's feature from ``lexicon`` put in the built-in lexicons'
    ``slot`` (the sentiment lexicon's feature is positivity)."""
    features = extract_features(transcript, {**BUILTIN_LEXICONS, slot: lexicon})
    return features[role_name]["positivity" if slot == "sentiment" else slot]


# ---------------------------------------------------------------------------
# TF-IDF


def test_single_utterance_vector_nonzero():
    result = build_tfidf(["hello negotiation world"])
    assert result.vectors[0]
    assert result.norms[0] > 0


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
    assert result.vectors == [{}, {}]
    assert result.norms == [0.0, 0.0]


def test_tokenize_strips_punctuation_and_case():
    assert tokenize("Hello, World! It's $3,100.") == ["hello", "world", "its", "3100"]


# ---------------------------------------------------------------------------
# Mimicry


def test_mirror_mimicry_is_one():
    transcript = two_sided(["the exact same words", "the exact same words"])
    mimicry = score_mimicry(transcript, "buyer", tfidf_of(transcript))
    assert mimicry == pytest.approx(1.0, abs=1e-9)


def test_disjoint_vocabulary_mimicry_zero():
    transcript = two_sided(["alpha beta gamma", "delta epsilon zeta"])
    assert score_mimicry(transcript, "buyer", tfidf_of(transcript)) == 0.0


def test_opener_without_replies_is_missing():
    transcript = two_sided(["only the seller speaks"])
    assert score_mimicry(transcript, "seller", tfidf_of(transcript)) is None


def test_mimicry_is_directional(feature_transcript):
    tfidf = tfidf_of(feature_transcript)
    seller = score_mimicry(feature_transcript, "seller", tfidf)
    buyer = score_mimicry(feature_transcript, "buyer", tfidf)
    assert seller != buyer


# A fixed 12-utterance conversation whose seller mimicry score differs in the
# last bit when the dot product follows set (string-hash) order. Both seats'
# scores are printed: their sum rounds that bit away.
_HASH_SEED_PROBE = """
from parley.features import build_tfidf, score_mimicry
from parley.session import Transcript, Utterance
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
roles = ("seller", "buyer")
transcript = Transcript(
    negotiation_id="probe", scenario_id="chair", role_map=dict.fromkeys(roles, "a"),
    utterances=[Utterance(i, "a", roles[i % 2], text) for i, text in enumerate(texts)],
    termination="accepted", seed=0,
)
tfidf = build_tfidf(texts)
print([repr(score_mimicry(transcript, role, tfidf)) for role in roles])
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
    tfidf = tfidf_of(feature_transcript)
    assert score_mimicry(feature_transcript, "seller", tfidf) == pytest.approx(
        0.05367891345971865, abs=1e-9
    )
    assert score_mimicry(feature_transcript, "buyer", tfidf) == pytest.approx(
        0.1507277566739416, abs=1e-9
    )


# ---------------------------------------------------------------------------
# Lexicon counting


def test_gratitude_example():
    lexicon = Lexicon("gratitude", ("thank you", "i appreciate"))
    transcript = two_sided(["ignored", "Thank you, I appreciate it."])
    assert seat_feature(transcript, "buyer", "gratitude", lexicon) == 2.0


def test_hedge_example():
    lexicon = Lexicon("hedges", ("i think", "maybe"))
    transcript = two_sided(["I think maybe yes."])
    assert seat_feature(transcript, "seller", "hedges", lexicon) == 2.0


def test_word_boundary_blocks_substring():
    lexicon = Lexicon("fpp", ("we", "our", "us"))
    transcript = two_sided(["We should trust our plan"])
    assert seat_feature(transcript, "seller", "first_person_plural", lexicon) == 2.0


def test_overlapping_matches_count_once_per_position():
    lexicon = Lexicon("apologies", ("i'm sorry", "sorry"))
    transcript = two_sided(["I'm sorry about that."])
    assert seat_feature(transcript, "seller", "apologies", lexicon) == 1.0


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
        matches = lexicon.matches(text)
        assert matches == per_phrase_sweep(lexicon.phrases, text)
        assert lexicon.count(text.lower()) == len(matches)


@pytest.mark.parametrize(
    "phrases", [("Thank you", "thanks"), ("Thanks", "thanks")], ids=["unmatchable", "duplicate"]
)
def test_lexicon_refuses_a_phrase_that_is_not_lowercase(phrases):
    # texts are lowercased before the scan, so "Thank you" could never match
    # and ("Thanks", "thanks") would be one phrase given twice
    with pytest.raises(SchemaError, match=repr(phrases[0])):
        Lexicon("t", phrases)


# ---------------------------------------------------------------------------
# Positivity


def sentiment_lexicon():
    return Lexicon(
        "sentiment",
        ("great", "terrible"),
        polarity={"great": 0.8, "terrible": -0.8},
    )


def seller_positivity(transcript):
    return seat_feature(transcript, "seller", "sentiment", sentiment_lexicon())


def test_no_matches_scores_zero():
    assert seller_positivity(two_sided(["completely neutral statement"])) == 0.0


def test_repeated_positive_term():
    assert seller_positivity(two_sided(["great great"])) == pytest.approx(0.8)


def test_mixed_terms_cancel():
    assert seller_positivity(two_sided(["great terrible"])) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Full vector


def test_questions_and_message_length():
    transcript = two_sided(
        ["Shall we? What price?", "w " * 9 + "w", "ten tokens here padding out to ten words yes ok".replace("  ", " ")]
    )
    features = extract_features(transcript, BUILTIN_LEXICONS)
    assert features["seller"]["questions"] == pytest.approx((2 + 0) / 2)


def test_message_length_mean():
    ten = " ".join(["word"] * 10)
    twenty = " ".join(["word"] * 20)
    transcript = two_sided([ten, "x", twenty])
    features = extract_features(transcript, BUILTIN_LEXICONS)
    assert features["seller"]["message_length"] == pytest.approx(15.0)


def test_fixture_vector_matches_oracle(feature_transcript):
    """All eight features frozen from hand computation over the 6-utterance fixture."""
    features = extract_features(feature_transcript, BUILTIN_LEXICONS)
    seller, buyer = features["seller"], features["buyer"]

    assert seller["mimicry"] == pytest.approx(0.05367891345971865, abs=1e-9)
    assert buyer["mimicry"] == pytest.approx(0.1507277566739416, abs=1e-9)
    assert seller["hedges"] == pytest.approx(2 / 3)
    assert buyer["hedges"] == pytest.approx(1 / 3)
    assert seller["apologies"] == 0.0
    assert buyer["apologies"] == pytest.approx(1 / 3)
    assert seller["gratitude"] == 0.0
    assert buyer["gratitude"] == pytest.approx(2 / 3)
    assert seller["first_person_plural"] == pytest.approx(1 / 3)
    assert buyer["first_person_plural"] == pytest.approx(1.0)
    assert seller["message_length"] == pytest.approx(23 / 3)
    assert buyer["message_length"] == pytest.approx(25 / 3)
    assert seller["questions"] == 0.0
    assert buyer["questions"] == pytest.approx(2 / 3)
    assert seller["positivity"] == pytest.approx(0.45)
    assert buyer["positivity"] == pytest.approx(-0.8 / 3)


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
    original = extract_features(feature_transcript, BUILTIN_LEXICONS)
    recased = extract_features(upper, BUILTIN_LEXICONS)
    for role in ("seller", "buyer"):
        assert original[role] == pytest.approx(recased[role])


def per_utterance_tfidf(utterance_texts):
    """The TF-IDF build the per-text cache replaced, kept as an oracle:
    every utterance is tokenized and weighted on its own."""
    docs = [tokenize(text) for text in utterance_texts]
    df = Counter()
    for doc in docs:
        df.update(set(doc))
    idf = {term: math.log((1 + len(docs)) / (1 + count)) + 1.0 for term, count in df.items()}
    vectors = [{term: count * idf[term] for term, count in Counter(doc).items()} for doc in docs]
    return TfidfResult(
        vectors=vectors, norms=[math.sqrt(sum(x * x for x in v.values())) for v in vectors]
    )


def per_reply_mimicry(transcript, role_name, tfidf):
    """The mimicry the per-pair cache replaced, kept as an oracle: every
    reply of the seat is compared with the counterpart utterance before it,
    and the dot product sums in the reply's term order."""
    if not transcript.utterances:
        return None
    similarities = []
    for i in range(1, len(transcript.utterances)):
        if transcript.utterances[i].role_name != role_name:
            continue
        if transcript.utterances[i - 1].role_name == role_name:
            continue
        u, v = tfidf.vectors[i], tfidf.vectors[i - 1]
        norms = tfidf.norms[i] * tfidf.norms[i - 1]
        dot = sum(x * v[t] for t, x in u.items() if t in v)
        similarities.append(dot / norms if norms else 0.0)
    return sum(similarities) / len(similarities) if similarities else None


def per_utterance_extraction(transcript, lexicons):
    """The extraction the per-text cache replaced, kept as an oracle: every
    utterance is lowercased, scanned and counted on its own, and each seat
    mean sums its utterances' values in order."""
    lowered = [u.text.lower() for u in transcript.utterances]
    tfidf = per_utterance_tfidf(lowered) if lowered else None
    sentiment = lexicons["sentiment"]

    def mean(values):
        return sum(values) / len(values) if values else None

    features = {}
    for role_name in transcript.role_map:
        own = [u.text for u in transcript.utterances if u.role_name == role_name]
        own_lowered = [
            text for u, text in zip(transcript.utterances, lowered) if u.role_name == role_name
        ]
        per_utterance = []
        for text in own_lowered:
            matched = [
                sentiment.polarity[phrase]
                for _, _, phrase in sentiment.matches(text)
                if phrase in sentiment.polarity
            ]
            per_utterance.append(sum(matched) / len(matched) if matched else 0.0)
        features[role_name] = {
            "mimicry": per_reply_mimicry(transcript, role_name, tfidf),
            **{
                name: mean([lexicons[name].count(text) for text in own_lowered])
                for name in ("hedges", "apologies", "gratitude", "first_person_plural")
            },
            "message_length": mean([len(text.split()) for text in own]),
            "questions": mean([text.count("?") for text in own]),
            "positivity": mean(per_utterance),
        }
    return features


# a standalone "-" or "?" is a word to str.split but no token to tokenize
line_text = st.lists(
    st.tuples(recased_word, st.sampled_from((" ", ", ", "'", ". ", "? ", " - ", " ? "))),
    min_size=1,
    max_size=12,
).map(lambda parts: "".join(word + sep for word, sep in parts))
# each turns a line into one that differs from it only in case or only in
# punctuation
LINE_VARIANTS = (
    lambda text: text,
    str.lower,
    str.upper,
    str.title,
    lambda text: text + "?",
    lambda text: text.replace(",", ""),
    lambda text: text.replace(" ", " - "),
)


@st.composite
def repeating_transcripts(draw):
    """Up to 16 utterances drawn from at most four lines and their
    variants, so texts repeat exactly, in case only or in punctuation only;
    seats alternate, the seller only opens, or seats are drawn."""
    lines = draw(st.lists(line_text, min_size=1, max_size=4))
    picks = draw(
        st.lists(st.tuples(st.sampled_from(lines), st.sampled_from(LINE_VARIANTS)), max_size=16)
    )
    texts = [variant(line) for line, variant in picks]
    turns = draw(st.sampled_from(("alternate", "seller_only_opens", "drawn")))
    if turns == "alternate":
        roles = ["seller" if i % 2 == 0 else "buyer" for i in range(len(texts))]
    elif turns == "seller_only_opens":
        roles = ["seller"] + ["buyer"] * (len(texts) - 1)
    else:
        seats = st.sampled_from(("seller", "buyer"))
        roles = draw(st.lists(seats, min_size=len(texts), max_size=len(texts)))
    return make_transcript(
        "chair", {"seller": "s1", "buyer": "b1"}, texts, roles=roles, termination="cap_reached"
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(repeating_transcripts())
@example(two_sided([]))
@example(two_sided(["Thanks", "thanks", "Thanks?", "thanks", "Thanks", "thanks !"]))
def test_extraction_equals_the_per_utterance_oracle(transcript):
    # exact equality: each value comes from the same function of the same
    # text, and each mean sums the same values in the same order
    assert extract_features(transcript, BUILTIN_LEXICONS) == per_utterance_extraction(
        transcript, BUILTIN_LEXICONS
    )
    texts = [u.text for u in transcript.utterances]
    if texts:
        assert build_tfidf(texts) == per_utterance_tfidf([text.lower() for text in texts])


def test_text_measures_once_per_distinct_text():
    lexicons = {**BUILTIN_LEXICONS, "sentiment": sentiment_lexicon()}
    text = "Great, thank you - maybe we can? Terrible great!"
    # hedges, apologies, gratitude, first-person plural, words, question
    # marks, positivity
    values = (1, 0, 1, 1, 9, 1, (0.8 + -0.8 + 0.8) / 3)
    assert text_measures([text], lexicons) == {text: values}
    # a repeat shares its text's entry; a text that differs only in case or
    # punctuation has its own
    assert text_measures([text, text.lower(), text, text + "?"], lexicons) == {
        text: values,
        text.lower(): values,
        text + "?": (*values[:5], 2, values[6]),
    }


def test_extraction_deterministic(feature_transcript):
    first = extract_features(feature_transcript, BUILTIN_LEXICONS)
    second = extract_features(feature_transcript, BUILTIN_LEXICONS)
    for role in first:
        assert first[role] == second[role]


def test_feature_rows_keyed_like_outcome_table(feature_transcript):
    rows = feature_rows(feature_transcript, BUILTIN_LEXICONS)
    assert len(rows) == 2
    assert {row["role"] for row in rows} == {"seller", "buyer"}
    for row in rows:
        assert row["cluster_negotiation"] == "fixture6"
        assert row["mimicry"] != ""


def test_feature_rows_do_not_depend_on_role_map_order(feature_transcript):
    import dataclasses

    reversed_roles = dict(reversed(list(feature_transcript.role_map.items())))
    assert list(reversed_roles) != list(feature_transcript.role_map)
    copy = dataclasses.replace(feature_transcript, role_map=reversed_roles)
    rows = feature_rows(feature_transcript, BUILTIN_LEXICONS)
    assert feature_rows(copy, BUILTIN_LEXICONS) == rows


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


def test_lexicon_directory_needs_sentiment_polarity(tmp_path):
    for name in ("hedges", "apologies", "gratitude", "first_person_plural"):
        (tmp_path / f"{name}.txt").write_text("fair enough\n")
    sentiment = tmp_path / "sentiment.txt"
    sentiment.write_text("great\t0.5\nbad\t-0.5\n")
    lexicons = load_default_lexicons(tmp_path)
    assert lexicons["hedges"].phrases == ("fair enough",)
    assert lexicons["sentiment"].polarity == {"great": 0.5, "bad": -0.5}

    sentiment.write_text("great\nbad\n")
    with pytest.raises(SchemaError, match="sentiment.txt: the sentiment lexicon carries no polarity"):
        load_default_lexicons(tmp_path)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda path: path.write_text("great\tvery\n"), "polarity for 'great' is not a number"),
        (lambda path: path.unlink(), "cannot read lexicon"),
    ],
    ids=["polarity_not_a_number", "missing_file"],
)
def test_unreadable_lexicon_file_is_a_schema_error(tmp_path, damage, message):
    path = tmp_path / "sentiment.txt"
    path.write_text("great\t0.5\n")
    damage(path)
    with pytest.raises(SchemaError, match=f"sentiment.txt: {message}"):
        load_lexicon(path)


def test_cosine_zero_vector_is_zero():
    # an utterance with no tokens is a zero vector: its similarity is 0.0
    t = two_sided(["I can do 150 for the chair.", ""])
    assert score_mimicry(t, "buyer", tfidf_of(t)) == 0.0
