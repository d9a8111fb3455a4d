"""Per-agent communication features extracted from negotiation transcripts.

Eight features per role seat: verbal mimicry (TF-IDF cosine against the
counterpart's preceding utterance), hedge/apology/gratitude/first-person-
plural rates, words per utterance, question rate, and lexicon positivity.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path

from .errors import SchemaError
from .scoring import CLUSTER_COLUMNS, KEY_COLUMNS, observation_keys
from .session import Transcript

# the lexicons whose feature is a count of matches per utterance
RATE_LEXICONS = ("hedges", "apologies", "gratitude", "first_person_plural")
DEFAULT_LEXICONS = (*RATE_LEXICONS, "sentiment")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation characters, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass(frozen=True)
class Lexicon:
    name: str
    phrases: tuple[str, ...]
    polarity: dict[str, float] | None = None
    _pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.phrases:
            raise SchemaError(f"lexicon {self.name!r} is empty")
        for phrase in self.phrases:
            # texts are lowercased before the scan, so only a lowercase
            # phrase can ever match
            if phrase != phrase.lower():
                raise SchemaError(f"lexicon {self.name!r}: phrase {phrase!r} is not lowercase")
        if len(set(self.phrases)) != len(self.phrases):
            raise SchemaError(f"lexicon {self.name!r} has duplicate phrases")
        # an alternation takes the first alternative that fits, so with the
        # longest phrases first it takes the longest phrase at each position
        longest_first = sorted(self.phrases, key=len, reverse=True)
        alternation = "|".join(re.escape(phrase) for phrase in longest_first)
        object.__setattr__(
            self, "_pattern", re.compile(r"(?<!\w)(?:" + alternation + r")(?!\w)")
        )

    def matches(self, text: str) -> list[tuple[int, int, str]]:
        """Case-insensitive whole-word matches, leftmost-longest in one scan:
        at each position the longest phrase that fits is taken and the scan
        goes on after it, so a phrase covering a position suppresses shorter
        phrases starting inside it (one count per occurrence position)."""
        return [
            (m.start(), m.end(), m.group())
            for m in self._pattern.finditer(text.lower())
        ]

    def count(self, lowered: str) -> int:
        """``len(self.matches(lowered))`` without building the matches;
        ``lowered`` is a text the caller has already lowercased."""
        return len(self._pattern.findall(lowered))


def load_lexicon(path: str | Path, name: str | None = None) -> Lexicon:
    """One phrase per line; '#' comments; optional tab-separated polarity."""
    path = Path(path)
    phrases: list[str] = []
    polarity: dict[str, float] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read lexicon ({exc.strerror})") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" in line:
            phrase, raw_score = line.split("\t", 1)
            phrase = phrase.strip().lower()
            try:
                score = float(raw_score)
            except ValueError:
                raise SchemaError(f"{path}: polarity for {phrase!r} is not a number") from None
            if not -1.0 <= score <= 1.0:
                raise SchemaError(f"{path}: polarity for {phrase!r} outside [-1, 1]")
            polarity[phrase] = score
        else:
            phrase = line.lower()
        phrases.append(phrase)
    return Lexicon(
        name=name or path.stem,
        phrases=tuple(phrases),
        polarity=polarity or None,
    )


def load_default_lexicons(directory: str | Path | None = None) -> dict[str, Lexicon]:
    """The five lexicons, from ``directory`` or the built-in set; a
    ``sentiment`` lexicon without polarity scores is refused here, before
    any transcript is scored against it."""
    base = resources.files("parley.data.lexicons") if directory is None else Path(directory)
    lexicons = {}
    for name in DEFAULT_LEXICONS:
        with resources.as_file(base / f"{name}.txt") as path:
            lexicons[name] = lexicon = load_lexicon(path, name=name)
            if name == "sentiment" and lexicon.polarity is None:
                raise SchemaError(
                    f"{path}: the sentiment lexicon carries no polarity scores "
                    "(give each phrase a tab-separated score in [-1, 1])"
                )
    return lexicons


# ---------------------------------------------------------------------------
# TF-IDF and mimicry


@dataclass
class TfidfResult:
    vectors: list[dict[str, float]]  # one per utterance, in order
    norms: list[float]  # each vector's Euclidean norm


def build_tfidf(utterance_texts: list[str]) -> TfidfResult:
    """Term-weight vectors with each utterance as a document in the
    conversation: weight = tf * (ln((1+N)/(1+df)) + 1). Each distinct text
    is tokenized and weighted once; its utterances share its vector."""
    if not utterance_texts:
        raise SchemaError("conversation has no utterances")
    counts = {text: Counter(tokenize(text)) for text in dict.fromkeys(utterance_texts)}
    n_docs = len(utterance_texts)
    # each utterance's terms once, so df counts the utterances holding a term
    df = Counter(chain.from_iterable(map(counts.__getitem__, utterance_texts)))
    idf = {
        term: math.log((1 + n_docs) / (1 + count)) + 1.0 for term, count in df.items()
    }
    vectors = {
        text: {term: count * idf[term] for term, count in tf.items()}
        for text, tf in counts.items()
    }
    norms = {text: math.sqrt(sum(x * x for x in v.values())) for text, v in vectors.items()}
    return TfidfResult(
        vectors=[vectors[text] for text in utterance_texts],
        norms=[norms[text] for text in utterance_texts],
    )


def _cosine(u: dict[str, float], norm_u: float, v: dict[str, float], norm_v: float) -> float:
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    # summed in u's insertion order: a set's order follows string hashing,
    # which would change the last bits from one process to the next
    dot = sum(x * v[t] for t, x in u.items() if t in v)
    return dot / (norm_u * norm_v)


def score_mimicry(
    transcript: Transcript, role_name: str, tfidf: TfidfResult | None
) -> float | None:
    """Mean cosine similarity between each of the seat's utterances and the
    counterpart utterance immediately before it; None when the seat never
    replies (it only opened). ``tfidf`` is the conversation's
    ``build_tfidf``, None only for a conversation without utterances."""
    if not transcript.utterances:
        return None
    # equal texts share their vector, so each (text, previous text) pair is
    # compared once; the sum still takes the seat's utterances in order
    cosines: dict[tuple[str, str], float] = {}
    similarities = []
    for i, utterance in enumerate(transcript.utterances):
        if utterance.role_name != role_name or i == 0:
            continue
        prev = transcript.utterances[i - 1]
        if prev.role_name == role_name:
            continue
        pair = (utterance.text, prev.text)
        if pair not in cosines:
            cosines[pair] = _cosine(
                tfidf.vectors[i], tfidf.norms[i], tfidf.vectors[i - 1], tfidf.norms[i - 1]
            )
        similarities.append(cosines[pair])
    if not similarities:
        return None
    return sum(similarities) / len(similarities)


# ---------------------------------------------------------------------------
# All eight features


# the features that are a seat's mean of one value per utterance, in
# ``text_measures`` order
AVERAGED = (*RATE_LEXICONS, "message_length", "questions", "positivity")
FEATURE_NAMES = ("mimicry", *AVERAGED)


def text_measures(texts: list[str], lexicons: dict[str, Lexicon]) -> dict[str, tuple]:
    """Each distinct text of ``texts`` mapped to its values of the
    ``AVERAGED`` features: the four rate-lexicon match counts, words,
    question marks, and the mean polarity of its sentiment matches (0.0 when
    none match). ``lexicons`` is ``load_default_lexicons``'s mapping."""
    distinct = list(dict.fromkeys(texts))
    lowered = [text.lower() for text in distinct]
    sentiment = lexicons["sentiment"]
    positivity = []
    for text in lowered:
        matched = [
            sentiment.polarity[phrase]
            for _, _, phrase in sentiment.matches(text)
            if phrase in sentiment.polarity
        ]
        positivity.append(sum(matched) / len(matched) if matched else 0.0)
    # one lexicon scans every text before the next lexicon starts: taking
    # each text through all five in turn was about 5 % slower on texts that
    # are all distinct
    columns = (
        *([lexicons[name].count(text) for text in lowered] for name in RATE_LEXICONS),
        [len(text.split()) for text in distinct],
        [text.count("?") for text in distinct],
        positivity,
    )
    return dict(zip(distinct, zip(*columns)))


def extract_features(
    transcript: Transcript, lexicons: dict[str, Lexicon]
) -> dict[str, dict]:
    """Each role seat's ``FEATURE_NAMES`` values, by feature name; None
    where undefined. ``lexicons`` is ``load_default_lexicons``'s mapping."""
    # scripted seats repeat their lines, so each distinct text is measured
    # once and its utterances share the result; a seat's means still sum
    # its utterances' values in order. One TF-IDF build serves both seats.
    texts = [u.text for u in transcript.utterances]
    measures = text_measures(texts, lexicons)
    tfidf = build_tfidf(texts) if texts else None
    features = {}
    for role_name in transcript.role_map:
        own = [measures[u.text] for u in transcript.utterances if u.role_name == role_name]
        means = [sum(values) / len(own) for values in zip(*own)] or [None] * len(AVERAGED)
        mimicry = score_mimicry(transcript, role_name, tfidf)
        features[role_name] = dict(zip(FEATURE_NAMES, (mimicry, *means)))
    return features


FEATURE_TABLE_COLUMNS = (*KEY_COLUMNS, *FEATURE_NAMES, *CLUSTER_COLUMNS)


def feature_rows(transcript: Transcript, lexicons: dict[str, Lexicon]) -> list[dict]:
    """The negotiation's two feature rows, with the outcome table's key and
    cluster columns. They come in sorted role-name order, which is not
    always the scenario's role order that ``score_outcome`` follows (chair:
    buyer before seller here, seller before buyer there)."""
    features = extract_features(transcript, lexicons)
    return [
        {**observation_keys(transcript, role_name), **features[role_name]}
        for role_name in sorted(transcript.role_map)
    ]
