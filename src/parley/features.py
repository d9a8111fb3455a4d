"""Per-agent communication features extracted from negotiation transcripts.

Eight features per role seat: verbal mimicry (TF-IDF cosine against the
counterpart's preceding utterance), hedge/apology/gratitude/first-person-
plural rates, words per utterance, question rate, and lexicon positivity.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

from .errors import SchemaError
from .session import Transcript

DEFAULT_LEXICONS = (
    "hedges",
    "apologies",
    "gratitude",
    "first_person_plural",
    "sentiment",
)

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


def load_lexicon(path: str | Path, name: str | None = None) -> Lexicon:
    """One phrase per line; '#' comments; optional tab-separated polarity."""
    path = Path(path)
    phrases: list[str] = []
    polarity: dict[str, float] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" in line:
            phrase, raw_score = line.split("\t", 1)
            phrase = phrase.strip().lower()
            score = float(raw_score)
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
    if directory is not None:
        return {
            name: load_lexicon(Path(directory) / f"{name}.txt")
            for name in DEFAULT_LEXICONS
        }
    lexicons = {}
    base = resources.files("parley.data.lexicons")
    for name in DEFAULT_LEXICONS:
        ref = base / f"{name}.txt"
        with resources.as_file(ref) as path:
            lexicons[name] = load_lexicon(path, name=name)
    return lexicons


# ---------------------------------------------------------------------------
# TF-IDF and mimicry


@dataclass
class TfidfResult:
    vectors: list[dict[str, float]]  # one per utterance, in order
    all_empty: bool


def build_tfidf(utterance_texts: list[str]) -> TfidfResult:
    """Term-weight vectors with each utterance as a document in the
    conversation: weight = tf * (ln((1+N)/(1+df)) + 1)."""
    if not utterance_texts:
        raise SchemaError("conversation has no utterances")
    docs = [tokenize(text) for text in utterance_texts]
    n_docs = len(docs)
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    idf = {
        term: math.log((1 + n_docs) / (1 + count)) + 1.0 for term, count in df.items()
    }
    vectors = []
    for doc in docs:
        tf: dict[str, int] = {}
        for term in doc:
            tf[term] = tf.get(term, 0) + 1
        vectors.append({term: count * idf[term] for term, count in tf.items()})
    return TfidfResult(vectors=vectors, all_empty=all(not d for d in docs))


def cosine_similarity(u: dict[str, float], v: dict[str, float]) -> float:
    norm_u = math.sqrt(sum(x * x for x in u.values()))
    norm_v = math.sqrt(sum(x * x for x in v.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    # summed in u's insertion order: a set's order follows string hashing,
    # which would change the last bits from one process to the next
    dot = sum(x * v[t] for t, x in u.items() if t in v)
    return dot / (norm_u * norm_v)


def score_mimicry(
    transcript: Transcript, role_name: str, tfidf: TfidfResult | None = None
) -> float | None:
    """Mean cosine similarity between each of the seat's utterances and the
    counterpart utterance immediately before it; None when the seat never
    replies (it only opened). ``tfidf`` is the conversation's
    ``build_tfidf``, built here when not given."""
    if not transcript.utterances:
        return None
    if tfidf is None:
        tfidf = build_tfidf([u.text for u in transcript.utterances])
    similarities = []
    for i, utterance in enumerate(transcript.utterances):
        if utterance.role_name != role_name or i == 0:
            continue
        prev = transcript.utterances[i - 1]
        if prev.role_name == role_name:
            continue
        similarities.append(cosine_similarity(tfidf.vectors[i], tfidf.vectors[i - 1]))
    if not similarities:
        return None
    return sum(similarities) / len(similarities)


# ---------------------------------------------------------------------------
# Lexicon rates and positivity


def count_lexicon(transcript: Transcript, role_name: str, lexicon: Lexicon) -> float | None:
    """Matches per utterance, averaged over the seat's utterances."""
    counts = [
        len(lexicon.matches(u.text))
        for u in transcript.utterances
        if u.role_name == role_name
    ]
    if not counts:
        return None
    return sum(counts) / len(counts)


def score_positivity(transcript: Transcript, role_name: str, lexicon: Lexicon) -> float | None:
    """Mean polarity of matched terms per utterance (0 when none match),
    averaged over the seat's utterances."""
    if lexicon.polarity is None:
        raise SchemaError(f"lexicon {lexicon.name!r} carries no polarity scores")
    per_utterance = []
    for utterance in transcript.utterances:
        if utterance.role_name != role_name:
            continue
        matched = [
            lexicon.polarity[phrase]
            for _, _, phrase in lexicon.matches(utterance.text)
            if phrase in lexicon.polarity
        ]
        per_utterance.append(sum(matched) / len(matched) if matched else 0.0)
    if not per_utterance:
        return None
    return sum(per_utterance) / len(per_utterance)


# ---------------------------------------------------------------------------
# Full feature vector


@dataclass
class FeatureVector:
    mimicry: float | None
    hedges: float | None
    apologies: float | None
    gratitude: float | None
    first_person_plural: float | None
    message_length: float | None
    questions: float | None
    positivity: float | None


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def extract_features(
    transcript: Transcript, lexicons: dict[str, Lexicon] | None = None
) -> dict[str, FeatureVector]:
    """All eight features for both role seats; None where undefined."""
    lexicons = lexicons or load_default_lexicons()
    texts = [u.text for u in transcript.utterances]
    # one TF-IDF build serves both seats' mimicry
    tfidf = build_tfidf(texts) if texts else None
    features = {}
    for role_name in transcript.role_map:
        own = [u.text for u in transcript.utterances if u.role_name == role_name]
        if own:
            message_length = sum(len(t.split()) for t in own) / len(own)
            questions = sum(t.count("?") for t in own) / len(own)
        else:
            message_length = None
            questions = None
        features[role_name] = FeatureVector(
            mimicry=score_mimicry(transcript, role_name, tfidf),
            hedges=count_lexicon(transcript, role_name, lexicons["hedges"]),
            apologies=count_lexicon(transcript, role_name, lexicons["apologies"]),
            gratitude=count_lexicon(transcript, role_name, lexicons["gratitude"]),
            first_person_plural=count_lexicon(
                transcript, role_name, lexicons["first_person_plural"]
            ),
            message_length=message_length,
            questions=questions,
            positivity=score_positivity(transcript, role_name, lexicons["sentiment"]),
        )
    return features


FEATURE_TABLE_COLUMNS = (
    "negotiation_id",
    "exercise",
    "agent_id",
    "counterpart_id",
    "role",
    *FEATURE_NAMES,
    "cluster_agent",
    "cluster_dyad",
    "cluster_negotiation",
)


def feature_rows(
    transcript: Transcript, lexicons: dict[str, Lexicon] | None = None
) -> list[dict]:
    """Two agent-observation rows per negotiation, keyed like the outcome
    table, in the order of ``transcript.role_map``."""
    from .scoring import observation_keys

    features = extract_features(transcript, lexicons)
    return [
        {**observation_keys(transcript, role_name), **asdict(features[role_name])}
        for role_name in transcript.role_map
    ]
