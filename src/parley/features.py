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
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
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
    conversation: weight = tf * (ln((1+N)/(1+df)) + 1)."""
    if not utterance_texts:
        raise SchemaError("conversation has no utterances")
    docs = [tokenize(text) for text in utterance_texts]
    n_docs = len(docs)
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    idf = {
        term: math.log((1 + n_docs) / (1 + count)) + 1.0 for term, count in df.items()
    }
    vectors = [
        {term: count * idf[term] for term, count in Counter(doc).items()} for doc in docs
    ]
    return TfidfResult(vectors=vectors, norms=[_norm(vector) for vector in vectors])


def _norm(u: dict[str, float]) -> float:
    return math.sqrt(sum(x * x for x in u.values()))


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
    similarities = []
    for i, utterance in enumerate(transcript.utterances):
        if utterance.role_name != role_name or i == 0:
            continue
        prev = transcript.utterances[i - 1]
        if prev.role_name == role_name:
            continue
        similarities.append(
            _cosine(tfidf.vectors[i], tfidf.norms[i], tfidf.vectors[i - 1], tfidf.norms[i - 1])
        )
    if not similarities:
        return None
    return sum(similarities) / len(similarities)


# ---------------------------------------------------------------------------
# Lexicon rates and positivity


def count_lexicon(
    transcript: Transcript, role_name: str, lexicon: Lexicon, lowered: list[str]
) -> float | None:
    """Matches per utterance, averaged over the seat's utterances.
    ``lowered`` is the utterances' texts lowercased, in order."""
    counts = [
        lexicon.count(text)
        for u, text in zip(transcript.utterances, lowered)
        if u.role_name == role_name
    ]
    if not counts:
        return None
    return sum(counts) / len(counts)


def score_positivity(
    transcript: Transcript, role_name: str, lexicon: Lexicon, lowered: list[str]
) -> float | None:
    """Mean polarity of matched terms per utterance (0 when none match),
    averaged over the seat's utterances. ``lexicon`` carries polarity scores
    (``load_default_lexicons`` refuses a sentiment file without them);
    ``lowered`` is as in ``count_lexicon``."""
    per_utterance = []
    for utterance, text in zip(transcript.utterances, lowered):
        if utterance.role_name != role_name:
            continue
        matched = [
            lexicon.polarity[phrase]
            for _, _, phrase in lexicon.matches(text)
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
    transcript: Transcript, lexicons: dict[str, Lexicon]
) -> dict[str, FeatureVector]:
    """All eight features for both role seats; None where undefined.
    ``lexicons`` is ``load_default_lexicons``'s mapping."""
    # each text is lowercased once, and that copy feeds the TF-IDF tokens and
    # all five lexicon scans; one TF-IDF build serves both seats' mimicry
    lowered = [u.text.lower() for u in transcript.utterances]
    tfidf = build_tfidf(lowered) if lowered else None
    features = {}
    for role_name in transcript.role_map:
        own = [u.text for u in transcript.utterances if u.role_name == role_name]
        if own:
            message_length = sum(len(t.split()) for t in own) / len(own)
            questions = sum(t.count("?") for t in own) / len(own)
        else:
            message_length = None
            questions = None
        rates = {
            name: count_lexicon(transcript, role_name, lexicons[name], lowered)
            for name in RATE_LEXICONS
        }
        features[role_name] = FeatureVector(
            mimicry=score_mimicry(transcript, role_name, tfidf),
            **rates,
            message_length=message_length,
            questions=questions,
            positivity=score_positivity(
                transcript, role_name, lexicons["sentiment"], lowered
            ),
        )
    return features


FEATURE_TABLE_COLUMNS = (*KEY_COLUMNS, *FEATURE_NAMES, *CLUSTER_COLUMNS)


def feature_rows(transcript: Transcript, lexicons: dict[str, Lexicon]) -> list[dict]:
    """Two agent-observation rows per negotiation, keyed like the outcome
    table, in role-name order."""
    features = extract_features(transcript, lexicons)
    return [
        {**observation_keys(transcript, role_name), **asdict(features[role_name])}
        for role_name in sorted(transcript.role_map)
    ]
