"""Lexical scoring layer: tokenizer, capitalization-based entity detection,
a BM25+ scorer with entity boosting, and document-to-document similarity."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, Sequence

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Small fixed list of English function words; deliberately not a full NLP
# stopword inventory.
STOPWORDS = frozenset(
    """
    a about after also an and are as at be been but by for from had has have
    he her his i if in into is it its not of on or our s she that the their
    they this to was we were when which who will with you
    """.split()
)

_LEAD_TRIM = "\"'“”‘’([{<«"
_TAIL_TRIM = "\"'“”‘’)]}>»"
# a sentence end: punctuation, closing quotes or brackets, then whitespace;
# the group captures the word that follows (str.split and re agree on what
# whitespace is)
_AFTER_SENTENCE_END = re.compile("[.!?…][" + re.escape(_TAIL_TRIM) + r"]*\s+(?=(\S+))")


class LexIndexError(KeyError):
    """Raised when a document id is not present in the index."""


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75
    delta: float = 1.0
    entity_boost: float = 3.0


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens; underscores and punctuation split."""
    return _TOKEN_RE.findall(text.lower())


def extract_entities(texts: Iterable[str], stopwords: AbstractSet[str] = STOPWORDS) -> frozenset[str]:
    """Terms that appear capitalized in a non-sentence-initial position at
    least once, excluding stopwords.

    Sentence starts are the first word of each line and any word following
    sentence-ending punctuation. A word is judged by its string alone, so the
    scan only counts: a distinct word that occurs after the first of its line
    more often than it follows a sentence end has a non-initial occurrence.
    """
    after_first: Counter = Counter()
    after_end: Counter = Counter()
    for text in texts:
        for line in text.splitlines():
            after_first.update(line.split()[1:])
            after_end.update(_AFTER_SENTENCE_END.findall(line))
    entities: set[str] = set()
    for word, n in after_first.items():
        if n > after_end[word]:
            core = word.strip(_LEAD_TRIM + _TAIL_TRIM)
            if core and core[0].isalpha() and core[0].isupper():
                tokens = tokenize(core)
                if tokens and tokens[0] not in stopwords:
                    entities.add(tokens[0])
    return frozenset(entities)


@dataclass
class LexIndex:
    """Immutable token statistics over one document collection."""

    doc_ids: tuple[str, ...]
    term_freqs: dict[str, Counter]
    doc_lens: dict[str, int]
    doc_freq: Counter
    n_docs: int
    avgdl: float
    _idf: dict[str, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, texts: Mapping[str, str]) -> "LexIndex":
        term_freqs: dict[str, Counter] = {}
        doc_lens: dict[str, int] = {}
        doc_freq: Counter = Counter()
        for doc_id, text in texts.items():
            tokens = tokenize(text)
            counts = Counter(tokens)
            term_freqs[doc_id] = counts
            doc_lens[doc_id] = len(tokens)
            for term in counts:
                doc_freq[term] += 1
        n = len(term_freqs)
        avgdl = sum(doc_lens.values()) / n if n else 0.0
        return cls(
            doc_ids=tuple(texts),
            term_freqs=term_freqs,
            doc_lens=doc_lens,
            doc_freq=doc_freq,
            n_docs=n,
            avgdl=avgdl,
        )

    @property
    def vocabulary(self) -> AbstractSet[str]:
        return self.doc_freq.keys()

    def idf(self, term: str) -> float:
        """Memoised per index; terms outside the vocabulary are not stored."""
        value = self._idf.get(term)
        if value is None:
            df = self.doc_freq.get(term, 0)
            if df == 0:
                return 0.0
            value = self._idf[term] = math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
        return value

    def _check(self, doc_id: str) -> None:
        if doc_id not in self.term_freqs:
            raise LexIndexError(f"unknown document id {doc_id!r}")


def _length_norm(doc_id: str, index: LexIndex, params: Bm25Params) -> float:
    dl = index.doc_lens[doc_id]
    return params.k1 * (1.0 - params.b + (params.b * dl / index.avgdl if index.avgdl > 0 else 0.0))


def _term_weights(
    terms: Sequence[str], index: LexIndex, params: Bm25Params, entities: AbstractSet[str]
) -> list[tuple[str, float]]:
    """(term, idf * boost) for each query term the corpus knows, in order."""
    weights = []
    for term in terms:
        idf = index.idf(term)
        if idf != 0.0:
            weights.append((term, idf * (params.entity_boost if term in entities else 1.0)))
    return weights


def _weighted_bm25(
    weights: Sequence[tuple[str, float]], tf: Mapping[str, int], norm: float, params: Bm25Params
) -> float:
    """The BM25+ sum over pre-weighted query terms against one document's
    term counts and length norm, accumulated in query order."""
    gain = params.k1 + 1.0
    delta = params.delta
    score = 0.0
    for term, weight in weights:
        f = tf.get(term, 0)
        ratio = f * gain / (f + norm) if f else 0.0
        score += weight * (ratio + delta)
    return score


def bm25_plus(
    query_terms: Sequence[str],
    doc_id: str,
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
) -> float:
    """Sum of per-term BM25+ contributions, tripled (by default) for entity
    terms.

    Query terms outside the corpus vocabulary contribute nothing. Terms known
    to the corpus but absent from this document contribute the delta floor.
    """
    return bm25_plus_scores(query_terms, [doc_id], index, params, entities)[0]


def bm25_plus_scores(
    query_terms: Sequence[str],
    doc_ids: Sequence[str],
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
) -> list[float]:
    """`bm25_plus` of one query against each document in turn, with the
    query's term weights computed once."""
    weights = _term_weights(query_terms, index, params, entities)
    scores = []
    for doc_id in doc_ids:
        index._check(doc_id)
        scores.append(
            _weighted_bm25(weights, index.term_freqs[doc_id], _length_norm(doc_id, index, params), params)
        )
    return scores


def top_terms(doc_id: str, index: LexIndex, k: int = 20) -> list[str]:
    """The document's k strongest terms by tf*idf, ties broken by term."""
    index._check(doc_id)
    tf = index.term_freqs[doc_id]
    ranked = sorted(tf, key=lambda t: (-tf[t] * index.idf(t), t))
    return ranked[:k]


@dataclass(frozen=True)
class LexProfile:
    """One document's side of `lexical_similarity`: its top terms weighted
    for BM25+, its term counts and length norm, and its self-score."""

    weights: tuple[tuple[str, float], ...]
    tf: Mapping[str, int]
    norm: float
    self_score: float


def lexical_profile(
    doc_id: str,
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
    profile_size: int = 20,
) -> LexProfile:
    """Everything `profile_similarity` needs from one document, computed
    once so that a topic's all-pairs graph pays for it once per document."""
    weights = tuple(_term_weights(top_terms(doc_id, index, profile_size), index, params, entities))
    tf = index.term_freqs[doc_id]
    norm = _length_norm(doc_id, index, params)
    return LexProfile(weights, tf, norm, _weighted_bm25(weights, tf, norm, params))


def profile_similarity(a: LexProfile, b: LexProfile, params: Bm25Params = Bm25Params()) -> float:
    """`lexical_similarity` of two documents from their profiles, which
    must come from one index, entity set and params."""
    if a.self_score <= 0.0 or b.self_score <= 0.0:
        return 0.0
    raw_ab = _weighted_bm25(a.weights, b.tf, b.norm, params) / a.self_score
    raw_ba = _weighted_bm25(b.weights, a.tf, a.norm, params) / b.self_score
    sim = 0.5 * (raw_ab + raw_ba)
    return min(1.0, max(0.0, sim))


def lexical_similarity(
    a: str,
    b: str,
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
    profile_size: int = 20,
) -> float:
    """Symmetrized, self-normalized BM25+ similarity between two documents,
    clamped to [0, 1]. If either document has a zero self-score (for example
    an empty document), the pair similarity is 0."""
    profile_a = lexical_profile(a, index, params, entities, profile_size)
    profile_b = lexical_profile(b, index, params, entities, profile_size)
    return profile_similarity(profile_a, profile_b, params)
