"""Lexical scoring layer: tokenizer, capitalization-based entity detection,
a BM25+ scorer with entity boosting, and document-to-document similarity."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

import numpy as np

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
            value = self._idf[term] = _idf_value(self.n_docs, df)
        return value

    def idf_table(self) -> Mapping[str, float]:
        """Every vocabulary term's idf, all computed on the first call. The
        document-profile path reads one per (document, term), so it fills the
        table once; a query reads only its own terms through `idf`."""
        if len(self._idf) < len(self.doc_freq):
            n = self.n_docs
            self._idf.update((term, _idf_value(n, df)) for term, df in self.doc_freq.items())
        return self._idf

    def _check(self, doc_id: str) -> None:
        if doc_id not in self.term_freqs:
            raise LexIndexError(f"unknown document id {doc_id!r}")


def _idf_value(n_docs: int, df: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def _length_norm(doc_id: str, index: LexIndex, params: Bm25Params) -> float:
    dl = index.doc_lens[doc_id]
    return params.k1 * (1.0 - params.b + (params.b * dl / index.avgdl if index.avgdl > 0 else 0.0))


def _term_weights(
    terms: Sequence[str], idf_of: Callable[[str], float], params: Bm25Params, entities: AbstractSet[str]
) -> list[tuple[str, float]]:
    """(term, idf * boost) for each query term the corpus knows, in order."""
    weights = []
    for term in terms:
        idf = idf_of(term)
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
    weights = _term_weights(query_terms, index.idf, params, entities)
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
    idf = index.idf_table()
    ranked = sorted((-f * idf[t], t) for t, f in tf.items())
    return [t for _, t in ranked[:k]]


def lexical_scores(
    doc_ids: Sequence[str],
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
    profile_size: int = 20,
) -> np.ndarray:
    """`lexical_similarity` of every pair of doc_ids before its clamp into
    [0, 1], as an (n, n) matrix from one array pass; 0 where either
    self-score is not positive.

    Each document's profile is its top terms with their BM25+ weights.
    contrib[b, t] is term t's BM25+ part in document b, from the float
    operations `_weighted_bm25` makes. The weighted parts of a profile are
    summed with a cumsum along the profile, which adds them one at a time in
    profile order as `_weighted_bm25` does, so every score, and every self
    score on the diagonal, is the float the one-pair path gives."""
    n = len(doc_ids)
    idf = index.idf_table().__getitem__
    profiles = [_term_weights(top_terms(d, index, profile_size), idf, params, entities) for d in doc_ids]
    size = max(map(len, profiles), default=0)
    if size == 0:
        return np.zeros((n, n))
    # shorter profiles are padded with weight 0 on column 0; those parts are
    # ±0.0, which, like cumsum starting from the first part instead of 0.0,
    # can change only the sign of a zero sum, and the self-score test and
    # the clamp treat -0.0 as 0.0
    columns: dict[str, int] = {}
    cols = np.array([[columns.setdefault(t, len(columns)) for t, _ in p] + [0] * (size - len(p)) for p in profiles])
    weights = np.array([[w for _, w in p] + [0.0] * (size - len(p)) for p in profiles])
    absent = [0] * len(columns)
    tf = np.array([list(map(index.term_freqs[d].get, columns, absent)) for d in doc_ids], dtype=np.float64)
    norms = np.array([_length_norm(d, index, params) for d in doc_ids])
    ratio = np.divide(tf * (params.k1 + 1.0), tf + norms[:, None], out=np.zeros_like(tf), where=tf != 0)
    contrib = ratio + params.delta
    # parts[a, k, b]: the k-th term of a's profile, weighted, in document b
    parts = contrib.T[cols]
    parts *= weights[:, :, None]
    raw = np.cumsum(parts, axis=1, out=parts)[:, -1]
    positive = raw.diagonal() > 0.0
    scaled = np.divide(raw, raw.diagonal()[:, None], out=np.zeros_like(raw), where=positive[:, None])
    return np.where(positive[:, None] & positive, 0.5 * (scaled + scaled.T), 0.0)


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
    sim = float(lexical_scores([a, b], index, params, entities, profile_size)[0, 1])
    return min(1.0, max(0.0, sim))
