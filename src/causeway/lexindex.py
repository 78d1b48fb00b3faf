"""Lexical scoring layer: capitalization-based entity detection,
a BM25+ scorer with entity boosting, and document-to-document similarity."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .corpus import tokenize
from .params import Bm25Params

# Small fixed list of English function words; deliberately not a full NLP
# stopword inventory.
STOPWORDS = frozenset(
    """
    a about after also an and are as at be been but by for from had has have
    he her his i if in into is it its not of on or our s she that the their
    they this to was we were when which who will with you
    """.split()
)

# terms per document profile in `lexical_similarity`
PROFILE_SIZE = 20

_LEAD_TRIM = "\"'“”‘’([{<«"
_TAIL_TRIM = "\"'“”‘’)]}>»"
# a sentence end: punctuation, closing quotes or brackets, then whitespace;
# the group captures the word that follows (str.split and re agree on what
# whitespace is)
_AFTER_SENTENCE_END = re.compile("[.!?…][" + re.escape(_TAIL_TRIM) + r"]*\s+(?=(\S+))")


class LexIndexError(KeyError):
    """Raised when a document id is not present in the index."""


def extract_entities(texts: Iterable[str]) -> frozenset[str]:
    """Terms that appear capitalized in a non-sentence-initial position at
    least once, excluding STOPWORDS.

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
                if tokens and tokens[0] not in STOPWORDS:
                    entities.add(tokens[0])
    return frozenset(entities)


@dataclass
class LexIndex:
    """Immutable token statistics over one document collection, with every
    vocabulary term's idf computed once, when the index is built."""

    doc_ids: tuple[str, ...]
    term_freqs: dict[str, Mapping[str, int]]
    doc_lens: dict[str, int]
    doc_freq: Counter
    n_docs: int
    avgdl: float
    idfs: dict[str, float]

    @classmethod
    def build(cls, texts: Mapping[str, str]) -> "LexIndex":
        """The index of each document's text: its tokens counted, then
        `from_counts`."""
        return cls.from_counts({doc_id: Counter(tokenize(text)) for doc_id, text in texts.items()})

    @classmethod
    def from_counts(cls, term_freqs: Mapping[str, Mapping[str, int]]) -> "LexIndex":
        """The index of documents given by their term counts, documents in
        the order given. Each length is the sum of its counts, which is its
        token count, so saved term counts rebuild the index `build` made.
        Each document's counts are held as given, not copied."""
        doc_lens = {doc_id: sum(counts.values()) for doc_id, counts in term_freqs.items()}
        doc_freq = Counter(chain.from_iterable(term_freqs.values()))  # each document's terms, once each
        n = len(term_freqs)
        avgdl = sum(doc_lens.values()) / n if n else 0.0
        return cls(
            doc_ids=tuple(term_freqs),
            term_freqs=dict(term_freqs),
            doc_lens=doc_lens,
            doc_freq=doc_freq,
            n_docs=n,
            avgdl=avgdl,
            idfs={term: math.log((n - df + 0.5) / (df + 0.5) + 1.0) for term, df in doc_freq.items()},
        )

    def _check(self, doc_id: str) -> None:
        if doc_id not in self.term_freqs:
            raise LexIndexError(f"unknown document id {doc_id!r}")


def _length_norm(doc_id: str, index: LexIndex, params: Bm25Params) -> float:
    dl = index.doc_lens[doc_id]
    return params.k1 * (1.0 - params.b + (params.b * dl / index.avgdl if index.avgdl > 0 else 0.0))


def _term_weights(
    terms: Sequence[str], idfs: Mapping[str, float], params: Bm25Params, entities: AbstractSet[str]
) -> list[tuple[str, float]]:
    """(term, idf * boost) for each term the corpus knows, in order."""
    return [(t, idfs[t] * (params.entity_boost if t in entities else 1.0)) for t in terms if t in idfs]


def _bm25_rows(
    rows: Sequence[Sequence[tuple[str, float]]], doc_ids: Sequence[str], index: LexIndex, params: Bm25Params
) -> np.ndarray:
    """out[a, b] is the BM25+ sum of row a's (term, weight) pairs in
    document b, from one array pass.

    contrib[b, c] is column term c's BM25+ part in document b. A row's
    weighted parts are summed with a cumsum along the row, which adds them
    one at a time in row order, so each sum is the float that a loop adding
    them to 0.0 in that order gives."""
    for doc_id in doc_ids:
        index._check(doc_id)
    size = max(map(len, rows), default=0)
    if size == 0 or not doc_ids:
        return np.zeros((len(rows), len(doc_ids)))
    # shorter rows are padded with weight 0 on column 0; those parts are
    # ±0.0, which, like cumsum starting from the first part instead of 0.0,
    # can change only the sign of a zero sum, and every caller treats -0.0
    # as 0.0
    columns: dict[str, int] = {}
    cols = np.array([[columns.setdefault(t, len(columns)) for t, _ in r] + [0] * (size - len(r)) for r in rows])
    weights = np.array([[w for _, w in r] + [0.0] * (size - len(r)) for r in rows])
    absent = [0] * len(columns)
    tf = np.array([list(map(index.term_freqs[d].get, columns, absent)) for d in doc_ids], dtype=np.float64)
    norms = np.array([_length_norm(d, index, params) for d in doc_ids])
    ratio = np.divide(tf * (params.k1 + 1.0), tf + norms[:, None], out=np.zeros_like(tf), where=tf != 0)
    contrib = ratio + params.delta
    # parts[a, k, b]: the k-th term of row a, weighted, in document b
    parts = contrib.T[cols]
    parts *= weights[:, :, None]
    return np.cumsum(parts, axis=1, out=parts)[:, -1]


def bm25_plus(
    query_terms: Sequence[str],
    doc_ids: Sequence[str],
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
) -> list[float]:
    """The query's BM25+ score in each document in turn: the sum of its
    per-term contributions, tripled (by default) for entity terms. The
    kernel's one-row case.

    Query terms outside the corpus vocabulary contribute nothing. Terms known
    to the corpus but absent from a document contribute the delta floor.
    """
    weights = _term_weights(query_terms, index.idfs, params, entities)
    return _bm25_rows([weights], doc_ids, index, params)[0].tolist()


def top_terms(doc_id: str, index: LexIndex, k: int = 20) -> list[str]:
    """The document's k strongest terms by tf*idf, ties broken by term."""
    index._check(doc_id)
    tf = index.term_freqs[doc_id]
    idf = index.idfs
    ranked = sorted((-f * idf[t], t) for t, f in tf.items())
    return [t for _, t in ranked[:k]]


def lexical_similarity(
    doc_ids: Sequence[str],
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
) -> np.ndarray:
    """Symmetrized, self-normalized BM25+ similarity of every pair of
    doc_ids, as an (n, n) matrix, before any clamp into [0, 1]; 0 where
    either self-score is not positive (for example an empty document).

    Each document's profile is its PROFILE_SIZE top terms with their BM25+
    weights, and raw[a, b] is the kernel's score of a's profile in b, so the
    diagonal holds the self-scores."""
    profiles = [_term_weights(top_terms(d, index, PROFILE_SIZE), index.idfs, params, entities) for d in doc_ids]
    raw = _bm25_rows(profiles, doc_ids, index, params)
    positive = raw.diagonal() > 0.0
    scaled = np.divide(raw, raw.diagonal()[:, None], out=np.zeros_like(raw), where=positive[:, None])
    return np.where(positive[:, None] & positive, 0.5 * (scaled + scaled.T), 0.0)
