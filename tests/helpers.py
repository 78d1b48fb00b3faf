"""Shared builders and independent reference implementations used by the
test suite. The reference functions deliberately avoid the package's own
index/statistics code paths so the tests stay a second opinion."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re
import sqlite3
import unicodedata
from collections import Counter
from contextlib import closing
from pathlib import Path
from typing import AbstractSet, Hashable, Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from causeway.cli import FLAGS, RunConfig
from causeway.corpus import LETTERS, DocumentRecord, QuestionRecord, document_text
from causeway.graphrag import DocGraph, HybridParams, RetrievalResult, TopicRetriever, build_graph, hybrid_weight
from causeway.lexindex import STOPWORDS, Bm25Params, LexIndex, extract_entities, lexical_similarity

NONE_TEXT = "None of the others are correct causes."


def make_question(
    qid: str = "q1",
    topic: int = 1,
    event: str = "The port closed",
    a: str = "alpha",
    b: str = "beta",
    c: str = "gamma",
    d: str = "delta",
    gold: AbstractSet[str] | None = None,
) -> QuestionRecord:
    return QuestionRecord(
        topic_id=topic,
        id=qid,
        target_event=event,
        options={"A": a, "B": b, "C": c, "D": d},
        gold=frozenset(gold) if gold is not None else None,
    )


def question_to_row(q: QuestionRecord) -> dict:
    """The questions.jsonl row that load_questions reads back as q."""
    row: dict = {"topic_id": q.topic_id, "id": q.id, "target_event": q.target_event}
    for letter in LETTERS:
        row[f"option_{letter}"] = q.options[letter]
    if q.gold is not None:
        row["golden_answer"] = ",".join(sorted(q.gold))
    return row


def cache_rows(cache_dir: Path) -> dict[bytes, object]:
    """The remote embedder's vector cache in cache_dir, stored key to stored
    value."""
    with closing(sqlite3.connect(cache_dir / "vectors.sqlite")) as db:
        return dict(db.execute("SELECT key, vector FROM vectors"))


def set_cache_values(cache_dir: Path, value: object) -> None:
    """Stores value, as it is, in every row of the vector cache in cache_dir."""
    with closing(sqlite3.connect(cache_dir / "vectors.sqlite")) as db, db:
        db.execute("UPDATE vectors SET vector = ?", (value,))


def record_texts(embedder, texts: list[str]):
    """Makes embedder append every text it embeds to texts; returns it."""
    embed_texts = embedder.embed_texts

    def recording(batch, input_type=None):
        texts.extend(batch)
        return embed_texts(batch, input_type=input_type)

    embedder.embed_texts = recording
    return embedder


def topic_retriever(
    topic_id: int, docs: Sequence[DocumentRecord], doc_vecs, graph: DocGraph | None = None
) -> TopicRetriever:
    """A retriever over docs at the default parameters, given what build-graph
    gives retrieve: the topic's entities, lexical index and graph, here the
    one passed or else the one build_graph makes."""
    bm25, params = Bm25Params(), HybridParams()
    texts = {d.id: document_text(d) for d in docs}
    entities = extract_entities(texts.values())
    index = LexIndex.build(texts)
    if graph is None:
        graph = build_graph(topic_id, docs, dict(zip(texts, doc_vecs)), index, bm25, entities, params)
    return TopicRetriever(topic_id, docs, doc_vecs, bm25, params, graph, entities, index)


# ---------------------------------------------------------------------------
# Hand-scored metric table: (prediction, gold, expected score).

METRIC_CASES = [
    ({"A"}, {"A"}, 1.0),
    ({"B"}, {"B"}, 1.0),
    ({"A", "C"}, {"A", "C"}, 1.0),
    ({"A", "B", "C", "D"}, {"A", "B", "C", "D"}, 1.0),
    ({"D"}, {"D"}, 1.0),
    ({"A"}, {"A", "B"}, 0.5),
    ({"B"}, {"A", "B", "C"}, 0.5),
    ({"A", "C"}, {"A", "B", "C"}, 0.5),
    ({"A", "B", "C"}, {"A", "B", "C", "D"}, 0.5),
    ({"C"}, {"C", "D"}, 0.5),
    ({"A", "B"}, {"A"}, 0.0),
    ({"A", "B", "C", "D"}, {"B"}, 0.0),
    ({"A", "B"}, {"B", "C"}, 0.0),
    ({"A", "D"}, {"A", "B", "C"}, 0.0),
    ({"A"}, {"B"}, 0.0),
    ({"C"}, {"A", "B"}, 0.0),
    ({"D"}, {"A", "B", "C"}, 0.0),
    (set(), {"A"}, 0.0),
    (set(), {"A", "B"}, 0.0),
    ({"B", "D"}, {"B", "C"}, 0.0),
]


# ---------------------------------------------------------------------------
# Entity extraction reference: the word-by-word scan that tracks whether
# each word starts a sentence.

_LEAD_TRIM = "\"'“”‘’([{<«"
_TAIL_TRIM = "\"'“”‘’)]}>»"
_SENTENCE_END = (".", "!", "?", "…")


def extract_entities_reference(texts: Sequence[str], stopwords: AbstractSet[str] = STOPWORDS) -> frozenset[str]:
    entities: set[str] = set()
    for text in texts:
        for line in text.splitlines():
            at_start = True
            for word in line.split():
                core = word.strip(_LEAD_TRIM + _TAIL_TRIM)
                if core:
                    if core[0].isalpha() and core[0].isupper() and not at_start:
                        tokens = re.findall(r"[^\W_]+", core.lower())
                        if tokens and tokens[0] not in stopwords:
                            entities.add(tokens[0])
                at_start = word.rstrip(_TAIL_TRIM).endswith(_SENTENCE_END)
    return frozenset(entities)


# Entity-scan input: words in several scripts and cases (stopwords, dotted
# capital I, titlecase, Greek capitals), each maybe behind opening quotes or
# brackets and before a sentence end with closing ones, or arbitrary text;
# each word is followed by ASCII or non-ASCII whitespace or by one of the
# str.splitlines boundaries, which also make empty lines.
_ENTITY_WORDS = ("Ontario", "lagos", "The", "He", "x", "İstanbul", "ǅemal", "ΣΟΦΙΑ", "Ébola", "Co_op", "U.S.", "3M")
_SPACES = (
    " ", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
    "\u2028", "\u2029", "\xa0", "\u3000", "\u2009",
)
_entity_word = st.one_of(
    st.builds(
        lambda lead, word, end: lead + word + end,
        st.text(_LEAD_TRIM, max_size=2),
        st.sampled_from(_ENTITY_WORDS),
        st.one_of(st.just(""), st.builds(str.__add__, st.sampled_from(_SENTENCE_END), st.text(_TAIL_TRIM, max_size=3))),
    ),
    st.text(max_size=3),
)
entity_texts = st.lists(
    st.lists(st.tuples(_entity_word, st.sampled_from(_SPACES)).map("".join), max_size=30).map("".join),
    max_size=4,
)


# ---------------------------------------------------------------------------
# Text normalization reference: every pass normalizes, casefolds, collapses
# whitespace with a regex and strips trailing punctuation, until a fixed point.

_WS_RE = re.compile(r"\s+")
_TRAILING_PUNCT = ".!?…"


def _normalize_pass(text: str) -> str:
    out = unicodedata.normalize("NFC", text)
    out = out.casefold()
    # casefolding can decompose characters, so recompose before comparing
    out = unicodedata.normalize("NFC", out)
    out = _WS_RE.sub(" ", out).strip()
    out = out.rstrip(_TRAILING_PUNCT).rstrip()
    return out


def normalize_text_reference(text: str) -> str:
    out = _normalize_pass(text)
    nxt = _normalize_pass(out)
    while nxt != out:
        out, nxt = nxt, _normalize_pass(nxt)
    return nxt


# Every code point for which str.isspace holds.
WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + (
    "\u2028\u2029\u202f\u205f\u3000"
)
# Normalization input: any character, or one weighted toward what the
# function treats specially: whitespace, sentence punctuation, characters
# whose casefold or composition changes their length (sharp s, dotted
# capital I, the fi ligature, combining ypogegrammeni, decomposed accents,
# the Kelvin sign) and trailing runs of punctuation and spaces.
_normalize_pieces = st.one_of(
    st.characters(),
    st.sampled_from(WHITESPACE),
    st.sampled_from(".!?…"),
    st.sampled_from(["ß", "İ", "ﬁ", "\u0345", "α\u0345", "e\u0301", "A\u030a", "\u212a", "Σ", "ǅ"]),
    st.sampled_from(["a . .", " .", "! ", "… .", "?\u3000!", ".\x85"]),
)
unicode_texts = st.lists(_normalize_pieces, max_size=30).map("".join)
ascii_texts = st.text(st.one_of(st.characters(max_codepoint=0x7F), st.sampled_from(" \t\n\x1c\x1f.!?")), max_size=60)


# ---------------------------------------------------------------------------
# BM25+ reference: direct formula evaluation over raw token lists.


def bm25_reference(
    query_terms: Sequence[str],
    doc_tokens: Mapping[str, Sequence[str]],
    doc_id: str,
    k1: float = 1.5,
    b: float = 0.75,
    delta: float = 1.0,
    entities: AbstractSet[str] = frozenset(),
    entity_boost: float = 3.0,
) -> float:
    n_docs = len(doc_tokens)
    vocabulary = set()
    for tokens in doc_tokens.values():
        vocabulary.update(tokens)
    lengths = {d: len(tokens) for d, tokens in doc_tokens.items()}
    avgdl = sum(lengths.values()) / n_docs if n_docs else 0.0
    tf = Counter(doc_tokens[doc_id])
    dl = lengths[doc_id]
    score = 0.0
    for term in query_terms:
        if term not in vocabulary:
            continue
        df = sum(1 for tokens in doc_tokens.values() if term in set(tokens))
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        boost = entity_boost if term in entities else 1.0
        f = tf.get(term, 0)
        if f:
            denom = f + k1 * (1.0 - b + b * dl / avgdl)
            part = f * (k1 + 1.0) / denom + delta
        else:
            part = delta
        score += idf * boost * part
    return score


def bm25_plus_sequential(
    query_terms: Sequence[str],
    doc_id: str,
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
) -> float:
    """BM25+ of one query in one indexed document, one term at a time in
    query order starting from 0.0, from the index's raw counts: the float
    order the package's array kernel must reproduce exactly."""
    n_docs = index.n_docs
    dl = index.doc_lens[doc_id]
    norm = params.k1 * (1.0 - params.b + (params.b * dl / index.avgdl if index.avgdl > 0 else 0.0))
    tf = index.term_freqs[doc_id]
    score = 0.0
    for term in query_terms:
        df = index.doc_freq.get(term, 0)
        if df == 0:
            continue
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        weight = idf * (params.entity_boost if term in entities else 1.0)
        f = tf.get(term, 0)
        ratio = f * (params.k1 + 1.0) / (f + norm) if f else 0.0
        score += weight * (ratio + params.delta)
    return score


# Words for random topics: mixed case so some can be entities, with
# stopwords and repeats so profiles tie and idf varies.
TOPIC_WORDS = ("dam", "Dam", "rain", "valley", "flood", "river", "the", "of", "Ontario", "Lagos", "port", "x")

# Random topics of 2-7 documents, empty documents included.
topic_texts = st.lists(st.lists(st.sampled_from(TOPIC_WORDS), max_size=12).map(" ".join), min_size=2, max_size=7)
topic_entities = st.sets(st.sampled_from(sorted({w.lower() for w in TOPIC_WORDS})))


def lexical_similarity_reference(
    a: str,
    b: str,
    doc_tokens: Mapping[str, Sequence[str]],
    entities: AbstractSet[str] = frozenset(),
    profile_size: int = 20,
    params: Bm25Params = Bm25Params(),
) -> float:
    """Pair similarity the per-pair way: both top-term profiles and both
    self-scores recomputed for this pair, scored by the direct formula."""
    n_docs = len(doc_tokens)

    def idf(term: str) -> float:
        df = sum(1 for tokens in doc_tokens.values() if term in tokens)
        return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def profile(doc_id: str) -> list[str]:
        tf = Counter(doc_tokens[doc_id])
        return sorted(tf, key=lambda t: (-tf[t] * idf(t), t))[:profile_size]

    def score(terms: Sequence[str], doc_id: str) -> float:
        return bm25_reference(
            terms, doc_tokens, doc_id, params.k1, params.b, params.delta, entities, params.entity_boost
        )

    profile_a, profile_b = profile(a), profile(b)
    self_a, self_b = score(profile_a, a), score(profile_b, b)
    if self_a <= 0.0 or self_b <= 0.0:
        return 0.0
    sim = 0.5 * (score(profile_a, b) / self_a + score(profile_b, a) / self_b)
    return min(1.0, max(0.0, sim))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of two vectors by the two-vector formula; 0.0 when either is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def pair_similarity(
    a: str,
    b: str,
    index: LexIndex,
    params: Bm25Params = Bm25Params(),
    entities: AbstractSet[str] = frozenset(),
) -> float:
    """`lexical_similarity`'s entry for the pair (a, b), clamped into [0, 1]
    as the graph build clamps it."""
    sim = float(lexical_similarity([a, b], index, params, entities)[0, 1])
    return min(1.0, max(0.0, sim))


def graph_edges_reference(
    doc_tokens: Mapping[str, Sequence[str]],
    embeddings: Mapping[str, np.ndarray],
    entities: AbstractSet[str],
    alpha: float,
    edge_threshold: float,
    params: Bm25Params = Bm25Params(),
) -> list[tuple[str, str, float]]:
    """All-pairs hybrid edges, every pair scored from scratch."""
    ids = list(doc_tokens)
    edges = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            sem = min(1.0, max(0.0, cosine(embeddings[a], embeddings[b])))
            lex = lexical_similarity_reference(a, b, doc_tokens, entities, params=params)
            w = hybrid_weight(sem, lex, alpha)
            if w >= edge_threshold:
                edges.append((a, b, w))
    return edges


# ---------------------------------------------------------------------------
# Mock embedding reference: one hash per trigram occurrence, one row added
# per bucket.


def mock_embed_reference(text: str, dim: int, seed: int) -> np.ndarray:
    def row(bucket: int) -> np.ndarray:
        return np.random.default_rng([seed, bucket]).standard_normal(dim)

    grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
    counts: Counter = Counter()
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        counts[int.from_bytes(digest, "big") % 4096] += 1
    vec = np.zeros(dim, dtype=np.float64)
    for bucket, count in counts.items():
        vec += count * row(bucket)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec = row(0)
        norm = float(np.linalg.norm(vec))
    return vec / norm


# ---------------------------------------------------------------------------
# Connected-component reference for retrieval: union-find over kept edges.


class DisjointSet:
    def __init__(self, items: Sequence[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def component_reference(
    nodes: Sequence[str],
    edges: Sequence[tuple[str, str, float]],
    entries: Sequence[str],
    threshold: float,
) -> set[str]:
    ds = DisjointSet(nodes)
    for a, b, w in edges:
        if w >= threshold:
            ds.union(a, b)
    roots = {ds.find(e) for e in entries}
    return {n for n in nodes if ds.find(n) in roots}


def topic_union_reference(
    merged: RetrievalResult, result: RetrievalResult, nodes: Sequence[str]
) -> RetrievalResult:
    """The topic-union merge as a plain loop: merged's documents and
    provenance, then result's new documents with result's provenance, and
    excluded recomputed from the graph's nodes."""
    selected = list(merged.selected)
    provenance = dict(merged.provenance)
    for doc_id in result.selected:
        if doc_id not in provenance:
            selected.append(doc_id)
            provenance[doc_id] = result.provenance[doc_id]
    return RetrievalResult(
        topic_id=merged.topic_id,
        query_text=merged.query_text,
        selected=selected,
        provenance=provenance,
        excluded=sorted(set(nodes) - set(selected)),
    )


# ---------------------------------------------------------------------------
# Agreement references: definition-level loops.


def counted(rows: Sequence[Sequence[Hashable]]) -> list[Counter]:
    """Rows of ratings as the per-row counts fleiss_kappa and krippendorff_alpha take."""
    return [Counter(row) for row in rows]


def fleiss_reference(items: Sequence[Sequence[str]]) -> float:
    n = len(items[0])
    categories = sorted({c for row in items for c in row})
    table = [[row.count(c) for c in categories] for row in items]
    p_i = [(sum(x * x for x in counts) - n) / (n * (n - 1)) for counts in table]
    p_bar = sum(p_i) / len(items)
    totals = [sum(row[j] for row in table) for j in range(len(categories))]
    grand = len(items) * n
    p_e = sum((t / grand) ** 2 for t in totals)
    if p_e >= 1.0:
        return 1.0
    return (p_bar - p_e) / (1.0 - p_e)


def cohen_reference(a: Sequence[str], b: Sequence[str]) -> float:
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    categories = sorted(set(a) | set(b))
    p_e = sum((a.count(c) / n) * (b.count(c) / n) for c in categories)
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


@st.composite
def rating_units(draw) -> list[list[frozenset]]:
    """Units of 1-5 ratings drawn from a pool of 1-16 distinct letter sets
    (the empty set included), so values repeat often and a pool of one gives
    all-identical ratings. At least one unit has two or more ratings."""
    pool = draw(st.lists(st.frozensets(st.sampled_from(LETTERS)), min_size=1, max_size=16, unique=True))
    value = st.sampled_from(pool)
    units = draw(st.lists(st.lists(value, min_size=1, max_size=5), max_size=25))
    units.append(draw(st.lists(value, min_size=2, max_size=5)))
    return units


def krippendorff_reference(
    units: Sequence[Sequence[frozenset]],
    metric: str = "nominal",
) -> float:
    def dist(x: frozenset, y: frozenset) -> float:
        if metric == "nominal":
            return 0.0 if x == y else 1.0
        union = x | y
        if not union:
            return 0.0
        return 1.0 - len(x & y) / len(union)

    pairable = [list(u) for u in units if len(u) >= 2]
    n_values = sum(len(u) for u in pairable)
    d_o = 0.0
    for unit in pairable:
        m = len(unit)
        acc = 0.0
        for i in range(m):
            for j in range(m):
                if i != j:
                    acc += dist(unit[i], unit[j])
        d_o += acc / (m - 1)
    d_o /= n_values
    flat = [v for u in pairable for v in u]
    d_e = 0.0
    for i in range(len(flat)):
        for j in range(len(flat)):
            if i != j:
                d_e += dist(flat[i], flat[j])
    d_e /= n_values * (n_values - 1)
    if d_e == 0.0:
        return 1.0
    return 1.0 - d_o / d_e


# ---------------------------------------------------------------------------
# Random sibling groups for the consistency engine.


def random_sibling_group(
    rng: random.Random, group_index: int
) -> tuple[list[QuestionRecord], dict[str, frozenset[str]]]:
    topic = group_index
    event = f"event number {group_index}"
    pool = [f"cause {i}" for i in range(rng.randint(2, 6))]
    questions: list[QuestionRecord] = []
    preds: dict[str, frozenset[str]] = {}
    for j in range(rng.randint(1, 4)):
        options = {}
        for letter in LETTERS:
            if rng.random() < 0.2:
                options[letter] = NONE_TEXT
            else:
                options[letter] = rng.choice(pool)
        q = QuestionRecord(
            topic_id=topic,
            id=f"g{group_index}q{j}",
            target_event=event,
            options=options,
        )
        questions.append(q)
        preds[q.id] = frozenset(rng.sample(LETTERS, rng.randint(1, 4)))
    return questions, preds


# ---------------------------------------------------------------------------
# Adversarial model responses and a reference reading of their answer.


def _find_tag(text: str, tag: str, start: int) -> int:
    """The first index from start where tag (lower case) appears in text in
    any case, or -1."""
    for i in range(start, len(text) - len(tag) + 1):
        if text[i : i + len(tag)].lower() == tag:
            return i
    return -1


def reference_answer_letters(raw: str) -> frozenset[str]:
    """The letters of raw's last <answer> block, tags matched in any case and
    each block closed by the first </answer> after it opens. Empty when there
    is no block, the block holds no token, or a token split on commas,
    semicolons and whitespace is not one of the letters A-D in either case."""
    block = None
    start = _find_tag(raw, "<answer>", 0)
    while start >= 0:
        end = _find_tag(raw, "</answer>", start + len("<answer>"))
        if end < 0:
            break
        block = raw[start + len("<answer>") : end]
        start = _find_tag(raw, "<answer>", end + len("</answer>"))
    tokens = (block or "").replace(",", " ").replace(";", " ").split()
    if not tokens or any(t not in set("ABCDabcd") for t in tokens):
        return frozenset()
    return frozenset(t.upper() for t in tokens)


def _any_case(word: str):
    flips = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flips.map(lambda up: "".join(c.upper() if u else c for c, u in zip(word, up)))


_tags = st.sampled_from(["answer", "/answer", "analysis", "/analysis"]).flatmap(_any_case).map("<{}>".format)
# commas, semicolons, ASCII and Unicode whitespace; an empty one joins two tokens
_separators = st.text(",; \t\n\u00a0\u2003\u3000", max_size=3)
# non-letters and near-letters; the zero-width space is not whitespace
_strays = st.sampled_from(["E", "e", "x", "1", ".", "-", "\u00e9", "\u200b", "AB", "None", "<", ">", "</", "A."])
_letters = st.sampled_from("ABCDabcd")
_bodies = st.sampled_from([_letters, _letters | _strays]).flatmap(
    lambda tokens: st.lists(st.tuples(_separators, tokens).map("".join), max_size=5).map("".join)
)
_blocks = st.tuples(_any_case("answer"), _bodies, _separators, _any_case("/answer")).map(
    lambda parts: "<{}>{}{}<{}>".format(*parts)
)
_prose = st.text(st.sampled_from(list("abz AD,;\n\u00a0\u00e9.<>/")), max_size=8)
# an <analysis> block that may hold <answer> blocks of its own
_analyses = st.lists(st.one_of(_blocks, _prose), max_size=3).map("".join).map("<analysis>{}</analysis>".format)
# any mix of the above, and often a block last
model_responses = st.tuples(
    st.lists(st.one_of(_blocks, _analyses, _tags, _prose, _bodies), max_size=6).map("".join),
    st.one_of(st.just(""), _blocks, _blocks),
).map("".join)


# ---------------------------------------------------------------------------
# Malformed inputs: JSONL files for the loaders, config objects and flags for
# build_config.

_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# mostly the strings and numbers a well-formed file holds
_field_values = st.one_of(st.text(max_size=6), st.integers(-2, 5), st.floats(0, 1), _scalars, st.lists(_scalars, max_size=2))


def _objects(values: Mapping[str, st.SearchStrategy]) -> st.SearchStrategy[dict]:
    """Objects with some or all of the keys of values, each drawn from its
    strategy, and sometimes a key of no name here."""
    known = st.fixed_dictionaries({}, optional=dict(values)) | st.fixed_dictionaries(dict(values))
    unknown = st.dictionaries(st.text(max_size=4), _field_values, max_size=2)
    return st.tuples(unknown, known).map(lambda parts: {**parts[0], **parts[1]})


def _fields(keys: Sequence[str]) -> dict[str, st.SearchStrategy]:
    return {k: _field_values for k in keys}


_question_keys = ("topic_id", "id", "target_event", *(f"option_{l}" for l in LETTERS), "golden_answer")
_doc_keys = ("title", "id", "link", "snippet", "source", "content")
_docs_values = st.lists(_objects(_fields(_doc_keys)) | json_values, max_size=3) | json_values
_rows = st.one_of(
    _objects(_fields(_question_keys)),
    _objects(_fields(("id", "prediction"))),
    _objects({"topic_id": _field_values, "docs": _docs_values}),
    json_values,
)
_json_lines = _rows.map(json.dumps).map(str.encode)
_lines = st.one_of(_json_lines, _json_lines, _json_lines, st.binary(max_size=12))
# a JSONL file: well-formed and malformed rows, other JSON values and, in
# about one line of four, stray bytes
jsonl_bytes = st.lists(_lines, max_size=4).map(b"\n".join)

# a config file's object: RunConfig's keys and others at both levels, a
# section sometimes a scalar or a list
config_objects = _objects(
    {
        f.name: _field_values
        if f.default_factory is dataclasses.MISSING
        else _field_values | _objects(_fields([g.name for g in dataclasses.fields(f.default_factory())]))
        for f in dataclasses.fields(RunConfig)
    }
)


def _flag_args(flag: str, options: dict) -> st.SearchStrategy[list[str]]:
    if options.get("action") == "store_const":
        return st.just([flag])
    values = {int: ["0", "2", "-3"], float: ["0.5", "1.5", "nan"]}.get(options.get("type"), ["x"])
    return st.sampled_from(values).map(lambda v: [flag, v])


# command line overrides, in and out of range
flag_args = st.lists(st.one_of([_flag_args(flag, options) for flag, _, options in FLAGS]), max_size=3).map(
    lambda parts: [arg for part in parts for arg in part]
)
