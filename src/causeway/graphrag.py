"""Topic document graphs: hybrid semantic/lexical edge weights, dense and
sparse entry points, component traversal and per-topic retrievers."""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import LETTERS, DocumentRecord, QuestionRecord, tokenize
from .lexindex import (
    LexIndex,
    bm25_plus,
    extract_entities,  # noqa: F401  (cli calls it as graphrag.extract_entities, which bench/layers.py traces)
    lexical_similarity,
)
from .params import Bm25Params, HybridParams

logger = logging.getLogger(__name__)

DENSE_ENTRY = "dense-entry"
SPARSE_ENTRY = "sparse-entry"
TRAVERSAL = "traversal"


class GraphError(ValueError):
    pass


def hybrid_weight(
    sim_sem: float | np.ndarray, sim_lex: float | np.ndarray, alpha: float = 0.7
) -> float | np.ndarray:
    """Convex blend of semantic and lexical similarity: of two floats, or
    elementwise of two arrays."""
    for name, value in (("sim_sem", sim_sem), ("sim_lex", sim_lex), ("alpha", alpha)):
        if not np.all((value >= 0.0) & (value <= 1.0)):
            raise GraphError(f"{name} out of range: {value}")
    return alpha * sim_sem + (1.0 - alpha) * sim_lex


@dataclass
class DocGraph:
    topic_id: int
    nodes: tuple[str, ...]
    edges: list[tuple[str, str, float]]
    _adjacency: dict[str, list[tuple[str, float]]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        adj: dict[str, list[tuple[str, float]]] = {n: [] for n in self.nodes}
        for a, b, w in self.edges:
            adj[a].append((b, w))
            adj[b].append((a, w))
        for n in adj:
            adj[n].sort()
        self._adjacency = adj

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._adjacency

    def neighbors(self, doc_id: str) -> list[tuple[str, float]]:
        if doc_id not in self._adjacency:
            raise GraphError(f"unknown node {doc_id!r}")
        return self._adjacency[doc_id]

    def to_json(self) -> dict:
        return {
            "topic_id": self.topic_id,
            "nodes": list(self.nodes),
            "edges": [{"a": a, "b": b, "w": w} for a, b, w in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DocGraph":
        return cls(
            topic_id=int(data["topic_id"]),
            nodes=tuple(data["nodes"]),
            edges=[(e["a"], e["b"], float(e["w"])) for e in data["edges"]],
        )


def _norms(vecs: Iterable[np.ndarray]) -> np.ndarray:
    """Each float64 vector's L2 norm, for `cosine`."""
    return np.array([np.linalg.norm(v) for v in vecs], dtype=np.float64)


def cosine(a: Sequence[np.ndarray], b: Sequence[np.ndarray], norm_a: np.ndarray, norm_b: np.ndarray) -> np.ndarray:
    """The cosine of each pair of float64 vectors a[i] and b[i], whose norms
    (`_norms`) are norm_a[i] and norm_b[i]; 0.0 where either norm is 0.

    One dot per pair, a[i] first, as `np.dot` takes it: a row-wise product
    can round differently (ndarray.dot is np.dot without its dispatch
    wrapper). Every cosine the pipeline uses comes from here."""
    dots = np.fromiter(map(np.ndarray.dot, a, b), np.float64, len(a))
    return np.divide(dots, norm_a * norm_b, out=np.zeros_like(dots), where=(norm_a != 0.0) & (norm_b != 0.0))


def _unit_clamp(x: np.ndarray) -> np.ndarray:
    """min(1.0, max(0.0, v)) of each v in x, which maps NaN and -0.0 to 0.0
    (np.fmax keeps -0.0)."""
    x = np.where(x > 0.0, x, 0.0)
    return np.where(x < 1.0, x, 1.0)


def build_graph(
    topic_id: int,
    docs: Sequence[DocumentRecord],
    embeddings: Mapping[str, np.ndarray],
    index: LexIndex,
    bm25_params: Bm25Params,
    entities: frozenset[str],
    params: HybridParams,
) -> DocGraph:
    """The graph of one topic's documents, whose vectors embeddings holds by
    document id.

    Every pair's weight blends its cosine and its lexical similarity, each
    clamped into [0, 1], and the pair is an edge when its weight reaches the
    threshold (inclusive); edges follow the pairs in row-major order. The
    clamps, blend and threshold act on each pair alone, so a pass over one
    topic's pairs gives the bits a pass over many topics' pairs would."""
    ids = tuple(d.id for d in docs)
    for doc_id in ids:
        if doc_id not in embeddings:
            raise GraphError(f"missing embedding for document {doc_id!r}")
    vecs = [np.asarray(embeddings[doc_id], dtype=np.float64) for doc_id in ids]
    norms = _norms(vecs)
    first, second = np.nonzero(~np.tri(len(ids), dtype=bool))  # i < j, row-major
    pairs = ([vecs[a] for a in first.tolist()], [vecs[b] for b in second.tolist()])
    cos = cosine(*pairs, norms[first], norms[second])
    lexical = lexical_similarity(ids, index, bm25_params, entities)[first, second]
    weights = hybrid_weight(_unit_clamp(cos), _unit_clamp(lexical), params.alpha)
    kept = np.flatnonzero(weights >= params.edge_threshold)
    edges = [
        (ids[a], ids[b], w) for a, b, w in zip(first[kept].tolist(), second[kept].tolist(), weights[kept].tolist())
    ]
    return DocGraph(topic_id=topic_id, nodes=ids, edges=edges)


def make_query(q: QuestionRecord) -> str:
    """Target event followed by the four option texts, space-joined."""
    return " ".join([q.target_event] + [q.options[l] for l in LETTERS])


@dataclass(frozen=True)
class EntryPoints:
    dense: tuple[str, ...]
    sparse: tuple[str, ...]

    def ordered(self) -> list[str]:
        return list(dict.fromkeys((*self.dense, *self.sparse)))


def entry_points(
    query: str,
    doc_ids: Sequence[str],
    query_vec: np.ndarray,
    doc_vecs: np.ndarray,
    index: LexIndex,
    bm25_params: Bm25Params,
    entities: frozenset[str],
    params: HybridParams,
    doc_norms: np.ndarray,
) -> EntryPoints:
    """Top k_dense documents by query cosine plus top k_sparse by BM25+,
    each ranked descending with ties broken by ascending doc id. doc_vecs
    holds one float64 row per document of doc_ids, in that order, and
    doc_norms their norms (`_norms`)."""
    q = np.asarray(query_vec, dtype=np.float64)
    dense = dict(zip(doc_ids, cosine([q] * len(doc_ids), doc_vecs, _norms([q]), doc_norms).tolist()))
    dense_ranked = sorted(doc_ids, key=lambda d: (-dense[d], d))
    sparse = dict(zip(doc_ids, bm25_plus(tokenize(query), doc_ids, index, bm25_params, entities)))
    sparse_ranked = sorted(doc_ids, key=lambda d: (-sparse[d], d))
    return EntryPoints(
        dense=tuple(dense_ranked[: params.k_dense]),
        sparse=tuple(sparse_ranked[: params.k_sparse]),
    )


@dataclass
class RetrievalResult:
    topic_id: int
    query_text: str
    selected: list[str]
    provenance: dict[str, str]
    excluded: list[str]

    def union(self, other: "RetrievalResult", graph: DocGraph) -> "RetrievalResult":
        """This result's documents, then those of other it lacks, each with the
        provenance of the result it came from; the rest of graph is excluded."""
        selected = list(self.selected)
        provenance = dict(self.provenance)
        for doc_id in other.selected:
            if doc_id not in provenance:
                selected.append(doc_id)
                provenance[doc_id] = other.provenance[doc_id]
        excluded = sorted(set(graph.nodes) - set(selected))
        return replace(self, selected=selected, provenance=provenance, excluded=excluded)


def retrieve(query: str, entries: EntryPoints, graph: DocGraph, params: HybridParams) -> RetrievalResult:
    """Breadth-first expansion from the entry points over edges at or above
    the threshold. Selected docs keep discovery order: dense entries, sparse
    entries, then traversal; everything else lands in excluded."""
    provenance: dict[str, str] = {}
    for doc_id in entries.dense:
        provenance[doc_id] = DENSE_ENTRY
    for doc_id in entries.sparse:
        provenance.setdefault(doc_id, SPARSE_ENTRY)
    order = entries.ordered()
    for doc_id in order:
        if doc_id not in graph:
            raise GraphError(f"entry point {doc_id!r} is not a graph node")
    selected = list(order)
    seen = set(order)
    queue = deque(order)
    while queue:
        current = queue.popleft()
        for neighbor, w in graph.neighbors(current):
            if w >= params.edge_threshold and neighbor not in seen:
                seen.add(neighbor)
                provenance[neighbor] = TRAVERSAL
                selected.append(neighbor)
                queue.append(neighbor)
    excluded = sorted(set(graph.nodes) - seen)
    return RetrievalResult(
        topic_id=graph.topic_id,
        query_text=query,
        selected=selected,
        provenance=provenance,
        excluded=excluded,
    )


class TopicRetriever:
    """Bundles one topic's documents, lexical index, entities, vectors (one
    row per document, in document order) and graph behind a query interface."""

    def __init__(
        self,
        topic_id: int,
        docs: Sequence[DocumentRecord],
        doc_vecs: np.ndarray,
        bm25_params: Bm25Params,
        params: HybridParams,
        graph: DocGraph,
        entities: Iterable[str],
        index: LexIndex,
    ):
        self.topic_id = topic_id
        self.docs = list(docs)
        self.bm25_params = bm25_params
        self.params = params
        if len(doc_vecs) != len(self.docs):
            raise GraphError(
                f"{len(doc_vecs)} document vectors for {len(self.docs)} documents in topic {topic_id}"
            )
        if set(graph.nodes) != {d.id for d in self.docs}:
            raise GraphError(f"graph nodes do not match topic {topic_id} documents")
        self.graph = graph
        self.entities = frozenset(entities)
        self.index = index
        self.doc_vecs = np.asarray(doc_vecs, dtype=np.float64)
        self.doc_norms = _norms(self.doc_vecs)

    def retrieve_query(self, query: str, query_vec: np.ndarray) -> RetrievalResult:
        """Retrieval for query, whose vector is query_vec."""
        entries = entry_points(
            query,
            [d.id for d in self.docs],
            query_vec,
            self.doc_vecs,
            self.index,
            self.bm25_params,
            self.entities,
            self.params,
            self.doc_norms,
        )
        return retrieve(query, entries, self.graph, self.params)
