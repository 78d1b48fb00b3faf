from __future__ import annotations

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway.corpus import DocumentRecord, document_text
from causeway.embed import MockEmbedder
from causeway.graphrag import (
    DENSE_ENTRY,
    SPARSE_ENTRY,
    TRAVERSAL,
    DocGraph,
    EntryPoints,
    GraphError,
    HybridParams,
    RetrievalResult,
    TopicRetriever,
    build_graph,
    cosine as graphrag_cosine,
    entry_points,
    hybrid_weight,
    make_query,
    retrieve,
)
from causeway.lexindex import Bm25Params, LexIndex, extract_entities, tokenize
from helpers import (
    TOPIC_WORDS,
    component_reference,
    cosine,
    graph_edges_reference,
    make_question,
    pair_similarity,
    topic_entities,
    topic_retriever,
    topic_texts,
    topic_union_reference,
)


def make_doc(topic: int, doc_id: str, title: str, content: str) -> DocumentRecord:
    return DocumentRecord(
        topic_id=topic,
        id=doc_id,
        title=title,
        snippet="",
        source="test",
        link="",
        content=content,
    )


class TestHybridWeight:
    def test_formula(self):
        assert hybrid_weight(1.0, 0.0, alpha=0.7) == pytest.approx(0.7)
        assert hybrid_weight(0.0, 1.0, alpha=0.7) == pytest.approx(0.3)
        assert hybrid_weight(0.5, 0.5, alpha=0.7) == pytest.approx(0.5)
        assert hybrid_weight(0.2, 0.8, alpha=0.25) == pytest.approx(0.65)

    def test_default_alpha(self):
        assert hybrid_weight(1.0, 0.0) == pytest.approx(0.7)

    @pytest.mark.parametrize(
        "sem,lex,alpha",
        [(-0.1, 0.5, 0.7), (1.1, 0.5, 0.7), (0.5, -0.2, 0.7), (0.5, 2.0, 0.7), (0.5, 0.5, 1.5), (0.5, 0.5, -0.1)],
    )
    def test_rejects_out_of_range(self, sem, lex, alpha):
        with pytest.raises(GraphError):
            hybrid_weight(sem, lex, alpha)

    def test_bounds_inclusive(self):
        assert hybrid_weight(0.0, 0.0, 0.0) == 0.0
        assert hybrid_weight(1.0, 1.0, 1.0) == 1.0


class TestDocGraph:
    def _graph(self):
        return DocGraph(
            topic_id=1,
            nodes=("a", "b", "c"),
            edges=[("a", "b", 0.5), ("b", "c", 0.9)],
        )

    def test_neighbors_bidirectional_and_sorted(self):
        g = self._graph()
        assert g.neighbors("b") == [("a", 0.5), ("c", 0.9)]
        assert g.neighbors("a") == [("b", 0.5)]
        assert g.neighbors("c") == [("b", 0.9)]

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            self._graph().neighbors("zzz")

    def test_contains_nodes_only(self):
        g = self._graph()
        assert all(n in g for n in ("a", "b", "c"))
        assert "zzz" not in g

    def test_json_round_trip(self):
        g = self._graph()
        back = DocGraph.from_json(g.to_json())
        assert back.topic_id == g.topic_id
        assert back.nodes == g.nodes
        assert back.edges == g.edges


class TestBuildGraph:
    def _topic(self):
        docs = [
            make_doc(1, "d1", "Dam fails", "the dam failed after heavy rain in the valley"),
            make_doc(1, "d2", "Rain floods valley", "heavy rain flooded the valley near the dam"),
            make_doc(1, "d3", "Concert tonight", "a cheerful crowd enjoyed the lakeside concert"),
        ]
        texts = {d.id: document_text(d) for d in docs}
        index = LexIndex.build(texts)
        entities = extract_entities(texts.values())
        embedder = MockEmbedder(dim=128, seed=0)
        vectors = embedder.embed_texts(list(texts.values()))
        embeddings = {d.id: v for d, v in zip(docs, vectors)}
        return docs, index, entities, embeddings

    def _expected_weight(self, a, b, index, entities, embeddings, alpha=0.7):
        sem = min(1.0, max(0.0, cosine(embeddings[a], embeddings[b])))
        lex = pair_similarity(a, b, index, Bm25Params(), entities)
        return hybrid_weight(sem, lex, alpha)

    def test_edges_match_component_computation(self):
        docs, index, entities, embeddings = self._topic()
        params = HybridParams(edge_threshold=0.0)
        graph = build_graph(1, docs, embeddings, index, Bm25Params(), entities, params)
        got = {(a, b): w for a, b, w in graph.edges}
        assert set(got) == {("d1", "d2"), ("d1", "d3"), ("d2", "d3")}
        for (a, b), w in got.items():
            assert w == pytest.approx(
                self._expected_weight(a, b, index, entities, embeddings)
            )

    def test_threshold_is_inclusive(self):
        docs, index, entities, embeddings = self._topic()
        w12 = self._expected_weight("d1", "d2", index, entities, embeddings)
        at = build_graph(
            1, docs, embeddings, index, Bm25Params(), entities, HybridParams(edge_threshold=w12)
        )
        assert any({a, b} == {"d1", "d2"} for a, b, _ in at.edges)
        above = build_graph(
            1,
            docs,
            embeddings,
            index,
            Bm25Params(),
            entities,
            HybridParams(edge_threshold=w12 + 1e-9),
        )
        assert not any({a, b} == {"d1", "d2"} for a, b, _ in above.edges)

    def test_negative_cosine_clamped(self):
        docs = [
            make_doc(1, "d1", "t", "alpha bravo"),
            make_doc(1, "d2", "t", "charlie delta"),
        ]
        texts = {d.id: document_text(d) for d in docs}
        index = LexIndex.build(texts)
        embeddings = {"d1": np.array([1.0, 0.0]), "d2": np.array([-1.0, 0.0])}
        graph = build_graph(
            1, docs, embeddings, index, Bm25Params(), frozenset(), HybridParams(edge_threshold=0.0)
        )
        (a, b, w) = graph.edges[0]
        lex = pair_similarity("d1", "d2", index)
        assert w == pytest.approx(hybrid_weight(0.0, lex))

    def test_unnormalized_and_zero_vectors_match_per_pair_cosine(self):
        docs, index, entities, _ = self._topic()
        rng = np.random.default_rng(5)
        embeddings = {"d1": 3.7 * rng.standard_normal(16), "d2": 0.01 * rng.standard_normal(16), "d3": np.zeros(16)}
        tokens = {d.id: tokenize(document_text(d)) for d in docs}
        want = graph_edges_reference(tokens, embeddings, entities, 0.7, -1.0)
        graph = build_graph(1, docs, embeddings, index, Bm25Params(), entities, HybridParams(edge_threshold=-1.0))
        assert graph.edges == want

    def test_missing_embedding_raises(self):
        docs, index, entities, embeddings = self._topic()
        del embeddings["d2"]
        with pytest.raises(GraphError, match="d2"):
            build_graph(1, docs, embeddings, index, Bm25Params(), entities, HybridParams())

    @given(
        topic_texts,
        topic_entities,
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pair_reference_exactly(self, contents, entities, alpha, pick, seed):
        docs = [make_doc(1, f"d{i}", "", content) for i, content in enumerate(contents)]
        texts = {d.id: document_text(d) for d in docs}
        tokens = {doc_id: tokenize(text) for doc_id, text in texts.items()}
        index = LexIndex.build(texts)
        vectors = MockEmbedder(dim=8, seed=seed).embed_texts(list(texts.values()))
        embeddings = {d.id: v for d, v in zip(docs, vectors)}
        all_pairs = graph_edges_reference(tokens, embeddings, entities, alpha, -1.0)
        # one pair sits exactly on the threshold, which keeps it
        a, b, threshold = all_pairs[pick % len(all_pairs)]
        want = graph_edges_reference(tokens, embeddings, entities, alpha, threshold)
        params = HybridParams(alpha=alpha, edge_threshold=threshold)
        graph = build_graph(1, docs, embeddings, index, Bm25Params(), entities, params)
        assert graph.edges == want
        assert (a, b, threshold) in graph.edges

    def test_no_self_edges(self):
        docs, index, entities, embeddings = self._topic()
        graph = build_graph(
            1, docs, embeddings, index, Bm25Params(), entities, HybridParams(edge_threshold=0.0)
        )
        assert all(a != b for a, b, _ in graph.edges)

    def _reference_case(self, docs, embeddings, bm25, alpha=0.7):
        """build_graph's edges at threshold -1 (every pair) and the oracle's."""
        texts = {d.id: document_text(d) for d in docs}
        tokens = {doc_id: tokenize(text) for doc_id, text in texts.items()}
        index = LexIndex.build(texts)
        entities = extract_entities(texts.values())
        params = HybridParams(alpha=alpha, edge_threshold=-1.0)
        graph = build_graph(1, docs, embeddings, index, bm25, entities, params)
        return graph.edges, graph_edges_reference(tokens, embeddings, entities, alpha, -1.0, bm25)

    def test_k1_zero_matches_reference(self):
        docs, _, _, embeddings = self._topic()
        got, want = self._reference_case(docs, embeddings, Bm25Params(k1=0.0))
        assert got == want
        assert got != self._reference_case(docs, embeddings, Bm25Params())[0]

    def test_empty_document_has_zero_lexical_weight(self):
        docs, _, _, embeddings = self._topic()
        docs = [*docs, make_doc(1, "d4", "", "")]
        embeddings["d4"] = MockEmbedder(dim=128, seed=0).embed_texts([""])[0]
        got, want = self._reference_case(docs, embeddings, Bm25Params())
        assert got == want
        for a, b, w in got:
            if "d4" in (a, b):
                assert w == hybrid_weight(min(1.0, max(0.0, cosine(embeddings[a], embeddings[b]))), 0.0)

    def test_nan_vector_has_zero_semantic_weight(self):
        docs, index, entities, embeddings = self._topic()
        embeddings["d2"] = embeddings["d2"].copy()
        embeddings["d2"][3] = np.nan
        got, want = self._reference_case(docs, embeddings, Bm25Params())
        assert got == want
        for a, b, w in got:
            if "d2" in (a, b):
                assert w == hybrid_weight(0.0, pair_similarity(a, b, index, Bm25Params(), entities))

    def test_alpha_out_of_range_raises(self):
        docs, index, entities, embeddings = self._topic()
        with pytest.raises(GraphError, match="alpha"):
            build_graph(1, docs, embeddings, index, Bm25Params(), entities, HybridParams(alpha=1.5))


# Several topics of 0-7 documents, empty documents included, each with its
# own entity set.
many_topics = st.lists(
    st.tuples(st.lists(st.lists(st.sampled_from(TOPIC_WORDS), max_size=12).map(" ".join), max_size=7), topic_entities),
    max_size=5,
)


class TestBuildGraphs:
    @given(
        many_topics,
        st.floats(min_value=0.0, max_value=1.0),
        st.one_of(st.just(-1.0), st.floats(min_value=0.0, max_value=1.0)),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_topic_graph_matches_reference(self, topics, alpha, threshold, seed):
        embedder = MockEmbedder(dim=8, seed=seed)
        params = HybridParams(alpha=alpha, edge_threshold=threshold)
        for topic_id, (contents, entities) in enumerate(topics):
            docs = [make_doc(topic_id, f"t{topic_id}d{i}", "", content) for i, content in enumerate(contents)]
            texts = {d.id: document_text(d) for d in docs}
            embeddings = dict(zip(texts, embedder.embed_texts(list(texts.values()))))
            graph = build_graph(topic_id, docs, embeddings, LexIndex.build(texts), Bm25Params(), entities, params)
            tokens = {doc_id: tokenize(text) for doc_id, text in texts.items()}
            assert (graph.topic_id, graph.nodes) == (topic_id, tuple(texts))
            assert graph.edges == graph_edges_reference(tokens, embeddings, entities, alpha, threshold)


def norms(vecs) -> np.ndarray:
    """Each vector's L2 norm, one np.linalg.norm per vector."""
    return np.array([np.linalg.norm(v) for v in vecs])


def pair_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """graphrag.cosine of the one pair (u, v)."""
    return float(graphrag_cosine([u], [v], norms([u]), norms([v]))[0])


class TestCosine:
    def test_parallel(self):
        v = np.array([1.0, 2.0, 3.0])
        assert pair_cosine(v, 2.0 * v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert pair_cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(0.0)

    def test_opposite(self):
        v = np.array([1.0, -2.0])
        assert pair_cosine(v, -v) == pytest.approx(-1.0)

    def test_zero_vector_gives_zero(self):
        assert pair_cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pair_cosine(np.zeros(3), np.zeros(4))


class TestMakeQuery:
    def test_concatenates_event_and_options(self):
        q = make_question(event="The dam failed", a="rain", b="quake", c="age", d="none of the above")
        assert make_query(q) == "The dam failed rain quake age none of the above"


class TestEntryPoints:
    def _setup(self):
        doc_ids = ["d1", "d2", "d3", "d4"]
        query_vec = np.array([1.0, 0.0])
        doc_vecs = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0], [1.0, 0.0]])  # in doc_ids order
        texts = {
            "d1": "lake concert crowd",
            "d2": "flood warning issued",
            "d3": "flood dam flood dam collapse",
            "d4": "weather report sunny",
        }
        index = LexIndex.build(texts)
        return doc_ids, query_vec, doc_vecs, index

    def test_dense_ties_broken_by_id(self):
        doc_ids, query_vec, doc_vecs, index = self._setup()
        eps = entry_points(
            "flood dam", doc_ids, query_vec, doc_vecs, index, Bm25Params(), frozenset(), HybridParams(),
            norms(doc_vecs),
        )
        assert eps.dense == ("d1", "d4", "d2")

    def test_sparse_ranked_by_bm25(self):
        doc_ids, query_vec, doc_vecs, index = self._setup()
        eps = entry_points(
            "flood dam collapse", doc_ids, query_vec, doc_vecs, index, Bm25Params(), frozenset(), HybridParams(),
            norms(doc_vecs),
        )
        assert eps.sparse[0] == "d3"
        assert len(eps.sparse) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_ranking_matches_cosine(self, seed):
        # unnormalized vectors, zero vectors, scaled copies (equal cosines up
        # to rounding) and a zero query: the ranking must be `cosine`'s exactly
        rng = np.random.default_rng(seed)
        doc_ids = [f"d{i}" for i in range(12)]
        doc_vecs = {d: rng.standard_normal(8) * rng.uniform(0.1, 10.0) for d in doc_ids}
        doc_vecs["d3"] = np.zeros(8)
        doc_vecs["d7"] = np.zeros(8)
        doc_vecs["d5"] = 3.0 * doc_vecs["d1"]
        index = LexIndex.build({d: "flood warning" for d in doc_ids})
        params = HybridParams(k_dense=len(doc_ids))
        block = np.array([doc_vecs[d] for d in doc_ids])
        for query_vec in (rng.standard_normal(8), doc_vecs["d1"], np.zeros(8)):
            want = sorted(doc_ids, key=lambda d: (-cosine(query_vec, doc_vecs[d]), d))
            eps = entry_points(
                "flood", doc_ids, query_vec, block, index, Bm25Params(), frozenset(), params, norms(block)
            )
            assert list(eps.dense) == want

    def test_ordered_deduplicates(self):
        eps = EntryPoints(dense=("a", "b"), sparse=("b", "c"))
        assert eps.ordered() == ["a", "b", "c"]

    def test_k_larger_than_corpus(self):
        doc_ids, query_vec, doc_vecs, index = self._setup()
        params = HybridParams(k_dense=10, k_sparse=10)
        eps = entry_points(
            "flood", doc_ids, query_vec, doc_vecs, index, Bm25Params(), frozenset(), params, norms(doc_vecs)
        )
        assert sorted(eps.dense) == sorted(doc_ids)
        assert sorted(eps.sparse) == sorted(doc_ids)


class TestRetrieve:
    def _graph(self):
        return DocGraph(
            topic_id=9,
            nodes=("A", "B", "C", "D", "E", "F"),
            edges=[
                ("A", "B", 0.9),
                ("B", "C", 0.5),
                ("C", "D", 0.39),
                ("E", "F", 0.8),
            ],
        )

    def test_bfs_selection_and_order(self):
        result = retrieve(
            "q", EntryPoints(dense=("A",), sparse=("E",)), self._graph(), HybridParams()
        )
        assert result.selected == ["A", "E", "B", "F", "C"]
        assert result.excluded == ["D"]
        assert result.provenance == {
            "A": DENSE_ENTRY,
            "E": SPARSE_ENTRY,
            "B": TRAVERSAL,
            "F": TRAVERSAL,
            "C": TRAVERSAL,
        }

    def test_dense_precedence_over_sparse(self):
        result = retrieve(
            "q", EntryPoints(dense=("A",), sparse=("A", "E")), self._graph(), HybridParams()
        )
        assert result.provenance["A"] == DENSE_ENTRY
        assert result.selected[0] == "A"

    def test_entry_not_in_graph(self):
        with pytest.raises(GraphError):
            retrieve("q", EntryPoints(dense=("ZZ",), sparse=()), self._graph(), HybridParams())

    def test_isolated_entry_still_selected(self):
        graph = DocGraph(topic_id=1, nodes=("A", "B"), edges=[])
        result = retrieve("q", EntryPoints(dense=("A",), sparse=()), graph, HybridParams())
        assert result.selected == ["A"]
        assert result.excluded == ["B"]

    def test_below_threshold_edges_not_traversed(self):
        graph = DocGraph(topic_id=1, nodes=("A", "B"), edges=[("A", "B", 0.2)])
        result = retrieve("q", EntryPoints(dense=("A",), sparse=()), graph, HybridParams())
        assert result.selected == ["A"]
        assert result.excluded == ["B"]

    def test_threshold_inclusive_at_traversal(self):
        graph = DocGraph(topic_id=1, nodes=("A", "B"), edges=[("A", "B", 0.4)])
        result = retrieve("q", EntryPoints(dense=("A",), sparse=()), graph, HybridParams())
        assert result.selected == ["A", "B"]

    def _random_graph(self, rng: random.Random, n_nodes: int):
        nodes = tuple(f"n{i}" for i in range(n_nodes))
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < 0.12:
                    edges.append((nodes[i], nodes[j], round(rng.random(), 3)))
        return DocGraph(topic_id=0, nodes=nodes, edges=edges)

    def test_matches_component_reference_on_random_graphs(self):
        rng = random.Random(8821)
        params = HybridParams()
        for _ in range(100):
            graph = self._random_graph(rng, rng.randint(1, 40))
            k = rng.randint(1, min(3, len(graph.nodes)))
            entries = rng.sample(list(graph.nodes), k)
            result = retrieve(
                "q", EntryPoints(dense=tuple(entries[:1]), sparse=tuple(entries[1:])), graph, params
            )
            expected = component_reference(
                graph.nodes, graph.edges, entries, params.edge_threshold
            )
            assert set(result.selected) == expected
            assert set(result.excluded) == set(graph.nodes) - expected

    def test_partition_invariants(self):
        rng = random.Random(4242)
        for _ in range(50):
            graph = self._random_graph(rng, rng.randint(2, 30))
            entries = rng.sample(list(graph.nodes), 2)
            result = retrieve(
                "q", EntryPoints(dense=(entries[0],), sparse=(entries[1],)), graph, HybridParams()
            )
            assert set(result.selected) & set(result.excluded) == set()
            assert set(result.selected) | set(result.excluded) == set(graph.nodes)
            assert set(result.provenance) == set(result.selected)
            for e in entries:
                assert e in result.selected

    def test_raising_threshold_never_grows_selection(self):
        rng = random.Random(515)
        for _ in range(30):
            graph = self._random_graph(rng, 20)
            entry = rng.choice(list(graph.nodes))
            eps = EntryPoints(dense=(entry,), sparse=())
            previous = None
            for threshold in (0.2, 0.4, 0.6, 0.8):
                result = retrieve("q", eps, graph, HybridParams(edge_threshold=threshold))
                current = set(result.selected)
                if previous is not None:
                    assert current <= previous
                previous = current


@st.composite
def union_cases(draw):
    """A topic's nodes and three retrieval results over them, each with a
    random selection in random order and random provenances."""
    nodes = [f"d{i}" for i in range(draw(st.integers(min_value=1, max_value=10)))]

    def result(query: str) -> RetrievalResult:
        selected = draw(st.lists(st.sampled_from(nodes), unique=True))
        provenance = {d: draw(st.sampled_from((DENSE_ENTRY, SPARSE_ENTRY, TRAVERSAL))) for d in selected}
        excluded = sorted(set(nodes) - set(selected))
        return RetrievalResult(7, query, selected, provenance, excluded)

    return nodes, [result(f"query {i}") for i in range(3)]


class TestRetrievalResultUnion:
    @given(union_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_inline_merge_reference(self, case):
        nodes, (first, second, third) = case
        graph = DocGraph(7, tuple(nodes), [])
        before = copy.deepcopy((first, second))
        merged = first.union(second, graph)
        assert merged == topic_union_reference(first, second, nodes)
        assert (first, second) == before
        assert merged.union(third, graph) == topic_union_reference(merged, third, nodes)

    def test_keeps_first_provenance_and_query(self):
        graph = DocGraph(7, ("a", "b", "c", "d"), [])
        first = RetrievalResult(7, "q1", ["b"], {"b": DENSE_ENTRY}, ["a", "c", "d"])
        second = RetrievalResult(7, "q2", ["c", "b"], {"c": SPARSE_ENTRY, "b": TRAVERSAL}, ["a", "d"])
        merged = first.union(second, graph)
        assert merged.query_text == "q1"
        assert merged.selected == ["b", "c"]
        assert merged.provenance == {"b": DENSE_ENTRY, "c": SPARSE_ENTRY}
        assert merged.excluded == ["a", "d"]


class TestTopicRetriever:
    def _docs(self):
        return [
            make_doc(5, "d1", "Dockworkers strike", "dockworkers walked out at Harborview over a wage dispute"),
            make_doc(5, "d2", "Delays mount", "shipping delays mount at Harborview as the strike continues"),
            make_doc(5, "d3", "Retail worries", "retailers warn the strike and shipping delays threaten stock"),
            make_doc(5, "d4", "Garden show", "the annual tulip exhibition charmed visitors downtown"),
        ]

    def _retriever(self, graph=None):
        vecs = MockEmbedder(dim=128, seed=0).embed_texts([document_text(d) for d in self._docs()])
        return topic_retriever(5, self._docs(), vecs, graph)

    def _query_vec(self, query: str):
        return MockEmbedder(dim=128, seed=0).embed_texts([query])[0]

    def test_deterministic_across_instances(self):
        q = make_question(
            qid="q", topic=5, event="Shipping delays mounted",
            a="a wage dispute led to a strike", b="a tulip exhibition", c="bad weather", d="None of the above",
        )
        r1 = self._retriever()
        r2 = self._retriever()
        out1 = r1.retrieve_query(make_query(q), self._query_vec(make_query(q)))
        out2 = r2.retrieve_query(make_query(q), self._query_vec(make_query(q)))
        assert out1.selected == out2.selected
        assert out1.provenance == out2.provenance
        assert out1.excluded == out2.excluded

    def test_prebuilt_graph_reused(self):
        r1 = self._retriever()
        graph = DocGraph.from_json(r1.graph.to_json())
        r2 = self._retriever(graph=graph)
        assert r2.graph.edges == r1.graph.edges
        query = make_query(make_question(qid="q", topic=5, event="Shipping delays mounted"))
        query_vec = self._query_vec(query)
        assert r2.retrieve_query(query, query_vec).selected == r1.retrieve_query(query, query_vec).selected

    def test_prebuilt_graph_node_mismatch(self):
        bad = DocGraph(topic_id=5, nodes=("other",), edges=[])
        with pytest.raises(GraphError):
            self._retriever(graph=bad)

    def test_doc_vecs_count_mismatch(self):
        r = self._retriever()
        with pytest.raises(GraphError):
            TopicRetriever(5, self._docs(), np.zeros((3, 16)), r.bm25_params, r.params, r.graph, r.entities, r.index)

    def test_result_shape(self):
        r = self._retriever()
        result = r.retrieve_query("strike at the port", self._query_vec("strike at the port"))
        data = vars(result)
        assert data["topic_id"] == 5
        assert data["query_text"] == "strike at the port"
        assert set(data["provenance"]) == set(data["selected"])
        assert set(data["selected"]) | set(data["excluded"]) == {d.id for d in self._docs()}
