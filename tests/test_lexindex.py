from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway.lexindex import (
    STOPWORDS,
    Bm25Params,
    LexIndex,
    LexIndexError,
    bm25_plus,
    extract_entities,
    tokenize,
    top_terms,
)
from helpers import (
    TOPIC_WORDS,
    bm25_plus_sequential,
    bm25_reference,
    entity_texts,
    extract_entities_reference,
    lexical_similarity_reference,
    pair_similarity,
    topic_entities,
    topic_texts,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("The dam failed, twice.") == ["the", "dam", "failed", "twice"]

    def test_numbers_and_unicode(self):
        assert tokenize("Café opened in 2021") == ["café", "opened", "in", "2021"]

    def test_underscore_splits(self):
        assert tokenize("snake_case token") == ["snake", "case", "token"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("!!! ---") == []

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_lowercase_and_nonempty(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert "_" not in token


class TestExtractEntities:
    def test_mid_sentence_capitalized_word(self):
        ents = extract_entities(["The premier visited Ontario yesterday."])
        assert "ontario" in ents
        assert "the" not in ents

    def test_sentence_initial_excluded(self):
        ents = extract_entities(["Ontario exports fell. Prices rose."])
        assert "ontario" not in ents
        assert "prices" not in ents

    def test_word_after_sentence_end_is_sentence_initial(self):
        ents = extract_entities(["Prices rose. Then Ontario acted quickly."])
        assert "ontario" in ents
        assert "then" not in ents

    def test_stopwords_never_entities(self):
        ents = extract_entities(["He said The Who played loudly."])
        assert "the" not in ents
        assert "who" not in ents

    def test_one_qualifying_occurrence_suffices(self):
        ents = extract_entities(["Harborview is busy.", "ships dock at Harborview today"])
        assert "harborview" in ents

    def test_quoted_names(self):
        ents = extract_entities(['Workers met "Galatea" near the dock.'])
        assert "galatea" in ents

    def test_each_line_starts_a_sentence(self):
        ents = extract_entities(["first line\nOntario on its own line"])
        assert "ontario" not in ents

    def test_lowercase_words_never_entities(self):
        ents = extract_entities(["the quick brown fox jumped over the dog"])
        assert ents == frozenset()

    def test_stopword_list_size(self):
        assert len(STOPWORDS) == 50

    def test_sentence_end_inside_closing_quotes_and_brackets(self):
        ents = extract_entities(['He said "it closed." Ontario shrugged. (Prices rose.) Lagos waited'])
        assert ents == frozenset()

    def test_non_ascii_whitespace_separates_words(self):
        ents = extract_entities(["prices rose.\u3000Ontario waited\xa0while Lagos slept"])
        assert ents == frozenset({"lagos"})

    @given(entity_texts)
    @settings(max_examples=400, deadline=None)
    def test_matches_word_by_word_reference(self, texts):
        assert extract_entities(texts) == extract_entities_reference(texts)


def _toy_texts() -> dict[str, str]:
    return {
        "d1": "the dam failed after heavy rain",
        "d2": "heavy rain flooded the valley",
        "d3": "engineers inspected the dam turbines",
    }


def _tokens(texts: dict[str, str]) -> dict[str, list[str]]:
    return {d: tokenize(t) for d, t in texts.items()}


class TestLexIndex:
    def test_statistics(self):
        texts = _toy_texts()
        index = LexIndex.build(texts)
        assert index.n_docs == 3
        assert index.doc_lens["d1"] == 6
        assert index.doc_lens["d2"] == 5
        assert index.doc_lens["d3"] == 5
        assert index.avgdl == pytest.approx(16 / 3)
        assert index.doc_freq["rain"] == 2
        assert index.doc_freq["dam"] == 2
        assert index.doc_freq["valley"] == 1
        assert index.doc_freq["the"] == 3

    def test_idf_formula(self):
        index = LexIndex.build(_toy_texts())
        expected = math.log((3 - 2 + 0.5) / (2 + 0.5) + 1.0)
        assert index.idfs["rain"] == pytest.approx(expected, rel=1e-12)
        assert index.idfs.get("unseen-term", 0.0) == 0.0

    @given(
        st.dictionaries(
            st.text(max_size=4),
            st.one_of(st.text(max_size=40), st.lists(st.sampled_from(TOPIC_WORDS), max_size=12).map(" ".join)),
            max_size=6,
        ),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_saved_counts_equals_build(self, texts, sort_keys):
        # the term counts written as JSON (sorted, as build-graph writes them,
        # or not) and read back in the texts' order rebuild the same index
        index = LexIndex.build(texts)
        saved = json.loads(json.dumps(index.term_freqs, sort_keys=sort_keys))
        rebuilt = LexIndex.from_counts({doc_id: saved[doc_id] for doc_id in texts})
        assert rebuilt == index
        assert (rebuilt.idfs, rebuilt.avgdl, rebuilt.doc_ids) == (index.idfs, index.avgdl, index.doc_ids)
        assert rebuilt.doc_lens == {doc_id: len(tokenize(text)) for doc_id, text in texts.items()}

    def test_unknown_doc_raises(self):
        index = LexIndex.build(_toy_texts())
        with pytest.raises(LexIndexError):
            bm25_plus(["rain"], ["nope"], index)[0]


class TestBm25Plus:
    def test_matches_reference_on_toy_corpus(self):
        texts = _toy_texts()
        index = LexIndex.build(texts)
        tokens = _tokens(texts)
        for doc_id in texts:
            for query in (["rain"], ["dam", "rain"], ["the", "valley", "turbines"]):
                got = bm25_plus(query, [doc_id], index)[0]
                want = bm25_reference(query, tokens, doc_id)
                assert got == pytest.approx(want, rel=1e-12), (doc_id, query)

    def test_matches_reference_on_random_corpora(self):
        rng = random.Random(20240817)
        vocab = [f"w{i}" for i in range(30)]
        for trial in range(25):
            texts = {
                f"d{j}": " ".join(rng.choices(vocab, k=rng.randint(1, 40)))
                for j in range(rng.randint(2, 8))
            }
            index = LexIndex.build(texts)
            tokens = _tokens(texts)
            entities = frozenset(rng.sample(vocab, 3))
            query = rng.choices(vocab + ["zzz-unknown"], k=rng.randint(1, 6))
            doc_id = rng.choice(list(texts))
            got = bm25_plus(query, [doc_id], index, entities=entities)[0]
            want = bm25_reference(query, tokens, doc_id, entities=entities)
            assert got == pytest.approx(want, rel=1e-9), trial

    @given(topic_texts, topic_entities, topic_texts)
    @settings(max_examples=60, deadline=None)
    def test_scores_for_many_documents_match_reference(self, contents, entities, queries):
        texts = {f"d{i}": content for i, content in enumerate(contents)}
        index = LexIndex.build(texts)
        tokens = _tokens(texts)
        query = tokenize(queries[0])
        got = bm25_plus(query, list(texts), index, entities=entities)
        want = [bm25_reference(query, tokens, doc_id, entities=entities) for doc_id in texts]
        assert got == pytest.approx(want, rel=1e-9)
        assert got == [bm25_plus(query, [doc_id], index, entities=entities)[0] for doc_id in texts]
        with pytest.raises(LexIndexError):
            bm25_plus(query, ["d0", "nope"], index)

    @given(
        st.one_of(st.just([]), topic_texts),
        topic_entities,
        st.lists(st.sampled_from(sorted({w.lower() for w in TOPIC_WORDS}) + ["zzz"]), max_size=10),
        st.sampled_from([Bm25Params(), Bm25Params(k1=1.2, b=0.3, delta=0.5, entity_boost=2.0)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_scores_equal_sequential_sum_exactly(self, contents, entities, query, params):
        # repeated, out-of-vocabulary and entity terms, empty queries, and
        # topics with no documents at all
        texts = {f"d{i}": content for i, content in enumerate(contents)}
        index = LexIndex.build(texts)
        want = [bm25_plus_sequential(query, doc_id, index, params, entities) for doc_id in texts]
        assert bm25_plus(query, list(texts), index, params, entities) == want
        assert bm25_plus(query, [], index, params, entities) == []

    def test_out_of_vocabulary_terms_contribute_zero(self):
        index = LexIndex.build(_toy_texts())
        base = bm25_plus(["rain"], ["d1"], index)[0]
        assert bm25_plus(["rain", "xylophone"], ["d1"], index)[0] == pytest.approx(base)
        assert bm25_plus(["xylophone"], ["d1"], index)[0] == 0.0

    def test_vocabulary_term_absent_from_doc_gets_delta_floor(self):
        index = LexIndex.build(_toy_texts())
        # "valley" occurs only in d2; for d1 the tf part is zero.
        score = bm25_plus(["valley"], ["d1"], index)[0]
        assert score == pytest.approx(index.idfs["valley"] * 1.0)

    def test_empty_query_scores_zero(self):
        index = LexIndex.build(_toy_texts())
        assert bm25_plus([], ["d1"], index)[0] == 0.0

    def test_entity_boost_is_exact_multiplier(self):
        index = LexIndex.build(_toy_texts())
        plain = bm25_plus(["rain"], ["d1"], index)[0]
        boosted = bm25_plus(["rain"], ["d1"], index, entities=frozenset({"rain"}))[0]
        assert boosted == pytest.approx(3.0 * plain, rel=1e-12)

    def test_custom_boost_value(self):
        index = LexIndex.build(_toy_texts())
        params = Bm25Params(entity_boost=5.0)
        plain = bm25_plus(["dam"], ["d3"], index)[0]
        boosted = bm25_plus(["dam"], ["d3"], index, params=params, entities=frozenset({"dam"}))[0]
        assert boosted == pytest.approx(5.0 * plain, rel=1e-12)

    def test_boost_never_decreases_scores(self):
        rng = random.Random(99)
        vocab = [f"w{i}" for i in range(20)]
        for _ in range(20):
            texts = {
                f"d{j}": " ".join(rng.choices(vocab, k=rng.randint(2, 30)))
                for j in range(rng.randint(2, 6))
            }
            index = LexIndex.build(texts)
            query = rng.choices(vocab, k=4)
            doc_id = rng.choice(list(texts))
            plain = bm25_plus(query, [doc_id], index)[0]
            boosted = bm25_plus(query, [doc_id], index, entities=frozenset(query))[0]
            assert boosted >= plain

    def test_term_frequency_monotonicity(self):
        texts = {
            "short": "rain rain",
            "long": "rain rain rain rain",
        }
        index = LexIndex.build(texts)
        # Same document length normalization target; more occurrences of the
        # query term must not score lower.
        s_short = bm25_plus(["rain"], ["short"], index)[0]
        s_long = bm25_plus(["rain"], ["long"], index)[0]
        assert s_long >= s_short


class TestTopTerms:
    def test_ranked_by_tf_idf(self):
        texts = {
            "d1": "dam dam dam rain valley",
            "d2": "rain rain rain",
            "d3": "breeze",
        }
        index = LexIndex.build(texts)
        terms = top_terms("d1", index, k=2)
        assert terms[0] == "dam"
        assert len(terms) == 2

    def test_tie_broken_alphabetically(self):
        texts = {"d1": "zeta alpha", "d2": "other words"}
        index = LexIndex.build(texts)
        assert top_terms("d1", index, k=2) == ["alpha", "zeta"]

    def test_k_larger_than_vocab(self):
        index = LexIndex.build({"d1": "one two", "d2": "three"})
        assert sorted(top_terms("d1", index, k=50)) == ["one", "two"]


class TestLexicalSimilarity:
    def test_identical_documents_score_one(self):
        texts = {"d1": "heavy rain flooded the valley", "d2": "heavy rain flooded the valley", "d3": "unrelated talk"}
        index = LexIndex.build(texts)
        assert pair_similarity("d1", "d2", index) == pytest.approx(1.0)

    def test_self_similarity_is_one(self):
        index = LexIndex.build(_toy_texts())
        assert pair_similarity("d1", "d1", index) == pytest.approx(1.0)

    def test_symmetry(self):
        index = LexIndex.build(_toy_texts())
        assert pair_similarity("d1", "d2", index) == pytest.approx(
            pair_similarity("d2", "d1", index)
        )

    def test_range(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(15)]
        texts = {
            f"d{j}": " ".join(rng.choices(vocab, k=rng.randint(1, 25))) for j in range(6)
        }
        index = LexIndex.build(texts)
        ids = list(texts)
        for a in ids:
            for b in ids:
                sim = pair_similarity(a, b, index)
                assert 0.0 <= sim <= 1.0

    def test_empty_document_scores_zero(self):
        texts = {"d1": "heavy rain", "d2": ""}
        index = LexIndex.build(texts)
        assert pair_similarity("d1", "d2", index) == 0.0
        assert pair_similarity("d2", "d1", index) == 0.0

    def test_matches_hand_computation(self):
        texts = _toy_texts()
        index = LexIndex.build(texts)
        tokens = _tokens(texts)

        def directed(src: str, dst: str) -> float:
            profile = top_terms(src, index, k=20)
            self_score = bm25_reference(profile, tokens, src)
            return bm25_reference(profile, tokens, dst) / self_score

        want = 0.5 * (directed("d1", "d2") + directed("d2", "d1"))
        want = min(1.0, max(0.0, want))
        assert pair_similarity("d1", "d2", index) == pytest.approx(want, rel=1e-12)

    @given(topic_texts, topic_entities)
    @settings(max_examples=100, deadline=None)
    def test_matches_per_pair_reference_exactly(self, docs, entities):
        texts = {f"d{i}": text for i, text in enumerate(docs)}
        index = LexIndex.build(texts)
        tokens = _tokens(texts)
        for _ in range(2):  # a second round over the same index gives the same floats
            for a in texts:
                for b in texts:
                    want = lexical_similarity_reference(a, b, tokens, entities)
                    assert pair_similarity(a, b, index, Bm25Params(), entities) == want

    def test_shared_vocabulary_scores_higher(self):
        texts = {
            "a": "the dam failed after heavy rain in the north valley",
            "b": "heavy rain and the dam failure flooded the north valley",
            "c": "a concert by the lake drew a cheerful crowd tonight",
        }
        index = LexIndex.build(texts)
        assert pair_similarity("a", "b", index) > pair_similarity("a", "c", index)
