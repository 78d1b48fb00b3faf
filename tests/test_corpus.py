from __future__ import annotations

import json
import logging
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway.corpus import (
    LETTERS,
    CorpusError,
    DocumentRecord,
    QuestionRecord,
    document_text,
    load_docs,
    load_predictions,
    load_questions,
    normalize_text,
    parse_gold,
    sibling_groups,
)
from helpers import (
    WHITESPACE,
    ascii_texts,
    jsonl_bytes,
    make_question,
    normalize_text_reference,
    question_to_row,
    unicode_texts,
)


class TestNormalizeText:
    def test_lowercases(self):
        assert normalize_text("The Port CLOSED") == "the port closed"

    def test_collapses_whitespace(self):
        assert normalize_text("a \t b\n\nc") == "a b c"

    def test_strips_terminal_punctuation(self):
        assert normalize_text("It rained.") == "it rained"
        assert normalize_text("It rained!") == "it rained"
        assert normalize_text("It rained?!") == "it rained"
        assert normalize_text("It rained…") == "it rained"

    def test_keeps_internal_punctuation(self):
        assert normalize_text("U.S. exports fell.") == "u.s. exports fell"

    def test_strips_space_before_terminal_punctuation(self):
        assert normalize_text("It rained .") == "it rained"

    def test_unicode_composition_forms_agree(self):
        composed = "café"
        decomposed = "café"
        assert unicodedata.normalize("NFC", decomposed) == composed
        assert normalize_text(composed) == normalize_text(decomposed)

    def test_empty_and_blank(self):
        assert normalize_text("") == ""
        assert normalize_text("   \n\t ") == ""

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(unicode_texts)
    @settings(max_examples=1000, deadline=None)
    def test_matches_regex_fixed_point_reference(self, text):
        assert normalize_text(text) == normalize_text_reference(text)

    @given(ascii_texts)
    @settings(max_examples=1000, deadline=None)
    def test_ascii_fast_path_matches_reference(self, text):
        assert normalize_text(text) == normalize_text_reference(text)

    def test_whitespace_premise_holds_on_every_code_point(self):
        # normalize_text collapses whitespace with str.split where the old
        # pass used re's \s, and lexindex.extract_entities counts str.split
        # words beside a regex; both are exact only while these agree
        ws = re.compile(r"\s")
        chars = [chr(code) for code in range(0x110000)]
        disagree = [c for c in chars if not (ws.fullmatch(c) is not None) == c.isspace() == (len(f"a{c}b".split()) == 2)]
        assert disagree == []
        # unicode_texts draws its whitespace from WHITESPACE
        assert {c for c in chars if c.isspace()} == set(WHITESPACE)


class TestNoneOption:
    @pytest.mark.parametrize(
        "text",
        [
            "None of the others are correct causes.",
            "none of the above",
            "  None Of The listed options is a cause!",
        ],
    )
    def test_detected(self, text):
        assert make_question(a=text).none_letters == frozenset({"A"})

    @pytest.mark.parametrize(
        "text",
        [
            "Nonetheless the port closed",
            "None acted quickly",
            "The cause was none of those",
            "",
        ],
    )
    def test_not_detected(self, text):
        assert make_question(a=text).none_letters == frozenset()

    def test_none_letters(self):
        q = make_question(d="None of the others are correct causes.")
        assert q.none_letters == frozenset({"D"})
        q2 = make_question()
        assert q2.none_letters == frozenset()


class TestDuplicateClasses:
    def test_all_distinct(self):
        q = make_question()
        assert q.classes == (
            frozenset({"A"}),
            frozenset({"B"}),
            frozenset({"C"}),
            frozenset({"D"}),
        )

    def test_pair_merged(self):
        q = make_question(a="The dam failed.", c="the dam failed")
        classes = q.classes
        assert frozenset({"A", "C"}) in classes
        assert len(classes) == 3

    def test_normalization_applies(self):
        q = make_question(b="Heavy  Rain fell!", d="heavy rain fell")
        assert frozenset({"B", "D"}) in q.classes

    def test_triple(self):
        q = make_question(a="x", b="x", c="x", d="y")
        assert q.classes == (frozenset({"A", "B", "C"}), frozenset({"D"}))

    def test_ordered_by_first_letter(self):
        q = make_question(a="p", b="q", c="q", d="p")
        assert q.classes == (frozenset({"A", "D"}), frozenset({"B", "C"}))


class TestSiblingGroups:
    def test_groups_by_topic_and_event(self):
        qs = [
            make_question(qid="q1", topic=1, event="The dam failed."),
            make_question(qid="q2", topic=1, event="the dam failed"),
            make_question(qid="q3", topic=2, event="The dam failed."),
            make_question(qid="q4", topic=1, event="Another event"),
        ]
        groups = sibling_groups(qs)
        by_ids = [g.question_ids for g in groups]
        assert ("q1", "q2") in by_ids
        assert ("q3",) in by_ids
        assert ("q4",) in by_ids
        assert len(groups) == 3

    def test_preserves_input_order(self):
        qs = [
            make_question(qid="a", topic=1, event="e1"),
            make_question(qid="b", topic=1, event="e2"),
            make_question(qid="c", topic=1, event="e1"),
        ]
        groups = sibling_groups(qs)
        assert groups[0].question_ids == ("a", "c")
        assert groups[1].question_ids == ("b",)


class TestParseGold:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("A", {"A"}),
            ("A,B", {"A", "B"}),
            ("a, c", {"A", "C"}),
            ("B D", {"B", "D"}),
            ("A,B,C,D", set(LETTERS)),
        ],
    )
    def test_valid(self, raw, expected):
        assert parse_gold(raw) == frozenset(expected)

    @pytest.mark.parametrize("raw", ["", "  ", "E", "A,E", "AB"])
    def test_invalid(self, raw):
        with pytest.raises(CorpusError):
            parse_gold(raw)


class TestLoaders:
    def _write(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def _question_row(self, **overrides):
        row = {
            "topic_id": 3,
            "id": "q-1",
            "target_event": "The mine flooded",
            "option_A": "heavy rain",
            "option_B": "pump failure",
            "option_C": "sabotage",
            "option_D": "None of the others are correct causes.",
            "golden_answer": "A,B",
        }
        row.update(overrides)
        return row

    def test_load_questions(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self._write(
            path,
            [
                self._question_row(),
                self._question_row(id="q-2", golden_answer="C"),
            ],
        )
        qs = load_questions(path)
        assert [q.id for q in qs] == ["q-1", "q-2"]
        assert qs[0].gold == frozenset({"A", "B"})
        assert qs[0].options["D"].startswith("None")
        assert qs[1].topic_id == 3

    def test_gold_optional(self, tmp_path):
        path = tmp_path / "q.jsonl"
        row = self._question_row()
        del row["golden_answer"]
        self._write(path, [row])
        assert load_questions(path)[0].gold is None

    def test_unknown_fields_ignored(self, tmp_path, caplog):
        path = tmp_path / "q.jsonl"
        self._write(path, [self._question_row(mystery_field=1)])
        with caplog.at_level(logging.INFO):
            qs = load_questions(path)
        assert len(qs) == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._question_row()) + "\n\n")
            fh.write(json.dumps(self._question_row(id="q-2")) + "\n")
        assert len(load_questions(path)) == 2

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._question_row()) + "\n")
            fh.write("{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_questions(path)

    def test_missing_field_fatal(self, tmp_path):
        path = tmp_path / "q.jsonl"
        row = self._question_row()
        del row["option_C"]
        self._write(path, [row])
        with pytest.raises(CorpusError, match="option_C"):
            load_questions(path)

    def test_duplicate_id_fatal(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self._write(path, [self._question_row(), self._question_row()])
        with pytest.raises(CorpusError, match="q-1"):
            load_questions(path)

    def test_bad_gold_fatal(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self._write(path, [self._question_row(golden_answer="Z")])
        with pytest.raises(CorpusError):
            load_questions(path)

    def _doc_row(self, **overrides):
        row = {
            "title": "Flood at the mine",
            "id": "d-1",
            "link": "https://example.org/a",
            "snippet": "short summary",
            "source": "Example Wire",
            "imageUrl": "https://example.org/a.png",
            "content": "Water entered the shaft after heavy rain.",
        }
        row.update(overrides)
        return row

    def test_load_docs(self, tmp_path):
        path = tmp_path / "d.jsonl"
        self._write(
            path,
            [
                {"topic_id": 3, "docs": [self._doc_row(), self._doc_row(id="d-2")]},
                {"topic_id": 4, "docs": [self._doc_row(id="d-3")]},
            ],
        )
        docs = load_docs(path)
        assert sorted(docs) == [3, 4]
        assert [d.id for d in docs[3]] == ["d-1", "d-2"]
        record = docs[3][0]
        assert record.topic_id == 3
        assert record.title == "Flood at the mine"
        assert not hasattr(record, "imageUrl")

    def test_empty_content_doc_skipped(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        self._write(
            path,
            [{"topic_id": 1, "docs": [self._doc_row(content="   \n"), self._doc_row(id="d-2")]}],
        )
        with caplog.at_level(logging.WARNING):
            docs = load_docs(path)
        assert [d.id for d in docs[1]] == ["d-2"]
        assert any("d-1" in r.message for r in caplog.records)

    def test_duplicate_doc_id_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        self._write(path, [{"topic_id": 1, "docs": [self._doc_row(), self._doc_row()]}])
        with pytest.raises(CorpusError, match="d-1"):
            load_docs(path)

    def test_duplicate_topic_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        self._write(
            path,
            [
                {"topic_id": 1, "docs": [self._doc_row()]},
                {"topic_id": 1, "docs": [self._doc_row(id="d-9")]},
            ],
        )
        with pytest.raises(CorpusError, match="topic"):
            load_docs(path)

    def test_empty_topic_kept_with_warning(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        self._write(path, [{"topic_id": 7, "docs": []}])
        with caplog.at_level(logging.WARNING):
            docs = load_docs(path)
        assert docs[7] == []

    @pytest.mark.parametrize("field", ["target_event", *(f"option_{l}" for l in LETTERS)])
    @pytest.mark.parametrize("value", [None, ["x"], 3], ids=["null", "list", "number"])
    def test_question_text_not_a_string_fatal(self, tmp_path, field, value):
        path = tmp_path / "q.jsonl"
        self._write(path, [self._question_row(), self._question_row(id="q-2", **{field: value})])
        with pytest.raises(CorpusError) as info:
            load_questions(path)
        assert str(info.value) == f"{path}: line 2: {field} is not a string: {value!r}"

    @pytest.mark.parametrize("field", ["title", "content"])
    @pytest.mark.parametrize("value", [None, ["x"], 3], ids=["null", "list", "number"])
    def test_doc_text_not_a_string_fatal(self, tmp_path, field, value):
        path = tmp_path / "d.jsonl"
        docs = [self._doc_row(), self._doc_row(id="d-2", **{field: value})]
        self._write(path, [{"topic_id": 1, "docs": [self._doc_row(id="d-0")]}, {"topic_id": 2, "docs": docs}])
        with pytest.raises(CorpusError) as info:
            load_docs(path)
        assert str(info.value) == f"{path}: line 2: doc #1: {field} is not a string: {value!r}"

    @pytest.mark.parametrize(
        "load, line, problem",
        [
            (load_predictions, '["id", "prediction"]', "not a JSON object"),
            (load_questions, '"topic_id"', "not a JSON object"),
            (load_questions, json.dumps({**question_to_row(make_question()), "topic_id": "x"}),
             "topic_id is not an integer: 'x'"),
            (load_questions, json.dumps(question_to_row(make_question(topic=7))).replace(": 7", ": 1e400"),
             "topic_id is not an integer: inf"),
            (load_docs, '{"topic_id": "x", "docs": []}', "topic_id is not an integer: 'x'"),
            (load_docs, '{"topic_id": 1e400, "docs": []}', "topic_id is not an integer: inf"),
            (load_docs, '{"topic_id": 101.9, "docs": []}', "topic_id is not an integer: 101.9"),
            (load_docs, '{"topic_id": true, "docs": []}', "topic_id is not an integer: True"),
            (load_questions, json.dumps({**question_to_row(make_question()), "topic_id": 101.9}),
             "topic_id is not an integer: 101.9"),
            (load_questions, json.dumps({**question_to_row(make_question()), "topic_id": True}),
             "topic_id is not an integer: True"),
            (load_docs, '{"topic_id": 1, "docs": 5}', "docs is not an array"),
            (load_docs, '{"topic_id": 1, "docs": [5]}', "doc #0: not a JSON object"),
            (load_docs, '{"topic_id": 1, "docs": ["title id link snippet source content"]}',
             "doc #0: not a JSON object"),
            (load_docs, '{"topic_id": 1, "docs": ' + "[" * 100_000, "malformed JSON: maximum recursion depth"),
        ],
        ids=[
            "prediction-row-list", "question-row-string", "question-topic-string", "question-topic-overflow",
            "docs-topic-string", "docs-topic-overflow", "docs-topic-fraction", "docs-topic-bool",
            "question-topic-fraction", "question-topic-bool", "docs-not-a-list", "doc-number", "doc-string",
            "nested-deep",
        ],
    )
    def test_malformed_row_is_a_corpus_error_naming_its_line(self, tmp_path, load, line, problem):
        path = tmp_path / "rows.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: line 2: {problem}")

    @given(jsonl_bytes)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_raise_only_corpus_errors(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "arbitrary.jsonl"
        path.write_bytes(data)
        for load in (load_questions, load_docs, load_predictions):
            try:
                load(path)
            except CorpusError:
                pass


class TestRecordHelpers:
    def test_document_text(self):
        doc = DocumentRecord(
            topic_id=1,
            id="d",
            title="Title here",
            snippet="s",
            source="src",
            link="l",
            content="Body text.",
        )
        assert document_text(doc) == "Title here\nBody text."

    def test_question_round_trip(self, tmp_path):
        q = make_question(qid="q9", topic=5, gold={"B", "D"})
        row = question_to_row(q)
        path = tmp_path / "r.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
        back = load_questions(path)[0]
        assert back == q

    def test_question_is_frozen(self):
        q = make_question()
        with pytest.raises(AttributeError):
            q.id = "other"
