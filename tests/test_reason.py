from __future__ import annotations

import itertools
from xml.sax import saxutils

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway.corpus import LETTERS, DocumentRecord
from causeway.reason import (
    PROMPT_TEMPLATE,
    LlmClientSpec,
    LlmError,
    OverlapMockClient,
    ParsedPrediction,
    RemoteChatClient,
    SamplingParams,
    ScriptedMockClient,
    VoteTally,
    aggregate,
    escape,
    make_client,
    parse_response,
    render_prompt,
    sample_question,
    tally,
    threshold_votes,
    unescape,
)
from helpers import NONE_TEXT, make_question, model_responses, reference_answer_letters


ESCAPE_PIECES = ["&", "<", ">", "&lt;", "&gt;", "&amp;", "&amp;lt;", "&&lt;", "a", ";"]


def make_doc(doc_id: str, title: str, content: str) -> DocumentRecord:
    return DocumentRecord(
        topic_id=1, id=doc_id, title=title, snippet="", source="t", link="", content=content
    )


class TestPromptTemplate:
    def test_placeholders_present(self):
        for name in ("{documents}", "{target_event}", "{option_a}", "{option_b}", "{option_c}", "{option_d}"):
            assert name in PROMPT_TEMPLATE

    def test_structural_blocks_present(self):
        for tag in (
            "<role>",
            "<task>",
            "<context_documents>",
            "<target_event>",
            "<options>",
            "<reasoning_criteria>",
            "<selection_rules>",
            "<quality_checks>",
            "<output_format>",
            "<analysis>",
            "<answer>",
        ):
            assert tag in PROMPT_TEMPLATE, tag


class TestRenderPrompt:
    def _inputs(self):
        q = make_question(
            qid="q7",
            event="The dam failed",
            a="Heavy rain",
            b="Sabotage",
            c="Old turbines",
            d=NONE_TEXT,
        )
        docs = [
            make_doc("d1", "Rain report", "Heavy rain fell for days."),
            make_doc("d2", "Inspection", "Turbines showed wear."),
        ]
        return q, docs

    def test_injects_question_fields(self):
        q, docs = self._inputs()
        prompt = render_prompt(q, docs)
        assert prompt.question_id == "q7"
        assert prompt.doc_count == 2
        assert "The dam failed" in prompt.text
        assert "Heavy rain" in prompt.text
        assert NONE_TEXT in prompt.text

    def test_documents_numbered_in_order(self):
        q, docs = self._inputs()
        text = render_prompt(q, docs).text
        first = text.index("<document_1>: Rain report\nHeavy rain fell for days.</document_1>")
        second = text.index("<document_2>: Inspection\nTurbines showed wear.</document_2>")
        assert first < second

    def test_no_documents(self):
        q, _ = self._inputs()
        prompt = render_prompt(q, [])
        assert prompt.doc_count == 0
        assert "<document_1>" not in prompt.text

    def test_xml_escaping(self):
        q = make_question(a="use <b> & </b> tags")
        docs = [make_doc("d1", "T <i>", "body & more")]
        text = render_prompt(q, docs).text
        assert "use &lt;b&gt; &amp; &lt;/b&gt; tags" in text
        assert "T &lt;i&gt;" in text
        assert "<b>" not in text

    def test_byte_stable(self):
        q, docs = self._inputs()
        assert render_prompt(q, docs).text == render_prompt(q, docs).text

    # besides arbitrary text, text built from the pieces escaping turns on,
    # already-escaped entities among them, so that the order of the
    # replacements shows
    @given(st.one_of(st.text(), st.lists(st.sampled_from(ESCAPE_PIECES)).map("".join)))
    def test_escape_and_unescape_match_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)
        assert unescape(text) == saxutils.unescape(text)
        assert unescape(escape(text)) == text


class TestParseResponse:
    def test_single_letter(self):
        parsed = parse_response("<analysis>x</analysis><answer>B</answer>")
        assert parsed.valid
        assert parsed.letters == frozenset({"B"})
        assert parsed.analysis == "x"

    @pytest.mark.parametrize(
        "body,expected",
        [
            ("B,D", {"B", "D"}),
            ("b, d", {"B", "D"}),
            ("A B", {"A", "B"}),
            ("a;c", {"A", "C"}),
            ("\nA,\nB\n", {"A", "B"}),
            ("D", {"D"}),
        ],
    )
    def test_separators_and_case(self, body, expected):
        parsed = parse_response(f"<answer>{body}</answer>")
        assert parsed.valid
        assert parsed.letters == frozenset(expected)

    def test_last_answer_block_wins(self):
        raw = "<answer>A</answer> reconsidering <answer>C,D</answer>"
        parsed = parse_response(raw)
        assert parsed.letters == frozenset({"C", "D"})

    @pytest.mark.parametrize(
        "raw",
        [
            "no blocks at all",
            "<answer></answer>",
            "<answer>   </answer>",
            "<answer>E</answer>",
            "<answer>A,E</answer>",
            "<answer>Option A</answer>",
            "<answer>AB</answer>",
            "<answer>1</answer>",
        ],
    )
    def test_invalid(self, raw):
        parsed = parse_response(raw)
        assert not parsed.valid
        assert parsed.letters == frozenset()

    def test_invalid_keeps_raw_for_audit(self):
        parsed = parse_response("garbage")
        assert parsed.raw == "garbage"

    def test_duplicate_letters_collapse(self):
        parsed = parse_response("<answer>A,A,B</answer>")
        assert parsed.letters == frozenset({"A", "B"})

    def test_case_insensitive_tags(self):
        parsed = parse_response("<ANSWER>c</ANSWER>")
        assert parsed.valid
        assert parsed.letters == frozenset({"C"})

    @given(model_responses)
    @settings(max_examples=500, deadline=None)
    def test_adversarial_responses_match_the_reference(self, raw):
        parsed = parse_response(raw)
        assert parsed.letters == reference_answer_letters(raw)
        assert parsed.valid == bool(parsed.letters)
        assert parsed.letters <= set(LETTERS)
        assert parsed.raw == raw


class TestScriptedMockClient:
    def test_replays_in_order(self):
        client = ScriptedMockClient({"q1": ["r1", "r2"]})
        assert client.complete("p", question_id="q1") == "r1"
        assert client.complete("p", question_id="q1") == "r2"

    def test_exhausted_script_repeats_last(self):
        client = ScriptedMockClient({"q1": ["r1"]})
        client.complete("p", question_id="q1")
        assert client.complete("p", question_id="q1") == "r1"

    def test_unknown_question_uses_default(self):
        client = ScriptedMockClient({"q1": ["r1"]})
        assert client.complete("p", question_id="qx") == "<answer>A</answer>"
        assert client.complete("p", question_id="qx") == "<answer>A</answer>"

    def test_separate_cursors_per_question(self):
        client = ScriptedMockClient({"q1": ["a1", "a2"], "q2": ["b1", "b2"]})
        assert client.complete("p", question_id="q1") == "a1"
        assert client.complete("p", question_id="q2") == "b1"
        assert client.complete("p", question_id="q1") == "a2"


class TestOverlapMockClient:
    def test_selects_overlapping_option(self):
        q = make_question(
            a="a wage dispute caused the strike",
            b="a meteor shower",
            c="cold weather",
            d=NONE_TEXT,
        )
        docs = [make_doc("d1", "Strike news", "The wage dispute caused the strike at the port.")]
        prompt = render_prompt(q, docs)
        raw = OverlapMockClient().complete(prompt.text)
        parsed = parse_response(raw)
        assert parsed.valid
        assert parsed.letters == frozenset({"A"})

    def test_emits_analysis_block(self):
        q = make_question()
        prompt = render_prompt(q, [make_doc("d1", "t", "alpha text")])
        raw = OverlapMockClient().complete(prompt.text)
        assert parse_response(raw).analysis


class TestRemoteChatClient:
    def _spec(self, url, **overrides):
        params = dict(
            kind="remote",
            endpoint=url + "/chat",
            model="chat-test",
            max_retries=3,
            backoff_base=0.01,
        )
        params.update(overrides)
        return LlmClientSpec(**params)

    def test_round_trip(self, fake_server):
        fake_server.set_responder(
            lambda path, body, headers: (200, {"content": "<answer>A</answer>"})
        )
        client = RemoteChatClient(self._spec(fake_server.url), sleep=lambda s: None)
        out = client.complete("the prompt", temperature=0.7)
        assert out == "<answer>A</answer>"
        body = fake_server.requests[0]["body"]
        assert body["model"] == "chat-test"
        assert body["temperature"] == 0.7
        assert body["messages"] == [{"role": "user", "content": "the prompt"}]

    def test_auth_header(self, fake_server, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-llm")
        fake_server.set_responder(lambda path, body, headers: (200, {"content": "x"}))
        spec = self._spec(fake_server.url, auth_env="TEST_LLM_KEY")
        RemoteChatClient(spec, sleep=lambda s: None).complete("p")
        assert fake_server.requests[0]["headers"].get("Authorization") == "Bearer sk-llm"

    def test_retry_then_success(self, fake_server):
        state = {"calls": 0}

        def responder(path, body, headers):
            state["calls"] += 1
            if state["calls"] < 3:
                return 500, {}
            return 200, {"content": "ok"}

        fake_server.set_responder(responder)
        client = RemoteChatClient(self._spec(fake_server.url), sleep=lambda s: None)
        assert client.complete("p") == "ok"
        assert state["calls"] == 3

    def test_gives_up_with_attempt_count(self, fake_server):
        fake_server.set_responder(lambda path, body, headers: (500, {}))
        client = RemoteChatClient(self._spec(fake_server.url, max_retries=2), sleep=lambda s: None)
        with pytest.raises(LlmError) as err:
            client.complete("p")
        assert err.value.attempts == 2

    def test_missing_endpoint(self):
        with pytest.raises(ValueError):
            RemoteChatClient(LlmClientSpec(kind="remote"))


class TestMakeClient:
    def test_dispatch(self):
        assert isinstance(make_client(LlmClientSpec(kind="mock-overlap")), OverlapMockClient)
        assert isinstance(
            make_client(LlmClientSpec(kind="mock-scripted", script={})), ScriptedMockClient
        )
        assert isinstance(
            make_client(LlmClientSpec(kind="remote", endpoint="http://x", model="m")),
            RemoteChatClient,
        )
        with pytest.raises(ValueError):
            make_client(LlmClientSpec(kind="nope"))


class TestSampleQuestion:
    def test_draws_k_samples(self):
        q = make_question(qid="q1")
        client = ScriptedMockClient({"q1": ["<answer>A</answer>"]})
        samples = sample_question(q, [], client, SamplingParams(k=3))
        assert len(samples) == 3
        assert all(s.valid and s.letters == frozenset({"A"}) for s in samples)

    def test_parse_failure_retried_then_recovers(self):
        q = make_question(qid="q1")
        client = ScriptedMockClient({"q1": ["complete garbage", "<answer>B</answer>"]})
        samples = sample_question(q, [], client, SamplingParams(k=1))
        assert len(samples) == 1
        assert samples[0].valid
        assert samples[0].letters == frozenset({"B"})

    def test_persistent_garbage_kept_invalid(self):
        q = make_question(qid="q1")
        client = ScriptedMockClient({"q1": ["junk"]})
        samples = sample_question(q, [], client, SamplingParams(k=2, max_retries_on_parse_failure=2))
        assert len(samples) == 2
        assert not any(s.valid for s in samples)

    def test_transport_error_becomes_invalid_placeholder(self):
        q = make_question(qid="q1")

        class FlakyClient:
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, temperature=1.0, question_id=None, sample_index=0):
                self.calls += 1
                if self.calls == 1:
                    raise LlmError("down", attempts=3)
                return "<answer>C</answer>"

        samples = sample_question(q, [], FlakyClient(), SamplingParams(k=3))
        assert [s.valid for s in samples] == [False, True, True]
        assert samples[1].letters == frozenset({"C"})


def _tally(a=0, b=0, c=0, d=0, k=None):
    counts = {"A": a, "B": b, "C": c, "D": d}
    return VoteTally(counts=counts, k=k if k is not None else max(sum(counts.values()), 1))


class TestTally:
    def test_counts_valid_samples_only(self):
        samples = [
            ParsedPrediction(frozenset({"A", "B"}), "", True, ""),
            ParsedPrediction(frozenset({"A"}), "", True, ""),
            ParsedPrediction(frozenset(), "", False, "junk"),
        ]
        votes = tally(samples)
        assert votes.counts == {"A": 2, "B": 1, "C": 0, "D": 0}
        assert votes.k == 3

    def test_empty_input(self):
        votes = tally([])
        assert votes.k == 0


class TestThresholdVotes:
    def test_share_reaches_theta(self):
        votes = _tally(a=3, b=2, k=3)
        assert threshold_votes(votes, 0.5) == frozenset({"A", "B"})
        assert threshold_votes(votes, 0.67) == frozenset({"A"})
        assert threshold_votes(votes, 1.0) == frozenset({"A"})

    def test_boundary_inclusive(self):
        votes = _tally(a=1, k=2)
        assert threshold_votes(votes, 0.5) == frozenset({"A"})

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            threshold_votes(_tally(k=0), 0.5)

    def test_invalid_samples_stay_in_denominator(self):
        samples = [
            ParsedPrediction(frozenset({"A"}), "", True, ""),
            ParsedPrediction(frozenset(), "", False, ""),
            ParsedPrediction(frozenset(), "", False, ""),
        ]
        votes = tally(samples)
        assert threshold_votes(votes, 0.5) == frozenset()


class TestAggregate:
    def test_majority(self):
        q = make_question()
        votes = _tally(a=3, b=1, k=3)
        assert aggregate(votes, q, 0.5) == frozenset({"A"})

    def test_multi_label(self):
        q = make_question()
        votes = _tally(a=2, c=2, k=3)
        assert aggregate(votes, q, 0.5) == frozenset({"A", "C"})

    def test_conflict_resolved_toward_higher_votes(self):
        q = make_question(d=NONE_TEXT)
        votes = _tally(a=2, d=3, k=3)
        assert aggregate(votes, q, 0.5) == frozenset({"D"})

    def test_conflict_tie_keeps_substantive(self):
        q = make_question(d=NONE_TEXT)
        votes = _tally(a=2, d=2, k=3)
        assert aggregate(votes, q, 0.5) == frozenset({"A"})

    def test_conflict_without_none_option_untouched(self):
        q = make_question()
        votes = _tally(a=2, d=2, k=3)
        assert aggregate(votes, q, 0.5) == frozenset({"A", "D"})

    def test_empty_threshold_falls_back_to_top_voted(self):
        q = make_question()
        votes = _tally(a=1, b=2, k=3)
        assert aggregate(votes, q, 1.0) == frozenset({"B"})

    def test_fallback_tie_alphabetical(self):
        q = make_question()
        votes = _tally(b=1, c=1, k=3)
        assert aggregate(votes, q, 1.0) == frozenset({"B"})

    def test_all_invalid_falls_back_to_a(self):
        q = make_question()
        votes = _tally(k=3)
        assert aggregate(votes, q, 0.5) == frozenset({"A"})

    def test_never_empty_exhaustive_k3(self):
        q = make_question(d=NONE_TEXT)
        for counts in itertools.product(range(4), repeat=4):
            if sum(counts) > 3:
                continue
            votes = _tally(*counts, k=3)
            for theta in (0.33, 0.5, 0.67, 1.0):
                assert aggregate(votes, q, theta)

    def test_strict_equals_intersection_at_k3(self):
        q = make_question(d=NONE_TEXT)
        for counts in itertools.product(range(4), repeat=4):
            if sum(counts) > 3:
                continue
            votes = _tally(*counts, k=3)
            strict = aggregate(votes, q, 0.67)
            inter = aggregate(votes, q, 1.0)
            assert strict == inter, counts

    @given(
        counts=st.tuples(*(st.integers(min_value=0, max_value=7) for _ in range(4))),
        lower=st.floats(min_value=0.01, max_value=1.0),
        upper=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_threshold_monotone(self, counts, lower, upper):
        if lower > upper:
            lower, upper = upper, lower
        k = max(sum(counts), 1)
        votes = _tally(*counts, k=k)
        assert threshold_votes(votes, upper) <= threshold_votes(votes, lower)
