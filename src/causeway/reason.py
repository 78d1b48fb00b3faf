"""Structured prompting and self-consistency inference: prompt rendering,
answer parsing, LLM clients (two offline mocks and a remote chat API), vote
tallying, and threshold aggregation."""

from __future__ import annotations

import logging
import re
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import LETTERS, DocumentRecord, QuestionRecord, document_text, tokenize
from .remote import ConfigError, RemoteClient, RemoteError

logger = logging.getLogger(__name__)

PROMPT_TEMPLATE = """<role>
You are an expert in identifying the direct cause of events from textual evidence.
</role>

<task>
Given an event, context documents, and candidate explanations, analyze systematically to identify the most plausible direct cause(s).
</task>

<input_format>
<context_documents>
{documents}
</context_documents>

<target_event>{target_event}</target_event>

<options>
<option_a>{option_a}</option_a>
<option_b>{option_b}</option_b>
<option_c>{option_c}</option_c>
<option_d>{option_d}</option_d>
</options>
</input_format>

<instructions>

<reasoning_criteria>
- Base your reasoning ONLY on evidence from the provided context documents
- Look for direct causal relationships, not just correlations or temporal sequences
- Test logical sufficiency: Would this factor alone reasonably be enough to cause the event?
- Require both conditions: Direct textual support AND logical sufficiency to cause the event
- Use single-step reasoning: Avoid multi-step causal chains or indirect relationships
- Prioritize explicit causal language: "caused by," "resulted from," "led to," "triggered by," "due to"
</reasoning_criteria>

<selection_rules>
- Multiple options can be correct - choose ALL that apply
- Select multiple options only if each cause has strong evidence and is individually sufficient
- If options contradict each other, select the one with stronger textual evidence
- Always output ALL correct options, including duplicates: if options are duplicate/identical but correct, include both letters
- If none seems perfectly sufficient, select the single best-supported among A-D.
- NEVER create options beyond A, B, C, D
- There is always at least one correct option from A-D
</selection_rules>

<quality_checks>
- Verify each selected option has direct quotes or paraphrases from context
- Ensure you haven't made assumptions beyond what's explicitly stated
- Confirm logical sufficiency: could this realistically cause the event by itself?
- Valid answers in the <answer> section are only A,B,C,D; never output anything else; if uncertain, pick the best-supported among A-D and output it without explanations.
</quality_checks>

</instructions>

<output_format>

Provide your answer in EXACTLY this format (no additional text before or after):

<analysis>
Option A: [Your brief reasoning for option A - 1-2 sentences]
Option B: [Your brief reasoning for option B - 1-2 sentences]
Option C: [Your brief reasoning for option C - 1-2 sentences]
Option D: [Your brief reasoning for option D - 1-2 sentences]
</analysis>

<answer>
[Letter(s) ONLY - e.g., "B" or "B,D" or "C"]
</answer>

CRITICAL FORMATTING RULES:
- Start your response with <analysis> (no text before it)
- End your response with </answer> (no text after it)
- In <answer> tags, write ONLY letters: A, B, C, or D (comma-separated for multiple)
- DO NOT write "Option A" or "Option B" in the <answer> tags - just the letter(s)

</output_format>"""

_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL | re.IGNORECASE)
_ANALYSIS_RE = re.compile(r"<analysis>(.*?)</analysis>", re.DOTALL | re.IGNORECASE)
_TOKEN_SPLIT_RE = re.compile(r"[\s,;]+")


class LlmError(RemoteError):
    """An LLM request that failed on every attempt."""


@dataclass(frozen=True)
class RenderedPrompt:
    question_id: str
    text: str
    doc_count: int


@dataclass(frozen=True)
class ParsedPrediction:
    letters: frozenset[str]
    analysis: str
    valid: bool
    raw: str


@dataclass(frozen=True)
class SamplingParams:
    k: int = 3
    temperature: float = 1.0
    max_retries_on_parse_failure: int = 2


@dataclass(frozen=True)
class LlmClientSpec:
    kind: str = "mock-overlap"
    endpoint: str | None = None
    model: str | None = None
    auth_env: str | None = None
    script: Mapping[str, Sequence[str]] | None = None
    script_path: str | None = None  # a JSON file the CLI reads into script
    max_retries: int = 3
    backoff_base: float = 0.5


def escape(text: str) -> str:
    """xml.sax.saxutils.escape's replacements, without importing xml.sax."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def unescape(text: str) -> str:
    """xml.sax.saxutils.unescape's replacements, without importing xml.sax."""
    return text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


def render_prompt(q: QuestionRecord, docs: Sequence[DocumentRecord]) -> RenderedPrompt:
    """Fills the template with the question and its retrieved documents, in
    retrieval order. Injected text is XML-escaped so the block structure of
    the prompt survives arbitrary content. Byte-stable for fixed inputs."""
    doc_blocks = [
        f"<document_{i}>: {escape(document_text(doc))}</document_{i}>"
        for i, doc in enumerate(docs, start=1)
    ]
    text = PROMPT_TEMPLATE.format(
        documents="\n".join(doc_blocks),
        target_event=escape(q.target_event),
        option_a=escape(q.options["A"]),
        option_b=escape(q.options["B"]),
        option_c=escape(q.options["C"]),
        option_d=escape(q.options["D"]),
    )
    return RenderedPrompt(question_id=q.id, text=text, doc_count=len(docs))


def parse_response(raw: str) -> ParsedPrediction:
    """Reads the last <answer> block. Tokens are split on commas, semicolons,
    and whitespace; every token must be a letter A-D (case-insensitive),
    otherwise the whole sample is invalid."""
    analysis_blocks = _ANALYSIS_RE.findall(raw)
    analysis = analysis_blocks[-1].strip() if analysis_blocks else ""
    answer_blocks = _ANSWER_RE.findall(raw)
    if not answer_blocks:
        return ParsedPrediction(frozenset(), analysis, False, raw)
    tokens = [t.upper() for t in _TOKEN_SPLIT_RE.split(answer_blocks[-1].strip()) if t]
    if not tokens or any(t not in LETTERS for t in tokens):
        return ParsedPrediction(frozenset(), analysis, False, raw)
    return ParsedPrediction(frozenset(tokens), analysis, True, raw)


# what ScriptedMockClient answers for a question its script does not list
_SCRIPT_DEFAULT = ("<answer>A</answer>",)


class ScriptedMockClient:
    """Replays canned responses per question id; each call consumes the next
    entry and the last entry repeats once the script runs out."""

    def __init__(self, script: Mapping[str, Sequence[str]]):
        self._script = {qid: list(responses) for qid, responses in script.items()}
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(
        self,
        prompt: str,
        temperature: float = 1.0,
        question_id: str | None = None,
    ) -> str:
        key = question_id or "__default__"
        responses = self._script.get(key, _SCRIPT_DEFAULT)
        with self._lock:
            pos = self._cursor.get(key, 0)
            self._cursor[key] = pos + 1
        return responses[min(pos, len(responses) - 1)]


_PROMPT_OPTION_RES = {
    letter: re.compile(rf"<option_{letter.lower()}>(.*?)</option_{letter.lower()}>", re.DOTALL)
    for letter in LETTERS
}
_PROMPT_DOCS_RE = re.compile(r"<context_documents>(.*?)</context_documents>", re.DOTALL)


class OverlapMockClient:
    """Deterministic stand-in model: selects the option(s) whose tokens
    overlap the context documents the most. Reads everything it needs back
    out of the rendered prompt, like a real model would."""

    def complete(
        self,
        prompt: str,
        temperature: float = 1.0,
        question_id: str | None = None,
    ) -> str:
        docs_match = _PROMPT_DOCS_RE.search(prompt)
        doc_tokens = set(tokenize(unescape(docs_match.group(1)))) if docs_match else set()
        scores: dict[str, int] = {}
        for letter, pattern in _PROMPT_OPTION_RES.items():
            match = pattern.search(prompt)
            option_tokens = set(tokenize(unescape(match.group(1)))) if match else set()
            scores[letter] = len(option_tokens & doc_tokens)
        best = max(scores.values())
        chosen = [l for l in LETTERS if scores[l] == best]
        lines = [f"Option {l}: overlap score {scores[l]}." for l in LETTERS]
        return (
            "<analysis>\n" + "\n".join(lines) + "\n</analysis>\n\n"
            "<answer>\n" + ",".join(chosen) + "\n</answer>"
        )


class RemoteChatClient(RemoteClient):
    """POSTs {"model", "messages", "temperature"} and expects {"content"}.
    The prompt travels as a single user message."""

    error = LlmError
    label = "LLM"
    timeout = 120

    def complete(
        self,
        prompt: str,
        temperature: float = 1.0,
        question_id: str | None = None,
    ) -> str:
        payload = {
            "model": self.spec.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        return self._post(payload, lambda body: str(body["content"]))


def make_client(spec: LlmClientSpec):
    if spec.kind == "mock-scripted":
        return ScriptedMockClient(spec.script or {})
    if spec.kind == "mock-overlap":
        return OverlapMockClient()
    if spec.kind == "remote":
        return RemoteChatClient(spec)
    raise ConfigError(f"unknown LLM client kind {spec.kind!r}")


def sample_question(
    q: QuestionRecord,
    docs: Sequence[DocumentRecord],
    client,
    params: SamplingParams = SamplingParams(),
) -> list[ParsedPrediction]:
    """Draws k samples for one question. A sample that fails to parse is
    re-requested up to max_retries_on_parse_failure times before being kept
    as invalid. Transport failures are logged and recorded as invalid
    placeholders; the run continues."""
    prompt = render_prompt(q, docs)
    samples: list[ParsedPrediction] = []
    for i in range(params.k):
        parsed = ParsedPrediction(frozenset(), "", False, "")
        for attempt in range(params.max_retries_on_parse_failure + 1):
            try:
                raw = client.complete(
                    prompt.text,
                    temperature=params.temperature,
                    question_id=q.id,
                )
            except Exception as exc:  # transport failure: keep the placeholder
                logger.error("question %s sample %d failed: %s", q.id, i, exc)
                break
            parsed = parse_response(raw)
            if parsed.valid:
                break
            if attempt < params.max_retries_on_parse_failure:
                logger.info("question %s sample %d unparseable, retrying", q.id, i)
        samples.append(parsed)
    return samples


@dataclass(frozen=True)
class VoteTally:
    counts: dict[str, int]
    k: int


def tally(samples: Sequence[ParsedPrediction]) -> VoteTally:
    """Letter counts over valid samples. Invalid samples still count in the
    denominator k."""
    counts = {letter: 0 for letter in LETTERS}
    for sample in samples:
        if sample.valid:
            for letter in sample.letters:
                counts[letter] += 1
    return VoteTally(counts=counts, k=len(samples))


def threshold_votes(votes: VoteTally, theta: float) -> frozenset[str]:
    """Raw threshold stage: letters whose vote share reaches theta."""
    if votes.k <= 0:
        raise ValueError("tally needs at least one sample")
    return frozenset(l for l in LETTERS if votes.counts[l] / votes.k >= theta)


def aggregate(votes: VoteTally, q: QuestionRecord, theta: float = 0.5) -> frozenset[str]:
    """Thresholds the tally, then resolves mixed rejection/substantive picks
    in favor of the higher-voted side (ties keep the substantive side). An
    empty result falls back to the single top-voted letter, alphabetical on
    ties. Never returns an empty set."""
    raw = threshold_votes(votes, theta)
    nones = q.none_letters
    none_part = raw & nones
    subst_part = raw - nones
    if none_part and subst_part:
        none_votes = max(votes.counts[l] for l in none_part)
        subst_votes = max(votes.counts[l] for l in subst_part)
        raw = none_part if none_votes > subst_votes else subst_part
    if not raw:
        best = max(votes.counts.values())
        for letter in LETTERS:
            if votes.counts[letter] == best:
                return frozenset([letter])
    return raw
