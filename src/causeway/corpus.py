"""Question and document corpus loading, plus the text canonicalization that
every equality check in the pipeline relies on and the tokenizer that every
lexical match relies on."""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

logger = logging.getLogger(__name__)

LETTERS = ("A", "B", "C", "D")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_GOLD_SPLIT_RE = re.compile(r"[,\s]+")
_TRAILING_PUNCT = ".!?…"
_NONE_PREFIX = "none of the"

_QUESTION_FIELDS = (
    "topic_id",
    "id",
    "target_event",
    "option_A",
    "option_B",
    "option_C",
    "option_D",
)
_DOC_FIELDS = ("title", "id", "link", "snippet", "source", "content")


class CorpusError(ValueError):
    """Raised when an input file violates the corpus contract."""


@dataclass(frozen=True)
class QuestionRecord:
    """One question. The facts the stages read about it are computed from
    its fields on first use and kept on the record, so a stage normalizes
    each text once however many rules ask."""

    topic_id: int
    id: str
    target_event: str
    options: dict[str, str]
    gold: frozenset[str] | None = None

    @cached_property
    def texts(self) -> dict[str, str]:
        """Each option's normalized text, by letter."""
        return {l: normalize_text(self.options[l]) for l in LETTERS}

    @cached_property
    def none_letters(self) -> frozenset[str]:
        """Letters of "none of the others" style rejection options."""
        return frozenset(l for l in LETTERS if self.texts[l].startswith(_NONE_PREFIX))

    @cached_property
    def substantive(self) -> frozenset[str]:
        """Letters that are not rejection options."""
        return frozenset(LETTERS) - self.none_letters

    @cached_property
    def substantive_texts(self) -> list[str]:
        """The distinct normalized texts of the substantive letters, sorted."""
        return sorted({self.texts[l] for l in self.substantive})

    @cached_property
    def classes(self) -> tuple[frozenset[str], ...]:
        """Partition of the four letters by normalized option text, ordered
        by first member letter."""
        by_text: dict[str, list[str]] = {}
        for letter in LETTERS:
            by_text.setdefault(self.texts[letter], []).append(letter)
        return tuple(frozenset(group) for group in sorted(by_text.values()))

    @cached_property
    def event_key(self) -> str:
        """The normalized target event, which names the sibling group."""
        return normalize_text(self.target_event)


@dataclass(frozen=True)
class DocumentRecord:
    topic_id: int
    id: str
    title: str
    snippet: str
    source: str
    link: str
    content: str


@dataclass(frozen=True)
class SiblingGroup:
    """Questions from one topic that share a normalized target event."""

    topic_id: int
    event_key: str
    question_ids: tuple[str, ...]


def _normalize_pass(text: str) -> str:
    out = unicodedata.normalize("NFC", text)
    out = out.casefold()
    # casefolding can decompose characters, so recompose before comparing
    out = unicodedata.normalize("NFC", out)
    out = " ".join(out.split())
    out = out.rstrip(_TRAILING_PUNCT).rstrip()
    return out


def normalize_text(text: str) -> str:
    """Canonical form for equality checks: composed, casefolded, single-spaced,
    stripped of edge whitespace and trailing sentence punctuation.

    The pass is re-applied until the string stops changing, so the result is a
    fixed point and the function is idempotent by construction. On ASCII text
    NFC is the identity, casefold is lower and "…" cannot occur, so the fixed
    point is the collapsed text stripped of trailing ".", "!", "?" and spaces.
    """
    if text.isascii():
        return " ".join(text.lower().split()).rstrip(".!? ")
    out = _normalize_pass(text)
    nxt = _normalize_pass(out)
    while nxt != out:
        out, nxt = nxt, _normalize_pass(nxt)
    return nxt


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens; underscores and punctuation split."""
    return _TOKEN_RE.findall(text.lower())


def sibling_groups(questions: list[QuestionRecord]) -> list[SiblingGroup]:
    """Group questions by (topic_id, normalized target event), preserving the
    input order of both groups and members."""
    grouped: dict[tuple[int, str], list[str]] = {}
    for q in questions:
        grouped.setdefault((q.topic_id, q.event_key), []).append(q.id)
    return [
        SiblingGroup(topic_id=topic_id, event_key=event_key, question_ids=tuple(ids))
        for (topic_id, event_key), ids in grouped.items()
    ]


def parse_gold(raw: str, prefix: str = "") -> frozenset[str]:
    tokens = [t.upper() for t in _GOLD_SPLIT_RE.split(raw.strip()) if t]
    if not tokens or any(t not in LETTERS for t in tokens):
        raise CorpusError(f"{prefix}invalid gold answer string: {raw!r}")
    return frozenset(tokens)


def document_text(doc: DocumentRecord) -> str:
    """Text used for indexing and embedding: title plus body."""
    if doc.title:
        return f"{doc.title}\n{doc.content}"
    return doc.content


def _require(where: str, row, fields: Sequence[str]) -> None:
    if not isinstance(row, dict):
        raise CorpusError(f"{where}: not a JSON object")
    missing = [k for k in fields if k not in row]
    if missing:
        raise CorpusError(f"{where}: missing required fields {missing}")


def _topic_id(where: str, row: dict) -> int:
    """The row's topic_id: an integer, or a string or float that is one; not a bool."""
    value = row["topic_id"]
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorpusError(f"{where}: topic_id is not an integer: {value!r}") from exc


def _text(where: str, row: dict, field: str) -> str:
    """The row's field, which must be a JSON string."""
    value = row[field]
    if not isinstance(value, str):
        raise CorpusError(f"{where}: {field} is not a string: {value!r}")
    return value


def _rows(path: str | Path, lines: Iterable[str], fields: Sequence[str]) -> Iterator[tuple[str, dict]]:
    """Each non-blank JSONL line of the file at path, parsed, with its "<path>:
    line N" for messages. Bytes that are not UTF-8, malformed JSON, a row that
    is not an object and missing fields are fatal."""
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also an integer too long, nesting too deep
                raise CorpusError(f"{where}: malformed JSON: {exc}") from exc
            _require(where, row, fields)
            yield where, row
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8: {exc}") from exc


def load_questions(path: str | Path) -> list[QuestionRecord]:
    """Read one question per JSONL line.

    Malformed JSON, missing required fields and a target event or option
    that is not a string are fatal and carry the line number. Unknown fields
    are ignored with a log note. The gold answer is
    optional; when present it must be a non-empty comma-separated subset of
    A-D.
    """
    records: list[QuestionRecord] = []
    seen_ids: set[str] = set()
    known = set(_QUESTION_FIELDS) | {"golden_answer"}
    with open(path, "r", encoding="utf-8") as fh:
        for where, row in _rows(path, fh, _QUESTION_FIELDS):
            extra = sorted(set(row) - known)
            if extra:
                logger.info("%s: ignoring unknown fields %s", where, extra)
            qid = str(row["id"])
            if qid in seen_ids:
                raise CorpusError(f"{where}: duplicate question id {qid!r}")
            seen_ids.add(qid)
            gold = None
            if row.get("golden_answer") is not None:
                gold = parse_gold(str(row["golden_answer"]), f"{where}: ")
            records.append(
                QuestionRecord(
                    topic_id=_topic_id(where, row),
                    id=qid,
                    target_event=_text(where, row, "target_event"),
                    options={l: _text(where, row, f"option_{l}") for l in LETTERS},
                    gold=gold,
                )
            )
    return records


def load_docs(path: str | Path) -> dict[int, list[DocumentRecord]]:
    """Read one topic per JSONL line, each carrying a document array.

    Documents with whitespace-only content are skipped with a warning; the
    rest of the topic still loads. Duplicate document ids within a topic and
    a title or content that is not a string are fatal. The imageUrl field is
    accepted and discarded.
    """
    topics: dict[int, list[DocumentRecord]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for where, row in _rows(path, fh, ("topic_id", "docs")):
            topic_id = _topic_id(where, row)
            if topic_id in topics:
                raise CorpusError(f"{where}: duplicate topic_id {topic_id}")
            docs: list[DocumentRecord] = []
            seen_ids: set[str] = set()
            if not isinstance(row["docs"], list):
                raise CorpusError(f"{where}: docs is not an array")
            for pos, item in enumerate(row["docs"]):
                doc_where = f"{where}: doc #{pos}"
                _require(doc_where, item, _DOC_FIELDS)
                doc_id = str(item["id"])
                if doc_id in seen_ids:
                    raise CorpusError(f"{where}: duplicate doc id {doc_id!r} in topic {topic_id}")
                title, content = _text(doc_where, item, "title"), _text(doc_where, item, "content")
                if not content.strip():
                    logger.warning("%s: doc %s has whitespace-only content, skipped", where, doc_id)
                    continue
                seen_ids.add(doc_id)
                docs.append(
                    DocumentRecord(
                        topic_id=topic_id,
                        id=doc_id,
                        title=title,
                        snippet=str(item["snippet"]),
                        source=str(item["source"]),
                        link=str(item["link"]),
                        content=content,
                    )
                )
            if not docs:
                logger.warning("%s: topic %d has no usable documents", where, topic_id)
            topics[topic_id] = docs
    return topics


def parse_predictions(path: str | Path, lines: Iterable[str]) -> dict[str, frozenset[str]]:
    """{"id": ..., "prediction": "A,C"} rows, read from the lines of the
    file at path."""
    preds: dict[str, frozenset[str]] = {}
    for where, row in _rows(path, lines, ("id", "prediction")):
        preds[str(row["id"])] = parse_gold(str(row["prediction"]), f"{where}: ")
    return preds


def load_predictions(path: str | Path) -> dict[str, frozenset[str]]:
    """Reads {"id": ..., "prediction": "A,C"} lines."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_predictions(path, fh)
