"""Seeded synthetic corpora for the benchmark workloads.

Every topic gets its own syllable inventory, so its made-up words share few
character trigrams with any other topic's. The mock embedder and BM25+ then
separate a topic's documents from the distractors planted among them, and
retrieval has something to exclude. Within a topic, documents follow the
topic's threads (sub-events), and only part of the all-pairs graph
survives the edge threshold.

The program under test only ever sees the files written by `write_workload`;
the distractor list and the sizes stay on the benchmark's side.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

LETTERS = ("A", "B", "C", "D")
NONE_TEXT = "None of the others are correct causes."

_ONSETS = [
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v",
    "w", "z", "br", "cr", "dr", "fl", "gr", "kl", "pr", "sk", "sl", "st", "tr", "vr",
    "zh", "sh", "ch", "th", "qu", "x",
]
_VOWELS = ["a", "e", "i", "o", "u", "au", "ei", "ou", "y"]
_CODAS = ["", "", "n", "r", "s", "l", "k", "m", "x", "nd", "rt", "sk"]

_FILLER = (
    "officials said on monday that the situation was being closely monitored "
    "while residents reported further developments across the region and "
    "analysts expected more details later this week according to statements "
    "released by local authorities"
).split()
_VERBS = [
    "disrupted", "halted", "delayed", "triggered", "boosted", "cut", "reopened",
    "closed", "expanded", "suspended", "approved", "blocked", "raised", "lowered",
]
_DAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"]
_SOURCES = ["Harbor Daily", "Metro Wire", "Valley Post", "Coastal Times", "Civic Ledger"]

# share of options that are rejection options, and of questions that repeat
# one option text under two letters; the same in every workload
REJECTION_SHARE = 0.15
DUPLICATE_SHARE = 0.15
SYLLABLES_PER_VOCAB = 14


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes of one workload. distractor_share is a share of documents."""

    name: str
    topics: int
    docs_per_topic: int
    distractor_share: float
    questions: int
    group_sizes: tuple[int, int]
    k: int
    sentences: tuple[int, int]
    threads: int
    remote: bool = False
    extra_models: int = 0
    max_workers: int = 1


WORKLOADS = {
    "wide-topics": WorkloadSpec(
        name="wide-topics", topics=12, docs_per_topic=60, distractor_share=0.2,
        questions=120, group_sizes=(2, 4), k=3, sentences=(14, 22), threads=1,
    ),
    "many-questions": WorkloadSpec(
        name="many-questions", topics=250, docs_per_topic=6, distractor_share=0.2,
        questions=1500, group_sizes=(2, 6), k=5, sentences=(4, 7), threads=2,
    ),
    "dev-remote": WorkloadSpec(
        name="dev-remote", topics=36, docs_per_topic=16, distractor_share=0.2,
        questions=400, group_sizes=(2, 5), k=3, sentences=(6, 10), threads=3,
        remote=True, extra_models=2, max_workers=2,
    ),
}


class _Vocab:
    """Made-up words built from a private syllable inventory."""

    def __init__(self, rng: random.Random):
        syllables = set()
        while len(syllables) < SYLLABLES_PER_VOCAB:
            syllables.add(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS))
        self._syllables = sorted(syllables)
        self._rng = rng
        self._seen: set[str] = set()

    def words(self, n: int) -> list[str]:
        out = []
        while len(out) < n:
            word = "".join(self._rng.choice(self._syllables) for _ in range(self._rng.randint(2, 3)))
            if word not in self._seen:
                self._seen.add(word)
                out.append(word)
        return out


@dataclass
class _Thread:
    nouns: list[str]
    entities: list[str]
    causes: list[str]


@dataclass
class _Event:
    text: str
    causes: list[tuple[str, bool]]


def _sentence(rng: random.Random, nouns: list[str], entities: list[str], filler_share: float) -> str:
    words = [rng.choice(entities).capitalize(), rng.choice(_VERBS)]
    for _ in range(rng.randint(6, 10)):
        if rng.random() < filler_share:
            words.append(rng.choice(_FILLER))
        else:
            words.append(rng.choice(nouns))
    words.insert(rng.randint(3, len(words)), f"in {rng.choice(entities).capitalize()}")
    words.append(f"on {rng.choice(_DAYS)}")
    return "The " + " ".join(words) + "."


def _cause(rng: random.Random, words: list[str]) -> str:
    return f"The {words[0]} {rng.choice(_VERBS)} the {words[1]} {words[2]}."


def _make_thread(rng: random.Random, topic_words: list[str]) -> _Thread:
    """A sub-event: a few of the topic's words plus words of its own, from a
    syllable inventory of its own."""
    own = _Vocab(rng)
    nouns = rng.sample(topic_words, 5) + own.words(12)
    return _Thread(nouns=nouns, entities=own.words(3), causes=[])


def _make_event(rng: random.Random, vocab: _Vocab, thread: _Thread) -> _Event:
    """A target event of one sibling group, with its pool of true causes
    (written into the thread's documents) and false ones."""
    subject = vocab.words(1)[0]
    thread.nouns.append(subject)
    text = f"the {subject} {rng.choice(_VERBS)} near {rng.choice(thread.entities).capitalize()}"
    true = [_cause(rng, rng.sample(thread.nouns, 3)) for _ in range(rng.randint(2, 3))]
    false = [_cause(rng, vocab.words(3)) for _ in range(rng.randint(2, 3))]
    thread.causes.extend(true)
    return _Event(text=text, causes=[(t, True) for t in true] + [(t, False) for t in false])


def _doc(rng: random.Random, topic_id: int, doc_id: str, thread: _Thread, spec: WorkloadSpec, cause_mentions: bool) -> dict:
    n = rng.randint(*spec.sentences)
    sentences = [_sentence(rng, thread.nouns, thread.entities, 0.2) for _ in range(n)]
    if cause_mentions:
        for text in thread.causes:
            if rng.random() < 0.3:
                sentences.insert(rng.randint(0, len(sentences)), text)
    title = f"{thread.entities[0].capitalize()} {rng.choice(thread.nouns)} {rng.choice(_VERBS)}"
    return {
        "id": doc_id,
        "title": title,
        "snippet": sentences[0][:80],
        "content": " ".join(sentences),
        "source": rng.choice(_SOURCES),
        "link": f"https://news.example/{topic_id}/{doc_id}",
    }


def _question(rng: random.Random, topic_id: int, qid: str, event: _Event) -> dict:
    options = [text for text, _ in rng.sample(event.causes, 4)]
    if rng.random() < REJECTION_SHARE * len(LETTERS):
        options[rng.randrange(4)] = NONE_TEXT
    if rng.random() < DUPLICATE_SHARE:
        substantive = [i for i, t in enumerate(options) if t != NONE_TEXT]
        src, dst = rng.sample(substantive, 2)
        options[dst] = options[src]
    truth = dict(event.causes)
    gold = [l for l, t in zip(LETTERS, options) if truth.get(t, False)]
    if not gold:
        if NONE_TEXT in options:
            gold = [LETTERS[options.index(NONE_TEXT)]]
        else:
            true_text = next(t for t, v in event.causes if v)
            options[0] = true_text
            gold = [l for l, t in zip(LETTERS, options) if t == true_text]
    row = {"topic_id": topic_id, "id": qid, "target_event": event.text, "golden_answer": ",".join(gold)}
    for letter, text in zip(LETTERS, options):
        row[f"option_{letter}"] = text
    return row


@dataclass
class Corpus:
    docs: list[dict]
    questions: list[dict]
    distractors: dict[int, list[str]]
    models: dict[str, list[dict]]


def generate(spec: WorkloadSpec, seed: int) -> Corpus:
    rng = random.Random(f"{spec.name}:{seed}")
    n_distract = max(1, round(spec.docs_per_topic * spec.distractor_share))
    per_topic = [spec.questions // spec.topics + (1 if i < spec.questions % spec.topics else 0) for i in range(spec.topics)]
    docs: list[dict] = []
    questions: list[dict] = []
    distractors: dict[int, list[str]] = {}
    for t in range(spec.topics):
        topic_id = 1000 + t
        vocab = _Vocab(rng)
        topic_words = vocab.words(20)
        threads = [_make_thread(rng, topic_words) for _ in range(spec.threads)]
        off_topic = [_make_thread(rng, _Vocab(rng).words(20)) for _ in range(2)]
        groups = []
        remaining = per_topic[t]
        while remaining > 0:
            size = min(remaining, rng.randint(*spec.group_sizes))
            groups.append((_make_event(rng, vocab, threads[len(groups) % len(threads)]), size))
            remaining -= size
        items = []
        for i in range(spec.docs_per_topic - n_distract):
            items.append((threads[i % len(threads)], False))
        items += [(rng.choice(off_topic), True) for _ in range(n_distract)]
        rng.shuffle(items)
        topic_docs = []
        for pos, (thread, is_distractor) in enumerate(items):
            doc_id = f"t{topic_id}-d{pos:03d}"
            topic_docs.append(_doc(rng, topic_id, doc_id, thread, spec, not is_distractor))
            if is_distractor:
                distractors.setdefault(topic_id, []).append(doc_id)
        docs.append({"topic_id": topic_id, "docs": topic_docs})
        for g, (event, size) in enumerate(groups):
            for j in range(size):
                questions.append(_question(rng, topic_id, f"q{topic_id}-{g}-{j}", event))
    models = {}
    for m in range(spec.extra_models):
        rows = []
        for q in questions:
            letters = set(q["golden_answer"].split(","))
            if rng.random() < 0.35:
                flip = rng.choice(LETTERS)
                letters ^= {flip}
                if not letters:
                    letters = {flip}
            rows.append({"id": q["id"], "prediction": ",".join(sorted(letters))})
        models[f"model{m + 1}"] = rows
    return Corpus(docs=docs, questions=questions, distractors=distractors, models=models)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def write_workload(spec: WorkloadSpec, seed: int, root: Path) -> tuple[dict[str, Path], Corpus]:
    """Writes docs.jsonl, questions.jsonl and one predictions file per extra
    model under root. Returns their paths and the generated corpus."""
    corpus = generate(spec, seed)
    root.mkdir(parents=True, exist_ok=True)
    paths = {"docs": root / "docs.jsonl", "questions": root / "questions.jsonl"}
    paths["docs"].write_text("".join(_dumps(row) + "\n" for row in corpus.docs), encoding="utf-8")
    paths["questions"].write_text("".join(_dumps(row) + "\n" for row in corpus.questions), encoding="utf-8")
    for name, rows in corpus.models.items():
        paths[name] = root / f"{name}.jsonl"
        paths[name].write_text("".join(_dumps(row) + "\n" for row in rows), encoding="utf-8")
    return paths, corpus


def describe(spec: WorkloadSpec, corpus: Corpus) -> dict:
    """Stated sizes and shares of a generated corpus."""
    n_docs = sum(len(t["docs"]) for t in corpus.docs)
    options = [q[f"option_{l}"] for q in corpus.questions for l in LETTERS]
    groups = {(q["topic_id"], q["target_event"]) for q in corpus.questions}
    dup = sum(1 for q in corpus.questions if len({q[f"option_{l}"] for l in LETTERS}) < 4)
    return {
        "topics": len(corpus.docs),
        "docs": n_docs,
        "distractor_share": sum(len(v) for v in corpus.distractors.values()) / n_docs,
        "questions": len(corpus.questions),
        "sibling_groups": len(groups),
        "rejection_option_share": options.count(NONE_TEXT) / len(options),
        "duplicate_option_question_share": dup / len(corpus.questions),
        "k": spec.k,
    }
