"""Command line pipeline: ingest, build-graph, retrieve, infer, postprocess,
score, agree, report. Each stage reads the previous stage's files from the
output directory and records a manifest with config, input and output hashes."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import sys
from collections import abc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

from .consist import output_validity_violations, run_to_fixed_point
from .corpus import (
    LETTERS,
    CorpusError,
    DocumentRecord,
    QuestionRecord,
    _rows,
    document_text,
    load_docs,
    load_predictions,
    load_questions,
    parse_predictions,
    sibling_groups,
)
from .evaluate import EvalError, agreement_report, bias_stats, oracle_report, score_run
from .params import Bm25Params, EmbedderSpec, HybridParams
from .reason import (
    LlmClientSpec,
    SamplingParams,
    aggregate,
    make_client,
    sample_question,
    tally,
)
from .remote import ConfigError, RemoteError

if TYPE_CHECKING:  # numpy and the graph modules load when a graph stage runs
    import numpy as np

    from .graphrag import DocGraph, RetrievalResult, TopicRetriever
    from .lexindex import LexIndex

logger = logging.getLogger(__name__)


class StageError(Exception):
    """A stage refuses to run on the files or arguments it was given."""


# build-graph's document vectors (topics sorted, documents in docs-file order),
# each document pair's clamped cosine and lexical score (row 0 and row 1;
# topics sorted, pairs in graphrag's order), each topic's sorted entity list
# and per-document term counts, relative to --out
DOC_VECTORS = "graphs/doc_vectors.npy"
PAIR_SCORES = "graphs/pair_scores.npy"
ENTITIES = "graphs/entities.json"
TERM_COUNTS = "graphs/term_counts.json"


@dataclass(frozen=True)
class HeuristicsParams:
    enabled: bool = True
    max_iterations: int = 10


@dataclass
class RunConfig:
    questions: str | None = None
    docs: str | None = None
    out: str = "out"
    embedder: EmbedderSpec = field(default_factory=EmbedderSpec)
    llm: LlmClientSpec = field(default_factory=LlmClientSpec)
    hybrid: HybridParams = field(default_factory=HybridParams)
    bm25: Bm25Params = field(default_factory=Bm25Params)
    sampling: SamplingParams = field(default_factory=SamplingParams)
    theta: float = 0.5
    heuristics: HeuristicsParams = field(default_factory=HeuristicsParams)
    topic_union: bool = False
    max_workers: int = 1

    def param_dict(self) -> dict:
        """Parameters that define the run semantics. Input and output paths
        stay out; the LLM script participates through its content hash."""
        params = {
            "embedder": {k: v for k, v in vars(self.embedder).items() if k != "cache_dir"},
            "llm": {
                "kind": self.llm.kind,
                "model": self.llm.model,
                "max_retries": self.llm.max_retries,
            },
            "hybrid": dict(vars(self.hybrid)),
            "bm25": dict(vars(self.bm25)),
            "sampling": dict(vars(self.sampling)),
            "theta": self.theta,
            "heuristics_enabled": self.heuristics.enabled,
            "heuristics_max_iterations": self.heuristics.max_iterations,
            "topic_union": self.topic_union,
        }
        script = self.script_hash()
        if script:
            params["llm"]["script_sha256"] = script
        return params

    def script_hash(self) -> str | None:
        """The content hash of the LLM script: of the file llm.script_path
        names, or else of the inline llm.script; None without a script."""
        if self.llm.script_path:
            return _sha256_file(self.llm.script_path)
        return _digest(self.llm.script) if self.llm.script else None

    def config_hash(self) -> str:
        return _digest(self.param_dict())

    def vectors_key(self) -> str:
        """Hash of the embedder fields that can change a document vector."""
        fields = ("kind", "dim", "seed", "model", "endpoint", "document_input_type")
        return _digest({name: getattr(self.embedder, name) for name in fields})

    def pairs_key(self) -> str:
        """Hash of everything the pair scores depend on besides the documents;
        alpha and the edge threshold act on the scores only afterwards."""
        return _digest({"vectors": self.vectors_key(), "bm25": vars(self.bm25)})


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_form(obj):
    """What _dump writes for a value JSON has no form of: a dataclass as its
    fields, a letter set as its sorted comma text ("A,C")."""
    if isinstance(obj, (set, frozenset)):
        return ",".join(sorted(obj))
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} has no JSON form")


# The JSON text of every result, manifest and hashed value, from one encoder
_dump = json.JSONEncoder(sort_keys=True, ensure_ascii=False, default=_json_form).encode


def _digest(obj) -> str:
    return hashlib.sha256(_dump(obj).encode("utf-8")).hexdigest()


def _write_jsonl(path: Path, rows: Sequence[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_dump(row))
            fh.write("\n")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dump(obj) + "\n", encoding="utf-8")


def _write_manifest(config: RunConfig, stage: str, inputs: Mapping[str, str], result: StageResult) -> None:
    """Records the input hashes given, the content hash of each file the
    stage wrote, named relative to --out, and the stage's counts and keys."""
    out_dir = Path(config.out)
    manifest = {
        "stage": stage,
        "config_hash": config.config_hash(),
        "inputs": dict(inputs),
        "outputs": {rel: _sha256_file(out_dir / rel) for rel in result.outputs},
        "counts": result.counts,
    }
    if result.keys:
        manifest["keys"] = result.keys
    _write_json(out_dir / "manifests" / f"{stage}.json", manifest)


def _read_manifest(out_dir: Path, stage: str) -> dict | None:
    """A stage's manifest, or None when it is missing, not valid JSON or not
    of the shape _write_manifest writes: an object whose inputs, outputs,
    counts and keys are objects. Absent keys read as {}."""
    try:
        manifest = json.loads((out_dir / "manifests" / f"{stage}.json").read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return None
    if not isinstance(manifest, dict):
        return None
    manifest.setdefault("keys", {})
    shaped = all(isinstance(manifest.get(part), dict) for part in ("inputs", "outputs", "counts", "keys"))
    return manifest if shaped else None


def _read_listed(out_dir: Path, manifest: dict | None, rel: str) -> bytes | None:
    """The bytes of a file the manifest, if any, lists as an output, or None
    when the file is missing or no longer has the listed content hash."""
    path = out_dir / rel
    listed = manifest["outputs"].get(rel) if manifest is not None else None
    if listed is None or not path.is_file():
        return None
    data = path.read_bytes()
    return data if hashlib.sha256(data).hexdigest() == listed else None


# ---------------------------------------------------------------------------
# stages


@dataclass
class StageInput:
    """What run_stage hands a stage body: the config, the config files the
    stage reads, loaded, with their content hashes, the path and lines of the
    earlier stage's file or --preds it reads, and the preds argument."""

    config: RunConfig
    questions: list[QuestionRecord] | None
    topics: dict[int, list[DocumentRecord]] | None
    hashes: dict[str, str]
    upstream: tuple[str | Path, io.TextIOWrapper] | None
    preds: str | Sequence[str] | None  # agree's name=path specs


@dataclass
class StageResult:
    """What a stage body returns for run_stage to write and print. Each
    output is named by its path under --out. counts is None for report,
    which records no manifest of its own."""

    outputs: dict[str, object]
    counts: dict[str, object] | None
    inputs: dict[str, str] = field(default_factory=dict)  # content hashes of read files beyond the config's
    keys: dict[str, str] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)


def _ingest(run: StageInput) -> StageResult:
    questions, topics = run.questions, run.topics
    groups = sibling_groups(questions)
    multi_group_qids = {qid for g in groups if len(g.question_ids) > 1 for qid in g.question_ids}
    n_docs = sum(len(v) for v in topics.values())
    structure = {
        "n_questions": len(questions),
        "n_topics_questions": len({q.topic_id for q in questions}),
        "n_topics_docs": len(topics),
        "n_docs": n_docs,
        "none_option_questions": sum(1 for q in questions if q.none_letters),
        "duplicate_option_questions": sum(1 for q in questions if len(q.classes) < len(LETTERS)),
        "n_sibling_groups": len(groups),
        "questions_in_multi_question_groups": len(multi_group_qids),
        "gold_available": sum(1 for q in questions if q.gold is not None),
        "multi_gold_questions": sum(1 for q in questions if q.gold and len(q.gold) > 1),
    }
    siblings = [
        {"topic_id": g.topic_id, "event_key": g.event_key, "question_ids": list(g.question_ids)} for g in groups
    ]
    return StageResult(
        {"ingest/siblings.jsonl": siblings, "ingest/structure.json": structure},
        structure,
        lines=[f"ingest: {len(questions)} questions, {n_docs} docs, {len(groups)} sibling groups"],
    )


class _DocumentTexts(Sequence[str]):
    """Each document's text, made when it is read. A list of every text
    would hold them all at once, and freeing it leaves the heap larger."""

    def __init__(self, docs: Sequence[DocumentRecord]):
        self.docs = docs

    def __len__(self) -> int:
        return len(self.docs)

    def __getitem__(self, i: int) -> str:
        return document_text(self.docs[i])


def _embed_documents(config: RunConfig, embedder, topics, topic_ids: Sequence[int]) -> np.ndarray:
    """One vector per document of topic_ids, topics in that order and
    documents in docs-file order, from one embed_texts call."""
    import numpy as np

    texts = _DocumentTexts([d for topic_id in topic_ids for d in topics[topic_id]])
    vectors = embedder.embed_texts(texts, input_type=config.embedder.document_input_type)
    return np.reshape(vectors, (len(texts), config.embedder.dim))


def _topic_rows(array: np.ndarray, sizes: Mapping[int, int]) -> dict[int, np.ndarray]:
    """array split into blocks of consecutive rows, sizes[t] rows for each
    topic t of sizes in turn."""
    rows: dict[int, np.ndarray] = {}
    start = 0
    for topic_id, size in sizes.items():
        rows[topic_id] = array[start : start + size]
        start += size
    return rows


def _topic_graphs(
    config: RunConfig, topics, rows: Mapping[int, np.ndarray]
) -> tuple[dict[int, DocGraph], dict[str, list[str]], dict[int, LexIndex]]:
    """The graph, the sorted entity list and the lexical index of each topic
    of rows, whose document vectors rows gives; the lists keyed by topic id
    as a string, the graphs and indexes by topic id."""
    from . import graphrag, lexindex

    graphs: dict[int, DocGraph] = {}
    entities: dict[str, list[str]] = {}
    indexes: dict[int, LexIndex] = {}
    for topic_id, doc_vecs in rows.items():
        texts = {d.id: document_text(d) for d in topics[topic_id]}
        topic_entities = graphrag.extract_entities(texts.values())
        entities[str(topic_id)] = sorted(topic_entities)
        index = indexes[topic_id] = lexindex.LexIndex.build(texts)
        embeddings = dict(zip(texts, doc_vecs))
        graphs[topic_id] = graphrag.build_graph(
            topic_id, topics[topic_id], embeddings, index, config.bm25, topic_entities, config.hybrid
        )
    return graphs, entities, indexes


def _build_graph(run: StageInput) -> StageResult:
    import numpy as np

    from . import embed

    config, topics = run.config, run.topics
    topic_ids = sorted(topics)
    vectors = _embed_documents(config, embed.make_embedder(config.embedder), topics, topic_ids)
    rows = _topic_rows(vectors, {t: len(topics[t]) for t in topic_ids})
    graphs, entities, indexes = _topic_graphs(config, topics, rows)
    outputs: dict[str, object] = {f"graphs/topic_{t}.json": g.to_json() for t, g in graphs.items()}
    n_edges = sum(len(g.edges) for g in graphs.values())
    # the empty block first, for a docs file of no topics
    scores = np.concatenate([np.empty((2, 0)), *(graphs[t].scores for t in topic_ids)], 1)
    for rel, array in ((DOC_VECTORS, vectors), (PAIR_SCORES, scores)):
        saved = io.BytesIO()
        embed.save_vectors(saved, array)
        outputs[rel] = saved.getvalue()
    outputs[ENTITIES] = entities
    outputs[TERM_COUNTS] = {str(topic_id): index.term_freqs for topic_id, index in indexes.items()}
    return StageResult(
        outputs,
        {"n_topics": len(topics), "n_edges": n_edges},
        keys={"vectors": config.vectors_key(), "pairs": config.pairs_key()},
        lines=[f"build-graph: {len(topics)} topics, {n_edges} edges"],
    )


def _saved_array(out_dir: Path, manifest: dict | None, rel: str, shape: tuple[int, int]) -> np.ndarray | None:
    """The float64 array of shape that the manifest lists as rel, or None
    when the file is not listed, not the listed one or not such an .npy
    array."""
    import numpy as np

    from . import embed

    data = _read_listed(out_dir, manifest, rel)
    try:
        array = None if data is None else embed.load_vectors(io.BytesIO(data))
    except ValueError:  # not an .npy array
        return None
    return array if array is not None and array.shape == shape and array.dtype == np.float64 else None


def _saved_graph_level(
    out_dir: Path, manifest: dict | None, topics, topic_ids: Sequence[int], hybrid: HybridParams
) -> tuple[dict[int, DocGraph], dict[str, list[str]], dict[int, LexIndex]] | None:
    """The graph, the entity list and the lexical index of each topic of
    topic_ids from build-graph's saved files, keyed as _topic_graphs keys
    them, or None when a file is not listed, not the listed one or not of
    the shape build-graph writes. Each graph is made from the topic's slice
    of the pair scores, every one of which must lie in [0, 1], at hybrid's
    alpha and edge threshold. Containers are checked, and a term count that
    is not a number fails the level."""
    import numpy as np

    from . import graphrag, lexindex

    pair_counts = {t: len(topics[t]) * (len(topics[t]) - 1) // 2 for t in sorted(topics)}
    scores = _saved_array(out_dir, manifest, PAIR_SCORES, (2, sum(pair_counts.values())))
    files = [_read_listed(out_dir, manifest, rel) for rel in (ENTITIES, TERM_COUNTS)]
    if scores is None or not np.all((scores >= 0.0) & (scores <= 1.0)) or None in files:
        return None
    try:
        entities, term_counts = map(json.loads, files)
        lists = {str(t): entities[str(t)] for t in topic_ids}
        # the saved counts are in sorted order; each index takes the docs file's
        counts = {t: {d.id: term_counts[str(t)][d.id] for d in topics[t]} for t in topic_ids}
        if not all(
            isinstance(lists[str(t)], list)
            and all(isinstance(entity, str) for entity in lists[str(t)])
            and all(isinstance(doc_counts, dict) for doc_counts in counts[t].values())
            for t in topic_ids
        ):
            return None
        indexes = {t: lexindex.LexIndex.from_counts(counts[t]) for t in topic_ids}
    except (KeyError, TypeError, ValueError):  # malformed JSON, a missing key, a wrong container or count
        return None
    pairs = _topic_rows(scores.T, pair_counts)
    nodes = {t: tuple(d.id for d in topics[t]) for t in topic_ids}
    graphs = {t: graphrag.graph_from_scores(t, nodes[t], pairs[t].T, hybrid) for t in topic_ids}
    return graphs, lists, indexes


def _build_retrievers(
    config: RunConfig, embedder, docs_hash: str, topics, needed: set[int]
) -> dict[int, TopicRetriever]:
    """Each needed topic's retriever, from build-graph's outputs at two
    levels. The document vectors serve when build-graph read the same docs
    file with the same embedder and the file reads back as the float64
    matrix it writes; the pair scores, the entity lists and the term counts
    serve when the vectors do and the BM25 parameters match too, at any
    alpha and edge threshold. A level that does not serve is computed as
    build-graph computes it, for the needed topics only, with one warning."""
    from . import graphrag

    topic_ids = sorted(needed)
    for topic_id in topic_ids:
        if topic_id not in topics:
            raise CorpusError(f"questions reference topic {topic_id} absent from the docs file")
    out_dir = Path(config.out)
    manifest = _read_manifest(out_dir, "build-graph")
    inputs, keys = ({}, {}) if manifest is None else (manifest["inputs"], manifest["keys"])
    vectors = saved = None
    if inputs.get("docs") == docs_hash and keys.get("vectors") == config.vectors_key():
        vectors = _saved_array(out_dir, manifest, DOC_VECTORS, (sum(map(len, topics.values())), config.embedder.dim))
    if vectors is not None and keys.get("pairs") == config.pairs_key():
        saved = _saved_graph_level(out_dir, manifest, topics, topic_ids, config.hybrid)
    if saved is None:
        redo = "building the graphs" if vectors is not None else "embedding the documents and building the graphs"
        logger.warning("build-graph's outputs do not serve this run: %s again", redo)
    # the saved vectors hold every topic; embedding anew covers the needed ones
    order = sorted(topics) if vectors is not None else topic_ids
    if vectors is None:
        vectors = _embed_documents(config, embedder, topics, order)
    rows = _topic_rows(vectors, {t: len(topics[t]) for t in order})
    graphs, entities, indexes = saved or _topic_graphs(config, topics, {t: rows[t] for t in topic_ids})
    return {
        t: graphrag.TopicRetriever(
            t, topics[t], rows[t], config.bm25, config.hybrid, graphs[t], entities[str(t)], indexes[t]
        )
        for t in topic_ids
    }


def _retrieve(run: StageInput) -> StageResult:
    from . import embed, graphrag

    config, questions = run.config, run.questions
    embedder = embed.make_embedder(config.embedder)
    needed = {q.topic_id for q in questions}
    retrievers = _build_retrievers(config, embedder, run.hashes["docs"], run.topics, needed)
    # the questions that pay for a retrieval, their queries embedded in one
    # call: each topic's first, whose result the rest of the topic shares, or
    # under topic_union every question, each adding to its topic's running union
    paying = questions
    if not config.topic_union:
        firsts: dict[int, QuestionRecord] = {}
        for q in questions:
            firsts.setdefault(q.topic_id, q)
        paying = list(firsts.values())
    texts = [graphrag.make_query(q) for q in paying]
    vectors = embedder.embed_texts(texts, input_type=config.embedder.query_input_type)
    queries = {q.id: (text, v) for q, text, v in zip(paying, texts, vectors)}
    contexts: dict[int, RetrievalResult] = {}
    rows = []
    for q in questions:
        if q.id in queries:
            retriever = retrievers[q.topic_id]
            result = retriever.retrieve_query(*queries[q.id])
            if q.topic_id in contexts:
                result = contexts[q.topic_id].union(result, retriever.graph)
            contexts[q.topic_id] = result
        rows.append({"id": q.id, **vars(contexts[q.topic_id])})
    hits = len(questions) - len(paying)
    hit_rate = hits / len(questions) if questions else 0.0
    counts = {
        "n_questions": len(questions),
        "n_topics": len(retrievers),
        "cache_hits": hits,
        "cache_misses": len(paying),
        "cache_hit_rate": hit_rate,
    }
    return StageResult(
        {"retrieval.jsonl": rows},
        counts,
        lines=[f"retrieve: {len(questions)} questions, cache hit rate {hit_rate:.3f} ({hits}/{len(questions)})"],
    )


def _make_llm_client(config: RunConfig):
    """The config's LLM client; a script file is held to llm.script's rule."""
    spec = config.llm
    if spec.script_path:
        script = _read_json_file(spec.script_path)
        _check_script(f"{spec.script_path}: llm.script", script)
        spec = replace(spec, script=script)
    return make_client(spec)


def _infer(run: StageInput) -> StageResult:
    config, questions = run.config, run.questions
    # each question's retrieved documents; a row of no question or of ids not
    # in its question's topic, and a missing trace, are refused before any LLM
    # call is paid for
    topic_of = {q.id: q.topic_id for q in questions}
    docs = {topic_id: {d.id: d for d in topic} for topic_id, topic in run.topics.items()}
    contexts: dict[str, list[DocumentRecord]] = {}
    for where, row in _rows(*run.upstream, ("id", "selected")):
        qid, selected = str(row["id"]), row["selected"]
        if qid not in topic_of:
            raise CorpusError(f"{where}: no question {qid!r} in the questions file")
        topic = docs.get(topic_of[qid], {})
        if not isinstance(selected, list) or not all(isinstance(d, str) and d in topic for d in selected):
            raise CorpusError(f"{where}: selected {selected!r} is not a list of topic {topic_of[qid]}'s document ids")
        contexts[qid] = [topic[doc_id] for doc_id in selected]
    for q in questions:
        if q.id not in contexts:
            raise CorpusError(f"no retrieval trace for question {q.id!r}")
    client = _make_llm_client(config)

    def run_one(q: QuestionRecord):
        samples = sample_question(q, contexts[q.id], client, config.sampling)
        return samples, aggregate(tally(samples), q, config.theta)

    if config.max_workers > 1:
        with ThreadPoolExecutor(max_workers=config.max_workers) as pool:
            results = list(pool.map(run_one, questions))
    else:
        results = [run_one(q) for q in questions]

    sample_rows = []
    pred_rows = []
    n_invalid = 0
    for q, (samples, pred) in zip(questions, results):
        for i, s in enumerate(samples):
            sample_rows.append(
                {
                    "question_id": q.id,
                    "sample_index": i,
                    "raw": s.raw,
                    "parsed": sorted(s.letters),
                    "valid": s.valid,
                }
            )
            n_invalid += 0 if s.valid else 1
        pred_rows.append({"id": q.id, "prediction": pred})
    counts = {
        "n_questions": len(questions),
        "k": config.sampling.k,
        "theta": config.theta,
        "invalid_samples": n_invalid,
    }
    script = config.script_hash()
    return StageResult(
        {"samples.jsonl": sample_rows, "predictions.jsonl": pred_rows},
        counts,
        {"script": script} if script else {},
        lines=[f"infer: {len(questions)} questions, {n_invalid} invalid samples"],
    )


def _postprocess(run: StageInput) -> StageResult:
    config, questions = run.config, run.questions
    preds = parse_predictions(*run.upstream)
    scoped = [q for q in questions if q.id in preds]
    dropped = len(questions) - len(scoped)
    if dropped:
        logger.warning("%d questions have no prediction and are left untouched", dropped)
    final = dict(preds)
    if not config.heuristics.enabled:
        audit = []
        summary = {"enabled": False, "iterations": 0, "converged": True, "rule_counts": {}, "contradictions": []}
        line = "postprocess: heuristics disabled, predictions copied through"
    else:
        outcome = run_to_fixed_point(scoped, {q.id: preds[q.id] for q in scoped}, config.heuristics.max_iterations)
        final.update(outcome.predictions)
        audit = outcome.report.changes
        summary = {
            "enabled": True,
            "iterations": outcome.report.iterations,
            "converged": outcome.report.converged,
            "rule_counts": outcome.report.rule_counts,
            "n_changes": len(outcome.report.changes),
            "contradictions": outcome.report.contradictions,
            "violations": output_validity_violations(scoped, outcome.predictions),
        }
        line = (
            f"postprocess: {summary['n_changes']} changes in {summary['iterations']} iterations, "
            f"rule counts {summary['rule_counts']}"
        )
    outputs = {
        "predictions.final.jsonl": [{"id": qid, "prediction": final[qid]} for qid in preds],
        "audit.jsonl": audit,
        "consistency.json": summary,
    }
    counts = {k: v for k, v in summary.items() if k in ("enabled", "iterations", "converged", "n_changes")}
    return StageResult(outputs, counts, lines=[line])


def _score(run: StageInput) -> StageResult:
    preds = parse_predictions(*run.upstream)
    golds = {q.id: q.gold for q in run.questions if q.gold is not None}
    if not golds:
        raise StageError("the questions file carries no gold answers")
    report = score_run(preds, golds)
    lines = [
        f"score: mean {report.mean:.4f} over {report.n} questions",
        f"  exact    {report.exact}",
        f"  partial  {report.partial}",
        f"  zero     {report.zero}",
        f"  missing  {len(report.missing_prediction_ids)}",
        f"  single-answer exact rate {report.single.exact_rate:.4f} ({report.single.count} questions)",
        f"  multi-answer exact rate  {report.multi.exact_rate:.4f} "
        f"({report.multi.count} questions), gap {report.exact_gap:.4f}",
    ]
    return StageResult(
        {"score_report.json": report},
        {"mean": report.mean, "n": report.n},
        lines=lines,
    )


def _agree(run: StageInput) -> StageResult:
    if len(run.preds) < 2:
        raise StageError("agree needs at least two prediction files")
    model_preds: dict[str, dict[str, frozenset[str]]] = {}
    inputs: dict[str, str] = {}
    for spec in run.preds:
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            name, path = Path(spec).stem, spec
        if not name:
            raise StageError(f"empty model name in {spec!r}")
        if name in model_preds:
            raise StageError(f"duplicate model name {name!r}")
        model_preds[name] = load_predictions(path)
        inputs[f"predictions:{name}"] = _sha256_file(path)
    questions = run.questions or []
    report = agreement_report(model_preds, {q.id: q.topic_id for q in questions})
    outputs = {"agreement_report.json": report.to_json()}
    lines = [
        f"agree: {len(model_preds)} models on {report.n_questions} questions",
        f"  fleiss kappa        {report.fleiss:.4f}",
        f"  krippendorff (nom)  {report.kripp_nominal:.4f}",
        f"  krippendorff (jac)  {report.kripp_jaccard:.4f}",
        f"  unanimous rate      {report.unanimous_rate:.4f}",
    ]
    golds = {q.id: q.gold for q in questions if q.gold is not None}
    if golds:
        oracle = oracle_report(model_preds, golds)
        bias = bias_stats(model_preds, golds)
        outputs["oracle_report.json"] = oracle.to_json()
        outputs["bias_report.json"] = bias
        lines += [
            f"  oracle mean         {oracle.mean:.4f}",
            f"  under/over selection {bias.under_selection}/{bias.over_selection} "
            f"(pred {bias.mean_pred_cardinality:.2f} vs gold {bias.mean_gold_cardinality:.2f} letters)",
        ]
    return StageResult(outputs, {"n_models": len(model_preds), "n_questions": report.n_questions}, inputs, lines=lines)


def _report(run: StageInput) -> StageResult:
    out_dir = Path(run.config.out)
    report: dict = {}
    for name, stage, rel in (
        ("ingest", "ingest", "ingest/structure.json"),
        ("score", "score", "score_report.json"),
        ("agreement", "agree", "agreement_report.json"),
        ("oracle", "agree", "oracle_report.json"),
        ("bias", "agree", "bias_report.json"),
        ("consistency", "postprocess", "consistency.json"),
        ("retrieve", "retrieve", "retrieval.jsonl"),
        ("infer", "infer", "predictions.jsonl"),
    ):
        try:
            data = _serving(out_dir, {}, ((stage, rel, name),))[2]
        except StageError:
            continue
        if name in ("retrieve", "infer"):
            report.setdefault("stages", {})[stage] = _read_manifest(out_dir, stage)["counts"]
        else:
            report[name] = json.loads(data)
    lines = [f"report: wrote {out_dir / 'report.json'}"]
    if "score" in report:
        lines.append(f"  mean score     {report['score']['mean']:.4f}")
    if "agreement" in report:
        lines.append(f"  fleiss kappa   {report['agreement']['fleiss']:.4f}")
    if "consistency" in report and report["consistency"].get("enabled"):
        lines.append(f"  rule changes   {report['consistency']['n_changes']}")
    rate = report.get("stages", {}).get("retrieve", {}).get("cache_hit_rate")
    if isinstance(rate, (int, float)):
        lines.append(f"  cache hit rate {rate:.3f}")
    return StageResult({"report.json": report}, None, lines=lines)


# Each stage's body, the config files it requires, in that order, and those
# it reads when given. run_stage does the loading, writing and manifest for
# all of them.
STAGES: dict[str, tuple[Callable[[StageInput], StageResult], tuple[str, ...], tuple[str, ...]]] = {
    "ingest": (_ingest, ("questions", "docs"), ()),
    "build-graph": (_build_graph, ("docs",), ()),
    "retrieve": (_retrieve, ("questions", "docs"), ()),
    "infer": (_infer, ("questions", "docs"), ()),
    "postprocess": (_postprocess, ("questions",), ()),
    "score": (_score, ("questions",), ()),
    "agree": (_agree, (), ("questions",)),
    "report": (_report, (), ()),
}

# Each stage that reads an earlier stage's file: the producing stage, the
# file and the reader's input key for its hash. score reads infer's
# predictions when postprocess has no manifest.
UPSTREAM: dict[str, tuple[tuple[str, str, str], ...]] = {
    "infer": (("retrieve", "retrieval.jsonl", "retrieval"),),
    "postprocess": (("infer", "predictions.jsonl", "predictions"),),
    "score": (("postprocess", "predictions.final.jsonl", "predictions"), ("infer", "predictions.jsonl", "predictions")),
}


def _serving(out_dir: Path, hashes: Mapping[str, str], reads) -> tuple[Path, str, bytes]:
    """The path, key and bytes of the file of the first of reads, (stage,
    file, key) entries, whose stage has a manifest, or else of the last, when
    it serves a stage that read the config files of hashes: its stage's latest
    manifest lists it as it is, and up the UPSTREAM chain each manifest read
    those files and recorded the earlier stage's file as that stage's latest
    manifest lists it. The walk stops at a missing or unreadable manifest and
    at an input key it does not follow (--preds). Otherwise StageError names
    the stage to run again."""
    for stage, rel, key in reads:
        if (manifest := _read_manifest(out_dir, stage)) is not None:
            break
    data = _read_listed(out_dir, manifest, rel)
    if data is None:
        raise StageError(f"{rel} is missing or not the file its manifest lists: run the {stage} stage")
    path, read_key = out_dir / rel, key
    while manifest is not None:
        inputs = manifest["inputs"]
        if any(inputs.get(name) != digest for name, digest in hashes.items()):
            raise StageError(f"{stage} ran on other questions or documents: run the {stage} stage again")
        reader, manifest = stage, None
        for stage, rel, key in UPSTREAM.get(reader, ()):
            if key in inputs and (manifest := _read_manifest(out_dir, stage)) is not None:
                break
        if manifest is not None and manifest["outputs"].get(rel) != inputs[key]:
            raise StageError(f"{reader} read a {rel} that {stage} has since replaced: run the {reader} stage again")
    return path, read_key, data


def run_stage(name: str, config: RunConfig, preds: str | Sequence[str] | None = None) -> None:
    """Loads the stage's config files and the earlier stage's file (or --preds)
    it reads, runs its body, writes each output (bytes as they are, a list as
    JSONL, else JSON) and the manifest of those files, and prints its lines."""
    body, required, optional = STAGES[name]
    paths = {key: getattr(config, key) for key in required + optional if getattr(config, key) or key in required}
    for key, path in paths.items():
        if not path:
            raise StageError(f"--{key} is required (flag or config file)")
    # load_questions and load_docs are looked up here, at call time, so that
    # names patched on this module take effect
    questions = load_questions(paths["questions"]) if "questions" in paths else None
    topics = load_docs(paths["docs"]) if "docs" in paths else None
    hashes = {key: _sha256_file(path) for key, path in paths.items()}
    out_dir = Path(config.out)
    upstream, inputs = None, {}
    if name in UPSTREAM:
        if preds:
            path, key, data = preds, "preds", Path(preds).read_bytes()
        else:
            path, key, data = _serving(out_dir, hashes, UPSTREAM[name])
        inputs[key] = hashlib.sha256(data).hexdigest()
        upstream = (path, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    result = body(StageInput(config, questions, topics, hashes, upstream, preds))
    for rel, content in result.outputs.items():
        if isinstance(content, bytes):
            (out_dir / rel).parent.mkdir(parents=True, exist_ok=True)
            (out_dir / rel).write_bytes(content)
        elif isinstance(content, list):
            _write_jsonl(out_dir / rel, content)
        else:
            _write_json(out_dir / rel, content)
    if result.counts is not None:
        _write_manifest(config, name, {**hashes, **inputs, **result.inputs}, result)
    for line in result.lines:
        print(line)


# ---------------------------------------------------------------------------
# config and argument plumbing


# Each override flag, the dotted config key it sets and its argparse options.
# A flag that is given beats the config file, which beats the default.
FLAGS: tuple[tuple[str, str, dict], ...] = (
    ("--questions", "questions", {"help": "questions JSONL"}),
    ("--docs", "docs", {"help": "documents JSONL"}),
    ("--out", "out", {"help": "output directory (default: out)"}),
    ("--model", "llm.model", {"help": "remote model name"}),
    ("--k", "sampling.k", {"type": int, "help": "samples per question"}),
    ("--theta", "theta", {"type": float, "help": "vote share threshold"}),
    ("--alpha", "hybrid.alpha", {"type": float, "help": "semantic weight in the hybrid blend"}),
    ("--edge-threshold", "hybrid.edge_threshold", {"type": float, "help": "graph edge cutoff"}),
    ("--no-heuristics", "heuristics.enabled", {"action": "store_const", "const": False}),
    ("--topic-union", "topic_union", {"action": "store_const", "const": True}),
    ("--seed", "embedder.seed", {"type": int, "help": "mock embedder seed"}),
    ("--max-workers", "max_workers", {"type": int, "help": "infer worker threads (default: 1)"}),
)


# Each checked config value's lowest and highest allowed value (None: no upper bound).
RANGES: dict[str, tuple[float, float | None]] = {
    "sampling.k": (1, None), "max_workers": (1, None), "embedder.dim": (1, None),
    "hybrid.alpha": (0, 1), "hybrid.edge_threshold": (0, 1), "theta": (0, 1),
    "sampling.max_retries_on_parse_failure": (0, None), "hybrid.k_dense": (0, None), "hybrid.k_sparse": (0, None),
    "llm.max_retries": (1, None), "embedder.max_retries": (1, None), "embedder.batch_size": (1, None),
    "llm.backoff_base": (0, None), "embedder.backoff_base": (0, None),
}
_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string", dict: "an object",
          type(None): "null"}


def _read_json_file(path: str | Path):
    """The JSON value in a file; one that is not UTF-8 JSON is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also not UTF-8, an integer too long, nesting too deep
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc


def _check_script(key: str, script) -> None:
    """llm.script's rule, for the config value and a script file alike: an
    object whose every value, a question's responses, is a non-empty list
    of strings."""
    if not isinstance(script, dict):
        raise ConfigError(f"{key} must be an object, got {script!r}")
    for qid, responses in script.items():
        if not (isinstance(responses, list) and responses and all(isinstance(r, str) for r in responses)):
            raise ConfigError(f"{key}.{qid} must be a non-empty list of strings, got {responses!r}")


def _checked(cls, data: dict, prefix: str = ""):
    """cls, a RunConfig or one of its sections, built from data. A field takes
    the kinds its annotation names: a section or a Mapping an object (a
    section checked in turn, llm.script by _check_script), a float any
    number, a bool, int or str just that, and an optional field null as
    well."""
    values = {}
    hints = get_type_hints(cls)
    for name, value in data.items():
        key, hint = prefix + name, hints.get(name)
        if hint is None:
            logger.warning("ignoring unknown config key %s", key)
            continue
        members = get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)
        kinds = [dict if is_dataclass(m) or get_origin(m) is abc.Mapping else m for m in members]
        if not any(isinstance(value, bool) == (k is bool) and isinstance(value, (int, float) if k is float else k)
                   for k in kinds):
            raise ConfigError(f"{key} must be {' or '.join(_KINDS[k] for k in kinds)}, got {value!r}")
        low, high = RANGES.get(key, (None, None))
        if low is not None and not (low <= value and (high is None or value <= high)):
            bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise ConfigError(f"{key} must be {bound}, got {value}")
        if isinstance(value, dict) and not is_dataclass(hint):  # llm.script
            _check_script(key, value)
        values[name] = _checked(hint, value, key + ".") if is_dataclass(hint) else value
    return cls(**values)


def build_config(args: argparse.Namespace) -> RunConfig:
    """The run's config: a flag that is given beats the --config file, which
    beats RunConfig's defaults. A file that is not a JSON object, a value of
    the wrong kind and a value outside RANGES are ConfigErrors; an unknown key
    is warned about and ignored."""
    data: dict = {}
    if args.config:
        data = _read_json_file(args.config)
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: not a JSON object")
    for flag, key, _ in FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            section, _, name = key.rpartition(".")
            target = data.setdefault(section, {}) if section else data
            if isinstance(target, dict):  # else _checked refuses the section
                target[name] = value
    return _checked(RunConfig, data)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    for flag, _, options in FLAGS:
        common.add_argument(flag, **options)
    common.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(prog="causeway", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, parents=[common]) for name in STAGES}
    commands["postprocess"].add_argument("--preds", help="predictions JSONL (default: <out>/predictions.jsonl)")
    commands["score"].add_argument("--preds", help="predictions JSONL (default: <out>/predictions.final.jsonl)")
    commands["agree"].add_argument("preds", nargs="+", help="model predictions as name=path or path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = build_config(args)
        Path(config.out).mkdir(parents=True, exist_ok=True)
        run_stage(args.command, config, getattr(args, "preds", None))
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:  # stdout closed early, as by `| head`: end quietly, as Python's SIGPIPE note does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 1
    except (CorpusError, ConfigError, EvalError, StageError, RemoteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
