"""Acceptance suite: one test per verifiable claim the package makes.

Each test exercises a property end to end at a pinned tolerance and prints
a single PASS line with the measured evidence, so `pytest -v -s` reads as a
checklist. Every check here is backed by an independent oracle (brute-force
formula, union-find, definition-level statistics) or by exact arithmetic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from pathlib import Path

import pytest

from causeway.cli import main
from causeway.consist import output_validity_violations, run_to_fixed_point
from causeway.corpus import LETTERS, document_text, load_docs, load_questions
from causeway.embed import EmbedderSpec, make_embedder
from causeway.evaluate import (
    cohen_kappa,
    fleiss_kappa,
    krippendorff_alpha,
    oracle_report,
    score_question,
    score_run,
)
from causeway.graphrag import DocGraph, EntryPoints, HybridParams, make_query, retrieve
from causeway.lexindex import Bm25Params, LexIndex, bm25_plus, tokenize
from causeway.reason import VoteTally, render_prompt, threshold_votes
from helpers import (
    METRIC_CASES,
    bm25_reference,
    cohen_reference,
    component_reference,
    counted,
    fleiss_reference,
    krippendorff_reference,
    make_question,
    question_to_row,
    random_sibling_group,
    topic_retriever,
)
from test_consist import (
    CASCADE_EXPECTED_ITERATIONS,
    CASCADE_EXPECTED_PREDICTIONS,
    CASCADE_EXPECTED_RULE_COUNTS,
    CASCADE_PREDICTIONS,
    CASCADE_QUESTIONS,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "toy"


def announce(name: str, detail: str) -> None:
    print(f"\nPASS {name}: {detail}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_metric_table():
    with Timer() as t:
        for pred, gold, expected in METRIC_CASES:
            assert score_question(pred, gold) == expected, (pred, gold)
        # mean over the table matches hand arithmetic: 5*1.0 + 5*0.5 = 7.5 over 20
        golds = {str(i): frozenset(gold) for i, (_, gold, _) in enumerate(METRIC_CASES)}
        preds = {str(i): frozenset(pred) for i, (pred, _, _) in enumerate(METRIC_CASES)}
        report = score_run(preds, golds)
        assert report.mean == 7.5 / 20
        assert (report.exact, report.partial, report.zero) == (5, 5, 10)
    assert t.elapsed < 1.0
    announce(
        "metric-table",
        f"20 hand-scored cases exact, mean {report.mean} == 7.5/20, {t.elapsed:.3f}s < 1s",
    )


def test_retrieval_matches_union_find_oracle():
    rng = random.Random(40211)
    with Timer() as t:
        for trial in range(500):
            n = rng.randint(1, 50)
            nodes = tuple(f"n{i}" for i in range(n))
            edges = [
                (nodes[i], nodes[j], round(rng.random(), 3))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.1
            ]
            graph = DocGraph(topic_id=0, nodes=nodes, edges=edges)
            threshold = round(rng.uniform(0.0, 1.0), 3)
            k = rng.randint(1, min(4, n))
            entries = rng.sample(list(nodes), k)
            result = retrieve(
                "q",
                EntryPoints(dense=tuple(entries[:2]), sparse=tuple(entries[2:])),
                graph,
                HybridParams(edge_threshold=threshold),
            )
            expected = component_reference(nodes, edges, entries, threshold)
            assert set(result.selected) == expected, f"trial {trial}"
            assert set(result.excluded) == set(nodes) - expected, f"trial {trial}"
    assert t.elapsed < 10.0
    announce(
        "retrieval-oracle",
        f"500 random graphs (<=50 nodes) equal union-find components, {t.elapsed:.2f}s < 10s",
    )


def test_bm25_matches_direct_formula():
    rng = random.Random(7110)
    vocab = [f"term{i}" for i in range(30)]
    with Timer() as t:
        worst = 0.0
        for _ in range(10):
            n_docs = rng.randint(2, 8)
            texts = {
                f"d{i}": " ".join(rng.choices(vocab, k=rng.randint(5, 60)))
                for i in range(n_docs)
            }
            entities = frozenset(rng.sample(vocab, 3))
            index = LexIndex.build(texts)
            doc_tokens = {d: tokenize(text) for d, text in texts.items()}
            params = Bm25Params()
            for _ in range(20):
                query = rng.choices(vocab, k=rng.randint(1, 6))
                doc_id = rng.choice(list(texts))
                got = bm25_plus(query, [doc_id], index, params, entities)[0]
                want = bm25_reference(query, doc_tokens, doc_id, entities=entities)
                if want:
                    worst = max(worst, abs(got - want) / abs(want))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        # the entity multiplier scales a single-term score by exactly 3
        texts = {"a": "reactor coolant pump", "b": "reactor shutdown log"}
        index = LexIndex.build(texts)
        plain = bm25_plus(["reactor"], ["a"], index, Bm25Params(), frozenset())[0]
        boosted = bm25_plus(["reactor"], ["a"], index, Bm25Params(), frozenset({"reactor"}))[0]
        assert plain > 0.0
        assert boosted / plain == pytest.approx(3.0, abs=1e-9)
    assert t.elapsed < 5.0
    announce(
        "bm25-oracle",
        f"10 corpora x 20 queries within 1e-9 relative (worst {worst:.2e}), "
        f"entity ratio {boosted / plain}, {t.elapsed:.2f}s < 5s",
    )


def test_cache_hit_rate_on_dev_shaped_run(tmp_path, capsys):
    rng = random.Random(5)
    topics = list(range(36))
    # 400 questions spread over 36 topics, every topic hit at least once
    assignment = topics + [rng.choice(topics) for _ in range(400 - 36)]
    rng.shuffle(assignment)
    # each question its own first option, so that each has its own query
    question_rows = [
        question_to_row(make_question(f"q{i}", topic, f"the dam on river {topic} failed", a=f"cause {i}"))
        for i, topic in enumerate(assignment)
    ]
    doc = {"title": "Dam report", "snippet": "The dam failed", "source": "Wire", "link": "https://example.com/"}
    doc_rows = [
        {"topic_id": t, "docs": [{**doc, "id": f"d{t}", "content": f"The dam on river {t} failed."}]} for t in topics
    ]
    questions, docs = tmp_path / "questions.jsonl", tmp_path / "docs.jsonl"
    questions.write_text("".join(json.dumps(row) + "\n" for row in question_rows), encoding="utf-8")
    docs.write_text("".join(json.dumps(row) + "\n" for row in doc_rows), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["retrieve", "--questions", str(questions), "--docs", str(docs), "--out", str(out)]) == 0
    counts = json.loads((out / "manifests" / "retrieve.json").read_text(encoding="utf-8"))["counts"]
    assert counts["cache_hits"] == 364
    assert counts["cache_misses"] == 36
    assert counts["cache_hit_rate"] == 0.91
    assert "cache hit rate 0.910 (364/400)" in capsys.readouterr().out
    # every question of a topic gets the row of the topic's first question
    rows = [json.loads(line) for line in (out / "retrieval.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [row["id"] for row in rows] == [f"q{i}" for i in range(400)]
    firsts: dict[int, dict] = {}
    for topic, row in zip(assignment, rows):
        first = firsts.setdefault(topic, row)
        assert {**row, "id": first["id"]} == first
    assert len(firsts) == 36
    announce("cache-arithmetic", "36 topics / 400 questions through retrieve -> hit rate exactly 0.91")


def test_threshold_equivalence_and_monotonicity():
    subsets = [frozenset(c) for r in range(5) for c in itertools.combinations(LETTERS, r)]
    with Timer() as t:
        checked = 0
        for trio in itertools.combinations_with_replacement(subsets, 3):
            counts = {letter: sum(letter in s for s in trio) for letter in LETTERS}
            votes = VoteTally(counts=counts, k=3)
            assert threshold_votes(votes, 0.67) == threshold_votes(votes, 1.0)
            checked += 1
        rng = random.Random(99)
        for _ in range(10_000):
            k = rng.randint(1, 10)
            votes = VoteTally(
                counts={letter: rng.randint(0, k) for letter in LETTERS}, k=k
            )
            lo, hi = sorted((rng.random(), rng.random()))
            assert threshold_votes(votes, hi) <= threshold_votes(votes, lo)
    assert t.elapsed < 5.0
    announce(
        "aggregation-identity",
        f"theta 0.67 == theta 1.00 on all {checked} k=3 tallies; "
        f"monotone on 10,000 random tallies, {t.elapsed:.2f}s < 5s",
    )


def test_heuristics_convergence_validity_idempotence():
    with Timer() as t:
        out = run_to_fixed_point(CASCADE_QUESTIONS, CASCADE_PREDICTIONS)
        assert out.report.converged
        assert out.report.iterations <= 3
        assert out.report.iterations == CASCADE_EXPECTED_ITERATIONS
        assert out.predictions == CASCADE_EXPECTED_PREDICTIONS
        assert out.report.rule_counts == CASCADE_EXPECTED_RULE_COUNTS

        rng = random.Random(20240817)
        max_seen = 0
        for g in range(1000):
            questions, preds = random_sibling_group(rng, g)
            first = run_to_fixed_point(questions, preds)
            assert first.report.converged, f"group {g} did not converge"
            assert first.report.iterations <= 10
            max_seen = max(max_seen, first.report.iterations)
            assert output_validity_violations(questions, first.predictions) == [], f"group {g}"
            second = run_to_fixed_point(questions, first.predictions)
            assert second.predictions == first.predictions, f"group {g} not idempotent"
    assert t.elapsed < 10.0
    announce(
        "heuristics-fixed-point",
        f"cascade fixture in {out.report.iterations} passes with rule counts "
        f"{ {r: c for r, c in out.report.rule_counts.items() if c} }; 1000 random "
        f"groups converge (max {max_seen} passes), valid and idempotent, {t.elapsed:.2f}s < 10s",
    )


def test_agreement_statistics_match_brute_force():
    rng = random.Random(314159)
    categories = ["A", "B", "A,B", "C", "B,D", "D"]
    with Timer() as t:
        for trial in range(100):
            n_items = rng.randint(2, 8)
            n_raters = rng.randint(2, 4)
            table = [
                [rng.choice(categories) for _ in range(n_raters)] for _ in range(n_items)
            ]
            assert fleiss_kappa(counted(table)) == pytest.approx(
                fleiss_reference(table), abs=1e-9
            ), f"trial {trial}"
            a = [row[0] for row in table]
            b = [row[1] for row in table]
            assert cohen_kappa(a, b) == pytest.approx(cohen_reference(a, b), abs=1e-9)
            units = [
                [frozenset(c.split(",")) for c in row] for row in table
            ]
            for metric in ("nominal", "jaccard"):
                assert krippendorff_alpha(counted(units), metric) == pytest.approx(
                    krippendorff_reference(units, metric), abs=1e-9
                ), f"trial {trial} metric {metric}"

        # identical raters agree perfectly
        same = [["A,B"] * 3, ["C"] * 3, ["D"] * 3, ["B"] * 3]
        assert fleiss_kappa(counted(same)) == 1.0
        assert cohen_kappa([r[0] for r in same], [r[1] for r in same]) == 1.0
        units = [[frozenset(c.split(",")) for c in row] for row in same]
        assert krippendorff_alpha(counted(units), "nominal") == 1.0
        assert krippendorff_alpha(counted(units), "jaccard") == 1.0

        # independent raters land near zero
        rng = random.Random(2718)
        a = [rng.choice(categories) for _ in range(1000)]
        b = [rng.choice(categories) for _ in range(1000)]
        kappa = cohen_kappa(a, b)
        assert abs(kappa) < 0.1
    assert t.elapsed < 10.0
    announce(
        "agreement-oracle",
        f"100 random tables within 1e-9 of definition-level references; identical raters 1.0; "
        f"independent raters kappa {kappa:+.4f} (|k| < 0.1)",
    )


def _run_pipeline(out_dir: Path) -> dict[str, str]:
    old = os.getcwd()
    os.chdir(FIXTURE_DIR)
    try:
        for stage in ("ingest", "build-graph", "retrieve", "infer", "postprocess", "score", "report"):
            assert main([stage, "--config", "config.json", "--out", str(out_dir)]) == 0
    finally:
        os.chdir(old)
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def test_end_to_end_determinism_and_prompt_structure(tmp_path):
    digests = [_run_pipeline(tmp_path / f"run{i}") for i in range(3)]
    assert digests[0] == digests[1] == digests[2]
    assert len(digests[0]) >= 15  # manifests, graphs, traces, reports

    questions = load_questions(FIXTURE_DIR / "questions.jsonl")
    topics = load_docs(FIXTURE_DIR / "docs.jsonl")
    q = questions[0]
    embedder = make_embedder(EmbedderSpec(kind="mock", dim=64, seed=0))
    doc_vecs = embedder.embed_texts([document_text(d) for d in topics[q.topic_id]])
    retriever = topic_retriever(q.topic_id, topics[q.topic_id], doc_vecs)
    result = retriever.retrieve_query(make_query(q), embedder.embed_texts([make_query(q)])[0])
    docs = {d.id: d for d in topics[q.topic_id]}
    rendered = render_prompt(q, [docs[doc_id] for doc_id in result.selected])
    blocks = [
        "<role>", "</role>",
        "<task>", "</task>",
        "<input_format>", "<context_documents>", "<document_1>",
        f"<document_{len(result.selected)}>", "</context_documents>",
        "<target_event>", "</target_event>",
        "<options>", "<option_a>", "<option_b>", "<option_c>", "<option_d>", "</options>",
        "</input_format>",
        "<instructions>", "<reasoning_criteria>", "<selection_rules>", "<quality_checks>",
        "</instructions>",
        "<output_format>", "<analysis>", "</analysis>", "<answer>", "</answer>",
        "</output_format>",
    ]
    pos = -1
    for block in blocks:
        nxt = rendered.text.find(block, pos + 1)
        assert nxt > pos, f"block {block} missing or out of order"
        pos = nxt
    assert rendered.doc_count == len(result.selected)
    announce(
        "end-to-end-determinism",
        f"3 full pipeline runs byte-identical over {len(digests[0])} artifacts; "
        f"prompt carries all {len(blocks)} structural blocks in order",
    )


def test_oracle_dominance():
    rng = random.Random(606)
    for trial in range(100):
        n_q = rng.randint(5, 30)
        golds = {
            f"q{i}": frozenset(rng.sample(LETTERS, rng.randint(1, 4))) for i in range(n_q)
        }
        model_preds = {}
        for m in range(rng.randint(2, 4)):
            preds = {}
            for qid in golds:
                if rng.random() < 0.05:
                    continue  # occasionally a model skips a question
                preds[qid] = frozenset(rng.sample(LETTERS, rng.randint(1, 4)))
            model_preds[f"model{m}"] = preds
        report = oracle_report(model_preds, golds)
        assert report.mean >= max(report.model_means.values()) - 1e-12, f"trial {trial}"
    announce("oracle-dominance", "oracle mean >= best single model on 100 random runs")
