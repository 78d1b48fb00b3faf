"""Which calls the traced run wraps, and how its spans become per-layer
metrics. Layers are causeway's modules.

BENCHMARK.json names every per-layer metric with its unit and better
direction; MOVES records, for each, the end-to-end metric and the workload
it should move.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from checks import read_json, read_jsonl
from tracing import Tracer

# a full pass in order: report runs last, so it always embeds the agree outputs
STAGES = ("ingest", "build-graph", "retrieve", "infer", "postprocess", "score", "agree", "report")
PIPELINE = tuple(stage for stage in STAGES if stage != "agree")

# per-layer metric -> (end-to-end metric it should move, on which workload)
MOVES = {
    "corpus.load_s": ("questions_per_s", "many-questions"),
    "corpus.loads": ("questions_per_s", "many-questions"),
    "consist.normalize_text.calls": ("postprocess_s", "many-questions"),
    "lexindex.top_terms.calls": ("build_graph_s", "wide-topics"),
    "lexindex.top_terms_s": ("build_graph_s", "wide-topics"),
    "lexindex.bm25_plus.calls": ("build_graph_s", "wide-topics"),
    "lexindex.bm25_plus_s": ("build_graph_s", "wide-topics"),
    "lexindex.lexical_similarity_s": ("build_graph_s", "wide-topics"),
    "lexindex.builds": ("retrieve_s", "wide-topics"),
    "lexindex.build_s": ("retrieve_s", "wide-topics"),
    "lexindex.extract_entities_s": ("retrieve_s", "wide-topics"),
    "embed.embed_texts.calls": ("build_graph_s", "wide-topics"),
    "embed.texts": ("retrieve_s", "wide-topics"),
    "embed.embed_texts_s": ("retrieve_s", "wide-topics"),
    "embed.cosine.calls": ("build_graph_s", "wide-topics"),
    "embed.cosine_s": ("build_graph_s", "wide-topics"),
    "embed.remote_requests": ("retrieve_s", "dev-remote"),
    "embed.remote_texts": ("retrieve_s", "dev-remote"),
    "embed.transport_retries": ("build_graph_s", "dev-remote"),
    "embed.cache_hit_ratio": ("retrieve_s", "dev-remote"),
    "graphrag.topic_retrievers": ("build_graph_s", "wide-topics"),
    "graphrag.topic_retriever_init_s": ("build_graph_s", "wide-topics"),
    "graphrag.build_graph.self_s": ("build_graph_s", "wide-topics"),
    "graphrag.pairs": ("build_graph_s", "wide-topics"),
    "graphrag.edges": ("retrieve_s", "wide-topics"),
    "graphrag.edge_keep_ratio": ("retrieve_s", "wide-topics"),
    "graphrag.distractor_excluded_share": ("infer_s", "wide-topics"),
    "graphrag.entry_points_s": ("retrieve_s", "dev-remote"),
    "graphrag.retrieve_s": ("retrieve_s", "dev-remote"),
    "graphrag.cache_hit_rate": ("retrieve_s", "dev-remote"),
    "graphrag.selected_docs_mean": ("infer_s", "wide-topics"),
    "reason.render_prompt_s": ("infer_s", "wide-topics"),
    "reason.prompt_bytes": ("infer_s", "wide-topics"),
    "reason.llm_calls": ("infer_s", "dev-remote"),
    "reason.client_s": ("infer_s", "dev-remote"),
    "reason.client_call_ms.p50": ("infer_s", "dev-remote"),
    "reason.client_call_ms.p99": ("infer_s", "dev-remote"),
    "reason.transport_retries": ("infer_s", "dev-remote"),
    "reason.parse_retries": ("infer_s", "dev-remote"),
    "reason.parse_response_s": ("infer_s", "many-questions"),
    "reason.aggregate_s": ("infer_s", "many-questions"),
    "reason.overhead_s": ("infer_s", "many-questions"),
    "reason.valid_sample_ratio": ("infer_s", "many-questions"),
    "consist.run_to_fixed_point_s": ("postprocess_s", "many-questions"),
    "consist.iterations": ("postprocess_s", "many-questions"),
    "consist.changes": ("postprocess_s", "many-questions"),
    "consist.contradictions": ("postprocess_s", "many-questions"),
    "consist.output_validity_s": ("postprocess_s", "many-questions"),
    "evaluate.agreement_report_s": ("agree_s", "many-questions"),
    "evaluate.krippendorff_alpha_s": ("agree_s", "many-questions"),
    "evaluate.jaccard_distance.calls": ("agree_s", "many-questions"),
    "evaluate.fleiss_kappa_s": ("agree_s", "many-questions"),
    "evaluate.cohen_kappa_s": ("agree_s", "many-questions"),
    "evaluate.oracle_report_s": ("agree_s", "dev-remote"),
    "evaluate.bias_stats_s": ("agree_s", "dev-remote"),
    "evaluate.score_run_s": ("questions_per_s", "many-questions"),
    **{f"cli.{stage}.self_s": ("questions_per_s", "many-questions") for stage in STAGES},
    "cli.artifact_bytes": ("questions_per_s", "many-questions"),
    "trace.overhead_ratio": ("none: traced runs only", "all"),
}


def _add(key: str, amount):
    def observe(tracer: Tracer, args, result) -> None:
        tracer.values[key] += amount(args, result)

    return observe


def _observe_graph(tracer: Tracer, args, result) -> None:
    n = len(args[1])
    tracer.values["graphrag.pairs"] += n * (n - 1) // 2
    tracer.values["graphrag.edges"] += len(result.edges)


def install(tracer: Tracer) -> None:
    """Wraps each layer's public calls at the names their callers resolve."""
    from causeway import cli, consist, embed, evaluate, graphrag, lexindex, reason

    for attr in ("load_questions", "load_docs"):
        tracer.patch(cli, attr, f"corpus.{attr}")
    tracer.patch(consist, "normalize_text", "consist.normalize_text", count_only=True)
    tracer.patch(lexindex.LexIndex, "build", "lexindex.build")
    tracer.patch(lexindex, "top_terms", "lexindex.top_terms")
    tracer.patch(lexindex, "bm25_plus", "lexindex.bm25_plus")
    for attr in ("bm25_plus", "lexical_similarity", "extract_entities"):
        tracer.patch(graphrag, attr, f"lexindex.{attr}")
    tracer.patch(graphrag, "cosine", "embed.cosine")
    texts = _add("embed.texts", lambda args, result: len(args[1]))
    tracer.patch(embed.MockEmbedder, "embed_texts", "embed.embed_texts", texts)
    tracer.patch(embed.RemoteEmbedder, "embed_texts", "embed.embed_texts", texts)
    tracer.patch(embed.VectorCache, "get", "embed.cache_get", _add("embed.cache_hits", lambda a, r: r is not None))
    tracer.patch(graphrag.TopicRetriever, "__init__", "graphrag.TopicRetriever")
    tracer.patch(graphrag, "build_graph", "graphrag.build_graph", _observe_graph)
    tracer.patch(graphrag, "entry_points", "graphrag.entry_points")
    tracer.patch(graphrag, "retrieve", "graphrag.retrieve")
    tracer.patch(cli, "sample_question", "reason.sample_question")
    tracer.patch(reason, "render_prompt", "reason.render_prompt",
                 _add("reason.prompt_bytes", lambda a, r: len(r.text.encode("utf-8"))))
    tracer.patch(reason, "parse_response", "reason.parse_response")
    for client in (reason.OverlapMockClient, reason.ScriptedMockClient, reason.RemoteChatClient):
        tracer.patch(client, "complete", "reason.client")
    tracer.patch(cli, "tally", "reason.tally")
    tracer.patch(cli, "aggregate", "reason.aggregate")
    tracer.patch(cli, "run_to_fixed_point", "consist.run_to_fixed_point")
    tracer.patch(cli, "output_validity_violations", "consist.output_validity")
    for attr in ("agreement_report", "oracle_report", "bias_stats", "score_run"):
        tracer.patch(cli, attr, f"evaluate.{attr}")
    for attr in ("krippendorff_alpha", "fleiss_kappa", "cohen_kappa", "score_run"):
        tracer.patch(evaluate, attr, f"evaluate.{attr}")
    tracer.patch(evaluate, "jaccard_distance", "evaluate.jaccard_distance", count_only=True)


def derive(tracer: Tracer, out: Path, realism: dict, stub: dict, overhead: float) -> dict[str, float]:
    """Every per-layer metric from one traced pass: its spans, the
    artifacts under out, the stub's counters and the measured overhead."""
    s = tracer.summary()

    def calls(*names: str) -> int:
        return sum(s.get(n, {}).get("calls", 0) for n in names)

    def total(*names: str) -> float:
        return sum(s.get(n, {}).get("total_s", 0.0) for n in names)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    client_ms = sorted((end - start) * 1000.0 for _, _, name, start, end in tracer.spans if name == "reason.client")
    cuts = statistics.quantiles(client_ms, n=100, method="inclusive") if len(client_ms) > 1 else [0.0] * 99
    samples = read_jsonl(out / "samples.jsonl")
    retrieval = read_jsonl(out / "retrieval.jsonl")
    consistency = read_json(out / "consistency.json")
    values = tracer.values
    m = {
        "corpus.load_s": total("corpus.load_questions", "corpus.load_docs"),
        "corpus.loads": calls("corpus.load_questions", "corpus.load_docs"),
        "consist.normalize_text.calls": calls("consist.normalize_text"),
        "lexindex.top_terms.calls": calls("lexindex.top_terms"),
        "lexindex.top_terms_s": total("lexindex.top_terms"),
        "lexindex.bm25_plus.calls": calls("lexindex.bm25_plus"),
        "lexindex.bm25_plus_s": total("lexindex.bm25_plus"),
        "lexindex.lexical_similarity_s": total("lexindex.lexical_similarity"),
        "lexindex.builds": calls("lexindex.build"),
        "lexindex.build_s": total("lexindex.build"),
        "lexindex.extract_entities_s": total("lexindex.extract_entities"),
        "embed.embed_texts.calls": calls("embed.embed_texts"),
        "embed.texts": values["embed.texts"],
        "embed.embed_texts_s": total("embed.embed_texts"),
        "embed.cosine.calls": calls("embed.cosine"),
        "embed.cosine_s": total("embed.cosine"),
        "embed.remote_requests": stub.get("embed_requests", 0),
        "embed.remote_texts": stub.get("embed_texts", 0),
        "embed.transport_retries": stub.get("embed_injected_500", 0),
        "embed.cache_hit_ratio": ratio(values["embed.cache_hits"], calls("embed.cache_get")),
        "graphrag.topic_retrievers": calls("graphrag.TopicRetriever"),
        "graphrag.topic_retriever_init_s": total("graphrag.TopicRetriever"),
        "graphrag.build_graph.self_s": s.get("graphrag.build_graph", {}).get("self_s", 0.0),
        "graphrag.pairs": values["graphrag.pairs"],
        "graphrag.edges": values["graphrag.edges"],
        "graphrag.edge_keep_ratio": ratio(values["graphrag.edges"], values["graphrag.pairs"]),
        "graphrag.distractor_excluded_share": realism["distractor_excluded_share"],
        "graphrag.entry_points_s": total("graphrag.entry_points"),
        "graphrag.retrieve_s": total("graphrag.retrieve"),
        "graphrag.cache_hit_rate": read_json(out / "manifests" / "retrieve.json")["counts"]["cache_hit_rate"],
        "graphrag.selected_docs_mean": ratio(sum(len(r["selected"]) for r in retrieval), len(retrieval)),
        "reason.render_prompt_s": total("reason.render_prompt"),
        "reason.prompt_bytes": values["reason.prompt_bytes"],
        "reason.llm_calls": calls("reason.client"),
        "reason.client_s": total("reason.client"),
        "reason.client_call_ms.p50": cuts[49],
        "reason.client_call_ms.p99": cuts[98],
        "reason.transport_retries": stub.get("chat_injected_500", 0),
        "reason.parse_retries": stub.get("chat_injected_unparseable", 0),
        "reason.parse_response_s": total("reason.parse_response"),
        "reason.aggregate_s": total("reason.aggregate"),
        "reason.overhead_s": total("reason.sample_question") - total("reason.client")
        + total("reason.tally", "reason.aggregate"),
        "reason.valid_sample_ratio": ratio(sum(1 for r in samples if r["valid"]), len(samples)),
        "consist.run_to_fixed_point_s": total("consist.run_to_fixed_point"),
        "consist.iterations": consistency["iterations"],
        "consist.changes": consistency["n_changes"],
        "consist.contradictions": len(consistency["contradictions"]),
        "consist.output_validity_s": total("consist.output_validity"),
        "evaluate.agreement_report_s": total("evaluate.agreement_report"),
        "evaluate.krippendorff_alpha_s": total("evaluate.krippendorff_alpha"),
        "evaluate.jaccard_distance.calls": calls("evaluate.jaccard_distance"),
        "evaluate.fleiss_kappa_s": total("evaluate.fleiss_kappa"),
        "evaluate.cohen_kappa_s": total("evaluate.cohen_kappa"),
        "evaluate.oracle_report_s": total("evaluate.oracle_report"),
        "evaluate.bias_stats_s": total("evaluate.bias_stats"),
        "evaluate.score_run_s": total("evaluate.score_run"),
        "cli.artifact_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "trace.overhead_ratio": overhead,
    }
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = s.get(f"cli.{stage}", {}).get("self_s", 0.0)
    return m
