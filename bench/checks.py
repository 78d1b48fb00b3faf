"""Independent checks of the artifacts a pipeline pass writes under --out,
and one digest over its discrete outputs.

Each check re-derives its answer from the written files with its own code:
union-find components for retrieval, a plain partial-credit scorer, and a
plain reading of the output contract. None calls the package's functions.
Every function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

LETTERS = ("A", "B", "C", "D")
ENTRY_KINDS = ("dense-entry", "sparse-entry")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _letters(raw: str) -> frozenset[str]:
    return frozenset(t for t in raw.replace(" ", "").split(",") if t)


def _canon(text: str) -> str:
    return " ".join(text.casefold().split()).rstrip(".!?…").rstrip()


def _components(nodes: list[str], edges: list[dict], threshold: float) -> dict[str, str]:
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        if e["w"] >= threshold:
            ra, rb = find(e["a"]), find(e["b"])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in nodes}


def check_retrieval(out: Path, question_ids: list[str], threshold: float) -> list[str]:
    """Each row's selected docs are exactly the union of the components of
    its entry points over the written edges at the threshold, with no
    repeats; excluded is the sorted rest."""
    problems = []
    rows = {row["id"]: row for row in read_jsonl(out / "retrieval.jsonl")}
    roots_by_topic: dict[int, dict[str, str]] = {}
    for qid in question_ids:
        row = rows.get(qid)
        if row is None:
            problems.append(f"retrieval: no row for {qid}")
            continue
        tid = row["topic_id"]
        if tid not in roots_by_topic:
            graph = read_json(out / "graphs" / f"topic_{tid}.json")
            roots_by_topic[tid] = _components(graph["nodes"], graph["edges"], threshold)
        roots = roots_by_topic[tid]
        entries = [d for d, kind in row["provenance"].items() if kind in ENTRY_KINDS]
        if not entries or any(d not in roots for d in entries):
            problems.append(f"retrieval: {qid} has no valid entry points")
            continue
        reached = {roots[d] for d in entries}
        component = {n for n, r in roots.items() if r in reached}
        selected = row["selected"]
        if len(selected) != len(set(selected)) or set(selected) != component:
            problems.append(f"retrieval: {qid} selected {len(selected)} docs, component has {len(component)}")
        if set(row["provenance"]) != set(selected):
            problems.append(f"retrieval: {qid} provenance does not cover exactly the selected docs")
        if row["excluded"] != sorted(set(roots) - component):
            problems.append(f"retrieval: {qid} excluded is not the sorted rest of the topic")
    return problems


def check_consistency(out: Path) -> list[str]:
    summary = read_json(out / "consistency.json")
    if "violations" not in summary:
        return ["consistency: consistency.json has no violations list"]
    return [f"consistency: {v}" for v in summary["violations"]]


def check_final_predictions(out: Path, questions: list[dict]) -> list[str]:
    """Output contract on predictions.final.jsonl: a non-empty subset of A-D,
    no rejection letter next to a substantive one, and each group of
    identical options selected whole or not at all."""
    problems = []
    preds = {row["id"]: _letters(row["prediction"]) for row in read_jsonl(out / "predictions.final.jsonl")}
    for q in questions:
        pred = preds.get(q["id"])
        if not pred or not pred <= set(LETTERS):
            problems.append(f"final: {q['id']} has invalid prediction {sorted(pred or [])}")
            continue
        texts = {l: _canon(q[f"option_{l}"]) for l in LETTERS}
        rejections = {l for l in LETTERS if texts[l].startswith("none of the")}
        if pred & rejections and pred - rejections:
            problems.append(f"final: {q['id']} mixes a rejection option with substantive ones")
        for l in pred:
            twins = {m for m in LETTERS if texts[m] == texts[l]}
            if not twins <= pred:
                problems.append(f"final: {q['id']} selects {l} but not its duplicate {sorted(twins - pred)}")
                break
    return problems


def _partial_credit(pred: frozenset[str], gold: frozenset[str]) -> float:
    if pred == gold:
        return 1.0
    return 0.5 if pred and pred < gold else 0.0


def check_score(out: Path, questions: list[dict]) -> list[str]:
    """The mean partial credit recomputed from predictions.final.jsonl
    equals the one in score_report.json."""
    preds = {row["id"]: _letters(row["prediction"]) for row in read_jsonl(out / "predictions.final.jsonl")}
    scores = [
        _partial_credit(preds.get(q["id"], frozenset()), _letters(q["golden_answer"]))
        for q in questions
    ]
    mean = sum(scores) / len(scores)
    reported = read_json(out / "score_report.json")["mean"]
    if abs(mean - reported) > 1e-12:
        return [f"score: recomputed mean {mean!r} != reported {reported!r}"]
    return []


def check_samples(out: Path, question_ids: list[str], k: int) -> tuple[list[str], int]:
    """Every question has samples 0..k-1. Also returns how many samples are
    transport-failure placeholders (empty raw text)."""
    problems = []
    seen: dict[str, list[int]] = {}
    placeholders = 0
    for row in read_jsonl(out / "samples.jsonl"):
        seen.setdefault(row["question_id"], []).append(row["sample_index"])
        placeholders += 1 if (row["raw"] == "" and not row["valid"]) else 0
    for qid in question_ids:
        if sorted(seen.get(qid, [])) != list(range(k)):
            problems.append(f"samples: {qid} has sample indices {sorted(seen.get(qid, []))}, expected 0..{k - 1}")
    return problems, placeholders


def realism(out: Path, distractors: dict[int, list[str]]) -> dict[str, float]:
    """Share of all-pairs similarities kept as edges, and share of planted
    distractors left out of the retrieved topic contexts."""
    pairs = edges = 0
    for path in (out / "graphs").glob("topic_*.json"):
        graph = read_json(path)
        n = len(graph["nodes"])
        pairs += n * (n - 1) // 2
        edges += len(graph["edges"])
    excluded = total = 0
    contexts = {}
    for row in read_jsonl(out / "retrieval.jsonl"):
        contexts.setdefault(row["topic_id"], set(row["excluded"]))
    for tid, left_out in contexts.items():
        planted = set(distractors.get(tid, []))
        total += len(planted)
        excluded += len(planted & left_out)
    return {
        "pairs": pairs,
        "edges": edges,
        "edge_keep_ratio": edges / pairs if pairs else 0.0,
        "distractor_excluded_share": excluded / total if total else 0.0,
    }


def check_realism(stats: dict[str, float]) -> list[str]:
    problems = []
    if stats["edge_keep_ratio"] >= 1.0:
        problems.append("realism: every document pair became an edge")
    if stats["distractor_excluded_share"] <= 0.0:
        problems.append("realism: no planted distractor was excluded")
    return problems


def digest(out: Path) -> str:
    """sha256 over edge pair sets, retrieval lists, parsed samples, raw and
    final predictions, and the audit; floats stay out."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        h.update(json.dumps(obj, sort_keys=True).encode("utf-8"))
        h.update(b"\n")

    for path in sorted((out / "graphs").glob("topic_*.json"), key=lambda p: p.name):
        graph = read_json(path)
        feed([graph["topic_id"], sorted([e["a"], e["b"]] for e in graph["edges"])])
    for row in read_jsonl(out / "retrieval.jsonl"):
        feed([row["id"], row["selected"], row["excluded"]])
    for row in read_jsonl(out / "samples.jsonl"):
        feed([row["question_id"], row["sample_index"], row["parsed"], row["valid"]])
    for name in ("predictions.jsonl", "predictions.final.jsonl", "audit.jsonl"):
        for row in read_jsonl(out / name):
            feed(row)
    return h.hexdigest()


def check_all(out: Path, questions: list[dict], k: int, threshold: float) -> tuple[list[str], int]:
    """Every output check over one pass's artifacts. Returns the problems
    and the number of placeholder samples."""
    qids = [q["id"] for q in questions]
    problems = check_retrieval(out, qids, threshold)
    problems += check_consistency(out)
    problems += check_final_predictions(out, questions)
    problems += check_score(out, questions)
    sample_problems, placeholders = check_samples(out, qids, k)
    return problems + sample_problems, placeholders
