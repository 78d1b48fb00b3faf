"""End-to-end tests for the command line pipeline on the bundled fixture.

The fixture under tests/fixtures/toy is small enough to reason about by
hand: 12 questions over 3 topics, 6 documents per topic (one of them an
off-topic distractor), and a scripted model whose answers make every
post-hoc rule outcome predictable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from causeway import cli, consist, corpus, embed, evaluate, graphrag, lexindex, reason, remote
from causeway.cli import RunConfig, build_config, load_predictions, main, _build_parser
from causeway.corpus import document_text, load_docs, load_questions
from causeway.embed import MockEmbedder
from causeway.lexindex import LexIndex, extract_entities, tokenize
from causeway.reason import OverlapMockClient
from causeway.remote import ConfigError
from helpers import cache_rows, config_objects, flag_args, record_texts

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "toy"
STAGES = ("ingest", "build-graph", "retrieve", "infer", "postprocess", "score", "report")

RAW_PREDICTIONS = {
    "q101a": "A,B",
    "q101b": "A",
    "q101c": "B",
    "q101d": "A,C",
    "q102a": "A,B",
    "q102b": "B",
    "q102c": "A,B,C",
    "q102d": "A",
    "q103a": "D",
    "q103b": "A,B",
    "q103c": "C",
    "q103d": "A",
}

FINAL_PREDICTIONS = {
    **RAW_PREDICTIONS,
    "q101b": "A,C",  # duplicate of q101a's selected cause, re-added across siblings
    "q101c": "A,B,C",  # duplicate class completed, then sibling-true cause added
    "q102b": "B,C",  # sibling-true cause added
    "q103b": "B",  # cause rejected by the sibling's none-only answer, unselected
}

DISTRACTORS = {101: "p6", 102: "w6", 103: "f6"}

# The sha256 of each file of the toy tree: every stage through score, agree
# on the raw and final predictions, then report. Left out are graphs/* and
# manifests/build-graph.json, whose float bytes depend on the numpy build.
TOY_TREE_SHA256 = {
    "agreement_report.json": "16a7f4c15d9fd0cea006c4ea263b71e05973d2e57b55ddf5d641e62dce707bd9",
    "audit.jsonl": "1f48a3cc3e403b6be633d5ab691424730ccdcc2b89b5beedf153a75456c92f78",
    "bias_report.json": "34c318f98ccb8f73129a9b592aba6f7fb9d4d7028a0bd372388c7c778f80278b",
    "consistency.json": "7259479d507c5eef2d3709e42206518bbf0bfe7442d09548f0eb21d7918657ce",
    "ingest/siblings.jsonl": "7bdc4cd797b17b694a5d22bbb4bd261411cd559c5bd754820468e85ebe9324d9",
    "ingest/structure.json": "a6ed43304c14f20f7439c06334dbef2b598f394783903080630640bbd7861581",
    "manifests/agree.json": "baacc4e50d8bf4aac8e2c162232146472d796d6370f768f36c8f080a6f23f703",
    "manifests/infer.json": "a22d1b1f6ce902ab254d6c6fc213a59d219d7a20bf736878aff85db6526b0b14",
    "manifests/ingest.json": "dbd54d2af294c018906eb77ace15a68078318ca7ea867656b09ae7711231d037",
    "manifests/postprocess.json": "3c280a5681f6276e3f013316c946c6e55df877c3dcf3616b5a0fefef15259282",
    "manifests/retrieve.json": "43b590d581fb072b1ef055c9851bfd98a82a57d761eac1c239a8eab482cd25bb",
    "manifests/score.json": "86e261cb645ef23476ca33b00f5f63adbaae1636eb5fa4a60ae5cff95281f6a2",
    "oracle_report.json": "eba83b72460d06f5d14d31a7b4bf03da02d3bcf7015b4fd6aca674fa3adf5b74",
    "predictions.final.jsonl": "65e4ac28b2010d491476a914bcc9e27acedc2a85c8fc02bf910c1bbe36ee7c26",
    "predictions.jsonl": "586f86639ac16461ed81156fa9addb844694dc6697f4b7e9e1c155f1a50030cd",
    "report.json": "6135fd62f07bf24384277ba6d207d3f843c98da7a093b80a2e429d645922066a",
    "retrieval.jsonl": "2f6c9af8479919d164068985ee2d777352e861dac039ee151110670186b70eac",
    "samples.jsonl": "8cebb66b5222ae49f4e598ffebbd83fa5fd77cc14764d5efed2a792b15982d5f",
    "score_report.json": "88459bb61aa662911c97ff1b006d4abe118d9a9d6353d83d944d04b0951c98aa",
}


def run_stages(out_dir: Path, stages=STAGES, extra=()):
    """Runs pipeline stages from the fixture directory so the relative paths
    inside config.json resolve."""
    old = os.getcwd()
    os.chdir(FIXTURE_DIR)
    try:
        for stage in stages:
            code = main([stage, "--config", "config.json", "--out", str(out_dir), *extra])
            assert code == 0, f"stage {stage} exited with {code}"
    finally:
        os.chdir(old)


def refusal(capsys, argv: list[str]) -> str:
    """What main(argv), run from the fixture directory, prints to stderr;
    the run must exit 2."""
    capsys.readouterr()
    old = os.getcwd()
    os.chdir(FIXTURE_DIR)
    try:
        assert main(argv) == 2
    finally:
        os.chdir(old)
    return capsys.readouterr().err


def unlisted(rel: str, stage: str) -> str:
    """The refusal of a file its stage's manifest does not list as it is."""
    return f"error: {rel} is missing or not the file its manifest lists: run the {stage} stage\n"


def stale(stage: str) -> str:
    """The refusal of a stage that ran on other questions or documents."""
    return f"error: {stage} ran on other questions or documents: run the {stage} stage again\n"


def replaced(stage: str, rel: str, producer: str) -> str:
    """The refusal of a stage whose input file a later run of its producer replaced."""
    return f"error: {stage} read a {rel} that {producer} has since replaced: run the {stage} stage again\n"


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("toy_run")
    run_stages(out)
    return out


class TestIngest:
    def test_structure_counts(self, run_dir):
        structure = read_json(run_dir / "ingest" / "structure.json")
        assert structure == {
            "n_questions": 12,
            "n_topics_questions": 3,
            "n_topics_docs": 3,
            "n_docs": 18,
            "none_option_questions": 10,
            "duplicate_option_questions": 1,
            "n_sibling_groups": 7,
            "questions_in_multi_question_groups": 10,
            "gold_available": 12,
            "multi_gold_questions": 7,
        }

    def test_sibling_groups_file(self, run_dir):
        groups = read_jsonl(run_dir / "ingest" / "siblings.jsonl")
        assert len(groups) == 7
        by_members = {tuple(g["question_ids"]): g for g in groups}
        assert ("q101a", "q101b") in by_members
        assert by_members[("q101a", "q101b")]["topic_id"] == 101
        assert ("q102c",) in by_members  # singleton event keeps its own group


class TestBuildGraph:
    def test_graph_files_exist(self, run_dir):
        for topic in (101, 102, 103):
            data = read_json(run_dir / "graphs" / f"topic_{topic}.json")
            assert data["topic_id"] == topic
            assert len(data["nodes"]) == 6

    def test_distractors_are_isolated_or_weak(self, run_dir):
        for topic, doc_id in DISTRACTORS.items():
            data = read_json(run_dir / "graphs" / f"topic_{topic}.json")
            touching = [e for e in data["edges"] if doc_id in (e["a"], e["b"])]
            assert touching == []

    def test_edges_meet_threshold(self, run_dir):
        for topic in (101, 102, 103):
            data = read_json(run_dir / "graphs" / f"topic_{topic}.json")
            assert data["edges"], f"topic {topic} graph has no edges"
            assert all(e["w"] >= 0.4 for e in data["edges"])


class TestRetrieve:
    def test_distractors_excluded(self, run_dir):
        rows = {r["id"]: r for r in read_jsonl(run_dir / "retrieval.jsonl")}
        assert len(rows) == 12
        for qid, row in rows.items():
            topic = int(qid[1:4])
            assert row["excluded"] == [DISTRACTORS[topic]]
            assert DISTRACTORS[topic] not in row["selected"]

    def test_topic_shares_one_context(self, run_dir):
        rows = read_jsonl(run_dir / "retrieval.jsonl")
        by_topic: dict[int, list[dict]] = {}
        for row in rows:
            by_topic.setdefault(int(row["id"][1:4]), []).append(row)
        for topic_rows in by_topic.values():
            first = topic_rows[0]
            for other in topic_rows[1:]:
                assert other["selected"] == first["selected"]
                assert other["provenance"] == first["provenance"]

    def test_provenance_labels(self, run_dir):
        rows = read_jsonl(run_dir / "retrieval.jsonl")
        labels = {label for row in rows for label in row["provenance"].values()}
        assert labels == {"dense-entry", "sparse-entry", "traversal"}

    def test_cache_hit_rate(self, run_dir):
        counts = read_json(run_dir / "manifests" / "retrieve.json")["counts"]
        assert counts["cache_hits"] == 9
        assert counts["cache_misses"] == 3
        assert counts["cache_hit_rate"] == 0.75

    def test_no_questions(self, tmp_path, capsys, monkeypatch):
        questions = tmp_path / "questions.jsonl"
        questions.write_text("", encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)
        out = tmp_path / "out"
        assert main(["retrieve", "--config", "config.json", "--out", str(out), "--questions", str(questions)]) == 0
        counts = read_json(out / "manifests" / "retrieve.json")["counts"]
        assert (counts["cache_hits"], counts["cache_misses"], counts["cache_hit_rate"]) == (0, 0, 0.0)
        assert "retrieve: 0 questions, cache hit rate 0.000 (0/0)\n" in capsys.readouterr().out
        assert (out / "retrieval.jsonl").read_bytes() == b""


class TestInfer:
    def test_raw_predictions(self, run_dir):
        rows = read_jsonl(run_dir / "predictions.jsonl")
        assert {r["id"]: r["prediction"] for r in rows} == RAW_PREDICTIONS
        assert [r["id"] for r in rows] == sorted(RAW_PREDICTIONS)  # input order

    def test_sample_log(self, run_dir):
        rows = read_jsonl(run_dir / "samples.jsonl")
        assert len(rows) == 36  # 12 questions x 3 samples
        by_q: dict[str, list[dict]] = {}
        for row in rows:
            by_q.setdefault(row["question_id"], []).append(row)
        assert [s["valid"] for s in by_q["q103d"]] == [False, False, False]
        assert [s["parsed"] for s in by_q["q103c"]] == [["C"], ["C"], ["C"]]
        assert by_q["q102d"][0]["parsed"] == ["A", "D"]

    def test_invalid_count_in_manifest(self, run_dir):
        counts = read_json(run_dir / "manifests" / "infer.json")["counts"]
        assert counts["invalid_samples"] == 3
        assert counts["k"] == 3
        assert counts["theta"] == 0.5


class TestPostprocess:
    def test_final_predictions(self, run_dir):
        rows = read_jsonl(run_dir / "predictions.final.jsonl")
        assert {r["id"]: r["prediction"] for r in rows} == FINAL_PREDICTIONS

    def test_consistency_summary(self, run_dir):
        summary = read_json(run_dir / "consistency.json")
        assert summary["enabled"] is True
        assert summary["iterations"] == 2
        assert summary["converged"] is True
        assert summary["n_changes"] == 5
        assert summary["contradictions"] == []
        assert summary["violations"] == []
        assert summary["rule_counts"] == {
            "R1": 0, "R2": 1, "R3": 0, "R4": 3, "R5": 0, "R6": 1, "R7": 0, "R8": 0,
        }

    def test_audit_log_sequence(self, run_dir):
        rows = read_jsonl(run_dir / "audit.jsonl")
        assert [(r["rule"], r["question_id"]) for r in rows] == [
            ("R2", "q101c"),
            ("R4", "q101b"),
            ("R4", "q101c"),
            ("R4", "q102b"),
            ("R6", "q103b"),
        ]
        assert all(r["iteration"] == 1 for r in rows)
        r2 = rows[0]
        assert (r2["before"], r2["after"]) == ("B", "B,C")


class TestNormalization:
    def test_each_stage_normalizes_each_text_once(self, run_dir, tmp_path, monkeypatch):
        # a question's facts live on its record: ingest and postprocess
        # normalize its target event and four options, infer only the
        # options, for its rejection letters
        normalized: list[str] = []
        normalize_text = corpus.normalize_text
        counting = lambda text: normalized.append(text) or normalize_text(text)  # noqa: E731
        for module in (cli, consist, corpus, embed, evaluate, graphrag, lexindex, reason, remote):
            if hasattr(module, "normalize_text"):  # every name a caller resolves
                monkeypatch.setattr(module, "normalize_text", counting)
        out = tmp_path / "out"
        counts = {}
        for stage in ("ingest", "build-graph", "retrieve", "infer", "postprocess", "score"):
            normalized.clear()
            run_stages(out, stages=(stage,))
            counts[stage] = len(normalized)
        assert counts == {"ingest": 60, "build-graph": 0, "retrieve": 0, "infer": 48, "postprocess": 60, "score": 0}
        digest = tree_digest(out)
        assert digest == {rel: h for rel, h in tree_digest(run_dir).items() if rel in digest}


class TestScore:
    def test_final_score(self, run_dir):
        report = read_json(run_dir / "score_report.json")
        assert report["mean"] == 1.0
        assert report["exact"] == 12
        assert report["partial"] == 0
        assert report["zero"] == 0
        assert report["single"]["count"] == 5
        assert report["multi"]["count"] == 7

    def test_raw_score_via_preds_flag(self, run_dir, tmp_path):
        out = tmp_path / "raw_score"
        run_stages(out, stages=("score",), extra=("--preds", str(run_dir / "predictions.jsonl")))
        report = read_json(out / "score_report.json")
        assert report["mean"] == pytest.approx(9.5 / 12)
        assert report["exact"] == 8
        assert report["partial"] == 3
        assert report["zero"] == 1

    def test_questions_without_gold_answers_are_refused(self, run_dir, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        rows = read_jsonl(FIXTURE_DIR / "questions.jsonl")
        questions.write_text("".join(json.dumps({k: v for k, v in row.items() if k != "golden_answer"}) + "\n"
                                     for row in rows), encoding="utf-8")
        extra = ("--preds", str(run_dir / "predictions.jsonl"), "--questions", str(questions))
        argv = ["score", "--config", "config.json", "--out", str(tmp_path / "out"), *extra]
        assert refusal(capsys, argv) == "error: the questions file carries no gold answers\n"
        assert not (tmp_path / "out" / "score_report.json").exists()


@pytest.fixture(scope="module")
def agree_dir(run_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("agree_run")
    old = os.getcwd()
    os.chdir(FIXTURE_DIR)
    try:
        code = main(
            [
                "agree",
                "--config",
                "config.json",
                "--out",
                str(out),
                f"raw={run_dir / 'predictions.jsonl'}",
                f"final={run_dir / 'predictions.final.jsonl'}",
            ]
        )
        assert code == 0
    finally:
        os.chdir(old)
    return out


class TestAgree:
    def test_agreement_report(self, agree_dir):
        report = read_json(agree_dir / "agreement_report.json")
        assert report["models"] == ["final", "raw"]
        assert report["n_questions"] == 12
        assert report["unanimous_rate"] == pytest.approx(8 / 12)
        cohen = report["pairwise_cohen"]
        assert cohen["final"]["final"] == 1.0
        assert cohen["final"]["raw"] == cohen["raw"]["final"]
        assert set(report["per_topic_fleiss"]) == {"101", "102", "103"}

    def test_oracle_prefers_corrected_predictions(self, agree_dir):
        oracle = read_json(agree_dir / "oracle_report.json")
        assert oracle["mean"] == 1.0
        assert oracle["model_means"] == {"final": 1.0, "raw": pytest.approx(9.5 / 12)}
        assert all(v["model"] == "final" for v in oracle["per_question"].values())

    def test_bias_counts(self, agree_dir):
        bias = read_json(agree_dir / "bias_report.json")
        assert bias["under_selection"] == 3
        assert bias["over_selection"] == 1

    def test_questions_hash_is_recorded_only_when_given(self, run_dir, agree_dir, tmp_path):
        inputs = read_json(agree_dir / "manifests" / "agree.json")["inputs"]
        assert inputs["questions"] == _sha256(FIXTURE_DIR / "questions.jsonl")
        out = tmp_path / "out"
        preds = (f"raw={run_dir / 'predictions.jsonl'}", f"final={run_dir / 'predictions.final.jsonl'}")
        assert main(["agree", "--out", str(out), *preds]) == 0
        assert sorted(read_json(out / "manifests" / "agree.json")["inputs"]) == ["predictions:final", "predictions:raw"]

    def test_agree_requires_two_files(self, run_dir, capsys):
        argv = ["agree", "--out", str(run_dir), str(run_dir / "predictions.jsonl")]
        assert refusal(capsys, argv) == "error: agree needs at least two prediction files\n"

    def test_model_named_by_file_stem(self, run_dir, agree_dir, tmp_path, capsys):
        shutil.copy(run_dir / "predictions.jsonl", tmp_path / "raw.jsonl")
        shutil.copy(run_dir / "predictions.final.jsonl", tmp_path / "final.jsonl")
        out = tmp_path / "out"
        capsys.readouterr()
        run_stages(out, stages=("agree",), extra=(str(tmp_path / "raw.jsonl"), str(tmp_path / "final.jsonl")))
        assert "agree: 2 models on 12 questions\n" in capsys.readouterr().out
        report = (out / "agreement_report.json").read_bytes()
        assert report == (agree_dir / "agreement_report.json").read_bytes()

    @pytest.mark.parametrize("other_rows", [[{"id": "q999", "prediction": "A"}], []], ids=["other-questions", "empty"])
    def test_models_sharing_no_question_exit_2(self, run_dir, tmp_path, capsys, other_rows):
        # a file of other questions, or an empty one
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(row) + "\n" for row in other_rows), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["agree", "--out", str(out), f"a={run_dir / 'predictions.jsonl'}", f"b={other}"]) == 2
        assert capsys.readouterr().err == "error: models share no questions\n"
        assert not (out / "agreement_report.json").exists()

    def test_duplicate_model_name_is_refused(self, run_dir, tmp_path, capsys):
        # two files whose stems are both "predictions"
        other = tmp_path / "other"
        other.mkdir()
        shutil.copy(run_dir / "predictions.final.jsonl", other / "predictions.jsonl")
        out = tmp_path / "out"
        argv = ["agree", "--out", str(out), str(run_dir / "predictions.jsonl"), str(other / "predictions.jsonl")]
        assert refusal(capsys, argv) == "error: duplicate model name 'predictions'\n"
        assert not (out / "agreement_report.json").exists()

    def test_empty_model_name_is_refused(self, run_dir, tmp_path, capsys):
        out = tmp_path / "out"
        spec = f"={run_dir / 'predictions.jsonl'}"
        argv = ["agree", "--out", str(out), spec, f"raw={run_dir / 'predictions.jsonl'}"]
        assert refusal(capsys, argv) == f"error: empty model name in {spec!r}\n"
        assert not (out / "agreement_report.json").exists()


class TestReport:
    def test_report_collects_stages(self, run_dir):
        report = read_json(run_dir / "report.json")
        assert report["score"]["mean"] == 1.0
        assert report["consistency"]["n_changes"] == 5
        assert report["ingest"]["n_questions"] == 12
        assert report["stages"]["retrieve"]["cache_hit_rate"] == 0.75
        assert report["stages"]["infer"]["invalid_samples"] == 3


class TestManifests:
    def test_every_stage_writes_a_manifest(self, run_dir):
        for stage in ("ingest", "build-graph", "retrieve", "infer", "postprocess", "score"):
            manifest = read_json(run_dir / "manifests" / f"{stage}.json")
            assert manifest["stage"] == stage
            for rel, digest in manifest["outputs"].items():
                data = (run_dir / rel).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest

    def test_config_hash_is_shared(self, run_dir):
        hashes = {
            read_json(p)["config_hash"] for p in (run_dir / "manifests").glob("*.json")
        }
        assert len(hashes) == 1

    def test_inline_script_is_hashed_like_a_script_file(self, run_dir, tmp_path):
        # an inline llm.script enters the config hash and infer's inputs, so
        # two runs that differ only in it are told apart
        config = read_json(FIXTURE_DIR / "config.json")
        script = read_json(FIXTURE_DIR / config["llm"].pop("script_path"))
        config["questions"] = str(FIXTURE_DIR / config["questions"])
        config["docs"] = str(FIXTURE_DIR / config["docs"])
        manifests = []
        for name, inline in (("same", script), ("other", {**script, "q101a": ["<answer>D</answer>"]})):
            out = tmp_path / name
            shutil.copytree(run_dir, out)
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps({**config, "llm": {**config["llm"], "script": inline}}), encoding="utf-8")
            assert main(["infer", "--config", str(config_path), "--out", str(out)]) == 0
            manifests.append(read_json(out / "manifests" / "infer.json"))
        assert (tmp_path / "same" / "samples.jsonl").read_bytes() == (run_dir / "samples.jsonl").read_bytes()
        assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
        assert manifests[0]["inputs"]["script"] != manifests[1]["inputs"]["script"]


class TestDeterminism:
    def test_two_fresh_runs_are_byte_identical(self, run_dir, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_stages(first)
        run_stages(second)
        digests_a = tree_digest(first)
        digests_b = tree_digest(second)
        assert digests_a == digests_b
        # and they match the module-level run as well
        assert digests_a == tree_digest(run_dir)

    def test_toy_tree_matches_pinned_hashes(self, tmp_path):
        out = tmp_path / "out"
        run_stages(out, stages=STAGES[:-1])
        preds = (f"raw={out / 'predictions.jsonl'}", f"final={out / 'predictions.final.jsonl'}")
        run_stages(out, stages=("agree",), extra=preds)
        run_stages(out, stages=("report",))
        digests = tree_digest(out)
        assert sorted(rel for rel in digests if rel.startswith("graphs/")) == [
            "graphs/doc_vectors.npy", "graphs/entities.json", "graphs/term_counts.json",
            "graphs/topic_101.json", "graphs/topic_102.json", "graphs/topic_103.json",
        ]
        del digests["manifests/build-graph.json"]
        assert {rel: h for rel, h in digests.items() if not rel.startswith("graphs/")} == TOY_TREE_SHA256


class TestThreadedInfer:
    def test_two_workers_match_serial_run(self, run_dir, tmp_path):
        config = read_json(FIXTURE_DIR / "config.json")
        config["questions"] = str(FIXTURE_DIR / config["questions"])
        config["docs"] = str(FIXTURE_DIR / config["docs"])
        config["llm"]["script_path"] = str(FIXTURE_DIR / config["llm"]["script_path"])
        config["max_workers"] = 2
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        for stage in ("build-graph", "retrieve", "infer"):
            assert main([stage, "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("samples.jsonl", "predictions.jsonl"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes()

    def test_two_workers_match_serial_run_through_a_remote_client(self, tmp_path, fake_server, monkeypatch):
        # the clients' workers share one prepared request template
        model = OverlapMockClient()
        fake_server.set_responder(
            lambda path, body, headers: (200, {"content": model.complete(body["messages"][0]["content"])})
        )
        config = read_json(FIXTURE_DIR / "config.json")
        config["llm"] = {"kind": "remote", "endpoint": fake_server.url + "/chat", "model": "m"}
        config_path = tmp_path / "remote.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's paths are relative
        serial, threaded = tmp_path / "serial", tmp_path / "threaded"
        for out, workers in ((serial, "1"), (threaded, "2")):
            for stage in ("build-graph", "retrieve", "infer"):
                extra = ["--max-workers", workers] if stage == "infer" else []
                assert main([stage, "--config", str(config_path), "--out", str(out), *extra]) == 0
        n_questions = len(load_questions(FIXTURE_DIR / "questions.jsonl"))
        assert len(fake_server.requests) == 2 * n_questions * config["sampling"]["k"]
        for name in ("samples.jsonl", "predictions.jsonl"):
            assert (threaded / name).read_bytes() == (serial / name).read_bytes()


DOC_TEXTS = {document_text(d) for docs in load_docs(FIXTURE_DIR / "docs.jsonl").values() for d in docs}


@pytest.fixture
def embedded(monkeypatch) -> list[str]:
    """Every text the CLI stages embed from here on, in order."""
    texts: list[str] = []
    make_embedder = embed.make_embedder
    monkeypatch.setattr(embed, "make_embedder", lambda spec: record_texts(make_embedder(spec), texts))
    return texts


def _relist(out: Path, rel: str, stage: str = "build-graph") -> None:
    """Records a file's current content hash in stage's manifest."""
    manifest_path = out / "manifests" / f"{stage}.json"
    manifest = read_json(manifest_path)
    manifest["outputs"][rel] = hashlib.sha256((out / rel).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def _questions_without_topic_103(tmp_path: Path) -> Path:
    """The fixture's questions file less the questions of topic 103."""
    questions = tmp_path / "questions.jsonl"
    lines = (FIXTURE_DIR / "questions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    questions.write_text("".join(line for line in lines if '"topic_id": 103' not in line), encoding="utf-8")
    return questions


def _drop_vectors(out: Path) -> None:
    (out / "graphs" / "doc_vectors.npy").unlink()


def _wrong_shape_vectors(out: Path) -> None:
    np.save(out / "graphs" / "doc_vectors.npy", np.zeros((17, 64)), allow_pickle=False)


def _wrong_shape_vectors_listed(out: Path) -> None:
    _wrong_shape_vectors(out)
    _relist(out, "graphs/doc_vectors.npy")


def _garbage_vectors_listed(out: Path) -> None:
    (out / "graphs" / "doc_vectors.npy").write_bytes(b"garbage")
    _relist(out, "graphs/doc_vectors.npy")


def _text_vectors_listed(out: Path) -> None:
    np.save(out / "graphs" / "doc_vectors.npy", np.full((18, 64), "x"), allow_pickle=False)
    _relist(out, "graphs/doc_vectors.npy")


def _emptied_graph(out: Path) -> None:
    path = out / "graphs" / "topic_101.json"
    graph = read_json(path)
    graph["edges"] = []
    path.write_text(json.dumps(graph), encoding="utf-8")


def _other_docs(out: Path) -> None:
    manifest_path = out / "manifests" / "build-graph.json"
    manifest = read_json(manifest_path)
    manifest["inputs"]["docs"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def _no_manifest(out: Path) -> None:
    (out / "manifests" / "build-graph.json").unlink()


def _truncated_manifest(out: Path) -> None:
    (out / "manifests" / "build-graph.json").write_text('{"stage": "build-', encoding="utf-8")


@pytest.fixture
def extracted(monkeypatch) -> list[int]:
    """The document count of every entity extraction from here on."""
    counts: list[int] = []
    extract = graphrag.extract_entities

    def counting(texts, *args):
        texts = list(texts)
        counts.append(len(texts))
        return extract(texts, *args)

    monkeypatch.setattr(graphrag, "extract_entities", counting)
    return counts


def _drop_entities(out: Path) -> None:
    (out / "graphs" / "entities.json").unlink()


def _edited_entities(out: Path) -> None:
    path = out / "graphs" / "entities.json"
    entities = read_json(path)
    entities["101"] = entities["101"][1:]
    path.write_text(json.dumps(entities), encoding="utf-8")


def _unlisted_entities(out: Path) -> None:
    manifest_path = out / "manifests" / "build-graph.json"
    manifest = read_json(manifest_path)
    del manifest["outputs"]["graphs/entities.json"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def _entities_lacking_a_topic(out: Path) -> None:
    path = out / "graphs" / "entities.json"
    entities = read_json(path)
    del entities["102"]
    path.write_text(json.dumps(entities), encoding="utf-8")
    _relist(out, "graphs/entities.json")


def _entities_not_an_object(out: Path) -> None:
    (out / "graphs" / "entities.json").write_text('["101", "102", "103"]', encoding="utf-8")
    _relist(out, "graphs/entities.json")


def _graph_lacking_a_node(out: Path) -> None:
    path = out / "graphs" / "topic_101.json"
    graph = read_json(path)
    node = graph["nodes"].pop()
    graph["edges"] = [e for e in graph["edges"] if node not in (e["a"], e["b"])]
    path.write_text(json.dumps(graph), encoding="utf-8")
    _relist(out, "graphs/topic_101.json")


@pytest.fixture
def built(monkeypatch) -> list[int]:
    """The document count of every LexIndex.build from here on."""
    counts: list[int] = []
    build = LexIndex.build

    def counting(cls, texts):
        counts.append(len(texts))
        return build(texts)

    monkeypatch.setattr(LexIndex, "build", classmethod(counting))
    return counts


@pytest.fixture
def graphed(monkeypatch) -> list[int]:
    """The document count of every graphrag.build_graph call from here on."""
    counts: list[int] = []
    build_graph = graphrag.build_graph

    def counting(topic_id, docs, *args):
        counts.append(len(docs))
        return build_graph(topic_id, docs, *args)

    monkeypatch.setattr(graphrag, "build_graph", counting)
    return counts


def _drop_term_counts(out: Path) -> None:
    (out / "graphs" / "term_counts.json").unlink()


def _edited_term_counts(out: Path) -> None:
    path = out / "graphs" / "term_counts.json"
    term_counts = read_json(path)
    term_counts["101"]["p1"]["port"] += 1
    path.write_text(json.dumps(term_counts), encoding="utf-8")


def _unlisted_term_counts(out: Path) -> None:
    manifest_path = out / "manifests" / "build-graph.json"
    manifest = read_json(manifest_path)
    del manifest["outputs"]["graphs/term_counts.json"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def _term_counts_lacking_a_topic(out: Path) -> None:
    path = out / "graphs" / "term_counts.json"
    term_counts = read_json(path)
    del term_counts["102"]
    path.write_text(json.dumps(term_counts), encoding="utf-8")
    _relist(out, "graphs/term_counts.json")


def _term_counts_lacking_a_document(out: Path) -> None:
    path = out / "graphs" / "term_counts.json"
    term_counts = read_json(path)
    del term_counts["102"]["w3"]
    path.write_text(json.dumps(term_counts), encoding="utf-8")
    _relist(out, "graphs/term_counts.json")


def _term_counts_not_objects(out: Path) -> None:
    path = out / "graphs" / "term_counts.json"
    term_counts = read_json(path)
    term_counts["102"]["w3"] = sorted(term_counts["102"]["w3"])
    path.write_text(json.dumps(term_counts), encoding="utf-8")
    _relist(out, "graphs/term_counts.json")


def _term_count_is_a_string(out: Path) -> None:
    path = out / "graphs" / "term_counts.json"
    term_counts = read_json(path)
    term_counts["101"]["p1"]["port"] = str(term_counts["101"]["p1"]["port"])
    path.write_text(json.dumps(term_counts), encoding="utf-8")
    _relist(out, "graphs/term_counts.json")


def _keys_not_an_object(out: Path) -> None:
    manifest_path = out / "manifests" / "build-graph.json"
    manifest = read_json(manifest_path)
    manifest["keys"] = []
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def _other_embedder(out: Path) -> None:
    manifest_path = out / "manifests" / "build-graph.json"
    manifest = read_json(manifest_path)
    manifest["keys"]["vectors"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


class TestBuildGraphReuse:
    """retrieve takes the document vectors, entity lists and graphs from
    build-graph only when they came from the current docs file and config;
    otherwise it recomputes them and its output matches a run that never had
    them."""

    def test_saved_vectors_layout(self, run_dir):
        vectors = np.load(run_dir / "graphs" / "doc_vectors.npy", allow_pickle=False)
        assert vectors.dtype == np.float64
        assert vectors.shape == (18, 64)
        topics = load_docs(FIXTURE_DIR / "docs.jsonl")
        docs = [d for topic_id in sorted(topics) for d in topics[topic_id]]
        embedder = MockEmbedder(dim=64, seed=0)  # the fixture config's embedder
        assert np.array_equal(vectors, np.array(embedder.embed_texts([document_text(d) for d in docs])))

    def test_saved_entities_layout(self, run_dir):
        topics = load_docs(FIXTURE_DIR / "docs.jsonl")
        want = {
            str(topic_id): sorted(extract_entities(document_text(d) for d in docs)) for topic_id, docs in topics.items()
        }
        assert read_json(run_dir / "graphs" / "entities.json") == want
        assert all(want.values())
        assert "graphs/entities.json" in read_json(run_dir / "manifests" / "build-graph.json")["outputs"]

    def test_saved_term_counts_layout(self, run_dir):
        topics = load_docs(FIXTURE_DIR / "docs.jsonl")
        want = {
            str(topic_id): {d.id: Counter(tokenize(document_text(d))) for d in docs}
            for topic_id, docs in topics.items()
        }
        assert read_json(run_dir / "graphs" / "term_counts.json") == want
        assert "graphs/term_counts.json" in read_json(run_dir / "manifests" / "build-graph.json")["outputs"]

    def test_changed_edge_threshold_builds_each_index_once(self, tmp_path, built):
        # the indexes that rebuilding the graphs makes serve the retrievers too
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph",))
        del built[:]
        run_stages(out, stages=("retrieve",), extra=("--edge-threshold", "0.05"))
        assert built == [6, 6, 6]

    def test_graphs_are_built_one_topic_at_a_time(self, run_dir, tmp_path, graphed):
        # through graphrag.build_graph, the name bench/layers.py traces
        stale = tmp_path / "stale"
        fresh = tmp_path / "fresh"
        run_stages(stale, stages=("build-graph",))
        assert graphed == [6, 6, 6]
        assert tree_digest(stale / "graphs") == tree_digest(run_dir / "graphs")
        del graphed[:]
        run_stages(stale, stages=("retrieve",), extra=("--edge-threshold", "0.05"))
        assert graphed == [6, 6, 6]
        run_stages(fresh, stages=("build-graph", "retrieve"), extra=("--edge-threshold", "0.05"))
        assert (stale / "retrieval.jsonl").read_bytes() == (fresh / "retrieval.jsonl").read_bytes()

    def test_retrieve_extracts_no_entities(self, run_dir, tmp_path, extracted, built):
        # and builds no lexical index: the saved term counts serve
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph",))
        assert extracted == built == [6, 6, 6]
        del extracted[:], built[:]
        run_stages(out, stages=("retrieve",))
        assert extracted == built == []
        assert (out / "retrieval.jsonl").read_bytes() == (run_dir / "retrieval.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "tamper, n_extracted",
        [
            (_drop_entities, 3),
            (_edited_entities, 3),
            (_unlisted_entities, 3),
            (_entities_lacking_a_topic, 3),
            (_entities_not_an_object, 3),
            (_drop_term_counts, 3),
            (_edited_term_counts, 3),
            (_unlisted_term_counts, 3),
            (_term_counts_lacking_a_topic, 3),
            (_term_counts_lacking_a_document, 3),
            (_term_counts_not_objects, 3),
            (_term_count_is_a_string, 3),
            (_graph_lacking_a_node, 3),
            (_other_docs, 3),
            (_other_embedder, 3),
        ],
    )
    def test_unusable_entities_are_extracted_again(
        self, run_dir, tmp_path, extracted, built, caplog, tamper, n_extracted
    ):
        # the entity lists and term counts serve together with the graphs or
        # not at all; the indexes built for the graphs serve the retrievers
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph",))
        tamper(out)
        del extracted[:], built[:]
        run_stages(out, stages=("retrieve",))
        assert len(extracted) == n_extracted
        assert built == [6, 6, 6]
        assert [r.levelname for r in caplog.records if r.name == "causeway.cli"] == ["WARNING"]
        assert (out / "retrieval.jsonl").read_bytes() == (run_dir / "retrieval.jsonl").read_bytes()

    def test_unneeded_topic_graph_is_not_read(self, tmp_path, embedded, extracted, caplog):
        # retrieve reads the graphs of the topics its questions need only, so
        # a changed graph of another topic costs no recomputation
        questions = _questions_without_topic_103(tmp_path)
        stale = tmp_path / "stale"
        fresh = tmp_path / "fresh"
        run_stages(stale, stages=("build-graph",))
        (stale / "graphs" / "topic_103.json").write_text("{}", encoding="utf-8")
        del embedded[:], extracted[:]
        run_stages(stale, stages=("retrieve",), extra=("--questions", str(questions)))
        assert not DOC_TEXTS & set(embedded)
        assert extracted == []
        assert not [r for r in caplog.records if r.name == "causeway.cli"]
        run_stages(fresh, stages=("build-graph", "retrieve"), extra=("--questions", str(questions)))
        retrieval = (stale / "retrieval.jsonl").read_bytes()
        assert retrieval == (fresh / "retrieval.jsonl").read_bytes()
        assert {row["topic_id"] for row in map(json.loads, retrieval.splitlines())} == {101, 102}

    def test_retrieve_embeds_only_queries(self, run_dir, tmp_path, embedded):
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph",))
        del embedded[:]
        run_stages(out, stages=("retrieve",))
        assert len(embedded) == 3  # one query per topic
        assert not DOC_TEXTS & set(embedded)
        assert (out / "retrieval.jsonl").read_bytes() == (run_dir / "retrieval.jsonl").read_bytes()

    def test_changed_edge_threshold_rebuilds_graphs(self, run_dir, tmp_path, embedded):
        stale = tmp_path / "stale"
        fresh = tmp_path / "fresh"
        run_stages(stale, stages=("build-graph",))
        del embedded[:]
        run_stages(stale, stages=("retrieve",), extra=("--edge-threshold", "0.05"))
        doc_texts_embedded = DOC_TEXTS & set(embedded)
        run_stages(fresh, stages=("build-graph", "retrieve"), extra=("--edge-threshold", "0.05"))
        retrieval = (stale / "retrieval.jsonl").read_bytes()
        assert retrieval == (fresh / "retrieval.jsonl").read_bytes()
        assert retrieval != (run_dir / "retrieval.jsonl").read_bytes()
        assert not doc_texts_embedded  # the saved vectors still serve

    def test_changed_seed_embeds_again(self, tmp_path, embedded):
        stale = tmp_path / "stale"
        fresh = tmp_path / "fresh"
        run_stages(stale, stages=("build-graph",))
        del embedded[:]
        run_stages(stale, stages=("retrieve",), extra=("--seed", "7"))
        assert DOC_TEXTS <= set(embedded)
        run_stages(fresh, stages=("build-graph", "retrieve"), extra=("--seed", "7"))
        assert (stale / "retrieval.jsonl").read_bytes() == (fresh / "retrieval.jsonl").read_bytes()

    def test_recomputed_vectors_cover_the_needed_topics_only(self, tmp_path, embedded):
        questions = _questions_without_topic_103(tmp_path)
        stale = tmp_path / "stale"
        fresh = tmp_path / "fresh"
        run_stages(stale, stages=("build-graph",))
        _drop_vectors(stale)
        del embedded[:]
        run_stages(stale, stages=("retrieve",), extra=("--questions", str(questions)))
        docs = load_docs(FIXTURE_DIR / "docs.jsonl")
        needed = {document_text(d) for topic_id in (101, 102) for d in docs[topic_id]}
        assert DOC_TEXTS & set(embedded) == needed
        run_stages(fresh, stages=("build-graph", "retrieve"), extra=("--questions", str(questions)))
        assert (stale / "retrieval.jsonl").read_bytes() == (fresh / "retrieval.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "tamper, embeds_docs",
        [
            (_drop_vectors, True),
            (_wrong_shape_vectors, True),
            (_wrong_shape_vectors_listed, True),
            (_garbage_vectors_listed, True),
            (_text_vectors_listed, True),
            (_emptied_graph, False),
            (_other_docs, True),
            (_no_manifest, True),
            (_truncated_manifest, True),
            (_keys_not_an_object, True),
        ],
    )
    def test_unusable_artifacts_are_recomputed(self, run_dir, tmp_path, embedded, caplog, tamper, embeds_docs):
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph",))
        tamper(out)
        del embedded[:]
        run_stages(out, stages=("retrieve",))
        assert (DOC_TEXTS <= set(embedded)) == embeds_docs
        assert [r.levelname for r in caplog.records if r.name == "causeway.cli"] == ["WARNING"]
        assert (out / "retrieval.jsonl").read_bytes() == (run_dir / "retrieval.jsonl").read_bytes()


def _mock_vectors(path: str, body: dict, headers: dict) -> tuple[int, dict]:
    """An embedding endpoint's answer with the fixture config's mock vectors."""
    return 200, {"vectors": [v.tolist() for v in MockEmbedder(dim=64, seed=0).embed_texts(body["texts"])]}


def _remote_config(fake_server) -> dict:
    """The fixture config with a remote embedder behind fake_server."""
    config = read_json(FIXTURE_DIR / "config.json")
    config["embedder"] = {"kind": "remote", "dim": 64, "endpoint": fake_server.url + "/embed", "model": "m"}
    return config


# modules that a stage without a graph, a remote client or a vector cache
# has no use for
UNUSED_MODULES = ("numpy", "requests", "urllib.request", "xml.sax", "sqlite3")


def _run_module(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Runs a fresh interpreter with args and the package on its path; it must
    exit 0."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result


class TestOneEmbeddingPass:
    """Each stage embeds its texts in one embed_texts call, which a remote
    embedder splits into batch_size requests that span topics. The endpoint
    here answers with the fixture's mock vectors, so the outputs equal the
    mock run's."""

    @pytest.fixture
    def remote(self, tmp_path, fake_server, monkeypatch):
        """Runs a stage with the fixture config's embedder behind fake_server."""
        fake_server.set_responder(_mock_vectors)
        config = _remote_config(fake_server)
        monkeypatch.chdir(FIXTURE_DIR)  # the config's paths are relative

        def run(stage: str, out: Path, *extra: str, code: int = 0, **embedder: object) -> list[int]:
            """The text count of each request the stage sent, which must exit
            with code; embedder's keys (a cache_dir, a batch_size...) replace
            the embedder settings of the fixture's config."""
            path = tmp_path / "remote.json"
            path.write_text(json.dumps({**config, "embedder": {**config["embedder"], **embedder}}), encoding="utf-8")
            del fake_server.requests[:]
            assert main([stage, "--config", str(path), "--out", str(out), *extra]) == code
            return [len(r["body"]["texts"]) for r in fake_server.requests]

        return run

    def test_one_request_per_stage(self, run_dir, tmp_path, remote):
        out = tmp_path / "out"
        assert remote("build-graph", out) == [18]  # 18 documents in 3 topics
        assert remote("retrieve", out) == [3]  # the first question of each topic
        for rel in ("retrieval.jsonl", "graphs/doc_vectors.npy"):
            assert (out / rel).read_bytes() == (run_dir / rel).read_bytes()

    def test_vector_cache_changes_no_output(self, tmp_path, remote):
        cache = tmp_path / "vectors"
        cold, warm, uncached = (tmp_path / name for name in ("cold", "warm", "uncached"))
        assert remote("build-graph", cold, cache_dir=str(cache)) == [18]
        assert len(cache_rows(cache)) == 18
        assert remote("build-graph", warm, cache_dir=str(cache)) == []
        assert remote("build-graph", uncached) == [18]
        for rel in ("graphs/doc_vectors.npy", "manifests/build-graph.json"):
            assert (cold / rel).read_bytes() == (warm / rel).read_bytes() == (uncached / rel).read_bytes()

    def test_failed_run_keeps_its_finished_batches(self, run_dir, tmp_path, fake_server, remote):
        def first_request_only(path, body, headers):
            return _mock_vectors(path, body, headers) if len(fake_server.requests) == 1 else (500, {})

        fake_server.set_responder(first_request_only)
        embedder = {"cache_dir": str(tmp_path / "vectors"), "batch_size": 8, "max_retries": 2, "backoff_base": 0}
        # the second request fails both its attempts
        assert remote("build-graph", tmp_path / "failed", code=2, **embedder) == [8, 8, 8]
        finished = set(fake_server.requests[0]["body"]["texts"])
        fake_server.set_responder(_mock_vectors)
        out = tmp_path / "out"
        assert remote("build-graph", out, **embedder) == [8, 2]
        sent = [t for r in fake_server.requests for t in r["body"]["texts"]]
        assert sorted(sent) == sorted(DOC_TEXTS - finished)
        assert (out / "graphs/doc_vectors.npy").read_bytes() == (run_dir / "graphs/doc_vectors.npy").read_bytes()

    def test_failed_endpoint_exits_2(self, tmp_path, fake_server, remote, capsys):
        fake_server.set_responder(lambda path, body, headers: (500, {"error": "down"}))
        capsys.readouterr()
        assert remote("build-graph", tmp_path / "out", code=2, max_retries=2, backoff_base=0) == [18, 18]
        err = capsys.readouterr().err
        assert "error: embedding request failed after 2 attempts: 500 Server Error" in err
        assert "Traceback" not in err

    def test_body_not_an_object_exits_2(self, tmp_path, fake_server, remote, capsys):
        fake_server.set_responder(lambda path, body, headers: (200, [1, 2]))
        capsys.readouterr()
        assert remote("build-graph", tmp_path / "out", code=2, max_retries=2, backoff_base=0) == [18, 18]
        err = capsys.readouterr().err
        assert "error: embedding request failed after 2 attempts: response body is a JSON list, not an object" in err
        assert "Traceback" not in err

    def test_vectors_not_a_list_exits_2(self, tmp_path, fake_server, remote, capsys):
        fake_server.set_responder(lambda path, body, headers: (200, {"vectors": 5}))
        capsys.readouterr()
        assert remote("build-graph", tmp_path / "out", code=2, max_retries=2, backoff_base=0) == [18, 18]
        err = capsys.readouterr().err
        assert "error: embedding request failed after 2 attempts: vectors is a JSON int, not a list" in err
        assert "Traceback" not in err

    def test_vector_cache_is_shared_across_processes(self, tmp_path, fake_server):
        fake_server.set_responder(_mock_vectors)
        config = _remote_config(fake_server)
        config["embedder"]["cache_dir"] = str(tmp_path / "vectors")
        path = tmp_path / "remote.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        sent = []
        for name in ("cold", "warm"):
            del fake_server.requests[:]
            argv = ["build-graph", "--config", str(path), "--out", str(tmp_path / name)]
            _run_module(["-m", "causeway.cli", *argv], cwd=FIXTURE_DIR)
            sent.append([len(r["body"]["texts"]) for r in fake_server.requests])
        assert sent == [[18], []]
        rel = "graphs/doc_vectors.npy"
        assert (tmp_path / "cold" / rel).read_bytes() == (tmp_path / "warm" / rel).read_bytes()

    def test_cli_import_leaves_sqlite_unloaded(self):
        # each of these costs every CLI process its import time; only a run
        # with a vector cache should pay for sqlite3, only the graph stages
        # for numpy and only a remote client for requests
        code = f"import sys, causeway.cli; print([m for m in {UNUSED_MODULES!r} if m in sys.modules])"
        assert _run_module(["-c", code]).stdout == "[]\n"

    def test_score_process_leaves_numpy_and_requests_unloaded(self, run_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        code = (
            "import sys; from causeway import cli; "
            f"assert cli.main(['score', '--config', 'config.json', '--out', {str(out)!r}]) == 0; "
            f"print([m for m in {UNUSED_MODULES!r} if m in sys.modules])"
        )
        assert _run_module(["-c", code], cwd=FIXTURE_DIR).stdout.splitlines()[-1] == "[]"
        assert (out / "score_report.json").read_bytes() == (run_dir / "score_report.json").read_bytes()

    def test_build_graph_process_writes_the_in_process_bytes(self, run_dir, tmp_path):
        out = tmp_path / "out"
        argv = ["build-graph", "--config", "config.json", "--out", str(out)]
        _run_module(["-m", "causeway.cli", *argv], cwd=FIXTURE_DIR)
        written = tree_digest(out)
        assert sorted(written) == [
            "graphs/doc_vectors.npy", "graphs/entities.json", "graphs/term_counts.json",
            "graphs/topic_101.json", "graphs/topic_102.json", "graphs/topic_103.json",
            "manifests/build-graph.json",
        ]
        assert written == {rel: h for rel, h in tree_digest(run_dir).items() if rel in written}

    def test_recomputed_documents_take_one_request(self, run_dir, tmp_path, remote):
        out = tmp_path / "out"
        assert remote("retrieve", out) == [18, 3]  # no build-graph to reuse
        assert (out / "retrieval.jsonl").read_bytes() == (run_dir / "retrieval.jsonl").read_bytes()

    def test_topic_union_embeds_every_query_at_once(self, tmp_path, remote):
        mock = tmp_path / "mock"
        run_stages(mock, stages=("build-graph", "retrieve"), extra=("--topic-union",))
        out = tmp_path / "out"
        remote("build-graph", out)
        queries = {graphrag.make_query(q) for q in load_questions(FIXTURE_DIR / "questions.jsonl")}
        assert remote("retrieve", out, "--topic-union") == [len(queries)]
        assert (out / "retrieval.jsonl").read_bytes() == (mock / "retrieval.jsonl").read_bytes()


@pytest.fixture
def llm_calls(monkeypatch) -> list[str]:
    """The question id of every LLM call the CLI stages make from here on."""
    calls: list[str] = []
    make_client = cli.make_client

    def counting(spec):
        client = make_client(spec)
        complete = client.complete

        def recording(prompt, *args, **kwargs):
            calls.append(kwargs.get("question_id"))
            return complete(prompt, *args, **kwargs)

        client.complete = recording
        return client

    monkeypatch.setattr(cli, "make_client", counting)
    return calls


def _edited_retrieval(out: Path) -> None:
    path = out / "retrieval.jsonl"
    rows = read_jsonl(path)
    rows[0]["selected"] = rows[0]["selected"][:1]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _retrieval_for_other_questions(out: Path) -> None:
    lines = (FIXTURE_DIR / "questions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    other = out.parent / "reversed.jsonl"
    other.write_text("".join(reversed(lines)), encoding="utf-8")
    run_stages(out, stages=("retrieve",), extra=("--questions", str(other)))


def _no_retrieve_manifest(out: Path) -> None:
    (out / "manifests" / "retrieve.json").unlink()


def _retrieve_manifest_not_an_object(out: Path) -> None:
    (out / "manifests" / "retrieve.json").write_text("[]\n", encoding="utf-8")


def _retrieve_manifest_outputs_a_list(out: Path) -> None:
    (out / "manifests" / "retrieve.json").write_text('{"outputs": []}\n', encoding="utf-8")


class TestInferChecksRetrieval:
    """infer reads retrieval.jsonl only when the retrieve manifest lists the
    file as it is and retrieve read the same questions and docs files;
    otherwise it stops before its first LLM call."""

    @pytest.mark.parametrize(
        "tamper",
        [
            _edited_retrieval,
            _retrieval_for_other_questions,
            _no_retrieve_manifest,
            _retrieve_manifest_not_an_object,
            _retrieve_manifest_outputs_a_list,
        ],
    )
    def test_unvouched_retrieval_is_refused(self, run_dir, tmp_path, capsys, llm_calls, tamper):
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph", "retrieve"))
        tamper(out)
        argv = ["infer", "--config", "config.json", "--out", str(out)]
        stale_run = tamper is _retrieval_for_other_questions
        assert refusal(capsys, argv) == (stale("retrieve") if stale_run else unlisted("retrieval.jsonl", "retrieve"))
        assert llm_calls == []
        run_stages(out, stages=("retrieve", "infer"))
        assert llm_calls
        assert (out / "predictions.jsonl").read_bytes() == (run_dir / "predictions.jsonl").read_bytes()


class TestFlags:
    def test_no_heuristics_passthrough(self, run_dir, tmp_path):
        out = tmp_path / "nh"
        run_stages(
            out,
            stages=("postprocess",),
            extra=("--no-heuristics", "--preds", str(run_dir / "predictions.jsonl")),
        )
        rows = read_jsonl(out / "predictions.final.jsonl")
        assert {r["id"]: r["prediction"] for r in rows} == RAW_PREDICTIONS
        summary = read_json(out / "consistency.json")
        assert summary["enabled"] is False
        assert read_jsonl(out / "audit.jsonl") == []

    def test_topic_union_mode(self, tmp_path):
        out = tmp_path / "union"
        run_stages(out, stages=("build-graph",))
        run_stages(out, stages=("retrieve",), extra=("--topic-union",))
        counts = read_json(out / "manifests" / "retrieve.json")["counts"]
        assert counts["cache_hits"] == 0
        assert counts["cache_misses"] == 12
        rows = read_jsonl(out / "retrieval.jsonl")
        by_topic: dict[int, list[dict]] = {}
        for row in rows:
            by_topic.setdefault(int(row["id"][1:4]), []).append(row)
        for topic_rows in by_topic.values():
            seen: set[str] = set()
            for row in topic_rows:  # context only ever grows within a topic
                assert seen <= set(row["selected"])
                seen = set(row["selected"])

    def test_postprocess_external_preds_applies_local_rules(self, run_dir, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "q103a", "prediction": "A,D"}) + "\n", encoding="utf-8")
        out = tmp_path / "ext"
        run_stages(out, stages=("postprocess",), extra=("--preds", str(preds)))
        rows = read_jsonl(out / "predictions.final.jsonl")
        assert rows == [{"id": "q103a", "prediction": "A"}]
        summary = read_json(out / "consistency.json")
        assert summary["rule_counts"]["R1"] == 1

    def test_flag_overrides_beat_config_file(self):
        old = os.getcwd()
        os.chdir(FIXTURE_DIR)
        try:
            args = _build_parser().parse_args(
                ["infer", "--config", "config.json", "--theta", "0.9", "--k", "5", "--seed", "7"]
            )
            config = build_config(args)
        finally:
            os.chdir(old)
        assert config.theta == 0.9
        assert config.sampling.k == 5
        assert config.embedder.seed == 7
        assert config.embedder.kind == "mock"  # untouched config value survives


class TestErrors:
    def test_missing_questions_file_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--questions",
                str(tmp_path / "nope.jsonl"),
                "--docs",
                str(FIXTURE_DIR / "docs.jsonl"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_questions_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "q1"\n', encoding="utf-8")
        code = main(
            [
                "ingest",
                "--questions",
                str(bad),
                "--docs",
                str(FIXTURE_DIR / "docs.jsonl"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_questions_file_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe" + (FIXTURE_DIR / "questions.jsonl").read_bytes())
        out = tmp_path / "out"
        code = main(["ingest", "--questions", str(bad), "--docs", str(FIXTURE_DIR / "docs.jsonl"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8: 'utf-8' codec can't decode byte 0xff")
        assert not (out / "manifests" / "ingest.json").exists()

    def test_doc_content_not_a_string_exits_2(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        rows = [json.loads(line) for line in (FIXTURE_DIR / "docs.jsonl").read_text(encoding="utf-8").splitlines()]
        rows[0]["docs"][0]["content"] = None
        docs.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["ingest", "--questions", str(FIXTURE_DIR / "questions.jsonl"), "--docs", str(docs), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {docs}: line 1: doc #0: content is not a string: None\n"
        assert not (out / "manifests" / "ingest.json").exists()

    def test_question_topic_absent_from_docs_exits_2(self, tmp_path, capsys, monkeypatch):
        docs = tmp_path / "docs.jsonl"
        lines = (FIXTURE_DIR / "docs.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        docs.write_text("".join(line for line in lines if '"topic_id": 103' not in line), encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's paths are relative
        out = tmp_path / "out"
        assert main(["retrieve", "--config", "config.json", "--out", str(out), "--docs", str(docs)]) == 2
        assert capsys.readouterr().err == "error: questions reference topic 103 absent from the docs file\n"
        assert not (out / "retrieval.jsonl").exists()

    @pytest.mark.parametrize("row, qid", [(0, "q101a"), (-1, "q103d")], ids=["first-row", "last-row"])
    def test_question_without_retrieval_trace_exits_2(self, tmp_path, capsys, monkeypatch, llm_calls, row, qid):
        # a listed retrieval.jsonl that lacks one question's row: infer
        # checks every question's trace before its first LLM call
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph", "retrieve"))
        path = out / "retrieval.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        del lines[row]
        path.write_text("".join(lines), encoding="utf-8")
        _relist(out, "retrieval.jsonl", "retrieve")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's paths are relative
        capsys.readouterr()
        assert main(["infer", "--config", "config.json", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: no retrieval trace for question {qid!r}\n"
        assert llm_calls == []
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: rows[0].update(selected=["no-such-doc"]),
             "line 1: selected ['no-such-doc'] is not a list of topic 101's document ids"),
            (lambda rows: rows[-1].update(selected=["p1"]),
             "line 12: selected ['p1'] is not a list of topic 103's document ids"),
            (lambda rows: rows[-1].update(selected="f1"),
             "line 12: selected 'f1' is not a list of topic 103's document ids"),
            (lambda rows: rows.append({"id": "q999", "selected": []}),
             "line 13: no question 'q999' in the questions file"),
            (lambda rows: rows[0].pop("selected"),
             "line 1: missing required fields ['selected']"),
            (lambda rows: rows.__setitem__(0, '{"id": "q101a"'),
             "line 1: malformed JSON: Expecting ',' delimiter: line 2 column 1 (char 15)"),
        ],
        ids=["unknown-doc-first-row", "other-topics-doc-last-row", "selected-not-a-list", "row-of-no-question",
             "no-selected-field", "malformed-line"],
    )
    def test_bad_retrieval_row_exits_2(self, tmp_path, capsys, llm_calls, edit, message):
        # a listed retrieval.jsonl with one bad row: infer reads every row
        # before its first LLM call
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph", "retrieve"))
        path = out / "retrieval.jsonl"
        rows = read_jsonl(path)
        edit(rows)
        path.write_text("".join((row if isinstance(row, str) else json.dumps(row)) + "\n" for row in rows), "utf-8")
        _relist(out, "retrieval.jsonl", "retrieve")
        argv = ["infer", "--config", "config.json", "--out", str(out)]
        assert refusal(capsys, argv) == f"error: {path}: {message}\n"
        assert llm_calls == []
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize(
        "section, spec, stage, message",
        [
            ("embedder", {"kind": "remote", "dim": 64}, "build-graph", "remote embedding client requires an endpoint"),
            ("embedder", {"kind": "nope", "dim": 64}, "build-graph", "unknown embedder kind 'nope'"),
            ("embedder", {"kind": "mock", "dim": 0}, "build-graph", "embedder.dim must be at least 1, got 0"),
            # refused before any document is posted (endpoint: fake_server's)
            ("embedder", {"kind": "remote", "dim": 0, "endpoint": None, "max_retries": 1}, "build-graph",
             "embedder.dim must be at least 1, got 0"),
            ("llm", {"kind": "nope", "script_path": "script.json"}, "infer", "unknown LLM client kind 'nope'"),
        ],
        ids=["remote-embedder-without-endpoint", "unknown-embedder-kind", "zero-dim", "remote-zero-dim",
             "unknown-llm-kind"],
    )
    def test_config_error_exits_2(self, tmp_path, capsys, monkeypatch, fake_server, section, spec, stage, message):
        out = tmp_path / "out"
        if stage == "infer":
            run_stages(out, stages=("build-graph", "retrieve"))
        fake_server.set_responder(lambda path, body, headers: (200, {"vectors": [[1.0] * 8 for _ in body["texts"]]}))
        if "endpoint" in spec:
            spec = {**spec, "endpoint": fake_server.url + "/embed"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**read_json(FIXTURE_DIR / "config.json"), section: spec}), encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's paths are relative
        capsys.readouterr()
        assert main([stage, "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert fake_server.requests == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_max_workers_below_1_exits_2(self, tmp_path, capsys, monkeypatch, source):
        config_path = tmp_path / "config.json"
        config = read_json(FIXTURE_DIR / "config.json")
        extra = ["--max-workers", "0"]
        if source == "config":
            config["max_workers"], extra = 0, []
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's paths are relative
        capsys.readouterr()
        assert main(["infer", "--config", str(config_path), "--out", str(tmp_path / "out"), *extra]) == 2
        assert capsys.readouterr().err == "error: max_workers must be at least 1, got 0\n"

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"out": ', "malformed JSON: Expecting value"),
            (b'\xff{"out": "o"}', "malformed JSON: 'utf-8' codec can't decode"),
            (b"[1, 2]", "not a JSON object"),
            (b"[" * 100_000, "malformed JSON: maximum recursion depth"),
        ],
        ids=["malformed-json", "not-utf-8", "not-an-object", "nested-deep"],
    )
    def test_unusable_config_file_exits_2(self, tmp_path, capsys, data, message):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(data)
        assert main(["ingest", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config_path}: {message}")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_k_below_1_exits_2(self, tmp_path, capsys, monkeypatch, source):
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph", "retrieve"))
        config_path = tmp_path / "config.json"
        config = read_json(FIXTURE_DIR / "config.json")
        extra = ["--k", "0"]
        if source == "config":
            config["sampling"], extra = {**config.get("sampling", {}), "k": 0}, []
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's paths are relative
        capsys.readouterr()
        assert main(["infer", "--config", str(config_path), "--out", str(out), *extra]) == 2
        assert capsys.readouterr().err == "error: sampling.k must be at least 1, got 0\n"
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize(
        "flags, data, message",
        [
            (["--alpha", "1.5"], {}, "hybrid.alpha must be in [0, 1], got 1.5"),
            ([], {"hybrid": {"alpha": "0.5"}}, "hybrid.alpha must be a number, got '0.5'"),
            (["--edge-threshold", "-0.1"], {}, "hybrid.edge_threshold must be in [0, 1], got -0.1"),
            ([], {"theta": 1.5}, "theta must be in [0, 1], got 1.5"),
            (["--theta", "nan"], {}, "theta must be in [0, 1], got nan"),
            ([], {"sampling": {"k": "3"}}, "sampling.k must be an integer, got '3'"),
            ([], {"sampling": {"k": 2.0}}, "sampling.k must be an integer, got 2.0"),
            ([], {"max_workers": "2"}, "max_workers must be an integer, got '2'"),
            ([], {"max_workers": True}, "max_workers must be an integer, got True"),
            ([], {"topic_union": "false"}, "topic_union must be true or false, got 'false'"),
            ([], {"heuristics": {"enabled": "false"}}, "heuristics.enabled must be true or false, got 'false'"),
            ([], {"heuristics": {"max_iterations": "3"}}, "heuristics.max_iterations must be an integer, got '3'"),
            ([], {"embedder": {"dim": "64"}}, "embedder.dim must be an integer, got '64'"),
            ([], {"hybrid": 5}, "hybrid must be an object, got 5"),
            (["--alpha", "0.5"], {"hybrid": 5}, "hybrid must be an object, got 5"),
            ([], {"questions": 2}, "questions must be a string or null, got 2"),
            ([], {"embedder": {"cache_dir": 5}}, "embedder.cache_dir must be a string or null, got 5"),
            ([], {"llm": {"script": ["A"]}}, "llm.script must be an object or null, got ['A']"),
            ([], {"llm": {"script": {"q1": 5}}}, "llm.script.q1 must be a non-empty list of strings, got 5"),
            ([], {"llm": {"script": {"q1": "<answer>A</answer>"}}},
             "llm.script.q1 must be a non-empty list of strings, got '<answer>A</answer>'"),
            ([], {"sampling": {"max_retries_on_parse_failure": -1}},
             "sampling.max_retries_on_parse_failure must be at least 0, got -1"),
            ([], {"hybrid": {"k_dense": -1}}, "hybrid.k_dense must be at least 0, got -1"),
            ([], {"hybrid": {"k_sparse": -1}}, "hybrid.k_sparse must be at least 0, got -1"),
            ([], {"llm": {"max_retries": 0}}, "llm.max_retries must be at least 1, got 0"),
            ([], {"embedder": {"max_retries": 0}}, "embedder.max_retries must be at least 1, got 0"),
            ([], {"embedder": {"batch_size": 0}}, "embedder.batch_size must be at least 1, got 0"),
            ([], {"llm": {"backoff_base": -0.5}}, "llm.backoff_base must be at least 0, got -0.5"),
            ([], {"embedder": {"backoff_base": -0.5}}, "embedder.backoff_base must be at least 0, got -0.5"),
        ],
        ids=[
            "alpha-above-1", "alpha-string", "edge-threshold-below-0", "theta-above-1", "theta-nan",
            "k-string", "k-float", "max-workers-string", "max-workers-bool", "topic-union-string",
            "heuristics-enabled-string", "heuristics-max-iterations-string", "dim-string", "section-number",
            "flag-into-section-number", "questions-number", "cache-dir-number", "script-list",
            "script-entry-number", "script-entry-string", "parse-retries-negative", "k-dense-negative",
            "k-sparse-negative", "llm-max-retries-0", "embedder-max-retries-0", "batch-size-0",
            "llm-backoff-negative", "embedder-backoff-negative",
        ],
    )
    def test_config_value_out_of_its_range_exits_2(self, tmp_path, capsys, monkeypatch, flags, data, message):
        # refused before the stage runs: the output directory is never made
        config_path = tmp_path / "config.json"
        config = read_json(FIXTURE_DIR / "config.json")
        for key, value in data.items():
            config[key] = {**config.get(key, {}), **value} if isinstance(value, dict) else value
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's paths are relative
        out = tmp_path / "out"
        assert main(["build-graph", "--config", str(config_path), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"q1": 5}', "llm.script.q1 must be a non-empty list of strings, got 5"),
            (b'{"q1": "<answer>A</answer>"}', "llm.script.q1 must be a non-empty list of strings, got '<answer>A</answer>'"),
            (b'["<answer>A</answer>"]', "llm.script must be an object, got ['<answer>A</answer>']"),
            (b'{"q1": ', "malformed JSON: Expecting value"),
            (b'\xff{"q1": ["<answer>A</answer>"]}', "malformed JSON: 'utf-8' codec can't decode"),
        ],
        ids=["entry-number", "entry-string", "not-an-object", "malformed-json", "not-utf-8"],
    )
    def test_unusable_script_file_exits_2(self, tmp_path, capsys, monkeypatch, data, message):
        # a script file is held to llm.script's rule before any question is sampled
        out = tmp_path / "out"
        run_stages(out, stages=("build-graph", "retrieve"))
        script = tmp_path / "script.json"
        script.write_bytes(data)
        config_path = tmp_path / "config.json"
        config = {**read_json(FIXTURE_DIR / "config.json"), "llm": {"kind": "mock-scripted", "script_path": str(script)}}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's other paths are relative
        capsys.readouterr()
        assert main(["infer", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {script}: {message}")
        assert not (out / "predictions.jsonl").exists()

    def test_missing_required_flag_is_fatal(self, tmp_path, capsys):
        argv = ["ingest", "--out", str(tmp_path / "out")]
        assert refusal(capsys, argv) == "error: --questions is required (flag or config file)\n"

    def test_infer_before_retrieve_is_fatal(self, tmp_path, capsys):
        out = tmp_path / "half"
        argv = ["infer", "--config", "config.json", "--out", str(out)]
        assert refusal(capsys, argv) == unlisted("retrieval.jsonl", "retrieve")

    def test_closed_stdout_ends_the_run_without_an_error(self, run_dir, tmp_path, capsys, monkeypatch):
        # as `causeway score ... | head -c 10` does once head has exited: the
        # files and the manifest are written, then printing finds the pipe closed
        out = _copy_run(run_dir, tmp_path)
        for rel in ("score_report.json", "manifests/score.json"):
            (out / rel).unlink()

        def closed_pipe(text):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.chdir(FIXTURE_DIR)
        capsys.readouterr()
        with open(tmp_path / "stdout", "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(stdout, "write", closed_pipe)
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["score", "--config", "config.json", "--out", str(out)])
            monkeypatch.undo()
        assert code == 1
        assert capsys.readouterr().err == ""
        for rel in ("score_report.json", "manifests/score.json"):
            assert (out / rel).read_bytes() == (run_dir / rel).read_bytes()


class TestLoadPredictions:
    def test_round_trip(self, run_dir):
        preds = load_predictions(run_dir / "predictions.final.jsonl")
        assert preds["q101c"] == frozenset({"A", "B", "C"})
        assert preds["q103a"] == frozenset({"D"})


def _copy_run(run_dir: Path, tmp_path: Path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    return out


def _drop_first_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")


class TestPredictionsChecked:
    """Without --preds, postprocess and score read predictions only as the
    manifest of the stage that wrote them lists them, and only when that
    stage read the same questions file."""

    def test_edited_predictions_are_refused_by_postprocess(self, run_dir, tmp_path, capsys):
        out = _copy_run(run_dir, tmp_path)
        _drop_first_line(out / "predictions.jsonl")
        argv = ["postprocess", "--config", "config.json", "--out", str(out)]
        assert refusal(capsys, argv) == unlisted("predictions.jsonl", "infer")

    def test_infer_on_other_questions_is_refused_by_postprocess(self, run_dir, tmp_path, capsys):
        out = _copy_run(run_dir, tmp_path)
        lines = (FIXTURE_DIR / "questions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        other = tmp_path / "reversed.jsonl"
        other.write_text("".join(reversed(lines)), encoding="utf-8")
        run_stages(out, stages=("retrieve", "infer"), extra=("--questions", str(other)))
        argv = ["postprocess", "--config", "config.json", "--out", str(out)]
        assert refusal(capsys, argv) == stale("infer")

    def test_edited_final_predictions_are_refused_by_score(self, run_dir, tmp_path, capsys):
        out = _copy_run(run_dir, tmp_path)
        _drop_first_line(out / "predictions.final.jsonl")
        argv = ["score", "--config", "config.json", "--out", str(out)]
        assert refusal(capsys, argv) == unlisted("predictions.final.jsonl", "postprocess")

    def test_score_after_a_newer_infer_is_refused_naming_postprocess(self, run_dir, tmp_path, capsys):
        # every stage through score, then infer at another theta: score used to
        # score the older predictions.final.jsonl again (mean 1.0)
        out = _copy_run(run_dir, tmp_path)
        run_stages(out, stages=("infer",), extra=("--theta", "0.99"))
        before = (out / "score_report.json").read_bytes()
        argv = ["score", "--config", "config.json", "--out", str(out)]
        assert refusal(capsys, argv) == replaced("postprocess", "predictions.jsonl", "infer")
        assert (out / "score_report.json").read_bytes() == before
        run_stages(out, stages=("postprocess", "score"))
        inputs = read_json(out / "manifests" / "score.json")["inputs"]
        assert inputs["predictions"] == hashlib.sha256((out / "predictions.final.jsonl").read_bytes()).hexdigest()

    def test_stale_stage_two_steps_up_is_named(self, run_dir, tmp_path, capsys):
        # a retrieve at another threshold replaces retrieval.jsonl under the
        # infer that postprocess and score read through
        out = _copy_run(run_dir, tmp_path)
        run_stages(out, stages=("retrieve",), extra=("--edge-threshold", "0.05"))
        assert (out / "retrieval.jsonl").read_bytes() != (run_dir / "retrieval.jsonl").read_bytes()
        for stage in ("postprocess", "score"):
            argv = [stage, "--config", "config.json", "--out", str(out)]
            assert refusal(capsys, argv) == replaced("infer", "retrieval.jsonl", "retrieve")

    def test_score_after_postprocess_of_a_preds_file_reads_its_final_predictions(self, run_dir, tmp_path):
        # a --preds file is recorded under a key the walk does not follow, so
        # infer's manifest does not decide whether postprocess's output serves
        out = _copy_run(run_dir, tmp_path)
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "q103a", "prediction": "A,D"}) + "\n", encoding="utf-8")
        run_stages(out, stages=("postprocess",), extra=("--preds", str(preds)))
        run_stages(out, stages=("score",))
        assert read_json(out / "manifests" / "score.json")["inputs"]["predictions"] == _sha256(
            out / "predictions.final.jsonl"
        )
        assert read_json(out / "score_report.json")["missing_prediction_ids"] == sorted(set(RAW_PREDICTIONS) - {"q103a"})

    def test_score_without_postprocess_manifest_reads_infer_predictions(self, run_dir, tmp_path):
        out = _copy_run(run_dir, tmp_path)
        (out / "manifests" / "postprocess.json").unlink()
        run_stages(out, stages=("score",))
        assert read_json(out / "score_report.json")["mean"] == pytest.approx(9.5 / 12)
        inputs = read_json(out / "manifests" / "score.json")["inputs"]
        assert inputs["predictions"] == hashlib.sha256((out / "predictions.jsonl").read_bytes()).hexdigest()


class TestMalformedPreds:
    @pytest.mark.parametrize("stage", ["postprocess", "score"])
    @pytest.mark.parametrize(
        "row, problem",
        [
            ('{"id": "q101b"', "malformed JSON"),
            ('{"id": "q101b"}', "missing required fields ['prediction']"),
            ('["id", "prediction"]', "not a JSON object"),
        ],
        ids=["bad-json", "missing-field", "not-an-object"],
    )
    def test_exits_2_naming_the_line(self, tmp_path, capsys, monkeypatch, stage, row, problem):
        preds = tmp_path / "bad.jsonl"
        preds.write_text('{"id": "q101a", "prediction": "A,B"}\n' + row + "\n", encoding="utf-8")
        monkeypatch.chdir(FIXTURE_DIR)
        code = main([stage, "--config", "config.json", "--out", str(tmp_path / "out"), "--preds", str(preds)])
        assert code == 2
        assert f"error: {preds}: line 2: {problem}" in capsys.readouterr().err

    def test_not_utf8_exits_2(self, run_dir, tmp_path, capsys, monkeypatch):
        out = _copy_run(run_dir, tmp_path)
        preds = tmp_path / "bad.jsonl"
        preds.write_bytes(b"\xff\xfe" + (run_dir / "predictions.final.jsonl").read_bytes())
        monkeypatch.chdir(FIXTURE_DIR)
        before = (out / "score_report.json").read_bytes()
        code = main(["score", "--config", "config.json", "--out", str(out), "--preds", str(preds)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {preds}: not UTF-8: 'utf-8' codec can't decode byte 0xff")
        assert (out / "score_report.json").read_bytes() == before


class TestReportReadsListedFiles:
    def test_files_the_latest_agree_does_not_list_are_left_out(self, run_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        preds = [f"raw={run_dir / 'predictions.jsonl'}", f"final={run_dir / 'predictions.final.jsonl'}"]
        monkeypatch.chdir(FIXTURE_DIR)
        assert main(["agree", "--config", "config.json", "--out", str(out), *preds]) == 0
        assert (out / "oracle_report.json").is_file()
        assert main(["agree", "--out", str(out), *preds]) == 0  # no questions, so no gold answers
        assert main(["report", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["agreement"] == read_json(out / "agreement_report.json")
        assert "oracle" not in report
        assert "bias" not in report

    def test_report_after_a_newer_infer_leaves_out_postprocess_and_score(self, run_dir, tmp_path, capsys):
        out = _copy_run(run_dir, tmp_path)
        run_stages(out, stages=("infer",), extra=("--theta", "0.99"))
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert "consistency" not in report
        assert "score" not in report
        assert report["stages"]["infer"] == read_json(out / "manifests" / "infer.json")["counts"]
        assert report["stages"]["infer"]["theta"] == 0.99
        assert report["stages"]["retrieve"] == read_json(out / "manifests" / "retrieve.json")["counts"]
        assert report["ingest"] == read_json(out / "ingest" / "structure.json")
        printed = capsys.readouterr().out
        assert "mean score" not in printed
        assert "rule changes" not in printed

    def test_manifest_that_is_not_an_object_is_left_out(self, run_dir, tmp_path):
        out = _copy_run(run_dir, tmp_path)
        (out / "manifests" / "score.json").write_text("[]\n", encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert "score" not in report
        assert report["consistency"] == read_json(out / "consistency.json")

    def test_retrieve_manifest_without_counts_is_left_out(self, run_dir, tmp_path, capsys):
        out = _copy_run(run_dir, tmp_path)
        manifest_path = out / "manifests" / "retrieve.json"
        manifest = read_json(manifest_path)
        del manifest["counts"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["stages"] == {"infer": read_json(out / "manifests" / "infer.json")["counts"]}
        assert "cache hit rate" not in capsys.readouterr().out

    @pytest.mark.parametrize("counts", [{}, {"cache_hit_rate": "0.75"}])
    def test_retrieve_counts_without_a_numeric_hit_rate_print_no_rate(self, run_dir, tmp_path, capsys, counts):
        out = _copy_run(run_dir, tmp_path)
        manifest_path = out / "manifests" / "retrieve.json"
        manifest = read_json(manifest_path)
        manifest["counts"] = counts
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 0
        assert read_json(out / "report.json")["stages"]["retrieve"] == counts
        assert "cache hit rate" not in capsys.readouterr().out


class TestConfigKeys:
    def test_every_flag_sets_its_config_key(self):
        argv = [
            "infer", "--questions", "q.jsonl", "--docs", "d.jsonl", "--out", "o", "--model", "m",
            "--k", "5", "--theta", "0.9", "--alpha", "0.2", "--edge-threshold", "0.3",
            "--no-heuristics", "--topic-union", "--seed", "7", "--max-workers", "3",
        ]
        config = build_config(_build_parser().parse_args(argv))
        assert (config.questions, config.docs, config.out) == ("q.jsonl", "d.jsonl", "o")
        assert (config.llm.model, config.sampling.k, config.theta) == ("m", 5, 0.9)
        assert (config.hybrid.alpha, config.hybrid.edge_threshold) == (0.2, 0.3)
        assert (config.heuristics.enabled, config.topic_union, config.embedder.seed) == (False, True, 7)
        assert config.max_workers == 3

    def test_defaults_are_run_config_defaults(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        for argv in (["report"], ["report", "--config", str(empty)]):
            config = build_config(_build_parser().parse_args(argv))
            assert config == RunConfig()
            assert (type(config.topic_union), type(config.max_workers)) == (bool, int)

    def test_top_level_seed_leaves_the_config_hash_alone(self, tmp_path, monkeypatch):
        config = read_json(FIXTURE_DIR / "config.json")
        monkeypatch.chdir(FIXTURE_DIR)  # the config's script path is relative
        hashes = []
        for seed in (0, 7):
            path = tmp_path / f"config{seed}.json"
            path.write_text(json.dumps({**config, "seed": seed}), encoding="utf-8")
            args = _build_parser().parse_args(["score", "--config", str(path)])
            hashes.append(build_config(args).config_hash())
        assert hashes[0] == hashes[1]

    def test_unknown_key_warns_with_its_dotted_key(self, tmp_path, caplog):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"hybrid": {"edge_treshold": 0.05}}), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="causeway.cli"):
            config = build_config(_build_parser().parse_args(["report", "--config", str(path)]))
        assert [r.getMessage() for r in caplog.records] == ["ignoring unknown config key hybrid.edge_treshold"]
        assert config.hybrid.edge_threshold == 0.4

    @given(config_objects, flag_args)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_config_objects_raise_only_config_errors(self, tmp_path_factory, data, flags):
        path = tmp_path_factory.getbasetemp() / "arbitrary-config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        args = _build_parser().parse_args(["report", "--config", str(path), *flags])
        try:
            build_config(args)
        except ConfigError:
            pass
