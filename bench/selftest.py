"""Tests of the benchmark itself: the generator, the output checks and the
stub. Run from the repository root with

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402

TINY = replace(workloads.WORKLOADS["many-questions"], name="tiny", topics=3, docs_per_topic=8, questions=18)


def _scratch(name: str) -> Path:
    path = run.WORK / f"selftest-{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    return path


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        root = _scratch("gen")
        try:
            for spec in workloads.WORKLOADS.values():
                a, _ = workloads.write_workload(spec, 7, root / "a")
                b, _ = workloads.write_workload(spec, 7, root / "b")
                c, _ = workloads.write_workload(spec, 8, root / "c")
                for name in a:
                    self.assertEqual(a[name].read_bytes(), b[name].read_bytes(), f"{spec.name} {name}")
                    self.assertNotEqual(a[name].read_bytes(), c[name].read_bytes(), f"{spec.name} {name}")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_stated_shares(self):
        for spec in workloads.WORKLOADS.values():
            sizes = workloads.describe(spec, workloads.generate(spec, 3))
            self.assertEqual(sizes["topics"], spec.topics)
            self.assertEqual(sizes["questions"], spec.questions)
            self.assertAlmostEqual(sizes["distractor_share"], spec.distractor_share, delta=0.05)
            self.assertAlmostEqual(sizes["rejection_option_share"], workloads.REJECTION_SHARE, delta=0.05)
            self.assertGreater(sizes["duplicate_option_question_share"], 0.05)


class ChecksTest(unittest.TestCase):
    """A small pipeline pass must pass every check, and each check must
    catch the corruption aimed at it."""

    @classmethod
    def setUpClass(cls):
        cls.cli = run._load_program()
        cls.root = _scratch("checks")
        inputs, cls.corpus = workloads.write_workload(TINY, 5, cls.root / "inputs")
        cls.runner = run.Runner(cls.cli, TINY, inputs, cls.corpus, cls.root, None)
        cls.runner.full_pass()
        cls.out = cls.runner.out

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root, ignore_errors=True)

    def setUp(self):
        self.saved = {p: p.read_bytes() for p in self.out.rglob("*") if p.is_file()}

    def tearDown(self):
        for path, data in self.saved.items():
            path.write_bytes(data)

    def _rewrite(self, name: str, edit) -> None:
        path = self.out / name
        rows = checks.read_jsonl(path)
        edit(rows)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    def _all(self) -> list[str]:
        return checks.check_all(self.out, self.corpus.questions, TINY.k, run.EDGE_THRESHOLD)[0]

    def test_clean_pass(self):
        self.assertEqual(self.runner.problems, [])
        self.assertEqual(self._all(), [])
        stats = checks.realism(self.out, self.corpus.distractors)
        self.assertEqual(checks.check_realism(stats), [])

    def test_corrupted_retrieval_row(self):
        def move_last_selected_to_excluded(rows):
            row = rows[0]
            doc = row["selected"].pop()
            del row["provenance"][doc]
            row["excluded"] = sorted(row["excluded"] + [doc])

        self._rewrite("retrieval.jsonl", move_last_selected_to_excluded)
        problems = checks.check_retrieval(self.out, [q["id"] for q in self.corpus.questions], run.EDGE_THRESHOLD)
        self.assertTrue(problems)

    def test_mixed_rejection_prediction(self):
        q = next(q for q in self.corpus.questions if workloads.NONE_TEXT in [q[f"option_{l}"] for l in "ABCD"])
        rejection = next(l for l in "ABCD" if q[f"option_{l}"] == workloads.NONE_TEXT)
        substantive = next(l for l in "ABCD" if l != rejection)

        def mix(rows):
            for row in rows:
                if row["id"] == q["id"]:
                    row["prediction"] = ",".join(sorted({rejection, substantive}))

        self._rewrite("predictions.final.jsonl", mix)
        self.assertTrue(checks.check_final_predictions(self.out, self.corpus.questions))

    def test_score_of_changed_predictions(self):
        def all_gold(rows):
            golds = {q["id"]: q["golden_answer"] for q in self.corpus.questions}
            for row in rows:
                row["prediction"] = golds[row["id"]]

        self.assertLess(checks.read_json(self.out / "score_report.json")["mean"], 1.0)
        self._rewrite("predictions.final.jsonl", all_gold)
        self.assertTrue(checks.check_score(self.out, self.corpus.questions))

    def test_missing_sample(self):
        self._rewrite("samples.jsonl", lambda rows: rows.pop())
        self.assertTrue(checks.check_samples(self.out, [q["id"] for q in self.corpus.questions], TINY.k)[0])

    def test_reported_violation(self):
        path = self.out / "consistency.json"
        summary = checks.read_json(path)
        summary["violations"] = ["q: rejection letter mixed with substantive letters"]
        path.write_text(json.dumps(summary), encoding="utf-8")
        self.assertTrue(checks.check_consistency(self.out))

    def test_digest_sees_a_changed_audit(self):
        before = checks.digest(self.out)
        (self.out / "audit.jsonl").write_text('{"rule": "R9"}\n', encoding="utf-8")
        self.assertNotEqual(checks.digest(self.out), before)


class StubTest(unittest.TestCase):
    @staticmethod
    def _prompt(i: int) -> str:
        from causeway.corpus import DocumentRecord, QuestionRecord
        from causeway.reason import render_prompt

        q = QuestionRecord(1, f"q{i}", "the port closed", {l: f"alpha {l} {i}" for l in "ABCD"})
        return render_prompt(q, [DocumentRecord(1, "d", "T", "s", "src", "l", f"alpha B {i}")]).text

    def _session(self) -> list[tuple[str, int, str]]:
        """A fixed request sequence against a fresh stub with a high failure
        share. Each body is sent until it succeeds, at most twice."""
        bodies = [("/embed", {"texts": [f"text {i}", "shared"], "model": "m"}) for i in range(10)]
        bodies += [
            ("/chat", {"model": "m", "messages": [{"role": "user", "content": self._prompt(i)}], "temperature": 1.0})
            for i in range(10)
            for _ in range(3)
        ]
        answers = []
        server = stub.StubProcess(failure_share=0.2)
        try:
            for path, body in bodies:
                request = urllib.request.Request(server.url + path, data=json.dumps(body).encode())
                for _ in range(2):
                    try:
                        with urllib.request.urlopen(request, timeout=30) as resp:
                            text = resp.read().decode()
                    except urllib.error.HTTPError as exc:
                        answers.append((path, exc.code, ""))
                        continue
                    answers.append((path, 200, text))
                    if path == "/embed" or "<answer>" in text:
                        break
                else:
                    self.fail(f"{path} failed twice in a row")
            stats = server.stats()
        finally:
            server.close()
        self.assertIsNotNone(server.proc.poll())
        for path, counter in (("/embed", "embed_requests"), ("/chat", "chat_requests")):
            self.assertEqual(stats[counter], sum(1 for p, _, _ in answers if p == path))
        return answers

    def test_identical_across_runs_and_no_double_failure(self):
        run._load_program()
        first = self._session()
        self.assertEqual(first, self._session())
        self.assertTrue(any(status == 500 for _, status, _ in first), "no HTTP 500 was injected")
        unparseable = [text for path, status, text in first if path == "/chat" and status == 200 and "<answer>" not in text]
        self.assertTrue(unparseable, "no unparseable answer was injected")


if __name__ == "__main__":
    unittest.main()
