from __future__ import annotations

import random

import pytest

from causeway import consist, corpus
from causeway.consist import (
    ConsistError,
    TruthAssignment,
    _Engine,
    local_normalize,
    output_validity_violations,
    r1,
    r2,
    r3,
    r5,
    run_to_fixed_point,
    seed_truth,
)
from causeway.corpus import LETTERS
from helpers import NONE_TEXT, make_question, random_sibling_group


def fs(*letters: str) -> frozenset[str]:
    return frozenset(letters)


class TestR1NoneExclusivity:
    def test_drops_rejection_from_mixed_pick(self):
        q = make_question(d=NONE_TEXT)
        assert r1(q, fs("A", "D")) == fs("A")

    def test_rejection_alone_kept(self):
        q = make_question(d=NONE_TEXT)
        assert r1(q, fs("D")) == fs("D")

    def test_pure_substantive_kept(self):
        q = make_question(d=NONE_TEXT)
        assert r1(q, fs("A", "B")) == fs("A", "B")

    def test_two_rejection_options(self):
        q = make_question(c=NONE_TEXT, d="None of the causes listed apply.")
        assert r1(q, fs("A", "C", "D")) == fs("A")
        assert r1(q, fs("C", "D")) == fs("C", "D")


class TestR2DuplicateConsistency:
    def test_selecting_one_member_selects_class(self):
        q = make_question(a="The dam failed.", c="the dam failed")
        assert r2(q, fs("A")) == fs("A", "C")
        assert r2(q, fs("C")) == fs("A", "C")

    def test_untouched_when_class_not_selected(self):
        q = make_question(a="x", c="x")
        assert r2(q, fs("B")) == fs("B")

    def test_already_consistent(self):
        q = make_question(a="x", c="x")
        assert r2(q, fs("A", "C")) == fs("A", "C")

    def test_multiple_classes(self):
        q = make_question(a="x", b="y", c="x", d="y")
        assert r2(q, fs("A", "B")) == fs("A", "B", "C", "D")


class TestR3OverselectionGuard:
    def test_full_selection_with_rejection_drops_it(self):
        q = make_question(d=NONE_TEXT)
        assert r3(q, fs(*LETTERS)) == fs("A", "B", "C")

    def test_full_selection_without_rejection_kept(self):
        q = make_question()
        assert r3(q, fs(*LETTERS)) == fs(*LETTERS)

    def test_partial_selection_untouched(self):
        q = make_question(d=NONE_TEXT)
        assert r3(q, fs("A", "B", "D")) == fs("A", "B", "D")


class TestR5TripleExclusion:
    def test_full_triple_drops_odd_letter(self):
        q = make_question(a="x", b="x", c="x", d="y")
        assert r5(q, fs(*LETTERS)) == fs("A", "B", "C")

    def test_triple_alone_kept(self):
        q = make_question(a="x", b="x", c="x", d="y")
        assert r5(q, fs("A", "B", "C")) == fs("A", "B", "C")

    def test_partial_triple_untouched(self):
        q = make_question(a="x", b="x", c="x", d="y")
        assert r5(q, fs("A", "B", "D")) == fs("A", "B", "D")

    def test_no_triple_class(self):
        q = make_question(a="x", b="x", c="y", d="z")
        assert r5(q, fs(*LETTERS)) == fs(*LETTERS)


class TestTruthAssignment:
    def test_unknown_hardens(self):
        truth = TruthAssignment((1, "e"))
        assert truth.mark("t", True, "seed", 0)
        assert truth.value("t") is True
        assert len(truth.transitions) == 1

    def test_remark_same_value_no_transition(self):
        truth = TruthAssignment((1, "e"))
        truth.mark("t", False, "R6", 1)
        assert not truth.mark("t", False, "R6", 2)
        assert len(truth.transitions) == 1

    def test_flip_attempt_is_refused(self):
        truth = TruthAssignment((1, "e"))
        truth.mark("t", True, "seed", 0)
        assert not truth.mark("t", False, "R6", 1)
        assert truth.value("t") is True
        assert len(truth.transitions) == 1

    def test_unseen_text_is_unknown(self):
        assert TruthAssignment((1, "e")).value("nope") is None


class TestSeedTruth:
    def test_selected_substantive_texts_true(self):
        q1 = make_question(qid="q1", a="alpha", b="beta")
        truth = seed_truth([q1], {"q1": fs("A")}, (1, "e"))
        assert truth.value("alpha") is True
        assert truth.value("beta") is None

    def test_rejection_letters_never_seed_truth(self):
        q1 = make_question(qid="q1", d=NONE_TEXT)
        truth = seed_truth([q1], {"q1": fs("D")}, (1, "e"))
        assert truth.value(NONE_TEXT.lower()) is None

    def test_texts_of_rejection_only_questions_stay_unknown(self):
        q1 = make_question(qid="q1", a="alpha", b="beta", c="gamma", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="alpha", b="other")
        truth = seed_truth([q1, q2], {"q1": fs("D"), "q2": fs("A", "B")}, (1, "e"))
        # alpha is claimed by q2 but q1's rejection-only answer blocks it
        assert truth.value("alpha") is None
        assert truth.value("other") is True

    def test_normalization_shares_truth(self):
        q1 = make_question(qid="q1", a="The Dam failed!")
        q2 = make_question(qid="q2", b="the dam failed")
        truth = seed_truth([q1, q2], {"q1": fs("A"), "q2": fs("C")}, (1, "e"))
        assert truth.value("the dam failed") is True


class TestEngineInputValidation:
    def test_missing_prediction(self):
        with pytest.raises(ConsistError, match="missing"):
            run_to_fixed_point([make_question(qid="q1")], {})

    def test_empty_prediction(self):
        with pytest.raises(ConsistError, match="invalid"):
            run_to_fixed_point([make_question(qid="q1")], {"q1": fs()})

    def test_unknown_question_id(self):
        with pytest.raises(ConsistError, match="unknown"):
            run_to_fixed_point([make_question(qid="q1")], {"q1": fs("A"), "zz": fs("B")})

    def test_letters_outside_range(self):
        with pytest.raises(ConsistError, match="invalid"):
            run_to_fixed_point([make_question(qid="q1")], {"q1": fs("A", "E")})


class TestEngineSingleQuestion:
    def test_r1_strips_rejection(self):
        q = make_question(qid="q1", d=NONE_TEXT)
        out = run_to_fixed_point([q], {"q1": fs("A", "D")})
        assert out.predictions["q1"] == fs("A")
        assert out.report.rule_counts["R1"] == 1
        assert out.report.converged

    def test_r2_completes_duplicate_class(self):
        q = make_question(qid="q1", a="same text", c="Same text.")
        out = run_to_fixed_point([q], {"q1": fs("A")})
        assert out.predictions["q1"] == fs("A", "C")
        assert out.report.rule_counts["R2"] == 1

    def test_r5_drops_odd_letter(self):
        q = make_question(qid="q1", a="x", b="x", c="x", d="y")
        out = run_to_fixed_point([q], {"q1": fs("A", "B", "C", "D")})
        assert out.predictions["q1"] == fs("A", "B", "C")
        assert out.report.rule_counts["R5"] == 1

    def test_consistent_input_unchanged(self):
        q = make_question(qid="q1", d=NONE_TEXT)
        out = run_to_fixed_point([q], {"q1": fs("B")})
        assert out.predictions["q1"] == fs("B")
        assert out.report.changes == []
        assert out.report.iterations == 1
        assert out.report.converged


class TestEngineSiblingGroups:
    def test_r4_propagates_selected_text(self):
        q1 = make_question(qid="q1", topic=3, event="E", a="heavy rain fell")
        q2 = make_question(
            qid="q2", topic=3, event="E",
            a="something else", b="Heavy rain fell.", c="third", d="fourth",
        )
        out = run_to_fixed_point([q1, q2], {"q1": fs("A"), "q2": fs("C")})
        assert out.predictions["q2"] == fs("B", "C")
        assert out.report.rule_counts["R4"] == 1

    def test_r4_only_within_topic(self):
        q1 = make_question(qid="q1", topic=3, event="E", a="heavy rain fell")
        q2 = make_question(qid="q2", topic=4, event="E", b="heavy rain fell")
        out = run_to_fixed_point([q1, q2], {"q1": fs("A"), "q2": fs("C")})
        assert out.predictions["q2"] == fs("C")

    def test_r4_only_within_event(self):
        q1 = make_question(qid="q1", topic=3, event="E one", a="heavy rain fell")
        q2 = make_question(qid="q2", topic=3, event="E two", b="heavy rain fell")
        out = run_to_fixed_point([q1, q2], {"q1": fs("A"), "q2": fs("C")})
        assert out.predictions["q2"] == fs("C")

    def test_r6_unselects_falsified_text(self):
        q1 = make_question(qid="q1", a="t", b="u", c="v", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="t", b="x", c="y", d="z")
        out = run_to_fixed_point([q1, q2], {"q1": fs("D"), "q2": fs("A", "B")})
        assert out.predictions["q2"] == fs("B")
        assert out.predictions["q1"] == fs("D")
        assert out.report.rule_counts["R6"] == 1

    def test_r6_marking_without_selection_changes_nothing(self):
        q1 = make_question(qid="q1", a="t", b="u", c="v", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="w", b="x", c="y", d="z")
        out = run_to_fixed_point([q1, q2], {"q1": fs("D"), "q2": fs("A")})
        assert out.predictions["q2"] == fs("A")
        assert out.report.rule_counts["R6"] == 0
        falsified = {
            t.text for t in out.report.truth_log if t.new is False and t.rule == "R6"
        }
        assert falsified == {"t", "u", "v"}
        # the marking pass changed truth only; one more pass finds nothing to do
        assert out.report.iterations == 2

    def test_pass_that_changes_only_truth_is_followed(self):
        # pass 1 moves no prediction: R6 falsifies u, v, w and R7 makes t
        # True; pass 2 lets R4 select t in q2 and R6 drop u
        q1 = make_question(qid="q1", a="u", b="v", c="w", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="u", b="v", c="t", d=NONE_TEXT)
        out = run_to_fixed_point([q1, q2], {"q1": fs("D"), "q2": fs("A")})
        assert out.predictions["q2"] == fs("C")
        assert out.report.iterations == 3
        assert out.report.rule_counts["R4"] == 1
        assert out.report.rule_counts["R6"] == 1

    def test_r6_deferred_when_it_would_empty(self):
        q1 = make_question(qid="q1", a="t", b="u", c="v", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="t", b="x", c="y", d="z")
        out = run_to_fixed_point([q1, q2], {"q1": fs("D"), "q2": fs("A")})
        # q2 has other live texts so no closure applies; the False pick stays
        # and is surfaced as a contradiction instead of an empty prediction.
        assert out.predictions["q2"] == fs("A")
        assert any(
            c.rule == "R6" and c.question_id == "q2" and c.text == "t"
            for c in out.report.contradictions
        )
        assert out.report.converged

    def test_r6_true_text_conflict_records_contradiction(self):
        q1 = make_question(qid="q1", a="t", b="u", c="v", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="t", b="x", c="y", d="z")
        engine = _Engine([q1, q2], {"q1": fs("D"), "q2": fs("B")})
        [(_, truth)] = engine.groups
        truth.mark("t", True, "R4", 0)
        engine._apply_r6()
        assert truth.value("t") is True
        assert any(c.rule == "R6" and c.text == "t" for c in engine.contradictions)
        assert engine.preds["q2"] == fs("B")

    def test_r7_r8_closure_selects_last_live_text(self):
        q1 = make_question(qid="q1", a="t1", b="t2", c="t3", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="t1", b="t2", c="t3", d="t4")
        out = run_to_fixed_point([q1, q2], {"q1": fs("D"), "q2": fs("A")})
        assert out.predictions["q2"] == fs("D")
        assert out.report.rule_counts["R8"] == 1
        assert out.report.converged
        assert out.report.iterations == 2
        made_true = [t for t in out.report.truth_log if t.rule == "R7"]
        assert [t.text for t in made_true] == ["t4"]

    def test_r8_all_false_restores_input_and_freezes(self):
        q1 = make_question(qid="q1", a="t1", b="t2", c="t3", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="t4", b="u1", c="u2", d=NONE_TEXT)
        q3 = make_question(qid="q3", a="t1", b="t2", c="t3", d="t4")
        preds = {"q1": fs("D"), "q2": fs("D"), "q3": fs("A", "B")}
        out = run_to_fixed_point([q1, q2, q3], preds)
        assert out.predictions["q3"] == fs("A", "B")
        assert any(c.rule == "R8" and c.question_id == "q3" for c in out.report.contradictions)
        assert out.report.converged

    def test_r5_wins_over_r4_propagation(self):
        # q0 makes "cause 1" True everywhere; R4 completes q1's triple, R5
        # strips the odd letter, and the two may not chase each other.
        q0 = make_question(qid="q0", a="cause 1", b="cause 1", c="cause 1", d="cause 1")
        q1 = make_question(qid="q1", a="cause 1", b="cause 0", c="cause 1", d="cause 1")
        preds = {"q0": fs("A", "B", "C", "D"), "q1": fs("B")}
        out = run_to_fixed_point([q0, q1], preds)
        assert out.report.converged
        assert out.predictions["q1"] == fs("A", "C", "D")
        assert any(c.rule == "R5" and c.text == "cause 0" for c in out.report.contradictions)
        second = run_to_fixed_point([q0, q1], out.predictions)
        assert second.predictions == out.predictions

    def test_rejection_only_questions_left_alone(self):
        q1 = make_question(qid="q1", a="t1", b="t2", c="t3", d=NONE_TEXT)
        q2 = make_question(qid="q2", a="x1", b="x2", c="x3", d=NONE_TEXT)
        out = run_to_fixed_point([q1, q2], {"q1": fs("D"), "q2": fs("D")})
        assert out.predictions == {"q1": fs("D"), "q2": fs("D")}
        assert out.report.converged


CASCADE_QUESTIONS = [
    make_question(qid="q1", topic=7, event="the plant closed", a="alpha", b="beta", c="gamma", d=NONE_TEXT),
    make_question(qid="q2", topic=7, event="The plant closed.", a="alpha", b="beta", c="gamma", d="zeta"),
    make_question(qid="q3", topic=7, event="the plant closed", a="kappa", b="lambda", c="mu", d=NONE_TEXT),
]
CASCADE_PREDICTIONS = {"q1": fs("D"), "q2": fs("A", "B"), "q3": fs("C", "D")}

# Worked by hand:
#   pass 1: R1 strips the rejection letter from q3 ({C,D} -> {C}); q1 is a
#     rejection-only answer so R6 marks alpha/beta/gamma False and unselects
#     alpha from q2 ({A,B} -> {B}; beta is deferred because removing it would
#     empty q2); R7 finds zeta as q2's only live text and marks it True; R8
#     closes q2 onto zeta's class ({B} -> {D}).
#   pass 2: nothing moves, loop stops.
CASCADE_EXPECTED_PREDICTIONS = {"q1": fs("D"), "q2": fs("D"), "q3": fs("C")}
CASCADE_EXPECTED_RULE_COUNTS = {"R1": 1, "R2": 0, "R3": 0, "R4": 0, "R5": 0, "R6": 1, "R7": 0, "R8": 1}
CASCADE_EXPECTED_ITERATIONS = 2


class TestCascade:
    def test_final_predictions(self):
        out = run_to_fixed_point(CASCADE_QUESTIONS, CASCADE_PREDICTIONS)
        assert out.predictions == CASCADE_EXPECTED_PREDICTIONS

    def test_rule_counts_match_hand_derivation(self):
        out = run_to_fixed_point(CASCADE_QUESTIONS, CASCADE_PREDICTIONS)
        assert out.report.rule_counts == CASCADE_EXPECTED_RULE_COUNTS

    def test_iterations_and_convergence(self):
        out = run_to_fixed_point(CASCADE_QUESTIONS, CASCADE_PREDICTIONS)
        assert out.report.iterations == CASCADE_EXPECTED_ITERATIONS
        assert out.report.converged
        assert out.report.contradictions == []

    def test_change_log_order(self):
        out = run_to_fixed_point(CASCADE_QUESTIONS, CASCADE_PREDICTIONS)
        assert [(c.rule, c.question_id) for c in out.report.changes] == [
            ("R1", "q3"),
            ("R6", "q2"),
            ("R8", "q2"),
        ]

    def test_cap_below_need_reports_non_convergence(self):
        out = run_to_fixed_point(CASCADE_QUESTIONS, CASCADE_PREDICTIONS, max_iterations=1)
        assert not out.report.converged
        assert out.report.iterations == 1


class TestEngineProperties:
    def _run_random(self, seed: int, n_groups: int):
        rng = random.Random(seed)
        questions = []
        preds = {}
        for g in range(n_groups):
            qs, ps = random_sibling_group(rng, g)
            questions.extend(qs)
            preds.update(ps)
        return questions, preds, run_to_fixed_point(questions, preds)

    def test_random_groups_converge_within_cap(self):
        for seed in range(20):
            _, _, out = self._run_random(seed, 15)
            assert out.report.converged
            assert out.report.iterations <= 10

    def test_random_groups_output_validity(self):
        for seed in range(20):
            questions, _, out = self._run_random(seed, 15)
            assert output_validity_violations(questions, out.predictions) == []

    def test_idempotent_on_own_output(self):
        for seed in range(10):
            questions, _, first = self._run_random(seed, 10)
            second = run_to_fixed_point(questions, first.predictions)
            assert second.predictions == first.predictions

    def test_truth_is_monotone(self):
        for seed in range(10):
            _, _, out = self._run_random(seed, 10)
            seen: dict[tuple, bool] = {}
            for t in out.report.truth_log:
                key = (t.group_key, t.text)
                assert key not in seen
                seen[key] = t.new

    def test_each_question_normalized_once(self, monkeypatch):
        # the target event and the four option texts of each question, once,
        # however many passes and rules run
        normalized: list[str] = []
        normalize_text = corpus.normalize_text
        for module in (consist, corpus):
            monkeypatch.setattr(
                module, "normalize_text", lambda text: normalized.append(text) or normalize_text(text)
            )
        questions, _, out = self._run_random(7, 15)
        assert out.report.iterations >= 2
        assert len(normalized) == 5 * len(questions)
        assert sorted(normalized) == sorted(t for q in questions for t in (q.target_event, *q.options.values()))

    def test_deterministic(self):
        questions, preds, first = self._run_random(42, 12)
        second = run_to_fixed_point(questions, preds)
        assert second.predictions == first.predictions
        assert [vars(c) for c in second.report.changes] == [
            vars(c) for c in first.report.changes
        ]


class TestLocalNormalize:
    def test_rejection_mix_then_class_closure(self):
        q = make_question(a="x", b="x", d=NONE_TEXT)
        assert local_normalize(q, fs("A", "D")) == fs("A", "B")

    def test_valid_input_untouched(self):
        q = make_question(d=NONE_TEXT)
        assert local_normalize(q, fs("B", "C")) == fs("B", "C")


class TestOutputValidity:
    def test_clean_predictions_pass(self):
        q = make_question(qid="q1", d=NONE_TEXT)
        assert output_validity_violations([q], {"q1": fs("A", "B")}) == []
        assert output_validity_violations([q], {"q1": fs("D")}) == []

    def test_missing_and_empty(self):
        q = make_question(qid="q1")
        assert output_validity_violations([q], {}) == ["q1: missing prediction"]
        assert "q1: empty prediction" in output_validity_violations([q], {"q1": fs()})

    def test_mixed_rejection_flagged(self):
        q = make_question(qid="q1", d=NONE_TEXT)
        problems = output_validity_violations([q], {"q1": fs("A", "D")})
        assert any("rejection" in p for p in problems)

    def test_partial_duplicate_class_flagged(self):
        q = make_question(qid="q1", a="x", c="x")
        problems = output_validity_violations([q], {"q1": fs("A")})
        assert any("duplicate class" in p for p in problems)

    def test_letters_outside_range_flagged(self):
        q = make_question(qid="q1")
        problems = output_validity_violations([q], {"q1": fs("A", "Z")})
        assert any("outside" in p for p in problems)
