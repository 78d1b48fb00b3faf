"""Deterministic post-hoc consistency enforcement over sibling questions.

Eight rules run in a fixed order, over and over, until a full pass changes
nothing. Shared option texts carry three-valued truth (True, False, Unknown)
that only ever hardens from Unknown; conflicting evidence is recorded as a
contradiction and never applied. A pass that moves a prediction or marks a
text's truth is a change.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .corpus import LETTERS, QuestionRecord, sibling_groups
from .corpus import normalize_text  # noqa: F401 (bench/layers.py traces consist.normalize_text)

logger = logging.getLogger(__name__)

RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8")

FULL_SET = frozenset(LETTERS)


class ConsistError(ValueError):
    pass


@dataclass(frozen=True)
class ChangeRecord:
    question_id: str
    rule: str
    before: frozenset[str]
    after: frozenset[str]
    iteration: int


@dataclass(frozen=True)
class Contradiction:
    rule: str
    question_id: str
    text: str
    detail: str


@dataclass(frozen=True)
class TruthTransition:
    group_key: tuple[int, str]
    text: str
    new: bool
    rule: str
    iteration: int


@dataclass
class FixedPointReport:
    iterations: int
    converged: bool
    changes: list[ChangeRecord]
    rule_counts: dict[str, int]
    contradictions: list[Contradiction]
    truth_log: list[TruthTransition] = field(default_factory=list)


@dataclass
class ConsistencyOutcome:
    predictions: dict[str, frozenset[str]]
    report: FixedPointReport


def is_none_only(q: QuestionRecord, pred: frozenset[str]) -> bool:
    return bool(pred) and pred <= q.none_letters


def r1(q: QuestionRecord, pred: frozenset[str]) -> frozenset[str]:
    """A rejection option cannot coexist with substantive picks; the
    substantive side wins."""
    if pred & q.none_letters and pred - q.none_letters:
        return pred - q.none_letters
    return pred


def r2(q: QuestionRecord, pred: frozenset[str]) -> frozenset[str]:
    """Selecting one member of a duplicate class selects the whole class."""
    out = set(pred)
    for cls in q.classes:
        if out & cls:
            out |= cls
    return frozenset(out)


def r3(q: QuestionRecord, pred: frozenset[str]) -> frozenset[str]:
    """All four letters selected alongside a rejection option: drop the
    rejection letters."""
    if pred == FULL_SET and q.none_letters and pred - q.none_letters:
        return pred - q.none_letters
    return pred


def r5(q: QuestionRecord, pred: frozenset[str]) -> frozenset[str]:
    """Three identical options all selected: the odd letter out is dropped."""
    out = set(pred)
    for cls in q.classes:
        if len(cls) == 3 and cls <= out:
            out -= FULL_SET - cls
    return frozenset(out)


def local_normalize(q: QuestionRecord, pred: frozenset[str]) -> frozenset[str]:
    """One pass of the per-question rules, used to sanitize a restored
    prediction so it still meets the output contract."""
    return r5(q, r3(q, r2(q, r1(q, pred))))


class TruthAssignment:
    """Monotone truth over one sibling group's substantive option texts.
    Unknown may harden to True or False; a known text keeps its value."""

    def __init__(self, group_key: tuple[int, str]):
        self.group_key = group_key
        self._values: dict[str, bool] = {}
        self.transitions: list[TruthTransition] = []

    def value(self, text: str) -> bool | None:
        return self._values.get(text)

    def mark(self, text: str, value: bool, rule: str, iteration: int) -> bool:
        """Sets an Unknown text to value and returns True; returns False and
        changes nothing when the text is already known. Callers that may
        meet the opposite value record that conflict themselves."""
        if text in self._values:
            return False
        self._values[text] = value
        self.transitions.append(
            TruthTransition(self.group_key, text, value, rule, iteration)
        )
        return True


def seed_truth(
    questions: Sequence[QuestionRecord],
    predictions: Mapping[str, frozenset[str]],
    group_key: tuple[int, str],
) -> TruthAssignment:
    """Initial truth from the predictions: a substantive text selected
    anywhere in the group becomes True, except texts that co-occur with an
    initially selected rejection option. Those stay Unknown; rule R6 decides
    them. Selections are read through one local-rule pass so structural
    artifacts (rejection mixes, incomplete duplicate classes, overselected
    triples) do not seed truth."""
    truth = TruthAssignment(group_key)
    normalized = {q.id: local_normalize(q, predictions.get(q.id, frozenset())) for q in questions}
    blocked: set[str] = set()
    for q in questions:
        if is_none_only(q, normalized[q.id]):
            blocked.update(q.substantive_texts)
    for q in questions:
        for letter in sorted(normalized[q.id] & q.substantive):
            text = q.texts[letter]
            if text not in blocked:
                truth.mark(text, True, "seed", 0)
    return truth


class _Engine:
    def __init__(self, questions: Sequence[QuestionRecord], predictions: Mapping[str, frozenset[str]]):
        self.questions = list(questions)
        by_id = {q.id: q for q in self.questions}
        for qid in predictions:
            if qid not in by_id:
                raise ConsistError(f"prediction for unknown question {qid!r}")
        for q in self.questions:
            pred = predictions.get(q.id)
            if pred is None:
                raise ConsistError(f"missing prediction for question {q.id!r}")
            if not pred or not set(pred) <= set(LETTERS):
                raise ConsistError(f"invalid prediction {sorted(pred)} for question {q.id!r}")
        self.preds: dict[str, frozenset[str]] = {qid: frozenset(p) for qid, p in predictions.items()}
        self.original = dict(self.preds)
        self.frozen: set[str] = set()
        # letters R5 removed; R4 must not reinstate them or the two rules
        # chase each other forever
        self._r5_stripped: set[tuple[str, str]] = set()
        # each sibling group's questions and truth; members pairs every
        # grouped question with its group's truth, in group order
        self.groups: list[tuple[list[QuestionRecord], TruthAssignment]] = []
        for g in sibling_groups(self.questions):
            group = [by_id[qid] for qid in g.question_ids]
            self.groups.append((group, seed_truth(group, self.preds, (g.topic_id, g.event_key))))
        self.members = [(q, truth) for group, truth in self.groups for q in group]
        self.changes: list[ChangeRecord] = []
        self.contradictions: list[Contradiction] = []
        self._seen_contradictions: set[tuple[str, str, str]] = set()
        self.iteration = 0

    def _contradict(self, rule: str, question_id: str, text: str, detail: str) -> None:
        key = (rule, question_id, text)
        if key in self._seen_contradictions:
            return
        self._seen_contradictions.add(key)
        self.contradictions.append(Contradiction(rule, question_id, text, detail))

    def _set_pred(self, qid: str, after: frozenset[str], rule: str, force: bool = False) -> bool:
        if qid in self.frozen and not force:
            return False
        before = self.preds[qid]
        if before == after:
            return False
        if not after:
            raise ConsistError(f"{rule} tried to empty prediction for {qid!r}")
        self.preds[qid] = after
        self.changes.append(ChangeRecord(qid, rule, before, after, self.iteration))
        return True

    # Local rules applied question by question.

    def _apply_local(self, rule_name: str, fn) -> bool:
        changed = False
        for q in self.questions:
            changed |= self._set_pred(q.id, fn(q, self.preds[q.id]), rule_name)
        return changed

    def _apply_r4(self) -> bool:
        changed = False
        for q, truth in self.members:
            pred = self.preds[q.id]
            add = {
                l
                for l in q.substantive
                if l not in pred
                and (q.id, l) not in self._r5_stripped
                and truth.value(q.texts[l]) is True
            }
            if add:
                changed |= self._set_pred(q.id, pred | add, "R4")
        return changed

    def _apply_r5(self) -> bool:
        # The pure rule plus bookkeeping: if the stripped letter's text is
        # True in the group, that conflict is recorded, and the strip is
        # remembered so R4 leaves it out.
        changed = False
        for q, truth in self.members:
            pred = self.preds[q.id]
            after = r5(q, pred)
            for odd in sorted(pred - after):
                if odd in q.substantive and truth.value(q.texts[odd]) is True:
                    self._contradict(
                        "R5", q.id, q.texts[odd], "stripped letter's text is True in the group"
                    )
                self._r5_stripped.add((q.id, odd))
            changed |= self._set_pred(q.id, after, "R5")
        return changed

    def _apply_r6(self) -> bool:
        changed = False
        for group, truth in self.groups:
            # marking: every substantive text of a rejection-only question is False
            for q in group:
                if is_none_only(q, self.preds[q.id]):
                    for text in q.substantive_texts:
                        if truth.value(text) is True:
                            self._contradict(
                                "R6", q.id, text, "text is already True elsewhere in the group"
                            )
                        else:
                            changed |= truth.mark(text, False, "R6", self.iteration)
            # unselection: drop False texts wherever selected, unless that
            # would empty a prediction (deferred to R7/R8)
            for q in group:
                pred = set(self.preds[q.id])
                for text in q.substantive_texts:
                    if truth.value(text) is not False:
                        continue
                    letters = {l for l in q.substantive if q.texts[l] == text and l in pred}
                    if letters and pred - letters:
                        pred -= letters
                if frozenset(pred) != self.preds[q.id]:
                    changed |= self._set_pred(q.id, frozenset(pred), "R6")
        return changed

    def _apply_r7(self) -> bool:
        # touches truth only; predictions follow through R4 and R8
        changed = False
        for q, truth in self.members:
            statuses = {t: truth.value(t) for t in q.substantive_texts}
            non_false = [t for t, s in statuses.items() if s is not False]
            if len(non_false) == 1 and statuses[non_false[0]] is None:
                changed |= truth.mark(non_false[0], True, "R7", self.iteration)
        return changed

    def _apply_r8(self) -> bool:
        changed = False
        for q, truth in self.members:
            candidates = [
                cls
                for cls in q.classes
                if cls & q.none_letters or truth.value(q.texts[next(iter(cls))]) is not False
            ]
            if not candidates:
                # Unsatisfiable question; put the normalized input back
                # and stop touching it so the loop can settle.
                self._contradict(
                    "R8", q.id, "", "every option is False; prediction restored to its input"
                )
                if q.id not in self.frozen:
                    restored = local_normalize(q, self.original[q.id])
                    changed |= self._set_pred(q.id, restored, "R8", force=True)
                    self.frozen.add(q.id)
            elif len(candidates) == 1:
                target = frozenset(candidates[0])
                changed |= self._set_pred(q.id, target, "R8")
        return changed

    def run(self, max_iterations: int = 10) -> ConsistencyOutcome:
        converged = False
        for self.iteration in range(1, max_iterations + 1):
            # a truth mark counts as a change: it can feed R4 on the next
            # pass even when no prediction moved in this one. | runs every rule.
            changed = (
                self._apply_local("R1", r1)
                | self._apply_local("R2", r2)
                | self._apply_local("R3", r3)
                | self._apply_r4()
                | self._apply_r5()
                | self._apply_r6()
                | self._apply_r7()
                | self._apply_r8()
            )
            if not changed:
                converged = True
                break
        if not converged:
            logger.warning("consistency pass hit the iteration cap (%d)", max_iterations)
        # anything still selected against a False text could not be repaired
        for q, truth in self.members:
            for letter in sorted(self.preds[q.id] & q.substantive):
                if truth.value(q.texts[letter]) is False:
                    self._contradict(
                        "R6",
                        q.id,
                        q.texts[letter],
                        "False text still selected after convergence",
                    )
        rule_counts = Counter(change.rule for change in self.changes)
        report = FixedPointReport(
            iterations=self.iteration,
            converged=converged,
            changes=self.changes,
            rule_counts={rule: rule_counts[rule] for rule in RULES},
            contradictions=self.contradictions,
            truth_log=[t for _, truth in self.groups for t in truth.transitions],
        )
        return ConsistencyOutcome(predictions=dict(self.preds), report=report)


def run_to_fixed_point(
    questions: Sequence[QuestionRecord],
    predictions: Mapping[str, frozenset[str]],
    max_iterations: int = 10,
) -> ConsistencyOutcome:
    """Applies R1 through R8 over every question and sibling group until a
    full pass makes no change, or the iteration cap is hit (flagged via
    converged=False)."""
    return _Engine(questions, predictions).run(max_iterations=max_iterations)


def output_validity_violations(
    questions: Sequence[QuestionRecord],
    predictions: Mapping[str, frozenset[str]],
) -> list[str]:
    """Checks the output contract: non-empty subsets of A-D, no rejection
    letter mixed with substantive letters, duplicate classes all-in or
    all-out."""
    problems: list[str] = []
    for q in questions:
        pred = predictions.get(q.id)
        if pred is None:
            problems.append(f"{q.id}: missing prediction")
            continue
        if not pred:
            problems.append(f"{q.id}: empty prediction")
        if not set(pred) <= set(LETTERS):
            problems.append(f"{q.id}: letters outside A-D: {sorted(pred)}")
        if pred & q.none_letters and pred - q.none_letters:
            problems.append(f"{q.id}: rejection letter mixed with substantive letters")
        for cls in q.classes:
            if pred & cls and not cls <= pred:
                problems.append(f"{q.id}: duplicate class {sorted(cls)} partially selected")
    return problems
