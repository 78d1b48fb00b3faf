"""Scoring and analysis: the partial-credit metric, inter-model agreement
statistics (Fleiss kappa, Cohen kappa, Krippendorff alpha), per-question
oracle selection, and selection-bias counts."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import AbstractSet, Callable, Hashable, Mapping, Sequence

from .corpus import LETTERS, EvalError

_LETTER_SET = frozenset(LETTERS)


def score_question(pred: AbstractSet[str], gold: AbstractSet[str]) -> float:
    """1.0 for an exact match, 0.5 for a non-empty proper subset of the gold
    set, 0.0 otherwise. Supersets and partial overlaps earn nothing. An empty
    gold set is a data error."""
    pred = frozenset(pred)
    gold = frozenset(gold)
    if not gold:
        raise EvalError("gold answer set is empty")
    if not gold <= _LETTER_SET or not pred <= _LETTER_SET:
        raise EvalError(f"letters outside A-D: pred={sorted(pred)} gold={sorted(gold)}")
    if pred == gold:
        return 1.0
    if pred and pred < gold:
        return 0.5
    return 0.0


@dataclass
class CardinalitySlice:
    count: int
    mean_score: float
    exact_rate: float


@dataclass
class ScoreReport:
    mean: float
    n: int
    exact: int
    partial: int
    zero: int
    per_question: dict[str, float]
    missing_prediction_ids: list[str]
    extra_prediction_ids: list[str]
    single: CardinalitySlice
    multi: CardinalitySlice
    exact_gap: float


def _slice(scores: list[float]) -> CardinalitySlice:
    if not scores:
        return CardinalitySlice(count=0, mean_score=0.0, exact_rate=0.0)
    return CardinalitySlice(
        count=len(scores),
        mean_score=sum(scores) / len(scores),
        exact_rate=sum(1 for s in scores if s == 1.0) / len(scores),
    )


def score_run(
    predictions: Mapping[str, AbstractSet[str]],
    golds: Mapping[str, AbstractSet[str]],
) -> ScoreReport:
    """Unweighted mean of per-question scores over the gold set. Questions
    without a prediction score 0 and are flagged; predictions without a gold
    question are flagged and ignored."""
    if not golds:
        raise EvalError("no gold answers to score against")
    per_question: dict[str, float] = {}
    missing: list[str] = []
    single_scores: list[float] = []
    multi_scores: list[float] = []
    for qid, gold in golds.items():
        pred = predictions.get(qid)
        if pred is None:
            missing.append(qid)
            score = 0.0
        else:
            score = score_question(pred, gold)
        per_question[qid] = score
        (single_scores if len(gold) == 1 else multi_scores).append(score)
    extra = sorted(set(predictions) - set(golds))
    scores = list(per_question.values())
    single = _slice(single_scores)
    multi = _slice(multi_scores)
    return ScoreReport(
        mean=sum(scores) / len(scores),
        n=len(scores),
        exact=sum(1 for s in scores if s == 1.0),
        partial=sum(1 for s in scores if s == 0.5),
        zero=sum(1 for s in scores if s == 0.0),
        per_question=per_question,
        missing_prediction_ids=missing,
        extra_prediction_ids=extra,
        single=single,
        multi=multi,
        exact_gap=single.exact_rate - multi.exact_rate,
    )


def fleiss_kappa(items: Sequence[Counter]) -> float:
    """Fleiss kappa over items given as counts of ratings per category; every
    item needs the same number of ratings (>= 2). Perfect agreement with a
    degenerate expected rate returns 1.0."""
    if not items:
        raise EvalError("no items to rate")
    n_raters = items[0].total()
    if n_raters < 2:
        raise EvalError("need at least two raters")
    if any(counts.total() != n_raters for counts in items):
        raise EvalError("every item needs the same number of ratings")
    category_totals: Counter = Counter()
    p_bar_sum = 0.0
    for counts in items:
        category_totals.update(counts)
        p_bar_sum += (sum(c * c for c in counts.values()) - n_raters) / (
            n_raters * (n_raters - 1)
        )
    p_bar = p_bar_sum / len(items)
    total = len(items) * n_raters
    p_e = sum((c / total) ** 2 for c in category_totals.values())
    if p_e >= 1.0:
        return 1.0
    return (p_bar - p_e) / (1.0 - p_e)


def cohen_kappa(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    if len(a) != len(b) or not a:
        raise EvalError("raters must rate the same non-empty items")
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    freq_a = Counter(a)
    freq_b = Counter(b)
    p_e = sum(freq_a[c] * freq_b.get(c, 0) for c in freq_a) / (n * n)
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def jaccard_distance(a: AbstractSet[str], b: AbstractSet[str]) -> float:
    union = frozenset(a) | frozenset(b)
    if not union:
        return 0.0
    return 1.0 - len(frozenset(a) & frozenset(b)) / len(union)


def _pair_sum(counts: Counter, distance: Callable[[AbstractSet[str], AbstractSet[str]], float]) -> float:
    """The sum of n_a * n_b * distance(a, b) over ordered pairs of distinct values."""
    total = 0.0
    for (a, n_a), (b, n_b) in permutations(counts.items(), 2):
        total += n_a * n_b * distance(a, b)
    return total


def krippendorff_alpha(units: Sequence[Counter], metric: str = "nominal") -> float:
    """alpha = 1 - observed/expected disagreement over units given as counts of
    ratings per value; units of fewer than two ratings are skipped. Each is a
    pair sum over distinct values, so nominal's distance is 1: a unit's over its
    ratings - 1, then the pooled count's; O(sum d_u^2 + V^2) distances."""
    distance = {"nominal": lambda a, b: 1.0, "jaccard": jaccard_distance}.get(metric)
    if distance is None:
        raise EvalError(f"unknown distance metric {metric!r}")
    pairable = [unit for unit in units if unit.total() >= 2]
    if not pairable:
        raise EvalError("no unit has two or more ratings")
    n_values = sum(unit.total() for unit in pairable)
    pooled: Counter = Counter()
    d_o = 0.0
    for unit in pairable:
        pooled.update(unit)
        if len(unit) > 1:  # one distinct value adds exactly 0.0
            d_o += _pair_sum(unit, distance) / (unit.total() - 1)
    d_o /= n_values
    d_e = _pair_sum(pooled, distance) / (n_values * (n_values - 1))
    if d_e == 0.0:
        return 1.0
    return 1.0 - d_o / d_e


@dataclass
class AgreementReport:
    models: list[str]
    n_questions: int
    fleiss: float
    kripp_nominal: float
    kripp_jaccard: float
    pairwise_cohen: dict[str, dict[str, float]]
    unanimous_rate: float
    per_topic_fleiss: dict[int, float]

    def to_json(self) -> dict:
        return {
            "models": list(self.models),
            "n_questions": self.n_questions,
            "fleiss": self.fleiss,
            "kripp_nominal": self.kripp_nominal,
            "kripp_jaccard": self.kripp_jaccard,
            "pairwise_cohen": {a: dict(row) for a, row in self.pairwise_cohen.items()},
            "unanimous_rate": self.unanimous_rate,
            "per_topic_fleiss": {str(t): v for t, v in self.per_topic_fleiss.items()},
        }


def agreement_report(
    model_preds: Mapping[str, Mapping[str, AbstractSet[str]]],
    topics: Mapping[str, int] | None = None,
) -> AgreementReport:
    """Agreement statistics over the questions every model answered."""
    models = sorted(model_preds)
    if len(models) < 2:
        raise EvalError("need at least two models to measure agreement")
    common = set.intersection(*(set(model_preds[m]) for m in models))
    qids = sorted(common)
    if not qids:
        raise EvalError("models share no questions")
    sets = [[frozenset(model_preds[m][qid]) for m in models] for qid in qids]
    counts = [Counter(row) for row in sets]  # every statistic but Cohen's reads these
    columns = dict(zip(models, zip(*sets)))
    pairwise: dict[str, dict[str, float]] = {m: {} for m in models}
    for i, a in enumerate(models):
        for b in models[i:]:
            value = 1.0 if a == b else cohen_kappa(columns[a], columns[b])
            pairwise[a][b] = value
            pairwise[b][a] = value
    unanimous = sum(1 for c in counts if len(c) == 1) / len(counts)
    per_topic: dict[int, float] = {}
    if topics:
        by_topic: dict[int, list[Counter]] = {}
        for qid, c in zip(qids, counts):
            topic = topics.get(qid)
            if topic is not None:
                by_topic.setdefault(topic, []).append(c)
        for topic in sorted(by_topic):
            per_topic[topic] = fleiss_kappa(by_topic[topic])
    return AgreementReport(
        models=models,
        n_questions=len(qids),
        fleiss=fleiss_kappa(counts),
        kripp_nominal=krippendorff_alpha(counts, "nominal"),
        kripp_jaccard=krippendorff_alpha(counts, "jaccard"),
        pairwise_cohen=pairwise,
        unanimous_rate=unanimous,
        per_topic_fleiss=per_topic,
    )


@dataclass
class OracleReport:
    mean: float
    per_question: dict[str, tuple[str, float]]
    model_means: dict[str, float]

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "per_question": {qid: {"model": m, "score": s} for qid, (m, s) in self.per_question.items()},
            "model_means": dict(self.model_means),
        }


def oracle_report(
    model_preds: Mapping[str, Mapping[str, AbstractSet[str]]],
    golds: Mapping[str, AbstractSet[str]],
) -> OracleReport:
    """Per question, the best score any model achieved (ties go to the first
    model in sorted name order)."""
    if not model_preds:
        raise EvalError("no models")
    models = sorted(model_preds)
    runs = {m: score_run(model_preds[m], golds) for m in models}
    best = {qid: max(models, key=lambda m: runs[m].per_question[qid]) for qid in golds}
    per_question = {qid: (m, runs[m].per_question[qid]) for qid, m in best.items()}
    model_means = {m: runs[m].mean for m in models}
    mean = sum(s for _, s in per_question.values()) / len(per_question) if per_question else 0.0
    return OracleReport(mean=mean, per_question=per_question, model_means=model_means)


@dataclass
class BiasReport:
    n_pairs: int
    under_selection: int
    over_selection: int
    mean_pred_cardinality: float
    mean_gold_cardinality: float


def bias_stats(
    model_preds: Mapping[str, Mapping[str, AbstractSet[str]]],
    golds: Mapping[str, AbstractSet[str]],
) -> BiasReport:
    """Counts under- and over-selection events per (model, question) pair
    with a gold answer: one each for a pair that misses or adds any letter."""
    under = 0
    over = 0
    pred_cards: list[int] = []
    gold_cards: list[int] = []
    for m in sorted(model_preds):
        for qid, pred in model_preds[m].items():
            if qid not in golds:
                continue
            gold = frozenset(golds[qid])
            pred = frozenset(pred)
            under += 1 if gold - pred else 0
            over += 1 if pred - gold else 0
            pred_cards.append(len(pred))
            gold_cards.append(len(gold))
    n = len(pred_cards)
    return BiasReport(
        n_pairs=n,
        under_selection=under,
        over_selection=over,
        mean_pred_cardinality=sum(pred_cards) / n if n else 0.0,
        mean_gold_cardinality=sum(gold_cards) / n if n else 0.0,
    )
