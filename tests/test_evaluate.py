from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway import cli, evaluate
from causeway.corpus import LETTERS
from causeway.evaluate import (
    EvalError,
    agreement_report,
    bias_stats,
    cohen_kappa,
    fleiss_kappa,
    jaccard_distance,
    krippendorff_alpha,
    oracle_report,
    score_question,
    score_run,
)
from helpers import (
    METRIC_CASES,
    cohen_reference,
    counted,
    fleiss_reference,
    krippendorff_reference,
    rating_units,
)


class TestScoreQuestion:
    @pytest.mark.parametrize("pred,gold,expected", METRIC_CASES)
    def test_hand_scored_table(self, pred, gold, expected):
        assert score_question(pred, gold) == expected

    def test_table_covers_all_outcomes(self):
        values = [case[2] for case in METRIC_CASES]
        assert len(METRIC_CASES) == 20
        assert values.count(1.0) == 5
        assert values.count(0.5) == 5
        assert values.count(0.0) == 10

    def test_empty_gold_is_an_error(self):
        with pytest.raises(EvalError):
            score_question({"A"}, set())

    def test_letters_outside_range(self):
        with pytest.raises(EvalError):
            score_question({"E"}, {"A"})
        with pytest.raises(EvalError):
            score_question({"A"}, {"Z"})


class TestScoreRun:
    def _golds(self):
        return {
            "q1": frozenset({"A"}),
            "q2": frozenset({"A", "B"}),
            "q3": frozenset({"C"}),
            "q4": frozenset({"B", "D"}),
        }

    def test_mean_and_buckets(self):
        preds = {
            "q1": frozenset({"A"}),       # 1.0 single
            "q2": frozenset({"A"}),       # 0.5 multi
            "q3": frozenset({"D"}),       # 0.0 single
            "q4": frozenset({"B", "D"}),  # 1.0 multi
        }
        report = score_run(preds, self._golds())
        assert report.mean == pytest.approx(2.5 / 4)
        assert report.n == 4
        assert report.exact == 2
        assert report.partial == 1
        assert report.zero == 1
        assert report.per_question["q2"] == 0.5

    def test_missing_prediction_scores_zero_and_flagged(self):
        preds = {"q1": frozenset({"A"})}
        report = score_run(preds, self._golds())
        assert report.per_question["q2"] == 0.0
        assert sorted(report.missing_prediction_ids) == ["q2", "q3", "q4"]
        assert report.mean == pytest.approx(0.25)

    def test_extra_predictions_flagged_not_scored(self):
        preds = {
            "q1": frozenset({"A"}),
            "q2": frozenset({"A", "B"}),
            "q3": frozenset({"C"}),
            "q4": frozenset({"B", "D"}),
            "zz": frozenset({"A"}),
        }
        report = score_run(preds, self._golds())
        assert report.extra_prediction_ids == ["zz"]
        assert report.n == 4

    def test_cardinality_slices_and_gap(self):
        preds = {
            "q1": frozenset({"A"}),       # single exact
            "q3": frozenset({"C"}),       # single exact
            "q2": frozenset({"C"}),       # multi zero
            "q4": frozenset({"B"}),       # multi partial
        }
        report = score_run(preds, self._golds())
        assert report.single.count == 2
        assert report.single.exact_rate == 1.0
        assert report.multi.count == 2
        assert report.multi.exact_rate == 0.0
        assert report.multi.mean_score == pytest.approx(0.25)
        assert report.exact_gap == pytest.approx(1.0)

    def test_empty_golds_rejected(self):
        with pytest.raises(EvalError):
            score_run({}, {})

    def test_report_serializes(self):
        report = score_run({"q1": frozenset({"A"})}, {"q1": frozenset({"A"})})
        data = json.loads(cli._dump(report))
        assert data["mean"] == 1.0
        assert data["single"]["count"] == 1


class TestCanonicalCategory:
    def test_sorted_join(self):
        assert json.loads(cli._dump({"C", "A"})) == "A,C"
        assert json.loads(cli._dump({"D"})) == "D"
        assert json.loads(cli._dump(set())) == ""


def _random_table(rng: random.Random, n_items: int, n_raters: int, n_cats: int):
    cats = [f"c{i}" for i in range(n_cats)]
    return [[rng.choice(cats) for _ in range(n_raters)] for _ in range(n_items)]


class TestFleissKappa:
    def test_matches_reference_on_random_tables(self):
        rng = random.Random(11)
        for _ in range(50):
            table = _random_table(rng, rng.randint(2, 30), rng.randint(2, 6), rng.randint(2, 5))
            assert fleiss_kappa(counted(table)) == pytest.approx(fleiss_reference(table), abs=1e-12)

    def test_identical_raters_give_one(self):
        table = [["A"] * 4, ["B,C"] * 4, ["A"] * 4]
        assert fleiss_kappa(counted(table)) == 1.0

    def test_single_category_degenerate(self):
        assert fleiss_kappa(counted([["A", "A"], ["A", "A"]])) == 1.0

    def test_total_disagreement_is_negative(self):
        table = [["A", "B"], ["B", "A"], ["A", "B"], ["B", "A"]]
        assert fleiss_kappa(counted(table)) < 0.0

    def test_ragged_rows_rejected(self):
        with pytest.raises(EvalError):
            fleiss_kappa(counted([["A", "B"], ["A"]]))

    def test_single_rater_rejected(self):
        with pytest.raises(EvalError):
            fleiss_kappa(counted([["A"], ["B"]]))

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            fleiss_kappa(counted([]))


class TestCohenKappa:
    def test_matches_reference_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 60)
            cats = [f"c{i}" for i in range(rng.randint(2, 5))]
            a = [rng.choice(cats) for _ in range(n)]
            b = [rng.choice(cats) for _ in range(n)]
            assert cohen_kappa(a, b) == pytest.approx(cohen_reference(a, b), abs=1e-12)

    def test_perfect_agreement(self):
        assert cohen_kappa(["x", "y", "x"], ["x", "y", "x"]) == 1.0

    def test_balanced_disagreement_is_zero(self):
        assert cohen_kappa(["x", "x", "y", "y"], ["x", "y", "x", "y"]) == pytest.approx(0.0)

    def test_constant_raters_degenerate(self):
        assert cohen_kappa(["x", "x"], ["x", "x"]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
            cohen_kappa(["x"], ["x", "y"])

    def test_independent_raters_near_zero(self):
        rng = random.Random(1009)
        cats = ["A", "B", "A,C", "D"]
        a = [rng.choice(cats) for _ in range(1000)]
        b = [rng.choice(cats) for _ in range(1000)]
        assert abs(cohen_kappa(a, b)) < 0.1


class TestJaccardDistance:
    def test_cases(self):
        assert jaccard_distance({"A"}, {"A"}) == 0.0
        assert jaccard_distance({"A"}, {"B"}) == 1.0
        assert jaccard_distance({"A", "B"}, {"B", "C"}) == pytest.approx(2 / 3)
        assert jaccard_distance(set(), set()) == 0.0
        assert jaccard_distance({"A"}, set()) == 1.0


class TestKrippendorffAlpha:
    def _random_units(self, rng: random.Random, missing: bool):
        letters = ["A", "B", "C", "D"]
        units = []
        for _ in range(rng.randint(3, 25)):
            n_ratings = rng.randint(1 if missing else 2, 5)
            unit = [
                frozenset(rng.sample(letters, rng.randint(1, 3))) for _ in range(n_ratings)
            ]
            units.append(unit)
        if all(len(u) < 2 for u in units):
            units.append([frozenset({"A"}), frozenset({"B"})])
        return units

    @pytest.mark.parametrize("metric", ["nominal", "jaccard"])
    def test_matches_reference(self, metric):
        rng = random.Random(17)
        for _ in range(40):
            units = self._random_units(rng, missing=False)
            got = krippendorff_alpha(counted(units), metric)
            want = krippendorff_reference(units, metric)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("metric", ["nominal", "jaccard"])
    def test_units_with_single_rating_excluded(self, metric):
        rng = random.Random(19)
        for _ in range(20):
            units = self._random_units(rng, missing=True)
            got = krippendorff_alpha(counted(units), metric)
            want = krippendorff_reference(units, metric)
            assert got == pytest.approx(want, abs=1e-12)

    @given(rating_units(), st.sampled_from(["nominal", "jaccard"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_repeated_values(self, units, metric):
        got = krippendorff_alpha(counted(units), metric)
        want = krippendorff_reference(units, metric)
        if metric == "nominal":
            assert got == want
        else:
            assert got == pytest.approx(want, abs=1e-12)
        if len({value for unit in units if len(unit) >= 2 for value in unit}) == 1:
            assert got == 1.0

    def test_expected_disagreement_pairs_distinct_values(self, monkeypatch):
        calls = 0
        real = evaluate.jaccard_distance

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(evaluate, "jaccard_distance", counting)
        rng = random.Random(23)
        values = [frozenset(x for i, x in enumerate(LETTERS) if mask >> i & 1) for mask in range(16)]
        units = [[rng.choice(values), rng.choice(values)] for _ in range(1500)]
        krippendorff_alpha(counted(units), "jaccard")
        # each unit pairs its d_u distinct values, the pooled count its V
        per_unit = sum(len(set(u)) * (len(set(u)) - 1) for u in units)
        distinct = len({value for unit in units for value in unit})
        assert calls == per_unit + distinct * (distinct - 1)

    def test_identical_ratings_give_one(self):
        units = [[frozenset({"A"})] * 3, [frozenset({"B", "C"})] * 3]
        assert krippendorff_alpha(counted(units), "nominal") == 1.0
        assert krippendorff_alpha(counted(units), "jaccard") == 1.0

    def test_no_pairable_units_rejected(self):
        with pytest.raises(EvalError):
            krippendorff_alpha(counted([[frozenset({"A"})]]), "nominal")

    def test_unknown_metric_rejected(self):
        with pytest.raises(EvalError):
            krippendorff_alpha(counted([[frozenset({"A"}), frozenset({"B"})]]), "cosine")

    def test_jaccard_le_nominal_disagreement(self):
        # jaccard gives partial credit for overlap, so alpha should not be
        # lower than nominal when ratings overlap but differ
        units = [
            [frozenset({"A", "B"}), frozenset({"A"})],
            [frozenset({"C"}), frozenset({"C"})],
            [frozenset({"B"}), frozenset({"B"})],
        ]
        assert krippendorff_alpha(counted(units), "jaccard") >= krippendorff_alpha(counted(units), "nominal")


class TestAgreementReport:
    def _preds(self):
        return {
            "m2": {"q1": {"A"}, "q2": {"B"}, "q3": {"A", "C"}},
            "m1": {"q1": {"A"}, "q2": {"B"}, "q3": {"A", "C"}},
            "m3": {"q1": {"A"}, "q2": {"D"}, "q3": {"C"}},
        }

    def test_models_sorted_and_shape(self):
        report = agreement_report(self._preds())
        assert report.models == ["m1", "m2", "m3"]
        assert report.n_questions == 3
        assert report.pairwise_cohen["m1"]["m1"] == 1.0
        assert report.pairwise_cohen["m1"]["m3"] == report.pairwise_cohen["m3"]["m1"]

    def test_identical_models_agree_perfectly(self):
        preds = {"m1": {"q1": {"A"}, "q2": {"B", "C"}}, "m2": {"q1": {"A"}, "q2": {"B", "C"}}}
        report = agreement_report(preds)
        assert report.fleiss == 1.0
        assert report.kripp_nominal == 1.0
        assert report.kripp_jaccard == 1.0
        assert report.unanimous_rate == 1.0

    def test_unanimous_rate_counts_full_agreement_only(self):
        report = agreement_report(self._preds())
        assert report.unanimous_rate == pytest.approx(1 / 3)

    def test_restricted_to_common_questions(self):
        preds = self._preds()
        preds["m1"] = dict(preds["m1"])
        del preds["m1"]["q3"]
        report = agreement_report(preds)
        assert report.n_questions == 2

    def test_per_topic_fleiss(self):
        topics = {"q1": 1, "q2": 1, "q3": 2}
        report = agreement_report(self._preds(), topics=topics)
        assert set(report.per_topic_fleiss) == {1, 2}

    def test_single_model_rejected(self):
        with pytest.raises(EvalError):
            agreement_report({"m1": {"q1": {"A"}}})

    def test_disjoint_questions_rejected(self):
        with pytest.raises(EvalError):
            agreement_report({"m1": {"q1": {"A"}}, "m2": {"q2": {"A"}}})

    def test_serializes(self):
        data = agreement_report(self._preds()).to_json()
        assert data["models"] == ["m1", "m2", "m3"]
        assert "fleiss" in data

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_references_on_2_to_14_models(self, data):
        pool = data.draw(st.lists(st.frozensets(st.sampled_from(LETTERS)), min_size=1, max_size=6, unique=True))
        n_models = data.draw(st.integers(2, 14))
        qids = [f"q{i:02d}" for i in range(data.draw(st.integers(1, 12)))]  # agreement_report sorts them
        rows = [data.draw(st.lists(st.sampled_from(pool), min_size=n_models, max_size=n_models)) for _ in qids]
        topics = {qid: data.draw(st.integers(1, 3)) for qid in qids}
        models = [f"m{j:02d}" for j in range(n_models)]
        preds = {m: {qid: row[j] for qid, row in zip(qids, rows)} for j, m in enumerate(models)}
        report = agreement_report(preds, topics)
        names = [[",".join(sorted(value)) for value in row] for row in rows]
        assert report.fleiss == pytest.approx(fleiss_reference(names), abs=1e-12)
        assert report.kripp_nominal == krippendorff_reference(rows, "nominal")
        assert report.kripp_jaccard == pytest.approx(krippendorff_reference(rows, "jaccard"), abs=1e-12)
        assert report.unanimous_rate == sum(1 for row in rows if len(set(row)) == 1) / len(rows)
        by_topic = {t: [r for qid, r in zip(qids, names) if topics[qid] == t] for t in set(topics.values())}
        assert report.per_topic_fleiss.keys() == by_topic.keys()
        for topic, table in by_topic.items():
            assert report.per_topic_fleiss[topic] == pytest.approx(fleiss_reference(table), abs=1e-12)


class TestOracleReport:
    def test_picks_best_per_question(self):
        golds = {"q1": {"A", "B"}, "q2": {"C"}}
        preds = {
            "m1": {"q1": {"A"}, "q2": {"D"}},   # 0.5, 0.0
            "m2": {"q1": {"C"}, "q2": {"C"}},   # 0.0, 1.0
        }
        report = oracle_report(preds, golds)
        assert report.per_question["q1"] == ("m1", 0.5)
        assert report.per_question["q2"] == ("m2", 1.0)
        assert report.mean == pytest.approx(0.75)
        assert report.model_means["m1"] == pytest.approx(0.25)
        assert report.model_means["m2"] == pytest.approx(0.5)

    def test_tie_goes_to_first_sorted_model(self):
        golds = {"q1": {"A"}}
        preds = {"mB": {"q1": {"A"}}, "mA": {"q1": {"A"}}}
        report = oracle_report(preds, golds)
        assert report.per_question["q1"] == ("mA", 1.0)

    def test_oracle_dominates_every_model(self):
        rng = random.Random(23)
        letters = ["A", "B", "C", "D"]
        for _ in range(30):
            golds = {
                f"q{i}": frozenset(rng.sample(letters, rng.randint(1, 3)))
                for i in range(rng.randint(3, 20))
            }
            preds = {
                f"m{j}": {
                    qid: frozenset(rng.sample(letters, rng.randint(1, 3))) for qid in golds
                }
                for j in range(rng.randint(2, 5))
            }
            report = oracle_report(preds, golds)
            for m, mean in report.model_means.items():
                assert report.mean >= mean - 1e-12

    def test_missing_prediction_scores_zero(self):
        golds = {"q1": {"A"}, "q2": {"B"}}
        preds = {"m1": {"q1": {"A"}}}
        report = oracle_report(preds, golds)
        assert report.per_question["q2"] == ("m1", 0.0)


class TestBiasStats:
    def test_under_and_over_events(self):
        golds = {"q1": {"A", "B"}, "q2": {"B"}, "q3": {"C"}}
        preds = {
            "m1": {
                "q1": {"A"},        # under by one letter
                "q2": {"A", "B"},   # over by one letter
                "q3": {"C"},        # exact
            }
        }
        report = bias_stats(preds, golds)
        assert report.n_pairs == 3
        assert report.under_selection == 1
        assert report.over_selection == 1
        assert report.mean_pred_cardinality == pytest.approx(4 / 3)
        assert report.mean_gold_cardinality == pytest.approx(4 / 3)

    def test_one_event_per_pair_however_many_letters(self):
        golds = {"q1": {"B", "C", "D"}}
        preds = {"m1": {"q1": {"A"}}}
        report = bias_stats(preds, golds)
        assert report.under_selection == 1
        assert report.over_selection == 1

    def test_questions_without_gold_are_skipped(self):
        golds = {"q2": {"B"}}
        preds = {"m1": {"q1": {"B"}, "q2": {"A", "B"}}}
        report = bias_stats(preds, golds)
        assert report.n_pairs == 1
        assert report.over_selection == 1

    def test_multiple_models_accumulate(self):
        golds = {"q1": {"A"}}
        preds = {"m1": {"q1": {"A", "B"}}, "m2": {"q1": {"A", "C"}}}
        report = bias_stats(preds, golds)
        assert report.n_pairs == 2
        assert report.over_selection == 2
