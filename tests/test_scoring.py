import json

import numpy as np
import pytest

from syllascore import nn, scoring
from syllascore.dataset import SplitAssignment
from syllascore.errors import DegenerateInput, EmptySession, EmptySplit
from syllascore.nn import TrainTrace
from syllascore.scoring import (EvalGrid, EvalReport, ScoreGrid, ScoreReport, evaluate,
                                pearson, score_session)

TINY = nn.Architecture(input_steps=4, input_dim=2, lstm1_units=2, lstm2_units=2,
                       dense1_units=2, dense2_units=2, output_units=1)


class TestScoreSession:
    def test_constant_half_model(self):
        model = nn.Model(TINY, np.zeros(TINY.param_count))  # outputs 0.5 everywhere
        frags = np.random.default_rng(0).normal(0, 1, (3, 4, 2))
        report = score_session({"sa": nn.forward_batch(model, frags)}, "P", 3)
        assert report.session_score == 0.5
        assert report.syllable_scores == {"sa": 0.5}

    def test_aggregation_is_unweighted_syllable_mean(self):
        scores = {"sa": [1.0], "so": [0.0, 0.0]}
        report = score_session(scores, "P", 3)
        assert report.syllable_scores == {"sa": 1.0, "so": 0.0}
        # three fragments but two syllables: Q is the syllable mean
        assert report.session_score == 0.5
        assert report.n_fragments == 3
        fragment_level = score_session(scores, "P", 3, fragment_mean=True)
        assert fragment_level.session_score == pytest.approx(1.0 / 3.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        scores = {f"s{k}": rng.uniform(0, 1, 4) for k in range(5)}
        base = score_session(scores, "P", 3)
        reordered = {k: scores[k][::-1].copy() for k in reversed(list(scores))}
        again = score_session(reordered, "P", 3)
        assert again.session_score == pytest.approx(base.session_score, rel=1e-12)

    def test_missing_syllables_reported(self):
        report = score_session({"sa": [0.8], "so": []}, "P", 4)
        assert report.missing_syllables == ["so"]
        assert report.n_syllables == 1
        assert report.session_score == pytest.approx(0.8)

    def test_empty_session(self):
        with pytest.raises(EmptySession):
            score_session({"sa": []}, "P", 4)
        with pytest.raises(EmptySession):
            score_session({}, "P", 4)

    def test_scores_in_range(self):
        rng = np.random.default_rng(2)
        params = nn.init_params(TINY, rng) + rng.normal(0, 1, TINY.param_count)
        model = nn.Model(TINY, params)
        frags = rng.normal(0, 5, (6, 4, 2))
        report = score_session({"sa": nn.forward_batch(model, frags)}, "P", 3)
        for scores in report.fragment_scores.values():
            assert all(0.0 <= s <= 1.0 for s in scores)
        assert 0.0 <= report.session_score <= 1.0


class TestEvaluate:
    def _split(self, n_train, n_test):
        return SplitAssignment(np.arange(n_train), np.arange(n_train, n_train + n_test), seed=0)

    def test_perfect_predictor(self):
        p = np.array([0.9, 0.9, 0.1, 0.1, 0.8, 0.2, 0.9, 0.1, 0.7, 0.3])
        y = (p >= 0.5).astype(int)
        report = evaluate(p, y, self._split(8, 2))
        assert report.test_accuracy == 1.0
        assert report.train_accuracy == 1.0

    def test_threshold_ties_classify_as_one(self):
        # constant 0.5 lands exactly on the threshold: prediction is class 1,
        # so accuracy equals class-1 prevalence
        p = np.full(10, 0.5)
        y = np.array([1, 0] * 5)
        report = evaluate(p, y, self._split(6, 4))
        assert report.test_accuracy == 0.5
        assert report.test_per_class == {"0": 0.0, "1": 1.0}

    def test_accuracy_is_exact_fraction(self):
        p = np.array([0.9, 0.1, 0.9, 0.9, 0.2, 0.8, 0.7])
        y = np.array([1, 1, 0, 1, 0, 1, 0])
        report = evaluate(p, y, self._split(4, 3))
        assert report.train_accuracy == 0.5
        assert report.test_accuracy == pytest.approx(2.0 / 3.0)

    def test_empty_test_split(self):
        with pytest.raises(EmptySplit):
            evaluate(np.full(4, 0.5), np.array([1, 0, 1, 0]), self._split(4, 0))


class TestPearson:
    def test_perfect_correlations(self):
        assert pearson((1, 2, 3), (1, 2, 3)) == pytest.approx(1.0, abs=1e-15)
        assert pearson((1, 2, 3), (3, 2, 1)) == pytest.approx(-1.0, abs=1e-15)

    def test_point_biserial_closed_form(self):
        # direct evaluation of the definition: dx.dy / sqrt(dx.dx * dy.dy)
        # = 0.7 / sqrt(0.5) for these values
        got = pearson((0.9, 0.8, 0.2, 0.1), (1, 1, 0, 0))
        assert got == pytest.approx(0.7 / np.sqrt(0.5), rel=1e-14)
        assert got == pytest.approx(0.9899494936611665, rel=1e-12)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            xs = rng.normal(0, rng.uniform(0.1, 5), n)
            ys = rng.normal(0, rng.uniform(0.1, 5), n)
            assert pearson(xs, ys) == pytest.approx(np.corrcoef(xs, ys)[0, 1], abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(0, 1, 30)
        ys = rng.normal(0, 1, 30)
        base = pearson(xs, ys)
        for _ in range(20):
            a = rng.uniform(0.01, 50)
            b = rng.uniform(-100, 100)
            assert pearson(a * xs + b, ys) == pytest.approx(base, abs=1e-12)

    def test_degenerate_and_invalid(self):
        with pytest.raises(DegenerateInput):
            pearson((1.0, 1.0, 1.0), (1, 2, 3))
        with pytest.raises(DegenerateInput):
            pearson((1, 2, 3), (5, 5, 5))
        with pytest.raises(ValueError):
            pearson((1, 2), (1, 2))
        with pytest.raises(ValueError):
            pearson((1, 2, 3), (1, 2))


def _sample_score_report():
    return ScoreReport(
        patient_id="P", session_index=4,
        fragment_scores={"sa": [0.25, 0.75], "so": [1.0]},
        syllable_scores={"sa": 0.5, "so": 1.0},
        session_score=0.75, n_fragments=3, n_syllables=2,
        missing_syllables=["su"],
    )


def _sample_eval_report(cohort="all"):
    return EvalReport(cohort=cohort, n_train=8, n_test=2,
                      train_accuracy=0.875, test_accuracy=0.5,
                      train_per_class={"0": 1.0, "1": 0.75},
                      test_per_class={"0": 0.5, "1": None})


class TestRendering:
    def test_json_round_trip_exact(self):
        trace = TrainTrace(train_loss=[0.69314718055994531, 0.1],
                           train_accuracy=[0.5, 1.0],
                           test_loss=[0.7, 0.2], test_accuracy=[0.5, 0.975])
        for report in (_sample_score_report(), _sample_eval_report(), trace):
            again = scoring.from_json(scoring.to_json(report))
            assert again == report

    def test_json_round_trip_grids(self):
        grid = ScoreGrid(reports=[_sample_score_report()], expert_correlation=0.8625,
                         skipped_sessions=[("P", 5)])
        assert scoring.from_json(scoring.to_json(grid)) == grid
        evals = EvalGrid([_sample_eval_report("all"), _sample_eval_report("sex:m")])
        assert scoring.from_json(scoring.to_json(evals)) == evals

    def test_json_floats_survive_17_digits(self):
        value = 0.1234567890123456789  # more digits than a double holds
        report = _sample_eval_report()
        report.test_accuracy = value
        again = scoring.from_json(scoring.to_json(report))
        assert again.test_accuracy == report.test_accuracy

    def test_trace_csv_row_count(self):
        trace = TrainTrace(train_loss=[0.5] * 7, train_accuracy=[0.9] * 7,
                           test_loss=[0.6] * 7, test_accuracy=[0.8] * 7)
        lines = scoring.to_csv(trace).strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,test_loss,test_accuracy"
        assert len(lines) == 1 + 7

    def test_cohort_grid_text(self):
        reports = EvalGrid([_sample_eval_report(c) for c in
                            ("individual:P1", "sex:m", "sex:f", "all")])
        text = scoring.to_text(reports)
        lines = text.splitlines()
        assert len(lines) == 1 + 4
        assert "train" in lines[0] and "test" in lines[0]
        for line, cohort in zip(lines[1:], ("individual:P1", "sex:m", "sex:f", "all")):
            assert line.startswith(cohort)

    def test_score_csv_levels(self):
        text = scoring.to_csv(_sample_score_report())
        lines = text.strip().splitlines()
        assert lines[0].startswith("level,")
        levels = [line.split(",")[0] for line in lines[1:]]
        assert levels.count("fragment") == 3
        assert levels.count("syllable") == 2
        assert levels.count("session") == 1

    def test_render_dispatch_and_unknown(self):
        report = _sample_eval_report()
        assert scoring.render(report, "json").startswith("{")
        with pytest.raises(ValueError):
            scoring.render(report, "xml")
        with pytest.raises(TypeError):
            scoring.to_json(object())


# One json document of each report kind, with the exact csv and text bytes it
# renders to. Each document is read with from_json and rendered in all three
# formats; json must come back as the same document at indent 1.
RENDERED = {
    "score_report": (
        '{"kind": "score_report", "patient_id": "P001", "session_index": 4,'
        ' "fragment_scores": {"s01": [0.25, 0.7500000000000001], "s02": [1.0]},'
        ' "syllable_scores": {"s01": 0.5, "s02": 1.0}, "session_score": 0.75,'
        ' "n_fragments": 3, "n_syllables": 2, "missing_syllables": ["s03"]}',
        "level,patient_id,session_index,syllable_id,fragment_index,score\n"
        "fragment,P001,4,s01,0,0.25\n"
        "fragment,P001,4,s01,1,0.7500000000000001\n"
        "fragment,P001,4,s02,0,1.0\n"
        "syllable,P001,4,s01,,0.5\n"
        "syllable,P001,4,s02,,1.0\n"
        "session,P001,4,,,0.75\n",
        "patient P001  session 4\n"
        "  s01            0.5000  (2 fragments)\n"
        "  s02            1.0000  (1 fragments)\n"
        "  s03           missing (no fragments after gating)\n"
        "  session score Q = 0.7500 over 2 syllables",
    ),
    "eval_report": (
        '{"kind": "eval_report", "cohort": "individual:P001", "n_train": 8, "n_test": 2,'
        ' "train_accuracy": 0.875, "test_accuracy": 0.5,'
        ' "train_per_class": {"0": 1.0, "1": 0.75}, "test_per_class": {"0": 0.5, "1": null}}',
        "cohort,n_train,n_test,train_accuracy,test_accuracy\n"
        "individual:P001,8,2,0.875,0.5\n",
        "cohort               train     test  n_train  n_test\n"
        "individual:P001      0.875    0.500        8       2",
    ),
    "eval_grid": (
        '{"kind": "eval_grid", "reports": ['
        '{"kind": "eval_report", "cohort": "all", "n_train": 48, "n_test": 12,'
        ' "train_accuracy": 0.9166666666666666, "test_accuracy": 0.8333333333333334,'
        ' "train_per_class": {"0": 1.0, "1": 0.75}, "test_per_class": {"0": 0.5, "1": null}}, '
        '{"kind": "eval_report", "cohort": "sex:m", "n_train": 24, "n_test": 6,'
        ' "train_accuracy": 1.0, "test_accuracy": 0.6666666666666666,'
        ' "train_per_class": {"0": 1.0, "1": 0.75}, "test_per_class": {"0": 0.5, "1": null}}, '
        '{"kind": "eval_report", "cohort": "individual:P001", "n_train": 8, "n_test": 2,'
        ' "train_accuracy": 0.875, "test_accuracy": 0.5,'
        ' "train_per_class": {"0": 1.0, "1": 0.75}, "test_per_class": {"0": 0.5, "1": null}}]}',
        "cohort,n_train,n_test,train_accuracy,test_accuracy\n"
        "all,48,12,0.9166666666666666,0.8333333333333334\n"
        "sex:m,24,6,1.0,0.6666666666666666\n"
        "individual:P001,8,2,0.875,0.5\n",
        "cohort               train     test  n_train  n_test\n"
        "all                  0.917    0.833       48      12\n"
        "sex:m                1.000    0.667       24       6\n"
        "individual:P001      0.875    0.500        8       2",
    ),
    "train_trace": (
        '{"kind": "train_trace", "train_loss": [0.6931471805599453, 0.12345678901234568],'
        ' "train_accuracy": [0.5, 1.0], "test_loss": [0.75, 0.2], "test_accuracy": [0.5, 0.975]}',
        "epoch,train_loss,train_accuracy,test_loss,test_accuracy\n"
        "1,0.6931471805599453,0.5,0.75,0.5\n"
        "2,0.12345678901234568,1.0,0.2,0.975\n",
        " epoch   train_loss  train_accuracy    test_loss  test_accuracy\n"
        "     1      0.69315          0.5000      0.75000         0.5000\n"
        "     2      0.12346          1.0000      0.20000         0.9750",
    ),
    "score_grid": (
        '{"kind": "score_grid", "reports": ['
        '{"kind": "score_report", "patient_id": "P001", "session_index": 4,'
        ' "fragment_scores": {"s01": [0.25, 0.7500000000000001], "s02": [1.0]},'
        ' "syllable_scores": {"s01": 0.5, "s02": 1.0}, "session_score": 0.75,'
        ' "n_fragments": 3, "n_syllables": 2, "missing_syllables": ["s03"]}, '
        '{"kind": "score_report", "patient_id": "P002", "session_index": 3,'
        ' "fragment_scores": {"s01": [0.1]}, "syllable_scores": {"s01": 0.1},'
        ' "session_score": 0.1, "n_fragments": 1, "n_syllables": 1, "missing_syllables": []}],'
        ' "expert_correlation": -0.4082482904638631, "skipped_sessions": [["P001", 5]]}',
        "patient_id,session_index,session_score,n_syllables,n_fragments\n"
        "P001,4,0.75,2,3\n"
        "P002,3,0.1,1,1\n",
        "patient    session   score Q  syllables  fragments\n"
        "P001             4    0.7500          2          3\n"
        "P002             3    0.1000          1          1\n"
        "P001             5   missing (no fragments)\n"
        "correlation with expert marks: -0.4082",
    ),
}


@pytest.mark.parametrize("kind", sorted(RENDERED))
def test_rendered_bytes_of_every_kind(kind):
    doc, csv_text, text = RENDERED[kind]
    report = scoring.from_json(doc)
    assert scoring.render(report, "json") == json.dumps(json.loads(doc), indent=1)
    assert scoring.render(report, "csv") == csv_text
    assert scoring.render(report, "text") == text


class TestTrainTestConsistency:
    def test_train_accuracy_tracks_test_accuracy(self, small_corpus):
        """No pathological split artifacts on the synthetic corpus, 10 seeds."""
        from syllascore import corpus
        from syllascore.dataset import split_fragments
        from syllascore.dsp import DspConfig

        _, manifest, _ = small_corpus
        X, y, _ = corpus.collect_training_fragments(manifest, DspConfig())
        arch = nn.Architecture(lstm1_units=32, lstm2_units=16, dense1_units=8, dense2_units=4)
        for seed in range(10):
            split = split_fragments(len(y), y, ratio=0.8, seed=seed)
            model, _ = nn.train(X, y, split,
                                nn.TrainConfig(epochs=20, batch_size=8, seed=seed),
                                arch=arch, standardize=True)
            report = evaluate(nn.forward_batch(model, model.standardize(X)), y, split)
            assert report.train_accuracy >= report.test_accuracy - 0.05
