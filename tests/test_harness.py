"""Metrics, submission files, reports, and the learning-curve harness."""

import json

import numpy as np
import pytest

from sarberg.data import SampleSet, SynthConfig, split_train_validation, synth_dataset
from sarberg.harness import (
    learning_curve,
    metrics_summary,
    read_submission,
    write_composite_ppm,
    write_curve_csv,
    write_metrics_json,
    write_submission,
)
from sarberg.mathutil import binary_logloss
from sarberg.metrics import ConfusionMatrix, metric_accuracy, metric_confusion, metric_logloss
from sarberg.nn import TrainConfig, build_classifier, fit


HAND_PREDS = {"a": 0.9, "b": 0.2, "c": 0.6, "d": 0.4}
HAND_LABELS = {"a": 1, "b": 0, "c": 0, "d": 0}


class TestMetrics:
    def test_perfect_predictions(self):
        preds = {"a": 0.99, "b": 0.01}
        labels = {"a": 1, "b": 0}
        assert metric_accuracy(preds, labels) == 1.0
        cm = metric_confusion(preds, labels)
        assert cm.fp == 0 and cm.fn == 0

    def test_tie_counts_positive(self):
        preds = {"a": 0.5, "b": 0.5}
        labels = {"a": 1, "b": 0}
        assert metric_accuracy(preds, labels) == 0.5

    def test_hand_enumeration(self):
        assert metric_accuracy(HAND_PREDS, HAND_LABELS) == 0.75
        cm = metric_confusion(HAND_PREDS, HAND_LABELS)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 1, 2, 0)

    def test_confusion_consistent_with_accuracy(self):
        cm = metric_confusion(HAND_PREDS, HAND_LABELS)
        assert (cm.tp + cm.tn) / cm.n == metric_accuracy(HAND_PREDS, HAND_LABELS)
        assert cm.n == 4

    def test_id_mismatch(self):
        with pytest.raises(ValueError, match="ids"):
            metric_accuracy({"a": 0.5}, {"b": 1})

    def test_logloss_matches_direct_computation(self):
        got = metric_logloss(HAND_PREDS, HAND_LABELS)
        expect = binary_logloss(
            np.array([0.9, 0.2, 0.6, 0.4]), np.array([1.0, 0.0, 0.0, 0.0])
        )
        assert got == pytest.approx(expect, abs=1e-15)

    def test_constant_base_rate_predictor_gives_entropy(self):
        labels = {f"i{k}": int(k < 30) for k in range(100)}
        preds = {k: 0.3 for k in labels}
        expect = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert metric_logloss(preds, labels) == pytest.approx(expect, abs=1e-12)

    def test_confusion_counts_nonnegative_and_sum(self):
        cm = ConfusionMatrix(tn=5, fp=2, fn=1, tp=8)
        assert cm.n == 16


class TestSubmission:
    def test_two_predictions_three_lines(self, tmp_path):
        path = tmp_path / "sub.csv"
        write_submission({"x1": 0.25, "x2": 0.75}, path)
        lines = path.read_text().splitlines()
        assert lines == ["id,is_iceberg", "x1,0.25", "x2,0.75"]

    def test_round_trip_to_1e6(self, tmp_path):
        rng = np.random.default_rng(0)
        preds = {f"s{i}": float(rng.random()) for i in range(50)}
        path = tmp_path / "sub.csv"
        write_submission(preds, path)
        again = read_submission(path)
        assert list(again) == list(preds)
        for k in preds:
            assert abs(again[k] - preds[k]) <= 1e-6

    def test_tiny_probabilities_round_trip_exactly(self, tmp_path):
        # Six decimals would write 0.000000, which eval clamps to 1e-15.
        preds = {"a": 1.8e-9, "b": 1.0 - 2.0**-40, "c": float(np.float32(0.1))}
        path = tmp_path / "sub.csv"
        write_submission(preds, path)
        assert read_submission(path) == preds

    def test_empty_set_header_only(self, tmp_path):
        path = tmp_path / "sub.csv"
        write_submission({}, path)
        assert path.read_text() == "id,is_iceberg\n"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,probability\nx,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_submission(path)

    def test_malformed_rows_refused_naming_line_and_id(self, tmp_path):
        path = tmp_path / "sub.csv"
        cases = {
            "x2": "line 3, id 'x2': expected 2 fields (id,is_iceberg), got 1",
            "x2,0.5,0.5": "line 3, id 'x2': expected 2 fields (id,is_iceberg), got 3",
            "": "line 3, id None: expected 2 fields (id,is_iceberg), got 0",
            "x2,nan": "line 3, id 'x2': probability 'nan' is not a number in [0, 1]",
            "x2,inf": "line 3, id 'x2': probability 'inf' is not a number in [0, 1]",
            "x2,7.5": "line 3, id 'x2': probability '7.5' is not a number in [0, 1]",
            "x2,-0.0001": "line 3, id 'x2': probability '-0.0001' is not a number in [0, 1]",
            "x2,high": "line 3, id 'x2': probability 'high' is not a number in [0, 1]",
            "x2,": "line 3, id 'x2': probability '' is not a number in [0, 1]",
            "x1,0.25": "line 3, id 'x1': repeated id",
        }
        for row, message in cases.items():
            path.write_text(f"id,is_iceberg\nx1,0.5\n{row}\nx3,0.5\n")
            with pytest.raises(ValueError) as err:
                read_submission(path)
            assert str(err.value) == f"{path} {message}", row


class TestReport:
    def test_metrics_json_recomputable(self, tmp_path):
        summary = metrics_summary(HAND_PREDS, HAND_LABELS, {"seed": 1})
        path = tmp_path / "metrics.json"
        write_metrics_json(path, summary)
        doc = json.loads(path.read_text())
        assert doc["logloss"] == pytest.approx(
            metric_logloss(HAND_PREDS, HAND_LABELS), abs=1e-12
        )
        assert doc["tp"] + doc["tn"] + doc["fp"] + doc["fn"] == doc["n"]
        assert doc["config"] == {"seed": 1}

    def test_report_writes_deterministic_bytes(self, tmp_path):
        scene = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        written = []
        for name in ("a", "b"):
            summary = metrics_summary(HAND_PREDS, HAND_LABELS, {"seed": 2})
            write_metrics_json(tmp_path / f"{name}.json", summary)
            write_composite_ppm(scene, tmp_path / f"{name}.ppm")
            written.append([(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("json", "ppm")])
        assert written[0] == written[1]

    def test_composite_constant_sample_uniform(self, tmp_path):
        from sarberg.data import SarSample

        p = np.full((5, 5), -20.0)
        s = SarSample(id="c", hh=p, hv=p, inc_angle=30.0, label=1)
        path = tmp_path / "c.ppm"
        write_composite_ppm(s, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n5 5\n255\n")
        body = raw.split(b"255\n", 1)[1]
        assert len(set(body)) == 1

    def test_composite_of_synthetic_scene(self, tmp_path):
        s = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        write_composite_ppm(s, tmp_path / "s.ppm")
        header = b"P6\n75 75\n255\n"
        assert (tmp_path / "s.ppm").stat().st_size == len(header) + 75 * 75 * 3


@pytest.fixture(scope="module")
def small_base():
    return synth_dataset(SynthConfig(n_samples=80, iceberg_fraction=0.5, seed=21))


class TestLearningCurve:

    def test_single_fraction_matches_plain_fit_run(self, small_base):
        cfg = TrainConfig(
            epochs=2, batch_size=8, seed=5, channels=("hh", "hv", "diff")
        )
        rows = learning_curve(small_base, [1.0], cfg, multiplier=1, val_ratio=0.25)
        assert len(rows) == 1

        train, val = split_train_validation(small_base, 0.25, cfg.seed)
        net = build_classifier(3, cfg.seed)
        _, history = fit(net, train, val, cfg)
        best = history.best_epoch()
        assert rows[0].train_loss == history.train_loss[best]
        assert rows[0].val_loss == history.val_loss[best]
        assert rows[0].n_samples == len(train)

    def test_augmentation_multiplier_grows_n(self, small_base):
        cfg = TrainConfig(epochs=1, batch_size=8, seed=6)
        rows = learning_curve(small_base, [1.0], cfg, multiplier=2, val_ratio=0.25)
        assert rows[0].n_samples == 2 * 60

    def test_row_count_matches_fractions(self, small_base):
        cfg = TrainConfig(epochs=1, batch_size=4, seed=7)
        rows = learning_curve(small_base, [0.5, 1.0], cfg, val_ratio=0.25)
        assert len(rows) == 2
        assert [r.fraction for r in rows] == [0.5, 1.0]

    def test_too_small_fraction_rejected(self, small_base):
        cfg = TrainConfig(epochs=1, batch_size=32, seed=8)
        with pytest.raises(ValueError, match="at least"):
            learning_curve(small_base, [0.1], cfg, val_ratio=0.25)

    def test_descending_fractions_rejected(self, small_base):
        cfg = TrainConfig(epochs=1, batch_size=4, seed=9)
        with pytest.raises(ValueError, match="ascending"):
            learning_curve(small_base, [1.0, 0.5], cfg)

    def test_curve_csv_format(self, tmp_path):
        from sarberg.harness import CurveRow

        rows = [CurveRow(0.1, 10, 0.5, 0.7), CurveRow(1.0, 100, 0.3, 0.35)]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "fraction,n_samples,train_loss,val_loss,gap"
        assert len(lines) == 3
        assert float(lines[1].split(",")[4]) == pytest.approx(0.2)
