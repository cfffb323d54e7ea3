"""Command-line wiring: exit codes, artifacts, and reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sarberg
from sarberg.cli import _build_parser, cli_main
from sarberg.data import (
    SampleSet,
    SarSample,
    SynthConfig,
    impute_incidence,
    parse_samples,
    serialize_samples,
    split_train_validation,
    synth_dataset,
)
from sarberg.features import FEATURE_NAMES, correlation_matrix, feature_matrix
from sarberg.gbm import deserialize_gbm, predict_gbm
from sarberg.harness import read_submission, write_composite_ppm, write_submission
from sarberg.nn import load_network, prepare_inputs


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    sset = synth_dataset(SynthConfig(n_samples=24, iceberg_fraction=0.5, seed=13))
    path = root / "train.json"
    path.write_text(serialize_samples(sset))
    return path


def run(*argv):
    return cli_main([str(a) for a in argv])


# Each subcommand's options, as `_build_parser` declares them: a new knob is a
# deliberate change to this table.
OPTIONS = {
    "synth": ["--config", "--out", "--seed", "--n-samples", "--iceberg-fraction",
              "--speckle-looks"],
    "ingest": ["--config", "--out", "--input"],
    "augment": ["--config", "--out", "--seed", "--input", "--multiplier", "--width-shift",
                "--height-shift", "--rotation-max"],
    "features": ["--config", "--out", "--input"],
    "train-gbm": ["--config", "--out", "--seed", "--input", "--n-trees", "--max-depth",
                  "--shrinkage", "--min-samples-leaf", "--val-ratio"],
    "pretrain-ae": ["--config", "--out", "--seed", "--input", "--epochs", "--batch-size",
                    "--lr0", "--channels"],
    "train-cnn": ["--config", "--out", "--seed", "--input", "--epochs", "--batch-size",
                  "--lr0", "--channels", "--val-ratio", "--init-from", "--multiplier"],
    "predict": ["--config", "--out", "--input", "--model"],
    "stack": ["--config", "--out", "--seed", "--input", "--k-folds", "--cnn-epochs",
              "--n-trees"],
    "eval": ["--config", "--out", "--pred", "--truth", "--history", "--input", "--ids"],
    "curve": ["--config", "--out", "--seed", "--input", "--fractions", "--epochs",
              "--batch-size", "--lr0", "--channels", "--multiplier"],
}


class TestParsing:
    def test_option_table(self):
        _, commands = _build_parser()
        declared = {
            name: [flag for a in p._actions if a.dest != "help" for flag in a.option_strings]
            for name, p in commands.items()
        }
        assert declared == OPTIONS
        assert len(OPTIONS) == 11 and sum(map(len, OPTIONS.values())) == 76

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run("frobnicate", "--out", "x") == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self, capsys):
        for argv in [
            ("synth", "--out", "x", "--bogus-flag", "1"),
            # --seed belongs only to the commands that draw random numbers.
            ("ingest", "--input", "d.json", "--out", "x", "--seed", "1"),
            ("features", "--input", "d.json", "--out", "x", "--seed", "1"),
            ("predict", "--input", "d.json", "--model", "m", "--out", "x", "--seed", "1"),
            ("eval", "--pred", "p.csv", "--truth", "d.json", "--out", "x", "--seed", "1"),
        ]:
            assert run(*argv) == 2, argv
            assert "usage" in capsys.readouterr().err.lower()

    def test_report_and_label_switches_are_gone(self, capsys):
        # eval does what report did, and every command reads a label where a record has one.
        for argv in [
            ("report", "--pred", "p.csv", "--truth", "d.json", "--out", "x"),
            *[(command, "--input", "d.json", "--out", "x", flag)
              for command in ("ingest", "augment", "features", "pretrain-ae")
              for flag in ("--unlabeled", "--no-unlabeled")],
            *[("predict", "--input", "d.json", "--model", "m", "--out", "x", flag)
              for flag in ("--labeled", "--no-labeled")],
        ]:
            assert run(*argv) == 2, argv
            assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "command",
        ["synth", "ingest", "augment", "features", "train-gbm", "pretrain-ae",
         "train-cnn", "predict", "stack", "eval", "curve"],
    )
    def test_subcommand_help_exits_0(self, command, capsys):
        assert run(command, "--help") == 0
        assert f"usage: sarberg {command}" in capsys.readouterr().out

    def test_module_help_exits_0(self):
        src = str(Path(sarberg.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "sarberg.cli", "--help"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert "usage: sarberg" in done.stdout

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert run("ingest", "--input", tmp_path / "nope.json", "--out", tmp_path) == 1
        assert "not found" in capsys.readouterr().err


class TestSynthIngest:
    def test_synth_writes_dataset_and_config(self, tmp_path):
        out = tmp_path / "run"
        assert run("synth", "--n-samples", 6, "--seed", 3, "--out", out) == 0
        assert (out / "samples.json").exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["n_samples"] == 6 and resolved["seed"] == 3
        assert resolved["command"] == "synth"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_samples": 4, "iceberg_fraction": 0.5, "seed": 9}))
        out = tmp_path / "run"
        assert run("synth", "--config", cfg, "--n-samples", 8, "--out", out) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["n_samples"] == 8  # flag wins
        assert resolved["seed"] == 9  # from config file

    def test_label_switch_config_keys_refused(self, tmp_path, dataset_file, capsys):
        cfg = tmp_path / "c.json"
        out = tmp_path / "run"
        for command, key, extra in [
            *[(c, "unlabeled", ()) for c in ("ingest", "augment", "features", "pretrain-ae")],
            ("predict", "labeled", ("--model", dataset_file)),
        ]:
            cfg.write_text(json.dumps({key: True}))
            code = run(command, "--config", cfg, "--input", dataset_file, *extra, "--out", out)
            assert code == 1, command
            assert f"config key {key!r} names no option" in capsys.readouterr().err, command
            assert not out.exists(), command

    def test_unknown_config_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_sample": 4}))
        assert run("synth", "--config", cfg, "--out", tmp_path / "run") == 1
        assert "'n_sample'" in capsys.readouterr().err
        assert not (tmp_path / "run" / "samples.json").exists()

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("augment", {"multiplier": True}),  # JSON true is not a number
            ("train-gbm", {"n_trees": 2.5}),  # --n-trees takes an integer
        ],
    )
    def test_mistyped_config_value_names_key(self, tmp_path, dataset_file, command, doc, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code = run(command, "--config", cfg, "--input", dataset_file, "--out", tmp_path / "run")
        assert code == 1
        assert repr(next(iter(doc))) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda r: r["band_1"].__setitem__(7, {"v": 1.0}),
             "band_1 must be a flat list of numbers"),
            (lambda r: r.update(band_2=[[v] for v in r["band_2"]]),
             "band_2 must be a flat list of numbers"),
            (lambda r: r.update(inc_angle=10**400), "inc_angle overflows float64"),
            (lambda r: r.update(inc_angle=math.nan), "inc_angle nan outside (0, 90)"),
        ],
    )
    def test_ingest_refuses_malformed_record_by_name(
        self, tmp_path, dataset_file, edit, message, capsys
    ):
        bad, rec_id = _edit_record(dataset_file, tmp_path / "bad.json", 4, edit)
        assert run("ingest", "--input", bad, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"record 4 (id {rec_id!r}): {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "ingest_summary.json").exists()

    def test_ingest_summary(self, tmp_path, dataset_file):
        out = tmp_path / "run"
        assert run("ingest", "--input", dataset_file, "--out", out) == 0
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["n_samples"] == 24
        assert summary["n_iceberg"] == 12


class TestPipeline:
    def test_features_and_gbm_and_eval(self, tmp_path, dataset_file):
        feat_out = tmp_path / "features"
        assert run("features", "--input", dataset_file, "--out", feat_out) == 0
        header = (feat_out / "features.csv").read_text().splitlines()[0]
        assert header.startswith("id,hh_min") and header.endswith(",label")
        assert (feat_out / "correlation.csv").exists()

        gbm_out = tmp_path / "gbm"
        assert (
            run(
                "train-gbm", "--input", dataset_file, "--n-trees", 10,
                "--val-ratio", 0.25, "--out", gbm_out, "--seed", 1,
            )
            == 0
        )
        assert (gbm_out / "gbm.json").exists()
        metrics = json.loads((gbm_out / "metrics.json").read_text())
        assert set(metrics) >= {"logloss", "accuracy", "tn", "fp", "fn", "tp", "n", "config"}

        pred_out = tmp_path / "pred"
        assert (
            run(
                "predict", "--input", dataset_file, "--model", gbm_out / "gbm.json",
                "--out", pred_out,
            )
            == 0
        )
        sub = (pred_out / "submission.csv").read_text().splitlines()
        assert sub[0] == "id,is_iceberg" and len(sub) == 25

        eval_out = tmp_path / "eval"
        assert (
            run(
                "eval", "--pred", pred_out / "submission.csv", "--truth", dataset_file,
                "--out", eval_out,
            )
            == 0
        )
        metrics = json.loads((eval_out / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_augment_expands(self, tmp_path, dataset_file):
        out = tmp_path / "aug"
        assert (
            run("augment", "--input", dataset_file, "--multiplier", 2, "--out", out)
            == 0
        )
        from sarberg.data import parse_samples

        again = parse_samples((out / "augmented.json").read_bytes(), labeled=True)
        assert len(again) == 48

    def test_report_from_artifacts(self, tmp_path, dataset_file):
        """eval's run report: metrics, the named composites and the history copy."""
        gbm_out = tmp_path / "g"
        run("train-gbm", "--input", dataset_file, "--n-trees", 5, "--out", gbm_out)
        pred_out = tmp_path / "p"
        run("predict", "--input", dataset_file, "--model", gbm_out / "gbm.json", "--out", pred_out)
        history = tmp_path / "history.csv"
        history.write_text("epoch,train_loss\n1,0.5\n")
        rep_out = tmp_path / "r"
        code = run(
            "eval", "--pred", pred_out / "submission.csv", "--truth", dataset_file,
            "--input", dataset_file, "--ids", "synth_000001, synth_000004",
            "--history", history, "--out", rep_out,
        )
        assert code == 0
        doc = json.loads((rep_out / "metrics.json").read_text())
        assert doc["n"] == 24
        assert doc["config"]["ids"] == "synth_000001, synth_000004"
        assert doc["config"]["history"] == str(history)
        assert (rep_out / "history.csv").read_bytes() == history.read_bytes()
        scenes = parse_samples(dataset_file.read_bytes(), labeled=True)
        for i in (1, 4):
            write_composite_ppm(scenes[i], tmp_path / "expected.ppm")
            written = rep_out / f"composite_{scenes[i].id}.ppm"
            assert written.read_bytes() == (tmp_path / "expected.ppm").read_bytes()
        assert len(list(rep_out.glob("composite_*.ppm"))) == 2

    def test_features_overflowing_ratio_names_record(self, tmp_path, capsys):
        hh = np.full((75, 75), -20.0)
        hh[2, 2] = 4000.0  # 10^(4000/10) overflows float64
        hv = np.full((75, 75), -25.0)
        cold = SarSample(id="cold", hh=hv + 5.0, hv=hv, inc_angle=35.0, label=0)
        hot = SarSample(id="hot", hh=hh, hv=hv, inc_angle=35.0, label=1)
        path = _write_set(tmp_path / "hot.json", [cold, hot])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the refusal alone reports the overflow
            assert run("features", "--input", path, "--out", tmp_path / "f") == 1
        err = capsys.readouterr().err
        assert "sample 'hot'" in err and "ratio band is not finite" in err

    def test_malformed_submission_exits_1_naming_line(self, tmp_path, dataset_file, capsys):
        ids = parse_samples(dataset_file.read_bytes(), labeled=True).ids()
        rows = {
            "one field": f"{ids[1]}",
            "NaN": f"{ids[1]},nan",
            "above 1": f"{ids[1]},7.5",
            "repeated id": f"{ids[0]},0.25",
        }
        pred = tmp_path / "submission.csv"
        for name, row in rows.items():
            rest = "".join(f"{i},0.5\n" for i in ids[2:])
            pred.write_text(f"id,is_iceberg\n{ids[0]},0.5\n{row}\n{rest}")
            out = tmp_path / "eval"
            code = run("eval", "--pred", pred, "--truth", dataset_file, "--out", out)
            assert code == 1, name
            assert "line 3" in capsys.readouterr().err, name
            assert not (out / "metrics.json").exists(), name

    def test_report_missing_artifact_lists_it(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "r2"
        code = run(
            "eval", "--pred", tmp_path / "absent.csv", "--truth", dataset_file,
            "--history", tmp_path / "no_history.csv", "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "missing run artifacts" in err and "absent.csv" in err and "no_history.csv" in err
        assert not (out / "metrics.json").exists()

    def test_report_refuses_absent_ids(self, tmp_path, dataset_file, capsys):
        ids = parse_samples(dataset_file.read_bytes(), labeled=True).ids()
        pred = tmp_path / "submission.csv"
        write_submission({i: 0.5 for i in ids}, pred)
        out = tmp_path / "r"
        code = run(
            "eval", "--pred", pred, "--truth", dataset_file, "--input", dataset_file,
            "--ids", f"{ids[0]},ghost", "--out", out,
        )
        assert code == 1
        assert "ids not in dataset: ['ghost']" in capsys.readouterr().err
        assert not list(out.glob("*.ppm")) and not (out / "metrics.json").exists()

    def test_eval_ids_and_input_need_each_other(self, tmp_path, dataset_file, capsys):
        pred = _half_submission(dataset_file, tmp_path / "submission.csv")
        for extra, message in [
            (("--ids", "synth_000001,ghost"), "--ids needs --input"),
            (("--input", dataset_file), "--input needs --ids"),
        ]:
            out = tmp_path / extra[0].strip("-")
            code = run("eval", "--pred", pred, "--truth", dataset_file, *extra, "--out", out)
            assert code == 1, extra
            assert message in capsys.readouterr().err, extra
            assert not (out / "metrics.json").exists(), extra

    def test_eval_ids_naming_no_id_refused(self, tmp_path, dataset_file, capsys):
        pred = _half_submission(dataset_file, tmp_path / "submission.csv")
        for k, ids in enumerate([",", " , ,"]):
            out = tmp_path / f"case{k}"
            code = run("eval", "--pred", pred, "--truth", dataset_file,
                       "--input", dataset_file, "--ids", ids, "--out", out)
            assert code == 1, ids
            assert "--ids names no id" in capsys.readouterr().err, ids
            assert not (out / "metrics.json").exists(), ids

    def test_eval_history_copied_byte_for_byte(self, tmp_path, dataset_file):
        pred = _half_submission(dataset_file, tmp_path / "submission.csv")
        history = tmp_path / "history.csv"
        history.write_bytes(b"epoch,train_loss\r\n1,0.5\r\n2,0.4 \xff\r\n")  # CRLF, not UTF-8
        out = tmp_path / "eval"
        code = run("eval", "--pred", pred, "--truth", dataset_file,
                   "--history", history, "--out", out)
        assert code == 0
        assert (out / "history.csv").read_bytes() == history.read_bytes()

    def test_features_refusal_writes_no_file(self, tmp_path, dataset_file, capsys):
        one = parse_samples(dataset_file.read_bytes(), labeled=True)[0]
        for name, scenes, message in [
            ("one scene", [one], "need at least 2 feature vectors"),
            ("tied statistics", [one, replace(one, id="twin")], "has zero variance"),
        ]:
            out = tmp_path / name.replace(" ", "_")
            path = _write_set(tmp_path / f"{out.name}.json", scenes)
            assert run("features", "--input", path, "--out", out) == 1, name
            assert message in capsys.readouterr().err, name
            assert not list(out.glob("*.csv")), name

    def test_predict_gbm_on_empty_set_refused_by_name(self, tmp_path, gbm_file, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert run("predict", "--input", path, "--model", gbm_file, "--out", tmp_path / "p") == 1
        assert "sarberg predict: empty sample set" in capsys.readouterr().err
        assert not (tmp_path / "p" / "submission.csv").exists()

    def test_features_on_empty_set_refused_by_name(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert run("features", "--input", path, "--out", tmp_path / "f") == 1
        assert "sarberg features: empty sample set" in capsys.readouterr().err
        assert not (tmp_path / "f" / "features.csv").exists()

    def test_stack_refuses_more_folds_than_the_larger_class_has_rows(
        self, tmp_path, dataset_file, capsys
    ):
        # dataset_file holds 12 scenes of each class.
        out = tmp_path / "s"
        assert run("stack", "--input", dataset_file, "--k-folds", 20, "--out", out) == 1
        assert (
            "sarberg stack: fold 12 holds no rows: k_folds (20) exceeds the row count "
            "of the larger class (12)" in capsys.readouterr().err
        )
        assert not (out / "oof.csv").exists() and not (out / "metrics.json").exists()

    def test_train_gbm_refuses_empty_split_before_writing(self, tmp_path, dataset_file, capsys):
        sset = parse_samples(dataset_file.read_bytes(), labeled=True)
        ship, iceberg = (next(s for s in sset if s.label == c) for c in (0, 1))
        path = _write_set(tmp_path / "two.json", [ship, iceberg])
        out = tmp_path / "gbm"
        # The default --val-ratio 0.2 of 2 scenes rounds to an empty validation split.
        assert run("train-gbm", "--input", path, "--n-trees", 2, "--out", out) == 1
        assert "train and validation sets must be non-empty" in capsys.readouterr().err
        assert not (out / "gbm.json").exists() and not (out / "metrics.json").exists()

    @pytest.mark.parametrize("command,outputs", [
        ("train-gbm", ["gbm.json", "metrics.json"]),
        ("train-cnn", ["cnn.ckpt", "history.csv", "metrics.json"]),
        ("stack", ["oof.csv", "metrics.json"]),
    ])
    def test_learning_on_empty_set_refused_by_name(self, tmp_path, capsys, command, outputs):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        out = tmp_path / "out"
        assert run(command, "--input", path, "--out", out) == 1
        assert f"sarberg {command}: empty sample set" in capsys.readouterr().err
        assert not any((out / name).exists() for name in outputs)


def _write_set(path, samples):
    path.write_text(serialize_samples(SampleSet(tuple(samples), provenance="synthetic")))
    return path


def _present_mean(samples):
    return float(np.mean([s.inc_angle for s in samples if s.inc_angle is not None]))


@pytest.fixture(scope="module")
def na_train_file(tmp_path_factory):
    """24 labelled scenes, every fourth with its angle written as "na"."""
    base = synth_dataset(SynthConfig(n_samples=24, iceberg_fraction=0.5, seed=13))
    samples = [replace(s, inc_angle=None) if i % 4 == 0 else s for i, s in enumerate(base)]
    return _write_set(tmp_path_factory.mktemp("na") / "train.json", samples)


@pytest.fixture(scope="module")
def cnn_ckpt(na_train_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cnn")
    assert run(
        "train-cnn", "--input", na_train_file, "--epochs", 3, "--batch-size", 8,
        "--val-ratio", 0.25, "--seed", 3, "--out", out,
    ) == 0
    return out / "cnn.ckpt"


@pytest.fixture(scope="module")
def gbm_file(na_train_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("gbm")
    assert run(
        "train-gbm", "--input", na_train_file, "--n-trees", 10,
        "--val-ratio", 0.25, "--seed", 1, "--out", out,
    ) == 0
    return out / "gbm.json"


def _scoring_file(path, neighbour_angle):
    """Scene 0 without an angle, next to five scenes at neighbour_angle."""
    base = synth_dataset(SynthConfig(n_samples=6, iceberg_fraction=0.5, seed=21))
    samples = [replace(s, inc_angle=None if i == 0 else neighbour_angle)
               for i, s in enumerate(base)]
    return _write_set(path, samples), samples[0]


class TestModelArtifacts:
    """Each model file carries the angle that fills a missing one."""

    def test_train_cnn_stores_training_split_mean_angle(self, na_train_file, cnn_ckpt):
        sset = parse_samples(na_train_file.read_bytes(), labeled=True)
        train, _ = split_train_validation(sset, 0.25, 3)
        expected = _present_mean(train)
        assert expected != _present_mean(sset)  # the val angles would move it
        assert load_network(cnn_ckpt).fill_angle == expected

    def test_train_cnn_records_every_option(self, cnn_ckpt):
        resolved = json.loads((cnn_ckpt.parent / "resolved_config.json").read_text())
        assert resolved["lr0"] == 0.001 and resolved["channels"] == "hh,hv,diff"

    def test_cnn_missing_angle_scored_with_stored_angle(self, tmp_path, cnn_ckpt):
        scores = []
        for angle in (30.0, 44.0):
            path, scene = _scoring_file(tmp_path / f"score_{angle}.json", angle)
            out = tmp_path / f"pred_{angle}"
            assert run("predict", "--input", path, "--model", cnn_ckpt, "--out", out) == 0
            scores.append(read_submission(out / "submission.csv")[scene.id])
        net = load_network(cnn_ckpt)

        def direct(angle):
            one = SampleSet((replace(scene, inc_angle=angle),), provenance="synthetic")
            return float(net.forward(prepare_inputs(net, one))[0, 0])

        assert abs(direct(30.0) - direct(44.0)) > 1e-4  # the angle matters here
        # Six decimals in the submission; Dense rounds with the row count.
        assert scores[0] == pytest.approx(scores[1], rel=1e-5, abs=1e-6)
        assert scores[0] == pytest.approx(direct(net.fill_angle), rel=1e-5, abs=1e-6)

    def test_all_missing_angles_scored_by_both_kinds(self, tmp_path, cnn_ckpt, gbm_file):
        base = synth_dataset(SynthConfig(n_samples=5, iceberg_fraction=0.5, seed=22))
        path = _write_set(tmp_path / "na.json", [replace(s, inc_angle=None) for s in base])
        for model in (cnn_ckpt, gbm_file):
            out = tmp_path / model.stem
            assert run("predict", "--input", path, "--model", model, "--out", out) == 0
            lines = (out / "submission.csv").read_text().splitlines()
            preds = read_submission(out / "submission.csv")
            assert len(lines) == 6 and set(preds) == set(base.ids())
            assert all(np.isfinite(p) for p in preds.values())

    def test_truncated_checkpoint_reports_checkpoint_error(self, tmp_path, cnn_ckpt, capsys):
        raw = cnn_ckpt.read_bytes()
        bad = tmp_path / "cnn.ckpt"
        bad.write_bytes(raw[: len(raw) // 2])
        path, _ = _scoring_file(tmp_path / "score.json", 30.0)
        assert run("predict", "--input", path, "--model", bad, "--out", tmp_path / "p") == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_unknown_dtype_checkpoint_reports_corrupt_checkpoint(
        self, tmp_path, cnn_ckpt, capsys
    ):
        bad = tmp_path / "cnn.ckpt"
        with zipfile.ZipFile(cnn_ckpt) as src, zipfile.ZipFile(bad, "w") as dst:
            for entry in src.namelist():
                raw = src.read(entry)
                if entry == "meta.json":
                    raw = json.dumps({**json.loads(raw), "dtype": "foo"})
                dst.writestr(entry, raw)
        path, _ = _scoring_file(tmp_path / "score.json", 30.0)
        assert run("predict", "--input", path, "--model", bad, "--out", tmp_path / "p") == 1
        assert "corrupt checkpoint" in capsys.readouterr().err

    def test_cyclic_gbm_json_reports_corrupt_model(self, tmp_path, gbm_file, capsys):
        doc = json.loads(gbm_file.read_bytes())
        doc["trees"][0]["left"][0] = 0  # the root is its own left child
        bad = tmp_path / "gbm.json"
        bad.write_text(json.dumps(doc))
        path, _ = _scoring_file(tmp_path / "score.json", 30.0)
        assert run("predict", "--input", path, "--model", bad, "--out", tmp_path / "p") == 1
        assert "corrupt model" in capsys.readouterr().err

    def test_binary_model_file_reports_corrupt_model_file(self, tmp_path, capsys):
        bad = tmp_path / "model.bin"
        bad.write_bytes(b"\xff\xd8\xff\xe0\x00\x10JFIF\x00")  # not UTF-8, not a zip
        path, _ = _scoring_file(tmp_path / "score.json", 30.0)
        assert run("predict", "--input", path, "--model", bad, "--out", tmp_path / "p") == 1
        assert "corrupt model file" in capsys.readouterr().err

    def test_gbm_json_alone_scores_with_training_mean(self, tmp_path):
        # Labels follow the angle (6 icebergs at 45-47.5 degrees, 18 ships at
        # 31-35), so the trees split on it and the fill angle decides the
        # leaf. The expected bytes are what scoring with the training split's
        # mean angle writes, as the separate mean-angle file used to supply it.
        base = synth_dataset(SynthConfig(n_samples=24, iceberg_fraction=0.5, seed=13))
        samples = [replace(s, label=int(i < 6), inc_angle=45.0 + 0.5 * i if i < 6
                           else 31.0 + i % 5) for i, s in enumerate(base)]
        train_file = _write_set(tmp_path / "train.json", samples)
        alone = tmp_path / "alone"
        assert run("train-gbm", "--input", train_file, "--n-trees", 10,
                   "--val-ratio", 0.25, "--seed", 1, "--out", tmp_path / "gbm") == 0
        alone.mkdir()
        (alone / "gbm.json").write_bytes((tmp_path / "gbm" / "gbm.json").read_bytes())
        path, _ = _scoring_file(tmp_path / "score.json", 48.0)
        assert run("predict", "--input", path, "--model", alone / "gbm.json",
                   "--out", tmp_path / "p") == 0

        train, _ = split_train_validation(SampleSet(tuple(samples), "synthetic"), 0.25, 1)
        score_set = parse_samples(path.read_bytes(), labeled=False)
        model = deserialize_gbm((alone / "gbm.json").read_bytes())
        ids, X, _ = feature_matrix(score_set, _present_mean(train))
        p = predict_gbm(model, X)
        assert p[0] != predict_gbm(model, feature_matrix(score_set, 48.0)[1])[0]
        expected = tmp_path / "expected.csv"
        write_submission({i: float(v) for i, v in zip(ids, p)}, expected)
        assert (tmp_path / "p" / "submission.csv").read_bytes() == expected.read_bytes()


# Ids a plain `id,p` row would split or misquote.
AWKWARD_IDS = ["a,0", 'b"1', " c", 'd,"e"', "plain"]


def _awkward_set(path, labeled):
    base = synth_dataset(SynthConfig(n_samples=len(AWKWARD_IDS), iceberg_fraction=0.5, seed=17))
    samples = [replace(s, id=i, label=s.label if labeled else None)
               for s, i in zip(base, AWKWARD_IDS)]
    return _write_set(path, samples)


class TestAwkwardIds:
    """Ids holding a comma, a quote or a leading space survive every CSV."""

    def test_predict_then_eval(self, tmp_path, gbm_file):
        truth = _awkward_set(tmp_path / "odd.json", labeled=True)
        assert run("predict", "--input", truth, "--model", gbm_file, "--out", tmp_path / "p") == 0
        sub = tmp_path / "p" / "submission.csv"
        assert list(read_submission(sub)) == AWKWARD_IDS
        assert sub.read_text().splitlines()[-1].startswith("plain,")
        assert run("eval", "--pred", sub, "--truth", truth, "--out", tmp_path / "e") == 0
        assert json.loads((tmp_path / "e" / "metrics.json").read_text())["n"] == len(AWKWARD_IDS)

    def test_stack_oof_csv(self, tmp_path):
        base = synth_dataset(SynthConfig(n_samples=12, iceberg_fraction=0.5, seed=17))
        ids = [AWKWARD_IDS[i % len(AWKWARD_IDS)] + str(i) for i in range(len(base))]
        path = _write_set(tmp_path / "odd.json", [replace(s, id=i) for s, i in zip(base, ids)])
        assert run("stack", "--input", path, "--k-folds", 2, "--cnn-epochs", 1,
                   "--n-trees", 5, "--seed", 1, "--out", tmp_path / "s") == 0
        with open(tmp_path / "s" / "oof.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["id", "fold", "gbm", "cnn"]
        assert [r[0] for r in rows[1:]] == ids
        assert all(len(r) == 4 for r in rows[1:])


class TestRepeatRuns:
    """Commands run twice with the same flags into the same directory write
    the same bytes (`resolved_config.json` holds a timestamp and is left
    out)."""

    @staticmethod
    def twice(out, names, *argv):
        snapshots = []
        for _ in range(2):
            assert run(*argv, "--out", out) == 0
            snapshots.append({name: (out / name).read_bytes() for name in names})
        assert snapshots[0] == snapshots[1]
        return snapshots[0]

    def test_train_gbm(self, tmp_path, dataset_file):
        files = self.twice(
            tmp_path / "g", ("gbm.json", "metrics.json"),
            "train-gbm", "--input", dataset_file, "--n-trees", 20, "--max-depth", 4,
            "--min-samples-leaf", 2, "--val-ratio", 0.25, "--seed", 4,
        )
        assert len(deserialize_gbm(files["gbm.json"]).trees) == 20

    def test_pretrain_ae_then_train_cnn_from_it(self, tmp_path, dataset_file):
        ae_out = tmp_path / "ae"
        self.twice(
            ae_out, ("ae.ckpt", "ae_history.csv"),
            "pretrain-ae", "--input", dataset_file, "--epochs", 1, "--batch-size", 8,
            "--seed", 2,
        )
        files = self.twice(
            tmp_path / "cnn", ("cnn.ckpt", "history.csv", "metrics.json"),
            "train-cnn", "--input", dataset_file, "--init-from", ae_out / "ae.ckpt",
            "--epochs", 1, "--batch-size", 8, "--val-ratio", 0.25, "--seed", 2,
        )
        config = json.loads(files["metrics.json"])["config"]
        assert config["init_from"] == str(ae_out / "ae.ckpt")

    def test_curve(self, tmp_path, dataset_file):
        files = self.twice(
            tmp_path / "c", ("curve.csv",),
            "curve", "--input", dataset_file, "--fractions", "0.5,1.0", "--epochs", 1,
            "--batch-size", 4, "--seed", 2,
        )
        rows = files["curve.csv"].decode().splitlines()
        assert rows[0] == "fraction,n_samples,train_loss,val_loss,gap" and len(rows) == 3


@pytest.fixture(scope="module")
def artifact_root(dataset_file, tmp_path_factory):
    """Every command run once on the 24 scenes, each into root/<command>."""
    root = tmp_path_factory.mktemp("artifacts")
    data = dataset_file
    for argv in [
        ("synth", "--n-samples", 6, "--seed", 1),
        ("ingest", "--input", data),
        ("augment", "--input", data, "--seed", 1),
        ("features", "--input", data),
        ("train-gbm", "--input", data, "--n-trees", 5, "--seed", 1),
        ("pretrain-ae", "--input", data, "--epochs", 1, "--batch-size", 8),
        ("train-cnn", "--input", data, "--epochs", 1, "--batch-size", 8,
         "--init-from", root / "pretrain-ae" / "ae.ckpt"),
        ("predict", "--input", data, "--model", root / "train-gbm" / "gbm.json"),
        ("stack", "--input", data, "--k-folds", 2, "--cnn-epochs", 1, "--n-trees", 5),
        ("eval", "--pred", root / "predict" / "submission.csv", "--truth", data,
         "--history", root / "train-cnn" / "history.csv", "--input", data,
         "--ids", "synth_000001"),
        ("curve", "--input", data, "--fractions", "0.5,1.0", "--epochs", 1,
         "--batch-size", 4),
    ]:
        assert run(*argv, "--out", root / argv[0]) == 0, argv[0]
    return root


BAND_STATS = FEATURE_NAMES[: FEATURE_NAMES.index("inc_angle")]

CSV_HEADERS = {
    "features.csv": ["id", *FEATURE_NAMES, "label"],
    "correlation.csv": ["field", *BAND_STATS],
    "ae_history.csv": ["epoch", "recon_mse"],
    "history.csv": ["epoch", "train_loss", "val_loss", "train_acc", "val_acc", "lr"],
    "submission.csv": ["id", "is_iceberg"],
    "oof.csv": ["id", "fold", "gbm", "cnn"],
    "curve.csv": ["fraction", "n_samples", "train_loss", "val_loss", "gap"],
}

JSON_REPORTS = ("resolved_config.json", "metrics.json", "ingest_summary.json")


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestArtifacts:
    """The files each command writes: one CSV format and one JSON format."""

    def test_csv_files_start_with_header_and_end_lines_with_lf(self, artifact_root):
        written = sorted(artifact_root.rglob("*.csv"))
        assert {p.name for p in written} == set(CSV_HEADERS)
        assert [p.relative_to(artifact_root) for p in written if b"\r" in p.read_bytes()] == []
        for path in written:
            raw = path.read_bytes()
            assert raw.startswith((",".join(CSV_HEADERS[path.name]) + "\n").encode()), path
            assert raw.endswith(b"\n"), path

    def test_json_reports_parse_and_end_with_newline(self, artifact_root):
        written = sorted(p for name in JSON_REPORTS for p in artifact_root.rglob(name))
        assert len(written) == 11 + 4 + 1  # every command; 4 metrics; ingest
        for path in written:
            raw = path.read_bytes()
            assert isinstance(json.loads(raw), dict), path
            assert raw.endswith(b"}\n"), path

    def test_feature_csv_header(self, artifact_root, dataset_file):
        rows = _csv_rows(artifact_root / "features" / "features.csv")
        sset = parse_samples(dataset_file.read_bytes(), labeled=True)
        ids, X, y = feature_matrix(*impute_incidence(sset))
        assert rows[0] == CSV_HEADERS["features.csv"] and len(rows) == 25
        # every value round-trips exactly; labels are written as integers
        assert [r[0] for r in rows[1:]] == ids
        assert np.array_equal(np.array([r[1:-1] for r in rows[1:]], dtype=float), X)
        assert [r[-1] for r in rows[1:]] == [str(int(v)) for v in y]

    def test_correlation_csv(self, artifact_root, dataset_file):
        rows = _csv_rows(artifact_root / "features" / "correlation.csv")
        sset = parse_samples(dataset_file.read_bytes(), labeled=True)
        _, X, _ = feature_matrix(*impute_incidence(sset))
        assert rows[0] == ["field", *BAND_STATS] and len(BAND_STATS) == 28
        assert [r[0] for r in rows[1:]] == list(BAND_STATS)
        expected = correlation_matrix(X, range(len(BAND_STATS)))
        assert np.array_equal(np.array([r[1:] for r in rows[1:]], dtype=float), expected)

    def test_history_csv_header_and_rows(self, artifact_root):
        written = artifact_root / "train-cnn" / "history.csv"
        rows = _csv_rows(written)
        assert rows[0] == CSV_HEADERS["history.csv"]
        assert len(rows) == 2 and rows[1][0] == "1" and rows[1][-1] == "0.001"
        assert all(np.isfinite(float(v)) for v in rows[1][1:])
        copy = artifact_root / "eval" / "history.csv"
        assert copy.read_bytes() == written.read_bytes()

    def test_stack_records_stacker_in_metrics(self, artifact_root):
        out = artifact_root / "stack"
        assert not (out / "stacker.json").exists()
        stacker = json.loads((out / "metrics.json").read_text())["stacker"]
        assert stacker["members"] == ["gbm", "cnn"]
        assert len(stacker["weights"]) == 2
        assert all(isinstance(v, float) for v in [*stacker["weights"], stacker["bias"]])


@pytest.fixture(scope="module")
def unlabeled_file(tmp_path_factory):
    """The 24 scenes of `dataset_file` with no is_iceberg field."""
    base = synth_dataset(SynthConfig(n_samples=24, iceberg_fraction=0.5, seed=13))
    samples = [replace(s, label=None) for s in base]
    return _write_set(tmp_path_factory.mktemp("bare") / "test.json", samples)


def _edit_record(src, path, index, edit):
    """A copy of the dataset file src with record `index` changed by edit(record)."""
    records = json.loads(src.read_text())
    edit(records[index])
    path.write_text(json.dumps(records))
    return path, records[index]["id"]


def _half_submission(dataset, path):
    """A submission scoring every scene of the dataset file at 0.5."""
    write_submission({i: 0.5 for i in parse_samples(dataset.read_bytes(), False).ids()}, path)
    return path


# Each command that reads a dataset file, given one with a malformed label ({bad}).
MALFORMED_LABEL_RUNS = {
    "ingest": ("ingest", "--input", "{bad}"),
    "augment": ("augment", "--input", "{bad}"),
    "features": ("features", "--input", "{bad}"),
    "train-gbm": ("train-gbm", "--input", "{bad}"),
    "pretrain-ae": ("pretrain-ae", "--input", "{bad}"),
    "train-cnn": ("train-cnn", "--input", "{bad}"),
    "predict": ("predict", "--input", "{bad}", "--model", "{gbm}"),
    "stack": ("stack", "--input", "{bad}"),
    "curve": ("curve", "--input", "{bad}"),
    "eval-truth": ("eval", "--pred", "{pred}", "--truth", "{bad}"),
    "eval-input": ("eval", "--pred", "{pred}", "--truth", "{good}", "--input", "{bad}",
                   "--ids", "synth_000000"),
}


class TestLabels:
    """Every command reads is_iceberg where a record has one; only the
    commands that learn from labels, and eval's --truth, need it everywhere."""

    @pytest.mark.parametrize("kind", ["labeled", "unlabeled"])
    @pytest.mark.parametrize(
        "command", ["ingest", "augment", "features", "pretrain-ae", "predict"]
    )
    def test_label_free_commands_run_with_or_without_labels(
        self, tmp_path, command, kind, dataset_file, unlabeled_file, gbm_file
    ):
        path = dataset_file if kind == "labeled" else unlabeled_file
        extra = {
            "augment": ("--multiplier", 2),
            "pretrain-ae": ("--epochs", 1, "--batch-size", 8),
            "predict": ("--model", gbm_file),
        }.get(command, ())
        out = tmp_path / "out"
        assert run(command, "--input", path, *extra, "--out", out) == 0
        labels = parse_samples(path.read_bytes(), labeled=False).labels()
        if command == "ingest":
            summary = json.loads((out / "ingest_summary.json").read_text())
            assert summary["n_unlabeled"] == labels.count(None)
        elif command == "augment":
            augmented = parse_samples((out / "augmented.json").read_bytes(), labeled=False)
            assert augmented.labels() == [label for label in labels for _ in range(2)]
        elif command == "features":
            header = (out / "features.csv").read_text().splitlines()[0]
            assert header.endswith(",label") == (kind == "labeled")

    @pytest.mark.parametrize("name", list(MALFORMED_LABEL_RUNS))
    def test_malformed_label_refused_naming_record(
        self, tmp_path, name, dataset_file, gbm_file, capsys
    ):
        bad, rec_id = _edit_record(
            dataset_file, tmp_path / "bad.json", 3, lambda r: r.update(is_iceberg=2)
        )
        pred = _half_submission(dataset_file, tmp_path / "submission.csv")
        files = {"{bad}": bad, "{good}": dataset_file, "{gbm}": gbm_file, "{pred}": pred}
        argv = [files.get(a, a) for a in MALFORMED_LABEL_RUNS[name]]
        assert run(*argv, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"record 3 (id {rec_id!r}): is_iceberg must be 0 or 1, got 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("train-gbm", "--n-trees", 2),
            ("train-gbm", "--n-trees", 2, "--val-ratio", 0),
            ("train-cnn", "--epochs", 1),
            ("stack", "--k-folds", 2),
            ("curve", "--epochs", 1),
            ("eval",),
        ],
    )
    def test_learning_commands_need_every_label(self, tmp_path, argv, dataset_file, capsys):
        bare, rec_id = _edit_record(
            dataset_file, tmp_path / "bare.json", 5, lambda r: r.pop("is_iceberg")
        )
        if argv[0] == "eval":
            pred = _half_submission(bare, tmp_path / "submission.csv")
            argv = ("eval", "--pred", pred, "--truth", bare)
        else:
            argv = (*argv, "--input", bare)
        assert run(*argv, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"record 5 (id {rec_id!r}): missing field 'is_iceberg'" in err
        assert "Traceback" not in err
