"""Out-of-fold generation, the logistic stacker, and fixed blends."""

import ast
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sarberg
from sarberg.data import SampleSet, SarSample, SynthConfig, split_train_validation, synth_dataset
from sarberg.ensemble import (
    OofMatrix,
    Stacker,
    blend,
    cnn_predictor,
    cnn_trainer,
    fit_stacker,
    gbm_predictor,
    gbm_trainer,
    oof_predictions,
    predict_stacker,
    stratified_folds,
    train_cnn,
    train_gbm,
)
from sarberg.gbm import GbmParams
from sarberg.imageops import AugmentationPolicy, augment_dataset
from sarberg.mathutil import binary_logloss, logit, sigmoid
from sarberg.nn import (
    TrainConfig,
    build_autoencoder,
    build_classifier,
    fit,
    transfer_encoder,
)


def labeled_set(n=40, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        label = i % 2
        # Ships get a visibly larger cross-pol gap, so features carry signal.
        hh = rng.normal(-20.0, 1.0, size=(5, 5))
        hv = hh - (2.0 if label else 9.0) + rng.normal(0, 0.3, size=(5, 5))
        samples.append(
            SarSample(
                id=f"s{i:03d}", hh=hh, hv=hv,
                inc_angle=30.0 + i % 7, label=label,
            )
        )
    return SampleSet(tuple(samples), provenance="synthetic")


def constant_trainer(p):
    return lambda _sset: lambda _train_rows, hold_rows: np.full(len(hold_rows), p)


def cheating_trainer(lo=0.001, hi=0.999):
    """Returns the true label as a (slightly soft) probability."""

    def member(sset):
        y = np.array(sset.labels())
        return lambda _train_rows, hold_rows: np.where(y[hold_rows] == 1, hi, lo)

    return member


def tiny_cnn_trainer():
    """A CNN member of conv widths (2, 2, 2), trained for one epoch per fold."""
    cfg = TrainConfig(epochs=1, batch_size=8, seed=3, dtype="float32")

    def member(sset):
        def rows(r):
            return SampleSet(tuple(sset[i] for i in r), provenance=sset.provenance)

        def fold(train_rows, hold_rows):
            train, val = split_train_validation(rows(train_rows), 0.25, cfg.seed)
            net = build_classifier(
                len(cfg.channels), cfg.seed, conv_widths=(2, 2, 2), dense_width=4,
                dtype=np.float32,
            )
            preds = cnn_predictor(fit(net, train, val, cfg)[0])(rows(hold_rows))
            return np.fromiter(preds.values(), np.float64)

        return fold

    return member


def fold_trainer(fold_of, on_fold):
    """A member whose fold calls on_fold(fold, in_child) and then predicts 0.5."""
    parent = os.getpid()

    def fold(_train_rows, hold_rows):
        on_fold(int(fold_of[hold_rows[0]]), os.getpid() != parent)
        return np.full(hold_rows.size, 0.5)

    return lambda _sset: fold


def bounded_oof(*args):
    """oof_predictions, failed after 30 s. Whether it returns or raises, it
    must leave no child process behind, which conftest checks after each test."""

    def expire(signum, frame):
        raise TimeoutError("oof_predictions did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        return oof_predictions(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestStratifiedFolds:
    def test_per_fold_class_balance_within_one(self):
        y = np.array([0] * 60 + [1] * 40)
        folds = stratified_folds(y, 5, seed=3)
        for k in range(5):
            members = y[folds == k]
            assert abs((members == 1).sum() - 8) <= 1
            assert abs(members.size - 20) <= 1

    def test_deterministic(self):
        y = np.array([0, 1] * 25)
        assert np.array_equal(stratified_folds(y, 4, 9), stratified_folds(y, 4, 9))


class TestOofPredictions:
    def test_every_sample_predicted_once_per_member(self):
        sset = labeled_set(100)
        trainers = {"a": constant_trainer(0.3), "b": constant_trainer(0.7)}
        oof = oof_predictions(sset, trainers, k_folds=5, seed=0)
        assert oof.values.shape == (100, 2)
        assert np.all(np.isfinite(oof.values))
        assert set(oof.fold_of) == set(range(5))

    def test_fixed_seed_fold_assignment(self):
        sset = labeled_set(30)
        trainers = {"a": constant_trainer(0.5)}
        a = oof_predictions(sset, trainers, k_folds=3, seed=4)
        b = oof_predictions(sset, trainers, k_folds=3, seed=4)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_cheating_member_reproduces_labels(self):
        sset = labeled_set(40)
        oof = oof_predictions(sset, {"cheat": cheating_trainer()}, k_folds=4, seed=1)
        y = np.array([s.label for s in sset])
        assert oof.members == ("cheat",)
        assert np.array_equal(oof.values[:, 0] > 0.5, y == 1)

    def test_unlabeled_rejected(self):
        p = np.zeros((4, 4))
        sset = SampleSet(
            (SarSample(id="u", hh=p, hv=p, label=None),
             SarSample(id="v", hh=p, hv=p, label=1)),
        )
        with pytest.raises(ValueError, match="labeled"):
            oof_predictions(sset, {"a": constant_trainer(0.5)}, 2, 0)

    def test_gbm_member_beats_chance(self):
        sset = labeled_set(60, seed=5)
        trainers = {"gbm": gbm_trainer(GbmParams(n_trees=30, max_depth=2))}
        oof = oof_predictions(sset, trainers, k_folds=3, seed=2)
        y = np.array([float(s.label) for s in sset])
        assert binary_logloss(oof.values[:, 0], y) < 0.4

    def test_gbm_member_equals_per_fold_training_bitwise(self):
        # Featurised once with the angle filled per fold, the GBM column must
        # equal training each fold on its own SampleSet and scoring the
        # held-out scenes through the CLI's predictor.
        base = labeled_set(45, seed=11)
        samples = [
            replace(s, inc_angle=None) if i % 6 == 2 else s for i, s in enumerate(base)
        ]
        samples[7] = replace(samples[7], angle_imputed=True)  # keeps its angle 30.0
        sset = SampleSet(tuple(samples), provenance="synthetic")
        params = GbmParams(n_trees=12, max_depth=2, min_samples_leaf=2)
        oof = oof_predictions(sset, {"gbm": gbm_trainer(params)}, k_folds=3, seed=6)

        expected = np.full(len(sset), np.nan)
        for fold in range(3):
            hold = oof.fold_of == fold
            train = SampleSet(tuple(s for s, h in zip(sset, hold) if not h), "synthetic")
            held = SampleSet(tuple(s for s, h in zip(sset, hold) if h), "synthetic")
            preds = gbm_predictor(train_gbm(train, params))(held)
            expected[hold] = [preds[s.id] for s in held]
        assert oof.values[:, 0].tobytes() == expected.tobytes()

    def test_fold_without_present_training_angle_named(self):
        sset = labeled_set(20, seed=3)
        y = np.array(sset.labels())
        # With two folds, fold 0 trains on fold 1's rows: leave those no angle.
        fold_of = stratified_folds(y, 2, seed=4)
        sset = SampleSet(
            tuple(replace(s, inc_angle=None) if f == 1 else s for s, f in zip(sset, fold_of)),
            provenance="synthetic",
        )
        trainers = {"gbm": gbm_trainer(GbmParams(n_trees=3, min_samples_leaf=1))}
        with pytest.raises(ValueError, match="fold 0.*inc_angle"):
            oof_predictions(sset, trainers, k_folds=2, seed=4)

    @pytest.mark.parametrize("n_ship,n_iceberg,k", [(12, 12, 20), (5, 3, 7), (2, 6, 7)])
    def test_empty_fold_named_by_its_cause(self, n_ship, n_iceberg, k):
        # Each class is dealt round-robin, so fold `larger` is the first empty one.
        base = labeled_set(40).samples
        sset = SampleSet(tuple(s for s in base if s.label == 0)[:n_ship]
                         + tuple(s for s in base if s.label == 1)[:n_iceberg])
        larger = max(n_ship, n_iceberg)
        with pytest.raises(ValueError) as info:
            oof_predictions(sset, {"a": constant_trainer(0.5)}, k, 0)
        assert str(info.value) == (
            f"fold {larger} holds no rows: k_folds ({k}) exceeds the row count "
            f"of the larger class ({larger})"
        )

    def test_empty_set_refused_before_fold_checks(self):
        with pytest.raises(ValueError, match="^empty sample set$"):
            oof_predictions(SampleSet(()), {"a": constant_trainer(0.5)}, 5, 0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the folds are shared only through os.fork")
class TestForkedFolds:
    K, SEED = 5, 1

    def folds(self, sset):
        return stratified_folds(np.array(sset.labels()), self.K, self.SEED)

    def per_fold_loop(self, sset, member):
        """The OOF column as one process computes it, fold after fold."""
        fold_of = self.folds(sset)
        expected = np.full(len(sset), np.nan)
        for fold in range(self.K):
            hold = fold_of == fold
            expected[hold] = member(sset)(np.flatnonzero(~hold), np.flatnonzero(hold))
        return expected

    @pytest.mark.parametrize("name", ["gbm", "cheat", "cnn"])
    def test_oof_bitwise_equal_to_one_process_loop(self, name):
        if name == "cnn":
            sset, member = synth_dataset(SynthConfig(n_samples=20, seed=4)), tiny_cnn_trainer()
        else:
            sset = labeled_set(45, seed=11)
            member = {"gbm": gbm_trainer(GbmParams(n_trees=12, max_depth=2)),
                      "cheat": cheating_trainer()}[name]
        oof = bounded_oof(sset, {name: member}, self.K, self.SEED)
        assert np.array_equal(oof.fold_of, self.folds(sset))
        assert oof.values[:, 0].tobytes() == self.per_fold_loop(sset, member).tobytes()

    def test_lowest_refused_fold_named_from_either_process(self):
        sset = labeled_set(40)
        fold_of = self.folds(sset)
        named_by = set()
        for lowest in range(self.K):
            for refused in (range(lowest, self.K), [lowest]):
                def refuse(fold, in_child, refused=refused):
                    if fold in refused:
                        raise ValueError(f"refused in the {'child' if in_child else 'parent'}")

                trainers = {"ok": constant_trainer(0.5), "bad": fold_trainer(fold_of, refuse)}
                with pytest.raises(ValueError) as info:
                    bounded_oof(sset, trainers, self.K, self.SEED)
                found = re.fullmatch(
                    rf"fold {lowest}, member 'bad': refused in the (parent|child)", str(info.value)
                )
                assert found, (lowest, list(refused), str(info.value))
                named_by.add(found[1])
        assert named_by == {"parent", "child"}

    @pytest.mark.parametrize("failure", ["exit", "type_error"])
    def test_failed_child_names_its_folds(self, failure):
        sset = labeled_set(40)
        ran_here = []

        def fail_in_child(fold, in_child):
            if not in_child:
                ran_here.append(fold)
            elif failure == "exit":
                os._exit(3)
            else:
                raise TypeError("not a refusal")

        member = fold_trainer(self.folds(sset), fail_in_child)
        with pytest.raises(RuntimeError) as info:
            bounded_oof(sset, {"m": member}, self.K, self.SEED)
        child_folds = sorted(set(range(self.K)) - set(ran_here))
        assert child_folds and str(child_folds) in str(info.value)
        assert f"status {3 if failure == 'exit' else 1}" in str(info.value)

    def test_failed_parent_kills_child(self):
        sset = labeled_set(40)

        def stall_child(fold, in_child):
            if in_child:
                time.sleep(60)
            raise TypeError("not a refusal")

        member = fold_trainer(self.folds(sset), stall_child)
        with pytest.raises(TypeError, match="not a refusal"):  # within bounded_oof's 30 s
            bounded_oof(sset, {"m": member}, self.K, self.SEED)

    def test_unflushed_stdout_printed_once(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from sarberg.data import SynthConfig, synth_dataset\n"
            "from sarberg.ensemble import oof_predictions\n"
            "sset = synth_dataset(SynthConfig(n_samples=12, seed=1))\n"
            "sys.stdout.write('x')\n"
            "member = lambda s: lambda t, h: np.full(h.size, 0.5)\n"
            "oof_predictions(sset, {'m': member}, 3, 0)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sarberg.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)  # so 'x' waits in the buffer at the fork
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=30
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"x"


class TestFitStacker:
    def _oof(self, columns, ids=None):
        n = len(next(iter(columns.values())))
        ids = ids or tuple(f"r{i}" for i in range(n))
        names = tuple(columns)
        values = np.stack([np.asarray(columns[m], dtype=float) for m in names], axis=1)
        return OofMatrix(ids=ids, members=names, values=values, fold_of=np.zeros(n, dtype=int))

    def test_near_perfect_member_dominated(self):
        rng = np.random.default_rng(6)
        y = (rng.random(80) < 0.5).astype(float)
        good = np.where(y == 1, 0.999, 0.001)
        noise = np.clip(rng.random(80), 0.05, 0.95)
        oof = self._oof({"good": good, "noise": noise})
        stacker = fit_stacker(oof, y)
        stacked = sigmoid(logit(oof.values) @ stacker.weights + stacker.bias)
        assert binary_logloss(stacked, y) <= binary_logloss(good, y)

    def test_identical_members_symmetric_weights(self):
        rng = np.random.default_rng(7)
        y = (rng.random(60) < 0.5).astype(float)
        col = np.clip(np.where(y == 1, 0.8, 0.3) + rng.normal(0, 0.05, 60), 0.01, 0.99)
        oof = self._oof({"m1": col, "m2": col})
        stacker = fit_stacker(oof, y)
        assert abs(stacker.weights[0] - stacker.weights[1]) < 1e-6

    def test_single_calibrated_member_not_degraded(self):
        # The combiner can express identity (w=1, b=0); convex training must
        # not land above the member's own loss.
        rng = np.random.default_rng(8)
        y = (rng.random(200) < 0.5).astype(float)
        z = rng.normal(0, 1.5, 200) + (2.0 * y - 1.0)
        member = sigmoid(z)
        oof = self._oof({"m": member})
        stacker = fit_stacker(oof, y)
        stacked = sigmoid(logit(oof.values) @ stacker.weights + stacker.bias)
        assert binary_logloss(stacked, y) <= binary_logloss(member, y) + 1e-9

    def test_constant_column_tolerated(self):
        rng = np.random.default_rng(9)
        y = (rng.random(50) < 0.5).astype(float)
        good = np.where(y == 1, 0.9, 0.1)
        oof = self._oof({"flat": np.full(50, 0.5), "good": good})
        stacker = fit_stacker(oof, y)
        stacked = sigmoid(logit(oof.values) @ stacker.weights + stacker.bias)
        assert binary_logloss(stacked, y) <= binary_logloss(good, y) + 1e-9

    def test_extreme_misclassified_logit_reaches_optimum(self):
        # One member whose logits sit at +-10.73, with one positive scene on
        # the negative side. Capped gradient descent stopped short here, at a
        # gradient norm of 1.5e-5; the fit must reach a stationary point.
        y = np.array([1.0] * 100 + [0.0] * 100)
        z = np.where(y == 1, 10.73, -10.73)
        z[0] = -10.73
        oof = self._oof({"m": sigmoid(z)})
        stacker = fit_stacker(oof, y)
        Z = np.stack([logit(oof.values[:, 0]), np.ones(y.size)], axis=1)
        p = sigmoid(Z @ np.append(stacker.weights, stacker.bias))
        assert np.linalg.norm(Z.T @ (p - y) / y.size) < 1e-8

    def test_single_class_rejected(self):
        oof = self._oof({"m": [0.2, 0.4, 0.6]})
        with pytest.raises(ValueError, match="classes"):
            fit_stacker(oof, np.ones(3))


class TestPredictStacker:
    def test_zero_stacker_outputs_half(self):
        s = Stacker(members=("a",), weights=np.zeros(1), bias=0.0)
        out = predict_stacker(s, [{"x": 0.9, "y": 0.2}])
        assert out == {"x": 0.5, "y": 0.5}

    def test_identity_single_member(self):
        s = Stacker(members=("a",), weights=np.ones(1), bias=0.0)
        out = predict_stacker(s, [{"x": 0.9, "y": 0.25}])
        assert out["x"] == pytest.approx(0.9, abs=1e-9)
        assert out["y"] == pytest.approx(0.25, abs=1e-9)

    def test_two_member_hand_case(self):
        s = Stacker(members=("a", "b"), weights=np.array([1.0, 1.0]), bias=0.0)
        out = predict_stacker(s, [{"x": 0.9}, {"x": 0.5}])
        # logit(0.5) = 0, so the sum is logit(0.9) and the output returns 0.9
        assert out["x"] == pytest.approx(0.9, abs=1e-9)

    def test_member_count_mismatch(self):
        s = Stacker(members=("a", "b"), weights=np.ones(2), bias=0.0)
        with pytest.raises(ValueError, match="member"):
            predict_stacker(s, [{"x": 0.5}])


class TestBlend:
    def test_mean(self):
        out = blend([{"a": 0.2}, {"a": 0.8}], mode="mean")
        assert out["a"] == pytest.approx(0.5)

    def test_mean_bounded_by_members(self):
        rng = np.random.default_rng(10)
        sets = [{f"i{k}": float(rng.random()) for k in range(20)} for _ in range(4)]
        out = blend(sets, mode="mean")
        for k in out:
            values = [s[k] for s in sets]
            assert min(values) <= out[k] <= max(values)

    def test_id_mismatch(self):
        with pytest.raises(ValueError, match="ids"):
            blend([{"a": 0.5}, {"b": 0.5}], mode="mean")

    def test_only_the_mean_mode(self):
        for mode in ("weights", "logit_mean"):
            with pytest.raises(ValueError, match="unknown blend mode"):
                blend([{"a": 0.5}, {"a": 0.6}], mode=mode)


class TestClassOverlap:
    """`SynthConfig.class_overlap` makes scenes that the GBM cannot separate."""

    def test_gbm_oof_accuracy_falls_as_overlap_rises(self):
        accuracy = []
        for t in (0.0, 0.6, 0.8, 0.9):
            sset = synth_dataset(SynthConfig(n_samples=200, seed=801, class_overlap=t))
            oof = oof_predictions(sset, {"gbm": gbm_trainer(GbmParams(n_trees=100))}, 5, 801)
            y = np.array(sset.labels())
            accuracy.append(float(np.mean((oof.values[:, 0] >= 0.5) == (y == 1))))
        assert accuracy[0] == 1.0
        assert all(a > b for a, b in zip(accuracy, accuracy[1:])), accuracy
        assert 0.65 <= accuracy[-1] <= 0.85, accuracy


class TestTrainCnn:
    """`train_cnn` is the one CNN recipe: augment, build, transfer, fit."""

    CFG = TrainConfig(epochs=2, batch_size=8, seed=3)

    def test_equals_the_steps_written_out(self):
        sset = synth_dataset(SynthConfig(n_samples=12, seed=6))
        train, val = split_train_validation(sset, 0.25, 1)
        encoder = build_autoencoder(3, seed=5, dtype=np.float32)
        net, history = train_cnn(train, val, self.CFG, 2, encoder=encoder)

        augmented = augment_dataset(train, AugmentationPolicy(), 2, self.CFG.seed)
        expected = build_classifier(3, self.CFG.seed, dtype=np.float32)
        expected = transfer_encoder(encoder, expected)
        expected, expected_history = fit(expected, augmented, val, self.CFG)

        assert history == expected_history and len(history) == 2
        state, expected_state = net.get_state(), expected.get_state()
        assert state.keys() == expected_state.keys()
        for key in state:
            assert state[key].tobytes() == expected_state[key].tobytes(), key

    def test_cnn_trainer_fold_is_train_cnn_on_its_inner_split(self):
        sset = synth_dataset(SynthConfig(n_samples=15, seed=8))
        cfg = replace(self.CFG, epochs=1)
        train_rows, hold_rows = np.arange(10), np.arange(10, 15)
        got = cnn_trainer(cfg)(sset)(train_rows, hold_rows)

        def rows(r):
            return SampleSet(tuple(sset[i] for i in r), provenance=sset.provenance)

        inner_train, inner_val = split_train_validation(rows(train_rows), 0.2, cfg.seed)
        net, _ = train_cnn(inner_train, inner_val, cfg)
        expected = np.fromiter(cnn_predictor(net)(rows(hold_rows)).values(), np.float64)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("trainer", ["gbm", "cnn"])
def test_trainers_refuse_an_unlabeled_scene(trainer):
    sset = synth_dataset(SynthConfig(n_samples=8, seed=2))
    unlabeled = SampleSet((replace(sset[0], label=None), *sset.samples[1:4]))
    with pytest.raises(ValueError, match="^sample set contains unlabeled samples$"):
        if trainer == "gbm":
            train_gbm(unlabeled, GbmParams(n_trees=2, min_samples_leaf=1))
        else:
            train_cnn(unlabeled, SampleSet(sset.samples[4:]), TrainConfig(epochs=1))


CNN_RECIPE = {"build_classifier", "transfer_encoder", "augment_dataset"}


def _recipe_uses(tree, module):
    """(where, step) for each call or import of a CNN recipe step in a module;
    where is "<module>.<function>", innermost, or "<module>" outside any."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in CNN_RECIPE:
                    found.add((where, name))
            elif isinstance(child, ast.ImportFrom):
                found.update((where, a.name) for a in child.names if a.name in CNN_RECIPE)
            visit(child, where)

    visit(tree, module)
    return found


def test_only_train_cnn_runs_the_cnn_recipe():
    """Outside the modules that define them, the recipe's steps are called in
    `ensemble.train_cnn` only, so no command trains the CNN its own way."""
    root = Path(sarberg.__file__).parent
    uses = set()
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).with_suffix("").as_posix().replace("/", ".")
        if module == "imageops" or module.startswith("nn."):
            continue
        uses |= _recipe_uses(ast.parse(path.read_text(), filename=str(path)), module)
    assert sorted(uses) == [("ensemble.train_cnn", name) for name in sorted(CNN_RECIPE)]


def test_recipe_uses_found_as_calls_and_imports():
    tree = ast.parse(
        "from .imageops import augment_dataset\n"
        "def outer():\n"
        "    def inner():\n"
        "        return nn.build_classifier(3, 0)\n"
        "    return augment_dataset(s, p, 2, 0), transfer_encoder\n"
    )
    assert _recipe_uses(tree, "m") == {
        ("m", "augment_dataset"), ("m.inner", "build_classifier"),
        ("m.outer", "augment_dataset"),
    }
