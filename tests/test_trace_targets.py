"""The benchmark's span tracer still finds every function and layer it times.

`perfbench/spans.py` patches the names callers look up (for example
`sarberg.nn.prepare_inputs`); a rename in the program makes its `install()`
raise. Running it here catches that in the unit suite. The benchmark's own
self-test runs here too, so a change that breaks a workload's calls into the
program fails the suite, not first a benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import sarberg.ensemble
import sarberg.gbm
import sarberg.nn
from sarberg.data import SynthConfig, split_train_validation, synth_dataset
from sarberg.gbm import GbmParams, fit_gbm
from sarberg.nn import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    originals = (sarberg.nn.prepare_inputs, sarberg.ensemble.feature_matrix,
                 sarberg.nn.Network.forward)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert sarberg.nn.prepare_inputs is not originals[0]
    finally:
        tracer.uninstall()
    assert (sarberg.nn.prepare_inputs, sarberg.ensemble.feature_matrix,
            sarberg.nn.Network.forward) == originals


def test_predictors_call_traced_names():
    scenes = synth_dataset(SynthConfig(n_samples=4, seed=3))
    net = sarberg.nn.build_classifier(3, seed=1, conv_widths=(2, 2, 2), dense_width=4)
    net.channels = ("hh", "hv", "diff")
    net.channel_mean, net.channel_std = np.zeros(3), np.ones(3)
    net.fill_angle = 38.0
    model = fit_gbm(np.arange(8.0).reshape(4, 2).repeat(15, axis=1),
                    np.array([0.0, 0.0, 1.0, 1.0]), GbmParams(n_trees=2, min_samples_leaf=1))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        sarberg.ensemble.cnn_predictor(net)(scenes)
        sarberg.ensemble.gbm_predictor(model)(scenes)
    finally:
        tracer.uninstall()
    for name in ("nn.prepare_inputs", "nn.input_tensor", "nn.Network.forward_eval",
                 "features.feature_matrix", "gbm.predict_gbm"):
        assert name in tracer.names, name


def nodes_searched(model, X, params):
    """The nodes fit_gbm searched: those with depth left and at least
    2 * min_samples_leaf rows, split or not."""

    def walk(tree, i, rows, depth_left):
        if depth_left == 0 or rows.size < 2 * params.min_samples_leaf:
            return 0
        if tree.feature[i] < 0:
            return 1
        go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
        return (1 + walk(tree, tree.left[i], rows[go_left], depth_left - 1)
                + walk(tree, tree.right[i], rows[~go_left], depth_left - 1))

    return sum(walk(tree, 0, np.arange(X.shape[0]), params.max_depth) for tree in model.trees)


def test_fit_gbm_calls_traced_split_search():
    # The benchmark times the split search through `sarberg.gbm.best_split`;
    # folding it into fit_gbm would leave that span empty. One span per node
    # searched keeps `gbm.best_split.calls` a count of searches, whether the
    # node's layout was built or reused from the previous tree.
    # Two binary features: a node at depth 2 holds one value pair and is
    # searched without a split.
    rng = np.random.default_rng(9)
    X = rng.integers(0, 2, size=(60, 2)).astype(float)
    y = (rng.random(60) < 0.5).astype(float)
    params = GbmParams(n_trees=8, min_samples_leaf=3)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        model = sarberg.gbm.fit_gbm(X, y, params)
    finally:
        tracer.uninstall()
    assert "gbm.fit_gbm" in tracer.names
    searched = nodes_searched(model, X, params)
    internal = sum(int((tree.feature >= 0).sum()) for tree in model.trees)
    assert tracer.names.count("gbm.best_split") == searched > internal


def test_one_predict_span_per_scoring_call():
    # `gbm.predict_gbm.us_per_row` divides each span's time by its rows:
    # predict_gbm scores rows in chunks, and one call must still make one
    # span whose units are all the rows it scored.
    rng = np.random.default_rng(11)
    model = fit_gbm(rng.normal(size=(40, 3)), np.tile([0.0, 1.0], 20),
                    GbmParams(n_trees=3, min_samples_leaf=2))
    sizes = [1, 40, 2 * sarberg.gbm.PREDICT_CHUNK_ROWS + 3]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for n in sizes:
            sarberg.gbm.predict_gbm(model, rng.normal(size=(n, 3)))
        sarberg.ensemble.predict_gbm(model, rng.normal(size=(sizes[-1], 3)))
    finally:
        tracer.uninstall()
    spans = [u for name, u in zip(tracer.names, tracer.units) if name == "gbm.predict_gbm"]
    assert spans == sizes + sizes[-1:]


def test_gbm_oof_featurises_once():
    # The benchmark's gbm_oof metrics come from these spans: the member must
    # featurise the whole set once, through `sarberg.ensemble.feature_matrix`,
    # and fit every fold through the traced GBM names.
    scenes = synth_dataset(SynthConfig(n_samples=12, seed=5))
    trainers = {"gbm": sarberg.ensemble.gbm_trainer(GbmParams(n_trees=2, min_samples_leaf=1))}
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        sarberg.ensemble.oof_predictions(scenes, trainers, k_folds=3, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.names.count("features.feature_matrix") == 1
    for name in ("gbm.fit_gbm", "gbm.best_split", "gbm.predict_gbm"):
        assert name in tracer.names, name


def test_train_cnn_calls_traced_names():
    # The benchmark times augmentation and the classifier fit through
    # `sarberg.imageops.augment_dataset` and `sarberg.nn.fit`; a trainer that
    # bound either name at import would leave its span empty.
    train, val = split_train_validation(synth_dataset(SynthConfig(n_samples=8, seed=7)), 0.25, 1)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        sarberg.ensemble.train_cnn(train, val, TrainConfig(epochs=1, batch_size=4), 2)
    finally:
        tracer.uninstall()
    for name in ("imageops.augment_dataset", "nn.fit"):
        assert tracer.names.count(name) == 1, name


def test_benchmark_selftest_passes():
    # Every workload at its tiny size, untraced and traced; its files go to
    # the git-ignored perfbench/out/.
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
