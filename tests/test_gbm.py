"""Boosted-tree tests against exhaustive split search and hand-run dynamics."""

import json

import numpy as np
import pytest

from sarberg.gbm import (
    GbmModel,
    GbmParams,
    Tree,
    best_split,
    deserialize_gbm,
    fit_gbm,
    predict_gbm,
    serialize_gbm,
)
from sarberg.mathutil import sigmoid


def brute_force_split(X, residual, rows, min_samples_leaf, tie_rtol=1e-9):
    """Exhaustive residual-SSE scan of one node's rows over every feature and
    midpoint.

    Replicates the documented tie-break (lowest feature index, then lowest
    threshold) with the same relative slack the implementation uses, since
    early-round residuals take only two values and exact SSE ties abound.
    """
    Xn, r = X[rows], residual[rows]
    best = None
    for j in range(X.shape[1]):
        uniq = np.unique(Xn[:, j])
        for a, b in zip(uniq[:-1], uniq[1:]):
            thr = (a + b) / 2.0
            if thr >= b:
                thr = a
            left = Xn[:, j] <= thr
            nl, nr = left.sum(), (~left).sum()
            if nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            sse = 0.0
            for side in (r[left], r[~left]):
                sse += float(np.sum(side**2) - np.sum(side) ** 2 / side.size)
            if best is None or sse < best[0] - tie_rtol * (1.0 + abs(sse)):
                best = (sse, j, thr)
    return None if best is None else (best[1], best[2])


def brute_force_first_split(X, y, min_samples_leaf):
    """The root split of the first tree, from the base-rate residuals."""
    base = np.clip(np.mean(y), 1e-6, 1 - 1e-6)
    return brute_force_split(X, y - base, np.arange(len(y)), min_samples_leaf)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GbmParams(n_trees=0)
        with pytest.raises(ValueError):
            GbmParams(max_depth=0)
        with pytest.raises(ValueError):
            GbmParams(shrinkage=0.0)
        with pytest.raises(ValueError):
            GbmParams(shrinkage=1.5)

    def test_integer_fields_refuse_other_types(self):
        # A max_depth of 2.5 would grow three levels, and True would pass as 1.
        for name in ("n_trees", "max_depth", "min_samples_leaf"):
            for bad in (2.5, 3.0, True, "3", np.float64(2.0), np.bool_(True)):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    GbmParams(**{name: bad})
            assert getattr(GbmParams(**{name: np.int64(2)}), name) == 2


class TestFit:
    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError, match="single class"):
            fit_gbm(X, np.ones(10), GbmParams(n_trees=2))

    def test_non_finite_feature_rejected(self):
        X = np.zeros((6, 2))
        X[3, 1] = np.inf
        y = np.array([0, 1, 0, 1, 0, 1])
        with pytest.raises(ValueError, match="non-finite"):
            fit_gbm(X, y, GbmParams(n_trees=2))

    def test_one_dimensional_separable_example(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        params = GbmParams(n_trees=50, max_depth=1, shrinkage=1.0, min_samples_leaf=1)
        model = fit_gbm(X, y, params)
        assert model.train_losses[-1] < 0.05
        root = model.trees[0]
        assert root.feature[0] >= 0
        assert 1.0 < root.threshold[0] < 2.0

    def test_first_split_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            n = int(rng.integers(10, 51))
            d = int(rng.integers(1, 6))
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            if y.min() == y.max():
                y[0] = 1.0 - y[0]
            params = GbmParams(n_trees=1, max_depth=3, min_samples_leaf=2)
            model = fit_gbm(X, y, params)
            expect = brute_force_first_split(X, y, 2)
            root = model.trees[0]
            assert (root.feature[0], root.threshold[0]) == expect, trial

    def test_every_node_matches_exhaustive_scan(self):
        # Integer features with duplicated columns: equal values within a
        # feature and equal SSEs across features both occur at every depth.
        rng = np.random.default_rng(15)
        checked = 0
        for trial in range(12):
            X, y = tied_integer_set(rng)
            params = GbmParams(n_trees=3, max_depth=3, min_samples_leaf=1 + trial % 3)
            checked += check_every_node(X, y, params, trial)
        assert checked > 100

    def test_deep_trees_on_tied_features_match_exhaustive_scan(self):
        # Depth 5 reaches nodes of a few rows, where gains tie across the
        # duplicated columns and the legal boundary range is narrow.
        rng = np.random.default_rng(16)
        checked = 0
        for trial in range(6):
            X, y = tied_integer_set(rng)
            params = GbmParams(n_trees=3, max_depth=5, min_samples_leaf=1 + trial % 3)
            checked += check_every_node(X, y, params, trial)
        assert checked > 150

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(float)
        model = fit_gbm(X, y, GbmParams(n_trees=60, max_depth=2))
        losses = np.array(model.train_losses)
        assert np.all(np.diff(losses) <= 1e-9)

    def test_base_score_is_logit_of_base_rate(self):
        X = np.random.default_rng(9).normal(size=(10, 2))
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        model = fit_gbm(X, y, GbmParams(n_trees=1))
        assert sigmoid(model.base_score) == pytest.approx(0.3, abs=1e-12)

    def test_monotone_feature_transform_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 3))
        y = (X[:, 1] > 0.2).astype(float)
        params = GbmParams(n_trees=10, max_depth=3, min_samples_leaf=2)
        model_a = fit_gbm(X, y, params)
        X2 = X.copy()
        X2[:, 1] = 2.0 * X[:, 1] + 1.0
        model_b = fit_gbm(X2, y, params)

        def structure(tree, i, transformed_feature):
            if tree.feature[i] < 0:
                return ("leaf", tree.value[i])
            return (
                tree.feature[i],
                structure(tree, tree.left[i], transformed_feature),
                structure(tree, tree.right[i], transformed_feature),
            )

        for ta, tb in zip(model_a.trees, model_b.trees):
            assert structure(ta, 0, 1) == structure(tb, 0, 1)
        assert np.array_equal(predict_gbm(model_a, X), predict_gbm(model_b, X2))


def tied_integer_set(rng):
    """20-60 rows of small integer features, each column repeated (reversed,
    and the first once more), with both classes present."""
    n = int(rng.integers(20, 61))
    base = rng.integers(0, 4, size=(n, int(rng.integers(2, 5)))).astype(float)
    X = np.concatenate([base, base[:, ::-1], base[:, :1]], axis=1)
    y = (rng.random(n) < 0.5).astype(float)
    y[:2] = (0.0, 1.0)
    return X, y


def check_every_node(X, y, params, trial):
    """Fit, then require every node of every tree to hold the exhaustive
    scan's split of its rows, or to be a leaf where the scan finds none.
    Returns the number of internal nodes checked."""
    model = fit_gbm(X, y, params)
    min_leaf = params.min_samples_leaf
    checked = 0

    def check(tree, i, rows, depth_left, residual):
        nonlocal checked
        is_leaf = tree.feature[i] < 0
        if depth_left == 0 or rows.size < 2 * min_leaf:
            assert is_leaf
            return
        expect = brute_force_split(X, residual, rows, min_leaf)
        if is_leaf:
            assert expect is None, trial
            return
        assert (tree.feature[i], tree.threshold[i]) == expect, trial
        checked += 1
        go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
        check(tree, tree.left[i], rows[go_left], depth_left - 1, residual)
        check(tree, tree.right[i], rows[~go_left], depth_left - 1, residual)

    for t, tree in enumerate(model.trees):
        so_far = GbmModel(model.base_score, model.shrinkage, X.shape[1], trees=model.trees[:t])
        check(tree, 0, np.arange(X.shape[0]), params.max_depth, y - predict_gbm(so_far, X))
    return checked


class TestScanEdges:
    """best_split called directly, against the exhaustive scan."""

    @staticmethod
    def scan(X, residual, rows, min_leaf):
        orders = np.argsort(X.T, axis=1, kind="stable")
        return best_split(X, residual, rows, min_leaf, orders)

    def test_node_of_two_min_leaves_has_one_boundary(self):
        rng = np.random.default_rng(17)
        for min_leaf in (1, 2, 3, 5):
            X = rng.integers(0, 3, size=(40, 6)).astype(float)
            X[:, 3:] = rng.normal(size=(40, 3))
            residual = rng.normal(size=40)
            for rows in (rng.choice(40, 2 * min_leaf, replace=False), np.arange(2 * min_leaf)):
                rows = np.sort(rows)
                got = self.scan(X, residual, rows, min_leaf)
                assert got == brute_force_split(X, residual, rows, min_leaf), (min_leaf, rows)
                assert got is not None  # the continuous columns always split
                assert self.scan(np.asfortranarray(X), residual, rows, min_leaf) == got
                left = X[rows, got[0]] <= got[1]
                assert left.sum() == min_leaf
            root_X, root_r = X[: 2 * min_leaf], residual[: 2 * min_leaf]
            rows = np.arange(2 * min_leaf)
            got = self.scan(root_X, root_r, rows, min_leaf)
            assert got == brute_force_split(root_X, root_r, rows, min_leaf), min_leaf
            assert self.scan(X, residual, np.arange(2 * min_leaf - 1), min_leaf) is None

    def test_every_feature_constant_gives_no_split(self):
        X = np.tile([1.5, -2.0, 0.0], (12, 1))
        residual = np.random.default_rng(19).normal(size=12)
        for rows in (np.arange(12), np.arange(2, 9)):
            for min_leaf in (1, 3):
                assert self.scan(X, residual, rows, min_leaf) is None
                assert brute_force_split(X, residual, rows, min_leaf) is None


class TestPredict:
    def test_zero_trees_constant_base_rate(self):
        model = GbmModel(base_score=0.4, shrinkage=0.1, feature_count=2)
        p = predict_gbm(model, np.zeros((5, 2)))
        assert np.allclose(p, sigmoid(0.4), atol=1e-15)

    def test_constant_positive_tree_raises_every_probability(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(float)
        model = fit_gbm(X, y, GbmParams(n_trees=5, max_depth=2))
        before = predict_gbm(model, X)
        model.trees.append(Tree.from_columns([-1], [0.0], [-1], [-1], [1.0]))
        after = predict_gbm(model, X)
        assert np.all(after > before)

    def test_training_probabilities_reproduced(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] - X[:, 2] > 0).astype(float)
        params = GbmParams(n_trees=40, max_depth=3)
        model = fit_gbm(X, y, params)
        from sarberg.mathutil import binary_logloss

        p = predict_gbm(model, X)
        assert binary_logloss(p, y) == pytest.approx(model.train_losses[-1], abs=1e-12)

    def test_dimension_mismatch(self):
        model = GbmModel(base_score=0.0, shrinkage=0.1, feature_count=3)
        with pytest.raises(ValueError, match="features"):
            predict_gbm(model, np.zeros((4, 2)))

    def test_probabilities_in_open_interval(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(float)
        model = fit_gbm(X, y, GbmParams(n_trees=100, max_depth=2))
        p = predict_gbm(model, X)
        assert np.all(p > 0.0) and np.all(p < 1.0)


# A model file as the linked-node trees wrote it: 3 trees of depth 2, with
# their probabilities on X_OLD.
OLD_GBM_JSON = (
    b'{"format":"sarberg-gbm","version":1,"feature_count":2,"shrinkage":0.1,'
    b'"base_score":0.0,"fill_angle":38.5,"trees":['
    b'{"feature":[0,0,-1,-1,-1],"threshold":[0.72,0.325,0.0,0.0,0.0],'
    b'"left":[1,2,-1,-1,-1],"right":[4,3,-1,-1,-1],"value":[0.0,0.0,0.0,2.0,-2.0]},'
    b'{"feature":[1,-1,1,-1,-1],"threshold":[-0.62,0.0,-0.37,0.0,0.0],'
    b'"left":[1,-1,3,-1,-1],"right":[2,-1,4,-1,-1],"value":[0.0,-1.9098177926181705,0.0,'
    b'1.9098177926181708,-3.7130381624766546e-17]},'
    b'{"feature":[1,-1,1,-1,-1],"threshold":[-0.62,0.0,-0.37,0.0,0.0],'
    b'"left":[1,-1,3,-1,-1],"right":[2,-1,4,-1,-1],"value":[0.0,-1.7523508822232616,0.0,'
    b'1.7523508822232616,-3.7130381624766546e-17]}]}'
)
X_OLD = np.array([
    [2.04, -2.56], [0.42, -0.57], [-0.45, -0.22], [-2.02, -0.23], [-0.87, 3.32],
    [0.23, -0.35], [-0.28, -0.67], [-1.06, -0.39], [0.48, -0.24], [0.96, -0.2],
])
P_OLD = [
    0.362110220391458, 0.637889779608542, 0.5, 0.5, 0.5, 0.5,
    0.40945547506996605, 0.590544524930034, 0.549833997312478, 0.4501660026875221,
]


class TestSerialization:
    def _trained(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 4))
        y = (X[:, 1] > 0).astype(float)
        return fit_gbm(X, y, GbmParams(n_trees=12, max_depth=3)), X

    def test_round_trip_equality(self):
        model, X = self._trained()
        again = deserialize_gbm(serialize_gbm(model))
        assert again.base_score == model.base_score
        assert again.shrinkage == model.shrinkage
        assert again.feature_count == model.feature_count
        assert len(again.trees) == len(model.trees)

    def test_round_trip_predictions_bitwise(self):
        model, X = self._trained()
        again = deserialize_gbm(serialize_gbm(model))
        assert np.array_equal(predict_gbm(model, X), predict_gbm(again, X))

    def test_corrupt_header_rejected(self):
        model, _ = self._trained()
        raw = serialize_gbm(model).replace(b"sarberg-gbm", b"not-a-model")
        with pytest.raises(ValueError, match="not a sarberg"):
            deserialize_gbm(raw)

    def test_version_mismatch_rejected(self):
        model, _ = self._trained()
        raw = serialize_gbm(model).replace(b'"version":1', b'"version":99')
        with pytest.raises(ValueError, match="version"):
            deserialize_gbm(raw)

    def test_fill_angle_round_trips_and_is_required(self):
        model, _ = self._trained()
        model.fill_angle = 38.25
        assert deserialize_gbm(serialize_gbm(model)).fill_angle == 38.25
        doc = json.loads(serialize_gbm(model))
        del doc["fill_angle"]
        with pytest.raises(ValueError, match="fill_angle"):
            deserialize_gbm(json.dumps(doc))

    def test_truncation_rejected(self):
        model, _ = self._trained()
        raw = serialize_gbm(model)
        with pytest.raises(ValueError, match="corrupt"):
            deserialize_gbm(raw[: len(raw) // 2])

    def test_file_from_before_flat_trees_loads_unchanged(self):
        model = deserialize_gbm(OLD_GBM_JSON)
        assert serialize_gbm(model) == OLD_GBM_JSON
        assert predict_gbm(model, X_OLD).tolist() == P_OLD

    def test_malformed_trees_rejected_as_corrupt(self):
        def set_(key, i, v):
            return lambda doc: doc["trees"][0][key].__setitem__(i, v)

        cases = {
            "child is its own node": set_("left", 0, 0),
            "child is an ancestor": set_("left", 1, 0),
            "child past the end": set_("right", 0, 5),
            "non-numeric feature": set_("feature", 0, "0"),
            "tree without value": lambda doc: doc["trees"][1].pop("value"),
            "trees not a list": lambda doc: doc.__setitem__("trees", 5),
            "feature below -1": set_("feature", 2, -2),
            "NaN leaf value": set_("value", 3, float("nan")),
            "NaN shrinkage": lambda doc: doc.__setitem__("shrinkage", float("nan")),
            "fractional feature_count": lambda doc: doc.__setitem__("feature_count", 2.9),
            "boolean feature_count": lambda doc: doc.__setitem__("feature_count", True),
            "string feature_count": lambda doc: doc.__setitem__("feature_count", "2"),
        }
        for name, corrupt in cases.items():
            doc = json.loads(OLD_GBM_JSON)
            corrupt(doc)
            with pytest.raises(ValueError, match="corrupt model"):
                deserialize_gbm(json.dumps(doc))
                pytest.fail(name)


class TestDepthOneEquivalence:
    def test_stump_sequence_matches_exhaustive_stumps(self):
        # Depth-1 boosting must pick the same stump an exhaustive scan picks,
        # round after round, on a small dataset.
        rng = np.random.default_rng(15)
        X = rng.normal(size=(18, 1))
        y = (X[:, 0] > 0.1).astype(float)
        params = GbmParams(n_trees=6, max_depth=1, shrinkage=0.5, min_samples_leaf=1)
        model = fit_gbm(X, y, params)

        scores = np.full(18, model.base_score)
        for tree in model.trees:
            p = sigmoid(scores)
            r = y - p
            best = None
            uniq = np.unique(X[:, 0])
            for a, b in zip(uniq[:-1], uniq[1:]):
                thr = (a + b) / 2.0
                left = X[:, 0] <= thr
                sse = sum(
                    float(np.sum(s**2) - np.sum(s) ** 2 / s.size)
                    for s in (r[left], r[~left])
                )
                if best is None or sse < best[0] - 1e-9 * (1.0 + abs(sse)):
                    best = (sse, thr)
            assert tree.threshold[0] == pytest.approx(best[1], abs=0)
            leaf_out = np.where(
                X[:, 0] <= tree.threshold[0],
                tree.value[tree.left[0]],
                tree.value[tree.right[0]],
            )
            scores = scores + params.shrinkage * leaf_out
