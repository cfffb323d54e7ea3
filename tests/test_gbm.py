"""Boosted-tree tests against exhaustive split search and hand-run dynamics."""

import json
import weakref

import numpy as np
import pytest

import sarberg.gbm
from sarberg.gbm import (
    GbmModel,
    GbmParams,
    Tree,
    best_split,
    deserialize_gbm,
    fit_gbm,
    node_layout,
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

    def test_shrinkage_refuses_non_numbers(self):
        # True would boost at 1.0; a string would fail the range check with a TypeError.
        for bad in (True, np.bool_(True), "0.1", None):
            with pytest.raises(ValueError, match="shrinkage must be a number"):
                GbmParams(shrinkage=bad)
        assert GbmParams(shrinkage=np.float32(0.25)).shrinkage == 0.25
        assert GbmParams(shrinkage=1).shrinkage == 1


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

    def test_zero_feature_columns_rejected(self):
        # best_split would index a column that is not there.
        with pytest.raises(ValueError, match="no feature columns"):
            fit_gbm(np.zeros((10, 0)), [0, 1] * 5, GbmParams(n_trees=3, min_samples_leaf=1))

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
        return best_split(residual, node_layout(X, rows, min_leaf, orders))

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
            with pytest.raises(ValueError, match="cannot leave"):  # fit_gbm never searches it
                self.scan(X, residual, np.arange(2 * min_leaf - 1), min_leaf)

    def test_every_feature_constant_gives_no_split(self):
        X = np.tile([1.5, -2.0, 0.0], (12, 1))
        residual = np.random.default_rng(19).normal(size=12)
        for rows in (np.arange(12), np.arange(2, 9)):
            for min_leaf in (1, 3):
                assert self.scan(X, residual, rows, min_leaf) is None
                assert brute_force_split(X, residual, rows, min_leaf) is None


def oracle_best_split(X, residual, rows, min_samples_leaf, orders):
    """The split scan as it was before node layouts: the node's order, its
    sorted values and its tie mask rebuilt at every search. fit_gbm must
    pick bitwise the same splits with its layouts."""
    n = rows.size
    if n < 2 * min_samples_leaf:
        return None
    n_features = orders.shape[0]
    if n == X.shape[0]:
        order = orders
    else:
        in_node = np.zeros(X.shape[0], dtype=bool)
        in_node[rows] = True
        flat = orders.ravel()
        order = flat.compress(in_node.take(flat)).reshape(n_features, n)
    rs = residual.take(order)
    s1 = np.cumsum(rs, axis=1)

    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    left = s1[:, lo:hi]
    right = s1[:, -1:] - left
    gain = left * left
    gain /= n_left
    right *= right
    right /= n - n_left
    gain += right
    xs = X.ravel().take(order[:, lo : hi + 1] * n_features + np.arange(n_features)[:, None])
    np.copyto(gain, -np.inf, where=xs[:, :-1] >= xs[:, 1:])

    total = float(rs[0] @ rs[0])
    lows = total - gain.max(axis=1)
    tols = 1e-9 * (1.0 + np.abs(lows))
    best = None
    for j, (low, tol) in enumerate(zip(lows.tolist(), tols.tolist())):
        if low != np.inf and (best is None or low < best[0] - tol):
            best = (low, j)
    if best is None:
        return None

    j = best[1]
    b = int(np.argmax(total - gain[j] <= lows[j] + tols[j]))
    thr = (xs[j, b] + xs[j, b + 1]) / 2.0
    if thr >= xs[j, b + 1]:
        thr = xs[j, b]
    return j, float(thr)


def searched_row_sets(model, X, params):
    """Per tree, the row sets (as bytes) of the nodes fit_gbm searched: those
    with depth left and at least 2 * min_samples_leaf rows."""
    per_tree = []

    def walk(tree, i, rows, depth_left, found):
        if depth_left == 0 or rows.size < 2 * params.min_samples_leaf:
            return
        found.append(rows.tobytes())
        if tree.feature[i] >= 0:
            go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
            walk(tree, tree.left[i], rows[go_left], depth_left - 1, found)
            walk(tree, tree.right[i], rows[~go_left], depth_left - 1, found)

    for tree in model.trees:
        per_tree.append([])
        walk(tree, 0, np.arange(X.shape[0]), params.max_depth, per_tree[-1])
    return per_tree


def labelled_set(kind, n, rng):
    """n rows of 6 features: random labels, labels separable on two features,
    or random labels on small integers full of ties."""
    X = rng.normal(size=(n, 6))
    if kind == "separable":
        y = (X[:, 1] + 0.5 * X[:, 4] > 0.2).astype(float)
    else:
        y = (rng.random(n) < 0.5).astype(float)
    if kind == "tied":
        X = rng.integers(0, 3, size=(n, 6)).astype(float)
    y[:2] = (0.0, 1.0)
    return X, y


class TestLayoutReuse:
    """fit_gbm reuses a node's layout from the previous tree; the splits are
    bitwise those of a scan that rebuilds everything at every node."""

    @staticmethod
    def oracle_fit(monkeypatch, X, y, params):
        with monkeypatch.context() as m:
            m.setattr(sarberg.gbm, "node_layout", lambda X, rows, leaf, orders: (X, rows, leaf, orders))
            m.setattr(sarberg.gbm, "best_split",
                      lambda residual, a: oracle_best_split(a[0], residual, a[1], a[2], a[3]))
            return serialize_gbm(fit_gbm(X, y, params))

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["random", "separable", "tied"])
    def test_fit_bitwise_equals_oracle_scans(self, monkeypatch, kind, min_leaf):
        rng = np.random.default_rng(["random", "separable", "tied"].index(kind) * 10 + min_leaf)
        for depth in (1, 2, 3, 4):
            for n in (10, 43, 300):
                X, y = labelled_set(kind, n, rng)
                params = GbmParams(n_trees=12, max_depth=depth, min_samples_leaf=min_leaf)
                got = serialize_gbm(fit_gbm(X, y, params))
                assert got == self.oracle_fit(monkeypatch, X, y, params), (depth, n)
                if depth == 3:
                    assert serialize_gbm(fit_gbm(np.asfortranarray(X), y, params)) == got

    def test_fits_in_a_row_share_nothing(self, monkeypatch):
        # Same row count, so the same row sets recur in both fits; each fit
        # must scan its own X.
        rng = np.random.default_rng(31)
        params = GbmParams(n_trees=20, max_depth=3, min_samples_leaf=2)
        sets = [labelled_set("separable", 80, rng) for _ in range(2)]
        got = [serialize_gbm(fit_gbm(X, y, params)) for X, y in sets]
        assert got[0] != got[1]
        assert got == [self.oracle_fit(monkeypatch, X, y, params) for X, y in sets]

    def test_fortran_ordered_X_gives_the_same_model(self, monkeypatch):
        # node_layout takes X's values through one flat view, which copies X
        # unless it is C-ordered; fit_gbm makes it so once.
        X, y = labelled_set("random", 120, np.random.default_rng(33))
        params = GbmParams(n_trees=15, max_depth=3, min_samples_leaf=2)
        seen = []

        def recorded_layout(X, rows, min_leaf, orders):
            seen.append(X)
            return node_layout(X, rows, min_leaf, orders)

        want = serialize_gbm(fit_gbm(X, y, params))
        monkeypatch.setattr(sarberg.gbm, "node_layout", recorded_layout)
        assert serialize_gbm(fit_gbm(np.asfortranarray(X), y, params)) == want
        assert seen and all(x is seen[0] for x in seen) and seen[0].flags.c_contiguous

    @pytest.mark.parametrize("label_features", [(1,), (1, 4)])
    def test_one_layout_per_new_row_set_and_two_trees_alive(self, monkeypatch, label_features):
        # Labels separable on feature 1 alone give the same five searched
        # row sets in every tree; adding feature 4 makes them churn.
        X = np.random.default_rng(37).normal(size=(120, 6))
        y = (X[:, label_features].sum(axis=1) > 0.2).astype(float)
        params = GbmParams(n_trees=50, max_depth=3, min_samples_leaf=5)
        bound = 2 * (2**params.max_depth - 1)
        built, alive, most_alive = [], [], 0

        def count_alive():
            nonlocal most_alive
            most_alive = max(most_alive, sum(r() is not None for r in alive))

        def counted_layout(X, rows, min_leaf, orders):
            layout = node_layout(X, rows, min_leaf, orders)
            built.append(rows.tobytes())
            alive.append(weakref.ref(layout))
            return layout

        def counted_split(residual, layout):
            count_alive()
            return best_split(residual, layout)

        monkeypatch.setattr(sarberg.gbm, "node_layout", counted_layout)
        monkeypatch.setattr(sarberg.gbm, "best_split", counted_split)
        model = fit_gbm(X, y, params)
        searched = searched_row_sets(model, X, params)
        new = sum(len(set(tree) - set(prev)) for prev, tree in zip([[]] + searched, searched))
        assert len(built) == new
        assert most_alive <= bound
        assert all(r() is None for r in alive)  # nothing outlives the fit
        if label_features == (1,):
            assert len(built) == len({key for tree in searched for key in tree}) == 5
            assert sum(map(len, searched)) == 250
        else:
            assert len(built) > 100 and most_alive > bound // 2


class TestWinnerRule:
    """best_split takes the first feature of lowest SSE and runs the
    one-feature-at-a-time tie rule only when an earlier feature lies within
    that feature's slack. Either way it picks the oracle's split."""

    @pytest.fixture
    def sequential_calls(self, monkeypatch):
        calls = []
        sequential = sarberg.gbm._sequential_winner

        def counted(lows):
            calls.append(lows.size)
            return sequential(lows)

        monkeypatch.setattr(sarberg.gbm, "_sequential_winner", counted)
        return calls

    @staticmethod
    def scan(X, residual, rows, min_leaf):
        orders = np.argsort(X.T, axis=1, kind="stable")
        got = best_split(residual, node_layout(X, rows, min_leaf, orders))
        assert got == oracle_best_split(X, residual, rows, min_leaf, orders)
        return got

    def test_earlier_feature_within_the_slack_keeps_the_lead(self, sequential_calls):
        # Both features split the rows 3 | 3 and sum each side in opposite
        # orders. Feature 1's SSE comes out lower by rounding alone, so the
        # lowest SSE is feature 1's, and feature 0 leads by the tie rule.
        X = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0], [10.0, 12.0], [11.0, 11.0], [12.0, 10.0]])
        residual = np.array([0.1, 0.1, 0.1, 0.1, 0.1, 0.7])
        assert self.scan(X, residual, np.arange(6), 3) == (0, 6.5)
        assert sequential_calls == [2]
        # With the columns swapped the lower SSE is feature 0's own.
        assert self.scan(X[:, ::-1].copy(), residual, np.arange(6), 3) == (0, 6.5)
        assert sequential_calls == [2]

    def test_exact_ties_across_features_go_to_the_lowest_index(self, sequential_calls):
        rng = np.random.default_rng(41)
        noise, signal = rng.normal(size=(2, 30))
        residual = (signal > 0.3) + 0.1 * rng.normal(size=30)
        rows = np.arange(30)
        best = self.scan(signal[:, None], residual, rows, 2)
        assert self.scan(np.column_stack([signal, signal]), residual, rows, 2) == best
        got = self.scan(np.column_stack([noise, signal, signal, signal]), residual, rows, 2)
        assert got == (1, best[1])
        assert sequential_calls == []

    def test_every_feature_tied_gives_none(self, sequential_calls):
        residual = np.random.default_rng(42).normal(size=8)
        assert self.scan(np.tile([2.0, -1.0, 0.5], (8, 1)), residual, np.arange(8), 1) is None
        # Values differ only outside the boundaries that leave 3 rows a side.
        X = np.zeros((8, 2))
        X[7, 0], X[0, 1] = 1.0, -1.0
        assert self.scan(X, residual, np.arange(8), 3) is None
        assert self.scan(X, residual, np.arange(8), 1) is not None
        assert sequential_calls == []

    def test_single_feature(self, sequential_calls):
        rng = np.random.default_rng(43)
        X = rng.integers(0, 5, size=(25, 1)).astype(float)
        residual = rng.normal(size=25)
        for min_leaf in (1, 3, 6):
            for rows in (np.arange(25), np.sort(rng.choice(25, 15, replace=False))):
                got = self.scan(X, residual, rows, min_leaf)
                assert got is None or got[0] == 0
        assert sequential_calls == []

    def test_random_nodes_take_both_ways(self, sequential_calls):
        # A feature and its negation split the same rows, summed in opposite
        # orders: their SSEs tie within the slack, either one the lower.
        rng = np.random.default_rng(44)
        for _ in range(300):
            n = int(rng.integers(8, 40))
            base = rng.integers(0, 4, size=(n, 2)).astype(float)
            X = np.column_stack([base[:, 0], -base[:, 0], base[:, 1], -base[:, 1]])
            X = X[:, rng.permutation(4)]
            residual = rng.choice([-0.6, 0.4, 0.1, 0.3], size=n)
            rows = np.sort(rng.choice(n, int(rng.integers(4, n + 1)), replace=False))
            min_leaf = int(rng.integers(1, rows.size // 2 + 1))
            self.scan(X, residual, rows, min_leaf)
        assert 0 < len(sequential_calls) < 300


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


def tree_outputs(tree, X):
    """Each row's leaf value in one tree, moving every row down one level per
    pass: predict_gbm scored tree by tree this way before it walked all trees
    at once."""
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feature = tree.feature[node]
        inner = feature >= 0
        if not inner.any():
            return tree.value[node]
        go_left = X[rows, feature] <= tree.threshold[node]
        node = np.where(inner, np.where(go_left, tree.left[node], tree.right[node]), node)


def oracle_predict(model, X):
    scores = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        scores = scores + model.shrinkage * tree_outputs(tree, X)
    return sigmoid(scores)


def tree_depth(tree, i=0):
    if tree.feature[i] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[i]), tree_depth(tree, tree.right[i]))


class TestForestWalk:
    """predict_gbm walks all trees at once, over chunks of rows; its
    probabilities are bitwise those of scoring tree by tree."""

    @staticmethod
    def check(model, X):
        got = predict_gbm(model, X)
        assert got.tobytes() == oracle_predict(model, X).tobytes()

    @staticmethod
    def fitted(n_trees=25, max_depth=3, n=90, seed=51):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 5))
        y = (X[:, 0] + X[:, 2] * X[:, 3] + 0.5 * rng.normal(size=n) > 0).astype(float)
        params = GbmParams(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=3)
        return fit_gbm(X, y, params), rng.normal(size=(37, 5))

    def test_zero_trees(self):
        model = GbmModel(base_score=-0.3, shrinkage=0.1, feature_count=4)
        self.check(model, np.random.default_rng(52).normal(size=(9, 4)))
        self.check(model, np.zeros((0, 4)))

    def test_single_leaf_trees(self):
        model = GbmModel(base_score=0.2, shrinkage=0.3, feature_count=3)
        model.trees = [Tree.from_columns([-1], [0.0], [-1], [-1], [v]) for v in (0.7, -1.3, 0.1)]
        self.check(model, np.random.default_rng(53).normal(size=(11, 3)))

    def test_trees_of_uneven_depth(self):
        model, X = self.fitted(max_depth=5)
        model.trees.insert(3, Tree.from_columns([-1], [0.0], [-1], [-1], [0.4]))
        model.trees.append(Tree.from_columns([2, -1, -1], [0.1, 0, 0], [1, -1, -1], [2, -1, -1],
                                             [0, -0.5, 0.25]))
        assert len({tree_depth(tree) for tree in model.trees}) >= 3
        self.check(model, X)

    def test_model_read_back(self):
        model, X = self.fitted()
        self.check(deserialize_gbm(serialize_gbm(model)), X)
        self.check(deserialize_gbm(OLD_GBM_JSON), X_OLD)

    def test_one_row(self):
        model, X = self.fitted()
        self.check(model, X[:1])
        self.check(model, X[5:6])
        self.check(model, X[:0])

    def test_rows_across_the_chunk_boundary(self):
        model, _ = self.fitted()
        chunk = sarberg.gbm.PREDICT_CHUNK_ROWS
        X = np.random.default_rng(54).normal(size=(2 * chunk + 3, 5))
        for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            self.check(model, X[:n])
        self.check(model, np.asfortranarray(X))


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
