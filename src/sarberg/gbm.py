"""Gradient-boosted regression trees for binary classification under logloss.

Each boosting round fits a depth-limited regression tree to the residuals
y - p by exact greedy split search (no histogram binning: datasets here are
small enough that exactness is affordable and lets tests brute-force the same
scan). As in XGBoost's exact greedy algorithm (Chen & Guestrin 2016), every
column is sorted once per fit; each node then scores the splits of all
features from one cumulative sum of the residuals along that presorted index
array. A split is ranked by its gain L²/n_L + R²/n_R (the side sums of the
residuals over the side row counts), evaluated only where both sides keep
min_samples_leaf rows; the node's residual SSE minus the gain is the split's
SSE, so ranks and ties are those of the SSE (see `best_split`). Leaf values
are Newton steps clamped to [-4, 4], scaled by shrinkage.

A tree has one form, in memory and on disk: five preorder node arrays
(feature, threshold, left, right, value) with the root at node 0. A leaf has
feature -1 and children -1; an internal node sends a row left when
X[row, feature] <= threshold, and its children come after it. Scoring walks
all rows down one level per pass, and loading checks the arrays so that every
walk ends on a leaf.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mathutil import binary_logloss, sigmoid

SERIAL_FORMAT = "sarberg-gbm"
SERIAL_VERSION = 1

LEAF_VALUE_CLAMP = 4.0
HESSIAN_FLOOR = 1e-12
BASE_RATE_CLAMP = 1e-6


class Tree(NamedTuple):
    """One regression tree as preorder node arrays; node 0 is the root."""

    feature: np.ndarray  # int64; -1 marks a leaf
    threshold: np.ndarray  # float64; 0.0 at a leaf
    left: np.ndarray  # int64 node index; -1 at a leaf
    right: np.ndarray  # int64 node index; -1 at a leaf
    value: np.ndarray  # float64; 0.0 at an internal node

    @classmethod
    def from_columns(cls, feature, threshold, left, right, value) -> "Tree":
        """A tree from five equal-length sequences, one entry per node."""
        return cls(
            np.asarray(feature, dtype=np.int64),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
            np.asarray(value, dtype=np.float64),
        )


@dataclass(frozen=True)
class GbmParams:
    n_trees: int = 200
    max_depth: int = 3
    shrinkage: float = 0.1
    min_samples_leaf: int = 5

    def __post_init__(self):
        for name in ("n_trees", "max_depth", "min_samples_leaf"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.shrinkage, bool) or not isinstance(self.shrinkage, numbers.Real):
            raise ValueError(f"shrinkage must be a number, got {self.shrinkage!r}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (0.0 < self.shrinkage <= 1.0):
            raise ValueError("shrinkage must lie in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass
class GbmModel:
    base_score: float
    shrinkage: float
    feature_count: int
    fill_angle: float | None = None  # fills a missing angle; None if fit on bare X
    trees: list[Tree] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)  # base, then per round


SPLIT_TIE_RTOL = 1e-9


def best_split(
    X: np.ndarray,
    residual: np.ndarray,
    rows: np.ndarray,
    min_samples_leaf: int,
    orders: np.ndarray,
) -> tuple[int, float] | None:
    """Exact greedy scan over every feature and every midpoint threshold.

    `orders` is the (features, rows) index array that sorts each column of X
    once (stable). The node's rows are taken from every sorted column in one
    selection (the root uses `orders` as it is), and every (feature,
    boundary) pair is scored from one cumulative sum along the sorted rows.

    Minimizes the summed squared error of the residuals over the two sides.
    With S the node's sum of squared residuals, L and R the residual sums of
    the two sides and n_L, n_R their row counts, that SSE is S - G, where
    G = L²/n_L + R²/n_R is the split's gain (Chen & Guestrin 2016, eq. 7).
    So only the gain is evaluated, and only at the boundary columns
    [min_samples_leaf - 1, n - min_samples_leaf) that leave min_samples_leaf
    rows on each side. Each feature's lowest SSE is S - max(G): rounding is
    monotone, so that equals the smallest rounded S - G, and S - G is formed
    in full only on the winning feature's row, to find its lowest tied
    threshold. Ranks and ties are thus taken on the SSE; an SSE formed this
    way differs from one summed in another order only in rounding, far
    inside the tie slack below.

    Ties break toward the lowest feature index, then the lowest threshold.
    Candidates within a 1e-9 relative slack count as tied, so an independent
    rescan with a different summation order ranks them identically (exact
    ties are common: early rounds have only two distinct residual values).
    Within a feature the slack is taken from that feature's minimum; across
    features a later feature wins only if it is lower by more than its own
    slack.
    """
    n = rows.size
    if n < 2 * min_samples_leaf:
        return None
    n_features = orders.shape[0]
    if n == X.shape[0]:
        order = orders
    else:
        in_node = np.zeros(X.shape[0], dtype=bool)
        in_node[rows] = True
        flat = orders.ravel()  # compress/take: half the time of a boolean index
        order = flat.compress(in_node.take(flat)).reshape(n_features, n)
    rs = residual.take(order)
    s1 = np.cumsum(rs, axis=1)

    # Column b splits after sorted row b: b + 1 rows go left. Columns lo..hi-1
    # leave at least min_samples_leaf rows on each side.
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    left = s1[:, lo:hi]  # L; R = T - L, with T the last cumulative sum
    right = s1[:, -1:] - left
    gain = left * left
    gain /= n_left
    right *= right
    right /= n - n_left
    gain += right
    # X[order, feature] over the columns in use, as one flat take (faster
    # than the 2-D fancy index).
    xs = X.ravel().take(order[:, lo : hi + 1] * n_features + np.arange(n_features)[:, None])
    np.copyto(gain, -np.inf, where=xs[:, :-1] >= xs[:, 1:])  # no threshold between equal values

    total = float(rs[0] @ rs[0])
    lows = total - gain.max(axis=1)
    tols = SPLIT_TIE_RTOL * (1.0 + np.abs(lows))
    best: tuple[float, int] | None = None
    for j, (low, tol) in enumerate(zip(lows.tolist(), tols.tolist())):
        if low != np.inf and (best is None or low < best[0] - tol):
            best = (low, j)
    if best is None:
        return None

    j = best[1]
    b = int(np.argmax(total - gain[j] <= lows[j] + tols[j]))  # lowest tied threshold
    thr = (xs[j, b] + xs[j, b + 1]) / 2.0
    if thr >= xs[j, b + 1]:  # midpoint rounded up between adjacent floats
        thr = xs[j, b]
    return j, float(thr)


def _leaf_value(residual, hessian, rows) -> float:
    num = float(residual[rows].sum())
    den = max(float(hessian[rows].sum()), HESSIAN_FLOOR)
    return min(max(num / den, -LEAF_VALUE_CLAMP), LEAF_VALUE_CLAMP)


def _build_tree(
    X: np.ndarray,
    residual: np.ndarray,
    hessian: np.ndarray,
    rows: np.ndarray,
    depth_left: int,
    min_samples_leaf: int,
    orders: np.ndarray,
    outputs: np.ndarray,
    nodes: list[list],
) -> None:
    """Append the subtree over `rows` to `nodes` in preorder, one
    [feature, threshold, left, right, value] row per node."""
    split = None
    if depth_left > 0 and rows.size >= 2 * min_samples_leaf:
        split = best_split(X, residual, rows, min_samples_leaf, orders)
    if split is None:
        value = _leaf_value(residual, hessian, rows)
        outputs[rows] = value
        nodes.append([-1, 0.0, -1, -1, value])
        return
    feature, threshold = split

    go_left = X[rows, feature] <= threshold
    node = [feature, threshold, len(nodes) + 1, -1, 0.0]
    nodes.append(node)
    _build_tree(
        X, residual, hessian, rows[go_left], depth_left - 1, min_samples_leaf, orders, outputs,
        nodes,
    )
    node[3] = len(nodes)
    _build_tree(
        X, residual, hessian, rows[~go_left], depth_left - 1, min_samples_leaf, orders, outputs,
        nodes,
    )


def _tree_outputs(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Each row's leaf value, moving every row down one level per pass."""
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feature = tree.feature[node]
        inner = feature >= 0
        if not inner.any():
            return tree.value[node]
        go_left = X[rows, feature] <= tree.threshold[node]
        node = np.where(inner, np.where(go_left, tree.left[node], tree.right[node]), node)


def fit_gbm(X, y, params: GbmParams) -> GbmModel:
    """Boost regression trees on the logloss residuals.

    The model's train_losses holds the base-rate logloss followed by the
    training logloss after each round; the sequence is non-increasing (to
    1e-9) for any sane shrinkage.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (rows x features)")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite features")
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValueError("labels must be 0 or 1")
    if classes.size < 2:
        raise ValueError("training labels contain a single class")

    base_rate = float(np.clip(np.mean(y), BASE_RATE_CLAMP, 1.0 - BASE_RATE_CLAMP))
    base_score = float(np.log(base_rate / (1.0 - base_rate)))
    model = GbmModel(
        base_score=base_score, shrinkage=params.shrinkage, feature_count=X.shape[1]
    )

    orders = np.argsort(X.T, axis=1, kind="stable")
    all_rows = np.arange(X.shape[0])
    scores = np.full(X.shape[0], base_score)
    p = sigmoid(scores)
    model.train_losses.append(binary_logloss(p, y))

    for _ in range(params.n_trees):
        residual = y - p
        hessian = p * (1.0 - p)
        outputs = np.zeros(X.shape[0])
        nodes: list[list] = []
        _build_tree(
            X,
            residual,
            hessian,
            all_rows,
            params.max_depth,
            params.min_samples_leaf,
            orders,
            outputs,
            nodes,
        )
        model.trees.append(Tree.from_columns(*zip(*nodes)))
        scores = scores + params.shrinkage * outputs
        p = sigmoid(scores)
        model.train_losses.append(binary_logloss(p, y))
    return model


def predict_gbm(model: GbmModel, X) -> np.ndarray:
    """Probabilities sigmoid(base + shrinkage * sum of tree outputs)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise ValueError(
            f"expected {model.feature_count} features, got shape {X.shape}"
        )
    scores = np.full(X.shape[0], model.base_score)
    # Accumulate round by round, matching the training loop's addition order
    # so training-row predictions reproduce the final-round probabilities.
    for tree in model.trees:
        scores = scores + model.shrinkage * _tree_outputs(tree, X)
    return sigmoid(scores)


# ---------------------------------------------------------------------------
# Serialization (versioned JSON, the node arrays as lists)


def serialize_gbm(model: GbmModel) -> bytes:
    doc = {
        "format": SERIAL_FORMAT,
        "version": SERIAL_VERSION,
        "feature_count": model.feature_count,
        "shrinkage": model.shrinkage,
        "base_score": model.base_score,
        "fill_angle": model.fill_angle,
        "trees": [{k: col.tolist() for k, col in t._asdict().items()} for t in model.trees],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _load_tree(t: int, flat, feature_count: int) -> Tree:
    """Tree t of a model file, refused unless every walk from the root ends
    on a leaf: children point forward (parent < child < n), so no cycle."""
    where = f"corrupt model: tree {t}"
    if not isinstance(flat, dict) or any(k not in flat for k in Tree._fields):
        raise ValueError(f"{where} lacks one of {', '.join(Tree._fields)}")
    try:
        cols = [np.asarray(flat[k]) for k in Tree._fields]
    except ValueError as e:  # ragged nesting
        raise ValueError(f"{where}: {e}") from e
    n = cols[0].size
    if n == 0 or any(c.ndim != 1 or c.size != n for c in cols):
        raise ValueError(f"{where}: node arrays must be flat, non-empty and of equal length")
    for k, c in zip(Tree._fields, cols):
        numeric = c.dtype.kind in ("if" if k in ("threshold", "value") else "i")
        if not (numeric and np.isfinite(c).all()):
            raise ValueError(f"{where}: {k} holds a value that is not a finite number")
    tree = Tree.from_columns(*cols)
    if tree.feature.min() < -1 or tree.feature.max() >= feature_count:
        raise ValueError(f"{where}: feature index outside [-1, {feature_count})")
    inner = np.flatnonzero(tree.feature >= 0)
    for child in (tree.left[inner], tree.right[inner]):
        bad = (child <= inner) | (child >= n)
        if bad.any():
            i, c = inner[bad][0], child[bad][0]
            raise ValueError(f"{where}: node {i} has child {c}, outside ({i}, {n})")
    return tree


def deserialize_gbm(raw: bytes | str) -> GbmModel:
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"corrupt model file: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != SERIAL_FORMAT:
        raise ValueError("not a sarberg GBM model file")
    if doc.get("version") != SERIAL_VERSION:
        raise ValueError(
            f"unsupported model version {doc.get('version')!r}, expected {SERIAL_VERSION}"
        )
    for key in ("feature_count", "shrinkage", "base_score", "fill_angle", "trees"):
        if key not in doc:
            raise ValueError(f"corrupt model: missing {key!r}")
    if not isinstance(doc["trees"], list):
        raise ValueError("corrupt model: 'trees' is not a list")
    count = doc["feature_count"]
    if type(count) is not int or count < 1:  # int() would take 2.9, true or "2"
        raise ValueError(f"corrupt model: feature_count {count!r} is not a positive integer")
    try:
        model = GbmModel(
            base_score=float(doc["base_score"]),
            shrinkage=float(doc["shrinkage"]),
            feature_count=count,
            fill_angle=None if doc["fill_angle"] is None else float(doc["fill_angle"]),
        )
    except (TypeError, ValueError) as e:
        raise ValueError(f"corrupt model: {e}") from e
    if not np.isfinite([model.base_score, model.shrinkage, model.fill_angle or 0.0]).all():
        raise ValueError("corrupt model: base_score, shrinkage or fill_angle is not finite")
    model.trees = [_load_tree(t, flat, model.feature_count) for t, flat in enumerate(doc["trees"])]
    return model
