"""Gradient-boosted regression trees for binary classification under logloss.

Each boosting round fits a depth-limited regression tree to the residuals
y - p by exact greedy split search (no histogram binning: datasets here are
small enough that exactness is affordable and lets tests brute-force the same
scan). As in XGBoost's exact greedy algorithm (Chen & Guestrin 2016), every
column is sorted once per fit; each node then scores the splits of all
features in one array pass over that presorted index array. Leaf values are
Newton steps clamped to [-4, 4], scaled by shrinkage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .mathutil import binary_logloss, sigmoid

SERIAL_FORMAT = "sarberg-gbm"
SERIAL_VERSION = 1

LEAF_VALUE_CLAMP = 4.0
HESSIAN_FLOOR = 1e-12
BASE_RATE_CLAMP = 1e-6


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (value)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class GbmParams:
    n_trees: int = 200
    max_depth: int = 3
    shrinkage: float = 0.1
    min_samples_leaf: int = 5

    def __post_init__(self):
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
    trees: list[TreeNode] = field(default_factory=list)
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
    selection, and the residual SSE of every (feature, boundary) pair comes
    from one pass of cumulative sums along the sorted rows.

    Minimizes the summed squared error of the residuals over the two sides.
    Ties break toward the lowest feature index, then the lowest threshold.
    Candidates within a 1e-9 relative slack count as tied, so an independent
    rescan with a different summation order ranks them identically (exact
    ties are common: early rounds have only two distinct residual values).
    Within a feature the slack is taken from that feature's minimum; across
    features a later feature wins only if it is lower by more than its own
    slack.
    """
    n = rows.size
    n_features = orders.shape[0]
    in_node = np.zeros(X.shape[0], dtype=bool)
    in_node[rows] = True
    order = orders[in_node[orders]].reshape(n_features, n)
    xs = X[order, np.arange(n_features)[:, None]]
    rs = residual[order]

    s1 = np.cumsum(rs, axis=1)
    s2 = np.cumsum(rs * rs, axis=1)
    # Column b splits after sorted row b: b + 1 rows go left.
    n_left = np.arange(1, n)
    n_right = n - n_left
    left_s1 = s1[:, :-1]
    left_s2 = s2[:, :-1]
    sse = (
        left_s2
        - left_s1**2 / n_left
        + (s2[:, -1:] - left_s2)
        - (s1[:, -1:] - left_s1) ** 2 / n_right
    )
    sse[xs[:, :-1] >= xs[:, 1:]] = np.inf  # no threshold between equal values
    sse[:, (n_left < min_samples_leaf) | (n_right < min_samples_leaf)] = np.inf

    lows = sse.min(axis=1)
    tols = SPLIT_TIE_RTOL * (1.0 + np.abs(lows))
    best: tuple[float, int] | None = None
    for j, (low, tol) in enumerate(zip(lows.tolist(), tols.tolist())):
        if low != np.inf and (best is None or low < best[0] - tol):
            best = (low, j)
    if best is None:
        return None

    j = best[1]
    b = int(np.argmax(sse[j] <= lows[j] + tols[j]))  # lowest tied threshold
    thr = (xs[j, b] + xs[j, b + 1]) / 2.0
    if thr >= xs[j, b + 1]:  # midpoint rounded up between adjacent floats
        thr = xs[j, b]
    return j, float(thr)


def _leaf_value(residual, hessian, rows) -> float:
    num = float(np.sum(residual[rows]))
    den = max(float(np.sum(hessian[rows])), HESSIAN_FLOOR)
    return float(np.clip(num / den, -LEAF_VALUE_CLAMP, LEAF_VALUE_CLAMP))


def _build_tree(
    X: np.ndarray,
    residual: np.ndarray,
    hessian: np.ndarray,
    rows: np.ndarray,
    depth_left: int,
    min_samples_leaf: int,
    orders: np.ndarray,
    outputs: np.ndarray,
) -> TreeNode:
    if depth_left == 0 or rows.size < 2 * min_samples_leaf:
        value = _leaf_value(residual, hessian, rows)
        outputs[rows] = value
        return TreeNode(value=value)

    split = best_split(X, residual, rows, min_samples_leaf, orders)
    if split is None:
        value = _leaf_value(residual, hessian, rows)
        outputs[rows] = value
        return TreeNode(value=value)
    feature, threshold = split

    go_left = X[rows, feature] <= threshold
    left_rows = rows[go_left]
    right_rows = rows[~go_left]
    node = TreeNode(feature=feature, threshold=threshold)
    node.left = _build_tree(
        X, residual, hessian, left_rows, depth_left - 1, min_samples_leaf, orders, outputs
    )
    node.right = _build_tree(
        X, residual, hessian, right_rows, depth_left - 1, min_samples_leaf, orders, outputs
    )
    return node


def _eval_tree(node: TreeNode, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if node.is_leaf:
        out[rows] = node.value
        return
    go_left = X[rows, node.feature] <= node.threshold
    _eval_tree(node.left, X, rows[go_left], out)
    _eval_tree(node.right, X, rows[~go_left], out)


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
        tree = _build_tree(
            X,
            residual,
            hessian,
            all_rows,
            params.max_depth,
            params.min_samples_leaf,
            orders,
            outputs,
        )
        model.trees.append(tree)
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
    rows = np.arange(X.shape[0])
    scores = np.full(X.shape[0], model.base_score)
    out = np.empty(X.shape[0])
    # Accumulate round by round, matching the training loop's addition order
    # so training-row predictions reproduce the final-round probabilities.
    for tree in model.trees:
        _eval_tree(tree, X, rows, out)
        scores = scores + model.shrinkage * out
    return sigmoid(scores)


# ---------------------------------------------------------------------------
# Serialization (versioned JSON, flat node arrays)


def _flatten_tree(root: TreeNode) -> dict:
    feature, threshold, left, right, value = [], [], [], [], []

    def add(node: TreeNode) -> int:
        i = len(feature)
        feature.append(node.feature)
        threshold.append(node.threshold)
        left.append(-1)
        right.append(-1)
        value.append(node.value)
        if not node.is_leaf:
            left[i] = add(node.left)
            right[i] = add(node.right)
        return i

    add(root)
    return {
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": right,
        "value": value,
    }


def _unflatten_tree(flat: dict) -> TreeNode:
    feature = flat["feature"]
    n = len(feature)
    for key in ("threshold", "left", "right", "value"):
        if len(flat[key]) != n:
            raise ValueError("corrupt model: ragged tree arrays")

    def build(i: int) -> TreeNode:
        if not (0 <= i < n):
            raise ValueError(f"corrupt model: node index {i} out of range")
        if feature[i] < 0:
            return TreeNode(value=float(flat["value"][i]))
        return TreeNode(
            feature=int(feature[i]),
            threshold=float(flat["threshold"][i]),
            left=build(flat["left"][i]),
            right=build(flat["right"][i]),
        )

    return build(0)


def serialize_gbm(model: GbmModel) -> bytes:
    doc = {
        "format": SERIAL_FORMAT,
        "version": SERIAL_VERSION,
        "feature_count": model.feature_count,
        "shrinkage": model.shrinkage,
        "base_score": model.base_score,
        "fill_angle": model.fill_angle,
        "trees": [_flatten_tree(t) for t in model.trees],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def deserialize_gbm(raw: bytes | str) -> GbmModel:
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
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
    model = GbmModel(
        base_score=float(doc["base_score"]),
        shrinkage=float(doc["shrinkage"]),
        feature_count=int(doc["feature_count"]),
        fill_angle=None if doc["fill_angle"] is None else float(doc["fill_angle"]),
    )
    model.trees = [_unflatten_tree(t) for t in doc["trees"]]
    for tree in model.trees:
        _check_feature_indices(tree, model.feature_count)
    return model


def _check_feature_indices(node: TreeNode, feature_count: int) -> None:
    if node.is_leaf:
        return
    if node.feature >= feature_count:
        raise ValueError(
            f"corrupt model: feature index {node.feature} >= {feature_count}"
        )
    _check_feature_indices(node.left, feature_count)
    _check_feature_indices(node.right, feature_count)
