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

Of a node's scan, only the cumulative residual sums change from one round to
the next. The rest is its layout (`node_layout`): the node's rows in each
feature's sorted order, the row counts on each side of every usable
boundary, the sorted values and the mask of ties between neighbours. As
XGBoost reuses its sorted column blocks across rounds (Chen & Guestrin 2016,
§4.1), `fit_gbm` keys each layout by the node's row set (`rows.tobytes()`;
X and min_samples_leaf are fixed within a fit) and hands the layouts built
or reused while growing one tree to the next tree's search, then drops them.
So at most two trees' searched nodes, 2·(2^max_depth - 1) layouts, are alive
at once, and none outlives the fit. The scan's arithmetic, and so every
split, is that of a scan that rebuilds the layout at every node.

A tree has one form, in memory and on disk: five preorder node arrays
(feature, threshold, left, right, value) with the root at node 0. A leaf has
feature -1 and children -1; an internal node sends a row left when
X[row, feature] <= threshold, and its children come after it. Scoring puts
every tree's nodes in one table and walks all trees and rows down one level
per pass, over chunks of rows; it adds the trees' outputs round by round, as
training did. Loading checks the arrays so that every walk ends on a leaf.
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


@dataclass
class NodeLayout:
    """The residual-free part of one node's split scan, over the boundary
    columns lo..lo + n_left.size - 1 that leave min_samples_leaf rows on each
    side (column b splits after sorted row b: b + 1 rows go left)."""

    order: np.ndarray  # (features, n) the node's rows, each feature's column sorted
    lo: int  # the first usable boundary column, min_samples_leaf - 1
    n_left: np.ndarray  # float64 row count left of each usable boundary
    n_right: np.ndarray  # n - n_left
    xs: np.ndarray  # X[order, feature] over columns lo .. lo + n_left.size
    tied: np.ndarray  # xs[:, :-1] >= xs[:, 1:]: no threshold between equal values


def node_layout(
    X: np.ndarray, rows: np.ndarray, min_samples_leaf: int, orders: np.ndarray
) -> NodeLayout:
    """The layout of the node over `rows`, which must hold at least
    2 * min_samples_leaf rows.

    `orders` is the (features, rows) index array that sorts each column of X
    once (stable). The node's rows are taken from every sorted column in one
    selection; the root uses `orders` as it is.
    """
    n = rows.size
    if n < 2 * min_samples_leaf:
        raise ValueError(f"a node of {n} rows cannot leave {min_samples_leaf} on each side")
    n_features = orders.shape[0]
    if n == X.shape[0]:
        order = orders
    else:
        in_node = np.zeros(X.shape[0], dtype=bool)
        in_node[rows] = True
        flat = orders.ravel()  # compress/take: half the time of a boolean index
        order = flat.compress(in_node.take(flat)).reshape(n_features, n)
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    # X[order, feature] over the columns in use, as one flat take (faster
    # than the 2-D fancy index).
    xs = X.ravel().take(order[:, lo : hi + 1] * n_features + np.arange(n_features)[:, None])
    return NodeLayout(order, lo, n_left, n - n_left, xs, xs[:, :-1] >= xs[:, 1:])


def best_split(residual: np.ndarray, layout: NodeLayout) -> tuple[int, float] | None:
    """Exact greedy scan over every feature and every midpoint threshold of
    one node, from its `node_layout`.

    Only the residuals change from one boosting round to the next, so the
    scan reads everything else from the layout, which `fit_gbm` reuses for a
    row set the previous tree searched too (see the module docstring): every
    (feature, boundary) pair is scored from one cumulative sum of the
    residuals along the sorted rows. The layout holds no residual-dependent
    value, so a reused layout gives bitwise the split a fresh one gives.

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
    slack (`_sequential_winner`). No later feature is lower than the first
    feature j of lowest SSE, so none can take the lead from j: j wins unless
    an earlier feature lies within j's slack of it, and only then does the
    rule run one feature at a time.
    """
    rs = residual.take(layout.order)
    s1 = np.cumsum(rs, axis=1)

    lo, xs = layout.lo, layout.xs
    left = s1[:, lo : lo + layout.n_left.size]  # L; R = T - L, with T the last cumulative sum
    right = s1[:, -1:] - left
    gain = left * left
    gain /= layout.n_left
    right *= right
    right /= layout.n_right
    gain += right
    np.copyto(gain, -np.inf, where=layout.tied)

    total = float(rs[0] @ rs[0])
    lows = total - gain.max(axis=1)
    j = int(lows.argmin())
    low = float(lows[j])
    if low == np.inf:  # every boundary of every feature lies between equal values
        return None
    tol = SPLIT_TIE_RTOL * (1.0 + abs(low))
    if j and not (low < lows[:j] - tol).all():  # an earlier feature within the slack
        j = _sequential_winner(lows)
        low = float(lows[j])
        tol = SPLIT_TIE_RTOL * (1.0 + abs(low))
    b = int(np.argmax(total - gain[j] <= low + tol))  # lowest tied threshold
    thr = (xs[j, b] + xs[j, b + 1]) / 2.0
    if thr >= xs[j, b + 1]:  # midpoint rounded up between adjacent floats
        thr = xs[j, b]
    return j, float(thr)


def _sequential_winner(lows: np.ndarray) -> int:
    """The feature the tie rule picks from the per-feature lowest SSEs
    (at least one finite), one feature at a time: a later feature takes the
    lead only if it is lower than the leader by more than its own slack."""
    best: tuple[float, int] | None = None
    for j, low in enumerate(lows.tolist()):
        tol = SPLIT_TIE_RTOL * (1.0 + abs(low))
        if low != np.inf and (best is None or low < best[0] - tol):
            best = (low, j)
    return best[1]


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
    last: dict[bytes, NodeLayout],
    this: dict[bytes, NodeLayout],
) -> None:
    """Append the subtree over `rows` to `nodes` in preorder, one
    [feature, threshold, left, right, value] row per node.

    Each node searched takes its layout from `last` (the previous tree's,
    keyed by the row set's bytes) or builds it, and records it in `this`."""
    split = None
    if depth_left > 0 and rows.size >= 2 * min_samples_leaf:
        key = rows.tobytes()
        layout = last.get(key)
        if layout is None:
            layout = node_layout(X, rows, min_samples_leaf, orders)
        this[key] = layout
        split = best_split(residual, layout)
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
        nodes, last, this,
    )
    node[3] = len(nodes)
    _build_tree(
        X, residual, hessian, rows[~go_left], depth_left - 1, min_samples_leaf, orders, outputs,
        nodes, last, this,
    )


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
    X = np.ascontiguousarray(X)  # node_layout's flat take would copy any other order
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if X.shape[1] == 0:
        raise ValueError("X has no feature columns")
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

    last: dict[bytes, NodeLayout] = {}
    for _ in range(params.n_trees):
        this: dict[bytes, NodeLayout] = {}
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
            last,
            this,
        )
        last = this  # the previous tree's layouts are dropped here
        model.trees.append(Tree.from_columns(*zip(*nodes)))
        scores = scores + params.shrinkage * outputs
        p = sigmoid(scores)
        model.train_losses.append(binary_logloss(p, y))
    return model


class _Forest(NamedTuple):
    """Every tree's nodes in one table, tree after tree, with child indices
    into the table. A leaf is its own left and right child and tests feature
    0, so a walk that has reached it stays there."""

    roots: np.ndarray  # (trees,) each tree's node 0
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # shrinkage * leaf value; 0.0 at an internal node
    depth: int  # the most levels any walk goes down


def _forest(trees: list[Tree], shrinkage: float) -> _Forest:
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([tree.feature for tree in trees])
    inner = feature >= 0
    at = np.arange(feature.size)
    shift = np.repeat(roots, sizes)
    left = np.where(inner, np.concatenate([tree.left for tree in trees]) + shift, at)
    right = np.where(inner, np.concatenate([tree.right for tree in trees]) + shift, at)
    depth, level = 0, roots[inner[roots]]
    while level.size:
        depth += 1
        level = np.concatenate([left[level], right[level]])
        level = level[inner[level]]
    return _Forest(
        roots,
        np.where(inner, feature, 0),
        np.concatenate([tree.threshold for tree in trees]),
        left,
        right,
        shrinkage * np.concatenate([tree.value for tree in trees]),
        depth,
    )


PREDICT_CHUNK_ROWS = 128


def predict_gbm(model: GbmModel, X) -> np.ndarray:
    """Probabilities sigmoid(base + shrinkage * sum of tree outputs).

    All trees are walked at once, down one level per pass, over chunks of
    PREDICT_CHUNK_ROWS rows so the (trees, rows) arrays stay small."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise ValueError(
            f"expected {model.feature_count} features, got shape {X.shape}"
        )
    scores = np.full(X.shape[0], model.base_score)
    if not model.trees:
        return sigmoid(scores)
    forest = _forest(model.trees, model.shrinkage)
    flat = np.ascontiguousarray(X).ravel()  # X[row, feature] as one flat take
    for start in range(0, X.shape[0], PREDICT_CHUNK_ROWS):
        chunk = slice(start, start + PREDICT_CHUNK_ROWS)
        row_at = np.arange(start, min(start + PREDICT_CHUNK_ROWS, X.shape[0])) * X.shape[1]
        node = np.repeat(forest.roots[:, None], row_at.size, axis=1)
        for _ in range(forest.depth):
            go_left = flat.take(forest.feature.take(node) + row_at) <= forest.threshold.take(node)
            node = np.where(go_left, forest.left.take(node), forest.right.take(node))
        # cumsum adds the trees' outputs to the base score one round after
        # another, as the training loop added them, so training-row
        # predictions reproduce the final-round probabilities bitwise.
        outputs = forest.value.take(node)
        outputs[0] += scores[chunk]
        scores[chunk] = np.cumsum(outputs, axis=0)[-1]
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
