"""Out-of-fold prediction generation, blending, and logistic stacking.

An out-of-fold member is called in two steps: member(full_set) -> fold, then
fold(train_rows, hold_rows) -> one probability per held-out row, in their
order. Rows are integer indices into the full set. The first call is made
once per out-of-fold run, so a member does there the work that does not
depend on the fold: the boosted-tree member featurises every scene once and
per fold only fills the missing angles. Factories for the two built-in
members (boosted trees on the statistics features, and the CNN) live at the
bottom, next to `train_gbm` and `train_cnn`, which fit one model on a whole
set, and the predictors that score a whole SampleSet with one saved model.

The folds are shared with one forked child, on the state both processes
inherit from the members' first call (`forked.map_items`, whose docstring
holds the fork contract). So fold(train_rows, hold_rows) may depend only on
its arguments and on what the member's first call made, and it returns an
array: a child-run fold's predictions come back pickled, as float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import forked, imageops, nn
from .data import SampleSet, mean_incidence, split_train_validation
from .features import FEATURE_NAMES, feature_matrix
from .gbm import GbmModel, GbmParams, fit_gbm, predict_gbm
from .mathutil import logit, sigmoid

PredictionSet = dict[str, float]
Predictor = Callable[[SampleSet], PredictionSet]
# An out-of-fold member (see above): member(full_set) -> fold, and
# fold(train_rows, hold_rows) -> one probability per held-out row.
Trainer = Callable[[SampleSet], Callable[[np.ndarray, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class OofMatrix:
    """Out-of-fold probabilities: one row per training sample, one column per member."""

    ids: tuple[str, ...]
    members: tuple[str, ...]
    values: np.ndarray  # (N, M)
    fold_of: np.ndarray  # (N,)


@dataclass(frozen=True)
class Stacker:
    """Logistic combiner over member logits."""

    members: tuple[str, ...]
    weights: np.ndarray  # (M,)
    bias: float


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Assign each row a fold in 0..k-1, stratified by label, seeded.

    Within each class the shuffled rows are dealt round-robin, so per-fold
    class proportions stay within one sample of the global ones.
    """
    if k < 2:
        raise ValueError("k_folds must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % k
    return fold_of


def oof_predictions(
    sset: SampleSet,
    trainers: Mapping[str, Trainer],
    k_folds: int = 5,
    seed: int = 0,
) -> OofMatrix:
    """Refit every member per fold on the other folds' rows; each row is
    predicted by the model that never saw it. Each member sees the full set
    once, before the first fold. A member's refusal names the fold; where
    several folds refuse, the lowest one is named. An empty set is refused.
    The folds are shared with one forked child (`forked.map_items`)."""
    if len(sset) == 0:
        raise ValueError("empty sample set")
    labels = sset.labels()
    if any(l is None for l in labels):
        raise ValueError("out-of-fold generation needs a fully labeled set")
    y = np.asarray(labels, dtype=np.int64)
    fold_of = stratified_folds(y, k_folds, seed)
    splits = []
    for fold in range(k_folds):
        hold = fold_of == fold
        train_rows, hold_rows = np.flatnonzero(~hold), np.flatnonzero(hold)
        if np.unique(y[train_rows]).size < 2:
            raise ValueError(f"fold {fold} leaves a single-class training split")
        if not hold_rows.size:
            raise ValueError(
                f"fold {fold} holds no rows: k_folds ({k_folds}) exceeds the row "
                f"count of the larger class ({np.bincount(y).max()})"
            )
        splits.append((train_rows, hold_rows))

    members = tuple(trainers)
    fold_fns = [trainers[name](sset) for name in members]

    def run(fold: int) -> np.ndarray:
        train_rows, hold_rows = splits[fold]
        block = np.empty((hold_rows.size, len(fold_fns)))
        for m, fold_fn in enumerate(fold_fns):
            try:
                block[:, m] = fold_fn(train_rows, hold_rows)
            except ValueError as e:
                raise ValueError(f"fold {fold}, member {members[m]!r}: {e}") from None
        return block

    values = np.empty((len(sset), len(members)))
    for (_, hold_rows), block in zip(splits, forked.map_items(run, range(k_folds))):
        values[hold_rows] = block
    if not np.all(np.isfinite(values)):
        raise ValueError("a member produced non-finite out-of-fold predictions")
    return OofMatrix(
        ids=tuple(sset.ids()), members=members, values=values, fold_of=fold_of
    )


def _stack_loss_grad(theta: np.ndarray, Z: np.ndarray, y: np.ndarray):
    """Mean logistic loss, its gradient and the probabilities at theta. The
    loss is taken from z as log(1 + e^z) - y*z, so it stays exact where a
    clamped probability would saturate."""
    z = Z @ theta
    p = sigmoid(z)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    grad = Z.T @ (p - y) / y.size
    return loss, grad, p


def fit_stacker(oof: OofMatrix, y) -> Stacker:
    """Logistic regression on member logits, zero-initialized.

    Damped Newton (IRLS): each step is the minimum-norm solution of H d = -g
    (lstsq), so a singular Hessian, from two identical members or a member
    at logit 0 throughout, moves tied weights alike and leaves a zero column's
    weight at 0. The step is halved until the loss falls by at least 1e-4 of
    the decrease its slope predicts (Armijo). The fit stops when the gradient
    norm falls below 1e-8, when no step lowers the loss, or after 100 steps.
    The objective is convex, so the fit can always recover any single member
    (w=e_i, b=0).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != len(oof.ids):
        raise ValueError("label count does not match the OOF matrix")
    if np.unique(y).size < 2:
        raise ValueError("stacking needs both classes present")
    logits = logit(oof.values)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite member logits")
    Z = np.concatenate([logits, np.ones((logits.shape[0], 1))], axis=1)

    theta = np.zeros(Z.shape[1])
    loss, grad, p = _stack_loss_grad(theta, Z, y)
    for _ in range(100):
        if float(np.linalg.norm(grad)) < 1e-8:
            break
        hessian = (Z.T * (p * (1.0 - p))) @ Z / y.size
        direction = -np.linalg.lstsq(hessian, grad, rcond=None)[0]
        slope = float(grad @ direction)
        step = 1.0
        while True:
            candidate = theta + step * direction
            new_loss, new_grad, new_p = _stack_loss_grad(candidate, Z, y)
            if new_loss <= loss + 1e-4 * step * slope or step < 1e-10:
                break
            step *= 0.5
        if not new_loss < loss:
            break
        theta, loss, grad, p = candidate, new_loss, new_grad, new_p
    return Stacker(
        members=oof.members, weights=theta[:-1].copy(), bias=float(theta[-1])
    )


def predict_stacker(
    stacker: Stacker, member_preds: Sequence[PredictionSet]
) -> PredictionSet:
    """Combine aligned member predictions into one probability per id."""
    if len(member_preds) != len(stacker.members):
        raise ValueError(
            f"expected {len(stacker.members)} member predictions, got {len(member_preds)}"
        )
    ids = list(member_preds[0])
    for preds in member_preds[1:]:
        if set(preds) != set(ids):
            raise ValueError("member predictions cover different ids")
    out: PredictionSet = {}
    for sample_id in ids:
        logits = logit([preds[sample_id] for preds in member_preds])
        z = float(stacker.weights @ logits + stacker.bias)
        out[sample_id] = float(sigmoid(z))
    return out


def blend(preds: Sequence[PredictionSet], mode: str = "mean") -> PredictionSet:
    """Per id, the arithmetic mean of aligned prediction sets' probabilities.
    `mode` names the combination; "mean" is the only one."""
    if not preds:
        raise ValueError("nothing to blend")
    if mode != "mean":
        raise ValueError(f"unknown blend mode {mode!r}")
    ids = list(preds[0])
    for p in preds[1:]:
        if set(p) != set(ids):
            raise ValueError("prediction sets cover different ids")
    return {sample_id: float(np.mean([p[sample_id] for p in preds])) for sample_id in ids}


# ---------------------------------------------------------------------------
# Built-in members


_ANGLE_COLUMN = FEATURE_NAMES.index("inc_angle")


def train_gbm(train_set: SampleSet, params: GbmParams) -> GbmModel:
    """Boosted trees on the 30 statistics features of a labelled set; the mean
    of its present angles fills missing ones as the features are read, and
    becomes the model's fill_angle."""
    fill_angle = mean_incidence(s.inc_angle for s in train_set)
    y = nn.label_vector(train_set)  # refuses an unlabeled scene before featurising
    _, X, _ = feature_matrix(train_set, fill_angle)
    model = fit_gbm(X, y, params)
    model.fill_angle = fill_angle
    return model


def train_cnn(
    train_set: SampleSet, val_set: SampleSet, cfg: nn.TrainConfig,
    multiplier: int = 1, encoder: nn.Network | None = None,
) -> tuple[nn.Network, nn.History]:
    """The reference CNN fitted on each training scene plus multiplier - 1
    transformed copies of it. The copies and the fresh weights draw from
    cfg.seed; an encoder's trunk replaces the fresh one before the fit."""
    train_set = imageops.augment_dataset(
        train_set, imageops.AugmentationPolicy(), multiplier, cfg.seed
    )
    net = nn.build_classifier(len(cfg.channels), cfg.seed, dtype=np.dtype(cfg.dtype))
    if encoder is not None:
        net = nn.transfer_encoder(encoder, net)
    return nn.fit(net, train_set, val_set, cfg)


def gbm_predictor(model: GbmModel) -> Predictor:
    """Score scenes with a GBM; a missing angle takes the model's fill_angle."""

    def predict(sset: SampleSet) -> PredictionSet:
        ids, X, _ = feature_matrix(sset, model.fill_angle)
        return {i: float(v) for i, v in zip(ids, predict_gbm(model, X))}

    return predict


def cnn_predictor(net) -> Predictor:
    """Score scenes with a classifier through its own `prepare_inputs`."""

    def predict(sset: SampleSet) -> PredictionSet:
        p = net.forward(nn.prepare_inputs(net, sset)).ravel()
        return {i: float(v) for i, v in zip(sset.ids(), p)}

    return predict


def gbm_trainer(params: GbmParams) -> Trainer:
    """Out-of-fold boosted trees on the 30 statistics features.

    Every scene is featurised once, on the full set, with NaN in a missing
    angle's slot: each fold has its own fill, and featurising per fold would
    repeat the whole pass to change one column. Per fold, the fill is the
    training rows' mean (as in `train_gbm`), written for the training and
    held-out rows alike, so no information leaks across folds.
    """

    def member(sset: SampleSet):
        _, X, y = feature_matrix(sset, math.nan)
        angles = [s.inc_angle for s in sset]

        def fold(train_rows: np.ndarray, hold_rows: np.ndarray) -> np.ndarray:
            fill_angle = mean_incidence(angles[r] for r in train_rows)
            filled = X.copy()
            filled[[a is None for a in angles], _ANGLE_COLUMN] = fill_angle
            model = fit_gbm(filled[train_rows], y[train_rows], params)
            return predict_gbm(model, filled[hold_rows])

        return fold

    return member


def _rows(sset: SampleSet, rows: np.ndarray) -> SampleSet:
    return SampleSet(tuple(sset[r] for r in rows), provenance=sset.provenance)


def cnn_trainer(cfg: nn.TrainConfig) -> Trainer:
    """Out-of-fold reference CNN: per fold, `train_cnn` with no augmentation or
    transfer on four fifths of the fold's training rows, the other fifth being
    the validation split for the plateau monitor and best-epoch restore."""

    def member(sset: SampleSet):
        def fold(train_rows: np.ndarray, hold_rows: np.ndarray) -> np.ndarray:
            inner_train, inner_val = split_train_validation(
                _rows(sset, train_rows), 0.2, cfg.seed
            )
            net, _ = train_cnn(inner_train, inner_val, cfg)
            preds = cnn_predictor(net)(_rows(sset, hold_rows))
            return np.fromiter(preds.values(), np.float64)

        return fold

    return member
