"""Out-of-fold prediction generation, blending, and logistic stacking.

A member is anything callable as trainer(train_set) -> predict_fn, where
predict_fn maps a SampleSet to {id: probability}. Factories for the two
built-in members (boosted trees on the statistics features, and the CNN)
live at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import nn
from .data import SampleSet, split_train_validation, impute_incidence
from .features import feature_matrix
from .gbm import GbmModel, GbmParams, fit_gbm, predict_gbm
from .mathutil import binary_logloss, logit, sigmoid

PredictionSet = dict[str, float]
Predictor = Callable[[SampleSet], PredictionSet]
Trainer = Callable[[SampleSet], Predictor]


@dataclass(frozen=True)
class OofMatrix:
    """Out-of-fold probabilities: one row per training sample, one column per member."""

    ids: tuple[str, ...]
    members: tuple[str, ...]
    values: np.ndarray  # (N, M)
    fold_of: np.ndarray  # (N,)

    def column(self, member: str) -> np.ndarray:
        return self.values[:, self.members.index(member)]


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
    """Retrain every member per fold; each row is predicted by the model
    that never saw it."""
    labels = sset.labels()
    if any(l is None for l in labels):
        raise ValueError("out-of-fold generation needs a fully labeled set")
    y = np.asarray(labels, dtype=np.int64)
    fold_of = stratified_folds(y, k_folds, seed)

    members = tuple(trainers)
    values = np.full((len(sset), len(members)), np.nan)
    for fold in range(k_folds):
        hold = fold_of == fold
        train_samples = tuple(s for s, h in zip(sset, hold) if not h)
        hold_samples = tuple(s for s, h in zip(sset, hold) if h)
        train_labels = {s.label for s in train_samples}
        if len(train_labels) < 2 or not hold_samples:
            raise ValueError(f"fold {fold} leaves a single-class training split")
        train_set = SampleSet(train_samples, provenance=sset.provenance)
        hold_set = SampleSet(hold_samples, provenance=sset.provenance)
        hold_rows = np.nonzero(hold)[0]
        for m, name in enumerate(members):
            predictor = trainers[name](train_set)
            preds = predictor(hold_set)
            for row, s in zip(hold_rows, hold_set):
                values[row, m] = preds[s.id]
    if not np.all(np.isfinite(values)):
        raise ValueError("a member produced non-finite out-of-fold predictions")
    return OofMatrix(
        ids=tuple(sset.ids()), members=members, values=values, fold_of=fold_of
    )


def _stack_loss_grad(theta: np.ndarray, Z: np.ndarray, y: np.ndarray):
    z = Z @ theta
    p = sigmoid(z)
    loss = binary_logloss(p, y)
    grad = Z.T @ (p - y) / y.size
    return loss, grad


def fit_stacker(oof: OofMatrix, y) -> Stacker:
    """Logistic regression on member logits, zero-initialized.

    Full-batch gradient descent with backtracking on the step size, run until
    the gradient norm falls below 1e-8 or 10000 iterations. The objective is
    convex, so the fit can always recover any single member (w=e_i, b=0).
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
    # Lipschitz bound for the logistic loss Hessian gives a safe opening step.
    lipschitz = max(float(np.mean(np.sum(Z * Z, axis=1))) / 4.0, 1e-12)
    step = 1.0 / lipschitz
    loss, grad = _stack_loss_grad(theta, Z, y)
    for _ in range(10000):
        if float(np.linalg.norm(grad)) < 1e-8:
            break
        while True:
            candidate = theta - step * grad
            new_loss, new_grad = _stack_loss_grad(candidate, Z, y)
            if new_loss <= loss - 0.5 * step * float(grad @ grad) or step < 1e-18:
                break
            step *= 0.5
        theta, loss, grad = candidate, new_loss, new_grad
        step *= 1.2
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


def blend(
    preds: Sequence[PredictionSet],
    mode: str = "mean",
    weights: Sequence[float] | None = None,
) -> PredictionSet:
    """Fixed combination of aligned prediction sets.

    mean: arithmetic mean of probabilities; logit_mean: sigmoid of the mean
    logit; weights: convex combination with the given nonnegative weights.
    """
    if not preds:
        raise ValueError("nothing to blend")
    ids = list(preds[0])
    for p in preds[1:]:
        if set(p) != set(ids):
            raise ValueError("prediction sets cover different ids")
    if mode == "weights":
        if weights is None or len(weights) != len(preds):
            raise ValueError("weights mode needs one weight per prediction set")
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
    elif mode not in ("mean", "logit_mean"):
        raise ValueError(f"unknown blend mode {mode!r}")

    out: PredictionSet = {}
    for sample_id in ids:
        values = np.array([p[sample_id] for p in preds])
        if mode == "mean":
            out[sample_id] = float(values.mean())
        elif mode == "logit_mean":
            out[sample_id] = float(sigmoid(np.mean(logit(values))))
        else:
            out[sample_id] = float(w @ values)
    return out


# ---------------------------------------------------------------------------
# Built-in members


def train_gbm(train_set: SampleSet, params: GbmParams) -> GbmModel:
    """Boosted trees on the 30 statistics features of a labelled set; the mean
    of its present angles fills missing ones and becomes the model's fill_angle."""
    imputed, fill_angle = impute_incidence(train_set)
    _, X, y = feature_matrix(imputed, fill_angle)
    model = fit_gbm(X, y, params)
    model.fill_angle = fill_angle
    return model


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


def gbm_trainer(params: GbmParams | None = None) -> Trainer:
    """Boosted trees on the 30 statistics features.

    Angle imputation is fit inside each training fold and its mean reused at
    prediction time, so no information leaks across folds.
    """
    params = params or GbmParams()
    return lambda train_set: gbm_predictor(train_gbm(train_set, params))


def cnn_trainer(cfg=None, val_ratio: float = 0.2) -> Trainer:
    """Reference CNN member, built from cfg's seed and dtype; holds out an
    inner validation split for the plateau monitor and best-epoch restore."""
    cfg = cfg or nn.TrainConfig(epochs=5)

    def train(train_set: SampleSet) -> Predictor:
        inner_train, inner_val = split_train_validation(train_set, val_ratio, cfg.seed)
        net = nn.build_classifier(len(cfg.channels), cfg.seed, dtype=np.dtype(cfg.dtype))
        net, _ = nn.fit(net, inner_train, inner_val, cfg)
        return cnn_predictor(net)

    return train
