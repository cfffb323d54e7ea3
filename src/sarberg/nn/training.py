"""The training loop of both CNN stages: mini-batch Adam with plateau scheduling,
and best-epoch restore for the classifier."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from ..data import SampleSet, mean_incidence
from ..features import normalize_incidence
from ..mathutil import binary_accuracy, binary_logloss
from .network import INPUT_CHANNELS, Network
from .optim import Adam, PlateauScheduler


@dataclass(frozen=True)
class TrainConfig:
    """One training run's settings.

    The rate starts at lr0 and follows `PlateauScheduler`'s fixed rule: it is
    cut to a tenth after 5 epochs without improvement of the monitored loss,
    never below 1e-6; lr0 must be finite and above that floor. The input
    recipe is fixed: the angle-corrected HH and HV bands and their difference
    (`input_tensor`). channels names it for callers that size a network by
    it; a checkpoint naming another recipe is refused at load.
    """

    channels: ClassVar[tuple[str, ...]] = INPUT_CHANNELS

    epochs: int = 30
    batch_size: int = 32
    lr0: float = 0.001
    seed: int = 0
    dtype: str = "float32"  # parameter/activation dtype for nets built from this config

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not math.isfinite(self.lr0):
            raise ValueError(f"lr0 must be a finite number, got {self.lr0!r}")
        if self.lr0 <= PlateauScheduler.min_lr:
            raise ValueError(f"lr0 must exceed the scheduler's floor {PlateauScheduler.min_lr}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")


@dataclass
class History:
    """Per-epoch training record; lr is the rate used during that epoch."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.val_loss)

    def best_epoch(self) -> int:
        return int(np.argmin(self.val_loss))


# ---------------------------------------------------------------------------
# Input assembly


def input_tensor(sset: SampleSet, fill_angle: float | None) -> np.ndarray:
    """A sample set as the (N, 3, H, W) float64 tensor of INPUT_CHANNELS: each
    scene's HH and HV corrected for its angle, or fill_angle where it has none
    (`SarSample.filled_angle`, as feature_vector), and their difference.
    `load_network` refuses a checkpoint of another recipe. Every scene must
    have the first scene's (H, W)."""
    if len(sset) == 0:
        raise ValueError("empty sample set")
    hw = sset[0].hh.shape
    out = np.empty((len(sset), len(INPUT_CHANNELS), *hw), dtype=np.float64)
    for i, s in enumerate(sset):
        if s.hh.shape != hw:
            raise ValueError(
                f"sample {s.id!r}: bands are {s.hh.shape}, the first sample's {hw}"
            )
        angle = s.filled_angle(fill_angle)
        out[i, 0] = normalize_incidence(s.hh, angle)
        out[i, 1] = normalize_incidence(s.hv, angle)
    np.subtract(out[:, 0], out[:, 1], out=out[:, 2])  # derived_bands' diff, bitwise
    return out


def label_vector(sset: SampleSet) -> np.ndarray:
    labels = sset.labels()
    if any(l is None for l in labels):
        raise ValueError("sample set contains unlabeled samples")
    return np.asarray(labels, dtype=np.float64)


def _fit_inputs(net: Network, train: SampleSet) -> np.ndarray:
    """Set the network's preprocessing from the training set and return the
    set standardized. The mean of its present angles fills the missing ones,
    here and (as net.fill_angle) when serving."""
    fill_angle = mean_incidence(s.inc_angle for s in train)
    x = input_tensor(train, fill_angle)
    std = x.std(axis=(0, 2, 3))
    net.channels = INPUT_CHANNELS
    net.fill_angle = fill_angle
    net.channel_mean = x.mean(axis=(0, 2, 3))
    net.channel_std = np.where(std > 0, std, 1.0)
    return _standardize(net, x)


def _standardize(net: Network, x: np.ndarray) -> np.ndarray:
    """x, a fresh `input_tensor`, standardized in place and cast to net.dtype."""
    x -= net.channel_mean[None, :, None, None]
    x /= net.channel_std[None, :, None, None]
    return x.astype(net.dtype, copy=False)


def prepare_inputs(net: Network, sset: SampleSet) -> np.ndarray:
    """Inference-side input assembly with the preprocessing stored in the
    model: its fill angle for missing angles and its stats."""
    if net.channels is None or net.channel_mean is None or net.fill_angle is None:
        raise ValueError("network has no stored preprocessing; fit first")
    return _standardize(net, input_tensor(sset, net.fill_angle))


# ---------------------------------------------------------------------------
# Losses


def loss_logloss(p, y) -> float:
    """Mean binary cross-entropy with probabilities clamped to [1e-15, 1-1e-15]."""
    return binary_logloss(np.asarray(p).ravel(), np.asarray(y).ravel())


def loss_mse(pred, target) -> float:
    err = np.array(pred, dtype=np.float64)  # a copy: the caller's pred stays
    err -= np.asarray(target)
    err *= err
    return float(np.mean(err))


def _mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 2.0 * (pred - target) / pred.size


LOSSES = {"logloss": loss_logloss, "mse": loss_mse}


def _backprop_loss(net: Network, pred: np.ndarray, y, loss: str = "logloss") -> None:
    """Backpropagate the mean `loss` ("logloss" or "mse") of pred against y;
    gradients land on net.

    Logloss needs a trailing Sigmoid and enters at the sigmoid's input as
    (p - y)/N, with the p(1-p) of the sigmoid and of the loss cancelled.
    Chained through the sigmoid instead, float32 rounds p to exactly 0 or 1
    once |logit| exceeds ~17, p(1-p) is 0, and training stops there.
    """
    if loss == "logloss":
        p = np.asarray(pred, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(p.shape)
        net.backward(((p - y) / p.size).astype(net.dtype), logit_grad=True)
    else:
        net.backward(_mse_grad(pred, y).astype(net.dtype, copy=False))


# ---------------------------------------------------------------------------
# Training loops


def _train(net: Network, x: np.ndarray, target: np.ndarray, loss: str,
           cfg: TrainConfig, end_epoch: Callable[[float], float]) -> None:
    """The epoch loop of both stages: Adam on the mean `loss` of net(x)
    against target, over mini-batches reshuffled every epoch.

    The seeded generator draws the shuffles and the dropout masks, so a fixed
    seed reproduces a run bitwise. After each epoch end_epoch(lr) scores the
    net, with lr the rate that epoch used, and returns the loss the plateau
    rule watches.

    The layers' training state is dropped once, when the run ends: dropped
    after every step, the freed heap top was trimmed and faulted back in by
    the next step, about 7% slower.
    """
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(net)
    scheduler = PlateauScheduler(cfg.lr0)
    lr = cfg.lr0
    n = x.shape[0]
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            pred = net.forward(x[idx], training=True, rng=rng)
            _backprop_loss(net, pred, target[idx], loss)
            optimizer.step(lr)
        lr = scheduler.update(end_epoch(lr))
    net.drop_state()


def fit(
    net: Network, train: SampleSet, val: SampleSet, cfg: TrainConfig
) -> tuple[Network, History]:
    """Train the classifier; returns the parameters of the best-val-loss epoch.

    The preprocessing (incidence correction, the training set's fill angle
    and channel statistics) is fit on the training set and stored on the
    network; the validation set goes through `prepare_inputs`, as served.
    The rate is cut to a tenth after 5 epochs without a lower validation
    loss, never below 1e-6.
    """
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and validation sets must be non-empty")
    x_train = _fit_inputs(net, train)
    y_train = label_vector(train)
    x_val = prepare_inputs(net, val)
    y_val = label_vector(val)

    history = History()
    best_loss, best_state = np.inf, net.get_state()

    def end_epoch(lr: float) -> float:
        nonlocal best_loss, best_state
        p_tr = net.forward(x_train).ravel()
        p_va = net.forward(x_val).ravel()
        val_loss = loss_logloss(p_va, y_val)
        history.train_loss.append(loss_logloss(p_tr, y_train))
        history.val_loss.append(val_loss)
        history.train_acc.append(binary_accuracy(p_tr, y_train))
        history.val_acc.append(binary_accuracy(p_va, y_val))
        history.lr.append(lr)
        if val_loss < best_loss:
            best_loss, best_state = val_loss, net.get_state()
        return val_loss

    _train(net, x_train, y_train, "logloss", cfg, end_epoch)
    net.set_state(best_state)
    return net, history


def fit_autoencoder(
    net: Network, train: SampleSet, cfg: TrainConfig
) -> tuple[Network, list[float]]:
    """Train the autoencoder on reconstruction MSE of its standardized input.

    Returns the network (last epoch; reconstruction has no validation
    monitor) and the per-epoch MSE measured at each epoch's end, which the
    plateau rule watches.
    """
    if len(train) == 0:
        raise ValueError("empty sample set")
    x = _fit_inputs(net, train)
    losses: list[float] = []

    def end_epoch(lr: float) -> float:
        losses.append(loss_mse(net.forward(x), x))
        return losses[-1]

    _train(net, x, x, "mse", cfg, end_epoch)
    return net, losses


# ---------------------------------------------------------------------------
# Gradient checking


def gradient_check(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    loss: str = "logloss",
    n_params: int = 200,
    h: float = 1e-3,
    seed: int = 0,
) -> float:
    """Max relative error between backprop and central finite differences.

    Probes n_params randomly chosen parameters (all, if the net is smaller).
    The analytic side is the gradient `fit` trains on (`_backprop_loss`),
    after a training-mode forward with no random generator, so an active
    dropout layer raises; the finite differences use evaluation-mode
    forwards.
    """
    loss_fn = LOSSES[loss]
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    _backprop_loss(net, net.forward(x, training=True), y, loss)
    analytic = net.gradients()

    entries = []
    for key, arr in net.parameters():
        for flat in range(arr.size):
            entries.append((key, flat))
    rng = np.random.default_rng(seed)
    if len(entries) > n_params:
        chosen = rng.choice(len(entries), size=n_params, replace=False)
        entries = [entries[i] for i in chosen]

    params = dict(net.parameters())
    worst = 0.0
    for key, flat in entries:
        arr = params[key]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + h
        loss_plus = loss_fn(net.forward(x), y)
        arr.flat[flat] = orig - h
        loss_minus = loss_fn(net.forward(x), y)
        arr.flat[flat] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        exact = analytic[key].flat[flat]
        rel = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
