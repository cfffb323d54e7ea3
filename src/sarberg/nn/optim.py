"""Adam with bias correction, and the reduce-on-plateau learning-rate rule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and floor (Kingma & Ba 2015)
PLATEAU_THRESHOLD = 1e-6  # the least fall of a monitored loss that counts as a gain


@dataclass
class AdamState:
    """First/second moment estimates and the step counter for one parameter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(
    param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float
) -> np.ndarray:
    """One Adam update; mutates state, returns the new parameter value.

    m <- BETA1*m + (1-BETA1)*g;  v <- BETA2*v + (1-BETA2)*g^2;  bias-corrected
    by (1 - BETA^t) with t counted from 1; update is lr * m_hat / (sqrt(v_hat) + EPS).
    """
    grad = np.asarray(grad, dtype=param.dtype)
    if grad.shape != param.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter {param.shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1**state.t)
    v_hat = state.v / (1.0 - BETA2**state.t)
    return param - lr * m_hat / (np.sqrt(v_hat) + EPS)


class Adam:
    """Adam over a network's named parameters, one `adam_step` each."""

    def __init__(self, net):
        self.net = net
        self.state = {
            key: AdamState.zeros_like(arr) for key, arr in net.parameters()
        }

    def step(self, lr: float) -> None:
        grads = self.net.gradients()
        for i, layer in enumerate(self.net.layers):
            for name in layer.params:
                key = f"{i}.{name}"
                if key not in grads:
                    raise ValueError(f"no gradient for parameter {key!r}")
                layer.params[name] = adam_step(
                    layer.params[name], grads[key], self.state[key], lr
                )


@dataclass
class PlateauScheduler:
    """Cut the learning rate by `factor` after `patience` stale epochs.

    An epoch is stale when the validation loss fails to improve on the best
    seen by more than PLATEAU_THRESHOLD. The counter resets after each cut;
    the rate never drops below min_lr.
    """

    lr: float
    patience: int = 5
    factor: float = 0.1
    min_lr: float = 1e-6
    best: float = field(default=float("inf"), init=False)
    stale: int = field(default=0, init=False)

    def __post_init__(self):
        if not (0.0 < self.factor < 1.0):
            raise ValueError("factor must lie in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.lr <= self.min_lr:
            raise ValueError("initial lr must exceed min_lr")

    def update(self, val_loss: float) -> float:
        """Record one epoch's monitored loss; returns the rate to use next."""
        if val_loss < self.best - PLATEAU_THRESHOLD:
            self.best = val_loss
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.stale = 0
        return self.lr
