"""Shared numerics: stable sigmoid/logit, the binary cross-entropy loss and
threshold accuracy."""

from __future__ import annotations

import numpy as np

PROB_CLAMP = 1e-15


def sigmoid(z):
    """Numerically stable logistic function, vectorized. float32 and float64
    keep their dtype; anything else is computed in float64."""
    z = np.asarray(z)
    if z.dtype not in (np.float32, np.float64):
        z = z.astype(np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logit(p):
    """Inverse sigmoid with probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP]."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return np.log(p / (1.0 - p))


def binary_logloss(p, y) -> float:
    """Mean negative log likelihood of labels y under probabilities p, each
    clamped to [PROB_CLAMP, 1 - PROB_CLAMP]."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs labels {y.shape}")
    if p.size == 0:
        raise ValueError("need at least one prediction")
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def binary_accuracy(p, y) -> float:
    """Fraction of correct calls at threshold 0.5; p == 0.5 counts as positive."""
    p = np.asarray(p, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    return float(np.mean((p >= 0.5) == (y == 1.0)))
