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


def logit(p, clamp: float = PROB_CLAMP):
    """Inverse sigmoid with probabilities clamped away from 0 and 1."""
    p = np.clip(np.asarray(p, dtype=np.float64), clamp, 1.0 - clamp)
    return np.log(p / (1.0 - p))


def binary_logloss(p, y, clamp: float = PROB_CLAMP) -> float:
    """Mean negative log likelihood of labels y under probabilities p."""
    p = np.clip(np.asarray(p, dtype=np.float64), clamp, 1.0 - clamp)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs labels {y.shape}")
    if p.size == 0:
        raise ValueError("need at least one prediction")
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def binary_accuracy(p, y, threshold: float = 0.5) -> float:
    """Fraction of correct calls; p == threshold counts as positive."""
    p = np.asarray(p, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    return float(np.mean((p >= threshold) == (y == 1.0)))
