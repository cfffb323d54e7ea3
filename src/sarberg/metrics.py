"""Threshold metrics over prediction sets keyed by sample id."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .mathutil import binary_accuracy, binary_logloss


@dataclass(frozen=True)
class ConfusionMatrix:
    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def n(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


def _aligned(preds: Mapping[str, float], labels: Mapping[str, int]):
    if set(preds) != set(labels):
        missing = set(labels) - set(preds)
        extra = set(preds) - set(labels)
        raise ValueError(
            f"prediction/label ids differ (missing {sorted(missing)[:3]}, "
            f"extra {sorted(extra)[:3]})"
        )
    ids = list(preds)
    p = np.array([preds[i] for i in ids], dtype=np.float64)
    y = np.array([labels[i] for i in ids], dtype=np.float64)
    return p, y


def metric_accuracy(
    preds: Mapping[str, float], labels: Mapping[str, int], threshold: float = 0.5
) -> float:
    """Fraction of correct calls; p == threshold counts as positive."""
    return binary_accuracy(*_aligned(preds, labels), threshold)


def metric_confusion(
    preds: Mapping[str, float], labels: Mapping[str, int], threshold: float = 0.5
) -> ConfusionMatrix:
    p, y = _aligned(preds, labels)
    pos = p >= threshold
    truth = y == 1.0
    return ConfusionMatrix(
        tn=int(np.sum(~pos & ~truth)),
        fp=int(np.sum(pos & ~truth)),
        fn=int(np.sum(~pos & truth)),
        tp=int(np.sum(pos & truth)),
    )


def metric_logloss(preds: Mapping[str, float], labels: Mapping[str, int]) -> float:
    p, y = _aligned(preds, labels)
    return binary_logloss(p, y)
