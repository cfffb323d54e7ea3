"""Experiment harness: the data-size learning curve, and report/submission writers."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import SampleSet, SarSample, split_train_validation
from .imageops import AugmentationPolicy, augment_dataset
from .metrics import metric_accuracy, metric_confusion, metric_logloss
from .nn import TrainConfig, build_classifier, fit

PredictionSet = dict[str, float]


@dataclass(frozen=True)
class CurveRow:
    fraction: float
    n_samples: int
    train_loss: float
    val_loss: float

    @property
    def gap(self) -> float:
        return self.val_loss - self.train_loss


def _stratified_fraction(sset: SampleSet, fraction: float, seed: int) -> SampleSet:
    if fraction >= 1.0:
        return sset
    # The "validation" side of a stratified split is exactly a seeded,
    # stratified subsample of round(fraction * N) samples.
    _, sub = split_train_validation(sset, fraction, seed)
    return sub


def learning_curve(
    base: SampleSet,
    fractions: Sequence[float],
    cfg: TrainConfig,
    multiplier: int = 1,
    val_ratio: float = 0.2,
) -> list[CurveRow]:
    """Train the reference CNN on growing slices of the training data.

    A single validation split is held out of `base` first so every fraction
    is scored against the same samples. Each row records the losses at the
    best-validation epoch (the parameters a plain fit run would return);
    n_samples counts the post-augmentation training set.
    """
    if not fractions or list(fractions) != sorted(fractions):
        raise ValueError("fractions must be ascending and non-empty")
    if not all(0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    train_side, val_side = split_train_validation(base, val_ratio, cfg.seed)

    rows = []
    for fraction in fractions:
        subset = _stratified_fraction(train_side, fraction, cfg.seed)
        augmented = augment_dataset(subset, AugmentationPolicy(), multiplier, cfg.seed)
        if len(augmented) < 2 * cfg.batch_size:
            raise ValueError(
                f"fraction {fraction} yields {len(augmented)} samples, "
                f"need at least {2 * cfg.batch_size}"
            )
        net = build_classifier(len(cfg.channels), cfg.seed, dtype=np.dtype(cfg.dtype))
        _, history = fit(net, augmented, val_side, cfg)
        best = history.best_epoch()
        rows.append(
            CurveRow(
                fraction=float(fraction),
                n_samples=len(augmented),
                train_loss=history.train_loss[best],
                val_loss=history.val_loss[best],
            )
        )
    return rows


def write_curve_csv(path, rows: Sequence[CurveRow]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["fraction", "n_samples", "train_loss", "val_loss", "gap"])
        for r in rows:
            writer.writerow(
                [repr(r.fraction), r.n_samples, repr(r.train_loss), repr(r.val_loss), repr(r.gap)]
            )


# ---------------------------------------------------------------------------
# Submission files


def write_submission(preds: Mapping[str, float], path) -> None:
    """Competition-format CSV: header `id,is_iceberg`, each probability as its
    shortest round-trip repr, so the file gives back the exact values. An id
    that holds a comma or a quote is quoted; other rows are `id,p`."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["id", "is_iceberg"])
        writer.writerows((sample_id, float(p)) for sample_id, p in preds.items())


def read_submission(path) -> PredictionSet:
    """The probabilities of a submission file, by id. A row that is not
    `id,p`, a p that is not a finite number in [0, 1], or a repeated id is
    refused, naming its line and id."""
    preds: PredictionSet = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["id", "is_iceberg"]:
            raise ValueError(f"unexpected submission header {header!r}")
        for row in reader:
            sample_id = row[0] if row else None
            where = f"{path} line {reader.line_num}, id {sample_id!r}"
            if len(row) != 2:
                raise ValueError(f"{where}: expected 2 fields (id,is_iceberg), got {len(row)}")
            try:
                p = float(row[1])
            except ValueError:
                p = math.nan
            if not 0.0 <= p <= 1.0:  # NaN fails too
                raise ValueError(f"{where}: probability {row[1]!r} is not a number in [0, 1]")
            if sample_id in preds:
                raise ValueError(f"{where}: repeated id")
            preds[sample_id] = p
    return preds


# ---------------------------------------------------------------------------
# Reports


def metrics_summary(
    preds: Mapping[str, float], labels: Mapping[str, int], config: dict
) -> dict:
    cm = metric_confusion(preds, labels)
    return {
        "logloss": metric_logloss(preds, labels),
        "accuracy": metric_accuracy(preds, labels),
        "tn": cm.tn,
        "fp": cm.fp,
        "fn": cm.fn,
        "tp": cm.tp,
        "n": cm.n,
        "config": config,
    }


def write_metrics_json(path, summary: dict) -> None:
    with open(path, "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


def composite_rgb(sample: SarSample) -> np.ndarray:
    """False-color composite: R=hh, G=hv, B=(hh+hv)/2, each min-max scaled."""
    hh, hv = sample.hh, sample.hv
    channels = []
    for plane in (hh, hv, (hh + hv) / 2.0):
        lo, hi = float(plane.min()), float(plane.max())
        if hi > lo:
            channels.append(np.round((plane - lo) / (hi - lo) * 255.0))
        else:
            channels.append(np.zeros_like(plane))
    return np.stack(channels, axis=-1).astype(np.uint8)


def write_composite_ppm(sample: SarSample, path) -> None:
    rgb = composite_rgb(sample)
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def write_report(
    outdir,
    preds: Mapping[str, float],
    labels: Mapping[str, int],
    config: dict,
    composites: Iterable[SarSample] = (),
) -> dict:
    """Write metrics.json and one composite_<id>.ppm per composite scene.

    Returns the metrics summary. Deterministic: identical inputs produce
    byte-identical files.
    """
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = metrics_summary(preds, labels, config)
    write_metrics_json(outdir / "metrics.json", summary)
    for s in composites:
        write_composite_ppm(s, outdir / f"composite_{s.id}.ppm")
    return summary
