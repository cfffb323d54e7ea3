"""The data-size learning curve, and the one writer of run artifacts.

Every CSV and JSON report a CLI run leaves in its output directory is written
here, by `write_csv` and `write_json`, and so are the 8-bit preview images
(`write_composite_ppm`, `write_pgm`). The model and dataset files keep their
formats next to their loaders: `nn.save_network`, `gbm.serialize_gbm` and
`data.serialize_samples`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import SampleSet, SarSample, split_train_validation
from .ensemble import train_cnn
from .metrics import metric_accuracy, metric_confusion, metric_logloss
from .nn import TrainConfig

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
    """Train the reference CNN (`ensemble.train_cnn`) on growing slices.

    A single validation split is held out of `base` first so every fraction
    is scored against the same samples. Each row records the losses at the
    best-validation epoch (the parameters a plain fit run would return);
    n_samples counts the post-augmentation training set.
    """
    if not fractions or list(fractions) != sorted(fractions):
        raise ValueError("fractions must be ascending and non-empty")
    if not all(0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    if multiplier < 1:
        raise ValueError("multiplier must be >= 1")
    train_side, val_side = split_train_validation(base, val_ratio, cfg.seed)

    rows = []
    for fraction in fractions:
        subset = _stratified_fraction(train_side, fraction, cfg.seed)
        n_samples = len(subset) * multiplier
        if n_samples < 2 * cfg.batch_size:
            raise ValueError(
                f"fraction {fraction} yields {n_samples} samples, "
                f"need at least {2 * cfg.batch_size}"
            )
        _, history = train_cnn(subset, val_side, cfg, multiplier)
        best = history.best_epoch()
        rows.append(
            CurveRow(
                fraction=float(fraction),
                n_samples=n_samples,
                train_loss=history.train_loss[best],
                val_loss=history.val_loss[best],
            )
        )
    return rows


# ---------------------------------------------------------------------------
# CSV and JSON reports


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file with LF line ends. Each float, numpy's too, is written as the
    shortest repr of its float64 value, so the file gives back the exact value;
    a field that holds a comma or a quote is quoted."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )


def write_json(path, doc: dict) -> None:
    """A JSON report: keys sorted, indented by 2, ending in a newline."""
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# Submission files


def write_submission(preds: Mapping[str, float], path) -> None:
    """Competition-format CSV: header `id,is_iceberg`, each probability as its
    shortest round-trip repr, so the file gives back the exact values. An id
    that holds a comma or a quote is quoted; other rows are `id,p`."""
    write_csv(path, ["id", "is_iceberg"], ((i, float(p)) for i, p in preds.items()))


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
    preds: Mapping[str, float], labels: Mapping[str, int], config: dict, *, scored_rows: str
) -> dict:
    """metrics.json's document. scored_rows names the rows that logloss and
    the counts scored: "validation" (a held-out split), "training" (the rows
    the model was fitted on), "stacker_fit_in_sample" (the out-of-fold rows
    the stacker was fitted on) or "truth" (an eval's --truth file)."""
    cm = metric_confusion(preds, labels)
    return {
        "logloss": metric_logloss(preds, labels),
        "accuracy": metric_accuracy(preds, labels),
        "tn": cm.tn,
        "fp": cm.fp,
        "fn": cm.fn,
        "tp": cm.tp,
        "n": cm.n,
        "scored_rows": scored_rows,
        "config": config,
    }


# ---------------------------------------------------------------------------
# 8-bit images


def _to_uint8(plane: np.ndarray) -> np.ndarray:
    """Linear min-max scaling onto 0..255; a constant plane maps to 0."""
    lo, hi = float(plane.min()), float(plane.max())
    if hi > lo:
        return np.round((plane - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return np.zeros(plane.shape, dtype=np.uint8)


def composite_rgb(sample: SarSample) -> np.ndarray:
    """False-color composite: R=hh, G=hv, B=(hh+hv)/2, each min-max scaled."""
    hh, hv = sample.hh, sample.hv
    return np.stack([_to_uint8(p) for p in (hh, hv, (hh + hv) / 2.0)], axis=-1)


def _write_netpbm(path, magic: str, pixels: np.ndarray) -> None:
    h, w = pixels.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def write_composite_ppm(sample: SarSample, path) -> None:
    """The false-color composite as binary 8-bit PPM."""
    _write_netpbm(path, "P6", composite_rgb(sample))


def write_pgm(arr: np.ndarray, path) -> None:
    """A 2-D image as binary 8-bit PGM with linear min-max scaling."""
    _write_netpbm(path, "P5", _to_uint8(arr))
