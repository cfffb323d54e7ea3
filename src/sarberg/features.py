"""Radiometric normalization, derived bands, and the per-band statistics features.

Each sample yields 30 scalars: seven order/moment statistics for each of the
HH, HV, difference, and ratio bands (2-D float arrays, like a sample's), plus
the incidence angle and a flag marking angles imputed rather than measured.

`feature_matrix` shares a set's samples with one forked child process
(`forked.map_items`); X and every refusal do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forked
from .data import SampleSet, SarSample

STAT_NAMES = ("min", "max", "mean", "median", "q1", "q3", "std")
BAND_NAMES = ("hh", "hv", "diff", "ratio")

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{band}_{stat}" for band in BAND_NAMES for stat in STAT_NAMES
) + ("inc_angle", "angle_missing")


@dataclass(frozen=True)
class BandStats:
    """Order and moment statistics of one band, dB-domain scalars."""

    min: float
    max: float
    mean: float
    median: float
    q1: float
    q3: float
    std: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.min, self.max, self.mean, self.median, self.q1, self.q3, self.std)


def normalize_incidence(band: np.ndarray, theta: float) -> np.ndarray:
    """Standardize backscatter to a 0-degree incidence angle.

    Adds -10*log10(cos theta) to every dB pixel (gamma-naught convention);
    the correction vanishes as theta approaches 0.
    """
    if not (0.0 < theta < 90.0):
        raise ValueError(f"incidence angle must lie in (0, 90), got {theta}")
    correction = -10.0 * math.log10(math.cos(math.radians(theta)))
    return band + correction


def derived_bands(hh: np.ndarray, hv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel difference (dB) and linear-power ratio of the two bands.

    The dB difference already is the log-ratio, so the ratio band is computed
    in linear power (10^(v/10)) to add distinct information. A ratio that is
    not finite is refused: HH = 4000 dB is finite, but overflows 10^(v/10).
    """
    diff = hh - hv
    with np.errstate(all="ignore"):  # the check below reports a non-finite ratio
        ratio = np.power(10.0, hh / 10.0) / np.power(10.0, hv / 10.0)
    if not np.isfinite(ratio).all():
        raise ValueError("ratio band is not finite: 10^(dB/10) leaves the float64 range")
    return diff, ratio


QUARTILES = np.array([0.25, 0.5, 0.75])


def _row_stats(rows: np.ndarray) -> np.ndarray:
    """The seven statistics of each row of a 2-D array, as a (rows, 7) array
    ordered as STAT_NAMES.

    One row-wise sort gives min, max and the quartiles. Quartiles follow
    numpy's linear rule (np.quantile's default): quantile q sits at position
    q*(n-1) between sorted values a and b with fraction g, and is a+(b-a)*g,
    or b-(b-a)*(1-g) when g >= 0.5, so they equal np.quantile bitwise. Mean
    and std (sample, n-1 denominator) are summed over each row's unsorted
    values, as np.mean and np.std sum one band; a constant row has its value
    as mean and std 0.
    """
    ordered = np.sort(rows, axis=1)
    pos = (rows.shape[1] - 1) * QUARTILES
    lo = np.floor(pos).astype(np.intp)
    g = pos - lo
    picked = ordered[:, np.concatenate((lo, lo + 1, [0, -1]))]
    a, b, lowest, highest = picked[:, :3], picked[:, 3:6], picked[:, 6], picked[:, 7]
    diff = b - a
    quartiles = np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)
    mean, std = rows.mean(axis=1), rows.std(axis=1, ddof=1)
    for i in np.flatnonzero((picked == 0.0).any(axis=1)):
        # The sort may hold +0.0 where numpy's partition and min/max return
        # -0.0, or the reverse; numpy's own answers keep the sign of a zero.
        quartiles[i] = np.quantile(rows[i], QUARTILES)
        lowest[i], highest[i] = rows[i].min(), rows[i].max()
    # Summed, a constant row's mean and std carry rounding error (a 75x75
    # band of -27.878 reads std 1.1e-14); its own value and 0 are exact.
    constant = lowest == highest
    mean[constant], std[constant] = lowest[constant], 0.0
    q1, median, q3 = quartiles.T
    return np.stack((lowest, highest, mean, median, q1, q3, std), axis=1)


def band_stats(band: np.ndarray) -> BandStats:
    """Seven summary statistics of a band: the one-row case of the pass
    `feature_vector` makes over a scene's four bands."""
    return BandStats(*map(float, _row_stats(band.reshape(1, -1))[0]))


def feature_vector(s: SarSample, mean_angle: float | None) -> np.ndarray:
    """The 30 features of one sample, ordered as FEATURE_NAMES.

    The statistics of the four bands come from one pass over their (4,
    pixels) stack. The angle slot holds the sample's angle, or mean_angle
    when absent; the final slot flags angles that are imputed (either
    upstream or here).
    """
    try:
        diff, ratio = derived_bands(s.hh, s.hv)
    except ValueError as e:
        raise ValueError(f"sample {s.id!r}: {e}") from None
    missing = s.angle_imputed or s.inc_angle is None
    angle = s.inc_angle if s.inc_angle is not None else mean_angle
    if angle is None:
        raise ValueError(f"sample {s.id!r} has no incidence angle and no fill angle")
    stats = _row_stats(np.stack((s.hh, s.hv, diff, ratio)).reshape(4, -1))
    return np.concatenate((stats.ravel(), (angle, 1.0 if missing else 0.0)))


def feature_matrix(
    sset: SampleSet, mean_angle: float | None
) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """Stack feature vectors for a whole set.

    Returns (ids, X, y); y is None when any sample is unlabeled. An empty
    set is refused. A refusal names the first bad sample in set order,
    whichever process featurised it.
    """
    if len(sset) == 0:
        raise ValueError("empty sample set")
    X = np.stack(forked.map_items(lambda s: feature_vector(s, mean_angle), sset.samples))
    labels = sset.labels()
    y = None
    if all(l is not None for l in labels):
        y = np.array(labels, dtype=np.float64)
    return sset.ids(), X, y


def correlation_matrix(
    vectors: Sequence[np.ndarray] | np.ndarray, fields: Sequence[int] | None = None
) -> np.ndarray:
    """Pearson correlation over the selected feature columns.

    Symmetric with a unit diagonal, entries clipped to [-1, 1]. A selected
    field with zero variance is an error naming the field.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 feature vectors")
    if fields is not None:
        X = X[:, list(fields)]
    # max == min, not std == 0: a constant's float std can be ~1e-15.
    for j in np.flatnonzero(X.max(axis=0) == X.min(axis=0)):
        col = list(fields)[j] if fields is not None else j
        name = FEATURE_NAMES[col] if col < len(FEATURE_NAMES) else str(col)
        raise ValueError(f"field {name!r} has zero variance")
    sd = X.std(axis=0, ddof=1)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    corr = cov / np.outer(sd, sd)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr

