"""Radiometric normalization, derived bands, and the per-band statistics features.

Each sample yields 30 scalars: seven order/moment statistics for each of the
HH, HV, difference, and ratio bands (2-D float arrays, like a sample's), plus
the incidence angle and a flag marking angles imputed rather than measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def band_stats(band: np.ndarray) -> BandStats:
    """Seven summary statistics of a band.

    One sort gives min, max and the quartiles. Quartiles follow numpy's
    linear rule (np.quantile's default): quantile q sits at position
    q*(n-1) between sorted values a and b with fraction g, and is a+(b-a)*g,
    or b-(b-a)*(1-g) when g >= 0.5, so they equal np.quantile bitwise. Mean
    and std (sample, n-1 denominator) are summed over the unsorted pixels,
    as np.mean and np.std sum them; a constant band has its value as mean
    and std 0.
    """
    values = band.ravel()
    ordered = np.sort(values)
    pos = (values.size - 1) * QUARTILES
    lo = np.floor(pos).astype(np.intp)
    g = pos - lo
    picked = ordered[np.concatenate((lo, lo + 1, [0, -1]))]
    if np.any(picked == 0.0):
        # The sort may hold +0.0 where numpy's partition and min/max return
        # -0.0, or the reverse; numpy's own answers keep the sign of a zero.
        q1, median, q3 = np.quantile(values, QUARTILES)
        lowest, highest = values.min(), values.max()
    else:
        a, b, (lowest, highest) = picked[:3], picked[3:6], picked[6:]
        diff = b - a
        q1, median, q3 = np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)
    if lowest == highest:
        # Summed, a constant band's mean and std carry rounding error (a 75x75
        # band of -27.878 reads std 1.1e-14); its own value and 0 are exact.
        mean, std = lowest, 0.0
    else:
        mean, std = values.mean(), np.std(values, ddof=1)
    return BandStats(
        min=float(lowest),
        max=float(highest),
        mean=float(mean),
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        std=float(std),
    )


def feature_vector(s: SarSample, mean_angle: float | None) -> np.ndarray:
    """The 30 features of one sample, ordered as FEATURE_NAMES.

    The angle slot holds the sample's angle, or mean_angle when absent; the
    final slot flags angles that are imputed (either upstream or here).
    """
    try:
        diff, ratio = derived_bands(s.hh, s.hv)
    except ValueError as e:
        raise ValueError(f"sample {s.id!r}: {e}") from None
    parts: list[float] = []
    for band in (s.hh, s.hv, diff, ratio):
        parts.extend(band_stats(band).as_tuple())
    missing = s.angle_imputed or s.inc_angle is None
    angle = s.inc_angle if s.inc_angle is not None else mean_angle
    if angle is None:
        raise ValueError(f"sample {s.id!r} has no incidence angle and no fill angle")
    parts.append(float(angle))
    parts.append(1.0 if missing else 0.0)
    return np.array(parts, dtype=np.float64)


def feature_matrix(
    sset: SampleSet, mean_angle: float | None
) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """Stack feature vectors for a whole set.

    Returns (ids, X, y); y is None when any sample is unlabeled. An empty
    set is refused.
    """
    if len(sset) == 0:
        raise ValueError("empty sample set")
    ids = sset.ids()
    X = np.stack([feature_vector(s, mean_angle) for s in sset])
    labels = sset.labels()
    y = None
    if all(l is not None for l in labels):
        y = np.array(labels, dtype=np.float64)
    return ids, X, y


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

