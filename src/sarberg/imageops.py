"""Deterministic image transforms and the stochastic augmentation policy.

Transforms take a float array and return one (flips and quarter turns as
views, like numpy's). `rotate`, `shift` and `reflect` act on the last two axes,
so one call moves a stack of bands together; the filters take a 2-D image.
All preserve the image's dimensions and use edge replication for pixels that
fall outside the source support: SAR backgrounds are noise, and a zero fill
would paint a fake bright/dark frame into every derived statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .data import SampleSet, SarSample

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()
LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


@dataclass(frozen=True)
class AugmentationPolicy:
    """The fixed ranges of the random per-sample transform draw: a shift of up
    to a tenth of each side and a rotation of up to 15 degrees either way.
    Every draw also mirrors the scene horizontally and vertically, each with
    probability 1/2."""

    width_shift_frac: ClassVar[float] = 0.1
    height_shift_frac: ClassVar[float] = 0.1
    rotation_max_deg: ClassVar[float] = 15.0


def rotate(arr: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate counterclockwise about the image center, over the last two axes.

    Exact multiples of 90 degrees are index permutations (bitwise exact, on
    square images for 90/270); anything else is bilinear interpolation with
    source coordinates clamped to the image (edge replication). The four
    corner reads are each one flat `take` over the flattened planes
    (`_gather`).
    """
    if not math.isfinite(degrees):
        raise ValueError(f"rotation angle must be finite, got {degrees}")
    h, w = arr.shape[-2:]
    rem = degrees % 360.0
    if rem in (0.0, 180.0) or (rem in (90.0, 270.0) and h == w):
        return np.rot90(arr, k=int(rem // 90), axes=(-2, -1))

    cy = (h - 1) / 2.0
    cx = (w - 1) / 2.0
    theta = math.radians(degrees)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    out_r, out_c = np.mgrid[0:h, 0:w].astype(np.float64)
    dy = out_r - cy
    dx = out_c - cx
    # Inverse map: rotate output coordinates by -theta back into the source.
    src_r = dy * cos_t + dx * sin_t + cy
    src_c = -dy * sin_t + dx * cos_t + cx

    src_r = np.clip(src_r, 0.0, h - 1.0)
    src_c = np.clip(src_c, 0.0, w - 1.0)
    r0 = np.floor(src_r).astype(np.intp)
    c0 = np.floor(src_c).astype(np.intp)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = src_r - r0
    fc = src_c - c0
    top = _gather(arr, r0, c0) * (1.0 - fc) + _gather(arr, r0, c1) * fc
    bot = _gather(arr, r1, c0) * (1.0 - fc) + _gather(arr, r1, c1) * fc
    return top * (1.0 - fr) + bot * fr


def _gather(arr: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """arr[..., rows, cols] for integer index arrays of one shape, read as one
    `take` of rows*w + cols from the flattened (h*w) planes: the same
    elements, from a single index instead of a 2-D fancy index."""
    h, w = arr.shape[-2:]
    flat = arr.reshape(*arr.shape[:-2], h * w)
    return np.take(flat, rows * w + cols, axis=-1)


def reflect(arr: np.ndarray, axis: str) -> np.ndarray:
    """Mirror the image: 'horizontal' reverses columns, 'vertical' rows."""
    if axis == "horizontal":
        return arr[..., :, ::-1]
    if axis == "vertical":
        return arr[..., ::-1, :]
    raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")


def shift(arr: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Translate by whole pixels (dx right, dy down) over the last two axes,
    edge-replicating vacated cells. The pixels are read with one flat `take`
    over the flattened planes (`_gather`)."""
    if int(dx) != dx or int(dy) != dy:
        raise ValueError("shift offsets must be integers")
    dx, dy = int(dx), int(dy)
    h, w = arr.shape[-2:]
    if abs(dx) >= w or abs(dy) >= h:
        raise ValueError(f"shift ({dx}, {dy}) out of range for {h}x{w} image")
    src_r = np.clip(np.arange(h) - dy, 0, h - 1)
    src_c = np.clip(np.arange(w) - dx, 0, w - 1)
    return _gather(arr, src_r[:, None], src_c)


def _correlate2d(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D correlation with edge-replicate padding, output same size."""
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    padded = np.pad(arr, ((ry, ry), (rx, rx)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw))
    return np.einsum("ijkl,kl->ij", windows, kernel)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized Gaussian taps at integer offsets, radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x**2) / (2.0 * sigma**2))
    return k / k.sum()


def gaussian_smooth(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge-replicate padding."""
    k = gaussian_kernel_1d(sigma)
    radius = (len(k) - 1) // 2
    arr = np.pad(arr, ((radius, radius), (0, 0)), mode="edge")
    cols = np.lib.stride_tricks.sliding_window_view(arr, len(k), axis=0)
    arr = cols @ k
    arr = np.pad(arr, ((0, 0), (radius, radius)), mode="edge")
    rows = np.lib.stride_tricks.sliding_window_view(arr, len(k), axis=1)
    return rows @ k


def sobel(arr: np.ndarray, axis: str) -> np.ndarray:
    """3x3 Sobel derivative estimate along 'x' (columns) or 'y' (rows)."""
    if axis == "x":
        return _correlate2d(arr, SOBEL_X)
    if axis == "y":
        return _correlate2d(arr, SOBEL_Y)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def laplacian(arr: np.ndarray) -> np.ndarray:
    return _correlate2d(arr, LAPLACIAN)


# ---------------------------------------------------------------------------
# Stochastic augmentation


def _draw_transform(policy: AugmentationPolicy, shape, rng: np.random.Generator):
    h, w = shape
    max_dx = int(math.floor(policy.width_shift_frac * w))
    max_dy = int(math.floor(policy.height_shift_frac * h))
    # A side under 10 px has no shift range, and no draw is made for it.
    dx = int(rng.integers(-max_dx, max_dx + 1)) if max_dx else 0
    dy = int(rng.integers(-max_dy, max_dy + 1)) if max_dy else 0
    angle = float(rng.uniform(-policy.rotation_max_deg, policy.rotation_max_deg))
    flip_h = rng.random() < 0.5
    flip_v = rng.random() < 0.5
    return dx, dy, angle, flip_h, flip_v


def _apply_transform(arr: np.ndarray, dx, dy, angle, flip_h, flip_v) -> np.ndarray:
    if angle != 0.0:
        arr = rotate(arr, angle)
    if dx or dy:
        arr = shift(arr, dx, dy)
    if flip_h:
        arr = reflect(arr, "horizontal")
    if flip_v:
        arr = reflect(arr, "vertical")
    return arr


def sample_augmentation(
    s: SarSample,
    policy: AugmentationPolicy,
    rng: np.random.Generator,
    id_suffix: str = "#aug",
) -> SarSample:
    """Draw one geometric transform and apply it identically to both bands.

    Label, incidence angle, and imputation flag are preserved; the id gets a
    suffix so augmented variants stay unique within a set. Deterministic for
    a generator in a fixed state.
    """
    draw = _draw_transform(policy, s.hh.shape, rng)
    hh, hv = _apply_transform(np.stack((s.hh, s.hv)), *draw)
    return replace(s, id=s.id + id_suffix, hh=hh, hv=hv)


def augment_dataset(
    sset: SampleSet, policy: AugmentationPolicy, multiplier: int, seed: int
) -> SampleSet:
    """Each original sample plus (multiplier - 1) augmented variants.

    multiplier 1 returns the input set unchanged. Per-sample substreams are
    spawned from the seed, so the output is deterministic and independent of
    processing order.
    """
    if multiplier < 1:
        raise ValueError("multiplier must be >= 1")
    if multiplier == 1:
        return sset
    children = np.random.SeedSequence(seed).spawn(len(sset))
    out = []
    for s, child in zip(sset, children):
        out.append(s)
        rng = np.random.default_rng(child)
        for j in range(multiplier - 1):
            out.append(sample_augmentation(s, policy, rng, id_suffix=f"#aug{j}"))
    return SampleSet(tuple(out), provenance="augmented")

