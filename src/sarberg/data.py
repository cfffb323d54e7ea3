"""Domain types, Kaggle-format ingestion, splitting, and a synthetic scene generator.

A scene is a pair of 75x75 backscatter bands (HH and HV polarization, in dB,
plain 2-D arrays checked once, when a `SarSample` is built) with an incidence
angle and, for training data, an iceberg/ship label. The synthetic generator
produces desk-scale datasets with the same physics cues the real data
carries: icebergs are large, roughly isotropic blobs whose HV return
sits close to HH (volume scattering); ships are elongated and strongly
cross-pol suppressed.

`parse_samples` and `serialize_samples` share their records with one forked
child (`forked.map_items`, which holds the fork contract). The text written,
the samples read and every refusal message do not depend on it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import forked

KAGGLE_BAND_PIXELS = 5625  # 75 x 75
SCENE_SIDE = 75

PROVENANCES = ("real", "synthetic", "augmented")

# Ocean clutter in cross-pol sits well below co-pol. The gap varies a little
# per scene, so scene-wide HH-HV averages are a noisy class cue and learners
# must also read the local target structure.
BACKGROUND_HH_DB = -22.0
BACKGROUND_CROSSPOL_GAP_DB = 8.0
BACKGROUND_GAP_JITTER_DB = 0.5


def _band_array(band, sample_id: str, name: str) -> np.ndarray:
    """A read-only, C-contiguous float64 copy of one band, refused unless it is
    2-D, at least 3x3 and finite."""
    arr = np.array(band, dtype=np.float64, order="C")
    where = f"sample {sample_id!r}: {name}"
    if arr.ndim != 2:
        raise ValueError(f"{where} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 3 or arr.shape[1] < 3:
        raise ValueError(f"{where} must be at least 3x3, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SarSample:
    """One scene: two co-registered polarization bands plus metadata.

    hh and hv are 2-D dB arrays, kept as checked, read-only float64 copies;
    later stages take them as finite and at least 3x3. Compared by identity.

    label: 0 = ship, 1 = iceberg, None = unlabeled.
    inc_angle: incidence angle in degrees, None when missing from the source.
    angle_imputed: True when inc_angle was filled in by `fill_incidence`.
    """

    id: str
    hh: np.ndarray
    hv: np.ndarray
    inc_angle: float | None = None
    angle_imputed: bool = False
    label: int | None = None

    def __post_init__(self):
        for name in ("hh", "hv"):
            object.__setattr__(self, name, _band_array(getattr(self, name), self.id, name))
        if self.hh.shape != self.hv.shape:
            raise ValueError(
                f"sample {self.id!r}: hh {self.hh.shape} and hv {self.hv.shape} "
                "dimensions differ"
            )
        if self.inc_angle is not None and not (0.0 < self.inc_angle < 90.0):
            raise ValueError(
                f"sample {self.id!r}: inc_angle {self.inc_angle} outside (0, 90)"
            )
        if self.label is not None and self.label not in (0, 1):
            raise ValueError(f"sample {self.id!r}: label must be 0 or 1")

    def __reduce__(self):
        # Unpickled through the constructor, so the bands come back as
        # checked, read-only copies; pickle would restore them writable.
        return (
            SarSample,
            (self.id, self.hh, self.hv, self.inc_angle, self.angle_imputed, self.label),
        )


@dataclass(frozen=True)
class SampleSet:
    """An ordered collection of samples with unique ids."""

    samples: tuple[SarSample, ...]
    provenance: str = "real"

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise ValueError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[SarSample]:
        return iter(self.samples)

    def __getitem__(self, i) -> SarSample:
        return self.samples[i]

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def labels(self) -> list[int | None]:
        return [s.label for s in self.samples]


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for the synthetic scene generator."""

    n_samples: int
    iceberg_fraction: float = 0.5
    speckle_looks: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not (0.0 < self.iceberg_fraction < 1.0):
            raise ValueError("iceberg_fraction must lie strictly in (0, 1)")
        if int(self.speckle_looks) != self.speckle_looks or self.speckle_looks < 1:
            raise ValueError("speckle_looks must be a positive integer")


# ---------------------------------------------------------------------------
# Ingestion


def _record_error(index: int, rec_id, msg: str) -> ValueError:
    ident = f" (id {rec_id!r})" if rec_id is not None else ""
    return ValueError(f"record {index}{ident}: {msg}")


def _parse_band(raw_band, index: int, rec_id, name: str) -> np.ndarray:
    if not isinstance(raw_band, list):
        raise _record_error(index, rec_id, f"{name} must be a list of numbers")
    if len(raw_band) != KAGGLE_BAND_PIXELS:
        raise _record_error(
            index, rec_id,
            f"{name} has {len(raw_band)} values, expected {KAGGLE_BAND_PIXELS}",
        )
    try:
        arr = np.asarray(raw_band, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # an object, a nested list, 10**400
        arr = None
    if arr is None or arr.ndim != 1:
        raise _record_error(index, rec_id, f"{name} must be a flat list of numbers")
    arr = arr.reshape(SCENE_SIDE, SCENE_SIDE)
    if not np.all(np.isfinite(arr)):
        raise _record_error(index, rec_id, f"{name} contains non-finite values")
    return arr


def _sample(index: int, rec, labeled: bool) -> SarSample:
    """One decoded record as a SarSample; a refusal names the record."""
    if not isinstance(rec, dict):
        raise _record_error(index, None, "record is not a JSON object")
    rec_id = rec.get("id")
    if not isinstance(rec_id, str):
        raise _record_error(index, rec_id, "missing or non-string id")
    for key in ("band_1", "band_2", "inc_angle"):
        if key not in rec:
            raise _record_error(index, rec_id, f"missing field {key!r}")
    hh = _parse_band(rec["band_1"], index, rec_id, "band_1")
    hv = _parse_band(rec["band_2"], index, rec_id, "band_2")

    raw_angle = rec["inc_angle"]
    if raw_angle == "na":
        angle = None
    elif isinstance(raw_angle, (int, float)) and not isinstance(raw_angle, bool):
        try:
            angle = float(raw_angle)
        except OverflowError:  # an integer such as 10**400
            raise _record_error(index, rec_id, "inc_angle overflows float64") from None
        if not 0.0 < angle < 90.0:  # NaN included
            raise _record_error(index, rec_id, f"inc_angle {angle} outside (0, 90)")
    else:
        raise _record_error(
            index, rec_id, f"inc_angle must be a number or \"na\", got {raw_angle!r}"
        )

    label = None
    if "is_iceberg" in rec:
        raw_label = rec["is_iceberg"]
        if raw_label not in (0, 1) or isinstance(raw_label, bool):
            raise _record_error(
                index, rec_id, f"is_iceberg must be 0 or 1, got {raw_label!r}"
            )
        label = int(raw_label)
    elif labeled:
        raise _record_error(index, rec_id, "missing field 'is_iceberg'")

    return SarSample(id=rec_id, hh=hh, hv=hv, inc_angle=angle, label=label)


# JSON's insignificant whitespace, as the json module skips it.
_WS = re.compile(r"[ \t\n\r]*")
# A comma that may sit between two records; it may also sit inside a string.
_BOUNDARY = re.compile(r"}[ \t\n\r]*(,)[ \t\n\r]*{")
_DECODER = json.JSONDecoder()


# A walk, not json.loads on each half, keeps one record's Python objects alive
# at a time: json.loads held a half's floats at once, and `cli_pipeline`'s
# peak_rss_mb rose from 209.4-209.7 to 218.1-218.8 MB (4 of 4 runs).
def _walk(raw: str, pos: int, index: int, labeled: bool, stop: int | None = None):
    """Decode and check, one at a time, the records of the JSON array that
    follow raw[pos], its '[' or a ',' between two records; the first is
    record number `index`.

    The walk ends at the array's ']', which only whitespace may follow, or at
    the ',' at `stop` if it lands there between two records. JSON tokenises
    left to right, so landing there proves that the comma separates two
    top-level records. Returns (samples, index past the last record walked,
    refusal, landed): the refusal is the exception of the first record that
    failed `_sample`, and the walk goes on decoding after it, so that
    malformed text is refused first, as `json.loads` would. Malformed text
    raises json.JSONDecodeError."""
    samples, refusal = [], None
    end = _WS.match(raw, pos + 1).end()
    closed = raw[pos] == "[" and raw.startswith("]", end)  # an empty array
    if closed:
        end = _WS.match(raw, end + 1).end()
    while not closed:
        rec, end = _DECODER.raw_decode(raw, end)
        if refusal is None:
            try:
                samples.append(_sample(index, rec, labeled))
            except Exception as e:  # whatever checking this record raises
                refusal = e
        index += 1
        end = _WS.match(raw, end).end()
        if end == stop:
            return samples, index, refusal, True
        closed = raw.startswith("]", end)
        if not closed and not raw.startswith(",", end):
            raise json.JSONDecodeError("Expecting ',' delimiter", raw, end)
        end = _WS.match(raw, end + 1).end()
    if end != len(raw):
        raise json.JSONDecodeError("Extra data", raw, end)
    return samples, index, refusal, False


def _not_an_array(raw: str) -> ValueError:
    """The refusal of text that is not one JSON array, in json.loads' words."""
    try:
        json.loads(raw)
    except json.JSONDecodeError as e:
        return ValueError(f"malformed JSON: {e}")
    return ValueError("top-level JSON value must be an array of records")


def parse_samples(raw: bytes | str, labeled: bool) -> SampleSet:
    """Parse the competition JSON layout into a SampleSet.

    Records carry id, band_1 (HH), band_2 (HV), inc_angle (number or "na"),
    and is_iceberg (0 or 1) where the scene is labeled; `labeled` requires it
    on every record. Bands are 5625 values read row-major into 75x75 planes.

    Records are decoded one at a time. A forked child decodes those after a
    comma near the middle of the text, and its samples are kept only if this
    process's walk lands on that comma. The child never refuses: on any
    problem this process walks its records too, so malformed text is refused
    in json.loads' words and a bad record by its index, as one process would.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    start = _WS.match(raw).end()
    if not raw.startswith("[", start):
        raise _not_an_array(raw)
    boundary = _BOUNDARY.search(raw, len(raw) // 2)
    split = boundary.start(1) if boundary else None

    def walk(pos: int, index: int, stop: int | None = None):
        try:
            return _walk(raw, pos, index, labeled, stop)
        except json.JSONDecodeError:
            raise _not_an_array(raw) from None

    def half(part: int):
        if part == 0:
            return walk(start, 0, split)
        try:  # the child: its records' indices are not known here
            samples, _, refusal, _ = _walk(raw, split, 0, labeled)
        except Exception:
            return None
        return None if refusal is not None else samples

    first, *second = forked.map_items(half, range(1 if split is None else 2))
    samples, index, refusal, landed = first
    if landed:
        rest = second[0]
        if rest is None:
            rest, _, later, _ = walk(split, index)
            refusal = refusal if refusal is not None else later
        samples += rest
    if refusal is not None:
        raise refusal
    return SampleSet(samples=tuple(samples), provenance="real")


def _record(s: SarSample) -> dict:
    rec = {
        "id": s.id,
        "band_1": s.hh.ravel().tolist(),
        "band_2": s.hv.ravel().tolist(),
        "inc_angle": "na" if s.inc_angle is None else s.inc_angle,
    }
    if s.label is not None:
        rec["is_iceberg"] = s.label
    return rec


def serialize_samples(sset: SampleSet) -> str:
    """Serialize a SampleSet back to the competition JSON layout.

    Missing angles become the string "na"; is_iceberg is emitted only for
    labeled samples. parse(serialize(s)) reproduces s field-by-field (up to
    provenance and imputation flags, which the wire format does not carry).

    Records are encoded one at a time, through `forked.map_items`; the text
    is the same as `json.dumps` of the whole list, with separators (",", ":").
    """

    def encode(s: SarSample) -> str:
        return json.dumps(_record(s), separators=(",", ":"))

    return "[" + ",".join(forked.map_items(encode, sset.samples)) + "]"


# ---------------------------------------------------------------------------
# Splitting and imputation


def split_train_validation(
    sset: SampleSet, ratio_val: float, seed: int
) -> tuple[SampleSet, SampleSet]:
    """Stratified train/validation split.

    The validation set receives round(ratio_val * N) samples with per-class
    counts within one sample of exact proportion (largest-remainder
    apportionment). Deterministic for a fixed seed; outputs preserve the
    input ordering and partition the input. An empty set is refused.
    """
    if not (0.0 < ratio_val < 1.0):
        raise ValueError("ratio_val must lie strictly in (0, 1)")
    if len(sset) == 0:
        raise ValueError("empty sample set")
    for s in sset:
        if s.label is None:
            raise ValueError(f"sample {s.id!r} is unlabeled; cannot stratify")

    by_class: dict[int, list[int]] = {0: [], 1: []}
    for i, s in enumerate(sset):
        by_class[s.label].append(i)
    for cls, idxs in by_class.items():
        if not idxs:
            raise ValueError(f"class {cls} has no members")

    n_val_total = int(round(ratio_val * len(sset)))
    exact = {c: ratio_val * len(idxs) for c, idxs in by_class.items()}
    take = {c: int(math.floor(x)) for c, x in exact.items()}
    leftover = n_val_total - sum(take.values())
    # Distribute remaining slots by largest fractional part, class id breaking ties.
    order = sorted(by_class, key=lambda c: (-(exact[c] - take[c]), c))
    for c in order[: max(leftover, 0)]:
        take[c] += 1

    rng = np.random.default_rng(seed)
    val_indices: set[int] = set()
    for c in sorted(by_class):
        idxs = np.array(by_class[c])
        rng.shuffle(idxs)
        val_indices.update(idxs[: take[c]].tolist())

    train = [s for i, s in enumerate(sset) if i not in val_indices]
    val = [s for i, s in enumerate(sset) if i in val_indices]
    return (
        SampleSet(tuple(train), provenance=sset.provenance),
        SampleSet(tuple(val), provenance=sset.provenance),
    )


def fill_incidence(sset: SampleSet, angle: float) -> SampleSet:
    """Give every sample that has no incidence angle `angle`, flagged
    angle_imputed=True; samples with an angle are kept as they are."""
    out = tuple(
        replace(s, inc_angle=angle, angle_imputed=True) if s.inc_angle is None else s
        for s in sset
    )
    return SampleSet(out, provenance=sset.provenance)


def mean_incidence(angles: Iterable[float | None]) -> float:
    """The fill angle of a training set: the mean of its present angles
    (None marks a missing one), in their order."""
    present = [a for a in angles if a is not None]
    if not present:
        raise ValueError("cannot impute: every sample is missing inc_angle")
    return float(np.mean(present))


def impute_incidence(sset: SampleSet) -> tuple[SampleSet, float]:
    """Replace missing incidence angles by the mean of the present ones.

    Returns the imputed set and the mean angle, so the same fill value can be
    reused on test data (`fill_incidence`). An empty set is refused.
    """
    if len(sset) == 0:
        raise ValueError("empty sample set")
    mean_angle = mean_incidence(s.inc_angle for s in sset)
    return fill_incidence(sset, mean_angle), mean_angle


# ---------------------------------------------------------------------------
# Synthetic scenes


@dataclass(frozen=True, eq=False)
class Scene:
    """One rendered synthetic scene plus its generator-side ground truth."""

    hh: np.ndarray
    hv: np.ndarray
    inc_angle: float
    label: int
    target_mask: np.ndarray = field(repr=False)  # bool, True on the target body


def _db_to_power(db):
    return np.power(10.0, np.asarray(db) / 10.0)


def _power_to_db(power):
    return 10.0 * np.log10(power)


def _blob(dy, dx, radius):
    return np.exp(-(((dy**2 + dx**2) / radius**2) ** 2))


def render_scene(rng: np.random.Generator, iceberg: bool, looks: int) -> Scene:
    """Render one scene in linear power, then convert to dB.

    Icebergs: wide super-Gaussian blob, HV within a few dB of HH.
    Ships: elongated (axis ratio >= 3) rotated blob, HV >= 6 dB below HH.
    A few clutter blobs (sea-state bright spots, background-like cross-pol
    gap) and a wide target-brightness range keep the task from collapsing to
    a single local cue. Multiplicative speckle is mean-1 gamma noise with
    shape `looks`; both bands dim with the cosine of the incidence angle.
    """
    side = SCENE_SIDE
    rows, cols = np.mgrid[0:side, 0:side].astype(np.float64)
    cy = rng.uniform(14.0, side - 15.0)
    cx = rng.uniform(14.0, side - 15.0)
    dy = rows - cy
    dx = cols - cx

    if iceberg:
        radius = rng.uniform(9.0, 13.0)
        envelope = _blob(dy, dx, radius)
        crosspol_gap_db = rng.uniform(0.5, 3.0)
    else:
        half_len = rng.uniform(6.0, 9.5)
        half_wid = half_len / rng.uniform(3.2, 4.5)
        phi = rng.uniform(0.0, np.pi)
        u = dy * np.cos(phi) + dx * np.sin(phi)
        v = -dy * np.sin(phi) + dx * np.cos(phi)
        envelope = np.exp(-(((u / half_len) ** 2 + (v / half_wid) ** 2) ** 2))
        crosspol_gap_db = rng.uniform(7.0, 12.0)

    bg_hh = _db_to_power(BACKGROUND_HH_DB + rng.uniform(-1.0, 1.0))
    bg_gap = BACKGROUND_CROSSPOL_GAP_DB + rng.uniform(
        -BACKGROUND_GAP_JITTER_DB, BACKGROUND_GAP_JITTER_DB
    )
    bg_hv = bg_hh * _db_to_power(-bg_gap)
    peak_hh = _db_to_power(rng.uniform(-12.0, -3.0))
    peak_hv = peak_hh * _db_to_power(-crosspol_gap_db)

    power_hh = bg_hh + envelope * peak_hh
    power_hv = bg_hv + envelope * peak_hv

    for _ in range(int(rng.poisson(2.0))):
        ky = rng.uniform(4.0, side - 5.0)
        kx = rng.uniform(4.0, side - 5.0)
        clutter = _blob(rows - ky, cols - kx, rng.uniform(1.5, 3.5))
        clutter_peak = _db_to_power(rng.uniform(-17.0, -9.0))
        power_hh = power_hh + clutter * clutter_peak
        power_hv = power_hv + clutter * clutter_peak * _db_to_power(-bg_gap)

    inc_angle = rng.uniform(20.0, 45.0)
    angle_factor = np.cos(np.deg2rad(inc_angle))
    power_hh = power_hh * angle_factor
    power_hv = power_hv * angle_factor

    speckle_hh = rng.gamma(shape=looks, scale=1.0 / looks, size=(side, side))
    speckle_hv = rng.gamma(shape=looks, scale=1.0 / looks, size=(side, side))
    power_hh = np.maximum(power_hh * speckle_hh, 1e-30)
    power_hv = np.maximum(power_hv * speckle_hv, 1e-30)

    return Scene(
        hh=_power_to_db(power_hh),
        hv=_power_to_db(power_hv),
        inc_angle=float(inc_angle),
        label=1 if iceberg else 0,
        target_mask=envelope >= 0.5,
    )


def synth_dataset(cfg: SynthConfig) -> SampleSet:
    """Generate a labeled synthetic SampleSet, deterministic per cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    n_ice = int(round(cfg.iceberg_fraction * cfg.n_samples))
    labels = np.zeros(cfg.n_samples, dtype=np.int64)
    labels[:n_ice] = 1
    rng.shuffle(labels)

    width = max(6, len(str(cfg.n_samples)))
    samples = []
    for i, label in enumerate(labels):
        scene = render_scene(rng, iceberg=bool(label), looks=int(cfg.speckle_looks))
        samples.append(
            SarSample(
                id=f"synth_{i:0{width}d}",
                hh=scene.hh,
                hv=scene.hv,
                inc_angle=scene.inc_angle,
                label=scene.label,
            )
        )
    return SampleSet(tuple(samples), provenance="synthetic")
