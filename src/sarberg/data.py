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
`parse_labels`, the second reader over the same forked record walk, reads
only each record's id and label.

The text `serialize_samples` writes is byte for byte `json.dumps`'s. Its
bands go through `floattext.join_reprs`, which prints a whole band's floats
as `float.__repr__` would, in numpy; `json.dumps` writes the rest. Reading
still builds one Python float per value, in `json`'s decoder.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import floattext, forked

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
    angle_imputed: True when `impute_incidence` filled inc_angle in; the
        models' readers fill a missing angle through `filled_angle` instead.
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

    def filled_angle(self, fill_angle: float | None) -> float:
        """The angle a model reads: inc_angle, or fill_angle where it is None."""
        angle = self.inc_angle if self.inc_angle is not None else fill_angle
        if angle is None:
            raise ValueError(f"sample {self.id!r} has no incidence angle and no fill angle")
        return angle

    def __reduce__(self):
        # Unpickled through the constructor, so the bands come back as
        # checked, read-only copies; pickle would restore them writable.
        return (
            SarSample,
            (self.id, self.hh, self.hv, self.inc_angle, self.angle_imputed, self.label),
        )


def _check_unique(ids: Iterable[str]) -> None:
    seen = set()
    for sample_id in ids:
        if sample_id in seen:
            raise ValueError(f"duplicate sample id {sample_id!r}")
        seen.add(sample_id)


@dataclass(frozen=True)
class SampleSet:
    """An ordered collection of samples with unique ids."""

    samples: tuple[SarSample, ...]
    provenance: str = "real"

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        _check_unique(s.id for s in self.samples)

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
    """Configuration for the synthetic scene generator.

    class_overlap, in [0, 1], moves each ship's shape and cross-pol gap
    ranges toward the iceberg's (`render_scene`): at 0 the classes come from
    disjoint ranges, at 1 a ship is a round blob drawn from the iceberg's.
    """

    n_samples: int
    iceberg_fraction: float = 0.5
    speckle_looks: int = 1
    seed: int = 0
    class_overlap: float = 0.0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not (0.0 < self.iceberg_fraction < 1.0):
            raise ValueError("iceberg_fraction must lie strictly in (0, 1)")
        if int(self.speckle_looks) != self.speckle_looks or self.speckle_looks < 1:
            raise ValueError("speckle_looks must be a positive integer")
        if not (0.0 <= self.class_overlap <= 1.0):
            raise ValueError("class_overlap must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Ingestion


def _record_error(index: int, rec_id, msg: str) -> ValueError:
    ident = f" (id {rec_id!r})" if rec_id is not None else ""
    return ValueError(f"record {index}{ident}: {msg}")


def _band_values(raw_band: list) -> np.ndarray | None:
    """The band as float64, or None unless it is a flat list of JSON numbers.

    float() would read "1.5" and true as numbers, so the dtype is inferred
    first: a string anywhere gives a str dtype, a band of booleans a bool one.
    Among numbers a boolean becomes 0 or 1, so only the entries equal to 0 or
    1 are looked at one by one; a band of dB values holds few of them."""
    try:
        arr = np.asarray(raw_band)
        if arr.dtype.kind == "O" and {int, float}.issuperset(map(type, raw_band)):
            arr = arr.astype(np.float64)  # an integer beyond int64
    except (ValueError, OverflowError):  # a nested list of uneven lengths, 10**400
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        return None
    arr = arr.astype(np.float64, copy=False)
    zero_or_one = np.flatnonzero((arr == 0.0) | (arr == 1.0))
    if any(type(raw_band[i]) is bool for i in zero_or_one.tolist()):
        return None
    return arr


def _parse_band(raw_band, index: int, rec_id, name: str) -> np.ndarray:
    if not isinstance(raw_band, list):
        raise _record_error(index, rec_id, f"{name} must be a list of numbers")
    if len(raw_band) != KAGGLE_BAND_PIXELS:
        raise _record_error(
            index, rec_id,
            f"{name} has {len(raw_band)} values, expected {KAGGLE_BAND_PIXELS}",
        )
    arr = _band_values(raw_band)
    if arr is None:
        raise _record_error(index, rec_id, f"{name} must be a flat list of numbers")
    arr = arr.reshape(SCENE_SIDE, SCENE_SIDE)
    if not np.all(np.isfinite(arr)):
        raise _record_error(index, rec_id, f"{name} contains non-finite values")
    return arr


def _record_id(index: int, rec) -> str:
    if not isinstance(rec, dict):
        raise _record_error(index, None, "record is not a JSON object")
    rec_id = rec.get("id")
    if not isinstance(rec_id, str):
        raise _record_error(index, rec_id, "missing or non-string id")
    return rec_id


def _label(index: int, rec_id: str, rec: dict, labeled: bool) -> int | None:
    if "is_iceberg" not in rec:
        if labeled:
            raise _record_error(index, rec_id, "missing field 'is_iceberg'")
        return None
    raw_label = rec["is_iceberg"]
    if raw_label not in (0, 1) or isinstance(raw_label, bool):
        raise _record_error(index, rec_id, f"is_iceberg must be 0 or 1, got {raw_label!r}")
    return int(raw_label)


def _sample(index: int, rec, labeled: bool) -> SarSample:
    """One decoded record as a SarSample; a refusal names the record."""
    rec_id = _record_id(index, rec)
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

    label = _label(index, rec_id, rec, labeled)
    return SarSample(id=rec_id, hh=hh, hv=hv, inc_angle=angle, label=label)


def _id_and_label(index: int, rec) -> tuple[str, int]:
    """One decoded record's id and label, checked as `_sample` checks them."""
    rec_id = _record_id(index, rec)
    return rec_id, _label(index, rec_id, rec, labeled=True)


# JSON's insignificant whitespace, as the json module skips it.
_WS = re.compile(r"[ \t\n\r]*")
# A comma that may sit between two records; it may also sit inside a string.
_BOUNDARY = re.compile(r"}[ \t\n\r]*(,)[ \t\n\r]*{")
_DECODER = json.JSONDecoder()
# Tokenises and checks every number as _DECODER does, but builds no float:
# each becomes the length of its text. Building the floats is most of a
# decode: 32 synthetic scenes take 65 ms with them and 17 ms without.
_FLOATLESS_DECODER = json.JSONDecoder(parse_float=len)


# A walk, not json.loads on each half, keeps one record's Python objects alive
# at a time: json.loads held a half's floats at once, and `cli_pipeline`'s
# peak_rss_mb rose from 209.4-209.7 to 218.1-218.8 MB (4 of 4 runs).
def _walk(raw: str, pos: int, index: int, read, decoder: json.JSONDecoder,
          stop: int | None = None):
    """Decode with `decoder`, one at a time, the records of the JSON array
    that follow raw[pos], its '[' or a ',' between two records, and read each
    as read(index, record); the first is record number `index`.

    The walk ends at the array's ']', which only whitespace may follow, or at
    the ',' at `stop` if it lands there between two records. JSON tokenises
    left to right, so landing there proves that the comma separates two
    top-level records. Returns (values read, index past the last record
    walked, refusal, landed): the refusal is the exception of the first
    record that `read` refused, and the walk goes on decoding after it, so
    that malformed text is refused first, as `json.loads` would. Malformed
    text raises json.JSONDecodeError."""
    values, refusal = [], None
    end = _WS.match(raw, pos + 1).end()
    closed = raw[pos] == "[" and raw.startswith("]", end)  # an empty array
    if closed:
        end = _WS.match(raw, end + 1).end()
    while not closed:
        rec, end = decoder.raw_decode(raw, end)
        if refusal is None:
            try:
                values.append(read(index, rec))
            except Exception as e:  # whatever checking this record raises
                refusal = e
        index += 1
        end = _WS.match(raw, end).end()
        if end == stop:
            return values, index, refusal, True
        closed = raw.startswith("]", end)
        if not closed and not raw.startswith(",", end):
            raise json.JSONDecodeError("Expecting ',' delimiter", raw, end)
        end = _WS.match(raw, end + 1).end()
    if end != len(raw):
        raise json.JSONDecodeError("Extra data", raw, end)
    return values, index, refusal, False


def _not_an_array(raw: str) -> ValueError:
    """The refusal of text that is not one JSON array, in json.loads' words."""
    try:
        json.loads(raw)
    except json.JSONDecodeError as e:
        return ValueError(f"malformed JSON: {e}")
    return ValueError("top-level JSON value must be an array of records")


def _read_records(raw: bytes | str, read, decoder: json.JSONDecoder) -> list:
    """[read(index, record) for each record of the JSON array raw], decoded
    with `decoder`.

    Records are decoded one at a time. A forked child decodes those after a
    comma near the middle of the text, and its values are kept only if this
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
            return _walk(raw, pos, index, read, decoder, stop)
        except json.JSONDecodeError:
            raise _not_an_array(raw) from None

    def half(part: int):
        if part == 0:
            return walk(start, 0, split)
        try:  # the child: its records' indices are not known here
            values, _, refusal, _ = _walk(raw, split, 0, read, decoder)
        except Exception:
            return None
        return None if refusal is not None else values

    first, *second = forked.map_items(half, range(1 if split is None else 2))
    values, index, refusal, landed = first
    if landed:
        rest = second[0]
        if rest is None:
            rest, _, later, _ = walk(split, index)
            refusal = refusal if refusal is not None else later
        values += rest
    if refusal is not None:
        raise refusal
    return values


def parse_samples(raw: bytes | str, labeled: bool) -> SampleSet:
    """Parse the competition JSON layout into a SampleSet.

    Records carry id, band_1 (HH), band_2 (HV), inc_angle (number or "na"),
    and is_iceberg (0 or 1) where the scene is labeled; `labeled` requires it
    on every record. Bands are 5625 values read row-major into 75x75 planes.
    A refusal names the first bad record by its index, or quotes json.loads
    on malformed text.
    """
    samples = _read_records(raw, lambda index, rec: _sample(index, rec, labeled), _DECODER)
    return SampleSet(samples=tuple(samples), provenance="real")


def parse_labels(raw: bytes | str) -> dict[str, int]:
    """The is_iceberg label of every record of the competition JSON layout, by
    id, in record order.

    Only the ids and labels are read: bands and angles are not checked, so a
    record that `parse_samples` refuses for a malformed band or angle is read
    here. Malformed JSON, a record that is not an object, a missing or
    non-string id, a repeated id and a missing or non-0/1 is_iceberg are
    refused in `parse_samples`' words.

    The text is first read without building floats, each becoming the length
    of its text. That read is exact on every record it accepts (an id
    is a string, a label the integer 0 or 1). A label written as 1.0, or a
    refusal quoting a float, is not; so a text that read refuses is read
    again with floats, and accepted or refused as `parse_samples` would.
    """
    try:
        pairs = _read_records(raw, _id_and_label, _FLOATLESS_DECODER)
    except ValueError:
        pairs = _read_records(raw, _id_and_label, _DECODER)
    _check_unique(rec_id for rec_id, _ in pairs)
    return dict(pairs)


def _encode(s: SarSample) -> str:
    """json.dumps of the sample's record, with separators (",", ":")."""
    angle = "na" if s.inc_angle is None else s.inc_angle
    label = "" if s.label is None else ',"is_iceberg":' + json.dumps(s.label)
    return "".join((
        '{"id":', json.dumps(s.id),
        ',"band_1":[', floattext.join_reprs(s.hh),
        '],"band_2":[', floattext.join_reprs(s.hv),
        '],"inc_angle":', json.dumps(angle), label, "}",
    ))


def serialize_samples(sset: SampleSet) -> str:
    """Serialize a SampleSet back to the competition JSON layout.

    Missing angles become the string "na"; is_iceberg is emitted only for
    labeled samples. parse(serialize(s)) reproduces s field-by-field (up to
    provenance and imputation flags, which the wire format does not carry).

    The text is `json.dumps`'s of the list of records, each with keys id,
    band_1, band_2, inc_angle and is_iceberg in that order, and separators
    (",", ":"). `json.dumps` writes the id, the angle and the label; each
    band is written whole by `floattext.join_reprs`, which gives the text
    `json.dumps` would (`float.__repr__` of each value) without a `repr`
    call per value. Records are encoded one at a time, through
    `forked.map_items`.
    """
    return "[" + ",".join(forked.map_items(_encode, sset.samples)) + "]"


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


def mean_incidence(angles: Iterable[float | None]) -> float:
    """The one fill rule: a training set's fill angle is the mean of its
    present angles (None marks a missing one), in their order. The readers
    put it in place of a missing angle; each model stores it for serving."""
    angles = list(angles)
    if not angles:
        raise ValueError("empty sample set")
    present = [a for a in angles if a is not None]
    if not present:
        raise ValueError("cannot impute: every sample is missing inc_angle")
    return float(np.mean(present))


def impute_incidence(sset: SampleSet) -> tuple[SampleSet, float]:
    """A copy of the set with every missing incidence angle replaced by
    `mean_incidence`'s fill angle and flagged angle_imputed, and that angle.

    The models do not call it: their readers fill a missing angle as they
    read the scene. It serves callers that want the filled scenes themselves.
    """
    mean_angle = mean_incidence(s.inc_angle for s in sset)
    out = tuple(
        replace(s, inc_angle=mean_angle, angle_imputed=True) if s.inc_angle is None else s
        for s in sset
    )
    return SampleSet(out, provenance=sset.provenance), mean_angle


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


def render_scene(
    rng: np.random.Generator, iceberg: bool, looks: int, overlap: float = 0.0
) -> Scene:
    """Render one scene in linear power, then convert to dB.

    Icebergs: wide super-Gaussian blob (radius 9-13), HV 0.5-3 dB below HH.
    Ships: elongated rotated blob, HV further below HH. Their half-length is
    uniform(6 + 3t, 9.5 + 3.5t), their axis ratio uniform(3.2 - 2.2t,
    4.5 - 3.5t) and their gap uniform(7 - 6.5t, 12 - 9t) dB, t = overlap in
    [0, 1]: at 1 a ship is drawn from the iceberg's ranges. Every t makes
    the same draws in the same order.
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
        t = overlap
        half_len = rng.uniform(6.0 + 3.0 * t, 9.5 + 3.5 * t)
        half_wid = half_len / rng.uniform(3.2 - 2.2 * t, 4.5 - 3.5 * t)
        phi = rng.uniform(0.0, np.pi)
        u = dy * np.cos(phi) + dx * np.sin(phi)
        v = -dy * np.sin(phi) + dx * np.cos(phi)
        envelope = np.exp(-(((u / half_len) ** 2 + (v / half_wid) ** 2) ** 2))
        crosspol_gap_db = rng.uniform(7.0 - 6.5 * t, 12.0 - 9.0 * t)

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
        scene = render_scene(
            rng, iceberg=bool(label), looks=int(cfg.speckle_looks), overlap=cfg.class_overlap
        )
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
