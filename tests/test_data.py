"""Ingestion, splitting, imputation, and synthetic generator tests."""

import json
import math
import os
import pickle

import numpy as np
import pytest

from sarberg.data import (
    SampleSet,
    SarSample,
    SynthConfig,
    impute_incidence,
    parse_samples,
    render_scene,
    serialize_samples,
    split_train_validation,
    synth_dataset,
)


def make_record(rec_id, band_1=None, band_2=None, inc_angle=34.5, label=1):
    return {
        "id": rec_id,
        "band_1": band_1 if band_1 is not None else [0.0] * 5625,
        "band_2": band_2 if band_2 is not None else [0.0] * 5625,
        "inc_angle": inc_angle,
        "is_iceberg": label,
    }


def make_sample(rec_id="s0", value=0.0, angle=34.5, label=1, shape=(5, 5)):
    plane = np.full(shape, value)
    return SarSample(id=rec_id, hh=plane, hv=plane, inc_angle=angle, label=label)


class TestTypes:
    def test_plane_rejects_non_finite(self):
        arr = np.zeros((4, 4))
        arr[1, 2] = np.nan
        with pytest.raises(ValueError, match="'bad': hv contains non-finite"):
            SarSample(id="bad", hh=np.zeros((4, 4)), hv=arr)

    def test_plane_rejects_small(self):
        with pytest.raises(ValueError, match="'tiny': hh must be at least 3x3"):
            SarSample(id="tiny", hh=np.zeros((2, 5)), hv=np.zeros((2, 5)))

    def test_plane_is_immutable(self):
        s = make_sample(shape=(3, 3))
        for band in (s.hh, s.hv):
            with pytest.raises(ValueError):
                band[0, 0] = 1.0

    def test_band_must_be_2d(self):
        for shape in ((9,), (2, 4, 4)):
            with pytest.raises(ValueError, match="'x': hh must be 2-D"):
                SarSample(id="x", hh=np.zeros(shape), hv=np.zeros(shape))

    def test_bands_copied_on_construct(self):
        hh = np.full((4, 4), -20.0)
        hv = hh[:, ::-1].astype(np.float32)
        s = SarSample(id="c", hh=hh, hv=hv)
        hh[0, 0] = 5.0
        assert s.hh[0, 0] == -20.0 and not np.shares_memory(s.hh, hh)
        for band in (s.hh, s.hv):
            assert band.dtype == np.float64 and band.flags.c_contiguous

    def test_sample_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            SarSample(
                id="x",
                hh=np.zeros((4, 4)),
                hv=np.zeros((5, 5)),
            )

    def test_sample_angle_range(self):
        with pytest.raises(ValueError, match="inc_angle"):
            make_sample(angle=95.0)

    def test_unpickled_sample_is_rebuilt_read_only(self):
        s = make_sample("p", value=-3.0, angle=None, label=0)
        again = pickle.loads(pickle.dumps(s))
        assert (again.id, again.inc_angle, again.label) == ("p", None, 0)
        for band, orig in ((again.hh, s.hh), (again.hv, s.hv)):
            assert band.tobytes() == orig.tobytes() and not band.flags.writeable

    def test_set_rejects_duplicate_ids(self):
        s = make_sample("dup")
        with pytest.raises(ValueError, match="dup"):
            SampleSet((s, s))

    def test_synth_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_samples=1)
        with pytest.raises(ValueError):
            SynthConfig(n_samples=10, iceberg_fraction=1.0)
        with pytest.raises(ValueError):
            SynthConfig(n_samples=10, speckle_looks=0)


class TestParse:
    def test_constant_zero_record_with_na_angle(self):
        raw = json.dumps([make_record("a", inc_angle="na")])
        sset = parse_samples(raw, labeled=True)
        s = sset[0]
        assert s.id == "a"
        assert np.array_equal(s.hh, np.zeros((75, 75)))
        assert s.inc_angle is None
        assert s.label == 1

    def test_band_order_and_row_major(self):
        band_1 = list(range(5625))
        raw = json.dumps([make_record("a", band_1=band_1)])
        s = parse_samples(raw, labeled=True)[0]
        assert s.hh[0, 1] == 1.0
        assert s.hh[1, 0] == 75.0

    def test_duplicate_id_names_offender(self):
        raw = json.dumps([make_record("twin"), make_record("twin")])
        with pytest.raises(ValueError, match="twin"):
            parse_samples(raw, labeled=True)

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed JSON"):
            parse_samples(b"[{", labeled=False)

    def test_wrong_band_length_reports_record(self):
        raw = json.dumps([make_record("ok"), make_record("bad", band_1=[0.0] * 5624)])
        with pytest.raises(ValueError, match=r"record 1.*5624"):
            parse_samples(raw, labeled=True)

    def test_non_finite_value_names_record_and_band(self):
        for value in (float("nan"), float("inf"), -float("inf")):
            bad = make_record("bad", band_2=[0.0] * 5624 + [value])
            raw = json.dumps([make_record("ok"), bad])  # NaN, Infinity, -Infinity
            with pytest.raises(
                ValueError, match=r"record 1 \(id 'bad'\): band_2 contains non-finite"
            ):
                parse_samples(raw, labeled=True)

    def test_bad_label(self):
        raw = json.dumps([make_record("a", label=2)])
        with pytest.raises(ValueError, match="is_iceberg"):
            parse_samples(raw, labeled=True)

    def test_unlabeled_mode_reads_labels_where_present(self):
        bare = make_record("b")
        del bare["is_iceberg"]
        raw = json.dumps([make_record("a", label=0), bare])
        assert parse_samples(raw, labeled=False).labels() == [0, None]
        with pytest.raises(ValueError, match=r"record 1 \(id 'b'\): missing field 'is_iceberg'"):
            parse_samples(raw, labeled=True)
        for bad in (2, True, "1", None):
            raw = json.dumps([make_record("a"), make_record("c", label=bad)])
            with pytest.raises(ValueError, match=r"record 1 \(id 'c'\): is_iceberg must be"):
                parse_samples(raw, labeled=False)

    def test_round_trip_identity(self):
        sset = synth_dataset(SynthConfig(n_samples=4, iceberg_fraction=0.5, seed=3))
        again = parse_samples(serialize_samples(sset), labeled=True)
        assert again.ids() == sset.ids()
        for a, b in zip(again, sset):
            assert np.array_equal(a.hh, b.hh)
            assert np.array_equal(a.hv, b.hv)
            assert a.inc_angle == b.inc_angle
            assert a.label == b.label

    def test_round_trip_preserves_na(self):
        raw = json.dumps([make_record("a", inc_angle="na")])
        sset = parse_samples(raw, labeled=True)
        again = parse_samples(serialize_samples(sset), labeled=True)
        assert again[0].inc_angle is None


def _parsed(raw, labeled=False):
    """What parse_samples makes of raw: each sample's fields and band bytes,
    or the refusal's message."""
    try:
        sset = parse_samples(raw, labeled=labeled)
    except ValueError as e:
        return f"refused: {e}"
    return [
        (s.id, s.hh.tobytes(), s.hv.tobytes(), s.inc_angle, s.label,
         s.hh.flags.writeable, s.hv.flags.writeable)
        for s in sset
    ]


def _forked_and_alone(fn, *args):
    """fn(*args) as it runs, then with os.fork removed, and how many times
    the first call forked."""
    real_fork, forks = os.fork, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        forked = fn(*args)
        mp.delattr(os, "fork")
        alone = fn(*args)
    return forked, alone, len(forks)


def _loads_refusal(raw):
    try:
        json.loads(raw)
    except json.JSONDecodeError as e:
        return f"refused: malformed JSON: {e}"
    return "refused: top-level JSON value must be an array of records"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the records are shared only through os.fork")
class TestTwoProcessCodec:
    """serialize_samples and parse_samples hand half of the records to a
    forked child; bytes, samples and refusals are those of one process."""

    @staticmethod
    def records(n, seed=5):
        sset = synth_dataset(SynthConfig(n_samples=max(n, 2), seed=seed))
        return json.loads(serialize_samples(SampleSet(sset.samples[:n])))

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_bytes_and_samples_match_one_process(self, n):
        sset = synth_dataset(SynthConfig(n_samples=max(n, 2), seed=n))
        sset = SampleSet(sset.samples[:n], provenance="synthetic")
        text, text_alone, forks = _forked_and_alone(serialize_samples, sset)
        assert text == text_alone == json.dumps(json.loads(text), separators=(",", ":"))
        assert forks == (n > 1)
        parsed, parsed_alone, forks = _forked_and_alone(_parsed, text, True)
        assert parsed == parsed_alone and forks == (n > 1)
        assert [p[:5] for p in parsed] == [
            (s.id, s.hh.tobytes(), s.hv.tobytes(), s.inc_angle, s.label) for s in sset
        ]
        assert not any(flag for p in parsed for flag in p[5:])

    def test_kaggle_whitespace(self):
        records = self.records(4)
        for raw in [
            json.dumps(records),  # ", " and ": "
            "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n",
            " \r\n\t[ " + " ,\n\n ".join(json.dumps(r) for r in records) + " ] \n",
        ]:
            parsed, alone, forks = _forked_and_alone(_parsed, raw)
            assert parsed == alone and len(parsed) == 4 and forks == 1

    @pytest.mark.parametrize("text", ["},{", '"},{\\"id\\"', '"},{"id"'])
    def test_boundary_text_inside_an_id(self, text):
        records = self.records(3)
        records[1]["id"] = "x" + text * (2 * len(json.dumps(records[0])) // len(text))
        raw = json.dumps(records, separators=(",", ":"))
        encoded = json.dumps(records[1]["id"])
        where = raw.index(encoded)
        assert where < len(raw) // 2 < where + len(encoded)  # the search starts in it
        parsed, alone, forks = _forked_and_alone(_parsed, raw)
        assert parsed == alone and [p[0] for p in parsed] == [r["id"] for r in records]
        assert forks == 1

    def test_malformed_text_in_either_half_refused_alike(self):
        raw = json.dumps(self.records(6), separators=(",", ":"))
        head = raw.index("},{") + 1  # the first record's end
        variants = {
            "truncated in the first half": raw[: len(raw) // 4],
            "truncated in the second half": raw[: 3 * len(raw) // 4],
            "trailing comma": raw[:-1] + ",]",
            "no closing bracket": raw[:-1],
            "a bad token in the first half": raw[:head] + ",x" + raw[head:],
            "extra data": raw + "[]",
            "a top-level object": json.dumps({"records": json.loads(raw)}),
        }
        for name, bad in variants.items():
            refused, alone, _ = _forked_and_alone(_parsed, bad)
            assert refused == alone == _loads_refusal(bad), name

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda r: r.update(is_iceberg=2), "is_iceberg must be 0 or 1, got 2"),
            (lambda r: r.update(band_1=r["band_1"][:-1]), "band_1 has 5624 values"),
            (lambda r: r.update(band_2="x"), "band_2 must be a list of numbers"),
            (lambda r: r["band_1"].__setitem__(7, {"v": 1.0}),
             "band_1 must be a flat list of numbers"),
            (lambda r: r.update(band_2=[[v] for v in r["band_2"]]),
             "band_2 must be a flat list of numbers"),
            (lambda r: r.update(inc_angle=10**400), "inc_angle overflows float64"),
            (lambda r: r.update(inc_angle=math.nan), "inc_angle nan outside (0, 90)"),
            (lambda r: r.update(inc_angle=95), "inc_angle 95.0 outside (0, 90)"),
        ],
    )
    def test_refusal_in_the_childs_half_names_the_record(self, edit, message):
        records = self.records(6)
        edit(records[4])
        raw = json.dumps(records, separators=(",", ":"))
        refused, alone, forks = _forked_and_alone(_parsed, raw)
        assert refused == alone and forks == 1
        assert refused.startswith(f"refused: record 4 (id {records[4]['id']!r}): {message}")

    def test_earliest_refused_record_named(self):
        records = self.records(6)
        del records[1]["is_iceberg"]
        records[5]["band_2"] = records[5]["band_2"][:9]
        raw = json.dumps(records, separators=(",", ":"))
        refused, alone, _ = _forked_and_alone(_parsed, raw, True)
        assert refused == alone == (
            f"refused: record 1 (id {records[1]['id']!r}): missing field 'is_iceberg'"
        )
        # ... unless the text is malformed further on.
        refused, alone, _ = _forked_and_alone(_parsed, raw[:-1], True)
        assert refused == alone == _loads_refusal(raw[:-1])


class TestSplit:
    def _balanced_set(self, n=100):
        samples = tuple(
            make_sample(f"s{i}", value=float(i), label=i % 2) for i in range(n)
        )
        return SampleSet(samples)

    def test_paper_ratio_four_to_one(self):
        sset = self._balanced_set(100)
        train, val = split_train_validation(sset, 0.2, seed=9)
        assert len(train) == 80 and len(val) == 20
        assert sum(s.label for s in val) == 10

    def test_deterministic(self):
        sset = self._balanced_set(40)
        a = split_train_validation(sset, 0.2, seed=5)
        b = split_train_validation(sset, 0.2, seed=5)
        assert a[0].ids() == b[0].ids() and a[1].ids() == b[1].ids()

    def test_partition_identity(self):
        sset = self._balanced_set(30)
        train, val = split_train_validation(sset, 0.3, seed=1)
        merged = sorted(train.ids() + val.ids())
        assert merged == sorted(sset.ids())
        assert set(train.ids()).isdisjoint(val.ids())

    def test_per_class_proportion_within_one(self):
        samples = tuple(
            make_sample(f"s{i}", label=1 if i < 30 else 0) for i in range(100)
        )
        train, val = split_train_validation(SampleSet(samples), 0.25, seed=2)
        n_ice = sum(s.label for s in val)
        assert len(val) == 25
        assert abs(n_ice - 0.25 * 30) <= 1

    def test_unlabeled_rejected(self):
        samples = (make_sample("a", label=1), make_sample("b", label=None))
        with pytest.raises(ValueError, match="unlabeled"):
            split_train_validation(SampleSet(samples), 0.5, seed=0)

    def test_single_class_rejected(self):
        samples = tuple(make_sample(f"s{i}", label=1) for i in range(10))
        with pytest.raises(ValueError, match="class"):
            split_train_validation(SampleSet(samples), 0.5, seed=0)

    def test_empty_set_rejected_before_class_check(self):
        with pytest.raises(ValueError, match="^empty sample set$"):
            split_train_validation(SampleSet(()), 0.5, seed=0)


class TestImpute:
    def test_hand_example(self):
        samples = (
            make_sample("a", angle=30.0),
            make_sample("b", angle=None),
            make_sample("c", angle=40.0),
        )
        out, mean_angle = impute_incidence(SampleSet(samples))
        assert mean_angle == pytest.approx(35.0)
        assert [s.inc_angle for s in out] == [30.0, 35.0, 40.0]
        assert [s.angle_imputed for s in out] == [False, True, False]

    def test_identity_when_complete(self):
        samples = (make_sample("a", angle=25.0), make_sample("b", angle=35.0))
        out, mean_angle = impute_incidence(SampleSet(samples))
        assert out.samples == samples
        assert mean_angle == pytest.approx(30.0)

    def test_all_missing_is_error(self):
        samples = (make_sample("a", angle=None), make_sample("b", angle=None))
        with pytest.raises(ValueError, match="impute"):
            impute_incidence(SampleSet(samples))


class TestSynth:
    def test_bitwise_determinism(self):
        cfg = SynthConfig(n_samples=10, iceberg_fraction=0.5, speckle_looks=1, seed=7)
        a = synth_dataset(cfg)
        b = synth_dataset(cfg)
        for sa, sb in zip(a, b):
            assert sa.id == sb.id and sa.label == sb.label
            assert sa.inc_angle == sb.inc_angle
            assert np.array_equal(sa.hh, sb.hh)
            assert np.array_equal(sa.hv, sb.hv)

    def test_label_counts_by_construction(self):
        sset = synth_dataset(SynthConfig(n_samples=1000, iceberg_fraction=0.5, seed=1))
        assert sum(s.label for s in sset) == 500

    def test_samples_satisfy_invariants(self):
        sset = synth_dataset(SynthConfig(n_samples=20, iceberg_fraction=0.4, seed=5))
        for s in sset:
            assert s.hh.shape == (75, 75) and s.hv.shape == (75, 75)
            assert 20.0 <= s.inc_angle <= 45.0
            assert np.all(np.isfinite(s.hh))

    def test_in_mask_crosspol_gap_orders_classes(self):
        rng = np.random.default_rng(123)
        gaps = {True: [], False: []}
        for _ in range(200):
            for iceberg in (True, False):
                scene = render_scene(rng, iceberg=iceberg, looks=2)
                gaps[iceberg].append(
                    np.mean(scene.hh[scene.target_mask] - scene.hv[scene.target_mask])
                )
        assert np.mean(gaps[True]) < np.mean(gaps[False]) - 3.0

    def test_threshold_on_mean_gap_separates_classes(self):
        sset = synth_dataset(
            SynthConfig(n_samples=1000, iceberg_fraction=0.5, speckle_looks=1, seed=11)
        )
        stat = np.array([np.mean(s.hh - s.hv) for s in sset])
        y = np.array([s.label for s in sset])
        best = max(np.mean((stat < t) == (y == 1)) for t in np.unique(stat))
        assert best >= 0.80
