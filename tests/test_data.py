"""Ingestion, splitting, imputation, and synthetic generator tests."""

import ast
import hashlib
import json
import math
import os
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sarberg
from sarberg.data import (
    SampleSet,
    SarSample,
    SynthConfig,
    impute_incidence,
    mean_incidence,
    parse_labels,
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

    def test_band_of_json_numbers_only(self):
        # 0 and 1, as integers or floats, are numbers; false among them is not.
        values = [0, 1, 0.0, 1.0, -3, 2**70] + [0.5] * 5619
        s = parse_samples(json.dumps([make_record("a", band_2=values)]), labeled=True)[0]
        assert s.hv.ravel().tolist() == [float(v) for v in values]
        values[3] = False
        with pytest.raises(ValueError, match=r"record 0 \(id 'a'\): band_2 must be a flat list"):
            parse_samples(json.dumps([make_record("a", band_2=values)]), labeled=True)

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


def _malformed_variants(records):
    """Malformed texts of records, by what is wrong with them."""
    raw = json.dumps(records, separators=(",", ":"))
    head = raw.index("},{") + 1  # the first record's end
    return {
        "truncated in the first half": raw[: len(raw) // 4],
        "truncated in the second half": raw[: 3 * len(raw) // 4],
        "trailing comma": raw[:-1] + ",]",
        "no closing bracket": raw[:-1],
        "a bad token in the first half": raw[:head] + ",x" + raw[head:],
        "extra data": raw + "[]",
        "a top-level object": json.dumps({"records": json.loads(raw)}),
    }


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
        for name, bad in _malformed_variants(self.records(6)).items():
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
            (lambda r: r.update(band_1=[str(v) for v in r["band_1"]]),
             "band_1 must be a flat list of numbers"),
            (lambda r: r.update(band_2=[True] * len(r["band_2"])),
             "band_2 must be a flat list of numbers"),
            # numpy would promote this band to float64, reading true as 1.0.
            (lambda r: r["band_1"].__setitem__(9, True), "band_1 must be a flat list of numbers"),
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


def _labels(raw):
    """What parse_labels makes of raw: its labels by id, or the refusal's message."""
    try:
        return parse_labels(raw)
    except ValueError as e:
        return f"refused: {e}"


def _sample_labels(raw):
    """What parse_samples makes of raw, as `_labels` reports it."""
    parsed = _parsed(raw, labeled=True)
    return parsed if isinstance(parsed, str) else {p[0]: p[4] for p in parsed}


def _labels_agree(raw):
    """parse_labels(raw), forked and alone, equals what parse_samples reads;
    returns it and how many times it forked."""
    labels, alone, forks = _forked_and_alone(_labels, raw)
    assert labels == alone == _sample_labels(raw)
    return labels, forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the records are shared only through os.fork")
class TestLabelReader:
    """parse_labels reads the ids and labels that parse_samples reads, and
    refuses ids and labels in its words, over the same forked record walk."""

    records = staticmethod(TestTwoProcessCodec.records)

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_agrees_with_parse_samples(self, n):
        records = self.records(n, seed=n)
        labels, forks = _labels_agree(json.dumps(records, separators=(",", ":")))
        assert labels == {r["id"]: r["is_iceberg"] for r in records}
        assert forks == (n > 1)

    def test_kaggle_whitespace(self):
        records = self.records(4)
        for raw in [
            json.dumps(records),
            "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n",
            " \r\n\t[ " + " ,\n\n ".join(json.dumps(r) for r in records) + " ] \n",
        ]:
            labels, forks = _labels_agree(raw)
            assert len(labels) == 4 and forks == 1

    @pytest.mark.parametrize("text", ["},{", '"},{\\"id\\"', '"},{"id"'])
    def test_boundary_text_inside_an_id(self, text):
        records = self.records(3)
        records[1]["id"] = "x" + text * (2 * len(json.dumps(records[0])) // len(text))
        labels, forks = _labels_agree(json.dumps(records, separators=(",", ":")))
        assert list(labels) == [r["id"] for r in records] and forks == 1

    def test_malformed_text_refused_alike(self):
        for name, bad in _malformed_variants(self.records(6)).items():
            labels, _ = _labels_agree(bad)
            assert labels == _loads_refusal(bad), name

    @pytest.mark.parametrize("where", [1, 4])
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda r: r.update(is_iceberg=2), "is_iceberg must be 0 or 1, got 2"),
            (lambda r: r.update(is_iceberg=0.5), "is_iceberg must be 0 or 1, got 0.5"),
            (lambda r: r.update(is_iceberg=[1.25]), "is_iceberg must be 0 or 1, got [1.25]"),
            (lambda r: r.update(is_iceberg=True), "is_iceberg must be 0 or 1, got True"),
            (lambda r: r.update(is_iceberg="1"), "is_iceberg must be 0 or 1, got '1'"),
            (lambda r: r.update(is_iceberg=None), "is_iceberg must be 0 or 1, got None"),
            (lambda r: r.pop("is_iceberg"), "missing field 'is_iceberg'"),
            (lambda r: r.update(id=1.5), "(id 1.5): missing or non-string id"),
            (lambda r: r.pop("id"), "missing or non-string id"),
            (lambda r: r.update(id=[2.5]), "(id [2.5]): missing or non-string id"),
        ],
    )
    def test_id_and_label_refusals_in_parse_samples_words(self, where, edit, message):
        records = self.records(6)
        edit(records[where])
        labels, _ = _labels_agree(json.dumps(records, separators=(",", ":")))
        assert labels.startswith(f"refused: record {where}") and labels.endswith(message)

    def test_non_object_record_refused_alike(self):
        records = self.records(6)
        records[4] = [1.5, "id"]
        labels, _ = _labels_agree(json.dumps(records))
        assert labels == "refused: record 4: record is not a JSON object"

    def test_float_labels_read_as_parse_samples_reads_them(self):
        records = self.records(6)
        for r, label in zip(records, [1.0, 0.0, 1e0, 0, 1, -0.0]):
            r["is_iceberg"] = label
        labels, _ = _labels_agree(json.dumps(records))
        assert list(labels.values()) == [1, 0, 1, 0, 1, 0]

    def test_duplicate_id_across_the_halves(self):
        records = self.records(6)
        records[5]["id"] = records[1]["id"]
        labels, forks = _labels_agree(json.dumps(records, separators=(",", ":")))
        assert labels == f"refused: duplicate sample id {records[1]['id']!r}" and forks == 1

    def test_earliest_refused_record_named(self):
        records = self.records(6)
        del records[1]["is_iceberg"]
        records[5]["id"] = None
        raw = json.dumps(records, separators=(",", ":"))
        labels, _ = _labels_agree(raw)
        assert labels == f"refused: record 1 (id {records[1]['id']!r}): missing field 'is_iceberg'"
        labels, _ = _labels_agree(raw[:-1])  # ... unless the text is malformed further on
        assert labels == _loads_refusal(raw[:-1])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.update(band_1=[0.5, 1.5, 2.5]),
            lambda r: r.update(inc_angle="34.5"),
            lambda r: r.pop("band_2"),
        ],
    )
    def test_bands_and_angles_are_not_read(self, edit):
        records = self.records(6)
        edit(records[4])
        raw = json.dumps(records, separators=(",", ":"))
        labels, alone, _ = _forked_and_alone(_labels, raw)
        assert labels == alone == {r["id"]: r["is_iceberg"] for r in records}
        assert _parsed(raw, labeled=True).startswith(f"refused: record 4 (id {records[4]['id']!r})")


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

    def test_mean_incidence_is_the_one_rule(self):
        # impute_incidence refuses with mean_incidence's words.
        none = SampleSet((make_sample("a", angle=None), make_sample("b", angle=None)))
        for angles, sset, refusal in (
            ([], SampleSet(()), "^empty sample set$"),
            ([None, None], none, "^cannot impute: every sample is missing inc_angle$"),
        ):
            with pytest.raises(ValueError, match=refusal):
                mean_incidence(iter(angles))
            with pytest.raises(ValueError, match=refusal):
                impute_incidence(sset)
        assert mean_incidence(iter([30.0, None, 40.0])) == 35.0


def _angle_writers(tree):
    """The functions, innermost, whose bodies call replace(..., inc_angle=...)
    (as a name or an attribute); "<module>" for a call outside any function."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call)
                    and getattr(func, "id", getattr(func, "attr", None)) == "replace"
                    and any(k.arg == "inc_angle" for k in child.keywords)):
                found.add(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_one_angle_fill_path():
    """Only data.impute_incidence writes an angle into a scene; the models'
    readers fill a missing one as they read it, so no second path rewrites
    scenes."""
    root = Path(sarberg.__file__).parent
    writers = set()
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(), filename=str(path))
        writers |= {f"{module}.{fn}" for fn in _angle_writers(tree)}
    assert writers == {"data.impute_incidence"}


def test_angle_writers_found_in_either_spelling_and_nesting():
    tree = ast.parse(
        "replace(s, inc_angle=1.0)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return dataclasses.replace(s, label=0, inc_angle=None)\n"
        "    return inner, (lambda: [replace(t, inc_angle=a) for t in ts])\n"
        "def clean():\n"
        "    return replace(s, label=1)\n"
    )
    assert _angle_writers(tree) == {"<module>", "inner", "<lambda>"}


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

    @pytest.mark.parametrize("t", [-0.1, 1.1, float("nan")])
    def test_class_overlap_outside_0_1_rejected(self, t):
        with pytest.raises(ValueError, match="class_overlap"):
            SynthConfig(n_samples=4, class_overlap=t)

    def test_class_overlap_moves_ships_only_and_no_draw(self):
        """Every draw keeps its place in the stream: the labels, angles and
        icebergs are those of the default; only the ships change."""
        default = synth_dataset(SynthConfig(n_samples=12, seed=3))
        for t in (0.5, 1.0):
            moved = synth_dataset(SynthConfig(n_samples=12, seed=3, class_overlap=t))
            for a, b in zip(default, moved):
                assert (a.id, a.label, a.inc_angle) == (b.id, b.label, b.inc_angle)
                same = a.hh.tobytes() == b.hh.tobytes() and a.hv.tobytes() == b.hv.tobytes()
                assert same == (a.label == 1)

    def test_full_overlap_ship_gap_is_the_icebergs(self):
        rng = np.random.default_rng(123)
        gaps = {True: [], False: []}
        for _ in range(200):
            for iceberg in (True, False):
                scene = render_scene(rng, iceberg=iceberg, looks=2, overlap=1.0)
                gaps[iceberg].append(
                    np.mean(scene.hh[scene.target_mask] - scene.hv[scene.target_mask])
                )
        assert abs(np.mean(gaps[True]) - np.mean(gaps[False])) < 0.5

    def test_threshold_on_mean_gap_separates_classes(self):
        sset = synth_dataset(
            SynthConfig(n_samples=1000, iceberg_fraction=0.5, speckle_looks=1, seed=11)
        )
        stat = np.array([np.mean(s.hh - s.hv) for s in sset])
        y = np.array([s.label for s in sset])
        best = max(np.mean((stat < t) == (y == 1)) for t in np.unique(stat))
        assert best >= 0.80


def _records(sset):
    records = []
    for s in sset:
        rec = {
            "id": s.id,
            "band_1": s.hh.ravel().tolist(),
            "band_2": s.hv.ravel().tolist(),
            "inc_angle": "na" if s.inc_angle is None else s.inc_angle,
        }
        if s.label is not None:
            rec["is_iceberg"] = s.label
        records.append(rec)
    return records


class TestWriter:
    """serialize_samples writes json.dumps's text of the record dicts."""

    @staticmethod
    def assert_dumps_text(sset):
        assert serialize_samples(sset) == json.dumps(_records(sset), separators=(",", ":"))

    @pytest.mark.parametrize("n, seed", [(2, 1), (3, 104729), (9, 802)])
    def test_synthetic_sets(self, n, seed):
        self.assert_dumps_text(synth_dataset(SynthConfig(n_samples=n, seed=seed)))

    def test_hand_built_sets(self):
        band = np.full((5, 5), -21.5)
        band.flat[:6] = [0.0, -0.0, 1e-300, 1e300, -1e-300, 5e-324]
        self.assert_dumps_text(SampleSet((
            SarSample(id="no-angle", hh=band, hv=-band, inc_angle=None, label=0),
            SarSample(id="unlabeled", hh=band.T, hv=band, inc_angle=38.0),
            SarSample(id="glacier_\u00e9_\u51b0\U0001f9ca", hh=band, hv=band, inc_angle=22.25,
                      label=1),
        )))

    def test_unlabeled_synthetic_scenes(self):
        sset = synth_dataset(SynthConfig(n_samples=4, seed=9))
        self.assert_dumps_text(SampleSet(tuple(replace(s, label=None) for s in sset)))

    def test_empty_set(self):
        assert serialize_samples(SampleSet(())) == "[]"


class TestStoredBytes:
    """The generator's and the writer's bytes, pinned by digest: a change to
    `render_scene`, `synth_dataset` or `serialize_samples` that moves one byte
    of a default synthetic set fails here."""

    DIGESTS = {
        (2, 0): "e4cbf46ae05118eead7f194a29c3e47a8ccdb9ad4c4cd06b5d07cdd699cf6627",
        (7, 5): "4b4460839b3201534c00c7739bab53381a4c4c200e9601021314002a0687ac8e",
        (32, 801): "20205031d7017605a5b6d5ef796498d8eb240c37e80dff950cb082faf8fee5e7",
        (96, 104729): "51dd446cdaa4552289702088f5376ab42ad453e6f5fba069f3492847cae727d6",
    }

    @pytest.mark.parametrize("n, seed", sorted(DIGESTS))
    def test_default_synthetic_set_digest(self, n, seed):
        text = serialize_samples(synth_dataset(SynthConfig(n_samples=n, seed=seed)))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == self.DIGESTS[n, seed]
