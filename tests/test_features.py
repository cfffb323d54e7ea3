"""Feature extraction against closed-form and brute-force oracles."""

import os
from dataclasses import astuple

import numpy as np
import pytest

from sarberg.data import SampleSet, SarSample, SynthConfig, synth_dataset
from sarberg.features import (
    BAND_NAMES,
    FEATURE_NAMES,
    STAT_NAMES,
    _row_stats,
    band_stats,
    correlation_matrix,
    derived_bands,
    feature_matrix,
    feature_vector,
    normalize_incidence,
)
from tests.test_data import _forked_and_alone


def plane(arr):
    return np.asarray(arr, dtype=np.float64)


def sample(hh, hv, angle=30.0, imputed=False):
    return SarSample(
        id="s", hh=plane(hh), hv=plane(hv), inc_angle=angle, angle_imputed=imputed,
        label=1,
    )


def brute_stats(values):
    """Independent re-derivation: explicit sorted-position interpolation."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = v.size

    def quantile(q):
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return v[lo] * (1 - frac) + v[hi] * frac

    mean = float(np.sum(v) / n)
    var = float(np.sum((v - mean) ** 2) / (n - 1)) if n > 1 else 0.0
    return {
        "min": v[0],
        "max": v[-1],
        "mean": mean,
        "median": quantile(0.5),
        "q1": quantile(0.25),
        "q3": quantile(0.75),
        "std": np.sqrt(var),
    }


class TestNormalizeIncidence:
    def test_small_angle_limit_is_identity(self):
        p = plane(np.full((4, 4), -20.0))
        out = normalize_incidence(p, 1e-9)
        assert np.allclose(out, p, atol=1e-12)

    def test_forty_five_degrees_closed_form(self):
        p = plane(np.zeros((4, 4)))
        out = normalize_incidence(p, 45.0)
        assert np.allclose(out, 1.50515, atol=1e-4)

    def test_thirty_degrees_closed_form(self):
        p = plane(np.zeros((4, 4)))
        out = normalize_incidence(p, 30.0)
        assert np.allclose(out, 0.62469, atol=1e-4)

    def test_angle_bounds(self):
        p = plane(np.zeros((3, 3)))
        for theta in (0.0, 90.0, -5.0, 120.0):
            with pytest.raises(ValueError, match="incidence angle"):
                normalize_incidence(p, theta)

    def test_correction_cancels_in_band_difference(self):
        # The shared additive correction cancels; float addition leaves ulps.
        rng = np.random.default_rng(0)
        hh = rng.normal(size=(6, 6))
        hv = rng.normal(size=(6, 6))
        raw_diff = hh - hv
        nh = normalize_incidence(plane(hh), 37.0)
        nv = normalize_incidence(plane(hv), 37.0)
        assert np.max(np.abs((nh - nv) - raw_diff)) < 1e-12


class TestDerivedBands:
    def test_equal_bands(self):
        arr = np.random.default_rng(1).normal(size=(5, 5))
        diff, ratio = derived_bands(arr, arr)
        assert np.array_equal(diff, np.zeros((5, 5)))
        assert np.allclose(ratio, 1.0, atol=1e-12)

    def test_ten_db_gap(self):
        arr = np.random.default_rng(2).normal(size=(5, 5))
        diff, ratio = derived_bands(arr + 10.0, arr)
        assert np.allclose(diff, 10.0, atol=1e-12)
        assert np.allclose(ratio, 10.0, atol=1e-9)

    def test_three_db_gap(self):
        arr = np.zeros((4, 4))
        _, ratio = derived_bands(arr + 3.0, arr)
        assert np.allclose(ratio, 10.0**0.3, atol=1e-4)

    def test_ratio_always_finite(self):
        rng = np.random.default_rng(3)
        hh = rng.uniform(-45.0, 10.0, size=(8, 8))
        hv = rng.uniform(-45.0, 10.0, size=(8, 8))
        _, ratio = derived_bands(hh, hv)
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)


    def test_overflowing_ratio_refused(self):
        # 10^(4000/10) overflows float64: the scene is finite in dB, its
        # ratio band is not.
        hh = np.full((5, 5), -20.0)
        hh[2, 2] = 4000.0
        sset = SampleSet((sample(hh, np.full((5, 5), -25.0)),))
        with pytest.raises(ValueError, match="ratio band is not finite"):
            derived_bands(sset[0].hh, sset[0].hv)
        with pytest.raises(ValueError, match="sample 's': ratio band is not finite"):
            feature_matrix(sset, None)

    def test_empty_set_refused_by_name(self):
        with pytest.raises(ValueError, match="^empty sample set$"):
            feature_matrix(SampleSet(()), 30.0)

class TestBandStats:
    def test_constant_plane(self):
        s = band_stats(plane(np.full((5, 5), 7.5)))
        assert (s.min, s.max, s.mean, s.median, s.q1, s.q3) == (7.5,) * 6
        assert s.std == 0.0

    def test_one_to_five_quantile_convention(self):
        # Planes are at least 3x3, so the canonical 5-value example checks the
        # shared sorted-interpolation convention through the oracle itself.
        ref = brute_stats([1, 2, 3, 4, 5])
        assert ref["median"] == 3.0 and ref["q1"] == 2.0 and ref["q3"] == 4.0
        assert ref["std"] == pytest.approx(np.sqrt(2.5), abs=1e-12)

    def test_one_to_nine_hand_values(self):
        arr = np.arange(1.0, 10.0).reshape(3, 3)
        s = band_stats(plane(arr))
        assert (s.min, s.max, s.mean, s.median) == (1.0, 9.0, 5.0, 5.0)
        assert (s.q1, s.q3) == (3.0, 7.0)
        assert s.std == pytest.approx(np.sqrt(7.5), abs=1e-12)

    def test_random_plane_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            arr = rng.normal(size=(75, 75))
            s = band_stats(plane(arr))
            ref = brute_stats(arr)
            for name in STAT_NAMES:
                assert abs(getattr(s, name) - ref[name]) < 1e-12, name

    def test_matches_numpy_bitwise(self):
        rng = np.random.default_rng(16)
        for shape in ((3, 3), (3, 7), (8, 8), (75, 75)):
            # Values over six decades make b - a inexact, so the two lerp
            # forms round apart.
            bands = [rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
                     for _ in range(10)] + [
                rng.normal(-20.0, 5.0, size=shape),
                rng.integers(-3, 3, size=shape).astype(float),  # heavy ties
                rng.integers(-3, 3, size=shape) * 0.25 + 1.0,  # ties, no zero
                rng.choice([-0.0, 0.0, 1.0], size=shape),  # zeros of both signs
            ]
            expected = []
            for arr in bands:
                s = band_stats(plane(arr))
                v = arr.ravel()
                q1, median, q3 = np.quantile(v, (0.25, 0.5, 0.75))
                expect = np.array((v.min(), v.max(), v.mean(), median, q1, q3,
                                   np.std(v, ddof=1)))
                assert np.array(astuple(s)).tobytes() == expect.tobytes(), (shape, arr)
                expected.append(expect)
            # feature_vector's pass over four bands at once: each band sits
            # in each of the four rows beside three others.
            k = len(bands)
            for i in range(k):
                rows = [(i + j) % k for j in range(4)]
                got = _row_stats(np.stack([bands[r].ravel() for r in rows]))
                for j, r in enumerate(rows):
                    assert got[j].tobytes() == expected[r].tobytes(), (shape, r, j)

    def test_constant_band_exact_at_every_size(self):
        for shape in ((3, 3), (3, 7), (8, 8), (75, 75)):
            for value in (-27.878, 0.1, 0.0):
                s = band_stats(plane(np.full(shape, value)))
                assert astuple(s) == (value,) * 6 + (0.0,), (shape, value)

    def test_invariants_ordering(self):
        arr = np.random.default_rng(5).normal(size=(10, 10))
        s = band_stats(plane(arr))
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
        assert s.std >= 0

    def test_permutation_invariance(self):
        # Order statistics are exactly invariant; mean/std reorder their
        # floating-point sums, hence the 1e-12 comparison.
        rng = np.random.default_rng(6)
        arr = rng.normal(size=(6, 6))
        shuffled = rng.permutation(arr.ravel()).reshape(6, 6)
        a, b = band_stats(plane(arr)), band_stats(plane(shuffled))
        assert (a.min, a.max, a.median, a.q1, a.q3) == (b.min, b.max, b.median, b.q1, b.q3)
        assert a.mean == pytest.approx(b.mean, abs=1e-12)
        assert a.std == pytest.approx(b.std, abs=1e-12)

    def test_constant_shift_moves_location_stats_only(self):
        arr = np.random.default_rng(7).normal(size=(6, 6))
        a = band_stats(plane(arr))
        b = band_stats(plane(arr + 5.0))
        for name in ("min", "max", "mean", "median", "q1", "q3"):
            assert getattr(b, name) == pytest.approx(getattr(a, name) + 5.0, abs=1e-12)
        assert b.std == pytest.approx(a.std, abs=1e-12)


class TestFeatureVector:
    def test_field_order_is_stable(self):
        assert len(FEATURE_NAMES) == 30
        assert FEATURE_NAMES[0] == "hh_min"
        assert FEATURE_NAMES[7] == "hv_min"
        assert FEATURE_NAMES[-2:] == ("inc_angle", "angle_missing")
        assert [b for b in BAND_NAMES] == ["hh", "hv", "diff", "ratio"]

    def test_constant_band_sample(self):
        vec = feature_vector(sample(np.full((5, 5), -20.0), np.full((5, 5), -25.0)), 0.0)
        named = dict(zip(FEATURE_NAMES, vec))
        assert named["hh_mean"] == -20.0 and named["hh_std"] == 0.0
        assert named["diff_mean"] == 5.0
        assert named["ratio_mean"] == pytest.approx(10.0**0.5, abs=1e-9)
        assert named["inc_angle"] == 30.0 and named["angle_missing"] == 0.0

    def test_pixel_permutation_leaves_vector_unchanged(self):
        rng = np.random.default_rng(8)
        hh = rng.normal(size=(6, 6))
        hv = rng.normal(size=(6, 6))
        perm = rng.permutation(36)
        a = feature_vector(sample(hh, hv), 0.0)
        b = feature_vector(
            sample(hh.ravel()[perm].reshape(6, 6), hv.ravel()[perm].reshape(6, 6)), 0.0
        )
        assert np.max(np.abs(a - b)) < 1e-12

    def test_matches_recomputed_stats(self):
        rng = np.random.default_rng(9)
        s = sample(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)))
        vec = feature_vector(s, 0.0)
        diff, ratio = derived_bands(s.hh, s.hv)
        expected = []
        for p in (s.hh, s.hv, diff, ratio):
            expected.extend(brute_stats(p)[n] for n in STAT_NAMES)
        assert np.max(np.abs(vec[:28] - np.array(expected))) < 1e-12

    def test_missing_angle_uses_mean_and_flag(self):
        s = SarSample(id="m", hh=plane(np.zeros((4, 4))), hv=plane(np.zeros((4, 4))))
        vec = feature_vector(s, 33.3)
        assert vec[-2] == pytest.approx(33.3)
        assert vec[-1] == 1.0
        with pytest.raises(ValueError, match="'m'"):
            feature_vector(s, None)


class TestCorrelation:
    def test_unit_diagonal(self):
        X = np.random.default_rng(10).normal(size=(6, 4))
        corr = correlation_matrix(X)
        assert np.array_equal(np.diag(corr), np.ones(4))

    def test_negation_gives_minus_one(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=10)
        X = np.stack([x, -x], axis=1)
        corr = correlation_matrix(X)
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_brute_force(self):
        X = np.random.default_rng(12).normal(size=(3, 5))
        corr = correlation_matrix(X)
        n = X.shape[0]
        mu = X.mean(axis=0)
        sd = np.sqrt(((X - mu) ** 2).sum(axis=0) / (n - 1))
        for i in range(5):
            for j in range(5):
                cov = float(((X[:, i] - mu[i]) * (X[:, j] - mu[j])).sum() / (n - 1))
                assert abs(corr[i, j] - cov / (sd[i] * sd[j])) < 1e-12

    def test_symmetry_and_range(self):
        X = np.random.default_rng(13).normal(size=(20, 6))
        corr = correlation_matrix(X)
        assert np.array_equal(corr, corr.T)
        assert np.all(corr >= -1.0) and np.all(corr <= 1.0)

    def test_zero_variance_names_field(self):
        exact = np.random.default_rng(14).normal(size=(5, 3))
        exact[:, 2] = 1.0
        # The float std of this constant column is ~7e-15, not 0.
        inexact = np.random.default_rng(14).normal(size=(50, 3))
        inexact[:, 2] = -27.878
        for X in (exact, inexact):
            with pytest.raises(ValueError, match=FEATURE_NAMES[2]):
                correlation_matrix(X)

    def test_field_subset(self):
        X = np.random.default_rng(15).normal(size=(8, 30))
        corr = correlation_matrix(X, fields=[0, 3, 7])
        assert corr.shape == (3, 3)


def numpy_stats(band):
    """A band's seven statistics from numpy, as STAT_NAMES orders them; a
    constant band reads its own value as mean and 0 as std."""
    v = band.ravel()
    q1, median, q3 = np.quantile(v, (0.25, 0.5, 0.75))
    mean, std = (v.min(), 0.0) if v.min() == v.max() else (v.mean(), np.std(v, ddof=1))
    return np.array((v.min(), v.max(), mean, median, q1, q3, std))


def _refusal(sset):
    try:
        feature_matrix(sset, None)
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the scenes are shared only through os.fork")
class TestTwoProcessFeatures:
    """feature_matrix hands the second half of the set to a forked child; X
    and the refusals are those of one process."""

    @pytest.mark.parametrize("n", [1, 2, 3, 33])
    def test_bytes_match_one_process(self, n):
        sset = SampleSet(synth_dataset(SynthConfig(n_samples=max(n, 2), seed=n)).samples[:n])
        got, alone, forks = _forked_and_alone(feature_matrix, sset, 31.0)
        assert forks == (n > 1)
        assert got[0] == alone[0] == sset.ids()
        assert got[1].shape == (n, 30) and got[1].tobytes() == alone[1].tobytes()
        assert got[2].tobytes() == alone[2].tobytes()
        assert got[1].tobytes() == np.stack([feature_vector(s, 31.0) for s in sset]).tobytes()

    def test_edge_bands_match_one_process_and_numpy(self):
        rng = np.random.default_rng(17)
        shape = (3, 7)
        bands = [
            rng.choice([-0.0, 0.0, 1.0], size=shape),  # zeros of both signs
            np.where(np.arange(21).reshape(shape) < 10, -1.5, 0.0),  # a zero median
            np.full(shape, -27.878),  # constant
            np.full(shape, -0.0),  # constant negative zero
            rng.integers(-3, 3, size=shape).astype(float),  # heavy ties
            rng.normal(-20.0, 5.0, size=shape),
        ]
        pairs = [(a, b) for a in bands for b in bands]
        sset = SampleSet(tuple(
            SarSample(id=f"s{i}", hh=hh, hv=hv, inc_angle=30.0, label=i % 2)
            for i, (hh, hv) in enumerate(pairs)
        ))
        (_, X, _), (_, alone, _), forks = _forked_and_alone(feature_matrix, sset, None)
        assert forks == 1 and X.tobytes() == alone.tobytes()
        for row, (hh, hv) in zip(X, pairs):
            diff, ratio = derived_bands(hh, hv)
            expect = np.concatenate([numpy_stats(b) for b in (hh, hv, diff, ratio)])
            assert row[:28].tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "bad,named",
        [
            ({1: "ratio"}, 1),  # the caller's half
            ({4: "ratio"}, 4),  # the child's half
            ({1: "ratio", 4: "ratio"}, 1),  # both halves
            ({2: "angle"}, 2),
            ({5: "angle"}, 5),
            ({3: "angle", 5: "ratio"}, 3),
            ({4: "angle", 2: "ratio"}, 2),
            ({0: "angle", 3: "ratio"}, 0),
        ],
    )
    def test_first_bad_sample_in_set_order_named(self, bad, named):
        samples = list(synth_dataset(SynthConfig(n_samples=6, seed=4)).samples)
        for i, what in bad.items():
            s = samples[i]
            if what == "ratio":  # 10^(4000/10) overflows float64
                hh = s.hh.copy()
                hh[2, 2] = 4000.0
                samples[i] = SarSample(id=s.id, hh=hh, hv=s.hv, inc_angle=s.inc_angle)
            else:
                samples[i] = SarSample(id=s.id, hh=s.hh, hv=s.hv, inc_angle=None)
        sset = SampleSet(tuple(samples))
        refused, alone, forks = _forked_and_alone(_refusal, sset)
        assert forks == 1 and refused == alone
        reason = {
            "ratio": "ratio band is not finite",
            "angle": "has no incidence angle and no fill angle",
        }[bad[named]]
        assert refused.startswith(f"sample {samples[named].id!r}") and reason in refused
