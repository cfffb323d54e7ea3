"""`floattext.join_reprs` against `float.__repr__`, value for value."""

import numpy as np
import pytest

from sarberg.data import SynthConfig, synth_dataset
from sarberg.floattext import _shortest, join_reprs


def rng():
    return np.random.default_rng(20181218)


def reprs(values) -> str:
    return ",".join(map(repr, np.asarray(values, dtype=np.float64).ravel().tolist()))


def assert_same_text(values):
    got, want = join_reprs(values), reprs(values)
    if got != want:  # name the first value that differs, not two long strings
        pairs = zip(got.split(","), want.split(","))
        i, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"value {i}: wrote {g!r}, repr gives {w!r}")


def named_values():
    tiny, small = 5e-324, 2.2250738585072014e-308
    edges = [1e-4, 1e16]
    out = [0.0, tiny, small, 0.1, 22.5, 9999999999999998.0, 9.9999999999999995,
           1.7976931348623157e308]
    out += [v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
    out += [2.0**53 + d for d in (-2, -1, 0, 1, 2)]
    out += [2.0**k for k in range(-1074, 1024, 7)]
    return np.array(out + [-v for v in out])


class TestAgainstRepr:
    """About 1.05M seeded values, drawn where the fast path has edges."""

    def test_uniform_db_range(self):
        assert_same_text(rng().uniform(-60.0, 10.0, 300_000))

    def test_log_normal_over_twenty_decades(self):
        gen = rng()
        mags = 10.0 ** gen.uniform(-10.0, 10.0, 200_000) * np.exp(gen.normal(0, 1, 200_000))
        assert_same_text(mags * gen.choice([-1.0, 1.0], 200_000))

    def test_decimals_rounded_to_0_to_5_places(self):
        gen = rng()
        scale = 10.0 ** gen.integers(0, 6, 200_000)
        assert_same_text(np.round(gen.uniform(-1000.0, 1000.0, 200_000) * scale) / scale)

    def test_integers(self):
        gen = rng()
        ints = gen.integers(-(10**15), 10**15, 100_000) // 10 ** gen.integers(0, 15, 100_000)
        assert_same_text(ints.astype(np.float64))

    def test_random_finite_bit_patterns(self):
        bits = rng().integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert_same_text(values[np.isfinite(values)])

    def test_quarters_between_1e15_and_2_to_53(self):
        """Between 10^15 and 2^53 a double is a multiple of 1/8 or 1/4 or 1/2,
        so x.25 and x.75 lie halfway between two 17-digit decimals, and ties
        go to even."""
        gen = rng()
        whole = np.floor(gen.uniform(1e15, 2.0**53, 60_000))
        assert_same_text(whole + gen.choice([0.25, 0.5, 0.75], 60_000))

    def test_16_digit_candidates_past_2_to_53(self):
        """Leading digits 9007199254740992..9999999999999999 give a 16-digit
        candidate that no single IEEE operation checks; each round-trips."""
        gen = rng()
        decade = 10.0 ** gen.integers(-4, 16, 100_000)
        assert_same_text(gen.uniform(2.0**53 / 1e15, 10.0, 100_000) * decade)

    def test_named_values(self):
        assert_same_text(named_values())


class TestShapes:
    def test_empty_and_one_value(self):
        assert join_reprs(np.array([])) == ""
        assert join_reprs(np.array([-7.25])) == "-7.25"

    def test_non_finite_values(self):
        assert_same_text([np.inf, -np.inf, np.nan, 1.5, -np.nan])

    def test_2d_and_strided_input_read_in_c_order(self):
        grid = np.arange(-12.0, 12.0).reshape(4, 6) / 8.0
        assert join_reprs(grid) == reprs(grid)
        assert join_reprs(grid.T) == reprs(grid.T)
        assert join_reprs(grid[:, ::2]) == reprs(grid[:, ::2])


def test_fast_path_takes_99_percent_of_synthetic_bands():
    bands = np.concatenate([
        np.concatenate([s.hh.ravel(), s.hv.ravel()])
        for s in synth_dataset(SynthConfig(n_samples=16, seed=801))
    ])
    fast = _shortest(np.abs(bands))[0].size
    assert fast >= 0.99 * bands.size, fast / bands.size
