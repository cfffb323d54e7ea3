"""Transform correctness against brute-force index and convolution oracles."""

import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from sarberg.data import SampleSet, SarSample
from sarberg.harness import write_pgm
from sarberg.imageops import (
    AugmentationPolicy,
    augment_dataset,
    gaussian_kernel_1d,
    gaussian_smooth,
    laplacian,
    reflect,
    rotate,
    sample_augmentation,
    shift,
    sobel,
)


def plane(arr):
    return np.asarray(arr, dtype=np.float64)


def random_plane(shape=(16, 16), seed=0):
    return plane(np.random.default_rng(seed).normal(size=shape))


def dense_correlate(arr, kernel):
    """Reference 2-D correlation: explicit loops, edge-replicate padding."""
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    h, w = arr.shape
    out = np.zeros_like(arr)
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    rr = min(max(r + i - ry, 0), h - 1)
                    cc = min(max(c + j - rx, 0), w - 1)
                    acc += kernel[i, j] * arr[rr, cc]
            out[r, c] = acc
    return out


class TestRotate:
    def test_four_quarter_turns_identity(self):
        p = random_plane((7, 7), seed=1)
        q = p
        for _ in range(4):
            q = rotate(q, 90.0)
        assert np.array_equal(q, p)

    def test_zero_identity(self):
        p = random_plane((5, 8), seed=2)
        assert np.array_equal(rotate(p, 0.0), p)

    def test_quarter_turn_matches_index_map_oracle(self):
        # CCW 90 degrees sends (r, c) to (W-1-c, r); checked for every pixel.
        w = 5
        for r in range(w):
            for c in range(w):
                arr = np.zeros((w, w))
                arr[r, c] = 1.0
                got = rotate(plane(arr), 90.0)
                expect = np.zeros((w, w))
                expect[w - 1 - c, r] = 1.0
                assert np.array_equal(got, expect), (r, c)

    def test_bilinear_preserves_constant(self):
        p = plane(np.full((9, 9), 3.25))
        assert np.allclose(rotate(p, 17.3), 3.25)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rotate(random_plane(), float("nan"))

    def test_dimensions_preserved(self):
        p = random_plane((6, 11), seed=3)
        assert rotate(p, 33.0).shape == (6, 11)


class TestReflect:
    def test_involution(self):
        p = random_plane((6, 9), seed=4)
        for axis in ("horizontal", "vertical"):
            assert np.array_equal(reflect(reflect(p, axis), axis), p)

    def test_symmetric_plane_fixed(self):
        arr = np.array([[1.0, 2.0, 1.0], [4.0, 5.0, 4.0], [7.0, 8.0, 7.0]])
        assert np.array_equal(reflect(plane(arr), "horizontal"), arr)

    def test_hand_oracle_one_to_nine(self):
        arr = np.arange(1.0, 10.0).reshape(3, 3)
        got = reflect(plane(arr), "horizontal")
        assert np.array_equal(got, [[3, 2, 1], [6, 5, 4], [9, 8, 7]])

    def test_vertical_reverses_rows(self):
        arr = np.arange(1.0, 10.0).reshape(3, 3)
        got = reflect(plane(arr), "vertical")
        assert np.array_equal(got, [[7, 8, 9], [4, 5, 6], [1, 2, 3]])

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            reflect(random_plane(), "diagonal")


class TestShift:
    def test_zero_identity(self):
        p = random_plane((5, 5), seed=5)
        assert np.array_equal(shift(p, 0, 0), p)

    def test_constant_fill_symmetry(self):
        p = plane(np.full((6, 6), 2.5))
        for dx, dy in ((3, 0), (-2, 4), (5, -5)):
            assert np.array_equal(shift(p, dx, dy), p)

    def test_delta_moves_by_offset(self):
        arr = np.zeros((5, 5))
        arr[2, 2] = 1.0
        got = shift(plane(arr), 1, 0)
        expect = np.zeros((5, 5))
        expect[2, 3] = 1.0
        assert np.array_equal(got, expect)

    def test_down_shift(self):
        arr = np.zeros((5, 5))
        arr[1, 1] = 1.0
        got = shift(plane(arr), 0, 2)
        assert got[3, 1] == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            shift(random_plane((5, 5)), 5, 0)


class TestGaussian:
    def test_constant_preserved(self):
        p = plane(np.full((8, 8), 4.0))
        assert np.allclose(gaussian_smooth(p, 1.0), 4.0, atol=1e-12)

    def test_center_delta_equals_kernel_center(self):
        arr = np.zeros((15, 15))
        arr[7, 7] = 1.0
        got = gaussian_smooth(plane(arr), 1.0)
        k = gaussian_kernel_1d(1.0)
        # 2-D kernel center weight computed from the dense formula directly.
        radius = (len(k) - 1) // 2
        xs = np.arange(-radius, radius + 1)
        dense = np.exp(-(xs[:, None] ** 2 + xs[None, :] ** 2) / 2.0)
        dense /= dense.sum()
        assert got[7, 7] == pytest.approx(dense[radius, radius], abs=1e-12)

    def test_matches_dense_convolution_oracle(self):
        p = random_plane((16, 16), seed=6)
        sigma = 0.8
        k = gaussian_kernel_1d(sigma)
        radius = (len(k) - 1) // 2
        xs = np.arange(-radius, radius + 1)
        dense = np.exp(-(xs[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma**2))
        dense /= dense.sum()
        expect = dense_correlate(p, dense)
        assert np.max(np.abs(gaussian_smooth(p, sigma) - expect)) < 1e-12

    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_smooth(random_plane(), 0.0)


class TestDerivatives:
    def test_sobel_constant_zero(self):
        p = plane(np.full((7, 7), 9.0))
        assert np.array_equal(sobel(p, "x"), np.zeros((7, 7)))
        assert np.array_equal(sobel(p, "y"), np.zeros((7, 7)))

    def test_sobel_ramp_interior_eight(self):
        arr = np.tile(np.arange(8.0), (8, 1))
        got = sobel(plane(arr), "x")
        assert np.allclose(got[1:-1, 1:-1], 8.0)

    def test_sobel_transpose_symmetry(self):
        p = random_plane((9, 9), seed=7)
        gx = sobel(p, "x")
        gy_t = sobel(plane(p.T), "y")
        assert np.allclose(gx, gy_t.T, atol=1e-12)

    def test_laplacian_constant_zero(self):
        p = plane(np.full((6, 6), 1.5))
        assert np.array_equal(laplacian(p), np.zeros((6, 6)))

    def test_laplacian_linear_ramp_interior_zero(self):
        r, c = np.mgrid[0:9, 0:9].astype(float)
        got = laplacian(plane(2.0 * r + 3.0 * c))
        assert np.allclose(got[1:-1, 1:-1], 0.0, atol=1e-12)

    def test_laplacian_quadratic_interior_two(self):
        r, _ = np.mgrid[0:9, 0:9].astype(float)
        got = laplacian(plane(r**2))
        assert np.allclose(got[1:-1, 1:-1], 2.0, atol=1e-12)

    def test_sobel_matches_dense_oracle(self):
        from sarberg.imageops import SOBEL_X
        p = random_plane((11, 11), seed=9)
        assert np.max(np.abs(sobel(p, "x") - dense_correlate(p, SOBEL_X))) < 1e-12


def test_geometric_transforms_move_a_stack_as_its_images():
    a, b = random_plane((9, 9), seed=11), random_plane((9, 9), seed=12)
    ops = {
        "rotate 90": lambda x: rotate(x, 90.0),
        "rotate 180": lambda x: rotate(x, 180.0),
        "rotate 17.3": lambda x: rotate(x, 17.3),
        "reflect h": lambda x: reflect(x, "horizontal"),
        "reflect v": lambda x: reflect(x, "vertical"),
        "shift": lambda x: shift(x, 2, -3),
    }
    for name, op in ops.items():
        both = op(np.stack((a, b)))
        assert np.array_equal(both[0], op(a)) and np.array_equal(both[1], op(b)), name

def _fancy_rotate(arr, degrees):
    """`rotate` as it read with 2-D fancy indexing, before the flat take."""
    h, w = arr.shape[-2:]
    rem = degrees % 360.0
    if rem in (0.0, 180.0) or (rem in (90.0, 270.0) and h == w):
        return np.rot90(arr, k=int(rem // 90), axes=(-2, -1))
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    cos_t, sin_t = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    out_r, out_c = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = out_r - cy, out_c - cx
    src_r = np.clip(dy * cos_t + dx * sin_t + cy, 0.0, h - 1.0)
    src_c = np.clip(-dy * sin_t + dx * cos_t + cx, 0.0, w - 1.0)
    r0 = np.floor(src_r).astype(np.intp)
    c0 = np.floor(src_c).astype(np.intp)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr, fc = src_r - r0, src_c - c0
    top = arr[..., r0, c0] * (1.0 - fc) + arr[..., r0, c1] * fc
    bot = arr[..., r1, c0] * (1.0 - fc) + arr[..., r1, c1] * fc
    return top * (1.0 - fr) + bot * fr


def _fancy_shift(arr, dx, dy):
    """`shift` as it read with 2-D fancy indexing, before the flat take."""
    h, w = arr.shape[-2:]
    src_r = np.clip(np.arange(h) - dy, 0, h - 1)
    src_c = np.clip(np.arange(w) - dx, 0, w - 1)
    return arr[..., src_r[:, None], src_c]


def _bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlatTake:
    """`rotate` and `shift` read pixels with one flat take; the fancy-index
    gather they replaced is the oracle, bitwise."""

    SHAPES = [(9, 9), (75, 75), (6, 11), (11, 6), (3, 2), (2, 9, 9), (2, 75, 75), (2, 6, 11)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rotate_matches_fancy_index(self, shape):
        arr = random_plane(shape, seed=sum(shape))
        for degrees in (-15.0, -0.3, 7.5, 13.9, 45.0, 90.0, 180.0, 270.0, -90.0, 450.0):
            assert _bits_equal(rotate(arr, degrees), _fancy_rotate(arr, degrees)), degrees

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shift_matches_fancy_index(self, shape):
        arr = random_plane(shape, seed=sum(shape) + 1)
        h, w = shape[-2:]
        for dx, dy in ((0, 0), (1, 0), (0, -1), (-(w - 1), h - 1), (w // 3, -(h // 2))):
            assert _bits_equal(shift(arr, dx, dy), _fancy_shift(arr, dx, dy)), (dx, dy)

    def test_strided_views_match_fancy_index(self):
        # Flips and quarter turns are views; the flat take must read them as
        # the fancy index does.
        stack = random_plane((2, 8, 13), seed=3)
        for view in (stack[..., ::-1], stack[:, ::-1, :], np.rot90(stack, axes=(-2, -1))):
            assert _bits_equal(rotate(view, 11.0), _fancy_rotate(view, 11.0))
            assert _bits_equal(shift(view, 2, -1), _fancy_shift(view, 2, -1))


def make_pair(seed=0, shape=(20, 20), label=1):
    rng = np.random.default_rng(seed)
    return SarSample(
        id=f"p{seed}",
        hh=rng.normal(size=shape),
        hv=rng.normal(size=shape),
        inc_angle=30.0,
        label=label,
    )


class TestAugmentation:
    def test_ranges_are_not_settable(self):
        policy = AugmentationPolicy()
        assert (AugmentationPolicy.width_shift_frac, AugmentationPolicy.height_shift_frac,
                AugmentationPolicy.rotation_max_deg) == (0.1, 0.1, 15.0)
        assert fields(AugmentationPolicy) == ()
        for name in ("width_shift_frac", "height_shift_frac", "rotation_max_deg"):
            with pytest.raises(TypeError, match=name):
                AugmentationPolicy(**{name: 0.0})
            with pytest.raises(FrozenInstanceError):
                setattr(policy, name, 0.0)

    @pytest.mark.parametrize("shape", [(20, 20), (9, 20), (20, 9), (9, 9)])
    def test_draw_order_pinned(self, shape):
        # A twin generator replays the draw: x shift, y shift, rotation, then
        # the horizontal and vertical mirror coins. A side under 10 px has
        # no shift range and takes no draw. The transform is rotate, shift,
        # then the mirrors, on the two bands stacked.
        h, w = shape
        s = make_pair(seed=1, shape=shape)
        for seed in range(8):
            twin = np.random.default_rng(seed)
            dx = int(twin.integers(-(w // 10), w // 10 + 1)) if w >= 10 else 0
            dy = int(twin.integers(-(h // 10), h // 10 + 1)) if h >= 10 else 0
            angle = float(twin.uniform(-15.0, 15.0))
            flip_h, flip_v = twin.random() < 0.5, twin.random() < 0.5
            rng = np.random.default_rng(seed)
            out = sample_augmentation(s, AugmentationPolicy(), rng)
            assert rng.random() == twin.random()  # both streams at the same state
            expect = shift(rotate(np.stack((s.hh, s.hv)), angle), dx, dy)
            if flip_h:
                expect = reflect(expect, "horizontal")
            if flip_v:
                expect = reflect(expect, "vertical")
            assert out.hh.tobytes() == expect[0].tobytes()
            assert out.hv.tobytes() == expect[1].tobytes()
            assert out.label == s.label and out.inc_angle == s.inc_angle

    def test_same_rng_state_reproduces(self):
        s = make_pair(seed=2)
        policy = AugmentationPolicy()
        a = sample_augmentation(s, policy, np.random.default_rng(42))
        b = sample_augmentation(s, policy, np.random.default_rng(42))
        assert np.array_equal(a.hh, b.hh)
        assert np.array_equal(a.hv, b.hv)

    def test_same_transform_applied_to_both_bands(self):
        # Marker planes: identical inputs on both bands must stay identical.
        rng = np.random.default_rng(3)
        marker = rng.normal(size=(20, 20))
        s = SarSample(id="m", hh=marker, hv=marker, inc_angle=25.0, label=0)
        out = sample_augmentation(s, AugmentationPolicy(), np.random.default_rng(7))
        assert np.array_equal(out.hh, out.hv)

    def test_draw_bounds_over_many_samples(self):
        from sarberg.imageops import _draw_transform

        policy = AugmentationPolicy()
        rng = np.random.default_rng(0)
        max_dx = max_dy = max_angle = 0.0
        for _ in range(10_000):
            dx, dy, angle, _, _ = _draw_transform(policy, (75, 75), rng)
            max_dx = max(max_dx, abs(dx))
            max_dy = max(max_dy, abs(dy))
            max_angle = max(max_angle, abs(angle))
        assert max_dx <= 7 and max_dy <= 7
        assert max_angle <= 15.0

    def test_multiplier_one_is_input(self):
        sset = SampleSet((make_pair(1), make_pair(2)), provenance="synthetic")
        assert augment_dataset(sset, AugmentationPolicy(), 1, seed=0) is sset

    def test_multiplier_scales_counts_and_labels(self):
        sset = SampleSet(
            tuple(make_pair(i, label=i % 2) for i in range(10)), provenance="synthetic"
        )
        out = augment_dataset(sset, AugmentationPolicy(), 4, seed=0)
        assert len(out) == 40
        assert out.provenance == "augmented"
        assert sum(s.label for s in out) == 4 * sum(s.label for s in sset)

    def test_seed_reproducibility(self):
        sset = SampleSet((make_pair(1), make_pair(2)))
        a = augment_dataset(sset, AugmentationPolicy(), 3, seed=5)
        b = augment_dataset(sset, AugmentationPolicy(), 3, seed=5)
        assert a.ids() == b.ids()
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.hh, sb.hh)

    def test_transforms_preserve_finiteness_and_dims(self):
        s = make_pair(seed=9, shape=(75, 75))
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = sample_augmentation(s, AugmentationPolicy(), rng)
            assert out.hh.shape == (75, 75)
            assert np.all(np.isfinite(out.hh))


class TestPgm:
    def test_pgm_header_and_size(self, tmp_path):
        p = random_plane((7, 9), seed=10)
        path = tmp_path / "x.pgm"
        write_pgm(p, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n9 7\n255\n")
        assert len(raw) == len(b"P5\n9 7\n255\n") + 63

    def test_constant_plane_uniform_output(self, tmp_path):
        p = plane(np.full((5, 5), 1.0))
        path = tmp_path / "c.pgm"
        write_pgm(p, path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert set(body) == {0}
