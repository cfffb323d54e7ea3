"""Layer, network, gradient, transfer, and checkpoint tests."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import zipfile
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import sarberg
import sarberg.nn.layers as layers_mod
from sarberg.data import SynthConfig, split_train_validation, synth_dataset
from sarberg.nn import (
    Adam,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2,
    Network,
    PadTo,
    Relu,
    Sigmoid,
    TrainConfig,
    Upsample2,
    build_autoencoder,
    build_classifier,
    fit,
    gradient_check,
    load_network,
    loss_logloss,
    save_network,
    transfer_encoder,
)
from sarberg.nn.training import _backprop_loss

# Pinned gradient-check setups: tiny nets small enough that the h=1e-3
# finite-difference probe stays away from relu/pool kinks.
TINY_CLF = dict(input_hw=(16, 16), conv_widths=(2, 2, 2), dense_width=4, dropout_rate=0.0)
TINY_CLF_SEED = 5
TINY_AE = dict(input_hw=(16, 16), conv_widths=(2, 2, 2))
TINY_AE_SEED = 15


def tiny_classifier():
    return build_classifier(2, seed=TINY_CLF_SEED, **TINY_CLF)


def tiny_autoencoder():
    return build_autoencoder(2, seed=TINY_AE_SEED, **TINY_AE)


def naive_conv_same(x, weights, bias):
    """Nested-loop 3x3 same-convolution oracle (zero padding)."""
    n, c, h, w = x.shape
    o = weights.shape[0]
    out = np.zeros((n, o, h, w))
    for ni in range(n):
        for oi in range(o):
            for y in range(h):
                for xx in range(w):
                    acc = bias[oi]
                    for ci in range(c):
                        for i in range(3):
                            for j in range(3):
                                yy, xj = y + i - 1, xx + j - 1
                                if 0 <= yy < h and 0 <= xj < w:
                                    acc += weights[oi, ci, i, j] * x[ni, ci, yy, xj]
                    out[ni, oi, y, xx] = acc
    return out


class TestBuildClassifier:
    def test_forward_shape_and_range(self):
        net = build_classifier(2, seed=0)
        x = np.random.default_rng(0).normal(size=(4, 2, 75, 75))
        out = net.forward(x)
        assert out.shape == (4, 1)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_same_seed_bitwise_identical_init(self):
        a = build_classifier(3, seed=11)
        b = build_classifier(3, seed=11)
        for (ka, pa), (kb, pb) in zip(a.parameters(), b.parameters()):
            assert ka == kb and np.array_equal(pa, pb)

    def test_parameter_count_closed_form(self):
        net = build_classifier(3, seed=0)
        conv = (16 * 3 * 9 + 16) + (32 * 16 * 9 + 32) + (64 * 32 * 9 + 64)
        dense = (5184 * 64 + 64) + (64 * 1 + 1)
        assert sum(arr.size for _, arr in net.parameters()) == conv + dense

    def test_zero_bias_init(self):
        net = build_classifier(3, seed=2)
        for key, arr in net.parameters():
            if key.endswith(".b"):
                assert np.all(arr == 0.0)


class TestForward:
    def test_dropout_zero_training_equals_eval(self):
        net = build_classifier(2, seed=3, dropout_rate=0.0)
        x = np.random.default_rng(1).normal(size=(2, 2, 75, 75))
        rng = np.random.default_rng(0)
        assert np.array_equal(net.forward(x, training=True, rng=rng), net.forward(x))

    def test_zero_input_gives_exactly_half(self):
        for dtype in (np.float64, np.float32):
            net = build_classifier(3, seed=4, dtype=dtype)
            out = net.forward(np.zeros((2, 3, 75, 75)))
            assert out.dtype == dtype and np.all(out == 0.5)

    def test_conv_matches_nested_loop_oracle(self):
        # Fewer input than output channels gathers windows; more scatters taps.
        rng = np.random.default_rng(5)
        for in_ch, out_ch in [(1, 3), (1, 4), (4, 1), (4, 3)]:
            conv = Conv2d(in_ch, out_ch, rng)
            conv.params["b"] = rng.normal(size=out_ch)
            x = np.arange(in_ch * 25.0).reshape(1, in_ch, 5, 5)
            got = conv.forward(x, False, None)
            expect = naive_conv_same(x, conv.params["W"], conv.params["b"])
            assert np.max(np.abs(got - expect)) < 1e-12, (in_ch, out_ch)

    @pytest.mark.parametrize("window,winner", [
        ([[0.0, 0.0], [0.0, 0.0]], (0, 0)),
        ([[1.0, 2.0], [2.0, 1.0]], (1, 0)),
        ([[2.0, 1.0], [1.0, 2.0]], (0, 0)),
    ])
    def test_maxpool_tie_goes_left_then_top(self, window, winner):
        pool = MaxPool2()
        out = pool.forward(np.array(window).reshape(1, 1, 2, 2), True, None)
        assert out[0, 0, 0, 0] == np.max(window)
        grad = pool.backward(np.full((1, 1, 1, 1), 3.0))[0, 0]
        expect = np.zeros((2, 2))
        expect[winner] = 3.0
        assert np.array_equal(grad, expect)

    def test_maxpool_odd_trailing_row_and_col_get_zero_gradient(self):
        pool = MaxPool2()
        x = np.random.default_rng(6).normal(size=(2, 3, 5, 7)) + 10.0
        out = pool.forward(x, True, None)
        assert out.shape == (2, 3, 2, 3)
        grad = pool.backward(np.ones_like(out))
        assert np.all(grad[:, :, 4, :] == 0.0) and np.all(grad[:, :, :, 6] == 0.0)
        assert np.all(grad[:, :, :4, :6].reshape(2, 3, 2, 2, 3, 2).sum(axis=(3, 5)) == 1.0)

    def test_upsample_backward_is_block_sum(self):
        dout = np.random.default_rng(7).normal(size=(2, 3, 6, 8))
        got = Upsample2().backward(dout)
        expect = dout.reshape(2, 3, 3, 2, 4, 2).sum(axis=(3, 5))
        assert np.allclose(got, expect, rtol=0, atol=1e-14)

    def test_chunked_eval_forward_matches_one_pass(self):
        net = build_classifier(3, seed=9, dtype=np.float32)
        x = np.random.default_rng(8).normal(size=(40, 3, 75, 75)).astype(np.float32)
        one_pass = x
        for layer in net.layers:
            one_pass = layer.forward(one_pass, False, None)
        # Dense layers' BLAS results depend on the row count in the last bits.
        assert np.allclose(net.forward(x), one_pass, rtol=1e-5, atol=0)

    def test_eval_forward_keeps_no_arrays(self):
        net = tiny_classifier()
        net.forward(np.ones((2, 2, 16, 16)))
        for layer in net.layers:
            assert not [k for k, v in vars(layer).items() if isinstance(v, np.ndarray)]

    def test_eval_forward_is_pure(self):
        net = build_classifier(2, seed=6)
        x = np.random.default_rng(2).normal(size=(3, 2, 75, 75))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_shape_mismatch_rejected(self):
        net = build_classifier(2, seed=7)
        with pytest.raises(ValueError, match="expected input"):
            net.forward(np.zeros((1, 3, 75, 75)))

    def test_dropout_training_needs_rng(self):
        net = build_classifier(2, seed=8)
        with pytest.raises(ValueError, match="generator"):
            net.forward(np.zeros((1, 2, 75, 75)), training=True)


class TestLoss:
    def test_half_is_ln_two(self):
        assert loss_logloss([0.5], [1.0]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_predictions_hit_clamp_floor(self):
        assert loss_logloss([1.0, 0.0], [1.0, 0.0]) <= 3.46e-14

    def test_point_nine(self):
        assert loss_logloss([0.9], [1.0]) == pytest.approx(-np.log(0.9), abs=1e-12)
        assert loss_logloss([0.9], [1.0]) == pytest.approx(0.105361, abs=1e-6)

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        p = rng.random(100)
        y = rng.integers(0, 2, 100).astype(float)
        assert loss_logloss(p, y) >= 0.0


class TestBackward:
    def test_gradient_check_two_conv_toy_net(self):
        # The second conv reduces channels, so its forward and the first
        # conv's input gradient take the scatter path; (4, 2) also mixes
        # output channels there.
        for mid, out in [(2, 1), (4, 2)]:
            rng = np.random.default_rng(10)
            net = Network(
                [Conv2d(1, mid, rng), Relu(), Conv2d(mid, out, rng), Flatten(),
                 Dense(36 * out, 1, rng), Sigmoid()],
                input_ch=1, input_hw=(6, 6), kind="classifier",
            )
            x = np.random.default_rng(11).uniform(-1, 1, size=(2, 1, 6, 6))
            y = np.array([1.0, 0.0])
            err = gradient_check(net, x, y, loss="logloss", n_params=300)
            assert err < 1e-4, (mid, out, err)

    def test_zero_gradient_at_constructed_optimum(self):
        # One dense+sigmoid unit with w=0, b=0 predicts 0.5 everywhere; with
        # y=0.5 every parameter gradient is exactly zero.
        net = Network(
            [Flatten(), Dense(1, 1), Sigmoid()], input_ch=1, input_hw=(1, 1),
            kind="classifier",
        )
        x = np.random.default_rng(12).normal(size=(4, 1, 1, 1))
        y = np.full(4, 0.5)
        _backprop_loss(net, net.forward(x, training=True), y)
        for arr in net.gradients().values():
            assert np.max(np.abs(arr)) < 1e-12

    def test_logit_grad_needs_trailing_sigmoid(self):
        net = tiny_autoencoder()
        x = np.zeros((1, 2, 16, 16))
        net.forward(x)
        with pytest.raises(ValueError, match="Sigmoid"):
            net.backward(x, logit_grad=True)

    def test_backward_after_eval_forward_rejected(self):
        net = tiny_classifier()
        x = np.random.default_rng(9).normal(size=(2, 2, 16, 16))
        net.forward(x, training=True)
        net.forward(x)
        with pytest.raises(ValueError, match="training-mode forward"):
            net.backward(np.zeros((2, 1)), logit_grad=True)

    def test_duplicating_batch_rows_preserves_gradients(self):
        net = tiny_classifier()
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 2, 16, 16))
        y = np.array([1.0, 0.0, 1.0])
        _backprop_loss(net, net.forward(x, training=True), y)
        single = {k: v.copy() for k, v in net.gradients().items()}
        x2 = np.concatenate([x, x])
        y2 = np.concatenate([y, y])
        _backprop_loss(net, net.forward(x2, training=True), y2)
        for k, v in net.gradients().items():
            assert np.allclose(v, single[k], atol=1e-12)


class TestGradientCheck:
    def test_tiny_classifier_under_1e4(self):
        x = np.random.default_rng(1000 + TINY_CLF_SEED).uniform(-1, 1, size=(1, 2, 16, 16))
        err = gradient_check(tiny_classifier(), x, np.array([1.0]), loss="logloss", n_params=300)
        assert err < 1e-4

    def test_tiny_autoencoder_under_1e4(self):
        x = np.random.default_rng(2000 + TINY_AE_SEED).uniform(-1, 1, size=(1, 2, 16, 16))
        err = gradient_check(tiny_autoencoder(), x, x, loss="mse", n_params=300)
        assert err < 1e-4

    def test_dense_only_under_1e6(self):
        rng = np.random.default_rng(14)
        net = Network(
            [Flatten(), Dense(6, 4, rng), Relu(), Dense(4, 1, rng), Sigmoid()],
            input_ch=6, input_hw=(1, 1), kind="classifier",
        )
        x = np.random.default_rng(15).uniform(-1, 1, size=(8, 6, 1, 1))
        y = np.random.default_rng(16).integers(0, 2, 8).astype(float)
        assert gradient_check(net, x, y, loss="logloss", n_params=300) < 1e-6

    def test_corrupted_conv_backward_detected(self, monkeypatch):
        # Sanity check of the harness itself: an un-flipped kernel in the
        # conv input-gradient must blow past 1e-2.
        original = Conv2d.backward

        def corrupted(self, dout, input_grad=True):
            # The real backward flips W for dx; handing it W pre-flipped
            # applies the kernel un-flipped. dW and db do not read W.
            weights = self.params["W"]
            self.params["W"] = weights[:, :, ::-1, ::-1]
            try:
                return original(self, dout, input_grad)
            finally:
                self.params["W"] = weights

        monkeypatch.setattr(Conv2d, "backward", corrupted)
        x = np.random.default_rng(1000 + TINY_CLF_SEED).uniform(-1, 1, size=(1, 2, 16, 16))
        err = gradient_check(tiny_classifier(), x, np.array([1.0]), loss="logloss", n_params=300)
        monkeypatch.setattr(Conv2d, "backward", original)
        assert err > 1e-2


class TestAutoencoder:
    def test_output_shape_equals_input(self):
        for hw in ((16, 16), (75, 75)):
            net = build_autoencoder(2, seed=0, input_hw=hw, conv_widths=(2, 2, 2))
            x = np.random.default_rng(0).normal(size=(2, 2, *hw))
            assert net.forward(x).shape == x.shape

    def test_encoder_mirrors_classifier_trunk(self):
        clf = build_classifier(3, seed=1)
        ae = build_autoencoder(3, seed=2)
        clf_convs = [l.spec() for l in clf.layers[:9] if isinstance(l, Conv2d)]
        ae_convs = [l.spec() for l in ae.layers[:9] if isinstance(l, Conv2d)]
        assert clf_convs == ae_convs


class TestTransfer:
    def test_conv_weights_copied_bitwise(self):
        ae = build_autoencoder(3, seed=3)
        clf = build_classifier(3, seed=4)
        out = transfer_encoder(ae, clf)
        ae_convs = [l for l in ae.layers[:9] if isinstance(l, Conv2d)]
        out_convs = [l for l in out.layers[:9] if isinstance(l, Conv2d)]
        for a, c in zip(ae_convs, out_convs):
            assert np.array_equal(a.params["W"], c.params["W"])
            assert np.array_equal(a.params["b"], c.params["b"])

    def test_dense_head_unchanged(self):
        ae = build_autoencoder(3, seed=5)
        clf = build_classifier(3, seed=6)
        out = transfer_encoder(ae, clf)
        clf_dense = [l for l in clf.layers if isinstance(l, Dense)]
        out_dense = [l for l in out.layers if isinstance(l, Dense)]
        for a, b in zip(clf_dense, out_dense):
            assert np.array_equal(a.params["W"], b.params["W"])

    def test_mismatch_error_leaves_classifier_untouched(self):
        ae = build_autoencoder(2, seed=7)
        clf = build_classifier(3, seed=8)
        before = clf.get_state()
        with pytest.raises(ValueError, match="mismatch"):
            transfer_encoder(ae, clf)
        for key, arr in clf.parameters():
            assert np.array_equal(arr, before[key])


class TestCheckpoint:
    def test_round_trip_parameters_and_stats(self, tmp_path):
        net = build_classifier(2, seed=9, conv_widths=(4, 4, 4), dense_width=8)
        net.channels = ("hh", "hv")
        net.channel_mean = np.array([0.5, -1.0])
        net.channel_std = np.array([2.0, 3.0])
        net.fill_angle = 38.25
        path = tmp_path / "net.ckpt"
        save_network(net, path)
        again = load_network(path)
        assert again.kind == "classifier" and again.input_hw == (75, 75)
        assert again.channels == ("hh", "hv")
        assert np.array_equal(again.channel_mean, net.channel_mean)
        assert again.fill_angle == 38.25
        for (ka, pa), (kb, pb) in zip(net.parameters(), again.parameters()):
            assert ka == kb and np.array_equal(pa, pb)

    def test_round_trip_preserves_dtype(self, tmp_path):
        net = build_classifier(
            2, seed=10, conv_widths=(2, 2, 2), dense_width=4, dtype=np.float32
        )
        path = tmp_path / "net32.ckpt"
        save_network(net, path)
        again = load_network(path)
        assert again.dtype == np.float32
        assert dict(again.parameters())["0.W"].dtype == np.float32

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        net = build_classifier(2, seed=11, conv_widths=(2, 2, 2), dense_width=4)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_network(net, a)
        save_network(net, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(ValueError, match="corrupt"):
            load_network(path)

    def test_checkpoint_without_fill_angle_rejected(self, tmp_path):
        net = build_classifier(2, seed=11, conv_widths=(2, 2, 2), dense_width=4)
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        save_network(net, good)
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(bad, "w") as dst:
            for name in src.namelist():
                raw = src.read(name)
                if name == "meta.json":
                    meta = json.loads(raw)
                    del meta["fill_angle"]
                    raw = json.dumps(meta)
                dst.writestr(name, raw)
        with pytest.raises(ValueError, match="fill_angle"):
            load_network(bad)

    @pytest.mark.parametrize("angle", [95.0, 90.0, 0.0, -38.5])
    def test_fill_angle_outside_0_90_rejected(self, tmp_path, angle):
        # No fit writes such an angle; served, it would fill a missing one.
        net = build_classifier(2, seed=11, conv_widths=(2, 2, 2), dense_width=4)
        net.fill_angle = angle
        save_network(net, tmp_path / "bad.ckpt")
        with pytest.raises(ValueError, match="corrupt checkpoint: malformed fill_angle"):
            load_network(tmp_path / "bad.ckpt")

    def test_malformed_meta_rejected_as_corrupt(self, tmp_path):
        net = build_classifier(3, seed=11, conv_widths=(2, 2, 2), dense_width=4)
        net.channels = ("hh", "hv", "diff")
        net.channel_mean, net.channel_std = np.zeros(3), np.ones(3)
        good = tmp_path / "good.ckpt"
        save_network(net, good)

        def set_(key, value):
            return lambda meta: meta.__setitem__(key, value)

        def drop(key):
            return lambda meta: meta.__delitem__(key)

        cases = {
            "unknown dtype": set_("dtype", "foo"),
            "integer dtype": set_("dtype", "int64"),
            "malformed JSON": lambda meta: "{",
            # Version 1 could turn off the incidence correction now always applied.
            "version 1": set_("version", 1),
            "missing dtype": drop("dtype"),
            "missing kind": drop("kind"),
            "missing channels": drop("channels"),
            "unknown kind": set_("kind", "regressor"),
            "one-long input_hw": set_("input_hw", [8]),
            "boolean input_ch": set_("input_ch", True),
            "two channel names on three channels": set_("channels", ["hh", "hv"]),
            "two channel means on three channels": set_("channel_mean", [0.0, 0.0]),
            "text channel std": set_("channel_std", ["a", "b", "c"]),
            "text fill_angle": set_("fill_angle", "38.5"),
            "unknown layer argument": lambda meta: meta["layers"][0].__setitem__("bogus", 1),
            "layers not a list": set_("layers", 5),
        }
        for name, corrupt in cases.items():
            bad = tmp_path / "bad.ckpt"
            with zipfile.ZipFile(good) as src, zipfile.ZipFile(bad, "w") as dst:
                for entry in src.namelist():
                    raw = src.read(entry)
                    if entry == "meta.json":
                        meta = json.loads(raw)
                        raw = corrupt(meta) or json.dumps(meta)
                    dst.writestr(entry, raw)
            with pytest.raises(ValueError, match="corrupt checkpoint"):
                load_network(bad)
                pytest.fail(name)

    def test_forward_identical_after_round_trip(self, tmp_path):
        net = build_classifier(2, seed=12, conv_widths=(4, 4, 4), dense_width=8)
        x = np.random.default_rng(17).normal(size=(2, 2, 75, 75))
        before = net.forward(x)
        path = tmp_path / "net.ckpt"
        save_network(net, path)
        after = load_network(path).forward(x)
        assert np.array_equal(before, after)


# One shape per sharded layer path: (layer factory, per-scene input shape).
SHARDED_LAYERS = {
    "conv gather": (lambda rng: Conv2d(2, 3, rng), (2, 9, 7)),
    "conv scatter": (lambda rng: Conv2d(3, 2, rng), (3, 9, 7)),
    "relu": (lambda rng: Relu(), (3, 6, 5)),
    "maxpool odd": (lambda rng: MaxPool2(), (3, 7, 9)),
    "upsample": (lambda rng: Upsample2(), (3, 4, 5)),
    "pad_to": (lambda rng: PadTo(7, 6), (3, 5, 5)),
}
SHARD_SIZES = (1, 2, 3, 5, 32)


def _sharded_layer(name, dtype=np.float64):
    make, shape = SHARDED_LAYERS[name]
    rng = np.random.default_rng(31)
    layer = make(rng)
    for key, value in layer.params.items():
        layer.params[key] = rng.normal(size=value.shape).astype(dtype)
    return layer, shape


def _forward_backward(layer, x, dout_rng):
    out = layer.forward(x, True, None)
    dout = dout_rng.normal(size=out.shape).astype(x.dtype)
    dx = layer.backward(dout)
    return out, dout, dx, {k: v.copy() for k, v in layer.grads.items()}


class TestSceneShards:
    """Sharded layers give the bits of one scene at a time (layers docstring)."""

    @pytest.mark.parametrize("n", SHARD_SIZES)
    def test_shards_cover_the_batch_in_order(self, n):
        slices = layers_mod._shard_slices(n)
        assert len(slices) == min(layers_mod._SHARDS, n)
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert all(s.stop > s.start for s in slices)

    @pytest.mark.parametrize("worker", [True, False])
    @pytest.mark.parametrize("name", list(SHARDED_LAYERS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_and_dx_match_one_scene_at_a_time(self, monkeypatch, name, dtype, worker):
        monkeypatch.setattr(layers_mod, "_USE_WORKER", worker)
        layer, shape = _sharded_layer(name, dtype)
        for n in SHARD_SIZES:
            x = np.random.default_rng(n).normal(size=(n, *shape)).astype(dtype)
            out, dout, dx, _ = _forward_backward(layer, x, np.random.default_rng(100 + n))
            assert np.array_equal(layer.forward(x, False, None), out), (name, n)
            for i in range(n):
                assert np.array_equal(layer.forward(x[i : i + 1], True, None), out[i : i + 1])
                assert np.array_equal(layer.backward(dout[i : i + 1]), dx[i : i + 1]), (name, n, i)

    @pytest.mark.parametrize("worker", [True, False])
    @pytest.mark.parametrize("name", ["conv gather", "conv scatter"])
    def test_conv_grads_add_shard_partials_in_order(self, monkeypatch, name, worker):
        monkeypatch.setattr(layers_mod, "_USE_WORKER", worker)
        layer, shape = _sharded_layer(name, np.float32)
        for n in SHARD_SIZES:
            x = np.random.default_rng(n).normal(size=(n, *shape)).astype(np.float32)
            _, dout, _, grads = _forward_backward(layer, x, np.random.default_rng(100 + n))
            slices = layers_mod._shard_slices(n)
            partials = []
            with monkeypatch.context() as whole:
                # One shard: the layer's unsharded sums over the scenes of s.
                whole.setattr(layers_mod, "_SHARDS", 1)
                for s in slices:
                    layer.forward(x[s], True, None)
                    layer.backward(dout[s])
                    partials.append({k: v.copy() for k, v in layer.grads.items()})
            for key in ("W", "b"):
                expect = reduce(np.add, [p[key] for p in partials])
                assert np.array_equal(grads[key], expect), (name, n, key)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_worker_restarts_in_forked_child(self, monkeypatch):
        monkeypatch.setattr(layers_mod, "_USE_WORKER", True)
        assert layers_mod._map_shards(lambda s: s.start, 8) == [0, 2, 4, 6]
        pid = os.fork()
        if pid == 0:  # the child inherits the parent's worker object, not its thread
            ok = False
            try:
                ok = (layers_mod._map_shards(lambda s: s.start, 8) == [0, 2, 4, 6]
                      and layers_mod._worker.is_alive())
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child did not finish within 30 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_fit_identical_with_worker_and_inline(self, monkeypatch):
        sset = synth_dataset(SynthConfig(n_samples=16, iceberg_fraction=0.5, seed=5))
        train, val = split_train_validation(sset, 0.25, 2)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=2, dtype="float32")
        runs = []
        for worker in (True, False):
            monkeypatch.setattr(layers_mod, "_USE_WORKER", worker)
            net = build_classifier(
                3, seed=4, conv_widths=(4, 8, 8), dense_width=8, dtype=np.float32
            )
            runs.append(fit(net, train, val, cfg))
        (net_a, hist_a), (net_b, hist_b) = runs
        assert vars(hist_a) == vars(hist_b)
        for (key, a), (_, b) in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(a, b), key

    def test_shard_error_reaches_caller_and_worker_survives(self, monkeypatch):
        monkeypatch.setattr(layers_mod, "_USE_WORKER", True)

        def fail_first(s):
            if s.start == 0:
                raise RuntimeError("shard 0 failed")
            return s.start

        for _ in range(5):  # whichever thread runs shard 0
            with pytest.raises(RuntimeError, match="shard 0 failed"):
                layers_mod._map_shards(fail_first, 8)
        assert layers_mod._map_shards(lambda s: s.start, 8) == [0, 2, 4, 6]

    def test_concurrent_callers_run_each_shard_once(self, monkeypatch):
        monkeypatch.setattr(layers_mod, "_USE_WORKER", True)
        old_interval = sys.getswitchinterval()
        failures = []

        def caller(seed):
            x = np.random.default_rng(seed).normal(size=(9, 64))
            for _ in range(50):
                ran = []

                def shard(s):
                    ran.append(s.start)
                    return float(np.sum(x[s] * 2.0))

                got = layers_mod._map_shards(shard, len(x))
                slices = layers_mod._shard_slices(len(x))
                if sorted(ran) != [s.start for s in slices]:
                    failures.append(("ran", sorted(ran)))
                if got != [float(np.sum(x[s] * 2.0)) for s in slices]:
                    failures.append(("results", got))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


# The strided paths the flat ones replaced, kept as oracles. The flat paths do
# the same arithmetic in the same order, so they must match these bit for bit.
def _strided_quads(x):
    n, c, h, w = x.shape
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, c, h // 2, 2, w // 2, 2), (s0, s1, 2 * s2, s2, 2 * s3, s3)
    )


def _strided_im2col(x):
    n, c, h, w = x.shape
    out = np.empty((n, c * 9, h * w), dtype=x.dtype)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    np.copyto(out.reshape(n, c, 3, 3, h, w), win.transpose(0, 1, 4, 5, 2, 3))
    return out


_TAP_DST = (slice(1, None), slice(None), slice(None, -1))
_TAP_SRC = (slice(None, -1), slice(None), slice(1, None))


def _strided_conv3x3_scatter(x, w):
    n, c, h, wd = x.shape
    o = w.shape[0]
    out = np.empty((n, o, h, wd), dtype=np.result_type(x, w))
    w_taps = w.transpose(2, 3, 0, 1).reshape(9 * o, c)
    taps = (w_taps @ x.reshape(n, c, h * wd)).reshape(n, 3, 3, o, h, wd)
    out[...] = taps[:, 1, 1]
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                out[:, :, _TAP_DST[i], _TAP_DST[j]] += taps[
                    :, i, j, :, _TAP_SRC[i], _TAP_SRC[j]
                ]
    return out


def _strided_maxpool(x, dout):
    """Forward output and dx of the quad-view MaxPool2 with its three masks."""
    n, c, h, w = x.shape
    q = _strided_quads(x)
    left = np.maximum(q[:, :, :, 0, :, 0], q[:, :, :, 1, :, 0])
    right = np.maximum(q[:, :, :, 0, :, 1], q[:, :, :, 1, :, 1])
    out = np.maximum(left, right)
    bottom_left = q[:, :, :, 1, :, 0] > q[:, :, :, 0, :, 0]
    bottom_right = q[:, :, :, 1, :, 1] > q[:, :, :, 0, :, 1]
    right_wins = right > left
    dx = np.empty_like(x)
    dx[:, :, 2 * (h // 2) :] = 0.0
    dx[:, :, :, 2 * (w // 2) :] = 0.0
    d = _strided_quads(dx)
    d_right = dout * right_wins
    d_left = dout - d_right
    np.multiply(d_left, bottom_left, out=d[:, :, :, 1, :, 0])
    np.subtract(d_left, d[:, :, :, 1, :, 0], out=d[:, :, :, 0, :, 0])
    np.multiply(d_right, bottom_right, out=d[:, :, :, 1, :, 1])
    np.subtract(d_right, d[:, :, :, 1, :, 1], out=d[:, :, :, 0, :, 1])
    return out, dx


def _strided_upsample(x):
    n, c, h, w = x.shape
    out = np.empty((n, c, 2 * h, 2 * w), dtype=x.dtype)
    q = _strided_quads(out)
    for i in range(2):
        for j in range(2):
            q[:, :, :, i, :, j] = x
    return out


FLAT_PLANES = [(1, 1), (1, 4), (4, 1), (2, 2), (3, 5), (7, 9), (37, 37)]


def _default_nan(dtype):
    """The NaN this machine's arithmetic makes (inf - inf). When both operands
    of an add are NaN, IEEE 754 leaves open whose sign and payload the sum
    keeps, and numpy's vector body and scalar tail choose differently. With
    one NaN bit pattern throughout, any choice gives the same bytes."""
    with np.errstate(invalid="ignore"):
        return np.subtract(np.inf, np.inf, dtype=dtype)


def _awkward(rng, shape, dtype, nan=None):
    """Normal draws with a fifth of the entries set to +-0.0, NaN or +-inf."""
    x = rng.normal(size=shape).astype(dtype)
    if not x.size:
        return x
    nan = _default_nan(dtype) if nan is None else nan
    specials = np.array([0.0, -0.0, nan, np.inf, -np.inf], dtype=dtype)
    k = max(1, x.size // 5)
    x.flat[rng.choice(x.size, size=k, replace=False)] = rng.choice(specials, size=k)
    return x


def _bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and friends
class TestFlatPaths:
    """The flat shifted copies and adds, and the row-first pooling, against the
    strided code they replaced."""

    @pytest.mark.parametrize("h,w", FLAT_PLANES + [(1, 2), (2, 1)])
    def test_tap_span_matches_the_window(self, h, w):
        for i in range(3):
            for j in range(3):
                off, lo, hi, col = layers_mod._tap_span(i, j, h, w)
                assert 0 <= lo <= hi <= h * w, (i, j)
                for y in range(h):
                    for x in range(w):
                        p, yy, xx = y * w + x, y + i - 1, x + j - 1
                        inside = 0 <= yy < h and 0 <= xx < w
                        assert inside == (lo <= p < hi and x != col), (i, j, y, x)
                        if inside:
                            assert p + off == yy * w + xx

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h,w", FLAT_PLANES)
    def test_im2col_and_conv_match_strided(self, h, w, dtype):
        rng = np.random.default_rng(h * 100 + w)
        for c, o in [(1, 1), (2, 5), (5, 3), (4, 1)]:
            x = _awkward(rng, (3, c, h, w), dtype)
            weights = _awkward(rng, (o, c, 3, 3), dtype)
            cols = layers_mod._im2col(x)
            assert _bits_equal(cols, _strided_im2col(x)), (c, o)
            out = np.empty((3, o, h, w), dtype=dtype)
            layers_mod._conv3x3(x, weights, out)
            if c > o:
                expect = _strided_conv3x3_scatter(x, weights)
            else:
                expect = np.matmul(weights.reshape(o, c * 9), _strided_im2col(x))
            assert _bits_equal(out, expect.reshape(out.shape)), (c, o)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_with_mixed_nans_agrees_up_to_nan_bits(self, dtype):
        rng = np.random.default_rng(3)
        nan = np.array(np.nan, dtype=dtype)  # not the default NaN
        x = _awkward(rng, (2, 6, 7, 9), dtype, nan=nan)
        weights = _awkward(rng, (3, 6, 3, 3), dtype, nan=-nan)
        out = np.empty((2, 3, 7, 9), dtype=dtype)
        layers_mod._conv3x3(x, weights, out)
        expect = _strided_conv3x3_scatter(x, weights)
        assert np.array_equal(np.isnan(out), np.isnan(expect))
        assert np.isnan(out).any()
        finite = ~np.isnan(out)
        assert _bits_equal(out[finite], expect[finite])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("col", [0, -1])
    def test_scatter_keeps_negative_zero_in_the_wrapped_column(self, dtype, col):
        # Taps underflow to -0.0, except in the column the shifted add wraps
        # from (the other edge), where they are +0.0. The wrapped column's
        # true sum is -0.0; an add of +0.0 that is not undone makes it +0.0.
        tiny = np.sqrt(np.finfo(dtype).smallest_subnormal) / 4
        x = np.full((1, 5, 5, 6), -tiny, dtype=dtype)
        x[..., -1 - col] = tiny
        weights = np.full((2, 5, 3, 3), tiny, dtype=dtype)
        expect = _strided_conv3x3_scatter(x, weights)
        if not (np.all(expect == 0) and np.signbit(expect[..., col]).all()):
            pytest.skip("this BLAS rounds the underflowing taps to +0.0")
        out = np.empty_like(expect)
        layers_mod._conv3x3(x, weights, out)
        assert _bits_equal(out, expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h,w", FLAT_PLANES)
    def test_pooling_and_upsampling_match_strided(self, h, w, dtype):
        rng = np.random.default_rng(h * 100 + w + 1)
        # Small integers and both zeros tie often: both masks' tie rules run.
        ties = rng.integers(-1, 2, size=(3, 2, h, w)).astype(dtype)
        ties[(ties == 0) & (rng.random(ties.shape) < 0.5)] = -0.0
        for x in (_awkward(rng, (3, 2, h, w), dtype), ties):
            pool = MaxPool2()
            out = pool.forward(x, True, None)
            dout = _awkward(rng, out.shape, dtype)
            expect_out, expect_dx = _strided_maxpool(x, dout)
            assert _bits_equal(out, expect_out)
            assert _bits_equal(pool.forward(x, False, None), expect_out)
            assert _bits_equal(pool.backward(dout), expect_dx)
            assert _bits_equal(Upsample2().forward(x, False, None), _strided_upsample(x))


# (in_ch, out_ch, height, width) of the six network convs, then odd toy
# shapes. Both sides of in_ch <= out_ch occur in each list.
NETWORK_CONVS = [
    (3, 16, 75, 75), (16, 32, 37, 37), (32, 64, 18, 18),
    (64, 32, 18, 18), (32, 16, 37, 37), (16, 3, 75, 75),
]
ODD_CONVS = [(1, 1, 1, 1), (2, 5, 3, 4), (5, 2, 7, 5), (7, 7, 4, 9), (4, 1, 9, 2)]


def _dw_operands(rng, n, c, o, h, w, dtype):
    """x, dout and the windows dW is contracted with, on the branch Conv2d
    takes: those of x when c <= o, those of dout otherwise."""
    x = rng.normal(size=(n, c, h, w)).astype(dtype)
    dout = rng.normal(size=(n, o, h, w)).astype(dtype)
    return x, dout, layers_mod._im2col(x if c <= o else dout)


class TestWeightGradients:
    """dW computed transposed (windows times dout transposed, then one
    transpose) against the product it replaced (dout times the windows
    transposed), bitwise. A BLAS whose two orientations round differently
    fails here."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c,o,h,w", NETWORK_CONVS + ODD_CONVS)
    def test_transposed_product_is_bitwise_the_old_one(self, c, o, h, w, dtype):
        rng = np.random.default_rng(c * 1000 + o * 10 + h)
        for n in (1, 8):  # one scene, and a training shard of a batch of 32
            x, dout, cols = _dw_operands(rng, n, c, o, h, w, dtype)
            a = (dout if c <= o else x).reshape(n, -1, h * w)
            old = np.matmul(a, cols.transpose(0, 2, 1)).sum(axis=0)
            new = np.matmul(cols, a.transpose(0, 2, 1)).sum(axis=0).T
            assert _bits_equal(np.ascontiguousarray(new), old), n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c,o,h,w", NETWORK_CONVS + ODD_CONVS)
    def test_layer_dw_matches_the_old_orientation(self, c, o, h, w, dtype):
        rng = np.random.default_rng(c * 1000 + o * 10 + h + 1)
        for n in (1, 11):  # 11 scenes: four shards of unequal size
            x, dout, cols = _dw_operands(rng, n, c, o, h, w, dtype)
            conv = Conv2d(c, o, np.random.default_rng(0), dtype=dtype)
            conv.forward(x, True, None)
            conv.backward(dout)
            partials = []
            for s in layers_mod._shard_slices(n):
                a = dout[s] if c <= o else x[s]
                a = a.reshape(a.shape[0], a.shape[1], h * w)
                partials.append(np.matmul(a, cols[s].transpose(0, 2, 1)).sum(axis=0))
            dw = reduce(np.add, partials)
            if c <= o:
                expect = dw.reshape(o, c, 3, 3)
            else:
                expect = np.ascontiguousarray(
                    dw.reshape(c, o, 3, 3).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
                )
            assert _bits_equal(conv.grads["W"], expect), n
            assert conv.grads["W"].flags.c_contiguous


class _KeptWindowsConv2d(Conv2d):
    """Conv2d as it ran when a training forward kept the windows of x,
    (N, C*9, H*W), on the gather side and backward contracted dW with them:
    the oracle for the windows backward now rebuilds."""

    def forward(self, x, training, rng):
        n, c, h, w = x.shape
        weights, bias = self.params["W"], self.params["b"]
        out = np.empty((n, self.out_ch, h, w), dtype=np.result_type(x, weights))
        cols = np.empty((n, c * 9, h * w), dtype=x.dtype) if c <= self.out_ch else None
        self._x, self._cols = x, cols

        def shard(s):
            if cols is not None:
                cols[s] = layers_mod._im2col(x[s])
            layers_mod._conv3x3(x[s], weights, out[s], None if cols is None else cols[s])
            out[s] += bias[:, None, None]

        layers_mod._map_shards(shard, n)
        return out

    def backward(self, dout):
        n, o, h, w = dout.shape
        c = self.in_ch
        x, cols = self._x, self._cols
        w_flip = self.params["W"][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dout_m = dout.reshape(n, o, h * w)
        dx = np.empty((n, c, h, w), dtype=np.result_type(dout, w_flip))

        def shard(s):
            dcols = None
            if cols is not None:
                dw_t = np.matmul(cols[s], dout_m[s].transpose(0, 2, 1)).sum(axis=0)
            else:
                dcols = layers_mod._im2col(dout[s])
                x_m = x[s].reshape(-1, c, h * w)
                dw_t = np.matmul(dcols, x_m.transpose(0, 2, 1)).sum(axis=0)
            layers_mod._conv3x3(dout[s], w_flip, dx[s], dcols)
            return dw_t, dout_m[s].sum(axis=(0, 2))

        partials = layers_mod._map_shards(shard, n)
        dw = reduce(np.add, [p[0] for p in partials]).T
        if cols is not None:
            self.grads["W"] = np.ascontiguousarray(dw).reshape(o, c, 3, 3)
        else:
            self.grads["W"] = np.ascontiguousarray(
                dw.reshape(c, o, 3, 3).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            )
        self.grads["b"] = reduce(np.add, [p[1] for p in partials])
        return dx


class TestRebuiltWindows:
    """Windows rebuilt in backward give the bytes of kept windows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c,o,h,w", NETWORK_CONVS)
    def test_grads_and_dx_are_those_of_kept_windows(self, c, o, h, w, dtype):
        rng = np.random.default_rng(c * 1000 + o * 10 + h + 2)
        for n in (1, 11):  # 11 scenes: four shards of unequal size
            x = rng.normal(size=(n, c, h, w)).astype(dtype)
            dout = rng.normal(size=(n, o, h, w)).astype(dtype)
            conv = Conv2d(c, o, np.random.default_rng(n), dtype=dtype)
            oracle = _KeptWindowsConv2d(c, o, np.random.default_rng(n), dtype=dtype)
            assert _bits_equal(conv.forward(x, True, None), oracle.forward(x, True, None)), n
            assert _bits_equal(conv.backward(dout), oracle.backward(dout)), n
            for key in ("W", "b"):
                assert _bits_equal(conv.grads[key], oracle.grads[key]), (n, key)


def _small_net(kind):
    """A float32 net on 27x27 scenes, a batch for it, its target and loss."""
    shape = dict(input_hw=(27, 27), conv_widths=(4, 8, 8), dtype=np.float32)
    x = np.random.default_rng(3).normal(size=(16, 3, 27, 27)).astype(np.float32)
    if kind == "classifier":
        net = build_classifier(3, seed=3, dense_width=8, **shape)
        return net, x, (np.arange(16) % 2).astype(np.float64), "logloss"
    return build_autoencoder(3, seed=3, **shape), x, x, "mse"


class TestTrainingMemory:
    """A conv keeps its input between forward and backward, not its windows."""

    @pytest.mark.parametrize("kind", ["classifier", "autoencoder"])
    def test_conv_keeps_nothing_larger_than_its_input(self, kind):
        net, h, _, _ = _small_net(kind)
        for i, layer in enumerate(net.layers):
            x, h = h, layer.forward(h, True, np.random.default_rng(0))
            if isinstance(layer, Conv2d):
                kept = {k: v.nbytes for k, v in vars(layer).items()
                        if k.startswith("_") and isinstance(v, np.ndarray)}
                assert kept and max(kept.values()) <= x.nbytes, (i, kept)

    @pytest.mark.parametrize("kind", ["classifier", "autoencoder"])
    def test_step_peaks_below_the_windows_it_does_not_keep(self, monkeypatch, kind):
        # Inline shards: one thread allocates, in a fixed order.
        monkeypatch.setattr(layers_mod, "_USE_WORKER", False)
        net, x, target, loss = _small_net(kind)
        # Kept, the gather-side windows alone would take this much heap.
        windows, h = 0, x
        for layer in net.layers:
            if isinstance(layer, Conv2d) and layer.in_ch <= layer.out_ch:
                windows += 9 * h.nbytes
            h = layer.forward(h, False, None)
        optimizer = Adam(net)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _backprop_loss(net, net.forward(x, training=True, rng=np.random.default_rng(0)),
                           target, loss)
            optimizer.step(1e-3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < windows, (peak, windows)


_BLAS_PROBE = """
import json, os{pre}
import sarberg
from sarberg.nn import layers
print(json.dumps([[os.environ.get(v) for v in sarberg.BLAS_THREAD_VARS], layers._USE_WORKER]))
"""


@pytest.mark.parametrize("pre,expect", [
    ("", [["1", "1", "1"], True]),
    ("\nimport numpy", [[None, None, None], False]),
])
def test_import_order_decides_blas_threads_and_worker(pre, expect):
    env = {k: v for k, v in os.environ.items() if k not in sarberg.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(sarberg.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE.format(pre=pre)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == expect
