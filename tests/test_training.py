"""Training-loop behavior: smoke, determinism, standardization, channels."""

import inspect
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from sarberg.data import (
    SampleSet,
    SarSample,
    SynthConfig,
    mean_incidence,
    split_train_validation,
    synth_dataset,
)
from sarberg.features import derived_bands, feature_vector, normalize_incidence
from sarberg.nn import (
    PlateauScheduler,
    TrainConfig,
    build_autoencoder,
    build_classifier,
    fit,
    fit_autoencoder,
    input_tensor,
    load_network,
    loss_logloss,
    loss_mse,
    prepare_inputs,
    save_network,
)
from sarberg.nn.layers import Conv2d
from sarberg.nn.training import _backprop_loss, _standardize, label_vector


def tiny_sets(n=16, seed=0):
    base = synth_dataset(SynthConfig(n_samples=n, iceberg_fraction=0.5, seed=seed))
    half = n // 2
    train = SampleSet(base.samples[:half], provenance="synthetic")
    val = SampleSet(base.samples[half:], provenance="synthetic")
    return train, val


def tiny_cfg(**over):
    defaults = dict(epochs=2, batch_size=4, seed=1)
    defaults.update(over)
    return TrainConfig(**defaults)


def tiny_net(seed=0, dtype=np.float64):
    return build_classifier(
        3, seed=seed, conv_widths=(2, 2, 2), dense_width=4, dtype=dtype
    )


def recipe_planes(s: SarSample, fill_angle=None) -> np.ndarray:
    """The recipe built from its definition: each band corrected for the
    scene's angle (or fill_angle) by itself, then the corrected difference."""
    angle = s.inc_angle if s.inc_angle is not None else fill_angle
    hh, hv = normalize_incidence(s.hh, angle), normalize_incidence(s.hv, angle)
    return np.stack((hh, hv, hh - hv))


def saved_with_channels(tmp_path, channels):
    """A checkpoint of a fitted-looking classifier whose meta names channels."""
    net = build_classifier(len(channels), seed=9, conv_widths=(2, 2, 2), dense_width=4)
    net.channels = tuple(channels)
    net.channel_mean = np.zeros(len(channels))
    net.channel_std = np.ones(len(channels))
    net.fill_angle = 38.0
    path = tmp_path / "net.ckpt"
    save_network(net, path)
    return path


class TestChannels:
    def test_default_recipe_planes(self):
        s = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        planes = input_tensor(SampleSet((s,), provenance="synthetic"), None)[0]
        assert planes.shape == (3, 75, 75)
        assert planes.tobytes() == recipe_planes(s).tobytes()
        assert np.allclose(planes[2], s.hh - s.hv)

    def test_diff_is_computed_without_the_ratio(self):
        # diff is derived_bands' diff bitwise, and a ratio band that leaves
        # the float64 range does not touch it.
        s = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        hh, hv, diff = input_tensor(SampleSet((s,), provenance="synthetic"), None)[0]
        assert diff.tobytes() == derived_bands(hh, hv)[0].tobytes()
        hot = np.full((5, 5), -20.0)
        hot[2, 2] = 4000.0  # 10^(4000/10) overflows float64
        s = SarSample(id="hot", hh=hot, hv=np.full((5, 5), -25.0), inc_angle=35.0, label=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hh, hv, diff = input_tensor(SampleSet((s,), provenance="synthetic"), None)[0]
        assert diff.tobytes() == (hh - hv).tobytes()

    def test_normalization_applied_before_derivation(self):
        s = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        hh, hv, diff = input_tensor(SampleSet((s,), provenance="synthetic"), None)[0]
        correction = -10.0 * np.log10(np.cos(np.deg2rad(s.inc_angle)))
        assert np.allclose(hh - s.hh, correction, atol=1e-12)
        assert np.allclose(hv - s.hv, correction, atol=1e-12)
        assert diff.tobytes() == (hh - hv).tobytes()

    @pytest.mark.parametrize("token", [
        "ratio", "gradmag_hh", "gradmag_hv", "laplacian_hh", "laplacian_hv",
        "smooth_hh", "smooth_hv",
    ])
    def test_derived_channel_tokens_refused(self, tmp_path, token):
        # The recipe is hh, hv and diff; a checkpoint naming a derived token
        # it once took is refused when loaded, by the token, also after the
        # three it keeps and in place of one of them.
        for channels in (("hh", "hv", "diff", token), ("hh", token, "diff")):
            with pytest.raises(ValueError, match=f"^unknown channel token '{token}'$"):
                load_network(saved_with_channels(tmp_path, channels))

    @pytest.mark.parametrize("channels", [
        ("diff", "hv", "hh"), ("hh", "hv"), ("hh",), ("hh", "hv", "diff", "diff"),
        ("hv", "hh", "diff"),
    ])
    def test_another_arrangement_of_the_recipe_refused(self, tmp_path, channels):
        # Every token is known, but only the recipe itself, in its order, is served.
        with pytest.raises(ValueError, match=r"^corrupt checkpoint: malformed channels \["):
            load_network(saved_with_channels(tmp_path, channels))

    def test_recipe_is_not_a_setting(self):
        assert TrainConfig.channels == TrainConfig().channels == ("hh", "hv", "diff")
        assert [f.name for f in fields(TrainConfig)] == [
            "epochs", "batch_size", "lr0", "seed", "dtype"]
        with pytest.raises(TypeError, match="channels"):
            TrainConfig(channels=("hh",))
        assert "channels" not in inspect.signature(input_tensor).parameters

    def test_unknown_token(self, tmp_path):
        with pytest.raises(ValueError, match="unknown channel token 'fft'"):
            load_network(saved_with_channels(tmp_path, ("hh", "hv", "fft")))

    def test_missing_angle_needs_a_fill_angle(self):
        # feature_vector's words, for the same missing angle and fill.
        p = np.zeros((5, 5))
        s = SarSample(id="x", hh=p, hv=p, inc_angle=None, label=0)
        with pytest.raises(ValueError,
                           match="sample 'x' has no incidence angle and no fill angle"):
            input_tensor(SampleSet((s,), provenance="synthetic"), None)
        with pytest.raises(ValueError,
                           match="sample 'x' has no incidence angle and no fill angle"):
            feature_vector(s, None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fill_angle_reads_as_a_written_angle(self, dtype):
        # A missing angle read with fill_angle gives the bytes of the same
        # scene with fill_angle written into it; a present angle ignores it.
        base = synth_dataset(SynthConfig(n_samples=6, seed=5))
        raw = SampleSet(tuple(replace(s, inc_angle=None) if i % 2 else s
                              for i, s in enumerate(base)), provenance="synthetic")
        filled = SampleSet(tuple(replace(s, inc_angle=37.25) if s.inc_angle is None else s
                                 for s in raw), provenance="synthetic")
        got = input_tensor(raw, 37.25).astype(dtype)
        assert got.tobytes() == input_tensor(filled, None).astype(dtype).tobytes()
        assert input_tensor(base, 37.25).tobytes() == input_tensor(base, None).tobytes()

    def test_input_tensor_shape(self):
        sset = synth_dataset(SynthConfig(n_samples=3, seed=1))
        x = input_tensor(sset, None)
        assert x.shape == (3, 3, 75, 75)

    @pytest.mark.parametrize("seed", [801, 104729])
    def test_input_tensor_matches_the_recipe_per_scene(self, seed):
        # The preallocated fill against each scene's planes built from the
        # recipe's definition, with every third angle missing.
        base = synth_dataset(SynthConfig(n_samples=7, seed=seed))
        sset = SampleSet(tuple(replace(s, inc_angle=None) if i % 3 == 0 else s
                               for i, s in enumerate(base)), provenance="synthetic")
        fill = mean_incidence(s.inc_angle for s in sset)
        expect = np.stack([recipe_planes(s, fill) for s in sset])
        got = input_tensor(sset, fill)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()

    def test_input_tensor_names_a_scene_of_another_size(self):
        a, b = (SarSample(id=name, hh=np.zeros(hw), hv=np.zeros(hw), inc_angle=30.0)
                for name, hw in (("a", (5, 5)), ("b", (5, 6))))
        with pytest.raises(ValueError, match=r"sample 'b': bands are \(5, 6\)"):
            input_tensor(SampleSet((a, b), provenance="synthetic"), None)


class TestFit:
    def test_smoke_two_epochs(self):
        train, val = tiny_sets()
        net, history = fit(tiny_net(), train, val, tiny_cfg())
        assert len(history) == 2
        assert all(np.isfinite(v) for v in history.train_loss + history.val_loss)
        assert history.lr == [0.001, 0.001]

    def test_fixed_seed_bitwise_identical_history(self):
        train, val = tiny_sets()
        _, h1 = fit(tiny_net(seed=3), train, val, tiny_cfg())
        _, h2 = fit(tiny_net(seed=3), train, val, tiny_cfg())
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        assert h1.train_acc == h2.train_acc and h1.val_acc == h2.val_acc

    def test_standardization_stats_stored_and_exact(self):
        train, val = tiny_sets(n=20, seed=2)
        cfg = tiny_cfg()
        net, _ = fit(tiny_net(), train, val, cfg)
        assert net.channel_mean is not None and net.channels == cfg.channels
        x = input_tensor(train, None)
        z = (x - net.channel_mean[None, :, None, None]) / net.channel_std[
            None, :, None, None
        ]
        for c in range(z.shape[1]):
            assert abs(z[:, c].mean()) < 1e-10
            assert abs(z[:, c].std() - 1.0) < 1e-10

    def test_prepare_inputs_matches_training_transform(self):
        train, val = tiny_sets(n=12, seed=3)
        cfg = tiny_cfg()
        net, _ = fit(tiny_net(), train, val, cfg)
        z = prepare_inputs(net, val)
        assert z.shape == (6, 3, 75, 75)

    def test_prepare_inputs_needs_stored_fill_angle(self):
        train, val = tiny_sets(n=12, seed=3)
        net, _ = fit(tiny_net(), train, val, tiny_cfg(epochs=1))
        prepare_inputs(net, val)
        net.fill_angle = None
        with pytest.raises(ValueError, match="no stored preprocessing"):
            prepare_inputs(net, val)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_prepare_inputs_fills_as_a_written_angle(self, dtype):
        # Serving a scene without an angle gives the bytes of serving it
        # with the model's fill angle written in.
        train, val = tiny_sets(n=12, seed=3)
        cfg = tiny_cfg(epochs=1, dtype=np.dtype(dtype).name)
        net, _ = fit(tiny_net(dtype=dtype), train, val, cfg)
        net.fill_angle = 37.25
        raw = SampleSet(tuple(replace(s, inc_angle=None) if i % 2 else s
                              for i, s in enumerate(val)), provenance="synthetic")
        filled = SampleSet(tuple(replace(s, inc_angle=net.fill_angle) if s.inc_angle is None
                                 else s for s in raw), provenance="synthetic")
        got = prepare_inputs(net, raw)
        assert got.dtype == dtype
        assert got.tobytes() == prepare_inputs(net, filled).tobytes()

    def test_missing_angles_filled_from_training_set(self):
        train, val = tiny_sets(n=12, seed=11)
        train = SampleSet(tuple(replace(s, inc_angle=None) if i % 3 == 0 else s
                                for i, s in enumerate(train)), provenance="synthetic")
        val = SampleSet(tuple(replace(s, inc_angle=None) for s in val),
                        provenance="synthetic")
        cfg = tiny_cfg(epochs=3)
        net, history = fit(tiny_net(seed=2), train, val, cfg)
        present = [s.inc_angle for s in train if s.inc_angle is not None]
        assert net.fill_angle == float(np.mean(present))
        # The validation set is scored exactly as serving scores it.
        p = net.forward(prepare_inputs(net, val)).ravel()
        assert loss_logloss(p, [s.label for s in val]) == min(history.val_loss)

    def test_returns_best_epoch_parameters(self):
        train, val = tiny_sets(n=16, seed=4)
        cfg = tiny_cfg(epochs=4)
        net, history = fit(tiny_net(seed=5), train, val, cfg)
        x_val = prepare_inputs(net, val)
        from sarberg.nn import loss_logloss
        from sarberg.nn.training import label_vector

        p = net.forward(x_val).ravel()
        best = min(history.val_loss)
        assert loss_logloss(p, label_vector(val)) == pytest.approx(best, abs=1e-12)

    def test_integer_fields_refuse_other_types(self):
        # epochs=2.5 would fail inside fit; batch_size=True would train one scene at a time.
        for name in ("epochs", "batch_size"):
            for bad in (2.5, 3.0, True, "3", np.float64(2.0), np.bool_(True)):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    TrainConfig(**{name: bad})
            assert getattr(TrainConfig(**{name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.nan])
    def test_non_finite_lr0_refused(self, bad):
        # NaN passes the floor comparison; it trained nothing and saved the
        # untrained init, as no epoch's loss beats the initial best of inf.
        with pytest.raises(ValueError, match="lr0 must be a finite number"):
            TrainConfig(lr0=bad)

    def test_empty_set_rejected(self):
        train, val = tiny_sets()
        empty = SampleSet((), provenance="synthetic")
        with pytest.raises(ValueError, match="non-empty"):
            fit(tiny_net(), empty, val, tiny_cfg())

    def test_saturated_float32_sigmoid_still_trains(self):
        # Output bias 17 with a zero output layer: float32 rounds the sigmoid
        # to exactly 1.0 on every label-0 scene. Chaining logloss through
        # p(1-p) = 0 would leave every gradient 0 and the loss unchanged.
        base = synth_dataset(SynthConfig(n_samples=16, iceberg_fraction=0.5, seed=10))
        ships = SampleSet(tuple(s for s in base if s.label == 0), provenance="synthetic")
        net = tiny_net(seed=8, dtype=np.float32)
        head = net.layers[-2]
        head.params["W"][:] = 0.0
        head.params["b"][:] = 17.0
        x = input_tensor(ships, None)
        assert np.all(net.forward(x) == 1.0)
        before = loss_logloss(np.ones(len(ships)), np.zeros(len(ships)))
        cfg = tiny_cfg(epochs=1, batch_size=len(ships), lr0=1.0, dtype="float32")
        _, history = fit(net, ships, ships, cfg)
        assert history.train_loss[0] < before

    def test_lr_history_replays_fixed_plateau_rule(self):
        base = synth_dataset(SynthConfig(n_samples=16, iceberg_fraction=0.5, seed=5))
        train, val = split_train_validation(base, 0.25, 2)
        cfg = tiny_cfg(epochs=16, lr0=0.01, seed=2, dtype="float32")
        _, history = fit(tiny_net(seed=2, dtype=np.float32), train, val, cfg)
        replay = PlateauScheduler(cfg.lr0)
        expected = [cfg.lr0] + [replay.update(v) for v in history.val_loss[:-1]]
        assert history.lr == expected
        assert min(history.lr) < cfg.lr0


class TestAutoencoderFit:
    def test_reconstruction_loss_finite_and_recorded(self):
        train, _ = tiny_sets(n=12, seed=7)
        ae = build_autoencoder(3, seed=0, conv_widths=(2, 2, 2))
        _, losses = fit_autoencoder(ae, train, tiny_cfg(epochs=3))
        assert len(losses) == 3
        assert all(np.isfinite(v) for v in losses)

    def test_deterministic(self):
        train, _ = tiny_sets(n=8, seed=8)
        _, l1 = fit_autoencoder(
            build_autoencoder(3, seed=1, conv_widths=(2, 2, 2)), train, tiny_cfg()
        )
        _, l2 = fit_autoencoder(
            build_autoencoder(3, seed=1, conv_widths=(2, 2, 2)), train, tiny_cfg()
        )
        assert l1 == l2


def _old_loss_mse(pred, target):
    """loss_mse as two float64 conversions, a difference and a square."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return float(np.mean((pred - target) ** 2))


class TestInPlaceArithmetic:
    """The loss and the standardization work in place, with the old bytes."""

    @pytest.mark.parametrize("kinds", [
        ("float32", "float32"), ("float64", "float64"), ("float32", "float64"),
        ("float64", "float32"), ("list", "list"), ("float32", "list"),
    ])
    def test_loss_mse_is_bitwise_the_old_expression(self, kinds):
        rng = np.random.default_rng(4)
        a, b = (rng.normal(size=(5, 3, 7, 7)).astype(np.float32 if k == "list" else k)
                for k in kinds)
        a, b = (x.tolist() if k == "list" else x for x, k in zip((a, b), kinds))
        before = np.array(a).tobytes()
        assert loss_mse(a, b).hex() == _old_loss_mse(a, b).hex()
        assert np.array(a).tobytes() == before  # the caller's pred is left alone

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_standardize_in_place_is_bitwise_the_old_expression(self, dtype):
        train, _ = tiny_sets(n=6, seed=5)
        net = tiny_net(dtype=np.dtype(dtype))
        x = input_tensor(train, None)
        net.channel_mean = x.mean(axis=(0, 2, 3))
        net.channel_std = x.std(axis=(0, 2, 3))
        old = (x - net.channel_mean[None, :, None, None]) / net.channel_std[None, :, None, None]
        new = _standardize(net, x.copy())
        assert new.dtype == np.dtype(dtype)
        assert new.tobytes() == old.astype(dtype).tobytes()

    def test_fit_leaves_the_callers_bands_unchanged(self):
        train, val = tiny_sets(n=8, seed=6)
        bands = [(s.hh.tobytes(), s.hv.tobytes()) for s in [*train, *val]]
        fit(tiny_net(), train, val, tiny_cfg(epochs=1))
        fit_autoencoder(build_autoencoder(3, seed=0, conv_widths=(2, 2, 2)), train,
                        tiny_cfg(epochs=1))
        assert [(s.hh.tobytes(), s.hv.tobytes()) for s in [*train, *val]] == bands


def kept_arrays(net):
    """(layer index, attribute) of every array a layer holds besides its
    parameters and gradients."""
    return [
        (i, name)
        for i, layer in enumerate(net.layers)
        for name, value in vars(layer).items()
        if name not in ("params", "grads") and isinstance(value, np.ndarray)
    ]


class TestTrainingState:
    def test_no_layer_keeps_training_state_after_a_run(self):
        train, val = tiny_sets()
        net = tiny_net()
        net.forward(input_tensor(train, None), training=True,
                    rng=np.random.default_rng(0))
        kinds = {type(net.layers[i]).__name__ for i, _ in kept_arrays(net)}
        assert kinds == {"Conv2d", "Relu", "MaxPool2", "Dropout", "Dense", "Sigmoid"}
        net, _ = fit(net, train, val, tiny_cfg())
        assert kept_arrays(net) == []
        with pytest.raises(ValueError, match="needs a training-mode forward"):
            net.backward(np.zeros((1, 1)))
        ae, _ = fit_autoencoder(build_autoencoder(3, seed=0, conv_widths=(2, 2, 2)), train,
                                tiny_cfg())
        assert kept_arrays(ae) == []

    @pytest.mark.parametrize("width", [2, 16])  # layer 0 scatters, or gathers
    def test_first_layer_input_gradient_skipped_bitwise(self, monkeypatch, width):
        original, calls = Conv2d.backward, []

        def recorded(self, dout, input_grad=True):
            calls.append(input_grad)
            return original(self, dout, input_grad)

        def always_dx(self, dout, input_grad=True):
            return original(self, dout)

        train, val = tiny_sets()
        x = input_tensor(train, None).astype(np.float32)
        cfg = tiny_cfg(dtype="float32")

        def run():
            def net():
                return build_classifier(3, seed=3, conv_widths=(width, 2, 2), dense_width=4,
                                        dtype=np.float32)

            one = net()
            _backprop_loss(one, one.forward(x, training=True, rng=np.random.default_rng(1)),
                           label_vector(train))
            grads = {k: v.tobytes() for k, v in one.gradients().items()}
            ae, losses = fit_autoencoder(
                build_autoencoder(3, seed=3, conv_widths=(width, 2, 2), dtype=np.float32),
                train, cfg,
            )
            clf, history = fit(net(), train, val, cfg)
            state = {k: v.tobytes() for k, v in {**clf.get_state(), **{
                f"ae.{k}": v for k, v in ae.get_state().items()}}.items()}
            return grads, losses, vars(history), state

        monkeypatch.setattr(Conv2d, "backward", recorded)
        skipped = run()
        assert calls[:3] == [True, True, False]  # convs 6, 3, then 0 without dx
        monkeypatch.setattr(Conv2d, "backward", always_dx)
        assert skipped == run()
