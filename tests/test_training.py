"""Training-loop behavior: smoke, determinism, standardization, channels."""

from dataclasses import replace

import numpy as np
import pytest

from sarberg.data import (
    SampleSet,
    SarSample,
    SynthConfig,
    split_train_validation,
    synth_dataset,
)
from sarberg.nn import (
    PlateauScheduler,
    TrainConfig,
    build_autoencoder,
    build_classifier,
    fit,
    fit_autoencoder,
    input_tensor,
    loss_logloss,
    prepare_inputs,
    write_history_csv,
)
from sarberg.nn.training import channel_planes


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


class TestChannels:
    def test_default_recipe_planes(self):
        s = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        planes = channel_planes(s, ("hh", "hv", "diff"))
        assert len(planes) == 3
        assert np.allclose(planes[2], s.hh - s.hv)

    def test_normalization_applied_before_derivation(self):
        s = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        norm = channel_planes(s, ("hh",))[0]
        correction = -10.0 * np.log10(np.cos(np.deg2rad(s.inc_angle)))
        assert np.allclose(norm - s.hh, correction, atol=1e-12)

    def test_derived_channel_tokens(self):
        s = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        for token in ("ratio", "gradmag_hh", "laplacian_hv", "smooth_hh"):
            planes = channel_planes(s, (token,))
            assert planes[0].shape == (75, 75)

    def test_unknown_token(self):
        s = synth_dataset(SynthConfig(n_samples=2, seed=0))[0]
        with pytest.raises(ValueError, match="unknown channel"):
            channel_planes(s, ("fft",))

    def test_missing_angle_needs_imputation(self):
        p = np.zeros((5, 5))
        s = SarSample(id="x", hh=p, hv=p, inc_angle=None, label=0)
        with pytest.raises(ValueError, match="impute"):
            channel_planes(s, ("hh",))

    def test_input_tensor_shape(self):
        sset = synth_dataset(SynthConfig(n_samples=3, seed=1))
        x = input_tensor(sset, ("hh", "hv", "diff"))
        assert x.shape == (3, 3, 75, 75)


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
        x = input_tensor(train, cfg.channels)
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
        x = input_tensor(ships, ("hh", "hv", "diff"))
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


class TestHistoryCsv:
    def test_header_and_rows(self, tmp_path):
        train, val = tiny_sets(n=8, seed=9)
        _, history = fit(tiny_net(seed=7), train, val, tiny_cfg())
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,train_acc,val_acc,lr"
        assert len(lines) == 3
        assert lines[1].startswith("1,")
        # float fields round-trip exactly
        assert float(lines[1].split(",")[1]) == history.train_loss[0]
