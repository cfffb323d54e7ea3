"""Shared fixtures: the heavy training runs are session-scoped so the unit
suite and the acceptance criteria reuse the same artifacts."""

import os
import time
from dataclasses import replace

# Before numpy: importing sarberg first pins BLAS to one thread, so the suite
# runs the CNN layers' shard worker as the CLI and the benchmark do.
import sarberg  # noqa: F401  isort: skip
import numpy as np
import pytest

from sarberg.data import SampleSet, SynthConfig, split_train_validation, synth_dataset
from sarberg.nn import TrainConfig, build_autoencoder, build_classifier, fit, fit_autoencoder

BENCH_SEED = 42


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    whatever forks must reap its child before it returns or raises."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = f"pid {pid}, unreaped" if pid else "still running"
    pytest.fail(f"the test left a child process behind ({left})")


@pytest.fixture(scope="session")
def bench_dataset():
    """The 1200-scene benchmark dataset (seed 42, balanced classes)."""
    return synth_dataset(
        SynthConfig(n_samples=1200, iceberg_fraction=0.5, seed=BENCH_SEED)
    )


@pytest.fixture(scope="session")
def bench_run(bench_dataset):
    """Reference CNN trained on the benchmark with a 4:1 split.

    Returns (net, history, val_set, wall_seconds).
    """
    train, val = split_train_validation(bench_dataset, 0.2, BENCH_SEED)
    cfg = TrainConfig(epochs=10, batch_size=32, seed=BENCH_SEED, dtype="float32")
    net = build_classifier(len(cfg.channels), BENCH_SEED, dtype=np.float32)
    start = time.monotonic()
    net, history = fit(net, train, val, cfg)
    elapsed = time.monotonic() - start
    return net, history, val, elapsed


@pytest.fixture(scope="session")
def ae_scenes():
    """The autoencoder's 200 unlabeled synthetic scenes (seed 77).

    Returns (SynthConfig, unlabeled set).
    """
    cfg = SynthConfig(n_samples=200, iceberg_fraction=0.5, seed=77)
    labeled = synth_dataset(cfg)
    unlabeled = SampleSet(
        tuple(replace(s, label=None) for s in labeled), provenance="synthetic"
    )
    return cfg, unlabeled


@pytest.fixture(scope="session")
def ae_run(ae_scenes):
    """Autoencoder pretrained for 30 epochs on the `ae_scenes` set.

    The scenes are single-look (`speckle_looks=1`): about 79% of the
    standardized variance the autoencoder reconstructs is i.i.d. speckle.
    An exact reconstruction of the noise-free scene therefore scores MSE
    about 0.79. That is no lower bound for the autoencoder, which sees the
    noisy input and may carry part of the speckle through.

    Returns (ae, per-epoch reconstruction MSE).
    """
    _, unlabeled = ae_scenes
    cfg = TrainConfig(epochs=30, batch_size=32, seed=77, dtype="float32")
    ae = build_autoencoder(len(cfg.channels), seed=77, dtype=np.float32)
    ae, losses = fit_autoencoder(ae, unlabeled, cfg)
    return ae, losses
