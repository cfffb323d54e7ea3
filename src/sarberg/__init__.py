"""Iceberg-vs-ship classification for dual-polarization SAR scenes.

Submodules:
    data      -- domain types, ingestion, splitting, synthetic scene generator
    imageops  -- deterministic transforms and the augmentation policy
    features  -- radiometric normalization and the statistics feature table
    gbm       -- gradient-boosted trees under binary logloss
    nn        -- minimal CNN framework (layers, Adam, plateau LR, training)
    ensemble  -- out-of-fold predictions, blending, logistic stacking
    metrics   -- accuracy / confusion / logloss over prediction sets
    harness   -- learning-curve experiment, submission and report writers
    cli       -- command-line pipeline (`sarberg --help`)
"""

from .data import (
    SampleSet,
    SarSample,
    SynthConfig,
    impute_incidence,
    parse_samples,
    serialize_samples,
    split_train_validation,
    synth_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "SampleSet",
    "SarSample",
    "SynthConfig",
    "impute_incidence",
    "parse_samples",
    "serialize_samples",
    "split_train_validation",
    "synth_dataset",
]
