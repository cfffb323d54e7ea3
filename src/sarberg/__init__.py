"""Iceberg-vs-ship classification for dual-polarization SAR scenes.

Submodules:
    data      -- domain types, ingestion, splitting, synthetic scene generator
    floattext -- a whole float array's `repr` text at once, for the JSON writer
    imageops  -- deterministic transforms and the augmentation policy
    features  -- radiometric normalization and the statistics feature table
    gbm       -- gradient-boosted trees under binary logloss
    nn        -- minimal CNN framework (layers, Adam, plateau LR, training)
    ensemble  -- out-of-fold predictions, blending, logistic stacking
    metrics   -- accuracy / confusion / logloss over prediction sets
    harness   -- learning-curve experiment; the one writer of run artifacts
    cli       -- command-line pipeline (`sarberg --help`)
"""

import os
import sys

# BLAS threads would compete with the CNN layers' shard worker for the cores
# (see `sarberg.nn.layers`), so BLAS gets one thread unless the caller chose
# otherwise. BLAS reads these when numpy loads; after that they change nothing.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

from .data import (  # noqa: E402
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
