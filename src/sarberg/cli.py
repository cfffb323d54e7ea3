"""Command-line entry point.

Every subcommand takes --config (JSON file of defaults), --seed, and --out;
flags given on the command line override the config file. Each run writes its
fully-resolved configuration into the output directory, so any result can be
reproduced from the artifacts alone.

Each model is one file that carries its own serving preprocessing, including
the fill angle (the training split's mean incidence angle, used wherever a
scene lacks one): a CNN checkpoint is a zip archive of meta.json (recipe,
channel stats) and one .npy per parameter; a GBM is one JSON file, gbm.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data, ensemble, features, gbm, harness, imageops, metrics, nn

SUBCOMMANDS = (
    "synth", "ingest", "augment", "features", "train-gbm", "pretrain-ae",
    "train-cnn", "predict", "stack", "eval", "curve", "report",
)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON file with option defaults")
    p.add_argument("--seed", type=int, help="random seed (overrides config)")
    p.add_argument("--out", type=Path, required=True, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarberg",
        description="Iceberg-vs-ship SAR classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    _common_flags(p)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--iceberg-fraction", type=float)
    p.add_argument("--speckle-looks", type=int)

    p = sub.add_parser("ingest", help="validate a dataset file and summarize it")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--unlabeled", action="store_true")

    p = sub.add_parser("augment", help="expand a dataset with random transforms")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--unlabeled", action="store_true")
    p.add_argument("--multiplier", type=int)
    p.add_argument("--width-shift", type=float)
    p.add_argument("--height-shift", type=float)
    p.add_argument("--rotation-max", type=float)

    p = sub.add_parser("features", help="export the statistics feature table")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--unlabeled", action="store_true")

    p = sub.add_parser("train-gbm", help="fit the boosted-tree baseline")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--n-trees", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--shrinkage", type=float)
    p.add_argument("--min-samples-leaf", type=int)
    p.add_argument("--val-ratio", type=float)

    p = sub.add_parser("pretrain-ae", help="train the convolutional autoencoder")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--unlabeled", action="store_true")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--channels", type=str)

    p = sub.add_parser("train-cnn", help="train the reference CNN classifier")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--channels", type=str)
    p.add_argument("--val-ratio", type=float)
    p.add_argument("--init-from", type=Path, help="autoencoder checkpoint to transfer")
    p.add_argument("--multiplier", type=int, help="augmentation multiplier")

    p = sub.add_parser("predict", help="score a dataset with a saved model")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--labeled", action="store_true")

    p = sub.add_parser("stack", help="out-of-fold stacking of GBM + CNN members")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--k-folds", type=int)
    p.add_argument("--cnn-epochs", type=int)
    p.add_argument("--n-trees", type=int)

    p = sub.add_parser("eval", help="metrics for a submission against labels")
    _common_flags(p)
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)

    p = sub.add_parser("curve", help="learning curve over training-set fractions")
    _common_flags(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--fractions", type=str)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--multiplier", type=int)

    p = sub.add_parser("report", help="write metrics/report files for a run")
    _common_flags(p)
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--history", type=Path)
    p.add_argument("--input", type=Path, help="dataset for composites")
    p.add_argument("--ids", type=str, help="comma-separated ids to render")

    return parser


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge config-file values under CLI flags; CLI wins when given."""
    resolved = dict(defaults)
    if args.config is not None:
        if not args.config.exists():
            raise ValueError(f"config file not found: {args.config}")
        with open(args.config) as f:
            file_cfg = json.load(f)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            resolved[key.replace("-", "_")] = value
    for key, value in vars(args).items():
        if key in ("config", "out", "command"):
            continue
        if value is not None and value is not False:
            resolved[key] = value
    for key, value in defaults.items():
        resolved.setdefault(key, value)
    return resolved


def _write_resolved(out: Path, command: str, resolved: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    doc = dict(resolved)
    doc["command"] = command
    doc["created_utc"] = datetime.now(timezone.utc).isoformat()
    with open(out / "resolved_config.json", "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2, default=str)
        f.write("\n")


def _load_set(path: Path, labeled: bool) -> data.SampleSet:
    if not path.exists():
        raise ValueError(f"input file not found: {path}")
    return data.parse_samples(path.read_bytes(), labeled=labeled)


def _train_config(resolved: dict) -> nn.TrainConfig:
    channels = resolved.get("channels", "hh,hv,diff")
    if isinstance(channels, str):
        channels = tuple(t.strip() for t in channels.split(",") if t.strip())
    return nn.TrainConfig(
        epochs=int(resolved.get("epochs", 30)),
        batch_size=int(resolved.get("batch_size", 32)),
        lr0=float(resolved.get("lr0", 0.001)),
        plateau_patience=int(resolved.get("plateau_patience", 5)),
        plateau_factor=float(resolved.get("plateau_factor", 0.1)),
        min_lr=float(resolved.get("min_lr", 1e-6)),
        seed=int(resolved.get("seed", 0)),
        channels=tuple(channels),
        normalize_angle=bool(resolved.get("normalize_angle", True)),
        dtype=str(resolved.get("dtype", "float32")),
    )


def _labels_of(sset: data.SampleSet) -> dict[str, int]:
    out = {}
    for s in sset:
        if s.label is None:
            raise ValueError(f"sample {s.id!r} has no label")
        out[s.id] = s.label
    return out


def _config_echo(resolved: dict) -> dict:
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in resolved.items()}


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_synth(args) -> None:
    resolved = _resolve(
        args, {"n_samples": 64, "iceberg_fraction": 0.5, "speckle_looks": 2, "seed": 0}
    )
    _write_resolved(args.out, "synth", resolved)
    cfg = data.SynthConfig(
        n_samples=int(resolved["n_samples"]),
        iceberg_fraction=float(resolved["iceberg_fraction"]),
        speckle_looks=int(resolved["speckle_looks"]),
        seed=int(resolved["seed"]),
    )
    sset = data.synth_dataset(cfg)
    (args.out / "samples.json").write_text(data.serialize_samples(sset))
    print(f"wrote {len(sset)} samples to {args.out / 'samples.json'}")


def _cmd_ingest(args) -> None:
    resolved = _resolve(args, {"seed": 0, "unlabeled": False})
    _write_resolved(args.out, "ingest", resolved)
    sset = _load_set(args.input, labeled=not resolved.get("unlabeled", False))
    labels = [s.label for s in sset]
    summary = {
        "n_samples": len(sset),
        "n_iceberg": sum(1 for l in labels if l == 1),
        "n_ship": sum(1 for l in labels if l == 0),
        "n_unlabeled": sum(1 for l in labels if l is None),
        "n_missing_angle": sum(1 for s in sset if s.inc_angle is None),
    }
    with open(args.out / "ingest_summary.json", "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    print(json.dumps(summary, sort_keys=True))


def _cmd_augment(args) -> None:
    resolved = _resolve(
        args,
        {
            "seed": 0,
            "unlabeled": False,
            "multiplier": 2,
            "width_shift": 0.1,
            "height_shift": 0.1,
            "rotation_max": 15.0,
        },
    )
    _write_resolved(args.out, "augment", resolved)
    sset = _load_set(args.input, labeled=not resolved.get("unlabeled", False))
    policy = imageops.AugmentationPolicy(
        width_shift_frac=float(resolved["width_shift"]),
        height_shift_frac=float(resolved["height_shift"]),
        rotation_max_deg=float(resolved["rotation_max"]),
    )
    out_set = imageops.augment_dataset(
        sset, policy, int(resolved["multiplier"]), int(resolved["seed"])
    )
    (args.out / "augmented.json").write_text(data.serialize_samples(out_set))
    print(f"wrote {len(out_set)} samples to {args.out / 'augmented.json'}")


def _cmd_features(args) -> None:
    resolved = _resolve(args, {"seed": 0, "unlabeled": False})
    _write_resolved(args.out, "features", resolved)
    sset = _load_set(args.input, labeled=not resolved.get("unlabeled", False))
    imputed, mean_angle = data.impute_incidence(sset)
    ids, X, y = features.feature_matrix(imputed, mean_angle)
    features.write_features_csv(args.out / "features.csv", ids, X, y)
    stat_cols = list(range(28))  # band statistics; angle columns can be constant
    corr = features.correlation_matrix(X, stat_cols)
    features.write_correlation_csv(
        args.out / "correlation.csv",
        [features.FEATURE_NAMES[i] for i in stat_cols],
        corr,
    )
    print(f"wrote features for {len(ids)} samples (mean angle {mean_angle:.4f})")


def _cmd_train_gbm(args) -> None:
    resolved = _resolve(
        args,
        {
            "seed": 0,
            "n_trees": 200,
            "max_depth": 3,
            "shrinkage": 0.1,
            "min_samples_leaf": 5,
            "val_ratio": 0.2,
        },
    )
    _write_resolved(args.out, "train-gbm", resolved)
    sset = _load_set(args.input, labeled=True)
    params = gbm.GbmParams(
        n_trees=int(resolved["n_trees"]),
        max_depth=int(resolved["max_depth"]),
        shrinkage=float(resolved["shrinkage"]),
        min_samples_leaf=int(resolved["min_samples_leaf"]),
    )
    val_ratio = float(resolved["val_ratio"])
    if val_ratio > 0:
        train_set, val_set = data.split_train_validation(
            sset, val_ratio, int(resolved["seed"])
        )
    else:
        train_set, val_set = sset, None

    model = ensemble.train_gbm(train_set, params)
    (args.out / "gbm.json").write_bytes(gbm.serialize_gbm(model))

    eval_set = val_set if val_set is not None else train_set
    preds = ensemble.gbm_predictor(model)(eval_set)
    summary = harness.metrics_summary(preds, _labels_of(eval_set), _config_echo(resolved))
    harness.write_metrics_json(args.out / "metrics.json", summary)
    print(
        f"gbm trained: final train logloss {model.train_losses[-1]:.4f}, "
        f"eval logloss {summary['logloss']:.4f}"
    )


def _cmd_pretrain_ae(args) -> None:
    resolved = _resolve(
        args, {"seed": 0, "epochs": 30, "batch_size": 32, "unlabeled": False}
    )
    _write_resolved(args.out, "pretrain-ae", resolved)
    sset = _load_set(args.input, labeled=not resolved.get("unlabeled", False))
    cfg = _train_config(resolved)
    net = nn.build_autoencoder(len(cfg.channels), cfg.seed, dtype=np.dtype(cfg.dtype))
    net, losses = nn.fit_autoencoder(net, sset, cfg)
    nn.save_network(net, args.out / "ae.ckpt")
    with open(args.out / "ae_history.csv", "w") as f:
        f.write("epoch,recon_mse\n")
        for i, loss in enumerate(losses):
            f.write(f"{i + 1},{loss!r}\n")
    print(f"autoencoder: epoch-1 mse {losses[0]:.5f}, final mse {losses[-1]:.5f}")


def _cmd_train_cnn(args) -> None:
    resolved = _resolve(
        args,
        {
            "seed": 0,
            "epochs": 30,
            "batch_size": 32,
            "val_ratio": 0.2,
            "multiplier": 1,
        },
    )
    _write_resolved(args.out, "train-cnn", resolved)
    sset = _load_set(args.input, labeled=True)
    cfg = _train_config(resolved)
    train_set, val_set = data.split_train_validation(
        sset, float(resolved["val_ratio"]), cfg.seed
    )
    multiplier = int(resolved["multiplier"])
    if multiplier > 1:
        train_set = imageops.augment_dataset(
            train_set, imageops.AugmentationPolicy(), multiplier, cfg.seed
        )

    net = nn.build_classifier(len(cfg.channels), cfg.seed, dtype=np.dtype(cfg.dtype))
    if getattr(args, "init_from", None):
        ae = nn.load_network(args.init_from)
        net = nn.transfer_encoder(ae, net)
    net, history = nn.fit(net, train_set, val_set, cfg)
    nn.save_network(net, args.out / "cnn.ckpt")
    nn.write_history_csv(args.out / "history.csv", history)

    preds = ensemble.cnn_predictor(net)(val_set)
    summary = harness.metrics_summary(preds, _labels_of(val_set), _config_echo(resolved))
    harness.write_metrics_json(args.out / "metrics.json", summary)
    best = history.best_epoch()
    print(
        f"cnn trained: best epoch {best + 1}, val logloss {history.val_loss[best]:.4f}, "
        f"val acc {history.val_acc[best]:.4f}"
    )


def _load_model_predictor(model_path: Path):
    """Return (kind, predict_fn(SampleSet) -> PredictionSet), by the file's own
    format: a network checkpoint is a zip archive, anything else a GBM file."""
    if not model_path.exists():
        raise ValueError(f"model file not found: {model_path}")
    with open(model_path, "rb") as f:
        is_checkpoint = f.read(4) == b"PK\x03\x04"  # every zip archive starts so
    if is_checkpoint:
        return "cnn", ensemble.cnn_predictor(nn.load_network(model_path))
    return "gbm", ensemble.gbm_predictor(gbm.deserialize_gbm(model_path.read_bytes()))


def _cmd_predict(args) -> None:
    resolved = _resolve(args, {"seed": 0, "labeled": False})
    _write_resolved(args.out, "predict", resolved)
    sset = _load_set(args.input, labeled=bool(resolved.get("labeled", False)))
    kind, predictor = _load_model_predictor(args.model)
    preds = predictor(sset)
    harness.write_submission(preds, args.out / "submission.csv")
    print(f"{kind} predictions for {len(preds)} samples -> {args.out / 'submission.csv'}")


def _cmd_stack(args) -> None:
    resolved = _resolve(
        args, {"seed": 0, "k_folds": 5, "cnn_epochs": 5, "n_trees": 100}
    )
    _write_resolved(args.out, "stack", resolved)
    sset = _load_set(args.input, labeled=True)
    seed = int(resolved["seed"])
    cnn_cfg = nn.TrainConfig(
        epochs=int(resolved["cnn_epochs"]), seed=seed, dtype="float32"
    )
    trainers = {
        "gbm": ensemble.gbm_trainer(gbm.GbmParams(n_trees=int(resolved["n_trees"]))),
        "cnn": ensemble.cnn_trainer(cnn_cfg, seed=seed),
    }
    oof = ensemble.oof_predictions(sset, trainers, int(resolved["k_folds"]), seed)
    y = np.asarray([s.label for s in sset], dtype=np.float64)
    stacker = ensemble.fit_stacker(oof, y)

    with open(args.out / "oof.csv", "w", newline="") as f:
        f.write("id,fold," + ",".join(oof.members) + "\n")
        for i, sample_id in enumerate(oof.ids):
            vals = ",".join(repr(float(v)) for v in oof.values[i])
            f.write(f"{sample_id},{oof.fold_of[i]},{vals}\n")
    with open(args.out / "stacker.json", "w") as f:
        json.dump(
            {
                "members": list(stacker.members),
                "weights": stacker.weights.tolist(),
                "bias": stacker.bias,
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")

    member_preds = [
        {i: float(v) for i, v in zip(oof.ids, oof.values[:, m])}
        for m in range(len(oof.members))
    ]
    stacked = ensemble.predict_stacker(stacker, member_preds)
    labels = _labels_of(sset)
    summary = harness.metrics_summary(stacked, labels, _config_echo(resolved))
    summary["member_logloss"] = {
        name: metrics.metric_logloss(member_preds[m], labels)
        for m, name in enumerate(oof.members)
    }
    harness.write_metrics_json(args.out / "metrics.json", summary)
    print(
        f"stacked oof logloss {summary['logloss']:.4f} "
        f"(members: {summary['member_logloss']})"
    )


def _cmd_eval(args) -> None:
    resolved = _resolve(args, {"seed": 0})
    _write_resolved(args.out, "eval", resolved)
    if not args.pred.exists():
        raise ValueError(f"prediction file not found: {args.pred}")
    preds = harness.read_submission(args.pred)
    truth = _load_set(args.truth, labeled=True)
    summary = harness.metrics_summary(preds, _labels_of(truth), _config_echo(resolved))
    harness.write_metrics_json(args.out / "metrics.json", summary)
    print(
        f"logloss {summary['logloss']:.6f}, accuracy {summary['accuracy']:.4f} "
        f"on {summary['n']} samples"
    )


def _cmd_curve(args) -> None:
    resolved = _resolve(
        args,
        {
            "seed": 0,
            "fractions": "0.1,0.3,1.0",
            "epochs": 10,
            "batch_size": 32,
            "multiplier": 1,
        },
    )
    _write_resolved(args.out, "curve", resolved)
    sset = _load_set(args.input, labeled=True)
    fractions = resolved["fractions"]
    if isinstance(fractions, str):
        fractions = [float(t) for t in fractions.split(",") if t.strip()]
    cfg = _train_config(resolved)
    rows = harness.learning_curve(
        sset, fractions, cfg, multiplier=int(resolved["multiplier"])
    )
    harness.write_curve_csv(args.out / "curve.csv", rows)
    for r in rows:
        print(
            f"fraction {r.fraction:.2f}: n={r.n_samples}, "
            f"train {r.train_loss:.4f}, val {r.val_loss:.4f}, gap {r.gap:.4f}"
        )


def _cmd_report(args) -> None:
    resolved = _resolve(args, {"seed": 0})
    _write_resolved(args.out, "report", resolved)
    missing = [str(p) for p in (args.pred, args.truth) if not p.exists()]
    if args.history is not None and not args.history.exists():
        missing.append(str(args.history))
    if args.input is not None and not args.input.exists():
        missing.append(str(args.input))
    if missing:
        raise ValueError(f"missing run artifacts: {', '.join(missing)}")

    preds = harness.read_submission(args.pred)
    truth = _load_set(args.truth, labeled=True)
    composites = []
    if args.input is not None and args.ids:
        wanted = {t.strip() for t in args.ids.split(",") if t.strip()}
        composites = [s for s in _load_set(args.input, labeled=False) if s.id in wanted]
        absent = wanted - {s.id for s in composites}
        if absent:
            raise ValueError(f"ids not in dataset: {sorted(absent)}")
    harness.write_report(
        args.out, preds, _labels_of(truth), _config_echo(resolved), composites=composites
    )
    if args.history is not None:
        (args.out / "history.csv").write_text(args.history.read_text())
    print(f"report written to {args.out}")


_HANDLERS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "augment": _cmd_augment,
    "features": _cmd_features,
    "train-gbm": _cmd_train_gbm,
    "pretrain-ae": _cmd_pretrain_ae,
    "train-cnn": _cmd_train_cnn,
    "predict": _cmd_predict,
    "stack": _cmd_stack,
    "eval": _cmd_eval,
    "curve": _cmd_curve,
    "report": _cmd_report,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _HANDLERS[args.command](args)
    except (ValueError, OSError) as e:
        print(f"sarberg {args.command}: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
