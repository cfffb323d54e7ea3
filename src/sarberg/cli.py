"""Command-line entry point.

Each option is declared once, with its default, in `_build_parser`. An option
takes its value from, in order of precedence:

1. its flag on the command line;
2. the --config JSON file, whose keys are option names as resolved_config.json
   spells them (`n_trees` for --n-trees);
3. its declared default.

A config key that names no option of the subcommand, or names --out or an
option the command line must give, is refused; so is a value that fails the
flag's type conversion. Each refusal names the key. Only the commands that
draw random numbers take --seed: synth, train-gbm, pretrain-ae, train-cnn,
stack and curve. The CLI builds and trains networks in float32,
`TrainConfig`'s default dtype, on its one input recipe: the angle-corrected
HH and HV bands and their difference. A checkpoint that names another
recipe is refused when predict or train-cnn --init-from loads it, by the
token outside the recipe where it has one ("unknown channel token").
train-cnn and curve train the CNN on each training scene plus --multiplier
- 1 transformed copies of it, and refuse a multiplier below 1; stack's CNN
member trains with no augmentation and no transfer.

Every command reads a scene's is_iceberg label where its record has one and
refuses a malformed one. train-gbm, train-cnn, stack, curve and eval's --truth
need a label on every record; the other commands take unlabeled scenes too.
eval's --truth is read for ids and labels only; bands and angles are not
checked.

A scene without an incidence angle takes a fill angle: the mean of the
present ones where a command fits something, the model's stored one in
predict. The readers (`features.feature_vector`, `nn.input_tensor`) put
it in as they read a scene; no command rewrites the set. So a set in which
every angle is missing is refused ("cannot impute") by features, train-gbm,
train-cnn, stack and curve, and by pretrain-ae, which needs no label but
corrects its input for incidence angle. ingest reads such a set, and
predict scores it with the model's fill angle.

Each successful run writes resolved_config.json into its --out directory:
every option value the run used, its command and a created_utc timestamp. A
refused run writes none, and removes the directories it made for --out
again while they are empty. Each command also writes:

    synth        samples.json
    ingest       ingest_summary.json
    features     features.csv, correlation.csv (band statistics only)
    train-gbm    gbm.json, metrics.json (on the validation split, or on the
                 training set with --val-ratio 0)
    pretrain-ae  ae.ckpt, ae_history.csv
    train-cnn    cnn.ckpt, history.csv, metrics.json (validation split)
    predict      submission.csv
    stack        oof.csv, metrics.json (the stacker scored in-sample, on the
                 out-of-fold rows it was fitted on; with each member's
                 out-of-fold logloss and the stacker's members, weights and
                 bias)
    eval         metrics.json (on the --truth rows); with --history, a byte
                 copy of it as history.csv; with --input and --ids (each
                 needs the other), one composite_<id>.ppm per id
    curve        curve.csv

Each metrics.json names the rows its logloss scored in "scored_rows":
"validation", "training", "stacker_fit_in_sample" or "truth".

`harness` writes every CSV and JSON report and every image; the model and
dataset files are written next to their loaders.

Each model is one file that carries its own serving preprocessing, including
the fill angle (the training split's mean incidence angle, used wherever a
scene lacks one): a CNN checkpoint is a zip archive of meta.json (recipe,
channel stats) and one .npy per parameter; a GBM is one JSON file, gbm.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data, ensemble, features, gbm, harness, metrics, nn


class _CommandParser(argparse.ArgumentParser):
    """One subcommand's parser; `settable` maps each option a config file may
    set (neither required nor --config) to its action."""

    def __init__(self, *args, **kwargs):
        self.settable: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if not action.required and action.dest not in ("help", "config"):
            self.settable[action.dest] = action
        return action


def _training_flags(p: argparse.ArgumentParser, epochs: int) -> None:
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr0", type=float, default=0.001, help="initial learning rate")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _CommandParser]]:
    parser = argparse.ArgumentParser(
        prog="sarberg",
        description="Iceberg-vs-ship SAR classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    commands: dict[str, _CommandParser] = {}

    def command(name: str, help: str, seeded: bool = False) -> _CommandParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=Path, help="JSON file of option values")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="random seed")
        commands[name] = p
        return p

    p = command("synth", "generate a synthetic labeled dataset", seeded=True)
    p.add_argument("--n-samples", type=int, default=64)
    p.add_argument("--iceberg-fraction", type=float, default=0.5)
    p.add_argument("--speckle-looks", type=int, default=2)

    p = command("ingest", "validate a dataset file and summarize it")
    p.add_argument("--input", type=Path, required=True)

    p = command("features", "export the statistics feature table")
    p.add_argument("--input", type=Path, required=True)

    p = command("train-gbm", "fit the boosted-tree baseline", seeded=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--n-trees", type=int, default=200)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--shrinkage", type=float, default=0.1)
    p.add_argument("--min-samples-leaf", type=int, default=5)
    p.add_argument("--val-ratio", type=float, default=0.2)

    p = command("pretrain-ae", "train the convolutional autoencoder", seeded=True)
    p.add_argument("--input", type=Path, required=True)
    _training_flags(p, epochs=30)

    p = command("train-cnn", "train the reference CNN classifier", seeded=True)
    p.add_argument("--input", type=Path, required=True)
    _training_flags(p, epochs=30)
    p.add_argument("--val-ratio", type=float, default=0.2)
    p.add_argument("--init-from", type=Path, help="autoencoder checkpoint to transfer")
    p.add_argument("--multiplier", type=int, default=1, help="augmentation multiplier")

    p = command("predict", "score a dataset with a saved model")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)

    p = command("stack", "out-of-fold stacking of GBM + CNN members", seeded=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--k-folds", type=int, default=5)
    p.add_argument("--cnn-epochs", type=int, default=5)
    p.add_argument("--n-trees", type=int, default=100)

    p = command("eval", "metrics for a submission against labels, plus run artifacts")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True,
                   help="labeled dataset, read for ids and labels only; "
                        "bands and angles are not checked")
    p.add_argument("--history", type=Path, help="training history CSV to copy")
    p.add_argument("--input", type=Path, help="dataset for composites")
    p.add_argument("--ids", type=str, help="comma-separated ids to render")

    p = command("curve", "learning curve over training-set fractions", seeded=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--fractions", type=str, default="0.1,0.3,1.0")
    _training_flags(p, epochs=10)
    p.add_argument("--multiplier", type=int, default=1)

    return parser, commands


def _config_values(path: Path, command: _CommandParser) -> dict:
    """The option values a config file sets, each converted as its flag's."""
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"config file {path} is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    values = {}
    for key, value in doc.items():
        action = command.settable.get(key)
        if action is None:
            raise ValueError(f"config key {key!r} names no option of {command.prog}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r}: {value!r} is not a string or a number")
        try:
            values[key] = action.type(str(value))
        except ValueError:
            raise ValueError(
                f"config key {key!r}: {value!r} is not a valid {action.type.__name__}"
            ) from None
    return values


def _settings(args: argparse.Namespace) -> dict:
    """The run's option values, as resolved_config.json and metrics.json record them."""
    return {
        k: str(v) if isinstance(v, Path) else v
        for k, v in vars(args).items()
        if k not in ("command", "config", "out")
    }


def _write_resolved(args: argparse.Namespace) -> None:
    doc = _settings(args)
    doc["command"] = args.command
    doc["created_utc"] = datetime.now(timezone.utc).isoformat()
    harness.write_json(args.out / "resolved_config.json", doc)


def _load_set(path: Path, labeled: bool = False) -> data.SampleSet:
    """The scenes of a dataset file, each with its label if the record has one;
    `labeled` requires a label on every record."""
    if not path.exists():
        raise ValueError(f"input file not found: {path}")
    return data.parse_samples(path.read_bytes(), labeled=labeled)


def _existing_model(path: Path) -> Path:
    if not path.exists():
        raise ValueError(f"model file not found: {path}")
    return path


def _train_config(args: argparse.Namespace) -> nn.TrainConfig:
    return nn.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr0=args.lr0,
        seed=args.seed,
    )


def _labels_of(sset: data.SampleSet) -> dict[str, int]:
    """The labels of a set loaded with `labeled=True`, by id."""
    return {s.id: s.label for s in sset}


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_synth(args) -> None:
    cfg = data.SynthConfig(
        n_samples=args.n_samples,
        iceberg_fraction=args.iceberg_fraction,
        speckle_looks=args.speckle_looks,
        seed=args.seed,
    )
    sset = data.synth_dataset(cfg)
    (args.out / "samples.json").write_text(data.serialize_samples(sset))
    print(f"wrote {len(sset)} samples to {args.out / 'samples.json'}")


def _cmd_ingest(args) -> None:
    sset = _load_set(args.input)
    labels = [s.label for s in sset]
    summary = {
        "n_samples": len(sset),
        "n_iceberg": sum(1 for l in labels if l == 1),
        "n_ship": sum(1 for l in labels if l == 0),
        "n_unlabeled": sum(1 for l in labels if l is None),
        "n_missing_angle": sum(1 for s in sset if s.inc_angle is None),
    }
    harness.write_json(args.out / "ingest_summary.json", summary)
    print(json.dumps(summary, sort_keys=True))


def _cmd_features(args) -> None:
    sset = _load_set(args.input)
    mean_angle = data.mean_incidence(s.inc_angle for s in sset)
    ids, X, y = features.feature_matrix(sset, mean_angle)
    # Correlate the band statistics only: the angle columns can be constant.
    stats = features.FEATURE_NAMES[: features.FEATURE_NAMES.index("inc_angle")]
    corr = features.correlation_matrix(X, range(len(stats)))  # refuses before any file is written
    header = ["id", *features.FEATURE_NAMES]
    rows = [[sample_id, *x] for sample_id, x in zip(ids, X)]
    if y is not None:
        header.append("label")
        for row, label in zip(rows, y):
            row.append(int(label))
    harness.write_csv(args.out / "features.csv", header, rows)
    harness.write_csv(
        args.out / "correlation.csv",
        ["field", *stats],
        ([name, *r] for name, r in zip(stats, corr)),
    )
    print(f"wrote features for {len(ids)} samples (mean angle {mean_angle:.4f})")


def _cmd_train_gbm(args) -> None:
    sset = _load_set(args.input, labeled=True)
    params = gbm.GbmParams(
        n_trees=args.n_trees,
        max_depth=args.max_depth,
        shrinkage=args.shrinkage,
        min_samples_leaf=args.min_samples_leaf,
    )
    if not 0.0 <= args.val_ratio < 1.0:  # before any file is written
        raise ValueError(f"--val-ratio must lie in [0, 1), got {args.val_ratio}")
    if args.val_ratio > 0:
        train_set, val_set = data.split_train_validation(sset, args.val_ratio, args.seed)
        if len(train_set) == 0 or len(val_set) == 0:  # before any file is written
            raise ValueError("train and validation sets must be non-empty")
    else:
        train_set, val_set = sset, None

    model = ensemble.train_gbm(train_set, params)
    (args.out / "gbm.json").write_bytes(gbm.serialize_gbm(model))

    eval_set, scored = (val_set, "validation") if val_set is not None else (train_set, "training")
    preds = ensemble.gbm_predictor(model)(eval_set)
    summary = harness.metrics_summary(
        preds, _labels_of(eval_set), _settings(args), scored_rows=scored
    )
    harness.write_json(args.out / "metrics.json", summary)
    print(
        f"gbm trained: final train logloss {model.train_losses[-1]:.4f}, "
        f"eval logloss {summary['logloss']:.4f}"
    )


def _cmd_pretrain_ae(args) -> None:
    sset = _load_set(args.input)
    cfg = _train_config(args)
    net = nn.build_autoencoder(len(cfg.channels), cfg.seed, dtype=np.dtype(cfg.dtype))
    net, losses = nn.fit_autoencoder(net, sset, cfg)
    nn.save_network(net, args.out / "ae.ckpt")
    harness.write_csv(args.out / "ae_history.csv", ["epoch", "recon_mse"], enumerate(losses, 1))
    print(f"autoencoder: epoch-1 mse {losses[0]:.5f}, final mse {losses[-1]:.5f}")


def _cmd_train_cnn(args) -> None:
    sset = _load_set(args.input, labeled=True)
    cfg = _train_config(args)
    train_set, val_set = data.split_train_validation(sset, args.val_ratio, cfg.seed)
    encoder = None if args.init_from is None else nn.load_network(_existing_model(args.init_from))
    net, history = ensemble.train_cnn(train_set, val_set, cfg, args.multiplier, encoder)
    nn.save_network(net, args.out / "cnn.ckpt")
    harness.write_csv(
        args.out / "history.csv",
        ["epoch", "train_loss", "val_loss", "train_acc", "val_acc", "lr"],
        zip(range(1, len(history) + 1), history.train_loss, history.val_loss,
            history.train_acc, history.val_acc, history.lr),
    )

    preds = ensemble.cnn_predictor(net)(val_set)
    summary = harness.metrics_summary(
        preds, _labels_of(val_set), _settings(args), scored_rows="validation"
    )
    harness.write_json(args.out / "metrics.json", summary)
    best = history.best_epoch()
    print(
        f"cnn trained: best epoch {best + 1}, val logloss {history.val_loss[best]:.4f}, "
        f"val acc {history.val_acc[best]:.4f}"
    )


def _load_model_predictor(model_path: Path):
    """Return (kind, predict_fn(SampleSet) -> PredictionSet), by the file's own
    format: a network checkpoint is a zip archive, anything else a GBM file."""
    with open(_existing_model(model_path), "rb") as f:
        is_checkpoint = f.read(4) == b"PK\x03\x04"  # every zip archive starts so
    if is_checkpoint:
        return "cnn", ensemble.cnn_predictor(nn.load_network(model_path))
    return "gbm", ensemble.gbm_predictor(gbm.deserialize_gbm(model_path.read_bytes()))


def _cmd_predict(args) -> None:
    sset = _load_set(args.input)
    kind, predictor = _load_model_predictor(args.model)
    preds = predictor(sset)
    harness.write_submission(preds, args.out / "submission.csv")
    print(f"{kind} predictions for {len(preds)} samples -> {args.out / 'submission.csv'}")


def _cmd_stack(args) -> None:
    sset = _load_set(args.input, labeled=True)
    data.mean_incidence(s.inc_angle for s in sset)  # refuses an empty or angle-less set early
    trainers = {
        "gbm": ensemble.gbm_trainer(gbm.GbmParams(n_trees=args.n_trees)),
        "cnn": ensemble.cnn_trainer(
            nn.TrainConfig(epochs=args.cnn_epochs, seed=args.seed)
        ),
    }
    oof = ensemble.oof_predictions(sset, trainers, args.k_folds, args.seed)
    y = np.asarray([s.label for s in sset], dtype=np.float64)
    stacker = ensemble.fit_stacker(oof, y)

    harness.write_csv(
        args.out / "oof.csv",
        ["id", "fold", *oof.members],
        ([sample_id, int(fold), *values]
         for sample_id, fold, values in zip(oof.ids, oof.fold_of, oof.values)),
    )

    member_preds = [
        {i: float(v) for i, v in zip(oof.ids, oof.values[:, m])}
        for m in range(len(oof.members))
    ]
    stacked = ensemble.predict_stacker(stacker, member_preds)
    labels = _labels_of(sset)
    summary = harness.metrics_summary(
        stacked, labels, _settings(args), scored_rows="stacker_fit_in_sample"
    )
    summary["member_logloss"] = {
        name: metrics.metric_logloss(member_preds[m], labels)
        for m, name in enumerate(oof.members)
    }
    summary["stacker"] = {
        "members": list(stacker.members),
        "weights": stacker.weights.tolist(),
        "bias": stacker.bias,
    }
    harness.write_json(args.out / "metrics.json", summary)
    print(
        f"stacked logloss {summary['logloss']:.4f}, in-sample on the stacker's fit rows "
        f"(members, out-of-fold: {summary['member_logloss']})"
    )


def _cmd_eval(args) -> None:
    if (args.input is None) != (args.ids is None):  # composites need both
        given, needed = ("--ids", "--input") if args.input is None else ("--input", "--ids")
        raise ValueError(f"{given} needs {needed}")
    wanted = {t.strip() for t in (args.ids or "").split(",") if t.strip()}
    if args.ids is not None and not wanted:
        raise ValueError(f"--ids names no id: {args.ids!r}")
    given = (args.pred, args.truth, args.history, args.input)
    missing = [str(p) for p in given if p is not None and not p.exists()]
    if missing:
        raise ValueError(f"missing run artifacts: {', '.join(missing)}")

    preds = harness.read_submission(args.pred)
    truth = data.parse_labels(args.truth.read_bytes())
    composites = []
    if args.input is not None:
        composites = [s for s in _load_set(args.input) if s.id in wanted]
        absent = wanted - {s.id for s in composites}
        if absent:
            raise ValueError(f"ids not in dataset: {sorted(absent)}")
    summary = harness.metrics_summary(preds, truth, _settings(args), scored_rows="truth")
    harness.write_json(args.out / "metrics.json", summary)
    for s in composites:
        harness.write_composite_ppm(s, args.out / f"composite_{s.id}.ppm")
    if args.history is not None:
        shutil.copyfile(args.history, args.out / "history.csv")
    print(
        f"logloss {summary['logloss']:.6f}, accuracy {summary['accuracy']:.4f} "
        f"on {summary['n']} samples"
    )


def _cmd_curve(args) -> None:
    sset = _load_set(args.input, labeled=True)
    fractions = []
    for token in filter(str.strip, args.fractions.split(",")):
        try:
            fractions.append(float(token))
        except ValueError:
            raise ValueError(f"--fractions: {token.strip()!r} is not a number") from None
    rows = harness.learning_curve(
        sset, fractions, _train_config(args), multiplier=args.multiplier
    )
    harness.write_csv(
        args.out / "curve.csv",
        ["fraction", "n_samples", "train_loss", "val_loss", "gap"],
        ([r.fraction, r.n_samples, r.train_loss, r.val_loss, r.gap] for r in rows),
    )
    for r in rows:
        print(
            f"fraction {r.fraction:.2f}: n={r.n_samples}, "
            f"train {r.train_loss:.4f}, val {r.val_loss:.4f}, gap {r.gap:.4f}"
        )


_HANDLERS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "features": _cmd_features,
    "train-gbm": _cmd_train_gbm,
    "pretrain-ae": _cmd_pretrain_ae,
    "train-cnn": _cmd_train_cnn,
    "predict": _cmd_predict,
    "stack": _cmd_stack,
    "eval": _cmd_eval,
    "curve": _cmd_curve,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    made: list[Path] = []  # directories this run makes for --out, deepest first
    try:
        if args.config is not None:
            command = commands[args.command]
            command.set_defaults(**_config_values(args.config, command))
            args = parser.parse_args(argv)  # flags still win over the new defaults
        made = [d for d in (args.out, *args.out.parents) if not d.exists()]
        args.out.mkdir(parents=True, exist_ok=True)
        _HANDLERS[args.command](args)
        _write_resolved(args)
    except (ValueError, OSError) as e:
        print(f"sarberg {args.command}: {e}", file=sys.stderr)
        with contextlib.suppress(OSError):  # rmdir refuses a directory with a file in it
            for d in made:
                d.rmdir()
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
