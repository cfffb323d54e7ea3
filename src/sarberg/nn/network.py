"""Network container, the reference architectures, and checkpoint I/O."""

from __future__ import annotations

import copy
import io
import json
import zipfile

import numpy as np

from .layers import (
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2,
    PadTo,
    Relu,
    Sigmoid,
    Upsample2,
    layer_from_spec,
)

CHECKPOINT_FORMAT = "sarberg-net"
# Version 2: the input is always corrected for incidence angle, so meta.json no
# longer says whether it is; a version-1 file is refused, not reinterpreted.
CHECKPOINT_VERSION = 2
# Fixed zip entry timestamp so checkpoints are byte-deterministic.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
# Scenes per evaluation-mode pass. Small chunks keep the activations near the
# cache and the peak memory low. The conv and pool layers compute each scene on
# its own; the dense layers' BLAS calls may round differently with the row
# count, so a scene's output can depend on its chunk in the last bits.
EVAL_CHUNK = 32


class Network:
    """An ordered layer stack with its input contract.

    channels, fill_angle (the training set's mean angle) and
    channel_mean/channel_std are the preprocessing fit on the training set;
    they travel with the model so inference applies the identical transform.
    """

    def __init__(
        self,
        layers: list[Layer],
        input_ch: int,
        input_hw: tuple[int, int],
        kind: str,
        dtype=np.float64,
    ):
        self.layers = layers
        self.input_ch = input_ch
        self.input_hw = tuple(input_hw)
        self.kind = kind  # "classifier" | "autoencoder"
        self.dtype = np.dtype(dtype)
        self.channels: tuple[str, ...] | None = None
        self.fill_angle: float | None = None
        self.channel_mean: np.ndarray | None = None
        self.channel_std: np.ndarray | None = None
        self._backward_ready = False

    def forward(self, x: np.ndarray, training: bool = False, rng=None) -> np.ndarray:
        """Run x through every layer.

        A training-mode forward keeps the state `backward` needs. An
        evaluation-mode forward keeps none and runs EVAL_CHUNK scenes at a
        time.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != self.input_ch or x.shape[2:] != self.input_hw:
            raise ValueError(
                f"expected input (N, {self.input_ch}, {self.input_hw[0]}, "
                f"{self.input_hw[1]}), got {x.shape}"
            )
        self._backward_ready = False
        if not training and x.shape[0] > EVAL_CHUNK:
            return np.concatenate(
                [self._run(x[i : i + EVAL_CHUNK], False, None)
                 for i in range(0, x.shape[0], EVAL_CHUNK)]
            )
        out = self._run(x, training, rng)
        self._backward_ready = training
        return out

    def _run(self, x: np.ndarray, training: bool, rng) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training, rng)
        return x

    def backward(self, dout: np.ndarray, logit_grad: bool = False) -> None:
        """Backpropagate dout through every layer, last to first; the
        gradients land on the layers.

        Needs a training-mode forward just before. With logit_grad, dout is
        the loss gradient with respect to the input of the trailing Sigmoid
        rather than its output. Nothing reads the first layer's input
        gradient, so a first Conv2d skips it.
        """
        layers = self.layers[::-1]
        if logit_grad and (not layers or not isinstance(layers[0], Sigmoid)):
            raise ValueError("logit_grad needs a network that ends in Sigmoid")
        if not self._backward_ready:
            raise ValueError(
                "backward needs a training-mode forward; an evaluation-mode "
                "forward keeps no state"
            )
        if logit_grad:
            dout = layers[0].backward(dout, logit_grad=True)
            layers = layers[1:]
        for layer in layers:
            if layer is self.layers[0] and isinstance(layer, Conv2d):
                layer.backward(dout, input_grad=False)
            else:
                dout = layer.backward(dout)

    def drop_state(self) -> None:
        """Forget every layer's training state; backward then needs a new
        training-mode forward."""
        self._backward_ready = False
        for layer in self.layers:
            layer.drop_state()

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params.items():
                out.append((f"{i}.{name}", arr))
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.grads.items():
                out[f"{i}.{name}"] = arr
        return out

    def get_state(self) -> dict[str, np.ndarray]:
        return {key: arr.copy() for key, arr in self.parameters()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        for key, arr in self.parameters():
            if key not in state:
                raise ValueError(f"state is missing parameter {key!r}")
            if state[key].shape != arr.shape:
                raise ValueError(
                    f"parameter {key!r}: shape {state[key].shape} != {arr.shape}"
                )
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                layer.params[name] = state[f"{i}.{name}"].copy()


def _trunk_layers(input_ch: int, widths, rng, dtype) -> list[Layer]:
    layers: list[Layer] = []
    prev = input_ch
    for width in widths:
        layers += [Conv2d(prev, width, rng, dtype=dtype), Relu(), MaxPool2()]
        prev = width
    return layers


def _pool_sizes(hw: tuple[int, int], n_pools: int) -> list[tuple[int, int]]:
    sizes = [tuple(hw)]
    for _ in range(n_pools):
        h, w = sizes[-1]
        sizes.append((h // 2, w // 2))
    return sizes


def build_classifier(
    input_ch: int,
    seed: int,
    input_hw: tuple[int, int] = (75, 75),
    conv_widths: tuple[int, ...] = (16, 32, 64),
    dense_width: int = 64,
    dropout_rate: float = 0.3,
    dtype=np.float64,
) -> Network:
    """The reference CNN: three conv/pool blocks and a small dense head.

    He-uniform weights, zero biases, deterministic per seed. The default
    shape targets 75x75 scenes; the tiny variants used by gradient checks
    shrink input_hw and conv_widths.
    """
    if input_ch < 1:
        raise ValueError("input_ch must be >= 1")
    rng = np.random.default_rng(seed)
    layers = _trunk_layers(input_ch, conv_widths, rng, dtype)
    h, w = _pool_sizes(input_hw, len(conv_widths))[-1]
    flat = conv_widths[-1] * h * w
    layers += [
        Flatten(),
        Dropout(dropout_rate),
        Dense(flat, dense_width, rng, dtype=dtype),
        Relu(),
        Dropout(dropout_rate),
        Dense(dense_width, 1, rng, dtype=dtype),
        Sigmoid(),
    ]
    return Network(layers, input_ch, input_hw, kind="classifier", dtype=dtype)


def build_autoencoder(
    input_ch: int,
    seed: int,
    input_hw: tuple[int, int] = (75, 75),
    conv_widths: tuple[int, ...] = (16, 32, 64),
    dtype=np.float64,
) -> Network:
    """Convolutional autoencoder whose encoder mirrors the classifier trunk.

    The decoder upsamples back through the recorded pre-pool sizes (padding
    odd sizes by edge replication) and ends in a linear conv that
    reconstructs the input channels.
    """
    if input_ch < 1:
        raise ValueError("input_ch must be >= 1")
    rng = np.random.default_rng(seed)
    layers = _trunk_layers(input_ch, conv_widths, rng, dtype)
    sizes = _pool_sizes(input_hw, len(conv_widths))

    prev = conv_widths[-1]
    decoder_widths = list(conv_widths[-2::-1]) + [input_ch]
    for i, width in enumerate(decoder_widths):
        target = sizes[len(conv_widths) - 1 - i]
        layers.append(Upsample2())
        layers.append(PadTo(*target))
        layers.append(Conv2d(prev, width, rng, dtype=dtype))
        if i < len(decoder_widths) - 1:
            layers.append(Relu())
        prev = width
    return Network(layers, input_ch, input_hw, kind="autoencoder", dtype=dtype)


def encoder_span(net: Network) -> int:
    """Number of leading layers forming the conv/pool trunk."""
    n = 0
    for layer in net.layers:
        if isinstance(layer, (Conv2d, Relu, MaxPool2)):
            n += 1
        else:
            break
    return n


def transfer_encoder(ae: Network, clf: Network) -> Network:
    """Copy the autoencoder's encoder weights into a classifier's trunk.

    Returns a new classifier; the input is left untouched. The dense head
    keeps its fresh initialization and optimizer state starts cold (the
    training loop builds Adam state per run).
    """
    span_ae = encoder_span(ae)
    span_clf = encoder_span(clf)
    ae_convs = [l for l in ae.layers[:span_ae] if isinstance(l, Conv2d)]
    clf_convs = [l for l in clf.layers[:span_clf] if isinstance(l, Conv2d)]
    if len(ae_convs) != len(clf_convs):
        raise ValueError(
            f"encoder depth mismatch: {len(ae_convs)} vs {len(clf_convs)} conv layers"
        )
    for a, c in zip(ae_convs, clf_convs):
        if a.params["W"].shape != c.params["W"].shape:
            raise ValueError(
                f"conv shape mismatch: {a.params['W'].shape} vs {c.params['W'].shape}"
            )
    out = copy.deepcopy(clf)
    out_convs = [l for l in out.layers[: encoder_span(out)] if isinstance(l, Conv2d)]
    for a, c in zip(ae_convs, out_convs):
        c.params["W"] = a.params["W"].copy()
        c.params["b"] = a.params["b"].copy()
    return out


# ---------------------------------------------------------------------------
# Checkpoints


def save_network(net: Network, path) -> None:
    """Write a deterministic zip: meta.json plus one .npy entry per parameter."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": net.kind,
        "input_ch": net.input_ch,
        "input_hw": list(net.input_hw),
        "dtype": net.dtype.name,
        "layers": [layer.spec() for layer in net.layers],
        "channels": list(net.channels) if net.channels is not None else None,
        "fill_angle": net.fill_angle,
        "channel_mean": (
            net.channel_mean.tolist() if net.channel_mean is not None else None
        ),
        "channel_std": (
            net.channel_std.tolist() if net.channel_std is not None else None
        ),
        "params": [key for key, _ in net.parameters()],
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr(
            zipfile.ZipInfo("meta.json", date_time=_ZIP_EPOCH),
            json.dumps(meta, separators=(",", ":")),
        )
        for key, arr in net.parameters():
            buf = io.BytesIO()
            np.save(buf, arr)
            zf.writestr(zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_EPOCH), buf.getvalue())


def _is_size(v) -> bool:
    return type(v) is int and v >= 1  # a JSON true is no size


def _are_numbers(v, shape) -> bool:
    arr = np.asarray(v)
    return arr.shape == shape and arr.dtype.kind in "iuf" and bool(np.isfinite(arr).all())


def _check_meta(meta) -> None:
    """Refuse a meta.json that save_network could not have written."""
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a sarberg network checkpoint")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
    # Checked in this order: input_ch is a size by the time channels use it.
    checks = {
        "kind": lambda v: v in ("classifier", "autoencoder"),
        "input_ch": _is_size,
        "input_hw": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_size, v)),
        "dtype": lambda v: np.dtype(v).kind == "f",
        "layers": lambda v: isinstance(v, list) and all(isinstance(s, dict) for s in v),
        "params": lambda v: isinstance(v, list),
        "channels": lambda v: v is None or (
            isinstance(v, list) and len(v) == meta["input_ch"]
            and all(isinstance(t, str) for t in v)
        ),
        "fill_angle": lambda v: v is None or (_are_numbers(v, ()) and 0.0 < v < 90.0),
        "channel_mean": lambda v: v is None or _are_numbers(v, (meta["input_ch"],)),
        "channel_std": lambda v: v is None or _are_numbers(v, (meta["input_ch"],)),
    }
    for key, ok in checks.items():
        if key not in meta:
            raise ValueError(f"missing {key!r}")
        if not ok(meta[key]):
            raise ValueError(f"malformed {key} {meta[key]!r}")


def load_network(path) -> Network:
    """Read a checkpoint written by `save_network`; any defect in it, a
    missing or malformed meta.json key included, raises "corrupt checkpoint"."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            meta = json.loads(zf.read("meta.json"))
            _check_meta(meta)
            net = Network(
                [layer_from_spec(spec) for spec in meta["layers"]],
                input_ch=meta["input_ch"],
                input_hw=tuple(meta["input_hw"]),
                kind=meta["kind"],
                dtype=meta["dtype"],
            )
            net.set_state(
                {key: np.load(io.BytesIO(zf.read(f"{key}.npy"))) for key in meta["params"]}
            )
    except (zipfile.BadZipFile, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"corrupt checkpoint: {e}") from e
    if meta["channels"] is not None:
        net.channels = tuple(meta["channels"])
    net.fill_angle = None if meta["fill_angle"] is None else float(meta["fill_angle"])
    for key in ("channel_mean", "channel_std"):
        if meta[key] is not None:
            setattr(net, key, np.asarray(meta[key], dtype=np.float64))
    return net
