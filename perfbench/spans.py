"""Span tracer that times sarberg from the outside, and the per-layer metrics.

`Tracer.install()` replaces each traced function or method at the name its
callers look up (a module global such as `sarberg.gbm.best_split`, an
imported name such as `sarberg.ensemble.feature_matrix`, or a method on a
class) with a wrapper that records one span per call. Network, Adam and layer spans carry the
network kind (classifier spans are `nn.Network.*`, autoencoder spans
`nn.Network.autoencoder.*`, layers `nn.layers.clf.*` / `nn.layers.ae.*`).
Spans live in flat
lists in memory and are written once, at the end of the run. Nothing under
`src/` changes; `uninstall()` puts every original back.

A target that no longer exists makes `install()` raise, so a rename in the
program fails the traced run loudly instead of silently dropping a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np


def _n_samples(arg):
    return float(np.shape(arg)[0])


# (module, attribute, span name, units(args, kwargs, result)) for plain
# functions. Each function is listed under every name a caller looks it up by.
# `units` gives the work a call did (scenes, rows, trees, epochs), or a pair
# (units, extra) when a second quantity is recorded too.
FUNCTION_TARGETS = [
    ("sarberg.data", "synth_dataset", "data.synth_dataset", lambda a, k, r: float(len(r))),
    # serialize_samples emits ASCII JSON, so its length in characters is bytes.
    ("sarberg.data", "serialize_samples", "data.serialize_samples",
     lambda a, k, r: (float(len(a[0])), float(len(r)))),
    ("sarberg.data", "parse_samples", "data.parse_samples", lambda a, k, r: float(len(r))),
    ("sarberg.imageops", "augment_dataset", "imageops.augment_dataset", lambda a, k, r: float(len(a[0]))),
    ("sarberg.features", "feature_matrix", "features.feature_matrix", lambda a, k, r: float(len(a[0]))),
    ("sarberg.ensemble", "feature_matrix", "features.feature_matrix", lambda a, k, r: float(len(a[0]))),
    ("sarberg.gbm", "best_split", "gbm.best_split", None),
    ("sarberg.gbm", "fit_gbm", "gbm.fit_gbm", lambda a, k, r: float(len(r.trees))),
    ("sarberg.ensemble", "fit_gbm", "gbm.fit_gbm", lambda a, k, r: float(len(r.trees))),
    ("sarberg.gbm", "predict_gbm", "gbm.predict_gbm", lambda a, k, r: _n_samples(r)),
    ("sarberg.ensemble", "predict_gbm", "gbm.predict_gbm", lambda a, k, r: _n_samples(r)),
    ("sarberg.ensemble", "oof_predictions", "ensemble.oof_predictions", None),
    ("sarberg.ensemble", "fit_stacker", "ensemble.fit_stacker", None),
    ("sarberg.ensemble", "predict_stacker", "ensemble.predict_stacker", None),
    ("sarberg.nn.training", "input_tensor", "nn.input_tensor", lambda a, k, r: _n_samples(r)),
    ("sarberg.nn", "prepare_inputs", "nn.prepare_inputs", lambda a, k, r: _n_samples(r)),
    ("sarberg.nn", "fit", "nn.fit", lambda a, k, r: float(len(r[1]))),
    ("sarberg.nn", "fit_autoencoder", "nn.fit_autoencoder", lambda a, k, r: float(len(r[1]))),
]

NET_PREFIX = {"classifier": "clf", "autoencoder": "ae"}


class Tracer:
    """Flat in-memory span store: name, parent id, start, end, units, extra."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.units: list[float] = []
        self.extra: list[float] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._layer_tags: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.units.append(1.0)
        self.extra.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def _traced(self, fn, name_of, units_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if units_of is not None:
                units = units_of(args, kwargs, result)
                if isinstance(units, tuple):
                    units, tracer.extra[sid] = units
                tracer.units[sid] = units
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for modname, attr, name, units_of in FUNCTION_TARGETS:
            module = importlib.import_module(modname)
            if attr not in module.__dict__:
                raise AttributeError(f"trace target {modname}.{attr} no longer exists")
            original = module.__dict__[attr]
            self._patch(module, attr, self._traced(original, lambda a, k, n=name: n, units_of))
        self._install_network()

    def _install_network(self) -> None:
        from sarberg.nn import layers, network, optim

        tags = self._layer_tags

        def tag_layers(net):
            prefix = NET_PREFIX.get(net.kind, net.kind)
            for i, layer in enumerate(net.layers):
                tags[id(layer)] = f"nn.layers.{prefix}.{i}.{type(layer).__name__}"

        fwd = network.Network.__dict__["forward"]
        bwd = network.Network.__dict__["backward"]

        def net_prefix(net) -> str:
            tag_layers(net)
            return "nn.Network." if net.kind == "classifier" else f"nn.Network.{net.kind}."

        def net_forward_name(args, kwargs):
            training = args[2] if len(args) > 2 else kwargs.get("training", False)
            return net_prefix(args[0]) + ("forward" if training else "forward_eval")

        def net_backward_name(args, kwargs):
            return net_prefix(args[0]) + "backward"

        def adam_step_name(args, kwargs):
            kind = args[0].net.kind
            return "nn.Adam.step" if kind == "classifier" else f"nn.Adam.{kind}.step"

        batch = lambda a, k, r: _n_samples(a[1])  # noqa: E731
        self._patch(network.Network, "forward", self._traced(fwd, net_forward_name, batch))
        self._patch(network.Network, "backward", self._traced(bwd, net_backward_name, batch))
        step = optim.Adam.__dict__["step"]
        self._patch(optim.Adam, "step", self._traced(step, adam_step_name, None))

        def layer_name(suffix_train, suffix_eval):
            def name_of(args, kwargs):
                tag = tags.get(id(args[0]), f"nn.layers.untagged.{type(args[0]).__name__}")
                training = suffix_eval is None or args[2]
                return f"{tag}.{suffix_train if training else suffix_eval}"

            return name_of

        for cls in layers.LAYER_TYPES.values():
            for attr, name_of in (
                ("forward", layer_name("fwd", "eval_fwd")),
                ("backward", layer_name("bwd", None)),
            ):
                if attr not in cls.__dict__:
                    raise AttributeError(f"layer {cls.__name__} defines no {attr}")
                self._patch(cls, attr, self._traced(cls.__dict__[attr], name_of, batch))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [i, self.parents[i], self.names[i], round(self.starts[i] - t0, 7),
             round(self.ends[i] - t0, 7), self.units[i], self.extra[i]]
            for i in range(len(self.names))
        ]
        with open(path, "w") as f:
            json.dump({"columns": ["id", "parent", "name", "start_s", "end_s", "units", "extra"],
                       "spans": rows}, f, separators=(",", ":"))
            f.write("\n")


# ---------------------------------------------------------------------------
# Analysis


class SpanView:
    """Spans grouped by name, restricted to one phase (root span name)."""

    def __init__(self, tracer: Tracer, phase: str | None):
        n = len(tracer.names)
        self.tracer = tracer
        root = [0] * n
        for i in range(n):
            p = tracer.parents[i]
            root[i] = i if p < 0 else root[p]
        self.dur = np.array(tracer.ends) - np.array(tracer.starts)
        self.child_time = np.zeros(n)
        for i in range(n):
            p = tracer.parents[i]
            if p >= 0:
                self.child_time[p] += self.dur[i]
        self.by_name: dict[str, list[int]] = {}
        for i in range(n):
            if phase is None or tracer.names[root[i]] == phase:
                self.by_name.setdefault(tracer.names[i], []).append(i)

    def ids(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.ids(name))

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.ids(name)]

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def units(self, name: str) -> float:
        return float(sum(self.tracer.units[i] for i in self.ids(name)))

    def extra(self, name: str) -> float:
        return float(sum(self.tracer.extra[i] for i in self.ids(name)))

    def median(self, name: str) -> float:
        d = self.durations(name)
        return float(np.median(d)) if d.size else 0.0

    def p90(self, name: str) -> float:
        d = self.durations(name)
        return float(np.percentile(d, 90)) if d.size else 0.0

    def per_unit(self, name: str) -> float:
        u = self.units(name)
        return self.total(name) / u if u else 0.0

    def children(self, parent_name: str, child_name: str) -> list[int]:
        parents = set(self.ids(parent_name))
        return [i for i in self.ids(child_name) if self.tracer.parents[i] in parents]

    def summary(self) -> dict:
        """Per span name: count, total and self time, p50 (and p90 at >= 100 calls)."""
        out = {}
        for name, ids in sorted(self.by_name.items()):
            d = self.dur[ids]
            row = {
                "count": len(ids),
                "total_ms": 1e3 * float(d.sum()),
                "self_ms": 1e3 * float((d - self.child_time[ids]).sum()),
                "p50_ms": 1e3 * float(np.median(d)),
                "units": float(sum(self.tracer.units[i] for i in ids)),
            }
            if len(ids) >= 100:
                row["p90_ms"] = 1e3 * float(np.percentile(d, 90))
            out[name] = row
        return out


def train_steps(view: SpanView, loop: str, forward: str, step: str) -> np.ndarray:
    """Seconds from each training forward to the end of its Adam step.

    Only spans whose parent is a `loop` span count; spans are numbered in
    call order, so each step closes the forward opened before it.
    """
    t = view.tracer
    loops = set(view.ids(loop))
    open_fwd: dict[int, int] = {}
    steps = []
    for i in sorted(view.ids(forward) + view.ids(step)):
        parent = t.parents[i]
        if parent not in loops:
            continue
        if t.names[i] == forward:
            open_fwd[parent] = i
        elif parent in open_fwd:
            steps.append(t.ends[i] - t.starts[open_fwd.pop(parent)])
    return np.array(steps)


# ---------------------------------------------------------------------------
# Per-layer metrics

CLF_LAYERS = ("Conv2d", "Relu", "MaxPool2") * 3 + (
    "Flatten", "Dropout", "Dense", "Relu", "Dropout", "Dense", "Sigmoid",
)
AE_LAYERS = ("Conv2d", "Relu", "MaxPool2") * 3 + (
    "Upsample2", "PadTo", "Conv2d", "Relu",
    "Upsample2", "PadTo", "Conv2d", "Relu",
    "Upsample2", "PadTo", "Conv2d",
)

ALL = ("cnn_train", "gbm_oof", "cli_pipeline")
CNN, GBM, CLI = ("cnn_train",), ("gbm_oof",), ("cli_pipeline",)


class Metric:
    """One per-layer metric: computed from the spans named `source`.

    `homes` are the workloads whose timed phase must call the source at
    least once; elsewhere the metric reads 0, meaning the layer did not run.
    `phase` None reads set-up spans too (input generation happens there).
    """

    def __init__(self, name, unit, homes, source, compute, phase="iteration"):
        self.name, self.unit, self.homes = name, unit, homes
        self.source, self.compute, self.phase = source, compute, phase


def _share(view, parent, child):
    ids = view.children(parent, child)
    total = view.total(parent)
    return float(view.dur[ids].sum()) / total if total else 0.0


def _per_epoch(view, parent, child):
    epochs = view.units(parent)
    ids = view.children(parent, child)
    return sum(view.tracer.units[i] for i in ids) / epochs if epochs else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics() -> list[Metric]:
    ms, us = 1e3, 1e6
    m = [
        Metric("data.synth_dataset.ms_per_scene", "ms", ALL, "data.synth_dataset",
               lambda v, it: ms * v.per_unit("data.synth_dataset"), phase=None),
        Metric("data.serialize_samples.ms_per_scene", "ms", CLI, "data.serialize_samples",
               lambda v, it: ms * v.per_unit("data.serialize_samples")),
        Metric("data.parse_samples.ms_per_scene", "ms", CLI, "data.parse_samples",
               lambda v, it: ms * v.per_unit("data.parse_samples")),
        Metric("data.json_bytes_per_scene", "bytes", CLI, "data.serialize_samples",
               lambda v, it: v.extra("data.serialize_samples") / max(v.units("data.serialize_samples"), 1.0)),
        Metric("imageops.augment_dataset.ms_per_scene", "ms", CNN, "imageops.augment_dataset",
               lambda v, it: ms * v.per_unit("imageops.augment_dataset")),
        Metric("features.feature_matrix.ms_per_scene", "ms", GBM + CLI, "features.feature_matrix",
               lambda v, it: ms * v.per_unit("features.feature_matrix")),
        Metric("gbm.fit_gbm.ms_per_tree", "ms", GBM, "gbm.fit_gbm",
               lambda v, it: ms * v.per_unit("gbm.fit_gbm")),
        Metric("gbm.best_split.calls", "count", GBM, "gbm.best_split",
               lambda v, it: v.count("gbm.best_split") / it),
        Metric("gbm.best_split.us_per_call", "us", GBM, "gbm.best_split",
               lambda v, it: us * v.median("gbm.best_split")),
        Metric("gbm.best_split.us_per_call_p90", "us", GBM, "gbm.best_split",
               lambda v, it: us * v.p90("gbm.best_split")),
        Metric("gbm.predict_gbm.us_per_row", "us", GBM + CLI, "gbm.predict_gbm",
               lambda v, it: us * v.per_unit("gbm.predict_gbm")),
        Metric("ensemble.fit_stacker.ms", "ms", GBM, "ensemble.fit_stacker",
               lambda v, it: ms * v.median("ensemble.fit_stacker")),
        Metric("nn.input_tensor.ms_per_scene", "ms", CNN + CLI, "nn.input_tensor",
               lambda v, it: ms * v.per_unit("nn.input_tensor")),
        Metric("nn.prepare_inputs.ms_per_scene", "ms", CNN + CLI, "nn.prepare_inputs",
               lambda v, it: ms * v.per_unit("nn.prepare_inputs")),
        Metric("nn.fit.epoch_s", "s", CNN, "nn.fit",
               lambda v, it: v.per_unit("nn.fit")),
        Metric("nn.fit_autoencoder.epoch_s", "s", CNN, "nn.fit_autoencoder",
               lambda v, it: v.per_unit("nn.fit_autoencoder")),
        Metric("nn.fit.rescore_share", "ratio", CNN, "nn.fit",
               lambda v, it: _share(v, "nn.fit", "nn.Network.forward_eval")),
        Metric("nn.fit.forward_samples_per_epoch", "count", CNN, "nn.fit",
               lambda v, it: _per_epoch(v, "nn.fit", "nn.Network.forward_eval")),
        Metric("nn.train_step.ms", "ms", CNN, "nn.Adam.step",
               lambda v, it: ms * _median(train_steps(v, "nn.fit", "nn.Network.forward", "nn.Adam.step"))),
        Metric("nn.ae_train_step.ms", "ms", CNN, "nn.Adam.autoencoder.step",
               lambda v, it: ms * _median(train_steps(
                   v, "nn.fit_autoencoder", "nn.Network.autoencoder.forward", "nn.Adam.autoencoder.step"))),
        Metric("nn.Network.backward.ms_per_sample", "ms", CNN, "nn.Network.backward",
               lambda v, it: ms * v.per_unit("nn.Network.backward")),
        Metric("nn.Adam.step.ms", "ms", CNN, "nn.Adam.step",
               lambda v, it: ms * v.median("nn.Adam.step")),
        Metric("nn.Network.forward_eval.ms_per_sample", "ms", CNN + CLI, "nn.Network.forward_eval",
               lambda v, it: ms * v.per_unit("nn.Network.forward_eval")),
    ]
    for step in ("synth", "predict_cnn", "predict_gbm", "eval"):
        m.append(Metric(f"cli.{step}.s", "s", CLI, f"cli.{step}",
                        lambda v, it, src=f"cli.{step}": v.median(src)))
    for net, kinds, arch in (("clf", ("fwd", "bwd", "eval_fwd"), CLF_LAYERS),
                             ("ae", ("fwd", "bwd"), AE_LAYERS)):
        for i, layer in enumerate(arch):
            for kind in kinds:
                src = f"nn.layers.{net}.{i}.{layer}.{kind}"
                if kind == "eval_fwd":
                    # Eval calls are chunked by the caller; per sample is comparable.
                    m.append(Metric(f"{src}_ms", "ms/sample", CNN + CLI, src,
                                    lambda v, it, src=src: ms * v.per_unit(src)))
                else:
                    m.append(Metric(f"{src}_ms", "ms", CNN, src,
                                    lambda v, it, src=src: ms * v.median(src)))
    return m


def compute_per_layer(tracer: Tracer, workload: str, iterations: int):
    """Per-layer values of one traced run, whether each metric at home on
    `workload` had its source span fire, and the span summary."""
    views = {"iteration": SpanView(tracer, "iteration"), None: SpanView(tracer, None)}
    values, fired = {}, {}
    for metric in per_layer_metrics():
        view = views[metric.phase]
        values[metric.name] = {"value": float(metric.compute(view, iterations)), "unit": metric.unit}
        if workload in metric.homes:
            fired[metric.name] = view.count(metric.source) > 0
    return values, fired, views["iteration"].summary()
