"""Layer implementations.

Activations are NCHW (or NF after flatten) in the network's dtype, float32 or
float64. A training-mode forward keeps what backward needs in underscore
attributes, nothing more, and `drop_state` sets them to None; an
evaluation-mode forward keeps nothing. Every parameterized layer keeps
parameters in `self.params` and writes gradients of the mean batch loss into
`self.grads` during backward.

Scene shards. Conv2d, Relu, MaxPool2, Upsample2 and PadTo compute each scene
on its own, so their forward and backward split the scene axis into
`_SHARDS` contiguous shards (fewer when the batch has fewer scenes) and write
each shard's result into its slice of a preallocated output. The calling
thread and one worker thread run the shards together (`_map_shards`). Each
layer method is still called once per pass, on the calling thread.
Dropout, Flatten, Dense and Sigmoid run whole: dropout draws its mask from the
generator in one call, and a dense layer's BLAS call rounds differently with
its row count.

Determinism. A sharded forward output and input gradient are bitwise equal to
running the scenes one at a time. Conv2d sums its dW and db over each shard
and adds the partial sums in shard order. The shard count is fixed, so these
sums round the same on every run, on any number of cores, and whether the
worker runs or the shards run inline.

Long rows. The non-GEMM passes of the conv trunk run their inner loops over
whole flattened planes or whole rows, not over 2x2 blocks or short padded
rows; only the loop shape differs from a per-pixel reading, not the
arithmetic:
- `_im2col` makes each of the 9 taps with one copy of the flattened (H*W)
  planes, shifted by (i-1)*W + (j-1) (`_tap_span`). It then writes the
  zeros of the padding: the head or tail the shift leaves out, and the one
  column where the shift wraps across a row end. Copies and zeros carry no
  rounding, so the windows are those of a padded sliding window.
- The scatter side of `_conv3x3` adds each tap plane onto the output with
  the same flat shift: the centre tap first, then the other eight in tap
  order. An add also lands on the wrapped column, where no tap belongs, so
  that column is saved before the add and written back after it. Each
  output element thus sees the same adds in the same order as a per-pixel
  loop, and keeps the sign of a zero sum.
- `MaxPool2` takes the max of row pairs over the full width, then of
  column pairs: the same two-level max, and the same ties.
- `Upsample2` writes the even rows, then copies them to the odd rows.

Weight gradients. Conv2d computes dW transposed: the windows times dout
transposed, (C*9, HW) x (HW, O), on the gather side, and dout's windows times
x transposed, (O*9, HW) x (HW, C), on the scatter side. The sums over scenes
and shards run as before, and one transpose at the end gives dW. With
OpenBLAS on one thread (2-core Intel Xeon), this orientation ran every
network conv's float32 dW faster, about 0.8 against 1.2 ms per 8-scene shard
at 16->32 channels on 37x37, and float64 about the same. Its bytes equal
those of dout times the windows transposed;
`tests/test_nn.py::TestWeightGradients` fails on a BLAS where they do not.
The forward and dx GEMMs keep their orientation; transposed, they ran slower.

BLAS threads. BLAS threads would compete with the worker for the cores.
Importing `sarberg` before numpy pins OpenBLAS, OpenMP and MKL to one thread.
The worker runs only when all three variables read "1"; otherwise the shards
run inline on the calling thread, with the same results.
"""

from __future__ import annotations

import os
import queue
import threading
from functools import reduce

import numpy as np

from .. import BLAS_THREAD_VARS
from ..mathutil import sigmoid

# Shards per batch. Fixed, so that sums over shards round the same everywhere.
_SHARDS = 4
_USE_WORKER = all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)


def _shard_slices(n: int) -> list[slice]:
    """min(_SHARDS, n) contiguous slices that cover range(n) in order."""
    k = min(_SHARDS, n)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


# Front and back takes, not one shared claim counter, keep each thread on the
# same shards from layer to layer. A shared counter ran `cnn_train` slower:
# about 200 against 207 scenes/s, in 3 of 3 alternating pairs.
class _ShardRun:
    """The shards of one call. The worker takes shards from the front and the
    caller from the back, so each shard runs once and the caller waits only
    for a shard the worker has already started."""

    def __init__(self, fn, slices: list[slice]):
        self.fn = fn
        self.slices = slices
        self.results: list = [None] * len(slices)
        self.front, self.back = 0, len(slices)
        self.busy = 0  # shards the worker has taken and not finished
        self.error: Exception | None = None
        self.cond = threading.Condition()

    def _take(self, from_front: bool) -> int | None:
        with self.cond:
            if self.front == self.back:
                return None
            if from_front:
                self.busy += 1
                self.front += 1
                return self.front - 1
            self.back -= 1
            return self.back

    def run_front(self) -> None:
        """Worker side: run shards from the front until none is left."""
        while (i := self._take(True)) is not None:
            try:
                self.results[i] = self.fn(self.slices[i])
            except Exception as e:  # raised again on the calling thread
                self.error = e
            with self.cond:
                self.busy -= 1
                self.cond.notify()

    def run_back(self) -> list:
        """Caller side: run shards from the back, then wait for the worker's."""
        try:
            while (i := self._take(False)) is not None:
                self.results[i] = self.fn(self.slices[i])
        finally:
            with self.cond:
                self.cond.wait_for(lambda: self.busy == 0)
        if self.error is not None:
            raise self.error
        return self.results


_worker: threading.Thread | None = None
_inbox: queue.SimpleQueue | None = None
_worker_lock = threading.Lock()


def _work(inbox: queue.SimpleQueue) -> None:
    while True:
        inbox.get().run_front()


def _worker_inbox() -> queue.SimpleQueue:
    """The worker's queue of runs. Starts the worker on first use, and again
    in a forked child, which inherits no threads."""
    global _worker, _inbox
    with _worker_lock:
        if _worker is None or not _worker.is_alive():
            _inbox = queue.SimpleQueue()
            _worker = threading.Thread(
                target=_work, args=(_inbox,), name="sarberg-shards", daemon=True
            )
            _worker.start()
        return _inbox


def _map_shards(fn, n: int) -> list:
    """[fn(s) for s in _shard_slices(n)], run by the calling thread and the
    worker together when the worker is on."""
    slices = _shard_slices(n)
    if not _USE_WORKER or len(slices) < 2:
        return [fn(s) for s in slices]
    run = _ShardRun(fn, slices)
    _worker_inbox().put(run)
    return run.run_back()


def he_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype=np.float64
) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Base layer; stateless layers only override forward/backward."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool, rng) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def drop_state(self) -> None:
        """Forget what the last training-mode forward kept for backward."""
        for name in vars(self):
            if name.startswith("_"):
                setattr(self, name, None)

    def spec(self) -> dict:
        raise NotImplementedError


def _tap_span(i: int, j: int, h: int, w: int) -> tuple[int, int, int, int | None]:
    """Where tap (i, j) of a 3x3 window lands on a flattened (h, w) plane.

    Output pixel p reads input pixel p + off, off = (i-1)*w + (j-1). It does
    so for p in [lo, hi); below lo and from hi on, p + off leaves the plane
    (hi == lo on planes too small for any read). Inside [lo, hi), a j != 1
    shift also wraps across a row end in one column (`col`: 0 for j == 0,
    w-1 for j == 2), whose reads belong to the zero padding.
    """
    off = (i - 1) * w + (j - 1)
    hw = h * w
    lo = min(max(-off, 0), hw)
    hi = max(min(hw - off, hw), lo)
    return off, lo, hi, (0, None, w - 1)[j]


def _im2col(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """3x3 same-padded windows as (N, C*9, H*W), tap-major within channel,
    written into `out` when given.

    Each tap is one shifted copy of the flattened planes (`_tap_span`), then
    zeros where the window reads the padding.
    """
    n, c, h, w = x.shape
    hw = h * w
    if out is None:
        out = np.empty((n, c * 9, hw), dtype=x.dtype)
    taps = out.reshape(n, c, 9, hw)
    xf = x.reshape(n, c, hw)
    for t in range(9):
        off, lo, hi, col = _tap_span(*divmod(t, 3), h, w)
        dst = taps[:, :, t]
        dst[..., lo:hi] = xf[..., lo + off : hi + off]
        dst[..., :lo] = 0
        dst[..., hi:] = 0
        if col is not None:
            dst.reshape(n, c, h, w)[..., col] = 0
    return out


def _conv3x3(
    x: np.ndarray, w: np.ndarray, out: np.ndarray, cols: np.ndarray | None = None
) -> None:
    """Same-padded 3x3 cross-correlation of x (N, C, H, W) with w (O, C, 3, 3),
    written into the contiguous out (N, O, H, W).

    The nine-fold copy is made on the side with fewer channels. With C <= O
    the input windows are gathered (`_im2col`, or `cols` when the caller
    already has them) and contracted in one GEMM. Otherwise one GEMM maps
    the C input channels to nine tap planes per output channel, and the
    planes are added onto the O outputs at their shifts: the centre tap
    first, then the others in tap order. A shifted add also lands on the
    wrapped column, so that column is saved before the add and put back
    after it.
    """
    n, c, h, wd = x.shape
    o = w.shape[0]
    hw = h * wd
    if c <= o:
        cols = _im2col(x) if cols is None else cols
        np.matmul(w.reshape(o, c * 9), cols, out=out.reshape(n, o, hw))
        return
    w_taps = w.transpose(2, 3, 0, 1).reshape(9 * o, c)
    taps = (w_taps @ x.reshape(n, c, hw)).reshape(n, 9, o, hw)
    out_f = out.reshape(n, o, hw)
    out_f[...] = taps[:, 4]
    for t in (0, 1, 2, 3, 5, 6, 7, 8):
        off, lo, hi, col = _tap_span(*divmod(t, 3), h, wd)
        if col is not None:
            kept = out[..., col].copy()
        out_f[..., lo:hi] += taps[:, t, :, lo + off : hi + off]
        if col is not None:
            out[..., col] = kept


class Conv2d(Layer):
    """3x3 convolution, stride 1, zero 'same' padding."""

    def __init__(
        self,
        in_ch: int,
        out_ch: int,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        self.in_ch = in_ch
        self.out_ch = out_ch
        fan_in = in_ch * 9
        if rng is None:
            weights = np.zeros((out_ch, in_ch, 3, 3), dtype=dtype)
        else:
            weights = he_uniform(rng, (out_ch, in_ch, 3, 3), fan_in, dtype)
        self.params = {"W": weights, "b": np.zeros(out_ch, dtype=dtype)}
        self._x: np.ndarray | None = None
        self._cols: np.ndarray | None = None

    def forward(self, x, training, rng):
        if x.shape[1] != self.in_ch:
            raise ValueError(f"conv expects {self.in_ch} channels, got {x.shape[1]}")
        n, c, h, w = x.shape
        weights, bias = self.params["W"], self.params["b"]
        out = np.empty((n, self.out_ch, h, w), dtype=np.result_type(x, weights))
        cols = None
        if training:
            # dW contracts dout with the windows of the side that has fewer
            # channels: those of x, which the gather path makes here anyway,
            # or those of dout, which backward makes from dout and x.
            if self.in_ch <= self.out_ch:
                cols = np.empty((n, c * 9, h * w), dtype=x.dtype)
                self._x, self._cols = None, cols
            else:
                self._x, self._cols = x, None

        def shard(s):
            _conv3x3(x[s], weights, out[s], None if cols is None else _im2col(x[s], cols[s]))
            out[s] += bias[:, None, None]

        _map_shards(shard, n)
        return out

    def backward(self, dout, input_grad: bool = True):
        """dW and db into self.grads; returns dx, or None without input_grad
        (a first layer's dx, which nothing reads)."""
        n, o, h, w = dout.shape
        c = self.in_ch
        x, cols = self._x, self._cols
        w_flip = self.params["W"][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dout_m = dout.reshape(n, o, h * w)
        dx = None
        if input_grad:
            dx = np.empty((n, c, h, w), dtype=np.result_type(dout, w_flip))

        def shard(s):
            dcols = None
            # Each product is dW transposed (see "Weight gradients").
            if cols is not None:
                dw_t = np.matmul(cols[s], dout_m[s].transpose(0, 2, 1)).sum(axis=0)
            else:
                # Windows of dout instead of x: entry (c, o, i, j) pairs x
                # with dout shifted the opposite way, so the taps come out
                # flipped. dx gathers from the same windows.
                dcols = _im2col(dout[s])
                x_m = x[s].reshape(-1, c, h * w)
                dw_t = np.matmul(dcols, x_m.transpose(0, 2, 1)).sum(axis=0)
            if dx is not None:
                _conv3x3(dout[s], w_flip, dx[s], dcols)
            return dw_t, dout_m[s].sum(axis=(0, 2))

        partials = _map_shards(shard, n)
        dw = reduce(np.add, [p[0] for p in partials]).T
        if cols is not None:
            self.grads["W"] = np.ascontiguousarray(dw).reshape(o, c, 3, 3)
        else:
            self.grads["W"] = np.ascontiguousarray(
                dw.reshape(c, o, 3, 3).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            )
        self.grads["b"] = reduce(np.add, [p[1] for p in partials])
        return dx

    def spec(self):
        return {"type": "conv2d", "in_ch": self.in_ch, "out_ch": self.out_ch}


class Relu(Layer):
    def forward(self, x, training, rng):
        out = np.empty(x.shape, dtype=x.dtype)
        active = np.empty(x.shape, dtype=bool) if training else None

        def shard(s):
            np.maximum(x[s], 0.0, out=out[s])
            if active is not None:
                np.greater(out[s], 0, out=active[s])

        _map_shards(shard, len(x))
        if training:
            self._active = active
        return out

    def backward(self, dout):
        dx = np.empty(dout.shape, dtype=dout.dtype)
        active = self._active

        def shard(s):
            np.multiply(dout[s], active[s], out=dx[s])

        _map_shards(shard, len(dout))
        return dx

    def spec(self):
        return {"type": "relu"}


class MaxPool2(Layer):
    """2x2 max pooling with stride 2; odd trailing rows/cols are dropped.

    Row first: the max of each top/bottom row pair over the full width, then
    of each left/right column pair in that row. Ties route the gradient to
    one position: the left column wins, then the top row. Training keeps two
    masks: `_bottom`, bottom beats top, at full width (N, C, H/2, 2*(W/2)),
    and `_right`, right beats left, at output size.
    """

    def forward(self, x, training, rng):
        n, c, h, w = x.shape
        h2, w2 = h // 2, w // 2
        out = np.empty((n, c, h2, w2), dtype=x.dtype)
        bottom_wins = right_wins = None
        if training:
            bottom_wins = np.empty((n, c, h2, 2 * w2), dtype=bool)
            right_wins = np.empty(out.shape, dtype=bool)
            self._in_shape = x.shape
            self._bottom, self._right = bottom_wins, right_wins

        def shard(s):
            top_rows = x[s, :, 0 : 2 * h2 : 2, : 2 * w2]
            bottom_rows = x[s, :, 1 : 2 * h2 : 2, : 2 * w2]
            rows = np.maximum(top_rows, bottom_rows)
            left, right = rows[..., 0::2], rows[..., 1::2]
            np.maximum(left, right, out=out[s])
            if bottom_wins is not None:
                np.greater(bottom_rows, top_rows, out=bottom_wins[s])
                np.greater(right, left, out=right_wins[s])

        _map_shards(shard, n)
        return out

    def backward(self, dout):
        n, c, h, w = self._in_shape
        h2, w2 = h // 2, w // 2
        dx = np.empty((n, c, h, w), dtype=dout.dtype)
        bottom_wins, right_wins = self._bottom, self._right

        def shard(s):
            d = dx[s]
            d[:, :, 2 * h2 :] = 0.0
            d[:, :, :, 2 * w2 :] = 0.0
            # Each split sends dout to the winner and dout - dout = 0 elsewhere:
            # first between the columns, then between the rows.
            split = np.empty(bottom_wins[s].shape, dtype=dout.dtype)
            np.multiply(dout[s], right_wins[s], out=split[..., 1::2])
            np.subtract(dout[s], split[..., 1::2], out=split[..., 0::2])
            bottom_rows = d[:, :, 1 : 2 * h2 : 2, : 2 * w2]
            np.multiply(split, bottom_wins[s], out=bottom_rows)
            np.subtract(split, bottom_rows, out=d[:, :, 0 : 2 * h2 : 2, : 2 * w2])

        _map_shards(shard, n)
        return dx

    def spec(self):
        return {"type": "maxpool2"}


class Dropout(Layer):
    """Inverted dropout: scaling at train time, identity at evaluation."""

    def __init__(self, rate: float):
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self._mask: np.ndarray | None = None

    def forward(self, x, training, rng):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("dropout in training mode needs a random generator")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) >= self.rate).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask

    def spec(self):
        return {"type": "dropout", "rate": self.rate}


class Flatten(Layer):
    def forward(self, x, training, rng):
        if training:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._in_shape)

    def spec(self):
        return {"type": "flatten"}


class Dense(Layer):
    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            weights = np.zeros((in_features, out_features), dtype=dtype)
        else:
            weights = he_uniform(rng, (in_features, out_features), in_features, dtype)
        self.params = {"W": weights, "b": np.zeros(out_features, dtype=dtype)}

    def forward(self, x, training, rng):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"dense expects (N, {self.in_features}), got {x.shape}"
            )
        if training:
            self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dout):
        self.grads["W"] = self._x.T @ dout
        self.grads["b"] = dout.sum(axis=0)
        return dout @ self.params["W"].T

    def spec(self):
        return {
            "type": "dense",
            "in_features": self.in_features,
            "out_features": self.out_features,
        }


class Sigmoid(Layer):
    def forward(self, x, training, rng):
        out = sigmoid(x)
        if training:
            self._out = out
        return out

    def backward(self, dout, logit_grad: bool = False):
        # logit_grad: dout is already the gradient with respect to this
        # layer's input (the fused logloss gradient), so it passes through.
        # Network.backward still calls this rather than skipping the layer so
        # that per-layer tracing of the benchmark keeps seeing the call.
        if logit_grad:
            return dout
        return dout * self._out * (1.0 - self._out)

    def spec(self):
        return {"type": "sigmoid"}


class Upsample2(Layer):
    """Nearest-neighbor 2x upsampling."""

    def forward(self, x, training, rng):
        n, c, h, w = x.shape
        out = np.empty((n, c, 2 * h, 2 * w), dtype=x.dtype)

        def shard(s):
            # The even rows take two strided copies of x, then the odd rows
            # one copy of the even rows: whole rows, not 2x2 blocks.
            o = out[s]
            o[:, :, 0::2, 0::2] = x[s]
            o[:, :, 0::2, 1::2] = x[s]
            o[:, :, 1::2] = o[:, :, 0::2]

        _map_shards(shard, n)
        return out

    def backward(self, dout):
        n, c, h, w = dout.shape
        dx = np.empty((n, c, h // 2, w // 2), dtype=dout.dtype)

        def shard(s):
            q = dout[s].reshape(-1, c, h // 2, 2, w // 2, 2)
            np.add(
                q[:, :, :, 0, :, 0] + q[:, :, :, 0, :, 1],
                q[:, :, :, 1, :, 0] + q[:, :, :, 1, :, 1],
                out=dx[s],
            )

        _map_shards(shard, n)
        return dx

    def spec(self):
        return {"type": "upsample2"}


class PadTo(Layer):
    """Edge-replicate pad on the bottom/right up to a fixed spatial size.

    Restores odd pre-pool sizes in the decoder (e.g. 36 -> 37); a no-op when
    the input already matches the target.
    """

    def __init__(self, height: int, width: int):
        super().__init__()
        self.height = height
        self.width = width

    def forward(self, x, training, rng):
        n, c, h, w = x.shape
        if h > self.height or w > self.width:
            raise ValueError(
                f"pad_to cannot shrink {h}x{w} to {self.height}x{self.width}"
            )
        if training:
            self._in_hw = (h, w)
        if (h, w) == (self.height, self.width):
            return x
        out = np.empty((n, c, self.height, self.width), dtype=x.dtype)

        def shard(s):
            o = out[s]
            o[:, :, :h, :w] = x[s]
            o[:, :, h:, :w] = o[:, :, h - 1 : h, :w]
            o[:, :, :, w:] = o[:, :, :, w - 1 : w]

        _map_shards(shard, n)
        return out

    def backward(self, dout):
        h, w = self._in_hw
        if (h, w) == (self.height, self.width):
            return dout
        n, c = dout.shape[:2]
        dx = np.empty((n, c, h, w), dtype=dout.dtype)

        def shard(s):
            d, g = dx[s], dout[s]
            d[...] = g[:, :, :h, :w]
            if self.height > h:
                d[:, :, h - 1, :] += g[:, :, h:, :w].sum(axis=2)
            if self.width > w:
                d[:, :, :, w - 1] += g[:, :, :h, w:].sum(axis=3)
            if self.height > h and self.width > w:
                d[:, :, h - 1, w - 1] += g[:, :, h:, w:].sum(axis=(2, 3))

        _map_shards(shard, n)
        return dx

    def spec(self):
        return {"type": "pad_to", "height": self.height, "width": self.width}


LAYER_TYPES = {
    "conv2d": Conv2d,
    "relu": Relu,
    "maxpool2": MaxPool2,
    "dropout": Dropout,
    "flatten": Flatten,
    "dense": Dense,
    "sigmoid": Sigmoid,
    "upsample2": Upsample2,
    "pad_to": PadTo,
}


def layer_from_spec(spec: dict) -> Layer:
    kind = spec.get("type")
    if kind not in LAYER_TYPES:
        raise ValueError(f"unknown layer type {kind!r}")
    kwargs = {k: v for k, v in spec.items() if k != "type"}
    return LAYER_TYPES[kind](**kwargs)
