"""Layer implementations.

Activations are NCHW (or NF after flatten) in the network's dtype, float32 or
float64. A training-mode forward keeps what backward needs, nothing more; an
evaluation-mode forward keeps nothing. Every parameterized layer keeps
parameters in `self.params` and writes gradients of the mean batch loss into
`self.grads` during backward.
"""

from __future__ import annotations

import numpy as np

from ..mathutil import sigmoid


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

    def spec(self) -> dict:
        raise NotImplementedError


def _im2col(x: np.ndarray) -> np.ndarray:
    """3x3 same-padded windows as (N, C*9, H*W), tap-major within channel.

    The (n, c, i, j, H, W) copy order keeps rows contiguous, so the gather
    runs at memcpy speed instead of a strided shuffle.
    """
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, c * 9, h * w
    )


# Output rows/cols that tap offset 0, 1, 2 reaches inside the image, and the
# input rows/cols it reads there (output y reads input y + offset - 1).
_TAP_DST = (slice(1, None), slice(None), slice(None, -1))
_TAP_SRC = (slice(None, -1), slice(None), slice(1, None))


def _conv3x3(x: np.ndarray, w: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Same-padded 3x3 cross-correlation of x (N, C, H, W) with w (O, C, 3, 3).

    The nine-fold copy is made on the side with fewer channels. With C <= O
    the input windows are gathered (`_im2col`, or `cols` when the caller
    already has them) and contracted in one GEMM. Otherwise one GEMM maps
    the C input channels to nine tap planes per output channel, and the
    planes are added onto the O outputs at their shifts.
    """
    n, c, h, wd = x.shape
    o = w.shape[0]
    if c <= o:
        cols = _im2col(x) if cols is None else cols
        return (w.reshape(o, c * 9) @ cols).reshape(n, o, h, wd)
    w_taps = w.transpose(2, 3, 0, 1).reshape(9 * o, c)
    taps = (w_taps @ x.reshape(n, c, h * wd)).reshape(n, 3, 3, o, h, wd)
    out = taps[:, 1, 1].copy()
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                out[:, :, _TAP_DST[i], _TAP_DST[j]] += taps[
                    :, i, j, :, _TAP_SRC[i], _TAP_SRC[j]
                ]
    return out


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
        cols = None
        if training:
            # dW contracts dout with the windows of the side that has fewer
            # channels: those of x, which the gather path makes here anyway,
            # or those of dout, which backward makes from dout and x.
            if self.in_ch <= self.out_ch:
                cols = _im2col(x)
                self._x, self._cols = None, cols
            else:
                self._x, self._cols = x, None
        out = _conv3x3(x, self.params["W"], cols)
        out += self.params["b"][:, None, None]
        return out

    def backward(self, dout):
        n, o, h, w = dout.shape
        c = self.in_ch
        dout_m = dout.reshape(n, o, h * w)
        dcols = None
        if self._cols is not None:
            dw = np.matmul(dout_m, self._cols.transpose(0, 2, 1)).sum(axis=0)
            self.grads["W"] = dw.reshape(o, c, 3, 3)
        else:
            # Windows of dout instead of x: entry (c, o, i, j) pairs x with
            # dout shifted the opposite way, so the taps come out flipped.
            # dx gathers from the same windows.
            dcols = _im2col(dout)
            x_m = self._x.reshape(n, c, h * w)
            dw = np.matmul(x_m, dcols.transpose(0, 2, 1)).sum(axis=0)
            self.grads["W"] = np.ascontiguousarray(
                dw.reshape(c, o, 3, 3).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            )
        self.grads["b"] = dout_m.sum(axis=(0, 2))
        w_flip = self.params["W"][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv3x3(dout, w_flip, dcols)

    def spec(self):
        return {"type": "conv2d", "in_ch": self.in_ch, "out_ch": self.out_ch}


class Relu(Layer):
    def forward(self, x, training, rng):
        out = np.maximum(x, 0.0)
        if training:
            self._active = out > 0
        return out

    def backward(self, dout):
        return dout * self._active

    def spec(self):
        return {"type": "relu"}


def _quads(x: np.ndarray) -> np.ndarray:
    """Writable (N, C, H/2, 2, W/2, 2) view of x's 2x2 blocks; an odd
    trailing row or column is left out."""
    n, c, h, w = x.shape
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, c, h // 2, 2, w // 2, 2), (s0, s1, 2 * s2, s2, 2 * s3, s3)
    )


class MaxPool2(Layer):
    """2x2 max pooling with stride 2; odd trailing rows/cols are dropped.

    Ties route the gradient to one position: the left column wins, then
    the top row. Training keeps three masks: bottom beats top in the left
    column, in the right column, and right column beats left.
    """

    def forward(self, x, training, rng):
        q = _quads(x)
        left = np.maximum(q[:, :, :, 0, :, 0], q[:, :, :, 1, :, 0])
        right = np.maximum(q[:, :, :, 0, :, 1], q[:, :, :, 1, :, 1])
        out = np.maximum(left, right)
        if training:
            self._in_shape = x.shape
            self._bottom_left = q[:, :, :, 1, :, 0] > q[:, :, :, 0, :, 0]
            self._bottom_right = q[:, :, :, 1, :, 1] > q[:, :, :, 0, :, 1]
            self._right = right > left
        return out

    def backward(self, dout):
        n, c, h, w = self._in_shape
        dx = np.empty((n, c, h, w), dtype=dout.dtype)
        dx[:, :, 2 * (h // 2) :] = 0.0
        dx[:, :, :, 2 * (w // 2) :] = 0.0
        q = _quads(dx)
        # Each split sends dout to the winner and dout - dout = 0 elsewhere.
        d_right = dout * self._right
        d_left = dout - d_right
        np.multiply(d_left, self._bottom_left, out=q[:, :, :, 1, :, 0])
        np.subtract(d_left, q[:, :, :, 1, :, 0], out=q[:, :, :, 0, :, 0])
        np.multiply(d_right, self._bottom_right, out=q[:, :, :, 1, :, 1])
        np.subtract(d_right, q[:, :, :, 1, :, 1], out=q[:, :, :, 0, :, 1])
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
        return x.repeat(2, axis=2).repeat(2, axis=3)

    def backward(self, dout):
        q = _quads(dout)
        return (q[:, :, :, 0, :, 0] + q[:, :, :, 0, :, 1]) + (
            q[:, :, :, 1, :, 0] + q[:, :, :, 1, :, 1]
        )

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
        return np.pad(
            x, ((0, 0), (0, 0), (0, self.height - h), (0, self.width - w)), mode="edge"
        )

    def backward(self, dout):
        h, w = self._in_hw
        if (h, w) == (self.height, self.width):
            return dout
        dx = dout[:, :, :h, :w].copy()
        if self.height > h:
            dx[:, :, h - 1, :] += dout[:, :, h:, :w].sum(axis=2)
        if self.width > w:
            dx[:, :, :, w - 1] += dout[:, :, :h, w:].sum(axis=3)
        if self.height > h and self.width > w:
            dx[:, :, h - 1, w - 1] += dout[:, :, h:, w:].sum(axis=(2, 3))
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
