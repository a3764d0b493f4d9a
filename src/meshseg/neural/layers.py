"""From-scratch differentiable layers over float32 numpy arrays.

Every Param holds DTYPE (float32), and every buffer a layer allocates
takes the dtype of its input or parameter, so a float32 input keeps a
whole network in float32: half the bytes per element of float64, which
roughly halves the per-element cost of a training step. Layers built with
float64 parameters and fed float64 inputs run in float64 throughout (the
finite-difference check in the tests does that). The loss value is
reduced in float64 and predict_probabilities takes its softmax in float64.

Conventions: sequence tensors are (batch, length, channels); flat tensors
are (batch, features). Every layer caches what its backward pass needs
during forward; backward before forward is an error. Gradients accumulate
into Param.grad and are zeroed by the optimizer step.

The layers a training step runs most often avoid `np.where` and fresh
temporaries: a select on a float array costs several times a multiply,
and every extra array of the batch's size is new memory to fault in.
LeakyReLU is a `np.maximum` forward and a multiply by a factor built from
its mask; MaxPool1D picks with `np.maximum` and routes with multiplies by
its mask, with results bit-identical to the select forms. Training also
asks Conv1D and Dense for parameter gradients only
(`backward(grad, input_grad=False)`) where the input gradient would be
discarded.

BatchNorm sums per channel in two stages, over the batch and then over
the positions, rather than over both axes at once, whose inner loop runs
one channel row (16 or 32 values) at a time. Backward takes its two
reductions from the parameter gradients' sums, and every per-channel
vector is tiled along the length. Its results differ from the
term-by-term form in the last bits (within 1e-13 of the largest
magnitude; `tests/oracles.py` keeps that form).

Conv1D is one matmul against its banded (Toeplitz) weight rather than the
general im2col form (Chellapilla et al. 2006), which `tests/oracles.py`
keeps as a reference. The network's branches convolve signals of 9 and 4
positions with kernels of 15 and 11 taps, so every output sees (nearly)
the whole input: the band is (nearly) dense, and one matmul of the
flattened signal replaces im2col's padded copy, unfolded copy and col2im
loop. The band holds length²·cin·cout entries, so this suits only
signals about as short as the kernel (see Conv1D).
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

# the dtype of every parameter and of the rows the models feed in
DTYPE = np.float32


class Param:
    """A learnable tensor with its gradient and momentum buffer, all
    DTYPE. Initial values are drawn in float64 and then cast, so the
    random streams do not depend on DTYPE."""

    __slots__ = ("name", "value", "grad", "velocity")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.array(value, dtype=DTYPE)
        self.grad = np.zeros_like(self.value)
        self.velocity = np.zeros_like(self.value)


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    def parameters(self) -> list:
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _need_cache(self, cache, who: str):
        if cache is None:
            raise RuntimeError(f"{who}.backward called before forward")
        return cache


class Conv1D(Layer):
    """Same-padded 1D convolution without bias; kernel size must be odd.

    Weights are (kernel, in_channels, out_channels); output length equals
    input length, as if the signal were zero-padded by kernel//2 at each
    end. Each conv in this package feeds a BatchNorm, which subtracts the
    batch mean, so a bias would only collect rounding noise.

    Every forward call builds, from the current weight, the banded weight
    W[s, :, t, :] = weight[s − t + kernel//2], zero off the band, a
    (length·cin, length·cout) matrix, and convolves as one matmul of the
    flattened (batch, length·cin) input against it. The input gradient is
    one matmul against W.T, and the weight gradient is x.T @ grad with
    each diagonal of blocks summed onto its tap. Taps that never reach a
    real sample are not in W, so their gradients are exactly 0. Building
    W on every call means a weight changed in place is always seen.

    This form suits only short signals: the band grows as
    length²·cin·cout, and it is (nearly) dense only up to about the
    kernel's length. The program convolves lengths 9 and 4 (32 and 16 in
    the gradient check); a longer per-face descriptor must measure the
    band's memory and multiplies before it reuses this layer.
    """

    def __init__(self, kernel: int, in_channels: int, out_channels: int,
                 rng: np.random.Generator, name: str = "conv"):
        if kernel % 2 != 1:
            raise ValueError("kernel size must be odd for same padding")
        self.kernel = kernel
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Param(f"{name}.weight", fan_in_uniform(
            rng, (kernel, in_channels, out_channels), kernel * in_channels))
        self._cache = None

    def parameters(self):
        return [self.weight]

    def _band(self, length: int) -> np.ndarray:
        """The (length·cin, length·cout) banded weight for signals of
        `length`, built from the current weight."""
        w = self.weight.value
        k, cin, cout = w.shape
        # band[s, :, t, :] = weight[s - t + k//2] = v[s - t + length - 1]:
        # v is the weight with zeros around it, cut to the taps a band
        # entry can reach
        v = np.zeros((2 * length - 1, cin, cout), dtype=w.dtype)
        first = length - 1 - k // 2  # where tap 0 lands in v
        lo, hi = max(0, -first), min(k, len(v) - first)
        v[first + lo:first + hi] = w[lo:hi]
        s_tap, s_in, s_out = v.strides
        band = as_strided(v[length - 1:], (length, cin, length, cout),
                          (s_tap, s_in, -s_tap, s_out), writeable=False)
        return band.reshape(length * cin, length * cout)  # the one copy

    def forward(self, x, training=False):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"expected (batch, length, {self.in_channels}) input, got {x.shape}")
        b, length, _ = x.shape
        band = self._band(length)
        xf = x.reshape(b, length * self.in_channels)
        self._cache = (xf, band)
        return (xf @ band).reshape(b, length, self.out_channels)

    def backward(self, grad, input_grad=True):
        """Accumulate the weight gradient; return the input gradient, or
        None without computing it when `input_grad` is False."""
        xf, band = self._need_cache(self._cache, "Conv1D")
        k, cin, cout = self.kernel, self.in_channels, self.out_channels
        b, length, _ = grad.shape
        gf = grad.reshape(b, length * cout)
        # the band's gradient, in a buffer with kernel - 1 row blocks more
        # than the signal has positions, placed so that row block q,
        # column block t holds tap q - t; the blocks no band entry
        # reaches are 0. Only those are zeroed: zeroing all of it would
        # write the rows the matmul writes next once more
        half = k // 2
        gband = np.empty(((length + k - 1) * cin, length * cout), dtype=xf.dtype)
        gband[:half * cin] = 0.0
        gband[(half + length) * cin:] = 0.0
        np.matmul(xf.T, gf, out=gband[half * cin:(half + length) * cin])
        # each tap's gradient is the sum of its diagonal of blocks
        s_row, s_col = gband.strides
        diagonals = as_strided(gband, (k, cin, length, cout),
                               (cin * s_row, s_row, cin * s_row + cout * s_col, s_col),
                               writeable=False)
        self.weight.grad += np.einsum("jcto->jco", diagonals)
        if not input_grad:
            return None
        return (gf @ band.T).reshape(b, length, cin)


def _channel_sums(rows: np.ndarray, channels: int, other=None) -> np.ndarray:
    """Per-channel sums of (batch, length·channels) rows, or of their
    products with `other`'s: over the batch first, then over the
    positions. The batch stage runs its inner loop along whole rows,
    where one sum over (batch, length) would run it along one channel row
    at a time, and it sums products without storing them. It uses no BLAS,
    so its bits do not depend on the BLAS thread count."""
    if other is None:
        per_column = rows.sum(axis=0)
    else:
        per_column = np.einsum("ij,ij->j", rows, other)
    return per_column.reshape(-1, channels).sum(axis=0)


def _tiled(v: np.ndarray, length: int) -> np.ndarray:
    """A per-channel vector repeated for each of `length` positions; one
    broadcast copy, where `np.tile`'s Python-level set-up costs more than
    the copy at these sizes."""
    out = np.empty((length, len(v)), dtype=v.dtype)
    out[...] = v
    return out.reshape(-1)


class BatchNorm(Layer):
    """Per-channel standardization over all non-channel axes.

    Training uses batch statistics and folds them into running stats
    (retention factor `momentum`; the first batch initializes them).
    Evaluation uses the running stats and fails loudly if none exist yet.

    Both passes work on the input as (batch, length·channels) rows, with
    every per-channel vector tiled along the length, so each broadcast
    runs its inner loop over a whole row. The cache keeps the deviations
    from the mean rather than the standardized input: forward then scales
    by γ/σ in one pass instead of two.
    """

    eps = 1e-5
    momentum = 0.9

    def __init__(self, channels: int, name: str = "bn"):
        self.channels = channels
        self.gamma = Param(f"{name}.gamma", np.ones(channels))
        self.beta = Param(f"{name}.beta", np.zeros(channels))
        self.running_mean = None
        self.running_var = None
        self._cache = None

    def parameters(self):
        return [self.gamma, self.beta]

    def forward(self, x, training=False):
        c = self.channels
        if x.shape[-1] != c:
            raise ValueError(f"expected {c} channels, got {x.shape[-1]}")
        rows = x.reshape(len(x), -1)
        length = rows.shape[1] // c
        if training:
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs batch size >= 2 in training")
            n = rows.size // c
            mean = _channel_sums(rows, c) / n
            dev = rows - _tiled(mean, length)
            var = _channel_sums(dev, c, dev) / n
            if self.running_mean is None:
                self.running_mean = mean.copy()
                self.running_var = var.copy()
            else:
                m = self.momentum
                self.running_mean = m * self.running_mean + (1.0 - m) * mean
                self.running_var = m * self.running_var + (1.0 - m) * var
        else:
            if self.running_mean is None:
                raise RuntimeError("batch norm evaluated before any training batch")
            dev = rows - _tiled(self.running_mean, length)
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        self._cache = (dev, inv_std, training)
        out = dev * _tiled(self.gamma.value * inv_std, length)
        out += _tiled(self.beta.value, length)
        return out.reshape(x.shape)

    def backward(self, grad):
        dev, inv_std, training = self._need_cache(self._cache, "BatchNorm")
        c = self.channels
        length = dev.shape[1] // c
        g = grad.reshape(dev.shape)
        sum_gxhat = _channel_sums(g, c, dev) * inv_std  # Σ g·x̂
        sum_g = _channel_sums(g, c)
        self.gamma.grad += sum_gxhat
        self.beta.grad += sum_g
        scale = _tiled(self.gamma.value * inv_std, length)
        if not training:
            return (g * scale).reshape(grad.shape)
        # γσ⁻¹·(g − Σg/n − x̂·Σ(g·x̂)/n), with x̂ = dev·σ⁻¹, built in the
        # output's buffer: a temporary would be fresh memory to fault in
        n = dev.size // c
        out = np.multiply(dev, _tiled(sum_gxhat * inv_std / n, length))
        np.subtract(g, out, out=out)
        out -= _tiled(sum_g / n, length)
        out *= scale
        return out.reshape(grad.shape)


class LeakyReLU(Layer):
    """max(x, slope·x), which is x for x > 0 and slope·x otherwise when
    0 < slope < 1; outside that range the max would pick the wrong arm."""

    def __init__(self, slope: float = 0.2):
        if not 0.0 < slope < 1.0:
            raise ValueError(f"leaky ReLU slope must be in (0, 1), got {slope}")
        self.slope = slope
        self._mask = None

    def forward(self, x, training=False):
        self._mask = x > 0.0
        y = self.slope * x
        return np.maximum(x, y, out=y)

    def backward(self, grad):
        mask = self._need_cache(self._mask, "LeakyReLU")
        # factor = slope + mask·(1 − slope): exactly slope where the mask is
        # off, and exactly 1 where it is on, because fl(slope + fl(1 − slope))
        # is 1 for every slope in (0, 1)
        factor = mask.astype(grad.dtype)
        factor *= 1.0 - self.slope
        factor += self.slope
        factor *= grad
        return factor


class MaxPool1D(Layer):
    """Width-2 max pooling along the length axis; odd tails are dropped.

    Each pair follows `argmax`'s rules: on a tie the first element wins
    (and gets the gradient), and a NaN in either slot wins over a number,
    the first slot when both are NaN, so a NaN always reaches the output.
    """

    def __init__(self):
        self._cache = None

    def forward(self, x, training=False):
        b, length, c = x.shape
        half = length // 2
        if half == 0:
            raise ValueError("sequence too short to pool")
        pairs = x[:, :2 * half].reshape(b, half, 2, c)
        first, second = pairs[:, :, 0, :], pairs[:, :, 1, :]
        # np.maximum returns its second argument on a tie (±0 included)
        # and NaN when either slot is NaN
        out = np.maximum(second, first)
        # so the output differs from `first` where the second slot wins,
        # and where the first is NaN, which must win: hence the guard
        take_second = out != first
        take_second &= first == first
        self._cache = (take_second, x.shape)
        return out

    def backward(self, grad):
        """Route each pair's gradient to the slot that won. The losing slot
        gets grad·0, which is −0.0 for a negative gradient and NaN for an
        infinite or NaN one. Where a select would write +0.0 instead, the
        sign of a zero cannot change a nonzero sum, and parameter gradients
        accumulate onto +0.0, so no parameter moves."""
        take_second, shape = self._need_cache(self._cache, "MaxPool1D")
        b, length, c = shape
        half = length // 2
        gx = np.empty(shape, dtype=grad.dtype)
        gx[:, 2 * half:] = 0.0
        gpairs = gx[:, :2 * half].reshape(b, half, 2, c)
        np.multiply(grad, ~take_second, out=gpairs[:, :, 0, :])
        np.multiply(grad, take_second, out=gpairs[:, :, 1, :])
        return gx


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, name: str = "fc"):
        self.in_features = in_features
        self.weight = Param(f"{name}.weight",
                            fan_in_uniform(rng, (in_features, out_features), in_features))
        self.bias = Param(f"{name}.bias", np.zeros(out_features))
        self._x = None

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected (batch, {self.in_features}) input, got {x.shape}")
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad, input_grad=True):
        """Accumulate the parameter gradients; return the input gradient,
        or None without computing it when `input_grad` is False."""
        x = self._need_cache(self._x, "Dense")
        self.weight.grad += x.T @ grad
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T if input_grad else None


class Dropout(Layer):
    """Inverted dropout: training scales kept units by 1/keep so that
    evaluation is the identity.

    The uniform draw is float64 whatever the input's dtype, so the random
    stream does not depend on it. The compare writes 1.0 or 0.0 straight
    into a mask of the input's dtype, and one in-place pass scales it to
    1/keep or 0.0. That is the mask (draw < keep) / keep without the bool
    array as a temporary of the batch's size.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng
        self._mask = None

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._mask = np.ones((), dtype=x.dtype)
            return x
        keep = 1.0 - self.rate
        mask = np.less(self.rng.random(x.shape), keep,
                       out=np.empty(x.shape, dtype=x.dtype))
        mask *= 1.0 / keep
        self._mask = mask
        return x * self._mask

    def backward(self, grad):
        mask = self._need_cache(self._mask, "Dropout")
        return grad * mask


class Flatten(Layer):
    """(batch, length, channels) -> (batch, channels * length), channel-major:
    the flat index runs over channels first, positions within a channel
    second. The order is part of the checkpoint contract."""

    def __init__(self):
        self._shape = None

    def forward(self, x, training=False):
        if x.ndim != 3:
            raise ValueError(f"expected a 3D tensor, got shape {x.shape}")
        self._shape = x.shape
        b, length, c = x.shape
        return x.transpose(0, 2, 1).reshape(b, c * length)

    def backward(self, grad):
        b, length, c = self._need_cache(self._shape, "Flatten")
        return grad.reshape(b, c, length).transpose(0, 2, 1)


class Sigmoid(Layer):
    def __init__(self):
        self._y = None

    def forward(self, x, training=False):
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, grad):
        y = self._need_cache(self._y, "Sigmoid")
        return grad * y * (1.0 - y)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of integer labels under softmax(logits).

    Returns (loss, gradient wrt logits, probabilities); the gradient is
    the fused (p - onehot) / batch form, in the logits' dtype. The loss
    is a float64 mean whatever that dtype is.
    """
    if logits.ndim != 2:
        raise ValueError("logits must be (batch, classes)")
    if len(labels) != len(logits):
        raise ValueError("labels length does not match batch")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(len(labels)), labels], dtype=np.float64))
    p = np.exp(z - lse[:, None])
    grad = p.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    grad /= len(labels)
    return loss, grad, p


def mean_squared_error(pred: np.ndarray, target: np.ndarray):
    """Mean over all elements, reduced in float64; returns (loss,
    gradient wrt pred), the gradient in pred's dtype."""
    if pred.shape != target.shape:
        raise ValueError("shape mismatch")
    diff = pred - target
    return (float(np.mean(diff * diff, dtype=np.float64)),
            (2.0 / diff.size) * diff)
