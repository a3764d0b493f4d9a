"""Mini-batch SGD with momentum and a geometric learning-rate decay.

The loss curve's entry 0 is the pre-update loss over the full set (for a
fresh classifier this sits near log(n_classes)); entry e >= 1 is the mean
batch loss of epoch e. All passes run in training mode so batch-stat
layers see batch statistics; entry 0 simply skips the optimizer step.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from meshseg.numerics import SeededRng
from meshseg.neural.layers import mean_squared_error, softmax_cross_entropy

# evaluation runs in batches of PREDICT_BATCH rows, each padded to a
# multiple of ROW_BLOCK rows. Every layer caches its input, so a pass
# holds arrays of the batch's size: at the training batch, 256 rows,
# prediction needs no more memory than training does (1024 rows set the
# peak RSS of a run whose features are computed in bounded batches). A
# row's logits do not depend on the batch it sits in.
PREDICT_BATCH = 256
ROW_BLOCK = 64


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr_start: float = 1e-2
    lr_end: float = 1e-4
    momentum: float = 0.9
    batch_size: int = 256

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        # batch-stat layers need >= 2 samples per batch
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be at least 2, got {self.batch_size}")
        for name in ("lr_start", "lr_end"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {lr}")
        if not (math.isfinite(self.momentum) and 0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    def learning_rate(self, epoch: int) -> float:
        """Geometric interpolation: epoch 0 gets lr_start, the final epoch
        lr_end."""
        if not 0 <= epoch < self.epochs:
            raise ValueError(f"epoch {epoch} outside schedule of {self.epochs}")
        if self.epochs == 1:
            return self.lr_start
        frac = epoch / (self.epochs - 1)
        return float(self.lr_start * (self.lr_end / self.lr_start) ** frac)


def sgd_step(params, lr: float, momentum: float) -> None:
    """velocity <- momentum * velocity - lr * grad; value += velocity.
    Gradients are zeroed after the step."""
    for p in params:
        p.velocity *= momentum
        p.velocity -= lr * p.grad
        p.value += p.velocity
        p.grad[...] = 0.0


def _batch_starts(n: int, batch_size: int) -> list:
    # fold a trailing singleton into the previous batch: batch-stat layers
    # need >= 2 samples
    starts = list(range(0, n, batch_size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return starts


def _epoch(model, x, pick_target, n, cfg, loss_fn, order, lr, params, tag):
    total = 0.0
    starts = _batch_starts(n, cfg.batch_size)
    for bi, lo in enumerate(starts):
        hi = n if lo == starts[-1] else lo + cfg.batch_size
        idx = order[lo:hi]
        out = model.forward(x[idx], training=True)
        loss, grad = loss_fn(out, pick_target(idx))
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at {tag}, batch {bi + 1}")
        if lr is not None:
            # training reads parameter gradients only, never the input's
            model.backward(grad, input_grad=False)
            sgd_step(params, lr, cfg.momentum)
        total += loss * (hi - lo)
    return total / n


def _fit(model, x, pick_target, cfg: TrainConfig, seed: int, loss_fn) -> list:
    n = len(x)
    if n == 0:
        raise ValueError("empty training set")
    params = model.parameters()
    # every fit starts at rest, whatever an earlier fit left in the buffers
    for p in params:
        p.velocity[...] = 0.0
    order_rng = SeededRng(seed).stream("batch-order")
    identity = np.arange(n)
    curve = [_epoch(model, x, pick_target, n, cfg, loss_fn,
                    identity, None, params, "initial loss")]
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(n)
        curve.append(_epoch(model, x, pick_target, n, cfg, loss_fn, order,
                            cfg.learning_rate(epoch), params,
                            f"epoch {epoch + 1}"))
    return curve


def train_classifier(model, x: np.ndarray, labels: np.ndarray,
                     cfg: TrainConfig, seed: int = 0,
                     n_classes: int | None = None) -> list:
    """Cross-entropy training in place; returns the loss curve. `seed`
    picks the batch order.

    Raises FloatingPointError with epoch/batch context if the loss goes
    non-finite, and warns when some class in [0, n_classes) never appears
    in the training labels.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(x) != len(labels):
        raise ValueError("sample and label counts differ")
    if n_classes is not None and len(labels):
        present = np.bincount(labels, minlength=n_classes) > 0
        if not present.all():
            missing = np.nonzero(~present)[0].tolist()
            warnings.warn(f"training data has no samples for classes {missing}",
                          stacklevel=2)

    def loss_fn(logits, target):
        loss, grad, _ = softmax_cross_entropy(logits, target)
        return loss, grad

    return _fit(model, x, lambda idx: labels[idx], cfg, seed, loss_fn)


def train_reconstruction(model, x: np.ndarray, cfg: TrainConfig,
                         seed: int = 0) -> list:
    """Train a model to reproduce its input under mean squared error."""
    return _fit(model, x, lambda idx: x[idx], cfg, seed, mean_squared_error)


def predict_probabilities(model, x: np.ndarray) -> np.ndarray:
    """Evaluation-mode class probabilities, one float64 row per sample:
    the softmax is taken in float64 from the network's logits.

    Each batch is zero-padded to a multiple of ROW_BLOCK rows and the
    padding sliced off again. A BLAS matmul may take a different
    summation path for the rows of a ragged tail block, so without the
    padding a row's logits could depend on where it sits in the batch.
    """
    out = []
    for lo in range(0, len(x), PREDICT_BATCH):
        chunk = x[lo:lo + PREDICT_BATCH]
        rows = len(chunk)
        short = -rows % ROW_BLOCK
        if short:
            chunk = np.pad(chunk, [(0, short)] + [(0, 0)] * (chunk.ndim - 1))
        logits = model.forward(chunk, training=False)[:rows].astype(np.float64)
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        out.append(e / e.sum(axis=1, keepdims=True))
    return np.concatenate(out, axis=0)
