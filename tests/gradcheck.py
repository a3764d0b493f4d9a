"""Central finite-difference verification of every backward pass.

Layer checks drive each layer with a fixed random linear functional of
its output, so the exact upstream gradient is known; the assembled
network is checked against the real cross-entropy loss. Layer inputs are
engineered to stay away from the kinks of leaky ReLU and max pooling
(offsets larger than the finite-difference step), making those checks
deterministic under their frozen seeds.

Inside the assembled network the pre-activation margins cannot be
controlled, so a perturbation occasionally crosses a pooling argmax tie
or a rectifier kink and the difference quotient no longer estimates the
one-sided derivative. Those coordinates are detected by disagreement
between consecutive step sizes and skipped (the quotient is the unreliable
party, not the backward pass); skips are counted and must stay a small
minority for a check to pass.

Finite differences at these step sizes need float64, while the program's
layers hold float32 parameters. Layers follow the dtype of their
parameters and input, so every layer and network checked here has its
parameters cast to float64 (`float64_params`) and is fed float64 inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from meshseg.numerics import SeededRng
from meshseg.neural.layers import (
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MaxPool1D,
    Sigmoid,
    softmax_cross_entropy,
)
from meshseg.neural.network import build_multibranch

H_SCALE = 1e-5
REL_FLOOR = 1e-3
LAYER_TOL = 1e-5
NETWORK_TOL = 1e-4


@dataclass(frozen=True)
class CheckEntry:
    target: str
    max_rel_error: float
    coords_checked: int
    tolerance: float
    coords_skipped: int = 0

    @property
    def passed(self) -> bool:
        usable = self.coords_checked > 0 and \
            self.coords_skipped < self.coords_checked
        return usable and self.max_rel_error <= self.tolerance


def float64_params(layer):
    """Cast the value, gradient and momentum buffer of every Param of a
    layer or network to float64, in place; returns the layer."""
    for p in layer.parameters():
        p.value = p.value.astype(np.float64)
        p.grad = p.grad.astype(np.float64)
        p.velocity = p.velocity.astype(np.float64)
    return layer


class FixedDraw:
    """Stands in for Dropout's generator to pin its mask: random(shape)
    returns a copy of one uniform draw, so every forward pass builds the
    same mask, whatever a layer does with the array it gets."""

    def __init__(self, draw: np.ndarray):
        self.draw = draw

    def random(self, shape) -> np.ndarray:
        assert tuple(shape) == self.draw.shape
        return self.draw.copy()


def _rel(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_FLOOR)


def _numeric_grad(loss_fn, arr: np.ndarray, flat_idx: int,
                  h_scale: float = H_SCALE) -> float:
    orig = arr.flat[flat_idx]
    h = h_scale * max(1.0, abs(orig))
    arr.flat[flat_idx] = orig + h
    up = loss_fn()
    arr.flat[flat_idx] = orig - h
    down = loss_fn()
    arr.flat[flat_idx] = orig
    return (up - down) / (2.0 * h)


def _stable_numeric_grad(loss_fn, arr: np.ndarray, flat_idx: int):
    """Difference quotient at shrinking steps; (estimate, reliable flag).

    Pooling and rectifier kinks make the quotient step-dependent. The
    quotient is taken at H_SCALE and H_SCALE/16; when that pair agrees it
    flags a clean interval and the finer quotient is returned. Only when
    the pair disagrees is the finer step H_SCALE/256 taken and compared
    with H_SCALE/16. Persistent disagreement means the kink sits closer
    than the smallest step: the finest quotient is returned flagged
    unreliable, and the coordinate cannot be checked numerically.
    """
    coarse = _numeric_grad(loss_fn, arr, flat_idx, H_SCALE)
    for scale in (H_SCALE / 16.0, H_SCALE / 256.0):
        fine = _numeric_grad(loss_fn, arr, flat_idx, scale)
        if _rel(coarse, fine) <= 3e-5:
            return fine, True
        coarse = fine
    return fine, False


def _sample_coords(rng, size: int, cap: int) -> np.ndarray:
    if size <= cap:
        return np.arange(size)
    return rng.choice(size, size=cap, replace=False)


def _check_tensors(loss_fn, pairs, analytic, rng, cap: int, tol: float,
                   stable: bool = False) -> list:
    """pairs: list of (target name, array); analytic: matching gradients."""
    entries = []
    for (name, arr), grad in zip(pairs, analytic):
        worst = 0.0
        used = skipped = 0
        coords = _sample_coords(rng, arr.size, cap)
        for idx in coords:
            if stable:
                numeric, ok = _stable_numeric_grad(loss_fn, arr, idx)
                if not ok:
                    skipped += 1
                    continue
            else:
                numeric = _numeric_grad(loss_fn, arr, idx)
            used += 1
            worst = max(worst, _rel(grad.flat[idx], numeric))
        entries.append(CheckEntry(name, worst, used, tol, skipped))
    return entries


def _merge_worst(table: dict, entry: CheckEntry) -> None:
    old = table.get(entry.target)
    if old is None:
        table[entry.target] = entry
        return
    table[entry.target] = CheckEntry(
        entry.target, max(old.max_rel_error, entry.max_rel_error),
        old.coords_checked + entry.coords_checked, entry.tolerance,
        old.coords_skipped + entry.coords_skipped)


def _away_from_zero(rng, shape, low=0.25, high=1.0):
    return rng.uniform(low, high, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _pool_safe(rng, shape):
    """Values whose within-pair gaps exceed the finite-difference step."""
    x = _away_from_zero(rng, shape)
    b, length, c = shape
    half = length // 2
    pairs = x[:, :2 * half].reshape(b, half, 2, c)
    gap = pairs[:, :, 0, :] - pairs[:, :, 1, :]
    bump = np.where(np.abs(gap) < 1e-3, np.sign(gap + 0.5) * 2e-3, 0.0)
    pairs[:, :, 0, :] += bump
    return x


def _layer_case(kind: str, rng):
    """Instantiate one seeded configuration of the given layer type.

    Returns (layer, input array, training flag).
    """
    b = int(rng.integers(2, 5))
    length = int(rng.integers(4, 17))
    c = int(rng.integers(1, 5))
    if kind == "conv1d":
        cout = int(rng.integers(1, 5))
        kernel = int(rng.choice([1, 3, 5, 7]))
        layer = Conv1D(kernel, c, cout, rng)
        return layer, _away_from_zero(rng, (b, length, c)), False
    if kind == "batchnorm":
        layer = float64_params(BatchNorm(c))
        layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=c)
        layer.beta.value[...] = rng.uniform(-0.5, 0.5, size=c)
        return layer, rng.normal(size=(b, length, c)), True
    if kind == "leaky_relu":
        return LeakyReLU(0.2), _away_from_zero(rng, (b, length, c)), False
    if kind == "maxpool":
        return MaxPool1D(), _pool_safe(rng, (b, length, c)), False
    if kind == "dense":
        d_in, d_out = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        return Dense(d_in, d_out, rng), rng.normal(size=(b, d_in)), False
    if kind == "dropout":
        shape = (b, length, c)
        layer = Dropout(0.5, rng=FixedDraw(rng.random(shape)))
        return layer, rng.normal(size=shape), True
    if kind == "flatten":
        return Flatten(), rng.normal(size=(b, length, c)), False
    if kind == "sigmoid":
        return Sigmoid(), rng.normal(size=(b, length, c)), False
    raise KeyError(kind)


LAYER_KINDS = ("conv1d", "batchnorm", "leaky_relu", "maxpool", "dense",
               "dropout", "flatten", "sigmoid")


def check_layer(kind: str, seed: int, cases: int = 20, coord_cap: int = 40) -> list:
    """Run the finite-difference suite for one layer type; one entry per
    checked tensor (worst case over the seeded shapes)."""
    root = SeededRng(seed)
    worst: dict[str, CheckEntry] = {}
    for case in range(cases):
        rng = root.stream(f"{kind}/{case}")
        layer, x, training = _layer_case(kind, rng)
        for entry in check_layer_case(kind, layer, x, training, rng, coord_cap):
            _merge_worst(worst, entry)
    return list(worst.values())


def check_layer_case(kind: str, layer, x: np.ndarray, training: bool, rng,
                     coord_cap: int = 40) -> list:
    """Finite-difference check of one layer on one input, driven by a
    random linear functional of its output; one entry per tensor. The
    layer's parameters are cast to float64 first."""
    float64_params(layer)
    upstream_shape = layer.forward(x, training=training).shape
    proj = rng.normal(size=upstream_shape)

    def loss_fn():
        return float(np.sum(layer.forward(x, training=training) * proj))

    for p in layer.parameters():
        p.grad[...] = 0.0
    layer.forward(x, training=training)
    gx = layer.backward(proj)
    pairs = [(f"{kind}/input", x)] + [
        (f"{kind}/{p.name.split('.')[-1]}", p.value) for p in layer.parameters()]
    analytic = [gx] + [p.grad for p in layer.parameters()]
    return _check_tensors(loss_fn, pairs, analytic, rng, coord_cap, LAYER_TOL)


def check_network(seed: int, cases: int = 3, coord_cap: int = 16) -> list:
    """Finite-difference check of the assembled 2-branch network under the
    cross-entropy loss, in training mode with a pinned dropout mask."""
    root = SeededRng(seed)
    entries: dict[str, CheckEntry] = {}
    for case in range(cases):
        rng = root.stream(f"net/{case}")
        net = float64_params(
            build_multibranch(2, 32, 3, root.derive_seed(f"net-init/{case}")))
        b = 4
        x = _away_from_zero(rng, (b, 2, 32, 1))
        labels = rng.integers(0, 3, size=b)
        for drop in (l for l in net.layers if isinstance(l, Dropout)):
            drop.rng = FixedDraw(rng.random((b, 172)))

        def loss_fn():
            logits = net.forward(x, training=True)
            loss, _, _ = softmax_cross_entropy(logits, labels)
            return loss

        params = net.parameters()
        for p in params:
            p.grad[...] = 0.0
        logits = net.forward(x, training=True)
        _, grad, _ = softmax_cross_entropy(logits, labels)
        gx = net.backward(grad)
        pairs = [("network/input", x)] + [(f"network/{p.name}", p.value)
                                          for p in params]
        analytic = [gx] + [p.grad for p in params]
        for entry in _check_tensors(loss_fn, pairs, analytic, rng, coord_cap,
                                    NETWORK_TOL, stable=True):
            _merge_worst(entries, entry)
    return list(entries.values())
