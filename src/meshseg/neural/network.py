"""Network assemblies: plain layer stacks and the multi-branch 1D CNN.

The multi-branch net is one Sequential. Its first layer, Branches, runs
K independent convolutional stacks over K views of the same face (each
view a 1D signal) and concatenates them along channels; a small fully
connected head classifies the result. Parameters are listed in
declaration order (branch 0 .. K-1, then head), which fixes the
checkpoint layout.
"""
from __future__ import annotations

import numpy as np

from meshseg.numerics import SeededRng
from meshseg.neural.layers import (
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LeakyReLU,
    MaxPool1D,
)

LEAKY_SLOPE = 0.2


class Sequential(Layer):
    def __init__(self, layers: list):
        self.layers = list(layers)

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad, input_grad=True):
        """Backpropagate through every layer. With `input_grad` False the
        first layer (a Conv1D, Dense or Branches) skips its input gradient
        and None is returned."""
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        if input_grad:
            return first.backward(grad)
        return first.backward(grad, input_grad=False)


class Branches(Layer):
    """K layer stacks side by side: stack k reads view k of a (batch, K,
    length, channels) input, and their outputs join along channels."""

    def __init__(self, branches: list):
        self.branches = list(branches)
        self._cuts = None

    def parameters(self):
        return [p for branch in self.branches for p in branch.parameters()]

    def forward(self, x, training=False):
        k = len(self.branches)
        if x.ndim != 4 or x.shape[1] != k:
            raise ValueError(f"expected (batch, {k}, length, channels), got {x.shape}")
        outs = [branch.forward(x[:, i], training=training)
                for i, branch in enumerate(self.branches)]
        self._cuts = np.cumsum([o.shape[2] for o in outs])[:-1]
        return np.concatenate(outs, axis=2)

    def backward(self, grad, input_grad=True):
        """Backpropagate each branch's share of the channels; return the
        gradient with respect to the input, or None without computing it
        when `input_grad` is False."""
        cuts = self._need_cache(self._cuts, "Branches")
        grads = [branch.backward(g, input_grad=input_grad)
                 for branch, g in zip(self.branches, np.split(grad, cuts, axis=2))]
        return np.stack(grads, axis=1) if input_grad else None


def _branch(rng: np.random.Generator, tag: str) -> Sequential:
    return Sequential([
        Conv1D(15, 1, 16, rng, name=f"{tag}.conv1"),
        BatchNorm(16, name=f"{tag}.bn1"),
        LeakyReLU(LEAKY_SLOPE),
        MaxPool1D(),
        Conv1D(11, 16, 32, rng, name=f"{tag}.conv2"),
        BatchNorm(32, name=f"{tag}.bn2"),
        LeakyReLU(LEAKY_SLOPE),
        MaxPool1D(),
    ])


def branch_output_shape(input_length: int) -> tuple[int, int]:
    """(length, channels) leaving one branch: two halvings, 32 channels."""
    return (input_length // 2 // 2, 32)


def build_multibranch(n_branches: int, input_length: int, n_classes: int,
                      seed: int) -> Sequential:
    """Seeded construction of the K-branch classifier.

    Branch: conv(15->16), batch norm, leaky ReLU, pool 2, conv(11->32),
    batch norm, leaky ReLU, pool 2. Head: flatten (channel-major),
    dense 172, leaky ReLU, dropout 0.5, dense n_classes.
    """
    if input_length // 4 < 1:
        raise ValueError(f"input length {input_length} too short for two poolings")
    rng_root = SeededRng(seed)
    branches = [_branch(rng_root.stream(f"branch{k}"), f"b{k}")
                for k in range(n_branches)]
    out_len, out_ch = branch_output_shape(input_length)
    flat = out_len * out_ch * n_branches
    head_rng = rng_root.stream("head")
    classifier = Dense(172, n_classes, head_rng, name="head.fc2")
    # damp the initial logits so a fresh net predicts near-uniform classes
    classifier.weight.value *= 0.01
    return Sequential([
        Branches(branches),
        Flatten(),
        Dense(flat, 172, head_rng, name="head.fc1"),
        LeakyReLU(LEAKY_SLOPE),
        Dropout(0.5, rng=rng_root.stream("dropout")),
        classifier,
    ])
