"""Network assemblies: plain layer stacks and the multi-branch 1D CNN.

The multi-branch net runs K independent convolutional stacks over K
views of the same face (each view a 1D signal), concatenates them along
channels, and classifies with a small fully connected head. Parameters
are listed in declaration order (branch 0 .. K-1, then head), which fixes
the checkpoint layout.
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
        first layer (a Conv1D or Dense) skips its input gradient and None
        is returned."""
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        if input_grad:
            return first.backward(grad)
        return first.backward(grad, input_grad=False)


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


class MultiBranchNet:
    """K convolutional branches, depth concatenation, dense head.

    Input is (batch, K, length, 1); branch k consumes view k. forward
    returns raw logits; apply softmax (or the fused loss) outside.
    """

    def __init__(self, branches: list, head: Sequential):
        self.branches = branches
        self.head = head
        self._split = None

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def parameters(self):
        out = []
        for branch in self.branches:
            out.extend(branch.parameters())
        out.extend(self.head.parameters())
        return out

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.n_branches:
            raise ValueError(
                f"expected (batch, {self.n_branches}, length, channels), got {x.shape}")
        outs = [branch.forward(x[:, k], training=training)
                for k, branch in enumerate(self.branches)]
        self._split = [o.shape[2] for o in outs]
        merged = np.concatenate(outs, axis=2)
        return self.head.forward(merged, training=training)

    def backward(self, grad, input_grad=True):
        """Backpropagate into every parameter; return the gradient with
        respect to the network input, or None without computing it when
        `input_grad` is False."""
        if self._split is None:
            raise RuntimeError("MultiBranchNet.backward called before forward")
        gmerged = self.head.backward(grad)
        grads = []
        offset = 0
        for width, branch in zip(self._split, self.branches):
            grads.append(branch.backward(gmerged[:, :, offset:offset + width],
                                         input_grad=input_grad))
            offset += width
        return np.stack(grads, axis=1) if input_grad else None

    def dropout_layers(self):
        return [l for l in self.head.layers if isinstance(l, Dropout)]


def branch_output_shape(input_length: int) -> tuple[int, int]:
    """(length, channels) leaving one branch: two halvings, 32 channels."""
    return (input_length // 2 // 2, 32)


def build_multibranch(n_branches: int, input_length: int, n_classes: int,
                      seed: int) -> MultiBranchNet:
    """Seeded construction of the K-branch classifier.

    Branch: conv(15->16), batch norm, leaky ReLU, pool 2, conv(11->32),
    batch norm, leaky ReLU, pool 2. Head: flatten (channel-major),
    dense 172, leaky ReLU, dropout 0.5, dense n_classes.
    """
    if not 1 <= n_branches <= 4:
        raise ValueError("branch count must be in 1..4")
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
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
    head = Sequential([
        Flatten(),
        Dense(flat, 172, head_rng, name="head.fc1"),
        LeakyReLU(LEAKY_SLOPE),
        Dropout(0.5, rng=rng_root.stream("dropout")),
        classifier,
    ])
    return MultiBranchNet(branches, head)
