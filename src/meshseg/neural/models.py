"""Trainable classifiers behind one interface: the multi-branch CNN and
the two flat baselines (PCA + dense stack, stacked autoencoder).

A model is its `build_model` arguments: `spec` is the tuple (kind,
scales, input length, classes), and `build_model(*model.spec, seed)`
rebuilds the same untrained architecture, which is how a checkpoint is
loaded. fit and predict_proba take the normalized (faces, scales,
channels) multi-scale stack; the flat models read scale 0 of it.
state_slots lists the tensors to checkpoint in order (parameters plus
batch-norm running statistics and PCA bases), each as (name, owner,
attribute, shape): the array is `getattr(owner, attribute)`, and a
checkpoint holds it at that shape.

Every network runs in DTYPE (float32): the models cast their input rows to
it, while the features and the probabilities they return stay float64.
"""
from __future__ import annotations

import numpy as np

from meshseg.numerics import SeededRng, pca_fit
from meshseg.neural.layers import DTYPE, BatchNorm, Dense, LeakyReLU, Sigmoid
from meshseg.neural.network import LEAKY_SLOPE, Branches, Sequential, build_multibranch
from meshseg.neural.training import (
    TrainConfig,
    predict_probabilities,
    train_classifier,
    train_reconstruction,
)


def _sequential_slots(seq: Sequential) -> list:
    slots = []
    for layer in seq.layers:
        if isinstance(layer, Branches):
            for branch in layer.branches:
                slots.extend(_sequential_slots(branch))
            continue
        for p in layer.parameters():
            slots.append((p.name, p, "value", p.value.shape))
        if isinstance(layer, BatchNorm):
            prefix = layer.gamma.name.rsplit(".", 1)[0]
            for attr in ("running_mean", "running_var"):
                slots.append((f"{prefix}.{attr}", layer, attr, (layer.channels,)))
    return slots


def _flat_rows(x: np.ndarray, spec: tuple) -> np.ndarray:
    """Scale 0 of a (faces, scales, channels) stack, or plain (faces,
    channels) rows, checked to be as wide as the spec's input; float64."""
    _, _, width, _ = spec
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[:, 0, :]
    if x.shape[1] != width:
        raise ValueError(f"expected {width} features, got {x.shape[1]}")
    return x


class CnnModel:
    """Multi-branch 1D CNN over the K multi-scale views of each face."""

    kind = "cnn"

    def __init__(self, n_branches: int, input_length: int, n_classes: int,
                 seed: int, train_cfg: TrainConfig = TrainConfig()):
        self.spec = (self.kind, n_branches, input_length, n_classes)
        self.seed = seed
        self.train_cfg = train_cfg
        root = SeededRng(seed)
        self.net = build_multibranch(n_branches, input_length, n_classes,
                                     root.derive_seed("init"))
        self._train_seed = root.derive_seed("train")

    def _inputs(self, x: np.ndarray) -> np.ndarray:
        """The (faces, K, length) stack as K one-channel DTYPE signals per
        face."""
        _, n_branches, input_length, _ = self.spec
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 3:
            raise ValueError("expected (faces, scales, channels) multi-scale values")
        if x.shape[1] != n_branches:
            raise ValueError(
                f"model has {n_branches} branches, features have {x.shape[1]} scales")
        if x.shape[2] != input_length:
            raise ValueError(
                f"model expects signals of length {input_length}, got {x.shape[2]}")
        return x[:, :, :, None]

    def fit(self, x: np.ndarray, labels: np.ndarray) -> dict:
        """Loss curve per training stage ({"train": [...]})."""
        _, _, _, n_classes = self.spec
        return {"train": train_classifier(self.net, self._inputs(x), labels,
                                          self.train_cfg, self._train_seed, n_classes)}

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return predict_probabilities(self.net, self._inputs(x))

    def state_slots(self) -> list:
        return _sequential_slots(self.net)


class PcaNnModel:
    """PCA projection followed by a small dense stack.

    Keeps min(50, d) components; hidden widths scale as (p, p/2, p/4),
    giving the classic (50, 25, 12) at 50 components.
    """

    kind = "pca-nn"

    def __init__(self, input_dim: int, n_classes: int, seed: int,
                 train_cfg: TrainConfig = TrainConfig()):
        self.spec = (self.kind, 1, input_dim, n_classes)
        self.seed = seed
        self.train_cfg = train_cfg
        self.components = min(50, input_dim)
        p = self.components
        widths = (p, max(1, p // 2), max(1, p // 4))
        root = SeededRng(seed)
        rng = root.stream("init")
        layers = []
        prev = p
        for i, w in enumerate(widths):
            layers += [Dense(prev, w, rng, name=f"fc{i + 1}"), LeakyReLU(LEAKY_SLOPE)]
            prev = w
        out = Dense(prev, n_classes, rng, name="out")
        out.weight.value *= 0.01  # near-uniform initial predictions
        layers.append(out)
        self.net = Sequential(layers)
        self._train_seed = root.derive_seed("train")
        self.pca_mean = np.zeros(input_dim, dtype=DTYPE)
        self.pca_basis = np.zeros((input_dim, p), dtype=DTYPE)

    def _project(self, x: np.ndarray) -> np.ndarray:
        return (x.astype(DTYPE) - self.pca_mean) @ self.pca_basis

    def fit(self, x: np.ndarray, labels: np.ndarray) -> dict:
        """Loss curve per training stage ({"train": [...]}). PCA is fitted
        in float64 and kept in DTYPE, as a checkpoint stores it."""
        x = _flat_rows(x, self.spec)
        _, _, _, n_classes = self.spec
        mean, basis, _ = pca_fit(x, self.components)
        self.pca_mean, self.pca_basis = mean.astype(DTYPE), basis.astype(DTYPE)
        return {"train": train_classifier(self.net, self._project(x), labels,
                                          self.train_cfg, self._train_seed, n_classes)}

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return predict_probabilities(self.net, self._project(_flat_rows(x, self.spec)))

    def state_slots(self) -> list:
        _, _, input_dim, _ = self.spec
        return ([("pca.mean", self, "pca_mean", (input_dim,)),
                 ("pca.basis", self, "pca_basis", (input_dim, self.components))]
                + _sequential_slots(self.net))


class StackedAeModel:
    """Two sigmoid autoencoders trained greedily on reconstruction, then
    their encoders stacked under a softmax head and fine-tuned end to end.

    Decoders use a linear output layer (the features are z-scored and
    unbounded, which a sigmoid output could not reproduce) and are
    discarded after pretraining.
    """

    kind = "ae-nn"

    def __init__(self, input_dim: int, n_classes: int, seed: int,
                 train_cfg: TrainConfig = TrainConfig()):
        self.spec = (self.kind, 1, input_dim, n_classes)
        self.seed = seed
        self.train_cfg = train_cfg
        d = input_dim
        self.h1 = max(2, d // 2)
        self.h2 = max(1, d // 4)
        root = SeededRng(seed)
        rng = root.stream("init")
        self.enc1 = Dense(d, self.h1, rng, name="enc1")
        self.dec1 = Dense(self.h1, d, rng, name="dec1")
        self.enc2 = Dense(self.h1, self.h2, rng, name="enc2")
        self.dec2 = Dense(self.h2, self.h1, rng, name="dec2")
        self.head = Dense(self.h2, n_classes, rng, name="out")
        self.head.weight.value *= 0.01  # near-uniform initial predictions
        self.stack = Sequential([self.enc1, Sigmoid(), self.enc2, Sigmoid(),
                                 self.head])
        self._seeds = {stage: root.derive_seed(stage)
                       for stage in ("ae1", "ae2", "head", "finetune")}

    def fit(self, x: np.ndarray, labels: np.ndarray) -> dict:
        """Loss curve per stage: ae1, ae2, head, finetune."""
        x = _flat_rows(x, self.spec).astype(DTYPE)
        _, _, _, n_classes = self.spec
        cfg, seeds = self.train_cfg, self._seeds
        ae1 = Sequential([self.enc1, Sigmoid(), self.dec1])
        curves = {"ae1": train_reconstruction(ae1, x, cfg, seeds["ae1"])}
        codes1 = Sequential([self.enc1, Sigmoid()]).forward(x)
        ae2 = Sequential([self.enc2, Sigmoid(), self.dec2])
        curves["ae2"] = train_reconstruction(ae2, codes1, cfg, seeds["ae2"])
        codes2 = Sequential([self.enc2, Sigmoid()]).forward(codes1)
        curves["head"] = train_classifier(Sequential([self.head]), codes2, labels,
                                          cfg, seeds["head"], n_classes)
        curves["finetune"] = train_classifier(self.stack, x, labels, cfg,
                                              seeds["finetune"], n_classes)
        return curves

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return predict_probabilities(self.stack,
                                     _flat_rows(x, self.spec).astype(DTYPE))

    def state_slots(self) -> list:
        return _sequential_slots(self.stack)


def check_spec(kind: str, branches: int) -> None:
    """The model-spec rules: a known kind; the CNN reads 1..4 branches
    (scales), the flat models exactly 1."""
    if kind not in ("cnn", "pca-nn", "ae-nn"):
        raise ValueError(f"unknown model kind {kind!r} (expected cnn, pca-nn, ae-nn)")
    if kind == "cnn" and not 1 <= branches <= 4:
        raise ValueError(f"model.branches must be in 1..4 for cnn, got {branches}")
    if kind != "cnn" and branches != 1:
        raise ValueError(f"model.branches must be 1 for {kind}, got {branches}")


def build_model(kind: str, scales: int, input_length: int, n_classes: int,
                seed: int, train_cfg: TrainConfig = TrainConfig()):
    """The untrained model of one spec (kind, scales, input length,
    classes) and seed; the spec must pass check_spec."""
    if input_length < 1:
        raise ValueError(f"input length {input_length}: need at least 1")
    if n_classes < 2:
        raise ValueError(f"{n_classes} classes: need at least 2")
    check_spec(kind, scales)
    if kind == "cnn":
        return CnnModel(scales, input_length, n_classes, seed, train_cfg)
    if kind == "pca-nn":
        return PcaNnModel(input_length, n_classes, seed, train_cfg)
    return StackedAeModel(input_length, n_classes, seed, train_cfg)
