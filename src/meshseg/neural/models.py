"""Trainable classifiers behind one interface: the multi-branch CNN and
the two flat baselines (PCA + dense stack, stacked autoencoder).

Each model consumes a view of the multi-scale features via
prepare_inputs, trains with fit, predicts probabilities in eval mode,
and exposes ordered state slots for checkpointing (parameters plus
batch-norm running statistics and PCA bases).
"""
from __future__ import annotations

import re
from dataclasses import replace

import numpy as np

from meshseg.numerics import SeededRng, pca_fit
from meshseg.neural.layers import BatchNorm, Dense, LeakyReLU, Sigmoid
from meshseg.neural.network import LEAKY_SLOPE, MultiBranchNet, Sequential, build_multibranch
from meshseg.neural.training import (
    TrainConfig,
    predict_probabilities,
    train_classifier,
    train_reconstruction,
)


def _assign(dst: np.ndarray, src: np.ndarray) -> None:
    if dst.shape != src.shape:
        raise ValueError(f"shape mismatch loading tensor: {src.shape} into {dst.shape}")
    dst[...] = src


def _param_slot(p):
    return (p.name, lambda: p.value, lambda a: _assign(p.value, a))


def _bn_stat_slot(layer: BatchNorm, attr: str):
    def get():
        val = getattr(layer, attr)
        if val is None:
            raise ValueError("batch norm has no running stats yet (untrained model)")
        return val

    def put(a):
        setattr(layer, attr, np.array(a, dtype=np.float64))

    return (f"{layer.gamma.name.rsplit('.', 1)[0]}.{attr}", get, put)


def _sequential_slots(seq: Sequential) -> list:
    slots = []
    for layer in seq.layers:
        for p in layer.parameters():
            slots.append(_param_slot(p))
        if isinstance(layer, BatchNorm):
            slots.append(_bn_stat_slot(layer, "running_mean"))
            slots.append(_bn_stat_slot(layer, "running_var"))
    return slots


def _reset_momentum(params) -> None:
    for p in params:
        p.velocity[...] = 0.0


class CnnModel:
    """Multi-branch 1D CNN over the K multi-scale views of each face."""

    kind = "cnn"

    def __init__(self, n_branches: int, input_length: int, n_classes: int,
                 seed: int, train_cfg: TrainConfig = TrainConfig()):
        self.n_classes = n_classes
        self.seed = seed
        self.train_cfg = train_cfg
        root = SeededRng(seed)
        self.net = build_multibranch(n_branches, input_length, n_classes,
                                     root.derive_seed("init"))
        self._train_seed = root.derive_seed("train")
        self.loss_curves: dict = {}
        self.metadata = {"kind": self.kind, "branches": n_branches,
                         "input_length": input_length}

    def describe(self) -> str:
        return self.net.describe()

    def prepare_inputs(self, multiscale_values: np.ndarray) -> np.ndarray:
        x = np.asarray(multiscale_values, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError("expected (faces, scales, channels) multi-scale values")
        if x.shape[1] != self.net.n_branches:
            raise ValueError(
                f"model has {self.net.n_branches} branches, features have {x.shape[1]} scales")
        if x.shape[2] != self.net.input_length:
            raise ValueError(
                f"model expects signals of length {self.net.input_length}, got {x.shape[2]}")
        return x[:, :, :, None]  # one input channel per branch

    def fit(self, x: np.ndarray, labels: np.ndarray) -> dict:
        cfg = replace(self.train_cfg, seed=self._train_seed)
        self.loss_curves = {
            "train": train_classifier(self.net, x, labels, cfg, self.n_classes)}
        return self.loss_curves

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return predict_probabilities(self.net, x)

    def parameters(self):
        return self.net.parameters()

    def state_slots(self) -> list:
        slots = []
        for branch in self.net.branches:
            slots.extend(_sequential_slots(branch))
        slots.extend(_sequential_slots(self.net.head))
        return slots


class PcaNnModel:
    """PCA projection followed by a small dense stack.

    Keeps min(50, d) components; hidden widths scale as (p, p/2, p/4),
    giving the classic (50, 25, 12) at 50 components.
    """

    kind = "pca-nn"

    def __init__(self, input_dim: int, n_classes: int, seed: int,
                 train_cfg: TrainConfig = TrainConfig()):
        self.input_dim = input_dim
        self.n_classes = n_classes
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
        self.pca_mean = np.zeros(input_dim)
        self.pca_basis = np.zeros((input_dim, p))
        self.loss_curves: dict = {}
        self.metadata = {"kind": self.kind, "pca_components": p,
                         "hidden_widths": list(widths),
                         "hidden_activation": f"leaky_relu({LEAKY_SLOPE})"}

    def describe(self) -> str:
        return f"pca-nn(d={self.input_dim},p={self.components},classes={self.n_classes})"

    def prepare_inputs(self, multiscale_values: np.ndarray) -> np.ndarray:
        x = np.asarray(multiscale_values, dtype=np.float64)
        if x.ndim == 3:
            x = x[:, 0, :]  # single-scale view: the raw feature rows
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} features, got {x.shape[1]}")
        return x

    def _project(self, x: np.ndarray) -> np.ndarray:
        return (x - self.pca_mean) @ self.pca_basis

    def fit(self, x: np.ndarray, labels: np.ndarray) -> dict:
        self.pca_mean, self.pca_basis, _ = pca_fit(x, self.components)
        cfg = replace(self.train_cfg, seed=self._train_seed)
        self.loss_curves = {
            "train": train_classifier(self.net, self._project(x), labels, cfg,
                                      self.n_classes)}
        return self.loss_curves

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return predict_probabilities(self.net, self._project(x))

    def parameters(self):
        return self.net.parameters()

    def state_slots(self) -> list:
        def put_mean(a):
            _assign(self.pca_mean, a)

        def put_basis(a):
            _assign(self.pca_basis, a)

        return ([("pca.mean", lambda: self.pca_mean, put_mean),
                 ("pca.basis", lambda: self.pca_basis, put_basis)]
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
        self.input_dim = input_dim
        self.n_classes = n_classes
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
        self.loss_curves: dict = {}
        self.metadata = {"kind": self.kind, "code_sizes": [self.h1, self.h2],
                         "hidden_activation": "sigmoid",
                         "decoder_output": "linear"}

    def describe(self) -> str:
        return (f"ae-nn(d={self.input_dim},h1={self.h1},h2={self.h2},"
                f"classes={self.n_classes})")

    def prepare_inputs(self, multiscale_values: np.ndarray) -> np.ndarray:
        x = np.asarray(multiscale_values, dtype=np.float64)
        if x.ndim == 3:
            x = x[:, 0, :]
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} features, got {x.shape[1]}")
        return x

    def fit(self, x: np.ndarray, labels: np.ndarray) -> dict:
        cfg = self.train_cfg
        ae1 = Sequential([self.enc1, Sigmoid(), self.dec1])
        curves = {"ae1": train_reconstruction(
            ae1, x, replace(cfg, seed=self._seeds["ae1"]))}
        codes1 = Sequential([self.enc1, Sigmoid()]).forward(x)
        ae2 = Sequential([self.enc2, Sigmoid(), self.dec2])
        curves["ae2"] = train_reconstruction(
            ae2, codes1, replace(cfg, seed=self._seeds["ae2"]))
        codes2 = Sequential([self.enc2, Sigmoid()]).forward(codes1)
        head_net = Sequential([self.head])
        _reset_momentum(head_net.parameters())
        curves["head"] = train_classifier(
            head_net, codes2, labels, replace(cfg, seed=self._seeds["head"]),
            self.n_classes)
        _reset_momentum(self.stack.parameters())
        curves["finetune"] = train_classifier(
            self.stack, x, labels, replace(cfg, seed=self._seeds["finetune"]),
            self.n_classes)
        self.loss_curves = curves
        return curves

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return predict_probabilities(self.stack, x)

    def parameters(self):
        return self.stack.parameters()

    def state_slots(self) -> list:
        return _sequential_slots(self.stack)


def build_model(kind: str, n_branches: int, input_length: int, n_classes: int,
                seed: int, train_cfg: TrainConfig = TrainConfig()):
    if kind == "cnn":
        return CnnModel(n_branches, input_length, n_classes, seed, train_cfg)
    if kind == "pca-nn":
        return PcaNnModel(input_length, n_classes, seed, train_cfg)
    if kind == "ae-nn":
        return StackedAeModel(input_length, n_classes, seed, train_cfg)
    raise ValueError(f"unknown model kind {kind!r} (expected cnn, pca-nn, ae-nn)")


_N = r"([1-9]\d*)"  # a size: zero is no architecture
_DESC_RE = {
    "cnn": re.compile(rf"multibranch\(K={_N},L={_N},Cin={_N},classes={_N}\)"),
    "pca-nn": re.compile(rf"pca-nn\(d={_N},p={_N},classes={_N}\)"),
    "ae-nn": re.compile(rf"ae-nn\(d={_N},h1={_N},h2={_N},classes={_N}\)"),
}


def model_from_descriptor(descriptor: str, seed: int):
    """Rebuild an untrained model skeleton from its describe() string;
    used when loading checkpoints."""
    m = _DESC_RE["cnn"].fullmatch(descriptor)
    if m:
        k, length, cin, classes = map(int, m.groups())
        if cin != 1:
            raise ValueError("only single-channel branch inputs are supported")
        return CnnModel(k, length, classes, seed)
    m = _DESC_RE["pca-nn"].fullmatch(descriptor)
    if m:
        d, p, classes = map(int, m.groups())
        model = PcaNnModel(d, classes, seed)
        if model.components != p:
            raise ValueError(f"descriptor components {p} inconsistent with d={d}")
        return model
    m = _DESC_RE["ae-nn"].fullmatch(descriptor)
    if m:
        d, h1, h2, classes = map(int, m.groups())
        model = StackedAeModel(d, classes, seed)
        if (model.h1, model.h2) != (h1, h2):
            raise ValueError("descriptor code sizes inconsistent with input dim")
        return model
    raise ValueError(f"unrecognized architecture descriptor {descriptor!r}")
