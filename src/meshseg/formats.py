"""Artifact file formats: feature caches, probability grids, model
checkpoints, label files, fixed splits, colored PLY export, dataset
manifests, and the experiment config.

Binary artifacts share one layout (magic, FORMAT_VERSION, text fields,
named tensors); readers reject mismatches with a message naming the file
and the expected format. Text formats defined by outside conventions
(.seg labels, train:/test: split lists, OFF/OBJ/PLY) stay as their
consumers expect.
"""
from __future__ import annotations

import json
import math
import os
import struct
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from meshseg.features.matrix import DEFAULT_CHANNELS, NormalizationStats
from meshseg.mesh import Mesh
from meshseg.neural.layers import DTYPE
from meshseg.neural.models import build_model, check_spec
from meshseg.neural.training import TrainConfig

FORMAT_VERSION = 6  # of every binary artifact; 1 to 5 had a layout per artifact
FEATURE_MAGIC = b"MSEGFEAT"
PROB_MAGIC = b"MSEGPROB"
CKPT_MAGIC = b"MSEGCKPT"


class FormatError(ValueError):
    """Malformed or mismatched artifact file."""


# ---------------------------------------------------------------------------
# binary artifacts: feature cache, probability grid, model checkpoint


class _Reader:
    """The fields of the artifact at path; opening it checks magic and version."""

    def __init__(self, path, magic: bytes, kind: str):
        self.blob = Path(path).read_bytes()
        self.pos = 0
        self.where = str(path)
        got = self.take(len(magic))
        if got != magic:
            raise FormatError(f"{path}: not a {kind} file (magic {got!r}, expected {magic!r})")
        (ver,) = self.unpack("<I")
        if ver != FORMAT_VERSION:
            raise FormatError(f"{path}: {kind} version {ver} unsupported (expected "
                              f"{FORMAT_VERSION}); regenerate the file")

    def take(self, n: int) -> bytes:
        self.pos += n
        if self.pos > len(self.blob):
            raise FormatError(f"{self.where}: truncated file")
        return self.blob[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        try:
            return self.take(*self.unpack("<I")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.where}: text field is not UTF-8: {exc.reason}") from None

    def channels(self, what: str) -> None:
        names = self.text().split("\n")
        if tuple(names) != DEFAULT_CHANNELS:
            raise FormatError(f"{self.where}: {what} {names}, not {list(DEFAULT_CHANNELS)}")

    def tensor(self, name: str, dtype: str, shape: tuple) -> np.ndarray:
        """A copy of the next tensor, checked against name and shape (None: any size)."""
        stored = self.text()
        if stored != name:
            raise FormatError(f"{self.where}: tensor {stored!r} where {name!r} expected")
        dims = self.unpack(f"<{self.unpack('<I')[0]}Q")
        data = self.take(np.dtype(dtype).itemsize * math.prod(dims))
        if len(dims) != len(shape) or any(w not in (None, d) for d, w in zip(dims, shape)):
            raise FormatError(f"{self.where}: tensor {name!r}: shape mismatch loading "
                              f"tensor: {dims} into {shape}")
        try:  # an empty tensor may still claim sizes no array can have
            return np.frombuffer(data, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:
            raise FormatError(f"{self.where}: tensor {name!r} of shape {dims}: {exc}") from None

    def finish(self) -> None:
        extra = len(self.blob) - self.pos
        if extra:
            raise FormatError(f"{self.where}: {extra} trailing bytes after the last tensor")


def _pack_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_tensor(name: str, arr: np.ndarray, dtype: str = "<f8") -> bytes:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return _pack_text(name) + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape) + arr.tobytes()


def _write_atomic(path, magic: bytes, parts) -> None:
    """Write magic, FORMAT_VERSION and the byte parts to a fresh file beside path,
    then rename it over path: a write that fails partway keeps any old file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            for part in (magic, struct.pack("<I", FORMAT_VERSION), *parts):
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_feature_cache(path, values: np.ndarray, key: str) -> None:
    """The DEFAULT_CHANNELS names, the key (see `experiment.feature_cache_key`)
    and the (faces, channels) values as the tensor `features`."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(DEFAULT_CHANNELS):
        raise ValueError(f"values must be (faces, {len(DEFAULT_CHANNELS)}), "
                         f"got {values.shape}")
    _write_atomic(path, FEATURE_MAGIC, [_pack_text("\n".join(DEFAULT_CHANNELS)),
                                        _pack_text(key), _pack_tensor("features", values)])


def load_feature_cache(path, key: str) -> np.ndarray:
    """The (faces, channels) values of a cache of the DEFAULT_CHANNELS
    stored under key; any other cache is a FormatError."""
    r = _Reader(path, FEATURE_MAGIC, "feature cache")
    r.channels("features of channels")
    stored = r.text()
    if stored != key:
        raise FormatError(f"{path}: features of another mesh or channel set "
                          f"(key {stored}, expected {key})")
    values = r.tensor("features", "<f8", (None, len(DEFAULT_CHANNELS)))
    r.finish()
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite feature value")
    return values


def save_probabilities(path, probs: np.ndarray) -> None:
    """The (faces, classes) probabilities as the tensor `probabilities`."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("probabilities must be (faces, classes)")
    _write_atomic(path, PROB_MAGIC, [_pack_tensor("probabilities", probs)])


def load_probabilities(path) -> np.ndarray:
    """The (faces, classes) grid; each row must be nonnegative and sum to 1."""
    r = _Reader(path, PROB_MAGIC, "probability")
    probs = r.tensor("probabilities", "<f8", (None, None))
    r.finish()
    if not ((probs >= 0).all() and np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)):
        raise FormatError(f"{path}: probability rows must be nonnegative and sum to 1")
    return probs


def save_checkpoint(path, model, stats: NormalizationStats) -> None:
    """The model spec as text ("kind scales input_length classes", e.g.
    "cnn 3 9 4"), the u64 seed, the DEFAULT_CHANNELS names, the tensors
    `norm.mean` and `norm.scale` (float64), then every state tensor
    (parameters, batch-norm stats, PCA bases) in declaration order, as
    float32 like the model holds it.

    The sizes stay ASCII digits so that a flipped bit changes one digit
    at most, and never asks for a huge architecture."""
    if not len(stats.mean) == len(stats.scale) == len(DEFAULT_CHANNELS):
        raise ValueError("normalization stats need one entry per channel")
    spec = " ".join(map(str, model.spec))
    _parse_spec(spec)
    parts = [_pack_text(spec), struct.pack("<Q", int(model.seed)),
             _pack_text("\n".join(DEFAULT_CHANNELS)),
             _pack_tensor("norm.mean", stats.mean), _pack_tensor("norm.scale", stats.scale)]
    for name, owner, attr, _ in model.state_slots():
        arr = getattr(owner, attr)
        if arr is None:
            raise ValueError(f"{name}: batch norm has no running stats yet "
                             "(untrained model)")
        parts.append(_pack_tensor(name, arr, "<f4"))
    _write_atomic(path, CKPT_MAGIC, parts)


def _parse_spec(spec: str) -> tuple:
    """(kind, scales, input length, classes) of a model spec text; a spec
    whose model reads another number of channels than DEFAULT_CHANNELS is
    a ValueError."""
    kind, *sizes = spec.split(" ")
    if len(sizes) != 3:
        raise ValueError(f"model spec {spec!r} is not 'kind scales "
                         "input_length classes'")
    scales, length, classes = map(int, sizes)
    if length != len(DEFAULT_CHANNELS):
        raise ValueError(f"model spec {spec!r} has input length {length}, "
                         f"not the {len(DEFAULT_CHANNELS)} channels")
    return kind, scales, length, classes


def load_checkpoint(path):
    """Returns (model, normalization stats); the model is
    `build_model(*spec, seed)` filled with the stored tensors. A
    checkpoint of other channels, or whose model reads another number of
    them, is a FormatError."""
    r = _Reader(path, CKPT_MAGIC, "checkpoint")
    spec = r.text()
    (seed,) = r.unpack("<Q")
    r.channels("trained on channels")
    stats = NormalizationStats(*(r.tensor(f"norm.{k}", "<f8", (len(DEFAULT_CHANNELS),))
                                 for k in ("mean", "scale")))
    try:
        kind, scales, length, classes = _parse_spec(spec)
        # the output bias alone stores one float32 per class
        left = len(r.blob) - r.pos
        if 4 * classes > left:
            raise ValueError(f"model spec {spec!r} claims {classes} classes, "
                             f"more than the {left} bytes left can hold")
        model = build_model(kind, scales, length, classes, seed)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    for name, owner, attr, want in model.state_slots():
        setattr(owner, attr, r.tensor(name, "<f4", want).astype(DTYPE, copy=False))
    r.finish()
    return model, stats


# ---------------------------------------------------------------------------
# labels (.seg): one integer per line, line i = face i


def save_labels(path, labels) -> None:
    Path(path).write_text("".join(f"{int(v)}\n" for v in labels))


def load_labels(path) -> np.ndarray:
    out = []
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s:
            continue
        try:
            label = int(s)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: not an integer label: {s!r}") from None
        if label < 0:
            raise FormatError(f"{path}: line {lineno}: negative label {label}")
        out.append(label)
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# fixed split file: `train:` / `test:` sections listing mesh ids


def _read_text(path) -> str:
    """The text of the file at path, which must be UTF-8 (split files,
    manifests and configs)."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from None


def load_fixed_split(path):
    """(train ids, test ids) of a split file."""
    sections: dict[str, list] = {}
    listed_under: dict[str, str] = {}  # mesh id -> its section
    current = None
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if s.endswith(":"):
            name = s[:-1].strip()
            if name not in ("train", "test"):
                raise FormatError(f"{path}: line {lineno}: unknown section {name!r}")
            if name in sections:
                raise FormatError(f"{path}: line {lineno}: duplicate section {name!r}")
            sections[name] = []
            current = name
        elif current is None:
            raise FormatError(f"{path}: line {lineno}: mesh id before any section")
        elif s in listed_under:
            raise FormatError(f"{path}: line {lineno}: mesh {s!r} already "
                              f"listed under {listed_under[s]}:")
        else:
            listed_under[s] = current
            sections[current].append(s)
    for name in ("train", "test"):
        if not sections.get(name):
            raise FormatError(f"{path}: missing or empty {name}: section")
    return sections["train"], sections["test"]


# ---------------------------------------------------------------------------
# colored PLY export

# 22 visually distinct colors; label index i maps to PALETTE[i % 22]
PALETTE = np.array([
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
    (255, 255, 255), (0, 0, 0),
], dtype=np.uint8)


def export_colored_ply(mesh: Mesh, labels, path) -> None:
    """ASCII PLY with one RGB color per face, deterministic by label index.

    Labels at or beyond the palette size wrap around (with a warning)."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != mesh.n_faces:
        raise ValueError(f"{len(labels)} labels for {mesh.n_faces} faces")
    if len(labels) and labels.max() >= len(PALETTE):
        warnings.warn(
            f"label {int(labels.max())} exceeds the {len(PALETTE)}-color palette; "
            "colors will repeat", stacklevel=2)
    colors = PALETTE[labels % len(PALETTE)]
    lines = [
        "ply", "format ascii 1.0",
        f"element vertex {mesh.n_vertices}",
        "property float x", "property float y", "property float z",
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header",
    ]
    for v in mesh.vertices:
        lines.append(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for f, c in zip(mesh.faces, colors):
        lines.append(f"3 {f[0]} {f[1]} {f[2]} {c[0]} {c[1]} {c[2]}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# strict JSON inputs: the dataset manifest and the experiment config


def _read_json(path, what: str) -> dict:
    """The JSON object in the file at path; `what` names the file's role
    in the error."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: {what} must be a JSON object")
    return doc


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list"}


def _json(value, name: str, kind: type):
    """`value` itself if it is a JSON value of `kind`: int for an integer,
    float for any number a float holds, str or list. A bool is no number,
    though Python counts it an int."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
    if kind is float:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must be a number a float can hold, got "
                             f"an integer of {value.bit_length()} bits") from None
    return value


def _check_keys(doc, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise FormatError(f"{where} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    classes: tuple
    entries: tuple  # of (mesh id, mesh path, labels path)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    doc = _read_json(path, "manifest")
    _check_keys(doc, ("name", "classes", "meshes", "format", "version"), str(path))
    for key in ("name", "classes", "meshes"):
        if key not in doc:
            raise FormatError(f"{path}: manifest missing {key!r}")
    classes = doc["classes"]
    if (not isinstance(classes, list) or not classes
            or not all(isinstance(c, str) for c in classes)):
        raise FormatError(f"{path}: classes must be a nonempty list of names")
    entries = {}
    try:
        for i, rec in enumerate(_json(doc["meshes"], "meshes", list)):
            if not isinstance(rec, dict) or set(rec) != {"id", "mesh", "labels"}:
                raise ValueError(f"meshes[{i}] needs exactly id/mesh/labels")
            mesh_id, mesh, labels = (_json(rec[k], f"meshes[{i}].{k}", str)
                                     for k in ("id", "mesh", "labels"))
            # ids name the run's output files, so they must stay inside its directory
            if not mesh_id or any(c in mesh_id for c in "/\\\0"):
                raise ValueError(f"meshes[{i}].id must be a nonempty name without "
                                 f"'/', '\\' or NUL, got {mesh_id!r}")
            if mesh_id in entries:
                raise ValueError(f"duplicate mesh id {mesh_id!r}")
            entries[mesh_id] = (mesh_id, path.parent / mesh, path.parent / labels)
        if not entries:
            raise ValueError("meshes must list at least one mesh")
        if len(classes) < 2:
            raise ValueError(f"need at least 2 classes, got {len(classes)}")
        return DatasetManifest(name=_json(doc["name"], "name", str),
                               classes=tuple(classes), entries=tuple(entries.values()))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config; its defaults live in `parse_experiment_config`."""
    dataset: str
    protocol: str  # loo | kfold | fixed
    k: int
    fixed_split_file: str | None
    replicates: int
    model_kind: str  # cnn | pca-nn | ae-nn
    branches: int
    train: TrainConfig
    lam: float
    omega: float
    seed: int
    output_dir: str

    def __post_init__(self):
        if self.protocol not in ("loo", "kfold", "fixed"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "kfold" and self.k < 2:
            raise ValueError(f"protocol.k must be at least 2 for kfold, got {self.k}")
        if self.protocol == "fixed" and not self.fixed_split_file:
            raise ValueError("fixed protocol requires a split file")
        if self.replicates < 1:
            raise ValueError(f"protocol.replicates must be at least 1, "
                             f"got {self.replicates}")
        check_spec(self.model_kind, self.branches)
        # a checkpoint stores the seed as an unsigned 64-bit integer
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64 - 1], got {self.seed}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam}")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")


_TRAIN_KINDS = get_type_hints(TrainConfig)  # key -> int or float


def parse_experiment_config(doc: dict, where: str = "<config>") -> ExperimentConfig:
    _check_keys(doc, ("dataset", "protocol", "model", "train", "lambda",
                      "omega", "seed", "output_dir"), where)
    if "dataset" not in doc:
        raise FormatError(f"{where}: missing 'dataset'")
    proto = doc.get("protocol", {"kind": "kfold"})
    _check_keys(proto, ("kind", "k", "file", "replicates"), f"{where}.protocol")
    model = doc.get("model", {"kind": "cnn"})
    _check_keys(model, ("kind", "branches"), f"{where}.model")
    train_doc = doc.get("train", {})
    _check_keys(train_doc, _TRAIN_KINDS, f"{where}.train")
    try:
        kind = _json(model.get("kind", "cnn"), "model.kind", str)
        train = TrainConfig(**{k: _json(train_doc[k], f"train.{k}", want)
                               for k, want in _TRAIN_KINDS.items() if k in train_doc})
        cfg = ExperimentConfig(
            dataset=_json(doc["dataset"], "dataset", str),
            protocol=_json(proto.get("kind", "kfold"), "protocol.kind", str),
            k=_json(proto.get("k", 5), "protocol.k", int),
            fixed_split_file=(_json(proto["file"], "protocol.file", str)
                              if "file" in proto else None),
            replicates=_json(proto.get("replicates", 3), "protocol.replicates", int),
            model_kind=kind,
            branches=_json(model.get("branches", 3 if kind == "cnn" else 1),
                           "model.branches", int),
            train=train,
            lam=float(_json(doc.get("lambda", 1.0), "lambda", float)),
            omega=float(_json(doc.get("omega", 1.0), "omega", float)),
            seed=_json(doc.get("seed", 0), "seed", int),
            output_dir=_json(doc.get("output_dir", "out"), "output_dir", str),
        )
        for key, kind in (("k", "kfold"), ("file", "fixed")):
            if key in proto and cfg.protocol != kind:
                raise ValueError(f"protocol.{key} applies to the {kind} protocol "
                                 f"only, not to {cfg.protocol}")
        return cfg
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def experiment_config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical full-form dict; parse(to_dict(cfg)) == cfg for every cfg
    that parse returns."""
    proto: dict = {"kind": cfg.protocol, "replicates": cfg.replicates}
    if cfg.protocol == "kfold":
        proto["k"] = cfg.k
    if cfg.protocol == "fixed":
        proto["file"] = cfg.fixed_split_file
    return {
        "dataset": cfg.dataset,
        "protocol": proto,
        "model": {"kind": cfg.model_kind, "branches": cfg.branches},
        "train": {k: getattr(cfg.train, k) for k in _TRAIN_KINDS},
        "lambda": cfg.lam,
        "omega": cfg.omega,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }


def load_experiment_config(path) -> ExperimentConfig:
    return parse_experiment_config(_read_json(path, "config"), where=str(path))


def dump_json(doc: dict) -> str:
    """Canonical JSON for reports and manifests: sorted keys, stable
    float formatting, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
