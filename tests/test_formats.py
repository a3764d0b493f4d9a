import dataclasses
import hashlib
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meshseg import formats, synth
from meshseg.experiment import feature_cache_key
from meshseg.features.matrix import DEFAULT_CHANNELS, NormalizationStats
from meshseg.formats import (
    CKPT_MAGIC,
    FormatError,
    PALETTE,
    dump_json,
    experiment_config_to_dict,
    export_colored_ply,
    load_checkpoint,
    load_experiment_config,
    load_feature_cache,
    load_fixed_split,
    load_labels,
    load_manifest,
    load_probabilities,
    parse_experiment_config,
    save_checkpoint,
    save_feature_cache,
    save_labels,
    save_probabilities,
)
from meshseg.mesh import Mesh
from meshseg.neural.models import CnnModel, PcaNnModel, StackedAeModel, build_model
from meshseg.neural.training import TrainConfig
from conftest import (
    version_one_feature_cache,
    version_one_probabilities,
    write_feature_cache,
)


# -------------------------------------------------------- feature cache key

def test_feature_cache_key_hashes_the_names_and_the_mesh_arrays():
    mesh = synth.icosphere(1)
    key = feature_cache_key(mesh)
    # the channel names, the vertex count as 8 little-endian bytes, then
    # the vertices as <f8 and the faces as <i8
    h = hashlib.blake2b(digest_size=16)
    for part in ("\n".join(DEFAULT_CHANNELS).encode(),
                 struct.pack("<Q", mesh.n_vertices),
                 mesh.vertices.astype("<f8").tobytes(),
                 mesh.faces.astype("<i8").tobytes()):
        h.update(part)
    assert key == h.hexdigest()
    assert len(key) == 32
    assert key == feature_cache_key(Mesh(mesh.vertices.copy(), mesh.faces.copy()))


def test_feature_cache_key_differs_for_a_moved_coordinate_or_reordered_faces():
    mesh = synth.icosphere(1)
    key = feature_cache_key(mesh)
    moved = mesh.vertices.copy()
    moved[3, 1] = np.nextafter(moved[3, 1], 2.0)
    assert feature_cache_key(Mesh(moved, mesh.faces)) != key
    assert feature_cache_key(Mesh(mesh.vertices, mesh.faces[::-1])) != key


# ------------------------------------------------------------ feature cache

N = len(DEFAULT_CHANNELS)


def test_feature_cache_round_trip(tmp_path):
    path = tmp_path / "m.feat"
    values = np.random.default_rng(0).normal(size=(17, N))
    save_feature_cache(path, values, "abc123")
    assert "\n".join(DEFAULT_CHANNELS).encode() in path.read_bytes()
    assert np.array_equal(load_feature_cache(path, "abc123"), values)


@pytest.mark.parametrize("names, width, key, reason", [
    (DEFAULT_CHANNELS, N, "other", "features of another mesh or channel set"),
    (DEFAULT_CHANNELS[:7] + ("sdf", "agd"), N, "key", "features of channels"),
    (("agd",), 1, "key", "features of channels"),
], ids=["other-key", "reordered-names", "agd-only"])
def test_feature_cache_rejects_other_keys_and_channels(tmp_path, names, width, key,
                                                       reason):
    path = tmp_path / "other.feat"
    write_feature_cache(path, names, np.zeros((4, width)), key)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: {reason}"):
        load_feature_cache(path, "key")


def test_feature_cache_layout(tmp_path):
    # magic, version, the channel names and the key as text, then the
    # tensor `features`: name, rank, dims, <f8 values
    path = tmp_path / "m.feat"
    values = np.random.default_rng(3).normal(size=(5, N))
    save_feature_cache(path, values, "abc")
    written = tmp_path / "by-hand.feat"
    write_feature_cache(written, DEFAULT_CHANNELS, values, "abc")
    assert path.read_bytes() == written.read_bytes()
    assert path.read_bytes()[8:12] == struct.pack("<I", 6)


def test_feature_cache_version_one_needs_regenerating(tmp_path):
    path = tmp_path / "v1.feat"
    path.write_bytes(version_one_feature_cache(np.ones((3, N)), "key"))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: feature cache version 1 unsupported (expected 6); regenerate")):
        load_feature_cache(path, "key")


def test_feature_cache_bad_magic(tmp_path):
    path = tmp_path / "bogus.feat"
    path.write_bytes(b"NOTAFEAT" + b"\x00" * 64)
    with pytest.raises(FormatError, match="not a feature cache file"):
        load_feature_cache(path, "key")


def test_feature_cache_version_mismatch(tmp_path):
    path = tmp_path / "old.feat"
    save_feature_cache(path, np.zeros((2, N)), "key")
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # bump the little-endian version field
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version 99 unsupported.*regenerate"):
        load_feature_cache(path, "key")


def test_feature_cache_truncation(tmp_path):
    path = tmp_path / "cut.feat"
    save_feature_cache(path, np.ones((5, N)), "key")
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(FormatError, match="truncated"):
        load_feature_cache(path, "key")


def test_feature_cache_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.feat"
    save_feature_cache(path, np.ones((5, N)), "key")
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load_feature_cache(path, "key")


def test_feature_cache_rejects_a_non_finite_value(tmp_path):
    path = tmp_path / "nan.feat"
    values = np.ones((5, N))
    values[3, 7] = np.nan
    save_feature_cache(path, values, "key")
    with pytest.raises(FormatError, match=re.escape(f"{path}: non-finite feature value")):
        load_feature_cache(path, "key")


def test_feature_cache_of_another_mesh_names_both_keys(tmp_path):
    path = tmp_path / "m.feat"
    save_feature_cache(path, np.ones((5, N)), "key")
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: features of another mesh or channel set "
            "(key key, expected yek)")):
        load_feature_cache(path, "yek")


def test_feature_cache_shape_validation(tmp_path):
    with pytest.raises(ValueError, match=rf"values must be \(faces, {N}\)"):
        save_feature_cache(tmp_path / "x.feat", np.zeros((4, 3)), "key")


# ------------------------------------------------------------ probabilities

def test_probabilities_round_trip(tmp_path):
    path = tmp_path / "m.prob"
    probs = np.random.default_rng(1).dirichlet(np.ones(4), size=9)
    save_probabilities(path, probs)
    assert np.array_equal(load_probabilities(path), probs)


def test_probabilities_layout(tmp_path):
    path = tmp_path / "m.prob"
    probs = np.random.default_rng(5).dirichlet(np.ones(3), size=4)
    save_probabilities(path, probs)
    assert path.read_bytes() == (b"MSEGPROB" + struct.pack("<II", 6, 13) + b"probabilities"
                                 + struct.pack("<IQQ", 2, 4, 3) + probs.astype("<f8").tobytes())


@pytest.mark.parametrize("dims", [(0, 2 ** 62), (2 ** 64 - 1, 0)])
def test_probabilities_of_no_values_but_impossible_sizes(tmp_path, dims):
    path = tmp_path / "empty.prob"
    path.write_bytes(b"MSEGPROB" + struct.pack("<II", 6, 13) + b"probabilities"
                     + struct.pack("<IQQ", 2, *dims))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: tensor 'probabilities' of shape {dims}: ")):
        load_probabilities(path)


def test_probabilities_version_one_needs_regenerating(tmp_path):
    path = tmp_path / "v1.prob"
    path.write_bytes(version_one_probabilities(np.full((3, 2), 0.5)))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: probability version 1 unsupported (expected 6); regenerate")):
        load_probabilities(path)


def test_probabilities_reject_feature_file(tmp_path):
    path = tmp_path / "m.feat"
    save_feature_cache(path, np.zeros((2, N)), "key")
    with pytest.raises(FormatError, match="not a probability file"):
        load_probabilities(path)


@pytest.mark.parametrize("row", [[0.5, 0.6], [1.5, -0.5], [np.nan, 1.0], [np.inf, 0.0]])
def test_probabilities_reject_a_row_that_is_not_a_distribution(tmp_path, row):
    path = tmp_path / "m.prob"
    save_probabilities(path, np.array([[0.25, 0.75], row]))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: probability rows must be nonnegative and sum to 1")):
        load_probabilities(path)


def test_probabilities_reject_trailing_bytes(tmp_path):
    path = tmp_path / "long.prob"
    save_probabilities(path, np.full((3, 2), 0.5))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load_probabilities(path)


# --------------------------------------------------------------- checkpoint

def _train_tiny_cnn(seed=0):
    rng = np.random.default_rng(seed)
    model = CnnModel(2, N, 3, seed=seed, train_cfg=TrainConfig(epochs=2, batch_size=8))
    x = rng.normal(size=(24, 2, N))
    model.fit(x, rng.integers(0, 3, 24))
    return model, x


def _stats(n=N):
    return NormalizationStats(mean=np.linspace(-1.0, 1.0, n) / 3.0,
                              scale=np.linspace(0.5, 2.0, n) / 7.0)


def test_checkpoint_round_trip_cnn(tmp_path):
    model, x = _train_tiny_cnn()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, _stats())
    assert "\n".join(DEFAULT_CHANNELS).encode() in path.read_bytes()
    clone, stats = load_checkpoint(path)
    assert np.array_equal(stats.mean, _stats().mean)
    assert np.array_equal(stats.scale, _stats().scale)
    assert clone.spec == model.spec == ("cnn", 2, N, 3)
    assert np.array_equal(clone.predict_proba(x), model.predict_proba(x))


def test_checkpoint_round_trip_pca(tmp_path):
    rng = np.random.default_rng(2)
    model = PcaNnModel(N, 2, seed=3, train_cfg=TrainConfig(epochs=2, batch_size=8))
    x = rng.normal(size=(30, N))
    model.fit(x, rng.integers(0, 2, 30))
    save_checkpoint(tmp_path / "m.ckpt", model, _stats())
    clone, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert np.array_equal(clone.pca_basis, model.pca_basis)
    assert np.array_equal(clone.predict_proba(x), model.predict_proba(x))
    # the model in memory holds exactly what its checkpoint restores
    for (name, owner, attr, _), (_, c_owner, c_attr, _) in zip(
            model.state_slots(), clone.state_slots()):
        got, want = getattr(c_owner, c_attr), getattr(owner, attr)
        assert got.dtype == want.dtype == np.float32, name
        assert np.array_equal(got, want), name


def test_checkpoint_round_trip_ae(tmp_path):
    rng = np.random.default_rng(4)
    model = StackedAeModel(N, 2, seed=5, train_cfg=TrainConfig(epochs=2, batch_size=8))
    x = rng.normal(size=(30, N))
    model.fit(x, rng.integers(0, 2, 30))
    save_checkpoint(tmp_path / "m.ckpt", model, _stats())
    clone, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert np.array_equal(clone.predict_proba(x), model.predict_proba(x))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    model, _ = _train_tiny_cnn()
    path = tmp_path / "long.ckpt"
    save_checkpoint(path, model, _stats())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_stats_need_one_entry_per_channel(tmp_path):
    model, _ = _train_tiny_cnn()
    with pytest.raises(ValueError, match="one entry per channel"):
        save_checkpoint(tmp_path / "m.ckpt", model, _stats(N - 1))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, _stats())
    # a tenth channel name in front of nine stats entries
    names = "\n".join(DEFAULT_CHANNELS).encode()
    path.write_bytes(path.read_bytes().replace(
        struct.pack("<I", len(names)) + names,
        struct.pack("<I", len(names) + 3) + names + b"\nc4"))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: trained on channels {list(DEFAULT_CHANNELS) + ['c4']}")):
        load_checkpoint(path)


def test_checkpoint_rejects_other_channels(tmp_path):
    model, _ = _train_tiny_cnn()
    path = tmp_path / "swapped.ckpt"
    save_checkpoint(path, model, _stats())
    blob = path.read_bytes()
    assert blob.count(b"agd\nsdf") == 1
    path.write_bytes(blob.replace(b"agd\nsdf", b"sdf\nagd"))
    with pytest.raises(FormatError, match=re.escape(f"{path}: trained on channels [")):
        load_checkpoint(path)


def test_checkpoint_rejects_a_model_of_another_input_length(tmp_path):
    rng = np.random.default_rng(2)
    model = PcaNnModel(N, 2, seed=3, train_cfg=TrainConfig(epochs=2, batch_size=8))
    model.fit(rng.normal(size=(30, N)), rng.integers(0, 2, 30))
    path = tmp_path / "five.ckpt"
    save_checkpoint(path, model, _stats())
    blob = path.read_bytes()
    assert blob.count(b"pca-nn 1 9 2") == 1
    path.write_bytes(blob.replace(b"pca-nn 1 9 2", b"pca-nn 1 5 2"))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: model spec 'pca-nn 1 5 2' has input length 5, not the {N} channels")):
        load_checkpoint(path)


def test_checkpoint_class_count_larger_than_the_file_fails_before_building(tmp_path):
    # a (2, 99999999999) output layer would need 1.46 TiB
    rng = np.random.default_rng(2)
    model = PcaNnModel(N, 2, seed=3, train_cfg=TrainConfig(epochs=2, batch_size=8))
    model.fit(rng.normal(size=(30, N)), rng.integers(0, 2, 30))
    path = tmp_path / "huge.ckpt"
    save_checkpoint(path, model, _stats())
    blob = path.read_bytes()
    spec, huge = b"pca-nn 1 9 2", b"pca-nn 1 9 99999999999"
    assert blob.count(spec) == 1
    path.write_bytes(blob.replace(struct.pack("<I", len(spec)) + spec,
                                  struct.pack("<I", len(huge)) + huge))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: model spec 'pca-nn 1 9 99999999999' claims 99999999999 "
            "classes, more than the ") + r"\d+ bytes left can hold$"):
        load_checkpoint(path)


def test_save_checkpoint_refuses_a_model_of_another_input_length(tmp_path):
    # the check load_checkpoint makes, made before any byte is written
    rng = np.random.default_rng(2)
    model = PcaNnModel(5, 2, seed=3, train_cfg=TrainConfig(epochs=2, batch_size=8))
    model.fit(rng.normal(size=(30, 5)), rng.integers(0, 2, 30))
    with pytest.raises(ValueError, match=re.escape(
            f"model spec 'pca-nn 1 5 2' has input length 5, not the {N} channels")):
        save_checkpoint(tmp_path / "five.ckpt", model, _stats())
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_version_one_needs_regenerating(tmp_path):
    model, _ = _train_tiny_cnn()
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, model, _stats())
    blob = path.read_bytes()
    path.write_bytes(CKPT_MAGIC + struct.pack("<I", 1) + blob[len(CKPT_MAGIC) + 4:])
    with pytest.raises(FormatError, match="version 1 unsupported.*regenerate"):
        load_checkpoint(path)


def test_checkpoint_version_two_needs_regenerating(tmp_path):
    # version 2 stored a bias for every conv; version 3 has none
    model, _ = _train_tiny_cnn()
    path = tmp_path / "v2.ckpt"
    save_checkpoint(path, model, _stats())
    blob = path.read_bytes()
    path.write_bytes(CKPT_MAGIC + struct.pack("<I", 2) + blob[len(CKPT_MAGIC) + 4:])
    with pytest.raises(FormatError, match="version 2 unsupported.*regenerate"):
        load_checkpoint(path)


def test_checkpoint_version_three_needs_regenerating(tmp_path):
    # version 3 opened with an architecture descriptor; version 4 with the spec
    model, _ = _train_tiny_cnn()
    path = tmp_path / "v3.ckpt"
    save_checkpoint(path, model, _stats())
    blob = path.read_bytes()
    assert b"cnn 2 9 3" in blob
    path.write_bytes(CKPT_MAGIC + struct.pack("<I", 3) + blob[len(CKPT_MAGIC) + 4:])
    with pytest.raises(FormatError, match="version 3 unsupported.*regenerate"):
        load_checkpoint(path)


def test_checkpoint_version_four_needs_regenerating(tmp_path):
    # version 4 stored every state tensor as float64; version 5 as float32
    model, _ = _train_tiny_cnn()
    path = tmp_path / "v4.ckpt"
    save_checkpoint(path, model, _stats())
    blob = path.read_bytes()
    path.write_bytes(CKPT_MAGIC + struct.pack("<I", 4) + blob[len(CKPT_MAGIC) + 4:])
    with pytest.raises(FormatError, match="version 4 unsupported.*regenerate"):
        load_checkpoint(path)


def test_checkpoint_version_five_needs_regenerating(tmp_path):
    # version 5 kept the stats and the tensors behind counts; version 6
    # gives every artifact named tensor records
    model, _ = _train_tiny_cnn()
    path = tmp_path / "v5.ckpt"
    save_checkpoint(path, model, _stats())
    blob = path.read_bytes()
    path.write_bytes(CKPT_MAGIC + struct.pack("<I", 5) + blob[len(CKPT_MAGIC) + 4:])
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: checkpoint version 5 unsupported (expected 6); regenerate")):
        load_checkpoint(path)


def test_checkpoint_untrained_cnn_fails_loudly(tmp_path):
    model = CnnModel(1, N, 2, seed=0)
    with pytest.raises(ValueError, match="untrained"):
        save_checkpoint(tmp_path / "m.ckpt", model, _stats())


def test_checkpoint_rejects_batch_norm_stat_of_the_wrong_shape(tmp_path):
    model, _ = _train_tiny_cnn()
    bn = model.net.layers[0].branches[0].layers[1]
    assert bn.gamma.name == "b0.bn1.gamma"
    bn.running_mean = bn.running_mean[:1]
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, model, _stats())
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: tensor 'b0.bn1.running_mean': shape mismatch loading "
            "tensor: (1,) into (16,)")):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"MSEGJUNK" + b"\x00" * 32)
    with pytest.raises(FormatError, match="not a checkpoint file"):
        load_checkpoint(path)


# ------------------------------------------------------------ atomic writes

def test_checkpoint_failing_partway_keeps_the_old_file(tmp_path):
    # an untrained CNN raises at its first batch-norm running stat
    model, _ = _train_tiny_cnn()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, _stats())
    before = path.read_bytes()
    with pytest.raises(ValueError, match="untrained"):
        save_checkpoint(path, CnnModel(2, N, 3, seed=1), _stats())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


@pytest.mark.parametrize("save", [
    lambda p: save_feature_cache(p, np.ones((4, N)), "key"),
    lambda p: save_probabilities(p, np.full((4, 2), 0.5)),
    lambda p: save_checkpoint(p, _train_tiny_cnn()[0], _stats()),
], ids=["feature-cache", "probabilities", "checkpoint"])
def test_failed_write_keeps_the_old_file(save, tmp_path, monkeypatch):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old contents")

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(formats.os, "replace", fail)
    with pytest.raises(OSError, match="no space"):
        save(path)
    assert path.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["artifact.bin"]
    monkeypatch.undo()
    save(path)
    assert path.read_bytes() != b"old contents"
    assert os.listdir(tmp_path) == ["artifact.bin"]


# ------------------------------------------------------- corrupted artifacts

def _pca_checkpoint(path):
    rng = np.random.default_rng(2)
    model = PcaNnModel(N, 2, seed=3, train_cfg=TrainConfig(epochs=2, batch_size=8))
    model.fit(rng.normal(size=(30, N)), rng.integers(0, 2, 30))
    save_checkpoint(path, model, _stats())


CORRUPTIBLE = {  # writer and loader of each binary format
    "feature-cache": (
        lambda p: save_feature_cache(p, np.ones((3, N)), "key"),
        lambda p: load_feature_cache(p, "key")),
    "probabilities": (
        lambda p: save_probabilities(p, np.full((3, 2), 0.5)), load_probabilities),
    "checkpoint-pca": (_pca_checkpoint, load_checkpoint),
    "checkpoint-cnn": (
        lambda p: save_checkpoint(p, _train_tiny_cnn()[0], _stats()), load_checkpoint),
}


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


def _pristine(kind, corrupt_dir):
    """(pristine bytes, loader, scratch path for corrupted copies)."""
    write, load = CORRUPTIBLE[kind]
    path = corrupt_dir / kind
    if not path.exists():
        write(path)
    return path.read_bytes(), load, corrupt_dir / f"{kind}.bad"


@pytest.fixture(scope="module", params=list(CORRUPTIBLE))
def artifact(request, corrupt_dir):
    return _pristine(request.param, corrupt_dir)


def _flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.mark.parametrize("kind, marker, offset, bit, reason", [
    ("feature-cache", b"gaussian", 0, 7, "not UTF-8"),  # channel name
    ("checkpoint-cnn", b"cnn 2 9 3", 0, 7, "not UTF-8"),  # model spec
    # the pca-nn spec is "pca-nn 1 9 2": 9 inputs, 2 classes
    ("checkpoint-pca", b"pca-nn 1 9 2", 11, 1, "0 classes: need at least 2"),  # 2 -> 0
    ("checkpoint-pca", b"pca-nn 1 9 2", 11, 0,  # 2 -> 3 classes, tensors for 2
     r"tensor 'out.weight'.*\(2, 2\) into \(2, 3\)"),
    ("checkpoint-pca", b"pca-nn 1 9", 9, 0,  # 9 -> 8 inputs for 9 channels
     "'pca-nn 1 8 2' has input length 8, not the 9 channels"),
    ("checkpoint-pca", b"pca.basis", 13, 0,  # basis (8, 9), model (9, 9)
     r"\(8, 9\) into \(9, 9\)"),
    ("checkpoint-pca", b"pca.basis", 20, 6, "truncated"),  # (9 + 2**62, 9)
    # the cnn spec is "cnn 2 9 3": 2 branches of length 9, 3 classes
    ("checkpoint-cnn", b"cnn 2 9 3", 4, 2, r"1\.\.4 for cnn, got 6"),  # 2 -> 6 branches
    ("checkpoint-cnn", b"cnn 2 9 3", 8, 1, "1 classes: need at least 2"),  # 3 -> 1
    ("checkpoint-cnn", b"cnn 2 9 3", 5, 4,  # space -> "0": "cnn 209 3"
     "'cnn 209 3' is not 'kind scales input_length classes'"),
], ids=["name-utf8", "spec-utf8", "zero-size", "bad-size", "other-length",
        "wrong-shape", "huge-dim", "cnn-six-branches", "cnn-one-class",
        "spec-three-fields"])
def test_known_bit_flips_are_format_errors(corrupt_dir, kind, marker, offset, bit,
                                           reason):
    blob, load, bad = _pristine(kind, corrupt_dir)
    bad.write_bytes(_flip(blob, 8 * (blob.index(marker) + offset) + bit))
    with pytest.raises(FormatError, match=str(bad)) as info:
        load(bad)
    assert re.search(reason, str(info.value))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_truncation_is_a_format_error(artifact, data):
    blob, load, bad = artifact
    bad.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(FormatError):
        load(bad)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_bit_flip_loads_or_is_a_format_error(artifact, data):
    blob, load, bad = artifact
    bad.write_bytes(_flip(blob, data.draw(st.integers(0, 8 * len(blob) - 1))))
    try:
        loaded = load(bad)
    except FormatError:
        return
    if load is load_checkpoint:
        for name, owner, attr, shape in loaded[0].state_slots():
            assert getattr(owner, attr).shape == shape, name


# ------------------------------------------------------------------- labels

def test_labels_round_trip(tmp_path):
    path = tmp_path / "m.seg"
    save_labels(path, np.array([0, 3, 1, 1]))
    assert path.read_text() == "0\n3\n1\n1\n"
    assert load_labels(path).tolist() == [0, 3, 1, 1]


def test_labels_reject_garbage(tmp_path):
    path = tmp_path / "m.seg"
    path.write_text("0\n1\nfoo\n")
    with pytest.raises(FormatError, match="line 3.*'foo'"):
        load_labels(path)


def test_labels_reject_negative(tmp_path):
    path = tmp_path / "m.seg"
    path.write_text("0\n\n-2\n1\n")
    with pytest.raises(FormatError, match="m.seg: line 3: negative label -2"):
        load_labels(path)


def test_labels_name_the_file_and_line_of_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "m.seg"
    path.write_bytes(b"0\n1\n\xb3\n")
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: line 3: not an integer label: '\ufffd'")):
        load_labels(path)


def test_labels_skip_blank_lines(tmp_path):
    path = tmp_path / "m.seg"
    path.write_text("2\n\n 1 \n")
    assert load_labels(path).tolist() == [2, 1]


# -------------------------------------------------------------- fixed split

def _split(tmp_path, text):
    """load_fixed_split of a file holding text."""
    path = tmp_path / "split.txt"
    path.write_text(text)
    return load_fixed_split(path)


def test_fixed_split_parses_sections(tmp_path):
    train, test = _split(tmp_path, "# comment\ntrain:\n a\n b\ntest:\n c # trailing\n")
    assert train == ["a", "b"]
    assert test == ["c"]


def test_fixed_split_errors(tmp_path):
    with pytest.raises(FormatError, match="unknown section 'val'"):
        _split(tmp_path, "val:\n a\n")
    with pytest.raises(FormatError, match="before any section"):
        _split(tmp_path, "a\ntrain:\n")
    with pytest.raises(FormatError, match="duplicate section"):
        _split(tmp_path, "train:\na\ntrain:\nb\ntest:\nc\n")
    with pytest.raises(FormatError, match="missing or empty test"):
        _split(tmp_path, "train:\n a\n")
    with pytest.raises(FormatError, match="missing or empty train"):
        _split(tmp_path, "train:\ntest:\n c\n")
    with pytest.raises(FormatError, match="line 4: mesh 'a' already listed under train:"):
        _split(tmp_path, "train:\n a\ntest:\n a\n")
    with pytest.raises(FormatError, match="line 3: mesh 'b' already listed under train:"):
        _split(tmp_path, "train:\n b\n b\ntest:\n c\n")


def test_fixed_split_from_file(tmp_path):
    path = tmp_path / "split.txt"
    path.write_text("train:\n m1\ntest:\n m2\n")
    assert load_fixed_split(path) == (["m1"], ["m2"])
    path.write_text("nope:\n")
    with pytest.raises(FormatError, match=str(path.name)):
        load_fixed_split(path)


# --------------------------------------------------------------- PLY export

def test_ply_export_deterministic(tet, tmp_path):
    labels = np.array([0, 1, 2, 1])
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    export_colored_ply(tet, labels, a)
    export_colored_ply(tet, labels, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("ply\nformat ascii 1.0\n")
    face_lines = [l for l in text.splitlines() if l.startswith("3 ")]
    assert len(face_lines) == 4
    r, g, bl = PALETTE[1]
    assert face_lines[1].endswith(f"{r} {g} {bl}")
    assert face_lines[3].endswith(f"{r} {g} {bl}")


def test_ply_export_palette_wrap_warns(tet, tmp_path):
    labels = np.array([0, 1, 2, len(PALETTE)])
    with pytest.warns(UserWarning, match="palette"):
        export_colored_ply(tet, labels, tmp_path / "m.ply")
    text = (tmp_path / "m.ply").read_text()
    wrapped = text.splitlines()[-1]
    r, g, b = PALETTE[0]
    assert wrapped.endswith(f"{r} {g} {b}")  # label 22 wraps to color 0


def test_ply_export_label_count_mismatch(tet, tmp_path):
    with pytest.raises(ValueError, match="labels for 4 faces"):
        export_colored_ply(tet, np.zeros(3, dtype=int), tmp_path / "m.ply")
    assert not (tmp_path / "m.ply").exists()


# ----------------------------------------------------------------- manifest

def _write_manifest(tmp_path, doc):
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(doc))
    return path


def test_manifest_loads_and_resolves_paths(tmp_path):
    doc = {"name": "toy", "classes": ["top", "bottom"],
           "meshes": [{"id": "m0", "mesh": "meshes/m0.off", "labels": "labels/m0.seg"}]}
    manifest = load_manifest(_write_manifest(tmp_path, doc))
    assert manifest.name == "toy"
    assert manifest.classes == ("top", "bottom")
    mesh_id, mesh_path, labels_path = manifest.entries[0]
    assert mesh_id == "m0"
    assert mesh_path == tmp_path / "meshes/m0.off"
    assert labels_path == tmp_path / "labels/m0.seg"


def test_manifest_strictness(tmp_path):
    base = {"name": "toy", "classes": ["a"],
            "meshes": [{"id": "m0", "mesh": "x.off", "labels": "x.seg"}]}
    with pytest.raises(FormatError, match=r"unknown keys \['extra'\]"):
        load_manifest(_write_manifest(tmp_path, {**base, "extra": 1}))
    with pytest.raises(FormatError, match="missing 'classes'"):
        load_manifest(_write_manifest(tmp_path, {k: v for k, v in base.items()
                                                 if k != "classes"}))
    with pytest.raises(FormatError, match="nonempty list"):
        load_manifest(_write_manifest(tmp_path, {**base, "classes": []}))
    with pytest.raises(FormatError, match="exactly id/mesh/labels"):
        load_manifest(_write_manifest(
            tmp_path, {**base, "meshes": [{"id": "m0", "mesh": "x.off"}]}))
    with pytest.raises(FormatError, match="duplicate mesh id"):
        load_manifest(_write_manifest(
            tmp_path, {**base, "meshes": base["meshes"] * 2}))
    with pytest.raises(FormatError, match="meshes must list at least one mesh"):
        load_manifest(_write_manifest(tmp_path, {**base, "meshes": []}))
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    with pytest.raises(FormatError, match="invalid JSON"):
        load_manifest(bad)


@pytest.mark.parametrize("mesh_id", [
    "", "../../escaped", "sub/dir", "a\\b", "nul\0id", "/abs"])
def test_manifest_ids_stay_inside_the_output_directory(tmp_path, mesh_id):
    # run builds output file names from the ids
    path = _write_manifest(tmp_path, {
        "name": "toy", "classes": ["a", "b"],
        "meshes": [{"id": mesh_id, "mesh": "x.off", "labels": "x.seg"}]})
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: meshes[0].id must be a nonempty name without")):
        load_manifest(path)


def test_manifest_accepts_ids_with_dots_and_spaces(tmp_path):
    path = _write_manifest(tmp_path, {
        "name": "toy", "classes": ["a", "b"],
        "meshes": [{"id": i, "mesh": "x.off", "labels": "x.seg"}
                   for i in ("..", "a.b", "mesh 1")]})
    assert [e[0] for e in load_manifest(path).entries] == ["..", "a.b", "mesh 1"]


# --------------------------------------------------------- experiment config

def test_config_round_trip():
    cfg = parse_experiment_config({
        "dataset": "d.json",
        "protocol": {"kind": "kfold", "k": 4, "replicates": 2},
        "model": {"kind": "cnn", "branches": 2},
        "train": {"epochs": 9, "lr_start": 0.05, "lr_end": 0.001,
                  "momentum": 0.8, "batch_size": 64},
        "lambda": 0.5, "omega": 2.0, "seed": 7, "output_dir": "runs/a",
    })
    assert cfg.k == 4 and cfg.branches == 2 and cfg.lam == 0.5
    assert cfg.train.epochs == 9
    assert parse_experiment_config(experiment_config_to_dict(cfg)) == cfg


def test_config_defaults():
    cfg = parse_experiment_config({"dataset": "d.json"})
    assert cfg.protocol == "kfold" and cfg.k == 5 and cfg.replicates == 3
    assert cfg.model_kind == "cnn" and cfg.branches == 3
    assert cfg.train == TrainConfig()
    assert parse_experiment_config(experiment_config_to_dict(cfg)) == cfg


def test_config_branches_apply_to_the_cnn_only():
    for kind in ("pca-nn", "ae-nn"):
        cfg = parse_experiment_config({"dataset": "d", "model": {"kind": kind}})
        assert cfg.branches == 1
        assert experiment_config_to_dict(cfg)["model"] == {"kind": kind, "branches": 1}
        with pytest.raises(FormatError, match=f"model.branches must be 1 for {kind}, got 3"):
            parse_experiment_config({"dataset": "d",
                                     "model": {"kind": kind, "branches": 3}})
    cfg = parse_experiment_config({"dataset": "d", "model": {"kind": "cnn"}})
    assert cfg.branches == 3


@pytest.mark.parametrize("kind, branches", [
    ("svm", 1), ("cnn", 0), ("cnn", 5), ("pca-nn", 3), ("ae-nn", 2)])
def test_config_and_checkpoint_share_the_model_spec_rules(kind, branches):
    # the config is refused with the message a checkpoint of that spec gets
    with pytest.raises(ValueError) as built:
        build_model(kind, branches, len(DEFAULT_CHANNELS), 2, seed=0)
    with pytest.raises(FormatError) as parsed:
        parse_experiment_config({"dataset": "d",
                                 "model": {"kind": kind, "branches": branches}})
    assert str(parsed.value).endswith(str(built.value))


@pytest.mark.parametrize("protocol, key", [
    ({"kind": "loo", "k": 3}, "k"), ({"kind": "fixed", "file": "s.txt", "k": 3}, "k"),
    ({"kind": "loo", "file": "s.txt"}, "file"), ({"kind": "kfold", "file": "s.txt"}, "file"),
])
def test_config_rejects_protocol_keys_of_another_kind(protocol, key):
    # to_dict leaves them out, so they could not be echoed back
    with pytest.raises(FormatError, match=re.escape(f"cfg.json: protocol.{key} applies")):
        parse_experiment_config({"dataset": "d", "protocol": protocol}, where="cfg.json")


@pytest.mark.parametrize("protocol", [
    {"kind": "loo"}, {"kind": "kfold", "k": 3}, {"kind": "fixed", "file": "s.txt"}])
def test_config_round_trips_every_protocol(protocol):
    cfg = parse_experiment_config({"dataset": "d", "protocol": protocol})
    assert parse_experiment_config(experiment_config_to_dict(cfg)) == cfg


def test_config_rejects_unknown_keys_at_every_level():
    with pytest.raises(FormatError, match=r"unknown keys \['typo'\]"):
        parse_experiment_config({"dataset": "d", "typo": 1})
    with pytest.raises(FormatError, match=r"\.protocol: unknown keys"):
        parse_experiment_config({"dataset": "d", "protocol": {"kind": "loo", "folds": 5}})
    with pytest.raises(FormatError, match=r"\.model: unknown keys"):
        parse_experiment_config({"dataset": "d", "model": {"kind": "cnn", "depth": 9}})
    with pytest.raises(FormatError, match=r"\.train: unknown keys"):
        parse_experiment_config({"dataset": "d", "train": {"lr": 0.1}})


def test_config_semantic_errors_carry_location():
    with pytest.raises(FormatError, match="cfg.json: unknown protocol"):
        parse_experiment_config({"dataset": "d", "protocol": {"kind": "random"}},
                                where="cfg.json")
    with pytest.raises(FormatError, match="missing 'dataset'"):
        parse_experiment_config({}, where="cfg.json")
    with pytest.raises(FormatError, match="branches"):
        parse_experiment_config({"dataset": "d", "model": {"branches": 9}})
    with pytest.raises(FormatError, match="split file"):
        parse_experiment_config({"dataset": "d", "protocol": {"kind": "fixed"}})


@pytest.mark.parametrize("key, value", [
    ("omega", math.nan), ("omega", math.inf), ("lambda", math.nan),
    ("lambda", -math.inf), ("lambda", math.inf), ("lambda", -1.0),
])
def test_config_rejects_bad_refinement_weights(key, value):
    with pytest.raises(FormatError, match=key):
        parse_experiment_config({"dataset": "d", key: value}, where="cfg.json")


def test_config_echoes_integers_a_float_can_hold():
    big = 10 ** 308  # over 2**1023, under the largest float
    doc = experiment_config_to_dict(parse_experiment_config({
        "dataset": "d", "lambda": big, "omega": -3,
        "train": {"lr_start": 1, "lr_end": big, "momentum": 0}}))
    assert doc["lambda"] == float(big) and type(doc["lambda"]) is float
    assert doc["omega"] == -3.0 and type(doc["omega"]) is float
    for key, value in (("lr_start", 1), ("lr_end", big), ("momentum", 0)):
        assert doc["train"][key] == value and type(doc["train"][key]) is int


def test_config_train_keys_take_the_type_of_their_default():
    # a train key added to TrainConfig later gets the same rule
    defaults = TrainConfig()
    for f in dataclasses.fields(TrainConfig):
        doc = {"dataset": "d", "train": {f.name: 0.5}}
        if type(getattr(defaults, f.name)) is int:
            with pytest.raises(FormatError, match=re.escape(
                    f"train.{f.name} must be an integer, got 0.5")):
                parse_experiment_config(doc)
        else:
            assert getattr(parse_experiment_config(doc).train, f.name) == 0.5


def test_load_experiment_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset": "d.json", "seed": 3}))
    assert load_experiment_config(path).seed == 3
    path.write_text("[1, 2]")
    with pytest.raises(FormatError, match="JSON object"):
        load_experiment_config(path)


def test_dump_json_is_canonical():
    doc = {"b": 1, "a": {"z": [1.5, 2.0], "y": None}}
    text = dump_json(doc)
    assert text == dump_json(json.loads(text))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    with pytest.raises(ValueError):
        dump_json({"bad": float("nan")})
