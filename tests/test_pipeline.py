import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshseg.experiment as experiment
from meshseg.experiment import (
    cached_features,
    feature_cache_key,
    load_labeled_meshes,
    run_experiment,
)
from meshseg.formats import (
    load_feature_cache,
    load_manifest,
    parse_experiment_config,
    save_feature_cache,
    save_labels,
)
from meshseg.mesh import build_dual_graph, load_mesh_path
from meshseg.numerics import SolverError
from meshseg.synth import make_toy_dataset
from conftest import same_mesh_in_other_files, version_one_feature_cache


@pytest.fixture(scope="module")
def toy_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("toyset")
    return make_toy_dataset(root, n_meshes=6, subdivisions=1, seed=0)


def _config(manifest_path, out_dir, **overrides):
    doc = {
        "dataset": str(manifest_path),
        "protocol": {"kind": "kfold", "k": 3, "replicates": 2},
        "model": {"kind": "cnn", "branches": 2},
        "train": {"epochs": 3, "batch_size": 64},
        "lambda": 1.0,
        "omega": 1.0,
        "seed": 11,
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return parse_experiment_config(doc)


# ------------------------------------------------------------ data loading

def test_load_labeled_meshes_sorted_and_validated(toy_manifest):
    manifest = load_manifest(toy_manifest)
    meshes = load_labeled_meshes(manifest)
    assert [lm.mesh_id for lm in meshes] == sorted(lm.mesh_id for lm in meshes)
    assert all(len(lm.labels) == lm.mesh.n_faces for lm in meshes)


def test_load_labeled_meshes_rejects_out_of_vocabulary(toy_manifest, tmp_path):
    manifest = load_manifest(toy_manifest)
    mesh_id, mesh_path, labels_path = manifest.entries[0]
    bad_labels = tmp_path / "bad.seg"
    save_labels(bad_labels, np.full(load_mesh_path(mesh_path).n_faces, 7))
    patched = manifest.__class__(
        name=manifest.name, classes=manifest.classes,
        entries=((mesh_id, mesh_path, bad_labels),))
    with pytest.raises(RuntimeError, match=re.escape(
            f"mesh {mesh_id!r}: {bad_labels}: label 7 outside the 2-class "
            "vocabulary")) as got:
        load_labeled_meshes(patched)
    assert isinstance(got.value.__cause__, ValueError)


def test_load_labeled_meshes_names_failing_mesh(toy_manifest, tmp_path):
    manifest = load_manifest(toy_manifest)
    mesh_id, _, labels_path = manifest.entries[0]
    patched = manifest.__class__(
        name=manifest.name, classes=manifest.classes,
        entries=((mesh_id, tmp_path / "missing.off", labels_path),))
    with pytest.raises(RuntimeError, match=f"^mesh {mesh_id!r}: .*missing.off") as got:
        load_labeled_meshes(patched)
    assert isinstance(got.value.__cause__, FileNotFoundError)


# ------------------------------------------------------------ feature cache

def test_cached_features_computes_once(toy_manifest, tmp_path, monkeypatch):
    manifest = load_manifest(toy_manifest)
    lm = load_labeled_meshes(manifest)[0]
    calls = []
    real = experiment.compute_features

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiment, "compute_features", counting)
    cache_dir = tmp_path / "cache"
    graph = build_dual_graph(lm.mesh)
    first = cached_features(lm.mesh, cache_dir, graph)
    assert len(calls) == 1
    again = cached_features(lm.mesh, cache_dir, graph)
    assert len(calls) == 1  # served from the cache file
    assert np.array_equal(first, again)


def test_cached_features_recomputes_on_stale_or_garbage(toy_manifest, tmp_path,
                                                        monkeypatch):
    manifest = load_manifest(toy_manifest)
    lm, other = load_labeled_meshes(manifest)[:2]
    calls = []
    real = experiment.compute_features

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiment, "compute_features", counting)
    cache_dir = tmp_path / "cache"
    graph = build_dual_graph(lm.mesh)
    cached_features(lm.mesh, cache_dir, graph)
    cache_file = cache_dir / (feature_cache_key(lm.mesh) + ".feat")
    assert cache_file.exists()

    cache_file.write_bytes(b"garbage, not a cache at all")
    cached_features(lm.mesh, cache_dir, graph)
    assert len(calls) == 2  # unreadable cache is silently rebuilt

    # a cache that holds another mesh's key under this mesh's file name is
    # also rejected
    values = cached_features(lm.mesh, cache_dir, graph)
    assert len(calls) == 2
    save_feature_cache(cache_file, values, feature_cache_key(other.mesh))
    cached_features(lm.mesh, cache_dir, graph)
    assert len(calls) == 3

    # and so is one whose channel names are in another order
    blob = cache_file.read_bytes()
    assert blob.count(b"agd\nsdf") == 1
    cache_file.write_bytes(blob.replace(b"agd\nsdf", b"sdf\nagd"))
    cached_features(lm.mesh, cache_dir, graph)
    assert len(calls) == 4
    assert cache_file.read_bytes() == blob


def test_cached_features_propagates_loader_bugs(toy_manifest, tmp_path, monkeypatch):
    # only an unreadable cache (FormatError, OSError) is recomputed; any
    # other error from the loader is a bug and surfaces
    manifest = load_manifest(toy_manifest)
    lm = load_labeled_meshes(manifest)[0]
    cache_dir = tmp_path / "cache"
    graph = build_dual_graph(lm.mesh)
    cached_features(lm.mesh, cache_dir, graph)

    def broken(path, key):
        raise TypeError("loader bug")

    monkeypatch.setattr(experiment, "load_feature_cache", broken)
    with pytest.raises(TypeError, match="loader bug"):
        cached_features(lm.mesh, cache_dir, graph)


def test_cached_features_same_stem_in_two_directories(toy_manifest, tmp_path,
                                                      monkeypatch):
    manifest = load_manifest(toy_manifest)
    meshes = load_labeled_meshes(manifest)[:2]
    source = dict((e[0], e[1]) for e in manifest.entries)
    copies = []
    for sub, lm in zip("ab", meshes):
        path = tmp_path / sub / "chair.off"
        path.parent.mkdir()
        path.write_bytes(source[lm.mesh_id].read_bytes())
        copies.append(path)
    calls = []
    real = experiment.compute_features

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiment, "compute_features", counting)
    cache_dir = tmp_path / "cache"
    loaded = [load_mesh_path(path) for path in copies]
    first = [cached_features(mesh, cache_dir, build_dual_graph(mesh))
             for mesh in loaded]
    assert len(calls) == 2
    again = [cached_features(mesh, cache_dir, build_dual_graph(mesh))
             for mesh in loaded]
    assert len(calls) == 2  # neither file overwrote the other's cache
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], first[1])


def test_cached_features_reuse_the_cache_of_the_same_mesh_in_other_files(
        toy_manifest, tmp_path, monkeypatch):
    manifest = load_manifest(toy_manifest)
    (_, mesh_path, _), (_, other_path, _) = manifest.entries[:2]
    calls = []
    real = experiment.compute_features

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiment, "compute_features", counting)
    cache_dir = tmp_path / "cache"
    mesh = load_mesh_path(mesh_path)
    values = cached_features(mesh, cache_dir, build_dual_graph(mesh))
    assert len(calls) == 1
    for copy in same_mesh_in_other_files(mesh_path, tmp_path):
        assert copy.read_bytes() != mesh_path.read_bytes()
        same = load_mesh_path(copy)
        assert np.array_equal(cached_features(same, cache_dir, build_dual_graph(same)),
                              values)
        assert len(calls) == 1, copy.name
    other = load_mesh_path(other_path)
    cached_features(other, cache_dir, build_dual_graph(other))
    assert len(calls) == 2
    assert len(list(cache_dir.glob("*.feat"))) == 2


# -------------------------------------------------------------- experiment

@pytest.fixture(scope="module")
def toy_report(toy_manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = _config(toy_manifest, out)
    report = run_experiment(cfg, threads=1)
    return cfg, out, report


def test_report_structure(toy_report):
    cfg, out, report = toy_report
    assert report["format"] == "meshseg-report"
    assert report["version"] == 1
    assert report["dataset"]["n_meshes"] == 6
    # 3 folds of 2 test meshes, 2 replicates each
    assert report["summary"]["n_records"] == 12
    assert len(report["records"]) == 12
    for record in report["records"]:
        for key in ("mesh_id", "split", "replicate", "seed", "n_faces",
                    "accuracy_pre", "accuracy_post", "final_losses",
                    "refine_moves"):
            assert key in record
        assert 0.0 <= record["accuracy_pre"] <= 1.0
        assert 0.0 <= record["accuracy_post"] <= 1.0
        assert record["refine_moves"] >= 0
    assert len(report["summary"]["replicate_means_post"]) == 2
    assert set(report["summary"]["per_mesh_post"]) == {
        lm_id for split in report["splits"] for lm_id in split["test"]}


def test_every_mesh_tested_once_per_replicate(toy_report):
    _, _, report = toy_report
    counts = {}
    for record in report["records"]:
        counts[(record["mesh_id"], record["replicate"])] = counts.get(
            (record["mesh_id"], record["replicate"]), 0) + 1
    assert all(v == 1 for v in counts.values())
    assert len(counts) == 12


def test_no_test_mesh_in_its_training_fold(toy_report):
    _, _, report = toy_report
    split_train = {i: set(s["train"]) for i, s in enumerate(report["splits"])}
    for record in report["records"]:
        assert record["mesh_id"] not in split_train[record["split"]]
    for s in report["splits"]:
        assert not set(s["train"]) & set(s["test"])


def test_artifacts_on_disk(toy_report):
    _, out, report = toy_report
    assert (out / "report.json").exists()
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report
    probs = sorted(p.name for p in (out / "probs").iterdir())
    labels = sorted(p.name for p in (out / "labels").iterdir())
    assert len(probs) == 12 and len(labels) == 12
    assert probs[0].endswith(".prob") and labels[0].endswith(".seg")
    cache = list((out / "cache").glob("*.feat"))
    assert len(cache) == 6


def test_run_recomputes_and_rewrites_a_cache_of_version_one(toy_manifest, tmp_path,
                                                             monkeypatch):
    # a version 1 cache under the mesh's own key, holding the right values,
    # is retired like any unreadable one
    meshes = load_labeled_meshes(load_manifest(toy_manifest))
    cache_dir = tmp_path / "out" / "cache"
    cache_dir.mkdir(parents=True)
    old = {}
    for lm in meshes:
        key = feature_cache_key(lm.mesh)
        values, _ = experiment.compute_features(lm.mesh, build_dual_graph(lm.mesh))
        old[key] = values
        (cache_dir / f"{key}.feat").write_bytes(version_one_feature_cache(values, key))
    calls = []
    real = experiment.compute_features

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiment, "compute_features", counting)
    cfg = _config(toy_manifest, tmp_path / "out",
                  protocol={"kind": "kfold", "k": 3, "replicates": 1},
                  model={"kind": "pca-nn"}, train={"epochs": 1, "batch_size": 64})
    run_experiment(cfg, threads=1)
    assert len(calls) == len(meshes)
    assert sorted(p.stem for p in cache_dir.iterdir()) == sorted(old)
    for key, values in old.items():
        assert np.array_equal(load_feature_cache(cache_dir / f"{key}.feat", key), values)


def test_run_reads_each_mesh_file_once(toy_manifest, tmp_path, monkeypatch):
    reads = []
    real = Path.read_bytes

    def recording(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", recording)
    cfg = _config(toy_manifest, tmp_path / "once",
                  protocol={"kind": "kfold", "k": 3, "replicates": 1},
                  model={"kind": "pca-nn"}, train={"epochs": 1, "batch_size": 64})
    run_experiment(cfg, threads=1)
    mesh_reads = sorted(p.name for p in reads if p.suffix == ".off")
    mesh_files = sorted(e[1].name for e in load_manifest(toy_manifest).entries)
    assert mesh_reads == mesh_files


def test_inference_failure_names_its_unit(toy_manifest, tmp_path, monkeypatch):
    def failing(problem):
        raise SolverError("no cut")

    monkeypatch.setattr(experiment, "alpha_expansion", failing)
    cfg = _config(toy_manifest, tmp_path / "out",
                  protocol={"kind": "kfold", "k": 3, "replicates": 1},
                  model={"kind": "pca-nn"}, train={"epochs": 1, "batch_size": 64})
    # the unit raises bare errors; run_experiment names the unit
    with pytest.raises(RuntimeError, match="^split 0 replicate 0: no cut$") as got:
        run_experiment(cfg, threads=1)
    assert isinstance(got.value.__cause__, SolverError)
    assert not list((tmp_path / "out" / "models").iterdir())


def test_rerun_is_byte_identical(toy_report):
    cfg, out, _ = toy_report
    before = (out / "report.json").read_bytes()
    run_experiment(cfg, threads=1)
    assert (out / "report.json").read_bytes() == before


def _artifacts(out_dir):
    """Bytes of every feature cache, probability grid, label file and
    checkpoint under out_dir, by path relative to it."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.suffix in (".feat", ".prob", ".seg", ".ckpt")}


def test_threads_do_not_change_the_report(toy_manifest, tmp_path):
    cfg1 = _config(toy_manifest, tmp_path / "a")
    cfg2 = _config(toy_manifest, tmp_path / "b")
    r1 = run_experiment(cfg1, threads=1)
    r2 = run_experiment(cfg2, threads=3)
    r1["config"]["output_dir"] = r2["config"]["output_dir"] = ""
    assert r1 == r2
    a, b = _artifacts(tmp_path / "a"), _artifacts(tmp_path / "b")
    # caches, a .prob and a .seg per record, then a model per (split, replicate)
    assert len(a) == 6 + 12 + 12 + 6
    assert a == b


@pytest.mark.parametrize("threads", [0, -3])
def test_run_rejects_fewer_than_one_worker(toy_manifest, tmp_path, threads):
    cfg = _config(toy_manifest, tmp_path / "out")
    with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
        run_experiment(cfg, threads=threads)
    assert not (tmp_path / "out").exists()


def test_toy_script_rejects_fewer_than_one_worker(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_toy_experiment.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, str(script), "--fast", "--threads", "-3",
                           "--workdir", str(tmp_path / "toy")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode != 0
    assert "threads must be at least 1, got -3" in done.stderr
    assert not (tmp_path / "toy" / "out").exists()


def test_no_more_workers_than_meshes(tmp_path, monkeypatch):
    manifest_path = make_toy_dataset(tmp_path / "pair", n_meshes=2,
                                     subdivisions=1, seed=0)
    started = []
    real_pool = experiment.ProcessPoolExecutor

    def recording_pool(workers, **kwargs):
        started.append(workers)
        return real_pool(workers, **kwargs)

    pids = tmp_path / "pids"
    real_features = experiment.compute_features

    def recording_features(*args):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real_features(*args)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(experiment, "compute_features", recording_features)
    over = dict(protocol={"kind": "kfold", "k": 2, "replicates": 1},
                model={"kind": "pca-nn"}, train={"epochs": 2, "batch_size": 64})
    cfg1 = _config(manifest_path, tmp_path / "one", **over)
    cfg5 = _config(manifest_path, tmp_path / "five", **over)
    r1 = run_experiment(cfg1, threads=1)
    pids.unlink()
    r5 = run_experiment(cfg5, threads=5)
    assert started == [2]
    worker_pids = {int(pid) for pid in pids.read_text().split()}
    assert worker_pids and os.getpid() not in worker_pids
    r1["config"]["output_dir"] = r5["config"]["output_dir"] = ""
    assert r1 == r5
    assert _artifacts(tmp_path / "one") == _artifacts(tmp_path / "five")

    # one mesh leaves one worker: the features are built in this process
    pids.unlink()
    manifest = load_manifest(manifest_path)
    lone = load_labeled_meshes(manifest)[:1]
    cfg = _config(manifest_path, tmp_path / "lone", **over)
    bundles = experiment._prepare_bundles(lone, cfg, threads=4)
    assert list(bundles) == [lone[0].mesh_id]
    assert started == [2]
    assert pids.read_text().split() == [str(os.getpid())]


def test_dual_graph_built_once_per_mesh(toy_manifest, tmp_path, monkeypatch):
    import meshseg.features.matrix as matrix

    calls = []
    real = experiment.build_dual_graph

    def counting(mesh):
        calls.append(mesh)
        return real(mesh)

    monkeypatch.setattr(experiment, "build_dual_graph", counting)
    monkeypatch.setattr(matrix, "build_dual_graph", counting)
    cfg = _config(toy_manifest, tmp_path / "once",
                  protocol={"kind": "kfold", "k": 3, "replicates": 1},
                  model={"kind": "pca-nn"},
                  train={"epochs": 1, "batch_size": 64})
    run_experiment(cfg, threads=1)
    assert len(calls) == 6  # one per mesh: features and refinement share it
    assert len({id(m) for m in calls}) == 6


def test_pca_baseline_runs_leave_one_out(toy_manifest, tmp_path):
    cfg = _config(
        toy_manifest, tmp_path / "pca",
        protocol={"kind": "loo", "replicates": 1},
        model={"kind": "pca-nn"},
        train={"epochs": 2, "batch_size": 64})
    report = run_experiment(cfg, threads=1)
    assert report["summary"]["n_records"] == 6  # one per held-out mesh
    assert report["config"]["model"]["kind"] == "pca-nn"


def test_ae_baseline_report_echoes_one_branch(toy_manifest, tmp_path):
    # the flat models read one scale, and the report says so
    cfg = _config(toy_manifest, tmp_path / "ae",
                  protocol={"kind": "kfold", "k": 3, "replicates": 1},
                  model={"kind": "ae-nn"},
                  train={"epochs": 1, "batch_size": 64})
    run_experiment(cfg, threads=1)
    report = json.loads((tmp_path / "ae" / "report.json").read_text())
    assert report["config"]["model"] == {"kind": "ae-nn", "branches": 1}
