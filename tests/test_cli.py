"""In-process exercises of the command-line surface.

Every invocation goes through main(argv), so exit codes, the one-JSON-line
stdout contract, and the error category mapping are checked without
spawning subprocesses.
"""
import argparse
import json
import multiprocessing
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import meshseg.cli as cli
import meshseg.experiment as experiment
from meshseg.cli import main
from meshseg.features.matrix import DEFAULT_CHANNELS, NormalizationStats
from meshseg.formats import (
    CKPT_MAGIC,
    FormatError,
    load_checkpoint,
    load_feature_cache,
    load_labels,
    load_manifest,
    load_probabilities,
    save_checkpoint,
    save_feature_cache,
    save_labels,
    save_probabilities,
)
from meshseg.mesh import Mesh, load_mesh_path, save_off
from meshseg.neural.models import CnnModel
from meshseg.neural.training import TrainConfig
from meshseg.numerics import SolverError
from meshseg.synth import icosphere, make_toy_dataset
from conftest import (
    same_mesh_in_other_files,
    version_one_feature_cache,
    version_one_probabilities,
    write_feature_cache,
)


def invoke(argv, capsys):
    """Run the CLI in process; returns (exit code, stdout doc, stderr doc)."""
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    # stderr may hold verbose log lines; the error document is the last line
    err_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
    err = None
    if err_lines and err_lines[-1].startswith("{"):
        err = json.loads(err_lines[-1])
    return code, out, err


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: a 4-mesh labeled toy set plus a plain icosphere."""
    root = tmp_path_factory.mktemp("cli-ws")
    manifest = make_toy_dataset(root / "data", n_meshes=4, subdivisions=1,
                                seed=3)
    sphere = root / "sphere.off"
    save_off(icosphere(1), sphere)
    return {"root": root, "manifest": manifest,
            "data": root / "data", "sphere": sphere,
            "mesh0": root / "data" / "dumbbell-00.off",
            "truth0": root / "data" / "dumbbell-00.seg"}


def write_config(path, manifest, out_dir, **over):
    doc = {"dataset": str(manifest),
           "protocol": {"kind": "kfold", "k": 2, "replicates": 1},
           "model": {"kind": "pca-nn", "branches": 1},
           "train": {"epochs": 4, "lr_start": 0.01, "lr_end": 0.001,
                     "batch_size": 64},
           "lambda": 1.0, "omega": 1.0, "seed": 5, "output_dir": str(out_dir)}
    doc.update(over)
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------- features


def test_features_writes_cache_and_summary(ws, tmp_path, capsys):
    out = tmp_path / "sphere.feat"
    code, doc, _ = invoke(["features", str(ws["sphere"]), "-o", str(out)],
                          capsys)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["n_faces"] == 80
    assert doc["channels"] == list(DEFAULT_CHANNELS)
    assert doc["sdf_fallback_faces"] == 0
    values = load_feature_cache(
        out, experiment.feature_cache_key(load_mesh_path(ws["sphere"])))
    assert values.shape == (80, len(DEFAULT_CHANNELS))
    assert np.all(np.isfinite(values))


def test_stdout_is_one_json_line(ws, tmp_path, capsys):
    out = tmp_path / "f.feat"
    code = main(["features", str(ws["sphere"]), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("\n") == 1
    json.loads(captured.out)


# ------------------------------------------------------------------ smooth


def test_smooth_preserves_volume(ws, tmp_path, capsys):
    out = tmp_path / "smoothed.off"
    code, doc, _ = invoke(["smooth", str(ws["sphere"]), "-o", str(out),
                           "--iterations", "5"], capsys)
    assert code == 0
    smoothed = load_mesh_path(out)
    assert smoothed.n_vertices == 42
    # coarse 42-vertex sphere: inflate/shrink balance is loose but bounded
    drift = abs(doc["volume_after"] - doc["volume_before"])
    assert drift / doc["volume_before"] < 0.05


# ------------------------------------------------- train/segment/... chain


@pytest.fixture(scope="module")
def trained(ws, tmp_path_factory):
    """Checkpoint of one `train --threads 1` on the toy set."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root / "cfg.json", ws["manifest"], root / "out")
    ckpt = root / "model.ckpt"
    assert main(["train", "--config", str(cfg), "-o", str(ckpt),
                 "--threads", "1"]) == 0
    return ckpt


def test_train_segment_refine_eval_chain(ws, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"],
                       tmp_path / "out")
    ckpt = tmp_path / "model.ckpt"

    code, doc, _ = invoke(["train", "--config", str(cfg), "-o", str(ckpt)],
                          capsys)
    assert code == 0
    assert doc["n_meshes"] == 4
    assert ckpt.exists()
    assert doc["checkpoint"] == str(ckpt)
    assert all(np.isfinite(v) for v in doc["final_losses"].values())

    probs_path = tmp_path / "m0.prob"
    labels_path = tmp_path / "m0.seg"
    code, doc, _ = invoke(["segment", str(ws["mesh0"]),
                           "--checkpoint", str(ckpt),
                           "-o", str(probs_path),
                           "--labels-out", str(labels_path)], capsys)
    assert code == 0
    probs = load_probabilities(probs_path)
    assert probs.shape == (80, 2)
    assert probs.sum(axis=1) == pytest.approx(np.ones(80), abs=1e-9)
    assert np.array_equal(load_labels(labels_path), probs.argmax(axis=1))

    feat_path = tmp_path / "m0.feat"
    code, _, _ = invoke(["features", str(ws["mesh0"]), "-o", str(feat_path)],
                        capsys)
    assert code == 0

    refined_path = tmp_path / "m0.refined.seg"
    code, doc, _ = invoke(["refine", str(ws["mesh0"]),
                           "--probs", str(probs_path),
                           "--features", str(feat_path),
                           "-o", str(refined_path)], capsys)
    assert code == 0
    assert doc["final_energy"] <= doc["initial_energy"]
    assert doc["accepted_moves"] >= 0
    refined = load_labels(refined_path)
    assert refined.shape == (80,)

    code, doc, _ = invoke(["eval", "--mesh", str(ws["mesh0"]),
                           "--pred", str(refined_path),
                           "--truth", str(ws["truth0"])], capsys)
    assert code == 0
    assert 0.0 <= doc["accuracy"] <= 1.0


def test_train_threads_change_no_checkpoint_byte(ws, trained, tmp_path,
                                                 monkeypatch, capsys):
    workers = []
    real = cli._prepare_bundles

    def recording(meshes, cfg, threads):
        workers.append(threads)
        return real(meshes, cfg, threads)

    monkeypatch.setattr(cli, "_prepare_bundles", recording)
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out")
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = invoke(["train", "--config", str(cfg), "-o", str(ckpt),
                         "--threads", "2"], capsys)
    assert code == 0
    assert workers == [2]
    assert ckpt.read_bytes() == trained.read_bytes()


def test_segment_rejects_stats_channel_mismatch(ws, trained, tmp_path, capsys):
    names = "\n".join(DEFAULT_CHANNELS).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(trained.read_bytes().replace(
        struct.pack("<I", len(names)) + names,
        struct.pack("<I", len(names) + 6) + names + b"\nextra"))
    code, _, err = invoke(["segment", str(ws["mesh0"]), "--checkpoint", str(bad),
                           "-o", str(tmp_path / "junk.prob")], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert "trained on channels" in err["message"] and "'extra'" in err["message"]


def _no_features(*args):
    raise AssertionError("features computed for a checkpoint that cannot read them")


def test_segment_rejects_foreign_channel_checkpoint(ws, trained, tmp_path,
                                                    monkeypatch, capsys):
    blob = trained.read_bytes()
    assert blob.count(b"agd\nsdf") == 1
    bad = tmp_path / "swapped.ckpt"
    bad.write_bytes(blob.replace(b"agd\nsdf", b"sdf\nagd"))
    monkeypatch.setattr(experiment, "compute_features", _no_features)
    code, _, err = invoke(["segment", str(ws["mesh0"]), "--checkpoint", str(bad),
                           "-o", str(tmp_path / "junk.prob")], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(bad) in err["message"] and "channels" in err["message"]
    assert not (tmp_path / "junk.prob").exists()


def test_segment_rejects_a_model_of_another_input_length(ws, trained, tmp_path,
                                                         monkeypatch, capsys):
    # 9-channel stats, so only the model spec's input length is wrong
    blob = trained.read_bytes()
    assert blob.count(b"pca-nn 1 9 2") == 1
    bad = tmp_path / "five.ckpt"
    bad.write_bytes(blob.replace(b"pca-nn 1 9 2", b"pca-nn 1 5 2"))
    monkeypatch.setattr(experiment, "compute_features", _no_features)
    code, _, err = invoke(["segment", str(ws["mesh0"]), "--checkpoint", str(bad),
                           "-o", str(tmp_path / "junk.prob")], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(bad) in err["message"] and "input length 5" in err["message"]
    assert not (tmp_path / "junk.prob").exists()


def test_segment_rejects_version_one_checkpoint(ws, trained, tmp_path, capsys):
    blob = trained.read_bytes()
    old = tmp_path / "v1.ckpt"
    old.write_bytes(CKPT_MAGIC + struct.pack("<I", 1) + blob[len(CKPT_MAGIC) + 4:])
    code, _, err = invoke(["segment", str(ws["mesh0"]), "--checkpoint", str(old),
                           "-o", str(tmp_path / "junk.prob")], capsys)
    assert code == 3
    assert "regenerate" in err["message"]


def test_segment_rejects_batch_norm_stat_of_the_wrong_shape(ws, tmp_path, capsys):
    n = len(DEFAULT_CHANNELS)
    model = CnnModel(1, n, 2, seed=0, train_cfg=TrainConfig(epochs=1, batch_size=8))
    rng = np.random.default_rng(0)
    model.fit(rng.normal(size=(16, 1, n)), rng.integers(0, 2, 16))
    bn = model.net.layers[0].branches[0].layers[1]
    bn.running_mean = bn.running_mean[:1]
    ckpt = tmp_path / "cut.ckpt"
    save_checkpoint(ckpt, model, NormalizationStats(np.zeros(n), np.ones(n)))
    code, _, err = invoke(["segment", str(ws["mesh0"]), "--checkpoint", str(ckpt),
                           "-o", str(tmp_path / "junk.prob")], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(ckpt) in err["message"] and "b0.bn1.running_mean" in err["message"]
    assert not (tmp_path / "junk.prob").exists()


def test_segment_rejects_zero_size_descriptor(ws, trained, tmp_path, capsys):
    # the model spec: kind, scales, input length, classes
    blob = trained.read_bytes()
    assert blob.count(b"pca-nn 1 9 2") == 1
    bad = tmp_path / "d0.ckpt"
    bad.write_bytes(blob.replace(b"pca-nn 1 9 2", b"pca-nn 1 0 2"))
    code, _, err = invoke(["segment", str(ws["mesh0"]), "--checkpoint", str(bad),
                           "-o", str(tmp_path / "junk.prob")], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(bad) in err["message"] and "input length 0" in err["message"]


def test_train_segment_with_a_two_branch_cnn(ws, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out",
                       model={"kind": "cnn", "branches": 2},
                       train={"epochs": 2, "lr_start": 0.01, "lr_end": 0.001,
                              "batch_size": 64})
    ckpt = tmp_path / "cnn.ckpt"
    code, _, _ = invoke(["train", "--config", str(cfg), "-o", str(ckpt)], capsys)
    assert code == 0
    assert b"cnn 2 9 2" in ckpt.read_bytes()
    probs_path = tmp_path / "m0.prob"
    code, doc, _ = invoke(["segment", str(ws["mesh0"]), "--checkpoint", str(ckpt),
                           "-o", str(probs_path)], capsys)
    assert code == 0
    assert doc["n_classes"] == 2
    model, stats = load_checkpoint(ckpt)
    _, stack = experiment.mesh_features(load_mesh_path(ws["mesh0"]), 2)
    assert stack.shape == (80, 2, len(DEFAULT_CHANNELS))
    assert np.array_equal(load_probabilities(probs_path),
                          experiment.predict(model, stats, stack))


def test_refine_needs_agd_channel(ws, tmp_path, capsys):
    probs_path = tmp_path / "uniform.prob"
    save_probabilities(probs_path, np.full((80, 2), 0.5))
    feat_path = tmp_path / "onechannel.feat"
    # one channel under another key, then the agd channel alone under the
    # mesh's own key: refinement reads the nine channels or none
    key = experiment.feature_cache_key(load_mesh_path(ws["mesh0"]))
    for names, key in ((("sdf",), "x"), (("agd",), key)):
        write_feature_cache(feat_path, names, np.zeros((80, 1)), key)
        code, _, err = invoke(["refine", str(ws["mesh0"]),
                               "--probs", str(probs_path),
                               "--features", str(feat_path),
                               "-o", str(tmp_path / "r.seg")], capsys)
        assert code == 3
        assert err["category"] == "invalid-input"
        assert str(feat_path) in err["message"] and "agd" in err["message"]
        assert not (tmp_path / "r.seg").exists()


def test_refine_rejects_features_of_another_mesh(ws, tmp_path, capsys):
    probs_path = tmp_path / "uniform.prob"
    save_probabilities(probs_path, np.full((80, 2), 0.5))
    feat_path = tmp_path / "m1.feat"
    assert main(["features", str(ws["data"] / "dumbbell-01.off"),
                 "-o", str(feat_path)]) == 0
    capsys.readouterr()
    # same face count, so only the stored key tells the meshes apart
    code, _, err = invoke(["refine", str(ws["mesh0"]),
                           "--probs", str(probs_path),
                           "--features", str(feat_path),
                           "-o", str(tmp_path / "r.seg")], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert err["message"].startswith(
        f"{ws['mesh0']}: {feat_path}: features of another mesh or channel set")
    assert not (tmp_path / "r.seg").exists()


def test_refine_rejects_files_of_version_one(ws, tmp_path, capsys):
    probs = np.full((80, 2), 0.5)
    probs_path, feat_path = tmp_path / "m0.prob", tmp_path / "m0.feat"
    save_probabilities(probs_path, probs)
    assert main(["features", str(ws["mesh0"]), "-o", str(feat_path)]) == 0
    capsys.readouterr()
    key = experiment.feature_cache_key(load_mesh_path(ws["mesh0"]))
    values = load_feature_cache(feat_path, key)
    for old, blob in ((probs_path, version_one_probabilities(probs)),
                      (feat_path, version_one_feature_cache(values, key))):
        new = old.read_bytes()
        old.write_bytes(blob)
        code, _, err = invoke(["refine", str(ws["mesh0"]), "--probs", str(probs_path),
                               "--features", str(feat_path),
                               "-o", str(tmp_path / "r.seg")], capsys)
        assert code == 3
        assert err["category"] == "invalid-input"
        assert str(old) in err["message"] and "version 1" in err["message"]
        assert "regenerate" in err["message"]
        assert not (tmp_path / "r.seg").exists()
        old.write_bytes(new)


def test_refine_reuses_the_features_of_the_same_mesh_in_other_files(ws, tmp_path,
                                                                   capsys):
    probs_path = tmp_path / "skewed.prob"
    rng = np.random.default_rng(0)
    save_probabilities(probs_path, rng.dirichlet(np.ones(2), size=80))
    feat_path = tmp_path / "m0.feat"
    assert main(["features", str(ws["mesh0"]), "-o", str(feat_path)]) == 0
    capsys.readouterr()
    refined = {}
    for mesh in (ws["mesh0"], *same_mesh_in_other_files(ws["mesh0"], tmp_path)):
        out = tmp_path / f"{mesh.name}.seg"
        code, _, err = invoke(["refine", str(mesh), "--probs", str(probs_path),
                               "--features", str(feat_path), "-o", str(out)], capsys)
        assert code == 0, err
        refined[mesh.name] = out.read_bytes()
    assert len(refined) == 3 and len(set(refined.values())) == 1


# --------------------------------------------------------------------- run


def test_run_writes_report(ws, tmp_path, capsys):
    out_dir = tmp_path / "exp"
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], out_dir)
    code, doc, err = invoke(["run", "--config", str(cfg),
                             "--verbose", "--threads", "2"], capsys)
    assert code == 0
    # kfold k=2 over 4 meshes, 1 replicate: every mesh tested exactly once
    assert doc["n_records"] == 4
    assert 0.0 <= doc["mean_accuracy_post"] <= 1.0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["format"] == "meshseg-report"
    assert len(report["records"]) == 4


@pytest.mark.parametrize("kind, branches", [("cnn", 2), ("pca-nn", 1), ("ae-nn", 1)])
def test_segment_and_refine_reproduce_every_record_of_run(ws, tmp_path, capsys,
                                                         kind, branches):
    # run keeps the model of each (split, replicate); the single-step
    # commands, given it, run's feature cache and the config's weights,
    # write run's bytes
    out = tmp_path / "exp"
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], out,
                       protocol={"kind": "kfold", "k": 2, "replicates": 2},
                       model={"kind": kind, "branches": branches},
                       train={"epochs": 8, "batch_size": 64},
                       **{"lambda": 0.5, "omega": 2.0})
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    meshes = {mesh_id: path for mesh_id, path, _ in load_manifest(ws["manifest"]).entries}
    assert len(report["records"]) == 8
    for rec in report["records"]:
        unit = f"split{rec['split']}.rep{rec['replicate']}"
        tag = f"{rec['mesh_id']}.{unit}"
        mesh = meshes[rec["mesh_id"]]
        key = experiment.feature_cache_key(load_mesh_path(mesh))
        code, doc, _ = invoke(["segment", str(mesh),
                               "--checkpoint", str(out / "models" / f"{unit}.ckpt"),
                               "-o", str(tmp_path / f"{tag}.prob")], capsys)
        assert code == 0 and doc["seed"] == rec["seed"]
        code, doc, _ = invoke(["refine", str(mesh), "--probs", str(tmp_path / f"{tag}.prob"),
                               "--features", str(out / "cache" / f"{key}.feat"),
                               "--lambda", repr(report["config"]["lambda"]),
                               "--omega", repr(report["config"]["omega"]),
                               "-o", str(tmp_path / f"{tag}.seg")], capsys)
        assert code == 0 and doc["accepted_moves"] == rec["refine_moves"]
        assert ((tmp_path / f"{tag}.prob").read_bytes()
                == (out / "probs" / f"{tag}.prob").read_bytes())
        assert ((tmp_path / f"{tag}.seg").read_bytes()
                == (out / "labels" / f"{tag}.seg").read_bytes())


def test_run_verbose_logs_progress(ws, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"],
                       tmp_path / "exp")
    code = main(["run", "--config", str(cfg), "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    assert "features ready" in captured.err


# ---------------------------------------------------------- export-colored


def test_export_colored_is_deterministic(ws, tmp_path, capsys):
    labels_path = tmp_path / "labels.seg"
    labels_path.write_text("".join(f"{i % 2}\n" for i in range(80)))
    ply_a = tmp_path / "a.ply"
    ply_b = tmp_path / "b.ply"
    for ply in (ply_a, ply_b):
        code, doc, _ = invoke(["export-colored", str(ply),
                               "--mesh", str(ws["sphere"]),
                               "--labels", str(labels_path)], capsys)
        assert code == 0
        assert doc["n_labels"] == 2
    content = ply_a.read_bytes()
    assert content == ply_b.read_bytes()
    assert content.startswith(b"ply")


@pytest.mark.parametrize("argv", [
    ["eval", "--mesh", "{mesh}", "--pred", "{labels}", "--truth", "{truth}"],
    ["eval", "--mesh", "{mesh}", "--pred", "{truth}", "--truth", "{labels}"],
    ["export-colored", "{out}", "--mesh", "{mesh}", "--labels", "{labels}"],
], ids=["eval-pred", "eval-truth", "export-colored"])
def test_negative_label_exit_three(ws, tmp_path, capsys, argv):
    labels = tmp_path / "neg.seg"
    labels.write_text("0\n" * 5 + "-1\n" + "1\n" * 74)
    paths = {"mesh": ws["mesh0"], "truth": ws["truth0"], "labels": labels,
             "out": tmp_path / "x.ply"}
    code, _, err = invoke([a.format(**paths) for a in argv], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert f"{labels}: line 6: negative label -1" in err["message"]
    assert not (tmp_path / "x.ply").exists()


def test_export_colored_rejects_count_mismatch(ws, tmp_path, capsys):
    labels_path = tmp_path / "short.seg"
    labels_path.write_text("0\n1\n0\n")
    code, _, err = invoke(["export-colored", str(tmp_path / "x.ply"),
                           "--mesh", str(ws["sphere"]),
                           "--labels", str(labels_path)], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"


# ----------------------------------------------------------- exit codes


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["features"])  # missing required -o
    assert exc.value.code == 2


def test_gradcheck_is_not_a_command(capsys):
    # the finite-difference check runs in the test suite, not the CLI
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "gradcheck" in err


def test_readme_command_table_names_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = re.findall(r"^\| `meshseg ([\w-]+)", readme, re.MULTILINE)
    subparsers, = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert len(documented) == len(set(documented))
    assert set(documented) == set(subparsers.choices)


@pytest.mark.parametrize("command", ["train", "run"])
@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exit_two(ws, tmp_path, capsys, command, threads):
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out")
    argv = [command, "--config", str(cfg), "--threads", threads]
    if command == "train":
        argv += ["-o", str(tmp_path / "model.ckpt")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "model.ckpt").exists()


def test_missing_file_exit_four(tmp_path, capsys):
    code, _, err = invoke(["features", str(tmp_path / "ghost.off"),
                           "-o", str(tmp_path / "f.feat")], capsys)
    assert code == 4
    assert err["status"] == "error"
    assert err["category"] == "missing-file"


def test_missing_checkpoint_exit_four(tmp_path, capsys):
    code, _, err = invoke(["segment", "any.off",
                           "--checkpoint", str(tmp_path / "none.ckpt"),
                           "-o", str(tmp_path / "p.prob")], capsys)
    assert code == 4
    assert err["category"] == "missing-file"


def test_bad_config_exit_three(ws, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dataset": str(ws["manifest"]), "bogus": 1}))
    code, _, err = invoke(["train", "--config", str(cfg),
                           "-o", str(tmp_path / "m.ckpt")], capsys)
    assert code == 3
    assert "bogus" in err["message"]


def test_seed_too_large_for_the_checkpoint_exit_three(ws, tmp_path, capsys):
    # a checkpoint stores the seed as an unsigned 64-bit integer
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out",
                       seed=2 ** 64)
    ckpt = tmp_path / "m.ckpt"
    code, _, err = invoke(["train", "--config", str(cfg), "-o", str(ckpt)], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(cfg) in err["message"] and "seed" in err["message"]
    assert not ckpt.exists()


def test_features_negative_off_count_exit_three(tmp_path, capsys):
    mesh = tmp_path / "neg.off"
    mesh.write_text("OFF\n# counts\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n")
    code, _, err = invoke(["features", str(mesh), "-o", str(tmp_path / "m.feat")],
                          capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert "line 3: negative vertex or face count" in err["message"]
    assert not (tmp_path / "m.feat").exists()


@pytest.mark.parametrize("key, value", [("omega", float("nan")),
                                        ("lambda", -1.0)])
def test_run_rejects_bad_refinement_weight_before_any_work(ws, tmp_path, capsys,
                                                          key, value):
    # json writes and reads NaN, so the loader must reject it itself
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"],
                       tmp_path / "out", **{key: value})
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert key in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("epochs", 0), ("epochs", -3), ("batch_size", 1), ("batch_size", 0),
    ("lr_start", 0.0), ("lr_start", -0.01), ("lr_end", float("inf")),
    ("momentum", float("nan")), ("momentum", 1.0), ("momentum", -0.1),
])
def test_run_rejects_bad_train_values_before_any_work(ws, tmp_path, capsys,
                                                      key, value):
    train = {"epochs": 4, "lr_start": 0.01, "lr_end": 0.001, "batch_size": 64,
             key: value}
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out",
                       train=train)
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(cfg) in err["message"] and key in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("train", "epochs", "4"), ("train", "epochs", 2.5), ("train", "batch_size", True),
    ("train", "lr_start", "0.1"), ("train", "lr_end", None), ("train", "momentum", False),
    ("protocol", "k", 2.0), ("protocol", "replicates", "1"), ("model", "branches", True),
    (None, "seed", 5.0), (None, "lambda", "1"), (None, "omega", True),
])
def test_run_rejects_config_values_of_the_wrong_type(ws, tmp_path, capsys,
                                                     section, key, value):
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out")
    doc = json.loads(cfg.read_text())
    (doc[section] if section else doc)[key] = value
    cfg.write_text(json.dumps(doc))
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(cfg) in err["message"] and key in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [
    (None, "lambda"), (None, "omega"), ("train", "lr_start"),
    ("train", "lr_end"), ("train", "momentum"),
])
def test_run_rejects_numbers_too_large_for_a_float(ws, tmp_path, capsys,
                                                   section, key):
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out")
    doc = json.loads(cfg.read_text())
    (doc[section] if section else doc)[key] = 10 ** 400
    cfg.write_text(json.dumps(doc))
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    name = f"{section}.{key}" if section else key
    assert err["message"] == (f"{cfg}: {name} must be a number a float can "
                              "hold, got an integer of 1329 bits")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize("key, value, field", [
    ("dataset", 5, "dataset"),
    ("output_dir", 7, "output_dir"),
    ("model", [], "model"),
    ("protocol", {"kind": "fixed", "file": 3}, "protocol.file"),
    ("protocol", {"kind": "kfold", "k": 1}, "protocol.k"),
    ("protocol", {"kind": "kfold", "k": 2, "replicates": 0}, "protocol.replicates"),
    ("protocol", {"kind": "loo", "k": 3}, "protocol.k"),
    ("protocol", {"kind": "kfold", "k": 2, "file": "split.txt"}, "protocol.file"),
], ids=["dataset-int", "output-dir-int", "model-list", "split-file-int",
        "one-fold", "no-replicates", "k-outside-kfold", "file-outside-fixed"])
def test_bad_config_exits_three_for_every_command(ws, tmp_path, capsys, command,
                                                  key, value, field):
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out",
                       **{key: value})
    ckpt = tmp_path / "m.ckpt"
    argv = [command, "--config", str(cfg)] + (["-o", str(ckpt)] if command == "train"
                                              else [])
    code, _, err = invoke(argv, capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(cfg) in err["message"] and field in err["message"]
    assert not (tmp_path / "out").exists() and not ckpt.exists()


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc.update(meshes=5), "meshes"),
    (lambda doc: doc["meshes"][0].update(mesh=5), "meshes[0].mesh"),
    (lambda doc: doc.update(name=7), "name"),
    (lambda doc: doc["meshes"][1].update(id=3), "meshes[1].id"),
    (lambda doc: doc["meshes"][1].update(id="../../escaped"), "meshes[1].id"),
    (lambda doc: doc["meshes"][0].update(id="sub/dir"), "meshes[0].id"),
    (lambda doc: doc["meshes"][0].update(id=""), "meshes[0].id"),
    (lambda doc: doc.update(meshes=[]), "meshes must list at least one mesh"),
], ids=["meshes-int", "mesh-path-int", "name-int", "id-int-beside-str",
        "id-leaves-output-dir", "id-with-slash", "id-empty", "no-meshes"])
def test_bad_manifest_exits_three_for_every_command(ws, tmp_path, capsys, command,
                                                    edit, field):
    manifest = write_manifest(tmp_path / "m.json", ws, ws["mesh0"])
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out")
    ckpt = tmp_path / "m.ckpt"
    argv = [command, "--config", str(cfg)] + (["-o", str(ckpt)] if command == "train"
                                              else [])
    code, _, err = invoke(argv, capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(manifest) in err["message"] and field in err["message"]
    assert not (tmp_path / "out").exists() and not ckpt.exists()
    assert not list(tmp_path.glob("escaped.*"))


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize("kind, branches", [("cnn", 2), ("pca-nn", 1)])
def test_one_class_manifest_exits_three_for_every_command(ws, tmp_path, capsys,
                                                          command, kind, branches):
    manifest = write_manifest(tmp_path / "m.json", ws, ws["mesh0"])
    doc = json.loads(manifest.read_text())
    doc["classes"] = doc["classes"][:1]
    # every face in the one class, so that only the class count is wrong
    for i, rec in enumerate(doc["meshes"]):
        seg = tmp_path / f"{i}.seg"
        save_labels(seg, np.zeros_like(load_labels(rec["labels"])))
        rec["labels"] = str(seg)
    manifest.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out",
                       model={"kind": kind, "branches": branches})
    ckpt = tmp_path / "m.ckpt"
    argv = [command, "--config", str(cfg)] + (["-o", str(ckpt)] if command == "train"
                                              else [])
    code, _, err = invoke(argv, capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(manifest) in err["message"]
    assert "need at least 2 classes, got 1" in err["message"]
    assert not (tmp_path / "out").exists() and not ckpt.exists()


@pytest.mark.parametrize("split", [
    "train:\ndumbbell-00\ndumbbell-01\ntest:\ndumbbell-01\ndumbbell-02\n",
    "train:\ndumbbell-00\ndumbbell-00\ntest:\ndumbbell-01\n",
], ids=["train-and-test", "twice-in-train"])
def test_run_rejects_mesh_listed_twice_in_split(ws, tmp_path, capsys, split):
    split_file = tmp_path / "split.txt"
    split_file.write_text(split)
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out",
                       protocol={"kind": "fixed", "file": str(split_file),
                                 "replicates": 1})
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert str(split_file) in err["message"] and "already listed" in err["message"]
    assert not (tmp_path / "out").exists()


def fixed_split_config(tmp_path, manifest, split_text):
    """A fixed-protocol config over manifest, with its split file."""
    split = tmp_path / "split.txt"
    split.write_text(split_text)
    return write_config(tmp_path / "cfg.json", manifest, tmp_path / "out",
                        protocol={"kind": "fixed", "file": str(split),
                                  "replicates": 1}), split


@pytest.mark.parametrize("command, name", [
    ("run", "config"), ("run", "manifest"), ("run", "split"),
    ("train", "config"), ("train", "manifest")])
def test_a_text_input_that_is_not_utf8_is_named(ws, tmp_path, capsys, command, name):
    manifest = write_manifest(tmp_path / "m.json", ws, ws["mesh0"])
    cfg, split = fixed_split_config(tmp_path, manifest,
                                    "train:\ndumbbell-00\ntest:\ndumbbell-01\n")
    path = {"config": cfg, "manifest": manifest, "split": split}[name]
    path.write_bytes(path.read_bytes() + b"\xb3")
    ckpt = tmp_path / "m.ckpt"
    extra = ["-o", str(ckpt)] if command == "train" else []
    code, _, err = invoke([command, "--config", str(cfg), *extra], capsys)
    assert code == 3
    assert err["message"].startswith(f"{path}: not UTF-8 at byte ")
    assert not (tmp_path / "out").exists() and not ckpt.exists()


def test_run_names_the_split_file_of_an_unknown_mesh_id(ws, tmp_path, capsys):
    cfg, split = fixed_split_config(tmp_path, ws["manifest"],
                                    "train:\ndumbbell-00\ntest:\ndumbbell-07\n")
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 3
    assert err["message"] == (f"{split} against {ws['manifest']}: fixed split "
                              "references unknown mesh ids ['dumbbell-07']")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize("labels, message", [
    (np.zeros(79, dtype=int), "{seg}: 79 labels for the 80 faces of {mesh}"),
    (np.r_[np.zeros(79, dtype=int), 7], "{seg}: label 7 outside the 2-class vocabulary"),
], ids=["one-row-short", "out-of-vocabulary"])
def test_run_and_train_name_the_label_file_at_fault(ws, tmp_path, capsys, command,
                                                   labels, message):
    seg = tmp_path / "bad.seg"
    save_labels(seg, labels)
    manifest = write_manifest(tmp_path / "m.json", ws, ws["mesh0"], seg)
    cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out")
    extra = ["-o", str(tmp_path / "m.ckpt")] if command == "train" else []
    code, _, err = invoke([command, "--config", str(cfg), *extra], capsys)
    assert code == 3
    assert err["message"] == (f"{manifest}: mesh 'dumbbell-00': "
                              + message.format(seg=seg, mesh=ws["mesh0"]))


def test_refine_rejects_nan_omega(ws, tmp_path, capsys):
    probs_path = tmp_path / "uniform.prob"
    save_probabilities(probs_path, np.full((80, 2), 0.5))
    feat_path = tmp_path / "m0.feat"
    assert main(["features", str(ws["mesh0"]), "-o", str(feat_path)]) == 0
    capsys.readouterr()
    code, _, err = invoke(["refine", str(ws["mesh0"]),
                           "--probs", str(probs_path),
                           "--features", str(feat_path),
                           "--omega", "nan",
                           "-o", str(tmp_path / "r.seg")], capsys)
    assert code == 3
    assert "omega" in err["message"]
    assert not (tmp_path / "r.seg").exists()


def test_eval_length_mismatch_exit_three(ws, tmp_path, capsys):
    short = tmp_path / "short.seg"
    short.write_text("0\n1\n")
    code, _, err = invoke(["eval", "--mesh", str(ws["mesh0"]),
                           "--pred", str(short),
                           "--truth", str(ws["truth0"])], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"


@pytest.mark.parametrize("command, flag, what", [
    ("refine", "probs", "probability rows"),
    ("refine", "features", "feature rows"),
    ("eval", "pred", "labels"),
    ("eval", "truth", "labels"),
    ("export-colored", "labels", "labels"),
])
def test_checks_between_files_name_the_file_and_both_counts(ws, tmp_path, capsys,
                                                            command, flag, what):
    mesh = ws["mesh0"]
    files = {name: tmp_path / f"{name}.{ext}" for name, ext in (
        ("probs", "prob"), ("features", "feat"), ("pred", "seg"), ("truth", "seg"),
        ("labels", "seg"))}
    rows = {name: 5 if name == flag else 80 for name in files}
    save_probabilities(files["probs"], np.full((rows["probs"], 2), 0.5))
    save_feature_cache(files["features"], np.zeros((rows["features"], 9)),
                       experiment.feature_cache_key(load_mesh_path(mesh)))
    for name in ("pred", "truth", "labels"):
        save_labels(files[name], np.zeros(rows[name], dtype=int))
    out = tmp_path / "out"
    argv = {"refine": ["refine", str(mesh), "--probs", str(files["probs"]),
                       "--features", str(files["features"]), "-o", str(out)],
            "eval": ["eval", "--mesh", str(mesh), "--pred", str(files["pred"]),
                     "--truth", str(files["truth"])],
            "export-colored": ["export-colored", str(out), "--mesh", str(mesh),
                               "--labels", str(files["labels"])]}[command]
    code, _, err = invoke(argv, capsys)
    assert code == 3
    assert err["message"] == f"{files[flag]}: 5 {what} for the 80 faces of {mesh}"
    assert not out.exists()


def test_refine_names_the_mesh_file_it_cannot_read(ws, tmp_path, capsys):
    # refine reads three files, so a bad record names which one
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n")
    probs = tmp_path / "uniform.prob"
    save_probabilities(probs, np.full((1, 2), 0.5))
    code, _, err = invoke(["refine", str(bad), "--probs", str(probs),
                           "--features", str(tmp_path / "any.feat"),
                           "-o", str(tmp_path / "r.seg")], capsys)
    assert code == 3
    assert err["message"] == (f"{bad}: line 4: malformed vertex: could not convert "
                              "string to float: 'x'")


def write_fan(path):
    """An OFF mesh that parses but whose dual graph fails: the edge (0, 1)
    is shared by three of its six faces."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 1], [0, -1, 0],
                      [1, 1, 1], [-1, 1, 0], [1, -1, 2]], dtype=float)
    faces = [[2, 3, 5], [0, 1, 2], [3, 2, 6], [0, 1, 3], [2, 3, 7], [1, 0, 4]]
    save_off(Mesh(verts, faces), path)
    return path


def write_far_vertex(path, ws):
    """dumbbell-00 with its first vertex a million units away: a valid mesh
    whose conformal-factor solve breaks down (exit 5)."""
    lines = ws["mesh0"].read_text().splitlines()
    lines[2] = " ".join(["1e6", *lines[2].split()[1:]])
    path.write_text("\n".join(lines) + "\n")
    return path


def test_features_names_a_non_manifold_mesh_file(tmp_path, capsys):
    # the mesh parses; its dual graph is what fails
    path = write_fan(tmp_path / "fan.off")
    code, _, err = invoke(["features", str(path), "-o", str(tmp_path / "f.feat")], capsys)
    assert code == 3
    assert err["message"] == f"{path}: non-manifold mesh edge (0, 1) shared by 3 faces"
    assert not (tmp_path / "f.feat").exists()


def write_manifest(path, ws, mesh0, labels0=None):
    """The toy manifest with absolute paths and dumbbell-00's mesh (and
    labels, where given) replaced."""
    doc = json.loads(ws["manifest"].read_text())
    for rec in doc["meshes"]:
        rec["mesh"] = str(ws["data"] / rec["mesh"])
        rec["labels"] = str(ws["data"] / rec["labels"])
    doc["meshes"][0]["mesh"] = str(mesh0)
    if labels0:
        doc["meshes"][0]["labels"] = str(labels0)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["run", "train"])
def test_run_and_train_name_a_mesh_whose_features_fail(ws, tmp_path, capsys,
                                                       command, threads):
    fan = write_fan(tmp_path / "fan.off")
    save_labels(tmp_path / "fan.seg", np.zeros(6, dtype=int))
    manifest = write_manifest(tmp_path / "m.json", ws, fan, tmp_path / "fan.seg")
    cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out")
    extra = ["-o", str(tmp_path / "m.ckpt")] if command == "train" else []
    code, _, err = invoke([command, "--config", str(cfg), "--threads", threads, *extra],
                          capsys)
    assert code == 3
    assert err["message"] == (f"mesh 'dumbbell-00': {fan}: non-manifold mesh edge "
                              "(0, 1) shared by 3 faces")


@pytest.mark.parametrize("command", ["features", "run"])
def test_a_failed_conformal_solve_names_its_mesh(ws, tmp_path, capsys, command):
    far = write_far_vertex(tmp_path / "far.off", ws)
    if command == "features":
        argv, named = ["features", str(far), "-o", str(tmp_path / "f.feat")], f"{far}: "
    else:
        manifest = write_manifest(tmp_path / "m.json", ws, far)
        cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out")
        argv, named = ["run", "--config", str(cfg)], f"mesh 'dumbbell-00': {far}: "
    code, _, err = invoke(argv, capsys)
    assert code == 5
    assert err["category"] == "numeric"
    assert err["message"].startswith(named)


def test_run_missing_mesh_exit_four(ws, tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json", ws, tmp_path / "ghost.off")
    cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out")
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 4
    assert err["category"] == "missing-file"
    assert err["message"].startswith(f"{manifest}: mesh 'dumbbell-00': ")
    assert str(tmp_path / "ghost.off") in err["message"]


def test_a_directory_where_a_file_should_be_exits_four(ws, tmp_path, capsys):
    code, _, err = invoke(["eval", "--mesh", str(ws["mesh0"]), "--pred", str(tmp_path),
                           "--truth", str(ws["truth0"])], capsys)
    assert code == 4 and err["category"] == "missing-file"
    cfg = write_config(tmp_path / "cfg.json", tmp_path, tmp_path / "out")
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 4 and str(tmp_path) in err["message"]
    code, _, err = invoke(["run", "--config", str(cfg / "nested.json")], capsys)
    assert code == 4 and err["category"] == "missing-file"


def test_train_missing_mesh_exit_four(ws, tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json", ws, tmp_path / "ghost.off")
    cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out")
    code, _, err = invoke(["train", "--config", str(cfg),
                           "-o", str(tmp_path / "m.ckpt")], capsys)
    assert code == 4
    assert err["category"] == "missing-file"


def test_run_degenerate_mesh_exit_three(ws, tmp_path, capsys):
    mesh = load_mesh_path(ws["mesh0"])
    verts = np.vstack([mesh.vertices, mesh.vertices[:2].mean(axis=0)])
    faces = np.vstack([mesh.faces, [[0, 1, len(verts) - 1]]])  # zero area
    (tmp_path / "flat.off").write_text("\n".join(
        ["OFF", f"{len(verts)} {len(faces)} 0",
         *(f"{x!r} {y!r} {z!r}" for x, y, z in verts.tolist()),
         *(f"3 {a} {b} {c}" for a, b, c in faces.tolist())]) + "\n")
    manifest = write_manifest(tmp_path / "m.json", ws, tmp_path / "flat.off")
    cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out")
    code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 3
    assert err["category"] == "invalid-input"
    assert "degenerate" in err["message"]


def test_run_diverging_training_exit_five(ws, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", ws["manifest"], tmp_path / "out",
                       train={"epochs": 2, "lr_start": 1e200, "lr_end": 1e200,
                              "batch_size": 64})
    with np.errstate(all="ignore"):
        code, _, err = invoke(["run", "--config", str(cfg)], capsys)
    assert code == 5
    assert err["category"] == "numeric"
    assert err["message"].startswith("split 0 replicate 0: non-finite loss")


@pytest.mark.parametrize("error, code, category", [
    (SolverError("conformal solve did not converge"), 5, "numeric"),
    (FormatError("feature channel out of range"), 3, "invalid-input"),
])
def test_feature_worker_failure_keeps_exit_code(ws, tmp_path, monkeypatch, capsys,
                                                error, code, category):
    errors, pids = {}, {}
    for threads in ("1", "2"):
        record = tmp_path / f"pids{threads}"

        def failing(*args, record=record):
            with open(record, "a") as f:
                f.write(f"{os.getpid()}\n")
            raise error

        monkeypatch.setattr(experiment, "compute_features", failing)
        cfg = write_config(tmp_path / f"cfg{threads}.json", ws["manifest"],
                           tmp_path / f"out{threads}")
        got, _, errors[threads] = invoke(["run", "--config", str(cfg),
                                          "--threads", threads], capsys)
        assert got == code
        pids[threads] = {int(pid) for pid in record.read_text().split()}
    # each worker count names the first mesh, by id and file
    assert errors["1"] == errors["2"] == {
        "status": "error", "category": category,
        "message": f"mesh 'dumbbell-00': {ws['mesh0']}: {error}"}
    assert multiprocessing.active_children() == []
    assert pids["1"] == {os.getpid()}
    assert pids["2"] and os.getpid() not in pids["2"]


def _smooth_raising(exc, ws, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise exc
    monkeypatch.setattr("meshseg.cli.taubin_smooth", boom)
    out = tmp_path / "smoothed.off"
    result = invoke(["smooth", str(ws["sphere"]), "-o", str(out)], capsys)
    assert not out.exists()
    return result


def test_numeric_failure_exit_five(ws, tmp_path, monkeypatch, capsys):
    code, out, err = _smooth_raising(SolverError("iteration diverged"),
                                     ws, tmp_path, monkeypatch, capsys)
    assert code == 5 and out is None
    assert err == {"status": "error", "category": "numeric",
                   "message": f"{ws['sphere']}: iteration diverged"}


def test_unexpected_error_exit_one(ws, tmp_path, monkeypatch, capsys):
    # a KeyError is a program fault: no input check raises one
    for exc in (OSError("disk on fire"), KeyError("slot")):
        code, out, err = _smooth_raising(exc, ws, tmp_path, monkeypatch, capsys)
        assert code == 1 and out is None
        assert err == {"status": "error", "category": "internal",
                       "message": f"{ws['sphere']}: {exc}"}
