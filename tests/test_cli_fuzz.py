"""Seeded byte-level fuzzing of the exit-code contract.

Each case truncates, flips, inserts or deletes bytes in one input file of
a command, on 80-face meshes, and runs the command through `main`. Every
case must exit 0, 3 (invalid input) or 4 (missing file), and an exit-3
message must name the edited file. A mesh is the one file that may also
exit 5: a vertex moved thousands of units away leaves a valid mesh whose
conformal-factor solve breaks down in float64, which is the documented
numeric category, not an input error.

The single-step commands get their inputs edited one at a time; `train`
and `run` get their config, manifest and (for `run`) fixed split file
edited, each case in a directory of its own.
"""
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from meshseg.cli import main
from meshseg.formats import load_experiment_config
from meshseg.synth import make_toy_dataset

COMMANDS = {
    "features": (["features", "{mesh}", "-o", "{out}/o.feat"], ["mesh"]),
    "segment": (["segment", "{mesh}", "--checkpoint", "{ckpt}", "-o", "{out}/o.prob"],
                ["mesh", "ckpt"]),
    "refine": (["refine", "{mesh}", "--probs", "{prob}", "--features", "{feat}",
                "-o", "{out}/o.seg"], ["mesh", "prob", "feat"]),
    "eval": (["eval", "--mesh", "{mesh}", "--pred", "{seg}", "--truth", "{truth}"],
             ["mesh", "seg", "truth"]),
    "export-colored": (["export-colored", "{out}/o.ply", "--mesh", "{mesh}",
                        "--labels", "{seg}"], ["mesh", "seg"]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs of every command: a mesh, its ground truth, a pca-nn
    checkpoint, the mesh's feature cache, probabilities and labels."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = make_toy_dataset(root / "data", n_meshes=2, subdivisions=1, seed=3)
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": str(manifest), "model": {"kind": "pca-nn"},
        "train": {"epochs": 2, "batch_size": 64}, "output_dir": str(root / "out")}))
    paths = {"mesh": root / "data" / "dumbbell-00.off",
             "truth": root / "data" / "dumbbell-00.seg",
             "ckpt": root / "m.ckpt", "feat": root / "m.feat",
             "prob": root / "m.prob", "seg": root / "m.seg"}
    assert main(["train", "--config", str(cfg), "-o", str(paths["ckpt"])]) == 0
    assert main(["features", str(paths["mesh"]), "-o", str(paths["feat"])]) == 0
    assert main(["segment", str(paths["mesh"]), "--checkpoint", str(paths["ckpt"]),
                 "-o", str(paths["prob"]), "--labels-out", str(paths["seg"])]) == 0
    return paths


def _edit(data, blob: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "flip", "insert", "delete"]))
    at = data.draw(st.integers(0, len(blob) - (kind == "flip")))
    if kind == "truncate":
        return blob[:at]
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1:]
    if kind == "insert":
        return blob[:at] + data.draw(st.binary(min_size=1, max_size=8)) + blob[at:]
    return blob[:at] + blob[at + data.draw(st.integers(1, 16)):]


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_input_exits_with_a_documented_code(files, capsys, command, data):
    argv, inputs = COMMANDS[command]
    name = data.draw(st.sampled_from(inputs))
    with tempfile.TemporaryDirectory() as out:
        edited = Path(out) / files[name].name
        edited.write_bytes(_edit(data, files[name].read_bytes()))
        paths = {**{k: str(v) for k, v in files.items()}, name: str(edited)}
        code = main([a.format(out=out, **paths) for a in argv])
        err = capsys.readouterr().err
    assert code in ((0, 3, 4, 5) if name == "mesh" else (0, 3, 4)), err
    if code == 3:
        assert str(edited) in json.loads(err)["message"]


EXPERIMENT_COMMANDS = {
    "train": (["train", "--config", "{cfg}", "-o", "{out}/m.ckpt"], ["cfg", "manifest"]),
    "run": (["run", "--config", "{cfg}"], ["cfg", "manifest", "split"]),
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A 2-mesh toy set with a fixed split file, and a feature cache of both
    meshes that every case starts from."""
    root = tmp_path_factory.mktemp("fuzz-experiment")
    make_toy_dataset(root / "data", n_meshes=2, subdivisions=1, seed=3)
    (root / "data" / "split.txt").write_text("train:\ndumbbell-00\ntest:\ndumbbell-01\n")
    _write_config(root / "cfg.json", root)
    assert main(["run", "--config", str(root / "cfg.json")]) == 0
    return root


def _write_config(path, case):
    path.write_text(json.dumps({
        "dataset": str(case / "data" / "manifest.json"),
        "protocol": {"kind": "fixed", "file": str(case / "data" / "split.txt"),
                     "replicates": 1},
        "model": {"kind": "pca-nn"}, "train": {"epochs": 1, "batch_size": 64},
        "output_dir": str(case / "out")}))


def _inside(case: Path, cfg: Path) -> bool:
    """Whether every path of the config at cfg stays in case; true where the
    config does not parse, as then nothing is read or written after it."""
    try:
        parsed = load_experiment_config(cfg)
    except Exception:
        return True
    paths = [parsed.dataset, parsed.output_dir, parsed.fixed_split_file or case]
    return all(Path(p).resolve().is_relative_to(case.resolve()) for p in paths)


@pytest.mark.parametrize("command", list(EXPERIMENT_COMMANDS))
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_experiment_input_exits_with_a_documented_code(dataset, capsys, command,
                                                              data):
    argv, inputs = EXPERIMENT_COMMANDS[command]
    name = data.draw(st.sampled_from(inputs))
    with tempfile.TemporaryDirectory() as out:
        case = Path(out)
        shutil.copytree(dataset / "data", case / "data")
        shutil.copytree(dataset / "out" / "cache", case / "out" / "cache")
        cfg = case / "cfg.json"
        _write_config(cfg, case)
        edited = {"cfg": cfg, "manifest": case / "data" / "manifest.json",
                  "split": case / "data" / "split.txt"}[name]
        edited.write_bytes(_edit(data, edited.read_bytes()))
        # an edited path may leave the case's directory: such a case is skipped
        assume(_inside(case, cfg))
        code = main([a.format(out=out, cfg=cfg) for a in argv])
        err = capsys.readouterr().err
    assert code in (0, 3, 4), err
    if code == 3:
        assert str(edited) in json.loads(err)["message"]
