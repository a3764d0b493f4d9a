import numpy as np
import pytest

from meshseg.evaluate import (
    LabeledMesh,
    accuracy,
    make_splits,
)
from meshseg import synth


# ---------------------------------------------------------------- accuracy

def test_accuracy_perfect():
    labels = np.array([0, 1, 2, 1])
    assert accuracy(labels, labels, np.ones(4)) == 1.0


def test_accuracy_weights_by_area():
    pred = np.array([0, 1])
    gt = np.array([0, 0])
    # the wrong face carries 3 of 4 area units
    assert accuracy(pred, gt, np.array([1.0, 3.0])) == pytest.approx(0.25)
    assert accuracy(gt, gt, np.array([1.0, 3.0])) == 1.0


def test_accuracy_equal_areas_is_plain_fraction():
    pred = np.array([0, 0, 1, 1])
    gt = np.array([0, 1, 1, 1])
    assert accuracy(pred, gt, np.full(4, 2.5)) == pytest.approx(0.75)


def test_accuracy_invariant_to_uniform_scaling():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 3, 40)
    gt = rng.integers(0, 3, 40)
    areas = rng.uniform(0.1, 2.0, 40)
    base = accuracy(pred, gt, areas)
    for scale in (1e-6, 7.0, 1e6):
        assert accuracy(pred, gt, scale * areas) == pytest.approx(base, rel=1e-12)


def test_accuracy_validation():
    with pytest.raises(ValueError, match="equal lengths"):
        accuracy(np.zeros(3), np.zeros(4), np.ones(3))
    with pytest.raises(ValueError, match="empty"):
        accuracy(np.zeros(0), np.zeros(0), np.ones(0))
    with pytest.raises(ValueError, match="positive"):
        accuracy(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))


# ------------------------------------------------------------ labeled mesh

def test_labeled_mesh_validation(tet):
    LabeledMesh("tet", tet, np.zeros(4, dtype=int), "tet.off")
    with pytest.raises(ValueError, match="4 faces"):
        LabeledMesh("tet", tet, np.zeros(3, dtype=int), "tet.off")


# ------------------------------------------------------------------ splits

def _ids(n):
    return [f"mesh{i:03d}" for i in range(n)]


def test_loo_splits():
    splits = make_splits(_ids(20), "loo", 5, None, seed=0)
    assert len(splits) == 20
    for train, test in splits:
        assert len(test) == 1
        assert len(train) == 19
        assert set(train) | set(test) == set(_ids(20))
        assert not set(train) & set(test)


def test_kfold_even_sizes():
    splits = make_splits(_ids(20), "kfold", 5, None, seed=3)
    assert len(splits) == 5
    assert [len(test) for _, test in splits] == [4, 4, 4, 4, 4]
    covered = sorted(m for _, test in splits for m in test)
    assert covered == _ids(20)  # every mesh tested exactly once


def test_kfold_uneven_sizes():
    splits = make_splits(_ids(17), "kfold", 5, None, seed=3)
    assert sorted((len(test) for _, test in splits), reverse=True) == [4, 4, 3, 3, 3]
    for train, test in splits:
        assert not set(train) & set(test)
        assert sorted(train + test) == _ids(17)


def test_kfold_deterministic_in_seed():
    a = make_splits(_ids(11), "kfold", 3, None, seed=9)
    b = make_splits(_ids(11), "kfold", 3, None, seed=9)
    c = make_splits(_ids(11), "kfold", 3, None, seed=10)
    assert a == b
    assert a != c


def test_fixed_split():
    fixed = (("mesh001", "mesh000"), ("mesh002",))
    splits = make_splits(_ids(3), "fixed", 5, fixed, seed=0)
    assert splits == [(["mesh000", "mesh001"], ["mesh002"])]
    with pytest.raises(ValueError, match="unknown mesh ids"):
        make_splits(_ids(2), "fixed", 5, fixed, seed=0)


def test_split_validation():
    with pytest.raises(ValueError, match="at least 2"):
        make_splits(["solo"], "loo", 5, None, seed=0)
    with pytest.raises(ValueError, match="needs at least 4"):
        make_splits(_ids(3), "kfold", 4, None, seed=0)


def test_accuracy_on_real_mesh_areas():
    mesh = synth.dumbbell(1)
    gt = synth.dumbbell_labels(mesh)
    flipped = gt.copy()
    flipped[:10] = 1 - flipped[:10]
    acc = accuracy(flipped, gt, mesh.face_areas)
    wrong_area = mesh.face_areas[:10].sum()
    assert acc == pytest.approx(1.0 - wrong_area / mesh.face_areas.sum())
