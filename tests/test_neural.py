import math
import os
import subprocess
import sys

import numpy as np
import pytest

from meshseg.features.matrix import DEFAULT_CHANNELS, NormalizationStats
from meshseg.formats import load_checkpoint, save_checkpoint
from meshseg.neural.layers import (
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MaxPool1D,
    Sigmoid,
    mean_squared_error,
    softmax_cross_entropy,
)
from meshseg.neural import training
from meshseg.neural.network import (
    Branches,
    Sequential,
    branch_output_shape,
    build_multibranch,
)
from meshseg.neural.training import TrainConfig, predict_probabilities, train_classifier
from meshseg.neural.models import (
    CnnModel,
    PcaNnModel,
    StackedAeModel,
    build_model,
)
from conftest import traced_peak_mb
from gradcheck import (
    H_SCALE,
    _numeric_grad,
    _stable_numeric_grad,
    check_layer,
    check_layer_case,
)
from oracles import (
    batchnorm_temporaries_backward,
    batchnorm_temporaries_forward,
    conv1d_backward_loops,
    conv1d_im2col_backward,
    conv1d_im2col_forward,
    conv1d_loops,
    dropout_float_mask_backward,
    dropout_float_mask_forward,
    leaky_relu_where_backward,
    leaky_relu_where_forward,
    maxpool_where_backward,
    maxpool_where_forward,
    train_epoch_reference,
)

RNG = np.random.default_rng


def _separable_toy(n=200, length=8, noise=0.1, seed=0):
    rng = RNG(seed)
    labels = np.repeat([0, 1], n // 2)
    x = np.where(labels[:, None] == 0, -1.0, 1.0) + noise * rng.normal(size=(n, length))
    return x, labels


# ------------------------------------------------------------------- layers

def test_conv_identity_kernel():
    conv = Conv1D(3, 1, 1, RNG(0))
    conv.weight.value[...] = 0.0
    conv.weight.value[1, 0, 0] = 1.0
    x = RNG(1).normal(size=(2, 7, 1))
    assert conv.forward(x) == pytest.approx(x, rel=1e-15)


def test_conv_box_kernel_sums_neighbors():
    conv = Conv1D(3, 1, 1, RNG(0))
    conv.weight.value[...] = 1.0
    x = np.array([[[1.0], [2.0], [3.0]]])
    # same padding: ends see one zero neighbor
    assert conv.forward(x)[0, :, 0] == pytest.approx([3.0, 6.0, 5.0])


def test_conv_has_no_bias():
    # every conv feeds a batch norm, which subtracts the batch mean
    conv = Conv1D(5, 2, 3, RNG(0))
    assert [p.name for p in conv.parameters()] == ["conv.weight"]
    net = build_multibranch(2, 9, 3, seed=0)
    assert not [p.name for p in net.parameters() if ".conv" in p.name
                and not p.name.endswith(".weight")]


def test_conv_matches_loop_oracle():
    rng = RNG(4)
    conv = Conv1D(5, 3, 4, rng)
    x = rng.normal(size=(2, 9, 3))
    want = conv1d_loops(x, conv.weight.value)
    assert conv.forward(x) == pytest.approx(want, abs=1e-12)


NETWORK_CONV_SHAPES = [
    (15, 1, 16, 9),    # first conv, training signal length
    (15, 1, 16, 32),   # first conv, gradient-check signal length
    (11, 16, 32, 4),   # second conv after pooling 9: taps 0, 1, 9, 10 dead
    (11, 16, 32, 16),  # second conv after pooling 32
    (11, 16, 32, 2),   # shorter signals: more dead taps
    (11, 16, 32, 3),
]
# longer than any signal the network convolves: the band is mostly zeros
LONG_CONV_SHAPES = [
    (11, 3, 4, 33),
    (15, 2, 5, 103),
]


@pytest.mark.parametrize("kernel,cin,cout,length",
                         NETWORK_CONV_SHAPES + LONG_CONV_SHAPES)
def test_conv_matches_loop_oracle_at_network_shapes(kernel, cin, cout, length):
    rng = RNG(5)
    conv = Conv1D(kernel, cin, cout, rng)
    x = rng.normal(size=(4, length, cin))
    y = conv.forward(x)
    assert y == pytest.approx(conv1d_loops(x, conv.weight.value), abs=1e-12)
    assert y == pytest.approx(conv1d_im2col_forward(x, conv.weight.value), abs=1e-12)


@pytest.mark.parametrize("kernel,cin,cout,length",
                         NETWORK_CONV_SHAPES + LONG_CONV_SHAPES)
def test_conv_backward_matches_loop_oracle_at_network_shapes(kernel, cin, cout, length):
    rng = RNG(7)
    conv = Conv1D(kernel, cin, cout, rng)
    x = rng.normal(size=(4, length, cin))
    grad = rng.normal(size=(4, length, cout))
    conv.forward(x, training=True)
    gx = conv.backward(grad)
    for oracle in (conv1d_backward_loops, conv1d_im2col_backward):
        want_x, want_w = oracle(x, conv.weight.value, grad)
        assert gx == pytest.approx(want_x, abs=1e-12)
        assert conv.weight.grad == pytest.approx(want_w, abs=1e-12)
    dead = max(0, kernel // 2 - (length - 1))
    live = np.zeros(kernel, dtype=bool)
    live[dead:kernel - dead] = True
    assert not np.any(conv.weight.grad[~live])
    assert np.all(np.any(conv.weight.grad[live] != 0.0, axis=(1, 2)))


def _conv_matches_loops(conv, x):
    """The layer's forward and both gradients against the loop oracles."""
    grad = RNG(99).normal(size=x.shape[:2] + (conv.out_channels,))
    conv.weight.grad[...] = 0.0
    y = conv.forward(x, training=True)
    gx = conv.backward(grad)
    want_x, want_w = conv1d_backward_loops(x, conv.weight.value, grad)
    return (np.allclose(y, conv1d_loops(x, conv.weight.value), rtol=0, atol=1e-12)
            and np.allclose(gx, want_x, rtol=0, atol=1e-12)
            and np.allclose(conv.weight.grad, want_w, rtol=0, atol=1e-12))


def test_conv_sees_weight_changed_in_place():
    # sgd_step and the gradient check both write into weight.value
    rng = RNG(11)
    conv = Conv1D(11, 16, 32, rng)
    x = rng.normal(size=(4, 4, 16))
    assert _conv_matches_loops(conv, x)
    conv.weight.value += 0.1 * rng.normal(size=conv.weight.value.shape)
    assert _conv_matches_loops(conv, x)
    conv.weight.value.flat[123] += 1e-5
    assert _conv_matches_loops(conv, x)


def test_conv_sees_a_new_length():
    rng = RNG(12)
    conv = Conv1D(11, 16, 32, rng)
    for length in (4, 16, 4, 2, 35, 4):
        assert _conv_matches_loops(conv, rng.normal(size=(3, length, 16)))


def test_conv_sees_checkpoint_loaded_into_a_model_that_has_run(tmp_path):
    n = len(DEFAULT_CHANNELS)
    x = RNG(13).normal(size=(16, 2, n))
    labels = RNG(13).integers(0, 2, 16)
    cfg = TrainConfig(epochs=1, batch_size=8)
    used, other = CnnModel(2, n, 2, seed=0, train_cfg=cfg), \
        CnnModel(2, n, 2, seed=1, train_cfg=cfg)
    used.fit(x, labels)
    other.fit(x, labels)
    before = used.predict_proba(x)
    path = tmp_path / "other.ckpt"
    save_checkpoint(path, other, NormalizationStats(np.zeros(n), np.ones(n)))
    loaded, _ = load_checkpoint(path)
    for (_, owner, attr, _), (_, src, src_attr, _) in zip(used.state_slots(),
                                                          loaded.state_slots()):
        getattr(owner, attr)[...] = getattr(src, src_attr)
    after = used.predict_proba(x)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, other.predict_proba(x))
    conv = used.net.layers[0].branches[0].layers[0]
    assert _conv_matches_loops(conv, x[:, 0, :, None])


@pytest.mark.parametrize("kernel,cin,cout,length", [(11, 16, 32, 4), (7, 2, 3, 2)])
def test_conv_gradcheck_with_dead_taps(kernel, cin, cout, length):
    rng = RNG(8)
    conv = Conv1D(kernel, cin, cout, rng)
    x = rng.normal(size=(3, length, cin))
    entries = check_layer_case("conv1d", conv, x, False, rng)
    assert [e.target for e in entries] == ["conv1d/input", "conv1d/weight"]
    for entry in entries:
        assert entry.coords_checked > 0
        assert entry.passed, entry


def test_conv_input_validation():
    with pytest.raises(ValueError, match="odd"):
        Conv1D(4, 1, 1, RNG(0))
    conv = Conv1D(3, 2, 1, RNG(0))
    with pytest.raises(ValueError, match="expected"):
        conv.forward(np.zeros((1, 5, 3)))


def test_leaky_relu_values_and_grads():
    relu = LeakyReLU(0.2)
    x = np.array([[-1.0, 2.0, 0.0]])
    assert relu.forward(x) == pytest.approx(np.array([[-0.2, 2.0, 0.0]]))
    grads = relu.backward(np.ones_like(x))
    assert grads == pytest.approx(np.array([[0.2, 1.0, 0.2]]))


def test_maxpool_picks_and_routes():
    pool = MaxPool1D()
    x = np.array([[[1.0], [5.0], [3.0], [2.0], [9.0]]])  # odd tail dropped
    y = pool.forward(x)
    assert y[0, :, 0] == pytest.approx([5.0, 3.0])
    gx = pool.backward(np.array([[[10.0], [20.0]]]))
    assert gx[0, :, 0] == pytest.approx([0.0, 10.0, 20.0, 0.0, 0.0])


def test_maxpool_tie_routes_to_first():
    pool = MaxPool1D()
    x = np.array([[[2.0, -1.0], [2.0, -1.0], [0.0, 4.0], [0.0, 4.0]]])
    assert pool.forward(x).tolist() == [[[2.0, -1.0], [0.0, 4.0]]]
    gx = pool.backward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert gx.tolist() == [[[1.0, 2.0], [0.0, 0.0], [3.0, 4.0], [0.0, 0.0]]]


def test_maxpool_nan_reaches_output():
    pool = MaxPool1D()
    nan = np.nan
    # pairs along length: [1, NaN], [NaN, 1], [NaN, NaN], one per channel
    x = np.array([[[1.0, nan, nan], [nan, 1.0, nan]]])
    y = pool.forward(x)
    assert np.isnan(y).all()
    # argmax picks the first NaN of a pair, and the gradient follows it
    gx = pool.backward(np.array([[[1.0, 2.0, 3.0]]]))
    assert gx.tolist() == [[[0.0, 2.0, 3.0], [1.0, 0.0, 0.0]]]
    pairs = x.reshape(1, 1, 2, 3)
    assert pairs.argmax(axis=2).tolist() == [[[1, 0, 0]]]


def test_maxpool_too_short():
    with pytest.raises(ValueError, match="too short"):
        MaxPool1D().forward(np.zeros((1, 1, 2)))


def test_batchnorm_two_points():
    bn = BatchNorm(1)
    y = bn.forward(np.array([[1.0], [3.0]]), training=True)
    unit = 1.0 / math.sqrt(1.0 + bn.eps)
    assert y[:, 0] == pytest.approx([-unit, unit], rel=1e-12)
    bn.gamma.value[...] = 2.0
    bn.beta.value[...] = 1.0
    y2 = bn.forward(np.array([[1.0], [3.0]]), training=True)
    assert y2[:, 0] == pytest.approx([1.0 - 2 * unit, 1.0 + 2 * unit], rel=1e-12)


def test_batchnorm_standardized_fixed_point():
    rng = RNG(2)
    x = rng.normal(size=(512, 3))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    bn = BatchNorm(3)
    y = bn.forward(x, training=True)
    assert y == pytest.approx(x / math.sqrt(1.0 + bn.eps), rel=1e-12)


@pytest.mark.parametrize("shape", [(4, 32, 16), (4, 16, 32), (256, 9, 16), (256, 4, 32)])
def test_batchnorm_batch_stats_equal_numpy_mean_and_var(shape):
    x = RNG(6).normal(loc=3.0, scale=2.0, size=shape)
    bn = BatchNorm(shape[-1])
    bn.forward(x, training=True)  # the first batch initializes the running stats
    assert _close_at_scale(bn.running_mean, x.mean(axis=(0, 1)))
    assert _close_at_scale(bn.running_var, x.var(axis=(0, 1)))


def test_batchnorm_eval_needs_and_uses_running_stats():
    bn = BatchNorm(2)
    with pytest.raises(RuntimeError, match="before any training"):
        bn.forward(np.zeros((4, 2)), training=False)
    rng = RNG(3)
    bn.forward(rng.normal(size=(32, 2)), training=True)
    probe = rng.normal(size=(5, 2))
    assert np.array_equal(bn.forward(probe), bn.forward(probe))


def test_batchnorm_rejects_batch_of_one():
    with pytest.raises(ValueError, match="batch size"):
        BatchNorm(2).forward(np.zeros((1, 2)), training=True)


def test_dropout_eval_is_identity_train_scales():
    x = RNG(0).normal(size=(6, 10))
    drop = Dropout(0.5, rng=RNG(1))
    assert np.array_equal(drop.forward(x, training=False), x)
    y = drop.forward(x, training=True)
    kept = y != 0.0
    assert 0 < kept.sum() < y.size
    assert y[kept] == pytest.approx(2.0 * x[kept], rel=1e-15)
    with pytest.raises(ValueError):
        Dropout(1.0, rng=RNG(1))


def test_flatten_is_channel_major():
    x = np.arange(6.0).reshape(1, 3, 2)  # positions 0..2, channels 0..1
    flat = Flatten().forward(x)
    # all of channel 0 first, then channel 1
    assert flat[0] == pytest.approx([0.0, 2.0, 4.0, 1.0, 3.0, 5.0])


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError, match="backward called before forward"):
        Dense(3, 2, RNG(0)).backward(np.zeros((1, 2)))
    with pytest.raises(RuntimeError, match="backward called before forward"):
        Conv1D(3, 1, 1, RNG(0)).backward(np.zeros((1, 4, 1)))
    with pytest.raises(RuntimeError, match="backward called before forward"):
        Branches([Sequential([Conv1D(3, 1, 2, RNG(0))])]).backward(np.zeros((1, 4, 2)))


def test_softmax_cross_entropy_gradient_is_fused_form():
    logits = np.array([[2.0, -1.0, 0.5]])
    loss, grad, p = softmax_cross_entropy(logits, np.array([2]))
    assert p[0] == pytest.approx(np.exp(logits[0]) / np.exp(logits[0]).sum())
    assert loss == pytest.approx(-math.log(p[0, 2]))
    onehot = np.array([[0.0, 0.0, 1.0]])
    assert grad == pytest.approx(p - onehot)
    # batch mean: gradient carries the 1/B factor
    logits3 = np.tile(logits, (3, 1))
    _, grad3, _ = softmax_cross_entropy(logits3, np.array([2, 2, 2]))
    assert grad3 == pytest.approx(np.tile(grad / 3.0, (3, 1)))


def test_softmax_symmetric_logits():
    _, _, p = softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
    assert p[0] == pytest.approx([0.5, 0.5])


def test_mean_squared_error_value_and_grad():
    pred = np.array([[1.0, 2.0]])
    target = np.array([[0.0, 4.0]])
    loss, grad = mean_squared_error(pred, target)
    assert loss == pytest.approx((1.0 + 4.0) / 2.0)
    assert grad == pytest.approx(np.array([[1.0, -2.0]]))


# ----------------------------------------- select-free kernels vs np.where

# few distinct values, so that pairs tie often, +0.0 against -0.0 included
SPECIALS = np.array([0.0, -0.0, 1.5, -1.5, 3.0, np.nan, np.inf, -np.inf])

# flat lengths 1..67 run numpy's SIMD loop bodies and their scalar tails;
# the last two are the shapes pooling and activation see in the network
KERNEL_SHAPES = [(n,) for n in range(1, 68)] + [(256, 9, 16), (256, 4, 32)]


def _special_array(rng, shape):
    x = rng.normal(size=shape)
    pick = rng.random(shape) < 0.5
    x[pick] = rng.choice(SPECIALS, size=int(pick.sum()))
    return x


def _as_pool_input(x):
    """(batch, length, channels) with an odd length where the size allows,
    so the dropped tail is covered too."""
    if x.ndim == 3:
        return x
    n = x.size
    return x.reshape(1, n, 1) if n % 2 else x.reshape(1, 2, n // 2)


def _close_at_scale(got, want, tol=1e-13):
    """Agreement within tol of want's largest magnitude: BatchNorm sums in
    another order than its term-by-term oracle, so the last bits move."""
    return (got.shape == want.shape
            and np.abs(got - want).max() <= tol * np.abs(want).max())


def _equal_with_signs(got, want):
    """Equal values, NaN in the same places, and equal sign bits, so that
    -0.0 and +0.0 count as different."""
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.isnan(got), np.isnan(want))
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
def test_leaky_relu_matches_where_oracle(shape):
    rng = RNG(sum(shape))
    x = _special_array(rng, shape)
    grad = rng.normal(size=shape)
    relu, ref = LeakyReLU(0.2), LeakyReLU(0.2)
    assert _equal_with_signs(relu.forward(x), leaky_relu_where_forward(ref, x))
    assert _equal_with_signs(relu.backward(grad), leaky_relu_where_backward(ref, grad))
    # the factor is exactly 1 or slope, so non-finite gradients match too
    grad = _special_array(rng, shape)
    assert _equal_with_signs(relu.backward(grad), leaky_relu_where_backward(ref, grad))


@pytest.mark.parametrize("shape", KERNEL_SHAPES[1:], ids=str)
def test_maxpool_matches_where_oracle(shape):
    rng = RNG(sum(shape))
    x = _as_pool_input(_special_array(rng, shape))
    pool, ref = MaxPool1D(), MaxPool1D()
    y = pool.forward(x)
    assert _equal_with_signs(y, maxpool_where_forward(ref, x))
    grad = rng.normal(size=y.shape)
    grad[rng.random(y.shape) < 0.2] = 0.0
    # finite upstream gradients: equal values (a losing slot may hold -0.0)
    assert np.array_equal(pool.backward(grad), maxpool_where_backward(ref, grad))


def test_maxpool_losing_slot_of_a_nonfinite_gradient_is_nan():
    pool = MaxPool1D()
    pool.forward(np.array([[[1.0, 5.0, -2.0], [2.0, 4.0, -2.0]]]))
    # winners: second slot, first slot, first slot (a tie)
    with np.errstate(invalid="ignore"):
        gx = pool.backward(np.array([[[np.inf, -np.inf, np.nan]]]))[0]
    assert np.isnan(gx[0, 0]) and gx[1, 0] == np.inf
    assert gx[0, 1] == -np.inf and np.isnan(gx[1, 1])
    assert np.isnan(gx[:, 2]).all()


@pytest.mark.parametrize("shape", [(1,), (7,), (33,), (67,), (256, 9, 16), (256, 172)],
                         ids=str)
@pytest.mark.parametrize("rate", [0.5, 0.3])
def test_dropout_matches_float_mask_oracle(shape, rate):
    rng = RNG(sum(shape))
    x = _special_array(rng, shape)
    x[rng.random(shape) < 0.1] = -1.7e308  # overflows once scaled
    grad = _special_array(rng, shape)
    drop, ref = Dropout(rate, rng=RNG(5)), Dropout(rate, rng=RNG(5))
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(2):  # a fresh mask per call
            assert _equal_with_signs(drop.forward(x, training=True),
                                     dropout_float_mask_forward(ref, x, training=True))
            assert _equal_with_signs(drop.backward(grad),
                                     dropout_float_mask_backward(ref, grad))
    assert drop.forward(x) is x
    assert _equal_with_signs(drop.backward(grad), grad)


@pytest.mark.parametrize("slope", [0.0, 1.0, -0.2, 1.5, np.nan, np.inf])
def test_leaky_relu_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ValueError, match="slope"):
        LeakyReLU(slope)


@pytest.mark.parametrize("shape", [(256, 9, 16), (256, 4, 32), (7, 5, 3), (64, 172)],
                         ids=str)
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_matches_temporaries_oracle(shape, training):
    rng = RNG(len(shape) + shape[0])
    c = shape[-1]
    bn, ref = BatchNorm(c), BatchNorm(c)
    gamma, beta = rng.uniform(0.5, 2.0, c), rng.normal(size=c)
    for layer in (bn, ref):
        layer.gamma.value[...] = gamma
        layer.beta.value[...] = beta
    # a first training batch sets the running stats both forms start from
    warm = rng.normal(size=shape)
    bn.forward(warm, training=True)
    batchnorm_temporaries_forward(ref, warm, training=True)
    x = rng.normal(loc=1.0, scale=3.0, size=shape)
    grad = rng.normal(size=shape)
    assert _close_at_scale(bn.forward(x, training=training),
                           batchnorm_temporaries_forward(ref, x, training=training))
    assert _close_at_scale(bn.running_mean, ref.running_mean)
    assert _close_at_scale(bn.running_var, ref.running_var)
    assert _close_at_scale(bn.backward(grad), batchnorm_temporaries_backward(ref, grad))
    assert _close_at_scale(bn.gamma.grad, ref.gamma.grad)
    assert _close_at_scale(bn.beta.grad, ref.beta.grad)


@pytest.mark.parametrize("layer, shape", [
    (lambda: Conv1D(15, 1, 16, RNG(0)), (32, 9, 1)),
    (lambda: Dense(12, 5, RNG(0)), (32, 12)),
    (lambda: Sequential([Dense(12, 5, RNG(0)), LeakyReLU(0.2), Dense(5, 2, RNG(1))]),
     (32, 12)),
    (lambda: build_multibranch(2, 9, 3, seed=0), (32, 2, 9, 1)),
], ids=["conv1d", "dense", "sequential", "multibranch"])
def test_backward_without_input_grad_accumulates_the_same(layer, shape):
    full, lean = layer(), layer()
    x = RNG(1).normal(size=shape)
    grad = RNG(2).normal(size=full.forward(x, training=True).shape)
    lean.forward(x, training=True)
    assert full.backward(grad) is not None
    assert lean.backward(grad, input_grad=False) is None
    for a, b in zip(full.parameters(), lean.parameters()):
        assert np.array_equal(a.grad, b.grad)


# ------------------------------------------------------------ architecture

def test_multibranch_shape_contract():
    net = build_multibranch(3, 800, 8, seed=0)
    assert branch_output_shape(800) == (200, 32)
    x = RNG(0).normal(size=(2, 3, 800, 1))
    branch_outs = [b.forward(x[:, k], training=True)
                   for k, b in enumerate(net.layers[0].branches)]
    for out in branch_outs:
        assert out.shape == (2, 200, 32)
    merged = np.concatenate(branch_outs, axis=2)
    assert merged.shape == (2, 200, 96)
    assert net.layers[2].in_features == 200 * 96
    assert net.forward(x, training=True).shape == (2, 8)


def test_single_branch_head_width():
    net = build_multibranch(1, 200, 4, seed=1)
    assert branch_output_shape(200) == (50, 32)
    assert net.layers[2].in_features == 50 * 32
    assert net.forward(RNG(1).normal(size=(2, 1, 200, 1)), training=True).shape == (2, 4)


def test_same_seed_same_init():
    a = build_multibranch(2, 16, 3, seed=7)
    b = build_multibranch(2, 16, 3, seed=7)
    c = build_multibranch(2, 16, 3, seed=8)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)
    assert any(not np.array_equal(pa.value, pc.value)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_build_multibranch_validation():
    with pytest.raises(ValueError, match="too short"):
        build_multibranch(1, 3, 2, seed=0)


def test_parameter_names_follow_declaration_order():
    net = build_multibranch(2, 16, 3, seed=0)
    names = [p.name for p in net.parameters()]
    assert len(names) == len(set(names))
    assert names[0].startswith("b0.") and names[-1].startswith("head.")
    assert names.index("b1.conv1.weight") > names.index("b0.bn2.beta")
    assert len([l for l in net.layers if isinstance(l, Dropout)]) == 1


def test_network_input_validation():
    net = build_multibranch(2, 16, 3, seed=0)
    with pytest.raises(ValueError, match="expected"):
        net.forward(np.zeros((2, 3, 16, 1)), training=True)
    with pytest.raises(RuntimeError, match="before forward"):
        build_multibranch(1, 16, 2, seed=0).backward(np.zeros((2, 2)))


# ---------------------------------------------------------------- training

def test_learning_rate_schedule_endpoints():
    cfg = TrainConfig(epochs=50)
    assert cfg.learning_rate(0) == pytest.approx(1e-2)
    assert cfg.learning_rate(49) == pytest.approx(1e-4)
    # geometric interpolation in between
    assert cfg.learning_rate(10) == pytest.approx(1e-2 * (1e-2) ** (10 / 49))
    for bad in (-1, 50):
        with pytest.raises(ValueError):
            cfg.learning_rate(bad)
    assert TrainConfig(epochs=1).learning_rate(0) == pytest.approx(1e-2)


def test_initial_loss_matches_uniform_softmax():
    rng = RNG(9)
    for n_classes in (2, 4, 8):
        model = CnnModel(2, 8, n_classes, seed=int(n_classes),
                         train_cfg=TrainConfig(epochs=1))
        x = rng.normal(size=(64, 2, 8))
        curve = model.fit(x, rng.integers(0, n_classes, 64))["train"]
        assert curve[0] == pytest.approx(math.log(n_classes), rel=0.2)


def test_cnn_fits_separable_toy():
    x, labels = _separable_toy()
    model = CnnModel(1, 8, 2, seed=3, train_cfg=TrainConfig(epochs=50, batch_size=32))
    curves = model.fit(x[:, None, :], labels)
    probs = model.predict_proba(x[:, None, :])
    assert (probs.argmax(axis=1) == labels).mean() >= 0.99
    assert len(curves["train"]) == 51  # initial loss + one entry per epoch
    assert curves["train"][-1] < curves["train"][0]


def test_training_warns_on_missing_class():
    net = build_multibranch(1, 8, 3, seed=0)
    x = RNG(0).normal(size=(16, 1, 8, 1))
    labels = np.zeros(16, dtype=int)  # classes 1 and 2 never appear
    with pytest.warns(UserWarning, match=r"no samples for classes \[1, 2\]"):
        train_classifier(net, x, labels, TrainConfig(epochs=1), n_classes=3)


def test_training_aborts_on_nonfinite_loss():
    net = build_multibranch(1, 8, 2, seed=0)
    x = RNG(0).normal(size=(8, 1, 8, 1))
    x[3] = np.inf
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="initial loss"):
            train_classifier(net, x, np.zeros(8, dtype=int), TrainConfig(epochs=1))


def test_every_fit_starts_at_rest():
    x = RNG(2).normal(size=(24, 4))
    labels = (x[:, 0] > 0).astype(int)

    def curve(velocity):
        net = Sequential([Dense(4, 6, RNG(0)), LeakyReLU(0.2), Dense(6, 2, RNG(1))])
        for p in net.parameters():
            p.velocity[...] = velocity
        return train_classifier(net, x, labels, TrainConfig(epochs=3, batch_size=8),
                                seed=5)

    assert curve(1.0) == curve(0.0)


def test_training_rejects_label_mismatch():
    net = build_multibranch(1, 8, 2, seed=0)
    with pytest.raises(ValueError, match="counts differ"):
        train_classifier(net, np.zeros((4, 1, 8, 1)), np.zeros(3, dtype=int),
                         TrainConfig(epochs=1))


def test_predictions_are_probability_rows():
    x, labels = _separable_toy(n=64)
    model = CnnModel(1, 8, 2, seed=1, train_cfg=TrainConfig(epochs=2, batch_size=16))
    inputs = x[:, None, :]
    model.fit(inputs, labels)
    probs = model.predict_proba(inputs)
    assert probs.shape == (64, 2)
    assert np.all(probs >= 0.0)
    assert probs.sum(axis=1) == pytest.approx(np.ones(64), abs=1e-9)
    # determinism and row independence in eval mode
    assert np.array_equal(probs, model.predict_proba(inputs))
    doubled = np.concatenate([inputs, inputs[:1]], axis=0)
    probs2 = model.predict_proba(doubled)
    assert np.array_equal(probs2[-1], probs2[0])


@pytest.mark.parametrize("seed", range(8))
def test_prediction_of_a_row_does_not_depend_on_its_position(seed):
    # 65 rows leave a ragged BLAS tail block; row 64 repeats row 0
    rng = RNG(seed)
    net = Sequential([Dense(172, 2, rng)])
    x = rng.normal(size=(65, 172))
    x[64] = x[0]
    probs = predict_probabilities(net, x)
    assert np.array_equal(probs[64], probs[0])


@pytest.mark.parametrize("kind", ["cnn", "pca-nn", "ae-nn"])
def test_prediction_bytes_do_not_depend_on_predict_batch(kind, monkeypatch):
    # 1,100 rows leave a ragged last batch at 64, 256 and 1,024 rows; 100
    # is no multiple of ROW_BLOCK, so every batch is padded
    rng = RNG(6)
    scales = 3 if kind == "cnn" else 1
    x = rng.normal(size=(1100, scales, 9))
    model = build_model(kind, scales, 9, 3, seed=2,
                        train_cfg=TrainConfig(epochs=1, batch_size=64))
    model.fit(x, rng.integers(0, 3, len(x)))
    probs = set()
    for batch in (64, 100, 256, 1024):
        monkeypatch.setattr(training, "PREDICT_BATCH", batch)
        probs.add(model.predict_proba(x).tobytes())
    assert len(probs) == 1


def test_prediction_memory_is_bounded_by_the_predict_batch():
    # 1,024-row batches kept every layer's cache of a batch that size,
    # 9.5 MB at its peak
    rng = RNG(4)
    x = rng.normal(size=(4096, 3, 9))
    model = build_model("cnn", 3, 9, 3, seed=1, train_cfg=TrainConfig(epochs=1))
    model.fit(x[:256], rng.integers(0, 3, 256))
    assert traced_peak_mb(model.predict_proba, x) <= 4.0


def _patch_reference_training(monkeypatch):
    """Patch in the np.where and float-mask kernels, and an epoch loop that
    backpropagates down to the network input. BatchNorm keeps its own
    form in both arms: it sums in another order than its term-by-term
    oracle, which `test_batchnorm_matches_temporaries_oracle` checks
    within a tolerance."""
    for cls, fwd, bwd in (
            (LeakyReLU, leaky_relu_where_forward, leaky_relu_where_backward),
            (MaxPool1D, maxpool_where_forward, maxpool_where_backward),
            (Dropout, dropout_float_mask_forward, dropout_float_mask_backward)):
        monkeypatch.setattr(cls, "forward", fwd)
        monkeypatch.setattr(cls, "backward", bwd)
    monkeypatch.setattr(training, "_epoch", train_epoch_reference)


def _trained_state(make_model, inputs, labels):
    model = make_model()
    curves = model.fit(inputs, labels)
    slots = [(name, getattr(owner, attr).copy())
             for name, owner, attr, _ in model.state_slots()]
    return slots, model.predict_proba(inputs), curves


@pytest.mark.parametrize("kind", ["cnn", "pca-nn", "ae-nn"])
def test_training_is_bit_identical_to_reference_kernels(kind, monkeypatch):
    rng = RNG(12)
    inputs = rng.normal(size=(300, 3, 9))
    labels = ((inputs[:, 0, :3].sum(axis=1) > 0).astype(int)
              + (inputs[:, 1, 4] > 0.7))
    if kind != "cnn":
        inputs = inputs.reshape(300, 27)

    def make_model():
        return build_model(kind, inputs.shape[1] if kind == "cnn" else 1,
                           inputs.shape[-1], 3, seed=11,
                           train_cfg=TrainConfig(epochs=3, batch_size=64))

    fast = _trained_state(make_model, inputs, labels)
    _patch_reference_training(monkeypatch)
    reference = _trained_state(make_model, inputs, labels)
    assert [name for name, _ in fast[0]] == [name for name, _ in reference[0]]
    for (name, got), (_, want) in zip(fast[0], reference[0]):
        assert np.array_equal(got, want), name
    assert np.array_equal(fast[1], reference[1])
    assert fast[2] == reference[2]


@pytest.mark.parametrize("kind", ["cnn", "pca-nn", "ae-nn"])
def test_networks_train_and_predict_in_float32(kind, monkeypatch):
    # one float64 buffer anywhere would silently promote a whole branch
    seen = []
    for cls in (Conv1D, BatchNorm, LeakyReLU, MaxPool1D, Dense, Dropout,
                Flatten, Sigmoid, Sequential, Branches):
        for method in ("forward", "backward"):
            def recording(self, *args, _run=getattr(cls, method),
                          _where=f"{cls.__name__}.{method}", **kwargs):
                out = _run(self, *args, **kwargs)
                if out is not None:  # no input gradient was asked for
                    seen.append((_where, out.dtype))
                return out
            monkeypatch.setattr(cls, method, recording)
    rng = RNG(3)
    scales = 3 if kind == "cnn" else 1
    x = rng.normal(size=(40, scales, 9))
    model = build_model(kind, scales, 9, 3, seed=1,
                        train_cfg=TrainConfig(epochs=1, batch_size=40))
    model.fit(x, rng.integers(0, 3, 40))
    probs = model.predict_proba(x)
    assert probs.dtype == np.float64
    assert {where for where, _ in seen} >= {"Dense.forward", "Dense.backward"}
    assert [w for w, dtype in seen if dtype != np.float32] == []
    params = [p for part in vars(model).values() if hasattr(part, "parameters")
              for p in part.parameters()]
    assert params
    for p in params:
        assert p.value.dtype == p.grad.dtype == p.velocity.dtype == np.float32, p.name
    for name, owner, attr, _ in model.state_slots():
        assert getattr(owner, attr).dtype == np.float32, name


_TRAIN_AND_SAVE = """
import sys
import numpy as np
from meshseg.features.matrix import NormalizationStats
from meshseg.formats import save_checkpoint, save_probabilities
from meshseg.neural.models import build_model
from meshseg.neural.training import TrainConfig

rng = np.random.default_rng(21)
x = rng.normal(size=(int(sys.argv[2]), 3, 9))
labels = (x[:, 0, :3].sum(axis=1) > 0).astype(int)
model = build_model("cnn", 3, 9, 2, seed=8,
                    train_cfg=TrainConfig(epochs=3, batch_size=256))
model.fit(x, labels)
save_checkpoint(sys.argv[1] + "/model.ckpt", model,
                NormalizationStats(np.zeros(9), np.ones(9)))
save_probabilities(sys.argv[1] + "/train.prob", model.predict_proba(x))
"""


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    # BLAS reads its thread count once, at load: one process per count.
    # 512 rows fill whole batches, as in the benchmark's cnn-kfold; 600
    # leave a ragged last batch of 88 rows. In float64, the first Dense
    # layer took a thread-dependent dgemm path at 33 to 172 rows, so the
    # 600-row fit wrote other bytes at 2 threads; the float32 sgemm does not
    for rows in ("512", "600"):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"rows{rows}-blas{threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            subprocess.run([sys.executable, "-c", _TRAIN_AND_SAVE, str(out), rows],
                           env=env, check=True, timeout=300)
            outputs.append([(out / name).read_bytes()
                            for name in ("model.ckpt", "train.prob")])
        assert outputs[0] == outputs[1], f"{rows} rows"


# ------------------------------------------------------------------ models

def test_cnn_input_validation():
    model = CnnModel(2, 8, 2, seed=0, train_cfg=TrainConfig(epochs=1))
    labels = np.array([0, 1, 0, 1, 0])
    for shape, match in (((5, 3, 8), "branches"), ((5, 2, 9), "length"),
                         ((5, 2, 8, 1), "multi-scale")):
        with pytest.raises(ValueError, match=match):
            model.fit(np.zeros(shape), labels)
        with pytest.raises(ValueError, match=match):
            model.predict_proba(np.zeros(shape))
    model.fit(RNG(0).normal(size=(5, 2, 8)), labels)
    assert model.predict_proba(np.zeros((5, 2, 8))).shape == (5, 2)


@pytest.mark.parametrize("kind", ["pca-nn", "ae-nn"])
def test_flat_models_read_scale_zero_or_plain_rows(kind):
    rng = RNG(5)
    stack = rng.normal(size=(40, 3, 6))
    labels = rng.integers(0, 2, 40)
    cfg = TrainConfig(epochs=2, batch_size=8)
    from_stack = build_model(kind, 1, 6, 2, seed=2, train_cfg=cfg)
    from_rows = build_model(kind, 1, 6, 2, seed=2, train_cfg=cfg)
    assert from_stack.fit(stack, labels) == from_rows.fit(stack[:, 0], labels)
    assert np.array_equal(from_stack.predict_proba(stack),
                          from_rows.predict_proba(stack[:, 0].copy()))
    with pytest.raises(ValueError, match="expected 6 features, got 5"):
        from_stack.predict_proba(stack[:, :, :5])


def _dense_widths(net):
    return [layer.weight.value.shape[1] for layer in net.layers
            if isinstance(layer, Dense)]


def test_pca_nn_structure_and_fit():
    x, labels = _separable_toy(n=200, length=8)
    wide = np.zeros((200, 60))
    wide[:, :8] = x
    model = PcaNnModel(60, 2, seed=4, train_cfg=TrainConfig(epochs=50, batch_size=32))
    assert model.components == 50
    assert _dense_widths(model.net) == [50, 25, 12, 2]
    model.fit(wide, labels)
    probs = model.predict_proba(wide)
    assert (probs.argmax(axis=1) == labels).mean() >= 0.95
    # PCA is fitted in float64 and kept in float32, so the projection
    # centers the rows up to the float32 rounding of their mean
    mean = wide.mean(axis=0)
    assert np.array_equal(model.pca_mean, mean.astype(np.float32))
    projected = (wide - model.pca_mean) @ model.pca_basis
    rounding = np.linalg.norm(mean - model.pca_mean)
    assert np.abs(projected.mean(axis=0)).max() <= 1.001 * rounding + 1e-12


def test_pca_nn_narrow_input_keeps_all_components():
    model = PcaNnModel(8, 2, seed=0)
    assert model.components == 8
    assert model.pca_basis.shape == (8, 8)
    assert _dense_widths(model.net) == [8, 4, 2, 2]


def test_stacked_ae_pretrains_then_finetunes():
    rng = RNG(6)
    n, d = 200, 8
    z = rng.normal(size=(n, 2))
    x = 0.3 * (z @ rng.normal(size=(2, d))) / math.sqrt(2)
    labels = (z[:, 0] > 0).astype(int)
    model = StackedAeModel(
        d, 2, seed=5,
        train_cfg=TrainConfig(epochs=200, lr_start=0.05, lr_end=1e-3, batch_size=32))
    curves = model.fit(x, labels)
    assert list(curves) == ["ae1", "ae2", "head", "finetune"]
    # greedy reconstruction actually learns the low-rank structure
    assert curves["ae1"][-1] < 0.1 * curves["ae1"][0]
    assert curves["ae1"][-1] < 0.5 * float(x.var())
    # fine-tuning improves the classification loss end to end
    assert curves["finetune"][-1] < curves["finetune"][0]
    acc = (model.predict_proba(x).argmax(axis=1) == labels).mean()
    assert acc >= 0.9


def test_model_spec_round_trip():
    """A model is its spec and seed: the rebuilt twin trains to the same bytes."""
    rng = RNG(4)
    labels = rng.integers(0, 3, 24)
    cfg = TrainConfig(epochs=2, batch_size=8)
    for kind, scales in (("cnn", 2), ("pca-nn", 1), ("ae-nn", 1)):
        x = rng.normal(size=(24, scales, 16))
        model = build_model(kind, scales, 16, 3, seed=11, train_cfg=cfg)
        assert model.spec == (kind, scales, 16, 3)
        clone = build_model(*model.spec, seed=11, train_cfg=cfg)
        assert clone.spec == model.spec
        assert model.fit(x, labels) == clone.fit(x, labels)
        assert np.array_equal(model.predict_proba(x), clone.predict_proba(x))


def test_build_model_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown model kind"):
        build_model("svm", 1, 16, 2, seed=0)
    with pytest.raises(ValueError, match="model.branches must be 1 for pca-nn, got 3"):
        build_model("pca-nn", 3, 16, 2, seed=0)
    with pytest.raises(ValueError, match="input length 0"):
        build_model("ae-nn", 1, 0, 2, seed=0)
    with pytest.raises(ValueError, match="0 classes"):
        build_model("pca-nn", 1, 16, 0, seed=0)
    with pytest.raises(ValueError, match=r"must be in 1\.\.4 for cnn, got 6"):
        build_model("cnn", 6, 16, 2, seed=0)


def test_every_model_kind_needs_two_classes():
    for kind, scales in (("cnn", 3), ("pca-nn", 1), ("ae-nn", 1)):
        with pytest.raises(ValueError, match="1 classes: need at least 2"):
            build_model(kind, scales, 9, 1, seed=0)


def test_cnn_checkpoint_layout_is_pinned():
    branch = [("conv1.weight", (15, 1, 16))] + [
        (f"bn1.{attr}", (16,)) for attr in ("gamma", "beta", "running_mean", "running_var")
    ] + [("conv2.weight", (11, 16, 32))] + [
        (f"bn2.{attr}", (32,)) for attr in ("gamma", "beta", "running_mean", "running_var")]
    head = [("head.fc1.weight", (2 * 32 * 2, 172)), ("head.fc1.bias", (172,)),
            ("head.fc2.weight", (172, 3)), ("head.fc2.bias", (3,))]
    want = [(f"b{k}.{name}", shape) for k in range(2) for name, shape in branch] + head
    model = CnnModel(2, 8, 3, seed=0)
    assert [(name, shape) for name, _, _, shape in model.state_slots()] == want


def test_state_slots_are_unique_and_cover_bn_stats():
    model = CnnModel(2, 8, 2, seed=0, train_cfg=TrainConfig(epochs=1))
    names = [name for name, *_ in model.state_slots()]
    assert len(names) == len(set(names))
    assert "b0.bn1.running_mean" in names and "b1.bn2.running_var" in names
    assert "head.fc2.bias" in names
    # running stats are only set once training has populated them
    _, owner, attr, shape = next(slot for slot in model.state_slots()
                                 if slot[0] == "b0.bn1.running_mean")
    assert getattr(owner, attr) is None
    x = RNG(0).normal(size=(16, 2, 8))
    model.fit(x, RNG(0).integers(0, 2, 16))
    assert getattr(owner, attr).shape == shape == (16,)


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_accepts_dense_layer():
    entries = check_layer("dense", seed=0)
    assert entries
    for entry in entries:
        assert entry.passed
        assert entry.coords_checked > 0
        assert entry.max_rel_error <= entry.tolerance


def test_gradcheck_unknown_layer():
    with pytest.raises(KeyError):
        check_layer("transformer", seed=0)


def _counted(fn):
    calls = []

    def loss_fn():
        calls.append(1)
        return fn()
    return loss_fn, calls


def test_stable_numeric_grad_stops_at_first_agreeing_pair():
    arr = np.array([0.3, -1.2])
    loss_fn, calls = _counted(lambda: float(np.sum(np.sin(arr))))
    estimate, ok = _stable_numeric_grad(loss_fn, arr, 1)
    assert ok and len(calls) == 4  # steps H and H/16 agree: H/256 is never taken
    assert estimate == _numeric_grad(loss_fn, arr, 1, H_SCALE / 16.0)
    assert estimate == pytest.approx(math.cos(-1.2), rel=1e-8)
    assert arr.tolist() == [0.3, -1.2]


def test_stable_numeric_grad_flags_a_kink_inside_every_step():
    arr = np.array([0.0])
    # |x - d| with the kink at d, closer than the finest step H/256: the
    # quotient at step h is -d/h, so no two consecutive steps agree
    loss_fn, calls = _counted(lambda: abs(arr[0] - 1e-9))
    estimate, ok = _stable_numeric_grad(loss_fn, arr, 0)
    assert not ok and len(calls) == 6
    assert estimate == _numeric_grad(loss_fn, arr, 0, H_SCALE / 256.0)
    assert estimate == pytest.approx(-1e-9 / (H_SCALE / 256.0), rel=1e-6)
