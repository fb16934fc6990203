"""Op-level checks for the tensor core: worked examples, gradient
correctness against finite differences, and the structural invariants
(finiteness, determinism, crop commutation)."""

import math
import warnings

import numpy as np
import pytest

from bagnet.autodiff import (
    BatchNormState,
    DimensionError,
    MissingGradientError,
    NumericalError,
    Parameter,
    Tensor,
    _UNREAD_OUTPUTS,
    _im2col,
    add,
    batch_norm,
    conv2d,
    crop2d,
    fold_affine,
    linear,
    relu,
    sgd_momentum_step,
    softmax,
    softmax_cross_entropy,
    spatial_mean,
    weighted_sum,
)
from bagnet.model import SHIPPED_CONFIGS, layer_table

from oracles import (
    numerical_gradient,
    numerical_gradient_relstep,
    reference_conv2d,
    reference_im2col,
    sum_all,
)

SEEDS = list(range(10))


def rand(rng, shape, dtype=np.float32, grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=grad, dtype=dtype)


# ---------------------------------------------------------------------------
# conv2d

class TestConv2d:
    def test_1x1_scales_pixels(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = conv2d(x, w)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_impulse_response_is_flipped_kernel(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        x[0, 0, 1, 1] = 1.0
        w = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        out = conv2d(Tensor(x), Tensor(w), stride=1, zero_pad=1)
        np.testing.assert_allclose(out.data[0, 0], w[0, 0, ::-1, ::-1])

    def test_matches_six_loop_reference(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), stride=2)
        ref = reference_conv2d(x, w, stride=2)
        np.testing.assert_allclose(out.data, ref, atol=1e-5)

    @pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (3, 1, 0), (3, 2, 1), (3, 2, 0), (1, 2, 0)])
    def test_reference_agreement_across_geometries(self, k, stride, pad):
        rng = np.random.default_rng(k * 10 + stride)
        x = rng.standard_normal((2, 2, 7, 7)).astype(np.float32)
        w = rng.standard_normal((3, 2, k, k)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), stride=stride, zero_pad=pad)
        np.testing.assert_allclose(out.data, reference_conv2d(x, w, stride, pad), atol=1e-5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 1, 1))))

    def test_unsupported_kernel_raises(self):
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.zeros((1, 1, 8, 8))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_1x1_commutes_with_cropping(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((2, 3, 1, 1)).astype(np.float32)
        full = conv2d(Tensor(x), Tensor(w)).data[:, :, 2:6, 1:5]
        cropped = conv2d(Tensor(x[:, :, 2:6, 1:5]), Tensor(w)).data
        np.testing.assert_array_equal(full, cropped)

    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 1, 10, 10)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        assert conv2d(x, w, stride=2, zero_pad=1).shape == (1, 1, 5, 5)
        assert conv2d(x, w, stride=3, zero_pad=0).shape == (1, 1, 3, 3)

    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3])
    def test_im2col_matches_loop_gather(self, k, stride, pad):
        rng = np.random.default_rng(100 * k + 10 * stride + pad)
        for shape in [(1, 3, 7, 7), (4, 3, 7, 7), (1, 2, 9, 6), (4, 2, 9, 6)]:
            x = rng.standard_normal(shape).astype(np.float32)
            cols, hout, wout = _im2col(x, k, stride, pad)
            ref = reference_im2col(x, k, stride, pad)
            assert cols.shape == ref.shape == (shape[0], shape[1] * k * k, hout * wout)
            assert cols.dtype == x.dtype
            np.testing.assert_array_equal(cols, ref)

    def test_1x1_stride_1_im2col_is_a_view_of_its_input(self):
        x = np.random.default_rng(5).standard_normal((2, 4, 5, 6)).astype(np.float32)
        cols, _, _ = _im2col(x, 1, 1, 0)
        assert np.shares_memory(cols, x)


# ---------------------------------------------------------------------------
# elementwise and reductions

class TestElementwise:
    def test_relu_examples(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_all_negative_zero_gradient(self):
        x = Tensor(-np.ones((2, 2)), requires_grad=True)
        out = sum_all(relu(x))
        out.backward()
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_relu_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_array_equal(relu(Tensor(a)).data, np.maximum(a, 0))

    def test_residual_add_identities(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3)).astype(np.float32)
        np.testing.assert_array_equal(add(Tensor(a), Tensor(np.zeros_like(a))).data, a)
        np.testing.assert_array_equal(add(Tensor(a), Tensor(-a)).data, np.zeros_like(a))
        b = rng.standard_normal((2, 3)).astype(np.float32)
        np.testing.assert_array_equal(add(Tensor(a), Tensor(b)).data, a + b)

    def test_residual_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_spatial_mean(self):
        const = spatial_mean(Tensor(np.full((1, 2, 4, 4), 3.5)))
        np.testing.assert_allclose(const.data, np.full((1, 2), 3.5))
        single = np.arange(6, dtype=np.float32).reshape(1, 6, 1, 1)
        np.testing.assert_array_equal(spatial_mean(Tensor(single)).data, single[:, :, 0, 0])
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(spatial_mean(Tensor(x)).data, x.mean(axis=(2, 3)), atol=1e-6)

    def test_linear_examples(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        eye = np.eye(3, dtype=np.float32)
        np.testing.assert_array_equal(
            linear(Tensor(x), Tensor(eye), Tensor(np.zeros(3))).data, x)
        bias = np.array([1.0, -2.0], dtype=np.float32)
        out = linear(Tensor(x), Tensor(np.zeros((2, 3))), Tensor(bias))
        np.testing.assert_array_equal(out.data, np.tile(bias, (2, 1)))
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 5)).astype(np.float32)
        w = rng.standard_normal((3, 5)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        np.testing.assert_allclose(linear(Tensor(a), Tensor(w), Tensor(b)).data,
                                   a @ w.T + b, atol=1e-5)

    def test_linear_without_bias(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((2, 4)).astype(np.float32)
        np.testing.assert_allclose(linear(Tensor(x), Tensor(w)).data, x @ w.T, atol=1e-5)

    def test_linear_dim_error(self):
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_non_finite_op_output_raises(self):
        big = Tensor(np.full((2, 2), 3e38, dtype=np.float32))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError):
                add(big, big)

    def test_non_finite_leaf_raises(self):
        with pytest.raises(NumericalError):
            Tensor(np.array([1.0, np.nan]))

    def test_relu_and_crop_pass_non_finite_values_without_warnings(self):
        # neither op checks its output or silences numpy; neither may warn
        x = Tensor(np.zeros((1, 1, 2, 3)))
        x.data = np.array([[[[np.nan, np.inf, -np.inf], [-1.0, 2.0, np.nan]]]], dtype=np.float32)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out = relu(x).data
            cropped = crop2d(x, 1, 2).data
        np.testing.assert_array_equal(out, [[[[np.nan, np.inf, 0.0], [0.0, 2.0, np.nan]]]])
        np.testing.assert_array_equal(cropped, x.data[:, :, :1, :2])


def _shipped_conv_geometries():
    """(input [C,H,W], weight shape, stride, pad) of every conv of every
    shipped config, once each."""
    found = {}
    for make in SHIPPED_CONFIGS.values():
        config = make()
        stem, blocks = layer_table(config)
        size = config.input_size
        layers = [(stem, size)]
        size = (size + 2 * stem.pad - stem.kernel) // stem.stride + 1
        for conv1, conv2, conv3, shortcut in blocks:
            after = (size - conv2.kernel) // conv2.stride + 1
            layers += [(conv1, size), (conv2, size), (conv3, after)]
            if shortcut is not None:
                layers.append((shortcut, size))
            size = after
        for layer, s in layers:
            found[((layer.cin, s, s), (layer.cout, layer.cin, layer.kernel, layer.kernel),
                   layer.stride, layer.pad)] = None
    return list(found)


@pytest.mark.parametrize("geometry", _shipped_conv_geometries(),
                         ids=lambda g: "{0}x{1}x{2}-k{5}s{6}p{7}-out{3}".format(*g[0], *g[1][:3], *g[2:]))
def test_rebuilt_weight_gradient_equals_the_saved_patch_formula(geometry):
    """The backward rebuilds the patch matrix from the input; the weight
    gradient equals im2col + matmul + float64 batch sum on the forward's
    patch matrix, bit for bit (stem pad 1, 3x3 stride 2 pad 0, stride 3,
    1x1 stride 2 and 1x1 views)."""
    (c, h, w), wshape, stride, pad = geometry
    rng = np.random.default_rng(sum(wshape) + h)
    x, weight = rand(rng, (3, c, h, w), grad=False), rand(rng, wshape)
    out = conv2d(x, weight, stride=stride, zero_pad=pad)
    r = rng.standard_normal(out.shape).astype(np.float32)
    weighted_sum(out, r).backward()
    cols = _im2col(x.data, wshape[2], stride, pad)[0]
    want = np.matmul(r.reshape(3, wshape[0], -1), cols.transpose(0, 2, 1)).sum(axis=0,
                                                                          dtype=np.float64)
    assert weight.grad.tobytes() == want.astype(np.float32).reshape(wshape).tobytes()


# ---------------------------------------------------------------------------
# batch norm

class TestBatchNorm:
    def test_constant_input_returns_beta(self):
        x = Tensor(np.ones((4, 2, 3, 3), dtype=np.float32) * np.array([2.0, -1.0], dtype=np.float32)[None, :, None, None])
        gamma, beta = Tensor(np.ones(2)), Tensor(np.array([0.5, -0.25]))
        out = batch_norm(x, gamma, beta, BatchNormState(2), training=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(
            beta.data[None, :, None, None], out.shape), atol=1e-4)

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 3, 6, 6)).astype(np.float32)
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                         BatchNormState(3), training=True)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_train_mode_moments(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((16, 4, 8, 8)).astype(np.float32) * 3 + 1
        out = batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         BatchNormState(4), training=True).data.astype(np.float64)
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(out.var(axis=(0, 2, 3)) - 1).max() < 1e-3

    def test_eval_before_any_update_uses_init_stats(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
        out = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         BatchNormState(2), training=False)
        np.testing.assert_allclose(out.data, x / np.sqrt(1 + 1e-5), atol=1e-6)

    def test_train_needs_two_values(self):
        with pytest.raises(DimensionError):
            batch_norm(Tensor(np.zeros((1, 2, 1, 1))), Tensor(np.ones(2)),
                       Tensor(np.zeros(2)), BatchNormState(2), training=True)

    def test_zero_variance_channel_survives(self):
        x = np.zeros((4, 1, 2, 2), dtype=np.float32)
        out = batch_norm(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                         BatchNormState(1), training=True)
        assert np.all(np.isfinite(out.data))

    @staticmethod
    def _train_mode_with_grads(x, gamma, beta, r, dtype):
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        gt = Tensor(gamma, requires_grad=True, dtype=dtype)
        bt = Tensor(beta, requires_grad=True, dtype=dtype)
        out = batch_norm(xt, gt, bt, BatchNormState(x.shape[1]), training=True)
        weighted_sum(out, r).backward()
        return [a.astype(np.float64) for a in (out.data, xt.grad, gt.grad, bt.grad)]

    def test_float32_train_mode_matches_float64_on_offset_channels(self):
        # float32 storage with float64 statistics: a per-channel offset of 100
        # at std 1 must not cost precision in the output or any gradient
        rng = np.random.default_rng(11)
        offsets = np.array([100.0, -100.0, 100.0])
        x = (rng.standard_normal((16, 3, 8, 8)) + offsets[None, :, None, None]).astype(np.float32)
        gamma = (rng.standard_normal(3) + 1.5).astype(np.float32)
        beta = rng.standard_normal(3).astype(np.float32)
        r = rng.standard_normal(x.shape)
        got = self._train_mode_with_grads(x, gamma, beta, r, np.float32)
        ref = self._train_mode_with_grads(x.astype(np.float64), gamma, beta, r, np.float64)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, ref):
            assert np.abs(a - b).max() <= 1e-4 * np.abs(b).max(), name

    def test_eval_mode_equals_normalize_then_affine(self):
        rng = np.random.default_rng(12)
        x = (rng.standard_normal((8, 4, 6, 6)) * 1.5 + 0.3).astype(np.float32)
        gamma = (rng.standard_normal(4) + 1.2).astype(np.float32)
        beta = rng.standard_normal(4).astype(np.float32)
        state = BatchNormState(4)
        state.running_mean = rng.standard_normal(4).astype(np.float32)
        state.running_var = (rng.random(4) * 3 + 0.5).astype(np.float32)
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, training=False).data
        mean = state.running_mean.astype(np.float64)[None, :, None, None]
        std = np.sqrt(state.running_var.astype(np.float64) + state.eps)[None, :, None, None]
        ref = ((x - mean) / std * gamma[None, :, None, None]
               + beta[None, :, None, None]).astype(np.float32)
        assert np.abs(out - ref).max() <= 1e-6 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# softmax cross-entropy

class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((3, 10))), [0, 5, 9])
        assert loss.item() == pytest.approx(math.log(10), abs=1e-6)

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 4), dtype=np.float32)
        logits[0, 1] = 30.0
        loss = softmax_cross_entropy(Tensor(logits), [1])
        assert loss.item() < 1e-8

    def test_matches_high_precision_reference(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((5, 6)).astype(np.float32)
        labels = rng.integers(0, 6, 5)
        loss = softmax_cross_entropy(Tensor(logits), labels)
        z = logits.astype(np.float64)
        ref = -np.mean(np.log(np.exp(z)[np.arange(5), labels]
                              / np.exp(z).sum(axis=1)))
        assert loss.item() == pytest.approx(ref, rel=1e-6)

    def test_out_of_range_label(self):
        with pytest.raises(DimensionError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        probs = softmax(rng.standard_normal((20, 7)) * 10)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# backward mechanics

class TestBackward:
    def test_square_gradient(self):
        # a node that feeds one op twice gets both contributions
        x = Tensor([3.0], requires_grad=True)
        y = sum_all(add(x, x))
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            add(x, x).backward()

    def test_repeated_backward_is_bitwise_identical(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        loss = sum_all(relu(conv2d(x, w, stride=1)))
        loss.backward()
        gx, gw = x.grad.copy(), w.grad.copy()
        loss.backward()
        assert gx.tobytes() == x.grad.tobytes()
        assert gw.tobytes() == w.grad.tobytes()


# ---------------------------------------------------------------------------
# buffer ownership: gradient release and buffers reused by their one reader

def _graph(root):
    """Every node reachable from `root` through `parents`."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


class TestBufferOwnership:
    def test_after_backward_only_leaves_keep_a_gradient(self):
        # every op kind: conv -> train bn -> relu twice, a cropped shortcut,
        # add, relu, mean, linear and the loss
        rng = np.random.default_rng(13)
        x = rand(rng, (4, 3, 8, 8))
        w1, w2 = rand(rng, (5, 3, 3, 3)), rand(rng, (5, 5, 3, 3))
        gamma, beta = rand(rng, (5,)), rand(rng, (5,))
        wl, bl = rand(rng, (3, 5)), rand(rng, (3,))
        h = relu(batch_norm(conv2d(x, w1, zero_pad=1), gamma, beta, BatchNormState(5), True))
        main = batch_norm(conv2d(h, w2), gamma, beta, BatchNormState(5), True)
        out = relu(add(main, crop2d(h, 6, 6)))
        loss = softmax_cross_entropy(linear(spatial_mean(out), wl, bl), [0, 1, 2, 0])
        loss.backward()
        nodes = _graph(loss)
        assert {n.op for n in nodes} == {"leaf", "conv2d", "batch_norm", "relu", "add",
                                         "crop2d", "spatial_mean", "linear",
                                         "softmax_cross_entropy"}
        for node in nodes:
            # every op output is contiguous, but a crop: a view of its input
            assert node.data.flags.c_contiguous == (node.op != "crop2d"), node.op
            if node.op == "leaf":
                assert node.grad is not None and node.grad.shape == node.shape
            else:
                assert node.grad is None, node.op

    @pytest.mark.parametrize("op", ["relu", "batch_norm_train", "batch_norm_eval", "add"])
    def test_leaf_buffers_are_never_written(self, op):
        rng = np.random.default_rng(14)
        a, b = rand(rng, (2, 3, 4, 4)), rand(rng, (2, 3, 4, 4))
        gamma, beta = rand(rng, (3,)), rand(rng, (3,))
        leaves = (a, b, gamma, beta)
        before = [t.data.copy() for t in leaves]
        if op == "relu":
            out = relu(a)
        elif op == "add":
            out = add(a, b)
        else:
            out = batch_norm(a, gamma, beta, BatchNormState(3), op == "batch_norm_train")
        weighted_sum(out, rng.standard_normal(out.shape)).backward()
        for t, was in zip(leaves, before):
            assert t.data.tobytes() == was.tobytes()

    def test_relu_takes_the_buffer_of_an_op_output_only_it_reads(self):
        rng = np.random.default_rng(15)
        x, w = rand(rng, (2, 3, 6, 6)), rand(rng, (4, 3, 3, 3))
        gamma, beta = rand(rng, (4,)), rand(rng, (4,))
        c = conv2d(x, w)
        want = np.maximum(c.data, 0)
        r = relu(c)
        assert np.shares_memory(r.data, c.data)
        np.testing.assert_array_equal(r.data, want)
        bn = batch_norm(conv2d(x, w), gamma, beta, BatchNormState(4), True)
        assert np.shares_memory(relu(bn).data, bn.data)
        s = add(c, c)
        assert np.shares_memory(relu(s).data, s.data)
        assert not np.shares_memory(relu(x).data, x.data)

    def test_train_batch_norm_never_writes_over_a_relu_output(self):
        # relu's backward reads its output: batch norm must leave it intact
        rng = np.random.default_rng(16)
        x, w = rand(rng, (2, 3, 6, 6)), rand(rng, (4, 3, 3, 3))
        gamma, beta = rand(rng, (4,)), rand(rng, (4,))
        r = relu(conv2d(x, w))
        kept = r.data.copy()
        out = batch_norm(r, gamma, beta, BatchNormState(4), True)
        assert r.data.tobytes() == kept.tobytes()
        weighted_sum(out, rng.standard_normal(out.shape)).backward()
        assert r.data.tobytes() == kept.tobytes()

    def test_add_takes_the_buffer_of_a_first_operand_only_it_reads(self):
        rng = np.random.default_rng(17)
        x, w = rand(rng, (2, 3, 6, 6)), rand(rng, (4, 3, 3, 3))
        gamma, beta = rand(rng, (4,)), rand(rng, (4,))
        other = rand(rng, (2, 4, 4, 4))
        c = conv2d(x, w)
        want = c.data + other.data
        s = add(c, other)
        assert np.shares_memory(s.data, c.data)
        np.testing.assert_array_equal(s.data, want)
        bn = batch_norm(conv2d(x, w), gamma, beta, BatchNormState(4), True)
        assert np.shares_memory(add(bn, other).data, bn.data)
        s = add(conv2d(x, w), other)
        assert np.shares_memory(add(s, other).data, s.data)
        assert {"conv2d", "batch_norm", "add"} == _UNREAD_OUTPUTS

    def test_add_never_writes_over_a_leaf_a_relu_output_or_its_second_operand(self):
        # relu's backward reads its output, and the second operand may have
        # other readers: both stay intact through the forward and backward
        rng = np.random.default_rng(18)
        x, w = rand(rng, (2, 3, 6, 6)), rand(rng, (4, 3, 3, 3))
        other = rand(rng, (2, 4, 4, 4))
        r = relu(conv2d(x, w))
        c = conv2d(x, w)
        kept = [t.data.copy() for t in (other, r, c)]
        outs = [add(other, c), add(r, c), add(conv2d(x, w), c)]
        assert not np.shares_memory(outs[0].data, other.data)
        assert not np.shares_memory(outs[1].data, r.data)
        for out in outs:
            assert not np.shares_memory(out.data, c.data)
        twice = conv2d(x, w)
        assert not np.shares_memory(add(twice, twice).data, twice.data)
        for out in outs:
            weighted_sum(out, rng.standard_normal(out.shape)).backward()
        for t, was in zip((other, r, c), kept):
            assert t.data.tobytes() == was.tobytes()

    def test_conv_closure_holds_no_im2col(self):
        # the weight gradient rebuilds the patch matrix from the input, so no
        # closure holds one, whatever the geometry and whichever gradient is
        # taken; the only array a closure holds is the [Cout, Cin*k*k] matrix
        rng = np.random.default_rng(19)
        for k, stride, pad in ((3, 1, 1), (3, 2, 0), (1, 2, 0), (1, 1, 0), (3, 3, 0)):
            for x_grad, w_grad in ((True, False), (False, True), (True, True)):
                x = rand(rng, (2, 3, 9, 9), grad=x_grad)
                cols_shape = _im2col(x.data, k, stride, pad)[0].shape
                w = rand(rng, (4, 3, k, k), grad=w_grad)
                out = conv2d(x, w, stride=stride, zero_pad=pad)
                held = [cell.cell_contents for cell in out._backward.__closure__]
                shapes = [a.shape for a in held if isinstance(a, np.ndarray)]
                assert shapes == [(4, 3 * k * k)], (k, stride, pad, x_grad, w_grad, shapes)
                assert cols_shape not in shapes

    def test_crop_is_a_view_that_add_and_backward_leave_intact(self):
        # as in a residual block: the shortcut is a train-mode batch-norm
        # output, its top-left window the second operand of the add
        rng = np.random.default_rng(21)
        x, w_main, w_short = rand(rng, (2, 3, 8, 8)), rand(rng, (4, 3, 3, 3)), rand(rng, (4, 3, 1, 1))
        gamma, beta = rand(rng, (4,)), rand(rng, (4,))
        main = batch_norm(conv2d(x, w_main), gamma, beta, BatchNormState(4), True)
        short = batch_norm(conv2d(x, w_short), gamma, beta, BatchNormState(4), True)
        crop = crop2d(short, 6, 6)
        assert np.shares_memory(crop.data, short.data)
        np.testing.assert_array_equal(crop.data, short.data[:, :, :6, :6])
        kept = short.data.copy()
        out = relu(add(main, crop))
        assert not np.shares_memory(out.data, short.data)
        weighted_sum(out, rng.standard_normal(out.shape)).backward()
        assert short.data.tobytes() == kept.tobytes()

    def test_linear_closure_holds_each_operand_only_for_the_other_gradient(self):
        rng = np.random.default_rng(20)
        for x_grad, w_grad in ((True, False), (False, True), (True, True)):
            x, w = rand(rng, (3, 5), grad=x_grad), rand(rng, (2, 5), grad=w_grad)
            out = linear(x, w)
            held = [cell.cell_contents for cell in out._backward.__closure__]
            shapes = [a.shape for a in held if isinstance(a, np.ndarray)]
            assert ((3, 5) in shapes) == w_grad
            assert ((2, 5) in shapes) == x_grad

    def test_relu_gradient_keeps_negative_zero(self):
        # the mask multiplies into the gradient, so the signs of zeros are
        # those of g * mask: -0.0 * 1 and -1.0 * 0 are both -0.0
        x = Tensor([1.0, 1.0, -1.0, -1.0], requires_grad=True)
        weighted_sum(relu(x), np.array([-0.0, 1.0, -1.0, 1.0])).backward()
        want = np.array([-0.0, 1.0, -0.0, 0.0], dtype=np.float32)
        assert x.grad.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# gradients vs finite differences, every op, >= 10 seeds

def _fd_check(build, x0, seed, rtol_f32=1e-2, atol_f32=1e-3, rtol_f64=1e-4, atol_f64=1e-6):
    """build(tensor) must return a scalar Tensor; checks both precisions."""
    for dtype, rtol, atol, h in ((np.float64, rtol_f64, atol_f64, 1e-3),
                                 (np.float32, rtol_f32, atol_f32, None)):
        x = Tensor(x0.astype(dtype), requires_grad=True, dtype=dtype)
        loss = build(x)
        loss.backward()
        analytic = x.grad.astype(np.float64)

        def f(arr):
            return build(Tensor(arr.astype(dtype), dtype=dtype)).item()

        if h is not None:
            numeric = numerical_gradient(f, x0.astype(np.float64), h=h)
        else:
            numeric = numerical_gradient_relstep(f, x0.astype(np.float64))
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol,
                                   err_msg=f"seed={seed} dtype={dtype}")


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_conv_input(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((2, 2, 3, 3))
    x0 = rng.standard_normal((1, 2, 5, 5))
    r = rng.standard_normal((1, 2, 3, 3))

    def build(x):
        return weighted_sum(conv2d(x, Tensor(w.astype(x.dtype), dtype=x.dtype),
                                   stride=2, zero_pad=1), r)
    _fd_check(build, x0, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_conv_weight(seed):
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((2, 2, 6, 6))
    w0 = rng.standard_normal((3, 2, 3, 3))
    r = rng.standard_normal((2, 3, 4, 4))

    def build(w):
        return weighted_sum(conv2d(Tensor(x.astype(w.dtype), dtype=w.dtype), w), r)
    _fd_check(build, w0, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_conv_with_scale_and_shift(seed):
    """The eval-mode fold's per-channel constants: the input gradient, the
    forward equal to conv, times scale, plus shift, and no folded weight
    that takes a gradient."""
    rng = np.random.default_rng(seed + 150)
    x0 = rng.standard_normal((2, 2, 5, 5))
    w0 = rng.standard_normal((3, 2, 3, 3))
    scale, shift = rng.uniform(0.5, 2.0, 3), rng.standard_normal(3)
    r = rng.standard_normal((2, 3, 3, 3))

    def conv(x, w):
        return conv2d(x, w, stride=2, zero_pad=1, fold=fold_affine(w.data, scale, shift))
    _fd_check(lambda x: weighted_sum(conv(x, Tensor(w0.astype(x.dtype), dtype=x.dtype)), r),
              x0, seed)
    folded = conv(Tensor(x0, dtype=np.float64), Tensor(w0, dtype=np.float64)).data
    want = reference_conv2d(x0, w0, stride=2, pad=1) * scale[:, None, None] + shift[:, None, None]
    np.testing.assert_allclose(folded, want, rtol=1e-12, atol=1e-12)
    with pytest.raises(DimensionError):
        conv(Tensor(x0), Tensor(w0, requires_grad=True))


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_relu(seed):
    rng = np.random.default_rng(seed + 200)
    x0 = rng.standard_normal((3, 4))
    x0 += np.sign(x0) * 0.2  # keep every element clear of the kink
    r = rng.standard_normal((3, 4))
    _fd_check(lambda x: weighted_sum(relu(x), r), x0, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_batch_norm(seed):
    rng = np.random.default_rng(seed + 300)
    x0 = rng.standard_normal((3, 2, 4, 4))
    gamma = rng.standard_normal(2) + 1.5
    beta = rng.standard_normal(2)
    r = rng.standard_normal((3, 2, 4, 4))

    def build(x):
        state = BatchNormState(2)
        return weighted_sum(batch_norm(x, Tensor(gamma.astype(x.dtype), dtype=x.dtype),
                                       Tensor(beta.astype(x.dtype), dtype=x.dtype),
                                       state, training=True), r)
    _fd_check(build, x0, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_batch_norm_gamma_eval(seed):
    rng = np.random.default_rng(seed + 350)
    x = rng.standard_normal((2, 3, 3, 3))
    beta = rng.standard_normal(3)
    g0 = rng.standard_normal(3) + 1.2
    r = rng.standard_normal((2, 3, 3, 3))

    def build(g):
        state = BatchNormState(3)
        return weighted_sum(batch_norm(Tensor(x.astype(g.dtype), dtype=g.dtype), g,
                                       Tensor(beta.astype(g.dtype), dtype=g.dtype),
                                       state, training=False), r)
    _fd_check(build, g0, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_linear_all_args(seed):
    rng = np.random.default_rng(seed + 400)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((2, 4))
    b = rng.standard_normal(2)
    r = rng.standard_normal((3, 2))
    _fd_check(lambda t: weighted_sum(linear(t, Tensor(w.astype(t.dtype), dtype=t.dtype),
                                            Tensor(b.astype(t.dtype), dtype=t.dtype)), r),
              x, seed)
    _fd_check(lambda t: weighted_sum(linear(Tensor(x.astype(t.dtype), dtype=t.dtype), t,
                                            Tensor(b.astype(t.dtype), dtype=t.dtype)), r),
              w, seed)
    _fd_check(lambda t: weighted_sum(linear(Tensor(x.astype(t.dtype), dtype=t.dtype),
                                            Tensor(w.astype(t.dtype), dtype=t.dtype), t), r),
              b, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_spatial_mean(seed):
    rng = np.random.default_rng(seed + 500)
    x0 = rng.standard_normal((2, 3, 4, 4))
    r = rng.standard_normal((2, 3))
    _fd_check(lambda x: weighted_sum(spatial_mean(x), r), x0, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_softmax_cross_entropy(seed):
    rng = np.random.default_rng(seed + 600)
    x0 = rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, 4)
    _fd_check(lambda x: softmax_cross_entropy(x, labels), x0, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_residual_add(seed):
    rng = np.random.default_rng(seed + 700)
    x0 = rng.standard_normal((2, 2, 3, 3))
    other = rng.standard_normal((2, 2, 3, 3))
    r = rng.standard_normal((2, 2, 3, 3))
    _fd_check(lambda x: weighted_sum(
        add(x, Tensor(other.astype(x.dtype), dtype=x.dtype)), r), x0, seed)


def _fd_each(build, arrays, seed, **tol):
    """_fd_check of build(tensors) with respect to each of `arrays` in turn,
    the others held constant in the same dtype."""
    for i, x0 in enumerate(arrays):
        def one(t, i=i):
            return build([t if j == i else Tensor(a.astype(t.dtype), dtype=t.dtype)
                          for j, a in enumerate(arrays)])
        _fd_check(one, x0, seed, **tol)


def _clear_of_kink(pre, inputs, weights, r):
    """r with the terms zeroed whose relu input `pre` is within reach of
    the kink under the largest finite-difference step (5% of the largest
    input, times the largest weight it meets, with room to spare)."""
    step = 0.05 * max(np.abs(inputs).max(), 0.1) * max(np.abs(weights).max(), 1.0)
    return r * (np.abs(pre) > 2 * step)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_relu_over_conv_output(seed):
    # relu writes over the conv output; its mask multiplies into g in place
    rng = np.random.default_rng(seed + 800)
    x0, w0 = rng.standard_normal((2, 2, 5, 5)), rng.standard_normal((3, 2, 3, 3))
    pre = conv2d(Tensor(x0, dtype=np.float64), Tensor(w0, dtype=np.float64)).data
    r = rng.standard_normal(pre.shape)
    r = _clear_of_kink(pre, x0, w0, _clear_of_kink(pre, w0, x0, r))
    _fd_each(lambda t: weighted_sum(relu(conv2d(t[0], t[1])), r), [x0, w0], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_train_batch_norm_over_conv_then_relu(seed):
    # batch norm writes its deviation over the conv output, relu writes over
    # the batch-norm output; beta keeps every relu input far from the kink,
    # on both sides of it
    rng = np.random.default_rng(seed + 900)
    x0, w0 = rng.standard_normal((2, 2, 5, 5)), rng.standard_normal((4, 2, 3, 3))
    gamma0 = rng.uniform(0.5, 1.5, 4)
    beta0 = np.array([8.0, -8.0, 8.0, -8.0]) + rng.uniform(-0.5, 0.5, 4)
    r = rng.standard_normal((2, 4, 3, 3))

    def build(t):
        h = batch_norm(conv2d(t[0], t[1]), t[2], t[3], BatchNormState(4), training=True)
        return weighted_sum(relu(h), r)
    _fd_each(build, [x0, w0, gamma0, beta0], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_relu_over_add(seed):
    # relu writes over the sum; add hands its gradient to the first operand
    # and a copy to the second
    rng = np.random.default_rng(seed + 1000)
    a0, b0 = rng.standard_normal((2, 2, 3, 3)), rng.standard_normal((2, 2, 3, 3))
    r = rng.standard_normal(a0.shape)
    r = _clear_of_kink(a0 + b0, np.concatenate([a0, b0]), 1.0, r)
    _fd_each(lambda t: weighted_sum(relu(add(t[0], t[1])), r), [a0, b0], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_residual_add_over_batch_norm_outputs(seed):
    # add writes the sum over the main path's batch-norm output (which wrote
    # its deviation over the conv output), relu writes over the sum; the
    # cropped shortcut is the second operand. Terms near the relu kink are
    # dropped from r
    rng = np.random.default_rng(seed + 1100)
    x0 = rng.standard_normal((2, 2, 5, 5))
    w10, w20 = rng.standard_normal((3, 2, 3, 3)), rng.standard_normal((3, 2, 1, 1))
    gamma10, gamma20 = rng.uniform(0.5, 1.0, 3), rng.uniform(0.5, 1.0, 3)
    beta10 = np.array([8.0, -8.0, 8.0]) + rng.uniform(-0.5, 0.5, 3)
    beta20 = rng.uniform(-0.5, 0.5, 3)
    arrays = [x0, w10, w20, gamma10, beta10, gamma20, beta20]

    def block(t):
        main = batch_norm(conv2d(t[0], t[1]), t[3], t[4], BatchNormState(3), training=True)
        short = batch_norm(conv2d(t[0], t[2]), t[5], t[6], BatchNormState(3), training=True)
        return add(main, crop2d(short, 3, 3))

    pre = block([Tensor(a, dtype=np.float64) for a in arrays]).data
    r = rng.standard_normal(pre.shape) * (np.abs(pre) > 1.0)
    assert np.count_nonzero(r) > r.size // 2
    _fd_each(lambda t: weighted_sum(relu(block(t)), r), arrays, seed)


# ---------------------------------------------------------------------------
# optimizer

class TestSgdMomentum:
    def test_zero_momentum_is_plain_sgd(self):
        p = Parameter("w", Tensor([1.0, 2.0]))
        p.value.grad = np.array([0.5, -0.5], dtype=np.float32)
        sgd_momentum_step([p], lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p.value.data, [0.95, 2.05])

    def test_two_steps_accumulate_velocity(self):
        p = Parameter("w", Tensor([0.0]))
        g = np.array([1.0], dtype=np.float32)
        for _ in range(2):
            p.value.grad = g.copy()
            sgd_momentum_step([p], lr=0.1, momentum=0.9)
        # v1 = g, v2 = 1.9 g: total change -lr*g*(1 + 1.9)
        np.testing.assert_allclose(p.value.data, [-0.1 * (1 + 1.9)], rtol=1e-6)

    def test_missing_gradient_raises(self):
        p = Parameter("w", Tensor([1.0]))
        with pytest.raises(MissingGradientError):
            sgd_momentum_step([p], lr=0.1, momentum=0.9)

    def test_converges_on_quadratic(self):
        # minimize 0.5 * x^2 (gradient is x); expectation fixed first by a
        # plain scalar simulation of the same recurrence
        x_ref, v_ref = 5.0, 0.0
        for _ in range(200):
            v_ref = 0.5 * v_ref + x_ref
            x_ref -= 0.3 * v_ref
        assert abs(x_ref) < 1e-4

        p = Parameter("x", Tensor([5.0]))
        for _ in range(200):
            p.value.grad = p.value.data.copy()
            sgd_momentum_step([p], lr=0.3, momentum=0.5)
        assert abs(float(p.value.data[0])) < 1e-4
