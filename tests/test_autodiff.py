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
