"""Architecture-level checks: receptive-field arithmetic, oracle
equivalence of the two evidence routes, linearity interchange, locality
certification (positive and negative) and scrambling invariance."""

import numpy as np
import pytest

import bagnet.model as bm
from bagnet.autodiff import NumericalError, Tensor, batch_norm, conv2d
from bagnet.model import (
    SHIPPED_CONFIGS,
    BagNetConfig,
    BlockSpec,
    ConfigError,
    aggregate_then_classify,
    bagnet3_33,
    bagnet5_32,
    bagnet9_32,
    bagnet17_64,
    build_model,
    certify_receptive_field,
    forward_evidence,
    image_logits,
    paper_scale,
    patch_oracle_evidence,
    receptive_field,
    rf_geometry,
    with_declared_q,
)

ALL_CONFIGS = [bagnet5_32, bagnet9_32, bagnet17_64, bagnet3_33]


def _config_from_layers(kernels, strides, stem_pad=0):
    """Single-path helper config: stem from the first layer, 1-block stages
    for the rest (all middle channels 4)."""
    blocks = []
    prev = 16
    for k, s in zip(kernels[1:], strides[1:]):
        blocks.append(BlockSpec(prev, 4, 16, k, s))
        prev = 16
    return BagNetConfig(q=receptive_field_of(kernels, strides), stem=(kernels[0], strides[0], stem_pad, 16),
                        blocks=tuple(blocks), num_classes=2, input_size=64, feature_dim=16)


def receptive_field_of(kernels, strides):
    rf, jump = 1, 1
    for k, s in zip(kernels, strides):
        rf += (k - 1) * jump
        jump *= s
    return rf


class TestReceptiveField:
    def test_single_3x3(self):
        cfg = BagNetConfig(q=3, stem=(3, 1, 0, 8), blocks=(), num_classes=2,
                           input_size=8, feature_dim=8)
        assert receptive_field(cfg) == (3, 1)

    def test_two_3x3(self):
        cfg = _config_from_layers([3, 3], [1, 1])
        assert receptive_field(cfg) == (5, 1)

    def test_hand_recurrence_k3311_s1212(self):
        # layers k=[3,3,1,3] s=[1,2,1,2]: rf 3,5,5,5+2*2=9... jump 1,1,2,2
        # -> rf = 1+2+2 + 0 + 2*2 = 9? recompute: after k3s1: rf3 j1;
        # k3s2: rf5 j2; k1s1: rf5 j2; k3s2: rf 5+2*2=9 j4.
        cfg = _config_from_layers([3, 3, 1, 3], [1, 2, 1, 2])
        rf, stride = receptive_field(cfg)
        assert stride == 4
        assert rf == 9

    def test_stem_only_3x3_with_1x1_blocks(self):
        cfg = BagNetConfig(q=3, stem=(3, 1, 0, 8),
                           blocks=(BlockSpec(8, 2, 8, 1, 1), BlockSpec(8, 2, 8, 1, 1)),
                           num_classes=2, input_size=16, feature_dim=8)
        assert receptive_field(cfg) == (3, 1)
        model = build_model(cfg, seed=0)  # fail-fast would raise on mismatch
        assert model.config.q == 3

    @pytest.mark.parametrize("q", [9, 17, 33])
    def test_paper_scale_receptive_fields(self, q):
        assert receptive_field(paper_scale(q))[0] == q

    def test_desk_bagnet9_geometry(self):
        cfg = bagnet9_32()
        rf, stride = receptive_field(cfg)
        assert (rf, stride) == (9, 4)

    def test_build_rejects_wrong_declared_q(self):
        from dataclasses import replace
        bad = replace(bagnet9_32(), q=7)
        with pytest.raises(ConfigError):
            build_model(bad, seed=0)

    def test_block_invariants(self):
        with pytest.raises(ConfigError):
            BlockSpec(8, 4, 12, 3, 1)   # expansion must be 4x
        with pytest.raises(ConfigError):
            BlockSpec(8, 4, 16, 5, 1)   # kernel 5 unsupported
        assert BlockSpec(8, 4, 16, 3, 2).needs_shortcut_conv
        assert not BlockSpec(16, 4, 16, 1, 1).needs_shortcut_conv


class TestBuildModel:
    def test_deterministic_init(self):
        a = build_model(bagnet5_32(), seed=7)
        b = build_model(bagnet5_32(), seed=7)
        for name in a.params:
            assert a.params[name].value.data.tobytes() == b.params[name].value.data.tobytes()

    def test_different_seeds_differ(self):
        a = build_model(bagnet5_32(), seed=7)
        b = build_model(bagnet5_32(), seed=8)
        assert a.params["stem.conv.weight"].value.data.tobytes() != \
            b.params["stem.conv.weight"].value.data.tobytes()

    def test_classifier_shape(self):
        model = build_model(bagnet9_32(num_classes=6), seed=0)
        assert model.params["classifier.weight"].value.shape == (6, 128)


class TestEvidence:
    def test_zero_classifier_gives_zero_map(self):
        model = build_model(bagnet9_32(), seed=0)
        model.params["classifier.weight"].value.data[:] = 0
        model.params["classifier.bias"].value.data[:] = 0
        em = forward_evidence(model, np.zeros((3, 32, 32), dtype=np.float32))
        np.testing.assert_array_equal(em.logits, np.zeros_like(em.logits))

    def test_constant_image_constant_interior(self):
        model = build_model(bagnet9_32(), seed=1)
        em = forward_evidence(model, np.full((3, 32, 32), 0.3, dtype=np.float32))
        interior = em.interior_mask()
        vals = em.logits[:, interior]
        spread = np.abs(vals - vals[:, :1]).max()
        assert spread < 1e-4

    def test_image_smaller_than_q_rejected(self):
        model = build_model(bagnet9_32(), seed=1)
        with pytest.raises(ConfigError):
            forward_evidence(model, np.zeros((3, 8, 8), dtype=np.float32))

    def test_interior_mask(self):
        # 9x9 windows every 4 px from -1 (the stem pads by 1): row and column
        # 0 reach past the top-left border, windows 1-6 end by pixel 32
        model = build_model(bagnet9_32(), seed=1)
        em = forward_evidence(model, np.zeros((3, 32, 32), dtype=np.float32))
        want = np.zeros((7, 7), dtype=bool)
        want[1:, 1:] = True
        np.testing.assert_array_equal(em.interior_mask(), want)

    @pytest.mark.parametrize("cfg_fn", [bagnet5_32, bagnet9_32])
    def test_oracle_equivalence(self, cfg_fn):
        model = build_model(cfg_fn(), seed=3)
        rng = np.random.default_rng(10)
        for _ in range(3):
            img = rng.standard_normal((3, 32, 32)).astype(np.float32)
            fast = forward_evidence(model, img)
            slow = patch_oracle_evidence(model, img)
            assert fast.logits.shape == slow.logits.shape
            np.testing.assert_allclose(fast.logits, slow.logits, atol=1e-4)

    def test_oracle_equivalence_single_location(self):
        # H = W = q: exactly one location, stride irrelevant
        cfg = bagnet9_32()
        model = build_model(cfg, seed=4)
        rng = np.random.default_rng(11)
        img = rng.standard_normal((3, 9, 9)).astype(np.float32)
        fast = forward_evidence(model, img)
        slow = patch_oracle_evidence(model, img)
        np.testing.assert_allclose(fast.logits, slow.logits, atol=1e-4)

    def test_image_logits_is_spatial_mean(self):
        em = forward_evidence(build_model(bagnet5_32(), seed=5),
                              np.random.default_rng(0).standard_normal((3, 32, 32)).astype(np.float32))
        np.testing.assert_allclose(image_logits(em),
                                   em.logits.astype(np.float64).mean(axis=(1, 2)),
                                   atol=1e-6)
        const = np.full((4, 3, 3), 1.25, dtype=np.float32)
        em.logits = const
        np.testing.assert_allclose(image_logits(em), [1.25] * 4, atol=1e-7)

    @pytest.mark.parametrize("cfg_fn", ALL_CONFIGS)
    def test_linearity_interchange(self, cfg_fn):
        cfg = cfg_fn()
        model = build_model(cfg, seed=6)
        rng = np.random.default_rng(12)
        for _ in range(5):
            img = rng.standard_normal((3, cfg.input_size, cfg.input_size)).astype(np.float32)
            a = image_logits(forward_evidence(model, img))
            b = aggregate_then_classify(model, img)
            np.testing.assert_allclose(a, b, atol=1e-4)


class TestCertification:
    def test_all_shipped_configs_certify(self):
        for cfg_fn in ALL_CONFIGS:
            model = build_model(cfg_fn(), seed=2)
            _, hm, wm = forward_evidence(
                model, np.zeros((3, model.config.input_size, model.config.input_size),
                                dtype=np.float32)).logits.shape
            cert = certify_receptive_field(model, (hm // 2, wm // 2), trials=2, seed=0)
            assert cert.passed, str(cert)
            assert cert.max_leakage <= 1e-6

    def test_misdeclared_q_fails(self):
        model = build_model(bagnet9_32(), seed=2)
        fake = with_declared_q(model, 8)
        cert = certify_receptive_field(fake, (3, 3), trials=1, seed=0)
        assert not cert.passed
        assert cert.leak_offset is not None

    def test_full_border_scan_no_leak(self):
        # perturb every pixel of the one-pixel ring around a window
        model = build_model(bagnet9_32(), seed=2)

        def location_logits(model, image, loc):
            return forward_evidence(model, image).logits[:, loc[0], loc[1]].astype(np.float64)

        loc = (3, 3)
        _, jump, offset = rf_geometry(model.config)
        top = left = offset + 3 * jump
        q = model.config.q
        rng = np.random.default_rng(1)
        img = rng.standard_normal((3, 32, 32)).astype(np.float32)
        base = location_logits(model, img, loc)
        for r in range(top - 1, top + q + 1):
            for c in range(left - 1, left + q + 1):
                on_ring = r in (top - 1, top + q) or c in (left - 1, left + q)
                if not on_ring or not (0 <= r < 32 and 0 <= c < 32):
                    continue
                probe = img.copy()
                probe[:, r, c] += 5.0
                delta = np.abs(location_logits(model, probe, loc) - base).max()
                assert delta <= 1e-6, f"leak {delta} at ring pixel {(r, c)}"


class TestScramblingInvariance:
    def test_block_permutation_preserves_logits(self):
        from bagnet.interpret import scramble_blocks
        cfg = bagnet3_33()
        model = build_model(cfg, seed=3)
        rng = np.random.default_rng(5)
        img = rng.standard_normal((3, 33, 33)).astype(np.float32)
        base = aggregate_then_classify(model, img)
        n_blocks = (33 // 3) ** 2
        for _ in range(5):
            perm = rng.permutation(n_blocks)
            scrambled = scramble_blocks(img, 3, perm)
            np.testing.assert_allclose(aggregate_then_classify(model, scrambled),
                                       base, atol=1e-5)

    def test_identity_permutation_exact(self):
        from bagnet.interpret import scramble_blocks
        img = np.random.default_rng(0).standard_normal((3, 33, 33)).astype(np.float32)
        out = scramble_blocks(img, 3, np.arange((33 // 3) ** 2))
        assert out.tobytes() == img.tobytes()


TINY_CFG = BagNetConfig(q=5, stem=(3, 1, 0, 4), blocks=(BlockSpec(4, 2, 8, 3, 2),),
                        num_classes=3, input_size=11, feature_dim=8)


def _tiny_model(dtype):
    """Eval-mode tiny net with non-trivial running stats (eval mode keeps the
    loss surface smooth enough for finite differences; train-mode batch norm
    is finite-difference-checked at op level)."""
    m = build_model(TINY_CFG, seed=13)
    r = np.random.default_rng(99)
    for st in m.bn.values():
        st.running_mean = r.normal(0, 0.3, st.running_mean.shape).astype(np.float32)
        st.running_var = (1.0 + r.uniform(-0.3, 0.5, st.running_var.shape)).astype(np.float32)
    if dtype == np.float64:
        for p in m.params.values():
            p.value = Tensor(p.value.data.astype(np.float64), requires_grad=True,
                             dtype=np.float64)
    return m.eval_mode()


def _tiny_loss(m, x, labels, dtype):
    from bagnet.autodiff import softmax_cross_entropy
    from bagnet.model import forward_logits
    return softmax_cross_entropy(forward_logits(m, Tensor(x, dtype=dtype)), labels)


def test_full_model_gradients_f64_path():
    """Every parameter's gradient vs central differences (h = 1e-3) on the
    float64 verification path, relative error < 1e-4 elementwise."""
    from oracles import numerical_gradient

    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 3, 11, 11))
    labels = np.array([0, 2])
    m = _tiny_model(np.float64)
    _tiny_loss(m, x, labels, np.float64).backward()
    for name, p in m.params.items():
        analytic = p.value.grad.astype(np.float64)

        def f(arr, _name=name):
            m2 = _tiny_model(np.float64)
            m2.params[_name].value.data = arr.copy()
            return _tiny_loss(m2, x, labels, np.float64).item()

        numeric = numerical_gradient(f, p.value.data.copy(), h=1e-3)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        assert rel.max() < 1e-4, f"{name}: worst relative error {rel.max():.3g}"


def test_full_model_gradients_f32_path():
    """float32 path with magnitude-relative steps. Elements where two step
    sizes disagree have an unreliable difference oracle (float32 noise or a
    relu kink inside the step) and certify nothing; everywhere the oracle is
    self-consistent the analytic gradient must match within 1e-2."""
    from oracles import numerical_gradient_relstep

    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 3, 11, 11)).astype(np.float32)
    labels = np.array([0, 2])
    m = _tiny_model(np.float32)
    _tiny_loss(m, x, labels, np.float32).backward()
    total = consistent_total = 0
    for name, p in m.params.items():
        analytic = p.value.grad.astype(np.float64)

        def f(arr, _name=name):
            m2 = _tiny_model(np.float32)
            m2.params[_name].value.data = arr.astype(np.float32)
            return _tiny_loss(m2, x, labels, np.float32).item()

        fd_a = numerical_gradient_relstep(f, p.value.data.astype(np.float64), rel=1e-2)
        fd_b = numerical_gradient_relstep(f, p.value.data.astype(np.float64), rel=2.5e-3)
        scale = np.maximum(np.maximum(np.abs(fd_a), np.abs(fd_b)), 1e-2)
        consistent = np.abs(fd_a - fd_b) / scale < 2.5e-3
        rel = np.abs(analytic - fd_b) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(fd_b)), 1e-2)
        assert rel[consistent].max(initial=0.0) < 1e-2, \
            f"{name}: worst relative error {rel[consistent].max():.3g}"
        total += rel.size
        consistent_total += consistent.sum()
    assert consistent_total / total > 0.5, "difference oracle unusable almost everywhere"


# ---------------------------------------------------------------------------
# the layer table: parameter order (the BAGC tensor order) and geometry

PINNED_PARAMS = {
    "bagnet5_32": """
stem.conv.weight 16x3x3x3  stem.bn.gamma 16  stem.bn.beta 16
block0.conv1.weight 8x16x1x1  block0.bn1.gamma 8  block0.bn1.beta 8
block0.conv2.weight 8x8x3x3  block0.bn2.gamma 8  block0.bn2.beta 8
block0.conv3.weight 32x8x1x1  block0.bn3.gamma 32  block0.bn3.beta 32
block0.shortcut.weight 32x16x1x1  block0.bn_sc.gamma 32  block0.bn_sc.beta 32
block1.conv1.weight 16x32x1x1  block1.bn1.gamma 16  block1.bn1.beta 16
block1.conv2.weight 16x16x1x1  block1.bn2.gamma 16  block1.bn2.beta 16
block1.conv3.weight 64x16x1x1  block1.bn3.gamma 64  block1.bn3.beta 64
block1.shortcut.weight 64x32x1x1  block1.bn_sc.gamma 64  block1.bn_sc.beta 64
block2.conv1.weight 32x64x1x1  block2.bn1.gamma 32  block2.bn1.beta 32
block2.conv2.weight 32x32x1x1  block2.bn2.gamma 32  block2.bn2.beta 32
block2.conv3.weight 128x32x1x1  block2.bn3.gamma 128  block2.bn3.beta 128
block2.shortcut.weight 128x64x1x1  block2.bn_sc.gamma 128  block2.bn_sc.beta 128
classifier.weight 4x128  classifier.bias 4""",
    "bagnet9_32": """
stem.conv.weight 16x3x3x3  stem.bn.gamma 16  stem.bn.beta 16
block0.conv1.weight 8x16x1x1  block0.bn1.gamma 8  block0.bn1.beta 8
block0.conv2.weight 8x8x3x3  block0.bn2.gamma 8  block0.bn2.beta 8
block0.conv3.weight 32x8x1x1  block0.bn3.gamma 32  block0.bn3.beta 32
block0.shortcut.weight 32x16x1x1  block0.bn_sc.gamma 32  block0.bn_sc.beta 32
block1.conv1.weight 8x32x1x1  block1.bn1.gamma 8  block1.bn1.beta 8
block1.conv2.weight 8x8x1x1  block1.bn2.gamma 8  block1.bn2.beta 8
block1.conv3.weight 32x8x1x1  block1.bn3.gamma 32  block1.bn3.beta 32
block2.conv1.weight 16x32x1x1  block2.bn1.gamma 16  block2.bn1.beta 16
block2.conv2.weight 16x16x3x3  block2.bn2.gamma 16  block2.bn2.beta 16
block2.conv3.weight 64x16x1x1  block2.bn3.gamma 64  block2.bn3.beta 64
block2.shortcut.weight 64x32x1x1  block2.bn_sc.gamma 64  block2.bn_sc.beta 64
block3.conv1.weight 32x64x1x1  block3.bn1.gamma 32  block3.bn1.beta 32
block3.conv2.weight 32x32x1x1  block3.bn2.gamma 32  block3.bn2.beta 32
block3.conv3.weight 128x32x1x1  block3.bn3.gamma 128  block3.bn3.beta 128
block3.shortcut.weight 128x64x1x1  block3.bn_sc.gamma 128  block3.bn_sc.beta 128
classifier.weight 4x128  classifier.bias 4""",
    "bagnet17_64": """
stem.conv.weight 16x3x3x3  stem.bn.gamma 16  stem.bn.beta 16
block0.conv1.weight 8x16x1x1  block0.bn1.gamma 8  block0.bn1.beta 8
block0.conv2.weight 8x8x3x3  block0.bn2.gamma 8  block0.bn2.beta 8
block0.conv3.weight 32x8x1x1  block0.bn3.gamma 32  block0.bn3.beta 32
block0.shortcut.weight 32x16x1x1  block0.bn_sc.gamma 32  block0.bn_sc.beta 32
block1.conv1.weight 16x32x1x1  block1.bn1.gamma 16  block1.bn1.beta 16
block1.conv2.weight 16x16x3x3  block1.bn2.gamma 16  block1.bn2.beta 16
block1.conv3.weight 64x16x1x1  block1.bn3.gamma 64  block1.bn3.beta 64
block1.shortcut.weight 64x32x1x1  block1.bn_sc.gamma 64  block1.bn_sc.beta 64
block2.conv1.weight 32x64x1x1  block2.bn1.gamma 32  block2.bn1.beta 32
block2.conv2.weight 32x32x3x3  block2.bn2.gamma 32  block2.bn2.beta 32
block2.conv3.weight 128x32x1x1  block2.bn3.gamma 128  block2.bn3.beta 128
block2.shortcut.weight 128x64x1x1  block2.bn_sc.gamma 128  block2.bn_sc.beta 128
classifier.weight 4x128  classifier.bias 4""",
    "bagnet3_33": """
stem.conv.weight 16x3x3x3  stem.bn.gamma 16  stem.bn.beta 16
block0.conv1.weight 8x16x1x1  block0.bn1.gamma 8  block0.bn1.beta 8
block0.conv2.weight 8x8x1x1  block0.bn2.gamma 8  block0.bn2.beta 8
block0.conv3.weight 32x8x1x1  block0.bn3.gamma 32  block0.bn3.beta 32
block0.shortcut.weight 32x16x1x1  block0.bn_sc.gamma 32  block0.bn_sc.beta 32
block1.conv1.weight 16x32x1x1  block1.bn1.gamma 16  block1.bn1.beta 16
block1.conv2.weight 16x16x1x1  block1.bn2.gamma 16  block1.bn2.beta 16
block1.conv3.weight 64x16x1x1  block1.bn3.gamma 64  block1.bn3.beta 64
block1.shortcut.weight 64x32x1x1  block1.bn_sc.gamma 64  block1.bn_sc.beta 64
block2.conv1.weight 32x64x1x1  block2.bn1.gamma 32  block2.bn1.beta 32
block2.conv2.weight 32x32x1x1  block2.bn2.gamma 32  block2.bn2.beta 32
block2.conv3.weight 128x32x1x1  block2.bn3.gamma 128  block2.bn3.beta 128
block2.shortcut.weight 128x64x1x1  block2.bn_sc.gamma 128  block2.bn_sc.beta 128
classifier.weight 4x128  classifier.bias 4""",
}


@pytest.mark.parametrize("name", sorted(PINNED_PARAMS))
def test_parameter_names_and_shapes_are_pinned(name):
    tokens = PINNED_PARAMS[name].split()
    model = build_model(SHIPPED_CONFIGS[name](), seed=0)
    got = [(n, "x".join(map(str, p.value.shape))) for n, p in model.params.items()]
    assert got == list(zip(tokens[::2], tokens[1::2]))


@pytest.mark.parametrize("config,geometry", [
    (bagnet9_32(), (9, 4, -1)), (bagnet5_32(), (5, 4, -1)), (bagnet17_64(), (17, 8, -1)),
    (bagnet3_33(), (3, 3, 0)), (paper_scale(9), (9, 8, 0)), (paper_scale(17), (17, 8, 0)),
    (paper_scale(33), (33, 8, 0)),
])
def test_rf_geometry_is_pinned(config, geometry):
    assert rf_geometry(config) == geometry


# ---------------------------------------------------------------------------
# numpy evidence and logit passes keep no backward graph

GRAPH_OPS = ("conv2d", "batch_norm", "relu", "crop2d", "add", "spatial_mean", "linear")


@pytest.mark.parametrize("path", ["evidence_batch", "batch_logits", "patch_oracle_evidence"])
def test_numpy_pass_keeps_no_backward_closure(monkeypatch, path):
    model = build_model(bagnet9_32(), seed=0)
    before = {n: p.value.requires_grad for n, p in model.params.items()}
    outputs = []
    for op in GRAPH_OPS:
        def recording(*args, _op=getattr(bm, op), **kwargs):
            outputs.append(_op(*args, **kwargs))
            return outputs[-1]
        monkeypatch.setattr(bm, op, recording)
    images = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
    getattr(bm, path)(model, images[0] if path == "patch_oracle_evidence" else images)
    assert outputs and all(t._backward is None for t in outputs)
    assert {n: p.value.requires_grad for n, p in model.params.items()} == before


def test_frozen_params_restores_the_flags_it_found():
    model = build_model(bagnet5_32(), seed=0)
    model.params["classifier.bias"].value.requires_grad = False
    before = {n: p.value.requires_grad for n, p in model.params.items()}
    with bm.frozen_params(model):
        with bm.frozen_params(model):
            pass
        bm.evidence_batch(model, np.zeros((1, 3, 32, 32), np.float32))
        assert not any(p.value.requires_grad for p in model.params.values())
    assert {n: p.value.requires_grad for n, p in model.params.items()} == before


def test_repeated_pass_reuses_freed_buffers():
    """A second pass of the same size takes its buffers from the heap that
    the first one freed, not from fresh kernel pages (about 23,500 minor
    faults per 128-image pass under glibc's default thresholds)."""
    resource = pytest.importorskip("resource")
    ctypes = pytest.importorskip("ctypes")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("libc has no mallopt")
    model = build_model(bagnet9_32(), seed=0)
    images = np.random.default_rng(0).standard_normal((128, 3, 32, 32)).astype(np.float32)
    bm.evidence_batch(model, images)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    bm.evidence_batch(model, images)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


# ---------------------------------------------------------------------------
# eval passes fold batch norm into the conv

def _with_running_stats(model, seed):
    """Non-trivial running statistics, gamma and beta in every batch norm."""
    r = np.random.default_rng(seed)
    for name, st in model.bn.items():
        c = st.running_mean.shape
        st.running_mean = r.normal(0, 0.3, c).astype(np.float32)
        st.running_var = r.uniform(0.5, 2.0, c).astype(np.float32)
        model.params[f"{name}.gamma"].value.data = r.uniform(0.5, 1.5, c).astype(np.float32)
        model.params[f"{name}.beta"].value.data = r.normal(0, 0.2, c).astype(np.float32)
    return model


def _conv_then_batch_norm(model, layer, x):
    """The unfolded composition: conv2d, then eval-mode batch_norm."""
    p = model.params
    h = conv2d(x, p[f"{layer.conv}.weight"].value, stride=layer.stride, zero_pad=layer.pad)
    return batch_norm(h, p[f"{layer.bn}.gamma"].value, p[f"{layer.bn}.beta"].value,
                      model.bn[layer.bn], training=False)


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_eval_fold_matches_conv_then_batch_norm(monkeypatch, name):
    """Frozen eval evidence and saliency gradients with the fold are within
    1e-4 (relative to max(1, |value|)) of conv2d -> batch_norm layer by layer."""
    from bagnet.interpret import saliency

    model = _with_running_stats(build_model(SHIPPED_CONFIGS[name](), seed=5), seed=6)
    size = model.config.input_size
    images = np.random.default_rng(7).standard_normal((4, 3, size, size)).astype(np.float32)
    folded = bm.evidence_batch(model, images), saliency(model, images[0], 1)
    monkeypatch.setattr(bm, "_conv_bn", _conv_then_batch_norm)
    unfolded = bm.evidence_batch(model, images), saliency(model, images[0], 1)
    for got, want in zip(folded, unfolded):
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-4


def test_frozen_pass_checks_once_per_conv_and_residual_add(monkeypatch):
    """A frozen bagnet9_32 pass checks finiteness at most once per conv (the
    folded batch norm included), once per residual add, and once for the
    leaf; relu and crop2d outputs are not checked."""
    import bagnet.autodiff as ad

    model = build_model(bagnet9_32(), seed=0)
    _, blocks = bm.layer_table(model.config)
    convs = 1 + sum(layer is not None for block in blocks for layer in block)
    images = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
    checked = []
    original = ad._check_finite

    def counting(arr, op):
        checked.append(op)
        original(arr, op)

    monkeypatch.setattr(ad, "_check_finite", counting)
    bm.evidence_batch(model, images)
    assert checked.count("conv2d") <= convs
    assert checked.count("add") <= len(blocks)
    assert checked.count("leaf") <= 1
    assert len(checked) <= convs + len(blocks) + 1


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_numerical_error_names_the_layer(mode):
    """A batch norm whose gamma overflows float32 fails in its own layer: in
    the folded conv of an eval pass, in batch_norm of a train step."""
    from bagnet.autodiff import softmax_cross_entropy

    model = build_model(bagnet9_32(), seed=0)
    model.params["block1.bn2.gamma"].value.data[:] = 1e38
    images = np.random.default_rng(1).standard_normal((8, 3, 32, 32)).astype(np.float32)
    op = {"eval": "conv2d", "train": "batch_norm"}[mode]
    with pytest.raises(NumericalError,
                       match=rf"^block1\.conv2/bn2: non-finite values produced by op '{op}'"):
        if mode == "eval":
            bm.evidence_batch(model, images)
        else:
            model.train_mode()
            softmax_cross_entropy(bm.forward_logits(model, Tensor(images)), np.zeros(8, int))


# ---------------------------------------------------------------------------
# each conv's eval fold is built once per version of its source arrays

def _restored(model):
    """A fresh model restored from `model`'s tensors: its first pass builds
    every fold anew."""
    from bagnet.train import restore_tensors, snapshot_tensors

    fresh = build_model(model.config, seed=0)
    restore_tensors(fresh, snapshot_tensors(model))
    return fresh


def _outputs(model, images):
    from bagnet.interpret import integrated_gradients, saliency

    return (bm.evidence_batch(model, images), bm.batch_logits(model, images),
            saliency(model, images[0], 1), integrated_gradients(model, images[1], 0, steps=8))


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_cached_fold_passes_match_a_fresh_model_bit_for_bit(name):
    model = _with_running_stats(build_model(SHIPPED_CONFIGS[name](), seed=5), seed=6)
    size = model.config.input_size
    images = np.random.default_rng(7).standard_normal((3, 3, size, size)).astype(np.float32)
    _outputs(model, images[::-1].copy())           # builds the folds
    cached = _outputs(model, images)
    assert len(model.folds) == 1 + sum(c is not None for b in bm.layer_table(model.config)[1]
                                       for c in b)
    for got, want in zip(cached, _outputs(_restored(model), images)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("source", ["weight", "gamma", "beta", "running_mean", "running_var"])
def test_in_place_write_after_an_eval_pass_raises(source):
    """The arrays a fold was built from are read-only: an in-place write
    raises instead of leaving the cached fold stale."""
    model = build_model(bagnet9_32(), seed=0)
    bm.evidence_batch(model, np.zeros((1, 3, 32, 32), np.float32))
    if source.startswith("running"):
        arr = getattr(model.bn["block1.bn2"], source)
    else:
        arr = model.params[f"block1.{'conv2' if source == 'weight' else 'bn2'}.{source}"].value.data
    with pytest.raises(ValueError):
        arr[:] = 2.0


def test_replaced_arrays_build_a_new_fold():
    """A new `.data`, a train-mode pass (new running statistics) and an SGD
    step (new weights) each reach the next eval pass."""
    from bagnet.autodiff import sgd_momentum_step, softmax_cross_entropy

    model = _with_running_stats(build_model(bagnet9_32(), seed=5), seed=6)
    images = np.random.default_rng(8).standard_normal((4, 3, 32, 32)).astype(np.float32)
    before = bm.evidence_batch(model, images)
    gamma = model.params["block1.bn2.gamma"].value
    gamma.data = gamma.data * 2
    replaced = bm.evidence_batch(model, images)
    assert not np.array_equal(replaced, before)
    assert replaced.tobytes() == bm.evidence_batch(_restored(model), images).tobytes()

    model.train_mode()
    loss = softmax_cross_entropy(bm.forward_logits(model, Tensor(images)), np.arange(4))
    model.zero_grad()
    loss.backward()
    sgd_momentum_step(model.parameters(), 0.05, 0.9)
    model.eval_mode()
    stepped = bm.evidence_batch(model, images)
    assert not np.array_equal(stepped, replaced)
    assert stepped.tobytes() == bm.evidence_batch(_restored(model), images).tobytes()


def test_second_pass_builds_no_fold(monkeypatch):
    calls = []
    original = bm.BatchNormState.eval_affine

    def counting(self, gamma, beta):
        calls.append(self)
        return original(self, gamma, beta)

    monkeypatch.setattr(bm.BatchNormState, "eval_affine", counting)
    model = build_model(bagnet9_32(), seed=0)
    images = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
    bm.evidence_batch(model, images)
    assert len(calls) == len(model.bn)
    calls.clear()
    bm.evidence_batch(model, images)
    bm.forward_evidence(with_declared_q(model, 8), images[0])    # shares the folds
    assert calls == []


@pytest.mark.parametrize("running_var", [1.0, 0.0])
def test_overflowing_fold_raises_numerical_error_and_no_warning(running_var):
    """gamma 1e38 overflows float32 in the GEMM; with a zero running
    variance the folded matrix itself overflows when it is rounded."""
    import warnings

    model = build_model(bagnet9_32(), seed=0)
    model.params["block1.bn2.gamma"].value.data[:] = 1e38    # before any pass
    model.bn["block1.bn2"].running_var = np.full(8, running_var, np.float32)
    images = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):      # a built and then a cached fold
            with pytest.raises(NumericalError, match=r"^block1\.conv2/bn2: "):
                bm.evidence_batch(model, images)
