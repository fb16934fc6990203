"""Analysis-layer checks: masking mechanics, additivity of separated
modifications, attribution correctness, thresholding, scrambling,
correlations, heatmap and patch export."""

import numpy as np
import pytest

from bagnet.data import Dataset, synth_texture_dataset
from bagnet.model import (
    SHIPPED_CONFIGS,
    BagNetConfig,
    BlockSpec,
    aggregate_then_classify,
    bagnet3_33,
    bagnet9_32,
    build_model,
    certify_receptive_field,
    forward_evidence,
    image_logits,
    pass_images,
)
from bagnet.interpret import (
    MaskSpec,
    PreconditionError,
    apply_mask,
    cell_scores_from_evidence,
    evidence_batch,
    batch_logits,
    export_heatmap,
    heatmap_rgb,
    integrated_gradients,
    interaction_experiment,
    interaction_pairs,
    logit_correlation,
    masking_sensitivity,
    norm_images,
    pearson,
    per_class_scatter,
    saliency,
    scramble_test,
    threshold_sweep,
    top_patches,
    write_ppm,
)
from bagnet.train import evaluate


@pytest.fixture(scope="module")
def random_model():
    model = build_model(bagnet9_32(), seed=8)
    model.norm_mean = np.zeros(3, dtype=np.float32)
    model.norm_std = np.ones(3, dtype=np.float32)
    return model


@pytest.fixture(scope="module")
def texture_batch():
    return synth_texture_dataset(4, 12, 32, 8, seed=41, split="val")


class TestPearson:
    def test_identity(self):
        x = np.arange(10.0)
        assert pearson(x, x) == pytest.approx(1.0)

    def test_negation(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        assert pearson(x, 2.5 * x + 3.0) == pytest.approx(1.0)

    def test_degenerate_is_explicit(self):
        assert pearson(np.ones(5), np.arange(5.0)) is None


class TestApplyMask:
    def test_constant_image_dc_fill_is_noop(self):
        img = np.full((3, 32, 32), 0.7, dtype=np.float32)
        masked, deltas = apply_mask(img, MaskSpec(p=8))
        np.testing.assert_array_equal(masked, img)
        for d in deltas:
            np.testing.assert_allclose(d.delta, 0.0, atol=1e-7)

    def test_default_pattern_masks_quarter(self):
        img = np.zeros((3, 32, 32), dtype=np.float32)
        _, deltas = apply_mask(img, MaskSpec(p=8))
        assert len(deltas) == 4  # 4 of 16 cells

    def test_grid_must_tile(self):
        img = np.zeros((3, 30, 30), dtype=np.float32)
        with pytest.raises(PreconditionError):
            apply_mask(img, MaskSpec(p=8))

    @pytest.mark.parametrize("size,p,phase", [(32, 8, (0, 0)), (33, 8, (1, 1)), (33, 11, (0, 0)),
                                              (64, 16, (0, 0)), (35, 3, (2, 2)), (32, 1, (0, 0))])
    def test_dc_fill_equals_the_patch_by_patch_mean_bit_for_bit(self, size, p, phase):
        from oracles import reference_dc_mask
        rng = np.random.default_rng(size + p)
        img = (100.0 * rng.standard_normal((3, size, size)) + 7.0).astype(np.float32)
        spec = MaskSpec(p=p, phase=phase)
        masked, _ = apply_mask(img, spec)
        cells = [(r, c) for r in range(0, (size - phase[0]) // p, 2)
                 for c in range(0, (size - phase[1]) // p, 2)]
        assert np.array_equal(masked, reference_dc_mask(img, p, cells, phase))


class TestInteraction:
    def test_separated_masking_is_additive_on_bagnet(self, random_model, texture_batch):
        result = interaction_experiment(random_model, texture_batch, p=8, limit=24)
        assert result.max_relative_gap() <= 1e-3
        assert not result.degenerate
        assert result.r >= 0.999

    def test_close_spacing_breaks_additivity(self, random_model, texture_batch):
        result = interaction_experiment(random_model, texture_batch, p=4, limit=24)
        assert result.r < 0.999

    def test_nonlinear_toy_model_violates_additivity(self):
        # image logit = product of the pixel variances of the distant cells
        # (0,0) and (2,2): the dc fill zeroes a cell's variance, so masking
        # either cell alone removes the whole logit and the summed change is
        # twice the joint one
        def logit_fn(batch):
            cells = batch.astype(np.float64)
            a = cells[:, :, 0:8, 0:8].var(axis=(2, 3)).sum(axis=1)
            b = cells[:, :, 16:24, 16:24].var(axis=(2, 3)).sum(axis=1)
            return (a * b)[:, None]

        rng = np.random.default_rng(3)
        images = rng.uniform(0.5, 1.5, size=(6, 3, 32, 32)).astype(np.float32)
        lhs, rhs = interaction_pairs(logit_fn, images, np.zeros(6, dtype=int),
                                     MaskSpec(p=8), per_pass=8)
        assert lhs.min() > 0.01
        np.testing.assert_allclose(rhs, 2.0 * lhs, rtol=1e-9)

    def test_degenerate_variance_reported(self):
        def logit_fn(batch):
            return np.zeros((len(batch), 1))

        images = np.zeros((4, 3, 16, 16), dtype=np.float32)
        lhs, rhs = interaction_pairs(logit_fn, images, np.zeros(4, dtype=int),
                                     MaskSpec(p=8), per_pass=8)
        assert pearson(lhs, rhs) is None


class TestSaliency:
    def test_zero_classifier_zero_map(self, random_model, texture_batch):
        model = build_model(bagnet9_32(), seed=8)
        model.norm_mean = np.zeros(3, dtype=np.float32)
        model.norm_std = np.ones(3, dtype=np.float32)
        model.params["classifier.weight"].value.data[:] = 0
        model.params["classifier.bias"].value.data[:] = 0
        img = norm_images(model, texture_batch, [0])[0]
        np.testing.assert_array_equal(saliency(model, img, 0), np.zeros((32, 32)))

    def test_pixels_outside_every_window_get_zero(self):
        # stride-3 stem without padding leaves the last two rows/cols of a
        # 32 px image outside every receptive field
        cfg = BagNetConfig(q=3, stem=(3, 3, 0, 8),
                           blocks=(BlockSpec(8, 4, 16, 1, 1),),
                           num_classes=3, input_size=32, feature_dim=16)
        model = build_model(cfg, seed=0)
        rng = np.random.default_rng(4)
        img = rng.standard_normal((3, 32, 32)).astype(np.float32)
        m = saliency(model, img, 1)
        assert m[:30, :30].max() > 0
        np.testing.assert_array_equal(m[30:, :], 0.0)
        np.testing.assert_array_equal(m[:, 30:], 0.0)

    def test_matches_finite_difference_probe(self, random_model, texture_batch):
        img = norm_images(random_model, texture_batch, [1])[0]
        cls = 2
        sal = saliency(random_model, img, cls)
        rng = np.random.default_rng(5)
        flat = np.argsort(sal.reshape(-1))[-300:]  # probe where the signal is
        picks = rng.choice(flat, size=10, replace=False)
        h = 1e-2
        for f in picks:
            r, c = divmod(int(f), 32)
            fd_sum = 0.0
            for ch in range(3):
                up, dn = img.copy(), img.copy()
                up[ch, r, c] += h
                dn[ch, r, c] -= h
                lu = batch_logits(random_model, up[None])[0, cls]
                ld = batch_logits(random_model, dn[None])[0, cls]
                fd_sum += abs((float(lu) - float(ld)) / (2 * h))
            assert abs(fd_sum - sal[r, c]) <= 0.1 * max(fd_sum, 1e-3), (r, c)


class TestIntegratedGradients:
    def _linearized_model(self):
        """Weights shrunk and batch-norm shifts raised so every relu input
        stays positive along the straight path from the zero baseline: the
        logits become exactly affine in the pixels."""
        model = build_model(bagnet9_32(), seed=2)
        model.norm_mean = np.zeros(3, dtype=np.float32)
        model.norm_std = np.ones(3, dtype=np.float32)
        for name, p in model.params.items():
            if name.endswith(".weight") and "classifier" not in name:
                p.value.data = p.value.data * 0.05
            if name.endswith(".beta"):
                p.value.data = p.value.data + 5.0
        return model

    def test_exact_on_affine_path_any_steps(self, texture_batch):
        model = self._linearized_model()
        img = norm_images(model, texture_batch, [2])[0] * 0.1
        ig8 = integrated_gradients(model, img, 1, steps=8)
        ig64 = integrated_gradients(model, img, 1, steps=64)
        np.testing.assert_allclose(ig8, ig64, atol=1e-4)
        # equals (image - baseline) * input gradient, channel-summed
        from bagnet.interpret import _class_gradient
        g = _class_gradient(model, img[None], 1)[0]
        np.testing.assert_allclose(ig64, (img * g).sum(axis=0), atol=1e-4)

    def test_completeness_within_one_percent(self, random_model, texture_batch):
        for idx in range(3):
            img = norm_images(random_model, texture_batch, [idx])[0]
            cls = 3
            ig = integrated_gradients(random_model, img, cls, steps=64)
            lx = batch_logits(random_model, img[None])[0, cls]
            l0 = batch_logits(random_model, np.zeros_like(img)[None])[0, cls]
            gap = float(lx) - float(l0)
            assert abs(ig.sum() - gap) <= 0.01 * max(abs(gap), 1e-3)

    def test_zero_image_zero_baseline_zero_map(self, random_model):
        img = np.zeros((3, 32, 32), dtype=np.float32)
        ig = integrated_gradients(random_model, img, 0, steps=8)
        np.testing.assert_array_equal(ig, np.zeros((32, 32)))

    def test_minimum_steps_enforced(self, random_model):
        with pytest.raises(PreconditionError):
            integrated_gradients(random_model, np.zeros((3, 32, 32), dtype=np.float32),
                                 0, steps=4)


class TestMaskingSensitivity:
    def test_curves_start_at_unmasked_probability(self, random_model, texture_batch):
        curves = masking_sensitivity(random_model, ["bagnet", "random"], texture_batch,
                                     p=8, n_max=4, limit=6)
        img = norm_images(random_model, texture_batch, [0])[0]
        logits = batch_logits(random_model, img[None])[0]
        from bagnet.autodiff import softmax
        want = softmax(logits)[int(np.argmax(logits))]
        for curve in curves.values():
            assert curve.per_image[0, 0] == pytest.approx(want, abs=1e-6)
            assert curve.n_masked[0] == 0

    def test_n_max_capped_by_cells(self, random_model, texture_batch):
        with pytest.raises(PreconditionError):
            masking_sensitivity(random_model, ["random"], texture_batch,
                                p=8, n_max=17, limit=2)

    def test_unknown_source_rejected(self, random_model, texture_batch):
        with pytest.raises(PreconditionError):
            masking_sensitivity(random_model, ["mystery"], texture_batch,
                                p=8, n_max=2, limit=2)

    @pytest.mark.parametrize("config,p,n_max", [("bagnet5_32", 8, 8), ("bagnet9_32", 8, 8),
                                                ("bagnet17_64", 16, 7), ("bagnet3_33", 11, 5)])
    def test_equals_one_pass_per_trajectory_bit_for_bit(self, config, p, n_max):
        """Every source's per_image and mean_prob equal those of the per-image,
        per-source loop, on images enough that a pass holds rows of two."""
        from oracles import reference_masking_sensitivity
        from bagnet.data import channel_stats
        model = build_model(SHIPPED_CONFIGS[config](), seed=5)
        size = model.config.input_size
        data = synth_texture_dataset(4, 1, size, 8, seed=12, split="val")
        model.norm_mean, model.norm_std = channel_stats(data)
        sources, n_imgs = ["bagnet", "saliency", "ig", "random"], 3
        rows = 7 * (n_max + 1)            # per image: one trajectory per source, 4 random
        per_pass = pass_images(model.config, size, size)
        assert any(start // rows != (start + per_pass - 1) // rows
                   for start in range(0, n_imgs * rows - per_pass, per_pass))
        curves = masking_sensitivity(model, sources, data, p=p, n_max=n_max, seed=3,
                                     limit=n_imgs)
        want = reference_masking_sensitivity(model, sources, data, p=p, n_max=n_max, seed=3,
                                             limit=n_imgs)
        assert list(curves) == sources
        for source in sources:
            assert np.array_equal(curves[source].per_image, want[source][0])
            assert np.array_equal(curves[source].mean_prob, want[source][1])

    def test_cell_scores_use_rf_intersection(self, random_model, texture_batch):
        img = norm_images(random_model, texture_batch, [0])[0]
        em = forward_evidence(random_model, img)
        scores = cell_scores_from_evidence(em, 0, 8, (4, 4))
        # every location's window intersects at least one cell, so the total
        # cell mass equals the evidence total weighted by cells-per-location
        assert scores.shape == (16,)
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize("stride,q,offset,p", [(4, 9, -1, 8), (4, 9, -1, 4), (4, 5, -1, 4),
                                                   (3, 3, 0, 3), (8, 17, -1, 8), (2, 7, 0, 3)])
    def test_cell_scores_equal_the_loop_reference(self, stride, q, offset, p):
        from bagnet.model import EvidenceMap
        from oracles import reference_cell_scores
        size = 4 * p * 2
        m = (size - 2 * offset - q) // stride + 1
        logits = np.random.default_rng(q).standard_normal((2, m, m)).astype(np.float32)
        logits[:, ::3] = 0.0
        em = EvidenceMap(logits, stride, q, offset, (size, size))
        grid = (size // p, size // p)
        assert np.array_equal(cell_scores_from_evidence(em, 1, p, grid),
                              reference_cell_scores(em, 1, p, grid))


class TestThresholdSweep:
    def test_clamp_at_minus_infinity_is_vanilla(self, random_model, texture_batch):
        rows = threshold_sweep(random_model, texture_batch, [-np.inf], "clamp", k=1)
        vanilla = evaluate(random_model, texture_batch, k=1).topk_accuracy
        assert rows[0][3] == pytest.approx(vanilla, abs=1e-9)

    def test_binarize_at_plus_infinity_is_tie_break_chance(self, random_model, texture_batch):
        rows = threshold_sweep(random_model, texture_batch, [np.inf], "binarize", k=1)
        freq0 = float((texture_batch.labels == 0).mean())
        assert rows[0][3] == pytest.approx(freq0, abs=1e-9)

    def test_both_is_clamp_rows_then_binarize_rows(self, random_model, texture_batch):
        ts = [-np.inf, -0.5, 0.0, 0.5]
        both = threshold_sweep(random_model, texture_batch, ts, "both", k=2)
        assert both == (threshold_sweep(random_model, texture_batch, ts, "clamp", k=2)
                        + threshold_sweep(random_model, texture_batch, ts, "binarize", k=2))

    def test_unknown_mode(self, random_model, texture_batch):
        with pytest.raises(PreconditionError):
            threshold_sweep(random_model, texture_batch, [0.0], "squash")


class TestScramble:
    def test_invariance_on_tiling_config(self):
        model = build_model(bagnet3_33(), seed=5)
        model.norm_mean = np.zeros(3, dtype=np.float32)
        model.norm_std = np.ones(3, dtype=np.float32)
        ds = synth_texture_dataset(4, 6, 33, 8, seed=51, split="val")
        result = scramble_test(model, ds, seed=0)
        assert result.max_logit_delta < 1e-5
        assert result.clean_accuracy == result.scrambled_accuracy

    def test_non_tiling_config_refused(self, random_model, texture_batch):
        with pytest.raises(PreconditionError):
            scramble_test(random_model, texture_batch, seed=0)


class TestCorrelations:
    def test_scatter_self_is_one(self):
        acc = np.array([0.2, 0.5, 0.9, 0.4])
        r = per_class_scatter(acc, acc)
        assert r.r == pytest.approx(1.0)

    def test_scatter_negation_minus_one(self):
        acc = np.array([0.2, 0.5, 0.9, 0.4])
        assert per_class_scatter(acc, -acc).r == pytest.approx(-1.0)

    def test_scatter_degenerate(self):
        r = per_class_scatter(np.full(4, 0.5), np.array([0.1, 0.2, 0.3, 0.4]))
        assert r.degenerate and r.r is None

    def test_logit_correlation_identity_and_affine(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((20, 4))
        assert logit_correlation(a, a) == pytest.approx(1.0)
        assert logit_correlation(a, 3.0 * a + 1.0) == pytest.approx(1.0)

    def test_logit_correlation_null_under_permutation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((200, 4))
        b = a.reshape(-1)[rng.permutation(800)].reshape(200, 4)
        assert abs(logit_correlation(a, b)) < 0.1


class TestHeatmapExport:
    def test_zero_map_uniform_mid_color(self, random_model):
        em = forward_evidence(random_model, np.zeros((3, 32, 32), dtype=np.float32))
        em.logits[:] = 0
        rgb = heatmap_rgb(em, 0)
        assert rgb.shape == (32, 32, 3)
        assert (rgb == 255).all()

    def test_single_hot_location_lands_at_rf_center(self, random_model):
        em = forward_evidence(random_model, np.zeros((3, 32, 32), dtype=np.float32))
        em.logits[:] = 0
        em.logits[1, 3, 4] = 2.0
        rgb = heatmap_rgb(em, 1)
        cy = em.offset + 3 * em.stride + em.rf_size // 2
        cx = em.offset + 4 * em.stride + em.rf_size // 2
        assert tuple(rgb[cy, cx]) == (255, 0, 0)
        assert tuple(rgb[0, 31]) == (255, 255, 255)

    def test_csv_round_trips_float32_exactly(self, tmp_path, random_model, texture_batch):
        img = norm_images(random_model, texture_batch, [3])[0]
        em = forward_evidence(random_model, img)
        export_heatmap(em, 2, tmp_path / "h.ppm")
        lines = (tmp_path / "h.ppm.csv").read_text().strip().split("\n")
        assert lines[0] == "i,j,logit" and len(lines) == 1 + em.logits[2].size
        for line in lines[1:]:
            i, j, v = line.split(",")
            assert np.float32(float(v)) == em.logits[2, int(i), int(j)]

    def test_ppm_header(self, tmp_path, random_model):
        em = forward_evidence(random_model, np.zeros((3, 32, 32), dtype=np.float32))
        path = tmp_path / "h.ppm"
        write_ppm(path, heatmap_rgb(em, 0))
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n32 32\n255\n")
        assert len(blob) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3


class TestTopPatches:
    def test_single_image_argmax_location(self, random_model, texture_batch):
        one = Dataset(texture_batch.images[:1], texture_batch.labels[:1],
                      texture_batch.class_names, split="val")
        cls = int(one.labels[0])
        result = top_patches(random_model, one, cls, k=1)
        img = norm_images(random_model, one, [0])[0]
        em = forward_evidence(random_model, img)
        i, j = np.unravel_index(np.argmax(em.logits[cls]), em.logits[cls].shape)
        assert result.same_label[0].location == (int(i), int(j))
        assert result.truncated  # only one image: the other-label side is empty

    def test_zero_classifier_tie_break(self, texture_batch):
        model = build_model(bagnet9_32(), seed=8)
        model.norm_mean = np.zeros(3, dtype=np.float32)
        model.norm_std = np.ones(3, dtype=np.float32)
        model.params["classifier.weight"].value.data[:] = 0
        model.params["classifier.bias"].value.data[:] = 0
        cls = int(texture_batch.labels[0])
        result = top_patches(model, texture_batch, cls, k=2, limit=8)
        first = result.same_label[0]
        assert first.location == (0, 0)
        # ties resolve by (image_index, i, j): first candidate image wins
        labels = texture_batch.labels[:8]
        assert first.image_index == int(np.argmax(labels == cls))

    def test_recompute_logit_from_pixels(self, random_model, texture_batch):
        from bagnet.autodiff import Tensor
        from bagnet.model import forward_features
        cls = 1
        result = top_patches(random_model, texture_batch, cls, k=15, limit=10)
        checked = 0
        for rec in result.same_label + result.other_label:
            top, left = rec.top_left
            if top < 0 or left < 0 or top + rec.q > 32 or left + rec.q > 32:
                continue  # border patches include padding context
            crop = rec.pixels.astype(np.float32) / 255.0
            crop = (crop - random_model.norm_mean[:, None, None]) / \
                random_model.norm_std[:, None, None]
            feats = forward_features(random_model, Tensor(crop[None]), stem_pad=0).data
            w = random_model.params["classifier.weight"].value.data
            b = random_model.params["classifier.bias"].value.data
            logit = float(feats[0, :, 0, 0].astype(np.float64) @ w[cls].astype(np.float64)
                          + b[cls])
            assert logit == pytest.approx(rec.logit, abs=1e-4)
            checked += 1
        assert checked >= 3


class TestCrossModelConsistency:
    """Two independently seeded training runs on one dataset whose classes
    differ in difficulty (fine textures resolvable inside the patches, coarse
    ones not): their per-class accuracies and logits must correlate."""

    @pytest.fixture(scope="class")
    def two_runs(self):
        from bagnet.data import Dataset
        from bagnet.train import TrainConfig, train

        def mixed(seed, per_class):
            fine = synth_texture_dataset(4, per_class, 32, 8, seed=seed)
            coarse = synth_texture_dataset(4, per_class, 32, 24, seed=seed + 1)
            return Dataset(
                np.concatenate([fine.images, coarse.images]),
                np.concatenate([fine.labels, coarse.labels + 4]).astype(np.uint8),
                fine.class_names + [f"coarse{c}" for c in range(4)])

        tr = mixed(71, 80)
        va = mixed(73, 25)
        va.split = "val"
        evals = []
        for seed in (1, 2):
            model = build_model(bagnet9_32(num_classes=8), seed=seed)
            train(model, tr, va, TrainConfig(epochs=4, seed=seed))
            model.eval_mode()
            evals.append(evaluate(model, va, k=1))
        return evals

    def test_per_class_scatter_correlates(self, two_runs):
        ev_a, ev_b = two_runs
        result = per_class_scatter(ev_a.per_class, ev_b.per_class)
        assert not result.degenerate
        assert result.r > 0.5, f"per-class r = {result.r}"

    def test_logit_correlation_beats_permuted_null(self, two_runs):
        ev_a, ev_b = two_runs
        r = logit_correlation(ev_a.logits, ev_b.logits)
        rng = np.random.default_rng(0)
        flat = ev_b.logits.reshape(-1)
        null = logit_correlation(ev_a.logits,
                                 flat[rng.permutation(flat.size)].reshape(ev_b.logits.shape))
        assert r is not None and null is not None
        assert r > 0.5, f"cross-model logit r = {r}"
        assert abs(null) < 0.2, f"permuted null unexpectedly correlated: {null}"


def test_evidence_batch_matches_forward_evidence(random_model, texture_batch):
    imgs = norm_images(random_model, texture_batch, [0, 1, 2])
    batch = evidence_batch(random_model, imgs)
    for i in range(3):
        em = forward_evidence(random_model, imgs[i])
        np.testing.assert_allclose(batch[i], em.logits, atol=1e-5)


def test_heatmap_completeness(random_model, texture_batch):
    # spatial mean of the evidence equals the image logit
    img = norm_images(random_model, texture_batch, [5])[0]
    em = forward_evidence(random_model, img)
    lg = batch_logits(random_model, img[None])[0]
    np.testing.assert_allclose(image_logits(em), lg, atol=1e-5)


@pytest.mark.parametrize("run", [
    lambda m, d: interaction_experiment(m, d, p=8, limit=0),
    lambda m, d: masking_sensitivity(m, ["bagnet"], d, p=8, n_max=1, limit=0),
    lambda m, d: threshold_sweep(m, d, [0.0], "clamp", limit=0),
    lambda m, d: top_patches(m, d, 0, k=1, limit=0),
])
def test_limit_selecting_no_images_is_refused(random_model, texture_batch, run):
    with pytest.raises(PreconditionError, match="selects none"):
        run(random_model, texture_batch)


def _chunks(rows: int, per_pass: int) -> list[int]:
    """Pass sizes of `rows` images split into passes of `per_pass`."""
    return [min(per_pass, rows - start) for start in range(0, rows, per_pass)]


class TestOneBatchedPath:
    """evidence_batch and batch_logits are the one batched path: splitting a
    batch into network passes of `pass_images` images leaves every number
    unchanged, and an analysis makes one pass per `pass_images` images it
    reads."""

    @pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
    def test_chunked_batch_equals_single_images_bit_for_bit(self, config):
        model = build_model(SHIPPED_CONFIGS[config](), seed=4)
        size = model.config.input_size
        imgs = np.random.default_rng(6).standard_normal(
            (pass_images(model.config, size, size) + 1, 3, size, size)).astype(np.float32)
        ev = evidence_batch(model, imgs)
        lg = batch_logits(model, imgs)
        for i, img in enumerate(imgs):
            assert np.array_equal(ev[i], forward_evidence(model, img).logits)
            assert np.array_equal(lg[i], aggregate_then_classify(model, img))

    @pytest.fixture
    def passes(self, monkeypatch):
        """Batch size of every network pass."""
        import bagnet.model as bm
        sizes = []
        original = bm.forward_features

        def counting(model, x, stem_pad=None):
            sizes.append(x.shape[0])
            return original(model, x, stem_pad=stem_pad)

        monkeypatch.setattr(bm, "forward_features", counting)
        return sizes

    def test_top_patches_is_one_pass(self, random_model, texture_batch, passes):
        top_patches(random_model, texture_batch, 1, k=3)
        assert passes == _chunks(texture_batch.count, pass_images(random_model.config, 32, 32))

    def test_certificate_is_one_pass_per_trial(self, passes):
        model = build_model(bagnet9_32(), seed=2)
        assert certify_receptive_field(model, (3, 3), trials=3, seed=0).passed
        # per trial: the image, 24 probes and the centre, plus in trial 0 the
        # 4q + 4 = 40 pixels of the ring around the interior 9x9 window
        per_pass = pass_images(model.config, 32, 32)
        assert passes == _chunks(66, per_pass) + 2 * _chunks(26, per_pass)

    def test_interaction_passes_are_chunks_of_all_variants(self, random_model, texture_batch,
                                                          passes):
        n, cells = texture_batch.count, 4          # alternate cells of the 4x4 p=8 grid
        interaction_experiment(random_model, texture_batch, p=8)
        group = pass_images(random_model.config, 32, 32) // (2 + cells)
        assert passes == [(2 + cells) * c for c in _chunks(n, group)]

    @pytest.mark.parametrize("n_max,draws", [(8, 4), (2, 1), (16, 3)])
    def test_sensitivity_trajectories_are_pass_sized_chunks(self, random_model, texture_batch,
                                                            passes, n_max, draws):
        """After the one pass of the unmasked images, the trajectory rows of
        every image and draw go in passes of `pass_images` rows; only the
        last is shorter."""
        n = 5
        masking_sensitivity(random_model, ["random"], texture_batch, p=8, n_max=n_max,
                            limit=n, random_draws=draws)
        per_pass = pass_images(random_model.config, 32, 32)
        assert passes == _chunks(n, per_pass) + _chunks(n * draws * (n_max + 1), per_pass)

    def test_sensitivity_logits_calls_span_sources_and_images(self, random_model, texture_batch,
                                                              monkeypatch):
        import bagnet.interpret as bi
        calls = []
        original = bi.batch_logits

        def recording(model, images):
            calls.append(len(images))
            return original(model, images)

        monkeypatch.setattr(bi, "batch_logits", recording)
        n, n_max = 4, 8
        masking_sensitivity(random_model, ["bagnet", "saliency", "ig", "random"], texture_batch,
                            p=8, n_max=n_max, limit=n)
        per_pass = pass_images(random_model.config, 32, 32)
        assert calls == [n] + _chunks(n * 7 * (n_max + 1), per_pass)

    def test_integrated_gradients_runs_in_pass_sized_chunks(self, random_model, passes):
        img = np.random.default_rng(7).standard_normal((3, 32, 32)).astype(np.float32)
        integrated_gradients(random_model, img, 1, steps=64)
        assert passes == _chunks(64, pass_images(random_model.config, 32, 32))

    @pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
    def test_class_gradient_per_row_classes_equal_one_row_calls_bit_for_bit(self, config):
        """A class per row, over more rows than one gradient pass holds."""
        from bagnet.interpret import _class_gradient
        model = build_model(SHIPPED_CONFIGS[config](), seed=4)
        size = model.config.input_size
        rows = pass_images(model.config, size, size) + 2
        imgs = np.random.default_rng(6).standard_normal((rows, 3, size, size)).astype(np.float32)
        classes = np.arange(rows) % model.config.num_classes
        grads = _class_gradient(model, imgs, classes)
        for img, cls, grad in zip(imgs, classes, grads):
            assert np.array_equal(grad, _class_gradient(model, img[None], cls)[0])

    @pytest.mark.parametrize("sources,named", [
        (["bagnet", "mystery"], "unknown ranking source 'mystery'"),
        (["random", "ig", "random"], "ranking source 'random' is named twice"),
        (["ig", ""], "unknown ranking source ''"),
        ([], "no ranking source"),
    ])
    def test_sensitivity_refuses_a_bad_source_before_any_pass(self, random_model, texture_batch,
                                                              passes, sources, named):
        with pytest.raises(PreconditionError, match=named):
            masking_sensitivity(random_model, sources, texture_batch, p=8, n_max=2, limit=2)
        assert passes == []

    @pytest.mark.parametrize("p,cells", [(8, 4), (4, 16), (1, 256)])
    def test_interaction_logit_fn_gets_bounded_groups_of_whole_images(self, texture_batch,
                                                                      p, cells):
        """interaction_pairs hands logit_fn the variants of whole images, never
        more than per_pass rows unless one image alone has more; lhs and rhs
        are those of one call per image."""
        images = texture_batch.images.astype(np.float32) / 255.0
        classes = texture_batch.labels.astype(np.int64) % 3
        spec = MaskSpec(p=p)
        calls = []

        def logit_fn(batch):     # [N,3,H,W] -> [N,3]: the channel means
            calls.append(len(batch))
            return batch.reshape(len(batch), 3, -1).mean(axis=2)

        per_pass = 37
        lhs, rhs = interaction_pairs(logit_fn, images, classes, spec, per_pass)
        assert sum(calls) == len(images) * (2 + cells)
        assert max(calls) <= max(per_pass, 2 + cells)
        assert all(c % (2 + cells) == 0 for c in calls)
        single = [interaction_pairs(logit_fn, images[i:i + 1], classes[i:i + 1], spec, per_pass)
                  for i in range(len(images))]
        assert np.array_equal(lhs, np.concatenate([l for l, _ in single]))
        assert np.array_equal(rhs, np.concatenate([r for _, r in single]))
