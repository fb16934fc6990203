"""Analysis-layer checks: masking mechanics, additivity of separated
modifications, attribution correctness, thresholding, scrambling,
correlations, heatmap and patch export."""

import re
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bagnet.autodiff import NumericalError
from bagnet.data import Dataset, channel_stats, synth_texture_dataset
from bagnet.model import (
    SHIPPED_CONFIGS,
    BagNetConfig,
    BlockSpec,
    ConfigError,
    aggregate_then_classify,
    bagnet3_33,
    bagnet9_32,
    build_model,
    certify_receptive_field,
    forward_evidence,
    image_logits,
    input_gradients,
    pass_images,
    patch_oracle_evidence,
)
from bagnet.interpret import (
    MaskSpec,
    PreconditionError,
    apply_mask,
    cell_scores_from_evidence,
    batch_logits,
    export_heatmap,
    heatmap_rgb,
    integrated_gradients,
    interaction_experiment,
    interaction_pairs,
    masking_sensitivity,
    norm_images,
    pearson,
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
        lhs, rhs = interaction_pairs(lambda n, build: logit_fn(build(slice(0, n))), images,
                                     np.zeros(6, dtype=int), MaskSpec(p=8))
        assert lhs.min() > 0.01
        np.testing.assert_allclose(rhs, 2.0 * lhs, rtol=1e-9)

    def test_degenerate_variance_reported(self):
        def logit_fn(batch):
            return np.zeros((len(batch), 1))

        images = np.zeros((4, 3, 16, 16), dtype=np.float32)
        lhs, rhs = interaction_pairs(lambda n, build: logit_fn(build(slice(0, n))), images,
                                     np.zeros(4, dtype=int), MaskSpec(p=8))
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
        g = input_gradients(model, img[None], 1)[0]
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
                                                ("bagnet17_64", 16, 6), ("bagnet3_33", 11, 5)])
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
        # an [N, K, m, m] map with one class per map: one call per map
        maps = np.random.default_rng(p).standard_normal((3, 2, m, m)).astype(np.float32)
        classes = np.array([1, 0, 1])
        batch = cell_scores_from_evidence(EvidenceMap(maps, stride, q, offset, (size, size)),
                                          classes, p, grid)
        assert batch.shape == (3, grid[0] * grid[1])
        for one, cls, got in zip(maps, classes, batch):
            em = EvidenceMap(one, stride, q, offset, (size, size))
            assert np.array_equal(got, cell_scores_from_evidence(em, cls, p, grid))


    def test_cell_no_window_meets_scores_plus_zero(self):
        # the windows of a one-column map never reach the right-hand cells:
        # their negative evidence times a zero overlap is -0.0, and the sum
        # starts from +0.0, as numpy's and the reference's do
        from bagnet.model import EvidenceMap
        from oracles import reference_cell_scores
        logits = -np.arange(1, 13, dtype=np.float32).reshape(3, 4, 1)
        em = EvidenceMap(logits, 1, 2, 1, (6, 6))
        got = cell_scores_from_evidence(em, 2, 3, (2, 2))
        assert got.tobytes() == reference_cell_scores(em, 2, 3, (2, 2)).tobytes()
        assert not np.signbit(got[[1, 3]]).any()


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
        assert pearson(acc, acc) == pytest.approx(1.0)

    def test_scatter_negation_minus_one(self):
        acc = np.array([0.2, 0.5, 0.9, 0.4])
        assert pearson(acc, -acc) == pytest.approx(-1.0)

    def test_scatter_degenerate(self):
        assert pearson(np.full(4, 0.5), np.array([0.1, 0.2, 0.3, 0.4])) is None

    def test_logit_correlation_identity_and_affine(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((20, 4))
        assert pearson(a.ravel(), a.ravel()) == pytest.approx(1.0)
        assert pearson(a.ravel(), (3.0 * a + 1.0).ravel()) == pytest.approx(1.0)

    def test_logit_correlation_null_under_permutation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((200, 4))
        b = a.reshape(-1)[rng.permutation(800)].reshape(200, 4)
        assert abs(pearson(a.ravel(), b.ravel())) < 0.1

    @pytest.mark.parametrize("x,y", [(np.arange(4.0), np.arange(5.0)),
                                     (np.arange(4.0), np.arange(4.0).reshape(2, 2))])
    def test_unequal_shapes_are_refused(self, x, y):
        with pytest.raises(PreconditionError, match="equal-length"):
            pearson(x, y)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_values_are_refused(self, n):
        with pytest.raises(PreconditionError, match="size >= 2"):
            pearson(np.ones(n), np.ones(n))


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

    def test_batch_map_is_refused_naming_its_shape(self, tmp_path, random_model):
        em = forward_evidence(random_model, np.zeros((2, 3, 32, 32), dtype=np.float32))
        with pytest.raises(PreconditionError, match=re.escape("got shape (2, 4, 7, 7)")):
            export_heatmap(em, 0, tmp_path / "h.ppm")
        assert not list(tmp_path.iterdir())

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
        r = pearson(ev_a.per_class, ev_b.per_class)
        assert r is not None
        assert r > 0.5, f"per-class r = {r}"

    def test_logit_correlation_beats_permuted_null(self, two_runs):
        ev_a, ev_b = two_runs
        r = pearson(ev_a.logits.ravel(), ev_b.logits.ravel())
        rng = np.random.default_rng(0)
        flat = ev_b.logits.reshape(-1)
        null = pearson(ev_a.logits.ravel(), flat[rng.permutation(flat.size)])
        assert r is not None and null is not None
        assert r > 0.5, f"cross-model logit r = {r}"
        assert abs(null) < 0.2, f"permuted null unexpectedly correlated: {null}"


def test_batch_evidence_matches_one_image_evidence(random_model, texture_batch):
    """A batch map's logits, interior mask and image logits are those of one
    call per image."""
    imgs = norm_images(random_model, texture_batch, [0, 1, 2])
    batch = forward_evidence(random_model, imgs)
    assert batch.logits.shape == (3, 4, 7, 7) and batch.input_hw == (32, 32)
    for i in range(3):
        em = forward_evidence(random_model, imgs[i])
        np.testing.assert_allclose(batch.logits[i], em.logits, atol=1e-5)
        assert np.array_equal(batch.interior_mask(), em.interior_mask())
        assert np.array_equal(image_logits(batch)[i], image_logits(em))


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


@pytest.mark.parametrize("run", [
    lambda m, d, x: forward_evidence(m, x).logits,
    lambda m, d, x: batch_logits(m, x),
    lambda m, d, x: saliency(m, x[0], 0),
    lambda m, d, x: integrated_gradients(m, x[0], 0, steps=8),
    lambda m, d, x: masking_sensitivity(m, ["bagnet", "saliency", "ig", "random"], d, p=8,
                                        n_max=2, limit=2),
    lambda m, d, x: interaction_experiment(m, d, p=8, limit=2, class_mode="label"),
], ids=["forward_evidence", "batch_logits", "saliency", "integrated_gradients",
        "masking_sensitivity", "interaction_experiment"])
def test_train_mode_model_is_refused_before_any_pass(texture_batch, monkeypatch, run):
    """ConfigError (exit 4 from the CLI) before any forward pass, so no
    batch-norm running statistic moves."""
    import bagnet.model as bm
    model = build_model(bagnet9_32(), seed=8).train_mode()
    stats = {name: (s.running_mean.tobytes(), s.running_var.tobytes())
             for name, s in model.bn.items()}
    calls = []
    original = bm.forward_features
    monkeypatch.setattr(bm, "forward_features",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    with pytest.raises(ConfigError, match="eval mode"):
        run(model, texture_batch, norm_images(model, texture_batch, [0, 1]))
    assert calls == []
    assert {name: (s.running_mean.tobytes(), s.running_var.tobytes())
            for name, s in model.bn.items()} == stats


def _on_each_pool(monkeypatch, run) -> list:
    """run() with the passes on the pass pool, on a pool of more threads
    than cores and on one thread, all with a short switch interval."""
    import bagnet.model as bm
    stressed, serial = ThreadPoolExecutor(4), ThreadPoolExecutor(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = []
        for pool in (bm._pass_pool, stressed, serial):
            monkeypatch.setattr(bm, "_pass_pool", pool)
            runs.append(run())
        return runs
    finally:
        sys.setswitchinterval(interval)
        stressed.shutdown()
        serial.shutdown()


def _chunks(rows: int, per_pass: int) -> list[int]:
    """Pass sizes of `rows` images split into passes of `per_pass`."""
    return [min(per_pass, rows - start) for start in range(0, rows, per_pass)]


class TestOneBatchedPath:
    """forward_evidence and batch_logits are the one batched path: splitting a
    batch into network passes of `pass_images` images leaves every number
    unchanged, and an analysis makes one pass per `pass_images` images it
    reads."""

    @pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
    def test_chunked_batch_equals_single_images_bit_for_bit(self, config):
        model = build_model(SHIPPED_CONFIGS[config](), seed=4)
        size = model.config.input_size
        imgs = np.random.default_rng(6).standard_normal(
            (pass_images(model.config, size, size) + 1, 3, size, size)).astype(np.float32)
        ev = forward_evidence(model, imgs).logits
        lg = batch_logits(model, imgs)
        for i, img in enumerate(imgs):
            assert np.array_equal(ev[i], forward_evidence(model, img).logits)
            assert np.array_equal(lg[i], aggregate_then_classify(model, img))

    @pytest.fixture
    def passes(self, monkeypatch):
        """Batch size of every network pass. The passes of one `run_passes`
        call may run at once and end in any order, so each call's sizes are
        kept in descending order, the order of `_chunks`."""
        import bagnet.model as bm
        sizes = []
        original, run = bm.forward_features, bm.run_passes

        def counting(model, x, stem_pad=None):
            sizes.append(x.shape[0])
            return original(model, x, stem_pad=stem_pad)

        def sorting(*args):
            start = len(sizes)
            try:
                return run(*args)
            finally:
                sizes[start:] = sorted(sizes[start:], reverse=True)

        monkeypatch.setattr(bm, "forward_features", counting)
        monkeypatch.setattr(bm, "run_passes", sorting)
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
        assert passes == _chunks(n * (2 + cells), pass_images(random_model.config, 32, 32))

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
                                                              passes):
        """The passes of the unmasked images, of each source's scores (one
        evidence call for bagnet, one gradient call for saliency, an IG path
        per image), then the trajectory rows of every source and image in one
        run of `pass_images`-row passes."""
        n, n_max, steps = 4, 8, 32
        masking_sensitivity(random_model, ["bagnet", "saliency", "ig", "random"], texture_batch,
                            p=8, n_max=n_max, limit=n, ig_steps=steps)
        per_pass = pass_images(random_model.config, 32, 32)
        assert passes == (_chunks(n, per_pass) + _chunks(n, per_pass) + _chunks(n, per_pass)
                          + n * _chunks(steps, per_pass) + _chunks(n * 7 * (n_max + 1), per_pass))

    def test_integrated_gradients_runs_in_pass_sized_chunks(self, random_model, passes):
        img = np.random.default_rng(7).standard_normal((3, 32, 32)).astype(np.float32)
        integrated_gradients(random_model, img, 1, steps=64)
        assert passes == _chunks(64, pass_images(random_model.config, 32, 32))

    @pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
    def test_class_gradient_per_row_classes_equal_one_row_calls_bit_for_bit(self, config):
        """A class per row, over more rows than one gradient pass holds."""
        model = build_model(SHIPPED_CONFIGS[config](), seed=4)
        size = model.config.input_size
        rows = pass_images(model.config, size, size) + 2
        imgs = np.random.default_rng(6).standard_normal((rows, 3, size, size)).astype(np.float32)
        classes = np.arange(rows) % model.config.num_classes
        grads = input_gradients(model, imgs, classes)
        for img, cls, grad in zip(imgs, classes, grads):
            assert np.array_equal(grad, input_gradients(model, img[None], cls)[0])

    @pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
    def test_batch_saliency_equals_one_image_calls_bit_for_bit(self, config):
        """One class per image, over more images than one gradient pass holds."""
        model = build_model(SHIPPED_CONFIGS[config](), seed=4)
        size = model.config.input_size
        rows = pass_images(model.config, size, size) + 2
        imgs = np.random.default_rng(9).standard_normal((rows, 3, size, size)).astype(np.float32)
        classes = np.arange(rows) % model.config.num_classes
        maps = saliency(model, imgs, classes)
        assert maps.shape == (rows, size, size)
        for img, cls, got in zip(imgs, classes.tolist(), maps):
            assert np.array_equal(got, saliency(model, img, cls))

    @pytest.mark.parametrize("limit,count", [(1, 48), (None, 1)])
    def test_interaction_on_fewer_than_two_images_is_refused_before_any_pass(
            self, random_model, texture_batch, passes, limit, count):
        data = Dataset(texture_batch.images[:count], texture_batch.labels[:count],
                       texture_batch.class_names, split="val")
        with pytest.raises(PreconditionError,
                           match=f"limit {limit} selects 1 of the {count} images"):
            interaction_experiment(random_model, data, p=8, limit=limit, class_mode="pred")
        assert passes == []

    @pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
    def test_concurrent_passes_equal_one_pass_at_a_time_bit_for_bit(self, config, monkeypatch):
        """On the pass pool, and on a pool of more threads than cores with a
        short switch interval, each run building the eval folds afresh from
        inside its passes, each fold once."""
        import bagnet.model as bm
        built = []
        fold_affine = bm.fold_affine
        monkeypatch.setattr(bm, "fold_affine", lambda *args: built.append(args) or
                            fold_affine(*args))
        model = build_model(SHIPPED_CONFIGS[config](), seed=4)
        size = model.config.input_size
        rows = 3 * pass_images(model.config, size, size) + 1
        imgs = np.random.default_rng(8).standard_normal((rows, 3, size, size)).astype(np.float32)
        classes = np.arange(rows) % model.config.num_classes

        def run():
            model.folds.clear()
            built.clear()
            outputs = (batch_logits(model, imgs), forward_evidence(model, imgs).logits,
                       input_gradients(model, imgs, classes))
            assert len(built) == len(model.bn)
            return outputs

        runs = _on_each_pool(monkeypatch, run)
        for run in runs[:2]:
            for got, want in zip(run, runs[2]):
                assert np.array_equal(got, want)

    def test_masked_rows_equal_on_any_pool_bit_for_bit(self, random_model, texture_batch,
                                                       monkeypatch):
        """Masking sensitivity with all four sources and interaction at p = 8
        and 4 build their rows inside the passes; each run spans several."""
        def run():
            curves = masking_sensitivity(random_model, ["bagnet", "saliency", "ig", "random"],
                                         texture_batch, p=8, n_max=4, limit=6, ig_steps=16)
            outputs = [a for c in curves.values() for a in (c.per_image, c.mean_prob)]
            for p in (8, 4):
                result = interaction_experiment(random_model, texture_batch, p=p)
                outputs += [result.lhs, result.rhs]
            return outputs

        runs = _on_each_pool(monkeypatch, run)
        for run in runs[:2]:
            for got, want in zip(run, runs[2]):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
    def test_an_error_in_the_third_pass_is_raised_after_every_pass_ends(self, config,
                                                                        monkeypatch):
        """The same layer-named error as one pass at a time; every pass is
        slowed, so a pass left running beside the failed one would show."""
        import bagnet.model as bm
        model = build_model(SHIPPED_CONFIGS[config](), seed=4)
        size = model.config.input_size
        per_pass = pass_images(model.config, size, size)
        imgs = np.random.default_rng(8).standard_normal(
            (3 * per_pass + 1, 3, size, size)).astype(np.float32)
        imgs[2 * per_pass] = 3e38                  # finite, but overflows the stem
        running = []
        original = bm.forward_features

        def slow(model, x, stem_pad=None):
            running.append(x)
            try:
                time.sleep(0.02)
                return original(model, x, stem_pad=stem_pad)
            finally:
                running.remove(x)

        def errors() -> list[str]:
            texts = []
            for call in (batch_logits, forward_evidence,
                         lambda m, x: input_gradients(m, x, 0)):
                with pytest.raises(NumericalError) as err:
                    call(model, imgs)
                assert running == []
                texts.append(str(err.value))
            return texts

        monkeypatch.setattr(bm, "forward_features", slow)
        concurrent = errors()
        assert all(text.startswith("stem.conv/bn: ") for text in concurrent)
        with ThreadPoolExecutor(1) as serial:
            monkeypatch.setattr(bm, "_pass_pool", serial)
            assert errors() == concurrent

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
    def test_interaction_rows_in_any_passes_equal_one_call_per_image(self, texture_batch,
                                                                      p, cells):
        """interaction_pairs asks for 2 + cells rows per image; built in
        37-row slices that cut across images, lhs and rhs are those of one
        call per image."""
        images = texture_batch.images.astype(np.float32) / 255.0
        classes = texture_batch.labels.astype(np.int64) % 3
        spec = MaskSpec(p=p)
        asked = []

        def channel_means(n, build):     # [n,3,H,W] rows -> [n,3]: the channel means
            asked.append(n)
            batch = np.concatenate([build(slice(s, min(s + 37, n))) for s in range(0, n, 37)])
            return batch.reshape(n, 3, -1).mean(axis=2)

        lhs, rhs = interaction_pairs(channel_means, images, classes, spec)
        assert asked == [len(images) * (2 + cells)]
        single = [interaction_pairs(channel_means, images[i:i + 1], classes[i:i + 1], spec)
                  for i in range(len(images))]
        assert np.array_equal(lhs, np.concatenate([l for l, _ in single]))
        assert np.array_equal(rhs, np.concatenate([r for _, r in single]))


class TestStoredPixels:
    """Every pass entry point takes stored uint8 pixels and normalizes each
    pass's rows with the model's constants, so an analysis hands over a view
    of the dataset and holds no float copy of its images."""

    @pytest.mark.parametrize("config", sorted(SHIPPED_CONFIGS))
    def test_stored_pixels_equal_normalized_images_bit_for_bit(self, config):
        model = build_model(SHIPPED_CONFIGS[config](), seed=3)
        size = model.config.input_size
        data = synth_texture_dataset(4, 1, size, 3 if size == 33 else 8, seed=12)
        model.norm_mean, model.norm_std = channel_stats(data)
        stored, normed = data.images[:3], norm_images(model, data, np.arange(3))
        classes = np.array([2, 0, 3])

        def same(run):
            got, want = run(stored), run(normed)
            assert np.array_equal(got, want)

        same(lambda x: forward_evidence(model, x).logits)
        same(lambda x: forward_evidence(model, x[1]).logits)
        same(lambda x: batch_logits(model, x))
        same(lambda x: input_gradients(model, x, classes))
        same(lambda x: saliency(model, x, classes))
        same(lambda x: saliency(model, x[0], 1))
        same(lambda x: integrated_gradients(model, x[2], 3, steps=8))
        same(lambda x: aggregate_then_classify(model, x[0]))
        same(lambda x: patch_oracle_evidence(model, x[1]).logits)

    @pytest.mark.parametrize("cls", [-1, 4])
    @pytest.mark.parametrize("run", [
        lambda m, x, cls: saliency(m, x, cls),
        lambda m, x, cls: saliency(m, x[None].repeat(2, axis=0), [0, cls]),
        lambda m, x, cls: integrated_gradients(m, x, cls, steps=8),
    ], ids=["saliency", "batch_saliency", "integrated_gradients"])
    def test_out_of_range_class_is_refused_before_any_pass(self, random_model, texture_batch,
                                                           monkeypatch, run, cls):
        """A negative class would wrap to another class's gradient, K would
        end in an IndexError inside a pass."""
        import bagnet.model as bm
        calls = []
        original = bm.forward_features
        monkeypatch.setattr(bm, "forward_features",
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        with pytest.raises(ConfigError, match=f"class {cls} is out of range: the model has 4 "):
            run(random_model, texture_batch.images[0], cls)
        assert calls == []

    @pytest.fixture(scope="class")
    def stored(self):
        """1,024 random stored images at 32 and at 33 px."""
        rng = np.random.default_rng(13)
        return {size: Dataset(rng.integers(0, 256, (1024, 3, size, size), dtype=np.uint8),
                              rng.integers(0, 4, 1024, dtype=np.uint8), list("abcd"), "val")
                for size in (32, 33)}

    @pytest.mark.parametrize("config,analysis", [
        (bagnet9_32, lambda m, d, n: threshold_sweep(m, d, [-np.inf, 0.0], "both", limit=n)),
        (bagnet9_32, lambda m, d, n: top_patches(m, d, 1, k=4, limit=n)),
        (bagnet9_32, lambda m, d, n: masking_sensitivity(m, ["bagnet"], d, p=8, n_max=1,
                                                         limit=n)),
        (bagnet3_33, lambda m, d, n: scramble_test(m, d, limit=n)),
    ], ids=["threshold_sweep", "top_patches", "masking_sensitivity", "scramble_test"])
    def test_memory_does_not_grow_with_a_float_copy_of_the_images(self, stored, config,
                                                                  analysis):
        """The tracemalloc peak grows by less than 3 MiB from 512 to 1,024
        analysed images: half a float32 copy of the 512 added images. It
        grew by 13.2 MiB (scramble) to 19.5 MiB (threshold) when each
        analysis normalized all its images up front."""
        model = build_model(config(), seed=7)
        data = stored[model.config.input_size]
        model.norm_mean, model.norm_std = channel_stats(data)
        analysis(model, data, 8)                   # builds the folds and starts the pool
        peaks = []
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for n in (512, 1024):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                analysis(model, data, n)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 3 * 2 ** 20, peaks
