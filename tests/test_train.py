"""Schedule arithmetic, training smoke behavior, evaluation semantics and
bit-exact checkpointing / resumption."""

import importlib
import warnings
import weakref

import numpy as np
import pytest

from bagnet.data import Dataset, synth_texture_dataset
from bagnet.model import BagNetConfig, BlockSpec, ConfigError, build_model
from bagnet.train import (
    CheckpointFormatError,
    TrainConfig,
    evaluate,
    load_checkpoint,
    lr_at,
    model_from_checkpoint,
    save_checkpoint,
    snapshot_tensors,
    topk_hits,
    train,
)

TINY = BagNetConfig(q=5, stem=(3, 1, 1, 8), blocks=(BlockSpec(8, 4, 16, 3, 2),),
                    num_classes=4, input_size=16, feature_dim=16)


def tiny_sets(num_classes=4, per_class=8, size=16):
    tr = synth_texture_dataset(num_classes, per_class, size, 8, seed=31)
    va = synth_texture_dataset(num_classes, per_class // 2, size, 8, seed=32, split="val")
    return tr, va


class TestLearningRate:
    def test_initial_value(self):
        assert lr_at(TrainConfig(), 0) == 0.01

    def test_decay_boundary_at_reference_schedule(self):
        cfg = TrainConfig(decay_every_epochs=30)
        assert lr_at(cfg, 29) == 0.01
        assert lr_at(cfg, 30) == pytest.approx(0.001)

    def test_floor_arithmetic(self):
        cfg = TrainConfig(lr0=0.5, decay_factor=10.0, decay_every_epochs=5)
        assert lr_at(cfg, 12) == pytest.approx(0.5 / 100)

    def test_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(decay_factor=1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr0=-0.1)

    @pytest.mark.parametrize("field,value", [
        ("lr0", float("nan")), ("lr0", float("inf")),
        ("decay_factor", float("nan")), ("decay_factor", float("inf")),
    ])
    def test_non_finite_rate_or_decay_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestTrainLoop:
    def test_single_class_zero_loss(self):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (12, 3, 16, 16), dtype=np.uint8)
        ds = Dataset(images, np.zeros(12, dtype=np.uint8), ["only"])
        cfg = BagNetConfig(q=5, stem=(3, 1, 1, 8), blocks=(BlockSpec(8, 4, 16, 3, 2),),
                           num_classes=1, input_size=16, feature_dim=16)
        model = build_model(cfg, seed=0)
        ckpt = train(model, ds, ds, TrainConfig(epochs=1, batch_size=6, seed=0))
        assert ckpt.history[0]["train_loss"] == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("role,classes", [("train_set", 8), ("val_set", 8), ("val_set", 2)])
    def test_set_with_another_class_count_is_refused_before_any_step(self, role, classes):
        sets = dict(zip(("train_set", "val_set"), tiny_sets()))
        sets[role] = tiny_sets(num_classes=classes)[role == "val_set"]
        model = build_model(TINY, seed=0)
        before = snapshot_tensors(model)
        with pytest.raises(ConfigError, match=f"{role} has {classes} classes but the model has 4"):
            train(model, config=TrainConfig(epochs=1, batch_size=8, seed=0), **sets)
        for name, value in snapshot_tensors(model).items():
            assert np.array_equal(value, before[name]), name

    def test_zero_learning_rate_changes_nothing(self):
        tr, va = tiny_sets()
        model = build_model(TINY, seed=1)
        before = {n: p.value.data.copy() for n, p in model.params.items()}
        ckpt = train(model, tr, va, TrainConfig(epochs=2, batch_size=8, lr0=0.0, seed=0))
        for n, p in model.params.items():
            assert p.value.data.tobytes() == before[n].tobytes(), n
        # loss stays at its initial level (up to batch-composition jitter:
        # the per-epoch shuffle regroups batch-norm statistics)
        losses = [r["train_loss"] for r in ckpt.history]
        assert losses[1] == pytest.approx(losses[0], rel=0.05)

    def test_previous_step_graph_is_gone_before_the_next_forward(self, monkeypatch):
        # a step's graph holds its logits; it must be freed before the next
        # forward pass, or two graphs share the peak
        bt = importlib.import_module("bagnet.train")   # `bagnet.train` is also a function
        real, logits = bt.forward_logits, []

        def forward_logits(model, x):
            assert all(ref() is None for ref in logits), "an earlier step's graph is alive"
            out = real(model, x)
            logits.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(bt, "forward_logits", forward_logits)
        tr, va = tiny_sets()
        train(build_model(TINY, seed=1), tr, va, TrainConfig(epochs=2, batch_size=8, seed=0))
        assert len(logits) == 8

    def test_fixed_seed_reproduces_trajectory_bitwise(self):
        tr, va = tiny_sets()
        outs = []
        for _ in range(2):
            model = build_model(TINY, seed=1)
            train(model, tr, va, TrainConfig(epochs=2, batch_size=8, seed=5))
            outs.append(snapshot_tensors(model))
        for name in outs[0]:
            assert outs[0][name].tobytes() == outs[1][name].tobytes(), name

    def test_divergence_aborts_with_last_good_state(self):
        tr, va = tiny_sets()
        model = build_model(TINY, seed=1)
        good = train(model, tr, va, TrainConfig(epochs=1, batch_size=8, seed=0))
        # resume with an absurd rate: the next epoch must blow up
        bad_cfg = TrainConfig(epochs=2, batch_size=8, lr0=1e18, seed=0)
        ckpt = train(model, tr, va, bad_cfg, start_epoch=1, history=good.history)
        assert ckpt.diverged
        for name, arr in good.tensors.items():
            assert ckpt.tensors[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("lr0", [1e18, 1e39])
    def test_divergence_raises_no_numpy_warning(self, lr0):
        # NumericalError is the one report of a non-finite value: no
        # overflow / invalid RuntimeWarning may escape on the way to it
        tr, va = tiny_sets()
        model = build_model(TINY, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ckpt = train(model, tr, va, TrainConfig(epochs=2, batch_size=8, lr0=lr0, seed=0))
        assert ckpt.diverged


class TestEvaluate:
    def test_k_equals_num_classes_is_perfect(self):
        tr, va = tiny_sets()
        model = build_model(TINY, seed=2)
        model.norm_mean, model.norm_std = np.zeros(3, np.float32), np.ones(3, np.float32)
        result = evaluate(model, va, k=4)
        assert result.topk_accuracy == 1.0

    def test_k_above_num_classes_rejected(self):
        tr, va = tiny_sets()
        model = build_model(TINY, seed=2)
        with pytest.raises(ValueError):
            evaluate(model, va, k=5)

    def test_perfect_logits_top1(self):
        labels = np.array([2, 0, 1])
        logits = np.eye(3)[labels]
        assert topk_hits(logits, labels, 1).all()

    def test_hand_built_top2_two_thirds(self):
        logits = np.array([[0.9, 0.5, 0.1],     # label 1: in top-2
                           [0.2, 0.3, 0.9],     # label 0: not in top-2
                           [0.5, 0.5, 0.4]])    # label 1: tie -> ranks 0 then 1
        labels = np.array([1, 0, 1])
        hits = topk_hits(logits, labels, 2)
        assert hits.tolist() == [True, False, True]
        assert hits.mean() == pytest.approx(2 / 3)

    def test_tie_break_prefers_lower_class_index(self):
        logits = np.zeros((1, 4))
        assert topk_hits(logits, np.array([0]), 1).all()
        assert not topk_hits(logits, np.array([1]), 1).any()

    def test_per_class_mean_matches_overall_on_balanced_set(self):
        tr, va = tiny_sets()
        model = build_model(TINY, seed=3)
        model.norm_mean, model.norm_std = np.zeros(3, np.float32), np.ones(3, np.float32)
        result = evaluate(model, va, k=1)
        assert result.per_class.mean() == pytest.approx(result.topk_accuracy, abs=1e-6)

    def test_per_class_is_each_labels_hit_rate_and_0_without_images(self):
        """On an unbalanced set with no image of class 2, each class's value
        is the mean of its images' hits, bit for bit, and class 2's is 0."""
        _, va = tiny_sets()
        keep = np.flatnonzero(va.labels != 2)[:11]
        unbalanced = Dataset(va.images[keep], va.labels[keep], va.class_names, split="val")
        model = build_model(TINY, seed=3)
        result = evaluate(model, unbalanced, k=2)
        labels = unbalanced.labels.astype(np.int64)
        hits = topk_hits(result.logits, labels, 2)
        want = [hits[labels == c].mean() if (labels == c).any() else 0.0 for c in range(4)]
        assert result.per_class.tolist() == want


class TestCheckpoint:
    def _trained(self):
        tr, va = tiny_sets()
        model = build_model(TINY, seed=4)
        ckpt = train(model, tr, va, TrainConfig(epochs=1, batch_size=8, seed=0))
        return model, ckpt, va

    def test_save_load_save_identical_bytes(self, tmp_path):
        _, ckpt, _ = self._trained()
        p1, p2 = tmp_path / "a.bagc", tmp_path / "b.bagc"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reload_evaluates_bitwise_identically(self, tmp_path):
        model, ckpt, va = self._trained()
        before = evaluate(model, va, k=1)
        path = tmp_path / "m.bagc"
        save_checkpoint(ckpt, path)
        restored = model_from_checkpoint(load_checkpoint(path))
        after = evaluate(restored, va, k=1)
        assert before.logits.tobytes() == after.logits.tobytes()
        assert before.topk_accuracy == after.topk_accuracy

    def test_resume_matches_uninterrupted_run_bitwise(self, tmp_path):
        tr, va = tiny_sets()
        # uninterrupted: 3 epochs
        model_a = build_model(TINY, seed=4)
        train(model_a, tr, va, TrainConfig(epochs=3, batch_size=8, seed=9))
        full = snapshot_tensors(model_a)
        # interrupted: 2 epochs, checkpoint, resume 1 more
        model_b = build_model(TINY, seed=4)
        ckpt = train(model_b, tr, va, TrainConfig(epochs=2, batch_size=8, seed=9))
        path = tmp_path / "resume.bagc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        model_c = model_from_checkpoint(loaded)
        train(model_c, tr, va, TrainConfig(epochs=3, batch_size=8, seed=9),
              start_epoch=loaded.epoch, history=loaded.history)
        resumed = snapshot_tensors(model_c)
        for name in full:
            assert full[name].tobytes() == resumed[name].tobytes(), name

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bagc"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        _, ckpt, _ = self._trained()
        path = tmp_path / "t.bagc"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_history_round_trips(self, tmp_path):
        _, ckpt, _ = self._trained()
        path = tmp_path / "h.bagc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == ckpt.epoch
        assert len(loaded.history) == len(ckpt.history)
        assert loaded.history[0]["val_top1"] == pytest.approx(
            ckpt.history[0]["val_top1"], rel=1e-6)


def test_divergence_names_layer_op_epoch_and_step(tmp_path):
    """The NumericalError text reaches the checkpoint's report with the epoch
    and the batch index; the saved file is the one without the report."""
    tr, va = tiny_sets()
    model = build_model(TINY, seed=1)
    good = train(model, tr, va, TrainConfig(epochs=1, batch_size=8, seed=0))
    model.params["block0.bn2.gamma"].value.data = np.full(4, 1e38, np.float32)
    ckpt = train(model, tr, va, TrainConfig(epochs=2, batch_size=8, seed=0), start_epoch=1,
                 history=good.history)
    assert ckpt.diverged
    assert ckpt.divergence == ("block0.conv2/bn2: non-finite values produced by op "
                               "'batch_norm' at epoch 1 step 0")
    save_checkpoint(ckpt, tmp_path / "div.bagc")
    quiet = load_checkpoint(tmp_path / "div.bagc")
    assert quiet.diverged and quiet.divergence == ""
    save_checkpoint(quiet, tmp_path / "again.bagc")
    assert (tmp_path / "again.bagc").read_bytes() == (tmp_path / "div.bagc").read_bytes()


@pytest.mark.parametrize("name", ["bagnet5_32", "bagnet9_32", "bagnet17_64", "bagnet3_33"])
def test_tensor_shapes_match_a_built_model_in_order(name):
    from bagnet.model import SHIPPED_CONFIGS
    from bagnet.train import tensor_shapes

    config = SHIPPED_CONFIGS[name]()
    table = snapshot_tensors(build_model(config, seed=0))
    assert list(tensor_shapes(config).items()) == [(n, a.shape) for n, a in table.items()]


def test_checkpoint_whose_config_misstates_q_is_refused(tmp_path):
    from dataclasses import replace

    from bagnet.train import Checkpoint

    model = build_model(TINY, seed=0)
    path = tmp_path / "q.bagc"
    save_checkpoint(Checkpoint(replace(TINY, q=4), snapshot_tensors(model), 0, 0), path)
    with pytest.raises(CheckpointFormatError, match="computed receptive field is 5"):
        load_checkpoint(path)
