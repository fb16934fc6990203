"""Dataset container round-trips and error paths, texture generator
determinism and local decidability, augmentation and batching."""

import numpy as np
import pytest

from bagnet.data import (
    AugmentSpec,
    BadMagicError,
    DataFormatError,
    Dataset,
    LabelRangeError,
    TruncatedPayloadError,
    batch_iterator,
    bilinear_resize,
    channel_stats,
    convert_cifar10,
    load_dataset,
    random_resized_crop,
    save_dataset,
    seed_stream,
    synth_texture_dataset,
)


def tiny_dataset():
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 3, 4, 4), dtype=np.uint8)
    return Dataset(images, np.array([0, 1], dtype=np.uint8), ["a", "b"])


class TestContainer:
    def test_two_image_round_trip_exact_bytes(self, tmp_path):
        ds = tiny_dataset()
        p1, p2 = tmp_path / "a.bagd", tmp_path / "b.bagd"
        save_dataset(ds, p1)
        loaded = load_dataset(p1)
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_identity(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "d.bagd"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.images, ds.images)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.class_names == ds.class_names

    def test_header_layout(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "d.bagd"
        save_dataset(ds, path)
        blob = path.read_bytes()
        assert blob[:4] == b"BAGD"
        assert blob[4] == 1  # version
        assert int.from_bytes(blob[5:9], "little") == 2  # count
        assert int.from_bytes(blob[9:11], "little") == 4  # size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bagd"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(BadMagicError):
            load_dataset(path)

    def test_truncated_payload(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "trunc.bagd"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedPayloadError):
            load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "lab.bagd"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        # labels sit right after the 2-entry class table ("a", "b")
        label_off = 12 + 2 + 2
        blob[label_off] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(LabelRangeError):
            load_dataset(path)

    # tiny_dataset's file: header 0-11, names "a" (12-13) and "b" (14-15),
    # labels 16-17, images 18-113; value None truncates at the offset
    @pytest.mark.parametrize("at,value,error,named", [
        (9, None, TruncatedPayloadError, 9),     # header cut short
        (4, 2, DataFormatError, 4),              # version
        (9, 0, DataFormatError, 5),              # size 0
        (13, 0xFF, DataFormatError, 13),         # class name not UTF-8
        (5, 1, DataFormatError, 65),             # count 2 -> 1: 49 bytes after the last image
        (9, 1, DataFormatError, 24),             # size 4 -> 1: 90 bytes after the last image
        (17, 9, LabelRangeError, 17),            # second label
    ])
    def test_malformed_file_names_its_offset(self, tmp_path, at, value, error, named):
        path = tmp_path / "bad.bagd"
        save_dataset(tiny_dataset(), path)
        blob = bytearray(path.read_bytes())
        if value is None:
            del blob[at:]
        else:
            blob[at] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(error) as exc:
            load_dataset(path)
        assert str(path) in str(exc.value) and f"at offset {named}" in str(exc.value)

    def test_cifar10_converter(self, tmp_path):
        rng = np.random.default_rng(1)
        records = []
        labels = [3, 7, 1]
        for lab in labels:
            records.append(bytes([lab]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
        p1 = tmp_path / "data_batch_1.bin"
        p2 = tmp_path / "data_batch_2.bin"
        p1.write_bytes(b"".join(records[:2]))
        p2.write_bytes(records[2])
        ds = convert_cifar10([p1, p2])
        assert ds.count == 3
        assert ds.size == 32
        assert list(ds.labels) == labels
        assert ds.class_names[0] == "airplane"
        # planar RGB row-major layout preserved byte for byte
        assert ds.images[0].tobytes() == records[0][1:]

    def test_cifar10_partial_record_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(bytes(3072))  # one byte short of a record
        with pytest.raises(TruncatedPayloadError):
            convert_cifar10([p])


class TestSynthTextures:
    def test_fixed_seed_bitwise_identical(self):
        a = synth_texture_dataset(4, 5, 32, 8, seed=3)
        b = synth_texture_dataset(4, 5, 32, 8, seed=3)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = synth_texture_dataset(4, 5, 32, 8, seed=3)
        b = synth_texture_dataset(4, 5, 32, 8, seed=4)
        assert a.images.tobytes() != b.images.tobytes()

    def test_scale_must_be_smaller_than_size(self):
        with pytest.raises(ValueError):
            synth_texture_dataset(4, 1, 32, 32, seed=0)

    def test_trivial_two_class_brightness_is_mean_separable(self):
        # handcrafted all-bright vs all-dark pair of classes: a pixel-mean
        # threshold separates them perfectly
        rng = np.random.default_rng(5)
        bright = rng.integers(180, 256, size=(20, 3, 8, 8), dtype=np.uint8)
        dark = rng.integers(0, 76, size=(20, 3, 8, 8), dtype=np.uint8)
        images = np.concatenate([bright, dark])
        labels = np.array([0] * 20 + [1] * 20, dtype=np.uint8)
        ds = Dataset(images, labels, ["bright", "dark"])
        means = ds.images.reshape(40, -1).mean(axis=1)
        pred = (means < 128).astype(np.uint8)
        assert np.array_equal(pred, ds.labels)

    def test_local_decidability_3nn_patch_baseline(self):
        """Majority vote of 3-nearest-neighbor classification of raw
        cell-aligned texture_scale patches reaches > 80% on 4 classes."""
        scale = 8
        train = synth_texture_dataset(4, 40, 32, scale, seed=21)
        val = synth_texture_dataset(4, 15, 32, scale, seed=22, split="val")

        def patches(ds):
            n, _, s, _ = ds.images.shape
            g = s // scale
            x = ds.images.reshape(n, 3, g, scale, g, scale)
            x = x.transpose(0, 2, 4, 1, 3, 5).reshape(n, g * g, -1).astype(np.float32)
            return x

        xtr = patches(train).reshape(-1, 3 * scale * scale)
        ytr = np.repeat(train.labels, (32 // scale) ** 2)
        xva = patches(val)
        correct = 0
        for i in range(val.count):
            votes = []
            d = ((xva[i][:, None, :] - xtr[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d, axis=1)[:, :3]
            for row in nearest:
                vals, counts = np.unique(ytr[row], return_counts=True)
                votes.append(vals[np.argmax(counts)])
            vals, counts = np.unique(votes, return_counts=True)
            if vals[np.argmax(counts)] == val.labels[i]:
                correct += 1
        assert correct / val.count > 0.8


class TestAugmentation:
    def test_identity_spec_single_crop_position(self):
        spec = AugmentSpec(resize_shorter_to=16, crop=16)
        rng = np.random.default_rng(0)
        img = np.random.default_rng(1).integers(0, 256, (3, 16, 16)).astype(np.float32)
        out = random_resized_crop(img, spec, rng)
        np.testing.assert_array_equal(out, img)

    def test_same_rng_state_same_output(self):
        spec = AugmentSpec(resize_shorter_to=20, crop=16, horizontal_flip=True)
        img = np.random.default_rng(2).integers(0, 256, (3, 16, 16)).astype(np.float32)
        a = random_resized_crop(img, spec, np.random.default_rng(9))
        b = random_resized_crop(img, spec, np.random.default_rng(9))
        assert a.tobytes() == b.tobytes()

    def test_crop_larger_than_resize_rejected(self):
        with pytest.raises(ValueError):
            AugmentSpec(resize_shorter_to=16, crop=20)

    def test_bilinear_resize_preserves_mean_of_smooth_gradient(self):
        # analytic ramp image: mean must survive resampling within 2%
        y = np.linspace(10, 200, 40)
        img = np.broadcast_to(y[None, :, None], (3, 40, 40)).astype(np.float32)
        out = bilinear_resize(img, 28, 28)
        assert abs(out.mean() - img.mean()) / img.mean() < 0.02


class TestBatchIterator:
    def test_single_batch_when_batch_size_is_count(self):
        ds = synth_texture_dataset(2, 6, 16, 4, seed=1)
        stats = channel_stats(ds)
        batches = list(batch_iterator(ds, ds.count, 0, 0, stats))
        assert len(batches) == 1
        assert batches[0][0].shape[0] == ds.count

    def test_same_seed_epoch_same_order(self):
        ds = synth_texture_dataset(2, 8, 16, 4, seed=1)
        stats = channel_stats(ds)
        a = [y.tolist() for _, y in batch_iterator(ds, 4, 7, 3, stats)]
        b = [y.tolist() for _, y in batch_iterator(ds, 4, 7, 3, stats)]
        c = [y.tolist() for _, y in batch_iterator(ds, 4, 7, 4, stats)]
        assert a == b
        assert a != c

    def test_epoch_is_exact_multiset(self):
        ds = synth_texture_dataset(3, 7, 16, 8, seed=2)
        stats = channel_stats(ds)
        mean, std = stats
        seen = []
        for x, y in batch_iterator(ds, 5, 0, 0, stats):
            # undo normalization to recover raw u8 values
            raw = np.round((x * std[:, None, None] + mean[:, None, None]) * 255).astype(np.uint8)
            seen.extend(im.tobytes() for im in raw)
        expected = sorted(im.tobytes() for im in ds.images)
        assert sorted(seen) == expected

    def test_normalized_stats_close_to_standard(self):
        ds = synth_texture_dataset(4, 20, 32, 8, seed=3)
        stats = channel_stats(ds)
        x, _ = next(batch_iterator(ds, ds.count, 0, 0, stats))
        assert np.abs(x.mean(axis=(0, 2, 3))).max() < 1e-4
        assert np.abs(x.std(axis=(0, 2, 3)) - 1).max() < 1e-3


def test_seed_stream_is_purpose_separated():
    a = seed_stream(5, 1, 0).random(4)
    b = seed_stream(5, 2, 0).random(4)
    c = seed_stream(5, 1, 1).random(4)
    d = seed_stream(5, 1, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a, d)
