"""Dataset container round-trips and error paths, the CSV cell forms,
texture generator determinism and local decidability, augmentation and
batching."""

import hashlib
import tracemalloc

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
    csv_text,
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

    def test_cifar10_label_out_of_range_names_the_record_and_offset(self, tmp_path, capsys):
        from bagnet.cli import main
        good = tmp_path / "data_batch_1.bin"
        bad = tmp_path / "data_batch_2.bin"
        good.write_bytes(bytes([9]) + bytes(3072))
        bad.write_bytes(b"".join(bytes([lab]) + bytes(3072) for lab in (3, 12, 1)))
        with pytest.raises(LabelRangeError) as exc:
            convert_cifar10([good, bad])
        assert str(exc.value) == f"{bad}: label 12 of record 1 at offset 3073 out of range [0,10)"
        out = tmp_path / "out" / "cifar.bagd"
        out.parent.mkdir()
        assert main(["dataset", "convert", "--out", str(out), str(good), str(bad)]) == 3
        assert "at offset 3073" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

    def test_cifar10_partial_record_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(bytes(3072))  # one byte short of a record
        with pytest.raises(TruncatedPayloadError):
            convert_cifar10([p])


# float32 values whose written form must read back bit for bit: two whose 8-digit
# form reads back as a neighbour, the float after 1, the largest finite, the smallest
# subnormal, -0
FLOAT32_EXACT = np.array([0.104900114, -0.108914725, 1 + 2**-23, 3.4028235e38, 1.4e-45, -0.0],
                         np.float32)


@pytest.mark.parametrize("value,text", [
    (7, "7"), (np.int64(-3), "-3"), (np.uint8(255), "255"),
    (2 / 3, "0.666666667"), (np.float64(-1e-300), "-1e-300"), (0.25, "0.25"),
    (float("inf"), "inf"), (-np.inf, "-inf"), (np.float32("nan"), "nan"),
    ("pearson_r", "pearson_r"), ("", ""),
    (None, "degenerate"),
] + [(v, None) for v in FLOAT32_EXACT])
def test_csv_text_cell_forms(value, text):
    """Every artifact's cells: ints in decimal, floats to 9 significant digits
    (so a float32 reads back exactly), text as is, None as `degenerate`."""
    head, row, end = csv_text(("name", "cell"), [("row", value)]).split("\n")
    assert (head, end) == ("name,cell", "") and row.startswith("row,")
    cell = row[len("row,"):]
    if text is None:
        assert np.float32(float(cell)).tobytes() == value.tobytes()
    else:
        assert cell == text


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

    # sha256 of (images, labels, labels.dtype) from the image-by-image
    # generator: 16 to 64 px, scales 3 to 24, 2 to 8 classes, one image per
    # class, and counts that are not a multiple of the chunk
    GOLDEN = [
        ((2, 8, 16, 8, 3), "6305139f96289ad2223ee4f86cef15b0f30b4e3f1c16e4b94c674c119c5c39b4"),
        ((4, 11, 32, 4, 9), "9767d15451271f22da2705bba44de57e13f8e04b7e71ac56357566192ef29aac"),
        ((2, 1, 32, 8, 1), "0a4af28f740df711356a6e05a8f61f02ca27ed0dc155cf68701d1ec02a7142e9"),
        ((2, 43, 32, 8, 12), "777669ab7025ccc29689344377f532ccdde1c50b57c10f4f03c6c57e6268e23a"),
        ((4, 11, 33, 3, 61), "0de80f5fc5969f490b78dfc40be4afa60321567ca1bc5c87ca58fb29502aa7e0"),
        ((3, 5, 33, 11, 2), "6d74a3de6aca1db63e930d6b9d23356f7c0ab6289b2e2df73d47c5d22de74316"),
        ((8, 3, 64, 24, 4), "a585d34ebf182aab626a92fd24495ba9c971b180da05581f0020ec42ee89d0cf"),
        ((6, 2, 64, 8, 5), "d0e0ab22d97b91bed3b601914c811f99c3230d64208f95252d224147aeb07737"),
    ]

    @pytest.mark.parametrize("args,digest", GOLDEN, ids=["-".join(map(str, a)) for a, _ in GOLDEN])
    def test_golden_digest(self, args, digest):
        ds = synth_texture_dataset(*args)
        num_classes, per_class, size = args[:3]
        assert ds.images.shape == (num_classes * per_class, 3, size, size)
        h = hashlib.sha256()
        for part in (ds.images.tobytes(), ds.labels.tobytes(), ds.labels.dtype.str.encode()):
            h.update(part)
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("args", [(3, 5, 33, 11, 2), (2, 6, 64, 24, 7)])
    def test_matches_image_by_image_definition(self, args):
        # (2, 6, 64, 24): 12 images, more than one chunk and not a multiple of it
        from oracles import reference_texture_images
        ds = synth_texture_dataset(*args)
        assert ds.images.tobytes() == reference_texture_images(*args).tobytes()
        assert ds.labels.tolist() == [c for c in range(args[0]) for _ in range(args[1])]

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


class TestChannelStats:
    @staticmethod
    def whole_array_stats(images):
        """The formula on one float64 copy of every image."""
        x = images.astype(np.float64) / 255.0
        mean = x.mean(axis=(0, 2, 3))
        std = np.maximum(x.std(axis=(0, 2, 3)), 1e-6)
        return mean.astype(np.float32), std.astype(np.float32)

    @pytest.mark.parametrize("seed", range(12))
    def test_chunked_stats_equal_the_whole_array_formula_bit_for_bit(self, seed):
        # counts on both sides of a chunk boundary, sizes from 1 px to 97 px
        # (one image per chunk at 97 px), narrow and full pixel ranges
        rng = np.random.default_rng(seed)
        size = int(rng.choice([1, 4, 16, 32, 33, 97]))
        count = int(rng.integers(1, 40 if size == 97 else 300))
        lo = int(rng.integers(0, 256)) if seed % 2 else 0
        images = rng.integers(lo, 256, (count, 3, size, size), dtype=np.uint8)
        ds = Dataset(images, np.zeros(count, dtype=np.uint8), ["a"])
        for got, want in zip(channel_stats(ds), self.whole_array_stats(images)):
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_constant_channel_keeps_the_std_floor(self):
        images = np.full((5, 3, 4, 4), 7, dtype=np.uint8)
        mean, std = channel_stats(Dataset(images, np.zeros(5, dtype=np.uint8), ["a"]))
        np.testing.assert_array_equal(std, np.float32(1e-6))
        np.testing.assert_array_equal(mean, np.float32(7 / 255))

    def test_memory_does_not_grow_with_the_image_count(self):
        """The tracemalloc peak grows by less than 1 MiB from 512 to 1,024
        32 px images; a float64 copy of the 512 added images is 12 MiB (the
        whole-array formula grew by 24 MiB)."""
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, (1024, 3, 32, 32), dtype=np.uint8)
        labels = np.zeros(1024, dtype=np.uint8)
        peaks = []
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for n in (512, 1024):
                ds = Dataset(images[:n], labels[:n], ["a"])
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                channel_stats(ds)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 ** 20, peaks


def test_seed_stream_is_purpose_separated():
    a = seed_stream(5, 1, 0).random(4)
    b = seed_stream(5, 2, 0).random(4)
    c = seed_stream(5, 1, 1).random(4)
    d = seed_stream(5, 1, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a, d)
