"""Property tests of the two binary formats: a valid BAGD or BAGC file with
one byte replaced (any offset, any value) or cut short either loads, and
then means what it says, or raises the format's own error naming the file
and an offset. No other exception may escape the loaders."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bagnet.data import DataFormatError, Dataset, load_dataset, save_dataset
from bagnet.model import BagNetConfig, BlockSpec, build_model
from bagnet.train import (
    Checkpoint,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
    snapshot_tensors,
)

# a fixed example budget and derandomized draws keep the run deterministic
BUDGET = settings(max_examples=400, derandomize=True, database=None, deadline=None)

# one block, two classes: a checkpoint of 2.7 kB whose config JSON and first
# tensors fill its first 300 bytes and whose last tensors and meta JSON the
# last 200
TINY = BagNetConfig(q=3, stem=(3, 1, 0, 4), blocks=(BlockSpec(4, 1, 4, 1, 1),),
                    num_classes=2, input_size=4, feature_dim=4)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    images = np.arange(36, dtype=np.uint8).reshape(3, 3, 2, 2)
    save_dataset(Dataset(images, np.array([0, 1, 1], np.uint8), ["a", "bc"]),
                 root / "tiny.bagd")
    model = build_model(TINY, seed=0)
    save_checkpoint(Checkpoint(TINY, snapshot_tensors(model), 0, 0), root / "tiny.bagc")
    return root


def mutant(data, blob: bytes, offsets) -> bytes:
    """blob with the byte at a drawn offset replaced, or cut there (-1)."""
    at = data.draw(offsets, label="offset")
    value = data.draw(st.integers(-1, 255), label="value")
    if value < 0:
        return blob[:at]
    return blob[:at] + bytes([value]) + blob[at + 1:]


def assert_names_file_and_offset(exc: Exception, path) -> None:
    assert str(path) in str(exc) and re.search(r"at offset \d+", str(exc)), str(exc)


@BUDGET
@given(data=st.data())
def test_mutated_dataset_loads_to_the_same_bytes_or_names_an_offset(originals, data):
    root, blob = originals, (originals / "tiny.bagd").read_bytes()
    bad = mutant(data, blob, st.integers(0, len(blob) - 1))
    path = root / "mutant.bagd"
    path.write_bytes(bad)
    try:
        dataset = load_dataset(path)
    except DataFormatError as exc:
        assert_names_file_and_offset(exc, path)
        return
    save_dataset(dataset, root / "again.bagd")
    assert (root / "again.bagd").read_bytes() == bad


@BUDGET
@given(data=st.data())
def test_mutated_checkpoint_loads_its_config_tensors_or_names_an_offset(originals, data):
    root, blob = originals, (originals / "tiny.bagc").read_bytes()
    n = len(blob)
    offsets = st.one_of(st.integers(0, 299), st.integers(n - 200, n - 1), st.integers(0, n - 1))
    path = root / "mutant.bagc"
    path.write_bytes(mutant(data, blob, offsets))
    try:
        ckpt = load_checkpoint(path)
    except CheckpointFormatError as exc:
        assert_names_file_and_offset(exc, path)
        return
    expected = snapshot_tensors(build_model(ckpt.config, seed=0))
    assert {k: v.shape for k, v in ckpt.tensors.items()} == \
        {k: v.shape for k, v in expected.items()}
    assert all(np.isfinite(v).all() for v in ckpt.tensors.values())
