"""SGD-with-momentum training loop, step-decay schedule, evaluation and
bit-exact checkpointing.

Defaults mirror the reference recipe (momentum 0.9, lr0 0.01, decay by
10) with the schedule lengths scaled down to desk size (batch 64, 20
epochs, decay every 8). Every random draw is keyed by (seed, epoch,
purpose), so resuming from a checkpoint reproduces the uninterrupted
run bit for bit.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .autodiff import (
    NumericalError,
    Tensor,
    sgd_momentum_step,
    softmax_cross_entropy,
)
from .data import AugmentSpec, Dataset, batch_iterator, channel_stats, csv_text, normalize_images
from .model import (
    BagNetConfig,
    BlockSpec,
    ConfigError,
    ModelState,
    batch_logits,
    build_model,
    forward_logits,
    model_shapes,
)

CHECKPOINT_MAGIC = b"BAGC"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(ValueError):
    """Corrupt or incompatible checkpoint payload."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    lr0: float = 0.01
    momentum: float = 0.9
    decay_factor: float = 10.0
    decay_every_epochs: int = 8
    seed: int = 0
    augment: Optional[AugmentSpec] = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.lr0 < math.inf:
            raise ValueError(f"lr0 must be finite and >= 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 1.0 < self.decay_factor < math.inf:
            raise ValueError(f"decay_factor must be finite and > 1, got {self.decay_factor}")
        if self.decay_every_epochs < 1:
            raise ValueError("decay_every_epochs must be >= 1")


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Step decay: lr0 / decay_factor ** floor(epoch / decay_every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return config.lr0 / config.decay_factor ** (epoch // config.decay_every_epochs)


@dataclass
class Checkpoint:
    config: BagNetConfig
    tensors: dict[str, np.ndarray]   # params, momenta, bn stats, input norm
    epoch: int                       # epochs completed
    base_seed: int
    history: list[dict] = field(default_factory=list)
    diverged: bool = False
    # what diverged, e.g. "block1.conv2/bn2: non-finite values produced by
    # op 'batch_norm' at epoch 0 step 3"; reported, not written to the file
    divergence: str = ""


@dataclass
class EvalResult:
    topk_accuracy: float
    per_class: np.ndarray            # [num_classes]
    logits: np.ndarray               # [count, num_classes] float32


# ---------------------------------------------------------------------------
# evaluation

def check_topk(k: int, num_classes: int) -> None:
    if not 1 <= k <= num_classes:
        raise ValueError(f"top-k k={k} is outside 1..{num_classes}, the number of classes")


def topk_hits(logits: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """label among the k largest logits; ties ranked by lower class index."""
    check_topk(k, logits.shape[1])
    order = np.argsort(-logits, axis=1, kind="stable")  # stable: ties -> lower index first
    return (order[:, :k] == labels[:, None]).any(axis=1)


def evaluate(model: ModelState, dataset: Dataset, k: int = 1,
             batch_size: int = 256) -> EvalResult:
    check_topk(k, model.config.num_classes)   # before the pass, not after it
    # batch_size bounds the normalized copy; batch_logits bounds each network pass
    logits = np.concatenate([
        batch_logits(model, normalize_images(dataset.images[start:start + batch_size],
                                             model.norm_mean, model.norm_std))
        for start in range(0, dataset.count, batch_size)])
    labels = dataset.labels.astype(np.int64)
    hits = topk_hits(logits, labels, k)
    per_class = np.zeros(dataset.num_classes)
    for c in range(dataset.num_classes):
        mask = labels == c
        per_class[c] = hits[mask].mean() if mask.any() else 0.0
    return EvalResult(float(hits.mean()), per_class, logits)


# ---------------------------------------------------------------------------
# training

def train(model: ModelState, train_set: Dataset, val_set: Dataset,
          config: TrainConfig, sink: Optional[Callable[[dict], None]] = None,
          start_epoch: int = 0, history: Optional[list[dict]] = None) -> Checkpoint:
    """Minimize softmax cross-entropy for config.epochs epochs.

    Emits one metrics dict per epoch through `sink`; on divergence (any
    non-finite value) aborts and returns the last completed epoch's
    state with `diverged` set and `divergence` naming the failure.
    """
    if train_set.num_classes != model.config.num_classes:
        raise ConfigError("model and dataset class counts differ")
    if start_epoch == 0:
        model.norm_mean, model.norm_std = channel_stats(train_set)
    stats = (model.norm_mean, model.norm_std)
    history = list(history or [])
    last_good = snapshot_tensors(model)

    for epoch in range(start_epoch, config.epochs):
        lr = lr_at(config, epoch)
        model.train_mode()
        running_loss, batches = 0.0, 0
        try:
            for x, y in batch_iterator(train_set, config.batch_size, config.seed,
                                       epoch, stats, config.augment):
                loss = softmax_cross_entropy(forward_logits(model, Tensor(x)), y)
                model.zero_grad()
                loss.backward()
                sgd_momentum_step(model.parameters(), lr, config.momentum)
                running_loss += loss.item()
                batches += 1
        except NumericalError as err:
            ckpt = Checkpoint(model.config, last_good, epoch, config.seed, history,
                              diverged=True, divergence=f"{err} at epoch {epoch} step {batches}")
            restore_tensors(model, last_good)
            model.eval_mode()
            return ckpt
        model.eval_mode()
        val = evaluate(model, val_set, k=1)
        row = {"epoch": epoch, "lr": lr, "train_loss": running_loss / max(batches, 1),
               "val_top1": val.topk_accuracy}
        history.append(row)
        if sink is not None:
            sink(row)
        last_good = snapshot_tensors(model)

    return Checkpoint(model.config, last_good, config.epochs, config.seed, history)


# ---------------------------------------------------------------------------
# model state <-> flat tensor table

def snapshot_tensors(model: ModelState) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for name, p in model.params.items():
        out[f"param.{name}"] = p.value.data.copy()
        out[f"momentum.{name}"] = p.momentum.copy()
    for name, st in model.bn.items():
        out[f"bnstat.{name}.mean"] = st.running_mean.copy()
        out[f"bnstat.{name}.var"] = st.running_var.copy()
    out["input_norm.mean"] = model.norm_mean.copy()
    out["input_norm.std"] = model.norm_std.copy()
    return out


def tensor_shapes(config: BagNetConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor `snapshot_tensors` writes for a model of
    `config`, in the same order, without building the model."""
    params, channels = model_shapes(config)
    out: dict[str, tuple[int, ...]] = {}
    for name, shape in params.items():
        out[f"param.{name}"] = out[f"momentum.{name}"] = shape
    for name, c in channels.items():
        out[f"bnstat.{name}.mean"] = out[f"bnstat.{name}.var"] = (c,)
    out["input_norm.mean"] = out["input_norm.std"] = (3,)
    return out


def restore_tensors(model: ModelState, table: dict[str, np.ndarray]) -> None:
    for name, p in model.params.items():
        p.value.data = table[f"param.{name}"].copy()
        p.momentum = table[f"momentum.{name}"].copy()
    for name, st in model.bn.items():
        st.running_mean = table[f"bnstat.{name}.mean"].copy()
        st.running_var = table[f"bnstat.{name}.var"].copy()
    model.norm_mean = table["input_norm.mean"].copy()
    model.norm_std = table["input_norm.std"].copy()


def model_from_checkpoint(ckpt: Checkpoint) -> ModelState:
    model = build_model(ckpt.config, seed=0)
    restore_tensors(model, ckpt.tensors)
    return model.eval_mode()


# ---------------------------------------------------------------------------
# checkpoint file format

def _config_to_dict(config: BagNetConfig) -> dict:
    return {
        "q": config.q, "stem": list(config.stem),
        "blocks": [[b.in_channels, b.mid_channels, b.out_channels, b.kernel, b.stride]
                   for b in config.blocks],
        "num_classes": config.num_classes, "input_size": config.input_size,
        "feature_dim": config.feature_dim, "name": config.name,
    }


def _config_from_dict(d: dict) -> BagNetConfig:
    return BagNetConfig(
        q=d["q"], stem=tuple(d["stem"]),
        blocks=tuple(BlockSpec(*b) for b in d["blocks"]),
        num_classes=d["num_classes"], input_size=d["input_size"],
        feature_dim=d["feature_dim"], name=d.get("name", "custom"))


HISTORY_COLUMNS = ("epoch", "lr", "train_loss", "val_top1")


def history_to_csv(history: list[dict]) -> str:
    """The history as `metrics.csv` and the checkpoint's meta both hold it."""
    return csv_text(HISTORY_COLUMNS, [[row[c] for c in HISTORY_COLUMNS] for row in history])


def history_from_csv(text: str) -> list[dict]:
    rows = []
    for line in text.strip().split("\n")[1:]:
        if not line:
            continue
        e, lr, tl, va = line.split(",")
        rows.append({"epoch": int(e), "lr": float(lr), "train_loss": float(tl),
                     "val_top1": float(va)})
    return rows


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<B", CHECKPOINT_VERSION))
    cfg = json.dumps(_config_to_dict(ckpt.config), sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    buf.write(struct.pack("<I", len(ckpt.tensors)))
    for name, arr in ckpt.tensors.items():
        raw = name.encode("utf-8")
        arr32 = np.ascontiguousarray(arr, dtype="<f4")
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<B", arr32.ndim))
        for d in arr32.shape:
            buf.write(struct.pack("<I", d))
        buf.write(arr32.tobytes())
    meta = json.dumps({
        "epoch": ckpt.epoch, "base_seed": ckpt.base_seed,
        "diverged": ckpt.diverged, "history_csv": history_to_csv(ckpt.history),
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> Checkpoint:
    """Read a file written by `save_checkpoint`. A file that departs from
    that layout raises a CheckpointFormatError naming the file, the field
    and its offset: a tensor the config does not have, or one missing,
    misshapen or non-finite, and bytes after the meta JSON included."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def error(what: str, at: int) -> CheckpointFormatError:
        return CheckpointFormatError(f"{path}: {what} at offset {at}")

    if blob[:4] != CHECKPOINT_MAGIC:
        raise error(f"bad checkpoint magic {blob[:4]!r}", 0)
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise error("checkpoint truncated", off)
        chunk = blob[off:off + n]
        off += n
        return chunk

    def parse_json(field: str) -> tuple[dict, int]:
        n = struct.unpack("<I", take(4))[0]
        start = off
        try:
            return json.loads(take(n).decode("utf-8")), start
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"{field} JSON is corrupt ({exc})", start) from None

    version = take(1)[0]
    if version != CHECKPOINT_VERSION:
        raise error(f"unsupported checkpoint version {version}", 4)
    cfg, start = parse_json("config")
    try:
        config = _config_from_dict(cfg)
        expected = tensor_shapes(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"invalid config field {exc!r} in the JSON", start) from None
    n_tensors = struct.unpack("<I", take(4))[0]
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        start = off
        raw = take(struct.unpack("<H", take(2))[0])
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise error(f"tensor name {raw!r} is not UTF-8", start + 2) from None
        if name not in expected or name in tensors:
            raise error(f"tensor {name!r} is unknown to the config or repeated", start)
        shape = expected[name]
        size = math.prod(shape)
        rank = take(1)[0]
        if rank != len(shape):
            raise error(f"tensor {name!r} has rank {rank}, config needs {len(shape)}", off - 1)
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        if dims != shape:
            raise error(f"tensor {name!r} has shape {dims}, config needs {shape}",
                        off - 4 * rank)
        values = np.frombuffer(take(4 * size), dtype="<f4")
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values))[0]
            raise error(f"tensor {name!r} holds a non-finite value", off - 4 * (size - bad))
        tensors[name] = values.reshape(dims).copy()
    for name in expected:
        if name not in tensors:
            raise error(f"tensor {name!r} is missing from the table", off)
    meta, start = parse_json("meta")
    if off != len(blob):
        raise error(f"{len(blob) - off} bytes after the meta JSON", off)
    try:
        return Checkpoint(config, tensors, meta["epoch"], meta["base_seed"],
                          history_from_csv(meta["history_csv"]), meta.get("diverged", False))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise error(f"invalid meta field {exc!r} in the JSON", start) from None
