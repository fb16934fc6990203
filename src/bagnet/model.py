"""BagNet architectures: bottleneck feature extractors whose topmost
features see at most q x q input pixels, a per-location linear
classifier, and linear spatial aggregation to image logits.

Two routes compute the same evidence map: `forward_evidence` (whole
images, one or a batch: the one numpy evidence path every analysis reads)
and `patch_oracle_evidence` (every q x q patch cropped out and classified
independently). The oracle is the semantic definition; equality of the
two is asserted by tests rather than assumed.

Every pass entry point takes stored uint8 pixels or network inputs:
`model_inputs` is the one place that normalizes pixels with the model's
constants, and each network pass applies it to its own rows, so a caller
holds no float copy of its images.

All convolutions inside blocks use zero padding 0, which is what makes
the per-patch reading exact; only the stem may pad, and stem padding is
equivalent to padding the input image. Blocks whose 3x3 middle conv
shrinks the main path crop the shortcut to the top-left to match.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .autodiff import (
    BatchNormState,
    Fold,
    NumericalError,
    Parameter,
    Tensor,
    add,
    batch_norm,
    conv2d,
    crop2d,
    fanin_normal,
    fold_affine,
    linear,
    relu,
    spatial_mean,
    weighted_sum,
)
from .data import normalize_images


class ConfigError(ValueError):
    """Configuration violates a structural invariant (fails fast)."""


@dataclass(frozen=True)
class BlockSpec:
    """One bottleneck block: 1x1 reduce, k x k middle conv (k in {1,3},
    carries the stride), 1x1 expand to 4x the middle width."""
    in_channels: int
    mid_channels: int
    out_channels: int
    kernel: int
    stride: int

    def __post_init__(self):
        if self.out_channels != 4 * self.mid_channels:
            raise ConfigError("block expansion must be 4x the middle width")
        if self.kernel not in (1, 3):
            raise ConfigError("middle kernel must be 1 or 3")
        if self.stride not in (1, 2):
            raise ConfigError("block stride must be 1 or 2")

    @property
    def needs_shortcut_conv(self) -> bool:
        return self.stride == 2 or self.in_channels != self.out_channels


@dataclass(frozen=True)
class BagNetConfig:
    """One BagNet architecture. It accepts any square image of at least
    q x q pixels; `input_size` is the size the shipped configs are meant
    for and the one `certify_receptive_field` probes."""
    q: int
    stem: tuple[int, int, int, int]  # (kernel, stride, pad, channels)
    blocks: tuple[BlockSpec, ...]
    num_classes: int
    input_size: int
    feature_dim: int
    name: str = "custom"

    def __post_init__(self):
        k, s, p, c = self.stem
        if k not in (1, 3):
            raise ConfigError("stem kernel must be 1 or 3")
        if s < 1 or p < 0 or c < 1:
            raise ConfigError("bad stem geometry")
        prev = c
        for b in self.blocks:
            if b.in_channels != prev:
                raise ConfigError(f"block input {b.in_channels} != previous output {prev}")
            prev = b.out_channels
        if self.blocks and self.feature_dim != self.blocks[-1].out_channels:
            raise ConfigError("feature_dim must equal the last block's output channels")
        if self.num_classes < 1 or self.input_size < self.q:
            raise ConfigError("need num_classes >= 1 and input_size >= q")


class ConvBN(NamedTuple):
    """One conv -> batch-norm pair: its parameters are `{conv}.weight`,
    `{bn}.gamma` and `{bn}.beta`, its batch-norm state `{bn}`."""
    conv: str
    bn: str
    cin: int
    cout: int
    kernel: int = 1
    stride: int = 1
    pad: int = 0


@functools.lru_cache(maxsize=32)
def layer_table(config: BagNetConfig) -> tuple[ConvBN, tuple[tuple, ...]]:
    """The network, written down once: (stem, blocks), each block being
    (conv1, conv2, conv3, shortcut or None). `build_model` creates the
    parameters in this order, `forward_features` applies it and
    `rf_geometry` composes its main path. Built once per (frozen) config."""
    k, s, p, c = config.stem
    blocks = []
    for i, b in enumerate(config.blocks):
        n, cin, mid, cout = f"block{i}", b.in_channels, b.mid_channels, b.out_channels
        blocks.append((ConvBN(f"{n}.conv1", f"{n}.bn1", cin, mid),
                       ConvBN(f"{n}.conv2", f"{n}.bn2", mid, mid, b.kernel, b.stride),
                       ConvBN(f"{n}.conv3", f"{n}.bn3", mid, cout),
                       ConvBN(f"{n}.shortcut", f"{n}.bn_sc", cin, cout, stride=b.stride)
                       if b.needs_shortcut_conv else None))
    return ConvBN("stem.conv", "stem.bn", 3, c, k, s, p), tuple(blocks)


def rf_geometry(config: BagNetConfig) -> tuple[int, int, int]:
    """(rf, jump, offset): location (i, j) of the top feature map reads the
    pixel window with top-left corner (offset + i*jump, offset + j*jump).
    Offset is negative when the stem pads. Composition recurrence over the
    main path: rf += (k-1)*jump; jump *= stride."""
    stem, blocks = layer_table(config)
    rf, jump, offset = 1, 1, 0
    for layer in (stem, *(conv for block in blocks for conv in block[:3])):
        offset -= layer.pad * jump
        rf += (layer.kernel - 1) * jump
        jump *= layer.stride
    return rf, jump, offset


# ---------------------------------------------------------------------------
# shipped configurations

def _blocks(stem_channels: int, mids: tuple[int, ...], kernels: tuple[int, ...],
            strides: tuple[int, ...], repeats: tuple[int, ...]) -> tuple[BlockSpec, ...]:
    blocks = []
    prev = stem_channels
    for mid, k, s, reps in zip(mids, kernels, strides, repeats):
        out = 4 * mid
        blocks.append(BlockSpec(prev, mid, out, k, s))
        prev = out
        for _ in range(reps - 1):
            blocks.append(BlockSpec(prev, mid, out, 1, 1))
    return tuple(blocks)


def bagnet5_32(num_classes: int = 4) -> BagNetConfig:
    """q=5 on 32 px inputs; heatmap stride 4."""
    return BagNetConfig(
        q=5, stem=(3, 1, 1, 16),
        blocks=_blocks(16, (8, 16, 32), (3, 1, 1), (2, 2, 1), (1, 1, 1)),
        num_classes=num_classes, input_size=32, feature_dim=128, name="bagnet5_32")


def bagnet9_32(num_classes: int = 4) -> BagNetConfig:
    """q=9 on 32 px inputs; heatmap stride 4. Stage 1 has a second
    (identity) block."""
    return BagNetConfig(
        q=9, stem=(3, 1, 1, 16),
        blocks=_blocks(16, (8, 16, 32), (3, 3, 1), (2, 2, 1), (2, 1, 1)),
        num_classes=num_classes, input_size=32, feature_dim=128, name="bagnet9_32")


def bagnet17_64(num_classes: int = 4) -> BagNetConfig:
    """q=17 on 64 px inputs; heatmap stride 8."""
    return BagNetConfig(
        q=17, stem=(3, 1, 1, 16),
        blocks=_blocks(16, (8, 16, 32), (3, 3, 3), (2, 2, 2), (1, 1, 1)),
        num_classes=num_classes, input_size=64, feature_dim=128, name="bagnet17_64")


def bagnet3_33(num_classes: int = 4) -> BagNetConfig:
    """q=3 on 33 px inputs with stride 3 and no padding: evidence locations
    tile the image exactly (the config used for block-scrambling runs)."""
    return BagNetConfig(
        q=3, stem=(3, 3, 0, 16),
        blocks=_blocks(16, (8, 16, 32), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
        num_classes=num_classes, input_size=33, feature_dim=128, name="bagnet3_33")


def paper_scale(q: int, num_classes: int = 1000) -> BagNetConfig:
    """Full-scale variants for q in {9, 17, 33}: four stages of 3/4/6/3
    bottlenecks, feature_dim 2048, 224 px inputs. The stem merges the
    reference 1x1 + 3x3 pair into one 3x3 conv (same receptive field)."""
    kernels = {9: (3, 3, 1, 1), 17: (3, 3, 3, 1), 33: (3, 3, 3, 3)}
    if q not in kernels:
        raise ConfigError(f"paper-scale q must be one of {sorted(kernels)}")
    return BagNetConfig(
        q=q, stem=(3, 1, 0, 64),
        blocks=_blocks(64, (64, 128, 256, 512), kernels[q], (2, 2, 2, 1), (3, 4, 6, 3)),
        num_classes=num_classes, input_size=224, feature_dim=2048,
        name=f"bagnet{q}_paper")


SHIPPED_CONFIGS = {
    "bagnet5_32": bagnet5_32,
    "bagnet9_32": bagnet9_32,
    "bagnet17_64": bagnet17_64,
    "bagnet3_33": bagnet3_33,
}


# ---------------------------------------------------------------------------
# model state

class ModelState:
    """Parameters + batch-norm states for one config, plus the input
    normalization constants the model was trained with."""

    def __init__(self, config: BagNetConfig):
        self.config = config
        self.params: dict[str, Parameter] = {}
        self.bn: dict[str, BatchNormState] = {}
        self.mode = "eval"
        self.norm_mean = np.zeros(3, dtype=np.float32)
        self.norm_std = np.ones(3, dtype=np.float32)
        # conv name -> (the five arrays its eval fold was built from, Fold)
        self.folds: dict[str, tuple[tuple[np.ndarray, ...], Fold]] = {}

    def train_mode(self):
        self.mode = "train"
        return self

    def eval_mode(self):
        self.mode = "eval"
        return self

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def model_shapes(config: BagNetConfig) -> tuple[dict[str, tuple[int, ...]], dict[str, int]]:
    """(parameter name -> shape, batch-norm name -> channels) of a model of
    `config`, in build order. Fails fast if the config's computed receptive
    field differs from its declared q."""
    rf, _, _ = rf_geometry(config)
    if rf != config.q:
        raise ConfigError(f"declared q={config.q} but computed receptive field is {rf}")
    stem, blocks = layer_table(config)
    params: dict[str, tuple[int, ...]] = {}
    channels: dict[str, int] = {}
    for layer in (stem, *(conv for block in blocks for conv in block if conv)):
        k, c = layer.kernel, layer.cout
        params[f"{layer.conv}.weight"] = (c, layer.cin, k, k)
        params[f"{layer.bn}.gamma"] = params[f"{layer.bn}.beta"] = (c,)
        channels[layer.bn] = c
    params["classifier.weight"] = (config.num_classes, config.feature_dim)
    params["classifier.bias"] = (config.num_classes,)
    return params, channels


def build_model(config: BagNetConfig, seed: int) -> ModelState:
    """Instantiate parameters for `config` deterministically from `seed`:
    fan-in normal weights, gamma 1, beta and bias 0. Fails fast, as
    `model_shapes` does, if the computed receptive field is not q."""
    shapes, channels = model_shapes(config)
    model = ModelState(config)
    model.bn = {name: BatchNormState(c) for name, c in channels.items()}
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB46)))

    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.endswith(".weight"):
            return fanin_normal(rng, shape, math.prod(shape[1:]))
        return (np.ones if name.endswith(".gamma") else np.zeros)(shape, dtype=np.float32)

    model.params = {name: Parameter(name, Tensor(init(name, shape)))
                    for name, shape in shapes.items()}
    return model


# ---------------------------------------------------------------------------
# forward passes

_fold_lock = threading.Lock()


def _eval_fold(model: ModelState, layer: ConvBN, weight: Tensor, gamma: Tensor,
               beta: Tensor, state: BatchNormState) -> Fold:
    """The layer's eval-mode fold, built once per version of its five source
    arrays. Every writer replaces these arrays rather than writing into
    them, so identity tells versions apart; they are made read-only when a
    fold is built from them, so an in-place write raises ValueError instead
    of leaving the fold stale. Passes that run at once look up and build
    folds under one lock, so each is built once."""
    sources = (weight.data, gamma.data, beta.data, state.running_mean, state.running_var)
    with _fold_lock:
        cached = model.folds.get(layer.conv)
        if cached is not None and all(a is b for a, b in zip(cached[0], sources)):
            return cached[1]
        for arr in sources:
            arr.flags.writeable = False
        fold = fold_affine(weight.data, *state.eval_affine(gamma.data, beta.data))
        model.folds[layer.conv] = (sources, fold)
        return fold


def _conv_bn(model: ModelState, layer: ConvBN, x: Tensor) -> Tensor:
    """Conv then batch norm of one table entry. In eval mode, when none of
    the three parameters takes a gradient, the batch norm is folded into
    the conv (one op, one finiteness check); a NumericalError names the
    layer, e.g. "block1.conv2/bn2: ..."."""
    weight = model.params[f"{layer.conv}.weight"].value
    gamma = model.params[f"{layer.bn}.gamma"].value
    beta = model.params[f"{layer.bn}.beta"].value
    state = model.bn[layer.bn]
    try:
        if model.mode == "eval" and not (weight.requires_grad or gamma.requires_grad
                                         or beta.requires_grad):
            fold = _eval_fold(model, layer, weight, gamma, beta, state)
            return conv2d(x, weight, layer.stride, layer.pad, fold=fold)
        h = conv2d(x, weight, stride=layer.stride, zero_pad=layer.pad)
        return batch_norm(h, gamma, beta, state, model.mode == "train")
    except NumericalError as err:
        raise NumericalError(f"{layer.conv}/{layer.bn.rpartition('.')[2]}: {err}") from err


def forward_features(model: ModelState, x: Tensor, stem_pad: Optional[int] = None) -> Tensor:
    """Feature extractor: [N,3,H,W] -> [N,feature_dim,Hm,Wm].

    `stem_pad` overrides the configured stem padding (the patch oracle
    passes 0 after padding crops itself). Images smaller than q x q are
    refused here, so every pass (training, evaluation, evidence, the
    oracle, gradients) shares the one check.
    """
    q = model.config.q
    if min(x.shape[2:]) < q:
        raise ConfigError(f"{x.shape[2]}x{x.shape[3]} images are smaller than "
                          f"the patch size q={q}")
    stem, blocks = layer_table(model.config)
    if stem_pad is not None:
        stem = stem._replace(pad=stem_pad)
    h = relu(_conv_bn(model, stem, x))
    for conv1, conv2, conv3, shortcut in blocks:
        main = relu(_conv_bn(model, conv1, h))
        main = relu(_conv_bn(model, conv2, main))
        main = _conv_bn(model, conv3, main)
        short = h if shortcut is None else _conv_bn(model, shortcut, h)
        # pad-0 3x3 middle convs shrink the main path; align the shortcut
        # to the top-left window anchor
        short = crop2d(short, main.shape[2], main.shape[3])
        # main goes first: the add, its one reader, writes the sum over it
        h = relu(add(main, short))
    return h


def forward_logits(model: ModelState, x: Tensor) -> Tensor:
    """Aggregate then classify: spatial mean of features, then the linear
    classifier. Returns [N, num_classes] logits (autodiff path)."""
    pooled = spatial_mean(forward_features(model, x))
    return linear(pooled, model.params["classifier.weight"].value,
                  model.params["classifier.bias"].value)


@contextlib.contextmanager
def frozen_params(model: ModelState):
    """Stop gradient flow into the parameters, so passes keep no backward
    graph; restores the flags it found, so uses nest."""
    saved = [(p.value, p.value.requires_grad) for p in model.params.values()]
    for value, _ in saved:
        value.requires_grad = False
    try:
        yield
    finally:
        for value, flag in saved:
            value.requires_grad = flag


# network passes that run at once, on a pool of as many threads (started by
# the first batch of more than one pass): numpy's ufuncs, copies and BLAS
# release the GIL while they work, so the passes of one batch use as many
# cores
PASSES_IN_FLIGHT = 2
_pass_pool = ThreadPoolExecutor(PASSES_IN_FLIGHT, thread_name_prefix="bagnet-pass")

# bytes that the largest tensors of all passes in flight may take together:
# each logit or evidence pass of run_passes (forward_evidence's, batch_logits'
# and row_logits') holds its share of this many bytes of its largest
# per-image im2col matrix or activation, so passes stay in cache and memory
# is bounded whatever the number of rows. Input-gradient passes
# (input_gradients) take as many rows, but each keeps its whole backward
# graph, about 0.54 MiB per bagnet9_32 row at 32 px (tracemalloc peak of an
# 18-row pass): far above this budget, yet still bounded whatever the number
# of rows
PASS_BYTES = 4 << 20


@functools.lru_cache(maxsize=32)
def pass_images(config: BagNetConfig, h: int, w: int) -> int:
    """Images per network pass over h x w float32 images: PASS_BYTES shared
    by the PASSES_IN_FLIGHT passes, over the largest per-image im2col matrix
    or activation of `layer_table`, and at least 1. The im2col of a 1x1
    stride-1 unpadded conv is a view of its input, so it takes no memory of
    its own."""
    stem, blocks = layer_table(config)
    largest = 3 * h * w

    def conv(layer: ConvBN, hw: tuple[int, int]) -> tuple[int, int]:
        nonlocal largest
        ho, wo = ((n + 2 * layer.pad - layer.kernel) // layer.stride + 1 for n in hw)
        view = (layer.kernel, layer.stride, layer.pad) == (1, 1, 0)
        rows = 0 if view else layer.cin * layer.kernel ** 2
        largest = max(largest, max(rows, layer.cout) * ho * wo)
        return ho, wo

    hw = conv(stem, (h, w))
    for conv1, conv2, conv3, shortcut in blocks:
        if shortcut is not None:
            conv(shortcut, hw)
        hw = conv(conv3, conv(conv2, conv(conv1, hw)))
    return max(1, PASS_BYTES // (PASSES_IN_FLIGHT * np.dtype(np.float32).itemsize * largest))


def run_passes(model: ModelState, n: int, hw: tuple[int, int], fn) -> np.ndarray:
    """Concatenated fn(rows) over the passes of n rows of h x w images, under
    `frozen_params`: slices of `pass_images` rows (one empty slice for n = 0),
    for fn to build and run. The one pass loop and eval-mode check, called
    only in this module: by `_chunked` (forward_evidence, batch_logits,
    input_gradients, patch_oracle_evidence) and `row_logits`. One pass runs
    in the calling thread; more run PASSES_IN_FLIGHT at a time on the pass
    pool. Returns or raises when every pass it started has ended, with the
    first error in pass order. fn must not call run_passes: its passes would
    queue behind the pool threads."""
    if model.mode != "eval":
        raise ConfigError("network passes require eval mode")
    step = pass_images(model.config, *hw)
    passes = [slice(start, min(start + step, n)) for start in range(0, max(n, 1), step)]
    with frozen_params(model):
        if len(passes) == 1:
            return fn(passes[0])
        futures = [_pass_pool.submit(fn, rows) for rows in passes]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()      # only passes not yet started: a failed batch stops
        wait(futures)
    return np.concatenate([future.result() for future in futures])


def model_inputs(model: ModelState, images) -> np.ndarray:
    """The network inputs of images: stored uint8 pixels are normalized with
    the model's `norm_mean` and `norm_std`; anything else already is network
    input and comes back as float32, with no copy when it is float32."""
    arr = np.asarray(images)
    if arr.dtype == np.uint8:
        arr = normalize_images(arr, model.norm_mean, model.norm_std)
    return arr.astype(np.float32, copy=False)


def _chunked(model: ModelState, images, fn) -> np.ndarray:
    """Concatenated fn(x, rows) over the network passes of an [N,3,H,W]
    batch of stored pixels or network inputs: x is the `model_inputs` of
    the pass's row slice `rows`, so only the passes in flight hold them."""
    arr = np.asarray(images)
    if arr.ndim != 4 or arr.shape[1] != 3:
        raise ConfigError(f"expected an [N,3,H,W] batch, got shape {arr.shape}")
    return run_passes(model, len(arr), arr.shape[2:],
                      lambda rows: fn(model_inputs(model, arr[rows]), rows))


def batch_logits(model: ModelState, images) -> np.ndarray:
    """Image-level logits of a batch: [N,3,H,W] -> [N,K]."""
    return _chunked(model, images, lambda x, _: forward_logits(model, Tensor(x)).data)


def row_logits(model: ModelState, n: int, hw: tuple[int, int], build) -> np.ndarray:
    """Image-level logits of n rows of h x w images -> [n, K], where
    build(rows) makes the images (pixels or network inputs) of a row slice
    inside its pass, so only the passes in flight hold built rows."""
    return run_passes(model, n, hw, lambda rows: forward_logits(
        model, Tensor(model_inputs(model, build(rows)))).data)


def input_gradients(model: ModelState, images, classes) -> np.ndarray:
    """d(class logit of each row) / d(network input) of [N,3,H,W] images,
    with one class per row or one for all rows; a class outside 0..K-1 is
    refused before any pass. Each pass keeps its own backward graph;
    eval-mode BN keeps rows independent, so row k is image k's gradient
    whatever pass holds it."""
    k = model.config.num_classes
    classes = np.broadcast_to(classes, len(images))
    bad = classes[(classes < 0) | (classes >= k)]
    if bad.size:
        raise ConfigError(f"class {bad[0]} is out of range: the model has {k} classes")

    def gradient(x: np.ndarray, rows: slice) -> np.ndarray:
        x = Tensor(x, requires_grad=True)
        logits = forward_logits(model, x)
        w = np.zeros(logits.shape, dtype=np.float64)
        w[np.arange(len(w)), classes[rows]] = 1.0
        weighted_sum(logits, w).backward()
        return x.grad

    return _chunked(model, images, gradient)


@dataclass
class EvidenceMap:
    """Per-location, per-class logits plus the pixel geometry of each
    location's q x q window."""
    logits: np.ndarray        # [..., num_classes, Hm, Wm] float32
    stride: int
    rf_size: int
    offset: int               # top-left of location (0, 0), negative if padded
    input_hw: tuple[int, int]

    def interior_mask(self) -> np.ndarray:
        """[Hm, Wm] bool: True where the location's window lies inside the image."""
        hm, wm = self.logits.shape[-2:]
        top = self.offset + np.arange(max(hm, wm)) * self.stride   # one axis at a time
        rows = (top[:hm] >= 0) & (top[:hm] + self.rf_size <= self.input_hw[0])
        cols = (top[:wm] >= 0) & (top[:wm] + self.rf_size <= self.input_hw[1])
        return rows[:, None] & cols[None, :]


def _single_image(model: ModelState, image) -> np.ndarray:
    arr = np.asarray(image.data if isinstance(image, Tensor) else image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ConfigError(f"expected a [3,H,W] image, got {arr.shape}")
    return model_inputs(model, arr)


def forward_evidence(model: ModelState, images) -> EvidenceMap:
    """Class evidence at every location (no softmax) of one [3,H,W] image
    or an [N,3,H,W] batch, stored pixels or network inputs: logits
    [..., K, Hm, Wm] float32, accumulated in float64."""
    arr = np.asarray(images)
    if arr.ndim not in (3, 4) or arr.shape[-3] != 3:
        raise ConfigError(f"expected a [3,H,W] image or an [N,3,H,W] batch, got shape {arr.shape}")
    w64 = model.params["classifier.weight"].value.data.astype(np.float64)
    b64 = model.params["classifier.bias"].value.data.astype(np.float64)

    def classify(x: np.ndarray, _) -> np.ndarray:
        feats = forward_features(model, Tensor(x)).data.astype(np.float64)
        logits = np.einsum("nfhw,kf->nkhw", feats, w64) + b64[None, :, None, None]
        return logits.astype(np.float32)

    logits = _chunked(model, arr.reshape(-1, *arr.shape[-3:]), classify)
    rf, jump, offset = rf_geometry(model.config)
    return EvidenceMap(logits.reshape(*arr.shape[:-3], *logits.shape[1:]), jump, rf, offset,
                       arr.shape[-2:])


def image_logits(evidence: EvidenceMap) -> np.ndarray:
    """Per-class spatial mean of the evidence map: [..., K]."""
    return evidence.logits.astype(np.float64).mean(axis=(-2, -1)).astype(np.float32)


def aggregate_then_classify(model: ModelState, image) -> np.ndarray:
    """Spatially average features first, then classify. Must match
    image_logits(forward_evidence(...)) - the two linear steps commute."""
    return batch_logits(model, _single_image(model, image)[None])[0]


def patch_oracle_evidence(model: ModelState, image) -> EvidenceMap:
    """Evidence computed the slow, literal way: crop every q x q window
    (zero-filled where stem padding reaches past the border), run the
    extractor with no padding on each crop independently, classify."""
    arr = _single_image(model, image)
    q = model.config.q
    rf, jump, offset = rf_geometry(model.config)
    pad = -offset
    padded = np.pad(arr, ((0, 0), (pad, pad), (pad, pad))) if pad else arr
    h, w = arr.shape[1], arr.shape[2]
    hm = (h + 2 * pad - q) // jump + 1
    wm = (w + 2 * pad - q) // jump + 1
    crops = np.empty((hm * wm, 3, q, q), dtype=np.float32)
    for i in range(hm):
        for j in range(wm):
            top, left = i * jump, j * jump
            crops[i * wm + j] = padded[:, top:top + q, left:left + q]
    feats = _chunked(model, crops, lambda x, _: forward_features(model, Tensor(x), stem_pad=0).data)
    if feats.shape[2] != 1 or feats.shape[3] != 1:
        raise ConfigError("patch crops did not reduce to a single location")
    w64 = model.params["classifier.weight"].value.data.astype(np.float64)
    b64 = model.params["classifier.bias"].value.data.astype(np.float64)
    logits = feats[:, :, 0, 0].astype(np.float64) @ w64.T + b64[None, :]
    logits = logits.T.reshape(model.config.num_classes, hm, wm)
    return EvidenceMap(logits.astype(np.float32), jump, rf, offset, (h, w))


# ---------------------------------------------------------------------------
# receptive-field certification

@dataclass
class RfCertificate:
    passed: bool
    max_leakage: float
    leak_offset: Optional[tuple[int, int]]  # pixel offset relative to the window top-left
    center_response: float
    trials: int

    def __str__(self) -> str:
        if self.passed:
            return (f"certified: leakage {self.max_leakage:.2e} over {self.trials} trials, "
                    f"center response {self.center_response:.2e}")
        return (f"FAILED: leakage {self.max_leakage:.2e} at pixel offset {self.leak_offset} "
                f"relative to the declared window")


# random outside pixels perturbed per certification trial, and the largest
# logit change at the certified location that still counts as no leak
PROBES_PER_TRIAL = 24
LEAK_TOL = 1e-6


def certify_receptive_field(model: ModelState, location: tuple[int, int],
                            trials: int = 8, seed: int = 0) -> RfCertificate:
    """Empirically check that the evidence at `location` ignores every pixel
    outside its declared q x q window and reacts to the window center.

    Perturbs random outside pixels of random images; any logit change above
    LEAK_TOL fails the certificate and names the offending pixel offset.
    """
    cfg = model.config
    size = cfg.input_size
    _, jump, offset = rf_geometry(cfg)
    q = cfg.q
    i, j = location
    top, left = offset + i * jump, offset + j * jump
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCE27)))

    inside = np.zeros((size, size), dtype=bool)
    inside[max(top, 0):top + q, max(left, 0):left + q] = True    # slices stop at the border
    outside = np.argwhere(~inside)
    if len(outside) == 0:
        raise ConfigError("no pixels outside the declared window to probe")
    ring = [(r, c) for r in range(top - 1, top + q + 1) for c in range(left - 1, left + q + 1)
            if 0 <= r < size and 0 <= c < size and not inside[r, c]]

    max_leak = 0.0
    leak_at: Optional[tuple[int, int]] = None
    center_response = 0.0
    cr, cc = top + q // 2, left + q // 2
    for trial in range(trials):
        # one network pass per trial: the image, its probes, then the centre
        img = rng.standard_normal((3, size, size)).astype(np.float32)
        picks = [tuple(p) for p in outside[rng.integers(0, len(outside), size=PROBES_PER_TRIAL)]]
        if trial == 0:
            # always sweep the one-pixel ring just outside the declared
            # window: the tightest place for leakage to show up
            picks = ring + picks
        batch = np.repeat(img[None], len(picks) + 2, axis=0)
        for n, (pr, pc) in enumerate(picks, start=1):
            batch[n, :, pr, pc] += rng.standard_normal(3).astype(np.float32) * 3.0
        if 0 <= cr < size and 0 <= cc < size:
            batch[-1, :, cr, cc] += 3.0
        logits = forward_evidence(model, batch).logits[:, :, i, j].astype(np.float64)
        deltas = np.max(np.abs(logits[1:] - logits[0]), axis=1)
        leaks = deltas[:-1]
        if leaks.size and leaks.max() > max_leak:
            first = int(np.argmax(leaks))          # the first strict maximum
            max_leak = float(leaks[first])
            leak_at = (int(picks[first][0] - top), int(picks[first][1] - left))
        center_response = max(center_response, float(deltas[-1]))   # 0 without a centre
    passed = max_leak <= LEAK_TOL and center_response > 0.0
    return RfCertificate(passed, max_leak, None if max_leak <= LEAK_TOL else leak_at,
                         center_response, trials)


def with_declared_q(model: ModelState, q: int) -> ModelState:
    """Same weights under a config that *claims* patch size q (bypasses the
    build-time check; used for negative certification tests). The shallow
    copy shares the parameters, and so the eval folds built from them."""
    fake = copy.copy(model)
    fake.config = replace(model.config, q=q, name=model.config.name + f"_claims{q}")
    return fake
