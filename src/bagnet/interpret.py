"""Analysis suite built on the evidence maps: heatmap export, top-patch
mining, the joint-vs-summed masking additivity experiment, attribution
baselines (saliency, integrated gradients), masking-sensitivity curves,
error-distribution and logit correlation, logit thresholding and exact
block scrambling.

All analyses are pure functions of (model, dataset, seed): reruns
produce byte-identical CSV/PPM artifacts. Correlations are computed in
float64 with two-pass mean subtraction; zero-variance inputs yield an
explicit degenerate outcome, never a silent 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Tensor, softmax, weighted_sum
from .data import Dataset, STREAM_ANALYSIS, csv_text, normalize_images, seed_stream
from .model import (
    EvidenceMap,
    ModelState,
    batch_logits,
    evidence_batch,
    forward_evidence,
    forward_logits,
    frozen_params,
    pass_images,
    rf_geometry,
)
from .train import check_topk, topk_hits


class PreconditionError(ValueError):
    """An analysis was asked to run outside its validity conditions."""


# ---------------------------------------------------------------------------
# shared plumbing

def pearson(x, y) -> Optional[float]:
    """Pearson correlation in float64; None when either side is degenerate
    (zero variance)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise PreconditionError("pearson needs two equal-length vectors of size >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(np.dot(xc, xc))
    vy = float(np.dot(yc, yc))
    if vx == 0.0 or vy == 0.0:
        return None
    return float(np.dot(xc, yc) / np.sqrt(vx * vy))


def check_class(model: ModelState, cls: int) -> None:
    k = model.config.num_classes
    if not 0 <= cls < k:
        raise PreconditionError(f"class {cls} is out of range: the model has {k} classes")


def analysed_count(dataset: Dataset, limit: Optional[int]) -> int:
    """Images an analysis reads: the first `limit`, or all when None."""
    n = dataset.count if limit is None else min(limit, dataset.count)
    if n < 1:
        raise PreconditionError(f"limit {limit} selects none of the {dataset.count} images")
    return n


def norm_images(model: ModelState, dataset: Dataset, indices) -> np.ndarray:
    return normalize_images(dataset.images[indices], model.norm_mean, model.norm_std)


# ---------------------------------------------------------------------------
# masking

@dataclass(frozen=True)
class MaskSpec:
    """Spatially separated patch modifications: every second p x p cell in
    every second row of the p-grid that starts at `phase`, each replaced by
    its own per-channel spatial mean (the "dc" fill)."""
    p: int
    phase: tuple[int, int] = (0, 0)


@dataclass
class PatchDelta:
    top: int
    left: int
    delta: np.ndarray  # [3, p, p]


def grid_cells(h: int, w: int, p: int, phase: tuple[int, int]) -> tuple[int, int]:
    r0, c0 = phase
    if p < 1:
        raise PreconditionError(f"cell size p={p} must be at least 1")
    if not (0 <= r0 < p and 0 <= c0 < p):
        raise PreconditionError("phase must lie inside one cell")
    if (h - r0) % p or (w - c0) % p:
        raise PreconditionError(f"{p}-cell grid with phase {phase} does not tile {h}x{w}")
    return (h - r0) // p, (w - c0) // p


def selected_cells(spec: MaskSpec, h: int, w: int) -> list[tuple[int, int]]:
    gh, gw = grid_cells(h, w, spec.p, spec.phase)
    return [(r, c) for r in range(0, gh, 2) for c in range(0, gw, 2)]


def cell_means(images: np.ndarray, p: int) -> np.ndarray:
    """The "dc" fill of every p x p cell of [N,C,gh*p,gw*p] images: its
    per-channel mean, taken in float64 and rounded to float32 -> [N,C,gh,gw]."""
    n, ch, h, w = images.shape
    gh, gw = h // p, w // p
    cells = images.reshape(n, ch, gh, p, gw, p).transpose(0, 1, 2, 4, 3, 5)
    # each cell's p*p values contiguous, so its sum runs in the order of a lone
    # [C,p,p] patch's mean over its last two axes
    flat = cells.astype(np.float64, order="C").reshape(n, ch, gh, gw, p * p)
    return flat.mean(axis=4).astype(np.float32)


def apply_mask(image: np.ndarray, spec: MaskSpec) -> tuple[np.ndarray, list[PatchDelta]]:
    """Fill the selected p x p patches with their dc means; returns the masked
    image and the per-patch difference tensors (masked - original)."""
    img = np.asarray(image, dtype=np.float32)
    _, h, w = img.shape
    cells = selected_cells(spec, h, w)
    masked = img.copy()
    deltas = []
    p = spec.p
    r0, c0 = spec.phase
    fills = cell_means(img[None, :, r0:, c0:], p)[0]
    for r, c in cells:
        top, left = r0 + r * p, c0 + c * p
        window = np.s_[:, top:top + p, left:left + p]
        masked[window] = fills[:, r, c, None, None]
        deltas.append(PatchDelta(top, left, masked[window] - img[window]))
    return masked, deltas


def add_delta(image: np.ndarray, d: PatchDelta) -> np.ndarray:
    out = image.copy()
    p = d.delta.shape[1]
    out[:, d.top:d.top + p, d.left:d.left + p] += d.delta
    return out


# ---------------------------------------------------------------------------
# joint vs summed masking (additivity of separated modifications)

@dataclass
class InteractionResult:
    image_indices: list[int]
    lhs: np.ndarray
    rhs: np.ndarray
    r: Optional[float]
    degenerate: bool

    def max_relative_gap(self) -> float:
        denom = np.maximum(1.0, np.abs(self.lhs))
        return float(np.max(np.abs(self.lhs - self.rhs) / denom))


def interaction_pairs(logit_fn: Callable[[np.ndarray], np.ndarray],
                      images: np.ndarray, classes: np.ndarray,
                      spec: MaskSpec, per_pass: int) -> tuple[np.ndarray, np.ndarray]:
    """For each image: lhs = l(x) - l(x + sum_i d_i) with all patches masked
    jointly; rhs = sum_i (l(x) - l(x + d_i)) one patch at a time. `logit_fn`
    maps an image batch to [N, K] logits; it is called on the variants of
    whole images, at most `per_pass` rows at a time (the images of one
    network pass) unless one image has more, so memory stays bounded
    whatever the number of images. The tracked class is per image."""
    classes = np.asarray(classes, dtype=np.int64)
    rows = 2 + len(selected_cells(spec, *np.shape(images)[2:]))   # x, joint, then singles
    group = max(1, per_pass // rows)
    tracked = []
    for start in range(0, len(images), group):
        variants = []
        for img in images[start:start + group]:
            masked, deltas = apply_mask(img, spec)
            variants += [img, masked] + [add_delta(img, d) for d in deltas]
        logits = np.asarray(logit_fn(np.stack(variants)), dtype=np.float64)
        per_image = logits.reshape(-1, rows, logits.shape[1])
        cls = classes[start:start + group]
        tracked.append(per_image[np.arange(len(cls)), :, cls])   # [images, rows]
    tracked = np.concatenate(tracked)
    return tracked[:, 0] - tracked[:, 1], np.sum(tracked[:, :1] - tracked[:, 2:], axis=1)


def interaction_experiment(model: ModelState, dataset: Dataset, p: int,
                           limit: Optional[int] = None,
                           class_mode: str = "label") -> InteractionResult:
    n = analysed_count(dataset, limit)
    spec = MaskSpec(p=p)
    # refuse a bad grid, or one with no two cells to add up, before any pass
    cells = len(selected_cells(spec, dataset.size, dataset.size))
    if cells < 2:
        raise PreconditionError(f"p={p} on {dataset.size}x{dataset.size} images selects "
                                f"{cells} alternate cell; the additivity test needs at least 2")
    indices = list(range(n))
    images = norm_images(model, dataset, indices)
    if class_mode == "label":
        classes = dataset.labels[:n].astype(np.int64)
    elif class_mode == "pred":
        classes = np.argmax(batch_logits(model, images), axis=1)
    else:
        raise PreconditionError(f"unknown class_mode {class_mode!r}")
    lhs, rhs = interaction_pairs(lambda b: batch_logits(model, b), images, classes, spec,
                                 pass_images(model.config, dataset.size, dataset.size))
    r = pearson(lhs, rhs)
    return InteractionResult(indices, lhs, rhs, r, r is None)


# ---------------------------------------------------------------------------
# attribution baselines

def _class_gradient(model: ModelState, images: np.ndarray, classes) -> np.ndarray:
    """d(class logit of each row) / d(input) of [N,3,H,W] images, with one
    class per row or one for all rows. Runs in passes of `pass_images` rows,
    each keeping its own backward graph; eval-mode BN keeps rows
    independent, so row k is image k's gradient whatever pass holds it."""
    if model.mode != "eval":
        raise PreconditionError("attribution requires eval mode")
    classes = np.broadcast_to(classes, len(images))
    step = pass_images(model.config, *images.shape[2:])
    grads = []
    with frozen_params(model):
        for start in range(0, len(images), step):
            x = Tensor(images[start:start + step], requires_grad=True)
            logits = forward_logits(model, x)
            w = np.zeros(logits.shape, dtype=np.float64)
            w[np.arange(len(w)), classes[start:start + step]] = 1.0
            weighted_sum(logits, w).backward()
            grads.append(x.grad)
    return np.concatenate(grads)


def saliency(model: ModelState, image: np.ndarray, cls: int) -> np.ndarray:
    """|d logit_cls / d pixel| summed over channels -> [H, W]."""
    g = _class_gradient(model, np.asarray(image, dtype=np.float32)[None], cls)[0]
    return np.abs(g).sum(axis=0)


def integrated_gradients(model: ModelState, image: np.ndarray, cls: int,
                         steps: int = 64) -> np.ndarray:
    """Midpoint Riemann sum of gradients along the straight path from the
    zero image, times the image, channel-summed."""
    if steps < 8:
        raise PreconditionError("integrated gradients needs steps >= 8")
    img = np.asarray(image, dtype=np.float32)
    alphas = (np.arange(steps, dtype=np.float64) + 0.5) / steps
    path = alphas[:, None, None, None].astype(np.float32) * img[None]
    grads = _class_gradient(model, path, cls)
    avg = grads.astype(np.float64).mean(axis=0)
    return (img.astype(np.float64) * avg).sum(axis=0)


# ---------------------------------------------------------------------------
# masking sensitivity

@dataclass
class SensitivityCurve:
    n_masked: list[int]
    mean_prob: np.ndarray            # [len(n_masked)]
    per_image: np.ndarray            # [n_images, len(n_masked)]


def cell_scores_from_evidence(em: EvidenceMap, cls: int, p: int,
                              grid: tuple[int, int]) -> np.ndarray:
    """Score of each p-cell: class evidence of every heatmap location whose
    receptive field intersects the cell, weighted by the overlapped fraction
    of the window.

    A flat (unweighted) intersection sum lets windows that graze a cell by a
    single pixel dump their whole evidence into it, which measurably degrades
    the ranking; overlap weighting keeps the attribution linear and exact in
    the limit of disjoint windows.
    """
    _, hm, wm = em.logits.shape
    q = em.rf_size

    def overlap(m: int, cells: int, size: int) -> np.ndarray:
        # [m, cells] pixels of each cell inside each window, along one axis
        top = em.offset + np.arange(m)[:, None] * em.stride
        lo = np.arange(cells)[None, :] * p
        span = np.minimum(np.minimum(top + q, lo + p), size) - np.maximum(np.maximum(top, lo), 0)
        return np.maximum(span, 0).astype(np.float32)

    oy, ox = overlap(hm, grid[0], em.input_hw[0]), overlap(wm, grid[1], em.input_hw[1])
    value = em.logits[cls] / (q * q)
    # float32 terms, float64 sum in row-major location order: the loop's arithmetic
    terms = value[:, :, None, None] * oy[:, None, :, None] * ox[None, :, None, :]
    return terms.astype(np.float64).reshape(hm * wm, -1).sum(axis=0)


SENSITIVITY_SOURCES = ("bagnet", "saliency", "ig", "random")


def check_sources(sources: Sequence[str]) -> None:
    """Refuse an empty list of ranking sources, or one unknown or named twice."""
    if not sources:
        raise PreconditionError("no ranking source given")
    for i, source in enumerate(sources):
        if source not in SENSITIVITY_SOURCES:
            raise PreconditionError(f"unknown ranking source {source!r}: expected "
                                    f"{', '.join(SENSITIVITY_SOURCES)}")
        if source in sources[:i]:
            raise PreconditionError(f"ranking source {source!r} is named twice")


def masking_sensitivity(model: ModelState, sources: Sequence[str], dataset: Dataset,
                        p: int = 8, n_max: int = 8, seed: int = 0,
                        limit: Optional[int] = None, ig_steps: int = 32,
                        random_draws: int = 4) -> dict[str, SensitivityCurve]:
    """Mask the top-n p x p cells ranked by each source (dc fill) and track
    the model's probability of its original leading class, n = 0..n_max.

    The leading class is fixed at the unmasked prediction; it is not
    re-chosen per n. The random source's per-image trajectory is the mean
    over `random_draws` seeded rankings (an estimate of the expected random
    curve rather than one noisy sample).

    Cell scores are one [images, trajectories, cells] array; saliency's come
    from one `_class_gradient` call over all images. The masked rows of every
    trajectory go to `batch_logits` in passes of `pass_images` rows. Gradient
    passes hold as many rows, each with its graph (measured: about 1.8 MB per
    bagnet9_32 row). The numbers are those of one pass per trajectory.
    """
    check_sources(sources)
    if "random" in sources and random_draws < 1:
        raise PreconditionError(f"random_draws={random_draws}: the random source needs >= 1")
    n_imgs = analysed_count(dataset, limit)
    size = dataset.size
    gh, gw = grid_cells(size, size, p, (0, 0))
    if not 0 <= n_max <= gh * gw:
        raise PreconditionError(f"n_max={n_max} is outside 0..{gh * gw}, the available cells")
    ns = list(range(n_max + 1))
    images = norm_images(model, dataset, np.arange(n_imgs))
    leading = np.argmax(batch_logits(model, images), axis=1)

    scores = []                                     # per source: [images, trajectories, cells]
    for source in sources:
        if source == "bagnet":
            scores.append([[cell_scores_from_evidence(forward_evidence(model, img), c, p, (gh, gw))]
                           for img, c in zip(images, leading)])
        elif source == "random":
            scores.append([seed_stream(seed, STREAM_ANALYSIS, idx).random((random_draws, gh * gw))
                           for idx in range(n_imgs)])
        else:
            maps = (np.abs(_class_gradient(model, images, leading)).sum(axis=1)
                    if source == "saliency" else
                    np.stack([integrated_gradients(model, img, c, steps=ig_steps)
                              for img, c in zip(images, leading)]))
            scores.append(maps.reshape(n_imgs, 1, gh, p, gw, p).sum(axis=(3, 5))
                          .reshape(n_imgs, 1, -1))
    scores = np.concatenate(scores, axis=1)
    ranks = np.argsort(np.argsort(-scores, axis=2, kind="stable"), axis=2)

    fills = cell_means(images, p)[:, :, :, None, :, None]
    shape = (*scores.shape[:2], len(ns))            # a row per image, trajectory and n
    rows = np.arange(np.prod(shape))
    per_pass = pass_images(model.config, size, size)
    logits = []
    for start in range(0, len(rows), per_pass):
        img, traj, n = np.unravel_index(rows[start:start + per_pass], shape)
        masked = (ranks[img, traj] < n[:, None]).reshape(-1, 1, gh, 1, gw, 1)
        pixels = images[img]
        filled = np.where(masked, fills[img], pixels.reshape(-1, 3, gh, p, gw, p))
        logits.append(batch_logits(model, filled.reshape(pixels.shape)))
    logits = np.concatenate(logits).reshape(*shape, -1)
    probs = softmax(logits, axis=3)[np.arange(n_imgs), :, :, leading]   # [images, traj, n]
    counts = [random_draws if source == "random" else 1 for source in sources]
    per_image = [t.mean(axis=1) for t in np.split(probs, np.cumsum(counts)[:-1], axis=1)]
    return {s: SensitivityCurve(ns, m.mean(axis=0), m) for s, m in zip(sources, per_image)}


# ---------------------------------------------------------------------------
# logit thresholding

def threshold_sweep(model: ModelState, dataset: Dataset, thresholds: Sequence[float],
                    mode: str, k: int = 1,
                    limit: Optional[int] = None) -> list[tuple[str, float, int, float]]:
    """Transform every evidence logit before spatial averaging and re-derive
    top-k accuracy. clamp: values below t are raised to t; binarize: below
    t -> 0, not below -> 1; both: the clamp rows, then the binarize rows,
    from one evidence pass."""
    if mode not in ("clamp", "binarize", "both"):
        raise PreconditionError(f"unknown threshold mode {mode!r}")
    check_topk(k, model.config.num_classes)
    if np.isnan(thresholds).any():
        raise PreconditionError(f"threshold nan in {list(thresholds)} is not a number")
    n = analysed_count(dataset, limit)
    ev = evidence_batch(model, norm_images(model, dataset, np.arange(n)))   # [n, K, Hm, Wm]
    labels = dataset.labels[:n].astype(np.int64)
    rows = []
    for m in ("clamp", "binarize") if mode == "both" else (mode,):
        for t in thresholds:
            if m == "clamp":
                transformed = np.maximum(ev, np.float32(t))
            else:
                transformed = (ev >= np.float32(t)).astype(np.float32)
            logits = transformed.astype(np.float64).mean(axis=(2, 3))
            acc = float(topk_hits(logits, labels, k).mean())
            rows.append((m, float(t), k, acc))
    return rows


# ---------------------------------------------------------------------------
# block scrambling

@dataclass
class ScrambleResult:
    clean_accuracy: float
    scrambled_accuracy: float
    max_logit_delta: float
    n_images: int


def scramble_blocks(image: np.ndarray, q: int, perm: np.ndarray) -> np.ndarray:
    """Permute the non-overlapping q x q blocks of [3,H,W] by `perm`."""
    _, h, w = image.shape
    gh, gw = h // q, w // q
    blocks = image.reshape(3, gh, q, gw, q).transpose(1, 3, 0, 2, 4).reshape(gh * gw, 3, q, q)
    blocks = blocks[perm]
    return (blocks.reshape(gh, gw, 3, q, q).transpose(2, 0, 3, 1, 4)
            .reshape(3, gh * q, gw * q))


def scramble_test(model: ModelState, dataset: Dataset, seed: int = 0,
                  limit: Optional[int] = None) -> ScrambleResult:
    """Accuracy and logit drift under random permutation of the q x q input
    blocks. Only valid when evidence locations tile the image exactly."""
    cfg = model.config
    rf, jump, offset = rf_geometry(cfg)
    if jump != cfg.q or offset != 0 or dataset.size % cfg.q != 0:
        raise PreconditionError(
            f"config {cfg.name!r} does not tile the input exactly "
            f"(stride {jump} vs q {cfg.q}, offset {offset}, size {dataset.size}); "
            "block scrambling would not be invariant")
    n = analysed_count(dataset, limit)
    rng = seed_stream(seed, STREAM_ANALYSIS, 0x5C2A)
    n_blocks = (dataset.size // cfg.q) ** 2
    imgs = norm_images(model, dataset, np.arange(n))
    scrambled = np.stack([scramble_blocks(im, cfg.q, rng.permutation(n_blocks)) for im in imgs])
    lc = batch_logits(model, imgs)
    ls = batch_logits(model, scrambled)
    labels = dataset.labels[:n].astype(np.int64)
    return ScrambleResult(float(topk_hits(lc, labels, 1).mean()),
                          float(topk_hits(ls, labels, 1).mean()),
                          float(np.max(np.abs(lc - ls))), n)


# ---------------------------------------------------------------------------
# cross-model comparisons

@dataclass
class ScatterResult:
    per_class_a: np.ndarray
    per_class_b: np.ndarray
    r: Optional[float]
    degenerate: bool


def per_class_scatter(per_class_a: np.ndarray, per_class_b: np.ndarray) -> ScatterResult:
    a = np.asarray(per_class_a, dtype=np.float64)
    b = np.asarray(per_class_b, dtype=np.float64)
    if a.shape != b.shape:
        raise PreconditionError("per-class vectors must have identical length")
    r = pearson(a, b)
    return ScatterResult(a, b, r, r is None)


def logit_correlation(logits_a: np.ndarray, logits_b: np.ndarray) -> Optional[float]:
    """Pearson over all (image, class) logit pairs; None when degenerate."""
    a = np.asarray(logits_a, dtype=np.float64)
    b = np.asarray(logits_b, dtype=np.float64)
    if a.shape != b.shape:
        raise PreconditionError("logit arrays must have identical shape")
    return pearson(a.reshape(-1), b.reshape(-1))


# ---------------------------------------------------------------------------
# heatmaps and top patches

def diverging_rgb(values: np.ndarray) -> np.ndarray:
    """[-1,1] -> blue/white/red, H x W x 3 u8."""
    v = np.clip(values, -1.0, 1.0)
    pos = np.maximum(v, 0.0)
    neg = np.maximum(-v, 0.0)
    r = np.round(255 * (1.0 - neg)).astype(np.uint8)
    g = np.round(255 * (1.0 - np.abs(v))).astype(np.uint8)
    b = np.round(255 * (1.0 - pos)).astype(np.uint8)
    return np.stack([r, g, b], axis=-1)


def write_ppm(path, rgb: np.ndarray) -> None:
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def heatmap_rgb(evidence: EvidenceMap, cls: int) -> np.ndarray:
    """Render one class's evidence at input resolution: each pixel takes the
    value of the location whose receptive-field center is nearest."""
    logits = evidence.logits[cls].astype(np.float64)
    vmax = float(np.max(np.abs(logits)))
    scaled = logits / vmax if vmax > 0 else np.zeros_like(logits)
    h, w = evidence.input_hw
    center0 = evidence.offset + (evidence.rf_size - 1) / 2.0
    hm, wm = logits.shape
    iy = np.clip(np.round((np.arange(h) - center0) / evidence.stride).astype(int), 0, hm - 1)
    ix = np.clip(np.round((np.arange(w) - center0) / evidence.stride).astype(int), 0, wm - 1)
    return diverging_rgb(scaled[iy][:, ix])


def export_heatmap(evidence: EvidenceMap, cls: int, path) -> None:
    """PPM rendering (symmetric color scale about 0) plus a raw-logit CSV
    sidecar at <path>.csv that round-trips the float32 values exactly."""
    write_ppm(path, heatmap_rgb(evidence, cls))
    rows = [(i, j, v) for (i, j), v in np.ndenumerate(evidence.logits[cls])]
    with open(str(path) + ".csv", "w", newline="") as fh:
        fh.write(csv_text(("i", "j", "logit"), rows))


@dataclass
class PatchRecord:
    image_index: int
    location: tuple[int, int]
    top_left: tuple[int, int]
    q: int
    logit: float
    pixels: np.ndarray = field(repr=False)   # u8 [3, q, q], zero-filled past borders


@dataclass
class TopPatches:
    same_label: list[PatchRecord]
    other_label: list[PatchRecord]
    truncated: bool


def _extract_patch(image_u8: np.ndarray, top: int, left: int, q: int) -> np.ndarray:
    _, h, w = image_u8.shape
    out = np.zeros((3, q, q), dtype=np.uint8)
    r0, r1 = max(top, 0), min(top + q, h)
    c0, c1 = max(left, 0), min(left + q, w)
    out[:, r0 - top:r1 - top, c0 - left:c1 - left] = image_u8[:, r0:r1, c0:c1]
    return out


def top_patches(model: ModelState, dataset: Dataset, cls: int, k: int,
                limit: Optional[int] = None) -> TopPatches:
    """The k patches with the highest class-cls evidence among images labeled
    cls, and separately among images with any other label. Ties break on
    (image_index, i, j)."""
    check_class(model, cls)
    if k < 1:
        raise PreconditionError(f"k={k}: top_patches needs k >= 1")
    n = analysed_count(dataset, limit)
    ev = evidence_batch(model, norm_images(model, dataset, np.arange(n)))[:, cls]  # [n, Hm, Wm]
    order = np.argsort(-ev.reshape(-1), kind="stable")   # ties keep (image, i, j) order
    labels = dataset.labels[:n].astype(np.int64)
    same = labels[order // (ev.shape[1] * ev.shape[2])] == cls
    _, jump, offset = rf_geometry(model.config)

    def build(ranked: np.ndarray) -> list[PatchRecord]:
        records = []
        for idx, i, j in np.transpose(np.unravel_index(ranked[:k], ev.shape)).tolist():
            top, left = offset + i * jump, offset + j * jump
            records.append(PatchRecord(
                image_index=idx, location=(i, j), top_left=(top, left), q=model.config.q,
                logit=float(ev[idx, i, j]),
                pixels=_extract_patch(dataset.images[idx], top, left, model.config.q)))
        return records

    truncated = bool(min(same.sum(), (~same).sum()) < k)
    return TopPatches(build(order[same]), build(order[~same]), truncated)
