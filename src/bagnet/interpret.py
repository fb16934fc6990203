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
from .data import Dataset, STREAM_ANALYSIS, normalize_images, seed_stream
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
    """Spatially separated patch modifications on a p-grid.

    pattern "alternate" selects every second cell in every second row;
    an explicit tuple of (row, col) cell indices selects exactly those.
    fill "dc" replaces a patch with its own per-channel spatial mean;
    ("const", v) fills with the constant v.
    """
    p: int
    pattern: object = "alternate"      # "alternate" | tuple[(r, c), ...]
    fill: object = "dc"                # "dc" | ("const", v)
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
    if spec.pattern == "alternate":
        return [(r, c) for r in range(0, gh, 2) for c in range(0, gw, 2)]
    cells = [tuple(rc) for rc in spec.pattern]
    if len(set(cells)) != len(cells):
        raise PreconditionError("explicit mask cells overlap")
    for r, c in cells:
        if not (0 <= r < gh and 0 <= c < gw):
            raise PreconditionError(f"cell {(r, c)} outside the {gh}x{gw} grid")
    return cells


def apply_mask(image: np.ndarray, spec: MaskSpec) -> tuple[np.ndarray, list[PatchDelta]]:
    """Replace the selected p x p patches; returns the masked image and the
    per-patch difference tensors (masked - original)."""
    img = np.asarray(image, dtype=np.float32)
    _, h, w = img.shape
    cells = selected_cells(spec, h, w)
    masked = img.copy()
    deltas = []
    p = spec.p
    for r, c in cells:
        top, left = spec.phase[0] + r * p, spec.phase[1] + c * p
        patch = img[:, top:top + p, left:left + p]
        if spec.fill == "dc":
            fill = patch.astype(np.float64).mean(axis=(1, 2)).astype(np.float32)
            new = np.broadcast_to(fill[:, None, None], patch.shape)
        else:
            kind, value = spec.fill
            if kind != "const":
                raise PreconditionError(f"unknown fill {spec.fill!r}")
            new = np.full_like(patch, np.float32(value))
        masked[:, top:top + p, left:left + p] = new
        deltas.append(PatchDelta(top, left, (new - patch).copy()))
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
    selected_cells(spec, dataset.size, dataset.size)    # refuse a bad grid before any pass
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


def interaction_csv(result: InteractionResult) -> str:
    lines = ["image_index,lhs,rhs"]
    for idx, l, r in zip(result.image_indices, result.lhs, result.rhs):
        lines.append("%d,%.9g,%.9g" % (idx, l, r))
    summary = "degenerate" if result.degenerate else "%.9g" % result.r
    lines.append(f"pearson_r,{summary},")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# attribution baselines

def _class_gradient(model: ModelState, images: np.ndarray, cls: int) -> np.ndarray:
    """d(sum over batch of class-cls image logit) / d(input); eval-mode BN
    keeps samples independent, so row k is the gradient for image k."""
    if model.mode != "eval":
        raise PreconditionError("attribution requires eval mode")
    with frozen_params(model):
        x = Tensor(images, requires_grad=True)
        logits = forward_logits(model, x)
        w = np.zeros(logits.shape, dtype=np.float64)
        w[:, cls] = 1.0
        weighted_sum(logits, w).backward()
    return x.grad.copy()


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
    """
    n_imgs = analysed_count(dataset, limit)
    size = dataset.size
    gh, gw = grid_cells(size, size, p, (0, 0))
    if not 0 <= n_max <= gh * gw:
        raise PreconditionError(f"n_max={n_max} is outside 0..{gh * gw}, the available cells")
    ns = list(range(n_max + 1))
    per_image = {s: np.zeros((n_imgs, len(ns))) for s in sources}

    def trajectory(img, leading, scores):
        order = np.argsort(-scores, kind="stable")
        variants = []
        for n in ns:
            cells = [(int(f) // gw, int(f) % gw) for f in order[:n]]
            masked, _ = apply_mask(img, MaskSpec(p=p, pattern=tuple(cells)))
            variants.append(masked)
        logits = batch_logits(model, np.stack(variants))
        return softmax(logits, axis=1)[:, leading]

    images = norm_images(model, dataset, np.arange(n_imgs))
    leading_classes = np.argmax(batch_logits(model, images), axis=1)
    for idx, (img, leading) in enumerate(zip(images, leading_classes.tolist())):
        for source in sources:
            if source == "bagnet":
                em = forward_evidence(model, img)
                scores = cell_scores_from_evidence(em, leading, p, (gh, gw))
            elif source == "saliency":
                m = saliency(model, img, leading)
                scores = m.reshape(gh, p, gw, p).sum(axis=(1, 3)).reshape(-1)
            elif source == "ig":
                m = integrated_gradients(model, img, leading, steps=ig_steps)
                scores = m.reshape(gh, p, gw, p).sum(axis=(1, 3)).reshape(-1)
            elif source == "random":
                rng = seed_stream(seed, STREAM_ANALYSIS, idx)
                draws = [trajectory(img, leading, rng.random(gh * gw))
                         for _ in range(random_draws)]
                per_image[source][idx] = np.mean(draws, axis=0)
                continue
            else:
                raise PreconditionError(f"unknown ranking source {source!r}")
            per_image[source][idx] = trajectory(img, leading, scores)
    return {s: SensitivityCurve(ns, per_image[s].mean(axis=0), per_image[s])
            for s in sources}


def sensitivity_csv(curves: dict[str, SensitivityCurve]) -> str:
    lines = ["source,n,mean_prob"]
    for source in curves:
        curve = curves[source]
        for n, prob in zip(curve.n_masked, curve.mean_prob):
            lines.append("%s,%d,%.9g" % (source, n, prob))
    return "\n".join(lines) + "\n"


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


def threshold_csv(rows: list[tuple[str, float, int, float]]) -> str:
    lines = ["mode,threshold,topk,accuracy"]
    for mode, t, k, acc in rows:
        lines.append("%s,%.9g,%d,%.9g" % (mode, t, k, acc))
    return "\n".join(lines) + "\n"


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


def scatter_csv(result: ScatterResult) -> str:
    lines = ["class,acc_a,acc_b"]
    for c, (a, b) in enumerate(zip(result.per_class_a, result.per_class_b)):
        lines.append("%d,%.9g,%.9g" % (c, a, b))
    return "\n".join(lines) + "\n"


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


def heatmap_csv(evidence: EvidenceMap, cls: int) -> str:
    lines = ["i,j,logit"]
    _, hm, wm = evidence.logits.shape
    for i in range(hm):
        for j in range(wm):
            lines.append("%d,%d,%.9g" % (i, j, evidence.logits[cls, i, j]))
    return "\n".join(lines) + "\n"


def export_heatmap(evidence: EvidenceMap, cls: int, path) -> None:
    """PPM rendering (symmetric color scale about 0) plus a raw-logit CSV
    sidecar at <path>.csv that round-trips the float32 values exactly."""
    write_ppm(path, heatmap_rgb(evidence, cls))
    with open(str(path) + ".csv", "w", newline="") as fh:
        fh.write(heatmap_csv(evidence, cls))


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
