"""Dense tensors with reverse-mode automatic differentiation.

The op set is exactly what a receptive-field-limited convolutional
classifier needs: conv2d (1x1 / 3x3 kernels), batch norm, relu,
residual add, spatial crop and mean, a linear layer and softmax
cross-entropy, plus `weighted_sum`, the scalar that attribution
gradients and the finite-difference checks differentiate.

Precision policy. Tensors store float32; float64 leaves are supported
for verification runs and keep every op in float64 end to end (the
float64 gradient checks of criterion 6). In float32, elementwise math
and the three conv GEMMs (forward, input gradient, per-image weight
gradient) run in float32, with no float64 copies of the operands.
float64 is kept only for these reductions, each named with the gate it
protects:

- batch-norm per-channel mean and variance (two-pass: the squared
  float32 deviations are summed), and the backward sums `sum(g)` and
  `sum(g * xhat)`: a float32 sum over N*H*W values loses the digits of
  a channel with a large offset; criterion 6 (float32 gradient checks)
  and the offset-channel precision test in tests/test_autodiff.py;
- the running-stat update ([C] values): eval-mode batch norm, which
  every analysis criterion (1-5, 8-10) reads, stays one float32
  rounding away from the batch statistics;
- the conv weight-gradient sum over the batch: criterion 6 (the
  float32 gradient check of every parameter of an end-to-end net);
- `spatial_mean`: the image logit is the mean of the location logits;
  criterion 1 (oracle gap <= 1e-4), criterion 2 (linearity interchange
  <= 1e-4) and criterion 5 (scramble delta < 1e-5, which needs the mean
  to be insensitive to location order);
- `linear` and softmax / cross-entropy: criterion 6 (loss gradients)
  and criterion 10 (IG completeness compares summed attributions with
  a logit difference);
- `weighted_sum`: criterion 6 (every finite-difference check reduces
  through it);
- the evidence einsum in `model.evidence_batch`: criteria 1 and 2.

Per-channel constants (inverse std, eval-mode scale and shift) are
formed in float64; the normalized input of train-mode batch norm is
rounded to float32 once, from its float32 deviation times the float64
inverse std. In eval mode batch norm is the per-channel affine map
x * scale + shift (`BatchNormState.eval_affine`).

Eval-mode fold. A conv followed by eval-mode batch norm is one affine
map. `fold_affine` is its one builder, from the float64
per-output-channel `scale` and `shift` of `eval_affine`: `scale`
multiplies the [Cout, Cin*k*k] GEMM matrix (in float64, rounded to the
storage dtype once), and `conv2d(fold=)` adds `shift` in place to the
GEMM output. A folded weight takes no gradient, so `conv2d` refuses a
fold whose weight requires one. The model uses the fold only for
passes whose conv weight, gamma and beta take no gradient; training
and eval passes that differentiate the parameters run conv2d ->
batch_norm. It builds each conv's fold once per version of its five
source arrays (weight, gamma, beta, running mean and variance), tells
versions apart by array identity, and marks those arrays read-only:
every writer here replaces a parameter's `.data` or a running
statistic, and an in-place write after an eval pass raises ValueError
instead of leaving a stale fold.

An op that produces a non-finite value raises NumericalError instead of
letting NaN/Inf flow downstream. Every op that can overflow or make a
NaN from finite inputs checks its output once: conv2d (after the
shift), add, batch_norm, spatial_mean, linear, the loss,
`weighted_sum` and the optimizer step; leaves are checked when built.
`relu` and `crop2d` do not check: their input is a checked leaf or op
output, and max(x, 0) or a slice of finite data is finite. A single
check at the end of a pass would not do instead, since relu maps -inf
to 0 and a crop drops rows. The checked ops, the backward pass and the
optimizer step run with numpy's overflow / invalid warnings silenced,
so NumericalError is the one report of a non-finite value; `relu` and
`crop2d` raise no floating-point warning on NaN or +-inf, so they run
without that wrapper.

Convolution runs as im2col + matrix multiply. An unpadded 1x1 conv is
a GEMM on its input: the patch matrix is a view of it at stride 1 and
one copy of its strided pixels at stride s > 1. A 3x3 conv copies one
read-only strided window view into the patch matrix (after zero-padding
when asked). The naive six-loop reference convolution and the
loop-gather im2col they are validated against live with the tests, not
here.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided


class DimensionError(ValueError):
    """Operand shapes incompatible with the requested op."""


class NumericalError(ArithmeticError):
    """An op produced NaN/Inf, or training diverged."""


class MissingGradientError(RuntimeError):
    """Optimizer step requested for a parameter without a gradient."""


def _keep_freed_buffers() -> None:
    """Have glibc malloc keep freed op buffers for the next op to reuse.

    By default glibc serves a buffer above its mmap threshold (128 KiB,
    raised as large buffers are freed) with a fresh mapping, unmaps it on
    free, and hands the free top of the heap back once it passes 128 KiB.
    Every pass then faults its im2col and activation buffers in anew: one
    round of the analyses took about 82,000 minor page faults, some 40% of
    its time, and a cost that varies with the state of the host. A fixed
    32 MiB mmap threshold (glibc's ceiling) and a 1 GiB trim threshold keep
    those pages in the process. A C library without mallopt (or a
    platform where ctypes cannot open the running process) is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 1 << 30)


_keep_freed_buffers()

_FLOAT_DTYPES = (np.float32, np.float64)
_node_ids = itertools.count()


# decorator: no numpy floating-point warnings inside; _check_finite reports
_quiet = np.errstate(over="ignore", invalid="ignore")


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A node of the compute graph: contiguous row-major float data.

    Leaves are built directly; op outputs carry the op kind, references
    to their input nodes and a backward closure. `node_id` increases
    with creation order, so creation order is a topological order of
    the graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "node_id", "_backward")

    @_quiet
    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        if dtype not in _FLOAT_DTYPES:
            raise DimensionError(f"unsupported dtype {dtype}")
        arr = np.ascontiguousarray(np.asarray(data, dtype=dtype))
        _check_finite(arr, "leaf")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self.node_id = next(_node_ids)
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, grad={self.requires_grad})"

    @_quiet
    def backward(self) -> None:
        """Populate `grad` on every reachable node with the gradient of this
        scalar; prior gradients on those nodes are overwritten, so repeated
        calls are bitwise identical."""
        if self.data.size != 1:
            raise DimensionError("backward root must be a scalar")
        nodes: dict[int, Tensor] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in nodes or not node.requires_grad:
                continue
            nodes[id(node)] = node
            stack.extend(node.parents)
        order = sorted(nodes.values(), key=lambda n: n.node_id, reverse=True)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError("item() needs a scalar tensor")
        return float(self.data.reshape(()))


def _result(data: np.ndarray, op: str, parents: Sequence[Tensor], backward=None) -> Tensor:
    """The checked output node of an op."""
    _check_finite(data, op)
    return _node(data, op, parents, backward)


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor], backward=None) -> Tensor:
    """The output node of an op whose output is finite whenever its inputs are."""
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data)
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out.op = op
    out.parents = tuple(parents)
    out.node_id = next(_node_ids)
    out._backward = backward if out.requires_grad else None
    return out


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add `g` into `t.grad`. `fresh` promises that no other node holds `g`,
    so a first contribution of the right dtype and layout is kept, not
    copied; any other first contribution is copied, since it may be shared
    with another parent or be a broadcast view."""
    if t.grad is None:
        if fresh and g.dtype == t.data.dtype and g.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def _common_dtype(*tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise DimensionError("mixed float32/float64 operands")
    return dt


# ---------------------------------------------------------------------------
# elementwise ops

@_quiet
def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors; gradients pass to both."""
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch {a.shape} vs {b.shape}")
    _common_dtype(a, b)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _result(a.data + b.data, "add", (a, b), bw)


def relu(x: Tensor) -> Tensor:
    """max(0, x); the gradient is the 0/1 mask of strictly positive inputs."""
    out = np.maximum(x.data, 0)

    def bw(g):
        if x.requires_grad:
            # out > 0 exactly where x > 0
            _accumulate(x, g * (out > 0), fresh=True)

    return _node(out, "relu", (x,), bw)


@_quiet
def weighted_sum(x: Tensor, w: np.ndarray) -> Tensor:
    """Scalar inner product with a constant weight array (f64 accumulation)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != x.shape:
        raise DimensionError(f"weighted_sum shape mismatch {x.shape} vs {w.shape}")

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g * w, fresh=True)

    total = np.asarray(np.sum(x.data.astype(np.float64) * w), dtype=x.data.dtype)
    return _result(total, "weighted_sum", (x,), bw)


def crop2d(x: Tensor, h: int, w: int) -> Tensor:
    """Keep the top-left h x w spatial window of an [N,C,H,W] tensor."""
    if x.data.ndim != 4 or h > x.shape[2] or w > x.shape[3]:
        raise DimensionError(f"cannot crop {x.shape} to {h}x{w}")
    if (h, w) == x.shape[2:]:
        return x

    def bw(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, :, :h, :w] = g
            _accumulate(x, full, fresh=True)

    return _node(x.data[:, :, :h, :w], "crop2d", (x,), bw)


# ---------------------------------------------------------------------------
# convolution

def _per_channel(v: np.ndarray, dt) -> np.ndarray:
    """float64 [C] -> storage-dtype [1,C,1,1], ready to broadcast."""
    return v.astype(dt)[None, :, None, None]


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """[N, C, H, W] -> ([N, C*k*k, Ho*Wo] patch matrix, Ho, Wo), row (c*k+u)*k+v
    holding x_pad[:, c, i*stride+u, j*stride+v] at column i*Wo+j."""
    n, c, hin, win = x.shape
    hout = (hin + 2 * pad - k) // stride + 1
    wout = (win + 2 * pad - k) // stride + 1
    if k == 1 and pad == 0:
        # a 1x1 conv is a GEMM on its (strided) input: a view at stride 1
        if stride > 1:
            x = np.ascontiguousarray(x[:, :, ::stride, ::stride])
        return x.reshape(n, c, hout * wout), hout, wout
    if pad:
        padded = np.zeros((n, c, hin + 2 * pad, win + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:pad + hin, pad:pad + win] = x
        x = padded
    sn, sc, sh, sw = x.strides
    windows = as_strided(x, (n, c, k, k, hout, wout),
                         (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    return np.ascontiguousarray(windows).reshape(n, c * k * k, hout * wout), hout, wout


def _col2im(gcols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    if (k, stride, pad) == (1, 1, 0):
        return gcols.reshape(x_shape)
    n, c, hin, win = x_shape
    hout = (hin + 2 * pad - k) // stride + 1
    wout = (win + 2 * pad - k) // stride + 1
    g = gcols.reshape(n, c, k, k, hout, wout)
    buf = np.zeros((n, c, hin + 2 * pad, win + 2 * pad), dtype=gcols.dtype)
    for ki in range(k):
        for kj in range(k):
            buf[:, :, ki:ki + stride * hout:stride, kj:kj + stride * wout:stride] += g[:, :, ki, kj]
    if pad:
        buf = buf[:, :, pad:-pad, pad:-pad]
    return buf


class Fold(NamedTuple):
    """A per-output-channel affine map folded into a conv: the [Cout, Cin*k*k]
    GEMM matrix with its rows scaled, and the shift ready to add to the
    [N, Cout, Ho, Wo] output (storage dtype [1, Cout, 1, 1])."""
    matrix: np.ndarray
    shift: np.ndarray


@_quiet
def fold_affine(weight: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> Fold:
    """The one builder of folded conv constants: the [Cout, Cin, k, k]
    weight as a GEMM matrix times float64 `scale` per row, rounded to the
    storage dtype once, and float64 `shift` in the storage dtype."""
    cout = weight.shape[0]
    if np.shape(scale) != (cout,) or np.shape(shift) != (cout,):
        raise DimensionError(f"scale and shift need one value per output channel ({cout})")
    dt = weight.dtype
    wm = (weight.reshape(cout, -1).astype(np.float64) * scale[:, None]).astype(dt)
    return Fold(wm, _per_channel(shift, dt))


@_quiet
def conv2d(x: Tensor, weight: Tensor, stride: int = 1, zero_pad: int = 0,
           *, fold: Optional[Fold] = None) -> Tensor:
    """Cross-correlation of [N,Cin,H,W] with [Cout,Cin,k,k], k in {1,3}.
    `fold` (from `fold_affine(weight.data, scale, shift)`, built once by the
    caller) replaces the weight by its folded matrix and adds its shift per
    output channel: the eval-mode batch-norm fold. The folded weight takes
    no gradient, so a fold with a weight that requires one is refused.

    Output height is floor((H + 2*zero_pad - k) / stride) + 1. The GEMMs
    run in the storage dtype; the weight gradient's sum over the batch
    accumulates in float64.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise DimensionError("conv2d expects 4-d input and weight")
    _common_dtype(x, weight)
    n, cin, hin, win = x.shape
    cout, cin_w, k, k2 = weight.shape
    if k != k2 or k not in (1, 3):
        raise DimensionError(f"kernel must be square with k in {{1,3}}, got {k}x{k2}")
    if cin != cin_w:
        raise DimensionError(f"input has {cin} channels, weight expects {cin_w}")
    if stride < 1:
        raise DimensionError("stride must be >= 1")
    if min(hin, win) + 2 * zero_pad < k:
        raise DimensionError("spatial extent smaller than kernel")
    if fold is not None and weight.requires_grad:
        raise DimensionError("conv2d cannot differentiate a folded weight")

    cols, hout, wout = _im2col(x.data, k, stride, zero_pad)
    wm = weight.data.reshape(cout, -1) if fold is None else fold.matrix
    out = np.matmul(wm, cols).reshape(n, cout, hout, wout)
    if fold is not None:
        out += fold.shift

    def bw(g):
        gm = g.reshape(n, cout, hout * wout)
        if weight.requires_grad:
            gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0, dtype=np.float64)
            _accumulate(weight, gw.reshape(weight.shape))
        if x.requires_grad:
            gcols = np.matmul(wm.T, gm)
            _accumulate(x, _col2im(gcols, x.shape, k, stride, zero_pad), fresh=True)

    return _result(out, "conv2d", (x, weight), bw)


# ---------------------------------------------------------------------------
# batch normalization

class BatchNormState:
    """Per-channel running statistics; mutated only in train mode."""

    momentum = 0.1   # weight of the batch statistics in the running update
    eps = 1e-5       # added to the variance before the inverse square root

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def eval_affine(self, gamma, beta) -> tuple[np.ndarray, np.ndarray]:
        """float64 per-channel (scale, shift) of eval-mode batch norm, the map
        x * scale + shift; gamma 1 and beta 0 give the normalization alone."""
        rinv = 1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)
        scale = np.asarray(gamma, dtype=np.float64) * rinv
        return scale, np.asarray(beta, dtype=np.float64) - self.running_mean * scale


@_quiet
def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               training: bool) -> Tensor:
    """Channel normalization of [N,C,H,W]; batch stats in train mode, running
    stats in eval mode. Train mode updates `state` with momentum 0.1.

    Statistics and the backward sums accumulate in float64; the normalized
    input and the elementwise math stay in the storage dtype. In eval mode
    the op is the per-channel affine map x * scale + shift.
    """
    if x.data.ndim != 4:
        raise DimensionError("batch_norm expects [N,C,H,W]")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("gamma/beta must have one value per channel")
    dt = _common_dtype(x, gamma, beta)
    g64 = gamma.data.astype(np.float64)
    m = n * h * w
    axes = (0, 2, 3)

    if training:
        if m < 2:
            raise DimensionError("train-mode batch_norm needs N*H*W >= 2")
        mean = x.data.sum(axis=axes, dtype=np.float64) / m
        # two-pass variance: deviations from the mean, then their squares,
        # squared into the buffer that later holds the output
        xhat = x.data - _per_channel(mean, dt)
        out = np.square(xhat)
        var = out.sum(axis=axes, dtype=np.float64) / m
        invstd = 1.0 / np.sqrt(var + state.eps)
        xhat *= invstd[None, :, None, None]
        var_unbiased = var * m / max(m - 1, 1)
        mom = state.momentum
        state.running_mean = ((1 - mom) * state.running_mean.astype(np.float64)
                              + mom * mean).astype(np.float32)
        state.running_var = ((1 - mom) * state.running_var.astype(np.float64)
                             + mom * var_unbiased).astype(np.float32)
        np.multiply(xhat, gamma.data[None, :, None, None], out=out)
        out += beta.data[None, :, None, None]

        def bw(g):
            sum_g = g.sum(axis=axes, dtype=np.float64)
            gxhat = g * xhat
            sum_gxhat = gxhat.sum(axis=axes, dtype=np.float64)
            if beta.requires_grad:
                _accumulate(beta, sum_g)
            if gamma.requires_grad:
                _accumulate(gamma, sum_gxhat)
            if x.requires_grad:
                # gamma * invstd * (g - mean(g) - xhat * mean(g * xhat)),
                # in place in the g * xhat buffer
                gx = np.multiply(xhat, _per_channel(-sum_gxhat / m, dt), out=gxhat)
                gx += g
                gx -= _per_channel(sum_g / m, dt)
                gx *= _per_channel(g64 * invstd, dt)
                _accumulate(x, gx, fresh=True)
    else:
        scale, shift = state.eval_affine(g64, beta.data)
        out = x.data * _per_channel(scale, dt)
        out += _per_channel(shift, dt)

        def bw(g):
            if beta.requires_grad:
                _accumulate(beta, g.sum(axis=axes, dtype=np.float64))
            if gamma.requires_grad:
                rinv, offset = state.eval_affine(1.0, 0.0)
                xhat = x.data * _per_channel(rinv, dt)
                xhat += _per_channel(offset, dt)
                xhat *= g
                _accumulate(gamma, xhat.sum(axis=axes, dtype=np.float64))
            if x.requires_grad:
                _accumulate(x, g * _per_channel(scale, dt), fresh=True)

    return _result(out, "batch_norm", (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# reductions and the classifier head

@_quiet
def spatial_mean(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C] mean over space; each location gets 1/(H*W) of the
    gradient."""
    if x.data.ndim != 4:
        raise DimensionError("spatial_mean expects [N,C,H,W]")
    n, c, h, w = x.shape

    def bw(g):
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.shape))

    out = (x.data.sum(axis=(2, 3), dtype=np.float64) / (h * w)).astype(x.data.dtype)
    return _result(out, "spatial_mean", (x,), bw)


@_quiet
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map [N,D] @ [K,D]^T (+ [K]); float64 accumulation."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise DimensionError("linear expects 2-d input and weight")
    if x.shape[1] != weight.shape[1]:
        raise DimensionError(f"linear input dim {x.shape[1]} vs weight dim {weight.shape[1]}")
    parents = [x, weight]
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise DimensionError("bias shape must be [K]")
        parents.append(bias)
    dt = _common_dtype(*parents)
    x64 = x.data.astype(np.float64)
    w64 = weight.data.astype(np.float64)
    out64 = x64 @ w64.T
    if bias is not None:
        out64 = out64 + bias.data.astype(np.float64)[None, :]

    def bw(g):
        g64 = g.astype(np.float64)
        if x.requires_grad:
            _accumulate(x, g64 @ w64)
        if weight.requires_grad:
            _accumulate(weight, g64.T @ x64)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g64.sum(axis=0))

    return _result(out64.astype(dt), "linear", parents, bw)


@_quiet
def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    Numerically stabilized by row-max subtraction; the logit gradient is
    (softmax - onehot) / N.
    """
    if logits.data.ndim != 2:
        raise DimensionError("softmax_cross_entropy expects [N,K] logits")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise DimensionError("labels must be one int per row")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= k:
        raise DimensionError(f"label out of range [0,{k})")

    z = logits.data.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -logp[np.arange(n), labels].mean()
    probs = np.exp(logp)

    def bw(g):
        if logits.requires_grad:
            grad = probs.copy()
            grad[np.arange(n), labels] -= 1.0
            _accumulate(logits, grad * (float(g.reshape(())) / n))

    return _result(np.asarray(loss, dtype=logits.data.dtype), "softmax_cross_entropy",
                   (logits,), bw)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain numpy softmax (float64), rows summing to 1."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# parameters and the optimizer

class Parameter:
    """Named trainable tensor with a zero-initialized momentum buffer."""

    def __init__(self, name: str, value: Tensor):
        value.requires_grad = True
        self.name = name
        self.value = value
        self.momentum = np.zeros_like(value.data)

    def zero_grad(self) -> None:
        self.value.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


@_quiet
def sgd_momentum_step(params: Iterable[Parameter], lr: float, momentum: float) -> None:
    """Classical momentum update: v <- momentum*v + grad; p <- p - lr*v."""
    for p in params:
        if p.value.grad is None:
            raise MissingGradientError(f"no gradient for parameter {p.name!r}")
        p.momentum = momentum * p.momentum + p.value.grad
        p.value.data = p.value.data - lr * p.momentum
        try:
            _check_finite(p.value.data, "sgd_momentum_step")
        except NumericalError as err:
            raise NumericalError(f"{p.name}: {err}") from err


def fanin_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-style init: float32 normal with std sqrt(2 / fan_in)."""
    std = math.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)
