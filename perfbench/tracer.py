"""In-memory tracing of calls into the bagnet modules, installed from outside.

The program itself carries no timers. `Tracer.installed()` rebinds the
functions listed in SPANNED and OPS in every bagnet module namespace that
imported them by name (model.py imports the autodiff ops that way, cli.py
imports the train and data functions), and restores the originals on exit.

Two kinds of record are kept:

* spans, one per call of a module-level function: name, start, end, parent
  span and one size figure (images in a batch, images analysed). Their
  number is small (one per forward pass at most), so each is kept.
* op accumulators for the autodiff ops, keyed by (named layer, op): forward
  seconds, backward seconds and calls. Ops run about a hundred times per
  forward pass, too often to keep a span each. Backward time is taken by
  wrapping the `_backward` closure of every tensor an op returns. The layer
  name comes from the parameter tensor the op receives (`block3.conv2`);
  ops without parameters (relu, add, crop2d, spatial_mean) take the name of
  the last parametrised op before them.

Nothing is written while the run goes on; the records are turned into
per-layer metrics and trace rows when it ends.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("autodiff", "model", "data", "train", "interpret", "cli")

# (module, function) pairs recorded as spans
SPANNED = [
    ("autodiff", "sgd_momentum_step"),
    ("model", "build_model"),
    ("model", "forward_features"),
    ("model", "forward_evidence"),
    ("model", "certify_receptive_field"),
    ("data", "synth_texture_dataset"),
    ("data", "load_dataset"),
    ("data", "save_dataset"),
    ("train", "evaluate"),
    ("train", "save_checkpoint"),
    ("train", "load_checkpoint"),
    ("train", "model_from_checkpoint"),
    ("interpret", "masking_sensitivity"),
    ("interpret", "interaction_experiment"),
    ("interpret", "top_patches"),
    ("interpret", "threshold_sweep"),
    ("interpret", "scramble_test"),
    ("interpret", "saliency"),
    ("interpret", "integrated_gradients"),
]

# autodiff ops accumulated per named layer; the value is the position of
# the parameter tensor that names the layer, or None
OPS = {
    "conv2d": 1,
    "batch_norm": 1,
    "relu": None,
    "add": None,
    "crop2d": None,
    "spatial_mean": None,
    "linear": 1,
    "softmax_cross_entropy": None,
}

# analyses whose masked variants the useful-location ratio counts
MASKING_ANALYSES = ("interpret.masking_sensitivity", "interpret.interaction_experiment")

_PARAM_SUFFIXES = (".weight", ".bias", ".gamma", ".beta")


def bagnet_modules() -> list:
    return [sys.modules["bagnet"]] + [importlib.import_module(f"bagnet.{m}") for m in MODULES]


def _layer_name(param_name: str) -> str:
    for suffix in _PARAM_SUFFIXES:
        if param_name.endswith(suffix):
            return param_name[: -len(suffix)]
    return param_name


def _analysed_images(dataset, limit) -> int:
    return dataset.count if limit is None else min(limit, dataset.count)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, t0, t1, parent index, size]
        self._stack: list[int] = []
        self.ops = defaultdict(lambda: [0.0, 0.0, 0])   # (layer, op) -> fwd_s, bwd_s, calls
        self.conv_flop = 0.0
        self.conv_bytes = 0.0
        self.useful_locations = 0
        self.recomputed_locations = 0
        self.mask_variants = 0
        self._param_layers: dict[int, str] = {}
        self._layer = "input"
        self._geometry = None            # (rf, jump, offset) of the model being analysed

    # -- bookkeeping ---------------------------------------------------------

    def reset_ops(self) -> None:
        """Start the per-round accumulators afresh (called when the measured
        window opens); spans are kept for the whole run."""
        self.ops.clear()
        self.conv_flop = self.conv_bytes = 0.0
        self.useful_locations = self.recomputed_locations = self.mask_variants = 0

    def register_model(self, model) -> None:
        for name, p in model.params.items():
            self._param_layers[id(p.value)] = _layer_name(name)

    def _span(self, name, fn, size_of=None):
        """`name` is a string, or a function of the call's arguments."""
        def wrapped(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            size = size_of(args, kwargs) if size_of is not None else 0
            label = name(args, kwargs) if callable(name) else name
            record = [label, perf_counter(), 0.0, parent, size]
            self.spans.append(record)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
        return wrapped

    def _op(self, op: str, fn, param_pos):
        def wrapped(*args, **kwargs):
            if param_pos is not None:
                self._layer = self._param_layers.get(id(args[param_pos]), self._layer)
            layer = "loss" if op == "softmax_cross_entropy" else self._layer
            rec = self.ops[(layer, op)]
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            rec[0] += perf_counter() - t0
            rec[2] += 1
            conv = self._count_conv(args[0], args[1], out) if op == "conv2d" else None
            if out._backward is not None and out is not args[0]:
                out._backward = self._timed_backward(out._backward, rec, conv)
            return out
        return wrapped

    def _timed_backward(self, backward, rec, conv):
        # the closure must not hold the output tensor: the tensor holds the
        # closure, and the cycle would keep every graph alive until a gc pass
        def timed(g):
            t0 = perf_counter()
            backward(g)
            rec[1] += perf_counter() - t0
            if conv is not None:
                conv()
        return timed

    # -- computed counts -----------------------------------------------------

    def _count_conv(self, x, w, out):
        """Add the forward pass's computed flop and bytes; return the function
        that adds the backward pass's. 2 flop per multiply-add; bytes are
        float32 reads and writes of the tensors (from shapes, not measured)."""
        _, cin, k, _ = w.shape
        n_out, n_x, n_w = out.data.size, x.data.size, w.data.size
        flop = 2.0 * n_out * cin * k * k
        self.conv_flop += flop
        self.conv_bytes += 4.0 * (n_x + n_w + n_out)

        def backward():
            # one pass per input that takes a gradient; each reads the output
            # gradient, x and w and writes that input's gradient
            passes = int(x.requires_grad) + int(w.requires_grad)
            self.conv_flop += flop * passes
            self.conv_bytes += 4.0 * (n_out + n_x + n_w + n_x * x.requires_grad
                                      + n_w * w.requires_grad)
        return backward

    def _count_mask(self, cells: list[tuple[int, int, int]], image_hw) -> None:
        """Evidence locations whose q x q window meets one of `cells`
        ((top, left, p) squares), against all locations a full forward
        of the masked variant recomputes."""
        if self._geometry is None or not self._in(MASKING_ANALYSES):
            return
        rf, jump, offset = self._geometry
        h, w = image_hw
        hm = (h - 2 * offset - rf) // jump + 1
        wm = (w - 2 * offset - rf) // jump + 1
        rows = offset + jump * np.arange(hm)
        cols = offset + jump * np.arange(wm)
        hit = np.zeros((hm, wm), dtype=bool)
        for top, left, p in cells:
            r = (rows < top + p) & (rows + rf > top)
            c = (cols < left + p) & (cols + rf > left)
            hit |= r[:, None] & c[None, :]
        self.useful_locations += int(hit.sum())
        self.recomputed_locations += hm * wm
        self.mask_variants += 1

    def _in(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self._stack)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced functions in every bagnet namespace; restore the
        originals on exit."""
        modules = bagnet_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        saved = []

        def rebind(defining: str, name: str, make):
            original = getattr(by_name[defining], name)
            replacement = make(original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    saved.append((mod, name, original))
                    setattr(mod, name, replacement)

        for defining, name in SPANNED:
            rebind(defining, name, lambda fn, d=defining, n=name:
                   self._span(f"{d}.{n}", fn, self._size_rule(d, n)))
        # one span name per subcommand: cli.analyze_sensitivity, ...
        rebind("cli", "main", lambda fn: self._span(
            lambda a, k: "cli." + "_".join((a[0] if a else k["argv"])[:2]), fn))
        # every model, also one loaded from a checkpoint, is built here
        rebind("model", "build_model", self._registering)
        for op, pos in OPS.items():
            rebind("autodiff", op, lambda fn, o=op, p=pos: self._op(o, fn, p))
        rebind("interpret", "apply_mask", self._wrap_apply_mask)
        rebind("interpret", "add_delta", self._wrap_add_delta)
        try:
            yield self
        finally:
            for mod, name, original in reversed(saved):
                setattr(mod, name, original)

    def _registering(self, fn):
        def wrapped(*args, **kwargs):
            model = fn(*args, **kwargs)
            self.register_model(model)
            return model
        return wrapped

    def _size_rule(self, module: str, name: str):
        if (module, name) == ("model", "forward_features"):
            return lambda a, k: int(a[1].shape[0])
        if (module, name) == ("interpret", "masking_sensitivity"):
            return lambda a, k: self._enter_analysis(a[0], a[2], k.get("limit"))
        if module == "interpret" and name in ("interaction_experiment", "top_patches",
                                              "threshold_sweep", "scramble_test"):
            return lambda a, k: self._enter_analysis(a[0], a[1], k.get("limit"))
        return None

    def _enter_analysis(self, model, dataset, limit) -> int:
        """Remember the analysed model's geometry for the mask counts; the
        span's size is the number of images the analysis reads."""
        from bagnet.model import rf_geometry
        self._geometry = rf_geometry(model.config)
        return _analysed_images(dataset, limit)

    def _wrap_apply_mask(self, fn):
        from bagnet.interpret import selected_cells

        def wrapped(image, spec):
            out = fn(image, spec)
            _, h, w = np.shape(image)
            cells = [(spec.phase[0] + r * spec.p, spec.phase[1] + c * spec.p, spec.p)
                     for r, c in selected_cells(spec, h, w)]
            self._count_mask(cells, (h, w))
            return out
        return wrapped

    def _wrap_add_delta(self, fn):
        def wrapped(image, d):
            out = fn(image, d)
            self._count_mask([(d.top, d.left, d.delta.shape[1])], np.shape(image)[1:])
            return out
        return wrapped

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the per-round accumulators, taken when the measured window
        closes."""
        return {"ops": {k: list(v) for k, v in self.ops.items()},
                "conv_flop": self.conv_flop, "conv_bytes": self.conv_bytes,
                "useful_locations": self.useful_locations,
                "recomputed_locations": self.recomputed_locations,
                "mask_variants": self.mask_variants}

    def per_call_ms(self, name: str) -> float:
        times = [s[2] - s[1] for s in self.spans if s[0] == name]
        return 1e3 * sum(times) / len(times) if times else 0.0

    def self_ms(self, name: str) -> float:
        """Mean over spans named `name` of duration minus the time covered by
        their direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        own = [s[2] - s[1] - c for s, c in zip(self.spans, child) if s[0] == name]
        return 1e3 * sum(own) / len(own) if own else 0.0

    def nested(self, ancestors, name: str) -> tuple[int, int, int, int]:
        """(spans named `name` inside a span named in `ancestors`, their summed
        size, spans named in `ancestors`, their summed size)."""
        inside = [False] * len(self.spans)
        count = size = n_outer = outer_size = 0
        for i, (n, _, _, parent, sz) in enumerate(self.spans):
            inside[i] = parent >= 0 and (inside[parent] or self.spans[parent][0] in ancestors)
            if n in ancestors:
                n_outer += 1
                outer_size += sz
            elif n == name and inside[i]:
                count += 1
                size += sz
        return count, size, n_outer, outer_size

    def sizes_between(self, name: str, t_start: float, t_end: float) -> int:
        return sum(s[4] for s in self.spans if s[0] == name and t_start <= s[1] and s[2] <= t_end)


def layer_rows(ops: dict, rounds: int) -> list[dict]:
    """Forward and backward time per (named layer, op), per round."""
    return [{"layer": layer, "op": op, "fwd_ms": 1e3 * fwd / rounds,
             "bwd_ms": 1e3 * bwd / rounds, "calls": calls / rounds}
            for (layer, op), (fwd, bwd, calls) in sorted(ops.items())]
