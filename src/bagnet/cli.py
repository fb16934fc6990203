"""Command-line entry point: dataset tools, training, evaluation and
analyses.

Every subcommand writes a manifest (resolved flags, seeds, input
hashes, tool version) before any other output; identical flags, seeds
and inputs give byte-identical artifacts.

Exit codes: 0 success, 2 usage error, 3 data-format error,
4 precondition violation, 5 numerical divergence.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import NumericalError
from .data import (
    DataFormatError,
    convert_cifar10,
    csv_text,
    load_dataset,
    save_dataset,
    synth_texture_dataset,
)
from .model import (
    ConfigError,
    SHIPPED_CONFIGS,
    build_model,
    forward_evidence,
    image_logits,
)
from .train import (
    CheckpointFormatError,
    TrainConfig,
    evaluate,
    history_to_csv,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train,
)
from . import interpret as itp

EXIT_OK = 0
EXIT_DATA = 3
EXIT_PRECONDITION = 4
EXIT_DIVERGED = 5


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_value(value):
    """A flag value as strict JSON: paths and non-finite floats ("-inf",
    "nan") become strings."""
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, Path) or (isinstance(value, float) and not math.isfinite(value)):
        return str(value)
    return value


def write_manifest(out_dir: Path, subcommand: str, args: argparse.Namespace,
                   input_paths: list) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {k: _json_value(v) for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": resolved,
        "inputs": {str(p): _hash_file(p) for p in input_paths},
    }
    text = json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n"
    (out_dir / "manifest.json").write_text(text)


def _models_and_data(args, subcommand: str, *checkpoints) -> tuple:
    """(model per checkpoint..., dataset, output dir) of `eval` and the analyses.

    Each model must have the dataset's classes; once that holds, the manifest
    is written, before the command checks any precondition of its own.
    """
    models = [model_from_checkpoint(load_checkpoint(path)) for path in checkpoints]
    ds = load_dataset(args.data, split="val")
    for path, model in zip(checkpoints, models):
        if model.config.num_classes != ds.num_classes:
            raise itp.PreconditionError(f"{path} has {model.config.num_classes} classes "
                                        f"but {args.data} has {ds.num_classes}")
    out = Path(args.out)
    write_manifest(out, subcommand, args, [*checkpoints, args.data])
    return (*models, ds, out)


# ---------------------------------------------------------------------------
# dataset subcommands

def cmd_dataset_synth(args) -> int:
    ds = synth_texture_dataset(args.classes, args.per_class, args.size,
                               args.texture_scale, args.seed)
    out = Path(args.out)
    write_manifest(out.parent, "dataset synth", args, [])
    save_dataset(ds, out)
    print(f"wrote {ds.count} images ({ds.num_classes} classes, {ds.size}px) to {out}")
    return EXIT_OK


def cmd_dataset_convert(args) -> int:
    ds = convert_cifar10(args.cifar)
    out = Path(args.out)
    write_manifest(out.parent, "dataset convert", args, args.cifar)
    save_dataset(ds, out)
    print(f"converted {ds.count} images to {out}")
    return EXIT_OK


def cmd_dataset_inspect(args) -> int:
    ds = load_dataset(args.path)
    print(f"file: {args.path}")
    print(f"count: {ds.count}")
    print(f"size: {ds.size}")
    print(f"num_classes: {ds.num_classes}")
    for c, name in enumerate(ds.class_names):
        print(f"  class {c} {name!r}: {int((ds.labels == c).sum())} images")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / eval

def cmd_train(args) -> int:
    train_set = load_dataset(args.data, split="train")
    val_set = load_dataset(args.val, split="val") if args.val else train_set
    if val_set.num_classes != train_set.num_classes:
        raise itp.PreconditionError(f"{args.val} has {val_set.num_classes} classes "
                                    f"but {args.data} has {train_set.num_classes}")
    config = SHIPPED_CONFIGS[args.config](num_classes=train_set.num_classes)
    tc = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr0=args.lr0,
                     momentum=args.momentum, decay_factor=args.decay_factor,
                     decay_every_epochs=args.decay_every, seed=args.seed)
    out = Path(args.out)
    write_manifest(out, "train", args, [args.data] + ([args.val] if args.val else []))
    model = build_model(config, seed=args.seed)

    def sink(row):
        print("epoch %d lr %.5g loss %.5g val_top1 %.4f" %
              (row["epoch"], row["lr"], row["train_loss"], row["val_top1"]))

    ckpt = train(model, train_set, val_set, tc, sink=sink)
    (out / "metrics.csv").write_text(history_to_csv(ckpt.history))
    save_checkpoint(ckpt, out / "model.bagc")
    if ckpt.diverged:
        print(f"training diverged: {ckpt.divergence}; kept the last good checkpoint",
              file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_eval(args) -> int:
    model, ds, out = _models_and_data(args, "eval", args.checkpoint)
    result = evaluate(model, ds, k=args.topk)
    rows = [(f"top{args.topk}_accuracy", result.topk_accuracy)]
    rows += [(f"class{c}_accuracy", acc) for c, acc in enumerate(result.per_class)]
    (out / "eval.csv").write_text(csv_text(("metric", "value"), rows))
    np.save(out / "logits.npy", result.logits)
    print("top-%d accuracy: %.4f" % (args.topk, result.topk_accuracy))
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyses

def cmd_analyze_heatmap(args) -> int:
    model, ds, out = _models_and_data(args, "analyze heatmap", args.checkpoint)
    if not 0 <= args.image < ds.count:
        raise itp.PreconditionError(
            f"--image {args.image} is out of range: {args.data} has {ds.count} images")
    if args.cls != "pred":
        itp.check_class(model, args.cls)
    em = forward_evidence(model, ds.images[args.image])
    cls = int(np.argmax(image_logits(em))) if args.cls == "pred" else args.cls
    itp.export_heatmap(em, cls, out / f"heatmap_img{args.image}_class{cls}.ppm")
    print(f"heatmap for image {args.image}, class {cls} -> {out}")
    return EXIT_OK


def cmd_analyze_patches(args) -> int:
    model, ds, out = _models_and_data(args, "analyze patches", args.checkpoint)
    result = itp.top_patches(model, ds, args.cls, args.k, limit=args.limit)
    patch_dir = out / "patches"
    patch_dir.mkdir(parents=True, exist_ok=True)
    for kind, records in (("same", result.same_label), ("other", result.other_label)):
        for rank, rec in enumerate(records):
            rgb = rec.pixels.transpose(1, 2, 0)
            itp.write_ppm(patch_dir / f"{args.cls}_{rank}_{kind}.ppm", rgb)
    if result.truncated:
        print("fewer candidates than requested; wrote all available", file=sys.stderr)
    print(f"wrote {len(result.same_label)} same-label and "
          f"{len(result.other_label)} other-label patches to {patch_dir}")
    return EXIT_OK


def cmd_analyze_interaction(args) -> int:
    model, ds, out = _models_and_data(args, "analyze interaction", args.checkpoint)
    result = itp.interaction_experiment(model, ds, args.p, limit=args.limit,
                                        class_mode=args.class_mode)
    rows = [*zip(result.image_indices, result.lhs, result.rhs), ("pearson_r", result.r, "")]
    (out / "interaction.csv").write_text(csv_text(("image_index", "lhs", "rhs"), rows))
    r_text = "degenerate" if result.degenerate else "%.6f" % result.r
    print(f"p={args.p}: pearson r = {r_text}, "
          f"max relative gap = {result.max_relative_gap():.3g}")
    return EXIT_OK


def cmd_analyze_sensitivity(args) -> int:
    model, ds, out = _models_and_data(args, "analyze sensitivity", args.checkpoint)
    sources = args.sources.split(",")
    curves = itp.masking_sensitivity(model, sources, ds, p=args.p, n_max=args.n_max,
                                     seed=args.seed, limit=args.limit)
    rows = [(s, n, prob) for s, curve in curves.items()
            for n, prob in zip(curve.n_masked, curve.mean_prob)]
    (out / "sensitivity.csv").write_text(csv_text(("source", "n", "mean_prob"), rows))
    for s, curve in curves.items():
        print(f"{s}: prob {curve.mean_prob[0]:.4f} -> {curve.mean_prob[-1]:.4f} "
              f"at n={curve.n_masked[-1]}")
    return EXIT_OK


def cmd_analyze_threshold(args) -> int:
    model, ds, out = _models_and_data(args, "analyze threshold", args.checkpoint)
    rows = itp.threshold_sweep(model, ds, args.thresholds, args.mode, k=args.topk,
                               limit=args.limit)
    (out / "threshold.csv").write_text(csv_text(("mode", "threshold", "topk", "accuracy"), rows))
    for mode, t, k, acc in rows:
        print("%s t=%g: top-%d %.4f" % (mode, t, k, acc))
    return EXIT_OK


def cmd_analyze_scramble(args) -> int:
    model, ds, out = _models_and_data(args, "analyze scramble", args.checkpoint)
    result = itp.scramble_test(model, ds, seed=args.seed, limit=args.limit)
    (out / "scramble.csv").write_text(csv_text(("metric", "value"), vars(result).items()))
    print("clean %.4f scrambled %.4f max logit delta %.3g" %
          (result.clean_accuracy, result.scrambled_accuracy, result.max_logit_delta))
    return EXIT_OK


def cmd_analyze_scatter(args) -> int:
    model_a, model_b, ds, out = _models_and_data(args, "analyze scatter",
                                                 args.checkpoint_a, args.checkpoint_b)
    eval_a = evaluate(model_a, ds, k=args.topk)
    eval_b = evaluate(model_b, ds, k=args.topk)
    a, b = eval_a.per_class, eval_b.per_class
    r = itp.pearson(a, b)
    rows = [*zip(range(len(a)), a, b), ("pearson_r", r, "")]
    (out / "class_scatter.csv").write_text(csv_text(("class", "acc_a", "acc_b"), rows))
    print("per-class r =", "degenerate" if r is None else "%.4f" % r)
    return EXIT_OK


def cmd_analyze_logitcorr(args) -> int:
    model_a, model_b, ds, out = _models_and_data(args, "analyze logitcorr",
                                                 args.checkpoint_a, args.checkpoint_b)
    eval_a = evaluate(model_a, ds, k=1)
    eval_b = evaluate(model_b, ds, k=1)
    r = itp.pearson(eval_a.logits.ravel(), eval_b.logits.ravel())
    (out / "logitcorr.csv").write_text(csv_text(("metric", "value"), [("pearson_r", r)]))
    print("logit correlation:", "degenerate" if r is None else "%.4f" % r)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _class_or_pred(text: str):
    """A class index, or "pred" for the predicted class (`heatmap --class`)."""
    if text == "pred":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a class index or 'pred', got {text!r}") from None


def _seed(text: str) -> int:
    """A non-negative integer (`--seed`): numpy refuses a negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers (`threshold --thresholds`); inf and nan parse."""
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _source_list(text: str) -> str:
    """Comma-separated ranking sources (`sensitivity --sources`), each known
    and named once; kept as text, which the manifest records."""
    try:
        itp.check_sources(text.split(","))
    except itp.PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `bagnet` parser, built once per process."""
    parser = argparse.ArgumentParser(prog="bagnet")
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset").add_subparsers(dest="action", required=True)
    p = ds.add_parser("synth")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, dest="per_class", default=2000)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--texture-scale", type=int, dest="texture_scale", default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_dataset_synth)
    p = ds.add_parser("convert")
    p.add_argument("--out", required=True)
    p.add_argument("cifar", nargs="+")
    p.set_defaults(func=cmd_dataset_convert)
    p = ds.add_parser("inspect")
    p.add_argument("path")
    p.set_defaults(func=cmd_dataset_inspect)

    p = sub.add_parser("train")
    p.add_argument("--config", choices=sorted(SHIPPED_CONFIGS), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--val")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, dest="batch_size", default=64)
    p.add_argument("--lr0", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--decay-factor", type=float, dest="decay_factor", default=10.0)
    p.add_argument("--decay-every", type=int, dest="decay_every", default=8)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--topk", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    an = sub.add_parser("analyze").add_subparsers(dest="analysis", required=True)

    def common(p, two_models=False, limit=False, seed=False):
        """The inputs and output of an analysis, plus --limit and --seed
        where the analysis reads them."""
        if two_models:
            p.add_argument("--checkpoint-a", dest="checkpoint_a", required=True)
            p.add_argument("--checkpoint-b", dest="checkpoint_b", required=True)
        else:
            p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        if limit:
            p.add_argument("--limit", type=int, default=None, metavar="N",
                           help="analyse the first N images (default: all)")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)

    p = an.add_parser("heatmap")
    common(p)
    p.add_argument("--image", type=int, default=0)
    p.add_argument("--class", dest="cls", type=_class_or_pred, default="pred")
    p.set_defaults(func=cmd_analyze_heatmap)
    p = an.add_parser("patches")
    common(p, limit=True)
    p.add_argument("--class", dest="cls", type=int, required=True)
    p.add_argument("--k", type=int, default=7)
    p.set_defaults(func=cmd_analyze_patches)
    p = an.add_parser("interaction")
    common(p, limit=True)
    p.add_argument("--p", type=int, default=8)
    p.add_argument("--class-mode", dest="class_mode", choices=["label", "pred"],
                   default="label")
    p.set_defaults(func=cmd_analyze_interaction)
    p = an.add_parser("sensitivity")
    common(p, limit=True, seed=True)
    p.add_argument("--sources", type=_source_list, default="bagnet,saliency,ig,random")
    p.add_argument("--p", type=int, default=8)
    p.add_argument("--n-max", type=int, dest="n_max", default=8)
    p.set_defaults(func=cmd_analyze_sensitivity)
    p = an.add_parser("threshold")
    common(p, limit=True)
    p.add_argument("--mode", choices=["clamp", "binarize", "both"], default="both")
    p.add_argument("--thresholds", type=_float_list, required=True)
    p.add_argument("--topk", type=int, default=1)
    p.set_defaults(func=cmd_analyze_threshold)
    p = an.add_parser("scramble")
    common(p, limit=True, seed=True)
    p.set_defaults(func=cmd_analyze_scramble)
    p = an.add_parser("scatter")
    common(p, two_models=True)
    p.add_argument("--topk", type=int, default=1)
    p.set_defaults(func=cmd_analyze_scatter)
    p = an.add_parser("logitcorr")
    common(p, two_models=True)
    p.set_defaults(func=cmd_analyze_logitcorr)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, CheckpointFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (itp.PreconditionError, ConfigError, ValueError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
