"""End-to-end command-line checks on tiny inputs: artifact layout, exit
codes and byte-identical reruns."""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bagnet.model as bm
from bagnet.cli import build_parser, main
from bagnet.interpret import PreconditionError
from bagnet.model import bagnet9_32, build_model
from bagnet.train import Checkpoint, load_checkpoint, save_checkpoint, snapshot_tensors

SYNTH = ["dataset", "synth", "--classes", "2", "--per-class", "8", "--size", "16",
         "--texture-scale", "8", "--seed", "3"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(SYNTH + ["--out", str(root / "train.bagd")]) == 0
    assert main(SYNTH + ["--seed", "4", "--out", str(root / "val.bagd")]) == 0
    rc = main(["train", "--config", "bagnet5_32", "--data", str(root / "train.bagd"),
               "--val", str(root / "val.bagd"), "--out", str(root / "run"),
               "--epochs", "1", "--batch-size", "8", "--seed", "0"])
    assert rc == 0
    return root


def test_dataset_synth_and_inspect(workdir, capsys):
    assert main(["dataset", "inspect", str(workdir / "train.bagd")]) == 0
    out = capsys.readouterr().out
    assert "count: 16" in out
    assert "num_classes: 2" in out


def test_dataset_convert(tmp_path):
    rng = np.random.default_rng(0)
    rec = bytes([1]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes()
    src = tmp_path / "data_batch_1.bin"
    src.write_bytes(rec * 5)
    assert main(["dataset", "convert", "--out", str(tmp_path / "c.bagd"), str(src)]) == 0
    assert main(["dataset", "inspect", str(tmp_path / "c.bagd")]) == 0


def test_train_outputs(workdir):
    run = workdir / "run"
    assert (run / "manifest.json").exists()
    assert (run / "metrics.csv").exists()
    assert (run / "model.bagc").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    assert manifest["config"]["seed"] == 0
    metrics = (run / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "epoch,lr,train_loss,val_top1"
    assert len(metrics) == 2


def test_train_same_seed_identical_checkpoints(workdir, tmp_path):
    rc = main(["train", "--config", "bagnet5_32", "--data", str(workdir / "train.bagd"),
               "--val", str(workdir / "val.bagd"), "--out", str(tmp_path / "rerun"),
               "--epochs", "1", "--batch-size", "8", "--seed", "0"])
    assert rc == 0
    assert (tmp_path / "rerun" / "model.bagc").read_bytes() == \
        (workdir / "run" / "model.bagc").read_bytes()
    assert (tmp_path / "rerun" / "metrics.csv").read_bytes() == \
        (workdir / "run" / "metrics.csv").read_bytes()


def test_eval_runs_and_repeats_identically(workdir, tmp_path):
    args = ["eval", "--checkpoint", str(workdir / "run" / "model.bagc"),
            "--data", str(workdir / "val.bagd"), "--topk", "1"]
    assert main(args + ["--out", str(tmp_path / "e1")]) == 0
    assert main(args + ["--out", str(tmp_path / "e2")]) == 0
    assert (tmp_path / "e1" / "eval.csv").read_bytes() == \
        (tmp_path / "e2" / "eval.csv").read_bytes()


def test_eval_topk_equals_classes_is_one(workdir, tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(workdir / "run" / "model.bagc"),
                 "--data", str(workdir / "val.bagd"), "--topk", "2",
                 "--out", str(tmp_path / "full")]) == 0
    text = (tmp_path / "full" / "eval.csv").read_text()
    assert "top2_accuracy,1" in text


def test_analyze_heatmap_and_rerun_bytes(workdir, tmp_path):
    args = ["analyze", "heatmap", "--checkpoint", str(workdir / "run" / "model.bagc"),
            "--data", str(workdir / "val.bagd"), "--image", "0", "--class", "pred"]
    assert main(args + ["--out", str(tmp_path / "h1")]) == 0
    assert main(args + ["--out", str(tmp_path / "h2")]) == 0
    ppms1 = sorted(p.name for p in (tmp_path / "h1").glob("*.ppm"))
    assert len(ppms1) == 1
    for name in ppms1:
        assert (tmp_path / "h1" / name).read_bytes() == (tmp_path / "h2" / name).read_bytes()
        csv1 = (tmp_path / "h1" / (name + ".csv")).read_bytes()
        assert csv1 == (tmp_path / "h2" / (name + ".csv")).read_bytes()


def test_analyze_interaction(workdir, tmp_path, capsys):
    assert main(["analyze", "interaction", "--checkpoint", str(workdir / "run" / "model.bagc"),
                 "--data", str(workdir / "val.bagd"), "--p", "4", "--limit", "6",
                 "--out", str(tmp_path / "i")]) == 0
    lines = (tmp_path / "i" / "interaction.csv").read_text().strip().split("\n")
    assert lines[0] == "image_index,lhs,rhs"
    assert lines[-1].startswith("pearson_r,")
    assert len(lines) == 2 + 6


def test_analyze_sensitivity(workdir, tmp_path):
    assert main(["analyze", "sensitivity", "--checkpoint", str(workdir / "run" / "model.bagc"),
                 "--data", str(workdir / "val.bagd"), "--sources", "bagnet,random",
                 "--p", "8", "--n-max", "2", "--limit", "3",
                 "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "sensitivity.csv").read_text().strip().split("\n")
    assert lines[0] == "source,n,mean_prob"
    assert len(lines) == 1 + 2 * 3


def test_analyze_threshold(workdir, tmp_path):
    assert main(["analyze", "threshold", "--checkpoint", str(workdir / "run" / "model.bagc"),
                 "--data", str(workdir / "val.bagd"), "--mode", "both",
                 "--thresholds=-inf,0,0.5", "--out", str(tmp_path / "t")]) == 0
    lines = (tmp_path / "t" / "threshold.csv").read_text().strip().split("\n")
    assert lines[0] == "mode,threshold,topk,accuracy"
    assert len(lines) == 1 + 6


def test_analyze_patches(workdir, tmp_path):
    assert main(["analyze", "patches", "--checkpoint", str(workdir / "run" / "model.bagc"),
                 "--data", str(workdir / "val.bagd"), "--class", "1", "--k", "3",
                 "--out", str(tmp_path / "p")]) == 0
    ppms = list((tmp_path / "p" / "patches").glob("*.ppm"))
    assert len(ppms) == 6  # 3 same-label + 3 other-label
    names = sorted(p.name for p in ppms)
    assert names[0].startswith("1_0_")


def test_analyze_scatter_and_logitcorr(workdir, tmp_path):
    ck = str(workdir / "run" / "model.bagc")
    assert main(["analyze", "scatter", "--checkpoint-a", ck, "--checkpoint-b", ck,
                 "--data", str(workdir / "val.bagd"), "--out", str(tmp_path / "sc")]) == 0
    lines = (tmp_path / "sc" / "class_scatter.csv").read_text().strip().split("\n")
    assert lines[0] == "class,acc_a,acc_b"
    assert main(["analyze", "logitcorr", "--checkpoint-a", ck, "--checkpoint-b", ck,
                 "--data", str(workdir / "val.bagd"), "--out", str(tmp_path / "lc")]) == 0
    text = (tmp_path / "lc" / "logitcorr.csv").read_text()
    assert "pearson_r,1" in text


def test_scramble_requires_tiling_config(workdir, tmp_path):
    # bagnet5_32 does not tile (stride 4 vs q 5): dedicated exit code 4
    rc = main(["analyze", "scramble", "--checkpoint", str(workdir / "run" / "model.bagc"),
               "--data", str(workdir / "val.bagd"), "--out", str(tmp_path / "scr")])
    assert rc == 4


@pytest.mark.parametrize("argv", [
    ["bench", "--checkpoint", "model.bagc"],
    SYNTH + ["--split", "val", "--out", "x.bagd"],
    ["dataset", "convert", "--split", "val", "--out", "x.bagd", "data_batch_1.bin"],
])
def test_removed_command_and_flags_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_exit_code_data_error(tmp_path, capsys):
    bad = tmp_path / "junk.bagd"
    bad.write_bytes(b"not a dataset")
    assert main(["dataset", "inspect", str(bad)]) == 3


def test_exit_code_missing_file(tmp_path):
    assert main(["dataset", "inspect", str(tmp_path / "nope.bagd")]) == 3


@pytest.mark.parametrize("field", ["config", "meta"])
def test_corrupt_checkpoint_json_exits_3(workdir, tmp_path, capsys, field):
    blob = bytearray((workdir / "run" / "model.bagc").read_bytes())
    # the config JSON starts after magic, version and its u32 length; the
    # meta JSON ends the file
    blob[9 if field == "config" else -1] = ord("X")
    bad = tmp_path / "badjson.bagc"
    bad.write_bytes(bytes(blob))
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(workdir / "val.bagd"),
               "--out", str(tmp_path / "e")])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(bad) in err and field in err


def test_checkpoint_meta_missing_field_exits_3(workdir, tmp_path, capsys):
    blob = (workdir / "run" / "model.bagc").read_bytes()
    start = blob.rindex(b'{"base_seed"')  # the meta JSON ends the file
    meta = json.loads(blob[start:])
    del meta["epoch"]
    raw = json.dumps(meta).encode()
    bad = tmp_path / "badmeta.bagc"
    bad.write_bytes(blob[:start - 4] + len(raw).to_bytes(4, "little") + raw)
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(workdir / "val.bagd"),
               "--out", str(tmp_path / "e")])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "epoch" in err


@pytest.mark.parametrize("damage", ["missing", "reshaped"])
def test_checkpoint_tensor_table_mismatch_exits_3(workdir, tmp_path, capsys, damage):
    ckpt = load_checkpoint(workdir / "run" / "model.bagc")
    name = "param.classifier.bias"
    if damage == "missing":
        del ckpt.tensors[name]
    else:
        ckpt.tensors[name] = np.zeros(7, dtype=np.float32)
    bad = tmp_path / "badtable.bagc"
    save_checkpoint(ckpt, bad)
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(workdir / "val.bagd"),
               "--out", str(tmp_path / "e")])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(bad) in err and name in err


def test_heatmap_image_out_of_range_exits_4(workdir, tmp_path, capsys):
    rc = main(["analyze", "heatmap", "--checkpoint", str(workdir / "run" / "model.bagc"),
               "--data", str(workdir / "val.bagd"), "--image", "999",
               "--out", str(tmp_path / "h")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "999" in err and "16 images" in err


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_exit_code_divergence(workdir, tmp_path):
    rc = main(["train", "--config", "bagnet5_32", "--data", str(workdir / "train.bagd"),
               "--val", str(workdir / "val.bagd"), "--out", str(tmp_path / "div"),
               "--epochs", "2", "--batch-size", "8", "--seed", "0", "--lr0", "1e39"])
    assert rc == 5
    assert (tmp_path / "div" / "model.bagc").exists()  # last good state kept


def test_divergence_exit_code_without_numpy_warnings(workdir, tmp_path):
    args = ["train", "--config", "bagnet5_32", "--data", str(workdir / "train.bagd"),
            "--val", str(workdir / "val.bagd"), "--out", str(tmp_path / "div"),
            "--epochs", "2", "--batch-size", "8", "--seed", "0", "--lr0", "1e39"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args) == 5
    assert load_checkpoint(tmp_path / "div" / "model.bagc").diverged


def test_manifest_written_before_failure(workdir, tmp_path):
    # scramble refuses after the manifest exists
    out = tmp_path / "m"
    main(["analyze", "scramble", "--checkpoint", str(workdir / "run" / "model.bagc"),
          "--data", str(workdir / "val.bagd"), "--out", str(out)])
    assert (out / "manifest.json").exists()


@pytest.fixture(scope="module")
def three_class_val(workdir):
    path = workdir / "val3.bagd"
    assert main(["dataset", "synth", "--classes", "3", "--per-class", "4", "--size", "16",
                 "--seed", "5", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command", [
    ["eval"],
    ["analyze", "threshold", "--thresholds=-inf,0"],
    ["analyze", "heatmap"],
    ["analyze", "scatter"],
    ["analyze", "logitcorr"],
])
def test_class_count_mismatch_exits_4(workdir, three_class_val, tmp_path, capsys, command):
    ck = str(workdir / "run" / "model.bagc")
    models = (["--checkpoint-a", ck, "--checkpoint-b", ck] if command[-1] in
              ("scatter", "logitcorr") else ["--checkpoint", ck])
    rc = main(command + models + ["--data", str(three_class_val), "--out", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err
    assert ck in err and str(three_class_val) in err
    assert "2 classes" in err and "has 3" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("analysis,cls", [("heatmap", "2"), ("heatmap", "-1"),
                                          ("patches", "2"), ("patches", "-1")])
def test_class_out_of_range_exits_4(workdir, tmp_path, capsys, analysis, cls):
    rc = main(["analyze", analysis, "--checkpoint", str(workdir / "run" / "model.bagc"),
               "--data", str(workdir / "val.bagd"), "--class", cls,
               "--out", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err
    assert f"class {cls} " in err and "2 classes" in err
    assert not list((tmp_path / "o").rglob("*.ppm"))


# the options of each analysis beyond its checkpoint(s), --data and --out,
# with values that let it run on the tiny workdir inputs
ANALYSIS_ARGS = {
    "heatmap": ["--image", "1", "--class", "0"],
    "patches": ["--class", "1", "--k", "2", "--limit", "8"],
    "interaction": ["--p", "4", "--class-mode", "pred", "--limit", "4"],
    "sensitivity": ["--sources", "bagnet,random", "--p", "8", "--n-max", "1",
                    "--limit", "2", "--seed", "1"],
    "threshold": ["--mode", "clamp", "--thresholds=-inf,0", "--topk", "1", "--limit", "8"],
    "scramble": ["--limit", "4", "--seed", "1"],
    "scatter": ["--topk", "1"],
    "logitcorr": [],
}


def _analysis_argv(workdir, tmp_path, analysis):
    ck = str(workdir / "run" / "model.bagc")
    models = (["--checkpoint-a", ck, "--checkpoint-b", ck] if analysis in ("scatter", "logitcorr")
              else ["--checkpoint", ck])
    return (["analyze", analysis] + models + ["--data", str(workdir / "val.bagd"),
                                             "--out", str(tmp_path / analysis)]
            + ANALYSIS_ARGS[analysis])


@pytest.mark.parametrize("analysis", sorted(ANALYSIS_ARGS))
def test_analysis_options_are_exactly_those_its_command_reads(workdir, tmp_path, analysis):
    args = build_parser().parse_args(_analysis_argv(workdir, tmp_path, analysis))
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    # scramble refuses the non-tiling bagnet5_32 after reading its options
    with contextlib.suppress(PreconditionError):
        args.func(Recording(**vars(args)))
    options = set(vars(args)) - {"command", "analysis", "func"}
    assert {name for name in read if not name.startswith("_")} == options


@pytest.mark.parametrize("analysis,flag", [("heatmap", ["--seed", "1"]),
                                           ("scatter", ["--limit", "3"])])
def test_flag_the_analysis_does_not_read_is_a_usage_error(workdir, tmp_path, analysis, flag):
    with pytest.raises(SystemExit) as exc:
        main(_analysis_argv(workdir, tmp_path, analysis) + flag)
    assert exc.value.code == 2
    assert not (tmp_path / analysis).exists()


def _eval_argv(workdir, tmp_path):
    return ["eval", "--checkpoint", str(workdir / "run" / "model.bagc"),
            "--data", str(workdir / "val.bagd"), "--out", str(tmp_path / "eval")]


@pytest.mark.parametrize("command,flag,value,named", [
    ("eval", "--topk", "0", "k=0"),
    ("eval", "--topk", "-1", "k=-1"),
    ("threshold", "--topk", "0", "k=0"),
    ("scatter", "--topk", "-1", "k=-1"),
    ("patches", "--k", "-2", "k=-2"),
    ("patches", "--k", "0", "k=0"),
    ("sensitivity", "--n-max", "-1", "n_max=-1"),
    ("sensitivity", "--p", "0", "p=0"),
    ("interaction", "--p", "0", "p=0"),
    ("interaction", "--p", "-8", "p=-8"),
])
def test_numeric_argument_out_of_range_exits_4(workdir, tmp_path, capsys, command, flag,
                                               value, named):
    argv = (_eval_argv(workdir, tmp_path) if command == "eval"
            else _analysis_argv(workdir, tmp_path, command))
    assert main(argv + [flag, value]) == 4
    assert named in capsys.readouterr().err
    assert not [p for p in tmp_path.rglob("*") if p.suffix in (".csv", ".ppm")]


@pytest.mark.parametrize("damage", ["name_not_utf8", "rank", "non_finite", "trailing"])
def test_checkpoint_it_cannot_parse_exits_3_naming_the_offset(workdir, tmp_path, capsys,
                                                              damage):
    blob = bytearray((workdir / "run" / "model.bagc").read_bytes())
    # the first tensor: u16 name length, name, u8 rank, u32 dims, float32 data
    first = 9 + int.from_bytes(blob[5:9], "little") + 4
    rank_at = first + 2 + int.from_bytes(blob[first:first + 2], "little")
    data_at = rank_at + 1 + 4 * blob[rank_at]
    at = {"name_not_utf8": first + 2, "rank": rank_at, "non_finite": data_at,
          "trailing": len(blob)}[damage]
    if damage == "non_finite":
        blob[at:at + 4] = np.float32(np.nan).tobytes()
    elif damage == "trailing":
        blob += b"\0"
    else:
        blob[at] = {"name_not_utf8": 0xFF, "rank": 112}[damage]
    bad = tmp_path / "bad.bagc"
    bad.write_bytes(bytes(blob))
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(workdir / "val.bagd"),
               "--out", str(tmp_path / "e")])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(bad) in err and f"at offset {at}" in err


@pytest.mark.parametrize("command", ["eval", "threshold", "scatter"])
def test_topk_out_of_range_is_refused_before_any_pass(workdir, tmp_path, monkeypatch, capsys,
                                                      command):
    passes = []
    original = bm._chunked

    def counting(model, images, fn):
        passes.append(len(images))
        return original(model, images, fn)

    monkeypatch.setattr(bm, "_chunked", counting)
    argv = (_eval_argv(workdir, tmp_path) if command == "eval"
            else _analysis_argv(workdir, tmp_path, command))
    assert main(argv + ["--topk", "0"]) == 4
    assert "k=0" in capsys.readouterr().err
    assert passes == []
    assert main(argv + ["--topk", "1"]) == 0    # the counter does see a valid run's passes
    assert passes


@pytest.mark.parametrize("flag,value,named", [("--size", "70000", "size=70000"),
                                              ("--classes", "0", "num_classes=0"),
                                              ("--classes", "256", "num_classes=256"),
                                              ("--per-class", "0", "per_class=0"),
                                              ("--per-class", "-1", "per_class=-1"),
                                              ("--texture-scale", "0", "texture_scale=0"),
                                              ("--texture-scale", "-3", "texture_scale=-3")])
def test_bad_synth_size_exits_4_naming_it_before_any_output(tmp_path, capsys, flag, value,
                                                            named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(SYNTH + ["--out", str(tmp_path / "d.bagd"), flag, value])
    assert rc == 4
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def small_images(workdir):
    """8 px images, below bagnet9_32's q=9, and an untrained bagnet9_32
    checkpoint with the same two classes."""
    data = workdir / "small8.bagd"
    assert main(["dataset", "synth", "--classes", "2", "--per-class", "4", "--size", "8",
                 "--texture-scale", "4", "--out", str(data)]) == 0
    config = bagnet9_32(num_classes=2)
    ckpt = workdir / "q9.bagc"
    save_checkpoint(Checkpoint(config, snapshot_tensors(build_model(config, seed=0)), 0, 0), ckpt)
    return data, ckpt


@pytest.mark.parametrize("command", ["train", "eval", "heatmap"])
def test_images_smaller_than_q_exit_4(small_images, tmp_path, capsys, command):
    data, ckpt = small_images
    argv = {"train": ["train", "--config", "bagnet9_32", "--epochs", "1", "--batch-size", "8"],
            "eval": ["eval", "--checkpoint", str(ckpt)],
            "heatmap": ["analyze", "heatmap", "--checkpoint", str(ckpt)]}[command]
    assert main(argv + ["--data", str(data), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "8x8" in err and "q=9" in err
    assert not [p for p in tmp_path.rglob("*") if p.suffix in (".bagc", ".csv", ".npy", ".ppm")]


@pytest.fixture
def chunked_passes(monkeypatch):
    """Batch size of every `_chunked` call, i.e. of every numpy network pass."""
    passes = []
    original = bm._chunked

    def counting(model, images, fn):
        passes.append(len(images))
        return original(model, images, fn)

    monkeypatch.setattr(bm, "_chunked", counting)
    return passes


@pytest.mark.parametrize("command,flag,value,named", [
    ("heatmap", "--class", "7", "class 7"),
    ("interaction", "--p", "0", "p=0"),     # with --class-mode pred
    ("interaction", "--p", "5", "5-cell grid"),
    ("interaction", "--p", "8", "p=8 on 16x16 images selects 1"),
    ("threshold", "--thresholds", "nan,0", "threshold nan"),
])
def test_bad_class_or_grid_is_refused_before_any_pass(workdir, tmp_path, capsys,
                                                      chunked_passes, command, flag, value,
                                                      named):
    argv = _analysis_argv(workdir, tmp_path, command)
    assert main(argv + [flag, value]) == 4
    assert named in capsys.readouterr().err
    assert chunked_passes == []
    assert main(argv) == 0       # the counter does see a valid run's passes
    assert chunked_passes


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_heatmap_class_is_typed_at_parse_time(workdir, tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(_analysis_argv(workdir, tmp_path, "heatmap") + ["--class", value])
    assert exc.value.code == 2
    assert "--class" in capsys.readouterr().err
    assert not (tmp_path / "heatmap" / "manifest.json").exists()


def test_divergence_message_names_op_epoch_and_step(workdir, tmp_path, capsys):
    rc = main(["train", "--config", "bagnet5_32", "--data", str(workdir / "train.bagd"),
               "--val", str(workdir / "val.bagd"), "--out", str(tmp_path / "div"),
               "--epochs", "2", "--batch-size", "8", "--seed", "0", "--lr0", "1e39"])
    assert rc == 5
    err = capsys.readouterr().err
    assert ("training diverged: stem.conv.weight: non-finite values produced by op "
            "'sgd_momentum_step' at epoch 0 step 0; kept the last good checkpoint") in err


@pytest.mark.parametrize("value", ["0,", "a", ""])
def test_thresholds_are_typed_at_parse_time(workdir, tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(_analysis_argv(workdir, tmp_path, "threshold") + ["--thresholds", value])
    assert exc.value.code == 2
    assert "--thresholds" in capsys.readouterr().err
    assert not (tmp_path / "threshold" / "manifest.json").exists()


@pytest.mark.parametrize("flag,value,field", [("--lr0", "nan", "lr0"),
                                              ("--lr0", "inf", "lr0"),
                                              ("--decay-factor", "inf", "decay_factor"),
                                              ("--decay-factor", "nan", "decay_factor")])
def test_non_finite_rate_or_decay_exits_4_before_any_output(workdir, tmp_path, capsys,
                                                            flag, value, field):
    rc = main(["train", "--config", "bagnet5_32", "--data", str(workdir / "train.bagd"),
               "--out", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "8",
               flag, value])
    assert rc == 4
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_decay_every_below_one_exits_4_before_any_output(workdir, tmp_path, capsys, value):
    rc = main(["train", "--config", "bagnet5_32", "--data", str(workdir / "train.bagd"),
               "--out", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "8",
               "--decay-every", value])
    assert rc == 4
    assert "decay_every_epochs" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.json").exists()
    assert not (tmp_path / "run" / "model.bagc").exists()


@pytest.mark.parametrize("flag,value,field", [("--batch-size", "0", "batch_size"),
                                              ("--batch-size", "-8", "batch_size"),
                                              ("--epochs", "-1", "epochs")])
def test_batch_size_below_one_or_negative_epochs_exits_4_before_any_output(
        workdir, tmp_path, capsys, flag, value, field):
    argv = ["train", "--config", "bagnet5_32", "--data", str(workdir / "train.bagd"),
            "--out", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "8"]
    rc = main(argv + [flag, value])
    assert rc == 4
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.json").exists()
    assert not (tmp_path / "run" / "model.bagc").exists()


@pytest.mark.parametrize("value,named", [("bagnet,mystery", "'mystery'"), ("", "''"),
                                         ("bagnet,", "''"), ("random,random", "named twice"),
                                         ("ig,bagnet,ig", "named twice")])
def test_sources_are_typed_at_parse_time(workdir, tmp_path, capsys, value, named):
    with pytest.raises(SystemExit) as exc:
        main(_analysis_argv(workdir, tmp_path, "sensitivity") + ["--sources", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--sources" in err and named in err
    assert not (tmp_path / "sensitivity" / "manifest.json").exists()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_run_after_a_usage_error_writes_what_a_fresh_process_writes(workdir, tmp_path):
    """The parser outlives each `main` call: a refused command line leaves
    nothing behind that changes the next run's artifacts."""
    argv = _analysis_argv(workdir, tmp_path, "sensitivity")
    out = tmp_path / "sensitivity"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    fresh = subprocess.run([sys.executable, "-m", "bagnet.cli", *argv], env=env,
                           capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    want = {p.name: p.read_bytes() for p in out.iterdir()}
    for p in out.iterdir():
        p.unlink()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--sources", "bagnet,bagnet"])
    assert exc.value.code == 2
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == want
    assert set(want) == {"manifest.json", "sensitivity.csv"}


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_every_manifest_is_strict_json(workdir, tmp_path, tmp_path_factory):
    """No manifest holds NaN or +-Infinity tokens; a non-finite flag value is
    written as its string. Runs last in this file, so it reads every manifest
    the file's tests wrote."""
    assert main(_analysis_argv(workdir, tmp_path, "threshold")
                + ["--thresholds=-inf,-1,0,1,inf"]) == 0
    manifest = _strict_json((tmp_path / "threshold" / "manifest.json").read_text())
    assert manifest["config"]["thresholds"] == ["-inf", -1.0, 0.0, 1.0, "inf"]
    written = list(tmp_path_factory.getbasetemp().rglob("manifest.json"))
    assert len(written) > 1
    for path in written:
        _strict_json(path.read_text())
