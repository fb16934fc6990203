"""Benchmark of the bagnet package: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 0 --seconds 30 --trace 0

The package is imported from ./src of the current directory, never from an
installed copy; without ./src/bagnet the run exits with code 2 and prints no
result. BLAS threads are capped at the number of usable cores before numpy
is imported.

With --trace 0 the last line of stdout is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the per-layer
metrics, taken by wrapping the package's functions (see tracer.py). A report
with the sample counts, the environment and, when traced, the per-layer rows
and spans is written to .perfbench_out/. See perfbench/README.md for what
each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

WORKLOAD_NAMES = ("train_desk", "infer_evidence", "analyze_suite")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5          # at least this many set-ups,
SETUP_MIN_SECONDS = 3.0    # and more while they take less than this in total
OUT_DIR = ".perfbench_out"

# per-workload names for some figures, and the gated or ungated figure each
# one is
ALIASES = {
    "train_desk": {"train_images_per_s": "images_per_s", "train_step_ms_p50": "op_ms_p50",
                   "train_step_ms_p90": "op_ms_p90"},
    "infer_evidence": {"eval_images_per_s": "images_per_s", "evidence_ms_p50": "op_ms_p50",
                       "evidence_ms_p90": "op_ms_p90"},
    "analyze_suite": {},
}

E2E_UNITS = {"setup_s": "s", "images_per_s": "images/s", "op_ms_p10": "ms", "peak_rss_mb": "MB"}

# Timings are summarised by their 10th percentile. On a shared machine the
# slow samples are mostly time lost to other tenants (the same reason timeit
# recommends the minimum); the 10th percentile keeps that noise out of the
# gated figures while using more than a single sample.
GATED_PERCENTILE = 10

ANALYSES = ("masking_sensitivity", "interaction_experiment", "top_patches",
            "threshold_sweep", "scramble_test")
SUBCOMMANDS = ("sensitivity", "interaction", "patches", "threshold", "scramble")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": nproc, "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def run(args, root: Path) -> dict:
    # both import bagnet, which main() has just put on sys.path
    from tracer import Tracer, OPS, MASKING_ANALYSES, layer_rows
    from workloads import WORKLOADS

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tracer = Tracer() if args.trace else None

    def traced():
        return tracer.installed() if tracer else contextlib.nullcontext()

    w = WORKLOADS[args.workload](args.seed, work)
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
            with traced():
                t0 = perf_counter()
                w.setup()
                setup_s.append(perf_counter() - t0)

        overhead_ms = 0.0
        if tracer:
            # the same unit of work untraced and traced, from the same state
            outputs, times = {False: set(), True: set()}, {False: [], True: []}
            for pair in range(w.overhead_pairs):
                for tracing in ((False, True) if pair % 2 == 0 else (True, False)):
                    with Tracer().installed() if tracing else contextlib.nullcontext():
                        t0 = perf_counter()
                        outputs[tracing].add(w.reference())
                        times[tracing].append(perf_counter() - t0)
            # the fastest of each side: noise on a shared machine only adds time
            overhead_ms = 1e3 * (min(times[True]) - min(times[False]))
            w.check("traced outputs bitwise equal to untraced",
                    len(outputs[False]) == 1 and outputs[False] == outputs[True])

        with traced():
            if tracer:
                tracer.reset_ops()
            t_start = perf_counter()
            while perf_counter() - t_start < args.seconds:
                w.round()
                w.rounds += 1
            t_end = perf_counter()
            window = tracer.snapshot() if tracer else None
            w.finish()
        w.checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = max(w.rounds, 1)
    rate_s = percentile(w.rate_s, GATED_PERCENTILE)
    e2e = {
        "setup_s": (statistics.median(setup_s), f"median of {len(setup_s)} set-ups"),
        "images_per_s": (w.rate_images / rate_s if rate_s else 0.0,
                         f"{w.rate_images} {w.images_unit} / p{GATED_PERCENTILE} of "
                         f"{len(w.rate_s)} timings"),
        "op_ms_p10": (1e3 * percentile(w.op_s, GATED_PERCENTILE), f"n={len(w.op_s)} x {w.unit}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of the process"),
    }
    # ungated: the median and upper tail, with their sample counts
    ungated = {f"op_ms_p{q}": 1e3 * percentile(w.op_s, q) for q in (50, 90)}
    for part, times in getattr(w, "command_s", {}).items():
        ungated[f"{part}_s"] = statistics.median(times)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": w.rounds, "round": w.unit,
              "window_s": t_end - t_start, "attempted": w.attempted, "failed": w.failed,
              "failures": sorted(set(w.failures)),
              "samples_ms": {"op": [1e3 * t for t in w.op_s], "rate": [1e3 * t for t in w.rate_s],
                             "setup": [1e3 * t for t in setup_s]},
              "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k], "base": base}
                             for k, (v, base) in e2e.items()},
              "ungated": ungated}
    figures = {**{k: v for k, (v, _) in e2e.items()}, **ungated}
    report["aliases"] = {alias: figures[key] for alias, key in ALIASES[args.workload].items()}

    if tracer:
        totals = {op: [0.0, 0.0, 0] for op in OPS}
        for (_, op), rec in window["ops"].items():
            for i in range(3):
                totals[op][i] += rec[i]
        per_layer = {}
        for op, (fwd, bwd, calls) in totals.items():
            per_layer[f"autodiff.{op}.fwd_ms"] = 1e3 * fwd / rounds
            per_layer[f"autodiff.{op}.bwd_ms"] = 1e3 * bwd / rounds
            per_layer[f"autodiff.{op}.calls"] = calls / rounds
        per_layer["autodiff.sgd_momentum_step.ms"] = tracer.per_call_ms(
            "autodiff.sgd_momentum_step")
        per_layer["autodiff.conv2d.gflop"] = window["conv_flop"] / 1e9 / rounds
        per_layer["autodiff.conv2d.mbytes"] = window["conv_bytes"] / 1e6 / rounds
        extra = w.trace_extra()
        per_layer["data.batch_wait_ms"] = extra.get("data.batch_wait_ms", 0.0)
        for name in ("synth_texture_dataset", "load_dataset"):
            per_layer[f"data.{name}.ms"] = tracer.per_call_ms(f"data.{name}")
        for phase in ("forward", "backward", "optimizer"):
            per_layer[f"train.step.{phase}_ms"] = extra.get(f"train.step.{phase}_ms", 0.0)
        for name in ("evaluate", "save_checkpoint", "load_checkpoint"):
            per_layer[f"train.{name}.ms"] = tracer.per_call_ms(f"train.{name}")
        per_layer["train.checkpoint_bytes"] = float(w.checkpoint_bytes)
        per_layer["model.forward_features.ms"] = tracer.per_call_ms("model.forward_features")
        per_layer["model.forward_features.images"] = tracer.sizes_between(
            "model.forward_features", t_start, t_end) / rounds
        per_layer["model.forward_evidence.ms"] = tracer.per_call_ms("model.forward_evidence")
        forwards, _, certs, _ = tracer.nested({"model.certify_receptive_field"},
                                              "model.forward_features")
        per_layer["model.certify_receptive_field.forwards"] = forwards / certs if certs else 0.0
        for name in ANALYSES:
            per_layer[f"interpret.{name}.ms"] = tracer.per_call_ms(f"interpret.{name}")
        _, forwarded, _, analysed = tracer.nested(set(MASKING_ANALYSES), "model.forward_features")
        per_layer["interpret.images_forwarded_per_image"] = (forwarded / analysed
                                                             if analysed else 0.0)
        per_layer["interpret.useful_location_ratio"] = (
            window["useful_locations"] / window["recomputed_locations"]
            if window["recomputed_locations"] else 0.0)
        for sub in SUBCOMMANDS:
            per_layer[f"cli.analyze_{sub}.self_ms"] = tracer.self_ms(f"cli.analyze_{sub}")
        per_layer["trace.overhead_ms"] = overhead_ms
        report["per_layer"] = per_layer
        report["computed_bases"] = {
            "autodiff.conv2d.gflop": "2 flop per multiply-add from tensor shapes, per round",
            "autodiff.conv2d.mbytes": "float32 reads and writes from tensor shapes, per round",
            "interpret.images_forwarded_per_image":
                f"{forwarded} images forwarded / {analysed} images analysed",
            "interpret.useful_location_ratio":
                f"{window['useful_locations']} locations whose window meets a mask / "
                f"{window['recomputed_locations']} recomputed, over "
                f"{window['mask_variants']} masked variants",
            "trace.overhead_ms": f"fastest traced minus fastest untraced time of one "
                                 f"reference unit, {w.overhead_pairs} of each, alternating",
        }
        report["layer_rows"] = layer_rows(window["ops"], rounds)
        report["spans"] = [[n, round(1e3 * (t0 - t_start), 4), round(1e3 * (t1 - t0), 4), p, s]
                           for n, t0, t1, p, s in tracer.spans]
    return report


def print_report(report: dict) -> None:
    print(f"bagnet benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"{report['rounds']} rounds ({report['round']}) in {report['window_s']:.1f} s")
    for name, m in report["end_to_end"].items():
        print(f"  {name:<14} {m['value']:>12.4f} {m['unit']:<9} {m['base']}")
    n = len(report["samples_ms"]["op"])
    for name, value in report["ungated"].items():
        base = "median over rounds" if name.endswith("_s") else f"n={n}"
        print(f"  ungated {name:<14} {value:>12.4f} {base}")
    for name, value in report["aliases"].items():
        print(f"  alias {name} = {value:.4f}")
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(f"  failed_ratio   {ratio:>12.4f} ratio     "
          f"{report['failed']} failed / {report['attempted']} attempted")
    if "per_layer" in report:
        print("per-layer (ms and counts per round unless the name says per call):")
        for name, value in report["per_layer"].items():
            print(f"  {name:<44} {value:>14.4f}")
        for name, base in report["computed_bases"].items():
            print(f"  computed: {name}: {base}")
        print(f"  {'layer':<16} {'op':<22} {'fwd_ms':>10} {'bwd_ms':>10} {'calls':>7}")
        for row in report["layer_rows"]:
            print(f"  {row['layer']:<16} {row['op']:<22} {row['fwd_ms']:>10.3f} "
                  f"{row['bwd_ms']:>10.3f} {row['calls']:>7.2f}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "bagnet" / "__init__.py").is_file():
        print(f"perfbench: no bagnet package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(src))
    import bagnet
    if Path(bagnet.__file__).resolve().parent != (src / "bagnet").resolve():
        print(f"perfbench: imported bagnet from {bagnet.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    report = run(args, root)
    report["environment"] = environment(nproc)
    with open(root / OUT_DIR /
              f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    metrics = (report["per_layer"] if args.trace else
               {k: v["value"] for k, v in report["end_to_end"].items()})
    units = {} if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k) or per_layer_unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    for suffix, unit in ((".calls", "count"), (".gflop", "GFLOP"), (".mbytes", "MB"),
                         (".images", "count"), (".forwards", "count"),
                         ("_bytes", "bytes"), ("_per_image", "count"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


if __name__ == "__main__":
    sys.exit(main())
