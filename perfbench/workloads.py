"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, repeats `round`
until the measured window closes, and checks the program's outputs against
the acceptance tolerances. Every operation (a train step, an `evaluate`, a
`forward_evidence` call, a cli command, a certificate) and every check goes
through `attempt` / `check`, which count it; an exception or a failed check
counts as a failure and the run goes on.

Why each workload exists:

* train_desk - forward + backward with train-mode batch norm and SGD is the
  cost of every desk training run and of most of the Tier-1 suite. The
  `interpret` layer does nothing here.
* infer_evidence - eval-mode forward only, no backward: `evaluate` at batch
  256, whose working set does not fit in cache, and `forward_evidence` on
  single images, whose working set does. Comparing the two separates per-op
  overhead from memory traffic.
* analyze_suite - many near-identical full forwards plus input-gradient
  backward under frozen parameters, driven through the `bagnet` cli. Local
  re-evaluation of the evidence map and de-looping act only here and should
  not move train_desk.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

bd, bm, bt, bi, cli = (importlib.import_module(f"bagnet.{m}")
                       for m in ("data", "model", "train", "interpret", "cli"))
from bagnet.autodiff import Tensor  # noqa: E402

CLASSES = 4
SIZE = 32
TEXTURE_SCALE = 8
MAX_TRACEBACKS = 3


def _seeds(seed: int, purpose: int) -> int:
    """Distinct, reproducible generator seeds per input of one workload."""
    return int(np.random.SeedSequence((seed, purpose)).generate_state(1)[0])


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _files_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    unit = ""            # what one round is
    images_unit = ""     # what images_per_s counts
    overhead_pairs = 5   # untraced / traced runs of `reference` in a traced run

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work = work_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_s: list[float] = []          # samples of op_ms_*
        self.rate_s: list[float] = []        # samples of the images_per_s timer
        self.rate_images = 0                 # images per rate sample
        self.rounds = 0
        self.checkpoint_bytes = 0

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one operation; count it, and count an exception as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self._fail(what, traceback.format_exc())
            return None

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self._fail(what, f"check failed: {what} {detail}\n")
        return ok

    def _fail(self, what: str, text: str) -> None:
        self.failed += 1
        self.failures.append(what)
        if self.failed <= MAX_TRACEBACKS:
            sys.stderr.write(f"[{self.name}] {what} failed\n{text}")

    def _dataset(self, per_class: int, size: int, scale: int, purpose: int, split: str):
        """Synthesize, write and read back a BAGD file: the load is part of
        set-up, as it is for every cli run."""
        ds = bd.synth_texture_dataset(CLASSES, per_class, size, scale,
                                      seed=_seeds(self.seed, purpose), split=split)
        path = self.work / f"{split}{size}.bagd"
        bd.save_dataset(ds, path)
        return bd.load_dataset(path, split=split), path

    # overridden -------------------------------------------------------------
    def setup(self) -> None: ...
    def round(self) -> None: ...
    def finish(self) -> None: ...
    def checks(self) -> None: ...
    def reference(self) -> str: ...
    def trace_extra(self) -> dict:
        return {}


# ---------------------------------------------------------------------------

class TrainDesk(Workload):
    """bagnet9_32 on 4-class 32 px textures at scale 8, trainer defaults
    (batch 64, lr0 0.01, momentum 0.9)."""
    name = "train_desk"
    unit = "SGD step at batch 64"
    images_unit = "training images through forward, backward and update"
    PER_CLASS = 160          # 640 images: 10 full batches per epoch
    VAL_PER_CLASS = 64
    MIN_STEPS = 48           # losses the decreasing-loss check compares

    def setup(self) -> None:
        self.train_set, _ = self._dataset(self.PER_CLASS, SIZE, TEXTURE_SCALE, 1, "train")
        self.val_set, _ = self._dataset(self.VAL_PER_CLASS, SIZE, TEXTURE_SCALE, 2, "val")
        self.config = bt.TrainConfig(seed=self.seed)
        self.model = bm.build_model(bm.bagnet9_32(CLASSES), seed=self.seed)
        self.model.norm_mean, self.model.norm_std = bd.channel_stats(self.train_set)
        self.model.train_mode()
        self.epoch = 0
        self.batches = self._epoch_batches()
        self.ref_batch = next(self._epoch_batches())
        self.losses: list[float] = []
        self.phases = {"batch_wait": [], "forward": [], "backward": [], "optimizer": []}
        self._step(*self.ref_batch)          # warm-up
        self.losses.clear()

    def _epoch_batches(self):
        stats = (self.model.norm_mean, self.model.norm_std)
        return bd.batch_iterator(self.train_set, self.config.batch_size, self.config.seed,
                                 self.epoch, stats, self.config.augment)

    def _next_batch(self):
        try:
            return next(self.batches)
        except StopIteration:
            self.epoch += 1
            self.batches = self._epoch_batches()
            return next(self.batches)

    def _step(self, x, y):
        """The body of `train`'s inner loop."""
        t0 = perf_counter()
        loss = bt.softmax_cross_entropy(bm.forward_logits(self.model, Tensor(x)), y)
        t1 = perf_counter()
        self.model.zero_grad()
        loss.backward()
        t2 = perf_counter()
        bt.sgd_momentum_step(self.model.parameters(), bt.lr_at(self.config, self.epoch),
                             self.config.momentum)
        t3 = perf_counter()
        self.losses.append(loss.item())
        return loss, (t1 - t0, t2 - t1, t3 - t2)

    def round(self) -> None:
        def step():
            t0 = perf_counter()
            x, y = self._next_batch()
            wait = perf_counter() - t0
            _, (fwd, bwd, opt) = self._step(x, y)
            self.op_s.append(perf_counter() - t0)
            self.rate_s.append(self.op_s[-1])
            self.rate_images = len(x)
            for key, value in zip(self.phases, (wait, fwd, bwd, opt)):
                self.phases[key].append(value)
        self.attempt("train step", step)

    def finish(self) -> None:
        """Untimed steps up to MIN_STEPS when the window was short, then one
        evaluate over val and a BAGC save / load / save round trip."""
        while len(self.losses) < self.MIN_STEPS:
            if self.attempt("train step", lambda: self._step(*self._next_batch())) is None:
                break
        self.model.eval_mode()
        self.eval_result = self.attempt("evaluate", bt.evaluate, self.model, self.val_set)
        tensors = bt.snapshot_tensors(self.model)
        ckpt = bt.Checkpoint(self.model.config, tensors, self.epoch, self.seed)
        first, second = self.work / "model.bagc", self.work / "again.bagc"
        self.attempt("save checkpoint", bt.save_checkpoint, ckpt, first)
        loaded = self.attempt("load checkpoint", bt.load_checkpoint, first)
        if loaded is not None:
            self.attempt("save checkpoint", bt.save_checkpoint, loaded, second)
        self.round_trip = (loaded, first, second, tensors)
        self.checkpoint_bytes = first.stat().st_size if first.exists() else 0

    def checks(self) -> None:
        losses = np.array(self.losses)
        quarter = max(len(losses) // 4, 1)
        self.check("train loss finite", bool(np.all(np.isfinite(losses))))
        self.check("train loss decreasing", len(losses) >= self.MIN_STEPS and
                   losses[-quarter:].mean() < losses[:quarter].mean(),
                   f"first quarter {losses[:quarter].mean():.4f} "
                   f"last quarter {losses[-quarter:].mean():.4f}")
        loaded, first, second, tensors = self.round_trip
        same_bytes = (loaded is not None and second.exists()
                      and first.read_bytes() == second.read_bytes())
        self.check("BAGC round trip byte-identical", same_bytes)
        same_tensors = loaded is not None and all(
            np.array_equal(loaded.tensors[k], v) for k, v in tensors.items())
        self.check("BAGC round trip tensors", same_tensors)
        if loaded is not None and self.eval_result is not None:
            again = bt.evaluate(bt.model_from_checkpoint(loaded), self.val_set)
            self.check("reloaded model evaluates bit for bit",
                       np.array_equal(again.logits, self.eval_result.logits))

    def reference(self) -> str:
        """One train step from a fixed state and batch; the state is put back."""
        saved = bt.snapshot_tensors(self.model)
        mode, epoch, n_losses = self.model.mode, self.epoch, len(self.losses)
        self.model.train_mode()
        loss, _ = self._step(*self.ref_batch)
        after = bt.snapshot_tensors(self.model)
        bt.restore_tensors(self.model, saved)
        self.model.mode, self.epoch = mode, epoch
        del self.losses[n_losses:]
        return _digest(loss.data, *(after[k] for k in sorted(after)))

    def trace_extra(self) -> dict:
        per_round = {k: 1e3 * float(np.mean(v)) if v else 0.0 for k, v in self.phases.items()}
        return {
            "data.batch_wait_ms": per_round["batch_wait"],
            "train.step.forward_ms": per_round["forward"],
            "train.step.backward_ms": per_round["backward"],
            "train.step.optimizer_ms": per_round["optimizer"],
        }


# ---------------------------------------------------------------------------

class InferEvidence(Workload):
    """Eval-mode bagnet9_32: `evaluate` at batch 256 over a 256-image val set,
    then `forward_evidence` on single val images."""
    name = "infer_evidence"
    unit = "forward_evidence call on one image"
    images_unit = "val images through evaluate at batch 256"
    VAL_PER_CLASS = 64       # 256 images: one batch of 256 per evaluate
    EVIDENCE_PER_ROUND = 64
    ORACLE_IMAGES = 3

    def setup(self) -> None:
        self.val_set, _ = self._dataset(self.VAL_PER_CLASS, SIZE, TEXTURE_SCALE, 3, "val")
        self.model = bm.build_model(bm.bagnet9_32(CLASSES), seed=self.seed)
        self.model.norm_mean, self.model.norm_std = bd.channel_stats(self.val_set)
        self.model.eval_mode()
        self.images = bi.norm_images(self.model, self.val_set, np.arange(self.val_set.count))
        self.next_image = 0
        self.logits = None
        bm.forward_evidence(self.model, self.images[0])      # warm-up

    def round(self) -> None:
        t0 = perf_counter()
        result = self.attempt("evaluate", bt.evaluate, self.model, self.val_set, 1, 256)
        if result is not None:
            self.rate_s.append(perf_counter() - t0)
            self.rate_images = self.val_set.count
            if self.logits is None:
                self.logits = result.logits
            self.check("evaluate repeats bit for bit",
                       np.array_equal(result.logits, self.logits))
        for _ in range(self.EVIDENCE_PER_ROUND):
            idx = self.next_image
            self.next_image = (idx + 1) % self.val_set.count
            t0 = perf_counter()
            em = self.attempt("forward_evidence", bm.forward_evidence, self.model,
                              self.images[idx])
            if em is None:
                continue
            self.op_s.append(perf_counter() - t0)
            if self.logits is not None:
                # criterion 2: averaging evidence equals the image logits
                gap = float(np.abs(bm.image_logits(em) - self.logits[idx]).max())
                if gap > 1e-4:
                    self._fail("forward_evidence", f"image {idx}: evidence mean is "
                               f"{gap:.2e} from the evaluate logits\n")

    def checks(self) -> None:
        rng = np.random.default_rng(_seeds(self.seed, 4))
        for idx in rng.choice(self.val_set.count, self.ORACLE_IMAGES, replace=False):
            fast = bm.forward_evidence(self.model, self.images[idx])
            slow = bm.patch_oracle_evidence(self.model, self.images[idx])
            gap = float(np.abs(fast.logits - slow.logits)[:, fast.interior_mask()].max())
            self.check("forward_evidence matches the patch oracle", gap <= 1e-4,
                       f"image {idx} gap {gap:.2e}")

    def reference(self) -> str:
        result = bt.evaluate(self.model, self.val_set, 1, 256)
        maps = [bm.forward_evidence(self.model, self.images[i]).logits for i in range(8)]
        return _digest(result.logits, *maps)


# ---------------------------------------------------------------------------

class AnalyzeSuite(Workload):
    """Checkpoints made in set-up (bagnet9_32, and bagnet3_33 whose evidence
    locations tile the image, for scramble), driven through in-process
    `bagnet.cli.main`, plus `certify_receptive_field`.

    Sizes keep the round near one second, so a run has enough rounds for a
    steady p10. Sensitivity on one image (0.3 s on a 2-core x86 box) is the
    largest part; each other part takes 0.1 to 0.2 s, so a speed-up of any
    one of them moves the round time."""
    name = "analyze_suite"
    unit = "round of five analyze commands and one certificate"
    images_unit = "images analysed by the five analyze commands"
    overhead_pairs = 2
    VAL32_PER_CLASS = 12     # 48 images
    VAL33_PER_CLASS = 8      # 32 images
    LIMITS = {"sensitivity": 1, "interaction": 12, "patches": 48, "threshold": 24,
              "scramble": 32}
    CERT_TRIALS = 1

    def setup(self) -> None:
        self.val32, v32 = self._dataset(self.VAL32_PER_CLASS, SIZE, TEXTURE_SCALE, 5, "val")
        self.val33, v33 = self._dataset(self.VAL33_PER_CLASS, 33, 3, 6, "val")
        paths = {}
        for tag, config, ds in (("c9", bm.bagnet9_32(CLASSES), self.val32),
                                ("c3", bm.bagnet3_33(CLASSES), self.val33)):
            model = bm.build_model(config, seed=self.seed)
            model.norm_mean, model.norm_std = bd.channel_stats(ds)
            paths[tag] = self.work / f"{tag}.bagc"
            bt.save_checkpoint(bt.Checkpoint(config, bt.snapshot_tensors(model), 0, self.seed),
                               paths[tag])
        self.checkpoint_bytes = paths["c9"].stat().st_size
        self.model = bt.model_from_checkpoint(bt.load_checkpoint(paths["c9"]))
        _, hm, wm = bm.forward_evidence(self.model, np.zeros((3, SIZE, SIZE), np.float32)
                                        ).logits.shape          # warm-up
        self.location = (hm // 2, wm // 2)
        out = self.work / "out"
        lim = {k: str(v) for k, v in self.LIMITS.items()}
        seed = str(self.seed)

        def args(analysis, ckpt, data, *extra):
            return ["analyze", analysis, "--checkpoint", str(paths[ckpt]), "--data", str(data),
                    "--out", str(out / analysis), "--limit", lim[analysis], *extra]

        self.commands = [
            args("sensitivity", "c9", v32, "--sources", "bagnet,saliency,ig,random",
                 "--seed", seed),
            args("interaction", "c9", v32, "--p", "8"),
            args("patches", "c9", v32, "--class", "0", "--k", "4"),
            args("threshold", "c9", v32, "--mode", "both", "--thresholds=-inf,-1,0,1"),
            args("scramble", "c3", v33, "--seed", seed),
        ]
        self.out = out
        self.analysed = sum(self.LIMITS.values())
        self.digest = None
        self.command_s: dict[str, list[float]] = {}

    def _suite(self) -> tuple:
        """Run every part once; returns (seconds per part, certificate)."""
        seconds, sink = {}, io.StringIO()
        for argv in self.commands:
            t0 = perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.attempt(f"bagnet {argv[0]} {argv[1]}", cli.main, argv)
            seconds[argv[1]] = perf_counter() - t0
            if code not in (0, None):
                self._fail(f"bagnet {argv[0]} {argv[1]}", f"exit code {code}\n{sink.getvalue()}")
        t0 = perf_counter()
        cert = self.attempt("certify_receptive_field", bm.certify_receptive_field,
                            self.model, self.location, trials=self.CERT_TRIALS, seed=self.seed)
        seconds["certify"] = perf_counter() - t0
        if cert is not None and not cert.passed:
            self._fail("certify_receptive_field", f"{cert}\n")
        return seconds, cert

    def round(self) -> None:
        t0 = perf_counter()
        seconds, _ = self._suite()
        elapsed = perf_counter() - t0
        for part, s in seconds.items():
            self.command_s.setdefault(part, []).append(s)
        self.op_s.append(elapsed)
        self.rate_s.append(elapsed)
        self.rate_images = self.analysed
        digest = _files_digest(self.out)
        if self.digest is None:
            self.digest = digest
        self.check("analysis artifacts byte-identical across rounds", digest == self.digest)

    def checks(self) -> None:
        rows = [line.split(",") for line in
                (self.out / "interaction" / "interaction.csv").read_text().splitlines()[1:-1]]
        lhs = np.array([float(r[1]) for r in rows])
        rhs = np.array([float(r[2]) for r in rows])
        gap = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))
        self.check("interaction lhs = rhs", len(rows) == self.LIMITS["interaction"]
                   and gap <= 1e-3, f"max relative gap {gap:.2e}")

        scramble = dict(line.split(",") for line in
                        (self.out / "scramble" / "scramble.csv").read_text().splitlines()[1:])
        self.check("scramble logit delta", float(scramble["max_logit_delta"]) < 1e-5,
                   scramble["max_logit_delta"])
        self.check("scramble keeps accuracy",
                   scramble["clean_accuracy"] == scramble["scrambled_accuracy"])

        probs = [float(line.split(",")[2]) for line in
                 (self.out / "sensitivity" / "sensitivity.csv").read_text().splitlines()[1:]]
        self.check("sensitivity curves", len(probs) == 4 * 9 and
                   all(0.0 <= p <= 1.0 for p in probs))

        clamp = [line.split(",") for line in
                 (self.out / "threshold" / "threshold.csv").read_text().splitlines()[1:]]
        direct = bt.evaluate(self.model, bd.subset(self.val32, np.arange(self.LIMITS["threshold"])))
        vanilla = next(float(r[3]) for r in clamp if r[0] == "clamp" and r[1] == "-inf")
        self.check("clamp at -inf equals evaluate", abs(vanilla - direct.topk_accuracy) <= 1e-9)

        ppms = list((self.out / "patches" / "patches").glob("*.ppm"))
        self.check("top patches written", len(ppms) == 8)

        # criterion 10: integrated gradients complete within 1% at 64 steps
        rng = np.random.default_rng(_seeds(self.seed, 7))
        idx = int(rng.integers(self.val32.count))
        img = bi.norm_images(self.model, self.val32, [idx])[0]
        logits = bi.batch_logits(self.model, img[None])[0]
        cls = int(np.argmax(logits))
        ig = bi.integrated_gradients(self.model, img, cls, steps=64)
        gap = float(logits[cls] - bi.batch_logits(self.model, np.zeros_like(img)[None])[0, cls])
        err = abs(float(ig.sum()) - gap) / max(abs(gap), 1e-3)
        self.check("integrated gradients completeness", err <= 0.01, f"error {err:.4f}")

    def reference(self) -> str:
        _, cert = self._suite()
        return _files_digest(self.out) + repr((cert.max_leakage, cert.center_response))


WORKLOADS = {w.name: w for w in (TrainDesk, InferEvidence, AnalyzeSuite)}
