"""The benchmark's workloads: set-up, timed phases and correctness checks.

Each workload reports the same four end-to-end figures:

  setup_s             median of SETUP_REPEATS set-ups (synthesis, stats,
                      image loading, parameter init, checkpoint round trip)
  op_s                median seconds of the workload's unit operation
  eval_patches_per_s  patches per second through the patch-wise network in
                      eval mode, crops included
  peak_rss_mb         ru_maxrss of this process after the timed phases

A training phase runs the trainer's own loop and ends it from a step hook
(``hooks.Stop``) once its time budget is spent and at least ``min_steps``
steps were timed, so every run measures for about ``--seconds`` seconds yet
never checks a model trained for fewer steps than the checks need.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from histopatch import autodiff, checkpoint, data, model, ops, rng, trainer
from histopatch.tensor import Tensor

import hooks
import reference

SETUP_REPEATS = 5
N_CLASSES = 4


@dataclass(frozen=True)
class Sizes:
    image_w: int
    image_h: int
    window: int
    stride: int           # stage-one patch stride
    base_width: int       # B
    feature_depth: int    # C
    head_depth: int       # D
    batch: int
    per_class: int        # synthetic images per class (paper-infer: its coverage set)
    min_steps: int        # timed SGD steps (or inference calls) before a phase may end
    min_val_acc: float | None  # None: too few steps for a learning check


DESK = Sizes(256, 192, 64, 32, 8, 8, 64, 32, 16, 40, 0.5)
FULL = {
    "desk-train-patch": DESK,
    "desk-train-image": dataclasses.replace(DESK, per_class=32, min_steps=150),
    "paper-infer": Sizes(2048, 1536, 512, 512, 16, 16, 64, 2, 3, 2, None),
}
_TOY_DESK = Sizes(128, 96, 32, 16, 2, 2, 8, 8, 4, 2, None)
TOY = {
    "desk-train-patch": _TOY_DESK,
    "desk-train-image": _TOY_DESK,
    "paper-infer": Sizes(160, 120, 40, 40, 2, 2, 8, 2, 3, 2, None),
}


class Checks:
    """Named pass/fail results; a name that fails once stays failed."""

    def __init__(self):
        self.results: dict[str, tuple[bool, str]] = {}

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        if self.results.get(name, (True, ""))[0]:
            self.results[name] = (bool(ok), detail)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.results.values())


class StepClock:
    """Times the SGD steps of one training call from its step hook."""

    def __init__(self, budget_s: float, min_steps: int):
        self.t0 = time.perf_counter()
        self.budget_s = budget_s
        self.min_steps = min_steps
        self.mark: float | None = None  # end of the last step or epoch
        self.steps: list[float] = []     # seconds per step after the first
        self.count = 0
        self.losses: list[float] = []
        self.params: dict[str, Tensor] | None = None

    def epoch_end(self, epoch: int, params) -> None:
        self.mark = time.perf_counter()

    def step_done(self, params) -> None:
        now = time.perf_counter()
        self.count += 1
        self.params = params
        if self.mark is not None:  # the first step also holds image loading and init
            self.steps.append(now - self.mark)
        self.mark = now
        if len(self.steps) >= self.min_steps and now - self.t0 >= self.budget_s:
            raise hooks.Stop


class Recorder:
    """Boundary hooks that stay on in untraced runs: step ends, batch losses
    and the feature stacks ``image_feature_stack`` returns, with their time.
    They add a few timer reads per step and copy nothing."""

    def __init__(self):
        self.clock: StepClock | None = None
        self.stacks: list[tuple[float, Tensor]] = []

    def install(self, patcher: hooks.Patcher) -> None:
        patcher.wrap(trainer, "sgd_step", self._sgd_step)
        patcher.wrap(ops, "cross_entropy", self._cross_entropy)
        patcher.wrap(model, "image_feature_stack", self._feature_stack)

    def train(self, clock: StepClock, fit, *args, **kwargs) -> StepClock:
        """Run a trainer call until ``clock`` stops it."""
        self.clock = clock
        try:
            fit(*args, epoch_hook=clock.epoch_end, **kwargs)
        except hooks.Stop:
            pass
        finally:
            self.clock = None
        return clock

    def _sgd_step(self, sgd_step):
        def hooked(params, *args, **kwargs):
            out = sgd_step(params, *args, **kwargs)
            if self.clock is not None:
                self.clock.step_done(params)
            return out
        return hooked

    def _cross_entropy(self, cross_entropy):
        def hooked(*args, **kwargs):
            out = cross_entropy(*args, **kwargs)
            if self.clock is not None:
                self.clock.losses.append(out.item())
            return out
        return hooked

    def _feature_stack(self, image_feature_stack):
        def hooked(*args, **kwargs):
            t = time.perf_counter()
            out = image_feature_stack(*args, **kwargs)
            self.stacks.append((time.perf_counter() - t, out))
            return out
        return hooked


@dataclass
class Context:
    sizes: Sizes
    seed: int
    seconds: float
    work: Path
    rec: Recorder
    tracer: hooks.Tracer | None
    checks: Checks
    attempted: int = 0

    def phase(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase


# ---------------------------------------------------------------------------
# shared pieces

def _timed_setups(ctx: Context, setup) -> tuple[float, object]:
    times, result = [], None
    for i in range(SETUP_REPEATS):
        t = time.perf_counter()
        result = setup(ctx.work / f"setup{i}")
        times.append(time.perf_counter() - t)
        ctx.attempted += 1
    return statistics.median(times), result


def _round_trip(ctx: Context, path: Path, spec, params):
    """Save and reload a checkpoint; the reload must give the same bits."""
    checkpoint.save_checkpoint(path, spec, params, {"seed": ctx.seed})
    spec2, loaded, _ = checkpoint.load_checkpoint(path, expect_kind=spec.kind)
    same = spec2 == spec and sorted(loaded) == sorted(params) and all(
        np.array_equal(loaded[k].data, params[k].data) for k in params)
    ctx.checks.add("checkpoint round trip gives identical bits", same)
    return loaded


def _desk_setup(ctx: Context, per_class: int):
    s = ctx.sizes

    def setup(directory: Path):
        manifest = data.generate_dataset_dir(directory, per_class, s.image_w, s.image_h, ctx.seed)
        manifest = dataclasses.replace(manifest, stats=data.compute_norm_stats(manifest))
        data.save_manifest(directory / "manifest.json", manifest)
        manifest = data.load_manifest(directory / "manifest.json")
        val = data.load_images(manifest, "val", normalized=True)
        spec = model.canonical_patchwise_spec(s.base_width, s.feature_depth)
        params = _round_trip(ctx, directory / "patchwise.ckpt", spec,
                             model.init_params(spec, ctx.seed))
        return manifest, val, spec, params
    return setup


def _patch_config(ctx: Context, **over) -> trainer.TrainConfig:
    s = ctx.sizes
    cfg = dict(stage="patchwise", seed=ctx.seed, batch_size=s.batch, max_epochs=10 ** 6,
               patience=10 ** 6, window=s.window, stride=s.stride, base_width=s.base_width,
               feature_depth=s.feature_depth)
    cfg.update(over)
    return trainer.TrainConfig(**cfg)


def _image_config(ctx: Context) -> trainer.TrainConfig:
    s = ctx.sizes
    return trainer.TrainConfig(stage="imagewise", seed=ctx.seed, batch_size=s.batch,
                               max_epochs=10 ** 6, patience=10 ** 6, window=s.window,
                               head_depth=s.head_depth)


def _iw_spec(s: Sizes, n_patches: int) -> model.NetworkSpec:
    return model.canonical_imagewise_spec(n_patches=n_patches, feature_depth=s.feature_depth,
                                          head_depth=s.head_depth)


def _grid(w: int, h: int, window: int, stride: int) -> tuple[int, int]:
    """Patches per row and column, recomputed here rather than asked of the program."""
    return 1 + (w - window) // stride, 1 + (h - window) // stride


def _copy(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(v.data.copy(), requires_grad=v.requires_grad) for k, v in params.items()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_training(ctx: Context, clock: StepClock, stage: str, val_acc: float) -> None:
    checks = ctx.checks
    checks.add(f"{stage}: every parameter is finite",
               all(np.isfinite(t.data).all() for t in clock.params.values()))
    if ctx.sizes.min_val_acc is not None:
        k = min(5, len(clock.losses) // 2)
        first, last = statistics.fmean(clock.losses[:k]), statistics.fmean(clock.losses[-k:])
        checks.add(f"{stage}: training loss falls", last < first,
                   f"mean of first {k} batches {first:.4f}, last {k} {last:.4f}")
        checks.add(f"{stage}: val accuracy >= {ctx.sizes.min_val_acc}",
                   val_acc >= ctx.sizes.min_val_acc, f"val accuracy {val_acc:.4f}")


def _check_convs(ctx: Context, capture: reference.ConvCapture, where: str) -> None:
    for (chw, wshape, stride, padding), call in capture.calls.items():
        ratios = reference.check_conv(call)
        bad = {k: v for k, v in ratios.items() if not v <= 1.0}
        ctx.checks.add(
            f"{where}: conv {wshape[1]}->{wshape[0]} k{wshape[2]} s{stride} at "
            f"{chw[1]}x{chw[2]} within float32 bound of float64 reference "
            f"({'+'.join(ratios)})", not bad, f"error/bound {bad}")


def _train_step_checked(ctx: Context, spec, params, batch: np.ndarray, labels: np.ndarray,
                        where: str, **forward) -> None:
    """One taped forward/backward with every conv captured and compared with
    the float64 reference, and the loss compared with a float64 cross-entropy."""
    capture = reference.ConvCapture()
    with hooks.Patcher() as patcher:
        capture.install(patcher)
        tape = autodiff.Tape()
        logits = model.network_forward(spec, _copy(params), Tensor(batch), "train", tape=tape,
                                       **forward)
        loss = ops.cross_entropy(logits, labels, tape=tape)
        tape.backward(loss)
    exact, tol = reference.cross_entropy64(logits.data, labels)
    ctx.checks.add(f"{where}: cross-entropy within float32 bound of float64 reference",
                   abs(loss.item() - exact) <= tol, f"{loss.item()} vs {exact}")
    _check_convs(ctx, capture, where)


def _check_tile_alone(ctx: Context, spec, params, image: Tensor, stack: Tensor) -> None:
    """A tile's features extracted on their own equal its slice of the batched
    call, and the convolutions of that call match the float64 reference."""
    s = ctx.sizes
    nx, ny = _grid(image.shape[2], image.shape[1], s.window, s.window)
    t = ctx.seed % (nx * ny)
    x, y = (t % nx) * s.window, (t // nx) * s.window
    tile = image.data[None, :, y:y + s.window, x:x + s.window]
    capture = reference.ConvCapture()
    with hooks.Patcher() as patcher:
        capture.install(patcher)
        alone = model.extract_features(spec, params, Tensor(tile))
    c = s.feature_depth
    ctx.checks.add("feature stack has shape (tiles*C, window/8, window/8)",
                   stack.shape == (nx * ny * c, s.window // 8, s.window // 8), str(stack.shape))
    ctx.checks.add("a tile's features extracted alone equal its slice of the batched call",
                   np.array_equal(alone.data[0], stack.data[t * c:(t + 1) * c]))
    _check_convs(ctx, capture, "stage one eval")


def _dropout_rng(ctx: Context):
    return lambda layer: rng.derive(ctx.seed, f"bench.dropout.l{layer}")


def _cover_infer(ctx: Context, pw_spec, pw_params, iw_params, image: Tensor) -> None:
    """Coverage: one full two-stage classification (the softmax path)."""
    nx, ny = _grid(image.shape[2], image.shape[1], ctx.sizes.window, ctx.sizes.window)
    model.infer_image(pw_spec, pw_params, _iw_spec(ctx.sizes, nx * ny), iw_params, image,
                      ctx.sizes.window)


# ---------------------------------------------------------------------------
# workloads

def _val_passes(ctx: Context, spec, params, val, seconds: float):
    """At least two ``evaluate_patches`` passes over ``val``, for ``seconds``."""
    s = ctx.sizes
    passes, confusions = [], []
    t0 = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - t0 < seconds:
        t = time.perf_counter()
        confusions.append(trainer.evaluate_patches(spec, params, val, s.window, s.stride))
        passes.append(time.perf_counter() - t)
    ctx.attempted += len(passes)
    ctx.checks.add("repeated validation passes give the same confusion matrix",
                   all(np.array_equal(cm, confusions[0]) for cm in confusions))
    return passes, confusions


def desk_train_patch(ctx: Context) -> dict[str, float]:
    """Stage one at desk scale, between two windows of validation passes.

    Validation is timed before training (with the initial checkpoint) and
    after it, so a slow spell of the host that lasts a few seconds cannot move
    the median of every pass."""
    s = ctx.sizes
    setup_s, (manifest, val, spec, init) = _timed_setups(ctx, _desk_setup(ctx, s.per_class))

    ctx.phase("val")
    passes, confusions = _val_passes(ctx, spec, init, val, 0.2 * ctx.seconds)

    ctx.phase("train")
    clock = ctx.rec.train(StepClock(0.6 * ctx.seconds, s.min_steps),
                          trainer.train_patchwise, manifest, _patch_config(ctx))
    ctx.attempted += clock.count

    ctx.phase("val")
    after, trained = _val_passes(ctx, spec, clock.params, val, 0.2 * ctx.seconds)
    passes += after
    peak = _peak_rss_mb()

    ctx.phase("check")
    nx, ny = _grid(s.image_w, s.image_h, s.window, s.stride)
    expected = np.bincount([img.label for img in val], minlength=N_CLASSES) * nx * ny
    ctx.checks.add("confusion row sums equal the val patch counts of the grid",
                   all(np.array_equal(cm.sum(axis=1), expected)
                       for cm in confusions + trained),
                   f"expected {expected.tolist()}")
    cm = trained[0]
    _check_training(ctx, clock, "stage one", float(np.trace(cm)) / cm.sum())
    picks = rng.derive(ctx.seed, "bench.check").choice(len(val) * nx * ny, size=8,
                                                       replace=False)
    crops, labels = [], []
    for p in picks:
        img, t = val[p // (nx * ny)], p % (nx * ny)
        y, x = (t // nx) * s.stride, (t % nx) * s.stride
        crops.append(img.pixels.data[:, y:y + s.window, x:x + s.window])
        labels.append(img.label)
    _train_step_checked(ctx, spec, clock.params, np.stack(crops), np.array(labels),
                        "stage one train")

    if ctx.tracer is not None:
        ctx.phase("cover")
        cover = ctx.rec.train(StepClock(0.0, 1), trainer.train_imagewise, manifest, spec,
                              clock.params, _image_config(ctx))
        _cover_infer(ctx, spec, clock.params, cover.params, val[0].pixels)

    return {"setup_s": setup_s, "op_s": statistics.median(clock.steps),
            "eval_patches_per_s": len(val) * nx * ny / statistics.median(passes),
            "peak_rss_mb": peak, "first_loss_minus_ln4": clock.losses[0] - math.log(4)}


def desk_train_image(ctx: Context) -> dict[str, float]:
    """Feature caching through a frozen stage-one checkpoint, then stage two."""
    s = ctx.sizes
    setup_s, (manifest, val, pw_spec, pw_params) = _timed_setups(
        ctx, _desk_setup(ctx, s.per_class))

    ctx.phase("train")
    ctx.rec.stacks.clear()
    clock = ctx.rec.train(StepClock(ctx.seconds, s.min_steps), trainer.train_imagewise,
                          manifest, pw_spec, pw_params, _image_config(ctx))
    stacks = [st for _, st in ctx.rec.stacks]
    ctx.attempted += clock.count + len(stacks)

    # A second caching window, some seconds after the first, so that a short
    # slow spell of the host cannot move the median of every image.
    ctx.phase("cache")
    images = data.load_images(manifest, "train", normalized=True) + val
    for img in images:
        model.image_feature_stack(pw_spec, pw_params, img.pixels, s.window)
    ctx.attempted += len(images)
    cache_s = [t for t, _ in ctx.rec.stacks]
    again = [st for _, st in ctx.rec.stacks[len(stacks):]]
    peak = _peak_rss_mb()

    ctx.phase("check")
    ctx.checks.add("the same image cached again gives identical bits",
                   len(again) == len(stacks)
                   and all(np.array_equal(a.data, b.data) for a, b in zip(stacks, again)))
    nx, ny = _grid(s.image_w, s.image_h, s.window, s.window)
    iw_spec = _iw_spec(s, nx * ny)
    val_stacks = stacks[len(stacks) - len(val):]
    labels = np.array([img.label for img in val])
    logits = model.network_forward(iw_spec, clock.params,
                                   Tensor(np.stack([st.data for st in val_stacks])), "eval")
    _check_training(ctx, clock, "stage two",
                    float(np.mean(np.argmax(logits.data, axis=1) == labels)))
    pick = ctx.seed % len(val)
    _check_tile_alone(ctx, pw_spec, pw_params, val[pick].pixels, val_stacks[pick])
    _train_step_checked(ctx, iw_spec, clock.params, np.stack([st.data for st in val_stacks[:8]]),
                        labels[:8], "stage two train", dropout_rng=_dropout_rng(ctx))

    if ctx.tracer is not None:
        ctx.phase("cover")
        ctx.rec.train(StepClock(0.0, 1), trainer.train_patchwise, manifest,
                      _patch_config(ctx))
        _cover_infer(ctx, pw_spec, pw_params, clock.params, val[0].pixels)

    return {"setup_s": setup_s, "op_s": statistics.median(clock.steps),
            "eval_patches_per_s": nx * ny / statistics.median(cache_s), "peak_rss_mb": peak}


def paper_infer(ctx: Context) -> dict[str, float]:
    """Two-stage classification of one 2048x1536 image, repeated."""
    s = ctx.sizes
    nx, ny = _grid(s.image_w, s.image_h, s.window, s.window)
    label = 0  # synthesis time grows with a class's blob count, so one class for every seed

    def setup(directory: Path):
        directory.mkdir(parents=True)
        pixels, _ = data.synth_image(label, s.image_w, s.image_h,
                                     rng.derive(ctx.seed, "bench.paper"))
        chw = np.ascontiguousarray(pixels.transpose(2, 0, 1)).astype(np.float32) / 255.0
        data.write_ppm(directory / "paper.ppm", Tensor(chw))
        manifest = data.Manifest([data.ManifestRecord("paper.ppm", label, "train")],
                                 root=directory)
        manifest = dataclasses.replace(manifest, stats=data.compute_norm_stats(manifest))
        image = data.load_images(manifest, normalized=True)[0].pixels
        pw_spec = model.canonical_patchwise_spec(s.base_width, s.feature_depth)
        iw_spec = _iw_spec(s, nx * ny)
        pw = _round_trip(ctx, directory / "patchwise.ckpt", pw_spec,
                         model.init_params(pw_spec, ctx.seed))
        iw = _round_trip(ctx, directory / "imagewise.ckpt", iw_spec,
                         model.init_params(iw_spec, ctx.seed))
        return image, pw_spec, pw, iw_spec, iw

    setup_s, (image, pw_spec, pw_params, iw_spec, iw_params) = _timed_setups(ctx, setup)

    ctx.phase("infer")
    ctx.rec.stacks.clear()
    times, results = [], []
    t0 = time.perf_counter()
    while len(times) < s.min_steps or time.perf_counter() - t0 < ctx.seconds:
        t = time.perf_counter()
        results.append(model.infer_image(pw_spec, pw_params, iw_spec, iw_params, image, s.window))
        times.append(time.perf_counter() - t)
    ctx.attempted += len(times)
    peak = _peak_rss_mb()
    stack_s = [t for t, _ in ctx.rec.stacks]
    stack = ctx.rec.stacks[-1][1]

    ctx.phase("check")
    cls, probs = results[0]
    ctx.checks.add("probabilities are finite and non-negative",
                   bool(np.isfinite(probs).all() and (probs >= 0).all()), str(probs))
    ctx.checks.add("probabilities sum to 1",
                   abs(float(np.sum(probs, dtype=np.float64)) - 1.0)
                   <= reference.gamma(2 * len(probs) + 2), str(probs))
    ctx.checks.add("the returned class is the argmax", cls == int(np.argmax(probs)))
    ctx.checks.add("the same image classified again gives identical bits",
                   all(c == cls and np.array_equal(p, probs) for c, p in results))
    _check_tile_alone(ctx, pw_spec, pw_params, image, stack)
    capture = reference.ConvCapture()
    with hooks.Patcher() as patcher:
        capture.install(patcher)
        again = model.network_forward(iw_spec, iw_params, Tensor(stack.data[None]), "eval",
                                      with_softmax=True)
    ctx.checks.add("the image-wise forward of the stack gives the returned probabilities",
                   np.array_equal(again.data[0], probs))
    _check_convs(ctx, capture, "stage two eval")

    if ctx.tracer is not None:
        # Coverage at paper geometry: two stage-one steps through the trainer
        # on window-sized images, and one image-wise forward and backward on
        # the paper stack.
        ctx.phase("cover")
        manifest = data.generate_dataset_dir(ctx.work / "cover", s.per_class, s.window,
                                             s.window, ctx.seed)
        manifest = dataclasses.replace(manifest, stats=data.compute_norm_stats(manifest))
        ctx.rec.train(StepClock(0.0, 1), trainer.train_patchwise, manifest,
                      _patch_config(ctx, stride=s.window))
        tape = autodiff.Tape()
        logits = model.network_forward(iw_spec, _copy(iw_params),
                                       Tensor(np.stack([stack.data, stack.data])), "train",
                                       tape=tape, dropout_rng=_dropout_rng(ctx))
        tape.backward(ops.cross_entropy(logits, np.array([0, 1]), tape=tape))

    return {"setup_s": setup_s, "op_s": statistics.median(times),
            "eval_patches_per_s": nx * ny / statistics.median(stack_s),
            "peak_rss_mb": peak, "first_op_s": times[0]}


RUNNERS = {"desk-train-patch": desk_train_patch, "desk-train-image": desk_train_image,
           "paper-infer": paper_infer}

UNITS = {"setup_s": "s", "op_s": "s", "eval_patches_per_s": "patches/s", "peak_rss_mb": "MB"}


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, toy: bool = False):
    """Run one workload; returns (end-to-end figures, per-layer figures or
    None, Checks, attempted).  The end-to-end dict may hold extra keys that
    are reported on stderr only."""
    sizes = (TOY if toy else FULL)[name]
    tracer = hooks.Tracer() if trace else None
    ctx = Context(sizes, seed, seconds, work, Recorder(), tracer, Checks())
    with hooks.Patcher() as patcher:
        if tracer is not None:
            tracer.install(patcher)
        ctx.rec.install(patcher)
        e2e = RUNNERS[name](ctx)
    layers = hooks.layer_metrics(tracer, hooks.sgemm_gflops()) if tracer is not None else None
    return e2e, layers, ctx.checks, ctx.attempted
