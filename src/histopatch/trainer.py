"""Training for both stages, early stopping, and evaluation metrics.

Stage one fits the patch-wise network on overlapping patches that inherit
their parent image's label.  Stage two freezes that network, turns every
image into a channel-stacked feature map via non-overlapping tiles, and fits
the image-wise classifier on top.  Both stages run the same loop (``_fit``):
momentum SGD that stops early once validation accuracy stops improving, keeps
the best-epoch parameters, and refuses to go on once a loss, gradient, weight
or batchnorm statistic turns non-finite.

Runs are reproducible: every random draw (shuffles, dropout masks, init)
comes from a counter-based generator derived from the run seed, so identical
inputs give bitwise-identical checkpoints and metrics in single-threaded
mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ops
from .autodiff import Tape
from .data import N_CLASSES, LabeledImage, Manifest, load_images
from .geometry import PatchGrid, patch_windows
from .model import (
    NetworkSpec,
    canonical_imagewise_spec,
    canonical_patchwise_spec,
    check_window,
    eval_batch_size,
    image_feature_stack,
    infer_image,
    init_params,
    network_forward,
    patchwise_logits,
    trainable_names,
)
from .rng import derive
from .tensor import Tensor

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "Metrics",
    "TrainResult",
    "sgd_step",
    "early_stop",
    "confusion_matrix",
    "metrics_from_confusion",
    "train_patchwise",
    "train_imagewise",
    "evaluate_patches",
    "evaluate_images",
]

Logger = Callable[[str], None]
EpochHook = Callable[[int, dict[str, Tensor]], None]
_SHUFFLE_STREAMS = {"patchwise": "shuffle.patch", "imagewise": "shuffle.image"}


@dataclass
class TrainConfig:
    stage: str  # "patchwise" | "imagewise"
    seed: int = 0
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 5
    dropout_rate: float = 0.5  # image-wise head only
    window: int = 64
    stride: int = 32
    base_width: int = 8
    feature_depth: int = 8
    head_depth: int = 64

    def validate(self) -> None:
        if self.stage not in ("patchwise", "imagewise"):
            raise ValueError(f"stage must be patchwise or imagewise, got {self.stage!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 2:
            raise ValueError(
                f"batch size must be >= 2 (batch norm needs a variance), got {self.batch_size}"
            )
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        check_window(self.window)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_acc: float


@dataclass
class Metrics:
    epochs: list[EpochRecord]
    confusion: list[list[int]]
    accuracy: float
    precision: list[float]
    recall: list[float]
    best_epoch: int

    def to_dict(self) -> dict:
        return {
            "epochs": [{"epoch": e.epoch, "train_loss": e.train_loss,
                        "val_acc": e.val_acc} for e in self.epochs],
            "confusion": self.confusion,
            "accuracy": self.accuracy,
            "per_class": {"precision": self.precision, "recall": self.recall},
            "best_epoch": self.best_epoch,
        }


@dataclass
class TrainResult:
    spec: NetworkSpec
    params: dict[str, Tensor]
    meta: dict
    metrics: Metrics


# ---------------------------------------------------------------------------
# building blocks

def sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
             velocity: dict[str, np.ndarray], lr: float, momentum: float
             ) -> tuple[dict[str, Tensor], dict[str, np.ndarray]]:
    """Momentum update, in place: v <- momentum*v + g; w <- w - lr*v."""
    for name, grad in grads.items():
        w = params[name]
        g = np.asarray(grad, dtype=np.float32)
        v = velocity[name]
        if g.shape != w.data.shape or v.shape != w.data.shape:
            raise ValueError(
                f"{name}: shapes differ (param {w.data.shape}, grad {g.shape}, "
                f"velocity {v.shape})"
            )
        v *= momentum
        v += g
        w.data -= lr * v
    return params, velocity


def early_stop(history: list[float], patience: int) -> tuple[bool, int]:
    """Whether to stop, and the best epoch index (earliest on ties).

    Stops after `patience` consecutive epochs at or below the best accuracy so
    far; only strict improvement resets the counter.  An empty history gives
    (False, -1).
    """
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if not history:
        return False, -1
    best_acc, best_epoch, streak = history[0], 0, 0
    for i in range(1, len(history)):
        if history[i] > best_acc:
            best_acc, best_epoch, streak = history[i], i, 0
        else:
            streak += 1
            if streak >= patience:
                return True, best_epoch
    return False, best_epoch


def confusion_matrix(true_labels: np.ndarray, pred_labels: np.ndarray) -> np.ndarray:
    """Counts of (true, predicted) class pairs: rows true, columns predicted."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(pred_labels, dtype=np.int64)
    return np.bincount(N_CLASSES * t + p, minlength=N_CLASSES ** 2).reshape(N_CLASSES, N_CLASSES)


def metrics_from_confusion(m: np.ndarray) -> tuple[float, list[float], list[float]]:
    """(accuracy, per-class precision, per-class recall); empty denominators
    give 0.0."""
    m = np.asarray(m)
    total = int(m.sum())
    accuracy = float(np.trace(m)) / total if total else 0.0
    precision, recall = [], []
    for c in range(N_CLASSES):
        col = int(m[:, c].sum())
        row = int(m[c, :].sum())
        precision.append(float(m[c, c]) / col if col else 0.0)
        recall.append(float(m[c, c]) / row if row else 0.0)
    return accuracy, precision, recall


def _snapshot(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {name: t.copy() for name, t in params.items()}


def _load_splits(manifest: Manifest, config: TrainConfig, stage: str
                 ) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """Check the config and the manifest, then load both splits normalized."""
    config.validate()
    if config.stage != stage:
        raise ValueError(f"config stage is {config.stage!r}, expected {stage}")
    if manifest.stats is None:
        raise ValueError("manifest has no normalization stats; compute them first")
    train = manifest.split_records("train")
    val = manifest.split_records("val")
    if not train or not val:
        raise ValueError("both train and val splits must be non-empty")
    present = {r.label for r in train}
    missing = sorted(set(range(N_CLASSES)) - present)
    if missing:
        raise ValueError(f"train split is missing classes {missing}")
    return (load_images(manifest, "train", normalized=True),
            load_images(manifest, "val", normalized=True))


def _log(log: Logger | None, msg: str) -> None:
    if log is not None:
        log(msg)


# ---------------------------------------------------------------------------
# the training loop both stages share

@np.errstate(over="ignore", invalid="ignore")
def _fit(spec: NetworkSpec, config: TrainConfig, labels: np.ndarray,
         gather: Callable[[np.ndarray], np.ndarray], forward: Callable[..., Tensor],
         validate: Callable[[dict[str, Tensor]], np.ndarray],
         log: Logger | None, epoch_hook: EpochHook | None
         ) -> tuple[dict[str, Tensor], Metrics]:
    """Momentum SGD with early stopping on validation accuracy.

    ``gather(idxs)`` assembles a training batch, ``forward(params, batch,
    tape, dropout_rng)`` gives its logits and ``validate(params)`` a
    validation confusion matrix.  A step whose loss, gradients, weights or
    batchnorm running statistics hold a non-finite value stops the run with
    a ValueError (numpy's overflow warnings are muted, as this check
    reports them).  Returns the best epoch's parameters and the run's
    metrics.
    """
    params = init_params(spec, config.seed)
    trainables = trainable_names(spec)
    velocity = {n: np.zeros_like(params[n].data) for n in trainables}

    epochs: list[EpochRecord] = []
    best_params = _snapshot(params)
    best_epoch = -1
    for epoch in range(config.max_epochs):
        perm = derive(config.seed, _SHUFFLE_STREAMS[spec.kind], epoch).permutation(len(labels))
        batches = np.split(perm, range(config.batch_size, len(perm), config.batch_size))
        loss_sum, n_sum = 0.0, 0
        # a straggler smaller than 2 is dropped: batch norm needs a variance
        for batch_i, idxs in enumerate(b for b in batches if len(b) >= 2):
            tape = Tape()
            counter = epoch * 1_000_000 + batch_i
            logits = forward(params, Tensor(gather(idxs)), tape,
                             lambda layer: derive(config.seed, f"dropout.l{layer}", counter))
            loss = ops.cross_entropy(logits, labels[idxs], tape=tape)
            for n in trainables:
                params[n].zero_grad()
            tape.backward(loss)
            grads = {n: params[n].grad for n in trainables}
            sgd_step(params, grads, velocity, config.lr, config.momentum)
            bad = [f"{n} gradient" for n, g in grads.items() if not np.isfinite(g).all()]
            bad += [n for n, t in params.items() if not np.isfinite(t.data).all()]
            if bad or not np.isfinite(loss.item()):
                raise ValueError(f"training diverged at epoch {epoch}, batch {batch_i}: "
                                 f"loss {loss.item():.4g}, {len(bad)} non-finite "
                                 f"tensors {bad[:3]}")
            loss_sum += loss.item() * len(idxs)
            n_sum += len(idxs)

        val_acc, _, _ = metrics_from_confusion(validate(params))
        epochs.append(EpochRecord(epoch, loss_sum / n_sum, val_acc))
        _log(log, f"epoch {epoch}: train_loss {loss_sum / n_sum:.4f} "
                  f"val_acc {val_acc:.4f}")
        if epoch_hook is not None:
            epoch_hook(epoch, params)
        stop, best_epoch = early_stop([e.val_acc for e in epochs], config.patience)
        if best_epoch == epoch:
            best_params = _snapshot(params)
        if stop:
            _log(log, f"early stop after epoch {epoch}, best epoch {best_epoch}")
            break

    confusion = validate(best_params)
    accuracy, precision, recall = metrics_from_confusion(confusion)
    metrics = Metrics(epochs=epochs, confusion=confusion.tolist(),
                      accuracy=accuracy, precision=precision, recall=recall,
                      best_epoch=best_epoch)
    return best_params, metrics


def _result(spec: NetworkSpec, config: TrainConfig, manifest: Manifest,
            params: dict[str, Tensor], metrics: Metrics) -> TrainResult:
    """Bundle a fitted network with the provenance its checkpoint carries
    beside the spec: the run's settings, norm stats and the outcome."""
    settings = ["window", "seed", "lr", "momentum", "batch_size", "max_epochs", "patience"]
    if spec.kind == "patchwise":
        settings.append("stride")
    meta = {k: getattr(config, k) for k in settings}
    meta.update(norm_mean=list(manifest.stats.mean), norm_std=list(manifest.stats.std),
                best_epoch=metrics.best_epoch, val_acc=metrics.accuracy)
    return TrainResult(spec=spec, params=params, meta=meta, metrics=metrics)


# ---------------------------------------------------------------------------
# patch-level plumbing

class _PatchIndex:
    """Flat random-access view over every patch of a list of images."""

    def __init__(self, images: list[LabeledImage], window: int, stride: int):
        self.window = window
        self.windows = []  # one (n_y, n_x, 3, k, k) view per image
        entries = []
        for i, img in enumerate(images):
            _, h, w = img.pixels.shape
            grid = PatchGrid(image_w=w, image_h=h, window=window, stride=stride)
            self.windows.append(patch_windows(img.pixels.data, grid))
            entries += [(i, row, col)
                        for row in range(grid.n_y) for col in range(grid.n_x)]
        self.entries = np.asarray(entries, dtype=np.int64)
        self.labels = np.asarray([images[i].label for i, _, _ in entries],
                                 dtype=np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    def gather(self, idxs: np.ndarray) -> np.ndarray:
        k = self.window
        batch = np.empty((len(idxs), 3, k, k), dtype=np.float32)
        image, row, col = self.entries[idxs].T
        for i in np.unique(image):
            hit = image == i
            batch[hit] = self.windows[i][row[hit], col[hit]]
        return batch


def _eval_confusion(labels: np.ndarray, gather: Callable[[np.ndarray], np.ndarray],
                    forward: Callable[[Tensor], Tensor], step: int) -> np.ndarray:
    """Confusion of argmax(forward(gather(idxs))) (lowest class on ties) over
    every sample, ``step`` samples per forward (see ``eval_batch_size``)."""
    preds = np.empty(len(labels), dtype=np.int64)
    for start in range(0, len(labels), step):
        idxs = np.arange(start, min(start + step, len(labels)))
        preds[idxs] = np.argmax(forward(Tensor(gather(idxs))).data, axis=1)
    return confusion_matrix(labels, preds)


def evaluate_patches(spec: NetworkSpec, params: dict[str, Tensor],
                     images: list[LabeledImage], window: int,
                     stride: int) -> np.ndarray:
    """Patch-level confusion matrix (rows true, cols predicted), eval mode."""
    index = _PatchIndex(images, window, stride)
    return _eval_confusion(index.labels, index.gather,
                           lambda batch: patchwise_logits(spec, params, batch, "eval"),
                           eval_batch_size(spec, (3, window, window)))


def evaluate_images(pw_spec: NetworkSpec, pw_params: dict[str, Tensor],
                    iw_spec: NetworkSpec, iw_params: dict[str, Tensor],
                    images: list[LabeledImage], window: int) -> np.ndarray:
    """Image-level confusion matrix via the full two-stage inference path."""
    if not images:
        raise ValueError("no images to evaluate")
    return confusion_matrix(
        [img.label for img in images],
        [infer_image(pw_spec, pw_params, iw_spec, iw_params, img.pixels, window)[0]
         for img in images])


# ---------------------------------------------------------------------------
# stage one

def train_patchwise(manifest: Manifest, config: TrainConfig,
                    log: Logger | None = None,
                    epoch_hook: EpochHook | None = None) -> TrainResult:
    """Fit the patch-wise network on overlapping labeled patches.

    ``epoch_hook(epoch, params)`` is called with the live parameter dict
    after each epoch's validation, for diagnostics only.
    """
    train_imgs, val_imgs = _load_splits(manifest, config, "patchwise")
    index = _PatchIndex(train_imgs, config.window, config.stride)
    _log(log, f"stage 1: {len(train_imgs)} train images -> {len(index)} patches, "
              f"{len(val_imgs)} val images")

    spec = canonical_patchwise_spec(config.base_width, config.feature_depth)
    params, metrics = _fit(
        spec, config, index.labels, index.gather,
        lambda params, batch, tape, _rng: patchwise_logits(spec, params, batch,
                                                           "train", tape=tape),
        lambda params: evaluate_patches(spec, params, val_imgs, config.window,
                                        config.stride),
        log, epoch_hook)
    return _result(spec, config, manifest, params, metrics)


# ---------------------------------------------------------------------------
# stage two

def train_imagewise(manifest: Manifest, pw_spec: NetworkSpec,
                    pw_params: dict[str, Tensor], config: TrainConfig,
                    log: Logger | None = None,
                    epoch_hook: EpochHook | None = None) -> TrainResult:
    """Fit the image-wise classifier on frozen patch-wise features.

    The trunk never sees a gradient: every feature stack is precomputed in
    eval mode once and reused across epochs.  ``epoch_hook`` behaves as in
    ``train_patchwise``.
    """
    if pw_spec.kind != "patchwise":
        raise ValueError(f"first-stage checkpoint has kind {pw_spec.kind!r}")
    train_imgs, val_imgs = _load_splits(manifest, config, "imagewise")
    shapes = {img.pixels.shape for img in train_imgs + val_imgs}
    if len(shapes) != 1:
        raise ValueError(f"images must share one shape, got {sorted(shapes)}")
    _, h, w = shapes.pop()
    grid = PatchGrid(image_w=w, image_h=h, window=config.window, stride=config.window)
    iw_spec = canonical_imagewise_spec(n_patches=grid.total,
                                       feature_depth=pw_spec.feature_depth,
                                       head_depth=config.head_depth,
                                       dropout_rate=config.dropout_rate)

    _log(log, f"stage 2: caching feature stacks for {len(train_imgs)} train "
              f"+ {len(val_imgs)} val images ({grid.total} patches each)")
    train_stacks = [image_feature_stack(pw_spec, pw_params, img.pixels, config.window)
                    for img in train_imgs]
    val_stacks = [image_feature_stack(pw_spec, pw_params, img.pixels, config.window)
                  for img in val_imgs]
    val_labels = np.asarray([img.label for img in val_imgs], dtype=np.int64)

    # validation scores the softmax output, as infer_image does
    params, metrics = _fit(
        iw_spec, config,
        np.asarray([img.label for img in train_imgs], dtype=np.int64),
        lambda idxs: np.stack([train_stacks[i].data for i in idxs]),
        lambda params, batch, tape, rng: network_forward(
            iw_spec, params, batch, "train", tape=tape, dropout_rng=rng),
        lambda params: _eval_confusion(
            val_labels, lambda idxs: np.stack([val_stacks[i].data for i in idxs]),
            lambda batch: network_forward(iw_spec, params, batch, "eval", with_softmax=True),
            eval_batch_size(iw_spec, val_stacks[0].shape)),
        log, epoch_hook)
    return _result(iw_spec, config, manifest, params, metrics)
