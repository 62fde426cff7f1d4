"""Network descriptions, builders and forward passes for both stages.

The patch-wise network is a fully convolutional 16-layer stack that halves the
map at the 3rd, 6th and 9th convolutions (2x2 stride-2 convs, channels doubled
each time), ends in a 1x1 conv of depth C, and classifies through global
average pooling and a 4-way linear head.  The image-wise network consumes the
channel-stacked feature maps of all tiled patches and classifies through three
fully connected layers.  Channel widths beyond the doubling rule are free
hyper-parameters (base width B, feature depth C, head depth D).

Eval-mode forwards (feature caching, inference, validation) take no tape:
they fold each conv block's batchnorm into its conv and apply the relu in
place, so they make no batchnorm pass; see ``network_forward``.  How many samples
ride in one eval forward is set by an activation-byte budget alone; see
``eval_batch_size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import ops
from .autodiff import Tape
from .data import N_CLASSES
from .geometry import (GeometryError, LayerGeom, PatchGrid, RFState, output_size,
                       patch_windows, receptive_field)
from .rng import derive
from .tensor import Tensor

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "canonical_patchwise_spec",
    "canonical_imagewise_spec",
    "check_window",
    "init_params",
    "trainable_names",
    "network_forward",
    "eval_batch_size",
    "patchwise_logits",
    "extract_features",
    "image_feature_stack",
    "infer_image",
    "CLASS_NAMES",
]

CLASS_NAMES = ("normal tissue", "benign tissue", "in situ carcinoma", "invasive carcinoma")

DropoutRngFactory = Callable[[int], np.random.Generator]

# Bytes that the samples of one eval forward may hold in its widest array.
# Measured with infer_image on one 2048x1536 image at window 512, B=C=16,
# one thread: one 512^2 tile per forward (16 MiB conv outputs) peaked at
# 125 MB RSS and spent 0.15 s per image in the kernel, two tiles (32 MiB)
# 170 MB and 0.26 s, all 12 tiles 596 MB and 0.45 s.  glibc reuses freed
# heap for arrays under 32 MiB but maps larger ones afresh and page-faults
# them on every call, so the budget sits below one paper tile.  At desk
# scale it changes nothing: 64x64 patches at B=8 (128 KiB) go 64 per
# forward, and the 12 tiles of an image all at once.
EVAL_BYTES = 8 << 20


@dataclass(frozen=True)
class LayerSpec:
    """One layer record.  in_ch/out_ch are channels for conv and feature
    counts for linear layers."""

    kind: str  # conv | batchnorm | relu | dropout | global_avg_pool | linear | softmax
    in_ch: int | None = None
    out_ch: int | None = None
    kernel: int | None = None
    stride: int = 1
    padding: int = 0
    rate: float | None = None

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind in ("conv", "linear"):
            d["in_ch"] = self.in_ch
            d["out_ch"] = self.out_ch
        if self.kind == "conv":
            d["kernel"] = self.kernel
            d["stride"] = self.stride
            d["padding"] = self.padding
        if self.kind == "batchnorm":
            d["in_ch"] = self.in_ch
        if self.kind == "dropout":
            d["rate"] = self.rate
        return d


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of a network; everything else derives from it.
    Built only by ``canonical_patchwise_spec``/``canonical_imagewise_spec``
    (``from_dict`` rebuilds through them), so every conv feeds a
    batchnorm+relu."""

    kind: str  # "patchwise" | "imagewise"
    layers: tuple[LayerSpec, ...]
    base_width: int | None = None
    feature_depth: int | None = None
    head_depth: int | None = None
    n_patches: int | None = None
    feature_cut: int | None = None  # layer index whose output is the feature map
    n_classes: int = N_CLASSES

    def conv_geoms(self) -> list[LayerGeom]:
        return [LayerGeom(l.kernel, l.stride, l.padding)
                for l in self.layers if l.kind == "conv"]

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["layers"] = [l.to_dict() for l in self.layers]
        return d

    @staticmethod
    def from_dict(d) -> "NetworkSpec":
        """Inverse of ``to_dict`` for the two canonical stacks, the only
        networks there are: rebuild the spec from ``d``'s sizes (the
        image-wise dropout rate from its first dropout layer) and raise
        ``ValueError`` unless ``d`` is exactly that rebuild's ``to_dict()``."""
        if not isinstance(d, dict):
            raise ValueError(f"network spec must be an object, got {type(d).__name__}")

        def size(key: str) -> int:
            v = d.get(key)
            if type(v) is not int:
                raise ValueError(f"network spec {key} must be an integer, got {v!r}")
            return v

        if d.get("kind") == "patchwise":
            spec = canonical_patchwise_spec(size("base_width"), size("feature_depth"))
        elif d.get("kind") == "imagewise":
            layers = d["layers"] if isinstance(d.get("layers"), list) else []
            rate = next((l.get("rate") for l in layers
                         if isinstance(l, dict) and l.get("kind") == "dropout"), None)
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise ValueError(f"network spec dropout rate must be a number, got {rate!r}")
            spec = canonical_imagewise_spec(size("n_patches"), size("feature_depth"),
                                            size("head_depth"), rate)
        else:
            raise ValueError(f"unknown network kind {d.get('kind')!r}")
        if spec.to_dict() != d:
            raise ValueError(f"not the canonical {spec.kind} stack for its sizes")
        return spec


def _conv_block(layers: list[LayerSpec], in_ch: int, out_ch: int, kernel: int,
                stride: int, padding: int) -> int:
    """Append conv + batchnorm + relu; every conv layer gets both."""
    layers.append(LayerSpec("conv", in_ch=in_ch, out_ch=out_ch, kernel=kernel,
                            stride=stride, padding=padding))
    layers.append(LayerSpec("batchnorm", in_ch=out_ch))
    layers.append(LayerSpec("relu"))
    return out_ch


def canonical_patchwise_spec(base_width: int = 16, feature_depth: int = 16) -> NetworkSpec:
    """The 16-conv patch-wise stack.

    Two 3x3 convs per stage, a 2x2 stride-2 conv at stack positions 3, 6 and 9
    (channels doubled across each), six more 3x3 convs, then a 1x1 conv down
    to ``feature_depth`` whose batchnorm+relu output is the extracted feature
    map.  Head: global average pool, 4-way linear, softmax.
    """
    if base_width < 1 or feature_depth < 1:
        raise ValueError("base_width and feature_depth must be >= 1")
    b = base_width
    layers: list[LayerSpec] = []
    w = _conv_block(layers, 3, b, 3, 1, 1)            # L1
    w = _conv_block(layers, w, b, 3, 1, 1)            # L2
    w = _conv_block(layers, w, 2 * b, 2, 2, 0)        # L3, downsample
    w = _conv_block(layers, w, 2 * b, 3, 1, 1)        # L4
    w = _conv_block(layers, w, 2 * b, 3, 1, 1)        # L5
    w = _conv_block(layers, w, 4 * b, 2, 2, 0)        # L6, downsample
    w = _conv_block(layers, w, 4 * b, 3, 1, 1)        # L7
    w = _conv_block(layers, w, 4 * b, 3, 1, 1)        # L8
    w = _conv_block(layers, w, 8 * b, 2, 2, 0)        # L9, downsample
    for _ in range(6):                                # L10..L15
        w = _conv_block(layers, w, 8 * b, 3, 1, 1)
    w = _conv_block(layers, w, feature_depth, 1, 1, 0)  # L16, 1x1 feature head
    feature_cut = len(layers) - 1                     # after L16's relu
    layers.append(LayerSpec("global_avg_pool"))
    layers.append(LayerSpec("linear", in_ch=feature_depth, out_ch=N_CLASSES))
    layers.append(LayerSpec("softmax"))

    spec = NetworkSpec(
        kind="patchwise",
        layers=tuple(layers),
        base_width=base_width,
        feature_depth=feature_depth,
        feature_cut=feature_cut,
    )
    # construction-time pins: map size halves three times, receptive field
    # and jump of the conv stack are fixed by the layer-type sequence
    geoms = spec.conv_geoms()
    assert output_size(geoms, 512)[-1] == 64
    assert receptive_field(geoms) == RFState(r=132, jump=8)
    return spec


def canonical_imagewise_spec(n_patches: int = 12, feature_depth: int = 16,
                             head_depth: int = 64,
                             dropout_rate: float = 0.5) -> NetworkSpec:
    """The image-wise stack over channel-stacked patch features.

    Two 3x3 convs, a 2x2 stride-2 conv, two more 3x3 convs, a second 2x2
    stride-2 conv, then a 1x1 conv down to ``head_depth``; global average
    pooling feeds three fully connected layers (D -> 256 -> 128 -> 4) with
    dropout (rate 0.5 by default) after the first two.
    """
    if n_patches < 1 or feature_depth < 1 or head_depth < 1:
        raise ValueError("n_patches, feature_depth and head_depth must be >= 1")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    layers: list[LayerSpec] = []
    w = _conv_block(layers, n_patches * feature_depth, 64, 3, 1, 1)   # M1
    w = _conv_block(layers, w, 64, 3, 1, 1)                           # M2
    w = _conv_block(layers, w, 128, 2, 2, 0)                          # M3, downsample
    w = _conv_block(layers, w, 128, 3, 1, 1)                          # M4
    w = _conv_block(layers, w, 128, 3, 1, 1)                          # M5
    w = _conv_block(layers, w, 256, 2, 2, 0)                          # M6, downsample
    w = _conv_block(layers, w, head_depth, 1, 1, 0)                   # M7, 1x1
    layers.append(LayerSpec("global_avg_pool"))
    layers.append(LayerSpec("linear", in_ch=head_depth, out_ch=256))
    layers.append(LayerSpec("relu"))
    layers.append(LayerSpec("dropout", rate=dropout_rate))
    layers.append(LayerSpec("linear", in_ch=256, out_ch=128))
    layers.append(LayerSpec("relu"))
    layers.append(LayerSpec("dropout", rate=dropout_rate))
    layers.append(LayerSpec("linear", in_ch=128, out_ch=N_CLASSES))
    layers.append(LayerSpec("softmax"))

    spec = NetworkSpec(
        kind="imagewise",
        layers=tuple(layers),
        feature_depth=feature_depth,
        head_depth=head_depth,
        n_patches=n_patches,
    )
    # the combined conv stacks of both networks must give receptive field 252
    combined = canonical_patchwise_spec().conv_geoms() + spec.conv_geoms()
    assert receptive_field(combined) == RFState(r=252, jump=32)
    return spec


def check_window(window: int) -> None:
    """Refuse a window (stage one's patches, stage two's tiles) that either
    stack collapses (the image-wise one sees window // 8 wide feature maps)
    or that the patch-wise stack's three stride-2 stages do not divide."""
    for name, spec, size in (("patch-wise", canonical_patchwise_spec(), window),
                             ("image-wise", canonical_imagewise_spec(), window // 8)):
        try:
            output_size(spec.conv_geoms(), size)
        except GeometryError as e:
            raise GeometryError(f"window {window} is too small for the {name} "
                                f"stack: {e}") from None
    if window % 8:
        raise GeometryError(f"window {window} must be a multiple of 8 (three stride-2 stages)")


# ---------------------------------------------------------------------------
# parameters

def _param_entries(spec: NetworkSpec):
    """Yield (name, role, shape) for every tensor a network spec owns, in
    checkpoint order: the one table of tensor names and shapes."""
    for i, layer in enumerate(spec.layers):
        prefix = f"{i:02d}"
        if layer.kind == "conv" or layer.kind == "linear":
            k = (layer.kernel, layer.kernel) if layer.kind == "conv" else ()
            yield f"{prefix}.weight", "weight", (layer.out_ch, layer.in_ch, *k)
            yield f"{prefix}.bias", "bias", (layer.out_ch,)
        elif layer.kind == "batchnorm":
            for role in ("gamma", "beta", "running_mean", "running_var"):
                yield f"{prefix}.{role}", role, (layer.in_ch,)


_TRAINABLE_ROLES = ("weight", "bias", "gamma", "beta")


def trainable_names(spec: NetworkSpec) -> list[str]:
    """Unique names of every trainable tensor (running stats excluded)."""
    return [name for name, role, _ in _param_entries(spec) if role in _TRAINABLE_ROLES]


def init_params(spec: NetworkSpec, seed: int) -> dict[str, Tensor]:
    """Fresh parameter set, deterministic per (spec, seed).

    Conv/linear weights are uniform(-b, b) with b = sqrt(6/(fan_in+fan_out));
    biases and betas start at 0, gammas at 1, running stats at (0, 1).
    """
    params: dict[str, Tensor] = {}
    for name, role, shape in _param_entries(spec):
        if role == "weight":
            taps = math.prod(shape[2:])  # k*k for a conv, 1 for a linear layer
            bound = float(np.sqrt(6.0 / (shape[1] * taps + shape[0] * taps)))
            rng = derive(seed, f"init.{name}")
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif role in ("gamma", "running_var"):
            data = np.ones(shape, dtype=np.float32)
        else:
            data = np.zeros(shape, dtype=np.float32)
        params[name] = Tensor(data, requires_grad=role in _TRAINABLE_ROLES)
    return params


# ---------------------------------------------------------------------------
# forward passes

def _fold_batchnorm(w: Tensor, b: Tensor, params: dict[str, Tensor],
                    bn_prefix: str) -> tuple[Tensor, Tensor]:
    """Conv weight and bias with the eval-mode batchnorm at ``bn_prefix``
    folded in: w*s and (b - running_mean)*s + beta per output channel, where
    s = gamma/sqrt(running_var + eps) (Jacob et al. 2018, arXiv 1712.05877).
    Fresh tensors on every call; ``params`` is never written."""
    gamma, beta = params[f"{bn_prefix}.gamma"].data, params[f"{bn_prefix}.beta"].data
    mean, var = params[f"{bn_prefix}.running_mean"].data, params[f"{bn_prefix}.running_var"].data
    s = gamma * (1.0 / np.sqrt(var + np.float32(ops.BATCHNORM_EPS)))
    return Tensor(w.data * s[:, None, None, None]), Tensor((b.data - mean) * s + beta)


def network_forward(spec: NetworkSpec, params: dict[str, Tensor], x: Tensor, mode: str,
                    tape: Tape | None = None, dropout_rng: DropoutRngFactory | None = None,
                    stop_after: int | None = None, with_softmax: bool = False) -> Tensor:
    """Run the layer stack on ``x``.

    ``stop_after`` returns the output of that layer index (feature
    extraction).  The trailing softmax is skipped unless ``with_softmax`` —
    training reads raw logits.  Dropout is active only in train mode.

    Only a train-mode forward without the softmax takes a tape: nothing
    trains through the rest.  An eval-mode forward folds each batchnorm into
    the conv in front of it (``_fold_batchnorm``; every conv of a canonical
    stack feeds one): one ``ops.conv2d`` call per conv block, no batchnorm
    pass, every relu applied in place on the fresh output before it.  Its
    outputs match the unfolded ``ops.batchnorm2d``/``ops.relu`` path to
    float32 rounding, also at a ``stop_after`` inside a block.
    """
    if tape is not None and (mode == "eval" or with_softmax):
        raise ValueError("only a train-mode forward without the softmax takes a tape")
    fold = mode == "eval"
    cur = x
    for i, layer in enumerate(spec.layers):
        prefix = f"{i:02d}"
        if layer.kind == "conv":
            w, b = params[f"{prefix}.weight"], params[f"{prefix}.bias"]
            if fold and stop_after != i:
                w, b = _fold_batchnorm(w, b, params, f"{i + 1:02d}")
            cur = ops.conv2d(cur, w, b, stride=layer.stride, padding=layer.padding, tape=tape)
        elif layer.kind == "batchnorm" and not fold:
            cur = ops.batchnorm2d(cur, params[f"{prefix}.gamma"], params[f"{prefix}.beta"],
                                  params[f"{prefix}.running_mean"],
                                  params[f"{prefix}.running_var"], mode, tape=tape)
        elif layer.kind == "relu":
            if fold:
                np.maximum(cur.data, 0, out=cur.data)
            else:
                cur = ops.relu(cur, tape=tape)
        elif layer.kind == "dropout" and mode == "train":
            rng = None if dropout_rng is None else dropout_rng(i)
            cur = ops.dropout(cur, layer.rate, rng=rng, tape=tape)
        elif layer.kind == "global_avg_pool":
            cur = ops.global_avg_pool(cur, tape=tape)
        elif layer.kind == "linear":
            cur = ops.linear(cur, params[f"{prefix}.weight"], params[f"{prefix}.bias"],
                             tape=tape)
        elif layer.kind == "softmax" and with_softmax:
            cur = ops.softmax(cur)
        if stop_after is not None and i == stop_after:
            return cur
    return cur


def eval_batch_size(spec: NetworkSpec, sample_shape: tuple[int, int, int]) -> int:
    """Samples per eval forward of ``spec`` over (C, H, W) samples:
    max(1, EVAL_BYTES // widest), where widest is the bytes of the largest
    array one sample makes the forward hold, its input or a conv output.
    Every layer gives a sample the same bits alone and in any batch, so
    this sets memory only, never an output."""
    c, h, w = sample_shape
    geoms = spec.conv_geoms()
    areas = [a * b for a, b in zip(output_size(geoms, h), output_size(geoms, w))]
    widths = [l.out_ch for l in spec.layers if l.kind == "conv"]
    widest = max([c * h * w] + [o * a for o, a in zip(widths, areas)])
    return max(1, EVAL_BYTES // (widest * np.dtype(np.float32).itemsize))


def _check_patch_input(spec: NetworkSpec, patches: Tensor) -> None:
    if spec.kind != "patchwise":
        raise ValueError(f"expected a patchwise spec, got {spec.kind!r}")
    if patches.ndim != 4:
        raise ValueError(f"patches must be (N, 3, k, k), got {patches.shape}")
    _, _, h, w = patches.shape
    if h % 8 != 0 or w % 8 != 0:
        raise ValueError(
            f"patch size {h}x{w} must be divisible by 8 (three stride-2 stages)"
        )


def patchwise_logits(spec: NetworkSpec, params: dict[str, Tensor], patches: Tensor,
                     mode: str, tape: Tape | None = None) -> Tensor:
    """Class logits (N, 4) for a batch of patches; softmax is applied only in
    the loss/inference paths."""
    _check_patch_input(spec, patches)
    return network_forward(spec, params, patches, mode, tape=tape, with_softmax=False)


def extract_features(spec: NetworkSpec, params: dict[str, Tensor], patches: Tensor) -> Tensor:
    """Feature maps (N, C, k/8, k/8): the batchnorm+relu output of the final
    1x1 conv, bypassing the pooled classifier head.  Always eval mode."""
    _check_patch_input(spec, patches)
    return network_forward(spec, params, patches, "eval", stop_after=spec.feature_cut)


def image_feature_stack(pw_spec: NetworkSpec, pw_params: dict[str, Tensor],
                        image: Tensor, window: int) -> Tensor:
    """Tile a normalized (3, H, W) image with non-overlapping patches, extract
    per-patch features ``eval_batch_size`` tiles per forward, and stack them
    channel-wise in row-major tile order."""
    h, w = image.shape[-2:]
    grid = PatchGrid(image_w=w, image_h=h, window=window, stride=window)
    tiles = [tile for row in patch_windows(image.data, grid) for tile in row]
    step = eval_batch_size(pw_spec, tiles[0].shape)
    groups = (extract_features(pw_spec, pw_params, Tensor(np.stack(tiles[lo:lo + step])))
              for lo in range(0, len(tiles), step))
    return ops.concat_channels([Tensor(f) for feats in groups for f in feats.data])


def infer_image(pw_spec: NetworkSpec, pw_params: dict[str, Tensor],
                iw_spec: NetworkSpec, iw_params: dict[str, Tensor],
                image: Tensor, window: int) -> tuple[int, np.ndarray]:
    """Classify a normalized (3, H, W) image.

    Returns (class index, probabilities[4]).  Ties resolve to the lowest
    class index.
    """
    if iw_spec.kind != "imagewise":
        raise ValueError(f"expected an imagewise spec, got {iw_spec.kind!r}")
    _, h, w = image.shape
    grid = PatchGrid(image_w=w, image_h=h, window=window, stride=window)
    if iw_spec.n_patches != grid.total:
        raise ValueError(
            f"image yields {grid.total} patches but the image-wise network "
            f"was built for {iw_spec.n_patches}"
        )
    stack = image_feature_stack(pw_spec, pw_params, image, window)
    batch = Tensor(stack.data[None])
    probs = network_forward(iw_spec, iw_params, batch, "eval", with_softmax=True)
    p = probs.data[0]
    return int(np.argmax(p)), p
