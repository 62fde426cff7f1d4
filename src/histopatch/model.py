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
from dataclasses import dataclass, field, fields
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
    "ConvBlock",
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
class ConvBlock:
    """One conv -> batchnorm -> relu block; every conv of both stacks is one."""

    in_ch: int
    out_ch: int
    kernel: int
    stride: int
    padding: int


@dataclass(frozen=True)
class NetworkSpec:
    """One of the paper's two stacks, named by its sizes.  Built only by
    ``canonical_patchwise_spec``/``canonical_imagewise_spec`` (``from_dict``
    rebuilds through them), which derive ``blocks`` and ``head`` (the output
    widths of the linear layers after global average pooling) from the sizes."""

    kind: str  # "patchwise" | "imagewise"
    base_width: int | None = None
    feature_depth: int | None = None
    head_depth: int | None = None
    n_patches: int | None = None
    dropout_rate: float | None = None
    blocks: tuple[ConvBlock, ...] = field(default=(), compare=False, repr=False)
    head: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def conv_geoms(self) -> list[LayerGeom]:
        return [LayerGeom(b.kernel, b.stride, b.padding) for b in self.blocks]

    def to_dict(self) -> dict:
        """The kind and the sizes that this kind has."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.compare and getattr(self, f.name) is not None}

    @staticmethod
    def from_dict(d) -> "NetworkSpec":
        """Inverse of ``to_dict``: rebuild the canonical stack from ``d``'s
        sizes and raise ``ValueError`` unless ``d`` is exactly that rebuild's
        ``to_dict()``."""
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
            rate = d.get("dropout_rate")
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise ValueError(f"network spec dropout_rate must be a number, got {rate!r}")
            spec = canonical_imagewise_spec(size("n_patches"), size("feature_depth"),
                                            size("head_depth"), rate)
        else:
            raise ValueError(f"unknown network kind {d.get('kind')!r}")
        if spec.to_dict() != d:
            raise ValueError(f"not the canonical {spec.kind} stack for its sizes")
        return spec


def _chain(in_ch: int, *convs: tuple[int, int, int, int]) -> tuple[ConvBlock, ...]:
    """Blocks from (out_ch, kernel, stride, padding), each fed by the one before."""
    blocks = []
    for out_ch, kernel, stride, padding in convs:
        blocks.append(ConvBlock(in_ch, out_ch, kernel, stride, padding))
        in_ch = out_ch
    return tuple(blocks)


_SAME, _DOWN = (3, 1, 1), (2, 2, 0)  # 3x3 conv keeping the map; 2x2 stride-2 halving it


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
    blocks = _chain(3, (b, *_SAME), (b, *_SAME), (2 * b, *_DOWN),       # L1-L3
                    (2 * b, *_SAME), (2 * b, *_SAME), (4 * b, *_DOWN),  # L4-L6
                    (4 * b, *_SAME), (4 * b, *_SAME), (8 * b, *_DOWN),  # L7-L9
                    *[(8 * b, *_SAME)] * 6,                           # L10-L15
                    (feature_depth, 1, 1, 0))                        # L16, 1x1 feature head
    spec = NetworkSpec("patchwise", base_width=base_width, feature_depth=feature_depth,
                       blocks=blocks, head=(N_CLASSES,))
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
    blocks = _chain(n_patches * feature_depth, (64, *_SAME), (64, *_SAME), (128, *_DOWN),  # M1-M3
                    (128, *_SAME), (128, *_SAME), (256, *_DOWN),                          # M4-M6
                    (head_depth, 1, 1, 0))                                             # M7, 1x1
    spec = NetworkSpec("imagewise", feature_depth=feature_depth, head_depth=head_depth,
                       n_patches=n_patches, dropout_rate=dropout_rate,
                       blocks=blocks, head=(256, 128, N_CLASSES))
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

def _prefixes(spec: NetworkSpec) -> tuple[list[tuple[str, str]], list[int]]:
    """Tensor-name prefixes, numbered as if every op of the stack were a
    layer: block k's conv and batchnorm are 3k and 3k+1, and after the pool
    head linear j is 3*len(blocks) + 1 + 3j, with the dropout in front of it
    (image-wise, j > 0) one below.  Init and dropout streams are keyed by
    these numbers.  Returns the (conv, batchnorm) prefixes and the linears'
    numbers."""
    n = len(spec.blocks)
    return ([(f"{3 * k:02d}", f"{3 * k + 1:02d}") for k in range(n)],
            [3 * n + 1 + 3 * j for j in range(len(spec.head))])


def _param_entries(spec: NetworkSpec):
    """Yield (name, role, shape) for every tensor a network spec owns, in
    checkpoint order: the one table of tensor names and shapes."""
    convs, linears = _prefixes(spec)
    for block, (conv, bn) in zip(spec.blocks, convs):
        yield f"{conv}.weight", "weight", (block.out_ch, block.in_ch, block.kernel, block.kernel)
        yield f"{conv}.bias", "bias", (block.out_ch,)
        for role in ("gamma", "beta", "running_mean", "running_var"):
            yield f"{bn}.{role}", role, (block.out_ch,)
    in_ch = spec.blocks[-1].out_ch
    for i, out_ch in zip(linears, spec.head):
        yield f"{i:02d}.weight", "weight", (out_ch, in_ch)
        yield f"{i:02d}.bias", "bias", (out_ch,)
        in_ch = out_ch


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
                    features: bool = False, with_softmax: bool = False) -> Tensor:
    """Run the stack on ``x`` in ``mode`` "train" or "eval".

    ``features`` returns the last block's output (feature extraction).  The
    softmax runs only ``with_softmax``: training reads raw logits.  Between
    the head's linears come a relu and, in train mode, dropout.

    Only a train-mode forward without the softmax takes a tape: nothing
    trains through the rest.  A train-mode block runs ``ops.conv2d``,
    ``ops.batchnorm2d`` and ``ops.relu``.  An eval-mode block folds its
    batchnorm into its conv (``_fold_batchnorm``): one ``ops.conv2d`` call,
    no batchnorm pass, and the relu applied in place on its fresh output, as
    are the head's.  Its outputs match the unfolded ops to float32 rounding.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if tape is not None and (mode == "eval" or with_softmax):
        raise ValueError("only a train-mode forward without the softmax takes a tape")

    def relu(t: Tensor) -> Tensor:
        if mode == "train":
            return ops.relu(t, tape=tape)
        np.maximum(t.data, 0, out=t.data)
        return t

    convs, linears = _prefixes(spec)
    cur = x
    for block, (conv, bn) in zip(spec.blocks, convs):
        w, b = params[f"{conv}.weight"], params[f"{conv}.bias"]
        if mode == "eval":
            w, b = _fold_batchnorm(w, b, params, bn)
        cur = ops.conv2d(cur, w, b, stride=block.stride, padding=block.padding, tape=tape)
        if mode == "train":
            cur = ops.batchnorm2d(cur, params[f"{bn}.gamma"], params[f"{bn}.beta"],
                                  params[f"{bn}.running_mean"], params[f"{bn}.running_var"],
                                  mode, tape=tape)
        cur = relu(cur)
    if features:
        return cur
    cur = ops.global_avg_pool(cur, tape=tape)
    for j, i in enumerate(linears):
        if j:
            cur = relu(cur)
            if mode == "train":
                rng = None if dropout_rng is None else dropout_rng(i - 1)
                cur = ops.dropout(cur, spec.dropout_rate, rng=rng, tape=tape)
        cur = ops.linear(cur, params[f"{i:02d}.weight"], params[f"{i:02d}.bias"], tape=tape)
    return ops.softmax(cur) if with_softmax else cur


def eval_batch_size(spec: NetworkSpec, sample_shape: tuple[int, int, int]) -> int:
    """Samples per eval forward of ``spec`` over (C, H, W) samples:
    max(1, EVAL_BYTES // widest), where widest is the bytes of the largest
    array one sample makes the forward hold, its input or a conv output.
    Every layer gives a sample the same bits alone and in any batch, so
    this sets memory only, never an output."""
    c, h, w = sample_shape
    geoms = spec.conv_geoms()
    areas = [a * b for a, b in zip(output_size(geoms, h), output_size(geoms, w))]
    widest = max([c * h * w] + [b.out_ch * a for b, a in zip(spec.blocks, areas)])
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
    return network_forward(spec, params, patches, "eval", features=True)


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
