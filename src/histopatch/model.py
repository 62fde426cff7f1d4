"""Network descriptions, builders and forward passes for both stages.

The patch-wise network is a fully convolutional 16-layer stack that halves the
map at the 3rd, 6th and 9th convolutions (2x2 stride-2 convs, channels doubled
each time), ends in a 1x1 conv of depth C, and classifies through global
average pooling and a 4-way linear head.  The image-wise network consumes the
channel-stacked feature maps of all tiled patches and classifies through three
fully connected layers.  Channel widths beyond the doubling rule are free
hyper-parameters (base width B, feature depth C, head depth D).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import ops
from .autodiff import Tape
from .data import N_CLASSES
from .geometry import (LayerGeom, PatchGrid, RFState, output_size, patch_windows,
                       receptive_field)
from .rng import derive
from .tensor import Tensor

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "canonical_patchwise_spec",
    "canonical_imagewise_spec",
    "init_params",
    "trainable_names",
    "network_forward",
    "patchwise_logits",
    "extract_features",
    "stack_features",
    "image_feature_stack",
    "infer_image",
    "CLASS_NAMES",
]

CLASS_NAMES = ("normal tissue", "benign tissue", "in situ carcinoma", "invasive carcinoma")

DropoutRngFactory = Callable[[int], np.random.Generator]


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

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        return LayerSpec(
            kind=d["kind"],
            in_ch=d.get("in_ch"),
            out_ch=d.get("out_ch"),
            kernel=d.get("kernel"),
            stride=d.get("stride", 1),
            padding=d.get("padding", 0),
            rate=d.get("rate"),
        )


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of a network; everything else derives from it."""

    kind: str  # "patchwise" | "imagewise"
    layers: tuple[LayerSpec, ...]
    base_width: int | None = None
    feature_depth: int | None = None
    head_depth: int | None = None
    n_patches: int | None = None
    feature_cut: int | None = None  # layer index whose output is the feature map
    n_classes: int = N_CLASSES

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.kind not in ("patchwise", "imagewise"):
            raise ValueError(f"unknown network kind {self.kind!r}")
        width = None  # channel/feature count flowing between layers
        for i, layer in enumerate(self.layers):
            if layer.kind == "conv":
                if width is not None and layer.in_ch != width:
                    raise ValueError(
                        f"layer {i}: conv expects {layer.in_ch} channels but gets {width}"
                    )
                width = layer.out_ch
            elif layer.kind == "batchnorm":
                if layer.in_ch != width:
                    raise ValueError(
                        f"layer {i}: batchnorm over {layer.in_ch} channels but gets {width}"
                    )
            elif layer.kind == "linear":
                if width is not None and layer.in_ch != width:
                    raise ValueError(
                        f"layer {i}: linear expects {layer.in_ch} features but gets {width}"
                    )
                width = layer.out_ch
            elif layer.kind == "softmax":
                if i != len(self.layers) - 1:
                    raise ValueError("softmax must be the final layer")
            elif layer.kind not in ("relu", "dropout", "global_avg_pool"):
                raise ValueError(f"layer {i}: unknown kind {layer.kind!r}")
        if self.kind == "patchwise":
            self._validate_patchwise()

    def _validate_patchwise(self) -> None:
        convs = [l for l in self.layers if l.kind == "conv"]
        if len(convs) != 16:
            raise ValueError(f"patch-wise stack needs 16 conv layers, got {len(convs)}")
        strided = [i + 1 for i, l in enumerate(convs) if l.stride == 2]
        if strided != [3, 6, 9]:
            raise ValueError(f"stride-2 convs must sit at positions 3, 6, 9, got {strided}")
        for pos in (3, 6, 9):
            l = convs[pos - 1]
            if l.out_ch != 2 * l.in_ch:
                raise ValueError(
                    f"conv {pos} must double channels, got {l.in_ch} -> {l.out_ch}"
                )

    def conv_geoms(self) -> list[LayerGeom]:
        return [LayerGeom(l.kernel, l.stride, l.padding)
                for l in self.layers if l.kind == "conv"]

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["layers"] = [l.to_dict() for l in self.layers]
        return d

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        """Inverse of ``to_dict``; a missing size takes the field's default."""
        sizes = {f.name: d.get(f.name, f.default) for f in fields(NetworkSpec)
                 if f.name not in ("kind", "layers")}
        return NetworkSpec(kind=d["kind"],
                           layers=tuple(LayerSpec.from_dict(ld) for ld in d["layers"]),
                           **sizes)


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


# ---------------------------------------------------------------------------
# parameters

def _param_entries(spec: NetworkSpec):
    """Yield (name, layer_index, role) for every tensor a network spec owns."""
    for i, layer in enumerate(spec.layers):
        prefix = f"{i:02d}"
        if layer.kind == "conv" or layer.kind == "linear":
            yield f"{prefix}.weight", i, "weight"
            yield f"{prefix}.bias", i, "bias"
        elif layer.kind == "batchnorm":
            yield f"{prefix}.gamma", i, "gamma"
            yield f"{prefix}.beta", i, "beta"
            yield f"{prefix}.running_mean", i, "running_mean"
            yield f"{prefix}.running_var", i, "running_var"


def trainable_names(spec: NetworkSpec) -> list[str]:
    """Unique names of every trainable tensor (running stats excluded)."""
    return [name for name, _, role in _param_entries(spec)
            if role in ("weight", "bias", "gamma", "beta")]


def init_params(spec: NetworkSpec, seed: int) -> dict[str, Tensor]:
    """Fresh parameter set, deterministic per (spec, seed).

    Conv/linear weights are uniform(-b, b) with b = sqrt(6/(fan_in+fan_out));
    biases and betas start at 0, gammas at 1, running stats at (0, 1).
    """
    params: dict[str, Tensor] = {}
    for name, i, role in _param_entries(spec):
        layer = spec.layers[i]
        if role == "weight":
            if layer.kind == "conv":
                k = layer.kernel
                shape = (layer.out_ch, layer.in_ch, k, k)
                fan_in = layer.in_ch * k * k
                fan_out = layer.out_ch * k * k
            else:
                shape = (layer.out_ch, layer.in_ch)
                fan_in, fan_out = layer.in_ch, layer.out_ch
            bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
            rng = derive(seed, f"init.{name}")
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
            params[name] = Tensor(data, requires_grad=True)
        elif role == "bias" or role == "beta":
            size = layer.out_ch if role == "bias" else layer.in_ch
            params[name] = Tensor(np.zeros(size, dtype=np.float32), requires_grad=True)
        elif role == "gamma":
            params[name] = Tensor(np.ones(layer.in_ch, dtype=np.float32), requires_grad=True)
        elif role == "running_mean":
            params[name] = Tensor(np.zeros(layer.in_ch, dtype=np.float32))
        elif role == "running_var":
            params[name] = Tensor(np.ones(layer.in_ch, dtype=np.float32))
    return params


# ---------------------------------------------------------------------------
# forward passes

def network_forward(spec: NetworkSpec, params: dict[str, Tensor], x: Tensor, mode: str,
                    tape: Tape | None = None, dropout_rng: DropoutRngFactory | None = None,
                    stop_after: int | None = None, with_softmax: bool = False) -> Tensor:
    """Run the layer stack on ``x``.

    ``stop_after`` returns the output of that layer index (feature
    extraction).  The trailing softmax is skipped unless ``with_softmax`` —
    training reads raw logits.  Dropout is active only in train mode.
    """
    cur = x
    for i, layer in enumerate(spec.layers):
        prefix = f"{i:02d}"
        if layer.kind == "conv":
            cur = ops.conv2d(cur, params[f"{prefix}.weight"], params[f"{prefix}.bias"],
                             stride=layer.stride, padding=layer.padding, tape=tape)
        elif layer.kind == "batchnorm":
            cur = ops.batchnorm2d(cur, params[f"{prefix}.gamma"], params[f"{prefix}.beta"],
                                  params[f"{prefix}.running_mean"],
                                  params[f"{prefix}.running_var"], mode, tape=tape)
        elif layer.kind == "relu":
            cur = ops.relu(cur, tape=tape)
        elif layer.kind == "dropout":
            if mode == "train" and layer.rate > 0:
                if dropout_rng is None:
                    raise ValueError("train-mode forward through dropout needs dropout_rng")
                cur = ops.dropout(cur, layer.rate, "train", rng=dropout_rng(i), tape=tape)
            # eval or rate 0: identity
        elif layer.kind == "global_avg_pool":
            cur = ops.global_avg_pool(cur, tape=tape)
        elif layer.kind == "linear":
            cur = ops.linear(cur, params[f"{prefix}.weight"], params[f"{prefix}.bias"],
                             tape=tape)
        elif layer.kind == "softmax":
            if with_softmax:
                cur = ops.softmax(cur, tape=tape)
        if stop_after is not None and i == stop_after:
            return cur
    return cur


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
    if spec.feature_cut is None:
        raise ValueError("spec has no feature_cut layer")
    return network_forward(spec, params, patches, "eval", stop_after=spec.feature_cut)


def stack_features(features: list[Tensor], expected_count: int | None = None) -> Tensor:
    """Concatenate per-patch (C, h, w) feature maps along channels, in
    row-major patch order."""
    if expected_count is not None and len(features) != expected_count:
        raise ValueError(
            f"expected {expected_count} patch feature maps, got {len(features)}"
        )
    return ops.concat_channels(features)


def image_feature_stack(pw_spec: NetworkSpec, pw_params: dict[str, Tensor],
                        image: Tensor, window: int) -> Tensor:
    """Tile a normalized (3, H, W) image with non-overlapping patches, extract
    per-patch features in one eval batch, and stack them channel-wise."""
    h, w = image.shape[-2:]
    grid = PatchGrid(image_w=w, image_h=h, window=window, stride=window)
    batch = patch_windows(image.data, grid).reshape(grid.total, -1, window, window)
    feats = extract_features(pw_spec, pw_params, Tensor(batch))
    per_patch = [Tensor(f) for f in feats.data]
    return stack_features(per_patch, expected_count=grid.total)


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
