"""Sliding-window arithmetic: patch grids, layer output sizes, receptive fields.

Everything here is integer math, parameterized rather than hard-coded, so the
full-resolution configuration and the desk-scale one share the same formulas.
``patch_windows`` is the one place that turns a grid into pixel crops.  Layer
stacks are sequences of ``model.ConvBlock``: only their ``kernel``, ``stride``
and ``padding`` are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .model import ConvBlock

__all__ = [
    "GeometryError",
    "PatchGrid",
    "RFState",
    "patch_coords",
    "patch_windows",
    "output_size",
    "receptive_field",
]


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class PatchGrid:
    """Sliding-window decomposition of an image.

    n_x = 1 + floor((image_w - window)/stride), same for n_y; every patch
    lies fully inside the image.
    """

    image_w: int
    image_h: int
    window: int
    stride: int

    def __post_init__(self):
        if self.window < 1:
            raise GeometryError(f"window must be >= 1, got {self.window}")
        if self.stride < 1:
            raise GeometryError(f"stride must be >= 1, got {self.stride}")
        if self.window > self.image_w or self.window > self.image_h:
            raise GeometryError(
                f"window {self.window} exceeds image {self.image_w}x{self.image_h}"
            )

    @property
    def n_x(self) -> int:
        return 1 + (self.image_w - self.window) // self.stride

    @property
    def n_y(self) -> int:
        return 1 + (self.image_h - self.window) // self.stride

    @property
    def total(self) -> int:
        return self.n_x * self.n_y

    @property
    def coverage_exact(self) -> bool:
        """False when the right/bottom border is not reached by any patch."""
        return ((self.image_w - self.window) % self.stride == 0
                and (self.image_h - self.window) % self.stride == 0)


def patch_coords(grid: PatchGrid) -> list[tuple[int, int]]:
    """(x, y) offsets in row-major order: y outer, x inner."""
    return [(i * grid.stride, j * grid.stride)
            for j in range(grid.n_y) for i in range(grid.n_x)]


def patch_windows(image: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Read-only (n_y, n_x, C, window, window) view of every patch of a
    (C, H, W) array; ``[j, i]`` is the crop at offset (i*stride, j*stride),
    so a row-major flatten follows ``patch_coords``.  Nothing is copied."""
    if image.ndim != 3:
        raise GeometryError(f"patch_windows expects (C, H, W), got {image.shape}")
    _, h, w = image.shape
    if (w, h) != (grid.image_w, grid.image_h):
        raise GeometryError(
            f"grid is for a {grid.image_w}x{grid.image_h} image, got {w}x{h}"
        )
    k, s = grid.window, grid.stride
    view = np.lib.stride_tricks.sliding_window_view(image, (k, k), axis=(1, 2))
    return view[:, ::s, ::s].transpose(1, 2, 0, 3, 4)


@dataclass(frozen=True)
class RFState:
    """Receptive field r and jump j, both in input pixels; identity is (1, 1)."""

    r: int = 1
    jump: int = 1


def output_size(layers: Sequence[ConvBlock], size: int) -> list[int]:
    """Spatial size after each layer: n' = floor((n + 2*pad - kernel)/stride) + 1."""
    sizes = []
    n = size
    for i, layer in enumerate(layers):
        n = (n + 2 * layer.padding - layer.kernel) // layer.stride + 1
        if n < 1:
            raise GeometryError(
                f"layer {i} ({layer.kernel}x{layer.kernel} s{layer.stride} "
                f"p{layer.padding}) collapses the map to size {n}"
            )
        sizes.append(n)
    return sizes


def receptive_field(layers: Sequence[ConvBlock]) -> RFState:
    """Fold r <- r + (kernel-1)*j then j <- j*stride over the stack.

    Padding shifts alignment only; it does not change r or j.
    """
    r, j = 1, 1
    for layer in layers:
        r += (layer.kernel - 1) * j
        j *= layer.stride
    return RFState(r=r, jump=j)
