"""Dense float32 tensor type: the sole numeric currency of the engine."""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "zeros", "ones", "full"]


class Tensor:
    """N-dimensional float32 array with row-major layout.

    Canonical layouts: (N, C, H, W) for feature maps, (out, in, kh, kw) for
    convolution weights, (rows, cols) for matrices, flat for vectors.  The
    buffer is always C-contiguous, so the flat index of (n, c, h, w) is
    ((n*C + c)*H + h)*W + w.  ``grad`` holds the accumulated gradient after a
    backward pass and always matches ``data`` in shape.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if arr.size == 0:
            raise ValueError(f"tensor extents must all be >= 1, got shape {arr.shape}")
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def copy(self) -> "Tensor":
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Sum ``g`` into the gradient buffer, allocating zeros on first use."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value, dtype=np.float32), requires_grad=requires_grad)
