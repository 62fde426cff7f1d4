"""Reverse-mode gradient tape.

Primitive operations append one record per execution; replaying the records in
reverse order accumulates gradients into every input tensor, so a parameter
used twice receives the sum of both contributions.  A tape replays once, and
frees memory as it goes: each record leaves the tape when its rule has run,
and so does its output's gradient.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["Tape"]

# A backward rule maps the output gradient to one gradient per recorded input.
BackwardRule = Callable[[np.ndarray], Sequence[np.ndarray]]


class Tape:
    """Ordered record of executed primitives for reverse-mode replay."""

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, BackwardRule]] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, inputs: Sequence[Tensor], output: Tensor, backward: BackwardRule) -> None:
        self._records.append((tuple(inputs), output, backward))

    def backward(self, loss: Tensor, seed: np.ndarray | None = None) -> None:
        """Accumulate d(loss)/d(input) into ``.grad`` of every recorded input.

        ``seed`` is the gradient of the final objective with respect to
        ``loss`` itself; it defaults to ones (a sum-loss over ``loss``).

        Replay empties the tape.  Each record is dropped once its rule has
        run, and its output's gradient with it (``loss`` keeps its seed), so
        an intermediate output and its gradient are freed as soon as no
        earlier record needs them.  Afterwards only ``loss`` and tensors that
        no record produced (parameters, inputs) hold a gradient.
        """
        if seed is None:
            seed = np.ones_like(loss.data)
        else:
            seed = np.asarray(seed, dtype=np.float32)
            if seed.shape != loss.data.shape:
                raise ValueError(f"seed shape {seed.shape} != loss shape {loss.data.shape}")
        loss.accumulate_grad(seed)
        records = self._records
        while records:
            inputs, output, rule = records.pop()
            gout = output.grad
            if gout is None:
                # dead branch: output never influenced the loss
                continue
            grads = rule(gout)
            if len(grads) != len(inputs):
                raise RuntimeError(
                    f"backward rule returned {len(grads)} gradients for {len(inputs)} inputs"
                )
            if output is not loss:
                output.grad = None
            for tensor, grad in zip(inputs, grads):
                if tensor.grad is None and _ownable(grad, tensor, grads, output):
                    tensor.grad = grad
                else:
                    tensor.accumulate_grad(grad)


def _ownable(grad: np.ndarray, tensor: Tensor, grads: Sequence, output: Tensor) -> bool:
    """Whether ``tensor`` may keep the array a rule returned as its gradient
    instead of a copy: an array of its own (no view of another, not the
    gradient ``output`` keeps, not returned for another input as well) that
    has the layout of a gradient buffer."""
    return (isinstance(grad, np.ndarray) and grad.base is None
            and grad.flags.writeable and grad.flags.c_contiguous
            and grad.dtype == np.float32 and grad.shape == tensor.data.shape
            and grad is not output.grad
            and sum(g is grad for g in grads) == 1)
