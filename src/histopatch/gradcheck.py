"""Finite-difference verification of analytic gradients.

The harness compares the taped backward pass of an operation against central
differences of a weighted scalar loss.  A plain sum-loss is blind to ops whose
output sums are constant (train-mode batchnorm's are fixed by beta), so the
loss is sum(W * out) with fixed random weights W; the sum-loss is the W == 1
special case.

Differences are taken along random sign directions rather than one coordinate
at a time.  Per-coordinate differences on float32 forwards drown tiny
gradient entries in rounding noise; a directional projection compares
O(1)-magnitude scalars, which keeps the 1e-3 tolerance meaningful while still
catching any wrong backward rule (a single flipped or dropped term shifts the
projection by far more than the tolerance at the small shapes used here).
The analytic side is projected onto the perturbation the float32 inputs
actually realize, so the step's representation error cancels exactly.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .autodiff import Tape
from .tensor import Tensor
from .rng import derive

__all__ = ["grad_check"]

# Op under test: callable(*tensors, tape=tape) -> Tensor.
CheckedOp = Callable[..., Tensor]


def _draw_inputs(shapes: Sequence[tuple[int, ...]], rng: np.random.Generator,
                 kink_margin: float) -> list[Tensor]:
    tensors = []
    for shape in shapes:
        v = rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
        # keep values away from piecewise-linear kinks (relu at 0) so the
        # central difference stays on one linear piece
        small = np.abs(v) < kink_margin
        v[small] = np.where(v[small] >= 0.0, kink_margin, -kink_margin)
        tensors.append(Tensor(v, requires_grad=True))
    return tensors


def grad_check(op: CheckedOp, shapes: Sequence[tuple[int, ...]], seed: int,
               h: float = 1e-2, kink_margin: float = 0.05,
               n_dirs: int = 4) -> float:
    """Max relative error between analytic and numeric directional derivatives.

    Inputs are drawn uniformly in [-1, 1] (nudged away from 0 by
    ``kink_margin``, which also keeps every +-h step on one linear piece).
    For each input tensor and each of ``n_dirs`` random sign directions d,
    the numeric side is (L(x + h d) - L(x - h d)) / 2h of the weighted scalar
    loss, accumulated in float64, and the analytic side is the backward-pass
    gradient projected onto the realized float32 perturbation.  The relative
    error is |a - n| / max(|a|, |n|, 1e-6).
    """
    rng = derive(seed, "gradcheck")
    tensors = _draw_inputs(shapes, rng, kink_margin)

    # analytic pass
    tape = Tape()
    out = op(*tensors, tape=tape)
    weights = rng.uniform(-1.0, 1.0, size=out.shape).astype(np.float32)
    tape.backward(out, seed=weights)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    w64 = weights.astype(np.float64)

    def loss() -> float:
        y = op(*tensors, tape=None)
        return float(np.sum(w64 * y.data.astype(np.float64)))

    def central(t: Tensor, base: np.ndarray, direction: np.ndarray,
                step: float) -> tuple[float, np.ndarray]:
        """Central difference at one step size, plus the direction the f32
        rounding actually realized."""
        plus = (base + step * direction).astype(np.float32)
        minus = (base - step * direction).astype(np.float32)
        t.data[...] = plus
        f_plus = loss()
        t.data[...] = minus
        f_minus = loss()
        t.data[...] = base
        diff = (f_plus - f_minus) / (2.0 * step)
        realized = (plus.astype(np.float64) - minus.astype(np.float64)) / (2.0 * step)
        return diff, realized

    worst = 0.0
    for t, grad in zip(tensors, analytic):
        base = t.data.copy()
        g64 = grad.astype(np.float64)
        pairs = []
        for _ in range(n_dirs):
            direction = rng.choice(np.asarray([-1.0, 1.0], dtype=np.float32),
                                   size=base.shape)
            # Richardson pair: (4 D(h/2) - D(h)) / 3 cancels the h^2
            # truncation term, which otherwise dominates for ops that are
            # curved in the whole-tensor direction (batch statistics)
            d_full, r_full = central(t, base, direction, h)
            d_half, r_half = central(t, base, direction, h / 2.0)
            numeric = (4.0 * d_half - d_full) / 3.0
            effective = (4.0 * r_half - r_full) / 3.0
            pairs.append((float(np.sum(g64 * effective)), numeric))
        # one direction can land a near-zero projection by chance, so errors
        # are judged at the scale of the largest projection seen for this
        # tensor; a wrong backward rule still shifts some projection by a
        # fraction of that scale
        scale = max(max(abs(a), abs(n)) for a, n in pairs)
        denom = max(scale, 1e-6)
        for a, n in pairs:
            worst = max(worst, abs(a - n) / denom)
    return worst
