"""Forward and backward implementations of every layer primitive.

All functions take `Tensor` arguments and compute in float32; those training
differentiates record a backward rule on a `Tape` when given one (softmax and
concat_channels take none).  Batch normalization exists in its train form
only: eval forwards fold it into the conv.  Convolution is lowered onto GEMMs
in one of three ways chosen from the layer's shape (shifted slices of the
padded input for stride-1 convs, a reshape for non-overlapping windows, an
im2col patch matrix otherwise; see the convolution section); its correctness
is pinned against a naive direct-summation oracle in the test suite.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .autodiff import Tape
from .tensor import Tensor

__all__ = [
    "conv2d",
    "batchnorm2d",
    "relu",
    "linear",
    "dropout",
    "softmax",
    "cross_entropy",
    "global_avg_pool",
    "concat_channels",
]


# ---------------------------------------------------------------------------
# convolution
#
# Three lowerings onto GEMM, picked by _lowering from the layer's shape alone:
#
# - "shifted" (stride 1, padding < kernel, and enough input channels, see
#   _lowering): each sample's zero-padded input is flattened row-major with
#   one spare row at the end.  Under kernel offset (i, j) the output, laid
#   out H2 rows of Wp columns, is a contiguous slice of that buffer starting
#   at i*Wp + j, so the conv is kh*kw accumulated GEMMs over slices; the
#   kw-1 columns per row that wrap into the next row are dropped.  No patch
#   matrix is built (Anderson et al. 2017, arXiv 1709.03395).
# - "blocks" (stride == kernel, padding 0, e.g. the 2x2/s2 downsamplers and
#   the 1x1 heads): the windows tile the input, so the patch matrix is one
#   reshape/transpose copy of it, no larger than it (a view for 1x1), and
#   the backward writes each input pixel's gradient once instead of
#   scatter-adding it.
# - "im2col" (everything else, including few-channel inputs on small maps,
#   where one GEMM beats kh*kw thin ones): the strided patch matrix.
#
# Samples are processed in a fixed order and every sample's arithmetic is the
# same whatever batch it rides in, so a sample's output is bit-identical
# alone and in any batch.

# Crossovers of the shifted lowering against im2col, measured single-threaded
# (see CHANGES.md): from 4 input channels it wins forward plus backward at
# batch 32 (ties on 4x4 maps); with 3 it wins only once the output map
# reaches 256x256 and the im2col matrix outgrows the cache; with 1 or 2 it
# loses at every size tried.
_SHIFT_MIN_CIN = 4
_SHIFT_MIN_AREA_3CH = 256 * 256
# Bytes of accumulators and input rows per chunk of the shifted lowering
# (see _Shifted), measured best of 256 KiB, 512 KiB and 1 MiB.
_SHIFT_CHUNK_BYTES = 1 << 19


def _lowering(cin: int, kh: int, kw: int, stride: int, padding: int, area: int) -> str:
    """Lowering of a conv with `cin` input channels and an output map of
    `area` pixels; the batch size never enters, so a sample takes the same
    path alone and in a batch."""
    if stride == kh == kw and padding == 0:
        return "blocks"
    if (stride == 1 and padding < min(kh, kw)
            and (cin >= _SHIFT_MIN_CIN or (cin == 3 and area >= _SHIFT_MIN_AREA_3CH))):
        return "shifted"
    return "im2col"


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C, Hp, Wp) -> (N, C*kh*kw, L) patch matrix, L = H2*W2."""
    n, c, hp, wp = xp.shape
    h2 = (hp - kh) // stride + 1
    w2 = (wp - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, h2, w2),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, h2 * w2)


def _col2im(cols: np.ndarray, shape: tuple[int, int, int, int], kh: int, kw: int,
            stride: int) -> np.ndarray:
    """Scatter-add (N, C*kh*kw, L) columns back onto an (N, C, Hp, Wp) image."""
    n, c, hp, wp = shape
    h2 = (hp - kh) // stride + 1
    w2 = (wp - kw) // stride + 1
    out = np.zeros(shape, dtype=np.float32)
    g6 = cols.reshape(n, c, kh, kw, h2, w2)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * h2:stride, j:j + stride * w2:stride] += g6[:, :, i, j]
    return out


def _unblocks(cols: np.ndarray, shape: tuple[int, int, int, int], kh: int,
              kw: int) -> np.ndarray:
    """_col2im for non-overlapping windows (stride == kernel, padding 0):
    (N, C*kh*kw, H2*W2) -> (N, C, H, W), zeros where no window reaches.  It
    writes each reached pixel once, so it needs no add, and no zero fill
    unless a remainder row or column exists."""
    n, c, h, wd = shape
    h2, w2 = h // kh, wd // kw
    out = (np.empty if (h2 * kh, w2 * kw) == (h, wd) else np.zeros)(shape, dtype=np.float32)
    g6 = cols.reshape(n, c, kh, kw, h2, w2)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:h2 * kh:kh, j:w2 * kw:kw] = g6[:, :, i, j]
    return out


class _Shifted:
    """Geometry of the shifted lowering.  The input (N, C, H, W) is padded by
    (ph, pw) and flattened row-major, one spare row at the end, so that the
    output of a kh x kw kernel is computed H2 rows of Wp columns wide, the
    last kw-1 columns of each row being garbage.  Work goes in chunks of
    `group` samples by `rows` output rows holding about _SHIFT_CHUNK_BYTES:
    small maps batch samples to amortize call overhead, large maps split
    rows to stay in cache.  The reused padded buffer holds rows + kh padded
    rows, those one chunk reads and the spare (all Hp+1 when rows are not
    split), so a large map is never copied whole."""

    def __init__(self, shape: tuple[int, ...], kh: int, kw: int, ph: int, pw: int,
                 out_ch: int):
        self.n, self.c, self.h, self.w = shape
        self.kh, self.ph, self.pw = kh, ph, pw
        self.hp, self.wp = self.h + 2 * ph, self.w + 2 * pw
        self.h2, self.w2 = self.hp - kh + 1, self.wp - kw + 1
        row_bytes = 4 * self.wp * (2 * out_ch + self.c)    # two accumulators + input
        if row_bytes * self.h2 <= _SHIFT_CHUNK_BYTES:
            self.group = min(self.n, _SHIFT_CHUNK_BYTES // (row_bytes * self.h2))
            self.rows = self.h2
        else:
            self.group = 1
            self.rows = max(1, _SHIFT_CHUNK_BYTES // row_bytes)

    def chunks(self, x: np.ndarray):
        """Yield (lo, hi, r0, r1, flat): output rows r0..r1-1 of samples
        lo..hi-1, whose padded input rows from r0 on sit, zero-padded, in
        the reused buffer flat."""
        xp = np.zeros((self.group, self.c, self.rows + self.kh, self.wp), dtype=np.float32)
        flat = xp.reshape(self.group, self.c, -1)
        cols = slice(self.pw, self.pw + self.w)
        for lo in range(0, self.n, self.group):
            hi = min(self.n, lo + self.group)
            for r0 in range(0, self.h2, self.rows):
                top = r0 - self.ph                 # the input row at buffer row 0
                a, b = max(0, top), min(self.h, top + xp.shape[2])
                xp[:, :, :a - top] = 0
                xp[:hi - lo, :, a - top:b - top, cols] = x[lo:hi, :, a:b]
                xp[:, :, b - top:] = 0
                yield lo, hi, r0, min(self.h2, r0 + self.rows), flat[:hi - lo]

    def window(self, flat: np.ndarray, i: int, j: int, r0: int, r1: int) -> np.ndarray:
        """The slice of a chunk's flat under kernel offset (i, j) for output
        rows r0..r1-1."""
        start = i * self.wp + j
        return flat[:, :, start:start + (r1 - r0) * self.wp]

    def buffer(self, ch: int) -> np.ndarray:
        return np.empty(self.group * ch * self.rows * self.wp, dtype=np.float32)


def _prefix(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A contiguous view of the first prod(shape) elements of a flat buffer."""
    return buf[:math.prod(shape)].reshape(shape)


def _shifted_conv(x: np.ndarray, w: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Stride-1 cross-correlation of x (N, C, H, W) with w (O, C, kh, kw) at
    zero padding (ph, pw), without bias: kh*kw accumulated GEMMs."""
    o, _, kh, kw = w.shape
    g = _Shifted(x.shape, kh, kw, ph, pw, o)
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))     # (kh, kw, O, C)
    acc, term = g.buffer(o), g.buffer(o)
    out = np.empty((g.n, o, g.h2, g.w2), dtype=np.float32)
    for lo, hi, r0, r1, flat in g.chunks(x):
        shape = (hi - lo, o, (r1 - r0) * g.wp)
        a, t = _prefix(acc, shape), _prefix(term, shape)
        np.matmul(wt[0, 0], g.window(flat, 0, 0, r0, r1), out=a)
        for i in range(kh):
            for j in range(kw):
                if i or j:
                    np.matmul(wt[i, j], g.window(flat, i, j, r0, r1), out=t)
                    a += t
        out[lo:hi, :, r0:r1] = a.reshape(hi - lo, o, r1 - r0, g.wp)[:, :, :, :g.w2]
    return out


def _shifted_grad_w(x: np.ndarray, gout: np.ndarray, kh: int, kw: int,
                    padding: int) -> np.ndarray:
    """Weight gradient (O, C, kh, kw) of the shifted lowering: per kernel
    offset, gout (zero in the garbage columns) times the shifted slice."""
    o = gout.shape[1]
    g = _Shifted(x.shape, kh, kw, padding, padding, o)
    gw = np.zeros((kh, kw, o, g.c), dtype=np.float32)
    gwide = np.empty((g.n, o, g.h2, g.wp), dtype=np.float32)
    gwide[:, :, :, :g.w2] = gout
    gwide[:, :, :, g.w2:] = 0
    gflat = gwide.reshape(g.n, o, -1)
    for lo, hi, r0, r1, flat in g.chunks(x):
        go = gflat[lo:hi, :, r0 * g.wp:r1 * g.wp]
        for i in range(kh):
            for j in range(kw):
                part = np.matmul(go, g.window(flat, i, j, r0, r1).transpose(0, 2, 1))
                gw[i, j] += part.sum(axis=0)
    return np.ascontiguousarray(gw.transpose(2, 3, 0, 1))


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0,
           tape: Tape | None = None) -> Tensor:
    """2D cross-correlation (no kernel flip) with zero padding.

    x: (N, Cin, H, W), w: (Cout, Cin, kh, kw), b: (Cout,).
    Output spatial size is floor((H + 2*padding - kh)/stride) + 1.

    The GEMM lowering depends only on the per-sample shape (see _lowering
    and the section comment).  The input gradient is the conv of the output
    gradient with the flipped, transposed kernel, lowered by the same rule
    on Cout (for the shifted lowering at padding kernel-1-padding).  A taped
    conv keeps only x and w for the backward pass, which the caller keeps
    alive anyway: the im2col and blocks lowerings rebuild their patch
    matrix from x there rather than hold it between the passes.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4-d input and weight, got {x.shape} and {w.shape}")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(
            f"conv2d channel mismatch: input shape {x.shape} has {cin} channels "
            f"but weight shape {w.shape} expects {cin_w}"
        )
    if b.shape != (cout,):
        raise ValueError(f"conv2d bias shape {b.shape} != ({cout},)")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError(
            f"conv2d kernel {kh}x{kw} larger than padded input {hp}x{wp}"
        )
    h2 = (hp - kh) // stride + 1
    w2 = (wp - kw) // stride + 1
    lowering = _lowering(cin, kh, kw, stride, padding, h2 * w2)

    def patches() -> np.ndarray:
        """The (N, Cin*kh*kw, L) patch matrix of the im2col and blocks lowerings."""
        if padding > 0:
            xp = np.zeros((n, cin, hp, wp), dtype=np.float32)
            xp[:, :, padding:padding + h, padding:padding + wd] = x.data
        else:
            xp = x.data
        return _im2col(xp, kh, kw, stride)

    if lowering == "shifted":
        y = _shifted_conv(x.data, w.data, padding, padding)
        y += b.data[:, None, None]
    else:
        y = np.matmul(w.data.reshape(cout, -1), patches())  # (N, Cout, L)
        y += b.data[:, None]
        y = y.reshape(n, cout, h2, w2)
    out = Tensor(y)

    if tape is not None:
        dx_lowering = _lowering(cout, kh, kw, stride, padding, h * wd)

        def backward(gout: np.ndarray):
            gb = gout.sum(axis=(0, 2, 3))
            go = gout.reshape(n, cout, h2 * w2)
            if lowering == "shifted":
                gw = _shifted_grad_w(x.data, gout, kh, kw, padding)
            else:
                gw = np.matmul(go, patches().transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
            if dx_lowering == "shifted":
                flipped = w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
                gx = _shifted_conv(gout, flipped, kh - 1 - padding, kw - 1 - padding)
                return gx, gw, gb
            gcols = np.matmul(w.data.reshape(cout, -1).T, go)  # (N, CKK, L)
            if dx_lowering == "blocks":
                gx = _unblocks(gcols, x.shape, kh, kw)
            else:
                gxp = _col2im(gcols, (n, cin, hp, wp), kh, kw, stride)
                gx = np.ascontiguousarray(
                    gxp[:, :, padding:padding + h, padding:padding + wd])
            return gx, gw, gb

        tape.record((x, w, b), out, backward)
    return out


# ---------------------------------------------------------------------------
# batch normalization

# Added to the variance under the square root; model.network_forward folds
# eval-mode batchnorm into the preceding conv with the same value.
BATCHNORM_EPS = 1e-5
# Weight of the batch statistics in the running buffers' update.
BATCHNORM_MOMENTUM = 0.1


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
                running_var: Tensor, tape: Tape | None = None) -> Tensor:
    """Per-channel batch normalization over (N, H, W), as in training.

    Normalizes with batch statistics and updates the running buffers in
    place: running <- (1-momentum)*running + momentum*batch, momentum
    ``BATCHNORM_MOMENTUM``.  Eval forwards never call it: they fold the
    running statistics into the conv (model.network_forward).  A taped call
    keeps only the per-channel mean and inverse std; the backward rebuilds
    the normalized input from x, which the conv that made it keeps anyway.
    """
    if x.ndim != 4:
        raise ValueError(f"batchnorm2d expects (N, C, H, W), got {x.shape}")
    n, c, h, wd = x.shape
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if t.shape != (c,):
            raise ValueError(f"batchnorm2d {name} shape {t.shape} != ({c},)")
    m = n * h * wd
    if m < 2:
        raise ValueError(f"batchnorm2d needs N*H*W >= 2 for a defined variance, got {m}")
    mean = x.data.mean(axis=(0, 2, 3))
    centered = x.data - mean[None, :, None, None]
    var = np.mean(centered * centered, axis=(0, 2, 3))
    invstd = 1.0 / np.sqrt(var + np.float32(BATCHNORM_EPS))
    momentum = BATCHNORM_MOMENTUM
    running_mean.data[:] = (1.0 - momentum) * running_mean.data + momentum * mean
    running_var.data[:] = (1.0 - momentum) * running_var.data + momentum * var

    # xhat = centered * invstd, then gamma*xhat + beta, in one buffer
    y = centered
    y *= invstd[None, :, None, None]
    y *= gamma.data[None, :, None, None]
    y += beta.data[None, :, None, None]
    out = Tensor(y)

    if tape is not None:
        def backward(gout: np.ndarray):
            # With k = gamma*invstd per channel, the sums of gout*gamma and
            # of gout*gamma*xhat over (N, H, W) are gamma*gbeta and
            # gamma*ggamma, so gx = k*gout - k*gbeta/m - xhat*k*ggamma/m.
            xhat = x.data - mean[None, :, None, None]       # the forward's xhat
            xhat *= invstd[None, :, None, None]
            ggamma = (gout * xhat).sum(axis=(0, 2, 3))
            gbeta = gout.sum(axis=(0, 2, 3))
            k = gamma.data * invstd
            gx = gout * k[None, :, None, None]
            xhat *= (k * ggamma / m)[None, :, None, None]
            gx -= xhat
            gx -= (k * gbeta / m)[None, :, None, None]
            return gx, ggamma, gbeta, None, None

        tape.record((x, gamma, beta, running_mean, running_var), out, backward)
    return out


# ---------------------------------------------------------------------------
# elementwise and dense layers

def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0.  A taped call
    keeps nothing beyond its output, where x > 0 exactly where out > 0."""
    out = Tensor(np.maximum(x.data, 0.0))
    if tape is not None:
        def backward(gout: np.ndarray):
            return (gout * (out.data > 0.0),)

        tape.record((x,), out, backward)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Affine map: (N, F) @ (G, F)^T + (G,) -> (N, G), one vector-matrix
    product per row, so a row gives the same bits alone and in any batch."""
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"linear expects 2-d input and weight, got {x.shape} and {w.shape}")
    n, f = x.shape
    g, f_w = w.shape
    if f != f_w:
        raise ValueError(
            f"linear feature mismatch: input shape {x.shape} has {f} features "
            f"but weight shape {w.shape} expects {f_w}"
        )
    if b.shape != (g,):
        raise ValueError(f"linear bias shape {b.shape} != ({g},)")
    out = Tensor(np.matmul(x.data[:, None, :], w.data.T)[:, 0] + b.data)

    if tape is not None:
        def backward(gout: np.ndarray):
            gx = gout @ w.data
            gw = gout.T @ x.data
            gb = gout.sum(axis=0)
            return gx, gw, gb

        tape.record((x, w, b), out, backward)
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None,
            tape: Tape | None = None) -> Tensor:
    """Inverted dropout, as in training: zeroes with probability p and scales
    survivors by 1/(1-p).  Rate 0 is the identity; eval forwards skip dropout
    (model.network_forward)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout needs a seeded generator")
    keep = (rng.random(x.shape, dtype=np.float32) >= p)
    mask = keep.astype(np.float32) * np.float32(1.0 / (1.0 - p))
    out = Tensor(x.data * mask)

    if tape is not None:
        def backward(gout: np.ndarray):
            return (gout * mask,)

        tape.record((x,), out, backward)
    return out


# ---------------------------------------------------------------------------
# classification head

def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for stability; forward-only."""
    if x.ndim != 2:
        raise ValueError(f"softmax expects (N, K) logits, got {x.shape}")
    if not np.isfinite(x.data).all():
        raise ValueError("softmax input must be finite")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    return Tensor(e / e.sum(axis=1, keepdims=True))


def cross_entropy(logits: Tensor, labels: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Mean over the batch of -log softmax(logits)[n, labels[n]].

    Returns a 0-d tensor.  The gradient with respect to the logits is
    (softmax - onehot) / N.
    """
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects (N, K) logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(
            f"labels must lie in 0..{k - 1}, got range [{labels.min()}, {labels.max()}]"
        )
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(n), labels]
    loss = np.float32((lse - picked).mean())
    out = Tensor(loss.reshape(()))

    if tape is not None:
        probs = np.exp(z - lse[:, None])

        def backward(gout: np.ndarray):
            g = probs.copy()
            g[np.arange(n), labels] -= 1.0
            g *= np.float32(gout) / np.float32(n)
            return (g, )

        tape.record((logits,), out, backward)
    return out


# ---------------------------------------------------------------------------
# pooling and stacking

def global_avg_pool(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Spatial mean per channel: (N, C, H, W) -> (N, C)."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool expects (N, C, H, W), got {x.shape}")
    n, c, h, wd = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)))

    if tape is not None:
        scale = np.float32(1.0 / (h * wd))

        def backward(gout: np.ndarray):
            return (np.broadcast_to((gout * scale)[:, :, None, None], x.shape),)

        tape.record((x,), out, backward)
    return out


def concat_channels(inputs: Sequence[Tensor]) -> Tensor:
    """Concatenate (C_i, H, W) tensors along channels in argument order;
    forward-only (stage two trains on stacks of frozen features)."""
    if len(inputs) == 0:
        raise ValueError("concat_channels needs at least one input")
    for i, t in enumerate(inputs):
        if t.ndim != 3:
            raise ValueError(f"concat_channels expects (C, H, W) inputs, got {t.shape}")
        if t.shape[1:] != inputs[0].shape[1:]:
            raise ValueError(f"concat_channels spatial mismatch: input 0 is "
                             f"{inputs[0].shape}, input {i} is {t.shape}")
    return Tensor(np.concatenate([t.data for t in inputs], axis=0))
