"""Oracles and checker matrices shared between unit and acceptance tests."""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from histopatch import checkpoint, ops
from histopatch.autodiff import Tape
from histopatch.model import ConvBlock, _param_entries
from histopatch.tensor import Tensor


def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
                 padding: int) -> np.ndarray:
    """Direct-summation convolution oracle in float64."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.empty((n, cout, oh, ow), dtype=np.float64)
    w64 = w.astype(np.float64)
    for ni in range(n):
        for o in range(cout):
            for y in range(oh):
                for xx in range(ow):
                    window = xp[ni, :, y * stride:y * stride + kh,
                                xx * stride:xx * stride + kw]
                    out[ni, o, y, xx] = np.sum(window * w64[o]) + b[o]
    return out


def batchnorm_eval(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
                   running_var: Tensor) -> Tensor:
    """Eval-mode batch normalization, (x - running_mean) / sqrt(running_var +
    eps) * gamma + beta per channel, in float32: the reference the eval
    forwards' folded conv is held to."""
    invstd = 1.0 / np.sqrt(running_var.data + np.float32(ops.BATCHNORM_EPS))
    xhat = (x.data - running_mean.data[None, :, None, None]) * invstd[None, :, None, None]
    return Tensor(gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None])


def random_conv_case(rng: np.random.Generator):
    """One random conv shape within the oracle's domain (up to 2x4x16x16)."""
    n = int(rng.integers(1, 3))
    cin = int(rng.integers(1, 5))
    cout = int(rng.integers(1, 5))
    stride = int(rng.integers(1, 4))
    padding = int(rng.integers(0, 3))
    kh = int(rng.integers(1, 5))
    h = int(rng.integers(max(1, kh - 2 * padding), 17))
    wd = int(rng.integers(max(1, kh - 2 * padding), 17))
    x = rng.uniform(-1, 1, size=(n, cin, h, wd)).astype(np.float32)
    w = rng.uniform(-1, 1, size=(cout, cin, kh, kh)).astype(np.float32)
    b = rng.uniform(-1, 1, size=(cout,)).astype(np.float32)
    return x, w, b, stride, padding


def gradcheck_cases() -> list[tuple[str, callable, list[tuple[int, ...]]]]:
    """(name, op(*tensors, tape=...), input shapes) for every differentiable
    primitive, at the smallest nontrivial shapes."""

    def conv_s2p1(x, w, b, tape=None):
        return ops.conv2d(x, w, b, stride=2, padding=1, tape=tape)

    def conv_s1p0(x, w, b, tape=None):
        return ops.conv2d(x, w, b, stride=1, padding=0, tape=tape)

    def conv_s1p1(x, w, b, tape=None):
        return ops.conv2d(x, w, b, stride=1, padding=1, tape=tape)

    def conv_s2p0(x, w, b, tape=None):
        return ops.conv2d(x, w, b, stride=2, padding=0, tape=tape)

    def bn_train(x, g, b, tape=None):
        return ops.batchnorm2d(x, g, b, tape=tape)

    def ce(x, tape=None):
        return ops.cross_entropy(x, np.asarray([0, 1, 2, 3, 1]), tape=tape)

    def drop(x, tape=None):
        return ops.dropout(x, 0.4, rng=np.random.default_rng(99), tape=tape)

    return [
        ("conv2d stride 2 pad 1", conv_s2p1, [(2, 3, 6, 6), (4, 3, 3, 3), (4,)]),
        ("conv2d stride 1 pad 0", conv_s1p0, [(2, 3, 5, 5), (4, 3, 3, 3), (4,)]),
        # the GEMM lowerings of ops.conv2d: the case above has an im2col
        # forward (3 input channels) and a shifted input gradient (4 output
        # channels); below, shifted both ways, a shifted forward with an
        # im2col input gradient, non-overlapping windows with a remainder
        # row and column, and a 1x1 conv
        ("conv2d shifted stride 1 pad 1", conv_s1p1, [(2, 4, 5, 6), (5, 4, 3, 3), (5,)]),
        ("conv2d shifted, im2col dx", conv_s1p1, [(2, 4, 5, 6), (2, 4, 3, 3), (2,)]),
        ("conv2d blocks 2x2 stride 2", conv_s2p0, [(2, 3, 5, 7), (4, 3, 2, 2), (4,)]),
        ("conv2d blocks 1x1", conv_s1p0, [(2, 3, 4, 5), (4, 3, 1, 1), (4,)]),
        ("linear", lambda x, w, b, tape=None: ops.linear(x, w, b, tape=tape),
         [(5, 7), (3, 7), (3,)]),
        ("batchnorm train", bn_train, [(4, 3, 5, 5), (3,), (3,)]),
        ("relu", lambda x, tape=None: ops.relu(x, tape=tape), [(2, 3, 5, 5)]),
        ("cross_entropy", ce, [(5, 4)]),
        ("dropout train", drop, [(3, 4, 5, 5)]),
        ("global_avg_pool", lambda x, tape=None: ops.global_avg_pool(x, tape=tape),
         [(2, 3, 5, 5)]),
    ]


def random_small_stack(rng: np.random.Generator,
                       max_r: int = 28) -> list[ConvBlock]:
    """Random 1..3-layer unpadded 1-channel conv stack with a modest
    receptive field."""
    while True:
        depth = int(rng.integers(1, 4))
        geoms = [ConvBlock(1, 1, kernel=int(rng.integers(1, 5)),
                           stride=int(rng.integers(1, 4)), padding=0)
                 for _ in range(depth)]
        r, jump = 1, 1
        for g in geoms:
            r += (g.kernel - 1) * jump
            jump *= g.stride
        if r <= max_r:
            return geoms


def gradient_support(geoms: list[ConvBlock], out_x: int,
                     input_size: int) -> tuple[int, int]:
    """(first, last) input column influencing output unit (0, out_x), found
    by back-propagating a one-hot seed through an all-ones conv stack."""
    tape = Tape()
    x = Tensor(np.ones((1, 1, input_size, input_size), np.float32),
               requires_grad=True)
    cur = x
    for g in geoms:
        w = Tensor(np.ones((1, 1, g.kernel, g.kernel), np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros(1, np.float32), requires_grad=True)
        cur = ops.conv2d(cur, w, b, stride=g.stride, padding=g.padding, tape=tape)
    seed = np.zeros(cur.shape, dtype=np.float32)
    seed[0, 0, 0, out_x] = 1.0
    tape.backward(cur, seed=seed)
    cols = np.nonzero(np.abs(x.grad).sum(axis=(0, 1, 2)) > 0)[0]
    return int(cols[0]), int(cols[-1])


def write_hpck(path, kind: int, header, tensors,
               version: int = checkpoint.VERSION) -> None:
    """Write a CRC-valid HPCK file from its parts: the kind byte, the header
    (any JSON value) and a list of (name, array), where a name given as
    bytes is written as it is.  Lets a test craft what the loader judges."""
    body = bytearray(b"HPCK" + struct.pack("<HB", version, kind))
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body += struct.pack("<I", len(raw)) + raw + struct.pack("<I", len(tensors))
    for name, array in tensors:
        encoded = name if isinstance(name, bytes) else name.encode("utf-8")
        body += struct.pack("<H", len(encoded)) + encoded
        body += struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape)
        body += np.ascontiguousarray(array, dtype="<f4").tobytes()
    body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(body))


def checkpoint_parts(spec, params, meta: dict | None = None):
    """(header, tensors) as ``save_checkpoint`` writes them, to alter."""
    header = {"spec": spec.to_dict(), "meta": meta or {}}
    return header, [(name, params[name].data) for name, _, _ in _param_entries(spec)]


def _with_spec(header, **changes):
    return {**header, "spec": {**header["spec"], **changes}}


def _without_m7(header, tensors):
    """Image-wise tensors with the 1x1 M7 block (prefixes 18-19) cut out, the
    linears renumbered down by 3 and the first one widened to M6's 256
    channels: a consistent network, but not the canonical stack for the
    stored sizes, which are left as they are."""
    out = []
    for name, array in tensors:
        i = int(name[:2])
        if i in (18, 19):
            continue
        name = f"{i - 3:02d}{name[2:]}" if i > 20 else name
        out.append((name, np.full((256, 256), 0.01, np.float32) if name == "19.weight"
                    else array))
    return header, out


# Malformed checkpoints, each a change to the (header, tensors) of a valid
# one: patch-wise ones apply to any patch-wise checkpoint, IMAGEWISE_BAD to
# an image-wise one.  The loader must refuse every one.
PATCHWISE_BAD = {
    "5x5 kernel under a 3x3 spec": lambda h, t: (h, [
        (n, np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1))) if n == "03.weight" else a)
        for n, a in t]),
    "duplicate name": lambda h, t: (h, t + [(t[0][0], -t[0][1])]),
    "missing tensor": lambda h, t: (h, t[:-1]),
    "extra tensor": lambda h, t: (h, t + [("99.weight", t[0][1])]),
    "meta is not an object": lambda h, t: ({**h, "meta": 5}, t),
    "name is not UTF-8": lambda h, t: (h, [(b"\xff" + t[0][0].encode()[1:], t[0][1])] + t[1:]),
    "base_width is a string": lambda h, t: (_with_spec(h, base_width="8"), t),
    "base_width is a bool": lambda h, t: (_with_spec(h, base_width=True), t),
    "base_width is 0": lambda h, t: (_with_spec(h, base_width=0), t),
    "layers hold a number": lambda h, t: (_with_spec(h, layers=[5]), t),
    "n_classes is stored": lambda h, t: (_with_spec(h, n_classes=4), t),
}
IMAGEWISE_BAD = {
    "M7 block removed": _without_m7,
    "dropout_rate is a string": lambda h, t: (_with_spec(h, dropout_rate="0.5"), t),
    "dropout_rate is a bool": lambda h, t: (_with_spec(h, dropout_rate=True), t),
    "dropout_rate is 1.0": lambda h, t: (_with_spec(h, dropout_rate=1.0), t),
    "dropout_rate missing": lambda h, t: ({**h, "spec": {
        k: v for k, v in h["spec"].items() if k != "dropout_rate"}}, t),
    "n_patches is null": lambda h, t: (_with_spec(h, n_patches=None), t),
}
