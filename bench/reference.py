"""Float64 references the benchmark checks the program's convolutions against.

The references sum over kernel offsets of the zero-padded input directly
(one tensordot per offset), so they share no code and no im2col layout with
``histopatch.ops``.  The tolerance is the classical bound for a float32 sum of
K products: |computed - exact| <= gamma(K) * sum|terms|, with
gamma(K) = K*u / (1 - K*u) and u = 2**-24, which holds for any summation
order.  K counts the products summed into one output value plus the final
bias add or accumulation.
"""

from __future__ import annotations

import numpy as np

from histopatch import ops

U = 2.0 ** -24


def gamma(k: int) -> float:
    return k * U / (1.0 - k * U)


class _CapturingTape:
    """Stands in for a Tape inside one conv2d call so the conv's backward
    rule can be observed; everything else goes to the real tape."""

    def __init__(self, tape, sink: dict):
        self.tape = tape
        self.sink = sink

    def record(self, inputs, output, backward):
        sink = self.sink

        def rule(gout):
            grads = backward(gout)
            sink.update(gout=np.array(gout), gx=np.array(grads[0]), gw=np.array(grads[1]),
                        gb=np.array(grads[2]))
            return grads

        self.tape.record(inputs, output, rule)


class ConvCapture:
    """Keeps the first ``ops.conv2d`` call (and its backward, if taped) of
    every distinct layer shape made while installed."""

    def __init__(self):
        self.calls: dict[tuple, dict] = {}

    def install(self, patcher) -> None:
        patcher.wrap(ops, "conv2d", self._capturing)

    def _capturing(self, conv):
        def capturing(x, w, b, stride=1, padding=0, tape=None):
            key = (x.shape[1:], w.shape, stride, padding)
            if key in self.calls:
                return conv(x, w, b, stride=stride, padding=padding, tape=tape)
            call = {"x": x.data.copy(), "w": w.data.copy(), "b": b.data.copy(),
                    "stride": stride, "padding": padding}
            inner = _CapturingTape(tape, call) if tape is not None else None
            out = conv(x, w, b, stride=stride, padding=padding, tape=inner)
            call["y"] = out.data.copy()
            self.calls[key] = call
            return out
        return capturing


def _offsets(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Yield (i, j, strided view of the padded input under kernel offset (i, j))."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    h2 = (h + 2 * padding - kh) // stride + 1
    w2 = (w + 2 * padding - kw) // stride + 1
    for i in range(kh):
        for j in range(kw):
            yield i, j, xp[:, :, i:i + stride * (h2 - 1) + 1:stride,
                           j:j + stride * (w2 - 1) + 1:stride]


def _excess(actual: np.ndarray, exact: np.ndarray, bound: np.ndarray) -> float:
    """Largest |actual - exact| / bound; at most 1 when within the bound."""
    err = np.abs(actual.astype(np.float64) - exact)
    return float(np.max(err / np.maximum(bound, np.finfo(np.float64).tiny)))


def check_conv(call: dict) -> dict[str, float]:
    """Worst error-to-bound ratio of each captured output: 'y', and with a
    backward also 'gx', 'gw', 'gb'."""
    x = call["x"].astype(np.float64)
    w = call["w"].astype(np.float64)
    b = call["b"].astype(np.float64)
    s, p = call["stride"], call["padding"]
    cout, cin, kh, kw = w.shape

    y = 0.0
    y_mag = 0.0
    for i, j, xs in _offsets(x, kh, kw, s, p):
        y = y + np.tensordot(xs, w[:, :, i, j], axes=([1], [1])).transpose(0, 3, 1, 2)
        y_mag = y_mag + np.tensordot(np.abs(xs), np.abs(w[:, :, i, j]),
                                     axes=([1], [1])).transpose(0, 3, 1, 2)
    y = y + b[None, :, None, None]
    y_mag = y_mag + np.abs(b)[None, :, None, None]
    ratios = {"y": _excess(call["y"], y, gamma(cin * kh * kw + 1) * y_mag)}
    if "gout" not in call:
        return ratios

    g = call["gout"].astype(np.float64)
    n, _, h, wd = x.shape
    gxp = np.zeros((n, cin, h + 2 * p, wd + 2 * p))
    gxp_mag = np.zeros_like(gxp)
    gw = np.zeros_like(w)
    gw_mag = np.zeros_like(w)
    h2, w2 = g.shape[2:]
    for i, j, xs in _offsets(x, kh, kw, s, p):
        window = (slice(None), slice(None), slice(i, i + s * (h2 - 1) + 1, s),
                  slice(j, j + s * (w2 - 1) + 1, s))
        gxp[window] += np.tensordot(g, w[:, :, i, j], axes=([1], [0])).transpose(0, 3, 1, 2)
        gxp_mag[window] += np.tensordot(np.abs(g), np.abs(w[:, :, i, j]),
                                        axes=([1], [0])).transpose(0, 3, 1, 2)
        gw[:, :, i, j] = np.tensordot(g, xs, axes=([0, 2, 3], [0, 2, 3]))
        gw_mag[:, :, i, j] = np.tensordot(np.abs(g), np.abs(xs), axes=([0, 2, 3], [0, 2, 3]))
    inner = (slice(None), slice(None), slice(p, p + h), slice(p, p + wd))
    terms = n * h2 * w2  # products summed into one weight or bias gradient
    ratios["gx"] = _excess(call["gx"], gxp[inner], gamma(cout * kh * kw + 1) * gxp_mag[inner])
    ratios["gw"] = _excess(call["gw"], gw, gamma(terms + 1) * gw_mag)
    ratios["gb"] = _excess(call["gb"], g.sum(axis=(0, 2, 3)),
                           gamma(terms + 1) * np.abs(g).sum(axis=(0, 2, 3)))
    return ratios


def cross_entropy64(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Float64 mean cross-entropy of ``logits`` and a float32 tolerance for it."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    losses = lse - z[np.arange(len(labels)), labels]
    k = logits.shape[1]
    # exp, sum of k terms, log, subtraction, then a mean over the batch
    tol = gamma(k + 4 + len(labels)) * float(np.mean(np.abs(lse) + np.abs(z).max(axis=1))) + U
    return float(losses.mean()), tol
