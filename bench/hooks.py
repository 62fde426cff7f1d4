"""Wrappers the benchmark puts around the program's public functions.

Nothing here edits the program: every wrapper is installed from outside by
replacing a module attribute (under every name that refers to the same
function object, since modules import each other's functions by name) and is
removed again when the ``Patcher`` closes.

``Tracer`` records one span per call of every public function of ``ops``,
``model``, ``trainer``, ``data`` and ``checkpoint``, of ``Tape.backward``, and
of every backward rule an op hands to ``Tape.record``.  ``layer_metrics``
turns the spans into the per-layer figures listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

import numpy as np

from histopatch import autodiff, checkpoint, data, model, ops, trainer

PW_LAYERS = [f"pw{i:02d}" for i in range(1, 17)]
IW_LAYERS = [f"iw{i}" for i in range(1, 8)]

# (name, unit, better); the order is the order BENCHMARK.json lists them in
LAYER_METRICS: list[tuple[str, str, str]] = []
for _layer in PW_LAYERS + IW_LAYERS:
    LAYER_METRICS += [(f"ops.conv2d.{_layer}.fwd_ms", "ms", "lower"),
                      (f"ops.conv2d.{_layer}.bwd_ms", "ms", "lower"),
                      (f"ops.conv2d.{_layer}.gflops", "GFLOP/s", "higher")]
LAYER_METRICS.append(("blas.sgemm_gflops", "GFLOP/s", "higher"))
for _op in ("batchnorm2d", "relu", "linear", "cross_entropy"):
    LAYER_METRICS += [(f"ops.{_op}.fwd_ms", "ms", "lower"), (f"ops.{_op}.bwd_ms", "ms", "lower")]
for _op in ("dropout", "global_avg_pool", "concat_channels", "softmax"):
    LAYER_METRICS.append((f"ops.{_op}.fwd_ms", "ms", "lower"))
LAYER_METRICS += [
    ("autodiff.backward_ms", "ms", "lower"),
    ("autodiff.backward_self_ms", "ms", "lower"),
    ("autodiff.records", "count", "lower"),
    ("trainer.sgd_step_ms", "ms", "lower"),
    ("trainer.step_other_ms", "ms", "lower"),
    ("model.extract_features_ms", "ms", "lower"),
    ("model.image_feature_stack_self_ms", "ms", "lower"),
    ("data.read_ppm_ms", "ms", "lower"),
    ("data.load_images_ms", "ms", "lower"),
    ("data.compute_norm_stats_ms", "ms", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
]

# top-level phases whose spans give the per-layer figures; "cover" is used
# only for a figure that none of these phases produced
MAIN_PHASES = ("train", "infer")


class Stop(Exception):
    """Raised from a step hook to end a training call once its budget is spent."""


class Patcher:
    """Installs wrappers over histopatch functions and takes them out on close."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def wrap(self, owner, name: str, make_wrapper) -> None:
        """Replace ``owner.name`` by ``make_wrapper(original)``; for a module
        function, also every histopatch module attribute bound to it."""
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        owners = [owner]
        if inspect.ismodule(owner):
            owners = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "histopatch" or key.startswith("histopatch."))]
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "val", "attrs", "children")

    def __init__(self, name, start, parent, phase, val, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.val = val
        self.attrs = attrs
        self.children: list[Span] = []

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def child_seconds(self, name: str | None = None) -> float:
        return sum(c.seconds for c in self.children if name is None or c.name == name)


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """In-memory spans, one per traced call.

    ``phase`` is set by the workload around its phases and inherited by every
    span opened meanwhile.  A span is marked ``val`` when it belongs to a
    validation pass (``trainer.evaluate_patches``, or an eval-mode forward
    inside a training call); those never enter the per-layer figures.
    """

    TRAINING_CALLS = ("trainer.train_patchwise", "trainer.train_imagewise")

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.phase = "setup"

    def install(self, patcher: Patcher) -> None:
        for module, prefix in ((ops, "ops"), (model, "model"), (trainer, "trainer"),
                               (data, "data"), (checkpoint, "checkpoint")):
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    patcher.wrap(module, name, functools.partial(self._traced, f"{prefix}.{name}"))
        patcher.wrap(autodiff.Tape, "backward",
                     functools.partial(self._traced, "autodiff.Tape.backward"))
        patcher.wrap(autodiff.Tape, "record", self._recording)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, attrs: dict, val: bool = False) -> Span:
        parent = self.stack[-1] if self.stack else None
        val = val or (parent is not None and parent.val)
        span = Span(name, 0.0, parent, self.phase, val, attrs)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def _innermost(self, name: str) -> Span | None:
        for span in reversed(self.stack):
            if span.name == name:
                return span
        return None

    def _inside_training(self) -> bool:
        return any(s.name in self.TRAINING_CALLS for s in self.stack)

    def _attrs(self, name: str, fn, args, kwargs) -> tuple[dict, bool]:
        """Per-call attributes, and whether the call is part of a validation pass."""
        if name == "trainer.evaluate_patches":
            return {}, True
        if name == "model.network_forward":
            a = _bound_args(fn, args, kwargs)
            val = a["mode"] == "eval" and self._inside_training()
            return {"net": a["spec"].kind, "convs": 0}, val
        if name == "ops.conv2d":
            a = _bound_args(fn, args, kwargs)
            n, cin, h, w = a["x"].shape
            cout, _, kh, kw = a["w"].shape
            s, p = a["stride"], a["padding"]
            h2 = (h + 2 * p - kh) // s + 1
            w2 = (w + 2 * p - kw) // s + 1
            attrs = {"flops": 2 * n * cout * cin * kh * kw * h2 * w2}
            net = self._innermost("model.network_forward")
            if net is not None:
                net.attrs["convs"] += 1
                k = net.attrs["convs"]
                attrs["layer"] = f"pw{k:02d}" if net.attrs["net"] == "patchwise" else f"iw{k}"
            return attrs, False
        if name == "autodiff.Tape.backward":
            return {"records": len(args[0])}, False
        return {}, False

    def _traced(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs, val = self._attrs(name, fn, args, kwargs)
            span = self._open(name, attrs, val)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def _recording(self, record):
        def traced_record(tape, inputs, output, backward):
            op = self.stack[-1] if self.stack else None  # the op recording itself
            name = f"{op.name}.bwd" if op is not None else "unknown.bwd"
            attrs = {"layer": op.attrs["layer"]} if op is not None and "layer" in op.attrs else {}

            def traced_rule(gout):
                span = self._open(name, attrs)
                try:
                    return backward(gout)
                finally:
                    self._close(span)

            return record(tape, inputs, output, traced_rule)
        return traced_record


# ---------------------------------------------------------------------------
# per-layer figures

def sgemm_gflops(n: int = 1024, repeats: int = 5) -> float:
    """Best-of-``repeats`` float32 GEMM rate on this process's BLAS."""
    gen = np.random.default_rng(0)
    a = gen.standard_normal((n, n), dtype=np.float32)
    b = gen.standard_normal((n, n), dtype=np.float32)
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        np.matmul(a, b)
        best = min(best, time.perf_counter() - t)
    return 2.0 * n ** 3 / best / 1e9


def _mean_ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.fmean(values) if values else 0.0


def _step_other_seconds(spans: list[Span]) -> list[float]:
    """Per SGD step inside a training call: the time between two step ends
    not spent in a traced call the loop made (patch gather, batch assembly,
    bookkeeping).  Steps across a validation or feature-caching call are
    left out."""
    out = []
    for call in spans:
        if call.name not in Tracer.TRAINING_CALLS:
            continue
        steps = [c for c in call.children if c.name == "trainer.sgd_step"]
        for prev, cur in zip(steps, steps[1:]):
            inside = [c for c in call.children if c.start >= prev.end and c.end <= cur.end]
            if any(c.val or c.name == "model.image_feature_stack" for c in inside):
                continue
            out.append((cur.end - prev.end) - sum(c.seconds for c in inside))
    return out


def layer_metrics(tracer: Tracer, sgemm: float) -> dict[str, float]:
    """Every figure of ``LAYER_METRICS``: ms per call (a mean over calls),
    GFLOP/s, or a count.  A figure is taken from the workload's timed phases,
    or from its coverage pass when no timed phase made such a call; it is 0
    only if neither did."""
    pools = ([s for s in tracer.spans if s.phase in MAIN_PHASES and not s.val],
             [s for s in tracer.spans if s.phase == "cover" and not s.val])
    every = tracer.spans

    def pick(select):
        for pool in pools:
            chosen = select(pool)
            if chosen:
                return chosen
        return []

    def named(name, layer=None):
        return lambda pool: [s for s in pool if s.name == name
                             and (layer is None or s.attrs.get("layer") == layer)]

    out: dict[str, float] = {}
    for layer in PW_LAYERS + IW_LAYERS:
        fwd = pick(named("ops.conv2d", layer))
        out[f"ops.conv2d.{layer}.fwd_ms"] = _mean_ms(s.seconds for s in fwd)
        out[f"ops.conv2d.{layer}.bwd_ms"] = _mean_ms(
            s.seconds for s in pick(named("ops.conv2d.bwd", layer)))
        seconds = sum(s.seconds for s in fwd)
        out[f"ops.conv2d.{layer}.gflops"] = (
            sum(s.attrs["flops"] for s in fwd) / seconds / 1e9 if seconds > 0 else 0.0)
    out["blas.sgemm_gflops"] = sgemm
    for op in ("batchnorm2d", "relu", "linear", "cross_entropy"):
        out[f"ops.{op}.fwd_ms"] = _mean_ms(s.seconds for s in pick(named(f"ops.{op}")))
        out[f"ops.{op}.bwd_ms"] = _mean_ms(s.seconds for s in pick(named(f"ops.{op}.bwd")))
    for op in ("dropout", "global_avg_pool", "concat_channels", "softmax"):
        out[f"ops.{op}.fwd_ms"] = _mean_ms(s.seconds for s in pick(named(f"ops.{op}")))
    backward = pick(named("autodiff.Tape.backward"))
    out["autodiff.backward_ms"] = _mean_ms(s.seconds for s in backward)
    out["autodiff.backward_self_ms"] = _mean_ms(s.seconds - s.child_seconds() for s in backward)
    out["autodiff.records"] = (statistics.fmean(s.attrs["records"] for s in backward)
                               if backward else 0.0)
    out["trainer.sgd_step_ms"] = _mean_ms(s.seconds for s in pick(named("trainer.sgd_step")))
    out["trainer.step_other_ms"] = _mean_ms(pick(_step_other_seconds))
    out["model.extract_features_ms"] = _mean_ms(
        s.seconds for s in pick(named("model.extract_features")))
    out["model.image_feature_stack_self_ms"] = _mean_ms(
        s.seconds - s.child_seconds("model.extract_features")
        for s in pick(named("model.image_feature_stack")))
    for metric, span_name in (("data.read_ppm_ms", "data.read_ppm"),
                              ("data.load_images_ms", "data.load_images"),
                              ("data.compute_norm_stats_ms", "data.compute_norm_stats"),
                              ("checkpoint.save_ms", "checkpoint.save_checkpoint"),
                              ("checkpoint.load_ms", "checkpoint.load_checkpoint")):
        out[metric] = _mean_ms(s.seconds for s in named(span_name)(every))
    return out
