"""Spans recorded from outside the program, for the traced run.

``install`` wraps the public calls of every layer (``synth_mnist``,
``Module.finalize``, ``DropBack.step``, ``Trainer.fit``, ``Tensor.backward``,
``kernels.resolve``, ``save_sparse``, ``ModelRegistry.acquire``,
``ModelHandle.forward``, ``InferenceServer.submit`` ...).  Each call records
one span: name, thread, start, end and parent span (the innermost open
span of the same thread).  Spans stay in memory and are written out as
JSONL when the child ends.  Nothing under ``src/`` is changed; an untraced
child never imports this module.

``layer_metrics`` folds the spans into the per-layer metrics of
``BENCHMARK.json``: busy time and call counts per layer, self time (a
span's duration minus its children's), and the share of the process's
wall time that no span covers.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

#: Span-name prefix -> layer, for self time.  Longest prefix wins.
LAYERS = {
    "proc": "imports",
    "bench": "bench",
    "data": "data",
    "nn": "nn",
    "core": "core",
    "train": "train",
    "tensor": "tensor",
    "kernels": "kernels",
    "io": "io",
    "infer": "serve_registry",
    "serve.registry": "serve_registry",
    "serve.packed": "serve_registry",
    "serve.server": "serve_server",
}
#: Kernel (op, backend) pairs the workloads resolve on the default backend.
KERNEL_PAIRS = (
    ("matmul", "fast"),
    ("relu_forward", "fast"),
    ("relu_backward", "fast"),
    ("conv2d_forward", "fast"),
    ("conv2d_backward", "fast"),
    ("batch_norm_forward", "fast"),
    ("batch_norm_backward", "fast"),
    ("max_pool2d_forward", "fast"),
    ("max_pool2d_backward", "reference"),
)
#: Children of ``ModelRegistry.acquire`` that make up a materialization.
_MATERIALIZE = ("nn.construct", "nn.finalize", "infer.materialize_resident",
                "serve.packed.try_build")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced child reports, as (name, unit)."""
    names = [
        ("data.synth_s", "s"), ("data.batch_wait_s", "s"),
        ("nn.finalize_s", "s"), ("nn.finalize_calls", "count"),
        ("core.dropback_init_s", "s"), ("core.step_unfrozen_s", "s"),
        ("core.step_frozen_s", "s"), ("core.steps", "count"), ("core.swaps_total", "count"),
        ("train.fit_s", "s"), ("train.forward_s", "s"), ("train.backward_s", "s"),
        ("train.evaluate_s", "s"),
    ]
    for op, backend in KERNEL_PAIRS:
        names += [(f"kernels.{op}.{backend}_s", "s"), (f"kernels.{op}.{backend}_calls", "count")]
    names += [
        ("kernels.reference_fallback_calls", "count"),
        ("io.save_sparse_s", "s"),
        ("serve.registry.register_s", "s"), ("serve.registry.acquire_s", "s"),
        ("serve.registry.materialize_s", "s"), ("serve.registry.lock_wait_s", "s"),
        ("serve.registry.hit_ratio", "ratio"), ("serve.registry.materializations", "count"),
        ("serve.registry.evictions", "count"), ("serve.registry.resident_bytes_peak", "bytes"),
        ("serve.batcher.queue_wait_ms_p50", "ms"), ("serve.batcher.batch_size_mean", "count"),
        ("serve.server.forward_s", "s"), ("serve.server.forward_ms_per_batch", "ms"),
        ("serve.loadgen.late_ms_max", "ms"), ("serve.requests", "count"),
        ("serve.failed", "count"),
    ]
    names += [(f"self.{layer}_s", "s") for layer in sorted(set(LAYERS.values()))]
    names += [("trace.uncovered_share", "ratio"), ("trace.spans", "count")]
    return names


class Tracer:
    """Thread-aware span recorder; spans are ``(id, parent, name, thread, t0, t1)``."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.fallback_names: set[str] = set()
        self.resident_bytes_peak = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, t0: float, t1: float) -> None:
        """A span timed elsewhere (the imports, before the tracer existed)."""
        self.spans.append((next(self._ids), -1, name, threading.get_ident(), t0, t1))

    @contextmanager
    def span(self, name: str):
        sid, stack = next(self._ids), self._stack()
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = time.monotonic()
        try:
            yield
        finally:
            t1 = time.monotonic()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), t0, t1))

    @contextmanager
    def own_work(self, name: str):
        """One span for the benchmark's own work (checks); no spans inside it."""
        with self.span(name):
            self._local.quiet = True
            try:
                yield
            finally:
                self._local.quiet = False

    def quiet(self) -> bool:
        return getattr(self._local, "quiet", False)

    def wrap(self, fn, name):
        """``fn`` recording one span per call; ``name`` may be ``f(*args)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.quiet():
                return fn(*args, **kwargs)
            label = name(*args) if callable(name) else name
            if label == "serve.registry.acquire":
                tracer._local.batch_start = time.monotonic()
            with tracer.span(label):
                return fn(*args, **kwargs)

        return traced

    def batch_start(self) -> float:
        """Start of the current thread's latest ``acquire``: its batch start."""
        return getattr(self._local, "batch_start", float("nan"))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for sid, parent, name, tid, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "thread": tid, "start": t0, "end": t1}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (call after importing repro)."""
    import repro.data as data
    import repro.io as rio
    import repro.train.trainer as trainer_mod
    from repro.core import DropBack
    from repro.data.dataset import DataLoader
    from repro.infer import RegeneratingInferenceEngine
    from repro.nn import Module
    from repro.serve import InferenceServer, ModelHandle, ModelRegistry, PackedModel
    from repro.tensor import Tensor, kernels
    from repro.tensor.kernels import registry as kregistry

    w = tracer.wrap
    data.synth_mnist = w(data.synth_mnist, "data.synth")
    data.synth_cifar = w(data.synth_cifar, "data.synth")
    Module.finalize = w(Module.finalize, "nn.finalize")
    DropBack.__init__ = w(DropBack.__init__, "core.dropback_init")
    DropBack.step = w(DropBack.step,
                      lambda opt: "core.step_frozen" if opt.frozen else "core.step_unfrozen")
    trainer_mod.Trainer.fit = w(trainer_mod.Trainer.fit, "train.fit")
    trainer_mod.evaluate = w(trainer_mod.evaluate, "train.evaluate")
    Tensor.backward = w(Tensor.backward, "tensor.backward")
    rio.save_sparse = w(rio.save_sparse, "io.save_sparse")
    rio.load_sparse = w(rio.load_sparse, "io.load_sparse")
    ModelRegistry.register = w(ModelRegistry.register, "serve.registry.register")
    ModelRegistry.acquire = _acquire_peak(tracer, w(ModelRegistry.acquire,
                                                    "serve.registry.acquire"))
    RegeneratingInferenceEngine.materialize_resident = w(
        RegeneratingInferenceEngine.materialize_resident, "infer.materialize_resident")
    PackedModel.try_build = classmethod(w(PackedModel.try_build.__func__,
                                          "serve.packed.try_build"))
    ModelHandle.forward = w(ModelHandle.forward, "serve.server.forward")
    InferenceServer.submit = w(InferenceServer.submit, "serve.server.submit")
    InferenceServer.stats = property(w(InferenceServer.stats.fget, "serve.server.stats"))

    orig_iter = DataLoader.__iter__

    def traced_iter(self):
        it = orig_iter(self)
        if tracer.quiet():
            yield from it
            return
        while True:
            with tracer.span("data.batch"):
                item = next(it, None)
            if item is None:
                return
            yield item

    DataLoader.__iter__ = traced_iter

    orig_resolve = kernels.resolve

    def traced_resolve(op, backend=None):
        name, fn = orig_resolve(op, backend)
        if tracer.quiet():
            return name, fn
        requested = backend or kregistry.op_overrides().get(op) or kregistry.get_backend()
        label = f"kernels.{op}.{name}"
        if name != requested:
            tracer.fallback_names.add(label)
        return name, w(fn, label)

    kernels.resolve = traced_resolve


def _acquire_peak(tracer: Tracer, acquire):
    """Record the registry's resident + pinned bytes after every acquire."""

    @functools.wraps(acquire)
    def traced(registry, digest):
        handle = acquire(registry, digest)
        if tracer.quiet():
            return handle
        total = registry.resident_bytes + registry.pinned_bytes
        tracer.resident_bytes_peak = max(tracer.resident_bytes_peak, total)
        return handle

    return traced


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    covered, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        covered += t1 - max(t0, end)
        end = t1
    return covered


def layer_metrics(tracer: Tracer, result: dict, t0: float, t_end: float) -> dict:
    """Per-layer metrics of one traced child, from its spans and its ``result``.

    ``result`` carries what the child read from public state rather than
    spans: ``swaps_total`` and, under ``serve``, registry and server stats,
    load-generator counts and queue waits.  ``t0``..``t_end`` is the
    process's wall time.
    """
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
        total[s[2]] = total.get(s[2], 0.0) + (s[5] - s[4])
        calls[s[2]] = calls.get(s[2], 0) + 1

    def under_fit(s) -> bool:
        parent = by_id.get(s[1])
        return parent is not None and parent[2] == "train.fit"

    m: dict[str, float] = {name: 0.0 for name, _ in per_layer_metrics()}
    m["data.synth_s"] = total.get("data.synth", 0.0)
    m["data.batch_wait_s"] = sum(s[5] - s[4] for s in spans
                                 if s[2] == "data.batch" and under_fit(s))
    m["nn.finalize_s"] = total.get("nn.finalize", 0.0)
    m["nn.finalize_calls"] = calls.get("nn.finalize", 0)
    m["core.dropback_init_s"] = total.get("core.dropback_init", 0.0)
    m["core.step_unfrozen_s"] = total.get("core.step_unfrozen", 0.0)
    m["core.step_frozen_s"] = total.get("core.step_frozen", 0.0)
    m["core.steps"] = calls.get("core.step_unfrozen", 0) + calls.get("core.step_frozen", 0)
    m["core.swaps_total"] = result.get("swaps_total", 0)
    m["train.fit_s"] = total.get("train.fit", 0.0)
    m["train.backward_s"] = sum(s[5] - s[4] for s in spans
                                if s[2] == "tensor.backward" and under_fit(s))
    m["train.evaluate_s"] = total.get("train.evaluate", 0.0)
    # Forward: from a training batch's arrival to the start of its backward.
    forward = 0.0
    for fit in (s for s in spans if s[2] == "train.fit"):
        batch_end = None
        for c in sorted(children.get(fit[0], []), key=lambda s: s[4]):
            if c[2] == "data.batch":
                batch_end = c[5]
            elif c[2] == "tensor.backward" and batch_end is not None:
                forward += c[4] - batch_end
                batch_end = None
    m["train.forward_s"] = forward

    fallback = 0
    for name in total:
        if name.startswith("kernels."):
            if f"{name}_s" in m:
                m[f"{name}_s"] = total[name]
                m[f"{name}_calls"] = calls[name]
            if name in tracer.fallback_names:
                fallback += calls[name]
    m["kernels.reference_fallback_calls"] = fallback
    m["io.save_sparse_s"] = total.get("io.save_sparse", 0.0)

    materialize = 0.0
    for acq in (s for s in spans if s[2] == "serve.registry.acquire"):
        parts = [c for c in children.get(acq[0], []) if c[2] in _MATERIALIZE]
        if parts:
            materialize += max(c[5] for c in parts) - min(c[4] for c in parts)
    acquire = total.get("serve.registry.acquire", 0.0)
    m["serve.registry.register_s"] = total.get("serve.registry.register", 0.0)
    m["serve.registry.acquire_s"] = acquire
    m["serve.registry.materialize_s"] = materialize
    m["serve.registry.lock_wait_s"] = acquire - materialize
    served = result.get("serve") or {}
    stats = served.get("registry") or {}
    looked_up = stats.get("hits", 0) + stats.get("materializations", 0)
    m["serve.registry.hit_ratio"] = stats.get("hits", 0) / looked_up if looked_up else 0.0
    m["serve.registry.materializations"] = stats.get("materializations", 0)
    m["serve.registry.evictions"] = stats.get("evictions", 0)
    m["serve.registry.resident_bytes_peak"] = tracer.resident_bytes_peak
    waits = served.get("queue_waits_ms") or []
    m["serve.batcher.queue_wait_ms_p50"] = statistics.median(waits) if waits else 0.0
    m["serve.batcher.batch_size_mean"] = served.get("batch_size_mean", 0.0)
    batches = served.get("batches", 0)
    m["serve.server.forward_s"] = total.get("serve.server.forward", 0.0)
    m["serve.server.forward_ms_per_batch"] = (
        1e3 * m["serve.server.forward_s"] / batches if batches else 0.0
    )
    m["serve.loadgen.late_ms_max"] = served.get("late_ms_max", 0.0)
    m["serve.requests"] = served.get("requests", 0)
    m["serve.failed"] = served.get("failed_requests", 0)

    for s in spans:
        layer = LAYERS[max((p for p in LAYERS if s[2].startswith(p)), key=len)]
        busy = s[5] - s[4] - sum(c[5] - c[4] for c in children.get(s[0], []))
        m[f"self.{layer}_s"] += busy
    covered = _union_seconds([(s[4], s[5]) for s in spans])
    m["trace.uncovered_share"] = max(0.0, 1.0 - covered / (t_end - t0))
    m["trace.spans"] = len(spans)
    return m
