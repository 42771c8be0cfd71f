"""Outside-in span tracing for the end-to-end benchmark.

The tracer patches public callables of each ``repro`` layer from the
benchmark process — nothing under ``src/`` knows it exists — and records
one span per call: name, start, end, parent span and thread.  Spans stay
in memory; at the end of a traced run they are reduced to per-layer self
time (span time minus the time covered by its direct children) and
written out as a Chrome trace-event file.

Patches are installed only while a traced block runs (``with
tracer.active():``) and removed afterwards, so untraced blocks of the
same run execute the unmodified program and the difference between the
two is the tracing overhead.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path


def layer_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer name)`` for every traced callable.

    Layer names follow the ``repro`` module that owns the callable; they
    are the prefixes of the per-layer metrics in ``BENCHMARK.json``.
    """
    from repro.attention import group as group_module
    from repro.attention.group import GroupAttention
    from repro.attention.multihead import MultiHeadSelfAttention
    from repro.autograd.tensor import Tensor
    from repro.data.dataloader import DataLoader
    from repro.kernels import functional
    from repro.model.encoder import RitaEncoderLayer
    from repro.model.rita import RitaModel, TimeAwareConvolution
    from repro.nn.conv import ConvTranspose1d
    from repro.nn.module import Sequential
    from repro.optim.adam import AdamW
    from repro.scheduler.adaptive import AdaptiveScheduler
    from repro.serve.batcher import MicroBatcher
    from repro.serve.engine import InferenceEngine
    from repro.tasks.classification import ClassificationTask
    from repro.tasks.imputation import ImputationTask
    from repro.train.trainer import Trainer

    return [
        (DataLoader, "__iter__", "data"),
        (ImputationTask, "loss", "tasks"),
        (ClassificationTask, "loss", "tasks"),
        (Trainer, "train_epoch", "train.trainer"),
        (RitaModel, "classify", "model.rita"),
        (RitaModel, "reconstruct", "model.rita"),
        (TimeAwareConvolution, "forward", "model.frontend"),
        (RitaEncoderLayer, "forward", "model.encoder"),
        (ConvTranspose1d, "forward", "model.decoder"),
        (MultiHeadSelfAttention, "forward", "attention.mhsa"),
        (GroupAttention, "forward", "attention.group"),
        # group.py binds the name at import, so patch it where it is looked up.
        (group_module, "batched_kmeans", "cluster.kmeans"),
        (functional, "fused_group_softmax", "kernels.group_softmax"),
        (functional, "segment_sum", "kernels.segment_sum"),
        (functional, "linear", "kernels.linear"),
        (functional, "layer_norm", "kernels.layer_norm"),
        (Sequential, "forward", "nn.ffn"),
        (Tensor, "backward", "autograd.backward"),
        (AdamW, "step", "optim.step"),
        (AdaptiveScheduler, "step", "scheduler.adaptive"),
        (InferenceEngine, "classify", "serve.engine"),
        (MicroBatcher, "map", "serve.batcher"),
    ]


def router_targets() -> list[tuple[object, str, str]]:
    """The client-side serving hops, traced in the live routed run."""
    from repro.serve.cluster import WorkerPool
    from repro.serve.router import Router

    return [
        (Router, "submit", "serve.router.submit"),
        (WorkerPool, "dispatch", "serve.router.dispatch"),
    ]


#: Span record: (span id, name, start, end, parent id or -1, thread id).
Span = tuple[int, str, float, float, int, int]


class Tracer:
    """Patches ``targets`` while active and records one span per call."""

    def __init__(self, targets: list[tuple[object, str, str]]) -> None:
        self.spans: list[Span] = []
        self.wall_seconds = 0.0  #: summed duration of the traced blocks
        self._targets = []
        for owner, attr, name in targets:
            if attr not in vars(owner):
                # A refactor moved the callable: its layer reads 0 and its
                # time lands in other.share, which the report makes visible.
                print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                      f"layer {name!r} is not traced", file=sys.stderr)
                continue
            self._targets.append((owner, attr, name, vars(owner)[attr]))
        self._ids = itertools.count()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def call(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, threading.get_ident()))

        return call

    def _wrap_generator(self, fn, name: str):
        """A generator's work happens in ``next``: one span per item."""
        step = self._wrap(next, name)

        @functools.wraps(fn)
        def iterate(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        return iterate

    @contextlib.contextmanager
    def active(self):
        """Install every patch for the duration of one traced block."""
        for owner, attr, name, original in self._targets:
            wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap
            setattr(owner, attr, wrap(original, name))
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.wall_seconds += time.perf_counter() - started
            for owner, attr, _name, original in self._targets:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Every recorded duration of spans called ``name``, in seconds."""
        return [end - start for _, span_name, start, end, _, _ in self.spans if span_name == name]

    def count(self, prefix: str) -> int:
        return sum(1 for span in self.spans if span[1].startswith(prefix))

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span time minus its direct children's time."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
        return totals

    def shares(self) -> dict[str, float]:
        """Self time of each layer over the traced blocks' wall time."""
        if self.wall_seconds <= 0.0:
            return {}
        return {name: seconds / self.wall_seconds for name, seconds in self.self_seconds().items()}

    def write_chrome_trace(self, path: Path, op_ends: list[float]) -> Path:
        """Chrome trace-event JSON; ``op_ends`` assigns each span its op id.

        An op is one train step, engine batch or request; a span belongs
        to the first op that ends after the span starts.
        """
        origin = min((span[2] for span in self.spans), default=0.0)
        ends = sorted(op_ends)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": {"span": span_id, "parent": parent, "op": bisect.bisect_left(ends, start)},
            }
            for span_id, name, start, end, parent, tid in sorted(self.spans, key=lambda s: s[2])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path
