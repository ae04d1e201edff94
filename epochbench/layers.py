"""Traced runs: span wrappers around the program's public entry points.

Nothing here touches the program's sources.  :meth:`SpanRecorder.install`
swaps each named entry point (a method on a class and its subclasses,
or a module-level function wherever a ``repro`` module binds it) for a
thin wrapper that records one span per call, and :meth:`uninstall` puts
the originals back.  An untraced run never calls ``install``.

A span holds its layer name, start, end, parent span, epoch id and
thread.  Two entry points run once per packet (``FastPath.update`` and
the sketches' ``update``/``update_batch``): a span per call would cost
more than the work it times, so those calls are folded into call counts
and summed time on their enclosing span instead, which still charges
their time out of that span's self time.

A nested call into the same layer (a sketch ``update`` that reaches
another wrapped ``update``, a ``super()`` call) is not recorded again,
so no layer counts its time twice.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Span:
    __slots__ = (
        "name", "start", "end", "parent", "epoch", "tid", "child_ns",
        "folded",
    )

    def __init__(self, name, parent, epoch, tid):
        self.name = name
        self.parent = parent
        self.epoch = epoch
        self.tid = tid
        self.start = 0
        self.end = 0
        self.child_ns = 0
        self.folded = None

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        #: Epoch (or window) id stamped on spans as they open.
        self.epoch: int | None = None
        #: (epoch, counter name) -> value, for counts read off results.
        self.counts: dict[tuple, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- per-thread state ------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local.open
        except AttributeError:
            local.stack = []
            local.open = set()
            return local.stack, local.open

    def is_open(self, name: str) -> bool:
        return name in self._state()[1]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.epoch, name)] += value

    # -- wrappers --------------------------------------------------------
    def span_wrapper(self, name, fn, on_result=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, open_names = recorder._state()
            if name in open_names:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(name, parent, recorder.epoch, threading.get_ident())
            stack.append(span)
            open_names.add(name)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _now()
                stack.pop()
                open_names.discard(name)
                if parent is not None:
                    parent.child_ns += span.end - span.start
                with recorder._lock:
                    recorder.spans.append(span)
            if on_result is not None:
                on_result(recorder, span, args, result)
            return result

        return wrapper

    def folded_wrapper(self, name, fn, on_result=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, open_names = recorder._state()
            if name in open_names or not stack:
                # Nested in its own layer, or outside any span (never
                # the case inside an epoch): call straight through.
                return fn(*args, **kwargs)
            open_names.add(name)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                open_names.discard(name)
                parent = stack[-1]
                parent.child_ns += elapsed
                if parent.folded is None:
                    parent.folded = {}
                entry = parent.folded.get(name)
                if entry is None:
                    parent.folded[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
            if on_result is not None:
                on_result(recorder, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_method(self, base, attr, name, folded=False, **hooks):
        """Wrap ``attr`` on ``base`` and on every subclass that defines
        its own ``attr``."""
        classes = [base]
        seen = set()
        while classes:
            cls = classes.pop()
            if cls in seen:
                continue
            seen.add(cls)
            classes.extend(cls.__subclasses__())
            if attr not in cls.__dict__:
                continue
            original = cls.__dict__[attr]
            if folded:
                wrapped = self.folded_wrapper(name, original, **hooks)
            else:
                wrapped = self.span_wrapper(name, original, **hooks)
            self._set(cls, attr, wrapped)

    def wrap_function(self, fn, name, **hooks):
        """Wrap a module-level function in every ``repro`` module that
        binds it (``from x import f`` copies the binding)."""
        wrapped = self.span_wrapper(name, fn, **hooks)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer's public entry points (see the README)."""
        from repro.cluster.aggregator import Aggregator
        from repro.cluster.runner import ClusterCollector
        from repro.controlplane import lens, recovery, transport
        from repro.controlplane.controller import Controller
        from repro.dataplane.host import Host
        from repro.fastpath.topk import FastPath, UpdateKind
        from repro.framework.monitor import ContinuousMonitor
        from repro.framework.pipeline import WindowScheduler
        from repro.sketches.base import Sketch
        from repro.tasks.base import MeasurementTask
        from repro.telemetry import exporters, publish
        from repro.telemetry.accuracy import AccuracyObserver
        from repro.traffic.trace import Trace

        def host_counts(recorder, _span, _args, report):
            switch = report.switch
            recorder.count("dataplane.packets", switch.total_packets)
            recorder.count("dataplane.normal_packets", switch.normal_packets)
            recorder.count(
                "dataplane.fastpath_packets", switch.fastpath_packets
            )

        def fastpath_counts(recorder, kind):
            if kind is UpdateKind.KICKOUT:
                recorder.count("fastpath.kickouts")

        def encode_counts(recorder, _span, _args, frame):
            recorder.count("controlplane.encode_bytes", len(frame))
            if recorder.is_open("cluster.collect"):
                recorder.count("cluster.frames")

        def collect_counts(recorder, _span, _args, collection):
            stats = collection.stats
            recorder.count("cluster.retries", stats.retries)
            recorder.count(
                "cluster.backpressure_waits", stats.backpressure_waits
            )

        def window_published(recorder, _span, _args, _result):
            # The next offer fills the next window.
            recorder.epoch += 1

        self.wrap_method(Trace, "partition", "traffic.partition")
        self.wrap_method(
            Host, "run_epoch", "dataplane.host", on_result=host_counts
        )
        self.wrap_method(
            FastPath, "update", "fastpath.update", folded=True,
            on_result=fastpath_counts,
        )
        for attr in ("update", "update_batch"):
            self.wrap_method(Sketch, attr, "sketches.update", folded=True)
        self.wrap_method(Sketch, "merge", "sketches.merge")
        self.wrap_method(Sketch, "decode", "sketches.decode")
        self.wrap_method(MeasurementTask, "create_sketch", "sketches.create")
        self.wrap_method(MeasurementTask, "answer", "tasks.answer")
        self.wrap_method(MeasurementTask, "score", "tasks.score")
        self.wrap_method(Controller, "aggregate", "controlplane.aggregate")
        self.wrap_function(recovery.recover, "controlplane.recover")
        self.wrap_function(lens.lens_interpolate, "controlplane.lens")
        self.wrap_function(lens.singular_value_threshold, "controlplane.svt")
        self.wrap_function(
            transport.encode_report, "controlplane.encode",
            on_result=encode_counts,
        )
        self.wrap_function(transport.decode_report, "controlplane.decode")
        self.wrap_method(
            ClusterCollector, "collect", "cluster.collect",
            on_result=collect_counts,
        )
        self.wrap_method(Aggregator, "add", "cluster.aggregator_add")
        self.wrap_method(Aggregator, "finish", "cluster.aggregator_finish")
        self.wrap_method(ContinuousMonitor, "process_epoch", "serve.window")
        self.wrap_method(WindowScheduler, "offer", "serve.offer")
        self.wrap_function(
            publish.publish_serve_window, "serve.publish",
            on_result=window_published,
        )
        self.wrap_method(
            AccuracyObserver, "observe_epoch", "telemetry.observe"
        )
        self.wrap_function(exporters.prometheus_text, "telemetry.export")

    # -- reports ---------------------------------------------------------
    def root_ns(self, epoch: int, tid: int) -> int:
        """Summed time of ``epoch``'s top-level spans on thread ``tid``."""
        return sum(
            span.end - span.start
            for span in self.spans
            if span.parent is None
            and span.epoch == epoch
            and span.tid == tid
        )

    def per_epoch(self, epochs) -> dict[str, float]:
        """Median over ``epochs`` of each layer figure's per-epoch sum.

        Times (``*_s``) are inclusive span time, except
        ``cluster.wait_s``, the self time of ``ClusterCollector.collect``
        (socket I/O and event-loop waiting).
        """
        sums: dict[str, dict[int, float]] = defaultdict(
            lambda: dict.fromkeys(epochs, 0.0)
        )
        wanted = set(epochs)
        for span in self.spans:
            if span.epoch not in wanted:
                continue
            sums[f"{span.name}_s"][span.epoch] += (span.end - span.start) / 1e9
            if span.name == "cluster.collect":
                sums["cluster.wait_s"][span.epoch] += span.self_ns / 1e9
            if span.name == "sketches.decode":
                sums["sketches.decode_calls"][span.epoch] += 1
            if span.name == "sketches.merge":
                sums["sketches.merges"][span.epoch] += 1
            if span.name == "controlplane.svt":
                sums["controlplane.svt_calls"][span.epoch] += 1
            for name, (calls, ns) in (span.folded or {}).items():
                sums[f"{name}_s"][span.epoch] += ns / 1e9
                sums[f"{name}s"][span.epoch] += calls
        for (epoch, name), value in self.counts.items():
            if epoch in wanted:
                sums[name][epoch] += value
        return {
            name: statistics.median(values[e] for e in epochs)
            for name, values in sums.items()
        }

    def layer_table(self) -> str:
        """Per-layer calls, inclusive and self time over all spans."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span.name] += 1
            total[span.name] += span.end - span.start
            own[span.name] += span.self_ns
            for name, (count, ns) in (span.folded or {}).items():
                calls[name] += count
                total[name] += ns
                own[name] += ns
        lines = [f"{'layer':<28}{'calls':>10}{'total_s':>12}{'self_s':>12}"]
        for name in sorted(total, key=lambda n: -own[n]):
            lines.append(
                f"{name:<28}{calls[name]:>10}"
                f"{total[name] / 1e9:>12.4f}{own[name] / 1e9:>12.4f}"
            )
        return "\n".join(lines) + "\n"

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace (``chrome://tracing``) JSON."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        events = []
        for index, span in enumerate(self.spans):
            args = {
                "epoch": span.epoch,
                "parent": ids.get(id(span.parent)),
                "id": index,
            }
            for name, (count, ns) in (span.folded or {}).items():
                args[name] = {"calls": count, "s": ns / 1e9}
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": span.start / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "pid": 1,
                "tid": span.tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, stem) -> list[str]:
        """Write ``<stem>.trace.json`` and ``<stem>.layers.txt``."""
        trace_path = f"{stem}.trace.json"
        table_path = f"{stem}.layers.txt"
        with open(trace_path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
        with open(table_path, "w") as handle:
            handle.write(self.layer_table())
        return [trace_path, table_path]
