#!/usr/bin/env python3
"""Epoch benchmark: one SketchVisor epoch, trace in to answer out.

Usage (from the repository root)::

    python3 epochbench/run.py --workload ddos-twolevel --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``ddos-twolevel``, ``serve-univmon``, ``cluster64-deltoid``
(see ``epochbench/README.md``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end figures with ``--trace 0``, the per-layer
figures of a traced run with ``--trace 1``.  The line before it carries
the machine fingerprint and the run's accounting.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` reports import time plus their median.
SETUP_REPEATS = 3
#: Where traced runs write their Chrome trace and layer table.
OUT_DIR = Path(".epochbench-out")

#: Per-layer figures of a traced run, with their units.
PER_LAYER = (
    ("traffic.partition_s", "s"),
    ("dataplane.host_s", "s"),
    ("dataplane.packets", "count"),
    ("dataplane.normal_packets", "count"),
    ("dataplane.fastpath_packets", "count"),
    ("fastpath.update_s", "s"),
    ("fastpath.updates", "count"),
    ("fastpath.kickouts", "count"),
    ("sketches.update_s", "s"),
    ("sketches.updates", "count"),
    ("sketches.create_s", "s"),
    ("sketches.merge_s", "s"),
    ("sketches.merges", "count"),
    ("sketches.decode_s", "s"),
    ("sketches.decode_calls", "count"),
    ("controlplane.aggregate_s", "s"),
    ("controlplane.recover_s", "s"),
    ("controlplane.lens_s", "s"),
    ("controlplane.svt_s", "s"),
    ("controlplane.svt_calls", "count"),
    ("controlplane.encode_s", "s"),
    ("controlplane.encode_bytes", "B"),
    ("controlplane.decode_s", "s"),
    ("tasks.answer_s", "s"),
    ("tasks.score_s", "s"),
    ("cluster.collect_s", "s"),
    ("cluster.wait_s", "s"),
    ("cluster.aggregator_add_s", "s"),
    ("cluster.aggregator_finish_s", "s"),
    ("cluster.frames", "count"),
    ("cluster.retries", "count"),
    ("cluster.backpressure_waits", "count"),
    ("serve.window_s", "s"),
    ("serve.offer_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.query_ms", "ms"),
    ("serve.queries", "count"),
    ("telemetry.observe_s", "s"),
    ("telemetry.export_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.trace_coverage", "ratio"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(phase, setup_s) -> dict:
    """``epoch_s`` is the median epoch (for ``serve``, the median time
    from one window done to the next); ``windows_per_s`` counts epochs
    (or windows) done per second of the whole loop."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "epoch_s": {"value": statistics.median(phase.times), "unit": "s"},
        "windows_per_s": {
            "value": len(phase.times) / phase.elapsed,
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def _per_layer(recorder, plain, traced) -> dict:
    epochs = list(range(len(traced.times)))
    values = recorder.per_epoch(epochs)
    queries = [
        seconds
        for path, status, seconds, _window in traced.scrapes
        if path != "/metrics" and status == 200
    ]
    if queries:
        values["serve.query_ms"] = 1e3 * statistics.median(queries)
        values["serve.queries"] = len(queries)
    values["bench.trace_overhead_s"] = statistics.median(
        traced.times
    ) - statistics.median(plain.times)
    values["bench.trace_coverage"] = min(
        recorder.root_ns(epoch, traced.thread) / (end - start)
        for epoch, (start, end) in enumerate(traced.windows)
    )
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(HERE))
    import machine

    machine.pin_threads()
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        # The program reads REPRO_* switches; none may leak into a run.
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import layers
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imported = time.perf_counter() - _START

    builds = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.discard(state)
        start = time.perf_counter()
        state = workload.build(args.seed)
        builds.append(time.perf_counter() - start)
    setup_s = imported + statistics.median(builds)

    outputs = []
    if not args.trace:
        phases = workload.phases(state, args.seconds)
        workload.check(state, phases)
        metrics = _end_to_end(phases[0], setup_s)
    else:
        recorder = layers.SpanRecorder()
        phases = workload.phases(state, args.seconds, recorder)
        workload.check(state, phases)
        metrics = _per_layer(recorder, *phases)
        OUT_DIR.mkdir(exist_ok=True)
        outputs = recorder.write(OUT_DIR / f"{workload.name}-seed{args.seed}")
        print(recorder.layer_table(), file=sys.stderr)
    workload.discard(state)

    problems = [problem for phase in phases for problem in phase.problems]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(len(phase.failures) for phase in phases)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": machine.fingerprint(ROOT),
        "packets_per_epoch": len(state.trace),
        "epochs": sum(len(phase.times) for phase in phases),
        "epochs_failed": sum(phase.failed("epoch") for phase in phases),
        "scrapes": sum(len(phase.scrapes) for phase in phases),
        "scrapes_failed": sum(phase.failed("scrape") for phase in phases),
        "run_checks_failed": sum(phase.failed("run") for phase in phases),
        "epoch_times_s": [t for phase in phases for t in phase.times],
        "builds_s": builds,
        "problems": problems[:10],
        "outputs": [str(path) for path in outputs],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
