"""The three workloads: one epoch loop each, through the public API.

Each workload has a ``build`` step (inputs and the objects under test;
timed as set-up), ``phases`` that run whole epochs (or windows) for a
number of seconds, and a ``check`` of everything the phases produced
against :mod:`oracle`.  Given a :class:`~layers.SpanRecorder`,
``phases`` returns an untraced and a traced phase instead of one.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field

import oracle
from repro import (
    CardinalityTask,
    DDoSTask,
    FlowSizeDistributionTask,
    HeavyHitterTask,
    PipelineConfig,
    SketchVisorPipeline,
    Telemetry,
    TraceConfig,
    generate_trace,
)
from repro.cluster import ClusterConfig
from repro.serve import MeasurementService, ReplaySource, ServeConfig
from repro.traffic.anomalies import inject_ddos_victims

#: Heavy-hitter threshold as a share of the epoch's bytes (the CLI's
#: ``--threshold-fraction`` default).
HH_FRACTION = 0.005
#: Generator seed of the 48K-packet trace behind ``ddos-twolevel`` and
#: ``serve-univmon``.  Their epoch cost follows the trace's make-up (and
#: the DDoS epoch the flood's too) by 10-17% from one seed to the next,
#: more than a run can average out, so these inputs stay fixed; see the
#: README for what ``--seed`` drives there.
BASE_TRACE_SEED = 1
#: Seed of the injected DDoS floods (the injector's default).
FLOOD_SEED = 7
#: Query endpoints whose every window is checked on ``serve-univmon``.
QUERIES = ("heavy-hitters", "cardinality")


@dataclass
class Phase:
    """What one timed phase did."""

    #: Wall seconds of each epoch (or each window's share of the loop).
    times: list[float] = field(default_factory=list)
    #: Seconds the epochs took (for serve, the whole ingest loop).
    elapsed: float = 0.0
    #: Operations tried: epochs (or windows), scrapes, and one
    #: whole-run check where a workload has one.
    attempted: int = 0
    #: (kind, index) of each failed operation -> what failed in it.
    failures: dict = field(default_factory=dict)
    #: Per-epoch start/end (``perf_counter_ns``) and thread, for the
    #: traced run's coverage figure.
    windows: list[tuple[int, int]] = field(default_factory=list)
    thread: int = 0
    #: Each epoch's answer, checked after timing.
    answers: list = field(default_factory=list)
    #: Scrapes made beside the windows (serve only).
    scrapes: list = field(default_factory=list)

    def fail(self, kind: str, index: int, message: str) -> None:
        self.failures.setdefault((kind, index), []).append(message)

    def failed(self, kind: str) -> int:
        return sum(1 for failed_kind, _ in self.failures if failed_kind == kind)

    @property
    def problems(self) -> list[str]:
        return [
            f"{kind} {index}: {message}"
            for (kind, index), messages in self.failures.items()
            for message in messages
        ]


class Workload:
    name = ""

    def discard(self, state) -> None:
        """Release what ``build`` started."""


# ----------------------------------------------------------------------
# Epoch loops for the two batch workloads
# ----------------------------------------------------------------------
def _epoch_loop(state, seconds, recorder=None, check_epoch=None):
    """Run whole epochs until ``seconds`` have passed, keeping each
    answer; ``check_epoch(result)`` may name what went wrong at once.

    Untraced, that is one phase of at least one epoch.  With a
    recorder, epochs alternate untraced and traced (wrappers installed
    for odd epochs only), so a drift in epoch time over the run lands
    on both sides alike; that returns two phases of at least one epoch
    each.
    """
    phases = [Phase(thread=threading.get_ident())]
    if recorder is not None:
        phases.append(Phase(thread=threading.get_ident()))
    start = time.perf_counter_ns()
    index = 0
    while True:
        phase = phases[index % len(phases)]
        traced = phase is not phases[0]
        if traced:
            recorder.install()
            recorder.epoch = len(phase.times)
        t0 = time.perf_counter_ns()
        try:
            result = state.pipeline.run_epoch(state.trace)
        except Exception as exc:  # an epoch that raises is a failed op
            result = None
            error = f"raised {exc!r}"
        t1 = time.perf_counter_ns()
        if traced:
            recorder.epoch = None
            recorder.uninstall()
        phase.windows.append((t0, t1))
        phase.times.append((t1 - t0) / 1e9)
        phase.attempted += 1
        phase.answers.append(None if result is None else dict(result.answer))
        if result is None:
            phase.fail("epoch", len(phase.times) - 1, error)
        elif check_epoch is not None:
            problem = check_epoch(result)
            if problem:
                phase.fail("epoch", len(phase.times) - 1, problem)
        index += 1
        if (t1 - start) / 1e9 >= seconds and index >= len(phases):
            break
    for phase in phases:
        phase.elapsed = sum(phase.times)
    return phases


@dataclass
class BatchState:
    trace: object
    pipeline: SketchVisorPipeline
    injected: list = field(default_factory=list)


class DDoSTwoLevel(Workload):
    """One host, one 48K-packet epoch plus injected DDoS victims."""

    name = "ddos-twolevel"
    FLOWS = 5000
    VICTIMS = 5
    SOURCES_PER_VICTIM = 200
    THRESHOLD = 100

    def build(self, seed: int) -> BatchState:
        trace = generate_trace(
            TraceConfig(num_flows=self.FLOWS, seed=BASE_TRACE_SEED)
        )
        trace, victims = inject_ddos_victims(
            trace, self.VICTIMS, self.SOURCES_PER_VICTIM, seed=FLOOD_SEED
        )
        pipeline = SketchVisorPipeline(
            DDoSTask("twolevel", threshold=self.THRESHOLD)
        )
        return BatchState(trace, pipeline, victims)

    def phases(self, state, seconds, recorder=None) -> list[Phase]:
        return _epoch_loop(state, seconds, recorder)

    def check(self, state, phases) -> None:
        victims = oracle.ddos_victims(state.trace, self.THRESHOLD)
        missing = set(state.injected) - set(victims)
        for phase in phases:
            for index, answer in enumerate(phase.answers):
                if answer is None:
                    continue
                if missing:
                    phase.fail(
                        "epoch", index,
                        f"injected victims {sorted(missing)} absent",
                    )
                elif set(answer) != set(victims):
                    phase.fail(
                        "epoch", index,
                        f"reported {sorted(answer)}, victims {sorted(victims)}",
                    )
                elif any(
                    abs(answer[dst] - count) > oracle.DDOS_SPREAD_TOLERANCE
                    * count
                    for dst, count in victims.items()
                ):
                    phase.fail("epoch", index, "spread estimates off")


class Cluster64Deltoid(Workload):
    """64 hosts, 8 aggregators over loopback TCP, HH/Deltoid."""

    name = "cluster64-deltoid"
    FLOWS = 800
    HOSTS = 64
    AGGREGATORS = 8

    def _pipeline(self, task, cluster) -> SketchVisorPipeline:
        return SketchVisorPipeline(
            task, config=PipelineConfig(num_hosts=self.HOSTS, cluster=cluster)
        )

    def build(self, seed: int) -> BatchState:
        trace = generate_trace(TraceConfig(num_flows=self.FLOWS, seed=seed))
        task = HeavyHitterTask(
            "deltoid", threshold=HH_FRACTION * trace.total_bytes
        )
        cluster = ClusterConfig(
            aggregators=self.AGGREGATORS,
            max_inflight=len(os.sched_getaffinity(0)),
        )
        return BatchState(trace, self._pipeline(task, cluster))

    def phases(self, state, seconds, recorder=None) -> list[Phase]:
        def delivered(result):
            collection = result.collection
            stats = collection.stats
            if (
                collection.missing_hosts
                or collection.hosts_reported != self.HOSTS
                or stats.retries
                or stats.duplicates
                or stats.redeliveries
                or stats.faults_seen
            ):
                return (
                    f"{collection.hosts_reported}/{self.HOSTS} hosts, "
                    f"missing {collection.missing_hosts}, "
                    f"retries {stats.retries}, dups {stats.duplicates}"
                )
            return None

        return _epoch_loop(state, seconds, recorder, delivered)

    def check(self, state, phases) -> None:
        truth = oracle.heavy_hitters(state.trace, state.pipeline.task.threshold)
        # The socket path must equal the in-process path on the same
        # epoch; run the latter once, outside the timed epochs.
        in_process = self._pipeline(state.pipeline.task, None)
        reference = dict(in_process.run_epoch(state.trace).answer)
        for phase in phases:
            phase.attempted += 1  # the parity comparison
            for index, answer in enumerate(phase.answers):
                if answer is None:
                    continue
                reported = {flow.key64 for flow in answer}
                if not oracle.hh_ok(reported, truth):
                    phase.fail(
                        "epoch", index,
                        f"recall/precision {oracle.score(reported, truth)}",
                    )
            if any(answer != reference for answer in phase.answers):
                phase.fail(
                    "run", 0, "socket answers differ from the in-process one"
                )


# ----------------------------------------------------------------------
# serve: the streaming daemon with its HTTP plane up
# ----------------------------------------------------------------------
class TimedReplaySource(ReplaySource):
    """A looping replay that counts the packets it hands out, stamps
    the moment each window is done, keeps each window's query answers,
    and ends the stream at the first window done ``seconds`` after the
    stream began (calling ``on_end`` first).

    The service asks for the next chunk only once the previous one has
    gone through the scheduler and every window it closed has gone
    through the pipeline and been published, so the stamps need no
    thread of their own.
    """

    def __init__(self, trace, chunk_packets: int):
        super().__init__(trace, chunk_packets=chunk_packets, loop=True)
        self.seconds = 0.0
        self.service = None
        self.on_end = None
        self.replayed = 0
        self.start = 0
        #: ``perf_counter_ns`` at which each window was done.
        self.done: list[int] = []
        #: Query endpoint -> each window's answer body, oldest first.
        self.answers: dict[str, list] = {name: [] for name in QUERIES}

    def _window_done(self, new: int) -> bool:
        now = time.perf_counter_ns()
        self.done.extend([now] * new)
        for name, bodies in self.answers.items():
            _code, body = self.service.query(name)
            bodies.extend(reversed(body["recent"][:new]))
        return (now - self.start) / 1e9 >= self.seconds

    def __iter__(self):
        chunks = super().__iter__()
        self.start = time.perf_counter_ns()
        while True:
            new = self.service.windows_processed - len(self.done)
            if new and self._window_done(new):
                self.on_end()
                return
            chunk = next(chunks, None)
            if chunk is None:
                return
            self.replayed += len(chunk)
            yield chunk


class Scraper(threading.Thread):
    """Poll ``/metrics`` then ``/query/heavy-hitters`` every
    ``interval`` seconds, one connection at a time."""

    ENDPOINTS = ("/metrics", "/query/heavy-hitters")

    def __init__(self, service, port: int, interval: float):
        super().__init__(name="bench-scraper", daemon=True)
        self.service = service
        self.port = port
        self.interval = interval
        self.stop = threading.Event()
        #: (endpoint, status or error string, seconds, window id).
        self.log: list[tuple] = []

    def _get(self, path: str):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def finish(self) -> None:
        self.stop.set()
        self.join()

    def run(self) -> None:
        while not self.stop.is_set():
            # Only scrapes issued once a window has been published
            # count: before that the query endpoint rightly says 503.
            counted = self.service.windows_processed > 0
            for path in self.ENDPOINTS:
                start = time.perf_counter()
                window = None
                try:
                    status, body = self._get(path)
                    if path != "/metrics" and status == 200:
                        window = json.loads(body)["window"]["window_id"]
                except Exception as exc:  # a failed scrape
                    status = repr(exc)
                if counted:
                    self.log.append(
                        (path, status, time.perf_counter() - start, window)
                    )
            self.stop.wait(self.interval)


@dataclass
class ServeState:
    trace: object
    service: MeasurementService
    source: TimedReplaySource
    port: int


class ServeUnivMon(Workload):
    """``MeasurementService`` over a looped 48K-packet trace, 2 hosts."""

    name = "serve-univmon"
    FLOWS = 5000
    HOSTS = 2
    SCRAPE_INTERVAL = 0.5
    #: Windows the query endpoints keep (the service's default).
    RING = 8
    #: Packets per chunk the replay hands the scheduler: [low, high).
    CHUNK_RANGE = (256, 1025)

    def build(self, seed: int) -> ServeState:
        trace = generate_trace(
            TraceConfig(num_flows=self.FLOWS, seed=BASE_TRACE_SEED)
        )
        # Packet-count windows hold the same packets however the stream
        # is chunked; the seed picks the chunking.
        chunk = random.Random(seed).randrange(*self.CHUNK_RANGE)
        return self.service_for(trace, chunk)

    def service_for(self, trace, chunk: int) -> ServeState:
        tasks = [
            HeavyHitterTask(
                "univmon", threshold=HH_FRACTION * trace.total_bytes
            ),
            CardinalityTask("lc"),
            FlowSizeDistributionTask("mrac"),
        ]
        source = TimedReplaySource(trace, chunk)
        service = MeasurementService(
            tasks,
            source,
            ServeConfig(
                window_packets=len(trace), ring_windows=self.RING, drain=False
            ),
            pipeline_config=PipelineConfig(
                num_hosts=self.HOSTS, telemetry=Telemetry()
            ),
        )
        source.service = service
        port = service.start_http()
        return ServeState(trace, service, source, port)

    def discard(self, state: ServeState) -> None:
        state.service.shutdown_http()

    def phases(self, state, seconds, recorder=None) -> list[Phase]:
        """One phase; with a recorder, an untraced phase and then a
        traced one, each on its own service and half the time."""
        if recorder is None:
            return [self._phase(state, seconds)]
        plain = self._phase(state, seconds / 2)
        fresh = self.service_for(state.trace, state.source.chunk_packets)
        state.service, state.source, state.port = (
            fresh.service, fresh.source, fresh.port
        )
        recorder.install()
        try:
            traced = self._phase(state, seconds / 2, recorder)
        finally:
            recorder.uninstall()
        return [plain, traced]

    def _phase(self, state, seconds, recorder=None) -> Phase:
        service, source = state.service, state.source
        scraper = Scraper(service, state.port, self.SCRAPE_INTERVAL)
        source.seconds = seconds
        source.on_end = scraper.finish
        if recorder is not None:
            recorder.epoch = 0
        scraper.start()
        # Ingest on this thread, as ``repro serve`` runs it.  The source
        # stops the scraper and then the stream; ``run`` stops the HTTP
        # plane on its way out.
        service.run(install_signals=False)
        scraper.finish()
        if recorder is not None:
            recorder.epoch = None
        phase = Phase(thread=threading.get_ident())
        edges = [source.start] + source.done
        phase.windows = list(zip(edges, edges[1:]))
        phase.times = [(b - a) / 1e9 for a, b in phase.windows]
        phase.elapsed = (edges[-1] - edges[0]) / 1e9
        phase.scrapes = scraper.log
        self._check_phase(state, phase)
        return phase

    def _check_phase(self, state, phase) -> None:
        service = state.service
        phase.attempted += 1  # the stream accounting below
        if service.exit_code != 0:
            phase.fail("run", 0, f"ingest exited {service.exit_code}")
        windows = state.source.answers["heavy-hitters"]
        estimates = state.source.answers["cardinality"]
        ids = [window["window_id"] for window in windows]
        phase.attempted += len(windows)
        if ids != list(range(len(ids))) or len(ids) != service.windows_processed:
            phase.fail("run", 0, f"window ids {ids} not consecutive from 0")
        packets = sum(window["packets"] for window in windows)
        replayed = state.source.replayed - service.scheduler.pending_packets
        if packets != replayed:
            phase.fail(
                "run", 0, f"windows hold {packets} packets, {replayed} replayed"
            )
        if not windows:
            phase.fail("run", 0, "no window closed")
        names = oracle.flow_names(state.trace)
        threshold = HH_FRACTION * state.trace.total_bytes
        truth = {names[key] for key in oracle.heavy_hitters(state.trace, threshold)}
        distinct = oracle.distinct_flows(state.trace)
        for window, card in zip(windows, estimates):
            index = window["window_id"]
            if window["packets"] != len(state.trace):
                phase.fail("epoch", index, f"{window['packets']} packets")
            reported = {hit["flow"] for hit in window["heavy_hitters"]}
            if not oracle.hh_ok(reported, truth):
                phase.fail(
                    "epoch", index,
                    f"recall/precision {oracle.score(reported, truth)}",
                )
            if abs(card["estimate"] - distinct) > (
                oracle.CARDINALITY_TOLERANCE * distinct
            ):
                phase.fail(
                    "epoch", index,
                    f"cardinality {card['estimate']:.0f}, exact {distinct}",
                )
        last_window = -1
        for index, (path, status, _s, window) in enumerate(phase.scrapes):
            phase.attempted += 1
            if status != 200:
                phase.fail("scrape", index, f"{path} returned {status}")
            elif window is not None:
                if window < last_window:
                    phase.fail(
                        "scrape", index, f"window {window} after {last_window}"
                    )
                last_window = window

    def check(self, state, phases) -> None:
        """Serve phases check themselves as they end."""


WORKLOADS = {
    workload.name: workload
    for workload in (DDoSTwoLevel(), ServeUnivMon(), Cluster64Deltoid())
}

