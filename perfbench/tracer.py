"""Per-layer tracing for the benchmark, attached from outside the program.

Nothing under ``src/`` is edited.  The tracer measures the layers in
three ways, all from this file:

* **spans** — ``(name, start, end, parent)`` records around calls into a
  layer's public functions (an executor map, a job, a simulator run, a
  lint analysis).  They are held in memory and written out by the
  caller when the run ends.  A span's self time is its duration minus
  the time its direct child spans cover.
* **counts** — call counts (and a few harvested public counters) at the
  same public entry points, e.g. ``Timer.schedule`` calls or the
  ``packets_sent`` of every connected ``Link``.
* **sampled self time** — the per-packet functions run millions of times,
  too often for a span each, so a CPU-time interval timer
  (``ITIMER_PROF``) samples the running frame and charges it to the
  ``repro`` package it belongs to.  Library frames (``heapq``, ``json``)
  are charged to the nearest ``repro`` frame that called them.  The
  kernel delivers the timer at its own tick, not every
  ``SAMPLE_INTERVAL_S``, so each layer's share of the samples is scaled
  by the CPU time measured over the sampling window.

Every hook names a public attribute.  When a target no longer exists
(a later refactor renamed or removed it) the hook is skipped and the
metrics it feeds are reported as missing by name; the run still
completes.
"""

from __future__ import annotations

import functools
import importlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Sampling period of the CPU-time profiler, in seconds.
SAMPLE_INTERVAL_S = 0.001

#: ``repro`` packages reported as layers; other modules count as ``repro``.
LAYERS = (
    "sim",
    "net",
    "cc",
    "traffic",
    "telemetry",
    "metrics",
    "analysis",
    "experiments",
    "lint",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Hook:
    """One patch of a public attribute ``module:Class.attr``.

    ``make`` receives the original attribute and returns its
    replacement.  ``metrics`` names what the hook feeds, so a target
    that no longer resolves is reported as those metrics missing.
    """

    target: str
    metrics: tuple[str, ...]
    make: Callable[[Any], Any]


def resolve(target: str) -> tuple[Any, str, Any]:
    """``module:Owner.attr`` -> (owner object, attr name, current value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # Read through __dict__ for classes so a classmethod or property is
    # patched as the descriptor it is, not as its bound result.
    if isinstance(owner, type) and attr in vars(owner):
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer of a source file under ``package_dir`` (the ``repro``
    package directory, with a trailing separator), or None elsewhere."""
    if not filename.startswith(package_dir):
        return None
    rest = filename[len(package_dir):].split(os.sep)
    if len(rest) > 1 and rest[0] in LAYERS:
        return rest[0]
    return "repro"


class Tracer:
    """Spans, counts and sampled per-layer CPU time for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._layer_cache: dict[str, Optional[str]] = {}
        self._bench_dir = os.path.dirname(os.path.abspath(__file__)) + os.sep
        repro = importlib.import_module("repro")
        self._repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._links: list[Any] = []
        self._droppers: list[Any] = []
        self._senders: list[Any] = []
        self._cpu_started = 0.0
        self.cpu_s = 0.0

    # -- spans and counts ---------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        # Pop through any span left open by an exception below it.
        while self._stack and self._stack.pop() != index:
            pass

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.end - span.start - children
            )
        return totals

    def durations(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        return totals

    # -- hooks --------------------------------------------------------------

    def install(self, hooks: list[Hook]) -> None:
        for hook in hooks:
            try:
                owner, attr, original = resolve(hook.target)
            except (ImportError, AttributeError):
                self.missing.update(hook.metrics)
                continue
            setattr(owner, attr, hook.make(original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def counting(self, name: str) -> Callable[[Any], Any]:
        """Hook factory: count calls of a plain function or method."""

        def make(fn: Callable) -> Callable:
            counts = self.counts
            counts.setdefault(name, 0)

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def spanning(self, name: str) -> Callable[[Any], Any]:
        """Hook factory: record a span around every call."""

        def make(fn: Any) -> Any:
            inner = fn.__func__ if isinstance(fn, classmethod) else fn

            @functools.wraps(inner)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = self.begin(name)
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.end(index)

            return classmethod(wrapper) if isinstance(fn, classmethod) else wrapper

        return make

    # -- the per-packet stack -----------------------------------------------

    def harvest(self) -> None:
        """Fold the public counters of objects registered since the last
        harvest into the counts, then drop the references (so finished
        simulations can be freed)."""
        for link in self._links:
            self.add("net.pkt_hops", link.packets_sent)
        for dropper in self._droppers:
            self.add("net.drops", dropper.drops)
        for sender in self._senders:
            probe = sender.probes.get("timeouts")
            if probe is not None:
                self.add("cc.timeouts", probe.count)
        self._links.clear()
        self._droppers.clear()
        self._senders.clear()

    def packet_hooks(self) -> list[Hook]:
        """Hooks on the public entry points of sim, net, cc, traffic and
        telemetry, plus job spans that harvest per-job counters."""
        tracer = self

        def job_span(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(jb: Any, *args: Any, **kwargs: Any) -> Any:
                index = tracer.begin(f"job.{jb.scenario}")
                try:
                    return fn(jb, *args, **kwargs)
                finally:
                    tracer.end(index)
                    tracer.harvest()

            return wrapper

        def sim_run(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(sim: Any, *args: Any, **kwargs: Any) -> Any:
                before = sim.events_fired
                index = tracer.begin("sim.run")
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    tracer.end(index)
                    tracer.add("sim.events", sim.events_fired - before)

            return wrapper

        def registering(bucket: list) -> Callable:
            def make(fn: Callable) -> Callable:
                @functools.wraps(fn)
                def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
                    bucket.append(obj)
                    return fn(obj, *args, **kwargs)

                return wrapper

            return make

        def sender_start(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(sender: Any, *args: Any, **kwargs: Any) -> Any:
                if not sender.running:
                    tracer._senders.append(sender)
                    tracer.add("traffic.flows")
                return fn(sender, *args, **kwargs)

            return wrapper

        def enqueue(fn: Callable) -> Callable:
            counts = tracer.counts
            counts.setdefault("net.enqueues", 0)
            counts.setdefault("net.drops", 0)

            @functools.wraps(fn)
            def wrapper(queue: Any, packet: Any) -> Any:
                counts["net.enqueues"] += 1
                admitted = fn(queue, packet)
                if not admitted:
                    counts["net.drops"] += 1
                return admitted

            return wrapper

        hooks = [
            Hook("repro.experiments.executor:execute_job", (), job_span),
            Hook("repro.sim.engine:Simulator.run", ("sim.events",), sim_run),
            Hook("repro.sim.engine:Timer.schedule", ("sim.timer_arms",),
                 self.counting("sim.timer_arms")),
            Hook("repro.sim.engine:Event.cancel", ("sim.cancels",),
                 self.counting("sim.cancels")),
            Hook("repro.net.link:Link.connect", ("net.pkt_hops",),
                 registering(self._links)),
            Hook("repro.net.link:Link.send", ("net.bypass_share",),
                 self.counting("net.sends")),
            Hook("repro.net.queue:QueueDiscipline.enqueue",
                 ("net.enqueues", "net.drops", "net.bypass_share"), enqueue),
            Hook("repro.net.droppers:Dropper.connect", ("net.drops",),
                 registering(self._droppers)),
            Hook("repro.cc.base:Sender.start", ("cc.timeouts", "traffic.flows"),
                 sender_start),
            Hook("repro.telemetry.probes:CounterProbe.increment",
                 ("telemetry.samples",), self.counting("telemetry.samples")),
            Hook("repro.telemetry.probes:SeriesProbe.record",
                 ("telemetry.samples",), self.counting("telemetry.samples")),
        ]
        # ACK (and TFRC feedback) processing: every sender class in
        # repro.cc that defines its own receive().
        try:
            base = importlib.import_module("repro.cc.base").Sender
            cc = importlib.import_module("repro.cc")
        except (ImportError, AttributeError):
            self.missing.add("cc.acks")
        else:
            seen = set()
            for name in sorted(getattr(cc, "__all__", ())):
                cls = getattr(cc, name, None)
                if (
                    isinstance(cls, type)
                    and issubclass(cls, base)
                    and "receive" in vars(cls)
                    and cls not in seen
                ):
                    seen.add(cls)
                    hooks.append(
                        Hook(f"{cls.__module__}:{cls.__qualname__}.receive",
                             ("cc.acks",), self.counting("cc.acks"))
                    )
            if not seen:
                self.missing.add("cc.acks")
        return hooks

    def lint_hooks(self) -> list[Hook]:
        """Spans around simlint's parse, shared analyses and rule pass."""
        return [
            Hook("repro.lint.engine:SourceFile.from_disk", ("lint.parse_s",),
                 self.spanning("lint.parse")),
            Hook("repro.lint.engine:lint_files", ("lint.rules_s",),
                 self.spanning("lint.rules")),
            Hook("repro.lint.analysis.symbols:build_program", ("lint.program_s",),
                 self.spanning("lint.program")),
            Hook("repro.lint.analysis.unitcheck:analyze_units", ("lint.units_s",),
                 self.spanning("lint.units")),
            Hook("repro.lint.analysis.contracts:analyze_contracts",
                 ("lint.intervals_s",), self.spanning("lint.intervals")),
            Hook("repro.lint.analysis.purity:analyze_purity", ("lint.purity_s",),
                 self.spanning("lint.purity")),
        ]

    # -- sampled self time --------------------------------------------------

    def _on_sample(self, signum: int, frame: Any) -> None:
        cache = self._layer_cache
        f = frame
        while f is not None:
            filename = f.f_code.co_filename
            layer = cache.get(filename, "")
            if layer == "":
                if filename.startswith(self._bench_dir):
                    layer = "bench"
                else:
                    layer = layer_of(filename, self._repro_dir)
                cache[filename] = layer
            if layer is not None:
                self.samples[layer] = self.samples.get(layer, 0) + 1
                return
            f = f.f_back
        self.samples["other"] = self.samples.get("other", 0) + 1

    def start_sampling(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sample)
        self._cpu_started = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_sampling(self) -> None:
        """Stop the sampler (idempotent) and book the window's CPU time."""
        if signal.getsignal(signal.SIGPROF) != self._on_sample:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.cpu_s += time.process_time() - self._cpu_started

    def sampled_self_s(self) -> dict[str, float]:
        """CPU seconds per layer: its share of the samples times the CPU
        time of the sampling window."""
        total = sum(self.samples.values())
        if not total:
            return {}
        return {
            layer: count / total * self.cpu_s for layer, count in self.samples.items()
        }

    def record(self) -> dict:
        """Everything recorded, as JSON-native data."""
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(sorted(self.counts.items())),
            "samples": dict(sorted(self.samples.items())),
            "sampled_cpu_s": self.cpu_s,
            "missing": sorted(self.missing),
        }
