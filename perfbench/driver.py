"""One benchmark round: set up, run one workload, check it, report.

``run.py`` starts this file as a fresh interpreter for every round, so
each round pays interpreter start-up and imports, and sees an
environment with every ``REPRO_*`` variable unset.  The round writes one
JSON document to ``--out``.

The warm worker pools of ``sweep_small_jobs`` re-import this file as
``__mp_main__`` in every worker; everything that does work therefore
sits behind the ``__main__`` guard at the bottom.

Usage (normally through ``run.py``)::

    python3 perfbench/driver.py --workload NAME --seed N --out FILE \
        --work DIR [--trace] [--setup-only] [--tiny]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import random
import statistics
import sys
import tarfile
import time
from typing import Any, Callable

from tracer import Tracer

WORKLOADS = ("figures_serial", "sweep_small_jobs", "lint_tree")

#: figures_serial runs these figures at fast scale, serially, without the
#: cache, and byte-compares each table with ``results/<module>.txt``.
FIGURES = ("fig03", "fig06")
#: Link transmissions of one figures_serial pass, counted by a traced
#: run (``net.pkt_hops``) at commit 4fd80706.  Fixed by the workload: the tables
#: are byte-compared, so the simulated traffic cannot change.
FIGURES_PKT_HOPS = 2_857_842

#: sweep_small_jobs shape: maps ("figures") per round, fresh closed-form
#: jobs per map, and simulated seconds of the loss-pattern jobs (one job
#: per protocol and duration in every map).
SWEEP_MAPS = 12
SWEEP_ANALYTIC_PER_MAP = 22
SWEEP_DURATIONS_S = (3.0, 4.0, 5.0)
SWEEP_TINY_MAPS = 3
#: Warm-cache passes per round; the round reports their median.
WARM_PASSES = 5
#: Jobs recomputed in-process per round to check the sweep's payloads.
CHECK_SAMPLE = 8

#: lint_tree corpus: ``src/`` and ``tests/`` of a pinned commit, and the
#: result simlint gave on it at that commit.
CORPUS = pathlib.Path(__file__).with_name("corpus.tar.gz")
CORPUS_FILES = 167
CORPUS_SUPPRESSED = 14


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


def tree_peak_rss_mb(root_pid: int) -> float:
    """Sum of peak resident memory (VmHWM) over ``root_pid`` and every
    descendant process, in MiB.

    Warm-pool workers are children of the fork server, not of the
    driver, so ``RUSAGE_CHILDREN`` misses them; walking ``/proc`` finds
    every descendant while it is still alive.
    """
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    total_kb = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=True)


class Round:
    """What one round measured; serialized to the ``--out`` document."""

    def __init__(self, tracer: "Tracer | None"):
        self.tracer = tracer
        self.wall_s = 0.0
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0
        self.layers: dict[str, float] = {}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)

    def span(self, name: str) -> "_Span":
        return _Span(self.tracer, name)

    def stop_tracing(self) -> None:
        """Detach the tracer (idempotent); checks after this go unmeasured."""
        if self.tracer is not None:
            self.tracer.stop_sampling()
            self.tracer.uninstall()


class _Span:
    """A driver-side span around a call into a layer (no-op untraced)."""

    def __init__(self, tracer: "Tracer | None", name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1
        self.elapsed = 0.0

    def __enter__(self) -> "_Span":
        if self.tracer is not None:
            self.index = self.tracer.begin(self.name)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed = time.perf_counter() - self.started
        if self.tracer is not None:
            self.tracer.end(self.index)


def check_reports(rnd: Round, reports: list) -> None:
    """A job that raised (and was retried) or a pool that fell back to
    serial execution is a failed operation, even if the retry succeeded."""
    retries = sum(r.retries for r in reports)
    if retries:
        rnd.fail(retries, f"{retries} job attempt(s) raised and were retried")
    if any(r.degraded for r in reports):
        rnd.fail(0, "the worker pool degraded to serial execution")


def executor_layers(reports: list, map_s: float, workers: int, jobs: int) -> dict:
    compute_s = sum(r.compute_s for r in reports)
    return {
        "executor.map_s": map_s,
        "executor.compute_s": compute_s,
        "executor.worker_idle_s": workers * map_s - compute_s,
        "executor.overhead_ms_per_job": (map_s - compute_s / workers) / jobs * 1e3,
        "executor.inlined": sum(r.inlined for r in reports),
        "executor.retries": sum(r.retries for r in reports),
        "executor.failures": sum(r.failures for r in reports),
    }


# ---------------------------------------------------------------------------
# figures_serial
# ---------------------------------------------------------------------------


def setup_figures(args: argparse.Namespace) -> Callable[[Round], None]:
    from repro.experiments import ALL_FIGURES, make_executor

    figures = []
    for name in FIGURES:
        module = ALL_FIGURES[name]
        expected = pathlib.Path("results", module.__name__.rsplit(".", 1)[1] + ".txt")
        figures.append((name, module, module.jobs("fast"), expected.read_text()))
    # What `repro run <fig> --no-cache` builds: serial, in-memory cost model.
    executor = make_executor(0)

    def run(rnd: Round) -> None:
        reports = []
        tables = []
        started = time.perf_counter()
        map_s = 0.0
        for name, module, jobs, _ in figures:
            rnd.attempted += len(jobs)
            try:
                with rnd.span(f"executor.map.{name}") as span:
                    results = executor.map(jobs, None)
            except Exception as exc:  # a failed job is a failed operation
                rnd.fail(len(jobs), f"{name}: {exc!r}")
                results = None
            map_s += span.elapsed
            reports.append(executor.last_report)
            if results is None:
                tables.append(None)
                continue
            with rnd.span(f"reduce.{name}"):
                tables.append(module.reduce(results).format() + "\n")
        rnd.wall_s = time.perf_counter() - started
        rnd.peak_rss_mb = tree_peak_rss_mb(os.getpid())
        rnd.work = FIGURES_PKT_HOPS
        for (name, _, jobs, expected), table in zip(figures, tables):
            if table is not None and table != expected:
                rnd.fail(len(jobs), f"{name}: table differs from results/")
        check_reports(rnd, reports)
        rnd.layers.update(executor_layers(reports, map_s, 1, rnd.attempted))

    return run


# ---------------------------------------------------------------------------
# sweep_small_jobs
# ---------------------------------------------------------------------------


def sweep_maps(seed: int, tiny: bool = False) -> list[list]:
    """The sweep's maps, generated from ``seed``.

    Every map computes the same mix of fresh jobs: about 60% closed-form
    analysis jobs (inlined by the executor) and one single-flow
    loss-pattern simulation of a few simulated seconds per protocol and
    duration, under Bernoulli loss.  The seed draws the parameters, the
    loss processes and the order, so the work per map hardly varies
    between seeds.  Each map also repeats a quarter of the previous
    map's jobs, as Figures 4 and 5 share a sweep.
    """
    from repro.experiments import DropperSpec, LossPatternConfig, job
    from repro.experiments import iiad, rap, sqrt, tcp, tfrc
    from repro.experiments.jobs import indexed

    rng = random.Random(seed)
    protocols = [tcp(), tfrc(), sqrt(), iiad(), rap()]
    durations = SWEEP_DURATIONS_S[:1] if tiny else SWEEP_DURATIONS_S
    analytic = 2 if tiny else SWEEP_ANALYTIC_PER_MAP
    maps: list[list] = []
    previous: list = []
    for m in range(SWEEP_TINY_MAPS if tiny else SWEEP_MAPS):
        batch = rng.sample(previous, len(previous) // 4)
        for _ in range(analytic):
            if rng.random() < 0.5:
                params = {
                    "b": round(rng.uniform(0.02, 0.9), 4),
                    "p": round(rng.uniform(0.01, 0.3), 4),
                    "delta": 0.1,
                }
                batch.append(job("sweep", "analysis_acks", params=params))
            else:
                params = {"p": round(rng.uniform(0.001, 0.5), 5)}
                batch.append(job("sweep", "timeout_models", params=params))
        for protocol in protocols:
            for duration in durations:
                dropper = DropperSpec(
                    "bernoulli",
                    (round(rng.uniform(0.01, 0.03), 4), rng.randrange(1 << 16)),
                )
                batch.append(
                    job(
                        "sweep",
                        "loss_pattern",
                        config=LossPatternConfig(duration_s=duration, warmup_s=1.0),
                        protocol=protocol,
                        params={"dropper": dropper},
                    )
                )
        rng.shuffle(batch)
        maps.append(
            indexed(dataclasses.replace(jb, figure=f"sweep{m:02d}") for jb in batch)
        )
        previous = maps[-1]
    return maps


def cache_size(root: pathlib.Path) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def setup_sweep(args: argparse.Namespace) -> Callable[[Round], None]:
    from repro.experiments import ResultCache, make_executor
    from repro.experiments.jobs import execute_job

    maps = sweep_maps(args.seed, args.tiny)
    cache_dir = pathlib.Path(args.work, "cache")
    cache_dir.mkdir(parents=True)
    # What `repro run --parallel 2` builds: the cost-model sidecar lives
    # beside the on-disk result cache.
    executor = make_executor(2, cost_model=cache_dir / "costmodel.json")

    def run(rnd: Round) -> None:
        rnd.attempted = sum(len(jobs) for jobs in maps)
        rnd.work = rnd.attempted
        cache = ResultCache(cache_dir)
        cold: list = []
        reports = []
        bad: set[tuple[int, int]] = set()
        map_s = 0.0
        started = time.perf_counter()
        for m, jobs in enumerate(maps):
            try:
                with rnd.span("executor.map.cold") as span:
                    cold.append([r.value for r in executor.map(jobs, cache)])
            except Exception as exc:  # a failed job is a failed operation
                cold.append(None)
                bad.update((m, i) for i in range(len(jobs)))
                rnd.errors.append(f"cold map {m}: {exc!r}")
            map_s += span.elapsed
            reports.append(executor.last_report)
        rnd.wall_s = time.perf_counter() - started
        # Workers are alive until the executor closes: read their peaks now.
        rnd.peak_rss_mb = tree_peak_rss_mb(os.getpid())
        files, size = cache_size(cache_dir)
        lookups = [r.lookup_s for r in reports]
        stats = [cache.stats]

        warm: list[float] = []
        for _ in range(WARM_PASSES):
            warm_cache = ResultCache(cache_dir)
            pass_started = time.perf_counter()
            values = []
            for jobs, cold_values in zip(maps, cold):
                if cold_values is None:
                    values.append(None)
                    continue
                with rnd.span("executor.map.warm"):
                    values.append([r.value for r in executor.map(jobs, warm_cache)])
                lookups.append(executor.last_report.lookup_s)
            warm.append(time.perf_counter() - pass_started)
            stats.append(warm_cache.stats)
            for m, (cold_values, warm_values) in enumerate(zip(cold, values)):
                if cold_values is None:
                    continue
                for i, (a, b) in enumerate(zip(cold_values, warm_values)):
                    if canonical_json(a) != canonical_json(b):
                        bad.add((m, i))
        executor.close()

        rnd.stop_tracing()
        picker = random.Random(args.seed * 7919 + 1)
        positions = [(m, i) for m, jobs in enumerate(maps) for i in range(len(jobs))]
        for m, i in picker.sample(positions, min(CHECK_SAMPLE, len(positions))):
            if cold[m] is None:
                continue
            fresh = execute_job(maps[m][i])
            if canonical_json(fresh) != canonical_json(cold[m][i]):
                bad.add((m, i))
        if bad:
            rnd.fail(len(bad), f"{len(bad)} sweep payload(s) failed their check")
        check_reports(rnd, reports)

        rnd.layers.update(
            executor_layers(reports, map_s, executor.workers, rnd.attempted)
        )
        rnd.layers.update(
            {
                "cache.lookup_s": sum(lookups),
                "cache.store_s": sum(r.store_s for r in reports),
                "cache.hits": sum(s.hits for s in stats),
                "cache.misses": sum(s.misses for s in stats),
                "cache.files": files,
                "cache.bytes": size,
                "cache.warm_pass_s": statistics.median(warm),
            }
        )

    return run


# ---------------------------------------------------------------------------
# lint_tree
# ---------------------------------------------------------------------------


def setup_lint(args: argparse.Namespace) -> Callable[[Round], None]:
    import repro.lint  # noqa: F401  (registers every rule)
    from repro.lint.engine import lint_paths

    corpus = pathlib.Path(args.work, "corpus")
    with tarfile.open(CORPUS) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(corpus, filter="data")
        else:  # Python < 3.10.12 has no extraction filters
            archive.extractall(corpus)

    def run(rnd: Round) -> None:
        here = os.getcwd()
        os.chdir(corpus)  # lint exactly as `python -m repro.lint src tests`
        try:
            started = time.perf_counter()
            with rnd.span("lint.run"):
                report = lint_paths(["src", "tests"])
            rnd.wall_s = time.perf_counter() - started
        finally:
            os.chdir(here)
        rnd.peak_rss_mb = tree_peak_rss_mb(os.getpid())
        rnd.attempted = rnd.work = report.files_checked
        flagged = {finding.path for finding in report.findings}
        if flagged:
            rnd.fail(len(flagged), f"findings in {sorted(flagged)[:5]}")
        if report.files_checked != CORPUS_FILES:
            rnd.errors.append(
                f"linted {report.files_checked} files, expected {CORPUS_FILES}"
            )
        if report.suppressed != CORPUS_SUPPRESSED:
            rnd.fail(1, f"{report.suppressed} suppressions, expected {CORPUS_SUPPRESSED}")
        rnd.layers.update(
            {
                "lint.files": report.files_checked,
                "lint.findings": len(report.findings),
                "lint.suppressed": report.suppressed,
            }
        )

    return run


SETUPS = {
    "figures_serial": setup_figures,
    "sweep_small_jobs": setup_sweep,
    "lint_tree": setup_lint,
}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced round
# ---------------------------------------------------------------------------

#: Per-layer metrics that read zero when the workload does not use the
#: layer (a serial run has no cache, a lint run no executor...).
LAYER_DEFAULTS = (
    "sim.events", "sim.timer_arms", "sim.cancels", "net.pkt_hops",
    "net.enqueues", "net.drops", "cc.acks", "cc.timeouts", "traffic.flows",
    "telemetry.samples", "cache.lookup_s", "cache.store_s", "cache.hits",
    "cache.misses", "cache.files", "cache.bytes", "cache.warm_pass_s",
    "lint.files", "lint.findings", "lint.suppressed", "executor.map_s",
    "executor.compute_s", "executor.worker_idle_s", "executor.overhead_ms_per_job",
    "executor.inlined", "executor.retries", "executor.failures",
)
SAMPLED = ("sim", "net", "cc", "traffic", "telemetry", "metrics", "analysis",
           "experiments")


def traced_layers(rnd: Round, tracer: Tracer) -> dict[str, float]:
    tracer.harvest()
    layers = dict.fromkeys(LAYER_DEFAULTS, 0)
    layers.update(rnd.layers)
    counts = tracer.counts
    for name in LAYER_DEFAULTS:
        if name in counts:
            layers[name] = counts[name]
    sampled = tracer.sampled_self_s()
    for layer in SAMPLED:
        layers[f"{layer}.self_s"] = sampled.get(layer, 0.0)
    layers["trace.self_s"] = sampled.get("bench", 0.0)
    hops = layers["net.pkt_hops"]
    layers["sim.events_per_hop"] = layers["sim.events"] / hops if hops else 0.0
    sends = counts.get("net.sends", 0)
    layers["net.bypass_share"] = (
        1.0 - counts.get("net.enqueues", 0) / sends if sends else 0.0
    )
    durations = tracer.durations()
    for part in ("parse", "program", "units", "intervals", "purity"):
        layers[f"lint.{part}_s"] = durations.get(f"lint.{part}", 0.0)
    layers["lint.rules_s"] = tracer.self_times().get("lint.rules", 0.0)
    for name in tracer.missing:
        layers.pop(name, None)
    return layers


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="a few jobs only (the benchmark's self-test)")
    args = parser.parse_args(argv)

    run = SETUPS[args.workload](args)
    ready = time.monotonic()
    out: dict[str, Any] = {"ready": ready}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(tracer.packet_hooks() + tracer.lint_hooks())
            tracer.start_sampling()
        rnd = Round(tracer)
        try:
            run(rnd)
        finally:
            rnd.stop_tracing()
        if tracer is not None:
            out["layers"] = traced_layers(rnd, tracer)
            out["trace"] = tracer.record()
            hops = out["layers"].get("net.pkt_hops")
            if args.workload == "figures_serial" and hops not in (None, FIGURES_PKT_HOPS):
                rnd.errors.append(f"{hops} packet-hops, expected {FIGURES_PKT_HOPS}")
        out.update(
            wall_s=rnd.wall_s,
            work=rnd.work,
            attempted=rnd.attempted,
            failed=rnd.failed,
            errors=rnd.errors,
            peak_rss_mb=rnd.peak_rss_mb,
        )
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
