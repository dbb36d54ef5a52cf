"""End-to-end sweep-throughput macrobenchmark (``repro bench --sweep``).

The kernel micro/macro benchmarks time simulation *inside* one process;
this module times what a user actually waits for: a **cold sweep** —
every figure, empty cache — under two executor configurations:

* ``serial`` — the :class:`~repro.experiments.executor.SerialExecutor`
  floor;
* ``parallel`` — ``--parallel N``: cost-model LPT order, the inline fast
  path, and persistent pipe workers returning packed result frames.

The ``parallel`` entry carries the ``serial`` timing as its baseline, so
its ``speedup`` is what ``--parallel N`` buys over a serial run.

Two sweep sets are measured.  The **full** set (every registered figure,
full mode only) is the honest end-to-end number: on a single-core
runner its compute dominates and parallel execution can only approach
serial, not beat it.  The **acceptance** set (:data:`ACCEPTANCE_FIGURES`
— the closed-form analysis figures, whose jobs cost microseconds) is
dispatch-overhead-dominated by construction: the inline fast path runs
it in the coordinator, so ``parallel`` must stay level with ``serial``
there (a speedup near 1.0) rather than pay a worker round-trip per job.

Every entry's ``meta.phases`` records where the best run's wall-clock
went — worker startup, dispatch ordering, worker compute, result
transport, cache lookup/store, reduction — so a regression in any one
stage is attributable from the BENCH document alone.  As a guard, the
benchmark refuses to report timings at all if any configuration's
tables diverge byte-wise from the serial reference: a fast wrong sweep
is not a result.
"""

from __future__ import annotations

import tempfile
import time

from repro.experiments import ALL_FIGURES, EXTENSIONS
from repro.experiments.cache import ResultCache
from repro.experiments.costmodel import CostModel
from repro.experiments.executor import ParallelExecutor, SerialExecutor
from repro.perf.timing import TimingResult, attach_baseline, summarize

__all__ = ["ACCEPTANCE_FIGURES", "sweep_benchmarks"]

#: The dispatch-overhead-dominated subset carrying the acceptance
#: speedup: closed-form analysis figures whose jobs cost microseconds,
#: so the measurement isolates scheduler overhead, not simulation.
ACCEPTANCE_FIGURES = ("fig11", "fig20")

#: Wall-clock phases accumulated across a sweep's maps (plus reduce).
_PHASES = (
    "startup_s",
    "dispatch_s",
    "compute_s",
    "transport_s",
    "lookup_s",
    "store_s",
    "reduce_s",
)

#: (config label, executor traits).
_CONFIGS = (
    ("serial", None),
    ("parallel", dict(dispatch="lpt")),
)


def _make_executor(traits, parallel: int):
    """A fresh executor with a cold in-memory cost model (hermetic)."""
    if traits is None:
        return SerialExecutor(dispatch="fifo", cost_model=CostModel())
    return ParallelExecutor(parallel, cost_model=CostModel(), **traits)


def _run_sweep(figures: dict, traits, parallel: int) -> tuple[float, dict, dict]:
    """One cold sweep: returns (wall seconds, phase breakdown, tables)."""
    phases = dict.fromkeys(_PHASES, 0.0)
    tables: dict[str, str] = {}
    perf_counter = time.perf_counter
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as cache_dir:
        started = perf_counter()
        executor = _make_executor(traits, parallel)
        try:
            cache = ResultCache(cache_dir)
            for name, module in figures.items():
                results = executor.map(module.jobs("fast"), cache)
                reduce_started = perf_counter()
                tables[name] = module.reduce(results).format()
                phases["reduce_s"] += perf_counter() - reduce_started
                report = executor.last_report
                for phase in _PHASES[:-1]:
                    phases[phase] += getattr(report, phase)
        finally:
            executor.close()
        elapsed = perf_counter() - started
    return elapsed, phases, tables


def _measure(
    label: str, figures: dict, parallel: int, k: int
) -> tuple[list[dict], dict[str, TimingResult]]:
    """Benchmark every configuration over ``figures``, k runs each."""
    ops = sum(len(module.jobs("fast")) for module in figures.values())
    entries: list[dict] = []
    timings: dict[str, TimingResult] = {}
    reference: dict[str, str] = {}
    for config, traits in _CONFIGS:
        runs: list[float] = []
        best_phases: dict = {}
        for _ in range(k):
            elapsed, phases, tables = _run_sweep(figures, traits, parallel)
            if not reference:
                reference = tables
            elif tables != reference:
                diverged = sorted(
                    name for name in reference if tables.get(name) != reference[name]
                )
                raise RuntimeError(
                    f"sweep benchmark: {config} tables diverged from the "
                    f"serial reference ({', '.join(diverged)}); refusing to "
                    "report timings for wrong results"
                )
            if not runs or elapsed < min(runs):
                best_phases = phases
            runs.append(elapsed)
        timing = TimingResult(runs_s=tuple(runs), ops=ops)
        timings[config] = timing
        entry = summarize(f"sweep_{label}_{config}", "sweep", "s/sweep", timing)
        entry["meta"] = {
            "figures": len(figures),
            "parallel": 1 if traits is None else parallel,
            "phases": {name: round(value, 6) for name, value in best_phases.items()},
            **({} if traits is None else traits),
        }
        entries.append(entry)
    parallel_entry = next(e for e in entries if e["name"].endswith("_parallel"))
    attach_baseline(parallel_entry, timings["serial"])
    return entries, timings


def sweep_benchmarks(quick: bool = False, parallel: int = 4, k: int = 0) -> list[dict]:
    """Entries for ``BENCH_sweep.json``.

    Quick mode (CI smoke) measures only the acceptance set; full mode
    adds the all-figures sweep (single run per configuration — each one
    is minutes of simulation).
    """
    figures = {**ALL_FIGURES, **EXTENSIONS}
    accept = {name: figures[name] for name in ACCEPTANCE_FIGURES}
    entries, _ = _measure("accept", accept, parallel, k or (2 if quick else 3))
    if not quick:
        full_entries, _ = _measure("full", figures, parallel, k or 1)
        entries.extend(full_entries)
    return entries
