"""Shared fixtures for the per-figure benchmark harness.

Each benchmark regenerates one paper figure's data at the "fast" scale,
prints the table, writes it under ``results/`` and asserts the figure's
qualitative shape (who wins, where the knees are).  Figures 4/5 and 14/15
are different projections of the same sweep, so those sweeps are cached in
a session-scoped store and only run once.

Set ``REPRO_SCALE=paper`` in the environment to run the paper-scale
configurations instead (slow: tens of minutes).  ``REPRO_PARALLEL=N``
fans the declarative job sweeps out over N worker processes, and
``REPRO_CACHE_DIR=/path`` reuses the on-disk result cache across
benchmark sessions (by default an in-memory cache shares work only
within one session, e.g. between Figures 7-9's identical sweeps).

Fault tolerance and telemetry are configured the same way:
``REPRO_RUN_LOG=/path/run.jsonl`` appends one JSONL provenance record
per job plus a summary per sweep, ``REPRO_JOB_TIMEOUT=S`` bounds each
job's wall clock (a stuck worker is killed and the job retried),
``REPRO_MAX_RETRIES=N`` sets the retry budget, and ``REPRO_FAULT_SPEC``
injects deterministic faults for smoke-testing the recovery paths (see
``repro.experiments.faults``).

The throughput scheduler honors the same convention:
``REPRO_DISPATCH={lpt,fifo}`` picks the execution order and
``REPRO_COST_MODEL=/path`` the cost-model sidecar.  Both change
wall-clock only — never a table.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_SCALE", "fast")


@pytest.fixture(scope="session")
def sweep_cache() -> dict:
    """Cross-benchmark cache for shared parameter sweeps."""
    return {}


@pytest.fixture(scope="session")
def executor():
    """Job executor: serial unless ``REPRO_PARALLEL=N`` asks for a pool.

    ``make_executor`` also reads ``REPRO_RUN_LOG``, ``REPRO_JOB_TIMEOUT``,
    ``REPRO_MAX_RETRIES`` and ``REPRO_FAULT_SPEC`` from the environment,
    so benchmark sessions get run telemetry and fault tolerance without
    any per-test plumbing.
    """
    from repro.experiments.executor import make_executor

    return make_executor(int(os.environ.get("REPRO_PARALLEL", "0") or 0))


@pytest.fixture(scope="session")
def result_cache():
    """Content-addressed job-result cache shared across the session.

    In-memory by default; point ``REPRO_CACHE_DIR`` at a directory to
    persist results across benchmark runs.
    """
    from repro.experiments.cache import ResultCache

    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    return ResultCache(pathlib.Path(cache_dir)) if cache_dir else ResultCache()


@pytest.fixture(scope="session")
def report():
    """Print a result table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, table) -> None:
        text = table.format()
        print("\n" + text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


def run_once(benchmark, fn):
    """Benchmark a simulation exactly once (runs are minutes, not micro)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
