"""The parallel executor's process tree: its workers and nothing else.

A ``--parallel 2`` run is the coordinator plus two worker processes it
starts itself, each on one pipe.  No fork server, no resource tracker,
no management thread.  These tests read ``/proc/*/stat`` to pin that
shape, and check that stopping, crashing and timing out workers leaves
no child or zombie behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.executor import ParallelExecutor

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads the /proc process table"
)

JOBS = lambda: fig20.jobs("fast")  # noqa: E731 - tiny factory


def children() -> dict[int, str]:
    """pid -> process state (``R``, ``S``, ``Z``...) of this process's children."""
    me = os.getpid()
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we listed
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me:
            found[int(entry)] = state
    return found


def worker_pids(executor: ParallelExecutor) -> set[int]:
    return {w.process.pid for w in executor._pool if w.process is not None}


def gone(pids: set[int]) -> bool:
    """Reaped: a zombie would still have its /proc entry."""
    return not any(os.path.exists(f"/proc/{pid}") for pid in pids)


class TestProcessTree:
    def test_children_are_exactly_the_workers(self):
        before = set(children())
        executor = ParallelExecutor(workers=2, inline_threshold_s=0.0)
        assert set(children()) <= before  # nothing starts in the constructor
        try:
            executor.map(JOBS())
            new = set(children()) - before
            assert len(worker_pids(executor)) == 2
            assert new == worker_pids(executor)
            assert threading.active_count() == 1  # the coordinator forks safely
        finally:
            executor.close()
        assert gone(new)
        assert not set(children()) & new

    def test_workers_persist_across_maps(self):
        executor = ParallelExecutor(workers=2, inline_threshold_s=0.0)
        try:
            executor.map(JOBS()[:6])
            first = worker_pids(executor)
            executor.map(JOBS()[6:])
            assert worker_pids(executor) == first
        finally:
            executor.close()

    def test_crash_respawn_leaves_no_zombie(self):
        before = set(children())
        executor = ParallelExecutor(workers=2, fault="crash:index=0", backoff_s=0.01)
        try:
            executor.map(JOBS())
            assert executor.last_report.pool_rebuilds == 1
            now = children()
            new = set(now) - before
            assert new == worker_pids(executor)  # the crashed worker was reaped
            assert all(now[pid] != "Z" for pid in new)
        finally:
            executor.close()
        assert gone(new)

    def test_timed_out_worker_is_killed_and_reaped(self, tmp_path):
        log = tmp_path / "run.jsonl"
        before = set(children())
        executor = ParallelExecutor(
            workers=2,
            fault="hang=30:index=1",
            job_timeout=0.5,
            backoff_s=0.01,
            run_log=log,
        )
        try:
            executor.map(JOBS())
            assert executor.last_report.timeouts == 1
            new = set(children()) - before
            assert new == worker_pids(executor)
        finally:
            executor.close()
        assert gone(new)
        # The retried job's record says a timeout fired for it.
        records = [json.loads(line) for line in log.read_text().splitlines()]
        timed_out = [r for r in records if r.get("timed_out")]
        assert [(r["status"], r["attempts"]) for r in timed_out] == [("computed", 2)]

    def test_serial_imports_no_multiprocessing(self):
        code = (
            "import sys; import repro.cli; "
            "from repro.experiments import fig20_timeout_models as f; "
            "from repro.experiments.executor import make_executor; "
            "make_executor(0).map(f.jobs('fast')); "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "[]"

    def test_spawned_workers_match_serial(self):
        """Off Linux the workers are spawned instead of forked."""
        code = (
            "import sys; sys.platform = 'darwin'; "
            "from repro.experiments import fig20_timeout_models as f; "
            "from repro.experiments.executor import ParallelExecutor, SerialExecutor; "
            "e = ParallelExecutor(2, inline_threshold_s=0.0); "
            "a = f.reduce(e.map(f.jobs('fast'))).format(); "
            "import multiprocessing as mp; "
            "methods = {p._start_method for p in mp.active_children()}; "
            "e.close(); "
            "b = f.reduce(SerialExecutor().map(f.jobs('fast'))).format(); "
            "print(a == b, sorted(methods))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "True ['spawn']"
