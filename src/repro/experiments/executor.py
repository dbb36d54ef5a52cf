"""Fault-tolerant, throughput-oriented job executors: serial and parallel.

Executors take a list of :class:`~repro.experiments.jobs.Job` and return
:class:`JobResult` objects **in job order**, regardless of completion
order, so a parallel run's tables are byte-identical to a serial run's.

The execution pipeline, shared by all executors:

1. answer what it can from the (optional) content-addressed cache;
2. deduplicate the remaining jobs by content hash (two figures asking for
   the same simulation point compute it once);
3. run the unique misses — serially, or across persistent worker
   processes — storing each result into the cache *the moment it
   completes*;
4. fan results out to every position that asked for them.

Every job is a pure, seeded description, so workers need no shared state,
results are keyed by submission position rather than completion time,
and a retry can only reproduce the identical payload.

Throughput: a :class:`~repro.experiments.costmodel.CostModel` orders the
jobs longest-first (``dispatch="lpt"``; ``"fifo"`` keeps submission
order), and jobs predicted under ``inline_threshold_s`` run in the
coordinator once the workers have their first jobs.
:class:`ParallelExecutor` starts its worker processes itself, at the
first map that needs them, each on one duplex ``multiprocessing.Pipe``,
and keeps them until :meth:`~ParallelExecutor.close`.  Workers are
forked on Linux (they start with ``repro`` imported) and spawned
elsewhere; the coordinator starts no threads, so forking is safe.  A
worker replies with the RPK1 frame of :mod:`repro.experiments.transport`,
whose canonical JSON bytes go into the cache without re-serializing.

Fault tolerance (the parallel executor):

* each worker runs **one job at a time**, so a crash (EOF on its pipe or
  its process sentinel firing) loses exactly one in-flight job — the
  worker is respawned within ``max_pool_rebuilds`` and the job retried;
* exceptions (sent back pickled) and per-job timeouts (``job_timeout``;
  the stuck worker is killed and respawned) are retried up to
  ``max_retries`` times with exponential backoff;
* when the rebuild budget is exhausted the executor **degrades to
  in-process serial execution** rather than failing the run;
* completed results reach the cache *before* any failure propagates, and
  in-flight work is drained and salvaged, so a rerun after a hard failure
  never recomputes them.

:attr:`Executor.last_report` carries the accounting of the last ``map``
call, and an optional :class:`~repro.experiments.runlog.RunLog` records
one JSONL event per job plus a summary per map.  Deterministic fault
injection lives in :mod:`repro.experiments.faults`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pickle
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.experiments.cache import MISS, ResultCache
from repro.experiments.costmodel import CostModel
from repro.experiments.faults import FaultSpec
from repro.experiments.jobs import Job, execute_job
from repro.experiments.runlog import RunLog
from repro.experiments.transport import MAGIC, PackedResult, pack_result, unpack_result

__all__ = [
    "DISPATCH_MODES",
    "ExecutionError",
    "ExecutionReport",
    "Executor",
    "JobResult",
    "ParallelExecutor",
    "SerialExecutor",
    "execute",
    "make_executor",
]

#: Default bounded-retry budget for failing (not crashing-worker) jobs.
DEFAULT_MAX_RETRIES = 2
#: Base of the exponential retry backoff, in seconds.
DEFAULT_BACKOFF_S = 0.05
#: Recognized dispatch orders (see ``--dispatch`` / ``REPRO_DISPATCH``).
DISPATCH_MODES = ("fifo", "lpt")
#: Jobs predicted at or under this many wall seconds run inline in the
#: coordinator instead of paying a worker round-trip (~ms each).
INLINE_THRESHOLD_S = 0.01


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else None


@dataclass
class JobResult:
    """One job's outcome: the job, its JSON-native payload, provenance."""

    job: Job
    value: Any
    cached: bool = False


@dataclass
class ExecutionReport:
    """Accounting for one ``map`` call (surfaced by the CLI and run log)."""

    jobs: int = 0
    computed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    # -- scheduling ---------------------------------------------------------
    dispatch: str = ""  # dispatch order used ("fifo" | "lpt")
    inlined: int = 0  # jobs run on the coordinator's inline fast path
    load_balance: float = 1.0  # max slot busy time / mean (1.0 = perfect)
    # -- fault tolerance ----------------------------------------------------
    retries: int = 0  # re-executions after an error/crash/timeout
    failures: int = 0  # jobs that exhausted their retry budget
    timeouts: int = 0  # per-job timeouts that fired
    salvaged: int = 0  # results completed+cached before a failure/degrade
    pool_rebuilds: int = 0  # workers respawned after a crash/stall
    degraded: bool = False  # fell back to in-process serial execution
    # -- per-stage wall-clock, seconds --------------------------------------
    lookup_s: float = 0.0  # stage 1: cache lookups
    execute_s: float = 0.0  # stage 2/3: compute + store
    store_s: float = 0.0  # portion of execute_s spent persisting results
    startup_s: float = 0.0  # starting / reviving worker processes
    dispatch_s: float = 0.0  # cost prediction + ordering
    transport_s: float = 0.0  # decoding packed result frames
    compute_s: float = 0.0  # sum of successful attempts' wall seconds

    def as_dict(self) -> dict:
        return {
            name: round(value, 6) if isinstance(value, float) else value
            for name, value in dataclasses.asdict(self).items()
        }


class ExecutionError(RuntimeError):
    """A job exhausted its retry budget; completed results were salvaged.

    By the time this propagates, every result that *did* complete has
    already been stored into the cache (see ``ExecutionReport.salvaged``),
    so a rerun never recomputes them.
    """

    def __init__(self, message: str, *, job: Optional[Job] = None, attempts: int = 0):
        super().__init__(message)
        self.job = job
        self.attempts = attempts


def _pool_run(
    jb: Job, position: int, attempt: int, fault_text: Optional[str]
) -> PackedResult:
    """Worker-side entry point: run one job, pack its payload in a frame.

    Fault injection (:mod:`repro.experiments.faults`) is bound here —
    inside the worker process — so a ``crash`` fault can only ever kill a
    worker, never the coordinating process.  The payload is serialized
    once, to the canonical JSON the cache would store anyway.
    """
    fault = None
    if fault_text:
        spec = FaultSpec.parse(fault_text)
        if spec is not None:
            fault = spec.bind(position, attempt)
    return pack_result(execute_job(jb, fault=fault), traced=jb.trace)


def _worker_loop(conn: Any) -> None:
    """A worker process's whole life: run requests from ``conn`` until
    ``None`` or EOF.

    A request is ``(job, position, attempt, fault_text)``.  The reply is
    the job's RPK1 frame, or the exception it raised, pickled; the frame
    magic tells the two apart.
    """
    # Ctrl-C reaches the whole process group; the coordinator handles it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        try:
            frame = _pool_run(*request)
        except Exception as exc:  # simlint: disable=E001(sent back to the coordinator, which retries or fails the job)
            conn.send(exc)
        else:
            conn.send_bytes(frame)


class Executor:
    """Base executor: caching, dedup, ordering, retries and telemetry.

    Subclasses implement :meth:`_execute`, which runs the deduplicated
    batch and reports each completion through a callback — streaming, so
    completed results reach the cache even if a later job fails.
    """

    workers: int = 1
    #: Declared on the class and initialized in ``__init__`` so it is
    #: always readable, even before the first ``map`` call.
    last_report: ExecutionReport

    def __init__(
        self,
        *,
        job_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        backoff_s: Optional[float] = None,
        run_log: Union[RunLog, str, os.PathLike, None] = None,
        fault: Optional[str] = None,
        dispatch: Optional[str] = None,
        cost_model: Union[CostModel, str, os.PathLike, None] = None,
    ):
        self.job_timeout = (
            job_timeout if job_timeout is not None else _env_float("REPRO_JOB_TIMEOUT")
        )
        env_retries = _env_int("REPRO_MAX_RETRIES")
        self.max_retries = (
            max_retries
            if max_retries is not None
            else (env_retries if env_retries is not None else DEFAULT_MAX_RETRIES)
        )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        self.backoff_s = backoff_s if backoff_s is not None else DEFAULT_BACKOFF_S
        if run_log is None:
            env_log = os.environ.get("REPRO_RUN_LOG", "").strip()
            run_log = env_log or None
        self.run_log = (
            run_log if isinstance(run_log, RunLog) or run_log is None else RunLog(run_log)
        )
        fault_text = fault if fault is not None else os.environ.get("REPRO_FAULT_SPEC")
        FaultSpec.parse(fault_text)  # validate eagerly: fail fast on typos
        self._fault_text = (fault_text or "").strip() or None
        if dispatch is None:
            dispatch = os.environ.get("REPRO_DISPATCH", "").strip().lower() or "lpt"
        if dispatch not in DISPATCH_MODES:
            raise ValueError(
                f"dispatch (REPRO_DISPATCH) must be one of {DISPATCH_MODES}, "
                f"got {dispatch!r}"
            )
        self.dispatch = dispatch
        if isinstance(cost_model, CostModel):
            self.cost_model = cost_model
        elif cost_model is not None:
            self.cost_model = CostModel(cost_model)
        else:
            env_sidecar = os.environ.get("REPRO_COST_MODEL", "").strip()
            self.cost_model = CostModel(env_sidecar or None)
        self.last_report = ExecutionReport()
        self._completed_count = 0  # per-map scratch, read by degrade/salvage

    # -- the pipeline -------------------------------------------------------

    def map(
        self, jobs: Sequence[Job], cache: Optional[ResultCache] = None
    ) -> list[JobResult]:
        """Execute ``jobs``; results come back in submission order."""
        jobs = list(jobs)
        report = self.last_report = ExecutionReport(jobs=len(jobs))
        self._completed_count = 0
        values: list[Any] = [MISS] * len(jobs)
        cached = [False] * len(jobs)

        # Stage 1: cache lookups, in submission order.  A traced job only
        # accepts a hit when its trace artifact exists too — a cached
        # result without a trace is recomputed (and re-stored, this time
        # with the trace beside it).
        lookup_started = time.monotonic()
        pending: dict[str, list[int]] = {}
        for i, jb in enumerate(jobs):
            if cache is not None and (not jb.trace or cache.has_trace(jb)):
                hit = cache.lookup(jb)
                if hit is not MISS:
                    values[i] = hit
                    cached[i] = True
                    report.cache_hits += 1
                    self._log_job(jb, status="cached", attempts=0)
                    continue
            pending.setdefault(jb.content_hash, []).append(i)
        report.lookup_s = time.monotonic() - lookup_started

        # Stage 2: dedup identical misses, run each unique job once.
        unique = [(digest, jobs[where[0]]) for digest, where in pending.items()]
        report.deduplicated = sum(len(where) - 1 for where in pending.values())
        report.computed = len(unique)
        outcomes: dict[int, Any] = {}

        def complete(pos: int, value: Any, *, attempts: int, wall_s: float, **log: Any) -> None:
            # Store immediately — salvage: a later failure cannot discard
            # this result, and a rerun will answer it from the cache.
            _, jb = unique[pos]
            trace_text: Optional[str] = None
            if isinstance(value, PackedResult):
                # A worker's frame carries the canonical JSON bytes;
                # splice them straight into the cache record.
                transport_started = time.monotonic()
                value_text, trace_text = unpack_result(value)
                report.transport_s += time.monotonic() - transport_started
            else:
                value_text = None
                # A traced execution returns {"__trace__": jsonl,
                # "value": ...}; the wrapper never reaches the result
                # cache or the caller.
                if jb.trace and isinstance(value, dict) and "__trace__" in value:
                    trace_text = value["__trace__"]
                    value = value["value"]
            trace_path: Optional[str] = None
            if cache is not None:
                store_started = time.monotonic()
                if value_text is not None:
                    value = cache.store_text(jb, value_text)
                else:
                    value = cache.store(jb, value)
                if trace_text is not None:
                    cache.store_trace(jb, trace_text)
                    stored_at = cache.trace_path(jb)
                    trace_path = str(stored_at) if stored_at is not None else None
                report.store_s += time.monotonic() - store_started
            elif value_text is not None:
                transport_started = time.monotonic()
                value = json.loads(value_text)
                report.transport_s += time.monotonic() - transport_started
            outcomes[pos] = value
            self._completed_count = len(outcomes)
            report.compute_s += wall_s
            self.cost_model.observe(jb, wall_s)
            self._log_job(
                jb,
                status="computed",
                attempts=attempts,
                wall_s=wall_s,
                retried=attempts > 1,
                trace_path=trace_path,
                **log,
            )

        batching = cache is not None and cache.begin_batch()
        execute_started = time.monotonic()
        try:
            self._execute([jb for _, jb in unique], complete)
        except Exception:  # simlint: disable=E001(salvage accounting only; the failure is re-raised untouched)
            report.salvaged = len(outcomes)
            raise
        finally:
            if batching:
                # Flush *before* any failure propagates: salvage means the
                # packed records of everything that completed are durable.
                flush_started = time.monotonic()
                try:
                    cache.flush_batch()
                except OSError as exc:
                    print(
                        f"repro: batched cache flush failed: {exc!r}",
                        file=sys.stderr,
                    )
                report.store_s += time.monotonic() - flush_started
            try:
                self.cost_model.save()
            except OSError as exc:
                print(
                    f"repro: cost-model sidecar write failed: {exc!r}",
                    file=sys.stderr,
                )
            report.execute_s = time.monotonic() - execute_started
            self._log_map(report)

        # Stage 3: fan out, preserving submission order.
        for pos, (digest, jb) in enumerate(unique):
            value = outcomes[pos]
            where = pending[digest]
            for i in where:
                values[i] = value
            for i in where[1:]:
                self._log_job(jobs[i], status="deduplicated", attempts=0)
        return [
            JobResult(job=jb, value=value, cached=was_cached)
            for jb, value, was_cached in zip(jobs, values, cached)
        ]

    def _execute(self, jobs: Sequence[Job], complete: Callable) -> None:
        """Run the deduplicated batch; call ``complete(pos, value, ...)``
        for each job as it finishes.  Subclass responsibility."""
        raise NotImplementedError

    def _plan(
        self, jobs: Sequence[Job], complete: Callable
    ) -> tuple[list[int], list[float], dict[int, Callable]]:
        """Predict, order and bind dispatch provenance for one batch.

        Returns the execution order, the per-job predictions, and each
        position's completion callback with its dispatch rank bound.
        """
        report = self.last_report
        report.dispatch = self.dispatch
        dispatch_started = time.monotonic()
        predicted = [self.cost_model.predict(jb) for jb in jobs]
        order = self._dispatch_order(jobs, predicted)
        report.dispatch_s += time.monotonic() - dispatch_started
        finishers = {
            pos: functools.partial(
                complete, dispatch_order=rank, predicted_wall_s=predicted[pos]
            )
            for rank, pos in enumerate(order)
        }
        return order, predicted, finishers

    def _dispatch_order(
        self, jobs: Sequence[Job], predicted: Sequence[float]
    ) -> list[int]:
        """Execution order over ``range(len(jobs))`` per the dispatch mode.

        LPT sorts by descending predicted wall seconds with the original
        position as tie-break, so equal predictions keep submission
        order and the order is a pure function of the predictions —
        never of completion timing.
        """
        if self.dispatch == "lpt":
            return sorted(range(len(jobs)), key=lambda pos: (-predicted[pos], pos))
        return list(range(len(jobs)))

    def close(self) -> None:
        """Release held resources (worker processes).  Base: nothing to do."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared in-process execution with bounded retries --------------------

    def _run_in_process(
        self,
        pos: int,
        jb: Job,
        complete: Callable,
        *,
        start_attempt: int = 1,
        degraded: bool = False,
    ) -> None:
        """Execute one job here, retrying ordinary exceptions with backoff.

        Fault injection never applies in-process (a ``crash`` fault must
        not be able to kill the coordinating process), so this is also
        the safe fallback used after worker degradation.
        """
        attempt = start_attempt
        while True:
            started = time.monotonic()
            try:
                value = execute_job(jb)
            except Exception as exc:  # simlint: disable=E001(bounded retry loop; exhausting the budget raises ExecutionError from exc)
                if attempt - start_attempt < self.max_retries:
                    self.last_report.retries += 1
                    time.sleep(self.backoff_s * (2 ** (attempt - start_attempt)))
                    attempt += 1
                    continue
                raise self._failure(jb, attempt, exc, degraded=degraded) from exc
            complete(
                pos,
                value,
                attempts=attempt,
                worker_pid=os.getpid(),
                wall_s=time.monotonic() - started,
                degraded=degraded,
            )
            return

    def _failure(
        self, jb: Job, attempt: int, exc: BaseException, **log: Any
    ) -> ExecutionError:
        """Account and log a job that exhausted its retry budget."""
        self.last_report.failures += 1
        self._log_job(jb, status="failed", attempts=attempt, error=repr(exc), **log)
        return ExecutionError(
            f"job {jb!r} failed after {attempt} attempt(s): {exc!r}",
            job=jb,
            attempts=attempt,
        )

    # -- telemetry ----------------------------------------------------------

    def _log_job(
        self, jb: Job, *, status: str, attempts: int, wall_s: float = 0.0, **extra: Any
    ) -> None:
        """One ``event="job"`` record; ``extra`` fields that are ``None``
        (error, trace_path, dispatch_order, predicted_wall_s) are left out."""
        if self.run_log is None:
            return
        record = {
            "event": "job",
            "figure": jb.figure,
            "index": jb.index,
            "hash": jb.content_hash,
            "status": status,
            "attempts": attempts,
            "retried": False,
            "timed_out": False,
            "degraded": False,
            "worker_pid": None,
            "wall_s": round(wall_s, 6),
        }
        for name, value in extra.items():
            if value is not None:
                record[name] = round(value, 6) if name == "predicted_wall_s" else value
        self.run_log.record(**record)

    def _log_map(self, report: ExecutionReport) -> None:
        if self.run_log is None:
            return
        self.run_log.record(event="map", workers=self.workers, **report.as_dict())


class SerialExecutor(Executor):
    """Run jobs one after another in this process (the default)."""

    workers = 1

    def _execute(self, jobs: Sequence[Job], complete: Callable) -> None:
        order, _, finishers = self._plan(jobs, complete)
        for pos in order:
            self._run_in_process(pos, jobs[pos], finishers[pos])


class _Worker:
    """One worker slot: a persistent process, its pipe, its in-flight job.

    One job in flight per worker keeps failure attribution exact: EOF on
    the pipe or a dead process sentinel means exactly ``item`` was lost.
    The slot outlives its process (a crashed or stuck worker is replaced
    in place), and ``busy_s`` accumulates the wall time the slot spent on
    successful jobs within the current map, feeding ``load_balance``.
    """

    process: Any = None  # multiprocessing.Process; None when dead
    conn: Any = None  # the coordinator's end of the pipe
    item: Optional[tuple[int, Job, int]] = None  # (pos, job, attempt)
    started = 0.0
    busy_s = 0.0

    def start(self) -> None:
        """Start a fresh process: forked on Linux, spawned elsewhere."""
        import multiprocessing

        ctx = multiprocessing.get_context(
            "fork" if sys.platform.startswith("linux") else "spawn"
        )
        conn, child = ctx.Pipe()
        process = ctx.Process(target=_worker_loop, args=(child,), daemon=True)
        try:
            process.start()
        except OSError:  # a sick host: the slot stays dead, the map degrades
            conn.close()
            return
        finally:
            child.close()
        self.process, self.conn = process, conn

    def stop(self, grace_s: float = 0.0) -> None:
        """End the process and reap it, leaving no zombie; idempotent.

        An idle worker is asked to exit and given ``grace_s``; a busy,
        stuck or dead one is killed.
        """
        process, conn, idle = self.process, self.conn, self.item is None
        self.process = self.conn = self.item = None
        if process is None:
            return
        if grace_s > 0.0 and idle:
            try:
                conn.send(None)
                process.join(grace_s)
            except OSError:
                pass  # already dead: the join below reaps it
        if process.is_alive():
            process.kill()
        process.join()
        conn.close()


class ParallelExecutor(Executor):
    """Run jobs across persistent, isolated worker processes.

    Jobs and payloads are picklable by contract, and every job carries
    its own seed, so distributing (or retrying) work cannot change any
    result — only the wall-clock time.  Results are keyed by submission
    position, so ordering is deterministic too.

    ``workers=0`` is rejected: zero explicitly means "serial" at the
    :func:`make_executor` level, and silently promoting it to a
    cpu-count-sized pool (as older versions did) contradicted both.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        max_pool_rebuilds: Optional[int] = None,
        inline_threshold_s: Optional[float] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if workers is None:
            workers = os.cpu_count() or 2
        if workers < 1:
            raise ValueError(
                f"need at least one worker, got {workers}; "
                "use make_executor(0) or SerialExecutor() for serial execution"
            )
        self.workers = workers
        self.max_pool_rebuilds = (
            max_pool_rebuilds if max_pool_rebuilds is not None else workers + 2
        )
        self.inline_threshold_s = (
            inline_threshold_s if inline_threshold_s is not None else INLINE_THRESHOLD_S
        )
        self._rebuilds_used = 0
        self._pool: list[_Worker] = []

    # -- worker lifecycle ---------------------------------------------------

    def _start_workers(self, count: int) -> list[_Worker]:
        """The first ``count`` slots, started or revived, reset for one map.

        Live workers carry over from earlier maps; missing or dead ones
        start without charging the per-map rebuild budget — that budget
        meters *crash* recovery, not startup.
        """
        while len(self._pool) < count:
            self._pool.append(_Worker())
        workers = self._pool[:count]
        for worker in workers:
            worker.busy_s = 0.0
            if worker.process is None or not worker.process.is_alive():
                worker.stop()
                worker.start()
        return workers

    def _replace(self, worker: _Worker) -> None:
        """Kill a crashed or stuck worker; respawn it within budget."""
        worker.stop()
        if self._rebuilds_used >= self.max_pool_rebuilds:
            return  # budget exhausted: the slot stays dead
        self._rebuilds_used += 1
        self.last_report.pool_rebuilds += 1
        time.sleep(self.backoff_s)
        worker.start()

    def close(self) -> None:
        """Stop every worker process and reap it (idempotent)."""
        workers, self._pool = self._pool, []
        for worker in workers:
            worker.stop(grace_s=1.0)

    def __del__(self):
        # Workers outlive maps by design; don't leak processes when the
        # executor itself is garbage-collected.
        if getattr(self, "_pool", None):
            self.close()

    # -- the scheduler loop -------------------------------------------------

    def _execute(self, jobs: Sequence[Job], complete: Callable) -> None:
        if not jobs:
            return
        order, predicted, finishers = self._plan(jobs, complete)
        plain = self._fault_text is None and self.job_timeout is None
        if plain and (self.workers == 1 or len(jobs) <= 1):
            # Nothing to inject or time out, and no real parallelism to
            # gain: a worker buys no isolation worth its round-trip.
            for pos in order:
                self._run_in_process(pos, jobs[pos], finishers[pos])
            return

        # Inline fast path: jobs predicted cheaper than a worker
        # round-trip run right here.  Only when no fault spec or timeout
        # needs the worker-isolation boundary (injected faults must be
        # able to kill a worker, never the coordinator).
        inline = []
        if plain and self.inline_threshold_s > 0.0:
            inline = [
                pos for pos in order if predicted[pos] <= self.inline_threshold_s
            ]
        inlined = dict.fromkeys(inline)
        queue: deque[tuple[int, Job, int]] = deque(
            (pos, jobs[pos], 1) for pos in order if pos not in inlined
        )
        self.last_report.inlined += len(inline)
        self._rebuilds_used = 0
        workers: list[_Worker] = []
        if queue:
            startup_started = time.monotonic()
            workers = self._start_workers(min(self.workers, len(queue)))
            self.last_report.startup_s += time.monotonic() - startup_started
        try:
            self._fill(workers, queue)  # so the workers compute during the inline jobs
            for pos in inline:
                self._run_in_process(pos, jobs[pos], finishers[pos])
            self._schedule(workers, queue, finishers)
        except ExecutionError:
            self._drain(workers, finishers)
            raise
        finally:
            for worker in workers:
                if worker.item is not None:
                    worker.stop()  # its reply would be read as the next map's
            busy_times = [worker.busy_s for worker in workers]
            if any(busy_times):
                mean = sum(busy_times) / len(busy_times)
                self.last_report.load_balance = max(busy_times) / mean

    def _schedule(
        self, workers: Sequence[_Worker], queue: deque, finishers: dict
    ) -> None:
        """Keep one job in flight per live worker until the queue drains."""
        from multiprocessing.connection import wait

        while True:
            self._fill(workers, queue)
            busy = [worker for worker in workers if worker.item is not None]
            if not busy:
                if queue and all(worker.process is None for worker in workers):
                    # Workers irrecoverable: degrade to in-process serial.
                    self._degrade(queue, finishers)
                if not queue:
                    return
                continue  # a submit just failed; the loop re-fills
            timeout = None
            if self.job_timeout is not None:
                deadline = min(worker.started for worker in busy) + self.job_timeout
                timeout = max(0.0, deadline - time.monotonic())
            pipes = [worker.conn for worker in busy]
            ready = set(wait(pipes + [worker.process.sentinel for worker in busy], timeout))
            now = time.monotonic()
            # Handle every ready worker, in slot order, before a terminal
            # failure propagates: results that completed alongside it are
            # salvaged into the cache, not dropped.
            error: Optional[ExecutionError] = None
            for worker in busy:
                try:
                    if worker.conn in ready or worker.process.sentinel in ready:
                        self._harvest(worker, queue, finishers, now)
                    elif (
                        self.job_timeout is not None
                        and now - worker.started >= self.job_timeout
                    ):
                        self._expire(worker, queue, finishers)
                except ExecutionError as exc:
                    error = error or exc
            if error is not None:
                raise error

    def _fill(self, workers: Sequence[_Worker], queue: deque) -> None:
        """Hand the next queued job to every idle live worker."""
        for worker in workers:
            if not queue or worker.item is not None or worker.process is None:
                continue
            pos, jb, attempt = queue.popleft()
            try:
                worker.conn.send((jb, pos, attempt, self._fault_text))
            except OSError:
                # The worker died while idle: put the job back untouched
                # (it never ran) and respawn or retire the worker.
                queue.appendleft((pos, jb, attempt))
                self._replace(worker)
                continue
            worker.item = (pos, jb, attempt)
            worker.started = time.monotonic()

    def _harvest(
        self, worker: _Worker, queue: Optional[deque], finishers: dict, now: float
    ) -> None:
        """Read one reply.  ``queue=None`` drains: failures are dropped."""
        pos, jb, attempt = worker.item
        worker.item = None
        try:
            reply = worker.conn.recv_bytes()
        except (EOFError, OSError):
            if queue is None:
                worker.stop()
                return
            # The worker died: exactly its job was lost.  Crash retries
            # are bounded by the rebuild budget, not max_retries: when it
            # runs out every slot dies and the scheduler degrades.
            self.last_report.retries += 1
            queue.appendleft((pos, jb, attempt + 1))
            self._replace(worker)
            return
        if not reply.startswith(MAGIC):
            if queue is not None:
                self._retry_or_fail(queue, pos, jb, attempt, pickle.loads(reply))
            return
        wall_s = now - worker.started
        worker.busy_s += wall_s
        finishers[pos](
            pos,
            PackedResult(reply),
            attempts=attempt,
            worker_pid=worker.process.pid,
            wall_s=wall_s,
        )

    def _drain(self, workers: Sequence[_Worker], finishers: dict) -> None:
        """A terminal failure is about to propagate: give in-flight
        workers a bounded moment to finish, and salvage what they return.

        Otherwise a job that finished in the same scheduler tick as the
        fatal failure would be recomputed on the next run, purely by race.
        Worker errors are ignored: the primary failure owns the traceback.
        """
        from multiprocessing.connection import wait

        busy = [worker for worker in workers if worker.item is not None]
        patience = self.job_timeout if self.job_timeout is not None else 5.0
        deadline = time.monotonic() + patience
        while busy:
            ready = wait(
                [worker.conn for worker in busy],
                max(0.0, deadline - time.monotonic()),
            )
            if not ready:
                return
            now = time.monotonic()
            for worker in [worker for worker in busy if worker.conn in ready]:
                busy.remove(worker)
                self._harvest(worker, None, finishers, now)

    def _expire(self, worker: _Worker, queue: deque, finishers: dict) -> None:
        """A job outlived ``job_timeout``: kill its worker, retry or fail."""
        pos, jb, attempt = worker.item
        worker.item = None
        self.last_report.timeouts += 1
        finishers[pos] = functools.partial(finishers[pos], timed_out=True)
        self._replace(worker)
        timeout = TimeoutError(f"job exceeded --job-timeout={self.job_timeout}s")
        self._retry_or_fail(queue, pos, jb, attempt, timeout, timed_out=True)

    def _retry_or_fail(
        self, queue: deque, pos: int, jb: Job, attempt: int, exc: BaseException,
        *, timed_out: bool = False,
    ) -> None:
        if attempt > self.max_retries:
            raise self._failure(jb, attempt, exc, timed_out=timed_out) from exc
        self.last_report.retries += 1
        time.sleep(self.backoff_s * (2 ** (attempt - 1)))
        queue.append((pos, jb, attempt + 1))

    def _degrade(self, queue: deque, finishers: dict) -> None:
        """Workers irrecoverable: finish the remaining jobs in-process.

        Results completed by the workers before degradation are counted
        as salvaged — they are already in the cache and are not
        recomputed.
        """
        self.last_report.degraded = True
        self.last_report.salvaged = self._completed_count
        while queue:
            pos, jb, attempt = queue.popleft()
            self._run_in_process(
                pos, jb, finishers[pos], start_attempt=attempt, degraded=True
            )


def make_executor(
    parallel: int = 0,
    *,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    backoff_s: Optional[float] = None,
    run_log: Union[RunLog, str, os.PathLike, None] = None,
    fault: Optional[str] = None,
    dispatch: Optional[str] = None,
    cost_model: Union[CostModel, str, os.PathLike, None] = None,
) -> Executor:
    """``parallel <= 1`` gives the serial executor, else worker processes.

    Keyword arguments default from the environment (``REPRO_JOB_TIMEOUT``,
    ``REPRO_MAX_RETRIES``, ``REPRO_RUN_LOG``, ``REPRO_FAULT_SPEC``,
    ``REPRO_DISPATCH``, ``REPRO_COST_MODEL``) so the benchmark harness and
    CI smoke jobs can configure fault tolerance, scheduling and telemetry
    without touching call sites.
    """
    kwargs = dict(
        job_timeout=job_timeout,
        max_retries=max_retries,
        backoff_s=backoff_s,
        run_log=run_log,
        fault=fault,
        dispatch=dispatch,
        cost_model=cost_model,
    )
    if parallel and parallel > 1:
        return ParallelExecutor(parallel, **kwargs)
    return SerialExecutor(**kwargs)


def execute(
    jobs: Iterable[Job],
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> list[JobResult]:
    """Convenience wrapper: run ``jobs`` on ``executor`` (default serial)."""
    return (executor or SerialExecutor()).map(list(jobs), cache=cache)
