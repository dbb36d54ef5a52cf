"""Command-line interface: regenerate paper figures from the shell.

Usage::

    python -m repro list
    python -m repro run fig05                 # fast scale, print the table
    python -m repro run fig05 --scale paper   # the paper's parameters
    python -m repro run all --out results/    # everything, persisted
    python -m repro run fig04 --chart         # ASCII rendering of the shape
    python -m repro run all --parallel 4      # fan jobs out over 4 processes
    python -m repro run all --no-cache        # fresh simulations, each job once
    python -m repro run all --cache-dir /tmp/repro-cache
    python -m repro run all --run-log run.jsonl --job-timeout 600
    python -m repro run fig04 --trace         # also record telemetry traces
    python -m repro trace fig04               # list the stored traces
    python -m repro trace fig04 --job 0       # channels of one job's trace
    python -m repro trace fig04 --replay      # recompute the table from traces
    python -m repro run all --dispatch fifo   # submission-order dispatch
    python -m repro bench                     # kernel + figure benchmarks
    python -m repro bench --quick             # CI smoke mode
    python -m repro bench --sweep             # cold-sweep throughput
    python -m repro bench --compare OLD NEW   # regression deltas by name
    python -m repro bench --compare OLD NEW --gate event_chain  # gating
    python -m repro profile fig04 --top 15    # cProfile hot-function report

``run --trace`` records every probe channel (queue arrivals/drops/marks,
per-flow delivered bytes, cwnd, sending rates...) while simulating and
stores the JSONL trace beside each cached result.  ``trace --replay``
then rebuilds the figure's table from those traces alone — no
simulation — and prints it byte-identically, which is how CI proves the
telemetry stream carries everything the figures need
(see ``docs/telemetry.md``).

Results are cached on disk (``~/.cache/repro`` by default, see
``--cache-dir``) keyed by the content hash of each job plus a
code-version salt, so a warm second run replays from the cache without
simulating anything.  ``--no-cache`` swaps the disk cache for an
in-memory one that lives for this invocation only, so a job several
figures share (Figures 4/5, 14/15) is still computed once.  Parallel runs
produce byte-identical tables to serial runs: every job carries its own
seed and results are re-ordered by job index before reduction.

Parallel runs are fault-tolerant: a crashed worker costs only the job it
was running (the worker is respawned and the job retried), stuck jobs
can be bounded with ``--job-timeout``, failing jobs retry up to
``--max-retries`` times, and completed results always reach the cache
before any failure propagates.  ``--run-log PATH`` appends one JSONL
provenance record per job (content hash, attempts, worker pid, wall
time, dispatch order, predicted cost) plus a summary per figure — see
``docs/experiments.md``.

Dispatch is throughput-oriented by default: a learned cost model
(persisted beside the result cache) predicts each job's wall seconds,
the longest jobs are submitted first (``--dispatch lpt``), jobs cheaper
than a worker round-trip run inline in the coordinator, the worker
processes persist for the whole run, and results travel as packed
canonical-JSON frames.  None of this can change a table — only
how fast it appears; see ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro.experiments import ALL_FIGURES, EXTENSIONS
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.executor import JobResult, make_executor
from repro.experiments.runner import Table
from repro.viz import line_chart

__all__ = ["main"]


def _figure_chart(name: str, table: Table) -> Optional[str]:
    """Best-effort ASCII chart for a figure's table, if it is chartable."""
    columns = table.columns
    # Tables shaped (group, x, y): one series per group.
    if len(columns) == 3:
        group_col, x_col, y_col = columns
        series: dict[str, list[tuple[float, float]]] = {}
        for group, x, y in table.rows:
            try:
                series.setdefault(str(group), []).append((float(x), float(y)))
            except (TypeError, ValueError):
                return None
        try:
            return line_chart(series, title=table.title, log_x=all(
                x > 0 for pts in series.values() for x, _ in pts
            ))
        except ValueError:
            return None
    # Tables shaped (x, y...): one series per y column.
    try:
        xs = [float(x) for x in table.column(columns[0])]
    except (TypeError, ValueError):
        return None
    series = {}
    for y_col in columns[1:]:
        pts = []
        for x, y in zip(xs, table.column(y_col)):
            try:
                pts.append((x, float(y)))
            except (TypeError, ValueError):
                return None
        series[y_col] = pts
    try:
        return line_chart(series, title=table.title)
    except ValueError:
        return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Dynamic Behavior of "
        "Slowly-Responsive Congestion Control Algorithms' (SIGCOMM 2001).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the available figures")
    run_parser = sub.add_parser("run", help="run one figure (or 'all')")
    run_parser.add_argument("figure", help="figure name (e.g. fig05) or 'all'")
    run_parser.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="fast",
        help="scenario scale (default: fast)",
    )
    run_parser.add_argument(
        "--out", type=pathlib.Path, help="directory to persist tables into"
    )
    run_parser.add_argument(
        "--chart", action="store_true", help="also render an ASCII chart"
    )
    run_parser.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help="run jobs across N worker processes (default: serial)",
    )
    run_parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached job results (default: on; --no-cache keeps "
        "results in memory for this run only)",
    )
    run_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    run_parser.add_argument(
        "--run-log",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="append one JSONL provenance record per job (plus a summary "
        "per figure) to PATH; also honors REPRO_RUN_LOG",
    )
    run_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout for parallel runs; a stuck worker "
        "is killed and the job retried (also honors REPRO_JOB_TIMEOUT)",
    )
    run_parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="bounded retry budget for failing jobs (default: 2; also "
        "honors REPRO_MAX_RETRIES)",
    )
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help="record a telemetry trace per job, stored beside the cached "
        "result (requires the cache; inspect with 'repro trace')",
    )
    run_parser.add_argument(
        "--dispatch",
        choices=("fifo", "lpt"),
        default=None,
        help="execution order: 'lpt' submits the predicted-longest jobs "
        "first (default), 'fifo' preserves submission order; tables are "
        "byte-identical either way (also honors REPRO_DISPATCH)",
    )
    bench_parser = sub.add_parser(
        "bench", help="run the kernel benchmarks and write BENCH_*.json"
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads and fewer repeats (CI smoke mode)",
    )
    bench_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("."),
        metavar="DIR",
        help="directory for BENCH_kernel.json / BENCH_figures.json "
        "(default: current directory)",
    )
    bench_parser.add_argument(
        "-k",
        "--repeats",
        type=int,
        default=0,
        metavar="N",
        help="override the min-of-k repeat count (default: per-benchmark)",
    )
    bench_parser.add_argument(
        "--skip-figures",
        action="store_true",
        help="only the kernel micro/macro benchmarks (skip figure jobs)",
    )
    bench_parser.add_argument(
        "--sweep",
        action="store_true",
        help="measure end-to-end cold-sweep throughput (serial vs "
        "parallel) and write BENCH_sweep.json",
    )
    bench_parser.add_argument(
        "--parallel",
        type=int,
        default=4,
        metavar="N",
        help="worker count for the --sweep parallel configurations "
        "(default: 4)",
    )
    bench_parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="diff two BENCH files by benchmark name instead of measuring",
    )
    bench_parser.add_argument(
        "--gate",
        action="append",
        default=None,
        metavar="NAME",
        help="with --compare: exit non-zero if benchmark NAME regressed "
        "more than 10%% per-op (repeatable; others stay advisory)",
    )
    bench_parser.add_argument(
        "--validate",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="schema-check one BENCH file and exit",
    )
    profile_parser = sub.add_parser(
        "profile", help="cProfile a figure's jobs and print hot functions"
    )
    profile_parser.add_argument("figure", help="figure name (e.g. fig04)")
    profile_parser.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="fast",
        help="scenario scale (default: fast)",
    )
    profile_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="profile the figure's first N jobs (default: 1)",
    )
    profile_parser.add_argument(
        "--top",
        type=int,
        default=25,
        metavar="N",
        help="functions to show (default: 25)",
    )
    profile_parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "calls"),
        default="cumulative",
        help="pstats sort key (default: cumulative)",
    )
    trace_parser = sub.add_parser(
        "trace", help="inspect or replay stored telemetry traces"
    )
    trace_parser.add_argument("figure", help="figure name (e.g. fig04)")
    trace_parser.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="fast",
        help="scenario scale the traces were recorded at (default: fast)",
    )
    trace_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help=f"result cache directory (default: {default_cache_dir()})",
    )
    trace_parser.add_argument(
        "--job",
        type=int,
        default=None,
        metavar="N",
        help="show the channels of job N's trace instead of the summary",
    )
    trace_parser.add_argument(
        "--channel",
        default=None,
        metavar="NAME",
        help="with --job: dump one channel's samples as 'time value' lines",
    )
    trace_parser.add_argument(
        "--replay",
        action="store_true",
        help="recompute the figure's table from the stored traces alone "
        "(no simulation) and print it",
    )
    trace_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="with --replay: directory to persist the replayed table into",
    )
    args = parser.parse_args(argv)

    runnable = {**ALL_FIGURES, **EXTENSIONS}
    if args.command == "list":
        for name, module in runnable.items():
            doc = (module.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name}: {summary}")
        return 0

    if args.command == "bench":
        return _bench_command(args)

    names = list(runnable) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in runnable]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(runnable)}", file=sys.stderr)
        return 2

    if args.command == "profile":
        from repro.perf.profiling import profile_figure

        print(
            profile_figure(
                args.figure,
                scale=args.scale,
                jobs=args.jobs,
                top=args.top,
                sort=args.sort,
            )
        )
        return 0

    if args.command == "trace":
        return _trace_command(args, runnable)

    if args.trace and not args.cache:
        print(
            "--trace requires the cache: trace artifacts are stored beside "
            "cached results (drop --no-cache)",
            file=sys.stderr,
        )
        return 2

    cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    # --no-cache still deduplicates across figures, in memory only.
    cache = ResultCache(cache_dir if args.cache else None)
    executor = make_executor(
        args.parallel,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        run_log=args.run_log,
        dispatch=args.dispatch,
        # The cost model learns job wall times across runs; its sidecar
        # lives beside the result cache (cache off -> in-memory model).
        cost_model=(
            pathlib.Path(cache_dir) / "costmodel.json" if args.cache else None
        ),
    )

    total_jobs = total_computed = total_hits = total_dedup = 0
    total_retries = total_timeouts = total_rebuilds = 0
    any_degraded = False
    try:
        for name in names:
            started = time.time()
            module = runnable[name]
            jobs = module.jobs(args.scale)
            if args.trace:
                jobs = [dataclasses.replace(jb, trace=True) for jb in jobs]
            results = executor.map(jobs, cache)
            table = module.reduce(results)
            elapsed = time.time() - started
            report = executor.last_report
            total_jobs += report.jobs
            total_computed += report.computed
            total_hits += report.cache_hits
            total_dedup += report.deduplicated
            total_retries += report.retries
            total_timeouts += report.timeouts
            total_rebuilds += report.pool_rebuilds
            any_degraded = any_degraded or report.degraded
            print(table.format())
            print(
                f"[{name} completed in {elapsed:.1f}s at scale={args.scale}: "
                f"{report.jobs} jobs, {report.computed} computed, "
                f"{report.cache_hits} cache hits, "
                f"{report.deduplicated} deduplicated{_report_extras(report)}]"
            )
            if args.chart:
                chart = _figure_chart(name, table)
                if chart:
                    print()
                    print(chart)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(table.format() + "\n")
            print()
    finally:
        executor.close()
    if len(names) > 1:
        where = str(cache.root) if cache.root is not None else "memory, this run only"
        extras = ""
        if total_retries:
            extras += f", {total_retries} retried"
        if total_timeouts:
            extras += f", {total_timeouts} timed out"
        if total_rebuilds:
            extras += f", {total_rebuilds} pool rebuilds"
        if any_degraded:
            extras += ", degraded to serial"
        print(
            f"[total: {total_jobs} jobs, {total_computed} computed, "
            f"{total_hits} cache hits, {total_dedup} deduplicated{extras}; "
            f"cache={where}, workers={executor.workers}]"
        )
    return 0


def _bench_command(args) -> int:
    """``repro bench``: measure, compare or validate BENCH documents."""
    from repro.perf import (
        BenchSchemaError,
        compare_documents,
        dump_document,
        figure_benchmarks,
        gate_failures,
        kernel_microbenchmarks,
        load_bench,
        new_document,
        packet_forwarding_benchmark,
        render_comparison,
        sweep_benchmarks,
        validate_bench,
    )

    if args.validate is not None:
        try:
            import json

            with open(args.validate, encoding="utf-8") as fh:
                validate_bench(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"{args.validate}: {exc}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid {load_bench(str(args.validate))['schema']}")
        return 0

    if args.compare is not None:
        old_path, new_path = args.compare
        try:
            deltas = compare_documents(load_bench(old_path), load_bench(new_path))
        except (OSError, BenchSchemaError, ValueError) as exc:
            print(f"compare failed: {exc}", file=sys.stderr)
            return 1
        print(render_comparison(deltas))
        if args.gate:
            failures = gate_failures(deltas, args.gate)
            for failure in failures:
                print(f"GATE: {failure}", file=sys.stderr)
            if failures:
                return 1
            print(f"gate ok: {', '.join(args.gate)}")
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    mode = "quick" if args.quick else "full"

    if args.sweep:
        print(
            f"[bench: sweep throughput, mode={mode}, "
            f"parallel={args.parallel}]"
        )
        started = time.time()
        sweep_doc = new_document(
            "sweep", args.quick, sweep_benchmarks(args.quick, args.parallel)
        )
        sweep_path = args.out / "BENCH_sweep.json"
        sweep_path.write_text(dump_document(sweep_doc))
        for entry in sweep_doc["benchmarks"]:
            speedup = entry.get("speedup")
            tag = f"  {speedup:.2f}x vs serial" if speedup is not None else ""
            print(f"  {entry['name']:<28} {entry['best_s']:>8.3f} s/sweep{tag}")
        print(f"wrote {sweep_path} ({time.time() - started:.1f}s)")
        return 0
    print(f"[bench: kernel micro/macro, mode={mode}]")
    started = time.time()
    entries = kernel_microbenchmarks(quick=args.quick, k=args.repeats)
    entries.append(packet_forwarding_benchmark(quick=args.quick, k=args.repeats))
    kernel_doc = new_document("kernel", args.quick, entries)
    kernel_path = args.out / "BENCH_kernel.json"
    kernel_path.write_text(dump_document(kernel_doc))
    for entry in kernel_doc["benchmarks"]:
        speedup = entry.get("speedup")
        tag = f"  {speedup:.2f}x vs reference" if speedup is not None else ""
        print(
            f"  {entry['name']:<24} {entry['per_op_ns']:>12,.0f} ns/op "
            f"({entry['unit']}){tag}"
        )
    print(f"wrote {kernel_path} ({time.time() - started:.1f}s)")

    if not args.skip_figures:
        print(f"[bench: figure jobs, mode={mode}]")
        started = time.time()
        figures_doc = new_document(
            "figures", args.quick, figure_benchmarks(quick=args.quick, k=args.repeats)
        )
        figures_path = args.out / "BENCH_figures.json"
        figures_path.write_text(dump_document(figures_doc))
        for entry in figures_doc["benchmarks"]:
            print(f"  {entry['name']:<24} {entry['best_s']:>8.2f} s/job")
        print(f"wrote {figures_path} ({time.time() - started:.1f}s)")
    return 0


def _trace_command(args, runnable) -> int:
    """``repro trace``: inspect or replay the stored telemetry traces."""
    from repro.experiments.replay import replay_job
    from repro.telemetry.trace import TraceReader

    if args.figure == "all":
        print("trace works on one figure at a time", file=sys.stderr)
        return 2
    module = runnable[args.figure]
    cache = ResultCache(args.cache_dir if args.cache_dir else default_cache_dir())
    jobs = module.jobs(args.scale)

    def missing(jb) -> int:
        print(
            f"no trace for {args.figure} job {jb.index} "
            f"(key {cache.key(jb)[:12]}...); record one with "
            f"'repro run {args.figure} --trace --scale {args.scale}'",
            file=sys.stderr,
        )
        return 1

    if args.replay:
        results = []
        for jb in jobs:
            text = cache.load_trace(jb)
            if text is None:
                return missing(jb)
            try:
                payload = replay_job(jb, TraceReader.loads(text))
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 1
            results.append(JobResult(job=jb, value=payload, cached=False))
        table = module.reduce(results)
        # Exactly the table, nothing else: CI diffs this against `repro
        # run`'s persisted table to prove replay is byte-identical.
        print(table.format())
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{args.figure}.txt").write_text(table.format() + "\n")
        return 0

    if args.job is not None:
        matching = [jb for jb in jobs if jb.index == args.job]
        if not matching:
            print(
                f"{args.figure} has no job {args.job} "
                f"(valid: 0..{len(jobs) - 1})",
                file=sys.stderr,
            )
            return 2
        jb = matching[0]
        text = cache.load_trace(jb)
        if text is None:
            return missing(jb)
        reader = TraceReader.loads(text)
        if args.channel is not None:
            try:
                probe = reader.channel(args.channel)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            for t, v in zip(probe.times, probe.values):
                print(f"{t!r} {v!r}")
            return 0
        print(f"{args.figure} job {jb.index}: {cache.trace_path(jb)}")
        for key in sorted(reader.meta):
            print(f"  meta {key} = {reader.meta[key]!r}")
        for name in sorted(reader.channels):
            probe = reader.channels[name]
            print(f"  {probe.kind:7s} {name}  ({len(probe.times)} samples)")
        return 0

    stored = 0
    for jb in jobs:
        if cache.has_trace(jb):
            stored += 1
            reader = TraceReader.loads(cache.load_trace(jb))
            print(
                f"job {jb.index}: {len(reader.channels)} channels  "
                f"{cache.trace_path(jb)}"
            )
        else:
            print(f"job {jb.index}: no trace")
    if stored == 0:
        print(
            f"(no traces stored; record them with "
            f"'repro run {args.figure} --trace --scale {args.scale}')"
        )
    return 0


def _report_extras(report) -> str:
    """Fault-tolerance accounting, shown only when something happened."""
    extras = ""
    if report.retries:
        extras += f", {report.retries} retried"
    if report.timeouts:
        extras += f", {report.timeouts} timed out"
    if report.pool_rebuilds:
        extras += f", {report.pool_rebuilds} pool rebuilds"
    if report.degraded:
        extras += ", degraded to serial"
    if report.failures:
        extras += f", {report.failures} failed"
    return extras
