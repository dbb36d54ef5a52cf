"""The repository benchmark: one workload, checked, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``figures_serial`` — Figures 3 and 6 at fast scale, serial, no cache;
  both tables byte-compared with ``results/``;
* ``sweep_small_jobs`` — a seeded sweep of many small jobs through
  ``make_executor(2)`` against a fresh on-disk cache, then warm passes;
* ``lint_tree`` — simlint with all rules over a pinned corpus.

The benchmark runs as many rounds as fit in ``--seconds`` (at least
one).  Each round is a fresh interpreter (``perfbench/driver.py``) with
every ``REPRO_*`` variable unset, so the default code path is what gets
measured.  End-to-end metrics are medians over the rounds.  Set-up time
runs from process spawn to "ready" and is sampled at least
``MIN_SETUP_SAMPLES`` times (extra rounds that only set up fill the gap).

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The
spans and counts of the traced rounds are written to
``.bench_work/traces/<workload>-seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero when any output check fails, and without printing that
line when it cannot run at all (no ``src/`` tree to measure).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("figures_serial", "sweep_small_jobs", "lint_tree")
MIN_SETUP_SAMPLES = 5
#: A round that runs longer than this is killed and the run fails.
ROUND_TIMEOUT_S = 170.0
#: Time a finished round's leftover processes get to exit on their own.
REAP_GRACE_S = 5.0


class RoundFailed(RuntimeError):
    """A round crashed or timed out: there is no result to report."""


def round_env(root: pathlib.Path) -> dict[str, str]:
    """The environment of every round: no ``REPRO_*`` knob, ``src`` on
    the path, temporary files inside the checkout when the path is
    short enough for the fork server's Unix socket."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    tmp = root / ".bench_work" / "tmp"
    # pymp-XXXXXXXX/listener-XXXXXXXX must fit in sockaddr_un's 108 bytes.
    if len(str(tmp)) <= 60:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def git_commit(root: pathlib.Path) -> str:
    """HEAD of the checkout when it is itself a git work tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2:
        return "unknown"
    if pathlib.Path(lines[0]).resolve() != root.resolve():
        return "unknown"  # a repository above the checkout, not this one
    return lines[1]


def group_alive(pgid: int) -> bool:
    """Whether any non-zombie process is left in process group ``pgid``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def reap(pgid: int) -> None:
    """Wait for the fork server and pool workers of a round to exit;
    kill what is still running after the grace period."""
    deadline = time.monotonic() + REAP_GRACE_S
    while group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + REAP_GRACE_S
        time.sleep(0.02)


def run_round(
    args: argparse.Namespace,
    env: dict[str, str],
    work: pathlib.Path,
    index: int,
    *,
    trace: bool = False,
    setup_only: bool = False,
) -> dict[str, Any]:
    out = work / f"round{index}.json"
    cmd = [
        sys.executable, str(HERE / "driver.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--out", str(out),
        "--work", str(work / f"round{index}"),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RoundFailed(f"round {index} timed out after {ROUND_TIMEOUT_S:.0f}s")
    finally:
        reap(proc.pid)
    if code != 0:
        raise RoundFailed(f"round {index} exited with code {code}")
    data = json.loads(out.read_text())
    data["setup_s"] = data["ready"] - spawned
    shutil.rmtree(work / f"round{index}", ignore_errors=True)
    return data


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    missing = [
        p for p in ("src/repro/__init__.py", "results", "BENCHMARK.json")
        if not (root / p).exists()
    ]
    if missing:
        print(
            f"perfbench: run from the root of a repro checkout; missing {missing}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = round_env(root)
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    started = time.monotonic()
    try:
        while True:
            plain.append(run_round(args, env, work, len(setups)))
            setups.append(plain[-1]["setup_s"])
            if args.trace:
                traced.append(run_round(args, env, work, len(setups), trace=True))
                setups.append(traced[-1]["setup_s"])
            # Start another round only if it should end within the budget.
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(plain) > args.seconds:
                break
        while len(setups) < MIN_SETUP_SAMPLES:
            probe = run_round(args, env, work, len(setups), setup_only=True)
            setups.append(probe["setup_s"])
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    errors = [e for r in rounds for e in r["errors"]]
    correct = failed == 0 and not errors

    values: dict[str, float] = {}
    if args.trace:
        layer_names = set().union(*(r["layers"] for r in traced))
        for name in layer_names:
            present = [r["layers"][name] for r in traced if name in r["layers"]]
            values[name] = statistics.median(present)
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(
            plain, "wall_s"
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in plain),
        }
        wanted = spec["end_to_end"]

    env_info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "setup_samples": len(setups),
    }
    if args.trace:
        traces = root / ".bench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(
                {"env": env_info, "metrics": values,
                 "rounds": [r["trace"] for r in traced]},
                sort_keys=True,
            )
        )

    print("env: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for error in errors:
        print(f"check failed: {error}")
    metrics: dict[str, dict[str, Any]] = {}
    absent = []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            absent.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        value = values[name]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}")
    if absent:
        print("missing: " + " ".join(absent))
        print(f"perfbench: hook targets gone, not measured: {absent}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
