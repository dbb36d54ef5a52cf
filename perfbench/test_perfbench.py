"""Self-test of the benchmark: a tiny sweep on two warm-pool workers.

The warm fork-server pool re-imports the driver's ``__main__`` module in
every worker.  An unguarded driver re-runs the sweep inside each worker,
so the round hangs or counts the wrong jobs.  This test runs the driver
as a script, exactly as ``run.py`` does, and checks that it attempted
precisely the jobs the seed generates, all of them correctly.

Run with ``python3 -m pytest perfbench``.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import driver  # noqa: E402


def test_tiny_sweep_counts_each_generated_job_once(tmp_path):
    seed = 3
    out = tmp_path / "round.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "driver.py"),
            "--workload", "sweep_small_jobs", "--seed", str(seed),
            "--out", str(out), "--work", str(tmp_path / "work"), "--tiny",
        ],
        cwd=ROOT, env=env, check=True, timeout=120,
    )
    result = json.loads(out.read_text())
    generated = sum(len(jobs) for jobs in driver.sweep_maps(seed, tiny=True))
    assert result["attempted"] == generated
    assert result["failed"] == 0, result["errors"]
    assert result["errors"] == []
