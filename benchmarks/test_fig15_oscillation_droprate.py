"""Benchmark: regenerate Figure 15 (drop rates for the Figure 14 runs)."""

from conftest import run_once

from test_fig14_oscillation_utilization import oscillation_sweep
from repro.experiments import fig15_oscillation_droprate as fig15
from repro.experiments.oscillation_utilization import table_from_sweep


def test_fig15_oscillation_droprate(benchmark, scale, sweep_cache, report):
    results = run_once(
        benchmark, lambda: oscillation_sweep(sweep_cache, scale, 2.0 / 3.0)
    )
    table = table_from_sweep(
        results,
        metric="drop_rate",
        title=fig15.TITLE,
        notes=fig15.NOTES,  # the same caption `repro run --out` writes
    )
    report("fig15_oscillation_droprate", table)

    rates = table.column("value")
    assert all(0.0 <= r < 0.5 for r in rates)
    # Congestion exists in every run of this overloaded scenario.
    assert min(rates) > 0.001
