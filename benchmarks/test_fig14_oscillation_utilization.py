"""Benchmark: regenerate Figure 14 (utilization under 3:1 oscillation)."""

from conftest import run_once

from repro.experiments import fig14_oscillation_utilization as fig14
from repro.experiments.oscillation_utilization import sweep, table_from_sweep


def oscillation_sweep(sweep_cache, scale, cbr_fraction):
    key = ("oscillation", scale, cbr_fraction)
    if key not in sweep_cache:
        sweep_cache[key] = sweep(scale, cbr_fraction=cbr_fraction)
    return sweep_cache[key]


def test_fig14_oscillation_utilization(benchmark, scale, sweep_cache, report):
    results = run_once(
        benchmark, lambda: oscillation_sweep(sweep_cache, scale, 2.0 / 3.0)
    )
    table = table_from_sweep(
        results,
        metric="utilization",
        title=fig14.TITLE,
        notes=fig14.NOTES,  # the same caption `repro run --out` writes
    )
    report("fig14_oscillation_utilization", table)

    protocols = sorted({name for name, _ in results})
    on_times = sorted({t for _, t in results})
    shortest, *middle, longest = on_times
    for protocol in protocols:
        series = {t: results[(protocol, t)].utilization for t in on_times}
        # Short bursts are absorbed by the queue: high utilization.
        assert series[shortest] > 0.8
        # The mid-range ON/OFF times (a few RTTs) are the costly ones.
        assert min(series[t] for t in middle) < series[shortest]
