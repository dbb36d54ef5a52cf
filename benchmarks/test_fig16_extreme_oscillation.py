"""Benchmark: regenerate Figure 16 (utilization under 10:1 oscillation)."""

from conftest import run_once

from repro.experiments import fig16_extreme_oscillation as fig16
from repro.experiments.oscillation_utilization import sweep, table_from_sweep


def test_fig16_extreme_oscillation(benchmark, scale, sweep_cache, report):
    key = ("oscillation", scale, 0.9)

    def work():
        if key not in sweep_cache:
            sweep_cache[key] = sweep(scale, cbr_fraction=0.9)
        return sweep_cache[key]

    results = run_once(benchmark, work)
    table = table_from_sweep(
        results,
        metric="utilization",
        title=fig16.TITLE,
        notes=fig16.NOTES,  # the same caption `repro run --out` writes
    )
    report("fig16_extreme_oscillation", table)

    protocols = sorted({name for name, _ in results})
    on_times = sorted({t for _, t in results})
    # Paper: with 10:1 oscillations none of the mechanisms is particularly
    # successful — every protocol leaves bandwidth on the table somewhere.
    for protocol in protocols:
        worst = min(results[(protocol, t)].utilization for t in on_times)
        assert worst < 0.9
    # TFRC's worst point is no better than TCP's worst point (the paper
    # finds TFRC particularly bad at some frequencies).
    worst_of = {
        p: min(results[(p, t)].utilization for t in on_times) for p in protocols
    }
    assert worst_of["TFRC(6)"] <= worst_of["TCP(0.5)"] + 0.05
