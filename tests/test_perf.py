"""Unit tests for the repro.perf benchmarking subsystem.

Wall-clock *values* are machine-dependent, so these tests pin the parts
that must be deterministic: the timing arithmetic, the BENCH document
schema, the comparison alignment, and the shape of what the micro/macro
harnesses emit.  One small end-to-end run checks the macrobenchmark's
live-vs-reference packet counts agree (the behavior-preservation guard).
"""

import json

import pytest

from repro.perf.compare import (
    BenchDelta,
    compare_documents,
    gate_failures,
    load_bench,
    render_comparison,
)
from repro.perf.schema import (
    BENCH_SCHEMA,
    BenchSchemaError,
    dump_document,
    new_document,
    validate_bench,
)
from repro.perf.timing import TimingResult, attach_baseline, min_of_k, summarize


def entry(name, best_s=0.5, group="micro", **extra):
    base = {
        "name": name,
        "group": group,
        "unit": "ops/s",
        "ops": 100,
        "repeats": 3,
        "best_s": best_s,
        "per_op_ns": best_s * 1e9 / 100,
        "rate": 100 / best_s,
    }
    base.update(extra)
    return base


class TestTiming:
    def test_best_is_min_and_rates_derive_from_it(self):
        timing = TimingResult(runs_s=(0.5, 0.2, 0.9), ops=1000)
        assert timing.k == 3
        assert timing.best_s == 0.2
        assert timing.per_op_ns == pytest.approx(0.2e9 / 1000)
        assert timing.rate == pytest.approx(1000 / 0.2)

    def test_min_of_k_runs_k_times_and_passes_setup_state(self):
        states, calls = [], []
        timing = min_of_k(
            calls.append, k=4, ops=7, setup=lambda: states.append(1) or len(states)
        )
        assert timing.k == 4 and timing.ops == 7
        assert calls == [1, 2, 3, 4]  # each run got a fresh setup value

    def test_min_of_k_validates_arguments(self):
        with pytest.raises(ValueError):
            min_of_k(lambda: None, k=0)
        with pytest.raises(ValueError):
            min_of_k(lambda: None, ops=0)

    def test_summarize_and_attach_baseline(self):
        live = TimingResult(runs_s=(0.2,), ops=100)
        ref = TimingResult(runs_s=(0.6,), ops=100)
        result = attach_baseline(summarize("x", "micro", "ops/s", live), ref)
        assert result["speedup"] == pytest.approx(3.0)
        assert result["baseline"]["best_s"] == 0.6
        validate_bench(new_document("kernel", False, [result]))


class TestSchema:
    def test_document_roundtrips_and_sorts_benchmarks(self):
        doc = new_document("kernel", True, [entry("b"), entry("a")])
        assert [b["name"] for b in doc["benchmarks"]] == ["a", "b"]
        parsed = json.loads(dump_document(doc))
        validate_bench(parsed)
        assert parsed["schema"] == BENCH_SCHEMA

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            new_document("nonsense", False, [entry("a")])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("machine"),
            lambda d: d.update(schema="repro-bench/99"),
            lambda d: d.update(benchmarks=[]),
            lambda d: d["benchmarks"][0].pop("rate"),
            lambda d: d["benchmarks"][0].update(group="bogus"),
            lambda d: d["benchmarks"][0].update(best_s=float("nan")),
            lambda d: d["benchmarks"][0].update(ops=0),
            lambda d: d["benchmarks"][0].update(surprise=1),
            lambda d: d.update(benchmarks=d["benchmarks"] * 2),
        ],
    )
    def test_rejects_malformed_documents(self, mutate):
        doc = new_document("kernel", False, [entry("a")])
        mutate(doc)
        with pytest.raises(BenchSchemaError):
            validate_bench(doc)

    def test_baseline_requires_speedup(self):
        bad = entry("a", baseline={"best_s": 1.0, "per_op_ns": 1.0, "rate": 1.0})
        with pytest.raises(BenchSchemaError):
            validate_bench(new_document("kernel", False, [bad]))

    def test_sweep_kind_and_group_validate(self):
        sweep = entry(
            "sweep_accept_parallel",
            group="sweep",
            unit="s/sweep",
            meta={"phases": {"startup_s": 0.1}, "parallel": 4},
        )
        doc = new_document("sweep", True, [sweep])
        validate_bench(json.loads(dump_document(doc)))


class TestCompare:
    def docs(self):
        old = new_document(
            "kernel", False, [entry("same"), entry("faster", 1.0), entry("gone")]
        )
        new = new_document(
            "kernel",
            False,
            [entry("same"), entry("faster", 0.5), entry("fresh")],
        )
        return old, new

    def test_alignment_and_classification(self):
        deltas = {d.name: d for d in compare_documents(*self.docs())}
        assert deltas["same"].status == "~"
        assert deltas["faster"].status == "faster"
        assert deltas["faster"].ratio == pytest.approx(0.5)
        assert deltas["gone"].status == "removed"
        assert deltas["fresh"].status == "added"

    def test_refuses_mixed_kinds(self):
        old = new_document("kernel", False, [entry("a")])
        new = new_document("figures", False, [entry("a", group="figure")])
        with pytest.raises(BenchSchemaError):
            compare_documents(old, new)

    def test_render_mentions_every_benchmark(self):
        text = render_comparison(compare_documents(*self.docs()))
        for name in ("same", "faster", "gone", "fresh"):
            assert name in text
        assert "1 faster" in text

    def test_slower_classification(self):
        delta = BenchDelta("x", "micro", old_per_op_ns=100.0, new_per_op_ns=120.0)
        assert delta.status == "slower"
        assert delta.percent == pytest.approx(20.0)

    def test_compares_per_op_cost_across_modes(self):
        # A --quick run does ~10x fewer ops; raw best_s differs wildly but
        # per-op cost is identical, so the delta must classify as noise.
        full = entry("x", best_s=1.0, ops=1000, per_op_ns=1e6, rate=1000.0)
        quick = entry("x", best_s=0.1, ops=100, per_op_ns=1e6, rate=1000.0)
        old = new_document("kernel", False, [full])
        new = new_document("kernel", True, [quick])
        (delta,) = compare_documents(old, new)
        assert delta.status == "~"
        assert delta.ratio == pytest.approx(1.0)

    def test_gate_passes_within_threshold(self):
        deltas = [
            BenchDelta("stable", "macro", 100.0, 108.0),  # +8% < 10% gate
            BenchDelta("noisy", "micro", 100.0, 300.0),  # ungated: ignored
        ]
        assert gate_failures(deltas, ["stable"]) == []

    def test_gate_fails_beyond_threshold(self):
        deltas = [BenchDelta("stable", "macro", 100.0, 115.0)]
        (failure,) = gate_failures(deltas, ["stable"])
        assert "stable" in failure and "+15.0%" in failure

    def test_gate_fails_on_missing_or_one_sided_benchmarks(self):
        deltas = [BenchDelta("gone", "macro", 100.0, None)]
        failures = gate_failures(deltas, ["gone", "never_measured"])
        assert len(failures) == 2
        assert any("removed" in f for f in failures)
        assert any("missing" in f for f in failures)

    def test_gate_threshold_is_configurable(self):
        deltas = [BenchDelta("x", "macro", 100.0, 108.0)]
        assert gate_failures(deltas, ["x"], threshold=0.05)

    def test_load_bench_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(BenchSchemaError):
            load_bench(str(path))
        good = tmp_path / "good.json"
        good.write_text(dump_document(new_document("kernel", True, [entry("a")])))
        assert load_bench(str(good))["kind"] == "kernel"


class TestHarnesses:
    def test_microbenchmarks_emit_schema_valid_entries(self):
        from repro.perf.micro import kernel_microbenchmarks

        entries = kernel_microbenchmarks(quick=True, k=1)
        names = [e["name"] for e in entries]
        assert "event_churn" in names and "probe_emission" in names
        for bench in entries:
            assert "speedup" in bench  # every micro carries a baseline
        validate_bench(new_document("kernel", True, entries))

    def test_macro_stacks_agree_on_packet_counts(self):
        from repro.perf.macro import (
            _live_stack,
            _packets_forwarded,
            _reference_stack,
        )

        live = _packets_forwarded(_live_stack(), 1.0)
        ref = _packets_forwarded(_reference_stack(), 1.0)
        assert live == ref > 0

    def test_profile_figure_reports_hot_functions(self):
        from repro.perf.profiling import profile_figure

        report = profile_figure("fig11", scale="fast", jobs=1, top=5)
        assert "fig11" in report and "cumulative" in report

    def test_profile_figure_rejects_unknown_inputs(self):
        from repro.perf.profiling import profile_figure

        with pytest.raises(ValueError):
            profile_figure("nope")
        with pytest.raises(ValueError):
            profile_figure("fig11", sort="bogus")
