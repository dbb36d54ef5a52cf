"""Dispatch order is a throughput knob, never a correctness knob.

The scheduler (cost-model LPT dispatch, inline fast path, persistent
pipe workers, packed result frames) must be invisible in every output
byte: these tests drive *arbitrary* dispatch permutations and both
dispatch orders through the pipeline and assert byte-identical reduced
tables and identical on-disk cache contents.  The cache comparison is
deliberately a whole-tree byte fingerprint — batched pack files are
sorted on flush, so even *file* bytes must not depend on completion
order.
"""

import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import fig11_convergence_analysis as fig11
from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import ResultCache
from repro.experiments.costmodel import CostModel
from repro.experiments.executor import ParallelExecutor, SerialExecutor

N_JOBS = len(fig20.jobs("fast"))


def _run_with_order(order, tmp_root):
    """One serial map of fig20 with a forced dispatch order."""
    executor = SerialExecutor()
    executor._dispatch_order = lambda jobs, predicted: list(order)
    cache = ResultCache(tmp_root)
    table = fig20.reduce(executor.map(fig20.jobs("fast"), cache)).format()
    return table, _fingerprint(tmp_root)


def _fingerprint(root) -> dict[str, bytes]:
    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestPermutationProperty:
    @given(order=st.permutations(range(N_JOBS)))
    @settings(max_examples=25, deadline=None)
    def test_any_dispatch_permutation_is_byte_identical(self, order):
        with tempfile.TemporaryDirectory() as canonical_dir:
            with tempfile.TemporaryDirectory() as permuted_dir:
                reference = _run_with_order(range(N_JOBS), canonical_dir)
                permuted = _run_with_order(order, permuted_dir)
                assert permuted[0] == reference[0]  # table bytes
                assert permuted[1] == reference[1]  # cache tree bytes

    @pytest.mark.parametrize(
        "order",
        [
            list(reversed(range(N_JOBS))),
            list(range(1, N_JOBS)) + [0],
            sorted(range(N_JOBS), key=lambda i: i % 3),
        ],
    )
    def test_pooled_permutations_are_byte_identical(self, order, tmp_path):
        # Same property through real worker processes: inline disabled so
        # every job takes the worker round-trip in the permuted order.
        reference = _run_with_order(range(N_JOBS), tmp_path / "ref")
        executor = ParallelExecutor(workers=2, inline_threshold_s=0.0)
        executor._dispatch_order = lambda jobs, predicted: list(order)
        try:
            cache = ResultCache(tmp_path / "pooled")
            table = fig20.reduce(executor.map(fig20.jobs("fast"), cache)).format()
        finally:
            executor.close()
        assert table == reference[0]
        assert _fingerprint(tmp_path / "pooled") == reference[1]


class TestConfigurationMatrix:
    @pytest.mark.parametrize("dispatch", ["fifo", "lpt"])
    def test_every_configuration_matches_serial(self, tmp_path, dispatch):
        jobs = fig11.jobs("fast")
        serial_cache = ResultCache(tmp_path / "serial")
        serial = fig11.reduce(
            SerialExecutor(dispatch=dispatch).map(jobs, serial_cache)
        ).format()
        executor = ParallelExecutor(
            workers=2,
            dispatch=dispatch,
            inline_threshold_s=0.0,  # force the workers: that's the point
        )
        try:
            parallel_cache = ResultCache(tmp_path / "parallel")
            parallel = fig11.reduce(executor.map(jobs, parallel_cache)).format()
        finally:
            executor.close()
        assert parallel == serial
        assert _fingerprint(tmp_path / "parallel") == _fingerprint(
            tmp_path / "serial"
        )

    def test_inline_fast_path_matches_pooled(self, tmp_path):
        jobs = fig20.jobs("fast")
        inline_exec = ParallelExecutor(workers=2)  # analysis jobs inline
        pooled_exec = ParallelExecutor(workers=2, inline_threshold_s=0.0)
        try:
            inline_cache = ResultCache(tmp_path / "inline")
            inline = fig20.reduce(inline_exec.map(jobs, inline_cache)).format()
            assert inline_exec.last_report.inlined == len(jobs)
            pooled_cache = ResultCache(tmp_path / "pooled")
            pooled = fig20.reduce(pooled_exec.map(jobs, pooled_cache)).format()
            assert pooled_exec.last_report.inlined == 0
        finally:
            inline_exec.close()
            pooled_exec.close()
        assert inline == pooled
        assert _fingerprint(tmp_path / "inline") == _fingerprint(tmp_path / "pooled")


class TestDispatchOrderFunction:
    def test_lpt_sorts_by_descending_prediction(self):
        executor = SerialExecutor(dispatch="lpt")
        order = executor._dispatch_order([None] * 4, [0.5, 3.0, 0.1, 2.0])
        assert order == [1, 3, 0, 2]

    def test_lpt_ties_keep_submission_order(self):
        executor = SerialExecutor(dispatch="lpt")
        assert executor._dispatch_order([None] * 4, [1.0] * 4) == [0, 1, 2, 3]

    def test_fifo_preserves_submission_order(self):
        executor = SerialExecutor(dispatch="fifo")
        assert executor._dispatch_order([None] * 3, [0.1, 5.0, 1.0]) == [0, 1, 2]

    def test_lpt_uses_learned_costs(self):
        # After observing a slow job, LPT must promote its scenario.
        model = CostModel()
        jobs = fig20.jobs("fast")[:2] + fig11.jobs("fast")[:1]
        model.observe(jobs[2], 100.0)  # fig11's scenario measured huge
        executor = SerialExecutor(dispatch="lpt", cost_model=model)
        predicted = [model.predict(jb) for jb in jobs]
        assert executor._dispatch_order(jobs, predicted)[0] == 2
