"""The engine's one miss pipeline: lookup, group, dispatch, record.

Every engine — plain, batched, resilient, supervised, inline or pooled —
runs its cache misses through the same grouping rule, the same attempt
loop and the same bookkeeping.  These tests pin what that pipeline owns:
one strict-mode contract, batch rows through the pool, chunked chaos
runs, and the batch/scalar cache contract as callers see it.
"""

from __future__ import annotations

import pickle

import pytest

import repro.harness.engine as engine_mod
import repro.jvm.batch as batch_mod
from repro import ExecutionEngine, RunConfig, cell_key, registry
from repro.harness.engine import Cell
from repro.harness.experiments import run_campaign
from repro.jvm.batch import BATCH_TOLERANCE, batch_scalars_close
from repro.resilience import CellExecutionError, FaultInjector, FaultSpec, RetryPolicy

AGGREGATE = RunConfig(invocations=2, iterations=2, duration_scale=0.05, fidelity="aggregate")


def make_cell(spec, config, collector="G1", heap_multiple=3.0, invocation=0, heap_mb=None):
    return Cell(
        spec=spec,
        collector=collector,
        heap_mb=heap_mb if heap_mb is not None else spec.heap_mb_for(heap_multiple),
        invocation=invocation,
        config=config,
    )


def payload(result):
    return pickle.dumps((result.timed, result.oom))


def broken(*args, **kwargs):
    raise RuntimeError("simulator bug")


class TestStrictContract:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_plain_engine_failure_raises_chained_cell_error(
        self, lusearch, fast_config, monkeypatch, jobs
    ):
        cells = [make_cell(lusearch, fast_config, invocation=i) for i in range(2)]
        monkeypatch.setattr(engine_mod, "simulate_run", broken)
        with pytest.raises(CellExecutionError) as err:
            ExecutionEngine(jobs=jobs).run_cells(cells)
        assert err.value.attempts == 1
        assert isinstance(err.value.__cause__, RuntimeError)
        assert "simulator bug" in str(err.value.__cause__)

    def test_batch_row_failure_raises_chained_cell_error(self, lusearch, monkeypatch):
        monkeypatch.setattr(batch_mod, "simulate_batch", broken)
        with pytest.raises(CellExecutionError) as err:
            ExecutionEngine(batch=True).run_cells([make_cell(lusearch, AGGREGATE)])
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_plain_engine_partial_mode_holes_the_failure(
        self, lusearch, fast_config, monkeypatch
    ):
        monkeypatch.setattr(engine_mod, "simulate_run", broken)
        engine = ExecutionEngine()
        batch = engine.run_cells([make_cell(lusearch, fast_config)], partial=True)
        assert [(h.reason, h.attempts) for h in batch.holes] == [("gave_up", 1)]
        assert engine.stats.gave_up == 1


class TestPooledBatchRows:
    def test_rows_run_in_pool_workers_and_match_the_scalar_engine(self, h2, tmp_path):
        infeasible = [
            make_cell(h2, AGGREGATE, collector=c, heap_mb=h2.live_mb * 0.4)
            for c in ("Serial", "G1")
        ]
        feasible = [
            make_cell(h2, AGGREGATE, collector=c, heap_multiple=m, invocation=i)
            for c in ("Serial", "G1")
            for m in (2.0, 3.0)
            for i in range(2)
        ]
        cells = infeasible + feasible
        scalar = ExecutionEngine().run_cells(cells)

        before = engine_mod.SIMULATE_CALLS
        pooled = ExecutionEngine(jobs=2, batch=True, cache_dir=tmp_path)
        rows = pooled.run_cells(cells)
        # Two rows (one per collector), so both went to pool workers and
        # this process simulated nothing itself.
        assert engine_mod.SIMULATE_CALLS == before
        assert pooled.stats.executed == len(cells)

        assert [r.key for r in rows] == [r.key for r in scalar] == [cell_key(c) for c in cells]
        assert [r.oom for r in rows] == [r.oom for r in scalar]
        assert all(r.oom is not None for r in rows[:2])
        for got, ref in zip(rows[2:], scalar[2:]):
            for name in ("wall_s", "task_clock_s", "gc_pause_cpu_s", "allocated_mb"):
                assert batch_scalars_close(
                    getattr(got.timed, name), getattr(ref.timed, name), BATCH_TOLERANCE
                ), name
            assert got.timed.gc_count == ref.timed.gc_count

        warm = ExecutionEngine(jobs=2, batch=True, cache_dir=tmp_path)
        again = warm.run_cells(cells)
        assert warm.stats.executed == 0 and warm.stats.negative_hits == 2
        assert [r.oom for r in again] == [r.oom for r in rows]


class TestChunkedChaos:
    def test_pooled_chunks_converge_with_the_serial_attempt_counts(self, lusearch, fast_config):
        # 24 misses on 2 workers: Pool.map's chunk rule makes 3-cell units,
        # so retries, backoff and timeouts run inside multi-cell units.
        cells = [
            make_cell(lusearch, fast_config, collector=c, heap_multiple=m, invocation=i)
            for c in ("Serial", "G1", "ZGC")
            for m in (2.0, 3.0)
            for i in range(4)
        ]
        keys = [cell_key(c) for c in cells]

        def spec(seed):
            return FaultSpec(seed=seed, transient=0.15, crash=0.15, hang=0.05, hang_s=30.0)

        # Searched, not guessed: a seed whose first attempts hang exactly
        # once (each hang costs one timeout) and raise at least twice.
        seed = next(
            s
            for s in range(1000)
            if [FaultInjector(spec(s)).decide(k, 0) for k in keys].count("hang") == 1
            and sum(FaultInjector(spec(s)).decide(k, 0) in ("transient", "crash") for k in keys) >= 2
        )
        retry = RetryPolicy(retries=6, cell_timeout_s=0.5, backoff_base_s=0.001)
        clean = ExecutionEngine().run_cells(cells)
        runs = {}
        for jobs in (1, 2):
            engine = ExecutionEngine(jobs=jobs, retry=retry, injector=FaultInjector(spec(seed)))
            results = engine.run_cells(cells)
            assert [payload(r) for r in results] == [payload(r) for r in clean]
            runs[jobs] = (engine.stats.retries, engine.stats.timeouts, engine.stats.gave_up)
        assert runs[2] == runs[1]
        retries, timeouts, gave_up = runs[1]
        assert timeouts >= 1 and retries >= 3 and gave_up == 0


class TestBatchScalarCacheContract:
    """Scalar and batch kernels write the same cache keys with results
    that agree to BATCH_TOLERANCE; what callers see — the rendered
    campaign — must not depend on which kernel filled the cache."""

    SPECS = ("lusearch", "h2")

    def render(self, engine):
        specs = [registry.workload(n) for n in self.SPECS]
        return run_campaign("lbo", specs, config=AGGREGATE, engine=engine).rendered()

    def test_rendered_campaign_is_kernel_independent(self, tmp_path, monkeypatch):
        scalar = self.render(ExecutionEngine())
        kernel = batch_mod.simulate_batch
        rows = []

        def counting(*args, **kwargs):
            rows.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(batch_mod, "simulate_batch", counting)
        assert self.render(ExecutionEngine(batch=True, cache_dir=tmp_path)) == scalar
        assert rows  # the batch kernel, not the scalar path, filled the cache
        warm = ExecutionEngine(cache_dir=tmp_path)
        assert self.render(warm) == scalar
        assert warm.stats.executed == 0


class TestMinHeapCampaignCells:
    def test_warm_rerun_counts_the_same_cells_as_the_cold_run(self, lusearch, tmp_path):
        config = RunConfig(invocations=1, duration_scale=0.02)

        def campaign():
            engine = ExecutionEngine(cache_dir=tmp_path)
            return run_campaign("minheap", lusearch, ("G1",), config=config, engine=engine)

        cold = campaign()
        warm = campaign()
        assert warm.stats.executed == 0 and warm.stats.negative_hits > 0
        assert warm.cells == cold.cells == cold.stats.executed
