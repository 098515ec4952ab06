"""Simulator invariants: accounting, warmup, determinism, OOM behaviour."""

import pytest

from repro import OutOfMemoryError, registry, simulate_run
from repro.jvm.collectors import COLLECTOR_NAMES
from repro.jvm.simulator import warmup_factor

SCALE = 0.05


def run(bench="lusearch", collector="G1", multiple=2.0, **kw):
    spec = registry.workload(bench)
    kw.setdefault("iterations", 2)
    kw.setdefault("duration_scale", SCALE)
    return spec, simulate_run(spec, collector, spec.heap_mb_for(multiple), **kw)


class TestAccounting:
    @pytest.mark.parametrize("collector", COLLECTOR_NAMES)
    def test_costs_positive_and_consistent(self, collector):
        _, result = run(collector=collector, multiple=3.0)
        r = result.timed
        assert r.wall_s > 0
        assert r.task_clock_s >= r.mutator_cpu_s > 0
        assert r.task_clock_s == pytest.approx(r.mutator_cpu_s + r.gc_cpu_s)
        assert 0 <= r.stw_wall_s <= r.wall_s
        assert r.gc_count > 0
        assert r.allocated_mb > 0

    def test_distilled_costs_nonnegative(self):
        for collector in COLLECTOR_NAMES:
            _, result = run(collector=collector, multiple=3.0)
            assert result.timed.distilled_wall_s > 0
            assert result.timed.distilled_task_s > 0

    def test_wall_includes_pauses(self):
        spec, result = run(collector="Serial", multiple=1.5)
        r = result.timed
        # Wall = mutator progress + pauses (+ stalls); progress >= intrinsic.
        assert r.wall_s >= r.stw_wall_s + spec.execution_time_s * SCALE * 0.9

    def test_allocation_close_to_rate_times_time(self):
        spec, result = run(collector="Parallel", multiple=4.0, iterations=1)
        r = result.iterations[0]
        expected = spec.alloc_rate_mb_s * spec.execution_time_s * SCALE
        # Warmup inflates iteration 1; tax divides allocation rate.
        assert r.allocated_mb == pytest.approx(expected * warmup_factor(1, spec), rel=0.25)

    def test_serial_pause_cpu_equals_pause_wall(self):
        _, result = run(collector="Serial", multiple=2.0)
        r = result.timed
        assert r.gc_pause_cpu_s == pytest.approx(r.stw_wall_s)  # one worker
        assert r.gc_concurrent_cpu_s == 0.0

    def test_parallel_pause_cpu_exceeds_wall(self):
        _, result = run(collector="Parallel", multiple=2.0)
        r = result.timed
        assert r.gc_pause_cpu_s > r.stw_wall_s


class TestTimeSpaceTradeoff:
    @pytest.mark.parametrize("collector", ["Serial", "Parallel", "G1"])
    def test_gc_count_falls_with_heap(self, collector):
        _, small = run(collector=collector, multiple=1.25)
        _, large = run(collector=collector, multiple=6.0)
        assert small.timed.gc_count > large.timed.gc_count

    @pytest.mark.parametrize("collector", COLLECTOR_NAMES)
    def test_gc_cpu_falls_with_heap(self, collector):
        _, small = run(collector=collector, multiple=2.0)
        _, large = run(collector=collector, multiple=6.0)
        assert small.timed.gc_cpu_s > large.timed.gc_cpu_s


class TestOutOfMemory:
    def test_below_live_set_fails(self):
        spec = registry.workload("h2")
        with pytest.raises(OutOfMemoryError):
            simulate_run(spec, "G1", spec.live_mb * 0.5, iterations=1, duration_scale=SCALE)

    def test_zgc_fails_where_g1_runs(self):
        # biojava: GMU/GMD = 1.97, so ZGC cannot run at 1.25x while G1 can.
        spec = registry.workload("biojava")
        heap = spec.heap_mb_for(1.25)
        simulate_run(spec, "G1", heap, iterations=1, duration_scale=SCALE)
        with pytest.raises(OutOfMemoryError):
            simulate_run(spec, "ZGC", heap, iterations=1, duration_scale=SCALE)

    def test_all_collectors_run_generous_heap(self):
        spec = registry.workload("xalan")
        for collector in COLLECTOR_NAMES:
            simulate_run(spec, "G1", spec.heap_mb_for(6.0), iterations=1, duration_scale=SCALE)

    def test_unknown_collector_rejected(self):
        spec = registry.workload("fop")
        with pytest.raises(KeyError):
            simulate_run(spec, "CMS", spec.heap_mb_for(2.0))


class TestDeterminism:
    def test_same_invocation_identical(self):
        _, a = run(invocation=3)
        _, b = run(invocation=3)
        assert a.timed.wall_s == b.timed.wall_s
        assert a.timed.gc_count == b.timed.gc_count

    def test_different_invocations_differ(self):
        _, a = run(invocation=0)
        _, b = run(invocation=1)
        assert a.timed.wall_s != b.timed.wall_s


class TestWarmup:
    def test_first_iteration_slowest(self):
        spec, result = run(bench="jython", iterations=4, multiple=4.0)
        walls = [r.wall_s for r in result.iterations]
        assert walls[0] > walls[-1]

    def test_warmup_factor_decays_to_one(self):
        spec = registry.workload("jython")  # PWU = 9, slowest warmup
        assert warmup_factor(1, spec) > warmup_factor(3, spec) > 1.0
        assert warmup_factor(spec.warmup_iterations, spec) == pytest.approx(1.015, abs=0.01)

    def test_warmup_factor_validation(self):
        with pytest.raises(ValueError):
            warmup_factor(0, registry.workload("fop"))

    def test_quick_warmup_workload(self):
        spec = registry.workload("jme")  # PWU = 1
        assert warmup_factor(2, spec) == pytest.approx(1.0, abs=0.02)


class TestLeakage:
    def test_zxing_leaks_across_iterations(self):
        spec = registry.workload("zxing")  # GLK = 120, highest in suite
        result = simulate_run(spec, "G1", spec.heap_mb_for(4.0), iterations=5, duration_scale=SCALE)
        first = result.iterations[0].telemetry.gc_log[-1].heap_after_mb
        last = result.iterations[-1].telemetry.gc_log[-1].heap_after_mb
        assert last > first

    def test_non_leaky_workload_stable(self):
        spec = registry.workload("fop")  # GLK = 0
        result = simulate_run(spec, "G1", spec.heap_mb_for(4.0), iterations=5, duration_scale=SCALE)
        first = result.iterations[0].telemetry.gc_log[-1].heap_after_mb
        last = result.iterations[-1].telemetry.gc_log[-1].heap_after_mb
        assert last == pytest.approx(first, rel=0.25)


class TestBehaviouralSignatures:
    def test_shenandoah_throttles_lusearch(self):
        """The paper's Section 6.2 lusearch analysis: wall blows up, task
        clock much less."""
        spec = registry.workload("lusearch")
        shen = simulate_run(spec, "Shenandoah", spec.heap_mb_for(2.0), iterations=2, duration_scale=SCALE)
        g1 = simulate_run(spec, "G1", spec.heap_mb_for(2.0), iterations=2, duration_scale=SCALE)
        # Wall-clock: Shenandoah far worse than G1 on this workload.
        assert shen.timed.wall_s > 1.5 * g1.timed.wall_s

    def test_zgc_stalls_under_pressure(self):
        spec = registry.workload("lusearch")
        result = simulate_run(spec, "ZGC", spec.heap_mb_for(2.0), iterations=2, duration_scale=SCALE)
        assert result.timed.stall_wall_s > 0

    def test_stw_collectors_never_stall(self):
        for collector in ("Serial", "Parallel"):
            _, result = run(collector=collector, multiple=1.5)
            assert result.timed.stall_wall_s == 0.0

    def test_concurrent_collectors_use_concurrent_cpu(self):
        for collector in ("Shenandoah", "ZGC", "G1"):
            _, result = run(collector=collector, multiple=3.0)
            assert result.timed.gc_concurrent_cpu_s > 0

    def test_heap_after_gc_series_monotone_time(self):
        _, result = run(multiple=2.0)
        series = result.timed.telemetry.heap_after_gc_series()
        times = [t for t, _ in series]
        assert times == sorted(times)
        assert all(mb >= 0 for _, mb in series)


class TestSimulateIteration:
    def test_runs_on_the_collectors_machine(self):
        """One iteration replays simulate_run's first, on the machine the
        collector was made for; any other machine is rejected."""
        from repro.core.rng import generator_for
        from repro.jvm.cpu import Machine
        from repro.jvm.heap import Heap
        from repro.jvm.simulator import make_collector, simulate_iteration, warmup_factor

        spec = registry.workload("lusearch")
        heap_mb = spec.heap_mb_for(2.0)
        machine = Machine(cores=24, smt=1)
        rng = generator_for(spec.name, "ZGC", f"{heap_mb:.3f}", 0)
        collector = make_collector("ZGC", spec, machine, rng=rng)
        heap = Heap(capacity_mb=heap_mb, reserve_fraction=collector.RESERVE_FRACTION)
        heap.live_mb = collector.live_footprint_mb()
        with pytest.raises(ValueError, match="machine"):
            simulate_iteration(spec, collector, heap, Machine(), rng)
        first = simulate_iteration(
            spec, collector, heap, None, rng,
            speed_factor=warmup_factor(1, spec), duration_scale=SCALE,
        )
        _, result = run(collector="ZGC", iterations=1, machine=machine)
        assert first.wall_s == result.timed.wall_s
        assert first.gc_count == result.timed.gc_count
