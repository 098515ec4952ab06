"""The flight recorder: events, ring buffer, metrics, trace export, and
the bit-identical-with-recorder-enabled guarantee."""

import dataclasses
import json

import pytest

from repro import (
    ExecutionEngine,
    MetricsRegistry,
    Recorder,
    RunConfig,
    chrome_trace,
    plan_lbo,
    registry,
    run_campaign,
    run_plan,
    simulate_run,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.harness.cli import main
from repro.harness.engine import EngineStats
from repro.observability import (
    CACHE_WORKER,
    AllocationStall,
    BatchSpan,
    CacheHit,
    CacheMiss,
    CellSpan,
    CompileWarmup,
    ConcurrentSpan,
    GcPause,
    IterationSpan,
    LogLinearHistogram,
    NullRecorder,
    SpanEvent,
    TraceEvent,
    nested_slices,
)


def sweep_config():
    return RunConfig(invocations=2, iterations=2, duration_scale=0.05)


def run_traced(lusearch, **engine_kwargs):
    recorder = Recorder()
    engine = ExecutionEngine(recorder=recorder, **engine_kwargs)
    suite = run_plan(plan_lbo(lusearch, ("G1", "ZGC"), (2.0, 3.0), sweep_config()), engine)
    return suite, recorder, engine


class TestRecorderRing:
    def test_bounded_capacity_overwrites_oldest(self):
        ring = Recorder(capacity=4)
        for i in range(10):
            ring.emit(CacheMiss(ts=float(i), key=str(i)))
        assert len(ring) == 4
        assert ring.dropped == 6
        assert [e.key for e in ring.events()] == ["6", "7", "8", "9"]

    def test_events_in_emit_order_before_wrap(self):
        ring = Recorder(capacity=8)
        for i in range(5):
            ring.emit(CacheHit(ts=float(i), key=str(i)))
        assert [e.key for e in ring.events()] == ["0", "1", "2", "3", "4"]
        assert ring.dropped == 0

    def test_clear(self):
        ring = Recorder(capacity=2)
        ring.emit(CacheMiss(ts=0.0, key="a"))
        ring.emit(CacheMiss(ts=1.0, key="b"))
        ring.emit(CacheMiss(ts=2.0, key="c"))
        ring.clear()
        assert len(ring) == 0 and ring.dropped == 0 and ring.events() == ()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Recorder(capacity=0)

    def test_only_events_accepted(self):
        with pytest.raises(TypeError):
            Recorder().emit("not an event")

    def test_negative_timestamps_rejected(self):
        with pytest.raises(ValueError):
            CacheHit(ts=-1.0, key="x")
        with pytest.raises(ValueError):
            GcPause(ts=0.0, dur=-0.1)


class TestNullRecorder:
    def test_is_disabled_noop(self):
        null = NullRecorder()
        assert null.enabled is False
        null.emit(CacheHit(ts=0.0, key="k"))  # safe, silently dropped
        assert null.events() == () and len(null) == 0 and list(null) == []

    def test_engine_default_records_nothing(self, lusearch):
        engine = ExecutionEngine()
        run_plan(plan_lbo(lusearch, ("G1",), (3.0,), sweep_config()), engine)
        assert isinstance(engine.recorder, NullRecorder)
        assert engine.recorder.events() == ()

    def test_simulator_default_records_nothing(self, lusearch):
        # No recorder argument: simulate_run must not require one.
        run = simulate_run(lusearch, "G1", lusearch.heap_mb_for(3.0), iterations=2)
        assert run.timed.wall_s > 0


class TestHistogram:
    def test_percentiles_within_bucket_error(self):
        hist = LogLinearHistogram("t", min_value=1e-6, subbuckets=16)
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s
        for v in values:
            hist.record(v)
        for p, expected in ((50, 0.500), (90, 0.900), (99, 0.990)):
            assert hist.percentile(p) == pytest.approx(expected, rel=1 / 16)

    def test_extremes_are_exact(self):
        hist = LogLinearHistogram("t")
        for v in (0.003, 0.1, 2.5):
            hist.record(v)
        assert hist.percentile(0) == pytest.approx(0.003)
        assert hist.percentile(100) == pytest.approx(2.5)
        assert hist.min == 0.003 and hist.max == 2.5

    def test_mean_and_count_exact(self):
        hist = LogLinearHistogram("t")
        for v in (1.0, 2.0, 3.0):
            hist.record(v)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)

    def test_empty_histogram(self):
        hist = LogLinearHistogram("t")
        assert hist.percentile(50) == 0.0 and hist.mean == 0.0

    def test_underflow_bucket(self):
        hist = LogLinearHistogram("t", min_value=1e-3)
        hist.record(0.0)
        hist.record(1e-9)
        assert hist.count == 2
        assert hist.percentile(50) == 0.0  # clamped to the exact minimum

    def test_validation(self):
        with pytest.raises(ValueError):
            LogLinearHistogram("t", min_value=0.0)
        with pytest.raises(ValueError):
            LogLinearHistogram("t").record(-1.0)
        with pytest.raises(ValueError):
            LogLinearHistogram("t").percentile(101)

    def test_wide_dynamic_range(self):
        # Microseconds to minutes in one histogram: log-linear buckets
        # keep relative error bounded everywhere.
        hist = LogLinearHistogram("t", subbuckets=32)
        for v in (1e-5, 1e-3, 1e-1, 10.0, 100.0):
            hist.record(v)
        assert hist.percentile(100) == pytest.approx(100.0)
        assert hist.percentile(0) == pytest.approx(1e-5)


class TestMetricsRegistry:
    def test_counters_gauges_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(0.5)
        assert reg.to_dict()["c"] == 3
        assert reg.to_dict()["g"] == 0.5
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_ingest_folds_events(self):
        reg = MetricsRegistry()
        reg.ingest(
            [
                CacheHit(ts=0.0, key="a"),
                CacheHit(ts=0.0, key="b", negative=True),
                CacheMiss(ts=0.0, key="c"),
                CellSpan(ts=0.0, dur=1.5, benchmark="x", collector="G1"),
                GcPause(ts=0.1, dur=0.002, kind="young:young"),
                AllocationStall(ts=0.2, dur=0.01),
                CompileWarmup(ts=0.0, dur=0.3, iteration=1, factor=1.4),
            ]
        )
        snap = reg.to_dict()
        assert snap["engine.cache.hits"] == 2
        assert snap["engine.cache.negative_hits"] == 1
        assert snap["engine.cache.misses"] == 1
        assert snap["engine.cache.hit_rate"] == pytest.approx(2 / 3)
        assert snap["gc.pause_seconds"]["count"] == 1
        assert snap["jit.warmup_seconds"]["count"] == 1

    def test_render_is_readable(self):
        reg = MetricsRegistry()
        reg.ingest([CacheMiss(ts=0.0, key="k"), GcPause(ts=0.0, dur=0.001, kind="young")])
        text = reg.render()
        assert "engine.cache.misses" in text
        assert "p99=" in text


class TestEngineRecording:
    def test_cell_spans_with_nested_gc_slices(self, lusearch):
        _, recorder, _ = run_traced(lusearch)
        events = recorder.events()
        cell_spans = [e for e in events if isinstance(e, CellSpan)]
        assert len(cell_spans) == 8  # 2 collectors x 2 multiples x 2 invocations
        assert all(not s.cached for s in cell_spans)
        for span in cell_spans:
            nested = [
                e
                for e in nested_slices(events, span.track)
                if isinstance(e, (GcPause, ConcurrentSpan, AllocationStall))
            ]
            assert nested, f"no GC slices under {span.label}"
            for slice_ in nested:
                assert span.ts <= slice_.ts
                assert slice_.end <= span.end + 1e-9

    def test_worker_attribution_round_robin(self, lusearch):
        _, recorder, engine = run_traced(lusearch, jobs=2)
        spans = [e for e in recorder.events() if isinstance(e, CellSpan)]
        assert {s.worker for s in spans} == {0, 1}
        # Per-worker spans tile their simulated timeline without overlap.
        for worker in (0, 1):
            mine = sorted((s for s in spans if s.worker == worker), key=lambda s: s.ts)
            for a, b in zip(mine, mine[1:]):
                assert b.ts >= a.end - 1e-9

    def test_batch_span_covers_workers(self, lusearch):
        _, recorder, _ = run_traced(lusearch)
        (batch,) = [e for e in recorder.events() if isinstance(e, BatchSpan)]
        assert batch.cells == 8
        spans = [e for e in recorder.events() if isinstance(e, CellSpan)]
        assert batch.end >= max(s.end for s in spans) - 1e-9

    def test_warm_rerun_traces_zero_work_hit_spans(self, lusearch, tmp_path):
        run_traced(lusearch, cache_dir=tmp_path)
        suite, recorder, engine = run_traced(lusearch, cache_dir=tmp_path)
        spans = [e for e in recorder.events() if isinstance(e, CellSpan)]
        assert len(spans) == 8
        assert all(s.cached and s.dur == 0.0 and s.worker == CACHE_WORKER for s in spans)
        hits = [e for e in recorder.events() if isinstance(e, CacheHit)]
        assert len(hits) == 8
        assert engine.stats.hit_rate == 1.0

    def test_negative_hits_counted(self, tmp_path):
        # lusearch below its ZGC minimum heap cannot run: the OOM is
        # cached and the warm rerun hits it negatively.
        spec = registry.workload("lusearch")
        plan = plan_lbo(spec, ("ZGC",), (0.8, 3.0), sweep_config())
        # Warm the cache at the same (recorder-upgraded, full) fidelity
        # tier the recorded rerun will ask for — tiers are part of the key.
        run_plan(plan, ExecutionEngine(cache_dir=tmp_path, recorder=Recorder()))
        engine = ExecutionEngine(cache_dir=tmp_path, recorder=Recorder())
        _, stats = run_plan(plan, engine, return_stats=True)
        assert stats.cached == 4 and stats.executed == 0
        assert stats.negative_hits == 2
        negatives = [
            e for e in engine.recorder.events() if isinstance(e, CacheHit) and e.negative
        ]
        assert len(negatives) == 2

    def test_run_plan_return_stats_is_per_plan_delta(self, lusearch):
        engine = ExecutionEngine()
        plan = plan_lbo(lusearch, ("G1",), (3.0,), sweep_config())
        _, first = run_plan(plan, engine, return_stats=True)
        _, second = run_plan(plan, engine, return_stats=True)
        assert first.executed == 2 and first.cells == 2
        assert second.executed == 2  # no cache: the rerun simulates again
        assert engine.stats.executed == 4

    def test_engine_stats_properties(self):
        stats = EngineStats(executed=3, cached=9, negative_hits=2, skipped=1)
        assert stats.hits == 9 and stats.misses == 3
        assert stats.cells == 13
        assert stats.hit_rate == pytest.approx(0.75)
        assert EngineStats().hit_rate == 0.0

    def test_log_sink_prints_hit_rate(self, lusearch, tmp_path, capsys):
        import io

        from repro.harness.engine import LogSink

        run_traced(lusearch, cache_dir=tmp_path)
        stream = io.StringIO()
        # Recorder on, so the rerun asks for the same (full) fidelity tier
        # the traced warming run cached under.
        engine = ExecutionEngine(
            cache_dir=tmp_path, progress=LogSink(stream), recorder=Recorder()
        )
        run_plan(plan_lbo(lusearch, ("G1", "ZGC"), (2.0, 3.0), sweep_config()), engine)
        assert "100% hit rate" in stream.getvalue()


class TestSimulatorRecording:
    def test_iteration_and_warmup_events(self, lusearch):
        recorder = Recorder()
        run = simulate_run(
            lusearch, "G1", lusearch.heap_mb_for(3.0), iterations=3, recorder=recorder
        )
        iterations = [e for e in recorder.events() if isinstance(e, IterationSpan)]
        assert [s.index for s in iterations] == [1, 2, 3]
        # Iterations tile the run's simulated time end to end.
        for a, b in zip(iterations, iterations[1:]):
            assert b.ts == pytest.approx(a.end)
        assert sum(s.dur for s in iterations) == pytest.approx(
            sum(r.wall_s for r in run.iterations)
        )
        warmups = [e for e in recorder.events() if isinstance(e, CompileWarmup)]
        assert warmups and warmups[0].factor > warmups[-1].factor
        assert all(isinstance(e, TraceEvent) for e in recorder.events())

    def test_gc_pauses_fall_inside_their_iteration(self, lusearch):
        recorder = Recorder()
        simulate_run(lusearch, "G1", lusearch.heap_mb_for(3.0), iterations=2, recorder=recorder)
        events = recorder.events()
        iterations = [e for e in events if isinstance(e, IterationSpan)]
        for pause in (e for e in events if isinstance(e, GcPause)):
            assert any(
                it.ts <= pause.ts and pause.end <= it.end + 1e-9 for it in iterations
            )


class TestBitIdentical:
    def test_engine_results_identical_with_recorder(self, lusearch):
        config = sweep_config()
        plan = plan_lbo(lusearch, ("G1", "Shenandoah"), (2.0, 3.0), config)
        plain = run_plan(plan, ExecutionEngine())
        traced = run_plan(plan, ExecutionEngine(recorder=Recorder()))
        for a, b in zip(plain.per_benchmark, traced.per_benchmark):
            assert a == b
        assert plain.geomean_wall == traced.geomean_wall
        assert plain.geomean_task == traced.geomean_task

    def test_simulate_run_identical_with_recorder(self, lusearch):
        heap = lusearch.heap_mb_for(3.0)
        plain = simulate_run(lusearch, "G1", heap, iterations=2)
        traced = simulate_run(lusearch, "G1", heap, iterations=2, recorder=Recorder())
        for a, b in zip(plain.iterations, traced.iterations):
            assert a.wall_s == b.wall_s
            assert a.task_clock_s == b.task_clock_s
            assert a.gc_count == b.gc_count
            assert a.allocated_mb == b.allocated_mb

    def test_trace_sweep_matches_untraced_sweep(self, lusearch):
        config = sweep_config()
        engine = ExecutionEngine(recorder=Recorder())
        campaign = run_campaign("lbo", lusearch, ("G1",), (2.0, 3.0), config, engine)
        plain = run_plan(plan_lbo(lusearch, ("G1",), (2.0, 3.0), config))
        assert campaign.result.per_benchmark == plain.per_benchmark
        assert len(engine.recorder.events()) > 0
        assert campaign.stats.executed == 4


class TestChromeTraceExport:
    def test_engine_trace_validates(self, lusearch):
        _, recorder, _ = run_traced(lusearch)
        document = chrome_trace(recorder.events())
        assert validate_chrome_trace(document) == []
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"X", "C", "M"} <= phases

    def test_trace_is_deterministic(self, lusearch, tmp_path):
        _, first, _ = run_traced(lusearch)
        _, second, _ = run_traced(lusearch)
        a = write_chrome_trace(first.events(), tmp_path / "a.json")
        b = write_chrome_trace(second.events(), tmp_path / "b.json")
        assert a.read_text() == b.read_text()

    def test_thread_name_metadata_per_cell_track(self, lusearch):
        _, recorder, _ = run_traced(lusearch)
        document = chrome_trace(recorder.events())
        names = [
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(names) == 8
        assert any(name.startswith("lusearch/G1/") for name in names)

    def test_counter_track_is_cumulative(self, lusearch, tmp_path):
        run_traced(lusearch, cache_dir=tmp_path)
        _, recorder, _ = run_traced(lusearch, cache_dir=tmp_path)
        document = chrome_trace(recorder.events())
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert counters[-1]["args"]["hits"] == 8
        assert counters[-1]["args"]["misses"] == 0

    def test_jsonl_is_lossless_per_event(self, lusearch, tmp_path):
        _, recorder, _ = run_traced(lusearch)
        path = write_jsonl(recorder.events(), tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(recorder.events())
        first = json.loads(lines[0])
        assert "type" in first and "ts" in first

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{}]}) != []
        bad_phase = {"traceEvents": [{"name": "x", "ph": "?", "ts": 0}]}
        assert any("phase" in p for p in validate_chrome_trace(bad_phase))
        bad_ts = {"traceEvents": [{"name": "x", "ph": "X", "ts": -1, "dur": 0}]}
        assert any("'ts'" in p for p in validate_chrome_trace(bad_ts))
        no_dur = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0}]}
        assert any("dur" in p for p in validate_chrome_trace(no_dur))
        assert validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0, "dur": 1.0}]}
        ) == []

    def test_span_event_shape(self):
        span = SpanEvent(ts=1.0, dur=0.5)
        assert span.end == 1.5
        with pytest.raises(ValueError):
            SpanEvent(ts=0.0, dur=-1.0)


class TestTraceCli:
    def test_trace_command_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        argv = [
            "trace", "lusearch", "--collector", "G1", "--multiple", "2.0",
            "--invocations", "1", "--scale", "0.05", "--trace-out", str(out),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "hit rate" in printed
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        assert any(e.get("cat") == "gc" for e in document["traceEvents"])

    def test_trace_command_metrics_dump(self, tmp_path, capsys):
        argv = [
            "trace", "lusearch", "--collector", "G1", "--multiple", "2.0",
            "--invocations", "1", "--scale", "0.05",
            "--trace-out", str(tmp_path / "t.json"), "--metrics", "--jsonl-out",
            str(tmp_path / "t.jsonl"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "gc.pause_seconds" in out
        assert (tmp_path / "t.jsonl").exists()

    def test_trace_command_rejects_unknown_collector(self, tmp_path, capsys):
        argv = ["trace", "lusearch", "--collector", "CMS",
                "--trace-out", str(tmp_path / "t.json")]
        assert main(argv) == 2
        assert "unknown collector" in capsys.readouterr().err
