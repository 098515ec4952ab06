"""Flight-record a sweep and a single invocation, end to end.

The observability subsystem mirrors the paper's toolchain — JVMTI pause
capture, GC logs, perf counters — as a JFR-style flight recorder.  This
example records at both granularities:

1. an engine-level sweep (one Perfetto track per cell, GC pauses nested
   inside, cache hit/miss counters): an LBO campaign run through
   ``run_campaign`` on an engine that carries a ``Recorder``, twice, to
   show cache hits appearing as zero-work spans;
2. a single ``simulate_run`` invocation at full iteration granularity
   (iteration spans, JIT warmup overhead, every pause/stall).

Open the written ``.json`` files at https://ui.perfetto.dev.
"""

import os

from repro import (
    ExecutionEngine,
    MetricsRegistry,
    Recorder,
    RunConfig,
    registry,
    run_campaign,
    simulate_run,
    write_chrome_trace,
)

CONFIG = RunConfig(invocations=2, iterations=2, duration_scale=0.05)
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".trace-cache")
OUT_DIR = os.path.dirname(__file__)


def traced(label):
    # A recording engine runs the campaign at full fidelity, so the trace
    # can nest each cell's GC pauses inside its span.
    engine = ExecutionEngine(cache_dir=CACHE_DIR, recorder=Recorder())
    campaign = run_campaign(
        "lbo",
        registry.workload("lusearch"),
        collectors=("G1", "Shenandoah", "ZGC"),
        multiples=(1.5, 2.0, 3.0),
        config=CONFIG,
        engine=engine,
    )
    stats = campaign.stats
    print(
        f"{label}: {stats.cells} cells — {stats.executed} simulated, "
        f"{stats.hits} cache hits ({stats.hit_rate:.0%} hit rate, "
        f"{stats.negative_hits} negative)"
    )
    return engine.recorder


def main():
    # Cold sweep: every cell simulated; warm sweep: zero-work hit spans.
    cold = traced("cold sweep")
    warm = traced("warm sweep")

    cold_path = write_chrome_trace(cold.events(), os.path.join(OUT_DIR, "trace_cold.json"))
    warm_path = write_chrome_trace(warm.events(), os.path.join(OUT_DIR, "trace_warm.json"))
    print(f"\nwrote {cold_path} and {warm_path} (open at https://ui.perfetto.dev)")

    # Aggregate view of the cold recording: pause percentiles, hit rate.
    metrics = MetricsRegistry()
    metrics.ingest(cold.events())
    print("\nmetrics from the cold sweep:")
    print(metrics.render())

    # Single-invocation recording at iteration granularity.
    spec = registry.workload("lusearch")
    recorder = Recorder()
    simulate_run(spec, "G1", spec.heap_mb_for(2.0), iterations=3, recorder=recorder)
    path = write_chrome_trace(recorder.events(), os.path.join(OUT_DIR, "trace_invocation.json"))
    kinds = sorted({type(e).__name__ for e in recorder.events()})
    print(f"\nsingle invocation: {len(recorder.events())} events ({', '.join(kinds)})")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
